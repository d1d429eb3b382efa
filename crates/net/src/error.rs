//! One error hierarchy for the whole network stack.
//!
//! [`SimError`] (protocol-run failures), [`CodecError`] (strict-decode
//! failures) and [`TcpError`] (socket-layer failures) all implement
//! `std::error::Error` + `Display` and convert into the top-level
//! [`Error`] via `From`, so a daemon can thread `?` from a socket read
//! all the way up to its main loop.

use crate::{PlayerId, SimError};
use borndist_pairing::CodecError;
use std::net::SocketAddr;

/// Any failure of a protocol run, whichever transport carried it.
#[derive(Debug)]
pub enum Error {
    /// Protocol-level failure (round budget, bad addressing, duplicate
    /// ids) — the errors the in-process transports already produced.
    Sim(SimError),
    /// A strict-decode failure at a layer where it is *not* protocol
    /// misbehavior (e.g. a corrupted transport envelope). Malformed
    /// protocol frames never surface here — they are delivered to the
    /// player as `Delivered::msg: Err(CodecError)` instead.
    Codec(CodecError),
    /// Socket-layer failure of the socket transport
    /// ([`crate::ReactorTransport`]).
    Tcp(TcpError),
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Sim(e) => write!(f, "protocol run failed: {}", e),
            Error::Codec(e) => write!(f, "envelope decode failed: {}", e),
            Error::Tcp(e) => write!(f, "tcp transport failed: {}", e),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Sim(e) => Some(e),
            Error::Codec(e) => Some(e),
            Error::Tcp(e) => Some(e),
        }
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        Error::Sim(e)
    }
}

impl From<CodecError> for Error {
    fn from(e: CodecError) -> Self {
        Error::Codec(e)
    }
}

impl From<TcpError> for Error {
    fn from(e: TcpError) -> Self {
        Error::Tcp(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Tcp(TcpError::Io(e))
    }
}

/// What can go wrong between real sockets.
#[derive(Debug)]
pub enum TcpError {
    /// An I/O operation failed outside any more specific context.
    Io(std::io::Error),
    /// A peer's listener never took a connection before the formation
    /// deadline (a refused connect is retried every 5 ms until then).
    DialFailed {
        /// The peer that never answered.
        peer: PlayerId,
        /// The address dialed.
        addr: SocketAddr,
        /// Why dialing stopped: a `TimedOut` error for the deadline.
        last: std::io::Error,
    },
    /// The connect/accept handshake failed or identified the wrong peer.
    Handshake {
        /// Who the handshake was with (0 if the peer never said).
        peer: PlayerId,
        /// Human-readable reason.
        reason: String,
    },
    /// Not every expected inbound peer connected before the formation
    /// deadline.
    AcceptTimeout {
        /// Peers that never completed the handshake.
        missing: Vec<PlayerId>,
    },
    /// A length prefix exceeded [`crate::MAX_ENVELOPE_BYTES`] — the
    /// pre-allocation guard against adversarial lengths.
    OversizedEnvelope {
        /// The declared length.
        declared: usize,
        /// The enforced maximum.
        max: usize,
    },
}

impl core::fmt::Display for TcpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TcpError::Io(e) => write!(f, "socket i/o failed: {}", e),
            TcpError::DialFailed { peer, addr, last } => {
                write!(f, "dialing player {} at {} failed: {}", peer, addr, last)
            }
            TcpError::Handshake { peer, reason } => {
                write!(f, "handshake with player {} failed: {}", peer, reason)
            }
            TcpError::AcceptTimeout { missing } => {
                write!(f, "players {:?} never connected", missing)
            }
            TcpError::OversizedEnvelope { declared, max } => {
                write!(f, "envelope length {} exceeds the {} cap", declared, max)
            }
        }
    }
}

impl std::error::Error for TcpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TcpError::Io(e) => Some(e),
            TcpError::DialFailed { last, .. } => Some(last),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TcpError {
    fn from(e: std::io::Error) -> Self {
        TcpError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_compose_with_question_mark() {
        fn sim() -> Result<(), Error> {
            Err(SimError::DuplicatePlayer(3))?;
            Ok(())
        }
        fn codec() -> Result<(), Error> {
            Err(CodecError::UnexpectedEnd)?;
            Ok(())
        }
        fn io() -> Result<(), Error> {
            Err(std::io::Error::other("x"))?;
            Ok(())
        }
        assert!(matches!(sim(), Err(Error::Sim(_))));
        assert!(matches!(codec(), Err(Error::Codec(_))));
        assert!(matches!(io(), Err(Error::Tcp(TcpError::Io(_)))));
    }

    #[test]
    fn sources_chain() {
        use std::error::Error as _;
        let e = Error::from(SimError::DuplicatePlayer(1));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("duplicate player"));
        let t = Error::from(TcpError::Handshake {
            peer: 2,
            reason: "wrong id".into(),
        });
        assert!(t.to_string().contains("player 2"));
    }
}
