//! Shared socket-mesh machinery: the handshake/framing envelope, the
//! incremental (partial-read / partial-write) frame codecs, and the
//! round engine the socket transport drives.
//!
//! [`crate::reactor::ReactorTransport`] only decides *how bytes move*;
//! everything that decides *which* frames exist — metering, fault
//! injection, parking, barriers — lives here, and draws from the same
//! [`DeliveryPolicy`] RNG streams as the in-process router. That is the
//! transport-parity argument: a socket run cannot disagree with a
//! [`crate::ChannelTransport`] run on a [`crate::Metrics`] byte.

use crate::error::{Error, TcpError};
use crate::frame::{decode_frame, encode_frame};
use crate::policy::DeliveryPolicy;
use crate::{Delivered, Metrics, Outgoing, PlayerId, Recipient, SimError};
use borndist_pairing::codec::{CodecError, Wire};
use rand::rngs::StdRng;
use rand::RngCore;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{Read, Write};

/// Hard cap on a length-prefixed envelope — the pre-allocation guard
/// against adversarial length prefixes (mirrors the `Vec<T>` decoder's
/// `BadLength` check one layer down).
pub const MAX_ENVELOPE_BYTES: usize = 64 * 1024 * 1024;

/// What actually crosses a socket: a length-prefixed, strictly decoded
/// control-or-payload record. Protocol frames travel opaque inside
/// [`Envelope::Payload`] — the transport never interprets them, each
/// recipient decodes independently (decode-validate-then-process).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Envelope {
    /// Dialer's first word: who is calling, and whom it thinks it
    /// reached.
    Hello {
        /// The dialing player.
        from: PlayerId,
        /// The id the dialer expects on this end.
        to: PlayerId,
    },
    /// Acceptor's reply, confirming its identity.
    HelloAck {
        /// The accepting player.
        from: PlayerId,
    },
    /// One protocol frame sent in `round`.
    Payload {
        /// The sender's round number.
        round: u32,
        /// `true` for the broadcast channel, `false` for private.
        broadcast: bool,
        /// The versioned protocol frame ([`crate::frame`]).
        frame: Vec<u8>,
    },
    /// The sender has emitted everything it will send in `round`.
    EndRound {
        /// The closed round.
        round: u32,
    },
    /// The sender terminated in `round`; satisfies every later barrier.
    Finished {
        /// The terminal round.
        round: u32,
    },
}

const TAG_HELLO: u8 = 0;
const TAG_HELLO_ACK: u8 = 1;
const TAG_PAYLOAD: u8 = 2;
const TAG_END_ROUND: u8 = 3;
const TAG_FINISHED: u8 = 4;

impl Wire for Envelope {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            Envelope::Hello { from, to } => {
                out.push(TAG_HELLO);
                from.encode_to(out);
                to.encode_to(out);
            }
            Envelope::HelloAck { from } => {
                out.push(TAG_HELLO_ACK);
                from.encode_to(out);
            }
            Envelope::Payload {
                round,
                broadcast,
                frame,
            } => {
                out.push(TAG_PAYLOAD);
                round.encode_to(out);
                out.push(u8::from(*broadcast));
                frame.encode_to(out);
            }
            Envelope::EndRound { round } => {
                out.push(TAG_END_ROUND);
                round.encode_to(out);
            }
            Envelope::Finished { round } => {
                out.push(TAG_FINISHED);
                round.encode_to(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            TAG_HELLO => Ok(Envelope::Hello {
                from: u32::decode(input)?,
                to: u32::decode(input)?,
            }),
            TAG_HELLO_ACK => Ok(Envelope::HelloAck {
                from: u32::decode(input)?,
            }),
            TAG_PAYLOAD => Ok(Envelope::Payload {
                round: u32::decode(input)?,
                broadcast: match u8::decode(input)? {
                    0 => false,
                    1 => true,
                    t => return Err(CodecError::InvalidTag(t)),
                },
                frame: Vec::<u8>::decode(input)?,
            }),
            TAG_END_ROUND => Ok(Envelope::EndRound {
                round: u32::decode(input)?,
            }),
            TAG_FINISHED => Ok(Envelope::Finished {
                round: u32::decode(input)?,
            }),
            tag => Err(CodecError::InvalidTag(tag)),
        }
    }
}

/// Encodes one envelope with its `u32` big-endian length prefix — the
/// exact bytes the socket transport puts on the wire.
pub fn frame_envelope(env: &Envelope) -> Vec<u8> {
    let body = env.encode();
    let mut buf = Vec::with_capacity(4 + body.len());
    buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
    buf.extend_from_slice(&body);
    buf
}

/// What one nonblocking pull from a socket produced.
#[derive(Debug, Default)]
pub struct Pull {
    /// Every envelope completed by this pull, in arrival order.
    pub envelopes: Vec<Envelope>,
    /// `true` once the peer is unusable: EOF, a socket error, an
    /// oversized length prefix, or a malformed envelope — any read
    /// error means the peer is gone.
    pub closed: bool,
}

/// The partial-read state machine of one inbound socket: accumulates
/// whatever bytes a nonblocking read produces and yields envelopes as
/// their length prefixes complete.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    resumptions: u64,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many times a pull found bytes while the buffer already held
    /// a partial frame — the "partial-read resumption" counter surfaced
    /// in [`crate::TransportStats`].
    pub fn resumptions(&self) -> u64 {
        self.resumptions
    }

    /// Appends raw bytes and extracts every completed envelope.
    ///
    /// # Errors
    ///
    /// An oversized declared length or a strict-decode failure poisons
    /// the stream (framing is unrecoverable once misaligned).
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<Envelope>, Error> {
        if !self.buf.is_empty() && !bytes.is_empty() {
            self.resumptions += 1;
        }
        self.buf.extend_from_slice(bytes);
        let mut out = Vec::new();
        loop {
            if self.buf.len() < 4 {
                return Ok(out);
            }
            let len =
                u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
            if len > MAX_ENVELOPE_BYTES {
                return Err(TcpError::OversizedEnvelope {
                    declared: len,
                    max: MAX_ENVELOPE_BYTES,
                }
                .into());
            }
            if self.buf.len() < 4 + len {
                return Ok(out);
            }
            let env = Envelope::decode_exact(&self.buf[4..4 + len])?;
            self.buf.drain(..4 + len);
            out.push(env);
        }
    }

    /// Drains a nonblocking reader: reads until `WouldBlock`, EOF or an
    /// error, feeding every chunk through [`Self::feed`].
    pub fn pull<R: Read>(&mut self, r: &mut R) -> Pull {
        let mut pull = Pull::default();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match r.read(&mut chunk) {
                Ok(0) => {
                    pull.closed = true;
                    return pull;
                }
                Ok(n) => match self.feed(&chunk[..n]) {
                    Ok(envs) => pull.envelopes.extend(envs),
                    Err(_) => {
                        pull.closed = true;
                        return pull;
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return pull,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    pull.closed = true;
                    return pull;
                }
            }
        }
    }
}

/// Result of a [`WriteQueue::flush`] attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flush {
    /// Everything queued is on the wire.
    Drained,
    /// The socket's send buffer filled; bytes remain queued.
    Blocked,
    /// The socket is dead; queued bytes are lost.
    Closed,
}

/// The partial-write state machine of one outbound socket: envelopes
/// are queued whole and flushed as far as the socket accepts, with the
/// offset into the front buffer carried across `WouldBlock`, so a
/// large simultaneous fan-out cannot deadlock on full kernel buffers.
#[derive(Debug, Default)]
pub struct WriteQueue {
    queue: VecDeque<Vec<u8>>,
    /// Bytes of `queue[0]` already written.
    offset: usize,
}

impl WriteQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues one envelope (length prefix included).
    pub fn push(&mut self, env: &Envelope) {
        self.queue.push_back(frame_envelope(env));
    }

    /// `true` when nothing is waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Writes as much as the (nonblocking) socket accepts.
    pub fn flush<W: Write>(&mut self, w: &mut W) -> Flush {
        while let Some(front) = self.queue.front() {
            match w.write(&front[self.offset..]) {
                Ok(0) => return Flush::Closed,
                Ok(n) => {
                    self.offset += n;
                    if self.offset == front.len() {
                        self.queue.pop_front();
                        self.offset = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Flush::Blocked,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Flush::Closed,
            }
        }
        Flush::Drained
    }
}

/// A parked inbound frame, keyed by the round it belongs to.
pub(crate) struct Parked {
    pub from: PlayerId,
    pub broadcast: bool,
    pub frame: Vec<u8>,
}

/// The per-player round-engine state of a socket transport:
/// frames parked for future barriers, the per-peer `EndRound`
/// watermark, and the finished/gone verdicts.
pub(crate) struct RoundState {
    /// Frames parked for a future round's barrier.
    pub pending: BTreeMap<u32, Vec<Parked>>,
    /// Highest round each peer has closed with `EndRound` (every mesh
    /// peer has an entry — the key set doubles as the peer list).
    pub closed: BTreeMap<PlayerId, Option<u32>>,
    /// Peers that sent `Finished` (satisfies every later barrier).
    pub finished: BTreeSet<PlayerId>,
    /// Peers whose socket died or that timed out a barrier.
    pub gone: BTreeSet<PlayerId>,
}

impl RoundState {
    pub fn new<I: IntoIterator<Item = PlayerId>>(peers: I) -> Self {
        RoundState {
            pending: BTreeMap::new(),
            closed: peers.into_iter().map(|p| (p, None)).collect(),
            finished: BTreeSet::new(),
            gone: BTreeSet::new(),
        }
    }

    /// `true` if `peer` is still a delivery target (not finished, not
    /// crashed).
    pub fn live(&self, peer: PlayerId) -> bool {
        !self.finished.contains(&peer) && !self.gone.contains(&peer)
    }

    /// The live peers, in id order.
    pub fn live_peers(&self) -> Vec<PlayerId> {
        self.closed
            .keys()
            .filter(|p| self.live(**p))
            .copied()
            .collect()
    }

    /// Assembles round `round`'s inbox: everything parked at the
    /// barrier, sorted into the canonical pre-shuffle order (ascending
    /// sender id — matching the in-process transports' registration
    /// order), then shuffled receiver-side from the shared per-(receiver,
    /// deliver-round) stream — draw-for-draw identical to the router's
    /// per-inbox Fisher–Yates.
    pub fn take_inbox<M: Wire>(
        &mut self,
        round: usize,
        me: PlayerId,
        policy: &DeliveryPolicy,
    ) -> Vec<Delivered<M>> {
        let mut parked = self.pending.remove(&(round as u32)).unwrap_or_default();
        parked.sort_by_key(|p| p.from);
        if policy.reorder {
            let mut rng = policy.reorder_rng(round, me);
            for i in (1..parked.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                parked.swap(i, j);
            }
        }
        parked
            .into_iter()
            .map(|p| Delivered {
                from: p.from,
                broadcast: p.broadcast,
                msg: decode_frame(&p.frame),
            })
            .collect()
    }

    /// Absorbs one post-handshake envelope from `from` while this
    /// player sits at round `r32`. A round-`pr` payload belongs to the
    /// round-`pr + 1` inbox (sent in `pr`, delivered at the next
    /// barrier); frames for rounds already closed here — a straggler
    /// after a timeout verdict — are dropped.
    pub fn note_envelope(&mut self, from: PlayerId, env: Envelope, r32: u32) {
        match env {
            Envelope::Payload {
                round: pr,
                broadcast,
                frame,
            } => {
                if pr >= r32 {
                    self.pending.entry(pr + 1).or_default().push(Parked {
                        from,
                        broadcast,
                        frame,
                    });
                }
            }
            Envelope::EndRound { round: pr } => {
                let entry = self.closed.entry(from).or_insert(None);
                *entry = Some(entry.map_or(pr, |c| c.max(pr)));
            }
            Envelope::Finished { .. } => {
                self.finished.insert(from);
            }
            // Handshake words after the mesh is up are a protocol
            // violation; ignore them.
            Envelope::Hello { .. } | Envelope::HelloAck { .. } => {}
        }
    }

    /// The live peers whose round-`r32` barrier is still open.
    pub fn waiting_on(&self, r32: u32) -> Vec<PlayerId> {
        self.closed
            .iter()
            .filter(|(p, c)| self.live(**p) && !matches!(c, Some(done) if *done >= r32))
            .map(|(p, _)| *p)
            .collect()
    }
}

/// Routes one round's outgoing messages: metering (sender-side, real
/// encoded lengths, **before** tampering), fault injection in emission
/// order from the shared sender RNG, local parking of self-deliveries,
/// and fan-out through `send` — `send(peer, env)` returns `false` when
/// the peer's socket is dead, which marks it gone.
///
/// The drop / duplicate / tamper decisions are drawn exactly as the
/// in-process router draws them, so the schedule and every metered byte
/// are identical by construction.
#[allow(clippy::too_many_arguments)] // the full per-round routing context
pub(crate) fn route_outgoing<M: Wire>(
    me: PlayerId,
    round: usize,
    outgoing: Vec<Outgoing<M>>,
    policy: &DeliveryPolicy,
    send_rng: &mut StdRng,
    state: &mut RoundState,
    metrics: &mut Metrics,
    send: &mut dyn FnMut(PlayerId, &Envelope) -> bool,
) -> Result<(), Error> {
    let r32 = round as u32;
    let mut round_msgs = 0usize;
    let mut round_bytes = 0usize;
    for out in outgoing {
        let mut frame = encode_frame(&out.msg);
        // Meter sender-side at the real encoded length, before fault
        // injection — identical to the shared router.
        round_msgs += 1;
        round_bytes += frame.len();
        *metrics.bytes_by_player.entry(me).or_insert(0) += frame.len();
        policy.tamper_frame(round, me, &mut frame);

        match out.to {
            Recipient::Broadcast => {
                state.pending.entry(r32 + 1).or_default().push(Parked {
                    from: me,
                    broadcast: true,
                    frame: frame.clone(),
                });
                let env = Envelope::Payload {
                    round: r32,
                    broadcast: true,
                    frame,
                };
                for pid in state.live_peers() {
                    if !send(pid, &env) {
                        state.gone.insert(pid);
                    }
                }
            }
            Recipient::Private(to) => {
                if to != me && !state.closed.contains_key(&to) {
                    return Err(SimError::UnknownRecipient(to).into());
                }
                if !policy.link_up(round, me, to) {
                    continue;
                }
                let dropped = DeliveryPolicy::chance(send_rng, policy.drop_rate);
                let duplicated =
                    !dropped && DeliveryPolicy::chance(send_rng, policy.duplicate_rate);
                if dropped {
                    continue;
                }
                let copies = if duplicated { 2 } else { 1 };
                for _ in 0..copies {
                    if to == me {
                        state.pending.entry(r32 + 1).or_default().push(Parked {
                            from: me,
                            broadcast: false,
                            frame: frame.clone(),
                        });
                    } else if state.live(to) {
                        let env = Envelope::Payload {
                            round: r32,
                            broadcast: false,
                            frame: frame.clone(),
                        };
                        if !send(to, &env) {
                            state.gone.insert(to);
                        }
                    }
                    // A private frame to a finished peer is metered but
                    // silently dropped — its recipient legitimately
                    // left.
                }
            }
        }
    }
    metrics.messages += round_msgs;
    metrics.bytes += round_bytes;
    metrics.per_round.push((round_msgs, round_bytes));
    if round_msgs > 0 {
        metrics.active_rounds += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrip() {
        for env in [
            Envelope::Hello { from: 3, to: 1 },
            Envelope::HelloAck { from: 1 },
            Envelope::Payload {
                round: 7,
                broadcast: true,
                frame: vec![1, 2, 3],
            },
            Envelope::EndRound { round: 9 },
            Envelope::Finished { round: 2 },
        ] {
            assert_eq!(Envelope::decode_exact(&env.encode()).unwrap(), env);
        }
        assert!(matches!(
            Envelope::decode_exact(&[9]),
            Err(CodecError::InvalidTag(9))
        ));
        // Non-boolean broadcast flag is rejected.
        let mut bytes = Envelope::Payload {
            round: 0,
            broadcast: false,
            frame: vec![],
        }
        .encode();
        bytes[5] = 2;
        assert!(matches!(
            Envelope::decode_exact(&bytes),
            Err(CodecError::InvalidTag(2))
        ));
    }

    #[test]
    fn frame_reader_reassembles_byte_by_byte() {
        let envs = [
            Envelope::Hello { from: 3, to: 1 },
            Envelope::Payload {
                round: 2,
                broadcast: true,
                frame: vec![9; 100],
            },
            Envelope::EndRound { round: 2 },
        ];
        let mut wire = Vec::new();
        for env in &envs {
            wire.extend_from_slice(&frame_envelope(env));
        }
        let mut reader = FrameReader::new();
        let mut seen = Vec::new();
        for b in &wire {
            seen.extend(reader.feed(std::slice::from_ref(b)).unwrap());
        }
        assert_eq!(seen, envs);
        // Every frame needed many partial-read resumptions.
        assert!(reader.resumptions() > envs.len() as u64);
    }

    #[test]
    fn frame_reader_handles_coalesced_and_split_chunks() {
        let a = frame_envelope(&Envelope::EndRound { round: 7 });
        let b = frame_envelope(&Envelope::Finished { round: 8 });
        let mut wire = a.clone();
        wire.extend_from_slice(&b);
        // Two frames in one chunk.
        let mut reader = FrameReader::new();
        assert_eq!(reader.feed(&wire).unwrap().len(), 2);
        assert_eq!(reader.resumptions(), 0);
        // One frame split across the two-chunk boundary.
        let mut reader = FrameReader::new();
        let split = a.len() + 2;
        assert_eq!(reader.feed(&wire[..split]).unwrap().len(), 1);
        assert_eq!(reader.feed(&wire[split..]).unwrap().len(), 1);
        assert_eq!(reader.resumptions(), 1);
    }

    #[test]
    fn frame_reader_rejects_oversized_and_malformed() {
        let mut reader = FrameReader::new();
        let oversize = (MAX_ENVELOPE_BYTES as u32 + 1).to_be_bytes();
        assert!(matches!(
            reader.feed(&oversize),
            Err(Error::Tcp(TcpError::OversizedEnvelope { .. }))
        ));
        let mut reader = FrameReader::new();
        // Declared length 1, body = invalid tag 9.
        assert!(reader.feed(&[0, 0, 0, 1, 9]).is_err());
    }

    #[test]
    fn write_queue_tracks_partial_writes() {
        /// Accepts at most `cap` bytes per call, then `WouldBlock`s.
        struct Throttle {
            cap: usize,
            sunk: Vec<u8>,
            calls: usize,
        }
        impl Write for Throttle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.calls += 1;
                if self.calls.is_multiple_of(2) {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(self.cap);
                self.sunk.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let env = Envelope::Payload {
            round: 1,
            broadcast: false,
            frame: vec![7; 50],
        };
        let mut wq = WriteQueue::new();
        wq.push(&env);
        wq.push(&Envelope::EndRound { round: 1 });
        let mut sink = Throttle {
            cap: 3,
            sunk: Vec::new(),
            calls: 0,
        };
        let mut flushes = 0;
        while wq.flush(&mut sink) == Flush::Blocked {
            flushes += 1;
            assert!(flushes < 1000, "flush must converge");
        }
        assert!(wq.is_empty());
        // The bytes on the "wire" are the two frames, uncorrupted by
        // all the partial writes.
        let mut expect = frame_envelope(&env);
        expect.extend_from_slice(&frame_envelope(&Envelope::EndRound { round: 1 }));
        assert_eq!(sink.sunk, expect);
    }

    #[test]
    fn round_state_parks_closes_and_times_out() {
        let mut state = RoundState::new([2, 3]);
        assert_eq!(state.waiting_on(0), vec![2, 3]);
        state.note_envelope(
            2,
            Envelope::Payload {
                round: 0,
                broadcast: true,
                frame: vec![1],
            },
            0,
        );
        state.note_envelope(2, Envelope::EndRound { round: 0 }, 0);
        assert_eq!(state.waiting_on(0), vec![3]);
        state.note_envelope(3, Envelope::Finished { round: 0 }, 0);
        assert!(state.waiting_on(0).is_empty());
        // Finished satisfies *future* barriers too.
        assert_eq!(state.waiting_on(5), vec![2]);
        // A straggler for a round closed long ago is dropped — only the
        // frame parked at the top of the test sits in round 1's inbox.
        state.note_envelope(
            2,
            Envelope::Payload {
                round: 0,
                broadcast: false,
                frame: vec![2],
            },
            3,
        );
        assert_eq!(state.pending.get(&1).map_or(0, Vec::len), 1);
        let inbox: Vec<Delivered<u64>> = state.take_inbox(1, 9, &DeliveryPolicy::reliable());
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].from, 2);
        assert!(inbox[0].broadcast);
    }
}
