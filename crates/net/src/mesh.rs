//! The one round engine, and the envelope it speaks: the
//! handshake/framing [`Envelope`], the incremental (partial-read /
//! partial-write) frame codecs of the socket link, and `Node` — one
//! player, its parked frames and barrier verdicts, its sender-side
//! [`Metrics`] and its [`DeliveryPolicy`] fault streams.
//!
//! A transport only decides *how envelopes move* (the in-memory link
//! hands them over between rounds, [`crate::reactor::ReactorTransport`]
//! writes them to sockets); everything that decides *which* frames
//! exist and what a player sees — metering, tampering, drop/duplicate
//! draws, inbox order and reorder shuffle, non-delivery to finished
//! players — happens in `Node::turn`, the only caller of
//! [`crate::Protocol::round`]. That is the transport-parity argument:
//! no two transports can disagree on a [`crate::Metrics`] byte or an
//! inbox, because neither computes them.

use crate::error::{Error, TcpError};
use crate::frame::encode_frame;
use crate::policy::DeliveryPolicy;
use crate::{
    BoxedPlayer, Delivered, Metrics, Outgoing, PlayerId, Recipient, RoundAction, SimError,
};
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

/// What one player knows of its mesh: frames parked for future
/// rounds, the per-peer `EndRound` watermark (the socket link's
/// barrier), and the finished/gone verdicts.
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
    pub fn live_peers(&self) -> impl Iterator<Item = PlayerId> + '_ {
        self.closed.keys().copied().filter(|p| self.live(*p))
    }

    /// Absorbs one post-handshake envelope from `from` while this
    /// player sits at round `r32`. A round-`pr` payload belongs to the
    /// round-`pr + 1` inbox (sent in `pr`, delivered at the next
    /// barrier); frames for rounds already closed here — a straggler
    /// after a timeout verdict — are dropped, and so is a frame whose
    /// peer-supplied round has no successor.
    pub fn note_envelope(&mut self, from: PlayerId, env: Envelope, r32: u32) {
        match env {
            Envelope::Payload {
                round: pr,
                broadcast,
                frame,
            } => {
                if let Some(deliver) = pr.checked_add(1).filter(|_| pr >= r32) {
                    self.pending.entry(deliver).or_default().push(Parked {
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

/// The round engine of one player: the state machine, what it knows of
/// its mesh, its sender-side metrics, and the policy with this sender's
/// fault stream. Every transport seats its players on `Node`s.
pub(crate) struct Node<M, O> {
    player: BoxedPlayer<M, O>,
    pub id: PlayerId,
    policy: DeliveryPolicy,
    send_rng: StdRng,
    pub state: RoundState,
    /// This player's sends only — merge across the mesh with
    /// [`Metrics::merge`] for the global view.
    pub metrics: Metrics,
}

impl<M: Wire, O> Node<M, O> {
    pub fn new<I: IntoIterator<Item = PlayerId>>(
        player: BoxedPlayer<M, O>,
        peers: I,
        policy: DeliveryPolicy,
    ) -> Self {
        let id = player.id();
        Node {
            player,
            id,
            send_rng: policy.sender_rng(id),
            policy,
            state: RoundState::new(peers),
            metrics: Metrics::default(),
        }
    }

    /// Plays `round`: opens the inbox parked for it — canonical order
    /// (ascending sender id, emission order within a sender, duplicates
    /// adjacent), then one receiver-side Fisher–Yates pass over the
    /// per-(receiver, deliver-round) stream when the policy reorders —
    /// decodes each frame through `decode`, advances the player and, if
    /// it continues, routes what it sent through `send` (see
    /// [`Self::route`]). Returns the output once the player finishes.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownRecipient`] on a misaddressed private frame.
    pub fn turn(
        &mut self,
        round: usize,
        decode: &mut dyn FnMut(Vec<u8>) -> Result<M, CodecError>,
        send: &mut dyn FnMut(PlayerId, &Envelope) -> bool,
    ) -> Result<Option<O>, Error> {
        let mut parked = self
            .state
            .pending
            .remove(&(round as u32))
            .unwrap_or_default();
        parked.sort_by_key(|p| p.from);
        if self.policy.reorder {
            let mut rng = self.policy.reorder_rng(round, self.id);
            for i in (1..parked.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                parked.swap(i, j);
            }
        }
        let inbox: Vec<Delivered<M>> = parked
            .into_iter()
            .map(|p| Delivered {
                from: p.from,
                broadcast: p.broadcast,
                msg: decode(p.frame),
            })
            .collect();
        match self.player.round(round, &inbox) {
            RoundAction::Finish(out) => {
                self.metrics.per_round.push((0, 0));
                Ok(Some(out))
            }
            RoundAction::Continue(outgoing) => {
                self.route(round, outgoing, send)?;
                Ok(None)
            }
        }
    }

    /// Routes one round's outgoing messages: metering (sender-side,
    /// real encoded lengths, **before** tampering), fault injection in
    /// emission order from this sender's RNG, local parking of
    /// self-deliveries, and fan-out through `send` — `send(peer, env)`
    /// returns `false` when the link to the peer is dead, which marks
    /// it gone.
    fn route(
        &mut self,
        round: usize,
        outgoing: Vec<Outgoing<M>>,
        send: &mut dyn FnMut(PlayerId, &Envelope) -> bool,
    ) -> Result<(), Error> {
        let (me, policy, state) = (self.id, &self.policy, &mut self.state);
        let r32 = round as u32;
        let (mut msgs, mut bytes) = (0, 0);
        for out in outgoing {
            let mut frame = encode_frame(&out.msg);
            msgs += 1;
            bytes += frame.len();
            // Tampering models a garbage-emitting *sender*: applied
            // before fan-out, so every receiver of a broadcast sees the
            // identical corrupted frame.
            policy.tamper_frame(round, me, &mut frame);

            let (broadcast, recipients) = match out.to {
                // The broadcast channel is reliable by assumption
                // (§2.1): exactly-once delivery to every live player,
                // the policy's private-link loss faults do not apply.
                Recipient::Broadcast => {
                    let everyone = std::iter::once(me).chain(state.live_peers());
                    (true, everyone.collect())
                }
                Recipient::Private(to) => {
                    if to != me && !state.closed.contains_key(&to) {
                        return Err(SimError::UnknownRecipient(to).into());
                    }
                    if !policy.link_up(round, me, to) {
                        continue;
                    }
                    let dropped = DeliveryPolicy::chance(&mut self.send_rng, policy.drop_rate);
                    let duplicated = !dropped
                        && DeliveryPolicy::chance(&mut self.send_rng, policy.duplicate_rate);
                    if dropped {
                        continue;
                    }
                    (false, vec![to; if duplicated { 2 } else { 1 }])
                }
            };
            let env = Envelope::Payload {
                round: r32,
                broadcast,
                frame,
            };
            for to in recipients {
                if to == me {
                    state.note_envelope(me, env.clone(), r32);
                } else if state.live(to) && !send(to, &env) {
                    state.gone.insert(to);
                }
                // A private frame to a finished peer is metered but
                // silently dropped — its recipient legitimately left.
            }
        }
        if msgs > 0 {
            *self.metrics.bytes_by_player.entry(me).or_insert(0) += bytes;
            self.metrics.active_rounds += 1;
        }
        self.metrics.messages += msgs;
        self.metrics.bytes += bytes;
        self.metrics.per_round.push((msgs, bytes));
        Ok(())
    }
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
        let inbox = &state.pending[&1];
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].from, 2);
        assert!(inbox[0].broadcast);
    }

    /// `Envelope::decode` accepts any `u32` round, so a hostile peer can
    /// send one with no successor: the frame is dropped — not parked
    /// under a wrapped key nothing ever frees, and no overflow panic on
    /// the reactor thread.
    #[test]
    fn payload_round_without_successor_is_dropped() {
        let mut state = RoundState::new([2]);
        let hostile = Envelope::Payload {
            round: u32::MAX,
            broadcast: false,
            frame: vec![1],
        };
        let decoded = Envelope::decode_exact(&hostile.encode()).unwrap();
        state.note_envelope(2, decoded, 0);
        assert!(state.pending.is_empty());
    }
}
