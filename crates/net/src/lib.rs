//! # borndist-net
//!
//! A transport-abstracted runtime for the communication model the paper
//! assumes (§2.1): *partially synchronous* communication organized in
//! rounds, a reliable public **broadcast channel** that the adversary
//! can read and use but cannot tamper with, and **private authenticated
//! channels** between every pair of players.
//!
//! Protocols are state machines implementing [`Protocol`]. Their
//! messages never cross a player boundary as Rust values: every message
//! is encoded into a versioned byte [`frame`] (canonical [`Wire`]
//! codec), metered at its real encoded length, and independently
//! decoded-and-validated by each recipient. A frame that fails the
//! strict decode is delivered as a [`CodecError`] in
//! [`Delivered::msg`], so protocols treat malformed traffic as
//! first-class misbehavior rather than panicking.
//!
//! There is **one round engine** — the `Node` of [`mesh`]: a player,
//! the frames parked for its future rounds, its sender-side [`Metrics`]
//! and its [`DeliveryPolicy`] fault streams — and a transport is
//! nothing but a link that moves the [`mesh::Envelope`]s it emits.
//! [`TransportKind`] names the three ways to run it:
//!
//! * `Lockstep` — the in-memory link: every player on the caller's
//!   thread, driven by one loop that is the round barrier; the faithful
//!   idealized model (formerly `Simulator`), synchronous rounds,
//!   reliable delivery;
//! * `Channel` — the same link on the same thread under a deterministic
//!   fault-injection [`DeliveryPolicy`] (per-link drop, duplication,
//!   reordering, partitions, crash-restart outages, frame tampering);
//!   `Channel(DeliveryPolicy::reliable())` runs exactly what `Lockstep`
//!   runs;
//! * `TcpReactor` — the socket link: [`ReactorTransport`] runs one
//!   player over real `std::net::TcpStream` sockets, so a run can span
//!   OS processes and machines; each player is **one event loop and
//!   zero extra threads** (`poll(2)` on Linux, adaptive readiness scan
//!   elsewhere), which is what scales to n=512+ meshes. The variant
//!   runs a whole player set as an in-process `127.0.0.1` mesh.
//!
//! Metering (sender-side, real frame lengths, before fault injection),
//! fault draws and inbox order (ascending sender id, then the policy's
//! receiver-side shuffle) all happen inside the engine, so [`Metrics`]
//! and every inbox agree across links by construction: experiment E5's
//! byte counts are the exact frame lengths on the wire, whichever link
//! carries the protocol.
//! Byzantine behavior is expressed by registering a *different* state
//! machine (or behavior-hooked player) for a corrupted player;
//! unreliable-network behavior by the policy — both in one runtime.
//! Failures from every layer unify in [`Error`] (see `error.rs`).

mod error;
pub mod frame;
mod inproc;
pub mod mesh;
mod policy;
pub mod reactor;
mod ready;

pub use borndist_pairing::codec::{CodecError, Wire};
pub use error::{Error, TcpError};
pub use frame::{decode_frame, encode_frame, WIRE_VERSION};
pub use mesh::MAX_ENVELOPE_BYTES;
pub use policy::{DeliveryPolicy, Outage, Partition, Tamper, TamperRule};
pub use reactor::{ensure_fd_capacity, run_tcp_reactor_loopback, ReactorTransport};

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// 1-based player identifier (index `0` is reserved, matching the
/// secret-sharing convention).
pub type PlayerId = u32;

/// Where a message is addressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recipient {
    /// Reliable broadcast: delivered to *all* players (including the
    /// sender) and observable by the adversary.
    Broadcast,
    /// Private authenticated channel to one player.
    Private(PlayerId),
}

/// A message queued for delivery next round.
#[derive(Clone, Debug)]
pub struct Outgoing<M> {
    /// Destination.
    pub to: Recipient,
    /// Payload (encoded into a frame at the transport boundary).
    pub msg: M,
}

/// A frame delivered to a player at the start of a round, after the
/// strict decode.
#[derive(Clone, Debug)]
pub struct Delivered<M> {
    /// Authenticated sender identity.
    pub from: PlayerId,
    /// `true` if received over the broadcast channel.
    pub broadcast: bool,
    /// The decoded message — or the decode failure, which protocols
    /// must treat as sender misbehavior (decode-validate-then-process).
    pub msg: Result<M, CodecError>,
}

impl<M> Delivered<M> {
    /// The message if it decoded, `None` for malformed frames.
    pub fn ok(&self) -> Option<&M> {
        self.msg.as_ref().ok()
    }
}

/// What a player does at the end of a round.
pub enum RoundAction<M, O> {
    /// Keep running and send these messages.
    Continue(Vec<Outgoing<M>>),
    /// Terminate with a final output (no further messages).
    Finish(O),
}

/// A per-player protocol state machine.
///
/// `round` is called once per simulated round with all frames delivered
/// from the previous round; the first call (`round == 0`) has an empty
/// inbox.
pub trait Protocol {
    /// Wire message type ([`Wire`]-encodable: only its frame bytes ever
    /// leave the player).
    type Message: Wire;
    /// Final per-player output.
    type Output;

    /// Advances the state machine by one round.
    fn round(
        &mut self,
        round: usize,
        inbox: &[Delivered<Self::Message>],
    ) -> RoundAction<Self::Message, Self::Output>;

    /// This player's identity.
    fn id(&self) -> PlayerId;
}

/// A boxed protocol player, as every transport consumes them
/// (`Send` so a transport can seat it on a thread of its own).
pub type BoxedPlayer<M, O> = Box<dyn Protocol<Message = M, Output = O> + Send>;

/// Traffic statistics collected by the transports.
///
/// Byte counts are **real encoded frame lengths** (version byte
/// included), metered sender-side by the one round engine — identical
/// between transports for the same protocol run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Number of rounds in which at least one message was sent.
    pub active_rounds: usize,
    /// Total rounds driven until every player finished.
    pub total_rounds: usize,
    /// Total messages sent (a broadcast counts once).
    pub messages: usize,
    /// Total frame bytes sent (a broadcast counts once; drops and
    /// duplicates in flight do not change the sender-side count).
    pub bytes: usize,
    /// Per-player bytes sent.
    pub bytes_by_player: BTreeMap<PlayerId, usize>,
    /// Per-round (messages, bytes).
    pub per_round: Vec<(usize, usize)>,
    /// Wall-clock time of the whole run: all players' compute across all
    /// rounds plus the transport's own frame movement and barrier waits
    /// (negligible in-process) — the latency dimension of experiment E5.
    pub elapsed: Duration,
    /// Per-round wall-clock time, aligned with [`Self::per_round`].
    pub per_round_elapsed: Vec<Duration>,
}

impl Metrics {
    /// `true` if the traffic-shaped fields (everything except the
    /// wall-clock samples) are identical — how transport byte-parity is
    /// asserted without comparing timings.
    pub fn same_traffic(&self, other: &Metrics) -> bool {
        self.active_rounds == other.active_rounds
            && self.total_rounds == other.total_rounds
            && self.messages == other.messages
            && self.bytes == other.bytes
            && self.bytes_by_player == other.bytes_by_player
            && self.per_round == other.per_round
    }

    /// Merges per-player metrics (each covering one player's sends, as
    /// the round engine meters them) into the global view of a run:
    /// counters sum, per-round vectors sum
    /// elementwise (padding short runs with zero rounds), and the
    /// wall-clock samples take the slowest player (rounds overlap in
    /// real time, they don't concatenate).
    pub fn merge<'a, I: IntoIterator<Item = &'a Metrics>>(parts: I) -> Metrics {
        let mut merged = Metrics::default();
        for part in parts {
            merged.messages += part.messages;
            merged.bytes += part.bytes;
            merged.total_rounds = merged.total_rounds.max(part.total_rounds);
            for (player, bytes) in &part.bytes_by_player {
                *merged.bytes_by_player.entry(*player).or_insert(0) += bytes;
            }
            if merged.per_round.len() < part.per_round.len() {
                merged.per_round.resize(part.per_round.len(), (0, 0));
            }
            for (slot, (msgs, bytes)) in merged.per_round.iter_mut().zip(&part.per_round) {
                slot.0 += msgs;
                slot.1 += bytes;
            }
            if merged.per_round_elapsed.len() < part.per_round_elapsed.len() {
                merged
                    .per_round_elapsed
                    .resize(part.per_round_elapsed.len(), Duration::ZERO);
            }
            for (slot, sample) in merged
                .per_round_elapsed
                .iter_mut()
                .zip(&part.per_round_elapsed)
            {
                *slot = (*slot).max(*sample);
            }
            merged.elapsed = merged.elapsed.max(part.elapsed);
        }
        merged.active_rounds = merged.per_round.iter().filter(|(m, _)| *m > 0).count();
        merged
    }

    /// Records the wall-clock samples of the round just driven.
    pub(crate) fn finish_round(&mut self, round_start: Instant, run_start: Instant) {
        self.total_rounds += 1;
        self.per_round_elapsed.push(round_start.elapsed());
        self.elapsed = run_start.elapsed();
    }
}

// Metrics cross process boundaries in the threshold-signing service
// (each player ships its local view to the front-end for merging), so
// they get a canonical encoding like any other protocol value.
impl Wire for Metrics {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (self.active_rounds as u64).encode_to(out);
        (self.total_rounds as u64).encode_to(out);
        (self.messages as u64).encode_to(out);
        (self.bytes as u64).encode_to(out);
        let by_player: Vec<(PlayerId, u64)> = self
            .bytes_by_player
            .iter()
            .map(|(p, b)| (*p, *b as u64))
            .collect();
        by_player.encode_to(out);
        let per_round: Vec<(u64, u64)> = self
            .per_round
            .iter()
            .map(|(m, b)| (*m as u64, *b as u64))
            .collect();
        per_round.encode_to(out);
        (self.elapsed.as_nanos() as u64).encode_to(out);
        let per_round_elapsed: Vec<u64> = self
            .per_round_elapsed
            .iter()
            .map(|d| d.as_nanos() as u64)
            .collect();
        per_round_elapsed.encode_to(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let active_rounds = u64::decode(input)? as usize;
        let total_rounds = u64::decode(input)? as usize;
        let messages = u64::decode(input)? as usize;
        let bytes = u64::decode(input)? as usize;
        let by_player = Vec::<(PlayerId, u64)>::decode(input)?;
        let per_round = Vec::<(u64, u64)>::decode(input)?;
        let elapsed = Duration::from_nanos(u64::decode(input)?);
        let per_round_elapsed = Vec::<u64>::decode(input)?;
        Ok(Metrics {
            active_rounds,
            total_rounds,
            messages,
            bytes,
            bytes_by_player: by_player
                .into_iter()
                .map(|(p, b)| (p, b as usize))
                .collect(),
            per_round: per_round
                .into_iter()
                .map(|(m, b)| (m as usize, b as usize))
                .collect(),
            elapsed,
            per_round_elapsed: per_round_elapsed
                .into_iter()
                .map(Duration::from_nanos)
                .collect(),
        })
    }
}

/// A per-request latency distribution: count, mean, nearest-rank
/// percentiles, and the worst sample.
///
/// Built once from raw `Duration` samples by [`Self::from_samples`];
/// every layer that reports request latency (the mux coordinator's
/// enqueue→response stamps, the service front-end, the gate examples)
/// summarizes through this one type so daemon-mode and in-process
/// histograms come from the same code path. It crosses the service's
/// client framing, so it carries a canonical encoding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median (nearest-rank).
    pub p50: Duration,
    /// 95th percentile (nearest-rank).
    pub p95: Duration,
    /// 99th percentile (nearest-rank).
    pub p99: Duration,
    /// Worst observed sample.
    pub max: Duration,
}

impl LatencySummary {
    /// Summarizes raw samples (order-insensitive). The empty sample set
    /// yields the all-zero summary.
    pub fn from_samples(samples: &[Duration]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let total: Duration = sorted.iter().sum();
        // Nearest-rank: the q-th percentile is the ⌈q·n⌉-th smallest
        // sample, so small sample sets report real observations rather
        // than interpolated values.
        let pct = |q: f64| -> Duration {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        };
        LatencySummary {
            count: sorted.len() as u64,
            mean: total / sorted.len() as u32,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

impl Wire for LatencySummary {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.count.encode_to(out);
        (self.mean.as_nanos() as u64).encode_to(out);
        (self.p50.as_nanos() as u64).encode_to(out);
        (self.p95.as_nanos() as u64).encode_to(out);
        (self.p99.as_nanos() as u64).encode_to(out);
        (self.max.as_nanos() as u64).encode_to(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(LatencySummary {
            count: u64::decode(input)?,
            mean: Duration::from_nanos(u64::decode(input)?),
            p50: Duration::from_nanos(u64::decode(input)?),
            p95: Duration::from_nanos(u64::decode(input)?),
            p99: Duration::from_nanos(u64::decode(input)?),
            max: Duration::from_nanos(u64::decode(input)?),
        })
    }
}

/// Socket-layer counters of one real-socket transport run — the
/// operational view ([`Metrics`] is the *protocol* view and stays
/// byte-identical across transports; these counters describe how the
/// bytes moved and depend on kernel scheduling).
///
/// Crosses the service's client framing (the daemon `Summary` reports
/// its signing-mesh counters), so it carries a canonical encoding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Most peer connections simultaneously open.
    pub connections_high_water: u64,
    /// Envelopes received (payload and control).
    pub frames_in: u64,
    /// Envelopes sent or queued for sending (payload and control).
    pub frames_out: u64,
    /// Times an inbound read resumed a partially buffered frame —
    /// nonzero means the reactor's incremental framing actually crossed
    /// packet boundaries (workload-dependent: loopback often delivers
    /// whole frames).
    pub partial_read_resumptions: u64,
}

impl TransportStats {
    /// Folds another node's counters into this one: a deployment-wide
    /// aggregate over distinct processes (so even `connections_high_water`
    /// sums — each process's peak is independent).
    pub fn absorb(&mut self, other: &TransportStats) {
        self.connections_high_water += other.connections_high_water;
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.partial_read_resumptions += other.partial_read_resumptions;
    }
}

impl Wire for TransportStats {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.connections_high_water.encode_to(out);
        self.frames_in.encode_to(out);
        self.frames_out.encode_to(out);
        self.partial_read_resumptions.encode_to(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(TransportStats {
            connections_high_water: u64::decode(input)?,
            frames_in: u64::decode(input)?,
            frames_out: u64::decode(input)?,
            partial_read_resumptions: u64::decode(input)?,
        })
    }
}

/// Errors from a transport run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A player addressed a message to an unknown id.
    UnknownRecipient(PlayerId),
    /// Not all players finished within the round budget.
    RoundLimitExceeded {
        /// The configured budget.
        limit: usize,
        /// The players that had not finished when the budget ran out.
        unfinished: Vec<PlayerId>,
    },
    /// Two players registered with the same id.
    DuplicatePlayer(PlayerId),
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::UnknownRecipient(id) => write!(f, "message to unknown player {}", id),
            SimError::RoundLimitExceeded { limit, unfinished } => {
                write!(
                    f,
                    "players {:?} did not finish within {} rounds",
                    unfinished, limit
                )
            }
            SimError::DuplicatePlayer(id) => write!(f, "duplicate player id {}", id),
        }
    }
}
impl std::error::Error for SimError {}

/// Which transport to run a protocol over — how callers up the stack
/// (DKG drivers, examples, benchmarks) select a runtime without caring
/// about its mechanics (one round engine, three ways to carry it).
#[derive(Clone, Debug, Default)]
pub enum TransportKind {
    /// The in-memory link, every player on the caller's thread (and
    /// under the caller's parallelism setting), reliable delivery: the
    /// idealized synchronous model of §2.1.
    #[default]
    Lockstep,
    /// The same caller-thread in-memory link under the given fault
    /// policy; `Channel(DeliveryPolicy::reliable())` runs exactly what
    /// [`Self::Lockstep`] runs.
    Channel(DeliveryPolicy),
    /// An in-process mesh of [`ReactorTransport`]s over real loopback
    /// sockets (one thread, one event loop and one ephemeral
    /// `127.0.0.1` port per player) with the given fault policy — every
    /// driver and fault-injection test runs unchanged over the real
    /// socket path, with [`Metrics`] byte-identical to
    /// [`Self::Channel`] under the same policy.
    TcpReactor(DeliveryPolicy),
}

/// Runs a set of players over the selected transport to completion,
/// returning the outputs by player id and the run's merged [`Metrics`].
/// A player whose `round` panics fails the run with that panic.
///
/// # Errors
///
/// [`SimError::DuplicatePlayer`]; [`SimError::RoundLimitExceeded`]
/// (naming the unfinished players — under a lossy policy, protocols
/// without retransmission may legitimately exhaust the budget);
/// [`SimError::UnknownRecipient`] on a misaddressed private frame; over
/// sockets also what [`ReactorTransport::connect`] can fail with.
pub fn run_protocol<M: Wire + Clone, O: Send>(
    kind: &TransportKind,
    players: Vec<BoxedPlayer<M, O>>,
    max_rounds: usize,
) -> Result<(BTreeMap<PlayerId, O>, Metrics), Error> {
    match kind {
        TransportKind::Lockstep => inproc::run(players, &DeliveryPolicy::reliable(), max_rounds),
        TransportKind::Channel(policy) => inproc::run(players, policy, max_rounds),
        TransportKind::TcpReactor(policy) => run_tcp_reactor_loopback(players, policy, max_rounds),
    }
}

/// Shared id-uniqueness check for transport construction.
pub(crate) fn check_unique_ids<M: Wire, O>(
    players: &[BoxedPlayer<M, O>],
) -> Result<Vec<PlayerId>, SimError> {
    let mut seen = std::collections::HashSet::new();
    let ids: Vec<PlayerId> = players.iter().map(|p| p.id()).collect();
    for id in &ids {
        if !seen.insert(*id) {
            return Err(SimError::DuplicatePlayer(*id));
        }
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy protocol: round 0 everyone broadcasts its id; round 1 everyone
    /// privately sends its id to player 1; round 2 everyone outputs the
    /// sum of everything received (malformed frames count as 1000).
    struct Summer {
        id: PlayerId,
        seen: u64,
    }

    impl Protocol for Summer {
        type Message = u64;
        type Output = u64;

        fn round(&mut self, round: usize, inbox: &[Delivered<u64>]) -> RoundAction<u64, u64> {
            self.seen += inbox
                .iter()
                .map(|d| match &d.msg {
                    Ok(v) => *v,
                    Err(_) => 1000,
                })
                .sum::<u64>();
            match round {
                0 => RoundAction::Continue(vec![Outgoing {
                    to: Recipient::Broadcast,
                    msg: self.id as u64,
                }]),
                1 => RoundAction::Continue(vec![Outgoing {
                    to: Recipient::Private(1),
                    msg: 100 + self.id as u64,
                }]),
                _ => RoundAction::Finish(self.seen),
            }
        }

        fn id(&self) -> PlayerId {
            self.id
        }
    }

    fn summers(n: u32) -> Vec<BoxedPlayer<u64, u64>> {
        (1..=n)
            .map(|id| Box::new(Summer { id, seen: 0 }) as BoxedPlayer<u64, u64>)
            .collect()
    }

    /// A one-off player from a closure: `round(round, inbox)`.
    struct Toy<F>(PlayerId, F);

    impl<O, F: FnMut(usize, &[Delivered<u64>]) -> RoundAction<u64, O>> Protocol for Toy<F> {
        type Message = u64;
        type Output = O;
        fn round(&mut self, round: usize, inbox: &[Delivered<u64>]) -> RoundAction<u64, O> {
            (self.1)(round, inbox)
        }
        fn id(&self) -> PlayerId {
            self.0
        }
    }

    fn toy<O>(
        id: PlayerId,
        round: impl FnMut(usize, &[Delivered<u64>]) -> RoundAction<u64, O> + Send + 'static,
    ) -> BoxedPlayer<u64, O> {
        Box::new(Toy(id, round))
    }

    /// `run_protocol` over the in-memory link with every player on this
    /// thread; the only failures it can meet are protocol-level.
    fn lockstep<O: Send>(
        players: Vec<BoxedPlayer<u64, O>>,
        max_rounds: usize,
    ) -> Result<(BTreeMap<PlayerId, O>, Metrics), SimError> {
        run_protocol(&TransportKind::Lockstep, players, max_rounds).map_err(|e| match e {
            Error::Sim(e) => e,
            other => panic!("unexpected error: {}", other),
        })
    }

    /// `run_protocol` over the in-memory link under `policy`.
    fn channel(
        players: Vec<BoxedPlayer<u64, u64>>,
        policy: DeliveryPolicy,
    ) -> (BTreeMap<PlayerId, u64>, Metrics) {
        run_protocol(&TransportKind::Channel(policy), players, 10).unwrap()
    }

    #[test]
    fn broadcast_reaches_everyone_once() {
        let (out, _) = lockstep(summers(4), 10).unwrap();
        // Everyone saw the 4 broadcasts (1+2+3+4 = 10); player 1 also got
        // the 4 private messages 101+102+103+104 = 410.
        assert_eq!(out[&2], 10);
        assert_eq!(out[&3], 10);
        assert_eq!(out[&1], 10 + 410);
    }

    #[test]
    fn metrics_count_messages_and_rounds() {
        let (_, m) = lockstep(summers(4), 10).unwrap();
        // Round 0: 4 broadcasts; round 1: 4 private; round 2: none.
        // Each u64 frame is 1 version byte + 8 payload bytes.
        assert_eq!(m.messages, 8);
        assert_eq!(m.active_rounds, 2);
        assert_eq!(m.total_rounds, 3);
        assert_eq!(m.per_round[0], (4, 4 * 9));
        assert_eq!(m.bytes, 8 * 9);
        assert_eq!(m.bytes_by_player[&1], 18);
        // Wall-clock capture: one sample per driven round, and the run
        // total covers at least the per-round sum.
        assert_eq!(m.per_round_elapsed.len(), m.total_rounds);
        let per_round_sum: Duration = m.per_round_elapsed.iter().sum();
        assert!(m.elapsed >= per_round_sum);
    }

    #[test]
    fn run_protocol_dispatches_all_kinds() {
        let (out, metrics) = run_protocol(&TransportKind::Lockstep, summers(3), 10).unwrap();
        // The real-socket mesh produces the same outputs and — merged
        // across players — byte-identical traffic metrics (the parity
        // gate of the socket transport).
        let (out3, metrics3) = run_protocol(
            &TransportKind::TcpReactor(DeliveryPolicy::reliable()),
            summers(3),
            10,
        )
        .unwrap();
        assert_eq!(out, out3);
        assert!(
            metrics.same_traffic(&metrics3),
            "lockstep {:?} vs reactor {:?}",
            metrics,
            metrics3
        );
    }

    #[test]
    fn metrics_merge_sums_traffic_and_maxes_time() {
        let a = Metrics {
            active_rounds: 1,
            total_rounds: 2,
            messages: 3,
            bytes: 30,
            bytes_by_player: [(1, 30)].into_iter().collect(),
            per_round: vec![(3, 30), (0, 0)],
            elapsed: Duration::from_millis(5),
            per_round_elapsed: vec![Duration::from_millis(4), Duration::from_millis(1)],
        };
        let b = Metrics {
            active_rounds: 2,
            total_rounds: 3,
            messages: 2,
            bytes: 20,
            bytes_by_player: [(2, 20)].into_iter().collect(),
            per_round: vec![(1, 10), (1, 10), (0, 0)],
            elapsed: Duration::from_millis(7),
            per_round_elapsed: vec![
                Duration::from_millis(2),
                Duration::from_millis(3),
                Duration::from_millis(2),
            ],
        };
        let merged = Metrics::merge([&a, &b]);
        assert_eq!(merged.messages, 5);
        assert_eq!(merged.bytes, 50);
        assert_eq!(merged.total_rounds, 3);
        assert_eq!(merged.per_round, vec![(4, 40), (1, 10), (0, 0)]);
        assert_eq!(merged.active_rounds, 2);
        assert_eq!(merged.bytes_by_player[&1], 30);
        assert_eq!(merged.bytes_by_player[&2], 20);
        assert_eq!(merged.elapsed, Duration::from_millis(7));
        assert_eq!(merged.per_round_elapsed[0], Duration::from_millis(4));
        assert_eq!(merged.per_round_elapsed[1], Duration::from_millis(3));
    }

    #[test]
    fn metrics_roundtrip_on_the_wire() {
        let (_, m) = lockstep(summers(4), 10).unwrap();
        let decoded = Metrics::decode_exact(&m.encode()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn round_limit_reports_unfinished_players() {
        let forever = |id| toy(id, |_, _| RoundAction::Continue(vec![]));
        let immediate = |id| toy(id, |_, _| RoundAction::Finish(()));
        // Players 2 and 4 never finish — the error names exactly them.
        let players = vec![immediate(1), forever(2), immediate(3), forever(4)];
        assert_eq!(
            lockstep(players, 5),
            Err(SimError::RoundLimitExceeded {
                limit: 5,
                unfinished: vec![2, 4],
            })
        );
    }

    #[test]
    fn duplicate_ids_rejected() {
        let players: Vec<BoxedPlayer<u64, u64>> = vec![
            Box::new(Summer { id: 1, seen: 0 }),
            Box::new(Summer { id: 1, seen: 0 }),
        ];
        assert!(matches!(
            lockstep(players, 10),
            Err(SimError::DuplicatePlayer(1))
        ));
    }

    #[test]
    fn unknown_recipient_detected() {
        let misaddressed = toy(1, |_, _| {
            RoundAction::<u64, ()>::Continue(vec![Outgoing {
                to: Recipient::Private(99),
                msg: 0,
            }])
        });
        let sim = lockstep(vec![misaddressed], 3);
        assert_eq!(sim, Err(SimError::UnknownRecipient(99)));
    }

    #[test]
    fn no_delivery_to_finished_players() {
        // Player 1 finishes in round 0; players 2 and 3 keep
        // broadcasting afterwards. Their frames must never be queued
        // into player 1's inbox (it would silently leak memory and mask
        // protocol bugs) — and 2 and 3 must still hear each other.
        let early_out = toy(1, |_, inbox| {
            assert!(inbox.is_empty(), "finished player must receive nothing");
            RoundAction::Finish(0)
        });
        let chatter = |id| {
            let mut heard = 0;
            toy(id, move |round, inbox| {
                heard += inbox.iter().filter(|d| d.msg.is_ok()).count() as u64;
                if round == 3 {
                    RoundAction::Finish(heard)
                } else {
                    RoundAction::Continue(vec![Outgoing {
                        to: Recipient::Broadcast,
                        msg: round as u64,
                    }])
                }
            })
        };
        let players = vec![early_out, chatter(2), chatter(3)];
        let (out, metrics) = lockstep(players, 10).unwrap();
        // Rounds 0..=2 each had 2 broadcasts; every chatter hears both
        // (its own included) in rounds 1..=3.
        assert_eq!(out[&2], 6);
        assert_eq!(out[&3], 6);
        // Broadcasts after round 0 were delivered to exactly 2 players,
        // not 3: total messages is 6, and byte totals match 2 frames of
        // 9 bytes per active round — the metering sees sends, while
        // player 1's inbox assertion above proves non-delivery.
        assert_eq!(metrics.messages, 6);
    }

    #[test]
    fn lossy_channel_delivers_broadcasts_reliably() {
        // Broadcast traffic is immune to the policy: even at 100% drop
        // rate the Summer protocol's broadcasts arrive. The round-1
        // private messages all drop, so player 1 sums only broadcasts.
        let policy = DeliveryPolicy {
            drop_rate: 1.0,
            seed: 9,
            ..DeliveryPolicy::default()
        };
        let (out, _) = channel(summers(4), policy);
        assert_eq!(out[&1], 10);
        assert_eq!(out[&2], 10);
    }

    #[test]
    fn tampered_frames_surface_as_decode_errors() {
        // Tamper player 2's round-0 broadcast: every receiver sees a
        // CodecError (counted as 1000 by Summer) instead of the value 2.
        let policy = DeliveryPolicy {
            tamper: vec![TamperRule {
                round: 0,
                from: 2,
                kind: Tamper::TruncateTail,
            }],
            ..DeliveryPolicy::default()
        };
        let (out, metrics) = channel(summers(4), policy);
        assert_eq!(out[&3], 10 - 2 + 1000);
        // Metering is sender-side: byte totals are unchanged by the
        // in-flight corruption.
        assert_eq!(metrics.bytes, 8 * 9);
    }

    #[test]
    fn duplicates_and_reorder_are_deterministic() {
        let policy = DeliveryPolicy {
            duplicate_rate: 1.0,
            reorder: true,
            seed: 4,
            ..DeliveryPolicy::default()
        };
        let (out1, m1) = channel(summers(4), policy.clone());
        let (out2, m2) = channel(summers(4), policy);
        assert_eq!(out1, out2);
        assert!(m1.same_traffic(&m2));
        // Every private message to player 1 was duplicated.
        assert_eq!(out1[&1], 10 + 2 * 410);
        // Sender-side metering ignores duplication.
        assert_eq!(m1.messages, 8);
    }

    #[test]
    fn outage_window_drops_private_frames() {
        // Player 1's links are down in round 1 (when the private sends
        // happen) — it receives none of them, but broadcasts got through
        // in round 0.
        let policy = DeliveryPolicy {
            outages: vec![Outage {
                player: 1,
                from_round: 1,
                until_round: 2,
            }],
            ..DeliveryPolicy::default()
        };
        let (out, _) = channel(summers(4), policy);
        assert_eq!(out[&1], 10);
    }

    /// What a scribe was delivered, in delivery order.
    type Transcript = Vec<(PlayerId, Option<u64>)>;

    /// Four order-sensitive players registered in *descending* id
    /// order: for three rounds each sends one value privately to every
    /// player (itself included) and broadcasts it, and outputs the
    /// transcript of everything delivered. The `armed` one panics in
    /// round 1 instead.
    fn scribes(armed: Option<PlayerId>) -> Vec<BoxedPlayer<u64, Transcript>> {
        let scribe = |id: PlayerId| {
            let mut log = Transcript::new();
            toy(id, move |round, inbox| {
                if armed == Some(id) && round == 1 {
                    panic!("player {} went off in round 1", id);
                }
                log.extend(inbox.iter().map(|d| (d.from, d.ok().copied())));
                if round == 3 {
                    return RoundAction::Finish(std::mem::take(&mut log));
                }
                let msg = round as u64 * 10 + u64::from(id);
                let everyone = (1..=4).map(Recipient::Private);
                let sends = everyone.chain([Recipient::Broadcast]);
                RoundAction::Continue(sends.map(|to| Outgoing { to, msg }).collect())
            })
        };
        (1..=4).rev().map(scribe).collect()
    }

    #[test]
    fn links_agree_whatever_the_registration_order() {
        let run = |kind: TransportKind| run_protocol(&kind, scribes(None), 10).unwrap();
        let (out_l, metrics_l) = run(TransportKind::Lockstep);
        // Inboxes are assembled in ascending sender id on every
        // transport, whatever order the players were registered in.
        let senders: Vec<PlayerId> = out_l[&1][..8].iter().map(|(from, _)| *from).collect();
        assert_eq!(senders, [1, 1, 2, 2, 3, 3, 4, 4]);

        let policy = DeliveryPolicy {
            seed: 11,
            drop_rate: 0.2,
            duplicate_rate: 0.3,
            reorder: true,
            tamper: vec![TamperRule {
                round: 1,
                from: 3,
                kind: Tamper::FlipPayloadBit,
            }],
            ..DeliveryPolicy::default()
        };
        let (out_c, metrics_c) = run(TransportKind::Channel(policy.clone()));
        let (out_r, metrics_r) = run(TransportKind::TcpReactor(policy));
        assert_eq!(out_c, out_r);
        assert!(metrics_c.same_traffic(&metrics_r));
        // The faults bit, and metering is sender-side all the same.
        assert_ne!(out_c, out_l);
        assert!(metrics_c.same_traffic(&metrics_l));
    }

    #[test]
    fn a_panicking_player_fails_the_run_on_every_transport() {
        for kind in [
            TransportKind::Lockstep,
            TransportKind::Channel(DeliveryPolicy::lossy(5, 0.3)),
            TransportKind::TcpReactor(DeliveryPolicy::reliable()),
        ] {
            // The runner holds `done` until it returns or unwinds, so
            // a hang (the failure this guards against) trips the
            // timeout instead of wedging the suite.
            let (done, gone) = std::sync::mpsc::channel::<()>();
            let run_kind = kind.clone();
            let runner = std::thread::spawn(move || {
                let _done = done;
                run_protocol(&run_kind, scribes(Some(2)), 10).map(drop)
            });
            assert_eq!(
                gone.recv_timeout(Duration::from_secs(10)),
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected),
                "{:?} hung on a panicking player",
                kind
            );
            let panic = runner.join().expect_err("the run must panic");
            assert_eq!(
                panic.downcast_ref::<String>().map(String::as_str),
                Some("player 2 went off in round 1"),
                "{:?} surfaces the player's own message",
                kind
            );
        }
    }

    #[test]
    fn faulted_runs_stay_on_the_callers_thread() {
        use std::sync::{Arc, Mutex};
        let seen = Arc::new(Mutex::new(Vec::new()));
        let players = (1..=4)
            .map(|id| {
                let seen = Arc::clone(&seen);
                toy(id, move |round, _| {
                    seen.lock().unwrap().push(std::thread::current().id());
                    if round == 3 {
                        return RoundAction::Finish(0);
                    }
                    let sends = (1..=4)
                        .map(Recipient::Private)
                        .chain([Recipient::Broadcast]);
                    let msg = round as u64;
                    RoundAction::Continue(sends.map(|to| Outgoing { to, msg }).collect())
                })
            })
            .collect();
        channel(players, DeliveryPolicy::lossy(3, 0.5));
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 4 * 4);
        let me = std::thread::current().id();
        assert!(
            seen.iter().all(|id| *id == me),
            "a player ran off the caller's thread"
        );
    }
}
