//! Fault injection at the transport layer: what the network does to
//! frames *after* an honest (or Byzantine) player has sent them.
//!
//! A [`DeliveryPolicy`] describes an unreliable network deterministically
//! (everything is driven by a seeded RNG, so a failing scenario replays
//! exactly). Loss-shaped faults — drops, duplicates, partitions,
//! outages — act only on **private channels**: the paper's model (§2.1)
//! assumes a reliable broadcast channel, and the DKG's agreement
//! argument depends on it, so broadcast frames are always delivered
//! exactly once to every live player. Private point-to-point links are
//! where real deployments lose, duplicate, reorder and partition
//! traffic — and where the protocol's complaint machinery earns its
//! keep. The one deliberate exception is [`TamperRule`]: it corrupts a
//! *sender's* frames before fan-out (broadcasts included), modeling a
//! player that emits garbage bytes — every receiver still sees the
//! identical (corrupted) broadcast, so the reliable-channel agreement
//! property is preserved; what is being injected is sender misbehavior,
//! not in-transit tampering.

use crate::PlayerId;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeSet;

/// A transport-level corruption of one player's outgoing frames in one
/// round — how tests exercise the strict decoder end to end (a tampered
/// frame must surface as a decode error at every receiver, never as a
/// panic or a silently wrong value).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tamper {
    /// Drop the last byte (decode fails with `UnexpectedEnd`).
    TruncateTail,
    /// Append a zero byte (decode fails with `TrailingBytes`).
    AppendByte,
    /// Flip the lowest bit of the last payload byte (typically an
    /// invalid-point or non-canonical-scalar failure).
    FlipPayloadBit,
    /// Overwrite the version byte with `0xff` (`UnsupportedVersion`).
    BadVersion,
}

impl Tamper {
    /// Applies the corruption to a frame.
    pub fn apply(self, frame: &mut Vec<u8>) {
        match self {
            Tamper::TruncateTail => {
                frame.pop();
            }
            Tamper::AppendByte => frame.push(0),
            Tamper::FlipPayloadBit => {
                if let Some(last) = frame.last_mut() {
                    *last ^= 1;
                }
            }
            Tamper::BadVersion => {
                if let Some(first) = frame.first_mut() {
                    *first = 0xff;
                }
            }
        }
    }
}

/// Tampers every frame sent by `from` in `round` — broadcasts included
/// (applied before fan-out, so all receivers see the same bytes; this
/// models a faulty or malicious sender, not a broken broadcast channel).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TamperRule {
    /// The round whose frames are corrupted.
    pub round: usize,
    /// The sending player whose frames are corrupted.
    pub from: PlayerId,
    /// How the frames are corrupted.
    pub kind: Tamper,
}

/// A network split: while active, private frames between the group and
/// its complement are dropped. Frames within the group (and within the
/// complement) flow normally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// First round the split is active.
    pub from_round: usize,
    /// First round the split has healed (exclusive end).
    pub until_round: usize,
    /// One side of the split.
    pub group: BTreeSet<PlayerId>,
}

/// A crash-restart window for one player's network interface: while
/// active, all private frames to *and* from the player are dropped.
/// (The player's state machine keeps running — this models a flaky NIC
/// or a process restart that replays from persisted state, as opposed
/// to the protocol-level crash faults injected via Byzantine behaviors.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outage {
    /// The affected player.
    pub player: PlayerId,
    /// First round of the outage.
    pub from_round: usize,
    /// First round after recovery (exclusive end).
    pub until_round: usize,
}

/// Deterministic fault injection for a protocol run.
///
/// The default policy is fully reliable (the one
/// [`crate::TransportKind::Lockstep`] runs the in-memory link under);
/// each field switches on one failure mode.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeliveryPolicy {
    /// Seed of the fault RNG (drops, duplicates and reorder shuffles).
    pub seed: u64,
    /// Probability in `[0, 1]` that a private frame is dropped.
    pub drop_rate: f64,
    /// Probability in `[0, 1]` that a delivered private frame arrives
    /// twice.
    pub duplicate_rate: f64,
    /// Shuffle each inbox's arrival order every round.
    pub reorder: bool,
    /// Scheduled network splits.
    pub partitions: Vec<Partition>,
    /// Scheduled per-player link outages (crash-restart windows).
    pub outages: Vec<Outage>,
    /// Scheduled frame corruptions.
    pub tamper: Vec<TamperRule>,
}

impl DeliveryPolicy {
    /// A fully reliable network (every field off).
    pub fn reliable() -> Self {
        Self::default()
    }

    /// A uniformly lossy, reordering network — the classic "10% drop"
    /// scenario of `examples/lossy_network.rs`.
    pub fn lossy(seed: u64, drop_rate: f64) -> Self {
        DeliveryPolicy {
            seed,
            drop_rate,
            reorder: true,
            ..Self::default()
        }
    }

    /// `true` if the private link `a → b` is administratively up in
    /// `round` (partitions and outages; random drops come on top).
    pub fn link_up(&self, round: usize, a: PlayerId, b: PlayerId) -> bool {
        for o in &self.outages {
            if (o.player == a || o.player == b) && round >= o.from_round && round < o.until_round {
                return false;
            }
        }
        for p in &self.partitions {
            if round >= p.from_round
                && round < p.until_round
                && p.group.contains(&a) != p.group.contains(&b)
            {
                return false;
            }
        }
        true
    }

    /// Applies any matching tamper rule to a frame.
    pub fn tamper_frame(&self, round: usize, from: PlayerId, frame: &mut Vec<u8>) {
        for rule in &self.tamper {
            if rule.round == round && rule.from == from {
                rule.kind.apply(frame);
            }
        }
    }

    /// The fault RNG for one *sender's* drop/duplicate decisions,
    /// deterministic per `(seed, id)`. Every transport derives its
    /// injection schedule from this same stream — one decision drawn per
    /// private frame the sender emits on an administratively-up link, in
    /// emission order — so a faulted run injects the identical schedule
    /// whether the players take turns on one thread
    /// ([`crate::TransportKind::Channel`]) or sit behind real sockets
    /// ([`crate::ReactorTransport`]).
    pub fn sender_rng(&self, id: PlayerId) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ (0x7c9_0000_0000u64 | u64::from(id)).rotate_left(17))
    }

    /// The reorder RNG for one receiver's inbox in the round that
    /// *consumes* it, deterministic per `(seed, deliver_round, receiver)`.
    /// Transports shuffle the inbox with one Fisher–Yates pass over this
    /// stream, starting from the canonical pre-shuffle order (ascending
    /// sender id, emission order within a sender, duplicates adjacent).
    pub fn reorder_rng(&self, deliver_round: usize, receiver: PlayerId) -> StdRng {
        StdRng::seed_from_u64(
            self.seed ^ u64::from(deliver_round as u32).rotate_left(32) ^ u64::from(receiver),
        )
    }

    /// One probability draw from a fault RNG. `p <= 0` consumes no
    /// randomness, so a reliable policy leaves every stream untouched.
    pub fn chance(rng: &mut StdRng, p: f64) -> bool {
        p > 0.0 && (rng.next_u64() as f64 / u64::MAX as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_cut_cross_links_only() {
        let policy = DeliveryPolicy {
            partitions: vec![Partition {
                from_round: 1,
                until_round: 3,
                group: [1, 2].into_iter().collect(),
            }],
            ..DeliveryPolicy::default()
        };
        // Inactive rounds: everything up.
        assert!(policy.link_up(0, 1, 3));
        // Active: cross-split links down, intra-side links up.
        assert!(!policy.link_up(1, 1, 3));
        assert!(!policy.link_up(2, 4, 2));
        assert!(policy.link_up(2, 1, 2));
        assert!(policy.link_up(2, 3, 4));
        // Healed.
        assert!(policy.link_up(3, 1, 3));
    }

    #[test]
    fn outage_cuts_both_directions() {
        let policy = DeliveryPolicy {
            outages: vec![Outage {
                player: 2,
                from_round: 1,
                until_round: 2,
            }],
            ..DeliveryPolicy::default()
        };
        assert!(!policy.link_up(1, 2, 3));
        assert!(!policy.link_up(1, 3, 2));
        assert!(policy.link_up(1, 3, 4));
        assert!(policy.link_up(2, 2, 3));
    }

    #[test]
    fn tamper_kinds() {
        let frame = vec![1u8, 2, 3];
        let mut f = frame.clone();
        Tamper::TruncateTail.apply(&mut f);
        assert_eq!(f, vec![1, 2]);
        let mut f = frame.clone();
        Tamper::AppendByte.apply(&mut f);
        assert_eq!(f, vec![1, 2, 3, 0]);
        let mut f = frame.clone();
        Tamper::FlipPayloadBit.apply(&mut f);
        assert_eq!(f, vec![1, 2, 2]);
        let mut f = frame;
        Tamper::BadVersion.apply(&mut f);
        assert_eq!(f, vec![0xff, 2, 3]);
    }
}
