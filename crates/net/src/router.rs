//! The shared frame router: metering, fan-out and fault injection.
//!
//! Both transports funnel every round's outgoing frames through one
//! [`Router`], so byte accounting ([`Metrics`]) and delivery semantics
//! are *identical by construction* — a DKG run over
//! [`crate::ChannelTransport`] with a reliable policy reports the exact
//! same byte counts as the same run over [`crate::LockstepTransport`].
//!
//! Fault randomness comes from the policy's shared derivations
//! ([`DeliveryPolicy::sender_rng`], [`DeliveryPolicy::reorder_rng`]) —
//! per-sender streams for drop/duplicate decisions and per-inbox streams
//! for reorder shuffles, never a router-global sequence. The socket
//! round engine ([`crate::mesh`]) draws from the same streams in the
//! same order, so a *faulted* run injects the identical schedule there.

use crate::policy::DeliveryPolicy;
use crate::{Metrics, PlayerId, Recipient, SimError};
use rand::rngs::StdRng;
use rand::RngCore;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// A frame queued for a player, before decoding.
#[derive(Clone, Debug)]
pub(crate) struct RawDelivered {
    pub from: PlayerId,
    pub broadcast: bool,
    pub frame: Vec<u8>,
}

/// One addressed frame handed to the router by a transport.
#[derive(Debug)]
pub(crate) struct FrameSend {
    pub from: PlayerId,
    pub to: Recipient,
    pub frame: Vec<u8>,
}

pub(crate) struct Router {
    ids: Vec<PlayerId>,
    policy: DeliveryPolicy,
    /// One lazily-created fault stream per sender (the same streams a
    /// distributed run derives locally at each player).
    sender_rngs: BTreeMap<PlayerId, StdRng>,
    pub(crate) metrics: Metrics,
}

impl Router {
    pub(crate) fn new(ids: Vec<PlayerId>, policy: DeliveryPolicy) -> Self {
        Router {
            ids,
            policy,
            sender_rngs: BTreeMap::new(),
            metrics: Metrics::default(),
        }
    }

    /// Meters and routes one round's frames into next-round inboxes.
    ///
    /// Byte counts are sender-side: a frame is metered at its encoded
    /// length when sent, whether or not the policy then drops, corrupts
    /// or duplicates it in flight. Players in `finished` receive nothing
    /// (and a private frame to a finished player is silently dropped —
    /// its recipient has legitimately left the protocol).
    pub(crate) fn route(
        &mut self,
        round: usize,
        sends: Vec<FrameSend>,
        finished: &HashSet<PlayerId>,
    ) -> Result<BTreeMap<PlayerId, Vec<RawDelivered>>, SimError> {
        let mut inboxes: BTreeMap<PlayerId, Vec<RawDelivered>> = self
            .ids
            .iter()
            .filter(|id| !finished.contains(id))
            .map(|id| (*id, Vec::new()))
            .collect();
        let mut round_msgs = 0usize;
        let mut round_bytes = 0usize;

        for send in sends {
            round_msgs += 1;
            round_bytes += send.frame.len();
            *self.metrics.bytes_by_player.entry(send.from).or_insert(0) += send.frame.len();

            let mut frame = send.frame;
            self.policy.tamper_frame(round, send.from, &mut frame);

            match send.to {
                Recipient::Broadcast => {
                    // The broadcast channel is reliable by assumption
                    // (§2.1): exactly-once delivery to every live player,
                    // the policy's private-link loss faults do not apply.
                    // (Tampering was applied above, pre-fan-out: a
                    // garbage-emitting *sender* is modeled, and every
                    // receiver sees the identical corrupted frame.)
                    for (_, inbox) in inboxes.iter_mut() {
                        inbox.push(RawDelivered {
                            from: send.from,
                            broadcast: true,
                            frame: frame.clone(),
                        });
                    }
                }
                Recipient::Private(to) => {
                    if !self.ids.contains(&to) {
                        return Err(SimError::UnknownRecipient(to));
                    }
                    if !self.policy.link_up(round, send.from, to) {
                        continue;
                    }
                    if !self.sender_rngs.contains_key(&send.from) {
                        let rng = self.policy.sender_rng(send.from);
                        self.sender_rngs.insert(send.from, rng);
                    }
                    let rng = self
                        .sender_rngs
                        .get_mut(&send.from)
                        .expect("sender stream just inserted");
                    let dropped = DeliveryPolicy::chance(rng, self.policy.drop_rate);
                    let duplicated =
                        !dropped && DeliveryPolicy::chance(rng, self.policy.duplicate_rate);
                    if dropped {
                        continue;
                    }
                    if let Some(inbox) = inboxes.get_mut(&to) {
                        let delivered = RawDelivered {
                            from: send.from,
                            broadcast: false,
                            frame,
                        };
                        if duplicated {
                            inbox.push(delivered.clone());
                        }
                        inbox.push(delivered);
                    }
                }
            }
        }

        if self.policy.reorder {
            for (id, inbox) in inboxes.iter_mut() {
                // Fisher–Yates from the per-(receiver, deliver-round)
                // stream; frames routed in round `r` are consumed at
                // `r + 1`, which is the round the derivation is keyed on.
                let mut rng = self.policy.reorder_rng(round + 1, *id);
                for i in (1..inbox.len()).rev() {
                    let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                    inbox.swap(i, j);
                }
            }
        }

        self.metrics.messages += round_msgs;
        self.metrics.bytes += round_bytes;
        self.metrics.per_round.push((round_msgs, round_bytes));
        if round_msgs > 0 {
            self.metrics.active_rounds += 1;
        }
        Ok(inboxes)
    }

    /// Records wall-clock samples for the round just routed.
    pub(crate) fn finish_round(&mut self, round_start: Instant, run_start: Instant) {
        self.metrics.total_rounds += 1;
        self.metrics.per_round_elapsed.push(round_start.elapsed());
        self.metrics.elapsed = run_start.elapsed();
    }
}
