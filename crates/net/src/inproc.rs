//! The in-memory link: every player of a run in one process, each on a
//! [`Node`], with one driver loop on the caller's thread that *is* the
//! round barrier.
//!
//! Per round the driver hands every live seat the mail addressed to it
//! in the previous round, each [`Node`] takes its turn, and the
//! [`Envelope`]s the turns emitted are filed into the recipients' mail;
//! a player that finishes is announced with [`Envelope::Finished`],
//! exactly as over sockets. All delivery rules — including every fault
//! of the [`DeliveryPolicy`] — are the node's, so `TransportKind::Lockstep`
//! (the reliable policy) and `TransportKind::Channel(policy)` both run
//! here. Players run one after another under the caller's
//! [`borndist_parallel`] setting; real concurrency is the reactor's.

use crate::error::Error;
use crate::frame::decode_frame;
use crate::mesh::{Envelope, Node};
use crate::policy::DeliveryPolicy;
use crate::{BoxedPlayer, Metrics, PlayerId, SimError};
use borndist_pairing::codec::{CodecError, Wire};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Envelopes with the player on the other end of each: the sender in a
/// seat's mail, the recipient in what a turn emitted.
type Mail = Vec<(PlayerId, Envelope)>;

/// Runs `players` under `policy`, every node seated on the caller's
/// thread, and returns the outputs by player id and the merged metrics.
pub(crate) fn run<M: Wire + Clone, O>(
    players: Vec<BoxedPlayer<M, O>>,
    policy: &DeliveryPolicy,
    max_rounds: usize,
) -> Result<(BTreeMap<PlayerId, O>, Metrics), Error> {
    let ids = crate::check_unique_ids(&players)?;
    // The live players and the mail waiting for each one's next turn; a
    // player that finishes leaves the map.
    let mut seats: BTreeMap<PlayerId, (Node<M, O>, Mail)> = players
        .into_iter()
        .map(|player| {
            let me = player.id();
            let peers = ids.iter().copied().filter(|id| *id != me);
            (me, (Node::new(player, peers, policy.clone()), Mail::new()))
        })
        .collect();
    let mut outputs = BTreeMap::new();
    let mut locals = Vec::with_capacity(seats.len() + 1);
    // The driver's own view: rounds driven and their wall-clock samples.
    let mut clock = Metrics::default();
    let run_start = Instant::now();
    // Each distinct frame is decoded once per round and the verdict
    // cloned. Sound under any policy: the strict decoder is a pure
    // function of the frame bytes, which are the cache key, and a node
    // tampers a frame before fanning it out, so a corrupted broadcast
    // is one byte string that every receiver decodes alike.
    let mut decoded: HashMap<Vec<u8>, Result<M, CodecError>> = HashMap::new();

    for round in 0..max_rounds {
        let round_start = Instant::now();
        decoded.clear();
        // Probe by reference; on the first sighting the owned frame
        // buffer itself becomes the cache key (no byte copies either
        // way).
        let mut decode_once = |frame: Vec<u8>| match decoded.get(&frame) {
            Some(verdict) => verdict.clone(),
            None => {
                let verdict = decode_frame(&frame);
                decoded.insert(frame, verdict.clone());
                verdict
            }
        };
        // The barrier sits between rounds: mail opened at `round` was
        // sent in the round before it.
        let sent_in = (round as u32).saturating_sub(1);
        let mut turns = Vec::with_capacity(seats.len());
        for (&id, (node, mail)) in seats.iter_mut() {
            for (from, env) in mail.drain(..) {
                node.state.note_envelope(from, env, sent_in);
            }
            let mut sent = Mail::new();
            let out = node.turn(round, &mut decode_once, &mut |to, env| {
                sent.push((to, env.clone()));
                true
            })?;
            let done = out.map(|out| (out, std::mem::take(&mut node.metrics)));
            turns.push((id, sent, done));
        }
        for (from, sent, done) in turns {
            for (to, env) in sent {
                // Mail to a player that has left is dropped.
                if let Some((_, mail)) = seats.get_mut(&to) {
                    mail.push((from, env));
                }
            }
            if let Some((out, metrics)) = done {
                outputs.insert(from, out);
                locals.push(metrics);
                seats.remove(&from);
                let finished = Envelope::Finished {
                    round: round as u32,
                };
                for (_, mail) in seats.values_mut() {
                    mail.push((from, finished.clone()));
                }
            }
        }
        clock.finish_round(round_start, run_start);
        if seats.is_empty() {
            locals.push(clock);
            return Ok((outputs, Metrics::merge(locals.iter())));
        }
    }
    Err(SimError::RoundLimitExceeded {
        limit: max_rounds,
        unfinished: seats.into_keys().collect(),
    }
    .into())
}
