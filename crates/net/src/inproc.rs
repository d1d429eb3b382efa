//! The in-memory link: every player of a run in one process, each on a
//! [`Node`], with one driver loop that *is* the round barrier.
//!
//! Per round the driver hands every live seat the mail addressed to it
//! in the previous round, each [`Node`] takes its turn, and the
//! [`Envelope`]s the turns emitted are filed into the recipients' mail;
//! a player that finishes is announced with [`Envelope::Finished`],
//! exactly as over sockets. All delivery rules are the node's. Where
//! `turn` is called is the only difference between the two seatings:
//!
//! * [`run_on_caller`] (`TransportKind::Lockstep`, reliable policy):
//!   on the caller's thread, under the caller's [`borndist_parallel`]
//!   setting. Broadcast fan-out delivers the same bytes to everyone and
//!   the strict decoder is a pure function of them, so each distinct
//!   frame is decoded once per round and the verdict cloned.
//! * [`run_on_workers`] (`TransportKind::Channel`): one persistent
//!   worker thread per node, so within a round all players decode (per
//!   recipient), compute, encode and route concurrently. Workers pin
//!   [`Parallelism::Sequential`] so the pairing crate's own parallel
//!   primitives never oversubscribe the machine.

use crate::error::Error;
use crate::frame::decode_frame;
use crate::mesh::{Envelope, Node};
use crate::policy::DeliveryPolicy;
use crate::{BoxedPlayer, Metrics, PlayerId, SimError};
use borndist_pairing::codec::{CodecError, Wire};
use borndist_parallel::{with_parallelism, Parallelism};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Instant;

/// Envelopes with the player on the other end of each: the sender in a
/// seat's mail, the recipient in what a turn emitted.
type Mail = Vec<(PlayerId, Envelope)>;

/// The live players of a run: where each is seated (`S`) and the mail
/// waiting for its next turn. A player that finishes leaves the map.
type Seats<S> = BTreeMap<PlayerId, (S, Mail)>;

/// Outputs by player id and the merged metrics of a completed run.
type Run<O> = Result<(BTreeMap<PlayerId, O>, Metrics), Error>;

/// What one seat hands the driver after a turn.
struct Turned<O> {
    /// The envelopes the node sent this round, by recipient.
    sent: Mail,
    /// The player's output and its sender-side metrics, once it
    /// finishes.
    done: Option<(O, Metrics)>,
}

/// Seats every player on a [`Node`] that knows all the others as peers.
fn seat<M: Wire, O>(
    players: Vec<BoxedPlayer<M, O>>,
    policy: &DeliveryPolicy,
) -> Result<Seats<Node<M, O>>, SimError> {
    let ids = crate::check_unique_ids(&players)?;
    Ok(players
        .into_iter()
        .map(|player| {
            let me = player.id();
            let peers = ids.iter().copied().filter(|id| *id != me);
            (me, (Node::new(player, peers, policy.clone()), Mail::new()))
        })
        .collect())
}

/// One seat's round: absorb the mail, take the turn, collect what it
/// sent.
fn take_turn<M: Wire, O>(
    node: &mut Node<M, O>,
    round: usize,
    mail: Mail,
    decode: &mut dyn FnMut(Vec<u8>) -> Result<M, CodecError>,
) -> Result<Turned<O>, Error> {
    // The driver's barrier sits between rounds: mail opened at `round`
    // was sent in the round before it.
    let sent_in = (round as u32).saturating_sub(1);
    for (from, env) in mail {
        node.state.note_envelope(from, env, sent_in);
    }
    let mut sent = Mail::new();
    let out = node.turn(round, decode, &mut |to, env| {
        sent.push((to, env.clone()));
        true
    })?;
    let done = out.map(|out| (out, std::mem::take(&mut node.metrics)));
    Ok(Turned { sent, done })
}

/// The driver loop. `play(round, seats)` empties every seat's mail
/// into a turn of its node and returns one result per seat, keyed by
/// player, in ascending id order.
fn drive<S, O>(
    mut seats: Seats<S>,
    max_rounds: usize,
    mut play: impl FnMut(usize, &mut Seats<S>) -> Vec<(PlayerId, Result<Turned<O>, Error>)>,
) -> Run<O> {
    let mut outputs = BTreeMap::new();
    let mut locals = Vec::with_capacity(seats.len() + 1);
    // The driver's own view: rounds driven and their wall-clock samples.
    let mut clock = Metrics::default();
    let run_start = Instant::now();

    for round in 0..max_rounds {
        let round_start = Instant::now();
        for (from, turned) in play(round, &mut seats) {
            let turned = turned?;
            for (to, env) in turned.sent {
                // Mail to a player that has left is dropped.
                if let Some((_, mail)) = seats.get_mut(&to) {
                    mail.push((from, env));
                }
            }
            if let Some((out, metrics)) = turned.done {
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

/// Runs `players` with every node seated on the caller's thread.
pub(crate) fn run_on_caller<M: Wire + Clone, O>(
    players: Vec<BoxedPlayer<M, O>>,
    max_rounds: usize,
) -> Run<O> {
    let seats = seat(players, &DeliveryPolicy::reliable())?;
    let mut decoded: HashMap<Vec<u8>, Result<M, CodecError>> = HashMap::new();
    drive(seats, max_rounds, |round, seats| {
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
        seats
            .iter_mut()
            .map(|(id, (node, mail))| {
                let mail = std::mem::take(mail);
                (*id, take_turn(node, round, mail, &mut decode_once))
            })
            .collect()
    })
}

/// Runs `players` with each node seated on its own worker thread.
pub(crate) fn run_on_workers<M: Wire, O: Send>(
    players: Vec<BoxedPlayer<M, O>>,
    policy: &DeliveryPolicy,
    max_rounds: usize,
) -> Run<O> {
    let nodes = seat(players, policy)?;
    std::thread::scope(|scope| {
        let (reply_tx, reply_rx) = mpsc::channel();
        let seats: Seats<mpsc::Sender<(usize, Mail)>> = nodes
            .into_iter()
            .map(|(id, (mut node, mail))| {
                let (tx, rx) = mpsc::channel();
                let reply_tx = reply_tx.clone();
                scope.spawn(move || {
                    while let Ok((round, mail)) = rx.recv() {
                        // A panicking `round()` is handed to the driver,
                        // which re-raises it: the run fails with the
                        // player's own message instead of hanging on a
                        // reply that never comes.
                        let turned = catch_unwind(AssertUnwindSafe(|| {
                            with_parallelism(Parallelism::Sequential, || {
                                take_turn(&mut node, round, mail, &mut |f| decode_frame(&f))
                            })
                        }));
                        let stays = matches!(&turned, Ok(Ok(t)) if t.done.is_none());
                        if reply_tx.send((id, turned)).is_err() || !stays {
                            break;
                        }
                    }
                });
                (id, (tx, mail))
            })
            .collect();
        drop(reply_tx);

        drive(seats, max_rounds, |round, seats| {
            for (tx, mail) in seats.values_mut() {
                // A live seat's worker is waiting on its receiver.
                let _ = tx.send((round, std::mem::take(mail)));
            }
            let mut turns: Vec<_> = reply_rx
                .iter()
                .take(seats.len())
                .map(|(id, turned)| (id, turned.unwrap_or_else(|panic| resume_unwind(panic))))
                .collect();
            turns.sort_by_key(|(id, _)| *id);
            turns
        })
    })
}
