//! Threshold signing as a network protocol: many concurrent signing
//! sessions multiplexed over one long-lived protocol run — the engine of
//! the threshold-signing daemon — with partial signatures crossing a
//! real [`Transport`](borndist_net::TransportKind) as encoded frames.
//!
//! The §3 scheme's signing is non-interactive — a signer needs only its
//! share and the message — so the network shape is minimal: the
//! [`MuxCoordinator`] broadcasts `Open`, each [`MuxSignerPlayer`] sends
//! its [`PartialSignature`] over the private channel to the session's
//! rotating combiner, which combines the first `t+1` it holds and
//! broadcasts the resulting [`Signature`] as `Done`.
//!
//! The combiner is the scheme's one robust `Combine`,
//! [`crate::ro::Combiner`]: partials are collected *unverified*, the
//! combined signature is verified once against the public key, and
//! `Share-Verify` runs only when that check fails. Offenders go into the
//! session's `rejected` set (their retransmissions are then dropped
//! without a pairing) and the survivors are recombined, so only a
//! verified signature is ever broadcast and a Byzantine signer buys at
//! most one fallback per session.
//!
//! Only the coordinator opens and closes sessions: a signer takes `Open`
//! and `Shutdown` from the coordinator's id alone, so a corrupted signer
//! can neither obtain signatures on messages nobody requested nor stop
//! the honest signers. A signer outputs no signature: to it, `Done` from
//! the session's own combiner only means "stop retransmitting" and is
//! taken unverified, while a `Done` from anyone else is ignored. The
//! coordinator verifies every `Done` before a client sees it.
//!
//! Two properties matter here:
//!
//! * **loss tolerance** — signers *re-send* their partial every round
//!   until the combiner's broadcast arrives, so the protocol terminates
//!   over a lossy [`borndist_net::DeliveryPolicy`] (the private links may
//!   drop; the broadcasts are reliable by the model). That is the whole
//!   retransmission story: no acks, no sequence numbers, because partial
//!   signatures are idempotent and deterministic.
//! * **byte discipline** — like the DKG, players decode-validate-then-
//!   process: a malformed frame is ignored exactly like a dropped one, a
//!   partial is collected only under its sender's own index and a known
//!   verification key, and an invalid one is caught by the combined
//!   check and discarded by name, so Byzantine signers can delay a
//!   session by one fallback and forge nothing.

use crate::ro::{
    Combiner, Committee, KeyShare, PartialSignature, PublicKey, Signature, ThresholdScheme,
    VerificationKey,
};
use borndist_net::{
    run_protocol, BoxedPlayer, Delivered, Metrics, Outgoing, PlayerId, Protocol, Recipient,
    RoundAction, TransportKind,
};
use borndist_pairing::codec::{CodecError, Wire};
use borndist_shamir::ThresholdParams;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A wire message of the multiplexed signing protocol. Every message
/// but `Shutdown` carries the session id (the client's request id), so
/// one mesh of players can drive any number of concurrent sessions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MuxMessage {
    /// Coordinator broadcast: start signing `msg` under `session`.
    Open {
        /// Request id, chosen by the client.
        session: u64,
        /// The message to sign.
        msg: Vec<u8>,
    },
    /// Signer → per-session combiner (private): a partial signature.
    Partial {
        /// The session this partial belongs to.
        session: u64,
        /// The partial (idempotent, deterministic — retransmittable).
        psig: PartialSignature,
    },
    /// Combiner broadcast: the session's combined signature.
    Done {
        /// The completed session.
        session: u64,
        /// The unique combined signature.
        sig: Signature,
    },
    /// Coordinator broadcast: no more sessions will open; everyone
    /// finishes.
    Shutdown,
}

const TAG_OPEN: u8 = 0;
const TAG_MUX_PARTIAL: u8 = 1;
const TAG_DONE: u8 = 2;
const TAG_SHUTDOWN: u8 = 3;

impl Wire for MuxMessage {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            MuxMessage::Open { session, msg } => {
                out.push(TAG_OPEN);
                session.encode_to(out);
                msg.encode_to(out);
            }
            MuxMessage::Partial { session, psig } => {
                out.push(TAG_MUX_PARTIAL);
                session.encode_to(out);
                psig.encode_to(out);
            }
            MuxMessage::Done { session, sig } => {
                out.push(TAG_DONE);
                session.encode_to(out);
                sig.encode_to(out);
            }
            MuxMessage::Shutdown => out.push(TAG_SHUTDOWN),
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            TAG_OPEN => Ok(MuxMessage::Open {
                session: u64::decode(input)?,
                msg: Vec::<u8>::decode(input)?,
            }),
            TAG_MUX_PARTIAL => Ok(MuxMessage::Partial {
                session: u64::decode(input)?,
                psig: PartialSignature::decode(input)?,
            }),
            TAG_DONE => Ok(MuxMessage::Done {
                session: u64::decode(input)?,
                sig: Signature::decode(input)?,
            }),
            TAG_SHUTDOWN => Ok(MuxMessage::Shutdown),
            tag => Err(CodecError::InvalidTag(tag)),
        }
    }
}

/// What a multiplexed run returns per player. The coordinator's carries
/// every combined signature (it verified each one), the in-flight
/// high-water mark the backpressure bound was measured at and the
/// per-request service latencies; a signer's carries how many sessions
/// it saw through and whom it rejected as a combiner.
#[derive(Clone, Debug, Default)]
pub struct MuxOutcome {
    /// Verified combined signatures by session id. Empty for signer
    /// players: they verify no `Done`, so they report none.
    pub signatures: BTreeMap<u64, Signature>,
    /// Number of sessions this player saw finish.
    pub finished: usize,
    /// Sessions in which this player, as combiner, had to fall back to
    /// `Share-Verify`, with the signer indices it rejected. Empty in an
    /// all-honest run.
    pub rejected: BTreeMap<u64, BTreeSet<u32>>,
    /// Maximum number of sessions that were simultaneously in flight
    /// (0 for signer players — only the coordinator opens sessions).
    pub high_water: usize,
    /// Enqueue→verified-response wall-clock per session (coordinator
    /// only): stamped when the request entered the coordinator's queue —
    /// construction for [`MuxCoordinator::with_requests`], channel
    /// arrival for [`MuxCoordinator::with_intake`] — and closed when the
    /// verified `Done` signature retires the session. Queueing delay
    /// under the backpressure bound is therefore *included*: this is the
    /// client-observed service time, the histogram the daemon front-end
    /// summarizes.
    pub latencies: BTreeMap<u64, Duration>,
}

/// A signer's state for one session still in flight.
struct MuxSession {
    msg: Vec<u8>,
    own_partial: PartialSignature,
    /// The combiner role, if this player has it for this session.
    combiner: Option<Combiner>,
}

/// The session combiner rotates deterministically over the signer set,
/// so concurrent sessions spread the combine work instead of funneling
/// through one player.
fn combiner_of(signer_ids: &[PlayerId], session: u64) -> PlayerId {
    signer_ids[(session % signer_ids.len() as u64) as usize]
}

/// One signing node of the daemon: holds a key share and serves every
/// session the coordinator opens, combining those sessions it is the
/// rotating combiner for. Loss tolerance is per session: partials are
/// retransmitted every round until the session's `Done` broadcast
/// arrives from its combiner.
pub struct MuxSignerPlayer {
    committee: Committee,
    share: KeyShare,
    signer_ids: Vec<PlayerId>,
    id: PlayerId,
    /// The only player whose `Open` and `Shutdown` count.
    coordinator: PlayerId,
    /// Sessions in flight.
    sessions: BTreeMap<u64, MuxSession>,
    /// Finished sessions, reduced to their ids: all that is still needed
    /// is that a duplicated `Open` does not restart one.
    finished: BTreeSet<u64>,
    rejected: BTreeMap<u64, BTreeSet<u32>>,
    shutdown: bool,
}

impl MuxSignerPlayer {
    /// Builds one signing node. `signer_ids` must be the same (sorted)
    /// list on every player — it defines the combiner rotation — and
    /// `coordinator` is the one player that opens and closes sessions.
    pub fn new(
        scheme: ThresholdScheme,
        params: ThresholdParams,
        public_key: PublicKey,
        vks: BTreeMap<u32, VerificationKey>,
        share: KeyShare,
        mut signer_ids: Vec<PlayerId>,
        coordinator: PlayerId,
    ) -> Self {
        signer_ids.sort_unstable();
        let id = share.index;
        MuxSignerPlayer {
            committee: Committee::new(scheme, params, public_key, vks),
            share,
            signer_ids,
            id,
            coordinator,
            sessions: BTreeMap::new(),
            finished: BTreeSet::new(),
            rejected: BTreeMap::new(),
            shutdown: false,
        }
    }

    fn finish(&mut self, session: u64) {
        if self.sessions.remove(&session).is_some() {
            self.finished.insert(session);
        }
    }

    fn absorb(&mut self, inbox: &[Delivered<MuxMessage>]) {
        for d in inbox {
            // Decode-validate-then-process: malformed frames are ignored
            // like lost ones, and so are sessions opened or closed by
            // anyone but the coordinator.
            match &d.msg {
                Ok(MuxMessage::Open { session, msg })
                    if d.broadcast && d.from == self.coordinator =>
                {
                    if self.finished.contains(session) || self.sessions.contains_key(session) {
                        continue;
                    }
                    let own_partial = self.committee.scheme.share_sign(&self.share, msg);
                    let combines = combiner_of(&self.signer_ids, *session) == self.id;
                    self.sessions.insert(
                        *session,
                        MuxSession {
                            msg: msg.clone(),
                            own_partial,
                            combiner: combines.then(|| Combiner::with_own(own_partial)),
                        },
                    );
                }
                Ok(MuxMessage::Partial { session, psig }) if !d.broadcast => {
                    if let Some(MuxSession {
                        combiner: Some(combiner),
                        ..
                    }) = self.sessions.get_mut(session)
                    {
                        combiner.offer(&self.committee, d.from, psig);
                    }
                }
                // Unverified on purpose: a signer outputs no signature,
                // so `Done` only tells it to stop retransmitting, and
                // only the session's combiner may say so. A combiner
                // lying here stalls its own session — which it could
                // already do by staying silent — and the coordinator's
                // check keeps the lie from any client.
                Ok(MuxMessage::Done { session, .. })
                    if d.broadcast && d.from == combiner_of(&self.signer_ids, *session) =>
                {
                    self.finish(*session);
                }
                Ok(MuxMessage::Shutdown) if d.broadcast && d.from == self.coordinator => {
                    self.shutdown = true
                }
                _ => {}
            }
        }
    }
}

impl Protocol for MuxSignerPlayer {
    type Message = MuxMessage;
    type Output = MuxOutcome;

    fn round(
        &mut self,
        _round: usize,
        inbox: &[Delivered<MuxMessage>],
    ) -> RoundAction<MuxMessage, MuxOutcome> {
        self.absorb(inbox);
        if self.shutdown {
            // The coordinator only shuts down once every opened session
            // is done, so nothing in flight is abandoned here.
            return RoundAction::Finish(MuxOutcome {
                finished: self.finished.len(),
                rejected: std::mem::take(&mut self.rejected),
                ..MuxOutcome::default()
            });
        }
        let mut out = Vec::new();
        let MuxSignerPlayer {
            committee,
            signer_ids,
            sessions,
            finished,
            rejected,
            ..
        } = self;
        sessions.retain(|session, state| {
            let Some(combiner) = &mut state.combiner else {
                // Retransmit until this session's Done arrives.
                out.push(Outgoing {
                    to: Recipient::Private(combiner_of(signer_ids, *session)),
                    msg: MuxMessage::Partial {
                        session: *session,
                        psig: state.own_partial,
                    },
                });
                return true;
            };
            let Some(sig) = combiner.try_combine(committee, &state.msg) else {
                return true;
            };
            if !combiner.rejected.is_empty() {
                rejected.insert(*session, std::mem::take(&mut combiner.rejected));
            }
            out.push(Outgoing {
                to: Recipient::Broadcast,
                msg: MuxMessage::Done {
                    session: *session,
                    sig,
                },
            });
            // What this player broadcasts it has itself verified: the
            // session is finished here, without waiting for the echo.
            finished.insert(*session);
            false
        });
        RoundAction::Continue(out)
    }

    fn id(&self) -> PlayerId {
        self.id
    }
}

/// The front-end of the daemon, as a protocol player: feeds signing
/// requests into the mesh as `Open` broadcasts, bounded by
/// `max_in_flight` (the backpressure knob), collects `Done` signatures,
/// and closes the run with a `Shutdown` broadcast once every session
/// completed and no more requests can arrive.
///
/// Requests come either from a fixed queue ([`Self::with_requests`] —
/// deterministic, used by tests and benchmarks) or from a live channel
/// ([`Self::with_intake`] — the daemon path, where a socket thread
/// feeds requests mid-run and completed signatures flow back out).
pub struct MuxCoordinator {
    id: PlayerId,
    scheme: ThresholdScheme,
    public_key: PublicKey,
    pending: VecDeque<(u64, Vec<u8>)>,
    intake: Option<mpsc::Receiver<(u64, Vec<u8>)>>,
    completed_tx: Option<mpsc::Sender<(u64, Signature)>>,
    intake_open: bool,
    max_in_flight: usize,
    in_flight: BTreeSet<u64>,
    done: BTreeMap<u64, Signature>,
    /// Messages of sessions in flight, for Done verification.
    open_msgs: BTreeMap<u64, Vec<u8>>,
    /// Enqueue stamps of requests not yet retired (queued or in
    /// flight) — the start of the client-observed service time.
    enqueued: BTreeMap<u64, Instant>,
    /// Closed enqueue→verified-response samples.
    latencies: BTreeMap<u64, Duration>,
    high_water: usize,
    closing: bool,
}

impl MuxCoordinator {
    fn base(
        id: PlayerId,
        scheme: ThresholdScheme,
        public_key: PublicKey,
        max_in_flight: usize,
    ) -> Self {
        assert!(max_in_flight >= 1, "backpressure bound must be positive");
        MuxCoordinator {
            id,
            scheme,
            public_key,
            pending: VecDeque::new(),
            intake: None,
            completed_tx: None,
            intake_open: false,
            max_in_flight,
            in_flight: BTreeSet::new(),
            done: BTreeMap::new(),
            open_msgs: BTreeMap::new(),
            enqueued: BTreeMap::new(),
            latencies: BTreeMap::new(),
            high_water: 0,
            closing: false,
        }
    }

    /// A coordinator with a fixed request queue (deterministic runs).
    /// The whole queue counts as enqueued at construction, so reported
    /// latencies include the time spent waiting behind the backpressure
    /// bound — identical semantics to the live-intake path.
    pub fn with_requests(
        id: PlayerId,
        scheme: ThresholdScheme,
        public_key: PublicKey,
        max_in_flight: usize,
        requests: Vec<(u64, Vec<u8>)>,
    ) -> Self {
        let mut c = Self::base(id, scheme, public_key, max_in_flight);
        let now = Instant::now();
        for (session, _) in &requests {
            c.enqueued.insert(*session, now);
        }
        c.pending = requests.into();
        c
    }

    /// A coordinator fed by a live channel: `intake` delivers
    /// `(request id, message)` pairs (the run keeps serving until the
    /// sender side is dropped), and each completed signature is pushed
    /// into `completed`.
    pub fn with_intake(
        id: PlayerId,
        scheme: ThresholdScheme,
        public_key: PublicKey,
        max_in_flight: usize,
        intake: mpsc::Receiver<(u64, Vec<u8>)>,
        completed: mpsc::Sender<(u64, Signature)>,
    ) -> Self {
        let mut c = Self::base(id, scheme, public_key, max_in_flight);
        c.intake = Some(intake);
        c.completed_tx = Some(completed);
        c.intake_open = true;
        c
    }
}

impl Protocol for MuxCoordinator {
    type Message = MuxMessage;
    type Output = MuxOutcome;

    fn round(
        &mut self,
        _round: usize,
        inbox: &[Delivered<MuxMessage>],
    ) -> RoundAction<MuxMessage, MuxOutcome> {
        if self.closing {
            return RoundAction::Finish(MuxOutcome {
                finished: self.done.len(),
                signatures: std::mem::take(&mut self.done),
                rejected: BTreeMap::new(),
                high_water: self.high_water,
                latencies: std::mem::take(&mut self.latencies),
            });
        }

        // Collect completed sessions (signatures verify against the
        // session's message before a session is retired).
        for d in inbox {
            if let Ok(MuxMessage::Done { session, sig }) = &d.msg {
                if !d.broadcast || !self.in_flight.contains(session) {
                    continue;
                }
                let Some(msg) = self.open_msgs.get(session) else {
                    continue;
                };
                if self.scheme.verify(&self.public_key, msg, sig) {
                    self.in_flight.remove(session);
                    self.open_msgs.remove(session);
                    self.done.insert(*session, *sig);
                    if let Some(start) = self.enqueued.remove(session) {
                        self.latencies.insert(*session, start.elapsed());
                    }
                    if let Some(tx) = &self.completed_tx {
                        let _ = tx.send((*session, *sig));
                    }
                }
            }
        }

        // Pull newly arrived requests (daemon path).
        if self.intake_open {
            if let Some(rx) = &self.intake {
                loop {
                    match rx.try_recv() {
                        Ok(req) => {
                            self.enqueued.insert(req.0, Instant::now());
                            self.pending.push_back(req);
                        }
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            self.intake_open = false;
                            break;
                        }
                    }
                }
            }
        }

        // Open sessions up to the backpressure bound.
        let mut out = Vec::new();
        while self.in_flight.len() < self.max_in_flight {
            let Some((session, msg)) = self.pending.pop_front() else {
                break;
            };
            if self.in_flight.contains(&session) || self.done.contains_key(&session) {
                continue;
            }
            self.in_flight.insert(session);
            self.open_msgs.insert(session, msg.clone());
            out.push(Outgoing {
                to: Recipient::Broadcast,
                msg: MuxMessage::Open { session, msg },
            });
        }
        self.high_water = self.high_water.max(self.in_flight.len());

        // Drained and idle with no way to get new work: close the run.
        if !self.intake_open && self.pending.is_empty() && self.in_flight.is_empty() {
            self.closing = true;
            out.push(Outgoing {
                to: Recipient::Broadcast,
                msg: MuxMessage::Shutdown,
            });
        } else if self.intake.is_some() && out.is_empty() && inbox.is_empty() {
            // Live daemon with nothing to do this round: yield briefly so
            // an idle mesh doesn't spin the CPU between client requests.
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        RoundAction::Continue(out)
    }

    fn id(&self) -> PlayerId {
        self.id
    }
}

/// Runs a fixed batch of signing requests through a multiplexed session
/// mesh: `signers` (each holding its share from `km`) plus a
/// coordinator player `coordinator` (not a signer), with at most
/// `max_in_flight` sessions open at once.
///
/// Returns the coordinator's [`MuxOutcome`] (all signatures plus the
/// high-water mark) and the run's traffic metrics. Deterministic for a
/// given request list, whichever transport runs it.
///
/// # Errors
///
/// Transport failures ([`borndist_net::Error`]), including
/// [`borndist_net::SimError::RoundLimitExceeded`] if `max_rounds` cannot cover the
/// batch (each pipelined wave of sessions needs a handful of rounds).
///
/// # Panics
///
/// Panics if `signers` has fewer than `t+1` entries, a signer id has no
/// share in `km`, or `coordinator` collides with a signer id.
#[allow(clippy::too_many_arguments)]
pub fn run_mux_sign(
    scheme: &ThresholdScheme,
    km: &crate::ro::KeyMaterial,
    requests: &[(u64, Vec<u8>)],
    signers: &[u32],
    coordinator: PlayerId,
    max_in_flight: usize,
    transport: &TransportKind,
    max_rounds: usize,
) -> Result<(MuxOutcome, Metrics), borndist_net::Error> {
    assert!(
        signers.len() >= km.params.reconstruction_size(),
        "need at least t+1 signers"
    );
    assert!(
        !signers.contains(&coordinator),
        "the coordinator must not be a signer"
    );
    let signer_ids: Vec<PlayerId> = signers.to_vec();
    let mut players: Vec<BoxedPlayer<MuxMessage, MuxOutcome>> = signers
        .iter()
        .map(|id| {
            Box::new(MuxSignerPlayer::new(
                scheme.clone(),
                km.params,
                km.public_key.clone(),
                km.verification_keys.clone(),
                km.shares[id].clone(),
                signer_ids.clone(),
                coordinator,
            )) as _
        })
        .collect();
    players.push(Box::new(MuxCoordinator::with_requests(
        coordinator,
        scheme.clone(),
        km.public_key.clone(),
        max_in_flight,
        requests.to_vec(),
    )));
    let (mut outputs, metrics) = run_protocol(transport, players, max_rounds)?;
    let outcome = outputs
        .remove(&coordinator)
        .expect("coordinator always produces an outcome");
    Ok((outcome, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ro::CombinerCalls;
    use borndist_net::DeliveryPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ThresholdScheme, crate::ro::KeyMaterial) {
        let scheme = ThresholdScheme::new(b"netsign-tests");
        let mut r = StdRng::seed_from_u64(0x517);
        let km = scheme.dealer_keygen(ThresholdParams::new(1, 4).unwrap(), &mut r);
        (scheme, km)
    }

    #[test]
    fn retransmission_carries_signing_through_a_combiner_outage() {
        // Session 1's combiner (player 2) has its links down for the
        // first three rounds, so *only* the per-round retransmission of
        // partial signatures can ever assemble the quorum — a broken
        // retransmission path fails this test with RoundLimitExceeded.
        let (scheme, km) = setup();
        let requests = vec![(1u64, b"outage signing".to_vec())];
        let run = |policy: DeliveryPolicy| {
            run_mux_sign(
                &scheme,
                &km,
                &requests,
                &[1, 2, 3, 4],
                9,
                1,
                &TransportKind::Channel(policy),
                60,
            )
            .unwrap()
        };
        let (_, baseline) = run(DeliveryPolicy::reliable());
        let (outcome, metrics) = run(DeliveryPolicy {
            outages: vec![borndist_net::Outage {
                player: 2,
                from_round: 0,
                until_round: 3,
            }],
            ..DeliveryPolicy::default()
        });
        assert_eq!(outcome.signatures.len(), 1);
        assert!(scheme.verify(&km.public_key, &requests[0].1, &outcome.signatures[&1]));
        // Partials first arrive in round 3, combine in round 4 at the
        // earliest: strictly more traffic and rounds than the loss-free
        // baseline.
        assert!(metrics.total_rounds > 3);
        assert!(metrics.total_rounds > baseline.total_rounds);
        assert!(metrics.messages > baseline.messages);
    }

    #[test]
    fn mux_message_wire_roundtrip() {
        let (scheme, km) = setup();
        let p = scheme.share_sign(&km.shares[&2], b"mux");
        let partials: Vec<PartialSignature> = [1u32, 2]
            .iter()
            .map(|i| scheme.share_sign(&km.shares[i], b"mux"))
            .collect();
        let sig = scheme.combine(&km.params, &partials).unwrap();
        for msg in [
            MuxMessage::Open {
                session: 9,
                msg: b"mux".to_vec(),
            },
            MuxMessage::Partial {
                session: 9,
                psig: p,
            },
            MuxMessage::Done { session: 9, sig },
            MuxMessage::Shutdown,
        ] {
            assert_eq!(MuxMessage::decode_exact(&msg.encode()).unwrap(), msg);
        }
        assert!(matches!(
            MuxMessage::decode_exact(&[9]),
            Err(CodecError::InvalidTag(9))
        ));
    }

    #[test]
    fn mux_serves_concurrent_sessions_with_backpressure() {
        let (scheme, km) = setup();
        let requests: Vec<(u64, Vec<u8>)> = (0..12u64)
            .map(|i| (1000 + i, format!("request {}", i).into_bytes()))
            .collect();
        let (outcome, _) = run_mux_sign(
            &scheme,
            &km,
            &requests,
            &[1, 2, 3, 4],
            9,
            4,
            &TransportKind::Lockstep,
            80,
        )
        .unwrap();
        assert_eq!(outcome.signatures.len(), 12);
        // The backpressure bound held, and the pipeline actually
        // overlapped sessions rather than serializing them.
        assert!(outcome.high_water <= 4);
        assert!(outcome.high_water >= 2);
        for (session, msg) in &requests {
            let sig = &outcome.signatures[session];
            assert!(scheme.verify(&km.public_key, msg, sig));
        }
        // Uniqueness: the same message under another session id gets the
        // same signature (signing is deterministic in the key).
        let (o2, _) = run_mux_sign(
            &scheme,
            &km,
            &[(7, b"request 0".to_vec())],
            &[1, 2, 3, 4],
            9,
            4,
            &TransportKind::Lockstep,
            80,
        )
        .unwrap();
        assert_eq!(o2.signatures[&7], outcome.signatures[&1000]);
    }

    #[test]
    fn mux_is_transport_invariant() {
        let (scheme, km) = setup();
        let requests: Vec<(u64, Vec<u8>)> = (0..6u64)
            .map(|i| (i, format!("parity {}", i).into_bytes()))
            .collect();
        let run = |t: &TransportKind| {
            run_mux_sign(&scheme, &km, &requests, &[1, 2, 3, 4], 9, 3, t, 80).unwrap()
        };
        let (o_l, m_l) = run(&TransportKind::Lockstep);
        let (o_c, m_c) = run(&TransportKind::Channel(DeliveryPolicy::reliable()));
        let (o_t, m_t) = run(&TransportKind::TcpReactor(DeliveryPolicy::reliable()));
        assert_eq!(o_l.signatures, o_c.signatures);
        assert_eq!(o_l.signatures, o_t.signatures);
        assert!(m_l.same_traffic(&m_c));
        assert!(
            m_l.same_traffic(&m_t),
            "real sockets must meter the same frames"
        );
    }

    #[test]
    fn mux_survives_lossy_private_links() {
        let (scheme, km) = setup();
        let requests: Vec<(u64, Vec<u8>)> = (0..5u64)
            .map(|i| (i, format!("lossy mux {}", i).into_bytes()))
            .collect();
        let (outcome, _) = run_mux_sign(
            &scheme,
            &km,
            &requests,
            &[1, 2, 3, 4],
            9,
            2,
            &TransportKind::Channel(DeliveryPolicy::lossy(0xfee1, 0.4)),
            200,
        )
        .unwrap();
        assert_eq!(outcome.signatures.len(), 5);
        for (session, msg) in &requests {
            assert!(scheme.verify(&km.public_key, msg, &outcome.signatures[session]));
        }
    }

    #[test]
    fn mux_live_intake_drives_sessions_to_completion() {
        // The daemon path: requests arrive through a channel while the
        // mesh is running, and completions flow back out.
        let (scheme, km) = setup();
        let (req_tx, req_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let mut players: Vec<BoxedPlayer<MuxMessage, MuxOutcome>> = [1u32, 2, 3, 4]
            .iter()
            .map(|id| {
                Box::new(MuxSignerPlayer::new(
                    scheme.clone(),
                    km.params,
                    km.public_key.clone(),
                    km.verification_keys.clone(),
                    km.shares[id].clone(),
                    vec![1, 2, 3, 4],
                    9,
                )) as _
            })
            .collect();
        players.push(Box::new(MuxCoordinator::with_intake(
            9,
            scheme.clone(),
            km.public_key.clone(),
            4,
            req_rx,
            done_tx,
        )));
        let feeder = std::thread::spawn(move || {
            for i in 0..8u64 {
                req_tx
                    .send((i, format!("live {}", i).into_bytes()))
                    .unwrap();
                if i % 3 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            // Dropping the sender closes the intake; the coordinator
            // drains in-flight work and shuts the mesh down.
        });
        let (outputs, _) = run_protocol(
            &TransportKind::Channel(DeliveryPolicy::reliable()),
            players,
            100_000,
        )
        .unwrap();
        feeder.join().unwrap();
        let outcome = &outputs[&9];
        assert_eq!(outcome.signatures.len(), 8);
        let completions: Vec<(u64, Signature)> = done_rx.try_iter().collect();
        assert_eq!(completions.len(), 8);
        for (i, sig) in &completions {
            assert!(scheme.verify(&km.public_key, format!("live {}", i).as_bytes(), sig));
        }
    }

    // -----------------------------------------------------------------
    // Byzantine signers against the optimistic combiner.
    // -----------------------------------------------------------------

    type Tamper<M> = Box<dyn FnMut(&mut Vec<Outgoing<M>>) + Send>;

    /// A Byzantine player: the honest `inner` runs, then `tamper`
    /// rewrites what it is about to send.
    struct Forger<P: Protocol> {
        inner: P,
        tamper: Tamper<P::Message>,
    }

    impl<P: Protocol> Protocol for Forger<P> {
        type Message = P::Message;
        type Output = P::Output;

        fn round(
            &mut self,
            round: usize,
            inbox: &[Delivered<P::Message>],
        ) -> RoundAction<P::Message, P::Output> {
            match self.inner.round(round, inbox) {
                RoundAction::Continue(mut out) => {
                    (self.tamper)(&mut out);
                    RoundAction::Continue(out)
                }
                finish => finish,
            }
        }

        fn id(&self) -> PlayerId {
            self.inner.id()
        }
    }

    const DECOY: &[u8] = b"not the message being signed";

    /// [`setup`] at other parameters.
    fn setup_tn(t: usize, n: usize) -> (ThresholdScheme, crate::ro::KeyMaterial) {
        let scheme = ThresholdScheme::new(b"netsign-tests");
        let mut r = StdRng::seed_from_u64(0x517);
        let km = scheme.dealer_keygen(ThresholdParams::new(t, n).unwrap(), &mut r);
        (scheme, km)
    }

    /// Well-formed, decodable, and invalid for every message but `DECOY`.
    fn forged_partial(
        scheme: &ThresholdScheme,
        km: &crate::ro::KeyMaterial,
        index: u32,
    ) -> PartialSignature {
        scheme.share_sign(&km.shares[&index], DECOY)
    }

    /// The one signature an all-honest run produces (uniqueness).
    fn honest_signature(
        scheme: &ThresholdScheme,
        km: &crate::ro::KeyMaterial,
        msg: &[u8],
    ) -> Signature {
        let partials: Vec<PartialSignature> = (1..=km.params.reconstruction_size() as u32)
            .map(|i| scheme.share_sign(&km.shares[&i], msg))
            .collect();
        scheme.combine(&km.params, &partials).unwrap()
    }

    fn delivered<M>(from: PlayerId, broadcast: bool, msg: M) -> Delivered<M> {
        Delivered {
            from,
            broadcast,
            msg: Ok(msg),
        }
    }

    fn load(counter: &std::sync::atomic::AtomicUsize) -> usize {
        counter.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// One mux run with every partial of `forgers` forged, each forger
    /// also broadcasting a garbage `Done` for every session it is not
    /// the combiner of. Returns every player's outcome and the pairing
    /// checks all combiners ran.
    fn mux_with_forgers(
        scheme: &ThresholdScheme,
        km: &crate::ro::KeyMaterial,
        requests: &[(u64, Vec<u8>)],
        forgers: &[u32],
        transport: &TransportKind,
    ) -> (
        BTreeMap<PlayerId, MuxOutcome>,
        std::sync::Arc<CombinerCalls>,
    ) {
        let calls = std::sync::Arc::new(CombinerCalls::default());
        let signer_ids: Vec<PlayerId> = km.shares.keys().copied().collect();
        let garbage = honest_signature(scheme, km, DECOY);
        let mut players: Vec<BoxedPlayer<MuxMessage, MuxOutcome>> = signer_ids
            .iter()
            .map(|id| {
                let mut player = MuxSignerPlayer::new(
                    scheme.clone(),
                    km.params,
                    km.public_key.clone(),
                    km.verification_keys.clone(),
                    km.shares[id].clone(),
                    signer_ids.clone(),
                    99,
                );
                player.committee.calls = calls.clone();
                if !forgers.contains(id) {
                    return Box::new(player) as _;
                }
                let forged = forged_partial(scheme, km, *id);
                Box::new(Forger {
                    inner: player,
                    tamper: Box::new(move |out| {
                        let mut lies = Vec::new();
                        for o in out.iter_mut() {
                            if let MuxMessage::Partial { session, psig } = &mut o.msg {
                                *psig = forged;
                                lies.push(Outgoing {
                                    to: Recipient::Broadcast,
                                    msg: MuxMessage::Done {
                                        session: *session,
                                        sig: garbage,
                                    },
                                });
                            }
                        }
                        out.extend(lies);
                    }),
                }) as _
            })
            .collect();
        players.push(Box::new(MuxCoordinator::with_requests(
            99,
            scheme.clone(),
            km.public_key.clone(),
            3,
            requests.to_vec(),
        )));
        let (outputs, _) = run_protocol(transport, players, 400).unwrap();
        (outputs, calls)
    }

    fn requests(count: u64) -> Vec<(u64, Vec<u8>)> {
        (0..count)
            .map(|i| (i, format!("byzantine {}", i).into_bytes()))
            .collect()
    }

    /// Checks a forged mux run: every request carries the signature an
    /// all-honest run produces, only forgers are ever named, and — when
    /// `exact` (no loss, so every partial reaches every combiner) — each
    /// session names every forger but its own combiner.
    fn assert_mux_outcome(
        scheme: &ThresholdScheme,
        km: &crate::ro::KeyMaterial,
        requests: &[(u64, Vec<u8>)],
        forgers: &[u32],
        outputs: &BTreeMap<PlayerId, MuxOutcome>,
        exact: bool,
    ) {
        let signer_ids: Vec<PlayerId> = km.shares.keys().copied().collect();
        let coordinator = &outputs[&99];
        assert_eq!(coordinator.signatures.len(), requests.len());
        for (session, msg) in requests {
            assert_eq!(
                coordinator.signatures[session],
                honest_signature(scheme, km, msg)
            );
        }
        let mut named: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
        for id in &signer_ids {
            let outcome = &outputs[id];
            assert!(outcome.signatures.is_empty(), "signers verify no Done");
            assert_eq!(outcome.finished, requests.len());
            for (session, rejected) in &outcome.rejected {
                assert_eq!(*id, combiner_of(&signer_ids, *session));
                named.insert(*session, rejected.clone());
            }
        }
        for (session, _) in requests {
            let combiner = combiner_of(&signer_ids, *session);
            let expected: BTreeSet<u32> =
                forgers.iter().copied().filter(|f| *f != combiner).collect();
            let got = named.remove(session).unwrap_or_default();
            if exact {
                assert_eq!(got, expected, "session {}", session);
            } else {
                assert!(got.is_subset(&expected), "session {}: {:?}", session, got);
            }
        }
    }

    #[test]
    fn honest_runs_pay_one_verify_per_session_and_no_share_verify() {
        let (scheme, km) = setup();
        let requests = requests(6);
        let (outputs, calls) =
            mux_with_forgers(&scheme, &km, &requests, &[], &TransportKind::Lockstep);
        assert_mux_outcome(&scheme, &km, &requests, &[], &outputs, true);
        assert_eq!(load(&calls.verifies), requests.len());
        assert_eq!(load(&calls.fallback_checks), 0);
    }

    #[test]
    fn a_forger_inside_the_first_quorum_is_named_and_the_signature_is_unchanged() {
        // Index 1 is the lowest, so its partial is always among the
        // first t+1 the combiner holds.
        let (scheme, km) = setup();
        let lossy = TransportKind::Channel(DeliveryPolicy::lossy(0x10551, 0.4));
        let requests = requests(6);
        let (outputs, calls) =
            mux_with_forgers(&scheme, &km, &requests, &[1], &TransportKind::Lockstep);
        assert_mux_outcome(&scheme, &km, &requests, &[1], &outputs, true);
        // Sessions 0 and 4 are the forger's own to combine: nothing to
        // reject there. The other four each pay one failed combine,
        // Share-Verify over the three partials the combiner did not make
        // itself, and one recombine.
        assert_eq!(load(&calls.verifies), 2 + 4 * 2);
        assert_eq!(load(&calls.fallback_checks), 4 * 3);
        let (outputs, _) = mux_with_forgers(&scheme, &km, &requests, &[1], &lossy);
        assert_mux_outcome(&scheme, &km, &requests, &[1], &outputs, false);
    }

    #[test]
    fn t_forgers_are_all_named_and_no_honest_signer_is() {
        let (scheme, km) = setup_tn(2, 5);
        let lossy = TransportKind::Channel(DeliveryPolicy::lossy(0x70551, 0.3));
        let requests = requests(5);
        let (outputs, _) =
            mux_with_forgers(&scheme, &km, &requests, &[1, 2], &TransportKind::Lockstep);
        assert_mux_outcome(&scheme, &km, &requests, &[1, 2], &outputs, true);
        let (outputs, _) = mux_with_forgers(&scheme, &km, &requests, &[1, 2], &lossy);
        assert_mux_outcome(&scheme, &km, &requests, &[1, 2], &outputs, false);
    }

    #[test]
    fn only_the_sessions_combiner_can_tell_a_signer_it_is_done() {
        let (scheme, km) = setup();
        let signer = |id: u32| {
            MuxSignerPlayer::new(
                scheme.clone(),
                km.params,
                km.public_key.clone(),
                km.verification_keys.clone(),
                km.shares[&id].clone(),
                vec![1, 2, 3, 4],
                9,
            )
        };
        let msg = b"session one".to_vec();
        let open = || {
            delivered(
                9,
                true,
                MuxMessage::Open {
                    session: 1,
                    msg: msg.clone(),
                },
            )
        };
        let done_from = |from: PlayerId| {
            delivered(
                from,
                true,
                MuxMessage::Done {
                    session: 1,
                    sig: honest_signature(&scheme, &km, DECOY),
                },
            )
        };
        let sent = |action: RoundAction<MuxMessage, MuxOutcome>| match action {
            RoundAction::Continue(out) => {
                out.into_iter().map(|o| (o.to, o.msg)).collect::<Vec<_>>()
            }
            RoundAction::Finish(_) => panic!("finished early"),
        };

        // Session 1 is combined by player 2; player 3 only signs.
        let mut three = signer(3);
        let retransmission = sent(three.round(0, &[open()]));
        assert!(matches!(
            retransmission[..],
            [(
                Recipient::Private(2),
                MuxMessage::Partial { session: 1, .. }
            )]
        ));
        // A Done from anybody else changes nothing ...
        assert_eq!(sent(three.round(1, &[done_from(1)])), retransmission);
        // ... the combiner's ends the session, unverified, and leaves
        // neither the message nor a partial behind; a replayed Open does
        // not bring it back.
        assert!(sent(three.round(2, &[done_from(2)])).is_empty());
        assert!(three.sessions.is_empty());
        assert_eq!(three.finished, BTreeSet::from([1]));
        assert!(sent(three.round(3, &[open()])).is_empty());
        assert!(three.sessions.is_empty());
        match three.round(4, &[delivered(9, true, MuxMessage::Shutdown)]) {
            RoundAction::Finish(outcome) => {
                assert!(outcome.signatures.is_empty());
                assert_eq!(outcome.finished, 1);
                assert!(outcome.rejected.is_empty());
            }
            RoundAction::Continue(_) => panic!("ignored Shutdown"),
        }

        // At the combiner, strays are never collected, and its own
        // broadcast finishes the session on the spot.
        let partial = |i: u32| scheme.share_sign(&km.shares[&i], &msg);
        let mut two = signer(2);
        let stray = |from: PlayerId, index: u32, like: u32| {
            delivered(
                from,
                false,
                MuxMessage::Partial {
                    session: 1,
                    psig: PartialSignature {
                        index,
                        ..partial(like)
                    },
                },
            )
        };
        assert!(sent(two.round(0, &[open()])).is_empty());
        assert!(sent(two.round(1, &[stray(3, 4, 4), stray(7, 7, 3)])).is_empty());
        let held: Vec<u32> = two.sessions[&1]
            .combiner
            .as_ref()
            .unwrap()
            .held
            .keys()
            .copied()
            .collect();
        assert_eq!(held, [2]);
        let out = sent(two.round(2, &[stray(3, 3, 3)]));
        assert_eq!(
            out,
            [(
                Recipient::Broadcast,
                MuxMessage::Done {
                    session: 1,
                    sig: honest_signature(&scheme, &km, &msg),
                }
            )]
        );
        assert!(two.sessions.is_empty());
        assert_eq!(two.finished, BTreeSet::from([1]));
    }

    #[test]
    fn only_the_coordinator_opens_and_closes_sessions() {
        let (scheme, km) = setup();
        let mut three = MuxSignerPlayer::new(
            scheme.clone(),
            km.params,
            km.public_key.clone(),
            km.verification_keys.clone(),
            km.shares[&3].clone(),
            vec![1, 2, 3, 4],
            9,
        );
        let open_from = |from: PlayerId| {
            delivered(
                from,
                true,
                MuxMessage::Open {
                    session: 777,
                    msg: b"evil".to_vec(),
                },
            )
        };
        let sent = |action: RoundAction<MuxMessage, MuxOutcome>| match action {
            RoundAction::Continue(out) => out.len(),
            RoundAction::Finish(_) => panic!("a signer's Shutdown finished the player"),
        };

        // A signer's Open yields no partial, its Shutdown ends nothing.
        assert_eq!(sent(three.round(0, &[open_from(1)])), 0);
        assert!(three.sessions.is_empty());
        assert_eq!(
            sent(three.round(1, &[delivered(1, true, MuxMessage::Shutdown)])),
            0
        );
        // The coordinator's do both.
        assert_eq!(sent(three.round(2, &[open_from(9)])), 1);
        assert!(matches!(
            three.round(3, &[delivered(9, true, MuxMessage::Shutdown)]),
            RoundAction::Finish(_)
        ));
    }

    #[test]
    fn the_coordinator_releases_only_a_done_that_verifies() {
        let (scheme, km) = setup();
        let (req_tx, req_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let mut coordinator = MuxCoordinator::with_intake(
            9,
            scheme.clone(),
            km.public_key.clone(),
            4,
            req_rx,
            done_tx,
        );
        let msg = b"session five".to_vec();
        req_tx.send((5u64, msg.clone())).unwrap();
        assert!(matches!(
            coordinator.round(0, &[]),
            RoundAction::Continue(out) if out.len() == 1
        ));
        let done = |from: PlayerId, sig: Signature| {
            delivered(from, true, MuxMessage::Done { session: 5, sig })
        };
        // Garbage — from a bystander or from session 5's own combiner
        // (player 2) — never reaches the client.
        let garbage = honest_signature(&scheme, &km, DECOY);
        let _ = coordinator.round(1, &[done(1, garbage), done(2, garbage)]);
        assert!(done_rx.try_recv().is_err());
        let sig = honest_signature(&scheme, &km, &msg);
        let _ = coordinator.round(2, &[done(2, sig)]);
        assert_eq!(done_rx.try_recv().unwrap(), (5, sig));
    }
}
