//! Threshold signing as a network protocol: many concurrent signing
//! sessions multiplexed over one long-lived protocol run — the engine of
//! the threshold-signing daemon — with partial signatures crossing a
//! real [`Transport`](borndist_net::TransportKind) as encoded frames.
//!
//! The §3 scheme's signing is non-interactive — a signer needs only its
//! share and the message — and its `Combine` is public: anyone holding
//! `t+1` partials and the verification keys can combine them and name
//! an invalid share. So the network shape is one round trip. The
//! [`MuxCoordinator`] broadcasts `Open`, every [`MuxSignerPlayer`]
//! answers with its [`PartialSignature`] over the private channel to the
//! coordinator, and the coordinator combines. A signer keeps no
//! per-session state: it answers each `Open` and forgets it.
//!
//! The coordinator holds one [`crate::ro::Combiner`] per open session,
//! the scheme's one robust `Combine`: partials are collected
//! *unverified*, the combined signature is verified once against the
//! public key, and `Share-Verify` runs only when that check fails.
//! Offenders go into the session's `rejected` set (anything more from
//! them is dropped without a pairing) and the survivors are recombined,
//! so only a verified signature is ever released and a Byzantine signer
//! buys at most one fallback per session.
//!
//! Only the coordinator opens and closes sessions: a signer takes `Open`
//! and `Shutdown` from the coordinator's id alone, so a corrupted signer
//! can neither obtain signatures on messages nobody requested nor stop
//! the honest signers.
//!
//! Two properties matter here:
//!
//! * **loss tolerance** — a session still uncombined one round trip
//!   after its last send gets its `Open` re-sent, privately, to every
//!   signer the coordinator neither holds nor rejected, so the protocol
//!   terminates over a lossy [`borndist_net::DeliveryPolicy`] (the
//!   private links may drop; the broadcasts are reliable by the model).
//!   That is the whole retransmission story: no acks, because partial
//!   signatures are deterministic and a repeated `Open` is answered with
//!   the identical partial. On reliable links no re-send ever fires.
//! * **byte discipline** — like the DKG, players decode-validate-then-
//!   process: a malformed frame is ignored exactly like a dropped one, a
//!   partial is collected only under its sender's own index and a known
//!   verification key, and an invalid one is caught by the combined
//!   check and discarded by name, so Byzantine signers can delay a
//!   session by one fallback and forge nothing.

use crate::ro::{Combiner, Committee, KeyShare, PartialSignature, Signature, ThresholdScheme};
use borndist_net::{
    run_protocol, BoxedPlayer, Delivered, Metrics, Outgoing, PlayerId, Protocol, Recipient,
    RoundAction, TransportKind,
};
use borndist_pairing::codec::{CodecError, Wire};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A wire message of the multiplexed signing protocol. Every message
/// but `Shutdown` carries the session id, so one mesh of players can
/// drive any number of concurrent sessions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MuxMessage {
    /// Coordinator → signers (a broadcast, or a private re-send): sign
    /// `msg` under `session`.
    Open {
        /// Session id, assigned by the coordinator.
        session: u64,
        /// The message to sign.
        msg: Vec<u8>,
    },
    /// Signer → coordinator (private): a partial signature.
    Partial {
        /// The session this partial belongs to.
        session: u64,
        /// The partial (deterministic: a re-sent `Open` gets the same).
        psig: PartialSignature,
    },
    /// Coordinator broadcast: no more sessions will open; everyone
    /// finishes.
    Shutdown,
}

const TAG_OPEN: u8 = 0;
const TAG_MUX_PARTIAL: u8 = 1;
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
            TAG_SHUTDOWN => Ok(MuxMessage::Shutdown),
            tag => Err(CodecError::InvalidTag(tag)),
        }
    }
}

/// What a multiplexed run returns per player. The coordinator's carries
/// every combined signature (each passed `Verify`), whom its combiners
/// rejected, the in-flight high-water mark the backpressure bound was
/// measured at and the per-request service latencies; a signer's is
/// empty.
#[derive(Clone, Debug, Default)]
pub struct MuxOutcome {
    /// Verified combined signatures by client request id (a repeated id
    /// keeps the signature that completed last). Only a coordinator fed
    /// by [`MuxCoordinator::with_requests`] keeps them:
    /// [`MuxCoordinator::with_intake`] hands each one to its `completed`
    /// channel instead.
    pub signatures: BTreeMap<u64, Signature>,
    /// Requests whose combine had to fall back to `Share-Verify`, by
    /// client request id, with the signer indices it rejected. Empty in
    /// an all-honest run.
    pub rejected: BTreeMap<u64, BTreeSet<u32>>,
    /// Maximum number of sessions that were simultaneously in flight
    /// (0 for signer players — only the coordinator opens sessions).
    pub high_water: usize,
    /// Enqueue→verified-signature wall-clock of every request, in
    /// completion order (coordinator only): stamped when the request
    /// entered the coordinator's queue — construction for
    /// [`MuxCoordinator::with_requests`], channel arrival for
    /// [`MuxCoordinator::with_intake`] — and closed when its combined
    /// signature passes `Verify`. Queueing delay under the backpressure
    /// bound is therefore *included*: this is the client-observed
    /// service time, the histogram the daemon front-end summarizes.
    pub latencies: Vec<Duration>,
}

/// One signing node of the daemon: holds a key share and answers every
/// `Open` the coordinator sends with its partial signature, addressed to
/// the coordinator. It keeps no per-session state — partials are
/// deterministic, so a repeated `Open` is simply answered again.
pub struct MuxSignerPlayer {
    scheme: ThresholdScheme,
    share: KeyShare,
    /// The only player whose `Open` and `Shutdown` count.
    coordinator: PlayerId,
}

impl MuxSignerPlayer {
    /// Builds one signing node; `coordinator` is the one player that
    /// opens and closes sessions.
    pub fn new(scheme: ThresholdScheme, share: KeyShare, coordinator: PlayerId) -> Self {
        MuxSignerPlayer {
            scheme,
            share,
            coordinator,
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
        let mut out = Vec::new();
        // Decode-validate-then-process: malformed frames are ignored
        // like lost ones, and so is anything not from the coordinator.
        for d in inbox.iter().filter(|d| d.from == self.coordinator) {
            match &d.msg {
                Ok(MuxMessage::Open { session, msg }) => out.push(Outgoing {
                    to: Recipient::Private(self.coordinator),
                    msg: MuxMessage::Partial {
                        session: *session,
                        psig: self.scheme.share_sign(&self.share, msg),
                    },
                }),
                // The coordinator only shuts down once every opened
                // session is combined, so nothing is abandoned here.
                Ok(MuxMessage::Shutdown) => return RoundAction::Finish(MuxOutcome::default()),
                _ => {}
            }
        }
        RoundAction::Continue(out)
    }

    fn id(&self) -> PlayerId {
        self.share.index
    }
}

/// Rounds after its last send before an uncombined session's `Open` is
/// re-sent: one round trip (`Open` out, partials back).
const RESEND_AFTER: usize = 2;

/// The coordinator's state for one session in flight.
struct Session {
    /// The client's request id, which the signature is returned under.
    id: u64,
    msg: Vec<u8>,
    enqueued: Instant,
    /// Round of the last `Open` sent for this session.
    sent: usize,
    combiner: Combiner,
}

/// The front-end of the daemon, as a protocol player and the one
/// combiner: feeds signing requests into the mesh as `Open` broadcasts,
/// bounded by `max_in_flight` (the backpressure knob), combines the
/// partials that come back, releases only signatures that pass `Verify`,
/// and closes the run with a `Shutdown` broadcast once every session
/// completed and no more requests can arrive.
///
/// Sessions are numbered by the coordinator, so a client may reuse a
/// request id: each request is signed and answered on its own.
///
/// Requests come either from a fixed queue ([`Self::with_requests`] —
/// deterministic, used by tests and benchmarks) or from a live channel
/// ([`Self::with_intake`] — the daemon path, where a socket thread
/// feeds requests mid-run and completed signatures flow back out).
pub struct MuxCoordinator {
    id: PlayerId,
    committee: Committee,
    /// Requests not yet opened, with their enqueue stamps.
    pending: VecDeque<(u64, Vec<u8>, Instant)>,
    intake: Option<mpsc::Receiver<(u64, Vec<u8>)>>,
    completed_tx: Option<mpsc::Sender<(u64, Signature)>>,
    intake_open: bool,
    max_in_flight: usize,
    /// Sessions in flight, by session id.
    sessions: BTreeMap<u64, Session>,
    next_session: u64,
    outcome: MuxOutcome,
    closing: bool,
}

impl MuxCoordinator {
    fn base(id: PlayerId, committee: Committee, max_in_flight: usize) -> Self {
        assert!(max_in_flight >= 1, "backpressure bound must be positive");
        MuxCoordinator {
            id,
            committee,
            pending: VecDeque::new(),
            intake: None,
            completed_tx: None,
            intake_open: false,
            max_in_flight,
            sessions: BTreeMap::new(),
            next_session: 0,
            outcome: MuxOutcome::default(),
            closing: false,
        }
    }

    /// A coordinator with a fixed request queue (deterministic runs),
    /// combining for `committee`, whose verification keys name the
    /// signers. The whole queue counts as enqueued at construction, so
    /// reported latencies include the time spent waiting behind the
    /// backpressure bound — identical semantics to the live-intake path.
    pub fn with_requests(
        id: PlayerId,
        committee: Committee,
        max_in_flight: usize,
        requests: Vec<(u64, Vec<u8>)>,
    ) -> Self {
        let mut c = Self::base(id, committee, max_in_flight);
        let now = Instant::now();
        c.pending = requests
            .into_iter()
            .map(|(request, msg)| (request, msg, now))
            .collect();
        c
    }

    /// A coordinator fed by a live channel: `intake` delivers
    /// `(request id, message)` pairs (the run keeps serving until the
    /// sender side is dropped), and each completed signature is pushed
    /// into `completed`.
    pub fn with_intake(
        id: PlayerId,
        committee: Committee,
        max_in_flight: usize,
        intake: mpsc::Receiver<(u64, Vec<u8>)>,
        completed: mpsc::Sender<(u64, Signature)>,
    ) -> Self {
        let mut c = Self::base(id, committee, max_in_flight);
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
        round: usize,
        inbox: &[Delivered<MuxMessage>],
    ) -> RoundAction<MuxMessage, MuxOutcome> {
        if self.closing {
            return RoundAction::Finish(std::mem::take(&mut self.outcome));
        }

        for d in inbox {
            if let Ok(MuxMessage::Partial { session, psig }) = &d.msg {
                if let Some(s) = self.sessions.get_mut(session) {
                    s.combiner.offer(&self.committee, d.from, psig);
                }
            }
        }

        // Retire every session that combines; re-send the `Open` of any
        // other one round trip after its last send, to every signer not
        // yet heard from.
        let mut out = Vec::new();
        let MuxCoordinator {
            committee,
            completed_tx,
            sessions,
            outcome,
            ..
        } = self;
        sessions.retain(|session, s| {
            let Some(sig) = s.combiner.try_combine(committee, &s.msg) else {
                if round >= s.sent + RESEND_AFTER {
                    s.sent = round;
                    for &signer in committee.vks.keys() {
                        if !s.combiner.held.contains_key(&signer)
                            && !s.combiner.rejected.contains(&signer)
                        {
                            out.push(Outgoing {
                                to: Recipient::Private(signer),
                                msg: MuxMessage::Open {
                                    session: *session,
                                    msg: s.msg.clone(),
                                },
                            });
                        }
                    }
                }
                return true;
            };
            outcome.latencies.push(s.enqueued.elapsed());
            if !s.combiner.rejected.is_empty() {
                outcome
                    .rejected
                    .entry(s.id)
                    .or_default()
                    .extend(&s.combiner.rejected);
            }
            match completed_tx {
                Some(tx) => {
                    let _ = tx.send((s.id, sig));
                }
                None => {
                    outcome.signatures.insert(s.id, sig);
                }
            }
            false
        });

        // Pull newly arrived requests (daemon path).
        if self.intake_open {
            if let Some(rx) = &self.intake {
                loop {
                    match rx.try_recv() {
                        Ok((request, msg)) => {
                            self.pending.push_back((request, msg, Instant::now()))
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
        while self.sessions.len() < self.max_in_flight {
            let Some((id, msg, enqueued)) = self.pending.pop_front() else {
                break;
            };
            let session = self.next_session;
            self.next_session += 1;
            out.push(Outgoing {
                to: Recipient::Broadcast,
                msg: MuxMessage::Open {
                    session,
                    msg: msg.clone(),
                },
            });
            self.sessions.insert(
                session,
                Session {
                    id,
                    msg,
                    enqueued,
                    sent: round,
                    combiner: Combiner::default(),
                },
            );
        }
        self.outcome.high_water = self.outcome.high_water.max(self.sessions.len());

        // Drained and idle with no way to get new work: close the run.
        if !self.intake_open && self.pending.is_empty() && self.sessions.is_empty() {
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
/// batch (each wave of sessions needs one round trip).
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
    let mut players: Vec<BoxedPlayer<MuxMessage, MuxOutcome>> = signers
        .iter()
        .map(|id| {
            Box::new(MuxSignerPlayer::new(
                scheme.clone(),
                km.shares[id].clone(),
                coordinator,
            )) as _
        })
        .collect();
    players.push(Box::new(MuxCoordinator::with_requests(
        coordinator,
        signing_committee(scheme, km, signers),
        max_in_flight,
        requests.to_vec(),
    )));
    let (mut outputs, metrics) = run_protocol(transport, players, max_rounds)?;
    let outcome = outputs
        .remove(&coordinator)
        .expect("coordinator always produces an outcome");
    Ok((outcome, metrics))
}

/// The committee of `km` narrowed to the `signers` on the mesh: the
/// coordinator re-sends `Open` only to players that exist.
fn signing_committee(
    scheme: &ThresholdScheme,
    km: &crate::ro::KeyMaterial,
    signers: &[u32],
) -> Committee {
    Committee::new(
        scheme.clone(),
        km.params,
        km.public_key.clone(),
        signers
            .iter()
            .map(|id| (*id, km.verification_keys[id].clone()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ro::CombinerCalls;
    use borndist_net::{encode_frame, DeliveryPolicy};
    use borndist_shamir::ThresholdParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ThresholdScheme, crate::ro::KeyMaterial) {
        setup_tn(1, 4)
    }

    fn setup_tn(t: usize, n: usize) -> (ThresholdScheme, crate::ro::KeyMaterial) {
        let scheme = ThresholdScheme::new(b"netsign-tests");
        let mut r = StdRng::seed_from_u64(0x517);
        let km = scheme.dealer_keygen(ThresholdParams::new(t, n).unwrap(), &mut r);
        (scheme, km)
    }

    fn requests(count: u64) -> Vec<(u64, Vec<u8>)> {
        (0..count)
            .map(|i| (i, format!("byzantine {}", i).into_bytes()))
            .collect()
    }

    #[test]
    fn an_honest_sign_costs_one_round_trip_and_one_plus_n_messages() {
        let (scheme, km) = setup();
        let n = km.params.n;
        let run = |k: u64| {
            run_mux_sign(
                &scheme,
                &km,
                &requests(k),
                &[1, 2, 3, 4],
                9,
                1,
                &TransportKind::Lockstep,
                80,
            )
            .unwrap()
        };
        let (few, m_few) = run(2);
        let (many, m_many) = run(5);
        assert_eq!(few.signatures.len(), 2);
        assert_eq!(many.signatures.len(), 5);
        // Per Sign: the Open broadcast and n partials back, then the one
        // closing Shutdown — nothing is ever re-sent.
        assert_eq!(m_few.messages, 2 * (1 + n) + 1);
        assert_eq!(m_many.messages, 5 * (1 + n) + 1);
        assert_eq!(m_many.total_rounds - m_few.total_rounds, 3 * 2);
        let open = encode_frame(&MuxMessage::Open {
            session: 0,
            msg: requests(1)[0].1.clone(),
        });
        let partial = encode_frame(&MuxMessage::Partial {
            session: 0,
            psig: scheme.share_sign(&km.shares[&1], b"any"),
        });
        assert_eq!(
            m_many.bytes - m_few.bytes,
            3 * (open.len() + n * partial.len())
        );
    }

    #[test]
    fn re_sent_opens_carry_signing_through_a_coordinator_outage() {
        // The coordinator's private links are down for the first three
        // rounds: the broadcast Open arrives, but every partial answering
        // it is lost, so *only* a re-sent Open can ever assemble the
        // quorum — a broken re-send path fails this test with
        // RoundLimitExceeded.
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
                player: 9,
                from_round: 0,
                until_round: 3,
            }],
            ..DeliveryPolicy::default()
        });
        assert_eq!(outcome.signatures.len(), 1);
        assert!(scheme.verify(&km.public_key, &requests[0].1, &outcome.signatures[&1]));
        assert!(metrics.total_rounds > baseline.total_rounds);
        assert!(metrics.messages > baseline.messages);
    }

    #[test]
    fn mux_message_wire_roundtrip() {
        let (scheme, km) = setup();
        let p = scheme.share_sign(&km.shares[&2], b"mux");
        for msg in [
            MuxMessage::Open {
                session: 9,
                msg: b"mux".to_vec(),
            },
            MuxMessage::Partial {
                session: 9,
                psig: p,
            },
            MuxMessage::Shutdown,
        ] {
            assert_eq!(MuxMessage::decode_exact(&msg.encode()).unwrap(), msg);
        }
        // Tag 2 is unassigned; `Shutdown` keeps tag 3.
        for tag in [2u8, 9] {
            assert!(matches!(
                MuxMessage::decode_exact(&[tag]),
                Err(CodecError::InvalidTag(t)) if t == tag
            ));
        }
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
        assert_eq!(outcome.latencies.len(), 12);
        // The backpressure bound held, and the pipeline actually
        // overlapped sessions rather than serializing them.
        assert!(outcome.high_water <= 4);
        assert!(outcome.high_water >= 2);
        for (session, msg) in &requests {
            let sig = &outcome.signatures[session];
            assert!(scheme.verify(&km.public_key, msg, sig));
        }
        // Uniqueness: the same message under another request id gets the
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
        let (o_t, m_t) = run(&TransportKind::TcpReactor(DeliveryPolicy::reliable()));
        assert_eq!(o_l.signatures, o_t.signatures);
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

    /// The daemon path: `requests` arrive through a channel while the
    /// mesh is running. Returns the coordinator's outcome and every
    /// `(request id, signature)` that flowed back out.
    fn run_live(
        scheme: &ThresholdScheme,
        km: &crate::ro::KeyMaterial,
        requests: Vec<(u64, Vec<u8>)>,
    ) -> (MuxOutcome, Vec<(u64, Signature)>) {
        let (req_tx, req_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let signers = [1u32, 2, 3, 4];
        let mut players: Vec<BoxedPlayer<MuxMessage, MuxOutcome>> = signers
            .iter()
            .map(|id| {
                Box::new(MuxSignerPlayer::new(
                    scheme.clone(),
                    km.shares[id].clone(),
                    9,
                )) as _
            })
            .collect();
        players.push(Box::new(MuxCoordinator::with_intake(
            9,
            signing_committee(scheme, km, &signers),
            4,
            req_rx,
            done_tx,
        )));
        let feeder = std::thread::spawn(move || {
            for (i, request) in requests.into_iter().enumerate() {
                req_tx.send(request).unwrap();
                if i % 3 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            // Dropping the sender closes the intake; the coordinator
            // drains in-flight work and shuts the mesh down.
        });
        let (mut outputs, _) = run_protocol(&TransportKind::Lockstep, players, 100_000).unwrap();
        feeder.join().unwrap();
        (outputs.remove(&9).unwrap(), done_rx.try_iter().collect())
    }

    #[test]
    fn mux_live_intake_drives_sessions_to_completion() {
        let (scheme, km) = setup();
        let requests: Vec<(u64, Vec<u8>)> = (0..8u64)
            .map(|i| (i, format!("live {}", i).into_bytes()))
            .collect();
        let (outcome, completions) = run_live(&scheme, &km, requests);
        // Each signature goes out on the channel and is not kept.
        assert!(outcome.signatures.is_empty());
        assert_eq!(outcome.latencies.len(), 8);
        assert_eq!(completions.len(), 8);
        for (i, sig) in &completions {
            assert!(scheme.verify(&km.public_key, format!("live {}", i).as_bytes(), sig));
        }
    }

    #[test]
    fn a_repeated_client_id_is_signed_and_answered_twice() {
        let (scheme, km) = setup();
        let (first, second) = (b"first".to_vec(), b"second".to_vec());
        let (_, completions) =
            run_live(&scheme, &km, vec![(5, first.clone()), (5, second.clone())]);
        assert_eq!(completions.len(), 2);
        for msg in [&first, &second] {
            assert!(completions.contains(&(5, honest_signature(&scheme, &km, msg))));
        }
    }

    // -----------------------------------------------------------------
    // Byzantine signers against the coordinator's optimistic combine.
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

    /// One mux run with every partial of `forgers` forged. Returns the
    /// coordinator's outcome and the pairing checks its combiners ran.
    fn mux_with_forgers(
        scheme: &ThresholdScheme,
        km: &crate::ro::KeyMaterial,
        requests: &[(u64, Vec<u8>)],
        forgers: &[u32],
        transport: &TransportKind,
    ) -> (MuxOutcome, std::sync::Arc<CombinerCalls>) {
        let signer_ids: Vec<PlayerId> = km.shares.keys().copied().collect();
        let committee = signing_committee(scheme, km, &signer_ids);
        let calls = committee.calls.clone();
        let mut players: Vec<BoxedPlayer<MuxMessage, MuxOutcome>> = signer_ids
            .iter()
            .map(|id| {
                let player = MuxSignerPlayer::new(scheme.clone(), km.shares[id].clone(), 99);
                if !forgers.contains(id) {
                    return Box::new(player) as _;
                }
                let forged = forged_partial(scheme, km, *id);
                Box::new(Forger {
                    inner: player,
                    tamper: Box::new(move |out| {
                        for o in out.iter_mut() {
                            if let MuxMessage::Partial { psig, .. } = &mut o.msg {
                                *psig = forged;
                            }
                        }
                    }),
                }) as _
            })
            .collect();
        players.push(Box::new(MuxCoordinator::with_requests(
            99,
            committee,
            3,
            requests.to_vec(),
        )));
        let (mut outputs, _) = run_protocol(transport, players, 400).unwrap();
        (outputs.remove(&99).unwrap(), calls)
    }

    /// Checks a forged mux run: every request carries the signature an
    /// all-honest run produces, only forgers are ever named, and — when
    /// `exact` (no loss, so every partial reaches the coordinator before
    /// its first combine) — each request names every forger. Per
    /// session, the combine costs at most `f + 1` verifies and `n`
    /// `Share-Verify` calls.
    fn assert_mux_outcome(
        scheme: &ThresholdScheme,
        km: &crate::ro::KeyMaterial,
        requests: &[(u64, Vec<u8>)],
        forgers: &[u32],
        (outcome, calls): &(MuxOutcome, std::sync::Arc<CombinerCalls>),
        exact: bool,
    ) {
        assert_eq!(outcome.signatures.len(), requests.len());
        let forgers: BTreeSet<u32> = forgers.iter().copied().collect();
        for (request, msg) in requests {
            assert_eq!(
                outcome.signatures[request],
                honest_signature(scheme, km, msg)
            );
            let named = outcome.rejected.get(request).cloned().unwrap_or_default();
            if exact {
                assert_eq!(named, forgers, "request {}", request);
            } else {
                assert!(
                    named.is_subset(&forgers),
                    "request {}: {:?}",
                    request,
                    named
                );
            }
        }
        assert!(outcome.rejected.len() <= requests.len());
        let sessions = requests.len();
        assert!(load(&calls.verifies) <= sessions * (forgers.len() + 1));
        assert!(load(&calls.fallback_checks) <= sessions * km.params.n);
    }

    #[test]
    fn honest_runs_pay_one_verify_per_session_and_no_share_verify() {
        let (scheme, km) = setup();
        let requests = requests(6);
        let run = mux_with_forgers(&scheme, &km, &requests, &[], &TransportKind::Lockstep);
        assert_mux_outcome(&scheme, &km, &requests, &[], &run, true);
        assert_eq!(load(&run.1.verifies), requests.len());
        assert_eq!(load(&run.1.fallback_checks), 0);
    }

    #[test]
    fn a_forger_inside_the_first_quorum_is_named_and_the_signature_is_unchanged() {
        // Index 1 is the lowest, so its partial is always among the
        // first t+1 the coordinator holds.
        let (scheme, km) = setup();
        let lossy = TransportKind::Channel(DeliveryPolicy::lossy(0x10551, 0.4));
        let requests = requests(6);
        let run = mux_with_forgers(&scheme, &km, &requests, &[1], &TransportKind::Lockstep);
        assert_mux_outcome(&scheme, &km, &requests, &[1], &run, true);
        // Every session pays one failed combine, Share-Verify over all
        // n partials (nothing is vouched for before the first
        // fallback), and one recombine.
        assert_eq!(load(&run.1.verifies), 6 * 2);
        assert_eq!(load(&run.1.fallback_checks), 6 * 4);
        let run = mux_with_forgers(&scheme, &km, &requests, &[1], &lossy);
        assert_mux_outcome(&scheme, &km, &requests, &[1], &run, false);
    }

    #[test]
    fn t_forgers_are_all_named_and_no_honest_signer_is() {
        let (scheme, km) = setup_tn(2, 5);
        let lossy = TransportKind::Channel(DeliveryPolicy::lossy(0x70551, 0.3));
        let requests = requests(5);
        let run = mux_with_forgers(&scheme, &km, &requests, &[1, 2], &TransportKind::Lockstep);
        assert_mux_outcome(&scheme, &km, &requests, &[1, 2], &run, true);
        let run = mux_with_forgers(&scheme, &km, &requests, &[1, 2], &lossy);
        assert_mux_outcome(&scheme, &km, &requests, &[1, 2], &run, false);
    }

    #[test]
    fn only_the_coordinator_opens_and_closes_sessions() {
        let (scheme, km) = setup();
        let mut three = MuxSignerPlayer::new(scheme.clone(), km.shares[&3].clone(), 9);
        let open_from = |from: PlayerId, broadcast: bool| {
            delivered(
                from,
                broadcast,
                MuxMessage::Open {
                    session: 777,
                    msg: b"evil".to_vec(),
                },
            )
        };
        let sent = |action: RoundAction<MuxMessage, MuxOutcome>| match action {
            RoundAction::Continue(out) => {
                out.into_iter().map(|o| (o.to, o.msg)).collect::<Vec<_>>()
            }
            RoundAction::Finish(_) => panic!("a signer's Shutdown finished the player"),
        };

        // Anybody else's Open, broadcast or private, yields no frame,
        // and their Shutdown ends nothing.
        assert!(sent(three.round(0, &[open_from(1, true), open_from(4, false)])).is_empty());
        assert!(sent(three.round(
            1,
            &[
                delivered(1, true, MuxMessage::Shutdown),
                delivered(2, false, MuxMessage::Shutdown),
            ]
        ))
        .is_empty());
        // The coordinator's Open — broadcast, or re-sent privately — is
        // answered with the identical partial, addressed to it alone.
        let answer = vec![(
            Recipient::Private(9),
            MuxMessage::Partial {
                session: 777,
                psig: scheme.share_sign(&km.shares[&3], b"evil"),
            },
        )];
        assert_eq!(sent(three.round(2, &[open_from(9, true)])), answer);
        assert_eq!(sent(three.round(3, &[open_from(9, false)])), answer);
        // Its Shutdown finishes the player.
        assert!(matches!(
            three.round(4, &[delivered(9, true, MuxMessage::Shutdown)]),
            RoundAction::Finish(_)
        ));
    }

    #[test]
    fn the_coordinator_releases_nothing_until_t_plus_one_valid_partials_are_held() {
        let (scheme, km) = setup();
        let (req_tx, req_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let mut coordinator = MuxCoordinator::with_intake(
            9,
            signing_committee(&scheme, &km, &[1, 2, 3, 4]),
            4,
            req_rx,
            done_tx,
        );
        let msg = b"request five".to_vec();
        req_tx.send((5u64, msg.clone())).unwrap();
        let session = match coordinator.round(0, &[]) {
            RoundAction::Continue(out) => match &out[..] {
                [Outgoing {
                    to: Recipient::Broadcast,
                    msg: MuxMessage::Open { session, .. },
                }] => *session,
                other => panic!("expected one Open broadcast, got {:?}", other),
            },
            RoundAction::Finish(_) => panic!("finished with a request open"),
        };
        let partial = |from: PlayerId, psig: PartialSignature| {
            delivered(from, false, MuxMessage::Partial { session, psig })
        };
        let valid = |i: u32| scheme.share_sign(&km.shares[&i], &msg);

        // Two forgeries make a quorum whose combine fails Verify: both
        // are named and nothing reaches the client.
        let _ = coordinator.round(
            1,
            &[
                partial(1, forged_partial(&scheme, &km, 1)),
                partial(2, forged_partial(&scheme, &km, 2)),
            ],
        );
        assert!(done_rx.try_recv().is_err());
        // A valid partial under somebody else's index, and a rejected
        // signer's now-valid one, are not collected: one valid partial
        // is held, short of t+1.
        let _ = coordinator.round(
            2,
            &[
                partial(4, valid(3)),
                partial(1, valid(1)),
                partial(3, valid(3)),
            ],
        );
        assert!(done_rx.try_recv().is_err());
        // The second valid partial releases the verified signature.
        let _ = coordinator.round(3, &[partial(4, valid(4))]);
        assert_eq!(
            done_rx.try_recv().unwrap(),
            (5, honest_signature(&scheme, &km, &msg))
        );
        drop(req_tx);
        let _ = coordinator.round(4, &[]);
        match coordinator.round(5, &[]) {
            RoundAction::Finish(outcome) => {
                assert_eq!(
                    outcome.rejected,
                    BTreeMap::from([(5, BTreeSet::from([1, 2]))])
                );
                assert!(outcome.signatures.is_empty());
            }
            RoundAction::Continue(_) => panic!("no Shutdown after the intake closed"),
        }
    }
}
