//! Threshold signing as a network protocol: partial signatures crossing
//! a real [`Transport`](borndist_net::TransportKind) as encoded frames.
//!
//! The §3 scheme's signing is non-interactive — a signer needs only its
//! share and the message — so the network shape is minimal: each signer
//! sends its [`PartialSignature`] over the private channel to a
//! designated combiner, which verifies shares as they arrive
//! (`Share-Verify`), combines the first `t+1` valid ones, and broadcasts
//! the resulting [`Signature`]. Everyone verifies the broadcast against
//! the public key and finishes.
//!
//! Two properties matter here:
//!
//! * **loss tolerance** — signers *re-send* their partial every round
//!   until they see a valid combined signature, so the protocol
//!   terminates over a lossy [`borndist_net::DeliveryPolicy`] (the
//!   private links may drop; the combined-signature broadcast is
//!   reliable by the model). That is the whole retransmission story: no
//!   acks, no sequence numbers, because partial signatures are
//!   idempotent and deterministic.
//! * **byte discipline** — like the DKG, players decode-validate-then-
//!   process: a malformed frame is ignored exactly like a dropped one,
//!   and a partial signature that fails `Share-Verify` is discarded, so
//!   Byzantine signers can delay nothing and forge nothing.

use crate::ro::{
    KeyShare, PartialSignature, PublicKey, Signature, ThresholdScheme, VerificationKey,
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

/// A wire message of the signing protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SignMessage {
    /// A signer's partial signature, sent privately to the combiner.
    Partial(PartialSignature),
    /// The combiner's broadcast of the combined signature.
    Combined(Signature),
}

const TAG_PARTIAL: u8 = 0;
const TAG_COMBINED: u8 = 1;

impl Wire for SignMessage {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            SignMessage::Partial(p) => {
                out.push(TAG_PARTIAL);
                p.encode_to(out);
            }
            SignMessage::Combined(s) => {
                out.push(TAG_COMBINED);
                s.encode_to(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            TAG_PARTIAL => Ok(SignMessage::Partial(PartialSignature::decode(input)?)),
            TAG_COMBINED => Ok(SignMessage::Combined(Signature::decode(input)?)),
            tag => Err(CodecError::InvalidTag(tag)),
        }
    }
}

/// One participant of a networked signing run.
pub struct SigningPlayer {
    scheme: ThresholdScheme,
    params: ThresholdParams,
    public_key: PublicKey,
    vks: BTreeMap<u32, VerificationKey>,
    combiner: PlayerId,
    id: PlayerId,
    msg: Vec<u8>,
    /// This player's own partial (computed once; signing is
    /// deterministic, so retransmissions are byte-identical).
    own_partial: PartialSignature,
    /// Valid partials collected so far (combiner role).
    collected: BTreeMap<u32, PartialSignature>,
    /// Set once the combined signature is broadcast/seen.
    broadcasted: bool,
}

impl SigningPlayer {
    /// Builds one signing participant.
    pub fn new(
        scheme: ThresholdScheme,
        params: ThresholdParams,
        public_key: PublicKey,
        vks: BTreeMap<u32, VerificationKey>,
        share: &crate::ro::KeyShare,
        combiner: PlayerId,
        msg: Vec<u8>,
    ) -> Self {
        let own_partial = scheme.share_sign(share, &msg);
        let id = share.index;
        let mut collected = BTreeMap::new();
        if id == combiner {
            collected.insert(id, own_partial);
        }
        SigningPlayer {
            scheme,
            params,
            public_key,
            vks,
            combiner,
            id,
            msg,
            own_partial,
            collected,
            broadcasted: false,
        }
    }

    fn absorb(&mut self, inbox: &[Delivered<SignMessage>]) -> Option<Signature> {
        for d in inbox {
            // Decode-validate-then-process: malformed frames are treated
            // exactly like lost ones (the sender will retransmit).
            match &d.msg {
                Ok(SignMessage::Combined(sig))
                    if d.broadcast && self.scheme.verify(&self.public_key, &self.msg, sig) =>
                {
                    return Some(*sig);
                }
                Ok(SignMessage::Partial(p))
                    if !d.broadcast
                        && self.id == self.combiner
                        && p.index == d.from
                        && self
                            .vks
                            .get(&p.index)
                            .is_some_and(|vk| self.scheme.share_verify(vk, &self.msg, p)) =>
                {
                    self.collected.insert(p.index, *p);
                }
                _ => {}
            }
        }
        None
    }
}

impl Protocol for SigningPlayer {
    type Message = SignMessage;
    type Output = Signature;

    fn round(
        &mut self,
        _round: usize,
        inbox: &[Delivered<SignMessage>],
    ) -> RoundAction<SignMessage, Signature> {
        if let Some(sig) = self.absorb(inbox) {
            return RoundAction::Finish(sig);
        }
        let mut out = Vec::new();
        if self.id == self.combiner {
            if !self.broadcasted && self.collected.len() >= self.params.reconstruction_size() {
                let partials: Vec<PartialSignature> = self.collected.values().copied().collect();
                let sig = self
                    .scheme
                    .combine(&self.params, &partials)
                    .expect("collected >= t+1 verified partials");
                self.broadcasted = true;
                // The broadcast reaches the combiner itself next round,
                // which is when it finishes (uniform exit path).
                out.push(Outgoing {
                    to: Recipient::Broadcast,
                    msg: SignMessage::Combined(sig),
                });
            }
        } else {
            // Retransmit until the combined signature arrives.
            out.push(Outgoing {
                to: Recipient::Private(self.combiner),
                msg: SignMessage::Partial(self.own_partial),
            });
        }
        RoundAction::Continue(out)
    }

    fn id(&self) -> PlayerId {
        self.id
    }
}

/// Runs a networked signing round over the given transport: `signers`
/// (which must include `combiner`) exchange encoded frames until every
/// player holds the combined signature.
///
/// Returns each player's verified signature plus traffic metrics.
///
/// # Errors
///
/// Transport errors, including [`borndist_net::SimError::RoundLimitExceeded`] if the
/// policy is lossy enough that the quorum never assembles within
/// `max_rounds`.
///
/// # Panics
///
/// Panics if `signers` has fewer than `t+1` entries, a signer id has no
/// share in `km`, or `combiner` is not among `signers`.
pub fn run_threshold_sign(
    scheme: &ThresholdScheme,
    km: &crate::ro::KeyMaterial,
    msg: &[u8],
    signers: &[u32],
    combiner: PlayerId,
    transport: &TransportKind,
    max_rounds: usize,
) -> Result<(BTreeMap<PlayerId, Signature>, Metrics), borndist_net::Error> {
    assert!(
        signers.len() >= km.params.reconstruction_size(),
        "need at least t+1 signers"
    );
    assert!(
        signers.contains(&combiner),
        "the combiner must be one of the signers"
    );
    let players: Vec<BoxedPlayer<SignMessage, Signature>> = signers
        .iter()
        .map(|id| {
            Box::new(SigningPlayer::new(
                scheme.clone(),
                km.params,
                km.public_key.clone(),
                km.verification_keys.clone(),
                &km.shares[id],
                combiner,
                msg.to_vec(),
            )) as _
        })
        .collect();
    run_protocol(transport, players, max_rounds)
}

// ---------------------------------------------------------------------
// Session multiplexing: many concurrent signing sessions over ONE
// long-lived protocol run — the engine of the threshold-signing daemon.
// ---------------------------------------------------------------------

/// A wire message of the multiplexed signing protocol. Every message
/// carries the session id (the client's request id), so one mesh of
/// players can drive any number of concurrent [`SignMessage`]-style
/// exchanges.
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

/// What a multiplexed run returns per player: every combined signature
/// the player observed, keyed by session id, plus (coordinator only)
/// the in-flight high-water mark the backpressure bound was measured
/// at and the per-request service latencies.
#[derive(Clone, Debug, Default)]
pub struct MuxOutcome {
    /// Verified combined signatures by session id.
    pub signatures: BTreeMap<u64, Signature>,
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

/// Per-session signer state.
struct MuxSession {
    msg: Vec<u8>,
    own_partial: PartialSignature,
    /// Valid partials collected so far (this session's combiner only).
    collected: BTreeMap<u32, PartialSignature>,
    broadcasted: bool,
    done: Option<Signature>,
}

/// The session combiner rotates deterministically over the signer set,
/// so concurrent sessions spread the combine work instead of funneling
/// through one player.
fn combiner_of(signer_ids: &[PlayerId], session: u64) -> PlayerId {
    signer_ids[(session % signer_ids.len() as u64) as usize]
}

/// One signing node of the daemon: holds a key share and serves every
/// session the coordinator opens, combining those sessions it is the
/// rotating combiner for. Loss tolerance is per session, identical to
/// [`SigningPlayer`]: partials are retransmitted every round until the
/// session's `Done` broadcast arrives.
pub struct MuxSignerPlayer {
    scheme: ThresholdScheme,
    params: ThresholdParams,
    public_key: PublicKey,
    vks: BTreeMap<u32, VerificationKey>,
    share: KeyShare,
    signer_ids: Vec<PlayerId>,
    id: PlayerId,
    sessions: BTreeMap<u64, MuxSession>,
    shutdown: bool,
}

impl MuxSignerPlayer {
    /// Builds one signing node. `signer_ids` must be the same (sorted)
    /// list on every player — it defines the combiner rotation.
    pub fn new(
        scheme: ThresholdScheme,
        params: ThresholdParams,
        public_key: PublicKey,
        vks: BTreeMap<u32, VerificationKey>,
        share: KeyShare,
        mut signer_ids: Vec<PlayerId>,
    ) -> Self {
        signer_ids.sort_unstable();
        let id = share.index;
        MuxSignerPlayer {
            scheme,
            params,
            public_key,
            vks,
            share,
            signer_ids,
            id,
            sessions: BTreeMap::new(),
            shutdown: false,
        }
    }

    fn absorb(&mut self, inbox: &[Delivered<MuxMessage>]) {
        for d in inbox {
            // Decode-validate-then-process: malformed frames are ignored
            // like lost ones; invalid partials are discarded after
            // Share-Verify.
            match &d.msg {
                Ok(MuxMessage::Open { session, msg }) if d.broadcast => {
                    if self.sessions.contains_key(session) {
                        continue;
                    }
                    let own_partial = self.scheme.share_sign(&self.share, msg);
                    let mut collected = BTreeMap::new();
                    if combiner_of(&self.signer_ids, *session) == self.id {
                        collected.insert(self.id, own_partial);
                    }
                    self.sessions.insert(
                        *session,
                        MuxSession {
                            msg: msg.clone(),
                            own_partial,
                            collected,
                            broadcasted: false,
                            done: None,
                        },
                    );
                }
                Ok(MuxMessage::Partial { session, psig }) if !d.broadcast => {
                    let combiner = combiner_of(&self.signer_ids, *session);
                    if combiner != self.id || psig.index != d.from {
                        continue;
                    }
                    let Some(state) = self.sessions.get_mut(session) else {
                        continue;
                    };
                    if state.done.is_none()
                        && self
                            .vks
                            .get(&psig.index)
                            .is_some_and(|vk| self.scheme.share_verify(vk, &state.msg, psig))
                    {
                        state.collected.insert(psig.index, *psig);
                    }
                }
                Ok(MuxMessage::Done { session, sig }) if d.broadcast => {
                    if let Some(state) = self.sessions.get_mut(session) {
                        if state.done.is_none()
                            && self.scheme.verify(&self.public_key, &state.msg, sig)
                        {
                            state.done = Some(*sig);
                        }
                    }
                }
                Ok(MuxMessage::Shutdown) if d.broadcast => self.shutdown = true,
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
            let signatures = self
                .sessions
                .iter()
                .filter_map(|(s, st)| st.done.map(|sig| (*s, sig)))
                .collect();
            return RoundAction::Finish(MuxOutcome {
                signatures,
                high_water: 0,
                latencies: BTreeMap::new(),
            });
        }
        let mut out = Vec::new();
        let quorum = self.params.reconstruction_size();
        for (session, state) in self.sessions.iter_mut() {
            if state.done.is_some() {
                continue;
            }
            let combiner = combiner_of(&self.signer_ids, *session);
            if combiner == self.id {
                if !state.broadcasted && state.collected.len() >= quorum {
                    let partials: Vec<PartialSignature> =
                        state.collected.values().copied().collect();
                    let sig = self
                        .scheme
                        .combine(&self.params, &partials)
                        .expect("collected >= t+1 verified partials");
                    state.broadcasted = true;
                    out.push(Outgoing {
                        to: Recipient::Broadcast,
                        msg: MuxMessage::Done {
                            session: *session,
                            sig,
                        },
                    });
                }
            } else {
                // Retransmit until this session's Done arrives.
                out.push(Outgoing {
                    to: Recipient::Private(combiner),
                    msg: MuxMessage::Partial {
                        session: *session,
                        psig: state.own_partial,
                    },
                });
            }
        }
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
                signatures: std::mem::take(&mut self.done),
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
    fn sign_message_wire_roundtrip() {
        let (scheme, km) = setup();
        let p = scheme.share_sign(&km.shares[&2], b"wire");
        let partials: Vec<PartialSignature> = [1u32, 2]
            .iter()
            .map(|i| scheme.share_sign(&km.shares[i], b"wire"))
            .collect();
        let sig = scheme.combine(&km.params, &partials).unwrap();
        for msg in [SignMessage::Partial(p), SignMessage::Combined(sig)] {
            let enc = msg.encode();
            assert_eq!(SignMessage::decode_exact(&enc).unwrap(), msg);
        }
        assert!(matches!(
            SignMessage::decode_exact(&[7]),
            Err(CodecError::InvalidTag(7))
        ));
    }

    #[test]
    fn lockstep_and_channel_sign_identically() {
        let (scheme, km) = setup();
        let msg = b"network signing";
        let (out_l, m_l) = run_threshold_sign(
            &scheme,
            &km,
            msg,
            &[1, 2, 3],
            1,
            &TransportKind::Lockstep,
            10,
        )
        .unwrap();
        let (out_c, m_c) = run_threshold_sign(
            &scheme,
            &km,
            msg,
            &[1, 2, 3],
            1,
            &TransportKind::Channel(DeliveryPolicy::reliable()),
            10,
        )
        .unwrap();
        assert_eq!(out_l, out_c);
        assert!(m_l.same_traffic(&m_c));
        for sig in out_l.values() {
            assert!(scheme.verify(&km.public_key, msg, sig));
        }
        // Signature uniqueness: every player holds the same signature.
        let first = out_l.values().next().unwrap();
        assert!(out_l.values().all(|s| s == first));
    }

    #[test]
    fn signing_survives_heavy_private_loss() {
        let (scheme, km) = setup();
        let msg = b"lossy signing";
        let policy = DeliveryPolicy::lossy(0xbad5eed, 0.5);
        let (out, metrics) = run_threshold_sign(
            &scheme,
            &km,
            msg,
            &[1, 2, 3, 4],
            2,
            &TransportKind::Channel(policy),
            60,
        )
        .unwrap();
        assert_eq!(out.len(), 4);
        for sig in out.values() {
            assert!(scheme.verify(&km.public_key, msg, sig));
        }
        // Loss-free baseline: 3 partials in round 0, the same 3
        // retransmitted in round 1 plus the combined broadcast, finish
        // in round 2 — 7 messages over 3 rounds.
        assert!(metrics.messages >= 7);
    }

    #[test]
    fn retransmission_carries_signing_through_a_combiner_outage() {
        // The combiner's links are down for the first three rounds, so
        // *only* the per-round retransmission of partial signatures can
        // ever assemble the quorum — a broken retransmission path fails
        // this test with RoundLimitExceeded.
        let (scheme, km) = setup();
        let msg = b"outage signing";
        let policy = DeliveryPolicy {
            outages: vec![borndist_net::Outage {
                player: 2,
                from_round: 0,
                until_round: 3,
            }],
            ..DeliveryPolicy::default()
        };
        let (out, metrics) = run_threshold_sign(
            &scheme,
            &km,
            msg,
            &[1, 2, 3, 4],
            2,
            &TransportKind::Channel(policy),
            60,
        )
        .unwrap();
        assert_eq!(out.len(), 4);
        for sig in out.values() {
            assert!(scheme.verify(&km.public_key, msg, sig));
        }
        // Partials first arrive in round 3, combine in round 4 at the
        // earliest: strictly more traffic and rounds than the loss-free
        // baseline (7 messages, 3 rounds).
        assert!(metrics.total_rounds > 3);
        assert!(metrics.messages > 7);
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
}
