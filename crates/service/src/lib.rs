//! # borndist-service
//!
//! The threshold-signing **daemon**: the paper's schemes deployed as `N`
//! long-running OS processes plus a front-end, talking over real TCP
//! sockets (DESIGN.md §2 "Socket transport & the signing daemon").
//!
//! Lifecycle of a deployment:
//!
//! 1. **Birth** — the `N` player processes run Pedersen's DKG (§3.1)
//!    over a [`borndist_net::ReactorTransport`] mesh; no process ever
//!    holds the key.
//! 2. **Ready** — each player joins a second mesh that includes the
//!    front-end and ships it a [`ServiceMessage::Ready`] carrying the
//!    public key and that player's local DKG traffic metrics; the
//!    front-end merges them ([`borndist_net::Metrics::merge`]) into the
//!    same global view an in-process transport would have metered.
//! 3. **Serve** — the front-end accepts framed [`ClientRequest`]s on a
//!    client socket and drives concurrent `core::netsign` mux sessions,
//!    bounded by `max_in_flight` (backpressure); combined signatures
//!    stream back as [`ClientResponse::Signed`].
//! 4. **Shutdown** — a [`ClientRequest::Shutdown`] drains in-flight
//!    sessions, closes the mesh, and answers with a final
//!    [`ClientResponse::Summary`] (public key, merged DKG metrics,
//!    high-water mark) for audit gates.
//!
//! The `smoke` mode wires all of the above together: it spawns the
//! player and front-end processes, replays the same DKG in-process over
//! [`borndist_net::TransportKind::Channel`], and asserts the merged
//! cross-process metrics are **byte-identical**
//! ([`borndist_net::Metrics::same_traffic`]) — the CI gate that the TCP
//! path is the same protocol, not a lookalike.

use borndist_core::aggregate::AggPublicKey;
use borndist_core::gateway::{AggregationGateway, GatewayStats, VerifyRequest};
use borndist_core::netsign::{MuxCoordinator, MuxMessage, MuxOutcome, MuxSignerPlayer};
use borndist_core::ro::{KeyMaterial, PublicKey, Signature, ThresholdScheme};
use borndist_net::{
    CodecError, Delivered, LatencySummary, Metrics, Outgoing, PlayerId, Protocol, Recipient,
    RoundAction, TransportStats, Wire,
};
use borndist_shamir::ThresholdParams;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::mpsc;

pub mod daemon;

/// Round budget for the DKG mesh (deal, complain, answer, finalize,
/// plus finish slack — matches the in-process drivers).
pub const DKG_ROUND_BUDGET: usize = 8;

/// Round budget for the signing mesh. Rounds are cheap (an idle round
/// is one `EndRound` marker per link and a 1 ms coordinator sleep), so
/// this bounds a daemon's lifetime at roughly `100_000` idle-ish
/// rounds rather than any meaningful work limit.
pub const SIGN_ROUND_BUDGET: usize = 100_000;

/// Largest accepted client frame (requests carry raw messages to sign).
pub const MAX_CLIENT_FRAME: usize = 16 << 20;

// ---------------------------------------------------------------------
// Service mesh protocol: Ready handoff + multiplexed signing.
// ---------------------------------------------------------------------

const TAG_READY: u8 = 0;
const TAG_MUX: u8 = 1;

/// Wire message of the signing mesh (players `1..=n` plus the
/// front-end at id `n+1`).
//
// `Ready` dominates the enum size (a public key plus a full `Metrics`
// snapshot), but it crosses the wire only during the one-shot handoff
// after DKG; boxing it would complicate the `Wire` impl for no steady-
// state gain.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum ServiceMessage {
    /// Player → front-end (private): the DKG finished; here is the
    /// public key and this player's local traffic view. Retransmitted
    /// until the front-end's first broadcast proves receipt.
    Ready {
        /// The jointly generated public key.
        public_key: PublicKey,
        /// This player's sender-side DKG metrics (merged by the
        /// front-end into the global view).
        dkg_metrics: Metrics,
        /// This player's DKG-mesh socket counters (summed by the
        /// front-end into the deployment aggregate).
        dkg_transport: TransportStats,
    },
    /// A multiplexed-signing message, verbatim.
    Mux(MuxMessage),
}

impl Wire for ServiceMessage {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            ServiceMessage::Ready {
                public_key,
                dkg_metrics,
                dkg_transport,
            } => {
                out.push(TAG_READY);
                public_key.encode_to(out);
                dkg_metrics.encode_to(out);
                dkg_transport.encode_to(out);
            }
            ServiceMessage::Mux(m) => {
                out.push(TAG_MUX);
                m.encode_to(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            TAG_READY => Ok(ServiceMessage::Ready {
                public_key: PublicKey::decode(input)?,
                dkg_metrics: Metrics::decode(input)?,
                dkg_transport: TransportStats::decode(input)?,
            }),
            TAG_MUX => Ok(ServiceMessage::Mux(MuxMessage::decode(input)?)),
            tag => Err(CodecError::InvalidTag(tag)),
        }
    }
}

/// What the front-end learned from the `Ready` handoff.
#[derive(Clone, Debug)]
pub struct ReadyInfo {
    /// The public key a strict majority of the players reported.
    pub public_key: PublicKey,
    /// All players' DKG metrics merged into the global traffic view.
    pub dkg_metrics: Metrics,
    /// All players' DKG-mesh socket counters summed into a deployment
    /// aggregate.
    pub dkg_transport: TransportStats,
}

/// Per-node output of a signing-mesh run.
#[derive(Debug, Default)]
pub struct ServiceOutcome {
    /// The multiplexed-signing outcome (the front-end's carries the
    /// verified signatures and the backpressure high-water mark; a
    /// player's only counts the sessions it saw finish).
    pub mux: MuxOutcome,
    /// Front-end only: the merged `Ready` information.
    pub ready: Option<ReadyInfo>,
}

fn mux_inbox(inbox: &[Delivered<ServiceMessage>]) -> Vec<Delivered<MuxMessage>> {
    inbox
        .iter()
        .filter_map(|d| match &d.msg {
            Ok(ServiceMessage::Mux(m)) => Some(Delivered {
                from: d.from,
                broadcast: d.broadcast,
                msg: Ok(m.clone()),
            }),
            Ok(ServiceMessage::Ready { .. }) => None,
            // Malformed frames propagate so the inner protocol applies
            // its own decode-validate-then-process discipline.
            Err(e) => Some(Delivered {
                from: d.from,
                broadcast: d.broadcast,
                msg: Err(*e),
            }),
        })
        .collect()
}

fn wrap_mux(out: Vec<Outgoing<MuxMessage>>) -> Vec<Outgoing<ServiceMessage>> {
    out.into_iter()
        .map(|o| Outgoing {
            to: o.to,
            msg: ServiceMessage::Mux(o.msg),
        })
        .collect()
}

/// One signing node of the daemon: a [`MuxSignerPlayer`] that first
/// hands its DKG result to the front-end.
pub struct ServicePlayer {
    inner: MuxSignerPlayer,
    id: PlayerId,
    frontend: PlayerId,
    /// `Ready` payload, retransmitted every round until any frame from
    /// the front-end arrives (its first `Open`/`Shutdown` broadcast
    /// proves the handoff landed — it only opens sessions once all
    /// `Ready`s are in).
    ready: Option<(PublicKey, Metrics, TransportStats)>,
}

impl ServicePlayer {
    /// Builds the signing node for player `id` of an `n`-player
    /// deployment from its assembled key material. The front-end sits
    /// at id `n+1`.
    pub fn new(
        scheme: ThresholdScheme,
        km: &KeyMaterial,
        id: PlayerId,
        dkg_metrics: Metrics,
        dkg_transport: TransportStats,
    ) -> Self {
        let n = km.params.n as PlayerId;
        let signer_ids: Vec<PlayerId> = (1..=n).collect();
        let inner = MuxSignerPlayer::new(
            scheme,
            km.params,
            km.public_key.clone(),
            km.verification_keys.clone(),
            km.shares[&id].clone(),
            signer_ids,
        );
        ServicePlayer {
            inner,
            id,
            frontend: n + 1,
            ready: Some((km.public_key.clone(), dkg_metrics, dkg_transport)),
        }
    }
}

impl Protocol for ServicePlayer {
    type Message = ServiceMessage;
    type Output = ServiceOutcome;

    fn round(
        &mut self,
        round: usize,
        inbox: &[Delivered<ServiceMessage>],
    ) -> RoundAction<ServiceMessage, ServiceOutcome> {
        if inbox.iter().any(|d| d.from == self.frontend) {
            self.ready = None;
        }
        match self.inner.round(round, &mux_inbox(inbox)) {
            RoundAction::Continue(out) => {
                let mut out = wrap_mux(out);
                if let Some((public_key, dkg_metrics, dkg_transport)) = self.ready.clone() {
                    out.push(Outgoing {
                        to: Recipient::Private(self.frontend),
                        msg: ServiceMessage::Ready {
                            public_key,
                            dkg_metrics,
                            dkg_transport,
                        },
                    });
                }
                RoundAction::Continue(out)
            }
            RoundAction::Finish(mux) => RoundAction::Finish(ServiceOutcome { mux, ready: None }),
        }
    }

    fn id(&self) -> PlayerId {
        self.id
    }
}

/// Where the front-end's signing requests come from.
enum CoordinatorSource {
    /// A fixed queue — deterministic runs for tests and benchmarks.
    Queue(Vec<(u64, Vec<u8>)>),
    /// Live channels — the daemon path.
    Live {
        intake: mpsc::Receiver<(u64, Vec<u8>)>,
        completed: mpsc::Sender<(u64, Signature)>,
    },
}

/// The daemon front-end as a protocol player: waits for every player's
/// [`ServiceMessage::Ready`], merges the DKG metrics, then runs a
/// [`MuxCoordinator`] over the public key a strict majority reported.
pub struct ServiceCoordinator {
    id: PlayerId,
    n: usize,
    scheme: ThresholdScheme,
    max_in_flight: usize,
    source: Option<CoordinatorSource>,
    ready: BTreeMap<PlayerId, (PublicKey, Metrics, TransportStats)>,
    inner: Option<MuxCoordinator>,
    info: Option<ReadyInfo>,
}

impl ServiceCoordinator {
    fn base(n: usize, scheme: ThresholdScheme, max_in_flight: usize) -> Self {
        ServiceCoordinator {
            id: n as PlayerId + 1,
            n,
            scheme,
            max_in_flight,
            source: None,
            ready: BTreeMap::new(),
            inner: None,
            info: None,
        }
    }

    /// Front-end with a fixed request queue (deterministic).
    pub fn with_requests(
        n: usize,
        scheme: ThresholdScheme,
        max_in_flight: usize,
        requests: Vec<(u64, Vec<u8>)>,
    ) -> Self {
        let mut c = Self::base(n, scheme, max_in_flight);
        c.source = Some(CoordinatorSource::Queue(requests));
        c
    }

    /// Front-end fed by live channels (the daemon path): requests
    /// arrive on `intake` until its sender is dropped; every combined
    /// signature is pushed into `completed`.
    pub fn with_intake(
        n: usize,
        scheme: ThresholdScheme,
        max_in_flight: usize,
        intake: mpsc::Receiver<(u64, Vec<u8>)>,
        completed: mpsc::Sender<(u64, Signature)>,
    ) -> Self {
        let mut c = Self::base(n, scheme, max_in_flight);
        c.source = Some(CoordinatorSource::Live { intake, completed });
        c
    }

    fn absorb_ready(&mut self, inbox: &[Delivered<ServiceMessage>]) {
        for d in inbox {
            if let Ok(ServiceMessage::Ready {
                public_key,
                dkg_metrics,
                dkg_transport,
            }) = &d.msg
            {
                if !d.broadcast && d.from >= 1 && d.from <= self.n as PlayerId {
                    self.ready.entry(d.from).or_insert_with(|| {
                        (public_key.clone(), dkg_metrics.clone(), *dkg_transport)
                    });
                }
            }
        }
        if self.inner.is_none() && self.ready.len() == self.n {
            // With n >= 2t+1 and at most t faulty, the honest players are
            // a strict majority and all hold the one DKG key. Without a
            // majority, keep waiting: the run ends at the round limit.
            let reports = || self.ready.values().map(|(pk, _, _)| pk);
            let Some(key) = reports()
                .find(|pk| reports().filter(|other| other == pk).count() * 2 > self.n)
                .cloned()
            else {
                return;
            };
            let merged = Metrics::merge(self.ready.values().map(|(_, m, _)| m));
            let mut transport = TransportStats::default();
            for (_, _, t) in self.ready.values() {
                transport.absorb(t);
            }
            self.info = Some(ReadyInfo {
                public_key: key.clone(),
                dkg_metrics: merged,
                dkg_transport: transport,
            });
            let inner = match self.source.take().expect("source consumed once") {
                CoordinatorSource::Queue(requests) => MuxCoordinator::with_requests(
                    self.id,
                    self.scheme.clone(),
                    key,
                    self.max_in_flight,
                    requests,
                ),
                CoordinatorSource::Live { intake, completed } => MuxCoordinator::with_intake(
                    self.id,
                    self.scheme.clone(),
                    key,
                    self.max_in_flight,
                    intake,
                    completed,
                ),
            };
            self.inner = Some(inner);
        }
    }
}

impl Protocol for ServiceCoordinator {
    type Message = ServiceMessage;
    type Output = ServiceOutcome;

    fn round(
        &mut self,
        round: usize,
        inbox: &[Delivered<ServiceMessage>],
    ) -> RoundAction<ServiceMessage, ServiceOutcome> {
        self.absorb_ready(inbox);
        let Some(inner) = self.inner.as_mut() else {
            // Still waiting for the mesh to report Ready.
            return RoundAction::Continue(Vec::new());
        };
        match inner.round(round, &mux_inbox(inbox)) {
            RoundAction::Continue(out) => RoundAction::Continue(wrap_mux(out)),
            RoundAction::Finish(mux) => RoundAction::Finish(ServiceOutcome {
                mux,
                ready: self.info.take(),
            }),
        }
    }

    fn id(&self) -> PlayerId {
        self.id
    }
}

// ---------------------------------------------------------------------
// Client protocol: framed request/response over the front-end socket.
// ---------------------------------------------------------------------

const TAG_SIGN: u8 = 0;
const TAG_CLIENT_SHUTDOWN: u8 = 1;
const TAG_VERIFY: u8 = 2;
const TAG_SIGNED: u8 = 0;
const TAG_SUMMARY: u8 = 1;
const TAG_VERIFIED: u8 = 2;

/// A client → front-end frame.
// `Verify` dominates the enum size (an inline `AggPublicKey` is two G2
// plus two G1 points); boxing it would cost an allocation per request on
// the daemon's hot intake path just to shrink the transient decode value.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientRequest {
    /// Sign `msg`; the signature comes back tagged with `id`.
    Sign {
        /// Client-chosen request id (the mux session id).
        id: u64,
        /// The message to threshold-sign.
        msg: Vec<u8>,
    },
    /// Verify `sig` over `msg` under the aggregate-capable key `pk`.
    /// Routed through the front-end's [`AggregationGateway`]: answered
    /// (as [`ClientResponse::Verified`]) when the gateway's buffer for
    /// `epoch` flushes, not per request — one amortized multi-pairing
    /// covers the whole buffer.
    ///
    /// [`AggregationGateway`]: borndist_core::gateway::AggregationGateway
    Verify {
        /// Client-chosen request id.
        id: u64,
        /// Proactive epoch; the gateway never folds across epochs.
        epoch: u64,
        /// The (self-certifying) public key.
        pk: AggPublicKey,
        /// The signed message.
        msg: Vec<u8>,
        /// The signature to verify.
        sig: Signature,
    },
    /// Drain in-flight sessions, close the mesh, answer with a
    /// [`ClientResponse::Summary`], and exit.
    Shutdown,
}

impl Wire for ClientRequest {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            ClientRequest::Sign { id, msg } => {
                out.push(TAG_SIGN);
                id.encode_to(out);
                msg.encode_to(out);
            }
            ClientRequest::Verify {
                id,
                epoch,
                pk,
                msg,
                sig,
            } => {
                out.push(TAG_VERIFY);
                id.encode_to(out);
                epoch.encode_to(out);
                pk.encode_to(out);
                msg.encode_to(out);
                sig.encode_to(out);
            }
            ClientRequest::Shutdown => out.push(TAG_CLIENT_SHUTDOWN),
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            TAG_SIGN => Ok(ClientRequest::Sign {
                id: u64::decode(input)?,
                msg: Vec::<u8>::decode(input)?,
            }),
            TAG_VERIFY => Ok(ClientRequest::Verify {
                id: u64::decode(input)?,
                epoch: u64::decode(input)?,
                pk: AggPublicKey::decode(input)?,
                msg: Vec::<u8>::decode(input)?,
                sig: Signature::decode(input)?,
            }),
            TAG_CLIENT_SHUTDOWN => Ok(ClientRequest::Shutdown),
            tag => Err(CodecError::InvalidTag(tag)),
        }
    }
}

/// A front-end → client frame.
//
// `Summary` dominates the enum size (public key + merged `Metrics`) but
// is sent exactly once, as the final frame of a connection; boxing it
// would complicate the `Wire` impl for no steady-state gain.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum ClientResponse {
    /// Request `id` completed with this combined signature.
    Signed {
        /// The request this signature answers.
        id: u64,
        /// The unique combined signature.
        sig: Signature,
    },
    /// Request `id` was judged by the verification gateway.
    Verified {
        /// The request this verdict answers.
        id: u64,
        /// The request's epoch.
        epoch: u64,
        /// `true` iff the signature verifies under its (valid) key.
        valid: bool,
    },
    /// Final frame after a shutdown: the audit summary.
    Summary {
        /// The deployment's public key.
        public_key: PublicKey,
        /// Global DKG traffic metrics, merged from every player's
        /// local view.
        dkg_metrics: Metrics,
        /// Backpressure high-water mark (peak concurrent sessions).
        high_water: u64,
        /// Number of signing requests served.
        served: u64,
        /// Number of verification requests answered by the gateway.
        verified: u64,
        /// Per-request enqueue → combined-signature wall-clock
        /// percentiles for the signing path (includes backpressure
        /// queueing).
        sign_latency: LatencySummary,
        /// Per-request receive → verdict wall-clock percentiles for the
        /// verification gateway path.
        verify_latency: LatencySummary,
        /// Deployment-wide socket counters: every player's DKG-mesh
        /// stats (carried by [`ServiceMessage::Ready`]) plus the
        /// front-end's own signing-mesh stats, summed.
        transport: TransportStats,
    },
}

impl Wire for ClientResponse {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            ClientResponse::Signed { id, sig } => {
                out.push(TAG_SIGNED);
                id.encode_to(out);
                sig.encode_to(out);
            }
            ClientResponse::Verified { id, epoch, valid } => {
                out.push(TAG_VERIFIED);
                id.encode_to(out);
                epoch.encode_to(out);
                out.push(u8::from(*valid));
            }
            ClientResponse::Summary {
                public_key,
                dkg_metrics,
                high_water,
                served,
                verified,
                sign_latency,
                verify_latency,
                transport,
            } => {
                out.push(TAG_SUMMARY);
                public_key.encode_to(out);
                dkg_metrics.encode_to(out);
                high_water.encode_to(out);
                served.encode_to(out);
                verified.encode_to(out);
                sign_latency.encode_to(out);
                verify_latency.encode_to(out);
                transport.encode_to(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            TAG_SIGNED => Ok(ClientResponse::Signed {
                id: u64::decode(input)?,
                sig: Signature::decode(input)?,
            }),
            TAG_VERIFIED => Ok(ClientResponse::Verified {
                id: u64::decode(input)?,
                epoch: u64::decode(input)?,
                valid: match u8::decode(input)? {
                    0 => false,
                    1 => true,
                    tag => return Err(CodecError::InvalidTag(tag)),
                },
            }),
            TAG_SUMMARY => Ok(ClientResponse::Summary {
                public_key: PublicKey::decode(input)?,
                dkg_metrics: Metrics::decode(input)?,
                high_water: u64::decode(input)?,
                served: u64::decode(input)?,
                verified: u64::decode(input)?,
                sign_latency: LatencySummary::decode(input)?,
                verify_latency: LatencySummary::decode(input)?,
                transport: TransportStats::decode(input)?,
            }),
            tag => Err(CodecError::InvalidTag(tag)),
        }
    }
}

/// Writes one `u32`-length-prefixed [`Wire`] frame with a single
/// `write_all`: prefix and payload handed over separately are two TCP
/// segments, and the second waits out the peer's delayed ACK.
pub fn write_frame<T: Wire, W: Write>(w: &mut W, value: &T) -> std::io::Result<()> {
    let mut frame = vec![0u8; 4];
    value.encode_to(&mut frame);
    let len = u32::try_from(frame.len() - 4)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    frame[..4].copy_from_slice(&len.to_be_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one `u32`-length-prefixed [`Wire`] frame (strict decode: the
/// payload must consume exactly the declared length).
pub fn read_frame<T: Wire, R: Read>(r: &mut R) -> std::io::Result<T> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_CLIENT_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "client frame of {} bytes exceeds cap {}",
                len, MAX_CLIENT_FRAME
            ),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    T::decode_exact(&buf).map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad frame: {}", e))
    })
}

// ---------------------------------------------------------------------
// Gateway worker: the verification front door's serving loop.
// ---------------------------------------------------------------------

/// How long an idle gateway worker sleeps when no buffer has a pending
/// deadline.
const GATEWAY_IDLE_TICK: std::time::Duration = std::time::Duration::from_millis(20);

/// Serves an [`AggregationGateway`] from a request channel: submissions
/// drive size/epoch flushes, the gap between arrivals drives deadline
/// flushes, and channel close drains everything left. Each
/// [`borndist_core::gateway::Verdict`] goes out as a
/// [`ClientResponse::Verified`]. Returns the gateway's final stats.
///
/// This is the one serving loop — the daemon front-end runs it on a
/// thread against the client socket's reader, and the in-process load
/// harness runs it against its generator channel, so both measure the
/// same code path.
pub fn run_gateway_worker<R: rand::RngCore>(
    mut gateway: AggregationGateway<R>,
    intake: mpsc::Receiver<VerifyRequest>,
    responses: mpsc::Sender<ClientResponse>,
) -> GatewayStats {
    let emit = |verdicts: Vec<borndist_core::gateway::Verdict>,
                responses: &mpsc::Sender<ClientResponse>| {
        for v in verdicts {
            // A closed response channel means the client is gone; keep
            // draining so the stats stay complete.
            let _ = responses.send(ClientResponse::Verified {
                id: v.id,
                epoch: v.epoch,
                valid: v.valid,
            });
        }
    };
    loop {
        let timeout = gateway
            .next_deadline()
            .map(|d| d.saturating_duration_since(std::time::Instant::now()))
            .unwrap_or(GATEWAY_IDLE_TICK);
        match intake.recv_timeout(timeout) {
            Ok(req) => emit(gateway.submit(req), &responses),
            Err(mpsc::RecvTimeoutError::Timeout) => emit(gateway.poll(), &responses),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                emit(gateway.flush_all(), &responses);
                return *gateway.stats();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Deployment topology shared by every mode.
// ---------------------------------------------------------------------

/// Everything the processes of one deployment must agree on.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Threshold parameters `(t, n)`.
    pub params: ThresholdParams,
    /// Shared DKG seed (per-player RNGs derive from it).
    pub seed: u64,
    /// Hash-domain tag; all processes must use the same one.
    pub domain: Vec<u8>,
    /// DKG mesh: player `i` listens on `127.0.0.1:dkg_base + i`.
    pub dkg_base: u16,
    /// Signing mesh: node `i` (players and the front-end at `n+1`)
    /// listens on `127.0.0.1:sign_base + i`.
    pub sign_base: u16,
    /// Backpressure bound on concurrently open signing sessions.
    pub max_in_flight: usize,
}

impl Topology {
    /// Socket address of node `id` on the mesh rooted at `base`.
    pub fn addr(base: u16, id: PlayerId) -> std::net::SocketAddr {
        std::net::SocketAddr::from(([127, 0, 0, 1], base + id as u16))
    }

    /// Peer map for node `me` over the ids `1..=count` at `base`.
    pub fn peers(base: u16, me: PlayerId, count: u32) -> BTreeMap<PlayerId, std::net::SocketAddr> {
        (1..=count)
            .filter(|id| *id != me)
            .map(|id| (id, Self::addr(base, id)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borndist_net::{run_protocol, BoxedPlayer, DeliveryPolicy, TransportKind};

    fn mesh(
        n: usize,
        t: usize,
        seed: u64,
        requests: Vec<(u64, Vec<u8>)>,
        max_in_flight: usize,
    ) -> (
        ThresholdScheme,
        PublicKey,
        Vec<BoxedPlayer<ServiceMessage, ServiceOutcome>>,
    ) {
        let scheme = ThresholdScheme::new(b"service-mesh-test");
        let params = ThresholdParams::new(t, n).unwrap();
        let (km, dkg_metrics) = scheme
            .keygen_session(params, &BTreeMap::new(), seed, &TransportKind::Lockstep)
            .unwrap();
        let mut players: Vec<BoxedPlayer<ServiceMessage, ServiceOutcome>> = (1..=n as PlayerId)
            .map(|id| {
                Box::new(ServicePlayer::new(
                    scheme.clone(),
                    &km,
                    id,
                    dkg_metrics.clone(),
                    TransportStats::default(),
                )) as _
            })
            .collect();
        players.push(Box::new(ServiceCoordinator::with_requests(
            n,
            scheme.clone(),
            max_in_flight,
            requests,
        )) as _);
        (scheme, km.public_key, players)
    }

    /// Replaces player `id` of a `t = 1` mesh with a node of another
    /// committee (the same one on every call): its `Ready` carries a
    /// foreign key and its partials a foreign share.
    fn make_foreign(
        scheme: &ThresholdScheme,
        players: &mut [BoxedPlayer<ServiceMessage, ServiceOutcome>],
        id: PlayerId,
    ) -> PublicKey {
        let params = ThresholdParams::new(1, players.len() - 1).unwrap();
        let (km, metrics) = scheme
            .keygen_session(params, &BTreeMap::new(), 99, &TransportKind::Lockstep)
            .unwrap();
        players[id as usize - 1] = Box::new(ServicePlayer::new(
            scheme.clone(),
            &km,
            id,
            metrics,
            TransportStats::default(),
        ));
        km.public_key
    }

    #[test]
    fn service_message_roundtrips() {
        let scheme = ThresholdScheme::new(b"svc-wire");
        let params = ThresholdParams::new(1, 3).unwrap();
        let (km, metrics) = scheme
            .keygen_session(params, &BTreeMap::new(), 5, &TransportKind::Lockstep)
            .unwrap();
        let ready = ServiceMessage::Ready {
            public_key: km.public_key.clone(),
            dkg_metrics: metrics,
            dkg_transport: TransportStats {
                connections_high_water: 2,
                frames_in: 10,
                frames_out: 12,
                partial_read_resumptions: 1,
            },
        };
        match ServiceMessage::decode_exact(&ready.encode()).unwrap() {
            ServiceMessage::Ready { public_key, .. } => assert_eq!(public_key, km.public_key),
            other => panic!("wrong variant: {:?}", other),
        }
        let mux = ServiceMessage::Mux(MuxMessage::Open {
            session: 9,
            msg: b"m".to_vec(),
        });
        assert!(matches!(
            ServiceMessage::decode_exact(&mux.encode()).unwrap(),
            ServiceMessage::Mux(MuxMessage::Open { session: 9, .. })
        ));
        assert!(ServiceMessage::decode_exact(&[7u8]).is_err());
    }

    #[test]
    fn client_frames_roundtrip() {
        let req = ClientRequest::Sign {
            id: 42,
            msg: b"pay alice".to_vec(),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let back: ClientRequest = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, req);

        let mut buf = Vec::new();
        write_frame(&mut buf, &ClientRequest::Shutdown).unwrap();
        assert_eq!(
            read_frame::<ClientRequest, _>(&mut buf.as_slice()).unwrap(),
            ClientRequest::Shutdown
        );

        // Oversized declared length is rejected before allocation.
        let huge = (MAX_CLIENT_FRAME as u32 + 1).to_be_bytes();
        assert!(read_frame::<ClientRequest, _>(&mut huge.as_slice()).is_err());
    }

    #[test]
    fn a_frame_is_one_write() {
        /// Counts `write` calls; accepts whatever it is handed.
        #[derive(Default)]
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let req = ClientRequest::Sign {
            id: 7,
            msg: b"one segment".to_vec(),
        };
        let mut w = CountingWriter::default();
        write_frame(&mut w, &req).unwrap();
        assert_eq!(w.writes, 1);
        let payload = req.encode();
        let mut expected = (payload.len() as u32).to_be_bytes().to_vec();
        expected.extend_from_slice(&payload);
        assert_eq!(w.bytes, expected);
        write_frame(&mut w, &ClientRequest::Shutdown).unwrap();
        assert_eq!(w.writes, 2);
    }

    #[test]
    fn mesh_serves_requests_and_reports_merged_metrics() {
        let requests: Vec<(u64, Vec<u8>)> = (0..10u64)
            .map(|i| (i, format!("req {}", i).into_bytes()))
            .collect();
        let (scheme, _, players) = mesh(4, 1, 11, requests.clone(), 3);
        let (outputs, _) = run_protocol(
            &TransportKind::Channel(DeliveryPolicy::reliable()),
            players,
            10_000,
        )
        .unwrap();
        let frontend = &outputs[&5];
        let info = frontend.ready.as_ref().expect("frontend learned the key");
        assert_eq!(frontend.mux.signatures.len(), requests.len());
        assert!(frontend.mux.high_water <= 3);
        for (id, msg) in &requests {
            assert!(scheme.verify(&info.public_key, msg, &frontend.mux.signatures[id]));
        }
        // The merged DKG view counts every player's sends: n players'
        // local metrics merged by the coordinator must equal n times
        // one player's traffic only in aggregate — here we just check
        // the merge saw all four players.
        assert_eq!(info.dkg_metrics.bytes_by_player.len(), 4);
    }

    #[test]
    fn ready_handoff_survives_private_loss() {
        // 30% private drop: Ready frames (private) get lost; the
        // retransmit-until-acked rule must still converge.
        let requests = vec![(1u64, b"lossy ready".to_vec())];
        let (scheme, _, players) = mesh(4, 1, 13, requests, 2);
        let (outputs, _) = run_protocol(
            &TransportKind::Channel(DeliveryPolicy::lossy(0xfeed, 0.3)),
            players,
            10_000,
        )
        .unwrap();
        let frontend = &outputs[&5];
        let info = frontend.ready.as_ref().expect("Ready got through");
        assert!(scheme.verify(
            &info.public_key,
            b"lossy ready",
            &frontend.mux.signatures[&1]
        ));
    }

    #[test]
    fn a_foreign_ready_key_is_outvoted_by_the_majority() {
        let requests = vec![(1u64, b"outvoted".to_vec())];
        let (scheme, key, mut players) = mesh(4, 1, 17, requests, 2);
        let foreign = make_foreign(&scheme, &mut players, 4);
        assert_ne!(foreign, key);
        let (outputs, _) = run_protocol(&TransportKind::Lockstep, players, 10_000).unwrap();
        let frontend = &outputs[&5];
        assert_eq!(frontend.ready.as_ref().unwrap().public_key, key);
        assert!(scheme.verify(&key, b"outvoted", &frontend.mux.signatures[&1]));
    }

    #[test]
    fn ready_keys_without_a_majority_end_at_the_round_limit() {
        let (scheme, _, mut players) = mesh(4, 1, 19, vec![(1, b"split".to_vec())], 2);
        make_foreign(&scheme, &mut players, 3);
        make_foreign(&scheme, &mut players, 4);
        let err = run_protocol(&TransportKind::Lockstep, players, 50).unwrap_err();
        assert!(
            matches!(
                err,
                borndist_net::Error::Sim(borndist_net::SimError::RoundLimitExceeded { .. })
            ),
            "{err:?}"
        );
    }
}
