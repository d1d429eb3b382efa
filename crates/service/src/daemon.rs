//! The three process modes of the `borndist-service` binary.
//!
//! * [`run_player`] — one signing node: DKG mesh, key assembly, then
//!   the long-lived signing mesh.
//! * [`run_frontend`] — the front-end: signing mesh plus the framed
//!   client socket.
//! * [`run_smoke`] — the CI gate: spawns a whole deployment as child
//!   processes, pushes signing requests through it, and asserts the
//!   merged cross-process DKG metrics are byte-identical to an
//!   in-process [`borndist_net::TransportKind::Channel`] run of the
//!   same protocol.

use crate::{
    read_frame, run_gateway_worker, write_frame, ClientRequest, ClientResponse, ServiceCoordinator,
    ServiceOutcome, ServicePlayer, Topology, DKG_ROUND_BUDGET, SIGN_ROUND_BUDGET,
};
use borndist_core::aggregate::AggregateScheme;
use borndist_core::gateway::{AggregationGateway, GatewayConfig, VerifyRequest};
use borndist_core::ro::ThresholdScheme;
use borndist_dkg::dkg_players;
use borndist_net::{
    BoxedPlayer, DeliveryPolicy, LatencySummary, Metrics, PlayerId, ReactorTransport, TcpOptions,
    TransportKind, TransportStats, Wire,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;

/// Anything a daemon mode can die of.
#[derive(Debug)]
pub enum ServiceError {
    /// A transport or protocol failure.
    Net(borndist_net::Error),
    /// A socket/process failure outside the mesh.
    Io(std::io::Error),
    /// A lifecycle invariant broke (DKG abort, parity mismatch, bad
    /// child output, ...).
    Protocol(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Net(e) => write!(f, "network: {}", e),
            ServiceError::Io(e) => write!(f, "io: {}", e),
            ServiceError::Protocol(s) => write!(f, "protocol: {}", s),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Net(e) => Some(e),
            ServiceError::Io(e) => Some(e),
            ServiceError::Protocol(_) => None,
        }
    }
}

impl From<borndist_net::Error> for ServiceError {
    fn from(e: borndist_net::Error) -> Self {
        ServiceError::Net(e)
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

fn proto(msg: impl Into<String>) -> ServiceError {
    ServiceError::Protocol(msg.into())
}

/// Joins the mesh described by `peers` and runs `player` on it to
/// completion.
fn run_mesh<M: Wire, O>(
    player: BoxedPlayer<M, O>,
    listen: std::net::SocketAddr,
    peers: std::collections::BTreeMap<PlayerId, std::net::SocketAddr>,
    budget: usize,
) -> Result<(O, Metrics, TransportStats), borndist_net::Error> {
    ReactorTransport::connect(player, listen, peers, TcpOptions::default())?.run_with_stats(budget)
}

/// One signing node, start to finish: DKG over the TCP mesh, local key
/// assembly, then the signing mesh until the front-end shuts the
/// deployment down. Returns the number of sessions this node saw
/// finish.
pub fn run_player(top: &Topology, id: PlayerId) -> Result<usize, ServiceError> {
    let n = top.params.n as PlayerId;
    let scheme = ThresholdScheme::new(&top.domain);
    let cfg = scheme.dkg_config(top.params);

    // Phase 1: Pedersen DKG among the players only (ports dkg_base+i).
    let mut players = dkg_players(&cfg, &BTreeMap::new(), top.seed);
    let me = players.remove(id as usize - 1);
    let (output, dkg_metrics, dkg_transport) = run_mesh(
        me,
        Topology::addr(top.dkg_base, id),
        Topology::peers(top.dkg_base, id, n),
        DKG_ROUND_BUDGET,
    )?;
    let output =
        output.map_err(|abort| proto(format!("player {}: DKG aborted: {:?}", id, abort)))?;
    let km = scheme.key_material_from_output(top.params, id, &output);

    // Phase 2: the signing mesh, now including the front-end at n+1.
    let player = ServicePlayer::new(scheme, &km, id, dkg_metrics, dkg_transport);
    let (outcome, _, _) = run_mesh(
        Box::new(player) as BoxedPlayer<_, ServiceOutcome>,
        Topology::addr(top.sign_base, id),
        Topology::peers(top.sign_base, id, n + 1),
        SIGN_ROUND_BUDGET,
    )?;
    Ok(outcome.mux.finished)
}

/// The front-end: joins the signing mesh as node `n+1`, accepts one
/// framed client connection on `client_listener`, streams back
/// [`ClientResponse::Signed`] and [`ClientResponse::Verified`] frames,
/// and answers the client's [`ClientRequest::Shutdown`] with a final
/// [`ClientResponse::Summary`].
///
/// Signing requests feed the mux coordinator on the mesh; verification
/// requests feed an [`AggregationGateway`] worker thread
/// ([`run_gateway_worker`]) that amortizes whole buffers into single
/// multi-pairings. Both response streams merge into one writer, so
/// frames never interleave mid-write.
///
/// The listener's bound port is announced on stdout as
/// `CLIENT_PORT <port>` so a parent process can connect.
pub fn run_frontend(top: &Topology, client_listener: TcpListener) -> Result<(), ServiceError> {
    let n = top.params.n as PlayerId;
    let scheme = ThresholdScheme::new(&top.domain);

    println!("CLIENT_PORT {}", client_listener.local_addr()?.port());
    std::io::stdout().flush()?;

    let (intake_tx, intake_rx) = mpsc::channel::<(u64, Vec<u8>)>();
    let (completed_tx, completed_rx) = mpsc::channel();
    let coordinator = ServiceCoordinator::with_intake(
        top.params.n,
        scheme,
        top.max_in_flight,
        intake_rx,
        completed_tx,
    );

    // The mesh runs on its own thread; the client socket is served here.
    let mesh = {
        let listen = Topology::addr(top.sign_base, n + 1);
        let peers = Topology::peers(top.sign_base, n + 1, n);
        std::thread::spawn(move || {
            run_mesh(
                Box::new(coordinator) as BoxedPlayer<_, ServiceOutcome>,
                listen,
                peers,
                SIGN_ROUND_BUDGET,
            )
        })
    };

    // The verification gateway on its own worker thread. Weights are
    // batching randomness, not key material, but still should not be
    // replayable across daemon restarts — fold wall-clock and pid into
    // the seed.
    let (responses_tx, responses_rx) = mpsc::channel::<ClientResponse>();
    let (gw_tx, gw_rx) = mpsc::channel::<VerifyRequest>();
    let gateway_worker = {
        let gateway = AggregationGateway::new(
            AggregateScheme::new(&top.domain),
            GatewayConfig::default(),
            StdRng::seed_from_u64(
                std::time::UNIX_EPOCH
                    .elapsed()
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(top.seed)
                    ^ u64::from(std::process::id()),
            ),
        );
        let responses = responses_tx.clone();
        std::thread::spawn(move || run_gateway_worker(gateway, gw_rx, responses))
    };

    // Forward combined signatures into the shared response stream.
    let signed_forwarder = {
        let responses = responses_tx.clone();
        std::thread::spawn(move || {
            for (id, sig) in completed_rx {
                if responses.send(ClientResponse::Signed { id, sig }).is_err() {
                    break;
                }
            }
        })
    };
    drop(responses_tx);

    let (client, _) = client_listener.accept()?;
    client.set_nodelay(true)?;
    let mut client_out = client.try_clone()?;

    // Receive timestamps of in-flight verify requests, stamped by the
    // reader thread and consumed by the writer when the verdict goes
    // out — the verify-path analogue of the mux's sign-latency stamps.
    let verify_stamps: std::sync::Arc<
        std::sync::Mutex<std::collections::HashMap<u64, std::time::Instant>>,
    > = std::sync::Arc::new(std::sync::Mutex::new(std::collections::HashMap::new()));
    let stamps_in = std::sync::Arc::clone(&verify_stamps);

    // Reader thread: client frames → the matching intake. Dropping both
    // senders when the client says Shutdown (or hangs up) is what lets
    // the coordinator drain the mesh and the gateway flush its buffers.
    let reader = std::thread::spawn(move || {
        let mut client = client;
        // Shutdown frames, decode errors and hangups all end the stream.
        loop {
            match read_frame(&mut client) {
                Ok(ClientRequest::Sign { id, msg }) => {
                    if intake_tx.send((id, msg)).is_err() {
                        break;
                    }
                }
                Ok(ClientRequest::Verify {
                    id,
                    epoch,
                    pk,
                    msg,
                    sig,
                }) => {
                    stamps_in
                        .lock()
                        .expect("verify stamps poisoned")
                        .insert(id, std::time::Instant::now());
                    if gw_tx
                        .send(VerifyRequest {
                            id,
                            epoch,
                            pk,
                            msg,
                            sig,
                        })
                        .is_err()
                    {
                        break;
                    }
                }
                Ok(ClientRequest::Shutdown) | Err(_) => break,
            }
        }
    });

    // Single writer: stream merged responses until every producer
    // (signed forwarder + gateway worker) has hung up.
    let mut served = 0u64;
    let mut verified = 0u64;
    let mut verify_samples: Vec<std::time::Duration> = Vec::new();
    for resp in responses_rx {
        match &resp {
            ClientResponse::Signed { .. } => served += 1,
            ClientResponse::Verified { id, .. } => {
                verified += 1;
                if let Some(t0) = verify_stamps
                    .lock()
                    .expect("verify stamps poisoned")
                    .remove(id)
                {
                    verify_samples.push(t0.elapsed());
                }
            }
            ClientResponse::Summary { .. } => {}
        }
        write_frame(&mut client_out, &resp)?;
    }

    let (outcome, _metrics, sign_transport) = mesh
        .join()
        .map_err(|_| proto("signing mesh thread panicked"))??;
    reader
        .join()
        .map_err(|_| proto("client reader thread panicked"))?;
    gateway_worker
        .join()
        .map_err(|_| proto("gateway worker thread panicked"))?;
    signed_forwarder
        .join()
        .map_err(|_| proto("signed forwarder thread panicked"))?;

    let info = outcome
        .ready
        .ok_or_else(|| proto("front-end finished without Ready info"))?;
    let latencies: Vec<std::time::Duration> = outcome.mux.latencies.values().copied().collect();
    // Deployment-wide socket counters: every player's DKG-mesh view
    // (shipped inside Ready) plus this process's signing-mesh view.
    let mut transport = info.dkg_transport;
    transport.absorb(&sign_transport);
    write_frame(
        &mut client_out,
        &ClientResponse::Summary {
            public_key: info.public_key,
            dkg_metrics: info.dkg_metrics,
            high_water: outcome.mux.high_water as u64,
            served,
            verified,
            sign_latency: LatencySummary::from_samples(&latencies),
            verify_latency: LatencySummary::from_samples(&verify_samples),
            transport,
        },
    )?;
    Ok(())
}

/// Finds a block of `span` consecutive free loopback ports and returns
/// its first port. Best-effort (the ports are released again before the
/// children bind them), which is fine for a single-machine smoke run.
pub fn free_port_block(span: u16) -> Result<u16, ServiceError> {
    for _ in 0..64 {
        let probe = TcpListener::bind(("127.0.0.1", 0))?;
        let base = probe.local_addr()?.port();
        drop(probe);
        if usize::from(base) + usize::from(span) + 2 > usize::from(u16::MAX) {
            continue;
        }
        let held: Vec<TcpListener> = (base..base + span)
            .map_while(|p| TcpListener::bind(("127.0.0.1", p)).ok())
            .collect();
        if held.len() == span as usize {
            return Ok(base);
        }
    }
    Err(proto("no free loopback port block found"))
}

fn wait_ok(mut child: Child, what: &str) -> Result<(), ServiceError> {
    let status = child.wait()?;
    if status.success() {
        Ok(())
    } else {
        Err(proto(format!("{} exited with {}", what, status)))
    }
}

/// The multi-process smoke gate. Spawns `n` player processes and one
/// front-end (children of the current executable), replays the same DKG
/// in-process over a reliable [`borndist_net::TransportKind::Channel`],
/// then:
///
/// * pushes `requests` signing requests through the client socket and
///   verifies every signature against the *reference* public key;
/// * pushes a mixed valid/forged batch of [`ClientRequest::Verify`]
///   frames and asserts the gateway's verdicts match ground truth;
/// * asserts the deployment's merged DKG metrics are byte-identical to
///   the in-process reference ([`borndist_net::Metrics::same_traffic`]);
/// * asserts the backpressure high-water mark respected
///   `max_in_flight`, and that the summary's signing-latency
///   percentiles cover every served request.
pub fn run_smoke(top: &Topology, requests: u64) -> Result<(), ServiceError> {
    let n = top.params.n as PlayerId;
    let scheme = ThresholdScheme::new(&top.domain);

    // In-process reference run: same protocol, same seed, in one
    // process over threaded channels.
    let (km_ref, metrics_ref) = scheme
        .keygen_session(
            top.params,
            &BTreeMap::new(),
            top.seed,
            &TransportKind::Channel(DeliveryPolicy::reliable()),
        )
        .map_err(|e| proto(format!("reference DKG failed: {}", e)))?;

    let exe = std::env::current_exe()?;
    let domain = String::from_utf8(top.domain.clone()).map_err(|_| proto("non-UTF-8 domain"))?;
    let common = [
        ("--n", top.params.n.to_string()),
        ("--t", top.params.t.to_string()),
        ("--seed", top.seed.to_string()),
        ("--domain", domain),
        ("--dkg-base", top.dkg_base.to_string()),
        ("--sign-base", top.sign_base.to_string()),
        ("--max-in-flight", top.max_in_flight.to_string()),
    ];
    let spawn = |mode: &str, extra: &[(&str, String)]| -> Result<Child, ServiceError> {
        let mut cmd = Command::new(&exe);
        cmd.arg(mode)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in common.iter().chain(extra) {
            cmd.arg(k).arg(v);
        }
        Ok(cmd.spawn()?)
    };

    let players: Vec<Child> = (1..=n)
        .map(|id| spawn("player", &[("--id", id.to_string())]))
        .collect::<Result<_, _>>()?;
    let mut frontend = spawn("frontend", &[("--client-port", "0".into())])?;

    // Learn the client port from the front-end's stdout.
    let mut fe_stdout = BufReader::new(frontend.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    fe_stdout.read_line(&mut line)?;
    let port: u16 = line
        .trim()
        .strip_prefix("CLIENT_PORT ")
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| proto(format!("bad front-end banner: {:?}", line)))?;

    let mut client = TcpStream::connect(("127.0.0.1", port))?;
    client.set_nodelay(true)?;
    let mut client_in = client.try_clone()?;

    // Verification traffic for the gateway: `verify_count` signatures
    // from two aggregate authorities, a few of them forged (signature
    // over a different message than the one submitted).
    let agg_scheme = AggregateScheme::new(&top.domain);
    let mut agg_rng = StdRng::seed_from_u64(top.seed.wrapping_mul(0x9e37_79b9));
    let agg_params = borndist_shamir::ThresholdParams::new(1, 4)
        .map_err(|e| proto(format!("bad aggregate params: {}", e)))?;
    let authorities: Vec<_> = (0..2)
        .map(|_| agg_scheme.dealer_keygen(agg_params, &mut agg_rng))
        .collect();
    let verify_count = 24u64;
    let forged: &[u64] = &[3, 17];
    let agg_sign = |pk: &_, km: &borndist_core::ro::KeyMaterial, msg: &[u8]| {
        let partials: Vec<_> = (1..=2u32)
            .map(|j| agg_scheme.share_sign(pk, &km.shares[&j], msg))
            .collect();
        agg_scheme.combine(&agg_params, &partials).expect("combine")
    };

    // Pipeline all signing and verification requests, then collect both
    // response streams (they interleave arbitrarily).
    for id in 0..requests {
        write_frame(
            &mut client,
            &ClientRequest::Sign {
                id,
                msg: format!("smoke request {}", id).into_bytes(),
            },
        )?;
    }
    for id in 0..verify_count {
        let (pk, km) = &authorities[id as usize % authorities.len()];
        let msg = format!("smoke verify {}", id).into_bytes();
        let sig = if forged.contains(&id) {
            agg_sign(pk, km, b"forged smoke payload")
        } else {
            agg_sign(pk, km, &msg)
        };
        write_frame(
            &mut client,
            &ClientRequest::Verify {
                id,
                epoch: 0,
                pk: pk.clone(),
                msg,
                sig,
            },
        )?;
    }
    let mut signatures = BTreeMap::new();
    let mut verdicts = BTreeMap::new();
    while signatures.len() < requests as usize || verdicts.len() < verify_count as usize {
        match read_frame::<ClientResponse, _>(&mut client_in)? {
            ClientResponse::Signed { id, sig } => {
                signatures.insert(id, sig);
            }
            ClientResponse::Verified { id, valid, .. } => {
                verdicts.insert(id, valid);
            }
            ClientResponse::Summary { .. } => return Err(proto("Summary before Shutdown")),
        }
    }
    for (id, sig) in &signatures {
        let msg = format!("smoke request {}", id).into_bytes();
        if !scheme.verify(&km_ref.public_key, &msg, sig) {
            return Err(proto(format!("request {} signature invalid", id)));
        }
    }
    for (id, valid) in &verdicts {
        if *valid == forged.contains(id) {
            return Err(proto(format!(
                "gateway misjudged verify request {}: said {}",
                id, valid
            )));
        }
    }

    write_frame(&mut client, &ClientRequest::Shutdown)?;
    let summary = read_frame::<ClientResponse, _>(&mut client_in)?;
    let ClientResponse::Summary {
        public_key,
        dkg_metrics,
        high_water,
        served,
        verified,
        sign_latency,
        verify_latency,
        transport,
    } = summary
    else {
        return Err(proto("expected Summary after Shutdown"));
    };

    if public_key != km_ref.public_key {
        return Err(proto("deployment public key differs from reference"));
    }
    if !dkg_metrics.same_traffic(&metrics_ref) {
        return Err(proto(format!(
            "DKG metrics parity broken: sockets {:?} vs channel {:?}",
            dkg_metrics, metrics_ref
        )));
    }
    if high_water as usize > top.max_in_flight {
        return Err(proto(format!(
            "backpressure violated: high water {} > bound {}",
            high_water, top.max_in_flight
        )));
    }
    if served != requests {
        return Err(proto(format!("served {} of {} requests", served, requests)));
    }
    if verified != verify_count {
        return Err(proto(format!(
            "gateway answered {} of {} verify requests",
            verified, verify_count
        )));
    }
    if sign_latency.count != served {
        return Err(proto(format!(
            "latency summary covers {} of {} served requests",
            sign_latency.count, served
        )));
    }
    if verify_latency.count != verified {
        return Err(proto(format!(
            "verify latency summary covers {} of {} answered requests",
            verify_latency.count, verified
        )));
    }
    // Socket counters must show a real deployment: every process held
    // connections and moved frames. (Partial-read resumptions are
    // workload-dependent — loopback frequently delivers whole frames —
    // so they are reported, not gated.)
    if transport.connections_high_water == 0
        || transport.frames_in == 0
        || transport.frames_out == 0
    {
        return Err(proto(format!("transport counters empty: {:?}", transport)));
    }

    for (i, child) in players.into_iter().enumerate() {
        wait_ok(child, &format!("player {}", i + 1))?;
    }
    wait_ok(frontend, "frontend")?;

    println!(
        "SMOKE OK: {} requests signed, {} verified by {} processes; DKG parity {} msgs / {} bytes; high water {} <= {}; sign p50/p99 {:?}/{:?}; verify p50/p99 {:?}/{:?}; sockets hw {} frames {}/{} resumptions {}",
        requests,
        verified,
        n + 1,
        dkg_metrics.messages,
        dkg_metrics.bytes,
        high_water,
        top.max_in_flight,
        sign_latency.p50,
        sign_latency.p99,
        verify_latency.p50,
        verify_latency.p99,
        transport.connections_high_water,
        transport.frames_in,
        transport.frames_out,
        transport.partial_read_resumptions,
    );
    Ok(())
}
