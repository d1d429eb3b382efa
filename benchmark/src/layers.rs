//! Per-layer probes: timed calls into each crate's public functions, on
//! inputs drawn from the workloads. Every probe reports the median of
//! its timed calls; counts are exact.

use crate::daemon::{DOMAIN, MAX_IN_FLIGHT, PLAYERS, THRESHOLD};
use crate::inputs::Request;
use crate::report::Report;
use crate::stats::median;
use borndist::core::gateway::{AggregationGateway, GatewayConfig, GatewayStats, VerifyRequest};
use borndist::core::netsign::MuxMessage;
use borndist::core::ro::{KeyMaterial, PartialSignature, ThresholdScheme};
use borndist::core::AggregateScheme;
use borndist::dkg::{Behavior, DkgMessage, DkgPlayer};
use borndist::net::{
    run_protocol, BoxedPlayer, Delivered, DeliveryPolicy, Metrics, Outgoing, PlayerId, Protocol,
    Recipient, RoundAction, TransportKind, TransportStats, Wire,
};
use borndist::pairing::{
    final_exponentiation, hash_to_g1, msm, mul_g1_generator, mul_g2_generator, multi_miller_loop,
    multi_pairing_prepared, Fp, Fr, G1Affine, G1Projective, G2Affine, G2Prepared, G2Projective,
};
use borndist::parallel::{par_map, with_parallelism, Parallelism};
use borndist::shamir::{
    lagrange_coefficients_at_zero, pedersen_batch_verify, PedersenCheck, PedersenSharing,
    ThresholdParams,
};
use borndist_service::{
    read_frame, run_gateway_worker, write_frame, ClientRequest, ClientResponse, ServiceCoordinator,
    ServiceMessage, ServiceOutcome, ServicePlayer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Wall-clock spent per probe once it has its minimum sample count.
const PROBE_BUDGET: Duration = Duration::from_millis(30);
const MIN_CALLS: usize = 5;
const MAX_CALLS: usize = 2000;

/// Median duration of one call to `f`, in seconds.
fn timed<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < MIN_CALLS || (start.elapsed() < PROBE_BUDGET && samples.len() < MAX_CALLS)
    {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

fn wall<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// `pairing` and `parallel`: field, curve, pairing and MSM kernels.
pub fn pairing(report: &mut Report, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A12);
    let (a, b) = (Fp::random(&mut rng), Fp::random(&mut rng));
    // A single multiplication is below the clock's resolution.
    const FP_BATCH: usize = 1000;
    let fp_batch = timed(|| {
        let mut x = a;
        for _ in 0..FP_BATCH {
            x *= black_box(b);
        }
        x
    });
    report.set("pairing.fp_mul_ns", fp_batch / FP_BATCH as f64 * 1e9);

    let scalars: Vec<Fr> = (0..512).map(|_| Fr::random(&mut rng)).collect();
    let g1: Vec<G1Affine> = G1Projective::batch_to_affine(
        &scalars[..4]
            .iter()
            .map(mul_g1_generator)
            .collect::<Vec<_>>(),
    );
    let g2: Vec<G2Affine> =
        G2Projective::batch_to_affine(&scalars.iter().map(mul_g2_generator).collect::<Vec<_>>());
    let k = scalars[7];

    let f = multi_miller_loop(&[(&g1[0], &g2[0])]);
    report.set(
        "pairing.miller_loop_us",
        timed(|| multi_miller_loop(&[(&g1[0], &g2[0])])) * 1e6,
    );
    report.set(
        "pairing.final_exp_us",
        timed(|| final_exponentiation(&f)) * 1e6,
    );
    let prepared: Vec<G2Prepared> = g2[..4].iter().map(G2Prepared::new).collect();
    let pairs: Vec<(&G1Affine, &G2Prepared)> = g1.iter().zip(&prepared).collect();
    report.set(
        "pairing.multi_pairing4_prepared_us",
        timed(|| multi_pairing_prepared(&pairs)) * 1e6,
    );
    report.set(
        "pairing.g2_prepare_us",
        timed(|| G2Prepared::new(&g2[0])) * 1e6,
    );
    report.set("pairing.g1_mul_us", timed(|| g1[0].mul(&k)) * 1e6);
    report.set("pairing.g2_mul_us", timed(|| g2[0].mul(&k)) * 1e6);
    report.set(
        "pairing.g1_fixed_mul_us",
        timed(|| mul_g1_generator(&k)) * 1e6,
    );
    report.set(
        "pairing.g2_fixed_mul_us",
        timed(|| mul_g2_generator(&k)) * 1e6,
    );
    let mut counter = 0u64;
    report.set(
        "pairing.hash_to_g1_us",
        timed(|| {
            counter += 1;
            hash_to_g1(DOMAIN.as_bytes(), &counter.to_le_bytes())
        }) * 1e6,
    );
    // n·(t+1) of dkg_n16 and dkg_n32: one player's batched share check.
    report.set(
        "pairing.msm_g2_128_ms",
        timed(|| msm(&g2[..128], &scalars[..128])) * 1e3,
    );
    report.set("pairing.msm_g2_512_ms", timed(|| msm(&g2, &scalars)) * 1e3);

    let messages: Vec<[u8; 8]> = (0..64u64).map(u64::to_le_bytes).collect();
    let hash_all = || par_map(&messages, |m| hash_to_g1(DOMAIN.as_bytes(), m));
    let sequential = timed(|| with_parallelism(Parallelism::Sequential, hash_all));
    let parallel = timed(|| with_parallelism(Parallelism::Auto, hash_all));
    report.set("parallel.par_map_speedup", sequential / parallel);
}

/// The n=4, t=1 key material every in-process `core` probe signs with.
pub struct SignFixture {
    pub scheme: ThresholdScheme,
    pub km: KeyMaterial,
    dkg_metrics: Metrics,
}

impl SignFixture {
    pub fn new(seed: u64) -> Result<Self, String> {
        let scheme = ThresholdScheme::new(DOMAIN.as_bytes());
        let params = ThresholdParams::new(THRESHOLD, PLAYERS as usize).expect("valid (t, n)");
        let (km, dkg_metrics) = scheme
            .keygen_session(params, &BTreeMap::new(), seed, &TransportKind::Lockstep)
            .map_err(|e| format!("fixture DKG: {}", e))?;
        Ok(SignFixture {
            scheme,
            km,
            dkg_metrics,
        })
    }
}

/// `core::ro`: the scheme operations of one Sign, replayed in-process
/// on the workload's messages.
pub fn core_sign(report: &mut Report, fixture: &SignFixture, messages: &[&[u8]]) {
    let SignFixture { scheme, km, .. } = fixture;
    let mut next = messages.iter().cycle();
    let mut msg = || *next.next().expect("at least one message");
    report.set(
        "core.hash_message_us",
        timed(|| scheme.hash_message(msg())) * 1e6,
    );
    let share_sign = timed(|| scheme.share_sign(&km.shares[&1], msg()));
    let partials: Vec<PartialSignature> = (1..=2u32)
        .map(|i| scheme.share_sign(&km.shares[&i], messages[0]))
        .collect();
    let share_verify =
        timed(|| scheme.share_verify(&km.verification_keys[&2], messages[0], &partials[1]));
    let combine = timed(|| scheme.combine(&km.params, &partials));
    let sig = scheme
        .combine(&km.params, &partials)
        .expect("t + 1 partials combine");
    let verify = timed(|| scheme.verify(&km.public_key, messages[0], &sig));
    report.set("core.share_sign_us", share_sign * 1e6);
    report.set("core.share_verify_us", share_verify * 1e6);
    report.set("core.combine_us", combine * 1e6);
    report.set("core.verify_us", verify * 1e6);
    // The steps of one request that wait for each other: every signer
    // signs at once, the session's combiner checks the other n − 1
    // partials one after another and combines, the front-end verifies.
    let others = (PLAYERS - 1) as f64;
    report.set(
        "core.sign_crypto_ms",
        (share_sign + others * share_verify + combine + verify) * 1e3,
    );
}

fn sign_mesh(
    fixture: &SignFixture,
    requests: Vec<(u64, Vec<u8>)>,
    max_in_flight: usize,
) -> Vec<BoxedPlayer<ServiceMessage, ServiceOutcome>> {
    let mut players: Vec<BoxedPlayer<ServiceMessage, ServiceOutcome>> = (1..=PLAYERS)
        .map(|id| {
            Box::new(ServicePlayer::new(
                fixture.scheme.clone(),
                &fixture.km,
                id,
                fixture.dkg_metrics.clone(),
                TransportStats::default(),
            )) as _
        })
        .collect();
    players.push(Box::new(ServiceCoordinator::with_requests(
        PLAYERS as usize,
        fixture.scheme.clone(),
        max_in_flight,
        requests,
    )));
    players
}

/// Runs `count` sign requests through the in-process service mesh;
/// returns traffic metrics and wall-clock seconds.
fn run_sign_mesh(
    fixture: &SignFixture,
    messages: &[&[u8]],
    count: usize,
    max_in_flight: usize,
    transport: &TransportKind,
) -> Result<(Metrics, f64), String> {
    let requests: Vec<(u64, Vec<u8>)> = messages
        .iter()
        .cycle()
        .take(count)
        .enumerate()
        .map(|(i, m)| (i as u64, m.to_vec()))
        .collect();
    let players = sign_mesh(fixture, requests, max_in_flight);
    let (run, secs) = wall(|| run_protocol(transport, players, 100_000));
    let (outputs, metrics) = run.map_err(|e| format!("in-process sign mesh: {}", e))?;
    let served = outputs[&(PLAYERS + 1)].mux.signatures.len();
    if served != count {
        return Err(format!(
            "in-process sign mesh served {} of {}",
            served, count
        ));
    }
    Ok((metrics, secs))
}

/// `core::netsign`: rounds, messages and bytes one Sign costs (exact:
/// the difference between two Lockstep runs that differ only in request
/// count, so the Ready hand-off and Shutdown cancel), and the same mesh
/// over `Channel` with no sockets and no processes.
pub fn core_netsign(
    report: &mut Report,
    fixture: &SignFixture,
    messages: &[&[u8]],
) -> Result<(), String> {
    let (few, many) = (2usize, 6usize);
    let per = (many - few) as f64;
    let (a, _) = run_sign_mesh(fixture, messages, few, 1, &TransportKind::Lockstep)?;
    let (b, _) = run_sign_mesh(fixture, messages, many, 1, &TransportKind::Lockstep)?;
    report.set(
        "core.netsign_rounds_per_sign",
        (b.total_rounds - a.total_rounds) as f64 / per,
    );
    report.set(
        "core.netsign_msgs_per_sign",
        (b.messages - a.messages) as f64 / per,
    );
    report.set(
        "core.netsign_bytes_per_sign",
        (b.bytes - a.bytes) as f64 / per,
    );

    let channel = TransportKind::Channel(DeliveryPolicy::reliable());
    let (few, many) = (2usize, 12usize);
    let (_, base) = run_sign_mesh(fixture, messages, few, 1, &channel)?;
    let (_, full) = run_sign_mesh(fixture, messages, many, 1, &channel)?;
    report.set(
        "core.netsign_inproc_sign_ms",
        (full - base) / (many - few) as f64 * 1e3,
    );
    let (few, many) = (MAX_IN_FLIGHT, 5 * MAX_IN_FLIGHT);
    let (_, base) = run_sign_mesh(fixture, messages, few, MAX_IN_FLIGHT, &channel)?;
    let (_, full) = run_sign_mesh(fixture, messages, many, MAX_IN_FLIGHT, &channel)?;
    report.set(
        "core.netsign_inproc_ops_s",
        (many - few) as f64 / (full - base),
    );
    Ok(())
}

fn gateway(scheme: &AggregateScheme, seed: u64) -> AggregationGateway<StdRng> {
    AggregationGateway::new(
        scheme.clone(),
        GatewayConfig::default(),
        StdRng::seed_from_u64(seed ^ 0x6A7E),
    )
}

/// Replays verify arrivals through an in-process gateway on the
/// schedule's own clock; returns its counters and how many verdicts
/// differed from ground truth.
pub fn gateway_replay(
    scheme: &AggregateScheme,
    seed: u64,
    arrivals: &[(Duration, &Request)],
) -> (GatewayStats, usize) {
    let mut gw = gateway(scheme, seed);
    let expect: BTreeMap<u64, bool> = arrivals
        .iter()
        .map(|(_, r)| (r.id, r.expect_valid))
        .collect();
    let mut wrong = 0;
    let mut judge = |verdicts: Vec<borndist::core::gateway::Verdict>| {
        wrong += verdicts.iter().filter(|v| expect[&v.id] != v.valid).count();
    };
    let epoch = Instant::now();
    for (at, request) in arrivals {
        let now = epoch + *at;
        while let Some(deadline) = gw.next_deadline().filter(|d| *d <= now) {
            judge(gw.poll_at(deadline));
        }
        let verify = request.verify.clone().expect("a Verify request");
        judge(gw.submit_at(verify, now));
    }
    while let Some(deadline) = gw.next_deadline() {
        judge(gw.poll_at(deadline));
    }
    (*gw.stats(), wrong)
}

/// Reports the counters of a [`gateway_replay`].
pub fn gateway_counts(report: &mut Report, stats: &GatewayStats) {
    let flushes = stats.size_flushes + stats.deadline_flushes + stats.epoch_flushes;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    report.set("core.gateway_batch_mean", ratio(stats.submitted, flushes));
    report.set("core.gateway_size_flushes", stats.size_flushes as f64);
    report.set(
        "core.gateway_deadline_flushes",
        stats.deadline_flushes as f64,
    );
    report.set("core.gateway_multi_pairings", stats.multi_pairings as f64);
    report.set("core.gateway_bisections", stats.bisections as f64);
    report.set("core.gateway_leaf_checks", stats.leaf_checks as f64);
    report.set(
        "core.gateway_prepared_hit_ratio",
        ratio(
            stats.prepared_hits,
            stats.prepared_hits + stats.prepared_misses,
        ),
    );
}

/// `core::gateway` and the service's gateway worker, in-process, on
/// `pool` (all-valid Verify requests; at least 5 full buffers).
pub fn core_gateway(
    report: &mut Report,
    scheme: &AggregateScheme,
    seed: u64,
    pool: &[Request],
) -> Result<(), String> {
    let batch = GatewayConfig::default().max_batch;
    let verify_of = |r: &Request| r.verify.clone().expect("a Verify request");
    if pool.len() < 5 * batch {
        return Err("gateway probe pool too small".into());
    }
    let first = verify_of(&pool[0]);
    report.set(
        "core.agg_verify_us",
        timed(|| scheme.verify(&first.pk, &first.msg, &first.sig)) * 1e6,
    );

    // One warm-up buffer pays key preparation and validation; the timed
    // buffers are the steady state.
    let mut gw = gateway(scheme, seed);
    let mut buffers = pool.chunks_exact(batch);
    let flush = |gw: &mut AggregationGateway<StdRng>, buffer: &[Request]| {
        let requests: Vec<VerifyRequest> = buffer.iter().map(verify_of).collect();
        let (answered, secs) = wall(|| {
            requests
                .into_iter()
                .map(|r| gw.submit(r).len())
                .sum::<usize>()
        });
        (answered == buffer.len()).then_some(secs)
    };
    let mut full = Vec::new();
    for (i, buffer) in buffers.by_ref().take(4).enumerate() {
        let secs = flush(&mut gw, buffer).ok_or("size trigger did not answer the buffer")?;
        if i > 0 {
            full.push(secs);
        }
    }
    report.set("core.gateway_flush64_ms", median(&full) * 1e3);
    let singles: Vec<f64> = buffers
        .next()
        .expect("a fifth buffer")
        .iter()
        .take(MIN_CALLS)
        .map(|r| {
            let now = Instant::now();
            gw.submit_at(verify_of(r), now);
            let deadline = gw.next_deadline().expect("one buffered request");
            wall(|| gw.poll_at(deadline)).1
        })
        .collect();
    report.set("core.gateway_flush1_ms", median(&singles) * 1e3);

    // The daemon's serving loop over channels: no sockets, no processes.
    let (gw_tx, gw_rx) = mpsc::channel();
    let (resp_tx, resp_rx) = mpsc::channel();
    let worker_gateway = gateway(scheme, seed ^ 1);
    let worker = std::thread::spawn(move || run_gateway_worker(worker_gateway, gw_rx, resp_tx));
    let served = 5 * batch;
    let requests: Vec<VerifyRequest> = pool[..served].iter().map(verify_of).collect();
    let (valid, secs) = wall(|| {
        for r in requests {
            gw_tx.send(r).expect("gateway worker alive");
        }
        drop(gw_tx);
        resp_rx
            .iter()
            .filter(|r| matches!(r, ClientResponse::Verified { valid: true, .. }))
            .count()
    });
    worker
        .join()
        .map_err(|_| "gateway worker panicked".to_string())?;
    if valid != served {
        return Err(format!("gateway worker accepted {} of {}", valid, served));
    }
    report.set("service.gateway_worker_inproc_ops_s", served as f64 / secs);
    Ok(())
}

/// `shamir`: interpolation, dealing and share checks at the committee
/// sizes of the DKG workloads.
pub fn shamir(report: &mut Report, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x54A3);
    let bases = ThresholdScheme::new(DOMAIN.as_bytes()).pedersen_bases();
    let indices: Vec<u32> = (1..=16).collect();
    report.set(
        "shamir.lagrange_t1_us",
        timed(|| lagrange_coefficients_at_zero(&indices[..2])) * 1e6,
    );
    report.set(
        "shamir.lagrange_t15_us",
        timed(|| lagrange_coefficients_at_zero(&indices)) * 1e6,
    );
    for (n, t, deal_metric, batch_metric) in [
        (
            16u32,
            7usize,
            "shamir.pedersen_deal_n16_ms",
            "shamir.batch_verify_n16_ms",
        ),
        (
            32,
            15,
            "shamir.pedersen_deal_n32_ms",
            "shamir.batch_verify_n32_ms",
        ),
    ] {
        let deal = |rng: &mut StdRng| {
            let sharing = PedersenSharing::deal_random(&bases, t, rng);
            let shares: Vec<_> = (1..=n).map(|i| sharing.share_for(i)).collect();
            (sharing, shares)
        };
        report.set(deal_metric, timed(|| deal(&mut rng)) * 1e3);
        // What player 1 checks after the dealing round: one share from
        // each of the n dealers.
        let dealt: Vec<PedersenSharing> = (0..n).map(|_| deal(&mut rng).0).collect();
        let checks: Vec<PedersenCheck<'_>> = dealt
            .iter()
            .map(|s| PedersenCheck {
                commitment: &s.commitment,
                share: s.share_for(1),
            })
            .collect();
        report.set(
            batch_metric,
            timed(|| assert!(pedersen_batch_verify(&bases, &checks, &mut rng))) * 1e3,
        );
        if n == 32 {
            let check = checks[0];
            report.set(
                "shamir.verify_share_us",
                timed(|| check.commitment.verify_share(&bases, &check.share)) * 1e6,
            );
        }
    }
}

/// Broadcasts one byte per round and stops after `rounds`: a transport
/// round with no protocol work in it.
struct Ping {
    id: PlayerId,
    rounds: usize,
}

impl Protocol for Ping {
    type Message = u8;
    type Output = ();

    fn round(&mut self, round: usize, _inbox: &[Delivered<u8>]) -> RoundAction<u8, ()> {
        if round >= self.rounds {
            return RoundAction::Finish(());
        }
        RoundAction::Continue(vec![Outgoing {
            to: Recipient::Broadcast,
            msg: 0,
        }])
    }

    fn id(&self) -> PlayerId {
        self.id
    }
}

/// `net`: codec cost of the largest and the most frequent message, and
/// the cost of one empty round on each transport (5 nodes, like the
/// daemon's signing mesh).
pub fn net(report: &mut Report, fixture: &SignFixture, seed: u64) -> Result<(), String> {
    let cfg = fixture
        .scheme
        .dkg_config(ThresholdParams::new(15, 32).expect("valid (t, n)"));
    let mut dealer = DkgPlayer::new(1, cfg, Behavior::default(), seed);
    let RoundAction::Continue(dealt) = dealer.round(0, &[]) else {
        return Err("dealer finished in round 0".into());
    };
    let deal = dealt
        .into_iter()
        .map(|o| o.msg)
        .find(|m| matches!(m, DkgMessage::Commitments { .. }))
        .ok_or("dealer broadcast no commitments")?;
    let deal_bytes = deal.encode();
    report.set("net.encode_deal_n32_us", timed(|| deal.encode()) * 1e6);
    report.set(
        "net.decode_deal_n32_us",
        timed(|| DkgMessage::decode_exact(&deal_bytes)) * 1e6,
    );
    let partial = MuxMessage::Partial {
        session: 1,
        psig: fixture
            .scheme
            .share_sign(&fixture.km.shares[&1], b"partial"),
    };
    let partial_bytes = partial.encode();
    report.set("net.encode_partial_us", timed(|| partial.encode()) * 1e6);
    report.set(
        "net.decode_partial_us",
        timed(|| MuxMessage::decode_exact(&partial_bytes)) * 1e6,
    );

    const ROUNDS: usize = 200;
    for (metric, transport) in [
        ("net.round_us_lockstep", TransportKind::Lockstep),
        (
            "net.round_us_channel",
            TransportKind::Channel(DeliveryPolicy::reliable()),
        ),
        (
            "net.round_us_reactor",
            TransportKind::TcpReactor(DeliveryPolicy::reliable()),
        ),
    ] {
        let players: Vec<BoxedPlayer<u8, ()>> = (1..=PLAYERS + 1)
            .map(|id| Box::new(Ping { id, rounds: ROUNDS }) as _)
            .collect();
        let (run, secs) = wall(|| run_protocol(&transport, players, ROUNDS + 2));
        run.map_err(|e| format!("{}: {}", metric, e))?;
        report.set(metric, secs / ROUNDS as f64 * 1e6);
    }
    Ok(())
}

/// `service` framing: one request frame out and one reply frame back
/// over a loopback socket, both written with `write_frame` and read
/// with `read_frame` on sockets configured the way the daemon's client
/// socket is (defaults).
pub fn service_framing(report: &mut Report, fixture: &SignFixture) -> Result<(), String> {
    let io = |e: std::io::Error| format!("frame round trip: {}", e);
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).map_err(io)?;
    let port = listener.local_addr().map_err(io)?.port();
    let sig = fixture
        .scheme
        .combine(
            &fixture.km.params,
            &[
                fixture.scheme.share_sign(&fixture.km.shares[&1], b"frame"),
                fixture.scheme.share_sign(&fixture.km.shares[&2], b"frame"),
            ],
        )
        .expect("t + 1 partials combine");
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut stream, _) = listener.accept()?;
        while let Ok(ClientRequest::Sign { id, .. }) = read_frame(&mut stream) {
            write_frame(&mut stream, &ClientResponse::Signed { id, sig })?;
        }
        Ok(())
    });
    let mut stream = std::net::TcpStream::connect(("127.0.0.1", port)).map_err(io)?;
    let request = ClientRequest::Sign {
        id: 1,
        msg: b"frame round trip".to_vec(),
    };
    let mut failed = None;
    let secs = timed(|| {
        let reply = write_frame(&mut stream, &request)
            .and_then(|()| read_frame::<ClientResponse, _>(&mut stream));
        if let Err(e) = reply {
            failed = Some(e);
        }
    });
    drop(stream);
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())?
        .map_err(io)?;
    if let Some(e) = failed {
        return Err(io(e));
    }
    report.set("service.frame_roundtrip_us", secs * 1e6);
    Ok(())
}
