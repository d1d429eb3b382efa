//! Sustained-throughput load harness (experiment E11): the aggregation
//! gateway's amortized multi-pairing verification as a service-level
//! throughput number, measured three ways.
//!
//! * **Headline** — 64-signature buffers from 4 authorities through the
//!   warm gateway versus per-signature `verify` on identical inputs;
//!   the amortized path must sustain ≥ 3× the verified-signatures/sec
//!   (the PR's acceptance gate, enforced on every host).
//! * **Mixed open-loop workload** — a deterministic arrival schedule
//!   (`borndist_bench::load`) offering verify / batch-verify /
//!   partial-sign / combine operations at a target rate against an
//!   in-process gateway; per-class p50/p95/p99 from the scheduled offer
//!   time (so queueing debt is charged, not hidden).
//! * **Service leg** — the same traffic shape pushed through the real
//!   `borndist-service` stack: a 4-player signing mesh over
//!   [`ReactorTransport`] loopback sockets plus the gateway worker thread
//!   the daemon front-end runs ([`run_gateway_worker`]), with
//!   enqueue→response latencies recorded client-side.
//!
//! Scale knobs (CI keeps them small; the million-verification run in
//! EXPERIMENTS.md raises them):
//!
//! * `BORNDIST_LOAD_OPS` — mixed-workload operation count (default 400)
//! * `BORNDIST_LOAD_RATE` — mixed-workload arrival rate /s (default 500)
//! * `BORNDIST_SERVICE_OPS` — service-leg request count (default 48)
//!
//! The absolute mixed-workload ops/sec floor is enforced only on hosts
//! with ≥ 4 CPUs (the `enforced` field in the JSON record); the
//! headline amortization ratio is enforced everywhere.
//!
//! Run with: `cargo run --release --example service_load`

use borndist::core::gateway::{AggregationGateway, GatewayConfig, Verdict, VerifyRequest};
use borndist::core::ro::{PartialSignature, Signature, ThresholdScheme};
use borndist::core::{AggPublicKey, AggregateScheme};
use borndist::net::{
    BoxedPlayer, LatencySummary, ReactorTransport, TcpOptions, TransportKind, TransportStats,
};
use borndist::shamir::ThresholdParams;
use borndist_bench::load::{arrival_schedule, ClassRecorder, OpClass, ScheduledOp, WorkloadMix};
use borndist_service::daemon::free_port_block;
use borndist_service::{
    run_gateway_worker, ClientResponse, ServiceCoordinator, ServiceOutcome, ServicePlayer,
    Topology, SIGN_ROUND_BUDGET,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Minimum amortization ratio for the headline gate (the PR acceptance
/// criterion), enforced on every host.
const HEADLINE_MIN_RATIO: f64 = 3.0;

/// Mixed-workload ops/sec floor, enforced only when the host has at
/// least [`ENFORCE_MIN_CPUS`] CPUs (PR 4 gate policy: absolute numbers
/// are meaningless on starved shared runners).
const MIXED_MIN_OPS_PER_SEC: f64 = 150.0;
const ENFORCE_MIN_CPUS: usize = 4;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A signing authority for gateway traffic.
struct Authority {
    pk: AggPublicKey,
    km: borndist::core::ro::KeyMaterial,
    params: ThresholdParams,
}

fn authorities(scheme: &AggregateScheme, n: usize, rng: &mut StdRng) -> Vec<Authority> {
    let params = ThresholdParams::new(1, 4).unwrap();
    (0..n)
        .map(|_| {
            let (pk, km) = scheme.dealer_keygen(params, rng);
            Authority { pk, km, params }
        })
        .collect()
}

fn sign(scheme: &AggregateScheme, auth: &Authority, msg: &[u8]) -> Signature {
    let partials: Vec<PartialSignature> = (1..=2u32)
        .map(|j| scheme.share_sign(&auth.pk, &auth.km.shares[&j], msg))
        .collect();
    scheme.combine(&auth.params, &partials).unwrap()
}

fn request(
    scheme: &AggregateScheme,
    auths: &[Authority],
    id: u64,
    epoch: u64,
) -> (VerifyRequest, Vec<u8>) {
    let auth = &auths[id as usize % auths.len()];
    let msg = format!("load message {}", id).into_bytes();
    let sig = sign(scheme, auth, &msg);
    (
        VerifyRequest {
            id,
            epoch,
            pk: auth.pk.clone(),
            msg: msg.clone(),
            sig,
        },
        msg,
    )
}

struct JsonRow {
    name: String,
    ops: usize,
    elapsed: Duration,
    summary: LatencySummary,
    extra: String,
}

impl JsonRow {
    fn ops_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.ops as f64 / self.elapsed.as_secs_f64()
        }
    }

    fn render(&self) -> String {
        let mut row =
            borndist_bench::load::json_row(&self.name, self.ops, self.elapsed, &self.summary);
        if !self.extra.is_empty() {
            // Splice extra fields before the closing brace.
            row.truncate(row.len() - 1);
            row.push_str(", ");
            row.push_str(&self.extra);
            row.push('}');
        }
        row
    }
}

/// Phase 1: the headline amortization gate. Returns (ratio, rows).
fn headline_phase() -> (f64, Vec<JsonRow>) {
    let scheme = AggregateScheme::new(b"service-load");
    let mut rng = StdRng::seed_from_u64(0x10AD);
    let auths = authorities(&scheme, 4, &mut rng);
    let batch = 64usize;

    // Per-signature baseline on one buffer's worth of traffic.
    let baseline_inputs: Vec<(VerifyRequest, Vec<u8>)> = (0..batch as u64)
        .map(|id| request(&scheme, &auths, id, 0))
        .collect();
    let base_start = Instant::now();
    for (req, msg) in &baseline_inputs {
        assert!(
            scheme.verify(&req.pk, msg, &req.sig),
            "baseline input must verify"
        );
    }
    let base_elapsed = base_start.elapsed();
    let base_summary = LatencySummary::from_samples(&vec![base_elapsed / batch as u32; batch]);

    // Gateway path: one warmup buffer pays the key preparation and the
    // Appendix G key equations; the measured buffer is the steady state.
    let config = GatewayConfig {
        max_batch: batch,
        ..GatewayConfig::default()
    };
    let mut gw = AggregationGateway::new(scheme, config, StdRng::seed_from_u64(0x10AE));
    for id in 0..batch as u64 {
        let (req, _) = request(gw.scheme(), &auths, id, 0);
        gw.submit(req);
    }
    assert_eq!(gw.stats().accepted, batch as u64, "warmup buffer accepted");

    let measured: Vec<VerifyRequest> = (0..batch as u64)
        .map(|id| request(gw.scheme(), &auths, batch as u64 + id, 0).0)
        .collect();
    let gw_start = Instant::now();
    let mut arrivals: Vec<Instant> = Vec::with_capacity(batch);
    let mut latencies: Vec<Duration> = Vec::new();
    for req in measured {
        arrivals.push(Instant::now());
        let verdicts = gw.submit(req);
        if !verdicts.is_empty() {
            let done = Instant::now();
            assert!(verdicts.iter().all(|v| v.valid), "measured buffer accepted");
            latencies = arrivals.iter().map(|a| done.duration_since(*a)).collect();
        }
    }
    let gw_elapsed = gw_start.elapsed();
    assert_eq!(latencies.len(), batch, "size trigger answered the buffer");

    let ratio = base_elapsed.as_secs_f64() / gw_elapsed.as_secs_f64();
    let rows = vec![
        JsonRow {
            name: "verify_per_signature".into(),
            ops: batch,
            elapsed: base_elapsed,
            summary: base_summary,
            extra: String::new(),
        },
        JsonRow {
            name: "verify_gateway_64".into(),
            ops: batch,
            elapsed: gw_elapsed,
            summary: LatencySummary::from_samples(&latencies),
            extra: format!("\"amortization_ratio\": {:.2}", ratio),
        },
    ];
    (ratio, rows)
}

/// Phase 2: the mixed open-loop workload against an in-process gateway.
fn mixed_phase(ops: usize, rate: f64) -> (f64, Vec<JsonRow>) {
    let scheme = AggregateScheme::new(b"service-load-mixed");
    let mut rng = StdRng::seed_from_u64(0x10AF);
    let auths = authorities(&scheme, 4, &mut rng);

    // Signing-side fixtures (threshold 5-of-16, like the batch bench).
    let ro = ThresholdScheme::new(b"service-load-ro");
    let ro_km = ro.dealer_keygen(ThresholdParams::new(5, 16).unwrap(), &mut rng);
    let ro_msg: &[u8] = b"mixed workload message";
    let ro_partials: Vec<PartialSignature> = (1..=6u32)
        .map(|i| ro.share_sign(&ro_km.shares[&i], ro_msg))
        .collect();
    // Batch-verify fixture: 8 signatures over distinct messages.
    let bv_msgs: Vec<Vec<u8>> = (0..8)
        .map(|i| format!("bv message {}", i).into_bytes())
        .collect();
    let bv_sigs: Vec<Signature> = bv_msgs
        .iter()
        .map(|m| {
            let partials: Vec<PartialSignature> = (1..=6u32)
                .map(|i| ro.share_sign(&ro_km.shares[&i], m))
                .collect();
            ro.combine(&ro_km.params, &partials).unwrap()
        })
        .collect();
    let bv_items: Vec<(&[u8], &Signature)> = bv_msgs
        .iter()
        .zip(bv_sigs.iter())
        .map(|(m, s)| (m.as_slice(), s))
        .collect();

    // Pre-generate gateway requests so signing cost stays out of the
    // measured verify path.
    let schedule = arrival_schedule(ops, rate, WorkloadMix::standard(), 0x10B0);
    let verify_ops = schedule
        .iter()
        .filter(|op| op.class == OpClass::Verify)
        .count();
    let mut verify_queue: std::collections::VecDeque<VerifyRequest> = (0..verify_ops as u64)
        .map(|id| request(&scheme, &auths, id, 0).0)
        .collect();

    let mut gw = AggregationGateway::new(
        scheme,
        GatewayConfig::default(),
        StdRng::seed_from_u64(0x10B1),
    );
    let mut recorders: BTreeMap<OpClass, ClassRecorder> = BTreeMap::new();
    let mut pending_verify: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut bv_rng = StdRng::seed_from_u64(0x10B2);

    let start = Instant::now();
    let settle = |verdicts: Vec<Verdict>,
                  pending: &mut BTreeMap<u64, Instant>,
                  rec: &mut BTreeMap<OpClass, ClassRecorder>| {
        let done = Instant::now();
        for v in verdicts {
            assert!(v.valid, "mixed workload submits only honest traffic");
            if let Some(offered) = pending.remove(&v.id) {
                rec.entry(OpClass::Verify)
                    .or_default()
                    .record(done.duration_since(offered));
            }
        }
    };
    for ScheduledOp { class, at } in &schedule {
        // Open loop: wait for the offer time (poll the gateway while
        // idle so deadline flushes happen on time), then charge the
        // operation from its *scheduled* offer, not from when the loop
        // got to it.
        loop {
            let now = start.elapsed();
            if now >= *at {
                break;
            }
            let verdicts = gw.poll();
            settle(verdicts, &mut pending_verify, &mut recorders);
            let gap = *at - now;
            std::thread::sleep(gap.min(Duration::from_millis(1)));
        }
        let offered = start + *at;
        match class {
            OpClass::Verify => {
                let req = verify_queue.pop_front().expect("pre-generated");
                pending_verify.insert(req.id, offered);
                let verdicts = gw.submit(req);
                settle(verdicts, &mut pending_verify, &mut recorders);
            }
            OpClass::BatchVerify => {
                assert!(ro.batch_verify(&ro_km.public_key, &bv_items, &mut bv_rng));
                recorders
                    .entry(OpClass::BatchVerify)
                    .or_default()
                    .record(offered.elapsed());
            }
            OpClass::PartialSign => {
                let _ = ro.share_sign(&ro_km.shares[&7], ro_msg);
                recorders
                    .entry(OpClass::PartialSign)
                    .or_default()
                    .record(offered.elapsed());
            }
            OpClass::Combine => {
                let sig = ro.combine(&ro_km.params, &ro_partials).unwrap();
                assert!(ro.verify(&ro_km.public_key, ro_msg, &sig));
                recorders
                    .entry(OpClass::Combine)
                    .or_default()
                    .record(offered.elapsed());
            }
        }
    }
    let verdicts = gw.flush_all();
    settle(verdicts, &mut pending_verify, &mut recorders);
    let elapsed = start.elapsed();
    assert!(pending_verify.is_empty(), "every verify request answered");

    let total: usize = recorders.values().map(|r| r.count()).sum();
    assert_eq!(total, ops, "every scheduled operation completed");
    let ops_per_sec = total as f64 / elapsed.as_secs_f64();
    let stats = gw.stats();
    let mut rows: Vec<JsonRow> = recorders
        .iter()
        .map(|(class, rec)| JsonRow {
            name: format!("mixed_{}", class.label()),
            ops: rec.count(),
            elapsed,
            summary: rec.summary(),
            extra: String::new(),
        })
        .collect();
    rows.push(JsonRow {
        name: "mixed_total".into(),
        ops: total,
        elapsed,
        summary: LatencySummary::default(),
        extra: format!(
            "\"gateway_flushes\": {}, \"gateway_multi_pairings\": {}",
            stats.size_flushes
                + stats.deadline_flushes
                + stats.epoch_flushes
                + stats.forced_flushes,
            stats.multi_pairings
        ),
    });
    (ops_per_sec, rows)
}

/// Phase 3: the service leg — a real signing mesh over TCP loopback
/// plus the daemon's gateway worker, driven at an arrival rate.
fn service_phase(ops: usize) -> Vec<JsonRow> {
    let n = 4usize;
    let params = ThresholdParams::new(1, n).unwrap();
    let domain = b"service-load-leg".to_vec();
    let scheme = ThresholdScheme::new(&domain);
    let (km, dkg_metrics) = scheme
        .keygen_session(params, &BTreeMap::new(), 29, &TransportKind::Lockstep)
        .unwrap();

    let sign_base = free_port_block(n as u16 + 2).expect("free ports");
    let top = Topology {
        params,
        seed: 29,
        domain: domain.clone(),
        dkg_base: 0,
        sign_base,
        max_in_flight: 8,
    };

    // Mesh nodes on threads, exactly the daemon's layout.
    let mut threads = Vec::new();
    for id in 1..=n as u32 {
        let player = ServicePlayer::new(
            scheme.clone(),
            &km,
            id,
            dkg_metrics.clone(),
            TransportStats::default(),
        );
        let listen = Topology::addr(top.sign_base, id);
        let peers = Topology::peers(top.sign_base, id, n as u32 + 1);
        threads.push(std::thread::spawn(move || {
            let transport = ReactorTransport::connect(
                Box::new(player) as BoxedPlayer<_, ServiceOutcome>,
                listen,
                peers,
                TcpOptions::default(),
            )
            .expect("player connect");
            transport.run(SIGN_ROUND_BUDGET).expect("player run");
        }));
    }
    let (intake_tx, intake_rx) = mpsc::channel::<(u64, Vec<u8>)>();
    let (completed_tx, completed_rx) = mpsc::channel();
    let coordinator = ServiceCoordinator::with_intake(
        n,
        scheme.clone(),
        top.max_in_flight,
        intake_rx,
        completed_tx,
    );
    let mesh = {
        let listen = Topology::addr(top.sign_base, n as u32 + 1);
        let peers = Topology::peers(top.sign_base, n as u32 + 1, n as u32);
        let transport = ReactorTransport::connect(
            Box::new(coordinator) as BoxedPlayer<_, ServiceOutcome>,
            listen,
            peers,
            TcpOptions::default(),
        )
        .expect("frontend connect");
        std::thread::spawn(move || transport.run(SIGN_ROUND_BUDGET).expect("frontend run"))
    };

    // The daemon's gateway worker, verbatim.
    let agg_scheme = AggregateScheme::new(&domain);
    let mut rng = StdRng::seed_from_u64(0x10B3);
    let auths = authorities(&agg_scheme, 4, &mut rng);
    let (responses_tx, responses_rx) = mpsc::channel::<ClientResponse>();
    let (gw_tx, gw_rx) = mpsc::channel::<VerifyRequest>();
    let gateway = AggregationGateway::new(
        agg_scheme.clone(),
        GatewayConfig::default(),
        StdRng::seed_from_u64(0x10B4),
    );
    let gateway_worker =
        std::thread::spawn(move || run_gateway_worker(gateway, gw_rx, responses_tx));

    // Verify replies are stamped on arrival by a thread of their own:
    // the main thread below blocks on sign replies, which take an order
    // of magnitude longer, and a reply stamped only once those are
    // drained would be charged the signing mesh's latency.
    let verify_replies = std::thread::spawn(move || {
        let mut replies: Vec<(u64, bool, Instant)> = Vec::new();
        for resp in responses_rx {
            if let ClientResponse::Verified { id, valid, .. } = resp {
                replies.push((id, valid, Instant::now()));
            }
        }
        replies
    });

    // Offered traffic: 2 verify : 1 sign, open loop.
    let verify_reqs: Vec<VerifyRequest> = (0..ops as u64)
        .filter(|id| id % 3 != 0)
        .map(|id| request(&agg_scheme, &auths, id, 0).0)
        .collect();
    let start = Instant::now();
    let mut offered_sign: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut offered_verify: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut verify_iter = verify_reqs.into_iter();
    for id in 0..ops as u64 {
        if id % 3 == 0 {
            offered_sign.insert(id, Instant::now());
            intake_tx
                .send((id, format!("service sign {}", id).into_bytes()))
                .expect("mesh alive");
        } else {
            let req = verify_iter.next().expect("generated");
            offered_verify.insert(id, Instant::now());
            gw_tx.send(req).expect("gateway alive");
        }
        // Modest pacing so the mesh's in-flight bound sees a stream,
        // not one burst.
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(intake_tx);
    drop(gw_tx);

    // Each class's row covers start → its own last reply.
    let mut sign_rec = ClassRecorder::default();
    let mut sign_elapsed = Duration::ZERO;
    for (id, sig) in completed_rx {
        let done = Instant::now();
        let msg = format!("service sign {}", id).into_bytes();
        assert!(scheme.verify(&km.public_key, &msg, &sig));
        sign_rec.record(done.duration_since(offered_sign.remove(&id).unwrap()));
        sign_elapsed = done.duration_since(start);
    }
    let mut verify_rec = ClassRecorder::default();
    let mut verify_elapsed = Duration::ZERO;
    for (id, valid, done) in verify_replies.join().expect("verify reply thread") {
        assert!(valid, "service leg submits only honest traffic");
        verify_rec.record(done.duration_since(offered_verify.remove(&id).unwrap()));
        verify_elapsed = done.duration_since(start);
    }
    assert!(offered_sign.is_empty() && offered_verify.is_empty());

    let outcome = mesh.join().expect("mesh thread");
    for t in threads {
        t.join().expect("player thread");
    }
    let _stats = gateway_worker.join().expect("gateway worker");
    // The coordinator's own enqueue→response clocks cover every session
    // — the same counters the daemon folds into its shutdown Summary.
    assert_eq!(outcome.0.mux.latencies.len(), sign_rec.count());

    vec![
        JsonRow {
            name: "service_sign_tcp".into(),
            ops: sign_rec.count(),
            elapsed: sign_elapsed,
            summary: sign_rec.summary(),
            extra: String::new(),
        },
        JsonRow {
            name: "service_verify_tcp".into(),
            ops: verify_rec.count(),
            elapsed: verify_elapsed,
            summary: verify_rec.summary(),
            extra: String::new(),
        },
    ]
}

fn main() {
    let ops = env_usize("BORNDIST_LOAD_OPS", 400);
    let rate = env_f64("BORNDIST_LOAD_RATE", 500.0);
    let service_ops = env_usize("BORNDIST_SERVICE_OPS", 48);
    let host_parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let enforced = host_parallelism >= ENFORCE_MIN_CPUS;

    let (ratio, mut rows) = headline_phase();
    let (mixed_ops_per_sec, mixed_rows) = mixed_phase(ops, rate);
    rows.extend(mixed_rows);
    rows.extend(service_phase(service_ops));

    println!("== service load harness (E11) ==");
    for r in &rows {
        println!(
            "   {:<24} ops={:<6} {:>9.1} ops/s   p50 {:>8.3} ms   p95 {:>8.3} ms   p99 {:>8.3} ms",
            r.name,
            r.ops,
            r.ops_per_sec(),
            r.summary.p50.as_secs_f64() * 1e3,
            r.summary.p95.as_secs_f64() * 1e3,
            r.summary.p99.as_secs_f64() * 1e3,
        );
    }
    println!(
        "   headline amortization {:.2}x (floor {:.1}x); mixed {:.1} ops/s (floor {:.1}, {})",
        ratio,
        HEADLINE_MIN_RATIO,
        mixed_ops_per_sec,
        MIXED_MIN_OPS_PER_SEC,
        if enforced {
            "enforced"
        } else {
            "not enforced: < 4 CPUs"
        },
    );

    // Machine-readable record (BENCH_service.json).
    let mut json = String::from("{\n  \"bench\": \"service_load\",\n");
    json.push_str(&format!(
        "  \"host_parallelism\": {},\n  \"enforced\": {},\n  \"amortization_ratio\": {:.2},\n  \"rows\": [\n",
        host_parallelism, enforced, ratio
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str("    ");
        json.push_str(&r.render());
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}");
    println!("\n{}", json);

    assert!(
        ratio >= HEADLINE_MIN_RATIO,
        "acceptance: gateway amortized verification must be >= {}x per-signature verify (got {:.2}x)",
        HEADLINE_MIN_RATIO,
        ratio
    );
    if enforced {
        assert!(
            mixed_ops_per_sec >= MIXED_MIN_OPS_PER_SEC,
            "mixed workload sustained {:.1} ops/s, floor is {:.1}",
            mixed_ops_per_sec,
            MIXED_MIN_OPS_PER_SEC
        );
    }
}
