//! Socket-transport gate (the one-poll-loop-per-process reactor): the
//! reactor costs one thread per player, and the daemon's signing mesh
//! sustains 16 sessions in flight over it — the `BENCH_reactor.json`
//! record. That the reactor is the *same protocol* as the in-process
//! transports (byte-identical metering) is
//! `dkg/tests/transport.rs::reactor_matches_channel_byte_for_byte`.
//!
//! Floors (same-run count ratios, floor 1.0):
//!
//! * **n = 64 mesh** — a full 64-player DKG over real loopback sockets
//!   with a `/proc/self/status` thread-count watcher: the whole
//!   64-player process must stay ≤ n + [`THREAD_SLACK`] threads (one
//!   poll loop per player, nothing per link). Ratio: ceiling over
//!   observed high-water.
//! * **service ×16** — the daemon's signing mesh at [`IN_FLIGHT`] = 16,
//!   twice the bound the daemon smoke runs with: the leg must actually
//!   reach that high-water mark, sign every request validly, and report
//!   nonzero socket counters. Ratio: observed high-water over
//!   [`IN_FLIGHT`].
//!
//! Run with: `cargo run --release --example reactor_mesh`

use borndist::core::ro::ThresholdScheme;
use borndist::dkg::{dkg_players, standard_config};
use borndist::net::{
    ensure_fd_capacity, run_tcp_reactor_loopback, BoxedPlayer, DeliveryPolicy, LatencySummary,
    ReactorTransport, TransportKind, TransportStats,
};
use borndist::shamir::ThresholdParams;
use borndist_bench::gate::{once_ms, Record};
use borndist_service::daemon::free_port_block;
use borndist_service::{
    ServiceCoordinator, ServiceOutcome, ServicePlayer, Topology, SIGN_ROUND_BUDGET,
};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Allowed threads beyond one-per-player in a mesh process: the main
/// thread, the gauge's sampler, and one spare.
const THREAD_SLACK: usize = 3;
/// In-flight bound of the service leg: twice what the daemon smoke
/// runs with (8).
const IN_FLIGHT: usize = 16;
/// DKG round budget (deal, complain, answer, finalize + slack).
const DKG_ROUNDS: usize = 8;

/// Current thread count of this process (`/proc/self/status`); `None`
/// off Linux, where the ceiling leg becomes report-only.
fn current_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Samples the process thread count on a background thread and keeps
/// the high-water mark.
struct ThreadGauge {
    stop: Arc<AtomicBool>,
    max: Arc<AtomicUsize>,
    handle: std::thread::JoinHandle<()>,
}

impl ThreadGauge {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let max = Arc::new(AtomicUsize::new(0));
        let handle = {
            let stop = Arc::clone(&stop);
            let max = Arc::clone(&max);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(t) = current_threads() {
                        max.fetch_max(t, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        ThreadGauge { stop, max, handle }
    }

    /// Stops sampling and returns the observed high-water mark (0 when
    /// `/proc` is unavailable).
    fn finish(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
        self.max.load(Ordering::Relaxed)
    }
}

/// Runs an all-honest DKG of size `n` over reactor loopback sockets
/// under a thread gauge; returns (wall ms, thread high-water).
fn reactor_dkg_leg(n: usize, t: usize, seed: u64) -> (f64, usize) {
    let params = ThresholdParams::new(t, n).unwrap();
    let cfg = standard_config(params, 2, b"borndist/reactor-mesh", false);
    let gauge = ThreadGauge::start();
    let ((), ms) = once_ms(|| {
        let players = dkg_players(&cfg, &BTreeMap::new(), seed);
        let (outputs, metrics) =
            run_tcp_reactor_loopback(players, &DeliveryPolicy::reliable(), DKG_ROUNDS)
                .expect("reactor mesh run");
        assert_eq!(outputs.len(), n, "all {} players must finish", n);
        for out in outputs.values() {
            let out = out.as_ref().expect("honest player must not abort");
            assert_eq!(out.qualified.len(), n, "honest run qualifies everyone");
        }
        assert!(metrics.bytes > 0);
    });
    (ms, gauge.finish())
}

/// The service signing-mesh leg: `n` player nodes plus a coordinator
/// with a fixed request queue, bounded by `max_in_flight`. Returns
/// (wall clock, sign-latency summary, mux high-water, coordinator
/// socket stats).
fn service_leg(
    max_in_flight: usize,
    requests: usize,
) -> (Duration, LatencySummary, u64, TransportStats) {
    let n = 4usize;
    let params = ThresholdParams::new(1, n).unwrap();
    let domain = b"reactor-mesh-service".to_vec();
    let scheme = ThresholdScheme::new(&domain);
    let (km, dkg_metrics) = scheme
        .keygen_session(params, &BTreeMap::new(), 31, &TransportKind::Lockstep)
        .unwrap();

    let sign_base = free_port_block(n as u16 + 2).expect("free ports");
    let queue: Vec<(u64, Vec<u8>)> = (0..requests as u64)
        .map(|id| (id, format!("reactor service {}", id).into_bytes()))
        .collect();

    // Every listener is bound before any thread dials.
    let mut listeners: Vec<TcpListener> = (1..=n as u32 + 1)
        .map(|id| TcpListener::bind(Topology::addr(sign_base, id)).expect("bind sign port"))
        .collect();
    let coordinator_listener = listeners.pop().expect("the coordinator's port");

    let start = Instant::now();
    let mut threads = Vec::new();
    for (id, listener) in (1..).zip(listeners) {
        let player = ServicePlayer::new(
            scheme.clone(),
            &km,
            id,
            dkg_metrics.clone(),
            TransportStats::default(),
        );
        let peers = Topology::peers(sign_base, id, n as u32 + 1);
        threads.push(std::thread::spawn(move || {
            let boxed = Box::new(player) as BoxedPlayer<_, ServiceOutcome>;
            ReactorTransport::connect(boxed, listener, peers, DeliveryPolicy::reliable())
                .expect("player connect")
                .run(SIGN_ROUND_BUDGET)
                .expect("player run");
        }));
    }
    let coordinator = Box::new(ServiceCoordinator::with_requests(
        n,
        scheme.clone(),
        max_in_flight,
        queue.clone(),
    )) as BoxedPlayer<_, ServiceOutcome>;
    let peers = Topology::peers(sign_base, n as u32 + 1, n as u32);
    let (outcome, _, stats) = ReactorTransport::connect(
        coordinator,
        coordinator_listener,
        peers,
        DeliveryPolicy::reliable(),
    )
    .expect("frontend connect")
    .run_with_stats(SIGN_ROUND_BUDGET)
    .expect("frontend run");
    for t in threads {
        t.join().expect("player thread");
    }
    let elapsed = start.elapsed();

    assert_eq!(
        outcome.mux.signatures.len(),
        requests,
        "every request signed"
    );
    for (id, msg) in &queue {
        assert!(
            scheme.verify(&km.public_key, msg, &outcome.mux.signatures[id]),
            "request {} signature invalid",
            id
        );
    }
    assert!(
        outcome.mux.high_water <= max_in_flight,
        "backpressure violated: {} > {}",
        outcome.mux.high_water,
        max_in_flight
    );
    (
        elapsed,
        LatencySummary::from_samples(&outcome.mux.latencies),
        outcome.mux.high_water as u64,
        stats,
    )
}

fn main() {
    let mut record = Record::new("reactor");

    // --- leg A: n = 64 real-socket mesh under the thread gauge ---
    assert!(
        ensure_fd_capacity(6_000),
        "64-player mesh needs ~4k descriptors"
    );
    let (n64_ms, n64_threads) = reactor_dkg_leg(64, 2, 0x5eac_0a40);
    println!(
        "   dkg_n64_reactor: thread high-water {} (ceiling {})",
        n64_threads,
        64 + THREAD_SLACK
    );
    let row = record.row("dkg_n64_reactor", 64, n64_ms);
    if n64_threads > 0 {
        row.ratio((64 + THREAD_SLACK) as f64 / n64_threads as f64)
            .floor(1.0, true);
    }

    // --- leg B: service leg at 16 in flight ---
    let requests = 48usize;
    let (elapsed, latency, high_water, stats) = service_leg(IN_FLIGHT, requests);
    assert!(stats.frames_in > 0 && stats.frames_out > 0);
    println!(
        "   service_reactor_x16: {} requests, high-water {}, p50 {:?}, p99 {:?}, frames in/out {}/{}",
        requests, high_water, latency.p50, latency.p99, stats.frames_in, stats.frames_out
    );
    record
        .row(
            "service_reactor_x16",
            IN_FLIGHT,
            elapsed.as_secs_f64() * 1e3,
        )
        .ratio(high_water as f64 / IN_FLIGHT as f64)
        .floor(1.0, true);

    record.finish();
}
