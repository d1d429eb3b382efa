//! Socket-transport release gate (the acceptance gate for the
//! one-poll-loop-per-process reactor). Proves the reactor is the *same
//! protocol* as the in-process transports (byte-identical metering),
//! that it costs one thread per player (measured thread ceiling), and
//! that the daemon's signing mesh sustains 16 sessions in flight over
//! it. Prints a JSON record (the `BENCH_reactor.json` trajectory
//! point).
//!
//! Legs:
//!
//! * **parity** (always) — n = 8 DKG over reactor loopback sockets vs
//!   the in-process channel transport: identical outputs and
//!   byte-identical traffic.
//! * **n = 64 mesh** (always) — a full 64-player DKG over real sockets
//!   with a `/proc/self/status` thread-count watcher: the whole
//!   64-player process must stay ≤ n + [`THREAD_SLACK`] threads (one
//!   poll loop per player, nothing per link).
//! * **n = 512 mesh** (armed on hosts with ≥ [`GATE_THREADS`] CPUs and
//!   enough file descriptors) — the headline: 512 players, 130 816
//!   real loopback connections, one process, ≤ 512 + slack threads.
//! * **service ×16** (always) — the daemon's signing mesh at
//!   [`IN_FLIGHT`] = 16, twice the bound the daemon smoke runs with:
//!   the leg must actually reach that high-water mark, sign every
//!   request validly, and report nonzero socket counters.
//!
//! Run with: `cargo run --release --example reactor_mesh`

use borndist::core::ro::ThresholdScheme;
use borndist::dkg::{dkg_players, dkg_session, standard_config};
use borndist::net::{
    ensure_fd_capacity, run_tcp_reactor_loopback_with, BoxedPlayer, DeliveryPolicy, LatencySummary,
    ReactorTransport, TcpOptions, TransportKind, TransportStats,
};
use borndist::shamir::ThresholdParams;
use borndist_service::daemon::free_port_block;
use borndist_service::{
    ServiceCoordinator, ServiceOutcome, ServicePlayer, Topology, SIGN_ROUND_BUDGET,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// CPU floor for the armed n = 512 leg (same convention as every other
/// gate).
const GATE_THREADS: usize = 4;
/// Allowed threads beyond one-per-player in a mesh process: the main
/// thread, the gauge's sampler, and one spare.
const THREAD_SLACK: usize = 3;
/// In-flight bound of the service leg: twice what the daemon smoke
/// runs with (8).
const IN_FLIGHT: usize = 16;
/// Descriptors a 512-player in-process mesh needs: 512·511/2 links ×
/// 2 endpoint fds + 512 listeners, with headroom.
const N512_FDS: u64 = 300_000;
/// DKG round budget (deal, complain, answer, finalize + slack).
const DKG_ROUNDS: usize = 8;

fn time_once_ms<F: FnOnce()>(f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Current thread count of this process (`/proc/self/status`); `None`
/// off Linux, where the ceiling legs become record-only.
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
fn reactor_dkg_leg(n: usize, t: usize, seed: u64, options: TcpOptions) -> (f64, usize) {
    let params = ThresholdParams::new(t, n).unwrap();
    let cfg = standard_config(params, 2, b"borndist/reactor-mesh", false);
    let gauge = ThreadGauge::start();
    let ms = time_once_ms(|| {
        let players = dkg_players(&cfg, &BTreeMap::new(), seed);
        let (outputs, metrics) =
            run_tcp_reactor_loopback_with(players, options, DKG_ROUNDS).expect("reactor mesh run");
        assert_eq!(outputs.len(), n, "all {} players must finish", n);
        for out in outputs.values() {
            let out = out.as_ref().expect("honest player must not abort");
            assert_eq!(out.qualified.len(), n, "honest run qualifies everyone");
        }
        assert!(metrics.bytes > 0);
    });
    let threads_hw = gauge.finish();
    if threads_hw > 0 {
        assert!(
            threads_hw <= n + THREAD_SLACK,
            "thread ceiling: {} threads for {} players (ceiling {} + {})",
            threads_hw,
            n,
            n,
            THREAD_SLACK
        );
    }
    (ms, threads_hw)
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

    let start = Instant::now();
    let mut threads = Vec::new();
    for id in 1..=n as u32 {
        let player = ServicePlayer::new(
            scheme.clone(),
            &km,
            id,
            dkg_metrics.clone(),
            TransportStats::default(),
        );
        let listen = Topology::addr(sign_base, id);
        let peers = Topology::peers(sign_base, id, n as u32 + 1);
        threads.push(std::thread::spawn(move || {
            let boxed = Box::new(player) as BoxedPlayer<_, ServiceOutcome>;
            ReactorTransport::connect(boxed, listen, peers, TcpOptions::default())
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
    let listen = Topology::addr(sign_base, n as u32 + 1);
    let peers = Topology::peers(sign_base, n as u32 + 1, n as u32);
    let (outcome, _, stats) =
        ReactorTransport::connect(coordinator, listen, peers, TcpOptions::default())
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
    let latencies: Vec<Duration> = outcome.mux.latencies.values().copied().collect();
    (
        elapsed,
        LatencySummary::from_samples(&latencies),
        outcome.mux.high_water as u64,
        stats,
    )
}

fn main() {
    let host = std::thread::available_parallelism().map_or(1, usize::from);

    // --- leg A: parity at n = 8 (always) ---
    let params = ThresholdParams::new(2, 8).unwrap();
    let cfg = standard_config(params, 2, b"borndist/reactor-mesh", false);
    let mut chan = None;
    let chan_ms = time_once_ms(|| {
        chan = Some(
            dkg_session(
                &cfg,
                &BTreeMap::new(),
                0x5eac_0a01,
                &TransportKind::Channel(DeliveryPolicy::reliable()),
            )
            .expect("channel session"),
        );
    });
    let (out_chan, m_chan) = chan.unwrap();
    let mut rx = None;
    let parity_ms = time_once_ms(|| {
        rx = Some(
            dkg_session(
                &cfg,
                &BTreeMap::new(),
                0x5eac_0a01,
                &TransportKind::TcpReactor(DeliveryPolicy::reliable()),
            )
            .expect("reactor session"),
        );
    });
    let (out_rx, m_rx) = rx.unwrap();
    assert!(
        m_chan.same_traffic(&m_rx),
        "parity: reactor must meter byte-identically ({:?} vs {:?})",
        m_chan,
        m_rx
    );
    for (id, out) in &out_chan {
        let (a, b) = (out.as_ref().unwrap(), out_rx[id].as_ref().unwrap());
        assert_eq!(a.qualified, b.qualified);
        assert_eq!(a.share, b.share);
        assert_eq!(a.combined_commitments, b.combined_commitments);
    }

    // --- leg B: n = 64 real-socket mesh under the thread gauge ---
    assert!(
        ensure_fd_capacity(6_000),
        "64-player mesh needs ~4k descriptors"
    );
    let (n64_ms, n64_threads) = reactor_dkg_leg(64, 2, 0x5eac_0a40, TcpOptions::default());

    // --- leg C: n = 512 (armed on capable hosts only) ---
    let fds_ok = ensure_fd_capacity(N512_FDS);
    let n512_armed = host >= GATE_THREADS && fds_ok;
    let n512_reason = if n512_armed {
        "armed".to_string()
    } else {
        format!(
            "host has {} CPUs (need {}) and fd capacity {} (need {})",
            host,
            GATE_THREADS,
            if fds_ok { "ok" } else { "insufficient" },
            N512_FDS
        )
    };
    let (mut n512_ms, mut n512_threads) = (0.0, 0usize);
    if n512_armed {
        // 512 single-threaded poll loops time-slice the dialing phase,
        // so every deadline scales with the committee.
        let options = TcpOptions {
            dial_timeout: Duration::from_secs(300),
            accept_timeout: Duration::from_secs(300),
            round_timeout: Duration::from_secs(600),
            ..TcpOptions::default()
        };
        let (ms, threads) = reactor_dkg_leg(512, 2, 0x5eac_0200, options);
        n512_ms = ms;
        n512_threads = threads;
    }

    // --- leg D: service leg at 16 in flight ---
    let requests = 48usize;
    let (rx_elapsed, rx_lat, rx_hw, rx_stats) = service_leg(IN_FLIGHT, requests);
    assert!(
        rx_hw as usize >= IN_FLIGHT,
        "service leg must sustain {} concurrent sessions (reached {})",
        IN_FLIGHT,
        rx_hw
    );
    assert!(rx_stats.frames_in > 0 && rx_stats.frames_out > 0);

    println!("== reactor mesh gate (host parallelism {}) ==", host);
    println!(
        "   parity_n8                 channel {:>8.1}ms  reactor {:>8.1}ms  traffic byte-identical",
        chan_ms, parity_ms
    );
    println!(
        "   dkg_n64_reactor           {:>8.1}ms  thread high-water {} (ceiling {})",
        n64_ms,
        n64_threads,
        64 + THREAD_SLACK
    );
    if n512_armed {
        println!(
            "   dkg_n512_reactor          {:>8.1}ms  thread high-water {} (ceiling {})",
            n512_ms,
            n512_threads,
            512 + THREAD_SLACK
        );
    } else {
        println!("   dkg_n512_reactor          skipped: {}", n512_reason);
    }
    println!(
        "   service_reactor_x16       {:>8.1}ms  hw {}  p50 {:?}  p99 {:?}",
        rx_elapsed.as_secs_f64() * 1e3,
        rx_hw,
        rx_lat.p50,
        rx_lat.p99
    );

    // Machine-readable record (BENCH_reactor.json).
    let mut json = String::from("{\n  \"bench\": \"reactor_mesh\",\n  \"unit\": \"ms\",\n");
    json.push_str(&format!(
        "  \"host_parallelism\": {},\n  \"gate\": {{\"thread_slack\": {}, \"in_flight\": {}, \"n512_armed\": {}, \"n512_reason\": \"{}\"}},\n",
        host, THREAD_SLACK, IN_FLIGHT, n512_armed, n512_reason
    ));
    json.push_str("  \"rows\": [\n");
    let rows = [
        ("parity_n8_channel", 8usize, chan_ms, 0usize, false),
        ("parity_n8_reactor", 8, parity_ms, 0, false),
        ("dkg_n64_reactor", 64, n64_ms, n64_threads, false),
        ("dkg_n512_reactor", 512, n512_ms, n512_threads, !n512_armed),
        (
            "service_reactor_x16",
            IN_FLIGHT,
            rx_elapsed.as_secs_f64() * 1e3,
            rx_hw as usize,
            false,
        ),
    ];
    for (i, (name, n, ms, aux, skipped)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"time_ms\": {:.1}, \"aux\": {}, \"skipped\": {}}}{}\n",
            name,
            n,
            ms,
            aux,
            skipped,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"service\": {{\"requests\": {}, \"reactor_p99_ms\": {:.2}, \"reactor_frames_in\": {}, \"reactor_frames_out\": {}}}\n}}",
        requests,
        rx_lat.p99.as_secs_f64() * 1e3,
        rx_stats.frames_in,
        rx_stats.frames_out
    ));
    println!("\n{}", json);
}
