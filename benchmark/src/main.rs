//! The repo benchmark: client `Sign`/`Verify` against the running
//! `borndist-service` daemon and full `Dist-Keygen` sessions over
//! loopback sockets, end to end (`--trace 0`) and layer by layer
//! (`--trace 1`). See `README.md` for the workloads and metrics.

mod daemon;
mod dkg;
mod host;
mod inputs;
mod layers;
mod loadgen;
mod procfs;
mod report;
mod schedule;
mod stats;
mod trace;

use daemon::{Deployment, MAX_IN_FLIGHT};
use inputs::Request;
use loadgen::{closed_loop, count_failed, open_loop, record_spans, OpenPhase, Sample};
use report::{Report, END_TO_END, PER_LAYER};
use schedule::{Arrival, Verb};
use stats::{median, percentile, tail};
use trace::Tracer;

use borndist::core::gateway::GatewayConfig;
use borndist::shamir::ThresholdParams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Share of `--seconds` given to the open-loop phase; the closed-loop
/// phase gets the rest.
const OPEN_SHARE: f64 = 0.7;

/// An open-loop phase is invalid — the run reports no latency — when
/// fewer than this share of offered requests completed, ...
const MIN_COMPLETED_SHARE: f64 = 0.95;
/// ... when it needed longer than this to drain after the last send, ...
const MAX_DRAIN: Duration = Duration::from_secs(2);
/// ... or when the generator issued one request in twenty this late.
/// (Latency is timed from the due instant, so lateness is charged to
/// the system either way; this guard catches a generator that cannot
/// keep its schedule at all. The single worst request is reported, not
/// gated: with the daemon's five processes and the client sharing the
/// build host's cores, one 50 ms scheduling stall per run is normal.)
const MAX_GENERATOR_LATE: Duration = Duration::from_millis(10);

/// Traced runs: no-traffic window for the idle CPU reading.
const IDLE_WINDOW: Duration = Duration::from_millis(1500);
/// Traced runs: requests per verb in the one-outstanding closed loop.
const UNLOADED_REQUESTS: usize = 15;
/// Traced runs: length of each single-verb open-loop phase the CPU cost
/// per request is read over, and the rates offered in them.
const CPU_PHASE: Duration = Duration::from_millis(2500);
const CPU_PHASE_SIGN_RATE: f64 = 15.0;
const CPU_PHASE_VERIFY_RATE: f64 = 150.0;
/// Traced runs: all-valid Verify requests for the in-process gateway
/// probes (five full buffers).
const PROBE_VERIFIES: usize = 5 * 64;
/// Traced runs: Sign messages replayed by the in-process `core` probes.
const PROBE_SIGNS: usize = 16;

#[derive(Clone, Copy)]
struct DaemonWorkload {
    sign_rate: f64,
    verify_rate: f64,
    /// Share of Verify requests carrying a signature over another message.
    forged_share: f64,
    /// Closed loop: requests kept in flight, in the open loop's mix.
    outstanding: usize,
    /// Closed loop: requests generated per second of window. Above the
    /// capacity measured on the 2-core build host (≈ 46 Sign/s, ≈ 580
    /// Verify/s, ≈ 220/s mixed), so the pool outlasts the window
    /// without ever repeating a message.
    pool_rate: f64,
}

#[derive(Clone, Copy)]
enum Workload {
    Daemon(DaemonWorkload),
    Dkg { n: usize, t: usize },
}

fn workload(name: &str) -> Option<Workload> {
    let batch = GatewayConfig::default().max_batch;
    Some(match name {
        // 15/s, not the issue's 20/s: closed-loop capacity on the build
        // host ranged 29–49 Sign/s over an afternoon, and the slow end is
        // below 1.6 × 20.
        "sign" => Workload::Daemon(DaemonWorkload {
            sign_rate: 15.0,
            verify_rate: 0.0,
            forged_share: 0.0,
            outstanding: MAX_IN_FLIGHT,
            pool_rate: 80.0,
        }),
        "verify" => Workload::Daemon(DaemonWorkload {
            sign_rate: 0.0,
            verify_rate: 150.0,
            forged_share: 0.0,
            outstanding: batch,
            pool_rate: 800.0,
        }),
        "mixed" => Workload::Daemon(DaemonWorkload {
            sign_rate: 10.0,
            verify_rate: 80.0,
            forged_share: 0.02,
            outstanding: MAX_IN_FLIGHT + batch,
            pool_rate: 400.0,
        }),
        "dkg_n16" => Workload::Dkg { n: 16, t: 7 },
        "dkg_n32" => Workload::Dkg { n: 32, t: 15 },
        _ => return None,
    })
}

struct Args {
    /// When the process started; DKG set-up time counts from here.
    started: Instant,
    workload_name: String,
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    service_bin: PathBuf,
    out_dir: PathBuf,
}

fn parse_args(started: Instant) -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = HashMap::new();
    for pair in raw.chunks(2) {
        match pair {
            [key, value] if key.starts_with("--") => flags.insert(&key[2..], value.as_str()),
            _ => return Err(format!("expected --flag value pairs, got {:?}", pair)),
        };
    }
    let get = |key: &str| flags.get(key).copied().ok_or(format!("missing --{}", key));
    let workload_name = get("workload")?.to_string();
    let seconds: u64 = get("seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(Args {
        started,
        workload: workload(&workload_name)
            .ok_or(format!("unknown workload {:?}", workload_name))?,
        workload_name,
        seed: get("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: Duration::from_secs(seconds),
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {:?}", other)),
        },
        service_bin: get("service-bin")?.into(),
        out_dir: get("out-dir")?.into(),
    })
}

/// What a run produced, whichever workload it was.
struct Outcome {
    report: Report,
    /// `metric value unit` lines printed for information only: numbers
    /// too unsteady on the build host to gate a PR on.
    info: Vec<String>,
    attempted: usize,
    failed: usize,
    tracer: Option<Tracer>,
}

/// Seeded request pools. Phases claim disjoint index ranges front to
/// back, so no request is ever offered twice.
struct Pools {
    signs: Vec<Request>,
    verifies: Vec<Request>,
    claimed_signs: Cell<usize>,
    claimed_verifies: Cell<usize>,
    /// Seconds spent generating.
    generated_in: f64,
}

impl Pools {
    fn generate(seed: u64, signs: usize, verifies: usize, forged_share: f64) -> Pools {
        let start = Instant::now();
        let scheme = inputs::aggregate_scheme();
        let auths = inputs::authorities(&scheme, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF02E);
        let forged = schedule::forged_positions(verifies, forged_share, &mut rng);
        let signs = inputs::sign_requests(seed, signs);
        let verifies = inputs::verify_requests(&scheme, &auths, seed, verifies, &forged);
        Pools {
            signs,
            verifies,
            claimed_signs: Cell::new(0),
            claimed_verifies: Cell::new(0),
            generated_in: start.elapsed().as_secs_f64(),
        }
    }

    /// The next `count` unclaimed requests of `verb`.
    fn claim(&self, verb: Verb, count: usize) -> &[Request] {
        let (claimed, pool) = match verb {
            Verb::Sign => (&self.claimed_signs, &self.signs),
            Verb::Verify => (&self.claimed_verifies, &self.verifies),
        };
        let start = claimed.replace(claimed.get() + count);
        assert!(start + count <= pool.len(), "request pool sized too small");
        &pool[start..start + count]
    }

    /// Claims the requests an open-loop schedule offers, in its order.
    fn claim_for(&self, arrivals: &[Arrival]) -> Vec<&Request> {
        let count = |verb| arrivals.iter().filter(|a| a.verb == verb).count();
        let mut signs = self.claim(Verb::Sign, count(Verb::Sign)).iter();
        let mut verifies = self.claim(Verb::Verify, count(Verb::Verify)).iter();
        arrivals
            .iter()
            .map(|a| match a.verb {
                Verb::Sign => signs.next().expect("counted"),
                Verb::Verify => verifies.next().expect("counted"),
            })
            .collect()
    }

    fn by_id(&self) -> HashMap<u64, &Request> {
        self.signs
            .iter()
            .chain(&self.verifies)
            .map(|r| (r.id, r))
            .collect()
    }
}

fn arrivals_for(sign_rate: f64, verify_rate: f64, window: Duration, seed: u64) -> Vec<Arrival> {
    schedule::open_loop(
        sign_rate,
        verify_rate,
        window,
        &mut StdRng::seed_from_u64(seed),
    )
}

/// Rejects an open-loop phase that saturated the system or whose
/// generator fell behind: its latencies would describe the backlog, not
/// the system at the offered rate.
fn check_open_phase(phase: &OpenPhase) -> Result<(), String> {
    let completed = phase.samples.iter().filter(|s| s.arrived.is_some()).count();
    let offered = phase.samples.len();
    if (completed as f64) < MIN_COMPLETED_SHARE * offered as f64 {
        return Err(format!(
            "invalid run: {} of {} offered requests completed",
            completed, offered
        ));
    }
    if phase.drain > MAX_DRAIN {
        return Err(format!("invalid run: drain took {:?}", phase.drain));
    }
    if phase.late_p95 > MAX_GENERATOR_LATE {
        return Err(format!(
            "invalid run: generator ran {:?} late at its 95th percentile",
            phase.late_p95
        ));
    }
    Ok(())
}

/// The information lines for a latency sample: its tail (the highest
/// percentile with at least ten samples beyond it, or the worst sample)
/// and its size.
fn tail_lines(metric: &str, latencies_ms: &[f64]) -> [String; 2] {
    let rung = stats::tail_percentile(latencies_ms.len())
        .map_or("max".to_string(), |q| format!("p{}", q));
    [
        format!("{}_{}_ms {} ms", metric, rung, tail(latencies_ms)),
        format!("{}_samples {} count", metric, latencies_ms.len()),
    ]
}

fn latencies_ms(samples: &[Sample], verb: Verb) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.verb == verb)
        .filter_map(Sample::latency_ms)
        .collect()
}

/// Offers one open-loop schedule to the deployment and validates it.
fn offer(
    deployment: &mut Deployment,
    requests: &[&Request],
    arrivals: &[Arrival],
) -> Result<OpenPhase, String> {
    let phase = open_loop(deployment, requests, arrivals)?;
    check_open_phase(&phase)?;
    Ok(phase)
}

/// The untraced daemon run: set-up, one open-loop phase, one
/// closed-loop phase, then the checks.
fn run_daemon(args: &Args, w: DaemonWorkload) -> Result<Outcome, String> {
    let open_window = args.seconds.mul_f64(OPEN_SHARE);
    let closed_window = args.seconds - open_window;
    let arrivals = arrivals_for(w.sign_rate, w.verify_rate, open_window, args.seed);
    // The closed loop draws from a pool in the open loop's mix; only
    // the order of this schedule is used, not its times.
    let scale = w.pool_rate / (w.sign_rate + w.verify_rate);
    let closed_mix = arrivals_for(
        w.sign_rate * scale,
        w.verify_rate * scale,
        closed_window,
        args.seed ^ 3,
    );
    let count = |verb| {
        arrivals
            .iter()
            .chain(&closed_mix)
            .filter(|a| a.verb == verb)
            .count()
    };
    let pools = Pools::generate(
        args.seed,
        count(Verb::Sign),
        count(Verb::Verify),
        w.forged_share,
    );
    eprintln!("benchmark: inputs generated in {:.3} s", pools.generated_in);

    let mut deployment = Deployment::launch(&args.service_bin, args.seed)?;
    let setup_s = deployment.setup.as_secs_f64();
    let open = offer(&mut deployment, &pools.claim_for(&arrivals), &arrivals)?;
    let closed = closed_loop(
        &mut deployment,
        &pools.claim_for(&closed_mix),
        w.outstanding,
        closed_window,
    )?;
    let peak_rss = procfs::peak_rss_mb_of(&deployment.pids())?;
    let summary = deployment.shutdown()?;

    let requests = pools.by_id();
    let scheme = dkg::scheme();
    let mut attempted = 0;
    let mut failed = 0;
    for samples in [&open.samples, &closed.samples] {
        attempted += samples.len();
        failed += count_failed(samples, &requests, &scheme, &summary.public_key);
    }

    // `mixed` offers both verbs: Verify is the most frequent operation,
    // Sign the heaviest. The other workloads have one operation.
    let frequent = if w.verify_rate > w.sign_rate {
        Verb::Verify
    } else {
        Verb::Sign
    };
    let heaviest = if w.sign_rate > 0.0 {
        Verb::Sign
    } else {
        Verb::Verify
    };
    let frequent_ms = latencies_ms(&open.samples, frequent);
    let heaviest_ms = latencies_ms(&open.samples, heaviest);
    let mut report = Report::default();
    report.set("setup_s", setup_s);
    report.set("latency_p50_ms", median(&frequent_ms));
    report.set("latency_heaviest_p50_ms", median(&heaviest_ms));
    report.set(
        "throughput_ops_s",
        closed
            .ops_per_sec
            .ok_or("closed-loop window shorter than its ramp")?,
    );
    report.set("peak_rss_mb", peak_rss);
    eprintln!(
        "benchmark: open loop: {} samples, generator p95 {:?} / at most {:?} late, drained in {:?}; closed loop: {} completions counted",
        open.samples.len(),
        open.late_p95,
        open.late_max,
        open.drain,
        closed.counted
    );
    let mut info = tail_lines("latency", &frequent_ms).to_vec();
    if heaviest != frequent {
        info.extend(tail_lines("latency_heaviest", &heaviest_ms));
    }
    Ok(Outcome {
        report,
        info,
        attempted,
        failed,
        tracer: None,
    })
}

/// The layer probes every traced run takes, whatever its workload.
fn common_layers(report: &mut Report, seed: u64) -> Result<(), String> {
    // A pool of its own (other seed, all valid): the in-process gateway
    // probes never see a request the daemon is offered.
    let probe_pool = Pools::generate(seed ^ 0x9E0B, PROBE_SIGNS, PROBE_VERIFIES, 0.0);
    let messages: Vec<&[u8]> = probe_pool.signs.iter().map(|r| r.msg.as_slice()).collect();
    let fixture = layers::SignFixture::new(seed)?;
    report.set("bench.inputs_s", probe_pool.generated_in);

    layers::pairing(report, seed);
    layers::core_sign(report, &fixture, &messages);
    layers::core_netsign(report, &fixture, &messages)?;
    layers::core_gateway(
        report,
        &inputs::aggregate_scheme(),
        seed,
        &probe_pool.verifies,
    )?;
    layers::shamir(report, seed);
    layers::net(report, &fixture, seed)?;
    layers::service_framing(report, &fixture)
}

/// The traced daemon run: the common layer probes, then one deployment
/// observed from outside — idle, one request at a time, one verb at a
/// time, and under the workload's own (shortened) open-loop schedule
/// with client-side spans.
fn trace_daemon(args: &Args, w: DaemonWorkload) -> Result<Outcome, String> {
    // Span times count from the tracer's creation.
    let mut tracer = Tracer::new();
    let mut report = Report::default();
    common_layers(&mut report, args.seed)?;

    let window = args.seconds.mul_f64(1.0 - OPEN_SHARE);
    let arrivals = arrivals_for(w.sign_rate, w.verify_rate, window, args.seed);
    let sign_phase = arrivals_for(CPU_PHASE_SIGN_RATE, 0.0, CPU_PHASE, args.seed ^ 1);
    let verify_phase = arrivals_for(0.0, CPU_PHASE_VERIFY_RATE, CPU_PHASE, args.seed ^ 2);
    let count = |verb| {
        UNLOADED_REQUESTS
            + [&arrivals, &sign_phase, &verify_phase]
                .iter()
                .flat_map(|a| a.iter())
                .filter(|a| a.verb == verb)
                .count()
    };
    let pools = Pools::generate(
        args.seed,
        count(Verb::Sign),
        count(Verb::Verify),
        w.forged_share,
    );
    report.set(
        "bench.inputs_s",
        report.get("bench.inputs_s").expect("set by the probes") + pools.generated_in,
    );
    let requests = pools.claim_for(&arrivals);

    // The gateway's amortisation on this schedule, with no processing
    // time and no sockets: what batching alone decides.
    let replayed: Vec<(Duration, &Request)> = arrivals
        .iter()
        .zip(&requests)
        .filter(|(a, _)| a.verb == Verb::Verify)
        .map(|(a, r)| (a.at, *r))
        .collect();
    let (gateway_stats, misjudged) =
        layers::gateway_replay(&inputs::aggregate_scheme(), args.seed, &replayed);
    layers::gateway_counts(&mut report, &gateway_stats);

    let launched = Instant::now();
    let mut deployment = Deployment::launch(&args.service_bin, args.seed)?;
    let pids = deployment.pids();
    let cpu = || procfs::cpu_time_of(&pids);

    let idle_start = cpu()?;
    std::thread::sleep(IDLE_WINDOW);
    report.set(
        "service.idle_cpu_frac",
        (cpu()? - idle_start).as_secs_f64() / IDLE_WINDOW.as_secs_f64(),
    );

    let mut samples: Vec<Sample> = Vec::new();
    for (verb, metric) in [
        (Verb::Sign, "service.sign_unloaded_p50_ms"),
        (Verb::Verify, "service.verify_unloaded_p50_ms"),
    ] {
        let pool: Vec<&Request> = pools.claim(verb, UNLOADED_REQUESTS).iter().collect();
        // Ends when the pool runs dry, long before the window does.
        let phase = closed_loop(&mut deployment, &pool, 1, args.seconds)?;
        report.set(metric, median(&latencies_ms(&phase.samples, verb)));
        samples.extend(phase.samples);
    }
    report.set(
        "service.sign_overhead_ms",
        report
            .get("service.sign_unloaded_p50_ms")
            .expect("set above")
            - report
                .get("core.sign_crypto_ms")
                .expect("set by the probes"),
    );

    for (phase_arrivals, metric) in [
        (&sign_phase, "service.cpu_ms_per_sign"),
        (&verify_phase, "service.cpu_ms_per_verify"),
    ] {
        let before = cpu()?;
        let phase = offer(
            &mut deployment,
            &pools.claim_for(phase_arrivals),
            phase_arrivals,
        )?;
        let spent = (cpu()? - before).as_secs_f64() * 1e3;
        report.set(metric, spent / phase.samples.len() as f64);
        samples.extend(phase.samples);
    }

    // The workload's own schedule, with spans. On the clock the traced
    // and the untraced run execute the same code: the spans are built
    // afterwards from stamps both take, so there is no tracing overhead
    // to report here (the DKG workloads, whose wrapper runs on the
    // clock, report theirs).
    let phase = offer(&mut deployment, &requests, &arrivals)?;
    record_spans(&mut tracer, &phase.samples);
    report.set("bench.gen_late_max_ms", phase.late_max.as_secs_f64() * 1e3);
    for (verb, p50, p99) in [
        (Verb::Sign, "bench.sign_p50_ms", "bench.sign_p99_ms"),
        (Verb::Verify, "bench.verify_p50_ms", "bench.verify_p99_ms"),
    ] {
        let latencies = latencies_ms(&phase.samples, verb);
        if !latencies.is_empty() {
            report.set(p50, median(&latencies));
            report.set(p99, percentile(&latencies, 99));
        }
    }
    samples.extend(phase.samples);

    let summary = deployment.shutdown()?;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    report.set("service.sign_internal_p50_ms", ms(summary.sign_latency.p50));
    report.set(
        "service.verify_internal_p50_ms",
        ms(summary.verify_latency.p50),
    );
    report.set("service.high_water", summary.high_water as f64);
    // `Summary` is the only view of the sockets and comes once, at
    // shutdown, so this is a rate over the deployment's whole life
    // (DKG mesh and idle rounds included), not a cost per request.
    report.set(
        "net.frames_per_s",
        summary.transport.frames_out as f64 / launched.elapsed().as_secs_f64(),
    );

    let failed = misjudged
        + count_failed(
            &samples,
            &pools.by_id(),
            &dkg::scheme(),
            &summary.public_key,
        );
    Ok(Outcome {
        report,
        info: Vec::new(),
        attempted: samples.len() + replayed.len(),
        failed,
        tracer: Some(tracer),
    })
}

/// Seeds of the sessions of one run, derived from `--seed`.
fn session_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64)
}

/// The throwaway n=4 session over reactor sockets that fills the lazy
/// fixed-base tables.
fn dkg_warm_up(seed: u64) -> Result<(), String> {
    let scheme = dkg::scheme();
    let params = ThresholdParams::new(1, 4).expect("valid (t, n)");
    let session = dkg::session(&scheme, params, seed)?;
    if dkg::players_agree(&scheme, &session.km) {
        Ok(())
    } else {
        Err("set-up session: players disagree on the key".into())
    }
}

/// The untraced DKG run: sessions back to back for about `--seconds`,
/// each checked off the clock.
fn run_dkg(args: &Args, n: usize, t: usize) -> Result<Outcome, String> {
    dkg_warm_up(args.seed)?;
    // The tables fill once per process, so this is the one cold sample
    // a process can take.
    let setup_s = args.started.elapsed().as_secs_f64();
    let scheme = dkg::scheme();
    let params = ThresholdParams::new(t, n).expect("valid (t, n)");

    // Another session starts while at least half of it still fits in
    // the window, so a run overshoots `--seconds` by at most half a
    // session.
    let start = Instant::now();
    let mut sessions: Vec<dkg::Session> = Vec::new();
    while sessions
        .last()
        .is_none_or(|last| start.elapsed() + last.wall / 2 < args.seconds)
    {
        let seed = session_seed(args.seed, sessions.len());
        sessions.push(dkg::session(&scheme, params, seed)?);
    }
    let measured = start.elapsed();

    let failed = sessions
        .iter()
        .filter(|s| !dkg::players_agree(&scheme, &s.km))
        .count();
    let walls_ms: Vec<f64> = sessions
        .iter()
        .map(|s| s.wall.as_secs_f64() * 1e3)
        .collect();
    let mut report = Report::default();
    report.set("setup_s", setup_s);
    report.set("latency_p50_ms", median(&walls_ms));
    report.set("latency_heaviest_p50_ms", median(&walls_ms));
    report.set(
        "throughput_ops_s",
        sessions.len() as f64 / measured.as_secs_f64(),
    );
    report.set("peak_rss_mb", procfs::peak_rss_mb(std::process::id())?);
    Ok(Outcome {
        report,
        info: tail_lines("latency", &walls_ms).to_vec(),
        attempted: sessions.len(),
        failed,
        tracer: None,
    })
}

/// The traced DKG run: the common layer probes, then one session with
/// every player's every round timed, and the same seed over `Lockstep`.
fn trace_dkg(args: &Args, n: usize, t: usize) -> Result<Outcome, String> {
    let mut report = Report::default();
    common_layers(&mut report, args.seed)?;
    dkg_warm_up(args.seed)?;
    let params = ThresholdParams::new(t, n).expect("valid (t, n)");
    let mut tracer = Tracer::new();
    let overhead = dkg::traced_session(
        &mut report,
        &mut tracer,
        &dkg::scheme(),
        params,
        session_seed(args.seed, 0),
    )?;
    report.set("bench.trace_overhead_frac", overhead);
    Ok(Outcome {
        report,
        info: Vec::new(),
        attempted: 1,
        failed: 0,
        tracer: Some(tracer),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match (args.workload, args.trace) {
        (Workload::Daemon(w), false) => run_daemon(args, w),
        (Workload::Daemon(w), true) => trace_daemon(args, w),
        (Workload::Dkg { n, t }, false) => run_dkg(args, n, t),
        (Workload::Dkg { n, t }, true) => trace_dkg(args, n, t),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(started) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {}", e);
            return ExitCode::from(2);
        }
    };
    let outcome = host::AwakeCpus::start().and_then(|_awake| run(&args));
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark: {}: {}", args.workload_name, e);
            return ExitCode::FAILURE;
        }
    };
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    let correct = outcome.failed == 0;
    let result = outcome
        .report
        .result_json(registry, correct, outcome.attempted, outcome.failed);
    let suffix = if args.trace { ".layers" } else { "" };
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| {
            let path = args
                .out_dir
                .join(format!("{}{}.json", args.workload_name, suffix));
            std::fs::write(path, format!("{}\n", result))
        })
        .and_then(|()| match &outcome.tracer {
            Some(tracer) => tracer.write_json(
                &args
                    .out_dir
                    .join(format!("{}.trace.json", args.workload_name)),
            ),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("benchmark: writing results: {}", e);
        return ExitCode::FAILURE;
    }
    print!("{}", outcome.report.lines(&args.workload_name));
    for line in &outcome.info {
        println!("{} {}", args.workload_name, line);
    }
    println!(
        "{} failed_frac {} ratio",
        args.workload_name,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", result);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
