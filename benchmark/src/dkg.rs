//! The `Dist-Keygen` workloads: full sessions over loopback reactor
//! sockets, checked player by player, and the traced variant that times
//! every player's every round.

use crate::daemon::DOMAIN;
use crate::procfs;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use borndist::core::ro::{KeyMaterial, PartialSignature, ThresholdScheme};
use borndist::dkg::{dkg_players, DkgAbort, DkgMessage, DkgOutput};
use borndist::net::{
    run_protocol, BoxedPlayer, Delivered, DeliveryPolicy, PlayerId, Protocol, RoundAction,
    TransportKind,
};
use borndist::shamir::ThresholdParams;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Round budget of one session (deal, complain, answer, finalize, plus
/// slack) — the same budget `dkg_session` runs with.
const ROUND_BUDGET: usize = 8;
/// A session that takes longer than this is a failure.
const SESSION_TIMEOUT: Duration = Duration::from_secs(60);

pub fn scheme() -> ThresholdScheme {
    ThresholdScheme::new(DOMAIN.as_bytes())
}

fn reactor() -> TransportKind {
    TransportKind::TcpReactor(DeliveryPolicy::reliable())
}

/// One timed session over reactor sockets.
pub struct Session {
    pub wall: Duration,
    pub km: KeyMaterial,
}

/// Runs one full session (`keygen_session`: protocol plus key
/// assembly) over loopback reactor sockets.
pub fn session(
    scheme: &ThresholdScheme,
    params: ThresholdParams,
    seed: u64,
) -> Result<Session, String> {
    let start = Instant::now();
    let (km, _) = scheme
        .keygen_session(params, &BTreeMap::new(), seed, &reactor())
        .map_err(|e| format!("Dist-Keygen n={}: {}", params.n, e))?;
    let wall = start.elapsed();
    if wall > SESSION_TIMEOUT {
        return Err(format!("Dist-Keygen n={} took {:?}", params.n, wall));
    }
    Ok(Session { wall, km })
}

/// `true` iff the players of a session agree on the key: every player
/// is qualified and holds a share, every share signs a partial that
/// verifies under that player's public verification key, and `t + 1` of
/// those partials combine to a signature valid under the public key.
/// Runs off the clock.
pub fn players_agree(scheme: &ThresholdScheme, km: &KeyMaterial) -> bool {
    let n = km.params.n;
    if km.shares.len() != n || km.qualified.len() != n {
        return false;
    }
    let msg = b"dist-keygen agreement check";
    let partials: Vec<PartialSignature> = km
        .shares
        .values()
        .map(|share| scheme.share_sign(share, msg))
        .collect();
    let consistent = borndist::parallel::par_map(&partials, |p| {
        scheme.share_verify(&km.verification_keys[&p.index], msg, p)
    });
    consistent.iter().all(|ok| *ok)
        && scheme
            .combine(&km.params, &partials[..km.params.reconstruction_size()])
            .is_ok_and(|sig| scheme.verify(&km.public_key, msg, &sig))
}

/// One `round()` call of one player, as the wrapper saw it.
struct RoundSample {
    player: PlayerId,
    round: usize,
    start: Instant,
    end: Instant,
    /// Time the calling thread spent on a CPU inside the call. With
    /// more player threads than cores, `end - start` also counts the
    /// time the thread waited for one.
    on_cpu: Duration,
}

#[derive(Default)]
struct RoundLog {
    samples: Vec<RoundSample>,
    /// Time the wrapper itself spent recording.
    bookkeeping: Duration,
}

/// Times every `round()` of the wrapped player. Defined here, around
/// the entries of `dkg_players`, because spans inside the protocol
/// crates are a later change.
struct Timed<P: ?Sized> {
    log: Arc<Mutex<RoundLog>>,
    inner: Box<P>,
}

impl<P: Protocol + ?Sized> Protocol for Timed<P> {
    type Message = P::Message;
    type Output = P::Output;

    fn round(
        &mut self,
        round: usize,
        inbox: &[Delivered<P::Message>],
    ) -> RoundAction<P::Message, P::Output> {
        let entered = Instant::now();
        let cpu_start = procfs::thread_cpu_time();
        let start = Instant::now();
        let action = self.inner.round(round, inbox);
        let end = Instant::now();
        let on_cpu = procfs::thread_cpu_time().saturating_sub(cpu_start);
        let mut log = self.log.lock().expect("round log poisoned");
        log.samples.push(RoundSample {
            player: self.inner.id(),
            round,
            start,
            end,
            on_cpu,
        });
        log.bookkeeping += (start - entered) + end.elapsed();
        action
    }

    fn id(&self) -> PlayerId {
        self.inner.id()
    }
}

/// Runs one session with every player wrapped in [`Timed`], then the
/// same seed over `Lockstep`, and reports the `dkg.*` layer metrics.
/// Returns the share of the traced session spent on span bookkeeping.
pub fn traced_session(
    report: &mut Report,
    tracer: &mut Tracer,
    scheme: &ThresholdScheme,
    params: ThresholdParams,
    seed: u64,
) -> Result<f64, String> {
    let cfg = scheme.dkg_config(params);
    let log = Arc::new(Mutex::new(RoundLog::default()));
    let players: Vec<BoxedPlayer<DkgMessage, Result<DkgOutput, DkgAbort>>> =
        dkg_players(&cfg, &BTreeMap::new(), seed)
            .into_iter()
            .map(|inner| {
                Box::new(Timed {
                    log: Arc::clone(&log),
                    inner,
                }) as _
            })
            .collect();
    let start = Instant::now();
    let (outputs, metrics) = run_protocol(&reactor(), players, ROUND_BUDGET)
        .map_err(|e| format!("traced Dist-Keygen n={}: {}", params.n, e))?;
    let protocol_end = Instant::now();
    // What each deployed player does with its own output; timed for one.
    let first = outputs
        .get(&1)
        .and_then(|o| o.as_ref().ok())
        .ok_or("player 1 aborted")?;
    std::hint::black_box(scheme.key_material_from_output(params, 1, first));
    let end = Instant::now();
    let wall = end - start;

    let agreed = outputs.values().all(|o| {
        o.as_ref().is_ok_and(|o| {
            o.combined_commitments == first.combined_commitments && o.qualified == first.qualified
        })
    });
    if !agreed {
        return Err(format!(
            "traced Dist-Keygen n={}: players disagree",
            params.n
        ));
    }

    let log = std::mem::take(&mut *log.lock().expect("round log poisoned"));
    let root = tracer.record("dkg.session", start, end, None, seed);
    let protocol = tracer.record("net.run_protocol", start, protocol_end, Some(root), seed);
    tracer.record("dkg.assemble", protocol_end, end, Some(root), seed);
    let mut by_round: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut by_player: BTreeMap<PlayerId, f64> = BTreeMap::new();
    for s in &log.samples {
        let secs = (s.end - s.start).as_secs_f64();
        by_round.entry(s.round).or_default().push(secs);
        *by_player.entry(s.player).or_default() += secs;
        tracer.record(
            &format!("dkg.round{}.player{}", s.round, s.player),
            s.start,
            s.end,
            Some(protocol),
            seed,
        );
    }
    for (metric, round) in [
        ("dkg.r0_compute_ms", 0),
        ("dkg.r1_compute_ms", 1),
        ("dkg.r2_compute_ms", 2),
        ("dkg.r3_compute_ms", 3),
    ] {
        if let Some(samples) = by_round.get(&round) {
            report.set(metric, median(samples) * 1e3);
        }
    }
    report.set("dkg.compute_sum_s", by_player.values().sum());
    report.set(
        "dkg.compute_cpu_s",
        log.samples.iter().map(|s| s.on_cpu.as_secs_f64()).sum(),
    );
    report.set(
        "dkg.critical_path_s",
        by_player.values().copied().fold(0.0, f64::max),
    );
    report.set("dkg.assemble_ms", (end - protocol_end).as_secs_f64() * 1e3);
    report.set("dkg.rounds", metrics.total_rounds as f64);
    report.set("dkg.messages", metrics.messages as f64);
    report.set(
        "dkg.bytes_per_player",
        metrics.bytes as f64 / params.n as f64,
    );

    let lockstep_start = Instant::now();
    scheme
        .keygen_session(params, &BTreeMap::new(), seed, &TransportKind::Lockstep)
        .map_err(|e| format!("lockstep Dist-Keygen n={}: {}", params.n, e))?;
    let lockstep = lockstep_start.elapsed();
    report.set("dkg.session_s", wall.as_secs_f64());
    report.set("dkg.lockstep_s", lockstep.as_secs_f64());
    report.set(
        "dkg.socket_overhead_s",
        wall.as_secs_f64() - lockstep.as_secs_f64(),
    );
    Ok(log.bookkeeping.as_secs_f64() / wall.as_secs_f64())
}
