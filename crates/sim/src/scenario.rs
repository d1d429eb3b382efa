//! The scenario matrix: named adversarial runs (four of the DKG, one of
//! the signing mesh) with machine-checkable success criteria, one CI
//! gate per scenario.

use crate::adversary::{
    adaptive_dkg_players, Adversary, AdversaryScript, CorruptAction, CorruptionRule, ForgingSigner,
    Watched,
};
use borndist_core::netsign::{
    run_mux_sign, MuxCoordinator, MuxMessage, MuxOutcome, MuxSignerPlayer,
};
use borndist_core::ro::{Committee, ThresholdScheme};
use borndist_dkg::{dkg_session, standard_config, Behavior, DkgAbort, DkgConfig, DkgOutput};
use borndist_net::{
    run_protocol, BoxedPlayer, DeliveryPolicy, Metrics, Outage, PlayerId, TransportKind,
};
use borndist_pairing::G2Affine;
use borndist_shamir::{PedersenShare, ThresholdParams};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// Every scenario of the matrix, in CI order.
pub const SCENARIOS: &[&str] = &[
    "equivocation",
    "adaptive-corruption",
    "complaint-flood",
    "churn",
    "forged-partials",
];

/// One machine-checked success criterion of a scenario run.
#[derive(Clone, Debug)]
pub struct Criterion {
    /// Stable criterion name (what CI logs key on).
    pub name: &'static str,
    /// Whether the run satisfied it.
    pub pass: bool,
    /// Human-readable evidence (counts, sets, byte totals).
    pub detail: String,
}

/// The outcome of one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name (one of [`SCENARIOS`]).
    pub name: String,
    /// Committee size.
    pub n: usize,
    /// Corruption threshold.
    pub t: usize,
    /// Players the adversary corrupted mid-protocol (empty for the
    /// statically scripted scenarios).
    pub corrupted: Vec<PlayerId>,
    /// The qualified dealer set the honest players agreed on.
    pub qualified: Vec<PlayerId>,
    /// All criteria with their verdicts.
    pub criteria: Vec<Criterion>,
}

impl ScenarioReport {
    /// `true` iff every criterion passed.
    pub fn all_pass(&self) -> bool {
        self.criteria.iter().all(|c| c.pass)
    }
}

impl core::fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "scenario {} (n={}, t={}): corrupted={:?} qualified={:?}",
            self.name, self.n, self.t, self.corrupted, self.qualified
        )?;
        for c in &self.criteria {
            writeln!(
                f,
                "  [{}] {:<24} {}",
                if c.pass { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            )?;
        }
        Ok(())
    }
}

fn cfg_for(t: usize, n: usize) -> DkgConfig {
    let params = ThresholdParams::new(t, n).expect("valid scenario parameters");
    standard_config(params, 2, b"borndist/sim/scenario", false)
}

type Outputs = BTreeMap<PlayerId, Result<DkgOutput, DkgAbort>>;

/// The honest players' `(qualified, public key)` agreement value, if
/// they all completed and agree; `None` otherwise.
fn agreement(
    outputs: &Outputs,
    honest: &BTreeSet<PlayerId>,
) -> Option<(BTreeSet<PlayerId>, Vec<G2Affine>)> {
    let mut value: Option<(BTreeSet<PlayerId>, Vec<G2Affine>)> = None;
    for id in honest {
        let out = outputs.get(id)?.as_ref().ok()?;
        let this = (out.qualified.clone(), out.public_key_coordinates());
        match &value {
            None => value = Some(this),
            Some(v) if *v == this => {}
            Some(_) => return None,
        }
    }
    value
}

/// `true` if `id`'s final share opens every combined commitment at its
/// index — the paper's share-correctness guarantee.
fn shares_verify(cfg: &DkgConfig, id: PlayerId, out: &DkgOutput) -> bool {
    out.share.len() == out.combined_commitments.len()
        && out
            .share
            .iter()
            .zip(out.combined_commitments.iter())
            .all(|(&(a, b), com)| com.verify_share(&cfg.bases, &PedersenShare { index: id, a, b }))
}

fn completes(outputs: &Outputs, honest: &BTreeSet<PlayerId>) -> Criterion {
    let failed: Vec<PlayerId> = honest
        .iter()
        .filter(|id| !matches!(outputs.get(id), Some(Ok(_))))
        .copied()
        .collect();
    Criterion {
        name: "completes",
        pass: failed.is_empty(),
        detail: if failed.is_empty() {
            format!("all {} honest players finished with a share", honest.len())
        } else {
            format!("honest players without output: {:?}", failed)
        },
    }
}

fn honest_shares_verify(
    cfg: &DkgConfig,
    outputs: &Outputs,
    honest: &BTreeSet<PlayerId>,
) -> Criterion {
    let bad: Vec<PlayerId> = honest
        .iter()
        .filter(|id| match outputs.get(id) {
            Some(Ok(out)) => !shares_verify(cfg, **id, out),
            _ => true,
        })
        .copied()
        .collect();
    Criterion {
        name: "honest-shares-verify",
        pass: bad.is_empty(),
        detail: if bad.is_empty() {
            "every honest share opens the combined commitments".to_string()
        } else {
            format!("invalid shares at: {:?}", bad)
        },
    }
}

fn qualified_of(outputs: &Outputs, honest: &BTreeSet<PlayerId>) -> Vec<PlayerId> {
    honest
        .iter()
        .find_map(|id| match outputs.get(id) {
            Some(Ok(out)) => Some(out.qualified.iter().copied().collect()),
            _ => None,
        })
        .unwrap_or_default()
}

/// Runs one named scenario of the matrix.
///
/// # Errors
///
/// `Err` on an unknown scenario name or a transport failure; a scenario
/// whose *criteria* fail still returns `Ok` (the report carries the
/// verdicts — CI asserts on [`ScenarioReport::all_pass`]).
pub fn run_scenario(name: &str, seed: u64) -> Result<ScenarioReport, String> {
    match name {
        "equivocation" => equivocation(seed),
        "adaptive-corruption" => adaptive_corruption(seed),
        "complaint-flood" => complaint_flood(seed),
        "churn" => churn(seed),
        "forged-partials" => forged_partials(seed),
        other => Err(format!(
            "unknown scenario {:?}; known: {:?}",
            other, SCENARIOS
        )),
    }
}

/// Two equivocating/malformed dealers (2 broadcasts two conflicting
/// commitment messages, 5 broadcasts the wrong width). Both must be
/// disqualified by *every* honest player, the run must complete, and
/// the traffic must be byte-identical across transports (the broadcast
/// misbehavior is deterministic).
fn equivocation(seed: u64) -> Result<ScenarioReport, String> {
    let (t, n) = (3, 9);
    let cfg = cfg_for(t, n);
    let mut behaviors: BTreeMap<PlayerId, Behavior> = BTreeMap::new();
    behaviors.insert(
        2,
        Behavior {
            equivocate_commitments: true,
            ..Behavior::default()
        },
    );
    behaviors.insert(
        5,
        Behavior {
            bad_commitment_width: true,
            ..Behavior::default()
        },
    );
    let honest: BTreeSet<PlayerId> = (1..=n as PlayerId)
        .filter(|i| ![2, 5].contains(i))
        .collect();
    let (out_lock, m_lock) =
        dkg_session(&cfg, &behaviors, seed, &TransportKind::Lockstep).map_err(|e| e.to_string())?;
    let (_, m_rx) = dkg_session(
        &cfg,
        &behaviors,
        seed,
        &TransportKind::TcpReactor(DeliveryPolicy::reliable()),
    )
    .map_err(|e| e.to_string())?;

    let agreed = agreement(&out_lock, &honest);
    let qualified = qualified_of(&out_lock, &honest);
    let disqualified = !qualified.contains(&2) && !qualified.contains(&5);
    let criteria = vec![
        completes(&out_lock, &honest),
        Criterion {
            name: "agreement",
            pass: agreed.is_some(),
            detail: "honest players agree on Q and the public key".to_string(),
        },
        Criterion {
            name: "equivocators-disqualified",
            pass: disqualified,
            detail: format!(
                "qualified = {:?} (players 2 and 5 must be absent)",
                qualified
            ),
        },
        honest_shares_verify(&cfg, &out_lock, &honest),
        transport_parity(&m_lock, &m_rx),
    ];
    Ok(ScenarioReport {
        name: "equivocation".into(),
        n,
        t,
        corrupted: vec![],
        qualified,
        criteria,
    })
}

fn transport_parity(a: &Metrics, b: &Metrics) -> Criterion {
    Criterion {
        name: "transport-parity",
        pass: a.same_traffic(b),
        detail: format!(
            "lockstep {} msgs / {} bytes vs reactor sockets {} msgs / {} bytes",
            a.messages, a.bytes, b.messages, b.bytes
        ),
    }
}

/// A dealer (3) quietly corrupts two recipients' shares; the adversary
/// watches the complaint round and *then* corrupts the most-accused
/// dealer, making it refuse to answer — an adaptive pile-on. The dealer
/// must end up disqualified, everyone honest must still finish, and the
/// adversary must stay within its budget.
fn adaptive_corruption(seed: u64) -> Result<ScenarioReport, String> {
    let (t, n) = (3, 9);
    let cfg = cfg_for(t, n);
    let mut behaviors: BTreeMap<PlayerId, Behavior> = BTreeMap::new();
    behaviors.insert(
        3,
        Behavior {
            corrupt_shares_to: [5, 6].into_iter().collect(),
            ..Behavior::default()
        },
    );
    let adversary = Adversary::new(AdversaryScript {
        budget: t,
        rule: CorruptionRule::MostAccused { at_round: 2 },
        action: CorruptAction::RefuseAnswers,
    });
    let players = adaptive_dkg_players(&cfg, &behaviors, seed, &adversary);
    let (outputs, _) =
        run_protocol(&TransportKind::Lockstep, players, 8).map_err(|e| e.to_string())?;
    let corrupted = adversary.corrupted();
    let honest: BTreeSet<PlayerId> = (1..=n as PlayerId)
        .filter(|i| *i != 3 && !corrupted.contains(i))
        .collect();
    let agreed = agreement(&outputs, &honest);
    let qualified = qualified_of(&outputs, &honest);
    let criteria = vec![
        completes(&outputs, &honest),
        Criterion {
            name: "agreement",
            pass: agreed.is_some(),
            detail: "honest players agree on Q and the public key".to_string(),
        },
        Criterion {
            name: "accused-dealer-corrupted",
            pass: corrupted == vec![3],
            detail: format!(
                "adversary corrupted {:?} (expected the accused dealer 3)",
                corrupted
            ),
        },
        Criterion {
            name: "corrupted-dealer-disqualified",
            pass: !qualified.contains(&3),
            detail: format!("qualified = {:?} (dealer 3 must be absent)", qualified),
        },
        Criterion {
            name: "budget-respected",
            pass: corrupted.len() <= t,
            detail: format!("corrupted {} of budget {}", corrupted.len(), t),
        },
        honest_shares_verify(&cfg, &outputs, &honest),
    ];
    Ok(ScenarioReport {
        name: "adaptive-corruption".into(),
        n,
        t,
        corrupted,
        qualified,
        criteria,
    })
}

/// The adversary corrupts `t` players after the dealing round and has
/// them flood complaints against *everyone*. Every honest dealer then
/// faces exactly `t` complaints — the maximum the protocol must absorb
/// without disqualifying anyone — and answers them all publicly. The
/// run must end with the full committee qualified and visibly heavier
/// traffic than a clean run.
fn complaint_flood(seed: u64) -> Result<ScenarioReport, String> {
    let (t, n) = (4, 9);
    let cfg = cfg_for(t, n);
    let adversary = Adversary::new(AdversaryScript {
        budget: t,
        rule: CorruptionRule::TopBroadcasters { at_round: 1 },
        action: CorruptAction::FloodComplaints,
    });
    let players = adaptive_dkg_players(&cfg, &BTreeMap::new(), seed, &adversary);
    let (outputs, metrics) =
        run_protocol(&TransportKind::Lockstep, players, 8).map_err(|e| e.to_string())?;
    let (_, clean_metrics) = dkg_session(&cfg, &BTreeMap::new(), seed, &TransportKind::Lockstep)
        .map_err(|e| e.to_string())?;
    let corrupted = adversary.corrupted();
    let honest: BTreeSet<PlayerId> = (1..=n as PlayerId)
        .filter(|i| !corrupted.contains(i))
        .collect();
    let agreed = agreement(&outputs, &honest);
    let qualified = qualified_of(&outputs, &honest);
    let all: Vec<PlayerId> = (1..=n as PlayerId).collect();
    let criteria = vec![
        completes(&outputs, &honest),
        Criterion {
            name: "agreement",
            pass: agreed.is_some(),
            detail: "honest players agree on Q and the public key".to_string(),
        },
        Criterion {
            name: "nobody-disqualified",
            pass: qualified == all,
            detail: format!(
                "qualified = {:?} (a complaint flood of ≤ t per dealer must disqualify nobody)",
                qualified
            ),
        },
        Criterion {
            name: "budget-respected",
            pass: corrupted.len() == t,
            detail: format!("corrupted {:?} (budget {})", corrupted, t),
        },
        Criterion {
            name: "flood-visible",
            pass: metrics.messages > clean_metrics.messages,
            detail: format!(
                "{} msgs under flood vs {} clean",
                metrics.messages, clean_metrics.messages
            ),
        },
        honest_shares_verify(&cfg, &outputs, &honest),
    ];
    Ok(ScenarioReport {
        name: "complaint-flood".into(),
        n,
        t,
        corrupted,
        qualified,
        criteria,
    })
}

/// Crash-restart churn: player 4's private links are dark through the
/// dealing round (its shares never arrive anywhere, and nobody's reach
/// it), player 7 restarts across the complaint rounds, and the whole
/// run rides a reordering, frame-duplicating network. The protocol's
/// correct response is asymmetric: dealer 4 draws `n-1 > t` complaints
/// and **must** be disqualified, while player 4 itself still finishes —
/// its complaints are broadcast (reliable), so every qualified dealer
/// answers publicly and 4 rebuilds its share from the answers. Player
/// 7's window touches only broadcast rounds and must be a no-op.
fn churn(seed: u64) -> Result<ScenarioReport, String> {
    let (t, n) = (3, 9);
    let cfg = cfg_for(t, n);
    let policy = DeliveryPolicy {
        seed,
        duplicate_rate: 0.15,
        reorder: true,
        outages: vec![
            Outage {
                player: 4,
                from_round: 0,
                until_round: 2,
            },
            Outage {
                player: 7,
                from_round: 1,
                until_round: 3,
            },
        ],
        ..DeliveryPolicy::default()
    };
    let honest: BTreeSet<PlayerId> = (1..=n as PlayerId).collect();
    let (outputs, m_chan) = dkg_session(
        &cfg,
        &BTreeMap::new(),
        seed,
        &TransportKind::Channel(policy.clone()),
    )
    .map_err(|e| e.to_string())?;
    // The same churn over real sockets through the event-driven
    // reactor: outages, duplication and reordering come from the shared
    // policy streams, so the schedule — and the metered traffic — must
    // be identical to the in-process run.
    let (out_rx, m_rx) = dkg_session(
        &cfg,
        &BTreeMap::new(),
        seed,
        &TransportKind::TcpReactor(policy),
    )
    .map_err(|e| e.to_string())?;
    let agreed = agreement(&outputs, &honest);
    let qualified = qualified_of(&outputs, &honest);
    let expected: Vec<PlayerId> = (1..=n as PlayerId).filter(|i| *i != 4).collect();
    let criteria = vec![
        completes(&outputs, &honest),
        Criterion {
            name: "agreement",
            pass: agreed.is_some(),
            detail: "honest players agree on Q and the public key".to_string(),
        },
        Criterion {
            name: "dark-dealer-disqualified",
            pass: qualified == expected,
            detail: format!(
                "qualified = {:?} (exactly dealer 4 absent: dark through dealing, n-1 > t complaints)",
                qualified
            ),
        },
        Criterion {
            name: "restarted-players-recover",
            pass: matches!(outputs.get(&4), Some(Ok(out)) if shares_verify(&cfg, 4, out))
                && matches!(outputs.get(&7), Some(Ok(out)) if shares_verify(&cfg, 7, out)),
            detail: "players 4 and 7 finish with valid shares rebuilt from broadcast answers"
                .to_string(),
        },
        honest_shares_verify(&cfg, &outputs, &honest),
        Criterion {
            name: "reactor-parity",
            pass: m_chan.same_traffic(&m_rx) && qualified_of(&out_rx, &honest) == qualified,
            detail: format!(
                "channel {} msgs / {} bytes vs reactor sockets {} msgs / {} bytes, same qualified set",
                m_chan.messages, m_chan.bytes, m_rx.messages, m_rx.bytes
            ),
        },
    ];
    Ok(ScenarioReport {
        name: "churn".into(),
        n,
        t,
        corrupted: vec![],
        qualified,
        criteria,
    })
}

/// Byzantine signers against the front-end's optimistic combine. A
/// committee born by `Dist-Keygen` serves ten signing sessions over a
/// duplicating, reordering network while `t` signers (the two lowest
/// indices, so their partials are always among the first `t+1` the
/// coordinator holds) forge every partial they send, and one of them —
/// posing as the coordinator — broadcasts an `Open` nobody requested and
/// a `Shutdown`. Neither may reach an honest signer: none answers the
/// rogue `Open`, and every one runs until the coordinator's own
/// `Shutdown`. Each session's first combine must fail, its
/// `Share-Verify` fallback must name exactly the forgers, and the
/// client-side outcome must be indistinguishable from an all-honest
/// run: signatures are unique.
fn forged_partials(seed: u64) -> Result<ScenarioReport, String> {
    let (t, n) = (2, 5);
    let scheme = ThresholdScheme::new(b"borndist/sim/scenario");
    let params = ThresholdParams::new(t, n).expect("valid scenario parameters");
    let (km, _) = scheme
        .keygen_session(params, &BTreeMap::new(), seed, &TransportKind::Lockstep)
        .map_err(|e| e.to_string())?;
    let signers: Vec<PlayerId> = (1..=n as PlayerId).collect();
    let coordinator = n as PlayerId + 1;
    let forgers: BTreeSet<PlayerId> = (1..=t as PlayerId).collect();
    let requests: Vec<(u64, Vec<u8>)> = (0..10u64)
        .map(|i| (i, format!("forged-partials request {}", i).into_bytes()))
        .collect();
    let (honest, _) = run_mux_sign(
        &scheme,
        &km,
        &requests,
        &signers,
        coordinator,
        4,
        &TransportKind::Lockstep,
        200,
    )
    .map_err(|e| e.to_string())?;

    // Well-formed partials that verify for no request.
    let decoy = b"forged-partials decoy";
    const ROGUE_SESSION: u64 = 777;
    // Forger 1 also plays coordinator: it opens a session nobody
    // requested and tries to shut every signer down.
    let usurp = vec![
        MuxMessage::Open {
            session: ROGUE_SESSION,
            msg: decoy.to_vec(),
        },
        MuxMessage::Shutdown,
    ];
    let log = Arc::new(Mutex::new(BTreeMap::new()));
    let mut players: Vec<BoxedPlayer<MuxMessage, MuxOutcome>> = signers
        .iter()
        .map(|id| {
            let inner = MuxSignerPlayer::new(scheme.clone(), km.shares[id].clone(), coordinator);
            if forgers.contains(id) {
                Box::new(ForgingSigner {
                    inner,
                    forged: scheme.share_sign(&km.shares[id], decoy),
                    usurp: if *id == 1 { usurp.clone() } else { Vec::new() },
                }) as _
            } else {
                Box::new(Watched {
                    inner,
                    log: Arc::clone(&log),
                }) as _
            }
        })
        .collect();
    players.push(Box::new(Watched {
        inner: MuxCoordinator::with_requests(
            coordinator,
            Committee::new(
                scheme.clone(),
                km.params,
                km.public_key.clone(),
                km.verification_keys.clone(),
            ),
            4,
            requests.clone(),
        ),
        log: Arc::clone(&log),
    }));
    let policy = DeliveryPolicy {
        seed,
        duplicate_rate: 0.25,
        reorder: true,
        ..DeliveryPolicy::default()
    };
    let (outputs, _) =
        run_protocol(&TransportKind::Channel(policy), players, 200).map_err(|e| e.to_string())?;

    let outcome = &outputs[&coordinator];
    let log = log.lock().expect("watch log poisoned");
    let closed = log[&coordinator].finished;
    let obeyed_a_forger: Vec<PlayerId> = signers
        .iter()
        .filter(|id| !forgers.contains(id))
        .filter(|id| log[id].partials.contains(&ROGUE_SESSION) || log[id].finished != closed)
        .copied()
        .collect();
    // No link drops anything, so the coordinator holds every forger's
    // partial when it first combines: every request must name exactly
    // the forgers.
    let mut misnamed = Vec::new();
    let mut honest_named = BTreeSet::new();
    for (request, _) in &requests {
        let named = outcome.rejected.get(request).cloned().unwrap_or_default();
        honest_named.extend(named.difference(&forgers).copied());
        if named != forgers {
            misnamed.push((*request, named));
        }
    }
    let criteria = vec![
        Criterion {
            name: "completes",
            pass: outcome.signatures.len() == requests.len(),
            detail: format!(
                "{} of {} sessions signed",
                outcome.signatures.len(),
                requests.len()
            ),
        },
        Criterion {
            name: "coordinator-only",
            pass: obeyed_a_forger.is_empty(),
            detail: format!(
                "honest signers that answered the rogue Open or stopped before the coordinator's Shutdown: {:?}",
                obeyed_a_forger
            ),
        },
        Criterion {
            name: "signatures-unchanged",
            pass: outcome.signatures == honest.signatures,
            detail: "every session returns the signature of the all-honest run".to_string(),
        },
        Criterion {
            name: "forgers-named",
            pass: misnamed.is_empty(),
            detail: if misnamed.is_empty() {
                format!("every session's combine rejected exactly {:?}", forgers)
            } else {
                format!("sessions naming the wrong set: {:?}", misnamed)
            },
        },
        Criterion {
            name: "no-honest-signer-named",
            pass: honest_named.is_empty(),
            detail: format!("honest indices rejected: {:?}", honest_named),
        },
    ];
    Ok(ScenarioReport {
        name: "forged-partials".into(),
        n,
        t,
        corrupted: forgers.into_iter().collect(),
        qualified: km.qualified.iter().copied().collect(),
        criteria,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_passes() {
        for name in SCENARIOS {
            let report = run_scenario(name, 0xad5e_25a7).expect("scenario runs");
            assert!(report.all_pass(), "{}", report);
        }
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        assert!(run_scenario("no-such-scenario", 1).is_err());
    }

    #[test]
    fn scenarios_are_seed_stable() {
        // Same seed → identical corruption decisions and qualified sets.
        let a = run_scenario("adaptive-corruption", 7).unwrap();
        let b = run_scenario("adaptive-corruption", 7).unwrap();
        assert_eq!(a.corrupted, b.corrupted);
        assert_eq!(a.qualified, b.qualified);
    }
}
