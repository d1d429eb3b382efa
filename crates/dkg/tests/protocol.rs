//! End-to-end tests of the DKG protocol under honest and Byzantine
//! executions, plus refresh and recovery.

use borndist_dkg::{
    apply_refresh, apply_refresh_commitments, dkg_session, recover_share, refresh_session,
    standard_config, Appendix, Behavior, DkgAbort, DkgOutput, Helper,
};
use borndist_net::TransportKind;
use borndist_pairing::{Fr, G2Affine};
use borndist_shamir::{interpolate_at, PedersenShare, ThresholdParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn honest_run(t: usize, n: usize, seed: u64) -> BTreeMap<u32, DkgOutput> {
    let cfg = standard_config(ThresholdParams::new(t, n).unwrap(), 2, b"test", false);
    let (outputs, _) = dkg_session(&cfg, &BTreeMap::new(), seed, &TransportKind::Lockstep).unwrap();
    outputs
        .into_iter()
        .map(|(id, o)| (id, o.expect("honest players succeed")))
        .collect()
}

/// All honest players agree on Q, the public key, and the verification
/// keys, and every share opens the combined commitment.
#[test]
fn honest_run_reaches_agreement() {
    let cfg = standard_config(ThresholdParams::new(2, 5).unwrap(), 2, b"test", false);
    let (outputs, metrics) =
        dkg_session(&cfg, &BTreeMap::new(), 7, &TransportKind::Lockstep).unwrap();
    let outs: Vec<&DkgOutput> = outputs.values().map(|o| o.as_ref().unwrap()).collect();

    // Agreement on Q (everyone qualified) and on the public key.
    let pk = outs[0].public_key_coordinates();
    for o in &outs {
        assert_eq!(o.qualified.len(), 5);
        assert_eq!(o.public_key_coordinates(), pk);
        assert_eq!(o.combined_commitments, outs[0].combined_commitments);
    }

    // Every player's share opens the combined commitment at its index.
    for o in &outs {
        for (k, (a, b)) in o.share.iter().enumerate() {
            let share = PedersenShare {
                index: o.id,
                a: *a,
                b: *b,
            };
            assert!(o.combined_commitments[k].verify_share(&cfg.bases, &share));
        }
    }

    // Verification keys agree across players.
    for i in 1..=5u32 {
        let vk = outs[0].verification_key(i);
        for o in &outs {
            assert_eq!(o.verification_key(i), vk);
        }
    }

    // The paper's headline: one active communication round when honest.
    assert_eq!(metrics.active_rounds, 1);
}

/// Interpolating t+1 shares recovers the sum of the qualified dealers'
/// additive secrets — the joint secret key.
#[test]
fn shares_interpolate_to_joint_secret() {
    let outputs = honest_run(2, 5, 99);
    for k in 0..2usize {
        let joint_a: Fr = outputs
            .values()
            .map(|o| o.additive_secret[k].0)
            .fold(Fr::zero(), |acc, v| acc + v);
        let pts: Vec<(u32, Fr)> = outputs
            .values()
            .take(3)
            .map(|o| (o.id, o.share[k].0))
            .collect();
        let secret = interpolate_at(&pts, Fr::zero()).unwrap();
        assert_eq!(secret, joint_a);
    }
}

/// A dealer that lies to one player is caught by a complaint, answers
/// publicly, and stays qualified; the victim adopts the public share.
#[test]
fn corrupt_share_is_repaired_by_complaint_round() {
    let cfg = standard_config(ThresholdParams::new(2, 5).unwrap(), 2, b"test", false);
    let mut behaviors = BTreeMap::new();
    behaviors.insert(
        2u32,
        Behavior {
            corrupt_shares_to: [4u32].into_iter().collect(),
            ..Default::default()
        },
    );
    let (outputs, metrics) = dkg_session(&cfg, &behaviors, 11, &TransportKind::Lockstep).unwrap();
    let outs: BTreeMap<u32, DkgOutput> = outputs
        .into_iter()
        .map(|(id, o)| (id, o.unwrap()))
        .collect();
    // Dealer 2 answered correctly, so it remains qualified.
    assert!(outs[&1].qualified.contains(&2));
    // Player 4's share still opens the combined commitment.
    let o4 = &outs[&4];
    for (k, (a, b)) in o4.share.iter().enumerate() {
        let share = PedersenShare {
            index: 4,
            a: *a,
            b: *b,
        };
        assert!(o4.combined_commitments[k].verify_share(&cfg.bases, &share));
    }
    // Complaint and answer rounds were active: 3 active rounds total.
    assert_eq!(metrics.active_rounds, 3);
    // All players agree on the public key.
    let pk = outs[&1].public_key_coordinates();
    for o in outs.values() {
        assert_eq!(o.public_key_coordinates(), pk);
    }
}

/// A dealer that refuses to answer a justified complaint is disqualified.
#[test]
fn unanswered_complaint_disqualifies_dealer() {
    let cfg = standard_config(ThresholdParams::new(2, 5).unwrap(), 2, b"test", false);
    let mut behaviors = BTreeMap::new();
    behaviors.insert(
        3u32,
        Behavior {
            corrupt_shares_to: [1u32].into_iter().collect(),
            refuse_answers: true,
            ..Default::default()
        },
    );
    let (outputs, _) = dkg_session(&cfg, &behaviors, 13, &TransportKind::Lockstep).unwrap();
    for (id, o) in outputs {
        let o = o.unwrap();
        assert!(!o.qualified.contains(&3), "player {} still trusts 3", id);
        assert_eq!(o.qualified.len(), 4);
    }
}

/// A dealer that withholds shares entirely is complained against and,
/// refusing to answer, disqualified.
#[test]
fn withholding_dealer_disqualified() {
    let cfg = standard_config(ThresholdParams::new(1, 4).unwrap(), 2, b"test", false);
    let mut behaviors = BTreeMap::new();
    behaviors.insert(
        2u32,
        Behavior {
            withhold_shares_from: [1u32, 3, 4].into_iter().collect(),
            refuse_answers: true,
            ..Default::default()
        },
    );
    let (outputs, _) = dkg_session(&cfg, &behaviors, 17, &TransportKind::Lockstep).unwrap();
    for o in outputs.values() {
        assert!(!o.as_ref().unwrap().qualified.contains(&2));
    }
}

/// A player that crashes before dealing is excluded; the rest proceed.
#[test]
fn crash_before_dealing_excluded() {
    let cfg = standard_config(ThresholdParams::new(1, 5).unwrap(), 2, b"test", false);
    let mut behaviors = BTreeMap::new();
    behaviors.insert(
        5u32,
        Behavior {
            crash_at_round: Some(0),
            ..Default::default()
        },
    );
    let (outputs, _) = dkg_session(&cfg, &behaviors, 19, &TransportKind::Lockstep).unwrap();
    assert_eq!(outputs[&5], Err(DkgAbort::Crashed));
    for id in 1u32..=4 {
        let o = outputs[&id].as_ref().unwrap();
        assert!(!o.qualified.contains(&5));
        assert_eq!(o.qualified.len(), 4);
    }
}

/// A crash after dealing leaves the dealer's contribution in the key
/// (its sharing is complete and verifiable; no complaints arise).
#[test]
fn crash_after_dealing_keeps_contribution() {
    let cfg = standard_config(ThresholdParams::new(1, 5).unwrap(), 2, b"test", false);
    let mut behaviors = BTreeMap::new();
    behaviors.insert(
        5u32,
        Behavior {
            crash_at_round: Some(1),
            ..Default::default()
        },
    );
    let (outputs, _) = dkg_session(&cfg, &behaviors, 23, &TransportKind::Lockstep).unwrap();
    for id in 1u32..=4 {
        let o = outputs[&id].as_ref().unwrap();
        assert!(o.qualified.contains(&5), "silent-but-honest dealer kept");
    }
}

/// False accusations do not harm an honest dealer.
#[test]
fn false_accusation_is_harmless() {
    let cfg = standard_config(ThresholdParams::new(2, 5).unwrap(), 2, b"test", false);
    let mut behaviors = BTreeMap::new();
    behaviors.insert(
        4u32,
        Behavior {
            false_complaints: vec![1, 2],
            ..Default::default()
        },
    );
    let (outputs, _) = dkg_session(&cfg, &behaviors, 29, &TransportKind::Lockstep).unwrap();
    for o in outputs.values() {
        let o = o.as_ref().unwrap();
        assert!(o.qualified.contains(&1));
        assert!(o.qualified.contains(&2));
        assert_eq!(o.qualified.len(), 5);
    }
}

/// Malformed commitment broadcasts disqualify immediately.
#[test]
fn malformed_broadcast_disqualifies() {
    let cfg = standard_config(ThresholdParams::new(1, 4).unwrap(), 2, b"test", false);
    let mut behaviors = BTreeMap::new();
    behaviors.insert(
        1u32,
        Behavior {
            bad_commitment_width: true,
            ..Default::default()
        },
    );
    let (outputs, _) = dkg_session(&cfg, &behaviors, 31, &TransportKind::Lockstep).unwrap();
    for id in 2u32..=4 {
        assert!(!outputs[&id].as_ref().unwrap().qualified.contains(&1));
    }
}

/// The Appendix G aggregate witness is checked and combined.
#[test]
fn aggregate_witness_combines() {
    use borndist_pairing::multi_pairing;
    let cfg = standard_config(ThresholdParams::new(1, 4).unwrap(), 2, b"agg-test", true);
    let (outputs, _) = dkg_session(&cfg, &BTreeMap::new(), 37, &TransportKind::Lockstep).unwrap();
    let o = outputs[&1].as_ref().unwrap();
    let witness = o.aggregate_witness.expect("witness present");
    let pk = o.public_key_coordinates();
    let Appendix::Aggregate(agg) = cfg.appendix else {
        panic!("standard_config(.., true) enables Appendix G");
    };
    // e(Z, g_z)·e(R, g_r)·e(g, pk_1)·e(h, pk_2) = 1.
    assert!(multi_pairing(&[
        (&witness.z0, &cfg.bases.g_z),
        (&witness.r0, &cfg.bases.g_r),
        (&agg.g, &pk[0]),
        (&agg.h, &pk[1]),
    ])
    .is_identity());
}

/// A bad aggregate witness gets its dealer disqualified.
#[test]
fn bad_aggregate_witness_disqualifies() {
    let cfg = standard_config(ThresholdParams::new(1, 4).unwrap(), 2, b"agg-test", true);
    let mut behaviors = BTreeMap::new();
    behaviors.insert(
        3u32,
        Behavior {
            bad_aggregate_witness: true,
            ..Default::default()
        },
    );
    let (outputs, _) = dkg_session(&cfg, &behaviors, 41, &TransportKind::Lockstep).unwrap();
    for id in [1u32, 2, 4] {
        assert!(!outputs[&id].as_ref().unwrap().qualified.contains(&3));
    }
}

/// Proactive refresh: shares change, public key and joint secret do not.
#[test]
fn refresh_preserves_public_key_and_secret() {
    let cfg = standard_config(ThresholdParams::new(2, 5).unwrap(), 2, b"test", false);
    let (outputs, _) = dkg_session(&cfg, &BTreeMap::new(), 43, &TransportKind::Lockstep).unwrap();
    let outs: BTreeMap<u32, DkgOutput> = outputs
        .into_iter()
        .map(|(id, o)| (id, o.unwrap()))
        .collect();
    let pk = outs[&1].public_key_coordinates();
    let old_secret = {
        let pts: Vec<(u32, Fr)> = outs
            .values()
            .take(3)
            .map(|o| (o.id, o.share[0].0))
            .collect();
        interpolate_at(&pts, Fr::zero()).unwrap()
    };

    let (refresh_outputs, _) =
        refresh_session(&cfg, &BTreeMap::new(), 44, &TransportKind::Lockstep).unwrap();
    let new_shares: BTreeMap<u32, Vec<(Fr, Fr)>> = outs
        .iter()
        .map(|(id, o)| {
            let r = refresh_outputs[id].as_ref().unwrap();
            (*id, apply_refresh(&o.share, r))
        })
        .collect();
    let new_commitments = apply_refresh_commitments(
        &outs[&1].combined_commitments,
        refresh_outputs[&1].as_ref().unwrap(),
    );

    // Public key unchanged.
    let new_pk: Vec<G2Affine> = new_commitments
        .iter()
        .map(|c| c.constant_commitment())
        .collect();
    assert_eq!(new_pk, pk);

    // Joint secret unchanged, but individual shares changed.
    let pts: Vec<(u32, Fr)> = new_shares
        .iter()
        .take(3)
        .map(|(id, s)| (*id, s[0].0))
        .collect();
    assert_eq!(interpolate_at(&pts, Fr::zero()).unwrap(), old_secret);
    assert_ne!(new_shares[&1][0].0, outs[&1].share[0].0);

    // New shares open the refreshed commitments; old ones do not.
    for (id, s) in &new_shares {
        let share = PedersenShare {
            index: *id,
            a: s[0].0,
            b: s[0].1,
        };
        assert!(new_commitments[0].verify_share(&cfg.bases, &share));
        let stale = PedersenShare {
            index: *id,
            a: outs[id].share[0].0,
            b: outs[id].share[0].1,
        };
        assert!(!new_commitments[0].verify_share(&cfg.bases, &stale));
    }
}

/// A refresh dealer that deals a non-zero secret is disqualified.
#[test]
fn nonzero_refresh_dealer_disqualified() {
    let cfg = standard_config(ThresholdParams::new(1, 4).unwrap(), 2, b"test", false);
    let mut behaviors = BTreeMap::new();
    behaviors.insert(
        2u32,
        Behavior {
            nonzero_refresh: true,
            ..Default::default()
        },
    );
    let (outputs, _) = refresh_session(&cfg, &behaviors, 47, &TransportKind::Lockstep).unwrap();
    for id in [1u32, 3, 4] {
        assert!(!outputs[&id].as_ref().unwrap().qualified.contains(&2));
    }
}

/// Share recovery restores a lost share exactly.
#[test]
fn recovery_restores_share() {
    let outputs = honest_run(2, 5, 53);
    let cfg = standard_config(ThresholdParams::new(2, 5).unwrap(), 2, b"test", false);
    let target = 3u32;
    let expected = outputs[&target].share[0];

    let helpers: Vec<Helper> = [1u32, 2, 4]
        .iter()
        .map(|id| Helper {
            id: *id,
            share: outputs[id].share[0],
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(54);
    let recovered = recover_share(
        &cfg.bases,
        &outputs[&1].combined_commitments[0],
        2,
        &helpers,
        target,
        &mut rng,
    )
    .unwrap();
    assert_eq!(recovered, expected);
}

/// Recovery fails cleanly with too few helpers.
#[test]
fn recovery_needs_threshold_helpers() {
    let outputs = honest_run(2, 5, 59);
    let cfg = standard_config(ThresholdParams::new(2, 5).unwrap(), 2, b"test", false);
    let helpers: Vec<Helper> = [1u32, 2]
        .iter()
        .map(|id| Helper {
            id: *id,
            share: outputs[id].share[0],
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(60);
    let err = recover_share(
        &cfg.bases,
        &outputs[&1].combined_commitments[0],
        2,
        &helpers,
        3,
        &mut rng,
    )
    .unwrap_err();
    assert!(matches!(
        err,
        borndist_dkg::RecoveryError::NotEnoughHelpers { have: 2, need: 3 }
    ));
}

/// Recovery detects a helper lying about its share.
#[test]
fn recovery_detects_bad_helper_share() {
    let outputs = honest_run(2, 5, 61);
    let cfg = standard_config(ThresholdParams::new(2, 5).unwrap(), 2, b"test", false);
    let mut helpers: Vec<Helper> = [1u32, 2, 4]
        .iter()
        .map(|id| Helper {
            id: *id,
            share: outputs[id].share[0],
        })
        .collect();
    helpers[1].share.0 += Fr::one();
    let mut rng = StdRng::seed_from_u64(62);
    let err = recover_share(
        &cfg.bases,
        &outputs[&1].combined_commitments[0],
        2,
        &helpers,
        3,
        &mut rng,
    )
    .unwrap_err();
    assert_eq!(err, borndist_dkg::RecoveryError::CommitmentMismatch);
}

/// Larger instance smoke test: n = 13, t = 4, several simultaneous
/// faults of different kinds.
#[test]
fn mixed_faults_large_instance() {
    let cfg = standard_config(ThresholdParams::new(4, 13).unwrap(), 2, b"big", false);
    let mut behaviors = BTreeMap::new();
    behaviors.insert(
        2u32,
        Behavior {
            corrupt_shares_to: [7u32, 8].into_iter().collect(),
            ..Default::default()
        },
    );
    behaviors.insert(
        5u32,
        Behavior {
            crash_at_round: Some(0),
            ..Default::default()
        },
    );
    behaviors.insert(
        9u32,
        Behavior {
            corrupt_shares_to: [1u32].into_iter().collect(),
            refuse_answers: true,
            ..Default::default()
        },
    );
    behaviors.insert(
        11u32,
        Behavior {
            false_complaints: vec![3],
            ..Default::default()
        },
    );
    let (outputs, _) = dkg_session(&cfg, &behaviors, 67, &TransportKind::Lockstep).unwrap();
    let mut reference: Option<DkgOutput> = None;
    for (id, o) in &outputs {
        if *id == 5 {
            assert_eq!(*o, Err(DkgAbort::Crashed));
            continue;
        }
        let o = o.as_ref().unwrap();
        // 5 (crashed) and 9 (refused answer) are out; 2 answered and 3
        // was falsely accused — both stay.
        assert!(!o.qualified.contains(&5));
        assert!(!o.qualified.contains(&9));
        assert!(o.qualified.contains(&2));
        assert!(o.qualified.contains(&3));
        if let Some(r) = &reference {
            assert_eq!(o.qualified, r.qualified);
            assert_eq!(o.public_key_coordinates(), r.public_key_coordinates());
        } else {
            reference = Some(o.clone());
        }
    }
}

/// PartialEq for DkgOutput-bearing results in the assertions above.
#[test]
fn outputs_expose_short_shares() {
    // E4 sanity: a share is width·2 scalars = 128 bytes at width 2,
    // independent of n.
    for n in [4usize, 8, 16] {
        let outputs = honest_run(1, n, 71);
        let o = &outputs[&1];
        assert_eq!(o.share.len(), 2);
    }
}

/// Equivocating on the broadcast channel (two conflicting commitment
/// messages) leads to global disqualification.
#[test]
fn equivocation_disqualifies() {
    let cfg = standard_config(ThresholdParams::new(1, 4).unwrap(), 2, b"test", false);
    let mut behaviors = BTreeMap::new();
    behaviors.insert(
        3u32,
        Behavior {
            equivocate_commitments: true,
            ..Default::default()
        },
    );
    let (outputs, _) = dkg_session(&cfg, &behaviors, 73, &TransportKind::Lockstep).unwrap();
    for id in [1u32, 2, 4] {
        let o = outputs[&id].as_ref().unwrap();
        assert!(!o.qualified.contains(&3), "player {} kept equivocator", id);
        assert_eq!(o.qualified.len(), 3);
    }
}

/// The DKG refuses parameter sets without an honest majority.
#[test]
#[should_panic(expected = "n >= 2t + 1")]
fn dishonest_majority_parameters_rejected() {
    let cfg = standard_config(ThresholdParams::new(3, 4).unwrap(), 2, b"test", false);
    let _ = dkg_session(&cfg, &BTreeMap::new(), 79, &TransportKind::Lockstep);
}
