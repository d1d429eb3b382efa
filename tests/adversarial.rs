//! Adversarial integration tests: Byzantine players during key
//! generation, corrupted partial signatures during signing, threshold
//! violations, and mobile adversaries across proactive epochs.

use borndist::core::proactive::ProactiveDeployment;
use borndist::core::ro::{CombineError, PartialSignature, ThresholdScheme};
use borndist::dkg::Behavior;
use borndist::net::TransportKind;
use borndist::shamir::ThresholdParams;
use std::collections::BTreeMap;

#[test]
fn maximal_byzantine_dkg_still_yields_working_key() {
    // t = 2 of n = 7 players are actively malicious in different ways.
    let params = ThresholdParams::new(2, 7).unwrap();
    let scheme = ThresholdScheme::new(b"adv-dkg");
    let mut behaviors = BTreeMap::new();
    behaviors.insert(
        2u32,
        Behavior {
            corrupt_shares_to: [1u32, 4, 6].into_iter().collect(),
            refuse_answers: true,
            ..Default::default()
        },
    );
    behaviors.insert(
        5u32,
        Behavior {
            bad_commitment_width: true,
            ..Default::default()
        },
    );
    let (km, _) = scheme
        .keygen_session(params, &behaviors, 21, &TransportKind::Lockstep)
        .unwrap();
    assert!(!km.qualified.contains(&2));
    assert!(!km.qualified.contains(&5));
    assert_eq!(km.qualified.len(), 5);

    // Honest players sign; the key works.
    let msg = b"survived the byzantine birth";
    let partials: Vec<PartialSignature> = [1u32, 3, 6]
        .iter()
        .map(|i| scheme.share_sign(&km.shares[i], msg))
        .collect();
    let sig = scheme.combine(&params, &partials).unwrap();
    assert!(scheme.verify(&km.public_key, msg, &sig));
}

#[test]
fn corrupted_partials_filtered_not_fatal() {
    // Robustness (the paper's non-interactive story): the combiner sees
    // n partials, t of them garbage, and still outputs a valid signature
    // with no extra round.
    let params = ThresholdParams::new(2, 5).unwrap();
    let scheme = ThresholdScheme::new(b"adv-sign");
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    use rand::SeedableRng;
    let km = scheme.dealer_keygen(params, &mut rng);
    let msg = b"robust";
    let mut partials: Vec<PartialSignature> = (1..=5u32)
        .map(|i| scheme.share_sign(&km.shares[&i], msg))
        .collect();
    // Corrupt exactly t = 2.
    partials[1].sig.z = partials[0].sig.z;
    partials[4].sig.r = partials[0].sig.r;
    let sig = scheme
        .combine_verified(
            &params,
            &km.public_key,
            &km.verification_keys,
            msg,
            &partials,
        )
        .unwrap();
    assert!(scheme.verify(&km.public_key, msg, &sig));
}

#[test]
fn naive_combine_with_garbage_caught_by_final_verify() {
    // If the combiner skips Share-Verify, the result fails Verify — the
    // system is never tricked into accepting a bad signature.
    let params = ThresholdParams::new(1, 4).unwrap();
    let scheme = ThresholdScheme::new(b"adv-naive");
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    use rand::SeedableRng;
    let km = scheme.dealer_keygen(params, &mut rng);
    let msg = b"trusting combiner";
    let mut partials: Vec<PartialSignature> = (1..=2u32)
        .map(|i| scheme.share_sign(&km.shares[&i], msg))
        .collect();
    partials[0].sig.z = partials[1].sig.r;
    let sig = scheme.combine(&params, &partials).unwrap();
    assert!(!scheme.verify(&km.public_key, msg, &sig));
}

#[test]
fn threshold_is_enforced_everywhere() {
    let params = ThresholdParams::new(2, 5).unwrap();
    let scheme = ThresholdScheme::new(b"adv-threshold");
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    use rand::SeedableRng;
    let km = scheme.dealer_keygen(params, &mut rng);
    let msg = b"two is not three";
    let partials: Vec<PartialSignature> = (1..=2u32)
        .map(|i| scheme.share_sign(&km.shares[&i], msg))
        .collect();
    assert_eq!(
        scheme.combine(&params, &partials),
        Err(CombineError::NotEnoughShares { have: 2, need: 3 })
    );
    // Duplicated indices cannot fake a quorum.
    let dup = vec![partials[0], partials[1], partials[1]];
    assert_eq!(scheme.combine(&params, &dup), Err(CombineError::BadIndices));
}

#[test]
fn mobile_adversary_defeated_by_refresh() {
    let params = ThresholdParams::new(2, 5).unwrap();
    let scheme = ThresholdScheme::new(b"adv-mobile");
    let (km, _) = scheme
        .keygen_session(params, &BTreeMap::new(), 31, &TransportKind::Lockstep)
        .unwrap();
    let mut dep = ProactiveDeployment::new(scheme, km);

    // Epoch 0: adversary takes shares of players 1, 2.
    let stolen_epoch0: Vec<_> = [1u32, 2]
        .iter()
        .map(|i| dep.material().shares[i].clone())
        .collect();
    dep.refresh_epoch(&BTreeMap::new(), 32, &TransportKind::Lockstep)
        .unwrap();
    // Epoch 1: adversary takes share of player 3 (fresh).
    let stolen_epoch1 = dep.material().shares[&3].clone();

    // 3 shares total — nominally a quorum — but from mixed epochs.
    let msg = b"forgery attempt";
    let mut forged: Vec<PartialSignature> = stolen_epoch0
        .iter()
        .map(|s| dep.scheme().share_sign(s, msg))
        .collect();
    forged.push(dep.scheme().share_sign(&stolen_epoch1, msg));
    let sig = dep
        .scheme()
        .combine(&dep.material().params, &forged)
        .unwrap();
    // The mixed-epoch combination is NOT a valid signature.
    assert!(!dep.scheme().verify(&dep.material().public_key, msg, &sig));
    // And the stale partials individually fail share verification.
    for s in &stolen_epoch0 {
        let p = dep.scheme().share_sign(s, msg);
        assert!(!dep
            .scheme()
            .share_verify(&dep.material().verification_keys[&s.index], msg, &p));
    }
}

#[test]
fn byzantine_refresh_dealer_cannot_shift_the_key() {
    let params = ThresholdParams::new(1, 4).unwrap();
    let scheme = ThresholdScheme::new(b"adv-refresh");
    let (km, _) = scheme
        .keygen_session(params, &BTreeMap::new(), 41, &TransportKind::Lockstep)
        .unwrap();
    let pk = km.public_key.clone();
    let mut dep = ProactiveDeployment::new(scheme, km);
    // Player 2 tries to sneak a non-zero secret into the refresh.
    let mut behaviors = BTreeMap::new();
    behaviors.insert(
        2u32,
        Behavior {
            nonzero_refresh: true,
            ..Default::default()
        },
    );
    dep.refresh_epoch(&behaviors, 42, &TransportKind::Lockstep)
        .unwrap();
    assert_eq!(dep.material().public_key, pk, "public key must not move");
    // Signing still works with honest players.
    let msg = b"key stayed put";
    let partials: Vec<PartialSignature> = [1u32, 3]
        .iter()
        .map(|i| dep.scheme().share_sign(&dep.material().shares[i], msg))
        .collect();
    let sig = dep
        .scheme()
        .combine(&dep.material().params, &partials)
        .unwrap();
    assert!(dep.scheme().verify(&dep.material().public_key, msg, &sig));
}

// ---------------------------------------------------------------------
// Adversarial batch verification (core::batch): a single forgery hidden
// in a large batch must be caught, and the batch decision must agree
// with per-signature verification on deterministic seeds.
// ---------------------------------------------------------------------

mod batch_adversarial {
    use borndist::core::ro::{PartialSignature, Signature, ThresholdScheme};
    use borndist::shamir::ThresholdParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn signed_batch(
        scheme: &ThresholdScheme,
        km: &borndist::core::ro::KeyMaterial,
        count: usize,
    ) -> (Vec<Vec<u8>>, Vec<Signature>) {
        let msgs: Vec<Vec<u8>> = (0..count)
            .map(|i| format!("batch message {}", i).into_bytes())
            .collect();
        let sigs = msgs
            .iter()
            .map(|m| {
                let partials: Vec<PartialSignature> = (1..=2u32)
                    .map(|j| scheme.share_sign(&km.shares[&j], m))
                    .collect();
                scheme.combine(&km.params, &partials).unwrap()
            })
            .collect();
        (msgs, sigs)
    }

    #[test]
    fn one_forged_signature_in_64_is_rejected() {
        let scheme = ThresholdScheme::new(b"adv-batch-64");
        let mut rng = StdRng::seed_from_u64(0x64);
        let km = scheme.dealer_keygen(ThresholdParams::new(1, 3).unwrap(), &mut rng);
        let (msgs, mut sigs) = signed_batch(&scheme, &km, 64);
        let items: Vec<(&[u8], &Signature)> = msgs
            .iter()
            .zip(sigs.iter())
            .map(|(m, s)| (m.as_slice(), s))
            .collect();
        assert!(scheme.batch_verify(&km.public_key, &items, &mut rng));

        // Hide a single forgery (a valid signature on a *different*
        // message) at an arbitrary position among 63 valid ones.
        let stolen = sigs[0];
        sigs[37] = stolen;
        let items: Vec<(&[u8], &Signature)> = msgs
            .iter()
            .zip(sigs.iter())
            .map(|(m, s)| (m.as_slice(), s))
            .collect();
        assert!(
            !scheme.batch_verify(&km.public_key, &items, &mut rng),
            "forgery at position 37 slipped through the batch"
        );
    }

    #[test]
    fn one_forged_share_in_64_is_rejected() {
        // 64 signers on one message; a single corrupted partial must sink
        // the batched Share-Verify used by Combine.
        let scheme = ThresholdScheme::new(b"adv-batch-shares");
        let mut rng = StdRng::seed_from_u64(0x65);
        let km = scheme.dealer_keygen(ThresholdParams::new(20, 64).unwrap(), &mut rng);
        let msg = b"share batch";
        let mut partials: Vec<PartialSignature> = (1..=64u32)
            .map(|i| scheme.share_sign(&km.shares[&i], msg))
            .collect();
        assert!(scheme.batch_share_verify(&km.verification_keys, msg, &partials, &mut rng));
        partials[41].sig.r = partials[3].sig.r;
        assert!(
            !scheme.batch_share_verify(&km.verification_keys, msg, &partials, &mut rng),
            "forged share at position 41 slipped through"
        );
        // Robust combine still succeeds by falling back to the filter
        // (a t+2-sized slice keeps the per-share fallback cheap: 21
        // valid of 22 with the forgery at position 10).
        let mut slice: Vec<PartialSignature> = partials[..22].to_vec();
        slice[10].sig.z = slice[2].sig.z;
        let sig = scheme
            .combine_verified(
                &km.params,
                &km.public_key,
                &km.verification_keys,
                msg,
                &slice,
            )
            .unwrap();
        assert!(scheme.verify(&km.public_key, msg, &sig));
    }

    #[test]
    fn batch_decision_agrees_with_individual_verification() {
        // Deterministic seeds; each round corrupts a pseudo-random subset
        // (possibly empty) and cross-checks the batch verdict against
        // per-signature verification.
        let scheme = ThresholdScheme::new(b"adv-batch-agreement");
        for seed in 0u64..4 {
            let mut rng = StdRng::seed_from_u64(0xA6EE + seed);
            let km = scheme.dealer_keygen(ThresholdParams::new(1, 3).unwrap(), &mut rng);
            let (msgs, mut sigs) = signed_batch(&scheme, &km, 8);
            // Corrupt position i with probability 1/4, deterministically.
            use rand::RngCore;
            for i in 0..sigs.len() {
                if rng.next_u64() % 4 == 0 {
                    let other = (i + 1) % sigs.len();
                    sigs[i] = sigs[other];
                }
            }
            let items: Vec<(&[u8], &Signature)> = msgs
                .iter()
                .zip(sigs.iter())
                .map(|(m, s)| (m.as_slice(), s))
                .collect();
            let individual = items
                .iter()
                .all(|(m, s)| scheme.verify(&km.public_key, m, s));
            let batched = scheme.batch_verify(&km.public_key, &items, &mut rng);
            assert_eq!(batched, individual, "seed {} disagreement", seed);
        }
    }
}
