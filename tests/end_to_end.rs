//! Full-lifecycle integration tests through the public facade: a key is
//! born distributed, signs non-interactively, aggregates, survives
//! proactive epochs, and recovers lost shares.

use borndist::core::aggregate::AggregateScheme;
use borndist::core::proactive::ProactiveDeployment;
use borndist::core::ro::{PartialSignature, ThresholdScheme};
use borndist::core::standard::StandardScheme;
use borndist::core::DlinScheme;
use borndist::net::TransportKind;
use borndist::shamir::ThresholdParams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

#[test]
fn complete_lifecycle() {
    let params = ThresholdParams::new(2, 5).unwrap();
    let scheme = ThresholdScheme::new(b"lifecycle");

    // 1. Birth: distributed key generation, one active round.
    let (km, metrics) = scheme
        .keygen_session(params, &BTreeMap::new(), 1, &TransportKind::Lockstep)
        .unwrap();
    assert_eq!(metrics.active_rounds, 1);
    assert_eq!(km.qualified.len(), 5);

    // 2. Life: non-interactive signing by assorted quorums.
    for (quorum, msg) in [
        (vec![1u32, 2, 3], b"message one".as_slice()),
        (vec![3u32, 4, 5], b"message two".as_slice()),
        (vec![1u32, 3, 5], b"message three".as_slice()),
    ] {
        let partials: Vec<PartialSignature> = quorum
            .iter()
            .map(|i| scheme.share_sign(&km.shares[i], msg))
            .collect();
        for p in &partials {
            assert!(scheme.share_verify(&km.verification_keys[&p.index], msg, p));
        }
        let sig = scheme.combine(&params, &partials).unwrap();
        assert!(scheme.verify(&km.public_key, msg, &sig));
    }

    // 3. Aging: three proactive epochs.
    let mut dep = ProactiveDeployment::new(scheme, km);
    let pk = dep.material().public_key.clone();
    for e in 0..3 {
        dep.refresh_epoch(&BTreeMap::new(), 100 + e, &TransportKind::Lockstep)
            .unwrap();
        assert_eq!(dep.material().public_key, pk);
    }

    // 4. Recovery: player 2 loses its share, peers restore it.
    let mut rng = StdRng::seed_from_u64(2);
    let recovered = dep.recover_share(&[1, 3, 4], 2, &mut rng).unwrap();
    assert_eq!(recovered, dep.material().shares[&2]);

    // 5. Still signing after all that.
    let msg = b"life goes on";
    let partials: Vec<PartialSignature> = [1u32, 4, 5]
        .iter()
        .map(|i| dep.scheme().share_sign(&dep.material().shares[i], msg))
        .collect();
    let sig = dep
        .scheme()
        .combine(&dep.material().params, &partials)
        .unwrap();
    assert!(dep.scheme().verify(&dep.material().public_key, msg, &sig));
}

#[test]
fn four_schemes_coexist() {
    // All four constructions operate on the same substrate with the same
    // interaction pattern; verify each end-to-end at (t, n) = (1, 4).
    let params = ThresholdParams::new(1, 4).unwrap();
    let mut rng = StdRng::seed_from_u64(44);
    let msg = b"one substrate, four schemes";

    // §3 ROM.
    let ro = ThresholdScheme::new(b"coexist");
    let km = ro.dealer_keygen(params, &mut rng);
    let p: Vec<_> = (1..=2u32)
        .map(|i| ro.share_sign(&km.shares[&i], msg))
        .collect();
    assert!(ro.verify(&km.public_key, msg, &ro.combine(&params, &p).unwrap()));

    // Appendix F DLIN.
    let dlin = DlinScheme::new(b"coexist");
    let dkm = dlin.dealer_keygen(params, &mut rng);
    let dp: Vec<_> = (1..=2u32)
        .map(|i| dlin.share_sign(&dkm.shares[&i], msg))
        .collect();
    assert!(dlin.verify(&dkm.public_key, msg, &dlin.combine(&params, &dp).unwrap()));

    // §4 standard model.
    let std_s = StandardScheme::new(b"coexist");
    let skm = std_s.dealer_keygen(params, &mut rng);
    let sp: Vec<_> = (1..=2u32)
        .map(|i| std_s.share_sign(&skm.shares[&i], msg, &mut rng))
        .collect();
    let ssig = std_s.combine(&params, msg, &sp, &mut rng).unwrap();
    assert!(std_s.verify(&skm.public_key, msg, &ssig));

    // Appendix G aggregate.
    let agg = AggregateScheme::new(b"coexist");
    let (apk, akm) = agg.dealer_keygen(params, &mut rng);
    let ap: Vec<_> = (1..=2u32)
        .map(|i| agg.share_sign(&apk, &akm.shares[&i], msg))
        .collect();
    let asig = agg.combine(&params, &ap).unwrap();
    assert!(agg.verify(&apk, msg, &asig));
}

#[test]
fn dkg_and_dealer_keys_are_interchangeable() {
    // A signature under a DKG-born key and one under a dealer key use the
    // same verification path; cross-verification must fail (different
    // keys), same-key verification must succeed.
    let params = ThresholdParams::new(1, 4).unwrap();
    let scheme = ThresholdScheme::new(b"interchange");
    let mut rng = StdRng::seed_from_u64(7);

    let (dkg_km, _) = scheme
        .keygen_session(params, &BTreeMap::new(), 9, &TransportKind::Lockstep)
        .unwrap();
    let dealer_km = scheme.dealer_keygen(params, &mut rng);

    let msg = b"which key signed me?";
    let dkg_sig = {
        let p: Vec<_> = (1..=2u32)
            .map(|i| scheme.share_sign(&dkg_km.shares[&i], msg))
            .collect();
        scheme.combine(&params, &p).unwrap()
    };
    let dealer_sig = {
        let p: Vec<_> = (1..=2u32)
            .map(|i| scheme.share_sign(&dealer_km.shares[&i], msg))
            .collect();
        scheme.combine(&params, &p).unwrap()
    };
    assert!(scheme.verify(&dkg_km.public_key, msg, &dkg_sig));
    assert!(scheme.verify(&dealer_km.public_key, msg, &dealer_sig));
    assert!(!scheme.verify(&dkg_km.public_key, msg, &dealer_sig));
    assert!(!scheme.verify(&dealer_km.public_key, msg, &dkg_sig));
}

#[test]
fn aggregate_of_dkg_born_authorities() {
    // Two committees with DKG-born keys; their signatures aggregate.
    let params = ThresholdParams::new(1, 4).unwrap();
    let scheme = AggregateScheme::new(b"agg-e2e");
    let mut chain = Vec::new();
    for i in 0..2u64 {
        let (pk, km, _) = scheme
            .dist_keygen(params, &BTreeMap::new(), 1000 + i, &TransportKind::Lockstep)
            .unwrap();
        assert!(scheme.key_valid(&pk));
        let msg = format!("statement {}", i).into_bytes();
        let partials: Vec<_> = (1..=2u32)
            .map(|j| scheme.share_sign(&pk, &km.shares[&j], &msg))
            .collect();
        let sig = scheme.combine(&params, &partials).unwrap();
        chain.push((pk, msg, sig));
    }
    let agg = scheme.aggregate(&chain).unwrap();
    let statements: Vec<_> = chain
        .iter()
        .map(|(p, m, _)| (p.clone(), m.clone()))
        .collect();
    assert!(scheme.aggregate_verify(&statements, &agg));
}
