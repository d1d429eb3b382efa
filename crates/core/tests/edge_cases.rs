//! Edge-case and boundary tests across the core schemes: degenerate
//! parameters, message extremes, serialization, cross-scheme isolation,
//! and combiner misuse.

use borndist_core::aggregate::AggregateScheme;
use borndist_core::ro::{PartialSignature, ThresholdScheme};
use borndist_core::standard::StandardScheme;
use borndist_core::{CombineError, DlinScheme};
use borndist_pairing::Wire;
use borndist_shamir::ThresholdParams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

#[test]
fn one_of_one_threshold() {
    // t = 0, n = 1: a degenerate but legal instance — a single server
    // whose partial signature is the full signature.
    let params = ThresholdParams::new(0, 1).unwrap();
    let scheme = ThresholdScheme::new(b"edge-1of1");
    let mut rng = StdRng::seed_from_u64(1);
    let km = scheme.dealer_keygen(params, &mut rng);
    let p = scheme.share_sign(&km.shares[&1], b"solo");
    let sig = scheme.combine(&params, &[p]).unwrap();
    assert!(scheme.verify(&km.public_key, b"solo", &sig));
}

#[test]
fn n_of_n_threshold() {
    // t = n-1: every server must participate.
    let params = ThresholdParams::new(3, 4).unwrap();
    let scheme = ThresholdScheme::new(b"edge-nofn");
    let mut rng = StdRng::seed_from_u64(2);
    let km = scheme.dealer_keygen(params, &mut rng);
    let msg = b"all hands";
    let partials: Vec<PartialSignature> = (1..=4u32)
        .map(|i| scheme.share_sign(&km.shares[&i], msg))
        .collect();
    assert!(matches!(
        scheme.combine(&params, &partials[..3]),
        Err(CombineError::NotEnoughShares { .. })
    ));
    let sig = scheme.combine(&params, &partials).unwrap();
    assert!(scheme.verify(&km.public_key, msg, &sig));
}

#[test]
fn message_extremes() {
    let params = ThresholdParams::new(1, 3).unwrap();
    let scheme = ThresholdScheme::new(b"edge-msg");
    let mut rng = StdRng::seed_from_u64(3);
    let km = scheme.dealer_keygen(params, &mut rng);
    for msg in [
        b"".to_vec(),
        vec![0u8],
        vec![0xff; 1],
        vec![0x41; 100_000],
        (0..=255u8).collect::<Vec<u8>>(),
    ] {
        let partials: Vec<PartialSignature> = (1..=2u32)
            .map(|i| scheme.share_sign(&km.shares[&i], &msg))
            .collect();
        let sig = scheme.combine(&params, &partials).unwrap();
        assert!(
            scheme.verify(&km.public_key, &msg, &sig),
            "len={}",
            msg.len()
        );
    }
}

#[test]
fn near_collision_messages_are_distinguished() {
    let params = ThresholdParams::new(1, 3).unwrap();
    let scheme = ThresholdScheme::new(b"edge-collide");
    let mut rng = StdRng::seed_from_u64(4);
    let km = scheme.dealer_keygen(params, &mut rng);
    let sign = |msg: &[u8]| {
        let partials: Vec<PartialSignature> = (1..=2u32)
            .map(|i| scheme.share_sign(&km.shares[&i], msg))
            .collect();
        scheme.combine(&params, &partials).unwrap()
    };
    let sig = sign(b"message");
    assert!(scheme.verify(&km.public_key, b"message", &sig));
    // One-bit and boundary-shift variants must all fail.
    assert!(!scheme.verify(&km.public_key, b"messagf", &sig));
    assert!(!scheme.verify(&km.public_key, b"message ", &sig));
    assert!(!scheme.verify(&km.public_key, b"essage", &sig));
    assert!(!scheme.verify(&km.public_key, b"", &sig));
}

#[test]
fn scheme_contexts_are_domain_separated() {
    // Same dealer polynomials, different protocol tags: signatures do
    // not transfer because the generators and hash domains differ.
    let params = ThresholdParams::new(1, 3).unwrap();
    let s1 = ThresholdScheme::new(b"ctx-one");
    let s2 = ThresholdScheme::new(b"ctx-two");
    let mut rng = StdRng::seed_from_u64(5);
    let km1 = s1.dealer_keygen(params, &mut rng);
    let msg = b"context binding";
    let partials: Vec<PartialSignature> = (1..=2u32)
        .map(|i| s1.share_sign(&km1.shares[&i], msg))
        .collect();
    let sig = s1.combine(&params, &partials).unwrap();
    assert!(s1.verify(&km1.public_key, msg, &sig));
    // Verifying the same bytes under the other context fails.
    assert!(!s2.verify(&km1.public_key, msg, &sig));
}

#[test]
fn partial_signatures_do_not_cross_schemes() {
    // A DLIN partial cannot masquerade as two-thirds of an RO partial
    // etc. — simply by type safety; here we check the weaker runtime
    // property that RO signatures never verify under mismatched keys
    // from an independently generated committee.
    let params = ThresholdParams::new(1, 3).unwrap();
    let scheme = ThresholdScheme::new(b"iso");
    let mut rng = StdRng::seed_from_u64(6);
    let km_a = scheme.dealer_keygen(params, &mut rng);
    let km_b = scheme.dealer_keygen(params, &mut rng);
    let msg = b"which committee?";
    let p = scheme.share_sign(&km_a.shares[&1], msg);
    assert!(scheme.share_verify(&km_a.verification_keys[&1], msg, &p));
    assert!(!scheme.share_verify(&km_b.verification_keys[&1], msg, &p));
}

#[test]
fn dlin_scheme_edge_parameters() {
    let scheme = DlinScheme::new(b"edge-dlin");
    let mut rng = StdRng::seed_from_u64(7);
    // 1-of-1.
    let params = ThresholdParams::new(0, 1).unwrap();
    let km = scheme.dealer_keygen(params, &mut rng);
    let p = scheme.share_sign(&km.shares[&1], b"m");
    let sig = scheme.combine(&params, &[p]).unwrap();
    assert!(scheme.verify(&km.public_key, b"m", &sig));
    // Empty message.
    let p2 = scheme.share_sign(&km.shares[&1], b"");
    let sig2 = scheme.combine(&params, &[p2]).unwrap();
    assert!(scheme.verify(&km.public_key, b"", &sig2));
}

#[test]
fn standard_scheme_distinguishes_digest_prefixes() {
    // The §4 scheme hashes messages to 256 bits before bit-selecting the
    // CRS; two distinct messages use different CRSs and cross-fail.
    let params = ThresholdParams::new(1, 3).unwrap();
    let scheme = StandardScheme::new(b"edge-std");
    let mut rng = StdRng::seed_from_u64(8);
    let km = scheme.dealer_keygen(params, &mut rng);
    let partials: Vec<_> = (1..=2u32)
        .map(|i| scheme.share_sign(&km.shares[&i], b"alpha", &mut rng))
        .collect();
    let sig = scheme
        .combine(&params, b"alpha", &partials, &mut rng)
        .unwrap();
    assert!(scheme.verify(&km.public_key, b"alpha", &sig));
    assert!(!scheme.verify(&km.public_key, b"beta", &sig));
    // Partial signatures are also message-bound.
    assert!(!scheme.share_verify(&km.verification_keys[&1], b"beta", &partials[0]));
}

#[test]
fn aggregate_scheme_rejects_foreign_keys() {
    // A key from a *different* aggregate context fails the sanity check
    // under this context (different (g, h) generators).
    let s1 = AggregateScheme::new(b"agg-ctx-1");
    let s2 = AggregateScheme::new(b"agg-ctx-2");
    let params = ThresholdParams::new(1, 4).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let (pk1, _) = s1.dealer_keygen(params, &mut rng);
    assert!(s1.key_valid(&pk1));
    assert!(!s2.key_valid(&pk1));
}

#[test]
fn wire_roundtrip_of_all_public_artifacts() {
    let params = ThresholdParams::new(1, 3).unwrap();
    let scheme = ThresholdScheme::new(b"wire-all");
    let mut rng = StdRng::seed_from_u64(10);
    let km = scheme.dealer_keygen(params, &mut rng);
    let msg = b"serialize me";
    let p = scheme.share_sign(&km.shares[&1], msg);
    let sig = scheme
        .combine(&params, &[p, scheme.share_sign(&km.shares[&2], msg)])
        .unwrap();

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) -> T {
        let dec = T::decode_exact(&v.encode()).unwrap();
        assert_eq!(&dec, v);
        dec
    }
    roundtrip(&km.public_key);
    roundtrip(&km.shares[&1]);
    roundtrip(&km.verification_keys[&1]);
    roundtrip(&p);
    // Decoded artifacts remain functional.
    assert!(scheme.verify(&km.public_key, msg, &roundtrip(&sig)));
}

#[test]
fn dkg_behaviors_map_for_unknown_players_is_ignored() {
    // Behaviors keyed by nonexistent ids have no effect.
    let params = ThresholdParams::new(1, 4).unwrap();
    let scheme = ThresholdScheme::new(b"edge-behav");
    let mut behaviors = BTreeMap::new();
    behaviors.insert(
        99u32,
        borndist_dkg::Behavior {
            refuse_answers: true,
            ..Default::default()
        },
    );
    let (km, metrics) = scheme
        .keygen_session(
            params,
            &behaviors,
            11,
            &borndist_net::TransportKind::Lockstep,
        )
        .unwrap();
    assert_eq!(metrics.active_rounds, 1);
    assert_eq!(km.qualified.len(), 4);
}
