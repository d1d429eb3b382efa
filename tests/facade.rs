//! Integration coverage for the `borndist` facade crate: every
//! re-exported workspace crate must resolve under its facade path, and
//! the quickstart flow documented on `borndist_core` must run through
//! the facade too.

use std::collections::BTreeMap;

/// Name one load-bearing item from each re-exported module so a broken
/// re-export (or a renamed downstream item) fails this test at compile
/// time rather than surfacing in user code.
#[test]
fn all_facade_reexports_resolve() {
    // pairing
    let _g1: borndist::pairing::G1Projective = borndist::pairing::G1Projective::generator();
    let _fr = borndist::pairing::Fr::from_u64(42);
    // shamir
    let params = borndist::shamir::ThresholdParams::new(1, 4).unwrap();
    assert_eq!(params.n, 4);
    // net
    let _metrics = borndist::net::Metrics::default();
    // dkg
    let _cfg: Option<borndist::dkg::DkgConfig> = None;
    // lhsps
    let _sig: Option<borndist::lhsps::OneTimeSignature> = None;
    // grothsahai
    let _crs: Option<borndist::grothsahai::Crs> = None;
    // core
    let _scheme = borndist::core::ro::ThresholdScheme::new(b"facade-test");
    // baselines
    let _bls: Option<borndist::baselines::BlsSignature> = None;
    // precompute layer (pairing)
    let table = borndist::pairing::g1_generator_table();
    assert_eq!(
        table.base(),
        borndist::pairing::G1Projective::generator().to_affine()
    );
    let _t: Option<borndist::pairing::FixedBaseTable<borndist::pairing::G2Params>> = None;
}

/// The crate-level quickstart (also a doctest on `borndist_core`),
/// driven through the facade paths: distributed keygen, two
/// non-interactive partial signatures, combine, verify.
#[test]
fn quickstart_flow_through_facade() {
    let scheme = borndist::core::ro::ThresholdScheme::new(b"facade-quickstart");
    let params = borndist::shamir::ThresholdParams::new(1, 4).unwrap();
    let (km, _) = scheme
        .keygen_session(
            params,
            &BTreeMap::new(),
            7,
            &borndist::net::TransportKind::Lockstep,
        )
        .unwrap();

    let p1 = scheme.share_sign(&km.shares[&1], b"hello");
    let p3 = scheme.share_sign(&km.shares[&3], b"hello");
    let sig = scheme.combine(&km.params, &[p1, p3]).unwrap();
    assert!(scheme.verify(&km.public_key, b"hello", &sig));
    assert!(!scheme.verify(&km.public_key, b"tampered", &sig));

    // The batch-verification subsystem (core::batch) and the robust
    // combine are reachable and consistent through the facade as well.
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(9)
    };
    let items: Vec<(&[u8], &borndist::core::Signature)> = vec![(b"hello".as_slice(), &sig)];
    assert!(scheme.batch_verify(&km.public_key, &items, &mut rng));
    let sig2 = scheme
        .combine_verified(
            &km.params,
            &km.public_key,
            &km.verification_keys,
            b"hello",
            &[p1, p3],
        )
        .unwrap();
    assert_eq!(sig, sig2);
}
