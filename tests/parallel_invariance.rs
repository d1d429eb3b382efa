//! Thread-count invariance of the multi-core execution layer (ISSUE 4).
//!
//! Every parallel hot path — batch verification, the DKG share-check
//! fold, robust combine, MSM, Miller-loop sharding, batched
//! normalization, fixed-base tables — must return **bit-identical** results under `Parallelism::Sequential`,
//! `Threads(2)` and `Threads(7)` on the same deterministic-seed inputs,
//! including the forged-in-batch adversarial cases mirrored from
//! `tests/adversarial.rs`. The parallel layer is an execution detail; it
//! must never be observable in outputs.

use borndist::core::ro::{PartialSignature, Signature, ThresholdScheme};
use borndist::pairing::{
    msm, multi_miller_loop_mixed, multi_pairing, multi_pairing_mixed, FixedBaseTable, Fr, G1Affine,
    G1Projective, G2Affine, G2Prepared, G2Projective,
};
use borndist::parallel::{with_parallelism, Parallelism};
use borndist::shamir::{
    pedersen_check_verdicts, PedersenBases, PedersenCheck, PedersenSharing, ThresholdParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The settings every result is compared across (the first is the
/// sequential reference).
const SETTINGS: [Parallelism; 3] = [
    Parallelism::Sequential,
    Parallelism::Threads(2),
    Parallelism::Threads(7),
];

/// Runs `f` under every setting and asserts all results equal the
/// sequential reference.
fn invariant<R: PartialEq + std::fmt::Debug>(label: &str, f: impl Fn() -> R) -> R {
    let reference = with_parallelism(SETTINGS[0], &f);
    for p in &SETTINGS[1..] {
        let got = with_parallelism(*p, &f);
        assert_eq!(got, reference, "{} diverged under {:?}", label, p);
    }
    reference
}

fn signed_batch(
    scheme: &ThresholdScheme,
    seed: u64,
    k: usize,
) -> (
    borndist::core::ro::KeyMaterial,
    Vec<Vec<u8>>,
    Vec<Signature>,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let km = scheme.dealer_keygen(ThresholdParams::new(2, 6).unwrap(), &mut rng);
    let msgs: Vec<Vec<u8>> = (0..k).map(|i| format!("inv-{}", i).into_bytes()).collect();
    let sigs: Vec<Signature> = msgs
        .iter()
        .map(|m| {
            let partials: Vec<PartialSignature> = (1..=3u32)
                .map(|i| scheme.share_sign(&km.shares[&i], m))
                .collect();
            scheme.combine(&km.params, &partials).unwrap()
        })
        .collect();
    (km, msgs, sigs)
}

#[test]
fn batch_verify_verdicts_are_thread_count_invariant() {
    let scheme = ThresholdScheme::new(b"par-inv-batch");
    let (km, msgs, sigs) = signed_batch(&scheme, 0x1a, 16);
    let items: Vec<(&[u8], &Signature)> = msgs
        .iter()
        .zip(sigs.iter())
        .map(|(m, s)| (m.as_slice(), s))
        .collect();
    // Valid batch accepted under every setting; same RNG seed per run so
    // even the random batching weights are identical.
    let ok = invariant("batch_verify(valid)", || {
        let mut r = StdRng::seed_from_u64(1);
        scheme.batch_verify(&km.public_key, &items, &mut r)
    });
    assert!(ok);
    // Forged-in-batch (signature moved onto the wrong message, as in
    // tests/adversarial.rs): rejected under every setting.
    let mut forged = items.clone();
    forged[11].1 = items[3].1;
    let bad = invariant("batch_verify(forged)", || {
        let mut r = StdRng::seed_from_u64(2);
        scheme.batch_verify(&km.public_key, &forged, &mut r)
    });
    assert!(!bad);
}

#[test]
fn combine_verified_output_is_thread_count_invariant() {
    let scheme = ThresholdScheme::new(b"par-inv-combine");
    let mut rng = StdRng::seed_from_u64(0x3c);
    let km = scheme.dealer_keygen(ThresholdParams::new(2, 6).unwrap(), &mut rng);
    let msg = b"invariant combine";
    let mut partials: Vec<PartialSignature> = (1..=6u32)
        .map(|i| scheme.share_sign(&km.shares[&i], msg))
        .collect();
    // Happy path: the combined signature (a deterministic function of
    // the surviving shares) must be identical under every setting.
    let sig = invariant("combine_verified(happy)", || {
        scheme
            .combine_verified(
                &km.params,
                &km.public_key,
                &km.verification_keys,
                msg,
                &partials,
            )
            .unwrap()
    });
    assert!(scheme.verify(&km.public_key, msg, &sig));
    // Byzantine path: two corrupted shares force the per-share fallback
    // filter; the filtered combine must still agree bit-for-bit.
    partials[1].sig.z = partials[2].sig.z;
    partials[4].sig.r = partials[2].sig.r;
    let sig = invariant("combine_verified(byzantine)", || {
        scheme
            .combine_verified(
                &km.params,
                &km.public_key,
                &km.verification_keys,
                msg,
                &partials,
            )
            .unwrap()
    });
    assert!(scheme.verify(&km.public_key, msg, &sig));
}

#[test]
fn msm_is_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(0x4d);
    // 40 points exercises the parallel window path (>= 32), 8 the
    // sequential guard; compare in canonical affine coordinates so the
    // check is bit-level, not just equality-up-to-representative.
    for n in [8usize, 40, 200] {
        let bases: Vec<G1Affine> = (0..n)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let mut scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        scalars[0] = Fr::zero();
        scalars[n / 2] = Fr::one();
        let got = invariant(&format!("msm(n={})", n), || {
            msm(&bases, &scalars).to_affine()
        });
        // Cross-check against the sequential result in projective form.
        assert_eq!(
            got,
            with_parallelism(Parallelism::Sequential, || msm(&bases, &scalars)).to_affine()
        );
    }
}

#[test]
fn pedersen_check_fold_is_thread_count_invariant() {
    // One receiver's round-1 fold at n = 32, t = 15, width 2: 62 checks,
    // so the folded MSM (64 points) takes the parallel window path.
    let mut rng = StdRng::seed_from_u64(0x5d);
    let bases = PedersenBases {
        g_z: G2Projective::random(&mut rng).to_affine(),
        g_r: G2Projective::random(&mut rng).to_affine(),
    };
    let sharings: Vec<PedersenSharing> = (0..62)
        .map(|_| PedersenSharing::deal_random(&bases, 15, &mut rng))
        .collect();
    let mut checks: Vec<PedersenCheck<'_>> = sharings
        .iter()
        .map(|s| PedersenCheck {
            commitment: &s.commitment,
            share: s.share_for(32),
        })
        .collect();
    let honest = invariant("pedersen_check_verdicts(honest)", || {
        pedersen_check_verdicts(&bases, &checks, &mut StdRng::seed_from_u64(5))
    });
    assert!(honest.iter().all(|v| *v));
    checks[17].share.b += Fr::one();
    let forged = invariant("pedersen_check_verdicts(forged)", || {
        pedersen_check_verdicts(&bases, &checks, &mut StdRng::seed_from_u64(6))
    });
    assert_eq!(forged.iter().filter(|v| !**v).count(), 1);
    assert!(!forged[17]);
}

#[test]
fn pairing_products_are_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(0x5e);
    let pairs: Vec<(G1Affine, G2Affine)> = (0..6)
        .map(|_| {
            (
                G1Projective::random(&mut rng).to_affine(),
                G2Projective::random(&mut rng).to_affine(),
            )
        })
        .collect();
    let prepared: Vec<(G1Affine, G2Prepared)> = (0..3)
        .map(|_| {
            let q = G2Projective::random(&mut rng).to_affine();
            (
                G1Projective::random(&mut rng).to_affine(),
                G2Prepared::new(&q),
            )
        })
        .collect();
    let live: Vec<(&G1Affine, &G2Affine)> = pairs.iter().map(|(p, q)| (p, q)).collect();
    let pre: Vec<(&G1Affine, &G2Prepared)> = prepared.iter().map(|(p, q)| (p, q)).collect();
    invariant("multi_pairing", || multi_pairing(&live));
    invariant("multi_pairing_mixed", || multi_pairing_mixed(&live, &pre));
    // The raw Miller accumulator (an Fp12 with derived bit-level
    // equality) is where shard folding happens — check it directly.
    invariant("multi_miller_loop_mixed", || {
        multi_miller_loop_mixed(&live, &pre)
    });
}

#[test]
fn normalization_and_tables_are_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(0x6f);
    let mut pts: Vec<G1Projective> = (0..300).map(|_| G1Projective::random(&mut rng)).collect();
    pts[7] = G1Projective::identity();
    pts[299] = G1Projective::identity();
    invariant("batch_to_affine(300)", || {
        G1Projective::batch_to_affine(&pts)
    });
    let base = G1Projective::random(&mut rng);
    invariant("fixed_base_table", || FixedBaseTable::new(&base));
}

#[test]
fn dkg_outputs_are_thread_count_invariant() {
    use borndist::dkg::{dkg_session, standard_config, Behavior};
    use borndist::net::TransportKind;
    use std::collections::BTreeMap;
    let params = ThresholdParams::new(2, 5).unwrap();
    let cfg = standard_config(params, 2, b"par-inv-dkg", false);
    // One corrupt dealer so the complaint/answer verification paths run.
    let mut behaviors: BTreeMap<u32, Behavior> = BTreeMap::new();
    behaviors.insert(
        2,
        Behavior {
            corrupt_shares_to: [4u32].into_iter().collect(),
            refuse_answers: true,
            ..Behavior::default()
        },
    );
    let outputs = invariant("dkg_session(byzantine)", || {
        let (outputs, _) = dkg_session(&cfg, &behaviors, 0x77, &TransportKind::Lockstep).unwrap();
        outputs
    });
    // Sanity: the honest players agreed on a qualified set that excludes
    // the refusing dealer.
    let honest = outputs[&1].as_ref().unwrap();
    assert!(!honest.qualified.contains(&2));
}

/// Run metrics compared by traffic only: the wall-clock samples differ
/// from run to run.
#[derive(Debug)]
struct Traffic(borndist::net::Metrics);

impl PartialEq for Traffic {
    fn eq(&self, other: &Self) -> bool {
        self.0.same_traffic(&other.0)
    }
}

#[test]
fn faulted_dkg_runs_are_thread_count_invariant() {
    use borndist::dkg::{dkg_session, standard_config};
    use borndist::net::{DeliveryPolicy, Tamper, TamperRule, TransportKind};
    use std::collections::BTreeMap;
    let params = ThresholdParams::new(2, 7).unwrap();
    let cfg = standard_config(params, 2, b"par-inv-faulted-dkg", false);
    // The in-memory link runs under the caller's setting whatever the
    // policy, so every fault stream must come out the same under each.
    let policy = DeliveryPolicy {
        seed: 0x5eed,
        drop_rate: 0.15,
        duplicate_rate: 0.1,
        reorder: true,
        tamper: vec![TamperRule {
            round: 0,
            from: 6,
            kind: Tamper::FlipPayloadBit,
        }],
        ..DeliveryPolicy::default()
    };
    let transport = TransportKind::Channel(policy);
    let (outputs, _) = invariant("dkg_session(faulted channel)", || {
        let (outputs, metrics) = dkg_session(&cfg, &BTreeMap::new(), 0x78, &transport).unwrap();
        (outputs, Traffic(metrics))
    });
    // Sanity: the faults bit (the tampered dealer is out) and every
    // player still finished.
    let reference = outputs[&1].as_ref().unwrap();
    assert!(!reference.qualified.contains(&6));
    assert!(outputs.values().all(|o| o.is_ok()));
}
