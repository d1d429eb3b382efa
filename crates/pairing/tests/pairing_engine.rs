//! Property tests pinning the optimal-ate pairing engine to its
//! references (ISSUE 3):
//!
//! * `pairing == pairing_tate_g2^ATE_TATE_EXP` — the strict
//!   Hess–Smart–Vercauteren relation between the ate engine and the
//!   swapped-argument reduced Tate pairing, on random and edge inputs
//!   (identity arguments, negated points, multi-pairing cancellation);
//! * both engines and the retained G1-side Tate reference realize the
//!   *same bilinear map up to the fixed change of `GT` generator*:
//!   `e(aP, bQ) = e(g1, g2)^(ab)` for each engine (a bilinear map is
//!   determined by its generator value);
//! * `Fp12::frobenius_p` equals the generic power `f^p`
//!   (`pow_vartime` by the modulus limbs), and the Frobenius ladder
//!   composes correctly;
//! * `Fp12::cyclotomic_square` equals the generic square on unitary
//!   (cyclotomic-subgroup) elements;
//! * the cyclotomic hard-part chain of [`final_exponentiation`] equals
//!   the retained generic power by `FINAL_EXP_HARD` (cubed — the chain
//!   computes `m^(3λ)`);
//! * `Gt::pow` (wNAF over cyclotomic squarings) equals the generic
//!   square-and-multiply power.

use borndist_pairing::constants::FP_MODULUS;
use borndist_pairing::reference::{ATE_TATE_EXP, FINAL_EXP_HARD};
use borndist_pairing::{
    final_exponentiation, multi_miller_loop, multi_pairing, multi_pairing_mixed,
    multi_pairing_prepared, multi_pairing_tate, pairing, pairing_tate, pairing_tate_g2, Field,
    Fp12, Fr, G1Affine, G1Projective, G2Affine, G2Prepared, G2Projective, Gt,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng_from(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Rebuilds a scalar from little-endian canonical limbs through the
/// public API (Horner over the limb radix `2^64`).
fn fr_from_limbs(limbs: &[u64; 4]) -> Fr {
    let radix = Fr::from_u64(u64::MAX) + Fr::one();
    limbs
        .iter()
        .rev()
        .fold(Fr::zero(), |acc, &l| acc * radix + Fr::from_u64(l))
}

/// The exponent relating the ate engine to the G2-side Tate reference.
fn ate_tate_exp() -> Fr {
    fr_from_limbs(&ATE_TATE_EXP)
}

/// Maps an arbitrary field element into the cyclotomic subgroup via the
/// easy part of the final exponentiation.
fn to_cyclotomic(f: &Fp12) -> Fp12 {
    let t = f.conjugate() * f.invert().expect("non-zero");
    t.frobenius_p2() * t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The strict fixed-exponent relation on random points.
    #[test]
    fn ate_equals_tate_g2_power(seed in any::<u64>()) {
        let mut rng = rng_from(seed);
        let p = G1Projective::random(&mut rng).to_affine();
        let q = G2Projective::random(&mut rng).to_affine();
        let d = ate_tate_exp();
        prop_assert_eq!(pairing(&p, &q), pairing_tate_g2(&p, &q).pow(&d));
        // Negated points flip both sides consistently.
        let np = p.neg();
        prop_assert_eq!(pairing(&np, &q), pairing_tate_g2(&np, &q).pow(&d));
        prop_assert_eq!(pairing(&np, &q), pairing(&p, &q).inverse());
    }

    /// Both engines are THE bilinear map determined by their generator
    /// value: e(aP, bQ) == e(g1, g2)^(ab).
    #[test]
    fn engines_agree_up_to_gt_generator(seed in any::<u64>()) {
        let mut rng = rng_from(seed);
        let (a, b) = (Fr::random(&mut rng), Fr::random(&mut rng));
        let p = G1Projective::generator().mul(&a).to_affine();
        let q = G2Projective::generator().mul(&b).to_affine();
        let g1 = G1Affine::generator();
        let g2 = G2Affine::generator();
        let ab = a * b;
        prop_assert_eq!(pairing(&p, &q), pairing(&g1, &g2).pow(&ab));
        prop_assert_eq!(pairing_tate(&p, &q), pairing_tate(&g1, &g2).pow(&ab));
        prop_assert_eq!(pairing_tate_g2(&p, &q), pairing_tate_g2(&g1, &g2).pow(&ab));
    }

    /// Multi-pairing cancellation through every engine's shared loop.
    #[test]
    fn multi_pairing_cancellation(seed in any::<u64>()) {
        let mut rng = rng_from(seed);
        let p = G1Projective::random(&mut rng).to_affine();
        let q = G2Projective::random(&mut rng).to_affine();
        let np = p.neg();
        prop_assert!(multi_pairing(&[(&p, &q), (&np, &q)]).is_identity());
        prop_assert!(multi_pairing_tate(&[(&p, &q), (&np, &q)]).is_identity());
        let prep = G2Prepared::new(&q);
        prop_assert!(
            multi_pairing_prepared(&[(&p, &prep), (&np, &prep)]).is_identity()
        );
        // Mixed split of the same cancelling product.
        prop_assert!(multi_pairing_mixed(&[(&p, &q)], &[(&np, &prep)]).is_identity());
    }

    /// Prepared and mixed products agree with the live-loop product.
    #[test]
    fn prepared_paths_match_live(seed in any::<u64>()) {
        let mut rng = rng_from(seed);
        let pts: Vec<(G1Affine, G2Affine)> = (0..3)
            .map(|_| (
                G1Projective::random(&mut rng).to_affine(),
                G2Projective::random(&mut rng).to_affine(),
            ))
            .collect();
        let refs: Vec<(&G1Affine, &G2Affine)> = pts.iter().map(|(p, q)| (p, q)).collect();
        let want = multi_pairing(&refs);
        let preps: Vec<G2Prepared> = pts.iter().map(|(_, q)| G2Prepared::new(q)).collect();
        let prepared: Vec<(&G1Affine, &G2Prepared)> = pts
            .iter()
            .zip(preps.iter())
            .map(|((p, _), t)| (p, t))
            .collect();
        prop_assert_eq!(multi_pairing_prepared(&prepared), want);
        prop_assert_eq!(multi_pairing_mixed(&refs[..1], &prepared[1..]), want);
    }

    /// The p-power Frobenius equals the generic power by the modulus.
    #[test]
    fn frobenius_p_matches_generic_power(seed in any::<u64>()) {
        let mut rng = rng_from(seed);
        let f = Fp12::random(&mut rng);
        prop_assert_eq!(f.frobenius_p(), f.pow_vartime(&FP_MODULUS));
        prop_assert_eq!(f.frobenius_p().frobenius_p(), f.frobenius_p2());
        prop_assert_eq!(f.frobenius_p2().frobenius_p(), f.frobenius_p3());
    }

    /// Cyclotomic squaring equals the generic square on unitary inputs.
    #[test]
    fn cyclotomic_square_matches_generic(seed in any::<u64>()) {
        let mut rng = rng_from(seed);
        let u = to_cyclotomic(&Fp12::random(&mut rng));
        prop_assert_eq!(u.cyclotomic_square(), u.square());
        prop_assert_eq!(
            u.cyclotomic_square().cyclotomic_square(),
            u.square().square()
        );
    }

    /// The hard-part addition chain equals the retained generic power
    /// (cubed: the chain computes m^(3λ)).
    #[test]
    fn hard_part_chain_matches_generic_power(seed in any::<u64>()) {
        let mut rng = rng_from(seed);
        let p = G1Projective::random(&mut rng).to_affine();
        let q = G2Projective::random(&mut rng).to_affine();
        let miller = multi_miller_loop(&[(&p, &q)]);
        let chain = final_exponentiation(&miller);
        let m = to_cyclotomic(&miller);
        let generic = m.pow_vartime(&FINAL_EXP_HARD);
        prop_assert_eq!(*chain.as_fp12(), generic * generic * generic);
    }

    /// Gt::pow (wNAF over cyclotomic squarings) equals the generic
    /// square-and-multiply power of the underlying field element.
    #[test]
    fn gt_pow_matches_generic(seed in any::<u64>()) {
        let mut rng = rng_from(seed);
        let e = pairing(
            &G1Projective::random(&mut rng).to_affine(),
            &G2Projective::random(&mut rng).to_affine(),
        );
        let mut scalars = vec![Fr::zero(), Fr::one(), -Fr::one(), Fr::from_u64(2)];
        scalars.push(Fr::random(&mut rng));
        for k in &scalars {
            let want = e.as_fp12().pow_vartime(&k.to_le_bits());
            prop_assert_eq!(*e.pow(k).as_fp12(), want);
        }
    }
}

#[test]
fn identity_edges_across_engines() {
    let g1 = G1Affine::generator();
    let g2 = G2Affine::generator();
    let id1 = G1Affine::identity();
    let id2 = G2Affine::identity();
    for (p, q) in [(&id1, &g2), (&g1, &id2), (&id1, &id2)] {
        assert!(pairing(p, q).is_identity());
        assert!(pairing_tate(p, q).is_identity());
        assert!(pairing_tate_g2(p, q).is_identity());
    }
    assert!(multi_pairing(&[]).is_identity());
    assert!(multi_pairing_tate(&[]).is_identity());
    assert!(multi_pairing_prepared(&[]).is_identity());
    assert_eq!(
        *Gt::identity().as_fp12(),
        Fp12::one(),
        "identity wraps the field one"
    );
}

#[test]
fn generator_pairing_relation_holds_exactly() {
    // The single most important known answer: on the canonical
    // generators the ate engine equals the Tate_g2 reference raised to
    // the precomputed HSV exponent.
    let g1 = G1Affine::generator();
    let g2 = G2Affine::generator();
    assert_eq!(
        pairing(&g1, &g2),
        pairing_tate_g2(&g1, &g2).pow(&ate_tate_exp())
    );
    // And the shared prepared generator agrees with the live path.
    let prep = borndist_pairing::g2_generator_prepared();
    assert_eq!(multi_pairing_prepared(&[(&g1, prep)]), pairing(&g1, &g2));
}
