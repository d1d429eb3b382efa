//! Property tests proving every scalar-multiplication fast path agrees
//! with the schoolbook double-and-add slow path (`mul_schoolbook`, built
//! under the `reference` feature): the joint wNAF ladder behind `mul`
//! (GLV/GLS lanes) and `mul_vartime_limbs` (one lane), fixed-base window
//! tables ([`FixedBaseTable`]), Pippenger MSM ([`msm`]), and the
//! batched-inversion affine conversion — on random scalars, the edge
//! scalars `0`, `1`, `r - 1`, the endomorphism eigenvalues themselves,
//! identity inputs, and duplicated bases. The GLV-2 / GLS-4
//! decompositions additionally carry their own congruence and bit-bound
//! properties.

use borndist_pairing::constants::ORDER;
use borndist_pairing::{
    batch_invert, decompose_g1, decompose_g2, gls_eigenvalue, glv_lambda, msm, CurveParams,
    FixedBaseTable, Fp, Fr, G1Affine, G1Params, G1Projective, G2Params, G2Projective, SubScalar,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng_from(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// `r - 1`, the largest canonical scalar.
fn r_minus_one() -> Fr {
    -Fr::one()
}

/// The scalars every equivalence check must survive: the classic edges
/// plus the endomorphism eigenvalues, which sit exactly on the GLV/GLS
/// decomposition's rounding boundaries.
fn edge_scalars() -> Vec<Fr> {
    vec![
        Fr::zero(),
        Fr::one(),
        r_minus_one(),
        Fr::from_u64(2),
        glv_lambda(),
        -glv_lambda(),
        gls_eigenvalue(),
        -gls_eigenvalue(),
    ]
}

/// Evaluates a signed sub-scalar back into `Fr` through independent
/// field arithmetic (base-2⁶⁴ Horner over the magnitude limbs).
fn sub_scalar_fr(s: &SubScalar) -> Fr {
    let two64 = Fr::from_u64(2).pow_vartime(&[64]);
    let mut mag = Fr::zero();
    for &l in s.limbs.iter().rev() {
        mag = mag * two64 + Fr::from_u64(l);
    }
    if s.negative {
        -mag
    } else {
        mag
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// wNAF variable-base multiplication equals schoolbook on G1 and G2,
    /// through both entry points of the one ladder: `mul` (endomorphism
    /// lanes) and `mul_vartime_limbs` (one lane), the latter also on
    /// integers that are not canonical scalars: the order and both
    /// cofactors (G2's is eight limbs long).
    #[test]
    fn wnaf_matches_schoolbook(seed in any::<u64>()) {
        let mut rng = rng_from(seed);
        let p1 = G1Projective::random(&mut rng);
        let p2 = G2Projective::random(&mut rng);
        let mut scalars = edge_scalars();
        scalars.push(Fr::random(&mut rng));
        for s in &scalars {
            let bits = s.to_le_bits();
            prop_assert_eq!(p1.mul(s), p1.mul_schoolbook(&bits));
            prop_assert_eq!(p2.mul(s), p2.mul_schoolbook(&bits));
            prop_assert_eq!(p1.mul_vartime_limbs(&bits), p1.mul_schoolbook(&bits));
            prop_assert_eq!(p2.mul_vartime_limbs(&bits), p2.mul_schoolbook(&bits));
        }
        for limbs in [&ORDER[..], G1Params::cofactor(), G2Params::cofactor()] {
            prop_assert_eq!(p1.mul_vartime_limbs(limbs), p1.mul_schoolbook(limbs));
            prop_assert_eq!(p2.mul_vartime_limbs(limbs), p2.mul_schoolbook(limbs));
        }
        // Identity base: every scalar maps to the identity.
        let id = G1Projective::identity();
        prop_assert!(id.mul(&Fr::random(&mut rng)).is_identity());
    }

    /// wNAF recoding evaluates back to the scalar (digit semantics).
    #[test]
    fn wnaf_recoding_is_faithful(seed in any::<u64>()) {
        let mut rng = rng_from(seed);
        let s = Fr::random(&mut rng);
        for width in 2..=7usize {
            let digits = s.to_wnaf(width);
            // Σ d_i 2^i · G == s·G through independent group arithmetic.
            let g = G1Projective::generator();
            let mut acc = G1Projective::identity();
            for &d in digits.iter().rev() {
                acc = acc.double();
                if d > 0 {
                    acc += g.mul_schoolbook(&[d as u64]);
                } else if d < 0 {
                    acc += g.mul_schoolbook(&[(-d) as u64]).neg();
                }
            }
            prop_assert_eq!(acc, g.mul(&s), "width {}", width);
        }
    }

    /// Fixed-base tables equal schoolbook for random and edge scalars,
    /// arbitrary bases, and the shared generator tables.
    #[test]
    fn fixed_base_table_matches_schoolbook(seed in any::<u64>()) {
        let mut rng = rng_from(seed);
        let base = G1Projective::random(&mut rng);
        let table = FixedBaseTable::new(&base);
        let mut scalars = edge_scalars();
        scalars.push(Fr::random(&mut rng));
        for s in &scalars {
            prop_assert_eq!(table.mul(s), base.mul_schoolbook(&s.to_le_bits()));
        }
        let s = Fr::random(&mut rng);
        prop_assert_eq!(
            borndist_pairing::mul_g1_generator(&s),
            G1Projective::generator().mul_schoolbook(&s.to_le_bits())
        );
        prop_assert_eq!(
            borndist_pairing::mul_g2_generator(&s),
            G2Projective::generator().mul_schoolbook(&s.to_le_bits())
        );
    }

    /// MSM equals the schoolbook sum on random inputs with identity and
    /// duplicated bases mixed in, across both the naive and bucketed
    /// regimes.
    #[test]
    fn msm_matches_schoolbook(seed in any::<u64>(), n in 1usize..20) {
        let mut rng = rng_from(seed);
        let mut bases: Vec<G1Affine> = (0..n)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let mut scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        // Mix in the identity base, a duplicated base, and edge scalars.
        bases.push(G1Affine::identity());
        scalars.push(Fr::random(&mut rng));
        bases.push(bases[0]);
        scalars.push(Fr::random(&mut rng));
        for (i, s) in edge_scalars().into_iter().enumerate() {
            bases.push(bases[i % bases.len()]);
            scalars.push(s);
        }
        let want = bases
            .iter()
            .zip(scalars.iter())
            .fold(G1Projective::identity(), |acc, (b, s)| {
                acc + b.to_projective().mul_schoolbook(&s.to_le_bits())
            });
        prop_assert_eq!(msm(&bases, &scalars), want);
    }

    /// The GLV-2 split is congruent (`k ≡ k₁ + k₂λ mod r`) with both
    /// sub-scalars at most 129 bits, for random and edge scalars.
    #[test]
    fn glv2_decomposition_congruent_and_short(seed in any::<u64>()) {
        let mut rng = rng_from(seed);
        let lambda = glv_lambda();
        let mut scalars = edge_scalars();
        scalars.push(Fr::random(&mut rng));
        for k in &scalars {
            let dec = decompose_g1(k);
            prop_assert_eq!(dec.len, 2);
            let (k1, k2) = (&dec.parts[0], &dec.parts[1]);
            prop_assert!(k1.bits() <= 129, "k1 has {} bits", k1.bits());
            prop_assert!(k2.bits() <= 129, "k2 has {} bits", k2.bits());
            prop_assert!(!k1.negative, "k1 is never negative by construction");
            prop_assert_eq!(sub_scalar_fr(k1) + sub_scalar_fr(k2) * lambda, *k);
        }
    }

    /// The GLS-4 split recomposes over powers of the ψ eigenvalue with
    /// 64-bit digits, for random and edge scalars.
    #[test]
    fn gls4_decomposition_congruent_and_short(seed in any::<u64>()) {
        let mut rng = rng_from(seed);
        let e = gls_eigenvalue();
        let mut scalars = edge_scalars();
        scalars.push(Fr::random(&mut rng));
        for k in &scalars {
            let dec = decompose_g2(k);
            prop_assert_eq!(dec.len, 4);
            let mut acc = Fr::zero();
            let mut pow = Fr::one();
            for part in &dec.parts[..dec.len] {
                prop_assert!(part.bits() <= 64, "digit has {} bits", part.bits());
                acc += sub_scalar_fr(part) * pow;
                pow *= e;
            }
            prop_assert_eq!(acc, *k);
        }
    }

    /// Batched inversion agrees with element-wise inversion and leaves
    /// zeros untouched.
    #[test]
    fn batch_invert_matches_single(seed in any::<u64>(), n in 0usize..24) {
        let mut rng = rng_from(seed);
        let mut elems: Vec<Fp> = (0..n).map(|_| Fp::random(&mut rng)).collect();
        if n > 2 {
            elems[n / 2] = Fp::zero();
            elems[n - 1] = Fp::zero();
        }
        let mut batched = elems.clone();
        batch_invert(&mut batched);
        for (e, b) in elems.iter().zip(batched.iter()) {
            match e.invert() {
                Some(inv) => prop_assert_eq!(*b, inv),
                None => prop_assert!(b.is_zero()),
            }
        }
    }

    /// Batch affine conversion (one shared inversion) agrees with
    /// per-point conversion, identities included.
    #[test]
    fn batch_to_affine_matches_single(seed in any::<u64>(), n in 0usize..12) {
        let mut rng = rng_from(seed);
        let mut pts: Vec<G1Projective> =
            (0..n).map(|_| G1Projective::random(&mut rng)).collect();
        pts.push(G1Projective::identity());
        pts.insert(0, G1Projective::identity());
        let batch = G1Projective::batch_to_affine(&pts);
        for (p, a) in pts.iter().zip(batch.iter()) {
            prop_assert_eq!(p.to_affine(), *a);
        }
    }
}
