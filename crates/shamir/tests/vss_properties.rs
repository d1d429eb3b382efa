//! Property-based tests for the secret-sharing layer: VSS soundness and
//! completeness, homomorphic combination, interpolation identities.

use borndist_pairing::{Fr, G2Projective};
use borndist_shamir::{
    interpolate_in_exponent, lagrange_coefficients_at, PedersenBases, PedersenShare,
    PedersenSharing, Polynomial,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bases(rng: &mut StdRng) -> PedersenBases {
    PedersenBases {
        g_z: G2Projective::random(rng).to_affine(),
        g_r: G2Projective::random(rng).to_affine(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Completeness: every honestly dealt share verifies, for all degrees.
    #[test]
    fn pedersen_completeness(seed in any::<u64>(), t in 0usize..7) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = bases(&mut rng);
        let sharing = PedersenSharing::deal_random(&b, t, &mut rng);
        for i in 1..=(2 * t as u32 + 3) {
            prop_assert!(sharing.commitment.verify_share(&b, &sharing.share_for(i)));
        }
    }

    /// Soundness: any perturbation of a share is rejected.
    #[test]
    fn pedersen_soundness(seed in any::<u64>(), t in 0usize..5, idx in 1u32..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = bases(&mut rng);
        let sharing = PedersenSharing::deal_random(&b, t, &mut rng);
        let delta = Fr::random_nonzero(&mut rng);
        let good = sharing.share_for(idx);
        let bad_a = PedersenShare { index: idx, a: good.a + delta, b: good.b };
        let bad_b = PedersenShare { index: idx, a: good.a, b: good.b + delta };
        prop_assert!(!sharing.commitment.verify_share(&b, &bad_a));
        prop_assert!(!sharing.commitment.verify_share(&b, &bad_b));
    }

    /// Homomorphism: sums of sharings verify against combined commitments
    /// for arbitrarily many dealers.
    #[test]
    fn pedersen_combination(seed in any::<u64>(), dealers in 1usize..6, t in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = bases(&mut rng);
        let sharings: Vec<PedersenSharing> =
            (0..dealers).map(|_| PedersenSharing::deal_random(&b, t, &mut rng)).collect();
        let combined = sharings.iter()
            .map(|s| s.commitment.clone())
            .reduce(|x, y| x.combine(&y))
            .unwrap();
        for i in 1..=4u32 {
            let (mut a, mut bb) = (Fr::zero(), Fr::zero());
            for s in &sharings {
                let sh = s.share_for(i);
                a += sh.a;
                bb += sh.b;
            }
            let sum_share = PedersenShare { index: i, a, b: bb };
            prop_assert!(combined.verify_share(&b, &sum_share));
        }
    }

    /// Lagrange basis: Δ_{i,S}(j) = [i == j] for j ∈ S (Kronecker
    /// property), which underlies both Combine and share recovery.
    #[test]
    fn lagrange_kronecker(indices in proptest::collection::btree_set(1u32..64, 2..6)) {
        let v: Vec<u32> = indices.iter().copied().collect();
        for (pos, &j) in v.iter().enumerate() {
            let coeffs = lagrange_coefficients_at(&v, Fr::from_u64(j as u64)).unwrap();
            for (k, c) in coeffs.iter().enumerate() {
                if k == pos {
                    prop_assert_eq!(*c, Fr::one());
                } else {
                    prop_assert_eq!(*c, Fr::zero());
                }
            }
        }
    }

    /// Interpolation in the exponent agrees with interpolation in the
    /// field (the soundness of "Lagrange in the exponent").
    #[test]
    fn exponent_interpolation_agrees(seed in any::<u64>(), t in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let poly = Polynomial::random(t, &mut rng);
        let g = G2Projective::generator();
        let pts: Vec<(u32, _)> = (1..=(t as u32 + 1))
            .map(|i| (i, g.mul(&poly.evaluate_at_index(i)).to_affine()))
            .collect();
        let in_exponent = interpolate_in_exponent(&pts).unwrap();
        prop_assert_eq!(in_exponent, g.mul(&poly.constant_term()));
    }

    /// A zero-constant (refresh) sharing never moves the constant
    /// commitment, for any degree.
    #[test]
    fn refresh_sharing_shape(seed in any::<u64>(), t in 0usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = bases(&mut rng);
        let z = PedersenSharing::from_polynomials(
            &b,
            Polynomial::random_zero_constant(t, &mut rng),
            Polynomial::random_zero_constant(t, &mut rng),
        );
        prop_assert!(z.commitment.is_zero_sharing());
        let fresh = PedersenSharing::deal_random(&b, t, &mut rng);
        let refreshed = fresh.commitment.combine(&z.commitment);
        prop_assert_eq!(
            refreshed.constant_commitment(),
            fresh.commitment.constant_commitment()
        );
    }
}
