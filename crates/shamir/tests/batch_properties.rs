//! Property-based tests for the cross-dealer batched check layer: the
//! randomized single-MSM verdicts must agree with the per-dealer
//! `verify_share` loop on every input — all-honest, sparsely corrupted,
//! withheld, forged in the top coefficient only, all forged, and with a
//! single forged share hidden among 128 dealers — and the
//! Lagrange cache must be a pure memoization of the fresh computation.

use borndist_pairing::{Fr, G1Projective, G2Projective};
use borndist_shamir::{
    feldman_check_verdicts, lagrange_coefficients_at_zero, pedersen_batch_verify,
    pedersen_check_verdicts, FeldmanCheck, FeldmanCommitment, LagrangeCache, PedersenBases,
    PedersenCheck, PedersenCommitment, PedersenShare, PedersenSharing, Polynomial,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn bases(rng: &mut StdRng) -> PedersenBases {
    PedersenBases {
        g_z: G2Projective::random(rng).to_affine(),
        g_r: G2Projective::random(rng).to_affine(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched Pedersen verdicts equal the per-dealer loop when some
    /// random subset of shares is perturbed.
    #[test]
    fn pedersen_batch_matches_per_dealer(
        seed in any::<u64>(),
        dealers in 1usize..20,
        t in 0usize..4,
        corrupt_mask in any::<u32>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = bases(&mut rng);
        let sharings: Vec<PedersenSharing> =
            (0..dealers).map(|_| PedersenSharing::deal_random(&b, t, &mut rng)).collect();
        let checks: Vec<PedersenCheck<'_>> = sharings.iter().enumerate().map(|(j, s)| {
            let mut share = s.share_for(3);
            if corrupt_mask & (1 << (j % 32)) != 0 {
                share = PedersenShare {
                    index: share.index,
                    a: share.a + Fr::random_nonzero(&mut rng),
                    b: share.b,
                };
            }
            PedersenCheck { commitment: &s.commitment, share }
        }).collect();
        let per_dealer: Vec<bool> = checks.iter()
            .map(|c| c.commitment.verify_share(&b, &c.share))
            .collect();
        let batched = pedersen_check_verdicts(&b, &checks, &mut rng);
        prop_assert_eq!(batched, per_dealer.clone());
        let accept = pedersen_batch_verify(&b, &checks, &mut rng);
        prop_assert_eq!(accept, per_dealer.iter().all(|v| *v));
    }

    /// One forged share hidden among 128 honest dealers is isolated by
    /// the bisection with exactly the per-dealer verdict vector.
    #[test]
    fn pedersen_batch_isolates_one_forgery_in_128(seed in any::<u64>(), victim in 0usize..128) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = bases(&mut rng);
        let sharings: Vec<PedersenSharing> =
            (0..128).map(|_| PedersenSharing::deal_random(&b, 2, &mut rng)).collect();
        let delta = Fr::random_nonzero(&mut rng);
        let checks: Vec<PedersenCheck<'_>> = sharings.iter().enumerate().map(|(j, s)| {
            let mut share = s.share_for(9);
            if j == victim {
                share = PedersenShare { index: share.index, a: share.a, b: share.b + delta };
            }
            PedersenCheck { commitment: &s.commitment, share }
        }).collect();
        let batched = pedersen_check_verdicts(&b, &checks, &mut rng);
        prop_assert!(!batched[victim]);
        prop_assert_eq!(batched.iter().filter(|v| **v).count(), 127);
    }

    /// Batched Feldman verdicts equal the per-check loop under random
    /// corruption.
    #[test]
    fn feldman_batch_matches_per_check(
        seed in any::<u64>(),
        dealers in 1usize..12,
        t in 0usize..4,
        corrupt_mask in any::<u32>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = G1Projective::random(&mut rng);
        let polys: Vec<Polynomial> =
            (0..dealers).map(|_| Polynomial::random(t, &mut rng)).collect();
        let commitments: Vec<FeldmanCommitment<_>> =
            polys.iter().map(|p| FeldmanCommitment::commit(p, &g)).collect();
        let mut shares: Vec<Fr> = polys.iter().map(|p| p.evaluate_at_index(5)).collect();
        for (j, s) in shares.iter_mut().enumerate() {
            if corrupt_mask & (1 << (j % 32)) != 0 {
                *s += Fr::random_nonzero(&mut rng);
            }
        }
        let checks: Vec<FeldmanCheck<'_, _>> = commitments.iter().zip(&shares)
            .map(|(c, share)| FeldmanCheck { commitment: c, index: 5, share: *share })
            .collect();
        let per_check: Vec<bool> = commitments.iter().zip(&shares)
            .map(|(c, share)| c.verify_share(5, *share, &g))
            .collect();
        let batched = feldman_check_verdicts(&g, &checks, &mut rng);
        prop_assert_eq!(batched, per_check);
    }

    /// The Lagrange cache returns exactly what the fresh computation
    /// returns, for random qualified sets, warm or cold.
    #[test]
    fn lagrange_cache_matches_fresh(seed in any::<u64>(), k in 1usize..24, spread in 2u32..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cache = LagrangeCache::new();
        // A random strictly-increasing index set (distinct, non-zero).
        let mut indices: Vec<u32> = Vec::with_capacity(k);
        let mut next = 1u32;
        for _ in 0..k {
            next += 1 + (rand::RngCore::next_u32(&mut rng) % spread);
            indices.push(next);
        }
        let fresh = lagrange_coefficients_at_zero(&indices).unwrap();
        let cold = cache.at_zero(&indices).unwrap();
        prop_assert_eq!(&*cold, &fresh);
        // Warm hit: same Arc contents, no recompute divergence.
        let warm = cache.at_zero(&indices).unwrap();
        prop_assert_eq!(&*warm, &fresh);
        prop_assert_eq!(cache.cached_sets(), 1);
        // Order is part of the identity: a permuted set is a new entry
        // whose coefficients are the permuted fresh coefficients.
        if indices.len() > 1 {
            let mut rev = indices.clone();
            rev.reverse();
            let rev_coeffs = cache.at_zero(&rev).unwrap();
            let mut expect = fresh.clone();
            expect.reverse();
            prop_assert_eq!(&*rev_coeffs, &expect);
            prop_assert_eq!(cache.cached_sets(), 2);
        }
    }
}

proptest! {
    // 62 dealings at t = 15 per case.
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// One receiver's round-1 fold at n = 32, t = 15, width 2: the
    /// verdicts equal the per-share loop when a random subset of the 31
    /// other dealers withholds (its checks never reach the fold), a
    /// random subset of shares is forged, and one dealer forges only the
    /// top coefficient of its commitment — a fault that shows only
    /// through the `index^t` term. With every share forged, every
    /// verdict is a rejection.
    #[test]
    fn pedersen_verdicts_match_per_share_at_n32(seed in any::<u64>(), receiver in 1u32..33) {
        let t = 15;
        let mut rng = StdRng::seed_from_u64(seed);
        let b = bases(&mut rng);
        let top_forger = (rng.next_u32() % 31) as usize;
        let mut sharings: Vec<PedersenSharing> = Vec::new();
        let mut commitments: Vec<PedersenCommitment> = Vec::new();
        for j in 0..31 {
            for _ in 0..2 {
                let s = PedersenSharing::deal_random(&b, t, &mut rng);
                let mut commitment = s.commitment.clone();
                if j == top_forger {
                    let mut coeffs = s.poly_a.coefficients().to_vec();
                    coeffs[t] += Fr::random_nonzero(&mut rng);
                    commitment = PedersenSharing::from_polynomials(
                        &b,
                        Polynomial::from_coefficients(coeffs),
                        s.poly_b.clone(),
                    )
                    .commitment;
                }
                sharings.push(s);
                commitments.push(commitment);
            }
        }
        let mut checks: Vec<PedersenCheck<'_>> = Vec::new();
        for dealer in sharings.chunks(2).zip(commitments.chunks(2)) {
            if rng.next_u32() % 4 == 0 {
                continue; // withheld
            }
            for (s, commitment) in dealer.0.iter().zip(dealer.1) {
                let mut share = s.share_for(receiver);
                if rng.next_u32() % 8 == 0 {
                    share.a += Fr::random_nonzero(&mut rng);
                }
                checks.push(PedersenCheck { commitment, share });
            }
        }
        let per_share: Vec<bool> = checks.iter()
            .map(|c| c.commitment.verify_share(&b, &c.share))
            .collect();
        prop_assert!(!per_share.is_empty());
        prop_assert_eq!(pedersen_check_verdicts(&b, &checks, &mut rng), per_share);

        for c in checks.iter_mut() {
            c.share.b += Fr::random_nonzero(&mut rng);
        }
        let verdicts = pedersen_check_verdicts(&b, &checks, &mut rng);
        prop_assert!(verdicts.iter().all(|v| !*v));
    }
}
