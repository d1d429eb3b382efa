//! Feldman verifiable secret sharing (FOCS '87).
//!
//! The dealer broadcasts `C_ℓ = g^{c_ℓ}` for every polynomial coefficient;
//! each party checks its share against `g^{P(i)} = Π C_ℓ^{i^ℓ}`. Used by
//! the static-secure Boldyreva baseline (single-generator DKG); the
//! paper's own protocol uses the two-generator Pedersen variant in
//! [`crate::pedersen`].

use crate::polynomial::Polynomial;
use borndist_pairing::codec::{CodecError, Wire};
use borndist_pairing::{msm, Affine, CurveParams, Fr, Projective};

/// A broadcast Feldman commitment to a sharing polynomial: one group
/// element per coefficient.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FeldmanCommitment<C: CurveParams> {
    commitments: Vec<Affine<C>>,
}

impl<C: CurveParams> FeldmanCommitment<C> {
    /// Commits to `poly` under the generator `g`.
    pub fn commit(poly: &Polynomial, g: &Projective<C>) -> Self {
        let points: Vec<Projective<C>> = poly.coefficients().iter().map(|c| g.mul(c)).collect();
        FeldmanCommitment {
            commitments: Projective::batch_to_affine(&points),
        }
    }

    /// Number of committed coefficients (`t + 1`).
    pub fn len(&self) -> usize {
        self.commitments.len()
    }

    /// `true` if the commitment is empty (never for honest dealers).
    pub fn is_empty(&self) -> bool {
        self.commitments.is_empty()
    }

    /// The raw broadcast elements `C_ℓ` (coefficient order) — what the
    /// cross-dealer batch verifier folds into its single MSM.
    pub fn elements(&self) -> &[Affine<C>] {
        &self.commitments
    }

    /// The commitment to the constant term, `g^{P(0)}` — the public key
    /// contribution in Feldman-based DKGs.
    pub fn constant_commitment(&self) -> Affine<C> {
        self.commitments[0]
    }

    /// Evaluates the commitment "in the exponent" at index `i`:
    /// `g^{P(i)} = Π C_ℓ^{i^ℓ}`.
    pub fn evaluate_at_index(&self, index: u32) -> Projective<C> {
        let x = Fr::from_u64(index as u64);
        let mut scalars = Vec::with_capacity(self.commitments.len());
        let mut pow = Fr::one();
        for _ in 0..self.commitments.len() {
            scalars.push(pow);
            pow *= x;
        }
        msm(&self.commitments, &scalars)
    }

    /// Verifies that `share` is the correct evaluation for `index`.
    pub fn verify_share(&self, index: u32, share: Fr, g: &Projective<C>) -> bool {
        g.mul(&share) == self.evaluate_at_index(index)
    }

    /// Componentwise product with another commitment (commits to the sum
    /// of the underlying polynomials). Degrees must match.
    pub fn combine(&self, other: &Self) -> Self {
        assert_eq!(self.len(), other.len(), "mismatched commitment degrees");
        let sums: Vec<Projective<C>> = self
            .commitments
            .iter()
            .zip(other.commitments.iter())
            .map(|(a, b)| a.to_projective().add_affine(b))
            .collect();
        FeldmanCommitment {
            commitments: Projective::batch_to_affine(&sums),
        }
    }
}

impl<C: CurveParams> Wire for FeldmanCommitment<C> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.commitments.encode_to(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(FeldmanCommitment {
            commitments: Vec::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borndist_pairing::{G1Projective, G2Projective};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xfe1d)
    }

    #[test]
    fn valid_shares_verify() {
        let mut r = rng();
        let poly = Polynomial::random(3, &mut r);
        let g = G2Projective::generator();
        let com = FeldmanCommitment::commit(&poly, &g);
        for i in 1u32..=7 {
            assert!(com.verify_share(i, poly.evaluate_at_index(i), &g));
        }
    }

    #[test]
    fn wrong_shares_rejected() {
        let mut r = rng();
        let poly = Polynomial::random(2, &mut r);
        let g = G1Projective::generator();
        let com = FeldmanCommitment::commit(&poly, &g);
        let bad = poly.evaluate_at_index(3) + Fr::one();
        assert!(!com.verify_share(3, bad, &g));
        // Right value, wrong index.
        assert!(!com.verify_share(4, poly.evaluate_at_index(3), &g));
    }

    #[test]
    fn constant_commitment_is_public_key_contribution() {
        let mut r = rng();
        let poly = Polynomial::random(2, &mut r);
        let g = G2Projective::generator();
        let com = FeldmanCommitment::commit(&poly, &g);
        assert_eq!(
            com.constant_commitment().to_projective(),
            g.mul(&poly.constant_term())
        );
    }

    #[test]
    fn combine_commits_to_sum() {
        let mut r = rng();
        let p = Polynomial::random(2, &mut r);
        let q = Polynomial::random(2, &mut r);
        let g = G1Projective::generator();
        let cp = FeldmanCommitment::commit(&p, &g);
        let cq = FeldmanCommitment::commit(&q, &g);
        let sum_com = cp.combine(&cq);
        let sum_poly = p.add(&q);
        for i in 1u32..=5 {
            assert!(sum_com.verify_share(i, sum_poly.evaluate_at_index(i), &g));
        }
    }
}
