//! Two-generator Pedersen verifiable secret sharing — the exact VSS used
//! by the paper's `Dist-Keygen` (§3.1, equation (1)).
//!
//! A dealer shares a *pair* `(a, b)` with polynomials `A[X], B[X]` of
//! degree `t` and broadcasts, for each coefficient index `ℓ`,
//!
//! ```text
//!     Ŵ_ℓ = ĝ_z^{a_ℓ} · ĝ_r^{b_ℓ}   ∈ Ĝ
//! ```
//!
//! Receiver `i` checks its share pair `(A(i), B(i))` against
//! `ĝ_z^{A(i)} ĝ_r^{B(i)} = Π_ℓ Ŵ_ℓ^{i^ℓ}`. Unlike Feldman VSS, the
//! commitment is perfectly hiding in `a` (it is a Pedersen commitment with
//! bases `ĝ_z, ĝ_r`), which is what lets the scheme tolerate Pedersen-DKG
//! key bias while remaining adaptively secure.

use crate::polynomial::Polynomial;
use borndist_pairing::codec::{CodecError, Wire};
use borndist_pairing::{msm, Fr, G2Affine, G2Projective};
use rand::RngCore;

/// The pair of public generators `(ĝ_z, ĝ_r)` of `Ĝ`.
///
/// In the paper these come from the common parameters; no party may know
/// `log_{ĝ_z}(ĝ_r)`, so they are derived by hashing (see the core crate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PedersenBases {
    /// First generator `ĝ_z`.
    pub g_z: G2Affine,
    /// Second generator `ĝ_r`.
    pub g_r: G2Affine,
}

impl PedersenBases {
    /// Commits to a scalar pair: `ĝ_z^a · ĝ_r^b`.
    pub fn commit(&self, a: &Fr, b: &Fr) -> G2Projective {
        msm(&[self.g_z, self.g_r], &[*a, *b])
    }
}

/// A dealer's sharing of one secret pair `(a, b)`: the two polynomials
/// plus the broadcast commitment vector.
#[derive(Clone, Debug)]
pub struct PedersenSharing {
    /// Polynomial `A[X]` with `A(0) = a`.
    pub poly_a: Polynomial,
    /// Polynomial `B[X]` with `B(0) = b`.
    pub poly_b: Polynomial,
    /// Broadcast commitments `Ŵ_ℓ`.
    pub commitment: PedersenCommitment,
}

/// The broadcast part of a Pedersen sharing: `Ŵ_ℓ = ĝ_z^{a_ℓ} ĝ_r^{b_ℓ}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PedersenCommitment {
    w: Vec<G2Affine>,
}

/// A share pair `(A(i), B(i))` sent privately to player `i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PedersenShare {
    /// Recipient index (1-based).
    pub index: u32,
    /// `A(index)`.
    pub a: Fr,
    /// `B(index)`.
    pub b: Fr,
}

impl PedersenSharing {
    /// Deals a fresh random pair `(a, b)` with threshold `t`.
    pub fn deal_random<R: RngCore + ?Sized>(bases: &PedersenBases, t: usize, rng: &mut R) -> Self {
        let poly_a = Polynomial::random(t, rng);
        let poly_b = Polynomial::random(t, rng);
        Self::from_polynomials(bases, poly_a, poly_b)
    }

    /// Deals the pair `(0, 0)` — a *refresh* sharing (§3.3): the constant
    /// commitment is forced to the identity, which receivers must check.
    pub fn deal_zero<R: RngCore + ?Sized>(bases: &PedersenBases, t: usize, rng: &mut R) -> Self {
        let poly_a = Polynomial::random_zero_constant(t, rng);
        let poly_b = Polynomial::random_zero_constant(t, rng);
        Self::from_polynomials(bases, poly_a, poly_b)
    }

    /// Deals specific secrets `(a, b)`.
    pub fn deal_pair<R: RngCore + ?Sized>(
        bases: &PedersenBases,
        a: Fr,
        b: Fr,
        t: usize,
        rng: &mut R,
    ) -> Self {
        let poly_a = Polynomial::random_with_constant(a, t, rng);
        let poly_b = Polynomial::random_with_constant(b, t, rng);
        Self::from_polynomials(bases, poly_a, poly_b)
    }

    /// Builds the sharing from explicit polynomials (degrees must match).
    pub fn from_polynomials(bases: &PedersenBases, poly_a: Polynomial, poly_b: Polynomial) -> Self {
        assert_eq!(
            poly_a.degree(),
            poly_b.degree(),
            "A and B polynomials must have equal degree"
        );
        let points: Vec<G2Projective> = poly_a
            .coefficients()
            .iter()
            .zip(poly_b.coefficients().iter())
            .map(|(a, b)| bases.commit(a, b))
            .collect();
        PedersenSharing {
            poly_a,
            poly_b,
            commitment: PedersenCommitment {
                w: G2Projective::batch_to_affine(&points),
            },
        }
    }

    /// The private share for player `index`.
    pub fn share_for(&self, index: u32) -> PedersenShare {
        PedersenShare {
            index,
            a: self.poly_a.evaluate_at_index(index),
            b: self.poly_b.evaluate_at_index(index),
        }
    }

    /// The dealer's own additive contribution `(a, b) = (A(0), B(0))`.
    pub fn secret_pair(&self) -> (Fr, Fr) {
        (self.poly_a.constant_term(), self.poly_b.constant_term())
    }
}

impl PedersenCommitment {
    /// Constructs from raw broadcast elements (adversarial dealers may
    /// send anything; verification happens per share).
    pub fn from_elements(w: Vec<G2Affine>) -> Self {
        PedersenCommitment { w }
    }

    /// Number of committed coefficients (`t + 1`).
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// `true` if the broadcast vector is empty.
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// The raw broadcast elements `Ŵ_ℓ` (coefficient order) — what the
    /// cross-dealer batch verifier folds into its single MSM.
    pub fn elements(&self) -> &[G2Affine] {
        &self.w
    }

    /// The commitment to the constant coefficients,
    /// `Ŵ_0 = ĝ_z^{a} ĝ_r^{b}` — the dealer's public-key contribution.
    pub fn constant_commitment(&self) -> G2Affine {
        self.w[0]
    }

    /// Evaluates the commitment in the exponent at player index `i`:
    /// `Π_ℓ Ŵ_ℓ^{i^ℓ} = ĝ_z^{A(i)} ĝ_r^{B(i)}`.
    pub fn evaluate_at_index(&self, index: u32) -> G2Projective {
        let x = Fr::from_u64(index as u64);
        let mut scalars = Vec::with_capacity(self.w.len());
        let mut pow = Fr::one();
        for _ in 0..self.w.len() {
            scalars.push(pow);
            pow *= x;
        }
        msm(&self.w, &scalars)
    }

    /// The paper's check (1): does `(A(i), B(i))` open this commitment at
    /// index `i`?
    pub fn verify_share(&self, bases: &PedersenBases, share: &PedersenShare) -> bool {
        bases.commit(&share.a, &share.b) == self.evaluate_at_index(share.index)
    }

    /// Componentwise product, committing to the coefficient-wise sums of
    /// the underlying polynomial pairs. Used to assemble verification keys
    /// and refreshed commitments.
    pub fn combine(&self, other: &Self) -> Self {
        assert_eq!(self.len(), other.len(), "mismatched commitment degrees");
        let sums: Vec<G2Projective> = self
            .w
            .iter()
            .zip(other.w.iter())
            .map(|(a, b)| a.to_projective().add_affine(b))
            .collect();
        PedersenCommitment {
            w: G2Projective::batch_to_affine(&sums),
        }
    }

    /// `true` iff the constant commitment is the identity — the required
    /// shape of a refresh sharing (secret pair `(0,0)`).
    pub fn is_zero_sharing(&self) -> bool {
        self.constant_commitment().is_identity()
    }
}

impl Wire for PedersenCommitment {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.w.encode_to(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(PedersenCommitment {
            w: Vec::decode(input)?,
        })
    }
}

impl Wire for PedersenShare {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.index.encode_to(out);
        self.a.encode_to(out);
        self.b.encode_to(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(PedersenShare {
            index: u32::decode(input)?,
            a: Fr::decode(input)?,
            b: Fr::decode(input)?,
        })
    }
}

impl Wire for PedersenBases {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.g_z.encode_to(out);
        self.g_r.encode_to(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(PedersenBases {
            g_z: G2Affine::decode(input)?,
            g_r: G2Affine::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xbed0)
    }

    fn bases(r: &mut StdRng) -> PedersenBases {
        PedersenBases {
            g_z: G2Projective::random(r).to_affine(),
            g_r: G2Projective::random(r).to_affine(),
        }
    }

    #[test]
    fn honest_shares_verify() {
        let mut r = rng();
        let b = bases(&mut r);
        let sharing = PedersenSharing::deal_random(&b, 3, &mut r);
        for i in 1u32..=7 {
            let share = sharing.share_for(i);
            assert!(sharing.commitment.verify_share(&b, &share));
        }
    }

    #[test]
    fn tampered_shares_rejected() {
        let mut r = rng();
        let b = bases(&mut r);
        let sharing = PedersenSharing::deal_random(&b, 2, &mut r);
        let mut share = sharing.share_for(4);
        share.a += Fr::one();
        assert!(!sharing.commitment.verify_share(&b, &share));
        let mut share2 = sharing.share_for(4);
        share2.b += Fr::one();
        assert!(!sharing.commitment.verify_share(&b, &share2));
        // Correct values at the wrong index also fail.
        let mut share3 = sharing.share_for(4);
        share3.index = 5;
        assert!(!sharing.commitment.verify_share(&b, &share3));
    }

    #[test]
    fn zero_sharing_detected() {
        let mut r = rng();
        let b = bases(&mut r);
        let zero = PedersenSharing::deal_zero(&b, 3, &mut r);
        assert!(zero.commitment.is_zero_sharing());
        assert_eq!(zero.secret_pair(), (Fr::zero(), Fr::zero()));
        // Shares of the zero sharing still verify.
        let share = zero.share_for(2);
        assert!(zero.commitment.verify_share(&b, &share));
        // A random sharing is (whp) not a zero sharing.
        let nz = PedersenSharing::deal_random(&b, 3, &mut r);
        assert!(!nz.commitment.is_zero_sharing());
    }

    #[test]
    fn combine_commits_to_sums() {
        let mut r = rng();
        let b = bases(&mut r);
        let s1 = PedersenSharing::deal_random(&b, 2, &mut r);
        let s2 = PedersenSharing::deal_random(&b, 2, &mut r);
        let combined = s1.commitment.combine(&s2.commitment);
        for i in 1u32..=5 {
            let sh1 = s1.share_for(i);
            let sh2 = s2.share_for(i);
            let sum_share = PedersenShare {
                index: i,
                a: sh1.a + sh2.a,
                b: sh1.b + sh2.b,
            };
            assert!(combined.verify_share(&b, &sum_share));
        }
    }

    #[test]
    fn specific_pair_commitment_shape() {
        let mut r = rng();
        let b = bases(&mut r);
        let (a_sec, b_sec) = (Fr::random(&mut r), Fr::random(&mut r));
        let sharing = PedersenSharing::deal_pair(&b, a_sec, b_sec, 2, &mut r);
        assert_eq!(sharing.secret_pair(), (a_sec, b_sec));
        assert_eq!(
            sharing.commitment.constant_commitment().to_projective(),
            b.commit(&a_sec, &b_sec)
        );
    }

    #[test]
    #[should_panic(expected = "equal degree")]
    fn mismatched_degrees_panic() {
        let mut r = rng();
        let b = bases(&mut r);
        let pa = Polynomial::random(2, &mut r);
        let pb = Polynomial::random(3, &mut r);
        let _ = PedersenSharing::from_polynomials(&b, pa, pb);
    }
}
