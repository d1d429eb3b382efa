//! Four-generator Pedersen VSS for *triples* — the commitment scheme of
//! the Appendix F (DLIN-based) construction.
//!
//! A dealer shares a triple `(a, b, c)` with polynomials `A, B, C` and
//! broadcasts, per coefficient `ℓ`, the two commitments
//!
//! ```text
//!     V̂_ℓ = ĝ_z^{a_ℓ} ĝ_r^{b_ℓ}        Ŵ_ℓ = ĥ_z^{a_ℓ} ĥ_u^{c_ℓ}
//! ```
//!
//! Receiver `i` checks its share triple against both equations (12).

use crate::polynomial::{eval_in_exponent, Polynomial};
use borndist_pairing::codec::{CodecError, Wire};
use borndist_pairing::{msm, Fr, G2Affine, G2Projective};
use rand::RngCore;

/// The four public generators `(ĝ_z, ĝ_r, ĥ_z, ĥ_u)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TripleBases {
    /// `ĝ_z`.
    pub g_z: G2Affine,
    /// `ĝ_r`.
    pub g_r: G2Affine,
    /// `ĥ_z`.
    pub h_z: G2Affine,
    /// `ĥ_u`.
    pub h_u: G2Affine,
}

/// A dealer's sharing of one triple.
#[derive(Clone, Debug)]
pub struct TripleSharing {
    /// `A[X]` with `A(0) = a`.
    pub poly_a: Polynomial,
    /// `B[X]` with `B(0) = b`.
    pub poly_b: Polynomial,
    /// `C[X]` with `C(0) = c`.
    pub poly_c: Polynomial,
    /// The broadcast commitments.
    pub commitment: TripleCommitment,
}

/// Broadcast commitments `{(V̂_ℓ, Ŵ_ℓ)}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TripleCommitment {
    v: Vec<G2Affine>,
    w: Vec<G2Affine>,
}

/// A private share triple `(A(i), B(i), C(i))`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TripleShare {
    /// Recipient index.
    pub index: u32,
    /// `A(index)`.
    pub a: Fr,
    /// `B(index)`.
    pub b: Fr,
    /// `C(index)`.
    pub c: Fr,
}

impl TripleSharing {
    /// Deals a fresh random triple with threshold `t`.
    pub fn deal_random<R: RngCore + ?Sized>(bases: &TripleBases, t: usize, rng: &mut R) -> Self {
        Self::from_polynomials(
            bases,
            Polynomial::random(t, rng),
            Polynomial::random(t, rng),
            Polynomial::random(t, rng),
        )
    }

    /// Deals the zero triple (proactive refresh).
    pub fn deal_zero<R: RngCore + ?Sized>(bases: &TripleBases, t: usize, rng: &mut R) -> Self {
        Self::from_polynomials(
            bases,
            Polynomial::random_zero_constant(t, rng),
            Polynomial::random_zero_constant(t, rng),
            Polynomial::random_zero_constant(t, rng),
        )
    }

    /// Builds a sharing from explicit polynomials.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial degrees differ.
    pub fn from_polynomials(
        bases: &TripleBases,
        poly_a: Polynomial,
        poly_b: Polynomial,
        poly_c: Polynomial,
    ) -> Self {
        assert!(
            poly_a.degree() == poly_b.degree() && poly_b.degree() == poly_c.degree(),
            "polynomial degrees must match"
        );
        let v: Vec<G2Projective> = poly_a
            .coefficients()
            .iter()
            .zip(poly_b.coefficients().iter())
            .map(|(a, b)| msm(&[bases.g_z, bases.g_r], &[*a, *b]))
            .collect();
        let w: Vec<G2Projective> = poly_a
            .coefficients()
            .iter()
            .zip(poly_c.coefficients().iter())
            .map(|(a, c)| msm(&[bases.h_z, bases.h_u], &[*a, *c]))
            .collect();
        TripleSharing {
            commitment: TripleCommitment {
                v: G2Projective::batch_to_affine(&v),
                w: G2Projective::batch_to_affine(&w),
            },
            poly_a,
            poly_b,
            poly_c,
        }
    }

    /// The share triple for player `index`.
    pub fn share_for(&self, index: u32) -> TripleShare {
        TripleShare {
            index,
            a: self.poly_a.evaluate_at_index(index),
            b: self.poly_b.evaluate_at_index(index),
            c: self.poly_c.evaluate_at_index(index),
        }
    }

    /// The dealer's additive secret `(a, b, c)`.
    pub fn secret_triple(&self) -> (Fr, Fr, Fr) {
        (
            self.poly_a.constant_term(),
            self.poly_b.constant_term(),
            self.poly_c.constant_term(),
        )
    }
}

impl TripleCommitment {
    /// Number of committed coefficients (`t + 1`).
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// The constant commitments `(V̂_0, Ŵ_0)` — the dealer's public key
    /// contribution pair.
    pub fn constant_commitment(&self) -> (G2Affine, G2Affine) {
        (self.v[0], self.w[0])
    }

    /// Evaluates both commitment vectors in the exponent at `index`.
    pub fn evaluate_at_index(&self, index: u32) -> (G2Projective, G2Projective) {
        (
            eval_in_exponent(&self.v, index),
            eval_in_exponent(&self.w, index),
        )
    }

    /// The two broadcast vectors `(V̂_ℓ)` and `(Ŵ_ℓ)`, for the
    /// evaluation oracle of the tests.
    #[cfg(test)]
    pub(crate) fn elements(&self) -> (&[G2Affine], &[G2Affine]) {
        (&self.v, &self.w)
    }

    /// The Appendix F check (12) on a share triple.
    pub fn verify_share(&self, bases: &TripleBases, share: &TripleShare) -> bool {
        let (ev, ew) = self.evaluate_at_index(share.index);
        msm(&[bases.g_z, bases.g_r], &[share.a, share.b]) == ev
            && msm(&[bases.h_z, bases.h_u], &[share.a, share.c]) == ew
    }

    /// Componentwise product (commits to summed polynomials).
    pub fn combine(&self, other: &Self) -> Self {
        assert_eq!(self.len(), other.len(), "mismatched commitment degrees");
        let comb = |a: &[G2Affine], b: &[G2Affine]| {
            let pts: Vec<G2Projective> = a
                .iter()
                .zip(b.iter())
                .map(|(x, y)| x.to_projective().add_affine(y))
                .collect();
            G2Projective::batch_to_affine(&pts)
        };
        TripleCommitment {
            v: comb(&self.v, &other.v),
            w: comb(&self.w, &other.w),
        }
    }
}

impl Wire for TripleCommitment {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.v.encode_to(out);
        self.w.encode_to(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(TripleCommitment {
            v: Vec::decode(input)?,
            w: Vec::decode(input)?,
        })
    }
}

impl Wire for TripleShare {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.index.encode_to(out);
        self.a.encode_to(out);
        self.b.encode_to(out);
        self.c.encode_to(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(TripleShare {
            index: u32::decode(input)?,
            a: Fr::decode(input)?,
            b: Fr::decode(input)?,
            c: Fr::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x3b1)
    }

    fn bases(r: &mut StdRng) -> TripleBases {
        TripleBases {
            g_z: G2Projective::random(r).to_affine(),
            g_r: G2Projective::random(r).to_affine(),
            h_z: G2Projective::random(r).to_affine(),
            h_u: G2Projective::random(r).to_affine(),
        }
    }

    #[test]
    fn honest_triples_verify() {
        let mut r = rng();
        let b = bases(&mut r);
        let s = TripleSharing::deal_random(&b, 2, &mut r);
        for i in 1u32..=5 {
            assert!(s.commitment.verify_share(&b, &s.share_for(i)));
        }
    }

    #[test]
    fn each_component_checked() {
        let mut r = rng();
        let b = bases(&mut r);
        let s = TripleSharing::deal_random(&b, 2, &mut r);
        for field in 0..3 {
            let mut share = s.share_for(2);
            match field {
                0 => share.a += Fr::one(),
                1 => share.b += Fr::one(),
                _ => share.c += Fr::one(),
            }
            assert!(!s.commitment.verify_share(&b, &share), "field {}", field);
        }
    }

    #[test]
    fn combine_commits_to_sums() {
        let mut r = rng();
        let b = bases(&mut r);
        let s1 = TripleSharing::deal_random(&b, 2, &mut r);
        let s2 = TripleSharing::deal_random(&b, 2, &mut r);
        let combined = s1.commitment.combine(&s2.commitment);
        for i in 1u32..=4 {
            let (x, y) = (s1.share_for(i), s2.share_for(i));
            let sum = TripleShare {
                index: i,
                a: x.a + y.a,
                b: x.b + y.b,
                c: x.c + y.c,
            };
            assert!(combined.verify_share(&b, &sum));
        }
    }

    #[test]
    fn zero_sharing_constant_is_identity() {
        let mut r = rng();
        let b = bases(&mut r);
        let s = TripleSharing::deal_zero(&b, 2, &mut r);
        let (v0, w0) = s.commitment.constant_commitment();
        assert!(v0.is_identity());
        assert!(w0.is_identity());
    }
}
