//! Polynomials over the scalar field `Fr`.
//!
//! Every secret in the paper is shared by evaluating a degree-`t`
//! polynomial at the player indices `1..=n` (index `0` holds the secret).

use borndist_pairing::{Affine, CurveParams, Fr, Projective};
use rand::RngCore;

/// A polynomial `c₀ + c₁·X + … + c_t·X^t` over `Fr`, stored by
/// coefficients in ascending degree order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Polynomial {
    coeffs: Vec<Fr>,
}

impl Polynomial {
    /// Builds a polynomial from ascending-degree coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty (the zero polynomial is `[0]`).
    pub fn from_coefficients(coeffs: Vec<Fr>) -> Self {
        assert!(
            !coeffs.is_empty(),
            "polynomial needs at least one coefficient"
        );
        Polynomial { coeffs }
    }

    /// Samples a uniformly random polynomial of exactly the given degree
    /// bound (i.e. with `degree + 1` random coefficients).
    pub fn random<R: RngCore + ?Sized>(degree: usize, rng: &mut R) -> Self {
        Polynomial {
            coeffs: (0..=degree).map(|_| Fr::random(rng)).collect(),
        }
    }

    /// Samples a random degree-`degree` polynomial with a prescribed
    /// constant term — the "share this secret" constructor.
    pub fn random_with_constant<R: RngCore + ?Sized>(
        secret: Fr,
        degree: usize,
        rng: &mut R,
    ) -> Self {
        let mut coeffs = vec![secret];
        coeffs.extend((0..degree).map(|_| Fr::random(rng)));
        Polynomial { coeffs }
    }

    /// Samples a random degree-`degree` polynomial with constant term zero.
    /// Used for proactive refresh (§3.3: re-sharing the secret `0`).
    pub fn random_zero_constant<R: RngCore + ?Sized>(degree: usize, rng: &mut R) -> Self {
        Self::random_with_constant(Fr::zero(), degree, rng)
    }

    /// Samples a random degree-`degree` polynomial that *evaluates to zero*
    /// at `x = at` — the masking polynomials of Herzberg-style share
    /// recovery.
    pub fn random_vanishing_at<R: RngCore + ?Sized>(at: Fr, degree: usize, rng: &mut R) -> Self {
        // Sample all but the constant coefficient, then solve for c0 so
        // that P(at) = 0.
        let mut coeffs = vec![Fr::zero()];
        coeffs.extend((0..degree).map(|_| Fr::random(rng)));
        let mut acc = Fr::zero();
        let mut x_pow = Fr::one();
        for c in coeffs.iter() {
            acc += *c * x_pow;
            x_pow *= at;
        }
        coeffs[0] = -acc;
        Polynomial { coeffs }
    }

    /// The degree bound (number of coefficients minus one).
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Coefficients in ascending degree order.
    pub fn coefficients(&self) -> &[Fr] {
        &self.coeffs
    }

    /// The constant term `P(0)` — the shared secret.
    pub fn constant_term(&self) -> Fr {
        self.coeffs[0]
    }

    /// Horner evaluation at an arbitrary point.
    pub fn evaluate(&self, x: Fr) -> Fr {
        let mut acc = Fr::zero();
        for c in self.coeffs.iter().rev() {
            acc = acc * x + *c;
        }
        acc
    }

    /// Evaluation at a (1-based) player index.
    pub fn evaluate_at_index(&self, index: u32) -> Fr {
        self.evaluate(Fr::from_u64(index as u64))
    }

    /// Pointwise sum of two polynomials (degrees may differ).
    pub fn add(&self, other: &Polynomial) -> Polynomial {
        let n = core::cmp::max(self.coeffs.len(), other.coeffs.len());
        let mut coeffs = vec![Fr::zero(); n];
        for (i, c) in self.coeffs.iter().enumerate() {
            coeffs[i] += *c;
        }
        for (i, c) in other.coeffs.iter().enumerate() {
            coeffs[i] += *c;
        }
        Polynomial { coeffs }
    }
}

/// Evaluates a commitment vector in the exponent at a player index,
/// `Π_ℓ C_ℓ^{index^ℓ}` — the one way this crate evaluates a Feldman or
/// Pedersen commitment.
///
/// Horner's rule from the top coefficient: each step multiplies the
/// accumulator by `index` with a plain double-and-add over the bits of
/// `index` (`⌊log₂ index⌋` doublings, as `endo::mul_by_bls_x` does for
/// the BLS parameter) and adds the next coefficient. A player index is
/// at most 32 bits, so this replaces a full-width scalar per point with
/// a handful of doublings. The group law is complete, so identity
/// entries and `index = 0` need no special case.
pub(crate) fn eval_in_exponent<C: CurveParams>(coeffs: &[Affine<C>], index: u32) -> Projective<C> {
    let Some((top, rest)) = coeffs.split_last() else {
        return Projective::identity();
    };
    let mut acc = top.to_projective();
    for c in rest.iter().rev() {
        acc = mul_by_index(&acc, index).add_affine(c);
    }
    acc
}

/// `[index]·p` by left-to-right double-and-add over the bits of `index`.
fn mul_by_index<C: CurveParams>(p: &Projective<C>, index: u32) -> Projective<C> {
    if index == 0 {
        return Projective::identity();
    }
    let mut acc = *p;
    for bit in (0..index.ilog2()).rev() {
        acc = acc.double();
        if (index >> bit) & 1 == 1 {
            acc = acc.add(p);
        }
    }
    acc
}

/// The definition [`eval_in_exponent`] must equal: one MSM with the
/// powers `index^ℓ` as full-width scalars.
#[cfg(test)]
pub(crate) fn eval_by_powers_msm<C: CurveParams>(
    coeffs: &[Affine<C>],
    index: u32,
) -> Projective<C> {
    let x = Fr::from_u64(index as u64);
    let mut scalars = Vec::with_capacity(coeffs.len());
    let mut pow = Fr::one();
    for _ in coeffs {
        scalars.push(pow);
        pow *= x;
    }
    borndist_pairing::msm(coeffs, &scalars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FeldmanCommitment, PedersenBases, PedersenSharing};
    use borndist_pairing::{G1Affine, G1Projective, G2Projective};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x901)
    }

    /// The indices every evaluation is checked at: the secret's slot,
    /// small and committee-sized indices, a power of two and the widest.
    const INDICES: [u32; 6] = [0, 1, 2, 97, 1024, u32::MAX];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Horner evaluation equals the powers-of-index MSM for G1
        /// Feldman and G2 Pedersen commitments, at lengths 1 and `t + 1`,
        /// with the coefficients that `zero_mask` selects zeroed so that
        /// their commitment entries are the identity.
        #[test]
        fn eval_in_exponent_matches_powers_msm(
            seed in any::<u64>(),
            t in 1usize..17,
            zero_mask in any::<u32>(),
        ) {
            let mut r = StdRng::seed_from_u64(seed);
            let g2 = |r: &mut StdRng| G2Projective::random(r).to_affine();
            let pb = PedersenBases { g_z: g2(&mut r), g_r: g2(&mut r) };
            for len in [1, t + 1] {
                let mut poly = || Polynomial::from_coefficients(
                    (0..len)
                        .map(|l| if zero_mask >> l & 1 == 1 { Fr::zero() } else { Fr::random(&mut r) })
                        .collect(),
                );
                let feldman = FeldmanCommitment::commit(&poly(), &G1Projective::generator());
                let pedersen = PedersenSharing::from_polynomials(&pb, poly(), poly()).commitment;
                for index in INDICES {
                    prop_assert_eq!(
                        feldman.evaluate_at_index(index),
                        eval_by_powers_msm(feldman.elements(), index)
                    );
                    prop_assert_eq!(
                        pedersen.evaluate_at_index(index),
                        eval_by_powers_msm(pedersen.elements(), index)
                    );
                }
            }
        }
    }

    #[test]
    fn eval_in_exponent_edge_vectors() {
        let mut r = rng();
        let p = G1Projective::random(&mut r).to_affine();
        let id = G1Affine::identity();
        for coeffs in [
            vec![],
            vec![id],
            vec![id, id, id],
            vec![id, p, id],
            vec![p, id],
        ] {
            for index in INDICES {
                assert_eq!(
                    eval_in_exponent(&coeffs, index),
                    eval_by_powers_msm(&coeffs, index),
                    "{} coefficients at {}",
                    coeffs.len(),
                    index
                );
            }
        }
    }

    #[test]
    fn evaluate_known_polynomial() {
        // P(X) = 3 + 2X + X^2
        let p =
            Polynomial::from_coefficients(vec![Fr::from_u64(3), Fr::from_u64(2), Fr::from_u64(1)]);
        assert_eq!(p.evaluate(Fr::from_u64(0)), Fr::from_u64(3));
        assert_eq!(p.evaluate(Fr::from_u64(1)), Fr::from_u64(6));
        assert_eq!(p.evaluate(Fr::from_u64(2)), Fr::from_u64(11));
        assert_eq!(p.degree(), 2);
    }

    #[test]
    fn constant_term_is_secret() {
        let mut r = rng();
        let secret = Fr::random(&mut r);
        let p = Polynomial::random_with_constant(secret, 5, &mut r);
        assert_eq!(p.constant_term(), secret);
        assert_eq!(p.evaluate(Fr::zero()), secret);
        assert_eq!(p.degree(), 5);
    }

    #[test]
    fn zero_constant_polynomial() {
        let mut r = rng();
        let p = Polynomial::random_zero_constant(3, &mut r);
        assert_eq!(p.evaluate(Fr::zero()), Fr::zero());
        // Non-trivial away from zero (with overwhelming probability).
        assert_ne!(p.evaluate(Fr::one()), Fr::zero());
    }

    #[test]
    fn vanishing_polynomial_vanishes() {
        let mut r = rng();
        let at = Fr::from_u64(7);
        let p = Polynomial::random_vanishing_at(at, 4, &mut r);
        assert_eq!(p.evaluate(at), Fr::zero());
        assert_eq!(p.degree(), 4);
        assert_ne!(p.evaluate(Fr::from_u64(8)), Fr::zero());
    }

    #[test]
    fn addition_is_pointwise() {
        let mut r = rng();
        let p = Polynomial::random(3, &mut r);
        let q = Polynomial::random(5, &mut r);
        let s = p.add(&q);
        let x = Fr::random(&mut r);
        assert_eq!(s.evaluate(x), p.evaluate(x) + q.evaluate(x));
        assert_eq!(s.degree(), 5);
    }

    #[test]
    fn index_evaluation_matches() {
        let mut r = rng();
        let p = Polynomial::random(2, &mut r);
        assert_eq!(p.evaluate_at_index(9), p.evaluate(Fr::from_u64(9)));
    }

    #[test]
    #[should_panic(expected = "at least one coefficient")]
    fn empty_coefficients_panic() {
        let _ = Polynomial::from_coefficients(vec![]);
    }
}
