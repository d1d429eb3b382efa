//! The BLS12-381 scalar field `Fr` (255-bit prime group order `r`).
//!
//! This is the exponent field of `G1`, `G2` and `GT`, and the coefficient
//! field for all secret sharing: private key shares, polynomial
//! coefficients and Lagrange multipliers are `Fr` elements.

use crate::arith::{adc, impl_montgomery_field, mac, sbb, wnaf_digits};
use crate::constants::*;
use crate::traits::Field;

impl_montgomery_field!(
    /// An element of the BLS12-381 scalar field (255-bit prime `r`).
    Fr,
    4,
    FR_MODULUS,
    FR_INV,
    FR_R,
    FR_R2,
    FR_R3,
    FR_INV_EXP,
    FR_TOP_MASK
);

impl Fr {
    /// Returns the scalar as 256 little-endian bits (canonical form),
    /// for use in double-and-add loops.
    pub fn to_le_bits(&self) -> [u64; 4] {
        self.to_canonical_limbs()
    }

    /// Recodes the scalar into width-`w` NAF signed digits (little-endian
    /// positions; non-zero digits are odd, `|d| < 2^(w-1)`), the form
    /// consumed by windowed scalar multiplication. See
    /// [`crate::Projective::mul`] for the consumer and the property tests
    /// for the equivalence with plain double-and-add.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= width <= 7`.
    pub fn to_wnaf(&self, width: usize) -> Vec<i8> {
        wnaf_digits(&self.to_canonical_limbs(), width)
    }

    /// Samples a uniformly random *non-zero* scalar.
    pub fn random_nonzero<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        loop {
            let s = Self::random(rng);
            if !s.is_zero() {
                return s;
            }
        }
    }
}

impl Field for Fr {
    fn zero() -> Self {
        Fr::zero()
    }
    fn one() -> Self {
        Fr::one()
    }
    fn is_zero(&self) -> bool {
        Fr::is_zero(self)
    }
    fn square(&self) -> Self {
        Fr::square(self)
    }
    fn double(&self) -> Self {
        Fr::double(self)
    }
    fn invert(&self) -> Option<Self> {
        Fr::invert(self)
    }
    fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Fr::random(rng)
    }
    fn pow_vartime(&self, exp: &[u64]) -> Self {
        Fr::pow_vartime(self, exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xf12e)
    }

    #[test]
    fn field_axioms_spot_checks() {
        let mut r = rng();
        for _ in 0..20 {
            let (a, b, c) = (Fr::random(&mut r), Fr::random(&mut r), Fr::random(&mut r));
            assert_eq!(a + b, b + a);
            assert_eq!((a + b) + c, a + (b + c));
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!(a + (-a), Fr::zero());
        }
    }

    #[test]
    fn inversion() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fr::random_nonzero(&mut r);
            assert_eq!(a * a.invert().unwrap(), Fr::one());
        }
        assert!(Fr::zero().invert().is_none());
    }

    #[test]
    fn bytes_roundtrip() {
        let mut r = rng();
        let a = Fr::random(&mut r);
        assert_eq!(Fr::from_bytes(&a.to_bytes()).unwrap(), a);
    }

    #[test]
    fn from_u64_homomorphic() {
        assert_eq!(Fr::from_u64(100) - Fr::from_u64(58), Fr::from_u64(42));
        assert_eq!(Fr::from_u64(9) * Fr::from_u64(9), Fr::from_u64(81));
    }

    #[test]
    fn random_nonzero_is_nonzero() {
        let mut r = rng();
        for _ in 0..50 {
            assert!(!Fr::random_nonzero(&mut r).is_zero());
        }
    }

    #[test]
    fn fermat_little_theorem() {
        let mut r = rng();
        let a = Fr::random_nonzero(&mut r);
        let mut exp = FR_MODULUS;
        exp[0] -= 1;
        assert_eq!(a.pow_vartime(&exp), Fr::one());
    }

    #[test]
    fn windowed_pow_matches_square_and_multiply() {
        let mut r = rng();
        let a = Fr::random_nonzero(&mut r);
        let e = Fr::random(&mut r).to_le_bits();
        for exp in [&[0u64][..], &[1], &[0, 0, 7, 0], &e, &FR_INV_EXP] {
            assert_eq!(a.pow_vartime(exp), a.pow_vartime_binary(exp), "{:x?}", exp);
        }
    }

    #[test]
    fn from_bytes_wide_reduces() {
        // [0xff; 64] encodes 2^512 - 1, both 256-bit halves above r.
        let mut p2 = Fr::one();
        for _ in 0..512 {
            p2 = p2.double();
        }
        assert_eq!(Fr::from_bytes_wide(&[0xff; 64]), p2 - Fr::one());
    }

    #[test]
    fn debug_format_is_tagged_hex() {
        let a = Fr::from_u64(123456789);
        let s = format!("{:?}", a);
        assert!(s.starts_with("Fr(0x"));
    }
}
