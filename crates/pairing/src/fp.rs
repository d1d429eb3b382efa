//! The BLS12-381 base field `Fp`, `p` a 381-bit prime.

use crate::arith::{adc, impl_montgomery_field, mac, sbb};
use crate::constants::*;
use crate::traits::Field;

impl_montgomery_field!(
    /// An element of the BLS12-381 base field (381-bit prime `p`).
    ///
    /// Stored in Montgomery form (limb-level details in the private
    /// `arith` module). `Fp` hosts the source group `G` of the paper (the group in
    /// which signatures and message hashes live).
    Fp,
    6,
    FP_MODULUS,
    FP_INV,
    FP_R,
    FP_R2,
    FP_R3,
    FP_INV_EXP,
    FP_TOP_MASK
);

impl Fp {
    /// `a[0]·b[0] + a[1]·b[1]` with one Montgomery reduction (ePrint
    /// 2022/367, Alg. 2): for each limb position `j` the rows
    /// `a[0][j]·b[0]` and `a[1][j]·b[1]` are added into one running sum
    /// with a seventh limb, then a single reduction step shifts it down.
    /// The result is below `(2p² + R·p)/R < 2p` (because `2p < R`), so
    /// one conditional subtraction reduces it. `Fp2`'s product and norm
    /// are each one or two such sums.
    #[inline]
    pub(crate) fn sum_of_products(a: [Fp; 2], b: [Fp; 2]) -> Fp {
        let mut u = [0u64; 6];
        for j in 0..6 {
            let mut t = [u[0], u[1], u[2], u[3], u[4], u[5], 0];
            for (x, y) in a.iter().zip(&b) {
                let mut carry = 0u64;
                for (tk, &yk) in t.iter_mut().zip(&y.0) {
                    let (lo, c) = mac(*tk, x.0[j], yk, carry);
                    *tk = lo;
                    carry = c;
                }
                t[6] += carry;
            }
            let m = t[0].wrapping_mul(FP_INV);
            let (_, mut carry) = mac(t[0], m, FP_MODULUS[0], 0);
            for k in 1..6 {
                let (lo, c) = mac(t[k], m, FP_MODULUS[k], carry);
                u[k - 1] = lo;
                carry = c;
            }
            u[5] = t[6] + carry;
        }
        Fp(Fp::subtract_modulus(&u))
    }

    /// Computes a square root if one exists (`p ≡ 3 mod 4`, so
    /// `sqrt(a) = a^((p+1)/4)` when `a` is a quadratic residue).
    pub fn sqrt(&self) -> Option<Self> {
        let cand = self.pow_vartime(&FP_SQRT_EXP);
        if cand.square() == *self {
            Some(cand)
        } else {
            None
        }
    }

    /// Returns `true` if the canonical representative exceeds `(p-1)/2`,
    /// i.e. this is the lexicographically larger of `{y, -y}`.
    /// Used for the sign bit of compressed points.
    pub fn is_lexicographically_largest(&self) -> bool {
        if self.is_zero() {
            return false;
        }
        self.canonical_cmp(&self.neg_internal()) == core::cmp::Ordering::Greater
    }
}

impl Field for Fp {
    fn zero() -> Self {
        Fp::zero()
    }
    fn one() -> Self {
        Fp::one()
    }
    fn is_zero(&self) -> bool {
        Fp::is_zero(self)
    }
    fn square(&self) -> Self {
        Fp::square(self)
    }
    fn double(&self) -> Self {
        Fp::double(self)
    }
    fn invert(&self) -> Option<Self> {
        Fp::invert(self)
    }
    fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Fp::random(rng)
    }
    fn pow_vartime(&self, exp: &[u64]) -> Self {
        Fp::pow_vartime(self, exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xb15b)
    }

    #[test]
    fn zero_one_identities() {
        let mut r = rng();
        let a = Fp::random(&mut r);
        assert_eq!(a + Fp::zero(), a);
        assert_eq!(a * Fp::one(), a);
        assert_eq!(a * Fp::zero(), Fp::zero());
        assert_eq!(a - a, Fp::zero());
        assert!(Fp::zero().is_zero());
        assert!(!Fp::one().is_zero());
    }

    #[test]
    fn add_commutes_and_associates() {
        let mut r = rng();
        for _ in 0..20 {
            let (a, b, c) = (Fp::random(&mut r), Fp::random(&mut r), Fp::random(&mut r));
            assert_eq!(a + b, b + a);
            assert_eq!((a + b) + c, a + (b + c));
        }
    }

    #[test]
    fn mul_distributes() {
        let mut r = rng();
        for _ in 0..20 {
            let (a, b, c) = (Fp::random(&mut r), Fp::random(&mut r), Fp::random(&mut r));
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!(a * b, b * a);
            assert_eq!((a * b) * c, a * (b * c));
        }
    }

    #[test]
    fn neg_and_sub() {
        let mut r = rng();
        for _ in 0..20 {
            let (a, b) = (Fp::random(&mut r), Fp::random(&mut r));
            assert_eq!(a + (-a), Fp::zero());
            assert_eq!(a - b, a + (-b));
        }
        assert_eq!(-Fp::zero(), Fp::zero());
    }

    #[test]
    fn inversion() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp::random(&mut r);
            let inv = a.invert().unwrap();
            assert_eq!(a * inv, Fp::one());
        }
        assert!(Fp::zero().invert().is_none());
        assert_eq!(Fp::one().invert().unwrap(), Fp::one());
    }

    #[test]
    fn square_matches_mul() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp::random(&mut r);
            assert_eq!(a.square(), a * a);
            assert_eq!(a.double(), a + a);
        }
    }

    #[test]
    fn sqrt_roundtrip() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp::random(&mut r);
            let sq = a.square();
            let root = sq.sqrt().expect("square must have a root");
            assert!(root == a || root == -a);
        }
    }

    #[test]
    fn sqrt_rejects_non_residue() {
        // -1 is a non-residue mod p since p ≡ 3 mod 4.
        let minus_one = -Fp::one();
        assert!(minus_one.sqrt().is_none());
    }

    #[test]
    fn bytes_roundtrip() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp::random(&mut r);
            let bytes = a.to_bytes();
            assert_eq!(Fp::from_bytes(&bytes).unwrap(), a);
        }
    }

    #[test]
    fn from_bytes_rejects_modulus() {
        // Encode p itself; must be rejected as non-canonical.
        let mut bytes = [0u8; 48];
        for (i, limb) in FP_MODULUS.iter().rev().enumerate() {
            bytes[8 * i..8 * i + 8].copy_from_slice(&limb.to_be_bytes());
        }
        assert!(Fp::from_bytes(&bytes).is_none());
    }

    #[test]
    fn from_u64_arithmetic() {
        assert_eq!(Fp::from_u64(2) + Fp::from_u64(3), Fp::from_u64(5));
        assert_eq!(Fp::from_u64(6) * Fp::from_u64(7), Fp::from_u64(42));
        assert_eq!(Fp::from_u64(0), Fp::zero());
        assert_eq!(Fp::from_u64(1), Fp::one());
    }

    #[test]
    fn from_bytes_wide_reduces() {
        // [0xff; 96] encodes 2^768 - 1; compare with repeated doubling.
        let wide = [0xffu8; 96];
        let got = Fp::from_bytes_wide(&wide);
        let mut p2 = Fp::one();
        for _ in 0..768 {
            p2 = p2.double();
        }
        assert_eq!(got, p2 - Fp::one());
    }

    #[test]
    fn from_bytes_wide_small_value() {
        // A wide encoding of 5 must equal Fp::from_u64(5).
        let mut wide = [0u8; 96];
        wide[95] = 5;
        assert_eq!(Fp::from_bytes_wide(&wide), Fp::from_u64(5));
    }

    #[test]
    fn lexicographic_sign() {
        let two = Fp::from_u64(2);
        // Exactly one of {a, -a} is lexicographically largest (a != 0).
        assert_ne!(
            two.is_lexicographically_largest(),
            (-two).is_lexicographically_largest()
        );
        assert!(!Fp::zero().is_lexicographically_largest());
    }

    #[test]
    fn pow_vartime_small_cases() {
        let a = Fp::from_u64(3);
        assert_eq!(a.pow_vartime(&[0]), Fp::one());
        assert_eq!(a.pow_vartime(&[1]), a);
        assert_eq!(a.pow_vartime(&[5]), Fp::from_u64(243));
    }

    #[test]
    fn windowed_pow_matches_square_and_multiply() {
        use rand::RngCore;
        let mut r = rng();
        let a = Fp::random(&mut r);
        let mut exps: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![0xf],
            vec![0x10],
            vec![u64::MAX],
            // Leading-zero limbs (most significant end) and a zero limb
            // in the middle.
            vec![5, 0, 0],
            vec![0, 0, 0, 0, 0, 0],
            vec![0x8000_0000_0000_0000, 0, 1, 0],
            FP_INV_EXP.to_vec(),
            FP_SQRT_EXP.to_vec(),
            FP2_SQRT_E1.to_vec(),
        ];
        for limbs in 1..=6usize {
            for _ in 0..4 {
                exps.push((0..limbs).map(|_| r.next_u64()).collect());
            }
        }
        for exp in &exps {
            assert_eq!(a.pow_vartime(exp), a.pow_vartime_binary(exp), "{:x?}", exp);
        }
        assert_eq!(Fp::zero().pow_vartime(&[0]), Fp::one());
        assert_eq!(Fp::zero().pow_vartime(&FP_INV_EXP), Fp::zero());
    }

    #[test]
    fn fermat_little_theorem() {
        let mut r = rng();
        let a = Fp::random(&mut r);
        // a^(p-1) = 1
        let mut exp = FP_MODULUS;
        exp[0] -= 1;
        assert_eq!(a.pow_vartime(&exp), Fp::one());
    }
}
