//! Quadratic extension `Fp2 = Fp[u]/(u² + 1)`.
//!
//! `Fp2` hosts the coordinates of the twist curve carrying `G2` (the group
//! `Ĝ` of the paper, where verification keys live). The cubic/sextic
//! non-residue used by the higher tower levels is `ξ = 1 + u`.

use crate::constants::{FP2_SQRT_E1, FP_HALF};
use crate::fp::Fp;
use crate::traits::Field;
use rand::RngCore;

/// An element `c0 + c1·u` of `Fp2`, with `u² = -1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp2 {
    /// Coefficient of `1`.
    pub c0: Fp,
    /// Coefficient of `u`.
    pub c1: Fp,
}

impl Fp2 {
    /// Constructs an element from its two `Fp` coefficients.
    pub const fn new(c0: Fp, c1: Fp) -> Self {
        Fp2 { c0, c1 }
    }

    /// The additive identity.
    pub fn zero() -> Self {
        Fp2::new(Fp::zero(), Fp::zero())
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Fp2::new(Fp::one(), Fp::zero())
    }

    /// Embeds an `Fp` element as `a + 0·u`.
    pub fn from_fp(a: Fp) -> Self {
        Fp2::new(a, Fp::zero())
    }

    /// The tower non-residue `ξ = 1 + u`.
    pub fn xi() -> Self {
        Fp2::new(Fp::one(), Fp::one())
    }

    /// The `p`-power Frobenius endomorphism, which on `Fp2` coincides
    /// with conjugation (`p ≡ 3 mod 4`, so `u^p = -u`).
    pub fn frobenius_p(&self) -> Self {
        self.conjugate()
    }

    /// Returns `true` for the additive identity.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// Scales by an `Fp` element.
    pub fn mul_by_fp(&self, a: &Fp) -> Self {
        Fp2::new(self.c0 * *a, self.c1 * *a)
    }

    /// Multiplies by the non-residue `ξ = 1 + u`:
    /// `(c0 + c1·u)(1 + u) = (c0 - c1) + (c0 + c1)·u`.
    pub fn mul_by_xi(&self) -> Self {
        Fp2::new(self.c0 - self.c1, self.c0 + self.c1)
    }

    /// The conjugate `c0 - c1·u`, which equals the `p`-power Frobenius.
    pub fn conjugate(&self) -> Self {
        Fp2::new(self.c0, -self.c1)
    }

    /// `self * self`, using the complex-squaring shortcut: two `Fp`
    /// multiplications, against the four products of a multiplication.
    pub fn square(&self) -> Self {
        // (c0 + c1 u)^2 = (c0+c1)(c0-c1) + 2 c0 c1 u
        let a = self.c0 + self.c1;
        let b = self.c0 - self.c1;
        let c = self.c0 * self.c1;
        Fp2::new(a * b, c.double())
    }

    /// `self + self`.
    pub fn double(&self) -> Self {
        Fp2::new(self.c0.double(), self.c1.double())
    }

    /// The norm `c0² + c1²` down to `Fp`: one sum of two products
    /// under one Montgomery reduction.
    fn norm(&self) -> Fp {
        Fp::sum_of_products([self.c0, self.c1], [self.c0, self.c1])
    }

    /// Multiplicative inverse, `None` for zero.
    pub fn invert(&self) -> Option<Self> {
        // 1/(c0 + c1 u) = (c0 - c1 u) / (c0^2 + c1^2).
        self.norm()
            .invert()
            .map(|inv| Fp2::new(self.c0 * inv, -(self.c1 * inv)))
    }

    /// Computes a square root, if one exists.
    ///
    /// The norm method for `p ≡ 3 mod 4`. A root `x0 + x1·u` of
    /// `a0 + a1·u` satisfies `x0² − x1² = a0`, `2·x0·x1 = a1` and
    /// `x0² + x1² = ±s` where `s² = a0² + a1²`; a non-residue norm
    /// therefore means no root, found after one `Fp` exponentiation.
    /// Otherwise put `δ = (a0 + s)/2` and `t = δ^((p−3)/4)`, so that
    /// `r = tδ` squares to `±δ` and `r·t = ±1` with the same sign:
    ///
    /// * `δ` a residue: `x0 = r`, `x1 = a1/(2r) = a1·t/2`;
    /// * `δ` a non-residue: `x1² = −δ`, so `x1 = r`,
    ///   `x0 = a1/(2r) = −a1·t/2`.
    ///
    /// Two `Fp` exponentiations and no inversion. The result is
    /// verified before being returned, so `None` exactly characterizes
    /// non-residues. Which of the two roots comes back is unspecified;
    /// callers normalise the sign.
    pub fn sqrt(&self) -> Option<Self> {
        if self.is_zero() {
            return Some(*self);
        }
        let s = self.norm().sqrt()?;
        let half = Fp(FP_HALF);
        let mut delta = (self.c0 + s) * half;
        if delta.is_zero() {
            // s = −a0, which forces a1 = 0: the other sign of s gives
            // δ = (a0 − s)/2 = a0 ≠ 0.
            delta = self.c0;
        }
        let t = delta.pow_vartime(&FP2_SQRT_E1);
        let r = t * delta;
        let y = self.c1 * t * half;
        let cand = if r.square() == delta {
            Fp2::new(r, y)
        } else {
            Fp2::new(-y, r)
        };
        if cand.square() == *self {
            Some(cand)
        } else {
            None
        }
    }

    /// Sign convention for compressed points: compares `c1` first, then
    /// `c0`, against their negatives (ZCash-style ordering).
    pub fn is_lexicographically_largest(&self) -> bool {
        if !self.c1.is_zero() {
            self.c1.is_lexicographically_largest()
        } else {
            self.c0.is_lexicographically_largest()
        }
    }

    /// Serializes as `c1 || c0` big-endian (96 bytes), matching the field
    /// ordering used by common BLS12-381 encodings.
    pub fn to_bytes(&self) -> [u8; 96] {
        let mut out = [0u8; 96];
        out[..48].copy_from_slice(&self.c1.to_bytes());
        out[48..].copy_from_slice(&self.c0.to_bytes());
        out
    }

    /// Deserializes from `c1 || c0` big-endian bytes.
    pub fn from_bytes(bytes: &[u8; 96]) -> Option<Self> {
        let c1 = Fp::from_bytes(bytes[..48].try_into().unwrap())?;
        let c0 = Fp::from_bytes(bytes[48..].try_into().unwrap())?;
        Some(Fp2::new(c0, c1))
    }
}

impl core::fmt::Debug for Fp2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fp2({:?} + {:?}*u)", self.c0, self.c1)
    }
}

impl core::ops::Add for Fp2 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Fp2::new(self.c0 + rhs.c0, self.c1 + rhs.c1)
    }
}
impl core::ops::Sub for Fp2 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Fp2::new(self.c0 - rhs.c0, self.c1 - rhs.c1)
    }
}
impl core::ops::Neg for Fp2 {
    type Output = Self;
    fn neg(self) -> Self {
        Fp2::new(-self.c0, -self.c1)
    }
}
impl core::ops::Mul for Fp2 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Each coefficient is a sum of two products under one reduction:
        // c0 = a0·b0 + (−a1)·b1, c1 = a0·b1 + a1·b0.
        Fp2::new(
            Fp::sum_of_products([self.c0, -self.c1], [rhs.c0, rhs.c1]),
            Fp::sum_of_products([self.c0, self.c1], [rhs.c1, rhs.c0]),
        )
    }
}
impl core::ops::AddAssign for Fp2 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl core::ops::SubAssign for Fp2 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl core::ops::MulAssign for Fp2 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Field for Fp2 {
    fn zero() -> Self {
        Fp2::zero()
    }
    fn one() -> Self {
        Fp2::one()
    }
    fn is_zero(&self) -> bool {
        Fp2::is_zero(self)
    }
    fn square(&self) -> Self {
        Fp2::square(self)
    }
    fn double(&self) -> Self {
        Fp2::double(self)
    }
    fn invert(&self) -> Option<Self> {
        Fp2::invert(self)
    }
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        Fp2::new(Fp::random(rng), Fp::random(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::FP_MODULUS;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x2f2f)
    }

    #[test]
    fn u_squared_is_minus_one() {
        let u = Fp2::new(Fp::zero(), Fp::one());
        assert_eq!(u.square(), -Fp2::one());
    }

    #[test]
    fn ring_axioms() {
        let mut r = rng();
        for _ in 0..20 {
            let (a, b, c) = (
                Fp2::random(&mut r),
                Fp2::random(&mut r),
                Fp2::random(&mut r),
            );
            assert_eq!(a * b, b * a);
            assert_eq!((a * b) * c, a * (b * c));
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!(a.square(), a * a);
            assert_eq!(a.double(), a + a);
        }
    }

    #[test]
    fn kernel_matches_separated_products() {
        // The schoolbook formulas over `Fp::mul_separated` (`mul_wide` +
        // `montgomery_reduce`), one reduction per product.
        let mul = |a: &Fp2, b: &Fp2| {
            Fp2::new(
                a.c0.mul_separated(&b.c0) - a.c1.mul_separated(&b.c1),
                a.c0.mul_separated(&b.c1) + a.c1.mul_separated(&b.c0),
            )
        };
        let norm = |a: &Fp2| a.c0.mul_separated(&a.c0) + a.c1.mul_separated(&a.c1);
        let (mut pm1, mut ones) = (FP_MODULUS, [u64::MAX; 6]);
        pm1[0] -= 1;
        ones[5] = FP_MODULUS[5] - 1;
        let coeffs = [Fp::zero(), Fp::one(), -Fp::one(), Fp(pm1), Fp(ones)];
        let edges: Vec<Fp2> = coeffs
            .iter()
            .flat_map(|&c0| coeffs.iter().map(move |&c1| Fp2::new(c0, c1)))
            .collect();
        let check = |a: &Fp2, b: &Fp2| {
            assert_eq!(*a * *b, mul(a, b), "{:?} * {:?}", a, b);
            assert_eq!(a.square(), mul(a, a), "square {:?}", a);
            assert_eq!(a.norm(), norm(a), "norm {:?}", a);
        };
        for a in &edges {
            for b in &edges {
                check(a, b);
            }
        }
        let mut r = rng();
        for _ in 0..10_000 {
            check(&Fp2::random(&mut r), &Fp2::random(&mut r));
        }
    }

    #[test]
    fn inversion() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp2::random(&mut r);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.invert().unwrap(), Fp2::one());
        }
        assert!(Fp2::zero().invert().is_none());
    }

    #[test]
    fn conjugate_is_frobenius() {
        let mut r = rng();
        let a = Fp2::random(&mut r);
        // a^p = conjugate(a): verify (a*b)^p = a^p b^p and fixed points.
        let b = Fp2::random(&mut r);
        assert_eq!((a * b).conjugate(), a.conjugate() * b.conjugate());
        let embedded = Fp2::from_fp(Fp::from_u64(7));
        assert_eq!(embedded.conjugate(), embedded);
        // conj(conj(a)) = a
        assert_eq!(a.conjugate().conjugate(), a);
        // a * conj(a) lies in Fp (imaginary part zero)
        assert!((a * a.conjugate()).c1.is_zero());
    }

    #[test]
    fn mul_by_xi_matches_mul() {
        let mut r = rng();
        let a = Fp2::random(&mut r);
        assert_eq!(a.mul_by_xi(), a * Fp2::xi());
    }

    #[test]
    fn xi_inv_is_the_inverse() {
        assert_eq!(Fp2::xi() * Fp2::xi_inv(), Fp2::one());
        // Idempotent: repeated reads return the same cached value.
        assert_eq!(Fp2::xi_inv(), Fp2::xi_inv());
    }

    #[test]
    fn frobenius_p_is_conjugation() {
        let mut r = rng();
        let a = Fp2::random(&mut r);
        assert_eq!(a.frobenius_p(), a.conjugate());
        assert_eq!(a.frobenius_p().frobenius_p(), a);
    }

    #[test]
    fn sqrt_roundtrip() {
        let mut r = rng();
        let mut found_residue = 0;
        for _ in 0..10 {
            let a = Fp2::random(&mut r);
            let sq = a.square();
            let root = sq.sqrt().expect("squares have roots");
            assert!(root == a || root == -a);
            found_residue += 1;
        }
        assert!(found_residue > 0);
    }

    #[test]
    fn sqrt_rejects_non_residues() {
        // In Fp2, an element is a square iff its norm is a square in Fp.
        // Scan a few small elements and cross-check candidate roots.
        let mut r = rng();
        let mut rejected = 0;
        for _ in 0..20 {
            let a = Fp2::random(&mut r);
            if a.sqrt().is_none() {
                rejected += 1;
            }
        }
        // About half of all elements are non-squares.
        assert!(rejected > 0, "expected at least one non-residue in sample");
    }

    /// `(p-1)/2`, second exponent of the complex-method square root.
    const FP2_SQRT_E2: [u64; 6] = [
        0xdcff7fffffffd555,
        0x0f55ffff58a9ffff,
        0xb39869507b587b12,
        0xb23ba5c279c2895f,
        0x258dd3db21a5d66b,
        0x0d0088f51cbff34d,
    ];

    /// The complex-method square root (two `Fp2` exponentiations) that
    /// shipped before the norm method: the oracle for [`Fp2::sqrt`].
    fn sqrt_complex(a: &Fp2) -> Option<Fp2> {
        if a.is_zero() {
            return Some(*a);
        }
        let a1 = a.pow_vartime(&FP2_SQRT_E1); // a^((p-3)/4)
        let x0 = a1 * *a;
        let alpha = a1 * x0; // a^((p-1)/2)
        let cand = if alpha == -Fp2::one() {
            // multiply by u (a square root of -1)
            Fp2::new(-x0.c1, x0.c0)
        } else {
            let b = (alpha + Fp2::one()).pow_vartime(&FP2_SQRT_E2);
            b * x0
        };
        if cand.square() == *a {
            Some(cand)
        } else {
            None
        }
    }

    /// `sqrt` agrees with the oracle on `a`: same `Some`/`None`, roots
    /// equal up to sign, and the root squares back to `a`.
    fn assert_sqrt_matches_oracle(a: Fp2) -> Option<Fp2> {
        let got = a.sqrt();
        match (got, sqrt_complex(&a)) {
            (Some(root), Some(want)) => {
                assert_eq!(root.square(), a, "root of {:?}", a);
                assert!(root == want || root == -want, "roots of {:?} differ", a);
            }
            (None, None) => {}
            (got, want) => panic!("sqrt({:?}) = {:?}, oracle {:?}", a, got, want),
        }
        got
    }

    #[test]
    fn half_constant_is_one_half() {
        assert_eq!(Fp(FP_HALF).double(), Fp::one());
    }

    #[test]
    fn sqrt_matches_complex_method_on_random_elements() {
        let mut r = rng();
        let (mut residues, mut non_residues) = (0, 0);
        for _ in 0..40 {
            let a = Fp2::random(&mut r);
            match assert_sqrt_matches_oracle(a) {
                Some(_) => residues += 1,
                None => non_residues += 1,
            }
            let root = assert_sqrt_matches_oracle(a.square()).expect("squares have roots");
            assert!(root == a || root == -a);
        }
        // About half of all elements are non-squares.
        assert!(residues > 0 && non_residues > 0);
    }

    #[test]
    fn sqrt_edge_cases() {
        let u = Fp2::new(Fp::zero(), Fp::one());
        assert_eq!(assert_sqrt_matches_oracle(Fp2::zero()), Some(Fp2::zero()));
        let root = assert_sqrt_matches_oracle(Fp2::one()).unwrap();
        assert!(root == Fp2::one() || root == -Fp2::one());
        // -1 is a non-residue of Fp, so its roots are ±u.
        let root = assert_sqrt_matches_oracle(-Fp2::one()).unwrap();
        assert!(root == u || root == -u);

        // c1 = 0: a residue c0 has its Fp root, a non-residue c0 the
        // root sqrt(-c0)·u; both signs of the norm's root s = ±c0 occur
        // (s is the residue of the pair), so the δ = 0 fallback runs.
        let mut r = rng();
        let (mut residues, mut non_residues) = (0, 0);
        while residues < 4 || non_residues < 4 {
            let c0 = Fp::random(&mut r);
            let root = assert_sqrt_matches_oracle(Fp2::from_fp(c0)).expect("Fp embeds in squares");
            if c0.sqrt().is_some() {
                assert!(root.c1.is_zero());
                residues += 1;
            } else {
                assert!(root.c0.is_zero());
                non_residues += 1;
            }
        }

        // c0 = 0: a purely imaginary element is a square iff its norm
        // c1² is one, which it always is.
        for _ in 0..8 {
            let a = Fp2::new(Fp::zero(), Fp::random(&mut r));
            assert!(assert_sqrt_matches_oracle(a).is_some());
        }
    }

    #[test]
    fn sqrt_with_non_residue_delta() {
        // For a = x², the norm's root comes back as the residue of
        // ±N(x); when N(x) = x0² + x1² is a non-residue that is -N(x),
        // and δ = (a0 + s)/2 = -x1² is a non-residue too: the branch
        // that swaps the roles of the two coordinates.
        let mut r = rng();
        let mut forced = 0;
        while forced < 8 {
            let x = Fp2::random(&mut r);
            if x.c1.is_zero() || x.norm().sqrt().is_some() {
                continue;
            }
            let a = x.square();
            let s = a.norm().sqrt().expect("norm of a square");
            let delta = (a.c0 + s) * Fp(FP_HALF);
            assert_eq!(delta, -x.c1.square());
            assert!(delta.sqrt().is_none());
            let root = assert_sqrt_matches_oracle(a).expect("squares have roots");
            assert!(root == x || root == -x);
            forced += 1;
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let mut r = rng();
        let a = Fp2::random(&mut r);
        assert_eq!(Fp2::from_bytes(&a.to_bytes()).unwrap(), a);
    }

    #[test]
    fn mul_by_fp_consistent() {
        let mut r = rng();
        let a = Fp2::random(&mut r);
        let s = Fp::from_u64(12345);
        assert_eq!(a.mul_by_fp(&s), a * Fp2::from_fp(s));
    }
}
