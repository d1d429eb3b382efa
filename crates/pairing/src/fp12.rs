//! Sextic-over-quadratic extension `Fp12 = Fp6[w]/(w² - v)`.
//!
//! Pairing values live here (before being wrapped in [`crate::Gt`]).
//! The optimal-ate engine uses the full `p`-power Frobenius ladder
//! ([`Fp12::frobenius_p`], [`Fp12::frobenius_p2`], [`Fp12::frobenius_p3`]),
//! Granger–Scott squaring in the cyclotomic subgroup
//! ([`Fp12::cyclotomic_square`]) and the sparse line product
//! ([`Fp12::mul_by_014`]); the retained Tate reference only needs `p²`.

use crate::constants::FROB2_GAMMA;
use crate::fp::Fp;
use crate::fp2::Fp2;
use crate::fp6::{frob1_gamma, Fp6};
use crate::traits::Field;
use rand::RngCore;

/// One square in the degree-4 subtower `Fp4 = Fp2[t]/(t² - v)`
/// (represented by its two `Fp2` coordinates), the kernel of
/// Granger–Scott cyclotomic squaring.
#[inline]
fn fp4_square(a: Fp2, b: Fp2) -> (Fp2, Fp2) {
    let t0 = a.square();
    let t1 = b.square();
    let c0 = t1.mul_by_xi() + t0;
    let c1 = (a + b).square() - t0 - t1;
    (c0, c1)
}

/// An element `c0 + c1·w` of `Fp12`, with `w² = v`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp12 {
    /// Coefficient of `1` (even powers of `w`).
    pub c0: Fp6,
    /// Coefficient of `w` (odd powers of `w`).
    pub c1: Fp6,
}

impl Fp12 {
    /// Constructs an element from its two `Fp6` coefficients.
    pub const fn new(c0: Fp6, c1: Fp6) -> Self {
        Fp12 { c0, c1 }
    }

    /// The additive identity.
    pub fn zero() -> Self {
        Fp12::new(Fp6::zero(), Fp6::zero())
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Fp12::new(Fp6::one(), Fp6::zero())
    }

    /// Embeds an `Fp6` element (the subfield of even `w`-powers).
    pub fn from_fp6(a: Fp6) -> Self {
        Fp12::new(a, Fp6::zero())
    }

    /// Returns `true` for the additive identity.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// Returns `true` for the multiplicative identity.
    pub fn is_one(&self) -> bool {
        *self == Fp12::one()
    }

    /// The conjugate over `Fp6`, which equals the `p⁶`-power Frobenius.
    /// For elements of the cyclotomic subgroup this is the inverse.
    pub fn conjugate(&self) -> Self {
        Fp12::new(self.c0, -self.c1)
    }

    /// The `p`-power Frobenius endomorphism: apply `Fp6::frobenius_p`
    /// coefficient-wise and scale the odd (`w`) part by
    /// `γ_1 = ξ^((p-1)/6) ∈ Fp2` (from `w^p = γ_1·w`).
    pub fn frobenius_p(&self) -> Self {
        Fp12::new(
            self.c0.frobenius_p(),
            self.c1.frobenius_p().mul_by_fp2(&frob1_gamma(1)),
        )
    }

    /// The `p³`-power Frobenius endomorphism (composition of the `p` and
    /// `p²` maps; used by the hard part of the final exponentiation).
    pub fn frobenius_p3(&self) -> Self {
        self.frobenius_p2().frobenius_p()
    }

    /// The `p²`-power Frobenius endomorphism.
    pub fn frobenius_p2(&self) -> Self {
        // With f = sum a_i w^i (a_i in Fp2), f^(p^2) = sum a_i gamma_i w^i
        // where gamma_i = xi^(i(p^2-1)/6) happens to lie in Fp.
        let g: Vec<Fp> = FROB2_GAMMA
            .iter()
            .map(|l| Fp::from_canonical_limbs(*l))
            .collect();
        Fp12::new(
            Fp6::new(
                self.c0.c0.mul_by_fp(&g[0]),
                self.c0.c1.mul_by_fp(&g[2]),
                self.c0.c2.mul_by_fp(&g[4]),
            ),
            Fp6::new(
                self.c1.c0.mul_by_fp(&g[1]),
                self.c1.c1.mul_by_fp(&g[3]),
                self.c1.c2.mul_by_fp(&g[5]),
            ),
        )
    }

    /// `self * self` using complex squaring over `Fp6`.
    pub fn square(&self) -> Self {
        // (c0 + c1 w)^2 = c0^2 + v c1^2 + 2 c0 c1 w
        let t = self.c0 * self.c1;
        let c0 = (self.c0 + self.c1) * (self.c0 + self.c1.mul_by_v()) - t - t.mul_by_v();
        Fp12::new(c0, t.double())
    }

    /// `self + self`.
    pub fn double(&self) -> Self {
        Fp12::new(self.c0.double(), self.c1.double())
    }

    /// Multiplicative inverse, `None` for zero.
    pub fn invert(&self) -> Option<Self> {
        // 1/(c0 + c1 w) = (c0 - c1 w)/(c0^2 - v c1^2)
        let denom = self.c0.square() - self.c1.square().mul_by_v();
        denom
            .invert()
            .map(|d| Fp12::new(self.c0 * d, -(self.c1 * d)))
    }

    /// Multiplies by a sparse element `c0 + c1·v + c4·v·w` — the shape
    /// produced by the optimal-ate line evaluations. Costs 8 `Fp2`
    /// multiplications via the sparse `Fp6` products instead of the
    /// generic 18.
    pub fn mul_by_014(&self, c0: &Fp2, c1: &Fp2, c4: &Fp2) -> Self {
        let aa = self.c0.mul_by_01(c0, c1);
        let bb = self.c1.mul_by_1(c4);
        let o = *c1 + *c4;
        let new_c1 = (self.c1 + self.c0).mul_by_01(c0, &o) - aa - bb;
        Fp12::new(bb.mul_by_v() + aa, new_c1)
    }

    /// Squaring in the cyclotomic subgroup (elements with
    /// `f^(p⁶+1) = 1`, i.e. unitary outputs of the easy part of the
    /// final exponentiation) via Granger–Scott compressed `Fp4` squares:
    /// three `Fp4` squarings instead of a full `Fp12` squaring.
    ///
    /// The result is **only** meaningful for cyclotomic-subgroup inputs;
    /// equivalence with [`Fp12::square`] on that subgroup is enforced by
    /// the `pairing_engine` property suite.
    pub fn cyclotomic_square(&self) -> Self {
        let z0 = self.c0.c0;
        let z4 = self.c0.c1;
        let z3 = self.c0.c2;
        let z2 = self.c1.c0;
        let z1 = self.c1.c1;
        let z5 = self.c1.c2;

        let (t0, t1) = fp4_square(z0, z1);
        let z0 = (t0 - z0).double() + t0;
        let z1 = (t1 + z1).double() + t1;

        let (t0, t1) = fp4_square(z2, z3);
        let (t2, t3) = fp4_square(z4, z5);
        let z4 = (t0 - z4).double() + t0;
        let z5 = (t1 + z5).double() + t1;

        let t0 = t3.mul_by_xi();
        let z2 = (t0 + z2).double() + t0;
        let z3 = (t2 - z3).double() + t2;

        Fp12::new(Fp6::new(z0, z4, z3), Fp6::new(z2, z1, z5))
    }
}

impl core::fmt::Debug for Fp12 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fp12({:?} + ({:?})*w)", self.c0, self.c1)
    }
}

impl core::ops::Add for Fp12 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Fp12::new(self.c0 + rhs.c0, self.c1 + rhs.c1)
    }
}
impl core::ops::Sub for Fp12 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Fp12::new(self.c0 - rhs.c0, self.c1 - rhs.c1)
    }
}
impl core::ops::Neg for Fp12 {
    type Output = Self;
    fn neg(self) -> Self {
        Fp12::new(-self.c0, -self.c1)
    }
}
impl core::ops::Mul for Fp12 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Karatsuba over Fp6 with reduction w² = v.
        let t0 = self.c0 * rhs.c0;
        let t1 = self.c1 * rhs.c1;
        let cross = (self.c0 + self.c1) * (rhs.c0 + rhs.c1);
        Fp12::new(t0 + t1.mul_by_v(), cross - t0 - t1)
    }
}
impl core::ops::AddAssign for Fp12 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl core::ops::SubAssign for Fp12 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl core::ops::MulAssign for Fp12 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Field for Fp12 {
    fn zero() -> Self {
        Fp12::zero()
    }
    fn one() -> Self {
        Fp12::one()
    }
    fn is_zero(&self) -> bool {
        Fp12::is_zero(self)
    }
    fn square(&self) -> Self {
        Fp12::square(self)
    }
    fn double(&self) -> Self {
        Fp12::double(self)
    }
    fn invert(&self) -> Option<Self> {
        Fp12::invert(self)
    }
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        Fp12::new(Fp6::random(rng), Fp6::random(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::FP_MODULUS;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x1212)
    }

    #[test]
    fn w_squared_is_v() {
        let w = Fp12::new(Fp6::zero(), Fp6::one());
        let v = Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero());
        assert_eq!(w.square(), Fp12::from_fp6(v));
    }

    #[test]
    fn ring_axioms() {
        let mut r = rng();
        for _ in 0..5 {
            let (a, b, c) = (
                Fp12::random(&mut r),
                Fp12::random(&mut r),
                Fp12::random(&mut r),
            );
            assert_eq!(a * b, b * a);
            assert_eq!((a * b) * c, a * (b * c));
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!(a.square(), a * a);
        }
    }

    #[test]
    fn inversion() {
        let mut r = rng();
        let a = Fp12::random(&mut r);
        assert_eq!(a * a.invert().unwrap(), Fp12::one());
        assert!(Fp12::zero().invert().is_none());
    }

    #[test]
    fn frobenius_p2_is_field_homomorphism() {
        let mut r = rng();
        let a = Fp12::random(&mut r);
        let b = Fp12::random(&mut r);
        assert_eq!((a * b).frobenius_p2(), a.frobenius_p2() * b.frobenius_p2());
        assert_eq!((a + b).frobenius_p2(), a.frobenius_p2() + b.frobenius_p2());
    }

    #[test]
    fn frobenius_p2_matches_pow() {
        // f^(p^2) via repeated pow: compute f^p^2 as (f^p)^p is unavailable
        // (we don't implement p-power), so check order: applying the map six
        // times must be the identity (p^12-power fixes Fp12).
        let mut r = rng();
        let a = Fp12::random(&mut r);
        let mut b = a;
        for _ in 0..6 {
            b = b.frobenius_p2();
        }
        assert_eq!(a, b);
        // And the map must fix the prime field.
        let c = Fp12::from_fp6(Fp6::from_fp2(Fp2::from_fp(Fp::from_u64(42))));
        assert_eq!(c.frobenius_p2(), c);
    }

    #[test]
    fn frobenius_p2_matches_exponentiation_on_fp2_embedding() {
        // For x in Fp2 ⊂ Fp12 (constant coefficient), x^(p^2) = x.
        let mut r = rng();
        let x = Fp2::random(&mut r);
        let emb = Fp12::from_fp6(Fp6::from_fp2(x));
        assert_eq!(emb.frobenius_p2(), emb);
    }

    #[test]
    fn conjugate_is_p6_frobenius() {
        let mut r = rng();
        let a = Fp12::random(&mut r);
        // conj = frob2 applied three times
        let b = a.frobenius_p2().frobenius_p2().frobenius_p2();
        assert_eq!(a.conjugate(), b);
    }

    #[test]
    fn frobenius_p_is_field_homomorphism_of_order_twelve() {
        let mut r = rng();
        let a = Fp12::random(&mut r);
        let b = Fp12::random(&mut r);
        assert_eq!((a * b).frobenius_p(), a.frobenius_p() * b.frobenius_p());
        assert_eq!((a + b).frobenius_p(), a.frobenius_p() + b.frobenius_p());
        let mut c = a;
        for _ in 0..12 {
            c = c.frobenius_p();
        }
        assert_eq!(c, a);
        // Fixes the prime field.
        let e = Fp12::from_fp6(Fp6::from_fp2(Fp2::from_fp(Fp::from_u64(5))));
        assert_eq!(e.frobenius_p(), e);
    }

    #[test]
    fn frobenius_powers_compose() {
        let mut r = rng();
        let a = Fp12::random(&mut r);
        assert_eq!(a.frobenius_p().frobenius_p(), a.frobenius_p2());
        assert_eq!(a.frobenius_p2().frobenius_p(), a.frobenius_p3());
        assert_eq!(
            a.frobenius_p3().frobenius_p3(),
            a.conjugate(),
            "p^6-power is conjugation"
        );
    }

    #[test]
    fn mul_by_014_matches_full_mul() {
        let mut r = rng();
        for _ in 0..5 {
            let f = Fp12::random(&mut r);
            let c0 = Fp2::random(&mut r);
            let c1 = Fp2::random(&mut r);
            let c4 = Fp2::random(&mut r);
            let sparse = Fp12::new(
                Fp6::new(c0, c1, Fp2::zero()),
                Fp6::new(Fp2::zero(), c4, Fp2::zero()),
            );
            assert_eq!(f.mul_by_014(&c0, &c1, &c4), f * sparse);
        }
    }

    #[test]
    fn cyclotomic_square_matches_square_on_unitary_elements() {
        // Map random elements into the cyclotomic subgroup with the easy
        // part of the final exponentiation: f ↦ f^((p^6-1)(p^2+1)).
        let mut r = rng();
        for _ in 0..5 {
            let f = Fp12::random(&mut r);
            let t = f.conjugate() * f.invert().unwrap();
            let u = t.frobenius_p2() * t;
            assert_eq!(u.cyclotomic_square(), u.square());
        }
        assert_eq!(Fp12::one().cyclotomic_square(), Fp12::one());
    }

    #[test]
    fn mul_by_line_matches_full_mul() {
        let mut r = rng();
        let f = Fp12::random(&mut r);
        let a = Fp::random(&mut r);
        let b = Fp2::random(&mut r);
        let c = Fp2::random(&mut r);
        let line = Fp12::new(
            Fp6::new(Fp2::from_fp(a), Fp2::zero(), b),
            Fp6::new(Fp2::zero(), c, Fp2::zero()),
        );
        assert_eq!(f.mul_by_line(&a, &b, &c), f * line);
    }

    #[test]
    fn fp_subfield_killed_by_unitary_exponent() {
        // For c in Fp*, c^(p-1) = 1; sanity for denominator elimination.
        let c = Fp::from_u64(123456);
        let mut exp = FP_MODULUS;
        exp[0] -= 1;
        assert_eq!(c.pow_vartime(&exp), Fp::one());
    }
}
