//! The slow reference oracles the production engine is tested against.
//!
//! Compiled only for tests and under the dev-only `reference` feature,
//! which nothing but `[dev-dependencies]` entries turn on (this crate's
//! integration tests, the root package's gate examples and the criterion
//! targets), so no binary carries them. Together with
//! `Projective::mul_schoolbook` and `Projective::is_torsion_free` (gated
//! the same way in `curve.rs`) they are the whole oracle surface.
//!
//! [`pairing_tate`] / [`multi_pairing_tate`] keep the original engine —
//! a 255-bit Tate Miller loop over `G1` with denominator elimination and
//! a generic-power hard part — as the property-test reference, mirroring
//! the role of `mul_schoolbook` for scalar multiplication.
//! [`pairing_tate_g2`] is the swapped-argument reduced Tate pairing
//! `f_{r,Q}(P)^((p¹²-1)/r)`, which relates to the ate engine by a *fixed,
//! precomputed exponent* ([`ATE_TATE_EXP`], the Hess–Smart–Vercauteren
//! constant times the chain's factor 3):
//!
//! ```text
//!     pairing(P, Q) = pairing_tate_g2(P, Q)^ATE_TATE_EXP
//! ```
//!
//! The `pairing_engine` property suite enforces this identity on random
//! and edge inputs, checks the hard-part chain against the generic power
//! by [`FINAL_EXP_HARD`], and pins both engines to the same bilinear map
//! up to the fixed change of `GT` generator. The G1-side Tate pairing
//! `f_{r,P}(Q)` is *not* a fixed power of the ate pairing with any
//! closed-form exponent (the argument swap constant is a Weil-pairing
//! discrete log), which is why the strict relation is stated against the
//! G2-side reference.

use crate::constants::ORDER;
use crate::curve::{G1Affine, G1Projective, G2Affine};
use crate::fp::Fp;
use crate::fp12::Fp12;
use crate::fp2::Fp2;
use crate::fp6::Fp6;
use crate::pairing::{g2_add_step, g2_double_step, Gt, LineCoeffs};
use crate::traits::Field;

/// The final-exponentiation hard part `(p⁴ - p² + 1)/r`, the exponent of
/// the generic power the cyclotomic chain is tested against.
pub const FINAL_EXP_HARD: [u64; 20] = [
    0xe516c3f438e3ba79,
    0xfa9912aae208ccf1,
    0x905ce937335d5b68,
    0xc71a2629b0dea236,
    0x83774940996754c8,
    0x21d160aeb6a1e799,
    0x2ed0b283ed237db4,
    0x915c97f36c6f1821,
    0x67f17fcbde783765,
    0x2378b9039096d1b7,
    0x7988f8761bdc51dc,
    0x2076995003fc77a1,
    0x827eca0ba621315b,
    0xe5a72bce8d63cb9f,
    0xf68f7764c28b6f8a,
    0x2f230063cf081517,
    0x94506632528d6a9a,
    0xd3cde88eeb996ca3,
    0xc0bd38c3195c899e,
    0x000f686b3d807d01,
];

/// The fixed exponent relating the shipped optimal-ate engine to the
/// swapped-argument reduced Tate pairing:
/// `pairing(P, Q) = pairing_tate_g2(P, Q)^ATE_TATE_EXP`.
///
/// It is `3·d mod r` where `d = L·c⁻¹ mod r` is the
/// Hess–Smart–Vercauteren constant (`L = (x¹² - 1)/r`, `c = 12·p¹¹ mod r`)
/// relating the *canonical* reduced ate pairing to the Tate pairing, and
/// the factor 3 accounts for the final-exponentiation addition chain
/// computing `m^(3(p⁴-p²+1)/r)` (3 is coprime to `r`, so the cube is an
/// equally valid pairing). Derived and numerically confirmed by
/// `tools/gen_pairing_constants.py`; enforced on random and edge inputs
/// by the `pairing_engine` property suite.
pub const ATE_TATE_EXP: [u64; 4] = [
    0x6901000000008000,
    0x760180013b018000,
    0x46a8e6673b018268,
    0x0000000000000000,
];

impl Fp2 {
    /// The inverse `ξ⁻¹` of the tower non-residue, computed once per
    /// process and shared (it scales every untwisted `G2` coordinate in
    /// the Tate Miller loop).
    pub(crate) fn xi_inv() -> Self {
        static XI_INV: std::sync::OnceLock<Fp2> = std::sync::OnceLock::new();
        *XI_INV.get_or_init(|| Fp2::xi().invert().expect("xi is non-zero"))
    }
}

impl Fp12 {
    /// Multiplies by a sparse line element with non-zero entries
    /// `a ∈ Fp` (constant), `b ∈ Fp2` (at `v²` of the even part) and
    /// `c ∈ Fp2` (at `v·w` of the odd part) — the shape produced by the
    /// Tate Miller-loop line evaluations.
    pub(crate) fn mul_by_line(&self, a: &Fp, b: &Fp2, c: &Fp2) -> Self {
        let line = Fp12::new(
            Fp6::new(Fp2::from_fp(*a), Fp2::zero(), *b),
            Fp6::new(Fp2::zero(), *c, Fp2::zero()),
        );
        *self * line
    }
}

/// Per-pair state of the shared G1-side Tate Miller loop.
struct MillerPair {
    /// Accumulator point `T = kP`, Jacobian over `Fp`.
    t: G1Projective,
    /// The base point `P` in affine form.
    p: G1Affine,
    /// `x_Q · ξ⁻¹ ∈ Fp2` — the `v²` coefficient of `ψ(Q)`'s x-coordinate.
    xq: Fp2,
    /// `y_Q · ξ⁻¹ ∈ Fp2` — the `v·w` coefficient of `ψ(Q)`'s y-coordinate.
    yq: Fp2,
}

impl MillerPair {
    fn new(p: &G1Affine, q: &G2Affine) -> Self {
        let xi_inv = Fp2::xi_inv();
        MillerPair {
            t: p.to_projective(),
            p: *p,
            xq: q.x() * xi_inv,
            yq: q.y() * xi_inv,
        }
    }

    /// Doubling step: multiplies the tangent line at `T` (evaluated at
    /// `ψ(Q)`) into `f` and sets `T ← 2T`.
    fn double_step(&mut self, f: &mut Fp12) {
        let (x, y, z) = (self.t.x, self.t.y, self.t.z);
        // dbl-2009-l intermediates, shared with the line computation.
        let a = x.square();
        let b = y.square();
        let c = b.square();
        let d = ((x + b).square() - a - c).double();
        let e = a.double() + a; // 3x²
        let fq = e.square();
        let x3 = fq - d.double();
        let y3 = e * (d - x3) - c.double().double().double();
        let z3 = (y * z).double();
        // Tangent line at T, scaled by 2YZ³ (an Fp constant, killed by the
        // final exponentiation):  ℓ = (2YZ³)·ys - (3X²Z²)·xs + (3X³ - 2Y²).
        let zz = z.square();
        let coeff_y = z3 * zz; // 2YZ³
        let coeff_x = e * zz; // 3X²Z²
        let constant = e * x - b.double(); // 3X³ - 2Y²
        let lb = self.xq.mul_by_fp(&coeff_x);
        let lc = self.yq.mul_by_fp(&coeff_y);
        *f = f.mul_by_line(&constant, &(-lb), &lc);
        self.t = G1Projective {
            x: x3,
            y: y3,
            z: z3,
        };
    }

    /// Addition step: multiplies the chord through `T` and `P` (evaluated
    /// at `ψ(Q)`) into `f` and sets `T ← T + P`.
    fn add_step(&mut self, f: &mut Fp12) {
        let (x, y, z) = (self.t.x, self.t.y, self.t.z);
        let (xp, yp) = (self.p.x(), self.p.y());
        let zz = z.square();
        let zzz = zz * z;
        // Chord through T and P, scaled by Z(X - xp Z²):
        //   ℓ = c1·ys - c2·xs + (c2·xp - c1·yp)
        // with c1 = Z(X - xp Z²), c2 = Y - yp Z³.
        let c1 = z * (x - xp * zz);
        let c2 = y - yp * zzz;
        let constant = c2 * xp - c1 * yp;
        let lb = self.xq.mul_by_fp(&c2);
        let lc = self.yq.mul_by_fp(&c1);
        *f = f.mul_by_line(&constant, &(-lb), &lc);
        self.t = self.t.add_affine(&self.p);
    }
}

/// Evaluates the product of Miller functions `Π f_{r,P_i}(ψ(Q_i))` with a
/// shared accumulator. Identity inputs contribute the factor `1`.
fn miller_loop_tate(pairs: &[(&G1Affine, &G2Affine)]) -> Fp12 {
    let mut state: Vec<MillerPair> = pairs
        .iter()
        .filter(|(p, q)| !p.is_identity() && !q.is_identity())
        .map(|(p, q)| MillerPair::new(p, q))
        .collect();
    let mut f = Fp12::one();
    if state.is_empty() {
        return f;
    }
    // Bits of r, from the bit below the MSB (bit 254) down to bit 0.
    for i in (0..=253usize).rev() {
        f = f.square();
        for pair in state.iter_mut() {
            pair.double_step(&mut f);
        }
        if (ORDER[i / 64] >> (i % 64)) & 1 == 1 {
            for pair in state.iter_mut() {
                pair.add_step(&mut f);
            }
        }
    }
    f
}

/// The reference final exponentiation `f ↦ f^((p¹²-1)/r)`: easy part plus
/// a plain variable-time power by the precomputed 1270-bit hard exponent
/// [`FINAL_EXP_HARD`]. Deliberately generic — it is what the cyclotomic
/// chain is property-tested against.
fn final_exponentiation_generic(f: &Fp12) -> Gt {
    let t0 = f.conjugate() * f.invert().expect("Miller output is non-zero");
    let t1 = t0.frobenius_p2() * t0;
    Gt(t1.pow_vartime(&FINAL_EXP_HARD))
}

/// The G1-side reduced Tate pairing `f_{r,P}(ψ(Q))^((p¹²-1)/r)` — the
/// seed engine, kept verbatim as the slow reference (the
/// `mul_schoolbook` of the pairing layer). Same bilinear map as
/// [`crate::pairing()`] up to a fixed (closed-form-free) change of `GT`
/// generator.
pub fn pairing_tate(p: &G1Affine, q: &G2Affine) -> Gt {
    final_exponentiation_generic(&miller_loop_tate(&[(p, q)]))
}

/// Multi-pairing form of [`pairing_tate`].
pub fn multi_pairing_tate(pairs: &[(&G1Affine, &G2Affine)]) -> Gt {
    final_exponentiation_generic(&miller_loop_tate(pairs))
}

/// The swapped-argument reduced Tate pairing `f_{r,Q}(P)^((p¹²-1)/r)`:
/// a 255-bit Miller loop on the `G2` side with the *generic* line product
/// (full `Fp12` multiplications, no sparse path) and the generic-power
/// final exponentiation. This is the strict reference for the ate engine:
/// `pairing(P, Q) == pairing_tate_g2(P, Q)^ATE_TATE_EXP` exactly.
pub fn pairing_tate_g2(p: &G1Affine, q: &G2Affine) -> Gt {
    if p.is_identity() || q.is_identity() {
        return Gt::identity();
    }
    let (px, py) = (p.x(), p.y());
    // Full (non-sparse) line fold, independent of mul_by_014.
    let fold = |f: Fp12, c: LineCoeffs| -> Fp12 {
        let line = Fp12::new(
            Fp6::new(c.0, c.1.mul_by_fp(&px), Fp2::zero()),
            Fp6::new(Fp2::zero(), c.2.mul_by_fp(&py), Fp2::zero()),
        );
        f * line
    };
    let mut t = q.to_projective();
    let mut f = Fp12::one();
    for i in (0..=253usize).rev() {
        f = f.square();
        f = fold(f, g2_double_step(&mut t));
        if (ORDER[i / 64] >> (i % 64)) & 1 == 1 {
            f = fold(f, g2_add_step(&mut t, q));
        }
    }
    final_exponentiation_generic(&f)
}
