//! The bilinear map `e : G1 × G2 → GT`: the *optimal ate pairing*
//! (Vercauteren), the one pairing engine of the release build.
//!
//! ## The production engine
//!
//! For `P ∈ G1 ⊂ E(Fp)` and `Q ∈ G2 ⊂ E'(Fp2)` the engine computes
//!
//! ```text
//!     e(P, Q) = f_{x,Q}(P)^(3·(p¹² - 1)/r),    x = -0xd201000000010000
//! ```
//!
//! * **Short Miller loop** — 63 iterations over the bits of the 64-bit
//!   BLS parameter `|x|` ([`crate::constants::BLS_X`]) instead of 254
//!   over the 255-bit group order `r`. Point arithmetic runs on the
//!   `G2` side (Jacobian over `Fp2`), emitting per-step *line
//!   coefficients* that are evaluated at `P` and folded into the
//!   accumulator with the sparse product [`Fp12::mul_by_014`]. The
//!   parameter's sign is handled by one final conjugation.
//! * **Prepared second arguments** — the line coefficients depend only
//!   on `Q`, so a [`G2Prepared`] caches the whole coefficient vector for
//!   a fixed `Q` (generators, long-lived public keys) and
//!   [`multi_pairing_prepared`] / [`multi_pairing_mixed`] replay it with
//!   no `Fp2` point arithmetic at all — the pairing analogue of the
//!   fixed-base tables in [`crate::precompute`].
//! * **Cyclotomic final exponentiation** — the easy part
//!   `(p⁶-1)(p²+1)` (conjugation, one inversion, one Frobenius) followed
//!   by the standard `x`-power addition chain over Granger–Scott
//!   [`Fp12::cyclotomic_square`]s and the full `p`-power Frobenius
//!   ladder, computing `m^(3λ)` with `λ = (p⁴-p²+1)/r` — roughly 4×64
//!   cyclotomic squarings instead of a generic 1270-bit power. The
//!   harmless factor 3 (coprime to `r`) is the standard chain variant.
//!
//! [`multi_pairing`] evaluates `Π e(P_i, Q_i)` with a *shared* Miller
//! accumulator (one squaring cascade and one final exponentiation for the
//! whole product), which is what makes the scheme's four-pairing
//! verification equations economical.
//!
//! ## The reference oracles
//!
//! The Tate engines this one is tested against (`pairing_tate`,
//! `multi_pairing_tate`, `pairing_tate_g2`) and the generic-power final
//! exponentiation live in the `reference` module, compiled only for tests
//! and under the dev-only `reference` feature; the release build carries
//! this engine alone.

use crate::constants::BLS_X;
use crate::curve::{G1Affine, G2Affine, G2Projective};
use crate::fp::Fp;
use crate::fp12::Fp12;
use crate::fp2::Fp2;
use crate::fr::Fr;

/// An element of the target group `GT ⊂ Fp12*` (order `r`), written
/// multiplicatively.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Gt(pub(crate) Fp12);

impl Gt {
    /// The multiplicative identity `1 ∈ GT`.
    pub fn identity() -> Self {
        Gt(Fp12::one())
    }

    /// The canonical generator `e(g1, g2)`.
    pub fn generator() -> Self {
        pairing(&G1Affine::generator(), &G2Affine::generator())
    }

    /// Returns `true` for the identity.
    pub fn is_identity(&self) -> bool {
        self.0.is_one()
    }

    /// Group inverse. Elements of `GT` are unitary, so the inverse is the
    /// (cheap) conjugation over `Fp6`.
    pub fn inverse(&self) -> Self {
        Gt(self.0.conjugate())
    }

    /// Variable-time exponentiation by a scalar: width-4 wNAF over
    /// cyclotomic squarings ([`Fp2`]-cheap, valid because `GT` lies in
    /// the cyclotomic subgroup), with conjugation serving negative
    /// digits. Equivalence with the generic square-and-multiply power is
    /// enforced by the `pairing_engine` property suite.
    pub fn pow(&self, k: &Fr) -> Self {
        const WIDTH: usize = 4;
        let digits = k.to_wnaf(WIDTH);
        if digits.is_empty() {
            return Gt::identity();
        }
        // Odd powers f^1, f^3, f^5, f^7.
        let squared = self.0.square();
        let mut table = [Fp12::one(); 1 << (WIDTH - 2)];
        let mut cur = self.0;
        for slot in table.iter_mut() {
            *slot = cur;
            cur *= squared;
        }
        let top = digits[digits.len() - 1];
        debug_assert!(top > 0, "wNAF top digit must be positive");
        let mut acc = table[(top as usize - 1) / 2];
        for &d in digits.iter().rev().skip(1) {
            acc = acc.cyclotomic_square();
            if d > 0 {
                acc *= table[(d as usize - 1) / 2];
            } else if d < 0 {
                acc *= table[((-d) as usize - 1) / 2].conjugate();
            }
        }
        Gt(acc)
    }

    /// Exposes the underlying `Fp12` element (e.g. for hashing/serializing).
    pub fn as_fp12(&self) -> &Fp12 {
        &self.0
    }
}

impl core::ops::Mul for Gt {
    type Output = Gt;
    fn mul(self, rhs: Gt) -> Gt {
        Gt(self.0 * rhs.0)
    }
}
impl core::ops::MulAssign for Gt {
    fn mul_assign(&mut self, rhs: Gt) {
        self.0 *= rhs.0;
    }
}

// ===========================================================================
// Optimal-ate engine
// ===========================================================================

/// One evaluated Miller line in coefficient form `(c0, c1, c4)`:
/// the sparse element is `c0 + (c1·x_P)·v + (c4·y_P)·v·w` once scaled by
/// the affine coordinates of the `G1` argument.
pub(crate) type LineCoeffs = (Fp2, Fp2, Fp2);

/// Doubling step of the `G2`-side Miller loop: advances `T ← 2T`
/// (Jacobian `dbl-2009-l`, shared intermediates with the tangent line)
/// and returns the tangent-line coefficients at `T`, scaled by
/// `2YZ³ ∈ Fp2` (killed by the final exponentiation).
pub(crate) fn g2_double_step(t: &mut G2Projective) -> LineCoeffs {
    let (x, y, z) = (t.x, t.y, t.z);
    let a = x.square();
    let b = y.square();
    let c = b.square();
    let d = ((x + b).square() - a - c).double();
    let e = a.double() + a; // 3X²
    let fq = e.square();
    let x3 = fq - d.double();
    let y3 = e * (d - x3) - c.double().double().double();
    let z3 = (y * z).double();
    // Tangent line ℓ = (2YZ³)·y_P·w³ − (3X²Z²)·x_P·w² + (3X³ − 2Y²).
    let zz = z.square();
    let coeff_y = z3 * zz; // 2YZ³
    let coeff_x = e * zz; // 3X²Z²
    let constant = e * x - b.double(); // 3X³ − 2Y²
    *t = G2Projective {
        x: x3,
        y: y3,
        z: z3,
    };
    (constant, -coeff_x, coeff_y)
}

/// Addition step of the `G2`-side Miller loop: advances `T ← T + Q`
/// (fused `madd-2007-bl`, intermediates shared with the chord line, like
/// the doubling step) and returns the chord-line coefficients through
/// `T` and `Q`, scaled by `Z(X − x_Q·Z²) ∈ Fp2` (killed by the final
/// exponentiation).
///
/// The straight-line formulas rely on `T ≠ ±Q` up to the last step:
/// inside both Miller loops `T = kQ` with `1 < k < r` a strict prefix of
/// the loop scalar, so `T = ±Q` would need `k ≡ ±1 (mod r)` — reachable
/// only at the final Tate-loop step `k = r - 1`, where `h = 0` makes the
/// formulas degrade gracefully to the identity (`Z3 = 0`) and the
/// returned line is the correct vertical `x − x_Q` (times an `Fp2`
/// scale).
pub(crate) fn g2_add_step(t: &mut G2Projective, q: &G2Affine) -> LineCoeffs {
    let (x, y, z) = (t.x, t.y, t.z);
    let (xq, yq) = (q.x(), q.y());
    let zz = z.square();
    let u2 = xq * zz;
    let s2 = yq * z * zz;
    // ℓ = c1·y_P·w³ − c2·x_P·w² + (c2·x_Q − c1·y_Q)
    // with c1 = Z(X − x_Q Z²) = −Z·h, c2 = Y − y_Q Z³ = Y − S2.
    let h = u2 - x;
    let c1 = -(z * h);
    let c2 = y - s2;
    let constant = c2 * xq - c1 * yq;
    // madd-2007-bl point update, reusing zz / h / s2.
    let hh = h.square();
    let i = hh.double().double();
    let j = h * i;
    let rr = (-c2).double(); // 2(S2 − Y)
    let v = x * i;
    let x3 = rr.square() - j - v.double();
    let y3 = rr * (v - x3) - (y * j).double();
    let z3 = (z + h).square() - zz - hh;
    *t = G2Projective {
        x: x3,
        y: y3,
        z: z3,
    };
    (constant, -c2, c1)
}

/// Folds a line into the Miller accumulator, evaluated at `(x_P, y_P)`.
#[inline]
fn ell(f: &Fp12, coeffs: &LineCoeffs, px: &Fp, py: &Fp) -> Fp12 {
    f.mul_by_014(&coeffs.0, &coeffs.1.mul_by_fp(px), &coeffs.2.mul_by_fp(py))
}

/// Number of line coefficients one ate Miller loop produces: one per
/// doubling (63) plus one per set low bit of `BLS_X` (5).
fn ate_coeff_count() -> usize {
    63 + (BLS_X.count_ones() as usize - 1)
}

/// A `G2` element preprocessed for pairing: the full vector of Miller
/// line coefficients for the ate loop, so pairings against it perform no
/// `Fp2` point arithmetic at all. Build once for long-lived second
/// arguments (the generator, `(ĝ_z, ĝ_r)`, public keys) and reuse via
/// [`multi_pairing_prepared`] / [`multi_pairing_mixed`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct G2Prepared {
    infinity: bool,
    coeffs: Vec<LineCoeffs>,
}

impl G2Prepared {
    /// Runs the ate Miller loop point arithmetic once for `q`, caching
    /// every line coefficient.
    pub fn new(q: &G2Affine) -> Self {
        if q.is_identity() {
            return G2Prepared {
                infinity: true,
                coeffs: Vec::new(),
            };
        }
        let mut t = q.to_projective();
        let mut coeffs = Vec::with_capacity(ate_coeff_count());
        for i in (0..63).rev() {
            coeffs.push(g2_double_step(&mut t));
            if (BLS_X >> i) & 1 == 1 {
                coeffs.push(g2_add_step(&mut t, q));
            }
        }
        G2Prepared {
            infinity: false,
            coeffs,
        }
    }

    /// Returns `true` if this prepares the identity (pairings against it
    /// contribute the factor `1`).
    pub fn is_identity(&self) -> bool {
        self.infinity
    }
}

impl From<&G2Affine> for G2Prepared {
    fn from(q: &G2Affine) -> Self {
        G2Prepared::new(q)
    }
}

/// Shared ate Miller loop over a mix of on-the-fly and prepared second
/// arguments. Returns `Π f_{x,Q_i}(P_i)` (conjugated for the negative
/// parameter); identity inputs contribute the factor `1`.
fn miller_loop_ate(
    pairs: &[(&G1Affine, &G2Affine)],
    prepared: &[(&G1Affine, &G2Prepared)],
) -> Fp12 {
    // Live state per unprepared pair: (x_P, y_P, T, Q).
    let mut live: Vec<(Fp, Fp, G2Projective, G2Affine)> = pairs
        .iter()
        .filter(|(p, q)| !p.is_identity() && !q.is_identity())
        .map(|(p, q)| (p.x(), p.y(), q.to_projective(), **q))
        .collect();
    // Prepared pairs replay their coefficient stream by index.
    let pre: Vec<(Fp, Fp, &[LineCoeffs])> = prepared
        .iter()
        .filter(|(p, q)| !p.is_identity() && !q.infinity)
        .map(|(p, q)| (p.x(), p.y(), q.coeffs.as_slice()))
        .collect();
    let mut f = Fp12::one();
    if live.is_empty() && pre.is_empty() {
        return f;
    }
    let mut idx = 0usize;
    for i in (0..63).rev() {
        f = f.square();
        for (px, py, t, _) in live.iter_mut() {
            let c = g2_double_step(t);
            f = ell(&f, &c, px, py);
        }
        for (px, py, coeffs) in pre.iter() {
            f = ell(&f, &coeffs[idx], px, py);
        }
        idx += 1;
        if (BLS_X >> i) & 1 == 1 {
            for (px, py, t, q) in live.iter_mut() {
                let c = g2_add_step(t, q);
                f = ell(&f, &c, px, py);
            }
            for (px, py, coeffs) in pre.iter() {
                f = ell(&f, &coeffs[idx], px, py);
            }
            idx += 1;
        }
    }
    // The BLS parameter x is negative: f_{x,Q} = conj(f_{|x|,Q}) after
    // final exponentiation, folded in here.
    f.conjugate()
}

/// Minimum pairs per Miller shard: every shard pays its own 63-step
/// `Fp12` squaring cascade (roughly one pair's worth of line folds), so
/// single-pair shards would spend half their time on redundant
/// squarings. Two pairs per shard caps that overhead at ~25%.
const MIN_PAIRS_PER_SHARD: usize = 2;

/// [`miller_loop_ate`] sharded across the available threads
/// ([`borndist_parallel::current_threads`]): the concatenation of the
/// live and prepared pair lists is split into balanced contiguous
/// shards, each shard runs an independent Miller loop, and the partial
/// values are folded with plain `Fp12` multiplications. The shared
/// squaring cascade satisfies `(f₁f₂)² = f₁²f₂²`, so the folded product
/// equals the joint loop **exactly** (field arithmetic is exact), and
/// results are bit-identical for every thread count. One shared final
/// exponentiation still closes the product.
fn miller_loop_sharded(
    pairs: &[(&G1Affine, &G2Affine)],
    prepared: &[(&G1Affine, &G2Prepared)],
) -> Fp12 {
    let total = pairs.len() + prepared.len();
    let shards = borndist_parallel::current_threads().min(total / MIN_PAIRS_PER_SHARD);
    if shards <= 1 {
        return miller_loop_ate(pairs, prepared);
    }
    // Balanced contiguous ranges over the virtual list pairs ++ prepared.
    let ranges = borndist_parallel::chunk_bounds(total, shards);
    let parts = borndist_parallel::par_map(&ranges, |&(a, b)| {
        let live = &pairs[a.min(pairs.len())..b.min(pairs.len())];
        let pre = &prepared[a.saturating_sub(pairs.len())..b.saturating_sub(pairs.len())];
        miller_loop_ate(live, pre)
    });
    let mut f = Fp12::one();
    for p in parts {
        f *= p;
    }
    f
}

/// `f^x` for `f` in the cyclotomic subgroup, with `x` the (negative) BLS
/// parameter: square-and-multiply over the bits of `|x|` using
/// cyclotomic squarings, then one conjugation for the sign.
fn cyclotomic_exp_x(f: &Fp12) -> Fp12 {
    let mut tmp = Fp12::one();
    let mut started = false;
    for i in (0..64).rev() {
        if started {
            tmp = tmp.cyclotomic_square();
        }
        if (BLS_X >> i) & 1 == 1 {
            tmp *= *f;
            started = true;
        }
    }
    tmp.conjugate()
}

/// The final exponentiation `f ↦ f^(3·(p¹²-1)/r)`: the easy part
/// `(p⁶-1)(p²+1)` followed by the standard BLS12 `x`-power addition chain
/// for `3·(p⁴-p²+1)/r` over cyclotomic squarings and `p`-power Frobenius
/// maps. Agreement with the generic power by the hard exponent (up to
/// the cube; `reference::FINAL_EXP_HARD`) is enforced by the
/// `pairing_engine` property suite.
pub fn final_exponentiation(f: &Fp12) -> Gt {
    // Easy part: m = f^((p^6-1)(p^2+1)), which lands in the cyclotomic
    // subgroup and makes every later inverse a conjugation.
    let t = f.conjugate() * f.invert().expect("Miller output is non-zero");
    let m = t.frobenius_p2() * t;
    // Hard part: m^(3(p^4-p^2+1)/r) by the x-power addition chain.
    let mut t1 = m.cyclotomic_square().conjugate();
    let mut t3 = cyclotomic_exp_x(&m);
    let mut t4 = t3.cyclotomic_square();
    let mut t5 = t1 * t3;
    t1 = cyclotomic_exp_x(&t5);
    let t0 = cyclotomic_exp_x(&t1);
    let mut t6 = cyclotomic_exp_x(&t0);
    t6 *= t4;
    t4 = cyclotomic_exp_x(&t6);
    t5 = t5.conjugate();
    t4 = t4 * t5 * m;
    t5 = m.conjugate();
    t1 *= m;
    t1 = t1.frobenius_p3();
    t6 *= t5;
    t6 = t6.frobenius_p();
    t3 *= t0;
    t3 = t3.frobenius_p2();
    t3 *= t1;
    t3 *= t6;
    Gt(t3 * t4)
}

/// The shared ate Miller loop `Π f_{x,Q_i}(P_i)` without the final
/// exponentiation (exposed for batching layers and the test suite; apply
/// [`final_exponentiation`] to obtain the pairing product). Sharded
/// across threads for large products (see [`crate::parallel`]).
pub fn multi_miller_loop(pairs: &[(&G1Affine, &G2Affine)]) -> Fp12 {
    miller_loop_sharded(pairs, &[])
}

/// [`multi_miller_loop`] over both live and prepared second arguments —
/// the raw accumulator behind [`multi_pairing_mixed`], exposed so
/// batching layers and the invariance tests can fold partial products
/// themselves.
pub fn multi_miller_loop_mixed(
    pairs: &[(&G1Affine, &G2Affine)],
    prepared: &[(&G1Affine, &G2Prepared)],
) -> Fp12 {
    miller_loop_sharded(pairs, prepared)
}

/// Computes the pairing `e(P, Q)` with the optimal-ate engine.
///
/// Returns the identity if either input is the identity.
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Gt {
    final_exponentiation(&miller_loop_ate(&[(p, q)], &[]))
}

/// Computes the product `Π e(P_i, Q_i)` with a single shared Miller loop
/// and one final exponentiation — the workhorse of all verification
/// equations in this workspace. Products of four or more pairs shard
/// their Miller loops across the configured threads
/// ([`borndist_parallel::current`]); results are bit-identical for every
/// thread count.
pub fn multi_pairing(pairs: &[(&G1Affine, &G2Affine)]) -> Gt {
    final_exponentiation(&miller_loop_sharded(pairs, &[]))
}

/// [`multi_pairing`] with every second argument preprocessed: no `Fp2`
/// point arithmetic, just coefficient replay.
pub fn multi_pairing_prepared(pairs: &[(&G1Affine, &G2Prepared)]) -> Gt {
    final_exponentiation(&miller_loop_sharded(&[], pairs))
}

/// The general form: a product over on-the-fly pairs and prepared pairs
/// sharing one Miller accumulator and one final exponentiation. The
/// verification paths in `core` use this to pair cached fixed elements
/// (generators, public keys) with per-call ones. Sharded across threads
/// like [`multi_pairing`].
pub fn multi_pairing_mixed(
    pairs: &[(&G1Affine, &G2Affine)],
    prepared: &[(&G1Affine, &G2Prepared)],
) -> Gt {
    final_exponentiation(&miller_loop_sharded(pairs, prepared))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::{G1Projective, G2Projective};
    use crate::reference::{multi_pairing_tate, pairing_tate, pairing_tate_g2, ATE_TATE_EXP};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x9a19)
    }

    #[test]
    fn non_degenerate() {
        let e = Gt::generator();
        assert!(!e.is_identity());
    }

    #[test]
    fn identity_inputs_map_to_one() {
        let q = G2Affine::generator();
        let p = G1Affine::generator();
        assert!(pairing(&G1Affine::identity(), &q).is_identity());
        assert!(pairing(&p, &G2Affine::identity()).is_identity());
    }

    #[test]
    fn bilinear_in_first_argument() {
        let mut r = rng();
        let a = Fr::random(&mut r);
        let p = G1Projective::generator();
        let q = G2Affine::generator();
        let lhs = pairing(&p.mul(&a).to_affine(), &q);
        let rhs = pairing(&p.to_affine(), &q).pow(&a);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn bilinear_in_second_argument() {
        let mut r = rng();
        let b = Fr::random(&mut r);
        let p = G1Affine::generator();
        let q = G2Projective::generator();
        let lhs = pairing(&p, &q.mul(&b).to_affine());
        let rhs = pairing(&p, &q.to_affine()).pow(&b);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn full_bilinearity() {
        let mut r = rng();
        let (a, b) = (Fr::random(&mut r), Fr::random(&mut r));
        let p = G1Projective::generator().mul(&a).to_affine();
        let q = G2Projective::generator().mul(&b).to_affine();
        assert_eq!(pairing(&p, &q), Gt::generator().pow(&(a * b)));
    }

    #[test]
    fn additive_in_first_argument() {
        let mut r = rng();
        let p1 = G1Projective::random(&mut r);
        let p2 = G1Projective::random(&mut r);
        let q = G2Projective::random(&mut r).to_affine();
        let lhs = pairing(&(p1 + p2).to_affine(), &q);
        let rhs = pairing(&p1.to_affine(), &q) * pairing(&p2.to_affine(), &q);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn negation_inverts() {
        let mut r = rng();
        let p = G1Projective::random(&mut r).to_affine();
        let q = G2Projective::random(&mut r).to_affine();
        let e = pairing(&p, &q);
        assert_eq!(pairing(&p.neg(), &q), e.inverse());
        assert!((pairing(&p, &q) * pairing(&p.neg(), &q)).is_identity());
    }

    #[test]
    fn multi_pairing_matches_product() {
        let mut r = rng();
        let pairs_proj: Vec<(G1Affine, G2Affine)> = (0..4)
            .map(|_| {
                (
                    G1Projective::random(&mut r).to_affine(),
                    G2Projective::random(&mut r).to_affine(),
                )
            })
            .collect();
        let refs: Vec<(&G1Affine, &G2Affine)> = pairs_proj.iter().map(|(p, q)| (p, q)).collect();
        let joint = multi_pairing(&refs);
        let mut separate = Gt::identity();
        for (p, q) in &pairs_proj {
            separate *= pairing(p, q);
        }
        assert_eq!(joint, separate);
    }

    #[test]
    fn multi_pairing_detects_cancellation() {
        // e(P,Q) * e(-P,Q) = 1 through the shared loop.
        let mut r = rng();
        let p = G1Projective::random(&mut r).to_affine();
        let q = G2Projective::random(&mut r).to_affine();
        let np = p.neg();
        assert!(multi_pairing(&[(&p, &q), (&np, &q)]).is_identity());
    }

    #[test]
    fn gt_has_order_r() {
        let e = Gt::generator();
        // e^r = 1: exponentiation by the group order.
        let r_minus_1 = Fr::zero() - Fr::one();
        assert_eq!(e.pow(&r_minus_1) * e, Gt::identity());
    }

    #[test]
    fn gt_pow_is_homomorphic() {
        let mut r = rng();
        let (a, b) = (Fr::random(&mut r), Fr::random(&mut r));
        let e = Gt::generator();
        assert_eq!(e.pow(&a) * e.pow(&b), e.pow(&(a + b)));
        assert_eq!(e.pow(&a).pow(&b), e.pow(&(a * b)));
    }

    #[test]
    fn gt_pow_edge_scalars() {
        let e = Gt::generator();
        assert!(e.pow(&Fr::zero()).is_identity());
        assert_eq!(e.pow(&Fr::one()), e);
        let r_minus_1 = Fr::zero() - Fr::one();
        assert_eq!(e.pow(&r_minus_1), e.inverse());
        assert!(Gt::identity().pow(&Fr::from_u64(12345)).is_identity());
    }

    #[test]
    fn prepared_matches_unprepared() {
        let mut r = rng();
        for _ in 0..3 {
            let p = G1Projective::random(&mut r).to_affine();
            let q = G2Projective::random(&mut r).to_affine();
            let prep = G2Prepared::new(&q);
            assert_eq!(multi_pairing_prepared(&[(&p, &prep)]), pairing(&p, &q));
        }
    }

    #[test]
    fn prepared_coeff_count_matches_loop() {
        let prep = G2Prepared::new(&G2Affine::generator());
        assert_eq!(prep.coeffs.len(), ate_coeff_count());
        assert!(!prep.is_identity());
        assert!(G2Prepared::new(&G2Affine::identity()).is_identity());
    }

    #[test]
    fn mixed_matches_unprepared_product() {
        let mut r = rng();
        let pairs_proj: Vec<(G1Affine, G2Affine)> = (0..4)
            .map(|_| {
                (
                    G1Projective::random(&mut r).to_affine(),
                    G2Projective::random(&mut r).to_affine(),
                )
            })
            .collect();
        let refs: Vec<(&G1Affine, &G2Affine)> = pairs_proj.iter().map(|(p, q)| (p, q)).collect();
        let want = multi_pairing(&refs);
        // Prepare the second half, leave the first half live.
        let preps: Vec<G2Prepared> = pairs_proj[2..]
            .iter()
            .map(|(_, q)| G2Prepared::new(q))
            .collect();
        let prepared: Vec<(&G1Affine, &G2Prepared)> = pairs_proj[2..]
            .iter()
            .zip(preps.iter())
            .map(|((p, _), t)| (p, t))
            .collect();
        assert_eq!(multi_pairing_mixed(&refs[..2], &prepared), want);
        // Identity entries on both sides are skipped.
        let id1 = G1Affine::identity();
        let id_prep = G2Prepared::new(&G2Affine::identity());
        let mut with_ids = prepared.clone();
        with_ids.push((&id1, &preps[0]));
        with_ids.push((&pairs_proj[0].0, &id_prep));
        assert_eq!(multi_pairing_mixed(&refs[..2], &with_ids), want);
    }

    #[test]
    fn ate_equals_tate_g2_to_the_fixed_power() {
        let mut r = rng();
        let fr_exp = {
            // ATE_TATE_EXP as a scalar for Gt::pow.
            Fr::from_canonical_limbs(ATE_TATE_EXP)
        };
        for _ in 0..2 {
            let p = G1Projective::random(&mut r).to_affine();
            let q = G2Projective::random(&mut r).to_affine();
            assert_eq!(pairing(&p, &q), pairing_tate_g2(&p, &q).pow(&fr_exp));
        }
        // Edge inputs.
        let g1 = G1Affine::generator();
        let g2 = G2Affine::generator();
        assert_eq!(pairing(&g1, &g2), pairing_tate_g2(&g1, &g2).pow(&fr_exp));
        assert!(pairing_tate_g2(&G1Affine::identity(), &g2).is_identity());
        assert!(pairing_tate_g2(&g1, &G2Affine::identity()).is_identity());
    }

    #[test]
    fn tate_reference_still_bilinear() {
        let mut r = rng();
        let (a, b) = (Fr::random(&mut r), Fr::random(&mut r));
        let p = G1Projective::generator().mul(&a).to_affine();
        let q = G2Projective::generator().mul(&b).to_affine();
        let gen = pairing_tate(&G1Affine::generator(), &G2Affine::generator());
        assert_eq!(pairing_tate(&p, &q), gen.pow(&(a * b)));
        let np = p.neg();
        assert!(multi_pairing_tate(&[(&p, &q), (&np, &q)]).is_identity());
    }
}
