//! Endomorphism-accelerated subgroup membership checks.
//!
//! Decoding a compressed point must verify prime-order subgroup
//! membership, and with the wire codec on every transport hot path that
//! check *is* the cost of deserialization. The naive test multiplies by
//! the 255-bit group order; the standard BLS12-381 technique (M. Scott,
//! *A note on group membership tests for G1, G2 and GT on BLS
//! pairing-friendly curves*, ePrint 2021/1130) replaces it with one
//! cheap curve endomorphism evaluation plus a short scalar
//! multiplication:
//!
//! * **G2** — the untwist-Frobenius-twist endomorphism `ψ` acts on the
//!   order-`r` subgroup as multiplication by the BLS parameter
//!   `x = -BLS_X` (64 bits), so membership is `ψ(P) = [x]P`;
//! * **G1** — the GLV endomorphism `φ(x, y) = (βx, y)` (`β` a nontrivial
//!   cube root of unity in `Fp`) acts as multiplication by an eigenvalue
//!   `λ ∈ {x² − 1, −x²} (mod r)` (128 bits), so membership is
//!   `φ(P) = [λ]P`.
//!
//! Scott proves both conditions *equivalent* to `[r]P = O` on these
//! curves (the eigenvalues differ on every other component of the curve
//! group), and `tests` plus `pairing/tests/properties.rs` cross-check
//! against the order-multiplication reference `is_torsion_free` (a
//! test-and-`reference`-feature method of `Projective`) on subgroup,
//! cofactor-torsion and random curve points.
//!
//! The endomorphism coefficients are derived *at first use* from the
//! curve constants alone (`ξ^{(p−1)/3}`, `ξ^{(p−1)/2}`, a cube root of
//! unity) and validated against the subgroup generator; an incoherent
//! derivation panics immediately rather than mis-verifying points. The
//! twist-sign and eigenvalue conventions are resolved by that generator
//! probe, so no hand-transcribed magic constants enter the codebase.

use crate::constants::{BLS_X, FP_MODULUS};
use crate::curve::{G1Affine, G1Projective, G2Affine, G2Projective};
use crate::fp::Fp;
use crate::fp2::Fp2;
use crate::traits::Field;
use std::sync::OnceLock;

/// Divides a little-endian limb string by a small divisor, returning
/// quotient and remainder.
fn div_limbs(limbs: &[u64; 6], divisor: u64) -> ([u64; 6], u64) {
    let mut out = [0u64; 6];
    let mut rem: u128 = 0;
    for i in (0..6).rev() {
        let cur = (rem << 64) | limbs[i] as u128;
        out[i] = (cur / divisor as u128) as u64;
        rem = cur % divisor as u128;
    }
    (out, rem as u64)
}

/// `p − 1` as limbs (the modulus is odd, so no borrow).
fn p_minus_1() -> [u64; 6] {
    let mut limbs = FP_MODULUS;
    limbs[0] -= 1;
    limbs
}

/// `(p − 1) / 3` (exact: p ≡ 1 mod 3 on BLS12-381).
fn exp_third() -> [u64; 6] {
    let (q, r) = div_limbs(&p_minus_1(), 3);
    assert_eq!(r, 0, "p - 1 must be divisible by 3");
    q
}

/// `(p − 1) / 2`.
fn exp_half() -> [u64; 6] {
    let (q, _) = div_limbs(&p_minus_1(), 2);
    q
}

/// Negates an affine point without touching infinity handling.
fn neg_g1(p: &G1Affine) -> G1Affine {
    G1Affine {
        x: p.x,
        y: -p.y,
        infinity: p.infinity,
    }
}

fn neg_g2(p: &G2Affine) -> G2Affine {
    G2Affine {
        x: p.x,
        y: -p.y,
        infinity: p.infinity,
    }
}

// --- G2: untwist-Frobenius-twist ---

/// `[BLS_X]P` by plain double-and-add from the top bit: `BLS_X` has
/// Hamming weight 6, so the chain is 63 doublings and 5 mixed additions
/// — fewer group operations than a wNAF ladder, which pays 4 to build
/// its table of odd multiples before the first digit. Valid on every
/// curve point, not only the subgroup (`add_affine` handles the
/// doubling and cancelling cases small-order points can reach).
fn mul_by_bls_x(p: &G2Affine) -> G2Projective {
    let mut acc = p.to_projective();
    for i in (0..BLS_X.ilog2()).rev() {
        acc = acc.double();
        if (BLS_X >> i) & 1 == 1 {
            acc = acc.add_affine(p);
        }
    }
    acc
}

pub(crate) struct PsiG2 {
    /// Multiplier of the conjugated x-coordinate.
    pub(crate) cx: Fp2,
    /// Multiplier of the conjugated y-coordinate.
    pub(crate) cy: Fp2,
    /// `true` if the subgroup eigenvalue is `−BLS_X` (the BLS parameter
    /// is negative on this curve), resolved by the generator probe.
    pub(crate) negative_eigenvalue: bool,
}

impl PsiG2 {
    pub(crate) fn apply(&self, p: &G2Affine) -> G2Affine {
        G2Affine {
            x: p.x.frobenius_p() * self.cx,
            y: p.y.frobenius_p() * self.cy,
            infinity: p.infinity,
        }
    }

    /// `ψ(P) − [±BLS_X]P` vanishes exactly on the subgroup.
    fn holds_for(&self, p: &G2Affine) -> bool {
        let xp = mul_by_bls_x(p);
        let xp = if self.negative_eigenvalue { -xp } else { xp };
        xp.add_affine(&neg_g2(&self.apply(p))).is_identity()
    }
}

pub(crate) fn psi_g2() -> &'static PsiG2 {
    static CELL: OnceLock<PsiG2> = OnceLock::new();
    CELL.get_or_init(|| {
        let xi = Fp2::new(Fp::one(), Fp::one());
        let gx = xi.pow_vartime(&exp_third());
        let gy = xi.pow_vartime(&exp_half());
        let gx_inv = gx.invert().expect("ξ^((p-1)/3) is invertible");
        let gy_inv = gy.invert().expect("ξ^((p-1)/2) is invertible");
        let generator = G2Projective::generator().to_affine();
        // Resolve the twist direction and eigenvalue sign on the
        // generator: exactly one combination is the genuine
        // endomorphism (the others do not even map onto the curve).
        for (cx, cy) in [(gx_inv, gy_inv), (gx, gy)] {
            for negative_eigenvalue in [true, false] {
                let candidate = PsiG2 {
                    cx,
                    cy,
                    negative_eigenvalue,
                };
                if candidate.apply(&generator).is_on_curve() && candidate.holds_for(&generator) {
                    return candidate;
                }
            }
        }
        panic!("no untwist-Frobenius-twist convention matches the G2 generator");
    })
}

/// Fast G2 subgroup membership: `ψ(P) = [x]P` (Scott, ePrint 2021/1130).
///
/// `p` must already be on the curve (the decoder established that);
/// the identity is vacuously a member.
pub fn g2_in_subgroup(p: &G2Affine) -> bool {
    if p.infinity {
        return true;
    }
    psi_g2().holds_for(p)
}

// --- G1: GLV ---

pub(crate) struct PhiG1 {
    /// Nontrivial cube root of unity in `Fp`.
    pub(crate) beta: Fp,
    /// `BLS_X²` as limbs (a 128-bit scalar).
    pub(crate) x_squared: [u64; 2],
    /// `true` if the subgroup eigenvalue is `x² − 1` (check
    /// `φ(P) + P = [x²]P`), `false` if it is `−x²` (check
    /// `φ(P) + [x²]P = O`) — which one depends on the β the derivation
    /// lands on; resolved by the generator probe.
    pub(crate) lambda_is_x2_minus_1: bool,
}

impl PhiG1 {
    pub(crate) fn apply(&self, p: &G1Affine) -> G1Affine {
        G1Affine {
            x: p.x * self.beta,
            y: p.y,
            infinity: p.infinity,
        }
    }

    fn holds_for(&self, p: &G1Affine) -> bool {
        let x2p = p.to_projective().mul_vartime_limbs(&self.x_squared);
        let phi = self.apply(p);
        if self.lambda_is_x2_minus_1 {
            // [x²]P − φ(P) − P = O.
            x2p.add_affine(&neg_g1(&phi))
                .add_affine(&neg_g1(p))
                .is_identity()
        } else {
            // [x²]P + φ(P) = O.
            x2p.add_affine(&phi).is_identity()
        }
    }
}

pub(crate) fn phi_g1() -> &'static PhiG1 {
    static CELL: OnceLock<PhiG1> = OnceLock::new();
    CELL.get_or_init(|| {
        let exp = exp_third();
        let beta = (2u64..)
            .map(|g| Fp::from_u64(g).pow_vartime(&exp))
            .find(|b| *b != Fp::one())
            .expect("Fp contains nontrivial cube roots of unity");
        let x2 = (BLS_X as u128) * (BLS_X as u128);
        let x_squared = [x2 as u64, (x2 >> 64) as u64];
        let generator = G1Projective::generator().to_affine();
        for lambda_is_x2_minus_1 in [true, false] {
            let candidate = PhiG1 {
                beta,
                x_squared,
                lambda_is_x2_minus_1,
            };
            if candidate.holds_for(&generator) {
                return candidate;
            }
        }
        panic!("no GLV eigenvalue convention matches the G1 generator");
    })
}

/// Fast G1 subgroup membership: `φ(P) = [λ]P` (Scott, ePrint 2021/1130).
///
/// `p` must already be on the curve; the identity is vacuously a member.
pub fn g1_in_subgroup(p: &G1Affine) -> bool {
    if p.infinity {
        return true;
    }
    phi_g1().holds_for(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::{random_curve_point, G1Params, G2Params};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xe2d0)
    }

    #[test]
    fn agrees_with_order_multiplication_on_subgroup_points() {
        let mut r = rng();
        for _ in 0..8 {
            let p1 = G1Projective::random(&mut r).to_affine();
            assert!(p1.to_projective().is_torsion_free());
            assert!(g1_in_subgroup(&p1));
            let p2 = G2Projective::random(&mut r).to_affine();
            assert!(p2.to_projective().is_torsion_free());
            assert!(g2_in_subgroup(&p2));
        }
        assert!(g1_in_subgroup(&G1Affine::identity()));
        assert!(g2_in_subgroup(&G2Affine::identity()));
    }

    #[test]
    fn sparse_bls_x_chain_matches_wnaf_ladder() {
        use crate::constants::ORDER;
        let mut r = rng();
        let check = |p: G2Affine| {
            let want = p.to_projective().mul_vartime_limbs(&[BLS_X]);
            assert!(mul_by_bls_x(&p) == want, "[x]P diverged on {:?}", p);
        };
        check(G2Affine::identity());
        check(G2Affine::generator());
        for _ in 0..4 {
            check(G2Projective::random(&mut r).to_affine());
            let off = random_curve_point::<G2Params>(&mut r, Fp2::sqrt);
            check(off);
            // [r]P kills the subgroup component: what is left has order
            // dividing the cofactor.
            let torsion = off.to_projective().mul_vartime_limbs(&ORDER);
            assert!(!torsion.is_identity() && !torsion.is_torsion_free());
            check(torsion.to_affine());
        }
    }

    #[test]
    fn agrees_with_order_multiplication_off_subgroup() {
        let mut r = rng();
        let mut rejected = 0;
        for _ in 0..8 {
            let p1 = random_curve_point::<G1Params>(&mut r, Fp::sqrt);
            let slow = p1.to_projective().is_torsion_free();
            assert_eq!(g1_in_subgroup(&p1), slow);
            let p2 = random_curve_point::<G2Params>(&mut r, Fp2::sqrt);
            let slow2 = p2.to_projective().is_torsion_free();
            assert_eq!(g2_in_subgroup(&p2), slow2);
            rejected += usize::from(!slow) + usize::from(!slow2);
        }
        // G1/G2 cofactors are huge: random curve points are (whp) not in
        // the subgroup, so the test must actually have exercised the
        // rejecting path.
        assert!(rejected >= 8, "expected mostly non-subgroup samples");
    }
}
