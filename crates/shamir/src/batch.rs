//! Cross-dealer batched VSS share verification.
//!
//! In an `n`-player DKG every receiver checks one share bundle per
//! dealer. Check `j` compares a commitment to the share against the
//! dealer's commitment vector evaluated in the exponent at the share's
//! index; for Pedersen checks, `ĝ_z^{a_j} ĝ_r^{b_j} = E_j` with
//! `E_j = Π_ℓ Ŵ_{jℓ}^{x_j^ℓ}`. Each `E_j` is computed once, by Horner's
//! rule at the small index `x_j` (a few doublings per coefficient, see
//! [`PedersenCommitment::evaluate_at_index`]), and all of them are
//! normalised with one shared inversion. The checks then fold with
//! random weights `ρ_j` into **one** MSM over one point per check plus
//! the bases:
//!
//! ```text
//!   ĝ_z^{Σ_j ρ_j a_j} · ĝ_r^{Σ_j ρ_j b_j} · Π_j E_j^{-ρ_j} = 1
//! ```
//!
//! which holds iff every individual check holds, except with
//! probability `≈ |checks| / r` over the weights (the standard
//! random-linear-combination argument; `r` is the group order, so the
//! slack is negligible). Against the per-share loop the fold saves one
//! two-base MSM per check; the `dkg_scaling` release gate records the
//! measured ratio at committee scale.
//!
//! The verdict functions ([`pedersen_check_verdicts`],
//! [`feldman_check_verdicts`]) preserve *exact* per-check accept/reject
//! semantics: a passing batch accepts everything, a failing batch
//! bisects, and every leaf is decided by the plain per-dealer check
//! against the cached evaluation — so a forged share hidden among
//! hundreds of honest dealers is still pinpointed, at `O(log n)` extra
//! folds and no repeated evaluation.

use crate::feldman::FeldmanCommitment;
use crate::pedersen::{PedersenBases, PedersenCommitment, PedersenShare};
use borndist_pairing::{msm, Affine, CurveParams, Fr, G2Affine, G2Projective, Projective};
use rand::RngCore;

/// One Pedersen share check: does `share` open `commitment` at
/// `share.index`? (§3.1 equation (1), one dealer's column.)
#[derive(Clone, Copy, Debug)]
pub struct PedersenCheck<'a> {
    /// The dealer's broadcast commitment vector.
    pub commitment: &'a PedersenCommitment,
    /// The share pair to check against it.
    pub share: PedersenShare,
}

/// One Feldman share check: does `g^{share}` equal the commitment
/// evaluated at `index`?
#[derive(Clone, Copy, Debug)]
pub struct FeldmanCheck<'a, C: CurveParams> {
    /// The dealer's broadcast commitment vector.
    pub commitment: &'a FeldmanCommitment<C>,
    /// Recipient index (1-based).
    pub index: u32,
    /// The share value to check.
    pub share: Fr,
}

/// Every check's commitment evaluated at its index, normalised together.
fn pedersen_evals(checks: &[PedersenCheck<'_>]) -> Vec<G2Affine> {
    let evals: Vec<G2Projective> = checks
        .iter()
        .map(|c| c.commitment.evaluate_at_index(c.share.index))
        .collect();
    G2Projective::batch_to_affine(&evals)
}

/// Every check's commitment evaluated at its index, normalised together.
fn feldman_evals<C: CurveParams>(checks: &[FeldmanCheck<'_, C>]) -> Vec<Affine<C>> {
    let evals: Vec<Projective<C>> = checks
        .iter()
        .map(|c| c.commitment.evaluate_at_index(c.index))
        .collect();
    Projective::batch_to_affine(&evals)
}

/// The folded equation over `idxs`: one full-width weight `ρ_j` per
/// check, drawn in `idxs` order, and one MSM over the points `E_j` with
/// scalars `−ρ_j` plus the `bases`, whose scalars are the ρ-weighted
/// share sums that `add_shares(sums, ρ_j, j)` accumulates.
fn subset_holds<C: CurveParams, const B: usize>(
    bases: [Affine<C>; B],
    evals: &[Affine<C>],
    idxs: &[usize],
    rng: &mut dyn RngCore,
    mut add_shares: impl FnMut(&mut [Fr; B], Fr, usize),
) -> bool {
    let mut points = Vec::with_capacity(idxs.len() + B);
    let mut scalars = Vec::with_capacity(idxs.len() + B);
    let mut sums = [Fr::zero(); B];
    for &j in idxs {
        let rho = Fr::random_nonzero(rng);
        add_shares(&mut sums, rho, j);
        points.push(evals[j]);
        scalars.push(-rho);
    }
    points.extend(bases);
    scalars.extend(sums);
    msm(&points, &scalars).is_identity()
}

/// Batch-then-bisect over `n` checks: a subset `holds` accepts is
/// accepted whole, a failing one splits in half, and a single check is
/// decided by `leaf`.
fn bisect(
    n: usize,
    mut holds: impl FnMut(&[usize]) -> bool,
    leaf: impl Fn(usize) -> bool,
) -> Vec<bool> {
    let mut verdicts = vec![true; n];
    let mut stack: Vec<Vec<usize>> = vec![(0..n).collect()];
    while let Some(idxs) = stack.pop() {
        match idxs.len() {
            0 => {}
            1 => verdicts[idxs[0]] = leaf(idxs[0]),
            _ => {
                if !holds(&idxs) {
                    let mid = idxs.len() / 2;
                    stack.push(idxs[mid..].to_vec());
                    stack.push(idxs[..mid].to_vec());
                }
            }
        }
    }
    verdicts
}

/// The folded Pedersen equation over `checks[idxs]`.
fn pedersen_subset_holds(
    bases: &PedersenBases,
    checks: &[PedersenCheck<'_>],
    evals: &[G2Affine],
    idxs: &[usize],
    rng: &mut dyn RngCore,
) -> bool {
    subset_holds([bases.g_z, bases.g_r], evals, idxs, rng, |s, rho, j| {
        s[0] += rho * checks[j].share.a;
        s[1] += rho * checks[j].share.b;
    })
}

/// The folded Feldman equation over `checks[idxs]`.
fn feldman_subset_holds<C: CurveParams>(
    g: &Affine<C>,
    checks: &[FeldmanCheck<'_, C>],
    evals: &[Affine<C>],
    idxs: &[usize],
    rng: &mut dyn RngCore,
) -> bool {
    subset_holds([*g], evals, idxs, rng, |s, rho, j| {
        s[0] += rho * checks[j].share;
    })
}

/// `true` iff (whp over the weights) every Pedersen check holds — the
/// one-MSM fast path for the all-honest case.
pub fn pedersen_batch_verify(
    bases: &PedersenBases,
    checks: &[PedersenCheck<'_>],
    rng: &mut dyn RngCore,
) -> bool {
    if checks.is_empty() {
        return true;
    }
    let all: Vec<usize> = (0..checks.len()).collect();
    pedersen_subset_holds(bases, checks, &pedersen_evals(checks), &all, rng)
}

/// `true` iff (whp over the weights) every Feldman check holds.
pub fn feldman_batch_verify<C: CurveParams>(
    g: &Projective<C>,
    checks: &[FeldmanCheck<'_, C>],
    rng: &mut dyn RngCore,
) -> bool {
    if checks.is_empty() {
        return true;
    }
    let all: Vec<usize> = (0..checks.len()).collect();
    feldman_subset_holds(&g.to_affine(), checks, &feldman_evals(checks), &all, rng)
}

/// Per-check verdicts via batch-then-bisect: identical accept/reject
/// behavior to calling [`PedersenCommitment::verify_share`] per check
/// (a failing subset bisects down to plain per-check leaves; only a
/// `≈ |checks|/r` weight collision could mask a forgery).
pub fn pedersen_check_verdicts(
    bases: &PedersenBases,
    checks: &[PedersenCheck<'_>],
    rng: &mut dyn RngCore,
) -> Vec<bool> {
    let evals = pedersen_evals(checks);
    bisect(
        checks.len(),
        |idxs| pedersen_subset_holds(bases, checks, &evals, idxs, rng),
        |j| bases.commit(&checks[j].share.a, &checks[j].share.b) == evals[j].to_projective(),
    )
}

/// Per-check verdicts via batch-then-bisect — the Feldman analogue of
/// [`pedersen_check_verdicts`], with the same exactness contract
/// relative to [`FeldmanCommitment::verify_share`].
pub fn feldman_check_verdicts<C: CurveParams>(
    g: &Projective<C>,
    checks: &[FeldmanCheck<'_, C>],
    rng: &mut dyn RngCore,
) -> Vec<bool> {
    let evals = feldman_evals(checks);
    let g_affine = g.to_affine();
    bisect(
        checks.len(),
        |idxs| feldman_subset_holds(&g_affine, checks, &evals, idxs, rng),
        |j| g.mul(&checks[j].share) == evals[j].to_projective(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pedersen::PedersenSharing;
    use crate::polynomial::Polynomial;
    use borndist_pairing::{G1Projective, G2Projective};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xba7c)
    }

    fn bases(r: &mut StdRng) -> PedersenBases {
        PedersenBases {
            g_z: G2Projective::random(r).to_affine(),
            g_r: G2Projective::random(r).to_affine(),
        }
    }

    #[test]
    fn honest_batch_accepts() {
        let mut r = rng();
        let b = bases(&mut r);
        let sharings: Vec<PedersenSharing> = (0..9)
            .map(|_| PedersenSharing::deal_random(&b, 3, &mut r))
            .collect();
        let checks: Vec<PedersenCheck<'_>> = sharings
            .iter()
            .map(|s| PedersenCheck {
                commitment: &s.commitment,
                share: s.share_for(4),
            })
            .collect();
        assert!(pedersen_batch_verify(&b, &checks, &mut r));
        assert!(pedersen_check_verdicts(&b, &checks, &mut r)
            .iter()
            .all(|&v| v));
    }

    #[test]
    fn single_forgery_located() {
        let mut r = rng();
        let b = bases(&mut r);
        let sharings: Vec<PedersenSharing> = (0..13)
            .map(|_| PedersenSharing::deal_random(&b, 2, &mut r))
            .collect();
        let mut checks: Vec<PedersenCheck<'_>> = sharings
            .iter()
            .map(|s| PedersenCheck {
                commitment: &s.commitment,
                share: s.share_for(2),
            })
            .collect();
        checks[7].share.a += Fr::one();
        assert!(!pedersen_batch_verify(&b, &checks, &mut r));
        let verdicts = pedersen_check_verdicts(&b, &checks, &mut r);
        for (i, v) in verdicts.iter().enumerate() {
            assert_eq!(*v, i != 7, "verdict {} wrong", i);
        }
    }

    #[test]
    fn mixed_indices_batch() {
        // Complaint answers check shares for *other* indices; the fold
        // must track a per-check evaluation point.
        let mut r = rng();
        let b = bases(&mut r);
        let sharings: Vec<PedersenSharing> = (0..6)
            .map(|_| PedersenSharing::deal_random(&b, 2, &mut r))
            .collect();
        let checks: Vec<PedersenCheck<'_>> = sharings
            .iter()
            .enumerate()
            .map(|(i, s)| PedersenCheck {
                commitment: &s.commitment,
                share: s.share_for(i as u32 + 1),
            })
            .collect();
        assert!(pedersen_batch_verify(&b, &checks, &mut r));
    }

    #[test]
    fn empty_batch_accepts() {
        let mut r = rng();
        let b = bases(&mut r);
        assert!(pedersen_batch_verify(&b, &[], &mut r));
        assert!(pedersen_check_verdicts(&b, &[], &mut r).is_empty());
        let g = G1Projective::generator();
        assert!(feldman_batch_verify::<borndist_pairing::G1Params>(
            &g,
            &[],
            &mut r
        ));
    }

    #[test]
    fn feldman_batch_and_bisect() {
        let mut r = rng();
        let g = G1Projective::generator();
        let polys: Vec<Polynomial> = (0..10).map(|_| Polynomial::random(3, &mut r)).collect();
        let commitments: Vec<FeldmanCommitment<borndist_pairing::G1Params>> = polys
            .iter()
            .map(|p| FeldmanCommitment::commit(p, &g))
            .collect();
        let mut checks: Vec<FeldmanCheck<'_, _>> = polys
            .iter()
            .zip(commitments.iter())
            .map(|(p, c)| FeldmanCheck {
                commitment: c,
                index: 5,
                share: p.evaluate_at_index(5),
            })
            .collect();
        assert!(feldman_batch_verify(&g, &checks, &mut r));
        checks[3].share += Fr::one();
        checks[8].share -= Fr::one();
        assert!(!feldman_batch_verify(&g, &checks, &mut r));
        let verdicts = feldman_check_verdicts(&g, &checks, &mut r);
        for (i, v) in verdicts.iter().enumerate() {
            assert_eq!(*v, i != 3 && i != 8, "verdict {} wrong", i);
        }
    }
}
