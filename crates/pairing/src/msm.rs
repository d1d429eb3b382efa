//! Multi-scalar multiplication (Pippenger's bucket algorithm).
//!
//! Used to accelerate the `Combine` step of all threshold schemes
//! (Lagrange interpolation in the exponent, experiment E6), the public
//! computation of verification keys from broadcast commitments, and the
//! random-weight combinations of [`borndist-core`]'s batch verification.

use crate::curve::{Affine, CurveParams, Projective};
use crate::fr::Fr;

/// Window width (bits) for an input of `n >= 4` points.
///
/// Inputs shorter than 4 never reach the bucket method — [`msm`] handles
/// them with naive per-point multiplication first — so every arm here is
/// reachable (the pre-fix table started at `0..=15`, leaving its first
/// arm partially dead behind that fallback). Thresholds follow the usual
/// `n ≈ 2^w` heuristic balancing `256/w` window passes against `2^w - 1`
/// buckets per pass; `window_table_is_reachable_and_monotone` and the
/// `matches_naive_*` tests cover every arm.
pub(crate) fn window_size(n: usize) -> usize {
    match n {
        0..=3 => unreachable!("inputs below 4 points take the naive fallback"),
        4..=15 => 3,
        16..=127 => 5,
        128..=1023 => 8,
        _ => 11,
    }
}

/// Inputs below this length never parallelize: a window pass over a
/// handful of points finishes faster than a thread spawns.
const PAR_MIN_POINTS: usize = 32;

/// The bucket accumulation of one window: `Σ_j j·bucket[j]` over the
/// `window`-bit digits starting at bit `lo`. A pure function of the
/// input, so windows can be computed sequentially or in parallel with
/// bit-identical results.
fn window_sum<C: CurveParams>(
    bases: &[Affine<C>],
    bits: &[[u64; 4]],
    lo: usize,
    window: usize,
) -> Projective<C> {
    let bucket_count = (1usize << window) - 1;
    let mut buckets = vec![Projective::<C>::identity(); bucket_count];
    for (base, limbs) in bases.iter().zip(bits.iter()) {
        let idx = extract_bits(limbs, lo, window);
        if idx > 0 {
            buckets[idx - 1] = buckets[idx - 1].add_affine(base);
        }
    }
    // Collapse the buckets into Σ_j j·bucket[j] by suffix sums, in
    // projective coordinates. Normalizing the buckets to affine first
    // (one `batch_invert` per window, mixed adds after) was measured
    // strictly slower at every input size on this substrate — one
    // Fermat inversion (~380 field mults) per window never amortizes
    // over at most 255 buckets saving ~5 mults each — so batched
    // inversion is reserved for the paths where it wins
    // (`batch_to_affine`, fixed-base table construction).
    let mut running = Projective::identity();
    let mut sum = Projective::identity();
    for b in buckets.iter().rev() {
        running += *b;
        sum += running;
    }
    sum
}

/// Computes `Σ scalars[i] · bases[i]` over any of the curve groups.
///
/// Uses a windowed bucket method with a window size chosen from the input
/// length; falls back to naive (wNAF) per-point multiplication for very
/// small inputs. The per-window bucket accumulations are independent, so
/// for inputs of `PAR_MIN_POINTS` or more points they run across the
/// configured threads ([`borndist_parallel::current`]); the cheap Horner
/// fold over the window sums (doublings plus one addition per window) is
/// identical either way, so the result does not depend on the thread
/// count.
///
/// # Panics
///
/// Panics if `bases` and `scalars` have different lengths.
pub fn msm<C: CurveParams>(bases: &[Affine<C>], scalars: &[Fr]) -> Projective<C> {
    assert_eq!(
        bases.len(),
        scalars.len(),
        "msm requires equal-length inputs"
    );
    if bases.is_empty() {
        return Projective::identity();
    }
    if bases.len() < 4 {
        let mut acc = Projective::identity();
        for (b, s) in bases.iter().zip(scalars.iter()) {
            acc += b.mul(s);
        }
        return acc;
    }

    // GLV/GLS expansion: trade each point for `dims` endomorphism images
    // with sub-scalars of `endo_sub_bits()` bits, shrinking the doubling
    // chain (and the number of window passes) by the same factor. A
    // negative sub-scalar negates the image instead (one `Fp` negation).
    let dims = C::endo_dimensions();
    if dims > 1 {
        let mut exp_bases = Vec::with_capacity(bases.len() * dims);
        let mut exp_bits = Vec::with_capacity(bases.len() * dims);
        for (base, scalar) in bases.iter().zip(scalars.iter()) {
            let dec = C::endo_decompose(scalar).expect("dims > 1 implies a decomposition");
            for (i, part) in dec.parts[..dec.len].iter().enumerate() {
                if part.limbs == [0; 3] {
                    continue;
                }
                let image = C::endo_affine(base, i);
                exp_bases.push(if part.negative { image.neg() } else { image });
                exp_bits.push([part.limbs[0], part.limbs[1], part.limbs[2], 0]);
            }
        }
        return msm_bucketed(&exp_bases, &exp_bits, C::endo_sub_bits());
    }

    let bits: Vec<[u64; 4]> = scalars.iter().map(|s| s.to_le_bits()).collect();
    msm_bucketed(bases, &bits, 256)
}

/// The windowed bucket core shared by the direct and endo-expanded
/// paths: `Σ bits[i]·bases[i]` where each `bits[i]` is a little-endian
/// integer of at most `total_bits` bits.
fn msm_bucketed<C: CurveParams>(
    bases: &[Affine<C>],
    bits: &[[u64; 4]],
    total_bits: usize,
) -> Projective<C> {
    if bases.is_empty() {
        return Projective::identity();
    }
    let window = window_size(bases.len().max(4));
    let num_windows = total_bits.div_ceil(window);

    let windows: Vec<usize> = (0..num_windows).collect();
    let compute = |w: &usize| window_sum(bases, bits, *w * window, window);
    let sums: Vec<Projective<C>> =
        if bases.len() >= PAR_MIN_POINTS && borndist_parallel::current_threads() > 1 {
            borndist_parallel::par_map(&windows, compute)
        } else {
            windows.iter().map(compute).collect()
        };

    let mut result = Projective::identity();
    for w in (0..num_windows).rev() {
        for _ in 0..window {
            result = result.double();
        }
        result += sums[w];
    }
    result
}

/// Extracts `count` bits of a 256-bit little-endian integer starting at
/// bit `lo` (values past bit 255 read as zero). Shared with the
/// fixed-base tables in [`crate::precompute`].
pub(crate) fn extract_bits(limbs: &[u64; 4], lo: usize, count: usize) -> usize {
    let mut out = 0usize;
    for i in 0..count {
        let bit = lo + i;
        if bit >= 256 {
            break;
        }
        let b = (limbs[bit / 64] >> (bit % 64)) & 1;
        out |= (b as usize) << i;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::{G1Projective, G2Projective};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x3533)
    }

    fn naive<C: CurveParams>(bases: &[Affine<C>], scalars: &[Fr]) -> Projective<C> {
        let mut acc = Projective::identity();
        for (b, s) in bases.iter().zip(scalars.iter()) {
            acc += b.to_projective().mul_schoolbook(&s.to_le_bits());
        }
        acc
    }

    #[test]
    fn empty_is_identity() {
        let out: G1Projective = msm::<crate::curve::G1Params>(&[], &[]);
        assert!(out.is_identity());
    }

    #[test]
    fn window_table_is_reachable_and_monotone() {
        // Smallest bucketed input hits the 3-bit arm (the arm that was
        // dead when the naive fallback overlapped the first range).
        assert_eq!(window_size(4), 3);
        assert_eq!(window_size(15), 3);
        assert_eq!(window_size(16), 5);
        assert_eq!(window_size(127), 5);
        assert_eq!(window_size(128), 8);
        assert_eq!(window_size(1023), 8);
        assert_eq!(window_size(1024), 11);
        assert_eq!(window_size(1 << 20), 11);
        for n in 4..=2048usize {
            assert!(window_size(n) <= window_size(n + 1), "monotone at {}", n);
        }
    }

    #[test]
    fn matches_naive_small() {
        let mut r = rng();
        // n = 4 is the first input through the bucket path (3-bit
        // window); n < 4 exercises the naive fallback.
        for n in [1usize, 2, 3, 4, 5, 8, 15] {
            let bases: Vec<_> = (0..n)
                .map(|_| G1Projective::random(&mut r).to_affine())
                .collect();
            let scalars: Vec<_> = (0..n).map(|_| Fr::random(&mut r)).collect();
            assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars), "n={}", n);
        }
    }

    #[test]
    fn matches_naive_medium() {
        let mut r = rng();
        let n = 40;
        let bases: Vec<_> = (0..n)
            .map(|_| G1Projective::random(&mut r).to_affine())
            .collect();
        let scalars: Vec<_> = (0..n).map(|_| Fr::random(&mut r)).collect();
        assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars));
    }

    #[test]
    fn works_on_g2() {
        let mut r = rng();
        let n = 6;
        let bases: Vec<_> = (0..n)
            .map(|_| G2Projective::random(&mut r).to_affine())
            .collect();
        let scalars: Vec<_> = (0..n).map(|_| Fr::random(&mut r)).collect();
        assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars));
    }

    #[test]
    fn zero_scalars_and_identity_bases() {
        let mut r = rng();
        let bases = vec![
            G1Projective::random(&mut r).to_affine(),
            crate::curve::G1Affine::identity(),
            G1Projective::random(&mut r).to_affine(),
            G1Projective::random(&mut r).to_affine(),
            G1Projective::random(&mut r).to_affine(),
        ];
        let scalars = vec![
            Fr::zero(),
            Fr::random(&mut r),
            Fr::one(),
            Fr::random(&mut r),
            Fr::zero(),
        ];
        assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars));
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn length_mismatch_panics() {
        let bases = vec![crate::curve::G1Affine::generator()];
        let scalars: Vec<Fr> = vec![];
        let _ = msm(&bases, &scalars);
    }
}
