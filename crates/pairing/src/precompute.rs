//! Fixed-base scalar-multiplication tables.
//!
//! A [`FixedBaseTable`] trades memory for speed on bases that are
//! multiplied by many different scalars over their lifetime: the two
//! curve generators, the per-scheme signing base `g` of the §4
//! standard-model scheme, and long-lived public keys. The table stores
//! every multiple `j·2^(4w)·B` aligned to a 4-bit window in affine form
//! (normalized with one batched inversion at build time), so a 255-bit
//! scalar multiplication becomes ~64 *mixed additions and zero
//! doublings* — roughly a 4–6× speedup over the wNAF variable-base path,
//! which itself beats the schoolbook ladder. On the two curve groups the
//! table additionally exploits the GLV/GLS decomposition: it stores only
//! the sub-scalar window range (33 windows for `G1`, 16 for `G2`) and
//! reaches the remaining dimensions by applying the endomorphism to the
//! looked-up entries, shrinking build time and memory 2–4× at unchanged
//! multiplication cost.
//!
//! Equivalence with the schoolbook slow path is enforced by property
//! tests (`tests/scalar_mul_properties.rs`), including the edge scalars
//! `0`, `1` and `r - 1` and the identity base.
//!
//! The process-wide generator tables are built lazily on first use and
//! shared: [`g1_generator_table`] / [`g2_generator_table`], with the
//! convenience wrappers [`mul_g1_generator`] / [`mul_g2_generator`].

use crate::curve::{Affine, CurveParams, G1Params, G2Params, Projective};
use crate::fr::Fr;
use crate::msm::extract_bits;
use crate::pairing::G2Prepared;
use std::sync::OnceLock;

/// Window width of every table. On a curve without endomorphism
/// acceleration that is 64 windows of 15 entries; with GLV/GLS
/// decomposition the table only spans the sub-scalar range — 33 windows
/// (~23 KiB) in `G1`, 16 windows (~45 KiB) in `G2` — at the same per-mul
/// cost, since the missing windows are reached through the endomorphism
/// instead of storage.
const WINDOW: usize = 4;

/// Precomputed window tables for one fixed base point.
///
/// `tables[w][j - 1] = j · 2^(w·WINDOW) · B` for `j in 1..2^WINDOW`
/// (`WINDOW` = 4 bits).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixedBaseTable<C: CurveParams> {
    tables: Vec<Vec<Affine<C>>>,
    base: Affine<C>,
}

/// Fixed-base table over `G1`.
pub type G1Table = FixedBaseTable<G1Params>;
/// Fixed-base table over `G2`.
pub type G2Table = FixedBaseTable<G2Params>;

impl<C: CurveParams> FixedBaseTable<C> {
    /// Builds the table for `base`.
    ///
    /// Construction costs one pass of `2^WINDOW`-spaced additions
    /// (~`2^WINDOW · 256/WINDOW` group additions) plus batched
    /// inversion; amortized over many multiplications of the same base.
    /// With more than one thread configured
    /// ([`borndist_parallel::current`]), a short doubling ladder derives
    /// the window bases `2^(w·WINDOW)·B` up front and the per-window
    /// fills run in parallel; sequentially, the classic addition chain
    /// (each window's last addition is the next window's base) is kept,
    /// costing zero extra group operations. The stored points are
    /// affine (canonical coordinates), so both paths build the
    /// identical table — enforced by `tests/parallel_invariance.rs`.
    pub fn new(base: &Projective<C>) -> Self {
        // With a decomposition the table only has to cover one
        // sub-scalar; [`Self::mul`] reaches the other dimensions by
        // applying the endomorphism to the looked-up entries.
        let total_bits = if C::endo_dimensions() > 1 {
            C::endo_sub_bits()
        } else {
            256
        };
        let num_windows = total_bits.div_ceil(WINDOW);
        let entries = (1usize << WINDOW) - 1;
        let mut flat: Vec<Projective<C>> = Vec::with_capacity(num_windows * entries);
        if borndist_parallel::current_threads() <= 1 {
            // Sequential: `window_base` walks through 2^(w·WINDOW)·B —
            // each window's final addition *is* the next window's base,
            // so the chain costs no extra group operations.
            let mut window_base = *base;
            for _ in 0..num_windows {
                let mut cur = window_base;
                for _ in 0..entries {
                    flat.push(cur);
                    cur = cur.add(&window_base);
                }
                // After `entries` additions, cur = 2^WINDOW · window_base.
                window_base = cur;
            }
        } else {
            // Parallel: a short serial doubling ladder derives every
            // window base up front (256 doublings — noise against the
            // ~entries·num_windows additions it unlocks), then each
            // window's multiples fill independently across threads.
            let mut window_bases = Vec::with_capacity(num_windows);
            let mut wb = *base;
            for _ in 0..num_windows {
                window_bases.push(wb);
                for _ in 0..WINDOW {
                    wb = wb.double();
                }
            }
            let per_window: Vec<Vec<Projective<C>>> =
                borndist_parallel::par_map(&window_bases, |window_base| {
                    let mut col = Vec::with_capacity(entries);
                    let mut cur = *window_base;
                    for _ in 0..entries {
                        col.push(cur);
                        cur = cur.add(window_base);
                    }
                    col
                });
            for col in per_window {
                flat.extend(col);
            }
        }
        let flat = Projective::batch_to_affine(&flat);
        FixedBaseTable {
            tables: flat.chunks(entries).map(<[_]>::to_vec).collect(),
            base: base.to_affine(),
        }
    }

    /// The base point this table multiplies.
    pub fn base(&self) -> Affine<C> {
        self.base
    }

    /// Fixed-base scalar multiplication: `scalar · base` using only
    /// table lookups and mixed additions (no doublings). On a curve with
    /// GLV/GLS the scalar is decomposed and each sub-scalar walks the
    /// (shorter) table with the matching endomorphism power applied to
    /// every looked-up entry — the total addition count is unchanged but
    /// the table is 2–4× smaller.
    pub fn mul(&self, scalar: &Fr) -> Projective<C> {
        if let Some(dec) = C::endo_decompose(scalar) {
            let mut acc = Projective::identity();
            for (i, part) in dec.parts[..dec.len].iter().enumerate() {
                let limbs = [part.limbs[0], part.limbs[1], part.limbs[2], 0];
                for (w, table) in self.tables.iter().enumerate() {
                    let idx = extract_bits(&limbs, w * WINDOW, WINDOW);
                    if idx > 0 {
                        let mut entry = C::endo_affine(&table[idx - 1], i);
                        if part.negative {
                            entry = entry.neg();
                        }
                        acc = acc.add_affine(&entry);
                    }
                }
            }
            return acc;
        }
        let limbs = scalar.to_le_bits();
        let mut acc = Projective::identity();
        for (w, table) in self.tables.iter().enumerate() {
            let idx = extract_bits(&limbs, w * WINDOW, WINDOW);
            if idx > 0 {
                acc = acc.add_affine(&table[idx - 1]);
            }
        }
        acc
    }
}

/// The shared fixed-base table for the `G1` generator (built on first
/// use, then reused process-wide).
pub fn g1_generator_table() -> &'static G1Table {
    static TABLE: OnceLock<G1Table> = OnceLock::new();
    TABLE.get_or_init(|| FixedBaseTable::new(&Projective::generator()))
}

/// The shared fixed-base table for the `G2` generator.
pub fn g2_generator_table() -> &'static G2Table {
    static TABLE: OnceLock<G2Table> = OnceLock::new();
    TABLE.get_or_init(|| FixedBaseTable::new(&Projective::generator()))
}

/// The shared [`G2Prepared`] form of the `G2` generator: Miller line
/// coefficients cached once per process, so every pairing against `g2`
/// (e.g. `e(g1, g2)`-style sanity equations) skips all `Fp2` point
/// arithmetic — the pairing analogue of the fixed-base tables above.
pub fn g2_generator_prepared() -> &'static G2Prepared {
    static PREP: OnceLock<G2Prepared> = OnceLock::new();
    PREP.get_or_init(|| G2Prepared::new(&Affine::generator()))
}

/// `scalar · g1` through the shared generator table.
pub fn mul_g1_generator(scalar: &Fr) -> Projective<G1Params> {
    g1_generator_table().mul(scalar)
}

/// `scalar · g2` through the shared generator table.
pub fn mul_g2_generator(scalar: &Fr) -> Projective<G2Params> {
    g2_generator_table().mul(scalar)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::{G1Projective, G2Projective};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xf1ba)
    }

    #[test]
    fn generator_tables_match_generic_mul() {
        let mut r = rng();
        for _ in 0..4 {
            let s = Fr::random(&mut r);
            assert_eq!(mul_g1_generator(&s), G1Projective::generator().mul(&s));
            assert_eq!(mul_g2_generator(&s), G2Projective::generator().mul(&s));
        }
    }

    #[test]
    fn arbitrary_base_and_windows() {
        let mut r = rng();
        let base = G1Projective::random(&mut r);
        let s = Fr::random(&mut r);
        let table = FixedBaseTable::new(&base);
        assert_eq!(table.mul(&s), base.mul(&s));
    }

    #[test]
    fn shared_prepared_generator_matches_fresh() {
        assert_eq!(
            *g2_generator_prepared(),
            G2Prepared::new(&crate::curve::G2Affine::generator())
        );
    }

    #[test]
    fn identity_base_and_edge_scalars() {
        let table = FixedBaseTable::new(&G1Projective::identity());
        let mut r = rng();
        assert!(table.mul(&Fr::random(&mut r)).is_identity());
        let gen = g1_generator_table();
        assert!(gen.mul(&Fr::zero()).is_identity());
        assert_eq!(gen.mul(&Fr::one()), G1Projective::generator());
        assert_eq!(gen.base(), G1Projective::generator().to_affine());
    }
}
