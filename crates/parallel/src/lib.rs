//! # borndist-parallel
//!
//! A zero-dependency multi-core execution layer for the workspace's
//! embarrassingly parallel hot paths (DESIGN.md §2 "Parallel
//! execution"): batch verification shards, MSM window accumulation,
//! batched affine normalization, fixed-base table construction, and
//! per-dealing DKG share checks.
//!
//! ## Design
//!
//! * **Scoped threads, no pool state.** Work is fanned out with
//!   [`std::thread::scope`]: threads are spawned per call and joined
//!   before the call returns, so closures may borrow from the caller's
//!   stack and no global executor, channel, or shutdown protocol exists.
//!   The spawn cost (~10 µs per thread on Linux) is noise against the
//!   millisecond-scale pairing/MSM workloads this crate shards; a
//!   persistent pool (or a rayon shim) would buy nothing but state.
//! * **Determinism by construction.** [`par_map`] and [`par_chunks`]
//!   split their input into *contiguous, ordered* chunks and return
//!   results in input order. Every call site in the workspace either
//!   maps a pure per-item function (identical results trivially) or
//!   folds chunk results with exact field arithmetic (identical values
//!   by associativity, hence identical canonical encodings), so outputs
//!   are **bit-identical for every thread count** — the
//!   `tests/parallel_invariance.rs` suite enforces this.
//! * **No nested oversubscription.** While a worker closure runs, the
//!   calling thread's parallelism is forced to [`Parallelism::Sequential`]
//!   (thread-local), so a parallel MSM inside a parallel batch shard
//!   does not spawn threads of its own.
//!
//! ## Configuration
//!
//! The effective setting is resolved in order:
//!
//! 1. a scoped [`with_parallelism`] override (thread-local; what the
//!    tests and benches use),
//! 2. the `BORNDIST_THREADS` environment variable, read once per
//!    process (`1` forces [`Parallelism::Sequential`], `k` means
//!    [`Parallelism::Threads`]`(k)`, `0`/`auto` mean
//!    [`Parallelism::Auto`]),
//! 3. [`Parallelism::Auto`] ([`std::thread::available_parallelism`]).

use std::cell::Cell;
use std::sync::OnceLock;

/// How many worker threads the parallel primitives may use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parallelism {
    /// Degrade every primitive to plain sequential iteration (the
    /// reference behavior; bit-identical to every other setting).
    Sequential,
    /// Use up to this many threads (including the calling thread).
    /// `Threads(0)` and `Threads(1)` behave like [`Self::Sequential`].
    Threads(usize),
    /// Use [`std::thread::available_parallelism`] threads.
    Auto,
}

impl Parallelism {
    /// The thread budget this setting resolves to (always ≥ 1).
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Parses the `BORNDIST_THREADS` environment variable; `None` when
    /// unset or empty.
    ///
    /// # Panics
    ///
    /// Panics on an unparseable non-empty value. Silently falling back
    /// to [`Parallelism::Auto`] would be invisible — results are
    /// bit-identical at every thread count by design, so a typo'd
    /// `BORNDIST_THREADS=sequential` would otherwise *appear* to work
    /// while testing the wrong configuration.
    pub fn from_env() -> Option<Parallelism> {
        let raw = std::env::var("BORNDIST_THREADS").ok()?;
        match raw.trim() {
            "" => None,
            "auto" | "0" => Some(Parallelism::Auto),
            "1" => Some(Parallelism::Sequential),
            n => match n.parse::<usize>() {
                Ok(k) => Some(Parallelism::Threads(k)),
                Err(_) => panic!(
                    "BORNDIST_THREADS={:?} is not a thread count (expected a number, \"auto\", or unset)",
                    raw
                ),
            },
        }
    }
}

static ENV_DEFAULT: OnceLock<Option<Parallelism>> = OnceLock::new();

thread_local! {
    static OVERRIDE: Cell<Option<Parallelism>> = const { Cell::new(None) };
}

/// The parallelism in effect on the calling thread.
pub fn current() -> Parallelism {
    if let Some(p) = OVERRIDE.with(Cell::get) {
        return p;
    }
    ENV_DEFAULT
        .get_or_init(Parallelism::from_env)
        .unwrap_or(Parallelism::Auto)
}

/// The thread budget in effect on the calling thread (always ≥ 1).
pub fn current_threads() -> usize {
    current().threads()
}

/// Runs `f` with `p` as the calling thread's parallelism, restoring the
/// previous setting afterwards (also on unwind). This is the race-free
/// way to pin a setting in tests and benches.
pub fn with_parallelism<R>(p: Parallelism, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Parallelism>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(OVERRIDE.with(|c| c.replace(Some(p))));
    f()
}

/// Balanced contiguous split points: `k` chunks covering `0..len` whose
/// sizes differ by at most one. This is the single source of truth for
/// how every primitive (and the pairing crate's Miller-loop sharding)
/// splits work, so the contiguity/balance invariant cannot drift
/// between call sites.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn chunk_bounds(len: usize, k: usize) -> Vec<(usize, usize)> {
    assert!(k > 0, "chunk_bounds requires at least one chunk");
    let base = len / k;
    let rem = len % k;
    let mut bounds = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let end = start + base + usize::from(i < rem);
        bounds.push((start, end));
        start = end;
    }
    bounds
}

/// Fans `f` out over balanced contiguous index ranges of `0..len` — at
/// most [`current_threads`] ranges, never smaller than `min_chunk` —
/// returning results in range order. The shared spawn/join body behind
/// [`par_chunks`] and [`par_map_indexed`]; degrades to one call over
/// the full range when the budget is a single thread.
fn par_ranges<R, F>(len: usize, min_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let min_chunk = min_chunk.max(1);
    let k = current_threads()
        .min(len / min_chunk)
        .max(1)
        .min(len.max(1));
    if k <= 1 {
        return vec![f(0, len)];
    }
    let bounds = chunk_bounds(len, k);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = bounds[1..]
            .iter()
            .map(|&(a, b)| {
                scope.spawn(move || with_parallelism(Parallelism::Sequential, || f(a, b)))
            })
            .collect();
        let (a0, b0) = bounds[0];
        let first = with_parallelism(Parallelism::Sequential, || f(a0, b0));
        let mut out = Vec::with_capacity(k);
        out.push(first);
        for h in handles {
            // A panicking worker propagates: matches the sequential
            // behavior of the same panic occurring inline.
            out.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

/// Applies `f` to `k` balanced contiguous chunks of `items` — at most
/// [`current_threads`] of them, and never smaller than `min_chunk`
/// items — returning the chunk results **in input order**. Degrades to
/// one sequential call when the budget is 1 thread (or the input is too
/// small to split), so results never depend on the thread count for
/// per-chunk functions whose chunked evaluation is exact (see the
/// module docs).
///
/// Worker closures run with their thread's parallelism forced to
/// [`Parallelism::Sequential`], so nested primitives do not spawn.
pub fn par_chunks<T, R, F>(items: &[T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    par_ranges(items.len(), min_chunk, |a, b| f(&items[a..b]))
}

/// Maps `f` over `items` on up to [`current_threads`] threads, returning
/// the results in input order. The per-item function must be pure for
/// result determinism (every call site in this workspace is).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, |_, t| f(t))
}

/// [`par_map`] whose closure also receives the item's index — for call
/// sites that combine each item with positional companion data (e.g.
/// the batching weight `ρ_i`) without allocating an index vector.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if current_threads() <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunked = par_ranges(items.len(), 1, |a, b| {
        items[a..b]
            .iter()
            .enumerate()
            .map(|(j, t)| f(a + j, t))
            .collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for c in chunked {
        out.extend(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_resolution() {
        assert_eq!(Parallelism::Sequential.threads(), 1);
        assert_eq!(Parallelism::Threads(0).threads(), 1);
        assert_eq!(Parallelism::Threads(7).threads(), 7);
        assert!(Parallelism::Auto.threads() >= 1);
    }

    #[test]
    fn chunk_bounds_are_balanced_and_cover() {
        for (len, k) in [(10usize, 3usize), (7, 7), (16, 4), (5, 2), (1, 1)] {
            let b = chunk_bounds(len, k);
            assert_eq!(b.len(), k);
            assert_eq!(b[0].0, 0);
            assert_eq!(b[k - 1].1, len);
            for w in b.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            let sizes: Vec<usize> = b.iter().map(|(a, c)| c - a).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced split {:?}", sizes);
        }
    }

    #[test]
    fn par_map_preserves_order_for_every_thread_count() {
        let items: Vec<u64> = (0..101).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for p in [
            Parallelism::Sequential,
            Parallelism::Threads(2),
            Parallelism::Threads(7),
            Parallelism::Threads(200),
            Parallelism::Auto,
        ] {
            let got = with_parallelism(p, || par_map(&items, |x| x * x + 1));
            assert_eq!(got, expect, "under {:?}", p);
        }
    }

    #[test]
    fn par_chunks_respects_min_chunk_and_order() {
        let items: Vec<usize> = (0..40).collect();
        let sums = with_parallelism(Parallelism::Threads(8), || {
            par_chunks(&items, 10, |c| c.iter().sum::<usize>())
        });
        // 40 items / min_chunk 10 caps the fan-out at 4 chunks.
        assert_eq!(sums.len(), 4);
        assert_eq!(sums.iter().sum::<usize>(), items.iter().sum::<usize>());
        // Too small to split: one chunk regardless of budget.
        let one = with_parallelism(Parallelism::Threads(8), || {
            par_chunks(&items[..5], 10, |c| c.len())
        });
        assert_eq!(one, vec![5]);
        // Empty input: one call on the empty slice (mirrors sequential).
        let empty = par_chunks(&items[..0], 1, |c| c.len());
        assert_eq!(empty, vec![0]);
    }

    #[test]
    fn workers_run_sequentially_inside() {
        let items = [0usize; 6];
        let nested = with_parallelism(Parallelism::Threads(3), || {
            par_chunks(&items, 1, |_| current_threads())
        });
        assert!(
            nested.iter().all(|&t| t == 1),
            "nested parallelism must be suppressed, got {:?}",
            nested
        );
    }

    #[test]
    fn with_parallelism_restores_on_exit_and_unwind() {
        // An outer override pins this thread's baseline, so the test
        // does not depend on `BORNDIST_THREADS` (the thread-local layer
        // always wins over the environment).
        with_parallelism(Parallelism::Threads(4), || {
            with_parallelism(Parallelism::Threads(5), || {
                assert_eq!(current(), Parallelism::Threads(5));
                with_parallelism(Parallelism::Sequential, || {
                    assert_eq!(current(), Parallelism::Sequential);
                });
                assert_eq!(current(), Parallelism::Threads(5));
            });
            assert_eq!(current(), Parallelism::Threads(4));
            let unwound = std::panic::catch_unwind(|| {
                with_parallelism(Parallelism::Threads(9), || panic!("boom"))
            });
            assert!(unwound.is_err());
            assert_eq!(current(), Parallelism::Threads(4));
        });
    }

    #[test]
    fn par_map_indexed_passes_true_indices() {
        let items: Vec<u64> = (100..164).collect();
        for p in [
            Parallelism::Sequential,
            Parallelism::Threads(3),
            Parallelism::Threads(64),
        ] {
            let got = with_parallelism(p, || par_map_indexed(&items, |i, x| (i, *x)));
            for (i, (idx, x)) in got.iter().enumerate() {
                assert_eq!(*idx, i, "index under {:?}", p);
                assert_eq!(*x, items[i]);
            }
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..8).collect();
        let r = std::panic::catch_unwind(|| {
            with_parallelism(Parallelism::Threads(4), || {
                par_map(&items, |x| {
                    assert!(*x != 6, "injected");
                    *x
                })
            })
        });
        assert!(r.is_err());
    }
}
