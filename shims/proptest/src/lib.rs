//! Offline stand-in for [`proptest`](https://proptest-rs.github.io/proptest/).
//!
//! The build environment has no crates.io access, so this crate provides
//! the subset of proptest the workspace's property tests use:
//!
//! * the [`Strategy`] trait (associated `Value`, `prop_map`);
//! * integer range strategies (`0usize..48`, `1u8..=255`, …), tuples of
//!   strategies, [`collection::vec`], [`collection::btree_set`],
//!   [`option::of`] and [`any`];
//! * the [`proptest!`] macro with `#![proptest_config(...)]` support and
//!   the `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` macros.
//!
//! Semantics differ from real proptest in two deliberate ways: inputs
//! are generated from a **deterministic** per-test seed (stable across
//! runs and machines — good for CI), and failing cases are **not
//! shrunk**; the panic message reports the case index instead.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 16 }
    }
}

/// A generator of random values of type `Self::Value`.
pub trait Strategy {
    /// The type of value this strategy generates.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn sample(&self, rng: &mut StdRng) -> S::Value {
        (**self).sample(rng)
    }
}

/// Uniform draw from `[0, span)`; modulo bias is irrelevant for tests.
fn draw_index(rng: &mut StdRng, span: u64) -> u64 {
    debug_assert!(span > 0);
    rng.next_u64() % span
}

macro_rules! int_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64) - (self.start as u64);
                self.start + draw_index(rng, span) as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut StdRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                // Wrapping: a full-domain u64/usize range has span 2^64,
                // which wraps to 0 (a plain `+ 1` would panic in debug).
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    // Full-domain u64 range: every draw is in range.
                    return rng.next_u64() as $t;
                }
                start + draw_index(rng, span) as $t
            }
        }
    )*};
}
int_range_strategies!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategies {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
tuple_strategies! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Types with a canonical strategy, used by [`any`].
pub trait Arbitrary: Sized {
    /// The canonical strategy for this type.
    fn arbitrary_sample(rng: &mut StdRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary_sample(rng: &mut StdRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary_sample(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for Vec<u8> {
    fn arbitrary_sample(rng: &mut StdRng) -> Vec<u8> {
        let len = (rng.next_u64() % 64) as usize;
        let mut buf = vec![0u8; len];
        rng.fill_bytes(&mut buf);
        buf
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary_sample(rng)
    }
}

/// The canonical strategy for `T`, like `proptest::arbitrary::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{draw_index, Strategy};
    use rand::rngs::StdRng;
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// Strategy producing `Vec`s, from [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = sample_size(&self.size, rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Generates `Vec`s with lengths in `size` and elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// Strategy producing `BTreeSet`s, from [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> BTreeSet<S::Value> {
            let target = sample_size(&self.size, rng);
            let mut set = BTreeSet::new();
            // Duplicates shrink the set below target; retry a bounded
            // number of times (the element domain may be tiny).
            let mut attempts = 0usize;
            while set.len() < target && attempts < 20 * target + 20 {
                set.insert(self.element.sample(rng));
                attempts += 1;
            }
            set
        }
    }

    /// Generates `BTreeSet`s with sizes in `size` (best effort when the
    /// element domain is smaller) and elements from `element`.
    pub fn btree_set<S: Strategy>(element: S, size: Range<usize>) -> BTreeSetStrategy<S> {
        BTreeSetStrategy { element, size }
    }

    fn sample_size(size: &Range<usize>, rng: &mut StdRng) -> usize {
        assert!(size.start < size.end, "empty size range");
        size.start + draw_index(rng, (size.end - size.start) as u64) as usize
    }
}

/// Option strategies (`proptest::option`).
pub mod option {
    use super::Strategy;
    use rand::rngs::StdRng;
    use rand::RngCore;

    /// Strategy producing `Option`s, from [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Option<S::Value> {
            // Bias toward Some, mirroring proptest's default weighting.
            if rng.next_u64().is_multiple_of(4) {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }

    /// Wraps a strategy to also produce `None` some of the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy,
    };
}

/// Deterministic per-(test, case) RNG. Public for the macros only.
#[doc(hidden)]
pub fn __case_rng(test_name: &str, case: u32) -> StdRng {
    // FNV-1a over the test name, mixed with the case index.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in test_name.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(hash ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(case as u64 + 1)))
}

/// Defines property tests: each `fn name(x in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over `cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$attr:meta])*
     fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$attr])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            for __case in 0..__config.cases {
                let mut __rng = $crate::__case_rng(stringify!($name), __case);
                $(let $arg = $crate::Strategy::sample(&($strategy), &mut __rng);)+
                let __run = ::std::panic::AssertUnwindSafe(|| { $body });
                if let ::std::result::Result::Err(__panic) =
                    ::std::panic::catch_unwind(__run)
                {
                    // No shrinking in this shim; the case index (inputs
                    // are deterministic per (test, case)) is the repro
                    // handle.
                    eprintln!(
                        "proptest shim: test `{}` failed on case {} of {}",
                        stringify!($name),
                        __case,
                        __config.cases,
                    );
                    ::std::panic::resume_unwind(__panic);
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// `assert!` inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = __case_rng("ranges", 0);
        for _ in 0..200 {
            let v = (3usize..7).sample(&mut rng);
            assert!((3..7).contains(&v));
            let w = (1u8..=255).sample(&mut rng);
            assert!(w >= 1);
        }
    }

    #[test]
    fn collections_respect_sizes() {
        let mut rng = __case_rng("collections", 1);
        for _ in 0..100 {
            let v = collection::vec(0u32..10, 2..5).sample(&mut rng);
            assert!((2..5).contains(&v.len()));
            let s = collection::btree_set(1u32..100, 2..6).sample(&mut rng);
            assert!(s.len() >= 2, "domain of 99 must reach target size");
        }
    }

    #[test]
    fn determinism_across_invocations() {
        let a = (0u64..u64::MAX).sample(&mut __case_rng("det", 3));
        let b = (0u64..u64::MAX).sample(&mut __case_rng("det", 3));
        assert_eq!(a, b);
    }

    #[test]
    fn full_domain_inclusive_ranges_do_not_overflow() {
        // Span of 0u64..=u64::MAX is 2^64: must wrap, not panic (debug).
        let mut rng = __case_rng("full", 0);
        let _ = (0u64..=u64::MAX).sample(&mut rng);
        let _ = (0usize..=usize::MAX).sample(&mut rng);
        let v = (0u8..=u8::MAX).sample(&mut rng);
        let _ = v; // full u8 domain is also fine (span 256 fits in u64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The macro itself: bindings, tuples, map, option.
        #[test]
        fn macro_smoke(x in any::<u64>(), pair in (0u32..5, any::<bool>()),
                       opt in crate::option::of(0usize..3)) {
            prop_assert!(pair.0 < 5);
            let _ = x;
            if let Some(v) = opt { prop_assert!(v < 3); }
            prop_assert_eq!(pair.0 as u64 * 2, pair.0 as u64 + pair.0 as u64);
            prop_assert_ne!(pair.0 + 1, pair.0);
        }
    }
}
