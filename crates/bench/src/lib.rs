//! Shared helpers for the benchmark suite.
//!
//! Each bench target regenerates one experiment from the index in
//! DESIGN.md §3 (the paper has no numbered tables/figures; its
//! quantitative claims are mapped to experiments E1–E13 there).

use borndist_core::ro::{KeyMaterial, ThresholdScheme};
use borndist_shamir::ThresholdParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod gate;

/// Deterministic RNG for reproducible benchmark inputs.
pub fn bench_rng() -> StdRng {
    StdRng::seed_from_u64(0xBE7C)
}

/// Standard §3 scheme + dealer key material for signing-path benches
/// (dealer keygen so the DKG cost is excluded — it has its own bench).
pub fn ro_setup(t: usize, n: usize) -> (ThresholdScheme, KeyMaterial) {
    let scheme = ThresholdScheme::new(b"bench");
    let mut rng = bench_rng();
    let km = scheme.dealer_keygen(ThresholdParams::new(t, n).unwrap(), &mut rng);
    (scheme, km)
}

/// The benchmark message.
pub const MESSAGE: &[u8] = b"benchmark message: reproduce the paper";
