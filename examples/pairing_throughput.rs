//! Pairing-engine gate: times the production optimal-ate engine against
//! the retained Tate reference on single pairings and on the scheme's
//! 4-pairing verification product, plus the prepared-argument replay
//! path (the `BENCH_pairing_engine.json` record; prose in
//! EXPERIMENTS.md).
//!
//! Floor: the ate engine is ≥ 3× the Tate reference on a single pairing.
//!
//! Run with: `cargo run --release --example pairing_throughput`

use borndist::pairing::{
    multi_pairing, multi_pairing_prepared, multi_pairing_tate, pairing, pairing_tate, Fr, G1Affine,
    G1Projective, G2Affine, G2Prepared, G2Projective, Gt,
};
use borndist_bench::gate::Record;
use rand::rngs::StdRng;
use rand::SeedableRng;

const REPS: usize = 3;
const ITERS: usize = 20;

/// Median-of-`REPS` milliseconds per call of `f` over `ITERS` calls.
fn per_call_ms(record: &mut Record, mut f: impl FnMut() -> Gt) -> f64 {
    let sample_ms = record.median_ms(REPS, || {
        for _ in 0..ITERS {
            assert!(!f().is_identity(), "measured pairing must be non-trivial");
        }
    });
    sample_ms / ITERS as f64
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0xA7E);
    let p = G1Projective::random(&mut rng).to_affine();
    let q = G2Projective::random(&mut rng).to_affine();
    let pairs: Vec<(G1Affine, G2Affine)> = (0..4)
        .map(|_| {
            (
                G1Projective::random(&mut rng).to_affine(),
                G2Projective::random(&mut rng).to_affine(),
            )
        })
        .collect();
    let refs: Vec<(&G1Affine, &G2Affine)> = pairs.iter().map(|(x, y)| (x, y)).collect();
    let preps: Vec<G2Prepared> = pairs.iter().map(|(_, y)| G2Prepared::new(y)).collect();
    let prepared: Vec<(&G1Affine, &G2Prepared)> = pairs
        .iter()
        .zip(preps.iter())
        .map(|((x, _), t)| (x, t))
        .collect();

    // Engine sanity before timing: both engines bilinear on a shared
    // statement (e(aP, Q) e(-aP, Q) = 1).
    let a = Fr::random(&mut rng);
    let ap = G1Projective::generator().mul(&a).to_affine();
    let nap = ap.neg();
    assert!(multi_pairing(&[(&ap, &q), (&nap, &q)]).is_identity());
    assert!(multi_pairing_tate(&[(&ap, &q), (&nap, &q)]).is_identity());

    let mut record = Record::new("pairing_engine");
    let ate_ms = per_call_ms(&mut record, || pairing(&p, &q));
    let tate_ms = per_call_ms(&mut record, || pairing_tate(&p, &q));
    let ate4_ms = per_call_ms(&mut record, || multi_pairing(&refs));
    let tate4_ms = per_call_ms(&mut record, || multi_pairing_tate(&refs));
    let prepared4_ms = per_call_ms(&mut record, || multi_pairing_prepared(&prepared));

    record
        .row("single_pairing", 1, ate_ms)
        .baseline(tate_ms)
        .floor(3.0, true);
    record.row("product_of_4", 4, ate4_ms).baseline(tate4_ms);
    // Baseline: the live ate product above.
    record
        .row("product_of_4_prepared", 4, prepared4_ms)
        .baseline(ate4_ms);
    record.finish();
}
