//! E6 — `Combine` cost vs threshold `t`: Lagrange interpolation in the
//! exponent over `t+1` partial signatures (Pippenger MSM inside), and
//! the robust variants — per-share `Share-Verify` filtering vs the
//! `core::batch` batched pre-check (one shared four-pairing product for
//! all `t+1` shares).

use borndist_bench::{bench_rng, ro_setup, MESSAGE};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_combine(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_combine_vs_t");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    for t in [1usize, 2, 4, 8, 16, 32] {
        let n = 2 * t + 1;
        let (scheme, km) = ro_setup(t, n);
        let partials: Vec<_> = (1..=(t as u32 + 1))
            .map(|i| scheme.share_sign(&km.shares[&i], MESSAGE))
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, _| {
            b.iter(|| scheme.combine(&km.params, &partials).unwrap())
        });
    }
    g.finish();
}

/// Robust combine: the batched optimistic path vs per-share filtering,
/// all shares valid (the common case a serving combiner sees).
fn bench_robust_combine(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_robust_combine");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    let mut rng = bench_rng();
    for t in [2usize, 8] {
        let n = 2 * t + 1;
        let (scheme, km) = ro_setup(t, n);
        let partials: Vec<_> = (1..=(t as u32 + 1))
            .map(|i| scheme.share_sign(&km.shares[&i], MESSAGE))
            .collect();
        g.bench_with_input(BenchmarkId::new("per_share_verified", t), &t, |b, _| {
            b.iter(|| {
                scheme
                    .combine_verified(&km.params, &km.verification_keys, MESSAGE, &partials)
                    .unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("batch_verified", t), &t, |b, _| {
            b.iter(|| {
                scheme
                    .combine_batch_verified(
                        &km.params,
                        &km.verification_keys,
                        MESSAGE,
                        &partials,
                        &mut rng,
                    )
                    .unwrap()
            })
        });
        // The per-share filter over prepared keys built once by the
        // combiner (the pessimistic path after a batch rejection).
        let prepared_vks = km.prepare_verification_keys();
        g.bench_with_input(BenchmarkId::new("per_share_prepared", t), &t, |b, _| {
            b.iter(|| {
                scheme
                    .combine_verified_prepared(&km.params, &prepared_vks, MESSAGE, &partials)
                    .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_combine, bench_robust_combine);
criterion_main!(benches);
