//! E6 — `Combine` cost vs threshold `t`: Lagrange interpolation in the
//! exponent over `t+1` partial signatures (Pippenger MSM inside), and
//! the robust `combine_verified` — one `Verify` of the combined
//! signature when every share is valid, plus the `Share-Verify`
//! fallback and a recombine when one is forged.

use borndist_bench::{ro_setup, MESSAGE};
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

/// Robust combine over `t+1` partials: all valid (the common case a
/// serving combiner sees) and with one forged among them.
fn bench_robust_combine(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_robust_combine");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    for t in [2usize, 8] {
        let n = 2 * t + 1;
        let (scheme, km) = ro_setup(t, n);
        let honest: Vec<_> = (1..=(t as u32 + 2))
            .map(|i| scheme.share_sign(&km.shares[&i], MESSAGE))
            .collect();
        let mut forged = honest.clone();
        forged[0].sig.z = forged[0].sig.r;
        for (name, partials) in [("honest", &honest[..=t]), ("one_forger", &forged[..])] {
            g.bench_with_input(BenchmarkId::new(name, t), &t, |b, _| {
                b.iter(|| {
                    scheme
                        .combine_verified(
                            &km.params,
                            &km.public_key,
                            &km.verification_keys,
                            MESSAGE,
                            partials,
                        )
                        .unwrap()
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_combine, bench_robust_combine);
criterion_main!(benches);
