//! Thread-count scaling of the multi-core execution layer: the same
//! MSM / batch-verification workloads at 1, 2, 4 and 8 threads
//! (EXPERIMENTS.md, "Thread-count scaling").

use borndist_bench::bench_rng;
use borndist_core::ro::{PartialSignature, Signature, ThresholdScheme};
use borndist_pairing::{msm, Fr, G1Affine, G1Projective};
use borndist_parallel::{with_parallelism, Parallelism};
use borndist_shamir::ThresholdParams;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn setting(t: usize) -> Parallelism {
    if t == 1 {
        Parallelism::Sequential
    } else {
        Parallelism::Threads(t)
    }
}

/// `scalar` group: MSM window accumulation across thread counts.
fn bench_parallel_msm(c: &mut Criterion) {
    let mut rng = bench_rng();
    let n = 512usize;
    let bases: Vec<G1Affine> = (0..n)
        .map(|_| G1Projective::random(&mut rng).to_affine())
        .collect();
    let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();

    let mut g = c.benchmark_group("parallel_msm");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for t in THREADS {
        g.bench_function(BenchmarkId::new("g1_512", t), |b| {
            b.iter(|| with_parallelism(setting(t), || msm(&bases, &scalars)))
        });
    }
    g.finish();
}

/// `batch` group: the sharded 32-signature batch verification across
/// thread counts (Miller shards + parallel hashing + parallel MSM).
fn bench_parallel_batch_verify(c: &mut Criterion) {
    let mut rng = bench_rng();
    let scheme = ThresholdScheme::new(b"bench-parallel-batch");
    let km = scheme.dealer_keygen(ThresholdParams::new(2, 6).unwrap(), &mut rng);
    let k = 32usize;
    let msgs: Vec<Vec<u8>> = (0..k).map(|i| format!("pb {}", i).into_bytes()).collect();
    let sigs: Vec<Signature> = msgs
        .iter()
        .map(|m| {
            let partials: Vec<PartialSignature> = (1..=3u32)
                .map(|i| scheme.share_sign(&km.shares[&i], m))
                .collect();
            scheme.combine(&km.params, &partials).unwrap()
        })
        .collect();
    let items: Vec<(&[u8], &Signature)> = msgs
        .iter()
        .zip(sigs.iter())
        .map(|(m, s)| (m.as_slice(), s))
        .collect();

    let mut g = c.benchmark_group("parallel_batch_verify");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    for t in THREADS {
        g.bench_function(BenchmarkId::new("ro_32", t), |b| {
            let mut r = StdRng::seed_from_u64(t as u64);
            b.iter(|| {
                with_parallelism(setting(t), || {
                    assert!(scheme.batch_verify(&km.public_key, &items, &mut r))
                })
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_parallel_msm, bench_parallel_batch_verify);
criterion_main!(benches);
