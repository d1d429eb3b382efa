//! E3 — signing-path robustness under faults: the §3 scheme's
//! `combine_verified` (optimistic combine, `Share-Verify` fallback only
//! on failure, no extra round) against the additive-reshare baseline's
//! reconstruction round.
//!
//! `f` partial signatures are corrupted / `f` servers are absent.

use borndist_baselines::additive;
use borndist_bench::{bench_rng, ro_setup, MESSAGE};
use borndist_core::ro::PartialSignature;
use borndist_shamir::ThresholdParams;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

const T: usize = 3;
const N: usize = 8;

fn bench_faulty_signing(c: &mut Criterion) {
    let (scheme, km) = ro_setup(T, N);
    let mut rng = bench_rng();
    let params = ThresholdParams::new(T, N).unwrap();
    let akm = additive::keygen(params, &mut rng);

    let mut g = c.benchmark_group("e3_fault_tolerant_signing");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(5));

    for f in [0usize, 1, 3] {
        // §3: n partials arrive, f of them corrupted; the combiner
        // combines, and filters only if that fails — one logical round
        // regardless of f.
        let mut partials: Vec<PartialSignature> = (1..=N as u32)
            .map(|i| scheme.share_sign(&km.shares[&i], MESSAGE))
            .collect();
        for p in partials.iter_mut().take(f) {
            p.sig.z = p.sig.r; // corrupt
        }
        g.bench_with_input(BenchmarkId::new("ro_combine_verified", f), &f, |b, _| {
            b.iter(|| {
                scheme
                    .combine_verified(
                        &km.params,
                        &km.public_key,
                        &km.verification_keys,
                        MESSAGE,
                        &partials,
                    )
                    .unwrap()
            })
        });

        // Additive baseline: f servers absent; every absence triggers an
        // exponent-interpolation reconstruction from t+1 backups.
        g.bench_with_input(BenchmarkId::new("additive_with_faults", f), &f, |b, _| {
            b.iter(|| {
                let alive: Vec<u32> = (1..=N as u32).filter(|i| *i > f as u32).collect();
                let mut contributions: Vec<additive::AddContribution> = alive
                    .iter()
                    .map(|i| additive::contribute(&akm.players[i], MESSAGE))
                    .collect();
                for missing in 1..=f as u32 {
                    let backups: Vec<additive::BackupContribution> = alive[..T + 1]
                        .iter()
                        .map(|j| {
                            additive::backup_contribute(&akm.players[j], missing, MESSAGE).unwrap()
                        })
                        .collect();
                    contributions.push(additive::reconstruct_missing(&params, &backups).unwrap());
                }
                additive::combine(&akm, &contributions).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_faulty_signing);
criterion_main!(benches);
