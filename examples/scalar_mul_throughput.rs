//! Scalar-multiplication kernel measurement (the acceptance gauge for
//! the GLV/GLS + lazy-reduction pass, ROADMAP item 2): times the three
//! variable-base ladders — schoolbook double-and-add, width-4 wNAF, and
//! the endomorphism-decomposed joint ladder behind `Projective::mul` —
//! on both curve groups, cross-checks that all three agree on every
//! input, and prints a JSON record (the `BENCH_scalar_mul.json`
//! trajectory point; prose summary in EXPERIMENTS.md).
//!
//! Acceptance gates (all recorded; asserted only when the run is
//! wall-clock stable, mirroring `BENCH_parallel.json`'s `enforced`
//! flag):
//!
//! * G1 GLV-2 ladder ≥ 2.0× the schoolbook reference and ≥ 1.25× the
//!   wNAF baseline (GLV halves the doublings but shares the addition
//!   count, so ~1.4–1.6× over wNAF is the algorithmic ceiling);
//! * G2 GLS-4 ladder ≥ 2.0× schoolbook and ≥ 1.4× wNAF (quarter-length
//!   doubling chain);
//! * the end-to-end batch-verify path must not regress (report-only
//!   row: its random-weight MSM and fixed-base muls ride the same
//!   kernels);
//! * strict decoding of a compressed G2 point (square root, curve and
//!   subgroup checks) ≤ 0.75× one GLS scalar multiplication of the same
//!   run — a host-independent ratio that held ≈ 1.1× while `Fp2::sqrt`
//!   was the complex method and sits near 0.55× on the norm method. The
//!   `fp2_sqrt` / `g1_decompress` / `g2_decompress` rows are µs per
//!   operation, with `before_us` from a run of this file at the parent
//!   commit of that change.
//!
//! Run with: `cargo run --release --example scalar_mul_throughput`

use borndist::core::ro::{PartialSignature, Signature, ThresholdScheme};
use borndist::pairing::{Fp2, Fr, G1Affine, G1Projective, G2Affine, G2Projective};
use borndist::shamir::ThresholdParams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const REPS: usize = 5;
/// Scalar multiplications per timed sample.
const MULS: usize = 64;
/// Relative sample spread ((max-min)/median) below which the run counts
/// as wall-clock stable and the floors are enforced.
const STABLE_SPREAD: f64 = 0.25;

const G1_VS_SCHOOLBOOK: f64 = 2.0;
const G1_VS_WNAF: f64 = 1.25;
const G2_VS_SCHOOLBOOK: f64 = 2.0;
const G2_VS_WNAF: f64 = 1.4;
/// Ceiling on `g2_decompress` per-op time over GLS `g2_scalar_mul`
/// per-op time, both from this run.
const G2_DECOMPRESS_VS_MUL: f64 = 0.75;

/// Per-op µs of the decode rows at the parent commit of the norm-method
/// `Fp2::sqrt` (complex-method sqrt, square-and-multiply `pow_vartime`,
/// wNAF `[x]P`): medians of five runs of this file there, same host.
const FP2_SQRT_BEFORE_US: f64 = 221.9;
const G1_DECOMPRESS_BEFORE_US: f64 = 140.3;
const G2_DECOMPRESS_BEFORE_US: f64 = 343.6;

/// Median-of-`REPS` wall-clock milliseconds for `f`, plus the relative
/// spread of the samples (stability signal for the gate).
fn time_ms<F: FnMut()>(mut f: F) -> (f64, f64) {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = samples[REPS / 2];
    let spread = (samples[REPS - 1] - samples[0]) / median;
    (median, spread)
}

struct Row {
    name: &'static str,
    schoolbook_ms: f64,
    wnaf_ms: f64,
    glv_ms: f64,
    spread: f64,
}

impl Row {
    fn vs_schoolbook(&self) -> f64 {
        self.schoolbook_ms / self.glv_ms
    }
    fn vs_wnaf(&self) -> f64 {
        self.wnaf_ms / self.glv_ms
    }
}

/// A single-operation row: µs per op now and at the parent commit.
struct OpRow {
    name: &'static str,
    us: f64,
    before_us: f64,
    spread: f64,
}

/// Times `f` over every input (one sample = `inputs.len()` ops).
fn bench_op<T>(name: &'static str, before_us: f64, inputs: &[T], mut f: impl FnMut(&T)) -> OpRow {
    let (ms, spread) = time_ms(|| inputs.iter().for_each(&mut f));
    OpRow {
        name,
        us: ms * 1e3 / inputs.len() as f64,
        before_us,
        spread,
    }
}

fn bench_group<P, FS, FW, FG>(
    name: &'static str,
    points: &[P],
    scalars: &[Fr],
    mut schoolbook: FS,
    mut wnaf: FW,
    mut glv: FG,
) -> Row
where
    FS: FnMut(&P, &Fr),
    FW: FnMut(&P, &Fr),
    FG: FnMut(&P, &Fr),
{
    let run = |f: &mut dyn FnMut(&P, &Fr)| {
        for (p, s) in points.iter().zip(scalars.iter()) {
            f(p, s);
        }
    };
    let (schoolbook_ms, s1) = time_ms(|| run(&mut |p, s| schoolbook(p, s)));
    let (wnaf_ms, s2) = time_ms(|| run(&mut |p, s| wnaf(p, s)));
    let (glv_ms, s3) = time_ms(|| run(&mut |p, s| glv(p, s)));
    Row {
        name,
        schoolbook_ms,
        wnaf_ms,
        glv_ms,
        spread: s1.max(s2).max(s3),
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0x5CA1A4);

    let g1: Vec<G1Projective> = (0..MULS).map(|_| G1Projective::random(&mut rng)).collect();
    let g2: Vec<G2Projective> = (0..MULS).map(|_| G2Projective::random(&mut rng)).collect();
    let scalars: Vec<Fr> = (0..MULS).map(|_| Fr::random(&mut rng)).collect();

    // Correctness cross-check before timing anything: all three ladders
    // agree pointwise (the property suite proves this exhaustively; this
    // is the release-codegen spot check on the exact benched inputs).
    for (p, s) in g1.iter().zip(scalars.iter()) {
        let want = p.mul_schoolbook(&s.to_le_bits());
        assert!(p.mul(s) == want, "G1 GLV ladder diverged");
        assert!(
            p.mul_vartime_limbs(&s.to_le_bits()) == want,
            "G1 wNAF diverged"
        );
    }
    for (q, s) in g2.iter().zip(scalars.iter()) {
        let want = q.mul_schoolbook(&s.to_le_bits());
        assert!(q.mul(s) == want, "G2 GLS ladder diverged");
        assert!(
            q.mul_vartime_limbs(&s.to_le_bits()) == want,
            "G2 wNAF diverged"
        );
    }

    let g1_row = bench_group(
        "g1_scalar_mul",
        &g1,
        &scalars,
        |p, s| {
            std::hint::black_box(p.mul_schoolbook(&s.to_le_bits()));
        },
        |p, s| {
            std::hint::black_box(p.mul_vartime_limbs(&s.to_le_bits()));
        },
        |p, s| {
            std::hint::black_box(p.mul(s));
        },
    );
    let g2_row = bench_group(
        "g2_scalar_mul",
        &g2,
        &scalars,
        |p, s| {
            std::hint::black_box(p.mul_schoolbook(&s.to_le_bits()));
        },
        |p, s| {
            std::hint::black_box(p.mul_vartime_limbs(&s.to_le_bits()));
        },
        |p, s| {
            std::hint::black_box(p.mul(s));
        },
    );

    // Strict point decoding, the receive side of every DKG broadcast:
    // the Fp2 square root alone, then the full G1 and G2 decoders on
    // the compressed forms of the points above.
    let g1_bytes: Vec<[u8; 48]> = g1.iter().map(|p| p.to_affine().to_compressed()).collect();
    let g2_affine: Vec<G2Affine> = g2.iter().map(|p| p.to_affine()).collect();
    let g2_bytes: Vec<[u8; 96]> = g2_affine.iter().map(|p| p.to_compressed()).collect();
    let y_squares: Vec<Fp2> = g2_affine.iter().map(|p| p.y().square()).collect();
    for (p, y2) in g2_affine.iter().zip(y_squares.iter()) {
        let y = y2.sqrt().expect("y² of a curve point is a square");
        assert!(y == p.y() || y == -p.y(), "Fp2 sqrt diverged");
    }
    let op_rows = [
        bench_op("fp2_sqrt", FP2_SQRT_BEFORE_US, &y_squares, |a| {
            std::hint::black_box(a.sqrt());
        }),
        bench_op("g1_decompress", G1_DECOMPRESS_BEFORE_US, &g1_bytes, |b| {
            std::hint::black_box(G1Affine::from_compressed(b).expect("valid G1 encoding"));
        }),
        bench_op("g2_decompress", G2_DECOMPRESS_BEFORE_US, &g2_bytes, |b| {
            std::hint::black_box(G2Affine::from_compressed(b).expect("valid G2 encoding"));
        }),
    ];

    // End-to-end verify path (report-only): 32-signature batch verify,
    // whose random-weight MSM, fixed-base muls and pairing prep all sit
    // on the kernels above.
    let scheme = ThresholdScheme::new(b"scalar-mul-throughput");
    let km = scheme.dealer_keygen(ThresholdParams::new(5, 16).unwrap(), &mut rng);
    let msgs: Vec<Vec<u8>> = (0..32)
        .map(|i| format!("message {}", i).into_bytes())
        .collect();
    let sigs: Vec<Signature> = msgs
        .iter()
        .map(|m| {
            let partials: Vec<PartialSignature> = (1..=6u32)
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
    let (verify_ms, verify_spread) = time_ms(|| {
        let mut r = StdRng::seed_from_u64(11);
        assert!(scheme.batch_verify(&km.public_key, &items, &mut r));
    });

    let rows = [g1_row, g2_row];
    println!(
        "== scalar-mul throughput ({} muls/sample, median of {} reps) ==",
        MULS, REPS
    );
    println!(
        "   {:<16} {:>12} {:>10} {:>10}  vs-schoolbook  vs-wnaf",
        "group", "schoolbook", "wnaf", "glv/gls"
    );
    for r in &rows {
        println!(
            "   {:<16} {:>10.2}ms {:>8.2}ms {:>8.2}ms  {:>11.2}x {:>8.2}x",
            r.name,
            r.schoolbook_ms,
            r.wnaf_ms,
            r.glv_ms,
            r.vs_schoolbook(),
            r.vs_wnaf()
        );
    }
    for r in &op_rows {
        println!(
            "   {:<16} {:>8.1}us/op (was {:.1}us)",
            r.name, r.us, r.before_us
        );
    }
    println!(
        "   verify path: 32-sig batch verify {:.2}ms (report-only)",
        verify_ms
    );

    let spread = rows
        .iter()
        .map(|r| r.spread)
        .chain(op_rows.iter().map(|r| r.spread))
        .fold(verify_spread, f64::max);
    let enforced = spread <= STABLE_SPREAD;
    let g2_mul_us = rows[1].glv_ms * 1e3 / MULS as f64;
    let decompress_vs_mul = op_rows[2].us / g2_mul_us;
    let floors = [
        (
            "g1 vs schoolbook",
            rows[0].vs_schoolbook(),
            G1_VS_SCHOOLBOOK,
        ),
        ("g1 vs wnaf", rows[0].vs_wnaf(), G1_VS_WNAF),
        (
            "g2 vs schoolbook",
            rows[1].vs_schoolbook(),
            G2_VS_SCHOOLBOOK,
        ),
        ("g2 vs wnaf", rows[1].vs_wnaf(), G2_VS_WNAF),
    ];
    if enforced {
        for (what, got, floor) in floors {
            assert!(
                got >= floor,
                "acceptance: {} must be >= {}x (got {:.2}x)",
                what,
                floor,
                got
            );
        }
        assert!(
            decompress_vs_mul <= G2_DECOMPRESS_VS_MUL,
            "acceptance: g2 decompress must be <= {}x one GLS g2 mul (got {:.2}x)",
            G2_DECOMPRESS_VS_MUL,
            decompress_vs_mul
        );
    } else {
        println!(
            "   gate: sample spread {:.0}% > {:.0}% — floors recorded but not \
             enforced (correctness cross-checks above still ran)",
            spread * 1e2,
            STABLE_SPREAD * 1e2
        );
    }

    // Machine-readable record (BENCH_scalar_mul.json).
    let mut json =
        String::from("{\n  \"bench\": \"scalar_mul_throughput\",\n  \"unit\": \"ms\",\n");
    json.push_str(&format!(
        "  \"reps\": {},\n  \"muls_per_sample\": {},\n  \"spread\": {:.3},\n",
        REPS, MULS, spread
    ));
    json.push_str(&format!(
        "  \"gate\": {{\"enforced\": {}, \"floors\": {{\"g1_vs_schoolbook\": {:.2}, \"g1_vs_wnaf\": {:.2}, \"g2_vs_schoolbook\": {:.2}, \"g2_vs_wnaf\": {:.2}, \"g2_decompress_vs_g2_mul_max\": {:.2}}}}},\n",
        enforced,
        G1_VS_SCHOOLBOOK,
        G1_VS_WNAF,
        G2_VS_SCHOOLBOOK,
        G2_VS_WNAF,
        G2_DECOMPRESS_VS_MUL
    ));
    json.push_str("  \"rows\": [\n");
    for r in &rows {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"schoolbook_ms\": {:.3}, \"wnaf_ms\": {:.3}, \"glv_ms\": {:.3}, \"vs_schoolbook\": {:.2}, \"vs_wnaf\": {:.2}}},\n",
            r.name,
            r.schoolbook_ms,
            r.wnaf_ms,
            r.glv_ms,
            r.vs_schoolbook(),
            r.vs_wnaf()
        ));
    }
    for r in &op_rows {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"us\": {:.1}, \"before_us\": {:.1}, \"speedup\": {:.2}",
            r.name,
            r.us,
            r.before_us,
            r.before_us / r.us
        ));
        if r.name == "g2_decompress" {
            json.push_str(&format!(", \"vs_g2_scalar_mul\": {:.2}", decompress_vs_mul));
        }
        json.push_str("},\n");
    }
    json.push_str(&format!(
        "    {{\"name\": \"verify_path_batch32\", \"ms\": {:.3}}}\n  ]\n}}",
        verify_ms
    ));
    println!("\n{}", json);
}
