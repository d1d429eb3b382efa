//! Scalar-multiplication and point-decoding gate (GLV/GLS;
//! norm-method `Fp2::sqrt`): times the three variable-base ladders —
//! schoolbook double-and-add, width-4 wNAF, and the
//! endomorphism-decomposed joint ladder behind `Projective::mul` —
//! on both curve groups, cross-checks that all three agree on every
//! input, then times strict point decoding (the `BENCH_scalar_mul.json`
//! record; prose in EXPERIMENTS.md). Every timed sample is [`OPS`]
//! operations.
//!
//! Floors, all ratios within this run and asserted only when the run is
//! wall-clock stable (worst sample spread ≤ [`STABLE_SPREAD`];
//! otherwise recorded with `enforced: false`):
//!
//! * G1 GLV-2 ladder ≥ 2.0× the schoolbook reference and ≥ 1.25× the
//!   wNAF baseline (GLV halves the doublings but shares the addition
//!   count, so ~1.4–1.6× over wNAF is the algorithmic ceiling);
//! * G2 GLS-4 ladder ≥ 2.0× schoolbook and ≥ 1.4× wNAF (quarter-length
//!   doubling chain);
//! * strict decoding of a compressed G2 point (square root, curve and
//!   subgroup checks) ≤ 0.75× one GLS scalar multiplication — stated as
//!   the floor `g2_mul / g2_decompress ≥ 1/0.75`. It held ≈ 0.9 while
//!   `Fp2::sqrt` was the complex method and sits near 1.8 on the norm
//!   method.
//!
//! The `fp2_sqrt`, `g1_decompress` and 32-signature batch-verify rows
//! are report-only: the verify path's random-weight MSM and fixed-base
//! muls ride the same kernels.
//!
//! Run with: `cargo run --release --example scalar_mul_throughput`

use borndist::core::ro::{PartialSignature, Signature, ThresholdScheme};
use borndist::pairing::{
    CurveParams, Fp2, Fr, G1Affine, G1Projective, G2Affine, G2Projective, Projective,
};
use borndist::shamir::ThresholdParams;
use borndist_bench::gate::Record;
use rand::rngs::StdRng;
use rand::SeedableRng;

const REPS: usize = 5;
/// Operations per timed sample.
const OPS: usize = 64;
/// Relative sample spread ((max-min)/median) below which the run counts
/// as wall-clock stable and the floors are enforced.
const STABLE_SPREAD: f64 = 0.25;

const G1_VS_SCHOOLBOOK: f64 = 2.0;
const G1_VS_WNAF: f64 = 1.25;
const G2_VS_SCHOOLBOOK: f64 = 2.0;
const G2_VS_WNAF: f64 = 1.4;
/// `g2_decompress` ≤ 0.75 × one GLS `g2` mul, as a floor on mul time
/// over decompress time.
const G2_MUL_VS_DECOMPRESS: f64 = 1.0 / 0.75;

/// Median-of-`REPS` milliseconds for one pass of `f` over `inputs`.
fn pass_ms<T>(record: &mut Record, inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    record.median_ms(REPS, || inputs.iter().for_each(&mut f))
}

/// Cross-checks the three ladders on every (point, scalar) pair — the
/// property suite proves agreement exhaustively; this is the
/// release-codegen spot check on the exact benched inputs — then times
/// them: `[schoolbook, wNAF, decomposed mul]` milliseconds per pass.
fn ladders_ms<C: CurveParams>(
    record: &mut Record,
    points: &[Projective<C>],
    scalars: &[Fr],
) -> [f64; 3] {
    let inputs: Vec<(&Projective<C>, &Fr)> = points.iter().zip(scalars.iter()).collect();
    for (p, s) in &inputs {
        let want = p.mul_schoolbook(&s.to_le_bits());
        assert!(p.mul(s) == want, "GLV/GLS ladder diverged");
        assert!(
            p.mul_vartime_limbs(&s.to_le_bits()) == want,
            "wNAF diverged"
        );
    }
    [
        pass_ms(record, &inputs, |(p, s)| {
            std::hint::black_box(p.mul_schoolbook(&s.to_le_bits()));
        }),
        pass_ms(record, &inputs, |(p, s)| {
            std::hint::black_box(p.mul_vartime_limbs(&s.to_le_bits()));
        }),
        pass_ms(record, &inputs, |(p, s)| {
            std::hint::black_box(p.mul(s));
        }),
    ]
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0x5CA1A4);

    let g1: Vec<G1Projective> = (0..OPS).map(|_| G1Projective::random(&mut rng)).collect();
    let g2: Vec<G2Projective> = (0..OPS).map(|_| G2Projective::random(&mut rng)).collect();
    let scalars: Vec<Fr> = (0..OPS).map(|_| Fr::random(&mut rng)).collect();

    let mut record = Record::new("scalar_mul");
    let [g1_schoolbook, g1_wnaf, g1_glv] = ladders_ms(&mut record, &g1, &scalars);
    let [g2_schoolbook, g2_wnaf, g2_gls] = ladders_ms(&mut record, &g2, &scalars);

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
    let fp2_sqrt = pass_ms(&mut record, &y_squares, |a| {
        std::hint::black_box(a.sqrt());
    });
    let g1_decompress = pass_ms(&mut record, &g1_bytes, |b| {
        std::hint::black_box(G1Affine::from_compressed(b).expect("valid G1 encoding"));
    });
    let g2_decompress = pass_ms(&mut record, &g2_bytes, |b| {
        std::hint::black_box(G2Affine::from_compressed(b).expect("valid G2 encoding"));
    });

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
    let verify_ms = record.median_ms(REPS, || {
        let mut r = StdRng::seed_from_u64(11);
        assert!(scheme.batch_verify(&km.public_key, &items, &mut r));
    });

    let stable = record.spread() <= STABLE_SPREAD;
    record
        .row("g1_glv_vs_schoolbook", OPS, g1_glv)
        .baseline(g1_schoolbook)
        .floor(G1_VS_SCHOOLBOOK, stable);
    record
        .row("g1_glv_vs_wnaf", OPS, g1_glv)
        .baseline(g1_wnaf)
        .floor(G1_VS_WNAF, stable);
    record
        .row("g2_gls_vs_schoolbook", OPS, g2_gls)
        .baseline(g2_schoolbook)
        .floor(G2_VS_SCHOOLBOOK, stable);
    record
        .row("g2_gls_vs_wnaf", OPS, g2_gls)
        .baseline(g2_wnaf)
        .floor(G2_VS_WNAF, stable);
    record.row("fp2_sqrt", OPS, fp2_sqrt);
    record.row("g1_decompress", OPS, g1_decompress);
    record
        .row("g2_decompress_vs_gls_mul", OPS, g2_decompress)
        .baseline(g2_gls)
        .floor(G2_MUL_VS_DECOMPRESS, stable);
    record.row("verify_path_batch32", 32, verify_ms);
    record.finish();
}
