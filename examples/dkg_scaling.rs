//! Large-committee scaling gate (n = 128 to 1024): the cross-dealer
//! batched Pedersen check against the per-share `verify_share` loop, one
//! full n = 128 DKG session over `Lockstep`, and the n = 1024 combine
//! path (Lagrange cache cold vs warm, one interpolation MSM) — the
//! `BENCH_dkg_scaling.json` record; prose table E12 in EXPERIMENTS.md.
//!
//! Floor: the 128-dealer batched verdict pass is ≥ 1.3× the per-share
//! loop (core-count independent: both sides evaluate every commitment
//! on the calling thread, and the fold's one MSM is small).
//!
//! Correctness cross-checks: batched verdicts equal the per-share loop
//! including a forged share; the n = 128 session finishes with all 128
//! dealers qualified at every player; the n = 1024 signature verifies.
//!
//! Run with: `cargo run --release --example dkg_scaling`

use borndist::core::ro::{PartialSignature, ThresholdScheme};
use borndist::dkg::{dkg_session, standard_config};
use borndist::net::TransportKind;
use borndist::shamir::{pedersen_check_verdicts, PedersenCheck, PedersenSharing, ThresholdParams};
use borndist_bench::gate::{once_ms, Record};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

const REPS: usize = 5;
/// Floor on the batched-vs-per-share verdict speedup at 128 dealers.
const MIN_CHECK_SPEEDUP: f64 = 1.3;

fn main() {
    let mut rng = StdRng::seed_from_u64(0xdc4_5ca1e);
    let mut record = Record::new("dkg_scaling");

    // --- leg A: 128-dealer batched Pedersen verdicts (the gate) ---
    // One receiving player's round-1 workload at n = 128, t = 16: one
    // share check per dealer, judged share by share vs folded into a
    // single cross-dealer MSM. Both sides evaluate each commitment at
    // the receiver's index by Horner's rule, whose steps cost
    // ⌊log₂ i⌋ doublings and one addition per set bit of `i`, so the
    // receiver sits at a representative committee index (97: seven
    // bits, three set). A low index would shrink the evaluation both
    // sides share and so flatter the fold, whose saving is one
    // two-base MSM per check.
    let t = 16usize;
    let dealers = 128usize;
    let cfg_a = standard_config(
        ThresholdParams::new(t, dealers).unwrap(),
        1,
        b"borndist/dkg-scaling/leg-a",
        false,
    );
    let sharings: Vec<PedersenSharing> = (0..dealers)
        .map(|_| PedersenSharing::deal_random(&cfg_a.bases, t, &mut rng))
        .collect();
    let checks: Vec<PedersenCheck<'_>> = sharings
        .iter()
        .map(|s| PedersenCheck {
            commitment: &s.commitment,
            share: s.share_for(97),
        })
        .collect();
    // Verdict agreement, including a forged share among the 128.
    let mut forged = checks.clone();
    forged[41].share.a += borndist::pairing::Fr::one();
    let per_share: Vec<bool> = forged
        .iter()
        .map(|c| c.commitment.verify_share(&cfg_a.bases, &c.share))
        .collect();
    let mut check_rng = StdRng::seed_from_u64(11);
    let batched = pedersen_check_verdicts(&cfg_a.bases, &forged, &mut check_rng);
    assert_eq!(
        batched, per_share,
        "batched verdicts must equal the per-share loop"
    );
    assert!(!batched[41] && batched.iter().filter(|v| **v).count() == dealers - 1);

    let per_share_ms = record.median_ms(REPS, || {
        for c in &checks {
            assert!(c.commitment.verify_share(&cfg_a.bases, &c.share));
        }
    });
    let mut check_rng = StdRng::seed_from_u64(13);
    let batched_ms = record.median_ms(REPS, || {
        let verdicts = pedersen_check_verdicts(&cfg_a.bases, &checks, &mut check_rng);
        assert!(verdicts.iter().all(|v| *v));
    });
    record
        .row("pedersen_checks_128_dealers", dealers, batched_ms)
        .baseline(per_share_ms)
        .floor(MIN_CHECK_SPEEDUP, true);

    // --- leg B: one full n = 128 DKG session (all honest, Lockstep) ---
    let cfg_b = standard_config(
        ThresholdParams::new(4, 128).unwrap(),
        2,
        b"borndist/dkg-scaling",
        false,
    );
    let (session, session_ms) = once_ms(|| {
        dkg_session(&cfg_b, &BTreeMap::new(), 0x5ca1e, &TransportKind::Lockstep)
            .expect("scaling session must complete")
    });
    let (outputs, metrics) = session;
    assert_eq!(outputs.len(), 128, "all 128 players must finish");
    for out in outputs.values() {
        let out = out.as_ref().expect("honest player must not abort");
        assert_eq!(out.qualified.len(), 128, "honest run qualifies everyone");
    }
    assert!(metrics.messages > 0);
    record.row("dkg_session_n128", 128, session_ms);

    // --- leg C: n = 1024 combine — Lagrange cache + interpolation MSM ---
    let scheme = ThresholdScheme::new(b"dkg-scaling/combine");
    let params_1024 = ThresholdParams::new(341, 1024).unwrap();
    let km = scheme.dealer_keygen(params_1024, &mut rng);
    let msg = b"committee of 1024";
    let partials: Vec<PartialSignature> = (1..=1024u32)
        .map(|i| scheme.share_sign(&km.shares[&i], msg))
        .collect();
    // Cold (Lagrange coefficients over all 1024 indices derived inside
    // the call) vs warm (coefficients cached, the interpolation MSM only).
    scheme.lagrange_cache().clear();
    let (signature, cold_ms) = once_ms(|| scheme.combine(&params_1024, &partials).unwrap());
    assert!(scheme.verify(&km.public_key, msg, &signature));
    let warm_ms = record.median_ms(REPS, || {
        std::hint::black_box(scheme.combine(&params_1024, &partials).unwrap());
    });
    record
        .row("combine_n1024_warm_vs_cold", 1024, warm_ms)
        .baseline(cold_ms);
    let verify_ms = record.median_ms(REPS, || {
        assert!(scheme.verify(&km.public_key, msg, &signature));
    });
    record.row("verify_n1024", 1024, verify_ms);

    record.finish();
}
