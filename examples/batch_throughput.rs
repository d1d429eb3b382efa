//! Batch-verification gate (`core::batch` and `core::gateway`): verifies
//! signatures one by one and as one randomized batch, on the §3 ROM
//! scheme, the partial-signature path, the Appendix G aggregate
//! statements, the §4 standard-model scheme and the aggregation gateway
//! (the `BENCH_batch_verify.json` record; prose in EXPERIMENTS.md).
//!
//! Floors: a batch of 64 ROM signatures is ≥ 3× sequential `verify`, and
//! a warm gateway buffer of 64 is ≥ 3× per-signature `verify` on the
//! same traffic.
//!
//! Run with: `cargo run --release --example batch_throughput`

use borndist::core::gateway::{AggregationGateway, GatewayConfig, VerifyRequest};
use borndist::core::ro::{PartialSignature, Signature, ThresholdScheme};
use borndist::core::standard::{StandardScheme, StdPartialSignature, StdSignature};
use borndist::core::{AggPublicKey, AggregateScheme};
use borndist::shamir::ThresholdParams;
use borndist_bench::gate::{Record, Row};
use rand::rngs::StdRng;
use rand::SeedableRng;

const REPS: usize = 3;

/// Adds row `name`: the median-of-`REPS` time of `batched` against that
/// of `sequential`, each of which must accept its (valid) input.
fn compare<'a>(
    record: &'a mut Record,
    name: &'static str,
    n: usize,
    mut sequential: impl FnMut() -> bool,
    mut batched: impl FnMut() -> bool,
) -> &'a mut Row {
    let accept = "measured path must accept valid input";
    let sequential_ms = record.median_ms(REPS, || assert!(sequential(), "{}", accept));
    let batched_ms = record.median_ms(REPS, || assert!(batched(), "{}", accept));
    record.row(name, n, batched_ms).baseline(sequential_ms)
}

fn ro_rows(record: &mut Record, rng: &mut StdRng) {
    let scheme = ThresholdScheme::new(b"batch-throughput");
    let params = ThresholdParams::new(5, 16).unwrap();
    let km = scheme.dealer_keygen(params, rng);
    let k = 64usize;
    let msgs: Vec<Vec<u8>> = (0..k)
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
    let mut r2 = StdRng::seed_from_u64(1);
    compare(
        record,
        "ro_signatures",
        k,
        || {
            items
                .iter()
                .all(|(m, s)| scheme.verify(&km.public_key, m, s))
        },
        || scheme.batch_verify(&km.public_key, &items, &mut r2),
    )
    .floor(3.0, true);

    // Partial signatures: the Combine pre-filter workload.
    let km64 = scheme.dealer_keygen(ThresholdParams::new(20, 64).unwrap(), rng);
    let msg = b"share batch";
    let partials: Vec<PartialSignature> = (1..=64u32)
        .map(|i| scheme.share_sign(&km64.shares[&i], msg))
        .collect();
    let mut r3 = StdRng::seed_from_u64(2);
    compare(
        record,
        "ro_shares",
        64,
        || {
            partials
                .iter()
                .all(|p| scheme.share_verify(&km64.verification_keys[&p.index], msg, p))
        },
        || scheme.batch_share_verify(&km64.verification_keys, msg, &partials, &mut r3),
    );
}

fn aggregate_row(record: &mut Record, rng: &mut StdRng) {
    let scheme = AggregateScheme::new(b"batch-throughput-agg");
    let params = ThresholdParams::new(1, 4).unwrap();
    let l = 16usize;
    let inputs: Vec<(AggPublicKey, Vec<u8>, Signature)> = (0..l)
        .map(|i| {
            let (pk, km) = scheme.dealer_keygen(params, rng);
            let msg = format!("certificate {}", i).into_bytes();
            let partials: Vec<PartialSignature> = (1..=2u32)
                .map(|j| scheme.share_sign(&pk, &km.shares[&j], &msg))
                .collect();
            (pk, msg, scheme.combine(&params, &partials).unwrap())
        })
        .collect();
    let agg = scheme.aggregate(&inputs).unwrap();
    let statements: Vec<(AggPublicKey, Vec<u8>)> = inputs
        .iter()
        .map(|(pk, m, _)| (pk.clone(), m.clone()))
        .collect();
    let mut r2 = StdRng::seed_from_u64(3);
    compare(
        record,
        "aggregate_statements",
        l,
        || scheme.aggregate_verify(&statements, &agg),
        || scheme.aggregate_verify_batched(&statements, &agg, &mut r2),
    );
}

/// The paper's compressed certification-chain shape: a chain of `l`
/// certificates issued by only `a` distinct authorities. The batched
/// verifier collapses same-key pairing slots, so the product costs
/// `2a + 2` pairings instead of `2l + 2` — this row measures that
/// collapse against the per-statement reference on identical inputs.
fn aggregate_chain_row(record: &mut Record, rng: &mut StdRng) {
    let scheme = AggregateScheme::new(b"batch-throughput-agg-chain");
    let params = ThresholdParams::new(1, 4).unwrap();
    let (l, authorities) = (16usize, 4usize);
    let keys: Vec<_> = (0..authorities)
        .map(|_| scheme.dealer_keygen(params, rng))
        .collect();
    let inputs: Vec<(AggPublicKey, Vec<u8>, Signature)> = (0..l)
        .map(|i| {
            let (pk, km) = &keys[i % authorities];
            let msg = format!("chain link {}", i).into_bytes();
            let partials: Vec<PartialSignature> = (1..=2u32)
                .map(|j| scheme.share_sign(pk, &km.shares[&j], &msg))
                .collect();
            (pk.clone(), msg, scheme.combine(&params, &partials).unwrap())
        })
        .collect();
    let agg = scheme.aggregate(&inputs).unwrap();
    let statements: Vec<(AggPublicKey, Vec<u8>)> = inputs
        .iter()
        .map(|(pk, m, _)| (pk.clone(), m.clone()))
        .collect();
    let mut r2 = StdRng::seed_from_u64(5);
    compare(
        record,
        "aggregate_chain_4auth",
        l,
        || scheme.aggregate_verify(&statements, &agg),
        || scheme.aggregate_verify_batched(&statements, &agg, &mut r2),
    );
}

fn standard_row(record: &mut Record, rng: &mut StdRng) {
    let scheme = StandardScheme::new(b"batch-throughput-std");
    let params = ThresholdParams::new(1, 4).unwrap();
    let km = scheme.dealer_keygen(params, rng);
    let k = 16usize;
    let msgs: Vec<Vec<u8>> = (0..k).map(|i| format!("std {}", i).into_bytes()).collect();
    let sigs: Vec<StdSignature> = msgs
        .iter()
        .map(|m| {
            let partials: Vec<StdPartialSignature> = (1..=2u32)
                .map(|i| scheme.share_sign(&km.shares[&i], m, rng))
                .collect();
            scheme.combine(&km.params, m, &partials, rng).unwrap()
        })
        .collect();
    let items: Vec<(&[u8], &StdSignature)> = msgs
        .iter()
        .zip(sigs.iter())
        .map(|(m, s)| (m.as_slice(), s))
        .collect();
    let mut r2 = StdRng::seed_from_u64(4);
    compare(
        record,
        "standard_signatures",
        k,
        || {
            items
                .iter()
                .all(|(m, s)| scheme.verify(&km.public_key, m, s))
        },
        || scheme.batch_verify(&km.public_key, &items, &mut r2),
    );
}

/// The aggregation gateway's steady state — one randomized multi-pairing
/// per 64-request buffer from 4 authorities, keys warm — against
/// per-signature `verify` on one buffer of the same traffic.
fn gateway_row(record: &mut Record, rng: &mut StdRng) {
    let scheme = AggregateScheme::new(b"batch-throughput-gateway");
    let params = ThresholdParams::new(1, 4).unwrap();
    let keys: Vec<_> = (0..4).map(|_| scheme.dealer_keygen(params, rng)).collect();
    let batch = 64usize;
    // One warmup buffer (it pays the key preparation and the Appendix G
    // key equations) plus one buffer per timed rep.
    let requests: Vec<VerifyRequest> = (0..((REPS + 1) * batch) as u64)
        .map(|id| {
            let (pk, km) = &keys[id as usize % keys.len()];
            let msg = format!("gateway message {}", id).into_bytes();
            let partials: Vec<PartialSignature> = (1..=2u32)
                .map(|j| scheme.share_sign(pk, &km.shares[&j], &msg))
                .collect();
            let sig = scheme.combine(&params, &partials).unwrap();
            VerifyRequest {
                id,
                epoch: 0,
                pk: pk.clone(),
                msg,
                sig,
            }
        })
        .collect();
    let first_buffer = requests[..batch].to_vec();
    let config = GatewayConfig { max_batch: batch };
    let mut gateway = AggregationGateway::new(scheme.clone(), config, StdRng::seed_from_u64(6));
    let mut requests = requests.into_iter();
    // The size trigger must answer each buffer whole.
    let mut submit_buffer = || {
        let verdicts: Vec<_> = requests
            .by_ref()
            .take(batch)
            .flat_map(|r| gateway.submit(r))
            .collect();
        verdicts.len() == batch && verdicts.iter().all(|v| v.valid)
    };
    assert!(submit_buffer(), "warmup buffer must be accepted");
    compare(
        record,
        "gateway_buffer_64",
        batch,
        || {
            first_buffer
                .iter()
                .all(|r| scheme.verify(&r.pk, &r.msg, &r.sig))
        },
        submit_buffer,
    )
    .floor(3.0, true);
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    let mut record = Record::new("batch_verify");
    ro_rows(&mut record, &mut rng);
    aggregate_row(&mut record, &mut rng);
    aggregate_chain_row(&mut record, &mut rng);
    standard_row(&mut record, &mut rng);
    gateway_row(&mut record, &mut rng);
    record.finish();
}
