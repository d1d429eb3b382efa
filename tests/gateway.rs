//! The aggregation gateway's batching contract (ISSUE 8): a poisoned
//! buffer is bisected so honest traffic still verifies and every forgery
//! is pinpointed; buffers never fold across epochs; deadline-only
//! trickle traffic is answered by `poll`; and verdicts are bit-identical
//! at every thread count.

use borndist::core::gateway::{AggregationGateway, GatewayConfig, Verdict, VerifyRequest};
use borndist::core::ro::{PartialSignature, Signature};
use borndist::core::{AggPublicKey, AggregateScheme};
use borndist::parallel::{with_parallelism, Parallelism};
use borndist::shamir::ThresholdParams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// A signing authority: self-certifying key plus enough shares to
/// combine.
struct Authority {
    pk: AggPublicKey,
    km: borndist::core::ro::KeyMaterial,
    params: ThresholdParams,
}

fn authorities(scheme: &AggregateScheme, n: usize, rng: &mut StdRng) -> Vec<Authority> {
    let params = ThresholdParams::new(1, 4).unwrap();
    (0..n)
        .map(|_| {
            let (pk, km) = scheme.dealer_keygen(params, rng);
            Authority { pk, km, params }
        })
        .collect()
}

fn sign(scheme: &AggregateScheme, auth: &Authority, msg: &[u8]) -> Signature {
    let partials: Vec<PartialSignature> = (1..=2u32)
        .map(|j| scheme.share_sign(&auth.pk, &auth.km.shares[&j], msg))
        .collect();
    scheme.combine(&auth.params, &partials).unwrap()
}

/// Builds `k` requests from a handful of authorities, signing message
/// `i`; requests whose index is in `forged` carry a signature over a
/// *different* message (a forgery against the submitted statement).
fn requests(
    scheme: &AggregateScheme,
    auths: &[Authority],
    k: usize,
    epoch: u64,
    forged: &[usize],
) -> Vec<VerifyRequest> {
    (0..k)
        .map(|i| {
            let auth = &auths[i % auths.len()];
            let msg = format!("gateway message {}", i).into_bytes();
            let sig = if forged.contains(&i) {
                sign(scheme, auth, b"a different message entirely")
            } else {
                sign(scheme, auth, &msg)
            };
            VerifyRequest {
                id: i as u64,
                epoch,
                pk: auth.pk.clone(),
                msg,
                sig,
            }
        })
        .collect()
}

#[test]
fn poisoned_buffer_bisection_isolates_forgeries() {
    let scheme = AggregateScheme::new(b"gateway-bisect");
    let mut rng = StdRng::seed_from_u64(81);
    let auths = authorities(&scheme, 3, &mut rng);
    let forged = [2usize, 9, 10];
    let reqs = requests(&scheme, &auths, 16, 0, &forged);

    let config = GatewayConfig { max_batch: 16 };
    let mut gw = AggregationGateway::new(scheme, config, StdRng::seed_from_u64(82));
    let now = Instant::now();
    let mut verdicts: Vec<Verdict> = Vec::new();
    for req in reqs {
        verdicts.extend(gw.submit_at(req, now));
    }
    // The 16th submission hit the size trigger and answered everything.
    assert_eq!(verdicts.len(), 16);
    assert_eq!(gw.buffered(), 0);
    for v in &verdicts {
        assert_eq!(
            v.valid,
            !forged.contains(&(v.id as usize)),
            "request {} misjudged",
            v.id
        );
    }
    let stats = gw.stats();
    assert_eq!(stats.size_flushes, 1);
    assert_eq!(stats.accepted, 13);
    assert_eq!(stats.rejected, 3);
    // The first product rejected and forced splits; the forgeries were
    // pinned down at per-item leaves.
    assert!(stats.bisections >= 1, "poisoned batch must bisect");
    assert!(stats.leaf_checks >= forged.len() as u64);
}

#[test]
fn all_honest_buffer_costs_one_product() {
    let scheme = AggregateScheme::new(b"gateway-amortize");
    let mut rng = StdRng::seed_from_u64(83);
    let auths = authorities(&scheme, 2, &mut rng);
    let reqs = requests(&scheme, &auths, 8, 0, &[]);

    let config = GatewayConfig { max_batch: 8 };
    let mut gw = AggregationGateway::new(scheme, config, StdRng::seed_from_u64(84));
    let now = Instant::now();
    let mut verdicts = Vec::new();
    for req in reqs.iter().cloned() {
        verdicts.extend(gw.submit_at(req, now));
    }
    assert_eq!(verdicts.len(), 8);
    assert!(verdicts.iter().all(|v| v.valid));
    let stats = gw.stats();
    assert_eq!(stats.multi_pairings, 1, "honest flush = one folded product");
    assert_eq!(stats.bisections, 0);
    assert_eq!(stats.leaf_checks, 0);
    assert_eq!(stats.prepared_misses, 2, "two distinct keys prepared");

    // Second buffer under the same keys: cache hits, and the keys'
    // validity equations no longer ride along (already memoized).
    let again = requests(gw.scheme(), &auths, 8, 0, &[]);
    let mut verdicts2 = Vec::new();
    for req in again {
        verdicts2.extend(gw.submit_at(req, now));
    }
    assert!(verdicts2.iter().all(|v| v.valid));
    let stats = gw.stats();
    assert_eq!(stats.multi_pairings, 2);
    assert_eq!(stats.prepared_misses, 2, "no re-preparation on reuse");
    assert!(stats.prepared_hits >= 2);
}

#[test]
fn epoch_boundary_flushes_without_cross_epoch_folding() {
    let scheme = AggregateScheme::new(b"gateway-epoch");
    let mut rng = StdRng::seed_from_u64(85);
    let auths = authorities(&scheme, 2, &mut rng);
    let epoch0 = requests(&scheme, &auths, 3, 0, &[]);
    let mut epoch1 = requests(&scheme, &auths, 1, 1, &[]);
    epoch1[0].id = 100;

    let mut gw =
        AggregationGateway::new(scheme, GatewayConfig::default(), StdRng::seed_from_u64(86));
    let now = Instant::now();
    for req in epoch0 {
        assert!(
            gw.submit_at(req, now).is_empty(),
            "buffer below both triggers"
        );
    }
    assert_eq!(gw.buffered(), 3);
    // The first epoch-1 arrival answers epoch 0's stragglers immediately
    // — and only them; the new request waits in its own buffer.
    let verdicts = gw.submit_at(epoch1.pop().unwrap(), now);
    assert_eq!(verdicts.len(), 3);
    assert!(verdicts.iter().all(|v| v.epoch == 0 && v.valid));
    assert_eq!(gw.buffered(), 1);
    assert_eq!(gw.stats().epoch_flushes, 1);
    // The straggler epoch answers on its own — never folded with epoch
    // 0. A singleton buffer skips the folded product entirely and takes
    // the per-item leaf path.
    let flushed = gw.flush_all();
    assert_eq!(flushed.len(), 1);
    assert_eq!(flushed[0].epoch, 1);
    assert_eq!(flushed[0].id, 100);
    assert!(flushed[0].valid);
    assert_eq!(gw.stats().multi_pairings, 1);
    assert_eq!(gw.stats().leaf_checks, 1);
}

#[test]
fn deadline_poll_answers_trickle_traffic() {
    let scheme = AggregateScheme::new(b"gateway-deadline");
    let mut rng = StdRng::seed_from_u64(87);
    let auths = authorities(&scheme, 1, &mut rng);
    let reqs = requests(&scheme, &auths, 2, 0, &[]);

    let config = GatewayConfig { max_batch: 64 };
    let mut gw = AggregationGateway::new(scheme, config, StdRng::seed_from_u64(88));
    let t0 = Instant::now();
    for req in reqs {
        assert!(gw.submit_at(req, t0).is_empty());
    }
    assert_eq!(
        gw.next_deadline(),
        Some(t0 + Duration::from_millis(5)),
        "serving loop sleeps until the oldest request's deadline"
    );
    // Before the deadline: nothing moves.
    assert!(gw.poll_at(t0 + Duration::from_millis(4)).is_empty());
    assert_eq!(gw.buffered(), 2);
    // At the deadline: the whole trickle answers on one product.
    let verdicts = gw.poll_at(t0 + Duration::from_millis(5));
    assert_eq!(verdicts.len(), 2);
    assert!(verdicts.iter().all(|v| v.valid));
    assert_eq!(gw.buffered(), 0);
    assert_eq!(gw.stats().deadline_flushes, 1);
    assert!(gw.next_deadline().is_none());
}

/// Runs a full poisoned workload (two size flushes + a deadline flush)
/// and returns the verdict sequence.
fn poisoned_run(parallelism: Parallelism) -> Vec<Verdict> {
    with_parallelism(parallelism, || {
        let scheme = AggregateScheme::new(b"gateway-invariant");
        let mut rng = StdRng::seed_from_u64(89);
        let auths = authorities(&scheme, 3, &mut rng);
        let reqs = requests(&scheme, &auths, 20, 0, &[1, 7, 13, 18]);
        let config = GatewayConfig { max_batch: 8 };
        let mut gw = AggregationGateway::new(scheme, config, StdRng::seed_from_u64(90));
        let t0 = Instant::now();
        let mut verdicts = Vec::new();
        for req in reqs {
            verdicts.extend(gw.submit_at(req, t0));
        }
        verdicts.extend(gw.poll_at(t0 + Duration::from_millis(10)));
        verdicts
    })
}

#[test]
fn verdicts_invariant_under_thread_count() {
    let reference = poisoned_run(Parallelism::Sequential);
    assert_eq!(reference.len(), 20);
    let forged = [1u64, 7, 13, 18];
    for v in &reference {
        assert_eq!(v.valid, !forged.contains(&v.id));
    }
    for p in [Parallelism::Threads(2), Parallelism::Threads(7)] {
        assert_eq!(
            poisoned_run(p),
            reference,
            "gateway verdicts diverged under {:?}",
            p
        );
    }
}
