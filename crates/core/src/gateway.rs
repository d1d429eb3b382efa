//! The aggregation/verification gateway — sustained-throughput front
//! door for [`AggregateScheme`] traffic (DESIGN.md §2 "Aggregation
//! gateway").
//!
//! Clients submit independent `(public key, message, signature)` triples
//! ([`VerifyRequest`]); the gateway buffers them *per epoch* and answers
//! a whole buffer with **one amortized randomized multi-pairing**: the
//! `k` signature equations draw fresh random weights `ρᵢ`, the
//! Appendix G key-validity equations of the not-yet-validated keys draw
//! weights `σ_d`, and everything folds into a single product of
//! `2d + 2` pairings (`d` = distinct keys in the buffer — same-key
//! pairing slots collapse, exactly as in
//! [`AggregateScheme::aggregate_verify_batched`]):
//!
//! ```text
//! e(Σρᵢzᵢ + Σσ_d Z_d, ĝ_z)·e(Σρᵢrᵢ + Σσ_d R_d, ĝ_r)
//!   ·Π_d e(Σ_{i∈d} ρᵢH₁ᵢ + σ_d g, ĝ₁_d)·e(Σ_{i∈d} ρᵢH₂ᵢ + σ_d h, ĝ₂_d) = 1
//! ```
//!
//! Every `Ĝ`-side element is *prepared*: the generator columns at scheme
//! construction, the key coordinates through a [`G2Prepared`] cache of
//! at most 1024 keys, keyed by [`AggPublicKey::fingerprint`] — so a
//! steady-state flush runs zero on-the-fly Miller line computations.
//! Key validity itself is cached: once a key's equation passed (inside a
//! batch or individually), later buffers skip its `σ_d` terms.
//!
//! **Flush policy**: a buffer is answered when it reaches
//! [`GatewayConfig::max_batch`] requests (size trigger), when its oldest
//! request has waited [`MAX_DELAY`] = 5 ms (deadline trigger,
//! driven by [`AggregationGateway::poll`]), when a request for a *new*
//! epoch arrives (epoch boundary — buffers never fold across epochs),
//! or on an explicit [`AggregationGateway::flush_all`].
//!
//! **Poisoned batches**: when the folded product rejects, the gateway
//! bisects — re-checking each half with its own fresh-weight folded
//! product, down to per-item [`AggregateScheme::verify`] at the leaves —
//! so every honest request in a poisoned buffer is still accepted and
//! every forgery is pinpointed, at `O(f·log k)` extra products for `f`
//! forgeries. Verdicts are bit-identical at every thread count: the
//! weight draws depend only on submission order, never on the
//! parallel schedule (`tests/gateway.rs` enforces this).
//!
//! The hashing fan-out, MSM window accumulation, and the closing Miller
//! loop all shard across [`borndist_parallel`] threads.

use crate::aggregate::{AggPublicKey, AggregateScheme};
use crate::ro::Signature;
use borndist_pairing::{msm, multi_pairing_prepared, Fr, G1Affine, G1Projective, G2Prepared};
use borndist_parallel::par_map;
use rand::RngCore;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Deadline trigger: a buffer is flushed once its oldest request has
/// waited this long (checked by [`AggregationGateway::poll`]).
pub const MAX_DELAY: Duration = Duration::from_millis(5);

/// Bound on the prepared-key cache. Entries are evicted in insertion
/// order once the bound is reached, so a client sending many distinct
/// keys cannot grow the gateway's memory; an evicted key is re-prepared
/// and re-validated on next sight.
const MAX_CACHED_KEYS: usize = 1024;

/// The gateway's size trigger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GatewayConfig {
    /// Flush an epoch's buffer when it holds this many requests.
    pub max_batch: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig { max_batch: 64 }
    }
}

/// One verification request submitted to the gateway.
#[derive(Clone, Debug)]
pub struct VerifyRequest {
    /// Client-chosen request id, echoed in the [`Verdict`].
    pub id: u64,
    /// Proactive epoch this signature belongs to. Buffers never fold
    /// across epochs.
    pub epoch: u64,
    /// The (self-certifying) public key.
    pub pk: AggPublicKey,
    /// The signed message.
    pub msg: Vec<u8>,
    /// The signature to verify.
    pub sig: Signature,
}

/// The gateway's answer to one [`VerifyRequest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// The request id this answers.
    pub id: u64,
    /// The request's epoch.
    pub epoch: u64,
    /// `true` iff the signature verifies under its (valid) key.
    pub valid: bool,
}

/// Counters describing the gateway's amortization behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests answered `valid`.
    pub accepted: u64,
    /// Requests answered invalid.
    pub rejected: u64,
    /// Buffer flushes by trigger.
    pub size_flushes: u64,
    /// Deadline-triggered flushes.
    pub deadline_flushes: u64,
    /// Epoch-boundary flushes.
    pub epoch_flushes: u64,
    /// Explicit [`AggregationGateway::flush_all`] flushes.
    pub forced_flushes: u64,
    /// Folded multi-pairing products evaluated (the amortization
    /// witness: in the all-honest steady state this grows once per
    /// flush, not once per request).
    pub multi_pairings: u64,
    /// Bisection splits performed on rejecting batches.
    pub bisections: u64,
    /// Per-item leaf checks reached during bisection.
    pub leaf_checks: u64,
    /// Prepared-key cache hits.
    pub prepared_hits: u64,
    /// Prepared-key cache misses (Miller line computations paid).
    pub prepared_misses: u64,
}

/// Cached per-key state: prepared coordinates plus the key-validity
/// memo.
struct CachedKey {
    prepared: [G2Prepared; 2],
    validated: bool,
}

struct EpochBuffer {
    items: Vec<VerifyRequest>,
    oldest: Instant,
}

/// The verification gateway. See the [module docs](self) for the
/// batching equation and flush policy.
pub struct AggregationGateway<R: RngCore> {
    scheme: AggregateScheme,
    config: GatewayConfig,
    rng: R,
    buffers: BTreeMap<u64, EpochBuffer>,
    keys: BTreeMap<Vec<u8>, CachedKey>,
    key_order: VecDeque<Vec<u8>>,
    stats: GatewayStats,
}

impl<R: RngCore> AggregationGateway<R> {
    /// Builds a gateway over `scheme` with the given flush policy. The
    /// RNG drives the batching weights; verdicts for a fixed submission
    /// sequence are deterministic in it.
    pub fn new(scheme: AggregateScheme, config: GatewayConfig, rng: R) -> Self {
        assert!(config.max_batch >= 1, "batch bound must be positive");
        AggregationGateway {
            scheme,
            config,
            rng,
            buffers: BTreeMap::new(),
            keys: BTreeMap::new(),
            key_order: VecDeque::new(),
            stats: GatewayStats::default(),
        }
    }

    /// The gateway's amortization counters.
    pub fn stats(&self) -> &GatewayStats {
        &self.stats
    }

    /// The underlying scheme context.
    pub fn scheme(&self) -> &AggregateScheme {
        &self.scheme
    }

    /// Number of requests currently buffered (all epochs).
    pub fn buffered(&self) -> usize {
        self.buffers.values().map(|b| b.items.len()).sum()
    }

    /// The earliest deadline among the open buffers, if any — what a
    /// serving thread should sleep until before calling [`Self::poll`].
    pub fn next_deadline(&self) -> Option<Instant> {
        self.buffers.values().map(|b| b.oldest + MAX_DELAY).min()
    }

    /// Submits a request, stamping its arrival now. Returns the verdicts
    /// of any buffer this submission flushed (size or epoch-boundary
    /// trigger) — usually empty.
    pub fn submit(&mut self, req: VerifyRequest) -> Vec<Verdict> {
        self.submit_at(req, Instant::now())
    }

    /// [`Self::submit`] with an explicit arrival stamp (deterministic
    /// tests drive the clock themselves).
    pub fn submit_at(&mut self, req: VerifyRequest, now: Instant) -> Vec<Verdict> {
        self.stats.submitted += 1;
        let mut verdicts = Vec::new();
        // Epoch boundary: the first request of an unseen epoch flushes
        // every other epoch's buffer — buffers never fold across epochs,
        // and a superseded epoch's stragglers are answered immediately
        // instead of lingering until their deadline.
        if !self.buffers.contains_key(&req.epoch) && !self.buffers.is_empty() {
            let others: Vec<u64> = self.buffers.keys().copied().collect();
            for epoch in others {
                self.stats.epoch_flushes += 1;
                verdicts.extend(self.flush_epoch(epoch));
            }
        }
        let epoch = req.epoch;
        let buf = self.buffers.entry(epoch).or_insert(EpochBuffer {
            items: Vec::new(),
            oldest: now,
        });
        if buf.items.is_empty() {
            buf.oldest = now;
        }
        buf.items.push(req);
        if buf.items.len() >= self.config.max_batch {
            self.stats.size_flushes += 1;
            verdicts.extend(self.flush_epoch(epoch));
        }
        verdicts
    }

    /// Deadline sweep: flushes every buffer whose oldest request has
    /// waited at least [`MAX_DELAY`]. A serving loop calls this between
    /// submissions (see [`Self::next_deadline`]).
    pub fn poll(&mut self) -> Vec<Verdict> {
        self.poll_at(Instant::now())
    }

    /// [`Self::poll`] against an explicit clock.
    pub fn poll_at(&mut self, now: Instant) -> Vec<Verdict> {
        let due: Vec<u64> = self
            .buffers
            .iter()
            .filter(|(_, b)| now.duration_since(b.oldest) >= MAX_DELAY)
            .map(|(e, _)| *e)
            .collect();
        let mut verdicts = Vec::new();
        for epoch in due {
            self.stats.deadline_flushes += 1;
            verdicts.extend(self.flush_epoch(epoch));
        }
        verdicts
    }

    /// Flushes everything still buffered (shutdown path).
    pub fn flush_all(&mut self) -> Vec<Verdict> {
        let epochs: Vec<u64> = self.buffers.keys().copied().collect();
        let mut verdicts = Vec::new();
        for epoch in epochs {
            self.stats.forced_flushes += 1;
            verdicts.extend(self.flush_epoch(epoch));
        }
        verdicts
    }

    /// Answers one epoch's buffer: hash fan-out, one folded product,
    /// bisection only on rejection.
    fn flush_epoch(&mut self, epoch: u64) -> Vec<Verdict> {
        let Some(buf) = self.buffers.remove(&epoch) else {
            return Vec::new();
        };
        let items = buf.items;
        if items.is_empty() {
            return Vec::new();
        }
        // Hash-to-curve dominates per-request cost — fan it out across
        // threads once; bisection reuses the same hash points.
        let scheme = &self.scheme;
        let hashes: Vec<[G1Projective; 2]> = par_map(&items, |it| {
            let h = scheme.hash_message(&it.pk, &it.msg);
            [h[0], h[1]]
        });
        let idxs: Vec<usize> = (0..items.len()).collect();
        let mut verdict_of: BTreeMap<usize, bool> = BTreeMap::new();
        self.resolve(&items, &hashes, &idxs, &mut verdict_of);
        items
            .iter()
            .enumerate()
            .map(|(i, it)| {
                let valid = verdict_of[&i];
                if valid {
                    self.stats.accepted += 1;
                } else {
                    self.stats.rejected += 1;
                }
                Verdict {
                    id: it.id,
                    epoch,
                    valid,
                }
            })
            .collect()
    }

    /// Optimistic check + bisection: accept the whole range on one
    /// product, otherwise split; singletons fall back to the per-item
    /// slow path (which re-checks key validity by itself).
    fn resolve(
        &mut self,
        items: &[VerifyRequest],
        hashes: &[[G1Projective; 2]],
        idxs: &[usize],
        out: &mut BTreeMap<usize, bool>,
    ) {
        if idxs.is_empty() {
            return;
        }
        if idxs.len() == 1 {
            let it = &items[idxs[0]];
            self.stats.leaf_checks += 1;
            let valid = self.scheme.verify(&it.pk, &it.msg, &it.sig);
            if valid {
                self.mark_validated(&it.pk);
            }
            out.insert(idxs[0], valid);
            return;
        }
        if self.batch_holds(items, hashes, idxs) {
            for &i in idxs {
                self.mark_validated(&items[i].pk);
                out.insert(i, true);
            }
            return;
        }
        self.stats.bisections += 1;
        let (lo, hi) = idxs.split_at(idxs.len() / 2);
        self.resolve(items, hashes, lo, out);
        self.resolve(items, hashes, hi, out);
    }

    /// Evaluates the folded product over `idxs` with fresh weights.
    fn batch_holds(
        &mut self,
        items: &[VerifyRequest],
        hashes: &[[G1Projective; 2]],
        idxs: &[usize],
    ) -> bool {
        self.stats.multi_pairings += 1;
        // Dense-index the distinct keys in range order; remember which
        // still need their validity equation folded in.
        let mut group_of: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
        let mut distinct: Vec<&AggPublicKey> = Vec::new();
        let mut needs_validity: Vec<bool> = Vec::new();
        let mut item_group: Vec<usize> = Vec::with_capacity(idxs.len());
        for &i in idxs {
            let pk = &items[i].pk;
            let fp = pk.fingerprint();
            let next = distinct.len();
            let d = *group_of.entry(fp.clone()).or_insert_with(|| {
                distinct.push(pk);
                needs_validity.push(!self.ensure_cached(pk, fp));
                next
            });
            item_group.push(d);
        }
        // Weights: ρᵢ per signature equation, σ_d per un-validated key
        // equation. Drawn in submission order — independent of thread
        // count.
        let rho: Vec<Fr> = idxs
            .iter()
            .map(|_| Fr::random_nonzero(&mut self.rng))
            .collect();
        let sigma: Vec<Option<Fr>> = needs_validity
            .iter()
            .map(|need| need.then(|| Fr::random_nonzero(&mut self.rng)))
            .collect();
        // Generator columns: one MSM each over the weighted signature
        // halves plus the weighted witnesses of the new keys.
        let mut z_bases: Vec<G1Affine> = Vec::with_capacity(idxs.len() + distinct.len());
        let mut r_bases: Vec<G1Affine> = Vec::with_capacity(idxs.len() + distinct.len());
        let mut col_weights: Vec<Fr> = Vec::with_capacity(idxs.len() + distinct.len());
        for (&i, w) in idxs.iter().zip(rho.iter()) {
            z_bases.push(items[i].sig.sig.z);
            r_bases.push(items[i].sig.sig.r);
            col_weights.push(*w);
        }
        for (pk, s) in distinct.iter().zip(sigma.iter()) {
            if let Some(s) = s {
                z_bases.push(pk.z);
                r_bases.push(pk.r);
                col_weights.push(*s);
            }
        }
        // Per-key slots: Σ ρᵢ·Hᵢ collapsed over the key's requests, plus
        // σ_d·g / σ_d·h from the fixed-base tables when the key's
        // validity rides along.
        let (g_table, h_table) = self.scheme.base_tables();
        let mut slots: Vec<[G1Projective; 2]> = sigma
            .iter()
            .map(|s| match s {
                Some(s) => [g_table.mul(s), h_table.mul(s)],
                None => [G1Projective::identity(), G1Projective::identity()],
            })
            .collect();
        for ((&i, d), w) in idxs.iter().zip(item_group.iter()).zip(rho.iter()) {
            let h = &hashes[i];
            slots[*d][0] += h[0].mul(w);
            slots[*d][1] += h[1].mul(w);
        }
        let mut points: Vec<G1Projective> = Vec::with_capacity(2 + 2 * distinct.len());
        points.push(msm(&z_bases, &col_weights));
        points.push(msm(&r_bases, &col_weights));
        for pair in slots {
            points.extend(pair);
        }
        let points = G1Projective::batch_to_affine(&points);
        // Every Ĝ-side element is prepared: generators at scheme build,
        // key coordinates through the cache.
        let prep = self.scheme.prepared_dp();
        let mut pairs: Vec<(&G1Affine, &G2Prepared)> = Vec::with_capacity(2 + 2 * distinct.len());
        pairs.push((&points[0], &prep.g_z));
        pairs.push((&points[1], &prep.g_r));
        for (pk, slot) in distinct.iter().zip(points[2..].chunks(2)) {
            let cached = &self.keys[&pk.fingerprint()];
            pairs.push((&slot[0], &cached.prepared[0]));
            pairs.push((&slot[1], &cached.prepared[1]));
        }
        multi_pairing_prepared(&pairs).is_identity()
    }

    /// Ensures `pk` has a prepared-cache entry; returns whether its
    /// validity is already known (memoized from an earlier accepting
    /// batch or leaf check).
    fn ensure_cached(&mut self, pk: &AggPublicKey, fp: Vec<u8>) -> bool {
        if let Some(entry) = self.keys.get(&fp) {
            self.stats.prepared_hits += 1;
            return entry.validated;
        }
        self.stats.prepared_misses += 1;
        while self.keys.len() >= MAX_CACHED_KEYS {
            let Some(oldest) = self.key_order.pop_front() else {
                break;
            };
            self.keys.remove(&oldest);
        }
        self.keys.insert(
            fp.clone(),
            CachedKey {
                prepared: [
                    G2Prepared::new(&pk.coords[0]),
                    G2Prepared::new(&pk.coords[1]),
                ],
                validated: false,
            },
        );
        self.key_order.push_back(fp);
        false
    }

    /// Memoizes a successful validity check.
    fn mark_validated(&mut self, pk: &AggPublicKey) {
        if let Some(entry) = self.keys.get_mut(&pk.fingerprint()) {
            entry.validated = true;
        }
    }
}
