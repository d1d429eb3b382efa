//! Small-exponent randomized batch verification — the hot-path batching
//! layer of DESIGN.md §2.
//!
//! Every verification equation in this workspace is a pairing-product
//! equality `Π e(P_j, Q̂_j) = 1`. Such equations batch: raise the `i`-th
//! equation to a fresh random exponent `ρ_i` and multiply them together,
//! moving the exponent onto the (cheap) `G` side of each pairing. One
//! *shared* Miller loop plus a single final exponentiation then replaces
//! `k` separate four-pairing products; whenever two pairings share their
//! `Ĝ`-side element (the generators `ĝ_z`, `ĝ_r`, or a common public
//! key), their `G`-side points collapse into a multi-scalar
//! multiplication and the pairing count drops too.
//!
//! Soundness is statistical: a batch containing an invalid equation
//! passes with probability `1/(r-1) ≈ 2^-255` over the verifier's random
//! weights (the classical small-exponent argument of Bellare, Garay and
//! Rabin — our weights are full-size scalars, so the bound is maximal).
//! On a batch failure the caller falls back to per-item verification to
//! locate offenders.
//!
//! Concretely:
//!
//! * [`ThresholdScheme::batch_verify`] — `k` §3 signatures under one key:
//!   **4 pairings total** instead of `4k`;
//! * [`ThresholdScheme::batch_share_verify`] — `k` partial signatures on
//!   one message: 4 pairings total;
//! * [`StandardScheme::batch_verify`] / [`StandardScheme::batch_share_verify`]
//!   — the §4 Groth–Sahai equations, `3k + 2` pairings and one final
//!   exponentiation instead of `2k` five-pairing products;
//! * [`AggregateScheme::aggregate_verify_batched`] — Appendix G key
//!   sanity checks folded into the aggregate equation: `2d + 2` pairings
//!   (`d` = distinct keys — same-key pairing slots collapse) and one
//!   final exponentiation for the whole statement list, with the
//!   signature equation normalized to weight 1 so the message hashes
//!   enter the Miller loop without any generic scalar multiplication.
//!
//! Every batched equation here is also **multi-core**: per-item hashing
//! and weighting fan out over [`borndist_parallel::par_map`], the MSMs
//! parallelize their window accumulation, and the closing
//! [`multi_pairing_mixed`] shards its Miller loop — all governed by
//! [`borndist_parallel::Parallelism`] (`BORNDIST_THREADS=1` forces the
//! sequential reference behavior) with bit-identical verdicts at every
//! thread count, which `tests/parallel_invariance.rs` enforces.
//!
//! Equivalence with the per-item slow paths is enforced by the
//! `tests/adversarial.rs` batch suite (a single forgery hidden among 63
//! valid signatures must be rejected) and the agreement property tests.

use crate::aggregate::{AggPublicKey, AggregateScheme, AggregateSignature};
use crate::ro::{PartialSignature, PublicKey, Signature, ThresholdScheme, VerificationKey};
use crate::standard::{
    StandardScheme, StdPartialSignature, StdPublicKey, StdSignature, StdVerificationKey,
};
use borndist_grothsahai as gs;
use borndist_pairing::{msm, multi_pairing_mixed, Fr, G1Affine, G1Projective, G2Affine};
use borndist_parallel::{par_map, par_map_indexed};
use rand::RngCore;
use std::collections::BTreeMap;

/// Fresh non-zero batching weights (zero weights would let the weighted
/// equation ignore an item entirely).
fn random_weights<R: RngCore + ?Sized>(k: usize, rng: &mut R) -> Vec<Fr> {
    (0..k).map(|_| Fr::random_nonzero(rng)).collect()
}

/// The LHSPS slow path ([`borndist_lhsps::OneTimePublicKey::verify`])
/// rejects messages whose hash vector is all-identity — for such a
/// degenerate vector `z = r = 1` would verify universally. The batched
/// equations must re-establish the same guard or their verdict would
/// diverge from the per-item path.
fn degenerate_hash(h: &[G1Projective]) -> bool {
    h.iter().all(G1Projective::is_identity)
}

impl ThresholdScheme {
    /// Batch-verifies `k` full signatures on `k` messages under the
    /// *same* public key with one four-pairing product:
    ///
    /// ```text
    /// e(Σρᵢzᵢ, ĝ_z)·e(Σρᵢrᵢ, ĝ_r)·e(ΣρᵢH₁(Mᵢ), ĝ₁)·e(ΣρᵢH₂(Mᵢ), ĝ₂) = 1
    /// ```
    ///
    /// Returns `true` only if every signature verifies (up to the
    /// `≈ 2^-255` batching soundness error); on `false`, fall back to
    /// [`Self::verify`] per item to locate the offenders. The empty batch
    /// is vacuously valid.
    pub fn batch_verify<R: RngCore + ?Sized>(
        &self,
        pk: &PublicKey,
        items: &[(&[u8], &Signature)],
        rng: &mut R,
    ) -> bool {
        if items.is_empty() {
            return true;
        }
        let rho = random_weights(items.len(), rng);
        // H(Mᵢ) ∈ G², hashed across threads (hash-to-curve dominates
        // this path's cost) and batch-normalized in one go.
        let per_item = par_map(items, |(msg, _)| self.hash_message(msg));
        let mut hashes: Vec<G1Projective> = Vec::with_capacity(2 * items.len());
        for h in per_item {
            if degenerate_hash(&h) {
                return false;
            }
            hashes.extend(h);
        }
        let hashes = G1Projective::batch_to_affine(&hashes);
        let h1: Vec<G1Affine> = hashes.iter().step_by(2).copied().collect();
        let h2: Vec<G1Affine> = hashes.iter().skip(1).step_by(2).copied().collect();
        let zs: Vec<G1Affine> = items.iter().map(|(_, s)| s.sig.z).collect();
        let rs: Vec<G1Affine> = items.iter().map(|(_, s)| s.sig.r).collect();
        let combined = [
            msm(&zs, &rho),
            msm(&rs, &rho),
            msm(&h1, &rho),
            msm(&h2, &rho),
        ];
        let combined = G1Projective::batch_to_affine(&combined);
        let prep = self.prepared_dp();
        multi_pairing_mixed(
            &[(&combined[2], &pk.coords[0]), (&combined[3], &pk.coords[1])],
            &[(&combined[0], &prep.g_z), (&combined[1], &prep.g_r)],
        )
        .is_identity()
    }

    /// Batch-verifies many partial signatures on the *same* message with
    /// small-exponent batching: one four-pairing product plus four MSMs
    /// replaces `k` separate four-pairing products.
    ///
    /// Returns `true` only if **every** partial verifies; on `false`,
    /// fall back to [`Self::share_verify`] per item to locate offenders.
    pub fn batch_share_verify<R: RngCore + ?Sized>(
        &self,
        vks: &BTreeMap<u32, VerificationKey>,
        msg: &[u8],
        partials: &[PartialSignature],
        rng: &mut R,
    ) -> bool {
        if partials.is_empty() {
            return true;
        }
        let Some(vk_list) = partials
            .iter()
            .map(|p| {
                vks.get(&p.index)
                    .filter(|vk| vk.index == p.index)
                    .map(|vk| &vk.pk)
            })
            .collect::<Option<Vec<_>>>()
        else {
            return false;
        };
        let h = self.hash_message(msg);
        if degenerate_hash(&h) {
            return false;
        }
        let h_affine = G1Projective::batch_to_affine(&h);
        // Random weights ρ_i; the batched equation is
        //   e(Π z_i^ρi, ĝ_z)·e(Π r_i^ρi, ĝ_r)
        //     ·e(H_1, Π V̂_{1,i}^ρi)·e(H_2, Π V̂_{2,i}^ρi) = 1.
        let rho = random_weights(partials.len(), rng);
        let zs: Vec<_> = partials.iter().map(|p| p.sig.z).collect();
        let rs: Vec<_> = partials.iter().map(|p| p.sig.r).collect();
        let v1: Vec<_> = vk_list.iter().map(|vk| vk.g_hat[0]).collect();
        let v2: Vec<_> = vk_list.iter().map(|vk| vk.g_hat[1]).collect();
        let z_comb = msm(&zs, &rho).to_affine();
        let r_comb = msm(&rs, &rho).to_affine();
        let v1_comb = msm(&v1, &rho).to_affine();
        let v2_comb = msm(&v2, &rho).to_affine();
        let prep = self.prepared_dp();
        multi_pairing_mixed(
            &[(&h_affine[0], &v1_comb), (&h_affine[1], &v2_comb)],
            &[(&z_comb, &prep.g_z), (&r_comb, &prep.g_r)],
        )
        .is_identity()
    }
}

/// One Groth–Sahai verification statement prepared for batching: the
/// per-message CRS, the committed signature, and the `Ĝ`-side target key
/// (`ĝ₁` for full signatures, `V̂_i` for partials).
struct GsStatement<'a> {
    crs: gs::Crs,
    c_z: &'a gs::Commitment,
    c_r: &'a gs::Commitment,
    proof: &'a gs::Proof,
    target: &'a G2Affine,
}

impl StandardScheme {
    /// Folds `k` Groth–Sahai verification statements (two pairing-product
    /// equations each, one per commitment coordinate) into a single
    /// multi-pairing of `3k + 2` pairs:
    ///
    /// * the `ĝ_z` and `ĝ_r` columns collapse into two MSMs over all
    ///   `2k` weighted commitment coordinates;
    /// * each statement keeps three slots: its two proof components
    ///   `(π̂₁, π̂₂)` against the weighted CRS vectors, and the weighted
    ///   signing base `ρ·g` against its target key.
    fn gs_batch_verify<R: RngCore + ?Sized>(
        &self,
        statements: &[GsStatement<'_>],
        rng: &mut R,
    ) -> bool {
        if statements.is_empty() {
            return true;
        }
        let params = self.params();
        // Two weights per statement: one per commitment coordinate.
        let rho = random_weights(2 * statements.len(), rng);
        let mut cz_points = Vec::with_capacity(2 * statements.len());
        let mut cr_points = Vec::with_capacity(2 * statements.len());
        for s in statements {
            cz_points.extend([s.c_z.c1, s.c_z.c2]);
            cr_points.extend([s.c_r.c1, s.c_r.c2]);
        }
        // Per-statement G1 combinations: the weighted CRS vectors paired
        // with the proof, and ρ₂·g paired with the target key (the §4
        // "extra pair" has the identity in its first coordinate, so only
        // the second equation contributes g). Each statement's three
        // combinations are independent — computed across threads.
        let per_stmt: Vec<[G1Projective; 3]> = par_map_indexed(statements, |i, s| {
            let w = &rho[2 * i..2 * i + 2];
            [
                msm(&[s.crs.u1.0, s.crs.u1.1], w),
                msm(&[s.crs.u2.0, s.crs.u2.1], w),
                params.g.mul(&w[1]),
            ]
        });
        let mut per_statement: Vec<G1Projective> = Vec::with_capacity(3 * statements.len() + 2);
        for triple in per_stmt {
            per_statement.extend(triple);
        }
        per_statement.extend([msm(&cz_points, &rho), msm(&cr_points, &rho)]);
        let flat = G1Projective::batch_to_affine(&per_statement);
        let (per_statement, columns) = flat.split_at(3 * statements.len());
        let prep = self.dp_prepared();
        let mut pairs: Vec<(&G1Affine, &G2Affine)> = Vec::with_capacity(3 * statements.len());
        for (s, g1s) in statements.iter().zip(per_statement.chunks(3)) {
            pairs.push((&g1s[0], &s.proof.pi1));
            pairs.push((&g1s[1], &s.proof.pi2));
            pairs.push((&g1s[2], s.target));
        }
        multi_pairing_mixed(
            &pairs,
            &[(&columns[0], &prep.g_z), (&columns[1], &prep.g_r)],
        )
        .is_identity()
    }

    /// Batch-verifies `k` standard-model signatures on `k` messages under
    /// one public key: one shared multi-pairing (and final
    /// exponentiation) instead of `2k` five-pairing products.
    ///
    /// Returns `true` only if every signature verifies (up to `≈ 2^-255`
    /// batching soundness error); on `false`, fall back to
    /// [`Self::verify`] per item.
    pub fn batch_verify<R: RngCore + ?Sized>(
        &self,
        pk: &StdPublicKey,
        items: &[(&[u8], &StdSignature)],
        rng: &mut R,
    ) -> bool {
        let statements: Vec<GsStatement> = items
            .iter()
            .map(|(msg, sig)| GsStatement {
                crs: self.message_crs(&self.message_digest(msg)),
                c_z: &sig.c_z,
                c_r: &sig.c_r,
                proof: &sig.proof,
                target: &pk.g1,
            })
            .collect();
        self.gs_batch_verify(&statements, rng)
    }

    /// Batch-verifies `k` partial standard-model signatures on the *same*
    /// message (the `Combine` pre-filter): the per-message CRS is
    /// computed once and all `2k` Groth–Sahai equations fold into one
    /// multi-pairing.
    pub fn batch_share_verify<R: RngCore + ?Sized>(
        &self,
        vks: &BTreeMap<u32, StdVerificationKey>,
        msg: &[u8],
        partials: &[StdPartialSignature],
        rng: &mut R,
    ) -> bool {
        let Some(vk_list) = partials
            .iter()
            .map(|p| vks.get(&p.index).filter(|vk| vk.index == p.index))
            .collect::<Option<Vec<&StdVerificationKey>>>()
        else {
            return false;
        };
        let crs = self.message_crs(&self.message_digest(msg));
        let statements: Vec<GsStatement> = partials
            .iter()
            .zip(vk_list.iter())
            .map(|(p, vk)| GsStatement {
                crs,
                c_z: &p.c_z,
                c_r: &p.c_r,
                proof: &p.proof,
                target: &vk.v,
            })
            .collect();
        self.gs_batch_verify(&statements, rng)
    }
}

impl AggregateScheme {
    /// `Aggregate-Verify` with the per-key sanity checks *folded into*
    /// the product equation, sharing one multi-pairing pass. Two
    /// structural reductions make it cheap:
    ///
    /// * **weight-1 normalization** — the single aggregate-signature
    ///   equation carries weight 1 (divide the classically-weighted
    ///   product by its unit weight `ρ₀`), so the message hashes enter
    ///   the Miller loop without any generic scalar multiplication; only
    ///   the `d ≤ ℓ` *distinct-key* validity equations draw fresh random
    ///   weights `ρ_d`;
    /// * **same-key slot collapse** — pairs sharing their `Ĝ`-side key
    ///   merge (`e(A, Q̂)·e(B, Q̂) = e(A+B, Q̂)`), so the whole statement
    ///   list costs `2d + 2` pairings:
    ///
    /// ```text
    /// e(z + Σ_d ρ_d Z_d, ĝ_z)·e(r + Σ_d ρ_d R_d, ĝ_r)
    ///   ·Π_d e(Σ_{i∈d} H₁ᵢ + ρ_d g, ĝ₁_d)·e(Σ_{i∈d} H₂ᵢ + ρ_d h, ĝ₂_d) = 1
    /// ```
    ///
    /// — versus `ℓ` four-pairing key checks plus the `(2ℓ+2)`-pairing
    /// aggregate equation for [`Self::aggregate_verify`], each with its
    /// own final exponentiation. In the paper's compressed
    /// certification-chain deployment `d` (the number of certifying
    /// authorities) is far smaller than `ℓ` (the chain length), so the
    /// pairing count collapses with it. The normalization keeps the
    /// classical soundness bound: if any *key* equation fails, the fresh
    /// `ρ_d` weights make the product non-identity except with
    /// probability `1/(r-1)`; if only the *signature* equation fails, the
    /// product equals its non-identity value deterministically. The
    /// `ρ_d·g`, `ρ_d·h` terms use the scheme's fixed-base tables.
    /// Agreement between the two paths is property-tested in
    /// `tests/adversarial.rs`.
    pub fn aggregate_verify_batched<R: RngCore + ?Sized>(
        &self,
        statements: &[(AggPublicKey, Vec<u8>)],
        agg: &AggregateSignature,
        rng: &mut R,
    ) -> bool {
        if statements.is_empty() {
            return false;
        }
        // Dense-index the distinct keys in first-appearance order (the
        // order fixes which ρ_d each key draws — deterministic for a
        // deterministic RNG, whatever the thread count).
        let mut group_of: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
        let mut distinct: Vec<&AggPublicKey> = Vec::new();
        let mut stmt_group: Vec<usize> = Vec::with_capacity(statements.len());
        for (pk, _) in statements {
            let next = distinct.len();
            let d = *group_of.entry(pk.fingerprint()).or_insert_with(|| {
                distinct.push(pk);
                next
            });
            stmt_group.push(d);
        }
        let rho = random_weights(distinct.len(), rng);
        let zs: Vec<G1Affine> = distinct.iter().map(|pk| pk.z).collect();
        let rs: Vec<G1Affine> = distinct.iter().map(|pk| pk.r).collect();
        let mut points = vec![
            msm(&zs, &rho) + agg.z.to_projective(),
            msm(&rs, &rho) + agg.r.to_projective(),
        ];
        // Per-statement hashing fans out across threads (hash-to-curve
        // dominates); the per-key slot sums are cheap mixed additions.
        let hashes = par_map(statements, |(pk, msg)| self.hash_message(pk, msg));
        let (g_table, h_table) = self.base_tables();
        let mut slots: Vec<[G1Projective; 2]> = rho
            .iter()
            .map(|w| [g_table.mul(w), h_table.mul(w)])
            .collect();
        for (d, h) in stmt_group.iter().zip(hashes) {
            slots[*d][0] += h[0];
            slots[*d][1] += h[1];
        }
        for pair in slots {
            points.extend(pair);
        }
        let points = G1Projective::batch_to_affine(&points);
        let prep = self.prepared_dp();
        let mut pairs: Vec<(&G1Affine, &G2Affine)> = Vec::with_capacity(2 * distinct.len());
        for (pk, h) in distinct.iter().zip(points[2..].chunks(2)) {
            pairs.push((&h[0], &pk.coords[0]));
            pairs.push((&h[1], &pk.coords[1]));
        }
        multi_pairing_mixed(&pairs, &[(&points[0], &prep.g_z), (&points[1], &prep.g_r)])
            .is_identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ro::KeyMaterial;
    use borndist_shamir::ThresholdParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ThresholdScheme, KeyMaterial, StdRng) {
        let scheme = ThresholdScheme::new(b"core-batch-tests");
        let mut r = StdRng::seed_from_u64(0xbadc);
        let km = scheme.dealer_keygen(ThresholdParams::new(2, 6).unwrap(), &mut r);
        (scheme, km, r)
    }

    fn sign_many(scheme: &ThresholdScheme, km: &KeyMaterial, msgs: &[Vec<u8>]) -> Vec<Signature> {
        msgs.iter()
            .map(|m| {
                let partials: Vec<PartialSignature> = (1..=3u32)
                    .map(|i| scheme.share_sign(&km.shares[&i], m))
                    .collect();
                scheme.combine(&km.params, &partials).unwrap()
            })
            .collect()
    }

    #[test]
    fn degenerate_hash_guard_matches_slow_path() {
        // The slow path rejects all-identity message vectors; the batch
        // guard must classify them the same way.
        use borndist_pairing::G1Projective;
        assert!(degenerate_hash(&[
            G1Projective::identity(),
            G1Projective::identity()
        ]));
        assert!(!degenerate_hash(&[
            G1Projective::generator(),
            G1Projective::identity()
        ]));
        assert!(degenerate_hash(&[]));
    }

    #[test]
    fn batch_verify_accepts_valid_and_rejects_forgery() {
        let (scheme, km, mut r) = setup();
        let msgs: Vec<Vec<u8>> = (0..8).map(|i| format!("msg-{}", i).into_bytes()).collect();
        let sigs = sign_many(&scheme, &km, &msgs);
        let items: Vec<(&[u8], &Signature)> = msgs
            .iter()
            .zip(sigs.iter())
            .map(|(m, s)| (m.as_slice(), s))
            .collect();
        assert!(scheme.batch_verify(&km.public_key, &items, &mut r));
        assert!(scheme.batch_verify(&km.public_key, &[], &mut r));
        // Swap one signature onto the wrong message: batch must reject.
        let mut bad_items = items.clone();
        bad_items[3].1 = items[4].1;
        assert!(!scheme.batch_verify(&km.public_key, &bad_items, &mut r));
    }

    #[test]
    fn standard_batch_verify_and_shares() {
        let scheme = StandardScheme::new(b"std-batch");
        let mut r = StdRng::seed_from_u64(0x57d2);
        let km = scheme.dealer_keygen(ThresholdParams::new(1, 4).unwrap(), &mut r);
        let msgs: Vec<Vec<u8>> = (0..4).map(|i| format!("std-{}", i).into_bytes()).collect();
        let sigs: Vec<StdSignature> = msgs
            .iter()
            .map(|m| {
                let partials: Vec<StdPartialSignature> = (1..=2u32)
                    .map(|i| scheme.share_sign(&km.shares[&i], m, &mut r))
                    .collect();
                scheme.combine(&km.params, m, &partials, &mut r).unwrap()
            })
            .collect();
        let items: Vec<(&[u8], &StdSignature)> = msgs
            .iter()
            .zip(sigs.iter())
            .map(|(m, s)| (m.as_slice(), s))
            .collect();
        assert!(scheme.batch_verify(&km.public_key, &items, &mut r));
        let mut bad = items.clone();
        bad[1].1 = items[2].1;
        assert!(!scheme.batch_verify(&km.public_key, &bad, &mut r));

        // Shares on one message.
        let msg = b"std shares";
        let mut partials: Vec<StdPartialSignature> = (1..=4u32)
            .map(|i| scheme.share_sign(&km.shares[&i], msg, &mut r))
            .collect();
        assert!(scheme.batch_share_verify(&km.verification_keys, msg, &partials, &mut r));
        partials[2].c_z = partials[3].c_z;
        assert!(!scheme.batch_share_verify(&km.verification_keys, msg, &partials, &mut r));
    }

    #[test]
    fn aggregate_batched_paths_agree_with_plain() {
        let scheme = AggregateScheme::new(b"agg-batch");
        let mut r = StdRng::seed_from_u64(0xa66);
        let params = ThresholdParams::new(1, 4).unwrap();
        let inputs: Vec<(AggPublicKey, Vec<u8>, Signature)> = (0..3)
            .map(|i| {
                let (pk, km) = scheme.dealer_keygen(params, &mut r);
                let msg = format!("cert-{}", i).into_bytes();
                let partials: Vec<PartialSignature> = (1..=2u32)
                    .map(|j| scheme.share_sign(&pk, &km.shares[&j], &msg))
                    .collect();
                let sig = scheme.combine(&params, &partials).unwrap();
                (pk, msg, sig)
            })
            .collect();
        let agg = scheme.aggregate(&inputs).unwrap();
        let statements: Vec<(AggPublicKey, Vec<u8>)> = inputs
            .iter()
            .map(|(pk, m, _)| (pk.clone(), m.clone()))
            .collect();
        assert!(scheme.aggregate_verify_batched(&statements, &agg, &mut r));
        assert!(scheme.aggregate_verify(&statements, &agg));
        // Tampered statement rejected by both paths.
        let mut bad = statements.clone();
        bad[0].1 = b"cert-X".to_vec();
        assert!(!scheme.aggregate_verify_batched(&bad, &agg, &mut r));
        assert!(!scheme.aggregate_verify(&bad, &agg));
        // A key with a corrupted witness fails the batched check too.
        let mut bad_key = inputs[0].0.clone();
        bad_key.z = bad_key.r;
        let mut bad_stmts = statements.clone();
        bad_stmts[0].0 = bad_key;
        assert!(!scheme.aggregate_verify_batched(&bad_stmts, &agg, &mut r));
        assert!(!scheme.aggregate_verify_batched(&[], &agg, &mut r));
    }
}
