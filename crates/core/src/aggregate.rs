//! Appendix G: threshold signatures with *unrestricted aggregation*.
//!
//! The scheme of §3 extended so that signatures under distinct
//! (distributively generated) public keys compress into one 2-element
//! signature. Each public key carries a built-in validity proof
//! `(Z, R)` — a one-time LHSPS on the public vector `(g, h)` — produced
//! during the DKG; aggregate verification first sanity-checks every key
//! (`e(Z,ĝ_z)·e(R,ĝ_r)·e(g,ĝ_1)·e(h,ĝ_2) = 1`) and then checks the single
//! product equation over all message hashes. Signing binds the public key
//! by hashing `PK ‖ M`.
//!
//! In the paper's motivating deployment this enables *de-centralized
//! certification authorities with compressed certification chains*
//! (experiment E7).

use crate::ro::{CombineError, KeyMaterial, PartialSignature, Signature};
use borndist_dkg::{dkg_session, AggregateBases, Appendix, Behavior, DkgConfig, SharingMode};
use borndist_lhsps::{sign_derive, DpParams, OneTimeSecretKey, OneTimeSignature, PreparedDpParams};
use borndist_net::{CodecError, Metrics, TransportKind, Wire};
use borndist_pairing::{
    hash_to_g1, hash_to_g1_vector, hash_to_g2, msm, multi_pairing_mixed, Fr, G1Affine,
    G1Projective, G1Table, G2Affine,
};
use borndist_shamir::{
    lagrange_coefficients_at_zero, LagrangeCache, PedersenBases, ThresholdParams,
};
use rand::RngCore;
use std::collections::BTreeMap;

/// An aggregate-capable public key: the §3 key plus its validity witness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggPublicKey {
    /// `(ĝ_1, ĝ_2)`.
    pub coords: [G2Affine; 2],
    /// Witness `Z = Π Z_{i0}`.
    pub z: G1Affine,
    /// Witness `R = Π R_{i0}`.
    pub r: G1Affine,
}

impl AggPublicKey {
    /// Canonical byte fingerprint (compressed coordinates plus witness):
    /// the equality/grouping key used by the batched verifiers to
    /// collapse repeated keys and by the gateway's prepared-pairing
    /// cache.
    pub fn fingerprint(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 * 96);
        out.extend_from_slice(&self.coords[0].to_compressed());
        out.extend_from_slice(&self.coords[1].to_compressed());
        out.extend_from_slice(&self.z.to_compressed());
        out.extend_from_slice(&self.r.to_compressed());
        out
    }
}

impl Wire for AggPublicKey {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.coords[0].encode_to(out);
        self.coords[1].encode_to(out);
        self.z.encode_to(out);
        self.r.encode_to(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(AggPublicKey {
            coords: [G2Affine::decode(input)?, G2Affine::decode(input)?],
            z: G1Affine::decode(input)?,
            r: G1Affine::decode(input)?,
        })
    }
}

/// An aggregate of `ℓ` signatures: still just `(z, r) ∈ G²`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AggregateSignature {
    /// Combined `z`.
    pub z: G1Affine,
    /// Combined `r`.
    pub r: G1Affine,
}

/// Errors from aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggregateError {
    /// One of the input signatures fails individual verification.
    InvalidInput {
        /// Position in the input slice.
        position: usize,
    },
    /// Empty input.
    Empty,
}

impl core::fmt::Display for AggregateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AggregateError::InvalidInput { position } => {
                write!(f, "signature at position {} is invalid", position)
            }
            AggregateError::Empty => f.write_str("nothing to aggregate"),
        }
    }
}
impl std::error::Error for AggregateError {}

/// The aggregate threshold scheme context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggregateScheme {
    params: DpParams,
    /// Prepared `(ĝ_z, ĝ_r)` — cached at construction; every key-check
    /// and aggregate equation pairs against them.
    prepared: PreparedDpParams,
    /// Extra generators `(g, h) ∈ G²` for the key-validity witness.
    pub bases: AggregateBases,
    /// Fixed-base window tables for `(g, h)`: every batched key check
    /// multiplies these two scheme constants by fresh random weights, so
    /// the table build (once per scheme) converts those to ~64 mixed
    /// additions each.
    g_table: G1Table,
    h_table: G1Table,
    hash_dst: Vec<u8>,
    /// Memoized `Combine` coefficients per signer set (always compares
    /// equal; shared across clones).
    lagrange: LagrangeCache,
}

impl AggregateScheme {
    /// Derives the scheme context from a protocol tag.
    pub fn new(tag: &[u8]) -> Self {
        let mut t = tag.to_vec();
        t.extend_from_slice(b"/aggregate-scheme");
        let params = DpParams {
            g_z: hash_to_g2(b"borndist/agg/g_z", &t).to_affine(),
            g_r: hash_to_g2(b"borndist/agg/g_r", &t).to_affine(),
        };
        let bases = AggregateBases {
            g: hash_to_g1(b"borndist/agg/g", &t).to_affine(),
            h: hash_to_g1(b"borndist/agg/h", &t).to_affine(),
        };
        AggregateScheme {
            prepared: params.prepare(),
            params,
            g_table: G1Table::new(&bases.g.to_projective()),
            h_table: G1Table::new(&bases.h.to_projective()),
            bases,
            hash_dst: t,
            lagrange: LagrangeCache::new(),
        }
    }

    /// The prepared generator pair (cached Miller line coefficients).
    pub(crate) fn prepared_dp(&self) -> &PreparedDpParams {
        &self.prepared
    }

    /// The fixed-base tables for `(g, h)` (batched key checks).
    pub(crate) fn base_tables(&self) -> (&G1Table, &G1Table) {
        (&self.g_table, &self.h_table)
    }

    /// Hashes `PK ‖ M` to `G²` (the scheme binds the key into the hash).
    pub fn hash_message(&self, pk: &AggPublicKey, msg: &[u8]) -> Vec<G1Projective> {
        let mut input = Vec::new();
        input.extend_from_slice(&pk.coords[0].to_compressed());
        input.extend_from_slice(&pk.coords[1].to_compressed());
        input.extend_from_slice(&pk.z.to_compressed());
        input.extend_from_slice(&pk.r.to_compressed());
        input.extend_from_slice(msg);
        hash_to_g1_vector(&self.hash_dst, &input, 2)
    }

    /// The paper's public-key sanity check (generator slots prepared).
    pub fn key_valid(&self, pk: &AggPublicKey) -> bool {
        multi_pairing_mixed(
            &[
                (&self.bases.g, &pk.coords[0]),
                (&self.bases.h, &pk.coords[1]),
            ],
            &[(&pk.z, &self.prepared.g_z), (&pk.r, &self.prepared.g_r)],
        )
        .is_identity()
    }

    /// `Dist-Keygen` with the Appendix G witness broadcast, over any
    /// transport.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::ro::ThresholdScheme::keygen_session`].
    pub fn dist_keygen(
        &self,
        params: ThresholdParams,
        behaviors: &BTreeMap<u32, Behavior>,
        seed: u64,
        transport: &TransportKind,
    ) -> Result<(AggPublicKey, KeyMaterial, Metrics), crate::ro::DistKeygenError> {
        let cfg = DkgConfig {
            params,
            bases: PedersenBases {
                g_z: self.params.g_z,
                g_r: self.params.g_r,
            },
            width: 2,
            mode: SharingMode::Fresh,
            appendix: Appendix::Aggregate(self.bases),
        };
        let (outputs, metrics) = dkg_session(&cfg, behaviors, seed, transport)
            .map_err(crate::ro::DistKeygenError::Network)?;
        // Reuse the §3 assembly for shares/VKs, then attach the witness.
        let scheme = crate::ro::ThresholdScheme::with_params(self.params, self.hash_dst.clone());
        let material = scheme.assemble(params, &outputs, behaviors)?;
        let witness = crate::ro::honest_reference(&outputs, behaviors)
            .and_then(|o| o.aggregate_witness)
            .expect("an assembled aggregate DKG has an honest output with a witness");
        let pk = AggPublicKey {
            coords: material.public_key.coords,
            z: witness.z0,
            r: witness.r0,
        };
        Ok((pk, material, metrics))
    }

    /// Trusted-dealer keygen (testing/bench isolation).
    pub fn dealer_keygen<R: RngCore + ?Sized>(
        &self,
        params: ThresholdParams,
        rng: &mut R,
    ) -> (AggPublicKey, KeyMaterial) {
        let scheme = crate::ro::ThresholdScheme::with_params(self.params, self.hash_dst.clone());
        let material = scheme.dealer_keygen(params, rng);
        // Recompute the witness from the joint secret: the dealer knows
        // the master key, so it can sign (g, h) directly. Reconstruct the
        // master from t+1 shares (dealer-side only).
        let indices: Vec<u32> = material.shares.keys().copied().take(params.t + 1).collect();
        let coeffs = lagrange_coefficients_at_zero(&indices).expect("valid indices");
        let mut chi = vec![Fr::zero(); 2];
        let mut gamma = vec![Fr::zero(); 2];
        for (idx, c) in indices.iter().zip(coeffs.iter()) {
            let sk = &material.shares[idx].sk;
            for k in 0..2 {
                chi[k] += sk.chi[k] * *c;
                gamma[k] += sk.gamma[k] * *c;
            }
        }
        let master = OneTimeSecretKey { chi, gamma };
        let w = master.sign(&[self.bases.g.to_projective(), self.bases.h.to_projective()]);
        let pk = AggPublicKey {
            coords: material.public_key.coords,
            z: w.z,
            r: w.r,
        };
        (pk, material)
    }

    /// `Share-Sign` on `PK ‖ M`.
    pub fn share_sign(
        &self,
        pk: &AggPublicKey,
        share: &crate::ro::KeyShare,
        msg: &[u8],
    ) -> PartialSignature {
        let h = self.hash_message(pk, msg);
        PartialSignature {
            index: share.index,
            sig: share.sk.sign(&h),
        }
    }

    /// `Share-Verify` against `V K_i`.
    pub fn share_verify(
        &self,
        pk: &AggPublicKey,
        vk: &crate::ro::VerificationKey,
        msg: &[u8],
        psig: &PartialSignature,
    ) -> bool {
        if vk.index != psig.index {
            return false;
        }
        let h = self.hash_message(pk, msg);
        vk.pk.verify_prepared(&self.prepared, &h, &psig.sig)
    }

    /// `Combine` by Lagrange interpolation in the exponent.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::ro::ThresholdScheme::combine`].
    pub fn combine(
        &self,
        params: &ThresholdParams,
        partials: &[PartialSignature],
    ) -> Result<Signature, CombineError> {
        if partials.len() < params.reconstruction_size() {
            return Err(CombineError::NotEnoughShares {
                have: partials.len(),
                need: params.reconstruction_size(),
            });
        }
        let indices: Vec<u32> = partials.iter().map(|p| p.index).collect();
        let coeffs = self
            .lagrange
            .at_zero(&indices)
            .map_err(|_| CombineError::BadIndices)?;
        let weighted: Vec<(Fr, &OneTimeSignature)> = coeffs
            .iter()
            .copied()
            .zip(partials.iter().map(|p| &p.sig))
            .collect();
        Ok(Signature {
            sig: sign_derive(&weighted),
        })
    }

    /// Verifies a single full signature (the `ℓ = 1` special case of
    /// aggregate verification).
    pub fn verify(&self, pk: &AggPublicKey, msg: &[u8], sig: &Signature) -> bool {
        self.aggregate_verify(
            &[(pk.clone(), msg.to_vec())],
            &AggregateSignature {
                z: sig.sig.z,
                r: sig.sig.r,
            },
        )
    }

    /// `Aggregate`: verifies each input and multiplies componentwise.
    ///
    /// # Errors
    ///
    /// Rejects empty input and any individually invalid signature
    /// (matching the paper's `Aggregate`, which returns `⊥` in that case).
    pub fn aggregate(
        &self,
        inputs: &[(AggPublicKey, Vec<u8>, Signature)],
    ) -> Result<AggregateSignature, AggregateError> {
        if inputs.is_empty() {
            return Err(AggregateError::Empty);
        }
        for (pos, (pk, msg, sig)) in inputs.iter().enumerate() {
            if !self.verify(pk, msg, sig) {
                return Err(AggregateError::InvalidInput { position: pos });
            }
        }
        let zs: Vec<G1Affine> = inputs.iter().map(|(_, _, s)| s.sig.z).collect();
        let rs: Vec<G1Affine> = inputs.iter().map(|(_, _, s)| s.sig.r).collect();
        let ones = vec![Fr::one(); inputs.len()];
        Ok(AggregateSignature {
            z: msm(&zs, &ones).to_affine(),
            r: msm(&rs, &ones).to_affine(),
        })
    }

    /// `Aggregate-Verify`: per-key sanity checks plus one `(2ℓ+2)`-pairing
    /// product equation.
    pub fn aggregate_verify(
        &self,
        statements: &[(AggPublicKey, Vec<u8>)],
        agg: &AggregateSignature,
    ) -> bool {
        if statements.is_empty() {
            return false;
        }
        for (pk, _) in statements {
            if !self.key_valid(pk) {
                return false;
            }
        }
        let hashes: Vec<Vec<G1Affine>> = statements
            .iter()
            .map(|(pk, msg)| G1Projective::batch_to_affine(&self.hash_message(pk, msg)))
            .collect();
        let mut pairs: Vec<(&G1Affine, &G2Affine)> = Vec::with_capacity(2 * statements.len());
        for ((pk, _), h) in statements.iter().zip(hashes.iter()) {
            pairs.push((&h[0], &pk.coords[0]));
            pairs.push((&h[1], &pk.coords[1]));
        }
        multi_pairing_mixed(
            &pairs,
            &[(&agg.z, &self.prepared.g_z), (&agg.r, &self.prepared.g_r)],
        )
        .is_identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup_authority(
        scheme: &AggregateScheme,
        t: usize,
        n: usize,
        seed: u64,
    ) -> (AggPublicKey, KeyMaterial) {
        let mut r = StdRng::seed_from_u64(seed);
        scheme.dealer_keygen(ThresholdParams::new(t, n).unwrap(), &mut r)
    }

    fn threshold_sign(
        scheme: &AggregateScheme,
        pk: &AggPublicKey,
        km: &KeyMaterial,
        msg: &[u8],
    ) -> Signature {
        let partials: Vec<PartialSignature> = km
            .shares
            .values()
            .take(km.params.t + 1)
            .map(|s| scheme.share_sign(pk, s, msg))
            .collect();
        scheme.combine(&km.params, &partials).unwrap()
    }

    #[test]
    fn dealer_key_passes_sanity_check() {
        let scheme = AggregateScheme::new(b"agg-test");
        let (pk, _) = setup_authority(&scheme, 1, 4, 1);
        assert!(scheme.key_valid(&pk));
        let mut bad = pk.clone();
        bad.z = bad.r;
        assert!(!scheme.key_valid(&bad));
    }

    #[test]
    fn single_signature_verifies() {
        let scheme = AggregateScheme::new(b"agg-test");
        let (pk, km) = setup_authority(&scheme, 1, 4, 2);
        let sig = threshold_sign(&scheme, &pk, &km, b"cert-0");
        assert!(scheme.verify(&pk, b"cert-0", &sig));
        assert!(!scheme.verify(&pk, b"cert-1", &sig));
    }

    #[test]
    fn aggregation_of_three_authorities() {
        let scheme = AggregateScheme::new(b"agg-test");
        let auths: Vec<(AggPublicKey, KeyMaterial)> = (0..3)
            .map(|i| setup_authority(&scheme, 1, 4, 10 + i))
            .collect();
        let inputs: Vec<(AggPublicKey, Vec<u8>, Signature)> = auths
            .iter()
            .enumerate()
            .map(|(i, (pk, km))| {
                let msg = format!("certificate-{}", i).into_bytes();
                let sig = threshold_sign(&scheme, pk, km, &msg);
                (pk.clone(), msg, sig)
            })
            .collect();
        let agg = scheme.aggregate(&inputs).unwrap();
        let statements: Vec<(AggPublicKey, Vec<u8>)> = inputs
            .iter()
            .map(|(pk, m, _)| (pk.clone(), m.clone()))
            .collect();
        assert!(scheme.aggregate_verify(&statements, &agg));

        // Any statement mismatch breaks it.
        let mut tampered = statements.clone();
        tampered[1].1 = b"certificate-X".to_vec();
        assert!(!scheme.aggregate_verify(&tampered, &agg));
    }

    #[test]
    fn aggregate_rejects_invalid_member() {
        let scheme = AggregateScheme::new(b"agg-test");
        let (pk, km) = setup_authority(&scheme, 1, 4, 20);
        let good = threshold_sign(&scheme, &pk, &km, b"ok");
        let bad = Signature {
            sig: borndist_lhsps::OneTimeSignature {
                z: good.sig.r,
                r: good.sig.z,
            },
        };
        let err = scheme
            .aggregate(&[
                (pk.clone(), b"ok".to_vec(), good),
                (pk.clone(), b"bad".to_vec(), bad),
            ])
            .unwrap_err();
        assert_eq!(err, AggregateError::InvalidInput { position: 1 });
    }

    #[test]
    fn same_signer_multiple_messages() {
        // Bellare-Namprempre-Neven style: unrestricted aggregation allows
        // repeats of the same key.
        let scheme = AggregateScheme::new(b"agg-test");
        let (pk, km) = setup_authority(&scheme, 1, 4, 30);
        let inputs: Vec<(AggPublicKey, Vec<u8>, Signature)> = (0..3)
            .map(|i| {
                let msg = format!("m{}", i).into_bytes();
                let sig = threshold_sign(&scheme, &pk, &km, &msg);
                (pk.clone(), msg, sig)
            })
            .collect();
        let agg = scheme.aggregate(&inputs).unwrap();
        let statements: Vec<_> = inputs
            .iter()
            .map(|(p, m, _)| (p.clone(), m.clone()))
            .collect();
        assert!(scheme.aggregate_verify(&statements, &agg));
    }

    #[test]
    fn dkg_born_aggregate_key() {
        let scheme = AggregateScheme::new(b"agg-dkg");
        let (pk, km, metrics) = scheme
            .dist_keygen(
                ThresholdParams::new(1, 4).unwrap(),
                &BTreeMap::new(),
                77,
                &TransportKind::Lockstep,
            )
            .unwrap();
        assert_eq!(metrics.active_rounds, 1);
        assert!(scheme.key_valid(&pk));
        let sig = threshold_sign(&scheme, &pk, &km, b"distributed cert");
        assert!(scheme.verify(&pk, b"distributed cert", &sig));
    }
}
