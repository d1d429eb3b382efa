//! The paper's main construction (§3): a fully distributed,
//! non-interactive, robust, adaptively secure threshold signature in the
//! random-oracle model.
//!
//! The scheme *is* the one-time LHSPS of §2.3 with its key secret-shared:
//!
//! * a player's key share `SK_i = {(A_k(i), B_k(i))}_{k=1,2}` is itself an
//!   LHSPS secret key of dimension 2 ([`borndist_lhsps::OneTimeSecretKey`]);
//! * its verification key `V K_i` is the matching LHSPS *public* key;
//! * the global public key `(ĝ_1, ĝ_2)` is the LHSPS public key of the
//!   (never materialized) joint secret — key homomorphism in action;
//! * `Share-Sign` = LHSPS `Sign` on the hashed message `H(M) ∈ G²`;
//! * `Combine` = LHSPS `SignDerive` with Lagrange weights `Δ_{i,S}(0)`;
//! * both `Share-Verify` and `Verify` are the LHSPS verification equation
//!   (a product of four pairings).
//!
//! Signing is non-interactive: a server needs only its 4-scalar share and
//! the message. Shares are `O(1)` size regardless of `n` (experiment E4).

use borndist_dkg::{dkg_session, Behavior, DkgAbort, DkgConfig, DkgOutput, SharingMode};
use borndist_lhsps::{
    sign_derive, DpParams, OneTimePublicKey, OneTimeSecretKey, OneTimeSignature, PreparedDpParams,
    PreparedOneTimePublicKey,
};
use borndist_net::{Metrics, TransportKind};
use borndist_pairing::codec::{CodecError, Wire};
use borndist_pairing::{hash_to_g1_vector, hash_to_g2, Fr, G1Projective, G2Affine};
use borndist_shamir::{
    LagrangeCache, PedersenBases, PedersenCommitment, Polynomial, ThresholdParams,
};
use rand::RngCore;
use std::collections::{BTreeMap, BTreeSet};

/// The threshold signature scheme context: public parameters
/// `params = ((G, Ĝ, G_T), ĝ_z, ĝ_r, H)` of §3.1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThresholdScheme {
    params: DpParams,
    /// Prepared forms of `(ĝ_z, ĝ_r)` — every verification equation of
    /// the scheme pairs against them, so their Miller line coefficients
    /// are cached once at scheme construction (ISSUE 3).
    prepared: PreparedDpParams,
    hash_dst: Vec<u8>,
    /// Memoized `Combine` coefficients per qualified signer set — at
    /// committee scale the signer set stabilizes and every signature
    /// reuses the same `O(k²)` coefficient vector (always compares
    /// equal, so the derived `PartialEq` above stays meaningful).
    lagrange: LagrangeCache,
}

/// The public key `PK = (params, (ĝ_1, ĝ_2))`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PublicKey {
    /// `(ĝ_1, ĝ_2)`.
    pub coords: [G2Affine; 2],
}

/// A server's private key share — four scalars, `O(1)` in `n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyShare {
    /// The server index `i`.
    pub index: u32,
    /// `{(A_k(i), B_k(i))}` packed as an LHSPS key
    /// (`chi = (A_1(i), A_2(i))`, `gamma = (B_1(i), B_2(i))`).
    pub sk: OneTimeSecretKey,
}

/// A server's public verification key `V K_i = (V̂_{1,i}, V̂_{2,i})`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerificationKey {
    /// The server index `i`.
    pub index: u32,
    /// The LHSPS public key matching [`KeyShare::sk`].
    pub pk: OneTimePublicKey,
}

/// A verification key with its pairing line coefficients precomputed —
/// built by a combiner that will check many shares
/// ([`KeyMaterial::prepare_verification_keys`]) so the `Share-Verify`
/// hot path pairs every `Ĝ`-side element through cached coefficients.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreparedVerificationKey {
    /// The server index `i`.
    pub index: u32,
    /// The prepared LHSPS public key.
    pub pk: PreparedOneTimePublicKey,
}

impl VerificationKey {
    /// Precomputes the pairing line coefficients of both coordinates.
    pub fn prepare(&self) -> PreparedVerificationKey {
        PreparedVerificationKey {
            index: self.index,
            pk: self.pk.prepare(),
        }
    }
}

/// The joint public key with prepared coordinates, for verifiers that
/// check many signatures under one key: all four `Ĝ`-side elements of
/// `Verify` then pair through cached line coefficients.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreparedPublicKey {
    /// The plain public key.
    pub key: PublicKey,
    /// Prepared `(ĝ_1, ĝ_2)` packed as a prepared LHSPS key.
    pub pk: PreparedOneTimePublicKey,
}

impl PublicKey {
    /// Precomputes the pairing line coefficients of `(ĝ_1, ĝ_2)`.
    pub fn prepare(&self) -> PreparedPublicKey {
        let pk = OneTimePublicKey {
            g_hat: self.coords.to_vec(),
        };
        PreparedPublicKey {
            key: self.clone(),
            pk: pk.prepare(),
        }
    }
}

/// A partial signature `σ_i = (z_i, r_i) ∈ G²`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartialSignature {
    /// Producing server index.
    pub index: u32,
    /// The share signature.
    pub sig: OneTimeSignature,
}

/// A combined full signature `σ = (z, r) ∈ G²` (768 bits compressed on
/// BLS12-381; 512 bits on the paper's BN254 instantiation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature {
    /// The signature pair.
    pub sig: OneTimeSignature,
}

impl Wire for PublicKey {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.coords[0].encode_to(out);
        self.coords[1].encode_to(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(PublicKey {
            coords: [G2Affine::decode(input)?, G2Affine::decode(input)?],
        })
    }
}

impl Wire for KeyShare {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.index.encode_to(out);
        self.sk.encode_to(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(KeyShare {
            index: u32::decode(input)?,
            sk: OneTimeSecretKey::decode(input)?,
        })
    }
}

impl Wire for VerificationKey {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.index.encode_to(out);
        self.pk.encode_to(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(VerificationKey {
            index: u32::decode(input)?,
            pk: OneTimePublicKey::decode(input)?,
        })
    }
}

impl Wire for PartialSignature {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.index.encode_to(out);
        self.sig.encode_to(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(PartialSignature {
            index: u32::decode(input)?,
            sig: OneTimeSignature::decode(input)?,
        })
    }
}

impl Wire for Signature {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.sig.encode_to(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Signature {
            sig: OneTimeSignature::decode(input)?,
        })
    }
}

/// Everything produced by key generation.
#[derive(Clone, Debug)]
pub struct KeyMaterial {
    /// Threshold parameters used.
    pub params: ThresholdParams,
    /// The joint public key.
    pub public_key: PublicKey,
    /// Per-player secret shares (in a real deployment each server holds
    /// only its own entry; the map exists because we simulate all of them
    /// in-process).
    pub shares: BTreeMap<u32, KeyShare>,
    /// Verification keys for all players `1..=n`.
    pub verification_keys: BTreeMap<u32, VerificationKey>,
    /// Qualified dealer set from the DKG (all players for dealer keygen).
    pub qualified: BTreeSet<u32>,
    /// Combined Pedersen commitments (needed for proactive refresh and
    /// share recovery).
    pub commitments: Vec<PedersenCommitment>,
}

impl KeyMaterial {
    /// Prepared forms of [`Self::verification_keys`], index-aligned, for
    /// the prepared robust-combine paths
    /// ([`ThresholdScheme::combine_verified_prepared`],
    /// [`ThresholdScheme::combine_batch_verified_prepared`],
    /// [`ThresholdScheme::share_verify_prepared`]). Built on request —
    /// `2n` `G2Prepared` line tables, ≈ 39 KB per player — by the caller
    /// that will verify many shares under these keys; after a proactive
    /// refresh the keys change and the map must be built again.
    pub fn prepare_verification_keys(&self) -> BTreeMap<u32, PreparedVerificationKey> {
        self.verification_keys
            .iter()
            .map(|(i, vk)| (*i, vk.prepare()))
            .collect()
    }
}

/// Errors from `Combine`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CombineError {
    /// Fewer than `t+1` partial signatures were supplied.
    NotEnoughShares {
        /// Shares supplied.
        have: usize,
        /// Shares required.
        need: usize,
    },
    /// Share indices contain duplicates or zero.
    BadIndices,
    /// `combine_verified` could not find `t+1` valid partial signatures.
    NotEnoughValidShares {
        /// Valid shares found.
        valid: usize,
        /// Shares required.
        need: usize,
    },
}

impl core::fmt::Display for CombineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CombineError::NotEnoughShares { have, need } => {
                write!(f, "need {} partial signatures, got {}", need, have)
            }
            CombineError::BadIndices => f.write_str("duplicate or zero share indices"),
            CombineError::NotEnoughValidShares { valid, need } => {
                write!(f, "only {} valid partial signatures, need {}", valid, need)
            }
        }
    }
}
impl std::error::Error for CombineError {}

impl ThresholdScheme {
    /// Sets up the scheme context from a protocol tag. Both generators
    /// and the message hash are derived from random oracles, so there is
    /// no trusted parameter generation.
    pub fn new(tag: &[u8]) -> Self {
        let mut t = tag.to_vec();
        t.extend_from_slice(b"/ro-scheme");
        let params = DpParams {
            g_z: hash_to_g2(b"borndist/ro/g_z", &t).to_affine(),
            g_r: hash_to_g2(b"borndist/ro/g_r", &t).to_affine(),
        };
        ThresholdScheme {
            prepared: params.prepare(),
            params,
            hash_dst: t,
            lagrange: LagrangeCache::new(),
        }
    }

    /// Builds a scheme context over existing parameters (used by the
    /// aggregate extension, which shares the generator pair).
    pub(crate) fn with_params(params: DpParams, hash_dst: Vec<u8>) -> Self {
        ThresholdScheme {
            prepared: params.prepare(),
            params,
            hash_dst,
            lagrange: LagrangeCache::new(),
        }
    }

    /// The scheme's `Combine`-coefficient cache (shared across clones).
    pub fn lagrange_cache(&self) -> &LagrangeCache {
        &self.lagrange
    }

    /// The underlying generator pair `(ĝ_z, ĝ_r)`.
    pub fn dp_params(&self) -> &DpParams {
        &self.params
    }

    /// The prepared generator pair (cached Miller line coefficients).
    pub fn prepared_dp(&self) -> &PreparedDpParams {
        &self.prepared
    }

    /// The generators viewed as Pedersen VSS bases (used by the DKG).
    pub fn pedersen_bases(&self) -> PedersenBases {
        PedersenBases {
            g_z: self.params.g_z,
            g_r: self.params.g_r,
        }
    }

    /// The random oracle `H : {0,1}* → G²`.
    pub fn hash_message(&self, msg: &[u8]) -> Vec<G1Projective> {
        hash_to_g1_vector(&self.hash_dst, msg, 2)
    }

    /// `Dist-Keygen` (§3.1): runs Pedersen's DKG over the simulated
    /// network — one active round in the optimistic case — and assembles
    /// the key material. `behaviors` injects Byzantine faults for testing.
    ///
    /// # Errors
    ///
    /// Returns the per-player abort if any *honest-configured* player
    /// failed (which the protocol guarantees not to happen under an
    /// honest majority).
    pub fn keygen_session(
        &self,
        params: ThresholdParams,
        behaviors: &BTreeMap<u32, Behavior>,
        seed: u64,
        transport: &TransportKind,
    ) -> Result<(KeyMaterial, Metrics), DistKeygenError> {
        let cfg = self.dkg_config(params);
        let (outputs, metrics) =
            dkg_session(&cfg, behaviors, seed, transport).map_err(DistKeygenError::Network)?;
        let material = self.assemble(params, &outputs, behaviors)?;
        Ok((material, metrics))
    }

    /// The DKG configuration this scheme's `Dist-Keygen` runs (width-2
    /// fresh sharing over the scheme's Pedersen bases) — what a
    /// distributed deployment hands to [`borndist_dkg::dkg_players`]
    /// when each player drives its own transport.
    pub fn dkg_config(&self, params: ThresholdParams) -> DkgConfig {
        DkgConfig {
            params,
            bases: self.pedersen_bases(),
            width: 2,
            mode: SharingMode::Fresh,
            aggregate: None,
        }
    }

    /// Assembles [`KeyMaterial`] from a *single* player's DKG output —
    /// the distributed-deployment path, where no process ever sees
    /// another player's share. The result carries only this player's
    /// [`KeyShare`]; the public parts (public key, verification keys,
    /// qualified set, commitments) are complete, since every honest
    /// player's output agrees on them.
    pub fn key_material_from_output(
        &self,
        params: ThresholdParams,
        id: u32,
        output: &DkgOutput,
    ) -> KeyMaterial {
        let outputs: BTreeMap<u32, Result<DkgOutput, DkgAbort>> =
            [(id, Ok(output.clone()))].into_iter().collect();
        self.assemble(params, &outputs, &BTreeMap::new())
            .expect("a concrete DKG output always assembles")
    }

    /// Maps DKG outputs into scheme key material.
    pub(crate) fn assemble(
        &self,
        params: ThresholdParams,
        outputs: &BTreeMap<u32, Result<DkgOutput, DkgAbort>>,
        behaviors: &BTreeMap<u32, Behavior>,
    ) -> Result<KeyMaterial, DistKeygenError> {
        // Any honest player's output describes the public state.
        let reference = outputs
            .iter()
            .filter(|(id, _)| behaviors.get(id).is_none_or(Behavior::is_honest))
            .find_map(|(_, o)| o.as_ref().ok())
            .ok_or(DistKeygenError::NoHonestOutput)?;
        let coords = reference.public_key_coordinates();
        let public_key = PublicKey {
            coords: [coords[0], coords[1]],
        };
        let mut shares = BTreeMap::new();
        for (id, out) in outputs {
            if let Ok(o) = out {
                shares.insert(
                    *id,
                    KeyShare {
                        index: *id,
                        sk: OneTimeSecretKey {
                            chi: vec![o.share[0].0, o.share[1].0],
                            gamma: vec![o.share[0].1, o.share[1].1],
                        },
                    },
                );
            }
        }
        let verification_keys: BTreeMap<u32, VerificationKey> = (1..=params.n as u32)
            .map(|i| {
                let vk = reference.verification_key(i);
                (
                    i,
                    VerificationKey {
                        index: i,
                        pk: OneTimePublicKey {
                            g_hat: vec![vk[0], vk[1]],
                        },
                    },
                )
            })
            .collect();
        Ok(KeyMaterial {
            params,
            public_key,
            shares,
            verification_keys,
            qualified: reference.qualified.clone(),
            commitments: reference.combined_commitments.clone(),
        })
    }

    /// Trusted-dealer key generation — not part of the paper's model
    /// (the key should be *born* distributed) but useful to isolate
    /// signing-path benchmarks and tests from the DKG.
    pub fn dealer_keygen<R: RngCore + ?Sized>(
        &self,
        params: ThresholdParams,
        rng: &mut R,
    ) -> KeyMaterial {
        // Master LHSPS key and its public key.
        let master = OneTimeSecretKey::random(2, rng);
        let public_key = PublicKey {
            coords: {
                let pk = master.public_key(&self.params);
                [pk.g_hat[0], pk.g_hat[1]]
            },
        };
        // Share each of the four scalars with a degree-t polynomial.
        let polys: Vec<Polynomial> = [
            master.chi[0],
            master.chi[1],
            master.gamma[0],
            master.gamma[1],
        ]
        .iter()
        .map(|s| Polynomial::random_with_constant(*s, params.t, rng))
        .collect();
        let bases = self.pedersen_bases();
        // Commitments for refresh/recovery compatibility: per k,
        // commit (A_k, B_k) coefficient-wise.
        let commitments: Vec<PedersenCommitment> = (0..2)
            .map(|k| {
                let sharing = borndist_shamir::PedersenSharing::from_polynomials(
                    &bases,
                    polys[k].clone(),
                    polys[k + 2].clone(),
                );
                sharing.commitment
            })
            .collect();
        let mut shares = BTreeMap::new();
        let mut verification_keys = BTreeMap::new();
        for i in 1..=params.n as u32 {
            let sk = OneTimeSecretKey {
                chi: vec![polys[0].evaluate_at_index(i), polys[1].evaluate_at_index(i)],
                gamma: vec![polys[2].evaluate_at_index(i), polys[3].evaluate_at_index(i)],
            };
            verification_keys.insert(
                i,
                VerificationKey {
                    index: i,
                    pk: sk.public_key(&self.params),
                },
            );
            shares.insert(i, KeyShare { index: i, sk });
        }
        KeyMaterial {
            params,
            public_key,
            shares,
            verification_keys,
            qualified: (1..=params.n as u32).collect(),
            commitments,
        }
    }

    /// `Share-Sign`: one non-interactive partial signature — two
    /// 2-base multi-exponentiations plus two hash-on-curve operations
    /// (the §3.1 cost claim, experiment E2).
    pub fn share_sign(&self, share: &KeyShare, msg: &[u8]) -> PartialSignature {
        let h = self.hash_message(msg);
        PartialSignature {
            index: share.index,
            sig: share.sk.sign(&h),
        }
    }

    /// `Share-Verify`: checks `σ_i` against `V K_i` — a product of four
    /// pairings, two of them against the scheme's prepared generators.
    pub fn share_verify(&self, vk: &VerificationKey, msg: &[u8], psig: &PartialSignature) -> bool {
        if vk.index != psig.index {
            return false;
        }
        let h = self.hash_message(msg);
        vk.pk.verify_prepared(&self.prepared, &h, &psig.sig)
    }

    /// [`Self::share_verify`] against a prepared verification key
    /// ([`KeyMaterial::prepare_verification_keys`]): all four `Ĝ`-side pairing
    /// arguments replay cached line coefficients.
    pub fn share_verify_prepared(
        &self,
        vk: &PreparedVerificationKey,
        msg: &[u8],
        psig: &PartialSignature,
    ) -> bool {
        if vk.index != psig.index {
            return false;
        }
        let h = self.hash_message(msg);
        vk.pk.verify(&self.prepared, &h, &psig.sig)
    }

    /// `Combine`: Lagrange interpolation in the exponent over any
    /// `≥ t+1` partial signatures (assumed valid; see
    /// [`Self::combine_verified`] for the robust variant).
    ///
    /// # Errors
    ///
    /// Fails on insufficient shares or bad index sets. Invalid partial
    /// signatures are *not* detected here.
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

    /// Robust combine: filters partial signatures through `Share-Verify`
    /// first, then combines the first `t+1` valid ones. This is the whole
    /// robustness story of the scheme — no restart, no extra round, no
    /// state at the combiner (experiment E3).
    pub fn combine_verified(
        &self,
        params: &ThresholdParams,
        vks: &BTreeMap<u32, VerificationKey>,
        msg: &[u8],
        partials: &[PartialSignature],
    ) -> Result<Signature, CombineError> {
        let valid: Vec<PartialSignature> = partials
            .iter()
            .filter(|p| {
                vks.get(&p.index)
                    .map(|vk| self.share_verify(vk, msg, p))
                    .unwrap_or(false)
            })
            .copied()
            .collect();
        let need = params.reconstruction_size();
        if valid.len() < need {
            return Err(CombineError::NotEnoughValidShares {
                valid: valid.len(),
                need,
            });
        }
        self.combine(params, &valid[..need])
    }

    /// [`Self::combine_verified`] against the prepared verification keys
    /// of [`KeyMaterial::prepare_verification_keys`]: the per-share filter runs
    /// [`Self::share_verify_prepared`], so every `Ĝ`-side pairing
    /// argument replays cached line coefficients.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::combine_verified`].
    pub fn combine_verified_prepared(
        &self,
        params: &ThresholdParams,
        vks: &BTreeMap<u32, PreparedVerificationKey>,
        msg: &[u8],
        partials: &[PartialSignature],
    ) -> Result<Signature, CombineError> {
        let valid: Vec<PartialSignature> = partials
            .iter()
            .filter(|p| {
                vks.get(&p.index)
                    .map(|vk| self.share_verify_prepared(vk, msg, p))
                    .unwrap_or(false)
            })
            .copied()
            .collect();
        let need = params.reconstruction_size();
        if valid.len() < need {
            return Err(CombineError::NotEnoughValidShares {
                valid: valid.len(),
                need,
            });
        }
        self.combine(params, &valid[..need])
    }

    /// `Verify`: the four-pairing check
    /// `e(z, ĝ_z)·e(r, ĝ_r)·e(H_1, ĝ_1)·e(H_2, ĝ_2) = 1` (the generator
    /// slots pair through the scheme's prepared coefficients).
    pub fn verify(&self, pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        let h = self.hash_message(msg);
        let lhsps_pk = OneTimePublicKey {
            g_hat: pk.coords.to_vec(),
        };
        lhsps_pk.verify_prepared(&self.prepared, &h, &sig.sig)
    }

    /// [`Self::verify`] against a prepared public key
    /// ([`PublicKey::prepare`]): all four `Ĝ`-side elements replay cached
    /// line coefficients — the hot path for verifiers that check many
    /// signatures under one long-lived key.
    pub fn verify_prepared(&self, pk: &PreparedPublicKey, msg: &[u8], sig: &Signature) -> bool {
        let h = self.hash_message(msg);
        pk.pk.verify(&self.prepared, &h, &sig.sig)
    }
}

/// Errors from distributed key generation.
#[derive(Debug)]
pub enum DistKeygenError {
    /// The network run failed (any transport, any layer — see
    /// [`borndist_net::Error`]).
    Network(borndist_net::Error),
    /// No honest player produced an output.
    NoHonestOutput,
}

impl core::fmt::Display for DistKeygenError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DistKeygenError::Network(e) => write!(f, "network failure: {}", e),
            DistKeygenError::NoHonestOutput => f.write_str("no honest player finished the DKG"),
        }
    }
}
impl std::error::Error for DistKeygenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistKeygenError::Network(e) => Some(e),
            DistKeygenError::NoHonestOutput => None,
        }
    }
}

impl From<borndist_net::Error> for DistKeygenError {
    fn from(e: borndist_net::Error) -> Self {
        DistKeygenError::Network(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x105)
    }

    fn dealer_setup(t: usize, n: usize) -> (ThresholdScheme, KeyMaterial) {
        let scheme = ThresholdScheme::new(b"ro-tests");
        let mut r = rng();
        let km = scheme.dealer_keygen(ThresholdParams::new(t, n).unwrap(), &mut r);
        (scheme, km)
    }

    #[test]
    fn dealer_keygen_sign_combine_verify() {
        let (scheme, km) = dealer_setup(2, 5);
        let msg = b"attack at dawn";
        let partials: Vec<PartialSignature> = (1..=3u32)
            .map(|i| scheme.share_sign(&km.shares[&i], msg))
            .collect();
        let sig = scheme.combine(&km.params, &partials).unwrap();
        assert!(scheme.verify(&km.public_key, msg, &sig));
        assert!(!scheme.verify(&km.public_key, b"attack at dusk", &sig));
    }

    #[test]
    fn any_quorum_gives_same_signature() {
        // Determinism + uniqueness: every t+1 subset combines to the SAME
        // signature (the scheme is signature-unique under DP).
        let (scheme, km) = dealer_setup(2, 7);
        let msg = b"deterministic";
        let partials: BTreeMap<u32, PartialSignature> = (1..=7u32)
            .map(|i| (i, scheme.share_sign(&km.shares[&i], msg)))
            .collect();
        let quorums: [[u32; 3]; 3] = [[1, 2, 3], [4, 5, 6], [2, 5, 7]];
        let sigs: Vec<Signature> = quorums
            .iter()
            .map(|q| {
                let ps: Vec<_> = q.iter().map(|i| partials[i]).collect();
                scheme.combine(&km.params, &ps).unwrap()
            })
            .collect();
        assert_eq!(sigs[0], sigs[1]);
        assert_eq!(sigs[1], sigs[2]);
        assert!(scheme.verify(&km.public_key, msg, &sigs[0]));
    }

    #[test]
    fn share_verify_accepts_honest_rejects_corrupt() {
        let (scheme, km) = dealer_setup(2, 5);
        let msg = b"m";
        for i in 1..=5u32 {
            let p = scheme.share_sign(&km.shares[&i], msg);
            assert!(scheme.share_verify(&km.verification_keys[&i], msg, &p));
            // Wrong index.
            assert!(!scheme.share_verify(&km.verification_keys[&(i % 5 + 1)], msg, &p));
        }
        let mut bad = scheme.share_sign(&km.shares[&1], msg);
        bad.sig.z = bad.sig.r;
        assert!(!scheme.share_verify(&km.verification_keys[&1], msg, &bad));
    }

    #[test]
    fn t_shares_are_insufficient() {
        let (scheme, km) = dealer_setup(2, 5);
        let msg = b"below threshold";
        let partials: Vec<PartialSignature> = (1..=2u32)
            .map(|i| scheme.share_sign(&km.shares[&i], msg))
            .collect();
        assert_eq!(
            scheme.combine(&km.params, &partials),
            Err(CombineError::NotEnoughShares { have: 2, need: 3 })
        );
    }

    #[test]
    fn more_than_quorum_also_works() {
        let (scheme, km) = dealer_setup(1, 4);
        let msg = b"overfull";
        let partials: Vec<PartialSignature> = (1..=4u32)
            .map(|i| scheme.share_sign(&km.shares[&i], msg))
            .collect();
        let sig = scheme.combine(&km.params, &partials).unwrap();
        assert!(scheme.verify(&km.public_key, msg, &sig));
    }

    #[test]
    fn combine_verified_filters_garbage() {
        let (scheme, km) = dealer_setup(2, 5);
        let msg = b"robust";
        let mut partials: Vec<PartialSignature> = (1..=5u32)
            .map(|i| scheme.share_sign(&km.shares[&i], msg))
            .collect();
        // Corrupt two of the five partials.
        partials[0].sig.z = partials[1].sig.z;
        partials[3].sig.r = partials[1].sig.r;
        let sig = scheme
            .combine_verified(&km.params, &km.verification_keys, msg, &partials)
            .unwrap();
        assert!(scheme.verify(&km.public_key, msg, &sig));
        // With three corrupted, only 2 valid remain -> failure.
        partials[2].sig.z = partials[1].sig.z;
        assert_eq!(
            scheme.combine_verified(&km.params, &km.verification_keys, msg, &partials),
            Err(CombineError::NotEnoughValidShares { valid: 2, need: 3 })
        );
    }

    #[test]
    fn dist_keygen_end_to_end() {
        let scheme = ThresholdScheme::new(b"ro-dkg-e2e");
        let (km, metrics) = scheme
            .keygen_session(
                ThresholdParams::new(1, 4).unwrap(),
                &BTreeMap::new(),
                5,
                &borndist_net::TransportKind::Lockstep,
            )
            .unwrap();
        assert_eq!(metrics.active_rounds, 1);
        let msg = b"born distributed";
        let partials: Vec<PartialSignature> = [1u32, 3]
            .iter()
            .map(|i| scheme.share_sign(&km.shares[i], msg))
            .collect();
        for p in &partials {
            assert!(scheme.share_verify(&km.verification_keys[&p.index], msg, p));
        }
        let sig = scheme.combine(&km.params, &partials).unwrap();
        assert!(scheme.verify(&km.public_key, msg, &sig));
    }

    #[test]
    fn dist_keygen_with_byzantine_dealer() {
        let scheme = ThresholdScheme::new(b"ro-dkg-byz");
        let mut behaviors = BTreeMap::new();
        behaviors.insert(
            2u32,
            Behavior {
                corrupt_shares_to: [3u32].into_iter().collect(),
                refuse_answers: true,
                ..Default::default()
            },
        );
        let (km, _) = scheme
            .keygen_session(
                ThresholdParams::new(1, 4).unwrap(),
                &behaviors,
                6,
                &borndist_net::TransportKind::Lockstep,
            )
            .unwrap();
        // Dealer 2 disqualified; signing still works with any 2 players.
        assert!(!km.qualified.contains(&2));
        let msg = b"still works";
        let partials: Vec<PartialSignature> = [1u32, 4]
            .iter()
            .map(|i| scheme.share_sign(&km.shares[i], msg))
            .collect();
        let sig = scheme.combine(&km.params, &partials).unwrap();
        assert!(scheme.verify(&km.public_key, msg, &sig));
    }

    #[test]
    fn prepared_paths_agree_with_plain_verification() {
        let (scheme, km) = dealer_setup(2, 5);
        let msg = b"prepared";
        // The prepared keys are index-aligned with the plain ones.
        let prepared_vks = km.prepare_verification_keys();
        assert_eq!(prepared_vks.len(), km.verification_keys.len());
        for (i, vk) in &km.verification_keys {
            assert_eq!(prepared_vks[i].index, *i);
            assert_eq!(prepared_vks[i].pk.key, vk.pk);
        }
        let partials: Vec<PartialSignature> = (1..=5u32)
            .map(|i| scheme.share_sign(&km.shares[&i], msg))
            .collect();
        for p in &partials {
            let plain = scheme.share_verify(&km.verification_keys[&p.index], msg, p);
            let fast = scheme.share_verify_prepared(&prepared_vks[&p.index], msg, p);
            assert!(plain && fast);
            // Index mismatch rejected by both.
            let other = &prepared_vks[&(p.index % 5 + 1)];
            assert!(!scheme.share_verify_prepared(other, msg, p));
        }
        // Corrupt partial rejected by both paths.
        let mut bad = partials[0];
        bad.sig.z = bad.sig.r;
        assert!(!scheme.share_verify(&km.verification_keys[&1], msg, &bad));
        assert!(!scheme.share_verify_prepared(&prepared_vks[&1], msg, &bad));
        // Full verification through the prepared public key.
        let sig = scheme.combine(&km.params, &partials[..3]).unwrap();
        let pk_prep = km.public_key.prepare();
        assert_eq!(pk_prep.key, km.public_key);
        assert!(scheme.verify(&km.public_key, msg, &sig));
        assert!(scheme.verify_prepared(&pk_prep, msg, &sig));
        assert!(!scheme.verify_prepared(&pk_prep, b"other message", &sig));
    }

    #[test]
    fn signature_sizes() {
        // E1: signatures are 2 G1 elements = 96 bytes compressed.
        let (scheme, km) = dealer_setup(1, 3);
        let p = scheme.share_sign(&km.shares[&1], b"m");
        let bytes = p.sig.z.to_compressed().len() + p.sig.r.to_compressed().len();
        assert_eq!(bytes, 96);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ThresholdScheme, KeyMaterial, StdRng) {
        let scheme = ThresholdScheme::new(b"batch-tests");
        let mut r = StdRng::seed_from_u64(0xba7c);
        let km = scheme.dealer_keygen(ThresholdParams::new(2, 6).unwrap(), &mut r);
        (scheme, km, r)
    }

    #[test]
    fn batch_accepts_all_valid() {
        let (scheme, km, mut r) = setup();
        let msg = b"batch me";
        let partials: Vec<PartialSignature> = (1..=6u32)
            .map(|i| scheme.share_sign(&km.shares[&i], msg))
            .collect();
        assert!(scheme.batch_share_verify(&km.verification_keys, msg, &partials, &mut r));
        // Empty batch is vacuously true.
        assert!(scheme.batch_share_verify(&km.verification_keys, msg, &[], &mut r));
    }

    #[test]
    fn batch_rejects_any_single_corruption() {
        let (scheme, km, mut r) = setup();
        let msg = b"batch me";
        for victim in 0..3usize {
            let mut partials: Vec<PartialSignature> = (1..=6u32)
                .map(|i| scheme.share_sign(&km.shares[&i], msg))
                .collect();
            partials[victim].sig.z = partials[(victim + 1) % 6].sig.z;
            assert!(
                !scheme.batch_share_verify(&km.verification_keys, msg, &partials, &mut r),
                "corruption at {} slipped through",
                victim
            );
        }
    }

    #[test]
    fn batch_rejects_cancellation_attempts() {
        // Two partials corrupted in "opposite" directions must not cancel
        // (the random weights prevent it).
        let (scheme, km, mut r) = setup();
        let msg = b"no cancelling";
        let mut partials: Vec<PartialSignature> = (1..=6u32)
            .map(|i| scheme.share_sign(&km.shares[&i], msg))
            .collect();
        let delta = G1Projective::generator();
        partials[0].sig.z = (partials[0].sig.z.to_projective() + delta).to_affine();
        partials[1].sig.z = (partials[1].sig.z.to_projective() - delta).to_affine();
        assert!(!scheme.batch_share_verify(&km.verification_keys, msg, &partials, &mut r));
    }

    #[test]
    fn batch_rejects_unknown_or_mismatched_index() {
        let (scheme, km, mut r) = setup();
        let msg = b"who are you";
        let mut p = scheme.share_sign(&km.shares[&1], msg);
        p.index = 99;
        assert!(!scheme.batch_share_verify(&km.verification_keys, msg, &[p], &mut r));
    }

    #[test]
    fn batch_agrees_with_individual_verification() {
        let (scheme, km, mut r) = setup();
        let msg = b"consistency";
        let partials: Vec<PartialSignature> = (1..=4u32)
            .map(|i| scheme.share_sign(&km.shares[&i], msg))
            .collect();
        let individual_ok = partials
            .iter()
            .all(|p| scheme.share_verify(&km.verification_keys[&p.index], msg, p));
        let batch_ok = scheme.batch_share_verify(&km.verification_keys, msg, &partials, &mut r);
        assert_eq!(individual_ok, batch_ok);
    }
}
