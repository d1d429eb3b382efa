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

use borndist_dkg::{dkg_session, Appendix, Behavior, DkgAbort, DkgConfig, DkgOutput, SharingMode};
use borndist_lhsps::{
    sign_derive, DpParams, OneTimePublicKey, OneTimeSecretKey, OneTimeSignature, PreparedDpParams,
};
use borndist_net::{Metrics, TransportKind};
use borndist_pairing::codec::{CodecError, Wire};
use borndist_pairing::{hash_to_g1_vector, hash_to_g2, Fr, G1Projective, G2Affine, G2Projective};
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
            appendix: Appendix::None,
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
        let reference =
            honest_reference(outputs, behaviors).ok_or(DistKeygenError::NoHonestOutput)?;
        let coords = reference.public_key_coordinates();
        let public_key = PublicKey {
            coords: [coords[0], coords[1]],
        };
        let (shares, verification_keys) = scheme_keys(
            params.n,
            reference,
            outputs,
            |index, s| KeyShare {
                index,
                sk: OneTimeSecretKey {
                    chi: vec![s[0].0, s[1].0],
                    gamma: vec![s[0].1, s[1].1],
                },
            },
            |index, vk| VerificationKey {
                index,
                pk: OneTimePublicKey { g_hat: vk.to_vec() },
            },
        );
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

    /// Robust `Combine`: one [`Combiner`] run over `partials`. The first
    /// `t+1` usable partials are combined and the result checked once
    /// with `Verify` against `pk`; `Share-Verify` runs only when that
    /// check fails, to drop the invalid partials before recombining.
    /// All-honest input therefore costs one `Verify`, and a forgery
    /// costs at most one fallback — no restart, no extra round
    /// (experiment E3). A partial is usable if its index has a key in
    /// `vks` and did not already occur.
    ///
    /// # Errors
    ///
    /// [`CombineError::NotEnoughShares`] when fewer than `t+1` usable
    /// partials are supplied, and [`CombineError::NotEnoughValidShares`]
    /// when fewer than `t+1` of them pass `Share-Verify`.
    pub fn combine_verified(
        &self,
        params: &ThresholdParams,
        pk: &PublicKey,
        vks: &BTreeMap<u32, VerificationKey>,
        msg: &[u8],
        partials: &[PartialSignature],
    ) -> Result<Signature, CombineError> {
        let committee = Committee::new(self.clone(), *params, pk.clone(), vks.clone());
        let mut combiner = Combiner::default();
        for psig in partials {
            combiner.offer(&committee, psig.index, psig);
        }
        let need = params.reconstruction_size();
        if combiner.held.len() < need {
            return Err(CombineError::NotEnoughShares {
                have: combiner.held.len(),
                need,
            });
        }
        let sig = combiner.try_combine(&committee, msg);
        sig.ok_or(CombineError::NotEnoughValidShares {
            valid: combiner.held.len(),
            need,
        })
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
}

/// What a combiner knows about the committee whose partials it
/// combines: the scheme, the threshold, the joint public key and every
/// signer's verification key.
pub struct Committee {
    pub(crate) scheme: ThresholdScheme,
    params: ThresholdParams,
    public_key: PublicKey,
    pub(crate) vks: BTreeMap<u32, VerificationKey>,
    /// Pairing checks the combiners of this committee ran.
    #[cfg(test)]
    pub(crate) calls: std::sync::Arc<CombinerCalls>,
}

#[cfg(test)]
#[derive(Default)]
pub(crate) struct CombinerCalls {
    /// `Verify` calls on a combined signature.
    pub(crate) verifies: std::sync::atomic::AtomicUsize,
    /// `Share-Verify` calls made by fallbacks.
    pub(crate) fallback_checks: std::sync::atomic::AtomicUsize,
}

impl Committee {
    /// The committee of `scheme` at `params`, signing under `public_key`
    /// with verification keys `vks`.
    pub fn new(
        scheme: ThresholdScheme,
        params: ThresholdParams,
        public_key: PublicKey,
        vks: BTreeMap<u32, VerificationKey>,
    ) -> Self {
        Committee {
            scheme,
            params,
            public_key,
            vks,
            #[cfg(test)]
            calls: Default::default(),
        }
    }
}

/// The scheme's robust `Combine`, for one message: collects partials
/// *unverified*, combines the first `t+1`, verifies the *combined*
/// signature, and falls back to `Share-Verify` only when that fails —
/// which is what public share verifiability is for: naming the culprit,
/// not taxing every honest partial. Anyone holding the [`Committee`]
/// can run it; [`Combiner::default`] holds and vouches for nothing.
#[derive(Default)]
pub struct Combiner {
    /// Partials held, by signer index (the first one per index wins).
    pub(crate) held: BTreeMap<u32, PartialSignature>,
    /// Held indices known valid: the survivors of a fallback, which a
    /// later fallback does not re-check.
    vouched: BTreeSet<u32>,
    /// Indices `Share-Verify` rejected. Nothing from them is collected
    /// again, so anything more a rejected signer sends costs no pairing.
    pub(crate) rejected: BTreeSet<u32>,
}

impl Combiner {
    /// Collects `psig`, unverified, if `from` sent it under its own
    /// index, that index has a verification key and was not rejected.
    pub fn offer(&mut self, committee: &Committee, from: u32, psig: &PartialSignature) {
        if psig.index == from
            && committee.vks.contains_key(&psig.index)
            && !self.rejected.contains(&psig.index)
        {
            self.held.entry(psig.index).or_insert(*psig);
        }
    }

    fn combine_first(&self, committee: &Committee) -> Option<Signature> {
        let quorum = committee.params.reconstruction_size();
        if self.held.len() < quorum {
            return None;
        }
        let first: Vec<PartialSignature> = self.held.values().take(quorum).copied().collect();
        Some(
            committee
                .scheme
                .combine(&committee.params, &first)
                .expect("t+1 partials at distinct verification-key indices"),
        )
    }

    fn verified(committee: &Committee, msg: &[u8], sig: Signature) -> Option<Signature> {
        #[cfg(test)]
        committee
            .calls
            .verifies
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        committee
            .scheme
            .verify(&committee.public_key, msg, &sig)
            .then_some(sig)
    }

    /// The signature on `msg` once `t+1` valid partials are held, `None`
    /// until then. Whatever is returned has passed `Verify`.
    pub fn try_combine(&mut self, committee: &Committee, msg: &[u8]) -> Option<Signature> {
        let sig = self.combine_first(committee)?;
        if let Some(sig) = Self::verified(committee, msg, sig) {
            return Some(sig);
        }
        // Some held partial is invalid: Share-Verify names which. Every
        // failed combine rejects at least one signer for good, so a
        // Byzantine signer forces at most one pass through here.
        let offenders: Vec<u32> = self
            .held
            .iter()
            .filter(|(index, psig)| {
                if self.vouched.contains(index) {
                    return false;
                }
                #[cfg(test)]
                committee
                    .calls
                    .fallback_checks
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                !committee
                    .scheme
                    .share_verify(&committee.vks[index], msg, psig)
            })
            .map(|(index, _)| *index)
            .collect();
        for index in &offenders {
            self.held.remove(index);
        }
        self.rejected.extend(offenders);
        self.vouched = self.held.keys().copied().collect();
        let sig = self.combine_first(committee)?;
        Self::verified(committee, msg, sig)
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

/// The output every scheme reads a `Dist-Keygen`'s public state from:
/// the first honest-configured player that finished (every honest
/// player's output agrees on it).
pub(crate) fn honest_reference<'a>(
    outputs: &'a BTreeMap<u32, Result<DkgOutput, DkgAbort>>,
    behaviors: &BTreeMap<u32, Behavior>,
) -> Option<&'a DkgOutput> {
    outputs
        .iter()
        .filter(|(id, _)| behaviors.get(id).is_none_or(Behavior::is_honest))
        .find_map(|(_, o)| o.as_ref().ok())
}

/// One scheme's key shares and verification keys from a `Dist-Keygen`:
/// `share` maps each finished player's [`DkgOutput::share`] columns,
/// `vk` each player's verification-key columns (identities outside
/// `reference`'s QUAL).
pub(crate) fn scheme_keys<S, V>(
    n: usize,
    reference: &DkgOutput,
    outputs: &BTreeMap<u32, Result<DkgOutput, DkgAbort>>,
    share: impl Fn(u32, &[(Fr, Fr)]) -> S,
    vk: impl Fn(u32, &[G2Affine]) -> V,
) -> (BTreeMap<u32, S>, BTreeMap<u32, V>) {
    let shares = outputs
        .iter()
        .filter_map(|(id, o)| Some((*id, share(*id, &o.as_ref().ok()?.share))))
        .collect();
    let vks = verification_keys(&reference.combined_commitments, n, |i| {
        reference.qualified.contains(&i)
    })
    .into_iter()
    .zip(1..)
    .map(|(v, i)| (i, vk(i, &v)))
    .collect();
    (shares, vks)
}

/// Every player's verification key `V̂_{k,i} = Π_ℓ Ŵ_{kℓ}^{i^ℓ}` for
/// `i = 1..=n` (position `i − 1`), as [`DkgOutput::verification_key`]
/// defines it: players `keyed` rejects get identities. All `n · width`
/// points share one `batch_to_affine`.
pub(crate) fn verification_keys(
    commitments: &[PedersenCommitment],
    n: usize,
    keyed: impl Fn(u32) -> bool,
) -> Vec<Vec<G2Affine>> {
    let evals: Vec<G2Projective> = (1..=n as u32)
        .flat_map(|i| {
            let keyed = keyed(i);
            commitments.iter().map(move |c| {
                if keyed {
                    c.evaluate_at_index(i)
                } else {
                    G2Projective::identity()
                }
            })
        })
        .collect();
    G2Projective::batch_to_affine(&evals)
        .chunks(commitments.len())
        .map(<[G2Affine]>::to_vec)
        .collect()
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
            .combine_verified(
                &km.params,
                &km.public_key,
                &km.verification_keys,
                msg,
                &partials,
            )
            .unwrap();
        assert!(scheme.verify(&km.public_key, msg, &sig));
        // With three corrupted, only 2 valid remain -> failure.
        partials[2].sig.z = partials[1].sig.z;
        assert_eq!(
            scheme.combine_verified(
                &km.params,
                &km.public_key,
                &km.verification_keys,
                msg,
                &partials
            ),
            Err(CombineError::NotEnoughValidShares { valid: 2, need: 3 })
        );
    }

    #[test]
    fn combine_verified_counts_only_usable_partials() {
        // Below t+1 usable partials nothing is combined or checked: a
        // repeated index and an index without a key do not count.
        let (scheme, km) = dealer_setup(2, 5);
        let msg = b"too few";
        let p1 = scheme.share_sign(&km.shares[&1], msg);
        let p2 = scheme.share_sign(&km.shares[&2], msg);
        let alien = PartialSignature { index: 9, ..p1 };
        let combine = |partials: &[PartialSignature]| {
            scheme.combine_verified(
                &km.params,
                &km.public_key,
                &km.verification_keys,
                msg,
                partials,
            )
        };
        assert_eq!(
            combine(&[p1, p2, p2, alien]),
            Err(CombineError::NotEnoughShares { have: 2, need: 3 })
        );
        let p3 = scheme.share_sign(&km.shares[&3], msg);
        let sig = combine(&[p1, p2, p2, alien, p3]).unwrap();
        assert!(scheme.verify(&km.public_key, msg, &sig));
    }

    #[test]
    fn a_rejected_signer_costs_no_further_pairing_and_strays_are_never_collected() {
        let (scheme, km) = dealer_setup(1, 4);
        let msg = b"driven by hand";
        let committee = Committee::new(
            scheme.clone(),
            km.params,
            km.public_key.clone(),
            km.verification_keys.clone(),
        );
        let partial = |i: u32| scheme.share_sign(&km.shares[&i], msg);
        let load = |counter: &std::sync::atomic::AtomicUsize| {
            counter.load(std::sync::atomic::Ordering::Relaxed)
        };
        let calls = |c: &Committee| (load(&c.calls.verifies), load(&c.calls.fallback_checks));
        let held = |c: &Combiner| -> Vec<u32> { c.held.keys().copied().collect() };
        let mut combiner = Combiner::default();
        combiner.offer(&committee, 4, &partial(4));

        // A valid partial under somebody else's index, and one under an
        // index with no verification key: never collected.
        let unknown = PartialSignature {
            index: 7,
            ..partial(3)
        };
        combiner.offer(&committee, 2, &partial(3));
        combiner.offer(&committee, 7, &unknown);
        assert_eq!(combiner.try_combine(&committee, msg), None);
        assert_eq!(held(&combiner), [4]);
        assert_eq!(calls(&committee), (0, 0));

        // The forgery completes a quorum, fails the combined check and
        // is named by the fallback, which checks every held partial:
        // nothing is vouched for yet.
        let forged = scheme.share_sign(&km.shares[&1], b"not the message being signed");
        combiner.offer(&committee, 1, &forged);
        assert_eq!(combiner.try_combine(&committee, msg), None);
        assert_eq!(held(&combiner), [4]);
        assert_eq!(combiner.rejected, BTreeSet::from([1]));
        assert_eq!(calls(&committee), (1, 2));

        // Anything more from it — even a now-valid partial — costs nothing.
        combiner.offer(&committee, 1, &forged);
        combiner.offer(&committee, 1, &partial(1));
        assert_eq!(combiner.try_combine(&committee, msg), None);
        assert_eq!(held(&combiner), [4]);
        assert_eq!(calls(&committee), (1, 2));

        // An honest partial finishes the job.
        let expected = scheme
            .combine(&km.params, &[partial(1), partial(2)])
            .unwrap();
        combiner.offer(&committee, 2, &partial(2));
        assert_eq!(combiner.try_combine(&committee, msg), Some(expected));
        assert_eq!(calls(&committee), (2, 2));
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
