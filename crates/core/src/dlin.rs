//! Appendix F: the DLIN-based variant of the threshold scheme.
//!
//! Structurally identical to §3 but built on the SDP/DLIN primitive:
//! three polynomials per sharing, signatures `(z, r, u) ∈ G³`, messages
//! hashed to `G³`, and *two* simultaneous verification equations. Its
//! value is robustness of assumption — it stays secure even if an
//! efficient isomorphism `Ĝ → G` exists (DLIN holds in symmetric
//! pairings; SXDH does not).
//!
//! The key is born on the same `Dist-Keygen` as every other scheme:
//! [`DlinScheme::dkg_config`] runs it under [`Appendix::Dlin`], which
//! deals each triple `(A_k, B_k, C_k)` as two Pedersen columns that share
//! `A_k`, so complaints, answers and disqualification are §3.1's
//! (DESIGN.md §2, "Appendix F on the one `Dist-Keygen`").
//! [`DlinScheme::dealer_keygen`] deals the same columns from one trusted
//! dealer, to isolate signing from the DKG in tests and benches.

use crate::ro::{honest_reference, scheme_keys, DistKeygenError};
use borndist_dkg::{dkg_session, Appendix, Behavior, DkgAbort, DkgConfig, DkgOutput, SharingMode};
use borndist_lhsps::{SdpParams, SdpPublicKey, SdpSecretKey, SdpSignature};
use borndist_net::{Metrics, TransportKind};
use borndist_pairing::{hash_to_g1_vector, hash_to_g2, Fr, G1Projective, G2Affine};
use borndist_shamir::{LagrangeCache, PedersenBases, PedersenCommitment, ThresholdParams};
use rand::RngCore;
use std::collections::{BTreeMap, BTreeSet};

pub use crate::ro::CombineError;

/// Triples per key: a DLIN key is three `(A_k, B_k, C_k)` sharings.
const WIDTH: usize = 3;

/// The DLIN-variant scheme context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DlinScheme {
    params: SdpParams,
    hash_dst: Vec<u8>,
    /// Memoized `Combine` coefficients per signer set (always compares
    /// equal; shared across clones).
    lagrange: LagrangeCache,
}

/// Public key `{(ĝ_k, ĥ_k)}_{k=1,2,3}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DlinPublicKey {
    /// The six coordinates as an SDP-LHSPS public key.
    pub pk: SdpPublicKey,
}

/// A server's share: nine scalars `{(A_k(i), B_k(i), C_k(i))}_{k=1,2,3}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DlinKeyShare {
    /// Server index.
    pub index: u32,
    /// Packed as an SDP secret key (`chi = A`, `gamma = B`, `delta = C`).
    pub sk: SdpSecretKey,
}

/// A server's verification key `({Û_{k,i}}, {Ẑ_{k,i}})`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DlinVerificationKey {
    /// Server index.
    pub index: u32,
    /// The matching SDP public key.
    pub pk: SdpPublicKey,
}

/// Partial signature `(z_i, r_i, u_i) ∈ G³`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DlinPartialSignature {
    /// Producing server.
    pub index: u32,
    /// The triple.
    pub sig: SdpSignature,
}

/// Full signature `(z, r, u) ∈ G³`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DlinSignature {
    /// The triple.
    pub sig: SdpSignature,
}

/// Key material bundle (mirrors [`crate::ro::KeyMaterial`]).
#[derive(Clone, Debug)]
pub struct DlinKeyMaterial {
    /// Threshold parameters.
    pub params: ThresholdParams,
    /// Joint public key.
    pub public_key: DlinPublicKey,
    /// Per-player shares (simulation only).
    pub shares: BTreeMap<u32, DlinKeyShare>,
    /// Verification keys for all players.
    pub verification_keys: BTreeMap<u32, DlinVerificationKey>,
    /// Qualified dealer set from the DKG (all players for dealer keygen).
    pub qualified: BTreeSet<u32>,
    /// Combined Pedersen columns: `(A_k, B_k)` under `(ĝ_z, ĝ_r)` at `k`,
    /// `(A_k, C_k)` under `(ĥ_z, ĥ_u)` at `3 + k`.
    pub commitments: Vec<PedersenCommitment>,
}

impl DlinScheme {
    /// Derives the scheme context from a protocol tag.
    pub fn new(tag: &[u8]) -> Self {
        let mut t = tag.to_vec();
        t.extend_from_slice(b"/dlin-scheme");
        let gen = |suffix: &[u8]| {
            let mut s = t.clone();
            s.extend_from_slice(suffix);
            hash_to_g2(b"borndist/dlin", &s).to_affine()
        };
        DlinScheme {
            params: SdpParams {
                g_z: gen(b"/g_z"),
                g_r: gen(b"/g_r"),
                h_z: gen(b"/h_z"),
                h_u: gen(b"/h_u"),
            },
            hash_dst: t,
            lagrange: LagrangeCache::new(),
        }
    }

    /// The random oracle `H : {0,1}* → G³`.
    pub fn hash_message(&self, msg: &[u8]) -> Vec<G1Projective> {
        hash_to_g1_vector(&self.hash_dst, msg, 3)
    }

    /// The DKG configuration of this scheme's `Dist-Keygen`: three fresh
    /// triples, dealt as `(A_k, B_k)` columns under `(ĝ_z, ĝ_r)` paired
    /// with `(A_k, C_k)` columns under `(ĥ_z, ĥ_u)`.
    pub fn dkg_config(&self, params: ThresholdParams) -> DkgConfig {
        DkgConfig {
            params,
            bases: PedersenBases {
                g_z: self.params.g_z,
                g_r: self.params.g_r,
            },
            width: WIDTH,
            mode: SharingMode::Fresh,
            appendix: Appendix::Dlin(PedersenBases {
                g_z: self.params.h_z,
                g_r: self.params.h_u,
            }),
        }
    }

    /// `Dist-Keygen` over any transport: §3.1's protocol on
    /// [`Self::dkg_config`], one active round in the optimistic case.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::ro::ThresholdScheme::keygen_session`].
    pub fn keygen_session(
        &self,
        params: ThresholdParams,
        behaviors: &BTreeMap<u32, Behavior>,
        seed: u64,
        transport: &TransportKind,
    ) -> Result<(DlinKeyMaterial, Metrics), DistKeygenError> {
        let cfg = self.dkg_config(params);
        let (outputs, metrics) =
            dkg_session(&cfg, behaviors, seed, transport).map_err(DistKeygenError::Network)?;
        Ok((self.assemble(params, &outputs, behaviors)?, metrics))
    }

    /// Assembles [`DlinKeyMaterial`] from a single player's DKG output
    /// (the distributed-deployment path; see
    /// [`crate::ro::ThresholdScheme::key_material_from_output`]).
    pub fn key_material_from_output(
        &self,
        params: ThresholdParams,
        id: u32,
        output: &DkgOutput,
    ) -> DlinKeyMaterial {
        let outputs = [(id, Ok(output.clone()))].into_iter().collect();
        self.assemble(params, &outputs, &BTreeMap::new())
            .expect("a concrete DKG output always assembles")
    }

    /// Trusted-dealer key generation: one dealer deals the DKG's column
    /// layout ([`DkgConfig::deal`]) and every player's output is read
    /// from it by the DKG's assembly.
    pub fn dealer_keygen<R: RngCore + ?Sized>(
        &self,
        params: ThresholdParams,
        rng: &mut R,
    ) -> DlinKeyMaterial {
        let columns = self.dkg_config(params).deal(false, rng);
        let combined_commitments: Vec<PedersenCommitment> =
            columns.iter().map(|c| c.commitment.clone()).collect();
        let qualified: BTreeSet<u32> = (1..=params.n as u32).collect();
        let outputs = qualified
            .iter()
            .map(|&id| {
                let share = columns
                    .iter()
                    .map(|c| {
                        let s = c.share_for(id);
                        (s.a, s.b)
                    })
                    .collect();
                let output = DkgOutput {
                    id,
                    qualified: qualified.clone(),
                    share,
                    combined_commitments: combined_commitments.clone(),
                    aggregate_witness: None,
                    additive_secret: Vec::new(),
                };
                (id, Ok(output))
            })
            .collect();
        self.assemble(params, &outputs, &BTreeMap::new())
            .expect("every player's output is present")
    }

    /// Maps DKG outputs into DLIN key material: column `k` holds
    /// `(A_k, B_k)`, column `3 + k` holds `(A_k, C_k)`.
    fn assemble(
        &self,
        params: ThresholdParams,
        outputs: &BTreeMap<u32, Result<DkgOutput, DkgAbort>>,
        behaviors: &BTreeMap<u32, Behavior>,
    ) -> Result<DlinKeyMaterial, DistKeygenError> {
        let reference =
            honest_reference(outputs, behaviors).ok_or(DistKeygenError::NoHonestOutput)?;
        let sdp_key = |coords: &[G2Affine]| SdpPublicKey {
            g_hat: coords[..WIDTH].to_vec(),
            h_hat: coords[WIDTH..].to_vec(),
        };
        let (shares, verification_keys) = scheme_keys(
            params.n,
            reference,
            outputs,
            |index, s| {
                let (ab, ac) = s.split_at(WIDTH);
                DlinKeyShare {
                    index,
                    sk: SdpSecretKey {
                        chi: ab.iter().map(|c| c.0).collect(),
                        gamma: ab.iter().map(|c| c.1).collect(),
                        delta: ac.iter().map(|c| c.1).collect(),
                    },
                }
            },
            |index, vk| DlinVerificationKey {
                index,
                pk: sdp_key(vk),
            },
        );
        Ok(DlinKeyMaterial {
            params,
            public_key: DlinPublicKey {
                pk: sdp_key(&reference.public_key_coordinates()),
            },
            shares,
            verification_keys,
            qualified: reference.qualified.clone(),
            commitments: reference.combined_commitments.clone(),
        })
    }

    /// `Share-Sign`: three 3-base multi-exponentiations.
    pub fn share_sign(&self, share: &DlinKeyShare, msg: &[u8]) -> DlinPartialSignature {
        let h = self.hash_message(msg);
        DlinPartialSignature {
            index: share.index,
            sig: share.sk.sign(&h),
        }
    }

    /// `Share-Verify`: the two simultaneous pairing-product equations.
    pub fn share_verify(
        &self,
        vk: &DlinVerificationKey,
        msg: &[u8],
        psig: &DlinPartialSignature,
    ) -> bool {
        if vk.index != psig.index {
            return false;
        }
        let h = self.hash_message(msg);
        vk.pk.verify(&self.params, &h, &psig.sig)
    }

    /// `Combine`: componentwise Lagrange interpolation in the exponent.
    ///
    /// # Errors
    ///
    /// Same contract as the §3 scheme.
    pub fn combine(
        &self,
        params: &ThresholdParams,
        partials: &[DlinPartialSignature],
    ) -> Result<DlinSignature, CombineError> {
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
        let weighted: Vec<(Fr, &SdpSignature)> = coeffs
            .iter()
            .copied()
            .zip(partials.iter().map(|p| &p.sig))
            .collect();
        Ok(DlinSignature {
            sig: borndist_lhsps::sdp::sign_derive(&weighted),
        })
    }

    /// `Verify`: both product equations over `(z, r, u)` and `H(M) ∈ G³`.
    pub fn verify(&self, pk: &DlinPublicKey, msg: &[u8], sig: &DlinSignature) -> bool {
        let h = self.hash_message(msg);
        pk.pk.verify(&self.params, &h, &sig.sig)
    }

    /// Compressed signature size in bytes (3 `G1` elements).
    pub fn signature_bytes() -> usize {
        3 * 48
    }

    /// Share size in bytes (9 scalars).
    pub fn share_bytes() -> usize {
        9 * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(t: usize, n: usize) -> (DlinScheme, DlinKeyMaterial) {
        let scheme = DlinScheme::new(b"dlin-tests");
        let mut r = StdRng::seed_from_u64(0xd11);
        let km = scheme.dealer_keygen(ThresholdParams::new(t, n).unwrap(), &mut r);
        (scheme, km)
    }

    #[test]
    fn sign_combine_verify() {
        let (scheme, km) = setup(2, 5);
        let msg = b"dlin message";
        let partials: Vec<DlinPartialSignature> = (1..=3u32)
            .map(|i| scheme.share_sign(&km.shares[&i], msg))
            .collect();
        for p in &partials {
            assert!(scheme.share_verify(&km.verification_keys[&p.index], msg, p));
        }
        let sig = scheme.combine(&km.params, &partials).unwrap();
        assert!(scheme.verify(&km.public_key, msg, &sig));
        assert!(!scheme.verify(&km.public_key, b"other", &sig));
    }

    #[test]
    fn quorum_independence() {
        let (scheme, km) = setup(1, 5);
        let msg = b"unique";
        let partials: BTreeMap<u32, DlinPartialSignature> = (1..=5u32)
            .map(|i| (i, scheme.share_sign(&km.shares[&i], msg)))
            .collect();
        let s1 = scheme
            .combine(&km.params, &[partials[&1], partials[&2]])
            .unwrap();
        let s2 = scheme
            .combine(&km.params, &[partials[&4], partials[&5]])
            .unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn bad_partial_caught_by_share_verify() {
        let (scheme, km) = setup(1, 4);
        let msg = b"m";
        let mut p = scheme.share_sign(&km.shares[&2], msg);
        p.sig.u = p.sig.z;
        assert!(!scheme.share_verify(&km.verification_keys[&2], msg, &p));
    }

    #[test]
    fn below_threshold_fails() {
        let (scheme, km) = setup(2, 5);
        let partials: Vec<DlinPartialSignature> = (1..=2u32)
            .map(|i| scheme.share_sign(&km.shares[&i], b"x"))
            .collect();
        assert!(matches!(
            scheme.combine(&km.params, &partials),
            Err(CombineError::NotEnoughShares { .. })
        ));
    }
}
