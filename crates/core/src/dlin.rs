//! Appendix F: the DLIN-based variant of the threshold scheme.
//!
//! Structurally identical to §3 but built on the SDP/DLIN primitive:
//! three polynomials per sharing, signatures `(z, r, u) ∈ G³`, messages
//! hashed to `G³`, and *two* simultaneous verification equations. Its
//! value is robustness of assumption — it stays secure even if an
//! efficient isomorphism `Ĝ → G` exists (DLIN holds in symmetric
//! pairings; SXDH does not).
//!
//! Key generation is provided in two forms:
//! * [`DlinScheme::dealer_keygen`] — trusted dealer;
//! * [`DlinScheme::honest_dist_keygen`] — every player deals a verified
//!   [`borndist_shamir::TripleSharing`] and shares are summed. The
//!   complaint/disqualification machinery is identical to the §3 DKG (see
//!   `borndist-dkg`) and is not duplicated here; this entry point models
//!   the optimistic path on which the paper's one-round claim rests.

use borndist_lhsps::{SdpParams, SdpPublicKey, SdpSecretKey, SdpSignature};
use borndist_pairing::{hash_to_g1_vector, hash_to_g2, Fr, G1Projective};
use borndist_shamir::{
    LagrangeCache, ThresholdParams, TripleBases, TripleCommitment, TripleSharing,
};
use rand::RngCore;
use std::collections::BTreeMap;

pub use crate::ro::CombineError;

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
    /// Combined triple commitments, one per parallel sharing `k`.
    pub commitments: Vec<TripleCommitment>,
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

    /// The four generators.
    pub fn sdp_params(&self) -> &SdpParams {
        &self.params
    }

    fn triple_bases(&self) -> TripleBases {
        TripleBases {
            g_z: self.params.g_z,
            g_r: self.params.g_r,
            h_z: self.params.h_z,
            h_u: self.params.h_u,
        }
    }

    /// The random oracle `H : {0,1}* → G³`.
    pub fn hash_message(&self, msg: &[u8]) -> Vec<G1Projective> {
        hash_to_g1_vector(&self.hash_dst, msg, 3)
    }

    /// Trusted-dealer key generation.
    pub fn dealer_keygen<R: RngCore + ?Sized>(
        &self,
        params: ThresholdParams,
        rng: &mut R,
    ) -> DlinKeyMaterial {
        // One triple sharing per coordinate k = 1,2,3.
        let bases = self.triple_bases();
        let sharings: Vec<TripleSharing> = (0..3)
            .map(|_| TripleSharing::deal_random(&bases, params.t, rng))
            .collect();
        self.assemble_from_sharings(params, &[sharings])
    }

    /// Optimistic-path distributed keygen: each of the `n` players deals
    /// three verified triple sharings; all shares are validated against
    /// the broadcast commitments and summed. One broadcast round, exactly
    /// as in §3 (complaint handling would add the same two optional
    /// rounds as the `borndist-dkg` implementation).
    pub fn honest_dist_keygen<R: RngCore + ?Sized>(
        &self,
        params: ThresholdParams,
        rng: &mut R,
    ) -> DlinKeyMaterial {
        let bases = self.triple_bases();
        let deals: Vec<Vec<TripleSharing>> = (0..params.n)
            .map(|_| {
                (0..3)
                    .map(|_| TripleSharing::deal_random(&bases, params.t, rng))
                    .collect()
            })
            .collect();
        // Every player verifies every received share (equation (12)).
        for dealer in &deals {
            for sharing in dealer {
                for i in 1..=params.n as u32 {
                    assert!(
                        sharing
                            .commitment
                            .verify_share(&bases, &sharing.share_for(i)),
                        "honest dealer share must verify"
                    );
                }
            }
        }
        self.assemble_from_sharings(params, &deals)
    }

    fn assemble_from_sharings(
        &self,
        params: ThresholdParams,
        deals: &[Vec<TripleSharing>],
    ) -> DlinKeyMaterial {
        // Combined commitments per coordinate.
        let commitments: Vec<TripleCommitment> = (0..3)
            .map(|k| {
                deals
                    .iter()
                    .map(|d| d[k].commitment.clone())
                    .reduce(|a, b| a.combine(&b))
                    .expect("at least one dealer")
            })
            .collect();
        // Public key: constant commitments.
        let mut g_hat = Vec::new();
        let mut h_hat = Vec::new();
        for c in &commitments {
            let (v0, w0) = c.constant_commitment();
            g_hat.push(v0);
            h_hat.push(w0);
        }
        let public_key = DlinPublicKey {
            pk: SdpPublicKey { g_hat, h_hat },
        };
        // Shares and verification keys.
        let mut shares = BTreeMap::new();
        let mut verification_keys = BTreeMap::new();
        for i in 1..=params.n as u32 {
            let mut chi = vec![Fr::zero(); 3];
            let mut gamma = vec![Fr::zero(); 3];
            let mut delta = vec![Fr::zero(); 3];
            for dealer in deals {
                for (k, sharing) in dealer.iter().enumerate() {
                    let s = sharing.share_for(i);
                    chi[k] += s.a;
                    gamma[k] += s.b;
                    delta[k] += s.c;
                }
            }
            let sk = SdpSecretKey { chi, gamma, delta };
            verification_keys.insert(
                i,
                DlinVerificationKey {
                    index: i,
                    pk: sk.public_key(&self.params),
                },
            );
            shares.insert(i, DlinKeyShare { index: i, sk });
        }
        DlinKeyMaterial {
            params,
            public_key,
            shares,
            verification_keys,
            commitments,
        }
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
    fn distributed_keygen_works() {
        let scheme = DlinScheme::new(b"dlin-dkg");
        let mut r = StdRng::seed_from_u64(0xd12);
        let km = scheme.honest_dist_keygen(ThresholdParams::new(1, 4).unwrap(), &mut r);
        let msg = b"born distributed, dlin flavored";
        let partials: Vec<DlinPartialSignature> = [2u32, 4]
            .iter()
            .map(|i| scheme.share_sign(&km.shares[i], msg))
            .collect();
        let sig = scheme.combine(&km.params, &partials).unwrap();
        assert!(scheme.verify(&km.public_key, msg, &sig));
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

    #[test]
    fn shares_open_combined_commitments() {
        let scheme = DlinScheme::new(b"dlin-commit");
        let mut r = StdRng::seed_from_u64(9);
        let km = scheme.honest_dist_keygen(ThresholdParams::new(1, 4).unwrap(), &mut r);
        let bases = scheme.triple_bases();
        for (i, share) in &km.shares {
            for k in 0..3 {
                let ts = borndist_shamir::TripleShare {
                    index: *i,
                    a: share.sk.chi[k],
                    b: share.sk.gamma[k],
                    c: share.sk.delta[k],
                };
                assert!(km.commitments[k].verify_share(&bases, &ts));
            }
        }
    }
}
