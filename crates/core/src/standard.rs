//! The standard-model construction (§4): a round-optimal, adaptively
//! secure, non-interactive threshold signature **without random oracles**.
//!
//! A signature is a Groth–Sahai NIWI proof of knowledge of a one-time
//! LHSPS signature `(z, r)` on the fixed one-dimensional vector `g`:
//! commitments `(C_z, C_r) ∈ G⁴` plus proof `(π̂₁, π̂₂) ∈ Ĝ²` under the
//! per-message CRS `f_M = (f, f₀·Π f_i^{M[i]})` (Malkin et al. style
//! bit-selected CRS).
//!
//! Threshold structure:
//! * key shares are single pairs `(A(i), B(i))` (width-1 Pedersen DKG);
//! * `Share-Sign` commits to `(z_i, r_i) = (g^{-A(i)}, g^{-B(i)})` and
//!   proves `e(z_i, ĝ_z)·e(r_i, ĝ_r)·e(g, V̂_i) = 1`;
//! * `Combine` Lagrange-combines commitments *and* proofs in the
//!   exponent (linear pairing-product equations compose linearly), then
//!   re-randomizes so the output is distributed like a fresh signature;
//! * `Verify` checks the same equation against `ĝ₁` — two 5-pairing
//!   products.
//!
//! Messages are fixed-length bit strings (`L = 256`); arbitrary byte
//! strings are first hashed with SHA-256, the standard collision-
//! resistance composition (the hash is *not* modeled as a random oracle
//! in the proof; only collision resistance is used).

use borndist_dkg::{dkg_session, Behavior, DkgConfig, SharingMode};
use borndist_grothsahai as gs;
use borndist_lhsps::{DpParams, PreparedDpParams};
use borndist_net::Metrics;
use borndist_pairing::{hash_to_g1, hash_to_g2, msm, sha256, Fr, G1Affine, G1Table, G2Affine};
use borndist_shamir::{
    LagrangeCache, PedersenBases, PedersenCommitment, Polynomial, ThresholdParams,
};
use rand::RngCore;
use std::collections::BTreeMap;

pub use crate::ro::CombineError;
use crate::ro::DistKeygenError;

/// Message bit-length of the §4 scheme.
pub const MESSAGE_BITS: usize = 256;

/// Public parameters: `(g, ĝ_z, ĝ_r, f, {f_i})`, all derived from a
/// protocol tag by random sampling of the *parameter generator* (they are
/// uniformly random and reusable across many public keys; the paper
/// requires exactly this common uniform string).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StandardParams {
    /// Signing base `g ∈ G`.
    pub g: G1Affine,
    /// LHSPS generators `(ĝ_z, ĝ_r)`.
    pub dp: DpParams,
    /// CRS first vector `f = (f, h)`.
    pub f: (G1Affine, G1Affine),
    /// CRS message vectors `f₀ … f_L`.
    pub f_bits: Vec<(G1Affine, G1Affine)>,
}

/// The standard-model scheme context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StandardScheme {
    params: StandardParams,
    /// Fixed-base window table for the long-lived signing base `g`
    /// ([`StandardParams::g`]): `Share-Sign` multiplies `g` by two fresh
    /// scalars per call, so the one-time table cost amortizes across the
    /// scheme's lifetime (DESIGN.md §2).
    g_table: G1Table,
    /// Prepared `(ĝ_z, ĝ_r)` — the Groth–Sahai equation constants of
    /// every verification, cached once at scheme construction.
    dp_prepared: PreparedDpParams,
    /// Memoized `Combine` coefficients per signer set (always compares
    /// equal; shared across clones).
    lagrange: LagrangeCache,
}

/// Public key `PK = ĝ₁ = ĝ_z^{a} ĝ_r^{b}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StdPublicKey {
    /// `ĝ₁`.
    pub g1: G2Affine,
}

/// A server's share: two scalars `(A(i), B(i))`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StdKeyShare {
    /// Server index.
    pub index: u32,
    /// `A(i)`.
    pub a: Fr,
    /// `B(i)`.
    pub b: Fr,
}

/// A server's verification key `V̂_i = ĝ_z^{A(i)} ĝ_r^{B(i)}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StdVerificationKey {
    /// Server index.
    pub index: u32,
    /// `V̂_i`.
    pub v: G2Affine,
}

/// A partial signature: `(C_z, C_r, π̂₁, π̂₂) ∈ G⁴ × Ĝ²`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StdPartialSignature {
    /// Producing server.
    pub index: u32,
    /// Commitment to `z_i`.
    pub c_z: gs::Commitment,
    /// Commitment to `r_i`.
    pub c_r: gs::Commitment,
    /// The NIWI proof.
    pub proof: gs::Proof,
}

/// A full signature, same shape as a partial one (2048 bits on BN254,
/// 3072 on BLS12-381).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StdSignature {
    /// Commitment to `z`.
    pub c_z: gs::Commitment,
    /// Commitment to `r`.
    pub c_r: gs::Commitment,
    /// The NIWI proof.
    pub proof: gs::Proof,
}

/// Key material bundle.
#[derive(Clone, Debug)]
pub struct StdKeyMaterial {
    /// Threshold parameters.
    pub params: ThresholdParams,
    /// Joint public key.
    pub public_key: StdPublicKey,
    /// Per-player shares (simulation only).
    pub shares: BTreeMap<u32, StdKeyShare>,
    /// Verification keys.
    pub verification_keys: BTreeMap<u32, StdVerificationKey>,
    /// Combined Pedersen commitment (refresh/recovery support).
    pub commitment: PedersenCommitment,
}

impl StandardScheme {
    /// Derives all public parameters from a protocol tag.
    pub fn new(tag: &[u8]) -> Self {
        let mut t = tag.to_vec();
        t.extend_from_slice(b"/std-scheme");
        let g1 = |suffix: &str| {
            let mut s = t.clone();
            s.extend_from_slice(suffix.as_bytes());
            hash_to_g1(b"borndist/std", &s).to_affine()
        };
        let g2 = |suffix: &str| {
            let mut s = t.clone();
            s.extend_from_slice(suffix.as_bytes());
            hash_to_g2(b"borndist/std", &s).to_affine()
        };
        let f_bits = (0..=MESSAGE_BITS)
            .map(|i| (g1(&format!("/f{}/1", i)), g1(&format!("/f{}/2", i))))
            .collect();
        let g = g1("/g");
        let dp = DpParams {
            g_z: g2("/g_z"),
            g_r: g2("/g_r"),
        };
        StandardScheme {
            dp_prepared: dp.prepare(),
            params: StandardParams {
                g,
                dp,
                f: (g1("/f/1"), g1("/f/2")),
                f_bits,
            },
            g_table: G1Table::new(&g.to_projective()),
            lagrange: LagrangeCache::new(),
        }
    }

    /// The prepared generator pair (cached Miller line coefficients).
    pub(crate) fn dp_prepared(&self) -> &PreparedDpParams {
        &self.dp_prepared
    }

    /// The public parameters.
    pub fn params(&self) -> &StandardParams {
        &self.params
    }

    /// Digests an arbitrary message into the fixed `L`-bit message space.
    pub fn message_digest(&self, msg: &[u8]) -> [u8; 32] {
        sha256(msg)
    }

    /// Assembles the per-message Groth–Sahai CRS `(f, f_M)`.
    pub fn message_crs(&self, digest: &[u8; 32]) -> gs::Crs {
        let mut fm1 = self.params.f_bits[0].0.to_projective();
        let mut fm2 = self.params.f_bits[0].1.to_projective();
        for bit in 0..MESSAGE_BITS {
            if (digest[bit / 8] >> (7 - bit % 8)) & 1 == 1 {
                fm1 = fm1.add_affine(&self.params.f_bits[bit + 1].0);
                fm2 = fm2.add_affine(&self.params.f_bits[bit + 1].1);
            }
        }
        gs::Crs::from_vectors(self.params.f, (fm1.to_affine(), fm2.to_affine()))
    }

    /// `Dist-Keygen`: the width-1 instance of the Pedersen DKG.
    pub fn dist_keygen(
        &self,
        params: ThresholdParams,
        behaviors: &BTreeMap<u32, Behavior>,
        seed: u64,
    ) -> Result<(StdKeyMaterial, Metrics), DistKeygenError> {
        let cfg = DkgConfig {
            params,
            bases: PedersenBases {
                g_z: self.params.dp.g_z,
                g_r: self.params.dp.g_r,
            },
            width: 1,
            mode: SharingMode::Fresh,
            aggregate: None,
        };
        let (outputs, metrics) = dkg_session(
            &cfg,
            behaviors,
            seed,
            &borndist_net::TransportKind::Lockstep,
        )
        .map_err(DistKeygenError::Network)?;
        let reference = outputs
            .iter()
            .filter(|(id, _)| behaviors.get(id).is_none_or(Behavior::is_honest))
            .find_map(|(_, o)| o.as_ref().ok())
            .ok_or(DistKeygenError::NoHonestOutput)?;
        let public_key = StdPublicKey {
            g1: reference.public_key_coordinates()[0],
        };
        let mut shares = BTreeMap::new();
        for (id, out) in &outputs {
            if let Ok(o) = out {
                shares.insert(
                    *id,
                    StdKeyShare {
                        index: *id,
                        a: o.share[0].0,
                        b: o.share[0].1,
                    },
                );
            }
        }
        let verification_keys = (1..=params.n as u32)
            .map(|i| {
                (
                    i,
                    StdVerificationKey {
                        index: i,
                        v: reference.verification_key(i)[0],
                    },
                )
            })
            .collect();
        Ok((
            StdKeyMaterial {
                params,
                public_key,
                shares,
                verification_keys,
                commitment: reference.combined_commitments[0].clone(),
            },
            metrics,
        ))
    }

    /// Trusted-dealer keygen (tests and benches).
    pub fn dealer_keygen<R: RngCore + ?Sized>(
        &self,
        params: ThresholdParams,
        rng: &mut R,
    ) -> StdKeyMaterial {
        let a0 = Fr::random(rng);
        let b0 = Fr::random(rng);
        let poly_a = Polynomial::random_with_constant(a0, params.t, rng);
        let poly_b = Polynomial::random_with_constant(b0, params.t, rng);
        let bases = PedersenBases {
            g_z: self.params.dp.g_z,
            g_r: self.params.dp.g_r,
        };
        let sharing = borndist_shamir::PedersenSharing::from_polynomials(
            &bases,
            poly_a.clone(),
            poly_b.clone(),
        );
        let public_key = StdPublicKey {
            g1: sharing.commitment.constant_commitment(),
        };
        let mut shares = BTreeMap::new();
        let mut verification_keys = BTreeMap::new();
        for i in 1..=params.n as u32 {
            let (a, b) = (poly_a.evaluate_at_index(i), poly_b.evaluate_at_index(i));
            shares.insert(i, StdKeyShare { index: i, a, b });
            verification_keys.insert(
                i,
                StdVerificationKey {
                    index: i,
                    v: sharing.commitment.evaluate_at_index(i).to_affine(),
                },
            );
        }
        StdKeyMaterial {
            params,
            public_key,
            shares,
            verification_keys,
            commitment: sharing.commitment,
        }
    }

    /// `Share-Sign`: commit to `(z_i, r_i) = (g^{-A(i)}, g^{-B(i)})` under
    /// the per-message CRS and prove the verification equation.
    pub fn share_sign<R: RngCore + ?Sized>(
        &self,
        share: &StdKeyShare,
        msg: &[u8],
        rng: &mut R,
    ) -> StdPartialSignature {
        let digest = self.message_digest(msg);
        let crs = self.message_crs(&digest);
        let z = self.g_table.mul(&(-share.a));
        let r = self.g_table.mul(&(-share.b));
        let (c_z, rand_z) = crs.commit(&z, rng);
        let (c_r, rand_r) = crs.commit(&r, rng);
        let proof = gs::prove(&[self.params.dp.g_z, self.params.dp.g_r], &[rand_z, rand_r]);
        StdPartialSignature {
            index: share.index,
            c_z,
            c_r,
            proof,
        }
    }

    /// `Share-Verify`: the two-coordinate Groth–Sahai verification with
    /// target `E((1, g), V̂_i)^{-1}`.
    pub fn share_verify(
        &self,
        vk: &StdVerificationKey,
        msg: &[u8],
        psig: &StdPartialSignature,
    ) -> bool {
        if vk.index != psig.index {
            return false;
        }
        self.verify_against(msg, &psig.c_z, &psig.c_r, &psig.proof, &vk.v)
    }

    fn verify_against(
        &self,
        msg: &[u8],
        c_z: &gs::Commitment,
        c_r: &gs::Commitment,
        proof: &gs::Proof,
        target_key: &G2Affine,
    ) -> bool {
        let digest = self.message_digest(msg);
        let crs = self.message_crs(&digest);
        let extra = ((G1Affine::identity(), self.params.g), *target_key);
        gs::verify_prepared(
            &crs,
            &[&self.dp_prepared.g_z, &self.dp_prepared.g_r],
            &[*c_z, *c_r],
            &[extra],
            proof,
        )
    }

    /// `Combine`: Lagrange combination of commitments and proofs followed
    /// by re-randomization (so the full signature is distributed like a
    /// fresh one, independent of the contributing quorum).
    ///
    /// # Errors
    ///
    /// Standard combine errors; partial signatures are assumed valid
    /// (pre-filter with [`Self::share_verify`]).
    pub fn combine<R: RngCore + ?Sized>(
        &self,
        params: &ThresholdParams,
        msg: &[u8],
        partials: &[StdPartialSignature],
        rng: &mut R,
    ) -> Result<StdSignature, CombineError> {
        if partials.len() < params.reconstruction_size() {
            return Err(CombineError::NotEnoughShares {
                have: partials.len(),
                need: params.reconstruction_size(),
            });
        }
        let indices: Vec<u32> = partials.iter().map(|p| p.index).collect();
        let weights = self
            .lagrange
            .at_zero(&indices)
            .map_err(|_| CombineError::BadIndices)?;
        let tuples: Vec<(Vec<gs::Commitment>, &gs::Proof)> = partials
            .iter()
            .map(|p| (vec![p.c_z, p.c_r], &p.proof))
            .collect();
        let tuple_refs: Vec<(&[gs::Commitment], &gs::Proof)> =
            tuples.iter().map(|(cs, p)| (cs.as_slice(), *p)).collect();
        let (combined, proof) = gs::combine_weighted(&tuple_refs, &weights);
        // Re-randomize on the message CRS.
        let digest = self.message_digest(msg);
        let crs = self.message_crs(&digest);
        let (rerandomized, proof) = gs::randomize(
            &crs,
            &[self.params.dp.g_z, self.params.dp.g_r],
            &combined,
            &proof,
            rng,
        );
        Ok(StdSignature {
            c_z: rerandomized[0],
            c_r: rerandomized[1],
            proof,
        })
    }

    /// `Verify` against the public key `ĝ₁`.
    pub fn verify(&self, pk: &StdPublicKey, msg: &[u8], sig: &StdSignature) -> bool {
        self.verify_against(msg, &sig.c_z, &sig.c_r, &sig.proof, &pk.g1)
    }

    /// Centralized signing with the joint key (reduction/testing helper;
    /// also demonstrates key homomorphism: it equals a 1-of-1 threshold).
    pub fn sign_centralized<R: RngCore + ?Sized>(
        &self,
        a: Fr,
        b: Fr,
        msg: &[u8],
        rng: &mut R,
    ) -> StdSignature {
        let share = StdKeyShare { index: 1, a, b };
        let p = self.share_sign(&share, msg, rng);
        StdSignature {
            c_z: p.c_z,
            c_r: p.c_r,
            proof: p.proof,
        }
    }

    /// The verification key a share *should* have (public recomputation).
    pub fn expected_vk(&self, share: &StdKeyShare) -> StdVerificationKey {
        StdVerificationKey {
            index: share.index,
            v: msm(
                &[self.params.dp.g_z, self.params.dp.g_r],
                &[share.a, share.b],
            )
            .to_affine(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(t: usize, n: usize) -> (StandardScheme, StdKeyMaterial, StdRng) {
        let scheme = StandardScheme::new(b"std-tests");
        let mut r = StdRng::seed_from_u64(0x57d);
        let km = scheme.dealer_keygen(ThresholdParams::new(t, n).unwrap(), &mut r);
        (scheme, km, r)
    }

    #[test]
    fn sign_combine_verify() {
        let (scheme, km, mut r) = setup(1, 4);
        let msg = b"standard model message";
        let partials: Vec<StdPartialSignature> = (1..=2u32)
            .map(|i| scheme.share_sign(&km.shares[&i], msg, &mut r))
            .collect();
        for p in &partials {
            assert!(scheme.share_verify(&km.verification_keys[&p.index], msg, p));
        }
        let sig = scheme.combine(&km.params, msg, &partials, &mut r).unwrap();
        assert!(scheme.verify(&km.public_key, msg, &sig));
        assert!(!scheme.verify(&km.public_key, b"different", &sig));
    }

    #[test]
    fn different_quorums_verify_same_key() {
        let (scheme, km, mut r) = setup(1, 5);
        let msg = b"quorum independence";
        let all: Vec<StdPartialSignature> = (1..=5u32)
            .map(|i| scheme.share_sign(&km.shares[&i], msg, &mut r))
            .collect();
        let s1 = scheme.combine(&km.params, msg, &all[0..2], &mut r).unwrap();
        let s2 = scheme.combine(&km.params, msg, &all[3..5], &mut r).unwrap();
        // Signatures are randomized so not equal, but both verify.
        assert_ne!(s1, s2);
        assert!(scheme.verify(&km.public_key, msg, &s1));
        assert!(scheme.verify(&km.public_key, msg, &s2));
    }

    #[test]
    fn rerandomized_signature_unlinkable_but_valid() {
        let (scheme, km, mut r) = setup(1, 3);
        let msg = b"rerandomize";
        let partials: Vec<StdPartialSignature> = (1..=2u32)
            .map(|i| scheme.share_sign(&km.shares[&i], msg, &mut r))
            .collect();
        let s1 = scheme.combine(&km.params, msg, &partials, &mut r).unwrap();
        let s2 = scheme.combine(&km.params, msg, &partials, &mut r).unwrap();
        assert_ne!(s1, s2, "combine must re-randomize");
        assert!(scheme.verify(&km.public_key, msg, &s1));
        assert!(scheme.verify(&km.public_key, msg, &s2));
    }

    #[test]
    fn bad_partial_rejected() {
        let (scheme, km, mut r) = setup(1, 3);
        let msg = b"m";
        let mut p = scheme.share_sign(&km.shares[&1], msg, &mut r);
        p.c_z = p.c_r;
        assert!(!scheme.share_verify(&km.verification_keys[&1], msg, &p));
        // Signature under the wrong VK index fails too.
        let p2 = scheme.share_sign(&km.shares[&1], msg, &mut r);
        assert!(!scheme.share_verify(&km.verification_keys[&2], msg, &p2));
    }

    #[test]
    fn centralized_equals_threshold_functionality() {
        // Reconstruct the joint key from shares and sign centrally.
        let (scheme, km, mut r) = setup(1, 3);
        let indices = vec![1u32, 2];
        let coeffs = borndist_shamir::lagrange_coefficients_at_zero(&indices).unwrap();
        let a = km.shares[&1].a * coeffs[0] + km.shares[&2].a * coeffs[1];
        let b = km.shares[&1].b * coeffs[0] + km.shares[&2].b * coeffs[1];
        let msg = b"central";
        let sig = scheme.sign_centralized(a, b, msg, &mut r);
        // The centralized signature verifies iff ĝ1 = ĝ_z^a ĝ_r^b.
        assert!(scheme.verify(&km.public_key, msg, &sig));
    }

    #[test]
    fn dist_keygen_width_one() {
        let scheme = StandardScheme::new(b"std-dkg");
        let (km, metrics) = scheme
            .dist_keygen(ThresholdParams::new(1, 4).unwrap(), &BTreeMap::new(), 3)
            .unwrap();
        assert_eq!(metrics.active_rounds, 1);
        let mut r = StdRng::seed_from_u64(4);
        let msg = b"fully distributed, no oracles";
        let partials: Vec<StdPartialSignature> = [2u32, 4]
            .iter()
            .map(|i| scheme.share_sign(&km.shares[i], msg, &mut r))
            .collect();
        let sig = scheme.combine(&km.params, msg, &partials, &mut r).unwrap();
        assert!(scheme.verify(&km.public_key, msg, &sig));
    }

    #[test]
    fn vk_recomputation_matches() {
        let (scheme, km, _) = setup(1, 3);
        for (i, s) in &km.shares {
            assert_eq!(scheme.expected_vk(s).v, km.verification_keys[i].v);
        }
    }

    #[test]
    fn signature_size_matches_paper_shape() {
        // 4 G1 + 2 G2 compressed = 4*48 + 2*96 = 384 bytes = 3072 bits
        // (2048 bits on the paper's BN254).
        let (scheme, km, mut r) = setup(1, 3);
        let p = scheme.share_sign(&km.shares[&1], b"m", &mut r);
        let size = p.c_z.c1.to_compressed().len()
            + p.c_z.c2.to_compressed().len()
            + p.c_r.c1.to_compressed().len()
            + p.c_r.c2.to_compressed().len()
            + p.proof.pi1.to_compressed().len()
            + p.proof.pi2.to_compressed().len();
        assert_eq!(size, 384);
    }
}
