//! Boldyreva's threshold BLS (PKC 2003) — the closest prior
//! non-interactive threshold signature and the paper's *statically
//! secure* comparison point.
//!
//! Identical interaction pattern to the §3 scheme (hash, partial-sign,
//! Lagrange-combine) but: single generator, single polynomial, 1-element
//! signatures, and — crucially — only *static* security: its simulation
//! strategy must decide the corrupted set before the public key exists,
//! and the standard Feldman-based DKG it relies on (Gennaro et al.)
//! forces extra communication to fix the key distribution. The paper's
//! scheme pays 2× in signature size and share size for adaptive security
//! with Pedersen's cheaper DKG.

use borndist_pairing::{hash_to_g1, multi_pairing, Fr, G1Affine, G2Affine, G2Projective};
use borndist_shamir::{
    lagrange_coefficients_at_zero, FeldmanCommitment, Polynomial, ThresholdParams,
};
use rand::RngCore;
use std::collections::BTreeMap;

/// Domain tag for the message hash.
const DST: &[u8] = b"borndist/boldyreva";

/// The threshold-BLS public key `pk = ĝ^x`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TblsPublicKey(pub G2Affine);

/// A share `x_i = P(i)` (one scalar — half the paper's share size,
/// the price being static-only security).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TblsKeyShare {
    /// Server index.
    pub index: u32,
    /// `P(i)`.
    pub value: Fr,
}

/// Verification key `vk_i = ĝ^{x_i}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TblsVerificationKey {
    /// Server index.
    pub index: u32,
    /// `ĝ^{x_i}`.
    pub v: G2Affine,
}

/// A partial signature `σ_i = H(M)^{x_i}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TblsPartialSignature {
    /// Producing server.
    pub index: u32,
    /// The share signature.
    pub sig: G1Affine,
}

/// A combined signature `σ = H(M)^x ∈ G` (one element).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TblsSignature(pub G1Affine);

/// Key material bundle.
#[derive(Clone, Debug)]
pub struct TblsKeyMaterial {
    /// Threshold parameters.
    pub params: ThresholdParams,
    /// Public key.
    pub public_key: TblsPublicKey,
    /// Shares (simulation only).
    pub shares: BTreeMap<u32, TblsKeyShare>,
    /// Verification keys.
    pub verification_keys: BTreeMap<u32, TblsVerificationKey>,
}

/// Dealer key generation (Boldyreva assumes a trusted dealer or a
/// Gennaro-et-al. DKG; we provide the dealer and an honest-path
/// Feldman-sum DKG below).
pub fn dealer_keygen<R: RngCore + ?Sized>(params: ThresholdParams, rng: &mut R) -> TblsKeyMaterial {
    let poly = Polynomial::random(params.t, rng);
    assemble(params, &[poly])
}

/// Honest-path distributed keygen: every player deals a Feldman-verified
/// sharing and shares are summed (the optimistic path of the
/// Joint-Feldman DKG — the very protocol whose key bias forced Gennaro
/// et al. to add rounds; recorded here for the E5 comparison).
pub fn honest_dist_keygen<R: RngCore + ?Sized>(
    params: ThresholdParams,
    rng: &mut R,
) -> TblsKeyMaterial {
    let polys: Vec<Polynomial> = (0..params.n)
        .map(|_| Polynomial::random(params.t, rng))
        .collect();
    // All players verify all shares against the broadcast commitments.
    let g = G2Projective::generator();
    for p in &polys {
        let com = FeldmanCommitment::commit(p, &g);
        for i in 1..=params.n as u32 {
            assert!(com.verify_share(i, p.evaluate_at_index(i), &g));
        }
    }
    assemble(params, &polys)
}

fn assemble(params: ThresholdParams, polys: &[Polynomial]) -> TblsKeyMaterial {
    let joint = polys
        .iter()
        .cloned()
        .reduce(|a, b| a.add(&b))
        .expect("at least one dealer");
    let g = G2Projective::generator();
    let public_key = TblsPublicKey(g.mul(&joint.constant_term()).to_affine());
    let mut shares = BTreeMap::new();
    let mut verification_keys = BTreeMap::new();
    for i in 1..=params.n as u32 {
        let v = joint.evaluate_at_index(i);
        shares.insert(i, TblsKeyShare { index: i, value: v });
        verification_keys.insert(
            i,
            TblsVerificationKey {
                index: i,
                v: g.mul(&v).to_affine(),
            },
        );
    }
    TblsKeyMaterial {
        params,
        public_key,
        shares,
        verification_keys,
    }
}

/// `Share-Sign`: one hash-on-curve and one exponentiation.
pub fn share_sign(share: &TblsKeyShare, msg: &[u8]) -> TblsPartialSignature {
    TblsPartialSignature {
        index: share.index,
        sig: (hash_to_g1(DST, msg) * share.value).to_affine(),
    }
}

/// `Share-Verify`: a 2-pairing product.
pub fn share_verify(vk: &TblsVerificationKey, msg: &[u8], psig: &TblsPartialSignature) -> bool {
    if vk.index != psig.index {
        return false;
    }
    let h = hash_to_g1(DST, msg).to_affine();
    let neg = psig.sig.neg();
    let g2 = G2Affine::generator();
    multi_pairing(&[(&neg, &g2), (&h, &vk.v)]).is_identity()
}

/// `Combine`: Lagrange interpolation in the exponent.
///
/// # Errors
///
/// Returns `None` when fewer than `t+1` shares are given or indices are
/// invalid.
pub fn combine(
    params: &ThresholdParams,
    partials: &[TblsPartialSignature],
) -> Option<TblsSignature> {
    if partials.len() < params.reconstruction_size() {
        return None;
    }
    let indices: Vec<u32> = partials.iter().map(|p| p.index).collect();
    let coeffs = lagrange_coefficients_at_zero(&indices).ok()?;
    let bases: Vec<G1Affine> = partials.iter().map(|p| p.sig).collect();
    Some(TblsSignature(
        borndist_pairing::msm(&bases, &coeffs).to_affine(),
    ))
}

/// `Verify`: the BLS equation.
pub fn verify(pk: &TblsPublicKey, msg: &[u8], sig: &TblsSignature) -> bool {
    let h = hash_to_g1(DST, msg).to_affine();
    let neg = sig.0.neg();
    let g2 = G2Affine::generator();
    multi_pairing(&[(&neg, &g2), (&h, &pk.0)]).is_identity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(t: usize, n: usize) -> TblsKeyMaterial {
        let mut r = StdRng::seed_from_u64(0xb01d);
        dealer_keygen(ThresholdParams::new(t, n).unwrap(), &mut r)
    }

    #[test]
    fn sign_combine_verify() {
        let km = setup(2, 5);
        let msg = b"boldyreva";
        let partials: Vec<TblsPartialSignature> = (1..=3u32)
            .map(|i| share_sign(&km.shares[&i], msg))
            .collect();
        for p in &partials {
            assert!(share_verify(&km.verification_keys[&p.index], msg, p));
        }
        let sig = combine(&km.params, &partials).unwrap();
        assert!(verify(&km.public_key, msg, &sig));
        assert!(!verify(&km.public_key, b"other", &sig));
    }

    #[test]
    fn quorum_independence() {
        let km = setup(1, 5);
        let msg = b"unique";
        let all: BTreeMap<u32, TblsPartialSignature> = (1..=5u32)
            .map(|i| (i, share_sign(&km.shares[&i], msg)))
            .collect();
        let s1 = combine(&km.params, &[all[&1], all[&2]]).unwrap();
        let s2 = combine(&km.params, &[all[&3], all[&5]]).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn distributed_keygen() {
        let mut r = StdRng::seed_from_u64(0xfe1d);
        let km = honest_dist_keygen(ThresholdParams::new(1, 4).unwrap(), &mut r);
        let msg = b"joint feldman";
        let partials: Vec<TblsPartialSignature> = [1u32, 3]
            .iter()
            .map(|i| share_sign(&km.shares[i], msg))
            .collect();
        let sig = combine(&km.params, &partials).unwrap();
        assert!(verify(&km.public_key, msg, &sig));
    }

    #[test]
    fn below_threshold_fails() {
        let km = setup(2, 5);
        let partials: Vec<TblsPartialSignature> = (1..=2u32)
            .map(|i| share_sign(&km.shares[&i], b"x"))
            .collect();
        assert!(combine(&km.params, &partials).is_none());
    }

    #[test]
    fn corrupted_partial_detected() {
        let km = setup(1, 4);
        let msg = b"m";
        let mut p = share_sign(&km.shares[&2], msg);
        p.sig = p.sig.neg();
        assert!(!share_verify(&km.verification_keys[&2], msg, &p));
    }
}
