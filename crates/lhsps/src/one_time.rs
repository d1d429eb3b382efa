//! The one-time linearly homomorphic SPS of §2.3 (Libert et al.,
//! Crypto 2013), secure under the Double Pairing assumption.
//!
//! * `Keygen(λ, N)`: `sk = {(χ_k, γ_k)}`, `pk = (ĝ_z, ĝ_r, {ĝ_k})` with
//!   `ĝ_k = ĝ_z^{χ_k} ĝ_r^{γ_k}`.
//! * `Sign(sk, M⃗)`: `σ = (z, r) = (Π M_k^{-χ_k}, Π M_k^{-γ_k})`.
//! * `SignDerive`: signatures combine linearly over the message space.
//! * `Verify`: `e(z, ĝ_z)·e(r, ĝ_r)·Π e(M_k, ĝ_k) = 1` and `M⃗ ≠ 1⃗`.
//!
//! Two structural properties carry the whole paper:
//! 1. **Key homomorphism** — `Sign(sk₁+sk₂, M⃗) = Sign(sk₁,M⃗)·Sign(sk₂,M⃗)`,
//!    which makes non-interactive threshold signing possible; and
//! 2. **signature uniqueness under DP** — two distinct valid signatures on
//!    the same vector break Double Pairing, which drives the security
//!    reductions.

use crate::params::{DpParams, PreparedDpParams};
use borndist_pairing::codec::{CodecError, Wire};
use borndist_pairing::{
    msm, multi_pairing, multi_pairing_mixed, Fr, G1Affine, G1Projective, G2Affine, G2Prepared,
    G2Projective,
};
use rand::RngCore;

/// Secret key: the discrete-log representation `{(χ_k, γ_k)}` of the
/// public `ĝ_k` with respect to `(ĝ_z, ĝ_r)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OneTimeSecretKey {
    /// Exponents `χ_k` (one per message coordinate).
    pub chi: Vec<Fr>,
    /// Exponents `γ_k`.
    pub gamma: Vec<Fr>,
}

/// Public key: `{ĝ_k = ĝ_z^{χ_k} ĝ_r^{γ_k}}` (the generators live in the
/// shared [`DpParams`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OneTimePublicKey {
    /// Committed coordinates `ĝ_k`.
    pub g_hat: Vec<G2Affine>,
}

/// A public key with every coordinate's Miller line coefficients
/// precomputed — built once at keygen/refresh for long-lived keys, so
/// every verification against it performs zero `Ĝ`-side point
/// arithmetic (all `Ĝ` elements of the equation are then prepared).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreparedOneTimePublicKey {
    /// The plain key (kept for equality checks and re-derivation).
    pub key: OneTimePublicKey,
    /// Prepared coordinates, index-aligned with `key.g_hat`.
    pub g_hat: Vec<G2Prepared>,
}

/// A (one-time, linearly homomorphic) signature `(z, r) ∈ G²`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OneTimeSignature {
    /// First component `z`.
    pub z: G1Affine,
    /// Second component `r`.
    pub r: G1Affine,
}

impl OneTimeSecretKey {
    /// Samples a secret key for vectors of dimension `n`.
    pub fn random<R: RngCore + ?Sized>(n: usize, rng: &mut R) -> Self {
        OneTimeSecretKey {
            chi: (0..n).map(|_| Fr::random(rng)).collect(),
            gamma: (0..n).map(|_| Fr::random(rng)).collect(),
        }
    }

    /// The message-vector dimension this key signs.
    pub fn dimension(&self) -> usize {
        self.chi.len()
    }

    /// Derives the matching public key.
    pub fn public_key(&self, params: &DpParams) -> OneTimePublicKey {
        let pts: Vec<G2Projective> = self
            .chi
            .iter()
            .zip(self.gamma.iter())
            .map(|(c, g)| msm(&[params.g_z, params.g_r], &[*c, *g]))
            .collect();
        OneTimePublicKey {
            g_hat: G2Projective::batch_to_affine(&pts),
        }
    }

    /// Key homomorphism: componentwise sum of two secret keys.
    pub fn add(&self, other: &Self) -> Self {
        assert_eq!(self.dimension(), other.dimension(), "dimension mismatch");
        OneTimeSecretKey {
            chi: self
                .chi
                .iter()
                .zip(other.chi.iter())
                .map(|(a, b)| *a + *b)
                .collect(),
            gamma: self
                .gamma
                .iter()
                .zip(other.gamma.iter())
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }

    /// Signs a message vector `M⃗ ∈ G^n`: `(Π M_k^{-χ_k}, Π M_k^{-γ_k})`.
    ///
    /// Deterministic — the property that makes threshold signing
    /// non-interactive (no joint randomness round is ever needed).
    ///
    /// # Panics
    ///
    /// Panics if the message dimension does not match the key.
    pub fn sign(&self, msg: &[G1Projective]) -> OneTimeSignature {
        assert_eq!(msg.len(), self.dimension(), "message dimension mismatch");
        let bases = G1Projective::batch_to_affine(msg);
        let neg_chi: Vec<Fr> = self.chi.iter().map(|c| -*c).collect();
        let neg_gamma: Vec<Fr> = self.gamma.iter().map(|g| -*g).collect();
        OneTimeSignature {
            z: msm(&bases, &neg_chi).to_affine(),
            r: msm(&bases, &neg_gamma).to_affine(),
        }
    }
}

impl OneTimePublicKey {
    /// The message-vector dimension this key verifies.
    pub fn dimension(&self) -> usize {
        self.g_hat.len()
    }

    /// Key homomorphism on the public side: componentwise product.
    pub fn combine(&self, other: &Self) -> Self {
        assert_eq!(self.dimension(), other.dimension(), "dimension mismatch");
        let pts: Vec<G2Projective> = self
            .g_hat
            .iter()
            .zip(other.g_hat.iter())
            .map(|(a, b)| a.to_projective().add_affine(b))
            .collect();
        OneTimePublicKey {
            g_hat: G2Projective::batch_to_affine(&pts),
        }
    }

    /// Verifies `σ` on `M⃗`: rejects the all-identity vector, then checks
    /// the single pairing-product equation.
    pub fn verify(&self, params: &DpParams, msg: &[G1Projective], sig: &OneTimeSignature) -> bool {
        if msg.len() != self.dimension() {
            return false;
        }
        if msg.iter().all(|m| m.is_identity()) {
            return false;
        }
        let msg_affine = G1Projective::batch_to_affine(msg);
        let mut pairs: Vec<(&G1Affine, &G2Affine)> =
            vec![(&sig.z, &params.g_z), (&sig.r, &params.g_r)];
        for (m, g) in msg_affine.iter().zip(self.g_hat.iter()) {
            pairs.push((m, g));
        }
        multi_pairing(&pairs).is_identity()
    }

    /// [`Self::verify`] with the scheme generators prepared: `(ĝ_z, ĝ_r)`
    /// pair through their cached line coefficients, only the key
    /// coordinates run live `Ĝ` point arithmetic. Same verdict as the
    /// slow path on every input (property-tested in `tests/properties.rs`).
    pub fn verify_prepared(
        &self,
        prepared: &PreparedDpParams,
        msg: &[G1Projective],
        sig: &OneTimeSignature,
    ) -> bool {
        if msg.len() != self.dimension() {
            return false;
        }
        if msg.iter().all(|m| m.is_identity()) {
            return false;
        }
        let msg_affine = G1Projective::batch_to_affine(msg);
        let pairs: Vec<(&G1Affine, &G2Affine)> = msg_affine.iter().zip(self.g_hat.iter()).collect();
        multi_pairing_mixed(&pairs, &[(&sig.z, &prepared.g_z), (&sig.r, &prepared.g_r)])
            .is_identity()
    }

    /// Precomputes the pairing line coefficients of every key coordinate
    /// (one ate Miller point pass per coordinate, amortized over the
    /// key's lifetime).
    pub fn prepare(&self) -> PreparedOneTimePublicKey {
        PreparedOneTimePublicKey {
            g_hat: self.g_hat.iter().map(G2Prepared::new).collect(),
            key: self.clone(),
        }
    }
}

impl Wire for OneTimeSignature {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.z.encode_to(out);
        self.r.encode_to(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(OneTimeSignature {
            z: G1Affine::decode(input)?,
            r: G1Affine::decode(input)?,
        })
    }
}

impl Wire for OneTimePublicKey {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.g_hat.encode_to(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(OneTimePublicKey {
            g_hat: Vec::decode(input)?,
        })
    }
}

impl Wire for OneTimeSecretKey {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.chi.encode_to(out);
        self.gamma.encode_to(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(OneTimeSecretKey {
            chi: Vec::decode(input)?,
            gamma: Vec::decode(input)?,
        })
    }
}

impl PreparedOneTimePublicKey {
    /// The message-vector dimension this key verifies.
    pub fn dimension(&self) -> usize {
        self.g_hat.len()
    }

    /// Fully prepared verification: every `Ĝ`-side element of the
    /// equation (generators *and* key coordinates) pairs through cached
    /// line coefficients — the verification hot path for long-lived keys.
    pub fn verify(
        &self,
        prepared: &PreparedDpParams,
        msg: &[G1Projective],
        sig: &OneTimeSignature,
    ) -> bool {
        if msg.len() != self.dimension() {
            return false;
        }
        if msg.iter().all(|m| m.is_identity()) {
            return false;
        }
        let msg_affine = G1Projective::batch_to_affine(msg);
        let mut pairs: Vec<(&G1Affine, &G2Prepared)> =
            vec![(&sig.z, &prepared.g_z), (&sig.r, &prepared.g_r)];
        for (m, g) in msg_affine.iter().zip(self.g_hat.iter()) {
            pairs.push((m, g));
        }
        multi_pairing_mixed(&[], &pairs).is_identity()
    }
}

/// `SignDerive`: computes the signature on `Π M_i^{ω_i}` from signatures
/// `σ_i` on `M_i` — public linear derivation, no secret key involved.
pub fn sign_derive(weighted: &[(Fr, &OneTimeSignature)]) -> OneTimeSignature {
    let zs: Vec<G1Affine> = weighted.iter().map(|(_, s)| s.z).collect();
    let rs: Vec<G1Affine> = weighted.iter().map(|(_, s)| s.r).collect();
    let ws: Vec<Fr> = weighted.iter().map(|(w, _)| *w).collect();
    OneTimeSignature {
        z: msm(&zs, &ws).to_affine(),
        r: msm(&rs, &ws).to_affine(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x1457)
    }

    fn setup(r: &mut StdRng, n: usize) -> (DpParams, OneTimeSecretKey, OneTimePublicKey) {
        let params = DpParams::random(r);
        let sk = OneTimeSecretKey::random(n, r);
        let pk = sk.public_key(&params);
        (params, sk, pk)
    }

    fn random_msg(r: &mut StdRng, n: usize) -> Vec<G1Projective> {
        (0..n).map(|_| G1Projective::random(r)).collect()
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut r = rng();
        for n in [1usize, 2, 3] {
            let (params, sk, pk) = setup(&mut r, n);
            let msg = random_msg(&mut r, n);
            let sig = sk.sign(&msg);
            assert!(pk.verify(&params, &msg, &sig), "n={}", n);
        }
    }

    #[test]
    fn wrong_message_rejected() {
        let mut r = rng();
        let (params, sk, pk) = setup(&mut r, 2);
        let msg = random_msg(&mut r, 2);
        let sig = sk.sign(&msg);
        let other = random_msg(&mut r, 2);
        assert!(!pk.verify(&params, &other, &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let mut r = rng();
        let (params, sk, pk) = setup(&mut r, 2);
        let msg = random_msg(&mut r, 2);
        let sig = sk.sign(&msg);
        let bad = OneTimeSignature {
            z: G1Projective::random(&mut r).to_affine(),
            r: sig.r,
        };
        assert!(!pk.verify(&params, &msg, &bad));
    }

    #[test]
    fn all_identity_vector_rejected() {
        let mut r = rng();
        let (params, sk, pk) = setup(&mut r, 2);
        let msg = vec![G1Projective::identity(); 2];
        let sig = sk.sign(&msg);
        assert!(!pk.verify(&params, &msg, &sig));
    }

    #[test]
    fn wrong_dimension_rejected() {
        let mut r = rng();
        let (params, sk, pk) = setup(&mut r, 2);
        let msg = random_msg(&mut r, 2);
        let sig = sk.sign(&msg);
        assert!(!pk.verify(&params, &msg[..1], &sig));
    }

    #[test]
    fn linear_homomorphism() {
        let mut r = rng();
        let (params, sk, pk) = setup(&mut r, 2);
        let m1 = random_msg(&mut r, 2);
        let m2 = random_msg(&mut r, 2);
        let (s1, s2) = (sk.sign(&m1), sk.sign(&m2));
        let (w1, w2) = (Fr::random(&mut r), Fr::random(&mut r));
        // Derived signature must verify on M1^w1 * M2^w2.
        let derived = sign_derive(&[(w1, &s1), (w2, &s2)]);
        let combined: Vec<G1Projective> = m1
            .iter()
            .zip(m2.iter())
            .map(|(a, b)| a.mul(&w1) + b.mul(&w2))
            .collect();
        assert!(pk.verify(&params, &combined, &derived));
    }

    #[test]
    fn key_homomorphism() {
        let mut r = rng();
        let params = DpParams::random(&mut r);
        let sk1 = OneTimeSecretKey::random(2, &mut r);
        let sk2 = OneTimeSecretKey::random(2, &mut r);
        let msg = random_msg(&mut r, 2);
        // Componentwise product of signatures = signature under sk1+sk2.
        let joint_sig = OneTimeSignature {
            z: (sk1.sign(&msg).z.to_projective() + sk2.sign(&msg).z.to_projective()).to_affine(),
            r: (sk1.sign(&msg).r.to_projective() + sk2.sign(&msg).r.to_projective()).to_affine(),
        };
        let sk_sum = sk1.add(&sk2);
        assert_eq!(sk_sum.sign(&msg), joint_sig);
        let pk_sum = sk1.public_key(&params).combine(&sk2.public_key(&params));
        assert!(pk_sum.verify(&params, &msg, &joint_sig));
        assert_eq!(pk_sum, sk_sum.public_key(&params));
    }

    #[test]
    fn prepared_verification_agrees_with_slow_path() {
        let mut r = rng();
        let (params, sk, pk) = setup(&mut r, 2);
        let prepared = params.prepare();
        let pk_prep = pk.prepare();
        let msg = random_msg(&mut r, 2);
        let sig = sk.sign(&msg);
        // Accepting case: all three paths agree.
        assert!(pk.verify(&params, &msg, &sig));
        assert!(pk.verify_prepared(&prepared, &msg, &sig));
        assert!(pk_prep.verify(&prepared, &msg, &sig));
        // Rejecting cases must agree too: wrong message, bad dimension,
        // degenerate vector.
        let other = random_msg(&mut r, 2);
        assert!(!pk.verify_prepared(&prepared, &other, &sig));
        assert!(!pk_prep.verify(&prepared, &other, &sig));
        assert!(!pk.verify_prepared(&prepared, &msg[..1], &sig));
        assert!(!pk_prep.verify(&prepared, &msg[..1], &sig));
        let degenerate = vec![G1Projective::identity(); 2];
        let dsig = sk.sign(&degenerate);
        assert!(!pk.verify_prepared(&prepared, &degenerate, &dsig));
        assert!(!pk_prep.verify(&prepared, &degenerate, &dsig));
        assert_eq!(pk_prep.key, pk);
        assert_eq!(pk_prep.dimension(), pk.dimension());
    }

    #[test]
    fn signing_is_deterministic() {
        let mut r = rng();
        let (_, sk, _) = setup(&mut r, 2);
        let msg = random_msg(&mut r, 2);
        assert_eq!(sk.sign(&msg), sk.sign(&msg));
    }
}
