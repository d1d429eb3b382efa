//! Shared public parameters for the LHSPS instantiations.
//!
//! No party may know the discrete logs relating the generators, so the
//! canonical constructors derive them from a random oracle
//! (`hash_to_g2` with fixed domain tags), exactly as the paper suggests
//! ("it can simply be derived from a random oracle", §3.1).

use borndist_pairing::{hash_to_g2, G2Affine, G2Prepared};
use rand::RngCore;

/// Parameters of the Double-Pairing-based scheme: `(ĝ_z, ĝ_r) ∈ Ĝ²`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DpParams {
    /// First generator `ĝ_z`.
    pub g_z: G2Affine,
    /// Second generator `ĝ_r`.
    pub g_r: G2Affine,
}

/// The generator pair with its optimal-ate Miller line coefficients
/// precomputed ([`G2Prepared`]): `(ĝ_z, ĝ_r)` appear on the `Ĝ` side of
/// *every* verification equation in the workspace, so schemes build this
/// once at setup and every verification skips their `Fp2` point
/// arithmetic entirely.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreparedDpParams {
    /// Prepared `ĝ_z`.
    pub g_z: G2Prepared,
    /// Prepared `ĝ_r`.
    pub g_r: G2Prepared,
}

impl DpParams {
    /// Precomputes the pairing line coefficients of both generators.
    pub fn prepare(&self) -> PreparedDpParams {
        PreparedDpParams {
            g_z: G2Prepared::new(&self.g_z),
            g_r: G2Prepared::new(&self.g_r),
        }
    }
    /// Derives parameters from a protocol tag via the random oracle.
    pub fn derive(tag: &[u8]) -> Self {
        let mut t1 = tag.to_vec();
        t1.extend_from_slice(b"/g_z");
        let mut t2 = tag.to_vec();
        t2.extend_from_slice(b"/g_r");
        DpParams {
            g_z: hash_to_g2(b"borndist/dp-params", &t1).to_affine(),
            g_r: hash_to_g2(b"borndist/dp-params", &t2).to_affine(),
        }
    }

    /// Samples random parameters (tests and simulations).
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        DpParams {
            g_z: borndist_pairing::G2Projective::random(rng).to_affine(),
            g_r: borndist_pairing::G2Projective::random(rng).to_affine(),
        }
    }
}

/// Parameters of the Simultaneous-Double-Pairing-based scheme
/// (Appendix F): `(ĝ_z, ĝ_r, ĥ_z, ĥ_u) ∈ Ĝ⁴`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SdpParams {
    /// `ĝ_z`.
    pub g_z: G2Affine,
    /// `ĝ_r`.
    pub g_r: G2Affine,
    /// `ĥ_z`.
    pub h_z: G2Affine,
    /// `ĥ_u`.
    pub h_u: G2Affine,
}

impl SdpParams {
    /// Derives parameters from a protocol tag via the random oracle.
    pub fn derive(tag: &[u8]) -> Self {
        let gen = |suffix: &[u8]| {
            let mut t = tag.to_vec();
            t.extend_from_slice(suffix);
            hash_to_g2(b"borndist/sdp-params", &t).to_affine()
        };
        SdpParams {
            g_z: gen(b"/g_z"),
            g_r: gen(b"/g_r"),
            h_z: gen(b"/h_z"),
            h_u: gen(b"/h_u"),
        }
    }

    /// Samples random parameters (tests and simulations).
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        SdpParams {
            g_z: borndist_pairing::G2Projective::random(rng).to_affine(),
            g_r: borndist_pairing::G2Projective::random(rng).to_affine(),
            h_z: borndist_pairing::G2Projective::random(rng).to_affine(),
            h_u: borndist_pairing::G2Projective::random(rng).to_affine(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_distinct() {
        let a = DpParams::derive(b"tag1");
        let b = DpParams::derive(b"tag1");
        let c = DpParams::derive(b"tag2");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a.g_z, a.g_r);
        assert!(!a.g_z.is_identity());
    }

    #[test]
    fn sdp_generators_pairwise_distinct() {
        let p = SdpParams::derive(b"tag");
        let gens = [p.g_z, p.g_r, p.h_z, p.h_u];
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(gens[i], gens[j]);
            }
        }
    }
}
