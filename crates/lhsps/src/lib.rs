//! # borndist-lhsps
//!
//! One-time **linearly homomorphic structure-preserving signatures**
//! (LHSPS, Libert–Peters–Joye–Yung, Crypto 2013) — the primitive from
//! which the paper's threshold signatures are derived (§2.3, Appendix C).
//!
//! Two instantiations of Appendix C's template, each used through its
//! concrete types:
//!
//! * [`one_time`] — the DP-assumption scheme with 2-element signatures
//!   (the §3 and Appendix G schemes);
//! * [`sdp`] — the SDP-assumption variant with 3-element signatures and
//!   two verification equations (the Appendix F DLIN scheme).
//!
//! [`params`] holds their public bases. Both expose the two structural
//! properties the threshold constructions rely on: *linear* homomorphism
//! over messages (`sign_derive`) and *key* homomorphism
//! (`SecretKey::add`, `PublicKey::combine`).
//!
//! ## Example
//!
//! ```rust
//! use borndist_lhsps::{DpParams, OneTimeSecretKey};
//! use borndist_pairing::G1Projective;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let params = DpParams::derive(b"example");
//! let sk = OneTimeSecretKey::random(2, &mut rng);
//! let pk = sk.public_key(&params);
//! let msg = vec![G1Projective::random(&mut rng), G1Projective::random(&mut rng)];
//! let sig = sk.sign(&msg);
//! assert!(pk.verify(&params, &msg, &sig));
//! ```

pub mod one_time;
pub mod params;
pub mod sdp;

pub use one_time::{sign_derive, OneTimePublicKey, OneTimeSecretKey, OneTimeSignature};
pub use params::{DpParams, PreparedDpParams, SdpParams};
pub use sdp::{SdpPublicKey, SdpSecretKey, SdpSignature};
