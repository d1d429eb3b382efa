//! # borndist-pairing
//!
//! A from-scratch implementation of the BLS12-381 pairing-friendly curve:
//! the cryptographic substrate for the *Born and Raised Distributively*
//! threshold-signature reproduction (Libert–Joye–Yung, PODC 2014).
//!
//! The paper assumes an asymmetric (type-3) bilinear group
//! `e : G × Ĝ → G_T` in which SXDH holds. This crate provides exactly that
//! interface:
//!
//! * [`Fp`], [`Fr`] — Montgomery-form base and scalar fields;
//! * [`Fp2`], [`Fp6`], [`Fp12`] — the tower used by the pairing;
//! * [`G1Projective`]/[`G1Affine`] — the group `G` (signatures, hashes);
//! * [`G2Projective`]/[`G2Affine`] — the group `Ĝ` (keys, commitments);
//! * [`Gt`], [`pairing`], [`multi_pairing`] — the target group and the
//!   optimal-ate pairing engine; [`G2Prepared`]/[`multi_pairing_prepared`]
//!   cache the Miller line coefficients of fixed second arguments;
//! * [`hash_to_g1`], [`hash_to_g2`], [`hash_to_g1_vector`], [`hash_to_fr`]
//!   — the paper's random oracles;
//! * [`msm`] — multi-scalar multiplication ("Lagrange in the exponent");
//! * [`FixedBaseTable`], [`batch_invert`] — the precomputation and
//!   batching layer under the hot verify path (DESIGN.md §2);
//! * [`parallel`] — the multi-core execution layer: MSM window
//!   accumulation, Miller-loop sharding, and batched normalization all
//!   fan out across [`parallel::Parallelism`]-configured threads with
//!   bit-identical results at every thread count;
//! * [`Sha256`] — the only hash primitive, also written from scratch.
//!
//! One pairing engine (optimal ate) and one scalar-multiplication ladder
//! (joint wNAF) are compiled into the release build. The slow oracles
//! they are tested against — the Tate engines and the generic final
//! exponentiation in `reference`, plus `Projective::mul_schoolbook` and
//! `Projective::is_torsion_free` — exist only under `cfg(test)` and the
//! `reference` feature, which only `[dev-dependencies]` entries enable.
//!
//! ## Example
//!
//! ```rust
//! use borndist_pairing::{pairing, G1Projective, G2Projective, Fr, Gt};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let (a, b) = (Fr::random(&mut rng), Fr::random(&mut rng));
//! let p = (G1Projective::generator() * a).to_affine();
//! let q = (G2Projective::generator() * b).to_affine();
//! // Bilinearity: e(aP, bQ) = e(P, Q)^(ab).
//! assert_eq!(pairing(&p, &q), Gt::generator().pow(&(a * b)));
//! ```
//!
//! ## Security model
//!
//! All arithmetic is **variable-time**. This workspace is a research
//! reproduction executed on public or simulated data; it must not be used
//! to protect real keys against side-channel adversaries.

mod arith;
pub mod codec;
pub mod constants;
mod curve;
mod endo;
mod fp;
mod fp12;
mod fp2;
mod fp6;
mod fr;
mod glv;
mod hash_to_curve;
mod msm;
mod pairing;
pub mod precompute;
#[cfg(any(test, feature = "reference"))]
pub mod reference;
mod sha256;
mod traits;

pub use codec::{CodecError, Wire};
pub use curve::{
    Affine, CurveParams, DecodePointError, G1Affine, G1Params, G1Projective, G2Affine, G2Params,
    G2Projective, Projective,
};
pub use endo::{g1_in_subgroup, g2_in_subgroup};
pub use fp::Fp;
pub use fp12::Fp12;
pub use fp2::Fp2;
pub use fp6::Fp6;
pub use fr::Fr;
pub use glv::{decompose_g1, decompose_g2, gls_eigenvalue, glv_lambda, Decomposition, SubScalar};
pub use hash_to_curve::{hash_to_fr, hash_to_g1, hash_to_g1_vector, hash_to_g2};
pub use msm::msm;
pub use pairing::{
    final_exponentiation, multi_miller_loop, multi_miller_loop_mixed, multi_pairing,
    multi_pairing_mixed, multi_pairing_prepared, pairing, G2Prepared, Gt,
};
pub use precompute::{
    g1_generator_table, g2_generator_prepared, g2_generator_table, mul_g1_generator,
    mul_g2_generator, FixedBaseTable, G1Table, G2Table,
};
#[cfg(any(test, feature = "reference"))]
pub use reference::{multi_pairing_tate, pairing_tate, pairing_tate_g2};
pub use sha256::{expand_message, sha256, sha256_tagged, Sha256};
pub use traits::{batch_invert, Field};

/// The multi-core execution layer (re-export of `borndist_parallel`):
/// [`parallel::Parallelism`], [`parallel::with_parallelism`],
/// [`parallel::par_map`] / [`parallel::par_chunks`], and the
/// `BORNDIST_THREADS` environment override.
pub use borndist_parallel as parallel;
