//! # borndist
//!
//! A from-scratch Rust reproduction of **"Born and Raised Distributively:
//! Fully Distributed Non-Interactive Adaptively-Secure Threshold
//! Signatures with Short Shares"** (Benoît Libert, Marc Joye, Moti Yung —
//! PODC 2014).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`pairing`] | BLS12-381 fields, groups, optimal-ate pairing, hash-to-curve, SHA-256 — all built here, no external crypto |
//! | [`parallel`] | zero-dependency multi-core layer: `Parallelism` config, scoped-thread `par_map`/`par_chunks`, `BORNDIST_THREADS` override |
//! | [`shamir`] | polynomials, Lagrange (plain & in-the-exponent), Feldman / Pedersen VSS |
//! | [`net`] | the paper's communication model as a transport-abstracted runtime: canonical byte frames, one in-memory link (lockstep or under a fault policy) + a socket reactor, fault injection, exact traffic metering |
//! | [`dkg`] | Pedersen distributed key generation (§3.1) with complaints, disqualification, proactive refresh (§3.3) and share recovery, for every scheme including Appendix F's DLIN triples |
//! | [`lhsps`] | one-time linearly homomorphic structure-preserving signatures (§2.3, Appendix C): the DP and SDP instantiations |
//! | [`grothsahai`] | SXDH Groth–Sahai NIWI proofs for linear pairing-product equations (§4, Appendix A) |
//! | [`core`] | the paper's schemes: §3 ROM, Appendix G aggregation, Appendix F DLIN, §4 standard model, §3.3 proactive epochs |
//! | [`baselines`] | plain BLS, Boldyreva threshold BLS, additive-reshare (ADN-style) scheme, RSA size constants |
//! | [`sim`] | scripted adaptive-adversary scenario matrix over the fault-injection transports, gated per scenario in CI |
//! | [`prelude`] | the service-facing surface in one import: schemes, `Wire`, transports, session drivers, `Parallelism` |
//!
//! See `examples/quickstart.rs` for a five-minute tour and DESIGN.md for
//! the architecture notes and the E1–E10 experiment index (measured
//! results will land in EXPERIMENTS.md alongside the measurement
//! harness).

/// The service-facing surface in one import.
///
/// Everything a deployment binary needs to generate keys distributively,
/// sign over a transport, and meter traffic:
///
/// ```rust
/// use borndist::prelude::*;
/// use std::collections::BTreeMap;
///
/// let scheme = ThresholdScheme::new(b"prelude-tour");
/// let (km, _) = scheme
///     .keygen_session(
///         ThresholdParams::new(1, 4).unwrap(),
///         &BTreeMap::new(),
///         7,
///         &TransportKind::Lockstep,
///     )
///     .unwrap();
/// let sig = scheme
///     .combine(
///         &km.params,
///         &[
///             scheme.share_sign(&km.shares[&1], b"hi"),
///             scheme.share_sign(&km.shares[&3], b"hi"),
///         ],
///     )
///     .unwrap();
/// assert!(scheme.verify(&km.public_key, b"hi", &sig));
/// ```
pub mod prelude {
    pub use borndist_core::netsign::{
        run_mux_sign, MuxCoordinator, MuxMessage, MuxOutcome, MuxSignerPlayer,
    };
    pub use borndist_core::proactive::{ProactiveDeployment, ProactiveError};
    pub use borndist_core::ro::{
        DistKeygenError, KeyMaterial, KeyShare, PartialSignature, PublicKey, Signature,
        ThresholdScheme, VerificationKey,
    };
    pub use borndist_core::{AggregateScheme, DlinScheme, StandardScheme};
    pub use borndist_dkg::{dkg_session, refresh_session, standard_config, Behavior, DkgConfig};
    pub use borndist_net::{
        DeliveryPolicy, Error as NetError, Metrics, ReactorTransport, TransportKind, Wire,
    };
    pub use borndist_parallel::Parallelism;
    pub use borndist_shamir::ThresholdParams;
}

pub use borndist_baselines as baselines;
pub use borndist_core as core;
pub use borndist_dkg as dkg;
pub use borndist_grothsahai as grothsahai;
pub use borndist_lhsps as lhsps;
pub use borndist_net as net;
pub use borndist_pairing as pairing;
pub use borndist_parallel as parallel;
pub use borndist_shamir as shamir;
pub use borndist_sim as sim;
