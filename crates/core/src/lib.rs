//! # borndist-core
//!
//! The paper's contributions, end to end — *Born and Raised
//! Distributively: Fully Distributed Non-Interactive Adaptively-Secure
//! Threshold Signatures with Short Shares* (Libert–Joye–Yung, PODC 2014):
//!
//! * [`ro`] — the main §3 scheme (random-oracle model): Pedersen-DKG-born
//!   keys, 4-scalar shares, 2-element signatures, non-interactive signing,
//!   4-pairing verification, and its one robust `Combine`, the optimistic
//!   [`Combiner`];
//! * [`aggregate`] — the Appendix G extension with unrestricted signature
//!   aggregation and self-certifying public keys;
//! * [`dlin`] — the Appendix F variant under the (weaker) DLIN assumption,
//!   with 3-element signatures and two verification equations;
//! * [`standard`] — the §4 standard-model scheme over Groth–Sahai proofs;
//! * [`proactive`] — §3.3 proactive epochs (refresh + share recovery);
//! * [`batch`] — small-exponent randomized batch verification: `k`
//!   signatures (or `k` signature shares on one message) checked with
//!   one shared multi-pairing instead of `4k` pairings (DESIGN.md §2);
//! * [`netsign`] — threshold signing as a network protocol: concurrent
//!   sessions multiplexed over one mesh, each one round trip — stateless
//!   signers answer the coordinator's `Open` with their partial, and the
//!   coordinator is the one combiner, re-sending `Open` to silent
//!   signers under lossy delivery policies (DESIGN.md §2 "Signing on the
//!   mesh");
//! * [`gateway`] — the amortized verification front door: independent
//!   verify requests buffered per epoch and answered with one randomized
//!   multi-pairing, with bisection on poisoned buffers (DESIGN.md §2
//!   "Aggregation gateway").
//!
//! ## Quickstart
//!
//! ```rust
//! use borndist_core::ro::ThresholdScheme;
//! use borndist_net::TransportKind;
//! use borndist_shamir::ThresholdParams;
//! use std::collections::BTreeMap;
//!
//! // 4 servers, tolerating t = 1 corruption; key born distributed.
//! let scheme = ThresholdScheme::new(b"my-deployment");
//! let (km, _) = scheme
//!     .keygen_session(
//!         ThresholdParams::new(1, 4).unwrap(),
//!         &BTreeMap::new(),
//!         7,
//!         &TransportKind::Lockstep,
//!     )
//!     .unwrap();
//! // Two servers independently produce partial signatures (no talking).
//! let p1 = scheme.share_sign(&km.shares[&1], b"hello");
//! let p3 = scheme.share_sign(&km.shares[&3], b"hello");
//! // Anyone combines and verifies.
//! let sig = scheme.combine(&km.params, &[p1, p3]).unwrap();
//! assert!(scheme.verify(&km.public_key, b"hello", &sig));
//! ```

pub mod aggregate;
pub mod batch;
pub mod dlin;
pub mod gateway;
pub mod netsign;
pub mod proactive;
pub mod ro;
pub mod standard;

pub use aggregate::{AggPublicKey, AggregateError, AggregateScheme, AggregateSignature};
pub use dlin::{
    DlinKeyMaterial, DlinKeyShare, DlinPartialSignature, DlinPublicKey, DlinScheme, DlinSignature,
    DlinVerificationKey,
};
pub use gateway::{AggregationGateway, GatewayConfig, GatewayStats, Verdict, VerifyRequest};
pub use netsign::{run_mux_sign, MuxCoordinator, MuxMessage, MuxOutcome, MuxSignerPlayer};
pub use proactive::{ProactiveDeployment, ProactiveError};
pub use ro::{
    CombineError, Combiner, Committee, DistKeygenError, KeyMaterial, KeyShare, PartialSignature,
    PublicKey, Signature, ThresholdScheme, VerificationKey,
};
pub use standard::{
    StandardScheme, StdKeyMaterial, StdKeyShare, StdPartialSignature, StdPublicKey, StdSignature,
    StdVerificationKey,
};
