//! # borndist-dkg
//!
//! Pedersen distributed key generation **exactly as specified in §3.1 of
//! the paper**: each player verifiably shares `width` random pairs with
//! the two-generator Pedersen VSS, complaints and answers run over the
//! broadcast channel, dealers with more than `t` complaints or invalid
//! answers are disqualified, and the key material of the surviving set
//! `Q` is summed.
//!
//! The protocol is intentionally *not* biased-free (the adversary can
//! skew the public-key distribution, as Gennaro et al. showed); the whole
//! point of the paper is that the §3 signature scheme stays adaptively
//! secure anyway. What this crate guarantees is *agreement* (all honest
//! players derive the same `Q`, public key and verification keys) and
//! *share correctness* (every honest player's share opens the combined
//! commitment at its index).
//!
//! Also here:
//! * [`refresh`] — proactive zero-resharing (§3.3);
//! * [`recovery`] — Herzberg-style lost-share recovery (§3.3);
//! * the [`Appendix`] variants of the one protocol: the Appendix G
//!   witness broadcast for the aggregate-capable scheme, and Appendix F's
//!   DLIN triples, dealt as paired Pedersen columns that share `A_k`.
//!
//! ## Example
//!
//! ```rust
//! use borndist_dkg::{dkg_session, standard_config};
//! use borndist_net::TransportKind;
//! use borndist_shamir::ThresholdParams;
//! use std::collections::BTreeMap;
//!
//! let params = ThresholdParams::new(1, 4).unwrap();
//! let cfg = standard_config(params, 2, b"doc-example", false);
//! let (outputs, metrics) =
//!     dkg_session(&cfg, &BTreeMap::new(), 42, &TransportKind::Lockstep).unwrap();
//! assert!(outputs.values().all(|o| o.is_ok()));
//! // Honest run: the only active round is the dealing round.
//! assert_eq!(metrics.active_rounds, 1);
//! ```

mod messages;
pub mod player;
pub mod recovery;
pub mod refresh;

pub use messages::{AggregateWitness, DkgMessage};
pub use player::{
    dkg_players, dkg_session, standard_config, AggregateBases, Appendix, Behavior, DkgAbort,
    DkgConfig, DkgOutput, DkgPlayer, SharingMode, SimulatedRunResult,
};
pub use recovery::{recover_share, Helper, RecoveryError, RecoveryMessage};
pub use refresh::{apply_refresh, apply_refresh_commitments, refresh_session};
