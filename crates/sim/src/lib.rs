//! # borndist-sim
//!
//! Scripted **adaptive-adversary** scenarios, chiefly for the DKG: an
//! [`Adversary`] watches the reliable broadcast channel as the protocol
//! runs and picks up to `t` players to corrupt *mid-protocol*, based on
//! what it observed — the adversary model under which the paper proves
//! the §3 scheme secure ("adaptive corruptions in the erasure-free
//! model"). The simulation counterpart of that claim is a matrix of
//! machine-checkable scenarios ([`run_scenario`], [`SCENARIOS`]): each
//! one runs a full DKG with a scripted adaptive corruption pattern over
//! the fault-injection transports and reports pass/fail criteria
//! (protocol completes, honest players agree, honest shares verify,
//! corruption budget respected, traffic parity where determinism is
//! promised) that CI gates on per scenario.
//!
//! A fifth scenario, `forged-partials`, turns the same harness on the
//! signing mesh ([`borndist_core::netsign`]): up to `t` Byzantine
//! signers forge every partial signature they send, one of them also
//! poses as the coordinator with a rogue `Open` and `Shutdown`, and the
//! criteria are the paper's robustness promises — every session
//! completes with the one valid signature, and the coordinator's
//! `Share-Verify` fallback names exactly the forgers.
//!
//! Adaptivity is implemented without breaking determinism: every
//! observation the adversary conditions on comes from the broadcast
//! channel, which is reliable — all players see the identical record —
//! so the corruption decision is a pure function of public traffic and
//! replays identically across transports, seeds and thread counts.
//!
//! ## Example
//!
//! ```rust
//! use borndist_sim::run_scenario;
//!
//! let report = run_scenario("complaint-flood", 7).unwrap();
//! assert!(report.all_pass(), "{}", report);
//! ```

mod adversary;
mod scenario;

pub use adversary::{
    adaptive_dkg_players, AdaptiveDkgPlayer, Adversary, AdversaryScript, CorruptAction,
    CorruptionRule,
};
pub use scenario::{run_scenario, Criterion, ScenarioReport, SCENARIOS};
