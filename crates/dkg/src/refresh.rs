//! Proactive share refresh (§3.3).
//!
//! At the start of each period the players run a fresh instance of the
//! DKG in [`SharingMode::Refresh`]: every dealer shares the pair `(0, 0)`
//! (checked publicly via `Ŵ_{ik0} = 1`), and each player adds the
//! resulting shares to its current ones. The joint secret — and hence the
//! public key — is unchanged, while any set of ≤ t shares from *different
//! periods* becomes useless to a mobile adversary.

use crate::player::{Appendix, Behavior, DkgConfig, DkgOutput, SharingMode, SimulatedRunResult};
use borndist_net::PlayerId;
use borndist_pairing::Fr;
use borndist_shamir::PedersenCommitment;
use std::collections::BTreeMap;

/// Applies a refresh to an existing share vector: componentwise addition
/// of the zero-sharing shares.
pub fn apply_refresh(old_share: &[(Fr, Fr)], refresh: &DkgOutput) -> Vec<(Fr, Fr)> {
    assert_eq!(
        old_share.len(),
        refresh.share.len(),
        "refresh width must match the original sharing"
    );
    old_share
        .iter()
        .zip(refresh.share.iter())
        .map(|((a, b), (da, db))| (*a + *da, *b + *db))
        .collect()
}

/// Updates the combined commitments (and hence every verification key)
/// after a refresh: coefficient-wise product with the refresh
/// commitments. The constant coefficients — the public key — are
/// unchanged because the refresh constant commitments are identities.
pub fn apply_refresh_commitments(
    old: &[PedersenCommitment],
    refresh: &DkgOutput,
) -> Vec<PedersenCommitment> {
    old.iter()
        .zip(refresh.combined_commitments.iter())
        .map(|(a, b)| a.combine(b))
        .collect()
}

/// Runs one refresh period over any transport (refresh messages are
/// ordinary [`crate::DkgMessage`] frames, so everything said about
/// [`crate::dkg_session`] applies).
///
/// `cfg` must describe the *original* DKG (same width, bases, params);
/// its mode is overridden to [`SharingMode::Refresh`].
pub fn refresh_session(
    cfg: &DkgConfig,
    behaviors: &BTreeMap<PlayerId, Behavior>,
    seed: u64,
    transport: &borndist_net::TransportKind,
) -> SimulatedRunResult {
    let mut refresh_cfg = cfg.clone();
    refresh_cfg.mode = SharingMode::Refresh;
    // The Appendix G witness commits to the *key* constants, which are all
    // zero during refresh; skip it. Appendix F keeps its column layout:
    // its zero-constant triples are dealt like any other refresh sharing.
    if let Appendix::Aggregate(_) = refresh_cfg.appendix {
        refresh_cfg.appendix = Appendix::None;
    }
    crate::player::dkg_session(&refresh_cfg, behaviors, seed, transport)
}
