//! Proactive security for the §3 scheme (§3.3): periodic share refresh
//! against *mobile* adversaries, plus recovery of lost shares.
//!
//! Each epoch the players re-share zero (over the simulated network, with
//! the same complaint machinery as the DKG) and add the result to their
//! shares. The public key never changes; every verification key does.
//! An adversary that corrupts up to `t` players *per epoch* — even all
//! players across different epochs — learns nothing useful, because
//! shares from different epochs do not interpolate to the secret.

use crate::ro::{
    honest_reference, verification_keys, KeyMaterial, KeyShare, ThresholdScheme, VerificationKey,
};
use borndist_dkg::{recovery, refresh, Behavior};
use borndist_lhsps::{OneTimePublicKey, OneTimeSecretKey};
use borndist_net::Metrics;
use borndist_pairing::Fr;
use std::collections::BTreeMap;

/// A proactivized deployment of the threshold scheme: key material that
/// can be advanced through epochs.
#[derive(Clone, Debug)]
pub struct ProactiveDeployment {
    scheme: ThresholdScheme,
    material: KeyMaterial,
    epoch: u64,
}

/// Errors of the proactive layer.
#[derive(Debug)]
pub enum ProactiveError {
    /// The refresh protocol failed at the network level (any transport,
    /// any layer — see [`borndist_net::Error`]).
    Network(borndist_net::Error),
    /// No honest refresh output was produced.
    NoHonestOutput,
    /// Share recovery failed.
    Recovery(recovery::RecoveryError),
}

impl core::fmt::Display for ProactiveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProactiveError::Network(e) => write!(f, "refresh network failure: {}", e),
            ProactiveError::NoHonestOutput => f.write_str("no honest refresh output"),
            ProactiveError::Recovery(e) => write!(f, "share recovery failed: {}", e),
        }
    }
}
impl std::error::Error for ProactiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProactiveError::Network(e) => Some(e),
            ProactiveError::Recovery(e) => Some(e),
            ProactiveError::NoHonestOutput => None,
        }
    }
}

impl From<borndist_net::Error> for ProactiveError {
    fn from(e: borndist_net::Error) -> Self {
        ProactiveError::Network(e)
    }
}

impl ProactiveDeployment {
    /// Wraps freshly generated key material.
    pub fn new(scheme: ThresholdScheme, material: KeyMaterial) -> Self {
        ProactiveDeployment {
            scheme,
            material,
            epoch: 0,
        }
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Scheme context.
    pub fn scheme(&self) -> &ThresholdScheme {
        &self.scheme
    }

    /// Current key material.
    pub fn material(&self) -> &KeyMaterial {
        &self.material
    }

    /// Runs one refresh epoch: all players re-share zero, shares are
    /// updated in place, verification keys recomputed. The public key is
    /// untouched.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures and the (impossible under honest
    /// majority) absence of honest outputs.
    pub fn refresh_epoch(
        &mut self,
        behaviors: &BTreeMap<u32, Behavior>,
        seed: u64,
        transport: &borndist_net::TransportKind,
    ) -> Result<Metrics, ProactiveError> {
        let cfg = self.scheme.dkg_config(self.material.params);
        let (outputs, metrics) = refresh::refresh_session(&cfg, behaviors, seed, transport)
            .map_err(ProactiveError::Network)?;
        let reference =
            honest_reference(&outputs, behaviors).ok_or(ProactiveError::NoHonestOutput)?;

        // Update combined commitments and verification keys.
        self.material.commitments =
            refresh::apply_refresh_commitments(&self.material.commitments, reference);
        let vks = verification_keys(&self.material.commitments, self.material.params.n, |_| true);
        for (vk, i) in vks.into_iter().zip(1..) {
            self.material.verification_keys.insert(
                i,
                VerificationKey {
                    index: i,
                    pk: OneTimePublicKey { g_hat: vk },
                },
            );
        }
        // Update each player's share with its own refresh output.
        let mut new_shares = BTreeMap::new();
        for (id, share) in &self.material.shares {
            if let Some(Ok(r)) = outputs.get(id) {
                let old = [
                    (share.sk.chi[0], share.sk.gamma[0]),
                    (share.sk.chi[1], share.sk.gamma[1]),
                ];
                let updated = refresh::apply_refresh(&old, r);
                new_shares.insert(
                    *id,
                    KeyShare {
                        index: *id,
                        sk: OneTimeSecretKey {
                            chi: vec![updated[0].0, updated[1].0],
                            gamma: vec![updated[0].1, updated[1].1],
                        },
                    },
                );
            }
        }
        self.material.shares = new_shares;
        self.epoch += 1;
        Ok(metrics)
    }

    /// Restores player `target`'s share from `t+1` helpers (Herzberg
    /// recovery per sharing coordinate), e.g. after a crash or detected
    /// corruption.
    ///
    /// # Errors
    ///
    /// Fails if helpers are insufficient or inconsistent.
    pub fn recover_share<R: rand::RngCore + ?Sized>(
        &self,
        helper_ids: &[u32],
        target: u32,
        rng: &mut R,
    ) -> Result<KeyShare, ProactiveError> {
        let bases = self.scheme.pedersen_bases();
        let t = self.material.params.t;
        let mut per_k: Vec<(Fr, Fr)> = Vec::new();
        for k in 0..2 {
            let helpers: Vec<recovery::Helper> = helper_ids
                .iter()
                .map(|id| recovery::Helper {
                    id: *id,
                    share: (
                        self.material.shares[id].sk.chi[k],
                        self.material.shares[id].sk.gamma[k],
                    ),
                })
                .collect();
            let recovered = recovery::recover_share(
                &bases,
                &self.material.commitments[k],
                t,
                &helpers,
                target,
                rng,
            )
            .map_err(ProactiveError::Recovery)?;
            per_k.push(recovered);
        }
        Ok(KeyShare {
            index: target,
            sk: OneTimeSecretKey {
                chi: vec![per_k[0].0, per_k[1].0],
                gamma: vec![per_k[0].1, per_k[1].1],
            },
        })
    }

    /// Detects whether a player's share matches the public commitments —
    /// how a player notices (after a crash or intrusion) that its share
    /// needs recovery.
    pub fn share_consistent(&self, share: &KeyShare) -> bool {
        (0..2).all(|k| {
            let s = borndist_shamir::PedersenShare {
                index: share.index,
                a: share.sk.chi[k],
                b: share.sk.gamma[k],
            };
            self.material.commitments[k].verify_share(&self.scheme.pedersen_bases(), &s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ro::PartialSignature;
    use borndist_shamir::ThresholdParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn deployment() -> ProactiveDeployment {
        let scheme = ThresholdScheme::new(b"proactive-tests");
        let mut r = StdRng::seed_from_u64(0xabc);
        let km = scheme.dealer_keygen(ThresholdParams::new(2, 5).unwrap(), &mut r);
        ProactiveDeployment::new(scheme, km)
    }

    #[test]
    fn epoch_preserves_public_key_and_signing() {
        let mut dep = deployment();
        let pk_before = dep.material().public_key.clone();
        let msg = b"signed before refresh";
        let sig_before = {
            let partials: Vec<PartialSignature> = (1..=3u32)
                .map(|i| dep.scheme().share_sign(&dep.material().shares[&i], msg))
                .collect();
            dep.scheme()
                .combine(&dep.material().params, &partials)
                .unwrap()
        };

        dep.refresh_epoch(
            &BTreeMap::new(),
            1001,
            &borndist_net::TransportKind::Lockstep,
        )
        .unwrap();
        assert_eq!(dep.epoch(), 1);
        assert_eq!(dep.material().public_key, pk_before);

        // New shares sign; the signature still verifies under the same PK
        // and (determinism) equals the pre-refresh signature.
        let partials: Vec<PartialSignature> = (2..=4u32)
            .map(|i| dep.scheme().share_sign(&dep.material().shares[&i], msg))
            .collect();
        let sig_after = dep
            .scheme()
            .combine(&dep.material().params, &partials)
            .unwrap();
        assert!(dep
            .scheme()
            .verify(&dep.material().public_key, msg, &sig_after));
        assert_eq!(sig_before, sig_after);
    }

    #[test]
    fn stale_shares_fail_against_new_vks() {
        let mut dep = deployment();
        let old_share = dep.material().shares[&1].clone();
        dep.refresh_epoch(
            &BTreeMap::new(),
            1002,
            &borndist_net::TransportKind::Lockstep,
        )
        .unwrap();
        // The stale share no longer matches the refreshed commitments.
        assert!(!dep.share_consistent(&old_share));
        assert!(dep.share_consistent(&dep.material().shares[&1]));
        // Partial signatures from the stale share fail Share-Verify.
        let msg = b"epoch 1 message";
        let stale_partial = dep.scheme().share_sign(&old_share, msg);
        assert!(!dep.scheme().share_verify(
            &dep.material().verification_keys[&1],
            msg,
            &stale_partial
        ));
    }

    #[test]
    fn mobile_adversary_cross_epoch_shares_useless() {
        // Corrupt t players in epoch 0 and t different ones in epoch 1:
        // the union (2t > t) of stale+fresh shares must not combine into
        // anything valid under the current VKs.
        let mut dep = deployment();
        let epoch0_shares: Vec<_> = (1..=2u32)
            .map(|i| dep.material().shares[&i].clone())
            .collect();
        dep.refresh_epoch(
            &BTreeMap::new(),
            1003,
            &borndist_net::TransportKind::Lockstep,
        )
        .unwrap();
        let msg = b"mobile adversary";
        // Epoch-0 partials are rejected now.
        for s in &epoch0_shares {
            let p = dep.scheme().share_sign(s, msg);
            assert!(!dep.scheme().share_verify(
                &dep.material().verification_keys[&s.index],
                msg,
                &p
            ));
        }
    }

    #[test]
    fn recovery_after_refresh() {
        let mut dep = deployment();
        dep.refresh_epoch(
            &BTreeMap::new(),
            1004,
            &borndist_net::TransportKind::Lockstep,
        )
        .unwrap();
        let mut r = StdRng::seed_from_u64(7);
        let recovered = dep.recover_share(&[1, 2, 4], 3, &mut r).unwrap();
        assert_eq!(recovered, dep.material().shares[&3]);
    }

    #[test]
    fn multiple_epochs() {
        let mut dep = deployment();
        let pk = dep.material().public_key.clone();
        for e in 0..3u64 {
            dep.refresh_epoch(
                &BTreeMap::new(),
                2000 + e,
                &borndist_net::TransportKind::Lockstep,
            )
            .unwrap();
        }
        assert_eq!(dep.epoch(), 3);
        assert_eq!(dep.material().public_key, pk);
        let msg = b"three epochs later";
        let partials: Vec<PartialSignature> = (1..=3u32)
            .map(|i| dep.scheme().share_sign(&dep.material().shares[&i], msg))
            .collect();
        let sig = dep
            .scheme()
            .combine(&dep.material().params, &partials)
            .unwrap();
        assert!(dep.scheme().verify(&dep.material().public_key, msg, &sig));
    }
}
