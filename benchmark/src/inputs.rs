//! Seeded request generation: the daemon receives only these frames.
//!
//! No message is ever generated twice, so a message-keyed memo inside
//! the daemon cannot flatter any workload.

use crate::daemon::{encode_request, DOMAIN};
use crate::schedule::Verb;
use borndist::core::gateway::VerifyRequest;
use borndist::core::ro::Signature;
use borndist::core::{AggPublicKey, AggregateScheme};
use borndist::lhsps::OneTimeSecretKey;
use borndist::pairing::Fr;
use borndist::shamir::{lagrange_coefficients_at_zero, ThresholdParams};
use borndist_service::ClientRequest;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeSet;

/// Number of distinct aggregate authorities verify traffic is signed by.
pub const AUTHORITIES: usize = 4;
/// Request ids: Signs count from 0, Verifies from here.
const VERIFY_ID_BASE: u64 = 1 << 32;

/// One request, encoded ahead of the timed window.
pub struct Request {
    pub id: u64,
    pub verb: Verb,
    /// The length-prefixed client frame.
    pub frame: Vec<u8>,
    /// Sign: the message (to check the returned signature against).
    pub msg: Vec<u8>,
    /// Verify: the verdict the gateway must return.
    pub expect_valid: bool,
    /// Verify: the request as the in-process gateway probes take it.
    pub verify: Option<VerifyRequest>,
}

fn message(kind: &str, seed: u64, index: usize, rng: &mut dyn RngCore) -> Vec<u8> {
    format!("{}/{}/{}/{:016x}", kind, seed, index, rng.next_u64()).into_bytes()
}

/// `count` Sign requests over distinct seeded messages.
pub fn sign_requests(seed: u64, count: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5151_5151);
    (0..count)
        .map(|i| {
            let id = i as u64;
            let msg = message("sign", seed, i, &mut rng);
            Request {
                id,
                verb: Verb::Sign,
                frame: encode_request(&ClientRequest::Sign {
                    id,
                    msg: msg.clone(),
                }),
                msg,
                expect_valid: true,
                verify: None,
            }
        })
        .collect()
}

/// A dealer-keyed aggregate authority that signs verify traffic.
pub struct Authority {
    pub pk: AggPublicKey,
    /// The joint secret, interpolated from `t + 1` dealer shares: one
    /// signing operation per message instead of `t + 1` partials and a
    /// combine, for the same (unique) signature.
    master: OneTimeSecretKey,
}

impl Authority {
    pub fn sign(&self, scheme: &AggregateScheme, msg: &[u8]) -> Signature {
        Signature {
            sig: self.master.sign(&scheme.hash_message(&self.pk, msg)),
        }
    }
}

/// The aggregate scheme context the daemon's gateway verifies under.
pub fn aggregate_scheme() -> AggregateScheme {
    AggregateScheme::new(DOMAIN.as_bytes())
}

pub fn authorities(scheme: &AggregateScheme, seed: u64) -> Vec<Authority> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA07A_07A0);
    let params = ThresholdParams::new(1, 4).expect("valid (t, n)");
    (0..AUTHORITIES)
        .map(|_| {
            let (pk, km) = scheme.dealer_keygen(params, &mut rng);
            let indices: Vec<u32> = km.shares.keys().copied().take(params.t + 1).collect();
            let coeffs = lagrange_coefficients_at_zero(&indices).expect("distinct indices");
            let mut master = OneTimeSecretKey {
                chi: vec![Fr::zero(); 2],
                gamma: vec![Fr::zero(); 2],
            };
            for (index, c) in indices.iter().zip(&coeffs) {
                let sk = &km.shares[index].sk;
                for k in 0..2 {
                    master.chi[k] += sk.chi[k] * *c;
                    master.gamma[k] += sk.gamma[k] * *c;
                }
            }
            Authority { pk, master }
        })
        .collect()
}

/// `count` Verify requests over distinct seeded messages, signed by the
/// authorities in rotation on as many threads as the host has CPUs.
/// Positions in `forged` carry a signature over a *different* message
/// and must be rejected.
pub fn verify_requests(
    scheme: &AggregateScheme,
    auths: &[Authority],
    seed: u64,
    count: usize,
    forged: &BTreeSet<usize>,
) -> Vec<Request> {
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7E71_F1ED);
    let messages: Vec<Vec<u8>> = (0..count)
        .map(|i| message("verify", seed, i, &mut rng))
        .collect();
    let build = |i: usize| {
        let auth = &auths[i % auths.len()];
        let id = VERIFY_ID_BASE + i as u64;
        let is_forged = forged.contains(&i);
        let sig = if is_forged {
            auth.sign(scheme, &[b"forged/", messages[i].as_slice()].concat())
        } else {
            auth.sign(scheme, &messages[i])
        };
        let verify = VerifyRequest {
            id,
            epoch: 0,
            pk: auth.pk.clone(),
            msg: messages[i].clone(),
            sig,
        };
        Request {
            id,
            verb: Verb::Verify,
            frame: encode_request(&ClientRequest::Verify {
                id,
                epoch: verify.epoch,
                pk: verify.pk.clone(),
                msg: verify.msg.clone(),
                sig,
            }),
            msg: Vec::new(),
            expect_valid: !is_forged,
            verify: Some(verify),
        }
    };
    let indices: Vec<usize> = (0..count).collect();
    let chunk = count.div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = indices
            .chunks(chunk)
            .map(|part| s.spawn(|| part.iter().map(|i| build(*i)).collect::<Vec<_>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("signing worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::forged_positions;
    use borndist::net::Wire;

    #[test]
    fn forged_positions_match_ground_truth() {
        let scheme = aggregate_scheme();
        let auths = authorities(&scheme, 9);
        let forged = forged_positions(12, 0.25, &mut StdRng::seed_from_u64(9));
        let reqs = verify_requests(&scheme, &auths, 9, 12, &forged);
        assert_eq!(reqs.len(), 12);
        for (i, r) in reqs.iter().enumerate() {
            let ClientRequest::Verify {
                id, pk, msg, sig, ..
            } = ClientRequest::decode_exact(&r.frame[4..]).unwrap()
            else {
                panic!("not a Verify frame");
            };
            assert_eq!(id, VERIFY_ID_BASE + i as u64);
            assert_eq!(r.expect_valid, !forged.contains(&i));
            assert_eq!(scheme.verify(&pk, &msg, &sig), r.expect_valid);
        }
    }

    #[test]
    fn requests_are_a_pure_function_of_the_seed_and_never_repeat() {
        let a = sign_requests(4, 50);
        let b = sign_requests(4, 50);
        assert!(a.iter().zip(&b).all(|(x, y)| x.frame == y.frame));
        let distinct: BTreeSet<&[u8]> = a.iter().map(|r| r.msg.as_slice()).collect();
        assert_eq!(distinct.len(), 50);
        assert_ne!(sign_requests(5, 1)[0].frame, a[0].frame);
    }
}
