//! Appendix F's DLIN key born on the one `Dist-Keygen`: each triple
//! `(A_k, B_k, C_k)` runs as two Pedersen columns that share `A_k`
//! ([`Appendix::Dlin`]), through the same complaint and
//! disqualification machinery as §3.1.

use borndist_dkg::{
    apply_refresh, apply_refresh_commitments, dkg_players, dkg_session, refresh_session,
    standard_config, Appendix, Behavior, DkgAbort, DkgConfig, DkgMessage, DkgOutput, DkgPlayer,
};
use borndist_lhsps::sdp::sign_derive;
use borndist_lhsps::{SdpParams, SdpPublicKey, SdpSecretKey, SdpSignature};
use borndist_net::{
    run_protocol, Delivered, DeliveryPolicy, PlayerId, Protocol, RoundAction, TransportKind,
};
use borndist_pairing::{hash_to_g1_vector, hash_to_g2, Fr};
use borndist_shamir::{
    lagrange_coefficients_at_zero, PedersenBases, PedersenShare, PedersenSharing, ThresholdParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

const WIDTH: usize = 3;

/// A width-3 DLIN configuration: `(ĝ_z, ĝ_r)` from `standard_config`,
/// `(ĥ_z, ĥ_u)` hashed from the same tag.
fn dlin_config(params: ThresholdParams, tag: &[u8]) -> DkgConfig {
    let mut cfg = standard_config(params, WIDTH, tag, false);
    cfg.appendix = Appendix::Dlin(PedersenBases {
        g_z: hash_to_g2(b"borndist/dkg-test/h_z", tag).to_affine(),
        g_r: hash_to_g2(b"borndist/dkg-test/h_u", tag).to_affine(),
    });
    cfg
}

fn second_bases(cfg: &DkgConfig) -> PedersenBases {
    match cfg.appendix {
        Appendix::Dlin(h) => h,
        _ => panic!("not a DLIN configuration"),
    }
}

fn sdp_params(cfg: &DkgConfig) -> SdpParams {
    let h = second_bases(cfg);
    SdpParams {
        g_z: cfg.bases.g_z,
        g_r: cfg.bases.g_r,
        h_z: h.g_z,
        h_u: h.g_r,
    }
}

/// The honest outputs, after checking that they agree on QUAL and on the
/// combined columns.
fn agreed(outputs: &BTreeMap<PlayerId, Result<DkgOutput, DkgAbort>>) -> Vec<&DkgOutput> {
    let oks: Vec<&DkgOutput> = outputs.values().filter_map(|o| o.as_ref().ok()).collect();
    assert!(!oks.is_empty(), "some player must finish");
    for o in &oks {
        assert_eq!(o.qualified, oks[0].qualified, "qualified-set agreement");
        assert_eq!(o.combined_commitments, oks[0].combined_commitments);
    }
    oks
}

/// Every share opens both of its combined columns at the player's index,
/// with one `A_k(i)` in each pair.
fn assert_shares_open_columns(cfg: &DkgConfig, o: &DkgOutput) {
    assert_eq!(o.share.len(), 2 * WIDTH);
    assert_eq!(o.combined_commitments.len(), 2 * WIDTH);
    let h = second_bases(cfg);
    for (c, (a, b)) in o.share.iter().enumerate() {
        let bases = if c < WIDTH { &cfg.bases } else { &h };
        let share = PedersenShare {
            index: o.id,
            a: *a,
            b: *b,
        };
        assert!(o.combined_commitments[c].verify_share(bases, &share));
    }
    for k in 0..WIDTH {
        assert_eq!(o.share[k].0, o.share[WIDTH + k].0, "paired A_{}", k);
    }
}

/// The SDP key of a DLIN output: `chi = A`, `gamma = B`, `delta = C`.
fn secret_key(o: &DkgOutput) -> SdpSecretKey {
    let (ab, ac) = o.share.split_at(WIDTH);
    SdpSecretKey {
        chi: ab.iter().map(|s| s.0).collect(),
        gamma: ab.iter().map(|s| s.1).collect(),
        delta: ac.iter().map(|s| s.1).collect(),
    }
}

fn public_key(o: &DkgOutput) -> SdpPublicKey {
    let coords = o.public_key_coordinates();
    SdpPublicKey {
        g_hat: coords[..WIDTH].to_vec(),
        h_hat: coords[WIDTH..].to_vec(),
    }
}

/// `Share-Sign` by every player of `quorum`, then `Combine`.
fn quorum_signature(
    outs: &BTreeMap<PlayerId, &DkgOutput>,
    quorum: &[PlayerId],
    msg: &[borndist_pairing::G1Projective],
) -> SdpSignature {
    let partials: Vec<SdpSignature> = quorum
        .iter()
        .map(|i| secret_key(outs[i]).sign(msg))
        .collect();
    let coeffs = lagrange_coefficients_at_zero(quorum).unwrap();
    let weighted: Vec<(Fr, &SdpSignature)> = coeffs.into_iter().zip(partials.iter()).collect();
    sign_derive(&weighted)
}

#[test]
fn dlin_session_meters_the_same_traffic_on_lockstep_and_reactor() {
    let params = ThresholdParams::new(1, 4).unwrap();
    let cfg = dlin_config(params, b"dlin-parity");
    let behaviors = BTreeMap::new();
    let (out_lock, m_lock) = dkg_session(&cfg, &behaviors, 42, &TransportKind::Lockstep).unwrap();
    let (out_rx, m_rx) = dkg_session(
        &cfg,
        &behaviors,
        42,
        &TransportKind::TcpReactor(DeliveryPolicy::reliable()),
    )
    .unwrap();
    assert!(
        m_lock.same_traffic(&m_rx),
        "DLIN frames must meter byte-identically: {:?} vs {:?}",
        m_lock,
        m_rx
    );
    assert_eq!(m_lock.active_rounds, 1, "honest run: one active round");
    let (lock, rx) = (agreed(&out_lock), agreed(&out_rx));
    assert_eq!(lock.len(), 4);
    assert_eq!(lock[0].qualified.len(), 4);
    assert_eq!(lock[0].combined_commitments, rx[0].combined_commitments);
    for (a, b) in lock.iter().zip(rx.iter()) {
        assert_eq!(a.share, b.share);
        assert_shares_open_columns(&cfg, a);
    }
}

/// A dealer that deals its `(A', C)` columns from fresh `A'` polynomials:
/// every column is a valid Pedersen sharing on its own, but the pairs
/// open to different `A_k(j)`. It never complains: its own copy of its
/// bundle still holds the old columns, and a complaint against itself
/// would disqualify it for the wrong reason.
struct UnpairedDealer {
    inner: DkgPlayer,
    cfg: DkgConfig,
    rng: StdRng,
}

impl Protocol for UnpairedDealer {
    type Message = DkgMessage;
    type Output = Result<DkgOutput, DkgAbort>;

    fn round(
        &mut self,
        round: usize,
        inbox: &[Delivered<DkgMessage>],
    ) -> RoundAction<DkgMessage, Self::Output> {
        let action = self.inner.round(round, inbox);
        let RoundAction::Continue(mut out) = action else {
            return action;
        };
        out.retain(|o| !matches!(o.msg, DkgMessage::Complaints { .. }));
        if round == 0 {
            let h = second_bases(&self.cfg);
            let fresh: Vec<PedersenSharing> = (0..WIDTH)
                .map(|_| PedersenSharing::deal_random(&h, self.cfg.params.t, &mut self.rng))
                .collect();
            for o in &mut out {
                match &mut o.msg {
                    DkgMessage::Commitments { commitments, .. } => {
                        for (k, s) in fresh.iter().enumerate() {
                            commitments[WIDTH + k] = s.commitment.clone();
                        }
                    }
                    DkgMessage::Shares { shares } => {
                        for (k, s) in fresh.iter().enumerate() {
                            let j = shares[WIDTH + k].index;
                            shares[WIDTH + k] = s.share_for(j);
                        }
                    }
                    _ => {}
                }
            }
        }
        RoundAction::Continue(out)
    }

    fn id(&self) -> PlayerId {
        self.inner.id()
    }
}

#[test]
fn unpaired_a_columns_are_disqualified_by_every_honest_player() {
    let params = ThresholdParams::new(2, 7).unwrap();
    let cfg = dlin_config(params, b"dlin-unpaired");
    let (dealer, seed) = (3u32, 17);
    let mut players = dkg_players(&cfg, &BTreeMap::new(), seed);
    players[dealer as usize - 1] = Box::new(UnpairedDealer {
        inner: DkgPlayer::new(dealer, cfg.clone(), Behavior::default(), seed),
        cfg: cfg.clone(),
        rng: StdRng::seed_from_u64(0xa11),
    });
    let (outputs, metrics) = run_protocol(&TransportKind::Lockstep, players, 8).unwrap();
    assert!(metrics.active_rounds > 1, "receivers complained");
    for (id, o) in outputs.iter().filter(|(id, _)| **id != dealer) {
        let o = o.as_ref().unwrap();
        assert!(
            !o.qualified.contains(&dealer),
            "player {} kept {}",
            id,
            dealer
        );
        assert_eq!(o.qualified.len(), 6);
        assert_shares_open_columns(&cfg, o);
    }
    let outs: BTreeMap<PlayerId, Result<DkgOutput, DkgAbort>> = outputs
        .into_iter()
        .filter(|(id, _)| *id != dealer)
        .collect();
    agreed(&outs);
}

#[test]
fn corrupted_dlin_share_draws_a_complaint_and_the_answer_decides() {
    let params = ThresholdParams::new(2, 5).unwrap();
    let cfg = dlin_config(params, b"dlin-complaint");
    for refuse_answers in [false, true] {
        let behaviors: BTreeMap<PlayerId, Behavior> = [(
            2u32,
            Behavior {
                corrupt_shares_to: [4u32].into_iter().collect(),
                refuse_answers,
                ..Default::default()
            },
        )]
        .into_iter()
        .collect();
        let (outputs, metrics) =
            dkg_session(&cfg, &behaviors, 11, &TransportKind::Lockstep).unwrap();
        // The complaint round is active either way; the answer round
        // only when dealer 2 answers.
        assert_eq!(metrics.active_rounds, if refuse_answers { 2 } else { 3 });
        let outs = agreed(&outputs);
        assert_eq!(outs.len(), 5);
        assert_eq!(outs[0].qualified.contains(&2), !refuse_answers);
        for o in &outs {
            assert_shares_open_columns(&cfg, o);
        }
    }
}

#[test]
fn disjoint_quorums_of_a_dkg_born_dlin_key_sign_identically() {
    let params = ThresholdParams::new(2, 7).unwrap();
    let cfg = dlin_config(params, b"dlin-quorums");
    let (outputs, _) = dkg_session(&cfg, &BTreeMap::new(), 5, &TransportKind::Lockstep).unwrap();
    let outs: BTreeMap<PlayerId, &DkgOutput> =
        agreed(&outputs).into_iter().map(|o| (o.id, o)).collect();
    let msg = hash_to_g1_vector(b"borndist/dkg-test/msg", b"born distributed, DLIN", 3);
    let s1 = quorum_signature(&outs, &[1, 2, 3], &msg);
    let s2 = quorum_signature(&outs, &[5, 6, 7], &msg);
    assert_eq!(s1, s2);
    let pk = public_key(outs[&1]);
    assert!(pk.verify(&sdp_params(&cfg), &msg, &s1));
    let other = hash_to_g1_vector(b"borndist/dkg-test/msg", b"another message", 3);
    assert!(!pk.verify(&sdp_params(&cfg), &other, &s1));
}

#[test]
fn dlin_refresh_keeps_the_public_key() {
    let params = ThresholdParams::new(1, 4).unwrap();
    let cfg = dlin_config(params, b"dlin-refresh");
    let (outputs, _) = dkg_session(&cfg, &BTreeMap::new(), 8, &TransportKind::Lockstep).unwrap();
    let (refreshed, _) =
        refresh_session(&cfg, &BTreeMap::new(), 9, &TransportKind::Lockstep).unwrap();
    let old = agreed(&outputs);
    let delta = agreed(&refreshed);
    let pk = old[0].public_key_coordinates();
    let commitments = apply_refresh_commitments(&old[0].combined_commitments, delta[0]);
    let mut new_outs = Vec::new();
    for (o, d) in old.iter().zip(delta.iter()) {
        assert_ne!(o.share, apply_refresh(&o.share, d), "shares move");
        new_outs.push(DkgOutput {
            share: apply_refresh(&o.share, d),
            combined_commitments: commitments.clone(),
            ..(*o).clone()
        });
    }
    for o in &new_outs {
        assert_eq!(o.public_key_coordinates(), pk);
        assert_shares_open_columns(&cfg, o);
    }
    // Refreshed shares still sign under the unchanged key.
    let outs: BTreeMap<PlayerId, &DkgOutput> = new_outs.iter().map(|o| (o.id, o)).collect();
    let msg = hash_to_g1_vector(b"borndist/dkg-test/msg", b"after refresh", 3);
    let sig = quorum_signature(&outs, &[2, 4], &msg);
    assert!(public_key(outs[&1]).verify(&sdp_params(&cfg), &msg, &sig));

    // A dealer that deals a non-zero DLIN refresh is caught.
    let behaviors: BTreeMap<PlayerId, Behavior> = [(
        3u32,
        Behavior {
            nonzero_refresh: true,
            ..Default::default()
        },
    )]
    .into_iter()
    .collect();
    let (caught, _) = refresh_session(&cfg, &behaviors, 10, &TransportKind::Lockstep).unwrap();
    let honest: BTreeMap<PlayerId, Result<DkgOutput, DkgAbort>> =
        caught.into_iter().filter(|(id, _)| *id != 3).collect();
    assert!(agreed(&honest).iter().all(|o| !o.qualified.contains(&3)));
}
