//! The DKG over real transports: byte-identical metering across
//! runtimes, malformed frames handled as first-class misbehavior, and
//! completion under lossy/partitioned networks (the complaint machinery
//! doubling as loss recovery).

use borndist_dkg::{dkg_session, standard_config, Behavior, DkgOutput};
use borndist_net::{DeliveryPolicy, Outage, Partition, Tamper, TamperRule, TransportKind};
use borndist_shamir::ThresholdParams;
use std::collections::BTreeMap;

fn agreed_output(outputs: &BTreeMap<u32, Result<DkgOutput, borndist_dkg::DkgAbort>>) -> &DkgOutput {
    let oks: Vec<&DkgOutput> = outputs.values().filter_map(|o| o.as_ref().ok()).collect();
    assert!(!oks.is_empty(), "some player must finish");
    for o in &oks {
        assert_eq!(o.qualified, oks[0].qualified, "qualified-set agreement");
        assert_eq!(
            o.combined_commitments, oks[0].combined_commitments,
            "commitment agreement"
        );
    }
    oks[0]
}

#[test]
fn byzantine_run_parity_across_transports() {
    let params = ThresholdParams::new(2, 7).unwrap();
    let cfg = standard_config(params, 2, b"parity-byz", false);
    let mut behaviors = BTreeMap::new();
    behaviors.insert(
        2u32,
        Behavior {
            corrupt_shares_to: [5u32].into_iter().collect(),
            refuse_answers: true,
            ..Default::default()
        },
    );
    behaviors.insert(
        3u32,
        Behavior {
            crash_at_round: Some(0),
            ..Default::default()
        },
    );
    let (out_lock, m_lock) = dkg_session(&cfg, &behaviors, 7, &TransportKind::Lockstep).unwrap();
    let (out_rx, m_rx) = dkg_session(
        &cfg,
        &behaviors,
        7,
        &TransportKind::TcpReactor(DeliveryPolicy::reliable()),
    )
    .unwrap();
    assert!(m_lock.same_traffic(&m_rx));
    let q = &agreed_output(&out_lock).qualified;
    assert_eq!(q, &agreed_output(&out_rx).qualified);
    assert!(!q.contains(&2) && !q.contains(&3));
}

#[test]
fn tampered_dealer_frames_become_disqualification_not_panic() {
    // Dealer 2's round-0 frames (commitment broadcast AND share sends)
    // are corrupted in flight. Every honest receiver sees the broadcast
    // fail the strict decode -> dealer 2 is globally disqualified, the
    // run completes, and all honest players agree.
    let params = ThresholdParams::new(1, 4).unwrap();
    let cfg = standard_config(params, 2, b"tamper", false);
    for kind in [
        Tamper::TruncateTail,
        Tamper::AppendByte,
        Tamper::FlipPayloadBit,
        Tamper::BadVersion,
    ] {
        let policy = DeliveryPolicy {
            tamper: vec![TamperRule {
                round: 0,
                from: 2,
                kind,
            }],
            ..DeliveryPolicy::default()
        };
        let (outputs, _) =
            dkg_session(&cfg, &BTreeMap::new(), 11, &TransportKind::Channel(policy)).unwrap();
        let reference = agreed_output(&outputs);
        assert!(
            !reference.qualified.contains(&2),
            "{:?}: a dealer whose broadcast does not decode must be out",
            kind
        );
        // The other three dealers survive and n - 1 > t+1 sharings
        // remain, so the key material is intact.
        assert_eq!(reference.qualified.len(), 3);
    }
}

#[test]
fn dkg_completes_under_drop_and_reorder() {
    // 15% private-frame loss plus reordering: dropped share deliveries
    // surface as complaints, answered over the reliable broadcast
    // channel — the paper's robustness story doubling as loss recovery.
    // A dealer only falls if loss concentrates more than t complaints on
    // it, which is the §3.1 disqualification rule working as specified.
    let params = ThresholdParams::new(2, 7).unwrap();
    let cfg = standard_config(params, 2, b"lossy", false);

    // Policy seed 1: drops spread out (≤ t complaints per dealer), so
    // every dealer answers its way back in and nobody is disqualified.
    let (outputs, metrics) = dkg_session(
        &cfg,
        &BTreeMap::new(),
        13,
        &TransportKind::Channel(DeliveryPolicy::lossy(1, 0.15)),
    )
    .unwrap();
    let reference = agreed_output(&outputs);
    assert_eq!(
        reference.qualified.len(),
        7,
        "answered complaints must not disqualify"
    );
    assert!(outputs.values().all(|o| o.is_ok()));
    assert!(metrics.bytes > 0);

    // Policy seed 4: loss happens to concentrate > t complaints on one
    // dealer — the protocol correctly drops that dealing, every player
    // still finishes, and all agree on the reduced set.
    let (outputs, _) = dkg_session(
        &cfg,
        &BTreeMap::new(),
        13,
        &TransportKind::Channel(DeliveryPolicy::lossy(4, 0.15)),
    )
    .unwrap();
    let reference = agreed_output(&outputs);
    assert_eq!(reference.qualified.len(), 6);
    assert!(outputs.values().all(|o| o.is_ok()));
}

#[test]
fn round_zero_partition_disqualifies_minority_dealings_only() {
    // {1,2} vs {3..7} split while the shares are in flight. Each
    // minority dealer draws 5 > t complaints (disqualified, as a crashed
    // dealer would be); each majority dealer draws exactly 2 ≤ t and
    // answers publicly. Every player — including the partitioned ones —
    // finishes with a share assembled from the surviving dealings, and
    // all agree.
    let params = ThresholdParams::new(2, 7).unwrap();
    let cfg = standard_config(params, 2, b"partition", false);
    let policy = DeliveryPolicy {
        partitions: vec![Partition {
            from_round: 0,
            until_round: 1,
            group: [1, 2].into_iter().collect(),
        }],
        ..DeliveryPolicy::default()
    };
    let (outputs, _) =
        dkg_session(&cfg, &BTreeMap::new(), 17, &TransportKind::Channel(policy)).unwrap();
    let reference = agreed_output(&outputs);
    assert_eq!(
        reference.qualified,
        [3, 4, 5, 6, 7].into_iter().collect(),
        "minority-side dealings fall, majority-side dealings survive"
    );
    assert!(
        outputs.values().all(|o| o.is_ok()),
        "everyone still gets a share"
    );
}

#[test]
fn round_zero_outage_reads_as_crashed_dealer() {
    // Player 4's links are down while shares travel: its own dealing
    // draws 6 > t complaints (out, exactly like a crashed dealer), while
    // every other dealer answers player 4's complaints publicly — so
    // player 4 still reconstructs its share of the surviving dealings.
    let params = ThresholdParams::new(2, 7).unwrap();
    let cfg = standard_config(params, 2, b"outage", false);
    let policy = DeliveryPolicy {
        outages: vec![Outage {
            player: 4,
            from_round: 0,
            until_round: 1,
        }],
        ..DeliveryPolicy::default()
    };
    let (outputs, _) =
        dkg_session(&cfg, &BTreeMap::new(), 17, &TransportKind::Channel(policy)).unwrap();
    let reference = agreed_output(&outputs);
    assert_eq!(
        reference.qualified,
        [1, 2, 3, 5, 6, 7].into_iter().collect(),
        "the offline player's dealing is out, everyone else's survives"
    );
    assert!(outputs.values().all(|o| o.is_ok()));
    assert!(
        outputs[&4].is_ok(),
        "the offline player recovers via answers"
    );
}

#[test]
fn reactor_matches_channel_byte_for_byte() {
    // The event-driven reactor runs the same DKG through one poll loop
    // per player over real sockets; the in-memory link (`Lockstep`, the
    // reliable `Channel`) runs every player on one thread. Routing,
    // metering and fault injection live in the shared mesh engine, so
    // every message is the same frame on both and the merged metrics
    // must be equal bit for bit.
    let params = ThresholdParams::new(1, 4).unwrap();
    let cfg = standard_config(params, 2, b"reactor-parity", false);
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
        "reactor frames must meter byte-identically: {:?} vs {:?}",
        m_lock,
        m_rx
    );
    assert!(m_lock.bytes > 0);
    let ref_lock = agreed_output(&out_lock);
    let ref_rx = agreed_output(&out_rx);
    assert_eq!(ref_lock.qualified, ref_rx.qualified);
    assert_eq!(ref_lock.combined_commitments, ref_rx.combined_commitments);
    assert_eq!(ref_lock.share, ref_rx.share);
}

#[test]
fn reactor_tampered_frames_disqualify_all_kinds() {
    // All four tamper kinds against dealer 2's round-0 frames, applied
    // at the reactor's socket boundary: the strict decode fires on every
    // receiver and the dealer is globally disqualified — identically to
    // the channel transport, because tampering is rule-driven.
    let params = ThresholdParams::new(1, 4).unwrap();
    let cfg = standard_config(params, 2, b"reactor-tamper", false);
    for kind in [
        Tamper::TruncateTail,
        Tamper::AppendByte,
        Tamper::FlipPayloadBit,
        Tamper::BadVersion,
    ] {
        let policy = DeliveryPolicy {
            tamper: vec![TamperRule {
                round: 0,
                from: 2,
                kind,
            }],
            ..DeliveryPolicy::default()
        };
        let (out_rx, m_rx) = dkg_session(
            &cfg,
            &BTreeMap::new(),
            11,
            &TransportKind::TcpReactor(policy.clone()),
        )
        .unwrap();
        let (out_chan, m_chan) =
            dkg_session(&cfg, &BTreeMap::new(), 11, &TransportKind::Channel(policy)).unwrap();
        let reference = agreed_output(&out_rx);
        assert!(
            !reference.qualified.contains(&2),
            "{:?}: malformed reactor frames must disqualify",
            kind
        );
        assert_eq!(reference.qualified.len(), 3);
        assert_eq!(reference.qualified, agreed_output(&out_chan).qualified);
        assert!(m_chan.same_traffic(&m_rx));
    }
}

#[test]
fn reactor_completes_under_drop_and_reorder() {
    // 15% private-frame loss plus duplication and reordering through the
    // poll loop: the complaint machinery absorbs the loss exactly as it
    // does in-process, and the shared policy streams make the injected
    // schedule — and therefore the metered traffic — identical.
    let params = ThresholdParams::new(2, 7).unwrap();
    let cfg = standard_config(params, 2, b"reactor-lossy", false);
    let policy = DeliveryPolicy {
        duplicate_rate: 0.05,
        ..DeliveryPolicy::lossy(1, 0.15)
    };
    let (out_chan, m_chan) = dkg_session(
        &cfg,
        &BTreeMap::new(),
        13,
        &TransportKind::Channel(policy.clone()),
    )
    .unwrap();
    let (out_rx, m_rx) = dkg_session(
        &cfg,
        &BTreeMap::new(),
        13,
        &TransportKind::TcpReactor(policy),
    )
    .unwrap();
    assert!(
        m_chan.same_traffic(&m_rx),
        "identical fault schedules must meter identically: {:?} vs {:?}",
        m_chan,
        m_rx
    );
    let ref_chan = agreed_output(&out_chan);
    let ref_rx = agreed_output(&out_rx);
    assert_eq!(ref_chan.qualified, ref_rx.qualified);
    assert_eq!(ref_chan.share, ref_rx.share);
    assert!(
        out_rx.values().all(|o| o.is_ok()),
        "loss must not wedge the reactor mesh"
    );
    assert!(
        ref_rx.qualified.len() >= params.n - params.t,
        "loss alone must not disqualify more than t dealers"
    );
}

#[test]
fn reactor_peer_going_silent_mid_run_reads_as_complaints() {
    // Player 3 crashes after dealing; player 2 misdeals and refuses to
    // answer. Over the reactor the crashed peer's socket simply stops
    // producing frames — the poll loop observes the quiet (and later the
    // hangup) as round silence, the complaint round absorbs it, and the
    // outcome plus metered traffic match lockstep exactly.
    let params = ThresholdParams::new(1, 5).unwrap();
    let cfg = standard_config(params, 2, b"reactor-crash", false);
    let mut behaviors = BTreeMap::new();
    behaviors.insert(
        2u32,
        Behavior {
            corrupt_shares_to: [4u32].into_iter().collect(),
            refuse_answers: true,
            ..Default::default()
        },
    );
    behaviors.insert(
        3u32,
        Behavior {
            crash_at_round: Some(1),
            ..Default::default()
        },
    );
    let (out_lock, m_lock) = dkg_session(&cfg, &behaviors, 7, &TransportKind::Lockstep).unwrap();
    let (out_rx, m_rx) = dkg_session(
        &cfg,
        &behaviors,
        7,
        &TransportKind::TcpReactor(DeliveryPolicy::reliable()),
    )
    .unwrap();
    assert!(m_lock.same_traffic(&m_rx));
    let q = &agreed_output(&out_rx).qualified;
    assert_eq!(q, &agreed_output(&out_lock).qualified);
    assert!(
        !q.contains(&2),
        "refusing dealer is out over the reactor too"
    );
}

#[test]
fn frame_sizes_match_wire_size_exactly() {
    // The E5 byte metric is derived from real frames: a frame is the
    // message's encoding plus one version byte, so a run's total bytes
    // are exactly sum(encoded message length) + messages.
    use borndist_dkg::DkgMessage;
    use borndist_pairing::Wire;
    let msg = DkgMessage::Complaints {
        against: vec![1, 2, 3],
    };
    assert_eq!(
        borndist_net::encode_frame(&msg).len(),
        msg.encode().len() + 1
    );
}
