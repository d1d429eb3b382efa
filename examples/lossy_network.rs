//! CI gate: the full lifecycle — DKG then threshold signing — completing
//! over an *unreliable* network, with every message a real byte frame.
//!
//! `TransportKind::Channel` runs each player on its own thread and the
//! `DeliveryPolicy` drops 10% of private frames and reorders every
//! inbox. The DKG absorbs share loss through its complaint machinery
//! (complaints and answers ride the reliable broadcast channel); the
//! signing protocol retransmits idempotent partial signatures until the
//! combiner assembles a quorum. The run asserts:
//!
//! * every player finishes both protocols with agreeing outputs;
//! * nobody is disqualified by loss alone;
//! * byte metering over the lossy channel matches the lockstep
//!   transport exactly for the DKG (frames are frames, whatever the
//!   network does to them);
//! * the signing layer demonstrably retransmitted (loss was real).
//!
//! Run with: `cargo run --example lossy_network`

use borndist::prelude::*;
use std::collections::BTreeMap;

fn main() {
    let params = ThresholdParams::new(2, 7).unwrap();
    let scheme = ThresholdScheme::new(b"lossy-network-demo");
    let behaviors = BTreeMap::new();
    let drop_rate = 0.10;

    println!(
        "== DKG + signing under {:.0}% private-frame drop + reorder ==",
        drop_rate * 100.0
    );
    println!(
        "   n = {}, t = {}, every message an encoded frame\n",
        params.n, params.t
    );

    // Reference run over the idealized lockstep transport.
    let (km_ref, m_lock) = scheme
        .keygen_session(params, &behaviors, 0x10551, &TransportKind::Lockstep)
        .expect("lockstep DKG");

    // Byte-parity leg: the same DKG over the threaded channel transport
    // with a *reliable* policy must meter exactly the same frames.
    let reliable = TransportKind::Channel(DeliveryPolicy::reliable());
    let (_, m_reliable) = scheme
        .keygen_session(params, &behaviors, 0x10551, &reliable)
        .expect("reliable channel DKG");

    // Liveness leg: the same DKG over a lossy, reordering network.
    let lossy = TransportKind::Channel(DeliveryPolicy::lossy(0xdeadbeef, drop_rate));
    let (km, m_lossy) = scheme
        .keygen_session(params, &behaviors, 0x10551, &lossy)
        .expect("lossy DKG completes");

    println!("-- DKG --");
    println!(
        "   lockstep:         {} msgs, {} bytes over {} rounds",
        m_lock.messages, m_lock.bytes, m_lock.total_rounds
    );
    println!(
        "   channel/reliable: {} msgs, {} bytes over {} rounds",
        m_reliable.messages, m_reliable.bytes, m_reliable.total_rounds
    );
    println!(
        "   channel/lossy:    {} msgs, {} bytes over {} rounds (complaint traffic = loss recovery)",
        m_lossy.messages, m_lossy.bytes, m_lossy.total_rounds
    );
    assert!(
        m_lock.same_traffic(&m_reliable),
        "gate: byte metering must be transport-independent (±0)"
    );
    assert_eq!(
        km.qualified.len(),
        params.n,
        "gate: loss alone must disqualify nobody"
    );
    assert_eq!(
        km.public_key, km_ref.public_key,
        "gate: same seed, same key, whatever the network does"
    );
    println!(
        "   ✓ ±0 byte parity on the reliable channel, all {} dealers qualified under loss\n",
        params.n
    );

    // Threshold signing over the same lossy network: all 7 players sign,
    // player 3 combines. Partials travel on lossy private links, so
    // retransmission rounds are expected.
    let msg = b"signed across a lossy network";
    let signers: Vec<u32> = (1..=7).collect();
    let (sigs, m_sign) = run_threshold_sign(
        &scheme,
        &km,
        msg,
        &signers,
        3,
        &TransportKind::Channel(DeliveryPolicy::lossy(0xfeedface, drop_rate)),
        60,
    )
    .expect("lossy signing completes");

    println!("-- signing --");
    // Loss-free baseline: n−1 partials in round 0, the same n−1 partials
    // retransmitted in round 1 (a signer cannot know the quorum already
    // assembled) plus the combined broadcast, finish in round 2 — so
    // 2(n−1)+1 messages over 3 rounds.
    println!(
        "   {} msgs, {} bytes over {} rounds (loss-free baseline: {} msgs, 3 rounds)",
        m_sign.messages,
        m_sign.bytes,
        m_sign.total_rounds,
        2 * (signers.len() - 1) + 1
    );
    assert_eq!(sigs.len(), signers.len(), "gate: every player finishes");
    let reference = &sigs[&1];
    for (id, sig) in &sigs {
        assert_eq!(
            sig, reference,
            "gate: player {} got a different signature",
            id
        );
        assert!(
            scheme.verify(&km.public_key, msg, sig),
            "gate: player {}'s signature must verify",
            id
        );
    }
    println!(
        "   ✓ all {} players hold the same verifying signature",
        sigs.len()
    );

    println!("\nOK: lossy-network lifecycle gate passed.");
}
