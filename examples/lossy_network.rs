//! CI gate: the full lifecycle — DKG then threshold signing — completing
//! over an *unreliable* network, with every message a real byte frame.
//!
//! `TransportKind::Channel` runs every player on the caller's thread
//! under a `DeliveryPolicy` that drops 10% of private frames and
//! reorders every inbox. The DKG absorbs share loss through its complaint machinery
//! (complaints and answers ride the reliable broadcast channel). On the
//! signing mesh (`run_mux_sign`: the daemon's signers plus a
//! coordinator, which is the one combiner) the coordinator re-sends
//! `Open` to every signer it has not heard from, one round trip after
//! its last send, until it holds a quorum; a signer answers each `Open`
//! with the same deterministic partial. The run asserts:
//!
//! * every player finishes both protocols with agreeing outputs;
//! * nobody is disqualified by loss alone, and the key is the lockstep
//!   run's;
//! * every signature verifies and equals the all-honest combine;
//! * the signing mesh demonstrably re-sent (loss was real).
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
        "   channel/lossy:    {} msgs, {} bytes over {} rounds (complaint traffic = loss recovery)",
        m_lossy.messages, m_lossy.bytes, m_lossy.total_rounds
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
        "   ✓ all {} dealers qualified under loss, same key as lockstep\n",
        params.n
    );

    // Threshold signing over the same lossy network: a quorum of exactly
    // t+1 players signs eight requests, and the coordinator (player 8)
    // combines and verifies every one. With no spare signer every
    // partial is needed, so each one the lossy private links drop must
    // be asked for again.
    let signers: Vec<u32> = (1..=params.reconstruction_size() as u32).collect();
    let coordinator = params.n as u32 + 1;
    let requests: Vec<(u64, Vec<u8>)> = (0..8u64)
        .map(|i| {
            (
                i,
                format!("signed across a lossy network #{}", i).into_bytes(),
            )
        })
        .collect();
    let sign = |transport: &TransportKind| {
        run_mux_sign(
            &scheme,
            &km,
            &requests,
            &signers,
            coordinator,
            4,
            transport,
            200,
        )
    };
    let (_, m_clean) = sign(&TransportKind::Lockstep).expect("loss-free signing");
    // The run returns only once every signer has taken the coordinator's
    // Shutdown, so `Ok` means every signer finished.
    let (outcome, m_sign) = sign(&TransportKind::Channel(DeliveryPolicy::lossy(
        0xfeedface, drop_rate,
    )))
    .expect("gate: lossy signing completes and every signer finishes");

    println!("-- signing --");
    println!(
        "   {} requests: {} msgs, {} bytes over {} rounds (loss-free: {} msgs, {} rounds)",
        requests.len(),
        m_sign.messages,
        m_sign.bytes,
        m_sign.total_rounds,
        m_clean.messages,
        m_clean.total_rounds
    );
    assert_eq!(
        outcome.signatures.len(),
        requests.len(),
        "gate: every session finishes"
    );
    for (session, msg) in &requests {
        let partials: Vec<PartialSignature> = signers
            .iter()
            .map(|i| scheme.share_sign(&km.shares[i], msg))
            .collect();
        let honest = scheme.combine(&km.params, &partials).expect("t+1 partials");
        let sig = &outcome.signatures[session];
        assert!(
            scheme.verify(&km.public_key, msg, sig),
            "gate: session {}'s signature must verify",
            session
        );
        assert_eq!(
            *sig, honest,
            "gate: session {} must carry the all-honest signature",
            session
        );
    }
    assert!(
        m_sign.messages > m_clean.messages,
        "gate: loss must force re-sends"
    );
    println!(
        "   ✓ all {} signers finished; every signature verifies and equals the all-honest combine\n   ✓ loss cost {} more messages than the loss-free run",
        signers.len(),
        m_sign.messages - m_clean.messages
    );

    println!("\nOK: lossy-network lifecycle gate passed.");
}
