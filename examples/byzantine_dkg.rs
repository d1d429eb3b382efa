//! Watching the DKG's immune system work: a 7-player key generation with
//! four different simultaneous Byzantine faults (E5's pessimistic path),
//! then the Appendix F (DLIN) key born on the same protocol with a dealer
//! that lies and refuses to answer.
//!
//! Run with: `cargo run --release --example byzantine_dkg`

use borndist::core::DlinScheme;
use borndist::dkg::{dkg_session, standard_config, Behavior, DkgAbort};
use borndist::net::TransportKind;
use borndist::shamir::ThresholdParams;
use std::collections::BTreeMap;

fn main() {
    let params = ThresholdParams::new(2, 7).unwrap();
    let cfg = standard_config(params, 2, b"byzantine-demo", false);

    let mut behaviors = BTreeMap::new();
    // Player 2 sends a corrupted share to player 6 but answers the
    // complaint honestly — it survives.
    behaviors.insert(
        2u32,
        Behavior {
            corrupt_shares_to: [6u32].into_iter().collect(),
            ..Default::default()
        },
    );
    // Player 3 lies to player 1 AND refuses to answer — disqualified.
    behaviors.insert(
        3u32,
        Behavior {
            corrupt_shares_to: [1u32].into_iter().collect(),
            refuse_answers: true,
            ..Default::default()
        },
    );
    // Player 5 crashes before dealing — disqualified.
    behaviors.insert(
        5u32,
        Behavior {
            crash_at_round: Some(0),
            ..Default::default()
        },
    );
    // Player 7 falsely accuses honest player 1 — harmless.
    behaviors.insert(
        7u32,
        Behavior {
            false_complaints: vec![1],
            ..Default::default()
        },
    );

    println!("== Running DKG: n=7, t=2, four Byzantine players ==");
    println!("   player 2: lies to one player, answers its complaint");
    println!("   player 3: lies and refuses to answer");
    println!("   player 5: crashes before dealing");
    println!("   player 7: falsely accuses an honest player\n");

    let (outputs, metrics) =
        dkg_session(&cfg, &behaviors, 0xB42, &TransportKind::Lockstep).expect("simulation runs");

    println!("== Network metrics ==");
    println!(
        "   total rounds: {}, active rounds: {}, messages: {}, bytes: {}, wall-clock: {:.1} ms",
        metrics.total_rounds,
        metrics.active_rounds,
        metrics.messages,
        metrics.bytes,
        metrics.elapsed.as_secs_f64() * 1e3
    );
    for (round, ((msgs, bytes), spent)) in metrics
        .per_round
        .iter()
        .zip(metrics.per_round_elapsed.iter())
        .enumerate()
    {
        println!(
            "   round {}: {} messages, {} bytes, {:.1} ms",
            round,
            msgs,
            bytes,
            spent.as_secs_f64() * 1e3
        );
    }

    println!("\n== Per-player outcomes ==");
    let mut qualified_sets = Vec::new();
    for (id, out) in &outputs {
        match out {
            Ok(o) => {
                println!(
                    "   player {}: OK, qualified set {:?}",
                    id,
                    o.qualified.iter().collect::<Vec<_>>()
                );
                qualified_sets.push(o.qualified.clone());
            }
            Err(DkgAbort::Crashed) => println!("   player {}: crashed (as scripted)", id),
            Err(e) => println!("   player {}: aborted: {}", id, e),
        }
    }

    // Agreement: every finishing player derived the same qualified set.
    assert!(qualified_sets.windows(2).all(|w| w[0] == w[1]));
    let q = &qualified_sets[0];
    assert!(q.contains(&2), "player 2 answered its complaint and stays");
    assert!(!q.contains(&3), "player 3 refused to answer and is out");
    assert!(!q.contains(&5), "player 5 crashed and is out");
    assert!(
        q.contains(&1) && q.contains(&7),
        "false accusation is harmless"
    );
    println!(
        "\n== Agreement reached: Q = {:?} ==",
        q.iter().collect::<Vec<_>>()
    );

    // And the resulting key still signs.
    let reference = outputs
        .values()
        .find_map(|o| o.as_ref().ok())
        .expect("some honest output");
    println!(
        "   joint public key: ({}...)",
        reference.public_key_coordinates()[0]
            .to_compressed()
            .iter()
            .take(6)
            .map(|b| format!("{:02x}", b))
            .collect::<String>()
    );

    // Appendix F: the DLIN key runs the same complaint machinery.
    println!("\n== Running the Appendix F (DLIN) DKG: n=7, t=2 ==");
    println!("   player 3: lies to player 1 and refuses to answer");
    let dlin = DlinScheme::new(b"byzantine-demo");
    let dlin_behaviors: BTreeMap<u32, Behavior> = [(
        3u32,
        Behavior {
            corrupt_shares_to: [1u32].into_iter().collect(),
            refuse_answers: true,
            ..Default::default()
        },
    )]
    .into_iter()
    .collect();
    let (dkm, dmetrics) = dlin
        .keygen_session(params, &dlin_behaviors, 0xB43, &TransportKind::Lockstep)
        .expect("simulation runs");
    println!(
        "   active rounds: {}, messages: {}, bytes: {}",
        dmetrics.active_rounds, dmetrics.messages, dmetrics.bytes
    );
    assert!(!dkm.qualified.contains(&3), "player 3 refused to answer");
    println!(
        "   Q = {:?} (player 3 disqualified)",
        dkm.qualified.iter().collect::<Vec<_>>()
    );
    let msg = b"born distributively, under DLIN";
    let partials: Vec<_> = [1u32, 5, 7]
        .iter()
        .map(|i| dlin.share_sign(&dkm.shares[i], msg))
        .collect();
    let sig = dlin.combine(&params, &partials).expect("t + 1 partials");
    assert!(dlin.verify(&dkm.public_key, msg, &sig));
    println!("   players 1, 5 and 7 sign; the DLIN signature verifies");
}
