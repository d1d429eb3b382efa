//! A threshold notary that refuses to rely on random oracles — the §4
//! standard-model scheme in action.
//!
//! Four notary servers generate their key with the width-1 Pedersen DKG
//! and co-sign documents with Groth–Sahai-proof signatures. Combined
//! signatures are *re-randomized*: nobody can tell which quorum signed,
//! even when the same two servers sign the same document twice.
//!
//! Run with: `cargo run --release --example standard_model_notary`

use borndist::core::standard::{StandardScheme, StdPartialSignature};
use borndist::net::TransportKind;
use borndist::shamir::ThresholdParams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn main() {
    let params = ThresholdParams::new(1, 4).unwrap();
    let scheme = StandardScheme::new(b"notary-v1");
    let mut rng = StdRng::seed_from_u64(0x2074);

    println!("== Notary committee keygen (standard model, width-1 DKG) ==");
    let (km, metrics) = scheme
        .dist_keygen(params, &BTreeMap::new(), 0x2074, &TransportKind::Lockstep)
        .expect("honest DKG");
    println!(
        "   {} active round(s); public key ĝ1 = {}...",
        metrics.active_rounds,
        hex_prefix(&km.public_key.g1.to_compressed())
    );

    let document = b"I, the undersigned committee, notarize deed #4217";

    println!("\n== Servers 2 and 4 co-sign (no oracles, NIWI proofs) ==");
    let partials: Vec<StdPartialSignature> = [2u32, 4]
        .iter()
        .map(|i| {
            let p = scheme.share_sign(&km.shares[i], document, &mut rng);
            let ok = scheme.share_verify(&km.verification_keys[i], document, &p);
            println!("   server {} partial (C_z, C_r, π̂) valid: {}", i, ok);
            p
        })
        .collect();

    let sig_a = scheme
        .combine(&params, document, &partials, &mut rng)
        .expect("quorum");
    let sig_b = scheme
        .combine(&params, document, &partials, &mut rng)
        .expect("quorum");

    println!("\n== Verification and unlinkability ==");
    println!(
        "   signature A verifies: {}",
        scheme.verify(&km.public_key, document, &sig_a)
    );
    println!(
        "   signature B verifies: {}",
        scheme.verify(&km.public_key, document, &sig_b)
    );
    println!(
        "   A == B (same quorum, same message): {} — combine re-randomizes",
        sig_a == sig_b
    );
    assert!(scheme.verify(&km.public_key, document, &sig_a));
    assert!(scheme.verify(&km.public_key, document, &sig_b));
    assert_ne!(sig_a, sig_b);

    // A different quorum is equally indistinguishable.
    let partials2: Vec<StdPartialSignature> = [1u32, 3]
        .iter()
        .map(|i| scheme.share_sign(&km.shares[i], document, &mut rng))
        .collect();
    let sig_c = scheme
        .combine(&params, document, &partials2, &mut rng)
        .unwrap();
    assert!(scheme.verify(&km.public_key, document, &sig_c));
    println!("   a disjoint quorum's signature also verifies: true");

    // Tampering detection.
    let tampered = b"I, the undersigned committee, notarize deed #9999";
    assert!(!scheme.verify(&km.public_key, tampered, &sig_a));
    println!("   altered document rejected: true");

    println!(
        "\n   signature size: {} bytes (4 G + 2 Ĝ elements; paper: 2048 bits on BN254)",
        4 * 48 + 2 * 96
    );
}

fn hex_prefix(bytes: &[u8]) -> String {
    bytes.iter().take(6).map(|b| format!("{:02x}", b)).collect()
}
