//! A de-centralized certification authority with compressed certificate
//! chains — the Appendix G application.
//!
//! Three independent CAs (root, intermediate, leaf issuer), each run by a
//! 4-server committee with no trusted dealer, issue a 3-link certificate
//! chain. The three threshold signatures aggregate into a *single*
//! 2-element signature that a relying party verifies in one equation.
//!
//! Run with: `cargo run --release --example distributed_ca`

use borndist::core::aggregate::{AggPublicKey, AggregateScheme};
use borndist::core::ro::PartialSignature;
use borndist::core::KeyMaterial;
use borndist::net::TransportKind;
use borndist::shamir::ThresholdParams;
use std::collections::BTreeMap;

struct Authority {
    name: &'static str,
    pk: AggPublicKey,
    km: KeyMaterial,
}

fn main() {
    let scheme = AggregateScheme::new(b"distributed-ca-demo");
    let params = ThresholdParams::new(1, 4).unwrap();

    println!("== Spinning up three 4-server certificate authorities ==");
    let authorities: Vec<Authority> = ["RootCA", "RegionalCA", "IssuingCA"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let (pk, km, metrics) = scheme
                .dist_keygen(
                    params,
                    &BTreeMap::new(),
                    0xCA00 + i as u64,
                    &TransportKind::Lockstep,
                )
                .expect("honest DKG");
            println!(
                "   {}: key born distributed in {} active round(s); built-in validity proof ok: {}",
                name,
                metrics.active_rounds,
                scheme.key_valid(&pk)
            );
            Authority { name, pk, km }
        })
        .collect();

    // Certificate chain: root certifies regional, regional certifies
    // issuing, issuing certifies the server key.
    let chain_payloads: Vec<Vec<u8>> = vec![
        b"cert: RegionalCA public key, signed by RootCA".to_vec(),
        b"cert: IssuingCA public key, signed by RegionalCA".to_vec(),
        b"cert: server.example.org TLS key, signed by IssuingCA".to_vec(),
    ];

    println!("\n== Each committee threshold-signs its certificate ==");
    let mut chain = Vec::new();
    for (auth, payload) in authorities.iter().zip(chain_payloads.iter()) {
        // Two of the four servers participate (t+1 = 2).
        let partials: Vec<PartialSignature> = [1u32, 3]
            .iter()
            .map(|i| scheme.share_sign(&auth.pk, &auth.km.shares[i], payload))
            .collect();
        let sig = scheme.combine(&params, &partials).expect("quorum met");
        assert!(scheme.verify(&auth.pk, payload, &sig));
        println!("   {} signed ({} byte payload)", auth.name, payload.len());
        chain.push((auth.pk.clone(), payload.clone(), sig));
    }

    println!("\n== Aggregating the chain: 3 signatures -> 1 ==");
    let aggregate = scheme.aggregate(&chain).expect("all links valid");
    let statements: Vec<(AggPublicKey, Vec<u8>)> = chain
        .iter()
        .map(|(pk, m, _)| (pk.clone(), m.clone()))
        .collect();
    let individual_bytes = 96 * chain.len();
    println!(
        "   chain signature size: {} bytes (vs {} bytes unaggregated)",
        96, individual_bytes
    );

    println!("\n== Relying party verifies the whole chain at once ==");
    let ok = scheme.aggregate_verify(&statements, &aggregate);
    println!("   aggregate verifies: {}", ok);
    assert!(ok);

    // Any tampering with any link is caught.
    let mut bad = statements.clone();
    bad[2].1 = b"cert: attacker.example.org TLS key, signed by IssuingCA".to_vec();
    assert!(!scheme.aggregate_verify(&bad, &aggregate));
    println!("   tampered chain rejected: true");
}
