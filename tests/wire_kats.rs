//! Golden known-answer vectors for the wire codec: one pinned hex frame
//! per cross-player message type, and one per socket envelope (length
//! prefix included) — the bytes deployed processes actually exchange.
//!
//! These freeze the byte layout of [`borndist::net::WIRE_VERSION`] 1. If
//! any of them changes, the wire format changed: bump the version byte
//! and regenerate (`cargo test --test wire_kats -- --ignored
//! regenerate_kats --nocapture` prints fresh vectors). All inputs are
//! deterministic (seeded shim RNG), so the vectors are stable across
//! machines and runs.

use borndist::core::netsign::MuxMessage;
use borndist::core::ro::ThresholdScheme;
use borndist::dkg::{AggregateWitness, DkgMessage, RecoveryMessage};
use borndist::net::encode_frame;
use borndist::net::mesh::{frame_envelope, Envelope};
use borndist::pairing::{G1Projective, G2Projective};
use borndist::shamir::{PedersenBases, PedersenSharing, ThresholdParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{:02x}", b)).collect()
}

/// Builds one deterministic frame per wire message type.
fn kat_frames() -> Vec<(&'static str, Vec<u8>)> {
    // Shamir layer: one Pedersen sharing, threshold 1 (2 coefficients).
    let mut r = StdRng::seed_from_u64(0x6a7);
    let bases = PedersenBases {
        g_z: G2Projective::random(&mut r).to_affine(),
        g_r: G2Projective::random(&mut r).to_affine(),
    };
    let sharing = PedersenSharing::deal_random(&bases, 1, &mut r);
    let witness = AggregateWitness {
        z0: G1Projective::random(&mut r).to_affine(),
        r0: G1Projective::random(&mut r).to_affine(),
    };

    // Core layer: dealer keygen (t=1, n=3) and a signature.
    let scheme = ThresholdScheme::new(b"wire-kats");
    let mut rk = StdRng::seed_from_u64(0x6a72);
    let km = scheme.dealer_keygen(ThresholdParams::new(1, 3).unwrap(), &mut rk);
    let partial1 = scheme.share_sign(&km.shares[&1], b"kat message");
    let partial2 = scheme.share_sign(&km.shares[&2], b"kat message");
    let sig = scheme.combine(&km.params, &[partial1, partial2]).unwrap();

    let mux_partial = encode_frame(&MuxMessage::Partial {
        session: 7,
        psig: partial1,
    });

    vec![
        (
            "dkg_commitments",
            encode_frame(&DkgMessage::Commitments {
                commitments: vec![sharing.commitment.clone()],
                aggregate: Some(witness),
            }),
        ),
        (
            "dkg_shares",
            encode_frame(&DkgMessage::Shares {
                shares: vec![sharing.share_for(2)],
            }),
        ),
        (
            "dkg_complaints",
            encode_frame(&DkgMessage::Complaints {
                against: vec![2, 5],
            }),
        ),
        (
            "dkg_complaint_answers",
            encode_frame(&DkgMessage::ComplaintAnswers {
                answers: vec![(3, vec![sharing.share_for(3)])],
            }),
        ),
        (
            "recovery_mask_commitment",
            encode_frame(&RecoveryMessage::MaskCommitment {
                commitment: sharing.commitment.clone(),
            }),
        ),
        (
            "recovery_mask_share",
            encode_frame(&RecoveryMessage::MaskShare {
                share: sharing.share_for(4),
            }),
        ),
        (
            "recovery_masked_point",
            encode_frame(&RecoveryMessage::MaskedPoint {
                a: sharing.share_for(1).a,
                b: sharing.share_for(1).b,
            }),
        ),
        ("public_key", encode_frame(&km.public_key)),
        ("verification_key", encode_frame(&km.verification_keys[&2])),
        ("key_share", encode_frame(&km.shares[&2])),
        ("partial_signature", encode_frame(&partial2)),
        ("signature", encode_frame(&sig)),
        ("pedersen_commitment", encode_frame(&sharing.commitment)),
        ("pedersen_share", encode_frame(&sharing.share_for(5))),
        ("one_time_signature", encode_frame(&sig.sig)),
        // What the signing daemon's mesh carries (`MuxMessage`), and the
        // socket framing around every protocol frame.
        (
            "mux_open",
            encode_frame(&MuxMessage::Open {
                session: 7,
                msg: b"kat message".to_vec(),
            }),
        ),
        ("mux_partial", mux_partial.clone()),
        ("mux_shutdown", encode_frame(&MuxMessage::Shutdown)),
        (
            "envelope_hello",
            frame_envelope(&Envelope::Hello { from: 3, to: 1 }),
        ),
        (
            "envelope_hello_ack",
            frame_envelope(&Envelope::HelloAck { from: 1 }),
        ),
        (
            "envelope_payload",
            frame_envelope(&Envelope::Payload {
                round: 2,
                broadcast: false,
                frame: mux_partial,
            }),
        ),
        (
            "envelope_end_round",
            frame_envelope(&Envelope::EndRound { round: 2 }),
        ),
        (
            "envelope_finished",
            frame_envelope(&Envelope::Finished { round: 3 }),
        ),
    ]
}

/// The pinned vectors (wire version 1).
const EXPECTED: &[(&str, &str)] = &[
    ("dkg_commitments", "0100000000010000000286f296834e366b4a3ed097fb385e8779fb2e6e82bdaab46b2796d228d93d5e1959a2ae4591269d6db35c6c78c7748dc60932d0c54a1a4327465eee51d4328a2531bec706d5bc1261ee03e603dc4a3caf55c257539f3d4d79616f4690dbcec923848b915df872039b949191ce3cca7eaa4732baecf7de732fec88c1f636b0098c4778efe9a129c98c012a958873584a2b150250cbbd11f54e1aacee13d604e6ff4f372528eb6ef01e7d539032afb3ca26d22c43b2e4ebea01857f519eda62e5c201b6e85dc5e42a4e8bdaa5c647c52f5bec2b9bca36cae158a26231466cfe18c3cc71180a7fd8bdc7da973f8a8b15f9e28d97aa98643bd1a7af060c40626ad78be1853d8547560a3068e613a8dea9c2d29c4f780092a5cd05e883e944677e2a613a"),
    ("dkg_shares", "010100000001000000026205d485429412cf8933f25e591b327ed6872760454130c48ca130191063b090611b2380313ae80371351822ab4ba0eda6ebb34f6f8f097b8d9630756728b049"),
    ("dkg_complaints", "0102000000020000000200000005"),
    ("dkg_complaint_answers", "0103000000010000000300000001000000036150ba456422d97a0f5a5fd1e70b9af1445d07e8421015e8b0cd96944a1e0ab82857b6477eede2b63c07f98fbc6dd3e794d7b99a12cc573578433d7142f1da33"),
    ("recovery_mask_commitment", "01000000000286f296834e366b4a3ed097fb385e8779fb2e6e82bdaab46b2796d228d93d5e1959a2ae4591269d6db35c6c78c7748dc60932d0c54a1a4327465eee51d4328a2531bec706d5bc1261ee03e603dc4a3caf55c257539f3d4d79616f4690dbcec923848b915df872039b949191ce3cca7eaa4732baecf7de732fec88c1f636b0098c4778efe9a129c98c012a958873584a2b150250cbbd11f54e1aacee13d604e6ff4f372528eb6ef01e7d539032afb3ca26d22c43b2e4ebea01857f519eda62e5c2"),
    ("recovery_mask_share", "010100000004609ba00585b1a0249580cd4574fc0363b232e8703edefb0cd4f9fd0f83d864e06381f061f63e5ab13a14b304d731dee6d68163e7b60800ee62f04a6c1ebb041e"),
    ("recovery_masked_point", "010262baeec521054c25030d84eacb2aca0c68b146d848724ba06874c99dd6a9566825f0e965b9ea700873285ead908795ee65420901cc535fc2a2e9237a8b5f865e"),
    ("public_key", "018a3fe2a6637751f841306c80b4a318cb9d4183e613a7483c0e1e98c8d56c4aa95a5ffb95889d91697355f71eaf6a56740b5b866b8b4b96e5dbf3268e85417cbbd9ab998f425b9fc53f827fa23b43f2fb332dad5a6ebab9c0e0075bd8a9e21616b8926618c6dd96e1ff575c82fd48914d42dd30b7522ad34a9cf80b33506821fea8aa7d14f688b2ffee3cb25430087150198d3a2f28e2ad315e400ac160345bcfdab30d8e61fee4d4ac0e7c058445c4b286f947c7311c408e841ce2bbdcd157fd"),
    ("verification_key", "01000000020000000298d01232022b555de4b6a922394c66113f260d6b642b131bbcca6136343a86c9be391cdfa1b6aca401df011d14c1b3111987e987e7cb5fdbbab144611392d62c1377d490b09be2defe5db12e65deccca63848f92373525e793a7b4ea97a49e6fa325439cd2ca285123de6e95c07f9337ada9802624d8f9c5363d3f86a8f35a3de9f466daf8262dc48d7c616c0f0f931f10dedfbb8b5ea6d4155964b2f366191e5f1731511b216be6537a2ec64b84666ed48928822c0cdc6d7a6be553a50a8bc9"),
    ("key_share", "01000000020000000272e9219c7a52d224dc7d62f3cb9fea12336cf8091b52046a6cfe70d6ff1891f36529bcc29e9d0b8510c8152f5c77e1e4fe0b26fa189f21988c06bbb076286d05000000024f9ed5a4d47566a0e5a4b6a8e37faa5be42a1ea627ebcc513853b69c358ca6e241952eb7de321e599bbb70c6a493b3e7be7672c35ebaa9cc935d31b8b03f0f72"),
    ("partial_signature", "010000000299288fd1eb2fa1986799844c9bb600f83b8d16d18a85ff05b64b399ded8486760d57ec1ff556ac4356c0b1729314c9c5b7c281a036470bd6c5dae90a0cf2199270a1015d1ab5feabec4025d1c5369199daf73d29cf9701d313eefbe08f9d687b"),
    ("signature", "0195396de88c137500a3eb076f9a2cbe8b250d7a63d3a19378335ffcbafb489b5fadcce05a46257e72413942876df1d2bb875c15b089c86cbc12b52c21569f4239cbe4f2103c4cb9613a309c2a0ad332ff1e2f218628be0ccf6a490e25d60c5e6c"),
    ("pedersen_commitment", "010000000286f296834e366b4a3ed097fb385e8779fb2e6e82bdaab46b2796d228d93d5e1959a2ae4591269d6db35c6c78c7748dc60932d0c54a1a4327465eee51d4328a2531bec706d5bc1261ee03e603dc4a3caf55c257539f3d4d79616f4690dbcec923848b915df872039b949191ce3cca7eaa4732baecf7de732fec88c1f636b0098c4778efe9a129c98c012a958873584a2b150250cbbd11f54e1aacee13d604e6ff4f372528eb6ef01e7d539032afb3ca26d22c43b2e4ebea01857f519eda62e5c2"),
    ("pedersen_share", "01000000055fe685c5a74066cf1ba73ab902ec6bd62008c8f83bade030f926638abd92bf082abe832943f1556404e79471e85411e0c46d6a3259454ea84d9d5767fa842e08"),
    ("one_time_signature", "0195396de88c137500a3eb076f9a2cbe8b250d7a63d3a19378335ffcbafb489b5fadcce05a46257e72413942876df1d2bb875c15b089c86cbc12b52c21569f4239cbe4f2103c4cb9613a309c2a0ad332ff1e2f218628be0ccf6a490e25d60c5e6c"),
    ("mux_open", "010000000000000000070000000b6b6174206d657373616765"),
    ("mux_partial", "01010000000000000007000000019287750b355ec34f52fac59b91c47a12eda1de9194de526f8a3aaa06b56848fbf84e2868558d4c393b1bf1cc058f8523879d8e2eb7b44f128ddf714a09b1b53f6358fe6876697a1b86e670365e4c1ff939737921ee72423f367580ce0282fc7d"),
    ("mux_shutdown", "0103"),
    ("envelope_hello", "00000009000000000300000001"),
    ("envelope_hello_ack", "000000050100000001"),
    ("envelope_payload", "000000780200000002000000006e01010000000000000007000000019287750b355ec34f52fac59b91c47a12eda1de9194de526f8a3aaa06b56848fbf84e2868558d4c393b1bf1cc058f8523879d8e2eb7b44f128ddf714a09b1b53f6358fe6876697a1b86e670365e4c1ff939737921ee72423f367580ce0282fc7d"),
    ("envelope_end_round", "000000050300000002"),
    ("envelope_finished", "000000050400000003"),
];

#[test]
#[ignore = "generator: prints fresh vectors for pinning"]
fn regenerate_kats() {
    println!("const EXPECTED: &[(&str, &str)] = &[");
    for (name, frame) in kat_frames() {
        println!("    (\"{}\", \"{}\"),", name, hex(&frame));
    }
    println!("];");
}

#[test]
fn golden_frames_match() {
    let frames = kat_frames();
    assert_eq!(
        frames.len(),
        EXPECTED.len(),
        "KAT coverage changed — regenerate the pinned vectors"
    );
    for ((name, frame), (exp_name, exp_hex)) in frames.iter().zip(EXPECTED) {
        assert_eq!(name, exp_name, "KAT order changed");
        assert_eq!(
            &hex(frame),
            exp_hex,
            "wire layout of `{}` changed — this is a format break; bump WIRE_VERSION",
            name
        );
    }
}

/// Strictly decodes a KAT frame through the message type it was pinned
/// for and returns the re-encoding — the per-type dispatch both the
/// canonicity test and the tamper test go through.
fn decode_reencode(name: &str, frame: &[u8]) -> Result<Vec<u8>, borndist::pairing::CodecError> {
    use borndist::net::decode_frame;
    Ok(match name {
        n if n.starts_with("dkg_") => encode_frame(&decode_frame::<DkgMessage>(frame)?),
        n if n.starts_with("recovery_") => encode_frame(&decode_frame::<RecoveryMessage>(frame)?),
        n if n.starts_with("mux_") => encode_frame(&decode_frame::<MuxMessage>(frame)?),
        // The body behind the 4-byte length prefix, strictly.
        n if n.starts_with("envelope_") => {
            frame_envelope(&borndist::pairing::Wire::decode_exact(&frame[4..])?)
        }
        "public_key" => encode_frame(&decode_frame::<borndist::core::ro::PublicKey>(frame)?),
        "verification_key" => {
            encode_frame(&decode_frame::<borndist::core::ro::VerificationKey>(frame)?)
        }
        "key_share" => encode_frame(&decode_frame::<borndist::core::ro::KeyShare>(frame)?),
        "partial_signature" => encode_frame(&decode_frame::<borndist::core::ro::PartialSignature>(
            frame,
        )?),
        "signature" => encode_frame(&decode_frame::<borndist::core::ro::Signature>(frame)?),
        "pedersen_commitment" => encode_frame(
            &decode_frame::<borndist::shamir::PedersenCommitment>(frame)?,
        ),
        "pedersen_share" => encode_frame(&decode_frame::<borndist::shamir::PedersenShare>(frame)?),
        "one_time_signature" => {
            encode_frame(&decode_frame::<borndist::lhsps::OneTimeSignature>(frame)?)
        }
        other => panic!("unknown KAT `{}`", other),
    })
}

#[test]
fn golden_frames_decode() {
    // Every pinned frame decodes strictly through its message type and
    // re-encodes to the identical bytes (canonicity at the frame level).
    for (name, frame) in kat_frames() {
        let reencoded = decode_reencode(name, &frame)
            .unwrap_or_else(|e| panic!("`{}` failed to decode: {}", name, e));
        assert_eq!(
            reencoded, frame,
            "`{}` does not re-encode canonically",
            name
        );
    }
}

#[test]
fn wire_sizes_are_paper_scale() {
    // E1/E4 sanity directly on the codec: signatures are 2 G1 points,
    // shares 4 scalars — the "short" sizes the paper claims, up to
    // BLS12-381's 48-byte base field.
    let frames: std::collections::BTreeMap<_, _> = kat_frames().into_iter().collect();
    assert_eq!(frames["signature"].len(), 1 + 96);
    assert_eq!(frames["partial_signature"].len(), 1 + 4 + 96);
    assert_eq!(frames["public_key"].len(), 1 + 192);
    assert_eq!(frames["pedersen_share"].len(), 1 + 4 + 64);
    assert_eq!(frames["key_share"].len(), 1 + 4 + (4 + 64) + (4 + 64));
}

#[test]
fn trailing_and_truncated_kat_frames_rejected() {
    // Strictness, exercised per message type through the same dispatch
    // the canonicity test uses: appending a byte or dropping the last
    // byte must fail the strict decode for every pinned frame.
    for (name, frame) in kat_frames() {
        let mut trailing = frame.clone();
        trailing.push(0);
        assert!(
            decode_reencode(name, &trailing).is_err(),
            "`{}` accepted a trailing byte — strict decoding is broken",
            name
        );
        assert!(
            decode_reencode(name, &frame[..frame.len() - 1]).is_err(),
            "`{}` accepted a truncated frame",
            name
        );
    }
}
