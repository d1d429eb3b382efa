//! Wire messages of the distributed key generation protocol.
//!
//! Every variant has a canonical byte encoding ([`Wire`]): a 1-byte
//! variant tag followed by the fields, with group elements in their
//! compressed subgroup-checked form and scalars canonical. The strict
//! decoder is the first line of the protocol's input validation — a
//! frame that fails to decode is treated by [`crate::DkgPlayer`] exactly
//! like a malformed broadcast or a missing share (decode-validate-then-
//! process), never as a crash.

use borndist_pairing::codec::{CodecError, Wire};
use borndist_pairing::G1Affine;
use borndist_shamir::{PedersenCommitment, PedersenShare};

/// The extra broadcast of the Appendix G (aggregate-capable) variant:
/// a one-time LHSPS signature `(Z_{i0}, R_{i0})` on the public vector
/// `(g, h)` under the dealer's constant-coefficient key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AggregateWitness {
    /// `Z_{i0} = g^{-a_{i10}} h^{-a_{i20}}`.
    pub z0: G1Affine,
    /// `R_{i0} = g^{-b_{i10}} h^{-b_{i20}}`.
    pub r0: G1Affine,
}

impl Wire for AggregateWitness {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.z0.encode_to(out);
        self.r0.encode_to(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(AggregateWitness {
            z0: G1Affine::decode(input)?,
            r0: G1Affine::decode(input)?,
        })
    }
}

/// A DKG message. One `enum` covers all four rounds; the honest state
/// machine never sends a variant outside its round, but Byzantine players
/// may (and receivers must tolerate it).
//
// `Commitments` dominates the enum size because `AggregateWitness` is two
// inline curve points; boxing it would cost an allocation per broadcast
// and break the field's `Copy` flow through the player state machine.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum DkgMessage {
    /// Round 0 broadcast: the dealer's Pedersen commitments, one
    /// commitment vector per parallel sharing (`width` of them), plus the
    /// optional aggregate witness.
    Commitments {
        /// `Ŵ_{ikℓ}` for each sharing `k`.
        commitments: Vec<PedersenCommitment>,
        /// Appendix G extension, when enabled.
        aggregate: Option<AggregateWitness>,
    },
    /// Round 0 private message: the dealer's shares for the recipient,
    /// one `(A_k(j), B_k(j))` pair per parallel sharing.
    Shares {
        /// Shares in sharing order (all carry the recipient's index).
        shares: Vec<PedersenShare>,
    },
    /// Round 1 broadcast: complaints against dealers whose share failed
    /// equation (1) or never arrived.
    Complaints {
        /// Accused dealer ids.
        against: Vec<u32>,
    },
    /// Round 2 broadcast: a dealer's answer to complaints — the correct
    /// shares of every complainer, publicly revealed.
    ComplaintAnswers {
        /// `(complainer, shares-for-complainer)` pairs.
        answers: Vec<(u32, Vec<PedersenShare>)>,
    },
}

const TAG_COMMITMENTS: u8 = 0;
const TAG_SHARES: u8 = 1;
const TAG_COMPLAINTS: u8 = 2;
const TAG_COMPLAINT_ANSWERS: u8 = 3;

impl Wire for DkgMessage {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            DkgMessage::Commitments {
                commitments,
                aggregate,
            } => {
                out.push(TAG_COMMITMENTS);
                commitments.encode_to(out);
                aggregate.encode_to(out);
            }
            DkgMessage::Shares { shares } => {
                out.push(TAG_SHARES);
                shares.encode_to(out);
            }
            DkgMessage::Complaints { against } => {
                out.push(TAG_COMPLAINTS);
                against.encode_to(out);
            }
            DkgMessage::ComplaintAnswers { answers } => {
                out.push(TAG_COMPLAINT_ANSWERS);
                answers.encode_to(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            TAG_COMMITMENTS => Ok(DkgMessage::Commitments {
                commitments: Vec::decode(input)?,
                aggregate: Option::decode(input)?,
            }),
            TAG_SHARES => Ok(DkgMessage::Shares {
                shares: Vec::decode(input)?,
            }),
            TAG_COMPLAINTS => Ok(DkgMessage::Complaints {
                against: Vec::decode(input)?,
            }),
            TAG_COMPLAINT_ANSWERS => Ok(DkgMessage::ComplaintAnswers {
                answers: Vec::decode(input)?,
            }),
            tag => Err(CodecError::InvalidTag(tag)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borndist_pairing::G2Projective;
    use borndist_shamir::{PedersenBases, PedersenSharing};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The closed-form sizes the retired estimate trait used to report.
    /// Kept as an independent cross-check that the real encoder produces
    /// exactly the compact layout the E5 experiment always claimed
    /// (1-byte tag, 4-byte lengths, 48/96-byte points, 32-byte scalars).
    fn estimated_size(msg: &DkgMessage) -> usize {
        const G1: usize = 48;
        const G2: usize = 96;
        const FR: usize = 32;
        let share = 4 + 2 * FR;
        1 + match msg {
            DkgMessage::Commitments {
                commitments,
                aggregate,
            } => {
                4 + commitments.iter().map(|c| 4 + G2 * c.len()).sum::<usize>()
                    + 1
                    + aggregate.map_or(0, |_| 2 * G1)
            }
            DkgMessage::Shares { shares } => 4 + shares.len() * share,
            DkgMessage::Complaints { against } => 4 + 4 * against.len(),
            DkgMessage::ComplaintAnswers { answers } => {
                4 + answers
                    .iter()
                    .map(|(_, shares)| 4 + 4 + shares.len() * share)
                    .sum::<usize>()
            }
        }
    }

    fn sharing(seed: u64, t: usize) -> (PedersenBases, PedersenSharing) {
        let mut r = StdRng::seed_from_u64(seed);
        let bases = PedersenBases {
            g_z: G2Projective::random(&mut r).to_affine(),
            g_r: G2Projective::random(&mut r).to_affine(),
        };
        let sharing = PedersenSharing::deal_random(&bases, t, &mut r);
        (bases, sharing)
    }

    #[test]
    fn encoded_lengths_match_the_retired_estimates() {
        let (_, s) = sharing(1, 3);
        let all = [
            DkgMessage::Commitments {
                commitments: vec![s.commitment.clone(), s.commitment.clone()],
                aggregate: None,
            },
            DkgMessage::Shares {
                shares: vec![s.share_for(1), s.share_for(2)],
            },
            DkgMessage::Complaints {
                against: vec![1, 2],
            },
            DkgMessage::ComplaintAnswers {
                answers: vec![(3, vec![s.share_for(3)]), (4, vec![s.share_for(4)])],
            },
        ];
        for msg in &all {
            assert_eq!(
                msg.encode().len(),
                estimated_size(msg),
                "encoder layout drifted from the documented compact format"
            );
        }
        // Spot values (t = 3 ⇒ 4 commitment coefficients).
        assert_eq!(all[0].encode().len(), 1 + 4 + 2 * (4 + 4 * 96) + 1);
        assert_eq!(all[1].encode().len(), 1 + 4 + 2 * (4 + 64));
        assert_eq!(all[2].encode().len(), 1 + 4 + 8);
    }

    #[test]
    fn wire_roundtrip_all_variants() {
        let (_, s) = sharing(2, 2);
        let witness = AggregateWitness {
            z0: borndist_pairing::G1Projective::generator().to_affine(),
            r0: borndist_pairing::G1Projective::generator()
                .double()
                .to_affine(),
        };
        let msgs = [
            DkgMessage::Commitments {
                commitments: vec![s.commitment.clone()],
                aggregate: Some(witness),
            },
            DkgMessage::Shares {
                shares: vec![s.share_for(5)],
            },
            DkgMessage::Complaints { against: vec![7] },
            DkgMessage::ComplaintAnswers {
                answers: vec![(3, vec![s.share_for(3)])],
            },
        ];
        for msg in &msgs {
            let enc = msg.encode();
            let dec = DkgMessage::decode_exact(&enc).unwrap();
            // DkgMessage has no PartialEq (commitments are compared
            // through their group elements); compare re-encodings.
            assert_eq!(dec.encode(), enc);
        }
    }

    #[test]
    fn strict_rejection() {
        let (_, s) = sharing(3, 2);
        let msg = DkgMessage::Shares {
            shares: vec![s.share_for(1)],
        };
        let enc = msg.encode();
        // Trailing byte.
        let mut trailing = enc.clone();
        trailing.push(0);
        assert!(matches!(
            DkgMessage::decode_exact(&trailing),
            Err(CodecError::TrailingBytes { remaining: 1 })
        ));
        // Unknown variant tag.
        let mut bad_tag = enc.clone();
        bad_tag[0] = 9;
        assert!(matches!(
            DkgMessage::decode_exact(&bad_tag),
            Err(CodecError::InvalidTag(9))
        ));
        // Truncation.
        assert!(matches!(
            DkgMessage::decode_exact(&enc[..enc.len() - 1]),
            Err(CodecError::UnexpectedEnd)
        ));
    }
}
