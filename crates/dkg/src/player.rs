//! The per-player state machine of the paper's `Dist-Keygen` (§3.1).
//!
//! Round structure (optimistic case = one *active* round, matching the
//! paper's "single communication round in the absence of faulty players"):
//!
//! | round | broadcast                    | private            |
//! |-------|------------------------------|--------------------|
//! | 0     | Pedersen commitments `Ŵ_{ikℓ}` (+ App. G witness) | shares `(A_k(j), B_k(j))` |
//! | 1     | complaints (only if any)     | —                  |
//! | 2     | complaint answers (only if accused) | —           |
//! | 3     | — (finalize locally)         | —                  |
//!
//! Disqualification follows the paper exactly: more than `t` complaints,
//! an unanswered or incorrectly answered complaint, a malformed or
//! equivocated broadcast, an invalid Appendix-G witness, or (in refresh
//! mode) a sharing whose constant commitment is not the identity.
//!
//! Appendix F's DLIN triples run on the same machine ([`Appendix::Dlin`]):
//! each triple `(A_k, B_k, C_k)` is two Pedersen columns that share `A_k`,
//! and a bundle whose paired columns open to different `A_k(j)` is
//! invalid like any other bad share (DESIGN.md §2, "Appendix F on the one
//! `Dist-Keygen`").
//!
//! The player is *decode-validate-then-process*: its inbox carries the
//! per-frame result of the strict [`borndist_net::Wire`] decode. A
//! broadcast frame that failed to decode is public misbehavior — every
//! honest receiver sees the same bytes fail the same strict decoder —
//! and globally disqualifies the sender; a malformed *private* frame is
//! indistinguishable from a withheld share and flows into the ordinary
//! complaint machinery. Malformed traffic can therefore never panic a
//! player or split honest verdicts.
//!
//! Byzantine behaviors for testing are injected through [`Behavior`]
//! hooks rather than separate state machines, so every adversary shares
//! the honest message plumbing.

use crate::messages::{AggregateWitness, DkgMessage};
use borndist_net::{Delivered, Outgoing, PlayerId, Protocol, Recipient, RoundAction};
use borndist_pairing::{msm, multi_pairing, Fr, G1Affine, G1Projective, G2Affine, G2Projective};
use borndist_shamir::{
    pedersen_check_verdicts, PedersenBases, PedersenCheck, PedersenCommitment, PedersenShare,
    PedersenSharing, Polynomial, ThresholdParams,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Whether a run deals fresh random secrets or a proactive refresh
/// (zero secrets, §3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharingMode {
    /// Fresh key generation: random `(a_{ik0}, b_{ik0})`.
    Fresh,
    /// Proactive refresh: all constant terms are zero and every player
    /// checks `Ŵ_{ik0} = 1`.
    Refresh,
}

/// Extra parameters of the Appendix G aggregate-capable variant:
/// public `(g, h) ∈ G²` on which each dealer proves a one-time LHSPS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AggregateBases {
    /// Generator `g`.
    pub g: G1Affine,
    /// Generator `h`.
    pub h: G1Affine,
}

/// The appendix variant a run extends §3.1's sharing with; the two
/// appendices are mutually exclusive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Appendix {
    /// Plain §3.1: `width` Pedersen sharings under [`DkgConfig::bases`].
    None,
    /// Appendix G: every dealer also broadcasts a one-time LHSPS witness
    /// on `(g, h)` (requires `width == 2`).
    Aggregate(AggregateBases),
    /// Appendix F: sharing `k` is a DLIN triple `(A_k, B_k, C_k)`, dealt
    /// as two Pedersen columns that share `A_k` — column `k` is
    /// `(A_k, B_k)` under [`DkgConfig::bases`] `(ĝ_z, ĝ_r)`, column
    /// `width + k` is `(A_k, C_k)` under these `(ĥ_z, ĥ_u)`.
    Dlin(PedersenBases),
}

/// Static configuration shared by all players of one DKG run.
#[derive(Clone, Debug)]
pub struct DkgConfig {
    /// Threshold parameters; the protocol requires `n ≥ 2t + 1`.
    pub params: ThresholdParams,
    /// The two commitment generators `(ĝ_z, ĝ_r)`.
    pub bases: PedersenBases,
    /// Number of parallel sharings (`2` for the §3 scheme, `1` for §4,
    /// `3` triples for Appendix F, which deals them as `6` columns).
    pub width: usize,
    /// Fresh keygen or proactive refresh.
    pub mode: SharingMode,
    /// The appendix extension of the run, if any.
    pub appendix: Appendix,
}

impl DkgConfig {
    /// Number of Pedersen columns each dealer deals: `width`, or
    /// `2·width` under [`Appendix::Dlin`].
    fn columns(&self) -> usize {
        match self.appendix {
            Appendix::Dlin(_) => 2 * self.width,
            _ => self.width,
        }
    }

    /// The column sets of one bundle, each with the bases its columns
    /// are committed under.
    fn column_sets(&self) -> Vec<(&PedersenBases, core::ops::Range<usize>)> {
        let mut sets = vec![(&self.bases, 0..self.width)];
        if let Appendix::Dlin(h) = &self.appendix {
            sets.push((h, self.width..2 * self.width));
        }
        sets
    }

    /// Deals one dealer's Pedersen columns (`width` of them, `2·width`
    /// under [`Appendix::Dlin`]) with random degree-`t` polynomials, every
    /// constant term zero if `zero` (refresh). Under [`Appendix::Dlin`]
    /// column `width + k` reuses column `k`'s `A_k`.
    pub fn deal<R: RngCore + ?Sized>(&self, zero: bool, rng: &mut R) -> Vec<PedersenSharing> {
        let t = self.params.t;
        let poly = |rng: &mut R| {
            if zero {
                Polynomial::random_zero_constant(t, rng)
            } else {
                Polynomial::random(t, rng)
            }
        };
        let mut paired = Vec::new();
        let mut columns: Vec<PedersenSharing> = (0..self.width)
            .map(|_| {
                let (a, b) = (poly(rng), poly(rng));
                if let Appendix::Dlin(h) = &self.appendix {
                    paired.push(PedersenSharing::from_polynomials(h, a.clone(), poly(rng)));
                }
                PedersenSharing::from_polynomials(&self.bases, a, b)
            })
            .collect();
        columns.extend(paired);
        columns
    }
}

/// One bundle judgment: the dealer's broadcast commitments, the share
/// bundle under test (`None` = withheld/malformed), and the index every
/// share in it must open the commitments at.
type BundleCheck<'a> = (
    &'a [PedersenCommitment],
    Option<&'a [PedersenShare]>,
    PlayerId,
);

/// Judges one share bundle per entry. Structural validity (bundle
/// present, every column there, shares addressed to the expected index,
/// and under [`Appendix::Dlin`] one `A_k(j)` in both columns of each
/// triple) is decided outside the algebra; every structurally valid
/// bundle of the call then folds, per column set, into **one**
/// randomized cross-dealer multi-scalar multiplication under that set's
/// bases ([`pedersen_check_verdicts`]: each commitment is
/// evaluated once at its index by Horner's rule, and the MSM takes one
/// point per check), which bisects a failing batch down to plain
/// per-share leaves against the cached evaluations — so a forged share
/// among hundreds of honest dealers gets the literal §3.1 verdict, up to
/// the negligible `|checks|/r` weight-collision probability of
/// random-linear-combination batching. The weights come from
/// `check_seed` — a stream separate from the dealing RNG, so checking
/// never perturbs dealt messages or golden traffic.
fn judge_bundles(cfg: &DkgConfig, check_seed: u64, items: &[BundleCheck<'_>]) -> Vec<bool> {
    let columns = cfg.columns();
    let paired = matches!(cfg.appendix, Appendix::Dlin(_));
    let mut verdicts: Vec<bool> = items
        .iter()
        .map(|(coms, bundle, idx)| {
            bundle.is_some_and(|b| {
                b.len() == columns
                    && coms.len() == columns
                    && b.iter().all(|s| s.index == *idx)
                    && (!paired || (0..cfg.width).all(|k| b[k].a == b[cfg.width + k].a))
            })
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(check_seed);
    for (bases, set) in cfg.column_sets() {
        let mut checks: Vec<PedersenCheck<'_>> = Vec::new();
        let mut owner: Vec<usize> = Vec::new();
        for (j, ((coms, bundle, _), ok)) in items.iter().zip(verdicts.iter()).enumerate() {
            if !*ok {
                continue;
            }
            let bundle = bundle.expect("structurally valid bundle is present");
            for c in set.clone() {
                checks.push(PedersenCheck {
                    commitment: &coms[c],
                    share: bundle[c],
                });
                owner.push(j);
            }
        }
        let leaves = pedersen_check_verdicts(bases, &checks, &mut rng);
        for (o, v) in owner.iter().zip(leaves) {
            if !v {
                verdicts[*o] = false;
            }
        }
    }
    verdicts
}

/// Fault-injection hooks. `Behavior::default()` is fully honest.
#[derive(Clone, Debug, Default)]
pub struct Behavior {
    /// Send corrupted share values to these recipients.
    pub corrupt_shares_to: BTreeSet<PlayerId>,
    /// Send no share at all to these recipients.
    pub withhold_shares_from: BTreeSet<PlayerId>,
    /// Complain against these dealers regardless of their honesty.
    pub false_complaints: Vec<PlayerId>,
    /// Never answer complaints.
    pub refuse_answers: bool,
    /// Fall silent from this round on (crash fault). `Some(0)` means the
    /// player never even deals; `Some(1)` deals and then disappears.
    pub crash_at_round: Option<usize>,
    /// Broadcast the wrong number of parallel sharings.
    pub bad_commitment_width: bool,
    /// Broadcast an invalid Appendix G witness.
    pub bad_aggregate_witness: bool,
    /// In refresh mode, deal a non-zero secret (must be caught).
    pub nonzero_refresh: bool,
    /// Broadcast two conflicting commitment messages (equivocation).
    pub equivocate_commitments: bool,
}

impl Behavior {
    /// `true` if every hook is inactive.
    pub fn is_honest(&self) -> bool {
        self.corrupt_shares_to.is_empty()
            && self.withhold_shares_from.is_empty()
            && self.false_complaints.is_empty()
            && !self.refuse_answers
            && self.crash_at_round.is_none()
            && !self.bad_commitment_width
            && !self.bad_aggregate_witness
            && !self.nonzero_refresh
            && !self.equivocate_commitments
    }
}

/// Why a player ended without a key share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DkgAbort {
    /// The player was configured to crash.
    Crashed,
    /// Fewer than `t + 1` dealers survived (cannot happen with an honest
    /// majority, kept for defensive completeness).
    TooFewQualified {
        /// Number of surviving dealers.
        qualified: usize,
    },
    /// A qualified dealer never supplied this player a valid share —
    /// impossible for honest players, detectable for Byzantine ones.
    MissingShare {
        /// The dealer in question.
        dealer: PlayerId,
    },
}

impl core::fmt::Display for DkgAbort {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DkgAbort::Crashed => f.write_str("player crashed"),
            DkgAbort::TooFewQualified { qualified } => {
                write!(f, "only {} qualified dealers", qualified)
            }
            DkgAbort::MissingShare { dealer } => {
                write!(f, "no valid share from qualified dealer {}", dealer)
            }
        }
    }
}
impl std::error::Error for DkgAbort {}

/// A player's result: its secret share of the jointly generated key plus
/// everything needed to compute the public key and verification keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DkgOutput {
    /// This player's id.
    pub id: PlayerId,
    /// The surviving dealer set `Q`.
    pub qualified: BTreeSet<PlayerId>,
    /// Secret share: `(A_k(i), B_k(i))` for each parallel sharing `k` —
    /// `2·width` scalars total, independent of `n` (the "short shares"
    /// property, experiment E4). Under [`Appendix::Dlin`] entries
    /// `width + k` follow, `(A_k(i), C_k(i))`: a DLIN share is its
    /// `3·width` distinct scalars.
    pub share: Vec<(Fr, Fr)>,
    /// Coefficient-wise products `Π_{j∈Q} Ŵ_{jk·}` — commitments to the
    /// joint polynomials, from which the public key (`constant`) and all
    /// verification keys (`evaluate_at_index`) derive.
    pub combined_commitments: Vec<PedersenCommitment>,
    /// Combined Appendix G witness `(Z, R) = (Π Z_{j0}, Π R_{j0})`.
    pub aggregate_witness: Option<AggregateWitness>,
    /// This player's own additive contribution `(a_{ik0}, b_{ik0})` —
    /// retained deliberately: the model is erasure-free, so corruption
    /// reveals it, and the security proof tolerates that.
    pub additive_secret: Vec<(Fr, Fr)>,
}

impl DkgOutput {
    /// The public key coordinates `ĝ_k = Π_{j∈Q} Ŵ_{jk0}`.
    pub fn public_key_coordinates(&self) -> Vec<G2Affine> {
        self.combined_commitments
            .iter()
            .map(|c| c.constant_commitment())
            .collect()
    }

    /// The verification key of player `i`:
    /// `V̂_{k,i} = Π_{j∈Q} Π_ℓ Ŵ_{jkℓ}^{i^ℓ}`, or identities for
    /// disqualified players (the paper's convention).
    pub fn verification_key(&self, i: PlayerId) -> Vec<G2Affine> {
        if !self.qualified.contains(&i) {
            return vec![G2Affine::identity(); self.combined_commitments.len()];
        }
        self.combined_commitments
            .iter()
            .map(|c| c.evaluate_at_index(i).to_affine())
            .collect()
    }
}

enum Phase {
    Dealing,
    Complaining,
    Answering,
    Finalizing,
    Done,
}

/// One DKG participant (honest or hook-modified).
pub struct DkgPlayer {
    id: PlayerId,
    cfg: DkgConfig,
    behavior: Behavior,
    rng: StdRng,
    phase: Phase,
    my_sharings: Vec<PedersenSharing>,
    commitments: BTreeMap<PlayerId, Vec<PedersenCommitment>>,
    witnesses: BTreeMap<PlayerId, AggregateWitness>,
    globally_bad: BTreeSet<PlayerId>,
    shares_from: BTreeMap<PlayerId, Vec<PedersenShare>>,
    complaints: BTreeMap<PlayerId, BTreeSet<PlayerId>>,
    answered: BTreeMap<(PlayerId, PlayerId), Vec<PedersenShare>>,
    /// Seed of the batch-weight RNG stream — distinct from `rng` so
    /// share checking never consumes dealing randomness. (Deterministic
    /// seeding is a simulation affordance; a deployment would draw the
    /// batch weights from fresh entropy.)
    check_seed: u64,
    /// Calls into [`judge_bundles`] so far; salts `check_seed` per call.
    check_calls: u64,
    /// Round-1 verdicts on our own private bundles, per dealer. For any
    /// dealer still qualified at finalize time the inputs (broadcast
    /// commitments, private bundle) are immutable after round 1, so
    /// finalize reuses these instead of re-verifying.
    private_verdicts: BTreeMap<PlayerId, bool>,
}

impl DkgPlayer {
    /// Creates a player with the given behavior and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2t + 1` (the paper's honest-majority requirement,
    /// §3.1: "integers t, n ∈ N such that n ≥ 2t + 1") or if the
    /// Appendix G extension is combined with a width other than 2.
    pub fn new(id: PlayerId, cfg: DkgConfig, behavior: Behavior, seed: u64) -> Self {
        assert!(
            cfg.params.honest_majority(),
            "Dist-Keygen requires n >= 2t + 1 (got t={}, n={})",
            cfg.params.t,
            cfg.params.n
        );
        assert!(
            !matches!(cfg.appendix, Appendix::Aggregate(_)) || cfg.width == 2,
            "the Appendix G extension requires width 2"
        );
        DkgPlayer {
            id,
            rng: StdRng::seed_from_u64(seed ^ ((id as u64) << 32)),
            cfg,
            behavior,
            phase: Phase::Dealing,
            my_sharings: Vec::new(),
            commitments: BTreeMap::new(),
            witnesses: BTreeMap::new(),
            globally_bad: BTreeSet::new(),
            shares_from: BTreeMap::new(),
            complaints: BTreeMap::new(),
            answered: BTreeMap::new(),
            check_seed: seed ^ ((id as u64) << 32) ^ 0xb47c_5eed_0c8e_c25a,
            check_calls: 0,
            private_verdicts: BTreeMap::new(),
        }
    }

    /// Fresh per-call seed for the batch-weight RNG.
    fn next_check_seed(&mut self) -> u64 {
        let nonce = self.check_calls;
        self.check_calls += 1;
        self.check_seed ^ nonce.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    fn n(&self) -> usize {
        self.cfg.params.n
    }

    fn t(&self) -> usize {
        self.cfg.params.t
    }

    fn crashed(&self, round: usize) -> bool {
        self.behavior.crash_at_round.is_some_and(|r| round >= r)
    }

    /// Builds the Appendix G witness for this dealer's sharings.
    fn aggregate_witness(&mut self) -> Option<AggregateWitness> {
        let Appendix::Aggregate(bases) = self.cfg.appendix else {
            return None;
        };
        if self.behavior.bad_aggregate_witness {
            return Some(AggregateWitness {
                z0: G1Projective::random(&mut self.rng).to_affine(),
                r0: G1Projective::random(&mut self.rng).to_affine(),
            });
        }
        let (a1, b1) = self.my_sharings[0].secret_pair();
        let (a2, b2) = self.my_sharings[1].secret_pair();
        // Z = g^{-a1} h^{-a2}, R = g^{-b1} h^{-b2}.
        let g = bases.g;
        let h = bases.h;
        Some(AggregateWitness {
            z0: msm(&[g, h], &[-a1, -a2]).to_affine(),
            r0: msm(&[g, h], &[-b1, -b2]).to_affine(),
        })
    }

    /// Paper's sanity check on a dealer's witness:
    /// `e(Z,ĝ_z)·e(R,ĝ_r)·e(g,Ŵ_{10})·e(h,Ŵ_{20}) = 1`.
    fn witness_valid(
        cfg: &DkgConfig,
        witness: &AggregateWitness,
        commitments: &[PedersenCommitment],
    ) -> bool {
        let Appendix::Aggregate(bases) = cfg.appendix else {
            return true;
        };
        let w10 = commitments[0].constant_commitment();
        let w20 = commitments[1].constant_commitment();
        multi_pairing(&[
            (&witness.z0, &cfg.bases.g_z),
            (&witness.r0, &cfg.bases.g_r),
            (&bases.g, &w10),
            (&bases.h, &w20),
        ])
        .is_identity()
    }

    /// Validates a dealer's round-0 broadcast; returns `false` if the
    /// dealer must be globally disqualified.
    fn broadcast_valid(
        &self,
        commitments: &[PedersenCommitment],
        witness: &Option<AggregateWitness>,
    ) -> bool {
        if commitments.len() != self.cfg.columns() {
            return false;
        }
        if commitments.iter().any(|c| c.len() != self.t() + 1) {
            return false;
        }
        if self.cfg.mode == SharingMode::Refresh && commitments.iter().any(|c| !c.is_zero_sharing())
        {
            return false;
        }
        if matches!(self.cfg.appendix, Appendix::Aggregate(_)) {
            match witness {
                None => return false,
                Some(w) => {
                    if !Self::witness_valid(&self.cfg, w, commitments) {
                        return false;
                    }
                }
            }
        }
        true
    }

    // --- round bodies ---

    fn deal(&mut self) -> Vec<Outgoing<DkgMessage>> {
        let zero = self.cfg.mode == SharingMode::Refresh && !self.behavior.nonzero_refresh;
        self.my_sharings = self.cfg.deal(zero, &mut self.rng);
        let mut commitments: Vec<PedersenCommitment> = self
            .my_sharings
            .iter()
            .map(|s| s.commitment.clone())
            .collect();
        if self.behavior.bad_commitment_width {
            commitments.pop();
        }
        let aggregate = self.aggregate_witness();
        let mut out = vec![Outgoing {
            to: Recipient::Broadcast,
            msg: DkgMessage::Commitments {
                commitments: commitments.clone(),
                aggregate,
            },
        }];
        if self.behavior.equivocate_commitments {
            // A second, conflicting broadcast: honest receivers must
            // treat this dealer as globally disqualified.
            let other = PedersenSharing::deal_random(&self.cfg.bases, self.t(), &mut self.rng);
            let mut conflicting = commitments;
            conflicting[0] = other.commitment;
            out.push(Outgoing {
                to: Recipient::Broadcast,
                msg: DkgMessage::Commitments {
                    commitments: conflicting,
                    aggregate,
                },
            });
        }
        for j in 1..=self.n() as PlayerId {
            if self.behavior.withhold_shares_from.contains(&j) {
                continue;
            }
            let mut shares: Vec<PedersenShare> =
                self.my_sharings.iter().map(|s| s.share_for(j)).collect();
            if self.behavior.corrupt_shares_to.contains(&j) {
                for s in shares.iter_mut() {
                    s.a += Fr::one();
                }
            }
            if j == self.id {
                // Deliver to self locally.
                self.shares_from.insert(self.id, shares);
            } else {
                out.push(Outgoing {
                    to: Recipient::Private(j),
                    msg: DkgMessage::Shares { shares },
                });
            }
        }
        out
    }

    /// A broadcast frame that fails the strict decode globally
    /// disqualifies its sender: the broadcast channel is reliable, so
    /// every honest player sees the identical malformed bytes and
    /// reaches the identical verdict. Returns `true` if the frame was
    /// consumed (so round handlers skip it).
    fn note_malformed(&mut self, d: &Delivered<DkgMessage>) -> bool {
        match &d.msg {
            Ok(_) => false,
            Err(_) => {
                if d.broadcast {
                    self.commitments.remove(&d.from);
                    self.globally_bad.insert(d.from);
                }
                // A malformed private frame is equivalent to a missing
                // one; the complaint path covers it.
                true
            }
        }
    }

    fn absorb_round0(&mut self, inbox: &[Delivered<DkgMessage>]) {
        for d in inbox {
            if self.note_malformed(d) {
                continue;
            }
            match d.msg.as_ref().expect("malformed frames filtered above") {
                DkgMessage::Commitments {
                    commitments,
                    aggregate,
                } if d.broadcast => {
                    if self.commitments.contains_key(&d.from) || self.globally_bad.contains(&d.from)
                    {
                        // Equivocation on the broadcast channel.
                        self.commitments.remove(&d.from);
                        self.globally_bad.insert(d.from);
                        continue;
                    }
                    if self.broadcast_valid(commitments, aggregate) {
                        self.commitments.insert(d.from, commitments.clone());
                        if let Some(w) = aggregate {
                            self.witnesses.insert(d.from, *w);
                        }
                    } else {
                        self.globally_bad.insert(d.from);
                    }
                }
                DkgMessage::Shares { shares } if !d.broadcast => {
                    self.shares_from
                        .entry(d.from)
                        .or_insert_with(|| shares.clone());
                }
                _ => { /* out-of-round or malformed: ignore */ }
            }
        }
    }

    fn decide_complaints(&mut self) -> Vec<PlayerId> {
        let mut against: BTreeSet<PlayerId> =
            self.behavior.false_complaints.iter().copied().collect();
        // Dealers that never broadcast: everyone sees this, treated as
        // bad (publicly disqualified, no complaint needed).
        let missing: Vec<PlayerId> = (1..=self.n() as PlayerId)
            .filter(|d| !self.globally_bad.contains(d) && !self.commitments.contains_key(d))
            .collect();
        self.globally_bad.extend(missing);
        // Share verification across all dealers at once: one randomized
        // cross-dealer MSM.
        let dealers: Vec<PlayerId> = (1..=self.n() as PlayerId)
            .filter(|d| !self.globally_bad.contains(d))
            .collect();
        let check_seed = self.next_check_seed();
        let items: Vec<BundleCheck<'_>> = dealers
            .iter()
            .map(|d| {
                (
                    self.commitments[d].as_slice(),
                    self.shares_from.get(d).map(|v| v.as_slice()),
                    self.id,
                )
            })
            .collect();
        let verdicts = judge_bundles(&self.cfg, check_seed, &items);
        for (dealer, ok) in dealers.iter().zip(verdicts) {
            self.private_verdicts.insert(*dealer, ok);
            if !ok {
                against.insert(*dealer);
            }
        }
        against.into_iter().collect()
    }

    fn absorb_complaints(&mut self, inbox: &[Delivered<DkgMessage>]) {
        for d in inbox {
            if self.note_malformed(d) {
                continue;
            }
            if let Ok(DkgMessage::Complaints { against }) = &d.msg {
                if !d.broadcast {
                    continue;
                }
                for accused in against {
                    self.complaints.entry(*accused).or_default().insert(d.from);
                }
            }
        }
    }

    fn answer_complaints(&mut self) -> Vec<Outgoing<DkgMessage>> {
        if self.behavior.refuse_answers {
            return vec![];
        }
        let Some(complainers) = self.complaints.get(&self.id) else {
            return vec![];
        };
        let answers: Vec<(u32, Vec<PedersenShare>)> = complainers
            .iter()
            .map(|c| {
                (
                    *c,
                    self.my_sharings.iter().map(|s| s.share_for(*c)).collect(),
                )
            })
            .collect();
        vec![Outgoing {
            to: Recipient::Broadcast,
            msg: DkgMessage::ComplaintAnswers { answers },
        }]
    }

    fn absorb_answers(&mut self, inbox: &[Delivered<DkgMessage>]) {
        for d in inbox {
            if self.note_malformed(d) {
                continue;
            }
            if let Ok(DkgMessage::ComplaintAnswers { answers }) = &d.msg {
                if !d.broadcast {
                    continue;
                }
                for (complainer, shares) in answers {
                    self.answered
                        .entry((d.from, *complainer))
                        .or_insert_with(|| shares.clone());
                }
            }
        }
    }

    fn finalize(&mut self) -> Result<DkgOutput, DkgAbort> {
        // Determine the qualified set Q from broadcast-only information,
        // so every honest player derives the same set. The public
        // pre-filter (globally bad, missing broadcast, more than `t`
        // complaints) costs no algebra; the surviving complaint-answer
        // share checks are a pure function of the broadcast record and
        // fold into one cross-dealer batch — zero MSMs in a
        // complaint-free run.
        let no_complaints = BTreeSet::new();
        let survivors: Vec<PlayerId> = (1..=self.n() as PlayerId)
            .filter(|dealer| {
                !self.globally_bad.contains(dealer)
                    && self.commitments.contains_key(dealer)
                    && self.complaints.get(dealer).unwrap_or(&no_complaints).len() <= self.t()
            })
            .collect();
        let check_seed = self.next_check_seed();
        let mut items: Vec<BundleCheck<'_>> = Vec::new();
        let mut owner: Vec<usize> = Vec::new();
        for (pos, dealer) in survivors.iter().enumerate() {
            for c in self.complaints.get(dealer).unwrap_or(&no_complaints) {
                items.push((
                    self.commitments[dealer].as_slice(),
                    self.answered.get(&(*dealer, *c)).map(|v| v.as_slice()),
                    *c,
                ));
                owner.push(pos);
            }
        }
        let answer_ok = judge_bundles(&self.cfg, check_seed, &items);
        let mut keep = vec![true; survivors.len()];
        for (pos, ok) in owner.iter().zip(answer_ok) {
            if !ok {
                keep[*pos] = false;
            }
        }
        let qualified: BTreeSet<PlayerId> = survivors
            .iter()
            .zip(keep.iter())
            .filter(|(_, keep)| **keep)
            .map(|(d, _)| *d)
            .collect();

        if qualified.len() < self.t() + 1 {
            return Err(DkgAbort::TooFewQualified {
                qualified: qualified.len(),
            });
        }

        // Per-sharing secret share: sum of dealer shares, preferring the
        // publicly answered share when we complained. The verdict on our
        // own private bundle was computed (and cached) in the complaint
        // round over exactly these inputs — qualified dealers' bundles
        // are immutable after round 1 — so no second verification pass
        // is paid here.
        let q_list: Vec<PlayerId> = qualified.iter().copied().collect();
        let mut share = vec![(Fr::zero(), Fr::zero()); self.cfg.columns()];
        for dealer in q_list.iter() {
            let use_private = self.private_verdicts.get(dealer).copied().unwrap_or(false);
            let bundle: &Vec<PedersenShare> = if use_private {
                &self.shares_from[dealer]
            } else if let Some(ans) = self.answered.get(&(*dealer, self.id)) {
                ans
            } else {
                return Err(DkgAbort::MissingShare { dealer: *dealer });
            };
            for (k, s) in bundle.iter().enumerate() {
                share[k].0 += s.a;
                share[k].1 += s.b;
            }
        }

        // Combined commitments (joint polynomials): QUAL's vectors summed
        // in projective form, one normalisation per column. Qualified
        // broadcasts all passed `broadcast_valid`, so each holds
        // `columns()` vectors of `t + 1` points.
        let combined: Vec<PedersenCommitment> = (0..self.cfg.columns())
            .map(|k| {
                let mut sums = vec![G2Projective::identity(); self.t() + 1];
                for dealer in &qualified {
                    for (sum, w) in sums.iter_mut().zip(self.commitments[dealer][k].elements()) {
                        *sum = sum.add_affine(w);
                    }
                }
                PedersenCommitment::from_elements(G2Projective::batch_to_affine(&sums))
            })
            .collect();

        let aggregate_witness = matches!(self.cfg.appendix, Appendix::Aggregate(_)).then(|| {
            let mut z = G1Projective::identity();
            let mut r = G1Projective::identity();
            for dealer in &qualified {
                let w = &self.witnesses[dealer];
                z = z.add_affine(&w.z0);
                r = r.add_affine(&w.r0);
            }
            AggregateWitness {
                z0: z.to_affine(),
                r0: r.to_affine(),
            }
        });

        Ok(DkgOutput {
            id: self.id,
            qualified,
            share,
            combined_commitments: combined,
            aggregate_witness,
            additive_secret: self.my_sharings.iter().map(|s| s.secret_pair()).collect(),
        })
    }
}

impl Protocol for DkgPlayer {
    type Message = DkgMessage;
    type Output = Result<DkgOutput, DkgAbort>;

    fn round(
        &mut self,
        round: usize,
        inbox: &[Delivered<DkgMessage>],
    ) -> RoundAction<DkgMessage, Self::Output> {
        if self.crashed(round) {
            // A crashed player stays silent and reports the crash at the
            // end so the simulation can terminate cleanly.
            return if round >= 3 {
                RoundAction::Finish(Err(DkgAbort::Crashed))
            } else {
                RoundAction::Continue(vec![])
            };
        }
        match self.phase {
            Phase::Dealing => {
                let out = self.deal();
                self.phase = Phase::Complaining;
                RoundAction::Continue(out)
            }
            Phase::Complaining => {
                self.absorb_round0(inbox);
                let against = self.decide_complaints();
                self.phase = Phase::Answering;
                if against.is_empty() {
                    RoundAction::Continue(vec![])
                } else {
                    RoundAction::Continue(vec![Outgoing {
                        to: Recipient::Broadcast,
                        msg: DkgMessage::Complaints { against },
                    }])
                }
            }
            Phase::Answering => {
                self.absorb_complaints(inbox);
                let out = self.answer_complaints();
                self.phase = Phase::Finalizing;
                RoundAction::Continue(out)
            }
            Phase::Finalizing => {
                self.absorb_answers(inbox);
                self.phase = Phase::Done;
                RoundAction::Finish(self.finalize())
            }
            Phase::Done => RoundAction::Finish(Err(DkgAbort::Crashed)),
        }
    }

    fn id(&self) -> PlayerId {
        self.id
    }
}

/// Per-player outcomes plus traffic metrics of one DKG (or refresh)
/// run: the result type of [`dkg_session`] and
/// [`crate::refresh::refresh_session`].
pub type SimulatedRunResult = Result<
    (
        BTreeMap<PlayerId, Result<DkgOutput, DkgAbort>>,
        borndist_net::Metrics,
    ),
    borndist_net::Error,
>;

/// Builds the boxed player set of one DKG run (honest players plus the
/// configured fault hooks), ready for any transport.
pub fn dkg_players(
    cfg: &DkgConfig,
    behaviors: &BTreeMap<PlayerId, Behavior>,
    seed: u64,
) -> Vec<borndist_net::BoxedPlayer<DkgMessage, Result<DkgOutput, DkgAbort>>> {
    (1..=cfg.params.n as PlayerId)
        .map(|id| {
            let behavior = behaviors.get(&id).cloned().unwrap_or_default();
            Box::new(DkgPlayer::new(id, cfg.clone(), behavior, seed)) as _
        })
        .collect()
}

/// Runs a full DKG session over any transport — the single driver
/// behind every network the runtime offers:
/// [`borndist_net::TransportKind::Lockstep`] for the paper's idealized
/// model and [`borndist_net::TransportKind::Channel`] with a lossy
/// [`borndist_net::DeliveryPolicy`] for unreliable-network scenarios
/// (both in memory, every player on the caller's thread), and
/// [`borndist_net::TransportKind::TcpReactor`] for real sockets.
///
/// `behaviors` maps player ids to fault hooks; unlisted players are
/// honest. Returns per-player outputs plus network metrics. Byte
/// metrics are transport-independent for the same seed (the frames are
/// identical); the round budget is sized so that the complaint
/// machinery can absorb dropped share deliveries.
pub fn dkg_session(
    cfg: &DkgConfig,
    behaviors: &BTreeMap<PlayerId, Behavior>,
    seed: u64,
    transport: &borndist_net::TransportKind,
) -> SimulatedRunResult {
    let players = dkg_players(cfg, behaviors, seed);
    let (outputs, metrics) = borndist_net::run_protocol(transport, players, 8)?;
    Ok((outputs, metrics))
}

/// Derives the standard DKG generators and aggregate bases from a
/// protocol tag (random-oracle parameters, no trusted setup).
pub fn standard_config(
    params: ThresholdParams,
    width: usize,
    tag: &[u8],
    aggregate: bool,
) -> DkgConfig {
    let mut t = tag.to_vec();
    t.extend_from_slice(b"/dkg");
    let g_z = borndist_pairing::hash_to_g2(b"borndist/dkg/g_z", &t).to_affine();
    let g_r = borndist_pairing::hash_to_g2(b"borndist/dkg/g_r", &t).to_affine();
    let appendix = if aggregate {
        Appendix::Aggregate(AggregateBases {
            g: borndist_pairing::hash_to_g1(b"borndist/dkg/agg_g", &t).to_affine(),
            h: borndist_pairing::hash_to_g1(b"borndist/dkg/agg_h", &t).to_affine(),
        })
    } else {
        Appendix::None
    };
    DkgConfig {
        params,
        bases: PedersenBases { g_z, g_r },
        width,
        mode: SharingMode::Fresh,
        appendix,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One `judge_bundles` call over every kind of bundle, then one over
    /// Appendix F bundles. A short bundle and a bundle addressed to
    /// another index have no [`Behavior`] hook, so no protocol test
    /// reaches them.
    #[test]
    fn judge_bundles_gives_each_bundle_its_own_verdict() {
        let params = ThresholdParams::new(1, 4).unwrap();
        let cfg = standard_config(params, 2, b"judge-bundles", false);
        let mut rng = StdRng::seed_from_u64(0x1d6e);
        let me: PlayerId = 3;
        let dealt: Vec<Vec<PedersenSharing>> = (0..5)
            .map(|_| {
                (0..cfg.width)
                    .map(|_| PedersenSharing::deal_random(&cfg.bases, params.t, &mut rng))
                    .collect()
            })
            .collect();
        let coms: Vec<Vec<PedersenCommitment>> = dealt
            .iter()
            .map(|d| d.iter().map(|s| s.commitment.clone()).collect())
            .collect();
        let bundle = |dealer: usize, index: PlayerId| -> Vec<PedersenShare> {
            dealt[dealer].iter().map(|s| s.share_for(index)).collect()
        };
        let honest = bundle(0, me);
        let mut forged = bundle(1, me);
        forged[1].a += Fr::one();
        let short = bundle(3, me)[..1].to_vec();
        // Valid openings of dealer 4's commitments, at someone else's index.
        let misaddressed = bundle(4, me + 1);
        let items: Vec<BundleCheck<'_>> = vec![
            (&coms[0], Some(&honest), me),
            (&coms[1], Some(&forged), me),
            (&coms[2], None, me),
            (&coms[3], Some(&short), me),
            (&coms[4], Some(&misaddressed), me),
            (&coms[4], Some(&misaddressed), me + 1),
        ];
        assert_eq!(
            judge_bundles(&cfg, 7, &items),
            [true, false, false, false, false, true]
        );

        // Appendix F: dealer 1's `(A, C)` columns spliced onto dealer 0's
        // `(A, B)` columns. Every column opens under its own bases; the
        // pairs open to different `A_k(me)`.
        let mut dlin = standard_config(params, 3, b"judge-bundles", false);
        dlin.appendix = Appendix::Dlin(PedersenBases {
            g_z: borndist_pairing::hash_to_g2(b"judge-bundles/h_z", b"").to_affine(),
            g_r: borndist_pairing::hash_to_g2(b"judge-bundles/h_u", b"").to_affine(),
        });
        let triples: Vec<Vec<PedersenSharing>> =
            (0..2).map(|_| dlin.deal(false, &mut rng)).collect();
        let dcoms: Vec<Vec<PedersenCommitment>> = triples
            .iter()
            .map(|d| d.iter().map(|s| s.commitment.clone()).collect())
            .collect();
        let dbundle = |dealer: usize| -> Vec<PedersenShare> {
            triples[dealer].iter().map(|s| s.share_for(me)).collect()
        };
        let paired = dbundle(0);
        let spliced_coms = [&dcoms[0][..3], &dcoms[1][3..]].concat();
        let spliced = [&paired[..3], &dbundle(1)[3..]].concat();
        let mut forged_c = dbundle(1);
        forged_c[5].b += Fr::one();
        let items: Vec<BundleCheck<'_>> = vec![
            (&dcoms[0], Some(&paired), me),
            (&spliced_coms, Some(&spliced), me),
            (&dcoms[1], Some(&forged_c), me),
        ];
        assert_eq!(judge_bundles(&dlin, 7, &items), [true, false, false]);
    }
}
