//! The adaptive adversary: broadcast observation, corruption decisions,
//! and the player wrapper that enacts them.

use borndist_core::netsign::{MuxMessage, MuxOutcome, MuxSignerPlayer};
use borndist_core::ro::PartialSignature;
use borndist_dkg::{Behavior, DkgAbort, DkgConfig, DkgMessage, DkgOutput, DkgPlayer};
use borndist_net::{BoxedPlayer, Delivered, Outgoing, PlayerId, Protocol, Recipient, RoundAction};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// When (and whom) the adversary corrupts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CorruptionRule {
    /// At the start of `at_round`, corrupt the players that sent the
    /// most broadcast frames so far (ties broken by ascending id) — the
    /// "go after the loudest" heuristic; with everyone dealing once it
    /// degenerates to the lowest ids, which keeps it deterministic.
    TopBroadcasters {
        /// The round at which the corruption fires.
        at_round: usize,
    },
    /// At the start of `at_round`, corrupt the players accused by the
    /// most distinct complainers so far (ties by ascending id; players
    /// with zero accusations are never picked) — the adversary reads
    /// the complaint round and piles onto dealers already under
    /// suspicion.
    MostAccused {
        /// The round at which the corruption fires.
        at_round: usize,
    },
    /// Corrupt fixed players at fixed rounds (the fully scripted case).
    Scripted(Vec<(usize, PlayerId)>),
}

/// What a corrupted player does from its corruption round on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptAction {
    /// Send nothing at all (adaptive crash).
    Silence,
    /// In the complaint round, broadcast a complaint against **every**
    /// other player (the colluding complaint flood). Other rounds run
    /// honestly, so the flood is pure noise the complaint machinery
    /// must absorb.
    FloodComplaints,
    /// Withhold complaint answers (a corrupted dealer that lets itself
    /// be disqualified rather than expose its sharing).
    RefuseAnswers,
}

/// A scripted adversary strategy: a corruption budget (the model's `t`),
/// a rule for picking victims from observed traffic, and the behavior
/// the victims switch to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdversaryScript {
    /// Maximum number of corruptions (never exceeds the scheme's `t`).
    pub budget: usize,
    /// Victim-selection rule.
    pub rule: CorruptionRule,
    /// Post-corruption behavior.
    pub action: CorruptAction,
}

/// Everything the adversary has seen and decided. Shared (behind a
/// mutex) by all player wrappers of one run; keyed observations are
/// deduplicated first-reporter-wins, which is sound because the
/// broadcast channel is reliable — every reporter carries the identical
/// record.
#[derive(Debug, Default)]
struct AdversaryState {
    /// Deduplication key: one count per `(round, sender)` broadcast.
    seen: BTreeSet<(usize, PlayerId)>,
    /// Broadcast frames observed per sender.
    broadcast_counts: BTreeMap<PlayerId, usize>,
    /// Accused dealer → distinct complainers observed.
    accusations: BTreeMap<PlayerId, BTreeSet<PlayerId>>,
    /// Rounds for which the corruption decision has been taken.
    decided: BTreeSet<usize>,
    /// The corrupted set (monotone, `≤ budget`).
    corrupted: BTreeSet<PlayerId>,
}

/// The adaptive adversary of one DKG run.
///
/// Observes broadcast traffic through every [`AdaptiveDkgPlayer`]'s
/// inbox, decides corruptions per [`AdversaryScript`], and rewrites the
/// outgoing traffic of corrupted players. All mutation is behind one
/// mutex; decisions are taken once per round by whichever wrapper gets
/// there first (their views of the broadcast record are identical).
#[derive(Debug)]
pub struct Adversary {
    script: AdversaryScript,
    state: Mutex<AdversaryState>,
}

impl Adversary {
    /// Creates the adversary for one run.
    pub fn new(script: AdversaryScript) -> Arc<Self> {
        Arc::new(Adversary {
            script,
            state: Mutex::new(AdversaryState::default()),
        })
    }

    /// The players corrupted so far (ascending).
    pub fn corrupted(&self) -> Vec<PlayerId> {
        self.lock().corrupted.iter().copied().collect()
    }

    /// `true` if `id` is currently corrupted.
    pub fn is_corrupted(&self, id: PlayerId) -> bool {
        self.lock().corrupted.contains(&id)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AdversaryState> {
        self.state.lock().expect("adversary state poisoned")
    }

    /// Records the broadcast frames of `inbox` (private traffic is
    /// invisible to the adversary — authenticated private channels).
    fn observe(&self, round: usize, inbox: &[Delivered<DkgMessage>]) {
        let mut st = self.lock();
        for d in inbox {
            if !d.broadcast || !st.seen.insert((round, d.from)) {
                continue;
            }
            *st.broadcast_counts.entry(d.from).or_insert(0) += 1;
            if let Ok(DkgMessage::Complaints { against }) = &d.msg {
                for accused in against {
                    st.accusations.entry(*accused).or_default().insert(d.from);
                }
            }
        }
    }

    /// Takes the corruption decision for `round` (idempotent).
    fn decide(&self, round: usize) {
        let mut st = self.lock();
        if !st.decided.insert(round) {
            return;
        }
        let mut victims: Vec<PlayerId> = Vec::new();
        match &self.script.rule {
            CorruptionRule::TopBroadcasters { at_round } if *at_round == round => {
                let mut ranked: Vec<(PlayerId, usize)> = st
                    .broadcast_counts
                    .iter()
                    .map(|(id, n)| (*id, *n))
                    .collect();
                ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                victims.extend(ranked.into_iter().map(|(id, _)| id));
            }
            CorruptionRule::MostAccused { at_round } if *at_round == round => {
                let mut ranked: Vec<(PlayerId, usize)> = st
                    .accusations
                    .iter()
                    .map(|(id, who)| (*id, who.len()))
                    .collect();
                ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                victims.extend(ranked.into_iter().map(|(id, _)| id));
            }
            CorruptionRule::Scripted(plan) => {
                victims.extend(plan.iter().filter(|(r, _)| *r == round).map(|(_, id)| *id));
            }
            _ => {}
        }
        for v in victims {
            if st.corrupted.len() >= self.script.budget {
                break;
            }
            st.corrupted.insert(v);
        }
    }

    /// Rewrites a corrupted player's outgoing traffic per the script's
    /// [`CorruptAction`].
    fn rewrite(
        &self,
        id: PlayerId,
        round: usize,
        n: usize,
        out: Vec<Outgoing<DkgMessage>>,
    ) -> Vec<Outgoing<DkgMessage>> {
        match self.script.action {
            CorruptAction::Silence => vec![],
            CorruptAction::FloodComplaints => {
                // Round 1 is the complaint round of the 4-round DKG.
                if round == 1 {
                    let against: Vec<PlayerId> = (1..=n as PlayerId).filter(|p| *p != id).collect();
                    vec![Outgoing {
                        to: Recipient::Broadcast,
                        msg: DkgMessage::Complaints { against },
                    }]
                } else {
                    out
                }
            }
            CorruptAction::RefuseAnswers => {
                if round == 2 {
                    // Drop the answer broadcast, keep anything else.
                    out.into_iter()
                        .filter(|o| !matches!(o.msg, DkgMessage::ComplaintAnswers { .. }))
                        .collect()
                } else {
                    out
                }
            }
        }
    }
}

/// A [`DkgPlayer`] under adaptive-adversary observation: feeds its inbox
/// to the shared [`Adversary`], and — once corrupted — has its outgoing
/// traffic rewritten by the script. Until the corruption round the
/// player is byte-for-byte the honest player, which is exactly the
/// "behaved honestly, then fell" trace an adaptive adversary produces.
pub struct AdaptiveDkgPlayer {
    id: PlayerId,
    n: usize,
    inner: DkgPlayer,
    adversary: Arc<Adversary>,
}

impl AdaptiveDkgPlayer {
    /// Wraps a DKG player under the given adversary.
    pub fn new(
        id: PlayerId,
        cfg: DkgConfig,
        behavior: Behavior,
        seed: u64,
        adversary: Arc<Adversary>,
    ) -> Self {
        let n = cfg.params.n;
        AdaptiveDkgPlayer {
            id,
            n,
            inner: DkgPlayer::new(id, cfg, behavior, seed),
            adversary,
        }
    }
}

impl Protocol for AdaptiveDkgPlayer {
    type Message = DkgMessage;
    type Output = Result<DkgOutput, DkgAbort>;

    fn round(
        &mut self,
        round: usize,
        inbox: &[Delivered<DkgMessage>],
    ) -> RoundAction<DkgMessage, Self::Output> {
        self.adversary.observe(round, inbox);
        self.adversary.decide(round);
        let action = self.inner.round(round, inbox);
        if !self.adversary.is_corrupted(self.id) {
            return action;
        }
        match action {
            RoundAction::Finish(out) => RoundAction::Finish(out),
            RoundAction::Continue(msgs) => {
                RoundAction::Continue(self.adversary.rewrite(self.id, round, self.n, msgs))
            }
        }
    }

    fn id(&self) -> PlayerId {
        self.id
    }
}

/// Builds the full player set of one adversarial DKG run: every player
/// wrapped by the same [`Adversary`], ready for
/// [`borndist_net::run_protocol`].
pub fn adaptive_dkg_players(
    cfg: &DkgConfig,
    behaviors: &BTreeMap<PlayerId, Behavior>,
    seed: u64,
    adversary: &Arc<Adversary>,
) -> Vec<BoxedPlayer<DkgMessage, Result<DkgOutput, DkgAbort>>> {
    (1..=cfg.params.n as PlayerId)
        .map(|id| {
            let behavior = behaviors.get(&id).cloned().unwrap_or_default();
            Box::new(AdaptiveDkgPlayer::new(
                id,
                cfg.clone(),
                behavior,
                seed,
                Arc::clone(adversary),
            )) as _
        })
        .collect()
}

/// A Byzantine signing node: the honest [`MuxSignerPlayer`] runs, but
/// every partial signature it sends is replaced by `forged`. Whatever
/// is in `usurp` it broadcasts once, in its first round, as if it were
/// the coordinator (a rogue `Open`, a `Shutdown`).
pub(crate) struct ForgingSigner {
    pub(crate) inner: MuxSignerPlayer,
    pub(crate) forged: PartialSignature,
    pub(crate) usurp: Vec<MuxMessage>,
}

impl Protocol for ForgingSigner {
    type Message = MuxMessage;
    type Output = MuxOutcome;

    fn round(
        &mut self,
        round: usize,
        inbox: &[Delivered<MuxMessage>],
    ) -> RoundAction<MuxMessage, MuxOutcome> {
        let mut out = match self.inner.round(round, inbox) {
            RoundAction::Continue(out) => out,
            finish => return finish,
        };
        for o in out.iter_mut() {
            if let MuxMessage::Partial { psig, .. } = &mut o.msg {
                *psig = self.forged;
            }
        }
        out.extend(self.usurp.drain(..).map(|msg| Outgoing {
            to: Recipient::Broadcast,
            msg,
        }));
        RoundAction::Continue(out)
    }

    fn id(&self) -> PlayerId {
        self.inner.id()
    }
}

/// What a [`Watched`] player did: the sessions it sent a partial for,
/// and the round it finished in.
#[derive(Default)]
pub(crate) struct Watch {
    pub(crate) partials: BTreeSet<u64>,
    pub(crate) finished: Option<usize>,
}

/// A signing-mesh player run unchanged, with what it does recorded
/// into `log` under its id.
pub(crate) struct Watched<P> {
    pub(crate) inner: P,
    pub(crate) log: Arc<Mutex<BTreeMap<PlayerId, Watch>>>,
}

impl<P: Protocol<Message = MuxMessage, Output = MuxOutcome>> Protocol for Watched<P> {
    type Message = MuxMessage;
    type Output = MuxOutcome;

    fn round(
        &mut self,
        round: usize,
        inbox: &[Delivered<MuxMessage>],
    ) -> RoundAction<MuxMessage, MuxOutcome> {
        let action = self.inner.round(round, inbox);
        let mut log = self.log.lock().expect("watch log poisoned");
        let watch = log.entry(self.inner.id()).or_default();
        match &action {
            RoundAction::Continue(out) => {
                watch
                    .partials
                    .extend(out.iter().filter_map(|o| match o.msg {
                        MuxMessage::Partial { session, .. } => Some(session),
                        _ => None,
                    }))
            }
            RoundAction::Finish(_) => watch.finished = Some(round),
        }
        action
    }

    fn id(&self) -> PlayerId {
        self.inner.id()
    }
}
