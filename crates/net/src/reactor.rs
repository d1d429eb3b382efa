//! The socket transport: one player per [`ReactorTransport`], real
//! `std::net::TcpStream` sockets between players, **one poll loop and
//! zero extra threads** per player — the transport that lets a protocol
//! run span OS processes and machines.
//!
//! ## Mesh formation
//!
//! Every player knows the listen address of every peer and binds its own
//! listener before it dials anyone. Connections are keyed by player id:
//! the **higher** id dials the **lower** id (a refused connect is
//! retried every few milliseconds, so start order does not matter; a
//! bound listener holds the dial in its backlog until its owner
//! accepts), and an [`Envelope::Hello`]/[`Envelope::HelloAck`] handshake
//! pins who is on each end before any protocol byte flows. One
//! wall-clock deadline covers the whole formation. Formation is fully
//! interleaved in one loop: the reactor keeps accepting and handshaking
//! inbound peers *while* its own dials and `HelloAck` waits are in
//! flight. Because a player only ever waits on strictly lower ids (and
//! acks depend on nothing), the wait graph is acyclic and
//! single-threaded formation cannot deadlock.
//!
//! ## Rounds over sockets
//!
//! The paper's protocols are round-based, so the transport recreates the
//! lockstep barrier with explicit markers: all of a round's payload
//! envelopes are followed by [`Envelope::EndRound`] on every link, and a
//! player enters round `r + 1` once every live peer has closed round
//! `r`. TCP's per-link ordering makes that exact — a peer can run at
//! most one round ahead, and early frames are parked per round until
//! their barrier opens. A player that terminates sends
//! [`Envelope::Finished`] (which satisfies every future barrier) and a
//! peer whose socket dies or that stays silent past the round timeout is
//! treated as crashed: its traffic simply stops, which is exactly the
//! fault the protocols' complaint machinery absorbs.
//!
//! ## Moving bytes
//!
//! Every peer socket is nonblocking and owned by a reactor that waits
//! for readiness (`crate::ready` — `poll(2)` on Linux, an adaptive
//! backoff scan elsewhere), reads length-prefixed envelopes through
//! per-peer incremental buffers ([`crate::mesh::FrameReader`], a
//! partial-read state machine), and drains per-peer write queues with
//! partial-write tracking ([`crate::mesh::WriteQueue`]) so a large
//! simultaneous fan-out can never deadlock on full kernel buffers: an
//! unwritable socket just keeps its bytes queued in user space until
//! the receiver catches up. One loop per player (not a thread per peer)
//! is what lets an n=512 mesh run inside one process.
//!
//! ## Fault injection and metering
//!
//! All routing, metering, fault injection and inbox assembly is the
//! [`crate::mesh`] round engine — the reactor holds one `Node` and
//! moves its envelopes; it never decides which frames exist. The
//! in-memory link seats the same engine on one thread, so a run's
//! merged [`Metrics`] (see [`Metrics::merge`]) are **byte-identical**
//! to the same protocol and policy there ([`crate::TransportKind::Lockstep`]
//! or [`crate::TransportKind::Channel`]) — the cross-transport parity
//! gate CI enforces, lossy runs included.

use crate::error::{Error, TcpError};
use crate::frame::decode_frame;
use crate::mesh::{frame_envelope, Envelope, Flush, FrameReader, Node, WriteQueue};
use crate::policy::DeliveryPolicy;
use crate::ready::{fd_of, Readiness, Want};
use crate::{BoxedPlayer, Metrics, PlayerId, SimError, TransportStats};
use borndist_pairing::codec::Wire;
use borndist_parallel::{with_parallelism, Parallelism};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Pause between connect attempts to a peer whose listener is not
/// bound yet. Fixed, not growing: a listener that appears late is
/// reached within one period of binding, whatever the start order.
const DIAL_RETRY: Duration = Duration::from_millis(5);
/// Wall-clock cap on mesh formation: every dial, accept and `HelloAck`
/// wait of one [`ReactorTransport::connect`] shares this one deadline.
const FORM_TIMEOUT: Duration = Duration::from_secs(30);
/// A live peer silent this long within one round is treated as crashed.
const ROUND_TIMEOUT: Duration = Duration::from_secs(60);

/// Raises the process file-descriptor limit to at least `needed`
/// descriptors (soft limit, capped by the hard limit). Returns whether
/// `needed` descriptors are available — large in-process meshes
/// (n=512 ⇒ ~n² sockets) call this before binding and skip with a
/// logged reason when the host cannot provide them.
#[cfg(target_os = "linux")]
pub fn ensure_fd_capacity(needed: u64) -> bool {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    unsafe {
        let mut lim = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return false;
        }
        if lim.cur >= needed {
            return true;
        }
        if lim.max >= needed {
            let raised = RLimit {
                cur: needed,
                max: lim.max,
            };
            if setrlimit(RLIMIT_NOFILE, &raised) == 0 {
                return true;
            }
        }
        false
    }
}

/// Non-Linux fallback: no portable rlimit binding, so report capacity
/// optimistically and let socket creation surface any real limit.
#[cfg(not(target_os = "linux"))]
pub fn ensure_fd_capacity(_needed: u64) -> bool {
    true
}

/// One peer socket owned by the reactor.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    wq: WriteQueue,
    /// Envelopes that arrived during the handshake, hard on the heels
    /// of the peer's `HelloAck` (a fast peer may enter round 0 while
    /// our connect is still in flight). Drained into the round engine
    /// before the first barrier — dropping them would lose real
    /// protocol frames.
    backlog: Vec<Envelope>,
    /// Set on EOF, socket error or framing violation; a dead conn is
    /// never polled again and its peer is `gone` to the round engine.
    dead: bool,
}

impl Conn {
    /// Adopts a post-handshake socket, keeping the handshake reader
    /// (it may hold a partially received frame) and any envelopes
    /// pulled past the handshake word.
    fn new(stream: TcpStream, reader: FrameReader, backlog: Vec<Envelope>) -> Self {
        Conn {
            stream,
            reader,
            wq: WriteQueue::new(),
            backlog,
            dead: false,
        }
    }
}

/// Writes `buf` to a nonblocking stream, waiting for writability
/// between partial writes — only used for the two tiny handshake words,
/// where queueing would complicate the state machine for no benefit.
fn write_all_nb(
    stream: &mut TcpStream,
    buf: &[u8],
    readiness: &mut Readiness,
    deadline: Instant,
) -> std::io::Result<()> {
    let mut off = 0;
    while off < buf.len() {
        match stream.write(&buf[off..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let budget = deadline.saturating_duration_since(Instant::now());
                if budget.is_zero() {
                    return Err(std::io::ErrorKind::TimedOut.into());
                }
                let mut wants = [Want::writable(fd_of(stream))];
                readiness.wait(&mut wants, budget.min(Duration::from_millis(50)))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// An inbound connection whose `Hello` has not completed yet.
struct PendingInbound {
    stream: TcpStream,
    reader: FrameReader,
}

/// Where the outbound dial plan stands (one peer at a time, ascending —
/// each completed ack proves the lower peer is accepting, so the plan
/// never waits on anything a later step could unblock).
enum DialPhase {
    /// The next connect attempt to `peer` is due at `retry_at`.
    Retry {
        peer: PlayerId,
        addr: SocketAddr,
        retry_at: Instant,
    },
    /// `Hello` sent; waiting for the peer's `HelloAck`.
    Ack {
        peer: PlayerId,
        stream: TcpStream,
        reader: FrameReader,
    },
    /// Every outbound peer is connected and acked.
    Done,
}

impl DialPhase {
    /// The first attempt at the next peer of the plan, due now.
    fn next(plan: &mut impl Iterator<Item = (PlayerId, SocketAddr)>) -> Self {
        match plan.next() {
            Some((peer, addr)) => DialPhase::Retry {
                peer,
                addr,
                retry_at: Instant::now(),
            },
            None => DialPhase::Done,
        }
    }
}

/// Drives **one** player of a protocol over a TCP mesh with a single
/// event loop on the caller's thread — no per-peer threads, no
/// acceptor thread. The other players live in other transports — other
/// threads ([`crate::TransportKind::TcpReactor`]), other processes (the
/// signing daemon), or other machines. See the module docs for the full
/// design.
pub struct ReactorTransport<M, O> {
    node: Node<M, O>,
    conns: BTreeMap<PlayerId, Conn>,
    readiness: Readiness,
    stats: TransportStats,
}

impl<M: Wire, O> ReactorTransport<M, O> {
    /// Joins the mesh described by `peers` (id → address of every
    /// *other* player), accepting inbound peers on `listener` and
    /// injecting faults by `policy`. Bind the listener as early as the
    /// caller can: a peer's dial then waits in its backlog until this
    /// player accepts, instead of being refused and retried. Formation
    /// (every dial, accept and handshake) must finish within 30 s.
    ///
    /// # Errors
    ///
    /// [`SimError::DuplicatePlayer`] if `peers` names this player;
    /// dial/handshake/accept failures and an elapsed formation deadline
    /// as [`TcpError`] variants.
    pub fn connect(
        player: BoxedPlayer<M, O>,
        listener: TcpListener,
        peers: BTreeMap<PlayerId, SocketAddr>,
        policy: DeliveryPolicy,
    ) -> Result<Self, Error> {
        let deadline = Instant::now() + FORM_TIMEOUT;
        Self::connect_by(player, listener, peers, policy, deadline)
    }

    /// [`Self::connect`], with formation ending at `deadline`.
    pub(crate) fn connect_by(
        player: BoxedPlayer<M, O>,
        listener: TcpListener,
        peers: BTreeMap<PlayerId, SocketAddr>,
        policy: DeliveryPolicy,
        deadline: Instant,
    ) -> Result<Self, Error> {
        let id = player.id();
        if peers.contains_key(&id) {
            return Err(SimError::DuplicatePlayer(id).into());
        }
        let expected: BTreeSet<PlayerId> = peers.keys().copied().filter(|p| *p > id).collect();
        // The dial plan, ascending by id (the map's own order).
        let mut plan = peers
            .iter()
            .filter(|(p, _)| **p < id)
            .map(|(p, a)| (*p, *a));

        listener.set_nonblocking(true)?;
        let mut readiness = Readiness::new();
        let mut conns: BTreeMap<PlayerId, Conn> = BTreeMap::new();
        let mut inbound: Vec<PendingInbound> = Vec::new();
        let mut phase = DialPhase::next(&mut plan);

        loop {
            let inbound_done = conns.keys().filter(|p| **p > id).count() == expected.len();
            if inbound_done && matches!(phase, DialPhase::Done) {
                break;
            }
            if Instant::now() >= deadline {
                // Report what formation still waits on: a pending dial
                // is named before missing inbound peers.
                return Err(match phase {
                    DialPhase::Retry { peer, addr, .. } => TcpError::DialFailed {
                        peer,
                        addr,
                        last: std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "formation deadline elapsed",
                        ),
                    },
                    DialPhase::Ack { peer, .. } => TcpError::Handshake {
                        peer,
                        reason: "HelloAck never arrived".into(),
                    },
                    DialPhase::Done => TcpError::AcceptTimeout {
                        missing: expected
                            .iter()
                            .filter(|p| !conns.contains_key(p))
                            .copied()
                            .collect(),
                    },
                }
                .into());
            }
            let mut progressed = false;

            // 1. Drain the accept queue (keeping the backlog clear even
            //    while our own dials are mid-flight).
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(true)?;
                        stream.set_nodelay(true)?;
                        inbound.push(PendingInbound {
                            stream,
                            reader: FrameReader::new(),
                        });
                        progressed = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(TcpError::Io(e).into()),
                }
            }

            // 2. Progress inbound handshakes. Stray, misaddressed,
            //    duplicate or malformed hellos drop the connection
            //    without killing the mesh.
            let mut i = 0;
            while i < inbound.len() {
                let pend = &mut inbound[i];
                let pull = pend.reader.pull(&mut pend.stream);
                let mut drop_it = pull.closed;
                let mut envs = pull.envelopes.into_iter();
                if let Some(env) = envs.next() {
                    if let Envelope::Hello { from, to } = env {
                        if to == id && expected.contains(&from) && !conns.contains_key(&from) {
                            let mut done = inbound.swap_remove(i);
                            let ack = frame_envelope(&Envelope::HelloAck { from: id });
                            if write_all_nb(&mut done.stream, &ack, &mut readiness, deadline)
                                .is_ok()
                            {
                                conns.insert(
                                    from,
                                    Conn::new(done.stream, done.reader, envs.collect()),
                                );
                            }
                            progressed = true;
                            continue;
                        }
                    }
                    drop_it = true;
                }
                if drop_it {
                    inbound.swap_remove(i);
                    progressed = true;
                } else {
                    i += 1;
                }
            }

            // 3. Advance the dial plan one step.
            phase = match phase {
                DialPhase::Retry {
                    peer,
                    addr,
                    retry_at,
                } if Instant::now() >= retry_at => match TcpStream::connect(addr) {
                    Ok(mut stream) => {
                        stream.set_nonblocking(true)?;
                        stream.set_nodelay(true)?;
                        let hello = frame_envelope(&Envelope::Hello { from: id, to: peer });
                        write_all_nb(&mut stream, &hello, &mut readiness, deadline).map_err(
                            |e| TcpError::Handshake {
                                peer,
                                reason: format!("hello write failed: {}", e),
                            },
                        )?;
                        progressed = true;
                        DialPhase::Ack {
                            peer,
                            stream,
                            reader: FrameReader::new(),
                        }
                    }
                    Err(_) => DialPhase::Retry {
                        peer,
                        addr,
                        retry_at: Instant::now() + DIAL_RETRY,
                    },
                },
                DialPhase::Ack {
                    peer,
                    mut stream,
                    mut reader,
                } => {
                    let pull = reader.pull(&mut stream);
                    let mut envs = pull.envelopes.into_iter();
                    if let Some(env) = envs.next() {
                        match env {
                            Envelope::HelloAck { from } if from == peer => {
                                // A fast peer may already be in round 0:
                                // whatever followed its ack (complete
                                // envelopes and partial bytes alike)
                                // must survive into the run.
                                conns.insert(peer, Conn::new(stream, reader, envs.collect()));
                                progressed = true;
                                DialPhase::next(&mut plan)
                            }
                            other => {
                                return Err(TcpError::Handshake {
                                    peer,
                                    reason: format!(
                                        "expected HelloAck from {}, got {:?}",
                                        peer, other
                                    ),
                                }
                                .into())
                            }
                        }
                    } else if pull.closed {
                        return Err(TcpError::Handshake {
                            peer,
                            reason: "connection closed during handshake".into(),
                        }
                        .into());
                    } else {
                        DialPhase::Ack {
                            peer,
                            stream,
                            reader,
                        }
                    }
                }
                waiting => waiting,
            };

            if progressed {
                readiness.note_progress();
                continue;
            }

            // 4. Nothing moved: block until a socket has something for
            //    us (or a retry/deadline step is due).
            let mut wants = vec![Want::readable(fd_of(&listener))];
            for pend in &inbound {
                wants.push(Want::readable(fd_of(&pend.stream)));
            }
            let mut budget = Duration::from_millis(50);
            match &phase {
                DialPhase::Retry { retry_at, .. } => {
                    budget = budget.min(retry_at.saturating_duration_since(Instant::now()));
                }
                DialPhase::Ack { stream, .. } => {
                    wants.push(Want::readable(fd_of(stream)));
                }
                _ => {}
            }
            if !budget.is_zero() {
                readiness.wait(&mut wants, budget)?;
            }
        }

        let stats = TransportStats {
            connections_high_water: conns.len() as u64,
            ..TransportStats::default()
        };
        let node = Node::new(player, conns.keys().copied(), policy);
        Ok(ReactorTransport {
            node,
            conns,
            readiness,
            stats,
        })
    }

    /// Runs this player to completion, returning its output and the
    /// **local** metrics (this player's sends only — merge across the
    /// mesh with [`Metrics::merge`] for the global view).
    ///
    /// # Errors
    ///
    /// [`SimError::RoundLimitExceeded`] if the player is still running
    /// after `max_rounds`; [`SimError::UnknownRecipient`] on a
    /// misaddressed frame; socket failures during the run are treated as
    /// peer crashes, not errors.
    pub fn run(self, max_rounds: usize) -> Result<(O, Metrics), Error> {
        let (out, metrics, _) = self.run_with_stats(max_rounds)?;
        Ok((out, metrics))
    }

    /// [`Self::run`], additionally returning the socket-layer
    /// [`TransportStats`] (connection high-water, frames in/out,
    /// partial-read resumptions).
    ///
    /// # Errors
    ///
    /// See [`Self::run`].
    pub fn run_with_stats(
        mut self,
        max_rounds: usize,
    ) -> Result<(O, Metrics, TransportStats), Error> {
        let result = self.drive(max_rounds);
        // Close everything whatever happened, so peers observe EOF
        // instead of waiting out their round timeout on a wedged mesh.
        for conn in self.conns.values() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        self.stats.partial_read_resumptions = self
            .conns
            .values()
            .map(|c| c.reader.resumptions())
            .sum::<u64>();
        let stats = self.stats;
        result.map(|(out, metrics)| (out, metrics, stats))
    }

    /// Turn, queue `EndRound`/`Finished`, pump the barrier (the whole
    /// transport runs on this one thread).
    fn drive(&mut self, max_rounds: usize) -> Result<(O, Metrics), Error> {
        // Frames that raced the handshake park exactly as if they had
        // arrived during round 0's barrier.
        for (pid, conn) in self.conns.iter_mut() {
            for env in std::mem::take(&mut conn.backlog) {
                self.stats.frames_in += 1;
                self.node.state.note_envelope(*pid, env, 0);
            }
        }
        let run_start = Instant::now();

        for round in 0..max_rounds {
            let round_start = Instant::now();
            let r32 = round as u32;

            // Pinned sequential: a mesh may run one such loop per player
            // in one process, and nested parallel primitives must not
            // oversubscribe the machine.
            let (node, conns, stats) = (&mut self.node, &mut self.conns, &mut self.stats);
            let finished = with_parallelism(Parallelism::Sequential, || {
                node.turn(
                    round,
                    &mut |frame| decode_frame(&frame),
                    &mut |pid, env| match conns.get_mut(&pid) {
                        Some(conn) if !conn.dead => {
                            conn.wq.push(env);
                            stats.frames_out += 1;
                            true
                        }
                        Some(_) => false,
                        None => true,
                    },
                )
            })?;
            if let Some(out) = finished {
                self.node.metrics.finish_round(round_start, run_start);
                self.queue_control(&Envelope::Finished { round: r32 });
                self.flush_outgoing(Instant::now() + ROUND_TIMEOUT);
                return Ok((out, std::mem::take(&mut self.node.metrics)));
            }
            self.queue_control(&Envelope::EndRound { round: r32 });

            // Barrier: pump the reactor until every live peer has closed
            // this round (EndRound), terminated (Finished), or died
            // (socket EOF or round timeout). Queued writes drain inside
            // the same pump.
            let deadline = Instant::now() + ROUND_TIMEOUT;
            loop {
                let waiting = self.node.state.waiting_on(r32);
                if waiting.is_empty() {
                    break;
                }
                let budget = deadline.saturating_duration_since(Instant::now());
                if budget.is_zero() {
                    // Silent peers past the deadline are crashed as far
                    // as this round is concerned; the complaint/timeout
                    // machinery upstairs deals with their absence.
                    self.node.state.gone.extend(waiting);
                    break;
                }
                self.pump(r32, budget)?;
            }
            self.node.metrics.finish_round(round_start, run_start);
        }

        Err(SimError::RoundLimitExceeded {
            limit: max_rounds,
            unfinished: vec![self.node.id],
        }
        .into())
    }

    /// One reactor turn: wait (≤ `budget`) for readiness across every
    /// live socket, then pull frames and drain write queues wherever
    /// progress is possible.
    fn pump(&mut self, r32: u32, budget: Duration) -> Result<(), Error> {
        // Read interest always (EOF must be observable); write interest
        // only while bytes are queued.
        let mut wants: Vec<Want> = self
            .conns
            .values()
            .filter(|conn| !conn.dead)
            .map(|conn| Want::duplex(fd_of(&conn.stream), !conn.wq.is_empty()))
            .collect();
        if wants.is_empty() {
            // Every socket is dead; the barrier's timeout logic decides.
            std::thread::sleep(budget.min(Duration::from_millis(10)));
            return Ok(());
        }
        self.readiness.wait(&mut wants, budget)?;
        let state = &mut self.node.state;
        let mut progressed = false;
        // The same walk that built `wants`: a conn only dies below once
        // its own turn has come, so the two stay aligned.
        let polled = self.conns.iter_mut().filter(|(_, conn)| !conn.dead);
        for (want, (pid, conn)) in wants.iter().zip(polled) {
            if want.ready_read {
                let pull = conn.reader.pull(&mut conn.stream);
                if !pull.envelopes.is_empty() {
                    progressed = true;
                }
                for env in pull.envelopes {
                    self.stats.frames_in += 1;
                    state.note_envelope(*pid, env, r32);
                }
                if pull.closed {
                    conn.dead = true;
                    state.gone.insert(*pid);
                    progressed = true;
                }
            }
            if want.ready_write && !conn.dead && !conn.wq.is_empty() {
                match conn.wq.flush(&mut conn.stream) {
                    Flush::Closed => {
                        conn.dead = true;
                        state.gone.insert(*pid);
                    }
                    Flush::Drained => progressed = true,
                    Flush::Blocked => {}
                }
            }
        }
        if progressed {
            self.readiness.note_progress();
        }
        Ok(())
    }

    /// Queues a control envelope to every live peer.
    fn queue_control(&mut self, env: &Envelope) {
        for pid in self.node.state.live_peers() {
            if let Some(conn) = self.conns.get_mut(&pid) {
                if !conn.dead {
                    conn.wq.push(env);
                    self.stats.frames_out += 1;
                }
            }
        }
    }

    /// Best-effort drain of every write queue before shutdown (the
    /// `Finished` word must reach peers or they wait out a timeout).
    fn flush_outgoing(&mut self, deadline: Instant) {
        let unsent = |conn: &Conn| !conn.dead && !conn.wq.is_empty();
        loop {
            let mut wants: Vec<Want> = self
                .conns
                .values()
                .filter(|conn| unsent(conn))
                .map(|conn| Want::writable(fd_of(&conn.stream)))
                .collect();
            if wants.is_empty() {
                return;
            }
            let budget = deadline.saturating_duration_since(Instant::now());
            if budget.is_zero() {
                return;
            }
            if self.readiness.wait(&mut wants, budget).unwrap_or(0) == 0 {
                continue;
            }
            // Aligned with `wants` for the reason given in `pump`.
            let polled = self.conns.values_mut().filter(|conn| unsent(conn));
            for (want, conn) in wants.iter().zip(polled) {
                if want.ready_write && conn.wq.flush(&mut conn.stream) == Flush::Closed {
                    conn.dead = true;
                }
            }
        }
    }
}

/// Runs a whole player set as an in-process reactor mesh on loopback —
/// how `TransportKind::TcpReactor` lets every existing driver and
/// fault-injection test run over the real socket path unchanged. One
/// thread per *player* (each player's reactor is single-threaded) and
/// one ephemeral `127.0.0.1` port each, every listener bound before any
/// player dials.
///
/// # Errors
///
/// The first player-level [`Error`] of the mesh, if any.
pub fn run_tcp_reactor_loopback<M: Wire, O: Send>(
    players: Vec<BoxedPlayer<M, O>>,
    policy: &DeliveryPolicy,
    max_rounds: usize,
) -> Result<(BTreeMap<PlayerId, O>, Metrics), Error> {
    crate::check_unique_ids(&players)?;
    let mut listeners = Vec::with_capacity(players.len());
    let mut addrs: BTreeMap<PlayerId, SocketAddr> = BTreeMap::new();
    for player in &players {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        addrs.insert(player.id(), listener.local_addr()?);
        listeners.push(listener);
    }

    let results: Vec<Result<(PlayerId, O, Metrics), Error>> = std::thread::scope(|scope| {
        let handles: Vec<_> = players
            .into_iter()
            .zip(listeners)
            .map(|(player, listener)| {
                let id = player.id();
                let peers: BTreeMap<PlayerId, SocketAddr> = addrs
                    .iter()
                    .filter(|(p, _)| **p != id)
                    .map(|(p, a)| (*p, *a))
                    .collect();
                let policy = policy.clone();
                scope.spawn(move || {
                    let transport = ReactorTransport::connect(player, listener, peers, policy)?;
                    let (out, metrics) = transport.run(max_rounds)?;
                    Ok((id, out, metrics))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    let mut outputs = BTreeMap::new();
    let mut locals = Vec::new();
    for result in results {
        let (id, out, metrics) = result?;
        outputs.insert(id, out);
        locals.push(metrics);
    }
    Ok((outputs, Metrics::merge(locals.iter())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delivered, Outgoing, Protocol, Recipient, RoundAction};

    #[test]
    fn fd_capacity_check_accepts_modest_requests() {
        assert!(ensure_fd_capacity(64));
    }

    /// A player that finishes at once; the dial tests never run it.
    struct Idle(PlayerId);
    impl Protocol for Idle {
        type Message = u64;
        type Output = ();
        fn round(&mut self, _round: usize, _inbox: &[Delivered<u64>]) -> RoundAction<u64, ()> {
            RoundAction::Finish(())
        }
        fn id(&self) -> PlayerId {
            self.0
        }
    }

    /// A loopback listener on an ephemeral port, and its address.
    fn bound() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    /// A loopback address nothing listens on (reserved once, then freed).
    fn free_addr() -> SocketAddr {
        bound().1
    }

    /// Joins a two-player mesh as `me`, accepting on `listener`, with
    /// formation ending at `deadline`.
    fn join(
        me: PlayerId,
        listener: TcpListener,
        peer: (PlayerId, SocketAddr),
        deadline: Instant,
    ) -> Result<ReactorTransport<u64, ()>, Error> {
        let peers = BTreeMap::from([peer]);
        let policy = DeliveryPolicy::reliable();
        ReactorTransport::connect_by(Box::new(Idle(me)), listener, peers, policy, deadline)
    }

    /// Dials `peer` at `addr` under `deadline` and reports how the dial
    /// failed: (peer, cause).
    fn failed_dial(
        peer: PlayerId,
        addr: SocketAddr,
        deadline: Instant,
    ) -> (PlayerId, std::io::Error) {
        let result = join(peer + 1, bound().0, (peer, addr), deadline);
        match result.err().expect("the dial must fail") {
            Error::Tcp(TcpError::DialFailed { peer, last, .. }) => (peer, last),
            other => panic!("unexpected error: {}", other),
        }
    }

    #[test]
    fn dial_retries_until_a_late_listener_binds() {
        // Player 1 binds its listener only after 160 ms. A fixed 5 ms
        // retry reaches it within one period; a schedule doubling from
        // 5 ms would not try again until ≈ 315 ms.
        let a1 = free_addr();
        let (l2, a2) = bound();
        let start = Instant::now();
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(160));
            let l1 = TcpListener::bind(a1)?;
            join(1, l1, (2, a2), Instant::now() + FORM_TIMEOUT).map(drop)
        });
        join(2, l2, (1, a1), start + FORM_TIMEOUT)
            .expect("dial must succeed once the listener appears");
        let formed = start.elapsed();
        late.join().unwrap().expect("late listener joins the mesh");
        assert!(
            formed < Duration::from_millis(260),
            "dial landed {:?} after start, more than 100 ms after the bind",
            formed
        );
    }

    #[test]
    fn dial_to_a_bound_listener_waits_for_its_accept() {
        // Player 1's listener is bound, but its reactor starts 200 ms
        // later: player 2's dial waits in the listen backlog for the
        // HelloAck instead of failing.
        let (l1, a1) = bound();
        let (l2, a2) = bound();
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            join(1, l1, (2, a2), Instant::now() + FORM_TIMEOUT).map(drop)
        });
        join(2, l2, (1, a1), Instant::now() + FORM_TIMEOUT).expect("mesh forms");
        late.join().unwrap().expect("late reactor joins the mesh");
    }

    #[test]
    fn dial_with_expired_deadline_errors_instead_of_panicking() {
        // A deadline that elapsed before the first connect must surface
        // as DialFailed with a TimedOut cause, not a panic on the
        // missing attempt error, and no connect may be attempted: the
        // peer's bound listener never sees one.
        let (listener, addr) = bound();
        let (peer, last) = failed_dial(7, addr, Instant::now());
        assert_eq!(peer, 7);
        assert_eq!(last.kind(), std::io::ErrorKind::TimedOut);
        listener.set_nonblocking(true).unwrap();
        let accepted = listener.accept().map(drop);
        assert_eq!(
            accepted.unwrap_err().kind(),
            std::io::ErrorKind::WouldBlock,
            "no connect attempt fits an elapsed deadline"
        );
    }

    #[test]
    fn dial_deadline_caps_the_backoff_schedule() {
        // Nothing ever listens: the retries must stop at the deadline,
        // not at the 30 s formation default, and name the peer.
        let start = Instant::now();
        let (peer, last) = failed_dial(2, free_addr(), start + Duration::from_millis(40));
        let waited = start.elapsed();
        assert_eq!(peer, 2);
        assert!(
            waited >= Duration::from_millis(40),
            "stopped before the deadline"
        );
        assert!(
            waited < Duration::from_secs(5),
            "deadline must cut the retries short"
        );
        assert_eq!(last.kind(), std::io::ErrorKind::TimedOut);
    }

    #[test]
    fn hello_ack_wait_ends_at_the_formation_deadline() {
        // Player 1 accepts player 2's dial but never answers its Hello.
        // The HelloAck wait shares the one formation deadline: it must
        // end there with a Handshake error, not a fresh timeout later.
        let (mute, a1) = bound();
        let holder = std::thread::spawn(move || mute.accept().map(|(stream, _)| stream));
        let start = Instant::now();
        let result = join(2, bound().0, (1, a1), start + Duration::from_millis(200));
        let waited = start.elapsed();
        match result.err().expect("no HelloAck ever arrives") {
            Error::Tcp(TcpError::Handshake { peer: 1, .. }) => {}
            other => panic!("unexpected error: {}", other),
        }
        assert!(waited >= Duration::from_millis(200), "gave up early");
        assert!(
            waited < Duration::from_secs(2),
            "waited {:?} past a 200 ms deadline",
            waited
        );
        // The accepted socket stays open until here.
        drop(holder.join().unwrap().expect("player 1 accepts"));
    }

    #[test]
    fn dial_fails_at_once_when_the_listener_closes_unaccepted() {
        // Player 1 binds, then closes its listener without accepting
        // once the dial sits in its backlog: the kernel resets the
        // queued connection, and player 2 must fail with a typed
        // Handshake error at once, not at the formation deadline.
        let (l1, a1) = bound();
        let closer = std::thread::spawn(move || {
            let mut readiness = Readiness::new();
            let mut wants = [Want::readable(fd_of(&l1))];
            while readiness
                .wait(&mut wants, Duration::from_millis(50))
                .unwrap()
                == 0
            {}
            drop(l1);
        });
        let start = Instant::now();
        let result = join(2, bound().0, (1, a1), start + FORM_TIMEOUT);
        match result.err().expect("a reset connection cannot form") {
            Error::Tcp(TcpError::Handshake { peer: 1, .. }) => {}
            other => panic!("unexpected error: {}", other),
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "failed after {:?}",
            start.elapsed()
        );
        closer.join().unwrap();
    }

    /// Player 1 finishes (and closes its sockets) at round 1 while
    /// players 2 and 3 keep exchanging frames until round 3: the
    /// mid-round disconnect must read as *silence* — the survivors see
    /// EOF, mark the peer gone, stop waiting for its round barriers,
    /// and complete normally. This is the socket-level half of the
    /// crash fault model; protocols translate the silence into
    /// complaints/disqualification at their own layer.
    #[test]
    fn peer_disconnect_mid_round_reads_as_silence() {
        struct Chatter {
            id: PlayerId,
            quit_after: usize,
            from_one: usize,
        }
        impl Protocol for Chatter {
            type Message = u64;
            type Output = usize;
            fn round(&mut self, round: usize, inbox: &[Delivered<u64>]) -> RoundAction<u64, usize> {
                self.from_one += inbox.iter().filter(|d| d.from == 1).count();
                if round >= self.quit_after {
                    return RoundAction::Finish(self.from_one);
                }
                RoundAction::Continue(vec![Outgoing {
                    to: Recipient::Broadcast,
                    msg: self.id as u64 * 100 + round as u64,
                }])
            }
            fn id(&self) -> PlayerId {
                self.id
            }
        }

        let players: Vec<BoxedPlayer<u64, usize>> = vec![
            Box::new(Chatter {
                id: 1,
                quit_after: 1,
                from_one: 0,
            }),
            Box::new(Chatter {
                id: 2,
                quit_after: 3,
                from_one: 0,
            }),
            Box::new(Chatter {
                id: 3,
                quit_after: 3,
                from_one: 0,
            }),
        ];
        let (outputs, _) = run_tcp_reactor_loopback(players, &DeliveryPolicy::reliable(), 10)
            .expect("mesh completes");
        assert_eq!(outputs.len(), 3, "survivors and quitter all finish");
        // Player 1 broadcast in round 0 only; each survivor therefore
        // saw exactly one frame from it and silence after the
        // disconnect.
        assert_eq!(outputs[&2], 1);
        assert_eq!(outputs[&3], 1);
    }

    /// A two-player mesh driven through the public per-process API:
    /// both sides report live transport counters.
    #[test]
    fn two_player_mesh_reports_stats() {
        struct Echo {
            id: PlayerId,
            heard: u64,
        }
        impl Protocol for Echo {
            type Message = u64;
            type Output = u64;
            fn round(&mut self, round: usize, inbox: &[Delivered<u64>]) -> RoundAction<u64, u64> {
                self.heard += inbox
                    .iter()
                    .filter_map(|d| d.msg.as_ref().ok())
                    .sum::<u64>();
                if round >= 2 {
                    return RoundAction::Finish(self.heard);
                }
                RoundAction::Continue(vec![Outgoing {
                    to: Recipient::Broadcast,
                    msg: self.id as u64,
                }])
            }
            fn id(&self) -> PlayerId {
                self.id
            }
        }

        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l2 = TcpListener::bind("127.0.0.1:0").unwrap();
        let a1 = l1.local_addr().unwrap();
        let a2 = l2.local_addr().unwrap();
        let (r1, r2) = std::thread::scope(|scope| {
            let h1 = scope.spawn(move || {
                let t = ReactorTransport::connect(
                    Box::new(Echo { id: 1, heard: 0 }) as BoxedPlayer<u64, u64>,
                    l1,
                    BTreeMap::from([(2, a2)]),
                    DeliveryPolicy::reliable(),
                )
                .expect("player 1 connects");
                t.run_with_stats(10).expect("player 1 runs")
            });
            let h2 = scope.spawn(move || {
                let t = ReactorTransport::connect(
                    Box::new(Echo { id: 2, heard: 0 }) as BoxedPlayer<u64, u64>,
                    l2,
                    BTreeMap::from([(1, a1)]),
                    DeliveryPolicy::reliable(),
                )
                .expect("player 2 connects");
                t.run_with_stats(10).expect("player 2 runs")
            });
            (h1.join().unwrap(), h2.join().unwrap())
        });
        let (out1, _, stats1) = r1;
        let (out2, _, stats2) = r2;
        // Broadcast loops back to the sender: each player hears both
        // broadcasts (1 + 2 = 3) in rounds 1 and 2.
        assert_eq!(out1, 6, "player 1 heard both players in both rounds");
        assert_eq!(out2, 6, "player 2 heard both players in both rounds");
        for stats in [&stats1, &stats2] {
            assert_eq!(stats.connections_high_water, 1);
            assert!(stats.frames_in > 0, "payload + control frames arrived");
            assert!(stats.frames_out > 0, "payload + control frames left");
        }
    }
}
