//! A live `borndist-service` deployment driven from outside: `N` player
//! processes plus the front-end, and **one** client connection with one
//! writer (the calling thread) and one reader thread that stamps every
//! reply the moment it arrives.

use borndist::core::ro::PublicKey;
use borndist::net::{LatencySummary, TransportStats, Wire};
use borndist_service::daemon::free_port_block;
use borndist_service::{ClientRequest, ClientResponse, MAX_CLIENT_FRAME};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Deployment shape every daemon workload uses.
pub const PLAYERS: u32 = 4;
pub const THRESHOLD: usize = 1;
pub const MAX_IN_FLIGHT: usize = 8;
/// Hash-domain tag shared by the daemon processes and the in-process
/// schemes that generate and check its traffic.
pub const DOMAIN: &str = "borndist-benchmark";

/// A request with no reply after this long counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// Spawn → first reply (includes the multi-process DKG) may take this long.
const SESSION_TIMEOUT: Duration = Duration::from_secs(60);
/// `free_port_block` releases its probe sockets before the children
/// bind them, so a launch can lose the race; it is retried this often.
const LAUNCH_ATTEMPTS: usize = 3;
/// Request id of the warm-up Sign that ends set-up.
pub const WARMUP_ID: u64 = u64::MAX;

/// One frame from the front-end, stamped by the reader thread.
pub struct Reply {
    /// When the frame's last byte had been read.
    pub arrived: Instant,
    /// When decoding finished.
    pub decoded: Instant,
    pub response: ClientResponse,
}

/// The audit frame a deployment answers `Shutdown` with.
pub struct Summary {
    pub public_key: PublicKey,
    pub high_water: u64,
    pub sign_latency: LatencySummary,
    pub verify_latency: LatencySummary,
    pub transport: TransportStats,
}

/// Kills and reaps every child on drop, so a panic, a timeout or an
/// early return never leaves daemon processes behind.
struct Processes(Vec<Child>);

impl Processes {
    fn any_exited(&mut self) -> Option<String> {
        self.0.iter_mut().find_map(|c| match c.try_wait() {
            Ok(Some(status)) => Some(format!(
                "daemon process {} exited early: {}",
                c.id(),
                status
            )),
            Ok(None) => None,
            Err(e) => Some(format!("daemon process {}: {}", c.id(), e)),
        })
    }

    /// Waits for every child to exit on its own, up to `limit`.
    fn wait_all(&mut self, limit: Duration) -> Result<(), String> {
        let deadline = Instant::now() + limit;
        for child in &mut self.0 {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => break,
                    Ok(Some(status)) => {
                        return Err(format!("daemon process {} failed: {}", child.id(), status))
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    Ok(None) => return Err(format!("daemon process {} did not exit", child.id())),
                    Err(e) => return Err(format!("daemon process {}: {}", child.id(), e)),
                }
            }
        }
        Ok(())
    }
}

impl Drop for Processes {
    fn drop(&mut self) {
        for child in &mut self.0 {
            // Errors here mean the child is already gone.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A running deployment and its single client connection.
pub struct Deployment {
    processes: Processes,
    writer: TcpStream,
    replies: mpsc::Receiver<Reply>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// Spawn of the first process → arrival of the warm-up signature.
    pub setup: Duration,
}

/// Length-prefixed encoding of one request, ready for a single write.
pub fn encode_request(req: &ClientRequest) -> Vec<u8> {
    let body = req.encode();
    let len = u32::try_from(body.len()).expect("request fits a client frame");
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(&body);
    frame
}

fn reader_loop(mut stream: TcpStream, replies: mpsc::Sender<Reply>) {
    // Any read or decode error ends the stream: the writer side notices
    // through its own timeouts.
    loop {
        let mut len = [0u8; 4];
        if stream.read_exact(&mut len).is_err() {
            return;
        }
        let len = u32::from_be_bytes(len) as usize;
        if len > MAX_CLIENT_FRAME {
            return;
        }
        let mut body = vec![0u8; len];
        if stream.read_exact(&mut body).is_err() {
            return;
        }
        let arrived = Instant::now();
        let Ok(response) = ClientResponse::decode_exact(&body) else {
            return;
        };
        let reply = Reply {
            arrived,
            decoded: Instant::now(),
            response,
        };
        if replies.send(reply).is_err() {
            return;
        }
    }
}

impl Deployment {
    /// Spawns the deployment and completes one warm-up Sign. Retries a
    /// launch that lost the port race or whose processes died.
    pub fn launch(service_bin: &Path, seed: u64) -> Result<Deployment, String> {
        let mut last = String::new();
        for attempt in 0..LAUNCH_ATTEMPTS {
            match Self::try_launch(service_bin, seed) {
                Ok(d) => return Ok(d),
                Err(e) => {
                    eprintln!("benchmark: launch attempt {} failed: {}", attempt + 1, e);
                    last = e;
                }
            }
        }
        Err(format!("deployment did not come up: {}", last))
    }

    fn try_launch(service_bin: &Path, seed: u64) -> Result<Deployment, String> {
        let io = |e: std::io::Error| e.to_string();
        let start = Instant::now();
        let n = PLAYERS as u16;
        let base = free_port_block(2 * n + 3).map_err(|e| e.to_string())?;
        let spawn = |mode: &str, extra: [&str; 2], stdout: Stdio| {
            Command::new(service_bin)
                .arg(mode)
                .args(["--n", &PLAYERS.to_string(), "--t", &THRESHOLD.to_string()])
                .args(["--seed", &seed.to_string(), "--domain", DOMAIN])
                .args(["--dkg-base", &base.to_string()])
                .args(["--sign-base", &(base + n + 1).to_string()])
                .args(["--max-in-flight", &MAX_IN_FLIGHT.to_string()])
                .args(["--transport", "reactor"])
                .args(extra)
                .stdin(Stdio::null())
                .stdout(stdout)
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawn {}: {}", service_bin.display(), e))
        };
        let mut processes = Processes(Vec::new());
        for id in 1..=PLAYERS {
            processes
                .0
                .push(spawn("player", ["--id", &id.to_string()], Stdio::null())?);
        }
        let mut frontend = spawn("frontend", ["--client-port", "0"], Stdio::piped())?;
        let banner_pipe = frontend.stdout.take().expect("piped stdout");
        processes.0.push(frontend);

        // The front-end announces its client port before joining the
        // mesh; EOF instead means it died.
        let mut banner = String::new();
        BufReader::new(banner_pipe)
            .read_line(&mut banner)
            .map_err(io)?;
        let port: u16 = banner
            .trim()
            .strip_prefix("CLIENT_PORT ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("bad front-end banner {:?}", banner))?;

        let writer = TcpStream::connect(("127.0.0.1", port)).map_err(io)?;
        writer.set_nodelay(true).map_err(io)?;
        let (tx, replies) = mpsc::channel();
        let read_half = writer.try_clone().map_err(io)?;
        let reader = std::thread::spawn(move || reader_loop(read_half, tx));
        let mut deployment = Deployment {
            processes,
            writer,
            replies,
            reader: Some(reader),
            setup: Duration::ZERO,
        };

        deployment
            .send(&encode_request(&ClientRequest::Sign {
                id: WARMUP_ID,
                msg: b"benchmark warm-up".to_vec(),
            }))
            .map_err(io)?;
        let deadline = start + SESSION_TIMEOUT;
        loop {
            match deployment.recv(Duration::from_millis(20)) {
                Some(Reply {
                    arrived,
                    response: ClientResponse::Signed { id: WARMUP_ID, .. },
                    ..
                }) => {
                    deployment.setup = arrived - start;
                    return Ok(deployment);
                }
                Some(_) => return Err("unexpected reply before the warm-up signature".into()),
                None => {
                    if let Some(dead) = deployment.processes.any_exited() {
                        return Err(dead);
                    }
                    if Instant::now() > deadline {
                        return Err("no warm-up signature within the session timeout".into());
                    }
                }
            }
        }
    }

    /// Writes one pre-encoded request frame.
    pub fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(frame)
    }

    /// The next reply, waiting at most `wait`.
    pub fn recv(&mut self, wait: Duration) -> Option<Reply> {
        self.replies.recv_timeout(wait).ok()
    }

    /// Process ids of the players and the front-end.
    pub fn pids(&self) -> Vec<u32> {
        self.processes.0.iter().map(Child::id).collect()
    }

    /// Sends `Shutdown`, consumes the `Summary` and reaps every process.
    /// Replies still in flight are discarded.
    pub fn shutdown(mut self) -> Result<Summary, String> {
        self.send(&encode_request(&ClientRequest::Shutdown))
            .map_err(|e| format!("send Shutdown: {}", e))?;
        let deadline = Instant::now() + 2 * REQUEST_TIMEOUT;
        let summary = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.recv(left).map(|r| r.response) {
                Some(ClientResponse::Summary {
                    public_key,
                    high_water,
                    sign_latency,
                    verify_latency,
                    transport,
                    ..
                }) => {
                    break Summary {
                        public_key,
                        high_water,
                            sign_latency,
                        verify_latency,
                        transport,
                    }
                }
                Some(_) => continue,
                None => return Err("no Summary after Shutdown".into()),
            }
        };
        self.processes.wait_all(REQUEST_TIMEOUT)?;
        Ok(summary)
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        // Unblocks the reader whether or not the front-end still lives.
        let _ = self.writer.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}
