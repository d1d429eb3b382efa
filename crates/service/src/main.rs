//! `borndist-service` — the threshold-signing daemon.
//!
//! ```text
//! borndist-service player   --id 1 --n 4 --t 1 --seed 7 --domain demo \
//!                           --dkg-base 9000 --sign-base 9100 --max-in-flight 8
//! borndist-service frontend --n 4 --t 1 --seed 7 --domain demo \
//!                           --dkg-base 9000 --sign-base 9100 --max-in-flight 8 \
//!                           --client-port 9200
//! borndist-service smoke    --n 4 --t 1 --requests 100
//! ```
//!
//! Every mesh runs on the one socket engine (`borndist_net`'s reactor:
//! one poll loop per process). `--transport reactor` is still accepted
//! so existing command lines keep working, and selects nothing; any
//! other value, and any flag the mode does not read, is a startup error.
//!
//! `player` and `frontend` are the long-running deployment processes;
//! `smoke` spawns a whole deployment (players + front-end as child
//! processes of itself) and gates on signature validity plus DKG
//! metrics byte-parity with an in-process reference run.

use borndist_net::PlayerId;
use borndist_service::daemon::{free_port_block, run_frontend, run_player, run_smoke};
use borndist_service::Topology;
use borndist_shamir::ThresholdParams;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::process::ExitCode;

/// The deployment-topology flags every mode reads.
const TOPOLOGY_FLAGS: &[&str] = &[
    "n",
    "t",
    "seed",
    "domain",
    "dkg-base",
    "sign-base",
    "max-in-flight",
    "transport",
];

/// Why a command line was rejected before anything started.
#[derive(Debug, PartialEq, Eq)]
enum ArgError {
    /// A token where a `--flag` was expected.
    NotAFlag(String),
    /// A `--flag` with nothing after it.
    MissingValue(String),
    /// A flag the mode does not read — a typo must not run at defaults.
    UnknownFlag { flag: String, valid: Vec<String> },
    /// `--transport` named anything but the one socket engine.
    EngineRemoved(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::NotAFlag(token) => write!(f, "expected --flag, got {:?}", token),
            ArgError::MissingValue(flag) => write!(f, "--{} needs a value", flag),
            ArgError::UnknownFlag { flag, valid } => {
                write!(
                    f,
                    "unknown flag --{} (valid: --{})",
                    flag,
                    valid.join(" --")
                )
            }
            ArgError::EngineRemoved(value) => write!(
                f,
                "--transport {:?}: thread-per-peer engine removed; every mesh runs on \"reactor\"",
                value
            ),
        }
    }
}

#[derive(Debug)]
struct Args(BTreeMap<String, String>);

impl Args {
    /// Parses `--flag value` pairs, accepting only [`TOPOLOGY_FLAGS`]
    /// and the mode's own `mode_flags`.
    fn parse(raw: &[String], mode_flags: &[&str]) -> Result<Self, ArgError> {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(token) = it.next() {
            let key = token
                .strip_prefix("--")
                .ok_or_else(|| ArgError::NotAFlag(token.clone()))?;
            if !TOPOLOGY_FLAGS.contains(&key) && !mode_flags.contains(&key) {
                return Err(ArgError::UnknownFlag {
                    flag: key.to_string(),
                    valid: TOPOLOGY_FLAGS
                        .iter()
                        .chain(mode_flags)
                        .map(|f| f.to_string())
                        .collect(),
                });
            }
            let value = it
                .next()
                .ok_or_else(|| ArgError::MissingValue(key.to_string()))?;
            map.insert(key.to_string(), value.clone());
        }
        // Kept as a validated word: deployed command lines pass
        // `--transport reactor`, and `tcp` must fail loudly rather than
        // silently run an engine the caller did not ask for.
        match map.get("transport").map(String::as_str) {
            None | Some("reactor") => Ok(Args(map)),
            Some(other) => Err(ArgError::EngineRemoved(other.to_string())),
        }
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.0
            .get(key)
            .ok_or_else(|| format!("missing --{}", key))?
            .parse()
            .map_err(|_| format!("bad value for --{}", key))
    }

    fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{}", key)),
        }
    }
}

/// Rejects a mesh rooted at `base` whose highest node port,
/// `base + nodes`, is past 65535.
fn check_base(flag: &str, base: u16, nodes: usize) -> Result<(), String> {
    let top = usize::from(base) + nodes;
    if top > usize::from(u16::MAX) {
        return Err(format!(
            "--{} {}: {} nodes need ports up to {}, past 65535",
            flag, base, nodes, top
        ));
    }
    Ok(())
}

fn topology(args: &Args) -> Result<Topology, String> {
    let t: usize = args.get("t")?;
    let n: usize = args.get("n")?;
    let params = ThresholdParams::new(t, n).map_err(|e| format!("bad (t, n): {:?}", e))?;
    let top = Topology {
        params,
        seed: args.get_or("seed", 7)?,
        domain: args
            .get_or("domain", "borndist-service".to_string())?
            .into_bytes(),
        dkg_base: args.get_or("dkg-base", 0)?,
        sign_base: args.get_or("sign-base", 0)?,
        max_in_flight: args.get_or("max-in-flight", 8)?,
    };
    if top.max_in_flight == 0 {
        return Err("--max-in-flight 0: at least one signing session must be open".into());
    }
    check_base("dkg-base", top.dkg_base, n)?;
    check_base("sign-base", top.sign_base, n + 1)?;
    Ok(top)
}

/// The player's `--id`, one of `1..=n`.
fn player_id(args: &Args, n: usize) -> Result<PlayerId, String> {
    let id: PlayerId = args.get("id")?;
    if id == 0 || id as usize > n {
        return Err(format!("--id {}: players are numbered 1..={}", id, n));
    }
    Ok(id)
}

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = raw.split_first() else {
        return Err("usage: borndist-service <player|frontend|smoke> --flags ...".into());
    };
    let parse = |mode_flags: &[&str]| Args::parse(rest, mode_flags).map_err(|e| e.to_string());

    match mode.as_str() {
        "player" => {
            let args = parse(&["id"])?;
            let top = topology(&args)?;
            let id = player_id(&args, top.params.n)?;
            let sent = run_player(&top, id).map_err(|e| e.to_string())?;
            println!(
                "player {} done: {} messages sent on the signing mesh",
                id, sent
            );
            Ok(())
        }
        "frontend" => {
            let args = parse(&["client-port"])?;
            let top = topology(&args)?;
            let port: u16 = args.get_or("client-port", 0)?;
            let listener =
                TcpListener::bind(("127.0.0.1", port)).map_err(|e| format!("bind: {}", e))?;
            run_frontend(&top, listener).map_err(|e| e.to_string())
        }
        "smoke" => {
            let args = parse(&["requests"])?;
            let mut top = topology(&args)?;
            let requests: u64 = args.get_or("requests", 100)?;
            if top.dkg_base == 0 || top.sign_base == 0 {
                // One contiguous block: n DKG ports, then n+1 signing
                // ports (ids are 1-based offsets within each base).
                let n = top.params.n;
                let span = u16::try_from(2 * n + 3)
                    .map_err(|_| format!("--n {}: smoke's 2n+3 ports exceed 65535", n))?;
                let base = free_port_block(span).map_err(|e| e.to_string())?;
                top.dkg_base = base;
                top.sign_base = base + n as u16 + 1;
            }
            run_smoke(&top, requests).map_err(|e| e.to_string())
        }
        other => Err(format!("unknown mode {:?}", other)),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("borndist-service: {}", e);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str, mode_flags: &[&str]) -> Result<Args, ArgError> {
        let raw: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&raw, mode_flags)
    }

    #[test]
    fn unknown_flag_is_rejected_naming_the_valid_ones() {
        // The typo that used to run at the default bound of 8.
        let err = parse("--n 4 --t 1 --max-inflight 64", &["requests"]).unwrap_err();
        let ArgError::UnknownFlag { flag, valid } = &err else {
            panic!("unexpected error: {}", err);
        };
        assert_eq!(flag, "max-inflight");
        assert!(valid.iter().any(|f| f == "max-in-flight"));
        assert!(valid.iter().any(|f| f == "requests"));
        assert!(err.to_string().contains("--max-in-flight"));
        // A flag another mode reads is still unknown to this one.
        assert!(matches!(
            parse("--n 4 --t 1 --id 2", &["requests"]),
            Err(ArgError::UnknownFlag { .. })
        ));
    }

    #[test]
    fn transport_reactor_is_accepted_and_selects_nothing() {
        let with = parse("--n 4 --t 1 --transport reactor", &[]).expect("reactor parses");
        let without = parse("--n 4 --t 1", &[]).expect("flag is optional");
        let (a, b) = (topology(&with).unwrap(), topology(&without).unwrap());
        assert_eq!(format!("{:?}", a), format!("{:?}", b));
    }

    #[test]
    fn transport_tcp_fails_instead_of_starting() {
        for removed in ["tcp", "threaded", "epoll"] {
            let err = parse(&format!("--n 4 --t 1 --transport {}", removed), &[]).unwrap_err();
            assert_eq!(err, ArgError::EngineRemoved(removed.to_string()));
            assert!(err.to_string().contains("thread-per-peer engine removed"));
        }
    }

    #[test]
    fn player_id_outside_the_committee_is_rejected() {
        for line in ["--n 4 --t 1 --id 0", "--n 4 --t 1 --id 5"] {
            let err = player_id(&parse(line, &["id"]).unwrap(), 4).unwrap_err();
            assert!(err.starts_with("--id "), "{}", err);
        }
        let args = parse("--n 4 --t 1 --id 4", &["id"]).unwrap();
        assert_eq!(player_id(&args, 4), Ok(4));
    }

    #[test]
    fn max_in_flight_zero_is_rejected() {
        let args = parse("--n 4 --t 1 --max-in-flight 0", &[]).unwrap();
        let err = topology(&args).unwrap_err();
        assert!(err.starts_with("--max-in-flight "), "{}", err);
        let args = parse("--n 4 --t 1 --max-in-flight 1", &[]).unwrap();
        assert_eq!(topology(&args).unwrap().max_in_flight, 1);
    }

    #[test]
    fn mesh_ports_past_65535_are_rejected() {
        // DKG nodes sit at base+1..=base+n, signing nodes at
        // base+1..=base+n+1 (the front-end is n+1).
        for (line, flag) in [
            ("--n 4 --t 1 --dkg-base 65532", "--dkg-base "),
            ("--n 4 --t 1 --sign-base 65531", "--sign-base "),
        ] {
            let err = topology(&parse(line, &[]).unwrap()).unwrap_err();
            assert!(err.starts_with(flag), "{}", err);
        }
        let fits = parse("--n 4 --t 1 --dkg-base 65531 --sign-base 65530", &[]).unwrap();
        assert!(topology(&fits).is_ok());
    }
}
