//! Adversary scenario matrix — the CI driver for `borndist::sim`.
//!
//! Runs one named scenario (or all of them) and fails the process if any
//! success criterion fails, so each scenario can be its own named CI
//! step:
//!
//! ```text
//! cargo run --release --example adversary_matrix -- equivocation
//! cargo run --release --example adversary_matrix -- adaptive-corruption
//! cargo run --release --example adversary_matrix -- complaint-flood
//! cargo run --release --example adversary_matrix -- churn
//! cargo run --release --example adversary_matrix -- forged-partials
//! cargo run --release --example adversary_matrix            # all
//! ```

use borndist::sim::{run_scenario, SCENARIOS};

const SEED: u64 = 0xad5e_25a7;

fn main() {
    let arg = std::env::args().nth(1);
    let selected: Vec<&str> = match arg.as_deref() {
        None | Some("all") => SCENARIOS.to_vec(),
        Some(name) => vec![SCENARIOS
            .iter()
            .copied()
            .find(|s| *s == name)
            .unwrap_or_else(|| {
                eprintln!("unknown scenario {:?}; known: {:?}", name, SCENARIOS);
                std::process::exit(2);
            })],
    };
    let mut failures = 0usize;
    for name in selected {
        let report = run_scenario(name, SEED).expect("scenario must run");
        print!("{}", report);
        if !report.all_pass() {
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("{} scenario(s) failed", failures);
        std::process::exit(1);
    }
    println!("adversary matrix: all criteria passed");
}
