//! Seeded open-loop arrival schedules.
//!
//! Arrivals are a Poisson process *conditioned on its count*: `count`
//! independent uniform offsets in the window, sorted. That keeps the
//! memoryless gaps (periodic arrivals resonate with the signing mesh's
//! round cadence and quantise latency to the inter-arrival gap) while
//! fixing both the sample count and the window, so the reported
//! percentile and the run length do not depend on the seed.

use rand::RngCore;
use std::collections::BTreeSet;
use std::time::Duration;

/// The two request verbs the daemon serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Verb {
    Sign,
    Verify,
}

/// One scheduled request: when it is due (offset from the phase start)
/// and which verb it carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    pub at: Duration,
    pub verb: Verb,
}

/// Uniform sample in `[0, 1)` from 53 random bits.
fn unit(rng: &mut dyn RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// `count` Poisson arrival offsets in `[0, window)`, ascending.
fn poisson_offsets(count: usize, window: Duration, rng: &mut dyn RngCore) -> Vec<Duration> {
    let mut offsets: Vec<Duration> = (0..count).map(|_| window.mul_f64(unit(rng))).collect();
    offsets.sort_unstable();
    offsets
}

/// An open-loop schedule offering `sign_rate` Sign/s and `verify_rate`
/// Verify/s as two independent Poisson streams over `window`, merged by
/// due time.
pub fn open_loop(
    sign_rate: f64,
    verify_rate: f64,
    window: Duration,
    rng: &mut dyn RngCore,
) -> Vec<Arrival> {
    let count = |rate: f64| (rate * window.as_secs_f64()).round() as usize;
    let stream =
        |verb, offsets: Vec<Duration>| offsets.into_iter().map(move |at| Arrival { at, verb });
    let signs = poisson_offsets(count(sign_rate), window, rng);
    let verifies = poisson_offsets(count(verify_rate), window, rng);
    let mut all: Vec<Arrival> = stream(Verb::Sign, signs)
        .chain(stream(Verb::Verify, verifies))
        .collect();
    all.sort_by_key(|a| a.at);
    all
}

/// Exactly `round(count · share)` distinct positions in `0..count`,
/// drawn from `rng`: which verify requests carry a signature over a
/// different message.
pub fn forged_positions(count: usize, share: f64, rng: &mut dyn RngCore) -> BTreeSet<usize> {
    let want = ((count as f64 * share).round() as usize).min(count);
    let mut chosen = BTreeSet::new();
    while chosen.len() < want {
        chosen.insert((unit(rng) * count as f64) as usize % count);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let make = |seed| {
            open_loop(
                10.0,
                80.0,
                Duration::from_secs(6),
                &mut StdRng::seed_from_u64(seed),
            )
        };
        assert_eq!(make(7), make(7));
        assert_ne!(make(7), make(8));
    }

    #[test]
    fn schedule_has_the_offered_counts_inside_the_window_in_order() {
        let window = Duration::from_secs(6);
        let s = open_loop(10.0, 80.0, window, &mut StdRng::seed_from_u64(3));
        assert_eq!(s.iter().filter(|a| a.verb == Verb::Sign).count(), 60);
        assert_eq!(s.iter().filter(|a| a.verb == Verb::Verify).count(), 480);
        assert!(s.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(s.iter().all(|a| a.at < window));
    }

    #[test]
    fn forged_positions_are_seeded_distinct_and_counted() {
        let a = forged_positions(480, 0.02, &mut StdRng::seed_from_u64(5));
        let b = forged_positions(480, 0.02, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|p| *p < 480));
        assert!(forged_positions(100, 0.0, &mut StdRng::seed_from_u64(5)).is_empty());
    }
}
