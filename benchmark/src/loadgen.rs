//! Open- and closed-loop load against a [`Deployment`], and the
//! off-the-clock correctness check of everything it answered.

use crate::daemon::{Deployment, Reply, REQUEST_TIMEOUT};
use crate::inputs::Request;
use crate::schedule::{Arrival, Verb};
use crate::trace::Tracer;
use borndist::core::ro::{PublicKey, Signature, ThresholdScheme};
use borndist_service::ClientResponse;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Completions during the first part of a closed-loop window are not
/// counted: the pipeline is still filling.
const CLOSED_LOOP_RAMP: Duration = Duration::from_millis(500);

/// One issued request and what came back.
pub struct Sample {
    pub id: u64,
    pub verb: Verb,
    /// When the request was due (open loop) or issued (closed loop).
    pub due: Instant,
    /// When the writer started writing it.
    pub sent: Instant,
    /// When the write returned.
    pub written: Instant,
    /// Reader-thread stamps; `None` means no reply within the timeout.
    pub arrived: Option<Instant>,
    pub decoded: Option<Instant>,
    pub signature: Option<Signature>,
    pub verdict: Option<bool>,
}

impl Sample {
    /// Latency from the due instant, in milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.arrived
            .map(|a| a.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }
}

/// Issues requests over the deployment's one connection and matches
/// replies to them.
struct Load<'a> {
    deployment: &'a mut Deployment,
    samples: Vec<Sample>,
    pending: HashMap<u64, usize>,
}

impl<'a> Load<'a> {
    fn new(deployment: &'a mut Deployment) -> Self {
        Load {
            deployment,
            samples: Vec::new(),
            pending: HashMap::new(),
        }
    }

    fn issue(&mut self, request: &Request, due: Instant) -> Result<(), String> {
        let sent = Instant::now();
        self.deployment
            .send(&request.frame)
            .map_err(|e| format!("write request {}: {}", request.id, e))?;
        self.pending.insert(request.id, self.samples.len());
        self.samples.push(Sample {
            id: request.id,
            verb: request.verb,
            due,
            sent,
            written: Instant::now(),
            arrived: None,
            decoded: None,
            signature: None,
            verdict: None,
        });
        Ok(())
    }

    /// Files one reply; returns the verb it answered, if it answered a
    /// pending request.
    fn absorb(&mut self, reply: Reply) -> Option<Verb> {
        let (id, signature, verdict) = match reply.response {
            ClientResponse::Signed { id, sig } => (id, Some(sig), None),
            ClientResponse::Verified { id, valid, .. } => (id, None, Some(valid)),
            ClientResponse::Summary { .. } => return None,
        };
        let sample = &mut self.samples[self.pending.remove(&id)?];
        sample.arrived = Some(reply.arrived);
        sample.decoded = Some(reply.decoded);
        sample.signature = signature;
        sample.verdict = verdict;
        Some(sample.verb)
    }

    /// Absorbs replies until `deadline`.
    fn absorb_until(&mut self, deadline: Instant) {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            if let Some(reply) = self.deployment.recv(left) {
                self.absorb(reply);
            }
        }
    }

    /// Waits for every pending reply, giving up on those older than the
    /// request timeout. Returns how long the drain took.
    fn drain(&mut self) -> Duration {
        let start = Instant::now();
        let Some(last_sent) = self.samples.last().map(|s| s.sent) else {
            return Duration::ZERO;
        };
        let deadline = last_sent + REQUEST_TIMEOUT;
        while !self.pending.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            if let Some(reply) = self.deployment.recv(left) {
                self.absorb(reply);
            }
        }
        self.pending.clear();
        start.elapsed()
    }
}

/// What one open-loop phase observed.
pub struct OpenPhase {
    pub samples: Vec<Sample>,
    /// Lateness of the generator (write start − due instant): the
    /// worst request and the 95th percentile.
    pub late_max: Duration,
    pub late_p95: Duration,
    /// Time from the last send to the last reply.
    pub drain: Duration,
}

/// Offers `requests[i]` at `start + arrivals[i].at` regardless of how
/// fast replies come back.
pub fn open_loop(
    deployment: &mut Deployment,
    requests: &[&Request],
    arrivals: &[Arrival],
) -> Result<OpenPhase, String> {
    assert_eq!(requests.len(), arrivals.len());
    let mut load = Load::new(deployment);
    let start = Instant::now();
    for (request, arrival) in requests.iter().zip(arrivals) {
        debug_assert_eq!(request.verb, arrival.verb);
        let due = start + arrival.at;
        load.absorb_until(due);
        load.issue(request, due)?;
    }
    let drain = load.drain();
    let mut late: Vec<Duration> = load
        .samples
        .iter()
        .map(|s| s.sent.saturating_duration_since(s.due))
        .collect();
    late.sort_unstable();
    Ok(OpenPhase {
        late_max: late.last().copied().unwrap_or_default(),
        late_p95: late
            .get((late.len() * 95).div_ceil(100).saturating_sub(1))
            .copied()
            .unwrap_or_default(),
        samples: load.samples,
        drain,
    })
}

/// What one closed-loop phase observed.
pub struct ClosedPhase {
    pub samples: Vec<Sample>,
    /// Completions per second inside the counted window, all verbs;
    /// `None` when the phase ended before its ramp did.
    pub ops_per_sec: Option<f64>,
    /// Completions inside the counted window.
    pub counted: usize,
}

/// Keeps `outstanding` requests in flight for `window`: every reply
/// releases the next request of `pool`, whatever its verb, so
/// completions follow the pool's mix. Ends early if the pool runs dry
/// (no request is ever sent twice).
pub fn closed_loop(
    deployment: &mut Deployment,
    pool: &[&Request],
    outstanding: usize,
    window: Duration,
) -> Result<ClosedPhase, String> {
    let mut load = Load::new(deployment);
    let mut pool = pool.iter();
    let start = Instant::now();
    let end = start + window;
    for request in pool.by_ref().take(outstanding) {
        load.issue(request, Instant::now())?;
    }
    loop {
        let left = end.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        let Some(reply) = load.deployment.recv(left) else {
            break;
        };
        if load.absorb(reply).is_none() {
            continue;
        }
        match pool.next() {
            Some(request) => load.issue(request, Instant::now())?,
            None => break,
        }
    }
    // The window as it was, not as it was planned: it ends when the
    // loop stopped issuing.
    let counted_end = Instant::now();
    load.drain();
    let counted_start = start + CLOSED_LOOP_RAMP;
    let counted = load
        .samples
        .iter()
        .filter_map(|s| s.arrived)
        .filter(|a| *a >= counted_start && *a <= counted_end)
        .count();
    let span = counted_end.saturating_duration_since(counted_start);
    Ok(ClosedPhase {
        ops_per_sec: (!span.is_zero()).then(|| counted as f64 / span.as_secs_f64()),
        counted,
        samples: load.samples,
    })
}

/// Counts the samples that are *not* correct: no reply within the
/// timeout, a signature that does not verify under `public_key`, or a
/// verdict that differs from ground truth. Runs after the timed
/// windows.
pub fn count_failed(
    samples: &[Sample],
    requests: &HashMap<u64, &Request>,
    scheme: &ThresholdScheme,
    public_key: &PublicKey,
) -> usize {
    let mut failed = 0;
    let mut signed: Vec<(&[u8], &Signature)> = Vec::new();
    for sample in samples {
        let request = requests[&sample.id];
        match (sample.verb, &sample.signature, sample.verdict) {
            (Verb::Sign, Some(sig), _) => signed.push((&request.msg, sig)),
            (Verb::Verify, _, Some(valid)) if valid == request.expect_valid => {}
            _ => failed += 1,
        }
    }
    // One folded product accepts the all-valid case; only a rejection
    // pays for locating the offenders.
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    if !scheme.batch_verify(public_key, &signed, &mut rng) {
        failed += signed
            .iter()
            .filter(|(msg, sig)| !scheme.verify(public_key, msg, sig))
            .count();
    }
    failed
}

/// Records the client-side spans of every answered sample: the request
/// from its due instant to the decoded reply, and beneath it the
/// generator's queueing, the socket write, the wait for the daemon and
/// the reply decode.
pub fn record_spans(tracer: &mut Tracer, samples: &[Sample]) {
    for s in samples {
        let (Some(arrived), Some(decoded)) = (s.arrived, s.decoded) else {
            continue;
        };
        let name = match s.verb {
            Verb::Sign => "service.sign_request",
            Verb::Verify => "service.verify_request",
        };
        let root = tracer.record(name, s.due, decoded, None, s.id);
        tracer.record("bench.generator_queue", s.due, s.sent, Some(root), s.id);
        tracer.record("service.client_write", s.sent, s.written, Some(root), s.id);
        tracer.record("service.daemon_wait", s.written, arrived, Some(root), s.id);
        tracer.record("service.client_decode", arrived, decoded, Some(root), s.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::DOMAIN;
    use crate::inputs::sign_requests;
    use borndist::shamir::ThresholdParams;

    fn sample(request: &Request, signature: Option<Signature>, verdict: Option<bool>) -> Sample {
        let now = Instant::now();
        Sample {
            id: request.id,
            verb: request.verb,
            due: now,
            sent: now,
            written: now,
            arrived: (signature.is_some() || verdict.is_some()).then_some(now),
            decoded: None,
            signature,
            verdict,
        }
    }

    #[test]
    fn timeouts_bad_signatures_and_wrong_verdicts_count_as_failed() {
        let scheme = ThresholdScheme::new(DOMAIN.as_bytes());
        let mut rng = StdRng::seed_from_u64(1);
        let km = scheme.dealer_keygen(ThresholdParams::new(1, 4).unwrap(), &mut rng);
        let sign = |msg: &[u8]| {
            let partials: Vec<_> = (1..=2u32)
                .map(|i| scheme.share_sign(&km.shares[&i], msg))
                .collect();
            scheme.combine(&km.params, &partials).unwrap()
        };
        let signs = sign_requests(1, 3);
        let verify = |id, expect_valid| Request {
            id,
            verb: Verb::Verify,
            frame: Vec::new(),
            msg: Vec::new(),
            expect_valid,
            verify: None,
        };
        let verifies = [verify(10, true), verify(11, false), verify(12, true)];
        let requests: HashMap<u64, &Request> =
            signs.iter().chain(&verifies).map(|r| (r.id, r)).collect();

        let samples = vec![
            sample(&signs[0], Some(sign(&signs[0].msg)), None), // good
            sample(&signs[1], Some(sign(b"another message")), None), // bad signature
            sample(&signs[2], None, None),                      // timed out
            sample(&verifies[0], None, Some(true)),             // good
            sample(&verifies[1], None, Some(true)),             // forged but accepted
            sample(&verifies[2], None, None),                   // timed out
        ];
        assert_eq!(
            count_failed(&samples, &requests, &scheme, &km.public_key),
            4
        );
        assert_eq!(
            count_failed(&samples[..1], &requests, &scheme, &km.public_key),
            0
        );
    }
}
