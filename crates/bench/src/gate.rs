//! The one measuring convention of the release-gate examples
//! (`examples/{pairing,batch,scalar_mul}_throughput.rs`,
//! `dkg_scaling.rs`, `reactor_mesh.rs`).
//!
//! A gate states a *ratio* the repo benchmark (`BENCHMARK.json` +
//! `benchmark/`, which owns every absolute number) cannot: two timings
//! taken in the same run on the same host, divided, and held against a
//! floor. An example builds its fixtures, times them with
//! [`Record::median_ms`] / [`once_ms`], adds one [`Row`] per result and
//! calls [`Record::finish`], which prints a table, then the JSON record
//! `tools/record_gates.sh` commits as `BENCH_<bench>.json`, and panics
//! naming every enforced row whose ratio is below its floor.

use std::time::Instant;

/// Median of `samples` (the mean of the two middle ones when the count
/// is even) and their relative spread `(max − min) / median`, the run's
/// own wall-clock stability signal. Sorts in place.
fn median_and_spread(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let (mid, last) = (samples.len() / 2, samples.len() - 1);
    let median = if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    };
    (median, (samples[last] - samples[0]) / median)
}

/// One run of `f`: its result and its wall-clock milliseconds (for the
/// minute-scale legs where repetitions would be prohibitive).
pub fn once_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// One result of a gate run. `ratio` is `baseline_ms / measured_ms`
/// unless the example states another same-run quotient through
/// [`Row::ratio`] (a thread ceiling over a high-water mark); a row with
/// no `floor` is report-only.
#[derive(Debug)]
pub struct Row {
    name: &'static str,
    /// Problem size: operations per timed sample, committee size, …
    n: usize,
    baseline_ms: Option<f64>,
    measured_ms: f64,
    ratio: Option<f64>,
    floor: Option<f64>,
    /// Whether [`Record::finish`] holds `ratio` against `floor`.
    enforced: bool,
}

impl Row {
    /// Sets the baseline timing and `ratio = baseline_ms / measured_ms`.
    pub fn baseline(&mut self, baseline_ms: f64) -> &mut Row {
        self.baseline_ms = Some(baseline_ms);
        self.ratio(baseline_ms / self.measured_ms)
    }

    /// States the row's ratio directly.
    pub fn ratio(&mut self, ratio: f64) -> &mut Row {
        self.ratio = Some(ratio);
        self
    }

    /// Holds the ratio against `floor`; `enforced = false` records the
    /// floor without asserting it (a run too noisy to judge).
    pub fn floor(&mut self, floor: f64, enforced: bool) {
        self.floor = Some(floor);
        self.enforced = enforced;
    }
}

/// The rows of one gate run plus the worst relative spread of its
/// repeated timings.
#[derive(Debug)]
pub struct Record {
    bench: &'static str,
    spread: f64,
    rows: Vec<Row>,
}

fn json_num(v: Option<f64>) -> String {
    v.map_or("null".into(), |v| format!("{:.3}", v))
}

impl Record {
    /// An empty record; `bench` names the committed file
    /// (`BENCH_<bench>.json`).
    pub fn new(bench: &'static str) -> Record {
        Record {
            bench,
            spread: 0.0,
            rows: Vec::new(),
        }
    }

    /// Median wall-clock milliseconds of `reps` runs of `f`; the
    /// samples' relative spread is folded into [`Record::spread`].
    pub fn median_ms(&mut self, reps: usize, mut f: impl FnMut()) -> f64 {
        let mut samples: Vec<f64> = (0..reps).map(|_| once_ms(&mut f).1).collect();
        let (median, spread) = median_and_spread(&mut samples);
        self.spread = self.spread.max(spread);
        median
    }

    /// Worst relative spread over every [`Record::median_ms`] so far.
    pub fn spread(&self) -> f64 {
        self.spread
    }

    /// Appends a report-only row; chain [`Row::baseline`] /
    /// [`Row::ratio`] and [`Row::floor`] to make it a gate.
    pub fn row(&mut self, name: &'static str, n: usize, measured_ms: f64) -> &mut Row {
        self.rows.push(Row {
            name,
            n,
            baseline_ms: None,
            measured_ms,
            ratio: None,
            floor: None,
            enforced: false,
        });
        self.rows.last_mut().expect("just pushed")
    }

    /// The machine-readable record, one row per line.
    fn json(&self) -> String {
        let host = std::thread::available_parallelism().map_or(1, usize::from);
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"name\": \"{}\", \"n\": {}, \"baseline_ms\": {}, \"measured_ms\": {:.3}, \
                     \"ratio\": {}, \"floor\": {}, \"enforced\": {}}}",
                    r.name,
                    r.n,
                    json_num(r.baseline_ms),
                    r.measured_ms,
                    json_num(r.ratio),
                    json_num(r.floor),
                    r.enforced
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"{}\",\n  \"unit\": \"ms\",\n  \"host_parallelism\": {},\n  \
             \"spread\": {:.3},\n  \"rows\": [\n{}\n  ]\n}}",
            self.bench,
            host,
            self.spread,
            rows.join(",\n")
        )
    }

    /// Prints the table, then the JSON record (last, so
    /// `tools/record_gates.sh` can cut it out of the output).
    ///
    /// # Panics
    ///
    /// Naming every enforced row whose ratio is below its floor.
    pub fn finish(self) {
        println!("== {} (worst spread {:.2}) ==", self.bench, self.spread);
        println!(
            "   {:<30} {:>5} {:>12} {:>12} {:>10}  floor",
            "row", "n", "baseline ms", "measured ms", "ratio"
        );
        for r in &self.rows {
            let floor = match r.floor {
                Some(f) if r.enforced => format!(">= {:.2}x", f),
                Some(f) => format!(">= {:.2}x (recorded, not enforced)", f),
                None => String::new(),
            };
            println!(
                "   {:<30} {:>5} {:>12} {:>12.3} {:>10}  {}",
                r.name,
                r.n,
                r.baseline_ms.map_or("-".into(), |v| format!("{:.3}", v)),
                r.measured_ms,
                r.ratio.map_or("-".into(), |v| format!("{:.2}x", v)),
                floor
            );
        }
        println!("\n{}", self.json());
        let missed: Vec<String> = self
            .rows
            .iter()
            .filter_map(|r| match (r.ratio, r.floor) {
                (Some(ratio), Some(floor)) if r.enforced && ratio < floor => {
                    Some(format!("{} {:.2}x < {:.2}x", r.name, ratio, floor))
                }
                _ => None,
            })
            .collect();
        assert!(
            missed.is_empty(),
            "acceptance: {} below floor: {}",
            self.bench,
            missed.join("; ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median_and_spread(&mut [3.0, 1.0, 2.0]).0, 2.0);
        assert_eq!(median_and_spread(&mut [4.0, 1.0, 3.0, 2.0]).0, 2.5);
        assert_eq!(median_and_spread(&mut [7.0]), (7.0, 0.0));
    }

    #[test]
    fn spread_of_constant_and_known_sample() {
        assert_eq!(median_and_spread(&mut [5.0, 5.0, 5.0]).1, 0.0);
        // median 10, range 12 − 9.
        assert_eq!(median_and_spread(&mut [12.0, 9.0, 10.0]), (10.0, 0.3));
        // median (9 + 11) / 2, range 13 − 8.
        assert_eq!(median_and_spread(&mut [13.0, 9.0, 8.0, 11.0]), (10.0, 0.5));
    }

    #[test]
    fn median_ms_runs_every_rep_and_once_ms_returns_the_value() {
        let mut record = Record::new("t");
        assert_eq!(record.spread(), 0.0);
        let mut runs = 0;
        let ms = record.median_ms(4, || runs += 1);
        assert_eq!(runs, 4);
        assert!(ms >= 0.0 && record.spread() >= 0.0);
        let (out, once) = once_ms(|| 7);
        assert!(out == 7 && once >= 0.0);
    }

    #[derive(Deserialize)]
    struct ParsedRow {
        name: String,
        n: usize,
        baseline_ms: Option<f64>,
        measured_ms: f64,
        ratio: Option<f64>,
        floor: Option<f64>,
        enforced: bool,
    }

    #[derive(Deserialize)]
    struct ParsedRecord {
        bench: String,
        unit: String,
        host_parallelism: usize,
        spread: f64,
        rows: Vec<ParsedRow>,
    }

    #[test]
    fn json_of_two_rows_parses_and_round_trips() {
        let mut record = Record::new("two_rows");
        record.row("gated", 64, 2.0).baseline(7.0).floor(3.0, true);
        record.row("report_only", 1, 0.125);
        let parsed: ParsedRecord = serde_json::from_str(&record.json()).expect("strict JSON");
        assert_eq!(parsed.bench, "two_rows");
        assert_eq!(parsed.unit, "ms");
        assert!(parsed.host_parallelism >= 1);
        assert_eq!(parsed.spread, 0.0);
        assert_eq!(parsed.rows.len(), 2);
        let (gated, report) = (&parsed.rows[0], &parsed.rows[1]);
        assert_eq!((gated.name.as_str(), gated.n), ("gated", 64));
        assert_eq!(gated.baseline_ms, Some(7.0));
        assert_eq!(gated.measured_ms, 2.0);
        assert_eq!(gated.ratio, Some(3.5));
        assert_eq!(gated.floor, Some(3.0));
        assert!(gated.enforced);
        assert_eq!((report.name.as_str(), report.n), ("report_only", 1));
        assert_eq!(report.measured_ms, 0.125);
        assert!(report.baseline_ms.is_none() && report.ratio.is_none());
        assert!(report.floor.is_none() && !report.enforced);
    }

    #[test]
    #[should_panic(expected = "slow_row 2.00x < 3.00x")]
    fn finish_panics_naming_the_row_below_its_floor() {
        let mut record = Record::new("missed");
        record
            .row("fine_row", 1, 1.0)
            .baseline(4.0)
            .floor(3.0, true);
        record
            .row("slow_row", 1, 1.0)
            .baseline(2.0)
            .floor(3.0, true);
        record.finish();
    }

    #[test]
    fn finish_passes_unenforced_and_floorless_rows() {
        let mut record = Record::new("lenient");
        record
            .row("noisy_run", 1, 1.0)
            .baseline(2.0)
            .floor(3.0, false);
        record.row("no_floor", 1, 1.0).baseline(0.5);
        record
            .row("stated_ratio", 64, 1.0)
            .ratio(1.0)
            .floor(1.0, true);
        record.finish();
    }
}
