//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON when the run ends.
//!
//! Spans of one request (or one DKG session) share a `request` id and
//! name their cause through `parent`. A span's *self time* is its
//! duration minus the part of it covered by its children.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer's
/// epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the tracer, if any.
    pub parent: Option<usize>,
    /// Request (or session) id shared by every span of one operation.
    pub request: u64,
}

/// Collects spans for one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records `[start, end]` and returns the span's index, for use as
    /// the `parent` of the spans it caused.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Writes every span, with its self time, as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"parent\": {}, \"request\": {}}}{}",
                i, s.name, s.start_ns, s.end_ns, own, parent, s.request, comma
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span, so overlapping or
/// overhanging children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (start, end) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids.iter() {
                let from = (*start).max(reach);
                if *end > from {
                    covered += end - from;
                    reach = *end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child, 20 covered
            span(20, 50, Some(0)),  // overlaps the first: adds 30..50 only
            span(90, 140, Some(0)), // overhangs the parent: clipped to 90..100
            span(12, 18, Some(1)),  // grandchild: charged to span 1, not the root
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 50, 6]);
    }

    #[test]
    fn childless_span_keeps_its_whole_duration() {
        assert_eq!(self_times(&[span(5, 25, None)]), vec![20]);
    }
}
