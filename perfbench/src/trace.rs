//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a crate's public functions. The replay is single-threaded, so a
//! span's children never overlap and its self time is its duration
//! minus the sum of its children's durations.

use crate::measure::json_str;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `smv.parse` or `core.discharge`.
    pub name: &'static str,
    /// The job this span belongs to.
    pub job: u32,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans; written out only when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus children), ns.
    pub self_ns: u64,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record `f` as a root span of job `job`.
    pub fn job<T>(&mut self, job: u32, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.job = job;
        self.span("job", f)
    }

    /// Record `f` as a span named `name` under the current span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.ns());
            }
        }
        own
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(own) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Summed duration of spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .sum()
    }

    /// Summed duration of spans named `name`, in microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        self.total_ms(name) * 1e3
    }

    /// The spans as a JSON array of
    /// `[name, job, parent, start_ns, end_ns]` rows (`parent` is `-1`
    /// for roots).
    pub fn spans_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "[{},{},{},{},{}]",
                    json_str(s.name),
                    s.job,
                    s.parent.map_or(-1, |p| p as i64),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.job(7, |t| {
            t.span("a", |t| {
                t.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.job == 7));
        let own = t.self_ns();
        assert_eq!(own[1] + own[2] + own[0], spans[0].ns());
        assert!(own[2] >= 2_000_000);
    }
}
