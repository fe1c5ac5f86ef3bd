//! In-memory spans recorded by the traced pass.
//!
//! Spans are taken from the benchmark's own side of each layer boundary:
//! each wraps one call into a layer's public function. A span's name is
//! `<layer>.<call>` (`runtime.run_base`, `serve.schedule`, …); structural
//! spans (`pass`, `grid`, `cell`) belong to no layer, and `probe.*` spans
//! are extra calls made only to split a parent's time, so they are excluded
//! from the pass's duration and from every parent's self time.

use std::io::{self, Write};
use std::time::Instant;

/// Index of a span in its [`Spans`] recording.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, or a structural name.
    pub name: &'static str,
    /// What the call worked on (`fig7/large/gemm/uvm`, `slo_deadline@1600`).
    pub label: String,
    /// Start, nanoseconds since the recording began.
    pub start_ns: u64,
    /// End, nanoseconds since the recording began.
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// Operation id: spans of one grid or serve cell share it.
    pub op: u64,
    /// Work counts measured at this boundary (`l1`, `pages`, `requests`, …).
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Whether this is a probe span.
    pub fn is_probe(&self) -> bool {
        self.name.starts_with("probe.")
    }

    /// The layer a span's self time is charged to: the name's prefix before
    /// the first `.`, or `None` for structural spans.
    pub fn layer(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(layer, _)| layer)
    }

    /// One attribute, zero when absent.
    pub fn attr(&self, key: &str) -> f64 {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// A single-threaded span recording.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Spans {
    /// An empty recording whose clock starts now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a new span that is a child of the innermost open one
    /// and returns the span's id with `f`'s result.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        label: impl Into<String>,
        op: u64,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> (SpanId, T) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            label: label.into(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
            attrs: Vec::new(),
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now();
        let out = f(self);
        self.spans[id].end_ns = self.now();
        self.open.pop();
        (id, out)
    }

    /// Attaches a work count to a span.
    pub fn attr(&mut self, id: SpanId, key: &'static str, value: f64) {
        self.spans[id].attrs.push((key, value));
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self time: duration minus the time its children cover
    /// (children never overlap — the recording is single-threaded).
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur().saturating_sub(c))
            .collect()
    }

    /// Total duration of root spans named `root`, minus every probe span
    /// inside them: the time the traced work itself took.
    pub fn work_ns(&self, root: &str) -> u64 {
        let in_root = |mut i: SpanId| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            self.spans[i].name == root
        };
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(Span::dur)
            .sum();
        let probes: u64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                s.is_probe() && !s.parent.is_some_and(|p| self.spans[p].is_probe()) && in_root(*i)
            })
            .map(|(_, s)| s.dur())
            .sum();
        roots.saturating_sub(probes)
    }

    /// Writes one JSON object per span (`name`, `label`, `start_ns`,
    /// `end_ns`, `parent`, `op`, `attrs`).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_jsonl(&self, mut out: impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let attrs: Vec<String> = s
                .attrs
                .iter()
                .map(|(k, v)| format!("{}: {}", crate::json::string(k), crate::json::number(*v)))
                .collect();
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"label\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"op\": {}, \"attrs\": {{{}}}}}",
                crate::json::string(s.name),
                crate::json::string(&s.label),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                attrs.join(", "),
            )?;
        }
        out.flush()
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_work_excludes_probes() {
        let mut s = Spans::new();
        s.scope("pass", "", 0, |s| {
            s.scope("runtime.run_base", "a", 1, |s| {
                s.scope("probe.execute", "a", 1, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            s.scope("core.aggregate", "", 0, |_| {});
        });
        s.scope("probe.prewarm", "", 0, |_| {});
        let spans = s.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].layer(), Some("runtime"));
        assert_eq!(spans[0].layer(), None);
        let selfs = s.self_times();
        assert!(selfs[1] < spans[1].dur());
        let total = spans[0].dur();
        assert_eq!(s.work_ns("pass"), total - spans[2].dur());
    }
}
