//! Host wall-clock self-profiling of the *simulator itself*.
//!
//! Orthogonal to sim-time tracing: [`HostProfiler`] measures how long the
//! simulator's own phases (workload setup, the simulate loop, report
//! building) take in real time, and records them as [`Category::Host`]
//! spans on host tracks (Chrome pid 2). Because wall-clock durations vary
//! run to run, these spans are only recorded when
//! [`TraceConfig::self_profile`] is set — the default keeps traces
//! byte-reproducible.
//!
//! [`Category::Host`]: crate::Category::Host
//! [`TraceConfig::self_profile`]: crate::TraceConfig::self_profile

use crate::event::Category;
use crate::recorder::TraceBuilder;
use crate::session;
use std::time::Instant;

/// Records the wall-clock cost of one sink drain as a `host` span on the
/// `host.trace_export` track, so streaming overhead is itself measured.
/// Called by the recorder after a successful chunk write, only when
/// [`TraceConfig::self_profile`](crate::TraceConfig::self_profile) is set
/// (the span's wall-clock duration varies run to run, so the default
/// keeps streamed output byte-reproducible).
pub(crate) fn export_overhead_span(
    b: &mut TraceBuilder,
    origin: Instant,
    started: Instant,
    chunk_events: usize,
) {
    if b.len() >= b.config().capacity {
        // Never let measuring a drain force another drain (or a drop).
        return;
    }
    let ts = started.duration_since(origin).as_nanos() as u64;
    let dur = started.elapsed().as_nanos() as u64;
    let track = b.host_track("host.trace_export");
    b.span_with(
        track,
        Category::Host,
        "export_chunk",
        ts,
        dur,
        Some(("events", chunk_events as f64)),
    );
}

/// Measures host wall-clock phases and records them into the active
/// thread-local session (when it was configured with `self_profile`).
///
/// All spans share one origin (profiler creation), so they line up on a
/// common wall-clock axis.
#[derive(Debug)]
pub struct HostProfiler {
    origin: Instant,
}

impl HostProfiler {
    /// Creates a profiler; its creation time is wall-clock zero.
    pub fn new() -> Self {
        HostProfiler {
            origin: Instant::now(),
        }
    }

    /// Whether host spans would actually be recorded (a session is active
    /// and opted into self-profiling).
    pub fn active(&self) -> bool {
        session::with(|b| b.config().self_profile).unwrap_or(false)
    }

    /// Runs `f`, recording its wall-clock duration as a `host` span named
    /// `name` on track `host.<name>`. When self-profiling is off, `f`
    /// runs unmeasured — the result is returned either way.
    pub fn phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.active() {
            return f();
        }
        let start = self.origin.elapsed().as_nanos() as u64;
        let result = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        session::with(|b| {
            let track = b.host_track(&format!("host.{name}"));
            b.span_at(
                track,
                Category::Host,
                name,
                start,
                end.saturating_sub(start),
            );
        });
        result
    }
}

impl Default for HostProfiler {
    fn default() -> Self {
        HostProfiler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceConfig;

    #[test]
    fn records_nothing_without_opt_in() {
        session::start(TraceConfig::default(), None); // self_profile = false
        let p = HostProfiler::new();
        assert!(!p.active());
        let v = p.phase("setup", || 7);
        assert_eq!(v, 7);
        let trace = session::finish().unwrap();
        assert_eq!(trace.category_count(Category::Host), 0);
    }

    #[test]
    fn records_host_spans_when_opted_in() {
        session::start(TraceConfig::default().with_self_profile(), None);
        let p = HostProfiler::new();
        assert!(p.active());
        p.phase("simulate", || std::hint::black_box(1 + 1));
        let trace = session::finish().unwrap();
        assert_eq!(trace.category_count(Category::Host), 1);
        let track = trace.find_track("host.simulate").unwrap();
        assert!(trace.tracks()[track.0 as usize].host, "host-flagged track");
        // Host spans never leak into sim accounting.
        assert_eq!(trace.category_total(Category::Host), 0);
        assert_eq!(trace.horizon(), 0);
    }

    #[test]
    fn no_session_means_passthrough() {
        assert!(!session::enabled());
        let p = HostProfiler::new();
        assert_eq!(p.phase("x", || 42), 42);
    }
}
