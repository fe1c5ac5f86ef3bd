//! Host wall-clock self-profiling of the *simulator itself*.
//!
//! Orthogonal to sim-time tracing: [`phase`] measures how long the
//! simulator's own phases (workload setup, the simulate loop, report
//! building) take in real time, and records them as [`Category::Host`]
//! spans on host tracks (Chrome pid 2). Because wall-clock durations vary
//! run to run, these spans are only recorded when
//! [`TraceConfig::self_profile`] is set — the default keeps traces
//! byte-reproducible.
//!
//! Every host span is stamped against one process-wide origin
//! ([`now_ns`]), so spans recorded by different sessions, threads and
//! merges line up on a common wall-clock axis.
//!
//! [`Category::Host`]: crate::Category::Host
//! [`TraceConfig::self_profile`]: crate::TraceConfig::self_profile

use crate::event::Category;
use crate::recorder::TraceBuilder;
use crate::session;
use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide host-time origin, fixed at its first use.
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Host wall-clock nanoseconds since the process-wide origin: the time
/// axis of every host span.
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Records the wall-clock cost of one sink drain as a `host` span on the
/// `host.trace_export` track, so streaming overhead is itself measured.
/// Called by the recorder after a successful chunk write, only when
/// [`TraceConfig::self_profile`](crate::TraceConfig::self_profile) is set
/// (the span's wall-clock duration varies run to run, so the default
/// keeps streamed output byte-reproducible).
pub(crate) fn export_overhead_span(b: &mut TraceBuilder, start: u64, chunk_events: usize) {
    if b.len() >= b.config().capacity {
        // Never let measuring a drain force another drain (or a drop).
        return;
    }
    let dur = now_ns().saturating_sub(start);
    let track = b.host_track("host.trace_export");
    b.span_with(
        track,
        Category::Host,
        "export_chunk",
        start,
        dur,
        Some(("events", chunk_events as f64)),
    );
}

/// Runs `f`, recording its wall-clock duration as a `host` span named
/// `name` on track `host.<name>` of the active thread-local session, when
/// that session opted into self-profiling. Otherwise `f` runs unmeasured;
/// the result is returned either way.
pub fn phase<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !session::with(|b| b.config().self_profile).unwrap_or(false) {
        return f();
    }
    let start = now_ns();
    let result = f();
    let end = now_ns();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceConfig;

    #[test]
    fn records_nothing_without_opt_in() {
        session::start(TraceConfig::default(), None); // self_profile = false
        let v = phase("setup", || 7);
        assert_eq!(v, 7);
        let trace = session::finish().unwrap();
        assert_eq!(trace.category_count(Category::Host), 0);
    }

    #[test]
    fn records_host_spans_when_opted_in() {
        session::start(TraceConfig::default().with_self_profile(), None);
        phase("simulate", || std::hint::black_box(1 + 1));
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
        assert_eq!(phase("x", || 42), 42);
    }
}
