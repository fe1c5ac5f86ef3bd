//! The thread-local trace session — how instrumented simulator code
//! records without threading a recorder through every call signature.
//!
//! Tracing is **off by default**. Instrumentation sites call
//! [`with`], which first reads a thread-local boolean; when no session is
//! active that read is the *entire* cost of the call site, so leaving the
//! instrumentation compiled-in is free in practice. The driver of a run
//! brackets it with [`start`] / [`finish`]:
//!
//! ```
//! use hetsim_trace::{session, Category, TraceConfig};
//!
//! assert!(!session::enabled());
//! session::start(TraceConfig::default(), None);
//! session::with(|b| {
//!     let t = b.track("gpu");
//!     b.phase_span(t, Category::Kernel, "saxpy", 1_000);
//! });
//! let trace = session::finish().expect("a session was active");
//! assert_eq!(trace.category_total(Category::Kernel), 1_000);
//! assert!(!session::enabled());
//! ```
//!
//! The session is per-thread: parallel experiments on different threads
//! record independently and never contend.

use crate::config::TraceConfig;
use crate::recorder::TraceBuilder;
use crate::sink::TraceSink;
use crate::trace::Trace;
use std::cell::{Cell, RefCell};

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static BUILDER: RefCell<Option<TraceBuilder>> = const { RefCell::new(None) };
}

/// Whether a session is active on this thread. This is the disabled-path
/// fast check: a single thread-local boolean read.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Starts a session with `config`, replacing (and discarding) any
/// session already active on this thread.
///
/// With a `sink`, completed events drain into it at every chunk boundary
/// instead of overwriting the ring's oldest events when it fills; the
/// trace [`finish`] returns then reports its event count via
/// [`Trace::streamed`](crate::Trace::streamed) and holds no events
/// itself.
pub fn start(config: TraceConfig, sink: Option<Box<dyn TraceSink>>) {
    let builder = TraceBuilder::new(config);
    let builder = match sink {
        Some(sink) => builder.with_sink(sink),
        None => builder,
    };
    BUILDER.with(|b| *b.borrow_mut() = Some(builder));
    ENABLED.with(|e| e.set(true));
}

/// Ends the active session and returns its trace, or `None` if no
/// session was active.
pub fn finish() -> Option<Trace> {
    ENABLED.with(|e| e.set(false));
    BUILDER
        .with(|b| b.borrow_mut().take())
        .map(TraceBuilder::finish)
}

/// Runs `f` against the active session's recorder. Returns `None`
/// without invoking `f` when tracing is disabled — the instrumentation
/// no-op path.
#[inline]
pub fn with<R>(f: impl FnOnce(&mut TraceBuilder) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    BUILDER.with(|b| b.borrow_mut().as_mut().map(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Category;

    #[test]
    fn disabled_by_default_and_with_is_noop() {
        assert!(!enabled());
        let mut ran = false;
        let r = with(|_| ran = true);
        assert!(r.is_none());
        assert!(!ran, "closure must not run when disabled");
        assert!(finish().is_none());
    }

    #[test]
    fn start_record_finish_roundtrip() {
        start(TraceConfig::default(), None);
        assert!(enabled());
        with(|b| {
            let t = b.track("x");
            b.span_at(t, Category::Alloc, "malloc", 0, 42);
        });
        let trace = finish().unwrap();
        assert_eq!(trace.category_total(Category::Alloc), 42);
        assert!(!enabled(), "finish disables the session");
    }

    #[test]
    fn restart_discards_previous_session() {
        start(TraceConfig::default(), None);
        with(|b| {
            let t = b.track("x");
            b.span_at(t, Category::Kernel, "old", 0, 1);
        });
        start(TraceConfig::default(), None);
        let trace = finish().unwrap();
        assert!(trace.is_empty(), "restart begins from a clean buffer");
    }
}
