//! # hetsim-trace
//!
//! The observability substrate of the hetsim simulator: structured
//! events stamped in *simulated* nanoseconds, recorded into a bounded
//! ring buffer, and exported as Chrome trace-event JSON (loadable in
//! Perfetto or `chrome://tracing`) or CSV time series.
//!
//! The crate has no dependencies — not even on `hetsim-engine` — so that
//! every crate in the simulator DAG, the engine included, can emit events.
//! Timestamps are raw `u64` nanoseconds; callers convert from their own
//! time types (`SimTime::as_nanos()` upstream).
//!
//! ## Two ways to record
//!
//! * [`TraceBuilder`] — an owned buffer. Components that *always* produce
//!   a schedule record (the stream scheduler, the inter-job pipeline) build
//!   one directly; the resulting [`Trace`] is their single source of truth
//!   for derived views such as Gantt charts.
//! * [`session`] — a thread-local recorder, **off by default**. When no
//!   session is active every emit call is a single thread-local boolean
//!   read, so instrumented hot paths cost (near) nothing. A session is
//!   started around one run ([`session::start`]) and drained with
//!   [`session::finish`].
//!
//! ## Event model
//!
//! Three event kinds ([`EventKind`]) on named lanes ([tracks](TraceBuilder::track)):
//!
//! * **spans** — `[ts, ts + dur)` intervals (`alloc`, `fault_batch`,
//!   `kernel`, …);
//! * **instants** — zero-width markers (an eviction, a chip spill);
//! * **counters** — named numeric samples (`uvm.page_faults`), optionally
//!   rate-limited to a configurable sim-time interval
//!   ([`TraceConfig::counter_interval`]) and queried back as time series
//!   through the [`metrics::MetricsRegistry`].
//!
//! # Example
//!
//! ```
//! use hetsim_trace::{Category, TraceBuilder, TraceConfig};
//!
//! let mut b = TraceBuilder::new(TraceConfig::default());
//! let gpu = b.track("gpu");
//! let dma = b.track("dma");
//! b.span_at(dma, Category::Memcpy, "h2d", 0, 500);
//! b.span_at(gpu, Category::Kernel, "saxpy", 500, 1_200);
//! b.counter("uvm.page_faults", 0.0);
//! let trace = b.finish();
//! assert_eq!(trace.category_total(Category::Kernel), 1_200);
//! let json = trace.to_chrome_json();
//! assert!(json.contains("\"ph\":\"X\""));
//! ```

pub mod chrome;
pub mod config;
pub mod csv;
pub mod event;
pub mod label;
pub mod metrics;
pub mod recorder;
pub mod selfprof;
pub mod session;
pub mod sink;
pub mod trace;

pub use chrome::ChromeSink;
pub use config::TraceConfig;
pub use event::{Category, EventKind, TraceEvent, TrackId};
pub use label::{Dim, LabelSet};
pub use metrics::MetricsRegistry;
pub use recorder::TraceBuilder;
pub use sink::{JsonlSink, SharedBuffer, StreamSummary, TraceSink};
pub use trace::{Trace, Track};
