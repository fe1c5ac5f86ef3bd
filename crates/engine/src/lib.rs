//! # hetsim-engine
//!
//! Discrete-event simulation core shared by every other `hetsim` crate.
//!
//! The crate provides four small, composable building blocks:
//!
//! * [`time`] — integer-nanosecond simulated time ([`SimTime`], [`Nanos`])
//!   and clock-domain conversion ([`ClockDomain`]);
//! * [`event`] — a deterministic, stable-ordered event queue
//!   ([`EventQueue`]);
//! * [`rng`] — a tiny, fully deterministic SplitMix64 RNG ([`rng::SimRng`])
//!   so that a run is a pure function of its seed;
//! * [`stats`] — the summary statistics the paper's methodology section
//!   relies on (mean, std/mean, geometric mean, percentiles).
//!
//! # Example
//!
//! ```
//! use hetsim_engine::prelude::*;
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(Nanos::from_micros(5).into(), "later");
//! q.push(Nanos::from_micros(1).into(), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_nanos(1_000), "sooner"));
//! ```

pub mod bandwidth;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;

/// Convenient glob-import of the types used by nearly every simulator module.
pub mod prelude {
    pub use crate::bandwidth::{Bandwidth, Latency};
    pub use crate::event::EventQueue;
    pub use crate::rng::SimRng;
    pub use crate::stats::Summary;
    pub use crate::time::{ClockDomain, Nanos, SimTime};
}

pub use bandwidth::{Bandwidth, Latency};
pub use event::EventQueue;
pub use rng::SimRng;
pub use stats::Summary;
pub use time::{ClockDomain, Nanos, SimTime};
