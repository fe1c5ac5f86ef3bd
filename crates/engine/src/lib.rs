//! # hetsim-engine
//!
//! Simulation core shared by every other `hetsim` crate.
//!
//! The crate provides four small, composable building blocks:
//!
//! * [`time`] — integer-nanosecond simulated time ([`SimTime`], [`Nanos`])
//!   and clock-domain conversion ([`ClockDomain`]);
//! * [`bandwidth`] — link bandwidths and latencies ([`Bandwidth`],
//!   [`Latency`]);
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
//! let start: SimTime = Nanos::from_micros(1).into();
//! let mut rng = SimRng::seed_from_parts(&["example"], 0);
//! let later = start + Nanos::from_micros(rng.range(1, 5));
//! assert!(later > start);
//! assert_eq!(start, SimTime::from_nanos(1_000));
//! ```

pub mod bandwidth;
pub mod rng;
pub mod stats;
pub mod time;

/// Convenient glob-import of the types used by nearly every simulator module.
pub mod prelude {
    pub use crate::bandwidth::{Bandwidth, Latency};
    pub use crate::rng::SimRng;
    pub use crate::stats::Summary;
    pub use crate::time::{ClockDomain, Nanos, SimTime};
}

pub use bandwidth::{Bandwidth, Latency};
pub use rng::SimRng;
pub use stats::Summary;
pub use time::{ClockDomain, Nanos, SimTime};
