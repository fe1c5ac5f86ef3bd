//! # hetsim-benchmark
//!
//! The repository's benchmark: five workloads that together cover the
//! host-time layers of the simulator — the kernel executor and its cache
//! simulation, UVM fault replay, runtime composition, the memo and disk
//! cache, serve scheduling, and trace export — each timed end to end and
//! then attributed layer by layer from one traced pass.
//!
//! Every workload implements [`BenchWorkload`]: [`BenchWorkload::prepare`]
//! builds its inputs from the seed and sets the system up (timed as
//! `setup_s`), [`BenchWorkload::pass`] does one fixed, deterministic unit of
//! work and digests its outputs, and [`BenchWorkload::traced_pass`] does the
//! same work with a span around each call into a layer. The
//! [`harness`] repeats set-up and passes, checks digests, and derives the
//! end-to-end metrics and the per-layer [`ledger`].
//!
//! See `README.md` beside this crate for the workloads, the metrics and how
//! to compare two commits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
mod grid;
pub mod harness;
pub mod json;
pub mod ledger;
mod serve;
pub mod spans;
mod stats;

use spans::Spans;
use std::time::Duration;

/// How every pass is timed. The host has few cores and the passes must be
/// comparable between commits, so the simulator's worker pool is pinned
/// (to `--threads`, default 1) and each pass is one caller doing its work
/// back to back.
pub const TIMING_METHOD: &str =
    "wall clock (std::time::Instant) around each pass and each segment; simulator pool pinned to --threads (default 1); concurrency 1";

/// The workloads, in run order.
pub const WORKLOADS: [&str; 5] = [
    "paper_grid",
    "grid_replay",
    "uvm_mega",
    "serve_sweep",
    "serve_chaos",
];

/// One benchmark workload (the shape of a `prepare` / `execute` bench with
/// declared work units and a stated timing method).
pub trait BenchWorkload {
    /// The prepared inputs plus the system state passes run against.
    type State;

    /// The workload's name, as `BENCHMARK.json` lists it.
    fn name(&self) -> &'static str;

    /// What one unit of `throughput` counts (`cell`, `request`).
    fn unit(&self) -> &'static str;

    /// Whether the outputs depend on the seed. Outputs that do not are
    /// checked against the committed golden digest at every seed; outputs
    /// that do are checked against it at seed 42 only.
    fn seeded(&self) -> bool;

    /// Builds the inputs from `seed` and sets the system up.
    fn prepare(&self, seed: u64) -> Self::State;

    /// One pass: the same deterministic work on every call.
    fn pass(&self, state: &mut Self::State) -> Pass;

    /// The work of [`BenchWorkload::pass`], with a span around every call
    /// into a layer and `probe.*` spans for the extra calls that split a
    /// layer's time. Must produce the same digests as an untraced pass.
    fn traced_pass(&self, state: &mut Self::State, spans: &mut Spans) -> Pass;
}

/// One timed call in a pass, and one operation for `error_rate`: a base
/// run or a cached load of one grid cell, one figure regenerated from the
/// memo, one serve cell. Every pass makes the same calls in the same order,
/// so passes compare segment by segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Wall time, nanoseconds.
    pub ns: u64,
    /// Work units done (grid cells, or offered requests).
    pub units: u64,
    /// Digest of the call's outputs.
    pub digest: u64,
    /// Whether a check on the call failed (a warm replay that missed the
    /// cache, a trace stream that broke).
    pub failed: bool,
}

impl Segment {
    /// A segment that took `elapsed`. The digest is the benchmark's own
    /// check, so callers take `elapsed` before computing it.
    pub fn new(elapsed: Duration, units: u64, digest: u64) -> Segment {
        Segment {
            ns: elapsed.as_nanos() as u64,
            units,
            digest,
            failed: false,
        }
    }

    /// A segment of a traced pass: its time is in the spans instead.
    pub fn traced(units: u64, digest: u64) -> Segment {
        Segment {
            ns: 0,
            units,
            digest,
            failed: false,
        }
    }
}

/// The outcome of one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pass {
    /// The segments, in call order.
    pub segments: Vec<Segment>,
}

impl Pass {
    /// Work units done.
    pub fn units(&self) -> u64 {
        self.segments.iter().map(|s| s.units).sum()
    }

    /// Operations attempted.
    pub fn ops(&self) -> u64 {
        self.segments.len() as u64
    }

    /// The digest of all outputs.
    pub fn digest(&self) -> u64 {
        let parts: Vec<u64> = self.segments.iter().map(|s| s.digest).collect();
        stats::combine(&parts)
    }
}

/// The committed seed-42 digests, `<full|smoke> <workload> <hex>` per line.
const GOLDEN: &str = include_str!("../golden/digests.txt");

/// The golden digest of `workload` in the given mode, if one is committed.
pub fn golden(smoke: bool, workload: &str) -> Option<u64> {
    let mode = if smoke { "smoke" } else { "full" };
    GOLDEN.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(m), Some(w), Some(hex)) if m == mode && w == workload => {
                u64::from_str_radix(hex, 16).ok()
            }
            _ => None,
        }
    })
}

/// The version of the simulator crates under test, as the simulator
/// records it in its own cache keys.
pub fn simulator_version() -> String {
    let line = hetsim::CacheKey::new("", hetsim::runtime::TransferMode::Standard, 0).line();
    line.split_whitespace()
        .find_map(|f| f.strip_prefix("crate="))
        .unwrap_or("unknown")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulator_version_is_read_from_the_cache_key() {
        assert_ne!(simulator_version(), "unknown");
    }
}
