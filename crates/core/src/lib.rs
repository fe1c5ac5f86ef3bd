//! # hetsim
//!
//! A full reproduction of *"Performance Implications of Async Memcpy and
//! UVM: A Tale of Two Data Transfer Modes"* (IISWC 2023) as a Rust library,
//! built on a transaction-level CPU-GPU heterogeneous-system simulator.
//!
//! This facade crate ties the stack together:
//!
//! * [`experiment`] — the multi-run measurement harness (the paper's
//!   30-run methodology);
//! * [`figures`] — one data producer per paper figure (Fig 4 … Fig 13),
//!   each returning typed series plus a printable table;
//! * [`headline`] — the paper's §4 aggregate numbers (geo-mean gains,
//!   memcpy savings, kernel overheads) and §6 shares/occupancy;
//! * [`batch`] — the §6.2 inter-job data-transfer model (Fig 14), the
//!   paper's proposed future direction, implemented;
//! * [`extensions`] — studies beyond the paper: classic multi-stream
//!   copy/compute overlap and UVM oversubscription;
//! * [`degradation`] — chaos sweeps over the `hetsim-chaos` fault
//!   injector: degradation curves of slowdown, mode fallback, and
//!   recovery failure as fault pressure rises;
//! * [`verify`] — pre-sweep spec verification via the re-exported
//!   [`sanitizer`] static-analysis crate (`hetsim check` / `--verify-specs`);
//! * the re-exported substrate crates (`engine`, `mem`, `uvm`, `gpu`,
//!   `runtime`, `workloads`, `counters`).
//!
//! # Quickstart
//!
//! ```
//! use hetsim::prelude::*;
//!
//! // Run kmeans at a small size under all five transfer modes.
//! let exp = Experiment::new().with_runs(3);
//! let kmeans = hetsim::workloads::by_name("kmeans", InputSize::Small).unwrap();
//! let cmp = exp.compare_modes(&kmeans);
//! for mode in TransferMode::ALL {
//!     let t = cmp.mean_total(mode);
//!     assert!(t > hetsim::engine::time::Nanos::ZERO);
//! }
//! println!("{}", cmp.to_table());
//! ```

pub mod batch;
pub mod cache;
pub mod degradation;
pub mod experiment;
pub mod extensions;
pub mod figures;
pub mod headline;
pub mod memo;
pub mod pool;
pub mod verify;

/// The discrete-event simulation core.
pub use hetsim_engine as engine;

/// CUPTI-like counters and report tables.
pub use hetsim_counters as counters;

/// Memory-hierarchy substrate.
pub use hetsim_mem as mem;

/// UVM substrate.
pub use hetsim_uvm as uvm;

/// GPU execution model.
pub use hetsim_gpu as gpu;

/// CUDA-like runtime.
pub use hetsim_runtime as runtime;

/// The 21-workload benchmark suite.
pub use hetsim_workloads as workloads;

/// Static spec analysis (the compute-sanitizer analogue).
pub use hetsim_sanitizer as sanitizer;

pub use batch::{InterJobPipeline, PipelineEstimate};
pub use cache::{CacheChoice, CacheKey, CacheScan, CacheStats, DiskCache};
pub use degradation::{ChaosCell, ChaosSweep, ChaosSweepConfig};
pub use experiment::{Experiment, MeanReport, ModeComparison};
pub use memo::{MemoStats, ShardedMemo};

/// The types nearly every user of the crate needs.
pub mod prelude {
    pub use crate::batch::{InterJobPipeline, PipelineEstimate};
    pub use crate::degradation::{ChaosCell, ChaosSweep, ChaosSweepConfig};
    pub use crate::experiment::{Experiment, MeanReport, ModeComparison};
    pub use hetsim_counters::report::Table;
    pub use hetsim_engine::stats::{geomean, Summary};
    pub use hetsim_engine::time::Nanos;
    pub use hetsim_runtime::{Device, GpuProgram, RunReport, Runner, TransferMode};
    pub use hetsim_workloads::{micro, suite, InputSize};
}
