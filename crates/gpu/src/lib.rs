//! # hetsim-gpu
//!
//! The GPU execution model of the hetsim simulator.
//!
//! Kernels are described by workloads as *tile programs* (the
//! [`KernelModel`] trait): per block, a sequence of tiles, each with a
//! streaming address stream (bulk input data, touched once), a local address
//! stream (re-referenced data and output stores) and an arithmetic budget.
//! The [`exec`] module replays those streams through real L1/L2 cache models
//! and combines the resulting pipe costs according to the *kernel style*:
//!
//! * [`KernelStyle::Direct`] — plain global loads through L1
//!   (`ld.global` → register → compute);
//! * [`KernelStyle::StagedSync`] — classic shared-memory tiling with
//!   `__syncthreads()` between fetch and compute phases;
//! * [`KernelStyle::StagedAsync`] — the paper's Async Memcpy (`cp.async`)
//!   pipeline: fetches bypass L1 into shared memory and overlap with
//!   compute, at the price of extra control instructions.
//!
//! The style differences are exactly the mechanisms the paper measures:
//! control-instruction inflation (its Fig 9), L1 miss-rate reduction from
//! staging (Fig 10), latency exposure at low thread counts (Fig 12), and
//! shared-memory/L1 carveout sensitivity (Fig 13).

pub mod config;
pub mod exec;
pub mod kernel;
pub mod trace;

pub use config::{GpuConfig, UvmTlb};
pub use exec::{ExecEnv, KernelExecutor, KernelResult};
pub use kernel::{KernelModel, KernelStyle, LaunchConfig, TileOps};
pub use trace::KernelTrace;
