//! # hetsim-counters
//!
//! CUPTI-like performance counters for the hetsim simulator.
//!
//! The paper's in-depth analysis (§4.2) relies on two groups of GPU hardware
//! counters — the instruction mix (Fig 9) and the unified L1/texture cache
//! global load/store miss rates (Fig 10) — plus the derived occupancy and
//! time-breakdown shares of §6. This crate defines those counter sets as
//! plain data types that the memory, GPU, and runtime models populate, and a
//! small plain-text/CSV [`report`] module the harness uses to print them.
//!
//! # Example
//!
//! ```
//! use hetsim_counters::{InstClass, InstructionMix};
//!
//! let mut mix = InstructionMix::new();
//! mix.record(InstClass::Fp, 1_000);
//! mix.record(InstClass::Control, 40);
//! assert_eq!(mix.total(), 1_040);
//! assert_eq!(mix.get(InstClass::Control), 40);
//! ```

pub mod cache;
pub mod inst;
pub mod occupancy;
pub mod report;
pub mod set;
pub mod svg;
pub mod transfer;
pub mod uvm;

pub use cache::CacheCounters;
pub use inst::{InstClass, InstructionMix};
pub use occupancy::Occupancy;
pub use report::Table;
pub use set::CounterSet;
pub use svg::BarChart;
pub use transfer::TransferCounters;
pub use uvm::UvmCounters;
