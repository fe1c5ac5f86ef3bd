//! # hetsim-uvm
//!
//! The unified-virtual-memory substrate of the hetsim simulator.
//!
//! NVIDIA UVM (§2.1 of the paper) gives host and device one address space
//! and migrates data on demand: a GPU access to a non-resident page raises a
//! *far fault*, the driver services faults in batches, and 64 KB-granular
//! chunks migrate over the interconnect. `cudaMemPrefetchAsync` moves whole
//! ranges ahead of time instead. This crate models that machinery:
//!
//! * [`page`] — page/chunk identifiers and chunk ranges;
//! * [`table`] — the per-device page table with residency tracking and
//!   LRU chunk eviction for oversubscription;
//! * [`fault`] — far-fault generation and batched servicing (the source of
//!   the paper's 2–2.2× `uvm` kernel-time inflation);
//! * [`prefetch`] — explicit range prefetch plus the access-regularity
//!   model that decides how much of a working set prefetch actually covers
//!   (the paper's lud/nw pathologies);
//! * [`heuristic`] — the driver's region-growing speculation, used to
//!   validate the regularity table and to cover sequential phases of
//!   temporal touch sequences;
//! * [`touch`] — temporal-order demand touching: partial fault batches,
//!   drain gaps, and refault (thrashing) tracking for irregular-access
//!   workloads;
//! * [`space`] — [`UvmSpace`], the façade the runtime drives.

pub mod fault;
pub mod heuristic;
pub mod page;
pub mod prefetch;
pub mod space;
pub mod table;
pub mod touch;

pub use fault::{FaultConfig, FaultReport};
pub use heuristic::HeuristicPrefetcher;
pub use page::ChunkId;
pub use prefetch::{PrefetchModel, Regularity};
pub use space::{ResolvedRange, TouchSequence, UvmConfig, UvmSpace};
pub use table::PageTable;
pub use touch::{ChunkTouch, TouchConfig};
