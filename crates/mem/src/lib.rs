//! # hetsim-mem
//!
//! The memory-hierarchy substrate of the hetsim CPU-GPU simulator.
//!
//! The paper's entire argument is about where data sits and how it moves:
//! host DDR4 ↔ GPU HBM2 over PCIe (the `U1` stage of its Figure 1 pipeline),
//! and GPU global memory ↔ SM shared memory through the unified L1/texture
//! cache (`U2` / `A2.1`). This crate models each of those structures:
//!
//! * [`addr`] — typed addresses and memory accesses;
//! * [`cache`] — a set-associative, LRU, write-allocate cache used for both
//!   the per-SM unified L1/texture cache and the device-wide L2;
//! * [`carveout`] — the Ampere L1-cache/shared-memory partition (Fig 13's
//!   swept parameter);
//! * [`shared`] — per-SM shared memory with block-granular allocation;
//! * [`hbm`] — device global memory (40 GB HBM2 on the A100);
//! * [`host`] — host DRAM built from discrete chips, reproducing the paper's
//!   Fig 6 observation that footprints near a single chip's capacity make
//!   transfer time noisy;
//! * [`link`] — the CPU↔GPU interconnect with per-path effective bandwidths
//!   (pageable copy, pinned copy, UVM demand migration, bulk prefetch).

pub mod addr;
pub mod cache;
pub mod carveout;
pub mod hbm;
pub mod host;
pub mod link;
pub mod shared;
pub mod tlb;

pub use addr::{AccessKind, Addr, MemAccess, MemSpace};
pub use cache::{Cache, CacheConfig};
pub use carveout::Carveout;
pub use hbm::Hbm;
pub use host::{HostConfig, HostMemory, Placement};
pub use link::{CpuGpuLink, LinkPath};
pub use shared::SharedMemory;
pub use tlb::{Tlb, TlbConfig};
