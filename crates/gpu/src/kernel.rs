//! Kernel descriptions: launch geometry, transfer-mode styles, and the
//! [`KernelModel`] trait workloads implement.

use hetsim_mem::addr::MemAccess;
use hetsim_uvm::prefetch::Regularity;
use std::fmt;

/// CUDA-style launch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Blocks in the grid.
    pub grid_blocks: u64,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Static shared memory per block, bytes.
    pub shared_bytes_per_block: u64,
}

impl LaunchConfig {
    /// Creates a launch configuration.
    ///
    /// # Panics
    ///
    /// Panics if `grid_blocks` or `threads_per_block` is zero.
    pub fn new(grid_blocks: u64, threads_per_block: u32, shared_bytes_per_block: u64) -> Self {
        assert!(grid_blocks > 0, "grid must have at least one block");
        assert!(threads_per_block > 0, "block must have at least one thread");
        LaunchConfig {
            grid_blocks,
            threads_per_block,
            shared_bytes_per_block,
        }
    }

    /// Total threads in the grid.
    pub fn total_threads(&self) -> u64 {
        self.grid_blocks * self.threads_per_block as u64
    }

    /// Warps per block for a given warp size.
    pub fn warps_per_block(&self, warp_size: u32) -> u32 {
        self.threads_per_block.div_ceil(warp_size)
    }
}

impl fmt::Display for LaunchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<<<{}, {}, {}B>>>",
            self.grid_blocks, self.threads_per_block, self.shared_bytes_per_block
        )
    }
}

/// How a kernel moves data from global memory to its compute lanes — the
/// programming choice the paper studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelStyle {
    /// Plain `ld.global` through the L1 into registers.
    Direct,
    /// Shared-memory tiling with synchronous loads and `__syncthreads()`.
    StagedSync,
    /// `cp.async` double-buffered pipeline (Async Memcpy): fetches bypass
    /// L1 into shared memory and overlap with compute.
    StagedAsync,
}

impl KernelStyle {
    /// Whether this style stages tiles through shared memory.
    pub fn is_staged(self) -> bool {
        !matches!(self, KernelStyle::Direct)
    }
}

impl fmt::Display for KernelStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KernelStyle::Direct => "direct",
            KernelStyle::StagedSync => "staged_sync",
            KernelStyle::StagedAsync => "staged_async",
        };
        f.write_str(s)
    }
}

/// Arithmetic budget of one tile, in dynamic instruction counts summed over
/// the block's threads.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TileOps {
    /// Floating-point instructions.
    pub fp: f64,
    /// Integer instructions (addressing, loop counters).
    pub int: f64,
    /// Control instructions (branches, predicates).
    pub control: f64,
}

impl TileOps {
    /// Creates a tile budget.
    pub fn new(fp: f64, int: f64, control: f64) -> Self {
        TileOps { fp, int, control }
    }

    /// Total instruction count.
    pub fn total(&self) -> f64 {
        self.fp + self.int + self.control
    }
}

/// A kernel expressed as a tile program.
///
/// One `KernelModel` describes what every block of a kernel launch does:
/// `tiles_per_block` tiles, each fetching a streaming slice of the inputs
/// ([`KernelModel::stream_accesses`]), touching some re-referenced data and
/// writing outputs ([`KernelModel::local_accesses`]), and executing
/// [`KernelModel::tile_ops`] arithmetic. The executor replays these streams
/// through the cache models under a chosen [`KernelStyle`].
///
/// Implementations must be deterministic: the same `(block, tile)` always
/// yields the same accesses. Randomized patterns derive their addresses
/// from hashes of `(block, tile, i)`, not from shared mutable state.
pub trait KernelModel {
    /// Kernel name (for reports).
    fn name(&self) -> &str;

    /// Launch geometry at the workload's configured input size.
    fn launch(&self) -> LaunchConfig;

    /// Tiles each block iterates over.
    fn tiles_per_block(&self) -> u64;

    /// Streaming (touch-once) global accesses of one tile, appended to
    /// `out`. Addresses are line-granular transactions, not per-thread
    /// accesses.
    fn stream_accesses(&self, block: u64, tile: u64, out: &mut Vec<MemAccess>);

    /// Streaming accesses when the kernel is forced into a staged
    /// (shared-memory tiled) form. Defaults to the plain stream; kernels
    /// whose natural access pattern does not tile cleanly (stencils) emit
    /// extra halo lines here — the overfetch that makes Async Memcpy *hurt*
    /// workloads like 2DCONV in the paper.
    fn staged_stream_accesses(&self, block: u64, tile: u64, out: &mut Vec<MemAccess>) {
        self.stream_accesses(block, tile, out);
    }

    /// Re-referenced global accesses and output stores of one tile.
    fn local_accesses(&self, block: u64, tile: u64, out: &mut Vec<MemAccess>);

    /// Arithmetic budget of one tile.
    fn tile_ops(&self) -> TileOps;

    /// Global-memory access regularity (drives UVM prefetch coverage).
    fn regularity(&self) -> Regularity;

    /// The style of the hand-written standard (non-async) version of this
    /// kernel. Defaults to [`KernelStyle::Direct`].
    fn standard_style(&self) -> KernelStyle {
        KernelStyle::Direct
    }

    /// Identifies this kernel's access streams by content, so executors
    /// may reuse one cache replay for every call that shares it: two
    /// kernels with the same key must emit the same accesses and tile
    /// budgets for every `(block, tile)`, and have the same launch
    /// geometry. `None`, the default, means every call replays afresh.
    fn replay_key(&self) -> Option<String> {
        None
    }

    /// How many times the application launches this kernel (iterative
    /// solvers, diagonal sweeps, training epochs). The runtime multiplies
    /// kernel time and instruction counts; UVM faults only strike the
    /// first launch, since the data is resident afterwards.
    fn invocations(&self) -> u64 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_accessors() {
        let l = LaunchConfig::new(4096, 256, 32 * 1024);
        assert_eq!(l.total_threads(), 4096 * 256);
        assert_eq!(l.warps_per_block(32), 8);
        assert_eq!(l.to_string(), "<<<4096, 256, 32768B>>>");
    }

    #[test]
    fn warps_round_up() {
        let l = LaunchConfig::new(1, 33, 0);
        assert_eq!(l.warps_per_block(32), 2);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_grid_rejected() {
        let _ = LaunchConfig::new(0, 32, 0);
    }

    #[test]
    fn style_properties() {
        assert!(!KernelStyle::Direct.is_staged());
        assert!(KernelStyle::StagedSync.is_staged());
        assert!(KernelStyle::StagedAsync.is_staged());
        assert_eq!(KernelStyle::StagedAsync.to_string(), "staged_async");
    }

    #[test]
    fn tile_ops_total() {
        let t = TileOps::new(100.0, 50.0, 10.0);
        assert_eq!(t.total(), 160.0);
        assert_eq!(TileOps::default().total(), 0.0);
    }
}
