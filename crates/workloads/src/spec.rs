//! The generic kernel-spec engine every workload is built from.
//!
//! A [`KernelSpec`] is a parameterized tile program: per tile it emits a
//! streaming input slice (sequential, strided, or random), a set of
//! re-referenced "local" reads against a shared table (whose window size
//! controls how well the L1 captures the reuse), and output stores, plus an
//! arithmetic budget. The per-workload constructors in [`crate::micro`] and
//! [`crate::apps`] derive these parameters from the actual algorithm
//! structure; the engine turns them into deterministic line-granular
//! address streams for the cache and UVM simulations.

use crate::irregular::TouchModel;
use hetsim_gpu::kernel::{KernelModel, KernelStyle, LaunchConfig, TileOps};
use hetsim_mem::addr::MemAccess;
use hetsim_runtime::{BufferSpec, GpuProgram, PageTouch};
use hetsim_uvm::prefetch::Regularity;

/// Cache-line size the address generators emit at.
pub const LINE: u64 = 128;

/// Base of the streaming-input address region.
const INPUT_BASE: u64 = 1 << 40;
/// Base of the output address region.
const OUTPUT_BASE: u64 = 1 << 41;
/// Base of the shared-table (re-referenced data) region.
const TABLE_BASE: u64 = 1 << 42;

/// How a kernel's streaming input walks memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamPattern {
    /// Dense sequential lines (vector_seq, saxpy, gemm panels).
    Sequential,
    /// Fixed-stride walk over a region (stencil rows, matrix columns).
    Strided {
        /// Stride between consecutive transactions, in lines.
        stride_lines: u64,
        /// Size of the region the walk wraps within, in lines.
        region_lines: u64,
    },
    /// Hash-random lines within a region (vector_rand, lud panels).
    Random {
        /// Size of the region addresses are drawn from, in lines.
        region_lines: u64,
    },
}

/// Deterministic 64-bit mixing of three coordinates (block, tile, index).
fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(c.wrapping_mul(0x1656_67B1_9E37_79F9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A parameterized tile-program kernel.
///
/// Build one with [`KernelSpec::new`] and the `with_*` methods:
///
/// ```
/// use hetsim_workloads::spec::{KernelSpec, StreamPattern};
/// use hetsim_gpu::kernel::{LaunchConfig, TileOps, KernelStyle};
/// use hetsim_uvm::prefetch::Regularity;
///
/// let k = KernelSpec::new("demo", LaunchConfig::new(1024, 256, 32 * 1024))
///     .with_tiles(16)
///     .with_stream(64, StreamPattern::Sequential)
///     .with_stores(64)
///     .with_ops(TileOps::new(4096.0, 2048.0, 512.0))
///     .with_regularity(Regularity::Regular)
///     .with_standard_style(KernelStyle::StagedSync);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    name: String,
    launch: LaunchConfig,
    tiles_per_block: u64,
    stream_lines_per_tile: u64,
    stream_pattern: StreamPattern,
    staged_halo_lines: u64,
    local_reads_per_tile: u64,
    local_window_lines: u64,
    local_random: bool,
    store_lines_per_tile: u64,
    store_window_lines: Option<u64>,
    ops: TileOps,
    regularity: Regularity,
    standard_style: KernelStyle,
    invocations: u64,
}

impl KernelSpec {
    /// Creates a kernel with no memory traffic and no arithmetic; fill it
    /// in with the `with_*` methods.
    pub fn new<S: Into<String>>(name: S, launch: LaunchConfig) -> Self {
        KernelSpec {
            name: name.into(),
            launch,
            tiles_per_block: 1,
            stream_lines_per_tile: 0,
            stream_pattern: StreamPattern::Sequential,
            staged_halo_lines: 0,
            local_reads_per_tile: 0,
            local_window_lines: 1,
            local_random: false,
            store_lines_per_tile: 0,
            store_window_lines: None,
            ops: TileOps::default(),
            regularity: Regularity::Regular,
            standard_style: KernelStyle::Direct,
            invocations: 1,
        }
    }

    /// Sets tiles per block.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero.
    pub fn with_tiles(mut self, tiles: u64) -> Self {
        assert!(tiles > 0, "kernel needs at least one tile");
        self.tiles_per_block = tiles;
        self
    }

    /// Sets the streaming input: `lines` transactions per tile walking
    /// `pattern`.
    pub fn with_stream(mut self, lines: u64, pattern: StreamPattern) -> Self {
        self.stream_lines_per_tile = lines;
        self.stream_pattern = pattern;
        self
    }

    /// Extra halo lines fetched per tile when the kernel is forced into a
    /// staged form (stencils overlap their tiles).
    pub fn with_staged_halo(mut self, lines: u64) -> Self {
        self.staged_halo_lines = lines;
        self
    }

    /// Re-referenced reads per tile against a shared table of
    /// `window_lines` lines; `random` picks hash-random table entries
    /// (irregular reuse) instead of a rotating walk.
    pub fn with_local_reads(mut self, reads: u64, window_lines: u64, random: bool) -> Self {
        assert!(window_lines > 0, "reuse window must be non-empty");
        self.local_reads_per_tile = reads;
        self.local_window_lines = window_lines;
        self.local_random = random;
        self
    }

    /// Output stores per tile (sequential).
    pub fn with_stores(mut self, lines: u64) -> Self {
        self.store_lines_per_tile = lines;
        self
    }

    /// Makes stores revisit a rotating window of `window_lines` per block
    /// instead of streaming fresh lines — in-place update patterns (lud
    /// panels) whose store locality the L1 can capture once streaming
    /// loads stop thrashing it.
    ///
    /// # Panics
    ///
    /// Panics if `window_lines` is zero.
    pub fn with_store_window(mut self, window_lines: u64) -> Self {
        assert!(window_lines > 0, "store window must be non-empty");
        self.store_window_lines = Some(window_lines);
        self
    }

    /// Sets how many times the application launches this kernel.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_invocations(mut self, n: u64) -> Self {
        assert!(n > 0, "kernel must launch at least once");
        self.invocations = n;
        self
    }

    /// Arithmetic budget per tile.
    pub fn with_ops(mut self, ops: TileOps) -> Self {
        self.ops = ops;
        self
    }

    /// Access regularity classification (drives UVM prefetch coverage).
    pub fn with_regularity(mut self, r: Regularity) -> Self {
        self.regularity = r;
        self
    }

    /// The hand-written standard version's style.
    pub fn with_standard_style(mut self, s: KernelStyle) -> Self {
        self.standard_style = s;
        self
    }

    /// Streaming bytes this kernel touches per block.
    pub fn stream_bytes_per_block(&self) -> u64 {
        self.tiles_per_block * self.stream_lines_per_tile * LINE
    }

    fn stream_addr(&self, block: u64, tile: u64, i: u64) -> u64 {
        let flat = (block * self.tiles_per_block + tile) * self.stream_lines_per_tile + i;
        let line_no = match self.stream_pattern {
            StreamPattern::Sequential => flat,
            StreamPattern::Strided {
                stride_lines,
                region_lines,
            } => (flat * stride_lines) % region_lines.max(1),
            StreamPattern::Random { region_lines } => hash3(block, tile, i) % region_lines.max(1),
        };
        INPUT_BASE + line_no * LINE
    }
}

impl KernelModel for KernelSpec {
    fn name(&self) -> &str {
        &self.name
    }

    fn launch(&self) -> LaunchConfig {
        self.launch
    }

    fn tiles_per_block(&self) -> u64 {
        self.tiles_per_block
    }

    fn stream_accesses(&self, block: u64, tile: u64, out: &mut Vec<MemAccess>) {
        for i in 0..self.stream_lines_per_tile {
            out.push(MemAccess::global_load(self.stream_addr(block, tile, i)));
        }
    }

    fn staged_stream_accesses(&self, block: u64, tile: u64, out: &mut Vec<MemAccess>) {
        self.stream_accesses(block, tile, out);
        // Halo overfetch: neighbouring lines re-fetched by this tile.
        for i in 0..self.staged_halo_lines {
            out.push(MemAccess::global_load(
                self.stream_addr(block, tile, i % self.stream_lines_per_tile.max(1)) + LINE,
            ));
        }
    }

    fn local_accesses(&self, block: u64, tile: u64, out: &mut Vec<MemAccess>) {
        for i in 0..self.local_reads_per_tile {
            let idx = if self.local_random {
                hash3(block ^ 0xA5A5, tile, i) % self.local_window_lines
            } else {
                (tile * self.local_reads_per_tile + i) % self.local_window_lines
            };
            out.push(MemAccess::global_load(TABLE_BASE + idx * LINE));
        }
        let out_flat = (block * self.tiles_per_block + tile) * self.store_lines_per_tile;
        for i in 0..self.store_lines_per_tile {
            let line_no = match self.store_window_lines {
                // In-place updates revisit a per-block window.
                Some(w) => block * w + (out_flat + i) % w,
                None => out_flat + i,
            };
            out.push(MemAccess::global_store(OUTPUT_BASE + line_no * LINE));
        }
    }

    fn tile_ops(&self) -> TileOps {
        self.ops
    }

    fn regularity(&self) -> Regularity {
        self.regularity
    }

    fn standard_style(&self) -> KernelStyle {
        self.standard_style
    }

    fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Every field, so any change to the streams changes the key.
    fn replay_key(&self) -> Option<String> {
        Some(format!("{self:?}"))
    }
}

/// A complete workload: buffers + kernel sequence, with a name.
///
/// This is the concrete [`GpuProgram`] type all 21 benchmark constructors
/// return.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    buffers: Vec<BufferSpec>,
    kernels: Vec<KernelSpec>,
    prefetch_conflict: f64,
    touch_model: Option<TouchModel>,
}

impl Workload {
    /// Creates a workload.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty or `prefetch_conflict` is outside
    /// `[0, 1]`.
    pub fn new<S: Into<String>>(
        name: S,
        buffers: Vec<BufferSpec>,
        kernels: Vec<KernelSpec>,
        prefetch_conflict: f64,
    ) -> Self {
        assert!(!kernels.is_empty(), "workload needs at least one kernel");
        assert!(
            (0.0..=1.0).contains(&prefetch_conflict),
            "prefetch conflict out of [0,1]"
        );
        Workload {
            name: name.into(),
            buffers,
            kernels,
            prefetch_conflict,
            touch_model: None,
        }
    }

    /// Attaches a temporal page-touch model ([`TouchModel`]): the workload
    /// then drives the UVM fault batcher through an explicit, ordered
    /// chunk-touch sequence instead of the address-ordered range fallback.
    /// Irregular-access workloads (bfs, kmeans, pathfinder) use this to
    /// produce the under-filled fault batches and re-touch thrashing the
    /// paper attributes to them.
    pub fn with_touch_model(mut self, model: TouchModel) -> Self {
        self.touch_model = Some(model);
        self
    }

    /// The attached temporal touch model, if any.
    pub fn touch_model(&self) -> Option<&TouchModel> {
        self.touch_model.as_ref()
    }

    /// The kernel specs (for inspection/tests).
    pub fn kernel_specs(&self) -> &[KernelSpec] {
        &self.kernels
    }
}

impl GpuProgram for Workload {
    fn name(&self) -> &str {
        &self.name
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        self.buffers.clone()
    }

    fn kernels(&self) -> Vec<&dyn KernelModel> {
        self.kernels.iter().map(|k| k as &dyn KernelModel).collect()
    }

    fn prefetch_conflict(&self) -> f64 {
        self.prefetch_conflict
    }

    fn for_each_page_touch(
        &self,
        kernel: usize,
        invocation: u64,
        chunk_size: u64,
        sink: &mut dyn FnMut(PageTouch),
    ) -> bool {
        self.touch_model.as_ref().is_some_and(|m| {
            m.emit(
                &self.name,
                kernel,
                invocation,
                chunk_size,
                &self.buffers,
                sink,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_runtime::BufferRole;

    fn launch() -> LaunchConfig {
        LaunchConfig::new(64, 256, 32 * 1024)
    }

    #[test]
    fn sequential_stream_is_dense_and_disjoint_across_blocks() {
        let k = KernelSpec::new("k", launch())
            .with_tiles(2)
            .with_stream(4, StreamPattern::Sequential);
        let mut b0 = Vec::new();
        let mut b1 = Vec::new();
        k.stream_accesses(0, 0, &mut b0);
        k.stream_accesses(1, 0, &mut b1);
        assert_eq!(b0.len(), 4);
        // Dense lines within a tile.
        assert_eq!(b0[1].addr.as_u64() - b0[0].addr.as_u64(), LINE);
        // Blocks read disjoint slices.
        let max0 = b0.iter().map(|a| a.addr.as_u64()).max().unwrap();
        let min1 = b1.iter().map(|a| a.addr.as_u64()).min().unwrap();
        assert!(min1 > max0);
    }

    #[test]
    fn random_stream_stays_in_region() {
        let region = 1000;
        let k = KernelSpec::new("k", launch()).with_stream(
            64,
            StreamPattern::Random {
                region_lines: region,
            },
        );
        let mut out = Vec::new();
        k.stream_accesses(7, 0, &mut out);
        for a in &out {
            let line = (a.addr.as_u64() - INPUT_BASE) / LINE;
            assert!(line < region);
        }
    }

    #[test]
    fn strided_stream_wraps_region() {
        let k = KernelSpec::new("k", launch()).with_stream(
            8,
            StreamPattern::Strided {
                stride_lines: 64,
                region_lines: 256,
            },
        );
        let mut out = Vec::new();
        k.stream_accesses(0, 0, &mut out);
        let lines: Vec<u64> = out
            .iter()
            .map(|a| (a.addr.as_u64() - INPUT_BASE) / LINE)
            .collect();
        assert_eq!(lines[0], 0);
        assert_eq!(lines[1], 64);
        assert!(lines.iter().all(|&l| l < 256));
    }

    #[test]
    fn staged_halo_adds_lines() {
        let k = KernelSpec::new("k", launch())
            .with_stream(16, StreamPattern::Sequential)
            .with_staged_halo(4);
        let mut plain = Vec::new();
        let mut staged = Vec::new();
        k.stream_accesses(0, 0, &mut plain);
        k.staged_stream_accesses(0, 0, &mut staged);
        assert_eq!(staged.len(), plain.len() + 4);
    }

    #[test]
    fn local_reads_respect_window() {
        let k = KernelSpec::new("k", launch())
            .with_local_reads(32, 8, true)
            .with_stores(0);
        let mut out = Vec::new();
        k.local_accesses(3, 1, &mut out);
        assert_eq!(out.len(), 32);
        for a in &out {
            let line = (a.addr.as_u64() - TABLE_BASE) / LINE;
            assert!(line < 8);
        }
    }

    #[test]
    fn stores_are_sequential_per_tile() {
        let k = KernelSpec::new("k", launch()).with_tiles(4).with_stores(8);
        let mut out = Vec::new();
        k.local_accesses(0, 1, &mut out);
        let first = out[0].addr.as_u64();
        assert_eq!(first, OUTPUT_BASE + 8 * LINE);
        assert!(out.iter().all(|a| !a.kind.is_load()));
    }

    #[test]
    fn accesses_are_deterministic() {
        let k = KernelSpec::new("k", launch())
            .with_stream(32, StreamPattern::Random { region_lines: 512 })
            .with_local_reads(16, 64, true)
            .with_stores(8);
        let mut a = Vec::new();
        let mut b = Vec::new();
        k.stream_accesses(5, 2, &mut a);
        k.stream_accesses(5, 2, &mut b);
        assert_eq!(a, b);
        a.clear();
        b.clear();
        k.local_accesses(5, 2, &mut a);
        k.local_accesses(5, 2, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn stream_bytes_accounting() {
        let k = KernelSpec::new("k", launch())
            .with_tiles(10)
            .with_stream(64, StreamPattern::Sequential);
        assert_eq!(k.stream_bytes_per_block(), 10 * 64 * 128);
    }

    #[test]
    fn workload_exposes_program_interface() {
        let w = Workload::new(
            "test",
            vec![BufferSpec::new("in", 1024, BufferRole::Input)],
            vec![KernelSpec::new("k", launch())],
            0.8,
        );
        assert_eq!(w.name(), "test");
        assert_eq!(w.footprint(), 1024);
        assert_eq!(w.kernels().len(), 1);
        assert_eq!(w.prefetch_conflict(), 0.8);
        assert_eq!(w.kernel_specs().len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one kernel")]
    fn empty_workload_rejected() {
        let _ = Workload::new("bad", vec![], vec![], 1.0);
    }
}
