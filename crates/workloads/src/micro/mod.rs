//! The 7 microbenchmarks (Table 2, "Micro" group).
//!
//! * `vector_seq`, `vector_rand` — Vector-to-Constant kernels after Svedin
//!   et al., written in the staged shared-memory form of the paper's
//!   Figure 3 (synchronous `memcpy` to shared per tile in the standard
//!   version);
//! * `saxpy`, `gemv`, `gemm`, `2DCONV`, `3DCONV` — PolyBench kernels,
//!   direct-indexing in their standard form (the paper adjusted PolyBench
//!   for large inputs and verified gemm efficacy against cutlass — we model
//!   that as a well-pipelined kernel that keeps the SM busy rather than a
//!   naive barrier-staged loop).

use crate::size::InputSize;
use crate::spec::{KernelSpec, StreamPattern, Workload, LINE};
use hetsim_gpu::kernel::{KernelStyle, LaunchConfig, TileOps};
use hetsim_runtime::{BufferRole, BufferSpec};
use hetsim_uvm::prefetch::Regularity;

/// Default grid for the 1D microbenchmarks (the paper's block-count
/// sensitivity baseline).
pub const DEFAULT_BLOCKS: u64 = 4096;
/// Default threads per block.
pub const DEFAULT_THREADS: u32 = 256;
/// Static shared memory per block (the paper's footnote 4: 32 KB).
pub const DEFAULT_SHARED: u64 = 32 * 1024;
/// Tile granularity: a 16 KB half of the double buffer.
const TILE_LINES: u64 = 128;

/// Splits `total_lines` of streaming data across `blocks` blocks in
/// `TILE_LINES`-line tiles; returns `(tiles_per_block, lines_per_tile)`.
fn tile_1d(total_lines: u64, blocks: u64) -> (u64, u64) {
    let lines_per_block = total_lines.div_ceil(blocks).max(1);
    let tiles = lines_per_block.div_ceil(TILE_LINES).max(1);
    (tiles, lines_per_block.div_ceil(tiles))
}

/// Elements of `f32` per line.
fn elems(lines: u64) -> f64 {
    (lines * LINE / 4) as f64
}

/// `vector_seq`: element-wise arithmetic over one vector, sequential
/// access (Svedin et al.).
pub fn vector_seq(size: InputSize) -> Workload {
    vector_seq_custom(size, DEFAULT_BLOCKS, DEFAULT_THREADS)
}

/// `vector_seq` with an explicit launch geometry — the knob the paper's
/// Fig 11 (block count) and Fig 12 (threads per block) sensitivity studies
/// turn.
pub fn vector_seq_custom(size: InputSize, blocks: u64, threads: u32) -> Workload {
    vector_kernel_full("vector_seq", size, blocks, threads, None, DEFAULT_SHARED)
}

/// `vector_seq` with an explicit per-block shared-memory buffer — the knob
/// the paper's Fig 13 (L1-cache/shared-memory carveout) study turns. The
/// double buffer splits `shared_bytes` in two, so tile depth scales with
/// the allocation.
pub fn vector_seq_shared(size: InputSize, shared_bytes: u64) -> Workload {
    vector_kernel_full(
        "vector_seq",
        size,
        DEFAULT_BLOCKS,
        DEFAULT_THREADS,
        None,
        shared_bytes,
    )
}

/// `vector_rand`: the same arithmetic with hash-random element access.
pub fn vector_rand(size: InputSize) -> Workload {
    let total_lines = size.grid_1d() * 4 / LINE;
    vector_kernel(
        "vector_rand",
        size,
        DEFAULT_BLOCKS,
        DEFAULT_THREADS,
        Some(StreamPattern::Random {
            region_lines: total_lines,
        }),
    )
}

fn vector_kernel(
    name: &str,
    size: InputSize,
    blocks: u64,
    threads: u32,
    pattern: Option<StreamPattern>,
) -> Workload {
    vector_kernel_full(name, size, blocks, threads, pattern, DEFAULT_SHARED)
}

fn vector_kernel_full(
    name: &str,
    size: InputSize,
    blocks: u64,
    threads: u32,
    pattern: Option<StreamPattern>,
    shared_bytes: u64,
) -> Workload {
    let n = size.grid_1d();
    let bytes = n * 4;
    let total_lines = bytes / LINE;
    // One tile fills half of the double buffer.
    let tile_lines = (shared_bytes / 2 / LINE).max(1);
    let lines_per_block = total_lines.div_ceil(blocks).max(1);
    let tiles = lines_per_block.div_ceil(tile_lines).max(1);
    let lines = lines_per_block.div_ceil(tiles);
    let e = elems(lines);
    let (pattern, regularity) = match pattern {
        Some(p) => (p, Regularity::Random),
        None => (StreamPattern::Sequential, Regularity::Regular),
    };
    let kernel = KernelSpec::new(name, LaunchConfig::new(blocks, threads, shared_bytes))
        .with_tiles(tiles)
        .with_stream(lines, pattern)
        .with_stores(lines)
        .with_ops(TileOps::new(2.0 * e, 2.0 * e, 0.5 * e))
        .with_regularity(regularity)
        .with_standard_style(KernelStyle::StagedSync);
    Workload::new(
        name,
        vec![BufferSpec::new("vector", bytes, BufferRole::InOut)],
        vec![kernel],
        1.0,
    )
}

/// `saxpy`: `y = a*x + y` over two vectors (PolyBench).
pub fn saxpy(size: InputSize) -> Workload {
    let n = size.grid_1d() / 2; // two vectors share the footprint
    let bytes_each = n * 4;
    let total_lines = 2 * bytes_each / LINE; // streams x and y
    let (tiles, lines) = tile_1d(total_lines, DEFAULT_BLOCKS);
    let e = elems(lines) / 2.0; // output elements per tile
    let kernel = KernelSpec::new(
        "saxpy",
        LaunchConfig::new(DEFAULT_BLOCKS, DEFAULT_THREADS, DEFAULT_SHARED),
    )
    .with_tiles(tiles)
    .with_stream(lines, StreamPattern::Sequential)
    .with_stores((lines / 2).max(1))
    .with_ops(TileOps::new(2.0 * e, 2.0 * e, 0.5 * e))
    .with_regularity(Regularity::Regular)
    .with_standard_style(KernelStyle::Direct);
    Workload::new(
        "saxpy",
        vec![
            BufferSpec::new("x", bytes_each, BufferRole::Input),
            BufferSpec::new("y", bytes_each, BufferRole::InOut),
        ],
        vec![kernel],
        1.0,
    )
}

/// `gemv`: dense matrix-vector product (PolyBench).
pub fn gemv(size: InputSize) -> Workload {
    let n = size.grid_2d();
    let matrix_bytes = n * n * 4;
    let vec_bytes = n * 4;
    let total_lines = matrix_bytes / LINE;
    let (tiles, lines) = tile_1d(total_lines, DEFAULT_BLOCKS);
    let e = elems(lines);
    let x_window = (vec_bytes / LINE).max(1);
    let kernel = KernelSpec::new(
        "gemv",
        LaunchConfig::new(DEFAULT_BLOCKS, DEFAULT_THREADS, DEFAULT_SHARED),
    )
    .with_tiles(tiles)
    .with_stream(lines, StreamPattern::Sequential)
    // The x vector is re-read for every matrix row: a rotating walk over
    // its lines, which the L1 captures for small x.
    .with_local_reads(lines, x_window, false)
    .with_stores((lines / n.max(1)).max(1))
    .with_ops(TileOps::new(2.0 * e, 1.5 * e, 0.25 * e))
    .with_regularity(Regularity::Strided)
    .with_standard_style(KernelStyle::Direct);
    Workload::new(
        "gemv",
        vec![
            BufferSpec::new("A", matrix_bytes, BufferRole::Input),
            BufferSpec::new("x", vec_bytes, BufferRole::Input),
            BufferSpec::new("y", vec_bytes, BufferRole::Output),
        ],
        vec![kernel],
        1.0,
    )
}

/// `gemm`: dense matrix-matrix product in 32×32 tiles (PolyBench,
/// cutlass-verified).
pub fn gemm(size: InputSize) -> Workload {
    let n = size.grid_2d();
    let matrix_bytes = n * n * 4;
    let tile_dim = 32u64;
    let grid = (n / tile_dim) * (n / tile_dim);
    // K-loop: one A tile + one B tile per step, 32x32 f32 = 32 lines each.
    let tiles = (n / tile_dim).max(1);
    // The A tile streams; the B panel is shared across the block column
    // and its reuse is caught by the L2 (the paper verified its gemm
    // against cutlass, so we model a well-pipelined kernel).
    let stream_lines = tile_dim * tile_dim * 4 / LINE;
    let b_panel_lines = (n * tile_dim * 4 / LINE).max(1);
    let kernel = KernelSpec::new(
        "gemm",
        LaunchConfig::new(grid.max(1), DEFAULT_THREADS, DEFAULT_SHARED),
    )
    .with_tiles(tiles)
    .with_stream(stream_lines, StreamPattern::Sequential)
    .with_local_reads(stream_lines, b_panel_lines, false)
    .with_stores(1)
    .with_ops(TileOps::new(
        2.0 * (tile_dim * tile_dim * tile_dim) as f64,
        0.5 * (tile_dim * tile_dim * tile_dim) as f64,
        2048.0,
    ))
    .with_regularity(Regularity::Regular)
    .with_standard_style(KernelStyle::Direct);
    Workload::new(
        "gemm",
        vec![
            BufferSpec::new("A", matrix_bytes, BufferRole::Input),
            BufferSpec::new("B", matrix_bytes, BufferRole::Input),
            BufferSpec::new("C", matrix_bytes, BufferRole::Output),
        ],
        vec![kernel],
        1.0,
    )
}

/// `2DCONV`: 3×3 convolution over a 2D grid (PolyBench).
pub fn conv2d(size: InputSize) -> Workload {
    let n = size.grid_2d();
    let grid_bytes = n * n * 4;
    let total_lines = grid_bytes / LINE;
    let (tiles, lines) = tile_1d(total_lines, DEFAULT_BLOCKS);
    let e = elems(lines);
    // Stencil reuse: each output line re-reads its neighbour rows, which
    // sit in a window of three rows and hit the L1 in the direct form.
    let row_lines = (n * 4 / LINE).max(1);
    let kernel = KernelSpec::new(
        "2DCONV",
        LaunchConfig::new(DEFAULT_BLOCKS, DEFAULT_THREADS, DEFAULT_SHARED),
    )
    .with_tiles(tiles)
    .with_stream(lines, StreamPattern::Sequential)
    // Forced tiling re-fetches each input row for the output rows above
    // and below it: the staged forms stream ~3x the data.
    .with_staged_halo(2 * lines)
    .with_local_reads(2 * lines, 3 * row_lines, false)
    .with_stores(lines)
    .with_ops(TileOps::new(18.0 * e, 6.0 * e, 2.0 * e))
    .with_regularity(Regularity::Regular)
    .with_standard_style(KernelStyle::Direct);
    Workload::new(
        "2DCONV",
        vec![
            BufferSpec::new("in", grid_bytes, BufferRole::Input),
            BufferSpec::new("out", grid_bytes, BufferRole::Output),
        ],
        vec![kernel],
        1.0,
    )
}

/// `3DCONV`: 3×3×3 convolution over a 3D grid (PolyBench).
pub fn conv3d(size: InputSize) -> Workload {
    let n = size.grid_3d();
    let grid_bytes = n * n * n * 4;
    let total_lines = grid_bytes / LINE;
    let (tiles, lines) = tile_1d(total_lines, DEFAULT_BLOCKS);
    let e = elems(lines);
    let plane_lines = (n * n * 4 / LINE).max(1);
    let kernel = KernelSpec::new(
        "3DCONV",
        LaunchConfig::new(DEFAULT_BLOCKS, DEFAULT_THREADS, DEFAULT_SHARED),
    )
    .with_tiles(tiles)
    .with_stream(lines, StreamPattern::Sequential)
    // A 3D tile drags in halo planes: ~4x overfetch when staged.
    .with_staged_halo(3 * lines)
    .with_local_reads(2 * lines, 3 * plane_lines, false)
    .with_stores(lines)
    .with_ops(TileOps::new(54.0 * e, 12.0 * e, 3.0 * e))
    .with_regularity(Regularity::Regular)
    .with_standard_style(KernelStyle::Direct);
    Workload::new(
        "3DCONV",
        vec![
            BufferSpec::new("in", grid_bytes, BufferRole::Input),
            BufferSpec::new("out", grid_bytes, BufferRole::Output),
        ],
        vec![kernel],
        1.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_runtime::GpuProgram;

    #[test]
    fn footprints_track_table3() {
        for size in InputSize::ALL {
            let target = size.mem_bytes() as f64;
            for w in [vector_seq(size), vector_rand(size), saxpy(size)] {
                let fp = w.footprint() as f64;
                assert!(
                    (0.5..=2.0).contains(&(fp / target)),
                    "{} at {size}: footprint {fp} vs target {target}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn two_d_footprints_are_matrix_sized() {
        let g = gemm(InputSize::Large);
        assert_eq!(g.footprint(), 3 * 8192 * 8192 * 4);
        let c = conv2d(InputSize::Large);
        assert_eq!(c.footprint(), 2 * 8192 * 8192 * 4);
    }

    #[test]
    fn vector_kernels_are_staged_sync() {
        use hetsim_gpu::kernel::{KernelModel, KernelStyle};
        let w = vector_seq(InputSize::Large);
        assert_eq!(
            w.kernel_specs()[0].standard_style(),
            KernelStyle::StagedSync
        );
        let p = conv2d(InputSize::Large);
        assert_eq!(p.kernel_specs()[0].standard_style(), KernelStyle::Direct);
    }

    #[test]
    fn vector_rand_is_random_regularity() {
        use hetsim_gpu::kernel::KernelModel;
        use hetsim_uvm::prefetch::Regularity;
        assert_eq!(
            vector_rand(InputSize::Large).kernel_specs()[0].regularity(),
            Regularity::Random
        );
        assert_eq!(
            vector_seq(InputSize::Large).kernel_specs()[0].regularity(),
            Regularity::Regular
        );
    }

    #[test]
    fn custom_launch_respected() {
        use hetsim_gpu::kernel::KernelModel;
        let w = vector_seq_custom(InputSize::Large, 64, 32);
        let l = w.kernel_specs()[0].launch();
        assert_eq!(l.grid_blocks, 64);
        assert_eq!(l.threads_per_block, 32);
    }

    #[test]
    fn per_block_work_conserved_across_block_counts() {
        use hetsim_gpu::kernel::KernelModel;
        // Total streamed lines should stay ~constant when the grid shrinks.
        let w4096 = vector_seq_custom(InputSize::Large, 4096, 256);
        let w16 = vector_seq_custom(InputSize::Large, 16, 256);
        let lines = |w: &Workload| {
            let k = &w.kernel_specs()[0];
            k.launch().grid_blocks * k.stream_bytes_per_block() / LINE
        };
        let l4096 = lines(&w4096) as f64;
        let l16 = lines(&w16) as f64;
        assert!(
            (l16 / l4096 - 1.0).abs() < 0.05,
            "streamed lines {l4096} vs {l16}"
        );
    }

    #[test]
    fn conv_kernels_declare_halo() {
        let k2 = conv2d(InputSize::Large);
        let k3 = conv3d(InputSize::Large);
        use hetsim_gpu::kernel::KernelModel;
        let count = |k: &KernelSpec, staged: bool| {
            let mut v = Vec::new();
            if staged {
                k.staged_stream_accesses(0, 0, &mut v);
            } else {
                k.stream_accesses(0, 0, &mut v);
            }
            v.len()
        };
        let k2k = &k2.kernel_specs()[0];
        assert_eq!(count(k2k, true), 3 * count(k2k, false));
        let k3k = &k3.kernel_specs()[0];
        assert_eq!(count(k3k, true), 4 * count(k3k, false));
    }

    #[test]
    fn gemm_grid_matches_tiling() {
        use hetsim_gpu::kernel::KernelModel;
        let g = gemm(InputSize::Large);
        let k = &g.kernel_specs()[0];
        assert_eq!(k.launch().grid_blocks, (8192 / 32) * (8192 / 32));
        assert_eq!(k.tiles_per_block(), 8192 / 32);
    }

    #[test]
    fn all_micro_constructible_at_all_sizes() {
        for size in InputSize::ALL {
            for w in [
                vector_seq(size),
                vector_rand(size),
                saxpy(size),
                gemv(size),
                gemm(size),
                conv2d(size),
                conv3d(size),
            ] {
                assert!(!w.kernels().is_empty());
                assert!(w.footprint() > 0);
            }
        }
    }
}
