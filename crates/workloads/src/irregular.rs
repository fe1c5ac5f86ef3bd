//! Irregular-access workloads and the temporal page-touch models that
//! drive them.
//!
//! The paper's central UVM finding (§4.1.1) is that demand migration costs
//! are dominated by *how* a kernel touches pages, not just how many: the
//! driver services far faults in 256-entry batches, and a batch is also
//! retired when the fault stream goes quiet, so scattered access patterns
//! pay the full ~38 µs batch latency for a handful of faults while
//! streaming patterns amortize it over a full buffer. The address-ordered
//! range walk the runtime uses by default cannot express that difference —
//! it touches every chunk of every buffer in address order, which always
//! produces maximally dense fault streams.
//!
//! A [`TouchModel`] closes the gap: it streams the chunk-granular touch
//! sequence of one kernel invocation *in temporal order* into a sink, and
//! the runtime feeds each touch straight into the UVM fault batcher
//! ([`touch_sequence`](hetsim_uvm::UvmSpace::touch_sequence)), so a round
//! — 590k touches per kmeans kernel at Mega — is never materialized.
//! Three archetypes cover the paper's irregular behaviours:
//!
//! * [`TouchModel::Frontier`] — data-dependent graph expansion ([`bfs`]):
//!   each level touches a scattered, RNG-drawn set of adjacency-list
//!   chunks with short (1–3 chunk) runs. Fault batches stay under-filled,
//!   the region-growing speculation never gets traction, and explicit
//!   prefetch covers almost nothing.
//! * [`TouchModel::Retouch`] — iterative full-dataset passes
//!   (`kmeans`): every pass re-touches the whole point set in a
//!   lane-interleaved order that models concurrent thread blocks streaming
//!   disjoint slices. The first pass faults densely; later passes are
//!   fault-free re-touches *unless* memory pressure evicted chunks in
//!   between, which shows up as refaults (thrashing).
//! * [`TouchModel::Wavefront`] — banded sweeps with halo reuse
//!   (`pathfinder`): each invocation walks one contiguous band plus the
//!   tail of the previous band. Sequential within the band, so speculation
//!   covers most of it — the control case showing the batcher at its best.
//!
//! All randomness is drawn from [`SimRng`] seeded by
//! `(workload, model, kernel, invocation)`, so touch sequences are
//! bit-for-bit reproducible and invariant under tracing.

use crate::size::InputSize;
use crate::spec::{KernelSpec, StreamPattern, Workload, LINE};
use hetsim_engine::rng::SimRng;
use hetsim_gpu::kernel::{KernelStyle, LaunchConfig, TileOps};
use hetsim_runtime::{BufferRole, BufferSpec, PageTouch};
use hetsim_uvm::prefetch::Regularity;

const BLOCKS: u64 = 4096;
const THREADS: u32 = 256;
const SHARED: u64 = 32 * 1024;
const TILE_LINES: u64 = 128;

/// Number of frontier-expansion levels the [`bfs`] model runs.
pub const BFS_LEVELS: u64 = 12;

/// A temporal page-touch model: generates the ordered chunk-touch sequence
/// of one kernel invocation.
///
/// Attached to a [`Workload`] via
/// [`with_touch_model`](Workload::with_touch_model); the runtime replays
/// the sequence through the UVM fault batcher, so touch *order* — bursts,
/// gaps, revisits — decides batching, speculation, and thrashing, exactly
/// the degrees of freedom the paper's irregular workloads exercise.
///
/// Buffer fields are indices into the workload's buffer list; chunk
/// indices the model emits are buffer-relative (the runtime clamps and
/// rebases them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TouchModel {
    /// Frontier-driven graph expansion (bfs): per level, a scattered set
    /// of adjacency chunks in short runs, plus visited-bitmap writes.
    Frontier {
        /// Adjacency-list buffer (the big, scattered one).
        graph: usize,
        /// Row-offset buffer (small, consulted per frontier vertex).
        offsets: usize,
        /// Visited-bitmap buffer (written per visited vertex).
        visited: usize,
        /// Per-vertex level output buffer.
        out: usize,
        /// Number of expansion levels (= modelled kernel invocations).
        levels: u64,
    },
    /// Iterative full-dataset re-touch (kmeans): each pass streams the
    /// whole dataset in lane-interleaved bursts with periodic small-table
    /// reads, then writes the updated table back (the centroid update).
    Retouch {
        /// The dataset streamed every pass.
        data: usize,
        /// The small shared table (centroids) consulted throughout.
        table: usize,
        /// Per-element output buffer.
        out: usize,
        /// Number of full passes before the model reports convergence.
        passes: u64,
        /// Concurrent lanes the dataset is interleaved across (models
        /// thread blocks streaming disjoint slices simultaneously).
        lanes: u64,
        /// Consecutive chunks each lane advances per turn.
        burst: u64,
        /// One table read is interleaved per this many data touches.
        table_interval: u64,
    },
    /// Banded wavefront sweep with halo reuse (pathfinder): invocation
    /// `i` walks band `i` sequentially plus the tail of band `i - 1`.
    Wavefront {
        /// The grid swept band by band.
        grid: usize,
        /// The result buffer (one write per band).
        out: usize,
        /// Number of bands (= modelled kernel invocations).
        rows: u64,
        /// Chunks of the previous band re-touched as halo.
        halo_chunks: u64,
    },
}

/// Chunk count of a buffer at a chunk size.
fn chunks_of(b: &BufferSpec, chunk_size: u64) -> u64 {
    b.bytes.div_ceil(chunk_size).max(1)
}

impl TouchModel {
    /// Streams the touch sequence of `kernel`'s `invocation`-th launch into
    /// `sink`, in temporal order. Returns `false`, emitting nothing, when
    /// the model has converged (no further rounds add anything) — the
    /// contract of [`GpuProgram::for_each_page_touch`](hetsim_runtime::GpuProgram::for_each_page_touch).
    ///
    /// Deterministic in `(workload, kernel, invocation, chunk_size)`.
    pub fn emit(
        &self,
        workload: &str,
        kernel: usize,
        invocation: u64,
        chunk_size: u64,
        buffers: &[BufferSpec],
        sink: &mut dyn FnMut(PageTouch),
    ) -> bool {
        let mut touch = |buffer, chunk, write| {
            sink(PageTouch {
                buffer,
                chunk,
                write,
            })
        };
        match *self {
            TouchModel::Frontier {
                graph,
                offsets,
                visited,
                out,
                levels,
            } => {
                if invocation >= levels {
                    return false;
                }
                let mut rng = SimRng::seed_from_parts(
                    &["hetsim.touch", workload, "frontier"],
                    kernel as u64 * 97 + invocation,
                );
                let n_graph = chunks_of(&buffers[graph], chunk_size);
                let n_off = chunks_of(&buffers[offsets], chunk_size);
                let n_vis = chunks_of(&buffers[visited], chunk_size);
                let n_out = chunks_of(&buffers[out], chunk_size);
                for e in 0..frontier_size(invocation, n_graph) {
                    // Consult the row offsets for this vertex.
                    touch(offsets, rng.below(n_off), false);
                    // Walk a short, data-dependent run of adjacency chunks.
                    let run = 1 + rng.below(3);
                    let start = rng.below(n_graph);
                    for r in 0..run {
                        touch(graph, (start + r) % n_graph, false);
                    }
                    // Mark the vertex visited.
                    touch(visited, rng.below(n_vis), true);
                    if e % 4 == 0 {
                        touch(out, rng.below(n_out), true);
                    }
                }
            }
            TouchModel::Retouch {
                data,
                table,
                out,
                passes,
                lanes,
                burst,
                table_interval,
            } => {
                if invocation >= passes {
                    return false;
                }
                let mut rng = SimRng::seed_from_parts(
                    &["hetsim.touch", workload, "retouch"],
                    kernel as u64 * 97 + invocation,
                );
                let n_data = chunks_of(&buffers[data], chunk_size);
                let n_table = chunks_of(&buffers[table], chunk_size);
                let n_out = chunks_of(&buffers[out], chunk_size);
                let lanes = lanes.max(1);
                let burst = burst.max(1);
                let lane_len = n_data.div_ceil(lanes);
                let mut emitted = 0u64;
                let mut turn = 0u64;
                loop {
                    let mut any = false;
                    for lane in 0..lanes {
                        let lane_start = lane * lane_len;
                        let lane_end = ((lane + 1) * lane_len).min(n_data);
                        let s = lane_start + turn * burst;
                        if s >= lane_end {
                            continue;
                        }
                        any = true;
                        for c in s..(s + burst).min(lane_end) {
                            touch(data, c, false);
                            emitted += 1;
                            if emitted.is_multiple_of(table_interval.max(1)) {
                                touch(table, rng.below(n_table), false);
                            }
                            if c % 8 == 0 {
                                touch(out, c * n_out / n_data, true);
                            }
                        }
                    }
                    if !any {
                        break;
                    }
                    turn += 1;
                }
                // Centroid update: each pass ends by writing the
                // accumulated means back to the shared table (which is why
                // the table buffer is InOut, not Input).
                for t in 0..n_table {
                    touch(table, t, true);
                }
            }
            TouchModel::Wavefront {
                grid,
                out,
                rows,
                halo_chunks,
            } => {
                if invocation >= rows {
                    return false;
                }
                let n_grid = chunks_of(&buffers[grid], chunk_size);
                let n_out = chunks_of(&buffers[out], chunk_size);
                let band = n_grid.div_ceil(rows).max(1);
                let start = invocation * band;
                if start >= n_grid {
                    return false;
                }
                let end = if invocation == rows - 1 {
                    n_grid
                } else {
                    (start + band).min(n_grid)
                };
                // Halo: the tail of the previous band stays live as input
                // to this one.
                for h in start.saturating_sub(halo_chunks)..start {
                    touch(grid, h, false);
                }
                for c in start..end {
                    touch(grid, c, false);
                }
                touch(out, (invocation * n_out / rows).min(n_out - 1), true);
            }
        }
        true
    }
}

/// Frontier size at `level`: quadruples from a single chunk up to a third
/// of the graph, then decays — the classic level-synchronous BFS ramp for
/// a small-diameter graph.
fn frontier_size(level: u64, n_graph: u64) -> u64 {
    let cap = (n_graph / 3).max(1);
    let mut f = 1u64;
    let mut l = 0;
    while l < level && f < cap {
        f = (f * 4).min(cap);
        l += 1;
    }
    while l < level {
        f = (f / 4).max(1);
        l += 1;
    }
    f
}

/// `bfs`: level-synchronous breadth-first search over a CSR graph — the
/// canonical frontier-driven irregular workload.
///
/// Each level expands a data-dependent frontier: row offsets are
/// consulted, scattered adjacency-list runs are walked, and the visited
/// bitmap is updated. Under UVM this produces exactly the fault stream the
/// paper's batching model punishes — scattered, bursty, with long quiet
/// gaps that retire batches under-filled — and gives explicit prefetch
/// almost nothing predictable to run ahead of.
pub fn bfs(size: InputSize) -> Workload {
    let total = size.mem_bytes();
    let offsets = total / 10;
    let graph = total * 7 / 10;
    let visited = total / 10;
    let levels_buf = total - offsets - graph - visited;
    let (tiles, lines) = crate::apps::tile_bytes(graph, BLOCKS, TILE_LINES);
    let e = crate::apps::elems(lines);
    let kernel = KernelSpec::new("bfs_expand", LaunchConfig::new(BLOCKS, THREADS, SHARED))
        .with_tiles(tiles)
        .with_stream(
            lines,
            StreamPattern::Random {
                region_lines: (graph / LINE).max(1),
            },
        )
        // Visited-bitmap probes: random reuse over a window far larger
        // than the L1.
        .with_local_reads(lines, (visited / LINE).max(1), true)
        .with_stores((lines / 4).max(1))
        .with_ops(TileOps::new(2.0 * e, 4.0 * e, 2.0 * e))
        .with_regularity(Regularity::Random)
        .with_standard_style(KernelStyle::Direct)
        .with_invocations(BFS_LEVELS);
    Workload::new(
        "bfs",
        vec![
            BufferSpec::new("row_offsets", offsets, BufferRole::Input),
            BufferSpec::new("col_indices", graph, BufferRole::Input),
            BufferSpec::new("visited", visited, BufferRole::InOut),
            BufferSpec::new("levels", levels_buf, BufferRole::Output),
        ],
        vec![kernel],
        1.0,
    )
    .with_touch_model(TouchModel::Frontier {
        graph: 1,
        offsets: 0,
        visited: 2,
        out: 3,
        levels: BFS_LEVELS,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_runtime::GpuProgram;

    const CHUNK: u64 = 64 << 10;

    /// Round `invocation` of kernel 0, collected; `None` once converged.
    fn collect(m: &TouchModel, invocation: u64, buffers: &[BufferSpec]) -> Option<Vec<PageTouch>> {
        let mut seq = Vec::new();
        m.emit("t", 0, invocation, CHUNK, buffers, &mut |t| seq.push(t))
            .then_some(seq)
    }

    #[test]
    fn bfs_buffers_cover_footprint() {
        let w = bfs(InputSize::Large);
        assert_eq!(w.footprint(), InputSize::Large.mem_bytes());
        assert_eq!(w.buffers().len(), 4);
    }

    #[test]
    fn bfs_touches_are_deterministic() {
        let w = bfs(InputSize::Medium);
        for inv in 0..BFS_LEVELS {
            let a = w.page_touches(0, inv, CHUNK).expect("level");
            let b = w.page_touches(0, inv, CHUNK).expect("level");
            assert_eq!(a, b, "level {inv}");
        }
        assert!(w.page_touches(0, BFS_LEVELS, CHUNK).is_none());
    }

    #[test]
    fn bfs_frontier_grows_then_decays() {
        let w = bfs(InputSize::Medium);
        let len = |inv| w.page_touches(0, inv, CHUNK).unwrap().len();
        assert!(len(1) > len(0), "frontier must ramp up");
        assert!(
            len(BFS_LEVELS - 1) < len(4),
            "frontier must decay after its peak"
        );
    }

    #[test]
    fn bfs_touches_are_scattered_not_sequential() {
        let w = bfs(InputSize::Medium);
        let seq = w.page_touches(0, 4, CHUNK).unwrap();
        let graph_chunks: Vec<u64> = seq
            .iter()
            .filter(|t| t.buffer == 1)
            .map(|t| t.chunk)
            .collect();
        let adjacent = graph_chunks.windows(2).filter(|w| w[1] == w[0] + 1).count();
        // Short runs exist (runs of 1-3 chunks average one adjacent pair
        // per two graph touches) but the stream as a whole must jump
        // around rather than stream.
        assert!(
            adjacent * 3 < graph_chunks.len() * 2,
            "stream too sequential"
        );
    }

    #[test]
    fn frontier_schedule_shape() {
        assert_eq!(frontier_size(0, 3000), 1);
        assert_eq!(frontier_size(1, 3000), 4);
        assert_eq!(frontier_size(2, 3000), 16);
        // Caps at a third of the graph.
        assert_eq!(frontier_size(5, 3000), 1000);
        // Decays afterwards.
        assert_eq!(frontier_size(6, 3000), 250);
        assert!(frontier_size(11, 3000) <= 4);
    }

    #[test]
    fn retouch_covers_every_data_chunk_each_pass() {
        let buffers = vec![
            BufferSpec::new("data", 100 * CHUNK, BufferRole::Input),
            BufferSpec::new("table", CHUNK, BufferRole::InOut),
            BufferSpec::new("out", 10 * CHUNK, BufferRole::Output),
        ];
        let m = TouchModel::Retouch {
            data: 0,
            table: 1,
            out: 2,
            passes: 3,
            lanes: 8,
            burst: 2,
            table_interval: 5,
        };
        let seq = collect(&m, 0, &buffers).unwrap();
        let mut data_chunks: Vec<u64> = seq
            .iter()
            .filter(|t| t.buffer == 0)
            .map(|t| t.chunk)
            .collect();
        data_chunks.sort_unstable();
        data_chunks.dedup();
        assert_eq!(data_chunks.len(), 100, "every data chunk touched");
        assert!(seq.iter().any(|t| t.buffer == 1), "table consulted");
        assert!(collect(&m, 3, &buffers).is_none());
    }

    #[test]
    fn retouch_interleaves_lanes() {
        let buffers = vec![
            BufferSpec::new("data", 64 * CHUNK, BufferRole::Input),
            BufferSpec::new("table", CHUNK, BufferRole::InOut),
            BufferSpec::new("out", 8 * CHUNK, BufferRole::Output),
        ];
        let m = TouchModel::Retouch {
            data: 0,
            table: 1,
            out: 2,
            passes: 1,
            lanes: 8,
            burst: 2,
            table_interval: 1000,
        };
        let seq = collect(&m, 0, &buffers).unwrap();
        let data: Vec<u64> = seq
            .iter()
            .filter(|t| t.buffer == 0)
            .map(|t| t.chunk)
            .collect();
        // First round visits the head of each lane: 0,1, 8,9, 16,17, ...
        assert_eq!(&data[..6], &[0, 1, 8, 9, 16, 17]);
    }

    #[test]
    fn wavefront_bands_tile_the_grid_with_halo() {
        let buffers = vec![
            BufferSpec::new("grid", 90 * CHUNK, BufferRole::Input),
            BufferSpec::new("out", 10 * CHUNK, BufferRole::Output),
        ];
        let m = TouchModel::Wavefront {
            grid: 0,
            out: 1,
            rows: 30,
            halo_chunks: 2,
        };
        let first = collect(&m, 0, &buffers).unwrap();
        // Band 0 has no previous band, so no halo.
        assert_eq!(first.iter().filter(|t| t.buffer == 0).count(), 3);
        let second = collect(&m, 1, &buffers).unwrap();
        let grid: Vec<u64> = second
            .iter()
            .filter(|t| t.buffer == 0)
            .map(|t| t.chunk)
            .collect();
        // Halo re-touches the tail of band 0, then walks band 1.
        assert_eq!(grid, vec![1, 2, 3, 4, 5]);
        // All 30 bands together cover the grid exactly once (plus halo).
        let mut all: Vec<u64> = (0..30)
            .flat_map(|i| collect(&m, i, &buffers).unwrap())
            .filter(|t| t.buffer == 0)
            .map(|t| t.chunk)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 90);
        assert!(collect(&m, 30, &buffers).is_none());
    }
}
