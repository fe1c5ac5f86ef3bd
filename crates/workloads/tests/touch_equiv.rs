//! Differential test: [`TouchModel::emit`] streams exactly the sequence
//! the `Vec`-returning `TouchModel::touches` it replaced built.
//!
//! The reference model keeps that method verbatim (as a free function, with
//! its private helpers). Every model variant is compared over every kernel
//! and every round until both sides converge, including the round where
//! they do: the registry's bfs, kmeans and pathfinder at Tiny, Small and
//! Large, plus parameter corners — lanes that do not divide the data, a
//! burst longer than a lane, a halo wider than a band, more bands than
//! chunks.

use hetsim_engine::rng::SimRng;
use hetsim_runtime::{BufferRole, BufferSpec, GpuProgram, PageTouch};
use hetsim_workloads::{suite, InputSize, TouchModel};

const CHUNK: u64 = 64 << 10;

/// Chunk count of a buffer at a chunk size.
fn chunks_of(b: &BufferSpec, chunk_size: u64) -> u64 {
    b.bytes.div_ceil(chunk_size).max(1)
}

/// Frontier size at `level` (the model's private schedule, verbatim).
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

/// The `Vec`-returning generator the streaming one replaced, verbatim.
fn touches(
    model: &TouchModel,
    workload: &str,
    kernel: usize,
    invocation: u64,
    chunk_size: u64,
    buffers: &[BufferSpec],
) -> Option<Vec<PageTouch>> {
    match *model {
        TouchModel::Frontier {
            graph,
            offsets,
            visited,
            out,
            levels,
        } => {
            if invocation >= levels {
                return None;
            }
            let mut rng = SimRng::seed_from_parts(
                &["hetsim.touch", workload, "frontier"],
                kernel as u64 * 97 + invocation,
            );
            let n_graph = chunks_of(&buffers[graph], chunk_size);
            let n_off = chunks_of(&buffers[offsets], chunk_size);
            let n_vis = chunks_of(&buffers[visited], chunk_size);
            let n_out = chunks_of(&buffers[out], chunk_size);
            let frontier = frontier_size(invocation, n_graph);
            let mut seq = Vec::new();
            for e in 0..frontier {
                // Consult the row offsets for this vertex.
                seq.push(PageTouch {
                    buffer: offsets,
                    chunk: rng.below(n_off),
                    write: false,
                });
                // Walk a short, data-dependent run of adjacency chunks.
                let run = 1 + rng.below(3);
                let start = rng.below(n_graph);
                for r in 0..run {
                    seq.push(PageTouch {
                        buffer: graph,
                        chunk: (start + r) % n_graph,
                        write: false,
                    });
                }
                // Mark the vertex visited.
                seq.push(PageTouch {
                    buffer: visited,
                    chunk: rng.below(n_vis),
                    write: true,
                });
                if e % 4 == 0 {
                    seq.push(PageTouch {
                        buffer: out,
                        chunk: rng.below(n_out),
                        write: true,
                    });
                }
            }
            Some(seq)
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
                return None;
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
            let mut seq = Vec::new();
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
                        seq.push(PageTouch {
                            buffer: data,
                            chunk: c,
                            write: false,
                        });
                        emitted += 1;
                        if emitted.is_multiple_of(table_interval.max(1)) {
                            seq.push(PageTouch {
                                buffer: table,
                                chunk: rng.below(n_table),
                                write: false,
                            });
                        }
                        if c % 8 == 0 {
                            seq.push(PageTouch {
                                buffer: out,
                                chunk: c * n_out / n_data,
                                write: true,
                            });
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
                seq.push(PageTouch {
                    buffer: table,
                    chunk: t,
                    write: true,
                });
            }
            Some(seq)
        }
        TouchModel::Wavefront {
            grid,
            out,
            rows,
            halo_chunks,
        } => {
            if invocation >= rows {
                return None;
            }
            let n_grid = chunks_of(&buffers[grid], chunk_size);
            let n_out = chunks_of(&buffers[out], chunk_size);
            let band = n_grid.div_ceil(rows).max(1);
            let start = invocation * band;
            if start >= n_grid {
                return None;
            }
            let end = if invocation == rows - 1 {
                n_grid
            } else {
                (start + band).min(n_grid)
            };
            let mut seq = Vec::new();
            // Halo: the tail of the previous band stays live as input
            // to this one.
            for h in start.saturating_sub(halo_chunks)..start {
                seq.push(PageTouch {
                    buffer: grid,
                    chunk: h,
                    write: false,
                });
            }
            for c in start..end {
                seq.push(PageTouch {
                    buffer: grid,
                    chunk: c,
                    write: false,
                });
            }
            seq.push(PageTouch {
                buffer: out,
                chunk: (invocation * n_out / rows).min(n_out - 1),
                write: true,
            });
            Some(seq)
        }
    }
}

/// Compares the streamed and collected rounds of `kernels` kernels until
/// both converge; returns the number of rounds that existed.
fn assert_streams_match(
    model: &TouchModel,
    workload: &str,
    kernels: usize,
    chunk_size: u64,
    buffers: &[BufferSpec],
) -> u64 {
    let mut rounds = 0;
    for kernel in 0..kernels {
        for invocation in 0.. {
            let mut streamed = Vec::new();
            let more = model.emit(
                workload,
                kernel,
                invocation,
                chunk_size,
                buffers,
                &mut |t| streamed.push(t),
            );
            let expected = touches(model, workload, kernel, invocation, chunk_size, buffers);
            let ctx = format!("{workload} {model:?} kernel {kernel} round {invocation}");
            assert_eq!(more, expected.is_some(), "convergence of {ctx}");
            match expected {
                Some(seq) => assert_eq!(streamed, seq, "touches of {ctx}"),
                None => {
                    assert!(
                        streamed.is_empty(),
                        "a converged round emits nothing: {ctx}"
                    );
                    break;
                }
            }
            rounds += 1;
            assert!(invocation < 10_000, "{ctx} never converges");
        }
    }
    rounds
}

#[test]
fn registry_models_stream_their_sequences() {
    for size in [InputSize::Tiny, InputSize::Small, InputSize::Large] {
        for name in hetsim_workloads::IRREGULAR_TRIO {
            let w = suite::by_name(name, size).expect("registered");
            let model = w.touch_model().expect("trio workloads carry models");
            let rounds = assert_streams_match(model, name, w.kernels().len(), CHUNK, &w.buffers());
            assert!(rounds > 0, "{name} @ {size} has rounds");
            // The program-level stream and its collected form agree too.
            for inv in 0..rounds.min(4) {
                let mut streamed = Vec::new();
                let more = w.for_each_page_touch(0, inv, CHUNK, &mut |t| streamed.push(t));
                assert_eq!(
                    more.then_some(streamed),
                    w.page_touches(0, inv, CHUNK),
                    "{name} @ {size} round {inv}"
                );
            }
        }
    }
}

#[test]
fn parameter_corners_stream_their_sequences() {
    let buf = |chunks: u64, role| BufferSpec::new("b", chunks * CHUNK, role);
    let retouch_buffers = |data| {
        vec![
            buf(data, BufferRole::Input),
            buf(3, BufferRole::InOut),
            buf(5, BufferRole::Output),
        ]
    };
    let retouch = |lanes, burst, table_interval| TouchModel::Retouch {
        data: 0,
        table: 1,
        out: 2,
        passes: 3,
        lanes,
        burst,
        table_interval,
    };
    let cases = [
        // Lanes that do not divide the data.
        (retouch(7, 2, 5), retouch_buffers(100)),
        // A burst longer than a lane (lane length 3).
        (retouch(8, 5, 4), retouch_buffers(20)),
        // More lanes than chunks, degenerate burst and interval.
        (retouch(16, 0, 0), retouch_buffers(5)),
        // A halo wider than a band (band of 3 chunks).
        (
            TouchModel::Wavefront {
                grid: 0,
                out: 1,
                rows: 10,
                halo_chunks: 7,
            },
            vec![buf(30, BufferRole::Input), buf(4, BufferRole::Output)],
        ),
        // More bands than chunks: converges before `rows`.
        (
            TouchModel::Wavefront {
                grid: 0,
                out: 1,
                rows: 9,
                halo_chunks: 2,
            },
            vec![buf(4, BufferRole::Input), buf(1, BufferRole::Output)],
        ),
        // A graph smaller than its frontier cap.
        (
            TouchModel::Frontier {
                graph: 1,
                offsets: 0,
                visited: 2,
                out: 3,
                levels: 9,
            },
            vec![
                buf(1, BufferRole::Input),
                buf(2, BufferRole::Input),
                buf(1, BufferRole::InOut),
                buf(1, BufferRole::Output),
            ],
        ),
    ];
    for (model, buffers) in &cases {
        for kernels in [1, 2] {
            assert!(assert_streams_match(model, "corner", kernels, CHUNK, buffers) > 0);
        }
    }
}
