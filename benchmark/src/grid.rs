//! The batch workloads: `paper_grid`, `grid_replay` and `uvm_mega`.
//!
//! Their inputs are the paper's fixed grids, so the seed changes nothing
//! and their digests are the same at every seed.
//!
//! A figure is regenerated the way `hetsim-cli figures` does it, split at
//! the memo: every cell's base run is first computed (or loaded) on its
//! own, then the figure producer runs on the warm memo. That is the work a
//! cold `figures::fig7` call does, and it lets every cell be timed as a
//! segment of its own.

use crate::harness::TempDir;
use crate::spans::Spans;
use crate::stats::digest;
use crate::{BenchWorkload, Pass, Segment};
use hetsim::figures::{self, SuiteComparison};
use hetsim::gpu::exec::{ExecEnv, KernelExecutor};
use hetsim::headline::Headline;
use hetsim::runtime::{GpuProgram, RunReport, TransferMode};
use hetsim::workloads::{suite, InputSize, Workload};
use hetsim::{cache, verify, CacheKey, DiskCache, Experiment, MeanReport};
use std::fmt::Debug;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One of the paper's two suite figures.
#[derive(Debug, Clone, Copy)]
enum Figure {
    /// Fig 7: the 7 microbenchmarks.
    Fig7,
    /// Fig 8: the 14 applications.
    Fig8,
}

/// One (figure, size) sub-grid: every workload of the figure's suite under
/// all five transfer modes.
struct SubGrid {
    figure: Figure,
    size: InputSize,
    workloads: Vec<Workload>,
}

impl SubGrid {
    fn label(&self) -> String {
        let fig = match self.figure {
            Figure::Fig7 => "fig7",
            Figure::Fig8 => "fig8",
        };
        format!("{fig}/{}", self.size.name())
    }

    fn cells(&self) -> impl Iterator<Item = (&Workload, TransferMode)> {
        self.workloads
            .iter()
            .flat_map(|w| TransferMode::ALL.into_iter().map(move |m| (w, m)))
    }

    /// The figure's data producer.
    fn regenerate(&self, exp: &Experiment) -> SuiteComparison {
        match self.figure {
            Figure::Fig7 => figures::fig7(exp, self.size),
            Figure::Fig8 => figures::fig8_at(exp, self.size),
        }
    }
}

/// Checks every spec of a suite, as `hetsim-cli --verify-specs` does before
/// a sweep: a dirty spec stops the run before any pass.
fn checked(workloads: Vec<Workload>) -> Vec<Workload> {
    for w in &workloads {
        if let Err(diagnostics) = verify::enforce(&verify::check_program(w), false) {
            panic!("{} fails its spec check:\n{diagnostics}", w.name());
        }
    }
    workloads
}

/// The printed outputs of a sub-grid: its normalized table and headline.
fn tables(s: &SuiteComparison) -> String {
    format!("{}\n{}", s.to_table(), Headline::from_suite(s).to_table())
}

/// A cell's result, byte for byte as `Debug` prints it.
fn digest_debug(x: &impl Debug) -> u64 {
    digest(format!("{x:?}").as_bytes())
}

/// Figs 7 and 8 at two sizes.
pub struct FigureGrid {
    subgrids: Vec<SubGrid>,
}

impl FigureGrid {
    fn new(sizes: [InputSize; 2]) -> Self {
        let mut subgrids = Vec::new();
        for figure in [Figure::Fig7, Figure::Fig8] {
            for size in sizes {
                let workloads = checked(match figure {
                    Figure::Fig7 => suite::micro_suite(size),
                    Figure::Fig8 => suite::app_suite(size),
                });
                subgrids.push(SubGrid {
                    figure,
                    size,
                    workloads,
                });
            }
        }
        FigureGrid { subgrids }
    }

    /// One segment per cell (its base run, simulated or loaded), then one
    /// per figure regenerated on the warm memo. `clean` is asked after each
    /// segment whether its checks held.
    fn regenerate(&self, exp: &Experiment, mut clean: impl FnMut() -> bool) -> Pass {
        let mut segments = Vec::new();
        for g in &self.subgrids {
            for (w, mode) in g.cells() {
                let t = Instant::now();
                let report = exp.base_run(w, mode);
                let mut seg = Segment::new(t.elapsed(), 1, digest_debug(&report));
                seg.failed = !clean();
                segments.push(seg);
            }
            let t = Instant::now();
            let suite = g.regenerate(exp);
            let printed = tables(&suite);
            let mut seg = Segment::new(t.elapsed(), 0, digest(printed.as_bytes()));
            seg.failed = !clean();
            segments.push(seg);
        }
        Pass { segments }
    }

    /// [`FigureGrid::regenerate`] with spans: `cell` makes each base run
    /// inside spans of its own, the figure producer runs as
    /// `core.aggregate` and its tables render as `core.report`, and a
    /// `probe.memo_hit` re-reads every cell from the warm memo. Digests
    /// are `probe.digest`: the benchmark's check, not the simulator's work.
    fn traced<'g>(
        &'g self,
        exp: &Experiment,
        spans: &mut Spans,
        mut clean: impl FnMut() -> bool,
        mut cell: impl FnMut(&mut Spans, String, u64, &'g Workload, TransferMode) -> RunReport,
    ) -> Pass {
        let mut segments = Vec::new();
        let mut op = 0u64;
        for (i, g) in self.subgrids.iter().enumerate() {
            spans.scope("grid", g.label(), i as u64, |sp| {
                for (w, mode) in g.cells() {
                    let label = format!("{}/{}/{}", g.label(), w.name(), mode.name());
                    let report = cell(sp, label.clone(), op, w, mode);
                    let digest = sp
                        .scope("probe.digest", label, op, |_| digest_debug(&report))
                        .1;
                    let mut seg = Segment::traced(1, digest);
                    seg.failed = !clean();
                    segments.push(seg);
                    op += 1;
                }
                let cells = g.cells().count() as f64;
                let (agg, suite) = sp.scope("core.aggregate", g.label(), op, |_| g.regenerate(exp));
                sp.attr(agg, "cells", cells);
                let (_, printed) = sp.scope("core.report", g.label(), op, |_| tables(&suite));
                let digest = sp
                    .scope("probe.digest", g.label(), op, |_| {
                        digest(printed.as_bytes())
                    })
                    .1;
                let (hit, ()) = sp.scope("probe.memo_hit", g.label(), op, |_| {
                    for (w, mode) in g.cells() {
                        black_box(exp.base_run(w, mode));
                    }
                });
                sp.attr(hit, "cells", cells);
                let mut seg = Segment::traced(0, digest);
                seg.failed = !clean();
                segments.push(seg);
                op += 1;
            });
        }
        Pass { segments }
    }
}

/// A cold base run inside a `runtime.run_base` span, with the executor
/// probe as its child and the UVM work counts as attributes.
fn traced_base_run(
    spans: &mut Spans,
    exp: &Experiment,
    exec: &KernelExecutor,
    label: String,
    op: u64,
    w: &Workload,
    mode: TransferMode,
) -> RunReport {
    let (id, report) = spans.scope("runtime.run_base", label.clone(), op, |sp| {
        let report = exp.base_run(w, mode);
        probe_execute(sp, exec, label, op, w, mode);
        report
    });
    if mode.uses_uvm() {
        let chunk = exp.runner().device().uvm.chunk_size;
        let u = &report.counters.uvm;
        let pages =
            u.pages_migrated() + u.pages_prefetched() + u.pages_heuristic() + u.pages_evicted();
        spans.attr(id, "uvm", 1.0);
        // The runtime replays a temporal touch sequence when the program
        // models one, and walks buffer ranges otherwise.
        let sequenced = w.page_touches(0, 0, chunk).is_some();
        spans.attr(id, "seq", if sequenced { 1.0 } else { 0.0 });
        spans.attr(id, "pages", pages as f64);
        spans.attr(id, "batches", u.fault_batches() as f64);
    }
    report
}

/// Re-executes a cell's kernels in the standard environment, once each:
/// the executor's share of the cell's base run, and its L1 accesses. UVM
/// cells execute with translation and L2-warming adjustments inside
/// `run_base`, so their probe approximates the executor's share.
fn probe_execute(
    spans: &mut Spans,
    exec: &KernelExecutor,
    label: String,
    op: u64,
    w: &Workload,
    mode: TransferMode,
) {
    let (id, l1) = spans.scope("probe.execute", label, op, |_| {
        let env = ExecEnv::standard();
        w.kernels()
            .iter()
            .map(|k| {
                exec.execute(*k, mode.kernel_style(k.standard_style()), &env)
                    .l1
                    .accesses()
            })
            .sum::<u64>()
    });
    spans.attr(id, "l1", l1 as f64);
}

fn executor(exp: &Experiment) -> KernelExecutor {
    KernelExecutor::new(exp.runner().device().gpu.clone())
}

/// `paper_grid`: regenerates Figs 7 and 8 cold, with the paper's 30-run
/// method, on a fresh [`Experiment`] every pass.
pub struct PaperGrid {
    sizes: [InputSize; 2],
}

impl PaperGrid {
    /// Large and Super as in the paper, or Tiny and Small for smoke runs.
    pub fn new(smoke: bool) -> Self {
        let sizes = if smoke {
            [InputSize::Tiny, InputSize::Small]
        } else {
            [InputSize::Large, InputSize::Super]
        };
        PaperGrid { sizes }
    }
}

impl BenchWorkload for PaperGrid {
    type State = FigureGrid;

    fn name(&self) -> &'static str {
        "paper_grid"
    }

    fn unit(&self) -> &'static str {
        "cell"
    }

    fn seeded(&self) -> bool {
        false
    }

    fn prepare(&self, _seed: u64) -> FigureGrid {
        FigureGrid::new(self.sizes)
    }

    fn pass(&self, grid: &mut FigureGrid) -> Pass {
        grid.regenerate(&Experiment::new(), || true)
    }

    fn traced_pass(&self, grid: &mut FigureGrid, spans: &mut Spans) -> Pass {
        spans
            .scope("pass", self.name(), 0, |sp| {
                let exp = Experiment::new();
                let exec = executor(&exp);
                grid.traced(
                    &exp,
                    sp,
                    || true,
                    |sp, label, op, w, mode| traced_base_run(sp, &exp, &exec, label, op, w, mode),
                )
            })
            .1
    }
}

/// `grid_replay`: the same figures replayed from a disk cache that set-up
/// filled once — the cache's read path, against the fill's write path.
pub struct GridReplay {
    sizes: [InputSize; 2],
}

impl GridReplay {
    /// The grid of [`PaperGrid::new`] at the same sizes.
    pub fn new(smoke: bool) -> Self {
        GridReplay {
            sizes: PaperGrid::new(smoke).sizes,
        }
    }
}

/// A filled disk cache and the grid to replay from it.
pub struct ReplayState {
    grid: FigureGrid,
    disk: Arc<DiskCache>,
    _dir: TempDir,
}

/// A check that no cache lookup has missed since the last call.
fn no_new_misses(disk: &DiskCache) -> impl FnMut() -> bool + '_ {
    let mut seen = disk.stats().misses;
    move || {
        let now = disk.stats().misses;
        let clean = now == seen;
        seen = now;
        clean
    }
}

impl BenchWorkload for GridReplay {
    type State = ReplayState;

    fn name(&self) -> &'static str {
        "grid_replay"
    }

    fn unit(&self) -> &'static str {
        "cell"
    }

    fn seeded(&self) -> bool {
        false
    }

    fn prepare(&self, _seed: u64) -> ReplayState {
        let grid = FigureGrid::new(self.sizes);
        let dir = TempDir::new("cache");
        let disk = Arc::new(DiskCache::at(dir.path()));
        grid.regenerate(&Experiment::new().with_cache(Arc::clone(&disk)), || true);
        ReplayState {
            grid,
            disk,
            _dir: dir,
        }
    }

    fn pass(&self, st: &mut ReplayState) -> Pass {
        let exp = Experiment::new().with_cache(Arc::clone(&st.disk));
        st.grid.regenerate(&exp, no_new_misses(&st.disk))
    }

    fn traced_pass(&self, st: &mut ReplayState, spans: &mut Spans) -> Pass {
        let mut loaded: Vec<(&Workload, TransferMode, RunReport)> = Vec::new();
        let pass = spans
            .scope("pass", self.name(), 0, |sp| {
                let exp = Experiment::new().with_cache(Arc::clone(&st.disk));
                st.grid.traced(
                    &exp,
                    sp,
                    no_new_misses(&st.disk),
                    |sp, label, op, w, mode| {
                        let (_, report) =
                            sp.scope("cache.load", label, op, |_| exp.base_run(w, mode));
                        loaded.push((w, mode, report.clone()));
                        report
                    },
                )
            })
            .1;
        // The write path, measured on the same reports the replay loaded.
        let device_hash = cache::device_fingerprint(Experiment::new().runner().device());
        let dir = TempDir::new("store");
        let store = DiskCache::at(dir.path());
        let (id, ()) = spans.scope("probe.cache_store", self.name(), 0, |_| {
            for (w, mode, report) in &loaded {
                store.store(&CacheKey::new(&w.memo_key(), *mode, device_hash), report);
            }
        });
        let bytes = store.scan().map_or(0, |s| s.bytes);
        spans.attr(id, "entries", loaded.len() as f64);
        spans.attr(id, "bytes", bytes as f64);
        pass
    }
}

/// `uvm_mega`: every registry workload at Mega under the two demand-paged
/// modes, through [`Experiment::mean`] — UVM fault replay dominates.
pub struct UvmMega {
    size: InputSize,
}

impl UvmMega {
    /// Mega, or Small for smoke runs.
    pub fn new(smoke: bool) -> Self {
        UvmMega {
            size: if smoke {
                InputSize::Small
            } else {
                InputSize::Mega
            },
        }
    }
}

/// The UVM modes `uvm_mega` runs: demand paging with and without
/// prefetch-plus-async-copy.
const UVM_MODES: [TransferMode; 2] = [TransferMode::Uvm, TransferMode::UvmPrefetchAsync];

/// The registry at one size.
pub struct Registry {
    workloads: Vec<Workload>,
}

impl Registry {
    fn cells(&self) -> impl Iterator<Item = (&Workload, TransferMode)> {
        self.workloads
            .iter()
            .flat_map(|w| UVM_MODES.into_iter().map(move |m| (w, m)))
    }
}

impl BenchWorkload for UvmMega {
    type State = Registry;

    fn name(&self) -> &'static str {
        "uvm_mega"
    }

    fn unit(&self) -> &'static str {
        "cell"
    }

    fn seeded(&self) -> bool {
        false
    }

    fn prepare(&self, _seed: u64) -> Registry {
        Registry {
            workloads: checked(
                suite::all_entries()
                    .iter()
                    .map(|e| (e.build)(self.size))
                    .collect(),
            ),
        }
    }

    fn pass(&self, reg: &mut Registry) -> Pass {
        let exp = Experiment::new();
        let segments = reg
            .cells()
            .map(|(w, mode)| {
                let t = Instant::now();
                let mean = exp.mean(w, mode);
                Segment::new(t.elapsed(), 1, digest_debug(&mean))
            })
            .collect();
        Pass { segments }
    }

    fn traced_pass(&self, reg: &mut Registry, spans: &mut Spans) -> Pass {
        spans
            .scope("pass", self.name(), 0, |sp| {
                let exp = Experiment::new();
                let exec = executor(&exp);
                let segments = reg
                    .cells()
                    .enumerate()
                    .map(|(i, (w, mode))| {
                        let label = format!("{}/{}", w.name(), mode.name());
                        let op = i as u64;
                        sp.scope("cell", label.clone(), op, |sp| {
                            traced_base_run(sp, &exp, &exec, label.clone(), op, w, mode);
                            let (agg, mean): (_, MeanReport) =
                                sp.scope("core.aggregate", label.clone(), op, |_| {
                                    exp.mean(w, mode)
                                });
                            sp.attr(agg, "cells", 1.0);
                            let (hit, ()) = sp.scope("probe.memo_hit", label.clone(), op, |_| {
                                black_box(exp.base_run(w, mode));
                            });
                            sp.attr(hit, "cells", 1.0);
                            let digest = sp
                                .scope("probe.digest", label, op, |_| digest_debug(&mean))
                                .1;
                            Segment::traced(1, digest)
                        })
                        .1
                    })
                    .collect();
                Pass { segments }
            })
            .1
    }
}
