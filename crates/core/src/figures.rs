//! One data producer per paper figure.
//!
//! Every function takes an [`Experiment`] (so tests can shrink the run
//! count) and returns a typed data set with a `to_table()` renderer that
//! prints the same rows/series the paper plots. `hetsim-cli figures`
//! exports every figure from these producers, and the benchmark's
//! `paper_grid` workload times Figs 7 and 8 through them.

use crate::experiment::{Experiment, ModeComparison};
use crate::pool;
use hetsim_counters::report::{num, Table};
use hetsim_counters::InstClass;
use hetsim_engine::stats::{geomean, Summary};
use hetsim_engine::time::Nanos;
use hetsim_mem::carveout::Carveout;
use hetsim_runtime::{RunReport, TransferMode};
use hetsim_workloads::{micro, suite, InputSize};

/// Fig 4: overall-execution-time distributions of the microbenchmarks
/// across input sizes and modes.
#[derive(Debug, Clone)]
pub struct DistributionGrid {
    rows: Vec<DistributionRow>,
}

/// One cell of the Fig 4 grid.
#[derive(Debug, Clone)]
pub struct DistributionRow {
    /// Input size preset.
    pub size: InputSize,
    /// Workload name.
    pub workload: String,
    /// Transfer mode.
    pub mode: TransferMode,
    /// Summary of the per-run totals, nanoseconds.
    pub summary: Summary,
}

impl DistributionGrid {
    /// The rows.
    pub fn rows(&self) -> &[DistributionRow] {
        &self.rows
    }

    /// Coefficient of variation averaged over the five modes for one
    /// `(workload, size)` cell — the Fig 5 quantity.
    pub fn mean_cv(&self, workload: &str, size: InputSize) -> f64 {
        let cvs: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.workload == workload && r.size == size)
            .map(|r| r.summary.cv())
            .collect();
        if cvs.is_empty() {
            0.0
        } else {
            cvs.iter().sum::<f64>() / cvs.len() as f64
        }
    }

    /// Geometric mean of [`DistributionGrid::mean_cv`] over workloads at
    /// one size (the Fig 5 geo-mean bars).
    pub fn geomean_cv(&self, size: InputSize) -> f64 {
        let mut names: Vec<&str> = self.rows.iter().map(|r| r.workload.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        let cvs: Vec<f64> = names.iter().map(|w| self.mean_cv(w, size)).collect();
        geomean(&cvs)
    }

    /// Renders the grid (mean ± std per cell).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec!["size", "workload", "mode", "mean_ns", "std_ns", "cv"]);
        for r in &self.rows {
            t.row(vec![
                r.size.name().to_string(),
                r.workload.clone(),
                r.mode.name().to_string(),
                num(r.summary.mean()),
                num(r.summary.std()),
                format!("{:.4}", r.summary.cv()),
            ]);
        }
        t
    }
}

/// Fig 4: distributions of the 7 microbenchmarks at the given sizes.
///
/// The full `size × workload × mode` grid is flattened into one job list
/// and fanned over the [`pool`] workers; row order matches the serial
/// triple loop exactly.
pub fn fig4(exp: &Experiment, sizes: &[InputSize]) -> DistributionGrid {
    let mut cells = Vec::new();
    for &size in sizes {
        for entry in suite::micro_names() {
            for mode in TransferMode::ALL {
                cells.push((size, entry, mode));
            }
        }
    }
    let rows = pool::run(cells.len(), |i| {
        let (size, entry, mode) = cells[i];
        let w = (entry.build)(size);
        let reports = exp.distribution(&w, mode);
        let totals: Vec<Nanos> = reports.iter().map(|r| r.total()).collect();
        DistributionRow {
            size,
            workload: entry.name.to_string(),
            mode,
            summary: Summary::from_nanos(&totals),
        }
    });
    DistributionGrid { rows }
}

/// Fig 5: std/mean stability per workload and size, derived from the same
/// distributions as Fig 4.
pub fn fig5(grid: &DistributionGrid, sizes: &[InputSize]) -> Table {
    let mut names: Vec<String> = grid.rows().iter().map(|r| r.workload.clone()).collect();
    names.sort();
    names.dedup();
    let mut headers = vec!["workload".to_string()];
    headers.extend(sizes.iter().map(|s| s.name().to_string()));
    let mut t = Table::new(headers);
    for w in &names {
        let mut row = vec![w.clone()];
        row.extend(sizes.iter().map(|&s| format!("{:.4}", grid.mean_cv(w, s))));
        t.row(row);
    }
    let mut geo = vec!["geo-mean".to_string()];
    geo.extend(sizes.iter().map(|&s| format!("{:.4}", grid.geomean_cv(s))));
    t.row(geo);
    t
}

/// Fig 6: the per-run breakdown of `vector_seq` at Mega inputs, exposing
/// the unstable memcpy component.
#[derive(Debug, Clone)]
pub struct MegaBreakdown {
    runs: Vec<RunReport>,
}

impl MegaBreakdown {
    /// The per-run reports.
    pub fn runs(&self) -> &[RunReport] {
        &self.runs
    }

    /// CV of one component across runs.
    pub fn component_cv(&self, f: fn(&RunReport) -> Nanos) -> f64 {
        let xs: Vec<Nanos> = self.runs.iter().map(f).collect();
        Summary::from_nanos(&xs).cv()
    }

    /// Renders the per-run breakdown (the Fig 6 bars).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec!["run", "gpu_kernel_ns", "allocation_ns", "memcpy_ns"]);
        for (i, r) in self.runs.iter().enumerate() {
            t.row(vec![
                i.to_string(),
                r.kernel.as_nanos().to_string(),
                r.alloc.as_nanos().to_string(),
                r.memcpy.as_nanos().to_string(),
            ]);
        }
        t
    }
}

/// Fig 6: 30-run breakdown of `vector_seq` at Mega inputs.
pub fn fig6(exp: &Experiment) -> MegaBreakdown {
    let w = micro::vector_seq(InputSize::Mega);
    MegaBreakdown {
        runs: exp.distribution(&w, TransferMode::Standard),
    }
}

/// Figs 7/8: per-workload normalized mode comparisons for a whole suite.
#[derive(Debug, Clone)]
pub struct SuiteComparison {
    /// Input size the suite ran at.
    pub size: InputSize,
    comparisons: Vec<ModeComparison>,
}

impl SuiteComparison {
    /// Per-workload comparisons.
    pub fn comparisons(&self) -> &[ModeComparison] {
        &self.comparisons
    }

    /// The comparison for one workload.
    pub fn workload(&self, name: &str) -> Option<&ModeComparison> {
        self.comparisons.iter().find(|c| c.workload() == name)
    }

    /// Geometric-mean normalized total for a mode across the suite — the
    /// quantity behind the paper's "+21%/+22.5%" headlines.
    pub fn geomean_normalized(&self, mode: TransferMode) -> f64 {
        let xs: Vec<f64> = self
            .comparisons
            .iter()
            .map(|c| c.normalized_total(mode))
            .collect();
        geomean(&xs)
    }

    /// Geometric-mean percent improvement over standard (positive =
    /// faster).
    pub fn geomean_improvement_pct(&self, mode: TransferMode) -> f64 {
        (1.0 - self.geomean_normalized(mode)) * 100.0
    }

    /// Renders normalized totals per workload and mode.
    pub fn to_table(&self) -> Table {
        let mut headers = vec!["workload".to_string()];
        headers.extend(TransferMode::ALL.iter().map(|m| m.name().to_string()));
        let mut t = Table::new(headers);
        for c in &self.comparisons {
            let mut row = vec![c.workload().to_string()];
            row.extend(
                TransferMode::ALL
                    .iter()
                    .map(|&m| format!("{:.3}", c.normalized_total(m))),
            );
            t.row(row);
        }
        let mut geo = vec!["geo-mean".to_string()];
        geo.extend(
            TransferMode::ALL
                .iter()
                .map(|&m| format!("{:.3}", self.geomean_normalized(m))),
        );
        t.row(geo);
        t
    }
}

/// Fig 7: the 7 microbenchmarks compared across modes at one size
/// (the paper shows Large and Super).
pub fn fig7(exp: &Experiment, size: InputSize) -> SuiteComparison {
    SuiteComparison {
        size,
        comparisons: compare_suite(exp, suite::micro_suite(size)),
    }
}

/// Fans `compare_modes` over a suite's workloads on the [`pool`] workers;
/// output order matches the suite order. (Each job's inner five-mode
/// fan-out degrades to serial inside a worker, so workload-level
/// parallelism is what scales here.)
fn compare_suite(
    exp: &Experiment,
    workloads: Vec<hetsim_workloads::Workload>,
) -> Vec<ModeComparison> {
    pool::run(workloads.len(), |i| exp.compare_modes(&workloads[i]))
}

/// Fig 8: the 14 applications compared across modes at Super inputs.
pub fn fig8(exp: &Experiment) -> SuiteComparison {
    fig8_at(exp, InputSize::Super)
}

/// Fig 8 at an arbitrary size (tests use smaller inputs).
pub fn fig8_at(exp: &Experiment, size: InputSize) -> SuiteComparison {
    SuiteComparison {
        size,
        comparisons: compare_suite(exp, suite::app_suite(size)),
    }
}

/// The irregular-access study set (fault-batcher stress): bfs plus the
/// two Table 2 applications carrying temporal touch models.
pub const IRREGULAR_WORKLOADS: [&str; 3] = hetsim_workloads::IRREGULAR_TRIO;

/// The irregular study: bfs, kmeans, and pathfinder compared across all
/// five modes at one size. Complements Figs 7/8 with workloads whose
/// temporal page-touch sequences drive the UVM fault batcher directly —
/// the regime where `uvm_prefetch` gains shrink (bfs) and fault batches
/// retire under-filled.
pub fn irregular(exp: &Experiment, size: InputSize) -> SuiteComparison {
    SuiteComparison {
        size,
        comparisons: compare_suite(exp, suite::irregular_suite(size)),
    }
}

/// Figs 9/10: per-mode hardware counters for the three deep-dive
/// workloads (gemm, lud, yolov3).
#[derive(Debug, Clone)]
pub struct CounterComparison {
    rows: Vec<CounterRow>,
}

/// One (workload, mode) counter record.
#[derive(Debug, Clone)]
pub struct CounterRow {
    /// Workload name.
    pub workload: String,
    /// Transfer mode.
    pub mode: TransferMode,
    /// Control instructions (Fig 9a).
    pub control: u64,
    /// Integer instructions (Fig 9b).
    pub integer: u64,
    /// L1 global load miss rate (Fig 10a).
    pub load_miss_rate: f64,
    /// L1 global store miss rate (Fig 10b).
    pub store_miss_rate: f64,
}

impl CounterComparison {
    /// The rows.
    pub fn rows(&self) -> &[CounterRow] {
        &self.rows
    }

    /// One row.
    pub fn row(&self, workload: &str, mode: TransferMode) -> Option<&CounterRow> {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.mode == mode)
    }

    /// Renders instruction counts and miss rates.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec![
            "workload",
            "mode",
            "control_inst",
            "integer_inst",
            "load_miss_rate",
            "store_miss_rate",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.workload.clone(),
                r.mode.name().to_string(),
                r.control.to_string(),
                r.integer.to_string(),
                format!("{:.4}", r.load_miss_rate),
                format!("{:.4}", r.store_miss_rate),
            ]);
        }
        t
    }
}

/// The paper's three deep-dive workloads.
pub const DEEP_DIVE_WORKLOADS: [&str; 3] = ["gemm", "lud", "yolov3"];

/// Figs 9 and 10: instruction mix and L1 miss rates for gemm, lud, and
/// yolov3 across all five modes.
pub fn fig9_fig10(exp: &Experiment, size: InputSize) -> CounterComparison {
    let workloads: Vec<_> = DEEP_DIVE_WORKLOADS
        .iter()
        .map(|name| {
            (
                *name,
                suite::by_name(name, size).expect("deep-dive workload exists"),
            )
        })
        .collect();
    let mut cells = Vec::new();
    for (name, w) in &workloads {
        for mode in TransferMode::ALL {
            cells.push((*name, w, mode));
        }
    }
    let rows = pool::run(cells.len(), |i| {
        let (name, w, mode) = cells[i];
        let r = exp.base_run(w, mode);
        CounterRow {
            workload: name.to_string(),
            mode,
            control: r.counters.inst.get(InstClass::Control),
            integer: r.counters.inst.get(InstClass::Int),
            load_miss_rate: r.counters.l1.load_miss_rate(),
            store_miss_rate: r.counters.l1.store_miss_rate(),
        }
    });
    CounterComparison { rows }
}

/// Figs 11–13: a parameter sweep of `vector_seq` mode comparisons.
#[derive(Debug, Clone)]
pub struct SweepComparison {
    /// Swept parameter name.
    pub parameter: &'static str,
    points: Vec<(u64, ModeComparison)>,
}

impl SweepComparison {
    /// The sweep points.
    pub fn points(&self) -> &[(u64, ModeComparison)] {
        &self.points
    }

    /// Total time of `(param, mode)` normalized to `standard` at the first
    /// sweep point.
    pub fn normalized(&self, param: u64, mode: TransferMode) -> f64 {
        let reference = self.points[0]
            .1
            .mean_total(TransferMode::Standard)
            .as_nanos() as f64;
        let point = self
            .points
            .iter()
            .find(|(p, _)| *p == param)
            .expect("param in sweep");
        point.1.mean_total(mode).as_nanos() as f64 / reference
    }

    /// Kernel time of `(param, mode)` normalized to `standard`'s kernel at
    /// the first sweep point — where the paper's §5 sensitivities live
    /// (e.g. its 3.95× thread-count kernel swing).
    pub fn kernel_normalized(&self, param: u64, mode: TransferMode) -> f64 {
        use hetsim_runtime::report::Component;
        let reference = self.points[0]
            .1
            .mean(TransferMode::Standard)
            .component(Component::Kernel)
            .as_nanos() as f64;
        let point = self
            .points
            .iter()
            .find(|(p, _)| *p == param)
            .expect("param in sweep");
        point.1.mean(mode).component(Component::Kernel).as_nanos() as f64 / reference.max(1.0)
    }

    /// Renders normalized totals per point and mode.
    pub fn to_table(&self) -> Table {
        self.render(|p, m| self.normalized(p, m))
    }

    /// Renders normalized *kernel* times per point and mode.
    pub fn kernel_table(&self) -> Table {
        self.render(|p, m| self.kernel_normalized(p, m))
    }

    fn render(&self, f: impl Fn(u64, TransferMode) -> f64) -> Table {
        let mut headers = vec![self.parameter.to_string()];
        headers.extend(TransferMode::ALL.iter().map(|m| m.name().to_string()));
        let mut t = Table::new(headers);
        for (p, _) in &self.points {
            let mut row = vec![p.to_string()];
            row.extend(
                TransferMode::ALL
                    .iter()
                    .map(|&m| format!("{:.3}", f(*p, m))),
            );
            t.row(row);
        }
        t
    }
}

/// The paper's Fig 11 block-count sweep points.
pub const FIG11_BLOCKS: [u64; 9] = [4096, 2048, 1024, 512, 256, 128, 64, 32, 16];

/// Fig 11: sensitivity of `vector_seq` to the number of blocks
/// (256 threads per block).
pub fn fig11(exp: &Experiment, size: InputSize) -> SweepComparison {
    let points = pool::run(FIG11_BLOCKS.len(), |i| {
        let blocks = FIG11_BLOCKS[i];
        let w = micro::vector_seq_custom(size, blocks, 256);
        (blocks, exp.compare_modes(&w))
    });
    SweepComparison {
        parameter: "blocks",
        points,
    }
}

/// The paper's Fig 12 threads-per-block sweep points.
pub const FIG12_THREADS: [u64; 6] = [1024, 512, 256, 128, 64, 32];

/// Fig 12: sensitivity of `vector_seq` to threads per block (64 blocks).
pub fn fig12(exp: &Experiment, size: InputSize) -> SweepComparison {
    let points = pool::run(FIG12_THREADS.len(), |i| {
        let threads = FIG12_THREADS[i];
        let w = micro::vector_seq_custom(size, 64, threads as u32);
        (threads, exp.compare_modes(&w))
    });
    SweepComparison {
        parameter: "threads",
        points,
    }
}

/// Fig 13: sensitivity of `vector_seq` to the L1-cache/shared-memory
/// carveout (2 KB → 128 KB shared). The device carveout and the kernel's
/// shared-memory buffer move together, as in the paper.
pub fn fig13(exp: &Experiment, size: InputSize) -> SweepComparison {
    let sweep = Carveout::fig13_sweep();
    let points = pool::run(sweep.len(), |i| {
        let carveout = sweep[i];
        let mut device = exp.runner().device().clone();
        device.gpu = device.gpu.with_carveout(carveout);
        let e = Experiment::new().with_device(device).with_runs(exp.runs());
        let w = micro::vector_seq_shared(size, carveout.shared_bytes());
        (carveout.shared_bytes() / 1024, e.compare_modes(&w))
    });
    SweepComparison {
        parameter: "shared_kib",
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp() -> Experiment {
        Experiment::new().with_runs(3)
    }

    #[test]
    fn fig4_grid_shape() {
        let g = fig4(&exp(), &[InputSize::Tiny]);
        assert_eq!(g.rows().len(), 7 * 5);
        assert!(g.mean_cv("vector_seq", InputSize::Tiny) >= 0.0);
        assert!(g.to_table().len() == 35);
    }

    #[test]
    fn fig5_table_has_geomean() {
        let g = fig4(&exp(), &[InputSize::Tiny]);
        let t = fig5(&g, &[InputSize::Tiny]);
        assert!(t.to_string().contains("geo-mean"));
    }

    #[test]
    fn fig7_covers_micro_suite() {
        let s = fig7(&exp(), InputSize::Tiny);
        assert_eq!(s.comparisons().len(), 7);
        assert!(s.workload("gemm").is_some());
        assert!((s.geomean_normalized(TransferMode::Standard) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn irregular_covers_the_trio() {
        let s = irregular(&exp(), InputSize::Tiny);
        assert_eq!(s.comparisons().len(), 3);
        for name in IRREGULAR_WORKLOADS {
            assert!(s.workload(name).is_some(), "{name} missing");
        }
        assert!((s.geomean_normalized(TransferMode::Standard) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig9_rows_cover_modes() {
        let c = fig9_fig10(&exp(), InputSize::Tiny);
        assert_eq!(c.rows().len(), 3 * 5);
        let gemm_async = c.row("gemm", TransferMode::Async).unwrap();
        let gemm_std = c.row("gemm", TransferMode::Standard).unwrap();
        assert!(gemm_async.control > gemm_std.control);
    }

    #[test]
    fn fig11_normalization_reference() {
        let s = fig11(&exp(), InputSize::Tiny);
        assert!((s.normalized(4096, TransferMode::Standard) - 1.0).abs() < 1e-9);
        assert_eq!(s.points().len(), 9);
    }

    #[test]
    fn fig13_sweeps_carveouts() {
        let s = fig13(&exp(), InputSize::Tiny);
        assert_eq!(s.points().len(), 7);
        assert_eq!(s.points()[0].0, 2);
        assert_eq!(s.points()[6].0, 128);
    }
}
