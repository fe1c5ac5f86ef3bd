//! The multi-run measurement harness.
//!
//! The paper runs every configuration 30 times and reports means,
//! distributions, and std/mean stability (§3.3). [`Experiment`] reproduces
//! that methodology: one deterministic base simulation per
//! `(workload, mode)` plus per-run measurement noise, so a 30-run
//! distribution costs one cache simulation, not thirty.

use crate::cache::{self, CacheKey, DiskCache};
use crate::memo::{MemoStats, ShardedMemo};
use crate::pool;
use hetsim_counters::report::Table;
use hetsim_engine::stats::Summary;
use hetsim_engine::time::Nanos;
use hetsim_runtime::report::Component;
use hetsim_runtime::{
    ChaosRunReport, Device, FaultPlan, GpuProgram, RecoveryPolicy, RunReport, Runner, SimError,
    TransferMode,
};
use hetsim_trace::{selfprof, Dim, Trace, TraceBuilder, TraceConfig, TraceSink};
use std::sync::Arc;

/// Memoized base runs, keyed on the program's structural fingerprint plus
/// the transfer mode. The device is fixed per `Experiment` (and
/// [`Experiment::with_device`] swaps in a fresh memo), so it needs no
/// spot in the key. Sharded and single-flight: parallel grid workers that
/// race on one cell block on its in-flight computation instead of
/// duplicating the simulation, and workers on different cells never share
/// a lock.
type BaseMemo = Arc<ShardedMemo<(String, TransferMode), RunReport>>;

/// A configured experiment: a device plus a run count.
#[derive(Debug, Clone)]
pub struct Experiment {
    runner: Runner,
    runs: u64,
    trace: TraceConfig,
    memo: BaseMemo,
    disk: Option<Arc<DiskCache>>,
    device_hash: u64,
}

impl Experiment {
    /// An experiment on the paper's platform with its 30-run methodology.
    pub fn new() -> Self {
        Experiment {
            runner: Runner::new(Device::a100_epyc()),
            runs: 30,
            trace: TraceConfig::default(),
            memo: BaseMemo::default(),
            disk: None,
            device_hash: 0,
        }
    }

    /// Overrides the run count (tests use fewer runs).
    ///
    /// # Panics
    ///
    /// Panics if `runs` is zero.
    pub fn with_runs(mut self, runs: u64) -> Self {
        assert!(runs > 0, "experiment needs at least one run");
        self.runs = runs;
        self
    }

    /// Uses a custom device (sensitivity studies re-point the carveout).
    /// Invalidates the in-memory base-run memo: cached reports belong to
    /// the old device. Disk-cache entries stay valid — they are keyed on
    /// the device fingerprint, which is recomputed here.
    pub fn with_device(mut self, device: Device) -> Self {
        self.runner = Runner::new(device);
        self.memo = BaseMemo::default();
        if self.disk.is_some() {
            self.device_hash = cache::device_fingerprint(self.runner.device());
        }
        self
    }

    /// Attaches an on-disk result cache (see [`crate::cache`]): base runs
    /// missing from the memo are looked up on disk before simulating, and
    /// freshly simulated cells are written back, so repeated sweeps only
    /// compute changed cells.
    pub fn with_cache(mut self, disk: Arc<DiskCache>) -> Self {
        self.device_hash = cache::device_fingerprint(self.runner.device());
        self.disk = Some(disk);
        self
    }

    /// The attached disk cache, if any.
    pub fn disk_cache(&self) -> Option<&Arc<DiskCache>> {
        self.disk.as_ref()
    }

    /// Counters of the in-memory base-run memo. `computes` counts actual
    /// simulations (or disk-cache loads) — with single-flight it equals
    /// `entries` regardless of how many workers raced on the same cell.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Overrides the trace configuration used by
    /// [`Experiment::traced_run`] and [`Experiment::traced_modes`].
    pub fn with_trace(mut self, config: TraceConfig) -> Self {
        self.trace = config;
        self
    }

    /// Arms fault injection for [`Experiment::try_run`]. The infallible
    /// measurement paths ([`Experiment::base_run`], distributions, figure
    /// grids) stay chaos-free, so fault-free baselines and a chaos run can
    /// share one experiment — and one base-run memo, which this therefore
    /// does *not* invalidate.
    pub fn with_chaos(mut self, plan: FaultPlan, policy: RecoveryPolicy) -> Self {
        self.runner = self.runner.clone().with_chaos(plan, policy);
        self
    }

    /// The fallible, chaos-aware run: injects faults from the plan armed
    /// via [`Experiment::with_chaos`] (an inert plan when unarmed), pays
    /// recovery costs in sim time, and degrades the transfer mode under
    /// sustained thrashing instead of panicking.
    ///
    /// Never memoized: each call replays injection from the plan's seed,
    /// which is the property the determinism gates assert on.
    ///
    /// # Errors
    ///
    /// See [`Runner::try_run_base`] — invalid plans and programs are
    /// rejected up front, and faults that outlast the recovery policy
    /// surface as typed [`SimError`]s.
    pub fn try_run(
        &self,
        program: &dyn GpuProgram,
        mode: TransferMode,
    ) -> Result<ChaosRunReport, SimError> {
        self.runner.try_run_base(program, mode)
    }

    /// The trace configuration.
    pub fn trace_config(&self) -> TraceConfig {
        self.trace
    }

    /// The underlying runner.
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// Run count.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The deterministic base simulation of `(program, mode)`, memoized:
    /// figure grids that revisit a configuration (headline + sensitivity
    /// + irregular tables) pay for each simulation once per `Experiment`.
    ///
    /// Tracing bypasses the memo — a traced run's value *is* its side
    /// effects on the active session, so it must actually execute.
    pub fn base_run(&self, program: &dyn GpuProgram, mode: TransferMode) -> RunReport {
        if hetsim_trace::session::enabled() {
            return self.runner.run_base(program, mode);
        }
        let memo_key = program.memo_key();
        self.memo
            .get_or_compute((memo_key.clone(), mode), || match &self.disk {
                Some(disk) => {
                    let key = CacheKey::new(&memo_key, mode, self.device_hash);
                    if let Some(hit) = disk.load(&key) {
                        return hit;
                    }
                    let report = self.runner.run_base(program, mode);
                    disk.store(&key, &report);
                    report
                }
                None => self.runner.run_base(program, mode),
            })
    }

    /// The full run distribution for one `(workload, mode)` pair.
    pub fn distribution(&self, program: &dyn GpuProgram, mode: TransferMode) -> Vec<RunReport> {
        let base = self.base_run(program, mode);
        (0..self.runs)
            .map(|i| self.runner.apply_noise(&base, program, mode, i))
            .collect()
    }

    /// Mean breakdown over the distribution.
    pub fn mean(&self, program: &dyn GpuProgram, mode: TransferMode) -> MeanReport {
        MeanReport::from_distribution(&self.distribution(program, mode))
    }

    /// Means for all five modes, for normalized side-by-side comparison
    /// (the format of the paper's Figs 7, 8, 11–13). The five base
    /// simulations are independent, so they fan out over the
    /// [`pool`] workers; results come back in mode order
    /// regardless of scheduling.
    pub fn compare_modes(&self, program: &dyn GpuProgram) -> ModeComparison {
        let means: Vec<MeanReport> = pool::run(TransferMode::ALL.len(), |i| {
            self.mean(program, TransferMode::ALL[i])
        });
        ModeComparison {
            workload: program.name().to_string(),
            means: means.try_into().expect("one mean per mode"),
        }
    }

    /// Runs the deterministic base simulation of `(program, mode)` inside
    /// a fresh thread-local trace session and returns the report together
    /// with the recording.
    ///
    /// The *noise-free* base run is what gets traced (not the noised
    /// distribution), so the recording is reproducible across invocations
    /// and its phase spans sum exactly to the report's components. Host
    /// self-profiling spans are added only when the configuration opted
    /// in via [`TraceConfig::with_self_profile`].
    ///
    /// With a `sink`, completed events drain to it *during* the run:
    /// memory stays bounded by the configured capacity, nothing is dropped
    /// however far the recording outgrows the ring, and the returned trace
    /// holds only the count of what it streamed.
    pub fn traced_run(
        &self,
        program: &dyn GpuProgram,
        mode: TransferMode,
        sink: Option<Box<dyn TraceSink>>,
    ) -> (RunReport, Trace) {
        hetsim_trace::session::start(self.trace, sink);
        if let Some(job) = pool::current_task() {
            // Label every event of this run with its grid slot. The index
            // comes from the work item, never the worker thread, so the
            // labels are identical at every thread count.
            hetsim_trace::session::with(|b| b.set_label(Dim::Job, &job.to_string()));
        }
        let report = selfprof::phase("simulate", || self.runner.run_base(program, mode));
        let trace = hetsim_trace::session::finish().expect("trace session active");
        (report, trace)
    }

    /// Traces the base run of every transfer mode into one recording, the
    /// modes laid out back to back on the sim timeline — a side-by-side
    /// five-mode picture of the same workload.
    ///
    /// Each mode records into its own thread-local session (so the five
    /// runs can execute on [`pool`] workers), and the
    /// finished per-mode traces are merged in mode order, each placed at
    /// the running sum of its predecessors' end cursors. The merge path
    /// is identical at every thread count, so the exported trace is
    /// byte-identical whether the modes ran serially or in parallel.
    ///
    /// With a `sink`, the merged recording drains through it as the
    /// per-mode traces fold in, so the five-mode picture never has to fit
    /// in the merge buffer at once. The per-mode runs still record into
    /// their own bounded sessions; only the merge streams.
    pub fn traced_modes(
        &self,
        program: &dyn GpuProgram,
        sink: Option<Box<dyn TraceSink>>,
    ) -> ([RunReport; 5], Trace) {
        let mut merged = TraceBuilder::new(self.trace);
        if let Some(sink) = sink {
            merged = merged.with_sink(sink);
        }
        let runs: Vec<(RunReport, Trace)> = pool::run(TransferMode::ALL.len(), |i| {
            self.traced_run(program, TransferMode::ALL[i], None)
        });
        let started = selfprof::now_ns();
        let mut reports = Vec::with_capacity(runs.len());
        for (report, trace) in runs {
            let at = merged.now();
            merged.absorb_at(&trace, at);
            reports.push(report);
        }
        if self.trace.self_profile {
            // The merge is the serial tail of the parallel fan-out (the
            // overhead flagged in ROADMAP's sweep-throughput item), so
            // self-profiling records it as a host span alongside the
            // per-mode `host.simulate` spans it competes with.
            let track = merged.host_track("host.trace_merge");
            merged.span_at(
                track,
                hetsim_trace::Category::Host,
                "trace_merge",
                started,
                selfprof::now_ns() - started,
            );
        }
        (
            reports.try_into().expect("one report per mode"),
            merged.finish(),
        )
    }
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment::new()
    }
}

/// Mean time components over a run distribution, plus the total's summary
/// statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct MeanReport {
    /// Mean allocation time.
    pub alloc: Nanos,
    /// Mean transfer time.
    pub memcpy: Nanos,
    /// Mean kernel time.
    pub kernel: Nanos,
    /// Mean fixed system overhead.
    pub system: Nanos,
    /// Summary statistics of the per-run totals (for Figs 4–5).
    pub total_summary: Summary,
}

impl MeanReport {
    /// Aggregates a run distribution.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty.
    pub fn from_distribution(reports: &[RunReport]) -> Self {
        assert!(!reports.is_empty(), "empty distribution");
        let n = reports.len() as u64;
        let sum =
            |f: fn(&RunReport) -> Nanos| -> Nanos { reports.iter().map(f).sum::<Nanos>() / n };
        let totals: Vec<Nanos> = reports.iter().map(|r| r.total()).collect();
        MeanReport {
            alloc: sum(|r| r.alloc),
            memcpy: sum(|r| r.memcpy),
            kernel: sum(|r| r.kernel),
            system: sum(|r| r.system),
            total_summary: Summary::from_nanos(&totals),
        }
    }

    /// Mean overall execution time (alloc + memcpy + kernel + system).
    pub fn total(&self) -> Nanos {
        self.alloc + self.memcpy + self.kernel + self.system
    }

    /// Mean three-component time, the quantity the paper's normalized
    /// breakdown figures plot.
    pub fn breakdown_total(&self) -> Nanos {
        self.alloc + self.memcpy + self.kernel
    }

    /// One mean component.
    pub fn component(&self, c: Component) -> Nanos {
        match c {
            Component::Alloc => self.alloc,
            Component::Memcpy => self.memcpy,
            Component::Kernel => self.kernel,
        }
    }
}

/// Per-mode mean breakdowns for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeComparison {
    workload: String,
    means: [MeanReport; 5],
}

impl ModeComparison {
    /// The workload name.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The mean breakdown for one mode.
    pub fn mean(&self, mode: TransferMode) -> &MeanReport {
        &self.means[mode_index(mode)]
    }

    /// Mean total time under `mode`.
    pub fn mean_total(&self, mode: TransferMode) -> Nanos {
        self.mean(mode).breakdown_total()
    }

    /// Mode total normalized to `standard` (the y-axis of Figs 7/8).
    pub fn normalized_total(&self, mode: TransferMode) -> f64 {
        let std = self.mean_total(TransferMode::Standard).as_nanos() as f64;
        if std == 0.0 {
            return 0.0;
        }
        self.mean_total(mode).as_nanos() as f64 / std
    }

    /// One component normalized to the standard mode's total.
    pub fn normalized_component(&self, mode: TransferMode, c: Component) -> f64 {
        let std = self.mean_total(TransferMode::Standard).as_nanos() as f64;
        if std == 0.0 {
            return 0.0;
        }
        self.mean(mode).component(c).as_nanos() as f64 / std
    }

    /// Percent improvement of `mode` over `standard` (positive = faster),
    /// the number the paper's abstract quotes.
    pub fn improvement_pct(&self, mode: TransferMode) -> f64 {
        (1.0 - self.normalized_total(mode)) * 100.0
    }

    /// Renders the comparison as a table of normalized components.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec![
            "mode",
            "gpu_kernel",
            "memcpy",
            "allocation",
            "total",
            "vs standard",
        ]);
        for mode in TransferMode::ALL {
            t.row(vec![
                mode.name().to_string(),
                format!("{:.3}", self.normalized_component(mode, Component::Kernel)),
                format!("{:.3}", self.normalized_component(mode, Component::Memcpy)),
                format!("{:.3}", self.normalized_component(mode, Component::Alloc)),
                format!("{:.3}", self.normalized_total(mode)),
                format!("{:+.2}%", self.improvement_pct(mode)),
            ]);
        }
        t
    }
}

pub(crate) fn mode_index(mode: TransferMode) -> usize {
    TransferMode::ALL
        .iter()
        .position(|&m| m == mode)
        .expect("mode in ALL")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_workloads::{micro, InputSize};

    fn exp() -> Experiment {
        Experiment::new().with_runs(4)
    }

    #[test]
    fn distribution_length_and_determinism() {
        let w = micro::vector_seq(InputSize::Small);
        let e = exp();
        let d1 = e.distribution(&w, TransferMode::Standard);
        let d2 = e.distribution(&w, TransferMode::Standard);
        assert_eq!(d1.len(), 4);
        assert_eq!(d1, d2, "distributions must be reproducible");
        // Noise differentiates runs.
        assert_ne!(d1[0].total(), d1[1].total());
    }

    #[test]
    fn mean_report_aggregates() {
        let w = micro::vector_seq(InputSize::Small);
        let e = exp();
        let m = e.mean(&w, TransferMode::Standard);
        assert!(m.total() > Nanos::ZERO);
        assert_eq!(m.total(), m.alloc + m.memcpy + m.kernel + m.system);
        assert_eq!(m.total_summary.len(), 4);
    }

    #[test]
    fn normalization_is_one_for_standard() {
        let w = micro::vector_seq(InputSize::Small);
        let cmp = exp().compare_modes(&w);
        assert!((cmp.normalized_total(TransferMode::Standard) - 1.0).abs() < 1e-12);
        let comp_sum = cmp.normalized_component(TransferMode::Standard, Component::Alloc)
            + cmp.normalized_component(TransferMode::Standard, Component::Memcpy)
            + cmp.normalized_component(TransferMode::Standard, Component::Kernel);
        assert!((comp_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table_has_five_mode_rows() {
        let w = micro::saxpy(InputSize::Tiny);
        let t = exp().compare_modes(&w).to_table();
        assert_eq!(t.len(), 5);
        assert!(t.to_string().contains("uvm_prefetch_async"));
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let _ = Experiment::new().with_runs(0);
    }
}
