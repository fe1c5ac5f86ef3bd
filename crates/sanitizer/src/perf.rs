//! Performance analysis: the transfer-mode advisor (`SAN-P*`).
//!
//! [`advise`] ranks, per workload × device, the five [`TransferMode`]s by
//! what each costs — alloc, transfer, and kernel time — in the runtime's
//! own noise-free base run ([`Runner::run_base_with_stall`]). The paper's
//! modes differ only in how UVM prefetch, fault batching, and `cp.async`
//! staging price the same work, so the ranking is the simulator's, exact
//! to the nanosecond; the advisor adds the explanation around it: each
//! mode's exposed fault stall and a one-line rationale, three structural
//! analyses, and advisory lints. `tests/advisor_validation.rs` sweeps the
//! workload registry and pins every predicted breakdown and fault stall
//! against the simulator.
//!
//! Three analyses feed the [`ModeAdvice`] verdict:
//!
//! * [`OverlapAnalysis`] — critical path of the explicit-copy stream DAG:
//!   total copy time vs. kernel time (what fraction of copy bytes *could*
//!   hide behind kernels), and whether `cp.async` staging actually speeds
//!   the kernels up.
//! * [`DataflowAnalysis`] — buffer dataflow over the touch streams:
//!   touch density, mean chunk reuse distance, fault-batch fill under
//!   plain demand paging, and the thrash onset from footprint vs. the HBM
//!   carveout.
//! * [`BudgetCheck`] — oversubscription ratio and the pinned-staging
//!   budget async modes would consume.
//!
//! Findings surface as advisory `SAN-P001`–`SAN-P004` lints (all
//! warnings), gated so they only fire on modes the advisor predicts to be
//! materially slower than the best — a mode the advisor itself ranks first
//! never lints.
//!
//! # Known blind spots
//!
//! Measurement noise (jitter, host chip placement) is out of scope — the
//! advisor ranks the noise-free base run. `SAN-P003` reports the thrash
//! share from footprint vs. carveout alone; the ranking itself includes
//! whatever LRU eviction the runtime performs.

use crate::diag::{escape, Diagnostic, Lint, Report, Span};
use hetsim_engine::time::Nanos;
use hetsim_runtime::program::{BufferRole, BufferSpec, GpuProgram};
use hetsim_runtime::run::{prefetch_coverage, MAX_SEQUENCED_ROUNDS};
use hetsim_runtime::{Device, RunReport, Runner, TransferMode};

/// Knobs for [`advise`].
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Pinned host memory available for async-copy staging, bytes.
    /// [`Lint::PinnedBudgetExceeded`] fires when an async mode's input
    /// footprint exceeds it.
    pub pinned_budget: u64,
    /// A mode lints only when its predicted total exceeds the predicted
    /// best by this factor — the zero-false-positive gate: the advisor
    /// never warns about a mode it would itself recommend (or any mode
    /// within the ratio of it).
    pub lint_ratio: f64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            // 64 GiB: half the paper platform's host DRAM, comfortably
            // above every registry footprint.
            pinned_budget: 64 << 30,
            lint_ratio: 1.10,
        }
    }
}

/// Cost breakdown of one transfer mode, from its noise-free base run.
#[derive(Debug, Clone, PartialEq)]
pub struct ModePrediction {
    /// The mode this prediction is for.
    pub mode: TransferMode,
    /// Allocation (+teardown) time.
    pub alloc: Nanos,
    /// Transfer time (copies, prefetch, migration, writeback).
    pub memcpy: Nanos,
    /// Kernel time, including the exposed fault stall.
    pub kernel: Nanos,
    /// Fault-service stall exposed as kernel inflation, summed over kernels
    /// (zero outside UVM).
    pub fault_stall: Nanos,
    /// One-line explanation of where this mode's time goes.
    pub rationale: String,
}

impl ModePrediction {
    /// Total time (alloc + memcpy + kernel; the constant system
    /// overhead is mode-independent and excluded from the ranking metric).
    pub fn total(&self) -> Nanos {
        self.alloc + self.memcpy + self.kernel
    }
}

/// Critical-path/overlap analysis of the explicit-copy stream DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapAnalysis {
    /// Total bytes crossing the link under explicit copies (h2d + d2h).
    pub copy_bytes: u64,
    /// Time those copies occupy the link (pageable path).
    pub copy_time: Nanos,
    /// Kernel time under each kernel's standard style.
    pub standard_kernel: Nanos,
    /// Kernel time with async modes' `cp.async` staging applied.
    pub async_kernel: Nanos,
    /// Fraction of copy time that kernels are long enough to hide if
    /// copies and compute overlapped perfectly (capped at 1).
    pub hidable_fraction: f64,
    /// Relative kernel speedup from `cp.async` staging:
    /// `1 - async/standard`. Non-positive means the staging overhead
    /// outweighs the overlap — zero slack.
    pub async_gain: f64,
}

/// Buffer dataflow analysis over the programs' touch streams.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowAnalysis {
    /// Whether any kernel models a temporal touch sequence.
    pub sequenced: bool,
    /// Total page touches across all kernels and rounds.
    pub total_touches: u64,
    /// Distinct chunks addressed by those touches.
    pub distinct_chunks: u64,
    /// Footprint in chunks (every non-`Scratch` buffer).
    pub footprint_chunks: u64,
    /// Touches per footprint chunk (≥ 1 means revisits; high density under
    /// demand paging predicts fault-dominated kernels).
    pub touch_density: f64,
    /// Mean distance (in touches) between successive touches of the same
    /// chunk; zero when no chunk is revisited.
    pub mean_reuse_distance: f64,
    /// Mean fault-batch fill of the plain `uvm` base run (out of the
    /// device's batch capacity; low fill pays the fixed batch latency over
    /// few faults).
    pub mean_batch_fill: f64,
    /// Footprint over the device HBM carveout.
    pub oversubscription: f64,
    /// Fraction of the footprint that cannot be device-resident at once:
    /// `max(0, 1 - capacity/footprint)` — the predicted thrash share.
    pub thrash_fraction: f64,
}

/// Oversubscription and pinned-staging budget check.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetCheck {
    /// Bytes async modes would stage through pinned host memory (input
    /// buffers).
    pub staging_bytes: u64,
    /// The configured pinned budget.
    pub pinned_budget: u64,
    /// Program footprint, bytes.
    pub footprint: u64,
    /// Device HBM carveout available to managed memory, bytes.
    pub device_capacity: u64,
    /// `footprint / device_capacity`.
    pub oversubscription: f64,
    /// Whether the staging fits the pinned budget.
    pub within_budget: bool,
}

/// The advisor's verdict for one workload on one device: all five modes
/// ranked by predicted total time, the three analyses, and any advisory
/// `SAN-P*` findings.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeAdvice {
    /// Workload name.
    pub workload: String,
    /// Device name.
    pub device: &'static str,
    /// Predictions for every mode, ascending by [`ModePrediction::total`]
    /// (ties keep [`TransferMode::ALL`] order).
    pub ranked: Vec<ModePrediction>,
    /// Stream-DAG overlap analysis.
    pub overlap: OverlapAnalysis,
    /// Touch-sequence dataflow analysis.
    pub dataflow: DataflowAnalysis,
    /// Oversubscription/pinned budget check.
    pub budget: BudgetCheck,
    /// Advisory `SAN-P*` findings.
    pub report: Report,
}

impl ModeAdvice {
    /// The top-ranked (predicted fastest) mode.
    pub fn best(&self) -> &ModePrediction {
        &self.ranked[0]
    }

    /// Renders the advice as one JSON object (hand-rolled; the workspace
    /// is zero-dependency). The shape is part of the CLI contract
    /// (`hetsim advise --format json`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"workload\":\"{}\",\"device\":\"{}\",\"best\":\"{}\",\"ranked\":[",
            escape(&self.workload),
            escape(self.device),
            self.best().mode.name()
        );
        for (i, p) in self.ranked.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"mode\":\"{}\",\"alloc\":{},\"memcpy\":{},\"kernel\":{},\"fault_stall\":{},\"total\":{},\"rationale\":\"{}\"}}",
                p.mode.name(),
                p.alloc.as_nanos(),
                p.memcpy.as_nanos(),
                p.kernel.as_nanos(),
                p.fault_stall.as_nanos(),
                p.total().as_nanos(),
                escape(&p.rationale),
            );
        }
        let o = &self.overlap;
        let _ = write!(
            out,
            "],\"overlap\":{{\"copy_bytes\":{},\"copy_time\":{},\"standard_kernel\":{},\"async_kernel\":{},\"hidable_fraction\":{},\"async_gain\":{}}}",
            o.copy_bytes,
            o.copy_time.as_nanos(),
            o.standard_kernel.as_nanos(),
            o.async_kernel.as_nanos(),
            json_f64(o.hidable_fraction),
            json_f64(o.async_gain),
        );
        let d = &self.dataflow;
        let _ = write!(
            out,
            ",\"dataflow\":{{\"sequenced\":{},\"total_touches\":{},\"distinct_chunks\":{},\"footprint_chunks\":{},\"touch_density\":{},\"mean_reuse_distance\":{},\"mean_batch_fill\":{},\"oversubscription\":{},\"thrash_fraction\":{}}}",
            d.sequenced,
            d.total_touches,
            d.distinct_chunks,
            d.footprint_chunks,
            json_f64(d.touch_density),
            json_f64(d.mean_reuse_distance),
            json_f64(d.mean_batch_fill),
            json_f64(d.oversubscription),
            json_f64(d.thrash_fraction),
        );
        let b = &self.budget;
        let _ = write!(
            out,
            ",\"budget\":{{\"staging_bytes\":{},\"pinned_budget\":{},\"footprint\":{},\"device_capacity\":{},\"oversubscription\":{},\"within_budget\":{}}}",
            b.staging_bytes,
            b.pinned_budget,
            b.footprint,
            b.device_capacity,
            json_f64(b.oversubscription),
            b.within_budget,
        );
        let _ = write!(out, ",\"report\":{}}}", self.report.to_json());
        out
    }
}

/// Deterministic JSON float rendering; non-finite values render as 0.
fn json_f64(f: f64) -> String {
    if f.is_finite() {
        format!("{f}")
    } else {
        "0".to_string()
    }
}

fn ms(n: Nanos) -> f64 {
    n.as_millis_f64()
}

/// One line on where `mode`'s time goes in its base run.
fn rationale(mode: TransferMode, run: &RunReport, fault_stall: Nanos, coverage: f64) -> String {
    match mode {
        TransferMode::Standard => format!(
            "explicit pageable copies {:.2} ms; kernels {:.2} ms",
            ms(run.memcpy),
            ms(run.kernel),
        ),
        TransferMode::Async => format!(
            "explicit pageable copies {:.2} ms; cp.async staged kernels {:.2} ms",
            ms(run.memcpy),
            ms(run.kernel),
        ),
        TransferMode::Uvm => format!(
            "demand paging migrates on touch: {:.2} ms transfer, {:.2} ms fault stall exposed",
            ms(run.memcpy),
            ms(fault_stall),
        ),
        TransferMode::UvmPrefetch | TransferMode::UvmPrefetchAsync => format!(
            "prefetch covers {:.0}% of input chunks; {:.2} ms migration, {:.2} ms fault stall exposed",
            coverage * 100.0,
            ms(run.memcpy),
            ms(fault_stall),
        ),
    }
}

/// Runs the performance analysis for `program` on `device`: ranks all
/// five transfer modes by their base runs and emits advisory `SAN-P*`
/// lints.
///
/// # Panics
///
/// Panics if the program has no kernels (the runtime rejects those before
/// any mode comparison is meaningful).
pub fn advise(program: &dyn GpuProgram, device: &Device, config: &PerfConfig) -> ModeAdvice {
    let buffers = program.buffers();
    assert!(
        !program.kernels().is_empty(),
        "program `{}` has no kernels",
        program.name()
    );
    let runner = Runner::new(device.clone());
    let coverage = prefetch_coverage(program);

    let mut predictions: Vec<ModePrediction> = Vec::with_capacity(TransferMode::ALL.len());
    let mut mean_batch_fill = 0.0;
    for mode in TransferMode::ALL {
        let (run, fault_stall) = runner.run_base_with_stall(program, mode);
        if mode == TransferMode::Uvm {
            mean_batch_fill = run.counters.uvm.mean_batch_fill();
        }
        predictions.push(ModePrediction {
            mode,
            alloc: run.alloc,
            memcpy: run.memcpy,
            kernel: run.kernel,
            fault_stall,
            rationale: rationale(mode, &run, fault_stall, coverage),
        });
    }

    // ---- analyses ----
    let predicted = |mode| {
        predictions
            .iter()
            .find(|p| p.mode == mode)
            .expect("every mode predicted")
    };
    let copy_time = predicted(TransferMode::Standard).memcpy;
    let standard_kernel = predicted(TransferMode::Standard).kernel;
    let async_kernel = predicted(TransferMode::Async).kernel;
    let copy_bytes: u64 = buffers
        .iter()
        .map(|b| {
            let mut n = 0;
            if b.role.is_input() {
                n += b.bytes;
            }
            if b.role.is_output() {
                n += b.bytes;
            }
            n
        })
        .sum();
    let hidable_fraction = if copy_time.is_zero() {
        1.0
    } else {
        (standard_kernel.as_nanos() as f64 / copy_time.as_nanos() as f64).min(1.0)
    };
    let async_gain = if standard_kernel.is_zero() {
        0.0
    } else {
        1.0 - async_kernel.as_nanos() as f64 / standard_kernel.as_nanos() as f64
    };
    let overlap = OverlapAnalysis {
        copy_bytes,
        copy_time,
        standard_kernel,
        async_kernel,
        hidable_fraction,
        async_gain,
    };

    let dataflow = analyze_dataflow(program, device, &buffers, mean_batch_fill);

    let staging_bytes: u64 = buffers
        .iter()
        .filter(|b| b.role.is_input())
        .map(|b| b.bytes)
        .sum();
    let footprint = program.footprint();
    let device_capacity = device.uvm.device_capacity;
    let budget = BudgetCheck {
        staging_bytes,
        pinned_budget: config.pinned_budget,
        footprint,
        device_capacity,
        oversubscription: footprint as f64 / device_capacity.max(1) as f64,
        within_budget: staging_bytes <= config.pinned_budget,
    };

    // ---- ranking ----
    predictions.sort_by_key(|p| p.total().as_nanos());
    let best_total = predictions[0].total();

    // ---- advisory lints, gated on "materially slower than the best" ----
    let mut report = Report::new();
    let threshold = best_total.scale(config.lint_ratio).max(best_total);
    for p in &predictions {
        if p.total() <= threshold {
            continue;
        }
        let workload = program.name().to_string();
        if p.mode.uses_uvm() {
            let compute = p.kernel.saturating_sub(p.fault_stall);
            if p.fault_stall > compute {
                report.push(Diagnostic::new(
                    Lint::UvmFaultDominated,
                    workload.clone(),
                    Span::Workload,
                    format!(
                        "`{}` would spend {:.2} ms in exposed fault stalls vs {:.2} ms compute (touch density {:.1}); kernels are fault-dominated",
                        p.mode.name(),
                        ms(p.fault_stall),
                        ms(compute),
                        dataflow.touch_density,
                    ),
                    format!(
                        "prefer `{}` — explicit transfers avoid demand paging entirely",
                        predictions[0].mode.name()
                    ),
                ));
            }
            if footprint > device_capacity {
                report.push(Diagnostic::new(
                    Lint::ThrashPredicted,
                    workload.clone(),
                    Span::Workload,
                    format!(
                        "footprint {} GiB exceeds the {} GiB HBM carveout: thrash predicted at {:.0}% of the working set under `{}`",
                        footprint >> 30,
                        device_capacity >> 30,
                        dataflow.thrash_fraction * 100.0,
                        p.mode.name(),
                    ),
                    "shrink the working set below the carveout or stream it with explicit copies".to_string(),
                ));
            }
        }
        if p.mode.uses_async_copy() {
            if overlap.async_gain <= 0.0 {
                report.push(Diagnostic::new(
                    Lint::AsyncZeroSlack,
                    workload.clone(),
                    Span::Workload,
                    format!(
                        "`{}` has zero overlap slack: cp.async staging does not speed kernels up ({:.2} ms vs {:.2} ms standard)",
                        p.mode.name(),
                        ms(overlap.async_kernel),
                        ms(overlap.standard_kernel),
                    ),
                    "keep the kernels' standard style; async staging only pays when fetch overlaps compute".to_string(),
                ));
            }
            if staging_bytes > config.pinned_budget {
                report.push(Diagnostic::new(
                    Lint::PinnedBudgetExceeded,
                    workload.clone(),
                    Span::Workload,
                    format!(
                        "`{}` would stage {} MiB through pinned host memory, over the {} MiB budget",
                        p.mode.name(),
                        staging_bytes >> 20,
                        config.pinned_budget >> 20,
                    ),
                    "raise the pinned budget or fall back to pageable staging".to_string(),
                ));
            }
        }
    }

    ModeAdvice {
        workload: program.name().to_string(),
        device: device.name,
        ranked: predictions,
        overlap,
        dataflow,
        budget,
        report,
    }
}

/// Computes the touch-sequence dataflow statistics.
fn analyze_dataflow(
    program: &dyn GpuProgram,
    device: &Device,
    buffers: &[BufferSpec],
    mean_batch_fill: f64,
) -> DataflowAnalysis {
    use std::collections::HashMap;
    let chunk_size = device.uvm.chunk_size;
    let footprint_chunks: u64 = buffers
        .iter()
        .filter(|b| !matches!(b.role, BufferRole::Scratch))
        .map(|b| b.bytes.div_ceil(chunk_size).max(1))
        .sum();

    let mut sequenced = false;
    let mut total_touches = 0u64;
    let mut last_seen: HashMap<(usize, u64), u64> = HashMap::new();
    let mut reuse_sum = 0u64;
    let mut reuse_count = 0u64;
    let mut position = 0u64;
    for (ki, k) in program.kernels().iter().enumerate() {
        for inv in 0..k.invocations().min(MAX_SEQUENCED_ROUNDS) {
            let round = program.for_each_page_touch(ki, inv, chunk_size, &mut |t| {
                let Some(b) = buffers.get(t.buffer) else {
                    return;
                };
                if matches!(b.role, BufferRole::Scratch) {
                    return;
                }
                let nchunks = b.bytes.div_ceil(chunk_size).max(1);
                let key = (t.buffer, t.chunk % nchunks);
                total_touches += 1;
                if let Some(&prev) = last_seen.get(&key) {
                    reuse_sum += position - prev;
                    reuse_count += 1;
                }
                last_seen.insert(key, position);
                position += 1;
            });
            if !round {
                break;
            }
            sequenced = true;
        }
    }
    let distinct_chunks = last_seen.len() as u64;
    let footprint = program.footprint();
    let capacity = device.uvm.device_capacity;
    let thrash_fraction = if footprint > capacity && footprint > 0 {
        1.0 - capacity as f64 / footprint as f64
    } else {
        0.0
    };
    DataflowAnalysis {
        sequenced,
        total_touches,
        distinct_chunks,
        footprint_chunks,
        touch_density: if sequenced {
            total_touches as f64 / footprint_chunks.max(1) as f64
        } else {
            1.0
        },
        mean_reuse_distance: if reuse_count == 0 {
            0.0
        } else {
            reuse_sum as f64 / reuse_count as f64
        },
        mean_batch_fill,
        oversubscription: footprint as f64 / capacity.max(1) as f64,
        thrash_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_gpu::kernel::{KernelModel, KernelStyle, LaunchConfig, TileOps};
    use hetsim_mem::addr::MemAccess;
    use hetsim_runtime::program::PageTouch;
    use hetsim_runtime::Runner;
    use hetsim_uvm::prefetch::Regularity;

    struct TestKernel {
        name: &'static str,
        style: KernelStyle,
        regularity: Regularity,
        invocations: u64,
    }

    impl Default for TestKernel {
        fn default() -> Self {
            TestKernel {
                name: "k",
                style: KernelStyle::Direct,
                regularity: Regularity::Regular,
                invocations: 1,
            }
        }
    }

    impl KernelModel for TestKernel {
        fn name(&self) -> &str {
            self.name
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(64, 128, 0)
        }
        fn tiles_per_block(&self) -> u64 {
            1
        }
        fn stream_accesses(&self, _block: u64, _tile: u64, out: &mut Vec<MemAccess>) {
            out.push(MemAccess::global_load(0));
        }
        fn local_accesses(&self, _block: u64, _tile: u64, out: &mut Vec<MemAccess>) {
            out.push(MemAccess::global_store(1 << 30));
        }
        fn tile_ops(&self) -> TileOps {
            TileOps::new(16.0, 16.0, 4.0)
        }
        fn regularity(&self) -> Regularity {
            self.regularity
        }
        fn standard_style(&self) -> KernelStyle {
            self.style
        }
        fn invocations(&self) -> u64 {
            self.invocations
        }
    }

    /// Synthetic program: scriptable buffers, kernels, and per-invocation
    /// touch sequences.
    struct TestProgram {
        buffers: Vec<BufferSpec>,
        kernels: Vec<TestKernel>,
        /// Touch sequence replayed on every invocation of every kernel
        /// when set.
        touches: Option<Vec<PageTouch>>,
        conflict: f64,
    }

    impl TestProgram {
        fn new(buffers: Vec<BufferSpec>) -> Self {
            TestProgram {
                buffers,
                kernels: vec![TestKernel::default()],
                touches: None,
                conflict: 1.0,
            }
        }
    }

    impl GpuProgram for TestProgram {
        fn name(&self) -> &str {
            "perf-test"
        }
        fn buffers(&self) -> Vec<BufferSpec> {
            self.buffers.clone()
        }
        fn kernels(&self) -> Vec<&dyn KernelModel> {
            self.kernels.iter().map(|k| k as &dyn KernelModel).collect()
        }
        fn prefetch_conflict(&self) -> f64 {
            self.conflict
        }
        fn for_each_page_touch(
            &self,
            _kernel: usize,
            _invocation: u64,
            _chunk_size: u64,
            sink: &mut dyn FnMut(PageTouch),
        ) -> bool {
            self.touches.iter().flatten().for_each(|&t| sink(t));
            self.touches.is_some()
        }
    }

    fn buf(name: &str, chunks: u64, role: BufferRole) -> BufferSpec {
        BufferSpec::new(name, chunks * hetsim_uvm::page::CHUNK_SIZE, role)
    }

    /// Asserts the advisor's per-mode breakdown equals the simulator's
    /// noise-free base run to the nanosecond, for every mode.
    fn assert_matches_runner(p: &TestProgram) {
        let device = Device::a100_epyc();
        let runner = Runner::new(device.clone());
        let advice = advise(p, &device, &PerfConfig::default());
        for mode in TransferMode::ALL {
            let predicted = advice
                .ranked
                .iter()
                .find(|r| r.mode == mode)
                .expect("all modes ranked");
            let measured = runner.run_base(p, mode);
            assert_eq!(predicted.alloc, measured.alloc, "alloc mismatch for {mode}");
            assert_eq!(
                predicted.memcpy, measured.memcpy,
                "memcpy mismatch for {mode}"
            );
            assert_eq!(
                predicted.kernel, measured.kernel,
                "kernel mismatch for {mode}"
            );
        }
    }

    #[test]
    fn matches_runner_range_walk() {
        // No touch model: the runtime's blanket range-walk fallback.
        let p = TestProgram::new(vec![
            buf("in", 64, BufferRole::Input),
            buf("out", 32, BufferRole::Output),
            buf("tmp", 8, BufferRole::Scratch),
        ]);
        assert_matches_runner(&p);
    }

    #[test]
    fn matches_runner_sequenced() {
        // Strided revisiting sequence exercising fault batching and speculation.
        let mut p = TestProgram::new(vec![
            buf("in", 48, BufferRole::Input),
            buf("out", 16, BufferRole::InOut),
        ]);
        let mut touches = Vec::new();
        for i in 0..96u64 {
            touches.push(PageTouch {
                buffer: (i % 2) as usize,
                chunk: (i * 7) % 48,
                write: i % 3 == 0,
            });
        }
        p.touches = Some(touches);
        p.kernels[0].regularity = Regularity::Irregular;
        p.kernels[0].invocations = 3;
        assert_matches_runner(&p);
    }

    #[test]
    fn matches_runner_prefetch_conflict() {
        // Two kernels with a prefetch conflict triggers the displacement/
        // refault rounds on the second kernel under prefetch modes.
        let mut p = TestProgram::new(vec![
            buf("in", 40, BufferRole::Input),
            buf("out", 24, BufferRole::Output),
        ]);
        p.kernels.push(TestKernel {
            name: "k2",
            invocations: 2,
            ..TestKernel::default()
        });
        p.conflict = 0.6;
        assert_matches_runner(&p);
    }

    #[test]
    fn matches_runner_async_styles() {
        let mut p = TestProgram::new(vec![
            buf("in", 16, BufferRole::Input),
            buf("out", 16, BufferRole::Output),
        ]);
        p.kernels[0].style = KernelStyle::StagedAsync;
        assert_matches_runner(&p);
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let p = TestProgram::new(vec![
            buf("in", 16, BufferRole::Input),
            buf("out", 8, BufferRole::Output),
        ]);
        let advice = advise(&p, &Device::a100_epyc(), &PerfConfig::default());
        assert_eq!(advice.ranked.len(), TransferMode::ALL.len());
        for pair in advice.ranked.windows(2) {
            assert!(pair[0].total() <= pair[1].total());
        }
        assert_eq!(advice.best().mode, advice.ranked[0].mode);
    }

    #[test]
    fn pinned_budget_lint_fires() {
        let p = TestProgram::new(vec![
            buf("in", 64, BufferRole::Input),
            buf("out", 8, BufferRole::Output),
        ]);
        let config = PerfConfig {
            pinned_budget: 1,
            lint_ratio: 1.0,
        };
        let advice = advise(&p, &Device::a100_epyc(), &config);
        assert!(!advice.budget.within_budget);
        let codes: Vec<_> = advice.report.diagnostics.iter().map(|d| d.code()).collect();
        assert!(
            codes.contains(&"SAN-P004"),
            "expected SAN-P004 in {codes:?}"
        );
    }

    #[test]
    fn no_lints_on_top_ranked_mode() {
        // Whatever fires, it must never target the advisor's own pick.
        let mut p = TestProgram::new(vec![
            buf("in", 64, BufferRole::Input),
            buf("out", 32, BufferRole::Output),
        ]);
        p.kernels[0].regularity = Regularity::Irregular;
        let advice = advise(&p, &Device::a100_epyc(), &PerfConfig::default());
        let best = advice.best().mode.name();
        for d in &advice.report.diagnostics {
            assert!(
                !d.message.contains(&format!("`{best}`")),
                "lint targets the best mode: {}",
                d.message
            );
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let p = TestProgram::new(vec![
            buf("in", 4, BufferRole::Input),
            buf("out", 4, BufferRole::Output),
        ]);
        let advice = advise(&p, &Device::a100_epyc(), &PerfConfig::default());
        let json = advice.to_json();
        for key in [
            "\"workload\"",
            "\"device\"",
            "\"best\"",
            "\"ranked\"",
            "\"overlap\"",
            "\"dataflow\"",
            "\"budget\"",
            "\"report\"",
            "\"hidable_fraction\"",
            "\"touch_density\"",
            "\"within_budget\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json, advice.to_json(), "non-deterministic JSON");
    }
}
