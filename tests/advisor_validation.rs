//! Differential validation of the performance advisor.
//!
//! The advisor ranks the five transfer modes by the runtime's own
//! noise-free base runs and explains each with its exposed fault stall.
//! This harness pins that composition over the whole workload registry ×
//! input sizes × devices: it asks the advisor for its ranking, runs the
//! simulator's base pipeline (plain and traced) for all five modes, and
//! compares.
//!
//! Assertions, in order of strength:
//!
//! 1. **Exact breakdowns** — every mode's predicted alloc, memcpy and
//!    kernel time equals [`Runner::run_base`] to the nanosecond, and its
//!    fault stall equals the sum of the `fault_stall` kernel spans of the
//!    traced run (the additivity contract of `tests/trace_layer.rs`).
//! 2. **Agreement** — the advisor's pick matches the measured winner on at
//!    least [`MIN_AGREEMENT`] of cells.
//! 3. **Bounded misses** — on every disagreeing cell, the advisor's pick
//!    measures within [`MISS_RATIO`] of the true winner, so a miss is
//!    never a catastrophic recommendation.
//! 4. **Zero false positives at `--deny warnings`** — on cells where the
//!    advisor's pick IS the measured winner, no `SAN-P*` lint may target
//!    that mode (the advisor never warns about the right answer).
//!
//! The comparison metric is `alloc + memcpy + kernel` from
//! [`Runner::run_base`]: mode-independent system overhead excluded,
//! measurement noise excluded (the advisor ranks the noise-free run).

use hetsim::experiment::Experiment;
use hetsim_runtime::{Device, GpuProgram, Runner, TransferMode};
use hetsim_sanitizer::{advise, ModeAdvice, PerfConfig};
use hetsim_trace::Category;
use hetsim_workloads::suite;
use hetsim_workloads::InputSize;

/// Minimum fraction of cells where the advisor's top-ranked mode must
/// equal the simulator's measured winner.
const MIN_AGREEMENT: f64 = 1.0;

/// On a disagreeing cell, `measured(advised pick) / measured(winner)`
/// must stay under this pinned ratio.
const MISS_RATIO: f64 = 1.05;

/// The devices swept: the paper's platform plus a reduced-L1 variant
/// (128 KiB shared carveout halves the L1 and cools the prefetch-mode
/// L2-warm bonus), exercising device sensitivity in both models.
fn devices() -> Vec<Device> {
    let base = Device::a100_epyc();
    let mut small_l1 = Device::a100_epyc();
    small_l1.name = "a100_small_l1";
    small_l1.gpu = small_l1.gpu.with_carveout(
        hetsim_mem::carveout::Carveout::with_shared_kib(128).expect("valid carveout"),
    );
    vec![base, small_l1]
}

/// Sizes swept: kept to the two smallest so the full 22-workload × 2-device
/// grid stays fast in debug builds; the runtime's cost primitives scale
/// with bytes, not with distinct code paths, so larger sizes add cells but
/// not new behavior.
const SIZES: [InputSize; 2] = [InputSize::Tiny, InputSize::Small];

struct Cell {
    workload: &'static str,
    size: InputSize,
    device: &'static str,
    advised: TransferMode,
    measured_winner: TransferMode,
    /// measured(advised) / measured(winner), ≥ 1.
    miss_ratio: f64,
    /// SAN-P lint codes that target the advised mode.
    false_positives: Vec<String>,
}

/// Asserts that every mode's predicted alloc/memcpy/kernel equals
/// [`Runner::run_base`] and its fault stall the sum of the traced run's
/// `fault_stall` kernel spans; returns each mode's measured
/// `alloc + memcpy + kernel` in nanoseconds.
fn pin_predictions(
    w: &dyn GpuProgram,
    advice: &ModeAdvice,
    runner: &Runner,
    experiment: &Experiment,
) -> Vec<(TransferMode, u64)> {
    TransferMode::ALL
        .iter()
        .map(|&mode| {
            let r = runner.run_base(w, mode);
            let p = advice
                .ranked
                .iter()
                .find(|p| p.mode == mode)
                .expect("every mode ranked");
            let cell = format!("{} on {} under {mode}", advice.workload, advice.device);
            assert_eq!(p.alloc, r.alloc, "{cell}: alloc");
            assert_eq!(p.memcpy, r.memcpy, "{cell}: memcpy");
            assert_eq!(p.kernel, r.kernel, "{cell}: kernel");
            let (_, trace) = experiment.traced_run(w, mode, None);
            assert_eq!(trace.dropped(), 0, "{cell}: trace dropped events");
            let stall_spans: u64 = trace
                .spans()
                .filter(|e| e.cat == Category::Kernel && e.name == "fault_stall")
                .map(|e| e.dur())
                .sum();
            assert_eq!(
                p.fault_stall.as_nanos(),
                stall_spans,
                "{cell}: fault stall vs the traced fault_stall spans"
            );
            (mode, (r.alloc + r.memcpy + r.kernel).as_nanos())
        })
        .collect()
}

fn sweep() -> Vec<Cell> {
    let mut cells = Vec::new();
    for device in devices() {
        let runner = Runner::new(device.clone());
        let experiment = Experiment::new().with_device(device.clone());
        for entry in suite::all_entries() {
            for size in SIZES {
                let w = (entry.build)(size);
                let advice = advise(&w, &device, &PerfConfig::default());
                let advised = advice.best().mode;

                let mut measured = pin_predictions(&w, &advice, &runner, &experiment);
                measured.sort_by_key(|&(_, t)| t);
                let (winner, winner_t) = measured[0];
                let advised_t = measured
                    .iter()
                    .find(|&&(m, _)| m == advised)
                    .expect("advised mode measured")
                    .1;

                // Lints whose message names the advised mode.
                let tag = format!("`{}`", advised.name());
                let false_positives: Vec<String> = advice
                    .report
                    .diagnostics
                    .iter()
                    .filter(|d| d.code().starts_with("SAN-P") && d.message.contains(&tag))
                    .map(|d| d.code().to_string())
                    .collect();

                cells.push(Cell {
                    workload: entry.name,
                    size,
                    device: device.name,
                    advised,
                    measured_winner: winner,
                    miss_ratio: advised_t as f64 / winner_t.max(1) as f64,
                    false_positives,
                });
            }
        }
    }
    cells
}

#[test]
fn advisor_matches_simulator_on_registry_sweep() {
    let cells = sweep();
    assert!(!cells.is_empty());

    let misses: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.advised != c.measured_winner)
        .collect();
    let agreement = 1.0 - misses.len() as f64 / cells.len() as f64;

    let mut detail = String::new();
    for c in &misses {
        detail.push_str(&format!(
            "  {} {} on {}: advised {}, measured winner {} (x{:.4})\n",
            c.workload,
            c.size,
            c.device,
            c.advised.name(),
            c.measured_winner.name(),
            c.miss_ratio,
        ));
    }
    println!(
        "advisor agreement: {}/{} cells ({:.1}%)\n{}",
        cells.len() - misses.len(),
        cells.len(),
        agreement * 100.0,
        detail
    );

    assert!(
        agreement >= MIN_AGREEMENT,
        "advisor agreed on only {:.1}% of {} cells (need ≥ {:.0}%):\n{}",
        agreement * 100.0,
        cells.len(),
        MIN_AGREEMENT * 100.0,
        detail
    );

    for c in &misses {
        assert!(
            c.miss_ratio <= MISS_RATIO,
            "{} {} on {}: advised {} measures x{:.4} of winner {} (cap {MISS_RATIO})",
            c.workload,
            c.size,
            c.device,
            c.advised.name(),
            c.miss_ratio,
            c.measured_winner.name(),
        );
    }
}

#[test]
fn no_false_positive_lints_on_winning_cells() {
    for c in sweep() {
        if c.advised == c.measured_winner {
            assert!(
                c.false_positives.is_empty(),
                "{} {} on {}: advisor picked the measured winner {} yet lints it: {:?}",
                c.workload,
                c.size,
                c.device,
                c.advised.name(),
                c.false_positives,
            );
        }
    }
}

/// The runtime rounds each kernel's exposed stall on its own. `nw` at
/// Medium under the prefetch modes is a registry cell where the two
/// kernels' rounded stalls sum to one nanosecond more than the rounded
/// total stall, so this pins the per-kernel rounding the sweep's sizes
/// cannot tell apart.
#[test]
fn fault_stall_is_rounded_per_kernel() {
    let device = Device::a100_epyc();
    let w = suite::by_name("nw", InputSize::Medium).expect("registered");
    let advice = advise(&w, &device, &PerfConfig::default());
    pin_predictions(
        &w,
        &advice,
        &Runner::new(device.clone()),
        &Experiment::new().with_device(device),
    );
}
