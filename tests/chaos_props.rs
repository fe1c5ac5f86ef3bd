//! Property suite for the chaos layer: the full 22-workload registry ×
//! the fault taxonomy × 8 seeds, at Tiny size.
//!
//! The contract under test (the ISSUE's acceptance gate):
//!
//! 1. **Totality** — every `(workload, plan, mode, seed)` cell either
//!    recovers (the recovery cost visible in the run breakdown) or
//!    returns a typed [`SimError`]; nothing panics.
//! 2. **Separability** — a recovered run minus its booked per-component
//!    chaos overhead reproduces the fault-free base run of the effective
//!    mode *exactly*, counters included. Injected faults never corrupt
//!    the simulated result, only its cost.
//! 3. **Determinism** — the same seed and plan give the same
//!    [`ChaosRunReport`] on every replay, and a whole degradation sweep
//!    renders byte-identically at any thread count.

use hetsim::degradation::{ChaosSweep, ChaosSweepConfig};
use hetsim::experiment::Experiment;
use hetsim::pool;
use hetsim_runtime::{ChaosRunReport, FaultPlan, RecoveryPolicy, SimError, TransferMode};
use hetsim_workloads::{suite, InputSize};

/// The fault-taxonomy corners the sweep cycles through per cell.
fn plan_for(kind: usize, seed: u64) -> FaultPlan {
    match kind {
        0 => FaultPlan::off(),
        1 => FaultPlan::light(seed),
        2 => FaultPlan::heavy(seed),
        3 => FaultPlan::storm(seed),
        _ => FaultPlan::at_intensity(seed, 0.6),
    }
}

fn assert_separable(exp: &Experiment, out: &ChaosRunReport, label: &str) {
    let base = exp.base_run(
        &suite::by_name(label.split_whitespace().next().unwrap(), InputSize::Tiny).unwrap(),
        out.effective_mode,
    );
    let oh = out.chaos.overhead;
    let mut stripped = out.report.clone();
    stripped.alloc -= oh.alloc;
    stripped.memcpy -= oh.memcpy;
    stripped.kernel -= oh.kernel;
    stripped.system -= oh.system;
    assert_eq!(stripped, base, "{label}: recovered run is not separable");
    assert_eq!(
        out.report.counters, base.counters,
        "{label}: chaos perturbed the counters"
    );
}

#[test]
fn registry_times_taxonomy_times_seeds_recovers_or_errors_typed() {
    let exp = Experiment::new().with_runs(1);
    let entries = suite::all_entries();
    assert_eq!(entries.len(), 22, "registry size drifted; update this gate");
    let mut recovered = 0u64;
    let mut degraded = 0u64;
    let mut failed = 0u64;
    for (wi, entry) in entries.iter().enumerate() {
        let w = (entry.build)(InputSize::Tiny);
        for seed in 0..8u64 {
            // Cycle plans and modes so every workload still meets every
            // plan kind across the seed axis, without a full 22x5x5x8
            // product blowing up the test's wall clock.
            let plan = plan_for((wi + seed as usize) % 5, seed);
            let mode = TransferMode::ALL[(wi + seed as usize) % 5];
            let label = format!("{} {} seed{seed}", entry.name, mode.name());
            let armed = exp.clone().with_chaos(plan, RecoveryPolicy::default());
            match armed.try_run(&w, mode) {
                Ok(out) => {
                    assert_separable(&exp, &out, &label);
                    if plan.is_active() && out.chaos.injected() > 0 {
                        // Recovery cost must be visible in the breakdown.
                        assert!(
                            out.report.total() > exp.base_run(&w, out.effective_mode).total(),
                            "{label}: injected faults left no cost"
                        );
                    }
                    if out.degraded() {
                        degraded += 1;
                    } else {
                        recovered += 1;
                    }
                }
                Err(
                    SimError::RetryExhausted { .. }
                    | SimError::ReplayExhausted { .. }
                    | SimError::PinnedAllocFailed { .. },
                ) => failed += 1,
                Err(other) => panic!("{label}: non-recovery error {other:?}"),
            }
        }
    }
    // The grid must actually exercise all three outcome classes.
    assert!(recovered > 0, "no cell recovered cleanly");
    assert!(degraded > 0, "no cell degraded (storm plans should)");
    assert!(
        recovered + degraded + failed == 22 * 8,
        "outcome classes don't partition the grid"
    );
}

#[test]
fn same_seed_and_plan_replay_identically() {
    let exp = Experiment::new().with_runs(1);
    for name in ["bfs", "gemm", "vector_rand"] {
        let w = suite::by_name(name, InputSize::Tiny).unwrap();
        let armed = exp
            .clone()
            .with_chaos(FaultPlan::heavy(5), RecoveryPolicy::default());
        let a = armed.try_run(&w, TransferMode::UvmPrefetchAsync);
        let b = armed.try_run(&w, TransferMode::UvmPrefetchAsync);
        assert_eq!(a, b, "{name}: replay diverged");
    }
}

#[test]
fn degradation_sweep_is_byte_identical_across_thread_counts() {
    let cfg = ChaosSweepConfig {
        workloads: vec!["bfs".into(), "kmeans".into(), "vector_seq".into()],
        size: InputSize::Tiny,
        rates: vec![0.0, 0.4, 1.0],
        seeds: 3,
        ..ChaosSweepConfig::default()
    };
    let run = || {
        let exp = Experiment::new().with_runs(1);
        ChaosSweep::run(&exp, &cfg)
    };
    let serial = pool::with_threads(1, run);
    let parallel = pool::with_threads(4, run);
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.to_table().to_csv(), parallel.to_table().to_csv());
}

#[test]
fn chaos_trace_is_seed_deterministic() {
    // Same seed + plan => byte-identical Chrome trace, including the
    // chaos track's injected-fault instants.
    let w = suite::by_name("kmeans", InputSize::Tiny).unwrap();
    let record = || {
        let exp = Experiment::new()
            .with_runs(1)
            .with_chaos(FaultPlan::heavy(9), RecoveryPolicy::default());
        hetsim_trace::session::start(hetsim_trace::TraceConfig::default(), None);
        let out = exp.try_run(&w, TransferMode::Uvm);
        let trace = hetsim_trace::session::finish().expect("session active");
        (out, trace.to_chrome_json())
    };
    let (out_a, json_a) = record();
    let (out_b, json_b) = record();
    assert_eq!(out_a, out_b);
    assert_eq!(json_a, json_b);
    assert!(json_a.contains("\"chaos\""), "chaos track missing");
}

#[test]
fn impossible_plans_never_reach_simulation() {
    let exp = Experiment::new()
        .with_runs(1)
        .with_chaos(FaultPlan::light(1), RecoveryPolicy::brittle());
    let w = suite::by_name("saxpy", InputSize::Tiny).unwrap();
    match exp.try_run(&w, TransferMode::Standard) {
        Err(SimError::InvalidPlan(msg)) => assert!(msg.contains("retry budget"), "{msg}"),
        other => panic!("expected InvalidPlan, got {other:?}"),
    }
    assert!(hetsim::verify::check_plan(&FaultPlan::light(1), &RecoveryPolicy::brittle()).is_err());
    assert!(hetsim::verify::check_plan(&FaultPlan::light(1), &RecoveryPolicy::default()).is_ok());
}
