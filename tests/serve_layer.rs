//! Serving-layer invariants: the fleet's reports and traces must be
//! byte-identical at any worker-thread count, for every shipped policy.
//!
//! This extends the thread-invariance contract of
//! `parallel_determinism.rs` to the open-loop serving path: arrival
//! generation is a pure function of its seed, placement is one serial
//! pass in arrival order, and the only parallelism (cost-model prewarm
//! and sweep-cell fan-out) assembles results in index order.

use hetsim::batch::JobStages;
use hetsim::{pool, Experiment};
use hetsim_engine::time::Nanos;
use hetsim_runtime::{Device, TransferMode};
use hetsim_serve::{
    ArrivalMix, ArrivalPlan, Fleet, PolicyKind, Request, ServeConfig, ServeReport, ServeSweep,
};
use hetsim_trace::TraceConfig;
use hetsim_workloads::{suite, InputSize};

/// Runs `f` under both thread counts and returns the two results.
fn both<T>(f: impl Fn() -> T) -> (T, T) {
    let serial = pool::with_threads(1, &f);
    let parallel = pool::with_threads(4, &f);
    (serial, parallel)
}

fn config(policy: PolicyKind) -> ServeConfig {
    ServeConfig {
        policy,
        mix: ArrivalMix::by_name("bursty", 300.0).unwrap(),
        seed: 17,
        requests: 120,
    }
}

#[test]
fn arrival_plans_are_thread_count_invariant() {
    let (serial, parallel) = both(|| {
        let mix = ArrivalMix::by_name("diurnal", 250.0).unwrap();
        let plan =
            ArrivalPlan::generate(mix, 9, 200, &ArrivalPlan::full_catalog(), InputSize::Tiny);
        plan.requests
            .iter()
            .map(|r| format!("{}:{}:{}", r.id, r.arrival.as_nanos(), r.workload))
            .collect::<Vec<_>>()
    });
    assert_eq!(
        serial, parallel,
        "arrival sequence must not depend on threads"
    );
}

#[test]
fn serve_reports_are_thread_count_invariant_for_every_policy() {
    for policy in PolicyKind::ALL {
        let (serial, parallel) = both(|| {
            let fleet = Fleet::nvlink(4, InputSize::Tiny);
            let outcome = fleet.serve(&config(policy));
            ServeReport {
                cells: vec![outcome.report],
            }
            .to_json()
        });
        assert_eq!(
            serial,
            parallel,
            "{} report JSON must be byte-identical",
            policy.name()
        );
    }
}

#[test]
fn serve_traces_are_thread_count_invariant_for_every_policy() {
    for policy in PolicyKind::ALL {
        let (serial, parallel) = both(|| {
            let fleet = Fleet::nvlink(4, InputSize::Tiny);
            let outcome = fleet.serve(&config(policy));
            let cap = outcome.trace_events().max(1);
            let trace = outcome.trace(TraceConfig::default().with_capacity(cap));
            assert_eq!(trace.dropped(), 0, "trace capacity must cover the run");
            trace.to_jsonl()
        });
        assert_eq!(
            serial,
            parallel,
            "{} trace must be byte-identical",
            policy.name()
        );
    }
}

/// Sweep JSON is thread-invariant on a small 2-GPU cell and on the
/// 4-GPU Small ladder from quiet to saturated (50 to 3200 req/s).
#[test]
fn sweep_grids_are_thread_count_invariant() {
    let cells = [
        (2, InputSize::Tiny, vec![50.0, 800.0], 5, 80),
        (
            4,
            InputSize::Small,
            vec![50.0, 200.0, 800.0, 3200.0],
            42,
            400,
        ),
    ];
    for (gpus, size, rates, seed, requests) in cells {
        let (serial, parallel) = both(|| {
            let fleet = Fleet::nvlink(gpus, size);
            let sweep = ServeSweep {
                policies: PolicyKind::ALL.to_vec(),
                rates: rates.clone(),
                mix: "poisson".into(),
                seed,
                requests,
            };
            sweep.run(&fleet).to_json()
        });
        assert_eq!(
            serial, parallel,
            "sweep JSON must be byte-identical ({gpus} gpus @ {size})"
        );
    }
}

#[test]
fn fresh_fleets_reproduce_the_same_outcome() {
    // Determinism must hold across Fleet instances, not just across
    // thread counts: nothing may leak from the prewarm memo's fill order.
    let run = || {
        let fleet = Fleet::nvlink(2, InputSize::Tiny);
        let outcome = fleet.serve(&config(PolicyKind::ChaosFailover));
        ServeReport {
            cells: vec![outcome.report],
        }
        .to_json()
    };
    assert_eq!(run(), run());
}

/// The fleet charges each request exactly what the batch harness's noise
/// gives the same run: for every catalog workload × mode × run index, its
/// stages equal the runner's noisy report of the memoized base run, bit
/// for bit.
#[test]
fn fleet_stages_are_the_runners_noisy_base_runs() {
    for size in [InputSize::Tiny, InputSize::Small] {
        let fleet = Fleet::nvlink(1, size);
        let exp = Experiment::new();
        for name in ArrivalPlan::full_catalog() {
            let w = suite::by_name(name, size).unwrap();
            for mode in TransferMode::ALL {
                let base = exp.base_run(&w, mode);
                for i in 0..2000 {
                    let want =
                        JobStages::from_report(&exp.runner().apply_noise(&base, &w, mode, i));
                    let got = fleet.request_stages(name, mode, i);
                    assert_eq!(got, Some(want), "{name} {mode:?} run {i} at {size}");
                }
            }
        }
        assert_eq!(
            fleet.request_stages("no_such_workload", TransferMode::Async, 0),
            None
        );
    }
}

/// `mode_advisor` places every catalog workload in the mode the advisor
/// ranks fastest on the paper's device, also once the fleet holds its
/// advice from an earlier cell.
#[test]
fn mode_advisor_places_the_advisors_best_mode_for_every_workload() {
    let size = InputSize::Small;
    let fleet = Fleet::nvlink(2, size);
    let cell = ServeConfig {
        requests: 60,
        ..config(PolicyKind::ModeAdvisor)
    };
    assert_eq!(fleet.serve(&cell).report.policy, "mode_advisor");
    let catalog = ArrivalPlan::full_catalog();
    let plan = ArrivalPlan {
        mix: ArrivalMix::Poisson { rate_rps: 1.0 },
        seed: 0,
        requests: catalog
            .iter()
            .enumerate()
            .map(|(i, &workload)| Request {
                id: i as u64,
                arrival: Nanos::from_millis(1000 * i as u64),
                workload,
                size,
                deadline: Nanos::from_millis(1000 * i as u64) + ArrivalPlan::DEFAULT_SLO_BUDGET,
            })
            .collect(),
    };
    let policy = PolicyKind::ModeAdvisor.build();
    let device = Device::a100_epyc();
    for _ in 0..2 {
        let out = fleet.serve_plan(&plan, policy.as_ref(), 1);
        assert_eq!(
            out.completed.len(),
            catalog.len(),
            "one-second gaps shed nothing"
        );
        for (c, &name) in out.completed.iter().zip(&catalog) {
            let w = suite::by_name(name, size).unwrap();
            let best = hetsim::verify::advise_program(&w, &device).best().mode;
            assert_eq!((c.workload, c.mode), (name, best));
        }
    }
}
