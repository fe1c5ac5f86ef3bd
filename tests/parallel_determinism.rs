//! Thread-count invariance: every table, report, and trace export the
//! suite publishes must be byte-identical whether the grids run serially
//! (`threads = 1`) or on the parallel executor (`threads = 4`).
//!
//! This is the contract that lets `--threads N` be a pure wall-clock
//! knob: the pool assembles results by index, per-worker trace sessions
//! merge in mode order at end-cursor offsets, and nothing about
//! scheduling can leak into the output.

use hetsim::experiment::Experiment;
use hetsim::figures;
use hetsim::pool;
use hetsim_trace::Category;
use hetsim_workloads::{suite, InputSize};

fn exp() -> Experiment {
    Experiment::new().with_runs(3)
}

/// Runs `f` under both thread counts and returns the two results.
fn both<T>(f: impl Fn() -> T) -> (T, T) {
    let serial = pool::with_threads(1, &f);
    let parallel = pool::with_threads(4, &f);
    (serial, parallel)
}

#[test]
fn fig7_grid_is_thread_count_invariant() {
    let (serial, parallel) = both(|| {
        figures::fig7(&exp(), InputSize::Tiny)
            .to_table()
            .to_string()
    });
    assert_eq!(serial, parallel, "Fig 7 table must be byte-identical");
}

#[test]
fn fig8_grid_is_thread_count_invariant() {
    let (serial, parallel) = both(|| {
        figures::fig8_at(&exp(), InputSize::Tiny)
            .to_table()
            .to_csv()
    });
    assert_eq!(serial, parallel, "Fig 8 CSV must be byte-identical");
}

#[test]
fn fig4_distribution_grid_is_thread_count_invariant() {
    let (serial, parallel) = both(|| {
        figures::fig4(&exp(), &[InputSize::Tiny])
            .to_table()
            .to_string()
    });
    assert_eq!(serial, parallel);
}

#[test]
fn sensitivity_sweeps_are_thread_count_invariant() {
    let (serial, parallel) = both(|| {
        let e = exp();
        let mut out = figures::fig11(&e, InputSize::Tiny).to_table().to_string();
        out.push_str(&figures::fig12(&e, InputSize::Tiny).to_table().to_string());
        out.push_str(&figures::fig13(&e, InputSize::Tiny).to_table().to_string());
        out
    });
    assert_eq!(serial, parallel, "Figs 11-13 tables must be byte-identical");
}

#[test]
fn irregular_trio_tables_and_reports_are_thread_count_invariant() {
    let (serial, parallel) = both(|| {
        let e = exp();
        let s = figures::irregular(&e, InputSize::Tiny);
        let table = s.to_table().to_string();
        // The raw per-mode mean reports, not just their rendering.
        let reports: Vec<_> = s
            .comparisons()
            .iter()
            .flat_map(|c| {
                hetsim_runtime::TransferMode::ALL
                    .iter()
                    .map(|&m| c.mean(m).clone())
                    .collect::<Vec<_>>()
            })
            .collect();
        (table, reports)
    });
    assert_eq!(serial.0, parallel.0, "irregular table");
    assert_eq!(serial.1, parallel.1, "irregular mean reports");
}

#[test]
fn traced_modes_exports_are_thread_count_invariant() {
    let w = suite::by_name("bfs", InputSize::Tiny).expect("bfs exists");
    let (serial, parallel) = both(|| {
        let (reports, trace) = exp().traced_modes(&w, None);
        (
            reports,
            trace.to_chrome_json(),
            trace.to_csv(),
            [
                trace.category_total(Category::Alloc),
                trace.category_total(Category::Memcpy),
                trace.category_total(Category::Kernel),
            ],
        )
    });
    assert_eq!(serial.0, parallel.0, "per-mode reports");
    assert_eq!(serial.1, parallel.1, "Chrome JSON export");
    assert_eq!(serial.2, parallel.2, "CSV export");
    assert_eq!(serial.3, parallel.3, "category totals");
}

#[test]
fn traced_modes_metrics_registry_is_thread_count_invariant() {
    let w = suite::by_name("kmeans", InputSize::Tiny).expect("kmeans exists");
    let (serial, parallel) = both(|| {
        let (_, trace) = exp().traced_modes(&w, None);
        hetsim_trace::MetricsRegistry::from_trace(&trace).to_csv()
    });
    assert_eq!(serial, parallel, "metrics registry rendering");
}
