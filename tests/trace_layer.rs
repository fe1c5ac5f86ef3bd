//! End-to-end tests of the observability layer (`hetsim-trace`): phase
//! additivity against run reports, export determinism, and the invariant
//! that tracing never perturbs simulation results.

use hetsim::experiment::Experiment;
use hetsim::pool;
use hetsim_runtime::{GpuProgram, TransferMode};
use hetsim_trace::{Category, Dim, MetricsRegistry, TraceConfig};
use hetsim_workloads::{micro, suite, InputSize};

/// The central accounting contract: the runtime emits exactly one phase
/// span per accounted interval, so per-category span sums reproduce the
/// report's breakdown to the nanosecond — in every transfer mode.
#[test]
fn phase_spans_sum_to_report_components_in_every_mode() {
    let w = micro::vector_seq(InputSize::Small);
    let e = Experiment::new();
    for mode in TransferMode::ALL {
        let (report, trace) = e.traced_run(&w, mode, None);
        assert_eq!(
            trace.category_total(Category::Alloc),
            report.alloc.as_nanos(),
            "{}: alloc spans must sum to the alloc component",
            mode.name()
        );
        assert_eq!(
            trace.category_total(Category::Memcpy),
            report.memcpy.as_nanos(),
            "{}: memcpy spans must sum to the memcpy component",
            mode.name()
        );
        assert_eq!(
            trace.category_total(Category::Kernel),
            report.kernel.as_nanos(),
            "{}: kernel spans must sum to the kernel component",
            mode.name()
        );
        assert_eq!(
            trace.category_total(Category::Engine),
            report.system.as_nanos(),
            "{}: the system overhead span must match the system component",
            mode.name()
        );
    }
}

/// Same seed, same workload, same mode ⇒ byte-identical exports (with
/// self-profiling off, the default).
#[test]
fn exports_are_byte_identical_across_runs() {
    let w = suite::by_name("lud", InputSize::Small).unwrap();
    let e = Experiment::new();
    let (r1, t1) = e.traced_run(&w, TransferMode::Uvm, None);
    let (r2, t2) = e.traced_run(&w, TransferMode::Uvm, None);
    assert_eq!(r1, r2, "base runs are deterministic");
    assert_eq!(t1.to_chrome_json(), t2.to_chrome_json(), "chrome export");
    assert_eq!(t1.to_csv(), t2.to_csv(), "csv export");
    assert_eq!(t1.to_text(), t2.to_text(), "text export");
}

/// Recording a trace must not change what is simulated: the traced report
/// equals the untraced one, and the session is closed afterwards.
#[test]
fn tracing_does_not_change_results() {
    let w = micro::saxpy(InputSize::Small);
    let e = Experiment::new();
    let plain = e.runner().run_base(&w, TransferMode::UvmPrefetch);
    let (traced, trace) = e.traced_run(&w, TransferMode::UvmPrefetch, None);
    assert_eq!(plain, traced, "tracing must be a pure observer");
    assert!(!trace.is_empty(), "the observer still saw the run");
    assert!(
        !hetsim_trace::session::enabled(),
        "traced_run leaves no session behind"
    );
}

/// The irregular trio's touch sequences are deterministic at every layer:
/// the model yields the same page-touch list on every call, the run report
/// (fault counters included) is identical across repeated base runs, and
/// observing the run through the trace layer changes nothing — the same
/// observer-invariance contract as [`tracing_does_not_change_results`],
/// extended to the sequence-driven fault-batcher path.
#[test]
fn irregular_fault_sequences_are_deterministic_and_observer_invariant() {
    let e = Experiment::new();
    for name in hetsim_workloads::IRREGULAR_TRIO {
        let w = suite::by_name(name, InputSize::Small).unwrap();
        let model = w.touch_model().expect("trio workloads carry models");

        // The raw touch sequence is byte-identical across calls.
        let chunk = 2 << 20;
        let round = || {
            let mut seq = Vec::new();
            model
                .emit(name, 0, 0, chunk, &w.buffers(), &mut |t| seq.push(t))
                .then_some(seq)
        };
        let (a, b) = (round(), round());
        assert_eq!(a, b, "{name}: touch sequence must be reproducible");
        assert!(
            a.expect("first invocation is modelled").len() > 1,
            "{name}: a modelled invocation touches pages"
        );

        // The full run — fault batching, migration, counters — replays
        // identically, and tracing is a pure observer over it.
        let r1 = e.runner().run_base(&w, TransferMode::Uvm);
        let r2 = e.runner().run_base(&w, TransferMode::Uvm);
        assert_eq!(r1, r2, "{name}: uvm base run must be deterministic");
        let (traced, trace) = e.traced_run(&w, TransferMode::Uvm, None);
        assert_eq!(r1, traced, "{name}: tracing must not perturb the run");
        assert!(
            trace.category_total(Category::Memcpy) == traced.memcpy.as_nanos(),
            "{name}: migration spans must sum to the memcpy component"
        );
    }
}

/// UVM runs surface their counters, and the metrics registry can group
/// and resample them.
#[test]
fn uvm_counters_feed_the_metrics_registry() {
    let w = micro::vector_seq(InputSize::Small);
    let (_, trace) = Experiment::new().traced_run(&w, TransferMode::Uvm, None);
    let names = trace.counter_names();
    assert!(names.contains(&"uvm.page_faults"), "counters: {names:?}");
    assert!(names.contains(&"dma.op_bytes"), "counters: {names:?}");

    let reg = MetricsRegistry::from_trace(&trace);
    let faults = reg.series("uvm.page_faults");
    assert!(!faults.is_empty());
    assert!(reg.peak("uvm.page_faults").unwrap() > 0.0);
    // Zero-order-hold resampling covers the whole horizon.
    let grid = reg.sampled("uvm.page_faults", 1_000_000, trace.horizon());
    assert!(grid.len() >= 2);
    assert_eq!(grid.first().unwrap().0, 0);
    assert!(grid.last().unwrap().0 >= trace.horizon());
}

/// The configurable counter interval decimates high-frequency counters
/// without touching spans (the accounting stays exact).
#[test]
fn counter_interval_decimates_without_touching_spans() {
    let w = micro::vector_seq(InputSize::Small);
    let (report, full) = Experiment::new().traced_run(&w, TransferMode::Uvm, None);
    let (_, dec) = Experiment::new()
        .with_trace(TraceConfig::default().with_counter_interval(1 << 40))
        .traced_run(&w, TransferMode::Uvm, None);
    let f = full.counter_series("dma.op_bytes").len();
    let d = dec.counter_series("dma.op_bytes").len();
    assert!(f > 1, "need several samples for decimation to matter");
    assert!(
        d < f,
        "huge interval keeps only the first sample per counter"
    );
    assert!(d >= 1, "the first sample is always kept");
    assert_eq!(
        dec.category_total(Category::Memcpy),
        report.memcpy.as_nanos(),
        "span accounting is untouched by counter decimation"
    );
}

/// Host self-profiling adds wall-clock spans on host tracks but leaves
/// the sim-time side of the trace untouched.
#[test]
fn self_profiling_leaves_sim_events_untouched() {
    let w = micro::saxpy(InputSize::Tiny);
    let (_, plain) = Experiment::new().traced_run(&w, TransferMode::Standard, None);
    let (_, prof) = Experiment::new()
        .with_trace(TraceConfig::default().with_self_profile())
        .traced_run(&w, TransferMode::Standard, None);
    assert_eq!(plain.category_count(Category::Host), 0);
    assert!(prof.category_count(Category::Host) > 0);
    // Host spans live outside sim accounting entirely.
    assert_eq!(prof.category_total(Category::Host), 0);
    assert_eq!(plain.horizon(), prof.horizon());
    assert_eq!(
        plain.category_total(Category::Kernel),
        prof.category_total(Category::Kernel)
    );
}

/// `traced_modes` lays the five modes back to back in one recording; the
/// horizon covers the sum of all five breakdowns.
#[test]
fn traced_modes_concatenates_all_five_runs() {
    let w = micro::saxpy(InputSize::Tiny);
    let (reports, trace) = Experiment::new().traced_modes(&w, None);
    let total: u64 = reports.iter().map(|r| r.total().as_nanos()).sum();
    assert!(
        trace.horizon() >= total,
        "all five runs are on the timeline"
    );
    // Each mode contributes at least one kernel span.
    assert!(trace.category_count(Category::Kernel) >= 5);
    let alloc: u64 = reports.iter().map(|r| r.alloc.as_nanos()).sum();
    assert_eq!(trace.category_total(Category::Alloc), alloc);
}

/// Every host span is stamped against one process-wide origin. At one
/// thread the five per-mode `host.simulate` spans of a self-profiled
/// `traced_modes` run one after another, in mode order, and the merge
/// starts no earlier than the last of them ends.
#[test]
fn self_profiled_traced_modes_share_one_host_clock() {
    let w = micro::saxpy(InputSize::Tiny);
    let exp = Experiment::new().with_trace(TraceConfig::default().with_self_profile());
    let (_, trace) = pool::with_threads(1, || exp.traced_modes(&w, None));
    let host = |name: &str| trace.track_spans(trace.find_track(name).expect(name));

    let simulate = host("host.simulate");
    let modes: Vec<&str> = simulate
        .iter()
        .map(|e| trace.label(e, Dim::Job).expect("job label"))
        .collect();
    assert_eq!(
        modes,
        ["0", "1", "2", "3", "4"],
        "simulate spans in mode order"
    );
    for pair in simulate.windows(2) {
        assert!(
            pair[0].end() <= pair[1].ts,
            "simulate spans overlap: {:?} then {:?}",
            (pair[0].ts, pair[0].end()),
            (pair[1].ts, pair[1].end())
        );
    }
    let merge = host("host.trace_merge");
    assert_eq!(merge.len(), 1);
    assert!(
        merge[0].ts >= simulate[4].end(),
        "trace_merge starts at {} before the last simulate span ends at {}",
        merge[0].ts,
        simulate[4].end()
    );
}
