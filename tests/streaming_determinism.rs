//! Streaming observability gates: the chunked exporters must produce
//! byte-identical output to the buffered ones, at every thread count and
//! at every chunk boundary; a sink-attached recorder must never drop an
//! event however small its ring; and the labeled metric dimensions must
//! answer per-mode and per-stream queries from a real five-mode sweep.
//!
//! Byte identity is the contract that lets the CLI stream every `.json`
//! and `.jsonl` export of `--trace`: the buffered exporters *are*
//! single-chunk streams through the same writers, so any divergence here
//! means a writer peeked at a chunk boundary. Each shape the CLI streams
//! is pinned here against its buffered export: the five-mode merge
//! (`traced_modes`), a single session (`traced_run`), a chaos run inside
//! a sink-attached session, and one serve cell's fleet schedule.

use hetsim::experiment::Experiment;
use hetsim::pool;
use hetsim_runtime::{FaultPlan, RecoveryPolicy, TransferMode};
use hetsim_serve::{ArrivalMix, Fleet, PolicyKind, ServeConfig};
use hetsim_trace::{
    ChromeSink, Dim, JsonlSink, MetricsRegistry, SharedBuffer, Trace, TraceConfig, TraceSink,
};
use hetsim_workloads::{micro, suite, InputSize};

fn exp() -> Experiment {
    Experiment::new().with_runs(2)
}

/// One five-mode traced sweep, buffered, at the given thread count.
fn buffered_sweep(threads: usize) -> Trace {
    pool::with_threads(threads, || {
        let (_, trace) = exp().traced_modes(&micro::vector_seq(InputSize::Tiny), None);
        trace
    })
}

/// A sink writing into a fresh shared buffer, in Chrome or JSONL format.
fn buffer_sink(chrome: bool) -> (Box<dyn TraceSink>, SharedBuffer) {
    let buf = SharedBuffer::new();
    let sink: Box<dyn TraceSink> = if chrome {
        Box::new(ChromeSink::new(buf.clone()))
    } else {
        Box::new(JsonlSink::new(buf.clone()))
    };
    (sink, buf)
}

/// The buffered export of `trace` in the sink's format.
fn export(trace: &Trace, chrome: bool) -> String {
    if chrome {
        trace.to_chrome_json()
    } else {
        trace.to_jsonl()
    }
}

/// The same sweep streamed through a sink during the merge, returning
/// `(finished_trace, streamed_bytes)`. The capacity applies to the
/// per-mode sessions too, so it must stay above any single mode's event
/// count (~40 at Tiny) while the five-mode merge (~170 events) overflows
/// it and chunks mid-run.
fn streamed_sweep(threads: usize, capacity: usize, chrome: bool) -> (Trace, String) {
    pool::with_threads(threads, || {
        let (sink, buf) = buffer_sink(chrome);
        let e = exp().with_trace(TraceConfig::default().with_capacity(capacity));
        let (_, trace) = e.traced_modes(&micro::vector_seq(InputSize::Tiny), Some(sink));
        (trace, buf.into_string())
    })
}

#[test]
fn streamed_jsonl_is_byte_identical_to_buffered_export() {
    let buffered = buffered_sweep(1).to_jsonl();
    // A merge ring smaller than the sweep forces chunk boundaries mid-run.
    let (trace, streamed) = streamed_sweep(1, 64, false);
    assert_eq!(trace.dropped(), 0, "a sink-attached ring never drops");
    assert_eq!(streamed, buffered, "chunking must not leak into the bytes");
}

#[test]
fn streamed_chrome_is_byte_identical_to_buffered_export() {
    let buffered = buffered_sweep(1).to_chrome_json();
    let (trace, streamed) = streamed_sweep(1, 64, true);
    assert_eq!(trace.dropped(), 0);
    assert_eq!(streamed, buffered);
}

#[test]
fn streamed_single_run_is_byte_identical_to_buffered_export() {
    // The session-sink path: a ring far smaller than the run drains into
    // the sink mid-run.
    let w = suite::by_name("bfs", InputSize::Tiny).unwrap();
    let (_, buffered) = exp().traced_run(&w, TransferMode::Uvm, None);
    assert!(
        buffered.total_events() > 16,
        "the run must outgrow the ring"
    );
    let small = exp().with_trace(TraceConfig::default().with_capacity(16));
    for chrome in [false, true] {
        let (sink, buf) = buffer_sink(chrome);
        let (_, trace) = small.traced_run(&w, TransferMode::Uvm, Some(sink));
        assert_eq!(trace.dropped(), 0);
        assert_eq!(trace.streamed(), buffered.total_events());
        assert_eq!(
            buf.into_string(),
            export(&buffered, chrome),
            "chrome={chrome}"
        );
    }
}

#[test]
fn streamed_chaos_run_is_byte_identical_to_buffered_export() {
    // A chaos run records its injected faults and recovery spans into
    // whatever session is active, sink-attached or not.
    let w = suite::by_name("kmeans", InputSize::Tiny).unwrap();
    let armed = exp().with_chaos(FaultPlan::heavy(9), RecoveryPolicy::default());
    let record = |sink: Option<Box<dyn TraceSink>>, capacity: usize| {
        hetsim_trace::session::start(TraceConfig::default().with_capacity(capacity), sink);
        let outcome = armed.try_run(&w, TransferMode::Uvm);
        let trace = hetsim_trace::session::finish().expect("session active");
        (outcome, trace)
    };
    let (outcome, buffered) = record(None, TraceConfig::DEFAULT_CAPACITY);
    assert!(
        buffered.total_events() > 16,
        "the run must outgrow the ring"
    );
    for chrome in [false, true] {
        let (sink, buf) = buffer_sink(chrome);
        let (streamed_outcome, trace) = record(Some(sink), 16);
        assert_eq!(
            streamed_outcome, outcome,
            "streaming must not change the run"
        );
        assert_eq!(trace.dropped(), 0);
        let bytes = buf.into_string();
        assert!(bytes.contains("\"chaos\""), "chaos track missing");
        assert_eq!(bytes, export(&buffered, chrome), "chrome={chrome}");
    }
}

#[test]
fn streamed_serve_cell_is_byte_identical_to_buffered_export() {
    let fleet = Fleet::nvlink(4, InputSize::Tiny);
    let outcome = fleet.serve(&ServeConfig {
        policy: PolicyKind::SloDeadline,
        mix: ArrivalMix::by_name("bursty", 400.0).unwrap(),
        seed: 11,
        requests: 120,
    });
    let buffered =
        outcome.trace(TraceConfig::default().with_capacity(outcome.trace_events().max(1)));
    assert_eq!(buffered.dropped(), 0);
    for chrome in [false, true] {
        let (sink, buf) = buffer_sink(chrome);
        let trace = outcome.trace_streaming(TraceConfig::default().with_capacity(16), sink);
        assert_eq!(trace.dropped(), 0);
        assert_eq!(trace.streamed(), buffered.total_events());
        assert_eq!(
            buf.into_string(),
            export(&buffered, chrome),
            "chrome={chrome}"
        );
    }
}

#[test]
fn streamed_export_is_thread_count_invariant() {
    // threads=1 vs threads=4, chunked vs buffered, one equality web:
    // every corner must produce the same bytes.
    let buffered_serial = buffered_sweep(1).to_chrome_json();
    let buffered_parallel = buffered_sweep(4).to_chrome_json();
    assert_eq!(buffered_serial, buffered_parallel);
    let (_, streamed_serial) = streamed_sweep(1, 64, true);
    let (_, streamed_parallel) = streamed_sweep(4, 64, true);
    assert_eq!(streamed_serial, streamed_parallel);
    assert_eq!(streamed_serial, buffered_serial);
}

#[test]
fn ring_smaller_than_event_count_streams_without_drops() {
    let full = buffered_sweep(1);
    let events = full.total_events();
    assert!(events > 64, "sweep must outgrow the ring for this gate");
    let (trace, _) = streamed_sweep(1, 64, false);
    assert_eq!(
        trace.dropped(),
        0,
        "capacity < total event count, zero drops"
    );
    assert_eq!(trace.streamed(), events, "every event reached the sink");
    assert!(trace.stream_error().is_none());
}

#[test]
fn streamed_summary_agrees_with_buffered_trace() {
    let buffered = buffered_sweep(1);
    let (trace, streamed) = streamed_sweep(1, 64, false);
    assert_eq!(trace.total_events(), buffered.total_events());
    let summary = streamed.lines().last().expect("summary line");
    assert!(summary.contains(&format!("\"events\":{}", buffered.total_events())));
    assert!(summary.contains("\"dropped\":0"));
}

#[test]
fn labeled_metrics_answer_per_mode_and_per_stream_queries() {
    let trace = buffered_sweep(1);
    let metrics = MetricsRegistry::from_trace(&trace);

    // Per-mode: fault counters exist only under the UVM modes, and the
    // uvm slice is non-empty while standard has no faults at all.
    let modes = metrics.label_values("uvm.page_faults", Dim::Mode);
    assert!(
        modes.contains(&"uvm"),
        "per-mode query must surface the uvm slice, got {modes:?}"
    );
    assert!(
        !metrics
            .series_where("uvm.page_faults", &[(Dim::Mode, "uvm")])
            .is_empty(),
        "uvm mode recorded page faults"
    );
    assert!(
        metrics
            .series_where("uvm.page_faults", &[(Dim::Mode, "standard")])
            .is_empty(),
        "standard mode takes no page faults"
    );
    let by_mode = metrics.group_by("uvm.page_faults", Dim::Mode);
    assert!(by_mode.contains_key("uvm"));

    // Per-stream: every traced event carries the stream label set by the
    // runtime phases; the h2d slice must be distinct from d2h.
    let mut streams: Vec<String> = Vec::new();
    for ev in trace.events() {
        if let Some(s) = trace.label(ev, Dim::Stream) {
            if !streams.iter().any(|x| x == s) {
                streams.push(s.to_string());
            }
        }
    }
    for expected in ["h2d", "d2h", "compute"] {
        assert!(
            streams.iter().any(|s| s == expected),
            "stream label `{expected}` missing from sweep, got {streams:?}"
        );
    }
}

#[test]
fn labeled_queries_are_thread_count_invariant() {
    let (serial, parallel) = (
        MetricsRegistry::from_trace(&buffered_sweep(1)).to_labeled_csv(),
        MetricsRegistry::from_trace(&buffered_sweep(4)).to_labeled_csv(),
    );
    assert_eq!(serial, parallel, "labels are functions of the work item");
}

#[test]
fn per_mode_slices_carry_the_job_dimension() {
    // traced_modes fans the five modes over the pool; each per-mode run
    // is job slot 0..5, stamped identically at any thread count.
    let trace = buffered_sweep(4);
    let mut jobs: Vec<String> = Vec::new();
    for ev in trace.events() {
        if let Some(j) = trace.label(ev, Dim::Job) {
            if !jobs.iter().any(|x| x == j) {
                jobs.push(j.to_string());
            }
        }
    }
    jobs.sort();
    assert_eq!(jobs, vec!["0", "1", "2", "3", "4"]);
}

#[test]
fn zero_event_run_streams_a_valid_empty_export() {
    let buf = SharedBuffer::new();
    let b = hetsim_trace::TraceBuilder::new(TraceConfig::default().with_capacity(4))
        .with_sink(Box::new(JsonlSink::new(buf.clone())));
    let trace = b.finish();
    assert_eq!(trace.total_events(), 0);
    assert_eq!(
        buf.into_string(),
        "{\"type\":\"summary\",\"events\":0,\"dropped\":0,\"end_cursor\":0}\n"
    );
}

#[test]
fn explicit_flush_boundary_does_not_change_the_bytes() {
    let record = |flush_every: Option<usize>| {
        let buf = SharedBuffer::new();
        let mut b = hetsim_trace::TraceBuilder::new(TraceConfig::default())
            .with_sink(Box::new(JsonlSink::new(buf.clone())));
        let t = b.track("gpu");
        for i in 0..10u64 {
            b.span_at(
                t,
                hetsim_trace::Category::Kernel,
                format!("k{i}"),
                i * 10,
                5,
            );
            if let Some(n) = flush_every {
                if (i as usize + 1).is_multiple_of(n) {
                    b.flush();
                }
            }
        }
        b.finish();
        buf.into_string()
    };
    let unflushed = record(None);
    assert_eq!(record(Some(1)), unflushed, "flush after every event");
    assert_eq!(record(Some(3)), unflushed, "flush at an odd stride");
}
