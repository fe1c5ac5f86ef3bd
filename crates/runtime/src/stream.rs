//! CUDA streams and the classic multi-stream copy/compute overlap.
//!
//! Before UVM and `cp.async`, the standard way to hide transfer latency was
//! stream pipelining (§2.2 cites a decade of it): split buffers into
//! chunks, issue H2D copy / kernel / D2H copy of successive chunks on
//! different streams, and let the copy engines overlap the SMs. This module
//! implements that schedule on the discrete-event engine, giving the
//! repository the natural baseline the paper's related work compares
//! against — and a sixth configuration (`standard_overlapped`) for the
//! extension experiments.
//!
//! The device has one H2D copy engine, one D2H copy engine, and one compute
//! engine (the SM pool); operations on the same stream serialize, and each
//! engine serializes operations across streams — exactly the CUDA model.

use hetsim_chaos::SimError;
use hetsim_engine::time::{Nanos, SimTime};
use hetsim_trace::{Category, Dim, EventKind, Trace, TraceBuilder, TraceConfig};
use std::fmt;

/// Identifier of a stream within one [`StreamSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

/// The engine an operation occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Host→device DMA engine.
    CopyH2D,
    /// Device→host DMA engine.
    CopyD2H,
    /// The SM pool.
    Compute,
}

impl Engine {
    /// All engines.
    pub const ALL: [Engine; 3] = [Engine::CopyH2D, Engine::CopyD2H, Engine::Compute];

    /// Display name, also the trace track each engine's spans land on.
    pub fn name(self) -> &'static str {
        match self {
            Engine::CopyH2D => "h2d",
            Engine::CopyD2H => "d2h",
            Engine::Compute => "compute",
        }
    }

    /// Inverse of [`Engine::name`].
    pub fn from_name(name: &str) -> Option<Engine> {
        Engine::ALL.into_iter().find(|e| e.name() == name)
    }

    /// Inverse of [`Engine::name`], with a typed error for unknown track
    /// names so callers can surface a diagnostic instead of silently
    /// dropping the operation (or panicking).
    pub fn parse(name: &str) -> Result<Engine, UnknownEngineError> {
        Engine::from_name(name).ok_or_else(|| UnknownEngineError(name.to_string()))
    }
}

/// A trace track name that does not correspond to any [`Engine`].
///
/// Returned by [`Engine::parse`]; surfaced by
/// [`ScheduleOutcome::unknown_tracks`] and reported by the sanitizer as a
/// diagnostic rather than panicking in trace export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownEngineError(pub String);

impl fmt::Display for UnknownEngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown engine track name `{}`", self.0)
    }
}

impl std::error::Error for UnknownEngineError {}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The buffer chunk range an operation reads or writes.
///
/// Purely descriptive metadata: annotating an operation with an access does
/// not change how [`StreamSchedule::run`] evaluates the schedule. The
/// sanitizer's stream-hazard analysis consumes it to detect write/write and
/// read/write overlaps between operations that no stream, engine, or event
/// edge serializes — the simulated analogue of `compute-sanitizer
/// --tool racecheck`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferAccess {
    /// Name of the buffer being accessed.
    pub buffer: String,
    /// Half-open chunk range `[start, end)` within the buffer.
    pub chunks: std::ops::Range<u64>,
    /// Whether the operation writes the range (an H2D copy or a storing
    /// kernel) rather than only reading it (a D2H copy).
    pub write: bool,
}

impl BufferAccess {
    /// A read of `chunks` in `buffer`.
    pub fn reads<S: Into<String>>(buffer: S, chunks: std::ops::Range<u64>) -> Self {
        BufferAccess {
            buffer: buffer.into(),
            chunks,
            write: false,
        }
    }

    /// A write of `chunks` in `buffer`.
    pub fn writes<S: Into<String>>(buffer: S, chunks: std::ops::Range<u64>) -> Self {
        BufferAccess {
            buffer: buffer.into(),
            chunks,
            write: true,
        }
    }

    /// Whether two accesses conflict: same buffer, overlapping chunk
    /// ranges, and at least one side writing.
    pub fn conflicts_with(&self, other: &BufferAccess) -> bool {
        (self.write || other.write)
            && self.buffer == other.buffer
            && self.chunks.start < other.chunks.end
            && other.chunks.start < self.chunks.end
    }
}

/// Identifier of a recorded event within one [`StreamSchedule`].
///
/// Allocated by [`StreamSchedule::record_event`]; waited on with
/// [`StreamSchedule::wait_event`] — the simulated analogue of
/// `cudaEventRecord` / `cudaStreamWaitEvent` cross-stream dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u32);

/// One entry in a [`StreamSchedule`]'s issue-order item list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleItem {
    /// An operation occupying `engine` for `duration` on `stream`.
    Op {
        /// Stream the operation is enqueued on (in-stream FIFO order).
        stream: StreamId,
        /// Engine the operation occupies (serialized across streams).
        engine: Engine,
        /// How long the engine is occupied.
        duration: Nanos,
        /// Label for traces and diagnostics.
        label: String,
        /// Optional buffer chunk range the operation touches, consumed by
        /// the sanitizer's hazard analysis.
        access: Option<BufferAccess>,
    },
    /// Records `event` at `stream`'s current frontier: the event fires when
    /// every operation previously enqueued on `stream` has completed.
    RecordEvent {
        /// Stream whose frontier the event captures.
        stream: StreamId,
        /// The event being recorded.
        event: EventId,
    },
    /// Blocks `stream` until `event` fires. Waiting on an event that was
    /// never recorded is a no-op at runtime (CUDA semantics for an
    /// unrecorded event) — the sanitizer flags it as a diagnostic.
    WaitEvent {
        /// Stream that blocks.
        stream: StreamId,
        /// The event waited on.
        event: EventId,
    },
}

/// A completed operation with its scheduled interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Stream the operation ran on.
    pub stream: StreamId,
    /// Engine it occupied.
    pub engine: Engine,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
    /// Operation label.
    pub label: String,
}

/// Builds and evaluates a multi-stream schedule.
///
/// # Example
///
/// ```
/// use hetsim_runtime::stream::{Engine, StreamSchedule, StreamId};
/// use hetsim_engine::time::Nanos;
///
/// let mut s = StreamSchedule::new();
/// // Two streams, each: copy in, compute, copy out.
/// for i in 0..2 {
///     let st = StreamId(i);
///     s.push(st, Engine::CopyH2D, Nanos::from_micros(10), "h2d");
///     s.push(st, Engine::Compute, Nanos::from_micros(10), "kernel");
///     s.push(st, Engine::CopyD2H, Nanos::from_micros(10), "d2h");
/// }
/// let outcome = s.run();
/// // Pipelining beats the 60us serial schedule.
/// assert!(outcome.makespan() < Nanos::from_micros(60));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamSchedule {
    items: Vec<ScheduleItem>,
    next_event: u32,
}

/// The evaluated schedule.
///
/// The single source of truth here is a [`Trace`]: [`StreamSchedule::run`]
/// records every operation as a `stream`-category span on its engine's
/// track, and the outcome's ops, makespan, and utilizations are all *views*
/// derived from that recording. The same trace feeds the Gantt renderer
/// ([`Timeline::from_trace`](crate::timeline::Timeline::from_trace)) and,
/// when a trace session is active, gets folded into it — so an exported
/// Chrome trace, the ASCII timeline, and the numeric summaries can never
/// disagree.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    trace: Trace,
}

impl StreamSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        StreamSchedule::default()
    }

    /// Enqueues an operation on `stream`, occupying `engine` for
    /// `duration`. Order of calls is the issue order (CUDA stream
    /// semantics: in-stream FIFO).
    pub fn push<S: Into<String>>(
        &mut self,
        stream: StreamId,
        engine: Engine,
        duration: Nanos,
        label: S,
    ) -> &mut Self {
        self.items.push(ScheduleItem::Op {
            stream,
            engine,
            duration,
            label: label.into(),
            access: None,
        });
        self
    }

    /// Like [`push`](StreamSchedule::push), additionally annotating the
    /// operation with the buffer chunk range it touches so the sanitizer
    /// can analyze the schedule for cross-stream hazards.
    pub fn push_access<S: Into<String>>(
        &mut self,
        stream: StreamId,
        engine: Engine,
        duration: Nanos,
        label: S,
        access: BufferAccess,
    ) -> &mut Self {
        self.items.push(ScheduleItem::Op {
            stream,
            engine,
            duration,
            label: label.into(),
            access: Some(access),
        });
        self
    }

    /// Appends a raw [`ScheduleItem`] in issue order.
    ///
    /// The typed helpers ([`push`](StreamSchedule::push),
    /// [`push_access`](StreamSchedule::push_access),
    /// [`record_event`](StreamSchedule::record_event),
    /// [`wait_event`](StreamSchedule::wait_event)) are usually what you
    /// want; this exists so schedules can be rebuilt item-by-item (e.g. the
    /// differential-validation harness replays a schedule with perturbed
    /// durations while preserving event identities).
    pub fn push_item(&mut self, item: ScheduleItem) -> &mut Self {
        if let ScheduleItem::RecordEvent { event, .. } | ScheduleItem::WaitEvent { event, .. } =
            &item
        {
            self.next_event = self.next_event.max(event.0 + 1);
        }
        self.items.push(item);
        self
    }

    /// Records a fresh event at `stream`'s current frontier and returns its
    /// id: the event fires once everything previously enqueued on `stream`
    /// has completed (the `cudaEventRecord` analogue).
    pub fn record_event(&mut self, stream: StreamId) -> EventId {
        let event = EventId(self.next_event);
        self.next_event += 1;
        self.items.push(ScheduleItem::RecordEvent { stream, event });
        event
    }

    /// Makes `stream` wait for `event` before running anything enqueued on
    /// it afterwards (the `cudaStreamWaitEvent` analogue). Waiting on an
    /// event recorded later — or never — in issue order is a no-op at
    /// runtime; the sanitizer reports it.
    pub fn wait_event(&mut self, stream: StreamId, event: EventId) -> &mut Self {
        self.items.push(ScheduleItem::WaitEvent { stream, event });
        self
    }

    /// The schedule's items in issue order (operations plus event
    /// record/wait markers). This is the sanitizer's input.
    pub fn items(&self) -> &[ScheduleItem] {
        &self.items
    }

    /// Number of enqueued operations (event markers are not counted).
    pub fn len(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i, ScheduleItem::Op { .. }))
            .count()
    }

    /// Whether the schedule has no operations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluates the schedule: every operation starts as soon as both its
    /// stream (program order, including event waits) and its engine (device
    /// resource) are free.
    pub fn run(&self) -> ScheduleOutcome {
        use std::collections::HashMap;
        let mut stream_free: HashMap<StreamId, SimTime> = HashMap::new();
        let mut engine_free: HashMap<Engine, SimTime> = HashMap::new();
        let mut event_time: HashMap<EventId, SimTime> = HashMap::new();
        let mut b = TraceBuilder::new(TraceConfig::default().with_capacity(self.len().max(1)));
        // Intern engine tracks up front in canonical order so track ids and
        // the exported lane order don't depend on which engine issues first.
        for e in Engine::ALL {
            b.track(e.name());
        }

        for item in &self.items {
            match item {
                ScheduleItem::Op {
                    stream,
                    engine,
                    duration,
                    label,
                    access: _,
                } => {
                    let s = stream_free.get(stream).copied().unwrap_or(SimTime::ZERO);
                    let e = engine_free.get(engine).copied().unwrap_or(SimTime::ZERO);
                    let start = s.max(e);
                    let end = start + *duration;
                    stream_free.insert(*stream, end);
                    engine_free.insert(*engine, end);
                    let track = b.track(engine.name());
                    b.set_label(Dim::Stream, &stream.0.to_string());
                    b.span_with(
                        track,
                        Category::Stream,
                        label.clone(),
                        start.as_nanos(),
                        duration.as_nanos(),
                        Some(("stream", f64::from(stream.0))),
                    );
                }
                ScheduleItem::RecordEvent { stream, event } => {
                    let s = stream_free.get(stream).copied().unwrap_or(SimTime::ZERO);
                    event_time.insert(*event, s);
                }
                ScheduleItem::WaitEvent { stream, event } => {
                    // Unrecorded events behave like CUDA's: the wait is a
                    // no-op (the event "fired at time zero").
                    if let Some(&t) = event_time.get(event) {
                        let s = stream_free.get(stream).copied().unwrap_or(SimTime::ZERO);
                        stream_free.insert(*stream, s.max(t));
                    }
                }
            }
        }

        let trace = b.finish();
        // Fold the schedule into an active session so `--trace` exports see
        // stream operations alongside the runtime's phase spans, anchored
        // at the session's current sim time.
        if hetsim_trace::session::enabled() {
            hetsim_trace::session::with(|sess| {
                let at = sess.now();
                sess.absorb_at(&trace, at);
            });
        }
        ScheduleOutcome { trace }
    }

    /// Evaluates the schedule under *strict* event semantics with a
    /// sim-time watchdog: unlike [`StreamSchedule::run`] (which keeps
    /// CUDA's waits-on-unrecorded-events-are-no-ops behavior), a wait here
    /// blocks its stream until the event's recording point — anywhere in
    /// issue order — has executed. Event-wait cycles, self-waits, and
    /// waits on never-recorded events therefore surface as a typed
    /// [`SimError::Deadlock`] naming every blocked stream, instead of
    /// silently reordering or spinning.
    ///
    /// For schedules where every wait follows its record in issue order
    /// (the well-formed case the sanitizer's `SAN-S003`/`SAN-S005` lints
    /// certify), `try_run` produces the same timing as `run`.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when no execution order can make progress.
    pub fn try_run(&self) -> Result<ScheduleOutcome, SimError> {
        self.try_run_watchdog(None)
    }

    /// [`StreamSchedule::try_run`] with a makespan deadline: a schedule
    /// that completes but takes longer than `deadline` returns
    /// [`SimError::Timeout`] — the sim-time analogue of a watchdog timer
    /// firing on a starved stream.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] on blocked schedules, [`SimError::Timeout`]
    /// when the makespan exceeds `deadline`.
    pub fn try_run_deadline(&self, deadline: Nanos) -> Result<ScheduleOutcome, SimError> {
        self.try_run_watchdog(Some(deadline))
    }

    fn try_run_watchdog(&self, deadline: Option<Nanos>) -> Result<ScheduleOutcome, SimError> {
        use std::collections::HashMap;
        let items = &self.items;
        let n = items.len();

        // A wait binds to the event's *first* recording site in issue
        // order; re-records later in the schedule don't retarget it.
        let mut recorded_at: HashMap<u32, usize> = HashMap::new();
        for (i, item) in items.iter().enumerate() {
            if let ScheduleItem::RecordEvent { event, .. } = item {
                recorded_at.entry(event.0).or_insert(i);
            }
        }
        // Issue-order predecessors: the previous item on the same stream,
        // and (for operations) the previous operation on the same engine.
        let mut prev_stream: Vec<Option<usize>> = vec![None; n];
        let mut prev_engine: Vec<Option<usize>> = vec![None; n];
        {
            let mut last_s: HashMap<u32, usize> = HashMap::new();
            let mut last_e: HashMap<Engine, usize> = HashMap::new();
            for (i, item) in items.iter().enumerate() {
                let s = match item {
                    ScheduleItem::Op { stream, .. }
                    | ScheduleItem::RecordEvent { stream, .. }
                    | ScheduleItem::WaitEvent { stream, .. } => stream.0,
                };
                prev_stream[i] = last_s.insert(s, i);
                if let ScheduleItem::Op { engine, .. } = item {
                    prev_engine[i] = last_e.insert(*engine, i);
                }
            }
        }

        let mut done = vec![false; n];
        let mut remaining = n;
        let mut stream_free: HashMap<StreamId, SimTime> = HashMap::new();
        let mut engine_free: HashMap<Engine, SimTime> = HashMap::new();
        // Event fire time, captured at the binding record's execution.
        let mut record_time: Vec<Option<SimTime>> = vec![None; n];
        let mut b = TraceBuilder::new(TraceConfig::default().with_capacity(self.len().max(1)));
        for e in Engine::ALL {
            b.track(e.name());
        }

        // Fixed-point over issue order: each pass executes every item
        // whose predecessors (stream, engine, bound record) are done. The
        // timing of an item depends only on those predecessors, so the
        // result is independent of how the passes happen to interleave.
        while remaining > 0 {
            let mut progressed = false;
            for i in 0..n {
                if done[i] || prev_stream[i].is_some_and(|p| !done[p]) {
                    continue;
                }
                match &items[i] {
                    ScheduleItem::Op {
                        stream,
                        engine,
                        duration,
                        label,
                        access: _,
                    } => {
                        if prev_engine[i].is_some_and(|p| !done[p]) {
                            continue;
                        }
                        let s = stream_free.get(stream).copied().unwrap_or(SimTime::ZERO);
                        let e = engine_free.get(engine).copied().unwrap_or(SimTime::ZERO);
                        let start = s.max(e);
                        let end = start + *duration;
                        stream_free.insert(*stream, end);
                        engine_free.insert(*engine, end);
                        let track = b.track(engine.name());
                        b.set_label(Dim::Stream, &stream.0.to_string());
                        b.span_with(
                            track,
                            Category::Stream,
                            label.clone(),
                            start.as_nanos(),
                            duration.as_nanos(),
                            Some(("stream", f64::from(stream.0))),
                        );
                    }
                    ScheduleItem::RecordEvent { stream, .. } => {
                        let s = stream_free.get(stream).copied().unwrap_or(SimTime::ZERO);
                        record_time[i] = Some(s);
                    }
                    ScheduleItem::WaitEvent { stream, event } => {
                        let Some(&r) = recorded_at.get(&event.0) else {
                            continue; // never recorded: blocks forever
                        };
                        if !done[r] {
                            continue;
                        }
                        let t = record_time[r].unwrap_or(SimTime::ZERO);
                        let s = stream_free.get(stream).copied().unwrap_or(SimTime::ZERO);
                        stream_free.insert(*stream, s.max(t));
                    }
                }
                done[i] = true;
                remaining -= 1;
                progressed = true;
            }
            if !progressed {
                return Err(SimError::Deadlock {
                    schedule: "stream_schedule".to_string(),
                    blocked: self.describe_blocked(&done, &prev_stream, &recorded_at),
                });
            }
        }

        let trace = b.finish();
        let makespan = Nanos::from_nanos(trace.horizon());
        if let Some(d) = deadline {
            if makespan > d {
                return Err(SimError::Timeout {
                    schedule: "stream_schedule".to_string(),
                    makespan,
                    deadline: d,
                });
            }
        }
        if hetsim_trace::session::enabled() {
            hetsim_trace::session::with(|sess| {
                let at = sess.now();
                sess.absorb_at(&trace, at);
            });
        }
        Ok(ScheduleOutcome { trace })
    }

    /// One line per stuck stream head, for the deadlock diagnostic.
    fn describe_blocked(
        &self,
        done: &[bool],
        prev_stream: &[Option<usize>],
        recorded_at: &std::collections::HashMap<u32, usize>,
    ) -> Vec<String> {
        let mut blocked = Vec::new();
        for (i, item) in self.items.iter().enumerate() {
            // Stream heads only: the first undone item of each stream.
            if done[i] || prev_stream[i].is_some_and(|p| !done[p]) {
                continue;
            }
            match item {
                ScheduleItem::WaitEvent { stream, event } => match recorded_at.get(&event.0) {
                    Some(&r) => blocked.push(format!(
                        "stream {} blocked at item {i}: waits on event {} whose record \
                         (item {r}) cannot execute",
                        stream.0, event.0
                    )),
                    None => blocked.push(format!(
                        "stream {} blocked at item {i}: waits on event {} that is never \
                         recorded",
                        stream.0, event.0
                    )),
                },
                ScheduleItem::Op {
                    stream,
                    engine,
                    label,
                    ..
                } => blocked.push(format!(
                    "stream {} blocked at item {i}: `{label}` waits for engine {engine} \
                     held by a stalled stream",
                    stream.0
                )),
                ScheduleItem::RecordEvent { stream, event } => blocked.push(format!(
                    "stream {} blocked at item {i}: record of event {}",
                    stream.0, event.0
                )),
            }
        }
        blocked
    }

    /// Convenience: the chunked copy/compute pipeline over `chunks` chunks
    /// spread round-robin over `streams` streams, with per-chunk H2D,
    /// kernel, and D2H durations.
    pub fn chunked_pipeline(
        chunks: u32,
        streams: u32,
        h2d: Nanos,
        kernel: Nanos,
        d2h: Nanos,
    ) -> StreamSchedule {
        assert!(streams > 0, "need at least one stream");
        let mut s = StreamSchedule::new();
        for c in 0..chunks {
            let st = StreamId(c % streams);
            let range = u64::from(c)..u64::from(c) + 1;
            // Each chunk stays on one stream, so the copy-in / kernel /
            // copy-out chain over its range is serialized by construction;
            // annotating the accesses lets the sanitizer prove it hazard-free.
            s.push_access(
                st,
                Engine::CopyH2D,
                h2d,
                format!("h2d[{c}]"),
                BufferAccess::writes("data", range.clone()),
            );
            s.push_access(
                st,
                Engine::Compute,
                kernel,
                format!("kernel[{c}]"),
                BufferAccess::writes("data", range.clone()),
            );
            s.push_access(
                st,
                Engine::CopyD2H,
                d2h,
                format!("d2h[{c}]"),
                BufferAccess::reads("data", range),
            );
        }
        s
    }
}

impl ScheduleOutcome {
    /// The recorded schedule trace every other accessor derives from.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Total wall time of the schedule (the trace horizon).
    pub fn makespan(&self) -> Nanos {
        Nanos::from_nanos(self.trace.horizon())
    }

    /// The scheduled operations in issue order, reconstructed from the
    /// trace spans.
    pub fn ops(&self) -> Vec<ScheduledOp> {
        self.trace
            .events()
            .iter()
            .filter_map(|ev| {
                let EventKind::Span { dur } = ev.kind else {
                    return None;
                };
                let engine = Engine::from_name(self.trace.track_name(ev.track))?;
                let (_, stream) = ev.arg.filter(|(k, _)| *k == "stream")?;
                Some(ScheduledOp {
                    stream: StreamId(stream as u32),
                    engine,
                    start: SimTime::from_nanos(ev.ts),
                    end: SimTime::from_nanos(ev.ts + dur),
                    label: ev.name.clone().into_owned(),
                })
            })
            .collect()
    }

    /// Trace track names that carry `stream`-category spans but do not name
    /// any [`Engine`] — operations [`ops`](ScheduleOutcome::ops) silently
    /// skips because [`Engine::parse`] rejects the track.
    ///
    /// Always empty for traces produced by [`StreamSchedule::run`]; can be
    /// non-empty when an outcome is reconstructed from an external or
    /// hand-edited trace. The sanitizer surfaces each entry as a
    /// `SAN-S004` diagnostic instead of letting the drop go unnoticed.
    pub fn unknown_tracks(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for ev in self.trace.events() {
            if !matches!(ev.kind, EventKind::Span { .. }) || ev.cat != Category::Stream {
                continue;
            }
            let name = self.trace.track_name(ev.track);
            if Engine::parse(name).is_err() && !out.iter().any(|n| n == name) {
                out.push(name.to_string());
            }
        }
        out
    }

    /// Utilization of one engine over the makespan, `[0, 1]`.
    ///
    /// Operations on one engine never overlap (the engine serializes), so
    /// busy time is simply the sum of span durations on its track.
    pub fn utilization(&self, engine: Engine) -> f64 {
        let makespan = self.trace.horizon();
        if makespan == 0 {
            return 0.0;
        }
        let busy: u64 = match self.trace.find_track(engine.name()) {
            Some(id) => self.trace.track_spans(id).iter().map(|e| e.dur()).sum(),
            None => 0,
        };
        busy as f64 / makespan as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    #[test]
    fn single_stream_serializes() {
        let mut s = StreamSchedule::new();
        let st = StreamId(0);
        s.push(st, Engine::CopyH2D, us(10), "a");
        s.push(st, Engine::Compute, us(20), "b");
        s.push(st, Engine::CopyD2H, us(5), "c");
        let o = s.run();
        assert_eq!(o.makespan(), us(35));
        assert_eq!(o.ops()[1].start, SimTime::from_nanos(10_000));
    }

    #[test]
    fn two_streams_overlap_copy_and_compute() {
        let o = StreamSchedule::chunked_pipeline(2, 2, us(10), us(10), us(10)).run();
        // Serial would be 60us; with overlap the second chunk's H2D hides
        // behind the first chunk's kernel.
        assert!(o.makespan() < us(60), "makespan {}", o.makespan());
        assert!(o.makespan() >= us(40), "lower bound: fill + drain");
    }

    #[test]
    fn same_engine_serializes_across_streams() {
        let mut s = StreamSchedule::new();
        s.push(StreamId(0), Engine::Compute, us(10), "k0");
        s.push(StreamId(1), Engine::Compute, us(10), "k1");
        let o = s.run();
        assert_eq!(o.makespan(), us(20), "one SM pool, kernels serialize");
        assert!((o.utilization(Engine::Compute) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_streams_monotonically_help_until_engine_bound() {
        let mk = |streams| {
            StreamSchedule::chunked_pipeline(8, streams, us(10), us(10), us(10))
                .run()
                .makespan()
        };
        let one = mk(1);
        let two = mk(2);
        let four = mk(4);
        assert!(two < one);
        assert!(four <= two);
        // Engine bound: 8 kernels x 10us can never beat 80us + fill/drain.
        assert!(four >= us(80));
    }

    #[test]
    fn utilization_is_bounded() {
        let o = StreamSchedule::chunked_pipeline(6, 3, us(7), us(13), us(3)).run();
        for e in Engine::ALL {
            let u = o.utilization(e);
            assert!((0.0..=1.0).contains(&u), "{e}: {u}");
        }
        // Kernel engine is the bottleneck here, so it should be busiest.
        assert!(o.utilization(Engine::Compute) >= o.utilization(Engine::CopyD2H));
    }

    #[test]
    fn empty_schedule() {
        let s = StreamSchedule::new();
        assert!(s.is_empty());
        let o = s.run();
        assert_eq!(o.makespan(), Nanos::ZERO);
        assert_eq!(o.ops().len(), 0);
        assert_eq!(o.utilization(Engine::Compute), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_streams_rejected() {
        let _ = StreamSchedule::chunked_pipeline(4, 0, us(1), us(1), us(1));
    }

    #[test]
    fn outcome_is_a_view_over_its_trace() {
        let o = StreamSchedule::chunked_pipeline(2, 2, us(10), us(10), us(10)).run();
        assert_eq!(o.trace().category_count(Category::Stream), 6);
        assert_eq!(o.ops().len(), 6);
        assert_eq!(o.trace().horizon(), o.makespan().as_nanos());
        // Ops reconstruct engine, stream, and label from the trace alone.
        let first = &o.ops()[0];
        assert_eq!(first.engine, Engine::CopyH2D);
        assert_eq!(first.stream, StreamId(0));
        assert_eq!(first.label, "h2d[0]");
    }

    #[test]
    fn event_serializes_across_streams() {
        let mut s = StreamSchedule::new();
        s.push(StreamId(0), Engine::CopyH2D, us(10), "h2d");
        let ev = s.record_event(StreamId(0));
        s.wait_event(StreamId(1), ev);
        s.push(StreamId(1), Engine::Compute, us(10), "kernel");
        let o = s.run();
        // Without the event the kernel would start at t=0; with it, it
        // waits for the copy.
        assert_eq!(o.ops()[1].start, SimTime::from_nanos(10_000));
        assert_eq!(o.makespan(), us(20));
    }

    #[test]
    fn wait_on_unrecorded_event_is_a_noop() {
        let mut s = StreamSchedule::new();
        s.wait_event(StreamId(0), EventId(99));
        s.push(StreamId(0), Engine::Compute, us(10), "k");
        let o = s.run();
        assert_eq!(o.ops()[0].start, SimTime::ZERO);
    }

    #[test]
    fn record_captures_frontier_not_later_work() {
        let mut s = StreamSchedule::new();
        s.push(StreamId(0), Engine::CopyH2D, us(10), "a");
        let ev = s.record_event(StreamId(0));
        // Work on stream 0 after the record must not delay the waiter.
        s.push(StreamId(0), Engine::CopyH2D, us(50), "b");
        s.wait_event(StreamId(1), ev);
        s.push(StreamId(1), Engine::Compute, us(5), "k");
        let o = s.run();
        let k = o.ops().iter().find(|op| op.label == "k").cloned().unwrap();
        assert_eq!(k.start, SimTime::from_nanos(10_000));
    }

    #[test]
    fn items_expose_accesses_and_len_counts_ops() {
        let mut s = StreamSchedule::new();
        s.push_access(
            StreamId(0),
            Engine::CopyH2D,
            us(1),
            "h2d",
            BufferAccess::writes("buf", 0..4),
        );
        let ev = s.record_event(StreamId(0));
        s.wait_event(StreamId(1), ev);
        assert_eq!(s.len(), 1, "event markers are not operations");
        assert_eq!(s.items().len(), 3);
        let ScheduleItem::Op {
            access: Some(a), ..
        } = &s.items()[0]
        else {
            panic!("expected annotated op");
        };
        assert_eq!(a.buffer, "buf");
        assert!(a.write);
        assert_eq!(a.chunks, 0..4);
    }

    #[test]
    fn access_conflicts() {
        let w = |r: std::ops::Range<u64>| BufferAccess::writes("b", r);
        let r = |r: std::ops::Range<u64>| BufferAccess::reads("b", r);
        assert!(w(0..4).conflicts_with(&w(3..5)));
        assert!(w(0..4).conflicts_with(&r(0..1)));
        assert!(
            !r(0..4).conflicts_with(&r(0..4)),
            "read/read never conflicts"
        );
        assert!(
            !w(0..4).conflicts_with(&w(4..8)),
            "half-open ranges touch but don't overlap"
        );
        assert!(!w(0..4).conflicts_with(&BufferAccess::writes("other", 0..4)));
    }

    #[test]
    fn push_item_preserves_event_ids() {
        let mut orig = StreamSchedule::new();
        orig.push(StreamId(0), Engine::CopyH2D, us(10), "h2d");
        let ev = orig.record_event(StreamId(0));
        orig.wait_event(StreamId(1), ev);
        orig.push(StreamId(1), Engine::Compute, us(10), "k");

        let mut rebuilt = StreamSchedule::new();
        for item in orig.items() {
            rebuilt.push_item(item.clone());
        }
        assert_eq!(rebuilt.items(), orig.items());
        assert_eq!(rebuilt.run().makespan(), orig.run().makespan());
        // Fresh events allocated after a replay don't collide with replayed ids.
        let fresh = rebuilt.record_event(StreamId(0));
        assert!(fresh.0 > ev.0);
    }

    #[test]
    fn chunked_pipeline_is_annotated() {
        let s = StreamSchedule::chunked_pipeline(2, 2, us(1), us(1), us(1));
        let annotated = s
            .items()
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    ScheduleItem::Op {
                        access: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(annotated, 6);
    }

    #[test]
    fn engine_parse_round_trip() {
        for e in Engine::ALL {
            assert_eq!(Engine::parse(e.name()), Ok(e));
        }
        let err = Engine::parse("sm7").unwrap_err();
        assert!(err.to_string().contains("sm7"));
    }

    #[test]
    fn own_runs_have_no_unknown_tracks() {
        let o = StreamSchedule::chunked_pipeline(3, 2, us(1), us(1), us(1)).run();
        assert!(o.unknown_tracks().is_empty());
    }

    #[test]
    fn active_session_absorbs_schedule() {
        hetsim_trace::session::start(TraceConfig::default(), None);
        let mut s = StreamSchedule::new();
        s.push(StreamId(0), Engine::Compute, us(10), "k0");
        let _ = s.run();
        let t = hetsim_trace::session::finish().unwrap();
        assert_eq!(t.category_count(Category::Stream), 1);
        assert!(t.find_track("compute").is_some());
    }

    #[test]
    fn try_run_matches_run_on_well_formed_schedules() {
        // Record precedes wait in issue order: strict and CUDA-no-op
        // semantics agree, so the watchdog must reproduce run() exactly.
        let mut s = StreamSchedule::new();
        s.push(StreamId(0), Engine::CopyH2D, us(10), "h2d");
        let e = s.record_event(StreamId(0));
        s.push(StreamId(0), Engine::Compute, us(20), "k0");
        s.wait_event(StreamId(1), e);
        s.push(StreamId(1), Engine::Compute, us(5), "k1");
        let strict = s.try_run().expect("well-formed schedule runs");
        assert_eq!(strict.makespan(), s.run().makespan());
        // k1 waits on e (fires at 10us) then queues behind k0 on the
        // compute engine (busy until 30us): 30 + 5.
        assert_eq!(strict.makespan(), us(35));
    }

    #[test]
    fn try_run_pipeline_parity() {
        let s = StreamSchedule::chunked_pipeline(4, 3, us(7), us(11), us(5));
        assert_eq!(s.try_run().unwrap().makespan(), s.run().makespan());
    }

    #[test]
    fn watchdog_detects_two_cycle_deadlock() {
        // s0 waits on e1 before recording e0; s1 waits on e0 before
        // recording e1. run() treats both waits as no-ops; strict
        // semantics deadlock.
        let mut s = StreamSchedule::new();
        s.push_item(ScheduleItem::WaitEvent {
            stream: StreamId(0),
            event: EventId(1),
        });
        s.push_item(ScheduleItem::RecordEvent {
            stream: StreamId(0),
            event: EventId(0),
        });
        s.push_item(ScheduleItem::WaitEvent {
            stream: StreamId(1),
            event: EventId(0),
        });
        s.push_item(ScheduleItem::RecordEvent {
            stream: StreamId(1),
            event: EventId(1),
        });
        let err = s.try_run().unwrap_err();
        match &err {
            hetsim_chaos::SimError::Deadlock { blocked, .. } => {
                assert_eq!(blocked.len(), 2, "both stream heads reported: {blocked:?}");
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
        // Deterministic: the same schedule yields the same diagnostic.
        assert_eq!(s.try_run().unwrap_err(), err);
    }

    #[test]
    fn watchdog_detects_three_cycle_deadlock() {
        let mut s = StreamSchedule::new();
        for i in 0..3u32 {
            s.push_item(ScheduleItem::WaitEvent {
                stream: StreamId(i),
                event: EventId((i + 1) % 3),
            });
            s.push_item(ScheduleItem::RecordEvent {
                stream: StreamId(i),
                event: EventId(i),
            });
        }
        assert!(matches!(
            s.try_run(),
            Err(hetsim_chaos::SimError::Deadlock { .. })
        ));
    }

    #[test]
    fn watchdog_detects_self_wait() {
        // A stream waiting on an event it records *later* can never
        // reach the record: classic self-deadlock.
        let mut s = StreamSchedule::new();
        s.push_item(ScheduleItem::WaitEvent {
            stream: StreamId(0),
            event: EventId(0),
        });
        s.push_item(ScheduleItem::RecordEvent {
            stream: StreamId(0),
            event: EventId(0),
        });
        let err = s.try_run().unwrap_err();
        assert!(err.to_string().contains("deadlock"), "{err}");
    }

    #[test]
    fn watchdog_detects_wait_on_never_recorded_event() {
        let mut s = StreamSchedule::new();
        s.push(StreamId(0), Engine::Compute, us(1), "k");
        s.push_item(ScheduleItem::WaitEvent {
            stream: StreamId(0),
            event: EventId(7),
        });
        match s.try_run().unwrap_err() {
            hetsim_chaos::SimError::Deadlock { blocked, .. } => {
                assert!(blocked.iter().any(|b| b.contains("never")), "{blocked:?}");
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_wait_binds_to_first_record() {
        // The event is recorded twice; the wait observes the first
        // recording point, not the later one.
        let mut s = StreamSchedule::new();
        s.push(StreamId(0), Engine::Compute, us(10), "k0");
        s.push_item(ScheduleItem::RecordEvent {
            stream: StreamId(0),
            event: EventId(0),
        });
        s.push(StreamId(0), Engine::Compute, us(100), "k0b");
        s.push_item(ScheduleItem::RecordEvent {
            stream: StreamId(0),
            event: EventId(0),
        });
        s.push_item(ScheduleItem::WaitEvent {
            stream: StreamId(1),
            event: EventId(0),
        });
        s.push(StreamId(1), Engine::CopyH2D, us(1), "h2d");
        let o = s.try_run().unwrap();
        // s1's copy starts at 10us (first record), not 110us.
        assert_eq!(o.makespan(), us(110));
    }

    #[test]
    fn watchdog_out_of_order_wait_blocks_until_record() {
        // Wait issued before the record in issue order, but on a
        // *different* stream: strict semantics resolve it (no cycle),
        // while run() would treat it as a no-op.
        let mut s = StreamSchedule::new();
        s.push_item(ScheduleItem::WaitEvent {
            stream: StreamId(1),
            event: EventId(0),
        });
        s.push(StreamId(1), Engine::CopyH2D, us(1), "h2d");
        s.push(StreamId(0), Engine::Compute, us(10), "k0");
        s.push_item(ScheduleItem::RecordEvent {
            stream: StreamId(0),
            event: EventId(0),
        });
        let strict = s.try_run().unwrap();
        assert_eq!(strict.makespan(), us(11));
        // run()'s legacy no-op semantics finish earlier — the two
        // entry points intentionally disagree here.
        assert_eq!(s.run().makespan(), us(10));
    }

    #[test]
    fn watchdog_timeout_on_missed_deadline() {
        let mut s = StreamSchedule::new();
        s.push(StreamId(0), Engine::Compute, us(10), "k");
        assert!(s.try_run_deadline(us(10)).is_ok());
        match s.try_run_deadline(us(9)).unwrap_err() {
            hetsim_chaos::SimError::Timeout {
                makespan, deadline, ..
            } => {
                assert_eq!(makespan, us(10));
                assert_eq!(deadline, us(9));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_failure_leaves_session_clean() {
        // A deadlocked evaluation must not fold partial work into an
        // active trace session.
        hetsim_trace::session::start(TraceConfig::default(), None);
        let mut s = StreamSchedule::new();
        s.push_item(ScheduleItem::WaitEvent {
            stream: StreamId(0),
            event: EventId(0),
        });
        s.push_item(ScheduleItem::RecordEvent {
            stream: StreamId(0),
            event: EventId(0),
        });
        assert!(s.try_run().is_err());
        let t = hetsim_trace::session::finish().unwrap();
        assert_eq!(t.category_count(Category::Stream), 0);
    }
}
