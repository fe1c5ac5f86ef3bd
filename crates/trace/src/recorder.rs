//! [`TraceBuilder`] — the bounded-ring-buffer event recorder, optionally
//! draining into a streaming [`TraceSink`].

use crate::config::TraceConfig;
use crate::event::{Category, EventKind, TraceEvent, TrackId};
use crate::label::{Dim, LabelSet};
use crate::selfprof;
use crate::sink::{StreamSummary, TraceSink};
use crate::trace::{Trace, Track};
use std::borrow::Cow;
use std::collections::HashMap;

/// Records events into a bounded ring buffer.
///
/// The builder keeps two notions of position in simulated time:
///
/// * a **global cursor** ([`TraceBuilder::now`]) owned by whoever drives
///   the top-level pipeline (the runtime's run loop) and advanced by
///   [`TraceBuilder::phase_span`];
/// * a **per-track detail cursor** used by [`TraceBuilder::detail_span`]:
///   lower layers (DMA chunks, fault batches, sampled blocks) lay their
///   sub-events out sequentially *within* the current phase without having
///   to know absolute time. A detail span starts at
///   `max(track_cursor, now)`, so advancing the global cursor pulls every
///   detail lane forward to the new phase.
///
/// # Buffering vs streaming
///
/// Without a sink, a full ring overwrites its oldest events (counted as
/// [dropped](Trace::dropped)). With a sink attached
/// ([`TraceBuilder::with_sink`]), a full ring instead **drains**: the
/// buffered events are handed to the sink as one chunk and the buffer is
/// cleared, so arbitrarily long runs stream with bounded memory and zero
/// drops. [`TraceBuilder::flush`] forces a chunk boundary explicitly.
///
/// # Labels
///
/// The builder carries an ambient label context
/// ([`TraceBuilder::set_label`]); every event recorded through the emit
/// methods is stamped with it. Absorbed events keep the labels they were
/// recorded with.
///
/// # Example
///
/// ```
/// use hetsim_trace::{Category, TraceBuilder, TraceConfig};
/// let mut b = TraceBuilder::new(TraceConfig::default());
/// let host = b.track("host");
/// let dma = b.track("dma");
/// // Two DMA chunks inside one memcpy phase:
/// b.detail_span(dma, Category::Dma, "chunk0", 300, None);
/// b.detail_span(dma, Category::Dma, "chunk1", 300, None);
/// let (start, end) = b.phase_span(host, Category::Memcpy, "h2d", 600);
/// assert_eq!((start, end), (0, 600));
/// assert_eq!(b.now(), 600);
/// ```
pub struct TraceBuilder {
    config: TraceConfig,
    tracks: Vec<Track>,
    track_index: HashMap<String, TrackId>,
    symbols: Vec<String>,
    symbol_index: HashMap<String, u16>,
    context: LabelSet,
    events: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
    streamed: u64,
    now: u64,
    cursors: Vec<u64>,
    counter_track: Option<TrackId>,
    last_counter_ts: HashMap<TrackId, HashMap<String, u64>>,
    sink: Option<Box<dyn TraceSink>>,
    sink_error: Option<String>,
}

impl std::fmt::Debug for TraceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuilder")
            .field("config", &self.config)
            .field("tracks", &self.tracks.len())
            .field("events", &self.events.len())
            .field("streamed", &self.streamed)
            .field("dropped", &self.dropped)
            .field("now", &self.now)
            .field("sink", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl TraceBuilder {
    /// Creates an empty recorder.
    pub fn new(config: TraceConfig) -> Self {
        TraceBuilder {
            config,
            tracks: Vec::new(),
            track_index: HashMap::new(),
            symbols: Vec::new(),
            symbol_index: HashMap::new(),
            context: LabelSet::EMPTY,
            events: Vec::new(),
            head: 0,
            dropped: 0,
            streamed: 0,
            now: 0,
            cursors: Vec::new(),
            counter_track: None,
            last_counter_ts: HashMap::new(),
            sink: None,
            sink_error: None,
        }
    }

    /// Attaches a streaming sink (builder style): completed events drain
    /// to it at every chunk boundary instead of being overwritten when
    /// the ring fills.
    pub fn with_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Whether a sink is attached (and healthy — a write error detaches).
    pub fn streaming(&self) -> bool {
        self.sink.is_some()
    }

    /// The first sink write error, if the attached sink failed. After an
    /// error the sink is detached and the recorder falls back to plain
    /// ring buffering.
    pub fn sink_error(&self) -> Option<&str> {
        self.sink_error.as_deref()
    }

    /// Events already handed to the sink.
    pub fn streamed(&self) -> u64 {
        self.streamed
    }

    /// The configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Interns a sim-time track (lane) by name.
    pub fn track(&mut self, name: &str) -> TrackId {
        self.intern(name, false)
    }

    /// Interns a host wall-clock track (rendered as a separate Chrome
    /// process so sim-time and wall-clock axes don't collide).
    pub fn host_track(&mut self, name: &str) -> TrackId {
        self.intern(name, true)
    }

    fn intern(&mut self, name: &str, host: bool) -> TrackId {
        if let Some(&id) = self.track_index.get(name) {
            return id;
        }
        let id = TrackId(u16::try_from(self.tracks.len()).expect("too many tracks"));
        self.tracks.push(Track {
            name: name.to_string(),
            host,
        });
        self.track_index.insert(name.to_string(), id);
        self.cursors.push(0);
        id
    }

    // ---- labels ----

    /// Interns a label value into the symbol table.
    fn intern_symbol(&mut self, value: &str) -> u16 {
        if let Some(&sym) = self.symbol_index.get(value) {
            return sym;
        }
        let sym = u16::try_from(self.symbols.len()).expect("too many label values");
        self.symbols.push(value.to_string());
        self.symbol_index.insert(value.to_string(), sym);
        sym
    }

    /// Binds `dim` to `value` in the ambient label context: every event
    /// recorded from now on is stamped with it, until the dimension is
    /// cleared or the context is restored.
    pub fn set_label(&mut self, dim: Dim, value: &str) {
        let sym = self.intern_symbol(value);
        self.context.set(dim, sym);
    }

    /// Unsets `dim` in the ambient label context.
    pub fn clear_label(&mut self, dim: Dim) {
        self.context.clear(dim);
    }

    /// The current ambient label context (save before scoped overrides).
    pub fn label_context(&self) -> LabelSet {
        self.context
    }

    /// Restores a context previously returned by
    /// [`TraceBuilder::label_context`]. Symbol indices stay valid because
    /// the symbol table only appends.
    pub fn set_label_context(&mut self, context: LabelSet) {
        self.context = context;
    }

    /// The interned label values, indexed by the symbols in each event's
    /// [`LabelSet`].
    pub fn symbols(&self) -> &[String] {
        &self.symbols
    }

    // ---- cursors ----

    /// The global sim-time cursor.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Moves the global cursor to an absolute time.
    pub fn set_now(&mut self, ns: u64) {
        self.now = ns;
    }

    /// Advances the global cursor by `dur`, returning the span start.
    pub fn advance(&mut self, dur: u64) -> u64 {
        let start = self.now;
        self.now += dur;
        start
    }

    // ---- emission ----

    /// Emits a span at an explicit `[start, start + dur)` interval.
    pub fn span_at(
        &mut self,
        track: TrackId,
        cat: Category,
        name: impl Into<Cow<'static, str>>,
        start: u64,
        dur: u64,
    ) {
        self.span_with(track, cat, name, start, dur, None);
    }

    /// [`TraceBuilder::span_at`] with one named numeric argument.
    pub fn span_with(
        &mut self,
        track: TrackId,
        cat: Category,
        name: impl Into<Cow<'static, str>>,
        start: u64,
        dur: u64,
        arg: Option<(&'static str, f64)>,
    ) {
        self.push(TraceEvent {
            track,
            cat,
            name: name.into(),
            ts: start,
            kind: EventKind::Span { dur },
            arg,
            labels: self.context,
        });
    }

    /// Emits a top-level phase span `[now, now + dur)` on `track` and
    /// advances the global cursor. Returns `(start, end)`.
    pub fn phase_span(
        &mut self,
        track: TrackId,
        cat: Category,
        name: impl Into<Cow<'static, str>>,
        dur: u64,
    ) -> (u64, u64) {
        let start = self.advance(dur);
        self.span_at(track, cat, name, start, dur);
        (start, start + dur)
    }

    /// Emits a detail span laid out sequentially on `track`, starting at
    /// `max(track cursor, now)`. Returns `(start, end)`.
    pub fn detail_span(
        &mut self,
        track: TrackId,
        cat: Category,
        name: impl Into<Cow<'static, str>>,
        dur: u64,
        arg: Option<(&'static str, f64)>,
    ) -> (u64, u64) {
        let start = self.cursors[track.0 as usize].max(self.now);
        self.cursors[track.0 as usize] = start + dur;
        self.span_with(track, cat, name, start, dur, arg);
        (start, start + dur)
    }

    /// Emits a zero-width marker at the global cursor.
    pub fn instant(
        &mut self,
        track: TrackId,
        cat: Category,
        name: impl Into<Cow<'static, str>>,
        arg: Option<(&'static str, f64)>,
    ) {
        let ts = self.cursors[track.0 as usize].max(self.now);
        self.instant_at(track, cat, name, ts, arg);
    }

    /// Emits a zero-width marker at an explicit time.
    pub fn instant_at(
        &mut self,
        track: TrackId,
        cat: Category,
        name: impl Into<Cow<'static, str>>,
        ts: u64,
        arg: Option<(&'static str, f64)>,
    ) {
        self.push(TraceEvent {
            track,
            cat,
            name: name.into(),
            ts,
            kind: EventKind::Instant,
            arg,
            labels: self.context,
        });
    }

    /// Samples a named counter at the global cursor, on the shared
    /// `metrics` track. Samples closer than
    /// [`TraceConfig::counter_interval`] to the previous kept sample of
    /// the same counter *on the same track* are dropped (the first sample
    /// is always kept).
    pub fn counter(&mut self, name: impl Into<Cow<'static, str>>, value: f64) {
        let ts = self.now;
        self.counter_at(name, ts, value);
    }

    /// Samples a named counter at an explicit time, on the shared
    /// `metrics` track.
    pub fn counter_at(&mut self, name: impl Into<Cow<'static, str>>, ts: u64, value: f64) {
        let track = match self.counter_track {
            Some(t) => t,
            None => {
                let t = self.intern("metrics", false);
                self.counter_track = Some(t);
                t
            }
        };
        self.counter_on_at(track, name, ts, value);
    }

    /// Samples a named counter on an explicit track at the global cursor.
    /// Subsystems with their own lane (`uvm`, `gpu.blocks`, …) use this so
    /// their counters render next to their spans.
    pub fn counter_on(&mut self, track: TrackId, name: impl Into<Cow<'static, str>>, value: f64) {
        let ts = self.now;
        self.counter_on_at(track, name, ts, value);
    }

    /// Samples a named counter on an explicit track at an explicit time.
    ///
    /// Decimation is keyed on `(track, name)`: same-timestamp samples of
    /// the same counter name on *different* tracks are independent and
    /// never coalesced.
    pub fn counter_on_at(
        &mut self,
        track: TrackId,
        name: impl Into<Cow<'static, str>>,
        ts: u64,
        value: f64,
    ) {
        let name = name.into();
        if let Some(interval) = self.config.counter_interval {
            // Nested map keeps the decimation lookup allocation-free on
            // the hot path: a `String` key is only built the first time a
            // `(track, name)` pair appears.
            let per_track = self.last_counter_ts.entry(track).or_default();
            match per_track.get_mut(name.as_ref()) {
                Some(last) if ts < last.saturating_add(interval) => return,
                Some(last) => *last = ts,
                None => {
                    per_track.insert(name.clone().into_owned(), ts);
                }
            }
        }
        self.push(TraceEvent {
            track,
            cat: Category::Counter,
            name,
            ts,
            kind: EventKind::Counter { value },
            arg: None,
            labels: self.context,
        });
    }

    /// Appends every event of `other` (tracks re-interned by name). Used
    /// to fold an owned schedule trace into a surrounding session.
    pub fn absorb(&mut self, other: &Trace) {
        self.absorb_at(other, 0);
    }

    /// [`TraceBuilder::absorb`] with every sim-track timestamp shifted by
    /// `offset` nanoseconds, placing the other trace's time zero at a
    /// point on this recording's timeline. Host-track timestamps are kept
    /// as-is (wall clock has its own origin).
    ///
    /// Absorbed events keep the labels they were recorded with (label
    /// symbols are re-interned into this recording's table); the ambient
    /// label context is *not* stamped over them.
    ///
    /// The global cursor advances past the absorbed recording's own
    /// [`Trace::end_cursor`] (shifted by `offset`), so repeated
    /// `absorb_at(t, builder.now())` calls lay independent recordings out
    /// back to back — the merge step of parallel per-worker tracing.
    pub fn absorb_at(&mut self, other: &Trace, offset: u64) {
        let track_map: Vec<TrackId> = other
            .tracks()
            .iter()
            .map(|t| self.intern(&t.name, t.host))
            .collect();
        let symbol_map: Vec<u16> = other
            .symbols()
            .iter()
            .map(|s| self.intern_symbol(s))
            .collect();
        // Merge fast paths: when the other trace's symbols landed on the
        // same ids here (the common case — per-mode traces share one
        // label vocabulary), per-event label rebuilding is a no-op and is
        // skipped wholesale. Track remaps rarely coincide, so those stay
        // per-event, but unlabeled events skip the label loop either way.
        let symbols_identity = symbol_map.iter().enumerate().all(|(i, &s)| s as usize == i);
        self.events.reserve(
            other
                .events()
                .len()
                .min(self.config.capacity.saturating_sub(self.events.len())),
        );
        for ev in other.events() {
            let src = ev.track.0 as usize;
            let mut ev = ev.clone();
            ev.track = track_map[src];
            if !other.tracks()[src].host {
                ev.ts += offset;
            }
            if !symbols_identity && !ev.labels.is_empty() {
                let mut labels = LabelSet::EMPTY;
                for (dim, sym) in ev.labels.iter() {
                    labels.set(dim, symbol_map[sym as usize]);
                }
                ev.labels = labels;
            }
            self.push(ev);
        }
        self.now = self.now.max(offset + other.end_cursor());
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() >= self.config.capacity {
            // Streaming replaces dropping: hand the full buffer to the
            // sink as one chunk, then append into the cleared buffer.
            self.drain_to_sink();
        }
        if self.events.len() < self.config.capacity {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.config.capacity;
            self.dropped += 1;
        }
    }

    /// Forces a chunk boundary: every buffered event is handed to the
    /// attached sink now. A no-op without a sink (or after a sink error).
    pub fn flush(&mut self) {
        self.drain_to_sink();
    }

    fn drain_to_sink(&mut self) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        if self.events.is_empty() {
            return;
        }
        let started = self.config.self_profile.then(selfprof::now_ns);
        let chunk_len = self.events.len();
        let result = sink.chunk(&self.tracks, &self.symbols, &self.events);
        self.streamed += chunk_len as u64;
        self.events.clear();
        self.head = 0;
        if let Err(e) = result {
            if self.sink_error.is_none() {
                self.sink_error = Some(e.to_string());
            }
            self.sink = None;
            return;
        }
        if let Some(t0) = started {
            selfprof::export_overhead_span(self, t0, chunk_len);
        }
    }

    /// Number of buffered (not yet drained) events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is currently buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finalizes the recording into an immutable [`Trace`], restoring
    /// chronological append order if the ring wrapped. With a sink
    /// attached, the remaining buffered events are drained as the final
    /// chunk and [`TraceSink::finish`] is called with the stream totals;
    /// the returned trace then holds no events itself but reports them
    /// via [`Trace::streamed`].
    pub fn finish(mut self) -> Trace {
        if self.head > 0 {
            self.events.rotate_left(self.head);
            self.head = 0;
        }
        if self.sink.is_some() {
            self.drain_to_sink();
            // The drain above may have recorded one exporter-overhead
            // span; flush it without measuring the flush itself.
            self.config.self_profile = false;
            self.drain_to_sink();
            let summary = StreamSummary {
                events: self.streamed,
                dropped: self.dropped,
                end_cursor: self.now,
            };
            if let Some(mut sink) = self.sink.take() {
                if let Err(e) = sink.finish(&summary) {
                    if self.sink_error.is_none() {
                        self.sink_error = Some(e.to_string());
                    }
                }
            }
        }
        Trace::new(
            self.tracks,
            self.symbols,
            self.events,
            self.dropped,
            self.streamed,
            self.now,
            self.sink_error,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{JsonlSink, SharedBuffer};

    #[test]
    fn tracks_are_interned_once() {
        let mut b = TraceBuilder::new(TraceConfig::default());
        let a = b.track("gpu");
        let c = b.track("gpu");
        assert_eq!(a, c);
        assert_ne!(a, b.track("dma"));
    }

    #[test]
    fn phase_spans_advance_the_clock() {
        let mut b = TraceBuilder::new(TraceConfig::default());
        let t = b.track("host");
        assert_eq!(b.phase_span(t, Category::Alloc, "malloc", 100), (0, 100));
        assert_eq!(b.phase_span(t, Category::Alloc, "free", 50), (100, 150));
        assert_eq!(b.now(), 150);
    }

    #[test]
    fn detail_spans_tile_within_a_phase() {
        let mut b = TraceBuilder::new(TraceConfig::default());
        let dma = b.track("dma");
        let host = b.track("host");
        b.set_now(1_000);
        assert_eq!(
            b.detail_span(dma, Category::Dma, "c0", 10, None),
            (1_000, 1_010)
        );
        assert_eq!(
            b.detail_span(dma, Category::Dma, "c1", 10, None),
            (1_010, 1_020)
        );
        // Advancing the phase pulls the detail lane forward.
        b.phase_span(host, Category::Memcpy, "h2d", 5_000);
        assert_eq!(
            b.detail_span(dma, Category::Dma, "c2", 10, None),
            (6_000, 6_010)
        );
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut b = TraceBuilder::new(TraceConfig::default().with_capacity(3));
        let t = b.track("x");
        for i in 0..5u64 {
            b.span_at(t, Category::Kernel, format!("s{i}"), i * 10, 1);
        }
        let trace = b.finish();
        assert_eq!(trace.dropped(), 2);
        let names: Vec<_> = trace.events().iter().map(|e| e.name.as_ref()).collect();
        assert_eq!(names, vec!["s2", "s3", "s4"], "oldest dropped, order kept");
    }

    #[test]
    fn sink_drains_instead_of_dropping() {
        let buf = SharedBuffer::new();
        let mut b = TraceBuilder::new(TraceConfig::default().with_capacity(3))
            .with_sink(Box::new(JsonlSink::new(buf.clone())));
        let t = b.track("x");
        for i in 0..10u64 {
            b.span_at(t, Category::Kernel, format!("s{i}"), i * 10, 1);
        }
        let trace = b.finish();
        assert_eq!(trace.dropped(), 0, "streaming never drops");
        assert_eq!(trace.streamed(), 10);
        assert!(trace.is_empty(), "all events went to the sink");
        let out = buf.into_string();
        for i in 0..10u64 {
            assert!(out.contains(&format!("\"name\":\"s{i}\"")), "s{i} in {out}");
        }
        assert!(
            out.ends_with("{\"type\":\"summary\",\"events\":10,\"dropped\":0,\"end_cursor\":0}\n")
        );
    }

    #[test]
    fn explicit_flush_is_a_chunk_boundary() {
        let buf = SharedBuffer::new();
        let mut b = TraceBuilder::new(TraceConfig::default())
            .with_sink(Box::new(JsonlSink::new(buf.clone())));
        let t = b.track("x");
        b.span_at(t, Category::Kernel, "early", 0, 1);
        assert!(buf.contents().is_empty(), "nothing written before flush");
        b.flush();
        assert!(buf.into_string().contains("\"name\":\"early\""));
        assert_eq!(b.len(), 0);
        assert_eq!(b.streamed(), 1);
    }

    #[test]
    fn counter_interval_decimates() {
        let mut b = TraceBuilder::new(TraceConfig::default().with_counter_interval(100));
        b.counter_at("faults", 0, 1.0);
        b.counter_at("faults", 50, 2.0); // dropped: too close
        b.counter_at("faults", 100, 3.0);
        b.counter_at("other", 50, 9.0); // independent counter: kept
        let trace = b.finish();
        let faults = trace.counter_series("faults");
        assert_eq!(faults, vec![(0, 1.0), (100, 3.0)]);
        assert_eq!(trace.counter_series("other").len(), 1);
    }

    #[test]
    fn counter_decimation_is_per_track() {
        // The dedup key is (track, name): same-timestamp samples of the
        // same counter name on different tracks must both survive.
        let mut b = TraceBuilder::new(TraceConfig::default().with_counter_interval(100));
        let uvm = b.track("uvm");
        let gpu = b.track("gpu");
        b.counter_on_at(uvm, "busy", 0, 1.0);
        b.counter_on_at(gpu, "busy", 0, 2.0); // different track: kept
        b.counter_on_at(uvm, "busy", 50, 3.0); // same track, too close: dropped
        let trace = b.finish();
        assert_eq!(trace.counter_series("busy"), vec![(0, 1.0), (0, 2.0)]);
    }

    #[test]
    fn labels_stamp_ambient_context() {
        let mut b = TraceBuilder::new(TraceConfig::default());
        let t = b.track("runtime");
        b.set_label(Dim::Mode, "uvm");
        b.span_at(t, Category::Kernel, "k", 0, 10);
        b.counter("uvm.page_faults", 4.0);
        b.clear_label(Dim::Mode);
        b.span_at(t, Category::Kernel, "bare", 10, 10);
        let trace = b.finish();
        assert_eq!(trace.label(&trace.events()[0], Dim::Mode), Some("uvm"));
        assert_eq!(trace.label(&trace.events()[1], Dim::Mode), Some("uvm"));
        assert_eq!(trace.label(&trace.events()[2], Dim::Mode), None);
    }

    #[test]
    fn label_context_save_restore() {
        let mut b = TraceBuilder::new(TraceConfig::default());
        b.set_label(Dim::Job, "3");
        let saved = b.label_context();
        b.set_label(Dim::Mode, "async");
        b.set_label(Dim::Job, "4");
        b.set_label_context(saved);
        let t = b.track("x");
        b.span_at(t, Category::Kernel, "k", 0, 1);
        let trace = b.finish();
        let ev = &trace.events()[0];
        assert_eq!(trace.label(ev, Dim::Job), Some("3"));
        assert_eq!(trace.label(ev, Dim::Mode), None);
    }

    #[test]
    fn absorb_reinterns_tracks() {
        let mut inner = TraceBuilder::new(TraceConfig::default());
        let t = inner.track("compute");
        inner.span_at(t, Category::Stream, "k0", 0, 10);
        let inner = inner.finish();

        let mut outer = TraceBuilder::new(TraceConfig::default());
        outer.track("host"); // occupy id 0 so re-interning must remap
        outer.absorb(&inner);
        let trace = outer.finish();
        let ev = &trace.events()[0];
        assert_eq!(trace.track_name(ev.track), "compute");
    }

    #[test]
    fn absorb_reinterns_label_symbols() {
        let mut inner = TraceBuilder::new(TraceConfig::default());
        inner.set_label(Dim::Mode, "uvm");
        let t = inner.track("runtime");
        inner.span_at(t, Category::Kernel, "k", 0, 10);
        let inner = inner.finish();

        let mut outer = TraceBuilder::new(TraceConfig::default());
        // Occupy symbol slots so the absorbed indices must be remapped.
        outer.set_label(Dim::Device, "a100");
        outer.set_label(Dim::Stream, "h2d");
        outer.clear_label(Dim::Device);
        outer.clear_label(Dim::Stream);
        outer.absorb(&inner);
        let trace = outer.finish();
        let ev = &trace.events()[0];
        assert_eq!(trace.label(ev, Dim::Mode), Some("uvm"));
        assert_eq!(trace.label(ev, Dim::Device), None);
    }
}
