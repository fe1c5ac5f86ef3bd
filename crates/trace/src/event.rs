//! The structured event model: categories, kinds, and the event record.

use crate::label::LabelSet;
use std::borrow::Cow;
use std::fmt;

/// Identifier of a track (a named lane) within one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrackId(pub u16);

/// The semantic category of an event — the `cat` field of the Chrome
/// trace-event format, and the unit of span-duration accounting in tests
/// (phase additivity sums one category at a time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// `cudaMalloc`/`cudaMallocManaged`/`cudaFree` work.
    Alloc,
    /// Data transfer accounted to the run's memcpy component.
    Memcpy,
    /// GPU kernel execution (including fault-stall inflation).
    Kernel,
    /// A batch of UVM far faults being serviced.
    FaultBatch,
    /// UVM range prefetch.
    Prefetch,
    /// UVM demand migration traffic.
    Migration,
    /// An individual DMA operation on the CPU↔GPU link.
    Dma,
    /// Sampled block/tile execution inside a kernel.
    Tile,
    /// A stream-schedule operation.
    Stream,
    /// Engine-level phases (the fixed system overhead of a run).
    Engine,
    /// Memory-system events (host DRAM chip spill, eviction).
    Mem,
    /// A named counter sample.
    Counter,
    /// Simulator self-profiling in host wall-clock time.
    Host,
    /// An injected fault or recovery action from the chaos layer.
    Chaos,
}

impl Category {
    /// The stable lowercase identifier used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Category::Alloc => "alloc",
            Category::Memcpy => "memcpy",
            Category::Kernel => "kernel",
            Category::FaultBatch => "fault_batch",
            Category::Prefetch => "prefetch",
            Category::Migration => "migration",
            Category::Dma => "dma",
            Category::Tile => "tile",
            Category::Stream => "stream",
            Category::Engine => "engine",
            Category::Mem => "mem",
            Category::Counter => "counter",
            Category::Host => "host",
            Category::Chaos => "chaos",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What kind of record an event is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// An interval `[ts, ts + dur)`.
    Span {
        /// Duration in nanoseconds.
        dur: u64,
    },
    /// A zero-width marker at `ts`.
    Instant,
    /// A numeric sample at `ts`.
    Counter {
        /// Sampled value.
        value: f64,
    },
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The lane the event belongs to.
    pub track: TrackId,
    /// Semantic category.
    pub cat: Category,
    /// Event name (span label / counter name).
    pub name: Cow<'static, str>,
    /// Timestamp, nanoseconds. Simulated time on sim tracks, wall-clock
    /// nanoseconds since profiler start on host tracks.
    pub ts: u64,
    /// Span / instant / counter.
    pub kind: EventKind,
    /// One optional named numeric argument (bytes moved, pages faulted,
    /// stream id …), carried into the Chrome `args` object.
    pub arg: Option<(&'static str, f64)>,
    /// Interned label dimensions stamped from the recorder's ambient
    /// context at record time (symbol indices into the owning recording's
    /// table — resolve through [`Trace::label`]).
    ///
    /// [`Trace::label`]: crate::Trace::label
    pub labels: LabelSet,
}

impl TraceEvent {
    /// The span duration, zero for instants and counters.
    pub fn dur(&self) -> u64 {
        match self.kind {
            EventKind::Span { dur } => dur,
            _ => 0,
        }
    }

    /// The end timestamp (`ts + dur`).
    pub fn end(&self) -> u64 {
        self.ts + self.dur()
    }

    /// Whether this is a span.
    pub fn is_span(&self) -> bool {
        matches!(self.kind, EventKind::Span { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_names_are_stable() {
        assert_eq!(Category::FaultBatch.name(), "fault_batch");
        assert_eq!(Category::Alloc.to_string(), "alloc");
        assert_eq!(Category::Kernel.name(), "kernel");
        assert_eq!(Category::Chaos.name(), "chaos");
    }

    #[test]
    fn event_duration_accessors() {
        let e = TraceEvent {
            track: TrackId(0),
            cat: Category::Kernel,
            name: Cow::Borrowed("k"),
            ts: 10,
            kind: EventKind::Span { dur: 5 },
            arg: None,
            labels: LabelSet::EMPTY,
        };
        assert_eq!(e.dur(), 5);
        assert_eq!(e.end(), 15);
        assert!(e.is_span());
        let i = TraceEvent {
            kind: EventKind::Instant,
            ..e.clone()
        };
        assert_eq!(i.dur(), 0);
        assert!(!i.is_span());
    }
}
