//! Streaming trace export: the [`TraceSink`] trait and the incremental
//! JSONL writer.
//!
//! A sink receives the recorder's events in **chunks** — whenever the ring
//! buffer fills, on an explicit [`TraceBuilder::flush`], and once more at
//! [`TraceBuilder::finish`] — and serializes them as they arrive, so a
//! fleet-scale run is observable with bounded memory and **zero dropped
//! events**. Every writer is a pure function of the event sequence plus
//! its own internal state (never of where the chunk boundaries fell), so
//! the streamed bytes are identical to the buffered export of the same
//! recording: the buffered exporters ([`Trace::to_jsonl`],
//! [`Trace::to_chrome_json`]) are implemented as a single-chunk stream
//! through the very same writers. That identity is what lets the existing
//! determinism gates extend to streaming unchanged.
//!
//! [`TraceBuilder::flush`]: crate::TraceBuilder::flush
//! [`TraceBuilder::finish`]: crate::TraceBuilder::finish
//! [`Trace::to_jsonl`]: crate::Trace::to_jsonl
//! [`Trace::to_chrome_json`]: crate::Trace::to_chrome_json

use crate::event::{EventKind, TraceEvent};
use crate::label::LabelSet;
use crate::trace::Track;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// End-of-stream totals handed to [`TraceSink::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Total events written across all chunks.
    pub events: u64,
    /// Events lost to ring-buffer overwrite (always 0 while a sink is
    /// attached and healthy — draining replaces dropping).
    pub dropped: u64,
    /// The recorder's global sim-time cursor at finish.
    pub end_cursor: u64,
}

/// A streaming consumer of trace events.
///
/// Contract: `chunk` is called zero or more times with strictly
/// consecutive event runs (no event is delivered twice, none is skipped),
/// then `finish` exactly once. `tracks` and `symbols` are the recorder's
/// *full* intern tables at drain time — they only append, so ids seen in
/// earlier chunks stay valid.
pub trait TraceSink {
    /// Consumes the next run of events.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer; the recorder
    /// records the first error and detaches the sink.
    fn chunk(
        &mut self,
        tracks: &[Track],
        symbols: &[String],
        events: &[TraceEvent],
    ) -> io::Result<()>;

    /// Terminates the stream with end-of-run totals.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    fn finish(&mut self, summary: &StreamSummary) -> io::Result<()>;
}

/// Incremental JSONL writer: one self-describing JSON object per line.
///
/// Line vocabulary (see `crates/trace/README.md` for the full schema):
///
/// * `{"type":"track","id":N,"name":…,"host":bool}` — emitted lazily,
///   immediately before the first event that references the track;
/// * `{"type":"span"|"instant"|"counter",…}` — one per event, with
///   optional `"arg"` and `"labels"` objects;
/// * `{"type":"summary","events":N,"dropped":N,"end_cursor":N}` — the
///   final line.
///
/// All timestamps are raw sim/host nanoseconds (no unit conversion), so
/// the lines are loss-free with respect to the recorder.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    track_emitted: Vec<bool>,
}

impl<W: Write> JsonlSink<W> {
    /// Creates a writer over `out`.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            track_emitted: Vec::new(),
        }
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn chunk(
        &mut self,
        tracks: &[Track],
        symbols: &[String],
        events: &[TraceEvent],
    ) -> io::Result<()> {
        if self.track_emitted.len() < tracks.len() {
            self.track_emitted.resize(tracks.len(), false);
        }
        let mut line = String::with_capacity(128);
        for ev in events {
            let tid = ev.track.0 as usize;
            if !self.track_emitted[tid] {
                self.track_emitted[tid] = true;
                let t = &tracks[tid];
                line.clear();
                line.push_str("{\"type\":\"track\",\"id\":");
                line.push_str(&tid.to_string());
                line.push_str(",\"name\":\"");
                line.push_str(&escape(&t.name));
                line.push_str("\",\"host\":");
                line.push_str(if t.host { "true" } else { "false" });
                line.push_str("}\n");
                self.out.write_all(line.as_bytes())?;
            }
            line.clear();
            let kind = match ev.kind {
                EventKind::Span { .. } => "span",
                EventKind::Instant => "instant",
                EventKind::Counter { .. } => "counter",
            };
            line.push_str("{\"type\":\"");
            line.push_str(kind);
            line.push_str("\",\"track\":");
            line.push_str(&tid.to_string());
            line.push_str(",\"cat\":\"");
            line.push_str(ev.cat.name());
            line.push_str("\",\"name\":\"");
            line.push_str(&escape(&ev.name));
            line.push_str("\",\"ts\":");
            line.push_str(&ev.ts.to_string());
            match ev.kind {
                EventKind::Span { dur } => {
                    line.push_str(",\"dur\":");
                    line.push_str(&dur.to_string());
                }
                EventKind::Instant => {}
                EventKind::Counter { value } => {
                    line.push_str(",\"value\":");
                    line.push_str(&number(value));
                }
            }
            if let Some((key, value)) = ev.arg {
                line.push_str(",\"arg\":{\"");
                line.push_str(&escape(key));
                line.push_str("\":");
                line.push_str(&number(value));
                line.push('}');
            }
            push_labels_object(&mut line, ev.labels, symbols);
            line.push_str("}\n");
            self.out.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    fn finish(&mut self, summary: &StreamSummary) -> io::Result<()> {
        let line = format!(
            "{{\"type\":\"summary\",\"events\":{},\"dropped\":{},\"end_cursor\":{}}}\n",
            summary.events, summary.dropped, summary.end_cursor
        );
        self.out.write_all(line.as_bytes())?;
        self.out.flush()
    }
}

/// Appends `,"labels":{"dim":"value",…}` (dims in [`Dim::ALL`] order) when
/// the set is non-empty.
///
/// [`Dim::ALL`]: crate::Dim::ALL
pub(crate) fn push_labels_object(out: &mut String, labels: LabelSet, symbols: &[String]) {
    if labels.is_empty() {
        return;
    }
    out.push_str(",\"labels\":{");
    let mut first = true;
    for (dim, sym) in labels.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        out.push_str(dim.key());
        out.push_str("\":\"");
        out.push_str(&escape(&symbols[sym as usize]));
        out.push('"');
    }
    out.push('}');
}

/// Deterministic JSON number formatting for counter values. Finite floats
/// use Rust's shortest round-trip `Display`; non-finite values (invalid
/// JSON) degrade to 0.
pub(crate) fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes `s` for the inside of a JSON string literal: quotes,
/// backslash and every control character (`\n`, `\r` and `\t` by their
/// short forms, the rest as `\u00XX`). The trace exporters and the
/// serve and chaos JSON reports share it; the caller adds the quotes.
pub fn escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A clonable in-memory byte buffer implementing [`std::io::Write`].
///
/// Sinks are boxed and moved into the recorder, so a caller that wants
/// the bytes back (tests, byte-identity gates) writes into one handle and
/// reads from its clone after the stream finishes.
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        SharedBuffer::default()
    }

    /// A snapshot of the bytes written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// The written bytes as UTF-8 (every built-in sink emits UTF-8).
    ///
    /// # Panics
    ///
    /// Panics if the buffer holds invalid UTF-8.
    pub fn into_string(&self) -> String {
        String::from_utf8(self.contents()).expect("sink output is UTF-8")
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Category, TraceBuilder, TraceConfig};

    #[test]
    fn jsonl_lines_cover_all_kinds_and_lazy_tracks() {
        let mut b = TraceBuilder::new(TraceConfig::default());
        let t = b.track("gpu");
        b.span_at(t, Category::Kernel, "k0", 0, 100);
        b.instant_at(t, Category::Mem, "spill", 5, Some(("bytes", 4096.0)));
        b.counter_at("faults", 7, 3.5);
        let trace = b.finish();
        let out = trace.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "{\"type\":\"track\",\"id\":0,\"name\":\"gpu\",\"host\":false}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"span\",\"track\":0,\"cat\":\"kernel\",\"name\":\"k0\",\"ts\":0,\"dur\":100}"
        );
        assert_eq!(
            lines[2],
            "{\"type\":\"instant\",\"track\":0,\"cat\":\"mem\",\"name\":\"spill\",\"ts\":5,\
             \"arg\":{\"bytes\":4096}}"
        );
        // The metrics track is interned on first counter use, so its
        // track line appears immediately before the counter line.
        assert_eq!(
            lines[3],
            "{\"type\":\"track\",\"id\":1,\"name\":\"metrics\",\"host\":false}"
        );
        assert_eq!(
            lines[4],
            "{\"type\":\"counter\",\"track\":1,\"cat\":\"counter\",\"name\":\"faults\",\"ts\":7,\
             \"value\":3.5}"
        );
        assert_eq!(
            lines[5],
            "{\"type\":\"summary\",\"events\":3,\"dropped\":0,\"end_cursor\":0}"
        );
        assert_eq!(lines.len(), 6);
    }

    #[test]
    fn zero_event_stream_is_just_the_summary() {
        let trace = TraceBuilder::new(TraceConfig::default()).finish();
        assert_eq!(
            trace.to_jsonl(),
            "{\"type\":\"summary\",\"events\":0,\"dropped\":0,\"end_cursor\":0}\n"
        );
    }

    #[test]
    fn escape_covers_quotes_backslash_newline_and_controls() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nnext"), "line\\nnext");
        assert_eq!(escape("cr\rtab\t"), "cr\\rtab\\t");
        assert_eq!(escape("bell\u{7}"), "bell\\u0007");
        assert_eq!(escape("plain ascii"), "plain ascii");
    }

    #[test]
    fn shared_buffer_round_trips_across_clones() {
        let buf = SharedBuffer::new();
        let mut handle = buf.clone();
        handle.write_all(b"hello").unwrap();
        assert_eq!(buf.into_string(), "hello");
    }
}
