//! Structured diagnostics: lint codes, severities, spans, and the
//! [`Report`] container with text and JSON renderers.

use std::fmt;

/// Every check the sanitizer performs, behind a stable lint code.
///
/// Codes are grouped by the description layer they inspect: `SAN-S*` for
/// stream schedules, `SAN-B*` for buffer specs, `SAN-T*` for page-touch
/// sequences, `SAN-M*` for transfer-mode compatibility, and `SAN-P*` for
/// the performance advisor (see `crate::perf`). Codes are part of
/// the CLI contract (`hetsim check --format json`) and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// Two operations on different streams write overlapping chunk ranges
    /// of one buffer with no serializing stream, engine, or event edge.
    WriteWriteHazard,
    /// An unordered read/write pair on overlapping chunk ranges: one side
    /// may observe the other's partial update depending on timing.
    ReadWriteHazard,
    /// A stream waits on an event that is recorded later — or never — in
    /// issue order, making the wait a silent no-op at runtime.
    WaitUnrecordedEvent,
    /// A trace track carries stream spans under a name no [`Engine`]
    /// recognizes, so `ScheduleOutcome::ops` silently drops them.
    ///
    /// [`Engine`]: hetsim_runtime::stream::Engine
    UnknownEngineTrack,
    /// Under strict event semantics (`StreamSchedule::try_run`) the
    /// schedule cannot make progress: a cycle of event waits — including a
    /// stream waiting on an event it records itself — blocks every
    /// participating stream forever. The legacy `run()` entry point
    /// silently treats the waits as no-ops instead.
    EventWaitCycle,
    /// A buffer spec fails [`BufferSpec::try_new`] validation (zero size,
    /// or large enough to alias the next buffer's UVM base address).
    ///
    /// [`BufferSpec::try_new`]: hetsim_runtime::program::BufferSpec::try_new
    InvalidBufferSize,
    /// Two buffers share a name, making reports and access annotations
    /// ambiguous.
    DuplicateBufferName,
    /// The program declares `Output`/`InOut` buffers but no kernel's
    /// sampled access stream contains a single store.
    OutputNeverStored,
    /// A page touch indexes past the buffer list — the runtime rejects
    /// the program with `SimError::InvalidProgram`.
    TouchBufferOutOfRange,
    /// A page touch's chunk index is at or past the buffer's chunk count;
    /// the runtime silently wraps it (`chunk % nchunks`), touching a
    /// different page than the model intended.
    TouchChunkOutOfBounds,
    /// A touch sequence addresses a `Scratch` buffer; the runtime silently
    /// drops those touches (device-only memory never far-faults).
    ScratchTouched,
    /// A touch sequence writes an `Input` buffer, contradicting its
    /// declared role (inputs are read-only on the device).
    InputWritten,
    /// An `Output`/`InOut` buffer is never written by any touch sequence,
    /// so the dirty-writeback phase transfers nothing for it.
    OutputNeverWritten,
    /// A non-`Scratch` buffer is never touched even though every kernel is
    /// sequence-driven — the blanket address-ordered fallback is skipped,
    /// so the buffer silently never migrates.
    BufferNeverTouched,
    /// A kernel advertises a touch model but every produced sequence is
    /// empty, which disables the fallback path without doing any work.
    EmptyTouchSequence,
    /// A kernel's hand-written style is already `StagedAsync`, so
    /// non-async transfer modes cannot honor their requested style.
    UnhonorableStandardStyle,
    /// `prefetch_conflict < 1.0` on a single-kernel program: the runtime
    /// only applies conflict refaults from the second kernel onwards, so
    /// the declared conflict can never materialize.
    ConflictWithoutSiblings,
    /// Every buffer is `Scratch`: no transfer mode moves any data, so all
    /// five configurations degenerate to the same run.
    AllScratch,
    /// A UVM mode was chosen (or would be) for a workload whose predicted
    /// fault-service stall exceeds the kernel's own compute time: demand
    /// paging dominates and an explicit-copy mode is predicted to win.
    UvmFaultDominated,
    /// An async mode is selected but the critical-path analysis finds zero
    /// overlap slack: kernels cannot hide any copy bytes, so `cp.async`
    /// staging pays its instruction overhead for nothing.
    AsyncZeroSlack,
    /// The program footprint exceeds the device's HBM carveout: the UVM
    /// LRU will thrash, re-migrating evicted chunks on every pass.
    ThrashPredicted,
    /// The bytes an async mode would stage through pinned host buffers
    /// exceed the configured pinned-memory budget.
    PinnedBudgetExceeded,
}

impl Lint {
    /// Every lint, in code order (the README table follows this order).
    pub const ALL: [Lint; 22] = [
        Lint::WriteWriteHazard,
        Lint::ReadWriteHazard,
        Lint::WaitUnrecordedEvent,
        Lint::UnknownEngineTrack,
        Lint::EventWaitCycle,
        Lint::InvalidBufferSize,
        Lint::DuplicateBufferName,
        Lint::OutputNeverStored,
        Lint::TouchBufferOutOfRange,
        Lint::TouchChunkOutOfBounds,
        Lint::ScratchTouched,
        Lint::InputWritten,
        Lint::OutputNeverWritten,
        Lint::BufferNeverTouched,
        Lint::EmptyTouchSequence,
        Lint::UnhonorableStandardStyle,
        Lint::ConflictWithoutSiblings,
        Lint::AllScratch,
        Lint::UvmFaultDominated,
        Lint::AsyncZeroSlack,
        Lint::ThrashPredicted,
        Lint::PinnedBudgetExceeded,
    ];

    /// The stable lint code, e.g. `SAN-S001`.
    pub fn code(self) -> &'static str {
        match self {
            Lint::WriteWriteHazard => "SAN-S001",
            Lint::ReadWriteHazard => "SAN-S002",
            Lint::WaitUnrecordedEvent => "SAN-S003",
            Lint::UnknownEngineTrack => "SAN-S004",
            Lint::EventWaitCycle => "SAN-S005",
            Lint::InvalidBufferSize => "SAN-B001",
            Lint::DuplicateBufferName => "SAN-B002",
            Lint::OutputNeverStored => "SAN-B003",
            Lint::TouchBufferOutOfRange => "SAN-T001",
            Lint::TouchChunkOutOfBounds => "SAN-T002",
            Lint::ScratchTouched => "SAN-T003",
            Lint::InputWritten => "SAN-T004",
            Lint::OutputNeverWritten => "SAN-T005",
            Lint::BufferNeverTouched => "SAN-T006",
            Lint::EmptyTouchSequence => "SAN-T007",
            Lint::UnhonorableStandardStyle => "SAN-M001",
            Lint::ConflictWithoutSiblings => "SAN-M002",
            Lint::AllScratch => "SAN-M003",
            Lint::UvmFaultDominated => "SAN-P001",
            Lint::AsyncZeroSlack => "SAN-P002",
            Lint::ThrashPredicted => "SAN-P003",
            Lint::PinnedBudgetExceeded => "SAN-P004",
        }
    }

    /// Short human title used as the diagnostic headline.
    pub fn title(self) -> &'static str {
        match self {
            Lint::WriteWriteHazard => "unordered write/write overlap across streams",
            Lint::ReadWriteHazard => "unordered read/write overlap across streams",
            Lint::WaitUnrecordedEvent => "wait on an event never recorded before it",
            Lint::UnknownEngineTrack => "stream spans on a track no engine recognizes",
            Lint::EventWaitCycle => "event-wait cycle deadlocks strict execution",
            Lint::InvalidBufferSize => "invalid buffer size",
            Lint::DuplicateBufferName => "duplicate buffer name",
            Lint::OutputNeverStored => "output buffers declared but no kernel stores",
            Lint::TouchBufferOutOfRange => "touch indexes past the buffer list",
            Lint::TouchChunkOutOfBounds => "touch chunk index out of bounds",
            Lint::ScratchTouched => "touch sequence addresses a Scratch buffer",
            Lint::InputWritten => "touch sequence writes an Input buffer",
            Lint::OutputNeverWritten => "output buffer never written by any sequence",
            Lint::BufferNeverTouched => "buffer never touched by any sequence",
            Lint::EmptyTouchSequence => "touch model produces only empty sequences",
            Lint::UnhonorableStandardStyle => "kernel style unhonorable outside async modes",
            Lint::ConflictWithoutSiblings => "prefetch conflict declared with a single kernel",
            Lint::AllScratch => "every buffer is Scratch",
            Lint::UvmFaultDominated => "UVM chosen but fault stalls predicted to dominate",
            Lint::AsyncZeroSlack => "async mode with zero overlap slack",
            Lint::ThrashPredicted => "footprint exceeds HBM carveout: thrash predicted",
            Lint::PinnedBudgetExceeded => "pinned staging bytes exceed the budget",
        }
    }

    /// The severity this lint fires at.
    pub fn severity(self) -> Severity {
        match self {
            Lint::WriteWriteHazard
            | Lint::ReadWriteHazard
            | Lint::EventWaitCycle
            | Lint::InvalidBufferSize
            | Lint::TouchBufferOutOfRange => Severity::Error,
            _ => Severity::Warning,
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but survivable: the runtime silently compensates (wraps,
    /// drops, or no-ops) in a way that likely contradicts the spec's
    /// intent. Promoted to a failure under `--deny warnings`.
    Warning,
    /// The description is wrong: the runtime would panic, race, or produce
    /// order-dependent results.
    Error,
}

impl Severity {
    /// Lower-case name used by both renderers.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where in the description a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Span {
    /// The workload as a whole.
    Workload,
    /// One buffer of the program.
    Buffer {
        /// Index into `GpuProgram::buffers`.
        index: usize,
        /// The buffer's name.
        name: String,
    },
    /// One kernel of the program.
    Kernel {
        /// Index into `GpuProgram::kernels`.
        index: usize,
        /// The kernel's name.
        name: String,
    },
    /// One entry of a page-touch sequence.
    Touch {
        /// Kernel index the sequence belongs to.
        kernel: usize,
        /// Invocation (round) the sequence belongs to.
        invocation: u64,
        /// Position within the sequence.
        position: usize,
    },
    /// A pair of schedule operations (issue-order op indices).
    OpPair {
        /// Issue-order index of the earlier operation.
        first: usize,
        /// Issue-order index of the later operation.
        second: usize,
    },
    /// One schedule item (issue-order index over all items, including
    /// event markers).
    Item {
        /// Issue-order item index.
        index: usize,
    },
    /// A trace track.
    Track {
        /// The track's name.
        name: String,
    },
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Workload => f.write_str("workload"),
            Span::Buffer { index, name } => write!(f, "buffer {index} `{name}`"),
            Span::Kernel { index, name } => write!(f, "kernel {index} `{name}`"),
            Span::Touch {
                kernel,
                invocation,
                position,
            } => write!(
                f,
                "kernel {kernel}, invocation {invocation}, touch {position}"
            ),
            Span::OpPair { first, second } => write!(f, "ops {first} and {second}"),
            Span::Item { index } => write!(f, "item {index}"),
            Span::Track { name } => write!(f, "track `{name}`"),
        }
    }
}

/// One finding: a lint instance tied to a workload and a span.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which check fired.
    pub lint: Lint,
    /// Severity (the lint's default; kept on the diagnostic so renderers
    /// and JSON consumers need no lint table).
    pub severity: Severity,
    /// Workload (or schedule) name the finding belongs to.
    pub workload: String,
    /// Where the finding points.
    pub span: Span,
    /// What is wrong, with the concrete names/indices/ranges involved.
    pub message: String,
    /// How to fix it.
    pub help: String,
}

impl Diagnostic {
    /// Builds a diagnostic for `lint` at its default severity.
    pub fn new<W, M, H>(lint: Lint, workload: W, span: Span, message: M, help: H) -> Self
    where
        W: Into<String>,
        M: Into<String>,
        H: Into<String>,
    {
        Diagnostic {
            lint,
            severity: lint.severity(),
            workload: workload.into(),
            span,
            message: message.into(),
            help: help.into(),
        }
    }

    /// The stable lint code, e.g. `SAN-T002`.
    pub fn code(&self) -> &'static str {
        self.lint.code()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}[{}]: {}", self.severity, self.code(), self.message)?;
        writeln!(f, "  --> {}: {}", self.workload, self.span)?;
        write!(f, "  = help: {}", self.help)
    }
}

/// The result of one or more checks: an ordered list of diagnostics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All findings, in check order (stable across runs).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends `diag` to the report.
    pub fn push(&mut self, diag: Diagnostic) {
        self.diagnostics.push(diag);
    }

    /// Merges another report's findings into this one.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether the report passes: no errors, and — under `deny_warnings` —
    /// no warnings either.
    pub fn is_clean(&self, deny_warnings: bool) -> bool {
        self.errors() == 0 && (!deny_warnings || self.warnings() == 0)
    }

    /// Renders every diagnostic plus a summary line as rustc-style text.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        let _ = write!(
            out,
            "{} error{}, {} warning{}",
            self.errors(),
            if self.errors() == 1 { "" } else { "s" },
            self.warnings(),
            if self.warnings() == 1 { "" } else { "s" },
        );
        out
    }

    /// Renders the report as a single JSON object:
    /// `{"diagnostics": [...], "errors": N, "warnings": M}`.
    ///
    /// Hand-rolled (the workspace is zero-dependency); strings are escaped
    /// per RFC 8259.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"workload\":\"{}\",\"span\":{},\"message\":\"{}\",\"help\":\"{}\"}}",
                d.code(),
                d.severity,
                escape(&d.workload),
                span_json(&d.span),
                escape(&d.message),
                escape(&d.help),
            );
        }
        let _ = write!(
            out,
            "],\"errors\":{},\"warnings\":{}}}",
            self.errors(),
            self.warnings()
        );
        out
    }
}

fn span_json(span: &Span) -> String {
    match span {
        Span::Workload => "{\"kind\":\"workload\"}".to_string(),
        Span::Buffer { index, name } => format!(
            "{{\"kind\":\"buffer\",\"index\":{index},\"name\":\"{}\"}}",
            escape(name)
        ),
        Span::Kernel { index, name } => format!(
            "{{\"kind\":\"kernel\",\"index\":{index},\"name\":\"{}\"}}",
            escape(name)
        ),
        Span::Touch {
            kernel,
            invocation,
            position,
        } => format!(
            "{{\"kind\":\"touch\",\"kernel\":{kernel},\"invocation\":{invocation},\"position\":{position}}}"
        ),
        Span::OpPair { first, second } => {
            format!("{{\"kind\":\"op_pair\",\"first\":{first},\"second\":{second}}}")
        }
        Span::Item { index } => format!("{{\"kind\":\"item\",\"index\":{index}}}"),
        Span::Track { name } => {
            format!("{{\"kind\":\"track\",\"name\":\"{}\"}}", escape(name))
        }
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            Lint::TouchChunkOutOfBounds,
            "bfs",
            Span::Touch {
                kernel: 0,
                invocation: 3,
                position: 17,
            },
            "chunk 40 is past buffer `levels` (8 chunks)",
            "clamp the model's chunk indices to the buffer's chunk count",
        ));
        r.push(Diagnostic::new(
            Lint::WriteWriteHazard,
            "adv",
            Span::OpPair {
                first: 0,
                second: 1,
            },
            "both write \"data\" chunks 0..4",
            "serialize with an event",
        ));
        r
    }

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for l in Lint::ALL {
            assert!(seen.insert(l.code()), "duplicate code {}", l.code());
            assert!(l.code().starts_with("SAN-"));
        }
        assert_eq!(Lint::WriteWriteHazard.code(), "SAN-S001");
        assert_eq!(Lint::TouchBufferOutOfRange.code(), "SAN-T001");
    }

    #[test]
    fn counts_and_clean() {
        let r = sample();
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
        assert!(!r.is_clean(false));
        let clean = Report::new();
        assert!(clean.is_clean(true));
        let mut warn_only = Report::new();
        warn_only.push(Diagnostic::new(
            Lint::ScratchTouched,
            "w",
            Span::Workload,
            "m",
            "h",
        ));
        assert!(warn_only.is_clean(false));
        assert!(!warn_only.is_clean(true));
    }

    #[test]
    fn text_rendering() {
        let t = sample().to_text();
        assert!(t.contains("warning[SAN-T002]"), "{t}");
        assert!(t.contains("error[SAN-S001]"), "{t}");
        assert!(
            t.contains("--> bfs: kernel 0, invocation 3, touch 17"),
            "{t}"
        );
        assert!(t.ends_with("1 error, 1 warning"), "{t}");
    }

    #[test]
    fn json_is_valid_and_escaped() {
        let mut r = sample();
        r.push(Diagnostic::new(
            Lint::DuplicateBufferName,
            "quo\"ted",
            Span::Buffer {
                index: 1,
                name: "a\\b".to_string(),
            },
            "line\nbreak",
            "h",
        ));
        let j = r.to_json();
        assert!(j.contains("\"errors\":1"));
        assert!(j.contains("\"warnings\":2"));
        assert!(j.contains("quo\\\"ted"));
        assert!(j.contains("a\\\\b"));
        assert!(j.contains("line\\nbreak"));
        assert!(j.contains("\"span\":{\"kind\":\"op_pair\",\"first\":0,\"second\":1}"));
        // Structural sanity: balanced braces/brackets outside strings.
        let (mut depth, mut in_str, mut esc) = (0i32, false, false);
        for c in j.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
