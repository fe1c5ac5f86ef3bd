//! Static analysis for hetsim's three description layers — a
//! `compute-sanitizer` analogue that verifies specs *before* simulation.
//!
//! The simulator's results are only as trustworthy as the descriptions
//! feeding it: a [`StreamSchedule`](hetsim_runtime::stream::StreamSchedule)
//! whose chunks overlap across streams without serialization, a
//! touch stream that indexes a `Scratch` buffer or walks past a
//! buffer's chunk count, an `Output` buffer no kernel ever writes. The
//! runtime compensates for most of these silently (wrapping indices,
//! dropping touches, no-op waits), which is exactly how mis-specified
//! benchmarks corrupt measurements without failing. This crate inspects
//! the descriptions statically — no simulation — and reports every such
//! spot as a [`Diagnostic`] behind a stable lint code.
//!
//! Three entry points, one per layer:
//!
//! - [`check_program`] — buffer-role, touch-sequence, and
//!   mode-compatibility lints over any
//!   [`GpuProgram`](hetsim_runtime::program::GpuProgram) (`SAN-B*`,
//!   `SAN-T*`, `SAN-M*`).
//! - [`check_schedule`] — the racecheck/synccheck analogue over a
//!   [`StreamSchedule`](hetsim_runtime::stream::StreamSchedule)'s
//!   happens-before relation (`SAN-S001`–`S003`).
//! - [`check_outcome`] — trace-level checks over an evaluated
//!   [`ScheduleOutcome`](hetsim_runtime::stream::ScheduleOutcome)
//!   (`SAN-S004`).
//!
//! Beyond correctness, [`advise`] runs the *performance* advisor: it
//! ranks all five transfer modes by their noise-free base runs, explains
//! the ranking, and emits the advisory `SAN-P*` lint family (see
//! [`perf`]). The CLI exposes it as `hetsim advise`.
//!
//! Reports render as rustc-style text ([`Report::to_text`]) or JSON
//! ([`Report::to_json`]), and [`Report::is_clean`] implements the
//! `--deny warnings` policy. The CLI exposes all of this as
//! `hetsim check [--all | <workload>] [--deny warnings] [--format json]`.
//!
//! # Example
//!
//! ```
//! use hetsim_runtime::stream::{BufferAccess, Engine, StreamId, StreamSchedule};
//! use hetsim_engine::time::Nanos;
//!
//! let mut s = StreamSchedule::new();
//! s.push_access(StreamId(0), Engine::CopyH2D, Nanos::from_micros(10), "h2d",
//!               BufferAccess::writes("data", 0..4));
//! s.push_access(StreamId(1), Engine::Compute, Nanos::from_micros(10), "kernel",
//!               BufferAccess::writes("data", 2..6));
//! let report = hetsim_sanitizer::check_schedule("demo", &s);
//! assert_eq!(report.diagnostics[0].code(), "SAN-S001");
//!
//! // An event edge serializes the pair; the schedule comes back clean.
//! let mut s = StreamSchedule::new();
//! s.push_access(StreamId(0), Engine::CopyH2D, Nanos::from_micros(10), "h2d",
//!               BufferAccess::writes("data", 0..4));
//! let ev = s.record_event(StreamId(0));
//! s.wait_event(StreamId(1), ev);
//! s.push_access(StreamId(1), Engine::Compute, Nanos::from_micros(10), "kernel",
//!               BufferAccess::writes("data", 2..6));
//! assert!(hetsim_sanitizer::check_schedule("demo", &s).is_clean(true));
//! ```

pub mod diag;
pub mod perf;
pub mod program;
pub mod stream;

pub use diag::{Diagnostic, Lint, Report, Severity, Span};
pub use perf::{
    advise, BudgetCheck, DataflowAnalysis, ModeAdvice, ModePrediction, OverlapAnalysis, PerfConfig,
};
pub use program::check_program;
pub use stream::{check_outcome, check_schedule};

/// Knobs for [`check_program`].
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Chunk (page-group) size in bytes used to derive each buffer's chunk
    /// count for the out-of-bounds lint. Defaults to the A100 UVM chunk
    /// size the runtime migrates at.
    pub chunk_size: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            chunk_size: hetsim_uvm::page::CHUNK_SIZE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_gpu::kernel::{KernelModel, KernelStyle, LaunchConfig, TileOps};
    use hetsim_mem::addr::MemAccess;
    use hetsim_runtime::program::{BufferRole, BufferSpec, GpuProgram, PageTouch};
    use hetsim_uvm::prefetch::Regularity;

    /// Minimal kernel for synthetic programs.
    struct TestKernel {
        name: &'static str,
        style: KernelStyle,
        stores: bool,
        invocations: u64,
    }

    impl Default for TestKernel {
        fn default() -> Self {
            TestKernel {
                name: "k",
                style: KernelStyle::Direct,
                stores: true,
                invocations: 1,
            }
        }
    }

    impl KernelModel for TestKernel {
        fn name(&self) -> &str {
            self.name
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(64, 128, 0)
        }
        fn tiles_per_block(&self) -> u64 {
            1
        }
        fn stream_accesses(&self, _block: u64, _tile: u64, out: &mut Vec<MemAccess>) {
            out.push(MemAccess::global_load(0));
        }
        fn local_accesses(&self, _block: u64, _tile: u64, out: &mut Vec<MemAccess>) {
            if self.stores {
                out.push(MemAccess::global_store(1 << 30));
            }
        }
        fn tile_ops(&self) -> TileOps {
            TileOps::new(16.0, 16.0, 4.0)
        }
        fn regularity(&self) -> Regularity {
            Regularity::Regular
        }
        fn standard_style(&self) -> KernelStyle {
            self.style
        }
        fn invocations(&self) -> u64 {
            self.invocations
        }
    }

    /// Synthetic program with scriptable buffers and touch sequences.
    struct TestProgram {
        buffers: Vec<BufferSpec>,
        kernels: Vec<TestKernel>,
        touches: Option<Vec<PageTouch>>,
        conflict: f64,
    }

    impl TestProgram {
        fn new(buffers: Vec<BufferSpec>) -> Self {
            TestProgram {
                buffers,
                kernels: vec![TestKernel::default()],
                touches: None,
                conflict: 1.0,
            }
        }
    }

    impl GpuProgram for TestProgram {
        fn name(&self) -> &str {
            "test"
        }
        fn buffers(&self) -> Vec<BufferSpec> {
            self.buffers.clone()
        }
        fn kernels(&self) -> Vec<&dyn KernelModel> {
            self.kernels.iter().map(|k| k as &dyn KernelModel).collect()
        }
        fn prefetch_conflict(&self) -> f64 {
            self.conflict
        }
        fn for_each_page_touch(
            &self,
            _kernel: usize,
            invocation: u64,
            _chunk_size: u64,
            sink: &mut dyn FnMut(PageTouch),
        ) -> bool {
            match (&self.touches, invocation) {
                (Some(t), 0) => {
                    t.iter().for_each(|&t| sink(t));
                    true
                }
                _ => false,
            }
        }
    }

    fn buf(name: &str, chunks: u64, role: BufferRole) -> BufferSpec {
        BufferSpec::new(name, chunks * hetsim_uvm::page::CHUNK_SIZE, role)
    }

    fn codes(r: &Report) -> Vec<&'static str> {
        let mut c: Vec<&'static str> = r.diagnostics.iter().map(|d| d.code()).collect();
        c.sort_unstable();
        c
    }

    #[test]
    fn clean_program_is_clean() {
        let mut p = TestProgram::new(vec![
            buf("in", 4, BufferRole::Input),
            buf("out", 4, BufferRole::Output),
        ]);
        p.touches = Some(vec![
            PageTouch {
                buffer: 0,
                chunk: 0,
                write: false,
            },
            PageTouch {
                buffer: 1,
                chunk: 3,
                write: true,
            },
        ]);
        let r = check_program(&p, &CheckConfig::default());
        assert!(r.is_clean(true), "{}", r.to_text());
    }

    #[test]
    fn duplicate_names_and_zero_size() {
        // Bypass BufferSpec::new validation by mutating the field.
        let mut z = buf("a", 1, BufferRole::Input);
        z.bytes = 0;
        let p = TestProgram::new(vec![z, buf("a", 1, BufferRole::Output)]);
        let r = check_program(&p, &CheckConfig::default());
        assert_eq!(codes(&r), vec!["SAN-B001", "SAN-B002"]);
    }

    #[test]
    fn oversized_buffer_flagged() {
        let mut b = buf("huge", 1, BufferRole::Input);
        b.bytes = BufferSpec::MAX_BYTES + 1;
        let p = TestProgram::new(vec![b]);
        let r = check_program(&p, &CheckConfig::default());
        assert_eq!(codes(&r), vec!["SAN-B001"]);
    }

    #[test]
    fn output_without_stores() {
        let mut p = TestProgram::new(vec![buf("out", 1, BufferRole::Output)]);
        p.kernels[0].stores = false;
        let r = check_program(&p, &CheckConfig::default());
        assert_eq!(codes(&r), vec!["SAN-B003"]);
    }

    #[test]
    fn touch_lints_fire() {
        let mut p = TestProgram::new(vec![
            buf("in", 4, BufferRole::Input),
            buf("out", 4, BufferRole::Output),
            buf("tmp", 4, BufferRole::Scratch),
        ]);
        p.touches = Some(vec![
            // In-bounds read of the input, so it's covered.
            PageTouch {
                buffer: 0,
                chunk: 0,
                write: false,
            },
            // SAN-T004: writes the Input buffer.
            PageTouch {
                buffer: 0,
                chunk: 1,
                write: true,
            },
            // SAN-T002: chunk 9 past 4-chunk output (plus covers the write).
            PageTouch {
                buffer: 1,
                chunk: 9,
                write: true,
            },
            // SAN-T003: touches Scratch.
            PageTouch {
                buffer: 2,
                chunk: 0,
                write: false,
            },
            // SAN-T001: buffer index past the list.
            PageTouch {
                buffer: 7,
                chunk: 0,
                write: false,
            },
        ]);
        let r = check_program(&p, &CheckConfig::default());
        assert_eq!(
            codes(&r),
            vec!["SAN-T001", "SAN-T002", "SAN-T003", "SAN-T004"]
        );
        assert_eq!(r.errors(), 1, "only the buffer-index lint is an error");
    }

    #[test]
    fn coverage_lints_fire_when_fully_sequenced() {
        let mut p = TestProgram::new(vec![
            buf("in", 4, BufferRole::Input),
            buf("out", 4, BufferRole::InOut),
        ]);
        // Sequence reads the output's first chunk but never writes it, and
        // never touches the input at all.
        p.touches = Some(vec![PageTouch {
            buffer: 1,
            chunk: 0,
            write: false,
        }]);
        let r = check_program(&p, &CheckConfig::default());
        assert_eq!(codes(&r), vec!["SAN-T005", "SAN-T006"]);
    }

    #[test]
    fn no_coverage_lints_without_model() {
        // No touch model: the runtime uses the blanket fallback, which
        // migrates and dirties everything. Nothing to report.
        let p = TestProgram::new(vec![
            buf("in", 4, BufferRole::Input),
            buf("out", 4, BufferRole::Output),
        ]);
        assert!(check_program(&p, &CheckConfig::default()).is_clean(true));
    }

    #[test]
    fn empty_sequences_flagged() {
        let mut p = TestProgram::new(vec![buf("in", 4, BufferRole::Input)]);
        p.touches = Some(vec![]);
        let r = check_program(&p, &CheckConfig::default());
        assert!(codes(&r).contains(&"SAN-T007"), "{}", r.to_text());
    }

    #[test]
    fn mode_lints_fire() {
        let mut p = TestProgram::new(vec![buf("in", 1, BufferRole::Input)]);
        p.kernels[0].style = KernelStyle::StagedAsync;
        p.conflict = 0.5;
        let r = check_program(&p, &CheckConfig::default());
        assert_eq!(codes(&r), vec!["SAN-M001", "SAN-M002"]);

        let mut two = TestProgram::new(vec![buf("in", 1, BufferRole::Input)]);
        two.kernels.push(TestKernel::default());
        two.conflict = 0.5;
        assert!(
            check_program(&two, &CheckConfig::default()).is_clean(true),
            "conflict with a sibling kernel is the nw pattern, not a lint"
        );
    }

    #[test]
    fn all_scratch_flagged() {
        let p = TestProgram::new(vec![
            buf("a", 1, BufferRole::Scratch),
            buf("b", 1, BufferRole::Scratch),
        ]);
        let r = check_program(&p, &CheckConfig::default());
        assert!(codes(&r).contains(&"SAN-M003"));
    }
}
