//! Runs one workload: repeated set-up, untraced passes, an optional traced
//! pass, digest checks, and the metrics derived from them.

use crate::grid::{GridReplay, PaperGrid, UvmMega};
use crate::json;
use crate::ledger::{self, Ledger, END_TO_END, PER_LAYER};
use crate::serve::{ServeChaos, ServeSweep};
use crate::spans::Spans;
use crate::stats;
use crate::{golden, BenchWorkload, Pass, TIMING_METHOD};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Set-up runs this many times; its median is `setup_s`. The count is
/// fixed, not timed, so every run allocates the same way before its passes
/// and `peak_rss_mb` does not depend on host speed.
const SETUPS: usize = 5;
/// Untraced passes in a full run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// What to run and how.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Seconds of untraced passes (half of it when tracing).
    pub seconds: f64,
    /// Whether to add the traced pass.
    pub trace: bool,
    /// Tiny inputs and one pass each.
    pub smoke: bool,
    /// Simulator worker threads.
    pub threads: usize,
    /// Regenerating goldens: digests are recorded, not checked.
    pub bless: bool,
}

/// The directory the benchmark writes spans, results and caches under,
/// relative to where it runs.
pub fn work_dir() -> PathBuf {
    PathBuf::from("target").join("bench")
}

/// A scratch directory under [`work_dir`], removed on drop.
#[derive(Debug)]
pub(crate) struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<work_dir>/<kind>-<pid>-<n>`.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub(crate) fn new(kind: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = work_dir().join(format!("{kind}-{}-{n}", std::process::id()));
        fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        TempDir(path)
    }

    /// The directory.
    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
fn read_peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How a run's digests compared with the committed goldens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Golden {
    /// The first pass reproduced the golden digest.
    Match,
    /// It did not: every operation counts as failed.
    Mismatch,
    /// No golden is committed for this workload and mode.
    Missing,
    /// Seeded outputs at a seed other than 42: passes must agree instead.
    OtherSeed,
    /// `--bless`: digests are recorded, not checked.
    Blessing,
}

impl Golden {
    /// How the result file spells it.
    pub fn name(self) -> &'static str {
        match self {
            Golden::Match => "match",
            Golden::Mismatch => "mismatch",
            Golden::Missing => "missing",
            Golden::OtherSeed => "other-seed",
            Golden::Blessing => "blessing",
        }
    }
}

/// Counts operations and checks every pass's digests against the first
/// pass's (and the first against the golden).
struct Checker {
    golden: Golden,
    expected: Option<u64>,
    reference: Option<Vec<u64>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new<W: BenchWorkload>(w: &W, opts: &Options) -> Self {
        let expected = golden(opts.smoke, w.name());
        let golden = if opts.bless {
            Golden::Blessing
        } else if w.seeded() && opts.seed != 42 {
            Golden::OtherSeed
        } else if expected.is_none() {
            Golden::Missing
        } else {
            Golden::Match
        };
        Checker {
            golden,
            expected,
            reference: None,
            attempted: 0,
            failed: 0,
        }
    }

    fn check(&mut self, pass: &Pass) {
        self.attempted += pass.ops();
        let digests: Vec<u64> = pass.segments.iter().map(|s| s.digest).collect();
        if self.reference.is_none() {
            if self.golden == Golden::Match && self.expected != Some(pass.digest()) {
                self.golden = Golden::Mismatch;
            }
            self.reference = Some(digests.clone());
        }
        let reference = self.reference.as_deref().unwrap_or(&[]);
        for (i, seg) in pass.segments.iter().enumerate() {
            let agrees = reference.get(i) == Some(&digests[i]);
            if seg.failed || !agrees || self.golden == Golden::Mismatch {
                self.failed += 1;
            }
        }
    }

    fn digest(&self) -> Option<u64> {
        self.reference.as_deref().map(stats::combine)
    }

    /// Counts a pass that panicked as `ops` failed operations.
    fn panicked(&mut self, ops: u64) {
        let ops = ops.max(1);
        self.attempted += ops;
        self.failed += ops;
    }
}

/// Passes whose segment times are kept for the estimator.
const SAMPLED_PASSES: usize = 64;

/// Each segment's times: every pass's while there are few passes, then a
/// uniform sample of [`SAMPLED_PASSES`] passes (reservoir sampling), so the
/// memory is fixed after the first pass and `peak_rss_mb` does not depend
/// on how many passes the host fit into the run.
#[derive(Debug, Default)]
struct SegmentTimes {
    samples: Vec<Vec<u64>>,
    passes: u64,
    rng: u64,
}

impl SegmentTimes {
    fn record(&mut self, pass: &Pass) {
        self.passes += 1;
        if self.samples.is_empty() {
            self.samples = vec![Vec::with_capacity(SAMPLED_PASSES); pass.segments.len()];
        }
        let slot = if self.passes as usize <= SAMPLED_PASSES {
            None
        } else {
            // SplitMix64: a fixed sequence, so which passes are kept is the
            // same on every run.
            self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let j = (z ^ (z >> 31)) % self.passes;
            match usize::try_from(j) {
                Ok(j) if j < SAMPLED_PASSES => Some(j),
                _ => return,
            }
        };
        for (kept, seg) in self.samples.iter_mut().zip(&pass.segments) {
            match slot {
                None => kept.push(seg.ns),
                Some(j) => kept[j] = seg.ns,
            }
        }
    }

    /// The sum over segments of each segment's lower-decile time,
    /// seconds.
    fn estimated_pass_s(&self) -> f64 {
        self.samples
            .iter()
            .map(|kept| stats::nearest_rank(kept, 0.1))
            .sum::<u64>() as f64
            / 1e9
    }
}

/// Everything one workload run measured.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// What a unit of throughput counts.
    pub unit: &'static str,
    /// Work units per pass.
    pub units_per_pass: u64,
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each untraced pass, seconds.
    pub pass_s: Vec<f64>,
    /// The pass time `throughput` is taken from, seconds (see
    /// [`WorkloadResult::end_to_end`]).
    pub estimated_pass_s: f64,
    /// `VmHWM` after set-up and the first [`MIN_PASSES`] untraced passes.
    pub peak_rss_mb: f64,
    /// Operations attempted across all passes.
    pub attempted: u64,
    /// Operations whose digest mismatched or that panicked.
    pub failed: u64,
    /// The reference digest, once a pass completed.
    pub digest: Option<u64>,
    /// The golden comparison.
    pub golden: Golden,
    /// The traced pass's wall time (probes excluded), seconds.
    pub traced_pass_s: Option<f64>,
    /// The per-layer ledger of the traced pass.
    pub ledger: Option<Ledger>,
}

/// Runs `w` by `opts`.
fn run<W: BenchWorkload>(w: &W, opts: &Options) -> WorkloadResult {
    let mut setup_s = Vec::new();
    let mut state = None;
    while setup_s.len() < SETUPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(w.prepare(opts.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut state = state.expect("set-up ran at least once");

    let mut check = Checker::new(w, opts);
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut times = SegmentTimes::default();
    let mut pass_s = Vec::new();
    let (mut units_per_pass, mut ops_per_pass) = (0, 1);
    let mut peak_rss_mb = None;
    let mut panicked = false;
    let began = Instant::now();
    loop {
        let t = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| w.pass(&mut state))) {
            Ok(pass) => {
                let wall = t.elapsed().as_secs_f64();
                check.check(&pass);
                times.record(&pass);
                units_per_pass = pass.units();
                ops_per_pass = pass.ops();
                pass_s.push(wall);
                // Read at a fixed pass count: later passes only churn the
                // allocator, and how many there are depends on host speed.
                if pass_s.len() == MIN_PASSES {
                    peak_rss_mb = Some(read_peak_rss_mb());
                }
                let next_ends = began.elapsed().as_secs_f64() + wall;
                if opts.smoke || (pass_s.len() >= MIN_PASSES && next_ends > budget) {
                    break;
                }
            }
            Err(_) => {
                check.panicked(ops_per_pass);
                panicked = true;
                break;
            }
        }
    }
    let peak_rss_mb = peak_rss_mb.unwrap_or_else(read_peak_rss_mb);
    let estimated_pass_s = times.estimated_pass_s();

    let (mut traced_pass_s, mut ledger) = (None, None);
    if opts.trace && !panicked {
        let mut spans = Spans::new();
        match catch_unwind(AssertUnwindSafe(|| w.traced_pass(&mut state, &mut spans))) {
            Ok(pass) => {
                check.check(&pass);
                traced_pass_s = Some(spans.work_ns("pass") as f64 / 1e9);
                ledger = Some(ledger::derive(&spans, estimated_pass_s * 1e9));
                write_spans(w.name(), &spans);
            }
            Err(_) => check.panicked(ops_per_pass),
        }
    }

    WorkloadResult {
        name: w.name(),
        unit: w.unit(),
        units_per_pass,
        setup_s,
        pass_s,
        estimated_pass_s,
        peak_rss_mb,
        attempted: check.attempted,
        failed: check.failed,
        digest: check.digest(),
        golden: check.golden,
        traced_pass_s,
        ledger,
    }
}

fn write_spans(workload: &str, spans: &Spans) {
    let path = work_dir().join(format!("{workload}.spans.jsonl"));
    let written = fs::create_dir_all(work_dir())
        .and_then(|()| fs::File::create(&path))
        .and_then(|f| spans.write_jsonl(std::io::BufWriter::new(f)));
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// Runs the named workload, or `None` if there is no such workload.
pub fn run_named(name: &str, opts: &Options) -> Option<WorkloadResult> {
    let s = opts.smoke;
    Some(match name {
        "paper_grid" => run(&PaperGrid::new(s), opts),
        "grid_replay" => run(&GridReplay::new(s), opts),
        "uvm_mega" => run(&UvmMega::new(s), opts),
        "serve_sweep" => run(&ServeSweep::new(s), opts),
        "serve_chaos" => run(&ServeChaos::new(s), opts),
        _ => return None,
    })
}

/// A measured statistic with the summary the result file keeps.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    /// The gated value.
    pub value: f64,
    /// The best sample (fastest pass, quickest set-up).
    pub best: f64,
    /// Median of the samples.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Stat {
    fn of(samples: &[f64], value: f64, best: f64) -> Stat {
        let (q1, median, q3) = stats::quartiles(samples);
        Stat {
            value,
            best,
            median,
            q1,
            q3,
            n: samples.len(),
        }
    }
}

impl WorkloadResult {
    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The end-to-end metrics, in [`END_TO_END`] order.
    ///
    /// `throughput` is units per second of the estimated pass: the sum
    /// over segments of each segment's lower-decile time. Every pass
    /// repeats the same deterministic work, so the spread between passes
    /// is host interference, which comes in bursts shorter than a run;
    /// timing each call separately and taking a low quantile of each drops
    /// the bursts without leaning on the one luckiest sample.
    pub fn end_to_end(&self) -> Vec<(&'static str, Stat)> {
        let units = self.units_per_pass as f64;
        let tput: Vec<f64> = self.pass_s.iter().map(|s| units / s).collect();
        let fastest = tput.iter().copied().fold(0.0, f64::max);
        let estimated = if self.estimated_pass_s > 0.0 {
            units / self.estimated_pass_s
        } else {
            0.0
        };
        let quickest = self.setup_s.iter().copied().fold(f64::INFINITY, f64::min);
        vec![
            ("throughput", Stat::of(&tput, estimated, fastest)),
            (
                "setup_s",
                Stat::of(&self.setup_s, stats::median(&self.setup_s), quickest),
            ),
            (
                "peak_rss_mb",
                Stat::of(&[self.peak_rss_mb], self.peak_rss_mb, self.peak_rss_mb),
            ),
        ]
    }

    /// `metric <workload> <name> <value> <unit>` lines for every metric
    /// measured.
    pub fn metric_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .end_to_end()
            .iter()
            .zip(END_TO_END)
            .map(|((name, s), def)| format!("metric {} {name} {} {}", self.name, s.value, def.unit))
            .collect();
        lines.push(format!(
            "metric {} error_rate {} ratio",
            self.name,
            self.error_rate()
        ));
        if let Some(l) = &self.ledger {
            lines.extend(PER_LAYER.iter().map(|d| {
                format!(
                    "metric {} {} {} {}",
                    self.name,
                    d.name,
                    l.get(d.name),
                    d.unit
                )
            }));
        }
        lines
    }

    /// The one-line result: end-to-end metrics untraced, per-layer metrics
    /// traced.
    pub fn summary_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = if traced {
            let l = self.ledger.as_ref();
            PER_LAYER
                .iter()
                .map(|d| metric_json(d.name, l.map_or(f64::NAN, |l| l.get(d.name)), d.unit))
                .collect()
        } else {
            self.end_to_end()
                .iter()
                .zip(END_TO_END)
                .map(|((name, s), def)| metric_json(name, s.value, def.unit))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// This workload's entry in the result file.
    pub fn to_json(&self) -> String {
        let e2e: Vec<String> = self
            .end_to_end()
            .iter()
            .zip(END_TO_END)
            .map(|((name, s), def)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \
                     \"best\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                    json::string(name),
                    json::number(s.value),
                    json::string(def.unit),
                    json::string(def.better),
                    json::number(def.bound),
                    json::number(s.best),
                    json::number(s.median),
                    json::number(s.q1),
                    json::number(s.q3),
                    s.n
                )
            })
            .collect();
        let layers: Vec<String> = self
            .ledger
            .iter()
            .flat_map(|l| {
                PER_LAYER.iter().map(move |d| {
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}, \"moves\": {}}}",
                        json::string(d.name),
                        json::number(l.get(d.name)),
                        json::string(d.unit),
                        json::string(d.moves)
                    )
                })
            })
            .collect();
        let notes = match &self.ledger {
            Some(_) => format!(
                "{{\"uvm\": {}}}",
                json::string(
                    "UVM time is run_base minus a probe that executes the kernels in the \
                     standard environment; the UVM run executes them with translation and \
                     L2-warming adjustments, so the split is approximate"
                )
            ),
            None => "{}".to_string(),
        };
        format!(
            "{{\"work_unit\": {}, \"units_per_pass\": {}, \"passes\": {}, \"setup_reps\": {}, \
             \"estimated_pass_s\": {}, \"traced_pass_s\": {}, \
             \"attempted\": {}, \"failed\": {}, \"error_rate\": {}, \"correct\": {}, \
             \"digest\": {}, \"golden\": {}, \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}, \
             \"notes\": {}}}",
            json::string(self.unit),
            self.units_per_pass,
            self.pass_s.len(),
            self.setup_s.len(),
            json::number(self.estimated_pass_s),
            self.traced_pass_s.map_or("null".to_string(), json::number),
            self.attempted,
            self.failed,
            json::number(self.error_rate()),
            self.correct(),
            self.digest
                .map_or("null".to_string(), |d| json::string(&format!("{d:016x}"))),
            json::string(self.golden.name()),
            e2e.join(", "),
            layers.join(", "),
            notes
        )
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json::string(name),
        json::number(value),
        json::string(unit)
    )
}

/// What produced a result: the run's settings and the host.
fn provenance(opts: &Options) -> String {
    format!(
        "{{\"seed\": {}, \"threads\": {}, \"nproc\": {}, \"simulator_version\": {}, \
         \"bench_version\": {}, \"smoke\": {}, \"seconds\": {}, \"trace\": {}, \
         \"timing\": {}, \"os\": {}, \"arch\": {}}}",
        opts.seed,
        opts.threads,
        nproc(),
        json::string(&crate::simulator_version()),
        json::string(env!("CARGO_PKG_VERSION")),
        opts.smoke,
        json::number(opts.seconds),
        opts.trace,
        json::string(TIMING_METHOD),
        json::string(std::env::consts::OS),
        json::string(std::env::consts::ARCH),
    )
}

/// A complete result document over `(workload, entry JSON)` pairs.
pub fn result_document(opts: &Options, entries: &[(String, String)]) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(name, entry)| format!("{}: {entry}", json::string(name)))
        .collect();
    format!(
        "{{\"schema\": \"hetsim-bench/1\", \"provenance\": {}, \"workloads\": {{{}}}}}\n",
        provenance(opts),
        body.join(", ")
    )
}
