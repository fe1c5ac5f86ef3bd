//! Minimal flag parsing for the artifact CLI — no external dependency.

use hetsim_workloads::InputSize;

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Positional operands (e.g. the workload of `trace <workload>`).
    pub positional: Vec<String>,
    /// `--workload NAME`
    pub workload: Option<String>,
    /// `--size tiny|small|medium|large|super|mega` (default: large).
    pub size: InputSize,
    /// `--runs N` (default: 30, the paper's methodology).
    pub runs: u64,
    /// `--csv`: emit CSV instead of aligned tables.
    pub csv: bool,
    /// `--study blocks|threads|carveout`.
    pub study: Option<String>,
    /// `--out DIR|FILE`: the figures directory, or the JSON report file
    /// of `chaos` and `serve`.
    pub out: Option<String>,
    /// `--jobs N` (default 16).
    pub jobs: u32,
    /// `--mode standard|pinned|uvm|uvm_prefetch|uvm_prefetch_async`.
    pub mode: Option<String>,
    /// `--trace FILE`: export a trace of the run to FILE, in the format
    /// its extension names (`.json` and `.jsonl` stream during the run).
    pub trace: Option<String>,
    /// `--self-profile`: include host wall-clock spans in the trace.
    pub self_profile: bool,
    /// `--threads N`: worker threads for parallel sweeps (default: the
    /// `HETSIM_THREADS` env var, then the machine's parallelism; `1`
    /// forces fully serial execution).
    pub threads: Option<usize>,
    /// `--help`/`-h`: print the command's usage (and, for `run`, the
    /// workload registry) instead of running.
    pub help: bool,
    /// `--all`: for `check`, sweep the entire workload registry.
    pub all: bool,
    /// `--deny warnings`: promote sanitizer warnings to failures.
    pub deny_warnings: bool,
    /// `--format text|json` (default text): sanitizer report rendering.
    pub format: Option<String>,
    /// `--verify-specs`: run the sanitizer over the workloads a command is
    /// about to simulate and abort (deny-warnings) if any spec is dirty.
    pub verify_specs: bool,
    /// `--seed N`: base seed for chaos fault plans (default 42).
    pub seed: u64,
    /// `--rates R1,R2,...`: fault-intensity ramp for `chaos` (each a
    /// finite non-negative number).
    pub rates: Option<Vec<f64>>,
    /// `--seeds N`: seeds per chaos sweep cell (default 8, nonzero).
    pub seeds: u64,
    /// `--retries N`: overrides the chaos recovery retry/replay budgets.
    pub retries: Option<u32>,
    /// `--policy NAME|all`: serving policy for `serve` (default: all).
    pub policy: Option<String>,
    /// `--mix poisson|bursty|diurnal`: arrival mix for `serve`
    /// (default: poisson).
    pub mix: Option<String>,
    /// `--rate R`: base arrival rate in requests/second for `serve`
    /// (default 100; finite and positive).
    pub rate: Option<f64>,
    /// `--gpus N`: fleet size for `serve` (default 4, nonzero).
    pub gpus: usize,
    /// `--requests N`: offered requests per serve cell (default 200,
    /// nonzero).
    pub requests: u64,
    /// `--chaos`: arm the serve command's resilience layer (device
    /// lifecycle faults, SLO deadlines, availability sweep).
    pub chaos: bool,
    /// `--intensities X1,X2,...`: fault-intensity grid for
    /// `serve --chaos` (each finite and in `[0, 1]`).
    pub intensities: Option<Vec<f64>>,
    /// `--deadline MS`: per-request SLO budget in milliseconds for
    /// `serve` (finite and positive; default 50).
    pub deadline_ms: Option<f64>,
    /// `--cache off|on|DIR`: on-disk base-run result cache. `on` uses
    /// `target/hetsim-cache`, a path roots the store there, `off`
    /// disables. Unset falls back to the `HETSIM_CACHE` env var with the
    /// same grammar; default disabled.
    pub cache: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            positional: Vec::new(),
            workload: None,
            size: InputSize::Large,
            runs: 30,
            csv: false,
            study: None,
            out: None,
            jobs: 16,
            mode: None,
            trace: None,
            self_profile: false,
            threads: None,
            help: false,
            all: false,
            deny_warnings: false,
            format: None,
            verify_specs: false,
            seed: 42,
            rates: None,
            seeds: 8,
            retries: None,
            policy: None,
            mix: None,
            rate: None,
            gpus: 4,
            requests: 200,
            chaos: false,
            intensities: None,
            deadline_ms: None,
            cache: None,
        }
    }
}

impl Args {
    /// Splits `argv` into `(command, options)`; `None` on empty or
    /// malformed input.
    pub fn parse(argv: &[String]) -> Option<(String, Args)> {
        let mut it = argv.iter();
        let command = it.next()?.clone();
        let mut args = Args::default();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--csv" => args.csv = true,
                "--help" | "-h" => args.help = true,
                "--self-profile" => args.self_profile = true,
                "--all" => args.all = true,
                "--verify-specs" => args.verify_specs = true,
                "--deny" => {
                    // Mirrors rustc's `--deny warnings`; other lint groups
                    // don't exist, so anything else is a usage error.
                    if it.next()?.as_str() != "warnings" {
                        return None;
                    }
                    args.deny_warnings = true;
                }
                "--format" => {
                    let v = it.next()?;
                    if v != "text" && v != "json" {
                        return None;
                    }
                    args.format = Some(v.clone());
                }
                "--workload" => args.workload = Some(it.next()?.clone()),
                "--study" => args.study = Some(it.next()?.clone()),
                "--out" => args.out = Some(it.next()?.clone()),
                "--mode" => args.mode = Some(it.next()?.clone()),
                "--trace" => args.trace = Some(it.next()?.clone()),
                "--size" => {
                    let v = it.next()?;
                    args.size = InputSize::ALL.into_iter().find(|s| s.name() == v)?;
                }
                "--runs" => {
                    // Zero runs would panic later in Experiment::with_runs;
                    // reject it at the parse boundary instead.
                    let n: u64 = it.next()?.parse().ok()?;
                    if n == 0 {
                        return None;
                    }
                    args.runs = n;
                }
                "--jobs" => args.jobs = it.next()?.parse().ok()?,
                "--seed" => args.seed = it.next()?.parse().ok()?,
                "--retries" => args.retries = Some(it.next()?.parse().ok()?),
                "--seeds" => {
                    let n: u64 = it.next()?.parse().ok()?;
                    if n == 0 {
                        return None;
                    }
                    args.seeds = n;
                }
                "--rates" => {
                    let list = it.next()?;
                    let mut rates = Vec::new();
                    for part in list.split(',') {
                        let r: f64 = part.trim().parse().ok()?;
                        if !r.is_finite() || r < 0.0 {
                            return None;
                        }
                        rates.push(r);
                    }
                    if rates.is_empty() {
                        return None;
                    }
                    args.rates = Some(rates);
                }
                "--chaos" => args.chaos = true,
                "--intensities" => {
                    let list = it.next()?;
                    let mut xs = Vec::new();
                    for part in list.split(',') {
                        let x: f64 = part.trim().parse().ok()?;
                        if !x.is_finite() || !(0.0..=1.0).contains(&x) {
                            return None;
                        }
                        xs.push(x);
                    }
                    if xs.is_empty() {
                        return None;
                    }
                    args.intensities = Some(xs);
                }
                "--deadline" => {
                    // Zero or negative budgets would shed every request;
                    // reject them at the parse boundary like --rate.
                    let ms: f64 = it.next()?.parse().ok()?;
                    if !ms.is_finite() || ms <= 0.0 {
                        return None;
                    }
                    args.deadline_ms = Some(ms);
                }
                "--policy" => args.policy = Some(it.next()?.clone()),
                "--cache" => args.cache = Some(it.next()?.clone()),
                "--mix" => {
                    let v = it.next()?;
                    if v != "poisson" && v != "bursty" && v != "diurnal" {
                        return None;
                    }
                    args.mix = Some(v.clone());
                }
                "--rate" => {
                    let r: f64 = it.next()?.parse().ok()?;
                    if !r.is_finite() || r <= 0.0 {
                        return None;
                    }
                    args.rate = Some(r);
                }
                "--gpus" => {
                    let n: usize = it.next()?.parse().ok()?;
                    if n == 0 {
                        return None;
                    }
                    args.gpus = n;
                }
                "--requests" => {
                    let n: u64 = it.next()?.parse().ok()?;
                    if n == 0 {
                        return None;
                    }
                    args.requests = n;
                }
                "--threads" => {
                    let n: usize = it.next()?.parse().ok()?;
                    if n == 0 {
                        return None;
                    }
                    args.threads = Some(n);
                }
                other if !other.starts_with('-') => args.positional.push(other.to_string()),
                _ => return None,
            }
        }
        Some((command, args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let (cmd, a) = Args::parse(&v(&[
            "run",
            "--workload",
            "lud",
            "--size",
            "super",
            "--runs",
            "5",
            "--csv",
        ]))
        .unwrap();
        assert_eq!(cmd, "run");
        assert_eq!(a.workload.as_deref(), Some("lud"));
        assert_eq!(a.size, InputSize::Super);
        assert_eq!(a.runs, 5);
        assert!(a.csv);
    }

    #[test]
    fn defaults() {
        let (_, a) = Args::parse(&v(&["micro"])).unwrap();
        assert_eq!(a.size, InputSize::Large);
        assert_eq!(a.runs, 30);
        assert!(!a.csv);
        assert_eq!(a.jobs, 16);
    }

    #[test]
    fn parses_trace_command_shape() {
        let (cmd, a) = Args::parse(&v(&[
            "trace",
            "vector_seq",
            "--mode",
            "uvm",
            "--size",
            "large",
            "--trace",
            "t.json",
            "--self-profile",
        ]))
        .unwrap();
        assert_eq!(cmd, "trace");
        assert_eq!(a.positional, vec!["vector_seq".to_string()]);
        assert_eq!(a.mode.as_deref(), Some("uvm"));
        assert_eq!(a.trace.as_deref(), Some("t.json"));
        assert!(a.self_profile);
    }

    #[test]
    fn parses_trace_flag_on_run() {
        let (_, a) = Args::parse(&v(&["run", "--workload", "lud", "--trace", "t.json"])).unwrap();
        assert_eq!(a.trace.as_deref(), Some("t.json"));
        assert!(!a.self_profile);
    }

    #[test]
    fn trace_stream_flags_are_rejected() {
        // `--trace FILE` streams `.json`/`.jsonl` itself; the flags that
        // used to ask for it are unknown options now.
        assert!(Args::parse(&v(&["run", "lud", "--trace-stream", "t.jsonl"])).is_none());
        assert!(Args::parse(&v(&["run", "lud", "--trace-format", "chrome"])).is_none());
        let (_, a) = Args::parse(&v(&["run", "lud", "--trace", "t.jsonl"])).unwrap();
        assert_eq!(a.trace.as_deref(), Some("t.jsonl"));
    }

    #[test]
    fn parses_help_flag_and_positional_run() {
        let (cmd, a) = Args::parse(&v(&["run", "--help"])).unwrap();
        assert_eq!(cmd, "run");
        assert!(a.help);
        let (_, a) = Args::parse(&v(&["run", "bfs", "--mode", "uvm"])).unwrap();
        assert_eq!(a.positional, vec!["bfs".to_string()]);
        assert_eq!(a.mode.as_deref(), Some("uvm"));
    }

    #[test]
    fn parses_threads_flag() {
        let (_, a) = Args::parse(&v(&["figures", "--threads", "4"])).unwrap();
        assert_eq!(a.threads, Some(4));
        let (_, a) = Args::parse(&v(&["figures"])).unwrap();
        assert_eq!(a.threads, None);
        assert!(Args::parse(&v(&["figures", "--threads", "0"])).is_none());
        assert!(Args::parse(&v(&["figures", "--threads", "x"])).is_none());
    }

    #[test]
    fn parses_check_flags() {
        let (cmd, a) = Args::parse(&v(&[
            "check", "--all", "--deny", "warnings", "--format", "json",
        ]))
        .unwrap();
        assert_eq!(cmd, "check");
        assert!(a.all);
        assert!(a.deny_warnings);
        assert_eq!(a.format.as_deref(), Some("json"));
        let (_, a) = Args::parse(&v(&["check", "bfs"])).unwrap();
        assert!(!a.all && !a.deny_warnings && a.format.is_none());
        assert_eq!(a.positional, vec!["bfs".to_string()]);
        assert!(Args::parse(&v(&["check", "--deny", "errors"])).is_none());
        assert!(Args::parse(&v(&["check", "--format", "yaml"])).is_none());
    }

    #[test]
    fn parses_verify_specs_flag() {
        let (_, a) = Args::parse(&v(&["micro", "--verify-specs"])).unwrap();
        assert!(a.verify_specs);
        let (_, a) = Args::parse(&v(&["micro"])).unwrap();
        assert!(!a.verify_specs);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Args::parse(&v(&[])).is_none());
        assert!(Args::parse(&v(&["run", "--size", "giga"])).is_none());
        assert!(Args::parse(&v(&["run", "--runs", "abc"])).is_none());
        assert!(Args::parse(&v(&["run", "--runs", "0"])).is_none());
        assert!(Args::parse(&v(&["run", "--bogus"])).is_none());
        assert!(Args::parse(&v(&["run", "--workload"])).is_none());
    }

    #[test]
    fn parses_chaos_flags() {
        let (cmd, a) = Args::parse(&v(&[
            "chaos",
            "--seed",
            "7",
            "--rates",
            "0.0,0.5, 1.0",
            "--seeds",
            "4",
            "--retries",
            "2",
        ]))
        .unwrap();
        assert_eq!(cmd, "chaos");
        assert_eq!(a.seed, 7);
        assert_eq!(a.rates, Some(vec![0.0, 0.5, 1.0]));
        assert_eq!(a.seeds, 4);
        assert_eq!(a.retries, Some(2));
    }

    #[test]
    fn chaos_flag_defaults() {
        let (_, a) = Args::parse(&v(&["chaos"])).unwrap();
        assert_eq!(a.seed, 42);
        assert_eq!(a.rates, None);
        assert_eq!(a.seeds, 8);
        assert_eq!(a.retries, None);
    }

    #[test]
    fn parses_serve_flags() {
        let (cmd, a) = Args::parse(&v(&[
            "serve",
            "--policy",
            "uvm_spillover",
            "--mix",
            "bursty",
            "--rate",
            "250.5",
            "--gpus",
            "8",
            "--requests",
            "500",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(cmd, "serve");
        assert_eq!(a.policy.as_deref(), Some("uvm_spillover"));
        assert_eq!(a.mix.as_deref(), Some("bursty"));
        assert_eq!(a.rate, Some(250.5));
        assert_eq!(a.gpus, 8);
        assert_eq!(a.requests, 500);
        assert_eq!(a.seed, 9);
    }

    #[test]
    fn serve_flag_defaults_and_rejections() {
        let (_, a) = Args::parse(&v(&["serve"])).unwrap();
        assert_eq!(a.policy, None);
        assert_eq!(a.mix, None);
        assert_eq!(a.rate, None);
        assert_eq!(a.gpus, 4);
        assert_eq!(a.requests, 200);
        assert!(Args::parse(&v(&["serve", "--mix", "steady"])).is_none());
        assert!(Args::parse(&v(&["serve", "--rate", "0"])).is_none());
        assert!(Args::parse(&v(&["serve", "--rate", "-3"])).is_none());
        assert!(Args::parse(&v(&["serve", "--rate", "inf"])).is_none());
        assert!(Args::parse(&v(&["serve", "--gpus", "0"])).is_none());
        assert!(Args::parse(&v(&["serve", "--requests", "0"])).is_none());
    }

    #[test]
    fn parses_resilience_flags() {
        let (_, a) = Args::parse(&v(&[
            "serve",
            "--chaos",
            "--intensities",
            "0.0, 0.5,1.0",
            "--deadline",
            "25.5",
        ]))
        .unwrap();
        assert!(a.chaos);
        assert_eq!(a.intensities, Some(vec![0.0, 0.5, 1.0]));
        assert_eq!(a.deadline_ms, Some(25.5));
        let (_, a) = Args::parse(&v(&["serve"])).unwrap();
        assert!(!a.chaos);
        assert_eq!(a.intensities, None);
        assert_eq!(a.deadline_ms, None);
    }

    #[test]
    fn rejects_bad_resilience_flags() {
        assert!(Args::parse(&v(&["serve", "--intensities", ""])).is_none());
        assert!(Args::parse(&v(&["serve", "--intensities", "0.5,1.5"])).is_none());
        assert!(Args::parse(&v(&["serve", "--intensities", "-0.1"])).is_none());
        assert!(Args::parse(&v(&["serve", "--intensities", "nan"])).is_none());
        assert!(Args::parse(&v(&["serve", "--intensities", "0.5,nope"])).is_none());
        assert!(Args::parse(&v(&["serve", "--intensities"])).is_none());
        assert!(Args::parse(&v(&["serve", "--deadline", "0"])).is_none());
        assert!(Args::parse(&v(&["serve", "--deadline", "-5"])).is_none());
        assert!(Args::parse(&v(&["serve", "--deadline", "inf"])).is_none());
        assert!(Args::parse(&v(&["serve", "--deadline", "abc"])).is_none());
        assert!(Args::parse(&v(&["serve", "--deadline"])).is_none());
    }

    #[test]
    fn parses_cache_flag() {
        let (_, a) = Args::parse(&v(&["micro", "--cache", "on"])).unwrap();
        assert_eq!(a.cache.as_deref(), Some("on"));
        let (_, a) = Args::parse(&v(&["micro", "--cache", "/tmp/c"])).unwrap();
        assert_eq!(a.cache.as_deref(), Some("/tmp/c"));
        let (cmd, a) = Args::parse(&v(&["cache", "stats", "--cache", "off"])).unwrap();
        assert_eq!(cmd, "cache");
        assert_eq!(a.positional, vec!["stats".to_string()]);
        assert_eq!(a.cache.as_deref(), Some("off"));
        let (_, a) = Args::parse(&v(&["micro"])).unwrap();
        assert_eq!(a.cache, None);
        assert!(Args::parse(&v(&["micro", "--cache"])).is_none());
    }

    /// Randomized input boundary, in the style of `tests/simulator_props.rs`:
    /// `SimRng`-drawn argument lists over the flag vocabulary, good and bad
    /// values, and junk. Parsing never panics; whatever it accepts satisfies
    /// the documented value bounds; and the retired trace flags are
    /// rejected wherever an option may stand.
    #[test]
    fn random_argument_lists_parse_without_panicking() {
        use hetsim_engine::rng::SimRng;
        const TOKENS: &[&str] = &[
            "run",
            "serve",
            "trace",
            "lud",
            "--csv",
            "--help",
            "-h",
            "--self-profile",
            "--all",
            "--verify-specs",
            "--chaos",
            "--deny",
            "warnings",
            "errors",
            "--format",
            "json",
            "text",
            "yaml",
            "--workload",
            "--study",
            "--out",
            "--mode",
            "uvm",
            "--trace",
            "t.json",
            "t.jsonl",
            "-",
            "--size",
            "tiny",
            "giga",
            "--runs",
            "--jobs",
            "--seed",
            "--retries",
            "--seeds",
            "--rates",
            "--intensities",
            "--deadline",
            "--rate",
            "--gpus",
            "--requests",
            "--threads",
            "--policy",
            "--cache",
            "--mix",
            "bursty",
            "steady",
            "0",
            "1",
            "7",
            "-3",
            "0.5",
            "1.5",
            "inf",
            "nan",
            "abc",
            "0,0.5,1",
            "",
            ",",
            "--",
            "--bogus",
            "\u{0}",
            "ünïcode",
        ];
        let mut rng = SimRng::seed_from_parts(&["props", "args_parse"], 0);
        for _ in 0..4_000 {
            let len = rng.below(10) as usize;
            let argv: Vec<String> = (0..len)
                .map(|_| TOKENS[rng.below(TOKENS.len() as u64) as usize].to_string())
                .collect();
            let Some((_, a)) = Args::parse(&argv) else {
                continue;
            };
            assert!(
                a.runs > 0 && a.seeds > 0 && a.gpus > 0 && a.requests > 0,
                "{argv:?}"
            );
            assert_ne!(a.threads, Some(0), "{argv:?}");
            assert!(a.rate.is_none_or(|r| r.is_finite() && r > 0.0), "{argv:?}");
            assert!(
                a.deadline_ms.is_none_or(|d| d.is_finite() && d > 0.0),
                "{argv:?}"
            );
            assert!(a
                .rates
                .as_ref()
                .is_none_or(|rs| !rs.is_empty() && rs.iter().all(|r| r.is_finite() && *r >= 0.0)));
            assert!(a
                .intensities
                .as_ref()
                .is_none_or(|xs| !xs.is_empty() && xs.iter().all(|x| (0.0..=1.0).contains(x))));
            assert!(a.positional.iter().all(|p| !p.starts_with('-')), "{argv:?}");
            for retired in [["--trace-stream", "t.jsonl"], ["--trace-format", "chrome"]] {
                let mut longer = argv.clone();
                longer.extend(retired.map(String::from));
                assert!(Args::parse(&longer).is_none(), "{longer:?} accepted");
            }
        }
    }

    #[test]
    fn rejects_bad_chaos_flags() {
        assert!(Args::parse(&v(&["chaos", "--seeds", "0"])).is_none());
        assert!(Args::parse(&v(&["chaos", "--rates", ""])).is_none());
        assert!(Args::parse(&v(&["chaos", "--rates", "0.5,-1"])).is_none());
        assert!(Args::parse(&v(&["chaos", "--rates", "0.5,nope"])).is_none());
        assert!(Args::parse(&v(&["chaos", "--rates", "inf"])).is_none());
        assert!(Args::parse(&v(&["chaos", "--retries", "x"])).is_none());
    }
}
