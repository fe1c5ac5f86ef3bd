//! `hetsim` — the artifact workflow of the reproduction as one binary.
//!
//! Mirrors the paper's appendix scripts (`run_micro_all.py`,
//! `run_real_all.py`, `run_micro_sensitivity.py`, `process_perf.py`) as
//! subcommands:
//!
//! ```text
//! hetsim-cli list
//! hetsim-cli check [--all | <workload>] [--deny warnings] [--format json]
//! hetsim-cli run <workload> [--size super] [--runs 30] [--mode M] [--csv]
//! hetsim-cli micro --size large [--runs 30] [--csv]
//! hetsim-cli apps [--runs 30] [--csv]
//! hetsim-cli irregular [--size large] [--runs 30] [--csv]
//! hetsim-cli counters [--size large]
//! hetsim-cli sensitivity --study blocks|threads|carveout [--size large]
//! hetsim-cli figures --out DIR      # write every figure's CSV + SVG
//! hetsim-cli interjob [--workload W] [--jobs N]
//! hetsim-cli trace <workload> [--mode M] [--trace trace.json]
//! ```
//!
//! `run --help` prints the full workload registry. With `--mode`, `run`
//! executes that one mode and reports the breakdown plus the UVM
//! fault-batcher statistics; without it, all five modes are compared.
//! `irregular` runs the fault-batcher study trio (bfs, kmeans,
//! pathfinder) and reports their batch-fill/refault profiles.
//!
//! `check` runs the static spec sanitizer (`hetsim-sanitizer`) over one
//! workload or the whole registry — no simulation — and exits non-zero on
//! errors (or on warnings under `--deny warnings`). The sweep commands
//! (`run`, `micro`, `apps`, `irregular`, `figures`) accept
//! `--verify-specs` to run the same checks before burning compute.
//!
//! `advise` runs the transfer-mode advisor: per workload it ranks all
//! five transfer modes by the cost of their noise-free base runs
//! (alloc/memcpy/kernel, with a one-line rationale each) and reports the
//! `SAN-P*` advisory lints. `--format json` emits an array of advice
//! objects whose shape is pinned against `scripts/golden/advise.schema`
//! by the `check_and_advise_run_clean_and_match_the_schema_goldens` test.
//!
//! `trace` records one deterministic run as a structured sim-time trace
//! and exports it to `--trace FILE` (default `-`, text on stdout). `run`,
//! `irregular`, `interjob`, `chaos` and `serve` take the same flag to
//! export a trace alongside their tables; every other command rejects it.
//! The output extension picks the format: `.json` → Chrome trace-event
//! format (load in Perfetto / `chrome://tracing`) and `.jsonl` →
//! line-delimited JSON both stream *during* the run in bounded memory,
//! so recordings never have to fit in the ring buffer and never drop;
//! `.csv` → flat CSV and anything else (or `-`) → plain text render from
//! the finished recording. The bytes are identical at any `--threads N`.
//!
//! `chaos` sweeps the `hetsim-chaos` fault injector over a workload set ×
//! intensity ramp × seed grid and prints the degradation curve: mean
//! slowdown over the fault-free baseline, how many runs degraded off the
//! requested mode, and how many exhausted their recovery budget. Plans
//! that can never recover (a nonzero fault rate with `--retries 0`) are
//! rejected before any simulation.
//!
//! `serve` puts a multi-GPU fleet under open-loop traffic
//! (`hetsim-serve`): seeded Poisson/bursty/diurnal arrivals drawn from
//! the workload registry, admission + placement through one of the five
//! shipped policies (or all of them), and a report of p50/p99/p999
//! latency, goodput, SLO attainment, and per-device utilization.
//! `serve --chaos` arms the fleet resilience layer — seeded
//! device-lifecycle faults, SLO deadlines, deadline-budgeted retries and
//! hedging — and sweeps availability curves over a fault-intensity grid.
//! A single-cell run can export the fleet schedule with `--trace`;
//! reports and traces are byte-identical at any `--threads N` for a
//! fixed seed. See `docs/SERVING.md` for the architecture.

use hetsim::batch::{InterJobPipeline, JobStages};
use hetsim::cache::{CacheChoice, DiskCache};
use hetsim::experiment::Experiment;
use hetsim::figures;
use hetsim::headline::{Headline, Section6};
use hetsim_counters::report::Table;
use hetsim_counters::svg::BarChart;
use hetsim_runtime::TransferMode;
use hetsim_workloads::{suite, InputSize};
use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;
use std::sync::{Arc, OnceLock};

mod args;
use args::Args;

/// `print!` for command output: a failed write to stdout (a closed pipe,
/// say) returns from the enclosing command as its error instead of
/// panicking.
macro_rules! out {
    ($($arg:tt)*) => {
        write!(std::io::stdout(), $($arg)*).map_err(stdout_error)?
    };
}

/// [`out!`] with a trailing newline.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(stdout_error)?
    };
}

fn stdout_error(e: std::io::Error) -> String {
    format!("cannot write to stdout: {e}")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, args)) = Args::parse(&argv) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    hetsim::pool::set_threads(args.threads);
    let result =
        dispatch(&command, &args).and_then(|()| std::io::stdout().flush().map_err(stdout_error));
    report_cache_stats();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The process-wide disk cache, resolved once from `--cache` (falling back
/// to `HETSIM_CACHE`). `None` when caching is disabled — the default.
static DISK_CACHE: OnceLock<Option<Arc<DiskCache>>> = OnceLock::new();

fn disk_cache(args: &Args) -> Option<Arc<DiskCache>> {
    DISK_CACHE
        .get_or_init(
            || match hetsim::cache::resolve_choice(args.cache.as_deref()) {
                CacheChoice::Disabled => None,
                CacheChoice::Dir(dir) => Some(Arc::new(DiskCache::at(dir))),
            },
        )
        .clone()
}

/// The experiment every sweep command starts from: `--runs` applied and
/// the on-disk result cache attached when `--cache`/`HETSIM_CACHE`
/// enables one.
fn experiment(args: &Args) -> Experiment {
    let exp = Experiment::new().with_runs(args.runs);
    match disk_cache(args) {
        Some(disk) => exp.with_cache(disk),
        None => exp,
    }
}

/// One summary line on stderr after a cached command, so sweep scripts can
/// scrape hit/miss counts without perturbing the byte-compared stdout.
fn report_cache_stats() {
    if let Some(Some(disk)) = DISK_CACHE.get() {
        let s = disk.stats();
        if s.hits + s.misses + s.stores + s.errors > 0 {
            eprintln!(
                "cache: {} hits, {} misses, {} stored, {} errors ({})",
                s.hits,
                s.misses,
                s.stores,
                s.errors,
                disk.root().display()
            );
        }
    }
}

/// `cache stats` / `cache clear`: administration of the on-disk result
/// cache. Location follows the same `--cache`/`HETSIM_CACHE` resolution
/// as the sweep commands, except an unset knob points at the default root
/// (`target/hetsim-cache`) instead of disabling — inspecting a cache
/// should not require turning caching on.
fn cmd_cache(args: &Args) -> Result<(), String> {
    if args.help {
        outln!(
            "usage: hetsim-cli cache <stats|clear> [--cache DIR]\n\
             \u{20} stats   entry count and total bytes of the cache store\n\
             \u{20} clear   delete every cached entry (the directory stays)"
        );
        return Ok(());
    }
    let root = match hetsim::cache::resolve_choice(args.cache.as_deref()) {
        CacheChoice::Dir(dir) => dir,
        CacheChoice::Disabled => DiskCache::default_root(),
    };
    let disk = DiskCache::at(root);
    let op = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("stats");
    match op {
        "stats" => {
            let scan = disk
                .scan()
                .map_err(|e| format!("cannot scan {}: {e}", disk.root().display()))?;
            outln!("cache root: {}", disk.root().display());
            outln!("entries:    {}", scan.entries);
            outln!("bytes:      {}", scan.bytes);
            Ok(())
        }
        "clear" => {
            let removed = disk
                .clear()
                .map_err(|e| format!("cannot clear {}: {e}", disk.root().display()))?;
            outln!("removed {removed} entries from {}", disk.root().display());
            Ok(())
        }
        other => Err(format!("unknown cache operation `{other}` (stats|clear)")),
    }
}

/// The commands that record a run, and so the only ones `--trace` applies to.
const TRACING_COMMANDS: [&str; 6] = ["run", "irregular", "interjob", "chaos", "serve", "trace"];

fn dispatch(command: &str, args: &Args) -> Result<(), String> {
    if args.trace.is_some() && !TRACING_COMMANDS.contains(&command) {
        return Err(format!(
            "`{command}` records no trace; --trace applies to {}",
            TRACING_COMMANDS.join(", ")
        ));
    }
    match command {
        "help" | "--help" | "-h" => {
            outln!("{USAGE}");
            Ok(())
        }
        "list" => cmd_list(),
        "check" => cmd_check(args),
        "advise" => cmd_advise(args),
        "run" => cmd_run(args),
        "micro" => cmd_micro(args),
        "apps" => cmd_apps(args),
        "irregular" => cmd_irregular(args),
        "counters" => cmd_counters(args),
        "sensitivity" => cmd_sensitivity(args),
        "figures" => cmd_figures(args),
        "interjob" => cmd_interjob(args),
        "trace" => cmd_trace(args),
        "chaos" => cmd_chaos(args),
        "serve" => cmd_serve(args),
        "cache" => cmd_cache(args),
        "alternatives" => cmd_alternatives(args),
        other => Err(format!("unknown command `{other}` (try `hetsim-cli list`)")),
    }
}

/// The usage text: on stdout for `help`, on stderr after a bad command line.
const USAGE: &str = "usage: hetsim-cli <command> [options]\n\
     commands:\n\
     \u{20}  list                               list every registered workload\n\
     \u{20}  check [--all | W] [--deny warnings] static spec sanitizer (no simulation)\n\
     \u{20}  advise [--all | W] [--size S]      transfer-mode advisor: modes ranked by\n\
     \u{20}         [--deny warnings]           base-run cost, rationale + SAN-P lints\n\
     \u{20}  run W [--size S] [--mode M]        compare modes (or run one) for a workload\n\
     \u{20}  micro [--size S]                   Fig 7: the microbenchmark suite\n\
     \u{20}  apps [--size S]                    Fig 8: the application suite\n\
     \u{20}  irregular [--size S]               fault-batcher study: bfs/kmeans/pathfinder\n\
     \u{20}  counters [--size S]                Figs 9/10: gemm/lud/yolov3 deep dive\n\
     \u{20}  sensitivity --study X [--size S]   Figs 11-13 (blocks|threads|carveout)\n\
     \u{20}  figures --out DIR                  write every figure's CSV to DIR\n\
     \u{20}  interjob [--workload W] [--jobs N] Fig 14: inter-job pipeline estimate\n\
     \u{20}  trace W [--mode M] [--trace FILE]  export one run as a Chrome/Perfetto trace\n\
     \u{20}  chaos [W...] [--all] [--rates L]   fault-injection sweep: degradation curves\n\
     \u{20}  serve [--policy P] [--mix M]       GPU fleet under open-loop traffic: latency,\n\
     \u{20}        [--rate R] [--gpus N]        goodput, and per-device utilization\n\
     \u{20}        [--chaos [--intensities L]]  resilience mode: lifecycle faults, SLO\n\
     \u{20}        [--deadline MS]              deadlines, availability curves\n\
     \u{20}  cache stats|clear                  inspect or empty the on-disk result cache\n\
     options: --size tiny|small|medium|large|super|mega  --runs N  --csv\n\
     \u{20}        --cache off|on|DIR            on-disk result cache for base runs\n\
     \u{20}                      (default: HETSIM_CACHE env, else off; `on` uses\n\
     \u{20}                      target/hetsim-cache; stats print on stderr)\n\
     \u{20}        --mode standard|async|uvm|uvm_prefetch|uvm_prefetch_async\n\
     \u{20}        --trace FILE  --self-profile  record run|irregular|interjob|chaos|serve|trace\n\
     \u{20}                      (.json/.jsonl stream; .csv, text, - = stdout render after)\n\
     \u{20}        --format text|json            check report rendering\n\
     \u{20}        --verify-specs                run `check` on the involved specs first\n\
     \u{20}        --seed N --seeds N --retries N --rates R1,R2,...   chaos sweep grid\n\
     \u{20}        --policy mode_packing|uvm_spillover|chaos_failover|mode_advisor|\n\
     \u{20}                      slo_deadline|all\n\
     \u{20}        --mix poisson|bursty|diurnal  --rate R  --gpus N  --requests N   serve\n\
     \u{20}        --chaos  --intensities X1,X2,...  --deadline MS    serve resilience\n\
     \u{20}        --threads N   worker threads for sweeps (default: HETSIM_THREADS,\n\
     \u{20}                      then machine parallelism; output is identical at any N)\n\
     `run --help` lists every valid workload name.";

fn emit(table: &Table, csv: bool) -> Result<(), String> {
    if csv {
        out!("{}", table.to_csv());
    } else {
        outln!("{table}");
    }
    Ok(())
}

/// The registry of every runnable workload, grouped, one per line.
fn workload_registry() -> String {
    let mut s = String::new();
    for (group, entries) in [
        ("micro", suite::micro_names()),
        ("apps", suite::app_names()),
        ("irregular", suite::irregular_names()),
    ] {
        for e in entries {
            s.push_str(&format!(
                "  {:<12} {:<10} {}\n",
                e.name, group, e.description
            ));
        }
    }
    s
}

fn cmd_list() -> Result<(), String> {
    let mut t = Table::new(vec!["workload", "suite", "description"]);
    for e in suite::micro_names() {
        t.row(vec![e.name.into(), "micro".into(), e.description.into()]);
    }
    for e in suite::app_names() {
        t.row(vec![e.name.into(), "apps".into(), e.description.into()]);
    }
    for e in suite::irregular_names() {
        t.row(vec![
            e.name.into(),
            "irregular".into(),
            e.description.into(),
        ]);
    }
    outln!("{t}");
    Ok(())
}

/// The UVM fault-batcher statistics of one or more reports.
fn fault_stats_table(rows: &[(String, TransferMode, hetsim_runtime::RunReport)]) -> Table {
    let mut t = Table::new(vec![
        "workload",
        "mode",
        "page_faults",
        "fault_batches",
        "mean_fill",
        "underfilled",
        "refaults",
        "heuristic_pages",
        "migrated_pages",
        "fault_stall_ns",
    ]);
    for (name, mode, r) in rows {
        let u = &r.counters.uvm;
        t.row(vec![
            name.clone(),
            mode.name().to_string(),
            u.page_faults().to_string(),
            u.fault_batches().to_string(),
            format!("{:.1}", u.mean_batch_fill()),
            format!("{:.2}", u.underfilled_batch_fraction()),
            u.refaults().to_string(),
            u.pages_heuristic().to_string(),
            u.pages_migrated().to_string(),
            u.fault_stall().as_nanos().to_string(),
        ]);
    }
    t
}

/// The `check` subcommand: runs the static sanitizer over one workload or
/// (with `--all`, or no operand) the full registry, renders the report in
/// the requested format, and fails per the `--deny warnings` policy.
fn cmd_check(args: &Args) -> Result<(), String> {
    if args.help {
        outln!(
            "usage: hetsim-cli check [--all | <workload>] [--size S] [--deny warnings] \
             [--format text|json]\n\
             workloads:"
        );
        out!("{}", workload_registry());
        return Ok(());
    }
    let target = args
        .positional
        .first()
        .map(String::as_str)
        .or(args.workload.as_deref());
    let (report, checked) = match target {
        Some(name) if !args.all => {
            let w = suite::by_name(name, args.size).ok_or_else(|| {
                format!(
                    "unknown workload `{name}`; valid names:\n{}",
                    workload_registry()
                )
            })?;
            (hetsim::verify::check_program(&w), 1)
        }
        _ => (
            hetsim::verify::check_registry(args.size),
            suite::all_entries().len(),
        ),
    };
    match args.format.as_deref() {
        Some("json") => outln!("{}", report.to_json()),
        _ => outln!("{}", report.to_text()),
    }
    eprintln!(
        "checked {checked} workload{} at {}",
        if checked == 1 { "" } else { "s" },
        args.size
    );
    if report.is_clean(args.deny_warnings) {
        Ok(())
    } else {
        Err(format!(
            "check failed: {} error{}, {} warning{}{}",
            report.errors(),
            if report.errors() == 1 { "" } else { "s" },
            report.warnings(),
            if report.warnings() == 1 { "" } else { "s" },
            if args.deny_warnings {
                " (warnings denied)"
            } else {
                ""
            },
        ))
    }
}

/// The `advise` subcommand: runs the transfer-mode advisor over one
/// workload or (with `--all`, or no operand) the full registry, printing
/// each workload's per-mode base-run cost ranking with rationale plus
/// any `SAN-P*` advisory lints. JSON output is an array of
/// advice objects (one per workload); the shape is pinned by a golden
/// test. `--deny warnings` exits non-zero when any advisory fires.
fn cmd_advise(args: &Args) -> Result<(), String> {
    if args.help {
        outln!(
            "usage: hetsim-cli advise [--all | <workload>] [--size S] [--deny warnings] \
             [--format text|json]\n\
             workloads:"
        );
        out!("{}", workload_registry());
        return Ok(());
    }
    let device = hetsim_runtime::Device::a100_epyc();
    let target = args
        .positional
        .first()
        .map(String::as_str)
        .or(args.workload.as_deref());
    let advices = match target {
        Some(name) if !args.all => {
            let w = suite::by_name(name, args.size).ok_or_else(|| {
                format!(
                    "unknown workload `{name}`; valid names:\n{}",
                    workload_registry()
                )
            })?;
            vec![hetsim::verify::advise_program(&w, &device)]
        }
        _ => hetsim::verify::advise_registry(args.size, &device),
    };

    if args.format.as_deref() == Some("json") {
        let body: Vec<String> = advices.iter().map(|a| a.to_json()).collect();
        outln!("[{}]", body.join(","));
    } else {
        for advice in &advices {
            outln!(
                "{} @ {} on {} — best: {}",
                advice.workload,
                args.size,
                advice.device,
                advice.best().mode.name()
            );
            let mut t = Table::new(vec![
                "rank",
                "mode",
                "alloc_ms",
                "memcpy_ms",
                "kernel_ms",
                "total_ms",
                "rationale",
            ]);
            for (rank, p) in advice.ranked.iter().enumerate() {
                t.row(vec![
                    (rank + 1).to_string(),
                    p.mode.name().to_string(),
                    format!("{:.3}", p.alloc.as_millis_f64()),
                    format!("{:.3}", p.memcpy.as_millis_f64()),
                    format!("{:.3}", p.kernel.as_millis_f64()),
                    format!("{:.3}", p.total().as_millis_f64()),
                    p.rationale.clone(),
                ]);
            }
            emit(&t, args.csv)?;
            if !advice.report.diagnostics.is_empty() {
                outln!("{}", advice.report.to_text());
            }
        }
    }

    let warnings: usize = advices.iter().map(|a| a.report.warnings()).sum();
    let errors: usize = advices.iter().map(|a| a.report.errors()).sum();
    eprintln!(
        "advised {} workload{} at {} on {} ({} advisories)",
        advices.len(),
        if advices.len() == 1 { "" } else { "s" },
        args.size,
        device.name,
        warnings + errors,
    );
    if errors > 0 || (args.deny_warnings && warnings > 0) {
        Err(format!(
            "advise failed: {errors} error{}, {warnings} warning{}{}",
            if errors == 1 { "" } else { "s" },
            if warnings == 1 { "" } else { "s" },
            if args.deny_warnings {
                " (warnings denied)"
            } else {
                ""
            },
        ))
    } else {
        Ok(())
    }
}

/// `--verify-specs` support: sanitize the spec(s) a command is about to
/// simulate — one workload when named, else the whole registry — and fail
/// fast (deny-warnings) before any compute is spent.
fn verify_specs(args: &Args, workload: Option<&str>) -> Result<(), String> {
    if !args.verify_specs {
        return Ok(());
    }
    let report = match workload {
        Some(name) => {
            let w = suite::by_name(name, args.size)
                .ok_or_else(|| format!("unknown workload {name}"))?;
            hetsim::verify::check_program(&w)
        }
        None => hetsim::verify::check_registry(args.size),
    };
    hetsim::verify::enforce(&report, true)?;
    eprintln!(
        "verify-specs: {} clean at {}",
        workload.unwrap_or("registry"),
        args.size
    );
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    if args.help {
        outln!(
            "usage: hetsim-cli run <workload> [--size S] [--runs N] [--mode M] [--csv] [--trace FILE]\n\
             workloads:"
        );
        out!("{}", workload_registry());
        return Ok(());
    }
    let name = args
        .positional
        .first()
        .map(String::as_str)
        .or(args.workload.as_deref())
        .ok_or_else(|| {
            format!(
                "run needs a workload name; valid names:\n{}",
                workload_registry()
            )
        })?;
    let w = suite::by_name(name, args.size).ok_or_else(|| {
        format!(
            "unknown workload `{name}`; valid names:\n{}",
            workload_registry()
        )
    })?;
    verify_specs(args, Some(name))?;
    let exp = experiment(args).with_trace(trace_config(args));
    if let Some(mode_name) = args.mode.as_deref() {
        // Single-mode run: the paper's three-way breakdown plus the UVM
        // fault-batcher profile of the deterministic base run.
        let mode = parse_mode(mode_name)?;
        // With --trace, the traced run's report is the one printed: the
        // base run is the same value by determinism, so it is not
        // simulated a second time.
        let trace_out = TraceOut::from_args(args);
        let (report, trace) = match &trace_out {
            Some(out) => {
                let (report, trace) = exp.traced_run(&w, mode, out.sink()?);
                (report, Some(trace))
            }
            None => (exp.base_run(&w, mode), None),
        };
        outln!(
            "{name} @ {} [{}] ({} MB footprint)",
            args.size,
            mode.name(),
            hetsim_runtime::GpuProgram::footprint(&w) >> 20
        );
        outln!("{report}");
        if mode.uses_uvm() {
            emit(
                &fault_stats_table(&[(name.to_string(), mode, report)]),
                args.csv,
            )?;
        }
        if let (Some(out), Some(trace)) = (trace_out, trace) {
            out.finish(&trace)?;
        }
        return Ok(());
    }
    let cmp = exp.compare_modes(&w);
    outln!(
        "{name} @ {} ({} runs, {} MB footprint)",
        args.size,
        args.runs,
        hetsim_runtime::GpuProgram::footprint(&w) >> 20
    );
    emit(&cmp.to_table(), args.csv)?;
    if let Some(out) = TraceOut::from_args(args) {
        // One recording with all five modes back to back on the timeline,
        // merged in mode order: the same bytes at every --threads N.
        let (_, trace) = exp.traced_modes(&w, out.sink()?);
        out.finish(&trace)?;
    }
    Ok(())
}

/// Under `--self-profile`, two stderr lines after a figure grid: the memo
/// layer's bookkeeping overhead (wall time spent in `get_or_compute` that
/// was not spent simulating); and the grid's in-process wall time
/// (`grid`, measured around the figure computation), which leaves
/// process start-up out of a cold-vs-warm cache comparison.
fn report_memo_profile(exp: &Experiment, args: &Args, grid: std::time::Duration) {
    if !args.self_profile {
        return;
    }
    let stats = exp.memo_stats();
    eprintln!(
        "self-profile: memo overhead {:.3} ms ({} lookups, {} computes, {:.3} ms simulating)",
        stats.overhead_ns() as f64 / 1e6,
        stats.lookups,
        stats.computes,
        stats.compute_ns as f64 / 1e6,
    );
    eprintln!("self-profile: grid wall {:.3} ms", grid.as_secs_f64() * 1e3);
}

/// The irregular-access study: bfs, kmeans, and pathfinder compared
/// across all five modes, with their fault-batcher profiles under plain
/// `uvm` (where batching behaviour is undiluted by prefetch).
fn cmd_irregular(args: &Args) -> Result<(), String> {
    verify_specs(args, None)?;
    let exp = experiment(args).with_trace(trace_config(args));
    let s = figures::irregular(&exp, args.size);
    outln!(
        "irregular study (bfs/kmeans/pathfinder) @ {} ({} runs)",
        args.size,
        args.runs
    );
    emit(&s.to_table(), args.csv)?;
    emit(&Headline::from_suite(&s).to_table(), args.csv)?;
    // The memoized base runs: `figures::irregular` already simulated the
    // trio under plain uvm, so these lookups are free.
    let mut rows: Vec<(String, TransferMode, hetsim_runtime::RunReport)> = Vec::new();
    for name in figures::IRREGULAR_WORKLOADS {
        let w = suite::by_name(name, args.size)
            .ok_or_else(|| format!("irregular trio workload `{name}` missing from registry"))?;
        let r = exp.base_run(&w, TransferMode::Uvm);
        rows.push((name.to_string(), TransferMode::Uvm, r));
    }
    emit(&fault_stats_table(&rows), args.csv)?;
    if let Some(out) = TraceOut::from_args(args) {
        // The trio's plain-uvm base runs back to back as one recording:
        // each run carries its own mode/device labels, and the merge
        // order is the fixed trio order.
        let mut merged = hetsim_trace::TraceBuilder::new(trace_config(args));
        if let Some(sink) = out.sink()? {
            merged = merged.with_sink(sink);
        }
        for name in figures::IRREGULAR_WORKLOADS {
            let w = suite::by_name(name, args.size)
                .ok_or_else(|| format!("irregular trio workload `{name}` missing from registry"))?;
            let (_, t) = exp.traced_run(&w, TransferMode::Uvm, None);
            let at = merged.now();
            merged.absorb_at(&t, at);
        }
        out.finish(&merged.finish())?;
    }
    Ok(())
}

/// The `chaos` subcommand: sweep the fault injector over a workload ×
/// intensity × seed grid and print the degradation curve.
fn cmd_chaos(args: &Args) -> Result<(), String> {
    use hetsim::degradation::{ChaosSweep, ChaosSweepConfig};
    use hetsim_runtime::FaultPlan;
    if args.help {
        outln!(
            "usage: hetsim-cli chaos [<workload>...] [--all] [--size S] [--mode M]\n\
             \u{20}       [--seed N] [--seeds N] [--retries N] [--rates R1,R2,...]\n\
             \u{20}       [--format json] [--out FILE] [--trace FILE] [--csv]\n\
             default workloads: bfs kmeans pathfinder vector_seq; --all sweeps the registry\n\
             workloads:"
        );
        out!("{}", workload_registry());
        return Ok(());
    }
    let mut cfg = ChaosSweepConfig {
        size: args.size,
        seed: args.seed,
        seeds: args.seeds,
        ..ChaosSweepConfig::default()
    };
    if args.all {
        cfg.workloads = suite::all_entries()
            .iter()
            .map(|e| e.name.to_string())
            .collect();
    } else if !args.positional.is_empty() {
        cfg.workloads = args.positional.clone();
    } else if let Some(w) = args.workload.as_deref() {
        cfg.workloads = vec![w.to_string()];
    }
    for name in &cfg.workloads {
        if suite::by_name(name, cfg.size).is_none() {
            return Err(format!(
                "unknown workload `{name}`; valid names:\n{}",
                workload_registry()
            ));
        }
    }
    if let Some(rates) = &args.rates {
        cfg.rates = rates.clone();
    }
    if let Some(mode) = args.mode.as_deref() {
        cfg.mode = parse_mode(mode)?;
    }
    if let Some(r) = args.retries {
        cfg.policy.max_retries = r;
        cfg.policy.max_replays = r;
    }
    // Plan-aware verification: reject grids that contain an impossible
    // plan (e.g. a nonzero fault rate against a zero retry budget) before
    // burning any compute on the possible cells.
    for &rate in &cfg.rates {
        hetsim::verify::check_plan(&FaultPlan::at_intensity(cfg.seed, rate), &cfg.policy)
            .map_err(|e| format!("{e} (intensity {rate})"))?;
    }
    verify_specs(args, None)?;

    let exp = experiment(args);
    let sweep = ChaosSweep::run(&exp, &cfg);
    outln!(
        "chaos sweep @ {} [{}]: {} workloads x {} intensities x {} seeds",
        args.size,
        cfg.mode.name(),
        cfg.workloads.len(),
        cfg.rates.len(),
        cfg.seeds,
    );
    match args.format.as_deref() {
        Some("json") => outln!("{}", sweep.to_json()),
        _ => emit(&sweep.to_table(), args.csv)?,
    }
    if let Some(path) = args.out.as_deref() {
        std::fs::write(path, sweep.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(out) = TraceOut::from_args(args) {
        // One representative traced run at the ramp's top intensity: the
        // injected faults land as instants on the `chaos` track and every
        // recovery cost as a phase span in its component's category.
        let name = cfg
            .workloads
            .first()
            .ok_or("chaos --trace needs at least one workload")?;
        let w = suite::by_name(name, cfg.size).ok_or_else(|| format!("unknown workload {name}"))?;
        let top = cfg.rates.iter().copied().fold(0.0, f64::max);
        hetsim_trace::session::start(trace_config(args), out.sink()?);
        let armed = exp
            .clone()
            .with_chaos(FaultPlan::at_intensity(cfg.seed, top), cfg.policy);
        let outcome = armed.try_run(&w, cfg.mode);
        let trace =
            hetsim_trace::session::finish().ok_or("trace session vanished before export")?;
        out.finish(&trace)?;
        if let Err(e) = outcome {
            eprintln!("traced run at intensity {top:.2} did not recover: {e}");
        }
    }
    Ok(())
}

/// The `serve` subcommand: a GPU fleet under open-loop traffic.
///
/// One `(policy, rate)` cell prints the summary row plus the per-device
/// breakdown and may export the fleet schedule as a trace; multiple
/// policies (`--policy all`, the default) or rates (`--rates`) run the
/// full grid through the pool executor. Reports and traces are
/// byte-identical at any `--threads N` for a fixed seed.
fn cmd_serve(args: &Args) -> Result<(), String> {
    use hetsim_engine::time::Nanos;
    use hetsim_runtime::FleetFaultPlan;
    use hetsim_serve::{
        ArrivalMix, ArrivalPlan, AvailabilityCell, AvailabilityReport, AvailabilitySweep,
        ClusterTopology, Fleet, PolicyKind, ResilienceConfig, ServeConfig, ServeReport, ServeSweep,
    };
    if args.help {
        outln!(
            "usage: hetsim-cli serve [--policy P|all] [--mix M] [--rate R | --rates R1,R2,...]\n\
             \u{20}       [--gpus N] [--requests N] [--size S] [--seed N] [--format json]\n\
             \u{20}       [--out FILE] [--csv] [--trace FILE]\n\
             \u{20}       [--chaos [--intensities X1,X2,...] [--deadline MS]]\n\
             policies: {}   (default: all)\n\
             mixes:    {}   (default: poisson)\n\
             Requests draw uniformly from the full workload registry at --size.\n\
             --chaos arms the resilience layer: seeded device-lifecycle faults at each\n\
             intensity (default grid 0.0,0.5,1.0), SLO deadlines (--deadline, default\n\
             50 ms), deadline-budgeted retries/hedging, and availability curves.",
            PolicyKind::NAMES.join(" "),
            ArrivalMix::NAMES.join(" "),
        );
        return Ok(());
    }
    let policies: Vec<PolicyKind> = match args.policy.as_deref() {
        None | Some("all") => PolicyKind::ALL.to_vec(),
        Some(name) => vec![PolicyKind::by_name(name).ok_or_else(|| {
            format!(
                "unknown policy `{name}` ({}|all)",
                PolicyKind::NAMES.join("|")
            )
        })?],
    };
    let mix_name = args.mix.as_deref().unwrap_or("poisson");
    let rates: Vec<f64> = match &args.rates {
        Some(rates) => {
            if rates.iter().any(|&r| r <= 0.0) {
                return Err("serve: every --rates entry must be positive".into());
            }
            rates.clone()
        }
        None => vec![args.rate.unwrap_or(100.0)],
    };
    if !args.chaos && (args.intensities.is_some() || args.deadline_ms.is_some()) {
        return Err("serve: --intensities/--deadline require --chaos".into());
    }
    let slo_budget = match args.deadline_ms {
        Some(ms) => Nanos::from_secs_f64(ms / 1_000.0),
        None => ArrivalPlan::DEFAULT_SLO_BUDGET,
    };
    let intensities: Vec<f64> = args
        .intensities
        .clone()
        .unwrap_or_else(|| AvailabilitySweep::DEFAULT_INTENSITIES.to_vec());
    if args.chaos {
        // Surface impossible fault plans before any simulation, like the
        // chaos command does.
        for &x in &intensities {
            FleetFaultPlan::at_intensity(args.seed, x)
                .validate()
                .map_err(|e| format!("serve --chaos: invalid plan at intensity {x}: {e}"))?;
        }
    }
    let single_cell =
        policies.len() == 1 && rates.len() == 1 && (!args.chaos || intensities.len() == 1);
    let trace_out = TraceOut::from_args(args);
    if trace_out.is_some() && !single_cell {
        return Err(
            "serve: tracing needs a single cell — pick one --policy, one --rate, and (with \
             --chaos) one intensity"
                .into(),
        );
    }

    eprintln!(
        "serve @ {} [{mix_name}]: {} gpus, {} requests/cell, {} policies x {} rates{}",
        args.size,
        args.gpus,
        args.requests,
        policies.len(),
        rates.len(),
        if args.chaos {
            format!(" x {} intensities", intensities.len())
        } else {
            String::new()
        },
    );
    let fleet = Fleet::with_experiment(
        ClusterTopology::nvlink_mesh(args.gpus),
        args.size,
        experiment(args),
    );

    // The single-cell schedule export, shared by both modes.
    let export = |outcome: &hetsim_serve::FleetOutcome| -> Result<(), String> {
        let Some(out) = &trace_out else {
            return Ok(());
        };
        let cap = outcome.trace_events().max(1);
        let config = hetsim_trace::TraceConfig::default().with_capacity(cap);
        let trace = match out.sink()? {
            Some(sink) => outcome.trace_streaming(config, sink),
            None => outcome.trace(config),
        };
        out.finish(&trace)
    };

    if args.chaos {
        let report = if single_cell {
            let mix = ArrivalMix::by_name(mix_name, rates[0]).expect("mix validated at parse");
            let res = ResilienceConfig {
                plan: FleetFaultPlan::at_intensity(args.seed, intensities[0]),
                slo_budget,
                ..ResilienceConfig::default()
            };
            let outcome = fleet.serve_resilient(
                &ServeConfig {
                    policy: policies[0],
                    mix,
                    seed: args.seed,
                    requests: args.requests,
                },
                &res,
            );
            export(&outcome)?;
            AvailabilityReport {
                cells: vec![AvailabilityCell {
                    intensity: intensities[0],
                    report: outcome.report,
                }],
            }
        } else {
            AvailabilitySweep {
                policies,
                rates,
                intensities,
                mix: mix_name.to_string(),
                seed: args.seed,
                requests: args.requests,
                slo_budget,
            }
            .run(&fleet)
        };
        match args.format.as_deref() {
            Some("json") => out!("{}", report.to_json()),
            _ => {
                emit(&report.to_table(), args.csv)?;
                if let [cell] = report.cells.as_slice() {
                    emit(&cell.report.device_table(), args.csv)?;
                }
            }
        }
        if let Some(path) = args.out.as_deref() {
            std::fs::write(path, report.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        return Ok(());
    }

    let report = if single_cell {
        let mix = ArrivalMix::by_name(mix_name, rates[0]).expect("mix validated at parse");
        let outcome = fleet.serve(&ServeConfig {
            policy: policies[0],
            mix,
            seed: args.seed,
            requests: args.requests,
        });
        export(&outcome)?;
        ServeReport {
            cells: vec![outcome.report],
        }
    } else {
        let sweep = ServeSweep {
            policies,
            rates,
            mix: mix_name.to_string(),
            seed: args.seed,
            requests: args.requests,
        };
        sweep.run(&fleet)
    };

    match args.format.as_deref() {
        Some("json") => out!("{}", report.to_json()),
        _ => {
            emit(&report.to_table(), args.csv)?;
            if let [cell] = report.cells.as_slice() {
                emit(&cell.device_table(), args.csv)?;
            }
        }
    }
    if let Some(path) = args.out.as_deref() {
        std::fs::write(path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    if args.out.is_some() {
        return Err("trace writes its file with --trace FILE, not --out".into());
    }
    let name = args
        .positional
        .first()
        .map(String::as_str)
        .or(args.workload.as_deref())
        .ok_or("trace needs a workload: hetsim-cli trace <workload> [--mode M] [--trace FILE]")?;
    let w = suite::by_name(name, args.size).ok_or_else(|| format!("unknown workload {name}"))?;
    let mode = parse_mode(args.mode.as_deref().unwrap_or("standard"))?;
    let exp = Experiment::new().with_trace(trace_config(args));
    let out = TraceOut::new(args.trace.as_deref().unwrap_or("-"));
    let (report, trace) = exp.traced_run(&w, mode, out.sink()?);
    out.finish(&trace)?;
    eprintln!(
        "{name} @ {} [{}]: alloc {} memcpy {} kernel {} system {} | {} events{}",
        args.size,
        mode.name(),
        report.alloc,
        report.memcpy,
        report.kernel,
        report.system,
        trace.total_events(),
        if trace.dropped() > 0 {
            format!(" ({} dropped)", trace.dropped())
        } else {
            String::new()
        },
    );
    Ok(())
}

/// The trace configuration implied by the common flags.
fn trace_config(args: &Args) -> hetsim_trace::TraceConfig {
    let config = hetsim_trace::TraceConfig::default();
    if args.self_profile {
        config.with_self_profile()
    } else {
        config
    }
}

/// `--trace FILE`, resolved once. The extension picks the format, and
/// with it how the recording reaches the file: `.json` (Chrome) and
/// `.jsonl` stream through a sink during the run, so memory stays bounded
/// and no event is dropped; `.csv`, `-` (stdout) and anything else (text)
/// render from the finished trace.
struct TraceOut {
    path: String,
    format: TraceFormat,
}

enum TraceFormat {
    Chrome,
    Jsonl,
    Csv,
    Text,
}

impl TraceOut {
    fn new(path: &str) -> TraceOut {
        let format = if path.ends_with(".jsonl") {
            TraceFormat::Jsonl
        } else if path.ends_with(".json") {
            TraceFormat::Chrome
        } else if path.ends_with(".csv") {
            TraceFormat::Csv
        } else {
            TraceFormat::Text
        };
        TraceOut {
            path: path.to_string(),
            format,
        }
    }

    /// The `--trace` output of a recording command, if one was asked for.
    fn from_args(args: &Args) -> Option<TraceOut> {
        args.trace.as_deref().map(TraceOut::new)
    }

    /// The sink the recording streams through: the created file wrapped
    /// in its format's writer, or `None` for the rendered formats.
    fn sink(&self) -> Result<Option<Box<dyn hetsim_trace::TraceSink>>, String> {
        let open = || {
            std::fs::File::create(&self.path)
                .map(std::io::BufWriter::new)
                .map_err(|e| format!("cannot create {}: {e}", self.path))
        };
        Ok(match self.format {
            TraceFormat::Chrome => Some(Box::new(hetsim_trace::ChromeSink::new(open()?))),
            TraceFormat::Jsonl => Some(Box::new(hetsim_trace::JsonlSink::new(open()?))),
            TraceFormat::Csv | TraceFormat::Text => None,
        })
    }

    /// Completes the export of `trace`, recorded through [`TraceOut::sink`].
    /// A streamed file is checked and reported: a sink that failed
    /// mid-run left it truncated, and trusting it silently is worse than
    /// failing the command. A rendered format is written now.
    fn finish(&self, trace: &hetsim_trace::Trace) -> Result<(), String> {
        let path = &self.path;
        warn_dropped(trace);
        let contents = match self.format {
            TraceFormat::Chrome | TraceFormat::Jsonl => {
                if let Some(err) = trace.stream_error() {
                    return Err(format!(
                        "trace stream to {path} failed mid-run: {err} \
                         (recording fell back to the in-memory ring; the file is incomplete)"
                    ));
                }
                let format = match self.format {
                    TraceFormat::Chrome => "chrome",
                    _ => "jsonl",
                };
                let events = trace.total_events();
                eprintln!("streamed {events} events to {path} ({format})");
                return Ok(());
            }
            TraceFormat::Csv => trace.to_csv(),
            TraceFormat::Text => trace.to_text(),
        };
        if path == "-" {
            out!("{contents}");
            return Ok(());
        }
        // Status note on stderr: stdout may be carrying a machine-readable
        // report (e.g. `chaos --format json --trace FILE`) that must stay
        // byte-identical regardless of where the trace file landed.
        std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
        Ok(())
    }
}

/// Loud stderr warning when a recording dropped events (ring buffer full
/// with no sink attached) — silently truncated traces get trusted, so
/// every CLI trace path routes through this.
fn warn_dropped(trace: &hetsim_trace::Trace) {
    if trace.dropped() > 0 {
        eprintln!(
            "warning: trace dropped {} events (ring buffer full); \
             raise the capacity or stream to a .json/.jsonl file",
            trace.dropped()
        );
    }
}

fn parse_mode(name: &str) -> Result<TransferMode, String> {
    TransferMode::ALL
        .into_iter()
        .find(|m| m.name() == name)
        .ok_or_else(|| {
            let names = TransferMode::ALL.map(|m| m.name()).join("|");
            format!("unknown mode `{name}` ({names})")
        })
}

fn cmd_micro(args: &Args) -> Result<(), String> {
    verify_specs(args, None)?;
    let exp = experiment(args);
    let t = std::time::Instant::now();
    let s = figures::fig7(&exp, args.size);
    let grid = t.elapsed();
    outln!("Fig 7: microbenchmarks @ {}", args.size);
    emit(&s.to_table(), args.csv)?;
    emit(&Headline::from_suite(&s).to_table(), args.csv)?;
    report_memo_profile(&exp, args, grid);
    Ok(())
}

fn cmd_apps(args: &Args) -> Result<(), String> {
    verify_specs(args, None)?;
    let exp = experiment(args);
    let t = std::time::Instant::now();
    let s = figures::fig8_at(&exp, args.size);
    let grid = t.elapsed();
    outln!("Fig 8: applications @ {}", args.size);
    emit(&s.to_table(), args.csv)?;
    emit(&Headline::from_suite(&s).to_table(), args.csv)?;
    emit(&Section6::from_suite(&s).to_table(), args.csv)?;
    report_memo_profile(&exp, args, grid);
    Ok(())
}

fn cmd_counters(args: &Args) -> Result<(), String> {
    let exp = experiment(args);
    let c = figures::fig9_fig10(&exp, args.size);
    outln!("Figs 9/10: counters @ {}", args.size);
    emit(&c.to_table(), args.csv)?;
    Ok(())
}

fn cmd_sensitivity(args: &Args) -> Result<(), String> {
    let exp = experiment(args);
    let study = args.study.as_deref().ok_or("sensitivity needs --study")?;
    let sweep = match study {
        "blocks" => figures::fig11(&exp, args.size),
        "threads" => figures::fig12(&exp, args.size),
        "carveout" => figures::fig13(&exp, args.size),
        other => return Err(format!("unknown study {other} (blocks|threads|carveout)")),
    };
    outln!("sensitivity ({study}) @ {}", args.size);
    emit(&sweep.to_table(), args.csv)?;
    Ok(())
}

fn cmd_interjob(args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().unwrap_or("vector_seq");
    let w = suite::by_name(name, args.size).ok_or_else(|| format!("unknown workload {name}"))?;
    let exp = experiment(args);
    let trace_out = TraceOut::from_args(args);
    if let Some(out) = &trace_out {
        hetsim_trace::session::start(trace_config(args), out.sink()?);
    }
    let report = exp.base_run(&w, TransferMode::UvmPrefetchAsync);
    let pipeline = InterJobPipeline::homogeneous(JobStages::from_report(&report), args.jobs);
    if let Some(out) = &trace_out {
        // Append the pipelined batch schedule after the measured job, so
        // the export shows both the single run and the Fig 14 overlap.
        let (_, piped) = pipeline.traces();
        hetsim_trace::session::with(|b| {
            let at = b.now();
            b.absorb_at(&piped, at);
        });
        let trace =
            hetsim_trace::session::finish().ok_or("trace session vanished before export")?;
        out.finish(&trace)?;
    }
    outln!(
        "Fig 14: inter-job pipeline, {name} @ {} x {} jobs",
        args.size,
        args.jobs
    );
    emit(&pipeline.to_table(), args.csv)?;
    Ok(())
}

fn cmd_alternatives(args: &Args) -> Result<(), String> {
    let name = args
        .workload
        .as_deref()
        .ok_or("alternatives needs --workload")?;
    let w = suite::by_name(name, args.size).ok_or_else(|| format!("unknown workload {name}"))?;
    let runner = hetsim_runtime::Runner::new(hetsim_runtime::Device::a100_epyc());
    outln!("transfer-hiding alternatives: {name} @ {}", args.size);
    emit(
        &hetsim::extensions::alternatives_table(&runner, &w),
        args.csv,
    )?;
    Ok(())
}

fn cmd_figures(args: &Args) -> Result<(), String> {
    verify_specs(args, None)?;
    let out = args.out.as_deref().ok_or("figures needs --out DIR")?;
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let exp = experiment(args);

    let mut files: HashMap<&str, String> = HashMap::new();
    eprintln!("fig4/fig5 ...");
    let grid = figures::fig4(&exp, &InputSize::ALL);
    files.insert("fig04_distributions.csv", grid.to_table().to_csv());
    files.insert(
        "fig05_stability.csv",
        figures::fig5(&grid, &InputSize::ALL).to_csv(),
    );
    eprintln!("fig6 ...");
    files.insert(
        "fig06_mega_breakdown.csv",
        figures::fig6(&exp).to_table().to_csv(),
    );
    eprintln!("fig7 ...");
    let micro_large = figures::fig7(&exp, InputSize::Large);
    files.insert("fig07_micro_large.csv", micro_large.to_table().to_csv());
    files.insert(
        "fig07_micro_large.svg",
        suite_chart("Fig 7: microbenchmarks @ large", &micro_large),
    );
    files.insert(
        "fig07_micro_super.csv",
        figures::fig7(&exp, InputSize::Super).to_table().to_csv(),
    );
    eprintln!("fig8 ...");
    let apps = figures::fig8(&exp);
    files.insert("fig08_apps_super.csv", apps.to_table().to_csv());
    files.insert(
        "fig08_apps_super.svg",
        suite_chart("Fig 8: applications @ super", &apps),
    );
    files.insert(
        "headline_apps.csv",
        Headline::from_suite(&apps).to_table().to_csv(),
    );
    files.insert(
        "section6_shares.csv",
        Section6::from_suite(&apps).to_table().to_csv(),
    );
    eprintln!("fig9/fig10 ...");
    files.insert(
        "fig09_fig10_counters.csv",
        figures::fig9_fig10(&exp, InputSize::Large)
            .to_table()
            .to_csv(),
    );
    eprintln!("fig11..fig13 ...");
    files.insert(
        "fig11_blocks.csv",
        figures::fig11(&exp, InputSize::Large).to_table().to_csv(),
    );
    files.insert(
        "fig12_threads.csv",
        figures::fig12(&exp, InputSize::Large).to_table().to_csv(),
    );
    files.insert(
        "fig13_carveout.csv",
        figures::fig13(&exp, InputSize::Large).to_table().to_csv(),
    );

    for (name, contents) in files {
        let path = format!("{out}/{name}");
        std::fs::write(&path, contents).map_err(|e| format!("cannot write {path}: {e}"))?;
        outln!("wrote {path}");
    }
    Ok(())
}

/// Renders a suite comparison as the paper's grouped-bar figure style.
fn suite_chart(title: &str, suite: &figures::SuiteComparison) -> String {
    let mut chart = BarChart::new(title, "time normalized to standard");
    let names: Vec<String> = suite
        .comparisons()
        .iter()
        .map(|c| c.workload().to_string())
        .collect();
    chart.categories(&names);
    for mode in TransferMode::ALL {
        let values: Vec<f64> = suite
            .comparisons()
            .iter()
            .map(|c| c.normalized_total(mode))
            .collect();
        chart.series(mode.name(), &values);
    }
    chart.render()
}
