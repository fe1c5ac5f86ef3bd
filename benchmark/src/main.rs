//! `hetsim-bench`: runs the benchmark, or compares two commits' results.
//!
//! ```text
//! hetsim-bench [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!              [--threads N] [--smoke] [--out FILE] [--bless]
//! hetsim-bench compare [--spec BENCHMARK.json] PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]
//! ```
//!
//! With `--workload` it runs that workload in this process and ends its
//! output with one JSON line: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! Without it, it runs every workload in a child process of its own
//! (traced unless `--trace 0`), merges their results into `--out`
//! (default `target/bench/result.json`) and, with `--bless` at seed 42,
//! rewrites the golden digests.

use hetsim_benchmark::harness::{self, Options};
use hetsim_benchmark::{compare, json, WORKLOADS};
use std::path::PathBuf;
use std::process::{exit, Command};

const USAGE: &str = "usage: hetsim-bench [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                    [--threads N] [--smoke] [--out FILE] [--bless]
       hetsim-bench compare [--spec BENCHMARK.json] PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]
workloads: paper_grid grid_replay uvm_mega serve_sweep serve_chaos";

/// Seconds of passes per workload when none are given.
const DEFAULT_SECONDS: f64 = 20.0;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    exit(2);
}

struct Cli {
    workload: Option<String>,
    opts: Options,
    trace_given: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Cli {
    let mut cli = Cli {
        workload: None,
        opts: Options {
            seed: 42,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            threads: 1,
            bless: false,
        },
        trace_given: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value();
                if !WORKLOADS.contains(&w) {
                    die(&format!("unknown workload `{w}`"));
                }
                cli.workload = Some(w.to_string());
            }
            "--seed" => {
                let v = value();
                cli.opts.seed = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("`{v}` is not a seed")));
            }
            "--seconds" => {
                let v = value();
                cli.opts.seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 && s <= 3600.0 => s,
                    _ => die(&format!("`{v}` is not a number of seconds in (0, 3600]")),
                };
            }
            "--trace" => {
                cli.opts.trace = match value() {
                    "0" => false,
                    "1" => true,
                    v => die(&format!("--trace takes 0 or 1, not `{v}`")),
                };
                cli.trace_given = true;
            }
            "--threads" => {
                let v = value();
                let nproc = harness::nproc();
                cli.opts.threads = match v.parse::<usize>() {
                    Ok(n) if (1..=nproc).contains(&n) => n,
                    _ => die(&format!(
                        "--threads must be between 1 and nproc ({nproc}), not `{v}`"
                    )),
                };
            }
            "--smoke" => cli.opts.smoke = true,
            "--bless" => cli.opts.bless = true,
            "--out" => cli.out = Some(PathBuf::from(value())),
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    cli
}

fn write_file(path: &PathBuf, text: &str) {
    let written = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    if let Err(e) = written {
        eprintln!("error: cannot write {}: {e}", path.display());
        exit(1);
    }
}

/// One workload in this process.
fn run_one(workload: &str, opts: &Options, out: Option<&PathBuf>) -> ! {
    hetsim::pool::set_threads(Some(opts.threads));
    let result = harness::run_named(workload, opts).expect("workload validated at parse");
    for line in result.metric_lines() {
        println!("{line}");
    }
    if let Some(d) = result.digest {
        eprintln!(
            "{workload}: digest {d:016x} (golden: {}), {} passes, {} of {} operations failed",
            result.golden.name(),
            result.pass_s.len(),
            result.failed,
            result.attempted
        );
    }
    if let Some(path) = out {
        let doc = harness::result_document(opts, &[(workload.to_string(), result.to_json())]);
        write_file(path, &doc);
    }
    println!("{}", result.summary_line(opts.trace));
    exit(if result.correct() { 0 } else { 1 })
}

/// Every workload, each in a child process.
fn run_all(opts: &Options, out: Option<&PathBuf>) -> ! {
    if opts.bless && opts.seed != 42 {
        die("--bless records seed-42 digests; drop --seed or pass --seed 42");
    }
    let exe = std::env::current_exe().unwrap_or_else(|e| die(&format!("cannot find myself: {e}")));
    let mut entries = Vec::new();
    let mut digests = Vec::new();
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let child_out = harness::work_dir().join(format!("{w}.json"));
        let _ = std::fs::remove_file(&child_out);
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .args(["--threads", &opts.threads.to_string()])
            .arg("--out")
            .arg(&child_out);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        if opts.bless {
            cmd.arg("--bless");
        }
        let status = cmd
            .status()
            .unwrap_or_else(|e| die(&format!("cannot start {w}: {e}")));
        let entry = std::fs::read_to_string(&child_out)
            .ok()
            .and_then(|t| json::parse(&t).ok())
            .and_then(|doc| doc.get("workloads")?.get(w).cloned());
        let Some(entry) = entry.filter(|_| status.success()) else {
            eprintln!("error: workload {w} failed ({status})");
            all_correct = false;
            continue;
        };
        let num = |k: &str| entry.get(k).and_then(json::Value::as_f64).unwrap_or(0.0);
        attempted += num("attempted");
        failed += num("failed");
        for section in ["end_to_end", "per_layer"] {
            for (name, m) in entry
                .get(section)
                .and_then(json::Value::as_object)
                .unwrap_or(&[])
            {
                let v = m
                    .get("value")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(json::Value::as_str).unwrap_or("");
                metrics.push(format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(&format!("{w}.{name}")),
                    json::number(v),
                    json::string(unit)
                ));
            }
        }
        if let Some(d) = entry.get("digest").and_then(json::Value::as_str) {
            digests.push(format!("{w} {d}"));
        }
        entries.push((w.to_string(), entry.to_json()));
    }
    let path = out
        .cloned()
        .unwrap_or_else(|| harness::work_dir().join("result.json"));
    write_file(&path, &harness::result_document(opts, &entries));
    eprintln!("wrote {}", path.display());
    if opts.bless && all_correct {
        bless(opts.smoke, &digests);
    }
    let correct = all_correct && failed == 0.0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted.max(1.0),
        failed,
        metrics.join(", ")
    );
    exit(if correct { 0 } else { 1 })
}

/// Rewrites this mode's lines of the golden file with the run's
/// `<workload> <digest>` pairs.
fn bless(smoke: bool, digests: &[String]) {
    let mode = if smoke { "smoke" } else { "full" };
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden/digests.txt"));
    let old = std::fs::read_to_string(&path).unwrap_or_default();
    let mut lines: Vec<String> = old
        .lines()
        .filter(|l| !l.starts_with(&format!("{mode} ")))
        .map(str::to_string)
        .collect();
    lines.extend(digests.iter().map(|d| format!("{mode} {d}")));
    write_file(&path, &(lines.join("\n") + "\n"));
    eprintln!("blessed {mode} digests into {}", path.display());
}

fn run_compare(args: &[String]) -> ! {
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            spec = it
                .next()
                .map(PathBuf::from)
                .unwrap_or_else(|| die("--spec needs a path"));
        } else {
            files.push(PathBuf::from(a));
        }
    }
    if files.is_empty() || files.len() % 2 != 0 {
        die("compare takes PARENT CHANGE result files in pairs");
    }
    let load = |p: &PathBuf| {
        let text = std::fs::read_to_string(p)
            .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", p.display())));
        json::parse(&text).unwrap_or_else(|e| die(&format!("{}: {e}", p.display())))
    };
    let bounds = compare::bounds(&load(&spec)).unwrap_or_else(|e| die(&e));
    let docs: Vec<json::Value> = files.iter().map(load).collect();
    let pairs: Vec<(json::Value, json::Value)> = docs
        .chunks(2)
        .map(|pc| (pc[0].clone(), pc[1].clone()))
        .collect();
    let (table, worse) = compare::compare(&bounds, &pairs);
    print!("{table}");
    exit(if worse { 1 } else { 0 })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..]);
    }
    let mut cli = parse(&args);
    match cli.workload.take() {
        Some(w) => run_one(&w, &cli.opts, cli.out.as_ref()),
        None => {
            if !cli.trace_given {
                cli.opts.trace = true;
            }
            run_all(&cli.opts, cli.out.as_ref())
        }
    }
}
