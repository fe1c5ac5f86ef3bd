//! The CLI's contracts, checked on the real binary. Each test runs
//! `hetsim-cli` in its own scratch directory with `HETSIM_THREADS` set and
//! `HETSIM_CACHE` removed. The library tests named in each doc comment pin
//! the same contracts in-process; these pin the plumbing from flags to bytes.
//! After an intended change to the shape of `check` or `advise --format
//! json`, or to what `serve` prints, rewrite `scripts/golden/` with
//! `HETSIM_BLESS=1 cargo test -p hetsim-cli --test cli`.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// A per-test working directory under the system temp dir, removed on drop.
struct Dir(PathBuf);

impl Dir {
    fn new(tag: &str) -> Dir {
        let dir = std::env::temp_dir().join(format!("hetsim-cli-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        Dir(dir)
    }

    /// `hetsim-cli ARGS` (split on spaces) at `threads` worker threads.
    fn command(&self, threads: usize, args: &str) -> Command {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_hetsim-cli"));
        cmd.args(args.split_whitespace()).current_dir(&self.0);
        cmd.env("HETSIM_THREADS", threads.to_string());
        cmd.env_remove("HETSIM_CACHE");
        cmd
    }

    /// Runs a command that must succeed and returns its stdout.
    fn ok(&self, threads: usize, args: &str) -> String {
        let (code, stdout, stderr) = output(&mut self.command(threads, args));
        assert_eq!(code, Some(0), "hetsim-cli {args} failed:\n{stderr}");
        stdout
    }

    /// Runs `args` at 1 and 4 threads, `{t}` in it standing for the count,
    /// and asserts that stdout and the `--trace` file, if any, are
    /// byte-identical. Returns the 1-thread stdout and trace.
    fn same_at_1_and_4(&self, args: &str) -> (String, String) {
        let [out1, out4] = [1, 4].map(|t| self.ok(t, &args.replace("{t}", &t.to_string())));
        assert!(out1 == out4, "stdout differs at 1 and 4 threads: {args}");
        let trace = args.split_once("--trace ").map_or("", |(_, rest)| rest);
        if trace.is_empty() {
            return (out1, String::new());
        }
        let [t1, t4] = ["1", "4"].map(|t| self.read(&trace.replace("{t}", t)));
        assert!(t1 == t4, "trace differs at 1 and 4 threads: {args}");
        (out1, t1)
    }

    fn read(&self, name: &str) -> String {
        fs::read_to_string(self.0.join(name)).expect(name)
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Runs a command: its exit code, stdout and stderr.
fn output(cmd: &mut Command) -> (Option<i32>, String, String) {
    let out = cmd.output().expect("spawn hetsim-cli");
    let text = |bytes| String::from_utf8(bytes).expect("UTF-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// The sanitizer passes the registry with warnings denied and the advisor
/// runs clean over it, in both renderings; their JSON keeps the key paths
/// and value kinds of `scripts/golden/*.schema` (values move freely with
/// the cost model); and `advise --deny warnings` fails on an advisory
/// (library: `tests/sanitizer_registry.rs`, `tests/advisor_validation.rs`).
#[test]
fn check_and_advise_run_clean_and_match_the_schema_goldens() {
    let dir = Dir::new("schema");
    dir.ok(4, "check --all --deny warnings");
    let check = dir.ok(4, "check --all --deny warnings --format json");
    assert_schema_matches_golden("check", &check);
    dir.ok(4, "advise --all --size tiny");
    let advise = dir.ok(4, "advise --all --size tiny --format json");
    assert_schema_matches_golden("advise", &advise);
    let (code, ..) = output(&mut dir.command(4, "advise vector_seq --size tiny --deny warnings"));
    assert_ne!(code, Some(0), "advise --deny warnings passed");
}

/// Two `trace` exports of one run are byte-identical JSON, and `micro`,
/// which records nothing, rejects `--trace` and writes no file.
#[test]
fn trace_export_is_byte_identical_and_micro_rejects_trace() {
    let dir = Dir::new("trace");
    let trace = "trace vector_seq --mode uvm --size small --trace";
    dir.ok(4, &format!("{trace} t.json"));
    dir.ok(4, &format!("{trace} t2.json"));
    assert!(dir.read("t.json") == dir.read("t2.json"));
    json_schema(&dir.read("t.json"));
    let (code, ..) = output(&mut dir.command(4, "micro --size tiny --trace micro.json"));
    assert_ne!(code, Some(0), "micro accepted --trace");
    assert!(!dir.0.join("micro.json").exists());
}

/// Streamed `.json` and `.jsonl` traces are byte-identical at 1 and 4
/// threads (streamed == buffered: `tests/streaming_determinism.rs`).
#[test]
fn streamed_run_traces_are_identical_at_1_and_4_threads() {
    let dir = Dir::new("stream");
    let run = "run vector_seq --size small --runs 2 --trace";
    dir.same_at_1_and_4(&format!("{run} t{{t}}.json"));
    let (_, jsonl) = dir.same_at_1_and_4(&format!("{run} t{{t}}.jsonl"));
    assert!(jsonl.contains(r#""type":"summary""#));
    assert!(jsonl.contains(r#""dropped":0"#));
}

/// A fixed-seed chaos sweep gives byte-identical reports and traces at 1
/// and 4 threads, and two seeds differ (library: `tests/chaos_props.rs`).
#[test]
fn chaos_reports_and_traces_are_identical_at_1_and_4_threads() {
    let dir = Dir::new("chaos");
    let [seed7, seed42] = [7, 42].map(|seed| {
        let grid = format!("--seed {seed} --seeds 4 --rates 0,0.5,1 --format json");
        dir.same_at_1_and_4(&format!("chaos --size tiny {grid} --trace c{{t}}.json"))
    });
    assert!(seed7.0 != seed42.0, "different seeds, identical reports");
}

/// A plan that can never recover (rate 0.5, no retries) is rejected up
/// front, with the diagnostic.
#[test]
fn chaos_rejects_an_impossible_plan_up_front() {
    let dir = Dir::new("chaos-plan");
    let (code, stdout, stderr) =
        output(&mut dir.command(4, "chaos --size tiny --retries 0 --rates 0.5"));
    assert_ne!(code, Some(0), "impossible chaos plan accepted");
    assert!((stdout + &stderr).contains("retry budget"));
}

/// Every policy's report and streamed fleet trace are byte-identical at 1
/// and 4 threads, and two policies differ (library: `tests/serve_layer.rs`).
#[test]
fn serve_reports_and_traces_are_identical_at_1_and_4_threads() {
    let dir = Dir::new("serve");
    let cell = "--mix bursty --rate 400 --seed 11 --gpus 4 --requests 120 --size tiny";
    let policies = "mode_packing uvm_spillover chaos_failover mode_advisor slo_deadline";
    let mut reports = Vec::new();
    for p in policies.split(' ') {
        let serve = format!("serve --policy {p} {cell} --format json --trace s{{t}}.jsonl");
        let (report, trace) = dir.same_at_1_and_4(&serve);
        assert!(trace.contains(r#""dropped":0"#), "{p}");
        reports.push(report);
    }
    assert!(reports[0] != reports[1], "two policies, identical reports");
}

/// An availability sweep and a resilient cell's fleet trace are
/// byte-identical at 1 and 4 threads, the trace carries the lifecycle
/// instants, and intensity 0 reproduces plain serve exactly (library:
/// `tests/serve_resilience.rs`).
#[test]
fn serve_resilience_is_thread_invariant_and_separable() {
    let dir = Dir::new("resilience");
    let fleet = "--gpus 3 --requests 80 --size tiny --format json";
    let sweep = "--policy all --mix poisson --rates 200,400 --intensities 0,0.5,1 --seed 11";
    dir.same_at_1_and_4(&format!("serve --chaos {sweep} {fleet}"));
    let cell = "--policy chaos_failover --mix poisson --rate 400 --intensities 1 --seed 7";
    let traced = format!("serve --chaos {cell} {fleet} --trace r{{t}}.jsonl");
    assert!(dir.same_at_1_and_4(&traced).1.contains("quarantine[gpu"));
    let cell = "--policy slo_deadline --mix poisson --rate 400 --seed 11";
    let plain = dir.ok(4, &format!("serve {cell} {fleet}"));
    let chaos = dir.ok(4, &format!("serve --chaos --intensities 0 {cell} {fleet}"));
    // Both print their one cell on the third line; the resilient cell
    // wraps the plain report byte for byte.
    let [plain, chaos] = [plain, chaos].map(|json| json.lines().nth(2).unwrap().to_string());
    let wrapped = format!(r#"{{"intensity": 0.0000, "report": {}}}"#, plain.trim());
    assert_eq!(chaos.trim(), wrapped);
}

/// `serve` prints exactly the values in `scripts/golden/serve_*`: a
/// fault-free `(policy × rate)` sweep, one streamed schedule per policy,
/// an availability sweep, and one streamed resilient schedule (library:
/// `tests/serve_layer.rs`, `tests/serve_resilience.rs`).
#[test]
fn serve_output_matches_the_goldens() {
    let dir = Dir::new("serve-golden");
    let fleet = "--gpus 4 --size small --format json";
    let sweep = format!("serve --policy all --rates 400,1600,6400 --requests 400 {fleet}");
    assert_matches_golden("serve_sweep.json", &dir.ok(1, &sweep));
    let policies = "mode_packing uvm_spillover chaos_failover mode_advisor slo_deadline";
    for p in policies.split(' ') {
        let cell = format!("serve --policy {p} --rate 1600 --requests 150 {fleet}");
        dir.ok(1, &format!("{cell} --trace {p}.jsonl"));
        assert_matches_golden(
            &format!("serve_trace_{p}.jsonl"),
            &dir.read(&format!("{p}.jsonl")),
        );
    }
    let chaos = "serve --chaos --policy all --rates 400,1600 --intensities 0,0.5,1";
    let chaos = format!("{chaos} --requests 200 {fleet}");
    assert_matches_golden("serve_chaos.json", &dir.ok(1, &chaos));
    let cell = "serve --chaos --policy slo_deadline --rate 1600 --intensities 1";
    dir.ok(1, &format!("{cell} --requests 150 {fleet} --trace r.jsonl"));
    assert_matches_golden("serve_chaos_trace.jsonl", &dir.read("r.jsonl"));
}

/// The number after `label` on the first line of `text` that has it.
fn count_after(text: &str, label: &str) -> Option<u64> {
    let rest = text.lines().find_map(|l| l.split_once(label))?.1;
    let mut digits = rest.trim_start().split(|c: char| !c.is_ascii_digit());
    digits.next()?.parse().ok()
}

/// A warm rerun reproduces the cold stdout with zero misses; `cache stats`
/// and `cache clear` see, then remove, what was stored; `HETSIM_CACHE`
/// enables the cache and `--cache off` overrides it. The cold run keeps
/// `--self-profile` exercised (library: `tests/cache_layer.rs`).
#[test]
fn warm_cache_rerun_matches_cold_and_cache_admin_cycles() {
    let dir = Dir::new("cache");
    let micro = "micro --size tiny --runs 2";
    let cold = output(&mut dir.command(4, &format!("{micro} --cache store --self-profile")));
    let warm = output(&mut dir.command(4, &format!("{micro} --cache store")));
    assert_eq!((cold.0, warm.0), (Some(0), Some(0)));
    assert!(cold.1 == warm.1, "warm rerun differs from cold");
    let counts = |err: &str| [count_after(err, "cache: "), count_after(err, "hits, ")];
    let ([cold_hits, cold_misses], [warm_hits, warm_misses]) = (counts(&cold.2), counts(&warm.2));
    assert!(cold_hits == Some(0) && cold_misses > Some(0), "{}", cold.2);
    assert!(warm_hits > Some(0) && warm_misses == Some(0), "{}", warm.2);
    assert!(cold.2.contains("self-profile: grid wall"));
    let admin = |op: &str| dir.ok(4, &format!("cache {op} --cache store"));
    assert!(count_after(&admin("stats"), "entries:") > Some(0));
    assert!(count_after(&admin("clear"), "removed") > Some(0));
    assert_eq!(count_after(&admin("stats"), "entries:"), Some(0));
    for (flag, cached) in [("", true), ("--cache off", false)] {
        let mut cmd = dir.command(4, &format!("{micro} {flag}"));
        let (code, _, stderr) = output(cmd.env("HETSIM_CACHE", "store"));
        assert_eq!(code, Some(0), "HETSIM_CACHE=store {flag}: {stderr}");
        let reported = stderr.lines().any(|l| l.starts_with("cache:"));
        assert!(reported == cached, "{flag}: {stderr}");
    }
}

/// `run --mode M --trace F` prints the traced run's report, which is the
/// base run's report byte for byte.
#[test]
fn run_mode_prints_the_same_report_with_and_without_trace() {
    let dir = Dir::new("run-trace");
    let plain = dir.ok(4, "run vector_seq --size tiny --mode uvm");
    let traced = dir.ok(4, "run vector_seq --size tiny --mode uvm --trace t.json");
    assert_eq!(plain, traced);
    json_schema(&dir.read("t.json"));
}

/// A closed stdout (`| head -c 800`) is the command's error: `error: ...`
/// and exit 1, never a panic.
#[test]
fn closed_stdout_is_an_error_not_a_panic() {
    let dir = Dir::new("stdout");
    // The read end is gone before the child starts, so its first write fails.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let mut cmd = dir.command(4, "advise vector_seq --size tiny --format json");
    let (code, _, stderr) = output(cmd.stdout(writer));
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("error: cannot write to stdout"), "{stderr}");
}

/// Every manifest takes the workspace lints (`unsafe_code = "forbid"`,
/// `missing_docs`); cargo says nothing when one leaves them out.
#[test]
fn every_crate_takes_the_workspace_lints() {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let crates = fs::read_dir(root.join("crates")).expect("crates/");
    let crates = crates.map(|entry| entry.expect("crate dir").path().join("Cargo.toml"));
    for manifest in crates.chain([root.join("Cargo.toml")]) {
        let text = fs::read_to_string(&manifest).expect("read manifest");
        let takes_them = text.contains("\n[lints]\nworkspace = true\n");
        assert!(takes_them, "{manifest:?}");
    }
}

/// The schema of a JSON document: every key path with its coarse value
/// kind, as `path: kind`. Array elements share the path `parent[]`, and
/// numbers are one `number` kind, so a field that happens to be integral
/// in one cell does not flap the schema. Panics at the first byte that is
/// not JSON.
fn json_schema(text: &str) -> BTreeSet<String> {
    let (mut schema, mut at) = (BTreeSet::new(), 0);
    json_value(text.as_bytes(), &mut at, "", &mut schema);
    assert!(text[at..].trim().is_empty(), "trailing data at byte {at}");
    schema
}

fn skip_ws(s: &[u8], at: &mut usize) {
    while s[*at].is_ascii_whitespace() {
        *at += 1;
    }
}

/// Moves past one string, checking its escapes, and returns its text.
fn json_string<'a>(s: &'a [u8], at: &mut usize) -> &'a [u8] {
    assert_eq!(s[*at], b'"', "expected a string at byte {at}");
    let start = *at + 1;
    *at = start;
    while s[*at] != b'"' {
        let escape = s[*at] == b'\\';
        assert!(!escape || b"\"\\/bfnrtu".contains(&s[*at + 1]), "byte {at}");
        *at += 1 + usize::from(escape);
    }
    *at += 1;
    &s[start..*at - 1]
}

/// Reads the value at `at`, adding its schema lines to `out`. `path` is
/// `.key` for a member of the root object and empty for the root.
fn json_value(s: &[u8], at: &mut usize, path: &str, out: &mut BTreeSet<String>) {
    skip_ws(s, at);
    let start = *at;
    let shown = path.strip_prefix('.').unwrap_or(path);
    let shown = if shown.is_empty() { "(root)" } else { shown };
    let kind = match s[start] {
        open @ (b'{' | b'[') => {
            let close = open + 2; // `}` and `]` follow `{` and `[` by two
            let empty = [": empty object", "[]: empty array"][usize::from(open == b'[')];
            *at += 1;
            skip_ws(s, at);
            if s[*at] == close {
                *at += 1;
                out.insert(format!("{shown}{empty}"));
                return;
            }
            loop {
                let mut child = format!("{path}[]");
                if open == b'{' {
                    skip_ws(s, at);
                    let key = String::from_utf8_lossy(json_string(s, at)).into_owned();
                    child = format!("{path}.{key}");
                    skip_ws(s, at);
                    assert_eq!(s[*at], b':', "expected `:` at byte {at}");
                    *at += 1;
                }
                json_value(s, at, &child, out);
                skip_ws(s, at);
                *at += 1;
                if s[*at - 1] != b',' {
                    assert_eq!(s[*at - 1], close, "unexpected byte at {}", *at - 1);
                    return;
                }
            }
        }
        b'"' => {
            json_string(s, at);
            "string"
        }
        _ => {
            while s
                .get(*at)
                .is_some_and(|b| b.is_ascii_alphanumeric() || b"+-.".contains(b))
            {
                *at += 1;
            }
            match std::str::from_utf8(&s[start..*at]).unwrap() {
                "true" | "false" => "bool",
                "null" => "null",
                n if n.parse::<f64>().is_ok() => "number",
                n => panic!("not a JSON value at byte {start}: {n:?}"),
            }
        }
    };
    out.insert(format!("{shown}: {kind}"));
}

/// Where the goldens live.
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts/golden");

/// `text` equals `scripts/golden/NAME` byte for byte; on a mismatch the
/// panic shows the first line that differs.
fn assert_matches_golden(name: &str, text: &str) {
    let golden = format!("{GOLDEN}/{name}");
    if std::env::var_os("HETSIM_BLESS").is_some() {
        return fs::write(&golden, text).expect("write golden");
    }
    let want = fs::read_to_string(&golden).expect("read golden");
    if want == text {
        return;
    }
    let (mut want_lines, mut got_lines) = (want.lines(), text.lines());
    for line in 1.. {
        let (w, g) = (want_lines.next(), got_lines.next());
        assert!(
            w == g,
            "{name} differs from its golden at line {line} (bless: HETSIM_BLESS=1)\n\
             golden: {}\n   got: {}",
            w.unwrap_or("<end of file>"),
            g.unwrap_or("<end of file>")
        );
        if w.is_none() {
            break;
        }
    }
    panic!("{name} differs from its golden only in line endings");
}

fn assert_schema_matches_golden(name: &str, json: &str) {
    let schema = json_schema(json);
    let golden = format!("{GOLDEN}/{name}.schema");
    if std::env::var_os("HETSIM_BLESS").is_some() {
        let text: String = schema.iter().map(|p| format!("{p}\n")).collect();
        return fs::write(&golden, text).expect("write golden");
    }
    let golden = fs::read_to_string(&golden).expect("read golden");
    let want: BTreeSet<String> = golden.lines().map(str::to_string).collect();
    let missing: Vec<_> = want.difference(&schema).collect();
    let new: Vec<_> = schema.difference(&want).collect();
    let drift = format!("{name}: missing {missing:#?}, new {new:#?} (bless: HETSIM_BLESS=1)");
    assert!(missing.is_empty() && new.is_empty(), "{drift}");
}
