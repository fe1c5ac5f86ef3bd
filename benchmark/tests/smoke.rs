//! The benchmark end to end at smoke sizes: every metric `BENCHMARK.json`
//! names is printed with its unit, the seed-42 digests match the committed
//! goldens, and work counts repeat exactly between two runs.

use hetsim_benchmark::json::{self, Value};
use hetsim_benchmark::ledger::{END_TO_END, PER_LAYER};
use hetsim_benchmark::WORKLOADS;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// The work counts that must not move between runs of one commit.
const COUNTS: [&str; 4] = [
    "gpu.l1_accesses",
    "uvm.pages_moved",
    "serve.requests",
    "trace.events",
];

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// The `metric` lines of a run: `(workload, metric) -> (value, unit)`.
type Printed = BTreeMap<(String, String), (f64, String)>;

/// Runs the whole smoke benchmark; returns its `metric` lines and its
/// result document.
fn smoke_run(tag: &str) -> (Printed, Value) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = dir.join("result.json");
    let run = Command::new(env!("CARGO_BIN_EXE_hetsim-bench"))
        .args(["--smoke", "--seed", "42", "--out"])
        .arg(&out)
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "smoke run failed: {}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    let mut metrics = BTreeMap::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", w, name, value, unit] = f[..] {
            let v: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("bad value in `{line}`"));
            metrics.insert((w.to_string(), name.to_string()), (v, unit.to_string()));
        }
    }
    let doc =
        json::parse(&std::fs::read_to_string(&out).expect("result file")).expect("result parses");
    (metrics, doc)
}

#[test]
fn spec_matches_the_code_catalogue() {
    let spec = spec();
    let workloads: Vec<String> = names(&spec, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e = names(&spec, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, (name, unit)) in END_TO_END.iter().zip(&e2e) {
        assert_eq!((m.name, m.unit), (name.as_str(), unit.as_str()));
    }
    let bounds: Vec<f64> = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end")
        .iter()
        .map(|m| m.get("bound").and_then(Value::as_f64).expect("bound"))
        .collect();
    for (m, b) in END_TO_END.iter().zip(bounds) {
        assert_eq!(m.bound, b, "{}", m.name);
    }
    let layers = names(&spec, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (m, (name, unit)) in PER_LAYER.iter().zip(&layers) {
        assert_eq!((m.name, m.unit), (name.as_str(), unit.as_str()));
    }
}

#[test]
fn smoke_prints_every_metric_matches_goldens_and_repeats_counts() {
    let spec = spec();
    let (first, doc) = smoke_run("a");
    for w in WORKLOADS {
        for (name, unit) in names(&spec, "end_to_end")
            .into_iter()
            .chain(names(&spec, "per_layer"))
        {
            let got = first
                .get(&(w.to_string(), name.clone()))
                .unwrap_or_else(|| panic!("{w} did not print {name}"));
            assert_eq!(got.1, unit, "{w} {name}");
        }
        let entry = doc
            .get("workloads")
            .and_then(|ws| ws.get(w))
            .unwrap_or_else(|| panic!("{w} missing from the result"));
        assert_eq!(
            entry.get("golden").and_then(Value::as_str),
            Some("match"),
            "{w}: smoke digest differs from golden/digests.txt"
        );
        assert_eq!(entry.get("failed").and_then(Value::as_f64), Some(0.0));
    }
    let digest = |w: &str| {
        doc.get("workloads")
            .and_then(|ws| ws.get(w)?.get("digest")?.as_str().map(str::to_string))
    };
    assert_eq!(
        digest("paper_grid"),
        digest("grid_replay"),
        "figures replayed from the disk cache must print what the cold grid printed"
    );

    let (second, _) = smoke_run("b");
    for w in WORKLOADS {
        for c in COUNTS {
            let key = (w.to_string(), c.to_string());
            assert_eq!(first[&key].0, second[&key].0, "{w} {c} moved between runs");
        }
    }
}
