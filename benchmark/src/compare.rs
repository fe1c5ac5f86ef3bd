//! `hetsim-bench compare`: a parent commit against a change, from result
//! files of alternating runs.
//!
//! For each workload and end-to-end metric it prints each side's median
//! and quartiles, the change in the median, and a verdict against the
//! metric's bound from `BENCHMARK.json`:
//!
//! * `WORSE` — the change's median is worse than the parent's by more than
//!   the bound;
//! * `unresolved` — the parent's own spread (quartile distance over
//!   median) exceeds the bound, and not every change run beats every parent
//!   run, so the runs cannot tell;
//! * `better` — the spread exceeds the bound but every change run beats
//!   every parent run;
//! * `gain` — over at least ten pairs, the change wins at least nine in
//!   ten and the medians differ by more than the parent's quartile
//!   distance;
//! * `same` — none of the above.
//!
//! Per-layer metrics have no bound; their rows show the medians only.

use crate::json::Value;
use crate::stats;

/// Pairs needed before a change can be called a gain.
const MIN_PAIRS_FOR_GAIN: usize = 10;

/// One metric the spec bounds.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `higher` or `lower`.
    pub better: String,
    /// Allowed worsening as a share of the parent's median.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds out of a parsed `BENCHMARK.json`.
///
/// # Errors
///
/// Names the first entry that lacks a field.
pub fn bounds(spec: &Value) -> Result<Vec<Bound>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks `{k}`"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name must be a string")?
                    .into(),
                better: field("better")?
                    .as_str()
                    .ok_or("better must be a string")?
                    .into(),
                bound: field("bound")?.as_f64().ok_or("bound must be a number")?,
            })
        })
        .collect()
}

/// `value` of `workloads.<w>.<section>.<metric>` in a result document.
fn value(doc: &Value, workload: &str, section: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn workload_names(docs: &[Value]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for d in docs {
        for (name, _) in d.get("workloads").and_then(Value::as_object).unwrap_or(&[]) {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
    }
    names
}

fn per_layer_names(docs: &[Value], workload: &str) -> Vec<String> {
    docs.iter()
        .find_map(|d| {
            d.get("workloads")?
                .get(workload)?
                .get("per_layer")?
                .as_object()
                .map(|m| m.iter().map(|(k, _)| k.clone()).collect())
        })
        .unwrap_or_default()
}

fn side(xs: &[f64]) -> String {
    let (q1, m, q3) = stats::quartiles(xs);
    format!("{m:.6} [{q1:.6}, {q3:.6}]")
}

/// The comparison table, and whether any metric got worse beyond its
/// bound. `pairs` are `(parent, change)` result documents.
pub fn compare(bounds: &[Bound], pairs: &[(Value, Value)]) -> (String, bool) {
    let parents: Vec<Value> = pairs.iter().map(|(p, _)| p.clone()).collect();
    let mut out = format!(
        "{} pairs; medians with [q1, q3]\n{:<12} {:<44} {:<36} {:<36} {:>9} {:>6} {:>6}  verdict\n",
        pairs.len(),
        "workload",
        "metric",
        "parent",
        "change",
        "change%",
        "bound%",
        "wins"
    );
    let mut any_worse = false;
    for w in workload_names(&parents) {
        for b in bounds {
            let both: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(p, c)| {
                    Some((
                        value(p, &w, "end_to_end", &b.name)?,
                        value(c, &w, "end_to_end", &b.name)?,
                    ))
                })
                .collect();
            if both.is_empty() {
                continue;
            }
            let higher = b.better == "higher";
            let better = |c: f64, p: f64| if higher { c > p } else { c < p };
            let ps: Vec<f64> = both.iter().map(|&(p, _)| p).collect();
            let cs: Vec<f64> = both.iter().map(|&(_, c)| c).collect();
            let (pq1, pm, pq3) = stats::quartiles(&ps);
            let cm = stats::median(&cs);
            let change = if pm != 0.0 { (cm - pm) / pm } else { 0.0 };
            let worse_by = if higher { -change } else { change };
            let spread = if pm != 0.0 {
                (pq3 - pq1) / pm.abs()
            } else {
                0.0
            };
            let wins = both.iter().filter(|&&(p, c)| better(c, p)).count();
            let all_better = cs.iter().all(|&c| ps.iter().all(|&p| better(c, p)));
            let verdict = if spread > b.bound {
                if all_better {
                    "better"
                } else {
                    "unresolved"
                }
            } else if worse_by > b.bound {
                any_worse = true;
                "WORSE"
            } else if both.len() >= MIN_PAIRS_FOR_GAIN
                && wins * 10 >= both.len() * 9
                && (cm - pm).abs() > pq3 - pq1
            {
                "gain"
            } else {
                "same"
            };
            out.push_str(&format!(
                "{:<12} {:<44} {:<36} {:<36} {:>+8.2}% {:>5.1}% {:>3}/{:<2}  {verdict}\n",
                w,
                b.name,
                side(&ps),
                side(&cs),
                change * 100.0,
                b.bound * 100.0,
                wins,
                both.len()
            ));
        }
        for name in per_layer_names(&parents, &w) {
            let both: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(p, c)| {
                    Some((
                        value(p, &w, "per_layer", &name)?,
                        value(c, &w, "per_layer", &name)?,
                    ))
                })
                .collect();
            let ps: Vec<f64> = both.iter().map(|&(p, _)| p).collect();
            let cs: Vec<f64> = both.iter().map(|&(_, c)| c).collect();
            let (pm, cm) = (stats::median(&ps), stats::median(&cs));
            let change = if pm != 0.0 {
                (cm - pm) / pm * 100.0
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<12} {:<44} {:<36} {:<36} {:>+8.2}% {:>6} {:>6}  -\n",
                w,
                name,
                side(&ps),
                side(&cs),
                change,
                "-",
                "-"
            ));
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn doc(tput: f64) -> Value {
        parse(&format!(
            "{{\"workloads\": {{\"w\": {{\"end_to_end\": {{\"throughput\": {{\"value\": {tput}}}}}, \
             \"per_layer\": {{}}}}}}}}"
        ))
        .expect("valid")
    }

    fn tput_bound() -> Vec<Bound> {
        vec![Bound {
            name: "throughput".into(),
            better: "higher".into(),
            bound: 0.1,
        }]
    }

    #[test]
    fn flags_a_worsening_beyond_the_bound() {
        let pairs: Vec<(Value, Value)> = (0..10)
            .map(|i| (doc(100.0 + f64::from(i) * 0.1), doc(80.0)))
            .collect();
        let (table, worse) = compare(&tput_bound(), &pairs);
        assert!(worse, "{table}");
        assert!(table.contains("WORSE"));
    }

    #[test]
    fn calls_wide_spreads_unresolved_and_steady_wins_gains() {
        let noisy: Vec<(Value, Value)> = (0..10)
            .map(|i| (doc(if i % 2 == 0 { 50.0 } else { 150.0 }), doc(100.0)))
            .collect();
        let (table, worse) = compare(&tput_bound(), &noisy);
        assert!(!worse);
        assert!(table.contains("unresolved"), "{table}");

        let steady: Vec<(Value, Value)> = (0..10)
            .map(|i| (doc(100.0 + f64::from(i) * 0.01), doc(105.0)))
            .collect();
        let (table, _) = compare(&tput_bound(), &steady);
        assert!(table.contains("gain"), "{table}");
    }

    #[test]
    fn reads_bounds_from_the_spec() {
        let spec = parse(
            "{\"end_to_end\": [{\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \
             \"bound\": 0.25}]}",
        )
        .expect("valid");
        let b = bounds(&spec).expect("complete");
        assert_eq!(b[0].name, "setup_s");
        assert_eq!(b[0].bound, 0.25);
        assert!(bounds(&parse("{}").expect("valid")).is_err());
    }
}
