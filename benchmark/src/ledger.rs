//! The metric catalogue and the per-layer ledger derived from a traced
//! pass.
//!
//! A layer's host time is the self time of the spans named after it. The
//! one exception is `runtime.run_base`, which covers three layers at once:
//! its `probe.execute` child re-times the kernel executor on the same
//! kernels, and the rest of the base run is runtime composition on the
//! explicit-copy modes and UVM fault replay on the managed modes. Whatever
//! no layer accounts for (loop overhead in the benchmark, workload
//! construction inside figure producers) is `unattributed_share`, so the
//! shares always add up to the traced pass.
//!
//! Each layer's speed is a rate — work units per host time — so a layer a
//! workload bypasses reads zero work, not a made-up time.

use crate::spans::Spans;
use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports with tracing off.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "throughput",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

/// A per-layer metric and the end-to-end metric it should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Which end-to-end metric on which workload it should move.
    pub moves: &'static str,
}

/// A layer's speed: higher is better.
const fn rate(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
        moves,
    }
}

/// A share, size or work count: lower is better.
const fn cost(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
        moves,
    }
}

/// Work counts: these must repeat exactly between runs of one commit.
const COUNT: &str = "nothing: a work count, identical on every run of a commit";

/// The per-layer metrics every workload reports from its traced pass
/// (zero where the workload does not touch the layer).
pub const PER_LAYER: [PerLayer; 37] = [
    rate(
        "gpu.l1_accesses_per_us",
        "1/us",
        "throughput on paper_grid (executor about 60% of a cold cell), less on uvm_mega",
    ),
    cost("gpu.l1_accesses", "count", COUNT),
    cost(
        "gpu.execute_share",
        "ratio",
        "throughput on paper_grid and uvm_mega",
    ),
    rate("runtime.cells_per_s", "1/s", "throughput on paper_grid"),
    cost("runtime.compose_share", "ratio", "throughput on paper_grid"),
    rate(
        "uvm.range_pages_per_ms",
        "1/ms",
        "throughput on uvm_mega (19 range-walk workloads), less on paper_grid",
    ),
    rate(
        "uvm.sequence_pages_per_ms",
        "1/ms",
        "throughput on uvm_mega (bfs, kmeans, pathfinder), less on paper_grid",
    ),
    cost("uvm.pages_moved", "count", COUNT),
    cost("uvm.fault_batches", "count", COUNT),
    cost(
        "uvm.share",
        "ratio",
        "throughput on uvm_mega, less on paper_grid",
    ),
    rate(
        "core.cells_per_ms",
        "1/ms",
        "throughput on grid_replay, a little on paper_grid and uvm_mega",
    ),
    rate("core.memo_hits_per_us", "1/us", "throughput on grid_replay"),
    cost("core.share", "ratio", "throughput on grid_replay"),
    rate("cache.loads_per_ms", "1/ms", "throughput on grid_replay"),
    rate("cache.stores_per_ms", "1/ms", "setup_s on grid_replay"),
    cost(
        "cache.entry_bytes",
        "bytes",
        "throughput and setup_s on grid_replay",
    ),
    cost("cache.warm_share", "ratio", "throughput on grid_replay"),
    rate(
        "serve.arrivals_per_us",
        "1/us",
        "throughput on serve_sweep and serve_chaos",
    ),
    rate(
        "serve.scheduled_per_ms.r400",
        "1/ms",
        "throughput on serve_sweep",
    ),
    rate(
        "serve.scheduled_per_ms.r1600",
        "1/ms",
        "throughput on serve_sweep",
    ),
    rate(
        "serve.scheduled_per_ms.r6400",
        "1/ms",
        "throughput on serve_sweep",
    ),
    rate(
        "serve.scheduled_per_ms.mode_packing",
        "1/ms",
        "throughput on serve_sweep",
    ),
    rate(
        "serve.scheduled_per_ms.uvm_spillover",
        "1/ms",
        "throughput on serve_sweep",
    ),
    rate(
        "serve.scheduled_per_ms.chaos_failover",
        "1/ms",
        "throughput on serve_sweep",
    ),
    rate(
        "serve.scheduled_per_ms.mode_advisor",
        "1/ms",
        "throughput on serve_sweep",
    ),
    rate(
        "serve.scheduled_per_ms.slo_deadline",
        "1/ms",
        "throughput on serve_sweep",
    ),
    rate(
        "serve.resilient_per_ms.i050",
        "1/ms",
        "throughput on serve_chaos",
    ),
    rate(
        "serve.resilient_per_ms.i100",
        "1/ms",
        "throughput on serve_chaos",
    ),
    rate(
        "serve.reports_per_ms",
        "1/ms",
        "throughput on serve_sweep and serve_chaos",
    ),
    cost("serve.requests", "count", COUNT),
    cost(
        "serve.share",
        "ratio",
        "throughput on serve_sweep and serve_chaos",
    ),
    rate("trace.events_per_ms", "1/ms", "throughput on serve_chaos"),
    cost(
        "trace.bytes_per_event",
        "bytes",
        "throughput on serve_chaos",
    ),
    cost("trace.events", "count", COUNT),
    cost("trace.share", "ratio", "throughput on serve_chaos"),
    cost(
        "unattributed_share",
        "ratio",
        "nothing: host time no layer accounts for, kept at or below 0.10",
    ),
    cost(
        "tracing_overhead",
        "ratio",
        "nothing: the traced pass over the estimated untraced pass, minus 1",
    ),
];

/// Serve-cell parameters as they appear in metric names.
const RATES: [(f64, &str); 3] = [
    (400.0, "serve.scheduled_per_ms.r400"),
    (1600.0, "serve.scheduled_per_ms.r1600"),
    (6400.0, "serve.scheduled_per_ms.r6400"),
];
const POLICIES: [&str; 5] = [
    "serve.scheduled_per_ms.mode_packing",
    "serve.scheduled_per_ms.uvm_spillover",
    "serve.scheduled_per_ms.chaos_failover",
    "serve.scheduled_per_ms.mode_advisor",
    "serve.scheduled_per_ms.slo_deadline",
];
const INTENSITIES: [(f64, &str); 2] = [
    (0.5, "serve.resilient_per_ms.i050"),
    (1.0, "serve.resilient_per_ms.i100"),
];

/// The per-layer values of one traced pass.
#[derive(Debug, Clone)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// One metric's value.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`].
    pub fn get(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }
}

fn ratio(x: f64, of: f64) -> f64 {
    if of > 0.0 {
        x / of
    } else {
        0.0
    }
}

/// A running total of work units and the host time they took.
#[derive(Debug, Clone, Copy, Default)]
struct Work {
    ns: f64,
    n: f64,
}

impl Work {
    fn add(&mut self, ns: f64, n: f64) {
        self.ns += ns;
        self.n += n;
    }

    /// Units per `per_ns` nanoseconds of host time.
    fn rate(self, per_ns: f64) -> f64 {
        ratio(self.n * per_ns, self.ns)
    }
}

/// Derives every [`PER_LAYER`] metric from a traced pass recorded under a
/// `pass` root span. `untraced_pass_ns` is the untraced pass time the
/// end-to-end `throughput` is taken from.
pub(crate) fn derive(spans: &Spans, untraced_pass_ns: f64) -> Ledger {
    const US: f64 = 1e3;
    const MS: f64 = 1e6;
    let all = spans.spans();
    let selfs = spans.self_times();
    let work = spans.work_ns("pass") as f64;
    let probe_children = |i: usize, name: &str| -> f64 {
        all.iter()
            .filter(|c| c.parent == Some(i) && c.name == name)
            .map(|c| c.dur() as f64)
            .sum()
    };

    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut gpu, mut compose, mut range, mut seq): (f64, Work, Work, Work) = Default::default();
    let (mut exec, mut memo, mut agg, mut load, mut store): (Work, Work, Work, Work, Work) =
        Default::default();
    let (mut arrivals, mut report, mut export): (Work, Work, Work) = Default::default();
    let (mut by_rate, mut by_policy, mut by_intensity) = (
        [Work::default(); 3],
        [Work::default(); 5],
        [Work::default(); 2],
    );
    let (mut batches, mut entry_bytes, mut requests, mut trace_bytes) = (0.0, 0.0, 0.0, 0.0);

    for (i, s) in all.iter().enumerate() {
        let own = selfs[i] as f64;
        let dur = s.dur() as f64;
        match s.name {
            "runtime.run_base" => {
                let g = probe_children(i, "probe.execute").min(own);
                gpu += g;
                if s.attr("uvm") > 0.0 {
                    let walk: &mut Work = if s.attr("seq") > 0.0 {
                        &mut seq
                    } else {
                        &mut range
                    };
                    walk.add(own - g, s.attr("pages"));
                    batches += s.attr("batches");
                } else {
                    compose.add(own - g, 1.0);
                }
            }
            "probe.execute" => exec.add(dur, s.attr("l1")),
            "probe.memo_hit" => memo.add(dur, s.attr("cells")),
            "core.aggregate" => agg.add(own, s.attr("cells")),
            "cache.load" => load.add(own, 1.0),
            "probe.cache_store" => {
                store.add(dur, s.attr("entries"));
                entry_bytes += s.attr("bytes");
            }
            "serve.arrivals" => arrivals.add(own, s.attr("requests")),
            "probe.arrivals" => arrivals.add(dur, s.attr("requests")),
            "serve.schedule" => {
                let n = s.attr("requests");
                requests += n;
                if let Some(k) = RATES.iter().position(|&(r, _)| r == s.attr("rate")) {
                    by_rate[k].add(own, n);
                }
                by_policy[s.attr("policy") as usize].add(own, n);
            }
            "serve.resilient" => {
                let n = s.attr("requests");
                requests += n;
                let generate = probe_children(i, "probe.arrivals");
                if let Some(k) = INTENSITIES
                    .iter()
                    .position(|&(x, _)| x == s.attr("intensity"))
                {
                    by_intensity[k].add(own - generate, n);
                }
            }
            "serve.report" => report.add(own, s.attr("cells")),
            "trace.export" => {
                export.add(own, s.attr("events"));
                trace_bytes += s.attr("bytes");
            }
            _ => {}
        }
        if !s.is_probe() && s.name != "runtime.run_base" {
            if let Some(l) = s.layer() {
                *layers.entry(l).or_default() += own;
            }
        }
    }

    let layer_ns = |l: &str| layers.get(l).copied().unwrap_or(0.0);
    let share = |ns: f64| ratio(ns, work);
    let uvm = range.ns + seq.ns;
    let attributed = gpu
        + compose.ns
        + uvm
        + ["core", "cache", "serve", "trace"]
            .iter()
            .map(|l| layer_ns(l))
            .sum::<f64>();

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("gpu.l1_accesses_per_us", exec.rate(US)),
        ("gpu.l1_accesses", exec.n),
        ("gpu.execute_share", share(gpu)),
        ("runtime.cells_per_s", compose.rate(1e9)),
        ("runtime.compose_share", share(compose.ns)),
        ("uvm.range_pages_per_ms", range.rate(MS)),
        ("uvm.sequence_pages_per_ms", seq.rate(MS)),
        ("uvm.pages_moved", range.n + seq.n),
        ("uvm.fault_batches", batches),
        ("uvm.share", share(uvm)),
        ("core.cells_per_ms", agg.rate(MS)),
        ("core.memo_hits_per_us", memo.rate(US)),
        ("core.share", share(layer_ns("core"))),
        ("cache.loads_per_ms", load.rate(MS)),
        ("cache.stores_per_ms", store.rate(MS)),
        ("cache.entry_bytes", ratio(entry_bytes, store.n)),
        ("cache.warm_share", share(layer_ns("cache"))),
        ("serve.arrivals_per_us", arrivals.rate(US)),
        ("serve.reports_per_ms", report.rate(MS)),
        ("serve.requests", requests),
        ("serve.share", share(layer_ns("serve"))),
        ("trace.events_per_ms", export.rate(MS)),
        ("trace.bytes_per_event", ratio(trace_bytes, export.n)),
        ("trace.events", export.n),
        ("trace.share", share(layer_ns("trace"))),
        ("unattributed_share", 1.0 - share(attributed)),
        ("tracing_overhead", ratio(work, untraced_pass_ns) - 1.0),
    ]);
    for (k, &(_, name)) in RATES.iter().enumerate() {
        values.insert(name, by_rate[k].rate(MS));
    }
    for (k, name) in POLICIES.into_iter().enumerate() {
        values.insert(name, by_policy[k].rate(MS));
    }
    for (k, &(_, name)) in INTENSITIES.iter().enumerate() {
        values.insert(name, by_intensity[k].rate(MS));
    }
    debug_assert!(PER_LAYER.iter().all(|d| values.contains_key(d.name)));
    Ledger { values }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_serve::PolicyKind;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn policy_metrics_follow_the_policy_order() {
        for (name, policy) in POLICIES.iter().zip(PolicyKind::NAMES) {
            assert!(name.ends_with(policy), "{name} vs {policy}");
        }
    }

    #[test]
    fn layers_and_unattributed_add_up_to_the_pass() {
        let mut s = Spans::new();
        s.scope("pass", "", 0, |s| {
            let (id, ()) = s.scope("runtime.run_base", "c", 0, |s| {
                s.scope("probe.execute", "c", 0, |_| {});
            });
            s.attr(id, "uvm", 1.0);
            s.attr(id, "pages", 10.0);
            s.scope("core.aggregate", "", 0, |_| {});
            s.scope("probe.memo_hit", "", 0, |_| {});
        });
        let l = derive(&s, 1.0);
        let shares: f64 = [
            "gpu.execute_share",
            "runtime.compose_share",
            "uvm.share",
            "core.share",
            "cache.warm_share",
            "serve.share",
            "trace.share",
            "unattributed_share",
        ]
        .iter()
        .map(|n| l.get(n))
        .sum();
        assert!((shares - 1.0).abs() < 1e-9, "{shares}");
        assert_eq!(l.get("uvm.pages_moved"), 10.0);
        assert_eq!(l.get("serve.requests"), 0.0);
    }
}
