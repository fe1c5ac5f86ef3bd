//! Degradation-curve sweeps: how gracefully each configuration sheds
//! performance as injected fault pressure rises.
//!
//! The chaos layer (`hetsim-chaos`) injects transient transfer failures,
//! kernel corruption, pinned-allocation failures, and UVM fault-storm
//! pressure at plan-controlled rates; recovery (retry, replay, fallback,
//! mode degradation) is paid in sim time. A [`ChaosSweep`] runs a grid of
//! `workloads × intensities × seeds` through [`Experiment::try_run`] and
//! reduces each cell to a point on the degradation curve: mean slowdown
//! over the fault-free baseline, how many runs degraded off the requested
//! mode, and how many exhausted their recovery budget entirely.
//!
//! Cells are simulated through [`pool::run`], and every reduction happens
//! in fixed grid-and-seed order after the join — so the rendered table and
//! JSON are byte-identical at any `HETSIM_THREADS`, which the CLI test
//! `chaos_reports_and_traces_are_identical_at_1_and_4_threads` asserts.

use crate::experiment::Experiment;
use crate::pool;
use hetsim_counters::report::Table;
use hetsim_runtime::{FaultPlan, GpuProgram, RecoveryPolicy, TransferMode};
use hetsim_trace::sink::escape;
use hetsim_workloads::{by_name, InputSize};

/// The grid a [`ChaosSweep`] runs.
#[derive(Debug, Clone)]
pub struct ChaosSweepConfig {
    /// Registry names of the workloads to sweep.
    pub workloads: Vec<String>,
    /// Input size every workload is built at.
    pub size: InputSize,
    /// The transfer mode every run requests (degradation may leave it).
    pub mode: TransferMode,
    /// Fault intensities, the `x` of [`FaultPlan::at_intensity`].
    pub rates: Vec<f64>,
    /// Seeds per cell (`seed`, `seed + 1`, …).
    pub seeds: u64,
    /// Base seed.
    pub seed: u64,
    /// Recovery policy shared by every run.
    pub policy: RecoveryPolicy,
}

impl Default for ChaosSweepConfig {
    /// The irregular trio plus one regular microbenchmark, at the mode
    /// with the longest degradation ladder, across a light-to-heavy
    /// intensity ramp.
    fn default() -> Self {
        ChaosSweepConfig {
            workloads: ["bfs", "kmeans", "pathfinder", "vector_seq"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            size: InputSize::Small,
            mode: TransferMode::UvmPrefetchAsync,
            rates: vec![0.0, 0.1, 0.25, 0.5, 0.75, 1.0],
            seeds: 8,
            seed: 42,
            policy: RecoveryPolicy::default(),
        }
    }
}

/// One `(workload, intensity)` point of the degradation curve, reduced
/// over the configured seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    /// Workload registry name.
    pub workload: String,
    /// Fault intensity of this cell.
    pub rate: f64,
    /// Runs that completed on the requested mode.
    pub ok: u64,
    /// Runs that completed but degraded to a lower mode.
    pub degraded: u64,
    /// Runs whose faults outlasted the recovery budget (typed errors).
    pub failed: u64,
    /// Mean `total / fault-free total` over completed runs (1.0 when no
    /// run completed).
    pub mean_slowdown: f64,
    /// Mean injected faults per completed run.
    pub mean_injected: f64,
    /// Mean share of the run total spent on recovery, over completed runs.
    pub mean_overhead_share: f64,
    /// Rendered messages of the failed runs, in seed order.
    pub errors: Vec<String>,
}

/// A completed degradation sweep: the grid plus its reduced cells, in
/// workload-major, intensity-minor order.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSweep {
    /// The requested transfer mode.
    pub mode: TransferMode,
    /// Base seed.
    pub seed: u64,
    /// Seeds per cell.
    pub seeds: u64,
    /// The intensity ramp.
    pub rates: Vec<f64>,
    /// The reduced cells.
    pub cells: Vec<ChaosCell>,
}

impl ChaosSweep {
    /// Runs the sweep. Unknown workload names are skipped (the CLI
    /// validates names before calling).
    ///
    /// # Panics
    ///
    /// Panics if a resolved workload panics inside the runtime, which
    /// [`Experiment::try_run`] prevents for registry workloads.
    pub fn run(exp: &Experiment, cfg: &ChaosSweepConfig) -> ChaosSweep {
        let programs: Vec<_> = cfg
            .workloads
            .iter()
            .filter_map(|n| by_name(n, cfg.size))
            .collect();
        // Fault-free baselines first (memoized, shared across cells).
        let bases: Vec<f64> = programs
            .iter()
            .map(|p| exp.base_run(p, cfg.mode).total().as_nanos() as f64)
            .collect();

        let grid: Vec<(usize, f64)> = programs
            .iter()
            .enumerate()
            .flat_map(|(wi, _)| cfg.rates.iter().map(move |&r| (wi, r)))
            .collect();
        let cells = pool::run(grid.len(), |gi| {
            let (wi, rate) = grid[gi];
            let program = &programs[wi];
            let base = bases[wi];
            let mut cell = ChaosCell {
                workload: program.name().to_string(),
                rate,
                ok: 0,
                degraded: 0,
                failed: 0,
                mean_slowdown: 0.0,
                mean_injected: 0.0,
                mean_overhead_share: 0.0,
                errors: Vec::new(),
            };
            for s in 0..cfg.seeds {
                let plan = FaultPlan::at_intensity(cfg.seed + s, rate);
                let armed = exp.clone().with_chaos(plan, cfg.policy);
                match armed.try_run(program, cfg.mode) {
                    Ok(out) => {
                        if out.degraded() {
                            cell.degraded += 1;
                        } else {
                            cell.ok += 1;
                        }
                        let total = out.report.total().as_nanos() as f64;
                        cell.mean_slowdown += total / base;
                        cell.mean_injected += out.chaos.injected() as f64;
                        cell.mean_overhead_share +=
                            out.chaos.overhead.total().as_nanos() as f64 / total;
                    }
                    Err(e) => {
                        cell.failed += 1;
                        cell.errors.push(e.to_string());
                    }
                }
            }
            let completed = (cell.ok + cell.degraded) as f64;
            if completed > 0.0 {
                cell.mean_slowdown /= completed;
                cell.mean_injected /= completed;
                cell.mean_overhead_share /= completed;
            } else {
                cell.mean_slowdown = 1.0;
            }
            cell
        });

        ChaosSweep {
            mode: cfg.mode,
            seed: cfg.seed,
            seeds: cfg.seeds,
            rates: cfg.rates.clone(),
            cells,
        }
    }

    /// The workload names present in the sweep, in grid order.
    pub fn workloads(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for c in &self.cells {
            if names.last() != Some(&c.workload.as_str()) {
                names.push(&c.workload);
            }
        }
        names
    }

    /// The degradation curve as a printable table, one row per cell.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec![
            "workload",
            "intensity",
            "ok",
            "degraded",
            "failed",
            "slowdown",
            "faults/run",
            "recovery share",
        ]);
        for c in &self.cells {
            t.row(vec![
                c.workload.clone(),
                format!("{:.2}", c.rate),
                c.ok.to_string(),
                c.degraded.to_string(),
                c.failed.to_string(),
                format!("{:.3}x", c.mean_slowdown),
                format!("{:.1}", c.mean_injected),
                format!("{:.1}%", c.mean_overhead_share * 100.0),
            ]);
        }
        t
    }

    /// The sweep as a self-contained JSON document (hand-rolled; the
    /// crate has no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"seeds_per_cell\": {},\n", self.seeds));
        let rates: Vec<String> = self.rates.iter().map(|r| format!("{r:.4}")).collect();
        out.push_str(&format!("  \"rates\": [{}],\n", rates.join(", ")));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let errors: Vec<String> = c
                .errors
                .iter()
                .map(|e| format!("\"{}\"", escape(e)))
                .collect();
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"rate\": {:.4}, \"ok\": {}, \"degraded\": {}, \
                 \"failed\": {}, \"mean_slowdown\": {:.6}, \"mean_injected\": {:.3}, \
                 \"mean_overhead_share\": {:.6}, \"errors\": [{}]}}{}\n",
                escape(&c.workload),
                c.rate,
                c.ok,
                c.degraded,
                c.failed,
                c.mean_slowdown,
                c.mean_injected,
                c.mean_overhead_share,
                errors.join(", "),
                if i + 1 < self.cells.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ChaosSweepConfig {
        ChaosSweepConfig {
            workloads: vec!["vector_seq".into(), "bfs".into()],
            size: InputSize::Tiny,
            rates: vec![0.0, 0.5],
            seeds: 2,
            ..ChaosSweepConfig::default()
        }
    }

    #[test]
    fn zero_intensity_cells_are_clean() {
        let exp = Experiment::new().with_runs(1);
        let sweep = ChaosSweep::run(&exp, &tiny_cfg());
        assert_eq!(sweep.cells.len(), 4);
        for c in sweep.cells.iter().filter(|c| c.rate == 0.0) {
            assert_eq!(c.ok, 2, "{c:?}");
            assert_eq!(c.failed, 0);
            assert_eq!(c.degraded, 0);
            assert!((c.mean_slowdown - 1.0).abs() < 1e-12, "{c:?}");
            assert_eq!(c.mean_injected, 0.0);
        }
    }

    #[test]
    fn pressure_only_raises_the_curve() {
        let exp = Experiment::new().with_runs(1);
        let sweep = ChaosSweep::run(&exp, &tiny_cfg());
        for pair in sweep.cells.chunks(2) {
            // Completed runs at higher intensity are never faster than
            // the fault-free baseline.
            assert!(pair[1].mean_slowdown >= pair[0].mean_slowdown - 1e-12);
        }
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let cfg = tiny_cfg();
        let run = || {
            let exp = Experiment::new().with_runs(1);
            ChaosSweep::run(&exp, &cfg)
        };
        let serial = pool::with_threads(1, run);
        let parallel = pool::with_threads(4, run);
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.to_table().to_csv(), parallel.to_table().to_csv());
    }

    #[test]
    fn json_escapes_quotes() {
        let sweep = ChaosSweep {
            mode: TransferMode::Uvm,
            seed: 1,
            seeds: 1,
            rates: vec![1.0],
            cells: vec![ChaosCell {
                workload: "a\"b\\c".into(),
                rate: 1.0,
                ok: 0,
                degraded: 0,
                failed: 1,
                mean_slowdown: 1.0,
                mean_injected: 0.0,
                mean_overhead_share: 0.0,
                errors: vec!["x\"y\\z".into()],
            }],
        };
        let json = sweep.to_json();
        assert!(json.contains("\"workload\": \"a\\\"b\\\\c\""), "{json}");
        assert!(json.contains("\"errors\": [\"x\\\"y\\\\z\"]"), "{json}");
    }
}
