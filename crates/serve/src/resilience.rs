//! Fleet resilience: fault-aware serving runs and availability curves.
//!
//! This module ties the chaos crate's device-lifecycle model
//! ([`FleetFaultPlan`] / `HealthTimeline`) to the serving loop. A
//! [`ResilienceConfig`] arms one serving cell with a fault plan, an SLO
//! budget (every request's deadline is its arrival plus the budget), a
//! retry/backoff policy, and optionally hedging; an [`AvailabilitySweep`]
//! then walks a `(policy × rate × fault intensity)` grid and reports the
//! curves a capacity planner reads — goodput, SLO attainment, and tail
//! latency as the fault intensity rises.
//!
//! # Separability, fleet-scale
//!
//! The chaos crate's core invariant carries over: every cost the
//! resilience layer adds (retry backoff, abandoned partial work,
//! re-staging transfers, degraded-service slowdown) is charged into a
//! `ChaosOverhead` ledger on the report, *additively*. At intensity zero
//! the lifecycle timeline is empty, the resilient code path performs no
//! extra arithmetic and draws no extra randomness, and the run is
//! **byte-identical** to the fault-free [`Fleet::serve`] — the property
//! `tests/serve_resilience.rs` pins across seeds and policies.
//!
//! # Determinism
//!
//! The grid fans across `hetsim::pool` and is assembled in grid order
//! (policy-major, then rate, then intensity), so tables and JSON are
//! byte-identical at any `HETSIM_THREADS` — the CLI test
//! `serve_resilience_is_thread_invariant_and_separable` compares the
//! rendered report at 1 and 4 threads.

use crate::arrival::{ArrivalMix, ArrivalPlan};
use crate::fleet::{DeviceState, Fleet, ServeConfig, Slot};
use crate::metrics::{PolicyReport, ServeReport};
use crate::policy::PolicyKind;
use crate::topology::ClusterTopology;
use hetsim::batch::JobStages;
use hetsim::pool;
use hetsim_counters::report::Table;
use hetsim_engine::time::Nanos;
use hetsim_runtime::{ChaosOverhead, FleetFaultPlan, HealthTimeline, RecoveryPolicy};

/// Everything a resilient serving run needs beyond the base
/// [`ServeConfig`]: what goes wrong, how long each request may take, and
/// what the fleet does about failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// The device-lifecycle fault plan (seed, intensity, episode shape).
    pub plan: FleetFaultPlan,
    /// Per-request SLO budget: `deadline = arrival + slo_budget`.
    pub slo_budget: Nanos,
    /// Retry/backoff policy for placement attempts that land on a device
    /// about to quarantine.
    pub recovery: RecoveryPolicy,
    /// Whether to hedge: move work off a degraded primary onto a healthy
    /// peer when the remaining deadline budget still covers re-staging.
    pub hedging: bool,
}

impl ResilienceConfig {
    /// A config armed at `intensity` with default budget, recovery, and
    /// hedging (the sweep's per-cell construction).
    pub fn at_intensity(seed: u64, intensity: f64) -> ResilienceConfig {
        ResilienceConfig {
            plan: FleetFaultPlan::at_intensity(seed, intensity),
            ..ResilienceConfig::default()
        }
    }
}

impl Default for ResilienceConfig {
    /// Faults off, the default 50 ms SLO budget, default recovery,
    /// hedging enabled.
    fn default() -> Self {
        ResilienceConfig {
            plan: FleetFaultPlan::off(0),
            slo_budget: ArrivalPlan::DEFAULT_SLO_BUDGET,
            recovery: RecoveryPolicy::default(),
            hedging: true,
        }
    }
}

/// The armed state one resilient run carries: the generated health
/// timeline plus the configuration that produced it.
pub(crate) struct Resilience {
    pub(crate) timeline: HealthTimeline,
    pub(crate) cfg: ResilienceConfig,
}

/// One request's recovery bookkeeping: what the attempts cost, which
/// devices failed an attempt (in attempt order), and whether it was
/// hedged onto a peer.
#[derive(Debug, Default)]
pub(crate) struct Attempts {
    pub(crate) recovery: ChaosOverhead,
    pub(crate) failed_devices: Vec<usize>,
    pub(crate) hedged: bool,
}

impl Resilience {
    /// The deadline-budgeted attempt walk for one placed request: where
    /// it runs (`Ok`), or why it is shed after admission (`Err`).
    ///
    /// Candidates are the policy's pick (`primary.device`), then peers
    /// by queue depth. The walk is bounded by the retry budget and by
    /// the deadline: a hop is only taken if backoff plus re-staging the
    /// `footprint` over the (possibly degraded) peer link still makes
    /// it. Every failed attempt bumps its device's failure streak and
    /// lands in `attempts`, with its sunk cost.
    pub(crate) fn walk(
        &self,
        topology: &ClusterTopology,
        states: &mut [DeviceState],
        primary: Slot,
        footprint: u64,
        deadline: Nanos,
        attempts: &mut Attempts,
    ) -> Result<Slot, &'static str> {
        let tl = &self.timeline;
        let cfg = &self.cfg;
        let gpu_dur = primary.stages.gpu;
        let mut order: Vec<usize> = (0..states.len()).collect();
        order.sort_by_key(|&i| (i != primary.device, states[i].gpu_free(), i));
        let max_attempts = (cfg.recovery.max_retries as usize + 1).min(order.len());

        // A primary that can run the request late (degraded or just
        // queued): kept as the fallback if no peer beats the deadline.
        let mut fallback: Option<(Slot, Nanos)> = None;
        let mut pending_backoff = Nanos::ZERO;
        let mut hedge_pending = false;
        let mut saw_viable = false;

        for (attempt, &cand) in order.iter().take(max_attempts).enumerate() {
            // The hop cost: backoff owed from a previous failure, plus
            // re-staging the working set over the peer link.
            let mut hop = ChaosOverhead::default();
            let mut release = primary.release;
            if attempt > 0 {
                hop.system += pending_backoff;
                release += pending_backoff;
                let link = tl
                    .link_factor(primary.device, release)
                    .max(tl.link_factor(cand, release));
                let restage = topology
                    .peer_transfer_time(primary.device, cand, footprint)
                    .scale(link);
                hop.memcpy += restage;
                release += restage;
            }
            if !tl.accepts(cand, release) {
                // Failed before any data moved: only the backoff is sunk.
                attempts.recovery.system += hop.system;
                pending_backoff = cfg.recovery.backoff(attempt as u32);
                states[cand].fail();
                attempts.failed_devices.push(cand);
                continue;
            }
            let penalty = tl.service_penalty(cand, release);
            let slow_gpu = if penalty > 1.0 {
                gpu_dur.scale(penalty)
            } else {
                gpu_dur
            };
            let slot = Slot {
                device: cand,
                release,
                stages: JobStages {
                    cpu: primary.stages.cpu,
                    gpu: slow_gpu,
                },
            };
            let (cpu_start, done) = states[cand].peek(slot);
            if let Some(q) = tl
                .next_quarantine_start(cand, release)
                .filter(|&q| q <= done)
            {
                // The attempt started and died mid-run: backoff,
                // re-staging, and the partial work are all sunk cost.
                attempts.recovery.system += hop.system + q.saturating_sub(cpu_start);
                attempts.recovery.memcpy += hop.memcpy;
                pending_backoff = cfg.recovery.backoff(attempt as u32);
                states[cand].fail();
                attempts.failed_devices.push(cand);
                continue;
            }
            let extra_kernel = slow_gpu.saturating_sub(gpu_dur);
            if done > deadline {
                saw_viable = true;
                if attempt == 0 {
                    fallback = Some((slot, extra_kernel));
                    if cfg.hedging && penalty > 1.0 {
                        // Late *because it degraded*: hedge onto a peer
                        // if one makes the SLO.
                        hedge_pending = true;
                        continue;
                    }
                    // Late from plain queueing: run it late, exactly
                    // like the fault-free path.
                    break;
                }
                // A hop that still misses is not worth paying for.
                continue;
            }
            // Commit: the hop that lands charges its backoff and
            // re-staging; a degraded device charges its service slowdown.
            attempts.recovery.system += hop.system;
            attempts.recovery.memcpy += hop.memcpy;
            attempts.recovery.kernel += extra_kernel;
            attempts.hedged = hedge_pending && attempt > 0;
            return Ok(slot);
        }
        match fallback {
            Some((slot, extra_kernel)) => {
                // No peer beats the deadline: run late on the primary
                // rather than shed runnable work.
                attempts.recovery.kernel += extra_kernel;
                Ok(slot)
            }
            None if saw_viable => Err("deadline_exhausted"),
            None => Err("fleet_unavailable"),
        }
    }
}

/// A `(policy × rate × fault intensity)` grid over one fleet — the
/// resilience analogue of [`crate::fleet::ServeSweep`].
#[derive(Debug, Clone)]
pub struct AvailabilitySweep {
    /// Policies, in report order.
    pub policies: Vec<PolicyKind>,
    /// Base arrival rates (requests per second), in report order.
    pub rates: Vec<f64>,
    /// Fault intensities in `[0, 1]`, in report order. Zero is the
    /// fault-free control row.
    pub intensities: Vec<f64>,
    /// Mix name (`poisson`, `bursty`, `diurnal`).
    pub mix: String,
    /// Base seed (arrivals, noise, policy draws, and the fault plan all
    /// derive from it).
    pub seed: u64,
    /// Offered requests per cell.
    pub requests: u64,
    /// Per-request SLO budget shared by every cell.
    pub slo_budget: Nanos,
}

impl AvailabilitySweep {
    /// The default intensity ramp (`--chaos` without `--intensities`).
    pub const DEFAULT_INTENSITIES: [f64; 3] = [0.0, 0.5, 1.0];

    /// Runs every `(policy, rate, intensity)` cell on `fleet` and
    /// collects the availability report. Cells are independent, so they
    /// fan out through `hetsim::pool`; results assemble in grid order
    /// (policy-major, rate next, intensity innermost), which keeps the
    /// report identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if any list is empty, the mix name is unknown, or an
    /// intensity yields an invalid [`FleetFaultPlan`].
    pub fn run(&self, fleet: &Fleet) -> AvailabilityReport {
        assert!(!self.policies.is_empty(), "sweep needs at least one policy");
        assert!(!self.rates.is_empty(), "sweep needs at least one rate");
        assert!(
            !self.intensities.is_empty(),
            "sweep needs at least one intensity"
        );
        assert!(
            ArrivalMix::by_name(&self.mix, 1.0).is_some(),
            "unknown mix {:?}",
            self.mix
        );
        for &x in &self.intensities {
            FleetFaultPlan::at_intensity(self.seed, x)
                .validate()
                .expect("intensity yields a valid fault plan");
        }
        let grid: Vec<(PolicyKind, f64, f64)> = self
            .policies
            .iter()
            .flat_map(|&p| {
                self.rates
                    .iter()
                    .flat_map(move |&r| self.intensities.iter().map(move |&x| (p, r, x)))
            })
            .collect();
        let cells = pool::run(grid.len(), |i| {
            let (policy, rate, intensity) = grid[i];
            let mix = ArrivalMix::by_name(&self.mix, rate).expect("mix validated above");
            let res = ResilienceConfig {
                plan: FleetFaultPlan::at_intensity(self.seed, intensity),
                slo_budget: self.slo_budget,
                ..ResilienceConfig::default()
            };
            let out = fleet.serve_resilient(
                &ServeConfig {
                    policy,
                    mix,
                    seed: self.seed,
                    requests: self.requests,
                },
                &res,
            );
            AvailabilityCell {
                intensity,
                report: out.report,
            }
        });
        AvailabilityReport { cells }
    }
}

/// One `(policy, rate, intensity)` cell of an availability sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityCell {
    /// The cell's fault intensity.
    pub intensity: f64,
    /// The cell's serving report (goodput, SLO attainment, tails,
    /// recovery ledger).
    pub report: PolicyReport,
}

/// The collected availability curves: the serving report columns with an
/// `intensity` column prepended.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityReport {
    /// The cells, in deterministic (policy, rate, intensity) grid order.
    pub cells: Vec<AvailabilityCell>,
}

impl AvailabilityReport {
    /// One summary row per cell: `intensity` plus the shared serving
    /// columns.
    pub fn to_table(&self) -> Table {
        let mut cols = vec!["intensity"];
        cols.extend_from_slice(&ServeReport::COLUMNS);
        let mut t = Table::new(cols);
        for c in &self.cells {
            let mut row = vec![format!("{:.2}", c.intensity)];
            row.extend(c.report.table_row());
            t.row(row);
        }
        t
    }

    /// The whole report as pretty-printed JSON (trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"intensity\": {:.4}, \"report\": {}}}",
                c.intensity,
                c.report.to_json_value()
            ));
            if i + 1 < self.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_workloads::InputSize;

    fn sweep() -> AvailabilitySweep {
        AvailabilitySweep {
            policies: vec![PolicyKind::ModePacking, PolicyKind::SloDeadline],
            rates: vec![200.0],
            intensities: vec![0.0, 1.0],
            mix: "poisson".into(),
            seed: 9,
            requests: 16,
            slo_budget: ArrivalPlan::DEFAULT_SLO_BUDGET,
        }
    }

    #[test]
    fn grid_is_policy_major_intensity_minor() {
        let fleet = Fleet::nvlink(2, InputSize::Tiny);
        let report = sweep().run(&fleet);
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.cells[0].report.policy, "mode_packing");
        assert_eq!(report.cells[0].intensity, 0.0);
        assert_eq!(report.cells[1].report.policy, "mode_packing");
        assert_eq!(report.cells[1].intensity, 1.0);
        assert_eq!(report.cells[2].report.policy, "slo_deadline");
        assert_eq!(report.to_table().len(), 4);
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let fleet = Fleet::nvlink(2, InputSize::Tiny);
        let s = sweep();
        let run = || s.run(&fleet).to_json();
        let one = pool::with_threads(1, run);
        let four = pool::with_threads(4, run);
        assert_eq!(one, four, "availability report must be byte-identical");
    }

    #[test]
    #[should_panic(expected = "at least one intensity")]
    fn empty_intensities_rejected() {
        let fleet = Fleet::nvlink(1, InputSize::Tiny);
        let mut s = sweep();
        s.intensities.clear();
        let _ = s.run(&fleet);
    }
}
