//! The per-run injection context and its bookkeeping report.

use crate::error::SimError;
use crate::plan::FaultPlan;
use crate::policy::RecoveryPolicy;
use hetsim_engine::rng::SimRng;
use hetsim_engine::time::Nanos;
use hetsim_trace::Category;
use std::fmt;

/// The four injected fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A DMA transfer attempt failed transiently.
    TransferFault,
    /// A kernel execution was corrupted and must replay.
    KernelCorruption,
    /// The host pinned staging allocation failed.
    PinnedAllocFail,
    /// A synthetic UVM refault injected as thrashing pressure.
    StormRefault,
}

impl FaultKind {
    /// All kinds, in taxonomy order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::TransferFault,
        FaultKind::KernelCorruption,
        FaultKind::PinnedAllocFail,
        FaultKind::StormRefault,
    ];

    /// Stable lowercase name used in traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TransferFault => "transfer_fault",
            FaultKind::KernelCorruption => "kernel_corruption",
            FaultKind::PinnedAllocFail => "pinned_alloc_fail",
            FaultKind::StormRefault => "storm_refault",
        }
    }
}

/// Recovery overhead, bucketed by the report component it was charged to.
///
/// This is the subtrahend of the separability invariant: a recovered run's
/// component minus its bucket equals the fault-free component exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosOverhead {
    /// Extra allocation time (pinned→pageable fallback).
    pub alloc: Nanos,
    /// Extra transfer time (failed attempts, backoff, storm migration).
    pub memcpy: Nanos,
    /// Extra kernel time (replays, storm fault stall).
    pub kernel: Nanos,
    /// Extra system time (abandoned degradation attempts).
    pub system: Nanos,
}

impl ChaosOverhead {
    /// Sum of all buckets.
    pub fn total(&self) -> Nanos {
        self.alloc + self.memcpy + self.kernel + self.system
    }
}

/// Everything chaos did to one (possibly multi-attempt) run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosReport {
    /// The plan seed the run was injected from.
    pub seed: u64,
    /// Injected transient transfer failures.
    pub transfer_faults: u64,
    /// Injected kernel corruptions.
    pub corruptions: u64,
    /// Injected pinned-allocation failures.
    pub pinned_failures: u64,
    /// Injected synthetic storm refaults.
    pub storm_refaults: u64,
    /// Transfer retries performed (equals `transfer_faults` on recovery).
    pub retries: u64,
    /// Kernel replays performed.
    pub replays: u64,
    /// Total backoff wait charged across retries.
    pub backoff: Nanos,
    /// Recovery cost per report component.
    pub overhead: ChaosOverhead,
    /// Degradations taken, as `(from, to)` names — mode ladder steps and
    /// the pinned→pageable fallback.
    pub degradations: Vec<(String, String)>,
    /// Mode attempts made (1 = no degradation).
    pub attempts: u32,
}

impl ChaosReport {
    /// An empty report for `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosReport {
            seed,
            ..ChaosReport::default()
        }
    }

    /// Total injected faults across the taxonomy.
    pub fn injected(&self) -> u64 {
        self.transfer_faults + self.corruptions + self.pinned_failures + self.storm_refaults
    }

    /// Folds another attempt's bookkeeping into this cumulative report.
    pub fn absorb(&mut self, other: ChaosReport) {
        self.transfer_faults += other.transfer_faults;
        self.corruptions += other.corruptions;
        self.pinned_failures += other.pinned_failures;
        self.storm_refaults += other.storm_refaults;
        self.retries += other.retries;
        self.replays += other.replays;
        self.backoff += other.backoff;
        self.overhead.alloc += other.overhead.alloc;
        self.overhead.memcpy += other.overhead.memcpy;
        self.overhead.kernel += other.overhead.kernel;
        self.overhead.system += other.overhead.system;
        self.degradations.extend(other.degradations);
        self.attempts += other.attempts;
    }
}

/// The injection context one run attempt threads through the runtime.
///
/// Decisions come from a single serial [`SimRng`] seeded from the plan
/// seed and the run's scope (workload and mode names), so a run's fault
/// sequence is a pure function of `(plan, workload, mode)` — independent
/// of thread count, machine, and wall-clock. Costs are *computed by the
/// runtime* (it owns the device model) and *booked here*; every injected
/// fault also drops an instant on the `chaos` trace track when a session
/// is active.
#[derive(Debug, Clone)]
pub struct ChaosCtx {
    plan: FaultPlan,
    policy: RecoveryPolicy,
    rng: SimRng,
    report: ChaosReport,
}

impl ChaosCtx {
    /// A context for one run attempt. `scope` disambiguates the rng
    /// stream (typically `[workload, mode]`).
    pub fn new(plan: &FaultPlan, policy: &RecoveryPolicy, scope: &[&str]) -> Self {
        let mut parts: Vec<&str> = vec!["hetsim.chaos"];
        parts.extend_from_slice(scope);
        ChaosCtx {
            plan: *plan,
            policy: *policy,
            rng: SimRng::seed_from_parts(&parts, plan.seed),
            report: ChaosReport {
                seed: plan.seed,
                attempts: 1,
                ..ChaosReport::default()
            },
        }
    }

    /// The inert context: injects nothing, books nothing, never errs.
    /// A pipeline run with it is bit-identical to a chaos-free run.
    pub fn inert() -> Self {
        ChaosCtx::new(&FaultPlan::off(), &RecoveryPolicy::default(), &[])
    }

    /// Whether this context can inject anything at all.
    pub fn active(&self) -> bool {
        self.plan.is_active()
    }

    /// The policy in force.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// The bookkeeping so far (this attempt only).
    pub fn report(&self) -> &ChaosReport {
        &self.report
    }

    /// Consumes the context, yielding this attempt's report.
    pub fn finish(self) -> ChaosReport {
        self.report
    }

    /// Rolls transient failure for one transfer that costs `cost` per
    /// attempt, returning the *extra* time to charge to the memcpy
    /// component: each failed attempt burns the full transfer plus an
    /// exponential backoff.
    ///
    /// # Errors
    ///
    /// [`SimError::RetryExhausted`] when failures exceed the retry budget.
    ///
    /// The `site` name is formatted only when a fault fires.
    pub fn transfer(&mut self, site: fmt::Arguments<'_>, cost: Nanos) -> Result<Nanos, SimError> {
        if self.plan.transfer_fault_rate <= 0.0 {
            return Ok(Nanos::ZERO);
        }
        let mut extra = Nanos::ZERO;
        let mut attempt: u32 = 0;
        while self.rng.chance(self.plan.transfer_fault_rate) {
            self.report.transfer_faults += 1;
            self.emit_instant(FaultKind::TransferFault, site);
            if attempt >= self.policy.max_retries {
                return Err(SimError::RetryExhausted {
                    site: site.to_string(),
                    attempts: attempt + 1,
                });
            }
            let backoff = self.policy.backoff(attempt);
            extra += cost + backoff;
            self.report.retries += 1;
            self.report.backoff += backoff;
            attempt += 1;
        }
        self.report.overhead.memcpy += extra;
        Ok(extra)
    }

    /// Rolls ECC-style corruption for one kernel launch that costs `cost`,
    /// returning the extra kernel time: each replay re-runs the kernel
    /// plus the policy's fixed replay overhead.
    ///
    /// # Errors
    ///
    /// [`SimError::ReplayExhausted`] when corruption outlasts the replay
    /// budget.
    pub fn kernel(&mut self, name: &str, cost: Nanos) -> Result<Nanos, SimError> {
        if self.plan.kernel_corruption_rate <= 0.0 {
            return Ok(Nanos::ZERO);
        }
        let mut extra = Nanos::ZERO;
        let mut replay: u32 = 0;
        while self.rng.chance(self.plan.kernel_corruption_rate) {
            self.report.corruptions += 1;
            self.emit_instant(FaultKind::KernelCorruption, name);
            if replay >= self.policy.max_replays {
                return Err(SimError::ReplayExhausted {
                    kernel: name.to_string(),
                    replays: replay,
                });
            }
            extra += cost + self.policy.replay_overhead;
            self.report.replays += 1;
            replay += 1;
        }
        self.report.overhead.kernel += extra;
        Ok(extra)
    }

    /// Rolls pinned-allocation failure once; on failure either charges
    /// `fallback_cost` (the pageable staging allocation) to the alloc
    /// component and records the degradation, or errs when the policy
    /// forbids falling back. Returns the extra alloc time.
    ///
    /// # Errors
    ///
    /// [`SimError::PinnedAllocFailed`] when
    /// [`RecoveryPolicy::pinned_fallback`] is off.
    ///
    /// The `site` name is formatted only when the allocation fails.
    pub fn pinned_alloc(
        &mut self,
        site: fmt::Arguments<'_>,
        fallback_cost: Nanos,
    ) -> Result<Nanos, SimError> {
        if self.plan.pinned_fail_rate <= 0.0 || !self.rng.chance(self.plan.pinned_fail_rate) {
            return Ok(Nanos::ZERO);
        }
        self.report.pinned_failures += 1;
        self.emit_instant(FaultKind::PinnedAllocFail, site);
        if !self.policy.pinned_fallback {
            return Err(SimError::PinnedAllocFailed {
                site: site.to_string(),
            });
        }
        self.report
            .degradations
            .push(("pinned".to_string(), "pageable".to_string()));
        self.report.overhead.alloc += fallback_cost;
        Ok(fallback_cost)
    }

    /// Decides how many synthetic storm refaults to inject against a
    /// footprint of `chunks` chunks: the expectation is
    /// `chunks * storm_pressure`, with the fractional remainder resolved
    /// by one seeded coin flip.
    pub fn storm_refaults(&mut self, chunks: u64) -> u64 {
        if self.plan.storm_pressure <= 0.0 || chunks == 0 {
            return 0;
        }
        let expected = chunks as f64 * self.plan.storm_pressure;
        let mut n = expected.floor() as u64;
        if self.rng.chance(expected.fract()) {
            n += 1;
        }
        if n > 0 {
            self.report.storm_refaults += n;
            self.emit_instant(FaultKind::StormRefault, "storm");
        }
        n
    }

    /// Books the runtime-computed cost of injected storm refaults: the
    /// exposed fault stall (kernel component) and the refault migration
    /// traffic (memcpy component).
    pub fn record_storm(&mut self, kernel_extra: Nanos, memcpy_extra: Nanos) {
        self.report.overhead.kernel += kernel_extra;
        self.report.overhead.memcpy += memcpy_extra;
    }

    /// This attempt's injected refaults per footprint chunk — the quantity
    /// compared against [`RecoveryPolicy::thrash_threshold`].
    pub fn storm_ratio(&self, footprint_chunks: u64) -> f64 {
        if footprint_chunks == 0 {
            return 0.0;
        }
        self.report.storm_refaults as f64 / footprint_chunks as f64
    }

    /// Records an abandoned attempt: the mode is degraded `from → to` and
    /// the abandoned attempt's `cost` is charged to the system component.
    /// Drops a `degrade(from->to)` marker on the `chaos` track.
    ///
    /// `cost` is the attempt's whole run total, which already contains
    /// every recovery extra booked in this context — so the attempt's
    /// per-component overhead buckets are *folded into* the system charge
    /// rather than kept alongside it. Without that, a degraded run's
    /// cumulative overhead would double-count the abandoned extras and
    /// the separability invariant (report − overhead = fault-free base of
    /// the effective mode) would break.
    pub fn record_abandoned(&mut self, from: &str, to: &str, cost: Nanos) {
        self.report
            .degradations
            .push((from.to_string(), to.to_string()));
        self.report.overhead = ChaosOverhead {
            system: cost,
            ..ChaosOverhead::default()
        };
        if hetsim_trace::session::enabled() {
            let name = format!("degrade({from}->{to})");
            hetsim_trace::session::with(|b| {
                let track = b.track("chaos");
                let at = b.now();
                b.instant_at(track, Category::Chaos, name.clone(), at, None);
            });
        }
    }

    /// Drops a zero-width marker on the `chaos` track of the active trace
    /// session; no-op when tracing is off. Instants never perturb the
    /// per-category span sums the trace layer's additivity contract pins.
    fn emit_instant(&self, kind: FaultKind, site: impl fmt::Display) {
        if !hetsim_trace::session::enabled() {
            return;
        }
        hetsim_trace::session::with(|b| {
            let track = b.track("chaos");
            let at = b.now();
            b.instant_at(
                track,
                Category::Chaos,
                format!("{}({site})", kind.name()),
                at,
                None,
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heavy_ctx(seed: u64) -> ChaosCtx {
        ChaosCtx::new(
            &FaultPlan::heavy(seed),
            &RecoveryPolicy::default(),
            &["w", "m"],
        )
    }

    #[test]
    fn inert_ctx_charges_nothing() {
        let mut c = ChaosCtx::inert();
        assert!(!c.active());
        let us = Nanos::from_micros(10);
        assert_eq!(c.transfer(format_args!("t"), us).unwrap(), Nanos::ZERO);
        assert_eq!(c.kernel("k", us).unwrap(), Nanos::ZERO);
        assert_eq!(c.pinned_alloc(format_args!("p"), us).unwrap(), Nanos::ZERO);
        assert_eq!(c.storm_refaults(1000), 0);
        let r = c.finish();
        assert_eq!(r.injected(), 0);
        assert_eq!(r.overhead.total(), Nanos::ZERO);
    }

    #[test]
    fn same_scope_same_seed_is_deterministic() {
        let run = |seed| {
            let mut c = heavy_ctx(seed);
            let mut extras = Vec::new();
            for i in 0..32 {
                extras.push(c.transfer(format_args!("t{i}"), Nanos::from_micros(5)));
                extras.push(c.kernel(&format!("k{i}"), Nanos::from_micros(9)));
            }
            let _ = c.storm_refaults(1000);
            (extras, c.finish())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, run(8).1, "different seed, different faults");
    }

    #[test]
    fn extras_match_bookkeeping() {
        let mut c = heavy_ctx(11);
        let mut memcpy = Nanos::ZERO;
        let mut kernel = Nanos::ZERO;
        for i in 0..64 {
            if let Ok(e) = c.transfer(format_args!("t{i}"), Nanos::from_micros(3)) {
                memcpy += e;
            }
            if let Ok(e) = c.kernel(&format!("k{i}"), Nanos::from_micros(4)) {
                kernel += e;
            }
        }
        assert!(c.report().injected() > 0, "heavy plan injected nothing");
        assert_eq!(c.report().overhead.memcpy, memcpy);
        assert_eq!(c.report().overhead.kernel, kernel);
    }

    #[test]
    fn brittle_policy_errors_on_first_fault() {
        let plan = FaultPlan {
            transfer_fault_rate: 0.999_999,
            ..FaultPlan::off()
        };
        let mut c = ChaosCtx::new(&plan, &RecoveryPolicy::brittle(), &["w"]);
        let err = c
            .transfer(format_args!("h2d"), Nanos::from_micros(1))
            .unwrap_err();
        assert!(matches!(err, SimError::RetryExhausted { attempts: 1, .. }));
    }

    #[test]
    fn pinned_failure_respects_fallback_policy() {
        let plan = FaultPlan {
            pinned_fail_rate: 0.999_999,
            ..FaultPlan::off()
        };
        let mut ok = ChaosCtx::new(&plan, &RecoveryPolicy::default(), &["w"]);
        let cost = Nanos::from_micros(12);
        assert_eq!(
            ok.pinned_alloc(format_args!("staging"), cost).unwrap(),
            cost
        );
        assert_eq!(ok.report().pinned_failures, 1);
        assert_eq!(
            ok.report().degradations,
            vec![("pinned".to_string(), "pageable".to_string())]
        );

        let mut brittle = ChaosCtx::new(&plan, &RecoveryPolicy::brittle(), &["w"]);
        assert!(matches!(
            brittle.pinned_alloc(format_args!("staging"), cost),
            Err(SimError::PinnedAllocFailed { .. })
        ));
    }

    #[test]
    fn storm_refaults_track_pressure() {
        let plan = FaultPlan {
            storm_pressure: 0.5,
            ..FaultPlan::off()
        };
        let mut c = ChaosCtx::new(&plan, &RecoveryPolicy::default(), &["w"]);
        let n = c.storm_refaults(10_000);
        assert!((4_000..=6_000).contains(&n), "{n}");
        assert!((c.storm_ratio(10_000) - 0.5).abs() < 0.1);
        c.record_storm(Nanos::from_micros(10), Nanos::from_micros(20));
        assert_eq!(c.report().overhead.kernel, Nanos::from_micros(10));
        assert_eq!(c.report().overhead.memcpy, Nanos::from_micros(20));
    }

    #[test]
    fn absorb_accumulates_attempts() {
        let mut total = ChaosReport::new(3);
        let mut a = heavy_ctx(3);
        let _ = a.transfer(format_args!("t"), Nanos::from_micros(50));
        a.record_abandoned("uvm", "standard", Nanos::from_micros(100));
        let a = a.finish();
        let faults = a.transfer_faults;
        total.absorb(a);
        total.absorb(heavy_ctx(3).finish());
        assert_eq!(total.attempts, 2);
        assert_eq!(total.transfer_faults, faults);
        assert_eq!(total.overhead.system, Nanos::from_micros(100));
        assert_eq!(total.degradations.len(), 1);
    }
}
