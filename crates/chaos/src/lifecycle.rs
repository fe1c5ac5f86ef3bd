//! Device-lifecycle fault model for a serving fleet.
//!
//! [`FaultPlan`](crate::FaultPlan) injects faults *inside* one run; this
//! module models what goes wrong *around* runs at fleet scale: a device
//! degrades (thermal throttle, shrinking HBM carveout, a flaky peer
//! link), then fails hard and is quarantined for repair, drains its
//! backlog on return, and serves a cooldown before it counts as healthy
//! again. The serving layer replays this per-device state machine
//!
//! ```text
//! Healthy -> Degraded -> Quarantined -> Draining -> Recovered -> Healthy
//! ```
//!
//! from a seed-deterministic [`HealthTimeline`], so a fleet run under a
//! [`FleetFaultPlan`] is a pure function of `(plan, devices, horizon)` —
//! byte-identical at any worker-thread count.
//!
//! **Monotonicity by thinning.** Episodes are drawn by generating
//! candidate failure times at the intensity-1 rate (exponential gaps,
//! mean [`FleetFaultPlan::mtbf`]) and accepting each candidate with
//! probability `intensity`, with the accept draw taken *after* the gap
//! draw from the same stream. Candidate times are therefore identical
//! across intensities, and the accepted set at a lower intensity is a
//! subset of the accepted set at a higher one — total downtime (and so
//! fleet goodput loss) is monotone in `intensity` for a fixed seed, the
//! property the availability sweep pins.

use crate::error::SimError;
use hetsim_engine::rng::SimRng;
use hetsim_engine::time::Nanos;

/// One device's position in the lifecycle state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Serving normally.
    Healthy,
    /// Serving, but throttled: slower kernels, a shrunken HBM carveout,
    /// and degraded peer links. The lead-in to a hard failure.
    Degraded,
    /// Hard down for repair: admits nothing, running work is preempted.
    Quarantined,
    /// Back up but draining its backlog: finishes running work, admits
    /// no new requests.
    Draining,
    /// Serving clean again, but still inside the post-repair cooldown
    /// (policies may treat it as a last-resort placement).
    Recovered,
}

impl HealthState {
    /// The state's lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
            HealthState::Draining => "draining",
            HealthState::Recovered => "recovered",
        }
    }

    /// Whether a device in this state admits new work.
    pub fn accepts_work(self) -> bool {
        !matches!(self, HealthState::Quarantined | HealthState::Draining)
    }
}

/// A seed-deterministic description of device-lifecycle chaos: how often
/// devices fail, how long each phase of an episode lasts, and how hard a
/// degraded device is throttled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetFaultPlan {
    /// Base seed; combined with the device index per stream.
    pub seed: u64,
    /// Fraction of intensity-1 candidate failures that are accepted, in
    /// `[0, 1]`. `0.0` produces an empty timeline (no chaos at all).
    pub intensity: f64,
    /// Mean time between candidate failures per device at intensity 1.
    pub mtbf: Nanos,
    /// How long a device serves degraded before failing hard.
    pub degrade_lead: Nanos,
    /// How long a quarantined device stays hard-down for repair.
    pub repair: Nanos,
    /// How long a repaired device drains before admitting work.
    pub drain: Nanos,
    /// How long a device reports `Recovered` before `Healthy` again.
    pub cooldown: Nanos,
    /// GPU-stage service-time multiplier while `Degraded` (>= 1).
    pub service_penalty: f64,
    /// Peer-link transfer-time multiplier into or out of a `Degraded`
    /// device (>= 1).
    pub link_degrade: f64,
    /// Fraction of HBM capacity still usable while `Degraded`, in
    /// `(0, 1]` (the carveout-shrink model).
    pub carveout_shrink: f64,
}

impl FleetFaultPlan {
    /// No lifecycle chaos at all: an empty timeline for any horizon.
    pub fn off(seed: u64) -> Self {
        Self::at_intensity(seed, 0.0)
    }

    /// The default episode shape at the given acceptance `intensity`:
    /// 60 ms mean time between candidate failures, 8 ms degraded
    /// lead-in, 20 ms repair, 4 ms drain, 8 ms cooldown, with a 1.5x
    /// degraded service penalty, 2x degraded peer links, and a 25% HBM
    /// carveout shrink.
    pub fn at_intensity(seed: u64, intensity: f64) -> Self {
        Self {
            seed,
            intensity,
            mtbf: Nanos::from_millis(60),
            degrade_lead: Nanos::from_millis(8),
            repair: Nanos::from_millis(20),
            drain: Nanos::from_millis(4),
            cooldown: Nanos::from_millis(8),
            service_penalty: 1.5,
            link_degrade: 2.0,
            carveout_shrink: 0.75,
        }
    }

    /// Whether this plan can produce any episode at all.
    pub fn is_active(&self) -> bool {
        self.intensity > 0.0
    }

    /// Rejects impossible plans up front, before any simulation.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |msg: String| Err(SimError::InvalidPlan(msg));
        if !self.intensity.is_finite() || !(0.0..=1.0).contains(&self.intensity) {
            return bad(format!(
                "lifecycle intensity {} is outside [0, 1]",
                self.intensity
            ));
        }
        if self.is_active() && self.mtbf.is_zero() {
            return bad("active lifecycle plan has a zero mtbf".into());
        }
        let cycle = self.degrade_lead + self.repair + self.drain + self.cooldown;
        if self.is_active() && cycle.is_zero() {
            return bad("active lifecycle plan has zero-length episodes".into());
        }
        if !self.service_penalty.is_finite() || self.service_penalty < 1.0 {
            return bad(format!(
                "degraded service penalty {} must be >= 1",
                self.service_penalty
            ));
        }
        if !self.link_degrade.is_finite() || self.link_degrade < 1.0 {
            return bad(format!(
                "degraded link factor {} must be >= 1",
                self.link_degrade
            ));
        }
        if !self.carveout_shrink.is_finite()
            || self.carveout_shrink <= 0.0
            || self.carveout_shrink > 1.0
        {
            return bad(format!(
                "carveout shrink {} is outside (0, 1]",
                self.carveout_shrink
            ));
        }
        Ok(())
    }
}

/// A lifecycle transition, for the fleet trace's `fleet` track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecyclePhase {
    /// Entered `Degraded` (the failure's lead-in).
    Fail,
    /// Entered `Quarantined` (hard down).
    Quarantine,
    /// Entered `Draining` (up, not admitting).
    Drain,
    /// Entered `Recovered` (serving clean, cooling down).
    Recover,
    /// Returned to `Healthy`.
    Restore,
}

impl LifecyclePhase {
    /// The transition's lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            LifecyclePhase::Fail => "fail",
            LifecyclePhase::Quarantine => "quarantine",
            LifecyclePhase::Drain => "drain",
            LifecyclePhase::Recover => "recover",
            LifecyclePhase::Restore => "restore",
        }
    }
}

/// One lifecycle transition on one device, in sim time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleEvent {
    /// When the transition happens.
    pub at: Nanos,
    /// Which device.
    pub device: usize,
    /// Which transition.
    pub phase: LifecyclePhase,
}

/// One accepted failure episode's phase boundaries.
#[derive(Debug, Clone, Copy)]
struct Episode {
    degraded: Nanos,
    quarantined: Nanos,
    draining: Nanos,
    recovered: Nanos,
    healthy: Nanos,
}

impl Episode {
    fn starting_at(t: Nanos, plan: &FleetFaultPlan) -> Self {
        let quarantined = t + plan.degrade_lead;
        let draining = quarantined + plan.repair;
        let recovered = draining + plan.drain;
        Self {
            degraded: t,
            quarantined,
            draining,
            recovered,
            healthy: recovered + plan.cooldown,
        }
    }

    fn state_at(&self, at: Nanos) -> Option<HealthState> {
        if at < self.degraded || at >= self.healthy {
            return None;
        }
        Some(if at < self.quarantined {
            HealthState::Degraded
        } else if at < self.draining {
            HealthState::Quarantined
        } else if at < self.recovered {
            HealthState::Draining
        } else {
            HealthState::Recovered
        })
    }
}

/// The materialized health history of every device over one serve run:
/// a pure function of `(plan, devices, horizon)`.
#[derive(Debug, Clone)]
pub struct HealthTimeline {
    plan: FleetFaultPlan,
    episodes: Vec<Vec<Episode>>,
}

impl HealthTimeline {
    /// Generates the per-device episode lists. Episodes whose candidate
    /// failure time lands before `horizon` are kept in full (their later
    /// phases may extend past it); overlapping accepted episodes are
    /// serialized back to back, so downtime is the union.
    pub fn generate(plan: &FleetFaultPlan, devices: usize, horizon: Nanos) -> Self {
        let mut episodes = Vec::with_capacity(devices);
        for device in 0..devices {
            let mut rng =
                SimRng::seed_from_parts(&["chaos.lifecycle", &device.to_string()], plan.seed);
            let mut list: Vec<Episode> = Vec::new();
            if plan.is_active() {
                let mut t = Nanos::ZERO;
                loop {
                    // Candidate gap first, accept draw second: candidate
                    // times are identical across intensities, so lower
                    // intensities accept strict subsets (thinning).
                    let u = rng.next_f64().max(1e-12);
                    let gap = plan.mtbf.scale(-u.ln()).max(Nanos::from_nanos(1));
                    t += gap;
                    let accepted = rng.next_f64() < plan.intensity;
                    if t >= horizon {
                        break;
                    }
                    if accepted {
                        let start = match list.last() {
                            Some(prev) if prev.healthy > t => prev.healthy,
                            _ => t,
                        };
                        list.push(Episode::starting_at(start, plan));
                    }
                }
            }
            episodes.push(list);
        }
        Self {
            plan: *plan,
            episodes,
        }
    }

    /// The plan this timeline was generated from.
    pub fn plan(&self) -> &FleetFaultPlan {
        &self.plan
    }

    /// True when no device has any episode (e.g. intensity 0).
    pub fn is_empty(&self) -> bool {
        self.episodes.iter().all(Vec::is_empty)
    }

    /// The device's health state at `at`.
    pub fn state(&self, device: usize, at: Nanos) -> HealthState {
        self.episodes[device]
            .iter()
            .find_map(|e| e.state_at(at))
            .unwrap_or(HealthState::Healthy)
    }

    /// Whether the device admits new work at `at`.
    pub fn accepts(&self, device: usize, at: Nanos) -> bool {
        self.state(device, at).accepts_work()
    }

    /// GPU-stage service-time multiplier at `at` (1.0 unless degraded).
    pub fn service_penalty(&self, device: usize, at: Nanos) -> f64 {
        if self.state(device, at) == HealthState::Degraded {
            self.plan.service_penalty
        } else {
            1.0
        }
    }

    /// Peer-link transfer-time multiplier for a transfer touching
    /// `device` at `at` (1.0 unless degraded).
    pub fn link_factor(&self, device: usize, at: Nanos) -> f64 {
        if self.state(device, at) == HealthState::Degraded {
            self.plan.link_degrade
        } else {
            1.0
        }
    }

    /// Fraction of a device's HBM capacity usable in `health` (1.0 unless
    /// degraded, when the carveout shrinks). Takes the state rather than
    /// `(device, at)` so a caller that already read it does not scan the
    /// episodes again.
    pub fn capacity_factor(&self, health: HealthState) -> f64 {
        if health == HealthState::Degraded {
            self.plan.carveout_shrink
        } else {
            1.0
        }
    }

    /// The earliest hard-down (quarantine) start at or after `at` on
    /// `device`, if any — the preemption horizon for work scheduled now.
    pub fn next_quarantine_start(&self, device: usize, at: Nanos) -> Option<Nanos> {
        self.episodes[device]
            .iter()
            .map(|e| e.quarantined)
            .find(|&q| q >= at)
    }

    /// Total time the device is hard-down or draining (not admitting),
    /// clipped to `[0, horizon)`.
    pub fn downtime(&self, device: usize, horizon: Nanos) -> Nanos {
        let mut total = Nanos::ZERO;
        for e in &self.episodes[device] {
            let start = e.quarantined.min(horizon);
            let end = e.recovered.min(horizon);
            total += end.saturating_sub(start);
        }
        total
    }

    /// Every lifecycle transition across the fleet, sorted by
    /// `(time, device)` with each episode's phases in machine order —
    /// the fixed emission order for the fleet trace.
    pub fn events(&self) -> Vec<LifecycleEvent> {
        let mut out = Vec::new();
        for (device, list) in self.episodes.iter().enumerate() {
            for e in list {
                out.push(LifecycleEvent {
                    at: e.degraded,
                    device,
                    phase: LifecyclePhase::Fail,
                });
                out.push(LifecycleEvent {
                    at: e.quarantined,
                    device,
                    phase: LifecyclePhase::Quarantine,
                });
                out.push(LifecycleEvent {
                    at: e.draining,
                    device,
                    phase: LifecyclePhase::Drain,
                });
                out.push(LifecycleEvent {
                    at: e.recovered,
                    device,
                    phase: LifecyclePhase::Recover,
                });
                out.push(LifecycleEvent {
                    at: e.healthy,
                    device,
                    phase: LifecyclePhase::Restore,
                });
            }
        }
        out.sort_by_key(|ev| (ev.at, ev.device));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> Nanos {
        Nanos::from_millis(400)
    }

    #[test]
    fn zero_intensity_is_an_empty_timeline() {
        let plan = FleetFaultPlan::off(7);
        let tl = HealthTimeline::generate(&plan, 4, horizon());
        assert!(tl.is_empty());
        assert!(tl.events().is_empty());
        for d in 0..4 {
            assert_eq!(tl.state(d, Nanos::from_millis(10)), HealthState::Healthy);
            assert!(tl.accepts(d, Nanos::from_millis(10)));
            assert_eq!(tl.downtime(d, horizon()), Nanos::ZERO);
        }
    }

    #[test]
    fn timelines_are_seed_deterministic() {
        let plan = FleetFaultPlan::at_intensity(11, 0.7);
        let a = HealthTimeline::generate(&plan, 3, horizon());
        let b = HealthTimeline::generate(&plan, 3, horizon());
        assert_eq!(a.events(), b.events());
        let other = HealthTimeline::generate(&FleetFaultPlan::at_intensity(12, 0.7), 3, horizon());
        assert_ne!(a.events(), other.events(), "seeds must matter");
    }

    #[test]
    fn episode_walks_the_state_machine_in_order() {
        let plan = FleetFaultPlan::at_intensity(5, 1.0);
        let tl = HealthTimeline::generate(&plan, 1, horizon());
        let events = tl.events();
        assert!(!events.is_empty(), "intensity 1 must produce episodes");
        let first = events[0];
        assert_eq!(first.phase, LifecyclePhase::Fail);
        let t0 = first.at;
        assert_eq!(tl.state(0, t0), HealthState::Degraded);
        assert_eq!(
            tl.state(0, t0 + plan.degrade_lead),
            HealthState::Quarantined
        );
        assert!(!tl.accepts(0, t0 + plan.degrade_lead));
        let drained = t0 + plan.degrade_lead + plan.repair;
        assert_eq!(tl.state(0, drained), HealthState::Draining);
        assert!(!tl.accepts(0, drained));
        let recovered = drained + plan.drain;
        assert_eq!(tl.state(0, recovered), HealthState::Recovered);
        assert!(tl.accepts(0, recovered));
        assert_eq!(tl.state(0, recovered + plan.cooldown), HealthState::Healthy);
        // Degraded-phase throttles apply only while degraded.
        assert_eq!(tl.service_penalty(0, t0), plan.service_penalty);
        assert_eq!(tl.link_factor(0, t0), plan.link_degrade);
        assert_eq!(tl.capacity_factor(tl.state(0, t0)), plan.carveout_shrink);
        assert_eq!(tl.capacity_factor(tl.state(0, recovered)), 1.0);
        assert_eq!(tl.service_penalty(0, recovered), 1.0);
    }

    #[test]
    fn downtime_is_monotone_in_intensity() {
        for seed in [1, 9, 23, 77] {
            let mut prev = Nanos::ZERO;
            for intensity in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let plan = FleetFaultPlan::at_intensity(seed, intensity);
                let tl = HealthTimeline::generate(&plan, 2, horizon());
                let down = tl.downtime(0, horizon()) + tl.downtime(1, horizon());
                assert!(
                    down >= prev,
                    "downtime shrank at seed {seed} intensity {intensity}"
                );
                prev = down;
            }
        }
    }

    #[test]
    fn next_quarantine_start_sees_the_coming_outage() {
        let plan = FleetFaultPlan::at_intensity(3, 1.0);
        let tl = HealthTimeline::generate(&plan, 1, horizon());
        let first_fail = tl.events()[0].at;
        let q = tl
            .next_quarantine_start(0, Nanos::ZERO)
            .expect("an episode exists");
        assert_eq!(q, first_fail + plan.degrade_lead);
        assert!(tl
            .next_quarantine_start(0, q + Nanos::from_nanos(1))
            .is_none_or(|n| n > q));
    }

    #[test]
    fn impossible_plans_are_rejected() {
        let mut plan = FleetFaultPlan::at_intensity(1, 1.5);
        assert!(plan.validate().is_err(), "intensity > 1 must be rejected");
        plan.intensity = 0.5;
        plan.mtbf = Nanos::ZERO;
        assert!(plan.validate().is_err(), "zero mtbf must be rejected");
        plan.mtbf = Nanos::from_millis(1);
        plan.service_penalty = 0.5;
        assert!(plan.validate().is_err(), "penalty < 1 must be rejected");
        plan.service_penalty = 1.5;
        plan.carveout_shrink = 0.0;
        assert!(plan.validate().is_err(), "zero carveout must be rejected");
        plan.carveout_shrink = 0.75;
        assert!(plan.validate().is_ok());
        assert!(FleetFaultPlan::off(4).validate().is_ok());
    }
}
