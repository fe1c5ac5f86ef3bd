//! Admission and placement: who gets in, where they run, in which mode.
//!
//! The serving control plane is a pair of traits. [`AdmissionPolicy`]
//! answers *"do we take this request at all?"* — a fleet past saturation
//! serves its existing queue better by shedding than by queueing without
//! bound. [`PlacementPolicy`] answers *"which device, which transfer
//! mode, at what extra cost?"*. The two are split so that experiments can
//! mix them independently, but each shipped policy implements both (tied
//! together by [`ServingPolicy`]).
//!
//! Policies are pure decision functions over a [`FleetView`] snapshot —
//! they hold no mutable state, and all randomness comes from the
//! per-request [`SimRng`] the fleet hands in (forked deterministically
//! from the serve seed and the request id), so a policy decision depends
//! only on `(policy, view, request, seed)` and never on thread timing.
//!
//! Five implementations ship:
//!
//! * [`PolicyKind::ModePacking`] — the fleet is split into an *explicit*
//!   lane (async memcpy) and a *managed* lane (UVM + prefetch); requests
//!   are routed by working-set size and best-fit bin-packed within the
//!   lane.
//! * [`PolicyKind::UvmSpillover`] — everything runs managed; admission
//!   allows the fleet to oversubscribe up to a ratio, and placement spills
//!   to the least-committed device, charging a thrashing penalty on the
//!   GPU stage once a device is past its HBM capacity.
//! * [`PolicyKind::ChaosFailover`] — devices fail placement attempts at a
//!   seeded rate; the policy walks healthy devices in load order, paying
//!   recovery backoff plus the peer-link cost of re-staging the working
//!   set on each hop, and quarantines devices that fail repeatedly.
//! * [`PolicyKind::ModeAdvisor`] — each request runs in the transfer mode
//!   the static performance advisor predicts fastest for its workload ×
//!   size, on the least-loaded device with room; the serving-layer
//!   consumer of the `SAN-P*` analysis.
//! * [`PolicyKind::SloDeadline`] — SLO-aware admission: sheds by
//!   *predicted deadline miss* (the fleet's cost estimates plus current
//!   queue depth), and walks the overload degradation ladder
//!   ([`ModeCosts::LADDER`]) to cheaper transfer modes before giving up
//!   on a request.

use crate::arrival::Request;
use crate::fleet::two_stage_step;
use crate::topology::ClusterTopology;
use hetsim::batch::JobStages;
use hetsim_engine::rng::SimRng;
use hetsim_engine::time::Nanos;
use hetsim_runtime::{HealthState, RecoveryPolicy, TransferMode};
use std::cell::Cell;

/// One device's scheduling state as a policy sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceView {
    /// Device index in the topology.
    pub index: usize,
    /// When the device's CPU (alloc) stage next drains.
    pub cpu_free: Nanos,
    /// When the device's GPU stage next drains.
    pub gpu_free: Nanos,
    /// Bytes of working sets currently in flight on the device.
    pub committed: u64,
    /// HBM capacity, bytes.
    pub capacity: u64,
    /// Requests currently in flight.
    pub inflight: usize,
    /// Consecutive failed placement attempts (chaos bookkeeping).
    pub consecutive_failures: u32,
    /// Lifecycle health at the deciding instant. Always
    /// [`HealthState::Healthy`] on a fault-free run; under a
    /// `FleetFaultPlan` this is the device's state machine position.
    pub health: HealthState,
}

/// The fleet snapshot a policy decides against.
#[derive(Debug)]
pub struct FleetView<'a> {
    /// The deciding request's arrival instant.
    pub now: Nanos,
    /// Per-device state, indexed like the topology.
    pub devices: &'a [DeviceView],
    /// The cluster's device + peer-link model.
    pub topology: &'a ClusterTopology,
    /// Cost estimates for the deciding request, one [`JobStages`] per
    /// rung of the degradation ladder (what deadline-aware policies
    /// predict completions with), plus the advisor's pick of mode.
    pub costs: ModeCosts<'a>,
}

impl FleetView<'_> {
    /// Total committed bytes across the fleet.
    pub(crate) fn total_committed(&self) -> u64 {
        self.devices.iter().map(|d| d.committed).sum()
    }

    /// Total HBM capacity across the fleet.
    pub(crate) fn total_capacity(&self) -> u64 {
        self.devices.iter().map(|d| d.capacity).sum()
    }
}

/// The deciding request's cost estimates, one per rung of the overload
/// degradation ladder, and the transfer mode the advisor ranks fastest
/// for its workload × size.
///
/// The estimates are the fleet's own per-request stage costs (the same
/// numbers the scheduler will charge if the request lands), so a policy
/// predicting a completion with them is consistent with the clock the
/// report is measured on. Both are computed when first read: a policy
/// that never looks at a rung, or at the advice, does not pay for it.
pub struct ModeCosts<'a> {
    price: &'a dyn Fn(TransferMode) -> JobStages,
    advice: &'a dyn Fn() -> TransferMode,
    priced: [Cell<Option<JobStages>>; ModeCosts::LADDER.len()],
}

impl<'a> ModeCosts<'a> {
    /// The overload degradation ladder, preferred mode first: the same
    /// walk as the chaos [`RecoveryPolicy`]'s mode degradation
    /// (`uvm_prefetch_async → uvm_prefetch → uvm → standard`). A
    /// deadline-aware policy tries each rung in order before shedding.
    pub const LADDER: [TransferMode; 4] = [
        TransferMode::UvmPrefetchAsync,
        TransferMode::UvmPrefetch,
        TransferMode::Uvm,
        TransferMode::Standard,
    ];

    /// Estimates priced through `price`, at most once per rung, and the
    /// advisor's pick read through `advice` (the fleet holds that once
    /// per workload).
    pub(crate) fn new(
        price: &'a dyn Fn(TransferMode) -> JobStages,
        advice: &'a dyn Fn() -> TransferMode,
    ) -> ModeCosts<'a> {
        ModeCosts {
            price,
            advice,
            priced: Default::default(),
        }
    }

    /// The estimate for `mode`, if it is on the ladder.
    pub fn get(&self, mode: TransferMode) -> Option<JobStages> {
        let rung = ModeCosts::LADDER.iter().position(|&m| m == mode)?;
        Some(self.rung(rung))
    }

    /// Ladder rungs with their estimates, preferred mode first.
    pub fn ladder(&self) -> impl Iterator<Item = (TransferMode, JobStages)> + '_ {
        (0..ModeCosts::LADDER.len()).map(|rung| (ModeCosts::LADDER[rung], self.rung(rung)))
    }

    /// The transfer mode the performance advisor ranks fastest for the
    /// request's workload × size.
    pub fn advised_mode(&self) -> TransferMode {
        (self.advice)()
    }

    fn rung(&self, rung: usize) -> JobStages {
        let cell = &self.priced[rung];
        cell.get().unwrap_or_else(|| {
            let stages = (self.price)(ModeCosts::LADDER[rung]);
            cell.set(Some(stages));
            stages
        })
    }
}

impl std::fmt::Debug for ModeCosts<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModeCosts")
            .field("priced", &self.priced)
            .finish_non_exhaustive()
    }
}

/// Predicted completion of a request released at `now` on device `d`,
/// costing `stages` — a pure peek of the fleet's two-stage recurrence
/// (CPU stage behind `cpu_free`, GPU stage behind `gpu_free`) that
/// mutates nothing.
pub(crate) fn predicted_completion(now: Nanos, d: &DeviceView, stages: JobStages) -> Nanos {
    let (mut cpu_free, mut gpu_free) = (d.cpu_free, d.gpu_free);
    two_stage_step(now, stages, &mut cpu_free, &mut gpu_free);
    gpu_free
}

/// An admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Run the request.
    Accept,
    /// Reject it up front (load shedding).
    Shed {
        /// Stable shed reason, reported and traced.
        reason: &'static str,
    },
}

/// A placement decision: where the request runs and at what extra cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Target device index.
    pub device: usize,
    /// Transfer mode the request runs in.
    pub mode: TransferMode,
    /// Extra delay before the request's CPU stage may start (failover
    /// backoff, peer re-staging).
    pub queue_delay: Nanos,
    /// Multiplier on the GPU stage (≥ 1; oversubscription thrashing).
    pub gpu_scale: f64,
    /// Devices that failed an attempt before the request landed, in
    /// attempt order (chaos bookkeeping + trace instants).
    pub failed_devices: Vec<usize>,
}

impl Placement {
    /// A clean placement on `device` in `mode` with no extra cost.
    pub fn clean(device: usize, mode: TransferMode) -> Placement {
        Placement {
            device,
            mode,
            queue_delay: Nanos::ZERO,
            gpu_scale: 1.0,
            failed_devices: Vec::new(),
        }
    }
}

/// Decides whether a request is served at all.
pub trait AdmissionPolicy {
    /// Admit or shed `req` (working set `footprint` bytes) given the
    /// fleet snapshot. `rng` is the request's deterministic fork.
    fn admit(
        &self,
        req: &Request,
        footprint: u64,
        view: &FleetView<'_>,
        rng: &mut SimRng,
    ) -> Admission;
}

/// Decides where an admitted request runs.
pub trait PlacementPolicy {
    /// Place `req` (working set `footprint` bytes). Must return a device
    /// index inside the view; only called after admission accepted.
    fn place(
        &self,
        req: &Request,
        footprint: u64,
        view: &FleetView<'_>,
        rng: &mut SimRng,
    ) -> Placement;
}

/// A complete serving policy: admission + placement + a stable name.
pub trait ServingPolicy: AdmissionPolicy + PlacementPolicy + Sync {
    /// Stable policy name (CLI `--policy` value, report rows).
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// ModePacking
// ---------------------------------------------------------------------------

/// Per-mode bin-packing: an explicit-copy lane and a managed (UVM) lane.
///
/// The fleet's first half serves async-memcpy requests, the second half
/// serves UVM+prefetch requests (a single-device "fleet" serves both from
/// device 0). Requests route by working-set size — at or above
/// [`ModePacking::managed_threshold`] the request runs managed, below it
/// explicit — and within the lane are **best-fit** packed: the fittest
/// device is the one with the *most* committed bytes that still has room,
/// which keeps the other lane devices free for large requests. A request
/// that fits no lane device is shed.
#[derive(Debug, Clone)]
pub(crate) struct ModePacking {
    /// Working sets at or above this many bytes run in the managed lane.
    pub managed_threshold: u64,
    /// Mode of the explicit lane.
    pub explicit_mode: TransferMode,
    /// Mode of the managed lane.
    pub managed_mode: TransferMode,
}

impl Default for ModePacking {
    fn default() -> Self {
        ModePacking {
            managed_threshold: 512 << 20,
            explicit_mode: TransferMode::Async,
            managed_mode: TransferMode::UvmPrefetchAsync,
        }
    }
}

impl ModePacking {
    /// The lane (device index list) and mode for a working set.
    fn lane(&self, footprint: u64, n: usize) -> (std::ops::Range<usize>, TransferMode) {
        let split = n.div_ceil(2);
        if footprint >= self.managed_threshold {
            (split.min(n - 1)..n, self.managed_mode)
        } else if n == 1 {
            (0..1, self.explicit_mode)
        } else {
            (0..split, self.explicit_mode)
        }
    }

    /// Best-fit device in the lane: most committed bytes that still fits.
    fn best_fit(
        &self,
        footprint: u64,
        lane: std::ops::Range<usize>,
        view: &FleetView<'_>,
    ) -> Option<usize> {
        lane.filter(|&d| {
            let dev = &view.devices[d];
            dev.committed + footprint <= dev.capacity
        })
        .max_by_key(|&d| (view.devices[d].committed, usize::MAX - d))
    }
}

impl AdmissionPolicy for ModePacking {
    fn admit(
        &self,
        _req: &Request,
        footprint: u64,
        view: &FleetView<'_>,
        _rng: &mut SimRng,
    ) -> Admission {
        let (lane, _) = self.lane(footprint, view.devices.len());
        if self.best_fit(footprint, lane, view).is_some() {
            Admission::Accept
        } else {
            Admission::Shed {
                reason: "lane_full",
            }
        }
    }
}

impl PlacementPolicy for ModePacking {
    fn place(
        &self,
        _req: &Request,
        footprint: u64,
        view: &FleetView<'_>,
        _rng: &mut SimRng,
    ) -> Placement {
        let (lane, mode) = self.lane(footprint, view.devices.len());
        let device = self
            .best_fit(footprint, lane, view)
            .expect("place called without admission");
        Placement::clean(device, mode)
    }
}

impl ServingPolicy for ModePacking {
    fn name(&self) -> &'static str {
        "mode_packing"
    }
}

// ---------------------------------------------------------------------------
// UvmSpillover
// ---------------------------------------------------------------------------

/// UVM oversubscription spillover: everything runs managed, and the fleet
/// admits past physical capacity.
///
/// Admission allows total committed bytes up to
/// [`UvmSpillover::oversubscription`] × total HBM capacity — UVM's demand
/// paging makes that *possible*, and this policy measures what it *costs*:
/// placement always spills to the least-committed device, and once that
/// device is past its own capacity the request's GPU stage is scaled by
/// `1 + thrash_penalty × overflow_ratio`, the serving-layer analogue of
/// the paper's UVM oversubscription cliff.
#[derive(Debug, Clone)]
pub(crate) struct UvmSpillover {
    /// Admitted committed-bytes ratio over total HBM capacity (≥ 1).
    pub oversubscription: f64,
    /// GPU-stage penalty slope per unit of device-level overflow.
    pub thrash_penalty: f64,
    /// The managed mode requests run in.
    pub mode: TransferMode,
}

impl Default for UvmSpillover {
    fn default() -> Self {
        UvmSpillover {
            oversubscription: 1.5,
            thrash_penalty: 4.0,
            mode: TransferMode::UvmPrefetchAsync,
        }
    }
}

impl AdmissionPolicy for UvmSpillover {
    fn admit(
        &self,
        _req: &Request,
        footprint: u64,
        view: &FleetView<'_>,
        _rng: &mut SimRng,
    ) -> Admission {
        let admitted = view.total_committed() + footprint;
        let limit = (view.total_capacity() as f64 * self.oversubscription) as u64;
        if admitted <= limit {
            Admission::Accept
        } else {
            Admission::Shed {
                reason: "oversubscription_limit",
            }
        }
    }
}

impl PlacementPolicy for UvmSpillover {
    fn place(
        &self,
        _req: &Request,
        footprint: u64,
        view: &FleetView<'_>,
        _rng: &mut SimRng,
    ) -> Placement {
        let device = view
            .devices
            .iter()
            .min_by_key(|d| (d.committed, d.index))
            .expect("fleet has at least one device")
            .index;
        let dev = &view.devices[device];
        let after = dev.committed + footprint;
        let overflow = (after as f64 / dev.capacity as f64 - 1.0).max(0.0);
        let mut p = Placement::clean(device, self.mode);
        p.gpu_scale = 1.0 + self.thrash_penalty * overflow;
        p
    }
}

impl ServingPolicy for UvmSpillover {
    fn name(&self) -> &'static str {
        "uvm_spillover"
    }
}

// ---------------------------------------------------------------------------
// ChaosFailover
// ---------------------------------------------------------------------------

/// Chaos-aware failover: placements fail at a seeded rate and the request
/// hops to the next healthy device, paying for the detour.
///
/// Devices are tried in load order (least committed first). Each attempt
/// fails independently with probability [`ChaosFailover::fault_rate`]
/// (drawn from the request's deterministic RNG). A failed attempt charges
/// the recovery policy's exponential backoff, and moving on to the next
/// device additionally charges the peer-link transfer of the request's
/// working set from the failed device — an NVLink-island hop is cheap, a
/// NUMA-remote hop is not. Devices whose recent attempts failed
/// [`ChaosFailover::quarantine_threshold`] times in a row are skipped
/// while any healthy device remains (the fleet resets the counter on the
/// next success). If every attempt fails, the final device retries once
/// more at full backoff and is forced through — shedding on chaos alone
/// would confound the latency comparison.
#[derive(Debug, Clone)]
pub(crate) struct ChaosFailover {
    /// Per-attempt placement failure probability, in `[0, 1)`.
    pub fault_rate: f64,
    /// Recovery costs (backoff schedule) charged per failed attempt.
    pub recovery: RecoveryPolicy,
    /// Consecutive failures after which a device is quarantined.
    pub quarantine_threshold: u32,
    /// Mode requests run in.
    pub mode: TransferMode,
}

impl Default for ChaosFailover {
    fn default() -> Self {
        ChaosFailover {
            fault_rate: 0.05,
            recovery: RecoveryPolicy::default(),
            quarantine_threshold: 3,
            mode: TransferMode::Async,
        }
    }
}

impl AdmissionPolicy for ChaosFailover {
    fn admit(
        &self,
        _req: &Request,
        _footprint: u64,
        _view: &FleetView<'_>,
        _rng: &mut SimRng,
    ) -> Admission {
        // Failover never sheds: the policy's whole point is to absorb
        // faults, and its cost shows up as latency, not lost requests.
        Admission::Accept
    }
}

impl PlacementPolicy for ChaosFailover {
    fn place(
        &self,
        _req: &Request,
        footprint: u64,
        view: &FleetView<'_>,
        rng: &mut SimRng,
    ) -> Placement {
        // Healthy devices in load order; quarantined ones — by failure
        // streak or by lifecycle state — only as a last resort, so the
        // walk still terminates fleet-wide. The index makes every key
        // unique, so each attempt takes the least key past the last one:
        // the walk needs no sorted copy of the fleet.
        let key = |d: &DeviceView| {
            let sidelined =
                d.consecutive_failures >= self.quarantine_threshold || !d.health.accepts_work();
            (sidelined, d.committed, d.index)
        };
        let mut last = None;
        let mut delay = Nanos::ZERO;
        let mut failed = Vec::new();
        for attempt in 0..view.devices.len() {
            let next = view
                .devices
                .iter()
                .map(key)
                .filter(|&k| last.is_none_or(|l| k > l))
                .min()
                .expect("one device per attempt");
            last = Some(next);
            let device = next.2;
            if let Some(&prev) = failed.last() {
                delay += view.topology.peer_transfer_time(prev, device, footprint);
            }
            if !rng.chance(self.fault_rate) {
                let mut p = Placement::clean(device, self.mode);
                p.queue_delay = delay;
                p.failed_devices = failed;
                return p;
            }
            delay += self.recovery.backoff(attempt as u32);
            failed.push(device);
        }
        // Everyone failed once: force the request through on the last
        // device after one more full-depth backoff.
        let device = *failed.last().expect("fleet has at least one device");
        failed.pop();
        delay += self.recovery.backoff(view.devices.len() as u32);
        let mut p = Placement::clean(device, self.mode);
        p.queue_delay = delay;
        p.failed_devices = failed;
        p
    }
}

impl ServingPolicy for ChaosFailover {
    fn name(&self) -> &'static str {
        "chaos_failover"
    }
}

// ---------------------------------------------------------------------------
// ModeAdvisor
// ---------------------------------------------------------------------------

/// Advisor-driven placement: each request runs in the transfer mode the
/// performance advisor (`hetsim_sanitizer::advise`, reached through
/// `hetsim::verify::advise_program`) ranks fastest for its workload × size
/// on the paper's device model, from the five modes' noise-free base runs
/// ([`ModeCosts::advised_mode`]; the fleet computes that advice once per
/// workload and holds it). Requests land on the least-committed device
/// with room for the working set, so the fleet is one shared pool with
/// per-request mode selection rather than static mode lanes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ModeAdvisor;

impl ModeAdvisor {
    /// Least-committed device that still fits `footprint` (ties break to
    /// the lowest index).
    fn fittest(&self, footprint: u64, view: &FleetView<'_>) -> Option<usize> {
        view.devices
            .iter()
            .filter(|d| d.committed + footprint <= d.capacity)
            .min_by_key(|d| (d.committed, d.index))
            .map(|d| d.index)
    }
}

impl AdmissionPolicy for ModeAdvisor {
    fn admit(
        &self,
        _req: &Request,
        footprint: u64,
        view: &FleetView<'_>,
        _rng: &mut SimRng,
    ) -> Admission {
        if self.fittest(footprint, view).is_some() {
            Admission::Accept
        } else {
            Admission::Shed {
                reason: "no_capacity",
            }
        }
    }
}

impl PlacementPolicy for ModeAdvisor {
    fn place(
        &self,
        _req: &Request,
        footprint: u64,
        view: &FleetView<'_>,
        _rng: &mut SimRng,
    ) -> Placement {
        let device = self
            .fittest(footprint, view)
            .expect("place called without admission");
        Placement::clean(device, view.costs.advised_mode())
    }
}

impl ServingPolicy for ModeAdvisor {
    fn name(&self) -> &'static str {
        "mode_advisor"
    }
}

// ---------------------------------------------------------------------------
// SloDeadline
// ---------------------------------------------------------------------------

/// SLO-aware admission and deadline-driven placement.
///
/// Admission sheds by **predicted deadline miss**, not by capacity: a
/// request is accepted iff *some* `(device, ladder mode)` pair — healthy
/// device with HBM room, any rung of [`ModeCosts::LADDER`] — is
/// predicted (via [`predicted_completion`] over the fleet's cost
/// estimates plus the device's current queue frontiers) to finish by the
/// request's deadline. A fleet with plenty of free HBM but a deep queue
/// honestly sheds, and one rung of the ladder making the deadline is
/// enough to admit.
///
/// Placement walks the ladder preferred-mode-first: for each rung it
/// picks the serving device with the earliest predicted completion, and
/// takes the first rung that makes the deadline — the *overload
/// degradation ladder*: under load a request degrades to a cheaper
/// transfer mode before the fleet gives up on it. If no rung makes it
/// (only possible when placement is driven without admission), the
/// request lands on the globally earliest-finishing pair anyway.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SloDeadline;

impl SloDeadline {
    /// The earliest-finishing serving device for `stages`, among devices
    /// that admit work and fit `footprint`: `(device, predicted done)`.
    fn best_device(
        &self,
        footprint: u64,
        stages: JobStages,
        view: &FleetView<'_>,
    ) -> Option<(usize, Nanos)> {
        view.devices
            .iter()
            .filter(|d| d.health.accepts_work() && d.committed + footprint <= d.capacity)
            .map(|d| (d.index, predicted_completion(view.now, d, stages)))
            .min_by_key(|&(index, done)| (done, index))
    }
}

impl AdmissionPolicy for SloDeadline {
    fn admit(
        &self,
        req: &Request,
        footprint: u64,
        view: &FleetView<'_>,
        _rng: &mut SimRng,
    ) -> Admission {
        let mut any_device = false;
        for (_, stages) in view.costs.ladder() {
            if let Some((_, done)) = self.best_device(footprint, stages, view) {
                any_device = true;
                if done <= req.deadline {
                    return Admission::Accept;
                }
            }
        }
        if any_device {
            Admission::Shed {
                reason: "predicted_deadline_miss",
            }
        } else {
            Admission::Shed {
                reason: "no_capacity",
            }
        }
    }
}

impl PlacementPolicy for SloDeadline {
    fn place(
        &self,
        req: &Request,
        footprint: u64,
        view: &FleetView<'_>,
        _rng: &mut SimRng,
    ) -> Placement {
        let mut fallback: Option<(TransferMode, usize, Nanos)> = None;
        for (mode, stages) in view.costs.ladder() {
            if let Some((device, done)) = self.best_device(footprint, stages, view) {
                if done <= req.deadline {
                    return Placement::clean(device, mode);
                }
                if fallback.is_none_or(|(_, _, best)| done < best) {
                    fallback = Some((mode, device, done));
                }
            }
        }
        // Post-admission this is unreachable; standalone placement still
        // lands somewhere sensible instead of panicking.
        match fallback {
            Some((mode, device, _)) => Placement::clean(device, mode),
            None => {
                let device = view
                    .devices
                    .iter()
                    .min_by_key(|d| (d.committed, d.index))
                    .expect("fleet has at least one device")
                    .index;
                Placement::clean(device, ModeCosts::LADDER[ModeCosts::LADDER.len() - 1])
            }
        }
    }
}

impl ServingPolicy for SloDeadline {
    fn name(&self) -> &'static str {
        "slo_deadline"
    }
}

// ---------------------------------------------------------------------------
// PolicyKind
// ---------------------------------------------------------------------------

/// The shipped policies, by CLI name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// `mode_packing`: explicit and managed lanes, routed by working set
    /// and best-fit packed.
    ModePacking,
    /// `uvm_spillover`: everything managed, admitted past HBM capacity
    /// at a thrashing penalty.
    UvmSpillover,
    /// `chaos_failover`: seeded placement faults, paid for by backoff
    /// and peer re-staging.
    ChaosFailover,
    /// `mode_advisor`: the advisor's fastest mode, on the least-loaded
    /// device with room.
    ModeAdvisor,
    /// `slo_deadline`: sheds predicted deadline misses and walks the
    /// degradation ladder.
    SloDeadline,
}

impl PolicyKind {
    /// All shipped policies, in canonical order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::ModePacking,
        PolicyKind::UvmSpillover,
        PolicyKind::ChaosFailover,
        PolicyKind::ModeAdvisor,
        PolicyKind::SloDeadline,
    ];

    /// The canonical CLI names, aligned with [`PolicyKind::ALL`].
    pub const NAMES: [&'static str; 5] = [
        "mode_packing",
        "uvm_spillover",
        "chaos_failover",
        "mode_advisor",
        "slo_deadline",
    ];

    /// Parses a CLI name.
    pub fn by_name(name: &str) -> Option<PolicyKind> {
        match name {
            "mode_packing" => Some(PolicyKind::ModePacking),
            "uvm_spillover" => Some(PolicyKind::UvmSpillover),
            "chaos_failover" => Some(PolicyKind::ChaosFailover),
            "mode_advisor" => Some(PolicyKind::ModeAdvisor),
            "slo_deadline" => Some(PolicyKind::SloDeadline),
            _ => None,
        }
    }

    /// The policy's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::ModePacking => "mode_packing",
            PolicyKind::UvmSpillover => "uvm_spillover",
            PolicyKind::ChaosFailover => "chaos_failover",
            PolicyKind::ModeAdvisor => "mode_advisor",
            PolicyKind::SloDeadline => "slo_deadline",
        }
    }

    /// Instantiates the policy with its default parameters.
    pub fn build(self) -> Box<dyn ServingPolicy> {
        match self {
            PolicyKind::ModePacking => Box::new(ModePacking::default()),
            PolicyKind::UvmSpillover => Box::new(UvmSpillover::default()),
            PolicyKind::ChaosFailover => Box::new(ChaosFailover::default()),
            PolicyKind::ModeAdvisor => Box::new(ModeAdvisor),
            PolicyKind::SloDeadline => Box::new(SloDeadline),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_workloads::InputSize;

    fn devices(n: usize, capacity: u64) -> Vec<DeviceView> {
        (0..n)
            .map(|index| DeviceView {
                index,
                cpu_free: Nanos::ZERO,
                gpu_free: Nanos::ZERO,
                committed: 0,
                capacity,
                inflight: 0,
                consecutive_failures: 0,
                health: HealthState::Healthy,
            })
            .collect()
    }

    fn req(id: u64) -> Request {
        Request {
            id,
            arrival: Nanos::ZERO,
            workload: "vector_seq",
            size: InputSize::Tiny,
            deadline: Nanos::from_millis(50),
        }
    }

    fn rng(id: u64) -> SimRng {
        SimRng::seed_from_parts(&["test.policy"], id)
    }

    fn no_cost(_: TransferMode) -> JobStages {
        JobStages {
            cpu: Nanos::ZERO,
            gpu: Nanos::ZERO,
        }
    }

    fn standard() -> TransferMode {
        TransferMode::Standard
    }

    /// Costs priced by `price`, advising `standard`.
    fn costs(price: &dyn Fn(TransferMode) -> JobStages) -> ModeCosts<'_> {
        ModeCosts::new(price, &standard)
    }

    #[test]
    fn mode_packing_routes_by_size_and_packs_best_fit() {
        let topo = ClusterTopology::nvlink_mesh(4);
        let mut devs = devices(4, 100);
        devs[0].committed = 40;
        devs[1].committed = 60;
        let view = FleetView {
            now: Nanos::ZERO,
            devices: &devs,
            topology: &topo,
            costs: costs(&no_cost),
        };
        let p = ModePacking {
            managed_threshold: 50,
            ..ModePacking::default()
        };
        // Small request: explicit lane {0,1}; best fit is device 1 (more
        // committed, still fits 30).
        let placed = p.place(&req(0), 30, &view, &mut rng(0));
        assert_eq!(placed.device, 1);
        assert_eq!(placed.mode, TransferMode::Async);
        // Large request: managed lane {2,3}, both empty -> best-fit
        // tie-break picks the lowest index.
        let placed = p.place(&req(1), 60, &view, &mut rng(1));
        assert_eq!(placed.device, 2);
        assert_eq!(placed.mode, TransferMode::UvmPrefetchAsync);
    }

    #[test]
    fn mode_packing_sheds_when_lane_is_full() {
        let topo = ClusterTopology::nvlink_mesh(2);
        let mut devs = devices(2, 100);
        devs[0].committed = 95; // explicit lane = {0}
        let view = FleetView {
            now: Nanos::ZERO,
            devices: &devs,
            topology: &topo,
            costs: costs(&no_cost),
        };
        let p = ModePacking {
            managed_threshold: 50,
            ..ModePacking::default()
        };
        assert_eq!(
            p.admit(&req(0), 10, &view, &mut rng(0)),
            Admission::Shed {
                reason: "lane_full"
            }
        );
        // The managed lane {1} still has room for a big request.
        assert_eq!(p.admit(&req(1), 60, &view, &mut rng(1)), Admission::Accept);
    }

    #[test]
    fn single_device_fleet_serves_both_lanes() {
        let topo = ClusterTopology::nvlink_mesh(1);
        let devs = devices(1, 100);
        let view = FleetView {
            now: Nanos::ZERO,
            devices: &devs,
            topology: &topo,
            costs: costs(&no_cost),
        };
        let p = ModePacking {
            managed_threshold: 50,
            ..ModePacking::default()
        };
        assert_eq!(p.place(&req(0), 10, &view, &mut rng(0)).device, 0);
        assert_eq!(p.place(&req(1), 90, &view, &mut rng(1)).device, 0);
    }

    #[test]
    fn spillover_admits_past_capacity_then_sheds() {
        let topo = ClusterTopology::nvlink_mesh(2);
        let mut devs = devices(2, 100);
        let p = UvmSpillover {
            oversubscription: 1.5,
            ..UvmSpillover::default()
        };
        devs[0].committed = 150;
        devs[1].committed = 100;
        let view = FleetView {
            now: Nanos::ZERO,
            devices: &devs,
            topology: &topo,
            costs: costs(&no_cost),
        };
        // 250 committed of 200 capacity: below the 300 limit.
        assert_eq!(p.admit(&req(0), 40, &view, &mut rng(0)), Admission::Accept);
        assert_eq!(
            p.admit(&req(1), 60, &view, &mut rng(1)),
            Admission::Shed {
                reason: "oversubscription_limit"
            }
        );
    }

    #[test]
    fn spillover_places_least_loaded_and_charges_thrash() {
        let topo = ClusterTopology::nvlink_mesh(2);
        let mut devs = devices(2, 100);
        devs[0].committed = 120;
        devs[1].committed = 80;
        let view = FleetView {
            now: Nanos::ZERO,
            devices: &devs,
            topology: &topo,
            costs: costs(&no_cost),
        };
        let p = UvmSpillover {
            thrash_penalty: 4.0,
            ..UvmSpillover::default()
        };
        let placed = p.place(&req(0), 40, &view, &mut rng(0));
        assert_eq!(placed.device, 1, "least committed wins");
        // Device 1 lands at 120 of 100: overflow 0.2 -> scale 1.8.
        assert!((placed.gpu_scale - 1.8).abs() < 1e-9);
        // An in-capacity placement carries no penalty.
        let mut fits = devices(2, 100);
        fits[0].committed = 50;
        let view = FleetView {
            now: Nanos::ZERO,
            devices: &fits,
            topology: &topo,
            costs: costs(&no_cost),
        };
        assert_eq!(p.place(&req(1), 10, &view, &mut rng(1)).gpu_scale, 1.0);
    }

    #[test]
    fn failover_is_deterministic_and_pays_for_hops() {
        let topo = ClusterTopology::nvlink_mesh(4);
        let devs = devices(4, 100);
        let view = FleetView {
            now: Nanos::ZERO,
            devices: &devs,
            topology: &topo,
            costs: costs(&no_cost),
        };
        let p = ChaosFailover {
            fault_rate: 0.9, // almost always hop
            ..ChaosFailover::default()
        };
        let a = p.place(&req(7), 1 << 20, &view, &mut rng(7));
        let b = p.place(&req(7), 1 << 20, &view, &mut rng(7));
        assert_eq!(a, b, "same request seed, same decision");
        if !a.failed_devices.is_empty() {
            assert!(a.queue_delay > Nanos::ZERO, "hops must cost backoff");
        }
    }

    #[test]
    fn failover_skips_quarantined_devices() {
        let topo = ClusterTopology::nvlink_mesh(2);
        let mut devs = devices(2, 100);
        devs[0].consecutive_failures = 5; // quarantined
        let view = FleetView {
            now: Nanos::ZERO,
            devices: &devs,
            topology: &topo,
            costs: costs(&no_cost),
        };
        let p = ChaosFailover {
            fault_rate: 0.0, // first healthy attempt succeeds
            ..ChaosFailover::default()
        };
        let placed = p.place(&req(0), 1 << 20, &view, &mut rng(0));
        assert_eq!(placed.device, 1, "healthy device preferred");
        assert!(placed.failed_devices.is_empty());
        assert_eq!(placed.queue_delay, Nanos::ZERO);
    }

    #[test]
    fn failover_forces_through_when_everything_fails() {
        let topo = ClusterTopology::nvlink_mesh(2);
        let devs = devices(2, 100);
        let view = FleetView {
            now: Nanos::ZERO,
            devices: &devs,
            topology: &topo,
            costs: costs(&no_cost),
        };
        let p = ChaosFailover {
            fault_rate: 1.0,
            ..ChaosFailover::default()
        };
        let placed = p.place(&req(3), 1 << 20, &view, &mut rng(3));
        assert!(placed.device < 2);
        assert!(placed.queue_delay > Nanos::ZERO);
        assert_eq!(
            p.admit(&req(3), 1 << 20, &view, &mut rng(3)),
            Admission::Accept,
            "failover never sheds"
        );
    }

    #[test]
    fn mode_advisor_places_predicted_best_mode_on_least_loaded_fit() {
        let topo = ClusterTopology::nvlink_mesh(2);
        let mut devs = devices(2, 100 << 20);
        devs[0].committed = 50 << 20;
        let r = req(0); // vector_seq @ tiny
        let w = hetsim_workloads::suite::by_name(r.workload, r.size).unwrap();
        let device = hetsim_runtime::Device::a100_epyc();
        let advised = hetsim::verify::advise_program(&w, &device).best().mode;
        let advice = || advised;
        let view = FleetView {
            now: Nanos::ZERO,
            devices: &devs,
            topology: &topo,
            costs: ModeCosts::new(&no_cost, &advice),
        };
        let p = ModeAdvisor;
        let placed = p.place(&r, 1 << 20, &view, &mut rng(0));
        assert_eq!(placed.device, 1, "least committed wins");
        assert_eq!(placed.queue_delay, Nanos::ZERO);
        assert_eq!(placed.gpu_scale, 1.0);
        // The mode is the advisor's pick for this workload.
        assert_eq!(placed.mode, advised);
        // Nothing fits: shed, not panic.
        assert_eq!(
            p.admit(&r, 200 << 20, &view, &mut rng(0)),
            Admission::Shed {
                reason: "no_capacity"
            }
        );
    }

    #[test]
    fn failover_sidelines_lifecycle_quarantined_devices() {
        let topo = ClusterTopology::nvlink_mesh(2);
        let mut devs = devices(2, 100);
        devs[0].health = HealthState::Draining;
        let view = FleetView {
            now: Nanos::ZERO,
            devices: &devs,
            topology: &topo,
            costs: costs(&no_cost),
        };
        let p = ChaosFailover {
            fault_rate: 0.0,
            ..ChaosFailover::default()
        };
        let placed = p.place(&req(0), 1 << 20, &view, &mut rng(0));
        assert_eq!(placed.device, 1, "non-admitting device goes to the back");
    }

    #[test]
    fn slo_deadline_sheds_predicted_misses() {
        let topo = ClusterTopology::nvlink_mesh(2);
        let mut devs = devices(2, 100);
        // Both devices' GPU queues drain long after the 50 ms deadline.
        for d in &mut devs {
            d.gpu_free = Nanos::from_millis(100);
        }
        let price = |_| JobStages {
            cpu: Nanos::from_micros(10),
            gpu: Nanos::from_micros(10),
        };
        let view = FleetView {
            now: Nanos::ZERO,
            devices: &devs,
            topology: &topo,
            costs: costs(&price),
        };
        let p = SloDeadline;
        assert_eq!(
            p.admit(&req(0), 10, &view, &mut rng(0)),
            Admission::Shed {
                reason: "predicted_deadline_miss"
            }
        );
        // An idle fleet admits and places in the preferred rung.
        let idle = devices(2, 100);
        let view = FleetView {
            now: Nanos::ZERO,
            devices: &idle,
            topology: &topo,
            costs: costs(&price),
        };
        assert_eq!(p.admit(&req(1), 10, &view, &mut rng(1)), Admission::Accept);
        let placed = p.place(&req(1), 10, &view, &mut rng(1));
        assert_eq!(placed.mode, ModeCosts::LADDER[0]);
        assert_eq!(placed.gpu_scale, 1.0);
    }

    #[test]
    fn slo_deadline_walks_the_ladder_before_shedding() {
        let topo = ClusterTopology::nvlink_mesh(2);
        let devs = devices(2, 100);
        // The preferred rungs blow the deadline; standard makes it.
        let price = |mode| JobStages {
            cpu: Nanos::ZERO,
            gpu: if mode == TransferMode::Standard {
                Nanos::from_millis(1)
            } else {
                Nanos::from_millis(100)
            },
        };
        let view = FleetView {
            now: Nanos::ZERO,
            devices: &devs,
            topology: &topo,
            costs: costs(&price),
        };
        let p = SloDeadline;
        assert_eq!(p.admit(&req(0), 10, &view, &mut rng(0)), Admission::Accept);
        let placed = p.place(&req(0), 10, &view, &mut rng(0));
        assert_eq!(
            placed.mode,
            TransferMode::Standard,
            "the ladder walks down to the rung that makes the deadline"
        );
    }

    #[test]
    fn slo_deadline_ignores_devices_that_refuse_work() {
        let topo = ClusterTopology::nvlink_mesh(2);
        let mut devs = devices(2, 100);
        devs[0].health = HealthState::Quarantined;
        let price = |_| JobStages {
            cpu: Nanos::ZERO,
            gpu: Nanos::from_micros(1),
        };
        let view = FleetView {
            now: Nanos::ZERO,
            devices: &devs,
            topology: &topo,
            costs: costs(&price),
        };
        let p = SloDeadline;
        assert_eq!(p.admit(&req(0), 10, &view, &mut rng(0)), Admission::Accept);
        let placed = p.place(&req(0), 10, &view, &mut rng(0));
        assert_eq!(placed.device, 1, "quarantined device skipped");
        // No device admits work at all: shed by capacity, not deadline.
        devs[1].health = HealthState::Draining;
        let view = FleetView {
            now: Nanos::ZERO,
            devices: &devs,
            topology: &topo,
            costs: costs(&price),
        };
        assert_eq!(
            p.admit(&req(1), 10, &view, &mut rng(1)),
            Admission::Shed {
                reason: "no_capacity"
            }
        );
    }

    #[test]
    fn mode_costs_price_each_rung_once_and_only_when_read() {
        let calls = Cell::new(0);
        let price = |mode| {
            calls.set(calls.get() + 1);
            JobStages {
                cpu: Nanos::ZERO,
                gpu: Nanos::from_micros(if mode == TransferMode::Uvm { 7 } else { 1 }),
            }
        };
        let c = costs(&price);
        assert_eq!(calls.get(), 0, "nothing priced up front");
        assert_eq!(c.get(TransferMode::Async), None, "async is off the ladder");
        assert_eq!(c.get(TransferMode::Uvm).unwrap().gpu, Nanos::from_micros(7));
        assert_eq!(calls.get(), 1);
        let rungs: Vec<_> = c.ladder().map(|(m, _)| m).collect();
        assert_eq!(rungs, ModeCosts::LADDER);
        assert_eq!(calls.get(), 4, "the ladder prices the three other rungs");
        let _ = c.ladder().count();
        assert_eq!(
            calls.get(),
            4,
            "a second walk is served from the priced rungs"
        );
        assert_eq!(c.advised_mode(), TransferMode::Standard);
    }

    #[test]
    fn policy_kind_round_trips() {
        for (kind, name) in PolicyKind::ALL.iter().zip(PolicyKind::NAMES) {
            assert_eq!(kind.name(), name);
            assert_eq!(PolicyKind::by_name(name), Some(*kind));
            assert_eq!(kind.build().name(), name);
        }
        assert!(PolicyKind::by_name("round_robin").is_none());
    }
}
