//! The fleet simulator: arrivals × policy × topology → a serving report.
//!
//! [`Fleet`] owns the expensive, shareable state — the cost table (each
//! workload's footprint and one base simulation per `(workload, mode)`,
//! prewarmed in parallel through the pool executor), the advisor's pick
//! per workload once asked for, and the cluster topology. [`Fleet::serve`]
//! then plays one arrival plan through one policy in a **single serial
//! pass in arrival order**: that pass is the determinism backbone, so no
//! thread count can reorder placement decisions. Parallelism lives where
//! order cannot leak — the prewarm grid and the independent
//! `(policy × rate)` cells of a [`ServeSweep`], both assembled in index
//! order by `hetsim::pool`.
//!
//! Per-device execution generalizes the batch `InterJobPipeline`
//! recurrence. A request is a two-stage job (CPU alloc stage, GPU
//! memcpy+kernel stage) with a *release time* (its arrival plus any
//! policy-charged queue delay):
//!
//! ```text
//! cpu_start = max(release, cpu_free[d])      cpu_free[d] = cpu_start + cpu
//! gpu_start = max(cpu_done, gpu_free[d])     gpu_free[d] = gpu_start + gpu
//! ```
//!
//! With every release at zero this is *exactly* the pipelined schedule of
//! `InterJobPipeline` — pinned by a unit test — so the serving layer and
//! the batch figures share one execution model rather than two
//! re-implementations that could drift.

use crate::arrival::{ArrivalMix, ArrivalPlan};
use crate::metrics::{DeviceUtilization, LatencyAccumulator, PolicyReport, ServeReport};
use crate::policy::{Admission, DeviceView, FleetView, ModeCosts, PolicyKind, ServingPolicy};
use crate::resilience::{Attempts, Resilience, ResilienceConfig};
use crate::topology::ClusterTopology;
use hetsim::batch::JobStages;
use hetsim::{pool, Experiment};
use hetsim_engine::rng::SimRng;
use hetsim_engine::time::Nanos;
use hetsim_runtime::{
    ChaosOverhead, Device, GpuProgram, HealthState, HealthTimeline, LifecycleEvent, TransferMode,
};
use hetsim_trace::{Category, Dim, Trace, TraceBuilder, TraceConfig, TraceSink};
use hetsim_workloads::spec::Workload;
use hetsim_workloads::{suite, InputSize};
use std::collections::{HashMap, VecDeque};
use std::sync::OnceLock;

/// Configuration of one serving cell.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The policy under test.
    pub policy: PolicyKind,
    /// The arrival mix.
    pub mix: ArrivalMix,
    /// Base seed (arrivals, noise, and policy draws all derive from it).
    pub seed: u64,
    /// Number of offered requests.
    pub requests: u64,
}

/// One request that ran to completion, with its full schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedRequest {
    /// Request id (arrival order).
    pub id: u64,
    /// Workload registry name.
    pub workload: &'static str,
    /// Transfer mode it ran in.
    pub mode: TransferMode,
    /// Device it landed on.
    pub device: usize,
    /// Arrival instant.
    pub arrival: Nanos,
    /// Policy-charged delay before the CPU stage could start.
    pub queue_delay: Nanos,
    /// CPU (alloc) stage start.
    pub cpu_start: Nanos,
    /// CPU stage duration.
    pub cpu_dur: Nanos,
    /// GPU (memcpy+kernel) stage start.
    pub gpu_start: Nanos,
    /// GPU stage duration (after any policy scaling).
    pub gpu_dur: Nanos,
    /// Devices that failed a placement attempt before this one, in
    /// attempt order.
    pub failed_devices: Vec<usize>,
    /// The request's SLO deadline (arrival + budget).
    pub deadline: Nanos,
    /// Additive recovery cost the resilience layer charged this request
    /// (retry backoff, abandoned partial work, re-staging, degraded
    /// service). All-zero for a fault-free run.
    pub recovery: ChaosOverhead,
    /// Whether the request was hedged off a degraded primary onto a peer.
    pub hedged: bool,
}

impl CompletedRequest {
    /// Completion instant (GPU stage end).
    pub fn completion(&self) -> Nanos {
        self.gpu_start + self.gpu_dur
    }

    /// End-to-end latency: arrival → completion, queueing included.
    pub fn latency(&self) -> Nanos {
        self.completion() - self.arrival
    }
}

/// One request shed at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedRequest {
    /// Request id.
    pub id: u64,
    /// Arrival instant.
    pub arrival: Nanos,
    /// The policy's shed reason.
    pub reason: &'static str,
}

/// Everything one serving cell produced: the report plus the raw
/// schedule, from which [`FleetOutcome::trace`] renders the observability
/// view.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The aggregated report.
    pub report: PolicyReport,
    /// Completed requests in arrival order.
    pub completed: Vec<CompletedRequest>,
    /// Shed requests in arrival order.
    pub shed: Vec<ShedRequest>,
    /// Fleet size (device count).
    pub devices: usize,
    /// Device-lifecycle transitions the fault plan produced, sorted by
    /// `(time, device)`. Empty for a fault-free run.
    pub lifecycle: Vec<LifecycleEvent>,
    /// Requests hedged onto a peer device.
    pub hedges: usize,
}

/// Per-device scheduling state for the serial pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeviceState {
    cpu_free: Nanos,
    gpu_free: Nanos,
    /// In-flight working sets `(completion, bytes)`, in completion order:
    /// a device's GPU stages run back to back, so each request placed on
    /// it completes no earlier than the one before.
    inflight: VecDeque<(Nanos, u64)>,
    /// Sum of the in-flight bytes.
    committed: u64,
    busy: Nanos,
    completed: usize,
    peak_committed: u64,
    consecutive_failures: u32,
}

impl DeviceState {
    /// Drops working sets completed by `now` and returns committed bytes.
    fn settle(&mut self, now: Nanos) -> u64 {
        while let Some(&(done, bytes)) = self.inflight.front() {
            if done > now {
                break;
            }
            self.committed -= bytes;
            self.inflight.pop_front();
        }
        self.committed
    }

    /// When this device's GPU queue drains: the peer order of the
    /// recovery walk.
    pub(crate) fn gpu_free(&self) -> Nanos {
        self.gpu_free
    }

    /// Where `slot` would run here, without booking it: `(cpu_start,
    /// completion)` by the same two-stage recurrence as [`DeviceState::run`].
    pub(crate) fn peek(&self, slot: Slot) -> (Nanos, Nanos) {
        let (mut cpu_free, mut gpu_free) = (self.cpu_free, self.gpu_free);
        let (cpu_start, _) =
            two_stage_step(slot.release, slot.stages, &mut cpu_free, &mut gpu_free);
        (cpu_start, gpu_free)
    }

    /// Counts a failed placement attempt against this device.
    pub(crate) fn fail(&mut self) {
        self.consecutive_failures += 1;
    }

    /// Runs `slot`'s stages on this device (the two-stage recurrence),
    /// books its working set and ends its failure streak: returns
    /// `(cpu_start, gpu_start)`.
    fn run(&mut self, slot: Slot, footprint: u64) -> (Nanos, Nanos) {
        self.consecutive_failures = 0;
        let (cpu_start, gpu_start) = two_stage_step(
            slot.release,
            slot.stages,
            &mut self.cpu_free,
            &mut self.gpu_free,
        );
        let done = gpu_start + slot.stages.gpu;
        debug_assert!(self.inflight.back().is_none_or(|&(last, _)| last <= done));
        self.busy += slot.stages.gpu;
        self.completed += 1;
        self.inflight.push_back((done, footprint));
        self.committed += footprint;
        self.peak_committed = self.peak_committed.max(self.committed);
        (cpu_start, gpu_start)
    }
}

/// Where and when a request runs: its device, the release time of its
/// CPU stage, and the stage costs it is charged there.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub(crate) device: usize,
    pub(crate) release: Nanos,
    pub(crate) stages: JobStages,
}

/// The two-stage pipelined step shared with `InterJobPipeline` (see the
/// module docs): returns `(cpu_start, gpu_start)` and advances the
/// per-device availability clocks.
pub(crate) fn two_stage_step(
    release: Nanos,
    stages: JobStages,
    cpu_free: &mut Nanos,
    gpu_free: &mut Nanos,
) -> (Nanos, Nanos) {
    let cpu_start = release.max(*cpu_free);
    let cpu_done = cpu_start + stages.cpu;
    *cpu_free = cpu_done;
    let gpu_start = cpu_done.max(*gpu_free);
    *gpu_free = gpu_start + stages.gpu;
    (cpu_start, gpu_start)
}

/// A mode's noise-free stage components from the prewarm base run.
#[derive(Debug, Clone, Copy)]
struct BaseStages {
    alloc: Nanos,
    memcpy: Nanos,
    kernel: Nanos,
}

/// One catalog workload and its serving costs, filled once from the
/// prewarm.
#[derive(Debug)]
struct CostRow {
    workload: Workload,
    /// Working-set bytes.
    footprint: u64,
    /// Base stages per mode, in `TransferMode::ALL` order, which is the
    /// declaration order: indexed by `mode as usize`.
    base: [BaseStages; TransferMode::ALL.len()],
    /// The advisor's pick, computed the first time it is asked for.
    advice: OnceLock<TransferMode>,
}

/// A GPU fleet with a prewarmed cost model, ready to serve arrival plans.
pub struct Fleet {
    topology: ClusterTopology,
    experiment: Experiment,
    /// Catalog name → row of `costs`.
    catalog: HashMap<&'static str, usize>,
    costs: Vec<CostRow>,
    size: InputSize,
}

impl Fleet {
    /// Builds a fleet over `topology` serving the full workload registry
    /// at `size`, and prewarms the cost model: one deterministic base
    /// simulation per `(workload, transfer mode)`, fanned across the pool
    /// executor and assembled in index order into the fleet's cost table,
    /// so thread count cannot affect anything downstream.
    pub fn new(topology: ClusterTopology, size: InputSize) -> Fleet {
        Fleet::with_experiment(topology, size, Experiment::new())
    }

    /// Like [`Fleet::new`], but prewarms through a caller-supplied
    /// [`Experiment`] — the hook for attaching an on-disk result cache so
    /// repeated serve runs skip the cold prewarm grid.
    pub fn with_experiment(
        topology: ClusterTopology,
        size: InputSize,
        experiment: Experiment,
    ) -> Fleet {
        let names = ArrivalPlan::full_catalog();
        let workloads: Vec<Workload> = names
            .iter()
            .map(|name| suite::by_name(name, size).expect("catalog names come from the registry"))
            .collect();
        let modes = TransferMode::ALL.len();
        let base = pool::run(workloads.len() * modes, |i| {
            let r = experiment.base_run(&workloads[i / modes], TransferMode::ALL[i % modes]);
            BaseStages {
                alloc: r.alloc,
                memcpy: r.memcpy,
                kernel: r.kernel,
            }
        });
        let costs = workloads
            .into_iter()
            .zip(base.chunks_exact(modes))
            .map(|(workload, base)| CostRow {
                footprint: workload.footprint(),
                base: base.try_into().expect("one base run per mode"),
                advice: OnceLock::new(),
                workload,
            })
            .collect();
        Fleet {
            topology,
            experiment,
            catalog: names.iter().enumerate().map(|(i, &n)| (n, i)).collect(),
            costs,
            size,
        }
    }

    /// An NVLink-mesh fleet of `gpus` devices at `size` (the CLI default).
    pub fn nvlink(gpus: usize, size: InputSize) -> Fleet {
        Fleet::new(ClusterTopology::nvlink_mesh(gpus), size)
    }

    /// The stage costs the fleet charges request `run_index` of `workload`
    /// in `mode`: the memoized base run with that run's measurement noise
    /// (`run_index` is the request id, matching the batch harness
    /// convention). `None` if the workload is not in the catalog.
    pub fn request_stages(
        &self,
        workload: &str,
        mode: TransferMode,
        run_index: u64,
    ) -> Option<JobStages> {
        let row = *self.catalog.get(workload)?;
        Some(self.noisy_stages(row, mode, run_index))
    }

    fn noisy_stages(&self, row: usize, mode: TransferMode, run_index: u64) -> JobStages {
        let row = &self.costs[row];
        let base = row.base[mode as usize];
        let noise =
            self.experiment
                .runner()
                .noise(row.workload.name(), row.footprint, mode, run_index);
        JobStages {
            cpu: base.alloc.scale(noise.alloc),
            gpu: base.memcpy.scale(noise.memcpy) + base.kernel.scale(noise.kernel),
        }
    }

    /// The advisor's pick for a catalog row, computed the first time it
    /// is asked for and held for the fleet's lifetime.
    fn advised_mode(&self, row: usize) -> TransferMode {
        let row = &self.costs[row];
        *row.advice.get_or_init(|| {
            hetsim::verify::advise_program(&row.workload, &Device::a100_epyc())
                .best()
                .mode
        })
    }

    /// Plays one serving cell: generates the arrival plan, admits and
    /// places every request through `config.policy`, schedules per-device
    /// execution, and aggregates the report.
    pub fn serve(&self, config: &ServeConfig) -> FleetOutcome {
        let policy = config.policy.build();
        let plan = ArrivalPlan::generate(
            config.mix,
            config.seed,
            config.requests,
            &ArrivalPlan::full_catalog(),
            self.size,
        );
        self.serve_plan(&plan, policy.as_ref(), config.seed)
    }

    /// Plays one serving cell under a fault plan: like [`Fleet::serve`],
    /// but with `res.slo_budget` as every request's deadline budget and
    /// the device-lifecycle timeline of `res.plan` driving health,
    /// deadline-budgeted retries, and hedging. At intensity zero the
    /// timeline is empty and the outcome is byte-identical to
    /// [`Fleet::serve`] with the same config (given the default budget).
    ///
    /// # Panics
    ///
    /// Panics if `res.plan` fails [`validation`](hetsim_runtime::FleetFaultPlan::validate).
    pub fn serve_resilient(&self, config: &ServeConfig, res: &ResilienceConfig) -> FleetOutcome {
        res.plan
            .validate()
            .expect("resilience fault plan must be valid");
        let policy = config.policy.build();
        let plan = ArrivalPlan::generate_with_deadline(
            config.mix,
            config.seed,
            config.requests,
            &ArrivalPlan::full_catalog(),
            self.size,
            res.slo_budget,
        );
        // A deterministic timeline horizon: the last arrival plus the SLO
        // budget plus one full episode cycle of margin. Work queued past
        // it simply sees a recovered fleet.
        let last = plan
            .requests
            .last()
            .map(|r| r.arrival)
            .unwrap_or(Nanos::ZERO);
        let margin = res.plan.degrade_lead + res.plan.repair + res.plan.drain + res.plan.cooldown;
        let horizon = last + res.slo_budget + margin;
        let timeline = HealthTimeline::generate(&res.plan, self.topology.len(), horizon);
        let resilience = Resilience {
            timeline,
            cfg: *res,
        };
        self.run_plan(&plan, policy.as_ref(), config.seed, Some(&resilience))
    }

    /// [`Fleet::serve`] with an explicit plan and policy instance (the
    /// extension point for custom policies).
    ///
    /// # Panics
    ///
    /// Panics if a request names a workload outside the registry or
    /// carries another input size than the fleet's (its costs and advice
    /// are the fleet's size).
    pub fn serve_plan(
        &self,
        plan: &ArrivalPlan,
        policy: &dyn ServingPolicy,
        seed: u64,
    ) -> FleetOutcome {
        self.run_plan(plan, policy, seed, None)
    }

    /// The single serial pass shared by the fault-free and resilient
    /// entry points. When `res` is `None` *or its timeline is empty*, the
    /// resilient branches are never entered — zero extra arithmetic, zero
    /// extra RNG draws — which is what makes an intensity-zero resilient
    /// run byte-identical to the plain one.
    ///
    /// Per request the pass does scheduling arithmetic only: costs come
    /// from the fleet's table (a rung is priced when a policy reads it),
    /// the device views are refilled in one reused buffer, and each
    /// device's health is read once.
    fn run_plan(
        &self,
        plan: &ArrivalPlan,
        policy: &dyn ServingPolicy,
        seed: u64,
        res: Option<&Resilience>,
    ) -> FleetOutcome {
        let n = self.topology.len();
        let rows: Vec<usize> = plan
            .requests
            .iter()
            .map(|r| {
                assert_eq!(r.size, self.size, "request size differs from the fleet's");
                *self
                    .catalog
                    .get(r.workload)
                    .expect("request workloads come from the catalog")
            })
            .collect();
        let mut states = vec![DeviceState::default(); n];
        let mut views: Vec<DeviceView> = Vec::with_capacity(n);
        let mut completed = Vec::new();
        let mut shed = Vec::new();
        let mut failovers = 0usize;
        let mut hedges = 0usize;
        let mut recovery_total = ChaosOverhead::default();
        // O(1)-per-sample latency accounting: exact for small cells,
        // fixed-memory streaming histogram past the exact limit.
        let mut latency = LatencyAccumulator::new();
        // An armed-but-quiet timeline behaves exactly like no timeline.
        let active = res.filter(|r| !r.timeline.is_empty());

        for (req, &row) in plan.requests.iter().zip(&rows) {
            let footprint = self.costs[row].footprint;

            // Snapshot the fleet as of this arrival.
            views.clear();
            views.extend(states.iter_mut().enumerate().map(|(index, s)| {
                let committed = s.settle(req.arrival);
                let base_capacity = self.topology.capacity(index);
                let (capacity, health) = match active {
                    Some(r) => {
                        let health = r.timeline.state(index, req.arrival);
                        let f = r.timeline.capacity_factor(health);
                        let cap = if f < 1.0 {
                            (base_capacity as f64 * f) as u64
                        } else {
                            base_capacity
                        };
                        (cap, health)
                    }
                    None => (base_capacity, HealthState::Healthy),
                };
                DeviceView {
                    index,
                    cpu_free: s.cpu_free,
                    gpu_free: s.gpu_free,
                    committed,
                    capacity,
                    inflight: s.inflight.len(),
                    consecutive_failures: s.consecutive_failures,
                    health,
                }
            }));
            let price = |mode| self.noisy_stages(row, mode, req.id);
            let advice = || self.advised_mode(row);
            let view = FleetView {
                now: req.arrival,
                devices: &views,
                topology: &self.topology,
                costs: ModeCosts::new(&price, &advice),
            };

            // One deterministic RNG per request, independent of every
            // other request's draws.
            let mut rng = SimRng::seed_from_parts(
                &["serve.fleet", policy.name()],
                config_index(seed, req.id),
            );

            if let Admission::Shed { reason } = policy.admit(req, footprint, &view, &mut rng) {
                shed.push(ShedRequest {
                    id: req.id,
                    arrival: req.arrival,
                    reason,
                });
                continue;
            }

            let placement = policy.place(req, footprint, &view, &mut rng);
            assert!(placement.device < n, "policy placed outside the fleet");
            let stages = view
                .costs
                .get(placement.mode)
                .unwrap_or_else(|| price(placement.mode));
            let gpu_dur = if placement.gpu_scale > 1.0 {
                stages.gpu.scale(placement.gpu_scale)
            } else {
                stages.gpu
            };

            // Chaos bookkeeping before the schedule advances.
            for &failed in &placement.failed_devices {
                states[failed].fail();
            }
            let primary = Slot {
                device: placement.device,
                release: req.arrival + placement.queue_delay,
                stages: JobStages {
                    cpu: stages.cpu,
                    gpu: gpu_dur,
                },
            };
            let mut attempts = Attempts {
                failed_devices: placement.failed_devices,
                ..Attempts::default()
            };
            // Resolve the slot — trivially on the fault-free path,
            // through the deadline-budgeted attempt walk when a lifecycle
            // timeline is armed.
            let landed = match active {
                None => Ok(primary),
                Some(r) => r.walk(
                    &self.topology,
                    &mut states,
                    primary,
                    footprint,
                    req.deadline,
                    &mut attempts,
                ),
            };
            failovers += attempts.failed_devices.len();
            add_overhead(&mut recovery_total, attempts.recovery);
            let slot = match landed {
                Ok(slot) => slot,
                Err(reason) => {
                    // Attempts exhausted: shed post-admission; the wasted
                    // attempt work still lands in the ledger.
                    shed.push(ShedRequest {
                        id: req.id,
                        arrival: req.arrival,
                        reason,
                    });
                    continue;
                }
            };
            if attempts.hedged {
                hedges += 1;
            }

            let (cpu_start, gpu_start) = states[slot.device].run(slot, footprint);
            latency.observe(gpu_start + slot.stages.gpu - req.arrival);

            completed.push(CompletedRequest {
                id: req.id,
                workload: req.workload,
                mode: placement.mode,
                device: slot.device,
                arrival: req.arrival,
                queue_delay: placement.queue_delay,
                cpu_start,
                cpu_dur: stages.cpu,
                gpu_start,
                gpu_dur: slot.stages.gpu,
                failed_devices: attempts.failed_devices,
                deadline: req.deadline,
                recovery: attempts.recovery,
                hedged: attempts.hedged,
            });
        }

        let horizon = completed
            .iter()
            .map(CompletedRequest::completion)
            .max()
            .unwrap_or(Nanos::ZERO);
        let horizon_s = horizon.as_secs_f64();
        let per_device: Vec<DeviceUtilization> = states
            .iter()
            .enumerate()
            .map(|(i, s)| DeviceUtilization {
                device: self.topology.device_label(i),
                completed: s.completed,
                busy: s.busy,
                utilization: if horizon_s > 0.0 {
                    s.busy.as_secs_f64() / horizon_s
                } else {
                    0.0
                },
                peak_committed: s.peak_committed,
            })
            .collect();

        let deadline_misses = completed
            .iter()
            .filter(|c| c.completion() > c.deadline)
            .count();
        let report = PolicyReport {
            policy: policy.name().to_string(),
            mix: plan.mix.name().to_string(),
            rate_rps: plan.mix.base_rate(),
            seed,
            offered: plan.requests.len(),
            completed: completed.len(),
            shed: shed.len(),
            failovers,
            hedges,
            deadline_misses,
            slo_attainment: if plan.requests.is_empty() {
                0.0
            } else {
                (completed.len() - deadline_misses) as f64 / plan.requests.len() as f64
            },
            recovery: recovery_total,
            horizon,
            goodput_rps: if horizon_s > 0.0 {
                completed.len() as f64 / horizon_s
            } else {
                0.0
            },
            latency: latency.finalize(),
            per_device,
        };

        FleetOutcome {
            report,
            completed,
            shed,
            devices: n,
            lifecycle: active.map(|r| r.timeline.events()).unwrap_or_default(),
            hedges,
        }
    }
}

/// Accumulates one request's recovery ledger into the run total
/// (component-wise, preserving separability).
fn add_overhead(total: &mut ChaosOverhead, part: ChaosOverhead) {
    total.alloc += part.alloc;
    total.memcpy += part.memcpy;
    total.kernel += part.kernel;
    total.system += part.system;
}

/// Mixes a serve seed and a request id into one RNG index (SplitMix-style
/// odd multiplier spreads consecutive seeds far apart before the id is
/// added, so per-request streams never overlap within a run).
fn config_index(seed: u64, id: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(id)
}

impl FleetOutcome {
    /// Renders the schedule as a trace: per device a `gpu{d}.cpu` and a
    /// `gpu{d}.gpu` track (alloc / kernel spans per request, labeled with
    /// the `device`, `job`, and `mode` dimensions), plus a `fleet` track
    /// carrying shed and failover instants. Emission order is fixed —
    /// fleet track first, then devices in index order, requests in
    /// arrival order — so exports are byte-identical regardless of how
    /// the outcome was computed.
    pub fn trace(&self, config: TraceConfig) -> Trace {
        self.render(TraceBuilder::new(config))
    }

    /// [`FleetOutcome::trace`] with a streaming sink attached: events are
    /// drained to `sink` incrementally, so arbitrarily long serving runs
    /// export without buffering the whole schedule.
    pub fn trace_streaming(&self, config: TraceConfig, sink: Box<dyn TraceSink>) -> Trace {
        self.render(TraceBuilder::new(config).with_sink(sink))
    }

    /// The number of events [`FleetOutcome::trace`] emits (for sizing
    /// ring capacities).
    pub fn trace_events(&self) -> usize {
        2 * self.completed.len()
            + self.shed.len()
            + self.lifecycle.len()
            + self.hedges
            + self
                .completed
                .iter()
                .filter(|c| !c.failed_devices.is_empty())
                .count()
    }

    fn render(&self, mut b: TraceBuilder) -> Trace {
        let fleet = b.track("fleet");
        // Lifecycle transitions first: the fault plan's schedule is the
        // backdrop the per-request events play against.
        for e in &self.lifecycle {
            b.instant_at(
                fleet,
                Category::Chaos,
                format!("{}[gpu{}]", e.phase.name(), e.device),
                e.at.as_nanos(),
                None,
            );
        }
        for s in &self.shed {
            b.instant_at(
                fleet,
                Category::Chaos,
                format!("shed[{}]({})", s.id, s.reason),
                s.arrival.as_nanos(),
                None,
            );
        }
        for c in self
            .completed
            .iter()
            .filter(|c| !c.failed_devices.is_empty())
        {
            b.instant_at(
                fleet,
                Category::Chaos,
                format!("failover[{}]", c.id),
                c.arrival.as_nanos(),
                Some(("hops", c.failed_devices.len() as f64)),
            );
        }
        for c in self.completed.iter().filter(|c| c.hedged) {
            b.instant_at(
                fleet,
                Category::Chaos,
                format!("hedge[{}]", c.id),
                c.arrival.as_nanos(),
                None,
            );
        }
        for d in 0..self.devices {
            let cpu = b.track(&format!("gpu{d}.cpu"));
            let gpu = b.track(&format!("gpu{d}.gpu"));
            for c in self.completed.iter().filter(|c| c.device == d) {
                b.set_label(Dim::Device, &format!("gpu{d}"));
                b.set_label(Dim::Job, &c.id.to_string());
                b.set_label(Dim::Mode, c.mode.name());
                b.span_at(
                    cpu,
                    Category::Alloc,
                    format!("alloc[{}]", c.id),
                    c.cpu_start.as_nanos(),
                    c.cpu_dur.as_nanos(),
                );
                b.span_at(
                    gpu,
                    Category::Kernel,
                    format!("kernel[{}]", c.id),
                    c.gpu_start.as_nanos(),
                    c.gpu_dur.as_nanos(),
                );
            }
            b.clear_label(Dim::Device);
            b.clear_label(Dim::Job);
            b.clear_label(Dim::Mode);
        }
        b.finish()
    }
}

/// A `(policy × rate)` sweep over one fleet — the serving analogue of the
/// chaos degradation sweep, with cells fanned across the pool executor
/// and assembled in grid order.
#[derive(Debug, Clone)]
pub struct ServeSweep {
    /// Policies, in report order.
    pub policies: Vec<PolicyKind>,
    /// Base arrival rates (requests per second), in report order.
    pub rates: Vec<f64>,
    /// Mix name (`poisson`, `bursty`, `diurnal`); each rate instantiates
    /// it via [`ArrivalMix::by_name`].
    pub mix: String,
    /// Base seed.
    pub seed: u64,
    /// Offered requests per cell.
    pub requests: u64,
}

impl ServeSweep {
    /// Runs every `(policy, rate)` cell on `fleet` and collects the
    /// report. Cells are independent, so they fan out through
    /// `hetsim::pool`; results are assembled in grid order (policy-major),
    /// which keeps the report identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the policy or rate list is empty, or the mix name is
    /// unknown.
    pub fn run(&self, fleet: &Fleet) -> ServeReport {
        assert!(!self.policies.is_empty(), "sweep needs at least one policy");
        assert!(!self.rates.is_empty(), "sweep needs at least one rate");
        assert!(
            ArrivalMix::by_name(&self.mix, 1.0).is_some(),
            "unknown mix {:?}",
            self.mix
        );
        let grid: Vec<(PolicyKind, f64)> = self
            .policies
            .iter()
            .flat_map(|&p| self.rates.iter().map(move |&r| (p, r)))
            .collect();
        let cells = pool::run(grid.len(), |i| {
            let (policy, rate) = grid[i];
            let mix = ArrivalMix::by_name(&self.mix, rate).expect("mix validated above");
            fleet
                .serve(&ServeConfig {
                    policy,
                    mix,
                    seed: self.seed,
                    requests: self.requests,
                })
                .report
        });
        ServeReport { cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::batch::InterJobPipeline;

    fn small_fleet(gpus: usize) -> Fleet {
        Fleet::nvlink(gpus, InputSize::Tiny)
    }

    fn config(policy: PolicyKind, requests: u64) -> ServeConfig {
        ServeConfig {
            policy,
            mix: ArrivalMix::Poisson { rate_rps: 500.0 },
            seed: 11,
            requests,
        }
    }

    #[test]
    fn two_stage_step_matches_interjob_pipeline() {
        // With every release at zero, folding the step over a job list is
        // exactly the batch pipeline's schedule.
        let jobs: Vec<JobStages> = [(40u64, 60u64), (10, 90), (90, 10), (55, 55), (1, 200)]
            .iter()
            .map(|&(c, g)| JobStages {
                cpu: Nanos::from_millis(c),
                gpu: Nanos::from_millis(g),
            })
            .collect();
        let mut cpu_free = Nanos::ZERO;
        let mut gpu_free = Nanos::ZERO;
        for &j in &jobs {
            two_stage_step(Nanos::ZERO, j, &mut cpu_free, &mut gpu_free);
        }
        let expected = InterJobPipeline::new(jobs).estimate().pipelined;
        assert_eq!(gpu_free, expected, "fleet recurrence == batch pipeline");
    }

    #[test]
    fn release_times_delay_the_schedule() {
        let j = JobStages {
            cpu: Nanos::from_millis(10),
            gpu: Nanos::from_millis(20),
        };
        let mut cpu_free = Nanos::ZERO;
        let mut gpu_free = Nanos::ZERO;
        let (cpu_start, gpu_start) =
            two_stage_step(Nanos::from_millis(5), j, &mut cpu_free, &mut gpu_free);
        assert_eq!(cpu_start, Nanos::from_millis(5));
        assert_eq!(gpu_start, Nanos::from_millis(15));
        // A second job released earlier still queues behind the first.
        let (cpu2, _) = two_stage_step(Nanos::ZERO, j, &mut cpu_free, &mut gpu_free);
        assert_eq!(cpu2, Nanos::from_millis(15));
    }

    #[test]
    #[should_panic(expected = "request size differs from the fleet's")]
    fn a_plan_at_another_size_is_rejected() {
        let plan = ArrivalPlan::generate(
            ArrivalMix::Poisson { rate_rps: 500.0 },
            1,
            4,
            &ArrivalPlan::full_catalog(),
            InputSize::Small,
        );
        let policy = PolicyKind::ModeAdvisor.build();
        small_fleet(1).serve_plan(&plan, policy.as_ref(), 1);
    }

    #[test]
    fn serve_is_reproducible() {
        let fleet = small_fleet(2);
        let cfg = config(PolicyKind::ModePacking, 40);
        let a = fleet.serve(&cfg);
        let b = fleet.serve(&cfg);
        assert_eq!(a.report, b.report);
        assert_eq!(a.completed, b.completed);
        // And across independently built fleets (no hidden shared state).
        let c = small_fleet(2).serve(&cfg);
        assert_eq!(a.report, c.report);
    }

    #[test]
    fn all_policies_complete_requests() {
        let fleet = small_fleet(2);
        for kind in PolicyKind::ALL {
            let out = fleet.serve(&config(kind, 30));
            assert_eq!(
                out.report.offered,
                out.report.completed + out.report.shed,
                "{}: offered = completed + shed",
                kind.name()
            );
            assert!(
                out.report.completed > 0,
                "{}: tiny requests must mostly complete",
                kind.name()
            );
            assert!(out.report.horizon > Nanos::ZERO);
            assert!(out.report.goodput_rps > 0.0);
            assert_eq!(out.report.per_device.len(), 2);
            for c in &out.completed {
                assert!(c.cpu_start >= c.arrival, "no time travel");
                assert!(c.gpu_start >= c.cpu_start + c.cpu_dur);
                assert!(c.latency() >= c.gpu_dur);
            }
        }
    }

    #[test]
    fn resilient_at_intensity_zero_is_plain_serve() {
        // The separability anchor: an armed-but-quiet resilience config
        // must reproduce the fault-free schedule exactly.
        let fleet = small_fleet(2);
        for kind in [PolicyKind::ChaosFailover, PolicyKind::SloDeadline] {
            let cfg = config(kind, 30);
            let plain = fleet.serve(&cfg);
            let res = fleet.serve_resilient(&cfg, &ResilienceConfig::default());
            assert_eq!(plain.report, res.report, "{}", kind.name());
            assert_eq!(plain.completed, res.completed);
            assert_eq!(plain.shed, res.shed);
            assert!(res.lifecycle.is_empty());
            assert_eq!(res.hedges, 0);
        }
    }

    #[test]
    fn faults_charge_the_recovery_ledger() {
        let fleet = small_fleet(2);
        let cfg = config(PolicyKind::ChaosFailover, 60);
        let res = ResilienceConfig::at_intensity(cfg.seed, 1.0);
        let out = fleet.serve_resilient(&cfg, &res);
        assert!(
            !out.lifecycle.is_empty(),
            "full intensity must produce lifecycle episodes"
        );
        assert_eq!(out.report.offered, out.report.completed + out.report.shed);
        // The run ledger covers at least every completed request's
        // charges (shed attempts add more, never less).
        let mut sum = ChaosOverhead::default();
        for c in &out.completed {
            add_overhead(&mut sum, c.recovery);
        }
        assert!(out.report.recovery.total() >= sum.total());
        assert_eq!(
            out.hedges,
            out.completed.iter().filter(|c| c.hedged).count()
        );
        // Determinism: the same armed run reproduces itself.
        let again = fleet.serve_resilient(&cfg, &res);
        assert_eq!(out.report, again.report);
        assert_eq!(out.completed, again.completed);
        assert_eq!(out.lifecycle, again.lifecycle);
    }

    #[test]
    fn latency_grows_with_load() {
        // Same offered work, 10x the arrival rate: queueing must show up
        // in the tail.
        let fleet = small_fleet(1);
        let slow = fleet.serve(&ServeConfig {
            policy: PolicyKind::ModePacking,
            mix: ArrivalMix::Poisson { rate_rps: 2.0 },
            seed: 5,
            requests: 30,
        });
        let fast = fleet.serve(&ServeConfig {
            policy: PolicyKind::ModePacking,
            mix: ArrivalMix::Poisson { rate_rps: 2000.0 },
            seed: 5,
            requests: 30,
        });
        assert!(
            fast.report.latency.p99 > slow.report.latency.p99,
            "open-loop overload must inflate p99: {:?} vs {:?}",
            fast.report.latency.p99,
            slow.report.latency.p99
        );
    }

    #[test]
    fn trace_covers_every_completion() {
        let fleet = small_fleet(2);
        let out = fleet.serve(&config(PolicyKind::ChaosFailover, 25));
        let cap = out.trace_events().max(1);
        let trace = out.trace(TraceConfig::default().with_capacity(cap));
        assert_eq!(trace.dropped(), 0, "capacity estimate must hold");
        assert_eq!(trace.total_events(), out.trace_events() as u64);
        // Device + job labels are queryable, per the observability
        // contract.
        let jsonl = trace.to_jsonl();
        assert!(jsonl.contains("\"device\":\"gpu0\""));
        assert!(jsonl.contains("\"job\":\"0\""));
        // The trace horizon is the report horizon.
        assert_eq!(trace.horizon(), out.report.horizon.as_nanos());
    }

    #[test]
    fn sweep_grid_is_policy_major() {
        let fleet = small_fleet(2);
        let sweep = ServeSweep {
            policies: vec![PolicyKind::ModePacking, PolicyKind::UvmSpillover],
            rates: vec![100.0, 1000.0],
            mix: "poisson".into(),
            seed: 3,
            requests: 12,
        };
        let report = sweep.run(&fleet);
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.cells[0].policy, "mode_packing");
        assert_eq!(report.cells[1].policy, "mode_packing");
        assert_eq!(report.cells[2].policy, "uvm_spillover");
        assert!((report.cells[0].rate_rps - 100.0).abs() < 1e-9);
        assert!((report.cells[1].rate_rps - 1000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one policy")]
    fn empty_sweep_rejected() {
        let sweep = ServeSweep {
            policies: vec![],
            rates: vec![1.0],
            mix: "poisson".into(),
            seed: 0,
            requests: 1,
        };
        let _ = sweep.run(&small_fleet(1));
    }
}
