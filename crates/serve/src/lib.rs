//! Server mode: a simulated GPU fleet under live traffic.
//!
//! Every other entry point in the hetsim suite is a *batch* sweep — run a
//! workload N times, average, compare transfer modes. This crate puts the
//! same cost models behind a serving front door: an **open-loop** arrival
//! process drives requests drawn from the 22-workload registry onto a
//! multi-GPU cluster, an [`AdmissionPolicy`]/[`PlacementPolicy`] pair
//! decides which requests run where and in which transfer mode, and the
//! fleet reports the numbers a service owner actually watches — p50/p99/
//! p999 latency, goodput, and per-device utilization.
//!
//! # Open-loop vs. closed-loop
//!
//! A **closed-loop** load generator models N captive users: each waits for
//! its previous response before issuing the next request, so when the
//! system slows down the offered load politely slows down with it. That
//! feedback hides exactly the failure mode a serving layer exists to
//! manage — queueing collapse under load the system did not choose.
//! An **open-loop** generator ([`arrival`]) instead schedules arrivals
//! from an external clock (Poisson, bursty, diurnal): requests keep
//! landing whether or not the fleet is keeping up, queues grow without
//! bound past saturation, and tail latency honestly explodes. All serving
//! experiments in this crate are open-loop; the batch sweeps elsewhere in
//! the suite are the closed-loop limit (concurrency 1).
//!
//! # Pipeline
//!
//! 1. [`arrival::ArrivalPlan::generate`] samples a seeded request sequence.
//! 2. [`topology::ClusterTopology`] describes the devices and their peer
//!    links (NVLink / NUMA-remote).
//! 3. A [`policy`] implementation admits and places each request.
//! 4. [`fleet::Fleet`] schedules per-device execution with the same
//!    two-stage (CPU alloc / GPU work) recurrence as the batch
//!    `InterJobPipeline`, generalized with request release times.
//! 5. [`metrics`] turns completions into percentile/goodput/utilization
//!    reports; [`fleet::FleetOutcome::trace`] renders the schedule as a
//!    labeled trace for Perfetto.
//! 6. [`resilience`] arms the loop with a device-lifecycle fault plan:
//!    health-aware placement, SLO deadlines with deadline-budgeted
//!    retries and hedging, and `(policy × rate × intensity)`
//!    availability sweeps.
//!
//! # Determinism
//!
//! Identical inputs (policy, mix, seed, request count, fleet size) produce
//! byte-identical reports and traces at any worker-thread count. The
//! arrival sequence is a pure function of its seed; placement is one
//! serial pass in arrival order with per-request forked RNGs; thread
//! parallelism is confined to the cost-model prewarm and to fanning
//! independent sweep cells through the pool executor, both of which
//! assemble results in index order. Nothing reads a wall clock.
//!
//! [`AdmissionPolicy`]: policy::AdmissionPolicy
//! [`PlacementPolicy`]: policy::PlacementPolicy

pub mod arrival;
pub mod fleet;
pub mod metrics;
pub mod policy;
pub mod resilience;
pub mod topology;

pub use arrival::{ArrivalMix, ArrivalPlan, Request};
pub use fleet::{CompletedRequest, Fleet, FleetOutcome, ServeConfig, ServeSweep, ShedRequest};
pub use metrics::{
    DeviceUtilization, LatencyAccumulator, LatencyStats, PolicyReport, ServeReport,
    StreamingHistogram,
};
pub use policy::{
    Admission, AdmissionPolicy, DeviceView, FleetView, ModeCosts, Placement, PlacementPolicy,
    PolicyKind, ServingPolicy,
};
pub use resilience::{AvailabilityCell, AvailabilityReport, AvailabilitySweep, ResilienceConfig};
pub use topology::ClusterTopology;
