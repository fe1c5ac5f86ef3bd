//! Deterministic fault injection and recovery for the hetsim stack.
//!
//! The paper's central caveat is that UVM's value is conditional: under
//! oversubscription and fault storms the managed modes fall off a cliff,
//! and real driver stacks respond by retrying, throttling, evicting, and
//! falling back rather than crashing (PAPER.md §V; Chien et al. 2019 study
//! exactly these fallback paths in CUDA UM). This crate supplies the
//! machinery to reproduce that behavior in simulation:
//!
//! * [`FaultPlan`] — a seed-deterministic description of *what goes wrong*:
//!   transient DMA transfer failures, ECC-style kernel corruption that
//!   forces a replay, host pinned-allocation failure, and synthetic UVM
//!   fault-storm pressure. Seeded through [`hetsim_engine::rng::SimRng`],
//!   never wall-clock, so the same plan reproduces the same faults on any
//!   machine at any thread count.
//! * [`RecoveryPolicy`] — *what the runtime does about it*: bounded retry
//!   with exponential backoff, bounded kernel replay, pinned→pageable
//!   fallback, and `uvm_prefetch`→`uvm`→`standard` mode degradation under
//!   sustained thrashing.
//! * [`SimError`] — the typed, panic-free failure surface: exhausted
//!   budgets, impossible plans, and the stream watchdog's
//!   [`Deadlock`](SimError::Deadlock)/[`Timeout`](SimError::Timeout).
//! * [`FleetFaultPlan`] / [`HealthTimeline`] — the fleet-scale
//!   counterpart: a seeded device-lifecycle model (degrade → quarantine →
//!   drain → recover) whose per-device health state machine the serving
//!   layer replays for its availability sweeps.
//! * [`ChaosCtx`] — the per-run injection context the runtime threads
//!   through its pipeline, which both decides faults (one serial
//!   [`SimRng`](hetsim_engine::rng::SimRng) stream per run) and books every
//!   recovery cost into a [`ChaosReport`].
//!
//! The crate's core invariant is **separability**: every injected cost is
//! a pure additive overhead, recorded per report component. Subtracting
//! [`ChaosReport::overhead`] from a recovered run's components reproduces
//! the fault-free base run of the (possibly degraded) mode exactly — the
//! property `tests/chaos_props.rs` pins across the whole workload
//! registry.

pub mod ctx;
pub mod error;
pub mod lifecycle;
pub mod plan;
pub mod policy;

pub use ctx::{ChaosCtx, ChaosOverhead, ChaosReport, FaultKind};
pub use error::SimError;
pub use lifecycle::{FleetFaultPlan, HealthState, HealthTimeline, LifecycleEvent, LifecyclePhase};
pub use plan::FaultPlan;
pub use policy::RecoveryPolicy;
