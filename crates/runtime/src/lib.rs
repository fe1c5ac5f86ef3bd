//! # hetsim-runtime
//!
//! The CUDA-like runtime layer of the hetsim simulator — the piece that
//! turns a workload description into the paper's measured quantities.
//!
//! The paper's methodology (§3.3) defines overall execution time as
//!
//! > the sum of data allocation time (`cudaMalloc()`/`cudaMallocManaged()`
//! > + `cudaFree()`), the data transfer time (`cudaMemcpy()` or explicit
//! > unified memory data transfer time), and GPU kernel execution time.
//!
//! [`Runner::run`] produces exactly that breakdown ([`RunReport`]) for any
//! [`GpuProgram`] under any of the five [`TransferMode`]s the paper
//! evaluates:
//!
//! | mode | allocation | CPU→GPU data | kernel |
//! |------|-----------|--------------|--------|
//! | `standard` | `cudaMalloc` | pageable `cudaMemcpy` | standard style |
//! | `async` | `cudaMalloc` | pageable `cudaMemcpy` | `cp.async` pipeline |
//! | `uvm` | `cudaMallocManaged` | demand migration | + fault stalls |
//! | `uvm_prefetch` | `cudaMallocManaged` | bulk prefetch + residual faults | + warm L2 |
//! | `uvm_prefetch_async` | `cudaMallocManaged` | bulk prefetch + residual faults | `cp.async` + warm L2 |

pub mod alloc;
pub mod device;
pub mod mode;
pub mod program;
pub mod report;
pub mod run;
pub mod stream;
pub mod timeline;

pub use alloc::AllocModel;
pub use device::Device;
pub use hetsim_chaos::{
    ChaosOverhead, ChaosReport, FaultPlan, FleetFaultPlan, HealthState, HealthTimeline,
    LifecycleEvent, LifecyclePhase, RecoveryPolicy, SimError,
};
pub use mode::TransferMode;
pub use program::{BufferRole, BufferSpec, BufferSpecError, GpuProgram, PageTouch};
pub use report::RunReport;
pub use run::{ChaosRunReport, RunNoise, Runner};
pub use stream::{BufferAccess, Engine, EventId, ScheduleItem, StreamId, StreamSchedule};
pub use timeline::Timeline;
