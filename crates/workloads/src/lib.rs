//! # hetsim-workloads
//!
//! The paper's benchmark suite (its Table 2) re-expressed as hetsim kernel
//! models: 7 microbenchmarks and 14 real-world applications spanning linear
//! algebra, physics simulation, data mining, image processing, and machine
//! learning — plus the [`irregular`] extension group (bfs, and the
//! temporal touch models attached to kmeans and pathfinder) that stresses
//! the UVM fault batcher with genuinely irregular page-touch *sequences*
//! rather than address-ordered ranges.
//!
//! Every workload implements [`hetsim_runtime::GpuProgram`]: it declares
//! its buffers (footprint per the Table 3 input-size presets) and its
//! kernels as tile programs over the generic [`spec::KernelSpec`] engine.
//! The per-workload constructors encode the *algorithmic* shape — grid
//! geometry, arithmetic intensity, access regularity, tiling structure,
//! kernel count — and the shared spec machinery turns that into
//! deterministic address streams for the cache/UVM simulation.
//!
//! # Example
//!
//! ```
//! use hetsim_workloads::{micro, InputSize};
//! use hetsim_runtime::GpuProgram;
//!
//! let vs = micro::vector_seq(InputSize::Large);
//! assert_eq!(vs.name(), "vector_seq");
//! // Large inputs have a 512 MB-class footprint (Table 3).
//! assert!(vs.footprint() >= 256 << 20);
//! ```

pub mod apps;
pub mod irregular;
pub mod micro;
pub mod size;
pub mod spec;
pub mod suite;

pub use irregular::TouchModel;
pub use size::InputSize;
pub use spec::{KernelSpec, StreamPattern, Workload};
pub use suite::{
    app_names, app_suite, by_name, irregular_names, irregular_suite, micro_names, micro_suite,
    SuiteEntry, IRREGULAR_TRIO,
};
