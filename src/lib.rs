//! # hetsim-suite
//!
//! The end-to-end suite package of the hetsim workspace: it hosts the
//! runnable examples (`examples/`) and the cross-crate integration tests
//! (`tests/`). All functionality lives in the [`hetsim`] facade crate and
//! the substrate crates it re-exports; this package only re-exports the
//! facade for convenience.

pub use hetsim::*;
