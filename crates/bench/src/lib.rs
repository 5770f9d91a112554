//! Benchmark harness regenerating every table and figure of the
//! FlexCore paper.
//!
//! Binaries (each prints the paper's rows/series and, where available,
//! the paper's published numbers next to the measured ones):
//!
//! | Binary   | Reproduces |
//! |----------|------------|
//! | `table1` | Table I (extension descriptors) and Table II (interface fields) |
//! | `table3` | Table III (area / power / frequency, ASIC and FlexCore) |
//! | `table4` | Table IV (normalized execution time per benchmark × extension × fabric clock); `--software` adds the §V.C software baselines |
//! | `fig4`   | Figure 4 (fraction of instructions forwarded to the fabric) |
//! | `fig5`   | Figure 5 (average performance vs. forward-FIFO size) |
//! | `faultsweep` | §V soft-error story: SEC detection coverage and UMC/DIFT/BC false-trap rates under seeded fault injection |
//!
//! The library part hosts the shared runners so the binaries and the
//! micro-benches stay thin.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod elide;
pub mod journal;
pub mod microbench;
pub mod paper;
mod runner;
pub mod swap;
pub mod trial;

pub use runner::{
    baseline_cycles, geomean, paper_config, run_extension, run_extension_profiled,
    run_extension_series, run_panic_tolerant, run_panic_tolerant_observed, series_dir_from_args,
    ExtKind, JobReport, RunSummary, MAX_INSTRUCTIONS,
};
