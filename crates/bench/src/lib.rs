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
//! | `ablations` | The design choices of §III (core-side decode, masked meta writes, decoupling, meta-cache size) |
//! | `superscalar` | §VII's future-work question: DIFT overheads on wider commit widths |
//! | `faultsweep` | §V soft-error story: SEC detection coverage and UMC/DIFT/BC false-trap rates under seeded fault injection |
//! | `flexsim` | Any program or kernel under any registry extension, or none (`nop`) |
//! | `flexcheck` | Static verification of programs and extension netlists |
//! | `flexprof` | Host-time phase profile of the simulator itself |
//!
//! The library part hosts the shared runners so the binaries stay
//! thin. Every binary builds its monitor through the [`swap`] registry,
//! and every unmonitored baseline is [`run_baseline`]: the system
//! running the registry's `nop`, whose CFGR forwards nothing.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod elide;
pub mod journal;
pub mod paper;
mod runner;
pub mod swap;
pub mod trial;

pub use runner::{
    baseline_cycles, geomean, paper_config, run_baseline, run_extension, run_extension_profiled,
    run_panic_tolerant, series_dir_from_args, ExtKind, JobReport, MAX_INSTRUCTIONS,
};
