//! Umbrella crate for the FlexCore reproduction workspace.
//!
//! This crate exists to host the repository-level `examples/` and
//! `tests/` directories; it re-exports the member crates so examples can
//! use one coherent namespace.
//!
//! See the individual crates for the real functionality:
//!
//! * [`isa`] — SPARC-V8-subset instruction set model
//! * [`asm`] — two-pass assembler for that ISA
//! * [`analysis`] — static verification of programs and netlists
//!   (CFG recovery, dataflow, netlist lint; see the `flexcheck` binary)
//! * [`mem`] — caches, buses, SDRAM, and the bit-maskable meta-data cache
//! * [`pipeline`] — Leon3-like in-order core (functional + timing)
//! * [`fabric`] — reconfigurable-fabric and ASIC cost models
//! * [`flexcore`] — the FlexCore architecture itself (interface,
//!   extensions, full system)
//! * [`workloads`] — MiBench-like assembly kernels
//! * [`telemetry`] — sampled host-time phase profiler (a trace sink)

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub use flexcore;
pub use flexcore_analysis as analysis;
pub use flexcore_asm as asm;
pub use flexcore_fabric as fabric;
pub use flexcore_isa as isa;
pub use flexcore_mem as mem;
pub use flexcore_pipeline as pipeline;
pub use flexcore_telemetry as telemetry;
pub use flexcore_workloads as workloads;
