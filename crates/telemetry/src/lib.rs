//! `flexcore-telemetry` — host-time attribution for the FlexCore
//! reproduction.
//!
//! A performance change without a committed baseline is a guess; this
//! crate is the instrument such changes are judged by. It answers one
//! question: **where does host wall-clock go?** The [`PhaseClock`]
//! trait attributes time to named simulator [`Phase`]s (fetch/decode,
//! execute, fabric netlist eval, FIFO traffic, metadata-cache access,
//! checkpointing, journal write/fsync) with cheap enter/exit scopes and
//! log₂-bucketed latency histograms ([`Log2Histogram`]). The profiler
//! follows the same static-dispatch idiom as `flexcore::obs::TraceSink`:
//! the simulator is generic over `P: PhaseClock`, and the default
//! [`NullPhaseClock`] has `ENABLED = false`, so every hook is a branch
//! on a compile-time constant the optimizer deletes — the disabled path
//! performs **no clock reads, no allocation, and no stores**.
//!
//! The [`RateMeter`] rounds this out with the rate + ETA arithmetic
//! that `faultsweep` progress lines print.
//!
//! # Overhead contract
//!
//! With [`NullPhaseClock`] (the default everywhere), instrumentation
//! must cost nothing measurable: the type is a ZST, `ENABLED` is
//! `false`, and every `begin`/`commit` pair folds to a no-op. The
//! `sim_throughput` bench rows and the `telemetry_guard` integration
//! test hold this line. With [`PhaseProfiler`], the budget is two
//! monotonic clock reads per instrumented span — acceptable for
//! profiling runs, which is why `flexprof` is a separate entry point
//! rather than an always-on default.
//!
//! # Example
//!
//! ```
//! use flexcore_telemetry::{Phase, PhaseClock, PhaseProfiler};
//!
//! let mut prof = PhaseProfiler::default();
//! let t = prof.begin();
//! // ... simulate something ...
//! prof.commit(Phase::Execute, t);
//! assert_eq!(prof.stats().unwrap().count(Phase::Execute), 1);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod hist;
pub mod phase;
pub mod rate;

pub use hist::Log2Histogram;
pub use phase::{NullPhaseClock, Phase, PhaseClock, PhaseProfiler, PhaseStats};
pub use rate::RateMeter;

/// Alias spelling out what the null clock is for: the telemetry-off
/// configuration every non-profiling entry point uses.
pub type NullTelemetry = NullPhaseClock;
