//! `flexcore-telemetry` — host-time attribution for the FlexCore
//! reproduction.
//!
//! The crate holds only the sampled phase profiler. It answers one
//! question: **where does host wall-clock go?** [`PhaseProfiler`]
//! attributes time to three simulator [`Phase`]s (`core`, `fifo`,
//! `fabric_eval`) as span counts and nanosecond totals. It reads the
//! clock only at the simulator's trace-event boundaries and only inside
//! sampled commit-to-commit windows, then scales the samples to
//! whole-run totals. It plugs into the simulator's one instrumentation
//! hook: `flexcore::obs` implements `TraceSink` for it and maps each
//! trace event to the phase it closes, so unprofiled runs carry no
//! profiling code at all.
//!
//! # Overhead contract
//!
//! A profiled run should cost a few percent more than an unprofiled
//! one: perfbench's `telemetry.profiler_overhead_x` probe measures it,
//! and the `telemetry_guard` integration test (with `FLEXPROF_GUARD=1`)
//! fails above 1.25×, which a clock read per commit would exceed.
//!
//! # Example
//!
//! ```
//! use flexcore_telemetry::{Phase, PhaseProfiler};
//!
//! let mut prof = PhaseProfiler::new();
//! for _ in 0..1_000 {
//!     prof.commit();
//!     prof.boundary(Phase::Fifo);
//! }
//! let stats = prof.stats();
//! assert_eq!(stats.count(Phase::Core), prof.windows());
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod phase;

pub use phase::{Phase, PhaseProfiler, PhaseStats};
