//! The observability layer: cycle-resolved tracing, epoch-bucketed
//! metrics, and a crash-context flight recorder.
//!
//! The paper's headline numbers — Figure 4 forwarding fractions,
//! Figure 5 slowdowns, the §III.C trap imprecision — are all
//! *time-series* phenomena: FIFO occupancy swells, commit stalls
//! cluster, traps skid. End-of-run aggregates in
//! [`RunResult`](crate::RunResult) cannot show *when* the FIFO backs up
//! or *why* a Table IV cell is slow. This module instruments the
//! simulator so every run can optionally produce the time series its
//! summary numbers collapse.
//!
//! # Architecture
//!
//! [`System`](crate::System) takes a second type parameter `S:`
//! [`TraceSink`] (default [`NullSink`]). Hook points in the commit
//! stage, forward FIFO, fabric interface, meta-data cache path, bus
//! accounting, bitstream loader, and fault injector emit
//! [`TraceEvent`]s into the sink. Dispatch is static — no `dyn` in the
//! hot loop — and every hook is guarded by the associated constant
//! [`TraceSink::ENABLED`], so with the default [`NullSink`] the
//! compiler removes both the event construction and the call: the
//! disabled path costs nothing measurable (perfbench's
//! `flexcore.obs.sink_overhead_x` reports what a recording sink costs).
//!
//! The sink is the simulator's only instrumentation hook, host-time
//! profiling included: [`PhaseProfiler`](flexcore_telemetry::PhaseProfiler)
//! implements [`TraceSink`] here, charging the host time between events
//! to the phase each event closes.
//!
//! Four recording sinks are provided:
//!
//! * [`MetricsRecorder`] — buckets events into fixed-width cycle
//!   epochs, yielding time series of CPI, FIFO occupancy (min / mean /
//!   peak), stall-cycle breakdown, and per-class forward rates. Its
//!   totals are *exactly* consistent with the [`RunResult`] aggregates
//!   ([`MetricsRecorder::check_against`] enforces this; tests run it on
//!   all six workloads).
//! * [`ChromeRecorder`] — records fabric-activity spans, commit-stall
//!   spans, occupancy counters, and instants in Chrome trace-event
//!   JSON, viewable at `ui.perfetto.dev`.
//! * [`FlightRecorder`] — a ring buffer of the last N committed
//!   instructions (disassembled via the ISA crate's `Display`),
//!   attached to monitor-trap diagnostics and
//!   [`DeadlockSnapshot`](crate::DeadlockSnapshot)s.
//! * [`Observer`] — a composite of the above (plus a [`PacketTap`] for
//!   waveform dumps) so one run can feed several exporters.
//!
//! [`RunResult`]: crate::RunResult
//!
//! # Example
//!
//! ```
//! use flexcore::ext::Umc;
//! use flexcore::obs::{MetricsRecorder, Observer};
//! use flexcore::{System, SystemConfig};
//! use flexcore_asm::assemble;
//!
//! let program = assemble("
//!     start:  set 0x8000, %o0
//!             st %g0, [%o0]
//!             ld [%o0], %o1
//!             ta 0
//! ")?;
//! let obs = Observer::new().with_metrics(MetricsRecorder::new(100)).with_flight(8);
//! let mut sys = System::with_sink(SystemConfig::fabric_half_speed(), Umc::new(), obs);
//! sys.load_program(&program);
//! let result = sys.try_run(1_000)?;
//! let obs = sys.into_sink();
//! let metrics = obs.metrics.expect("installed above");
//! metrics.check_against(&result).expect("epoch totals match the aggregates");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod chrome;
mod event;
mod flight;
mod metrics;
mod sink;

pub use chrome::ChromeRecorder;
pub use event::TraceEvent;
pub use flight::{FlightEntry, FlightRecorder};
pub use metrics::{EpochSample, MetricsRecorder, MAX_EPOCHS};
pub use sink::{NullSink, Observer, PacketTap, TraceSink, VecSink};
