//! Chrome trace-event recording (Perfetto / `chrome://tracing`).
//!
//! The recorder stores raw [`TraceEvent`]s during the run (cheap) and
//! renders the Chrome JSON at export time. Cycles are written as
//! microseconds 1:1, so one timeline microsecond is one core-clock
//! cycle.

use crate::obs::{TraceEvent, TraceSink};

/// Records events for Chrome trace-event JSON export.
///
/// Per-commit events ([`Commit`](TraceEvent::Commit) /
/// [`Forward`](TraceEvent::Forward) /
/// [`FifoEnqueue`](TraceEvent::FifoEnqueue) occupancy counters are the
/// exception) would swamp a timeline viewer at millions of
/// instructions, so the recorder keeps spans (fabric activity, commit
/// stalls), counters (FIFO occupancy), and instants (drops, misses, bus
/// grants, faults, traps, bitstream retries) — and drops the per-commit
/// firehose. Rate questions belong to
/// [`MetricsRecorder`](crate::obs::MetricsRecorder).
#[derive(Clone, Debug)]
pub struct ChromeRecorder {
    events: Vec<TraceEvent>,
    max_events: usize,
    dropped: u64,
}

impl Default for ChromeRecorder {
    fn default() -> ChromeRecorder {
        ChromeRecorder::new()
    }
}

impl ChromeRecorder {
    /// Default retention ceiling (events beyond it are counted, not
    /// stored).
    pub const DEFAULT_MAX_EVENTS: usize = 1 << 20;

    /// A recorder with the default retention ceiling.
    pub fn new() -> ChromeRecorder {
        ChromeRecorder::with_max_events(ChromeRecorder::DEFAULT_MAX_EVENTS)
    }

    /// A recorder keeping at most `max_events` renderable events
    /// (clamped to ≥ 1).
    pub fn with_max_events(max_events: usize) -> ChromeRecorder {
        ChromeRecorder { events: Vec::new(), max_events: max_events.max(1), dropped: 0 }
    }

    /// The retained renderable events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Renderable events discarded after the ceiling was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn renderable(ev: &TraceEvent) -> bool {
        !matches!(ev, TraceEvent::Commit { .. } | TraceEvent::Forward { .. })
    }
}

impl TraceSink for ChromeRecorder {
    fn event(&mut self, ev: TraceEvent) {
        if !ChromeRecorder::renderable(&ev) {
            return;
        }
        if self.events.len() < self.max_events {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

/// JSON rendering.
mod export {
    use super::*;
    use serde::Value;

    const PID: u64 = 1;
    const TID_CORE: u64 = 1;
    const TID_FABRIC: u64 = 2;

    fn base(name: &str, ph: &str, ts: u64, tid: u64) -> serde::ObjectBuilder {
        Value::object()
            .field("name", &name)
            .field("ph", &ph)
            .field("ts", &ts)
            .field("pid", &PID)
            .field("tid", &tid)
    }

    fn thread_meta(tid: u64, name: &str) -> Value {
        Value::object()
            .field("name", &"thread_name")
            .field("ph", &"M")
            .field("pid", &PID)
            .field("tid", &tid)
            .raw("args", Value::object().field("name", &name).build())
            .build()
    }

    fn render(ev: &TraceEvent) -> Option<Value> {
        let v = match *ev {
            TraceEvent::Commit { .. } | TraceEvent::Forward { .. } => return None,
            TraceEvent::FabricSpan { start, end, pc, class, meta_reads, meta_writes } => {
                base(&format!("{class:?}").to_lowercase(), "X", start, TID_FABRIC)
                    .field("dur", &end.saturating_sub(start))
                    .raw(
                        "args",
                        Value::object()
                            .field("pc", &format!("{pc:#010x}"))
                            .field("meta_reads", &meta_reads)
                            .field("meta_writes", &meta_writes)
                            .build(),
                    )
                    .build()
            }
            TraceEvent::CommitStall { cycle, until } => base("fifo-stall", "X", cycle, TID_CORE)
                .field("dur", &until.saturating_sub(cycle))
                .build(),
            TraceEvent::FifoEnqueue { cycle, occupancy, .. } => {
                base("fifo_occupancy", "C", cycle, TID_CORE)
                    .raw("args", Value::object().field("entries", &occupancy).build())
                    .build()
            }
            TraceEvent::Drop { cycle, class } => base("drop", "i", cycle, TID_CORE)
                .field("s", &"t")
                .raw(
                    "args",
                    Value::object().field("class", &format!("{class:?}").to_lowercase()).build(),
                )
                .build(),
            TraceEvent::MetaMiss { cycle, count } => base("meta-miss", "i", cycle, TID_FABRIC)
                .field("s", &"t")
                .raw("args", Value::object().field("count", &count).build())
                .build(),
            TraceEvent::BusGrant { cycle, transfers, wait_cycles } => {
                base("bus-grant", "i", cycle, TID_FABRIC)
                    .field("s", &"t")
                    .raw(
                        "args",
                        Value::object()
                            .field("transfers", &transfers)
                            .field("wait_cycles", &wait_cycles)
                            .build(),
                    )
                    .build()
            }
            TraceEvent::BitstreamRetry { attempt } => base("bitstream-retry", "i", 0, TID_FABRIC)
                .field("s", &"t")
                .raw("args", Value::object().field("attempt", &attempt).build())
                .build(),
            TraceEvent::FaultInjected { cycle, instret } => base("fault", "i", cycle, TID_CORE)
                .field("s", &"t")
                .raw("args", Value::object().field("instret", &instret).build())
                .build(),
            TraceEvent::Recovery { cycle, rung } => base("recovery", "i", cycle, TID_CORE)
                .field("s", &"g")
                .raw("args", Value::object().field("rung", &rung).build())
                .build(),
            TraceEvent::DegradedEnter { cycle } => {
                base("degraded-enter", "i", cycle, TID_CORE).field("s", &"g").build()
            }
            TraceEvent::SwapBegin { cycle, instret } => base("swap-begin", "i", cycle, TID_FABRIC)
                .field("s", &"g")
                .raw("args", Value::object().field("instret", &instret).build())
                .build(),
            TraceEvent::SwapComplete { cycle, drained } => {
                base("swap-complete", "i", cycle, TID_FABRIC)
                    .field("s", &"g")
                    .raw("args", Value::object().field("drained", &drained).build())
                    .build()
            }
            TraceEvent::CheckElided { cycle, pc, class } => {
                base("check-elided", "i", cycle, TID_CORE)
                    .field("s", &"t")
                    .raw(
                        "args",
                        Value::object()
                            .field("pc", &format!("{pc:#010x}"))
                            .field("class", &format!("{class:?}").to_lowercase())
                            .build(),
                    )
                    .build()
            }
            TraceEvent::Trap { cycle, pc, instret } => base("trap", "i", cycle, TID_CORE)
                .field("s", &"g")
                .raw(
                    "args",
                    Value::object()
                        .field("pc", &format!("{pc:#010x}"))
                        .field("instret", &instret)
                        .build(),
                )
                .build(),
        };
        Some(v)
    }

    impl ChromeRecorder {
        /// Renders the recording as a Chrome trace-event JSON object
        /// (`traceEvents` array form), loadable at `ui.perfetto.dev` or
        /// `chrome://tracing`. Timestamps are core-clock cycles written
        /// as microseconds.
        pub fn to_chrome_json(&self) -> String {
            let mut trace_events = vec![
                Value::object()
                    .field("name", &"process_name")
                    .field("ph", &"M")
                    .field("pid", &PID)
                    .raw("args", Value::object().field("name", &"flexcore-sim").build())
                    .build(),
                thread_meta(TID_CORE, "core"),
                thread_meta(TID_FABRIC, "fabric"),
            ];
            trace_events.extend(self.events.iter().filter_map(render));
            let doc = Value::object()
                .raw("traceEvents", Value::Array(trace_events))
                .field("displayTimeUnit", &"ms")
                .raw(
                    "otherData",
                    Value::object()
                        .field("clock", &"core-cycles-as-us")
                        .field("dropped_events", &self.dropped)
                        .build(),
                )
                .build();
            serde::to_string(&doc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_isa::InstrClass;

    #[test]
    fn commit_firehose_is_not_retained() {
        let mut c = ChromeRecorder::new();
        c.event(TraceEvent::Commit { cycle: 1, pc: 0, instret: 1, class: InstrClass::Add });
        c.event(TraceEvent::Forward { cycle: 1, class: InstrClass::Add });
        c.event(TraceEvent::CommitStall { cycle: 2, until: 5 });
        assert_eq!(c.events().len(), 1);
        assert_eq!(c.dropped(), 0, "firehose events are filtered, not dropped");
    }

    #[test]
    fn ceiling_counts_overflow() {
        let mut c = ChromeRecorder::with_max_events(2);
        for i in 0..5 {
            c.event(TraceEvent::MetaMiss { cycle: i, count: 1 });
        }
        assert_eq!(c.events().len(), 2);
        assert_eq!(c.dropped(), 3);
    }

    #[test]
    fn export_is_valid_json_with_trace_events() {
        let mut c = ChromeRecorder::new();
        c.event(TraceEvent::FabricSpan {
            start: 10,
            end: 14,
            pc: 0x1000,
            class: InstrClass::Ld,
            meta_reads: 1,
            meta_writes: 0,
        });
        c.event(TraceEvent::Trap { cycle: 20, pc: 0x1004, instret: 3 });
        let json = c.to_chrome_json();
        let doc = serde::from_str(&json).expect("emitter output parses");
        let events = doc.get("traceEvents").and_then(serde::Value::as_array).unwrap();
        // 3 metadata records + 2 rendered events.
        assert_eq!(events.len(), 5);
        assert_eq!(events[3].get("ph").and_then(serde::Value::as_str), Some("X"));
        assert_eq!(events[3].get("ts").and_then(serde::Value::as_u64), Some(10));
        assert_eq!(events[3].get("dur").and_then(serde::Value::as_u64), Some(4));
    }
}
