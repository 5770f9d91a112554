//! The [`TraceSink`] trait, the zero-cost [`NullSink`], the
//! [`Observer`] composite, and the host-time [`PhaseProfiler`] sink.

use flexcore_pipeline::TracePacket;
use flexcore_telemetry::{Phase, PhaseProfiler};

use crate::obs::{ChromeRecorder, FlightEntry, FlightRecorder, MetricsRecorder, TraceEvent};

/// A consumer of instrumentation events.
///
/// [`System`](crate::System) is generic over its sink and every hook
/// point is guarded by [`TraceSink::ENABLED`], so the default
/// [`NullSink`] monomorphizes to nothing: no event construction, no
/// call, no branch. Implementations that record should leave `ENABLED`
/// at its default `true`.
pub trait TraceSink {
    /// Whether hook points fire at all. `false` compiles the entire
    /// instrumentation path out of the hot loop.
    const ENABLED: bool = true;

    /// Receives one event.
    fn event(&mut self, ev: TraceEvent);

    /// Receives every committed instruction's trace packet (called
    /// alongside [`TraceEvent::Commit`]; packets are too large to embed
    /// in the event enum). Default: ignored.
    fn commit_packet(&mut self, _pkt: &TracePacket) {}

    /// Receives every *forwarded* packet (called alongside
    /// [`TraceEvent::Forward`]). Default: ignored.
    fn forward_packet(&mut self, _pkt: &TracePacket) {}

    /// The crash-context flight log, newest entry last. Default: empty.
    /// [`System`](crate::System) attaches this to deadlock snapshots
    /// and the final [`RunResult`](crate::RunResult).
    fn flight_log(&self) -> Vec<FlightEntry> {
        Vec::new()
    }

    /// Re-arms any frozen trap context (see
    /// [`FlightRecorder::rearm`](crate::obs::FlightRecorder::rearm)) so
    /// a post-recovery trap freezes fresh state. Default: ignored.
    fn rearm_flight(&mut self) {}
}

/// The default sink: observes nothing, costs nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _ev: TraceEvent) {}
}

/// A sink that records every event verbatim — for tests and ad-hoc
/// inspection, not for long runs.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    /// Every event, in emission order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for VecSink {
    fn event(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

/// Captures the first N forwarded packets — the stimulus source for
/// netlist waveform (VCD) dumps.
#[derive(Clone, Debug)]
pub struct PacketTap {
    cap: usize,
    packets: Vec<TracePacket>,
}

impl PacketTap {
    /// Taps the first `cap` forwarded packets.
    pub fn new(cap: usize) -> PacketTap {
        PacketTap { cap, packets: Vec::with_capacity(cap.min(4096)) }
    }

    /// The captured packets, oldest first.
    pub fn packets(&self) -> &[TracePacket] {
        &self.packets
    }
}

impl TraceSink for PacketTap {
    fn event(&mut self, _ev: TraceEvent) {}

    fn forward_packet(&mut self, pkt: &TracePacket) {
        if self.packets.len() < self.cap {
            self.packets.push(*pkt);
        }
    }
}

/// Host-time phase profiling through the same hook as every other sink:
/// each event closes the interval since the previous one and charges it
/// to the phase that event finishes (see the `flexcore_telemetry`
/// crate docs for the sampling).
impl TraceSink for PhaseProfiler {
    #[inline(always)]
    fn event(&mut self, ev: TraceEvent) {
        match ev {
            // Fetch, decode, execute and the run loop up to the commit.
            TraceEvent::Commit { .. } => self.commit(),
            // The forwarding filter, elision, drops, enqueue and stalls.
            TraceEvent::Forward { .. }
            | TraceEvent::Drop { .. }
            | TraceEvent::CheckElided { .. }
            | TraceEvent::FifoEnqueue { .. }
            | TraceEvent::CommitStall { .. } => self.boundary(Phase::Fifo),
            // The extension call with its meta-data cache accesses, and
            // the fabric's own reconfiguration: bitstream transfers and
            // the hot-swap drain.
            TraceEvent::FabricSpan { .. }
            | TraceEvent::MetaMiss { .. }
            | TraceEvent::BusGrant { .. }
            | TraceEvent::Trap { .. }
            | TraceEvent::BitstreamRetry { .. }
            | TraceEvent::SwapComplete { .. } => self.boundary(Phase::FabricEval),
            // Emitted from the run loop or the fault injector before the
            // commit they precede, or by the recovery supervisor between
            // run segments: core time.
            TraceEvent::FaultInjected { .. }
            | TraceEvent::SwapBegin { .. }
            | TraceEvent::Recovery { .. }
            | TraceEvent::DegradedEnter { .. } => self.boundary(Phase::Core),
        }
    }
}

/// A composite sink: any combination of metrics, Chrome trace, flight
/// recorder, and packet tap, so a single run feeds several exporters.
///
/// Dispatch to each member is a branch on an `Option` — still no `dyn`
/// anywhere.
#[derive(Debug, Default)]
pub struct Observer {
    /// Epoch-bucketed metrics, if sampling.
    pub metrics: Option<MetricsRecorder>,
    /// Chrome trace-event recording, if tracing.
    pub chrome: Option<ChromeRecorder>,
    /// Crash-context ring buffer, if flying.
    pub flight: Option<FlightRecorder>,
    /// Forwarded-packet capture, if tapping.
    pub packets: Option<PacketTap>,
}

impl Observer {
    /// An empty observer (records nothing until populated).
    pub fn new() -> Observer {
        Observer::default()
    }

    /// Adds an epoch-metrics sampler.
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsRecorder) -> Observer {
        self.metrics = Some(metrics);
        self
    }

    /// Adds a Chrome trace-event recorder.
    #[must_use]
    pub fn with_chrome(mut self, chrome: ChromeRecorder) -> Observer {
        self.chrome = Some(chrome);
        self
    }

    /// Adds a flight recorder holding the last `depth` commits.
    #[must_use]
    pub fn with_flight(mut self, depth: usize) -> Observer {
        self.flight = Some(FlightRecorder::new(depth));
        self
    }

    /// Adds a packet tap capturing the first `cap` forwarded packets.
    #[must_use]
    pub fn with_packet_tap(mut self, cap: usize) -> Observer {
        self.packets = Some(PacketTap::new(cap));
        self
    }

    /// Whether nothing is installed (an empty observer still pays the
    /// hook cost; prefer [`NullSink`] then).
    pub fn is_empty(&self) -> bool {
        self.metrics.is_none()
            && self.chrome.is_none()
            && self.flight.is_none()
            && self.packets.is_none()
    }
}

impl TraceSink for Observer {
    fn event(&mut self, ev: TraceEvent) {
        if let Some(m) = &mut self.metrics {
            m.event(ev);
        }
        if let Some(c) = &mut self.chrome {
            c.event(ev);
        }
        if let Some(f) = &mut self.flight {
            f.event(ev);
        }
    }

    fn commit_packet(&mut self, pkt: &TracePacket) {
        if let Some(f) = &mut self.flight {
            f.commit_packet(pkt);
        }
    }

    fn forward_packet(&mut self, pkt: &TracePacket) {
        if let Some(p) = &mut self.packets {
            p.forward_packet(pkt);
        }
    }

    fn flight_log(&self) -> Vec<FlightEntry> {
        self.flight.as_ref().map(TraceSink::flight_log).unwrap_or_default()
    }

    fn rearm_flight(&mut self) {
        if let Some(f) = &mut self.flight {
            f.rearm();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_isa::InstrClass;

    #[test]
    fn null_sink_is_disabled_and_zero_sized() {
        const { assert!(!NullSink::ENABLED) };
        assert_eq!(std::mem::size_of::<NullSink>(), 0);
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut s = VecSink::default();
        s.event(TraceEvent::Forward { cycle: 1, class: InstrClass::Ld });
        s.event(TraceEvent::Forward { cycle: 2, class: InstrClass::St });
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0].cycle(), 1);
    }

    #[test]
    fn packet_tap_caps_capture() {
        let mut tap = PacketTap::new(2);
        let pkt = crate::ext::tests_util::packet(flexcore_isa::Instruction::Sethi {
            rd: flexcore_isa::Reg::O0,
            imm22: 1,
        });
        for _ in 0..5 {
            tap.forward_packet(&pkt);
        }
        assert_eq!(tap.packets().len(), 2);
    }

    #[test]
    fn empty_observer_reports_empty() {
        assert!(Observer::new().is_empty());
        assert!(!Observer::new().with_flight(4).is_empty());
    }
}
