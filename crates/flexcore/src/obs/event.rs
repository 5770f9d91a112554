//! The event taxonomy emitted by the [`System`](crate::System) hook
//! points.

use flexcore_isa::InstrClass;

/// One instrumentation event, stamped in core-clock cycles.
///
/// Events are small `Copy` scalars so constructing one is cheap even
/// when a sink is installed; with the default
/// [`NullSink`](crate::obs::NullSink) the construction is guarded by
/// [`TraceSink::ENABLED`](crate::obs::TraceSink::ENABLED) and compiled
/// out entirely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction committed.
    Commit {
        /// Core-clock cycle of the commit.
        cycle: u64,
        /// PC of the committed instruction.
        pc: u32,
        /// Committed-instruction count *after* this commit (1-based).
        instret: u64,
        /// Instruction class.
        class: InstrClass,
    },
    /// A packet passed the forwarding filter and was sent toward the
    /// fabric.
    Forward {
        /// Commit cycle of the forwarded instruction.
        cycle: u64,
        /// Instruction class.
        class: InstrClass,
    },
    /// A packet was dropped instead of forwarded: its class is
    /// [`IfNotFull`](crate::ForwardPolicy::IfNotFull) in the CFGR and
    /// the FIFO was full.
    Drop {
        /// Commit cycle of the dropped instruction.
        cycle: u64,
        /// Instruction class.
        class: InstrClass,
    },
    /// An entry was enqueued into the forward FIFO.
    FifoEnqueue {
        /// Cycle of the enqueue (after any commit stall).
        cycle: u64,
        /// Scheduled fabric dequeue cycle of the entry.
        dequeue_at: u64,
        /// Resident entries immediately after the enqueue — the
        /// occupancy sample whose running max equals
        /// [`ForwardStats::peak_occupancy`](crate::ForwardStats::peak_occupancy).
        occupancy: u64,
    },
    /// The commit stage stalled (full FIFO back-pressure, or waiting
    /// for a co-processor acknowledgment).
    CommitStall {
        /// Cycle the stall began.
        cycle: u64,
        /// Cycle the commit stage resumed (`until - cycle` stall
        /// cycles, matching
        /// [`ForwardStats::fifo_stall_cycles`](crate::ForwardStats::fifo_stall_cycles)).
        until: u64,
    },
    /// The fabric processed one forwarded packet.
    FabricSpan {
        /// Cycle the fabric started on the packet.
        start: u64,
        /// Cycle the fabric finished (aligned to the fabric clock).
        end: u64,
        /// PC of the instruction the packet describes.
        pc: u32,
        /// Instruction class.
        class: InstrClass,
        /// Meta-data reads issued while processing.
        meta_reads: u64,
        /// Meta-data writes issued while processing.
        meta_writes: u64,
    },
    /// Meta-data cache misses observed while processing one packet.
    MetaMiss {
        /// Fabric start cycle of the packet that missed.
        cycle: u64,
        /// Number of misses (reads + writes).
        count: u64,
    },
    /// Shared-bus activity on behalf of the fabric while processing one
    /// packet.
    BusGrant {
        /// Fabric start cycle of the packet.
        cycle: u64,
        /// Bus transfers granted to the fabric.
        transfers: u64,
        /// Cycles the fabric waited for the bus.
        wait_cycles: u64,
    },
    /// A bitstream transfer failed validation and was re-transferred.
    BitstreamRetry {
        /// 0-based attempt number that failed.
        attempt: u32,
    },
    /// The fault injector applied one fault.
    FaultInjected {
        /// Commit cycle the fault landed on.
        cycle: u64,
        /// Committed-instruction count at injection.
        instret: u64,
    },
    /// The recovery supervisor restored a checkpoint and resumed
    /// execution (one rung of the escalation ladder).
    Recovery {
        /// Core-clock cycle of the restored snapshot (execution resumes
        /// from here).
        cycle: u64,
        /// Escalation rung that handled the error: 1 = replay, 2 =
        /// replay after a bitstream reload, 3 = degraded-mode entry.
        rung: u32,
    },
    /// The system entered degraded mode: monitoring is bypassed and
    /// commits are counted as unmonitored.
    DegradedEnter {
        /// Core-clock cycle at entry.
        cycle: u64,
    },
    /// A mid-run bitstream hot-swap began quiescing: the commit stage
    /// stalls and the FIFO drains (see [`crate::reconfig`]).
    SwapBegin {
        /// Core-clock cycle the quiesce began.
        cycle: u64,
        /// Committed-instruction boundary the swap was scheduled at.
        instret: u64,
    },
    /// A hot-swap finished rearming: the new extension is live.
    SwapComplete {
        /// Core-clock cycle the new extension went live.
        cycle: u64,
        /// FIFO packets drained during the quiesce.
        drained: u64,
    },
    /// A forwarded-class packet was never enqueued because a static
    /// check-elision table discharged the extension's check at this PC
    /// (see [`ElisionTable`](crate::ElisionTable)).
    CheckElided {
        /// Commit cycle of the elided instruction.
        cycle: u64,
        /// PC whose check was statically discharged.
        pc: u32,
        /// Instruction class.
        class: InstrClass,
    },
    /// A monitor trap was raised (the TRAP signal was scheduled).
    Trap {
        /// Core-clock cycle at which the signal asserts (§III.C: the
        /// exception is imprecise; commits continue until then).
        cycle: u64,
        /// PC of the violating instruction.
        pc: u32,
        /// Committed-instruction count at the violation.
        instret: u64,
    },
}

impl TraceEvent {
    /// The core-clock cycle this event is stamped with (the span start
    /// for [`FabricSpan`](TraceEvent::FabricSpan), 0 for
    /// [`BitstreamRetry`](TraceEvent::BitstreamRetry), which happens
    /// outside simulated time).
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Commit { cycle, .. }
            | TraceEvent::Forward { cycle, .. }
            | TraceEvent::Drop { cycle, .. }
            | TraceEvent::FifoEnqueue { cycle, .. }
            | TraceEvent::CommitStall { cycle, .. }
            | TraceEvent::MetaMiss { cycle, .. }
            | TraceEvent::BusGrant { cycle, .. }
            | TraceEvent::FaultInjected { cycle, .. }
            | TraceEvent::Recovery { cycle, .. }
            | TraceEvent::DegradedEnter { cycle }
            | TraceEvent::SwapBegin { cycle, .. }
            | TraceEvent::SwapComplete { cycle, .. }
            | TraceEvent::CheckElided { cycle, .. }
            | TraceEvent::Trap { cycle, .. } => cycle,
            TraceEvent::FabricSpan { start, .. } => start,
            TraceEvent::BitstreamRetry { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_accessor_covers_every_variant() {
        let ev = TraceEvent::FabricSpan {
            start: 7,
            end: 9,
            pc: 0,
            class: InstrClass::Ld,
            meta_reads: 1,
            meta_writes: 0,
        };
        assert_eq!(ev.cycle(), 7);
        assert_eq!(TraceEvent::BitstreamRetry { attempt: 2 }.cycle(), 0);
        assert_eq!(TraceEvent::CommitStall { cycle: 12, until: 20 }.cycle(), 12);
        assert_eq!(TraceEvent::Recovery { cycle: 33, rung: 1 }.cycle(), 33);
        assert_eq!(TraceEvent::DegradedEnter { cycle: 44 }.cycle(), 44);
        assert_eq!(TraceEvent::SwapBegin { cycle: 55, instret: 10 }.cycle(), 55);
        assert_eq!(TraceEvent::SwapComplete { cycle: 66, drained: 3 }.cycle(), 66);
        let elided = TraceEvent::CheckElided { cycle: 77, pc: 0x1000, class: InstrClass::Ld };
        assert_eq!(elided.cycle(), 77);
    }

    #[test]
    fn events_are_small() {
        // The hot loop constructs these; keep them register-friendly.
        assert!(std::mem::size_of::<TraceEvent>() <= 64);
    }
}
