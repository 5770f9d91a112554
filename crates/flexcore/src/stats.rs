//! System-level statistics and run results.

use flexcore_isa::{InstrClass, NUM_INSTR_CLASSES};
use flexcore_mem::{BusStats, CacheStats};
use flexcore_pipeline::{CoreStats, ExitReason};

use crate::ext::MonitorTrap;
use crate::obs::FlightEntry;

/// Forwarding statistics (the data behind the paper's Figure 4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForwardStats {
    /// Instructions committed by the core.
    pub committed: u64,
    /// Packets forwarded to the fabric.
    pub forwarded: u64,
    /// Packets dropped by an `IfNotFull` policy on a full FIFO.
    pub dropped: u64,
    /// Forwarded packets per instruction class.
    pub per_class: [u64; NUM_INSTR_CLASSES],
    /// Cycles the commit stage stalled on a full FIFO.
    pub fifo_stall_cycles: u64,
    /// Peak FIFO occupancy. A `u64` like every other counter here so
    /// serialized results are platform-independent.
    pub peak_occupancy: u64,
}

impl ForwardStats {
    /// Fraction of committed instructions forwarded to the fabric
    /// (Figure 4's y-axis).
    pub fn forwarded_fraction(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.forwarded as f64 / self.committed as f64
        }
    }

    /// Forwarded packets of one class.
    pub fn class_count(&self, class: InstrClass) -> u64 {
        self.per_class[class.index()]
    }
}

serde::codec_object!(ForwardStats {
    "committed": committed,
    "forwarded": forwarded,
    "dropped": dropped,
    "forwarded_fraction": forwarded_fraction(),
    "fifo_stall_cycles": fifo_stall_cycles,
    "peak_occupancy": peak_occupancy,
    "per_class": per_class via flexcore_pipeline::per_class,
});

/// Fault-injection and graceful-degradation accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Faults the injector applied (all targets).
    pub faults_injected: u64,
    /// FFIFO packets corrupted in flight ([`FaultTarget::FifoPacket`]).
    ///
    /// [`FaultTarget::FifoPacket`]: crate::faults::FaultTarget::FifoPacket
    pub packets_corrupted: u64,
    /// Always 0: the only drops are the CFGR's `IfNotFull` ones, counted
    /// in [`ForwardStats::dropped`]. Kept because the benchmark digests
    /// hash it and checkpoint format 4 stores it.
    pub dropped_overflow: u64,
    /// Bitstream transfers that failed validation and were retried.
    pub bitstream_retries: u64,
    /// Bitstreams successfully loaded (including after retries).
    pub bitstream_reloads: u64,
    /// Instructions committed while the system ran in degraded mode
    /// (monitoring bypassed by the recovery supervisor).
    pub unmonitored_commits: u64,
    /// Packets the CFGR would have forwarded for checking but that
    /// degraded mode suppressed.
    pub suppressed_checks: u64,
    /// Mid-run bitstream hot-swaps completed (see
    /// [`crate::reconfig`]).
    pub swaps_completed: u64,
    /// FIFO packets still in flight when a hot-swap began quiescing —
    /// all of them were fully processed by the outgoing extension
    /// before the region was reprogrammed (drained, never dropped).
    pub swap_drained_packets: u64,
    /// Core cycles the commit stage spent stalled across swap windows
    /// (quiesce drain + frame shift-in + retry backoff).
    pub swap_stall_cycles: u64,
    /// Packets never enqueued because a static check-elision table
    /// (see [`ElisionTable`](crate::ElisionTable)) proved the
    /// extension's check redundant at that PC.
    pub elided_checks: u64,
}

serde::codec_object!(ResilienceStats {
    "faults_injected": faults_injected,
    "packets_corrupted": packets_corrupted,
    "dropped_overflow": dropped_overflow,
    "bitstream_retries": bitstream_retries,
    "bitstream_reloads": bitstream_reloads,
    "unmonitored_commits": unmonitored_commits,
    "suppressed_checks": suppressed_checks,
    "swaps_completed": swaps_completed,
    "swap_drained_packets": swap_drained_packets,
    "swap_stall_cycles": swap_stall_cycles,
    "elided_checks": elided_checks,
});

/// The complete result of a [`System`](crate::System) run.
///
/// `PartialEq` compares every *architectural* field — checkpoint
/// round-trip tests use it to assert that an interrupted-and-restored
/// run reproduces the uninterrupted run bit for bit. [`host_ns`]
/// (host wall-clock, which legitimately differs between two identical
/// simulations) is excluded from equality by the manual impl below.
///
/// [`host_ns`]: RunResult::host_ns
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Why the core stopped.
    pub exit: ExitReason,
    /// The monitor trap, if the extension raised one.
    pub monitor_trap: Option<MonitorTrap>,
    /// How many instructions committed *after* the violating one
    /// before the TRAP signal arrived — the imprecision of FlexCore
    /// exceptions (§III.C). `None` when no trap fired.
    pub trap_skid: Option<u64>,
    /// Total core-clock cycles, including draining the fabric at the
    /// end (the EMPTY-signal discipline).
    pub cycles: u64,
    /// Committed instructions.
    pub instret: u64,
    /// Forwarding statistics.
    pub forward: ForwardStats,
    /// Core pipeline statistics.
    pub core: CoreStats,
    /// I-cache statistics.
    pub icache: CacheStats,
    /// D-cache statistics.
    pub dcache: CacheStats,
    /// Meta-data cache statistics.
    pub meta_cache: CacheStats,
    /// Shared-bus statistics.
    pub bus: BusStats,
    /// Fault-injection and graceful-degradation counters.
    pub resilience: ResilienceStats,
    /// Console output produced by the program.
    pub console: Vec<u8>,
    /// The last committed instructions, oldest first — populated when a
    /// [`FlightRecorder`](crate::obs::FlightRecorder) (or an
    /// [`Observer`](crate::obs::Observer) carrying one) is installed as
    /// the system's trace sink; empty otherwise.
    pub flight: Vec<FlightEntry>,
    /// Host wall-clock nanoseconds spent inside the run loop
    /// (accumulated across checkpoint/resume segments). Measurement,
    /// not architectural state: excluded from `PartialEq` and from the
    /// byte-determinism contracts on serialized results.
    pub host_ns: u64,
}

impl PartialEq for RunResult {
    fn eq(&self, other: &Self) -> bool {
        // Every field except `host_ns` — two bit-identical simulations
        // still take different amounts of host time.
        self.exit == other.exit
            && self.monitor_trap == other.monitor_trap
            && self.trap_skid == other.trap_skid
            && self.cycles == other.cycles
            && self.instret == other.instret
            && self.forward == other.forward
            && self.core == other.core
            && self.icache == other.icache
            && self.dcache == other.dcache
            && self.meta_cache == other.meta_cache
            && self.bus == other.bus
            && self.resilience == other.resilience
            && self.console == other.console
            && self.flight == other.flight
    }
}

impl RunResult {
    /// Cycles per committed instruction.
    pub fn cpi(&self) -> f64 {
        if self.instret == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instret as f64
        }
    }

    /// Host wall-clock seconds spent in the run loop.
    pub fn host_secs(&self) -> f64 {
        self.host_ns as f64 / 1e9
    }

    /// Simulated instructions committed per host second (0.0 when no
    /// host time was measured).
    pub fn sim_insns_per_sec(&self) -> f64 {
        if self.host_ns == 0 {
            0.0
        } else {
            self.instret as f64 / self.host_secs()
        }
    }

    /// Simulated core-clock cycles per host second (0.0 when no host
    /// time was measured).
    pub fn sim_cycles_per_sec(&self) -> f64 {
        if self.host_ns == 0 {
            0.0
        } else {
            self.cycles as f64 / self.host_secs()
        }
    }

    /// A human-readable summary table (the `flexsim` default output).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        fn cache_line(out: &mut String, name: &str, s: &CacheStats) {
            let _ = writeln!(
                out,
                "{name:<18}{} accesses, {} misses ({:.2}% miss), {} writebacks",
                s.accesses(),
                s.read_misses + s.write_misses,
                s.miss_ratio() * 100.0,
                s.writebacks,
            );
        }
        let mut out = String::new();
        let _ = writeln!(out, "{:<18}{:?}", "exit", self.exit);
        if let Some(trap) = &self.monitor_trap {
            let _ = writeln!(out, "{:<18}{trap}", "monitor trap");
            if let Some(skid) = self.trap_skid {
                let _ = writeln!(out, "{:<18}{skid} instructions (imprecise, §III.C)", "trap skid");
            }
        }
        let _ = writeln!(out, "{:<18}{}", "cycles", self.cycles);
        let _ = writeln!(out, "{:<18}{}", "instret", self.instret);
        let _ = writeln!(out, "{:<18}{:.4}", "cpi", self.cpi());
        if self.host_ns > 0 {
            let _ = writeln!(out, "{:<18}{:.3}s", "host time", self.host_secs());
            let _ = writeln!(
                out,
                "{:<18}{:.0} sim insns/s, {:.0} sim cycles/s",
                "host rate",
                self.sim_insns_per_sec(),
                self.sim_cycles_per_sec(),
            );
        }
        let _ = writeln!(
            out,
            "{:<18}{} of {} committed ({:.2}%), {} dropped",
            "forwarded",
            self.forward.forwarded,
            self.forward.committed,
            self.forward.forwarded_fraction() * 100.0,
            self.forward.dropped,
        );
        let _ = writeln!(
            out,
            "{:<18}{} stall cycles, peak occupancy {}",
            "forward fifo", self.forward.fifo_stall_cycles, self.forward.peak_occupancy,
        );
        cache_line(&mut out, "icache", &self.icache);
        cache_line(&mut out, "dcache", &self.dcache);
        cache_line(&mut out, "meta cache", &self.meta_cache);
        let _ = writeln!(
            out,
            "{:<18}{} busy cycles; core {} xfers ({} wait), fabric {} xfers ({} wait)",
            "bus",
            self.bus.busy_cycles,
            self.bus.core_transfers,
            self.bus.core_wait_cycles,
            self.bus.fabric_transfers,
            self.bus.fabric_wait_cycles,
        );
        if self.resilience != ResilienceStats::default() {
            let _ = writeln!(
                out,
                "{:<18}{} faults, {} packets corrupted, {} overflow drops, {} bitstream retries",
                "resilience",
                self.resilience.faults_injected,
                self.resilience.packets_corrupted,
                self.resilience.dropped_overflow,
                self.resilience.bitstream_retries,
            );
        }
        if self.resilience.unmonitored_commits != 0 || self.resilience.suppressed_checks != 0 {
            let _ = writeln!(
                out,
                "{:<18}{} unmonitored commits, {} suppressed checks",
                "degraded mode",
                self.resilience.unmonitored_commits,
                self.resilience.suppressed_checks,
            );
        }
        if self.resilience.swaps_completed != 0 {
            let _ = writeln!(
                out,
                "{:<18}{} completed, {} packets drained, {} stall cycles",
                "hot swaps",
                self.resilience.swaps_completed,
                self.resilience.swap_drained_packets,
                self.resilience.swap_stall_cycles,
            );
        }
        if self.resilience.elided_checks != 0 {
            let _ = writeln!(
                out,
                "{:<18}{} checks statically discharged (never enqueued)",
                "elided", self.resilience.elided_checks,
            );
        }
        if !self.flight.is_empty() {
            let _ =
                writeln!(out, "last {} commits (instret cycle pc disassembly):", self.flight.len());
            for e in &self.flight {
                let _ = writeln!(out, "  {e}");
            }
        }
        out
    }
}

// Host-time measurement fields all carry the `host_` prefix so
// determinism gates can filter them (`grep -v '"host_'`): wall-clock
// legitimately differs between identical runs.
serde::codec_object!(encode RunResult {
    "exit": exit,
    "monitor_trap": monitor_trap,
    "trap_skid": trap_skid,
    "cycles": cycles,
    "instret": instret,
    "cpi": cpi(),
    "forward": forward,
    "core": core,
    "icache": icache,
    "dcache": dcache,
    "meta_cache": meta_cache,
    "bus": bus,
    "resilience": resilience,
    "console": console via lossy_text,
    "flight": flight,
    "host_ns": host_ns,
    "host_sim_insns_per_sec": sim_insns_per_sec(),
    "host_sim_cycles_per_sec": sim_cycles_per_sec(),
});

/// Encode-only field adapter: bytes as text, invalid UTF-8 as U+FFFD.
mod lossy_text {
    pub(super) fn enc(bytes: &[u8]) -> serde::Value {
        serde::Value::Str(String::from_utf8_lossy(bytes).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize, Value};

    #[test]
    fn forward_stats_round_trip_key_counters() {
        let s =
            ForwardStats { committed: 10, forwarded: 4, peak_occupancy: 3, ..Default::default() };
        let v = s.to_value();
        assert_eq!(v.get("committed").and_then(Value::as_u64), Some(10));
        assert_eq!(v.get("peak_occupancy").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("forwarded_fraction").and_then(Value::as_f64), Some(0.4));
        assert_eq!(ForwardStats::dec(&v, "forward"), Ok(s), "the extra is skipped");
    }

    #[test]
    fn forwarded_fraction_handles_empty_run() {
        let s = ForwardStats::default();
        assert_eq!(s.forwarded_fraction(), 0.0);
    }

    #[test]
    fn forwarded_fraction_is_a_ratio() {
        let s = ForwardStats { committed: 200, forwarded: 50, ..Default::default() };
        assert_eq!(s.forwarded_fraction(), 0.25);
    }
}
