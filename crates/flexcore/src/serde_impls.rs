//! `Serialize` implementations for run results and diagnostics.

use flexcore_pipeline::per_class_value;
use serde::{Serialize, Value};

use crate::error::{DeadlockSnapshot, SimError};
use crate::ext::MonitorTrap;
use crate::lockstep::{DivergenceReport, LockstepCommit, RegMismatch};
use crate::obs::FlightEntry;
use crate::stats::{ForwardStats, ResilienceStats, RunResult};

impl Serialize for ForwardStats {
    fn to_value(&self) -> Value {
        Value::object()
            .field("committed", &self.committed)
            .field("forwarded", &self.forwarded)
            .field("dropped", &self.dropped)
            .field("forwarded_fraction", &self.forwarded_fraction())
            .field("fifo_stall_cycles", &self.fifo_stall_cycles)
            .field("peak_occupancy", &self.peak_occupancy)
            .raw("per_class", per_class_value(&self.per_class))
            .build()
    }
}

impl Serialize for ResilienceStats {
    fn to_value(&self) -> Value {
        Value::object()
            .field("faults_injected", &self.faults_injected)
            .field("packets_corrupted", &self.packets_corrupted)
            .field("dropped_overflow", &self.dropped_overflow)
            .field("bitstream_retries", &self.bitstream_retries)
            .field("bitstream_reloads", &self.bitstream_reloads)
            .field("unmonitored_commits", &self.unmonitored_commits)
            .field("suppressed_checks", &self.suppressed_checks)
            .field("swaps_completed", &self.swaps_completed)
            .field("swap_drained_packets", &self.swap_drained_packets)
            .field("swap_stall_cycles", &self.swap_stall_cycles)
            .field("elided_checks", &self.elided_checks)
            .build()
    }
}

impl Serialize for MonitorTrap {
    fn to_value(&self) -> Value {
        Value::object()
            .field("pc", &format!("{:#010x}", self.pc))
            .field("reason", &self.reason)
            .build()
    }
}

impl Serialize for FlightEntry {
    fn to_value(&self) -> Value {
        Value::object()
            .field("instret", &self.instret)
            .field("cycle", &self.cycle)
            .field("pc", &format!("{:#010x}", self.pc))
            .field("disassembly", &self.inst.to_string())
            .build()
    }
}

impl Serialize for DeadlockSnapshot {
    fn to_value(&self) -> Value {
        Value::object()
            .field("cycle", &self.cycle)
            .field("pc", &format!("{:#010x}", self.pc))
            .field("instret", &self.instret)
            .field("fifo_occupancy", &self.fifo_occupancy)
            .field("fifo_depth", &self.fifo_depth)
            .field("fabric_free_at", &self.fabric_free_at)
            .field("fabric_stuck", &self.fabric_stuck)
            .field("bus", &self.bus)
            .field("recent", &self.recent)
            .build()
    }
}

impl Serialize for LockstepCommit {
    fn to_value(&self) -> Value {
        Value::object()
            .field("index", &self.index)
            .field("pc", &format!("{:#010x}", self.pc))
            .field("inst_word", &format!("{:#010x}", self.inst_word))
            .build()
    }
}

impl Serialize for RegMismatch {
    fn to_value(&self) -> Value {
        Value::object()
            .field("reg", &u64::from(self.reg))
            .field("dut", &format!("{:#010x}", self.dut))
            .field("golden", &format!("{:#010x}", self.golden))
            .build()
    }
}

impl Serialize for DivergenceReport {
    fn to_value(&self) -> Value {
        Value::object()
            .field("commit_index", &self.commit_index)
            .field("cycle", &self.cycle)
            .field("reason", &self.reason)
            .field("dut_pc", &format!("{:#010x}", self.dut_pc))
            .field("golden_pc", &format!("{:#010x}", self.golden_pc))
            .field("dut_inst_word", &format!("{:#010x}", self.dut_inst_word))
            .field("golden_inst_word", &format!("{:#010x}", self.golden_inst_word))
            .field("reg_mismatches", &self.reg_mismatches)
            .raw(
                "icc_mismatch",
                self.icc_mismatch.map_or(Value::Null, |(dut, golden)| {
                    Value::object()
                        .field("dut", &u64::from(dut))
                        .field("golden", &u64::from(golden))
                        .build()
                }),
            )
            .field("dut_recent", &self.dut_recent)
            .field("golden_recent", &self.golden_recent)
            .field("flight", &self.flight)
            .build()
    }
}

impl Serialize for SimError {
    fn to_value(&self) -> Value {
        match self {
            SimError::Deadlock(snap) => {
                Value::object().field("kind", &"deadlock").field("detail", snap).build()
            }
            SimError::Divergence(report) => {
                Value::object().field("kind", &"divergence").field("detail", &**report).build()
            }
            SimError::CycleBudgetExceeded { budget, cycle, instret } => Value::object()
                .field("kind", &"cycle_budget_exceeded")
                .raw(
                    "detail",
                    Value::object()
                        .field("budget", budget)
                        .field("cycle", cycle)
                        .field("instret", instret)
                        .build(),
                )
                .build(),
            SimError::UnrecoverableCorruption { context, attempts, detail } => Value::object()
                .field("kind", &"unrecoverable_corruption")
                .raw(
                    "detail",
                    Value::object()
                        .field("context", context)
                        .field("attempts", attempts)
                        .field("detail", detail)
                        .build(),
                )
                .build(),
        }
    }
}

impl Serialize for RunResult {
    fn to_value(&self) -> Value {
        Value::object()
            .field("exit", &self.exit)
            .field("monitor_trap", &self.monitor_trap)
            .field("trap_skid", &self.trap_skid)
            .field("cycles", &self.cycles)
            .field("instret", &self.instret)
            .field("cpi", &self.cpi())
            .field("forward", &self.forward)
            .field("core", &self.core)
            .field("icache", &self.icache)
            .field("dcache", &self.dcache)
            .field("meta_cache", &self.meta_cache)
            .field("bus", &self.bus)
            .field("resilience", &self.resilience)
            .field("console", &String::from_utf8_lossy(&self.console).into_owned())
            .field("flight", &self.flight)
            // Host-time measurement fields all carry the `host_` prefix
            // so determinism gates can filter them (`grep -v '"host_'`):
            // wall-clock legitimately differs between identical runs.
            .field("host_ns", &self.host_ns)
            .field("host_sim_insns_per_sec", &self.sim_insns_per_sec())
            .field("host_sim_cycles_per_sec", &self.sim_cycles_per_sec())
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_stats_round_trip_key_counters() {
        let s =
            ForwardStats { committed: 10, forwarded: 4, peak_occupancy: 3, ..Default::default() };
        let v = s.to_value();
        assert_eq!(v.get("committed").and_then(Value::as_u64), Some(10));
        assert_eq!(v.get("peak_occupancy").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("forwarded_fraction").and_then(Value::as_f64), Some(0.4));
    }

    #[test]
    fn sim_error_serializes_tagged() {
        let e = SimError::CycleBudgetExceeded { budget: 10, cycle: 11, instret: 2 };
        let v = e.to_value();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("cycle_budget_exceeded"));
        let json = serde::to_string(&v);
        assert!(serde::from_str(&json).is_ok(), "emitted JSON parses");
    }
}
