//! Typed simulation errors returned by
//! [`System::try_run`](crate::System::try_run) and
//! [`System::load_bitstream`](crate::System::load_bitstream).

use flexcore_mem::BusStats;

use crate::lockstep::DivergenceReport;
use crate::obs::FlightEntry;

/// Diagnostic state captured when the forward-progress watchdog fires.
#[derive(Clone, Debug)]
pub struct DeadlockSnapshot {
    /// Core-clock cycle at detection.
    pub cycle: u64,
    /// Program counter of the core.
    pub pc: u32,
    /// Instructions committed so far.
    pub instret: u64,
    /// Forward-FIFO occupancy at detection (a `u64` like every other
    /// serialized counter, for platform-independent output).
    pub fifo_occupancy: u64,
    /// Configured forward-FIFO depth.
    pub fifo_depth: u64,
    /// Cycle at which the fabric would next be free (astronomically far
    /// in the future when the fabric is wedged).
    pub fabric_free_at: u64,
    /// Whether a fault has wedged the fabric.
    pub fabric_stuck: bool,
    /// Shared-bus state at detection.
    pub bus: BusStats,
    /// The last committed instructions, oldest first — populated when a
    /// [`FlightRecorder`](crate::obs::FlightRecorder) (or an
    /// [`Observer`](crate::obs::Observer) carrying one) is installed as
    /// the system's trace sink; empty otherwise.
    pub recent: Vec<FlightEntry>,
}

impl DeadlockSnapshot {
    /// The flight log as one disassembled line per commit (empty string
    /// when no flight recorder was installed).
    pub fn recent_disassembly(&self) -> String {
        let mut out = String::new();
        for e in &self.recent {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for DeadlockSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycle {} pc {:#010x} instret {} fifo {}/{} fabric_free_at {}{}",
            self.cycle,
            self.pc,
            self.instret,
            self.fifo_occupancy,
            self.fifo_depth,
            self.fabric_free_at,
            if self.fabric_stuck { " (fabric wedged)" } else { "" },
        )?;
        if !self.recent.is_empty() {
            write!(f, " ({} recent commits recorded)", self.recent.len())?;
        }
        Ok(())
    }
}

/// Why a simulation could not run to completion.
///
/// [`System::try_run`](crate::System::try_run) returns these so
/// harnesses (and the `faultsweep` campaign) can keep going.
#[derive(Clone, Debug)]
pub enum SimError {
    /// The system stopped making forward progress: no commit within the
    /// configured watchdog window, or the fabric can never drain the
    /// forward FIFO (so the core's end-of-program EMPTY wait would
    /// spin forever).
    Deadlock(DeadlockSnapshot),
    /// The core-clock cycle count exceeded the configured budget
    /// (`SystemConfig::with_cycle_budget`).
    CycleBudgetExceeded {
        /// The configured budget.
        budget: u64,
        /// The cycle count when the budget check tripped.
        cycle: u64,
        /// Instructions committed by then.
        instret: u64,
    },
    /// The cycle-level core disagreed with the ISA-level golden model
    /// while lockstep checking
    /// ([`System::enable_lockstep`](crate::System::enable_lockstep))
    /// was active. Carries a minimized [`DivergenceReport`]: the last
    /// commits of both models, the architectural-state delta, and the
    /// frozen flight-recorder ring.
    Divergence(Box<DivergenceReport>),
    /// Corruption that graceful degradation could not absorb — e.g. a
    /// bitstream that still fails its checksum after the configured
    /// number of reload attempts.
    UnrecoverableCorruption {
        /// What was corrupted.
        context: &'static str,
        /// How many attempts were made before giving up.
        attempts: u32,
        /// Human-readable detail from the last failure.
        detail: String,
    },
}

impl SimError {
    /// A short stable tag naming the error class — recovery reports and
    /// triage logs key on it ("deadlock", "cycle-budget", "divergence",
    /// "corruption").
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Deadlock(_) => "deadlock",
            SimError::CycleBudgetExceeded { .. } => "cycle-budget",
            SimError::Divergence(_) => "divergence",
            SimError::UnrecoverableCorruption { .. } => "corruption",
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock(snap) => write!(f, "deadlock detected: {snap}"),
            SimError::CycleBudgetExceeded { budget, cycle, instret } => {
                write!(f, "cycle budget exceeded: {cycle} > {budget} after {instret} instructions")
            }
            SimError::Divergence(report) => write!(f, "lockstep divergence: {report}"),
            SimError::UnrecoverableCorruption { context, attempts, detail } => write!(
                f,
                "unrecoverable corruption in {context} after {attempts} attempt(s): {detail}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_essentials() {
        let snap = DeadlockSnapshot {
            cycle: 12,
            pc: 0x40,
            instret: 3,
            fifo_occupancy: 4,
            fifo_depth: 4,
            fabric_free_at: u64::MAX / 2,
            fabric_stuck: true,
            bus: BusStats::default(),
            recent: Vec::new(),
        };
        let msg = SimError::Deadlock(snap).to_string();
        assert!(msg.contains("deadlock"));
        assert!(msg.contains("fifo 4/4"));
        assert!(msg.contains("fabric wedged"));

        let msg = SimError::CycleBudgetExceeded { budget: 10, cycle: 11, instret: 2 }.to_string();
        assert!(msg.contains("11 > 10"));

        let msg = SimError::UnrecoverableCorruption {
            context: "bitstream",
            attempts: 4,
            detail: "bad checksum".into(),
        }
        .to_string();
        assert!(msg.contains("bitstream"));
        assert!(msg.contains("4 attempt"));
    }
}
