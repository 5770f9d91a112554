//! Supervised rollback-and-replay recovery.
//!
//! The fault-injection campaign (`faultsweep`) established *detection*:
//! SEC catches ALU strikes, lockstep catches architectural divergence,
//! the watchdog catches hangs. This module closes the loop with
//! *recovery*: a [`Supervisor`] owns a [`System`], takes periodic
//! [`Snapshot`]s at commit boundaries, and when the run fails — monitor
//! trap, [`SimError::Divergence`], [`SimError::Deadlock`], cycle-budget
//! blowout, or unrecoverable bitstream corruption — walks a fixed
//! escalation ladder:
//!
//! 1. **Rollback and replay** — restore the last provably-clean
//!    checkpoint (or the initial state) and re-run with the fault plan
//!    disarmed. Replay is deterministic, so a transient strike that was
//!    rolled back cannot recur.
//! 2. **Replay after bitstream reload** — additionally re-map the
//!    extension's netlist and push a fresh bitstream through
//!    [`System::load_bitstream`], clearing any latent fabric
//!    configuration damage, then replay from the initial state.
//! 3. **Degraded mode** — give up on monitoring but not on the program:
//!    restore the initial state, stop forwarding to the extension
//!    ([`System::enter_degraded`]), and run to completion while counting
//!    unmonitored commits and suppressed checks.
//! 4. **Abort** — surface the original failure in a structured
//!    [`RecoveryReport`].
//!
//! A checkpoint is retained only when the injector has struck nothing
//! and no trap is pending ([`System::trap_pending`]), so rung 1 replays
//! from state that is provably on the fault-free timeline — which is
//! what makes the recovered [`RunResult`] bit-exact against an
//! uninterrupted fault-free run (the property the checkpoint subsystem
//! already guarantees, inherited here).
//!
//! [`FaultOutcome::classify`] turns a supervised run plus a clean
//! reference run into the standard fault-outcome taxonomy: **Masked**,
//! **Detected-Recovered**, **SDC** (silent data corruption), or **DUE**
//! (detected unrecoverable error).

use crate::ext::Extension;
use crate::obs::{NullSink, TraceSink};
use crate::stats::{ResilienceStats, RunResult};
use crate::{SimError, Snapshot, System};
use flexcore_fabric::LUT_K;

/// Rung-1 budget: rollback-and-replay attempts before escalating.
pub const MAX_REPLAYS: u32 = 2;

/// Rung-2 budget: replay-after-bitstream-reload attempts before
/// escalating.
pub const MAX_RELOAD_REPLAYS: u32 = 1;

/// Modeled cost of taking one checkpoint, in core-clock cycles.
/// Snapshots are instantaneous in the simulation (they never perturb
/// timing or the replayed state); this constant only prices them in
/// [`RecoveryReport::checkpoint_overhead_cycles`].
pub const CHECKPOINT_COST_CYCLES: u64 = 500;

/// The [`Supervisor`]'s checkpoint cadence, its one setting: the
/// ladder's budgets are [`MAX_REPLAYS`] and [`MAX_RELOAD_REPLAYS`],
/// and rung 3 is always taken before an abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Commit-boundary interval between checkpoint attempts (clamped to
    /// ≥ 1).
    pub checkpoint_every: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy { checkpoint_every: 10_000 }
    }
}

/// One walk up the escalation ladder, as recorded in
/// [`RecoveryReport::attempts`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryAttempt {
    /// Ladder rung taken: 1 = replay, 2 = reload + replay, 3 =
    /// degraded mode.
    pub rung: u32,
    /// Core-clock cycle at which the error was detected.
    pub detect_cycle: u64,
    /// Core-clock cycle of the snapshot the system was rewound to.
    pub restored_cycle: u64,
    /// Human-readable description of the detected error.
    pub error: String,
}

/// What the [`Supervisor`] did, in counters — the recovery analogue of
/// [`RunResult`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Detected errors (monitor traps and [`SimError`]s), including
    /// recurrences after a recovery attempt.
    pub errors_detected: u64,
    /// Rung-1 rollback-and-replay attempts taken.
    pub replays: u32,
    /// Rung-2 reload-and-replay attempts taken.
    pub reload_replays: u32,
    /// Whether rung 3 was entered (monitoring bypassed).
    pub degraded_entered: bool,
    /// Whether the ladder was exhausted and the original failure
    /// surfaced unrecovered.
    pub aborted: bool,
    /// Mean-time-to-repair numerator: Σ (detect cycle − restored
    /// snapshot cycle) over all recovery attempts — the simulated work
    /// each recovery threw away and redid.
    pub mttr_cycles: u64,
    /// Checkpoints retained during supervised execution.
    pub checkpoints_taken: u64,
    /// `checkpoints_taken ×` [`CHECKPOINT_COST_CYCLES`] — the modeled
    /// price of the checkpoint cadence.
    pub checkpoint_overhead_cycles: u64,
    /// Instructions committed while monitoring was bypassed (rung 3).
    pub degraded_commits: u64,
    /// Checks the CFGR would have forwarded but degraded mode
    /// suppressed.
    pub suppressed_checks: u64,
    /// Core-clock cycles spent in degraded mode.
    pub degraded_cycles: u64,
    /// Forward-FIFO entries discarded across all restores — monitoring
    /// work abandoned mid-flight by rollback.
    pub fifo_drained: u64,
    /// Every recovery attempt, in order.
    pub attempts: Vec<RecoveryAttempt>,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "errors detected   {} (replays {}, reload replays {}{}{})",
            self.errors_detected,
            self.replays,
            self.reload_replays,
            if self.degraded_entered { ", degraded" } else { "" },
            if self.aborted { ", ABORTED" } else { "" },
        )?;
        writeln!(
            f,
            "checkpoints       {} taken, {} cycles modeled overhead",
            self.checkpoints_taken, self.checkpoint_overhead_cycles
        )?;
        writeln!(
            f,
            "mttr              {} cycles replayed, {} fifo entries drained",
            self.mttr_cycles, self.fifo_drained
        )?;
        if self.degraded_entered {
            writeln!(
                f,
                "degraded mode     {} cycles, {} unmonitored commits, {} suppressed checks",
                self.degraded_cycles, self.degraded_commits, self.suppressed_checks
            )?;
        }
        for a in &self.attempts {
            writeln!(
                f,
                "  rung {} at cycle {} -> rewound to cycle {}: {}",
                a.rung, a.detect_cycle, a.restored_cycle, a.error
            )?;
        }
        Ok(())
    }
}

/// The standard fault-outcome taxonomy for one supervised trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultOutcome {
    /// No error was ever detected and the architectural outcome matches
    /// the fault-free reference — the strike was absorbed.
    Masked,
    /// At least one error was detected, recovery ran, and the
    /// architectural outcome matches the reference.
    DetectedRecovered,
    /// Silent data corruption: the run completed "successfully" but its
    /// architectural outcome differs from the reference.
    Sdc,
    /// Detected unrecoverable error: the run ended in a [`SimError`] or
    /// the supervisor aborted with the failure unresolved.
    Due,
}

impl FaultOutcome {
    /// All four outcomes, in severity order — campaign tables iterate
    /// this.
    pub const ALL: [FaultOutcome; 4] = [
        FaultOutcome::Masked,
        FaultOutcome::DetectedRecovered,
        FaultOutcome::Sdc,
        FaultOutcome::Due,
    ];

    /// Classifies one supervised trial against a fault-free reference
    /// run of the same workload.
    ///
    /// The comparison is *architectural* — exit reason, committed
    /// instruction count, and console output — not cycle counts, which
    /// legitimately differ once a replay or degraded-mode completion is
    /// involved.
    pub fn classify(
        report: &RecoveryReport,
        result: &Result<RunResult, SimError>,
        reference: &RunResult,
    ) -> FaultOutcome {
        let r = match result {
            Ok(r) => r,
            Err(_) => return FaultOutcome::Due,
        };
        if report.aborted || r.monitor_trap.is_some() {
            return FaultOutcome::Due;
        }
        let architectural_match = r.exit == reference.exit
            && r.instret == reference.instret
            && r.console == reference.console;
        match (report.errors_detected > 0, architectural_match) {
            (true, true) => FaultOutcome::DetectedRecovered,
            (false, true) => FaultOutcome::Masked,
            (_, false) => FaultOutcome::Sdc,
        }
    }

    /// Short stable label ("masked", "recovered", "sdc", "due") — the
    /// triage-log key.
    pub fn label(self) -> &'static str {
        match self {
            FaultOutcome::Masked => "masked",
            FaultOutcome::DetectedRecovered => "recovered",
            FaultOutcome::Sdc => "sdc",
            FaultOutcome::Due => "due",
        }
    }

    /// Inverse of [`FaultOutcome::label`] — decodes a triage-log key
    /// back into the outcome (`None` for anything unrecognized).
    pub fn from_label(label: &str) -> Option<FaultOutcome> {
        FaultOutcome::ALL.into_iter().find(|o| o.label() == label)
    }
}

impl std::fmt::Display for FaultOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FaultOutcome::Masked => "Masked",
            FaultOutcome::DetectedRecovered => "Detected-Recovered",
            FaultOutcome::Sdc => "SDC",
            FaultOutcome::Due => "DUE",
        };
        f.write_str(name)
    }
}

/// Owns a [`System`], checkpoints it periodically, and walks the
/// escalation ladder when a run fails.
///
/// Construct it *after* [`System::load_program`] (and after arming
/// faults / enabling lockstep): [`Supervisor::new`] snapshots the
/// system immediately, and that snapshot is the rung-2/3 "initial
/// state" every deep recovery rewinds to.
#[derive(Debug)]
pub struct Supervisor<E: Extension, S: TraceSink = NullSink> {
    sys: System<E, S>,
    policy: RecoveryPolicy,
    initial: Snapshot,
    last: Option<Snapshot>,
    report: RecoveryReport,
    rung1_used: u32,
    rung2_used: u32,
}

impl<E: Extension, S: TraceSink> Supervisor<E, S> {
    /// Wraps `sys` (program already loaded) under `policy`, taking the
    /// initial snapshot.
    pub fn new(sys: System<E, S>, policy: RecoveryPolicy) -> Supervisor<E, S> {
        let initial = sys.snapshot();
        Supervisor {
            sys,
            policy,
            initial,
            last: None,
            report: RecoveryReport::default(),
            rung1_used: 0,
            rung2_used: 0,
        }
    }

    /// The supervised system.
    pub fn system(&self) -> &System<E, S> {
        &self.sys
    }

    /// Consumes the supervisor, returning the system (e.g. to extract
    /// its trace sink).
    pub fn into_system(self) -> System<E, S> {
        self.sys
    }

    /// What happened so far.
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Runs the system to completion, recovering from failures along
    /// the way.
    ///
    /// Returns `Ok` with a trap-free [`RunResult`] when the program
    /// completed (possibly after replays, possibly in degraded mode).
    /// When the ladder is exhausted the original failure is returned
    /// as-is — an `Err` for [`SimError`]s, an `Ok` result carrying the
    /// monitor trap otherwise — with
    /// [`RecoveryReport::aborted`] set.
    pub fn run(&mut self, max_instructions: u64) -> Result<RunResult, SimError> {
        loop {
            let outcome = self.drive(max_instructions);
            let detected = match &outcome {
                Ok(r) => r
                    .monitor_trap
                    .as_ref()
                    .map(|t| (r.cycles, format!("monitor trap at {:#010x}: {}", t.pc, t.reason))),
                Err(e) => Some((self.sys.core().cycle(), e.to_string())),
            };
            let Some((detect_cycle, error)) = detected else {
                let r = outcome?;
                self.finish(r.resilience, r.cycles);
                return Ok(r);
            };
            self.report.errors_detected += 1;
            if !self.escalate(detect_cycle, error) {
                self.report.aborted = true;
                match outcome {
                    Ok(r) => {
                        self.finish(r.resilience, r.cycles);
                        return Ok(r);
                    }
                    Err(e) => {
                        self.finish(self.sys.resilience(), self.sys.core().cycle());
                        return Err(e);
                    }
                }
            }
        }
    }

    /// One supervised execution attempt: run with periodic checkpoint
    /// pauses until done or an error surfaces.
    fn drive(&mut self, max_instructions: u64) -> Result<RunResult, SimError> {
        if self.sys.degraded() {
            // No point checkpointing: monitoring is off, so there is
            // nothing left to recover to — degraded mode is already the
            // last rung before abort.
            return self.sys.try_run(max_instructions);
        }
        let every = self.policy.checkpoint_every.max(1);
        loop {
            let pause_at = self.sys.core().stats().instret + every;
            match self.sys.try_run_until(max_instructions, pause_at)? {
                crate::RunOutcome::Done(r) => return Ok(r),
                crate::RunOutcome::Paused { .. } => {
                    // Retain the snapshot only when it is provably on
                    // the fault-free timeline: nothing injected yet and
                    // no trap in flight. That keeps rung-1 replays
                    // bit-exact against the uninterrupted clean run.
                    if self.sys.resilience().faults_injected == 0 && !self.sys.trap_pending() {
                        self.last = Some(self.sys.snapshot());
                        self.report.checkpoints_taken += 1;
                    }
                }
            }
        }
    }

    /// Takes the next rung of the ladder. Returns `false` when the
    /// ladder is exhausted (caller aborts).
    fn escalate(&mut self, detect_cycle: u64, error: String) -> bool {
        // Rung 1: rollback and replay. The first attempt trusts the
        // last clean checkpoint; later attempts distrust it and replay
        // from time zero.
        if self.rung1_used < MAX_REPLAYS {
            self.rung1_used += 1;
            let snap = match (&self.last, self.rung1_used) {
                (Some(last), 1) => last,
                _ => &self.initial,
            };
            if self.sys.restore(snap).is_err() {
                return false;
            }
            self.recovered(1, detect_cycle, error);
            self.report.replays += 1;
            return true;
        }

        // Rung 2: reload the fabric configuration from a freshly mapped
        // netlist, then replay from the initial state.
        if self.rung2_used < MAX_RELOAD_REPLAYS {
            self.rung2_used += 1;
            if self.sys.restore(&self.initial).is_err() {
                return false;
            }
            self.sys.disarm_faults();
            let mapping = flexcore_fabric::map_to_luts(&self.sys.extension().netlist(), LUT_K);
            let bytes = flexcore_fabric::to_bitstream(&mapping);
            if self.sys.load_bitstream(&bytes).is_err() {
                return false;
            }
            self.recovered(2, detect_cycle, error);
            self.report.reload_replays += 1;
            return true;
        }

        // Rung 3: degraded mode — run the program out unmonitored.
        if !self.sys.degraded() {
            if self.sys.restore(&self.initial).is_err() {
                return false;
            }
            self.sys.enter_degraded();
            self.recovered(3, detect_cycle, error);
            self.report.degraded_entered = true;
            return true;
        }

        false
    }

    /// Common post-restore bookkeeping for every successful rung.
    fn recovered(&mut self, rung: u32, detect_cycle: u64, error: String) {
        self.sys.disarm_faults();
        self.sys.rearm_flight();
        self.sys.note_recovery(rung);
        let restored_cycle = self.sys.core().cycle();
        self.report.mttr_cycles += detect_cycle.saturating_sub(restored_cycle);
        self.report.attempts.push(RecoveryAttempt { rung, detect_cycle, restored_cycle, error });
    }

    /// Folds end-of-run state into the report.
    fn finish(&mut self, resilience: ResilienceStats, end_cycle: u64) {
        self.report.checkpoint_overhead_cycles =
            self.report.checkpoints_taken * CHECKPOINT_COST_CYCLES;
        self.report.fifo_drained = self.sys.fifo_drained_on_restore();
        self.report.degraded_commits = resilience.unmonitored_commits;
        self.report.suppressed_checks = resilience.suppressed_checks;
        if let Some((entry_cycle, _)) = self.sys.degraded_entry() {
            self.report.degraded_cycles = end_cycle.saturating_sub(entry_cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::Umc;
    use crate::faults::{FaultModel, FaultPlan, FaultSchedule, FaultTarget};
    use crate::SystemConfig;
    use flexcore_asm::assemble;

    fn loopy() -> flexcore_asm::Program {
        assemble(
            "start: mov 400, %o0
                    set buf, %o2
            loop:   ld [%o2], %o1
                    add %o1, %o0, %o1
                    st %o1, [%o2]
                    subcc %o0, 1, %o0
                    bne loop
                    nop
                    ta 0
                    .align 4
            buf:    .word 0",
        )
        .unwrap()
    }

    fn uninit_read() -> flexcore_asm::Program {
        assemble(
            "start:  set 0x8000, %o0
                     st %g0, [%o0]
                     ld [%o0], %o1
                     ld [%o0 + 4], %o2
                     ta 0",
        )
        .unwrap()
    }

    const MAX: u64 = 1_000_000;

    #[test]
    fn policy_defaults_walk_every_rung_once_over() {
        assert_eq!((MAX_REPLAYS, MAX_RELOAD_REPLAYS), (2, 1));
        assert_eq!(RecoveryPolicy::default().checkpoint_every, 10_000);
    }

    #[test]
    fn divergence_is_rolled_back_and_replayed_bit_exact() {
        let mut clean = System::new(SystemConfig::fabric_half_speed(), Umc::new());
        clean.load_program(&loopy());
        let reference = clean.try_run(MAX).expect("clean run completes");

        let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
        sys.load_program(&loopy());
        sys.enable_lockstep();
        sys.arm_faults(FaultPlan::new(0).inject(
            FaultTarget::CommitResult,
            FaultSchedule::AtCommit(1000),
            FaultModel::Mask(1 << 5),
        ));
        let mut sup = Supervisor::new(sys, RecoveryPolicy { checkpoint_every: 256 });
        let recovered = sup.run(MAX).expect("supervisor recovers the divergence");

        assert_eq!(recovered, reference, "replay is bit-exact");
        let report = sup.report();
        assert_eq!(report.errors_detected, 1);
        assert_eq!(report.replays, 1);
        assert_eq!(report.reload_replays, 0);
        assert!(!report.degraded_entered);
        assert!(!report.aborted);
        assert!(report.checkpoints_taken > 0, "the loop crosses several checkpoint boundaries");
        assert!(report.mttr_cycles > 0, "detection happened after the restored checkpoint");
        assert_eq!(report.attempts.len(), 1);
        assert_eq!(report.attempts[0].rung, 1);
        assert!(report.attempts[0].error.contains("divergence"), "{}", report.attempts[0].error);

        let outcome = FaultOutcome::classify(report, &Ok(recovered.clone()), &reference);
        assert_eq!(outcome, FaultOutcome::DetectedRecovered);

        // Sanity-check the other taxonomy corners with the same data.
        let clean_report = RecoveryReport::default();
        assert_eq!(
            FaultOutcome::classify(&clean_report, &Ok(reference.clone()), &reference),
            FaultOutcome::Masked
        );
        let mut skewed = reference.clone();
        skewed.instret += 1;
        assert_eq!(
            FaultOutcome::classify(&clean_report, &Ok(skewed), &reference),
            FaultOutcome::Sdc
        );
    }

    #[test]
    fn persistent_trap_walks_the_ladder_into_degraded_mode() {
        // A genuine program bug (uninitialized read) recurs on every
        // replay no matter how often we rewind: rungs 1, 1, 2 all fail,
        // rung 3 completes the program unmonitored.
        let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
        sys.load_program(&uninit_read());
        let mut sup = Supervisor::new(sys, RecoveryPolicy::default());
        let r = sup.run(MAX).expect("degraded mode completes");

        assert!(r.monitor_trap.is_none(), "degraded run never traps");
        let report = sup.report();
        assert_eq!(report.errors_detected, 4);
        assert_eq!(report.replays, 2);
        assert_eq!(report.reload_replays, 1);
        assert!(report.degraded_entered);
        assert!(!report.aborted);
        assert!(report.degraded_cycles > 0);
        assert_eq!(report.degraded_commits, r.instret, "every commit ran unmonitored");
        assert_eq!(r.resilience.unmonitored_commits, r.instret);
        assert!(r.resilience.suppressed_checks > 0, "UMC would have checked the loads/stores");
        assert_eq!(report.attempts.iter().map(|a| a.rung).collect::<Vec<_>>(), vec![1, 1, 2, 3]);
    }

    #[test]
    fn exhausted_ladder_aborts_with_the_original_error() {
        // An endless loop blows the cycle budget on every attempt,
        // degraded mode included: rungs 1, 1, 2 and 3 all fail, then
        // the ladder is exhausted.
        let config = SystemConfig::fabric_half_speed().with_cycle_budget(50_000);
        let mut sys = System::new(config, Umc::new());
        sys.load_program(&assemble("start: ba start\n nop").unwrap());
        let mut sup = Supervisor::new(sys, RecoveryPolicy::default());
        let result = sup.run(MAX);
        assert!(
            matches!(result, Err(SimError::CycleBudgetExceeded { budget: 50_000, .. })),
            "the budget error surfaces unrecovered: {result:?}"
        );
        let report = sup.report();
        assert!(report.aborted);
        assert!(report.degraded_entered);
        assert_eq!(report.errors_detected, 5);
        assert_eq!(report.attempts.iter().map(|a| a.rung).collect::<Vec<_>>(), vec![1, 1, 2, 3]);
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(FaultOutcome::Masked.to_string(), "Masked");
        assert_eq!(FaultOutcome::DetectedRecovered.to_string(), "Detected-Recovered");
        assert_eq!(FaultOutcome::Sdc.to_string(), "SDC");
        assert_eq!(FaultOutcome::Due.to_string(), "DUE");
        assert_eq!(FaultOutcome::Due.label(), "due");
        assert_eq!(FaultOutcome::ALL.len(), 4);
    }
}
