//! Supervised rollback-and-replay recovery.
//!
//! The headline invariants:
//!
//! * A single-bit result strike at *any* commit of *any* paper
//!   workload, detected under lockstep and recovered by the
//!   [`Supervisor`], finishes with a [`RunResult`] bit-identical to the
//!   uninterrupted fault-free run.
//! * Triage ([`FaultOutcome::classify`]) is deterministic: re-running
//!   the same seeded trial reproduces the same label and the same
//!   recovery report — the property the `faultsweep --recover --resume`
//!   progress cache relies on.
//! * Degraded mode is observable: unmonitored commits and suppressed
//!   checks show up in [`RunResult::summary`] and recovery/degraded
//!   events reach the trace sink.

use std::sync::OnceLock;

use flexcore_suite::flexcore::ext::Umc;
use flexcore_suite::flexcore::faults::{FaultModel, FaultPlan, FaultSchedule, FaultTarget};
use flexcore_suite::flexcore::obs::{TraceEvent, VecSink};
use flexcore_suite::flexcore::recovery::{
    FaultOutcome, RecoveryPolicy, RecoveryReport, Supervisor,
};
use flexcore_suite::flexcore::{RunResult, System, SystemConfig};
use flexcore_suite::workloads::Workload;
use proptest::prelude::*;

const MAX_INSTRUCTIONS: u64 = 50_000_000;

fn fresh(w: &Workload) -> System<Umc> {
    let program = w.program().unwrap_or_else(|e| panic!("{} assembles: {e}", w.name()));
    let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
    sys.load_program(&program);
    sys
}

/// Uninterrupted fault-free reference results, one per paper workload,
/// computed once and shared across proptest cases.
fn reference(idx: usize) -> &'static RunResult {
    static REFS: OnceLock<Vec<RunResult>> = OnceLock::new();
    &REFS.get_or_init(|| {
        Workload::all()
            .iter()
            .map(|w| fresh(w).try_run(MAX_INSTRUCTIONS).expect("fault-free run"))
            .collect()
    })[idx]
}

/// One supervised trial: a single-bit result strike at about `frac` of
/// workload `idx`'s commits, detected under lockstep, recovered by the
/// supervisor. Returns the final result and the recovery report.
fn supervised_trial(idx: usize, frac: f64, bit: u32) -> (RunResult, RecoveryReport) {
    let w = &Workload::all()[idx];
    let site = ((reference(idx).instret as f64 * frac) as u64).max(1);
    let mut sys = fresh(w);
    sys.enable_lockstep();
    sys.arm_faults(FaultPlan::new(0).inject(
        FaultTarget::CommitResult,
        FaultSchedule::AtCommit(site),
        FaultModel::Mask(1 << bit),
    ));
    let mut sup = Supervisor::new(sys, RecoveryPolicy { checkpoint_every: 5_000 });
    let r = sup.run(MAX_INSTRUCTIONS).expect("supervised run completes");
    (r, sup.report().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Strike any commit of any workload: either the flip never touched
    /// architectural state (masked — the packet had no destination
    /// register) or lockstep catches it and the supervisor's replay is
    /// bit-exact against the uninterrupted fault-free run.
    #[test]
    fn supervised_recovery_reproduces_the_fault_free_run(
        idx in 0usize..6,
        frac_ppm in 20_000u64..950_000,
        bit in 0u32..32,
    ) {
        let (r, report) = supervised_trial(idx, frac_ppm as f64 / 1e6, bit);
        let reference = reference(idx);
        if report.errors_detected > 0 {
            // Recovery rewound to a pre-fault checkpoint, so even the
            // resilience counters match the clean run.
            prop_assert_eq!(&r, reference, "recovered replay must be bit-exact");
            prop_assert!(report.replays >= 1);
            prop_assert!(report.mttr_cycles > 0, "repair rewound past the detection point");
        } else {
            // The strike landed on a packet with no destination
            // register: monitoring-path corruption only. Architecture
            // (and timing) match; only the injection counter differs.
            let mut normalized = r.clone();
            normalized.resilience = reference.resilience;
            prop_assert_eq!(&normalized, reference, "masked strike must not perturb the run");
        }
        let triage = FaultOutcome::classify(&report, &Ok(r), reference);
        prop_assert!(
            triage == FaultOutcome::Masked || triage == FaultOutcome::DetectedRecovered,
            "unexpected triage {triage} for a recoverable strike"
        );
    }
}

/// The six kernels all recover from a mid-run strike (the proptest
/// samples; this pins full coverage).
#[test]
fn every_workload_recovers_from_a_midpoint_strike() {
    for idx in 0..Workload::all().len() {
        let (r, report) = supervised_trial(idx, 0.5, 7);
        let triage = FaultOutcome::classify(&report, &Ok(r.clone()), reference(idx));
        assert!(
            triage == FaultOutcome::Masked || triage == FaultOutcome::DetectedRecovered,
            "{}: unexpected triage {triage}",
            Workload::all()[idx].name()
        );
        if report.errors_detected > 0 {
            assert_eq!(&r, reference(idx), "{} replay not bit-exact", Workload::all()[idx].name());
        }
    }
}

/// Determinism behind `faultsweep --recover --resume`: re-running the
/// same seeded trial reproduces the same triage label and the same
/// recovery report, so a resumed campaign can reuse recorded outcomes.
#[test]
fn triage_labels_are_deterministic_across_reruns() {
    let (r1, report1) = supervised_trial(1, 0.37, 13);
    let (r2, report2) = supervised_trial(1, 0.37, 13);
    assert_eq!(r1, r2, "supervised runs are deterministic");
    assert_eq!(report1, report2, "recovery reports are deterministic");
    let t1 = FaultOutcome::classify(&report1, &Ok(r1), reference(1));
    let t2 = FaultOutcome::classify(&report2, &Ok(r2), reference(1));
    assert_eq!(t1.label(), t2.label());
}

/// Degraded mode is observable end-to-end: a persistent monitor trap
/// exhausts the replay rungs, the program completes unmonitored, and
/// the counters surface in the human-readable summary.
#[test]
fn degraded_mode_counters_surface_in_the_summary() {
    let program = flexcore_suite::asm::assemble(
        "start:  set 0x8000, %o0
                 st %g0, [%o0]
                 ld [%o0], %o1
                 ld [%o0 + 4], %o2   ! uninitialized: UMC traps every replay
                 ta 0",
    )
    .expect("assembles");
    let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
    sys.load_program(&program);
    let mut sup = Supervisor::new(sys, RecoveryPolicy::default());
    let r = sup.run(MAX_INSTRUCTIONS).expect("degraded completion");
    let report = sup.report();

    assert!(report.degraded_entered);
    assert!(r.monitor_trap.is_none());
    assert!(r.resilience.unmonitored_commits > 0);
    assert!(r.resilience.suppressed_checks > 0);
    let summary = r.summary();
    assert!(summary.contains("degraded mode"), "summary lacks the degraded line:\n{summary}");
    assert!(
        summary.contains(&format!("{} unmonitored commits", r.resilience.unmonitored_commits)),
        "summary lacks the counter:\n{summary}"
    );
}

/// Recovery and degraded-mode transitions reach the trace sink, so
/// Chrome/Perfetto exports can render them on the timeline.
#[test]
fn recovery_events_reach_the_trace_sink() {
    let program = flexcore_suite::asm::assemble(
        "start:  set 0x8000, %o0
                 st %g0, [%o0]
                 ld [%o0 + 4], %o2
                 ta 0",
    )
    .expect("assembles");
    let mut sys =
        System::with_sink(SystemConfig::fabric_half_speed(), Umc::new(), VecSink::default());
    sys.load_program(&program);
    let mut sup = Supervisor::new(sys, RecoveryPolicy::default());
    sup.run(MAX_INSTRUCTIONS).expect("degraded completion");
    let report = sup.report().clone();
    let events = sup.into_system().into_sink().events;

    let recoveries: Vec<u32> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Recovery { rung, .. } => Some(*rung),
            _ => None,
        })
        .collect();
    assert_eq!(
        recoveries,
        report.attempts.iter().map(|a| a.rung).collect::<Vec<_>>(),
        "one Recovery event per ladder attempt, in order"
    );
    assert_eq!(
        events.iter().filter(|e| matches!(e, TraceEvent::DegradedEnter { .. })).count(),
        1,
        "exactly one degraded-mode entry"
    );
}
