//! Checkpoint/restore round-trips and lockstep golden-model checking.
//!
//! The headline invariants:
//!
//! * A run interrupted at *any* commit boundary, snapshotted through
//!   JSON, and restored into a freshly built system finishes with a
//!   [`RunResult`] bit-identical to the uninterrupted run — on every
//!   paper workload, with or without an armed fault campaign.
//! * An injected architectural fault under lockstep surfaces as
//!   [`SimError::Divergence`] with a populated report, while
//!   monitoring-path corruption (which touches no architectural state)
//!   does not.

use std::sync::OnceLock;

use flexcore_suite::flexcore::checkpoint::Snapshot;
use flexcore_suite::flexcore::ext::Umc;
use flexcore_suite::flexcore::faults::{FaultModel, FaultPlan, FaultSchedule, FaultTarget};
use flexcore_suite::flexcore::{RunOutcome, RunResult, SimError, System, SystemConfig};
use flexcore_suite::pipeline::ExitReason;
use flexcore_suite::workloads::Workload;
use proptest::prelude::*;

const MAX_INSTRUCTIONS: u64 = 50_000_000;

fn fresh(w: &Workload) -> System<Umc> {
    let program = w.program().unwrap_or_else(|e| panic!("{} assembles: {e}", w.name()));
    let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
    sys.load_program(&program);
    sys
}

/// Uninterrupted reference results, one per paper workload, computed
/// once and shared across proptest cases.
fn reference(idx: usize) -> &'static RunResult {
    static REFS: OnceLock<Vec<RunResult>> = OnceLock::new();
    &REFS.get_or_init(|| {
        Workload::all()
            .iter()
            .map(|w| fresh(w).try_run(MAX_INSTRUCTIONS).expect("uninterrupted run"))
            .collect()
    })[idx]
}

/// Interrupts a fresh run of workload `idx` after about `frac` of its
/// commits, round-trips the snapshot through JSON, restores it into
/// another fresh system, and returns the resumed run's result.
fn interrupt_and_resume(idx: usize, frac: f64) -> RunResult {
    let w = &Workload::all()[idx];
    let pause = (reference(idx).instret as f64 * frac) as u64;
    let mut first = fresh(w);
    match first.try_run_until(MAX_INSTRUCTIONS, pause).expect("run to the pause point") {
        RunOutcome::Paused { instret, .. } => assert!(instret >= pause),
        RunOutcome::Done(r) => panic!("finished before the pause point: {:?}", r.exit),
    }
    let snap = first.snapshot();
    let json = snap.to_json();
    let parsed = Snapshot::from_json(&json).expect("checkpoint JSON parses");
    assert_eq!(parsed, snap, "snapshot survives the JSON round-trip");
    let mut resumed = fresh(w);
    resumed.restore(&parsed).expect("snapshot restores into an identically built system");
    resumed.try_run(MAX_INSTRUCTIONS).expect("resumed run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interrupt each workload at a random point; the resumed run's
    /// result must be bit-identical to the uninterrupted run's.
    #[test]
    fn interrupted_run_reproduces_uninterrupted_result(
        idx in 0usize..6,
        frac_ppm in 20_000u64..980_000,
    ) {
        prop_assert_eq!(&interrupt_and_resume(idx, frac_ppm as f64 / 1e6), reference(idx));
    }
}

/// Every workload survives at least one interrupt point (the proptest
/// above samples; this pins full coverage of the six kernels).
#[test]
fn every_workload_round_trips_at_the_midpoint() {
    for idx in 0..Workload::all().len() {
        assert_eq!(
            &interrupt_and_resume(idx, 0.5),
            reference(idx),
            "{} diverged after restore",
            Workload::all()[idx].name()
        );
    }
}

/// Runs bitcount under `plan` whole, and again paused a third of the
/// way in, snapshotted and resumed in a fresh system: the resumed run
/// must replay the exact same strikes.
fn assert_resume_replays_the_campaign(plan: impl Fn() -> FaultPlan) {
    let w = Workload::bitcount();
    let mut whole = fresh(&w);
    whole.arm_faults(plan());
    let full = whole.try_run(MAX_INSTRUCTIONS).expect("faulted run completes");
    assert!(full.resilience.faults_injected > 0, "the campaign fired");

    let mut first = fresh(&w);
    first.arm_faults(plan());
    let pause = full.instret / 3;
    match first.try_run_until(MAX_INSTRUCTIONS, pause).expect("run to the pause point") {
        RunOutcome::Paused { .. } => {}
        RunOutcome::Done(r) => panic!("finished before the pause point: {:?}", r.exit),
    }
    let snap = first.snapshot();
    assert!(snap.faults.is_some(), "injector state rides in the snapshot");

    let mut second = fresh(&w);
    second.arm_faults(plan());
    second.restore(&snap).expect("restore with the re-armed plan");
    let resumed = second.try_run(MAX_INSTRUCTIONS).expect("resumed faulted run");
    assert_eq!(resumed, full, "fault campaign diverged after restore");
    assert_eq!(second.fault_log(), whole.fault_log(), "the strikes landed elsewhere");
}

/// Checkpointing composes with an armed fault campaign: the injector's
/// generator position rides along, so the resumed run replays the
/// exact same strikes.
#[test]
fn checkpoint_preserves_fault_campaign_determinism() {
    assert_resume_replays_the_campaign(|| {
        FaultPlan::new(0xf1e2)
            .inject(
                FaultTarget::FifoPacket,
                FaultSchedule::EveryCommits(977),
                FaultModel::BitFlip { bits: 1 },
            )
            .inject(
                FaultTarget::Register,
                FaultSchedule::AtCommit(12_345),
                FaultModel::BitFlip { bits: 1 },
            )
    });
}

/// The same for a Bernoulli spec, which draws one decision per commit
/// but is polled only where a draw fires: the snapshot falls between
/// two polls, so it must carry the decisions drawn since the last one.
#[test]
fn checkpoint_carries_the_bernoulli_draws_since_the_last_poll() {
    assert_resume_replays_the_campaign(|| {
        FaultPlan::new(0xf1e3).inject(
            FaultTarget::FifoPacket,
            FaultSchedule::Bernoulli { per_million: 300 },
            FaultModel::BitFlip { bits: 1 },
        )
    });
}

/// Restoring requires the same construction: a missing fault plan is a
/// typed error, not silent corruption.
#[test]
fn restore_rejects_mismatched_construction() {
    let w = Workload::bitcount();
    let mut sys = fresh(&w);
    sys.arm_faults(FaultPlan::new(1).inject(
        FaultTarget::FifoPacket,
        FaultSchedule::EveryCommits(1000),
        FaultModel::BitFlip { bits: 1 },
    ));
    match sys.try_run_until(MAX_INSTRUCTIONS, 1000).expect("run to the pause point") {
        RunOutcome::Paused { .. } => {}
        RunOutcome::Done(_) => panic!("finished before the pause point"),
    }
    let snap = sys.snapshot();

    let mut unarmed = fresh(&w);
    let err = unarmed.restore(&snap).expect_err("fault state with no armed plan must fail");
    assert!(err.to_string().contains("fault"), "unhelpful error: {err}");

    let mut wrong_depth =
        System::<Umc>::new(SystemConfig::fabric_half_speed().with_fifo_depth(8), Umc::new());
    wrong_depth.load_program(&w.program().expect("assembles"));
    let err = wrong_depth.restore(&snap).expect_err("mismatched FIFO depth must fail");
    assert!(err.to_string().contains("depth"), "unhelpful error: {err}");
}

/// A small all-ALU kernel where commit `4 + 4k` is always the `add`
/// with a live destination register — a deterministic divergence site.
fn alu_loop_source() -> &'static str {
    "start:  mov 0, %o0
            set 100, %o1
    loop:   add %o0, 1, %o0
            subcc %o1, 1, %o1
            bne loop
            nop
            ta 0"
}

fn alu_system() -> System<Umc> {
    let program = flexcore_suite::asm::assemble(alu_loop_source()).expect("assembles");
    let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
    sys.load_program(&program);
    sys
}

/// The acceptance criterion: an injected pipeline fault under
/// `--lockstep` yields `SimError::Divergence` with a populated report.
#[test]
fn injected_result_fault_diverges_under_lockstep() {
    let mut sys = alu_system();
    sys.enable_lockstep();
    // Commit 40 is an `add %o0, 1, %o0`: flip bit 3 of its result.
    sys.inject_result_fault(40, 3);
    match sys.try_run(MAX_INSTRUCTIONS) {
        Err(SimError::Divergence(report)) => {
            assert_eq!(report.commit_index, 40, "caught at the faulted commit");
            assert_eq!(report.reason, "register file diverged (first at r8)", "{report}");
            let m = report.reg_mismatches.first().expect("a register mismatch is recorded");
            assert_eq!(m.dut ^ m.golden, 1 << 3, "exactly the injected bit differs");
            // Commit 40 is past the 16-entry window, so both rings have
            // wrapped and hold commits 25..=40, oldest first.
            let indices: Vec<u64> = report.dut_recent.iter().map(|c| c.index).collect();
            assert_eq!(indices, (25..=40).collect::<Vec<_>>(), "DUT ring after wraparound");
            // The strike touched registers only: both models fetched
            // the same instructions at the same PCs.
            assert_eq!(report.golden_recent, report.dut_recent, "golden ring mirrors the DUT's");
        }
        other => panic!("expected a divergence, got {other:?}"),
    }
}

/// Stores a data word at 0x8000, idles in a loop, then loads it back:
/// the `ld` is commit 22 and writes `%o2` (r10).
fn load_after_idle_source() -> &'static str {
    "start:  set 0x8000, %o0
            set 0x12345678, %o1
            st %o1, [%o0]
            mov 5, %o3
    loop:   subcc %o3, 1, %o3
            bne loop
            nop
            ld [%o0], %o2
            ta 0"
}

/// A data-memory strike is invisible until a load observes it: the
/// golden model keeps its own memory image, so the flipped word
/// surfaces as a register mismatch at the observing load, not at the
/// commit the strike landed on.
#[test]
fn data_memory_strike_diverges_at_the_observing_load() {
    let program = flexcore_suite::asm::assemble(load_after_idle_source()).expect("assembles");
    let system = || {
        let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
        sys.load_program(&program);
        sys.enable_lockstep();
        sys
    };
    let clean = system().try_run(MAX_INSTRUCTIONS).expect("no divergence without a strike");
    assert_eq!(clean.exit, ExitReason::Halt(0));

    let mut sys = system();
    // Commit 6 (`mov 5, %o3`) is after the store and long before the load.
    sys.arm_faults(FaultPlan::new(7).inject(
        FaultTarget::Memory { base: 0x8000, len: 4 },
        FaultSchedule::AtCommit(6),
        FaultModel::BitFlip { bits: 1 },
    ));
    match sys.try_run(MAX_INSTRUCTIONS) {
        Err(SimError::Divergence(report)) => {
            assert_eq!(report.commit_index, 22, "caught at the observing load: {report}");
            assert_eq!(report.reason, "register file diverged (first at r10)", "{report}");
            let m = report.reg_mismatches.first().expect("a register mismatch is recorded");
            assert_eq!(m.golden, 0x1234_5678, "the golden model loads the stored word");
            assert_eq!((m.dut ^ m.golden).count_ones(), 1, "exactly one struck bit differs");
        }
        other => panic!("expected a divergence, got {other:?}"),
    }
}

/// Monitoring-path corruption (an FFIFO packet strike) touches no
/// architectural state, so lockstep must stay quiet — that separation
/// is the point of checking at the architectural level.
#[test]
fn monitoring_path_corruption_does_not_diverge() {
    let mut sys = alu_system();
    sys.enable_lockstep();
    sys.arm_faults(FaultPlan::new(3).inject(
        FaultTarget::FifoPacket,
        FaultSchedule::AtCommit(40),
        FaultModel::BitFlip { bits: 2 },
    ));
    let r = sys.try_run(MAX_INSTRUCTIONS).expect("no divergence from a packet strike");
    assert_eq!(r.exit, ExitReason::Halt(0));
    assert_eq!(r.resilience.packets_corrupted, 1, "the strike did land");
}

/// Lockstep agrees with the cycle-level core across a full workload
/// (the golden model and the pipeline implement the same ISA).
#[test]
fn lockstep_agrees_across_a_full_workload() {
    let mut sys = fresh(&Workload::bitcount());
    sys.enable_lockstep();
    let r = sys.try_run(MAX_INSTRUCTIONS).expect("no divergence");
    assert_eq!(r.exit, ExitReason::Halt(0), "workload self-check");
    let checked = sys.lockstep().expect("checker installed").commits_checked();
    assert_eq!(checked, r.forward.committed, "every commit was checked");
    assert!(checked > 50_000, "a non-trivial run: {checked} commits");
}

/// Lockstep survives a checkpoint/restore cycle: the golden model is
/// re-seeded from the restored state and keeps agreeing.
#[test]
fn lockstep_resynchronizes_after_restore() {
    let mut first = fresh(&Workload::sha());
    first.enable_lockstep();
    match first.try_run_until(MAX_INSTRUCTIONS, 10_000).expect("run to the pause point") {
        RunOutcome::Paused { .. } => {}
        RunOutcome::Done(_) => panic!("finished before the pause point"),
    }
    let snap = first.snapshot();

    let mut resumed = fresh(&Workload::sha());
    resumed.enable_lockstep();
    resumed.restore(&snap).expect("restore re-seeds the checker");
    let r = resumed.try_run(MAX_INSTRUCTIONS).expect("no divergence after restore");
    assert_eq!(r.exit, ExitReason::Halt(0));
    assert_eq!(&r, reference(0), "sha is Workload::all()[0]");
}
