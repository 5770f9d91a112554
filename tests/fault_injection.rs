//! End-to-end fault-injection and resilience properties: determinism
//! of seeded campaigns, deadlock detection instead of hangs, bounded
//! bitstream reload, and lossless FIFO back-pressure.

use flexcore_bench::swap::bitstream_for;
use flexcore_suite::asm::assemble;
use flexcore_suite::flexcore::ext::Sec;
use flexcore_suite::flexcore::faults::{FaultModel, FaultPlan, FaultSchedule, FaultTarget};
use flexcore_suite::flexcore::{SimError, System, SystemConfig, BITSTREAM_RETRY_LIMIT};
use flexcore_suite::pipeline::ExitReason;
use proptest::prelude::*;

/// An ALU-heavy counted loop: ~1200 commits, plenty of SEC-checked
/// operations for faults to land on.
fn alu_loop() -> flexcore_suite::asm::Program {
    assemble(
        "
        start:  set 200, %o0
                set 0, %o1
        loop:   add %o1, 3, %o1
                xor %o1, %o0, %o2
                sub %o2, 1, %o3
                subcc %o0, 1, %o0
                bne loop
                nop
                ta 0
        ",
    )
    .expect("test program assembles")
}

fn noisy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .inject(
            FaultTarget::CommitResult,
            FaultSchedule::Bernoulli { per_million: 20_000 },
            FaultModel::BitFlip { bits: 1 },
        )
        .inject(
            FaultTarget::Register,
            FaultSchedule::Bernoulli { per_million: 5_000 },
            FaultModel::BitFlip { bits: 2 },
        )
        .inject(
            FaultTarget::FifoPacket,
            FaultSchedule::EveryCommits(97),
            FaultModel::Mask(0x8000_0001),
        )
}

fn faulted_run(seed: u64) -> (Vec<String>, Result<(u64, u64), String>) {
    let mut sys =
        System::new(SystemConfig::fabric_quarter_speed().with_cycle_budget(10_000_000), Sec::new());
    sys.load_program(&alu_loop());
    sys.arm_faults(noisy_plan(seed));
    let outcome = match sys.try_run(1_000_000) {
        Ok(r) => Ok((r.cycles, r.resilience.faults_injected)),
        Err(e) => Err(e.to_string()),
    };
    let log = sys.fault_log().iter().map(|e| format!("{e:?}")).collect();
    (log, outcome)
}

#[test]
fn same_seed_reproduces_the_exact_run() {
    let (log_a, out_a) = faulted_run(42);
    let (log_b, out_b) = faulted_run(42);
    assert!(!log_a.is_empty(), "the noisy plan must actually fire");
    assert_eq!(log_a, log_b, "fault event logs diverged");
    assert_eq!(out_a, out_b, "cycles / fault counts diverged");
}

#[test]
fn different_seeds_draw_different_schedules() {
    let (log_a, _) = faulted_run(42);
    let (log_b, _) = faulted_run(43);
    assert_ne!(log_a, log_b);
}

#[test]
fn sec_detects_an_injected_result_flip() {
    let mut sys = System::new(SystemConfig::fabric_quarter_speed(), Sec::new());
    sys.load_program(&alu_loop());
    // Commit 5 is the loop's first `add` (commits 1-4 are the two
    // `set` expansions; commit 10 would be the unchecked delay-slot
    // nop).
    sys.arm_faults(FaultPlan::new(7).inject(
        FaultTarget::CommitResult,
        FaultSchedule::AtCommit(5),
        FaultModel::Mask(1 << 13),
    ));
    let r = sys.try_run(1_000_000).expect("run completes");
    assert!(r.monitor_trap.is_some(), "SEC missed the flip: {:?}", r.exit);
    assert_eq!(r.resilience.faults_injected, 1);
}

#[test]
fn wedged_fabric_is_a_deadlock_error_not_a_hang() {
    let config = SystemConfig::fabric_quarter_speed().with_fifo_depth(4);
    let mut sys = System::new(config, Sec::new());
    sys.load_program(&alu_loop());
    sys.arm_faults(FaultPlan::new(1).inject(
        FaultTarget::FabricStuck,
        FaultSchedule::AtCommit(5),
        FaultModel::BitFlip { bits: 1 },
    ));
    match sys.try_run(1_000_000) {
        Err(SimError::Deadlock(snap)) => {
            assert!(snap.fabric_stuck, "snapshot missed the wedged fabric: {snap}");
            assert_eq!(snap.fifo_depth, 4);
            assert_eq!(snap.fifo_occupancy, 4, "FIFO should be full at deadlock");
        }
        other => panic!("expected a deadlock, got {other:?}"),
    }
}

#[test]
fn cycle_budget_is_enforced() {
    let mut sys =
        System::new(SystemConfig::fabric_quarter_speed().with_cycle_budget(50), Sec::new());
    sys.load_program(&alu_loop());
    match sys.try_run(1_000_000) {
        Err(SimError::CycleBudgetExceeded { budget: 50, .. }) => {}
        other => panic!("expected a budget error, got {other:?}"),
    }
}

#[test]
fn corrupted_bitstream_reloads_within_budget() {
    let bytes = bitstream_for(&Sec::new());
    let mut sys = System::new(SystemConfig::fabric_quarter_speed(), Sec::new());
    // Strike transfer attempts 1 and 2; attempt 3 goes through clean.
    sys.arm_faults(
        FaultPlan::new(3)
            .inject(
                FaultTarget::Bitstream,
                FaultSchedule::AtCommit(1),
                FaultModel::BitFlip { bits: 1 },
            )
            .inject(
                FaultTarget::Bitstream,
                FaultSchedule::AtCommit(2),
                FaultModel::BitFlip { bits: 1 },
            ),
    );
    let mapping = sys.load_bitstream(&bytes).expect("reload succeeds within budget");
    assert!(mapping.lut_count() > 0);
    let res = sys.resilience();
    assert_eq!(res.bitstream_retries, 2);
    assert_eq!(res.bitstream_reloads, 1);
}

#[test]
fn unrecoverable_bitstream_corruption_is_reported() {
    let bytes = bitstream_for(&Sec::new());
    let mut sys = System::new(SystemConfig::fabric_quarter_speed(), Sec::new());
    // Every transfer attempt gets hit.
    sys.arm_faults(FaultPlan::new(9).inject(
        FaultTarget::Bitstream,
        FaultSchedule::EveryCommits(1),
        FaultModel::BitFlip { bits: 3 },
    ));
    match sys.load_bitstream(&bytes) {
        Err(SimError::UnrecoverableCorruption { context, attempts, .. }) => {
            assert_eq!(context, "fabric bitstream");
            assert_eq!(attempts, BITSTREAM_RETRY_LIMIT + 1);
            assert_eq!(attempts, 4, "limit 3 means 4 transfer attempts");
        }
        other => panic!("expected unrecoverable corruption, got {other:?}"),
    }
}

fn overflow_run(depth: usize) -> flexcore_suite::flexcore::RunResult {
    let config =
        SystemConfig::fabric_quarter_speed().with_fifo_depth(depth).with_cycle_budget(10_000_000);
    let mut sys = System::new(config, Sec::new());
    sys.load_program(&alu_loop());
    sys.try_run(1_000_000).expect("benign program completes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SEC forwards `Always`, which trades cycles instead of packets on
    /// a full FIFO: zero drops, and shrinking the FIFO never makes the
    /// run faster.
    #[test]
    fn stall_policy_never_drops(depth in 1usize..16) {
        let r = overflow_run(depth);
        prop_assert_eq!(r.exit, ExitReason::Halt(0));
        prop_assert_eq!(r.forward.dropped, 0);
        prop_assert_eq!(r.resilience.dropped_overflow, 0);
        let big = overflow_run(64);
        prop_assert!(r.cycles >= big.cycles, "{} < {}", r.cycles, big.cycles);
        prop_assert_eq!(r.instret, big.instret);
    }

    /// Faulted runs are as deterministic as clean ones, for any seed.
    #[test]
    fn any_seed_is_reproducible(seed in any::<u64>()) {
        let (log_a, out_a) = faulted_run(seed);
        let (log_b, out_b) = faulted_run(seed);
        prop_assert_eq!(log_a, log_b);
        prop_assert_eq!(out_a, out_b);
    }
}
