//! Mid-run bitstream hot-swap invariants (runtime reconfiguration):
//!
//! * **Verdict equivalence at every commit boundary** — for kernels
//!   with a known monitor violation, a swap scheduled at *each*
//!   boundary of the run yields exactly the verdict of the
//!   statically-configured run from that boundary onward: the incoming
//!   extension's trap (bit-identical pc and reason) while the
//!   violation is still downstream of the swap, the outgoing run's
//!   clean architectural result once it is not.
//! * **Packet conservation** (property test) — a swap at *any*
//!   boundary never silently drops a forward-FIFO packet: every
//!   forwarded packet is processed by an extension.
//! * **Swap-window faults** — a corrupted bitstream transfer inside
//!   the swap window is absorbed by the retry machinery; retry
//!   exhaustion escalates through the recovery ladder, which replays
//!   the swap deterministically to the clean result.
//! * **Checkpoint/restore across the swap timeline** — a run
//!   interrupted before *or* after the swap boundary, snapshotted
//!   through JSON, and restored into a fresh system with the same
//!   swap re-scheduled finishes bit-identical to the uninterrupted
//!   swapped run.

use flexcore_bench::swap::{bitstream_for, cfi_table_for};
use flexcore_suite::asm::{assemble, Program};
use flexcore_suite::fabric::{Netlist, NetlistBuilder, FRAME_BYTES};
use flexcore_suite::flexcore::checkpoint::Snapshot;
use flexcore_suite::flexcore::ext::{
    Cfi, ExtEnv, Extension, ExtensionDescriptor, MonitorTrap, Sec, Umc,
};
use flexcore_suite::flexcore::faults::{FaultModel, FaultPlan, FaultSchedule, FaultTarget};
use flexcore_suite::flexcore::recovery::{FaultOutcome, RecoveryPolicy, Supervisor};
use flexcore_suite::flexcore::{
    Cfgr, ForwardPolicy, RunOutcome, RunResult, SimError, SwapPolicy, SwapRequest, System,
    SystemConfig,
};
use flexcore_suite::pipeline::{ExitReason, TracePacket};
use proptest::prelude::*;

const MAX: u64 = 1_000_000;

/// A short kernel whose *last* control transfer is an indirect jump to
/// an address outside the recovered CFG's call/return whitelist: clean
/// under UMC (no loads), a CFI violation once CFI is armed.
fn cfi_violating_kernel() -> Program {
    assemble(
        "start:  mov 8, %l0
         loop:   subcc %l0, 1, %l0
                 bne loop
                 nop
                 set bad, %g1
                 jmpl %g1, %g0
                 nop
         bad:    ta 0",
    )
    .expect("kernel assembles")
}

/// A short kernel whose only load reads a never-initialized word
/// (outside the loaded image, which UMC counts as statically
/// initialized): clean under SEC (every ALU op re-executes fine), a
/// UMC violation. The kernel performs no stores, so UMC's verdict is
/// history-free and a late-armed UMC agrees with the static run.
fn uninit_load_kernel() -> Program {
    assemble(
        "start:  mov 6, %l0
                 set 0x30000, %g2
         loop:   subcc %l0, 1, %l0
                 bne loop
                 nop
                 ld [%g2 + 4], %g5
                 ta 0",
    )
    .expect("kernel assembles")
}

fn run_static(program: &Program, ext: Box<dyn Extension>) -> RunResult {
    let mut sys = System::new(SystemConfig::fabric_half_speed(), ext);
    sys.load_program(program);
    sys.try_run(MAX).expect("static run completes")
}

fn run_swapped(
    program: &Program,
    from: Box<dyn Extension>,
    to: Box<dyn Extension>,
    at_commit: u64,
) -> (RunResult, Vec<flexcore_suite::flexcore::SwapReport>) {
    let mut sys = System::new(SystemConfig::fabric_half_speed(), from);
    sys.load_program(program);
    let bitstream = bitstream_for(to.as_ref());
    sys.schedule_swap(SwapRequest { at_commit, bitstream, ext: to, policy: SwapPolicy::Reset });
    let r = sys.try_run(MAX).expect("swapped run completes");
    (r, sys.swap_reports().to_vec())
}

/// Sweeps the swap boundary over every commit of the kernel and checks
/// the verdict against the two static references: while the violation
/// commits *after* the swap the incoming extension must raise exactly
/// the static run's trap; once the swap lands at or past the violation
/// the run must finish with the outgoing run's clean architectural
/// result. The transition must be monotone (one threshold, no
/// flapping).
fn assert_boundary_sweep(
    program: &Program,
    mk_out: &dyn Fn() -> Box<dyn Extension>,
    mk_in: &dyn Fn() -> Box<dyn Extension>,
) {
    let static_out = run_static(program, mk_out());
    let static_in = run_static(program, mk_in());
    assert!(static_out.monitor_trap.is_none(), "outgoing extension runs this kernel clean");
    let trap = static_in.monitor_trap.clone().expect("incoming extension traps this kernel");

    let mut first_clean = None;
    for b in 1..=static_out.instret {
        let (r, reports) = run_swapped(program, mk_out(), mk_in(), b);
        match &r.monitor_trap {
            Some(t) => {
                assert!(
                    first_clean.is_none(),
                    "boundary {b}: trap after boundary {first_clean:?} ran clean"
                );
                assert_eq!(t, &trap, "boundary {b}: verdict must be bit-identical");
                assert!(
                    matches!(r.exit, ExitReason::MonitorTrap { pc } if pc == trap.pc),
                    "boundary {b}: exit {:?}",
                    r.exit
                );
            }
            None => {
                if first_clean.is_none() {
                    first_clean = Some(b);
                }
                assert_eq!(r.exit, static_out.exit, "boundary {b}");
                assert_eq!(r.instret, static_out.instret, "boundary {b}");
                assert_eq!(r.console, static_out.console, "boundary {b}");
            }
        }
        if let [report] = reports.as_slice() {
            assert_eq!(report.at_commit, b);
            assert_eq!(r.resilience.swaps_completed, 1, "boundary {b}");
        }
    }
    let threshold = first_clean.expect("a swap at the last boundary must miss the violation");
    assert!(threshold > 1, "a swap at the first boundary must still catch the violation");
}

#[test]
fn umc_to_cfi_swap_matches_static_verdicts_at_every_boundary() {
    let program = cfi_violating_kernel();
    let table = cfi_table_for(&program);
    assert_boundary_sweep(&program, &|| Box::new(Umc::new()), &|| {
        Box::new(Cfi::new(table.clone()))
    });
}

#[test]
fn sec_to_umc_swap_matches_static_verdicts_at_every_boundary() {
    let program = uninit_load_kernel();
    assert_boundary_sweep(&program, &|| Box::new(Sec::new()), &|| Box::new(Umc::new()));
}

/// Forwards every class and counts processed packets — the
/// conservation probe of the property test.
#[derive(Clone, Debug, Default)]
struct CountEveryPacket {
    processed: u64,
}

impl Extension for CountEveryPacket {
    fn name(&self) -> &'static str {
        "COUNT"
    }

    fn descriptor(&self) -> ExtensionDescriptor {
        ExtensionDescriptor {
            abbrev: "COUNT",
            name: "packet conservation probe",
            meta_data: &[],
            transparent_ops: &["Count every forwarded packet"],
            sw_visible_ops: &[],
        }
    }

    fn cfgr(&self) -> Cfgr {
        Cfgr::new().with_classes(|_| true, ForwardPolicy::Always)
    }

    fn snapshot_state(&self) -> Vec<u64> {
        vec![self.processed]
    }

    fn restore_state(&mut self, state: &[u64]) {
        if let [processed] = *state {
            self.processed = processed;
        }
    }

    fn process(
        &mut self,
        _pkt: &TracePacket,
        _env: &mut ExtEnv<'_>,
    ) -> Result<Option<u32>, MonitorTrap> {
        self.processed += 1;
        Ok(None)
    }

    fn netlist(&self) -> Netlist {
        let mut b = NetlistBuilder::new("count");
        let valid = b.input();
        let seen = b.register(valid);
        b.output("seen", seen);
        b.finish()
    }
}

/// A load/store loop that keeps the forward FIFO busy (~250 commits).
fn fifo_pressure_kernel() -> Program {
    assemble(
        "start:  mov 40, %l0
                 set 0x30000, %g7
         loop:   st %l0, [%g7]
                 ld [%g7], %l1
                 add %l1, %l0, %l2
                 subcc %l0, 1, %l0
                 bne loop
                 nop
                 ta 0",
    )
    .expect("kernel assembles")
}

fn conservation_reference() -> &'static RunResult {
    static REF: std::sync::OnceLock<RunResult> = std::sync::OnceLock::new();
    REF.get_or_init(|| {
        let program = fifo_pressure_kernel();
        let mut sys = System::new(SystemConfig::fabric_half_speed(), CountEveryPacket::default());
        sys.load_program(&program);
        sys.try_run(MAX).expect("reference run completes")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A swap scheduled at any boundary, with any FIFO depth, never
    /// loses a packet: committed and forwarded counts match the
    /// swap-free reference, and every forwarded packet is processed.
    /// The carry policy transplants the probe's counter across the swap
    /// so the total is observable end-to-end.
    #[test]
    fn swap_at_any_boundary_conserves_packets(boundary in 1u64..=300, depth in 2usize..=16) {
        let reference = conservation_reference();
        let program = fifo_pressure_kernel();
        let cfg = SystemConfig::fabric_half_speed().with_fifo_depth(depth);
        let mut sys = System::new(cfg, CountEveryPacket::default());
        sys.load_program(&program);
        sys.schedule_swap(SwapRequest {
            at_commit: boundary,
            bitstream: bitstream_for(&CountEveryPacket::default()),
            ext: CountEveryPacket::default(),
            policy: SwapPolicy::Carry,
        });
        let r = sys.try_run(MAX).expect("swapped run completes");
        prop_assert_eq!(r.exit, reference.exit);
        prop_assert_eq!(r.forward.committed, reference.forward.committed);
        prop_assert_eq!(r.forward.forwarded, reference.forward.forwarded);
        prop_assert_eq!(r.forward.dropped, 0);
        let ext = sys.extension();
        prop_assert_eq!(
            ext.processed,
            r.forward.forwarded,
            "every forwarded packet is processed (boundary {}, depth {})",
            boundary,
            depth
        );
        if boundary < r.instret {
            prop_assert_eq!(r.resilience.swaps_completed, 1);
            prop_assert!(
                r.resilience.swap_drained_packets <= depth as u64,
                "drained {} from a depth-{} FIFO",
                r.resilience.swap_drained_packets,
                depth
            );
        }
    }
}

fn swapped_umc_to_cfi(program: &Program, at_commit: u64) -> System<Box<dyn Extension>> {
    let table = cfi_table_for(program);
    let mut sys: System<Box<dyn Extension>> =
        System::new(SystemConfig::fabric_half_speed(), Box::new(Umc::new()));
    sys.load_program(program);
    let cfi: Box<dyn Extension> = Box::new(Cfi::new(table));
    let bitstream = bitstream_for(cfi.as_ref());
    sys.schedule_swap(SwapRequest { at_commit, bitstream, ext: cfi, policy: SwapPolicy::Reset });
    sys
}

#[test]
fn swap_shifts_one_frame_per_64_bitstream_bytes() {
    let program = fifo_pressure_kernel();
    let bitstream = bitstream_for(&Cfi::new(cfi_table_for(&program)));
    let mut sys = swapped_umc_to_cfi(&program, 60);
    sys.try_run(MAX).expect("swapped run completes");
    let [report] = sys.swap_reports() else {
        panic!("exactly one swap report");
    };
    assert_eq!(report.frames, bitstream.len().div_ceil(FRAME_BYTES) as u64);
    assert_eq!(report.retries, 0);
    // One fabric cycle (two core cycles at half speed) per frame, on
    // top of the drain.
    assert!(report.rearmed_cycle - report.quiesce_cycle >= 2 * report.frames);
}

#[test]
fn corrupted_swap_window_is_retried_or_escalates_to_replay() {
    let program = fifo_pressure_kernel();
    let boundary = 60;
    let clean = swapped_umc_to_cfi(&program, boundary).try_run(MAX).expect("clean swap");
    assert!(clean.monitor_trap.is_none());
    assert_eq!(clean.resilience.swaps_completed, 1);

    // One strike on the first transfer attempt: a retry absorbs it and
    // the swap still completes with the clean architectural result.
    let mut sys = swapped_umc_to_cfi(&program, boundary);
    sys.arm_faults(FaultPlan::new(0xdead).inject(
        FaultTarget::Bitstream,
        FaultSchedule::AtCommit(1),
        FaultModel::BitFlip { bits: 1 },
    ));
    let retried = sys.try_run(MAX).expect("retried swap completes");
    assert_eq!(retried.exit, clean.exit);
    assert_eq!(retried.instret, clean.instret);
    assert_eq!(retried.console, clean.console);
    assert_eq!(retried.resilience.swaps_completed, 1);
    assert!(retried.resilience.bitstream_retries >= 1, "the strike consumed a retry");

    // Every attempt corrupted: the retry budget exhausts and an
    // unsupervised run surfaces the corruption as a hard error.
    let exhaust_plan = FaultPlan::new(0xdead).inject(
        FaultTarget::Bitstream,
        FaultSchedule::EveryCommits(1),
        FaultModel::BitFlip { bits: 1 },
    );
    let mut sys = swapped_umc_to_cfi(&program, boundary);
    sys.arm_faults(exhaust_plan.clone());
    match sys.try_run(MAX) {
        Err(SimError::UnrecoverableCorruption { context, .. }) => {
            assert!(context.contains("bitstream"), "{context}");
        }
        other => panic!("expected retry exhaustion, got {other:?}"),
    }

    // The same exhaustion under the supervisor: rung 1 rolls back,
    // disarms the (transient) fault stream, and replays — the replay
    // re-executes the swap deterministically and finishes clean.
    let mut sys = swapped_umc_to_cfi(&program, boundary);
    sys.arm_faults(exhaust_plan);
    let mut sup = Supervisor::new(sys, RecoveryPolicy::default());
    let result = sup.run(MAX);
    let report = sup.report();
    assert!(report.errors_detected >= 1, "the exhaustion walked the ladder");
    assert_eq!(FaultOutcome::classify(report, &result, &clean), FaultOutcome::DetectedRecovered);
    let recovered = result.expect("supervised run completes");
    assert_eq!(recovered.exit, clean.exit);
    assert_eq!(recovered.instret, clean.instret);
    assert_eq!(recovered.console, clean.console);
    assert_eq!(recovered.resilience.swaps_completed, 1, "the replayed swap completed once");
}

/// Pauses a UMC → CFI swapped run at `pause` commits, round-trips the
/// snapshot through JSON, restores into a fresh system with the same
/// swap re-scheduled, and returns the resumed run's result.
fn interrupt_and_resume(program: &Program, at_commit: u64, pause: u64) -> RunResult {
    let mut first = swapped_umc_to_cfi(program, at_commit);
    match first.try_run_until(MAX, pause).expect("run to the pause point") {
        RunOutcome::Paused { instret, .. } => assert!(instret >= pause),
        RunOutcome::Done(r) => panic!("finished before the pause point: {:?}", r.exit),
    }
    let snap = first.snapshot();
    let parsed = Snapshot::from_json(&snap.to_json()).expect("snapshot JSON parses");
    assert_eq!(parsed, snap, "snapshot survives the JSON round-trip");
    let mut resumed = swapped_umc_to_cfi(program, at_commit);
    resumed.restore(&parsed).expect("snapshot restores");
    resumed.try_run(MAX).expect("resumed run completes")
}

#[test]
fn snapshot_restore_preserves_the_swap_timeline() {
    let program = fifo_pressure_kernel();
    let boundary = 100;
    let reference = swapped_umc_to_cfi(&program, boundary).try_run(MAX).expect("reference");
    assert_eq!(reference.resilience.swaps_completed, 1);

    // Interrupted before the boundary: the restored run still owes the
    // swap and must execute it at the same boundary.
    // Interrupted after: the restored system must fast-forward its
    // scheduled swap to "done" and resume under CFI.
    for pause in [40, 160] {
        let resumed = interrupt_and_resume(&program, boundary, pause);
        assert_eq!(resumed.exit, reference.exit, "pause {pause}");
        assert_eq!(resumed.instret, reference.instret, "pause {pause}");
        assert_eq!(resumed.cycles, reference.cycles, "pause {pause}");
        assert_eq!(resumed.console, reference.console, "pause {pause}");
        assert_eq!(resumed.resilience.swaps_completed, 1, "pause {pause}");
        assert_eq!(
            resumed.resilience.swap_stall_cycles, reference.resilience.swap_stall_cycles,
            "pause {pause}"
        );
    }
}
