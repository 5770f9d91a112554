//! Code that changes under the core's feet: a store over an instruction
//! that already executed, a text fault on one, and a checkpoint restore
//! that rewinds a store over code. The core memoizes decoded
//! instructions by PC, so each run must show the current encoding,
//! never one decoded earlier — on the bare core, under lockstep against
//! the memo-free reference interpreter, against that interpreter with
//! the same fault applied, and against a fresh run after the restore.

use flexcore_suite::asm::{assemble, Program};
use flexcore_suite::flexcore::ext::Nop;
use flexcore_suite::flexcore::faults::{FaultModel, FaultPlan, FaultSchedule, FaultTarget};
use flexcore_suite::flexcore::{RunResult, System, SystemConfig};
use flexcore_suite::isa::interp::{ByteMap, Memory32, RefCore, RefExit, RefStep};
use flexcore_suite::isa::Reg;
use flexcore_suite::mem::{MainMemory, SystemBus};
use flexcore_suite::pipeline::{Core, CoreConfig, ExitReason};

const BUDGET: u64 = 10_000;

/// Runs `patch` twice, storing the `repl` encoding over it after the
/// first pass: a fresh decode ends with %o0 = 5 - 1 = 4, a stale one
/// with 5 + 5 = 10.
fn self_patching() -> Program {
    assemble(
        "
        start:  set patch, %g1
                set repl, %g2
                ld [%g2], %g2
                mov 0, %o0
                mov 2, %g3
        patch:  add %o0, 5, %o0
                st %g2, [%g1]
                subcc %g3, 1, %g3
                bne patch
                nop
                ta 0
        repl:   sub %o0, 1, %o0
        ",
    )
    .expect("self-patching kernel assembles")
}

#[test]
fn bare_core_executes_the_stored_encoding() {
    let program = self_patching();
    let (mut mem, mut bus) = (MainMemory::new(), SystemBus::default());
    let mut core = Core::new(CoreConfig::leon3());
    core.load_program(&program, &mut mem);
    assert_eq!(core.run(&mut mem, &mut bus, BUDGET), ExitReason::Halt(0));
    assert_eq!(core.reg(Reg::O0), 4);
}

#[test]
fn lockstep_sees_no_divergence_over_self_modifying_code() {
    let mut sys = System::new(SystemConfig::fabric_full_speed(), Nop::new());
    sys.load_program(&self_patching());
    sys.enable_lockstep();
    let r = sys.try_run(BUDGET).expect("no divergence from the reference interpreter");
    assert_eq!(r.exit, ExitReason::Halt(0));
    assert_eq!(sys.core().reg(Reg::O0), 4);
    let checked = sys.lockstep().expect("lockstep enabled").commits_checked();
    assert_eq!(checked, r.instret);
}

/// Four passes over `patch`; the text fault lands after the first.
fn counted_loop() -> Program {
    assemble(
        "
        start:  mov 0, %o0
                mov 4, %g3
        patch:  add %o0, 5, %o0
                subcc %g3, 1, %g3
                bne patch
                nop
                ta 0
        alt:    sub %o0, 5, %o0
        ",
    )
    .expect("counted loop assembles")
}

/// The reference interpreter's run with the word at `addr` XORed by
/// `mask` once `after` instructions have committed.
fn reference_with_flip(program: &Program, addr: u32, mask: u32, after: u64) -> (RefExit, u32) {
    let mut mem = ByteMap::default();
    for (i, &b) in program.image().iter().enumerate() {
        mem.write_u8(program.base() + i as u32, b);
    }
    let mut core = RefCore::new(program.entry());
    let mut committed = 0;
    for _ in 0..BUDGET {
        match core.step(&mut mem) {
            RefStep::Committed(_) => {
                committed += 1;
                if committed == after {
                    let w = mem.read_u32(addr);
                    mem.write_u32(addr, w ^ mask);
                }
            }
            RefStep::Annulled => {}
            RefStep::Exited(e) => return (e, core.reg(Reg::O0)),
        }
    }
    panic!("reference run exceeded its budget");
}

#[test]
fn text_fault_on_executed_code_matches_the_reference() {
    let program = counted_loop();
    let patch = program.symbol("patch").expect("patch label");
    let alt = program.symbol("alt").expect("alt label");
    let word = |a: u32| {
        let i = (a - program.base()) as usize;
        u32::from_be_bytes(program.image()[i..i + 4].try_into().expect("word in image"))
    };
    // Turns the add into the sub: after the first pass the loop
    // subtracts, so a fresh decode ends with 5 - 5 - 5 - 5 = -10.
    let mask = word(patch) ^ word(alt);
    let after = 4; // mov, mov, add, subcc: `patch` has executed once.

    let mut sys = System::new(SystemConfig::fabric_full_speed(), Nop::new());
    sys.load_program(&program);
    sys.arm_faults(FaultPlan::new(7).inject(
        FaultTarget::InstructionWord { base: patch, len: 4 },
        FaultSchedule::AtCommit(after),
        FaultModel::Mask(mask),
    ));
    let r = sys.try_run(BUDGET).expect("faulted run completes");
    assert_eq!(r.resilience.faults_injected, 1);

    let (golden_exit, golden_o0) = reference_with_flip(&program, patch, mask, after);
    assert_eq!(golden_exit, RefExit::Halt(0));
    assert_eq!(r.exit, ExitReason::Halt(0));
    assert_eq!(sys.core().reg(Reg::O0), golden_o0);
    assert_eq!(golden_o0, (-10i32) as u32);
}

/// Patches `target` with the `repl` encoding before its only execution
/// when `flag` is set: %o0 ends as 7 - 1 = 6 when patched and 7 + 5 = 12
/// otherwise. It touches no page outside its image, so no write makes
/// a page resident mid-run.
fn patch_if_flagged() -> Program {
    assemble(
        "
        start:  set flag, %g1
                ld [%g1], %g1
                set target, %g2
                set repl, %g3
                ld [%g3], %g3
                mov 7, %o0
                cmp %g1, 0
                be target
                nop
                st %g3, [%g2]
        target: add %o0, 5, %o0
                ta 0
        repl:   sub %o0, 1, %o0
        flag:   .word 0
        ",
    )
    .expect("flag-patching kernel assembles")
}

fn run_to_halt(sys: &mut System<Nop>) -> RunResult {
    let r = sys.try_run(BUDGET).expect("run completes");
    assert_eq!(r.exit, ExitReason::Halt(0));
    r
}

/// The restored memory is a clone of the load-time image. Had the
/// clone kept that image's code generation, the decode of the patched
/// `target` from the first run would still validate after the restore,
/// and the second run would execute the patch instead of the original.
#[test]
fn restore_rewinds_a_store_over_code_the_memo_decoded() {
    let program = patch_if_flagged();
    let flag = program.symbol("flag").expect("flag label");
    let mut sys = System::new(SystemConfig::fabric_full_speed(), Nop::new());
    sys.load_program(&program);
    let at_zero = sys.snapshot();
    sys.memory_mut().write_u32(flag, 1);
    run_to_halt(&mut sys);
    assert_eq!(sys.core().reg(Reg::O0), 6, "the first run executes the patch");

    sys.restore(&at_zero).expect("snapshot restores into its own system");
    let replayed = run_to_halt(&mut sys);
    assert_eq!(sys.core().reg(Reg::O0), 12, "the second run executes the original add");

    let mut fresh = System::new(SystemConfig::fabric_full_speed(), Nop::new());
    fresh.load_program(&program);
    assert_eq!(replayed, run_to_halt(&mut fresh));
    assert_eq!(sys.snapshot(), fresh.snapshot());
}
