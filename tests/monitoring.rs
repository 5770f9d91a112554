//! Cross-crate integration tests: each extension detects the class of
//! bug it exists for, and stays silent on benign programs — driven
//! end-to-end through the assembler, the core, the interface, and the
//! meta-data subsystem.

use flexcore_suite::asm::assemble;
use flexcore_suite::flexcore::ext::{bc, dift, Bc, Dift, Extension, Sec, Umc};
use flexcore_suite::flexcore::faults::{FaultModel, FaultPlan, FaultSchedule, FaultTarget};
use flexcore_suite::flexcore::{System, SystemConfig};
use flexcore_suite::isa::Reg;
use flexcore_suite::pipeline::ExitReason;

fn run<E: Extension>(src: &str, ext: E) -> flexcore_suite::flexcore::RunResult {
    let program = assemble(src).expect("assembles");
    let mut sys = System::new(SystemConfig::fabric_half_speed(), ext);
    sys.load_program(&program);
    sys.try_run(1_000_000).expect("simulation error")
}

// ---------------------------------------------------------------- UMC

#[test]
fn umc_catches_read_before_write() {
    let r = run(
        "start: set 0x8000, %o0
                ld [%o0], %o1
                ta 0",
        Umc::new(),
    );
    let trap = r.monitor_trap.expect("must trap");
    assert!(trap.reason.contains("uninitialized"));
    assert_eq!(r.exit, ExitReason::MonitorTrap { pc: trap.pc });
}

#[test]
fn umc_catches_use_after_free() {
    let src = format!(
        "start: set 0x8000, %o0
                st %g0, [%o0]
                ld [%o0], %o1        ! fine
                mov 4, %o1
                cpop1 {clear}, %o0, %o1, %g0  ! free the word
                ld [%o0], %o2        ! use after free
                ta 0",
        clear = flexcore_suite::flexcore::ext::umc::ops::CLEAR_RANGE,
    );
    let r = run(&src, Umc::new());
    assert!(r.monitor_trap.is_some());
}

#[test]
fn umc_is_silent_on_correct_programs() {
    let r = run(
        "start: set 0x8000, %o0
                mov 32, %o1
        wr:     st %o1, [%o0]
                add %o0, 4, %o0
                subcc %o1, 1, %o1
                bne wr
                nop
                set 0x8000, %o0
                mov 32, %o1
        rd:     ld [%o0], %o2
                add %o0, 4, %o0
                subcc %o1, 1, %o1
                bne rd
                nop
                ta 0",
        Umc::new(),
    );
    assert!(r.monitor_trap.is_none(), "{:?}", r.monitor_trap);
    assert_eq!(r.exit, ExitReason::Halt(0));
}

// --------------------------------------------------------------- DIFT

#[test]
fn dift_tracks_taint_through_arithmetic_chains() {
    // taint -> load -> add -> xor -> jump: still caught.
    let src = format!(
        "start: set 0x8000, %o0
                set target, %o1
                st %o1, [%o0]        ! store the target address
                mov 4, %o1
                cpop1 {taint}, %o0, %o1, %g0
                ld [%o0], %o2        ! tainted
                add %o2, %g0, %o3    ! taint propagates
                xor %o3, %g0, %o4    ! and again
                jmpl %o4, %o7
                nop
        target: ta 0",
        taint = dift::ops::TAINT_RANGE,
    );
    let r = run(&src, Dift::new());
    let trap = r.monitor_trap.expect("tainted jump must trap");
    assert!(trap.reason.contains("tainted"));
}

#[test]
fn dift_declassification_clears_taint() {
    let src = format!(
        "start: set 0x8000, %o0
                set target, %o1
                st %o1, [%o0]
                mov 4, %o1
                cpop1 {taint}, %o0, %o1, %g0
                mov 4, %o1
                cpop1 {clear}, %o0, %o1, %g0  ! declassify
                ld [%o0], %o2
                jmpl %o2, %o7
                nop
        target: ta 0",
        taint = dift::ops::TAINT_RANGE,
        clear = dift::ops::CLEAR_RANGE,
    );
    let r = run(&src, Dift::new());
    assert!(r.monitor_trap.is_none(), "{:?}", r.monitor_trap);
    assert_eq!(r.exit, ExitReason::Halt(0));
}

#[test]
fn dift_immediate_overwrite_scrubs_taint() {
    // Overwriting a tainted register with an immediate makes a later
    // jump through it safe (no taint explosion).
    let src = format!(
        "start: set 0x8000, %o0
                mov 4, %o1
                cpop1 {taint}, %o0, %o1, %g0
                ld [%o0], %o2        ! tainted garbage
                set target, %o2      ! immediate overwrite
                jmpl %o2, %o7
                nop
        target: ta 0",
        taint = dift::ops::TAINT_RANGE,
    );
    let r = run(&src, Dift::new());
    assert!(r.monitor_trap.is_none(), "{:?}", r.monitor_trap);
}

// ----------------------------------------------------------------- BC

#[test]
fn bc_catches_negative_indexing() {
    let src = format!(
        "start: set 0x8000, %o0
                set {lc}, %o1
                cpop1 {color}, %o0, %o1, %g0
                mov {o0}, %o2
                mov 5, %o3
                cpop1 {setreg}, %o2, %o3, %g0
                ld [%o0 - 4], %o4    ! array[-1]
                ta 0",
        color = bc::ops::COLOR_RANGE,
        setreg = bc::ops::SET_REG_COLOR,
        o0 = Reg::O0.index(),
        lc = (32u32 << 4) | 5,
    );
    let r = run(&src, Bc::new());
    assert!(r.monitor_trap.is_some());
}

#[test]
fn bc_pointer_passed_through_memory_keeps_working() {
    // Spill the colored pointer to (colored) memory, reload it, use it.
    let src = format!(
        "start: set 0x8000, %o0      ! the array
                set {lc}, %o1
                cpop1 {color}, %o0, %o1, %g0
                mov {o0}, %o2
                mov 5, %o3
                cpop1 {setreg}, %o2, %o3, %g0
                set 0x9000, %o5      ! a spill slot (color 0)
                st %o0, [%o5]        ! spill the pointer
                clr %o0
                ld [%o5], %o0        ! reload: color must come back
                ld [%o0 + 8], %o4    ! in-bounds use
                ta 0",
        color = bc::ops::COLOR_RANGE,
        setreg = bc::ops::SET_REG_COLOR,
        o0 = Reg::O0.index(),
        lc = (32u32 << 4) | 5,
    );
    let r = run(&src, Bc::new());
    assert!(r.monitor_trap.is_none(), "{:?}", r.monitor_trap);
    assert_eq!(r.exit, ExitReason::Halt(0));
}

// ---------------------------------------------------------------- SEC

#[test]
fn sec_detects_injected_faults_at_every_bit_position() {
    let src = "start: clr %o0
                mov 100, %o1
        loop:   add %o0, %o1, %o0
                subcc %o1, 1, %o1
                bne loop
                nop
                ta 0";
    for bit in [0, 9, 21, 31] {
        let program = assemble(src).unwrap();
        let mut sys = System::new(SystemConfig::fabric_quarter_speed(), Sec::new());
        sys.load_program(&program);
        // Instruction 7 is the second loop `add`.
        sys.arm_faults(FaultPlan::new(0).inject(
            FaultTarget::CommitResult,
            FaultSchedule::AtCommit(7),
            FaultModel::Mask(1 << bit),
        ));
        let r = sys.try_run(100_000).expect("simulation error");
        assert!(r.monitor_trap.is_some(), "bit {bit} escaped");
    }
}

#[test]
fn sec_is_silent_without_faults() {
    let r = run(
        "start: mov 7, %o0
                umul %o0, %o0, %o1
                udiv %o1, %o0, %o2
                sll %o2, 3, %o3
                sra %o3, 1, %o4
                subcc %o4, %o0, %o5
                ta 0",
        Sec::new(),
    );
    assert!(r.monitor_trap.is_none(), "{:?}", r.monitor_trap);
    assert_eq!(r.exit, ExitReason::Halt(0));
}

// ------------------------------------------- doubleword & atomic ops

#[test]
fn dift_taint_flows_through_ldd_std_and_swap() {
    let src = format!(
        "start: set 0x8000, %o0
                st %g0, [%o0]
                st %g0, [%o0 + 4]
                set target, %o2
                st %o2, [%o0]        ! plant the jump target
                mov 8, %o1
                cpop1 {taint}, %o0, %o1, %g0  ! taint the doubleword
                ldd [%o0], %o2       ! taints BOTH %o2 and %o3
                set 0x8010, %o0
                std %o2, [%o0]       ! taint follows to memory
                ld [%o0], %o4        ! reload the tainted target
                jmpl %o4, %o7
                nop
        target: ta 0",
        taint = flexcore_suite::flexcore::ext::dift::ops::TAINT_RANGE,
    );
    let r = run(&src, Dift::new());
    assert!(r.monitor_trap.is_some(), "taint must survive ldd -> std -> ld: {:?}", r.exit);
}

#[test]
fn umc_checks_both_words_of_a_doubleword_load() {
    let r = run(
        "start: set 0x8000, %o0
                st %g0, [%o0]        ! only the first word initialized
                ldd [%o0], %o2
                ta 0",
        Umc::new(),
    );
    assert!(r.monitor_trap.is_some(), "half-initialized ldd must trap");
    let ok = run(
        "start: set 0x8000, %o0
                st %g0, [%o0]
                st %g0, [%o0 + 4]
                ldd [%o0], %o2
                ta 0",
        Umc::new(),
    );
    assert!(ok.monitor_trap.is_none(), "{:?}", ok.monitor_trap);
}

#[test]
fn umc_swap_checks_and_initializes() {
    // Swapping into uninitialized memory traps (it reads)...
    let r = run(
        "start: set 0x8000, %o0
                swap [%o0], %o1
                ta 0",
        Umc::new(),
    );
    assert!(r.monitor_trap.is_some());
    // ...but after initialization a swap chain is fine.
    let ok = run(
        "start: set 0x8000, %o0
                st %g0, [%o0]
                swap [%o0], %o1
                swap [%o0], %o2
                ta 0",
        Umc::new(),
    );
    assert!(ok.monitor_trap.is_none(), "{:?}", ok.monitor_trap);
}

#[test]
fn bc_checks_both_words_of_doubleword_accesses() {
    // Color 8 bytes; an ldd one word before the end straddles the
    // boundary and must trap.
    let src = format!(
        "start: set 0x8000, %o0
                set {lc}, %o1
                cpop1 {color}, %o0, %o1, %g0
                mov {o0}, %o2
                mov 5, %o3
                cpop1 {setreg}, %o2, %o3, %g0
                ldd [%o0], %o2       ! fully inside: fine
                ldd [%o0 + 8], %o4   ! second word out of bounds
                ta 0",
        color = bc::ops::COLOR_RANGE,
        setreg = bc::ops::SET_REG_COLOR,
        o0 = Reg::O0.index(),
        lc = (12u32 << 4) | 5, // 12 bytes = 3 words colored
    );
    let r = run(&src, Bc::new());
    let trap = r.monitor_trap.expect("boundary-straddling ldd must trap");
    assert!(trap.reason.contains("out-of-bound"));
}

// ----------------------------------------------- cross-cutting checks

#[test]
fn monitored_runs_preserve_program_results() {
    // The monitor is transparent: the workload's own self-check passes
    // under every extension.
    let w = flexcore_suite::workloads::Workload::bitcount();
    let program = w.program().unwrap();
    let mut sys = System::new(SystemConfig::fabric_half_speed(), Dift::new());
    sys.load_program(&program);
    assert_eq!(sys.try_run(100_000_000).expect("simulation error").exit, ExitReason::Halt(0));
}

#[test]
fn traps_are_imprecise_but_always_delivered() {
    // The violating load is followed by work; with a slow fabric the
    // TRAP arrives late (non-zero skid), but even if the program
    // reaches its own `ta 0` first, the exception still wins (the core
    // waits for EMPTY before completing).
    let program = assemble(
        "start: set 0x8000, %o0
                ld [%o0], %o1        ! uninitialized: the violation
                add %o2, 1, %o2
                add %o2, 2, %o2
                ta 0",
    )
    .unwrap();
    let mut sys = System::new(SystemConfig::fabric_quarter_speed(), Umc::new());
    sys.load_program(&program);
    let r = sys.try_run(100_000).expect("simulation error");
    assert!(matches!(r.exit, ExitReason::MonitorTrap { .. }), "{:?}", r.exit);
    let skid = r.trap_skid.expect("trap fired");
    assert!(skid >= 1, "imprecise delivery lets later instructions commit: skid {skid}");
    // The trap still reports the *violating* PC, not where the core
    // stopped.
    assert!(r.monitor_trap.unwrap().reason.contains("uninitialized"));
}

#[test]
fn traps_report_the_offending_pc() {
    let program = assemble(
        "start: nop
                nop
        bugpc:  set 0x8000, %o0
                ld [%o0], %o1
                ta 0",
    )
    .unwrap();
    let bugpc = program.symbol("bugpc").unwrap();
    let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
    sys.load_program(&program);
    let r = sys.try_run(100_000).expect("simulation error");
    // The `set` is two instructions; the load is 8 bytes past bugpc.
    assert_eq!(r.monitor_trap.unwrap().pc, bugpc + 8);
}
