//! Software-instrumentation baselines (§V.C).
//!
//! The paper compares FlexCore against monitoring implemented purely in
//! software by instrumenting each dynamic instruction: LIFT-style DIFT
//! (3.6× slowdown even highly optimized on an aggressive superscalar),
//! Purify-style uninitialized-memory checking (up to 5.5×), and
//! compiler-inserted bound checks (up to 1.69× with extensive
//! optimization). On a simple in-order core the overheads are higher
//! ("we expect the software overheads to be even higher for simple
//! in-order processors").
//!
//! This module models such instrumentation on the same core model used
//! everywhere else: every monitored instruction is followed by a short
//! instrumentation sequence (extra cycles) and, for memory operations,
//! by real tag-memory accesses that go through the same L1 D-cache and
//! memory bus as program data — the two first-order costs of software
//! monitoring.

use flexcore_asm::Program;
use flexcore_isa::{InstrClass, NUM_INSTR_CLASSES};
use flexcore_mem::{MainMemory, SystemBus};
use flexcore_pipeline::{Core, CoreConfig, ExitReason, Stepped, TracePacket};

use crate::ext::{bit_tag_location, byte_tag_location};

/// How the software monitor lays out its tags in memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TagLayout {
    /// No tag memory (pure re-execution checks, e.g. software SEC).
    None,
    /// One bit per word, packed (software DIFT/UMC).
    BitPerWord,
    /// One byte per word (software BC).
    BytePerWord,
}

/// An instrumentation cost model for one software monitor.
#[derive(Clone, Debug)]
pub struct SoftwareMonitor {
    /// Monitor name.
    pub name: &'static str,
    /// Extra dynamic instructions executed per committed instruction
    /// of each class (the inlined instrumentation sequence).
    pub extra_instr: [u32; NUM_INSTR_CLASSES],
    /// Tag layout; memory-class instructions additionally perform one
    /// tag-memory access through the D-cache.
    pub tag_layout: TagLayout,
}

impl SoftwareMonitor {
    fn with_classes(
        name: &'static str,
        tag_layout: TagLayout,
        rules: &[(&dyn Fn(InstrClass) -> bool, u32)],
    ) -> SoftwareMonitor {
        let mut extra_instr = [0u32; NUM_INSTR_CLASSES];
        for c in InstrClass::all() {
            for (pred, cost) in rules {
                if pred(c) {
                    extra_instr[c.index()] = *cost;
                }
            }
        }
        SoftwareMonitor { name, extra_instr, tag_layout }
    }

    /// LIFT-style software DIFT: every ALU op needs a tag-propagation
    /// sequence (load both source tags, OR, store destination tag —
    /// kept in registers by good compilers, ≈3 instructions); memory
    /// ops need address translation plus a tag load/store (≈5); jumps
    /// need a check (≈2).
    pub fn dift() -> SoftwareMonitor {
        SoftwareMonitor::with_classes(
            "DIFT (software)",
            TagLayout::BitPerWord,
            &[
                (&|c: InstrClass| c.is_alu() || c == InstrClass::Sethi, 3),
                (&|c: InstrClass| c.is_mem(), 5),
                (&|c: InstrClass| c == InstrClass::Jmpl, 2),
            ],
        )
    }

    /// Purify-style software UMC: every load/store is preceded by a
    /// tag lookup, shift/mask, branch (≈6 instructions; Purify
    /// instruments at byte granularity and is heavier still).
    pub fn umc() -> SoftwareMonitor {
        SoftwareMonitor::with_classes(
            "UMC (software)",
            TagLayout::BitPerWord,
            &[(&|c: InstrClass| c.is_mem(), 6)],
        )
    }

    /// Compiler-inserted bound checking: a compare+branch per memory
    /// access (≈3 instructions) plus color-table maintenance on
    /// pointer arithmetic (≈1).
    pub fn bc() -> SoftwareMonitor {
        SoftwareMonitor::with_classes(
            "BC (software)",
            TagLayout::BytePerWord,
            &[
                (&|c: InstrClass| c.is_mem(), 3),
                (
                    &|c: InstrClass| {
                        matches!(
                            c,
                            InstrClass::Add
                                | InstrClass::Sub
                                | InstrClass::AddCc
                                | InstrClass::SubCc
                        )
                    },
                    1,
                ),
            ],
        )
    }

    /// Software SEC: re-execute every ALU instruction and compare
    /// (≈3 instructions: recompute, compare, branch).
    pub fn sec() -> SoftwareMonitor {
        SoftwareMonitor::with_classes(
            "SEC (software)",
            TagLayout::None,
            &[(&|c: InstrClass| c.is_alu(), 3)],
        )
    }
}

/// Result of a software-monitored run.
#[derive(Clone, Copy, Debug)]
pub struct SoftwareRunResult {
    /// Why the program stopped.
    pub exit: ExitReason,
    /// Total cycles including instrumentation.
    pub cycles: u64,
    /// Program instructions committed (instrumentation instructions
    /// are charged as cycles, not counted here).
    pub instret: u64,
}

/// Runs `program` under software instrumentation per `monitor`,
/// returning the instrumented timing.
pub fn run_software_monitored(
    monitor: &SoftwareMonitor,
    program: &Program,
    max_instructions: u64,
) -> SoftwareRunResult {
    let mut mem = MainMemory::new();
    let mut bus = SystemBus::default();
    let mut core = Core::new(CoreConfig::leon3());
    core.load_program(program, &mut mem);
    let mut pkt = TracePacket::EMPTY;
    loop {
        if core.stats().instret >= max_instructions {
            core.halt(ExitReason::InstructionLimit);
        }
        match core.step_into(&mut mem, &mut bus, &mut pkt) {
            Stepped::Annulled => {}
            Stepped::Exited(exit) => {
                return SoftwareRunResult {
                    exit,
                    cycles: core.quiesced_at(),
                    instret: core.stats().instret,
                };
            }
            Stepped::Committed => {
                let extra = monitor.extra_instr[pkt.class.index()];
                if extra > 0 {
                    // Instrumentation instructions: charge their
                    // cycles on the same core.
                    let target = core.cycle() + u64::from(extra);
                    core.stall_until(target);
                    // Memory-class instructions also touch tag memory
                    // through the D-cache.
                    if pkt.class.is_mem() {
                        match monitor.tag_layout {
                            TagLayout::None => {}
                            TagLayout::BitPerWord => {
                                let (tag_addr, _) = bit_tag_location(pkt.addr);
                                core.instrumentation_access(
                                    tag_addr,
                                    pkt.class.is_store(),
                                    &mut mem,
                                    &mut bus,
                                );
                            }
                            TagLayout::BytePerWord => {
                                let (tag_addr, _) = byte_tag_location(pkt.addr);
                                core.instrumentation_access(
                                    tag_addr,
                                    pkt.class.is_store(),
                                    &mut mem,
                                    &mut bus,
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_asm::assemble;

    fn loopy_program() -> Program {
        assemble(
            "start: mov 500, %o0
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

    fn baseline_cycles(p: &Program) -> u64 {
        let mut mem = MainMemory::new();
        let mut bus = SystemBus::default();
        let mut core = Core::new(CoreConfig::leon3());
        core.load_program(p, &mut mem);
        assert_eq!(core.run(&mut mem, &mut bus, 1_000_000), ExitReason::Halt(0));
        core.quiesced_at()
    }

    #[test]
    fn software_dift_is_several_times_slower() {
        let p = loopy_program();
        let base = baseline_cycles(&p);
        let sw = run_software_monitored(&SoftwareMonitor::dift(), &p, 1_000_000);
        assert_eq!(sw.exit, ExitReason::Halt(0));
        let slowdown = sw.cycles as f64 / base as f64;
        assert!(slowdown > 2.0, "DIFT software slowdown only {slowdown:.2}x");
        assert!(slowdown < 15.0, "implausibly slow: {slowdown:.2}x");
    }

    #[test]
    fn monitors_rank_by_coverage() {
        // DIFT instruments ALU + mem + jumps; BC less; both slower
        // than baseline.
        let p = loopy_program();
        let base = baseline_cycles(&p);
        let dift = run_software_monitored(&SoftwareMonitor::dift(), &p, 1_000_000).cycles;
        let bc = run_software_monitored(&SoftwareMonitor::bc(), &p, 1_000_000).cycles;
        let umc = run_software_monitored(&SoftwareMonitor::umc(), &p, 1_000_000).cycles;
        assert!(dift > bc, "DIFT {dift} should exceed BC {bc}");
        assert!(bc > base && umc > base);
    }

    #[test]
    fn functional_results_are_unaffected() {
        // Instrumentation charges time but does not perturb execution.
        let p = loopy_program();
        let sw = run_software_monitored(&SoftwareMonitor::umc(), &p, 1_000_000);
        assert_eq!(sw.exit, ExitReason::Halt(0));
        let base = baseline_cycles(&p);
        assert!(sw.cycles > base);
        assert_eq!(sw.instret, {
            let mut mem = MainMemory::new();
            let mut bus = SystemBus::default();
            let mut core = Core::new(CoreConfig::leon3());
            core.load_program(&p, &mut mem);
            core.run(&mut mem, &mut bus, 1_000_000);
            core.stats().instret
        });
    }
}
