//! Integration tests of the core–fabric interface semantics, using a
//! purpose-built test extension: forwarding policies (ignore / drop /
//! stall / ack), BFIFO return values, clock-domain alignment, the
//! end-of-run EMPTY discipline, degraded mode, and the commit-stage
//! packet hand-off.

use flexcore_suite::asm::assemble;
use flexcore_suite::fabric::{Netlist, NetlistBuilder};
use flexcore_suite::flexcore::ext::{ExtEnv, Extension, ExtensionDescriptor, MonitorTrap};
use flexcore_suite::flexcore::{Cfgr, ForwardPolicy, System, SystemConfig};
use flexcore_suite::isa::{IccFlags, InstrClass, Instruction, Opcode, Operand2, Reg};
use flexcore_suite::mem::{MainMemory, SystemBus};
use flexcore_suite::pipeline::{Core, CoreConfig, ExitReason, StepResult, Stepped, TracePacket};
use flexcore_suite::workloads::Workload;
use proptest::prelude::*;

/// A configurable probe extension: counts what it sees, can be made
/// arbitrarily slow, answers reads with a constant.
struct Probe {
    cfgr: Cfgr,
    /// Extra meta ops per packet (to simulate a slow monitor).
    busywork: u32,
    seen: u64,
    last_pc: u32,
}

impl Probe {
    fn new(cfgr: Cfgr) -> Probe {
        Probe { cfgr, busywork: 0, seen: 0, last_pc: 0 }
    }
}

impl Extension for Probe {
    fn name(&self) -> &'static str {
        "PROBE"
    }

    fn descriptor(&self) -> ExtensionDescriptor {
        ExtensionDescriptor {
            abbrev: "PROBE",
            name: "interface test probe",
            meta_data: &[],
            transparent_ops: &["count packets"],
            sw_visible_ops: &["read packet count"],
        }
    }

    fn cfgr(&self) -> Cfgr {
        self.cfgr
    }

    fn process(
        &mut self,
        pkt: &TracePacket,
        env: &mut ExtEnv<'_>,
    ) -> Result<Option<u32>, MonitorTrap> {
        self.seen += 1;
        self.last_pc = pkt.pc;
        for i in 0..self.busywork {
            // Touch alternating meta lines to burn fabric cycles.
            let _ = env.read_meta(0x4000_0000 + (i % 2) * 64);
        }
        if pkt.class == InstrClass::Cpop1 {
            return Ok(Some(0xfeed_beef));
        }
        Ok(None)
    }

    fn netlist(&self) -> Netlist {
        let mut b = NetlistBuilder::new("probe");
        let x = b.input();
        let q = b.register(x);
        b.output("q", q);
        b.finish()
    }
}

const COUNT_PROGRAM: &str = "start: mov 10, %o0
        loop:  subcc %o0, 1, %o0
               bne loop
               nop
               ta 0";

fn run_probe(
    cfgr: Cfgr,
    busywork: u32,
    cfg: SystemConfig,
    src: &str,
) -> (u64, flexcore_suite::flexcore::RunResult) {
    let program = assemble(src).unwrap();
    let mut probe = Probe::new(cfgr);
    probe.busywork = busywork;
    let mut sys = System::new(cfg, probe);
    sys.load_program(&program);
    let r = sys.try_run(100_000).expect("simulation error");
    let seen = sys.extension().seen;
    (seen, r)
}

#[test]
fn ignore_policy_forwards_nothing() {
    let (seen, r) = run_probe(Cfgr::new(), 0, SystemConfig::fabric_half_speed(), COUNT_PROGRAM);
    assert_eq!(seen, 0);
    assert_eq!(r.forward.forwarded, 0);
    assert_eq!(r.exit, ExitReason::Halt(0));
}

#[test]
fn always_policy_forwards_every_matching_instruction() {
    let cfgr = Cfgr::new().with_class(InstrClass::SubCc, ForwardPolicy::Always);
    let (seen, r) = run_probe(cfgr, 0, SystemConfig::fabric_half_speed(), COUNT_PROGRAM);
    assert_eq!(seen, 10, "ten subcc commits");
    assert_eq!(r.forward.forwarded, 10);
    assert_eq!(r.forward.dropped, 0);
}

/// A slow monitor (2 meta ops/packet at 0.25X) behind a `depth`-entry
/// FIFO, forwarding a dense loop's subcc/bne/nop best-effort
/// (`IfNotFull`, the only policy that may drop a packet).
fn best_effort_run(depth: usize) -> (u64, flexcore_suite::flexcore::RunResult) {
    let cfgr = Cfgr::new()
        .with_class(InstrClass::SubCc, ForwardPolicy::IfNotFull)
        .with_class(InstrClass::Nop, ForwardPolicy::IfNotFull)
        .with_class(InstrClass::BranchCond, ForwardPolicy::IfNotFull);
    let src = "start: mov 200, %o0
        loop:  subcc %o0, 1, %o0
               bne loop
               nop
               ta 0";
    run_probe(cfgr, 2, SystemConfig::fabric_quarter_speed().with_fifo_depth(depth), src)
}

#[test]
fn if_not_full_policy_drops_under_pressure() {
    // A dense stream into a 2-entry FIFO must drop packets — and must
    // NOT stall the core.
    let (seen, r) = best_effort_run(2);
    assert!(r.forward.dropped > 0, "must drop: {:?}", r.forward);
    assert_eq!(seen + r.forward.dropped, r.forward.forwarded + r.forward.dropped);
    assert_eq!(r.forward.fifo_stall_cycles, 0, "best-effort never stalls the core");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At any FIFO depth, every committed instruction is forwarded,
    /// dropped or not monitored; occupancy never exceeds the depth;
    /// drops never fake a trap; and best-effort forwarding never
    /// stalls the commit stage.
    #[test]
    fn if_not_full_accounting_is_conserved(depth in 1usize..16) {
        let (seen, r) = best_effort_run(depth);
        prop_assert_eq!(r.exit, ExitReason::Halt(0));
        prop_assert!(r.monitor_trap.is_none(), "drops must not fake a trap");
        prop_assert!(r.forward.peak_occupancy <= depth as u64);
        prop_assert_eq!(seen, r.forward.forwarded);
        prop_assert!(r.forward.forwarded + r.forward.dropped <= r.forward.committed);
        prop_assert!(r.forward.forwarded + r.forward.dropped > 0);
        prop_assert_eq!(r.forward.fifo_stall_cycles, 0);
    }
}

#[test]
fn always_policy_stalls_instead_of_dropping() {
    let cfgr = Cfgr::new()
        .with_class(InstrClass::SubCc, ForwardPolicy::Always)
        .with_class(InstrClass::Nop, ForwardPolicy::Always)
        .with_class(InstrClass::BranchCond, ForwardPolicy::Always);
    let src = "start: mov 200, %o0
        loop:  subcc %o0, 1, %o0
               bne loop
               nop
               ta 0";
    let cfg = SystemConfig::fabric_quarter_speed().with_fifo_depth(2);
    let (seen, r) = run_probe(cfgr, 2, cfg, src);
    assert_eq!(r.forward.dropped, 0);
    assert_eq!(seen, r.forward.forwarded);
    assert!(r.forward.fifo_stall_cycles > 0, "must back-pressure the commit stage");
}

#[test]
fn wait_for_ack_returns_bfifo_value_to_the_destination_register() {
    let cfgr = Cfgr::new().with_class(InstrClass::Cpop1, ForwardPolicy::WaitForAck);
    let program = assemble(
        "start: cpop1 0, %g0, %g0, %o3
               ta 0",
    )
    .unwrap();
    let mut sys = System::new(SystemConfig::fabric_half_speed(), Probe::new(cfgr));
    sys.load_program(&program);
    let r = sys.try_run(100_000).expect("simulation error");
    assert_eq!(r.exit, ExitReason::Halt(0));
    assert_eq!(sys.core().reg(flexcore_suite::isa::Reg::O3), 0xfeed_beef);
}

#[test]
fn run_waits_for_the_fabric_to_drain() {
    // EMPTY discipline: total cycles include the fabric finishing its
    // backlog after the core halts.
    let cfgr = Cfgr::new().with_class(InstrClass::Logic, ForwardPolicy::Always);
    let src = "start: mov 1, %o0
               or %o0, 2, %o1
               or %o1, 4, %o2
               or %o2, 8, %o3
               ta 0";
    // Very slow fabric: 8 meta ops per packet at quarter speed.
    let (_, r) = run_probe(cfgr, 8, SystemConfig::fabric_quarter_speed(), src);
    // 4 logic ops x 8 meta ops x 4 core-cycles each = >128 cycles of
    // fabric work for a ~20-cycle program.
    assert!(r.cycles > 128, "cycles {} must include fabric drain", r.cycles);
}

#[test]
fn fabric_clock_alignment_quantizes_processing() {
    // At 0.25X, back-to-back forwarded instructions are processed at
    // most one per 4 core cycles: N instructions take >= 4N fabric
    // cycles of span.
    let cfgr = Cfgr::new().with_class(InstrClass::Logic, ForwardPolicy::Always);
    let mut src = String::from("start: mov 1, %o0\n");
    for _ in 0..64 {
        src.push_str("or %o0, 1, %o0\n");
    }
    src.push_str("ta 0");
    let (seen, r) = run_probe(cfgr, 0, SystemConfig::fabric_quarter_speed(), &src);
    // 64 `or`s plus the initial `mov` (also a logic op).
    assert_eq!(seen, 65);
    assert!(r.cycles >= 65 * 4, "{} cycles for 65 packets at 0.25X", r.cycles);
}

#[test]
fn degraded_mode_never_reaches_the_extension() {
    // Recovery rung 3 is the system's decision alone: it stops
    // forwarding, the extension is never called, and every commit the
    // CFGR would have forwarded is counted as a suppressed check.
    let every = Cfgr::new().with_classes(|_| true, ForwardPolicy::Always);
    let (_, monitored) = run_probe(every, 0, SystemConfig::fabric_half_speed(), COUNT_PROGRAM);
    assert!(monitored.forward.forwarded > 0);

    let mut sys = System::new(SystemConfig::fabric_half_speed(), Probe::new(every));
    sys.load_program(&assemble(COUNT_PROGRAM).unwrap());
    sys.enter_degraded();
    let r = sys.try_run(100_000).expect("simulation error");
    assert_eq!(r.exit, ExitReason::Halt(0));
    assert_eq!(sys.extension().seen, 0);
    assert_eq!(r.forward.forwarded, 0);
    assert_eq!(r.resilience.unmonitored_commits, r.instret);
    assert_eq!(r.resilience.suppressed_checks, monitored.forward.forwarded);
}

/// A packet with every field non-zero and unlike anything a workload
/// commits, so a field `step_into` fails to rewrite shows up.
fn junk_packet() -> TracePacket {
    TracePacket {
        pc: 0xdead_beef,
        inst_word: 0xffff_ffff,
        inst: Instruction::Alu {
            op: Opcode::Xnor,
            rd: Reg::L3,
            rs1: Reg::L4,
            op2: Operand2::Imm(-7),
        },
        class: InstrClass::Cpop2,
        addr: 0xa5a5_a5a5,
        result: 0x5a5a_5a5a,
        srcv1: 0x1357_9bdf,
        srcv2: 0x2468_ace0,
        store_value: 0x0bad_f00d,
        cond: IccFlags { n: true, z: true, v: true, c: true },
        branch_taken: true,
        src1: Some(Reg::L1),
        src2: Some(Reg::L2),
        dest: Some(Reg::L5),
        commit_cycle: u64::MAX,
    }
}

#[test]
fn step_into_matches_step_on_every_workload() {
    for w in Workload::all() {
        let program = w.program().unwrap();
        let (mut mem_a, mut bus_a, mut core_a) =
            (MainMemory::new(), SystemBus::default(), Core::new(CoreConfig::leon3()));
        let (mut mem_b, mut bus_b, mut core_b) =
            (MainMemory::new(), SystemBus::default(), Core::new(CoreConfig::leon3()));
        core_a.load_program(&program, &mut mem_a);
        core_b.load_program(&program, &mut mem_b);
        let mut commits = 0u64;
        loop {
            // Junk before every call: each commit must rewrite every
            // field, so nothing leaks from an earlier one.
            let mut buf = junk_packet();
            let a = core_a.step(&mut mem_a, &mut bus_a);
            let b = core_b.step_into(&mut mem_b, &mut bus_b, &mut buf);
            match (a, b) {
                (StepResult::Committed(pkt), Stepped::Committed) => {
                    commits += 1;
                    assert_eq!(pkt, buf, "{} commit {commits}", w.name());
                }
                (StepResult::Annulled, Stepped::Annulled) => {}
                (StepResult::Exited(ea), Stepped::Exited(eb)) => {
                    assert_eq!(ea, eb, "{}", w.name());
                    assert_eq!(ea, ExitReason::Halt(0), "{}", w.name());
                    break;
                }
                (a, b) => panic!("{}: step gave {a:?}, step_into gave {b:?}", w.name()),
            }
        }
        assert!(commits > 1000, "{}: only {commits} commits", w.name());
        assert_eq!(core_a.stats(), core_b.stats(), "{}", w.name());
        assert_eq!(core_a.quiesced_at(), core_b.quiesced_at(), "{}", w.name());
    }
}
