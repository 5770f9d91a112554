//! System-level properties on random programs: monitoring is
//! *transparent* (architectural results identical to the bare core)
//! and never free (monitored cycles >= baseline cycles), for every
//! extension, on arbitrary straight-line programs. And the unmonitored
//! baseline every tool runs, the registry's `nop` under [`System`], is
//! the bare core on every kernel.

use flexcore_suite::flexcore::ext::{Bc, Dift, Extension, Mprot, Sec, Umc};
use flexcore_suite::flexcore::{System, SystemConfig};
use flexcore_suite::isa::{encode, Cond, Instruction, Opcode, Operand2, Reg};
use flexcore_suite::mem::{MainMemory, SystemBus};
use flexcore_suite::pipeline::{Core, CoreConfig, ExitReason};
use flexcore_suite::workloads::Workload;
use proptest::prelude::*;

const SCRATCH: u32 = 0x0003_0000;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|i| Reg::new(i).unwrap())
}

/// Straight-line programs over ALU + aligned memory ops, with %g7
/// reserved as the scratch-window base.
fn arb_program() -> impl Strategy<Value = Vec<Instruction>> {
    use Opcode::*;
    let alu_ops =
        vec![Add, Addcc, Sub, Subcc, And, Or, Xor, Xorcc, Andn, Xnor, Sll, Srl, Sra, Umul, Smul];
    let inst = prop_oneof![
        4 => (prop::sample::select(alu_ops), arb_reg(), arb_reg(), -2048i32..2048)
            .prop_map(|(op, rs1, rd, imm)| Instruction::Alu { op, rd, rs1, op2: Operand2::Imm(imm) }),
        1 => (arb_reg(), 0u32..(1 << 22)).prop_map(|(rd, imm22)| Instruction::Sethi { rd, imm22 }),
        2 => (prop::sample::select(vec![Ld, St]), arb_reg(), 0i32..32)
            .prop_map(|(op, rd, w)| Instruction::Mem { op, rd, rs1: Reg::G7, op2: Operand2::Imm(w * 4) }),
    ];
    prop::collection::vec(inst, 1..40).prop_map(|mut v| {
        for inst in &mut v {
            match inst {
                Instruction::Alu { rd, .. } | Instruction::Sethi { rd, .. } if *rd == Reg::G7 => {
                    *rd = Reg::G5;
                }
                Instruction::Mem { op, rd, .. } if op.is_load() && *rd == Reg::G7 => *rd = Reg::G5,
                _ => {}
            }
        }
        v
    })
}

fn image(insts: &[Instruction]) -> MainMemory {
    let mut mem = MainMemory::new();
    for (i, inst) in insts.iter().enumerate() {
        mem.write_u32(4 * i as u32, encode(inst));
    }
    let halt = Instruction::Trap { cond: Cond::A, rs1: Reg::G0, op2: Operand2::Imm(0) };
    mem.write_u32(4 * insts.len() as u32, encode(&halt));
    mem
}

fn with_prologue(insts: &[Instruction]) -> Vec<Instruction> {
    let mut v = vec![
        Instruction::Sethi { rd: Reg::G7, imm22: SCRATCH >> 10 },
        Instruction::Alu {
            op: Opcode::Or,
            rd: Reg::G7,
            rs1: Reg::G7,
            op2: Operand2::Imm((SCRATCH & 0x3ff) as i32),
        },
    ];
    v.extend_from_slice(insts);
    v
}

fn run_monitored2<E: Extension>(insts: &[Instruction], ext: E) -> (Vec<u32>, u64) {
    let full = with_prologue(insts);
    let mut sys = System::new(SystemConfig::fabric_half_speed(), ext);
    {
        let img = image(&full);
        let mem = sys.memory_mut();
        for i in 0..=full.len() {
            let a = 4 * i as u32;
            mem.write_u32(a, img.read_u32(a));
        }
    }
    let r = sys.try_run(1_000_000).expect("simulation error");
    assert_eq!(r.exit, ExitReason::Halt(0), "monitor trap? {:?}", r.monitor_trap);
    (Reg::all().map(|reg| sys.core().reg(reg)).collect(), r.cycles)
}

fn run_bare2(insts: &[Instruction]) -> (Vec<u32>, u64) {
    let full = with_prologue(insts);
    let mut mem = image(&full);
    let mut bus = SystemBus::default();
    let mut core = Core::new(CoreConfig::leon3());
    let exit = core.run(&mut mem, &mut bus, 1_000_000);
    assert_eq!(exit, ExitReason::Halt(0));
    (Reg::all().map(|r| core.reg(r)).collect(), core.quiesced_at())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every extension is architecturally transparent and costs
    /// non-negative cycles on arbitrary programs. (Traps cannot happen:
    /// the generated programs only touch scratch memory they first
    /// write... UMC is excluded since random programs do read-before-
    /// write freely; it is covered by targeted tests instead.)
    #[test]
    fn monitoring_is_transparent_and_never_free(insts in arb_program()) {
        let (regs_base, cycles_base) = run_bare2(&insts);
        let (regs_sec, cycles_sec) = run_monitored2(&insts, Sec::new());
        prop_assert_eq!(&regs_base, &regs_sec, "SEC changed results");
        prop_assert!(cycles_sec >= cycles_base);

        let (regs_dift, cycles_dift) = run_monitored2(&insts, Dift::new());
        prop_assert_eq!(&regs_base, &regs_dift, "DIFT changed results");
        prop_assert!(cycles_dift >= cycles_base);

        let (regs_bc, cycles_bc) = run_monitored2(&insts, Bc::new());
        prop_assert_eq!(&regs_base, &regs_bc, "BC changed results");
        prop_assert!(cycles_bc >= cycles_base);

        let (regs_mp, cycles_mp) = run_monitored2(&insts, Mprot::new());
        prop_assert_eq!(&regs_base, &regs_mp, "MPROT changed results");
        prop_assert!(cycles_mp >= cycles_base);
    }

    /// UMC transparency on write-before-read programs: prefixing the
    /// body with stores that initialize the whole scratch window makes
    /// random programs UMC-clean.
    #[test]
    fn umc_is_transparent_on_initialized_windows(insts in arb_program()) {
        let mut prefixed: Vec<Instruction> = (0..32)
            .map(|w| Instruction::Mem {
                op: Opcode::St,
                rd: Reg::G0,
                rs1: Reg::G7,
                op2: Operand2::Imm(w * 4),
            })
            .collect();
        prefixed.extend_from_slice(&insts);
        let (regs_base, cycles_base) = run_bare2(&prefixed);
        let (regs_umc, cycles_umc) = run_monitored2(&prefixed, Umc::new());
        prop_assert_eq!(&regs_base, &regs_umc);
        prop_assert!(cycles_umc >= cycles_base);
    }
}

/// `flexcore_bench::run_baseline` (the registry's `nop`, whose CFGR
/// forwards nothing) against a bare `Core::run` of `workload` on `core`.
fn assert_nop_is_the_bare_core(workload: &Workload, core: CoreConfig) {
    let program = workload.program().expect("workload assembles");
    let mut mem = MainMemory::new();
    let mut bus = SystemBus::default();
    let mut bare = Core::new(core);
    bare.load_program(&program, &mut mem);
    let exit = bare.run(&mut mem, &mut bus, flexcore_bench::MAX_INSTRUCTIONS);

    let config = SystemConfig { core, ..SystemConfig::fabric_half_speed() };
    let r = flexcore_bench::run_baseline(workload, config);
    let at = format!("{} at commit width {}", workload.name(), core.commit_width);
    assert_eq!(r.exit, exit, "{at}");
    assert_eq!(r.instret, bare.stats().instret, "{at}");
    assert_eq!(r.cycles, bare.quiesced_at(), "{at}");
    assert_eq!(r.icache, bare.icache_stats(), "{at}");
    assert_eq!(r.dcache, bare.dcache_stats(), "{at}");
    assert_eq!(r.console, bare.console(), "{at}");
    assert_eq!(r.forward.forwarded, 0, "{at}");
}

#[test]
fn nop_system_is_the_bare_core_on_every_kernel() {
    for w in Workload::all().into_iter().chain(Workload::extra()) {
        assert_nop_is_the_bare_core(&w, CoreConfig::leon3());
    }
    // The superscalar study's kernels at its wider commit widths.
    for w in [Workload::sha(), Workload::fft(), Workload::bitcount()] {
        for width in [2, 4] {
            assert_nop_is_the_bare_core(&w, CoreConfig::superscalar(width));
        }
    }
}
