//! A functional (untimed) reference interpreter for the modeled
//! SPARC-V8 subset.
//!
//! This is the golden model behind lockstep verification: an
//! independent, instruction-at-a-time executor with *no* pipeline,
//! cache, bus, or store-buffer state — only architectural state. It is
//! deliberately written against the ISA manual semantics rather than
//! sharing code with the cycle-level core, so a bug in one model shows
//! up as a divergence instead of being reproduced in both.
//!
//! The interpreter is generic over a [`Memory32`] byte store so callers
//! can run it against any memory image (the lockstep checker keeps its
//! own private copy of main memory). A memory that reports a
//! [`Memory32::fetch_generation`] lets [`RefCore`] memoize decodes
//! under it; every other memory, [`ByteMap`] included, gets a decode
//! per step.
//!
//! # Example
//!
//! ```
//! use flexcore_isa::interp::{ByteMap, RefCore, RefStep};
//!
//! // sethi %hi(0x40000000), %g1 ; ta 0  (plus a delay-slot nop)
//! let words: [u32; 3] = [0x0310_0000, 0x91d0_2000, 0x0100_0000];
//! let mut mem = ByteMap::default();
//! for (i, w) in words.iter().enumerate() {
//!     mem.store_word(i as u32 * 4, *w);
//! }
//! let mut core = RefCore::new(0);
//! assert!(matches!(core.step(&mut mem), RefStep::Committed(_)));
//! ```

use std::collections::HashMap;

use crate::{decode, Cond, IccFlags, Instruction, Opcode, Operand2, Reg, NUM_REGS};

/// Byte-addressed 32-bit memory as the reference model sees it.
///
/// Only byte access is required; the halfword/word helpers default to
/// big-endian composition, matching SPARC.
pub trait Memory32 {
    /// Reads one byte.
    fn read_u8(&self, addr: u32) -> u8;

    /// Writes one byte.
    fn write_u8(&mut self, addr: u32, value: u8);

    /// Reads a big-endian halfword.
    fn read_u16(&self, addr: u32) -> u16 {
        u16::from(self.read_u8(addr)) << 8 | u16::from(self.read_u8(addr.wrapping_add(1)))
    }

    /// Reads a big-endian word.
    fn read_u32(&self, addr: u32) -> u32 {
        u32::from(self.read_u16(addr)) << 16 | u32::from(self.read_u16(addr.wrapping_add(2)))
    }

    /// Writes a big-endian halfword.
    fn write_u16(&mut self, addr: u32, value: u16) {
        self.write_u8(addr, (value >> 8) as u8);
        self.write_u8(addr.wrapping_add(1), value as u8);
    }

    /// Writes a big-endian word.
    fn write_u32(&mut self, addr: u32, value: u32) {
        self.write_u16(addr, (value >> 16) as u16);
        self.write_u16(addr.wrapping_add(2), value as u16);
    }

    /// Reads the word at `addr` for instruction fetch. A memory that
    /// reports a [`fetch_generation`](Memory32::fetch_generation) marks
    /// the word fetched here; the default is [`read_u32`](Memory32::read_u32).
    fn fetch_word(&mut self, addr: u32) -> u32 {
        self.read_u32(addr)
    }

    /// The generation of the words read through
    /// [`fetch_word`](Memory32::fetch_word): while it is unchanged,
    /// every fetched word still reads the value it was fetched with, so
    /// [`RefCore`] may reuse a decode made under it. `None`, the
    /// default, means the memory keeps no such bookkeeping, and
    /// `RefCore` decodes every instruction it steps.
    fn fetch_generation(&self) -> Option<u64> {
        None
    }
}

/// A simple sparse byte map — enough memory for tests and doctests.
#[derive(Clone, Debug, Default)]
pub struct ByteMap {
    bytes: HashMap<u32, u8>,
}

impl ByteMap {
    /// Stores a big-endian word (convenience for building test images).
    pub fn store_word(&mut self, addr: u32, value: u32) {
        self.write_u32(addr, value);
    }
}

impl Memory32 for ByteMap {
    fn read_u8(&self, addr: u32) -> u8 {
        self.bytes.get(&addr).copied().unwrap_or(0)
    }

    fn write_u8(&mut self, addr: u32, value: u8) {
        self.bytes.insert(addr, value);
    }
}

/// Memory-mapped console device base, mirroring the platform layout
/// used by the cycle-level model: stores at or above this address print
/// a byte, loads are side-effect-free and do not write a register.
pub const CONSOLE_BASE: u32 = 0xffff_0000;

/// Initial `%sp`/`%fp` after [`RefCore::new`], mirroring the platform's
/// stack layout (grows down).
pub const STACK_TOP: u32 = 0x00ff_fff0;

/// Why the reference model stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RefExit {
    /// A taken trap; carries the software trap number.
    Halt(u32),
    /// An undecodable instruction word.
    IllegalInstruction {
        /// PC of the offending instruction.
        pc: u32,
        /// The word that failed to decode.
        word: u32,
    },
    /// A misaligned memory access or jump target.
    MisalignedAccess {
        /// PC of the offending instruction.
        pc: u32,
        /// The offending address.
        addr: u32,
    },
    /// An integer divide by zero.
    DivideByZero {
        /// PC of the offending instruction.
        pc: u32,
    },
}

/// One committed instruction of the reference model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RefCommit {
    /// PC of the committed instruction.
    pub pc: u32,
    /// The fetched instruction word.
    pub inst_word: u32,
}

/// Outcome of a single [`RefCore::step`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RefStep {
    /// An instruction executed and committed.
    Committed(RefCommit),
    /// The delay-slot instruction was annulled (no architectural
    /// effect; the cycle-level core reports these too).
    Annulled,
    /// Execution stopped.
    Exited(RefExit),
}

/// Slots in [`RefCore`]'s decode memo, direct-mapped on `pc >> 2`.
const MEMO_SLOTS: usize = 1024;

/// A decode-memo entry: the word fetched at a PC under a
/// [`Memory32::fetch_generation`], and its decode.
#[derive(Clone, Copy, Debug)]
struct MemoEntry {
    pc: u32,
    word: u32,
    generation: u64,
    inst: Instruction,
}

/// [`RefCore`]'s decodes by PC, empty until the first fetch from a
/// memory that reports a generation. Derived state: any two memos
/// compare equal, so a core's equality is its architectural state.
#[derive(Clone, Default)]
struct DecodeMemo(Vec<Option<MemoEntry>>);

impl PartialEq for DecodeMemo {
    fn eq(&self, _: &DecodeMemo) -> bool {
        true
    }
}

impl Eq for DecodeMemo {}

impl std::fmt::Debug for DecodeMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DecodeMemo({} entries)", self.0.iter().flatten().count())
    }
}

/// The untimed architectural reference core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefCore {
    regs: [u32; NUM_REGS],
    icc: IccFlags,
    pc: u32,
    npc: u32,
    annul_next: bool,
    exited: Option<RefExit>,
    console: Vec<u8>,
    /// Decodes validated by the memory's own fetch generation (see
    /// [`Memory32::fetch_generation`]), never by the cycle-level
    /// core's bookkeeping.
    memo: DecodeMemo,
}

impl RefCore {
    /// A reference core in reset state pointed at `entry`, with
    /// `%sp`/`%fp` at [`STACK_TOP`].
    pub fn new(entry: u32) -> RefCore {
        let mut regs = [0; NUM_REGS];
        regs[Reg::SP.index()] = STACK_TOP;
        regs[Reg::FP.index()] = STACK_TOP;
        RefCore {
            regs,
            icc: IccFlags::default(),
            pc: entry,
            npc: entry.wrapping_add(4),
            annul_next: false,
            exited: None,
            console: Vec::new(),
            memo: DecodeMemo::default(),
        }
    }

    /// A reference core synchronized to an externally captured
    /// architectural state (used to attach a golden model mid-run,
    /// e.g. after a checkpoint restore).
    pub fn synced(regs: [u32; NUM_REGS], icc: IccFlags, pc: u32, npc: u32, annul: bool) -> RefCore {
        RefCore {
            regs,
            icc,
            pc,
            npc,
            annul_next: annul,
            exited: None,
            console: Vec::new(),
            memo: DecodeMemo::default(),
        }
    }

    /// Reads an architectural register (`%g0` reads as zero).
    pub fn reg(&self, r: Reg) -> u32 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes an architectural register (writes to `%g0` are ignored).
    ///
    /// Also the reconciliation hook for platform-defined register
    /// writes the ISA does not specify (the FlexCore BFIFO
    /// "read from co-processor" result adopted from the device).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// The full register file, `%g0` first.
    pub fn regs(&self) -> &[u32; NUM_REGS] {
        &self.regs
    }

    /// Current condition codes.
    pub fn icc(&self) -> IccFlags {
        self.icc
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Next program counter (the delay-slot window).
    pub fn npc(&self) -> u32 {
        self.npc
    }

    /// Console bytes produced so far.
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    fn operand2(&self, op2: Operand2) -> u32 {
        match op2 {
            Operand2::Reg(r) => self.reg(r),
            Operand2::Imm(i) => i as u32,
        }
    }

    fn exit(&mut self, reason: RefExit) -> RefStep {
        self.exited = Some(reason);
        RefStep::Exited(reason)
    }

    /// The word at `pc` and its decode: from the memo while `mem`'s
    /// fetch generation is the one the entry was made under, else
    /// fetched and decoded afresh (and memoized, if `mem` reports a
    /// generation).
    fn fetch<M: Memory32>(&mut self, mem: &mut M, pc: u32) -> (u32, Option<Instruction>) {
        let generation = mem.fetch_generation();
        let slot = (pc >> 2) as usize % MEMO_SLOTS;
        if let (Some(generation), Some(Some(e))) = (generation, self.memo.0.get(slot)) {
            if e.pc == pc && e.generation == generation {
                return (e.word, Some(e.inst));
            }
        }
        let word = mem.fetch_word(pc);
        let inst = decode(word).ok();
        if let (Some(generation), Some(inst)) = (generation, inst) {
            if self.memo.0.is_empty() {
                self.memo.0 = vec![None; MEMO_SLOTS];
            }
            self.memo.0[slot] = Some(MemoEntry { pc, word, generation, inst });
        }
        (word, inst)
    }

    /// Executes one instruction against `mem`.
    pub fn step<M: Memory32>(&mut self, mem: &mut M) -> RefStep {
        if let Some(reason) = self.exited {
            return RefStep::Exited(reason);
        }
        let pc = self.pc;

        // Default control flow: slide the delay-slot window.
        let next_pc = self.npc;
        let mut next_npc = self.npc.wrapping_add(4);

        // An annulled slot fetches nothing.
        if std::mem::take(&mut self.annul_next) {
            self.pc = next_pc;
            self.npc = next_npc;
            return RefStep::Annulled;
        }

        let (word, inst) = self.fetch(mem, pc);
        let Some(inst) = inst else {
            return self.exit(RefExit::IllegalInstruction { pc, word });
        };

        match inst {
            Instruction::Alu { op, rd, rs1, op2 } => {
                let a = self.reg(rs1);
                let b = self.operand2(op2);
                let Some((value, icc)) = ref_alu(op, a, b, self.icc) else {
                    return self.exit(RefExit::DivideByZero { pc });
                };
                self.set_reg(rd, value);
                self.icc = icc;
            }
            Instruction::Sethi { rd, imm22 } => {
                self.set_reg(rd, imm22 << 10);
            }
            Instruction::Branch { cond, annul, disp22 } => {
                let taken = cond.eval(self.icc);
                if taken {
                    next_npc = pc.wrapping_add((disp22 as u32) << 2);
                }
                if annul && (cond.is_unconditional() || !taken) {
                    self.annul_next = true;
                }
            }
            Instruction::Call { disp30 } => {
                self.set_reg(Reg::O7, pc);
                next_npc = pc.wrapping_add((disp30 as u32) << 2);
            }
            Instruction::Jmpl { rd, rs1, op2 } => {
                let target = self.reg(rs1).wrapping_add(self.operand2(op2));
                if !target.is_multiple_of(4) {
                    return self.exit(RefExit::MisalignedAccess { pc, addr: target });
                }
                self.set_reg(rd, pc);
                next_npc = target;
            }
            Instruction::Trap { cond, rs1, op2 } => {
                if cond.eval(self.icc) {
                    let tn = self.reg(rs1).wrapping_add(self.operand2(op2)) & 0x7f;
                    return self.exit(RefExit::Halt(tn));
                }
            }
            Instruction::Cpop { .. } => {
                // Co-processor ops are architecturally transparent; a
                // platform that returns a value into a register does so
                // through `set_reg` reconciliation.
            }
            Instruction::Mem { op, rd, rs1, op2 } => {
                if let Some(r) = self.memory_op(mem, pc, word, op, rd, rs1, op2) {
                    return r;
                }
            }
        }

        self.pc = next_pc;
        self.npc = next_npc;
        RefStep::Committed(RefCommit { pc, inst_word: word })
    }

    /// Loads and stores. Returns `Some(exit)` on a fault, `None` on
    /// success.
    #[allow(clippy::too_many_arguments)]
    fn memory_op<M: Memory32>(
        &mut self,
        mem: &mut M,
        pc: u32,
        word: u32,
        op: Opcode,
        rd: Reg,
        rs1: Reg,
        op2: Operand2,
    ) -> Option<RefStep> {
        let ea = self.reg(rs1).wrapping_add(self.operand2(op2));
        let bytes = op.access_bytes().expect("memory opcode");
        if !ea.is_multiple_of(bytes) {
            return Some(self.exit(RefExit::MisalignedAccess { pc, addr: ea }));
        }
        if matches!(op, Opcode::Ldd | Opcode::Std) && !rd.index().is_multiple_of(2) {
            return Some(self.exit(RefExit::IllegalInstruction { pc, word }));
        }
        if ea >= CONSOLE_BASE {
            // Memory-mapped console: stores print a byte, loads are
            // side-effect-free and leave rd untouched.
            if op.is_store() {
                self.console.push(self.reg(rd) as u8);
            }
            return None;
        }
        match op {
            Opcode::Swap => {
                let old = mem.read_u32(ea);
                mem.write_u32(ea, self.reg(rd));
                self.set_reg(rd, old);
            }
            Opcode::Std => {
                let lo = Reg::new(rd.index() as u8 & !1).unwrap_or(rd);
                let hi = Reg::new(rd.index() as u8 | 1).unwrap_or(rd);
                mem.write_u32(ea, self.reg(lo));
                mem.write_u32(ea.wrapping_add(4), self.reg(hi));
            }
            Opcode::St => mem.write_u32(ea, self.reg(rd)),
            Opcode::Sth => mem.write_u16(ea, self.reg(rd) as u16),
            Opcode::Stb => mem.write_u8(ea, self.reg(rd) as u8),
            Opcode::Ldd => {
                let lo = Reg::new(rd.index() as u8 & !1).unwrap_or(rd);
                let hi = Reg::new(rd.index() as u8 | 1).unwrap_or(rd);
                let v1 = mem.read_u32(ea);
                let v2 = mem.read_u32(ea.wrapping_add(4));
                self.set_reg(lo, v1);
                self.set_reg(hi, v2);
            }
            Opcode::Ld => {
                let v = mem.read_u32(ea);
                self.set_reg(rd, v);
            }
            Opcode::Lduh => {
                let v = u32::from(mem.read_u16(ea));
                self.set_reg(rd, v);
            }
            Opcode::Ldsh => {
                let v = mem.read_u16(ea) as i16 as i32 as u32;
                self.set_reg(rd, v);
            }
            Opcode::Ldub => {
                let v = u32::from(mem.read_u8(ea));
                self.set_reg(rd, v);
            }
            Opcode::Ldsb => {
                let v = mem.read_u8(ea) as i8 as i32 as u32;
                self.set_reg(rd, v);
            }
            _ => unreachable!("non-memory opcode routed to memory_op"),
        }
        None
    }
}

/// ALU reference semantics per the V8 manual: returns the result and
/// the (possibly unchanged) condition codes, or `None` for a divide by
/// zero.
///
/// Public so value analyses (constant propagation in
/// `flexcore-analysis`) evaluate ALU ops with exactly the golden-model
/// semantics instead of re-deriving them.
pub fn ref_alu(op: Opcode, a: u32, b: u32, icc: IccFlags) -> Option<(u32, IccFlags)> {
    fn nz(value: u32) -> (bool, bool) {
        ((value as i32) < 0, value == 0)
    }
    fn logic_icc(value: u32) -> IccFlags {
        let (n, z) = nz(value);
        IccFlags { n, z, v: false, c: false }
    }
    let out = match op {
        Opcode::Add | Opcode::Save | Opcode::Restore => (a.wrapping_add(b), icc),
        Opcode::Addcc => {
            let (value, c) = a.overflowing_add(b);
            let (n, z) = nz(value);
            // Signed overflow: operands agree in sign, result differs.
            let v = ((a ^ !b) & (a ^ value)) >> 31 != 0;
            (value, IccFlags { n, z, v, c })
        }
        Opcode::Sub => (a.wrapping_sub(b), icc),
        Opcode::Subcc => {
            let (value, c) = a.overflowing_sub(b);
            let (n, z) = nz(value);
            let v = ((a ^ b) & (a ^ value)) >> 31 != 0;
            (value, IccFlags { n, z, v, c })
        }
        Opcode::And => (a & b, icc),
        Opcode::Andcc => (a & b, logic_icc(a & b)),
        Opcode::Andn => (a & !b, icc),
        Opcode::Andncc => (a & !b, logic_icc(a & !b)),
        Opcode::Or => (a | b, icc),
        Opcode::Orcc => (a | b, logic_icc(a | b)),
        Opcode::Orn => (a | !b, icc),
        Opcode::Orncc => (a | !b, logic_icc(a | !b)),
        Opcode::Xor => (a ^ b, icc),
        Opcode::Xorcc => (a ^ b, logic_icc(a ^ b)),
        Opcode::Xnor => (!(a ^ b), icc),
        Opcode::Xnorcc => (!(a ^ b), logic_icc(!(a ^ b))),
        Opcode::Sll => (a << (b & 31), icc),
        Opcode::Srl => (a >> (b & 31), icc),
        Opcode::Sra => (((a as i32) >> (b & 31)) as u32, icc),
        Opcode::Umul => (a.wrapping_mul(b), icc),
        Opcode::Smul => ((a as i32).wrapping_mul(b as i32) as u32, icc),
        Opcode::Udiv => {
            if b == 0 {
                return None;
            }
            (a / b, icc)
        }
        Opcode::Sdiv => {
            if b == 0 {
                return None;
            }
            ((a as i32).wrapping_div(b as i32) as u32, icc)
        }
        _ => unreachable!("non-ALU opcode routed to ref_alu"),
    };
    Some(out)
}

/// Evaluates a branch condition against flags — re-exported shim so the
/// checker can reason about control flow without reaching into `Cond`.
pub fn branch_taken(cond: Cond, icc: IccFlags) -> bool {
    cond.eval(icc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode;

    fn image(insts: &[Instruction]) -> ByteMap {
        let mut mem = ByteMap::default();
        for (i, inst) in insts.iter().enumerate() {
            mem.store_word(i as u32 * 4, encode(inst));
        }
        mem
    }

    fn run(core: &mut RefCore, mem: &mut ByteMap, max: usize) -> RefExit {
        for _ in 0..max {
            if let RefStep::Exited(e) = core.step(mem) {
                return e;
            }
        }
        panic!("reference model did not exit in {max} steps");
    }

    #[test]
    fn add_and_halt() {
        let mut mem = image(&[
            Instruction::alu(Opcode::Add, Reg::G0, Reg::G1, Operand2::Imm(7)),
            Instruction::alu(Opcode::Add, Reg::G1, Reg::G2, Operand2::Imm(35)),
            Instruction::Trap { cond: Cond::A, rs1: Reg::G0, op2: Operand2::Imm(0) },
            Instruction::alu(Opcode::Add, Reg::G0, Reg::G0, Operand2::Imm(0)),
        ]);
        let mut core = RefCore::new(0);
        assert_eq!(run(&mut core, &mut mem, 10), RefExit::Halt(0));
        assert_eq!(core.reg(Reg::G2), 42);
    }

    #[test]
    fn subcc_sets_flags_like_a_comparison() {
        let mut mem = image(&[
            Instruction::alu(Opcode::Subcc, Reg::G0, Reg::G0, Operand2::Imm(1)),
            Instruction::Trap { cond: Cond::A, rs1: Reg::G0, op2: Operand2::Imm(0) },
            Instruction::alu(Opcode::Add, Reg::G0, Reg::G0, Operand2::Imm(0)),
        ]);
        let mut core = RefCore::new(0);
        run(&mut core, &mut mem, 10);
        // 0 - 1: negative, borrow set, no overflow, not zero.
        assert!(core.icc().n);
        assert!(core.icc().c);
        assert!(!core.icc().z);
        assert!(!core.icc().v);
    }

    #[test]
    fn annulled_delay_slot_skips_execution() {
        // ba,a over a would-be register write: the slot must not
        // execute.
        let mut mem = image(&[
            Instruction::Branch { cond: Cond::A, annul: true, disp22: 2 },
            Instruction::alu(Opcode::Add, Reg::G0, Reg::G5, Operand2::Imm(99)),
            Instruction::alu(Opcode::Add, Reg::G0, Reg::G6, Operand2::Imm(1)),
            Instruction::Trap { cond: Cond::A, rs1: Reg::G0, op2: Operand2::Imm(0) },
            Instruction::alu(Opcode::Add, Reg::G0, Reg::G0, Operand2::Imm(0)),
        ]);
        let mut core = RefCore::new(0);
        run(&mut core, &mut mem, 10);
        assert_eq!(core.reg(Reg::G5), 0, "annulled slot must not execute");
        assert_eq!(core.reg(Reg::G6), 1, "branch target must execute");
    }

    #[test]
    fn delay_slot_executes_on_taken_branch() {
        let mut mem = image(&[
            Instruction::Branch { cond: Cond::A, annul: false, disp22: 2 },
            Instruction::alu(Opcode::Add, Reg::G0, Reg::G5, Operand2::Imm(5)),
            Instruction::Trap { cond: Cond::A, rs1: Reg::G0, op2: Operand2::Imm(0) },
            Instruction::alu(Opcode::Add, Reg::G0, Reg::G0, Operand2::Imm(0)),
        ]);
        let mut core = RefCore::new(0);
        run(&mut core, &mut mem, 10);
        assert_eq!(core.reg(Reg::G5), 5, "delay slot of a taken branch executes");
    }

    #[test]
    fn loads_sign_and_zero_extend() {
        let mut mem = ByteMap::default();
        mem.write_u32(0x100, 0xff80_7f01);
        let prog = [
            // g1 = 0x100 base
            Instruction::alu(Opcode::Add, Reg::G0, Reg::G1, Operand2::Imm(0x100)),
            Instruction::Mem { op: Opcode::Ldsb, rd: Reg::G2, rs1: Reg::G1, op2: Operand2::Imm(0) },
            Instruction::Mem { op: Opcode::Ldub, rd: Reg::G3, rs1: Reg::G1, op2: Operand2::Imm(0) },
            Instruction::Mem { op: Opcode::Ldsh, rd: Reg::G4, rs1: Reg::G1, op2: Operand2::Imm(0) },
            Instruction::Mem { op: Opcode::Lduh, rd: Reg::G5, rs1: Reg::G1, op2: Operand2::Imm(2) },
            Instruction::Trap { cond: Cond::A, rs1: Reg::G0, op2: Operand2::Imm(0) },
            Instruction::alu(Opcode::Add, Reg::G0, Reg::G0, Operand2::Imm(0)),
        ];
        for (i, inst) in prog.iter().enumerate() {
            mem.store_word(i as u32 * 4, encode(inst));
        }
        let mut core = RefCore::new(0);
        run(&mut core, &mut mem, 20);
        assert_eq!(core.reg(Reg::G2), 0xffff_ffff, "ldsb sign-extends");
        assert_eq!(core.reg(Reg::G3), 0xff, "ldub zero-extends");
        assert_eq!(core.reg(Reg::G4), 0xffff_ff80, "ldsh sign-extends");
        assert_eq!(core.reg(Reg::G5), 0x7f01, "lduh zero-extends");
    }

    #[test]
    fn console_store_prints_and_load_is_inert() {
        let mut mem = ByteMap::default();
        let prog = [
            // g1 = console base (sethi puts 0xffff_0000 >> 10 << 10)
            Instruction::Sethi { rd: Reg::G1, imm22: CONSOLE_BASE >> 10 },
            Instruction::alu(Opcode::Add, Reg::G0, Reg::G2, Operand2::Imm(b'A' as i32)),
            Instruction::Mem { op: Opcode::Stb, rd: Reg::G2, rs1: Reg::G1, op2: Operand2::Imm(0) },
            Instruction::Mem { op: Opcode::Ldub, rd: Reg::G3, rs1: Reg::G1, op2: Operand2::Imm(0) },
            Instruction::Trap { cond: Cond::A, rs1: Reg::G0, op2: Operand2::Imm(0) },
            Instruction::alu(Opcode::Add, Reg::G0, Reg::G0, Operand2::Imm(0)),
        ];
        for (i, inst) in prog.iter().enumerate() {
            mem.store_word(i as u32 * 4, encode(inst));
        }
        let mut core = RefCore::new(0);
        run(&mut core, &mut mem, 20);
        assert_eq!(core.console(), b"A");
        assert_eq!(core.reg(Reg::G3), 0, "console load writes no register");
    }

    #[test]
    fn divide_by_zero_faults() {
        let mut mem = image(&[Instruction::alu(Opcode::Udiv, Reg::G1, Reg::G2, Operand2::Imm(0))]);
        let mut core = RefCore::new(0);
        assert_eq!(run(&mut core, &mut mem, 2), RefExit::DivideByZero { pc: 0 });
    }

    #[test]
    fn synced_core_resumes_mid_stream() {
        let mut regs = [0u32; NUM_REGS];
        regs[Reg::G1.index()] = 77;
        let core = RefCore::synced(regs, IccFlags::default(), 0x40, 0x44, false);
        assert_eq!(core.pc(), 0x40);
        assert_eq!(core.reg(Reg::G1), 77);
        assert_eq!(core.reg(Reg::G0), 0);
    }
}
