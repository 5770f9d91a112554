//! The core model: functional execution plus commit-driven timing.

use flexcore_asm::Program;
use flexcore_isa::{decode, IccFlags, InstrClass, Instruction, Opcode, Operand2, Reg};
use flexcore_mem::{BusMaster, CacheStats, MainMemory, StoreBuffer, SystemBus, TimingCache};
use serde::{field, hex32, Deserialize, Serialize, Value};

use crate::alu::alu;
use crate::config::{
    DIV_LATENCY, L1, L1_LINE_WORDS, LOAD_LATENCY, MUL_LATENCY, STORE_BUFFER_DEPTH,
    TAKEN_BRANCH_PENALTY,
};
use crate::{CoreConfig, CoreStats, TracePacket, CONSOLE_ADDR};

/// Why execution stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExitReason {
    /// A taken `t<cond>` trap; carries the software trap number.
    /// Workloads use `ta 0` for success and `ta 1` for assertion
    /// failure.
    Halt(u32),
    /// An undecodable instruction word.
    IllegalInstruction {
        /// PC of the offending instruction.
        pc: u32,
        /// The word that failed to decode.
        word: u32,
    },
    /// A misaligned load or store.
    MisalignedAccess {
        /// PC of the offending instruction.
        pc: u32,
        /// The misaligned effective address.
        addr: u32,
    },
    /// An integer divide by zero.
    DivideByZero {
        /// PC of the offending instruction.
        pc: u32,
    },
    /// [`Core::run`] hit its instruction budget.
    InstructionLimit,
    /// An external monitor raised an exception (the FlexCore TRAP
    /// signal); carries the PC the monitor reported.
    MonitorTrap {
        /// PC of the instruction that failed the monitor's check.
        pc: u32,
    },
}

/// `{kind, detail}`, each pc and word a [`hex32`] string.
impl Serialize for ExitReason {
    fn to_value(&self) -> Value {
        let detail = Value::object();
        let (kind, detail) = match *self {
            ExitReason::Halt(code) => ("halt", detail.field("code", &code)),
            ExitReason::IllegalInstruction { pc, word } => (
                "illegal_instruction",
                detail.raw("pc", hex32::enc(&pc)).raw("word", hex32::enc(&word)),
            ),
            ExitReason::MisalignedAccess { pc, addr } => (
                "misaligned_access",
                detail.raw("pc", hex32::enc(&pc)).raw("addr", hex32::enc(&addr)),
            ),
            ExitReason::DivideByZero { pc } => {
                ("divide_by_zero", detail.raw("pc", hex32::enc(&pc)))
            }
            ExitReason::InstructionLimit => ("instruction_limit", detail),
            ExitReason::MonitorTrap { pc } => ("monitor_trap", detail.raw("pc", hex32::enc(&pc))),
        };
        Value::object().field("kind", &kind).raw("detail", detail.build()).build()
    }
}

impl Deserialize for ExitReason {
    fn dec(v: &Value, what: &str) -> Result<Self, String> {
        let detail = field(v, what, "detail")?;
        let word = |key: &str| hex32::dec(field(detail, "detail", key)?, key);
        Ok(match String::dec(field(v, what, "kind")?, "kind")?.as_str() {
            "halt" => ExitReason::Halt(u32::dec(field(detail, "detail", "code")?, "code")?),
            "illegal_instruction" => {
                ExitReason::IllegalInstruction { pc: word("pc")?, word: word("word")? }
            }
            "misaligned_access" => {
                ExitReason::MisalignedAccess { pc: word("pc")?, addr: word("addr")? }
            }
            "divide_by_zero" => ExitReason::DivideByZero { pc: word("pc")? },
            "instruction_limit" => ExitReason::InstructionLimit,
            "monitor_trap" => ExitReason::MonitorTrap { pc: word("pc")? },
            other => return Err(format!("unknown exit reason `{other}`")),
        })
    }
}

/// Outcome of a single [`Core::step_into`]: the packet itself lands in
/// the caller's buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stepped {
    /// An instruction committed; the buffer holds its trace packet.
    Committed,
    /// The delay-slot instruction was annulled (consumes a cycle,
    /// commits nothing, forwards nothing). The buffer is unspecified.
    Annulled,
    /// Execution stopped. The buffer is unspecified.
    Exited(ExitReason),
}

/// Outcome of a single [`Core::step`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepResult {
    /// An instruction committed; here is its trace packet.
    Committed(TracePacket),
    /// The delay-slot instruction was annulled (consumes a cycle,
    /// commits nothing, forwards nothing).
    Annulled,
    /// Execution stopped.
    Exited(ExitReason),
}

/// Complete checkpointable state of a [`Core`]: architectural state
/// (registers, condition codes, pc/npc window), microarchitectural
/// state (cache tags, store buffer, commit slot, cycle counter), and
/// accounting (statistics, console output, exit status).
///
/// Captured by [`Core::snapshot`] and reapplied by [`Core::restore`]
/// onto a core built with the same [`CoreConfig`].
#[derive(Clone, PartialEq, Debug)]
pub struct CoreSnapshot {
    /// Architectural register file.
    pub regs: [u32; 32],
    /// Condition codes, as [`IccFlags::to_bits`] (NZVC).
    pub icc: u8,
    /// Current program counter.
    pub pc: u32,
    /// Next program counter (delay-slot window).
    pub npc: u32,
    /// Whether the next fetch is an annulled delay slot.
    pub annul_next: bool,
    /// Core-clock cycle count.
    pub cycle: u64,
    /// I-cache tag/LRU state.
    pub icache: flexcore_mem::CacheSnapshot,
    /// D-cache tag/LRU state.
    pub dcache: flexcore_mem::CacheSnapshot,
    /// Pending store completions, oldest first.
    pub storebuf_pending: Vec<u64>,
    /// Store-buffer stall accounting.
    pub storebuf_stalls: u64,
    /// Execution statistics.
    pub stats: CoreStats,
    /// Console bytes produced so far.
    pub console: Vec<u8>,
    /// Exit status, if execution has stopped.
    pub exited: Option<ExitReason>,
    /// Commit-group slot (for `commit_width > 1`).
    pub commit_slot: u32,
}

serde::codec_object!(CoreSnapshot {
    "regs": regs,
    "icc": icc,
    "pc": pc,
    "npc": npc,
    "annul_next": annul_next,
    "cycle": cycle,
    "icache": icache,
    "dcache": dcache,
    "storebuf_pending": storebuf_pending,
    "storebuf_stalls": storebuf_stalls,
    "stats": stats,
    "console": console,
    "exited": exited,
    "commit_slot": commit_slot,
});

/// Slots in [`Core`]'s decode memo, direct-mapped on `pc >> 2`: a
/// hot loop of up to 4 KB of text decodes once.
const MEMO_SLOTS: usize = 1024;

/// A decode-memo entry: the word fetched at a PC under a memory code
/// generation, and everything the commit path derives from the word
/// alone.
#[derive(Clone, Copy, Debug)]
struct Decoded {
    pc: u32,
    generation: u64,
    word: u32,
    inst: Instruction,
    class: InstrClass,
    src1: Option<Reg>,
    src2: Option<Reg>,
    dest: Option<Reg>,
}

/// The Leon3-like in-order core.
///
/// See the [crate docs](crate) for the modeling approach and an
/// end-to-end example.
#[derive(Clone, Debug)]
pub struct Core {
    /// [`CoreConfig::commit_width`].
    commit_width: u32,
    regs: [u32; 32],
    icc: IccFlags,
    pc: u32,
    npc: u32,
    annul_next: bool,
    cycle: u64,
    icache: TimingCache,
    dcache: TimingCache,
    storebuf: StoreBuffer,
    stats: CoreStats,
    console: Vec<u8>,
    exited: Option<ExitReason>,
    /// Instructions committed since the last base-cycle charge (for
    /// `commit_width > 1`).
    commit_slot: u32,
    /// Decoded instructions by PC. An entry is used only while the
    /// memory's [`MainMemory::code_generation`] is the one it was
    /// fetched under; stores over fetched code, text faults and
    /// checkpoint restores (which install a clone) all move the
    /// generation, so the memo needs no invalidation of its own.
    /// Derived state: not part of [`CoreSnapshot`].
    memo: Box<[Option<Decoded>; MEMO_SLOTS]>,
}

impl Core {
    /// Initial stack pointer after [`Core::load_program`] (grows down).
    pub const STACK_TOP: u32 = 0x00ff_fff0;

    /// Creates a core in reset state (PC 0, registers zero).
    pub fn new(config: CoreConfig) -> Core {
        Core {
            commit_width: config.commit_width,
            regs: [0; 32],
            icc: IccFlags::default(),
            pc: 0,
            npc: 4,
            annul_next: false,
            cycle: 0,
            icache: TimingCache::new(L1),
            dcache: TimingCache::new(L1),
            storebuf: StoreBuffer::new(STORE_BUFFER_DEPTH),
            stats: CoreStats::default(),
            console: Vec::new(),
            exited: None,
            commit_slot: 0,
            memo: Box::new([None; MEMO_SLOTS]),
        }
    }

    /// Loads a program image into memory, points the PC at its entry,
    /// and initializes `%sp`/`%fp` to [`Core::STACK_TOP`].
    pub fn load_program(&mut self, program: &Program, mem: &mut MainMemory) {
        mem.load(program.base(), program.image());
        self.pc = program.entry();
        self.npc = program.entry().wrapping_add(4);
        self.regs[Reg::SP.index()] = Core::STACK_TOP;
        self.regs[Reg::FP.index()] = Core::STACK_TOP;
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
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// The full register file, `%g0` first. Slot 0 is not
    /// architectural state ([`Core::reg`] reads `%g0` as zero), so
    /// whole-file comparisons use `regs()[1..]`.
    pub fn regs(&self) -> &[u32; 32] {
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

    /// Core-clock cycle count so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Execution statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// I-cache statistics.
    pub fn icache_stats(&self) -> CacheStats {
        self.icache.stats()
    }

    /// D-cache statistics.
    pub fn dcache_stats(&self) -> CacheStats {
        self.dcache.stats()
    }

    /// Bytes written to the console device at
    /// [`CONSOLE_ADDR`](crate::CONSOLE_ADDR).
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// Stalls the commit stage until cycle `t` (used by the FlexCore
    /// interface when the forward FIFO is full). No-op if `t` is in the
    /// past.
    pub fn stall_until(&mut self, t: u64) {
        if t > self.cycle {
            self.stats.external_stall_cycles += t - self.cycle;
            self.cycle = t;
        }
    }

    /// Forces execution to stop with `reason` (the FlexCore TRAP path).
    pub fn halt(&mut self, reason: ExitReason) {
        self.exited.get_or_insert(reason);
    }

    /// The cycle at which all pending write-through stores have
    /// drained.
    pub fn quiesced_at(&self) -> u64 {
        self.storebuf.drained_at(self.cycle)
    }

    /// Next program counter (the second half of the SPARC delay-slot
    /// window). Lockstep verification uses this to seed a reference
    /// model mid-run.
    pub fn npc(&self) -> u32 {
        self.npc
    }

    /// Whether the next fetch will be annulled (the slot of a taken
    /// `ba,a` or an untaken annulling branch).
    pub fn annul_pending(&self) -> bool {
        self.annul_next
    }

    /// Captures the complete core state for checkpointing.
    pub fn snapshot(&self) -> CoreSnapshot {
        CoreSnapshot {
            regs: self.regs,
            icc: self.icc.to_bits(),
            pc: self.pc,
            npc: self.npc,
            annul_next: self.annul_next,
            cycle: self.cycle,
            icache: self.icache.snapshot(),
            dcache: self.dcache.snapshot(),
            storebuf_pending: self.storebuf.pending_completions(),
            storebuf_stalls: self.storebuf.stall_cycles(),
            stats: self.stats,
            console: self.console.clone(),
            exited: self.exited,
            commit_slot: self.commit_slot,
        }
    }

    /// Restores state captured by [`Core::snapshot`] on a core built
    /// with the same [`CoreConfig`].
    ///
    /// # Errors
    ///
    /// Refuses a snapshot whose L1 tag arrays have another line count
    /// than the caches, or that holds more pending stores than the
    /// store buffer's depth. A refused snapshot leaves the core
    /// unchanged.
    pub fn restore(&mut self, snap: &CoreSnapshot) -> Result<(), String> {
        let lines = (L1.sets() * L1.ways) as usize;
        for (name, cache) in [("I", &snap.icache), ("D", &snap.dcache)] {
            if cache.lines.len() != lines {
                return Err(format!(
                    "the {name}-cache holds {lines} lines, the snapshot {}",
                    cache.lines.len()
                ));
            }
        }
        if snap.storebuf_pending.len() > STORE_BUFFER_DEPTH {
            return Err(format!(
                "the store buffer holds {STORE_BUFFER_DEPTH} stores, the snapshot {}",
                snap.storebuf_pending.len()
            ));
        }
        self.regs = snap.regs;
        self.icc = IccFlags::from_bits(snap.icc);
        self.pc = snap.pc;
        self.npc = snap.npc;
        self.annul_next = snap.annul_next;
        self.cycle = snap.cycle;
        self.icache.restore(&snap.icache);
        self.dcache.restore(&snap.dcache);
        self.storebuf.restore(&snap.storebuf_pending, snap.storebuf_stalls);
        self.stats = snap.stats;
        self.console = snap.console.clone();
        self.exited = snap.exited;
        self.commit_slot = snap.commit_slot;
        Ok(())
    }

    fn operand2(&self, op2: Operand2) -> u32 {
        match op2 {
            Operand2::Reg(r) => self.reg(r),
            Operand2::Imm(i) => i as u32,
        }
    }

    fn exit(&mut self, reason: ExitReason) -> Stepped {
        self.exited = Some(reason);
        Stepped::Exited(reason)
    }

    /// Executes one instruction: fetch, decode, execute, charge timing,
    /// and produce the commit-stage trace packet.
    ///
    /// A wrapper over [`Core::step_into`] that returns the packet by
    /// value. Loops that step every commit should own one packet and
    /// call `step_into`: the by-value return is a wide copy per commit.
    #[inline]
    pub fn step(&mut self, mem: &mut MainMemory, bus: &mut SystemBus) -> StepResult {
        let mut packet = TracePacket::EMPTY;
        match self.step_into(mem, bus, &mut packet) {
            Stepped::Committed => StepResult::Committed(packet),
            Stepped::Annulled => StepResult::Annulled,
            Stepped::Exited(reason) => StepResult::Exited(reason),
        }
    }

    /// Executes one instruction like [`Core::step`], writing the
    /// commit-stage trace packet into `packet`. On
    /// [`Stepped::Committed`] every field of `packet` has been
    /// overwritten; otherwise its contents are unspecified.
    pub fn step_into(
        &mut self,
        mem: &mut MainMemory,
        bus: &mut SystemBus,
        packet: &mut TracePacket,
    ) -> Stepped {
        if let Some(reason) = self.exited {
            return Stepped::Exited(reason);
        }
        let pc = self.pc;

        // Instruction fetch.
        let ifetch = self.icache.access(pc, false);
        if !ifetch.hit {
            let done = bus.transfer(BusMaster::Core, self.cycle, L1_LINE_WORDS);
            self.cycle = done;
        }
        // Default control flow: slide the delay-slot window.
        let next_pc = self.npc;
        let mut next_npc = self.npc.wrapping_add(4);

        // An annulled delay slot consumes a fetch cycle but does not
        // decode, execute, or commit.
        if std::mem::take(&mut self.annul_next) {
            self.cycle += 1;
            self.stats.annulled += 1;
            self.pc = next_pc;
            self.npc = next_npc;
            return Stepped::Annulled;
        }

        let generation = mem.code_generation();
        let slot = (pc >> 2) as usize % MEMO_SLOTS;
        let d = match self.memo[slot] {
            Some(d) if d.pc == pc && d.generation == generation => d,
            _ => {
                let word = mem.fetch_u32(pc);
                let Ok(inst) = decode(word) else {
                    return self.exit(ExitReason::IllegalInstruction { pc, word });
                };
                let (src1, src2) = inst.source_regs();
                let class = InstrClass::of(&inst);
                let d = Decoded {
                    pc,
                    generation,
                    word,
                    inst,
                    class,
                    src1,
                    src2,
                    dest: inst.dest_reg(),
                };
                self.memo[slot] = Some(d);
                d
            }
        };
        let inst = d.inst;

        *packet = TracePacket {
            pc,
            inst_word: d.word,
            inst,
            class: d.class,
            addr: 0,
            result: 0,
            srcv1: d.src1.map_or(0, |r| self.reg(r)),
            srcv2: 0,
            store_value: 0,
            cond: self.icc,
            branch_taken: false,
            src1: d.src1,
            src2: d.src2,
            dest: d.dest,
            commit_cycle: 0,
        };

        match inst {
            Instruction::Alu { op, rd, rs1, op2 } => {
                let a = self.reg(rs1);
                let b = self.operand2(op2);
                packet.srcv2 = b;
                let Some(out) = alu(op, a, b) else {
                    return self.exit(ExitReason::DivideByZero { pc });
                };
                self.set_reg(rd, out.value);
                if let Some(icc) = out.icc {
                    self.icc = icc;
                }
                packet.result = out.value;
                packet.cond = self.icc;
                match op {
                    Opcode::Umul | Opcode::Smul => self.cycle += MUL_LATENCY,
                    Opcode::Udiv | Opcode::Sdiv => self.cycle += DIV_LATENCY,
                    _ => {}
                }
            }
            Instruction::Sethi { rd, imm22 } => {
                let value = imm22 << 10;
                self.set_reg(rd, value);
                packet.result = value;
            }
            Instruction::Branch { cond, annul, disp22 } => {
                let taken = cond.eval(self.icc);
                packet.branch_taken = taken;
                if taken {
                    next_npc = pc.wrapping_add((disp22 as u32) << 2);
                }
                // SPARC annul rule: the delay slot is annulled when the
                // annul bit is set and the branch is untaken — or, for
                // `ba,a`/`bn,a`, unconditionally.
                if annul && (cond.is_unconditional() || !taken) {
                    self.annul_next = true;
                }
            }
            Instruction::Call { disp30 } => {
                self.set_reg(Reg::O7, pc);
                packet.result = pc;
                packet.branch_taken = true;
                next_npc = pc.wrapping_add((disp30 as u32) << 2);
            }
            Instruction::Jmpl { rd, rs1, op2 } => {
                let target = self.reg(rs1).wrapping_add(self.operand2(op2));
                packet.srcv2 = self.operand2(op2);
                packet.addr = target;
                if !target.is_multiple_of(4) {
                    return self.exit(ExitReason::MisalignedAccess { pc, addr: target });
                }
                self.set_reg(rd, pc);
                packet.result = pc;
                packet.branch_taken = true;
                next_npc = target;
            }
            Instruction::Trap { cond, rs1, op2 } => {
                packet.srcv2 = self.operand2(op2);
                if cond.eval(self.icc) {
                    let tn = self.reg(rs1).wrapping_add(self.operand2(op2)) & 0x7f;
                    // Traps drain the store buffer before transferring
                    // control (the paper's EMPTY-signal discipline).
                    self.cycle = self.storebuf.drained_at(self.cycle);
                    return self.exit(ExitReason::Halt(tn));
                }
            }
            Instruction::Cpop { rs1, rs2, .. } => {
                // Co-processor ops are transparent to the core: the
                // FlexCore interface layer interprets them (and supplies
                // the BFIFO value for "read from co-processor").
                packet.srcv1 = self.reg(rs1);
                packet.srcv2 = self.reg(rs2);
            }
            Instruction::Mem { op, rd, rs1, op2 } => {
                let ea = self.reg(rs1).wrapping_add(self.operand2(op2));
                packet.addr = ea;
                packet.srcv2 = self.operand2(op2);
                let bytes = op.access_bytes().expect("memory opcode");
                if !ea.is_multiple_of(bytes) {
                    return self.exit(ExitReason::MisalignedAccess { pc, addr: ea });
                }
                if matches!(op, Opcode::Ldd | Opcode::Std) && rd.index() % 2 != 0 {
                    // Doubleword ops require an even register pair.
                    return self.exit(ExitReason::IllegalInstruction { pc, word: d.word });
                }
                if ea >= CONSOLE_ADDR {
                    // Memory-mapped console: uncached, no bus model
                    // (a real UART sits on a peripheral bus).
                    if op.is_store() {
                        self.console.push(self.reg(rd) as u8);
                        packet.store_value = self.reg(rd);
                    }
                } else if op == Opcode::Swap {
                    // Atomic swap: one read plus one write, locked on
                    // the bus.
                    let old = mem.read_u32(ea);
                    mem.write_u32(ea, self.reg(rd));
                    packet.store_value = self.reg(rd);
                    packet.result = old;
                    let lookup = self.dcache.access(ea, false);
                    if !lookup.hit {
                        let done = bus.transfer(BusMaster::Core, self.cycle, L1_LINE_WORDS);
                        self.cycle = done;
                    }
                    self.dcache.access(ea, true);
                    let done = bus.write(BusMaster::Core, self.cycle, 1);
                    // Atomicity: the core holds the bus; no store
                    // buffering.
                    self.cycle = done;
                    self.set_reg(rd, old);
                    self.cycle += LOAD_LATENCY;
                } else if op == Opcode::Std {
                    // SPARC-V8 doubleword ops pair even/odd registers.
                    // A crafted (or fault-flipped) odd rd would address
                    // past %r31, so the low bit is ignored and rd is
                    // the even-aligned pair base.
                    let rd = Reg::new(rd.index() as u8 & !1).unwrap_or(rd);
                    let rd2 = Reg::new(rd.index() as u8 | 1).unwrap_or(rd);
                    let (v1, v2) = (self.reg(rd), self.reg(rd2));
                    mem.write_u32(ea, v1);
                    mem.write_u32(ea + 4, v2);
                    packet.store_value = v1;
                    packet.result = v1;
                    self.dcache.access(ea, true);
                    self.dcache.access(ea + 4, true);
                    let done = bus.write(BusMaster::Core, self.cycle, 2);
                    let proceed = self.storebuf.push(self.cycle, done);
                    self.stats.store_stall_cycles += proceed - self.cycle;
                    self.cycle = proceed;
                    // The second word occupies the memory stage an
                    // extra cycle.
                    self.cycle += 1;
                } else if op.is_store() {
                    let value = self.reg(rd);
                    packet.store_value = value;
                    packet.result = value;
                    match op {
                        Opcode::St => mem.write_u32(ea, value),
                        Opcode::Sth => mem.write_u16(ea, value as u16),
                        Opcode::Stb => mem.write_u8(ea, value as u8),
                        _ => unreachable!(),
                    }
                    // Write-through: tags updated on hit, no allocate;
                    // the word goes to memory via the store buffer.
                    self.dcache.access(ea, true);
                    let done = bus.write(BusMaster::Core, self.cycle, 1);
                    let proceed = self.storebuf.push(self.cycle, done);
                    self.stats.store_stall_cycles += proceed - self.cycle;
                    self.cycle = proceed;
                } else if op == Opcode::Ldd {
                    // Even-aligned pair base, as for `std` above.
                    let rd = Reg::new(rd.index() as u8 & !1).unwrap_or(rd);
                    let rd2 = Reg::new(rd.index() as u8 | 1).unwrap_or(rd);
                    let lookup = self.dcache.access(ea, false);
                    if !lookup.hit {
                        let done = bus.transfer(BusMaster::Core, self.cycle, L1_LINE_WORDS);
                        self.cycle = done;
                    }
                    self.dcache.access(ea + 4, false); // same line: 8-aligned
                    let v1 = mem.read_u32(ea);
                    let v2 = mem.read_u32(ea + 4);
                    self.set_reg(rd, v1);
                    self.set_reg(rd2, v2);
                    packet.result = v1;
                    // Two memory-stage beats plus the usual load use.
                    self.cycle += LOAD_LATENCY + 1;
                } else {
                    let lookup = self.dcache.access(ea, false);
                    if !lookup.hit {
                        let done = bus.transfer(BusMaster::Core, self.cycle, L1_LINE_WORDS);
                        self.cycle = done;
                    }
                    let value = match op {
                        Opcode::Ld => mem.read_u32(ea),
                        Opcode::Lduh => u32::from(mem.read_u16(ea)),
                        Opcode::Ldsh => mem.read_u16(ea) as i16 as i32 as u32,
                        Opcode::Ldub => u32::from(mem.read_u8(ea)),
                        Opcode::Ldsb => mem.read_u8(ea) as i8 as i32 as u32,
                        _ => unreachable!(),
                    };
                    self.set_reg(rd, value);
                    packet.result = value;
                    self.cycle += LOAD_LATENCY;
                }
            }
        }

        // Taken control transfers pay the fetch-redirect bubble (and
        // break the commit group).
        if packet.branch_taken {
            self.cycle += TAKEN_BRANCH_PENALTY;
            self.commit_slot = 0;
        }
        // Base cycle, shared by `commit_width` instructions.
        self.commit_slot += 1;
        if self.commit_slot >= self.commit_width {
            self.commit_slot = 0;
            self.cycle += 1;
        }
        self.stats.instret += 1;
        self.stats.per_class[packet.class.index()] += 1;
        packet.commit_cycle = self.cycle;

        self.pc = next_pc;
        self.npc = next_npc;
        Stepped::Committed
    }

    /// Performs one extra data access on behalf of instrumentation
    /// code (used by the software-monitoring baselines): charges
    /// D-cache, bus, and store-buffer timing exactly like a real
    /// load/store plus its base cycle, without touching architectural
    /// state.
    pub fn instrumentation_access(
        &mut self,
        addr: u32,
        is_write: bool,
        _mem: &mut MainMemory,
        bus: &mut SystemBus,
    ) {
        if is_write {
            self.dcache.access(addr, true);
            let done = bus.write(BusMaster::Core, self.cycle, 1);
            let proceed = self.storebuf.push(self.cycle, done);
            self.cycle = proceed;
        } else {
            let lookup = self.dcache.access(addr, false);
            if !lookup.hit {
                let done = bus.transfer(BusMaster::Core, self.cycle, L1_LINE_WORDS);
                self.cycle = done;
            }
            self.cycle += LOAD_LATENCY;
        }
        self.cycle += 1;
    }

    /// Runs until the program exits or `max_instructions` commit.
    pub fn run(
        &mut self,
        mem: &mut MainMemory,
        bus: &mut SystemBus,
        max_instructions: u64,
    ) -> ExitReason {
        let mut packet = TracePacket::EMPTY;
        loop {
            if self.stats.instret >= max_instructions {
                self.exited = Some(ExitReason::InstructionLimit);
                return ExitReason::InstructionLimit;
            }
            if let Stepped::Exited(reason) = self.step_into(mem, bus, &mut packet) {
                return reason;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_reason_tags_its_kind() {
        let v = ExitReason::Halt(0).to_value();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("halt"));
        let v = ExitReason::MonitorTrap { pc: 0x40 }.to_value();
        assert_eq!(
            v.get("detail").and_then(|d| d.get("pc")).and_then(Value::as_str),
            Some("0x00000040")
        );
        assert_eq!(ExitReason::dec(&v, "exit"), Ok(ExitReason::MonitorTrap { pc: 0x40 }));
    }
}
