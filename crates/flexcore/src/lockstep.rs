//! Lockstep golden-model divergence detection.
//!
//! The cycle-level [`System`](crate::System) models *timing*; the
//! ISA-level interpreter in [`flexcore_isa::interp`] models only
//! *architecture*. When lockstep checking is enabled
//! ([`System::enable_lockstep`](crate::System::enable_lockstep)), the
//! system steps the interpreter commit-for-commit alongside the
//! pipeline and diffs architectural state at every commit: PC, the
//! fetched instruction word, the full register file, and the condition
//! codes. Memory effects are checked transitively — the golden model
//! executes loads and stores against its own private memory image, so
//! a corrupted store or a flipped data word surfaces as a register
//! mismatch at the next load that observes it.
//!
//! On the first mismatch the system freezes the installed
//! [`FlightRecorder`](crate::obs::FlightRecorder) ring into a minimized
//! [`DivergenceReport`] (the last commits of both models plus the state
//! delta) and [`System::try_run`](crate::System::try_run) returns
//! [`SimError::Divergence`](crate::SimError::Divergence).
//!
//! Faults confined to the monitoring path — corrupted FFIFO packets,
//! poisoned meta-data, a wedged fabric — do **not** diverge: the golden
//! model checks the main core's architectural state, which those
//! faults leave intact. Faults that strike architectural state (ALU
//! results, registers, data or text memory) do.

use std::fmt;

use flexcore_isa::interp::{Memory32, RefCore, RefStep};
use flexcore_isa::{Reg, NUM_REGS};
use flexcore_mem::MainMemory;
use flexcore_pipeline::{Core, TracePacket};

use crate::obs::FlightEntry;

/// Adapter implementing the ISA-level [`Memory32`] interface on the
/// system's [`MainMemory`] (the two crates are independent, so neither
/// can implement the other's trait directly).
///
/// A halfword or word inside one page costs one page lookup: the
/// adapter borrows the page through [`MainMemory::page_bytes`] /
/// [`MainMemory::page_bytes_mut`] and composes or splits the
/// big-endian bytes itself. It never calls `MainMemory`'s own
/// halfword/word accessors, so the golden model's word path stays
/// independent of the core's, and a bug there shows up as a
/// divergence. Page-straddling (and wrapping) accesses go byte by byte.
#[derive(Clone, Debug)]
struct RefMem(MainMemory);

/// Page index and in-page offset of `addr`, or `None` when `N` bytes
/// from `addr` straddle a page boundary or wrap past the top of memory.
fn in_page<const N: usize>(addr: u32) -> Option<(u32, usize)> {
    let page = MainMemory::PAGE_BYTES as u32;
    let off = (addr % page) as usize;
    (off + N <= MainMemory::PAGE_BYTES).then_some((addr / page, off))
}

impl RefMem {
    fn read_bytes<const N: usize>(&self, addr: u32) -> [u8; N] {
        let mut out = [0; N];
        match in_page::<N>(addr) {
            Some((index, off)) => {
                if let Some(page) = self.0.page_bytes(index) {
                    out.copy_from_slice(&page[off..off + N]);
                }
            }
            None => {
                for (i, b) in out.iter_mut().enumerate() {
                    *b = self.0.read_u8(addr.wrapping_add(i as u32));
                }
            }
        }
        out
    }

    fn write_bytes<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) {
        match in_page::<N>(addr) {
            Some((index, off)) => {
                self.0.page_bytes_mut(index)[off..off + N].copy_from_slice(&bytes);
            }
            None => {
                for (i, b) in bytes.into_iter().enumerate() {
                    self.0.write_u8(addr.wrapping_add(i as u32), b);
                }
            }
        }
    }
}

impl Memory32 for RefMem {
    fn read_u8(&self, addr: u32) -> u8 {
        self.0.read_u8(addr)
    }

    fn write_u8(&mut self, addr: u32, value: u8) {
        self.0.write_u8(addr, value);
    }

    fn read_u16(&self, addr: u32) -> u16 {
        u16::from_be_bytes(self.read_bytes(addr))
    }

    fn read_u32(&self, addr: u32) -> u32 {
        u32::from_be_bytes(self.read_bytes(addr))
    }

    fn write_u16(&mut self, addr: u32, value: u16) {
        self.write_bytes(addr, value.to_be_bytes());
    }

    fn write_u32(&mut self, addr: u32, value: u32) {
        self.write_bytes(addr, value.to_be_bytes());
    }
}

/// One commit as remembered in the divergence rings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockstepCommit {
    /// 1-based commit index (matching `ForwardStats::committed`).
    pub index: u64,
    /// Program counter.
    pub pc: u32,
    /// The fetched instruction word.
    pub inst_word: u32,
}

impl fmt::Display for LockstepCommit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:#010x} {:#010x}", self.index, self.pc, self.inst_word)
    }
}

/// One architectural register on which the two models disagree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegMismatch {
    /// Register index (1..=31; `%g0` cannot mismatch).
    pub reg: u8,
    /// The cycle-level core's value.
    pub dut: u32,
    /// The golden model's value.
    pub golden: u32,
}

/// Everything captured at the first lockstep mismatch: where the two
/// models disagree, the last commits of both, and the frozen
/// flight-recorder ring (empty unless a
/// [`FlightRecorder`](crate::obs::FlightRecorder) sink is installed).
#[derive(Clone, Debug, PartialEq)]
pub struct DivergenceReport {
    /// 1-based commit index at which the divergence was detected.
    pub commit_index: u64,
    /// Core-clock cycle of that commit.
    pub cycle: u64,
    /// Human-readable classification of the first observed mismatch.
    pub reason: String,
    /// The cycle-level core's PC at the divergent commit.
    pub dut_pc: u32,
    /// The golden model's PC at the divergent commit.
    pub golden_pc: u32,
    /// The instruction word the cycle-level core committed.
    pub dut_inst_word: u32,
    /// The instruction word the golden model fetched.
    pub golden_inst_word: u32,
    /// Registers on which the two models disagree, ascending by index.
    pub reg_mismatches: Vec<RegMismatch>,
    /// Condition-code mismatch as `(dut, golden)` NZVC bits, if any.
    pub icc_mismatch: Option<(u8, u8)>,
    /// The cycle-level core's last commits, oldest first (the divergent
    /// commit is last).
    pub dut_recent: Vec<LockstepCommit>,
    /// The golden model's last commits, oldest first.
    pub golden_recent: Vec<LockstepCommit>,
    /// The flight-recorder ring frozen at detection (disassembled
    /// commit history; empty without a flight-recorder sink).
    pub flight: Vec<FlightEntry>,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "at commit {} (cycle {}): {}; dut pc {:#010x} golden pc {:#010x}",
            self.commit_index, self.cycle, self.reason, self.dut_pc, self.golden_pc,
        )?;
        if !self.reg_mismatches.is_empty() {
            write!(f, "; {} register mismatch(es):", self.reg_mismatches.len())?;
            for m in &self.reg_mismatches {
                write!(f, " r{}={:#010x}/{:#010x}", m.reg, m.dut, m.golden)?;
            }
        }
        if let Some((dut, golden)) = self.icc_mismatch {
            write!(f, "; icc {dut:#06b}/{golden:#06b}")?;
        }
        Ok(())
    }
}

/// How many consecutive annulled delay slots the golden model may
/// consume while catching up to one pipeline commit. SPARC annuls at
/// most the single delay slot of each branch, so anything past a small
/// bound means the models have lost alignment.
const MAX_CATCHUP_ANNULS: u32 = 4;

/// Steps an ISA-level [`RefCore`] commit-for-commit against the
/// cycle-level pipeline and reports the first architectural
/// disagreement.
#[derive(Clone, Debug)]
pub struct LockstepChecker {
    golden: RefCore,
    mem: RefMem,
    window: usize,
    /// The last `window` commits as `(dut, golden)` pairs: a ring that
    /// grows to `window` entries, then is overwritten in place.
    recent: Vec<(LockstepCommit, LockstepCommit)>,
    /// Slot of the oldest entry once `recent` is full (the next one to
    /// overwrite); 0 while it grows.
    head: usize,
    commits_checked: u64,
}

impl LockstepChecker {
    /// Ring depth of the per-model recent-commit logs in a
    /// [`DivergenceReport`].
    pub const DEFAULT_WINDOW: usize = 16;

    /// Builds a checker synchronized to the core's current
    /// architectural state, with a private copy of `mem` for the golden
    /// model. `window` bounds the recent-commit rings (clamped to ≥ 1).
    pub fn new(core: &Core, mem: &MainMemory, window: usize) -> LockstepChecker {
        let mut regs = [0u32; NUM_REGS];
        for r in Reg::all() {
            regs[r.index()] = core.reg(r);
        }
        LockstepChecker {
            golden: RefCore::synced(regs, core.icc(), core.pc(), core.npc(), core.annul_pending()),
            mem: RefMem(mem.clone()),
            window: window.max(1),
            recent: Vec::new(),
            head: 0,
            commits_checked: 0,
        }
    }

    /// Commits compared so far without divergence.
    pub fn commits_checked(&self) -> u64 {
        self.commits_checked
    }

    /// Reconciliation hook for platform-defined register writes the ISA
    /// does not model: the BFIFO return value a `WaitForAck` forward
    /// writes into the destination register. The system mirrors that
    /// write into the golden model so the device-defined value does not
    /// read as a divergence.
    pub fn adopt_reg(&mut self, r: Reg, value: u32) {
        self.golden.set_reg(r, value);
    }

    fn push_recent(&mut self, dut: LockstepCommit, golden: LockstepCommit) {
        if self.recent.len() < self.window {
            self.recent.push((dut, golden));
        } else {
            self.recent[self.head] = (dut, golden);
            self.head += 1;
            if self.head == self.window {
                self.head = 0;
            }
        }
    }

    fn report(&self, pkt: &TracePacket, commit_index: u64, reason: String) -> DivergenceReport {
        let (newest, oldest) = self.recent.split_at(self.head);
        let oldest_first = || oldest.iter().chain(newest);
        DivergenceReport {
            commit_index,
            cycle: pkt.commit_cycle,
            reason,
            dut_pc: pkt.pc,
            golden_pc: self.golden.pc(),
            dut_inst_word: pkt.inst_word,
            golden_inst_word: 0,
            reg_mismatches: Vec::new(),
            icc_mismatch: None,
            dut_recent: oldest_first().map(|&(d, _)| d).collect(),
            golden_recent: oldest_first().map(|&(_, g)| g).collect(),
            flight: Vec::new(),
        }
    }

    /// Steps the golden model past the commit described by `pkt` and
    /// diffs architectural state against `core`.
    ///
    /// # Errors
    ///
    /// Returns the [`DivergenceReport`] for the first mismatch. The
    /// report's `flight` field is filled in by the system, which owns
    /// the trace sink.
    pub fn check_commit(
        &mut self,
        pkt: &TracePacket,
        core: &Core,
        commit_index: u64,
    ) -> Result<(), Box<DivergenceReport>> {
        let mut annuls = 0;
        let rc = loop {
            match self.golden.step(&mut self.mem) {
                RefStep::Committed(rc) => break rc,
                RefStep::Annulled => {
                    annuls += 1;
                    if annuls > MAX_CATCHUP_ANNULS {
                        return Err(Box::new(self.report(
                            pkt,
                            commit_index,
                            format!(
                                "golden model annulled {annuls} consecutive slots \
                                 without committing (models lost alignment)"
                            ),
                        )));
                    }
                }
                RefStep::Exited(e) => {
                    return Err(Box::new(self.report(
                        pkt,
                        commit_index,
                        format!("golden model exited ({e:?}) but the core committed"),
                    )));
                }
            }
        };
        let dut = LockstepCommit { index: commit_index, pc: pkt.pc, inst_word: pkt.inst_word };
        let golden = LockstepCommit { index: commit_index, pc: rc.pc, inst_word: rc.inst_word };
        self.push_recent(dut, golden);

        // `%g0` (slot 0) is excluded: it is not architectural state.
        if pkt.pc == rc.pc
            && pkt.inst_word == rc.inst_word
            && core.regs()[1..] == self.golden.regs()[1..]
            && core.icc() == self.golden.icc()
        {
            self.commits_checked += 1;
            return Ok(());
        }
        Err(Box::new(self.mismatch_report(pkt, golden, core)))
    }

    /// The report for a commit whose state differs from the golden
    /// model's (the slow path of [`LockstepChecker::check_commit`]).
    #[cold]
    fn mismatch_report(
        &self,
        pkt: &TracePacket,
        golden: LockstepCommit,
        core: &Core,
    ) -> DivergenceReport {
        let mut reg_mismatches = Vec::new();
        for r in Reg::all() {
            let (d, g) = (core.reg(r), self.golden.reg(r));
            if d != g {
                reg_mismatches.push(RegMismatch { reg: r.index() as u8, dut: d, golden: g });
            }
        }
        let icc_mismatch = (core.icc() != self.golden.icc())
            .then(|| (core.icc().to_bits(), self.golden.icc().to_bits()));
        let reason = if pkt.pc != golden.pc {
            "program counters diverged".to_string()
        } else if pkt.inst_word != golden.inst_word {
            "instruction words diverged (text image differs)".to_string()
        } else if let Some(m) = reg_mismatches.first() {
            format!("register file diverged (first at r{})", m.reg)
        } else {
            "condition codes diverged".to_string()
        };
        let mut rep = self.report(pkt, golden.index, reason);
        rep.golden_inst_word = golden.inst_word;
        rep.reg_mismatches = reg_mismatches;
        rep.icc_mismatch = icc_mismatch;
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_asm::assemble;
    use flexcore_isa::interp::ByteMap;
    use flexcore_mem::SystemBus;
    use flexcore_pipeline::{CoreConfig, StepResult};
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum MemOp {
        Read { bytes: u32, addr: u32 },
        Write { bytes: u32, addr: u32, value: u32 },
    }

    /// Addresses where `RefMem`'s one-page word path hands over to the
    /// byte path.
    fn addr() -> impl Strategy<Value = u32> {
        prop_oneof![
            // The last bytes of one of a few pages: 0x...ffd on straddles.
            4 => (0u32..4, 0xff8u32..0x1000).prop_map(|(page, off)| page << 12 | off),
            // Just below a 4-MB leaf boundary: straddles two leaves.
            2 => (1u32..3, 0u32..8).prop_map(|(region, back)| (region << 22) - back),
            // The top of the address space: wraps around to 0.
            2 => 0xffff_fffcu32..=0xffff_ffff,
            1 => any::<u32>(),
        ]
    }

    fn mem_op() -> impl Strategy<Value = MemOp> {
        // Reads also visit a page no write draws from (never resident).
        let read_addr =
            prop_oneof![4 => addr(), 1 => (0u32..0x1000).prop_map(|off| 0x40_7000 | off)];
        let bytes = || prop::sample::select(vec![1, 2, 4]);
        prop_oneof![
            (bytes(), read_addr).prop_map(|(bytes, addr)| MemOp::Read { bytes, addr }),
            (bytes(), addr(), any::<u32>()).prop_map(|(bytes, addr, value)| MemOp::Write {
                bytes,
                addr,
                value
            }),
        ]
    }

    fn read<M: Memory32>(m: &M, bytes: u32, addr: u32) -> u32 {
        match bytes {
            1 => u32::from(m.read_u8(addr)),
            2 => u32::from(m.read_u16(addr)),
            _ => m.read_u32(addr),
        }
    }

    fn write<M: Memory32>(m: &mut M, bytes: u32, addr: u32, value: u32) {
        match bytes {
            1 => m.write_u8(addr, value as u8),
            2 => m.write_u16(addr, value as u16),
            _ => m.write_u32(addr, value),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `RefMem`'s own big-endian word path agrees with the
        /// reference byte map, across page, leaf and wrap boundaries.
        #[test]
        fn ref_mem_matches_byte_map(ops in prop::collection::vec(mem_op(), 1..80)) {
            let (mut mem, mut reference) = (RefMem(MainMemory::new()), ByteMap::default());
            for op in ops {
                match op {
                    MemOp::Read { bytes, addr } => {
                        prop_assert_eq!(read(&mem, bytes, addr), read(&reference, bytes, addr), "{:?}", op);
                    }
                    MemOp::Write { bytes, addr, value } => {
                        write(&mut mem, bytes, addr, value);
                        write(&mut reference, bytes, addr, value);
                    }
                }
            }
        }
    }

    fn run_lockstep(src: &str) -> (Core, LockstepChecker) {
        let program = assemble(src).expect("assembles");
        let mut mem = MainMemory::new();
        let mut bus = SystemBus::default();
        let mut core = Core::new(CoreConfig::leon3());
        core.load_program(&program, &mut mem);
        let mut ck = LockstepChecker::new(&core, &mem, 8);
        let mut commits = 0;
        loop {
            match core.step(&mut mem, &mut bus) {
                StepResult::Committed(pkt) => {
                    commits += 1;
                    ck.check_commit(&pkt, &core, commits).expect("no divergence");
                }
                StepResult::Annulled => {}
                StepResult::Exited(_) => break,
            }
        }
        (core, ck)
    }

    #[test]
    fn clean_run_never_diverges() {
        let (_, ck) = run_lockstep(
            "start:  mov 10, %o0
                     mov 0, %o1
             loop:   add %o1, %o0, %o1
                     subcc %o0, 1, %o0
                     bne loop
                     nop
                     ta 0",
        );
        assert!(ck.commits_checked() >= 32);
    }

    #[test]
    fn loads_and_stores_stay_in_sync() {
        let (_, ck) = run_lockstep(
            "start:  set 0x8000, %o0
                     mov 7, %o1
                     st %o1, [%o0]
                     ld [%o0], %o2
                     stb %o1, [%o0 + 9]
                     ldsb [%o0 + 9], %o3
                     ta 0",
        );
        assert!(ck.commits_checked() >= 7);
    }

    #[test]
    fn corrupted_register_is_detected_at_that_commit() {
        let program = assemble(
            "start:  mov 1, %o0
                     add %o0, 2, %o1
                     add %o1, 3, %o2
                     ta 0",
        )
        .expect("assembles");
        let mut mem = MainMemory::new();
        let mut bus = SystemBus::default();
        let mut core = Core::new(CoreConfig::leon3());
        core.load_program(&program, &mut mem);
        let mut ck = LockstepChecker::new(&core, &mem, 8);
        let mut commits = 0;
        let mut diverged = None;
        loop {
            match core.step(&mut mem, &mut bus) {
                StepResult::Committed(pkt) => {
                    commits += 1;
                    if commits == 2 {
                        // A soft error lands in %o1 right at commit.
                        let v = core.reg(Reg::O1);
                        core.set_reg(Reg::O1, v ^ 0x10);
                    }
                    if let Err(rep) = ck.check_commit(&pkt, &core, commits) {
                        diverged = Some(rep);
                        break;
                    }
                }
                StepResult::Annulled => {}
                StepResult::Exited(_) => break,
            }
        }
        let rep = diverged.expect("divergence detected");
        assert_eq!(rep.commit_index, 2);
        assert_eq!(rep.reg_mismatches.len(), 1);
        assert_eq!(rep.reg_mismatches[0].reg, Reg::O1.index() as u8);
        assert_eq!(rep.reg_mismatches[0].dut ^ rep.reg_mismatches[0].golden, 0x10);
        assert_eq!(rep.dut_recent.len(), 2, "divergent commit is in the ring");
        assert!(rep.to_string().contains("register file diverged"));
    }
}
