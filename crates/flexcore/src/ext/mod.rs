//! Monitoring and bookkeeping extensions (the paper's §II/§IV).
//!
//! Each extension implements [`Extension`]: a functional model that
//! processes forwarded [`TracePacket`]s against the meta-data
//! subsystem, a CFGR forwarding configuration, a Table I descriptor,
//! and a gate-level netlist from which both the FPGA and ASIC costs of
//! Table III are derived.

pub mod bc;
pub mod cfi;
pub mod dift;
pub mod mprot;
pub mod nop;
pub mod sec;
pub mod umc;

pub use bc::Bc;
pub use cfi::{Cfi, CfiTable};
pub use dift::Dift;
pub use mprot::Mprot;
pub use nop::Nop;
pub use sec::Sec;
pub use umc::Umc;

use std::fmt;

use flexcore_fabric::Netlist;
use flexcore_mem::{BusMaster, MainMemory, MetaDataCache, SystemBus};
use flexcore_pipeline::TracePacket;

use crate::interface::Cfgr;
use crate::ShadowRegFile;

/// Base address of the meta-data region in physical memory. Meta-data
/// shares the lower memory hierarchy with program data but lives in a
/// disjoint region managed by the OS (§III.F).
pub const META_BASE: u32 = 0x4000_0000;

/// An exception raised by a monitoring extension (the TRAP signal).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MonitorTrap {
    /// PC of the instruction that failed the check.
    pub pc: u32,
    /// Human-readable description of the violation.
    pub reason: String,
}

serde::codec_object!(MonitorTrap { "pc": pc via serde::hex32, "reason": reason });

impl fmt::Display for MonitorTrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "monitor trap at {:#010x}: {}", self.pc, self.reason)
    }
}

impl std::error::Error for MonitorTrap {}

/// One row of the paper's Table I: what an extension keeps and does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExtensionDescriptor {
    /// Short name (UMC/DIFT/BC/SEC).
    pub abbrev: &'static str,
    /// Full name.
    pub name: &'static str,
    /// Meta-data the extension maintains.
    pub meta_data: &'static [&'static str],
    /// Operations performed transparently on forwarded instructions.
    pub transparent_ops: &'static [&'static str],
    /// Software-visible operations (explicit instructions and
    /// exceptions).
    pub sw_visible_ops: &'static [&'static str],
}

/// The meta-data environment an extension operates in while processing
/// one packet: the meta-data cache, the shared bus, the shadow register
/// file, and the clock.
///
/// The environment tracks when the slowest meta-data access completes
/// ([`ExtEnv::ready_at`]) so the system can model the fabric pipeline
/// blocking on misses.
pub struct ExtEnv<'a> {
    meta: &'a mut MetaDataCache,
    mem: &'a mut MainMemory,
    bus: &'a mut SystemBus,
    /// The shadow meta-data register file.
    pub shadow: &'a mut ShadowRegFile,
    now: u64,
    ready_at: u64,
    /// Core cycles per fabric cycle (the meta cache is in the fabric
    /// clock domain; each access occupies one of its cycles).
    period: u64,
    /// When set, the cache has no bit write-enable mask and every
    /// masked write costs an explicit read-modify-write (ablation).
    rmw_writes: bool,
    meta_reads: u64,
    meta_writes: u64,
}

impl<'a> ExtEnv<'a> {
    /// Creates an environment for processing one packet starting at
    /// core-clock cycle `now`, with the fabric clocked every `period`
    /// core cycles.
    pub fn new(
        meta: &'a mut MetaDataCache,
        mem: &'a mut MainMemory,
        bus: &'a mut SystemBus,
        shadow: &'a mut ShadowRegFile,
        now: u64,
    ) -> ExtEnv<'a> {
        ExtEnv::with_period(meta, mem, bus, shadow, now, 1)
    }

    /// Like [`ExtEnv::new`] with an explicit fabric clock period.
    pub fn with_period(
        meta: &'a mut MetaDataCache,
        mem: &'a mut MainMemory,
        bus: &'a mut SystemBus,
        shadow: &'a mut ShadowRegFile,
        now: u64,
        period: u64,
    ) -> ExtEnv<'a> {
        ExtEnv {
            meta,
            mem,
            bus,
            shadow,
            now,
            ready_at: now,
            period: period.max(1),
            rmw_writes: false,
            meta_reads: 0,
            meta_writes: 0,
        }
    }

    /// Disables the bit-granular write mask (ablation): every
    /// [`write_meta`](ExtEnv::write_meta) pays an explicit read before
    /// the write, as the paper says a cache without the mask would
    /// (§III.D).
    pub fn force_read_modify_write(&mut self) {
        self.rmw_writes = true;
    }

    /// Charges one additional fabric cycle (used by the system when the
    /// fabric must decode instructions itself — the
    /// `decode_on_core = false` ablation).
    pub fn charge_fabric_cycle(&mut self) {
        self.ready_at += self.period;
    }

    /// Reads the aligned meta-data word containing `addr` through the
    /// meta-data cache. The single-ported cache costs one fabric cycle
    /// per access even on a hit; misses additionally go over the shared
    /// bus. Both extend [`ready_at`](ExtEnv::ready_at).
    pub fn read_meta(&mut self, addr: u32) -> u32 {
        let r = self.meta.read_word(addr, self.mem, self.bus, BusMaster::Fabric, self.ready_at);
        self.ready_at = (self.ready_at + self.period).max(r.ready_at);
        self.meta_reads += 1;
        r.value
    }

    /// Writes `data` under `bitmask` into the aligned meta-data word
    /// containing `addr` (the paper's bit-granular write enable). Costs
    /// one fabric cycle plus any miss handling — or a read-modify-write
    /// pair when the mask hardware is ablated away.
    pub fn write_meta(&mut self, addr: u32, data: u32, bitmask: u32) {
        if self.rmw_writes && bitmask != u32::MAX {
            // No write-enable mask in hardware: read the word first.
            let r = self.meta.read_word(addr, self.mem, self.bus, BusMaster::Fabric, self.ready_at);
            self.ready_at = (self.ready_at + self.period).max(r.ready_at);
            self.meta_reads += 1;
        }
        let w = self.meta.write_masked(
            addr,
            data,
            bitmask,
            self.mem,
            self.bus,
            BusMaster::Fabric,
            self.ready_at,
        );
        self.ready_at = (self.ready_at + self.period).max(w.ready_at);
        self.meta_writes += 1;
    }

    /// Core-clock cycle at which processing began.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Core-clock cycle at which the slowest meta-data access so far
    /// completes.
    pub fn ready_at(&self) -> u64 {
        self.ready_at
    }

    /// Meta-data accesses issued while processing this packet.
    pub fn meta_ops(&self) -> (u64, u64) {
        (self.meta_reads, self.meta_writes)
    }
}

/// A run-time monitoring / bookkeeping extension.
///
/// The trait captures the co-processing model of §II: meta-data,
/// transparent per-instruction operations, and software-visible
/// operations (`cpop` instructions and the trap).
///
/// An extension sees only the packets the system forwards to it. The
/// system alone decides which commits those are: the CFGR filter,
/// elision, and degraded mode (recovery rung 3), in which the system
/// stops forwarding and the extension is not told.
pub trait Extension {
    /// Short name (used in reports).
    fn name(&self) -> &'static str;

    /// The Table I row for this extension.
    fn descriptor(&self) -> ExtensionDescriptor;

    /// The forwarding configuration this extension programs into the
    /// CFGR.
    fn cfgr(&self) -> Cfgr;

    /// Pipeline depth of the extension on the fabric (the paper's
    /// prototypes are "moderately pipelined (3 to 6 stages)"). Affects
    /// trap latency, not throughput.
    fn pipeline_stages(&self) -> u32 {
        3
    }

    /// Processes one forwarded packet.
    ///
    /// Returns `Ok(Some(value))` when the packet was a "read from
    /// co-processor" instruction and `value` should travel back through
    /// the BFIFO into the instruction's destination register.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorTrap`] when a check fails; the system raises
    /// the TRAP signal and terminates the program (the paper's
    /// prototypes all terminate on a failed check).
    fn process(
        &mut self,
        pkt: &TracePacket,
        env: &mut ExtEnv<'_>,
    ) -> Result<Option<u32>, MonitorTrap>;

    /// Hook invoked when a program image is loaded, so extensions can
    /// initialize meta-data for statically-initialized memory (e.g.
    /// UMC marks the image as written). Default: nothing.
    fn on_program_load(&mut self, _base: u32, _len: u32, _env: &mut ExtEnv<'_>) {}

    /// The extension's mutable run-time state as a flat word vector,
    /// for checkpointing. Meta-data lives in the meta-data cache and
    /// shadow register file (captured separately by
    /// [`System::snapshot`](crate::System::snapshot)); this hook covers
    /// only state held inside the extension itself — counters, policy
    /// registers, and the like. Configuration fixed at construction
    /// (granularities, netlists) must not be included. Default: empty.
    fn snapshot_state(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Whether `state` is one [`restore_state`](Extension::restore_state)
    /// can take. [`System::restore`](crate::System::restore) asks before
    /// it changes anything and refuses the snapshot on `Err`. Default:
    /// the length its own `snapshot_state` returns; an extension whose
    /// words have a narrower range checks that too.
    fn check_state(&self, state: &[u64]) -> Result<(), String> {
        check_state_len(self, state)
    }

    /// Restores state captured by
    /// [`snapshot_state`](Extension::snapshot_state). Called on an
    /// extension constructed the same way as the one snapshotted, with
    /// a vector [`check_state`](Extension::check_state) accepted.
    /// Default: nothing.
    fn restore_state(&mut self, _state: &[u64]) {}

    /// Which [`ElisionTable`](crate::ElisionTable) bit covers this
    /// extension's checks (`ELIDE_UMC`, `ELIDE_DIFT`, `ELIDE_CFI`, …).
    /// `0` — the default — means no static analysis targets this
    /// extension and nothing is ever elided for it.
    fn elision_class(&self) -> u8 {
        0
    }

    /// Whether skipping this packet entirely (never enqueueing it) is
    /// guaranteed to leave the extension's observable behavior —
    /// trap verdicts, meta-data, shadow tags, returned BFIFO values —
    /// bit-identical. Called only for PCs the elision table marks;
    /// extensions re-validate per packet so a stale table costs
    /// performance, never soundness. Default: `false` (never elide).
    fn check_elidable(&self, _pkt: &TracePacket) -> bool {
        false
    }

    /// The extension's datapath as a gate-level netlist, used by the
    /// Table III cost models (FPGA LUT mapping and ASIC synthesis).
    fn netlist(&self) -> Netlist;

    /// Maps one forwarded packet onto the netlist's primary inputs —
    /// one stimulus vector per fabric cycle for waveform (VCD) dumps.
    ///
    /// The default packs the raw Table II FIFO entry bits across the
    /// inputs (truncating or zero-padding); extensions override it to
    /// drive their actual input layout. Fields a real datapath would
    /// read from the meta-data cache or shadow register file (not from
    /// the FIFO entry) are driven to zero.
    fn vcd_stimulus(&self, pkt: &TracePacket) -> Vec<bool> {
        let n = self.netlist().inputs().len();
        let words = pkt.pack();
        (0..n)
            .map(|i| {
                let bits = TracePacket::WIDTH_BITS as usize;
                if i < bits {
                    words[i / 32] >> (i % 32) & 1 == 1
                } else {
                    false
                }
            })
            .collect()
    }
}

/// Boxed extensions forward every hook to the boxed value, so a
/// `System<Box<dyn Extension>>` can hold *any* extension — the shape
/// mid-run hot swaps between different extension types require (a
/// concrete `System<E>` can only swap to another `E`).
impl<T: Extension + ?Sized> Extension for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn descriptor(&self) -> ExtensionDescriptor {
        (**self).descriptor()
    }
    fn cfgr(&self) -> Cfgr {
        (**self).cfgr()
    }
    fn pipeline_stages(&self) -> u32 {
        (**self).pipeline_stages()
    }
    fn process(
        &mut self,
        pkt: &TracePacket,
        env: &mut ExtEnv<'_>,
    ) -> Result<Option<u32>, MonitorTrap> {
        (**self).process(pkt, env)
    }
    fn on_program_load(&mut self, base: u32, len: u32, env: &mut ExtEnv<'_>) {
        (**self).on_program_load(base, len, env)
    }
    fn snapshot_state(&self) -> Vec<u64> {
        (**self).snapshot_state()
    }
    fn check_state(&self, state: &[u64]) -> Result<(), String> {
        (**self).check_state(state)
    }
    fn restore_state(&mut self, state: &[u64]) {
        (**self).restore_state(state)
    }
    fn elision_class(&self) -> u8 {
        (**self).elision_class()
    }
    fn check_elidable(&self, pkt: &TracePacket) -> bool {
        (**self).check_elidable(pkt)
    }
    fn netlist(&self) -> Netlist {
        (**self).netlist()
    }
    fn vcd_stimulus(&self, pkt: &TracePacket) -> Vec<bool> {
        (**self).vcd_stimulus(pkt)
    }
}

/// The default [`Extension::check_state`]: `state` has as many words as
/// `ext` keeps.
pub(crate) fn check_state_len<E: Extension + ?Sized>(ext: &E, state: &[u64]) -> Result<(), String> {
    let words = ext.snapshot_state().len();
    if state.len() != words {
        return Err(format!(
            "snapshot has {} words of `{}` state, the extension keeps {words}",
            state.len(),
            ext.name()
        ));
    }
    Ok(())
}

/// Pushes the low `n` bits of `v`, LSB first (the bit order of
/// [`NetlistBuilder::input_bus`](flexcore_fabric::NetlistBuilder::input_bus)),
/// onto a stimulus vector.
pub(crate) fn push_bits(out: &mut Vec<bool>, v: u32, n: usize) {
    for i in 0..n {
        out.push(v >> i & 1 == 1);
    }
}

/// Addresses of the words from `start & !3` up to, not including,
/// `start + len`: the words a software range operation over
/// `[start, start + len)` tags. An empty range (`len == 0`) tags no
/// word, wherever it starts. A range that runs past `0xffff_ffff` is
/// clipped at the top of the address space instead of wrapping.
pub(crate) fn range_words(start: u32, len: u32) -> impl Iterator<Item = u32> {
    let end = if len == 0 { 0 } else { (u64::from(start) + u64::from(len)).min(1 << 32) };
    (u64::from(start & !3)..end).step_by(4).map(|a| a as u32)
}

/// Meta-data address of the 1-bit-per-word tag for the data word at
/// `addr` (UMC and DIFT): word `w = addr >> 2` maps to bit `w & 31` of
/// the meta word at `META_BASE + (w >> 5) * 4`.
pub fn bit_tag_location(addr: u32) -> (u32, u32) {
    let w = addr >> 2;
    (META_BASE + ((w >> 5) << 2), w & 31)
}

/// `(meta word, mask)` of the 1-bit word tags that an access of `bytes`
/// bytes at `addr` covers (UMC and DIFT). A doubleword access covers
/// two word tags; its 8-byte alignment keeps both bits in one meta
/// word.
pub(crate) fn word_tag_mask(addr: u32, bytes: u32) -> (u32, u32) {
    let (meta_addr, bit) = bit_tag_location(addr);
    let words = bytes.div_ceil(4);
    (meta_addr, (((1u64 << words) - 1) as u32) << bit)
}

/// Meta-data address of the 2-bit-per-word tag for the data word at
/// `addr` (MPROT): word `w = addr >> 2` maps to bits
/// `2*(w & 15)..2*(w & 15)+2` of the meta word at
/// `META_BASE + (w >> 4) * 4`.
pub fn two_bit_tag_location(addr: u32) -> (u32, u32) {
    let w = addr >> 2;
    (META_BASE + ((w >> 4) << 2), (w & 15) * 2)
}

/// Meta-data address of the 8-bit-per-word tag for the data word at
/// `addr` (BC): word `w` maps to the byte at `META_BASE + w`, i.e. lane
/// `w & 3` of the meta word at `META_BASE + (w & !3)`. Returns the
/// aligned meta word address and the big-endian byte shift.
pub fn byte_tag_location(addr: u32) -> (u32, u32) {
    let w = addr >> 2;
    let byte_addr = META_BASE + w;
    let lane = byte_addr & 3;
    (byte_addr & !3, (3 - lane) * 8)
}

#[cfg(test)]
pub(crate) mod tests_util {
    //! Shared helpers for extension unit tests: build environments and
    //! synthetic trace packets without running the whole system.

    use flexcore_isa::{IccFlags, InstrClass, Instruction, Opcode, Operand2, Reg};
    use flexcore_mem::{CacheConfig, MainMemory, MetaDataCache, SystemBus};
    use flexcore_pipeline::TracePacket;

    use crate::ShadowRegFile;

    pub fn env_parts() -> (MetaDataCache, MainMemory, SystemBus, ShadowRegFile) {
        (
            MetaDataCache::new(CacheConfig::meta_default()),
            MainMemory::new(),
            SystemBus::default(),
            ShadowRegFile::new(),
        )
    }

    pub fn packet(inst: Instruction) -> TracePacket {
        let (src1, src2) = inst.source_regs();
        TracePacket {
            pc: 0x1000,
            inst_word: flexcore_isa::encode(&inst),
            inst,
            class: InstrClass::of(&inst),
            addr: 0,
            result: 0,
            srcv1: 0,
            srcv2: 0,
            store_value: 0,
            cond: IccFlags::default(),
            branch_taken: false,
            src1,
            src2,
            dest: inst.dest_reg(),
            commit_cycle: 0,
        }
    }

    /// A load/store packet at `addr` (data register `%o1`, base `%o0`).
    pub fn mem_packet(op: Opcode, addr: u32) -> TracePacket {
        let inst = Instruction::mem(op, Reg::O1, Reg::O0, Operand2::Imm(0));
        let mut p = packet(inst);
        p.addr = addr;
        p.srcv1 = addr;
        p
    }

    /// An ALU packet `op rs1, rs2, rd` with the given result.
    pub fn alu_packet(
        op: Opcode,
        rs1: Reg,
        rs2: Reg,
        rd: Reg,
        a: u32,
        b: u32,
        result: u32,
    ) -> TracePacket {
        let inst = Instruction::Alu { op, rd, rs1, op2: Operand2::Reg(rs2) };
        let mut p = packet(inst);
        p.srcv1 = a;
        p.srcv2 = b;
        p.result = result;
        p
    }

    /// A `cpop` packet with source values `a`/`b` (register operands
    /// `%o0`/`%o1`, destination `%o2`).
    pub fn packet_with_cpop(space: u8, opc: u16, a: u32, b: u32) -> TracePacket {
        let inst = Instruction::Cpop { space, opc, rd: Reg::O2, rs1: Reg::O0, rs2: Reg::O1 };
        let mut p = packet(inst);
        p.srcv1 = a;
        p.srcv2 = b;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_mem::CacheConfig;

    #[test]
    fn bit_tag_layout_is_dense_and_disjoint() {
        // 32 consecutive data words share one meta word, one bit each.
        let (m0, b0) = bit_tag_location(0);
        assert_eq!((m0, b0), (META_BASE, 0));
        let (m1, b1) = bit_tag_location(4);
        assert_eq!((m1, b1), (META_BASE, 1));
        let (m32, b32) = bit_tag_location(32 * 4);
        assert_eq!((m32, b32), (META_BASE + 4, 0));
        // Distinct words within a meta word get distinct bits.
        let mut seen = std::collections::HashSet::new();
        for w in 0..32u32 {
            let (m, b) = bit_tag_location(w * 4);
            assert_eq!(m, META_BASE);
            assert!(seen.insert(b));
        }
    }

    #[test]
    fn byte_tag_layout_packs_four_per_word() {
        let (m0, s0) = byte_tag_location(0);
        assert_eq!((m0, s0), (META_BASE, 24), "lane 0 is the BE MSB");
        let (m1, s1) = byte_tag_location(4);
        assert_eq!((m1, s1), (META_BASE, 16));
        let (m3, s3) = byte_tag_location(12);
        assert_eq!((m3, s3), (META_BASE, 0));
        let (m4, s4) = byte_tag_location(16);
        assert_eq!((m4, s4), (META_BASE + 4, 24));
    }

    #[test]
    fn env_tracks_ready_time_and_op_counts() {
        let mut meta = MetaDataCache::new(CacheConfig::meta_default());
        let mut mem = MainMemory::new();
        let mut bus = SystemBus::default();
        let mut shadow = ShadowRegFile::new();
        let mut env = ExtEnv::with_period(&mut meta, &mut mem, &mut bus, &mut shadow, 100, 2);
        assert_eq!(env.ready_at(), 100);
        env.write_meta(META_BASE, 1, 1); // cold miss -> bus refill
        assert!(env.ready_at() > 102);
        let after_write = env.ready_at();
        let v = env.read_meta(META_BASE); // hit: one fabric cycle
        assert_eq!(v, 1);
        assert_eq!(env.ready_at(), after_write + 2);
        assert_eq!(env.meta_ops(), (1, 1));
    }

    #[test]
    fn trap_display_mentions_pc_and_reason() {
        let t = MonitorTrap { pc: 0x1040, reason: "tag check failed".into() };
        assert_eq!(t.to_string(), "monitor trap at 0x00001040: tag check failed");
    }
}
