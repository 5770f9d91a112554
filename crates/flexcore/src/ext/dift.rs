//! Dynamic Information Flow Tracking (DIFT).

use flexcore_fabric::{MacroBlock, Netlist, NetlistBuilder};
use flexcore_isa::{InstrClass, Instruction};
use flexcore_pipeline::TracePacket;

use crate::ext::{
    bit_tag_location, ExtEnv, Extension, ExtensionDescriptor, MonitorTrap, META_BASE,
};
use crate::interface::{Cfgr, ForwardPolicy};

/// Software-visible `cpop1` sub-opcodes for DIFT.
pub mod ops {
    /// Taint the memory range `[rs1, rs1 + rs2)` (values arriving from
    /// untrusted I/O).
    pub const TAINT_RANGE: u16 = 0;
    /// Clear taint over `[rs1, rs1 + rs2)` (declassification).
    pub const CLEAR_RANGE: u16 = 1;
    /// Read the taint tag of the word at `rs1` into the destination
    /// register.
    pub const READ_TAG: u16 = 2;
    /// Set the policy register to `rs1` (bit 0: check indirect jumps;
    /// bit 1: also check load/store addresses).
    pub const SET_POLICY: u16 = 3;
    /// Set the taint tag of the register numbered `rs1` to `rs2 & 1`.
    pub const SET_REG_TAG: u16 = 4;
}

/// Policy register bit: trap on tainted indirect-jump targets.
pub const POLICY_CHECK_JUMPS: u32 = 1;
/// Policy register bit: trap on tainted load/store addresses.
pub const POLICY_CHECK_ADDRESSES: u32 = 2;

/// Memory-tag granularity (the paper's footnote 2: "DIFT
/// implementations may use multiple bits per tag, or have a tag per
/// each byte in memory. However, the basic operations are identical").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TagGranularity {
    /// One taint bit per 32-bit word (the paper's prototype — "enough
    /// to detect attacks").
    #[default]
    PerWord,
    /// One taint bit per byte: more meta-data traffic, no false taint
    /// from sub-word stores sharing a word with clean data.
    PerByte,
}

/// Dynamic Information Flow Tracking: a 1-bit taint tag per register
/// and per memory word (or byte; see [`TagGranularity`]); tags
/// propagate on ALU/load/store and are checked on security-critical
/// operations (§IV.B).
#[derive(Clone, Debug)]
pub struct Dift {
    policy: u32,
    granularity: TagGranularity,
    checks: u64,
}

impl Dift {
    /// Creates the extension with the default policy (check indirect
    /// jumps) and per-word tags, as in the paper's prototype.
    pub fn new() -> Dift {
        Dift { policy: POLICY_CHECK_JUMPS, granularity: TagGranularity::PerWord, checks: 0 }
    }

    /// Creates the byte-granular variant of footnote 2.
    pub fn per_byte() -> Dift {
        Dift { granularity: TagGranularity::PerByte, ..Dift::new() }
    }

    /// Current policy register value.
    pub fn policy(&self) -> u32 {
        self.policy
    }

    /// Configured memory-tag granularity.
    pub fn granularity(&self) -> TagGranularity {
        self.granularity
    }

    fn monitored(addr: u32) -> bool {
        addr < META_BASE
    }

    /// Meta word address and bit for one *byte*: 1 bit per byte packs
    /// 32 bytes per meta word.
    fn byte_bit_location(addr: u32) -> (u32, u32) {
        (META_BASE + ((addr >> 5) << 2), addr & 31)
    }

    /// Reads the taint of an access of `bytes` bytes at `addr` (OR over
    /// the covered granules).
    fn mem_tag(&self, env: &mut ExtEnv<'_>, addr: u32, bytes: u32) -> u32 {
        match self.granularity {
            TagGranularity::PerWord => {
                let (meta_addr, bit) = bit_tag_location(addr);
                // Doubleword accesses cover two word tags (8-byte
                // alignment keeps both in one meta word).
                let words = bytes.div_ceil(4);
                let mask = (((1u64 << words) - 1) as u32) << bit;
                u32::from(env.read_meta(meta_addr) & mask != 0)
            }
            TagGranularity::PerByte => {
                // All bytes of one access share a meta word (accesses
                // are aligned and <= 4 bytes; 32 byte-tags per word).
                let (meta_addr, bit) = Dift::byte_bit_location(addr);
                let word = env.read_meta(meta_addr);
                let mask = ((1u64 << bytes) - 1) as u32;
                u32::from((word >> bit) & mask != 0)
            }
        }
    }

    /// Writes the taint for an access of `bytes` bytes at `addr`.
    fn set_mem_tag(&self, env: &mut ExtEnv<'_>, addr: u32, bytes: u32, tag: u32) {
        match self.granularity {
            TagGranularity::PerWord => {
                let (meta_addr, bit) = bit_tag_location(addr);
                let words = bytes.div_ceil(4);
                let mask = (((1u64 << words) - 1) as u32) << bit;
                env.write_meta(meta_addr, if tag != 0 { mask } else { 0 }, mask);
            }
            TagGranularity::PerByte => {
                let (meta_addr, bit) = Dift::byte_bit_location(addr);
                let mask = (((1u64 << bytes) - 1) as u32) << bit;
                env.write_meta(meta_addr, if tag != 0 { mask } else { 0 }, mask);
            }
        }
    }

    fn set_range(&self, env: &mut ExtEnv<'_>, start: u32, len: u32, value: bool) {
        match self.granularity {
            TagGranularity::PerWord => {
                let mut a = start & !3;
                while a < start + len {
                    self.set_mem_tag(env, a, 4, u32::from(value));
                    a += 4;
                }
            }
            TagGranularity::PerByte => {
                let mut a = start;
                while a < start + len {
                    // One meta word covers 32 bytes; batch.
                    let span = (32 - (a & 31)).min(start + len - a);
                    let (meta_addr, bit) = Dift::byte_bit_location(a);
                    let mask =
                        if span >= 32 { u32::MAX } else { (((1u64 << span) - 1) as u32) << bit };
                    env.write_meta(meta_addr, if value { mask } else { 0 }, mask);
                    a += span;
                }
            }
        }
    }
}

impl Default for Dift {
    fn default() -> Dift {
        Dift::new()
    }
}

impl Extension for Dift {
    fn name(&self) -> &'static str {
        "DIFT"
    }

    fn snapshot_state(&self) -> Vec<u64> {
        // The policy register is software-writable at run time (the
        // SET_POLICY cpop), so it is run-time state, not configuration.
        vec![u64::from(self.policy), self.checks]
    }

    fn restore_state(&mut self, state: &[u64]) {
        if let [policy, checks] = *state {
            self.policy = policy as u32;
            self.checks = checks;
        }
    }

    fn descriptor(&self) -> ExtensionDescriptor {
        ExtensionDescriptor {
            abbrev: "DIFT",
            name: "Dynamic Information Flow Tracking",
            meta_data: &["1-bit tag per register", "1-bit tag per word in memory"],
            transparent_ops: &[
                "Propagate tags on ALU/load/store",
                "Check tags on a control transfer",
            ],
            sw_visible_ops: &[
                "Set tags for values from I/O",
                "Clear tags on a declassification",
                "Set a security policy register",
                "Exception when a tag check fails",
            ],
        }
    }

    fn cfgr(&self) -> Cfgr {
        Cfgr::new()
            .with_classes(|c| c.is_mem() || c.is_alu(), ForwardPolicy::Always)
            .with_class(InstrClass::Sethi, ForwardPolicy::Always)
            .with_class(InstrClass::Save, ForwardPolicy::Always)
            .with_class(InstrClass::Restore, ForwardPolicy::Always)
            .with_class(InstrClass::Jmpl, ForwardPolicy::Always)
            .with_class(InstrClass::Call, ForwardPolicy::Always)
            .with_class(InstrClass::Cpop1, ForwardPolicy::WaitForAck)
    }

    fn pipeline_stages(&self) -> u32 {
        4
    }

    fn elision_class(&self) -> u8 {
        crate::elide::ELIDE_DIFT
    }

    fn check_elidable(&self, pkt: &TracePacket) -> bool {
        // The static taint verdicts are computed against the paper's
        // prototype configuration: per-word tags and the default
        // check-jumps policy. Any drift from that — a SET_POLICY cpop
        // ran, the byte-granular variant, a software-visible `cpop`
        // packet, or an atomic swap (whose tag exchange the static
        // analysis never marks) — forfeits elision for this packet.
        self.policy == POLICY_CHECK_JUMPS
            && self.granularity == TagGranularity::PerWord
            && pkt.class != InstrClass::Cpop1
            && pkt.class != InstrClass::Cpop2
            && pkt.class != InstrClass::Swap
    }

    fn process(
        &mut self,
        pkt: &TracePacket,
        env: &mut ExtEnv<'_>,
    ) -> Result<Option<u32>, MonitorTrap> {
        match pkt.inst {
            Instruction::Alu { rd, rs1, op2, .. } => {
                // Destination taint = OR of the source taints
                // (immediates are untainted).
                let t1 = env.shadow.tag(rs1) & 1;
                let t2 = op2.reg().map_or(0, |r| env.shadow.tag(r) & 1);
                env.shadow.set_tag(rd, t1 | t2);
                Ok(None)
            }
            Instruction::Sethi { rd, .. } => {
                // Immediate: clears the destination taint.
                env.shadow.set_tag(rd, 0);
                Ok(None)
            }
            Instruction::Call { .. } => {
                // The link register receives an untainted PC.
                env.shadow.set_tag(flexcore_isa::Reg::O7, 0);
                Ok(None)
            }
            Instruction::Jmpl { rd, rs1, .. } => {
                self.checks += 1;
                if self.policy & POLICY_CHECK_JUMPS != 0 && env.shadow.tag(rs1) & 1 != 0 {
                    return Err(MonitorTrap {
                        pc: pkt.pc,
                        reason: format!(
                            "tainted indirect jump through {} to {:#010x}",
                            rs1, pkt.addr
                        ),
                    });
                }
                env.shadow.set_tag(rd, 0);
                Ok(None)
            }
            Instruction::Mem { op, rd, rs1, op2 } => {
                if self.policy & POLICY_CHECK_ADDRESSES != 0 {
                    let at1 = env.shadow.tag(rs1) & 1;
                    let at2 = op2.reg().map_or(0, |r| env.shadow.tag(r) & 1);
                    if at1 | at2 != 0 {
                        return Err(MonitorTrap {
                            pc: pkt.pc,
                            reason: format!("tainted address {:#010x}", pkt.addr),
                        });
                    }
                }
                let bytes = op.access_bytes().expect("memory opcode");
                let pair = || flexcore_isa::Reg::new(rd.index() as u8 | 1).expect("pair register");
                if op == flexcore_isa::Opcode::Swap {
                    // Atomic exchange: tags swap along with the values.
                    if Dift::monitored(pkt.addr) {
                        let mem_t = self.mem_tag(env, pkt.addr, 4);
                        let reg_t = u32::from(env.shadow.tag(rd) & 1);
                        self.set_mem_tag(env, pkt.addr, 4, reg_t);
                        env.shadow.set_tag(rd, mem_t as u8);
                    } else {
                        env.shadow.set_tag(rd, 0);
                    }
                } else if op.is_load() {
                    let t = if Dift::monitored(pkt.addr) {
                        self.mem_tag(env, pkt.addr, bytes)
                    } else {
                        0
                    };
                    env.shadow.set_tag(rd, t as u8);
                    if op == flexcore_isa::Opcode::Ldd {
                        env.shadow.set_tag(pair(), t as u8);
                    }
                } else if Dift::monitored(pkt.addr) {
                    let mut t = u32::from(env.shadow.tag(rd) & 1);
                    if op == flexcore_isa::Opcode::Std {
                        t |= u32::from(env.shadow.tag(pair()) & 1);
                    }
                    self.set_mem_tag(env, pkt.addr, bytes, t);
                }
                Ok(None)
            }
            Instruction::Cpop { space: 1, opc, .. } => match opc {
                ops::TAINT_RANGE => {
                    self.set_range(env, pkt.srcv1, pkt.srcv2, true);
                    Ok(None)
                }
                ops::CLEAR_RANGE => {
                    self.set_range(env, pkt.srcv1, pkt.srcv2, false);
                    Ok(None)
                }
                ops::READ_TAG => Ok(Some(self.mem_tag(env, pkt.srcv1, 4))),
                ops::SET_POLICY => {
                    self.policy = pkt.srcv1;
                    Ok(None)
                }
                ops::SET_REG_TAG => {
                    if let Some(r) = flexcore_isa::Reg::new((pkt.srcv1 & 31) as u8) {
                        env.shadow.set_tag(r, (pkt.srcv2 & 1) as u8);
                    }
                    Ok(None)
                }
                _ => Ok(None),
            },
            _ => Ok(None),
        }
    }

    /// The DIFT datapath (§IV.B, Figure 3b): the UMC-style meta address
    /// path plus 1-bit tag propagation, the policy register, and the
    /// jump-check logic. The 1-bit-per-register tag file is the shadow
    /// register-file macro.
    fn vcd_stimulus(&self, pkt: &TracePacket) -> Vec<bool> {
        // Input order: addr[32], is_load, is_store, is_alu, is_jmpl,
        // tag_src1, tag_src2, imm_op, tag_word[32].
        let mut s = Vec::with_capacity(72);
        super::push_bits(&mut s, pkt.addr, 32);
        s.push(pkt.class.is_load());
        s.push(pkt.class.is_store());
        s.push(pkt.class.is_alu());
        s.push(pkt.class == InstrClass::Jmpl);
        s.push(false); // tag_src1 comes from the shadow register file
        s.push(false); // tag_src2 likewise
        s.push(pkt.src2.is_none()); // no source register 2 ⇒ immediate
        super::push_bits(&mut s, 0, 32); // tag_word comes from the meta cache
        s
    }

    fn netlist(&self) -> Netlist {
        let mut b = NetlistBuilder::new("dift");
        let addr = b.input_bus(32);
        let is_load = b.input();
        let is_store = b.input();
        let is_alu = b.input();
        let is_jmpl = b.input();
        let tag_src1 = b.input();
        let tag_src2 = b.input();
        let imm_op = b.input(); // operand 2 is an immediate
        let tag_word = b.input_bus(32);

        b.add_macro(MacroBlock::RegFile { entries: crate::ShadowRegFile::ENTRIES, width: 1 });

        // Stage 1 registers.
        let addr_r = b.register_bus(&addr);
        let ld_r = b.register(is_load);
        let st_r = b.register(is_store);
        let alu_r = b.register(is_alu);
        let jmp_r = b.register(is_jmpl);
        let t1_r = b.register(tag_src1);
        let t2_r = b.register(tag_src2);
        let imm_r = b.register(imm_op);

        // Meta address path (same structure as UMC).
        let base: Vec<_> = (0..32).map(|_| b.dff()).collect();
        let shifted: Vec<_> = (0..32)
            .map(|i| if (2..27).contains(&i) { addr_r[i + 5] } else { b.constant(false) })
            .collect();
        let (meta_addr, _) = b.add(&base, &shifted);
        let meta_addr_r = b.register_bus(&meta_addr);
        b.output_bus("meta_addr", &meta_addr_r);

        let sel: Vec<_> = (2..7).map(|i| addr_r[i]).collect();
        let onehot = b.decoder(&sel);
        let onehot_r = b.register_bus(&onehot);

        // Tag propagation: dest = t1 | (t2 & !imm) for ALU; memory tag
        // for loads.
        let n_imm = b.not(imm_r);
        let t2_eff = b.and(t2_r, n_imm);
        let alu_tag = b.or(t1_r, t2_eff);
        let selected = b.bitwise(&tag_word, &onehot_r, |s, x, y| s.and(x, y));
        let mem_tag = b.reduce_or(&selected);
        let dest_tag = b.mux(ld_r, alu_tag, mem_tag);
        let dest_tag_r = b.register(dest_tag);
        b.output("dest_tag", dest_tag_r);

        // Store path: propagate the data register's tag to memory.
        let wen: Vec<_> = onehot_r.iter().map(|&m| b.and(m, st_r)).collect();
        b.output_bus("wen", &wen);
        let wdata: Vec<_> = onehot_r.iter().map(|&m| b.and(m, t1_r)).collect();
        b.output_bus("wdata", &wdata);

        // Destination write-enable: ALU ops and loads update the
        // shadow register file.
        let dest_wen = b.or(alu_r, ld_r);
        let dest_wen_r = b.register(dest_wen);
        b.output("dest_wen", dest_wen_r);

        // Policy register and the jump check.
        let policy: Vec<_> = (0..8).map(|_| b.dff()).collect();
        let check_jumps = policy[0];
        let jmp_tagged = b.and(jmp_r, t1_r);
        let trap = b.and(jmp_tagged, check_jumps);
        let trap_r = b.register(trap);
        b.output("trap", trap_r);

        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::tests_util::{alu_packet, env_parts, mem_packet, packet, packet_with_cpop};
    use flexcore_isa::{Instruction, Opcode, Operand2, Reg};

    fn jmpl_packet(rs1: Reg) -> flexcore_pipeline::TracePacket {
        packet(Instruction::Jmpl { rd: Reg::G0, rs1, op2: Operand2::Imm(0) })
    }

    #[test]
    fn alu_taint_propagates_by_or() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        shadow.set_tag(Reg::O0, 1);
        let mut dift = Dift::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        dift.process(&alu_packet(Opcode::Add, Reg::O0, Reg::O1, Reg::O2, 1, 2, 3), &mut env)
            .unwrap();
        assert_eq!(env.shadow.tag(Reg::O2), 1, "taint flows to the destination");
        dift.process(&alu_packet(Opcode::Xor, Reg::O3, Reg::O4, Reg::O2, 0, 0, 0), &mut env)
            .unwrap();
        assert_eq!(env.shadow.tag(Reg::O2), 0, "clean sources scrub the destination");
    }

    #[test]
    fn taint_flows_through_memory() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        shadow.set_tag(Reg::O1, 1); // data register tainted
        let mut dift = Dift::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        dift.process(&mem_packet(Opcode::St, 0x2000), &mut env).unwrap();
        // Clean register, load it back: taint returns.
        env.shadow.set_tag(Reg::O1, 0);
        dift.process(&mem_packet(Opcode::Ld, 0x2000), &mut env).unwrap();
        assert_eq!(env.shadow.tag(Reg::O1), 1);
        // A different address is untainted.
        dift.process(&mem_packet(Opcode::Ld, 0x2004), &mut env).unwrap();
        assert_eq!(env.shadow.tag(Reg::O1), 0);
    }

    #[test]
    fn tainted_indirect_jump_traps() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        shadow.set_tag(Reg::O0, 1);
        let mut dift = Dift::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        let err = dift.process(&jmpl_packet(Reg::O0), &mut env).unwrap_err();
        assert!(err.reason.contains("tainted indirect jump"));
        assert!(dift.process(&jmpl_packet(Reg::O1), &mut env).is_ok());
    }

    #[test]
    fn policy_register_disables_and_extends_checks() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        shadow.set_tag(Reg::O0, 1);
        let mut dift = Dift::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        // Disable all checks: tainted jump passes.
        dift.process(&packet_with_cpop(1, ops::SET_POLICY, 0, 0), &mut env).unwrap();
        assert!(dift.process(&jmpl_packet(Reg::O0), &mut env).is_ok());
        // Enable address checks: a tainted base address traps.
        dift.process(&packet_with_cpop(1, ops::SET_POLICY, POLICY_CHECK_ADDRESSES, 0), &mut env)
            .unwrap();
        let err = dift.process(&mem_packet(Opcode::Ld, 0x2000), &mut env).unwrap_err();
        assert!(err.reason.contains("tainted address"));
    }

    #[test]
    fn sethi_and_call_clear_destination_taint() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        shadow.set_tag(Reg::G1, 1);
        shadow.set_tag(Reg::O7, 1);
        let mut dift = Dift::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        dift.process(&packet(Instruction::Sethi { rd: Reg::G1, imm22: 5 }), &mut env).unwrap();
        assert_eq!(env.shadow.tag(Reg::G1), 0);
        dift.process(&packet(Instruction::Call { disp30: 4 }), &mut env).unwrap();
        assert_eq!(env.shadow.tag(Reg::O7), 0);
    }

    #[test]
    fn taint_range_and_read_tag() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut dift = Dift::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        dift.process(&packet_with_cpop(1, ops::TAINT_RANGE, 0x3000, 16), &mut env).unwrap();
        let t = dift.process(&packet_with_cpop(1, ops::READ_TAG, 0x300c, 0), &mut env).unwrap();
        assert_eq!(t, Some(1));
        let t2 = dift.process(&packet_with_cpop(1, ops::READ_TAG, 0x3010, 0), &mut env).unwrap();
        assert_eq!(t2, Some(0));
        dift.process(&packet_with_cpop(1, ops::CLEAR_RANGE, 0x3000, 16), &mut env).unwrap();
        let t3 = dift.process(&packet_with_cpop(1, ops::READ_TAG, 0x300c, 0), &mut env).unwrap();
        assert_eq!(t3, Some(0));
    }

    #[test]
    fn set_reg_tag_marks_registers() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut dift = Dift::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        dift.process(&packet_with_cpop(1, ops::SET_REG_TAG, 9, 1), &mut env).unwrap();
        assert_eq!(env.shadow.tag(Reg::O1), 1);
    }

    #[test]
    fn per_word_tags_overtaint_subword_neighbours() {
        // The paper's prototype granularity: a tainted byte store
        // taints the whole word (conservative, "enough to detect
        // attacks").
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        shadow.set_tag(Reg::O1, 1);
        let mut dift = Dift::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        dift.process(&mem_packet(Opcode::Stb, 0x2000), &mut env).unwrap();
        env.shadow.set_tag(Reg::O1, 0);
        // A load of the *other* bytes of the word still sees taint.
        dift.process(&mem_packet(Opcode::Ldub, 0x2003), &mut env).unwrap();
        assert_eq!(env.shadow.tag(Reg::O1), 1);
    }

    #[test]
    fn per_byte_tags_are_precise() {
        // Footnote 2's byte-granular variant: the same scenario does
        // NOT taint the neighbouring bytes.
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        shadow.set_tag(Reg::O1, 1);
        let mut dift = Dift::per_byte();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        dift.process(&mem_packet(Opcode::Stb, 0x2000), &mut env).unwrap();
        env.shadow.set_tag(Reg::O1, 0);
        dift.process(&mem_packet(Opcode::Ldub, 0x2003), &mut env).unwrap();
        assert_eq!(env.shadow.tag(Reg::O1), 0, "neighbour byte stays clean");
        // The tainted byte itself is still caught, including through a
        // covering word load.
        dift.process(&mem_packet(Opcode::Ldub, 0x2000), &mut env).unwrap();
        assert_eq!(env.shadow.tag(Reg::O1), 1);
        env.shadow.set_tag(Reg::O1, 0);
        dift.process(&mem_packet(Opcode::Ld, 0x2000), &mut env).unwrap();
        assert_eq!(env.shadow.tag(Reg::O1), 1, "word load ORs over its bytes");
    }

    #[test]
    fn per_byte_range_ops_handle_unaligned_spans() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut dift = Dift::per_byte();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        // Taint 40 bytes starting at an odd offset crossing a meta-word
        // boundary.
        dift.process(&packet_with_cpop(1, ops::TAINT_RANGE, 0x2005, 40), &mut env).unwrap();
        for addr in [0x2005u32, 0x2010, 0x202c] {
            dift.process(&mem_packet(Opcode::Ldub, addr), &mut env).unwrap();
            assert_eq!(env.shadow.tag(Reg::O1), 1, "{addr:#x}");
        }
        for addr in [0x2004u32, 0x202d] {
            dift.process(&mem_packet(Opcode::Ldub, addr), &mut env).unwrap();
            assert_eq!(env.shadow.tag(Reg::O1), 0, "{addr:#x}");
        }
    }

    #[test]
    fn cfgr_forwards_alu_mem_and_jumps() {
        let c = Dift::new().cfgr();
        assert_eq!(c.policy(InstrClass::Ld), ForwardPolicy::Always);
        assert_eq!(c.policy(InstrClass::Add), ForwardPolicy::Always);
        assert_eq!(c.policy(InstrClass::Jmpl), ForwardPolicy::Always);
        assert_eq!(c.policy(InstrClass::Sethi), ForwardPolicy::Always);
        assert_eq!(c.policy(InstrClass::BranchCond), ForwardPolicy::Ignore);
        assert_eq!(c.policy(InstrClass::Nop), ForwardPolicy::Ignore);
    }

    #[test]
    fn netlist_is_larger_than_umc() {
        let d = Dift::new().netlist();
        let u = crate::ext::Umc::new().netlist();
        let dl = flexcore_fabric::map_to_luts(&d, 6).lut_count();
        let ul = flexcore_fabric::map_to_luts(&u, 6).lut_count();
        assert!(dl > ul, "DIFT {dl} LUTs vs UMC {ul}");
    }
}
