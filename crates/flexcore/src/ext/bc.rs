//! Array Bound Check (BC) via color tags.

use flexcore_fabric::{MacroBlock, Netlist, NetlistBuilder};
use flexcore_isa::{InstrClass, Instruction, Opcode};
use flexcore_pipeline::TracePacket;

use crate::ext::{
    byte_tag_location, range_words, ExtEnv, Extension, ExtensionDescriptor, MonitorTrap, META_BASE,
};
use crate::interface::{Cfgr, ForwardPolicy};

/// Software-visible `cpop1` sub-opcodes for BC.
pub mod ops {
    /// Set the pointer color of the register numbered `rs1` to
    /// `rs2 & 0xf` (performed on the pointer returned by an
    /// allocation).
    pub const SET_REG_COLOR: u16 = 0;
    /// Color the memory range: `rs1` = start address, `rs2` packs
    /// `len << 4 | color`. Sets the *location* color of every word in
    /// `[rs1, rs1 + len)`.
    pub const COLOR_RANGE: u16 = 1;
    /// Clear both tags over the range encoded as in
    /// [`COLOR_RANGE`] (de-allocation).
    pub const CLEAR_RANGE: u16 = 2;
    /// Read the packed 8-bit memory tag of the word at `rs1`.
    pub const READ_TAG: u16 = 3;
}

/// Array bound checking with color tags (§IV.C): each pointer carries a
/// 4-bit color in a register tag, each memory word an 8-bit tag packing
/// a pointer color (upper nibble, for pointer values stored in memory)
/// and a location color (lower nibble). On every access the pointer's
/// color must match the location's color.
#[derive(Clone, Debug, Default)]
pub struct Bc {
    checks: u64,
}

impl Bc {
    /// Creates the extension.
    pub fn new() -> Bc {
        Bc::default()
    }

    fn monitored(addr: u32) -> bool {
        addr < META_BASE
    }

    /// Reads the packed 8-bit memory tag for the word at `addr`.
    fn mem_tag(env: &mut ExtEnv<'_>, addr: u32) -> u8 {
        let (meta_addr, shift) = byte_tag_location(addr);
        ((env.read_meta(meta_addr) >> shift) & 0xff) as u8
    }

    /// Writes selected bits of the packed tag (mask is within the
    /// byte).
    fn write_mem_tag(env: &mut ExtEnv<'_>, addr: u32, value: u8, mask: u8) {
        let (meta_addr, shift) = byte_tag_location(addr);
        env.write_meta(meta_addr, u32::from(value) << shift, u32::from(mask) << shift);
    }

    fn check(env: &mut ExtEnv<'_>, pc: u32, addr: u32, ptr_color: u8) -> Result<u8, MonitorTrap> {
        let tag = Bc::mem_tag(env, addr);
        let loc_color = tag & 0x0f;
        if ptr_color != loc_color {
            return Err(MonitorTrap {
                pc,
                reason: format!(
                    "out-of-bound access at {addr:#010x}: pointer color {ptr_color} vs location color {loc_color}"
                ),
            });
        }
        Ok(tag)
    }
}

impl Extension for Bc {
    fn name(&self) -> &'static str {
        "BC"
    }

    fn snapshot_state(&self) -> Vec<u64> {
        vec![self.checks]
    }

    fn restore_state(&mut self, state: &[u64]) {
        if let [checks] = *state {
            self.checks = checks;
        }
    }

    fn descriptor(&self) -> ExtensionDescriptor {
        ExtensionDescriptor {
            abbrev: "BC",
            name: "Array Bound Check",
            meta_data: &["4-bit tag per register", "8-bit tag per word in memory"],
            transparent_ops: &[
                "Propagate tags on ALU/load/store",
                "Check a pointer tag (register) with a memory tag on a load/store",
            ],
            sw_visible_ops: &[
                "Set reg/mem tags on array allocation",
                "Clear tags on a de-allocation",
                "Exception when a tag check fails",
            ],
        }
    }

    fn cfgr(&self) -> Cfgr {
        // Loads, stores, arithmetic (pointer arithmetic), plus sethi
        // and logic so that pointer materialization sequences (`set`)
        // propagate tags coherently.
        Cfgr::new()
            .with_classes(|c| c.is_mem(), ForwardPolicy::Always)
            .with_classes(
                |c| {
                    matches!(
                        c,
                        InstrClass::Add
                            | InstrClass::Sub
                            | InstrClass::AddCc
                            | InstrClass::SubCc
                            | InstrClass::Logic
                            | InstrClass::LogicCc
                            | InstrClass::Shift
                            | InstrClass::Sethi
                            | InstrClass::Save
                            | InstrClass::Restore
                    )
                },
                ForwardPolicy::Always,
            )
            .with_class(InstrClass::Cpop1, ForwardPolicy::WaitForAck)
    }

    fn pipeline_stages(&self) -> u32 {
        5
    }

    fn process(
        &mut self,
        pkt: &TracePacket,
        env: &mut ExtEnv<'_>,
    ) -> Result<Option<u32>, MonitorTrap> {
        match pkt.inst {
            Instruction::Alu { rd, rs1, op2, .. } => {
                // Pointer-color propagation: colors add (mod 16), so
                // `ptr + offset` keeps the color when the offset's
                // color is 0 (§IV.C).
                let c1 = env.shadow.tag(rs1) & 0x0f;
                let c2 = op2.reg().map_or(0, |r| env.shadow.tag(r) & 0x0f);
                env.shadow.set_tag(rd, (c1.wrapping_add(c2)) & 0x0f);
                Ok(None)
            }
            Instruction::Sethi { rd, .. } => {
                env.shadow.set_tag(rd, 0);
                Ok(None)
            }
            Instruction::Mem { op, rd, rs1, .. } => {
                if !Bc::monitored(pkt.addr) {
                    return Ok(None);
                }
                self.checks += 1;
                let ptr_color = env.shadow.tag(rs1) & 0x0f;
                let pair = || flexcore_isa::Reg::new(rd.index() as u8 | 1).expect("pair register");
                match op {
                    Opcode::Ldd => {
                        // Both words must belong to the pointed-to
                        // object.
                        let t1 = Bc::check(env, pkt.pc, pkt.addr, ptr_color)?;
                        let t2 = Bc::check(env, pkt.pc, pkt.addr + 4, ptr_color)?;
                        env.shadow.set_tag(rd, t1 >> 4);
                        env.shadow.set_tag(pair(), t2 >> 4);
                    }
                    Opcode::Std => {
                        Bc::check(env, pkt.pc, pkt.addr, ptr_color)?;
                        Bc::check(env, pkt.pc, pkt.addr + 4, ptr_color)?;
                        let c1 = env.shadow.tag(rd) & 0x0f;
                        let c2 = env.shadow.tag(pair()) & 0x0f;
                        Bc::write_mem_tag(env, pkt.addr, c1 << 4, 0xf0);
                        Bc::write_mem_tag(env, pkt.addr + 4, c2 << 4, 0xf0);
                    }
                    Opcode::Swap => {
                        let tag = Bc::check(env, pkt.pc, pkt.addr, ptr_color)?;
                        let reg_color = env.shadow.tag(rd) & 0x0f;
                        Bc::write_mem_tag(env, pkt.addr, reg_color << 4, 0xf0);
                        env.shadow.set_tag(rd, tag >> 4);
                    }
                    _ if op.is_load() => {
                        let tag = Bc::check(env, pkt.pc, pkt.addr, ptr_color)?;
                        // The upper nibble is the pointer color of the
                        // *value* being loaded.
                        if op == Opcode::Ld {
                            env.shadow.set_tag(rd, tag >> 4);
                        } else {
                            // Sub-word loads never load a pointer.
                            env.shadow.set_tag(rd, 0);
                        }
                    }
                    _ => {
                        let _ = Bc::check(env, pkt.pc, pkt.addr, ptr_color)?;
                        if op == Opcode::St {
                            // Copy the stored value's pointer color
                            // into the upper nibble of the memory tag.
                            let v_color = env.shadow.tag(rd) & 0x0f;
                            Bc::write_mem_tag(env, pkt.addr, v_color << 4, 0xf0);
                        }
                    }
                }
                Ok(None)
            }
            Instruction::Cpop { space: 1, opc, .. } => match opc {
                ops::SET_REG_COLOR => {
                    if let Some(r) = flexcore_isa::Reg::new((pkt.srcv1 & 31) as u8) {
                        env.shadow.set_tag(r, (pkt.srcv2 & 0x0f) as u8);
                    }
                    Ok(None)
                }
                ops::COLOR_RANGE | ops::CLEAR_RANGE => {
                    let color = if opc == ops::COLOR_RANGE { (pkt.srcv2 & 0x0f) as u8 } else { 0 };
                    let mask = if opc == ops::COLOR_RANGE { 0x0f } else { 0xff };
                    for a in range_words(pkt.srcv1 & !3, pkt.srcv2 >> 4) {
                        Bc::write_mem_tag(env, a, color, mask);
                    }
                    Ok(None)
                }
                ops::READ_TAG => Ok(Some(u32::from(Bc::mem_tag(env, pkt.srcv1)))),
                _ => Ok(None),
            },
            _ => Ok(None),
        }
    }

    /// The BC datapath (§IV.C, Figure 3c): meta address translation,
    /// byte-lane extraction, the 4-bit color comparator, the 4-bit
    /// color adder for propagation, and the write-lane placement
    /// network. The 4-bit register tag file is a shadow register-file
    /// macro.
    fn vcd_stimulus(&self, pkt: &TracePacket) -> Vec<bool> {
        // Input order: addr[32], is_load, is_store, is_alu,
        // ptr_color[4], val_color[4], src2_color[4], tag_word[32].
        let mut s = Vec::with_capacity(79);
        super::push_bits(&mut s, pkt.addr, 32);
        s.push(pkt.class.is_load());
        s.push(pkt.class.is_store());
        s.push(pkt.class.is_alu());
        super::push_bits(&mut s, 0, 4); // ptr_color: shadow register file
        super::push_bits(&mut s, 0, 4); // val_color likewise
        super::push_bits(&mut s, 0, 4); // src2_color likewise
        super::push_bits(&mut s, 0, 32); // tag_word comes from the meta cache
        s
    }

    fn netlist(&self) -> Netlist {
        let mut b = NetlistBuilder::new("bc");
        let addr = b.input_bus(32);
        let is_load = b.input();
        let is_store = b.input();
        let is_alu = b.input();
        let ptr_color = b.input_bus(4); // rs1's shadow tag
        let val_color = b.input_bus(4); // rd's shadow tag (stores)
        let src2_color = b.input_bus(4);
        let tag_word = b.input_bus(32); // meta-cache read data

        b.add_macro(MacroBlock::RegFile { entries: crate::ShadowRegFile::ENTRIES, width: 4 });

        // Stage 1 registers.
        let addr_r = b.register_bus(&addr);
        let ld_r = b.register(is_load);
        let st_r = b.register(is_store);
        let alu_r = b.register(is_alu);
        let pc_r = b.register_bus(&ptr_color);
        let vc_r = b.register_bus(&val_color);
        let sc_r = b.register_bus(&src2_color);

        // Meta address = base + (addr >> 2): byte-per-word layout.
        let base: Vec<_> = (0..32).map(|_| b.dff()).collect();
        let word_index: Vec<_> =
            (0..32).map(|i| if i < 30 { addr_r[i + 2] } else { b.constant(false) }).collect();
        let (meta_addr, _) = b.add(&base, &word_index);
        let meta_addr_r = b.register_bus(&meta_addr);
        b.output_bus("meta_addr", &meta_addr_r);

        // Byte-lane extraction: select one of four byte lanes of the
        // meta word by meta_addr[1:0] (big-endian lane order).
        let lane_sel = [meta_addr_r[0], meta_addr_r[1]];
        let mut byte = Vec::with_capacity(8);
        for bit in 0..8 {
            // Lanes in BE order: lane 0 holds bits 31..24.
            let lanes = [tag_word[24 + bit], tag_word[16 + bit], tag_word[8 + bit], tag_word[bit]];
            let m0 = b.mux(lane_sel[0], lanes[0], lanes[1]);
            let m1 = b.mux(lane_sel[0], lanes[2], lanes[3]);
            let sel_bit = b.mux(lane_sel[1], m0, m1);
            byte.push(sel_bit);
        }
        let loc_color: Vec<_> = byte[0..4].to_vec();
        let stored_ptr_color: Vec<_> = byte[4..8].to_vec();

        // Color check: pointer color must equal location color on any
        // access.
        let eq = b.eq(&pc_r, &loc_color);
        let neq = b.not(eq);
        let mem_op = b.or(ld_r, st_r);
        let trap = b.and(mem_op, neq);
        let trap_r = b.register(trap);
        b.output("trap", trap_r);

        // Load path: destination tag = stored pointer color.
        let dest_from_mem = stored_ptr_color.clone();
        // ALU path: color adder (4-bit).
        let (color_sum, _) = b.add(&pc_r, &sc_r);
        let dest_tag = b.mux_bus(alu_r, &dest_from_mem, &color_sum);
        let dest_tag_r = b.register_bus(&dest_tag);
        b.output_bus("dest_tag", &dest_tag_r);

        // Store path: place the value color into the upper nibble of
        // the right byte lane.
        let lane_onehot = b.decoder(&vec![lane_sel[0], lane_sel[1]]);
        let mut wen = Vec::with_capacity(32);
        let mut wdata = Vec::with_capacity(32);
        for (lane, &lane_hot) in lane_onehot.iter().enumerate().take(4) {
            // Big-endian: lane 0 occupies bits 31..24.
            let base_bit = 24 - 8 * lane;
            for bit in 0..8 {
                let is_upper = bit >= 4;
                let en = if is_upper { b.and(lane_hot, st_r) } else { b.constant(false) };
                wen.push((base_bit + bit, en));
                let data = if is_upper { vc_r[bit - 4] } else { b.constant(false) };
                let gated = b.and(data, en);
                wdata.push((base_bit + bit, gated));
            }
        }
        wen.sort_by_key(|&(pos, _)| pos);
        wdata.sort_by_key(|&(pos, _)| pos);
        let wen_bus: Vec<_> = wen.into_iter().map(|(_, n)| n).collect();
        let wdata_bus: Vec<_> = wdata.into_iter().map(|(_, n)| n).collect();
        b.output_bus("wen", &wen_bus);
        b.output_bus("wdata", &wdata_bus);

        // Range engine for the software-visible COLOR_RANGE /
        // CLEAR_RANGE operations: a current-address counter and the
        // done comparator that sequence multi-word tag updates. The end
        // address is a software-loaded config register (the cpop
        // handler computes start+len once on the core side).
        let range_end: Vec<_> = (0..32).map(|_| b.dff()).collect();
        let cursor: Vec<_> = (0..32).map(|_| b.dff()).collect();
        let four = b.constant_bus(4, 32);
        let (next_cursor, _) = b.add(&cursor, &four);
        let (_, not_done) = b.sub(&cursor, &range_end); // borrow set while cursor < end
        let running = b.register(not_done);
        let cursor_next = b.mux_bus(running, &cursor, &next_cursor);
        for (q, d) in cursor.iter().zip(&cursor_next) {
            b.connect_dff(*q, *d);
        }
        b.output_bus("range_cursor", &cursor);
        b.output("range_busy", running);

        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::tests_util::{alu_packet, env_parts, mem_packet, packet_with_cpop};
    use flexcore_fabric::{map_to_luts, LUT_K};
    use flexcore_isa::Reg;

    /// Colors a 32-byte "allocation" at 0x2000 with color 5 and marks
    /// %o0 as the pointer.
    fn allocate(bc: &mut Bc, env: &mut ExtEnv<'_>, color: u32) {
        bc.process(&packet_with_cpop(1, ops::COLOR_RANGE, 0x2000, (32 << 4) | color), env).unwrap();
        bc.process(&packet_with_cpop(1, ops::SET_REG_COLOR, Reg::O0.index() as u32, color), env)
            .unwrap();
    }

    #[test]
    fn in_bounds_access_passes() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut bc = Bc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        allocate(&mut bc, &mut env, 5);
        assert!(bc.process(&mem_packet(Opcode::Ld, 0x2000), &mut env).is_ok());
        assert!(bc.process(&mem_packet(Opcode::St, 0x201c), &mut env).is_ok());
    }

    #[test]
    fn out_of_bounds_access_traps() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut bc = Bc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        allocate(&mut bc, &mut env, 5);
        // One word past the allocation: location color is 0, not 5.
        let err = bc.process(&mem_packet(Opcode::Ld, 0x2020), &mut env).unwrap_err();
        assert!(err.reason.contains("out-of-bound"));
    }

    #[test]
    fn adjacent_allocations_have_distinct_colors() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut bc = Bc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        // Two adjacent arrays with different colors.
        bc.process(&packet_with_cpop(1, ops::COLOR_RANGE, 0x2000, (32 << 4) | 3), &mut env)
            .unwrap();
        bc.process(&packet_with_cpop(1, ops::COLOR_RANGE, 0x2020, (32 << 4) | 7), &mut env)
            .unwrap();
        bc.process(&packet_with_cpop(1, ops::SET_REG_COLOR, Reg::O0.index() as u32, 3), &mut env)
            .unwrap();
        // Walking off the end of array A into array B traps even
        // though B is allocated.
        assert!(bc.process(&mem_packet(Opcode::Ld, 0x201c), &mut env).is_ok());
        assert!(bc.process(&mem_packet(Opcode::Ld, 0x2020), &mut env).is_err());
    }

    #[test]
    fn color_range_clips_at_the_top_of_the_address_space() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut bc = Bc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        let r = bc
            .process(&packet_with_cpop(1, ops::COLOR_RANGE, 0xffff_fff0, (32 << 4) | 6), &mut env);
        assert_eq!(r.unwrap(), None);
        for a in (0xffff_fff0u32..=0xffff_fffc).step_by(4) {
            let t = bc.process(&packet_with_cpop(1, ops::READ_TAG, a, 0), &mut env).unwrap();
            assert_eq!(t, Some(6), "{a:#x}");
        }
        // The range does not wrap around to address 0.
        let t = bc.process(&packet_with_cpop(1, ops::READ_TAG, 0, 0), &mut env).unwrap();
        assert_eq!(t, Some(0));
    }

    #[test]
    fn pointer_arithmetic_keeps_the_color() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut bc = Bc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        allocate(&mut bc, &mut env, 5);
        // %o2 = %o0 + %o3 (offset register color 0).
        bc.process(
            &alu_packet(Opcode::Add, Reg::O0, Reg::O3, Reg::O2, 0x2000, 8, 0x2008),
            &mut env,
        )
        .unwrap();
        assert_eq!(env.shadow.tag(Reg::O2), 5);
    }

    #[test]
    fn pointer_color_survives_a_memory_round_trip() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut bc = Bc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        allocate(&mut bc, &mut env, 5);
        // Store the colored pointer itself into word 0 of the array;
        // the data register of the store is %o1 in mem_packet, so
        // color %o1 too.
        env.shadow.set_tag(Reg::O1, 5);
        bc.process(&mem_packet(Opcode::St, 0x2000), &mut env).unwrap();
        env.shadow.set_tag(Reg::O1, 0);
        bc.process(&mem_packet(Opcode::Ld, 0x2000), &mut env).unwrap();
        assert_eq!(env.shadow.tag(Reg::O1), 5, "pointer color reloaded from memory");
    }

    #[test]
    fn deallocation_clears_tags() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut bc = Bc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        allocate(&mut bc, &mut env, 5);
        bc.process(&packet_with_cpop(1, ops::CLEAR_RANGE, 0x2000, 32 << 4), &mut env).unwrap();
        // Use-after-free: pointer still has color 5, memory is 0.
        assert!(bc.process(&mem_packet(Opcode::Ld, 0x2000), &mut env).is_err());
    }

    #[test]
    fn read_tag_reports_packed_byte() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut bc = Bc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        allocate(&mut bc, &mut env, 5);
        env.shadow.set_tag(Reg::O1, 9);
        bc.process(&mem_packet(Opcode::St, 0x2004), &mut env).unwrap();
        let t = bc.process(&packet_with_cpop(1, ops::READ_TAG, 0x2004, 0), &mut env).unwrap();
        assert_eq!(t, Some(0x95), "upper nibble 9 (value), lower 5 (location)");
    }

    #[test]
    fn untagged_code_accessing_untagged_memory_passes() {
        // Color 0 everywhere: ordinary non-array code never traps.
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut bc = Bc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        assert!(bc.process(&mem_packet(Opcode::Ld, 0x5000), &mut env).is_ok());
        assert!(bc.process(&mem_packet(Opcode::St, 0x5004), &mut env).is_ok());
    }

    #[test]
    fn netlist_is_larger_than_dift() {
        let bcn = Bc::new().netlist();
        let dn = crate::ext::Dift::new().netlist();
        let bl = map_to_luts(&bcn, LUT_K).lut_count();
        let dl = map_to_luts(&dn, LUT_K).lut_count();
        assert!(bl > dl, "BC {bl} LUTs vs DIFT {dl}");
    }
}
