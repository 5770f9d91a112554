//! Uninitialized Memory Check (UMC).

use flexcore_fabric::{Netlist, NetlistBuilder};
use flexcore_isa::InstrClass;
use flexcore_pipeline::TracePacket;

use crate::ext::{
    bit_tag_location, word_tag_mask, ExtEnv, Extension, ExtensionDescriptor, MonitorTrap, META_BASE,
};
use crate::interface::{Cfgr, ForwardPolicy};

/// Software-visible `cpop1` sub-opcodes for UMC.
pub mod ops {
    /// Clear tags over `[rs1, rs1 + rs2)` (memory de-allocation).
    pub const CLEAR_RANGE: u16 = 0;
    /// Set tags over `[rs1, rs1 + rs2)` (mark initialized, e.g. static
    /// data at program load).
    pub const SET_RANGE: u16 = 1;
    /// Read the tag for the word at `rs1` into the destination
    /// register via the BFIFO.
    pub const READ_TAG: u16 = 2;
}

/// Uninitialized Memory Check: a 1-bit tag per memory word, set on a
/// store, checked on a load, cleared by software on de-allocation
/// (§IV.A).
#[derive(Clone, Debug, Default)]
pub struct Umc {
    traps_checked: u64,
}

impl Umc {
    /// Creates the extension.
    pub fn new() -> Umc {
        Umc::default()
    }

    /// Whether this address is monitored: program memory only (not the
    /// meta-data region itself, not memory-mapped I/O).
    fn monitored(addr: u32) -> bool {
        addr < META_BASE
    }

    /// Sets or clears the tags of every word that `[start, start + len)`
    /// touches, one meta write per meta word. The range is clipped at
    /// the top of the address space.
    fn set_range(env: &mut ExtEnv<'_>, start: u32, len: u32, value: bool) {
        if len == 0 {
            return;
        }
        let first = start >> 2;
        let last = start.saturating_add(len - 1) >> 2;
        let mut w = first;
        while w <= last {
            let (meta_addr, bit) = bit_tag_location(w << 2);
            // All bits of this meta word that fall inside the range.
            let hi_word_in_meta = ((w & !31) + 31).min(last);
            let mut mask = 0u32;
            for b in bit..=(bit + (hi_word_in_meta - w)) {
                mask |= 1 << b;
            }
            env.write_meta(meta_addr, if value { mask } else { 0 }, mask);
            w = hi_word_in_meta + 1;
        }
    }
}

impl Extension for Umc {
    fn name(&self) -> &'static str {
        "UMC"
    }

    fn snapshot_state(&self) -> Vec<u64> {
        vec![self.traps_checked]
    }

    fn restore_state(&mut self, state: &[u64]) {
        if let [traps_checked] = *state {
            self.traps_checked = traps_checked;
        }
    }

    fn descriptor(&self) -> ExtensionDescriptor {
        ExtensionDescriptor {
            abbrev: "UMC",
            name: "Uninitialized Memory Check",
            meta_data: &["1-bit tag per word in memory"],
            transparent_ops: &["Set the tag on a store", "Check the tag on a load"],
            sw_visible_ops: &["Clear tags on a de-allocation", "Exception when a tag check fails"],
        }
    }

    fn cfgr(&self) -> Cfgr {
        Cfgr::new()
            .with_classes(|c| c.is_mem(), ForwardPolicy::Always)
            .with_class(InstrClass::Cpop1, ForwardPolicy::WaitForAck)
    }

    fn pipeline_stages(&self) -> u32 {
        3
    }

    fn elision_class(&self) -> u8 {
        crate::elide::ELIDE_UMC
    }

    fn check_elidable(&self, pkt: &TracePacket) -> bool {
        // Only the pure load-side check is elidable: stores and swaps
        // write meta-data (a side effect the static proof does not
        // cover), and `cpop`s are software-visible. A proven load's
        // only observable effect is the trap verdict the analysis
        // already discharged (`traps_checked` legitimately differs).
        pkt.class.is_load() && pkt.class != InstrClass::Swap
    }

    fn process(
        &mut self,
        pkt: &TracePacket,
        env: &mut ExtEnv<'_>,
    ) -> Result<Option<u32>, MonitorTrap> {
        let bytes = match pkt.inst {
            flexcore_isa::Instruction::Mem { op, .. } => op.access_bytes().unwrap_or(4),
            _ => 4,
        };
        match pkt.class {
            c if c.is_store() => {
                if Umc::monitored(pkt.addr) {
                    let (meta_addr, mask) = word_tag_mask(pkt.addr, bytes);
                    env.write_meta(meta_addr, mask, mask);
                }
                Ok(None)
            }
            c if c.is_load() => {
                if Umc::monitored(pkt.addr) {
                    self.traps_checked += 1;
                    let (meta_addr, mask) = word_tag_mask(pkt.addr, bytes);
                    let word = env.read_meta(meta_addr);
                    if word & mask != mask {
                        return Err(MonitorTrap {
                            pc: pkt.pc,
                            reason: format!(
                                "uninitialized read at {:#010x} ({} bytes)",
                                pkt.addr, bytes
                            ),
                        });
                    }
                }
                Ok(None)
            }
            InstrClass::Swap => {
                // Swap both checks (it reads) and initializes (it
                // writes) its word.
                if Umc::monitored(pkt.addr) {
                    self.traps_checked += 1;
                    let (meta_addr, mask) = word_tag_mask(pkt.addr, 4);
                    let word = env.read_meta(meta_addr);
                    let ok = word & mask == mask;
                    env.write_meta(meta_addr, mask, mask);
                    if !ok {
                        return Err(MonitorTrap {
                            pc: pkt.pc,
                            reason: format!("uninitialized swap at {:#010x}", pkt.addr),
                        });
                    }
                }
                Ok(None)
            }
            InstrClass::Cpop1 => {
                let (a, b) = (pkt.srcv1, pkt.srcv2);
                let flexcore_isa::Instruction::Cpop { opc, .. } = pkt.inst else {
                    return Ok(None);
                };
                match opc {
                    ops::CLEAR_RANGE => {
                        Umc::set_range(env, a, b, false);
                        Ok(None)
                    }
                    ops::SET_RANGE => {
                        Umc::set_range(env, a, b, true);
                        Ok(None)
                    }
                    ops::READ_TAG => {
                        // 1 iff the whole word at `a` is initialized.
                        let (meta_addr, mask) = word_tag_mask(a, 4);
                        let word = env.read_meta(meta_addr);
                        Ok(Some(u32::from(word & mask == mask)))
                    }
                    _ => Ok(None),
                }
            }
            _ => Ok(None),
        }
    }

    fn on_program_load(&mut self, base: u32, len: u32, env: &mut ExtEnv<'_>) {
        // Statically-initialized memory (the loaded image) counts as
        // written — the OS marks it at load time via SET_RANGE.
        Umc::set_range(env, base, len, true);
    }

    /// The UMC datapath (§IV.A, Figure 3a): meta-data address
    /// translation (shift + add to a base register), a 5→32 bit-select
    /// decoder, tag update/check logic, and pipeline registers.
    fn vcd_stimulus(&self, pkt: &TracePacket) -> Vec<bool> {
        // Input order: addr[32], is_load, is_store, tag_word[32].
        let mut s = Vec::with_capacity(66);
        super::push_bits(&mut s, pkt.addr, 32);
        s.push(pkt.class.is_load());
        s.push(pkt.class.is_store());
        super::push_bits(&mut s, 0, 32); // tag_word comes from the meta cache
        s
    }

    fn netlist(&self) -> Netlist {
        let mut b = NetlistBuilder::new("umc");
        let addr = b.input_bus(32);
        let is_load = b.input();
        let is_store = b.input();
        let tag_word = b.input_bus(32); // meta-cache read data

        // Stage 1: latch the FIFO fields.
        let addr_r = b.register_bus(&addr);
        let is_load_r = b.register(is_load);
        let is_store_r = b.register(is_store);

        // Meta address = base + (addr >> 7 aligned to words). The base
        // is a software-visible config register (32 flops).
        let base: Vec<_> = (0..32).map(|_| b.dff()).collect();
        let shifted: Vec<_> = (0..32)
            .map(|i| if (2..27).contains(&i) { addr_r[i + 5] } else { b.constant(false) })
            .collect();
        let (meta_addr, _c) = b.add(&base, &shifted);
        let meta_addr_r = b.register_bus(&meta_addr);
        b.output_bus("meta_addr", &meta_addr_r);

        // Bit select: decode addr[6:2] to a 32-bit one-hot mask.
        let sel: Vec<_> = (2..7).map(|i| addr_r[i]).collect();
        let onehot = b.decoder(&sel);
        let onehot_r = b.register_bus(&onehot);
        b.output_bus("wmask", &onehot_r);

        // Store path: write-enable = one-hot mask & store.
        let st_r2 = b.register(is_store_r);
        let wen: Vec<_> = onehot_r.iter().map(|&m| b.and(m, st_r2)).collect();
        b.output_bus("wen", &wen);

        // Load path: select the tag bit and trap if clear.
        let selected = b.bitwise(&tag_word, &onehot_r, |s, x, y| s.and(x, y));
        let tag = b.reduce_or(&selected);
        let ld_r2 = b.register(is_load_r);
        let ntag = b.not(tag);
        let trap = b.and(ld_r2, ntag);
        let trap_r = b.register(trap);
        b.output("trap", trap_r);

        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::tests_util::{env_parts, mem_packet, packet_with_cpop};
    use flexcore_fabric::{map_to_luts, LUT_K};
    use flexcore_isa::Opcode;

    #[test]
    fn store_then_load_passes() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut umc = Umc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        umc.process(&mem_packet(Opcode::St, 0x2000), &mut env).unwrap();
        assert!(umc.process(&mem_packet(Opcode::Ld, 0x2000), &mut env).is_ok());
    }

    #[test]
    fn load_of_untouched_word_traps() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut umc = Umc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        let err = umc.process(&mem_packet(Opcode::Ld, 0x3000), &mut env).unwrap_err();
        assert!(err.reason.contains("uninitialized"));
    }

    #[test]
    fn byte_store_initializes_its_word() {
        // Word-granularity tags: any store marks the whole word.
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut umc = Umc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        umc.process(&mem_packet(Opcode::Stb, 0x2001), &mut env).unwrap();
        assert!(umc.process(&mem_packet(Opcode::Ld, 0x2000), &mut env).is_ok());
    }

    #[test]
    fn clear_range_deinitializes() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut umc = Umc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        for a in (0x2000..0x2100).step_by(4) {
            umc.process(&mem_packet(Opcode::St, a), &mut env).unwrap();
        }
        // Free the middle 64 bytes.
        umc.process(&packet_with_cpop(1, ops::CLEAR_RANGE, 0x2040, 64), &mut env).unwrap();
        assert!(umc.process(&mem_packet(Opcode::Ld, 0x2000), &mut env).is_ok());
        assert!(umc.process(&mem_packet(Opcode::Ld, 0x2040), &mut env).is_err());
        assert!(umc.process(&mem_packet(Opcode::Ld, 0x207c), &mut env).is_err());
        assert!(umc.process(&mem_packet(Opcode::Ld, 0x2080), &mut env).is_ok());
    }

    #[test]
    fn read_tag_returns_bfifo_value() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut umc = Umc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        let v0 = umc.process(&packet_with_cpop(1, ops::READ_TAG, 0x2000, 0), &mut env).unwrap();
        assert_eq!(v0, Some(0));
        umc.process(&mem_packet(Opcode::St, 0x2000), &mut env).unwrap();
        let v1 = umc.process(&packet_with_cpop(1, ops::READ_TAG, 0x2000, 0), &mut env).unwrap();
        assert_eq!(v1, Some(1));
    }

    #[test]
    fn program_load_marks_image_initialized() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut umc = Umc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        umc.on_program_load(0x1000, 0x200, &mut env);
        assert!(umc.process(&mem_packet(Opcode::Ld, 0x11fc), &mut env).is_ok());
        assert!(umc.process(&mem_packet(Opcode::Ld, 0x1200), &mut env).is_err());
    }

    #[test]
    fn meta_region_and_mmio_are_not_monitored() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut umc = Umc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        assert!(umc.process(&mem_packet(Opcode::Ld, META_BASE + 0x100), &mut env).is_ok());
        assert!(umc.process(&mem_packet(Opcode::Ld, 0xffff_0000), &mut env).is_ok());
    }

    #[test]
    fn range_ops_cover_unaligned_spans_across_meta_words() {
        // Bytes 0x2073..=0x2092 touch words 0x2070..=0x2090, whose tags
        // straddle the meta words for 0x2000..0x2080 and 0x2080..0x2100.
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut umc = Umc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        umc.process(&packet_with_cpop(1, ops::SET_RANGE, 0x2073, 0x20), &mut env).unwrap();
        for a in [0x2070, 0x207c, 0x2080, 0x2090] {
            assert!(umc.process(&mem_packet(Opcode::Ld, a), &mut env).is_ok(), "{a:#x}");
        }
        for a in [0x206c, 0x2094] {
            assert!(umc.process(&mem_packet(Opcode::Ld, a), &mut env).is_err(), "{a:#x}");
        }
        // Clearing bytes 0x207d..=0x2083 frees both words it touches.
        umc.process(&packet_with_cpop(1, ops::CLEAR_RANGE, 0x207d, 7), &mut env).unwrap();
        for (a, tagged) in [(0x2078, 1), (0x207c, 0), (0x2080, 0), (0x2084, 1)] {
            let t = umc.process(&packet_with_cpop(1, ops::READ_TAG, a, 0), &mut env).unwrap();
            assert_eq!(t, Some(tagged), "{a:#x}");
        }
    }

    #[test]
    fn range_ops_clip_at_the_top_of_the_address_space() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut umc = Umc::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        let r = umc.process(&packet_with_cpop(1, ops::SET_RANGE, 0xffff_fff0, 0x20), &mut env);
        assert_eq!(r.unwrap(), None);
        for a in (0xffff_fff0u32..=0xffff_fffc).step_by(4) {
            let t = umc.process(&packet_with_cpop(1, ops::READ_TAG, a, 0), &mut env).unwrap();
            assert_eq!(t, Some(1), "{a:#x}");
        }
        // The range does not wrap around to address 0.
        let t = umc.process(&packet_with_cpop(1, ops::READ_TAG, 0, 0), &mut env).unwrap();
        assert_eq!(t, Some(0));
    }

    #[test]
    fn cfgr_forwards_only_memory_and_cpop1() {
        let c = Umc::new().cfgr();
        assert_eq!(c.policy(InstrClass::Ld), ForwardPolicy::Always);
        assert_eq!(c.policy(InstrClass::Stb), ForwardPolicy::Always);
        assert_eq!(c.policy(InstrClass::Cpop1), ForwardPolicy::WaitForAck);
        assert_eq!(c.policy(InstrClass::Add), ForwardPolicy::Ignore);
        assert_eq!(c.policy(InstrClass::BranchCond), ForwardPolicy::Ignore);
    }

    #[test]
    fn netlist_is_nontrivial_and_maps() {
        let n = Umc::new().netlist();
        assert!(n.logic_gates() > 50);
        let m = map_to_luts(&n, LUT_K);
        assert!(m.lut_count() > 30, "{}", m.lut_count());
        assert!(m.depth() >= 2);
    }
}
