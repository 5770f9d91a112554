//! Fine-grained memory protection (MPROT) — an extension beyond the
//! paper's four prototypes, from its "other extensions" list (§II.B
//! cites Mondrian memory protection as an application of the
//! co-processing model). Demonstrates that the FlexCore framework
//! supports new monitors without architectural changes.

use flexcore_fabric::{Netlist, NetlistBuilder};
use flexcore_isa::{InstrClass, Instruction};
use flexcore_pipeline::TracePacket;

use crate::ext::{
    two_bit_tag_location, ExtEnv, Extension, ExtensionDescriptor, MonitorTrap, META_BASE,
};
use crate::interface::{Cfgr, ForwardPolicy};

/// Word permissions (2 bits per word in memory).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Perm {
    /// No access.
    None = 0,
    /// Read-only.
    ReadOnly = 1,
    /// Read and write.
    ReadWrite = 2,
    /// Reserved (treated as ReadWrite).
    Full = 3,
}

impl Perm {
    /// Decodes a 2-bit field.
    pub fn from_bits(bits: u32) -> Perm {
        match bits & 3 {
            0 => Perm::None,
            1 => Perm::ReadOnly,
            2 => Perm::ReadWrite,
            _ => Perm::Full,
        }
    }

    /// Whether loads are allowed.
    pub fn readable(self) -> bool {
        self != Perm::None
    }

    /// Whether stores are allowed.
    pub fn writable(self) -> bool {
        matches!(self, Perm::ReadWrite | Perm::Full)
    }
}

/// Software-visible `cpop1` sub-opcodes for MPROT.
pub mod ops {
    /// Set permissions over a range: `rs1` = start address, `rs2`
    /// packs `len << 2 | perm`.
    pub const SET_RANGE: u16 = 0;
    /// Read the 2-bit permission of the word at `rs1`.
    pub const READ_PERM: u16 = 1;
}

/// Default permission for memory no `SET_RANGE` has touched.
///
/// `ReadWrite` makes the monitor opt-in (protect specific regions);
/// real deployments could default to `None` for a default-deny policy.
const DEFAULT_PERM: Perm = Perm::ReadWrite;

/// Fine-grained (word-granular) memory protection: a 2-bit permission
/// tag per word, set by software, checked transparently on every load
/// and store.
#[derive(Clone, Debug, Default)]
pub struct Mprot {
    checks: u64,
}

impl Mprot {
    /// Creates the extension.
    pub fn new() -> Mprot {
        Mprot::default()
    }

    /// Loads and stores checked so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    fn monitored(addr: u32) -> bool {
        addr < META_BASE
    }

    fn perm(env: &mut ExtEnv<'_>, addr: u32) -> Perm {
        let (meta_addr, shift) = two_bit_tag_location(addr);
        let raw = (env.read_meta(meta_addr) >> shift) & 3;
        // Stored field 0 means "never set": default permission.
        // SET_RANGE stores perm+1 so that an explicit None (1) is
        // distinguishable from untouched (0).
        match raw {
            0 => DEFAULT_PERM,
            v => Perm::from_bits(v - 1),
        }
    }
}

impl Extension for Mprot {
    fn name(&self) -> &'static str {
        "MPROT"
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
            abbrev: "MPROT",
            name: "Fine-Grained Memory Protection",
            meta_data: &["2-bit permission tag per word in memory"],
            transparent_ops: &[
                "Check read permission on a load",
                "Check write permission on a store",
            ],
            sw_visible_ops: &[
                "Set permissions on a region",
                "Exception when an access violates permissions",
            ],
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

    fn process(
        &mut self,
        pkt: &TracePacket,
        env: &mut ExtEnv<'_>,
    ) -> Result<Option<u32>, MonitorTrap> {
        match pkt.class {
            c if c.is_load() || c.is_store() || c == InstrClass::Swap => {
                if !Mprot::monitored(pkt.addr) {
                    return Ok(None);
                }
                self.checks += 1;
                let bytes = match pkt.inst {
                    Instruction::Mem { op, .. } => op.access_bytes().unwrap_or(4),
                    _ => 4,
                };
                // Check every covered word (doubleword ops span two).
                let mut a = pkt.addr & !3;
                while a < pkt.addr + bytes {
                    let perm = Mprot::perm(env, a);
                    let ok = if c == InstrClass::Swap {
                        perm.readable() && perm.writable()
                    } else if c.is_store() {
                        perm.writable()
                    } else {
                        perm.readable()
                    };
                    if !ok {
                        return Err(MonitorTrap {
                            pc: pkt.pc,
                            reason: format!(
                                "{} of {:?} word at {:#010x}",
                                if c.is_store() || c == InstrClass::Swap {
                                    "write"
                                } else {
                                    "read"
                                },
                                perm,
                                a
                            ),
                        });
                    }
                    a += 4;
                }
                Ok(None)
            }
            InstrClass::Cpop1 => {
                let Instruction::Cpop { opc, .. } = pkt.inst else { return Ok(None) };
                match opc {
                    ops::SET_RANGE => {
                        let start = pkt.srcv1 & !3;
                        let len = pkt.srcv2 >> 2;
                        // Stored encoding is perm+1 in a 2-bit field
                        // (so 0 = untouched); `Full` aliases to
                        // `ReadWrite`.
                        let stored = (pkt.srcv2 & 3).min(2) + 1;
                        let mut a = start;
                        while a < start.saturating_add(len) {
                            let (meta_addr, shift) = two_bit_tag_location(a);
                            env.write_meta(meta_addr, stored << shift, 3 << shift);
                            a += 4;
                        }
                        Ok(None)
                    }
                    ops::READ_PERM => {
                        let p = Mprot::perm(env, pkt.srcv1);
                        Ok(Some(p as u32))
                    }
                    _ => Ok(None),
                }
            }
            _ => Ok(None),
        }
    }

    /// Datapath: the UMC-style meta address path with a 2-bit field
    /// extractor and the permission check logic.
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
        let mut b = NetlistBuilder::new("mprot");
        let addr = b.input_bus(32);
        let is_load = b.input();
        let is_store = b.input();
        let tag_word = b.input_bus(32);

        let addr_r = b.register_bus(&addr);
        let ld_r = b.register(is_load);
        let st_r = b.register(is_store);

        // Meta address = base + (addr >> 6 aligned): 16 two-bit fields
        // per meta word.
        let base: Vec<_> = (0..32).map(|_| b.dff()).collect();
        let shifted: Vec<_> = (0..32)
            .map(|i| if (2..28).contains(&i) { addr_r[i + 4] } else { b.constant(false) })
            .collect();
        let (meta_addr, _) = b.add(&base, &shifted);
        let meta_addr_r = b.register_bus(&meta_addr);
        b.output_bus("meta_addr", &meta_addr_r);

        // Field select: addr[5:2] picks one of 16 2-bit fields.
        let sel: Vec<_> = (2..6).map(|i| addr_r[i]).collect();
        let onehot = b.decoder(&sel);
        let mut bit0 = Vec::new();
        let mut bit1 = Vec::new();
        for (i, &oh) in onehot.iter().enumerate() {
            bit0.push(b.and(oh, tag_word[2 * i]));
            bit1.push(b.and(oh, tag_word[2 * i + 1]));
        }
        let p0 = b.reduce_or(&bit0);
        let p1 = b.reduce_or(&bit1);

        // Permission decode (stored as perm+1): 0 = default RW.
        let untouched0 = b.not(p0);
        let untouched1 = b.not(p1);
        let untouched = b.and(untouched0, untouched1);
        // readable unless stored value == 1 (perm None): stored 01.
        let none_stored = {
            let n1 = b.not(p1);
            b.and(p0, n1)
        };
        let unreadable = none_stored;
        // writable if untouched or stored in {3 (RW), 0b11.. perm RW=2
        // stored 3} or Full: stored 3 or 4 -> p1 set.
        let writable = b.or(untouched, p1);
        let unwritable = b.not(writable);

        let ld_viol = b.and(ld_r, unreadable);
        let st_viol = b.and(st_r, unwritable);
        let trap = b.or(ld_viol, st_viol);
        let trap_r = b.register(trap);
        b.output("trap", trap_r);
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::tests_util::{env_parts, mem_packet, packet_with_cpop};
    use flexcore_isa::Opcode;

    fn set_range(m: &mut Mprot, env: &mut ExtEnv<'_>, start: u32, len: u32, perm: Perm) {
        m.process(&packet_with_cpop(1, ops::SET_RANGE, start, (len << 2) | perm as u32), env)
            .unwrap();
    }

    #[test]
    fn untouched_memory_is_read_write() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut m = Mprot::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        assert!(m.process(&mem_packet(Opcode::Ld, 0x5000), &mut env).is_ok());
        assert!(m.process(&mem_packet(Opcode::St, 0x5000), &mut env).is_ok());
    }

    #[test]
    fn read_only_region_rejects_stores() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut m = Mprot::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        set_range(&mut m, &mut env, 0x5000, 64, Perm::ReadOnly);
        assert!(m.process(&mem_packet(Opcode::Ld, 0x5010), &mut env).is_ok());
        let err = m.process(&mem_packet(Opcode::St, 0x5010), &mut env).unwrap_err();
        assert!(err.reason.contains("write of ReadOnly"));
    }

    #[test]
    fn no_access_region_rejects_everything() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut m = Mprot::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        set_range(&mut m, &mut env, 0x6000, 32, Perm::None);
        assert!(m.process(&mem_packet(Opcode::Ld, 0x6000), &mut env).is_err());
        assert!(m.process(&mem_packet(Opcode::Stb, 0x6004), &mut env).is_err());
        // Just outside the range: fine.
        assert!(m.process(&mem_packet(Opcode::Ld, 0x6020), &mut env).is_ok());
    }

    #[test]
    fn permissions_can_be_upgraded_and_read_back() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut m = Mprot::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        set_range(&mut m, &mut env, 0x5000, 4, Perm::ReadOnly);
        let p = m.process(&packet_with_cpop(1, ops::READ_PERM, 0x5000, 0), &mut env).unwrap();
        assert_eq!(p, Some(Perm::ReadOnly as u32));
        set_range(&mut m, &mut env, 0x5000, 4, Perm::ReadWrite);
        assert!(m.process(&mem_packet(Opcode::St, 0x5000), &mut env).is_ok());
    }

    #[test]
    fn cfgr_matches_umc_shape() {
        let c = Mprot::new().cfgr();
        assert_eq!(c.policy(InstrClass::Ld), ForwardPolicy::Always);
        assert_eq!(c.policy(InstrClass::Add), ForwardPolicy::Ignore);
    }

    #[test]
    fn netlist_maps_to_a_small_fabric_footprint() {
        let l = flexcore_fabric::map_to_luts(&Mprot::new().netlist(), 6).lut_count();
        let umc = flexcore_fabric::map_to_luts(&crate::ext::Umc::new().netlist(), 6).lut_count();
        // Comparable to UMC: the smallest class of extension.
        assert!(l < 2 * umc, "MPROT {l} LUTs vs UMC {umc}");
    }
}
