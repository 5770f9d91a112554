//! Control-Flow Integrity (CFI).
//!
//! The sixth extension of the zoo (ROADMAP item 5): every committed
//! control-transfer instruction is checked against a table of valid
//! edges derived offline from the program's control-flow graph — the
//! flexcheck CFG recovery is the static counterpart that produces the
//! table (see `flexcore_analysis::cfi_edges`). Direct branches and
//! calls are checked by their *static* targets (a text-corrupting
//! fault that rewrites a displacement field changes the target and
//! trips the check), returns by their *dynamic* targets (a smashed
//! return address lands outside the recorded return sites).
//!
//! The checks are deliberately stateless per packet — no shadow stack,
//! no history — so the verdict for a packet depends only on the packet
//! and the immutable table. That property is what makes CFI the proof
//! vehicle for mid-run bitstream hot-swap: arming CFI at any commit
//! boundary yields bit-identical verdicts from that boundary onward to
//! a run that had CFI from the start.

use std::collections::BTreeSet;

use flexcore_fabric::{Netlist, NetlistBuilder};
use flexcore_isa::{Cond, InstrClass, Instruction, Operand2, Reg};
use flexcore_pipeline::TracePacket;

use crate::ext::{ExtEnv, Extension, ExtensionDescriptor, MonitorTrap};
use crate::interface::{Cfgr, ForwardPolicy};

/// The edge table CFI checks against: valid direct-branch edges, call
/// targets, and return sites, recovered offline from the CFG.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CfiTable {
    branch_edges: BTreeSet<(u32, u32)>,
    call_targets: BTreeSet<u32>,
    return_sites: BTreeSet<u32>,
}

impl CfiTable {
    /// An empty table (everything traps — useful only in tests).
    pub fn new() -> CfiTable {
        CfiTable::default()
    }

    /// Records `from → to` as a valid taken edge of a direct branch.
    pub fn allow_branch(&mut self, from: u32, to: u32) {
        self.branch_edges.insert((from, to));
    }

    /// Records `target` as a valid call destination (a function entry).
    pub fn allow_call(&mut self, target: u32) {
        self.call_targets.insert(target);
    }

    /// Records `site` as a valid return destination (a call site's
    /// post-delay-slot address).
    pub fn allow_return(&mut self, site: u32) {
        self.return_sites.insert(site);
    }

    /// `(branch edges, call targets, return sites)` cardinalities.
    pub fn len(&self) -> (usize, usize, usize) {
        (self.branch_edges.len(), self.call_targets.len(), self.return_sites.len())
    }

    /// Whether the table holds no edges at all.
    pub fn is_empty(&self) -> bool {
        self.branch_edges.is_empty() && self.call_targets.is_empty() && self.return_sites.is_empty()
    }
}

/// Control-Flow Integrity: static-edge checks for branches and calls,
/// dynamic-target checks for returns and indirect jumps, against a
/// [`CfiTable`] programmed at configuration time.
#[derive(Clone, Debug, Default)]
pub struct Cfi {
    table: CfiTable,
    edges_checked: u64,
}

impl Cfi {
    /// Creates the extension around an edge table.
    pub fn new(table: CfiTable) -> Cfi {
        Cfi { table, ..Cfi::default() }
    }

    /// The configured edge table.
    pub fn table(&self) -> &CfiTable {
        &self.table
    }

    /// Control-transfer packets checked so far.
    pub fn edges_checked(&self) -> u64 {
        self.edges_checked
    }

    fn trap(pkt: &TracePacket, what: &str, target: u32) -> MonitorTrap {
        MonitorTrap {
            pc: pkt.pc,
            reason: format!("CFI violation: {what} at {:#010x} targets {target:#010x}", pkt.pc),
        }
    }
}

impl Extension for Cfi {
    fn name(&self) -> &'static str {
        "CFI"
    }

    fn descriptor(&self) -> ExtensionDescriptor {
        ExtensionDescriptor {
            abbrev: "CFI",
            name: "Control-Flow Integrity",
            meta_data: &["valid branch-edge / call-target / return-site table"],
            transparent_ops: &["Check every committed control transfer against the edge table"],
            sw_visible_ops: &["Exception when a transfer leaves the recovered CFG"],
        }
    }

    fn cfgr(&self) -> Cfgr {
        Cfgr::new().with_classes(
            |c| {
                matches!(
                    c,
                    InstrClass::BranchCond
                        | InstrClass::BranchUncond
                        | InstrClass::Call
                        | InstrClass::Jmpl
                )
            },
            ForwardPolicy::Always,
        )
    }

    fn pipeline_stages(&self) -> u32 {
        3
    }

    fn snapshot_state(&self) -> Vec<u64> {
        vec![self.edges_checked]
    }

    fn restore_state(&mut self, state: &[u64]) {
        if let [edges_checked] = *state {
            self.edges_checked = edges_checked;
        }
    }

    fn elision_class(&self) -> u8 {
        crate::elide::ELIDE_CFI
    }

    fn check_elidable(&self, pkt: &TracePacket) -> bool {
        // Self-certifying: re-run the *static* part of the check
        // against the loaded table, so a stale elision table can never
        // flip a verdict. Direct branches and calls have static
        // targets — if the edge is recorded, `process` provably passes
        // and skipping it only skips the counter bump. Indirect jumps
        // and returns have dynamic targets the table cannot vouch for.
        match pkt.inst {
            Instruction::Branch { cond, disp22, .. } => {
                cond == Cond::N
                    || self
                        .table
                        .branch_edges
                        .contains(&(pkt.pc, pkt.pc.wrapping_add((disp22 as u32) << 2)))
            }
            Instruction::Call { disp30 } => {
                self.table.call_targets.contains(&pkt.pc.wrapping_add((disp30 as u32) << 2))
            }
            _ => false,
        }
    }

    fn process(
        &mut self,
        pkt: &TracePacket,
        _env: &mut ExtEnv<'_>,
    ) -> Result<Option<u32>, MonitorTrap> {
        match pkt.inst {
            Instruction::Branch { cond, disp22, .. } => {
                // `bn` never transfers; everything else has a static
                // taken target that must be a recorded edge.
                if cond != Cond::N {
                    self.edges_checked += 1;
                    let target = pkt.pc.wrapping_add((disp22 as u32) << 2);
                    if !self.table.branch_edges.contains(&(pkt.pc, target)) {
                        return Err(Cfi::trap(pkt, "branch", target));
                    }
                }
                Ok(None)
            }
            Instruction::Call { disp30 } => {
                self.edges_checked += 1;
                let target = pkt.pc.wrapping_add((disp30 as u32) << 2);
                if !self.table.call_targets.contains(&target) {
                    return Err(Cfi::trap(pkt, "call", target));
                }
                Ok(None)
            }
            Instruction::Jmpl { rd, rs1, op2 } => {
                self.edges_checked += 1;
                let target = pkt.srcv1.wrapping_add(match op2 {
                    Operand2::Imm(i) => i as u32,
                    Operand2::Reg(_) => pkt.srcv2,
                });
                let is_ret = rd == Reg::G0 && (rs1 == Reg::O7 || rs1 == Reg::I7);
                if is_ret {
                    if !self.table.return_sites.contains(&target) {
                        return Err(Cfi::trap(pkt, "return", target));
                    }
                } else if !self.table.call_targets.contains(&target)
                    && !self.table.return_sites.contains(&target)
                {
                    return Err(Cfi::trap(pkt, "indirect jump", target));
                }
                Ok(None)
            }
            _ => Ok(None),
        }
    }

    /// The CFI datapath: a CAM-style edge matcher. The PC and computed
    /// target are compared against a bank of stored edge registers in
    /// parallel; a transfer that matches no way raises TRAP.
    fn vcd_stimulus(&self, pkt: &TracePacket) -> Vec<bool> {
        // Input order: pc[32], target[32], is_transfer.
        let mut s = Vec::with_capacity(65);
        super::push_bits(&mut s, pkt.pc, 32);
        super::push_bits(&mut s, pkt.addr, 32);
        s.push(pkt.inst.is_control());
        s
    }

    fn netlist(&self) -> Netlist {
        const WAYS: usize = 4;
        let mut b = NetlistBuilder::new("cfi");
        let pc = b.input_bus(32);
        let target = b.input_bus(32);
        let is_transfer = b.input();

        // Stage 1: latch the FIFO fields.
        let pc_r = b.register_bus(&pc);
        let target_r = b.register_bus(&target);
        let xfer_r = b.register(is_transfer);

        // CAM ways: each way holds a stored (from, to) edge in config
        // flops and a valid bit; a way hits when both halves match.
        let mut hits = Vec::with_capacity(WAYS);
        for _ in 0..WAYS {
            let from: Vec<_> = (0..32).map(|_| b.dff()).collect();
            let to: Vec<_> = (0..32).map(|_| b.dff()).collect();
            let valid = b.dff();
            let from_eq = b.eq(&pc_r, &from);
            let to_eq = b.eq(&target_r, &to);
            let pair = b.and(from_eq, to_eq);
            hits.push(b.and(pair, valid));
        }
        let any_hit = b.reduce_or(&hits);
        let hit_r = b.register(any_hit);
        b.output("hit", hit_r);

        // Trap on a transfer that matched no way.
        let xfer_r2 = b.register(xfer_r);
        let miss = b.not(hit_r);
        let trap = b.and(xfer_r2, miss);
        let trap_r = b.register(trap);
        b.output("trap", trap_r);

        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::tests_util::{env_parts, packet};
    use flexcore_fabric::{map_to_luts, LUT_K};

    fn branch_packet(pc: u32, cond: Cond, disp22: i32) -> TracePacket {
        let mut p = packet(Instruction::Branch { cond, annul: false, disp22 });
        p.pc = pc;
        p
    }

    fn call_packet(pc: u32, disp30: i32) -> TracePacket {
        let mut p = packet(Instruction::Call { disp30 });
        p.pc = pc;
        p
    }

    fn ret_packet(pc: u32, o7: u32) -> TracePacket {
        let mut p = packet(Instruction::Jmpl { rd: Reg::G0, rs1: Reg::O7, op2: Operand2::Imm(8) });
        p.pc = pc;
        p.srcv1 = o7;
        p
    }

    #[test]
    fn recorded_edges_pass_and_foreign_edges_trap() {
        let mut t = CfiTable::new();
        t.allow_branch(0x1000, 0x1040);
        t.allow_call(0x2000);
        t.allow_return(0x1008);
        let mut cfi = Cfi::new(t);
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);

        // Branch along the recorded edge: disp22 = (0x1040-0x1000)/4.
        assert!(cfi.process(&branch_packet(0x1000, Cond::E, 0x10), &mut env).is_ok());
        // Same branch site, corrupted displacement: traps.
        let err = cfi.process(&branch_packet(0x1000, Cond::E, 0x11), &mut env).unwrap_err();
        assert!(err.reason.contains("branch"));

        // Call to the recorded target from pc 0x1000: disp30 = 0x400.
        assert!(cfi.process(&call_packet(0x1000, 0x400), &mut env).is_ok());
        let err = cfi.process(&call_packet(0x1000, 0x401), &mut env).unwrap_err();
        assert!(err.reason.contains("call"));

        // Return to the recorded site (%o7 = 0x1000 → target 0x1008).
        assert!(cfi.process(&ret_packet(0x2010, 0x1000), &mut env).is_ok());
        // Smashed return address.
        let err = cfi.process(&ret_packet(0x2010, 0x5000), &mut env).unwrap_err();
        assert!(err.reason.contains("return"));

        assert_eq!(cfi.edges_checked(), 6);
    }

    #[test]
    fn bn_and_non_transfers_are_ignored() {
        let mut cfi = Cfi::new(CfiTable::new());
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        // `bn` never branches: no edge needed even with an empty table.
        assert!(cfi.process(&branch_packet(0x1000, Cond::N, 0x10), &mut env).is_ok());
        // Non-control packets pass through.
        let alu =
            packet(Instruction::alu(flexcore_isa::Opcode::Add, Reg::G1, Reg::G2, Operand2::Imm(1)));
        assert!(cfi.process(&alu, &mut env).is_ok());
        assert_eq!(cfi.edges_checked(), 0);
    }

    #[test]
    fn state_round_trips_through_snapshot() {
        let mut t = CfiTable::new();
        t.allow_call(0x2000);
        let mut cfi = Cfi::new(t.clone());
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        cfi.process(&call_packet(0x1000, 0x400), &mut env).unwrap();
        let state = cfi.snapshot_state();
        let mut fresh = Cfi::new(t);
        fresh.restore_state(&state);
        assert_eq!(fresh.edges_checked(), 1);
    }

    #[test]
    fn cfgr_forwards_only_control_transfers() {
        let c = Cfi::new(CfiTable::new()).cfgr();
        assert_eq!(c.policy(InstrClass::BranchCond), ForwardPolicy::Always);
        assert_eq!(c.policy(InstrClass::Call), ForwardPolicy::Always);
        assert_eq!(c.policy(InstrClass::Jmpl), ForwardPolicy::Always);
        assert_eq!(c.policy(InstrClass::Ld), ForwardPolicy::Ignore);
        assert_eq!(c.policy(InstrClass::Add), ForwardPolicy::Ignore);
    }

    #[test]
    fn netlist_is_nontrivial_and_maps() {
        let n = Cfi::new(CfiTable::new()).netlist();
        assert!(n.logic_gates() > 50);
        let m = map_to_luts(&n, LUT_K);
        assert!(m.lut_count() > 30, "{}", m.lut_count());
        assert!(m.depth() >= 2);
    }
}
