//! Static control-flow-integrity edge extraction.
//!
//! Walks the recovered [`Cfg`](crate::Cfg) and collects the complete
//! set of legal control transfers in the image: direct branch edges
//! (source PC → static target), direct call targets, and return sites
//! (the instruction after each call's delay slot). The CFI monitoring
//! extension loads this table and traps on any committed transfer
//! outside it — a corrupted return address or a hijacked indirect jump
//! lands outside the whitelist.
//!
//! The extraction is deliberately conservative in the safe direction:
//! only transfers the disassembler *proved* reachable are whitelisted,
//! so an attack that redirects control to unreachable bytes always
//! traps. Indirect jumps (`jmpl` through a register) are checked
//! against the union of call targets and return sites, which covers
//! the workloads' `ret`/`retl` idiom and register-indirect tail calls
//! into known functions.

use flexcore_asm::Program;
use flexcore_isa::{Cond, Instruction};

use crate::cfg::build_cfg;

/// The legal-control-transfer sets recovered from one program image.
///
/// Plain sorted/deduplicated vectors so the crate stays independent of
/// any particular monitor implementation; the simulator side loads
/// them into its CFI extension's table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CfiEdges {
    /// Legal `(branch PC, branch target)` pairs for direct branches
    /// (`b<cond>` with a real condition — `bn` never transfers).
    pub branch_edges: Vec<(u32, u32)>,
    /// Legal direct-call targets (function entries), plus the program
    /// entry point.
    pub call_targets: Vec<u32>,
    /// Legal return sites: the re-entry address after each call
    /// (call PC + 8, past the delay slot).
    pub return_sites: Vec<u32>,
}

impl CfiEdges {
    /// `(branch edges, call targets, return sites)` counts.
    pub fn len(&self) -> (usize, usize, usize) {
        (self.branch_edges.len(), self.call_targets.len(), self.return_sites.len())
    }

    /// `true` when no transfer of any kind was recovered.
    pub fn is_empty(&self) -> bool {
        self.branch_edges.is_empty() && self.call_targets.is_empty() && self.return_sites.is_empty()
    }
}

/// Recovers the legal control transfers of `program` from its CFG.
///
/// Every reachable instruction (straight-line, terminating CTI, and
/// delay-slot instructions carried on edges) is examined, so a branch
/// hiding in a delay slot is still whitelisted.
pub fn cfi_edges(program: &Program) -> CfiEdges {
    let (cfg, _) = build_cfg(program);
    let mut edges = CfiEdges::default();
    for (pc, inst) in cfg.instructions() {
        match inst {
            // `bn` never transfers control; every other branch (including
            // `ba`) has exactly one static target.
            Instruction::Branch { cond, disp22, .. } if cond != Cond::N => {
                edges.branch_edges.push((pc, pc.wrapping_add((disp22 as u32) << 2)));
            }
            Instruction::Call { disp30 } => {
                edges.call_targets.push(pc.wrapping_add((disp30 as u32) << 2));
                // Execution legally re-enters just past the delay slot.
                edges.return_sites.push(pc.wrapping_add(8));
            }
            _ => {}
        }
    }
    if let Some(entry) = cfg.entry() {
        edges.call_targets.push(cfg.blocks()[entry].start);
    }
    edges.branch_edges.sort_unstable();
    edges.branch_edges.dedup();
    edges.call_targets.sort_unstable();
    edges.call_targets.dedup();
    edges.return_sites.sort_unstable();
    edges.return_sites.dedup();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_asm::assemble;

    #[test]
    fn recovers_branch_call_and_return_edges() {
        let program = assemble(
            "
            start:  call fn1
                    nop
                    cmp %o0, 3
                    be done
                    nop
                    ba done
                    nop
            fn1:    retl
                    mov 3, %o0
            done:   ta 0
            ",
        )
        .expect("assembles");
        let e = cfi_edges(&program);
        // `be` and `ba` each contribute one edge.
        assert_eq!(e.branch_edges.len(), 2, "{:?}", e.branch_edges);
        // fn1 plus the entry point.
        assert_eq!(e.call_targets.len(), 2, "{:?}", e.call_targets);
        // One call → one return site, 8 bytes past the call.
        let call_pc = e.return_sites[0] - 8;
        assert!(e.call_targets.contains(&(program.base())), "entry whitelisted");
        assert!(e.branch_edges.iter().all(|&(src, _)| src != call_pc));
    }

    #[test]
    fn bn_contributes_no_edge() {
        let program = assemble(
            "
            start:  bn nowhere
                    nop
                    ta 0
            nowhere: ta 0
            ",
        )
        .expect("assembles");
        let e = cfi_edges(&program);
        assert!(e.branch_edges.is_empty(), "{:?}", e.branch_edges);
    }

    #[test]
    fn empty_program_is_empty() {
        let program = assemble("start: ta 0").expect("assembles");
        let e = cfi_edges(&program);
        assert!(e.branch_edges.is_empty());
        assert_eq!(e.len().1, 1, "just the entry point");
        assert!(!e.is_empty());
    }
}
