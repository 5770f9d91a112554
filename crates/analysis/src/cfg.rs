//! Control-flow graph recovery over assembled program images.
//!
//! The CFG is recovered by reachability-driven disassembly: a worklist
//! walk from the program entry that follows branch targets and
//! fall-throughs, so data words interleaved with code (`.word` tables,
//! `.space` buffers) are never mis-decoded as instructions.
//!
//! SPARC delay slots are modeled on the **edges**: a block ends at a
//! control-transfer instruction (CTI), and each outgoing edge carries
//! the delay-slot instruction *if it executes along that edge* — taken
//! and fall-through edges of a plain conditional branch both carry it,
//! the fall-through edge of an annulling branch (`b<cond>,a`) does not,
//! and `ba,a` annuls its slot on the only edge there is.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use flexcore_asm::Program;
use flexcore_isa::{decode, Cond, Instruction, Reg};

use crate::diag::{Diagnostic, Rule};

/// How a basic block ends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TermKind {
    /// Falls through into the next block (split at a join point).
    FallsThrough,
    /// Ends at a branch or call.
    Branch,
    /// Ends at an unconditional trap (`ta` — the workloads' halt).
    Halt,
    /// Ends at an indirect jump (`jmpl`, including `ret`/`retl`).
    Return,
    /// Execution runs off the image or into an undecodable word.
    Invalid,
}

/// One outgoing control-flow edge.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Destination block index.
    pub to: usize,
    /// The delay-slot instruction executed along this edge, if any.
    pub delay: Option<(u32, Instruction)>,
    /// True for the call-site → return-point edge of a `call`: value
    /// analyses must assume the callee clobbered register *values*
    /// (initialization state survives — a callee never de-initializes
    /// a register).
    pub call_return: bool,
    /// For a *conditional* branch, the condition and whether this is
    /// the taken edge — value analyses refine ranges from it (`cmp
    /// %r, k; bl target` bounds `%r` on both edges). `None` for
    /// unconditional control flow.
    pub branch: Option<(Cond, bool)>,
}

/// A basic block: straight-line instructions ending at a CTI, a halt,
/// or a join point.
#[derive(Clone, Debug)]
pub struct Block {
    /// Address of the first instruction.
    pub start: u32,
    /// Instructions in order, including the terminating CTI (but not
    /// its delay slot — that lives on the edges).
    pub insts: Vec<(u32, Instruction)>,
    /// How the block ends.
    pub term: TermKind,
    /// Outgoing edges.
    pub succs: Vec<Edge>,
    /// Predecessor block indices (unordered, deduplicated).
    pub preds: Vec<usize>,
}

/// The recovered control-flow graph.
#[derive(Clone, Debug)]
pub struct Cfg {
    base: u32,
    end: u32,
    entry: Option<usize>,
    blocks: Vec<Block>,
    code_addrs: BTreeSet<u32>,
}

impl Cfg {
    /// All basic blocks, sorted by start address.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Index of the entry block (`None` for an empty or undecodable
    /// program).
    pub fn entry(&self) -> Option<usize> {
        self.entry
    }

    /// Load address of the first image byte.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// One past the last image byte.
    pub fn end(&self) -> u32 {
        self.end
    }

    /// Whether `addr` holds a reachable instruction (including delay
    /// slots).
    pub fn is_code(&self, addr: u32) -> bool {
        self.code_addrs.contains(&addr)
    }

    /// Number of reachable instructions (including delay slots).
    pub fn code_len(&self) -> usize {
        self.code_addrs.len()
    }

    /// Every reachable instruction as `(pc, inst)`, delay slots
    /// included: each block's instructions in order, then the delay
    /// slot its edges carry. A delay slot that is also a branch target
    /// (an error diagnostic) is yielded twice.
    pub fn instructions(&self) -> impl Iterator<Item = (u32, Instruction)> + '_ {
        self.blocks
            .iter()
            .flat_map(|b| b.insts.iter().copied().chain(b.succs.iter().find_map(|e| e.delay)))
    }
}

/// One successor of a CTI, before block indices exist.
#[derive(Clone, Copy)]
struct RawEdge {
    to: u32,
    delay: bool,
    call_return: bool,
    branch: Option<(Cond, bool)>,
}

impl RawEdge {
    fn plain(to: u32) -> Self {
        RawEdge { to, delay: false, call_return: false, branch: None }
    }
}

/// The computed successor set of one CTI, before block indices exist.
struct RawTerm {
    kind: TermKind,
    succs: Vec<RawEdge>,
    delay: Option<(u32, Instruction)>,
}

/// Builds the CFG and reports structural diagnostics (delay-slot
/// hazards, bad targets, unreachable code).
pub fn build_cfg(program: &Program) -> (Cfg, Vec<Diagnostic>) {
    let base = program.base();
    let words = program.words();
    let end = base + (words.len() as u32) * 4;
    let inst_at = |addr: u32| -> Option<Result<Instruction, u32>> {
        if addr < base || addr >= end || !addr.is_multiple_of(4) {
            return None;
        }
        let w = words[((addr - base) / 4) as usize];
        Some(decode(w).map_err(|_| w))
    };

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut visited: BTreeMap<u32, Instruction> = BTreeMap::new();
    let mut leaders: BTreeSet<u32> = BTreeSet::new();
    let mut delay_addrs: BTreeSet<u32> = BTreeSet::new();
    let mut terms: HashMap<u32, RawTerm> = HashMap::new();
    let mut worklist: Vec<u32> = Vec::new();

    let entry_addr = program.entry();
    leaders.insert(entry_addr);
    worklist.push(entry_addr);

    while let Some(start) = worklist.pop() {
        if visited.contains_key(&start) {
            continue;
        }
        let mut pc = start;
        loop {
            let inst = match inst_at(pc) {
                None => {
                    diags.push(Diagnostic::new(
                        Rule::FallsOffImage,
                        Some(pc),
                        format!("execution reaches {pc:#010x}, outside the loaded image"),
                    ));
                    terms.insert(
                        pc,
                        RawTerm { kind: TermKind::Invalid, succs: vec![], delay: None },
                    );
                    break;
                }
                Some(Err(word)) => {
                    diags.push(Diagnostic::new(
                        Rule::FallsOffImage,
                        Some(pc),
                        format!(
                            "execution reaches undecodable word {word:#010x} (data run as code?)"
                        ),
                    ));
                    terms.insert(
                        pc,
                        RawTerm { kind: TermKind::Invalid, succs: vec![], delay: None },
                    );
                    break;
                }
                Some(Ok(i)) => i,
            };
            visited.insert(pc, inst);
            if inst.is_control() {
                let raw =
                    explore_cti(pc, inst, &inst_at, &mut visited, &mut delay_addrs, &mut diags);
                for e in &raw.succs {
                    leaders.insert(e.to);
                    worklist.push(e.to);
                }
                terms.insert(pc, raw);
                break;
            }
            if let Instruction::Trap { cond: Cond::A, .. } = inst {
                terms.insert(pc, RawTerm { kind: TermKind::Halt, succs: vec![], delay: None });
                break;
            }
            let next = pc.wrapping_add(4);
            if visited.contains_key(&next) || leaders.contains(&next) {
                // Fall-through into code discovered from another path:
                // split there.
                leaders.insert(next);
                terms.insert(
                    pc,
                    RawTerm {
                        kind: TermKind::FallsThrough,
                        succs: vec![RawEdge::plain(next)],
                        delay: None,
                    },
                );
                break;
            }
            pc = next;
        }
    }

    // ---- assemble blocks --------------------------------------------
    // Delay slots that are not branched into belong to their CTI's
    // edges, not to any block.
    let edge_only_delays: BTreeSet<u32> =
        delay_addrs.iter().copied().filter(|a| !leaders.contains(a)).collect();
    for &a in delay_addrs.iter().filter(|a| leaders.contains(a)) {
        diags.push(Diagnostic::new(
            Rule::BranchIntoDelaySlot,
            Some(a),
            format!("{a:#010x} is both a branch target and the delay slot of {:#010x}", a - 4),
        ));
    }

    let mut blocks: Vec<Block> = Vec::new();
    let mut block_of: HashMap<u32, usize> = HashMap::new();
    for &leader in leaders.iter() {
        if !visited.contains_key(&leader) {
            continue; // target that failed to decode; already diagnosed
        }
        let idx = blocks.len();
        block_of.insert(leader, idx);
        let mut insts = Vec::new();
        let mut pc = leader;
        let (term, raw_succs, delay) = loop {
            let inst = visited[&pc];
            insts.push((pc, inst));
            if let Some(raw) = terms.get(&pc) {
                break (raw.kind, raw.succs.clone(), raw.delay);
            }
            let next = pc.wrapping_add(4);
            if leaders.contains(&next)
                || edge_only_delays.contains(&next)
                || !visited.contains_key(&next)
            {
                // Join point (or the walk is about to leave this
                // block's linear run): synthesize a fall-through.
                break (TermKind::FallsThrough, vec![RawEdge::plain(next)], None);
            }
            pc = next;
        };
        blocks.push(Block {
            start: leader,
            insts,
            term,
            // Temporarily store raw targets; resolved below.
            succs: raw_succs
                .iter()
                .map(|e| Edge {
                    to: e.to as usize, // placeholder: raw address, fixed up next
                    delay: if e.delay { delay } else { None },
                    call_return: e.call_return,
                    branch: e.branch,
                })
                .collect(),
            preds: Vec::new(),
        });
    }

    // Resolve raw edge addresses to block indices; drop edges into
    // nothing (already diagnosed).
    for block in blocks.iter_mut() {
        let resolved: Vec<Edge> = block
            .succs
            .iter()
            .filter_map(|e| {
                block_of.get(&(e.to as u32)).map(|&idx| Edge {
                    to: idx,
                    delay: e.delay,
                    call_return: e.call_return,
                    branch: e.branch,
                })
            })
            .collect();
        block.succs = resolved;
    }
    for b in 0..blocks.len() {
        for s in 0..blocks[b].succs.len() {
            let to = blocks[b].succs[s].to;
            if !blocks[to].preds.contains(&b) {
                blocks[to].preds.push(b);
            }
        }
    }

    let code_addrs: BTreeSet<u32> = visited.keys().copied().collect();
    report_unreachable(program, base, end, &code_addrs, &mut diags);

    let cfg = Cfg { base, end, entry: block_of.get(&entry_addr).copied(), blocks, code_addrs };
    (cfg, diags)
}

/// Explores one CTI: decodes its delay slot, diagnoses hazards, and
/// computes the raw successor set with per-edge delay execution.
fn explore_cti(
    pc: u32,
    inst: Instruction,
    inst_at: &dyn Fn(u32) -> Option<Result<Instruction, u32>>,
    visited: &mut BTreeMap<u32, Instruction>,
    delay_addrs: &mut BTreeSet<u32>,
    diags: &mut Vec<Diagnostic>,
) -> RawTerm {
    let delay_pc = pc.wrapping_add(4);
    let delay = match inst_at(delay_pc) {
        Some(Ok(d)) => {
            visited.insert(delay_pc, d);
            delay_addrs.insert(delay_pc);
            if d.is_control() {
                diags.push(Diagnostic::new(
                    Rule::DelaySlotCti,
                    Some(delay_pc),
                    format!("control-transfer `{d}` in the delay slot of `{inst}`"),
                ));
            }
            Some((delay_pc, d))
        }
        Some(Err(word)) => {
            diags.push(Diagnostic::new(
                Rule::FallsOffImage,
                Some(delay_pc),
                format!("delay slot of `{inst}` holds undecodable word {word:#010x}"),
            ));
            None
        }
        None => {
            diags.push(Diagnostic::new(
                Rule::FallsOffImage,
                Some(delay_pc),
                format!("delay slot of `{inst}` lies outside the image"),
            ));
            None
        }
    };
    let delay_is_nop = delay.as_ref().is_some_and(|(_, d)| d.is_nop());

    let mut check_target = |target: u32, what: &str| -> Option<u32> {
        match inst_at(target) {
            Some(_) => Some(target),
            None => {
                diags.push(Diagnostic::new(
                    Rule::TargetOutOfImage,
                    Some(pc),
                    format!("{what} `{inst}` targets {target:#010x}, outside the loaded image"),
                ));
                None
            }
        }
    };

    let mut succs: Vec<RawEdge> = Vec::new();
    match inst {
        Instruction::Branch { cond, annul, disp22 } => {
            let target = pc.wrapping_add((disp22 as u32) << 2);
            let ft = pc.wrapping_add(8);
            match cond {
                Cond::A => {
                    if let Some(t) = check_target(target, "branch") {
                        succs.push(RawEdge { delay: !annul, ..RawEdge::plain(t) });
                    }
                    if annul && !delay_is_nop {
                        if let Some((da, d)) = &delay {
                            diags.push(Diagnostic::new(
                                Rule::AnnulledSlotDead,
                                Some(*da),
                                format!(
                                    "`{d}` in the delay slot of `ba,a` is always annulled (dead)"
                                ),
                            ));
                        }
                    }
                }
                Cond::N => {
                    // `bn` never branches; it is a two-word nop (or a
                    // one-word nop with `,a`).
                    succs.push(RawEdge { delay: !annul, ..RawEdge::plain(ft) });
                }
                _ => {
                    if let Some(t) = check_target(target, "branch") {
                        succs.push(RawEdge {
                            delay: true,
                            branch: Some((cond, true)),
                            ..RawEdge::plain(t)
                        });
                    }
                    succs.push(RawEdge {
                        delay: !annul,
                        branch: Some((cond, false)),
                        ..RawEdge::plain(ft)
                    });
                    if annul && delay_is_nop {
                        diags.push(Diagnostic::new(
                            Rule::UselessAnnul,
                            Some(pc),
                            format!("`{inst}` annuls a delay slot that holds only `nop`"),
                        ));
                    }
                }
            }
        }
        Instruction::Call { disp30 } => {
            let target = pc.wrapping_add((disp30 as u32) << 2);
            if let Some(t) = check_target(target, "call") {
                succs.push(RawEdge { delay: true, ..RawEdge::plain(t) });
            }
            // Assume the callee returns to the post-delay-slot address.
            succs.push(RawEdge {
                delay: true,
                call_return: true,
                ..RawEdge::plain(pc.wrapping_add(8))
            });
        }
        Instruction::Jmpl { rd, rs1, .. } => {
            let is_ret = rd == Reg::G0 && (rs1 == Reg::O7 || rs1 == Reg::I7);
            if !is_ret {
                diags.push(Diagnostic::new(
                    Rule::IndirectJump,
                    Some(pc),
                    format!("indirect jump `{inst}`: target not statically resolvable"),
                ));
            }
            return RawTerm { kind: TermKind::Return, succs, delay };
        }
        _ => unreachable!("is_control() covers Branch/Call/Jmpl only"),
    }
    RawTerm { kind: TermKind::Branch, succs, delay }
}

/// Flags decodable-but-unreached instruction runs. Labeled regions are
/// assumed to be data (the workloads label every table and buffer);
/// unlabeled regions that decode cleanly end-to-end are reported.
fn report_unreachable(
    program: &Program,
    base: u32,
    end: u32,
    code: &BTreeSet<u32>,
    diags: &mut Vec<Diagnostic>,
) {
    let words = program.words();
    let labeled: BTreeSet<u32> = program.symbols().map(|(_, a)| a).collect();
    let mut gap_start: Option<u32> = None;
    let mut addr = base;
    while addr <= end {
        let in_gap = addr < end && !code.contains(&addr);
        match (gap_start, in_gap) {
            (None, true) => gap_start = Some(addr),
            (Some(g), got) if !got || labeled.contains(&addr) => {
                // Close the gap at a label, reachable code, or the end.
                let gap_words = ((addr - g) / 4) as usize;
                let first = ((g - base) / 4) as usize;
                let all_decode =
                    words[first..first + gap_words].iter().all(|&w| w != 0 && decode(w).is_ok());
                // A labeled gap start is data by assumption.
                if all_decode && gap_words > 0 && !labeled.contains(&g) {
                    diags.push(Diagnostic::new(
                        Rule::UnreachableCode,
                        Some(g),
                        format!(
                            "{gap_words} decodable instruction{} at {g:#010x} unreachable from the entry",
                            if gap_words == 1 { "" } else { "s" }
                        ),
                    ));
                }
                gap_start = if got && addr < end { Some(addr) } else { None };
            }
            _ => {}
        }
        if addr == end {
            break;
        }
        addr += 4;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_asm::assemble;

    fn cfg_of(src: &str) -> (Cfg, Vec<Diagnostic>) {
        build_cfg(&assemble(src).expect("test source assembles"))
    }

    #[test]
    fn straight_line_is_one_block() {
        let (cfg, diags) = cfg_of("start: add %g1, 1, %g2\n mov 3, %g3\n ta 0");
        assert_eq!(cfg.blocks().len(), 1);
        assert_eq!(cfg.blocks()[0].term, TermKind::Halt);
        assert_eq!(cfg.blocks()[0].insts.len(), 3);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn loop_has_back_edge_and_split() {
        let (cfg, _) = cfg_of(
            "start: clr %g1
             loop:  inc %g1
                    cmp %g1, 10
                    bl loop
                    nop
                    ta 0",
        );
        // Blocks: [start], [loop..bl], [ta 0].
        assert_eq!(cfg.blocks().len(), 3);
        let loop_blk = &cfg.blocks()[1];
        assert_eq!(loop_blk.term, TermKind::Branch);
        assert_eq!(loop_blk.succs.len(), 2);
        // Both edges of a non-annulling conditional branch execute the
        // delay slot.
        assert!(loop_blk.succs.iter().all(|e| e.delay.is_some()));
        // The loop header has two predecessors: entry and itself.
        assert_eq!(cfg.blocks()[1].preds.len(), 2);
    }

    #[test]
    fn ba_annul_edge_skips_delay() {
        let (cfg, diags) = cfg_of(
            "start: ba,a out
                    add %g1, 1, %g1
             out:   ta 0",
        );
        let entry = &cfg.blocks()[cfg.entry().unwrap()];
        assert_eq!(entry.succs.len(), 1);
        assert!(entry.succs[0].delay.is_none(), "ba,a annuls its slot");
        assert!(
            diags.iter().any(|d| d.rule == Rule::AnnulledSlotDead),
            "the annulled add is dead: {diags:?}"
        );
    }

    #[test]
    fn annulling_conditional_executes_delay_only_when_taken() {
        let (cfg, _) = cfg_of(
            "start: cmp %g1, 0
                    be,a out
                    add %g2, 1, %g2
                    ta 1
             out:   ta 0",
        );
        let b = cfg
            .blocks()
            .iter()
            .find(|b| matches!(b.insts.last(), Some((_, Instruction::Branch { .. }))))
            .unwrap();
        let taken = b.succs.iter().find(|e| e.delay.is_some()).expect("taken edge has delay");
        let untaken = b.succs.iter().find(|e| e.delay.is_none()).expect("untaken edge annuls");
        assert_ne!(taken.to, untaken.to);
    }

    #[test]
    fn data_words_are_not_disassembled() {
        let (cfg, diags) = cfg_of(
            "start: ta 0
             tbl:   .word 0x80102030, 12345
                    .space 16",
        );
        assert_eq!(cfg.blocks().len(), 1);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unlabeled_dead_code_is_flagged() {
        let (_, diags) = cfg_of(
            "start: ba done
                    nop
                    add %g1, 1, %g1
                    add %g2, 1, %g2
             done:  ta 0",
        );
        assert!(diags.iter().any(|d| d.rule == Rule::UnreachableCode), "{diags:?}");
    }

    #[test]
    fn cti_in_delay_slot_is_an_error() {
        let (_, diags) = cfg_of(
            "start: ba out
                    ba out
             out:   ta 0",
        );
        assert!(diags.iter().any(|d| d.rule == Rule::DelaySlotCti && d.is_error()), "{diags:?}");
    }

    #[test]
    fn branch_off_image_is_an_error() {
        let (_, diags) = cfg_of("start: ba .+0x100000\n nop");
        assert!(diags.iter().any(|d| d.rule == Rule::TargetOutOfImage), "{diags:?}");
    }

    #[test]
    fn running_off_the_image_is_an_error() {
        let (_, diags) = cfg_of("start: add %g1, 1, %g1");
        assert!(diags.iter().any(|d| d.rule == Rule::FallsOffImage), "{diags:?}");
    }

    #[test]
    fn call_produces_target_and_return_edges() {
        let (cfg, _) = cfg_of(
            "start: call fn
                    nop
                    ta 0
             fn:    retl
                    nop",
        );
        let entry = &cfg.blocks()[cfg.entry().unwrap()];
        assert_eq!(entry.term, TermKind::Branch);
        assert_eq!(entry.succs.len(), 2);
        assert_eq!(entry.succs.iter().filter(|e| e.call_return).count(), 1);
        let ret_blk = cfg
            .blocks()
            .iter()
            .find(|b| matches!(b.insts.last(), Some((_, Instruction::Jmpl { .. }))))
            .unwrap();
        assert_eq!(ret_blk.term, TermKind::Return);
        assert!(ret_blk.succs.is_empty());
    }

    #[test]
    fn six_workloads_recover_nontrivial_cfgs() {
        for w in flexcore_workloads::Workload::all() {
            let p = w.program().unwrap();
            let (cfg, _) = build_cfg(&p);
            assert!(cfg.blocks().len() > 5, "{}: {} blocks", w.name(), cfg.blocks().len());
            assert!(cfg.entry().is_some(), "{}", w.name());
            // Every kernel loops somewhere: at least one back edge.
            let back_edges = cfg
                .blocks()
                .iter()
                .enumerate()
                .flat_map(|(i, b)| b.succs.iter().map(move |e| (i, e.to)))
                .filter(|&(from, to)| cfg.blocks()[to].start <= cfg.blocks()[from].start)
                .count();
            assert!(back_edges > 0, "{}", w.name());
        }
    }
}
