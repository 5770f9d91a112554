//! Flow-sensitive, interprocedural static taint propagation — the
//! DIFT half of check elision.
//!
//! The dynamic DIFT extension carries a 1-bit taint tag per register
//! and per memory word, propagates tags through ALU/load/store
//! traffic, and checks them on indirect jumps. This pass runs the same
//! propagation *statically*, over the recovered [`Cfg`], with a
//! three-point lattice per register and per tracked memory word:
//!
//! ```text
//!        ⊤  (unknown: may or may not carry taint)
//!       / \
//!  Untainted  Tainted
//! ```
//!
//! Taint *sources* are loads from the console input region
//! (`>= CONSOLE_BASE`); *sinks* are indirect jumps (the dynamic trap
//! site) and stores (where taint escapes to memory) — both reported as
//! diagnostics when must-taint reaches them. The payload, though, is
//! the **elision proof**: a PC is DIFT-elidable when every static path
//! proves the dynamic DIFT step at that PC is a no-op — the tag it
//! would write is already in place and the check it would run cannot
//! trap. Those PCs skip fabric forwarding entirely at run time.
//!
//! Soundness leans on one inequality: a static [`Taint::Untainted`]
//! verdict implies the dynamic tag bit is 0. Dynamic taint enters only
//! through `cpop` software ops and console-region metadata (which the
//! dynamic monitor treats as *un*tainted, so the static `Tainted`
//! source over-approximates it). Any reachable `cpop`, or any indirect
//! jump that is not a plain `ret`/`retl` (whose dynamic successor the
//! CFG cannot model), forfeits the whole elision set.
//!
//! Calls are summarized: a call-site → return-point edge smashes the
//! registers the callee may transitively write to ⊤ and, if the callee
//! may store, the whole memory taint image to ⊤ — mirroring how the
//! constant pass treats the same edges, but register-precise.

use std::collections::BTreeMap;

use flexcore_asm::Program;
use flexcore_isa::interp::CONSOLE_BASE;
use flexcore_isa::{Instruction, Opcode, Operand2, Reg, NUM_REGS};

use crate::cfg::{build_cfg, Block, Cfg};
use crate::dataflow::{
    const_transfer, pair_of, refine_edge, write_regs, ConstState, Interval, META_BASE, TOP,
    WIDEN_LIMIT,
};
use crate::diag::{Diagnostic, Rule};

/// One point of the per-register / per-word taint lattice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Taint {
    /// Provably tag-0 on every path (the elision-enabling fact).
    Untainted,
    /// Provably input-derived on every path (the diagnostic fact).
    Tainted,
    /// Unknown — differs across paths or laundered through a callee.
    Top,
}

impl Taint {
    /// Control-flow join: agree or give up.
    fn join(self, o: Taint) -> Taint {
        if self == o {
            self
        } else {
            Taint::Top
        }
    }

    /// Dataflow combination mirroring the dynamic `t1 | t2` of tag
    /// bits: any tainted source taints the result.
    fn or(self, o: Taint) -> Taint {
        match (self, o) {
            (Taint::Top, _) | (_, Taint::Top) => Taint::Top,
            (Taint::Tainted, _) | (_, Taint::Tainted) => Taint::Tainted,
            _ => Taint::Untainted,
        }
    }

    fn clean(self) -> bool {
        self == Taint::Untainted
    }
}

/// Word-granular taint image of monitored memory: a blanket value for
/// every untracked word plus strong-updated exceptions at words whose
/// store addresses resolved exactly.
#[derive(Clone, PartialEq, Eq)]
struct MemTaint {
    blanket: Taint,
    /// Invariant: values differ from `blanket` (normalized), keys are
    /// word-aligned, and the map stays under [`MAX_TRACKED`].
    tracked: BTreeMap<u32, Taint>,
}

/// Tracked-word cap; past it the image collapses to its join.
const MAX_TRACKED: usize = 256;

impl MemTaint {
    fn untainted() -> MemTaint {
        MemTaint { blanket: Taint::Untainted, tracked: BTreeMap::new() }
    }

    fn top() -> MemTaint {
        MemTaint { blanket: Taint::Top, tracked: BTreeMap::new() }
    }

    fn word(&self, addr: u32) -> Taint {
        self.tracked.get(&(addr & !3)).copied().unwrap_or(self.blanket)
    }

    /// Join over every word the image could hold (the verdict for a
    /// load whose address did not resolve).
    fn any(&self) -> Taint {
        self.tracked.values().fold(self.blanket, |a, &t| a.join(t))
    }

    fn set_word(&mut self, addr: u32, t: Taint) {
        let key = addr & !3;
        if t == self.blanket {
            self.tracked.remove(&key);
        } else {
            self.tracked.insert(key, t);
            if self.tracked.len() > MAX_TRACKED {
                self.blanket = self.any();
                self.tracked.clear();
            }
        }
    }

    /// A store of taint `t` to an unresolved address: every word *may*
    /// have been overwritten.
    fn store_unknown(&mut self, t: Taint) {
        self.blanket = self.blanket.join(t);
        let joined: Vec<(u32, Taint)> =
            self.tracked.iter().map(|(&a, &v)| (a, v.join(t))).collect();
        self.tracked.clear();
        for (a, v) in joined {
            if v != self.blanket {
                self.tracked.insert(a, v);
            }
        }
    }

    fn join_from(&mut self, o: &MemTaint) -> bool {
        let before = self.clone();
        let keys: Vec<u32> = self.tracked.keys().chain(o.tracked.keys()).copied().collect();
        let blanket = self.blanket.join(o.blanket);
        let mut tracked = BTreeMap::new();
        for k in keys {
            let v = self.word(k).join(o.word(k));
            if v != blanket {
                tracked.insert(k, v);
            }
        }
        self.blanket = blanket;
        self.tracked = tracked;
        if self.tracked.len() > MAX_TRACKED {
            self.blanket = self.any();
            self.tracked.clear();
        }
        *self != before
    }
}

/// Combined fixpoint state: the constant domain (for address
/// resolution) plus the taint image of registers and monitored memory.
/// The constants are solved again alongside the taint, with this
/// pass's own join counts deciding when to widen, so they can be
/// coarser or finer than `analyze_dataflow`'s solution.
#[derive(Clone, PartialEq, Eq)]
struct State {
    consts: ConstState,
    regs: [Taint; NUM_REGS],
    mem: MemTaint,
}

impl State {
    fn entry() -> State {
        // Core reset zeroes every shadow tag and memory tag.
        State {
            consts: ConstState::entry(),
            regs: [Taint::Untainted; NUM_REGS],
            mem: MemTaint::untainted(),
        }
    }

    fn tag(&self, r: Reg) -> Taint {
        if r.is_zero() {
            Taint::Untainted // `%g0`'s shadow tag is hardwired 0
        } else {
            self.regs[r.index()]
        }
    }

    fn set_tag(&mut self, r: Reg, t: Taint) {
        if !r.is_zero() {
            self.regs[r.index()] = t;
        }
    }

    fn op2_tag(&self, op2: Operand2) -> Taint {
        match op2 {
            Operand2::Reg(r) => self.tag(r),
            Operand2::Imm(_) => Taint::Untainted,
        }
    }
}

/// What a call-site → return-point edge assumes about the callee.
#[derive(Clone, Copy)]
struct Summary {
    /// Bitmask of registers the callee (transitively) may write.
    writes: u32,
    /// Whether the callee (transitively) may store.
    has_store: bool,
}

const WORST_SUMMARY: Summary = Summary { writes: u32::MAX, has_store: true };

/// Result of [`analyze_taint`].
#[derive(Clone, Debug, Default)]
pub struct TaintReport {
    /// Taint-sink findings ([`Rule::TaintedJump`], [`Rule::TaintedStore`]),
    /// sorted by `(addr, rule, severity)` and deduplicated.
    pub diagnostics: Vec<Diagnostic>,
    /// PCs whose dynamic DIFT step is statically proven a no-op on
    /// every path reaching them (sorted, deduplicated).
    pub dift_elidable: Vec<u32>,
    /// `true` when a reachable `cpop` or unresolvable indirect jump
    /// forfeited the elision set (the report is then empty).
    pub forfeited: bool,
}

/// Runs the taint fixpoint over `program`'s recovered CFG.
pub fn analyze_taint(program: &Program) -> TaintReport {
    let (cfg, _) = build_cfg(program);
    analyze_taint_cfg(&cfg)
}

/// Runs the taint fixpoint over an already-recovered CFG (what
/// `flexcheck` uses after `analyze_program`).
pub fn analyze_taint_cfg(cfg: &Cfg) -> TaintReport {
    let Some(entry) = cfg.entry() else {
        return TaintReport::default();
    };
    if forfeits(cfg) {
        return TaintReport { forfeited: true, ..TaintReport::default() };
    }
    let summaries = call_summaries(cfg);

    // ---- fixpoint ---------------------------------------------------
    // Not `dataflow::forward_fixpoint`: widening fires on join counts,
    // so the result depends on worklist order. This worklist re-pushes
    // a block on every change, duplicates included, and counts every
    // join. Moving the pass onto `forward_fixpoint` grows sha's
    // DIFT-elidable set from 54 to 115 PCs, and dropping that
    // function's duplicate check instead loses stringsearch's 2 proven
    // loads; either moves the `+elide` runs.
    let nblocks = cfg.blocks().len();
    let mut states: Vec<Option<State>> = vec![None; nblocks];
    let mut join_counts: Vec<u32> = vec![0; nblocks];
    states[entry] = Some(State::entry());
    let mut work = vec![entry];
    while let Some(b) = work.pop() {
        let Some(in_state) = states[b].clone() else { continue };
        let block = &cfg.blocks()[b];
        let mut s = in_state;
        for (pc, inst) in &block.insts {
            transfer(&mut s, *pc, inst);
        }
        for edge in &block.succs {
            let mut t = s.clone();
            refine_edge(&mut t.consts, edge);
            if let Some((dpc, dinst)) = &edge.delay {
                transfer(&mut t, *dpc, dinst);
            }
            if edge.call_return {
                apply_summary(&mut t, summaries.get(&b).copied().unwrap_or(WORST_SUMMARY));
            }
            match &mut states[edge.to] {
                Some(dst) => {
                    join_counts[edge.to] += 1;
                    if join_state(dst, &t, join_counts[edge.to] > WIDEN_LIMIT) {
                        work.push(edge.to);
                    }
                }
                None => {
                    states[edge.to] = Some(t);
                    work.push(edge.to);
                }
            }
        }
    }

    // ---- replay: per-PC verdicts and sink diagnostics ---------------
    // A PC seen on several paths (delay slots live on edges, blocks can
    // be re-entered) is elidable only if *every* occurrence proves it.
    let mut verdicts: BTreeMap<u32, bool> = BTreeMap::new();
    let mut sinks: BTreeMap<(u32, &'static str), Diagnostic> = BTreeMap::new();
    let mut record = |s: &State, pc: u32, inst: &Instruction| {
        if let Some(v) = elidable(s, inst) {
            verdicts.entry(pc).and_modify(|e| *e &= v).or_insert(v);
        }
        for d in sink_diags(s, pc, inst) {
            sinks.entry((pc, d.rule.id())).or_insert(d);
        }
    };
    for (b, block) in cfg.blocks().iter().enumerate() {
        let Some(in_state) = &states[b] else { continue };
        let mut s = in_state.clone();
        for (pc, inst) in &block.insts {
            record(&s, *pc, inst);
            transfer(&mut s, *pc, inst);
        }
        for edge in &block.succs {
            if let Some((dpc, dinst)) = &edge.delay {
                let mut t = s.clone();
                refine_edge(&mut t.consts, edge);
                record(&t, *dpc, dinst);
            }
        }
    }

    let mut diagnostics: Vec<Diagnostic> = sinks.into_values().collect();
    diagnostics.sort_by_key(|d| (d.addr, d.rule.id(), d.severity));
    diagnostics.dedup();
    let dift_elidable: Vec<u32> =
        verdicts.into_iter().filter(|&(_, v)| v).map(|(pc, _)| pc).collect();
    TaintReport { diagnostics, dift_elidable, forfeited: false }
}

/// Whether the static model must give up: a reachable `cpop` (taint
/// and policy are then software-driven) or an indirect jump that is
/// not a plain `ret`/`retl` (its dynamic successor is unmodeled, so
/// in-states downstream could be unsound).
fn forfeits(cfg: &Cfg) -> bool {
    cfg.instructions().any(|(_, inst)| match inst {
        Instruction::Cpop { .. } => true,
        Instruction::Jmpl { rd, rs1, .. } => !(rd == Reg::G0 && (rs1 == Reg::O7 || rs1 == Reg::I7)),
        _ => false,
    })
}

/// Per-call-block callee summaries: reachable code from the call
/// target, all edges followed (a sound over-approximation of what the
/// callee may execute before control re-emerges).
fn call_summaries(cfg: &Cfg) -> BTreeMap<usize, Summary> {
    let blocks = cfg.blocks();
    let mut by_target: BTreeMap<u32, Summary> = BTreeMap::new();
    let mut out = BTreeMap::new();
    for (idx, block) in blocks.iter().enumerate() {
        let Some(&(pc, Instruction::Call { disp30 })) = block.insts.last() else { continue };
        let target = pc.wrapping_add((disp30 as u32) << 2);
        let summary = *by_target.entry(target).or_insert_with(|| summarize(blocks, target));
        out.insert(idx, summary);
    }
    out
}

fn summarize(blocks: &[Block], target: u32) -> Summary {
    let Some(start) = blocks.iter().position(|b| b.start == target) else {
        return WORST_SUMMARY;
    };
    let mut seen = vec![false; blocks.len()];
    let mut work = vec![start];
    let mut writes = 0u32;
    let mut has_store = false;
    let mut absorb = |inst: &Instruction| {
        for r in write_regs(inst) {
            writes |= 1 << r.index();
        }
        if let Instruction::Mem { op, .. } = *inst {
            if op.is_store() || op == Opcode::Swap {
                has_store = true;
            }
        }
    };
    while let Some(b) = work.pop() {
        if std::mem::replace(&mut seen[b], true) {
            continue;
        }
        for (_, inst) in &blocks[b].insts {
            absorb(inst);
        }
        for edge in &blocks[b].succs {
            if let Some((_, inst)) = &edge.delay {
                absorb(inst);
            }
            work.push(edge.to);
        }
    }
    Summary { writes, has_store }
}

fn apply_summary(s: &mut State, sum: Summary) {
    for i in 1..NUM_REGS {
        if sum.writes & (1 << i) != 0 {
            s.regs[i] = Taint::Top;
        }
    }
    if sum.has_store {
        s.mem = MemTaint::top();
    }
    // The value domain matches the constant pass: callee clobbered
    // register values and flags.
    s.consts.regs = [TOP; NUM_REGS];
    s.consts.icc = None;
    s.consts.cmp = None;
}

fn join_state(dst: &mut State, src: &State, widen: bool) -> bool {
    let mut changed = false;
    for i in 0..NUM_REGS {
        let h = if widen { TOP } else { dst.consts.regs[i].hull(src.consts.regs[i]) };
        if h != dst.consts.regs[i] {
            dst.consts.regs[i] = h;
            changed = true;
        }
        let j = dst.regs[i].join(src.regs[i]);
        if j != dst.regs[i] {
            dst.regs[i] = j;
            changed = true;
        }
    }
    if dst.consts.icc != src.consts.icc && dst.consts.icc.is_some() {
        dst.consts.icc = None;
        changed = true;
    }
    if dst.consts.cmp != src.consts.cmp && dst.consts.cmp.is_some() {
        dst.consts.cmp = None;
        changed = true;
    }
    if dst.mem.join_from(&src.mem) {
        changed = true;
    }
    changed
}

/// Static effective-address interval of a memory access.
fn ea_of(s: &State, rs1: Reg, op2: Operand2) -> Interval {
    s.consts.get(rs1).add(s.consts.operand2(op2))
}

/// The taint a load pulls out of `ea` — mirrors the dynamic monitor:
/// only addresses below `META_BASE` read memory tags; the meta region
/// reads back tag 0; the console region is the static taint *source*
/// (an over-approximation — the dynamic monitor tags console reads 0,
/// so `Untainted` verdicts stay sound).
fn load_taint(s: &State, ea: Interval, bytes: u32) -> Taint {
    if ea.lo >= CONSOLE_BASE {
        Taint::Tainted
    } else if ea.lo >= META_BASE {
        if ea.hi < CONSOLE_BASE {
            Taint::Untainted
        } else {
            Taint::Top
        }
    } else if ea.hi < META_BASE {
        match ea.as_exact() {
            Some(a) => covered_words(a, bytes).fold(Taint::Untainted, |t, w| t.or(s.mem.word(w))),
            None => s.mem.any(),
        }
    } else {
        Taint::Top
    }
}

/// Word addresses a `bytes`-wide access at `addr` covers (per-word tag
/// granularity: sub-word accesses cover their word, `ldd`/`std` two).
fn covered_words(addr: u32, bytes: u32) -> impl Iterator<Item = u32> {
    let first = addr & !3;
    let last = addr.wrapping_add(bytes.max(1) - 1) & !3;
    (0..=(last.wrapping_sub(first) / 4)).map(move |i| first.wrapping_add(i * 4))
}

/// One instruction's taint effect, mirroring `Dift::process` (then the
/// constant transfer, so addresses keep resolving).
fn transfer(s: &mut State, pc: u32, inst: &Instruction) {
    match *inst {
        Instruction::Alu { rd, rs1, op2, .. } => {
            let t = s.tag(rs1).or(s.op2_tag(op2));
            s.set_tag(rd, t);
        }
        Instruction::Sethi { rd, .. } => s.set_tag(rd, Taint::Untainted),
        Instruction::Call { .. } => s.set_tag(Reg::O7, Taint::Untainted),
        Instruction::Jmpl { rd, .. } => s.set_tag(rd, Taint::Untainted),
        Instruction::Mem { op, rd, rs1, op2 } => {
            let ea = ea_of(s, rs1, op2);
            let bytes = op.access_bytes().unwrap_or(4);
            if op == Opcode::Swap {
                let old = s.tag(rd);
                if ea.hi < META_BASE {
                    match ea.as_exact() {
                        Some(a) => {
                            s.set_tag(rd, s.mem.word(a));
                            s.mem.set_word(a, old);
                        }
                        None => {
                            s.set_tag(rd, Taint::Top);
                            s.mem.store_unknown(old);
                        }
                    }
                } else if ea.lo >= META_BASE {
                    s.set_tag(rd, Taint::Untainted);
                } else {
                    s.set_tag(rd, Taint::Top);
                    s.mem.store_unknown(old);
                }
            } else if op.is_load() {
                let t = load_taint(s, ea, bytes);
                s.set_tag(rd, t);
                if op == Opcode::Ldd {
                    if let Some(hi) = pair_of(rd) {
                        s.set_tag(hi, t);
                    }
                }
            } else {
                // Store: tags reach memory only below META_BASE.
                let mut t = s.tag(rd);
                if op == Opcode::Std {
                    if let Some(hi) = pair_of(rd) {
                        t = t.or(s.tag(hi));
                    }
                }
                if ea.lo < META_BASE {
                    match ea.as_exact() {
                        Some(a) if ea.hi < META_BASE => {
                            for w in covered_words(a, bytes) {
                                s.mem.set_word(w, t);
                            }
                        }
                        _ => s.mem.store_unknown(t),
                    }
                }
            }
        }
        // Forfeited before the fixpoint ever runs; smash anyway.
        Instruction::Cpop { .. } => {
            s.regs = [Taint::Top; NUM_REGS];
            s.mem = MemTaint::top();
        }
        Instruction::Branch { .. } | Instruction::Trap { .. } => {}
    }
    const_transfer(&mut s.consts, pc, inst);
}

/// Whether the dynamic DIFT step for `inst` in pre-state `s` is a
/// proven no-op. `None` for classes DIFT never sees forwarded.
///
/// The rules mirror `Dift::process` exactly: a tag *write* is a no-op
/// when the value written is provably 0 and the destination tag is
/// provably already 0 (or the destination is `%g0`, whose shadow tag is
/// hardwired); the `jmpl` *check* cannot trap when the target register
/// is provably untainted.
fn elidable(s: &State, inst: &Instruction) -> Option<bool> {
    let dst_clean = |rd: Reg| rd.is_zero() || s.tag(rd).clean();
    match *inst {
        Instruction::Alu { rd, rs1, op2, .. } => {
            Some(rd.is_zero() || (s.tag(rs1).clean() && s.op2_tag(op2).clean() && dst_clean(rd)))
        }
        Instruction::Sethi { rd, .. } => Some(dst_clean(rd)),
        Instruction::Call { .. } => Some(s.tag(Reg::O7).clean()),
        Instruction::Jmpl { rd, rs1, .. } => Some(s.tag(rs1).clean() && dst_clean(rd)),
        Instruction::Mem { op, rd, rs1, op2 } => {
            let ea = ea_of(s, rs1, op2);
            let bytes = op.access_bytes().unwrap_or(4);
            if op == Opcode::Swap {
                Some(false)
            } else if op.is_load() {
                let pair_clean = op != Opcode::Ldd
                    || pair_of(rd).is_none_or(|hi| hi.is_zero() || s.tag(hi).clean());
                Some(load_taint(s, ea, bytes).clean() && dst_clean(rd) && pair_clean)
            } else {
                if ea.lo >= META_BASE {
                    return Some(true); // never monitored: DIFT does nothing
                }
                let mut t = s.tag(rd);
                if op == Opcode::Std {
                    if let Some(hi) = pair_of(rd) {
                        t = t.or(s.tag(hi));
                    }
                }
                let target = match ea.as_exact() {
                    Some(a) if ea.hi < META_BASE => {
                        covered_words(a, bytes).fold(Taint::Untainted, |x, w| x.or(s.mem.word(w)))
                    }
                    _ => s.mem.any(),
                };
                Some(t.clean() && target.clean())
            }
        }
        Instruction::Cpop { .. } => Some(false),
        Instruction::Branch { .. } | Instruction::Trap { .. } => None,
    }
}

/// Sink diagnostics: must-taint reaching an indirect jump (the dynamic
/// trap site) or escaping through a store.
fn sink_diags(s: &State, pc: u32, inst: &Instruction) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    match *inst {
        Instruction::Jmpl { rs1, .. } if s.tag(rs1) == Taint::Tainted => {
            out.push(Diagnostic::new(
                Rule::TaintedJump,
                Some(pc),
                format!("indirect jump through {rs1} carries input-derived taint"),
            ));
        }
        Instruction::Mem { op, rd, .. } if op.is_store() && s.tag(rd) == Taint::Tainted => {
            out.push(Diagnostic::new(
                Rule::TaintedStore,
                Some(pc),
                format!("store of input-derived taint from {rd}"),
            ));
        }
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_asm::assemble;

    fn taint_of(src: &str) -> TaintReport {
        analyze_taint(&assemble(src).expect("test source assembles"))
    }

    #[test]
    fn straight_line_clean_code_is_fully_elidable() {
        let r = taint_of(
            "start: mov 10, %l0
                    add %l0, 2, %l1
                    nop
                    ta 0",
        );
        assert!(!r.forfeited);
        // mov, add, nop all write provably-clean tags over clean tags.
        assert_eq!(r.dift_elidable.len(), 3, "{:?}", r.dift_elidable);
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn console_load_taints_and_blocks_elision() {
        let r = taint_of(
            "start: sethi 0x3fffc0, %l0     ! %l0 = 0xffff0000 (console)
                    ld [%l0], %l1           ! taint source
                    add %l1, 1, %l2         ! propagates
                    st %l2, [%l0]
                    ta 0",
        );
        assert!(!r.forfeited);
        // The console load writes a tainted tag: not elidable.  Nor is
        // the add that propagates it.
        let elided: Vec<u32> = r.dift_elidable.clone();
        let base = 0x1000; // programs assemble at 0x1000 by default
        assert!(!elided.contains(&(base + 4)), "console load must stay checked: {elided:?}");
        assert!(!elided.contains(&(base + 8)), "taint propagation must stay checked: {elided:?}");
        assert!(r.diagnostics.iter().any(|d| d.rule == Rule::TaintedStore), "{:?}", r.diagnostics);
    }

    #[test]
    fn clean_leaf_call_keeps_return_elidable() {
        let r = taint_of(
            "start: call fn1
                    nop
                    ta 0
             fn1:   retl
                    nop",
        );
        assert!(!r.forfeited);
        // The retl's jmpl check is elidable: %o7 was written by `call`
        // (clean) and the callee writes nothing else.
        let p = assemble("start: call fn1\n nop\n ta 0\n fn1: retl\n nop").unwrap();
        let retl_pc = p.base() + 12;
        assert!(r.dift_elidable.contains(&retl_pc), "{:?}", r.dift_elidable);
    }

    #[test]
    fn cpop_forfeits_everything() {
        let r = taint_of(
            "start: cpop1 0, %g0, %g0, %g0
                    nop
                    ta 0",
        );
        assert!(r.forfeited);
        assert!(r.dift_elidable.is_empty());
    }

    #[test]
    fn callee_stores_smash_memory_taint() {
        // After a call to a storing callee the memory image is ⊤, so a
        // monitored load downstream is not elidable even though it was
        // before the call.
        let r = taint_of(
            "start: set buf, %l0
                    st %g0, [%l0]
                    ld [%l0], %l1       ! elidable: exact clean word
                    call fn1
                    nop
                    ld [%l0], %l2       ! NOT elidable: callee may have stored taint
                    ta 0
             fn1:   set buf, %o0
                    retl
                    st %o0, [%o0]
             buf:   .space 8",
        );
        assert!(!r.forfeited);
        let p = assemble("start: ta 0").unwrap();
        let base = p.base();
        assert!(r.dift_elidable.contains(&(base + 12)), "pre-call load: {:?}", r.dift_elidable);
        assert!(!r.dift_elidable.contains(&(base + 28)), "post-call load: {:?}", r.dift_elidable);
    }

    #[test]
    fn report_is_deterministic() {
        let src = "start: set buf, %l0
                    ld [%l0], %l1
                    cmp %l1, 3
                    be done
                    nop
                    st %l1, [%l0]
             done:  ta 0
             buf:   .space 4";
        let a = taint_of(src);
        let b = taint_of(src);
        assert_eq!(a.dift_elidable, b.dift_elidable);
        assert_eq!(format!("{:?}", a.diagnostics), format!("{:?}", b.diagnostics));
    }
}
