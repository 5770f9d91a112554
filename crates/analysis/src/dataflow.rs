//! Dataflow analyses over the recovered CFG.
//!
//! Four fixpoint passes run over [`Cfg`] blocks:
//!
//! * **Must-initialize** (a reaching-definitions intersection): which
//!   registers have *definitely* been written on every path. Reads of a
//!   register outside that set are the static counterpart of the UMC
//!   extension's uninitialized-read trap.
//! * **Value ranges**: an interval per register, with exact
//!   (single-point) values evaluated by the golden-model ALU
//!   ([`flexcore_isa::interp::ref_alu`]) so the static and dynamic
//!   semantics cannot drift, and branch-edge refinement (`cmp %r, k;
//!   bl target` bounds `%r` on both edges) so loop induction variables
//!   stay bounded instead of collapsing to unknown at the loop-head
//!   join. Feeds the static memory-address checks and the `--xcheck`
//!   proven-load set.
//! * **Liveness** (backward): register writes whose value is never
//!   read.
//! * **Window depth**: `save`/`restore` pairing on the flat register
//!   file model.
//!
//! Delay-slot instructions live on CFG *edges*, so every pass applies
//! the edge's delay instruction when propagating block-exit state to a
//! successor — an annulled slot simply never contributes.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use flexcore_asm::Program;
use flexcore_isa::interp::{ref_alu, CONSOLE_BASE, STACK_TOP};
use flexcore_isa::{Cond, IccFlags, Instruction, Opcode, Operand2, Reg, NUM_REGS};

use crate::cfg::{Cfg, Edge, TermKind};
use crate::diag::{Diagnostic, Rule};

/// Base of the monitor metadata region (mirrors
/// `flexcore::ext::META_BASE`; duplicated here so the analysis crate
/// stays independent of the simulator).
pub const META_BASE: u32 = 0x4000_0000;

/// How far below [`STACK_TOP`] a statically-known store address is
/// accepted as a stack access.
const STACK_SLACK: u32 = 64 * 1024;

/// A load whose effective address is statically bounded inside the
/// loaded image on **every** path that executes it — the loader marks
/// the whole image initialized, so UMC must never trap on it. These
/// anchor the `--xcheck` soundness gate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProvenLoad {
    /// Address of the load instruction.
    pub pc: u32,
    /// Lowest effective address the analysis admits.
    pub lo: u32,
    /// Highest effective address the analysis admits.
    pub hi: u32,
    /// Access width in bytes.
    pub bytes: u32,
}

/// Everything the dataflow passes produce.
#[derive(Clone, Debug, Default)]
pub struct DataflowReport {
    /// Findings, unordered.
    pub diagnostics: Vec<Diagnostic>,
    /// Loads proven initialized at program load (empty when the program
    /// contains co-processor ops, which can retag memory behind the
    /// analysis's back).
    pub proven_loads: Vec<ProvenLoad>,
}

/// Runs all dataflow passes over a recovered CFG.
pub fn analyze_dataflow(program: &Program, cfg: &Cfg) -> DataflowReport {
    let mut report = DataflowReport::default();
    if cfg.entry().is_none() {
        return report;
    }
    must_init_pass(cfg, &mut report.diagnostics);
    const_pass(program, cfg, &mut report);
    liveness_pass(cfg, &mut report.diagnostics);
    window_pass(cfg, &mut report.diagnostics);
    report
}

// ---------------------------------------------------------------------
// instruction read/write sets
// ---------------------------------------------------------------------

/// The odd register of an even/odd double-word pair.
pub(crate) fn pair_of(rd: Reg) -> Option<Reg> {
    Reg::new(rd.index() as u8 | 1).filter(|&p| p != rd)
}

/// Registers an instruction reads. Extends
/// [`Instruction::source_regs`] with the cases the decode-level pair
/// cannot express: the data register of a store with a register
/// offset, both halves of `std`, and `swap`'s read of `rd`.
pub(crate) fn read_regs(inst: &Instruction) -> Vec<Reg> {
    let (a, b) = inst.source_regs();
    let mut regs: Vec<Reg> = a.into_iter().chain(b).collect();
    if let Instruction::Mem { op, rd, .. } = *inst {
        if op.is_store() || op == Opcode::Swap {
            if !regs.contains(&rd) {
                regs.push(rd);
            }
            if op == Opcode::Std {
                if let Some(hi) = pair_of(rd) {
                    regs.push(hi);
                }
            }
        }
    }
    regs.retain(|r| !r.is_zero());
    regs
}

/// Registers an instruction writes (both halves of `ldd`).
pub(crate) fn write_regs(inst: &Instruction) -> Vec<Reg> {
    let mut regs: Vec<Reg> = inst.dest_reg().into_iter().collect();
    if let Instruction::Mem { op: Opcode::Ldd, rd, .. } = *inst {
        if let Some(hi) = pair_of(rd) {
            if !hi.is_zero() {
                regs.push(hi);
            }
        }
    }
    regs
}

fn reads_icc(inst: &Instruction) -> bool {
    match *inst {
        Instruction::Branch { cond, .. } | Instruction::Trap { cond, .. } => {
            !cond.is_unconditional()
        }
        _ => false,
    }
}

fn writes_icc(inst: &Instruction) -> bool {
    matches!(*inst, Instruction::Alu { op, .. } if op.sets_icc())
}

// ---------------------------------------------------------------------
// generic forward fixpoint
// ---------------------------------------------------------------------

/// Forward worklist fixpoint. `transfer` mutates a state through one
/// instruction; `join(block, in, incoming)` merges an incoming edge
/// state into a block's in-state, returning whether it changed (the
/// block index lets value domains count joins for widening); `refine`
/// sharpens state from the edge's branch condition *before* the delay
/// slot runs (the flags the branch tested were computed before the
/// slot); `call_return` adjusts state crossing a call-site →
/// return-point edge. Returns the in-state of every reached block.
fn forward_fixpoint<S: Clone>(
    cfg: &Cfg,
    entry_state: S,
    transfer: &mut dyn FnMut(&mut S, u32, &Instruction),
    join: &mut dyn FnMut(usize, &mut S, &S) -> bool,
    refine: &dyn Fn(&mut S, &Edge),
    call_return: &dyn Fn(&mut S),
) -> Vec<Option<S>> {
    let mut in_states: Vec<Option<S>> = vec![None; cfg.blocks().len()];
    let entry = cfg.entry().expect("fixpoint requires an entry block");
    in_states[entry] = Some(entry_state);
    // `queued[b]` ⇔ `b` is on the worklist: a re-changed block that is
    // still waiting is not pushed twice.
    let mut queued = vec![false; in_states.len()];
    queued[entry] = true;
    let mut worklist = vec![entry];
    while let Some(b) = worklist.pop() {
        queued[b] = false;
        let mut s = in_states[b].clone().expect("worklist blocks have in-state");
        for &(pc, ref inst) in &cfg.blocks()[b].insts {
            transfer(&mut s, pc, inst);
        }
        for edge in &cfg.blocks()[b].succs {
            let mut es = s.clone();
            refine(&mut es, edge);
            if let Some((dpc, dinst)) = &edge.delay {
                transfer(&mut es, *dpc, dinst);
            }
            if edge.call_return {
                call_return(&mut es);
            }
            let changed = match &mut in_states[edge.to] {
                Some(existing) => join(edge.to, existing, &es),
                slot @ None => {
                    *slot = Some(es);
                    true
                }
            };
            if changed && !queued[edge.to] {
                queued[edge.to] = true;
                worklist.push(edge.to);
            }
        }
    }
    in_states
}

// ---------------------------------------------------------------------
// must-initialize
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
struct InitState {
    /// Bit i set ⇔ register i definitely written on every path here.
    regs: u32,
    icc: bool,
}

impl InitState {
    fn entry() -> InitState {
        // The loader materializes `%sp`/`%fp`; `%g0` is hardwired.
        let mut regs = 1 << Reg::G0.index();
        regs |= 1 << Reg::SP.index();
        regs |= 1 << Reg::FP.index();
        InitState { regs, icc: false }
    }

    fn has(&self, r: Reg) -> bool {
        self.regs & (1 << r.index()) != 0
    }

    fn set(&mut self, r: Reg) {
        self.regs |= 1 << r.index();
    }
}

fn must_init_pass(cfg: &Cfg, diags: &mut Vec<Diagnostic>) {
    let mut seen: BTreeSet<(u32, usize)> = BTreeSet::new();
    let mut seen_icc: BTreeSet<u32> = BTreeSet::new();
    // Two phases over the same transfer: first reach the fixpoint
    // silently, then replay once to report reads against stable states.
    let mut silent = |s: &mut InitState, _pc: u32, inst: &Instruction| {
        for r in write_regs(inst) {
            s.set(r);
        }
        if writes_icc(inst) {
            s.icc = true;
        }
    };
    let mut join = |_b: usize, a: &mut InitState, b: &InitState| {
        let merged = InitState { regs: a.regs & b.regs, icc: a.icc && b.icc };
        let changed = merged != *a;
        *a = merged;
        changed
    };
    // A callee never un-initializes a register, so call-return edges
    // keep the caller's set.
    let in_states =
        forward_fixpoint(cfg, InitState::entry(), &mut silent, &mut join, &|_, _| {}, &|_| {});

    let mut check = |s: &InitState, pc: u32, inst: &Instruction, diags: &mut Vec<Diagnostic>| {
        for r in read_regs(inst) {
            if !s.has(r) && seen.insert((pc, r.index())) {
                diags.push(Diagnostic::new(
                    Rule::UninitRead,
                    Some(pc),
                    format!("`{inst}` reads {r} before any path initializes it"),
                ));
            }
        }
        if reads_icc(inst) && !s.icc && seen_icc.insert(pc) {
            diags.push(Diagnostic::new(
                Rule::UninitIcc,
                Some(pc),
                format!("`{inst}` tests condition codes never set on some path"),
            ));
        }
    };
    for (b, block) in cfg.blocks().iter().enumerate() {
        let Some(mut s) = in_states[b] else { continue };
        for &(pc, ref inst) in &block.insts {
            check(&s, pc, inst, diags);
            silent(&mut s, pc, inst);
        }
        for edge in &block.succs {
            if let Some((dpc, dinst)) = &edge.delay {
                check(&s, *dpc, dinst, diags);
            }
        }
    }
}

// ---------------------------------------------------------------------
// value ranges + static memory-address checks
// ---------------------------------------------------------------------

/// A value set `[lo, hi]` (inclusive, non-wrapping). The full range is
/// the domain's "unknown".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Interval {
    pub(crate) lo: u32,
    pub(crate) hi: u32,
}

pub(crate) const TOP: Interval = Interval { lo: 0, hi: u32::MAX };

impl Interval {
    pub(crate) fn exact(v: u32) -> Interval {
        Interval { lo: v, hi: v }
    }

    pub(crate) fn as_exact(self) -> Option<u32> {
        (self.lo == self.hi).then_some(self.lo)
    }

    pub(crate) fn hull(self, o: Interval) -> Interval {
        Interval { lo: self.lo.min(o.lo), hi: self.hi.max(o.hi) }
    }

    /// `a + b (mod 2³²)`: still an interval as long as the exact `u64`
    /// sum range does not straddle a wrap boundary (a negative
    /// immediate arrives as a large `u32`, so an in-range `addr - 12`
    /// wraps *both* ends and stays an interval).
    pub(crate) fn add(self, o: Interval) -> Interval {
        let lo = self.lo as u64 + o.lo as u64;
        let hi = self.hi as u64 + o.hi as u64;
        if lo >> 32 == hi >> 32 {
            Interval { lo: lo as u32, hi: hi as u32 }
        } else {
            TOP
        }
    }

    fn sub(self, o: Interval) -> Interval {
        let lo = self.lo as i64 - o.hi as i64;
        let hi = self.hi as i64 - o.lo as i64;
        if lo >> 32 == hi >> 32 {
            Interval { lo: lo as u32, hi: hi as u32 }
        } else {
            TOP
        }
    }

    fn shl(self, by: u32) -> Interval {
        let by = by & 31;
        if self.hi.leading_zeros() >= by {
            Interval { lo: self.lo << by, hi: self.hi << by }
        } else {
            TOP
        }
    }

    fn shr(self, by: u32) -> Interval {
        let by = by & 31;
        Interval { lo: self.lo >> by, hi: self.hi >> by }
    }

    /// `a & b` is no larger than either operand.
    fn and(self, o: Interval) -> Interval {
        Interval { lo: 0, hi: self.hi.min(o.hi) }
    }

    /// `a | b` is at least either operand and sets no bit above the
    /// highest bit of either upper bound.
    fn or(self, o: Interval) -> Interval {
        let m = self.hi | o.hi;
        let hi = if m == 0 { 0 } else { u32::MAX >> m.leading_zeros() };
        Interval { lo: self.lo.max(o.lo), hi }
    }

    fn mul(self, o: Interval) -> Interval {
        match (self.hi as u64).checked_mul(o.hi as u64) {
            Some(h) if h <= u32::MAX as u64 => Interval { lo: self.lo * o.lo, hi: h as u32 },
            _ => TOP,
        }
    }
}

#[derive(Clone, PartialEq, Eq)]
pub(crate) struct ConstState {
    pub(crate) regs: [Interval; NUM_REGS],
    /// Exactly-known flags (both operands of the setting op exact).
    pub(crate) icc: Option<IccFlags>,
    /// `Some((r, k))` ⇔ the flags currently reflect `subcc r, k`: the
    /// compare the next conditional branch tests, enabling range
    /// refinement on its edges.
    pub(crate) cmp: Option<(Reg, u32)>,
}

impl ConstState {
    pub(crate) fn entry() -> ConstState {
        // Core reset zeroes the flat register file, then the loader
        // points `%sp`/`%fp` at the stack top.
        let mut regs = [Interval::exact(0); NUM_REGS];
        regs[Reg::SP.index()] = Interval::exact(STACK_TOP);
        regs[Reg::FP.index()] = Interval::exact(STACK_TOP);
        ConstState { regs, icc: Some(IccFlags::default()), cmp: None }
    }

    pub(crate) fn get(&self, r: Reg) -> Interval {
        if r.is_zero() {
            Interval::exact(0)
        } else {
            self.regs[r.index()]
        }
    }

    pub(crate) fn set(&mut self, r: Reg, v: Interval) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
            if self.cmp.is_some_and(|(cr, _)| cr == r) {
                // The compared register was overwritten; the flags
                // still describe its old value, so stop refining.
                self.cmp = None;
            }
        }
    }

    pub(crate) fn operand2(&self, op2: Operand2) -> Interval {
        match op2 {
            Operand2::Reg(r) => self.get(r),
            Operand2::Imm(i) => Interval::exact(i as u32),
        }
    }
}

pub(crate) fn const_transfer(s: &mut ConstState, pc: u32, inst: &Instruction) {
    match *inst {
        Instruction::Alu { op, rd, rs1, op2 } => {
            let a = s.get(rs1);
            let b = s.operand2(op2);
            match (a.as_exact(), b.as_exact()) {
                (Some(av), Some(bv)) => {
                    match ref_alu(op, av, bv, s.icc.unwrap_or_default()) {
                        Some((value, icc)) => {
                            s.set(rd, Interval::exact(value));
                            if op.sets_icc() {
                                s.icc = Some(icc);
                            }
                        }
                        None => {
                            // Division by zero: value unknown past it.
                            s.set(rd, TOP);
                            if op.sets_icc() {
                                s.icc = None;
                            }
                        }
                    }
                }
                _ => {
                    let v = match op {
                        // `save`/`restore` are plain adds on the flat
                        // register-file model.
                        Opcode::Add | Opcode::Addcc | Opcode::Save | Opcode::Restore => a.add(b),
                        Opcode::Sub | Opcode::Subcc => a.sub(b),
                        Opcode::Sll => b.as_exact().map_or(TOP, |sh| a.shl(sh)),
                        Opcode::Srl => b.as_exact().map_or(TOP, |sh| a.shr(sh)),
                        // Arithmetic shift matches logical while the
                        // whole range stays non-negative.
                        Opcode::Sra if a.hi < 0x8000_0000 => {
                            b.as_exact().map_or(TOP, |sh| a.shr(sh))
                        }
                        Opcode::And | Opcode::Andcc => a.and(b),
                        Opcode::Or | Opcode::Orcc => a.or(b),
                        Opcode::Umul => a.mul(b),
                        _ => TOP,
                    };
                    s.set(rd, v);
                    if op.sets_icc() {
                        s.icc = None;
                    }
                }
            }
            if op.sets_icc() {
                s.cmp = match (op, b.as_exact()) {
                    (Opcode::Subcc, Some(k)) if rd.is_zero() && !rs1.is_zero() => Some((rs1, k)),
                    // `subcc a, k, rd` leaves `a − k` in `rd`, so the
                    // flags compare the *new* `rd` against zero.
                    (Opcode::Subcc, Some(_)) if !rd.is_zero() => Some((rd, 0)),
                    _ => None,
                };
            }
        }
        Instruction::Sethi { rd, imm22 } => s.set(rd, Interval::exact(imm22 << 10)),
        Instruction::Call { .. } => s.set(Reg::O7, Interval::exact(pc)),
        Instruction::Jmpl { rd, .. } => s.set(rd, Interval::exact(pc)),
        Instruction::Cpop { rd, .. } => s.set(rd, TOP),
        Instruction::Mem { op, rd, .. } => {
            if op.is_load() || op == Opcode::Swap {
                s.set(rd, TOP);
                if op == Opcode::Ldd {
                    if let Some(hi) = pair_of(rd) {
                        s.set(hi, TOP);
                    }
                }
            }
        }
        Instruction::Branch { .. } | Instruction::Trap { .. } => {}
    }
}

/// Sharpens the compared register's range from the branch condition on
/// one CFG edge. Conservative: conditions it cannot translate to a
/// `u32` interval (signed compares over possibly-negative ranges,
/// overflow/sign tests) refine nothing, and an infeasible result
/// leaves the state untouched rather than modeling unreachability.
pub(crate) fn refine_edge(s: &mut ConstState, edge: &Edge) {
    let Some((cond, taken)) = edge.branch else { return };
    let Some((r, k)) = s.cmp else { return };
    let cur = s.get(r);
    let (mut lo, mut hi) = (cur.lo, cur.hi);
    // The branch-untaken edge tests the complementary condition.
    let cond = if taken { cond } else { cond.negate() };
    // Signed compares order like unsigned ones only when every admitted
    // value and the constant are non-negative as `i32`.
    let signed_ok = hi < 0x8000_0000 && k < 0x8000_0000;
    match cond {
        Cond::E => {
            lo = lo.max(k);
            hi = hi.min(k);
        }
        Cond::Ne => {
            if lo == k && lo < hi {
                lo += 1;
            } else if hi == k && lo < hi {
                hi -= 1;
            }
        }
        Cond::Cs if k > 0 => hi = hi.min(k - 1),
        Cond::Cc => lo = lo.max(k),
        Cond::Leu => hi = hi.min(k),
        Cond::Gu if k < u32::MAX => lo = lo.max(k + 1),
        Cond::L if signed_ok && k > 0 => hi = hi.min(k - 1),
        Cond::Ge if signed_ok => lo = lo.max(k),
        Cond::Le if signed_ok => hi = hi.min(k),
        Cond::G if signed_ok && k < 0x7fff_ffff => lo = lo.max(k + 1),
        _ => return,
    }
    if lo <= hi {
        // Write the register slot directly: the flags still describe
        // this same value, so the `cmp` fact must survive refinement.
        s.regs[r.index()] = Interval { lo, hi };
    }
}

/// Joins per block beyond this count widen growing ranges straight to
/// unknown, bounding fixpoint time on huge-trip-count loops. The
/// kernels do reach it: the constant pass widens on 1–13 blocks of 8
/// of the 9 kernels (all but basicmath), and the taint pass, which
/// counts every join rather than every changing one, on 2–12 blocks of
/// all 9 (up to 1,032 joins on one block). Where widening strikes
/// therefore shapes the proven-load and DIFT-elidable sets, whose
/// per-kernel sizes `tests/static_analysis.rs` pins.
pub(crate) const WIDEN_LIMIT: u32 = 512;

fn const_pass(program: &Program, cfg: &Cfg, report: &mut DataflowReport) {
    let mut join_counts = vec![0u32; cfg.blocks().len()];
    let mut join = |b: usize, a: &mut ConstState, new: &ConstState| {
        let mut changed = false;
        let widen = join_counts[b] >= WIDEN_LIMIT;
        for i in 0..NUM_REGS {
            let h = a.regs[i].hull(new.regs[i]);
            if h != a.regs[i] {
                a.regs[i] = if widen { TOP } else { h };
                changed = true;
            }
        }
        if a.icc.is_some() && a.icc != new.icc {
            a.icc = None;
            changed = true;
        }
        if a.cmp.is_some() && a.cmp != new.cmp {
            a.cmp = None;
            changed = true;
        }
        if changed {
            join_counts[b] += 1;
        }
        changed
    };
    // The callee may have written anything by the time control returns.
    let call_return = |s: &mut ConstState| {
        s.regs = [TOP; NUM_REGS];
        s.icc = None;
        s.cmp = None;
    };
    let in_states = forward_fixpoint(
        cfg,
        ConstState::entry(),
        &mut const_transfer,
        &mut join,
        &refine_edge,
        &call_return,
    );

    // Co-processor ops (monitor configuration like UMC's CLEAR_RANGE)
    // can retag memory invisibly to this pass, so their presence —
    // delay slots included — forfeits the proven-load set, never its
    // soundness.
    let has_cpop = cfg.instructions().any(|(_, i)| matches!(i, Instruction::Cpop { .. }));

    let base = program.base();
    let end = cfg.end();
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    // pc → admitted address range, ANDed across every occurrence (a
    // delay-slot load sits on several edges with different refined
    // states; it is proven only if every one of them proves it).
    let mut proven: BTreeMap<u32, Option<(u32, u32, u32)>> = BTreeMap::new();
    let mut check = |s: &ConstState, pc: u32, inst: &Instruction, report: &mut DataflowReport| {
        let Instruction::Mem { op, rs1, op2, .. } = *inst else { return };
        let ea = s.get(rs1).add(s.operand2(op2));
        let bytes = op.access_bytes().unwrap_or(4);
        if op.is_load() || op == Opcode::Swap {
            let provable =
                !has_cpop && ea.lo >= base && (ea.hi as u64 + bytes as u64) <= end as u64;
            match proven.entry(pc) {
                Entry::Vacant(v) => {
                    v.insert(provable.then_some((ea.lo, ea.hi, bytes)));
                }
                Entry::Occupied(mut o) => {
                    if provable {
                        if let Some((lo, hi, _)) = o.get_mut() {
                            *lo = (*lo).min(ea.lo);
                            *hi = (*hi).max(ea.hi);
                        }
                    } else {
                        *o.get_mut() = None;
                    }
                }
            }
        }
        // The region diagnostics need an exact address: a definite
        // wrong-region access, not a could-be one.
        let Some(ea) = ea.as_exact() else { return };
        if !seen.insert(pc) {
            return;
        }
        let in_image = ea >= base && ea.wrapping_add(bytes) <= end;
        let in_stack = ea >= STACK_TOP.saturating_sub(STACK_SLACK) && ea < STACK_TOP + 16;
        let in_meta = (META_BASE..CONSOLE_BASE).contains(&ea);
        let in_console = ea >= CONSOLE_BASE;
        if op.is_store() || op == Opcode::Swap {
            if in_image {
                let over_code =
                    (0..bytes).step_by(4).any(|off| cfg.is_code(ea.wrapping_add(off) & !3));
                if over_code {
                    report.diagnostics.push(Diagnostic::new(
                        Rule::StoreOverCode,
                        Some(pc),
                        format!("`{inst}` stores to {ea:#010x}, overwriting reachable code"),
                    ));
                }
            } else if !(in_stack || in_meta || in_console) {
                report.diagnostics.push(Diagnostic::new(
                    Rule::StoreOutOfImage,
                    Some(pc),
                    format!(
                        "`{inst}` stores to {ea:#010x}, outside the image, stack, and device regions"
                    ),
                ));
            }
        }
        if (op.is_load() || op == Opcode::Swap) && !(in_image || in_stack || in_meta || in_console)
        {
            report.diagnostics.push(Diagnostic::new(
                Rule::LoadOutOfImage,
                Some(pc),
                format!("`{inst}` loads from {ea:#010x}, outside every region initialized at load"),
            ));
        }
    };
    for (b, block) in cfg.blocks().iter().enumerate() {
        let Some(mut s) = in_states[b].clone() else { continue };
        for &(pc, ref inst) in &block.insts {
            check(&s, pc, inst, report);
            const_transfer(&mut s, pc, inst);
        }
        for edge in &block.succs {
            if let Some((dpc, dinst)) = &edge.delay {
                let mut es = s.clone();
                refine_edge(&mut es, edge);
                check(&es, *dpc, dinst, report);
            }
        }
    }
    report.proven_loads = proven
        .into_iter()
        .filter_map(|(pc, v)| v.map(|(lo, hi, bytes)| ProvenLoad { pc, lo, hi, bytes }))
        .collect();
}

// ---------------------------------------------------------------------
// liveness (backward)
// ---------------------------------------------------------------------

fn live_transfer(live: &mut u32, inst: &Instruction) {
    for r in write_regs(inst) {
        *live &= !(1 << r.index());
    }
    for r in read_regs(inst) {
        *live |= 1 << r.index();
    }
}

fn liveness_pass(cfg: &Cfg, diags: &mut Vec<Diagnostic>) {
    let n = cfg.blocks().len();
    let mut live_in = vec![0u32; n];
    let mut worklist: Vec<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(b) = worklist.pop() {
        queued[b] = false;
        let block = &cfg.blocks()[b];
        let mut live: u32 = match block.term {
            // Past a halt nothing is read; past a return or a decode
            // failure we know nothing, so everything might be.
            TermKind::Halt => 0,
            TermKind::Return | TermKind::Invalid => u32::MAX,
            TermKind::Branch | TermKind::FallsThrough => 0,
        };
        for edge in &block.succs {
            let mut l = live_in[edge.to];
            if let Some((_, dinst)) = &edge.delay {
                live_transfer(&mut l, dinst);
            }
            live |= l;
        }
        for (_, inst) in block.insts.iter().rev() {
            live_transfer(&mut live, inst);
        }
        if live != live_in[b] {
            live_in[b] = live;
            for &p in &block.preds {
                if !queued[p] {
                    queued[p] = true;
                    worklist.push(p);
                }
            }
        }
    }

    // Report pure register writes whose value is never read. Loads are
    // excluded (a dead load can be a deliberate monitor/cache touch),
    // as are cc-setting ops (the flags are the point).
    for block in cfg.blocks() {
        let mut live: u32 = match block.term {
            TermKind::Halt => 0,
            TermKind::Return | TermKind::Invalid => u32::MAX,
            TermKind::Branch | TermKind::FallsThrough => 0,
        };
        for edge in &block.succs {
            let mut l = live_in[edge.to];
            if let Some((_, dinst)) = &edge.delay {
                live_transfer(&mut l, dinst);
            }
            live |= l;
        }
        for (pc, inst) in block.insts.iter().rev() {
            let pure_write = matches!(inst, Instruction::Alu { .. } | Instruction::Sethi { .. })
                && !writes_icc(inst);
            if pure_write {
                if let Some(rd) = inst.dest_reg() {
                    if live & (1 << rd.index()) == 0 {
                        diags.push(Diagnostic::new(
                            Rule::DeadWrite,
                            Some(*pc),
                            format!("`{inst}` writes {rd} but the value is never read"),
                        ));
                    }
                }
            }
            live_transfer(&mut live, inst);
        }
    }
}

// ---------------------------------------------------------------------
// save/restore window depth
// ---------------------------------------------------------------------

/// Depth lattice: `Depth(d)` is exact, `Conflict` means paths disagree.
#[derive(Clone, Copy, PartialEq, Eq)]
enum WinDepth {
    Depth(u32),
    Conflict,
}

/// Steps the depth through one instruction; records an underflow event
/// (at most once per address) into `underflows`.
fn window_step(s: &mut WinDepth, pc: u32, inst: &Instruction, underflows: &mut BTreeSet<u32>) {
    let Instruction::Alu { op, .. } = inst else { return };
    match (op, *s) {
        (Opcode::Save, WinDepth::Depth(d)) => *s = WinDepth::Depth(d + 1),
        (Opcode::Restore, WinDepth::Depth(0)) => {
            underflows.insert(pc);
        }
        (Opcode::Restore, WinDepth::Depth(d)) => *s = WinDepth::Depth(d - 1),
        _ => {}
    }
}

fn window_pass(cfg: &Cfg, diags: &mut Vec<Diagnostic>) {
    let mut underflows: BTreeSet<u32> = BTreeSet::new();
    let in_states = {
        let mut transfer = |s: &mut WinDepth, pc: u32, inst: &Instruction| {
            window_step(s, pc, inst, &mut underflows);
        };
        let mut join = |_b: usize, a: &mut WinDepth, b: &WinDepth| {
            if a == b || *a == WinDepth::Conflict {
                false
            } else {
                *a = WinDepth::Conflict;
                true
            }
        };
        forward_fixpoint(cfg, WinDepth::Depth(0), &mut transfer, &mut join, &|_, _| {}, &|_| {})
    };

    for (b, block) in cfg.blocks().iter().enumerate() {
        match in_states[b] {
            Some(WinDepth::Conflict) => diags.push(Diagnostic::new(
                Rule::WindowImbalance,
                Some(block.start),
                "paths join here with different save/restore depths",
            )),
            Some(WinDepth::Depth(d)) if block.term == TermKind::Halt => {
                // Replay the block to get the depth at the halt itself.
                let mut s = WinDepth::Depth(d);
                let mut scratch = BTreeSet::new();
                for &(pc, ref inst) in &block.insts {
                    window_step(&mut s, pc, inst, &mut scratch);
                }
                if let WinDepth::Depth(open) = s {
                    if open > 0 {
                        let (pc, _) = *block.insts.last().expect("halt block nonempty");
                        diags.push(Diagnostic::new(
                            Rule::OpenWindowAtHalt,
                            Some(pc),
                            format!("program halts with {open} `save`(s) still open"),
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    for pc in underflows {
        diags.push(Diagnostic::new(
            Rule::RestoreUnderflow,
            Some(pc),
            "`restore` executes with no `save` outstanding",
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_cfg;
    use flexcore_asm::assemble;

    fn analyze(src: &str) -> DataflowReport {
        let p = assemble(src).expect("test source assembles");
        let (cfg, _) = build_cfg(&p);
        analyze_dataflow(&p, &cfg)
    }

    fn has(report: &DataflowReport, rule: Rule) -> bool {
        report.diagnostics.iter().any(|d| d.rule == rule)
    }

    #[test]
    fn uninit_read_is_flagged_and_init_is_not() {
        let r = analyze("start: add %l3, 1, %g2\n ta 0");
        assert!(has(&r, Rule::UninitRead), "{:?}", r.diagnostics);
        let r = analyze("start: mov 5, %l3\n add %l3, 1, %g2\n ta 0");
        assert!(!has(&r, Rule::UninitRead), "{:?}", r.diagnostics);
    }

    #[test]
    fn must_init_joins_by_intersection() {
        // %l1 is set on only one arm of the diamond.
        let r = analyze(
            "start: cmp %g0, 0
                    be skip
                    nop
                    mov 1, %l1
             skip:  add %l1, 1, %g2
                    ta 0",
        );
        assert!(has(&r, Rule::UninitRead), "{:?}", r.diagnostics);
        // Set on both arms: clean.
        let r = analyze(
            "start: cmp %g0, 0
                    be skip
                    mov 2, %l1
                    mov 1, %l1
             skip:  add %l1, 1, %g2
                    ta 0",
        );
        assert!(!has(&r, Rule::UninitRead), "{:?}", r.diagnostics);
    }

    #[test]
    fn annulled_delay_write_does_not_initialize() {
        // ba,a annuls the slot, so %l1 is never written.
        let r = analyze(
            "start: ba,a over
                    mov 1, %l1
             over:  add %l1, 1, %g2
                    ta 0",
        );
        assert!(has(&r, Rule::UninitRead), "{:?}", r.diagnostics);
    }

    #[test]
    fn uninit_icc_is_flagged() {
        let r = analyze("start: be out\n nop\n out: ta 0");
        assert!(has(&r, Rule::UninitIcc), "{:?}", r.diagnostics);
        let r = analyze("start: cmp %g1, 2\n be out\n nop\n out: ta 0");
        assert!(!has(&r, Rule::UninitIcc), "{:?}", r.diagnostics);
    }

    #[test]
    fn store_to_wild_address_is_an_error() {
        let r = analyze("start: set 0x00200000, %l1\n st %g0, [%l1]\n ta 0");
        assert!(has(&r, Rule::StoreOutOfImage), "{:?}", r.diagnostics);
    }

    #[test]
    fn store_to_labeled_data_is_clean_and_store_over_code_warns() {
        let r = analyze("start: set buf, %l1\n st %g0, [%l1]\n ta 0\nbuf: .space 8");
        assert!(!has(&r, Rule::StoreOutOfImage), "{:?}", r.diagnostics);
        assert!(!has(&r, Rule::StoreOverCode), "{:?}", r.diagnostics);
        let r = analyze("start: set start, %l1\n st %g0, [%l1]\n ta 0");
        assert!(has(&r, Rule::StoreOverCode), "{:?}", r.diagnostics);
    }

    #[test]
    fn stack_and_meta_stores_are_clean() {
        let r = analyze("start: st %g0, [%sp]\n ta 0");
        assert!(!has(&r, Rule::StoreOutOfImage), "{:?}", r.diagnostics);
        let r = analyze("start: set 0x40000000, %l1\n st %g0, [%l1]\n ta 0");
        assert!(!has(&r, Rule::StoreOutOfImage), "{:?}", r.diagnostics);
    }

    #[test]
    fn image_load_is_proven() {
        let r = analyze("start: set word, %l1\n ld [%l1], %l2\n tst %l2\n ta 0\nword: .word 7");
        assert_eq!(r.proven_loads.len(), 1, "{:?}", r.proven_loads);
        assert_eq!(r.proven_loads[0].bytes, 4);
    }

    #[test]
    fn loop_bounded_load_is_proven() {
        // The load address is an induction variable the loop condition
        // bounds; branch-edge refinement keeps the range finite, so
        // the whole sweep is proven in-image.
        let r = analyze(
            "start: set tbl, %l0
                    clr %l1
             loop:  sll %l1, 2, %o0
                    add %l0, %o0, %o1
                    ld [%o1], %o2
                    add %l1, 1, %l1
                    cmp %l1, 8
                    bl loop
                    nop
                    ta 0
             tbl:   .word 1, 2, 3, 4, 5, 6, 7, 8",
        );
        assert_eq!(r.proven_loads.len(), 1, "{:?}", r.proven_loads);
        let p = r.proven_loads[0];
        assert!(p.hi > p.lo, "a range, not a single point: {p:?}");
        assert_eq!(p.hi - p.lo, 28, "eight-entry sweep: {p:?}");
    }

    #[test]
    fn masked_index_load_is_proven() {
        // Data-dependent index, but `and` bounds it to the table.
        let r = analyze(
            "start: set tbl, %l0
                    set 0x12345678, %l1
                    and %l1, 7, %o0
                    sll %o0, 2, %o0
                    ld [%l0 + %o0], %o1
                    tst %o1
                    ta 0
             tbl:   .word 1, 2, 3, 4, 5, 6, 7, 8",
        );
        assert_eq!(r.proven_loads.len(), 1, "{:?}", r.proven_loads);
    }

    #[test]
    fn pointer_walk_with_ne_exit_is_not_proven() {
        // A `bne`-bounded pointer walk cannot be bounded by an interval
        // (no stride information), so the analysis must stay silent
        // rather than prove it.
        let r = analyze(
            "start: set tbl, %l0
                    set end, %l1
             loop:  ld [%l0], %o0
                    add %l0, 4, %l0
                    cmp %l0, %l1
                    bne loop
                    nop
                    ta 0
             tbl:   .word 1, 2, 3, 4
             end:   .word 0",
        );
        assert!(r.proven_loads.is_empty(), "{:?}", r.proven_loads);
        assert!(!has(&r, Rule::LoadOutOfImage), "{:?}", r.diagnostics);
    }

    #[test]
    fn cpop_forfeits_proofs() {
        let r = analyze(
            "start: set word, %l1\n cpop1 0, %g1, %g2, %g3\n ld [%l1], %l2\n tst %l2\n ta 0\nword: .word 7",
        );
        assert!(r.proven_loads.is_empty(), "{:?}", r.proven_loads);
    }

    #[test]
    fn wild_load_is_an_error() {
        let r = analyze("start: set 0x00900000, %l1\n ld [%l1], %l2\n tst %l2\n ta 0");
        assert!(has(&r, Rule::LoadOutOfImage), "{:?}", r.diagnostics);
    }

    #[test]
    fn dead_write_is_informational() {
        let r = analyze("start: mov 7, %l4\n ta 0");
        assert!(has(&r, Rule::DeadWrite), "{:?}", r.diagnostics);
        assert!(r.diagnostics.iter().all(|d| !d.is_error()), "{:?}", r.diagnostics);
    }

    #[test]
    fn restore_underflow_and_open_window() {
        let r = analyze("start: restore %g0, %g0, %g0\n ta 0");
        assert!(has(&r, Rule::RestoreUnderflow), "{:?}", r.diagnostics);
        let r = analyze("start: save %sp, -96, %sp\n ta 0");
        assert!(has(&r, Rule::OpenWindowAtHalt), "{:?}", r.diagnostics);
        let r = analyze("start: save %sp, -96, %sp\n restore %g0, %g0, %g0\n ta 0");
        assert!(!has(&r, Rule::RestoreUnderflow), "{:?}", r.diagnostics);
        assert!(!has(&r, Rule::OpenWindowAtHalt), "{:?}", r.diagnostics);
    }
}
