//! Greedy K-feasible-cone technology mapping to LUTs.

use std::cell::RefCell;
use std::collections::BTreeSet;

use crate::{Gate, Net, Netlist};

/// One mapped LUT: a root net, its cone leaves, and the truth table of
/// the cone as a function of the leaves (LSB-first index order).
#[derive(Clone, Debug)]
pub struct Lut {
    /// The net this LUT produces.
    pub root: Net,
    /// Cone inputs (terminals or other LUT roots), sorted.
    pub leaves: Vec<Net>,
    /// `2^leaves.len()` entries; index bit *i* is the value of
    /// `leaves[i]`.
    pub table: Vec<bool>,
}

/// Result of [`map_to_luts`].
#[derive(Clone, Debug)]
pub struct LutMapping {
    k: usize,
    luts: Vec<Lut>,
    depth: usize,
}

impl LutMapping {
    /// Reassembles a mapping from parts (the bitstream loader). The
    /// parts must describe a well-formed network: every truth table
    /// sized `2^leaves`, leaves strictly sorted and topologically
    /// before their root, and roots in strictly increasing net order.
    ///
    /// # Errors
    ///
    /// Returns a static description of the first violation.
    pub(crate) fn from_parts(
        k: usize,
        luts: Vec<Lut>,
        depth: usize,
    ) -> Result<LutMapping, &'static str> {
        if !(1..=16).contains(&k) {
            return Err("LUT size out of range");
        }
        let mut prev_root: Option<Net> = None;
        for lut in &luts {
            if lut.table.len() != 1 << lut.leaves.len() {
                return Err("truth table size does not match leaf count");
            }
            if lut.leaves.len() > k {
                return Err("cone wider than the LUT size");
            }
            if !lut.leaves.windows(2).all(|w| w[0] < w[1]) {
                return Err("leaves not strictly sorted");
            }
            if lut.leaves.iter().any(|&l| l >= lut.root) {
                return Err("leaf does not precede its root");
            }
            if prev_root.is_some_and(|p| p >= lut.root) {
                return Err("roots not in topological order");
            }
            prev_root = Some(lut.root);
        }
        Ok(LutMapping { k, luts, depth })
    }

    /// LUT input count the mapping targeted (6 for Virtex-5).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of LUTs.
    pub fn lut_count(&self) -> usize {
        self.luts.len()
    }

    /// Critical-path depth in LUT levels.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The mapped LUTs, in topological order.
    pub fn luts(&self) -> &[Lut] {
        &self.luts
    }

    /// Evaluates the LUT network against the original netlist's input
    /// and flop-state conventions; returns output values and updates
    /// `state` exactly like [`Netlist::eval`].
    ///
    /// Used by the equivalence tests: the mapped network must compute
    /// the same function as the source netlist.
    ///
    /// # Panics
    ///
    /// Panics on input/state length mismatch, and if a LUT leaf, an
    /// output or a flop input is neither a terminal nor an earlier LUT
    /// root (a mapping of another netlist).
    pub fn eval(&self, netlist: &Netlist, input_values: &[bool], state: &mut [bool]) -> Vec<bool> {
        assert_eq!(input_values.len(), netlist.inputs().len(), "input vector length");
        assert_eq!(state.len(), netlist.flops(), "state vector length");
        LUT_SLOTS.with_borrow_mut(|values| {
            values.clear();
            values.resize(netlist.gates().len(), UNDRIVEN);
            let mut inputs = input_values.iter();
            let mut flops = state.iter();
            for (v, gate) in values.iter_mut().zip(netlist.gates()) {
                match gate {
                    Gate::Input => *v = u8::from(*inputs.next().expect("checked")),
                    Gate::Const(c) => *v = u8::from(*c),
                    Gate::Dff(_) => *v = u8::from(*flops.next().expect("checked")),
                    _ => {}
                }
            }
            // LUTs are in topological order (roots only reference
            // earlier nets). An undriven leaf sets bit 1 of `undriven`
            // instead of costing a branch per leaf.
            let mut undriven = 0;
            for lut in &self.luts {
                let mut idx = 0;
                for (bit, leaf) in lut.leaves.iter().enumerate() {
                    let v = values[leaf.index()];
                    idx |= usize::from(v & 1) << bit;
                    undriven |= v;
                }
                values[lut.root.index()] = u8::from(lut.table[idx]);
            }
            assert!(undriven & UNDRIVEN == 0, "leaf evaluated before root");
            let driven = |n: Net, what: &str| match values[n.index()] {
                UNDRIVEN => panic!("{what} must be mapped"),
                v => v == 1,
            };
            let next = netlist.gates().iter().filter_map(|g| match g {
                Gate::Dff(d) => Some(driven(*d, "flop input")),
                _ => None,
            });
            for (q, d) in state.iter_mut().zip(next) {
                *q = d;
            }
            netlist.outputs().iter().map(|&(_, n)| driven(n, "output")).collect()
        })
    }
}

/// The slot value of a net no terminal or LUT drives.
const UNDRIVEN: u8 = 2;

thread_local! {
    /// The per-net values [`LutMapping::eval`] evaluates into (0, 1 or
    /// [`UNDRIVEN`]), reused across calls so that a cycle allocates
    /// only its output vector.
    static LUT_SLOTS: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

fn is_terminal(g: &Gate) -> bool {
    matches!(g, Gate::Input | Gate::Const(_) | Gate::Dff(_))
}

/// The value of leaf `i` across entries `64 * word ..` of a truth
/// table: the low six leaves alternate within the word, the others
/// select whole words.
fn leaf_word(i: usize, word: usize) -> u64 {
    const ALTERNATING: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    match ALTERNATING.get(i) {
        Some(&w) => w,
        None => 0u64.wrapping_sub(((word >> (i - 6)) & 1) as u64),
    }
}

/// Computes truth tables 64 entries at a time: one walk of a LUT's cone
/// evaluates every gate once over a word whose bit *j* is entry
/// `64 * word + j`. Each net's value is memoized under the walk's
/// generation, so shared subcones are walked once and the memo never
/// needs clearing.
struct ConeWalk<'a> {
    gates: &'a [Gate],
    /// Per net: the generation that wrote the value, and the value.
    memo: Vec<(u32, u64)>,
    generation: u32,
}

impl ConeWalk<'_> {
    /// The truth table of the cone rooted at `root` over `leaves`.
    fn table(&mut self, root: Net, leaves: &[Net]) -> Vec<bool> {
        let entries = 1usize << leaves.len();
        let mut table = Vec::with_capacity(entries);
        for word in 0..entries.div_ceil(64) {
            self.generation += 1;
            for (i, leaf) in leaves.iter().enumerate() {
                self.memo[leaf.index()] = (self.generation, leaf_word(i, word));
            }
            let bits = self.word(root);
            table.extend((0..(entries - 64 * word).min(64)).map(|j| (bits >> j) & 1 == 1));
        }
        table
    }

    /// The value of `net` under the current walk's leaf words.
    fn word(&mut self, net: Net) -> u64 {
        let (generation, value) = self.memo[net.index()];
        if generation == self.generation {
            return value;
        }
        let value = match self.gates[net.index()] {
            Gate::Const(v) => 0u64.wrapping_sub(u64::from(v)),
            Gate::Input | Gate::Dff(_) => {
                unreachable!("terminal {net:?} must be a leaf of its cone")
            }
            Gate::Not(a) => !self.word(a),
            Gate::And(a, b) => self.word(a) & self.word(b),
            Gate::Or(a, b) => self.word(a) | self.word(b),
            Gate::Xor(a, b) => self.word(a) ^ self.word(b),
            Gate::Mux { sel, a, b } => {
                let s = self.word(sel);
                (s & self.word(b)) | (!s & self.word(a))
            }
        };
        self.memo[net.index()] = (self.generation, value);
        value
    }
}

/// LUT input width of the modeled Virtex-5-class fabric: every netlist
/// is technology-mapped, costed and programmed at this width.
pub const LUT_K: usize = 6;

/// Maps a netlist's combinational logic onto `k`-input LUTs with a
/// greedy cone-growing heuristic (logic duplication allowed, as in real
/// mappers): each gate absorbs its fan-in cones while the merged leaf
/// set stays within `k`; when it would overflow, the fan-ins are
/// materialized as LUT roots. Primary outputs and flop data inputs are
/// always roots.
///
/// The returned mapping carries per-LUT truth tables so that functional
/// equivalence with the source netlist can be (and is, in this crate's
/// property tests) checked by co-simulation.
///
/// # Panics
///
/// Panics if `k` is 0 or absurdly large (> 16: truth tables become
/// infeasible).
pub fn map_to_luts(netlist: &Netlist, k: usize) -> LutMapping {
    assert!((1..=16).contains(&k), "LUT size {k} out of range");
    let gates = netlist.gates();
    let n = gates.len();
    // Per net: cone leaf set and arrival depth (LUT levels).
    let mut leafset: Vec<BTreeSet<Net>> = vec![BTreeSet::new(); n];
    let mut conedepth: Vec<usize> = vec![0; n];
    let mut is_root = vec![false; n];

    // Mark structural roots first: outputs and flop inputs.
    let mut forced_roots: Vec<Net> = Vec::new();
    for (_, net) in netlist.outputs() {
        forced_roots.push(*net);
    }
    for g in gates {
        if let Gate::Dff(d) = g {
            forced_roots.push(*d);
        }
    }

    for i in 0..n {
        let net = Net(i as u32);
        let gate = &gates[i];
        if is_terminal(gate) {
            if !matches!(gate, Gate::Const(_)) {
                leafset[i].insert(net);
            }
            conedepth[i] = 0;
            continue;
        }
        let fanins = gate.inputs();
        let mut union: BTreeSet<Net> = BTreeSet::new();
        for f in &fanins {
            if is_root[f.index()] || is_terminal(&gates[f.index()]) {
                // Already materialized: contributes itself as a leaf
                // (constants contribute nothing).
                if !matches!(gates[f.index()], Gate::Const(_)) {
                    union.insert(*f);
                }
            } else {
                union.extend(leafset[f.index()].iter().copied());
            }
        }
        if union.len() <= k {
            leafset[i] = union;
        } else {
            // Cut here: materialize each non-terminal fan-in as a root.
            let mut cut: BTreeSet<Net> = BTreeSet::new();
            for f in &fanins {
                if !matches!(gates[f.index()], Gate::Const(_)) {
                    if !is_terminal(&gates[f.index()]) {
                        is_root[f.index()] = true;
                    }
                    cut.insert(*f);
                }
            }
            leafset[i] = cut;
        }
        // Arrival of a leaf: 0 for terminals, the (root) cone depth for
        // mapped gates. The cone containing `net` adds one level.
        let depth = leafset[i]
            .iter()
            .map(|l| if is_terminal(&gates[l.index()]) { 0 } else { conedepth[l.index()] })
            .max()
            .unwrap_or(0);
        conedepth[i] = depth + 1;
    }

    for net in forced_roots {
        if !is_terminal(&gates[net.index()]) {
            is_root[net.index()] = true;
        }
    }

    // Build the LUTs (topological: net order).
    let mut luts = Vec::new();
    let mut depth = 0;
    let mut walk = ConeWalk { gates, memo: vec![(0, 0); n], generation: 0 };
    for i in 0..n {
        if !is_root[i] {
            continue;
        }
        let root = Net(i as u32);
        let leaves: Vec<Net> = leafset[i].iter().copied().collect();
        let table = walk.table(root, &leaves);
        depth = depth.max(conedepth[i]);
        luts.push(Lut { root, leaves, table });
    }
    LutMapping { k, luts, depth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn to_bits(v: u64, w: usize) -> Vec<bool> {
        (0..w).map(|i| (v >> i) & 1 == 1).collect()
    }

    #[test]
    fn single_gate_maps_to_one_lut() {
        let mut b = NetlistBuilder::new("and");
        let x = b.input();
        let y = b.input();
        let z = b.and(x, y);
        b.output("z", z);
        let m = map_to_luts(&b.finish(), LUT_K);
        assert_eq!(m.lut_count(), 1);
        assert_eq!(m.depth(), 1);
    }

    /// A mapping read against a netlist it was not made from panics
    /// instead of reading undriven nets as 0.
    #[test]
    #[should_panic(expected = "leaf evaluated before root")]
    fn eval_refuses_an_undriven_leaf() {
        let mut b = NetlistBuilder::new("and");
        let (x, y) = (b.input(), b.input());
        let z = b.and(x, y);
        b.output("z", z);
        let m = map_to_luts(&b.finish(), LUT_K);
        // Net 1 is an input there, a NOT gate here.
        let mut b = NetlistBuilder::new("other");
        let x = b.input();
        let nx = b.not(x);
        let y = b.input();
        let z = b.and(nx, y);
        b.output("z", z);
        m.eval(&b.finish(), &[false, true], &mut []);
    }

    #[test]
    #[should_panic(expected = "output must be mapped")]
    fn eval_refuses_an_undriven_output() {
        let mut b = NetlistBuilder::new("and");
        let (x, y) = (b.input(), b.input());
        let z = b.and(x, y);
        b.output("z", z);
        let m = map_to_luts(&b.finish(), LUT_K);
        let mut b = NetlistBuilder::new("other");
        let (x, y) = (b.input(), b.input());
        let z = b.or(x, y);
        let w = b.xor(z, y);
        b.output("w", w);
        m.eval(&b.finish(), &[false, true], &mut []);
    }

    #[test]
    fn six_input_cone_fits_one_lut() {
        // OR-tree of 6 inputs: 5 gates, all absorbed into one 6-LUT.
        let mut b = NetlistBuilder::new("or6");
        let xs = b.input_bus(6);
        let o = b.reduce_or(&xs);
        b.output("o", o);
        let m = map_to_luts(&b.finish(), LUT_K);
        assert_eq!(m.lut_count(), 1);
        assert_eq!(m.depth(), 1);
    }

    #[test]
    fn seven_input_cone_needs_more_than_one_lut() {
        let mut b = NetlistBuilder::new("or7");
        let xs = b.input_bus(7);
        let o = b.reduce_or(&xs);
        b.output("o", o);
        let m = map_to_luts(&b.finish(), LUT_K);
        // Optimal is 2; the greedy heuristic may use 3.
        assert!((2..=3).contains(&m.lut_count()), "{}", m.lut_count());
        assert_eq!(m.depth(), 2);
    }

    #[test]
    fn wide_xor_scales_logarithmically_in_depth() {
        let mut b = NetlistBuilder::new("xor64");
        let xs = b.input_bus(64);
        let o = b.reduce_xor(&xs);
        b.output("o", o);
        let m = map_to_luts(&b.finish(), LUT_K);
        // Optimal is ~13 LUTs / 2 levels; the greedy mapper lands
        // within 2x of that.
        assert!(m.lut_count() <= 26, "{} luts", m.lut_count());
        assert!(m.depth() <= 4, "depth {}", m.depth());
    }

    #[test]
    fn mapped_network_matches_netlist_exhaustively() {
        // 8-bit adder, all 65536 input pairs.
        let mut b = NetlistBuilder::new("add8");
        let x = b.input_bus(8);
        let y = b.input_bus(8);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output("c", c);
        let n = b.finish();
        let m = map_to_luts(&n, LUT_K);
        for a in (0..256u64).step_by(7) {
            for bb in (0..256u64).step_by(11) {
                let mut inp = to_bits(a, 8);
                inp.extend(to_bits(bb, 8));
                let mut s1 = n.initial_state();
                let mut s2 = n.initial_state();
                assert_eq!(n.eval(&inp, &mut s1), m.eval(&n, &inp, &mut s2), "{a}+{bb}");
            }
        }
    }

    #[test]
    fn flop_inputs_become_roots() {
        let mut b = NetlistBuilder::new("regged");
        let x = b.input();
        let y = b.input();
        let z = b.xor(x, y);
        let q = b.register(z);
        b.output("q", q);
        let n = b.finish();
        let m = map_to_luts(&n, LUT_K);
        assert_eq!(m.lut_count(), 1, "the xor feeding the flop");
        // Sequential equivalence over a few cycles.
        let mut s1 = n.initial_state();
        let mut s2 = n.initial_state();
        for (a, bb) in [(true, false), (true, true), (false, false), (false, true)] {
            assert_eq!(n.eval(&[a, bb], &mut s1), m.eval(&n, &[a, bb], &mut s2));
            assert_eq!(s1, s2);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_k_rejected() {
        let mut b = NetlistBuilder::new("x");
        let i = b.input();
        b.output("o", i);
        let _ = map_to_luts(&b.finish(), 0);
    }
}

/// Random netlists and the properties the mapper and the compiled
/// evaluator keep on them.
#[cfg(test)]
pub(crate) mod props {
    use super::*;
    use crate::{Netlist, NetlistBuilder};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Random netlist construction recipe: a list of ops over the pool
    /// of existing nets.
    #[derive(Clone, Debug)]
    pub(crate) enum Op {
        Not(usize),
        And(usize, usize),
        Or(usize, usize),
        Xor(usize, usize),
        Mux(usize, usize, usize),
        /// `Mux(sel, a, a)`, which folds to `a`.
        MuxSame(usize, usize),
        Reg(usize),
        Const(bool),
        /// A flop whose data input is never connected: a self-loop.
        Hold,
    }

    pub(crate) fn build(num_inputs: usize, ops: &[Op]) -> Netlist {
        let mut b = NetlistBuilder::new("random");
        let mut pool: Vec<crate::Net> = (0..num_inputs).map(|_| b.input()).collect();
        for op in ops {
            let pick = |i: usize| pool[i % pool.len()];
            let n = match *op {
                Op::Not(a) => b.not(pick(a)),
                Op::And(a, c) => b.and(pick(a), pick(c)),
                Op::Or(a, c) => b.or(pick(a), pick(c)),
                Op::Xor(a, c) => b.xor(pick(a), pick(c)),
                Op::Mux(s, a, c) => b.mux(pick(s), pick(a), pick(c)),
                Op::MuxSame(s, a) => b.mux(pick(s), pick(a), pick(a)),
                Op::Reg(d) => b.register(pick(d)),
                Op::Const(v) => b.constant(v),
                Op::Hold => b.dff(),
            };
            pool.push(n);
        }
        // Expose the last few nets as outputs.
        for (i, &n) in pool.iter().rev().take(4).enumerate() {
            b.output(format!("o{i}"), n);
        }
        b.finish()
    }

    pub(crate) fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            any::<usize>().prop_map(Op::Not),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::And(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Or(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Xor(a, b)),
            (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(s, a, b)| Op::Mux(s, a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(s, a)| Op::MuxSame(s, a)),
            any::<usize>().prop_map(Op::Reg),
            any::<bool>().prop_map(Op::Const),
            Just(Op::Hold),
        ]
    }

    /// A flop state drawn from `seed`, so that hold flops start at
    /// something other than zero.
    pub(crate) fn seeded_state(n: &Netlist, seed: u64) -> Vec<u64> {
        let mut x = seed;
        (0..n.flops())
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z ^ (z >> 27)
            })
            .collect()
    }

    pub(crate) fn lane(words: &[u64], i: usize) -> Vec<bool> {
        words.iter().map(|w| (w >> i) & 1 == 1).collect()
    }

    /// The per-assignment oracle for truth tables: evaluates the cone
    /// rooted at `net` down to `leaves` under one leaf assignment.
    fn eval_cone(netlist: &Netlist, net: Net, leaves: &[Net], assignment: usize) -> bool {
        if let Ok(pos) = leaves.binary_search(&net) {
            return (assignment >> pos) & 1 == 1;
        }
        let e = |n| eval_cone(netlist, n, leaves, assignment);
        match netlist.gates()[net.index()] {
            Gate::Const(v) => v,
            Gate::Input | Gate::Dff(_) => unreachable!("terminal {net:?} must be a leaf"),
            Gate::Not(a) => !e(a),
            Gate::And(a, b) => e(a) && e(b),
            Gate::Or(a, b) => e(a) || e(b),
            Gate::Xor(a, b) => e(a) ^ e(b),
            Gate::Mux { sel, a, b } => e(if e(sel) { b } else { a }),
        }
    }

    /// Checks every LUT's table against [`eval_cone`]; returns the
    /// widest cone seen.
    fn check_tables(n: &Netlist, m: &LutMapping) -> Result<usize, TestCaseError> {
        let mut widest = 0;
        for lut in m.luts() {
            let oracle: Vec<bool> = (0..1usize << lut.leaves.len())
                .map(|a| eval_cone(n, lut.root, &lut.leaves, a))
                .collect();
            prop_assert_eq!(&lut.table, &oracle, "LUT at {:?}", lut.root);
            widest = widest.max(lut.leaves.len());
        }
        Ok(widest)
    }

    /// A 16-leaf cone fills 1,024 words: leaves 6..16 select the word.
    #[test]
    fn sixteen_input_cone_table_matches_the_oracle() {
        let mut b = NetlistBuilder::new("cone16");
        let xs = b.input_bus(16);
        let low = b.reduce_xor(&xs[..8].to_vec());
        let high = b.reduce_or(&xs[8..].to_vec());
        let pick = b.mux(xs[15], xs[0], xs[9]);
        let both = b.and(low, high);
        let o = b.xor(both, pick);
        b.output("o", o);
        let n = b.finish();
        let m = map_to_luts(&n, 16);
        assert_eq!(m.lut_count(), 1);
        assert_eq!(check_tables(&n, &m).expect("tables match"), 16);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The mapped LUT network is cycle-by-cycle equivalent to the
        /// source netlist on random circuits and random stimulus.
        #[test]
        fn mapping_preserves_function(
            num_inputs in 1usize..8,
            ops in prop::collection::vec(arb_op(), 1..120),
            stimulus in prop::collection::vec(any::<u8>(), 1..12),
            k in 2usize..7,
            init in any::<u64>(),
        ) {
            let n = build(num_inputs, &ops);
            let m = map_to_luts(&n, k);
            let mut s1 = lane(&seeded_state(&n, init), 0);
            let mut s2 = s1.clone();
            for byte in stimulus {
                let inputs: Vec<bool> = (0..num_inputs).map(|i| (byte >> (i % 8)) & 1 == 1).collect();
                let o1 = n.eval(&inputs, &mut s1);
                let o2 = m.eval(&n, &inputs, &mut s2);
                prop_assert_eq!(&o1, &o2);
                prop_assert_eq!(&s1, &s2);
            }
        }

        /// Each of the 64 lanes of `eval_lanes` is the one-lane `eval`
        /// of its own stimulus stream: outputs and state, every cycle.
        #[test]
        fn lanes_are_independent_streams(
            num_inputs in 1usize..8,
            ops in prop::collection::vec(arb_op(), 1..120),
            stimulus in prop::collection::vec(prop::collection::vec(any::<u64>(), 8..9), 1..12),
            init in any::<u64>(),
        ) {
            let n = build(num_inputs, &ops);
            let mut words = seeded_state(&n, init);
            let mut states: Vec<Vec<bool>> = (0..64).map(|i| lane(&words, i)).collect();
            for cycle in &stimulus {
                let inputs = &cycle[..num_inputs];
                let outs = n.eval_lanes(inputs, &mut words);
                for (i, state) in states.iter_mut().enumerate() {
                    let o = n.eval(&lane(inputs, i), state);
                    prop_assert_eq!(&o, &lane(&outs, i));
                    prop_assert_eq!(&*state, &lane(&words, i));
                }
            }
        }

        /// Word-parallel truth tables equal the per-assignment oracle at
        /// every `k` in 1..=8; cones wider than 6 take the multi-word
        /// path.
        #[test]
        fn truth_tables_match_the_per_assignment_oracle(
            num_inputs in 1usize..16,
            ops in prop::collection::vec(arb_op(), 1..200),
        ) {
            let n = build(num_inputs, &ops);
            for k in 1..=8 {
                check_tables(&n, &map_to_luts(&n, k))?;
            }
        }

        /// LUT count never exceeds the gate count (each gate fits in a
        /// LUT by itself) and depth is positive when logic exists.
        #[test]
        fn mapping_size_sanity(
            num_inputs in 1usize..6,
            ops in prop::collection::vec(arb_op(), 1..80),
        ) {
            let n = build(num_inputs, &ops);
            let m = map_to_luts(&n, LUT_K);
            prop_assert!(m.lut_count() <= n.logic_gates().max(1));
            if n.logic_gates() > 0 && m.lut_count() > 0 {
                prop_assert!(m.depth() >= 1);
            }
        }
    }
}
