//! Gate-level netlist IR, builder, and functional simulator.

use std::cell::RefCell;
use std::fmt;

/// A signal in the netlist (index into the gate array).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Net(pub(crate) u32);

impl Net {
    /// Index into [`Netlist::gates`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A word-level signal: LSB first.
pub type Bus = Vec<Net>;

/// One gate. Every net is driven by exactly one gate (its array slot).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Gate {
    /// Primary input.
    Input,
    /// Constant 0/1.
    Const(bool),
    /// Inverter.
    Not(Net),
    /// 2-input AND.
    And(Net, Net),
    /// 2-input OR.
    Or(Net, Net),
    /// 2-input XOR.
    Xor(Net, Net),
    /// 2-to-1 multiplexer: output = `sel ? b : a`.
    Mux {
        /// Select input.
        sel: Net,
        /// Output when `sel` is 0.
        a: Net,
        /// Output when `sel` is 1.
        b: Net,
    },
    /// D flip-flop. The data input is patched in by
    /// [`NetlistBuilder::connect_dff`]; until then it points at the
    /// flop itself (a legal self-loop meaning "hold").
    Dff(Net),
}

impl Gate {
    /// The nets this gate reads.
    pub fn inputs(&self) -> Vec<Net> {
        match *self {
            Gate::Input | Gate::Const(_) => vec![],
            Gate::Not(a) => vec![a],
            Gate::And(a, b) | Gate::Or(a, b) | Gate::Xor(a, b) => vec![a, b],
            Gate::Mux { sel, a, b } => vec![sel, a, b],
            Gate::Dff(d) => vec![d],
        }
    }
}

/// A hard block that is not mapped to LUTs: memories and register
/// files are implemented as dedicated macros on both flows (the paper's
/// meta-data register file comes from a memory compiler; FPGA RAMs use
/// BRAM/distributed RAM).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MacroBlock {
    /// An SRAM block: `words × width` bits.
    Ram {
        /// Number of addressable words.
        words: u32,
        /// Bits per word.
        width: u32,
    },
    /// A multi-ported register file: `entries × width` bits (the
    /// FlexCore shadow meta-data register file is `32 × 8`).
    RegFile {
        /// Number of registers.
        entries: u32,
        /// Bits per register.
        width: u32,
    },
    /// A FIFO: `depth` entries of `width` bits (the core-fabric forward
    /// FIFO is `64 × 293`).
    Fifo {
        /// Number of entries.
        depth: u32,
        /// Bits per entry.
        width: u32,
    },
}

impl MacroBlock {
    /// Total storage bits.
    pub fn bits(&self) -> u64 {
        match *self {
            MacroBlock::Ram { words, width } => u64::from(words) * u64::from(width),
            MacroBlock::RegFile { entries, width } => u64::from(entries) * u64::from(width),
            MacroBlock::Fifo { depth, width } => u64::from(depth) * u64::from(width),
        }
    }
}

/// A complete netlist: gates, primary outputs, and macro blocks.
#[derive(Clone, Debug)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    inputs: Vec<Net>,
    outputs: Vec<(String, Net)>,
    macros: Vec<MacroBlock>,
    logic_gates: usize,
    flops: usize,
    program: Program,
}

impl Netlist {
    /// Name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All gates, indexed by net id.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Primary inputs, in creation order.
    pub fn inputs(&self) -> &[Net] {
        &self.inputs
    }

    /// Named primary outputs.
    pub fn outputs(&self) -> &[(String, Net)] {
        &self.outputs
    }

    /// Macro blocks (RAMs, register files, FIFOs).
    pub fn macros(&self) -> &[MacroBlock] {
        &self.macros
    }

    /// Number of combinational gates (excludes inputs, constants, and
    /// flops).
    pub fn logic_gates(&self) -> usize {
        self.logic_gates
    }

    /// Number of D flip-flops.
    pub fn flops(&self) -> usize {
        self.flops
    }

    /// Evaluates the combinational logic for one clock cycle.
    ///
    /// `input_values` must match [`Netlist::inputs`] in length;
    /// `state` holds the flop values and is updated to the next state.
    /// Returns the output values in [`Netlist::outputs`] order.
    ///
    /// # Panics
    ///
    /// Panics if `input_values` or `state` have the wrong length.
    #[expect(clippy::ptr_arg, reason = "public signature, kept for existing callers")]
    pub fn eval(&self, input_values: &[bool], state: &mut Vec<bool>) -> Vec<bool> {
        self.step(input_values, state, u64::from, |w| w & 1 == 1)
    }

    /// Evaluates 64 independent stimulus streams for one clock cycle:
    /// bit `i` of every word belongs to stream `i`.
    ///
    /// `inputs` holds one word per [`Netlist::inputs`] entry and
    /// `state` one word per flop; `state` is updated to the next state.
    /// Returns one word per [`Netlist::outputs`] entry.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `state` have the wrong length.
    pub fn eval_lanes(&self, inputs: &[u64], state: &mut [u64]) -> Vec<u64> {
        self.step(inputs, state, |w| w, |w| w)
    }

    /// The one evaluator behind [`Netlist::eval`] and
    /// [`Netlist::eval_lanes`]: fills the slot array from the inputs
    /// and the current state, runs every op in its one lowered form,
    /// then latches the flops and reads the outputs.
    fn step<T: Copy>(
        &self,
        inputs: &[T],
        state: &mut [T],
        lane: impl Fn(T) -> u64,
        unlane: impl Fn(u64) -> T,
    ) -> Vec<T> {
        assert_eq!(inputs.len(), self.inputs.len(), "input vector length");
        assert_eq!(state.len(), self.flops, "state vector length");
        let p = &self.program;
        SLOTS.with_borrow_mut(|slots| {
            let first_op = 2 + inputs.len() + state.len();
            let len = first_op + p.ops.len();
            if slots.len() < len {
                slots.resize(len, 0);
            }
            // Every slot is written before it is read: an op reads only
            // earlier slots.
            let s = &mut slots[..len];
            (s[ZERO as usize], s[ONE as usize]) = (0, !0);
            for (slot, &v) in s[2..first_op].iter_mut().zip(inputs.iter().chain(state.iter())) {
                *slot = lane(v);
            }
            for (i, &[a, b, c, d]) in p.ops.iter().enumerate() {
                s[first_op + i] = (s[a as usize] & (s[b as usize] ^ s[c as usize])) ^ s[d as usize];
            }
            for (q, &d) in state.iter_mut().zip(&p.next_state) {
                *q = unlane(s[d as usize]);
            }
            p.outputs.iter().map(|&o| unlane(s[o as usize])).collect()
        })
    }

    /// Fresh all-zero flop state for [`Netlist::eval`].
    pub fn initial_state(&self) -> Vec<bool> {
        vec![false; self.flops]
    }
}

thread_local! {
    /// The slot array [`Netlist::step`] evaluates into, reused across
    /// calls so that a cycle allocates only its output vector.
    static SLOTS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Slot 0 is all-zeros and slot 1 all-ones.
const ZERO: u32 = 0;
const ONE: u32 = 1;

/// One kept gate over slot indices, the form constant folding works on;
/// [`Program`] stores it lowered by [`Op::lower`]. Op `i` of a
/// [`Program`] writes the slot after the inputs, the flops and ops
/// `0..i`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Not(u32),
    And(u32, u32),
    Or(u32, u32),
    Xor(u32, u32),
    /// `sel ? b : a`, like [`Gate::Mux`].
    Mux(u32, u32, u32),
}

impl Op {
    /// The slots this op reads, padded by repeating one.
    fn operands(self) -> [u32; 3] {
        match self {
            Op::Not(a) => [a; 3],
            Op::And(a, b) | Op::Or(a, b) | Op::Xor(a, b) => [a, b, b],
            Op::Mux(sel, a, b) => [sel, a, b],
        }
    }

    fn map(self, f: impl Fn(u32) -> u32) -> Op {
        match self {
            Op::Not(a) => Op::Not(f(a)),
            Op::And(a, b) => Op::And(f(a), f(b)),
            Op::Or(a, b) => Op::Or(f(a), f(b)),
            Op::Xor(a, b) => Op::Xor(f(a), f(b)),
            Op::Mux(sel, a, b) => Op::Mux(f(sel), f(a), f(b)),
        }
    }

    /// The op as `[a, b, c, d]`, computing
    /// `(s[a] & (s[b] ^ s[c])) ^ s[d]`: every kept gate runs as this one
    /// branchless form.
    fn lower(self) -> [u32; 4] {
        match self {
            Op::Not(x) => [ONE, x, ONE, ZERO],
            Op::And(x, y) => [x, y, ZERO, ZERO],
            Op::Or(x, y) => [x, y, ONE, y],
            Op::Xor(x, y) => [ONE, x, y, ZERO],
            Op::Mux(sel, x, y) => [sel, x, y, x],
        }
    }

    /// Constant folding: `Ok(signal)` when the op reduces to an existing
    /// signal or a constant, else the (possibly simpler) op to keep.
    fn fold(self) -> Result<u32, Op> {
        match self {
            Op::Not(ZERO) => Ok(ONE),
            Op::Not(ONE) => Ok(ZERO),
            Op::And(ZERO, _) | Op::And(_, ZERO) => Ok(ZERO),
            Op::And(ONE, x) | Op::And(x, ONE) => Ok(x),
            Op::Or(ONE, _) | Op::Or(_, ONE) => Ok(ONE),
            Op::Or(ZERO, x) | Op::Or(x, ZERO) => Ok(x),
            Op::Xor(ZERO, x) | Op::Xor(x, ZERO) => Ok(x),
            Op::Xor(ONE, x) | Op::Xor(x, ONE) => Op::Not(x).fold(),
            Op::Mux(ZERO, a, _) => Ok(a),
            Op::Mux(ONE, _, b) => Ok(b),
            Op::Mux(_, a, b) if a == b => Ok(a),
            Op::Mux(sel, ZERO, ONE) => Ok(sel),
            Op::Mux(sel, ONE, ZERO) => Err(Op::Not(sel)),
            Op::Mux(sel, ZERO, b) => Op::And(sel, b).fold(),
            Op::Mux(sel, a, ONE) => Op::Or(sel, a).fold(),
            op => Err(op),
        }
    }
}

/// A netlist compiled for evaluation: slot 0 is all-zeros, slot 1
/// all-ones, then one slot per input, one per flop (both in creation
/// order), then one per op.
#[derive(Clone, Debug)]
struct Program {
    /// Each op lowered by [`Op::lower`].
    ops: Vec<[u32; 4]>,
    /// The slot each flop latches, in flop order.
    next_state: Vec<u32>,
    /// The slot of each primary output.
    outputs: Vec<u32>,
}

impl Program {
    /// Folds constants, drops gates that reach neither an output nor a
    /// flop's next state, and numbers the surviving gates in creation
    /// order, which is topological (a combinational gate only reads
    /// earlier nets).
    fn compile(gates: &[Gate], outputs: &[(String, Net)]) -> Program {
        // Pass 1, in creation order: each net becomes a signal, ZERO,
        // ONE or `net + 2`, after folding its gate's operands.
        let mut signal = Vec::with_capacity(gates.len());
        let mut kept: Vec<Option<Op>> = vec![None; gates.len()];
        for (i, gate) in gates.iter().enumerate() {
            let own = i as u32 + 2;
            let s = |n: Net| signal[n.index()];
            let op = match *gate {
                Gate::Input | Gate::Dff(_) => Ok(own),
                Gate::Const(v) => Ok(u32::from(v)),
                Gate::Not(a) => Op::Not(s(a)).fold(),
                Gate::And(a, b) => Op::And(s(a), s(b)).fold(),
                Gate::Or(a, b) => Op::Or(s(a), s(b)).fold(),
                Gate::Xor(a, b) => Op::Xor(s(a), s(b)).fold(),
                Gate::Mux { sel, a, b } => Op::Mux(s(sel), s(a), s(b)).fold(),
            };
            signal.push(op.unwrap_or_else(|op| {
                kept[i] = Some(op);
                own
            }));
        }
        let next_state: Vec<u32> = gates
            .iter()
            .filter_map(|g| match *g {
                Gate::Dff(d) => Some(signal[d.index()]),
                _ => None,
            })
            .collect();
        let outputs: Vec<u32> = outputs.iter().map(|(_, n)| signal[n.index()]).collect();

        // Pass 2, in reverse: keep the ops an output or a flop reads.
        let mut live = vec![false; gates.len() + 2];
        for &s in next_state.iter().chain(&outputs) {
            live[s as usize] = true;
        }
        for i in (0..gates.len()).rev() {
            if let (true, Some(op)) = (live[i + 2], kept[i]) {
                for s in op.operands() {
                    live[s as usize] = true;
                }
            }
        }

        // Pass 3: number the slots and rewrite every reference.
        let mut slot = vec![u32::MAX; gates.len() + 2];
        (slot[0], slot[1]) = (ZERO, ONE);
        let inputs = gates.iter().enumerate().filter(|(_, g)| matches!(g, Gate::Input));
        let flops = gates.iter().enumerate().filter(|(_, g)| matches!(g, Gate::Dff(_)));
        let ops = (0..gates.len()).filter(|&i| live[i + 2] && kept[i].is_some());
        for (next, i) in (2..).zip(inputs.chain(flops).map(|(i, _)| i).chain(ops.clone())) {
            slot[i + 2] = next;
        }
        let at = |s: u32| slot[s as usize];
        Program {
            ops: ops.map(|i| kept[i].expect("filtered").map(at).lower()).collect(),
            next_state: next_state.into_iter().map(at).collect(),
            outputs: outputs.into_iter().map(at).collect(),
        }
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} gates ({} logic, {} flops), {} inputs, {} outputs, {} macros",
            self.name,
            self.gates.len(),
            self.logic_gates(),
            self.flops(),
            self.inputs.len(),
            self.outputs.len(),
            self.macros.len()
        )
    }
}

/// Builder for [`Netlist`]s, with word-level helpers.
///
/// # Example
///
/// ```
/// use flexcore_fabric::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new("adder8");
/// let x = b.input_bus(8);
/// let y = b.input_bus(8);
/// let (sum, carry) = b.add(&x, &y);
/// b.output_bus("sum", &sum);
/// b.output("carry", carry);
/// let n = b.finish();
/// assert_eq!(n.inputs().len(), 16);
/// assert_eq!(n.outputs().len(), 9);
/// ```
#[derive(Clone, Debug)]
pub struct NetlistBuilder {
    name: String,
    gates: Vec<Gate>,
    inputs: Vec<Net>,
    outputs: Vec<(String, Net)>,
    macros: Vec<MacroBlock>,
}

impl NetlistBuilder {
    /// Starts a netlist called `name`.
    pub fn new(name: impl Into<String>) -> NetlistBuilder {
        NetlistBuilder {
            name: name.into(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            macros: Vec::new(),
        }
    }

    fn push(&mut self, g: Gate) -> Net {
        let n = Net(self.gates.len() as u32);
        self.gates.push(g);
        n
    }

    /// Adds a primary input.
    pub fn input(&mut self) -> Net {
        let n = self.push(Gate::Input);
        self.inputs.push(n);
        n
    }

    /// Adds `width` primary inputs as a bus (LSB first).
    pub fn input_bus(&mut self, width: usize) -> Bus {
        (0..width).map(|_| self.input()).collect()
    }

    /// A constant signal.
    pub fn constant(&mut self, v: bool) -> Net {
        self.push(Gate::Const(v))
    }

    /// A constant bus holding `value` (LSB first).
    pub fn constant_bus(&mut self, value: u64, width: usize) -> Bus {
        (0..width).map(|i| self.constant((value >> i) & 1 == 1)).collect()
    }

    /// Inverter.
    pub fn not(&mut self, a: Net) -> Net {
        self.push(Gate::Not(a))
    }

    /// 2-input AND.
    pub fn and(&mut self, a: Net, b: Net) -> Net {
        self.push(Gate::And(a, b))
    }

    /// 2-input OR.
    pub fn or(&mut self, a: Net, b: Net) -> Net {
        self.push(Gate::Or(a, b))
    }

    /// 2-input XOR.
    pub fn xor(&mut self, a: Net, b: Net) -> Net {
        self.push(Gate::Xor(a, b))
    }

    /// 2-to-1 mux: `sel ? b : a`.
    pub fn mux(&mut self, sel: Net, a: Net, b: Net) -> Net {
        self.push(Gate::Mux { sel, a, b })
    }

    /// A D flip-flop whose data input is connected later with
    /// [`connect_dff`](NetlistBuilder::connect_dff) (it holds its value
    /// until then).
    pub fn dff(&mut self) -> Net {
        let slot = Net(self.gates.len() as u32);
        self.push(Gate::Dff(slot))
    }

    /// Connects the data input of a flop created by
    /// [`dff`](NetlistBuilder::dff).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a flop.
    pub fn connect_dff(&mut self, q: Net, d: Net) {
        match &mut self.gates[q.index()] {
            Gate::Dff(slot) => *slot = d,
            other => panic!("connect_dff on non-flop {other:?}"),
        }
    }

    /// A registered version of `d` (flop with input already connected).
    pub fn register(&mut self, d: Net) -> Net {
        let q = self.dff();
        self.connect_dff(q, d);
        q
    }

    /// Registers a whole bus.
    pub fn register_bus(&mut self, d: &Bus) -> Bus {
        d.iter().map(|&n| self.register(n)).collect()
    }

    /// Adds a macro block (not mapped to LUTs; costed separately).
    pub fn add_macro(&mut self, m: MacroBlock) {
        self.macros.push(m);
    }

    /// Names a primary output.
    pub fn output(&mut self, name: impl Into<String>, n: Net) {
        self.outputs.push((name.into(), n));
    }

    /// Names each bit of a bus as `name[i]`.
    pub fn output_bus(&mut self, name: &str, bus: &Bus) {
        for (i, &n) in bus.iter().enumerate() {
            self.outputs.push((format!("{name}[{i}]"), n));
        }
    }

    // ---- word-level helpers ----------------------------------------

    /// Reduction OR of a bus (0 for an empty bus).
    pub fn reduce_or(&mut self, bus: &Bus) -> Net {
        self.reduce(bus, |b, x, y| b.or(x, y), false)
    }

    /// Reduction AND of a bus (1 for an empty bus).
    pub fn reduce_and(&mut self, bus: &Bus) -> Net {
        self.reduce(bus, |b, x, y| b.and(x, y), true)
    }

    /// Reduction XOR of a bus (0 for an empty bus).
    pub fn reduce_xor(&mut self, bus: &Bus) -> Net {
        self.reduce(bus, |b, x, y| b.xor(x, y), false)
    }

    fn reduce(
        &mut self,
        bus: &Bus,
        mut f: impl FnMut(&mut Self, Net, Net) -> Net,
        empty: bool,
    ) -> Net {
        // Balanced tree to keep logic depth logarithmic, as a mapper
        // would see from synthesis.
        let mut layer: Vec<Net> = bus.clone();
        if layer.is_empty() {
            return self.constant(empty);
        }
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 { f(self, pair[0], pair[1]) } else { pair[0] });
            }
            layer = next;
        }
        layer[0]
    }

    /// Bitwise binary op over two equal-width buses.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn bitwise(
        &mut self,
        a: &Bus,
        b: &Bus,
        mut f: impl FnMut(&mut Self, Net, Net) -> Net,
    ) -> Bus {
        assert_eq!(a.len(), b.len(), "bus width mismatch");
        a.iter().zip(b).map(|(&x, &y)| f(self, x, y)).collect()
    }

    /// Parallel-prefix (Sklansky) addition with carry-in; returns
    /// `(sum, carry_out)`. Log-depth, like the carry structures real
    /// synthesis infers — a ripple chain would give the frequency
    /// model an unrealistically deep critical path.
    fn prefix_add(&mut self, a: &Bus, b: &Bus, cin: Net) -> (Bus, Net) {
        assert_eq!(a.len(), b.len(), "bus width mismatch");
        let n = a.len();
        if n == 0 {
            return (Vec::new(), cin);
        }
        let p0: Vec<Net> = a.iter().zip(b).map(|(&x, &y)| self.xor(x, y)).collect();
        let mut g: Vec<Net> = a.iter().zip(b).map(|(&x, &y)| self.and(x, y)).collect();
        let mut p = p0.clone();
        // Fold the carry-in into bit 0's generate.
        let pc = self.and(p[0], cin);
        g[0] = self.or(g[0], pc);
        // Sklansky up-sweep: after the sweep, g[i] is the carry out of
        // bit i.
        let mut stride = 1usize;
        while stride < n {
            for i in 0..n {
                if i & stride != 0 {
                    let j = (i & !(stride - 1)) - 1;
                    let t = self.and(p[i], g[j]);
                    g[i] = self.or(g[i], t);
                    p[i] = self.and(p[i], p[j]);
                }
            }
            stride <<= 1;
        }
        let mut sum = Vec::with_capacity(n);
        sum.push(self.xor(p0[0], cin));
        for i in 1..n {
            sum.push(self.xor(p0[i], g[i - 1]));
        }
        (sum, g[n - 1])
    }

    /// Addition; returns `(sum, carry_out)`.
    pub fn add(&mut self, a: &Bus, b: &Bus) -> (Bus, Net) {
        let zero = self.constant(false);
        self.prefix_add(a, b, zero)
    }

    /// Two's-complement subtraction `a - b`; returns `(diff, borrow)`
    /// where `borrow` is the *inverted* carry-out (set when `a < b`
    /// unsigned).
    pub fn sub(&mut self, a: &Bus, b: &Bus) -> (Bus, Net) {
        let nb: Bus = b.iter().map(|&n| self.not(n)).collect();
        let one = self.constant(true);
        let (diff, carry) = self.prefix_add(a, &nb, one);
        let borrow = self.not(carry);
        (diff, borrow)
    }

    /// Equality comparator.
    pub fn eq(&mut self, a: &Bus, b: &Bus) -> Net {
        let diffs = self.bitwise(a, b, |s, x, y| s.xor(x, y));
        let any = self.reduce_or(&diffs);
        self.not(any)
    }

    /// Word-level 2-to-1 mux.
    pub fn mux_bus(&mut self, sel: Net, a: &Bus, b: &Bus) -> Bus {
        assert_eq!(a.len(), b.len(), "bus width mismatch");
        a.iter().zip(b).map(|(&x, &y)| self.mux(sel, x, y)).collect()
    }

    /// One-hot decoder: `2^n` outputs from an `n`-bit select bus.
    pub fn decoder(&mut self, sel: &Bus) -> Bus {
        let n = sel.len();
        let inv: Bus = sel.iter().map(|&s| self.not(s)).collect();
        (0..1usize << n)
            .map(|code| {
                let terms: Bus = (0..n)
                    .map(|bit| if code >> bit & 1 == 1 { sel[bit] } else { inv[bit] })
                    .collect();
                self.reduce_and(&terms)
            })
            .collect()
    }

    /// Barrel shifter: logical right shift of `value` by `amount`
    /// (stages of muxes; `amount` is LSB-first). Fills with zeros.
    pub fn shift_right(&mut self, value: &Bus, amount: &Bus) -> Bus {
        let zero = self.constant(false);
        let mut cur = value.clone();
        for (stage, &sel) in amount.iter().enumerate() {
            let dist = 1usize << stage;
            let shifted: Bus = (0..cur.len())
                .map(|i| if i + dist < cur.len() { cur[i + dist] } else { zero })
                .collect();
            cur = self.mux_bus(sel, &cur, &shifted);
        }
        cur
    }

    /// Finishes the netlist and compiles it for [`Netlist::eval`] and
    /// [`Netlist::eval_lanes`].
    pub fn finish(self) -> Netlist {
        let count = |f: fn(&Gate) -> bool| self.gates.iter().filter(|g| f(g)).count();
        let flops = count(|g| matches!(g, Gate::Dff(_)));
        let logic_gates = count(|g| !matches!(g, Gate::Input | Gate::Const(_) | Gate::Dff(_)));
        let program = Program::compile(&self.gates, &self.outputs);
        Netlist {
            name: self.name,
            gates: self.gates,
            inputs: self.inputs,
            outputs: self.outputs,
            macros: self.macros,
            logic_gates,
            flops,
            program,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_comb(n: &Netlist, inputs: &[bool]) -> Vec<bool> {
        let mut st = n.initial_state();
        n.eval(inputs, &mut st)
    }

    fn to_bits(v: u64, w: usize) -> Vec<bool> {
        (0..w).map(|i| (v >> i) & 1 == 1).collect()
    }

    fn from_bits(bits: &[bool]) -> u64 {
        bits.iter().enumerate().map(|(i, &b)| (b as u64) << i).sum()
    }

    #[test]
    fn adder_adds() {
        let mut b = NetlistBuilder::new("add8");
        let x = b.input_bus(8);
        let y = b.input_bus(8);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output("c", c);
        let n = b.finish();
        for (a, bb) in [(0u64, 0u64), (1, 1), (200, 100), (255, 255), (17, 42)] {
            let mut inp = to_bits(a, 8);
            inp.extend(to_bits(bb, 8));
            let out = eval_comb(&n, &inp);
            let sum = from_bits(&out[..8]);
            let carry = out[8] as u64;
            assert_eq!(sum + (carry << 8), a + bb, "{a}+{bb}");
        }
    }

    #[test]
    fn subtractor_and_borrow() {
        let mut b = NetlistBuilder::new("sub8");
        let x = b.input_bus(8);
        let y = b.input_bus(8);
        let (d, borrow) = b.sub(&x, &y);
        b.output_bus("d", &d);
        b.output("borrow", borrow);
        let n = b.finish();
        for (a, bb) in [(5u64, 3u64), (3, 5), (0, 0), (255, 1), (0, 255)] {
            let mut inp = to_bits(a, 8);
            inp.extend(to_bits(bb, 8));
            let out = eval_comb(&n, &inp);
            assert_eq!(from_bits(&out[..8]), a.wrapping_sub(bb) & 0xff, "{a}-{bb}");
            assert_eq!(out[8], a < bb, "borrow {a}-{bb}");
        }
    }

    #[test]
    fn equality_comparator() {
        let mut b = NetlistBuilder::new("eq4");
        let x = b.input_bus(4);
        let y = b.input_bus(4);
        let e = b.eq(&x, &y);
        b.output("eq", e);
        let n = b.finish();
        for a in 0..16u64 {
            for c in 0..16u64 {
                let mut inp = to_bits(a, 4);
                inp.extend(to_bits(c, 4));
                assert_eq!(eval_comb(&n, &inp)[0], a == c);
            }
        }
    }

    #[test]
    fn decoder_is_one_hot() {
        let mut b = NetlistBuilder::new("dec3");
        let s = b.input_bus(3);
        let outs = b.decoder(&s);
        b.output_bus("o", &outs);
        let n = b.finish();
        for code in 0..8u64 {
            let out = eval_comb(&n, &to_bits(code, 3));
            for (i, &bit) in out.iter().enumerate() {
                assert_eq!(bit, i as u64 == code, "code {code} bit {i}");
            }
        }
    }

    #[test]
    fn barrel_shifter_shifts() {
        let mut b = NetlistBuilder::new("shr8");
        let v = b.input_bus(8);
        let a = b.input_bus(3);
        let out = b.shift_right(&v, &a);
        b.output_bus("o", &out);
        let n = b.finish();
        for value in [0b1011_0110u64, 0xff, 0x01, 0x80] {
            for amt in 0..8u64 {
                let mut inp = to_bits(value, 8);
                inp.extend(to_bits(amt, 3));
                let out = eval_comb(&n, &inp);
                assert_eq!(from_bits(&out), value >> amt, "{value:#x} >> {amt}");
            }
        }
    }

    #[test]
    fn dff_delays_by_one_cycle() {
        let mut b = NetlistBuilder::new("reg1");
        let d = b.input();
        let q = b.register(d);
        b.output("q", q);
        let n = b.finish();
        let mut st = n.initial_state();
        assert_eq!(n.eval(&[true], &mut st), vec![false], "reset state visible");
        assert_eq!(n.eval(&[false], &mut st), vec![true], "previous input appears");
        assert_eq!(n.eval(&[false], &mut st), vec![false]);
    }

    #[test]
    fn unconnected_dff_holds_value() {
        let mut b = NetlistBuilder::new("hold");
        let q = b.dff();
        b.output("q", q);
        let n = b.finish();
        let mut st = vec![true];
        assert_eq!(n.eval(&[], &mut st), vec![true]);
        assert_eq!(st, vec![true], "self-loop holds");
    }

    #[test]
    fn reduce_helpers() {
        let mut b = NetlistBuilder::new("red");
        let x = b.input_bus(5);
        let o = b.reduce_or(&x);
        let a = b.reduce_and(&x);
        let p = b.reduce_xor(&x);
        b.output("or", o);
        b.output("and", a);
        b.output("xor", p);
        let n = b.finish();
        for v in 0..32u64 {
            let out = eval_comb(&n, &to_bits(v, 5));
            assert_eq!(out[0], v != 0);
            assert_eq!(out[1], v == 31);
            assert_eq!(out[2], (v.count_ones() % 2) == 1);
        }
    }

    #[test]
    fn counts_and_display() {
        let mut b = NetlistBuilder::new("counts");
        let x = b.input();
        let y = b.input();
        let z = b.and(x, y);
        let q = b.register(z);
        b.output("q", q);
        b.add_macro(MacroBlock::RegFile { entries: 32, width: 8 });
        let n = b.finish();
        assert_eq!(n.logic_gates(), 1);
        assert_eq!(n.flops(), 1);
        assert_eq!(n.macros()[0].bits(), 256);
        assert!(n.to_string().contains("counts"));
    }
}

/// The compiled program against a plain interpreter of the gate list.
#[cfg(test)]
mod props {
    use super::*;
    use crate::lutmap::props::{arb_op, build, lane, seeded_state};
    use proptest::prelude::*;

    /// Evaluates `n`'s gates one at a time in net order over 64 lanes,
    /// with no folding and no dead-gate removal.
    fn interpret(n: &Netlist, inputs: &[u64], state: &mut [u64]) -> Vec<u64> {
        let (mut ins, mut flops) = (inputs.iter(), state.iter());
        let mut v: Vec<u64> = Vec::with_capacity(n.gates().len());
        for gate in n.gates() {
            let s = |net: Net| v[net.index()];
            let word = match *gate {
                Gate::Input => *ins.next().expect("one word per input"),
                Gate::Dff(_) => *flops.next().expect("one word per flop"),
                Gate::Const(c) => 0u64.wrapping_sub(u64::from(c)),
                Gate::Not(a) => !s(a),
                Gate::And(a, b) => s(a) & s(b),
                Gate::Or(a, b) => s(a) | s(b),
                Gate::Xor(a, b) => s(a) ^ s(b),
                Gate::Mux { sel, a, b } => (s(sel) & s(b)) | (!s(sel) & s(a)),
            };
            v.push(word);
        }
        let next = n.gates().iter().filter_map(|g| match *g {
            Gate::Dff(d) => Some(v[d.index()]),
            _ => None,
        });
        for (q, d) in state.iter_mut().zip(next) {
            *q = d;
        }
        n.outputs().iter().map(|(_, o)| v[o.index()]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// `eval_lanes` and `eval` (lane 0) equal the gate interpreter,
        /// outputs and state, every cycle; the random circuits include
        /// constants and `Mux(sel, a, a)`, so folding is exercised.
        #[test]
        fn compiled_program_matches_a_gate_interpreter(
            num_inputs in 1usize..8,
            ops in prop::collection::vec(arb_op(), 1..120),
            stimulus in prop::collection::vec(prop::collection::vec(any::<u64>(), 8..9), 1..12),
            init in any::<u64>(),
        ) {
            let n = build(num_inputs, &ops);
            let mut words = seeded_state(&n, init);
            let mut reference = words.clone();
            let mut bools = lane(&words, 0);
            for cycle in &stimulus {
                let inputs = &cycle[..num_inputs];
                let want = interpret(&n, inputs, &mut reference);
                prop_assert_eq!(&n.eval_lanes(inputs, &mut words), &want);
                prop_assert_eq!(&words, &reference);
                prop_assert_eq!(n.eval(&lane(inputs, 0), &mut bools), lane(&want, 0));
                prop_assert_eq!(&bools, &lane(&reference, 0));
            }
        }
    }
}
