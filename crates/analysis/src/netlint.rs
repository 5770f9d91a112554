//! Structural lint for gate-level netlists.
//!
//! The netlist IR is single-driver by construction (every net is driven
//! by its gate-array slot) and the builder emits combinational gates in
//! topological order, so most structural properties *should* hold — the
//! linter verifies they actually do on the netlist as loaded, the same
//! way the dynamic monitors re-check properties the software side
//! "should" satisfy:
//!
//! * dangling net references (index past the gate array),
//! * combinational cycles and forward references — both break the
//!   single-pass evaluation order; a DFF in the path legally breaks a
//!   cycle, and a DFF's self-loop (`q -> d`) is the builder's
//!   "unconnected hold" idiom,
//! * dead combinational logic unreachable backwards from any primary
//!   output or live flop,
//! * floating primary inputs, duplicate output names,
//! * LUT-mapper width/table-size consistency against the requested K,
//! * bitstream round-trip and functional equivalence of the mapped
//!   network against the source netlist.

use std::collections::BTreeSet;

use flexcore_fabric::{from_bitstream, map_to_luts, to_bitstream, Gate, Netlist};

use crate::diag::{Diagnostic, Rule};

/// Deterministic functional-equivalence vectors per netlist.
const EQUIV_STEPS: usize = 64;

/// Lints `netlist`, mapping it to `k`-input LUTs for the consistency
/// checks (the repo's FPGA model uses K=6).
pub fn lint_netlist(netlist: &Netlist, k: usize) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let structural_ok = structure(netlist, &mut diags);
    reachability(netlist, &mut diags);
    duplicate_outputs(netlist, &mut diags);
    if structural_ok {
        mapping_checks(netlist, k, &mut diags);
    }
    diags
}

/// Dangling references and evaluation-order violations. Returns
/// whether the netlist is safe to evaluate.
fn structure(netlist: &Netlist, diags: &mut Vec<Diagnostic>) -> bool {
    let n = netlist.gates().len();
    let mut ok = true;
    for (i, gate) in netlist.gates().iter().enumerate() {
        for input in gate.inputs() {
            if input.index() >= n {
                diags.push(Diagnostic::new(
                    Rule::NlDanglingRef,
                    Some(i as u32),
                    format!("gate {i} reads net {}, past the {n}-gate array", input.index()),
                ));
                ok = false;
            } else if !matches!(gate, Gate::Dff(_)) && input.index() >= i {
                // A combinational gate reading itself or a later net
                // breaks the topological evaluation order; with
                // single-driver slots this is exactly how a
                // combinational cycle manifests.
                diags.push(Diagnostic::new(
                    Rule::NlCombLoop,
                    Some(i as u32),
                    format!(
                        "combinational gate {i} reads net {} ({}): cycle or forward reference",
                        input.index(),
                        if input.index() == i { "itself" } else { "not yet evaluated" }
                    ),
                ));
                ok = false;
            }
        }
    }
    for (name, net) in netlist.outputs() {
        if net.index() >= n {
            diags.push(Diagnostic::new(
                Rule::NlDanglingRef,
                None,
                format!("output `{name}` reads net {}, past the {n}-gate array", net.index()),
            ));
            ok = false;
        }
    }
    ok
}

/// Backward closure from the primary outputs. A DFF in the closure
/// pulls in its next-state cone; everything combinational left outside
/// is dead, and primary inputs outside are floating.
fn reachability(netlist: &Netlist, diags: &mut Vec<Diagnostic>) {
    let n = netlist.gates().len();
    let mut live = vec![false; n];
    let mut stack: Vec<usize> =
        netlist.outputs().iter().map(|(_, net)| net.index()).filter(|&i| i < n).collect();
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut live[i], true) {
            continue;
        }
        for input in netlist.gates()[i].inputs() {
            if input.index() < n && !live[input.index()] {
                stack.push(input.index());
            }
        }
    }

    let mut unconnected_dffs = 0usize;
    let mut dead: Vec<usize> = Vec::new();
    let mut floating: Vec<usize> = Vec::new();
    for (i, gate) in netlist.gates().iter().enumerate() {
        match gate {
            Gate::Dff(d) if d.index() == i => unconnected_dffs += 1,
            Gate::Input => {
                if !live[i] {
                    floating.push(i);
                }
            }
            Gate::Const(_) => {}
            _ => {
                if !live[i] {
                    dead.push(i);
                }
            }
        }
    }
    if unconnected_dffs > 0 {
        diags.push(Diagnostic::new(
            Rule::NlUnconnectedDff,
            None,
            format!(
                "{unconnected_dffs} DFF(s) hold their reset value forever (self-loop data input) \
                 — expected for configuration registers"
            ),
        ));
    }
    if !dead.is_empty() {
        diags.push(Diagnostic::new(
            Rule::NlDeadLogic,
            Some(dead[0] as u32),
            format!(
                "{} gate(s) unreachable from any output (first at net {}) — dead logic",
                dead.len(),
                dead[0]
            ),
        ));
    }
    if !floating.is_empty() {
        diags.push(Diagnostic::new(
            Rule::NlFloatingInput,
            Some(floating[0] as u32),
            format!(
                "{} primary input(s) feed no output cone (first at net {})",
                floating.len(),
                floating[0]
            ),
        ));
    }
}

fn duplicate_outputs(netlist: &Netlist, diags: &mut Vec<Diagnostic>) {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for (name, _) in netlist.outputs() {
        if !seen.insert(name) {
            diags.push(Diagnostic::new(
                Rule::NlDuplicateOutput,
                None,
                format!("output name `{name}` is driven more than once"),
            ));
        }
    }
}

/// LUT-width consistency, bitstream round-trip, and functional
/// equivalence of the mapped network on deterministic vectors.
fn mapping_checks(netlist: &Netlist, k: usize, diags: &mut Vec<Diagnostic>) {
    let mapping = map_to_luts(netlist, k);
    for lut in mapping.luts() {
        if lut.leaves.len() > k {
            diags.push(Diagnostic::new(
                Rule::NlLutWidth,
                Some(lut.root.index() as u32),
                format!(
                    "LUT at net {} has {} leaves for K={k}",
                    lut.root.index(),
                    lut.leaves.len()
                ),
            ));
        }
        if lut.table.len() != 1 << lut.leaves.len() {
            diags.push(Diagnostic::new(
                Rule::NlLutWidth,
                Some(lut.root.index() as u32),
                format!(
                    "LUT at net {} has a {}-entry table for {} leaves",
                    lut.root.index(),
                    lut.table.len(),
                    lut.leaves.len()
                ),
            ));
        }
    }

    let reloaded = match from_bitstream(&to_bitstream(&mapping)) {
        Ok(m) => m,
        Err(e) => {
            diags.push(Diagnostic::new(
                Rule::NlBitstreamMismatch,
                None,
                format!("bitstream round-trip failed to load: {e:?}"),
            ));
            return;
        }
    };
    if reloaded.k() != mapping.k()
        || reloaded.lut_count() != mapping.lut_count()
        || reloaded.depth() != mapping.depth()
    {
        diags.push(Diagnostic::new(
            Rule::NlBitstreamMismatch,
            None,
            format!(
                "bitstream round-trip changed shape: K {}→{}, LUTs {}→{}, depth {}→{}",
                mapping.k(),
                reloaded.k(),
                mapping.lut_count(),
                reloaded.lut_count(),
                mapping.depth(),
                reloaded.depth()
            ),
        ));
        return;
    }

    // Lockstep the source netlist against the reloaded LUT network on
    // a deterministic input stream (LCG), carrying both flop states.
    let width = netlist.inputs().len();
    let mut lcg: u32 = 0xace1_2026;
    let mut next_bit = || {
        lcg = lcg.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        lcg >> 31 != 0
    };
    let mut gold_state = netlist.initial_state();
    let mut lut_state = netlist.initial_state();
    for step in 0..EQUIV_STEPS {
        let inputs: Vec<bool> = (0..width).map(|_| next_bit()).collect();
        let gold = netlist.eval(&inputs, &mut gold_state);
        let mapped = reloaded.eval(netlist, &inputs, &mut lut_state);
        if gold != mapped || gold_state != lut_state {
            diags.push(Diagnostic::new(
                Rule::NlBitstreamMismatch,
                None,
                format!(
                    "mapped network diverges from the netlist at step {step} \
                     (outputs {}, state {})",
                    if gold == mapped { "agree" } else { "differ" },
                    if gold_state == lut_state { "agrees" } else { "differs" }
                ),
            ));
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_fabric::{MacroBlock, NetlistBuilder, LUT_K};

    fn rules(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn clean_netlist_lints_clean() {
        let mut b = NetlistBuilder::new("clean");
        let x = b.input();
        let y = b.input();
        let s = b.xor(x, y);
        let q = b.register(s);
        b.output("sum", s);
        b.output("held", q);
        let diags = lint_netlist(&b.finish(), LUT_K);
        assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");
        assert!(!rules(&diags).contains(&Rule::NlDeadLogic), "{diags:?}");
        assert!(!rules(&diags).contains(&Rule::NlFloatingInput), "{diags:?}");
    }

    #[test]
    fn dead_gate_and_floating_input_warn() {
        let mut b = NetlistBuilder::new("dead");
        let x = b.input();
        let unused_in = b.input();
        let _dead = b.not(x);
        b.output("pass", x);
        let _ = unused_in;
        let diags = lint_netlist(&b.finish(), LUT_K);
        assert!(rules(&diags).contains(&Rule::NlDeadLogic), "{diags:?}");
        assert!(rules(&diags).contains(&Rule::NlFloatingInput), "{diags:?}");
        assert!(diags.iter().all(|d| !d.is_error()), "warnings must not gate: {diags:?}");
    }

    #[test]
    fn unconnected_dff_is_informational() {
        let mut b = NetlistBuilder::new("cfgreg");
        let q = b.dff();
        b.output("held", q);
        let diags = lint_netlist(&b.finish(), LUT_K);
        let d = diags.iter().find(|d| d.rule == Rule::NlUnconnectedDff).expect("info emitted");
        assert!(!d.is_error());
    }

    #[test]
    fn duplicate_output_name_warns() {
        let mut b = NetlistBuilder::new("dup");
        let x = b.input();
        let y = b.not(x);
        b.output("o", x);
        b.output("o", y);
        let diags = lint_netlist(&b.finish(), LUT_K);
        assert!(rules(&diags).contains(&Rule::NlDuplicateOutput), "{diags:?}");
    }

    #[test]
    fn word_level_blocks_survive_mapping_equivalence() {
        // A small datapath with state: accumulator += input bus.
        let mut b = NetlistBuilder::new("accum");
        let a = b.input_bus(8);
        let acc: Vec<_> = (0..8).map(|_| b.dff()).collect();
        let (sum, _carry) = b.add(&a, &acc.clone());
        for (q, d) in acc.iter().zip(sum.iter()) {
            b.connect_dff(*q, *d);
        }
        b.output_bus("acc", &sum);
        b.add_macro(MacroBlock::Ram { words: 16, width: 8 });
        let diags = lint_netlist(&b.finish(), LUT_K);
        assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");
    }

    #[test]
    fn tiny_k_still_round_trips() {
        let mut b = NetlistBuilder::new("k2");
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let t = b.and(x, y);
        let u = b.or(t, z);
        b.output("u", u);
        let diags = lint_netlist(&b.finish(), 2);
        assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");
    }
}
