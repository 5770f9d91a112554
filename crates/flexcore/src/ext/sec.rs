//! Soft Error Check (SEC).

use flexcore_fabric::{Net, Netlist, NetlistBuilder};
use flexcore_isa::{Instruction, Opcode};
use flexcore_pipeline::TracePacket;

use crate::ext::{ExtEnv, Extension, ExtensionDescriptor, MonitorTrap};
use crate::interface::{Cfgr, ForwardPolicy};

/// Soft Error Check: verifies the main core's ALU results by
/// re-executing each forwarded ALU operation on the fabric (§IV.D),
/// as in Argus. Additions, subtractions, logic ops, and shifts are
/// verified bit-for-bit; multiplications and divisions are verified
/// with modular arithmetic (mod the Mersenne number 3).
#[derive(Clone, Debug, Default)]
pub struct Sec {
    checked: u64,
    residue_checked: u64,
}

impl Sec {
    /// Creates the extension.
    pub fn new() -> Sec {
        Sec::default()
    }

    /// Number of exactly re-executed operations so far.
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Number of residue-checked (mul/div) operations so far.
    pub fn residue_checked(&self) -> u64 {
        self.residue_checked
    }

    fn mod3(x: u32) -> u32 {
        // Digit-sum in base 4: 4 ≡ 1 (mod 3), so summing 2-bit digits
        // preserves the residue — exactly what the fabric tree does.
        let mut v = x;
        while v > 3 {
            let mut s = 0;
            while v > 0 {
                s += v & 3;
                v >>= 2;
            }
            v = s;
        }
        if v == 3 {
            0
        } else {
            v
        }
    }
}

impl Extension for Sec {
    fn name(&self) -> &'static str {
        "SEC"
    }

    fn snapshot_state(&self) -> Vec<u64> {
        vec![self.checked, self.residue_checked]
    }

    fn restore_state(&mut self, state: &[u64]) {
        if let [checked, residue_checked] = *state {
            self.checked = checked;
            self.residue_checked = residue_checked;
        }
    }

    fn descriptor(&self) -> ExtensionDescriptor {
        ExtensionDescriptor {
            abbrev: "SEC",
            name: "Soft Error Check",
            meta_data: &[],
            transparent_ops: &["Check an ALU operation"],
            sw_visible_ops: &["Exception when a check fails"],
        }
    }

    fn cfgr(&self) -> Cfgr {
        Cfgr::new().with_classes(|c| c.is_alu(), ForwardPolicy::Always)
    }

    fn pipeline_stages(&self) -> u32 {
        6
    }

    fn process(
        &mut self,
        pkt: &TracePacket,
        env: &mut ExtEnv<'_>,
    ) -> Result<Option<u32>, MonitorTrap> {
        let _ = &env; // SEC keeps no meta-data (Table I).
        let Instruction::Alu { op, .. } = pkt.inst else {
            return Ok(None);
        };
        let (a, b, res) = (pkt.srcv1, pkt.srcv2, pkt.result);
        let ok = match op {
            Opcode::Umul | Opcode::Smul => {
                // Residue check against the recomputed low product.
                // (Checking the full 64-bit product would need the `%y`
                // register, which the core model omits; the low-word
                // recomputation keeps the check sound while still only
                // comparing mod-3 residues, so ±3 faults escape as with
                // real residue codes.)
                self.residue_checked += 1;
                Sec::mod3(res) == Sec::mod3(a.wrapping_mul(b))
            }
            Opcode::Udiv | Opcode::Sdiv => {
                // Multiply-back verification as in Argus: the checker
                // recomputes q*b + r and compares residues with a.
                // Exact arithmetic in i128 — wrapping at 2^32 would
                // break the mod-3 homomorphism since 2^32 ≡ 1 (mod 3).
                self.residue_checked += 1;
                if b == 0 {
                    true // the core traps on its own; nothing to check
                } else {
                    let r3 = |x: i128| x.rem_euclid(3);
                    let (ai, bi, qi) = if op == Opcode::Udiv {
                        (i128::from(a), i128::from(b), i128::from(res))
                    } else {
                        (i128::from(a as i32), i128::from(b as i32), i128::from(res as i32))
                    };
                    let rem = ai % bi; // the checker's own remainder unit
                    r3(ai) == (r3(qi) * r3(bi) + r3(rem)) % 3
                }
            }
            _ => {
                // Exact re-execution for add/sub/logic/shift families.
                self.checked += 1;
                match crate::ext::sec::reexecute(op, a, b) {
                    Some(expect) => expect == res,
                    None => true,
                }
            }
        };
        if ok {
            Ok(None)
        } else {
            Err(MonitorTrap {
                pc: pkt.pc,
                reason: format!(
                    "ALU result mismatch for {}: {:#010x} op {:#010x} -> {:#010x}",
                    op, a, b, res
                ),
            })
        }
    }

    /// The SEC datapath (§IV.D, Figure 3d): a full 32-bit adder and
    /// subtractor, a logic unit, a barrel shifter, mod-3 residue trees
    /// for multiply/divide checking, and the final comparator — by far
    /// the largest extension, matching the paper's Table III.
    fn vcd_stimulus(&self, pkt: &TracePacket) -> Vec<bool> {
        // Input order: a[32], b[32], res[32], opsel[5].
        let mut s = Vec::with_capacity(101);
        super::push_bits(&mut s, pkt.srcv1, 32);
        super::push_bits(&mut s, pkt.srcv2, 32);
        super::push_bits(&mut s, pkt.result, 32);
        super::push_bits(&mut s, pkt.class.index() as u32, 5);
        s
    }

    fn netlist(&self) -> Netlist {
        let mut b = NetlistBuilder::new("sec");
        let a_in = b.input_bus(32);
        let b_in = b.input_bus(32);
        let res_in = b.input_bus(32);
        let opsel = b.input_bus(5);

        // Stage 1 registers.
        let a = b.register_bus(&a_in);
        let bb = b.register_bus(&b_in);
        let res = b.register_bus(&res_in);
        let op = b.register_bus(&opsel);

        // Re-execution units.
        let (sum, _) = b.add(&a, &bb);
        let (diff, _) = b.sub(&a, &bb);
        let and_u = b.bitwise(&a, &bb, |s, x, y| s.and(x, y));
        let or_u = b.bitwise(&a, &bb, |s, x, y| s.or(x, y));
        let xor_u = b.bitwise(&a, &bb, |s, x, y| s.xor(x, y));
        let shamt: Vec<_> = bb[0..5].to_vec();
        let shr = b.shift_right(&a, &shamt);

        // Select the expected result by opcode (one-hot from a 3-bit
        // subset of the opcode selector).
        let sel_bits: Vec<_> = op[0..3].to_vec();
        let onehot = b.decoder(&sel_bits);
        let mut expect = b.constant_bus(0, 32);
        for (i, unit) in [&sum, &diff, &and_u, &or_u, &xor_u, &shr].into_iter().enumerate() {
            expect = b.mux_bus(onehot[i], &expect, unit);
        }
        let expect_r = b.register_bus(&expect);
        let res_r = b.register_bus(&res);

        // Exact comparison.
        let exact_ok = b.eq(&expect_r, &res_r);

        // Residue path: mod-3 of a, b, res via 2-bit digit-sum trees,
        // a 2x2-bit residue multiplier, and a residue comparator.
        let ra = mod3_tree(&mut b, &a);
        let rb = mod3_tree(&mut b, &bb);
        let rr = mod3_tree(&mut b, &res);
        // Residue multiplier: (ra * rb) on 2-bit values -> 4-bit
        // product, folded mod 3.
        let p0 = b.and(ra[0], rb[0]);
        let p1a = b.and(ra[1], rb[0]);
        let p1b = b.and(ra[0], rb[1]);
        let p1 = b.xor(p1a, p1b);
        let p1c = b.and(p1a, p1b);
        let p2a = b.and(ra[1], rb[1]);
        let p2 = b.xor(p2a, p1c);
        let p3 = b.and(p2a, p1c);
        let d0 = [p0, p1];
        let d1 = [p2, p3];
        let prod_mod = fold_mod3(&mut b, &d0, &d1);
        let residue_ok = b.eq(&prod_mod, &rr);

        // Final verdict: pick the check by op class (bit 3 of the
        // selector distinguishes mul/div).
        let is_muldiv = op[3];
        let is_muldiv_r = b.register(is_muldiv);
        let ok = b.mux(is_muldiv_r, exact_ok, residue_ok);
        let nok = b.not(ok);
        let trap = b.register(nok);
        b.output("trap", trap);

        b.finish()
    }
}

/// Adds two 2-bit mod-3 residues: a 3-bit add followed by up to two
/// subtract-3 correction steps (structurally what the fabric tree
/// does).
fn fold_mod3(b: &mut NetlistBuilder, x: &[Net], y: &[Net]) -> Vec<Net> {
    let zero = b.constant(false);
    let x3 = vec![x[0], x[1], zero];
    let y3 = vec![y[0], y[1], zero];
    let (s, _) = b.add(&x3, &y3);
    let three = b.constant_bus(3, 3);
    let (sm3, borrow) = b.sub(&s, &three);
    let ge3 = b.not(borrow);
    let folded = b.mux_bus(ge3, &s, &sm3);
    let (sm6, borrow2) = b.sub(&folded, &three);
    let ge3b = b.not(borrow2);
    let f2 = b.mux_bus(ge3b, &folded, &sm6);
    vec![f2[0], f2[1]]
}

/// Reduces a 32-bit bus modulo 3 by summing base-4 digits in a tree
/// (4 ≡ 1 mod 3).
fn mod3_tree(b: &mut NetlistBuilder, x: &[Net]) -> Vec<Net> {
    let mut digits: Vec<Vec<Net>> = x.chunks(2).map(|c| c.to_vec()).collect();
    while digits.len() > 1 {
        let mut next = Vec::new();
        for pair in digits.chunks(2) {
            if pair.len() == 1 {
                next.push(pair[0].clone());
                continue;
            }
            next.push(fold_mod3(b, &pair[0], &pair[1]));
        }
        digits = next;
    }
    digits.pop().expect("nonempty bus")
}

/// Exact re-execution of the directly checkable ALU subset. Returns
/// `None` for opcodes SEC checks by residue instead.
pub(crate) fn reexecute(op: Opcode, a: u32, b: u32) -> Option<u32> {
    use Opcode::*;
    Some(match op {
        Add | Addcc | Save | Restore => a.wrapping_add(b),
        Sub | Subcc => a.wrapping_sub(b),
        And | Andcc => a & b,
        Or | Orcc => a | b,
        Xor | Xorcc => a ^ b,
        Andn | Andncc => a & !b,
        Orn | Orncc => a | !b,
        Xnor | Xnorcc => !(a ^ b),
        Sll => a.wrapping_shl(b & 31),
        Srl => a.wrapping_shr(b & 31),
        Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::tests_util::{alu_packet, env_parts};
    use flexcore_fabric::{map_to_luts, LUT_K};
    use flexcore_isa::{InstrClass, Reg};

    fn check(op: Opcode, a: u32, b: u32, res: u32) -> Result<Option<u32>, MonitorTrap> {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut sec = Sec::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        sec.process(&alu_packet(op, Reg::O0, Reg::O1, Reg::O2, a, b, res), &mut env)
    }

    #[test]
    fn correct_results_pass() {
        assert!(check(Opcode::Add, 5, 7, 12).is_ok());
        assert!(check(Opcode::Sub, 5, 7, (-2i32) as u32).is_ok());
        assert!(check(Opcode::Xor, 0xff00, 0x0ff0, 0xf0f0).is_ok());
        assert!(check(Opcode::Sll, 1, 4, 16).is_ok());
        assert!(check(Opcode::Sra, 0x8000_0000, 4, 0xf800_0000).is_ok());
    }

    #[test]
    fn single_bit_flips_are_caught() {
        for bit in [0, 7, 15, 31] {
            let bad = 12u32 ^ (1 << bit);
            let err = check(Opcode::Add, 5, 7, bad).unwrap_err();
            assert!(err.reason.contains("mismatch"), "bit {bit}");
        }
    }

    #[test]
    fn multiplication_checked_by_residue() {
        assert!(check(Opcode::Umul, 1234, 5678, 1234u32.wrapping_mul(5678)).is_ok());
        // A fault that changes the residue is caught...
        assert!(check(Opcode::Umul, 1234, 5678, 1234u32.wrapping_mul(5678) + 1).is_err());
        // ...but one that preserves it (±3) escapes — the documented
        // limitation of mod-3 checking.
        assert!(check(Opcode::Umul, 1234, 5678, 1234u32.wrapping_mul(5678) + 3).is_ok());
    }

    #[test]
    fn division_checked_by_inverse_relation() {
        assert!(check(Opcode::Udiv, 100, 7, 14).is_ok());
        assert!(check(Opcode::Udiv, 100, 7, 15).is_err());
        assert!(check(Opcode::Sdiv, (-100i32) as u32, 7, (-14i32) as u32).is_ok());
    }

    #[test]
    fn mod3_digit_sum_is_correct() {
        for x in [0u32, 1, 2, 3, 4, 5, 254, 255, 256, 0xffff_ffff, 0x8000_0001] {
            assert_eq!(Sec::mod3(x), x % 3, "{x}");
        }
    }

    #[test]
    fn counters_distinguish_check_kinds() {
        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut sec = Sec::new();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        sec.process(&alu_packet(Opcode::Add, Reg::O0, Reg::O1, Reg::O2, 1, 2, 3), &mut env)
            .unwrap();
        sec.process(&alu_packet(Opcode::Umul, Reg::O0, Reg::O1, Reg::O2, 2, 3, 6), &mut env)
            .unwrap();
        assert_eq!(sec.checked(), 1);
        assert_eq!(sec.residue_checked(), 1);
    }

    #[test]
    fn cfgr_forwards_only_alu_classes() {
        let c = Sec::new().cfgr();
        assert_eq!(c.policy(InstrClass::Add), ForwardPolicy::Always);
        assert_eq!(c.policy(InstrClass::Mul), ForwardPolicy::Always);
        assert_eq!(c.policy(InstrClass::Ld), ForwardPolicy::Ignore);
        assert_eq!(c.policy(InstrClass::St), ForwardPolicy::Ignore);
        assert_eq!(c.policy(InstrClass::Jmpl), ForwardPolicy::Ignore);
    }

    #[test]
    fn netlist_is_the_largest_extension() {
        let sl = map_to_luts(&Sec::new().netlist(), LUT_K).lut_count();
        let bl = map_to_luts(&crate::ext::Bc::new().netlist(), LUT_K).lut_count();
        assert!(sl > bl, "SEC {sl} LUTs vs BC {bl}");
    }
}
