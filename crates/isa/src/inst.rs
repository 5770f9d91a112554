//! The decoded instruction representation.

use crate::{Cond, Opcode, Reg};

/// The second ALU/memory operand: a register or a 13-bit signed
/// immediate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand2 {
    /// Register operand (`i = 0` encoding).
    Reg(Reg),
    /// Sign-extended 13-bit immediate (`i = 1` encoding).
    ///
    /// Valid range is `-4096..=4095`; the [`encode`](crate::encode)
    /// function panics outside it.
    Imm(i32),
}

impl Operand2 {
    /// The register, if this operand is a register.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand2::Reg(r) => Some(r),
            Operand2::Imm(_) => None,
        }
    }

    /// Whether an immediate fits the 13-bit signed field.
    pub fn imm_fits(imm: i32) -> bool {
        (-4096..=4095).contains(&imm)
    }
}

impl From<Reg> for Operand2 {
    fn from(r: Reg) -> Operand2 {
        Operand2::Reg(r)
    }
}

/// A decoded instruction.
///
/// Variants correspond to the SPARC V8 instruction formats the model
/// implements. The `disp` fields hold *word* displacements exactly as
/// encoded (PC-relative, counted in instructions).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Instruction {
    /// Format-3 ALU operation: `op rd = rs1 <op> op2`.
    ///
    /// `save`/`restore` also decode here (modeled as adds on the flat
    /// register file).
    Alu {
        /// Which ALU operation.
        op: Opcode,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second operand.
        op2: Operand2,
    },
    /// Format-3 memory access. Effective address is `rs1 + op2`; `rd` is
    /// the data register (destination for loads, source for stores).
    Mem {
        /// Which memory operation.
        op: Opcode,
        /// Data register.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Address offset operand.
        op2: Operand2,
    },
    /// `sethi imm22, rd`: sets `rd` to `imm22 << 10`.
    ///
    /// `sethi 0, %g0` is the canonical `nop`.
    Sethi {
        /// Destination register.
        rd: Reg,
        /// The 22-bit immediate (stored unshifted).
        imm22: u32,
    },
    /// Conditional branch (`b<cond>`), with the SPARC annul bit.
    Branch {
        /// Branch condition.
        cond: Cond,
        /// Annul bit: if set and the branch is untaken (or for `ba,a`
        /// always), the delay-slot instruction is annulled.
        annul: bool,
        /// Signed word displacement from the branch.
        disp22: i32,
    },
    /// `call`: PC-relative call, writes return address to `%o7`.
    Call {
        /// Signed 30-bit word displacement.
        disp30: i32,
    },
    /// `jmpl rs1 + op2, rd`: indirect jump-and-link (`ret` is
    /// `jmpl %i7 + 8, %g0`).
    Jmpl {
        /// Link register (receives the `jmpl`'s own address).
        rd: Reg,
        /// Base register of the target.
        rs1: Reg,
        /// Offset operand of the target.
        op2: Operand2,
    },
    /// Trap on condition (`t<cond> rs1 + op2`). The workloads use
    /// `ta 0` to halt the simulation.
    Trap {
        /// Trap condition.
        cond: Cond,
        /// First component of the software trap number.
        rs1: Reg,
        /// Second component of the software trap number.
        op2: Operand2,
    },
    /// Co-processor operation (`cpop1`/`cpop2`), the hook FlexCore uses
    /// for software-visible monitor instructions. `opc` is the 9-bit
    /// sub-opcode; its meaning is defined by the loaded extension.
    Cpop {
        /// Which co-processor opcode space (1 or 2).
        space: u8,
        /// 9-bit extension-defined sub-opcode.
        opc: u16,
        /// Destination register (used by "read from co-processor").
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
}

impl Instruction {
    /// Convenience constructor for a format-3 ALU instruction.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an ALU opcode (i.e. `op.op3()` is `None`,
    /// or it is a memory/control opcode).
    pub fn alu(op: Opcode, rs1: Reg, rd: Reg, op2: Operand2) -> Instruction {
        assert!(
            op.op3().is_some()
                && !op.is_mem()
                && !matches!(op, Opcode::Jmpl | Opcode::Ticc | Opcode::Cpop1 | Opcode::Cpop2),
            "{op:?} is not an ALU opcode"
        );
        Instruction::Alu { op, rd, rs1, op2 }
    }

    /// Convenience constructor for a load or store.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a memory opcode.
    pub fn mem(op: Opcode, rd: Reg, rs1: Reg, op2: Operand2) -> Instruction {
        assert!(op.is_mem(), "{op:?} is not a memory opcode");
        Instruction::Mem { op, rd, rs1, op2 }
    }

    /// The canonical `nop` (`sethi 0, %g0`).
    pub fn nop() -> Instruction {
        Instruction::Sethi { rd: Reg::G0, imm22: 0 }
    }

    /// Whether this instruction is the canonical `nop`.
    pub fn is_nop(&self) -> bool {
        matches!(self, Instruction::Sethi { rd, imm22: 0 } if rd.is_zero())
    }

    /// Whether this is a control-transfer instruction (has a delay
    /// slot).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instruction::Branch { .. } | Instruction::Call { .. } | Instruction::Jmpl { .. }
        )
    }

    /// Source register numbers `(rs1, rs2)` as the decode logic reports
    /// them to the fabric. A missing register reads as `None`.
    pub fn source_regs(&self) -> (Option<Reg>, Option<Reg>) {
        match *self {
            Instruction::Alu { rs1, op2, .. } | Instruction::Jmpl { rs1, op2, .. } => {
                (Some(rs1), op2.reg())
            }
            // Stores (and swap) read both the address base and the data
            // register; the data register is reported as a source.
            Instruction::Mem { op, rd, rs1, op2 } => {
                if op.is_store() || op == Opcode::Swap {
                    (Some(rs1), op2.reg().or(Some(rd)))
                } else {
                    (Some(rs1), op2.reg())
                }
            }
            Instruction::Trap { rs1, op2, .. } => (Some(rs1), op2.reg()),
            Instruction::Cpop { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
            Instruction::Sethi { .. } | Instruction::Branch { .. } | Instruction::Call { .. } => {
                (None, None)
            }
        }
    }

    /// Destination register, if the instruction writes one.
    pub fn dest_reg(&self) -> Option<Reg> {
        match *self {
            Instruction::Alu { rd, .. }
            | Instruction::Sethi { rd, .. }
            | Instruction::Jmpl { rd, .. } => (!rd.is_zero()).then_some(rd),
            Instruction::Mem { op, rd, .. } => {
                ((op.is_load() || op == Opcode::Swap) && !rd.is_zero()).then_some(rd)
            }
            Instruction::Call { .. } => Some(Reg::O7),
            Instruction::Cpop { rd, .. } => (!rd.is_zero()).then_some(rd),
            Instruction::Branch { .. } | Instruction::Trap { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_is_sethi_zero_g0() {
        assert!(Instruction::nop().is_nop());
        assert!(!Instruction::Sethi { rd: Reg::G1, imm22: 0 }.is_nop());
        assert!(!Instruction::Sethi { rd: Reg::G0, imm22: 1 }.is_nop());
    }

    #[test]
    fn store_reports_data_register_as_source() {
        let st = Instruction::mem(Opcode::St, Reg::L1, Reg::SP, Operand2::Imm(8));
        assert_eq!(st.source_regs(), (Some(Reg::SP), Some(Reg::L1)));
        // With a register offset, the offset wins the rs2 slot.
        let st2 = Instruction::mem(Opcode::St, Reg::L1, Reg::SP, Operand2::Reg(Reg::L2));
        assert_eq!(st2.source_regs(), (Some(Reg::SP), Some(Reg::L2)));
    }

    #[test]
    fn load_has_destination_store_does_not() {
        let ld = Instruction::mem(Opcode::Ld, Reg::L1, Reg::SP, Operand2::Imm(0));
        assert_eq!(ld.dest_reg(), Some(Reg::L1));
        let st = Instruction::mem(Opcode::St, Reg::L1, Reg::SP, Operand2::Imm(0));
        assert_eq!(st.dest_reg(), None);
    }

    #[test]
    fn writes_to_g0_are_discarded() {
        let i = Instruction::alu(Opcode::Add, Reg::G1, Reg::G0, Operand2::Imm(1));
        assert_eq!(i.dest_reg(), None);
    }

    #[test]
    fn call_links_o7() {
        assert_eq!(Instruction::Call { disp30: 4 }.dest_reg(), Some(Reg::O7));
    }

    #[test]
    fn control_transfer_detection() {
        assert!(Instruction::Call { disp30: 0 }.is_control());
        assert!(Instruction::Branch { cond: Cond::A, annul: false, disp22: 0 }.is_control());
        assert!(!Instruction::nop().is_control());
    }

    #[test]
    #[should_panic(expected = "not an ALU opcode")]
    fn alu_constructor_rejects_memory_ops() {
        let _ = Instruction::alu(Opcode::Ld, Reg::G1, Reg::G2, Operand2::Imm(0));
    }

    #[test]
    #[should_panic(expected = "not a memory opcode")]
    fn mem_constructor_rejects_alu_ops() {
        let _ = Instruction::mem(Opcode::Add, Reg::G1, Reg::G2, Operand2::Imm(0));
    }
}
