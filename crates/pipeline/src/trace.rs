//! The commit-stage trace packet (the paper's Table II FFIFO payload).

use flexcore_isa::{IccFlags, InstrClass, Instruction, Reg};

/// Everything the commit stage forwards to the FlexCore fabric for one
/// instruction.
///
/// Field-for-field this is the forward-FIFO packet of the paper's
/// Table II: PC (32), undecoded instruction (32), load/store address
/// (32), result (32), both source operand values (32+32), condition
/// codes (4), branch direction (1), plus the pre-decoded fields the
/// core supplies so the fabric doesn't have to decode (opcode, register
/// numbers, miscellaneous control signals). The paper found that doing
/// this decode on the core side makes the DIFT extension 30% faster.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TracePacket {
    /// Program counter of the committed instruction (`PC`).
    pub pc: u32,
    /// Undecoded instruction word (`INST`).
    pub inst_word: u32,
    /// The decoded instruction (the `OPCODE`/`DECODE`/`EXTRA` fields of
    /// Table II, in structured form).
    pub inst: Instruction,
    /// Instruction class used by the forwarding filter.
    pub class: InstrClass,
    /// Effective address of a load/store (`ADDR`; 0 otherwise).
    pub addr: u32,
    /// Result of the instruction (`RES`): ALU result, loaded value, or
    /// link address.
    pub result: u32,
    /// Source operand 1 value (`SRCV1`; 0 if the instruction has none).
    pub srcv1: u32,
    /// Source operand 2 value (`SRCV2`): register or immediate, or the
    /// store data value for stores with an immediate offset.
    pub srcv2: u32,
    /// Store data value (part of `EXTRA`; 0 for non-stores).
    pub store_value: u32,
    /// Condition codes after the instruction (`COND`).
    pub cond: IccFlags,
    /// Computed branch direction (`BRANCH`).
    pub branch_taken: bool,
    /// Decoded source register 1 (`SRC1`).
    pub src1: Option<Reg>,
    /// Decoded source register 2 (`SRC2`).
    pub src2: Option<Reg>,
    /// Decoded destination register (`DEST`).
    pub dest: Option<Reg>,
    /// Core-clock cycle at which the instruction committed.
    pub commit_cycle: u64,
}

impl TracePacket {
    /// A committed `nop` at PC 0 with every value field zero: the
    /// initial contents of a packet buffer handed to
    /// [`Core::step_into`](crate::Core::step_into).
    pub const EMPTY: TracePacket = TracePacket {
        pc: 0,
        inst_word: 0x0100_0000,
        inst: Instruction::Sethi { rd: Reg::G0, imm22: 0 },
        class: InstrClass::Sethi,
        addr: 0,
        result: 0,
        srcv1: 0,
        srcv2: 0,
        store_value: 0,
        cond: IccFlags { n: false, z: false, v: false, c: false },
        branch_taken: false,
        src1: None,
        src2: None,
        dest: None,
        commit_cycle: 0,
    };

    /// Total payload width in bits of the hardware FIFO entry this
    /// packet models (Table II: PC 32 + INST 32 + ADDR 32 + RES 32 +
    /// SRCV1 32 + SRCV2 32 + COND 4 + BRANCH 1 + OPCODE 5 + DECODE 32 +
    /// EXTRA 32 + SRC1 9 + SRC2 9 + DEST 9).
    pub const WIDTH_BITS: u32 = 32 + 32 + 32 + 32 + 32 + 32 + 4 + 1 + 5 + 32 + 32 + 9 + 9 + 9;

    /// Number of 32-bit words in the packed FIFO entry.
    pub const WIDTH_WORDS: usize = (TracePacket::WIDTH_BITS as usize).div_ceil(32);

    /// Packs the packet into the hardware FIFO-entry layout: the
    /// Table II fields in order, LSB-first, 293 bits in 10 words.
    ///
    /// Field encoding notes: register numbers use the 9-bit fields with
    /// bit 8 as a *valid* flag (the SPARC windowed-register space needs
    /// the width; the valid flag distinguishes "no source register").
    /// `DECODE` carries the instruction class (bits 4:0) and the store
    /// flag (bit 5); `EXTRA` carries the store data value.
    pub fn pack(&self) -> [u32; TracePacket::WIDTH_WORDS] {
        let mut words = [0u32; TracePacket::WIDTH_WORDS];
        let mut pos = 0usize;
        let mut put = |value: u32, bits: usize| {
            let v = u64::from(value) & ((1u64 << bits) - 1);
            let word = pos / 32;
            let off = pos % 32;
            words[word] |= (v << off) as u32;
            if off + bits > 32 {
                words[word + 1] |= (v >> (32 - off)) as u32;
            }
            pos += bits;
        };
        let reg_field = |r: Option<flexcore_isa::Reg>| -> u32 {
            match r {
                Some(r) => 0x100 | r.index() as u32,
                None => 0,
            }
        };
        put(self.pc, 32);
        put(self.inst_word, 32);
        put(self.addr, 32);
        put(self.result, 32);
        put(self.srcv1, 32);
        put(self.srcv2, 32);
        put(u32::from(self.cond.to_bits()), 4);
        put(u32::from(self.branch_taken), 1);
        put(self.class.index() as u32, 5); // OPCODE: the class id
        let decode = self.class.index() as u32 | (u32::from(self.class.is_store()) << 5);
        put(decode, 32);
        put(self.store_value, 32); // EXTRA
        put(reg_field(self.src1), 9);
        put(reg_field(self.src2), 9);
        put(reg_field(self.dest), 9);
        debug_assert_eq!(pos, TracePacket::WIDTH_BITS as usize);
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_isa::{Instruction, Opcode, Operand2};

    fn sample() -> TracePacket {
        let inst = Instruction::mem(Opcode::St, Reg::O1, Reg::O0, Operand2::Imm(8));
        TracePacket {
            pc: 0x0000_1040,
            inst_word: flexcore_isa::encode(&inst),
            inst,
            class: InstrClass::of(&inst),
            addr: 0x0000_2008,
            result: 0x55,
            srcv1: 0x2000,
            srcv2: 8,
            store_value: 0x55,
            cond: IccFlags { n: false, z: true, v: false, c: true },
            branch_taken: false,
            src1: Some(Reg::O0),
            src2: Some(Reg::O1),
            dest: None,
            commit_cycle: 99,
        }
    }

    #[test]
    fn packet_width_matches_table_ii() {
        // The sum of the core-to-fabric FFIFO field widths in Table II.
        assert_eq!(TracePacket::WIDTH_BITS, 293);
        assert_eq!(TracePacket::WIDTH_WORDS, 10);
    }

    #[test]
    fn pack_places_fields_at_their_table_ii_offsets() {
        let p = sample();
        let w = p.pack();
        // Word-aligned leading fields.
        assert_eq!(w[0], p.pc);
        assert_eq!(w[1], p.inst_word);
        assert_eq!(w[2], p.addr);
        assert_eq!(w[3], p.result);
        assert_eq!(w[4], p.srcv1);
        assert_eq!(w[5], p.srcv2);
        // COND occupies bits 0..4 of word 6.
        assert_eq!(w[6] & 0xf, u32::from(p.cond.to_bits()));
        // BRANCH at bit 4.
        assert_eq!((w[6] >> 4) & 1, 0);
        // OPCODE (class) at bits 5..10.
        assert_eq!((w[6] >> 5) & 0x1f, p.class.index() as u32);
    }

    #[test]
    fn register_fields_carry_a_valid_flag() {
        let p = sample();
        let w = p.pack();
        // SRC1 begins at bit 32*6 + 4+1+5+32+32 = bit 266 -> word 8 bit
        // 10.
        let src1 = (w[8] >> 10) & 0x1ff;
        assert_eq!(src1, 0x100 | Reg::O0.index() as u32);
        let src2 = ((u64::from(w[8]) | (u64::from(w[9]) << 32)) >> 19) & 0x1ff;
        assert_eq!(src2 as u32, 0x100 | Reg::O1.index() as u32);
        // DEST: a store has none -> all-zero field (valid bit clear).
        let dest = ((u64::from(w[8]) | (u64::from(w[9]) << 32)) >> 28) & 0x1ff;
        assert_eq!(dest, 0);
    }

    #[test]
    fn packing_is_injective_on_key_fields() {
        let a = sample();
        let mut b = sample();
        b.addr ^= 4;
        assert_ne!(a.pack(), b.pack());
        let mut c = sample();
        c.branch_taken = true;
        assert_ne!(a.pack(), c.pack());
    }
}
