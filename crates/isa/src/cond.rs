//! Integer condition codes and branch conditions.

use std::fmt;
use std::str::FromStr;

/// The SPARC integer condition-code flags (the `icc` field of the PSR).
///
/// Updated by the `cc`-suffixed ALU instructions, consumed by
/// conditional branches. This is also the 4-bit `COND` field forwarded
/// to the FlexCore fabric in each trace packet (Table II).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct IccFlags {
    /// Negative: bit 31 of the result.
    pub n: bool,
    /// Zero: result was zero.
    pub z: bool,
    /// Overflow: signed arithmetic overflow.
    pub v: bool,
    /// Carry: unsigned carry out / borrow.
    pub c: bool,
}

impl IccFlags {
    /// Packs the flags into the 4-bit `NZVC` encoding used by the trace
    /// packet (`N` is bit 3, `C` is bit 0).
    pub fn to_bits(self) -> u8 {
        (u8::from(self.n) << 3)
            | (u8::from(self.z) << 2)
            | (u8::from(self.v) << 1)
            | u8::from(self.c)
    }

    /// Unpacks flags from the 4-bit `NZVC` encoding.
    pub fn from_bits(bits: u8) -> IccFlags {
        IccFlags {
            n: bits & 0b1000 != 0,
            z: bits & 0b0100 != 0,
            v: bits & 0b0010 != 0,
            c: bits & 0b0001 != 0,
        }
    }

    /// Flags produced by an ordinary logic/shift result (`V`/`C`
    /// cleared).
    pub fn from_result(value: u32) -> IccFlags {
        IccFlags { n: (value as i32) < 0, z: value == 0, v: false, c: false }
    }
}

impl fmt::Display for IccFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}{}",
            if self.n { 'N' } else { '-' },
            if self.z { 'Z' } else { '-' },
            if self.v { 'V' } else { '-' },
            if self.c { 'C' } else { '-' },
        )
    }
}

/// The 16 SPARC V8 integer branch conditions (`Bicc` `cond` field).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Cond {
    /// Branch never.
    N = 0b0000,
    /// Branch on equal (`Z`).
    E = 0b0001,
    /// Branch on less or equal (`Z or (N xor V)`).
    Le = 0b0010,
    /// Branch on less (`N xor V`).
    L = 0b0011,
    /// Branch on less or equal unsigned (`C or Z`).
    Leu = 0b0100,
    /// Branch on carry set (unsigned less).
    Cs = 0b0101,
    /// Branch on negative.
    Neg = 0b0110,
    /// Branch on overflow set.
    Vs = 0b0111,
    /// Branch always.
    A = 0b1000,
    /// Branch on not equal.
    Ne = 0b1001,
    /// Branch on greater.
    G = 0b1010,
    /// Branch on greater or equal.
    Ge = 0b1011,
    /// Branch on greater unsigned.
    Gu = 0b1100,
    /// Branch on carry clear (unsigned greater or equal).
    Cc = 0b1101,
    /// Branch on positive.
    Pos = 0b1110,
    /// Branch on overflow clear.
    Vc = 0b1111,
}

impl Cond {
    /// Decodes the 4-bit `cond` field.
    pub fn from_bits(bits: u8) -> Cond {
        use Cond::*;
        match bits & 0xf {
            0b0000 => N,
            0b0001 => E,
            0b0010 => Le,
            0b0011 => L,
            0b0100 => Leu,
            0b0101 => Cs,
            0b0110 => Neg,
            0b0111 => Vs,
            0b1000 => A,
            0b1001 => Ne,
            0b1010 => G,
            0b1011 => Ge,
            0b1100 => Gu,
            0b1101 => Cc,
            0b1110 => Pos,
            _ => Vc,
        }
    }

    /// The 4-bit encoding of this condition.
    pub fn to_bits(self) -> u8 {
        self as u8
    }

    /// The complementary condition (true exactly when `self` is
    /// false): SPARC encodes it by flipping the top bit of the field.
    pub fn negate(self) -> Cond {
        Cond::from_bits(self.to_bits() ^ 8)
    }

    /// Evaluates the condition against a set of flags, per the SPARC V8
    /// manual's `Bicc` semantics.
    pub fn eval(self, f: IccFlags) -> bool {
        use Cond::*;
        match self {
            N => false,
            A => true,
            E => f.z,
            Ne => !f.z,
            Le => f.z || (f.n ^ f.v),
            G => !(f.z || (f.n ^ f.v)),
            L => f.n ^ f.v,
            Ge => !(f.n ^ f.v),
            Leu => f.c || f.z,
            Gu => !(f.c || f.z),
            Cs => f.c,
            Cc => !f.c,
            Neg => f.n,
            Pos => !f.n,
            Vs => f.v,
            Vc => !f.v,
        }
    }

    /// Whether the branch outcome does not depend on the flags
    /// (`ba`/`bn`).
    pub fn is_unconditional(self) -> bool {
        matches!(self, Cond::A | Cond::N)
    }

    /// Assembly mnemonic suffix (`"e"` for `be`, `"a"` for `ba`, …).
    pub fn mnemonic(self) -> &'static str {
        use Cond::*;
        match self {
            N => "n",
            E => "e",
            Le => "le",
            L => "l",
            Leu => "leu",
            Cs => "cs",
            Neg => "neg",
            Vs => "vs",
            A => "a",
            Ne => "ne",
            G => "g",
            Ge => "ge",
            Gu => "gu",
            Cc => "cc",
            Pos => "pos",
            Vc => "vc",
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Error returned when parsing a branch-condition mnemonic fails.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseCondError {
    text: String,
}

impl fmt::Display for ParseCondError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid branch condition `{}`", self.text)
    }
}

impl std::error::Error for ParseCondError {}

impl FromStr for Cond {
    type Err = ParseCondError;

    fn from_str(s: &str) -> Result<Cond, ParseCondError> {
        // Accept both the canonical suffixes and common synonyms from
        // the SPARC assembler (`bnz`, `bz`, `blu`, `bgeu`).
        let c = match s {
            "n" => Cond::N,
            "e" | "z" | "eq" => Cond::E,
            "le" => Cond::Le,
            "l" | "lt" => Cond::L,
            "leu" => Cond::Leu,
            "cs" | "lu" | "ltu" => Cond::Cs,
            "neg" => Cond::Neg,
            "vs" => Cond::Vs,
            "a" => Cond::A,
            "ne" | "nz" => Cond::Ne,
            "g" | "gt" => Cond::G,
            "ge" => Cond::Ge,
            "gu" | "gtu" => Cond::Gu,
            "cc" | "geu" => Cond::Cc,
            "pos" => Cond::Pos,
            "vc" => Cond::Vc,
            _ => return Err(ParseCondError { text: s.to_string() }),
        };
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(n: bool, z: bool, v: bool, c: bool) -> IccFlags {
        IccFlags { n, z, v, c }
    }

    #[test]
    fn bits_round_trip() {
        for bits in 0..16u8 {
            assert_eq!(IccFlags::from_bits(bits).to_bits(), bits);
            assert_eq!(Cond::from_bits(bits).to_bits(), bits);
        }
    }

    #[test]
    fn always_and_never() {
        for bits in 0..16u8 {
            let f = IccFlags::from_bits(bits);
            assert!(Cond::A.eval(f));
            assert!(!Cond::N.eval(f));
        }
    }

    #[test]
    fn complementary_pairs() {
        // Each SPARC condition in 0..8 is the complement of the one at
        // code | 8, and `negate` maps each to the other.
        for bits in 0..8u8 {
            let a = Cond::from_bits(bits);
            let b = Cond::from_bits(bits | 8);
            assert_eq!((a.negate(), b.negate()), (b, a));
            for fbits in 0..16u8 {
                let f = IccFlags::from_bits(fbits);
                assert_ne!(a.eval(f), b.eval(f), "{a} vs {b} on {f}");
            }
        }
    }

    #[test]
    fn signed_comparison_semantics() {
        // After `subcc a, b`: N^V means a < b (signed).
        // a=1, b=2 -> result -1: N=1, V=0.
        let lt = flags(true, false, false, false);
        assert!(Cond::L.eval(lt));
        assert!(Cond::Le.eval(lt));
        assert!(!Cond::Ge.eval(lt));
        assert!(!Cond::G.eval(lt));
        // equal: Z=1.
        let eq = flags(false, true, false, false);
        assert!(Cond::Le.eval(eq));
        assert!(Cond::Ge.eval(eq));
        assert!(Cond::E.eval(eq));
        assert!(!Cond::L.eval(eq));
    }

    #[test]
    fn unsigned_comparison_semantics() {
        // After `subcc a, b` with a < b unsigned: C=1 (borrow).
        let ltu = flags(false, false, false, true);
        assert!(Cond::Cs.eval(ltu));
        assert!(Cond::Leu.eval(ltu));
        assert!(!Cond::Gu.eval(ltu));
        assert!(!Cond::Cc.eval(ltu));
    }

    #[test]
    fn parse_mnemonics_round_trip() {
        for bits in 0..16u8 {
            let c = Cond::from_bits(bits);
            assert_eq!(c.mnemonic().parse::<Cond>().unwrap(), c);
        }
    }

    #[test]
    fn parse_synonyms() {
        assert_eq!("nz".parse::<Cond>().unwrap(), Cond::Ne);
        assert_eq!("geu".parse::<Cond>().unwrap(), Cond::Cc);
        assert_eq!("lu".parse::<Cond>().unwrap(), Cond::Cs);
        assert!("xyz".parse::<Cond>().is_err());
    }

    #[test]
    fn from_result_sets_n_and_z() {
        assert_eq!(IccFlags::from_result(0), flags(false, true, false, false));
        assert_eq!(IccFlags::from_result(0x8000_0000), flags(true, false, false, false));
        assert_eq!(IccFlags::from_result(7), flags(false, false, false, false));
    }
}
