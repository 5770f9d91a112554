//! Configuration bitstreams (§III.F).
//!
//! The paper programs the fabric "at boot time ... a bitstream is
//! serially shifted into configuration memory", and restricts
//! programming to trusted parties. This module gives the mapped LUT
//! network a concrete, checked serialization: every LUT's truth table,
//! leaf list, and root, framed with a magic number, a format version,
//! and a Fletcher-32 integrity checksum — so a corrupted or truncated
//! bitstream is rejected instead of silently mis-programming the
//! monitor.
//!
//! [`verify_consistent`] is the swap-time counterpart of the flexcheck
//! netlist lint: it proves a deserialized LUT mapping is byte-for-byte
//! the mapping the current tech-mapper produces for a given netlist,
//! so a hot swap can never program logic that the static toolchain
//! would not have produced.

use std::fmt;

use crate::lutmap::{map_to_luts, Lut, LutMapping};
use crate::{Net, Netlist};

/// Bitstream format version.
pub const VERSION: u8 = 1;

/// Configuration-frame payload size in bytes. Virtex-style fabrics
/// shift configuration in fixed-width frames, one fabric cycle each; a
/// hot swap of an `n`-byte bitstream costs `n.div_ceil(FRAME_BYTES)`
/// frames. The exact width only scales that count (and thus the
/// modeled reconfiguration time), so any power of two works.
pub const FRAME_BYTES: usize = 64;

/// Error deserializing a bitstream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BitstreamError {
    /// Too short or framing damaged.
    Truncated,
    /// The magic number did not match ("FLXC").
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Integrity checksum mismatch (bit rot or tampering).
    BadChecksum {
        /// Checksum stored in the stream.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// Structurally invalid content (e.g. truth table length does not
    /// match the leaf count).
    Malformed(&'static str),
}

impl fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitstreamError::Truncated => f.write_str("bitstream truncated"),
            BitstreamError::BadMagic => f.write_str("bad bitstream magic"),
            BitstreamError::BadVersion(v) => write!(f, "unsupported bitstream version {v}"),
            BitstreamError::BadChecksum { stored, computed } => {
                write!(
                    f,
                    "bitstream checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            BitstreamError::Malformed(what) => write!(f, "malformed bitstream: {what}"),
        }
    }
}

impl std::error::Error for BitstreamError {}

fn fletcher32(data: &[u8]) -> u32 {
    let mut s1: u32 = 0xffff;
    let mut s2: u32 = 0xffff;
    for chunk in data.chunks(2) {
        let word = u32::from(chunk[0]) | (u32::from(*chunk.get(1).unwrap_or(&0)) << 8);
        s1 = (s1 + word) % 65535;
        s2 = (s2 + s1) % 65535;
    }
    (s2 << 16) | s1
}

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u8(&mut self) -> Result<u8, BitstreamError> {
        let b = *self.data.get(self.pos).ok_or(BitstreamError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }
    fn u32(&mut self) -> Result<u32, BitstreamError> {
        let end = self.pos.checked_add(4).ok_or(BitstreamError::Truncated)?;
        let bytes = self.data.get(self.pos..end).ok_or(BitstreamError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }
}

/// Serializes a mapped LUT network into a configuration bitstream.
pub fn to_bitstream(mapping: &LutMapping) -> Vec<u8> {
    let mut payload = Writer(Vec::new());
    payload.u8(mapping.k() as u8);
    payload.u32(mapping.lut_count() as u32);
    payload.u32(mapping.depth() as u32);
    for lut in mapping.luts() {
        payload.u32(lut.root.index() as u32);
        payload.u8(lut.leaves.len() as u8);
        for leaf in &lut.leaves {
            payload.u32(leaf.index() as u32);
        }
        // Truth table, packed LSB-first.
        let mut byte = 0u8;
        for (i, &bit) in lut.table.iter().enumerate() {
            if bit {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                payload.u8(byte);
                byte = 0;
            }
        }
        if lut.table.len() % 8 != 0 {
            payload.u8(byte);
        }
    }
    let body = payload.0;
    let mut out = Writer(Vec::with_capacity(body.len() + 16));
    out.u32(u32::from_le_bytes(*b"FLXC"));
    out.u8(VERSION);
    out.u32(body.len() as u32);
    out.u32(fletcher32(&body));
    out.0.extend_from_slice(&body);
    out.0
}

/// Deserializes and validates a configuration bitstream.
///
/// # Errors
///
/// Returns [`BitstreamError`] on framing, version, checksum, or
/// structural problems — a bad stream never yields a mapping.
pub fn from_bitstream(data: &[u8]) -> Result<LutMapping, BitstreamError> {
    let mut r = Reader { data, pos: 0 };
    if r.u32()? != u32::from_le_bytes(*b"FLXC") {
        return Err(BitstreamError::BadMagic);
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(BitstreamError::BadVersion(version));
    }
    let len = r.u32()? as usize;
    let stored = r.u32()?;
    let body = data.get(r.pos..r.pos + len).ok_or(BitstreamError::Truncated)?;
    let computed = fletcher32(body);
    if stored != computed {
        return Err(BitstreamError::BadChecksum { stored, computed });
    }
    let mut r = Reader { data: body, pos: 0 };
    let k = r.u8()? as usize;
    if !(1..=16).contains(&k) {
        return Err(BitstreamError::Malformed("LUT size out of range"));
    }
    let count = r.u32()? as usize;
    let depth = r.u32()? as usize;
    let mut luts = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let root = Net(r.u32()?);
        let nleaves = r.u8()? as usize;
        if nleaves > k {
            return Err(BitstreamError::Malformed("cone wider than the LUT size"));
        }
        let mut leaves = Vec::with_capacity(nleaves);
        for _ in 0..nleaves {
            leaves.push(Net(r.u32()?));
        }
        let table_bits = 1usize << nleaves;
        let mut table = Vec::with_capacity(table_bits);
        let mut byte = 0u8;
        for i in 0..table_bits {
            if i % 8 == 0 {
                byte = r.u8()?;
            }
            table.push((byte >> (i % 8)) & 1 == 1);
        }
        luts.push(Lut { root, leaves, table });
    }
    if r.pos != body.len() {
        return Err(BitstreamError::Malformed("trailing bytes"));
    }
    LutMapping::from_parts(k, luts, depth).map_err(BitstreamError::Malformed)
}

/// Proves `mapping` is exactly what the tech mapper produces for
/// `netlist` at the mapping's own LUT input width — the swap-time
/// consistency gate. Byte-level comparison through the bitstream codec
/// catches any divergence in truth tables, leaf lists, or depth.
///
/// # Errors
///
/// Returns the first difference found when the mapping is
/// inconsistent with the netlist.
pub fn verify_consistent(netlist: &Netlist, mapping: &LutMapping) -> Result<(), &'static str> {
    let reference = map_to_luts(netlist, mapping.k());
    if reference.lut_count() != mapping.lut_count() {
        return Err("mapping inconsistent with netlist: LUT count differs from a fresh mapping");
    }
    if reference.depth() != mapping.depth() {
        return Err("mapping inconsistent with netlist: LUT depth differs from a fresh mapping");
    }
    if to_bitstream(&reference) != to_bitstream(mapping) {
        return Err(
            "mapping inconsistent with netlist: bitstream bytes differ from a fresh mapping",
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{map_to_luts, NetlistBuilder, LUT_K};

    fn adder_mapping() -> (crate::Netlist, LutMapping) {
        let mut b = NetlistBuilder::new("add8");
        let x = b.input_bus(8);
        let y = b.input_bus(8);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output("c", c);
        let n = b.finish();
        let m = map_to_luts(&n, LUT_K);
        (n, m)
    }

    #[test]
    fn round_trip_preserves_the_network() {
        let (netlist, mapping) = adder_mapping();
        let bs = to_bitstream(&mapping);
        let back = from_bitstream(&bs).expect("valid stream");
        assert_eq!(back.lut_count(), mapping.lut_count());
        assert_eq!(back.depth(), mapping.depth());
        // Functional equivalence of the reloaded configuration.
        for (a, bb) in [(0u64, 0u64), (19, 200), (255, 255), (127, 128)] {
            let mut inp: Vec<bool> = (0..8).map(|i| (a >> i) & 1 == 1).collect();
            inp.extend((0..8).map(|i| (bb >> i) & 1 == 1));
            let mut s1 = netlist.initial_state();
            let mut s2 = netlist.initial_state();
            assert_eq!(
                mapping.eval(&netlist, &inp, &mut s1),
                back.eval(&netlist, &inp, &mut s2),
                "{a}+{bb}"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let (_, mapping) = adder_mapping();
        let good = to_bitstream(&mapping);
        // Flip one bit in every byte position of the payload; each must
        // be detected (checksum) or rejected structurally.
        for pos in 13..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 0x10;
            assert!(from_bitstream(&bad).is_err(), "undetected corruption at byte {pos}");
        }
    }

    #[test]
    fn truncation_and_bad_magic_are_rejected() {
        let (_, mapping) = adder_mapping();
        let good = to_bitstream(&mapping);
        assert_eq!(from_bitstream(&good[..8]).err(), Some(BitstreamError::Truncated));
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert_eq!(from_bitstream(&bad).err(), Some(BitstreamError::BadMagic));
        let mut wrong_ver = good;
        wrong_ver[4] = 99;
        assert_eq!(from_bitstream(&wrong_ver).err(), Some(BitstreamError::BadVersion(99)));
    }

    #[test]
    fn consistency_gate_accepts_own_mapping_and_rejects_foreign() {
        let mut b = NetlistBuilder::new("eq8");
        let x = b.input_bus(8);
        let y = b.input_bus(8);
        let eq = b.eq(&x, &y);
        b.output("eq", eq);
        let netlist = b.finish();
        verify_consistent(&netlist, &map_to_luts(&netlist, LUT_K)).unwrap();

        let mut b = NetlistBuilder::new("other");
        let x = b.input_bus(4);
        let r = b.reduce_or(&x);
        b.output("any", r);
        let other_map = map_to_luts(&b.finish(), LUT_K);
        assert!(verify_consistent(&netlist, &other_map).is_err());
    }

    #[test]
    fn extension_sized_streams_are_compact() {
        // A SEC-sized mapping (hundreds of LUTs) serializes to a few
        // KB — plausible for boot-time serial shifting.
        let mut b = NetlistBuilder::new("wide");
        let x = b.input_bus(64);
        let y = b.input_bus(64);
        let (s, _) = b.add(&x, &y);
        b.output_bus("s", &s);
        let m = map_to_luts(&b.finish(), LUT_K);
        let bs = to_bitstream(&m);
        assert!(bs.len() < 64 * 1024, "{} bytes", bs.len());
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::{map_to_luts, NetlistBuilder, LUT_K};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Round-trip is exact for arbitrary mapped networks.
        #[test]
        fn round_trip_is_lossless(ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..60)) {
            let mut b = NetlistBuilder::new("rand");
            let mut pool = vec![b.input(), b.input(), b.input()];
            for (sel, i, j) in ops {
                let x = pool[i as usize % pool.len()];
                let y = pool[j as usize % pool.len()];
                let n = match sel % 4 {
                    0 => b.and(x, y),
                    1 => b.or(x, y),
                    2 => b.xor(x, y),
                    _ => b.not(x),
                };
                pool.push(n);
            }
            let last = *pool.last().expect("nonempty");
            b.output("o", last);
            let m = map_to_luts(&b.finish(), LUT_K);
            let back = from_bitstream(&to_bitstream(&m)).unwrap();
            prop_assert_eq!(back.lut_count(), m.lut_count());
            for (l1, l2) in m.luts().iter().zip(back.luts()) {
                prop_assert_eq!(l1.root, l2.root);
                prop_assert_eq!(&l1.leaves, &l2.leaves);
                prop_assert_eq!(&l1.table, &l2.table);
            }
        }
    }
}
