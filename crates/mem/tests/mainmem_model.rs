//! `MainMemory` against the ISA reference interpreter's byte map.
//!
//! Lockstep's golden model reads and writes through a `MainMemory` of
//! its own, so it cannot catch a bug in the paged substrate itself;
//! this property can. Addresses are biased toward the page and
//! page-table boundaries where the single-page fast paths hand over to
//! the byte path.
//!
//! Fetches mark words for the code-generation contract the core's
//! decode memo trusts: while `code_generation()` is unchanged since a
//! fetch, the fetched word still reads the value it was fetched with.

use std::collections::BTreeSet;

use flexcore_isa::interp::{ByteMap, Memory32};
use flexcore_mem::MainMemory;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Read { bytes: u32, addr: u32 },
    Write { bytes: u32, addr: u32, value: u32 },
    Load { addr: u32, data: Vec<u8> },
    Dump { addr: u32, len: usize },
    Fetch { addr: u32 },
    PageBytesMut { addr: u32, value: u8 },
    Clone,
}

fn addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        // The last bytes of one of a few pages: 0x...ffe straddles.
        3 => (0u32..8, 0xff8u32..0x1000).prop_map(|(page, off)| page << 12 | off),
        // The first bytes of one of those pages, so the second page of
        // a straddling access can be resident without the first.
        2 => (0u32..8, 0u32..8).prop_map(|(page, off)| page << 12 | off),
        // Just below a 4-MB region boundary: straddles two leaves.
        2 => (1u32..4, 0u32..8).prop_map(|(region, back)| (region << 22) - back),
        // The top of the address space: wraps around to 0.
        2 => 0xffff_fff8u32..=0xffff_ffff,
        1 => any::<u32>(),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (prop::sample::select(vec![1, 2, 4]), addr())
            .prop_map(|(bytes, addr)| Op::Read { bytes, addr }),
        4 => (prop::sample::select(vec![1, 2, 4]), addr(), any::<u32>())
            .prop_map(|(bytes, addr, value)| Op::Write { bytes, addr, value }),
        1 => (addr(), prop::collection::vec(any::<u8>(), 0..40))
            .prop_map(|(addr, data)| Op::Load { addr, data }),
        1 => (addr(), 0usize..40).prop_map(|(addr, len)| Op::Dump { addr, len }),
        3 => addr().prop_map(|addr| Op::Fetch { addr }),
        1 => (addr(), any::<u8>()).prop_map(|(addr, value)| Op::PageBytesMut { addr, value }),
        1 => Just(Op::Clone),
    ]
}

fn read(m: &MainMemory, bytes: u32, addr: u32) -> u32 {
    match bytes {
        1 => u32::from(m.read_u8(addr)),
        2 => u32::from(m.read_u16(addr)),
        _ => m.read_u32(addr),
    }
}

fn read_ref(r: &ByteMap, bytes: u32, addr: u32) -> u32 {
    match bytes {
        1 => u32::from(r.read_u8(addr)),
        2 => u32::from(r.read_u16(addr)),
        _ => r.read_u32(addr),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn paged_memory_matches_byte_map(ops in prop::collection::vec(op(), 1..80)) {
        let (mut mem, mut reference) = (MainMemory::new(), ByteMap::default());
        let mut written = BTreeSet::new();
        // (address, word read, generation) of every fetch so far.
        let mut fetches: Vec<(u32, u32, u64)> = Vec::new();
        let mut generations = BTreeSet::from([mem.code_generation()]);
        for op in ops {
            match op {
                Op::Read { bytes, addr } => {
                    prop_assert_eq!(read(&mem, bytes, addr), read_ref(&reference, bytes, addr), "{:?}", op);
                }
                Op::Write { bytes, addr, value } => {
                    match bytes {
                        1 => (mem.write_u8(addr, value as u8), reference.write_u8(addr, value as u8)),
                        2 => (mem.write_u16(addr, value as u16), reference.write_u16(addr, value as u16)),
                        _ => (mem.write_u32(addr, value), reference.write_u32(addr, value)),
                    };
                    written.extend((0..bytes).map(|i| addr.wrapping_add(i) >> 12));
                }
                Op::Load { addr, ref data } => {
                    mem.load(addr, data);
                    for (i, &b) in data.iter().enumerate() {
                        reference.write_u8(addr.wrapping_add(i as u32), b);
                        written.insert(addr.wrapping_add(i as u32) >> 12);
                    }
                }
                Op::Dump { addr, len } => {
                    let expect: Vec<u8> =
                        (0..len).map(|i| reference.read_u8(addr.wrapping_add(i as u32))).collect();
                    prop_assert_eq!(mem.dump(addr, len), expect, "{:?}", op);
                }
                Op::Fetch { addr } => {
                    let word = mem.fetch_u32(addr);
                    prop_assert_eq!(word, reference.read_u32(addr), "{:?}", op);
                    fetches.push((addr, word, mem.code_generation()));
                }
                Op::PageBytesMut { addr, value } => {
                    mem.page_bytes_mut(addr >> 12)[(addr & 0xfff) as usize] = value;
                    reference.write_u8(addr, value);
                    written.insert(addr >> 12);
                }
                Op::Clone => {
                    mem = mem.clone();
                    prop_assert!(
                        !generations.contains(&mem.code_generation()),
                        "a clone reuses a generation"
                    );
                }
            }
            generations.insert(mem.code_generation());
            for &(addr, word, generation) in &fetches {
                if generation == mem.code_generation() {
                    prop_assert_eq!(mem.read_u32(addr), word, "fetch at {:#x} after {:?}", addr, op);
                }
            }
        }
        prop_assert_eq!(mem.resident_pages(), written.len());
        prop_assert_eq!(mem.page_indices(), written.iter().copied().collect::<Vec<_>>());
        for &page in &written {
            let expect: Vec<u8> =
                (0..MainMemory::PAGE_BYTES as u32).map(|i| reference.read_u8(page << 12 | i)).collect();
            prop_assert_eq!(mem.page_bytes(page), Some(&expect[..]), "page {:#x}", page);
        }
        for page in [0x7_ffff, 0xf_fff0, 0x10_0000, u32::MAX] {
            if !written.contains(&page) {
                prop_assert_eq!(mem.page_bytes(page), None, "page {:#x}", page);
            }
        }
    }
}
