//! The extension netlists are real circuits: they map onto 6-LUTs, the
//! mapped networks compute the same function as the source gates, and
//! the full §III.F flow — synthesize, map, serialize to a bitstream,
//! reload — is lossless for every extension.

use flexcore::ext::{Bc, Cfi, CfiTable, Dift, Extension, Mprot, Sec, Umc};
use flexcore_fabric::{from_bitstream, map_to_luts, to_bitstream, Netlist, LUT_K};

fn all_netlists() -> Vec<Netlist> {
    vec![
        Umc::new().netlist(),
        Dift::new().netlist(),
        Bc::new().netlist(),
        Sec::new().netlist(),
        Mprot::new().netlist(),
        Cfi::new(cfi_table()).netlist(),
    ]
}

/// A CFI table with one entry of each kind.
fn cfi_table() -> CfiTable {
    let mut table = CfiTable::new();
    table.allow_branch(0x1000, 0x1040);
    table.allow_call(0x2000);
    table.allow_return(0x1008);
    table
}

/// Deterministic input patterns: a cheap xorshift stream.
fn stimulus(seed: u32, n: usize) -> Vec<bool> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            s & 1 == 1
        })
        .collect()
}

#[test]
fn mapped_networks_match_their_netlists() {
    for netlist in all_netlists() {
        let mapping = map_to_luts(&netlist, LUT_K);
        // Start from an arbitrary state and run long enough for every
        // pipeline register to carry values between cycles.
        let mut s1 = stimulus(0x5eed, netlist.flops());
        let mut s2 = s1.clone();
        for round in 0..64u32 {
            let inputs =
                stimulus(0x1234_5678 ^ round.wrapping_mul(0x9e37_79b9), netlist.inputs().len());
            let o1 = netlist.eval(&inputs, &mut s1);
            let o2 = mapping.eval(&netlist, &inputs, &mut s2);
            assert_eq!(o1, o2, "{}: outputs diverge in round {round}", netlist.name());
            assert_eq!(s1, s2, "{}: state diverges in round {round}", netlist.name());
        }
    }
}

#[test]
fn every_extension_survives_the_bitstream_flow() {
    for netlist in all_netlists() {
        let mapping = map_to_luts(&netlist, LUT_K);
        let bs = to_bitstream(&mapping);
        let reloaded = from_bitstream(&bs).unwrap_or_else(|e| panic!("{}: {e}", netlist.name()));
        assert_eq!(reloaded.lut_count(), mapping.lut_count(), "{}", netlist.name());
        // The reloaded configuration is functionally identical.
        let mut s1 = netlist.initial_state();
        let mut s2 = netlist.initial_state();
        for round in 0..6u32 {
            let inputs = stimulus(0xfeed ^ round, netlist.inputs().len());
            assert_eq!(
                mapping.eval(&netlist, &inputs, &mut s1),
                reloaded.eval(&netlist, &inputs, &mut s2),
                "{}: round {round}",
                netlist.name()
            );
        }
        // Boot-time plausibility: each extension's configuration is a
        // compact stream.
        assert!(bs.len() < 256 * 1024, "{}: {} bytes", netlist.name(), bs.len());
    }
}

#[test]
fn interface_netlist_also_maps_cleanly() {
    let n = flexcore::interface::interface_netlist();
    let m = map_to_luts(&n, LUT_K);
    assert!(m.lut_count() > 50);
    let bs = to_bitstream(&m);
    assert!(from_bitstream(&bs).is_ok());
}
