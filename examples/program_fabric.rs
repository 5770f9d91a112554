//! The §III.F programming flow: synthesize a monitoring extension to
//! the fabric, serialize its configuration to a bitstream (what a
//! vendor would sign and ship like a microcode update), verify that
//! corruption is rejected, and reload a functionally identical
//! configuration.
//!
//! ```sh
//! cargo run --example program_fabric
//! ```

use flexcore_suite::fabric::{from_bitstream, map_to_luts, to_bitstream, FpgaCost, LUT_K};
use flexcore_suite::flexcore::ext::{Dift, Extension};

fn main() {
    // 1. "Synthesis": the DIFT extension's datapath as a gate-level
    //    netlist, technology-mapped onto the 6-LUT fabric.
    let netlist = Dift::new().netlist();
    let mapping = map_to_luts(&netlist, LUT_K);
    let cost = FpgaCost::of(&netlist);
    println!(
        "synthesized DIFT: {} LUTs, depth {}, {:.0} um2, fmax {:.0} MHz",
        mapping.lut_count(),
        mapping.depth(),
        cost.area_um2(),
        cost.fmax_mhz()
    );

    // 2. "Bitstream generation": the configuration that would be
    //    shifted serially into the fabric at boot.
    let bitstream = to_bitstream(&mapping);
    println!(
        "bitstream: {} bytes (version {})",
        bitstream.len(),
        flexcore_suite::fabric::BITSTREAM_VERSION
    );

    // 3. Integrity: a single flipped bit anywhere must be rejected —
    //    a mis-programmed monitor silently watching every instruction
    //    would be worse than none.
    let mut tampered = bitstream.clone();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0x40;
    match from_bitstream(&tampered) {
        Err(e) => println!("tampered stream rejected: {e}"),
        Ok(_) => panic!("tampering must not go unnoticed"),
    }

    // 4. Reload and verify: the reloaded configuration computes exactly
    //    what the synthesized one does.
    let reloaded = from_bitstream(&bitstream).expect("pristine stream loads");
    let mut s1 = netlist.initial_state();
    let mut s2 = netlist.initial_state();
    let mut seed = 0xace1u32;
    for round in 0..8 {
        let inputs: Vec<bool> = (0..netlist.inputs().len())
            .map(|_| {
                seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                seed >> 31 == 1
            })
            .collect();
        let a = mapping.eval(&netlist, &inputs, &mut s1);
        let b = reloaded.eval(&netlist, &inputs, &mut s2);
        assert_eq!(a, b, "round {round}");
    }
    println!("reloaded configuration verified equivalent over random stimulus");

    // 5. Bonus: dump a short waveform of the datapath for GTKWave.
    let stimulus: Vec<Vec<bool>> = (0..16u32)
        .map(|t| {
            (0..netlist.inputs().len())
                .map(|i| (t.wrapping_mul(2654435761) >> (i % 31)) & 1 == 1)
                .collect()
        })
        .collect();
    let mut vcd = Vec::new();
    flexcore_suite::fabric::write_vcd(&netlist, &stimulus, &mut vcd).expect("in-memory write");
    let path = std::env::temp_dir().join("flexcore_dift.vcd");
    std::fs::write(&path, &vcd).expect("write vcd");
    println!(
        "waveform of 16 cycles written to {} ({} signals)",
        path.display(),
        flexcore_suite::fabric::vcd_signal_count(&netlist)
    );

    println!("\n(the fabric can now monitor every committed instruction — see the");
    println!(" other examples for what the loaded extension catches at run time)");
}
