//! Regenerates the paper's **Table III**: area, power, and maximum
//! frequency of the baseline Leon3, the four extensions as full ASICs,
//! the dedicated FlexCore modules, and the four extensions on the Flex
//! fabric — all *derived* from the extension netlists through the cost
//! models in `flexcore-fabric`, with the paper's published numbers
//! printed alongside.

use flexcore::ext::Extension;
use flexcore_asm::assemble;
use flexcore_bench::swap::build_extension;
use flexcore_bench::{paper, ExtKind};
use flexcore_fabric::{calib, AsicCost, FpgaCost, MacroBlock, MacroCost};

/// The 4-KB meta-data cache as an SRAM macro: 32 Kbit of data plus
/// 128 lines x 2 ways x (22-bit tag + valid + dirty) = 3 Kbit of tags.
fn meta_cache_macro() -> MacroBlock {
    MacroBlock::Ram { words: 1120, width: 32 } // 35,840 bits
}

/// Entry width of the *dedicated* (per-extension ASIC) forward FIFO:
/// unlike the general 293-bit FlexCore packet, a custom integration
/// carries only the fields its extension consumes.
fn asic_fifo_width(name: &str) -> Option<u32> {
    match name {
        // ADDR(32) + opcode(5) + cpop operands(64) + control(4)
        "UMC" => Some(105),
        // + decoded register numbers (3 x 9)
        "DIFT" => Some(132),
        // + byte-lane / store-color controls
        "BC" => Some(140),
        // SEC checks in lock-step at the core clock: no FIFO, no cache
        // ("the overheads are negligible because SEC does not require a
        // meta-data cache or a complex interface").
        "SEC" => None,
        _ => unreachable!(),
    }
}

fn needs_meta_cache(name: &str) -> bool {
    name != "SEC"
}

struct Row {
    name: String,
    fmax: f64,
    area: f64,
    power: f64,
}

fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

fn print_row(r: &Row, p: Option<&paper::AreaPowerRow>, base_area: f64, base_power: f64) {
    let area_ovh = r.area / base_area - 1.0;
    let pow_ovh = r.power / base_power - 1.0;
    print!(
        "{:<34}{:>6.0} {:>10.0} {:>8} {:>7.0} {:>8}",
        r.name,
        r.fmax,
        r.area,
        pct(area_ovh),
        r.power,
        pct(pow_ovh)
    );
    if let Some(p) = p {
        print!(
            "   | paper: {:.0} MHz, {:.0} um2 ({}), {:.0} mW ({})",
            p.fmax_mhz,
            p.area_um2,
            p.area_overhead.map_or("-".into(), pct),
            p.power_mw,
            p.power_overhead.map_or("-".into(), pct),
        );
    }
    println!();
}

fn main() {
    let base_area = calib::LEON3_AREA_UM2;
    let base_power = calib::LEON3_POWER_MW;
    let base_freq = calib::LEON3_FMAX_MHZ;

    println!("Table III: area, power, and frequency (measured vs paper)");
    println!("{}", "=".repeat(132));
    println!(
        "{:<34}{:>6} {:>10} {:>8} {:>7} {:>8}",
        "Configuration", "MHz", "um2", "d-area", "mW", "d-power"
    );
    println!("{}", "-".repeat(132));

    // Baseline: the calibration anchor (taken from the paper — it is
    // the reference everything else is measured against).
    print_row(
        &Row {
            name: "Baseline: unmodified Leon3".into(),
            fmax: base_freq,
            area: base_area,
            power: base_power,
        },
        Some(&paper::BASELINE),
        base_area,
        base_power,
    );

    // Only CFI reads the program (for its edge table).
    let program = assemble("start: ta 0").expect("one-instruction program assembles");
    let exts: Vec<Box<dyn Extension>> = ExtKind::ALL
        .iter()
        .map(|k| build_extension(k.key(), &program).expect("paper extensions are registered"))
        .collect();

    // --- Full-ASIC integrations -------------------------------------
    println!("\nFull ASIC (extension as dedicated hardware at the core clock):");
    for (ext, p) in exts.iter().zip(&paper::ASIC_ROWS) {
        let netlist = ext.netlist();
        let logic = AsicCost::of(&netlist);
        let mut area = logic.area_um2();
        let mut bits: u64 = 0;
        if needs_meta_cache(ext.name()) {
            let m = meta_cache_macro();
            area += MacroCost::block_area_um2(&m);
            bits += m.bits();
        }
        if let Some(width) = asic_fifo_width(ext.name()) {
            let f = MacroBlock::Fifo { depth: 64, width };
            area += MacroCost::block_area_um2(&f);
            bits += f.bits();
        }
        // Register-file-style shadow tags for DIFT/BC.
        let fmax = logic.core_fmax_mhz();
        let power = logic.power_mw(fmax) + bits as f64 * calib::SRAM_UW_PER_BIT_MHZ * fmax / 1000.0;
        print_row(
            &Row {
                name: format!("Leon3 w/ {} (ASIC)", ext.name()),
                fmax,
                area: base_area + area,
                power: base_power + power,
            },
            Some(p),
            base_area,
            base_power,
        );
    }

    // --- Dedicated FlexCore modules ----------------------------------
    println!("\nFlexCore (dedicated modules + extension on the fabric):");
    {
        // The general interface netlist (packet register, CFGR + policy
        // mux, decision logic, CDC synchronizers) plus its storage
        // macros (293-bit FFIFO, BFIFO, shadow register file) and the
        // meta-data cache.
        let iface = flexcore::interface::interface_netlist();
        let logic = AsicCost::of(&iface);
        let meta = meta_cache_macro();
        let area = logic.total_area_um2() + MacroCost::block_area_um2(&meta);
        let bits = logic.macros().bits + meta.bits();
        let fmax = base_freq * (1.0 - calib::core_tap_penalty(logic.gate_equivalents()));
        let power = logic.power_mw(fmax) + bits as f64 * calib::SRAM_UW_PER_BIT_MHZ * fmax / 1000.0;
        print_row(
            &Row {
                name: "Leon3 w/ dedicated FlexCore mods".into(),
                fmax,
                area: base_area + area,
                power: base_power + power,
            },
            Some(&paper::FLEXCORE_COMMON),
            base_area,
            base_power,
        );
    }

    // --- Extensions on the fabric ------------------------------------
    for (ext, p) in exts.iter().zip(&paper::FABRIC_ROWS) {
        let netlist = ext.netlist();
        let cost = FpgaCost::of(&netlist);
        let fmax = cost.fmax_mhz();
        println!(
            "{:<34}{:>6.0} {:>10.0} {:>8} {:>7.1} {:>8}   | paper: {:.0} MHz, {:.0} um2 ({}), {:.0} mW ({}) [{:.0} LUTs]",
            format!("{} on Flex fabric ({} LUTs)", ext.name(), cost.luts()),
            fmax,
            cost.area_um2(),
            pct(cost.area_um2() / base_area),
            cost.power_mw(fmax),
            pct(cost.power_mw(fmax) / base_power),
            p.fmax_mhz,
            p.area_um2,
            pct(p.area_overhead.unwrap()),
            p.power_mw,
            pct(p.power_overhead.unwrap()),
            paper::fabric_luts(p),
        );
    }

    println!("{}", "-".repeat(132));
    println!(
        "Note: fabric-row overhead percentages are relative additions (area/power of the fabric\n\
         extension alone over the baseline), matching the paper's presentation."
    );
}
