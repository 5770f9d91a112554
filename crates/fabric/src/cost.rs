//! Area / power / frequency cost models for both implementation flows.

use std::fmt;

use crate::calib;
use crate::lutmap::{map_to_luts, LUT_K};
use crate::{Gate, MacroBlock, Netlist};

/// Cost of the macro blocks (RAMs, register files, FIFOs) attached to a
/// netlist. Macros are identical custom hardware on both flows (the
/// paper implements the meta-data register file and caches as dedicated
/// modules even in the FlexCore configuration).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct MacroCost {
    /// Total silicon area, µm².
    pub area_um2: f64,
    /// Total storage bits.
    pub bits: u64,
}

impl MacroCost {
    /// Sums the macro costs of a netlist.
    pub fn of(netlist: &Netlist) -> MacroCost {
        let mut area = 0.0;
        let mut bits = 0;
        for m in netlist.macros() {
            area += MacroCost::block_area_um2(m);
            bits += m.bits();
        }
        MacroCost { area_um2: area, bits }
    }

    /// Area of a single macro block, µm². FIFOs pay a width-
    /// proportional periphery on top of their storage bits (the paper's
    /// "SRAM peripheral circuits" observation — FIFO area is dominated
    /// by width, not depth).
    pub fn block_area_um2(m: &MacroBlock) -> f64 {
        match *m {
            MacroBlock::Ram { .. } => m.bits() as f64 * calib::SRAM_UM2_PER_BIT,
            MacroBlock::RegFile { .. } => m.bits() as f64 * calib::REGFILE_UM2_PER_BIT,
            MacroBlock::Fifo { width, .. } => {
                m.bits() as f64 * calib::FIFO_UM2_PER_BIT
                    + f64::from(width) * calib::FIFO_PERIPHERY_PER_WIDTH_UM2
            }
        }
    }

    /// Dynamic power at `freq_mhz`, mW (toggle rate 0.1).
    pub fn power_mw(&self, freq_mhz: f64) -> f64 {
        self.bits as f64 * calib::SRAM_UW_PER_BIT_MHZ * freq_mhz / 1000.0
    }
}

/// FPGA-flow cost of a netlist: the paper's Synplify/ISE + Kuon–Rose +
/// power-spreadsheet pipeline.
#[derive(Clone, Debug)]
pub struct FpgaCost {
    name: String,
    luts: usize,
    depth: usize,
    flops: usize,
    macros: MacroCost,
}

impl FpgaCost {
    /// Maps `netlist` to [`LUT_K`]-input LUTs and derives its FPGA
    /// costs.
    pub fn of(netlist: &Netlist) -> FpgaCost {
        let mapping = map_to_luts(netlist, LUT_K);
        FpgaCost {
            name: netlist.name().to_string(),
            luts: mapping.lut_count(),
            depth: mapping.depth(),
            flops: netlist.flops(),
            macros: MacroCost::of(netlist),
        }
    }

    /// Netlist name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mapped LUT count.
    pub fn luts(&self) -> usize {
        self.luts
    }

    /// Critical-path depth in LUT levels.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Flip-flop count (absorbed into the CLBs; no extra area).
    pub fn flops(&self) -> usize {
        self.flops
    }

    /// LUT area via the Kuon–Rose model, µm² (excludes macros).
    pub fn area_um2(&self) -> f64 {
        self.luts as f64 * calib::LUT_AREA_UM2
    }

    /// Macro-block costs (reported separately, as the paper folds them
    /// into the dedicated FlexCore modules).
    pub fn macros(&self) -> MacroCost {
        self.macros
    }

    /// Maximum operating frequency from LUT depth, MHz.
    pub fn fmax_mhz(&self) -> f64 {
        1.0e6 / (calib::FPGA_PS_BASE + calib::FPGA_PS_PER_LEVEL * self.depth.max(1) as f64)
    }

    /// Dynamic power at `freq_mhz`, mW (toggle 0.1, static prob 0.5 —
    /// the paper's spreadsheet settings).
    pub fn power_mw(&self, freq_mhz: f64) -> f64 {
        self.luts as f64 * calib::FPGA_DYN_UW_PER_LUT_MHZ * freq_mhz / 1000.0
    }
}

impl fmt::Display for FpgaCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} LUTs (depth {}), {:.0} um2, {:.0} MHz, {:.1} mW",
            self.name,
            self.luts,
            self.depth,
            self.area_um2(),
            self.fmax_mhz(),
            self.power_mw(self.fmax_mhz())
        )
    }
}

/// NAND2-equivalents of one gate (standard-cell mapping weights).
fn gate_equivalents(g: &Gate) -> f64 {
    match g {
        Gate::Input | Gate::Const(_) => 0.0,
        Gate::Not(_) => 0.5,
        Gate::And(..) | Gate::Or(..) => 1.5,
        Gate::Xor(..) => 3.0,
        Gate::Mux { .. } => 3.0,
        Gate::Dff(_) => 6.0,
    }
}

/// Longest combinational path, in gate levels.
fn logic_depth(netlist: &Netlist) -> usize {
    let gates = netlist.gates();
    let mut depth = vec![0usize; gates.len()];
    let mut max = 0;
    for (i, g) in gates.iter().enumerate() {
        if matches!(g, Gate::Input | Gate::Const(_) | Gate::Dff(_)) {
            continue;
        }
        let d = g.inputs().iter().map(|n| depth[n.index()]).max().unwrap_or(0) + 1;
        depth[i] = d;
        max = max.max(d);
    }
    max
}

/// ASIC-flow cost of a netlist: the paper's Synopsys DC / 65-nm IBM
/// library pipeline, modeled with NAND2-equivalent weights.
#[derive(Clone, Debug)]
pub struct AsicCost {
    name: String,
    ge: f64,
    logic_depth: usize,
    macros: MacroCost,
}

impl AsicCost {
    /// Derives standard-cell costs for `netlist`.
    pub fn of(netlist: &Netlist) -> AsicCost {
        let ge: f64 = netlist.gates().iter().map(gate_equivalents).sum();
        AsicCost {
            name: netlist.name().to_string(),
            ge,
            logic_depth: logic_depth(netlist),
            macros: MacroCost::of(netlist),
        }
    }

    /// Netlist name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// NAND2-equivalent gate count.
    pub fn gate_equivalents(&self) -> f64 {
        self.ge
    }

    /// Longest combinational path in gate levels.
    pub fn logic_depth(&self) -> usize {
        self.logic_depth
    }

    /// Standard-cell area, µm² (excludes macros).
    pub fn area_um2(&self) -> f64 {
        self.ge * calib::NAND2_AREA_UM2
    }

    /// Macro-block costs.
    pub fn macros(&self) -> MacroCost {
        self.macros
    }

    /// Total area including macros, µm².
    pub fn total_area_um2(&self) -> f64 {
        self.area_um2() + self.macros.area_um2
    }

    /// Standalone maximum frequency of this logic, MHz.
    pub fn fmax_mhz(&self) -> f64 {
        1.0e6 / (calib::ASIC_PS_BASE + calib::ASIC_PS_PER_LEVEL * self.logic_depth.max(1) as f64)
    }

    /// Main-core frequency after integrating this extension (the tap
    /// penalty of Table III), MHz.
    pub fn core_fmax_mhz(&self) -> f64 {
        calib::LEON3_FMAX_MHZ * (1.0 - calib::core_tap_penalty(self.ge))
    }

    /// Dynamic logic power at `freq_mhz`, mW (toggle 0.1).
    pub fn power_mw(&self, freq_mhz: f64) -> f64 {
        self.ge * calib::ASIC_DYN_UW_PER_GE_MHZ * freq_mhz / 1000.0
    }
}

impl fmt::Display for AsicCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.0} GE (depth {}), {:.0} um2 logic + {:.0} um2 macros",
            self.name,
            self.ge,
            self.logic_depth,
            self.area_um2(),
            self.macros.area_um2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn adder32() -> Netlist {
        let mut b = NetlistBuilder::new("add32");
        let x = b.input_bus(32);
        let y = b.input_bus(32);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output("c", c);
        b.finish()
    }

    #[test]
    fn fpga_cost_of_32bit_adder_is_plausible() {
        let c = FpgaCost::of(&adder32());
        // A 32-bit prefix adder maps to roughly 30-160 6-LUTs (the
        // greedy mapper duplicates prefix-tree logic that a carry-chain
        // aware mapper would pack tighter).
        assert!((30..=160).contains(&c.luts()), "{} luts", c.luts());
        assert!(c.area_um2() > 5_000.0);
        assert!(c.fmax_mhz() > 50.0 && c.fmax_mhz() < 1000.0, "{}", c.fmax_mhz());
        assert!(c.power_mw(250.0) > 0.0);
    }

    #[test]
    fn asic_is_denser_and_faster_than_fpga() {
        // The whole premise of Table III: the same logic is much
        // smaller and faster as standard cells than as LUTs.
        let n = adder32();
        let f = FpgaCost::of(&n);
        let a = AsicCost::of(&n);
        assert!(
            a.area_um2() < f.area_um2() / 3.0,
            "asic {} vs fpga {}",
            a.area_um2(),
            f.area_um2()
        );
    }

    #[test]
    fn macro_costs_accumulate() {
        let mut b = NetlistBuilder::new("macros");
        let i = b.input();
        b.output("o", i);
        b.add_macro(MacroBlock::Ram { words: 1024, width: 32 });
        b.add_macro(MacroBlock::Fifo { depth: 64, width: 293 });
        b.add_macro(MacroBlock::RegFile { entries: 32, width: 8 });
        let n = b.finish();
        let m = MacroCost::of(&n);
        assert_eq!(m.bits, 1024 * 32 + 64 * 293 + 256);
        let expect = 32768.0 * calib::SRAM_UM2_PER_BIT
            + 18752.0 * calib::FIFO_UM2_PER_BIT
            + 293.0 * calib::FIFO_PERIPHERY_PER_WIDTH_UM2
            + 256.0 * calib::REGFILE_UM2_PER_BIT;
        assert!((m.area_um2 - expect).abs() < 1.0);
        assert!(m.power_mw(465.0) > 0.0);

        // The paper's depth observation: 16-entry vs 64-entry FIFOs of
        // the same width differ by only a small factor.
        let small = MacroCost::block_area_um2(&MacroBlock::Fifo { depth: 16, width: 293 });
        let big = MacroCost::block_area_um2(&MacroBlock::Fifo { depth: 64, width: 293 });
        let growth = big / small;
        assert!((1.05..1.30).contains(&growth), "16->64 entry growth {growth}");
    }

    #[test]
    fn logic_depth_counts_gate_levels() {
        let mut b = NetlistBuilder::new("chain");
        let mut x = b.input();
        let y = b.input();
        for _ in 0..10 {
            x = b.and(x, y);
        }
        b.output("o", x);
        let a = AsicCost::of(&b.finish());
        assert_eq!(a.logic_depth(), 10);
    }

    #[test]
    fn registered_logic_breaks_the_path() {
        let mut b = NetlistBuilder::new("pipe");
        let mut x = b.input();
        let y = b.input();
        for _ in 0..5 {
            x = b.and(x, y);
        }
        let q = b.register(x);
        let mut z = q;
        for _ in 0..3 {
            z = b.or(z, y);
        }
        b.output("o", z);
        let a = AsicCost::of(&b.finish());
        assert_eq!(a.logic_depth(), 5, "the longer of the two stages");
    }

    #[test]
    fn core_tap_frequency_is_slightly_below_baseline() {
        let a = AsicCost::of(&adder32());
        let f = a.core_fmax_mhz();
        assert!(f < calib::LEON3_FMAX_MHZ);
        assert!(f > 0.95 * calib::LEON3_FMAX_MHZ, "{f}");
    }
}
