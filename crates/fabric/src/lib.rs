//! Reconfigurable-fabric and ASIC cost models.
//!
//! The paper evaluates each monitoring extension twice: synthesized to a
//! 65-nm ASIC flow (Synopsys DC, IBM library) and mapped to a Virtex-5
//! FPGA fabric (Synplify + ISE), then converts LUT counts to silicon
//! area with the Kuon–Rose CLB-tile model (≈ 807 µm² per 6-LUT at
//! 65 nm) and to power with the Virtex-5 power spreadsheet.
//!
//! None of those tools exist here, so this crate implements the same
//! pipeline from scratch:
//!
//! * [`Netlist`] / [`NetlistBuilder`] — a gate-level IR (AND/OR/XOR/
//!   NOT/MUX/DFF plus RAM and register-file macro blocks) with
//!   word-level construction helpers and a functional simulator,
//! * [`map_to_luts`] — a greedy 6-feasible-cone technology mapper that
//!   reports LUT count and LUT depth, with a property-tested guarantee
//!   that the mapped network computes the same function,
//! * [`FpgaCost`] — Kuon–Rose area, LUT-depth frequency, and
//!   spreadsheet-style dynamic power (fixed toggle rate 0.1, static
//!   probability 0.5, as in the paper §V.A),
//! * [`AsicCost`] — NAND2-equivalent standard-cell area/power and a
//!   logic-depth frequency estimate for the same netlist,
//! * [`calib`] — every constant, each documented with its source and
//!   the paper row it was calibrated against.
//!
//! The FlexCore extension datapaths (in the `flexcore` crate) emit
//! their logic as [`Netlist`]s, so the Table III reproduction is
//! *derived* from the same circuit description on both flows rather
//! than hard-coded.
//!
//! # Example
//!
//! ```
//! use flexcore_fabric::{map_to_luts, to_bitstream, AsicCost, FpgaCost, NetlistBuilder, LUT_K};
//!
//! // A 16-bit equality comparator.
//! let mut b = NetlistBuilder::new("eq16");
//! let x = b.input_bus(16);
//! let y = b.input_bus(16);
//! let eq = b.eq(&x, &y);
//! b.output("eq", eq);
//! let netlist = b.finish();
//!
//! let mapping = map_to_luts(&netlist, LUT_K);
//! assert!(mapping.lut_count() >= 4);            // a handful of 6-LUTs
//! let fpga = FpgaCost::of(&netlist);
//! let asic = AsicCost::of(&netlist);
//! assert!(asic.area_um2() < fpga.area_um2());   // LUTs cost silicon
//! let bitstream = to_bitstream(&mapping);       // §III.F configuration
//! assert!(!bitstream.is_empty());
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

mod bitstream;
pub mod calib;
mod cost;
mod lutmap;
mod netlist;
mod vcd;

pub use bitstream::{
    from_bitstream, to_bitstream, verify_consistent, BitstreamError, FRAME_BYTES,
    VERSION as BITSTREAM_VERSION,
};
pub use cost::{AsicCost, FpgaCost, MacroCost};
pub use lutmap::{map_to_luts, Lut, LutMapping, LUT_K};
pub use netlist::{Bus, Gate, MacroBlock, Net, Netlist, NetlistBuilder};
pub use vcd::{vcd_signal_count, write_vcd};
