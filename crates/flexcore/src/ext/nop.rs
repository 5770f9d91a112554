//! A pass-through extension that monitors nothing.
//!
//! `Nop` forwards no instruction classes and performs no checks; a
//! `System<Nop>` behaves like the bare core plus the commit-stage
//! plumbing (FIFO, watchdog, error handling). Examples use it to model
//! an unmonitored baseline through the same `try_run` entry point as a
//! monitored run, and tests use it when only the core/system behaviour
//! is under scrutiny.

use flexcore_fabric::{Netlist, NetlistBuilder};
use flexcore_pipeline::TracePacket;

use crate::ext::{ExtEnv, Extension, ExtensionDescriptor, MonitorTrap};
use crate::interface::Cfgr;

/// The do-nothing extension: empty CFGR (nothing is forwarded), no
/// checks, no meta-data.
#[derive(Clone, Copy, Debug, Default)]
pub struct Nop;

impl Nop {
    /// Creates the extension.
    pub fn new() -> Nop {
        Nop
    }
}

impl Extension for Nop {
    fn name(&self) -> &'static str {
        "NOP"
    }

    fn descriptor(&self) -> ExtensionDescriptor {
        ExtensionDescriptor {
            abbrev: "NOP",
            name: "Pass-Through (no monitoring)",
            meta_data: &[],
            transparent_ops: &[],
            sw_visible_ops: &[],
        }
    }

    fn cfgr(&self) -> Cfgr {
        Cfgr::new()
    }

    fn pipeline_stages(&self) -> u32 {
        1
    }

    fn process(
        &mut self,
        _pkt: &TracePacket,
        _env: &mut ExtEnv<'_>,
    ) -> Result<Option<u32>, MonitorTrap> {
        Ok(None)
    }

    /// A single registered wire — the smallest netlist the mapper and
    /// bitstream codec accept.
    fn netlist(&self) -> Netlist {
        let mut b = NetlistBuilder::new("nop");
        let i = b.input();
        let r = b.register(i);
        b.output("q", r);
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::tests_util::{env_parts, mem_packet};
    use crate::interface::ForwardPolicy;
    use flexcore_fabric::{map_to_luts, LUT_K};
    use flexcore_isa::{InstrClass, Opcode};

    #[test]
    fn forwards_nothing_and_never_traps() {
        let c = Nop::new().cfgr();
        assert_eq!(c.policy(InstrClass::Ld), ForwardPolicy::Ignore);
        assert_eq!(c.policy(InstrClass::Add), ForwardPolicy::Ignore);
        assert_eq!(c.policy(InstrClass::Cpop1), ForwardPolicy::Ignore);

        let (mut meta, mut mem, mut bus, mut shadow) = env_parts();
        let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
        assert_eq!(Nop::new().process(&mem_packet(Opcode::Ld, 0x3000), &mut env).unwrap(), None);
    }

    #[test]
    fn netlist_round_trips_through_the_bitstream() {
        let n = Nop::new().netlist();
        let m = map_to_luts(&n, LUT_K);
        let bytes = flexcore_fabric::to_bitstream(&m);
        assert!(flexcore_fabric::from_bitstream(&bytes).is_ok());
    }
}
