//! The crash-context flight recorder: a ring buffer of the last N
//! committed instructions.

use std::collections::VecDeque;
use std::fmt;

use flexcore_isa::Instruction;
use flexcore_pipeline::TracePacket;

use crate::obs::{TraceEvent, TraceSink};

/// One committed instruction as remembered by the [`FlightRecorder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEntry {
    /// Core-clock cycle of the commit.
    pub cycle: u64,
    /// Committed-instruction count after this commit (1-based).
    pub instret: u64,
    /// Program counter.
    pub pc: u32,
    /// The committed instruction, decoded (its `Display` is the
    /// disassembly).
    pub inst: Instruction,
}

serde::codec_object!(encode FlightEntry {
    "instret": instret,
    "cycle": cycle,
    "pc": pc via serde::hex32,
    "disassembly": inst via serde::display,
});

impl fmt::Display for FlightEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {:#010x} {}", self.instret, self.cycle, self.pc, self.inst)
    }
}

/// A [`TraceSink`] that keeps the last `depth` committed instructions
/// and freezes a copy at the first monitor trap.
///
/// FlexCore exceptions are imprecise (§III.C): by the time the TRAP
/// signal asserts, the core has committed past the violating
/// instruction. The frozen [`at_trap`](FlightRecorder::at_trap) log
/// therefore shows the violating instruction *and* the skid behind it —
/// exactly the context a monitor-trap diagnosis needs. The live log is
/// what [`System`](crate::System) attaches to deadlock snapshots and
/// the final [`RunResult`](crate::RunResult).
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    depth: usize,
    ring: VecDeque<FlightEntry>,
    instret: u64,
    at_trap: Option<Vec<FlightEntry>>,
}

impl FlightRecorder {
    /// A recorder remembering the last `depth` commits (clamped to
    /// ≥ 1).
    pub fn new(depth: usize) -> FlightRecorder {
        let depth = depth.max(1);
        FlightRecorder {
            depth,
            ring: VecDeque::with_capacity(depth.min(4096)),
            instret: 0,
            at_trap: None,
        }
    }

    /// Configured ring depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The live log, oldest entry first.
    pub fn entries(&self) -> impl Iterator<Item = &FlightEntry> {
        self.ring.iter()
    }

    /// The log as it stood when the first monitor trap was scheduled
    /// (`None` if no trap fired). Because the trap is scheduled at the
    /// violating commit, the newest entry here *is* the violating
    /// instruction.
    pub fn at_trap(&self) -> Option<&[FlightEntry]> {
        self.at_trap.as_deref()
    }

    /// Discards the frozen trap snapshot so the next trap freezes a
    /// fresh one. The recovery supervisor calls this after a successful
    /// restore — the pre-recovery snapshot describes a timeline that was
    /// rolled back.
    pub fn rearm(&mut self) {
        self.at_trap = None;
    }
}

impl TraceSink for FlightRecorder {
    fn event(&mut self, ev: TraceEvent) {
        if let TraceEvent::Trap { .. } = ev {
            if self.at_trap.is_none() {
                self.at_trap = Some(self.ring.iter().copied().collect());
            }
        }
    }

    fn commit_packet(&mut self, pkt: &TracePacket) {
        self.instret += 1;
        if self.ring.len() == self.depth {
            self.ring.pop_front();
        }
        self.ring.push_back(FlightEntry {
            cycle: pkt.commit_cycle,
            instret: self.instret,
            pc: pkt.pc,
            inst: pkt.inst,
        });
    }

    fn flight_log(&self) -> Vec<FlightEntry> {
        self.ring.iter().copied().collect()
    }

    fn rearm_flight(&mut self) {
        self.rearm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::tests_util::packet;
    use flexcore_isa::{Instruction, Reg};

    fn pkt(pc: u32, cycle: u64) -> TracePacket {
        let mut p = packet(Instruction::Sethi { rd: Reg::O0, imm22: 1 });
        p.pc = pc;
        p.commit_cycle = cycle;
        p
    }

    #[test]
    fn ring_keeps_only_the_newest_entries() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5u32 {
            fr.commit_packet(&pkt(i * 4, u64::from(i) + 10));
        }
        let log = fr.flight_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].pc, 8, "oldest surviving entry");
        assert_eq!(log[2].pc, 16, "newest entry last");
        assert_eq!(log[2].instret, 5);
    }

    #[test]
    fn trap_freezes_a_snapshot_while_live_log_moves_on() {
        let mut fr = FlightRecorder::new(2);
        fr.commit_packet(&pkt(0, 1));
        fr.commit_packet(&pkt(4, 2));
        fr.event(TraceEvent::Trap { cycle: 9, pc: 4, instret: 2 });
        fr.commit_packet(&pkt(8, 3));
        let frozen = fr.at_trap().expect("trap seen");
        assert_eq!(frozen.last().unwrap().pc, 4, "violating instruction is newest");
        assert_eq!(fr.flight_log().last().unwrap().pc, 8, "live log advanced");
    }

    #[test]
    fn rearm_lets_a_second_trap_freeze_a_fresh_snapshot() {
        let mut fr = FlightRecorder::new(2);
        fr.commit_packet(&pkt(0, 1));
        fr.event(TraceEvent::Trap { cycle: 5, pc: 0, instret: 1 });
        assert_eq!(fr.at_trap().unwrap().last().unwrap().pc, 0);
        // Recovery rolled the trap back; the stale snapshot goes away.
        fr.rearm();
        assert!(fr.at_trap().is_none());
        fr.commit_packet(&pkt(4, 2));
        fr.commit_packet(&pkt(8, 3));
        fr.event(TraceEvent::Trap { cycle: 9, pc: 8, instret: 3 });
        let frozen = fr.at_trap().expect("second trap freezes again");
        assert_eq!(frozen.last().unwrap().pc, 8, "fresh snapshot, not the stale one");
    }

    #[test]
    fn entry_display_is_one_line() {
        let mut fr = FlightRecorder::new(1);
        fr.commit_packet(&pkt(0x1000, 42));
        let line = fr.flight_log()[0].to_string();
        assert!(line.starts_with("1 42 0x00001000 "), "got: {line}");
        assert!(!line.contains('\n'));
    }
}
