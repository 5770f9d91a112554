//! End-to-end observability properties: the epoch metrics series sums
//! (or maxes) back to the run's aggregate counters on every workload,
//! the exporters emit valid deterministic JSON, the flight recorder
//! freezes pre-trap context, and VCD dumps match the netlist interface.

use flexcore_suite::asm::assemble;
use flexcore_suite::fabric::Netlist;
use flexcore_suite::fabric::{vcd_signal_count, write_vcd};
use flexcore_suite::flexcore::ext::{Dift, Sec, Umc};
use flexcore_suite::flexcore::ext::{ExtEnv, ExtensionDescriptor, MonitorTrap};
use flexcore_suite::flexcore::lockstep::{DivergenceReport, LockstepCommit, RegMismatch};
use flexcore_suite::flexcore::obs::FlightEntry;
use flexcore_suite::flexcore::obs::{
    ChromeRecorder, MetricsRecorder, Observer, PacketTap, TraceSink,
};
use flexcore_suite::flexcore::{
    Cfgr, DeadlockSnapshot, Extension, ForwardPolicy, ForwardStats, ResilienceStats, RunResult,
    SimError, System, SystemConfig,
};
use flexcore_suite::isa::decode;
use flexcore_suite::mem::{BusStats, CacheStats};
use flexcore_suite::pipeline::{CoreStats, ExitReason, TracePacket};
use flexcore_suite::workloads::Workload;
use proptest::prelude::*;

/// An ALU-heavy counted loop: cheap to simulate, forwards plenty of
/// packets under SEC.
fn alu_loop() -> flexcore_suite::asm::Program {
    assemble(
        "
        start:  set 200, %o0
                set 0, %o1
        loop:   add %o1, 3, %o1
                xor %o1, %o0, %o2
                sub %o2, 1, %o3
                subcc %o0, 1, %o0
                bne loop
                nop
                ta 0
        ",
    )
    .expect("test program assembles")
}

fn run_with_sink<E: Extension, S: TraceSink>(
    program: &flexcore_suite::asm::Program,
    config: SystemConfig,
    ext: E,
    sink: S,
) -> (RunResult, S) {
    let mut sys = System::with_sink(config, ext, sink);
    sys.load_program(program);
    let r = sys.try_run(200_000_000).expect("simulation error");
    (r, sys.into_sink())
}

// ------------------------------------------------- series consistency

/// The headline invariant: on all six paper workloads, summing the
/// epoch series reproduces the aggregate counters bit-for-bit (and the
/// occupancy peak maxes back).
#[test]
fn epoch_series_sums_to_aggregates_on_every_workload() {
    for workload in Workload::all() {
        let program = workload.program().expect("workload assembles");
        // DIFT forwards the most instruction classes; a shallow FIFO at
        // half fabric speed also produces back-pressure stalls.
        let config = SystemConfig::fabric_half_speed().with_fifo_depth(8);
        let (r, m) = run_with_sink(&program, config, Dift::new(), MetricsRecorder::new(1000));
        assert_eq!(r.exit, ExitReason::Halt(0), "{} failed", workload.name());

        let epochs = m.epochs();
        assert!(!epochs.is_empty(), "{}: no epochs sampled", workload.name());
        let committed: u64 = epochs.iter().map(|e| e.committed).sum();
        let forwarded: u64 = epochs.iter().map(|e| e.forwarded).sum();
        let dropped: u64 = epochs.iter().map(|e| e.dropped).sum();
        let stalls: u64 = epochs.iter().map(|e| e.fifo_stall_cycles).sum();
        let peak: u64 = epochs.iter().map(|e| e.occ_peak).max().unwrap_or(0);
        assert_eq!(committed, r.forward.committed, "{}: committed", workload.name());
        assert_eq!(forwarded, r.forward.forwarded, "{}: forwarded", workload.name());
        assert_eq!(dropped, r.forward.dropped, "{}: dropped", workload.name());
        assert_eq!(stalls, r.forward.fifo_stall_cycles, "{}: stalls", workload.name());
        assert_eq!(peak, r.forward.peak_occupancy, "{}: peak occupancy", workload.name());

        // And the recorder's own cross-check agrees (it also covers
        // per-class counts, meta misses, bus transfers, faults).
        m.check_against(&r).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    }
}

/// SEC with every class it forwards set to `IfNotFull`: the CFGR's
/// best-effort drop path on an ALU-dense stream.
struct BestEffortSec(Sec);

impl Extension for BestEffortSec {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn descriptor(&self) -> ExtensionDescriptor {
        self.0.descriptor()
    }

    fn cfgr(&self) -> Cfgr {
        let sec = self.0.cfgr();
        Cfgr::new().with_classes(|c| sec.policy(c).forwards(), ForwardPolicy::IfNotFull)
    }

    fn pipeline_stages(&self) -> u32 {
        self.0.pipeline_stages()
    }

    fn process(
        &mut self,
        pkt: &TracePacket,
        env: &mut ExtEnv<'_>,
    ) -> Result<Option<u32>, MonitorTrap> {
        self.0.process(pkt, env)
    }

    fn netlist(&self) -> Netlist {
        self.0.netlist()
    }
}

/// Dropped packets (the CFGR's `IfNotFull` path) land in the series
/// too, not just the aggregate counter.
#[test]
fn drop_accounting_reaches_the_epoch_series() {
    let config = SystemConfig::fabric_quarter_speed().with_fifo_depth(2);
    let ext = BestEffortSec(Sec::new());
    let (r, m) = run_with_sink(&alu_loop(), config, ext, MetricsRecorder::new(100));
    assert_eq!(r.exit, ExitReason::Halt(0));
    assert!(r.forward.dropped > 0, "depth-2 FIFO at 0.25X must overflow");
    let dropped: u64 = m.epochs().iter().map(|e| e.dropped).sum();
    assert_eq!(dropped, r.forward.dropped);
    m.check_against(&r).expect("series consistent");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The epoch width is a presentation choice: any width yields a
    /// series whose totals match the aggregates exactly.
    #[test]
    fn totals_are_invariant_under_epoch_width(width in 1u64..3000) {
        let config = SystemConfig::fabric_quarter_speed().with_fifo_depth(4);
        let (r, m) =
            run_with_sink(&alu_loop(), config, Sec::new(), MetricsRecorder::new(width));
        prop_assert_eq!(r.exit, ExitReason::Halt(0));
        prop_assert!(r.forward.fifo_stall_cycles > 0, "the shallow FIFO must stall");
        let check = m.check_against(&r);
        prop_assert!(check.is_ok(), "width {}: {:?}", width, check);
    }
}

// ----------------------------------------------------- JSON exporters

#[test]
fn metrics_jsonl_is_deterministic_and_parseable() {
    let mk = || {
        let config = SystemConfig::fabric_quarter_speed().with_fifo_depth(4);
        let (r, m) = run_with_sink(&alu_loop(), config, Sec::new(), MetricsRecorder::new(100));
        m.to_jsonl(&r)
    };
    let a = mk();
    let b = mk();
    assert_eq!(a, b, "same program, same config: byte-identical JSONL");

    let lines: Vec<&str> = a.lines().collect();
    assert!(lines.len() >= 3, "meta + epochs + total");
    for line in &lines {
        serde::from_str(line).unwrap_or_else(|e| panic!("invalid JSONL line {line:?}: {e}"));
    }
    let meta = serde::from_str(lines[0]).unwrap();
    assert_eq!(meta.get("type").and_then(|v| v.as_str()), Some("meta"));
    let total = serde::from_str(lines[lines.len() - 1]).unwrap();
    assert_eq!(total.get("type").and_then(|v| v.as_str()), Some("total"));
    assert!(total.get("committed").and_then(|v| v.as_u64()).unwrap() > 0);
}

#[test]
fn chrome_trace_is_valid_and_perfetto_shaped() {
    let config = SystemConfig::fabric_quarter_speed().with_fifo_depth(4);
    let (r, c) = run_with_sink(&alu_loop(), config, Sec::new(), ChromeRecorder::new());
    assert_eq!(r.exit, ExitReason::Halt(0));

    let json = c.to_chrome_json();
    let v = serde::from_str(&json).expect("trace parses as JSON");
    let events = v.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");
    assert!(events.len() > 3, "metadata plus real events");
    let mut phases = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("every event has ph");
        assert!(ev.get("pid").and_then(|p| p.as_u64()).is_some(), "every event has pid");
        phases.insert(ph.to_string());
    }
    assert!(phases.contains("M"), "process/thread metadata present");
    assert!(phases.contains("X"), "fabric spans present");
    assert!(phases.contains("C"), "FIFO occupancy counter present");
}

#[test]
fn run_result_json_round_trips() {
    let config = SystemConfig::fabric_quarter_speed().with_fifo_depth(4);
    let (r, _) = run_with_sink(&alu_loop(), config, Sec::new(), Observer::new().with_flight(4));
    let v = serde::from_str(&serde::to_string(&r)).expect("RunResult serializes to valid JSON");
    assert_eq!(v.get("cycles").and_then(|c| c.as_u64()), Some(r.cycles));
    assert_eq!(v.get("instret").and_then(|c| c.as_u64()), Some(r.instret));
    assert_eq!(v.get("exit").and_then(|e| e.get("kind")).and_then(|k| k.as_str()), Some("halt"));
    let flight = v.get("flight").and_then(|f| f.as_array()).expect("flight array");
    assert_eq!(flight.len(), r.flight.len());
    assert_eq!(flight.len(), 4, "ring holds the last 4 commits");
}

// ----------------------------------------------------- flight recorder

/// FlexCore traps are imprecise (§III.C): the frozen log's newest entry
/// is the violating instruction, and the live log keeps the skid that
/// committed after it.
#[test]
fn flight_recorder_freezes_the_violating_instruction() {
    let program = assemble(
        "start: set 0x8000, %o0
                ld [%o0], %o1     ! read-before-write: UMC must trap
                add %o1, 1, %o2
                add %o2, 1, %o3
                ta 0",
    )
    .expect("assembles");
    let (r, obs) = run_with_sink(
        &program,
        SystemConfig::fabric_half_speed(),
        Umc::new(),
        Observer::new().with_flight(8),
    );
    assert!(r.monitor_trap.is_some(), "read-before-write must trap");

    let flight = obs.flight.expect("flight recorder installed");
    let frozen = flight.at_trap().expect("trap context frozen");
    assert!(!frozen.is_empty() && frozen.len() <= 8);
    let newest = frozen.last().unwrap();
    assert!(
        newest.inst.to_string().starts_with("ld"),
        "newest frozen entry is the violating load, got: {}",
        newest.inst
    );
    // The live log (attached to RunResult) advanced past the freeze
    // point by exactly the trap skid.
    let live_last = r.flight.last().expect("live log non-empty");
    assert_eq!(
        live_last.instret - newest.instret,
        r.trap_skid.expect("imprecise trap has a skid"),
        "live log advanced by the reported skid"
    );
}

// ----------------------------------------------------------------- VCD

#[test]
fn vcd_dump_matches_the_netlist_interface() {
    let (r, obs) = run_with_sink(
        &alu_loop(),
        SystemConfig::fabric_quarter_speed(),
        Sec::new(),
        Observer::new().with_packet_tap(16),
    );
    assert_eq!(r.exit, ExitReason::Halt(0));
    let tap: &PacketTap = obs.packets.as_ref().expect("tap installed");
    assert!(!tap.packets().is_empty(), "SEC forwards ALU ops");

    let ext = Sec::new();
    let netlist = ext.netlist();
    let stimulus: Vec<Vec<bool>> = tap.packets().iter().map(|p| ext.vcd_stimulus(p)).collect();
    for s in &stimulus {
        assert_eq!(s.len(), netlist.inputs().len(), "one bit per netlist input");
    }
    let mut out = Vec::new();
    write_vcd(&netlist, &stimulus, &mut out).expect("vcd writes");
    let text = String::from_utf8(out).expect("vcd is ascii");
    assert!(text.starts_with("$date"), "vcd header");
    assert!(text.contains("$enddefinitions"));
    let vars = text.lines().filter(|l| l.trim_start().starts_with("$var")).count();
    assert_eq!(vars, vcd_signal_count(&netlist), "one $var per signal");
}

// ------------------------------------------------------- output shapes

/// 64-bit FNV-1a, for pinning long outputs by hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// A flight-recorder entry for `add %o0, 1, %o1` at commit `n`.
fn flight_entry(n: u64) -> FlightEntry {
    let inst = decode(0x9202_2001).expect("add %o0, 1, %o1 decodes");
    FlightEntry { cycle: 100 + n, instret: n, pc: 0x1000 + 4 * n as u32, inst }
}

/// A hand-built run result that sets every field to a distinct value,
/// with `host_ns` zeroed so the `host_*` rates are pinned too.
fn pinned_result(exit: ExitReason, trapped: bool) -> RunResult {
    let cache = |seed: u64| CacheStats {
        read_hits: seed + 1,
        read_misses: seed + 2,
        write_hits: seed + 3,
        write_misses: seed + 4,
        writebacks: seed + 5,
    };
    // Class 0 stays zero, so the keyed `per_class` object omits it.
    let per_class = std::array::from_fn(|i| i as u64 * 3);
    RunResult {
        exit,
        monitor_trap: trapped.then(|| MonitorTrap { pc: 0x1010, reason: "ALU \"result\"".into() }),
        trap_skid: trapped.then_some(2),
        cycles: 12_345,
        instret: 4000,
        forward: ForwardStats {
            committed: 4000,
            forwarded: 1500,
            dropped: 2,
            per_class,
            fifo_stall_cycles: 44,
            peak_occupancy: 10,
        },
        core: CoreStats {
            instret: 4000,
            annulled: 12,
            per_class,
            external_stall_cycles: 90,
            store_stall_cycles: 91,
        },
        icache: cache(100),
        dcache: cache(200),
        meta_cache: cache(300),
        bus: BusStats {
            busy_cycles: 1,
            core_transfers: 2,
            fabric_transfers: 3,
            core_wait_cycles: 4,
            fabric_wait_cycles: 5,
        },
        resilience: ResilienceStats {
            faults_injected: 1,
            packets_corrupted: 2,
            dropped_overflow: 3,
            bitstream_retries: 4,
            bitstream_reloads: 5,
            unmonitored_commits: 6,
            suppressed_checks: 7,
            swaps_completed: 8,
            swap_drained_packets: 9,
            swap_stall_cycles: 10,
            elided_checks: 11,
        },
        console: b"ok\n\xff".to_vec(),
        flight: vec![flight_entry(3998), flight_entry(3999)],
        host_ns: 0,
    }
}

fn pinned_divergence() -> DivergenceReport {
    let commit = |index: u64| LockstepCommit { index, pc: 0x2000 + 4 * index as u32, inst_word: 7 };
    DivergenceReport {
        commit_index: 42,
        cycle: 99,
        reason: "register mismatch".into(),
        dut_pc: 0x2040,
        golden_pc: 0x2044,
        dut_inst_word: 0x9202_2001,
        golden_inst_word: 0x0100_0000,
        reg_mismatches: vec![
            RegMismatch { reg: 9, dut: 1, golden: 2 },
            RegMismatch { reg: 31, dut: u32::MAX, golden: 0 },
        ],
        icc_mismatch: Some((0b1000, 0b0100)),
        dut_recent: vec![commit(41), commit(42)],
        golden_recent: vec![commit(42)],
        flight: vec![flight_entry(42)],
    }
}

/// The output shapes behind `flexsim --json` and the divergence and
/// flight reports are pinned: a run result for every exit kind with
/// and without a monitor trap, every simulation error, a divergence
/// report and a flight entry each hash to the values recorded when the
/// pin was taken.
#[test]
fn output_json_shapes_are_pinned() {
    let exits = [
        ExitReason::Halt(7),
        ExitReason::IllegalInstruction { pc: 0x1004, word: 0xdead_beef },
        ExitReason::MisalignedAccess { pc: 0x1008, addr: 0x8003 },
        ExitReason::DivideByZero { pc: 0x100c },
        ExitReason::InstructionLimit,
        ExitReason::MonitorTrap { pc: 0x1010 },
    ];
    let mut outputs: Vec<String> = exits
        .iter()
        .flat_map(|&exit| {
            [false, true].map(|trapped| serde::to_string(&pinned_result(exit, trapped)))
        })
        .collect();
    let errors = [
        SimError::Deadlock(DeadlockSnapshot {
            cycle: 1_000_000,
            pc: 0x1020,
            instret: 77,
            fifo_occupancy: 4,
            fifo_depth: 4,
            fabric_free_at: u64::MAX,
            fabric_stuck: true,
            bus: BusStats { busy_cycles: 9, ..BusStats::default() },
            recent: vec![flight_entry(77)],
        }),
        SimError::CycleBudgetExceeded { budget: 10, cycle: 11, instret: 2 },
        SimError::Divergence(Box::new(pinned_divergence())),
        SimError::UnrecoverableCorruption {
            context: "bitstream",
            attempts: 3,
            detail: "checksum mismatch".into(),
        },
    ];
    outputs.extend(errors.iter().map(serde::to_string));
    outputs.push(serde::to_string(&pinned_divergence()));
    outputs.push(serde::to_string(&flight_entry(5)));
    for json in &outputs {
        assert!(serde::from_str(json).is_ok(), "emitted JSON parses: {json}");
    }
    let hashes: Vec<u64> = outputs.iter().map(|json| fnv1a(json.as_bytes())).collect();
    assert_eq!(
        hashes,
        [
            0x60af_2ef7_efbe_f909,
            0xc68d_e221_da1e_f6fb,
            0x19d8_af3a_5823_4033,
            0xe2d9_4415_1a19_fc59,
            0xb828_c4d0_6ee7_58c0,
            0xf208_39a2_b1e5_d216,
            0x68f4_1ad6_777d_9671,
            0x2af6_5728_3840_ed63,
            0xce56_9c09_b1d0_3d3c,
            0x330a_dff1_1873_b2ca,
            0x74d4_0e7d_3e00_d233,
            0x20e0_420b_069c_7e59,
            0x22bc_d13a_8f1b_9b9a,
            0x74e2_c56e_cfc3_b8a7,
            0x09d4_5a07_22b0_f30c,
            0xd253_0e92_daf2_f39e,
            0xcddb_7290_346e_b5b7,
            0x91a5_d1d0_52a1_e167,
        ],
        "{outputs:#?}"
    );
}
