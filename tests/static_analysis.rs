//! The static-verification acceptance gates, as integration tests:
//!
//! * every paper workload analyzes with zero error-severity findings;
//! * every extension netlist in the swappable registry lints with zero
//!   error-severity findings;
//! * the static/dynamic cross-check holds — UMC never traps at a load
//!   the analysis proved initialized, and the proven set is non-empty
//!   across the suite (the gate is not vacuous);
//! * seeded defects ARE caught (the analyzer is not silently inert);
//! * the taint pass never panics (fuzzed programs, truncated images,
//!   self-loops through delay slots) and is byte-identical between
//!   runs;
//! * check elision is sound: running with the statically proven
//!   elision table is bit-identical to the full run on every kernel,
//!   and the taint pass discharges real DIFT work on most of them;
//! * each kernel's proven-load and DIFT-elidable counts are pinned.

use flexcore_bench::elide::{build_elision_table, verify_elision};
use flexcore_bench::swap::{build_extension, elidable, LUT_K, SWAPPABLE};
use flexcore_suite::analysis::{analyze_program, analyze_taint, lint_netlist, Rule, Severity};
use flexcore_suite::asm::assemble;
use flexcore_suite::flexcore::ext::Umc;
use flexcore_suite::flexcore::{System, SystemConfig};
use flexcore_suite::pipeline::ExitReason;
use flexcore_suite::workloads::Workload;
use proptest::prelude::*;

/// Per kernel, paper set then extras: `(name, statically proven
/// loads, DIFT-elidable PCs)`. Both passes widen on most kernels, so
/// these counts move with any change to widening or worklist order.
const PINNED: [(&str, usize, usize); 9] = [
    ("sha", 5, 54),
    ("gmac", 0, 39),
    ("stringsearch", 2, 67),
    ("fft", 0, 93),
    ("basicmath", 0, 52),
    ("bitcount", 5, 70),
    ("crc32", 1, 47),
    ("qsort", 0, 56),
    ("dijkstra", 7, 75),
];

/// Every kernel with its pinned `(proven loads, DIFT-elidable PCs)`.
fn pinned_kernels() -> Vec<(Workload, usize, usize)> {
    let kernels: Vec<_> = Workload::all().into_iter().chain(Workload::extra()).collect();
    assert_eq!(kernels.len(), PINNED.len());
    kernels
        .into_iter()
        .zip(PINNED)
        .map(|(w, (name, proven, dift))| {
            assert_eq!(w.name(), name);
            (w, proven, dift)
        })
        .collect()
}

#[test]
fn all_workloads_analyze_clean() {
    for w in Workload::all() {
        let report = analyze_program(&w.program().unwrap());
        let errors: Vec<_> = report.errors().collect();
        assert!(errors.is_empty(), "{}: {errors:?}", w.name());
    }
}

/// Every netlist in the swappable-extension registry lints clean —
/// enumerated through [`SWAPPABLE`] so a new extension cannot ship
/// without joining this gate.
#[test]
fn all_extension_netlists_lint_clean() {
    let program = Workload::bitcount().program().unwrap();
    assert_eq!(SWAPPABLE.len(), 7, "keep this gate in sync with the registry");
    for name in SWAPPABLE {
        let ext = build_extension(name, &program).expect("registry names build");
        let nl = ext.netlist();
        let errors: Vec<_> = lint_netlist(&nl, LUT_K)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{}: {errors:?}", nl.name());
    }
}

/// The soundness direction of `flexcheck --xcheck`: a load the static
/// pass proves in-image must never raise a UMC uninitialized-read
/// trap, because the loader marks the whole image initialized.
#[test]
fn umc_never_traps_on_statically_proven_loads() {
    for (w, proven, _) in pinned_kernels() {
        let program = w.program().unwrap();
        let report = analyze_program(&program);
        assert_eq!(report.proven_loads.len(), proven, "{}: proven loads", w.name());

        let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
        sys.load_program(&program);
        let r = sys.try_run(200_000_000).unwrap();
        assert_eq!(r.exit, ExitReason::Halt(0), "{}: {:?}", w.name(), r.monitor_trap);
        if let Some(trap) = &r.monitor_trap {
            assert!(
                !report.proven_loads.iter().any(|p| p.pc == trap.pc),
                "{}: UMC trap at statically proven load: {trap}",
                w.name()
            );
        }
    }
}

/// A `cpop` in a branch delay slot retags memory like any other: here
/// UMC's `CLEAR_RANGE` (op 0) marks `buf` uninitialized before the
/// load reads it, so the load must not be proven and elided — the
/// full run traps there.
#[test]
fn delay_slot_cpop_forfeits_proven_loads() {
    let program = assemble(
        "start: set buf, %o0
                mov 4, %o1
                ba go
                cpop1 0, %o0, %o1, %g0
         go:    set buf, %o2
                ld [%o2], %o3
                ta 0
                .align 4
         buf:   .word 7",
    )
    .unwrap();
    let report = analyze_program(&program);
    assert!(report.proven_loads.is_empty(), "{:?}", report.proven_loads);
    let (table, _) = build_elision_table(&program);
    let v = verify_elision(&program, "umc", &table, 1_000).unwrap();
    assert!(v.is_clean(), "{}", v.divergence.unwrap_or_default());
}

/// A seeded uninitialized *register* read is caught statically —
/// the register-level analog of UMC's memory check.
#[test]
fn seeded_uninit_register_read_is_caught_statically() {
    let src = "start: add %l5, 1, %o0
                      set out, %l1
                      st %o0, [%l1]
                      ta 0
               out:   .space 4";
    let report = analyze_program(&assemble(src).unwrap());
    assert!(
        report.diagnostics.iter().any(|d| d.rule == Rule::UninitRead && d.is_error()),
        "{:?}",
        report.diagnostics
    );
}

/// A seeded uninitialized *memory* read: the static pass flags the
/// load (wild address, never initialized at load), the dynamic UMC
/// monitor traps on it, and — the cross-check invariant — the trapped
/// pc is not in the proven set.
#[test]
fn seeded_uninit_memory_read_is_caught_statically_and_dynamically() {
    let src = "start: set 0x00200000, %l1
                      ld [%l1], %o0
                      tst %o0
                      ta 0";
    let program = assemble(src).unwrap();
    let report = analyze_program(&program);
    assert!(
        report.diagnostics.iter().any(|d| d.rule == Rule::LoadOutOfImage && d.is_error()),
        "{:?}",
        report.diagnostics
    );

    let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
    sys.load_program(&program);
    let r = sys.try_run(1_000_000).unwrap();
    let trap = r.monitor_trap.expect("UMC must trap the seeded read");
    assert!(trap.reason.contains("uninitialized"), "{trap}");
    assert!(
        !report.proven_loads.iter().any(|p| p.pc == trap.pc),
        "a trapped load must never be in the proven set: {trap}"
    );
}

/// A seeded delay-slot hazard (CTI in a delay slot) is an error.
#[test]
fn seeded_delay_slot_hazard_is_an_error() {
    let program = assemble("start: ba out\n ba out\nout: ta 0").unwrap();
    let report = analyze_program(&program);
    assert!(report.diagnostics.iter().any(|d| d.rule == Rule::DelaySlotCti && d.is_error()));
}

/// Pathological control flow — self-loops through delay slots, a
/// branch targeting its own delay slot, a self-call — must neither
/// panic nor hang the taint fixpoint.
#[test]
fn taint_terminates_on_self_loops_through_delay_slots() {
    let sources = [
        "start: ba start\n nop",
        "start: ba slot\nslot: nop\n ta 0",
        "start: be start\n ba start\nout: ta 0",
        "start: call start\n nop",
        "start: bne start\n add %o0, 1, %o0",
    ];
    for src in sources {
        let program = assemble(src).unwrap();
        let _ = analyze_program(&program);
        let _ = analyze_taint(&program);
    }
}

/// The analysis and the elision builder are deterministic: two runs
/// over the same program produce byte-identical reports and tables.
#[test]
fn taint_and_elision_are_byte_identical_between_runs() {
    for w in Workload::all() {
        let program = w.program().unwrap();
        let a = analyze_taint(&program);
        let b = analyze_taint(&program);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}: taint report", w.name());
        let (t1, _) = build_elision_table(&program);
        let (t2, _) = build_elision_table(&program);
        assert_eq!(t1.to_json(), t2.to_json(), "{}: elision table JSON", w.name());
    }
}

/// The acceptance gate on usefulness: the taint pass discharges a
/// nonzero number of dynamic DIFT checks on at least three kernels,
/// and every elided DIFT run stays bit-identical.
#[test]
fn taint_discharges_dift_checks_on_most_kernels() {
    let mut discharging = Vec::new();
    for (w, _, dift) in pinned_kernels() {
        let program = w.program().unwrap();
        let (table, summary) = build_elision_table(&program);
        assert_eq!(summary.dift_pcs, dift, "{}: DIFT-elidable PCs", w.name());
        let v = verify_elision(&program, "dift", &table, 200_000_000).unwrap();
        assert!(v.is_clean(), "{}: {}", w.name(), v.divergence.unwrap_or_default());
        if v.elided_checks > 0 {
            discharging.push(w.name());
        }
    }
    assert!(
        discharging.len() >= 3,
        "DIFT checks discharged on only {} kernel(s): {discharging:?}",
        discharging.len()
    );
}

/// Rebuilds a program from the first `keep` words of an assembled
/// image — the truncated/fuzzed-image shape the analyzer must survive.
fn reassemble_words(words: &[u32]) -> Option<flexcore_suite::asm::Program> {
    let mut src = String::from("start:\n");
    for w in words {
        src.push_str(&format!("    .word {w:#010x}\n"));
    }
    assemble(&src).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The analyzer and taint pass never panic on arbitrary word soup.
    #[test]
    fn taint_never_panics_on_fuzzed_programs(words in prop::collection::vec(any::<u32>(), 0..48)) {
        if let Some(program) = reassemble_words(&words) {
            let _ = analyze_program(&program);
            let _ = analyze_taint(&program);
        }
    }

    /// Truncating a real kernel image mid-function (dangling branches,
    /// severed delay slots) never panics the analyzer or taint pass.
    #[test]
    fn taint_never_panics_on_truncated_images(idx in 0usize..6, keep_ppm in 0u32..1_000_000) {
        let w = Workload::all()[idx];
        let words = w.program().unwrap().words();
        let keep = (words.len() as u64 * u64::from(keep_ppm) / 1_000_000) as usize;
        if let Some(program) = reassemble_words(&words[..keep]) {
            let _ = analyze_program(&program);
            let _ = analyze_taint(&program);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline soundness gate: on a random kernel × elidable
    /// extension, the elided run's trap verdict, counters, and final
    /// architectural state are bit-identical to the full run, and every
    /// elided check accounts for exactly one unforwarded packet.
    #[test]
    fn elided_runs_are_bit_identical(idx in 0usize..6, ext_idx in 0usize..3) {
        let w = Workload::all()[idx];
        let ext = elidable()[ext_idx];
        let program = w.program().unwrap();
        let (table, _) = build_elision_table(&program);
        let v = verify_elision(&program, ext, &table, 200_000_000).unwrap();
        prop_assert!(v.is_clean(), "{} {ext}: {}", w.name(), v.divergence.unwrap_or_default());
        prop_assert_eq!(v.elided_forwarded + v.elided_checks, v.full_forwarded);
    }
}
