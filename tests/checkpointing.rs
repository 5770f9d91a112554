//! Checkpoint/restore round-trips and lockstep golden-model checking.
//!
//! The headline invariants:
//!
//! * A run interrupted at *any* commit boundary, snapshotted through
//!   JSON, and restored into a freshly built system finishes with a
//!   [`RunResult`] bit-identical to the uninterrupted run — on every
//!   paper workload, with or without an armed fault campaign.
//! * An injected architectural fault under lockstep surfaces as
//!   [`SimError::Divergence`] with a populated report, while
//!   monitoring-path corruption (which touches no architectural state)
//!   does not.

use std::sync::OnceLock;

use flexcore_bench::{paper_config, ExtKind};
use flexcore_suite::flexcore::checkpoint::{PageDelta, Snapshot, SNAPSHOT_FORMAT};
use flexcore_suite::flexcore::ext::{Dift, Extension, MonitorTrap, Sec, Umc};
use flexcore_suite::flexcore::faults::{
    BitstreamStrike, FaultAction, FaultEvent, FaultInjectorSnapshot, FaultModel, FaultPlan,
    FaultSchedule, FaultTarget, PacketField,
};
use flexcore_suite::flexcore::interface::FifoSnapshot;
use flexcore_suite::flexcore::{
    ForwardStats, ResilienceStats, RunOutcome, RunResult, SimError, System, SystemConfig,
};
use flexcore_suite::mem::{BusStats, CacheSnapshot, CacheStats, LineState, MetaCacheSnapshot};
use flexcore_suite::pipeline::{CoreSnapshot, CoreStats, ExitReason};
use flexcore_suite::workloads::Workload;
use proptest::prelude::*;

const MAX_INSTRUCTIONS: u64 = 50_000_000;

fn fresh(w: &Workload) -> System<Umc> {
    let program = w.program().unwrap_or_else(|e| panic!("{} assembles: {e}", w.name()));
    let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
    sys.load_program(&program);
    sys
}

/// Uninterrupted reference results, one per paper workload, computed
/// once and shared across proptest cases.
fn reference(idx: usize) -> &'static RunResult {
    static REFS: OnceLock<Vec<RunResult>> = OnceLock::new();
    &REFS.get_or_init(|| {
        Workload::all()
            .iter()
            .map(|w| fresh(w).try_run(MAX_INSTRUCTIONS).expect("uninterrupted run"))
            .collect()
    })[idx]
}

/// Interrupts a fresh run of workload `idx` after about `frac` of its
/// commits, round-trips the snapshot through JSON, restores it into
/// another fresh system, and returns the resumed run's result.
fn interrupt_and_resume(idx: usize, frac: f64) -> RunResult {
    let w = &Workload::all()[idx];
    let pause = (reference(idx).instret as f64 * frac) as u64;
    let mut first = fresh(w);
    match first.try_run_until(MAX_INSTRUCTIONS, pause).expect("run to the pause point") {
        RunOutcome::Paused { instret, .. } => assert!(instret >= pause),
        RunOutcome::Done(r) => panic!("finished before the pause point: {:?}", r.exit),
    }
    let snap = first.snapshot();
    let json = snap.to_json();
    let parsed = Snapshot::from_json(&json).expect("checkpoint JSON parses");
    assert_eq!(parsed, snap, "snapshot survives the JSON round-trip");
    let mut resumed = fresh(w);
    resumed.restore(&parsed).expect("snapshot restores into an identically built system");
    resumed.try_run(MAX_INSTRUCTIONS).expect("resumed run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interrupt each workload at a random point; the resumed run's
    /// result must be bit-identical to the uninterrupted run's.
    #[test]
    fn interrupted_run_reproduces_uninterrupted_result(
        idx in 0usize..6,
        frac_ppm in 20_000u64..980_000,
    ) {
        prop_assert_eq!(&interrupt_and_resume(idx, frac_ppm as f64 / 1e6), reference(idx));
    }
}

/// Every workload survives at least one interrupt point (the proptest
/// above samples; this pins full coverage of the six kernels).
#[test]
fn every_workload_round_trips_at_the_midpoint() {
    for idx in 0..Workload::all().len() {
        assert_eq!(
            &interrupt_and_resume(idx, 0.5),
            reference(idx),
            "{} diverged after restore",
            Workload::all()[idx].name()
        );
    }
}

/// Runs bitcount under `plan` whole, and again paused a third of the
/// way in, snapshotted and resumed in a fresh system: the resumed run
/// must replay the exact same strikes.
fn assert_resume_replays_the_campaign(plan: impl Fn() -> FaultPlan) {
    let w = Workload::bitcount();
    let mut whole = fresh(&w);
    whole.arm_faults(plan());
    let full = whole.try_run(MAX_INSTRUCTIONS).expect("faulted run completes");
    assert!(full.resilience.faults_injected > 0, "the campaign fired");

    let mut first = fresh(&w);
    first.arm_faults(plan());
    let pause = full.instret / 3;
    match first.try_run_until(MAX_INSTRUCTIONS, pause).expect("run to the pause point") {
        RunOutcome::Paused { .. } => {}
        RunOutcome::Done(r) => panic!("finished before the pause point: {:?}", r.exit),
    }
    let snap = first.snapshot();
    assert!(snap.faults.is_some(), "injector state rides in the snapshot");

    let mut second = fresh(&w);
    second.arm_faults(plan());
    second.restore(&snap).expect("restore with the re-armed plan");
    let resumed = second.try_run(MAX_INSTRUCTIONS).expect("resumed faulted run");
    assert_eq!(resumed, full, "fault campaign diverged after restore");
    assert_eq!(second.fault_log(), whole.fault_log(), "the strikes landed elsewhere");
}

/// Checkpointing composes with an armed fault campaign: the injector's
/// generator position rides along, so the resumed run replays the
/// exact same strikes.
#[test]
fn checkpoint_preserves_fault_campaign_determinism() {
    assert_resume_replays_the_campaign(|| {
        FaultPlan::new(0xf1e2)
            .inject(
                FaultTarget::FifoPacket,
                FaultSchedule::EveryCommits(977),
                FaultModel::BitFlip { bits: 1 },
            )
            .inject(
                FaultTarget::Register,
                FaultSchedule::AtCommit(12_345),
                FaultModel::BitFlip { bits: 1 },
            )
    });
}

/// The same for a Bernoulli spec, which draws one decision per commit
/// but is polled only where a draw fires: the snapshot falls between
/// two polls, so it must carry the decisions drawn since the last one.
#[test]
fn checkpoint_carries_the_bernoulli_draws_since_the_last_poll() {
    assert_resume_replays_the_campaign(|| {
        FaultPlan::new(0xf1e3).inject(
            FaultTarget::FifoPacket,
            FaultSchedule::Bernoulli { per_million: 300 },
            FaultModel::BitFlip { bits: 1 },
        )
    });
}

/// 64-bit FNV-1a, for pinning long outputs by hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One seeded Bernoulli campaign, pinned: SEC at its paper clock with
/// result and register flips at 1000 ppm each, on every paper kernel.
/// Each run stops at commit 1500, between polls (a register flip has
/// fired at 1190, the next strike is due at 3478), goes through the
/// checkpoint JSON into a fresh system, and finishes there at SEC's
/// trap. The draws depend on the commit index alone, so the kernels
/// strike the same commits at different cycles. The fault log must
/// equal the one recorded when the pin was taken: a generator that
/// draws differently fails here, not only one that disagrees with
/// itself across a restore.
#[test]
fn seeded_bernoulli_campaign_matches_its_pinned_fault_log() {
    let plan = || {
        FaultPlan::new(0x5ec_1000)
            .inject(
                FaultTarget::CommitResult,
                FaultSchedule::Bernoulli { per_million: 1000 },
                FaultModel::BitFlip { bits: 1 },
            )
            .inject(
                FaultTarget::Register,
                FaultSchedule::Bernoulli { per_million: 1000 },
                FaultModel::BitFlip { bits: 1 },
            )
    };
    let system = |w: &Workload| {
        let mut sys = System::new(paper_config(ExtKind::Sec), Sec::new());
        sys.load_program(&w.program().expect("assembles"));
        sys.arm_faults(plan());
        sys
    };
    let mut events = Vec::new();
    for w in &Workload::all() {
        let mut first = system(w);
        match first.try_run_until(MAX_INSTRUCTIONS, 1500).expect("run to the pause point") {
            RunOutcome::Paused { .. } => {}
            RunOutcome::Done(r) => {
                panic!("{} finished before the pause point: {:?}", w.name(), r.exit)
            }
        }
        let json = first.snapshot().to_json();
        let mut second = system(w);
        second.restore(&Snapshot::from_json(&json).expect("parses")).expect("restores");
        let r = second.try_run(MAX_INSTRUCTIONS).expect("the faulted run ends");
        assert!(r.monitor_trap.is_some(), "{}: SEC catches a result flip", w.name());
        events.extend(second.fault_log().iter().map(|e| format!("{} {e:?}", w.name())));
    }
    assert_eq!(events.len(), 14, "{events:#?}");
    assert_eq!(
        events[..3],
        [
            "sha FaultEvent { at: 1190, cycle: 3014, action: FlipRegister { reg: 15, mask: 536870912 } }",
            "sha FaultEvent { at: 3478, cycle: 9669, action: FlipResult { mask: 8 } }",
            "gmac FaultEvent { at: 1190, cycle: 2565, action: FlipRegister { reg: 15, mask: 536870912 } }",
        ]
    );
    assert_eq!(fnv1a(events[3..].join("\n").as_bytes()), 0x43af_ed35_a18f_0f28, "{events:#?}");
}

/// A hand-built snapshot that sets every field to a distinct value.
/// `variant` picks the exit reason (`None` and each kind in turn) and
/// alternates `Some`/`None` for the monitor trap, the pending trap and
/// the fault-injector state.
fn pinned_snapshot(variant: usize) -> Snapshot {
    let exits = [
        None,
        Some(ExitReason::Halt(7)),
        Some(ExitReason::IllegalInstruction { pc: 0x1004, word: 0xdead_beef }),
        Some(ExitReason::MisalignedAccess { pc: 0x1008, addr: 0x8003 }),
        Some(ExitReason::DivideByZero { pc: 0x100c }),
        Some(ExitReason::InstructionLimit),
        Some(ExitReason::MonitorTrap { pc: 0x1010 }),
    ];
    let some = variant % 2 == 1;
    let cache = |seed: u64| CacheSnapshot {
        lines: vec![
            LineState { tag: 0x12, valid: true, dirty: false, lru: seed + 1 },
            LineState { tag: 0x34, valid: false, dirty: true, lru: seed + 2 },
        ],
        stamp: seed + 3,
        stats: CacheStats {
            read_hits: seed + 4,
            read_misses: seed + 5,
            write_hits: seed + 6,
            write_misses: seed + 7,
            writebacks: seed + 8,
        },
    };
    let fields = [
        PacketField::Result,
        PacketField::Srcv1,
        PacketField::Srcv2,
        PacketField::Addr,
        PacketField::StoreValue,
    ];
    let mut actions = vec![
        FaultAction::FlipResult { mask: 1 },
        FaultAction::FlipRegister { reg: 9, mask: 2 },
        FaultAction::FlipMemory { addr: 0x8000, mask: 4 },
        FaultAction::FlipText { addr: 0x1000, mask: 8 },
        FaultAction::PoisonMeta { addr: 0x40, mask: 16 },
        FaultAction::StickFabric,
    ];
    actions.extend(fields.map(|field| FaultAction::CorruptPacket { field, mask: 32 }));
    let mut per_class = [0; flexcore_suite::isa::NUM_INSTR_CLASSES];
    for (i, n) in per_class.iter_mut().enumerate() {
        *n = i as u64 * 3;
    }
    Snapshot {
        format: SNAPSHOT_FORMAT,
        ext_name: "SEC".to_string(),
        fifo_depth: 64,
        core: CoreSnapshot {
            regs: std::array::from_fn(|i| i as u32 * 0x0101_0101),
            icc: 0b1010,
            pc: 0x1000,
            npc: 0x1004,
            annul_next: some,
            cycle: 12_345,
            icache: cache(100),
            dcache: cache(200),
            storebuf_pending: vec![50, 60],
            storebuf_stalls: 70,
            stats: CoreStats {
                instret: 4000,
                annulled: 12,
                per_class,
                external_stall_cycles: 90,
                store_stall_cycles: 91,
            },
            console: b"ok\n".to_vec(),
            exited: exits[variant],
            commit_slot: 1,
        },
        mem_pages: vec![
            PageDelta { base: 0x1000, words: vec![(0, 1), (4092, u32::MAX)] },
            PageDelta { base: 0x8000, words: vec![(8, 0xabcd)] },
        ],
        meta: MetaCacheSnapshot { tags: cache(300), lines: vec![(0x40, vec![1, 2, 3, 255])] },
        bus_busy_until: 777,
        bus_stats: BusStats {
            busy_cycles: 1,
            core_transfers: 2,
            fabric_transfers: 3,
            core_wait_cycles: 4,
            fabric_wait_cycles: 5,
        },
        shadow: (0..32).collect(),
        ext_state: vec![11, 22],
        fifo: FifoSnapshot { dequeues: vec![12_400, 12_410], stall_cycles: 33, peak_occupancy: 9 },
        fabric_free_at: 12_390,
        forward: ForwardStats {
            committed: 4000,
            forwarded: 1500,
            dropped: 2,
            per_class,
            fifo_stall_cycles: 44,
            peak_occupancy: 10,
        },
        monitor_trap: some.then(|| MonitorTrap { pc: 0x1010, reason: "ALU \"result\"".into() }),
        pending_trap: some.then_some((12_500, 3999)),
        faults: some.then(|| FaultInjectorSnapshot {
            rng_states: vec![u64::MAX, 0],
            exhausted: vec![true, false],
            log: actions
                .into_iter()
                .enumerate()
                .map(|(i, action)| FaultEvent { at: i as u64 + 1, cycle: i as u64 * 10, action })
                .collect(),
            bitstream_log: vec![BitstreamStrike { attempt: 1, offset: 300, mask: 0x80 }],
            bitstream_attempts: 2,
        }),
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
        fabric_stuck: some,
    }
}

/// The checkpoint format is pinned: every saved shape (each exit
/// reason, each fault action and packet field, both sides of every
/// optional field) round-trips, and the encoder's output hashes to the
/// values recorded when the pin was taken.
#[test]
fn snapshot_json_format_is_pinned() {
    let mut hashes = Vec::new();
    for variant in 0..7 {
        let snap = pinned_snapshot(variant);
        let json = snap.to_json();
        assert_eq!(Snapshot::from_json(&json).as_ref(), Ok(&snap), "variant {variant}: {json}");
        hashes.push(fnv1a(json.as_bytes()));
    }
    assert_eq!(
        hashes,
        [
            0x8fc7_d18c_4510_c6bb,
            0xf424_b03a_5137_d337,
            0x79f3_91d1_4807_944a,
            0x424d_b984_3106_9414,
            0xfabd_c8f3_353f_a380,
            0x599f_411c_f545_b136,
            0x40c0_f30d_8097_3ed6,
        ]
    );
}

/// Restoring requires the same construction: a missing fault plan is a
/// typed error, not silent corruption.
#[test]
fn restore_rejects_mismatched_construction() {
    let w = Workload::bitcount();
    let mut sys = fresh(&w);
    sys.arm_faults(FaultPlan::new(1).inject(
        FaultTarget::FifoPacket,
        FaultSchedule::EveryCommits(1000),
        FaultModel::BitFlip { bits: 1 },
    ));
    match sys.try_run_until(MAX_INSTRUCTIONS, 1000).expect("run to the pause point") {
        RunOutcome::Paused { .. } => {}
        RunOutcome::Done(_) => panic!("finished before the pause point"),
    }
    let snap = sys.snapshot();

    let mut unarmed = fresh(&w);
    let err = unarmed.restore(&snap).expect_err("fault state with no armed plan must fail");
    assert!(err.to_string().contains("fault"), "unhelpful error: {err}");

    let mut wrong_depth =
        System::<Umc>::new(SystemConfig::fabric_half_speed().with_fifo_depth(8), Umc::new());
    wrong_depth.load_program(&w.program().expect("assembles"));
    let err = wrong_depth.restore(&snap).expect_err("mismatched FIFO depth must fail");
    assert!(err.to_string().contains("depth"), "unhelpful error: {err}");
}

/// Runs `sha` under `ext` to `pause` commits.
fn sha_paused_at<E: Extension>(ext: E, pause: u64) -> System<E> {
    let program = Workload::sha().program().expect("sha assembles");
    let mut sys = System::new(SystemConfig::fabric_half_speed(), ext);
    sys.load_program(&program);
    match sys.try_run_until(MAX_INSTRUCTIONS, pause).expect("run to the pause point") {
        RunOutcome::Paused { .. } => sys,
        RunOutcome::Done(r) => panic!("finished before the pause point: {:?}", r.exit),
    }
}

/// Takes a checkpoint of `sha` under the extension `ext` builds,
/// malforms it with `tamper`, and restores it into a system paused
/// elsewhere: the restore must be refused with an error mentioning
/// `needle`, and leave the system as it was.
fn assert_refused<E: Extension>(ext: fn() -> E, tamper: impl FnOnce(&mut Snapshot), needle: &str) {
    let mut snap = sha_paused_at(ext(), 20_000).snapshot();
    assert!(!snap.meta.lines.is_empty() && !snap.fifo.dequeues.is_empty(), "a busy checkpoint");
    tamper(&mut snap);
    let mut sys = sha_paused_at(ext(), 5_000);
    let before = sys.snapshot();
    let err = sys.restore(&snap).expect_err("a malformed snapshot is refused");
    assert!(err.to_string().contains(needle), "unhelpful error: {err}");
    assert_eq!(sys.snapshot(), before, "the refused restore changed the system");
}

#[test]
fn restore_refuses_an_icache_of_another_geometry() {
    assert_refused(Umc::new, |s| s.core.icache.lines.truncate(1000), "I-cache");
}

#[test]
fn restore_refuses_a_dcache_of_another_geometry() {
    assert_refused(Umc::new, |s| s.core.dcache.lines.push(s.core.dcache.lines[0]), "D-cache");
}

#[test]
fn restore_refuses_a_meta_tag_array_of_another_geometry() {
    assert_refused(Umc::new, |s| s.meta.tags.lines.truncate(100), "meta-data tag array");
}

#[test]
fn restore_refuses_a_meta_line_that_is_not_resident() {
    assert_refused(
        Umc::new,
        |s| {
            let resident: Vec<u32> = s.meta.lines.iter().map(|&(base, _)| base).collect();
            let stray = (0..).map(|i| i * 32).find(|b| !resident.contains(b)).expect("a free base");
            s.meta.lines[0].0 = stray;
        },
        "is not a line the tag array holds",
    );
}

#[test]
fn restore_refuses_a_meta_line_of_another_size() {
    assert_refused(Umc::new, |s| s.meta.lines[0].1.push(0), "bytes, not 32");
}

#[test]
fn restore_refuses_more_fifo_entries_than_its_depth() {
    assert_refused(
        Umc::new,
        |s| s.fifo.dequeues = (0..=s.fifo_depth).map(|i| s.fabric_free_at + i).collect(),
        "FIFO entries",
    );
}

#[test]
fn restore_refuses_more_pending_stores_than_the_store_buffer_holds() {
    assert_refused(
        Umc::new,
        |s| s.core.storebuf_pending = vec![s.core.cycle + 1; 9],
        "store buffer",
    );
}

#[test]
fn restore_refuses_extension_state_of_another_length() {
    assert_refused(Umc::new, |s| s.ext_state.push(0), "words of `UMC` state");
}

#[test]
fn restore_refuses_a_memory_diff_outside_its_page() {
    assert_refused(
        Umc::new,
        |s| s.mem_pages[0].words.push((4096, 1)),
        "not word-aligned in its page",
    );
}

#[test]
fn restore_refuses_a_dift_policy_wider_than_its_register() {
    assert_refused(Dift::new, |s| s.ext_state[0] += 1 << 32, "32-bit policy register");
}

/// A small all-ALU kernel where commit `4 + 4k` is always the `add`
/// with a live destination register — a deterministic divergence site.
fn alu_loop_source() -> &'static str {
    "start:  mov 0, %o0
            set 100, %o1
    loop:   add %o0, 1, %o0
            subcc %o1, 1, %o1
            bne loop
            nop
            ta 0"
}

fn alu_system() -> System<Umc> {
    let program = flexcore_suite::asm::assemble(alu_loop_source()).expect("assembles");
    let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
    sys.load_program(&program);
    sys
}

/// The acceptance criterion: an injected pipeline fault under
/// `--lockstep` yields `SimError::Divergence` with a populated report.
#[test]
fn injected_result_fault_diverges_under_lockstep() {
    let mut sys = alu_system();
    sys.enable_lockstep();
    // Commit 40 is an `add %o0, 1, %o0`: flip bit 3 of its result.
    sys.arm_faults(FaultPlan::new(0).inject(
        FaultTarget::CommitResult,
        FaultSchedule::AtCommit(40),
        FaultModel::Mask(1 << 3),
    ));
    match sys.try_run(MAX_INSTRUCTIONS) {
        Err(SimError::Divergence(report)) => {
            assert_eq!(report.commit_index, 40, "caught at the faulted commit");
            assert_eq!(report.reason, "register file diverged (first at r8)", "{report}");
            let m = report.reg_mismatches.first().expect("a register mismatch is recorded");
            assert_eq!(m.dut ^ m.golden, 1 << 3, "exactly the injected bit differs");
            // Commit 40 is past the 16-entry window, so both rings have
            // wrapped and hold commits 25..=40, oldest first.
            let indices: Vec<u64> = report.dut_recent.iter().map(|c| c.index).collect();
            assert_eq!(indices, (25..=40).collect::<Vec<_>>(), "DUT ring after wraparound");
            // The strike touched registers only: both models fetched
            // the same instructions at the same PCs.
            assert_eq!(report.golden_recent, report.dut_recent, "golden ring mirrors the DUT's");
        }
        other => panic!("expected a divergence, got {other:?}"),
    }
}

/// Stores a data word at 0x8000, idles in a loop, then loads it back:
/// the `ld` is commit 22 and writes `%o2` (r10).
fn load_after_idle_source() -> &'static str {
    "start:  set 0x8000, %o0
            set 0x12345678, %o1
            st %o1, [%o0]
            mov 5, %o3
    loop:   subcc %o3, 1, %o3
            bne loop
            nop
            ld [%o0], %o2
            ta 0"
}

/// A data-memory strike is invisible until a load observes it: the
/// golden model keeps its own memory image, so the flipped word
/// surfaces as a register mismatch at the observing load, not at the
/// commit the strike landed on.
#[test]
fn data_memory_strike_diverges_at_the_observing_load() {
    let program = flexcore_suite::asm::assemble(load_after_idle_source()).expect("assembles");
    let system = || {
        let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
        sys.load_program(&program);
        sys.enable_lockstep();
        sys
    };
    let clean = system().try_run(MAX_INSTRUCTIONS).expect("no divergence without a strike");
    assert_eq!(clean.exit, ExitReason::Halt(0));

    let mut sys = system();
    // Commit 6 (`mov 5, %o3`) is after the store and long before the load.
    sys.arm_faults(FaultPlan::new(7).inject(
        FaultTarget::Memory { base: 0x8000, len: 4 },
        FaultSchedule::AtCommit(6),
        FaultModel::BitFlip { bits: 1 },
    ));
    match sys.try_run(MAX_INSTRUCTIONS) {
        Err(SimError::Divergence(report)) => {
            assert_eq!(report.commit_index, 22, "caught at the observing load: {report}");
            assert_eq!(report.reason, "register file diverged (first at r10)", "{report}");
            let m = report.reg_mismatches.first().expect("a register mismatch is recorded");
            assert_eq!(m.golden, 0x1234_5678, "the golden model loads the stored word");
            assert_eq!((m.dut ^ m.golden).count_ones(), 1, "exactly one struck bit differs");
        }
        other => panic!("expected a divergence, got {other:?}"),
    }
}

/// Monitoring-path corruption (an FFIFO packet strike) touches no
/// architectural state, so lockstep must stay quiet — that separation
/// is the point of checking at the architectural level.
#[test]
fn monitoring_path_corruption_does_not_diverge() {
    let mut sys = alu_system();
    sys.enable_lockstep();
    sys.arm_faults(FaultPlan::new(3).inject(
        FaultTarget::FifoPacket,
        FaultSchedule::AtCommit(40),
        FaultModel::BitFlip { bits: 2 },
    ));
    let r = sys.try_run(MAX_INSTRUCTIONS).expect("no divergence from a packet strike");
    assert_eq!(r.exit, ExitReason::Halt(0));
    assert_eq!(r.resilience.packets_corrupted, 1, "the strike did land");
}

/// Lockstep agrees with the cycle-level core across a full workload
/// (the golden model and the pipeline implement the same ISA).
#[test]
fn lockstep_agrees_across_a_full_workload() {
    let mut sys = fresh(&Workload::bitcount());
    sys.enable_lockstep();
    let r = sys.try_run(MAX_INSTRUCTIONS).expect("no divergence");
    assert_eq!(r.exit, ExitReason::Halt(0), "workload self-check");
    let checked = sys.lockstep().expect("checker installed").commits_checked();
    assert_eq!(checked, r.forward.committed, "every commit was checked");
    assert!(checked > 50_000, "a non-trivial run: {checked} commits");
}

/// Lockstep survives a checkpoint/restore cycle: the golden model is
/// re-seeded from the restored state and keeps agreeing.
#[test]
fn lockstep_resynchronizes_after_restore() {
    let mut first = fresh(&Workload::sha());
    first.enable_lockstep();
    match first.try_run_until(MAX_INSTRUCTIONS, 10_000).expect("run to the pause point") {
        RunOutcome::Paused { .. } => {}
        RunOutcome::Done(_) => panic!("finished before the pause point"),
    }
    let snap = first.snapshot();

    let mut resumed = fresh(&Workload::sha());
    resumed.enable_lockstep();
    resumed.restore(&snap).expect("restore re-seeds the checker");
    let r = resumed.try_run(MAX_INSTRUCTIONS).expect("no divergence after restore");
    assert_eq!(r.exit, ExitReason::Halt(0));
    assert_eq!(&r, reference(0), "sha is Workload::all()[0]");
}
