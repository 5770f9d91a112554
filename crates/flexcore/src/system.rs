//! The full FlexCore system model.

use std::cmp::Ordering;

use flexcore_asm::Program;
use flexcore_fabric::{LutMapping, FRAME_BYTES};
use flexcore_mem::{CacheConfig, MainMemory, MetaDataCache, SystemBus};
use flexcore_pipeline::{Core, CoreConfig, ExitReason, Stepped, TracePacket};
use flexcore_telemetry::PhaseProfiler;

use crate::checkpoint::{self, RestoreError, Snapshot, SNAPSHOT_FORMAT};
use crate::error::{DeadlockSnapshot, SimError};
use crate::ext::{ExtEnv, Extension, MonitorTrap};
use crate::faults::{
    FaultAction, FaultEvent, FaultInjector, FaultModel, FaultPlan, FaultSchedule, FaultSpec,
    FaultTarget, PacketField,
};
use crate::interface::{Cfgr, ForwardFifo, ForwardPolicy};
use crate::lockstep::LockstepChecker;
use crate::obs::{NullSink, TraceEvent, TraceSink};
use crate::reconfig::{SwapPolicy, SwapReport, SwapRequest, SwapSlot};
use crate::stats::{ForwardStats, ResilienceStats, RunResult};
use crate::ShadowRegFile;

/// A wedged fabric "frees up" this far in the future — effectively
/// never, while leaving headroom so grid alignment cannot overflow.
const STUCK: u64 = 1 << 62;

/// Forward-progress watchdog: if the commit stage would have to wait
/// more than this many core cycles for a FIFO slot — or no instruction
/// commits for this long — [`System::try_run`] returns
/// [`SimError::Deadlock`] instead of spinning.
pub(crate) const WATCHDOG_CYCLES: u64 = 1_000_000;

/// How many times [`System::load_bitstream`] re-transfers a bitstream
/// that fails validation before giving up.
pub const BITSTREAM_RETRY_LIMIT: u32 = 3;

/// How the monitoring extension is implemented.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Implementation {
    /// On the reconfigurable fabric, running at `core clock / divisor`
    /// (the paper's FlexCore configuration: divisor 2 for UMC/DIFT/BC,
    /// divisor 4 for SEC). Divisor 1 is the core clock, which is also
    /// how the paper's "full ASIC" configuration runs (Table IV's 1X
    /// columns).
    Fabric {
        /// Core-to-fabric clock ratio (1, 2, or 4).
        divisor: u32,
    },
}

impl Implementation {
    /// Core cycles per fabric cycle.
    pub fn divisor(self) -> u64 {
        let Implementation::Fabric { divisor } = self;
        u64::from(divisor.max(1))
    }
}

/// What the commit stage does when the forward FIFO is full under an
/// [`Always`](ForwardPolicy::Always) forwarding policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OverflowPolicy {
    /// Stall the commit stage until a slot frees (the paper's
    /// mechanism; lossless).
    #[default]
    Stall,
    /// Drop the packet and count it
    /// ([`ResilienceStats::dropped_overflow`]) — graceful degradation
    /// for monitors that tolerate gaps.
    ///
    /// [`ResilienceStats::dropped_overflow`]: crate::ResilienceStats::dropped_overflow
    DropWithAccounting,
}

/// What [`System::try_run_until`] produced: a finished run, or a pause
/// at a commit boundary (the moment to call [`System::snapshot`]).
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::large_enum_variant)] // Done is the overwhelmingly common case
pub enum RunOutcome {
    /// The run finished: program exit, monitor trap, or instruction
    /// limit.
    Done(RunResult),
    /// The run paused at the requested commit boundary.
    Paused {
        /// Instructions committed so far.
        instret: u64,
        /// Core-clock cycle at the pause.
        cycle: u64,
    },
}

/// Configuration of a [`System`].
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// Core parameters.
    pub core: CoreConfig,
    /// Meta-data cache capacity in bytes (the paper's default: 4 KB);
    /// the rest of the geometry is [`CacheConfig::meta_default`]'s.
    pub meta_cache_bytes: u32,
    /// Forward-FIFO depth (the paper's default: 64).
    pub fifo_depth: usize,
    /// Extension implementation and clock ratio.
    pub implementation: Implementation,
    /// Whether the core pre-decodes instructions for the fabric (the
    /// OPCODE/SRC1/SRC2/DEST fields of Table II). The paper found
    /// core-side decoding makes DIFT 30% faster; turning this off
    /// charges the fabric an extra cycle per packet to decode the raw
    /// instruction word. Ablation knob; default `true`.
    pub decode_on_core: bool,
    /// Whether the meta-data cache supports bit-granular write masks
    /// (§III.D). Turning this off forces every meta-data update into an
    /// explicit read-modify-write pair, "an explicit cache read and
    /// then an explicit cache write". Ablation knob; default `true`.
    pub masked_meta_writes: bool,
    /// Whether monitor exceptions must be precise: every forwarded
    /// instruction stalls the commit stage until the fabric
    /// acknowledges it (no decoupling). Ablation knob; default `false`
    /// — the paper's extensions all terminate the program, so
    /// imprecise traps suffice and the FIFO decouples fully.
    pub precise_exceptions: bool,
    /// Optional hard ceiling on core-clock cycles; exceeding it makes
    /// [`System::try_run`] return [`SimError::CycleBudgetExceeded`].
    pub cycle_budget: Option<u64>,
    /// FIFO overflow behavior under `Always` forwarding.
    pub overflow_policy: OverflowPolicy,
}

impl SystemConfig {
    /// FlexCore with the fabric at the full core clock (Table IV "1X",
    /// the timing of the paper's ASIC configuration).
    pub fn fabric_full_speed() -> SystemConfig {
        SystemConfig {
            core: CoreConfig::leon3(),
            meta_cache_bytes: CacheConfig::meta_default().size_bytes,
            fifo_depth: 64,
            implementation: Implementation::Fabric { divisor: 1 },
            decode_on_core: true,
            masked_meta_writes: true,
            precise_exceptions: false,
            cycle_budget: None,
            overflow_policy: OverflowPolicy::Stall,
        }
    }

    /// FlexCore with the fabric at half the core clock (Table IV
    /// "0.5X" — UMC/DIFT/BC).
    pub fn fabric_half_speed() -> SystemConfig {
        SystemConfig {
            implementation: Implementation::Fabric { divisor: 2 },
            ..SystemConfig::fabric_full_speed()
        }
    }

    /// FlexCore with the fabric at a quarter of the core clock
    /// (Table IV "0.25X" — SEC).
    pub fn fabric_quarter_speed() -> SystemConfig {
        SystemConfig {
            implementation: Implementation::Fabric { divisor: 4 },
            ..SystemConfig::fabric_full_speed()
        }
    }

    /// Returns a copy with a different forward-FIFO depth (the
    /// Figure 5 sweep).
    pub fn with_fifo_depth(mut self, depth: usize) -> SystemConfig {
        self.fifo_depth = depth;
        self
    }

    /// Returns a copy with fabric-side instruction decoding (ablation:
    /// the fabric pays an extra cycle per packet).
    pub fn without_core_decode(mut self) -> SystemConfig {
        self.decode_on_core = false;
        self
    }

    /// Returns a copy without bit-granular meta-data writes (ablation:
    /// every meta update becomes a read-modify-write pair).
    pub fn without_masked_writes(mut self) -> SystemConfig {
        self.masked_meta_writes = false;
        self
    }

    /// Returns a copy with precise monitor exceptions (ablation: no
    /// decoupling — commit waits for the fabric on every forwarded
    /// instruction).
    pub fn with_precise_exceptions(mut self) -> SystemConfig {
        self.precise_exceptions = true;
        self
    }

    /// Returns a copy with a different meta-data cache capacity in
    /// bytes (geometry otherwise unchanged).
    pub fn with_meta_cache_bytes(mut self, bytes: u32) -> SystemConfig {
        self.meta_cache_bytes = bytes;
        self
    }

    /// The meta-data cache geometry: [`CacheConfig::meta_default`] at
    /// [`SystemConfig::meta_cache_bytes`].
    fn meta_cache(&self) -> CacheConfig {
        CacheConfig { size_bytes: self.meta_cache_bytes, ..CacheConfig::meta_default() }
    }

    /// Returns a copy with a hard core-cycle budget.
    pub fn with_cycle_budget(mut self, budget: u64) -> SystemConfig {
        self.cycle_budget = Some(budget);
        self
    }

    /// Returns a copy with the given FIFO overflow policy.
    pub fn with_overflow_policy(mut self, policy: OverflowPolicy) -> SystemConfig {
        self.overflow_policy = policy;
        self
    }
}

/// A complete FlexCore system: core + shared bus + meta-data cache +
/// core–fabric interface + one monitoring extension.
///
/// The second type parameter is the instrumentation sink (see
/// [`crate::obs`]). It defaults to [`NullSink`], which compiles every
/// hook point away; [`System::with_sink`] installs a recording sink.
///
/// The sink is the system's one instrumentation hook: host-time
/// profiling is a sink too ([`PhaseProfiler`], whose sampled phase
/// timing `flexprof` reports), so the core and the extension
/// environment read no clock of their own.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct System<E: Extension, S: TraceSink = NullSink> {
    config: SystemConfig,
    /// `config.implementation.divisor()`: core cycles per fabric cycle,
    /// the grid every fabric event aligns to.
    grid: u64,
    core: Core,
    mem: MainMemory,
    bus: SystemBus,
    meta: MetaDataCache,
    shadow: ShadowRegFile,
    ext: E,
    cfgr: Cfgr,
    fifo: ForwardFifo,
    fabric_free_at: u64,
    forward: ForwardStats,
    monitor_trap: Option<MonitorTrap>,
    /// TRAP delivery: `(fabric time the signal asserts, instret at the
    /// violating instruction)`. The exception is imprecise (§III.C):
    /// the core keeps committing until the signal arrives.
    pending_trap: Option<(u64, u64)>,
    faults: Option<FaultInjector>,
    resilience: ResilienceStats,
    /// Set by a `FabricStuck` fault: the fabric never drains again.
    fabric_stuck: bool,
    /// Memory image as it stood right after [`System::load_program`] —
    /// the baseline that [`System::snapshot`] delta-compresses against.
    baseline_mem: Option<MainMemory>,
    /// The golden-model checker, when
    /// [`System::enable_lockstep`] is active.
    lockstep: Option<LockstepChecker>,
    /// `(cycle, committed)` at degraded-mode entry, for residency
    /// accounting; `Some` means monitoring is bypassed and commits are
    /// counted as unmonitored instead of being forwarded. Entered by
    /// the recovery supervisor's rung 3, never by the system itself.
    /// Not part of a [`Snapshot`] — the supervisor never restores past
    /// a degraded entry.
    degraded_entry: Option<(u64, u64)>,
    /// FIFO entries still in flight at each [`System::restore`],
    /// accumulated across restores. Rollback discards these packets
    /// un-processed; recovery reports surface the count. Deliberately
    /// not in the [`Snapshot`] and never reset by a restore.
    fifo_drained_on_restore: u64,
    /// Scheduled mid-run hot-swaps in boundary order (see
    /// [`crate::reconfig`]). The schedule is construction-time
    /// configuration (like the fault plan), not snapshot state:
    /// [`System::restore`] realigns it against the restored commit
    /// count so a replay re-executes a swap deterministically.
    swaps: Vec<SwapSlot<E>>,
    /// How many of `swaps` have fired: always a prefix, since swaps
    /// fire in boundary order.
    fired: usize,
    /// Completed hot-swaps, oldest first.
    swap_reports: Vec<SwapReport>,
    /// Static check-elision table ([`System::set_elision`]).
    /// Construction-time configuration like the CFGR, not snapshot
    /// state: a restored run must be built with the same table.
    elision: Option<crate::elide::ElisionTable>,
    /// `(base, bytes)` of the program image [`System::load_program`]
    /// loaded, with `base` rounded down to a word.
    text: (u32, u32),
    /// The installed elision table as one mask per text word, indexed
    /// by `(pc - text.0) >> 2` — what the commit path reads. Empty when
    /// no table is installed; rebuilt by whichever of
    /// [`System::load_program`] and [`System::set_elision`] runs last,
    /// and never larger than the text.
    elision_masks: Vec<u8>,
    /// Host wall-clock nanoseconds spent inside the run loop so far,
    /// accumulated across `try_run`/`try_run_until` segments. Not part
    /// of a [`Snapshot`] (host time is not architectural state) and
    /// excluded from [`RunResult`] equality.
    host_ns: u64,
    sink: S,
}

impl<E: Extension> System<E> {
    /// Builds a system around `ext` with no instrumentation (the
    /// [`NullSink`] — zero overhead).
    pub fn new(config: SystemConfig, ext: E) -> System<E> {
        System::with_sink(config, ext, NullSink)
    }
}

impl<E: Extension> System<E, PhaseProfiler> {
    /// Builds a system around `ext` with the phase profiler `prof` as
    /// its sink. The trace-sink argument is only ever [`NullSink`]:
    /// a system has one sink. This is the form perfbench calls.
    pub fn with_profiler(
        config: SystemConfig,
        ext: E,
        _sink: NullSink,
        prof: PhaseProfiler,
    ) -> System<E, PhaseProfiler> {
        System::with_sink(config, ext, prof)
    }
}

impl<E: Extension, S: TraceSink> System<E, S> {
    /// Builds a system around `ext` with `sink` receiving every
    /// instrumentation event (see [`crate::obs`]).
    pub fn with_sink(config: SystemConfig, ext: E, sink: S) -> System<E, S> {
        let cfgr = ext.cfgr();
        System {
            config,
            grid: config.implementation.divisor(),
            core: Core::new(config.core),
            mem: MainMemory::new(),
            bus: SystemBus::default(),
            meta: MetaDataCache::new(config.meta_cache()),
            shadow: ShadowRegFile::new(),
            ext,
            cfgr,
            fifo: ForwardFifo::new(config.fifo_depth),
            fabric_free_at: 0,
            forward: ForwardStats::default(),
            monitor_trap: None,
            pending_trap: None,
            faults: None,
            resilience: ResilienceStats::default(),
            fabric_stuck: false,
            baseline_mem: None,
            lockstep: None,
            degraded_entry: None,
            fifo_drained_on_restore: 0,
            swaps: Vec::new(),
            fired: 0,
            swap_reports: Vec::new(),
            elision: None,
            text: (0, 0),
            elision_masks: Vec::new(),
            host_ns: 0,
            sink,
        }
    }

    /// Installs a static check-elision table (see
    /// [`ElisionTable`](crate::ElisionTable)): packets whose PC the
    /// table marks for this extension's
    /// [`elision_class`](Extension::elision_class) — and that the
    /// extension itself confirms via
    /// [`check_elidable`](Extension::check_elidable) — are never
    /// enqueued toward the fabric. Each skip is counted in
    /// [`ResilienceStats::elided_checks`](crate::ResilienceStats::elided_checks).
    ///
    /// Only PCs inside the loaded program image take effect: the
    /// commit path reads a dense per-word copy of the table over the
    /// image, so entries elsewhere (or unaligned) elide nothing.
    pub fn set_elision(&mut self, table: crate::elide::ElisionTable) {
        self.elision = Some(table);
        self.build_elision_masks();
    }

    /// Rebuilds `elision_masks` from the installed table over `text`.
    fn build_elision_masks(&mut self) {
        self.elision_masks.clear();
        let Some(table) = &self.elision else {
            return;
        };
        let (base, len) = self.text;
        self.elision_masks.resize(len.div_ceil(4) as usize, 0);
        for (pc, mask) in table.entries() {
            let off = pc.wrapping_sub(base);
            if let Some(slot) = self.elision_masks.get_mut((off >> 2) as usize) {
                if off & 3 == 0 {
                    *slot = mask;
                }
            }
        }
    }

    /// The installed elision mask at `pc` (0 outside the text, at an
    /// unaligned PC, or with no table installed).
    fn elision_mask(&self, pc: u32) -> u8 {
        let off = pc.wrapping_sub(self.text.0);
        if off & 3 != 0 {
            return 0;
        }
        self.elision_masks.get((off >> 2) as usize).copied().unwrap_or(0)
    }

    /// The installed trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the system, returning the sink (and whatever it
    /// recorded) — the usual way to extract metrics after a run.
    pub fn into_sink(self) -> S {
        self.sink
    }

    #[inline]
    fn emit(&mut self, ev: TraceEvent) {
        if S::ENABLED {
            self.sink.event(ev);
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The active CFGR value.
    pub fn cfgr(&self) -> Cfgr {
        self.cfgr
    }

    /// The monitored core.
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Main memory (e.g. to inspect program results).
    pub fn memory(&self) -> &MainMemory {
        &self.mem
    }

    /// Mutable main memory (e.g. to pre-load inputs).
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.mem
    }

    /// The extension.
    pub fn extension(&self) -> &E {
        &self.ext
    }

    /// Loads a program and lets the extension initialize meta-data for
    /// the image (e.g. UMC marks static data as written). The
    /// initialization happens "before time zero": it does not consume
    /// simulated cycles or bus bandwidth.
    pub fn load_program(&mut self, program: &Program) {
        self.core.load_program(program, &mut self.mem);
        let base = program.base() & !3;
        self.text = (base, program.base() - base + program.len() as u32);
        self.build_elision_masks();
        let mut scratch_bus = SystemBus::default();
        let mut env =
            ExtEnv::new(&mut self.meta, &mut self.mem, &mut scratch_bus, &mut self.shadow, 0);
        self.ext.on_program_load(program.base(), program.len() as u32, &mut env);
        // Leave the meta cache cold and its statistics clean.
        self.meta.flush(&mut self.mem);
        self.meta = MetaDataCache::new(self.config.meta_cache());
        // The checkpoint baseline: the complete image (text, data, and
        // the extension's flushed meta-data) as of time zero.
        self.baseline_mem = Some(self.mem.clone());
    }

    /// Installs a fault-injection campaign. Replaces any previous plan;
    /// the event log starts empty.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultInjector::new(&plan));
    }

    /// Every fault applied so far (empty when no plan is armed). Same
    /// seed + plan + program ⇒ byte-identical log.
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.faults.as_ref().map_or(&[], FaultInjector::log)
    }

    /// Fault-injection and graceful-degradation counters so far.
    pub fn resilience(&self) -> ResilienceStats {
        self.resilience
    }

    /// Arranges for a single transient fault: the `nth` committed
    /// instruction's result has `bit` flipped — in the forwarded packet
    /// *and* in architectural state, like a real ALU soft error. Used
    /// to demonstrate SEC.
    ///
    /// Sugar for arming (or extending) a [`FaultPlan`] with a
    /// [`CommitResult`](FaultTarget::CommitResult) spec at
    /// [`AtCommit(nth)`](FaultSchedule::AtCommit) with a fixed mask.
    pub fn inject_result_fault(&mut self, nth: u64, bit: u32) {
        let spec = FaultSpec {
            target: FaultTarget::CommitResult,
            schedule: FaultSchedule::AtCommit(nth),
            model: FaultModel::Mask(1 << bit),
        };
        match &mut self.faults {
            Some(inj) => inj.push_spec(spec),
            None => {
                self.faults = Some(FaultInjector::new(&FaultPlan { seed: 0, specs: vec![spec] }))
            }
        }
    }

    fn align_up(&self, t: u64) -> u64 {
        t.next_multiple_of(self.grid)
    }

    /// Captures diagnostic state for a deadlock report.
    fn deadlock_snapshot(&mut self, now: u64) -> DeadlockSnapshot {
        DeadlockSnapshot {
            cycle: now,
            pc: self.core.pc(),
            instret: self.core.stats().instret,
            fifo_occupancy: self.fifo.occupancy(now) as u64,
            fifo_depth: self.fifo.depth() as u64,
            fabric_free_at: self.fabric_free_at,
            fabric_stuck: self.fabric_stuck,
            bus: self.bus.stats(),
            recent: self.sink.flight_log(),
        }
    }

    /// Runs the extension on one packet starting no earlier than `enq`;
    /// returns `(start, bfifo_value)`.
    fn process_on_fabric(&mut self, pkt: &TracePacket, enq: u64) -> (u64, Option<u32>) {
        if self.fabric_stuck {
            // A wedged fabric accepts nothing: the packet's dequeue is
            // scheduled effectively-never and no processing happens.
            self.fabric_free_at = self.fabric_free_at.max(STUCK);
            return (self.fabric_free_at, None);
        }
        let start = self.align_up(enq.max(self.fabric_free_at));
        // Meta-cache and bus activity attributable to this packet is
        // derived from statistics deltas around the extension call, so
        // the mem crate needs no sink plumbing of its own.
        let (miss0, xfer0, wait0) = if S::ENABLED {
            let m = self.meta.stats();
            let b = self.bus.stats();
            (m.read_misses + m.write_misses, b.fabric_transfers, b.fabric_wait_cycles)
        } else {
            (0, 0, 0)
        };
        let mut env = ExtEnv::with_period(
            &mut self.meta,
            &mut self.mem,
            &mut self.bus,
            &mut self.shadow,
            start,
            self.grid,
        );
        if !self.config.masked_meta_writes {
            env.force_read_modify_write();
        }
        if !self.config.decode_on_core {
            // The fabric must decode the raw instruction word itself.
            env.charge_fabric_cycle();
        }
        let (ret, trap) = match self.ext.process(pkt, &mut env) {
            Ok(ret) => (ret, None),
            Err(t) => (None, Some(t)),
        };
        let ready = env.ready_at();
        let (meta_reads, meta_writes) = env.meta_ops();
        let finish = self.align_up(ready).max(start + self.grid);
        self.fabric_free_at = finish;
        if S::ENABLED {
            self.sink.event(TraceEvent::FabricSpan {
                start,
                end: finish,
                pc: pkt.pc,
                class: pkt.class,
                meta_reads,
                meta_writes,
            });
            let m = self.meta.stats();
            let misses = (m.read_misses + m.write_misses) - miss0;
            if misses > 0 {
                self.sink.event(TraceEvent::MetaMiss { cycle: start, count: misses });
            }
            let b = self.bus.stats();
            let transfers = b.fabric_transfers - xfer0;
            let wait_cycles = b.fabric_wait_cycles - wait0;
            if transfers > 0 || wait_cycles > 0 {
                self.sink.event(TraceEvent::BusGrant { cycle: start, transfers, wait_cycles });
            }
        }
        if let Some(t) = trap {
            // Imprecise exception: the TRAP signal reaches the core
            // only once the extension's pipeline stage carrying the
            // violating packet drains; the core keeps committing until
            // then (§III.C — none of the prototype extensions need a
            // precise restart).
            if self.monitor_trap.is_none() {
                let assert_at = finish + self.grid * u64::from(self.ext.pipeline_stages());
                let trap_ev = TraceEvent::Trap {
                    cycle: assert_at,
                    pc: t.pc,
                    instret: self.forward.committed,
                };
                self.monitor_trap = Some(t);
                self.pending_trap = Some((assert_at, self.forward.committed));
                self.emit(trap_ev);
            }
        }
        (start, ret)
    }

    /// Applies one injector-decided fault to architectural state, the
    /// in-flight packet, or the meta-data cache.
    fn apply_fault(&mut self, action: FaultAction, pkt: &mut TracePacket) {
        self.resilience.faults_injected += 1;
        self.emit(TraceEvent::FaultInjected {
            cycle: pkt.commit_cycle,
            instret: self.forward.committed,
        });
        match action {
            FaultAction::FlipResult { mask } => {
                pkt.result ^= mask;
                if let Some(rd) = pkt.dest {
                    self.core.set_reg(rd, pkt.result);
                }
            }
            FaultAction::FlipRegister { reg, mask } => {
                if let Some(r) = flexcore_isa::Reg::new(reg) {
                    let v = self.core.reg(r);
                    self.core.set_reg(r, v ^ mask);
                }
            }
            FaultAction::FlipMemory { addr, mask } | FaultAction::FlipText { addr, mask } => {
                let v = self.mem.read_u32(addr);
                self.mem.write_u32(addr, v ^ mask);
            }
            FaultAction::CorruptPacket { field, mask } => {
                self.resilience.packets_corrupted += 1;
                match field {
                    PacketField::Result => pkt.result ^= mask,
                    PacketField::Srcv1 => pkt.srcv1 ^= mask,
                    PacketField::Srcv2 => pkt.srcv2 ^= mask,
                    PacketField::Addr => pkt.addr ^= mask,
                    PacketField::StoreValue => pkt.store_value ^= mask,
                }
            }
            FaultAction::PoisonMeta { addr, mask } => {
                self.meta.poison(addr, mask);
            }
            FaultAction::StickFabric => self.fabric_stuck = true,
        }
    }

    /// Handles one committed instruction: fault injection, the
    /// forwarding filter, the FIFO, and the fabric. A lockstep
    /// divergence or a FIFO that can never drain is the run's error.
    fn on_commit(&mut self, pkt: &mut TracePacket) -> Result<(), SimError> {
        self.forward.committed += 1;
        if let Some(inj) = &mut self.faults {
            let actions = inj.poll_commit(self.forward.committed, pkt.commit_cycle);
            for action in actions {
                self.apply_fault(action, pkt);
            }
        }
        if S::ENABLED {
            // After fault injection, so the flight recorder remembers
            // what actually entered architectural state.
            self.sink.event(TraceEvent::Commit {
                cycle: pkt.commit_cycle,
                pc: pkt.pc,
                instret: self.forward.committed,
                class: pkt.class,
            });
            self.sink.commit_packet(pkt);
        }
        if let Some(checker) = &mut self.lockstep {
            // Golden-model comparison happens after fault injection so
            // an architectural-state strike is caught at the very
            // commit it lands on.
            if let Err(mut report) = checker.check_commit(pkt, &self.core, self.forward.committed) {
                report.flight = self.sink.flight_log();
                return Err(SimError::Divergence(report));
            }
        }
        if self.degraded_entry.is_some() {
            // Monitoring bypassed: account for what the CFGR *would*
            // have forwarded, but never touch the FIFO or the fabric.
            self.resilience.unmonitored_commits += 1;
            if self.cfgr.policy(pkt.class).forwards() {
                self.resilience.suppressed_checks += 1;
            }
            return Ok(());
        }
        let mut policy = self.cfgr.policy(pkt.class);
        if !policy.forwards() {
            return Ok(());
        }
        // Statically discharged check: the analysis proved this PC's
        // packet cannot change the extension's observable behavior, and
        // the extension re-validates per packet (defense in depth
        // against a stale table). Skip the FIFO and the fabric entirely.
        let mask = self.elision_mask(pkt.pc);
        if mask != 0 && mask & self.ext.elision_class() != 0 && self.ext.check_elidable(pkt) {
            self.resilience.elided_checks += 1;
            self.emit(TraceEvent::CheckElided {
                cycle: pkt.commit_cycle,
                pc: pkt.pc,
                class: pkt.class,
            });
            return Ok(());
        }
        if self.config.precise_exceptions {
            // No decoupling: every forwarded instruction must be
            // acknowledged before it commits.
            policy = ForwardPolicy::WaitForAck;
        }
        let now = pkt.commit_cycle;
        match policy {
            ForwardPolicy::Ignore => {}
            ForwardPolicy::IfNotFull => {
                if self.fifo.is_full(now) {
                    self.forward.dropped += 1;
                    self.emit(TraceEvent::Drop { cycle: now, class: pkt.class, overflow: false });
                    return Ok(());
                }
                self.record_forward(pkt);
                let (start, _) = self.process_on_fabric(pkt, now);
                self.fifo.push(now, start);
                self.emit_enqueue(now, start);
            }
            ForwardPolicy::Always => {
                let enq = if self.fifo.is_full(now) {
                    match self.config.overflow_policy {
                        OverflowPolicy::Stall => {
                            // Commit stalls until the oldest entry is
                            // dequeued — unless that slot frees so far
                            // in the future (a wedged fabric) that the
                            // system has effectively deadlocked.
                            let free_at = self.fifo.empty_slot_at(now);
                            if free_at.saturating_sub(now) > WATCHDOG_CYCLES {
                                return Err(SimError::Deadlock(self.deadlock_snapshot(now)));
                            }
                            self.core.stall_until(free_at);
                            self.emit(TraceEvent::CommitStall { cycle: now, until: free_at });
                            free_at
                        }
                        OverflowPolicy::DropWithAccounting => {
                            self.forward.dropped += 1;
                            self.resilience.dropped_overflow += 1;
                            self.emit(TraceEvent::Drop {
                                cycle: now,
                                class: pkt.class,
                                overflow: true,
                            });
                            return Ok(());
                        }
                    }
                } else {
                    now
                };
                self.record_forward(pkt);
                let (start, _) = self.process_on_fabric(pkt, enq);
                self.fifo.push(enq, start);
                self.emit_enqueue(enq, start);
            }
            ForwardPolicy::WaitForAck => {
                self.record_forward(pkt);
                let (start, ret) = self.process_on_fabric(pkt, now);
                let ack = self.fabric_free_at.max(start);
                self.core.stall_until(ack);
                self.emit(TraceEvent::CommitStall { cycle: now, until: ack });
                if let (Some(v), Some(rd)) = (ret, pkt.dest) {
                    // BFIFO return value lands in the destination
                    // register.
                    self.core.set_reg(rd, v);
                    // The golden model has no fabric; mirror the BFIFO
                    // write so it stays in sync.
                    if let Some(checker) = &mut self.lockstep {
                        checker.adopt_reg(rd, v);
                    }
                }
                // Waiting for the acknowledgment makes the exception
                // precise: deliver before the next instruction.
                if self.config.precise_exceptions {
                    if let Some((_, at_violation)) = self.pending_trap {
                        self.pending_trap = Some((0, at_violation));
                    }
                }
            }
        }
        Ok(())
    }

    fn record_forward(&mut self, pkt: &TracePacket) {
        self.forward.forwarded += 1;
        self.forward.per_class[pkt.class.index()] += 1;
        if S::ENABLED {
            self.sink.event(TraceEvent::Forward { cycle: pkt.commit_cycle, class: pkt.class });
            self.sink.forward_packet(pkt);
        }
    }

    /// Samples FIFO occupancy right after a push — [`ForwardFifo`]
    /// updates its peak from the same post-push count, so the running
    /// max of these samples equals [`ForwardStats::peak_occupancy`].
    #[inline]
    fn emit_enqueue(&mut self, cycle: u64, dequeue_at: u64) {
        if S::ENABLED {
            let occupancy = self.fifo.resident() as u64;
            self.sink.event(TraceEvent::FifoEnqueue { cycle, dequeue_at, occupancy });
        }
    }

    /// Runs until the program exits, a monitor trap is delivered, or
    /// `max_instructions` commit — or until the simulation itself
    /// fails: a forward-progress watchdog detects deadlock (no commit
    /// possible within 1,000,000 core cycles, or the fabric can never
    /// drain), the configured cycle budget is exceeded, or the
    /// lockstep golden model diverges.
    pub fn try_run(&mut self, max_instructions: u64) -> Result<RunResult, SimError> {
        match self.run_internal(max_instructions, None)? {
            RunOutcome::Done(result) => Ok(result),
            RunOutcome::Paused { .. } => unreachable!("no pause point was requested"),
        }
    }

    /// Like [`System::try_run`], but additionally pauses (returning
    /// [`RunOutcome::Paused`]) once at least `pause_at` instructions
    /// have committed — the hook checkpointing harnesses use to call
    /// [`System::snapshot`] at a deterministic commit boundary and
    /// resume with another `try_run_until`/`try_run` call.
    ///
    /// The pause lands exactly at a commit boundary, so the sequence
    /// pause → [`snapshot`](System::snapshot) →
    /// [`restore`](System::restore) (into a fresh, identically built
    /// system) → continue reproduces the uninterrupted run bit for bit.
    pub fn try_run_until(
        &mut self,
        max_instructions: u64,
        pause_at: u64,
    ) -> Result<RunOutcome, SimError> {
        self.run_internal(max_instructions, Some(pause_at))
    }

    /// Wraps the run loop with host wall-clock accounting: every
    /// segment's elapsed time accumulates into `host_ns`, which
    /// [`RunResult::summary`] turns into simulated-insns/sec and
    /// simulated-cycles/sec. Two clock reads per `try_run` segment —
    /// unconditional, profiler or not.
    fn run_internal(
        &mut self,
        max_instructions: u64,
        pause_at: Option<u64>,
    ) -> Result<RunOutcome, SimError> {
        let started = std::time::Instant::now();
        let mut out = self.run_loop(max_instructions, pause_at);
        self.host_ns = self.host_ns.saturating_add(started.elapsed().as_nanos() as u64);
        if let Ok(RunOutcome::Done(result)) = &mut out {
            // `finalize` ran before this segment's clock stopped.
            result.host_ns = self.host_ns;
        }
        out
    }

    fn run_loop(
        &mut self,
        max_instructions: u64,
        pause_at: Option<u64>,
    ) -> Result<RunOutcome, SimError> {
        let mut last_commit_cycle = self.core.cycle();
        // The commit-stage packet buffer: `step_into` overwrites it on
        // every commit and the forward path reads it by reference. It
        // lives here, not in `self`, so that borrowing it alongside
        // `&mut self` needs no copy.
        let mut pkt = TracePacket::EMPTY;
        loop {
            let cycle = self.core.cycle();
            // Hot-swap hook: fires at the scheduled commit boundary,
            // before the pause check so a snapshot taken at the same
            // boundary observes the swap as already completed (the
            // restore realignment relies on this ordering). Skipped
            // while a trap is in flight (the run is about to halt) and
            // in degraded mode (monitoring is bypassed; degraded mode
            // is one-way).
            if self.swaps.get(self.fired).is_some_and(|s| s.at_commit <= self.forward.committed)
                && self.degraded_entry.is_none()
                && !self.trap_pending()
            {
                self.execute_swap()?;
                // The swap window's stall is not a lack of forward
                // progress; restart the watchdog.
                last_commit_cycle = self.core.cycle();
                continue;
            }
            if let Some(pause) = pause_at {
                let instret = self.core.stats().instret;
                if instret >= pause {
                    return Ok(RunOutcome::Paused { instret, cycle });
                }
            }
            if let Some(budget) = self.config.cycle_budget {
                if cycle > budget {
                    return Err(SimError::CycleBudgetExceeded {
                        budget,
                        cycle,
                        instret: self.core.stats().instret,
                    });
                }
            }
            if cycle.saturating_sub(last_commit_cycle) > WATCHDOG_CYCLES {
                let snap = self.deadlock_snapshot(cycle);
                return Err(SimError::Deadlock(snap));
            }
            if let (Some((assert_at, _)), Some(trap)) = (self.pending_trap, &self.monitor_trap) {
                if cycle >= assert_at {
                    let pc = trap.pc;
                    self.core.halt(ExitReason::MonitorTrap { pc });
                }
            }
            if self.core.stats().instret >= max_instructions {
                self.core.halt(ExitReason::InstructionLimit);
            }
            match self.core.step_into(&mut self.mem, &mut self.bus, &mut pkt) {
                Stepped::Committed => {
                    last_commit_cycle = self.core.cycle();
                    self.on_commit(&mut pkt)?;
                }
                Stepped::Annulled => {}
                Stepped::Exited(exit) => {
                    let cycle = self.core.cycle();
                    if self.fabric_stuck && self.fifo.occupancy(cycle) > 0 {
                        // The core waits for EMPTY before completing;
                        // a wedged fabric never drains the FIFO, so
                        // the program can never actually finish.
                        let snap = self.deadlock_snapshot(cycle);
                        return Err(SimError::Deadlock(snap));
                    }
                    return Ok(RunOutcome::Done(self.finalize(exit)));
                }
            }
        }
    }

    /// Deserializes and validates a fabric configuration bitstream,
    /// modeling the paper's reconfiguration step, with bounded
    /// retry-with-reload on validation failures.
    ///
    /// Each transfer attempt passes through the armed fault injector
    /// (if any), which may corrupt bytes in flight; a corrupted stream
    /// fails its Fletcher-32 checksum and is re-transferred from the
    /// pristine source, up to [`BITSTREAM_RETRY_LIMIT`] retries. Retry
    /// and reload counts land in [`ResilienceStats`].
    pub fn load_bitstream(&mut self, bytes: &[u8]) -> Result<LutMapping, SimError> {
        let mut last_error = String::new();
        for attempt in 0..=BITSTREAM_RETRY_LIMIT {
            let decoded = match &mut self.faults {
                // The injector corrupts a copy; `bytes` stays the
                // pristine source every retry reloads from.
                Some(inj) => {
                    let mut copy = bytes.to_vec();
                    inj.corrupt_bitstream(&mut copy);
                    flexcore_fabric::from_bitstream(&copy)
                }
                None => flexcore_fabric::from_bitstream(bytes),
            };
            match decoded {
                Ok(mapping) => {
                    self.resilience.bitstream_reloads += 1;
                    return Ok(mapping);
                }
                Err(e) => {
                    last_error = e.to_string();
                    if attempt < BITSTREAM_RETRY_LIMIT {
                        self.resilience.bitstream_retries += 1;
                        self.emit(TraceEvent::BitstreamRetry { attempt });
                    }
                }
            }
        }
        Err(SimError::UnrecoverableCorruption {
            context: "fabric bitstream",
            attempts: BITSTREAM_RETRY_LIMIT + 1,
            detail: last_error,
        })
    }

    /// Schedules a mid-run bitstream hot-swap: at the given commit
    /// boundary the system quiesces, drains every in-flight packet,
    /// programs the request's bitstream through
    /// [`System::load_bitstream`] (with its bounded retry-with-reload),
    /// shifting it in one configuration frame per fabric cycle, and rearms
    /// with the incoming extension per its [`SwapPolicy`]. See
    /// [`crate::reconfig`] for the lifecycle contract.
    ///
    /// Multiple swaps may be scheduled; they fire in boundary order
    /// (ties fire in scheduling order). A new swap is placed among the
    /// ones that have not fired yet. Like the fault plan, the schedule
    /// is construction-time configuration: a harness restoring a
    /// [`Snapshot`] into a fresh system must re-schedule the same swaps.
    pub fn schedule_swap(&mut self, req: SwapRequest<E>) {
        let at = req.at_commit;
        let idx = self.fired + self.swaps[self.fired..].partition_point(|s| s.at_commit <= at);
        let pristine = req.ext.snapshot_state();
        let slot = SwapSlot {
            at_commit: at,
            bitstream: req.bitstream,
            policy: req.policy,
            pristine,
            ext: req.ext,
        };
        self.swaps.insert(idx, slot);
    }

    /// Completed hot-swaps, oldest first (rewound swaps are dropped by
    /// [`System::restore`]).
    pub fn swap_reports(&self) -> &[SwapReport] {
        &self.swap_reports
    }

    /// `true` while at least one scheduled swap has not yet fired.
    pub fn swap_pending(&self) -> bool {
        self.fired < self.swaps.len()
    }

    /// The quiesce → drain → swap → rearm sequence of the next unfired
    /// swap, at a commit boundary. A fabric that can never drain is a
    /// [`SimError::Deadlock`], and an unprogrammable bitstream (retry
    /// budget exhausted) a [`SimError::UnrecoverableCorruption`]; both
    /// leave the swap pending, so a recovery-ladder replay re-executes
    /// the whole window deterministically.
    fn execute_swap(&mut self) -> Result<(), SimError> {
        let cycle = self.core.cycle();
        let committed = self.forward.committed;
        self.emit(TraceEvent::SwapBegin { cycle, instret: committed });
        // Quiesce + drain: the commit stage stalls (exactly as under
        // FIFO back-pressure) until every in-flight packet has been
        // fully processed by the *outgoing* extension — packets are
        // drained, never dropped.
        let drained = self.fifo.occupancy(cycle) as u64;
        let drain_done = self.fifo.empty_at(cycle).max(self.fabric_free_at).max(cycle);
        if drain_done.saturating_sub(cycle) > WATCHDOG_CYCLES {
            // A wedged fabric can never drain; surface the window as a
            // deadlock so the recovery ladder can restore and retry.
            return Err(SimError::Deadlock(self.deadlock_snapshot(cycle)));
        }
        // The outgoing extension's dirty meta-data is written back so
        // the incoming extension starts from a consistent memory image.
        self.meta.flush(&mut self.mem);
        let retries0 = self.resilience.bitstream_retries;
        // The transfer models the fault-prone link: each attempt passes
        // through the injector and may be corrupted in flight. The
        // bytes leave the slot only for the transfer; a failed swap
        // stays pending with its bitstream in place.
        let bitstream = std::mem::take(&mut self.swaps[self.fired].bitstream);
        let loaded = self.load_bitstream(&bitstream);
        // Timing: one fabric cycle per configuration frame shifted in,
        // with every failed transfer attempt re-shifting the whole
        // stream (retry-with-backoff), on top of the drain.
        let frames = bitstream.len().div_ceil(FRAME_BYTES) as u64;
        self.swaps[self.fired].bitstream = bitstream;
        loaded?;
        let retries = self.resilience.bitstream_retries - retries0;
        let shift = frames * self.grid * (1 + retries);
        let reconfig_done = self.align_up(drain_done.saturating_add(shift));
        self.core.stall_until(reconfig_done);
        self.fabric_free_at = reconfig_done;
        // Rearm: the incoming extension goes live with state per the
        // swap policy, and the slot keeps the outgoing one.
        let slot = &mut self.swaps[self.fired];
        if slot.policy == SwapPolicy::Carry && slot.ext.name() == self.ext.name() {
            // A bitstream refresh: transplant the outgoing monitor state
            // into the incoming instance.
            slot.ext.restore_state(&self.ext.snapshot_state());
        } else {
            // `Reset`, or a carry across kinds: state words are not
            // portable across extensions.
            slot.ext.restore_state(&slot.pristine);
        }
        std::mem::swap(&mut self.ext, &mut slot.ext);
        let (from, to, policy, at_commit) =
            (slot.ext.name(), self.ext.name(), slot.policy, slot.at_commit);
        self.fired += 1;
        self.cfgr = self.ext.cfgr();
        self.resilience.swaps_completed += 1;
        self.resilience.swap_drained_packets += drained;
        self.resilience.swap_stall_cycles += reconfig_done.saturating_sub(cycle);
        self.emit(TraceEvent::SwapComplete { cycle: reconfig_done, drained });
        self.swap_reports.push(SwapReport {
            at_commit,
            from,
            to,
            policy,
            quiesce_cycle: cycle,
            rearmed_cycle: reconfig_done,
            drained_packets: drained,
            retries,
            frames,
        });
        Ok(())
    }

    /// Captures the complete checkpointable state of the system (see
    /// [`crate::checkpoint`] for the restore contract). Meaningful at
    /// any commit boundary — in practice right after
    /// [`System::try_run_until`] returns
    /// [`RunOutcome::Paused`](crate::RunOutcome::Paused).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            format: SNAPSHOT_FORMAT,
            ext_name: self.ext.name().to_string(),
            fifo_depth: self.fifo.depth() as u64,
            core: self.core.snapshot(),
            mem_pages: checkpoint::mem_delta(self.baseline_mem.as_ref(), &self.mem),
            meta: self.meta.snapshot(),
            bus_busy_until: self.bus.busy_until(),
            bus_stats: self.bus.stats(),
            shadow: flexcore_isa::Reg::all().map(|r| self.shadow.tag(r)).collect(),
            ext_state: self.ext.snapshot_state(),
            fifo: self.fifo.snapshot(),
            fabric_free_at: self.fabric_free_at,
            forward: self.forward,
            monitor_trap: self.monitor_trap.clone(),
            pending_trap: self.pending_trap,
            faults: self.faults.as_ref().map(FaultInjector::snapshot),
            resilience: self.resilience,
            fabric_stuck: self.fabric_stuck,
        }
    }

    /// Restores a [`Snapshot`] taken from an identically built system:
    /// same [`SystemConfig`], same extension, same
    /// [`load_program`](System::load_program) call, the same scheduled
    /// swaps, and the same re-armed fault plan (if one was armed). After
    /// a successful restore, continuing the run reproduces the
    /// uninterrupted run's [`RunResult`] bit for bit. Scheduled swaps
    /// are realigned to the snapshot's commit count: swaps past it are
    /// rewound (their reports dropped) and swaps at or before it are
    /// fast-forwarded. Lockstep checking, if enabled, is re-synchronized
    /// to the restored state; trace-sink state is not part of the
    /// snapshot and restarts empty.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`] when the snapshot does not match this
    /// system's construction (format version, the extension live at the
    /// snapshot's commit count, FIFO depth, fault-plan shape). Every
    /// check runs before anything changes, so a rejected snapshot
    /// leaves the system unmodified, its swap schedule included.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), RestoreError> {
        if snap.format != SNAPSHOT_FORMAT {
            return Err(RestoreError::new(format!(
                "unsupported snapshot format {} (this build reads {SNAPSHOT_FORMAT})",
                snap.format
            )));
        }
        // The swap hook runs before the pause hook, so a swap at
        // boundary `c` has fired in every snapshot with `committed >= c`:
        // the snapshot names the extension live once the first `k`
        // swaps have fired. An unfired slot holds its incoming
        // extension and a fired one its outgoing extension, so that one
        // is found without moving any.
        let committed = snap.forward.committed;
        let k = self.swaps.iter().filter(|s| s.at_commit <= committed).count();
        let live = match k.cmp(&self.fired) {
            Ordering::Equal => self.ext.name(),
            Ordering::Greater => self.swaps[k - 1].ext.name(),
            Ordering::Less => self.swaps[k].ext.name(),
        };
        if snap.ext_name != live {
            return Err(RestoreError::new(format!(
                "snapshot was taken with extension `{}`, this system runs `{live}`",
                snap.ext_name
            )));
        }
        if snap.fifo_depth != self.fifo.depth() as u64 {
            return Err(RestoreError::new(format!(
                "snapshot FIFO depth {} != configured depth {}",
                snap.fifo_depth,
                self.fifo.depth()
            )));
        }
        if snap.shadow.len() != flexcore_isa::NUM_REGS {
            return Err(RestoreError::new(format!(
                "snapshot has {} shadow tags, expected {}",
                snap.shadow.len(),
                flexcore_isa::NUM_REGS
            )));
        }
        match (&snap.faults, &mut self.faults) {
            (Some(fs), Some(inj)) => inj.restore(fs).map_err(RestoreError::new)?,
            (None, None) => {}
            (Some(_), None) => {
                return Err(RestoreError::new(
                    "snapshot carries fault-injector state but no plan is armed \
                     (re-arm the original FaultPlan before restoring)",
                ))
            }
            (None, Some(_)) => {
                return Err(RestoreError::new(
                    "a fault plan is armed but the snapshot carries no injector state",
                ))
            }
        }
        self.realign_swaps(k, committed);
        // Entries still in flight toward the fabric are discarded by
        // the rollback without ever being processed; account for them
        // before the FIFO state is replaced. The accumulator survives
        // the restore by design.
        self.fifo_drained_on_restore += self.fifo.occupancy(self.core.cycle()) as u64;
        let mut mem = self.baseline_mem.clone().unwrap_or_default();
        checkpoint::apply_delta(&mut mem, &snap.mem_pages);
        self.mem = mem;
        self.core.restore(&snap.core);
        self.meta.restore(&snap.meta);
        self.bus.restore(snap.bus_busy_until, snap.bus_stats);
        for (r, &tag) in flexcore_isa::Reg::all().zip(&snap.shadow) {
            self.shadow.set_tag(r, tag);
        }
        self.ext.restore_state(&snap.ext_state);
        self.fifo.restore(&snap.fifo);
        self.fabric_free_at = snap.fabric_free_at;
        self.forward = snap.forward;
        self.monitor_trap = snap.monitor_trap.clone();
        self.pending_trap = snap.pending_trap;
        self.resilience = snap.resilience;
        self.fabric_stuck = snap.fabric_stuck;
        if self.lockstep.is_some() {
            // Re-seed the golden model from the restored state.
            self.enable_lockstep();
        }
        Ok(())
    }

    /// Puts the swap schedule in the state it had at `committed`
    /// instructions, where the first `k` swaps had fired: fired swaps
    /// past that boundary are rewound newest first (the outgoing
    /// extension comes back and the report is dropped), and unfired
    /// swaps at or before it are fast-forwarded oldest first (the
    /// restored timeline already executed them; their timing effects
    /// live in the restored core/FIFO state). A replay that crosses a
    /// rewound boundary re-executes the full swap window
    /// deterministically: [`SwapPolicy::Reset`] restores the pristine
    /// state captured at scheduling time, and [`SwapPolicy::Carry`]
    /// re-derives its carry from the (deterministically replayed)
    /// outgoing extension.
    fn realign_swaps(&mut self, k: usize, committed: u64) {
        for i in (k..self.fired).rev() {
            std::mem::swap(&mut self.ext, &mut self.swaps[i].ext);
        }
        for i in self.fired..k {
            std::mem::swap(&mut self.ext, &mut self.swaps[i].ext);
        }
        self.fired = k;
        self.cfgr = self.ext.cfgr();
        self.swap_reports.retain(|r| r.at_commit <= committed);
    }

    /// Turns on lockstep golden-model checking from the core's current
    /// state: an ISA-level functional reference
    /// ([`crate::lockstep::LockstepChecker`]) steps commit-for-commit
    /// with the pipeline and any architectural disagreement makes the
    /// run return [`SimError::Divergence`] with a minimized
    /// [`DivergenceReport`](crate::lockstep::DivergenceReport). Call after
    /// [`load_program`](System::load_program) (or at any commit
    /// boundary).
    pub fn enable_lockstep(&mut self) {
        self.lockstep =
            Some(LockstepChecker::new(&self.core, &self.mem, LockstepChecker::DEFAULT_WINDOW));
    }

    /// The lockstep checker, when enabled (e.g. to read
    /// [`commits_checked`](LockstepChecker::commits_checked)).
    pub fn lockstep(&self) -> Option<&LockstepChecker> {
        self.lockstep.as_ref()
    }

    /// Disarms the fault plan, if one is armed, for good: polls decide
    /// nothing and draw nothing from then on. The recovery supervisor
    /// disarms before every replay so the restored run re-executes
    /// fault-free (see [`FaultInjector::disarm`]).
    pub fn disarm_faults(&mut self) {
        if let Some(inj) = &mut self.faults {
            inj.disarm();
        }
    }

    /// Whether a monitor trap has been raised or is in flight — at a
    /// pause boundary this means the "clean" state already carries a
    /// detected error, so it is not a safe restore point.
    pub fn trap_pending(&self) -> bool {
        self.monitor_trap.is_some() || self.pending_trap.is_some()
    }

    /// Enters degraded mode: from the next commit on, nothing is
    /// forwarded and the extension is never called again — commits are
    /// counted in [`ResilienceStats::unmonitored_commits`] and
    /// would-have-been forwards in
    /// [`ResilienceStats::suppressed_checks`]. The extension is not
    /// told; it simply sees no more packets.
    ///
    /// Rung 3 of the recovery supervisor's escalation ladder; degraded
    /// mode is one-way (the supervisor never restores past it).
    pub fn enter_degraded(&mut self) {
        if self.degraded_entry.is_some() {
            return;
        }
        let cycle = self.core.cycle();
        self.degraded_entry = Some((cycle, self.forward.committed));
        self.emit(TraceEvent::DegradedEnter { cycle });
    }

    /// Whether the system is running with monitoring bypassed.
    pub fn degraded(&self) -> bool {
        self.degraded_entry.is_some()
    }

    /// `(cycle, committed)` at degraded-mode entry, if it happened.
    pub fn degraded_entry(&self) -> Option<(u64, u64)> {
        self.degraded_entry
    }

    /// FIFO entries discarded in flight across every
    /// [`System::restore`] so far.
    pub fn fifo_drained_on_restore(&self) -> u64 {
        self.fifo_drained_on_restore
    }

    /// Emits a [`TraceEvent::Recovery`] instant at the current (just
    /// restored) cycle. Called by the supervisor after each successful
    /// rung so the Perfetto timeline shows where execution rewound to.
    pub fn note_recovery(&mut self, rung: u32) {
        let cycle = self.core.cycle();
        self.emit(TraceEvent::Recovery { cycle, rung });
    }

    /// Clears the trace sink's frozen trap context (see
    /// [`TraceSink::rearm_flight`]) — a rolled-back trap's flight
    /// snapshot describes a discarded timeline.
    pub fn rearm_flight(&mut self) {
        if S::ENABLED {
            self.sink.rearm_flight();
        }
    }

    fn finalize(&mut self, exit: ExitReason) -> RunResult {
        // The core waits for the co-processor to drain (EMPTY) before
        // completing — and for its own store buffer. A trap still in
        // flight in the fabric is therefore always delivered, even if
        // the program reached its own exit first.
        let exit = match (&self.pending_trap, &self.monitor_trap, exit) {
            (Some(_), Some(trap), ExitReason::Halt(_)) => ExitReason::MonitorTrap { pc: trap.pc },
            (_, _, e) => e,
        };
        let done = self
            .core
            .quiesced_at()
            .max(self.fifo.empty_at(self.core.cycle()))
            .max(self.fabric_free_at.max(self.core.cycle()));
        self.forward.fifo_stall_cycles = self.core.stats().external_stall_cycles;
        self.forward.peak_occupancy = self.fifo.peak_occupancy() as u64;
        let trap_skid = self
            .pending_trap
            .map(|(_, at_violation)| self.forward.committed.saturating_sub(at_violation));
        RunResult {
            exit,
            trap_skid,
            monitor_trap: self.monitor_trap.clone(),
            cycles: done,
            instret: self.core.stats().instret,
            forward: self.forward,
            core: *self.core.stats(),
            icache: self.core.icache_stats(),
            dcache: self.core.dcache_stats(),
            meta_cache: self.meta.stats(),
            bus: self.bus.stats(),
            resilience: self.resilience,
            console: self.core.console().to_vec(),
            flight: self.sink.flight_log(),
            host_ns: self.host_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elide::{ElisionTable, ELIDE_CFI, ELIDE_DIFT, ELIDE_UMC};
    use crate::ext::Umc;
    use flexcore_asm::assemble;

    fn loads_program() -> Program {
        assemble(
            "start: mov 100, %o0
                    set buf, %o2
            loop:   ld [%o2], %o1
                    subcc %o0, 1, %o0
                    bne loop
                    nop
                    ta 0
                    .align 4
            buf:    .word 7",
        )
        .unwrap()
    }

    fn umc_system(program: &Program, table: Option<ElisionTable>) -> System<Umc> {
        let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
        sys.load_program(program);
        if let Some(t) = table {
            sys.set_elision(t);
        }
        sys
    }

    #[test]
    fn elision_masks_cover_only_the_text() {
        let program = loads_program();
        let base = program.base();
        let load_pc = program.symbol("loop").unwrap();
        let all = ELIDE_UMC | ELIDE_DIFT | ELIDE_CFI;
        // Entries a hand-edited `--elide` file could carry: the top of
        // the address space, an unaligned PC in the text, and a PC
        // below it. Sized from the table, the mask would span 4 GB.
        let mut bogus = ElisionTable::new();
        bogus.set(0xffff_fffc, all);
        bogus.set(load_pc + 2, all);
        bogus.set(base.wrapping_sub(4), all);

        let mut sys = umc_system(&program, Some(bogus.clone()));
        assert_eq!(sys.elision_masks.len(), program.len().div_ceil(4));
        assert!(sys.elision_masks.iter().all(|&m| m == 0));
        for pc in [0xffff_fffc, load_pc + 2, base.wrapping_sub(4)] {
            assert_eq!(sys.elision_mask(pc), 0, "pc {pc:#x}");
        }
        let elided = sys.try_run(1_000_000).unwrap();
        assert_eq!(elided.resilience.elided_checks, 0);
        let full = umc_system(&program, None).try_run(1_000_000).unwrap();
        assert_eq!(elided, full);

        // The same entries next to a real one: only the real one counts,
        // whether the table is installed before or after the load.
        let mut table = bogus;
        table.set(load_pc, ELIDE_UMC);
        let sys = umc_system(&program, Some(table.clone()));
        assert_eq!(sys.elision_mask(load_pc), ELIDE_UMC);
        let mut late = System::new(SystemConfig::fabric_half_speed(), Umc::new());
        late.set_elision(table);
        assert!(late.elision_masks.is_empty(), "no text loaded yet");
        late.load_program(&program);
        assert_eq!(late.elision_masks, sys.elision_masks);
        let r = late.try_run(1_000_000).unwrap();
        assert_eq!(r.resilience.elided_checks, 100);
        assert_eq!(r.exit, ExitReason::Halt(0));
    }
}
