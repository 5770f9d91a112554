//! `monitor-sweep`: the six Table IV kernels, each run bare, under UMC,
//! DIFT, BC and SEC at the paper clocks, under CFI, and under the three
//! `+elide` legs. Nearly all host time lands in fetch, decode, execute,
//! the L1 model, the FIFO, `Extension::process` and the meta-data cache.

use flexcore::ext::{Bc, Cfi, CfiTable, Dift, Sec, Umc};
use flexcore::{ElisionTable, Extension, RunOutcome, RunResult, System, SystemConfig};
use flexcore_asm::Program;
use flexcore_bench::elide::build_elision_table;
use flexcore_bench::swap::cfi_table_for;
use flexcore_bench::{paper_config, ExtKind, MAX_INSTRUCTIONS};
use flexcore_mem::{CacheStats, MainMemory, SystemBus};
use flexcore_pipeline::{Core, CoreConfig, ExitReason, StepResult};
use flexcore_workloads::Workload;

use crate::probes::Own;
use crate::table4_cells;
use crate::util::{
    closed_loop, geomean, lanes, median_u64, metric, report, setup_secs, timed, Digest, EndToEnd,
    Gate, Metric, Report, Tracer,
};

/// Operations between two repeats of the set-up (see
/// [`crate::util::setup_secs`]).
const SETUP_EVERY: usize = 6;

/// Instructions per timed segment of a leg. Host time is taken segment
/// by segment and each segment reports its median over the repeats: a
/// stall on a shared host lands in one repeat of one millisecond-long
/// slice, where a whole leg would carry every stall of its run.
pub const SEGMENT: u64 = 10_000;

/// One assembled kernel with its statically derived tables.
#[derive(Clone)]
pub struct Kernel {
    pub workload: Workload,
    pub program: Program,
    pub cfi: CfiTable,
    pub elide: ElisionTable,
}

impl Kernel {
    /// Assembles `workload` and derives its CFI and elision tables.
    pub fn new(workload: Workload) -> Kernel {
        let program = workload.program().expect("kernels assemble");
        let cfi = cfi_table_for(&program);
        let (elide, _) = build_elision_table(&program);
        Kernel { workload, program, cfi, elide }
    }
}

/// The sweep's set-up: every Table IV kernel with its tables.
pub fn kernels() -> Vec<Kernel> {
    Workload::all().into_iter().map(Kernel::new).collect()
}

/// What monitors a leg.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mon {
    Bare,
    Paper(ExtKind),
    Cfi,
}

impl Mon {
    pub fn name(self) -> &'static str {
        match self {
            Mon::Bare => "bare",
            Mon::Paper(ExtKind::Umc) => "umc",
            Mon::Paper(ExtKind::Dift) => "dift",
            Mon::Paper(ExtKind::Bc) => "bc",
            Mon::Paper(ExtKind::Sec) => "sec",
            Mon::Cfi => "cfi",
        }
    }
}

/// The extensions the per-extension counters are reported for.
pub const MONITORS: [Mon; 5] = [
    Mon::Paper(ExtKind::Umc),
    Mon::Paper(ExtKind::Dift),
    Mon::Paper(ExtKind::Bc),
    Mon::Paper(ExtKind::Sec),
    Mon::Cfi,
];

/// The extensions a static elision table can discharge checks for.
pub const ELIDABLE: [Mon; 3] = [Mon::Paper(ExtKind::Umc), Mon::Paper(ExtKind::Dift), Mon::Cfi];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Leg {
    pub kernel: usize,
    pub mon: Mon,
    pub elide: bool,
}

impl Leg {
    pub fn label(&self, kernels: &[Kernel]) -> String {
        let elide = if self.elide { "+elide" } else { "" };
        format!("{} {}{elide}", kernels[self.kernel].workload.name(), self.mon.name())
    }

    /// The span each timed slice of the leg is recorded under: the bare
    /// core's `step` loop, or the monitored system's `try_run_until`.
    pub fn span(&self) -> &'static str {
        match (self.mon, self.elide) {
            (Mon::Bare, _) => "pipeline.core.step",
            (Mon::Paper(ExtKind::Umc), false) => "flexcore.system.try_run_until.umc",
            (Mon::Paper(ExtKind::Umc), true) => "flexcore.system.try_run_until.umc+elide",
            (Mon::Paper(ExtKind::Dift), false) => "flexcore.system.try_run_until.dift",
            (Mon::Paper(ExtKind::Dift), true) => "flexcore.system.try_run_until.dift+elide",
            (Mon::Paper(ExtKind::Bc), _) => "flexcore.system.try_run_until.bc",
            (Mon::Paper(ExtKind::Sec), _) => "flexcore.system.try_run_until.sec",
            (Mon::Cfi, false) => "flexcore.system.try_run_until.cfi",
            (Mon::Cfi, true) => "flexcore.system.try_run_until.cfi+elide",
        }
    }
}

/// Every leg of one pass, in canonical order: per kernel, bare, the
/// four paper extensions, CFI, then the three `+elide` legs.
pub fn legs(kernels: &[Kernel]) -> Vec<Leg> {
    let mut out = Vec::new();
    for kernel in 0..kernels.len() {
        out.push(Leg { kernel, mon: Mon::Bare, elide: false });
        for mon in MONITORS {
            out.push(Leg { kernel, mon, elide: false });
        }
        for mon in ELIDABLE {
            out.push(Leg { kernel, mon, elide: true });
        }
    }
    out
}

/// The simulated outcome of one leg (host time aside).
#[derive(Clone, Debug, PartialEq)]
pub struct LegResult {
    pub exit: ExitReason,
    pub cycles: u64,
    pub instret: u64,
    pub console: Vec<u8>,
    /// The full monitored result (`host_ns` zeroed); `None` on bare legs.
    pub run: Option<RunResult>,
    /// Bare legs: the core's L1 statistics.
    pub l1: Option<(CacheStats, CacheStats)>,
}

impl LegResult {
    pub fn trapped(&self) -> bool {
        self.run.as_ref().is_some_and(|r| r.monitor_trap.is_some())
    }
}

fn run_system<E: Extension>(
    k: &Kernel,
    leg: Leg,
    ext: E,
    max: u64,
    tr: &mut Tracer,
) -> Result<(LegResult, Vec<u64>), String> {
    let mut sys = System::new(leg_config(leg.mon), ext);
    sys.load_program(&k.program);
    if leg.elide {
        sys.set_elision(k.elide.clone());
    }
    let mut seg_ns = Vec::new();
    let mut pause = SEGMENT;
    let mut r = loop {
        let (out, ns) = timed(|| tr.span(leg.span(), || sys.try_run_until(max, pause)));
        seg_ns.push(ns);
        match out.map_err(|e| e.to_string())? {
            RunOutcome::Paused { .. } => pause += SEGMENT,
            RunOutcome::Done(r) => break r,
        }
    };
    r.host_ns = 0;
    let leg = LegResult {
        exit: r.exit,
        cycles: r.cycles,
        instret: r.instret,
        console: r.console.clone(),
        run: Some(r),
        l1: None,
    };
    Ok((leg, seg_ns))
}

/// The configuration a monitored leg runs at: the paper clocks (§V.C)
/// for the Table IV extensions, half speed for CFI.
pub fn leg_config(mon: Mon) -> SystemConfig {
    match mon {
        Mon::Paper(ext) => paper_config(ext),
        Mon::Bare | Mon::Cfi => SystemConfig::fabric_half_speed(),
    }
}

/// Runs one leg for at most `max` instructions, in [`SEGMENT`]-sized
/// slices (`System::try_run_until` pauses, which leave the result
/// bit-identical; the bare core is stepped, `Core::run` having no pause
/// point). Returns the outcome and the host nanoseconds of each slice.
pub fn run_leg(
    kernels: &[Kernel],
    leg: Leg,
    max: u64,
    tr: &mut Tracer,
) -> Result<(LegResult, Vec<u64>), String> {
    let k = &kernels[leg.kernel];
    match leg.mon {
        Mon::Bare => {
            let mut mem = MainMemory::new();
            let mut bus = SystemBus::default();
            let mut core = Core::new(CoreConfig::leon3());
            core.load_program(&k.program, &mut mem);
            let mut seg_ns = Vec::new();
            let exit = loop {
                let (exit, ns) = timed(|| {
                    tr.span(leg.span(), || {
                        for _ in 0..SEGMENT {
                            if core.stats().instret >= max {
                                return Some(ExitReason::InstructionLimit);
                            }
                            if let StepResult::Exited(e) = core.step(&mut mem, &mut bus) {
                                return Some(e);
                            }
                        }
                        None
                    })
                });
                seg_ns.push(ns);
                if let Some(e) = exit {
                    break e;
                }
            };
            let leg = LegResult {
                exit,
                cycles: core.quiesced_at(),
                instret: core.stats().instret,
                console: core.console().to_vec(),
                run: None,
                l1: Some((core.icache_stats(), core.dcache_stats())),
            };
            Ok((leg, seg_ns))
        }
        Mon::Paper(ExtKind::Umc) => run_system(k, leg, Umc::new(), max, tr),
        Mon::Paper(ExtKind::Dift) => run_system(k, leg, Dift::new(), max, tr),
        Mon::Paper(ExtKind::Bc) => run_system(k, leg, Bc::new(), max, tr),
        Mon::Paper(ExtKind::Sec) => run_system(k, leg, Sec::new(), max, tr),
        Mon::Cfi => run_system(k, leg, Cfi::new(k.cfi.clone()), max, tr),
    }
}

/// Host times of one leg over its repeats, slice by slice.
#[derive(Clone, Default)]
pub struct LegClock {
    /// Per slice, its time in every repeat.
    segs: Vec<Vec<u64>>,
    /// The construction-and-load overhead around the slices, per repeat.
    extra: Vec<u64>,
}

impl LegClock {
    fn fold(&mut self, seg_ns: &[u64], op_ns: u64) {
        self.extra.push(op_ns.saturating_sub(seg_ns.iter().sum()));
        self.segs.resize(seg_ns.len(), Vec::new());
        for (samples, &ns) in self.segs.iter_mut().zip(seg_ns) {
            samples.push(ns);
        }
    }

    fn ran(&self) -> bool {
        !self.extra.is_empty()
    }

    /// The leg's `run`/`try_run` time, each slice at its median.
    pub fn run_ns(&self) -> f64 {
        self.segs.iter().map(|s| median_u64(s)).sum()
    }

    /// The whole leg (construction, load, run), in the same way.
    pub fn op_ns(&self) -> f64 {
        self.run_ns() + median_u64(&self.extra)
    }
}

/// Results and host times of a set of legs, indexed like `legs`.
pub struct Sweep {
    pub legs: Vec<Leg>,
    pub results: Vec<Option<LegResult>>,
    /// Per timing lane (see [`crate::util::lanes`]), per leg.
    pub clocks: [Vec<LegClock>; 2],
    /// Round-robin cursor of [`Sweep::next`].
    cursor: usize,
}

impl Sweep {
    fn find(&self, kernel: usize, mon: Mon, elide: bool) -> Option<&LegResult> {
        let i = self.legs.iter().position(|l| *l == Leg { kernel, mon, elide })?;
        self.results[i].as_ref()
    }

    /// Table IV cells: `(simulated slowdown, paper slowdown)` for every
    /// kernel × paper extension at the paper clocks.
    pub fn cells(&self, kernels: &[Kernel]) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        for (i, k) in kernels.iter().enumerate() {
            let Some(bare) = self.find(i, Mon::Bare, false) else { continue };
            for ext in ExtKind::ALL {
                if let Some(r) = self.find(i, Mon::Paper(ext), false) {
                    let sim = r.cycles as f64 / bare.cycles as f64;
                    out.push((sim, crate::paper_cell(k.workload.name(), ext)));
                }
            }
        }
        out
    }

    /// Geomean over legs of simulated instructions per host µs, each leg
    /// timed around `run`/`try_run` only, slice by slice at its median
    /// in `lane`.
    pub fn sim_mips(&self, lane: usize) -> f64 {
        let rates: Vec<f64> = self
            .results
            .iter()
            .zip(&self.clocks[lane])
            .filter_map(|(r, c)| r.as_ref().map(|r| r.instret as f64 / (c.run_ns() / 1e3)))
            .collect();
        geomean(&rates)
    }

    /// The simulated counters per extension, summed over kernels.
    pub fn counters(&self, kernels: &[Kernel]) -> Vec<Metric> {
        let mut out = Vec::new();
        let results = |mon: Mon, elide: bool| {
            (0..kernels.len())
                .filter_map(move |k| self.find(k, mon, elide))
                .filter_map(|r| r.run.as_ref())
        };
        for mon in MONITORS {
            let (mut fwd, mut committed, mut stalls, mut misses, mut accesses) = (0, 0, 0, 0, 0);
            for r in results(mon, false) {
                fwd += r.forward.forwarded;
                committed += r.forward.committed;
                stalls += r.forward.fifo_stall_cycles;
                misses += r.meta_cache.read_misses + r.meta_cache.write_misses;
                accesses += r.meta_cache.accesses();
            }
            let name = mon.name();
            out.push(metric(
                format!("sim.forwarded_fraction.{name}"),
                fwd as f64 / committed as f64,
                "fraction",
            ));
            out.push(metric(format!("sim.fifo_stall_cycles.{name}"), stalls as f64, "cycles"));
            // SEC and CFI keep no meta-data, so their ratio is always 0/0.
            if !matches!(mon, Mon::Paper(ExtKind::Sec) | Mon::Cfi) {
                out.push(metric(
                    format!("sim.meta_miss_ratio.{name}"),
                    misses as f64 / accesses as f64,
                    "fraction",
                ));
            }
        }
        let (mut i_miss, mut i_acc, mut d_miss, mut d_acc) = (0, 0, 0, 0);
        for k in 0..kernels.len() {
            if let Some((i, d)) = self.find(k, Mon::Bare, false).and_then(|r| r.l1) {
                i_miss += i.read_misses + i.write_misses;
                i_acc += i.accesses();
                d_miss += d.read_misses + d.write_misses;
                d_acc += d.accesses();
            }
        }
        out.push(metric("sim.icache_miss_ratio", i_miss as f64 / i_acc as f64, "fraction"));
        out.push(metric("sim.dcache_miss_ratio", d_miss as f64 / d_acc as f64, "fraction"));
        for mon in ELIDABLE {
            let elided: u64 = results(mon, true).map(|r| r.resilience.elided_checks).sum();
            let slowdowns: Vec<f64> = (0..kernels.len())
                .filter_map(|k| {
                    let bare = self.find(k, Mon::Bare, false)?;
                    Some(self.find(k, mon, true)?.cycles as f64 / bare.cycles as f64)
                })
                .collect();
            out.push(metric(format!("sim.elided_checks.{}", mon.name()), elided as f64, "count"));
            out.push(metric(
                format!("sim.elided_slowdown_x.{}", mon.name()),
                geomean(&slowdowns),
                "x",
            ));
        }
        out
    }

    /// Host cost per simulated instruction of the legs recorded under
    /// `span`, from `passes` traced passes over every leg.
    fn ns_per_insn(&self, tr: &Tracer, passes: usize, span: &str) -> f64 {
        let insns: u64 = self
            .legs
            .iter()
            .zip(&self.results)
            .filter(|(leg, _)| leg.span() == span)
            .filter_map(|(_, r)| r.as_ref().map(|r| r.instret))
            .sum();
        tr.sum_ns(span) / (passes as f64 * insns as f64)
    }

    /// The `pipeline` and `flexcore.system` host costs, from the slice
    /// spans `tr` recorded over `passes` passes over every leg.
    pub fn span_layers(&self, tr: &Tracer, passes: usize) -> Vec<Metric> {
        let per_insn = |mon: Mon, elide: bool| {
            self.ns_per_insn(tr, passes, Leg { kernel: 0, mon, elide }.span())
        };
        let core = per_insn(Mon::Bare, false);
        let mut out = vec![metric("pipeline.core_ns_per_insn", core, "ns")];
        for mon in MONITORS {
            out.push(metric(
                format!("flexcore.system.overhead_ns_per_insn.{}", mon.name()),
                per_insn(mon, false) - core,
                "ns",
            ));
        }
        for mon in ELIDABLE {
            out.push(metric(
                format!("flexcore.elide.host_ratio.{}", mon.name()),
                per_insn(mon, true) / per_insn(mon, false),
                "x",
            ));
        }
        out
    }

    /// Hash of every simulated counter of every leg, in canonical order.
    pub fn digest(&self, kernels: &[Kernel]) -> u64 {
        let mut d = Digest::new();
        for (leg, r) in self.legs.iter().zip(&self.results) {
            d.text(&leg.label(kernels));
            d.text(&format!("{r:?}"));
        }
        d.value()
    }

    pub fn new(legs: Vec<Leg>) -> Sweep {
        Sweep {
            results: vec![None; legs.len()],
            clocks: std::array::from_fn(|_| vec![LegClock::default(); legs.len()]),
            legs,
            cursor: 0,
        }
    }

    /// Runs leg `i` once in timing lane `lane` and folds its outcome in:
    /// the first run is kept, a later run must reproduce it exactly.
    /// Returns the leg's wall time.
    pub fn op(
        &mut self,
        kernels: &[Kernel],
        i: usize,
        lane: usize,
        gate: &mut Gate,
        tr: &mut Tracer,
    ) -> u64 {
        let label = self.legs[i].label(kernels);
        let (outcome, op_ns) = timed(|| run_leg(kernels, self.legs[i], MAX_INSTRUCTIONS, tr));
        match outcome {
            Ok((result, seg_ns)) => {
                self.clocks[lane][i].fold(&seg_ns, op_ns);
                gate.check(match &self.results[i] {
                    None => {
                        self.results[i] = Some(result);
                        None
                    }
                    Some(prev) if *prev != result => {
                        Some(format!("{label}: repeat run differs from the first"))
                    }
                    Some(_) => None,
                });
            }
            Err(e) => gate.check(Some(format!("{label}: {e}"))),
        }
        op_ns
    }

    /// Runs the next leg in round-robin order, in `lane` (the side
    /// samples other workloads interleave with their own operations).
    pub fn next(&mut self, kernels: &[Kernel], lane: usize, gate: &mut Gate) {
        let i = self.cursor % self.legs.len();
        self.cursor += 1;
        self.op(kernels, i, lane, gate, &mut Tracer::new(false));
    }

    /// Runs every leg that has not run yet in one of the first `lanes`
    /// lanes, then judges every leg's first outcome (see [`breach`]).
    pub fn judge(&mut self, kernels: &[Kernel], lanes: usize, gate: &mut Gate) {
        for i in 0..self.legs.len() {
            for lane in 0..lanes {
                if !self.clocks[lane][i].ran() {
                    self.op(kernels, i, lane, gate, &mut Tracer::new(false));
                }
            }
            if let Some(b) = breach(kernels, self, i) {
                gate.fail(b);
            }
        }
    }
}

/// The correctness gate for one leg's first run: a clean halt 0 with no
/// trap, and for a `+elide` leg, the same exit, instret, console and
/// verdict as its full leg.
fn breach(kernels: &[Kernel], sweep: &Sweep, i: usize) -> Option<String> {
    let leg = sweep.legs[i];
    let label = leg.label(kernels);
    let r = sweep.results[i].as_ref()?;
    if r.exit != ExitReason::Halt(0) || r.trapped() {
        return Some(format!(
            "{label}: exit {:?}, trap {:?}",
            r.exit,
            r.run.as_ref().map(|r| &r.monitor_trap)
        ));
    }
    if leg.elide {
        let full = sweep.find(leg.kernel, leg.mon, false)?;
        let verdict = |r: &LegResult| r.run.as_ref().map(|r| r.monitor_trap.clone());
        if (full.exit, full.instret, &full.console, verdict(full))
            != (r.exit, r.instret, &r.console, verdict(r))
        {
            return Some(format!("{label}: diverges from its full leg"));
        }
    }
    None
}

/// The `monitor-sweep` workload: set-up, one untimed warm pass (legs
/// capped short: the modelled caches still start cold in every timed
/// run), then the closed loop. Traced, its sweep supplies the simulated
/// counters, and its lane-1 spans the host cost per instruction of the
/// core and of each monitored system.
pub fn workload(seed: u64, seconds: f64, tr: &mut Tracer) -> Report {
    let lanes = lanes(tr.on());
    let (kernels, first) = timed(kernels);
    let mut setup_s = vec![first as f64 / 1e9];
    let mut sweep = Sweep::new(legs(&kernels));
    for &leg in &sweep.legs {
        // Warm-up only: the capped legs end on the instruction limit.
        let _ = run_leg(&kernels, leg, 20_000, &mut Tracer::new(false));
    }
    let mut gate = Gate::default();
    let mut off = Tracer::new(false);
    let mut calls = 0;
    let timing = closed_loop(sweep.legs.len(), seed, seconds, lanes, |i, lane| {
        calls += 1;
        if calls % SETUP_EVERY == 0 {
            setup_s.push(setup_secs(self::kernels));
        }
        let t = if lane == 1 { &mut *tr } else { &mut off };
        sweep.op(&kernels, i, lane, &mut gate, t)
    });
    sweep.judge(&kernels, lanes, &mut gate);
    let (slowdown_x, table4_err) = table4_cells(&sweep.cells(&kernels));
    let e2e: Vec<EndToEnd> = (0..lanes)
        .map(|lane| EndToEnd {
            sim_mips: sweep.sim_mips(lane),
            slowdown_x,
            table4_err,
            op_ms: sweep.clocks[lane].iter().map(|c| c.op_ns() / 1e6).collect(),
        })
        .collect();
    report(gate, sweep.digest(&kernels), &setup_s, &e2e, || {
        let mut own = sweep.counters(&kernels);
        own.extend(sweep.span_layers(tr, timing.passes));
        crate::probes::layers(seed, Own::Sweep(own))
    })
}

/// This workload's per-layer metrics from one traced pass over every
/// leg, for the traced run of another workload.
pub fn pass_layers() -> Vec<Metric> {
    let kernels = kernels();
    let mut sweep = Sweep::new(legs(&kernels));
    let mut gate = Gate::default();
    let mut tr = Tracer::new(true);
    for i in 0..sweep.legs.len() {
        sweep.op(&kernels, i, 0, &mut gate, &mut tr);
    }
    let mut out = sweep.counters(&kernels);
    out.extend(sweep.span_layers(&tr, 1));
    out
}
