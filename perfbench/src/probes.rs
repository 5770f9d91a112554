//! Per-layer metrics of a traced run. A traced run reports every
//! per-layer metric, whichever workload it ran. The layers its own
//! workload exercises come from the spans and counters of its timed
//! loop; the other workloads' span-derived layers come from one traced
//! pass of each ([`crate::sweep::pass_layers`] and the like). Layers
//! that no workload calls from outside (memory and decode replays,
//! `Extension::process`, the profiler and sink, and the internals of
//! `run_trial`) come from the probes here, which time calls into one
//! layer's public functions, after the timed loop, on inputs derived
//! from the Table IV kernels, and report the median of several
//! repetitions.

use std::hint::black_box;

use flexcore::ext::{bit_tag_location, ExtEnv, Sec, Umc};
use flexcore::faults::{FaultModel, FaultPlan, FaultSchedule, FaultTarget};
use flexcore::obs::{MetricsRecorder, NullSink, PacketTap};
use flexcore::{
    Extension, RecoveryPolicy, RunOutcome, ShadowRegFile, Supervisor, SwapPolicy, System,
};
use flexcore_asm::Program;
use flexcore_bench::swap::{bitstream_for, build_extension, schedule, SwapPoint, SWAPPABLE};
use flexcore_bench::trial::{campaign1_trials, paper_config, CampaignSpec, TrialKind};
use flexcore_bench::{ExtKind, MAX_INSTRUCTIONS};
use flexcore_isa::interp::{Memory32, RefCore, RefStep};
use flexcore_isa::{decode, Instruction};
use flexcore_mem::{BusMaster, CacheConfig, MainMemory, MetaDataCache, SystemBus, TimingCache};
use flexcore_pipeline::{Core, CoreConfig, StepResult, TracePacket, CONSOLE_ADDR};
use flexcore_telemetry::PhaseProfiler;

use crate::host;
use crate::sweep::{self, leg_config, Kernel, Mon, MONITORS};
use crate::util::{median, metric, timed, Metric};
use crate::{campaign, check};

/// Repetitions of each replay probe (the median is reported).
const REPS: usize = 5;
/// Commits traced per kernel for the memory and decode replays.
const TRACE_INSNS: u64 = 100_000;
/// Instruction cap of the runs behind the extension, observer and
/// lockstep probes.
const CAPPED_INSNS: u64 = 150_000;
/// Commit at which the checkpoint and hot-swap probes act.
const MID_COMMIT: u64 = 50_000;

/// The per-layer metrics the traced workload derived from its own
/// timed loop.
pub enum Own {
    Sweep(Vec<Metric>),
    Campaign(Vec<Metric>),
    Check(Vec<Metric>),
}

/// Every per-layer metric: the workload's `own`, one traced pass of
/// each other workload, and the probes.
pub fn layers(seed: u64, own: Own) -> Vec<Metric> {
    let (mut swept, mut trials, mut checked) = (None, None, None);
    match own {
        Own::Sweep(m) => swept = Some(m),
        Own::Campaign(m) => trials = Some(m),
        Own::Check(m) => checked = Some(m),
    }
    let mut out = swept.unwrap_or_else(sweep::pass_layers);
    out.extend(trials.unwrap_or_else(|| campaign::pass_layers(seed)));
    out.extend(checked.unwrap_or_else(check::pass_layers));
    let kernels = sweep::kernels();
    host::calibrate();
    out.extend(memory_layers(&kernels));
    host::calibrate();
    out.extend(extension_layers(&kernels));
    host::calibrate();
    out.extend(observer_layers(&kernels));
    host::calibrate();
    out.extend(campaign_layers(seed));
    out
}

/// Median over [`REPS`] of `f()`'s nanoseconds, divided by `per`.
fn median_ns_per(per: usize, mut f: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            host::calibrate();
            f() as f64 / per.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn loaded_memory(program: &Program) -> MainMemory {
    let mut mem = MainMemory::new();
    mem.load(program.base(), program.image());
    mem
}

/// What the bare core fetched, decoded, loaded and stored over the
/// first [`TRACE_INSNS`] commits of a kernel (data addresses word
/// aligned, console accesses left out).
#[derive(Default)]
struct AddrTrace {
    fetch: Vec<u32>,
    words: Vec<u32>,
    loads: Vec<u32>,
    stores: Vec<u32>,
}

fn addr_trace(program: &Program) -> AddrTrace {
    let mut mem = MainMemory::new();
    let mut bus = SystemBus::default();
    let mut core = Core::new(CoreConfig::leon3());
    core.load_program(program, &mut mem);
    let mut t = AddrTrace::default();
    for _ in 0..TRACE_INSNS {
        match core.step(&mut mem, &mut bus) {
            StepResult::Committed(p) => {
                t.fetch.push(p.pc);
                t.words.push(p.inst_word);
                if let Instruction::Mem { op, .. } = p.inst {
                    if p.addr < CONSOLE_ADDR {
                        let list = if op.is_store() { &mut t.stores } else { &mut t.loads };
                        list.push(p.addr & !3);
                    }
                }
            }
            StepResult::Annulled => {}
            StepResult::Exited(_) => break,
        }
    }
    t
}

/// `mem`, `isa` and L1 costs, replaying each kernel's own fetch, load
/// and store addresses.
fn memory_layers(kernels: &[Kernel]) -> Vec<Metric> {
    let traces: Vec<(MainMemory, AddrTrace)> =
        kernels.iter().map(|k| (loaded_memory(&k.program), addr_trace(&k.program))).collect();
    let count = |f: fn(&AddrTrace) -> usize| traces.iter().map(|(_, t)| f(t)).sum::<usize>();
    let reads = count(|t| t.fetch.len() + t.loads.len());
    let writes = count(|t| t.stores.len());
    let words = count(|t| t.words.len());
    let data = count(|t| t.loads.len() + t.stores.len());

    let read_ns = median_ns_per(reads, || {
        timed(|| {
            for (mem, t) in &traces {
                let mut acc = 0u32;
                for &a in t.fetch.iter().chain(&t.loads) {
                    acc ^= mem.read_u32(a);
                }
                black_box(acc);
            }
        })
        .1
    });
    let write_ns = median_ns_per(writes, || {
        let mut mems: Vec<MainMemory> = traces.iter().map(|(m, _)| m.clone()).collect();
        timed(|| {
            for (mem, (_, t)) in mems.iter_mut().zip(&traces) {
                for (i, &a) in t.stores.iter().enumerate() {
                    mem.write_u32(a, i as u32);
                }
            }
        })
        .1
    });
    let decode_ns = median_ns_per(words, || {
        timed(|| {
            for (_, t) in &traces {
                for &w in &t.words {
                    let _ = black_box(decode(black_box(w)));
                }
            }
        })
        .1
    });
    let l1_ns = median_ns_per(reads + writes, || {
        timed(|| {
            for (_, t) in &traces {
                let mut icache = TimingCache::new(CacheConfig::l1_default());
                let mut dcache = TimingCache::new(CacheConfig::l1_default());
                for &a in &t.fetch {
                    black_box(icache.access(a, false));
                }
                for &a in &t.loads {
                    black_box(dcache.access(a, false));
                }
                for &a in &t.stores {
                    black_box(dcache.access(a, true));
                }
            }
        })
        .1
    });
    let meta = |write: bool| {
        median_ns_per(if write { writes } else { reads - count(|t| t.fetch.len()) }, || {
            let mut mems: Vec<MainMemory> = traces.iter().map(|(m, _)| m.clone()).collect();
            timed(|| {
                for (mem, (_, t)) in mems.iter_mut().zip(&traces) {
                    let mut cache = MetaDataCache::new(CacheConfig::meta_default());
                    let mut bus = SystemBus::default();
                    let mut now = 0;
                    let addrs = if write { &t.stores } else { &t.loads };
                    for &a in addrs {
                        let (addr, bit) = bit_tag_location(a);
                        let r = if write {
                            cache.write_masked(
                                addr,
                                !0,
                                1 << bit,
                                mem,
                                &mut bus,
                                BusMaster::Fabric,
                                now,
                            )
                        } else {
                            cache.read_word(addr, mem, &mut bus, BusMaster::Fabric, now)
                        };
                        now = r.ready_at + 1;
                    }
                }
            })
            .1
        })
    };
    let (meta_read_ns, meta_write_ns) = (meta(false), meta(true));
    let bus_ns = median_ns_per(data, || {
        let mut bus = SystemBus::default();
        timed(|| {
            let mut now = 0;
            for _ in 0..data {
                now = bus.transfer(BusMaster::Core, black_box(now), 8);
            }
            black_box(now);
        })
        .1
    });
    vec![
        metric("mem.read_u32_ns", read_ns, "ns"),
        metric("mem.write_u32_ns", write_ns, "ns"),
        metric("isa.decode_ns", decode_ns, "ns"),
        metric("mem.l1_access_ns", l1_ns, "ns"),
        metric("mem.meta_read_ns", meta_read_ns, "ns"),
        metric("mem.meta_write_ns", meta_write_ns, "ns"),
        metric("mem.bus_transfer_ns", bus_ns, "ns"),
    ]
}

/// Packets forwarded to `mon` over each kernel's first
/// [`CAPPED_INSNS`] commits.
fn capture(k: &Kernel, mon: Mon) -> Vec<TracePacket> {
    let ext = build_extension(mon.name(), &k.program).expect("monitor names build");
    let mut sys = System::with_sink(leg_config(mon), ext, PacketTap::new(usize::MAX));
    sys.load_program(&k.program);
    let _ = sys.try_run(CAPPED_INSNS);
    sys.into_sink().packets().to_vec()
}

/// `Extension::process` per packet, replaying captured packets through
/// a fresh extension over an `ExtEnv` built from the public `mem` types.
fn extension_layers(kernels: &[Kernel]) -> Vec<Metric> {
    let mut out = Vec::new();
    for mon in MONITORS {
        let streams: Vec<Vec<TracePacket>> = kernels.iter().map(|k| capture(k, mon)).collect();
        let packets: usize = streams.iter().map(Vec::len).sum();
        let period = leg_config(mon).implementation.divisor();
        let ns = median_ns_per(packets, || {
            let mut total = 0;
            for (k, stream) in kernels.iter().zip(&streams) {
                let mut ext = build_extension(mon.name(), &k.program).expect("monitor names build");
                let mut mem = loaded_memory(&k.program);
                let mut meta = MetaDataCache::new(CacheConfig::meta_default());
                let mut bus = SystemBus::default();
                let mut shadow = ShadowRegFile::new();
                let len = k.program.len() as u32;
                let mut env = ExtEnv::new(&mut meta, &mut mem, &mut bus, &mut shadow, 0);
                ext.on_program_load(k.program.base(), len, &mut env);
                meta.flush(&mut mem);
                let mut meta = MetaDataCache::new(CacheConfig::meta_default());
                total += timed(|| {
                    for p in stream {
                        let mut env = ExtEnv::with_period(
                            &mut meta,
                            &mut mem,
                            &mut bus,
                            &mut shadow,
                            p.commit_cycle,
                            period,
                        );
                        let _ = black_box(ext.process(p, &mut env));
                    }
                })
                .1;
            }
            total
        });
        out.push(metric(format!("flexcore.ext.process_ns.{}", mon.name()), ns, "ns"));
    }
    out
}

/// Host time of UMC runs capped at [`CAPPED_INSNS`] with the phase
/// profiler on and with the metrics recorder as sink, each over the
/// same run with the null clock and the null sink. Repetitions
/// interleave the three.
fn observer_layers(kernels: &[Kernel]) -> Vec<Metric> {
    let config = leg_config(Mon::Paper(ExtKind::Umc));
    // Nanoseconds of `try_run` over every kernel: 0 plain, 1 profiled,
    // 2 recorded.
    let capped = |k: &Kernel, which: usize| -> u64 {
        match which {
            0 => {
                let mut sys = System::new(config, Umc::new());
                sys.load_program(&k.program);
                timed(|| sys.try_run(CAPPED_INSNS).expect("capped runs complete")).1
            }
            1 => {
                let mut sys =
                    System::with_profiler(config, Umc::new(), NullSink, PhaseProfiler::new());
                sys.load_program(&k.program);
                timed(|| sys.try_run(CAPPED_INSNS).expect("capped runs complete")).1
            }
            _ => {
                let sink = MetricsRecorder::new(MetricsRecorder::DEFAULT_EPOCH_CYCLES);
                let mut sys = System::with_sink(config, Umc::new(), sink);
                sys.load_program(&k.program);
                timed(|| sys.try_run(CAPPED_INSNS).expect("capped runs complete")).1
            }
        }
    };
    let mut ns = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..3 {
        for (which, samples) in ns.iter_mut().enumerate() {
            samples.push(kernels.iter().map(|k| capped(k, which)).sum::<u64>() as f64);
        }
    }
    let plain = median(&ns[0]);
    vec![
        metric("telemetry.profiler_overhead_x", median(&ns[1]) / plain, "x"),
        metric("flexcore.obs.sink_overhead_x", median(&ns[2]) / plain, "x"),
    ]
}

/// The golden model's view of memory, exactly as the lockstep checker
/// builds it: byte accesses over a private `MainMemory`.
struct RefMem(MainMemory);

impl Memory32 for RefMem {
    fn read_u8(&self, addr: u32) -> u8 {
        self.0.read_u8(addr)
    }

    fn write_u8(&mut self, addr: u32, value: u8) {
        self.0.write_u8(addr, value);
    }
}

fn sec_system(program: &Program) -> System<Sec> {
    let mut sys = System::new(paper_config(ExtKind::Sec), Sec::new());
    sys.load_program(program);
    sys
}

/// Construction, checkpointing, the golden model, lockstep, supervised
/// recovery, bitstream builds, hot-swap stalls and whole trials, on the
/// `fault-campaign` kernels.
fn campaign_layers(seed: u64) -> Vec<Metric> {
    let programs: Vec<Program> =
        campaign::kernels().iter().map(|w| w.program().expect("kernels assemble")).collect();
    let mut out = Vec::new();

    let mut build = Vec::new();
    for program in &programs {
        for _ in 0..REPS {
            build.push(timed(|| black_box(sec_system(program))).1 as f64 / 1e3);
        }
    }
    out.push(metric("flexcore.system.build_load_us", median(&build), "us"));

    let (mut snap_us, mut restore_us, mut pages) = (Vec::new(), Vec::new(), 0);
    for program in &programs {
        let mut sys = sec_system(program);
        let paused = sys.try_run_until(MAX_INSTRUCTIONS, MID_COMMIT).expect("kernels run");
        assert!(matches!(paused, RunOutcome::Paused { .. }), "kernels outlast the pause point");
        let snap = sys.snapshot();
        pages += snap.mem_pages.len();
        for _ in 0..REPS {
            snap_us.push(timed(|| black_box(sys.snapshot())).1 as f64 / 1e3);
            let mut fresh = sec_system(program);
            let (r, ns) = timed(|| fresh.restore(&snap));
            r.expect("snapshot restores into an identically built system");
            restore_us.push(ns as f64 / 1e3);
        }
    }
    out.push(metric("flexcore.checkpoint.snapshot_us", median(&snap_us), "us"));
    out.push(metric("flexcore.checkpoint.restore_us", median(&restore_us), "us"));
    out.push(metric("flexcore.checkpoint.snapshot_pages", pages as f64, "count"));

    let steps: Vec<f64> = (0..REPS)
        .map(|_| {
            let (mut ns, mut n) = (0, 0u64);
            for program in &programs {
                let mut mem = RefMem(loaded_memory(program));
                let mut golden = RefCore::new(program.entry());
                ns += timed(|| {
                    for _ in 0..TRACE_INSNS {
                        n += 1;
                        if let RefStep::Exited(_) = golden.step(&mut mem) {
                            break;
                        }
                    }
                })
                .1;
            }
            ns as f64 / n as f64
        })
        .collect();
    out.push(metric("isa.refcore_step_ns", median(&steps), "ns"));

    let mut ratios = Vec::new();
    for _ in 0..3 {
        let (mut plain, mut checked) = (0, 0);
        for program in &programs {
            let mut sys = sec_system(program);
            plain += timed(|| sys.try_run(CAPPED_INSNS).expect("runs")).1;
            let mut sys = sec_system(program);
            sys.enable_lockstep();
            checked += timed(|| sys.try_run(CAPPED_INSNS).expect("lockstep agrees")).1;
        }
        ratios.push(checked as f64 / plain as f64);
    }
    out.push(metric("flexcore.lockstep.overhead_x", median(&ratios), "x"));

    let spec = CampaignSpec {
        seed,
        trials: 2,
        lockstep: true,
        recover: true,
        policy: RecoveryPolicy::default(),
    };
    let (mut sup_ms, mut replays, mut checkpoints, mut mttr) = (Vec::new(), 0, 0, 0);
    for t in campaign1_trials(&spec, &campaign::kernels()) {
        let TrialKind::AluFlip { trial_seed, site, bit } = t.kind else { continue };
        let program =
            &programs[campaign::kernels().iter().position(|w| *w == t.workload).expect("kernel")];
        let mut sys = sec_system(program);
        sys.arm_faults(FaultPlan::new(trial_seed).inject(
            FaultTarget::CommitResult,
            FaultSchedule::AtCommit(site),
            FaultModel::Mask(1 << bit),
        ));
        sys.enable_lockstep();
        let mut sup = Supervisor::new(sys, spec.policy);
        let (_, ns) = timed(|| sup.run(MAX_INSTRUCTIONS));
        sup_ms.push(ns as f64 / 1e6);
        let report = sup.report();
        replays += u64::from(report.replays + report.reload_replays);
        checkpoints += report.checkpoints_taken;
        mttr += report.mttr_cycles;
    }
    out.push(metric("flexcore.recovery.supervisor_run_ms", median(&sup_ms), "ms"));
    out.push(metric("flexcore.recovery.replays", replays as f64, "count"));
    out.push(metric("flexcore.recovery.checkpoints_taken", checkpoints as f64, "count"));
    out.push(metric("flexcore.recovery.mttr_cycles", mttr as f64, "cycles"));

    let exts: Vec<Box<dyn Extension>> = SWAPPABLE
        .iter()
        .map(|n| build_extension(n, &programs[0]).expect("swappable names build"))
        .collect();
    let build_ms: Vec<f64> = (0..REPS)
        .map(|_| {
            timed(|| {
                for e in &exts {
                    black_box(bitstream_for(e.as_ref()));
                }
            })
            .1 as f64
                / 1e6
        })
        .collect();
    out.push(metric("fabric.bitstream_build_ms", median(&build_ms), "ms"));

    let mut stall = 0;
    for program in &programs {
        let umc = build_extension("umc", program).expect("umc builds");
        let mut sys = System::new(paper_config(ExtKind::Umc), umc);
        sys.load_program(program);
        let point =
            SwapPoint { at_commit: MID_COMMIT, to: "cfi".into(), policy: SwapPolicy::Reset };
        schedule(&mut sys, &point, program).expect("cfi is swappable");
        stall += sys
            .try_run(MAX_INSTRUCTIONS)
            .expect("swapped runs complete")
            .resilience
            .swap_stall_cycles;
    }
    out.push(metric("flexcore.reconfig.swap_stall_cycles", stall as f64, "cycles"));

    out
}
