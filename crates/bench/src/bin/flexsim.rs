//! `flexsim` — run an assembly program (or a named workload) on the
//! FlexCore system from the command line.
//!
//! ```text
//! flexsim [OPTIONS] <program.s | workload-name>
//!
//! OPTIONS:
//!   --ext <NAME|none>                    monitoring extension (default: none, the
//!                                        unmodified core: the registry's `nop`); NAME is
//!                                        any entry of the `swap::SWAPPABLE` registry
//!   --swap-at <COMMIT:ext[:policy]>      hot-swap the fabric bitstream to `ext` at the
//!                                        given commit boundary (repeatable; policy is
//!                                        reset|carry, default reset); CFI's edge table
//!                                        is recovered statically from the program
//!   --elide <table.json>                 install a check-elision table emitted by
//!                                        `flexcheck --emit-elision`; statically
//!                                        discharged checks are never enqueued
//!   --clock <1x|0.5x|0.25x>              fabric clock ratio (default: 0.5x)
//!   --fifo <N>                           forward-FIFO depth (default: 64)
//!   --max <N>                            instruction budget (default: 200M; 0 commits
//!                                        nothing)
//!   --metrics <file>                     epoch-bucketed metrics as JSONL
//!   --epoch <N>                          metrics epoch width in cycles (default: 1000)
//!   --trace <file>                       Chrome trace-event JSON (open in Perfetto)
//!   --flight-recorder <N>                keep the last N commits for diagnostics
//!   --vcd <file>                         fabric waveform from the first forwarded packets
//!   --json                               print the full run result as JSON
//!   --commits                            print every committed instruction
//!   --disasm                             print the assembled listing and exit
//!   --checkpoint-every <N>               write a checkpoint every N committed instructions
//!   --checkpoint-path <file>             where checkpoints go (default: flexsim.ckpt.json)
//!   --quit-after-checkpoint              exit 0 after the first checkpoint (deterministic
//!                                        stand-in for an interrupted run)
//!   --resume <file>                      restore a checkpoint before running
//!   --lockstep                           step an ISA-level golden model commit-for-commit
//!                                        and fail on any architectural divergence
//!   --recover                            run under the rollback-and-replay supervisor:
//!                                        checkpoint in memory every --checkpoint-every
//!                                        commits (default 10000) and walk the escalation
//!                                        ladder (replay, bitstream reload, degraded mode)
//!                                        on any monitor trap or simulation error
//!
//! Workload names: sha gmac stringsearch fft basicmath bitcount
//!                  crc32 qsort dijkstra
//! ```
//!
//! Examples:
//!
//! ```sh
//! cargo run --release -p flexcore-bench --bin flexsim -- sha --ext dift
//! cargo run --release -p flexcore-bench --bin flexsim -- sha --ext umc \
//!     --metrics sha.jsonl --trace sha.trace.json --flight-recorder 32
//! # start under UMC, hot-swap the fabric to CFI after 5000 commits
//! cargo run --release -p flexcore-bench --bin flexsim -- sha --ext umc \
//!     --swap-at 5000:cfi
//! ```
//!
//! Every run, `--ext none` included, is one [`System`] run: `none` builds
//! the registry's `nop`, whose CFGR forwards nothing, so the core runs
//! exactly as the unmodified Leon3 of Table IV. Every option therefore
//! works without a monitor too (observability sinks, `--json`,
//! checkpoints, lockstep, recovery, `--swap-at` into a monitor). The
//! only difference `none` makes is the text report: one `[core]` line
//! instead of the monitored run's summary.
//!
//! Every file flexsim writes, checkpoints included, is replaced
//! atomically (written beside it, fsynced, then renamed over it), so a
//! run killed mid-write keeps the previous checkpoint.
//!
//! A `--resume`d run must be built the same way as the one that wrote
//! the checkpoint: same program, same `--ext`, `--clock`, and `--fifo`.
//! The restored run finishes with output bit-identical to the
//! uninterrupted run, so `flexsim sha --ext umc --json` and the pair
//! "checkpoint, then resume" can be `diff`ed directly (CI does).

use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use flexcore::checkpoint::Snapshot;
use flexcore::ext::Extension;
use flexcore::obs::{
    ChromeRecorder, FlightEntry, MetricsRecorder, Observer, TraceEvent, TraceSink,
};
use flexcore::recovery::{RecoveryPolicy, Supervisor};
use flexcore::{RunOutcome, RunResult, SimError, System, SystemConfig};
use flexcore_asm::{assemble, Program};
use flexcore_bench::swap::{self, SwapPoint, SWAPPABLE};
use flexcore_fabric::write_vcd;
use flexcore_pipeline::{ExitReason, TracePacket};
use flexcore_workloads::Workload;

/// How many forwarded packets feed the `--vcd` waveform. One packet is
/// one fabric clock cycle; beyond a few hundred cycles the waveform
/// stops being something a human scrolls through.
const VCD_PACKET_CAP: usize = 256;

struct Options {
    input: String,
    ext: String,
    clock: String,
    fifo: usize,
    max: u64,
    commits: bool,
    disasm: bool,
    metrics: Option<String>,
    epoch: u64,
    trace: Option<String>,
    flight: usize,
    vcd: Option<String>,
    json: bool,
    checkpoint_every: Option<u64>,
    checkpoint_path: String,
    quit_after_checkpoint: bool,
    resume: Option<String>,
    lockstep: bool,
    recover: bool,
    swaps: Vec<SwapPoint>,
    elide: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        input: String::new(),
        ext: "none".into(),
        clock: "0.5x".into(),
        fifo: 64,
        max: 200_000_000,
        commits: false,
        disasm: false,
        metrics: None,
        epoch: MetricsRecorder::DEFAULT_EPOCH_CYCLES,
        trace: None,
        flight: 0,
        vcd: None,
        json: false,
        checkpoint_every: None,
        checkpoint_path: "flexsim.ckpt.json".into(),
        quit_after_checkpoint: false,
        resume: None,
        lockstep: false,
        recover: false,
        swaps: Vec::new(),
        elide: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ext" => opts.ext = args.next().ok_or("--ext needs a value")?,
            "--clock" => opts.clock = args.next().ok_or("--clock needs a value")?,
            "--fifo" => {
                opts.fifo = args
                    .next()
                    .ok_or("--fifo needs a value")?
                    .parse()
                    .map_err(|e| format!("--fifo: {e}"))?;
                if opts.fifo == 0 {
                    return Err("--fifo must be > 0".into());
                }
            }
            "--max" => {
                opts.max = args
                    .next()
                    .ok_or("--max needs a value")?
                    .parse()
                    .map_err(|e| format!("--max: {e}"))?;
            }
            "--metrics" => opts.metrics = Some(args.next().ok_or("--metrics needs a file")?),
            "--epoch" => {
                opts.epoch = args
                    .next()
                    .ok_or("--epoch needs a value")?
                    .parse()
                    .map_err(|e| format!("--epoch: {e}"))?;
            }
            "--trace" => opts.trace = Some(args.next().ok_or("--trace needs a file")?),
            "--flight-recorder" => {
                opts.flight = args
                    .next()
                    .ok_or("--flight-recorder needs a value")?
                    .parse()
                    .map_err(|e| format!("--flight-recorder: {e}"))?;
            }
            "--vcd" => opts.vcd = Some(args.next().ok_or("--vcd needs a file")?),
            "--json" => opts.json = true,
            "--commits" => opts.commits = true,
            "--disasm" => opts.disasm = true,
            "--checkpoint-every" => {
                let n: u64 = args
                    .next()
                    .ok_or("--checkpoint-every needs a value")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
                if n == 0 {
                    return Err("--checkpoint-every must be > 0".into());
                }
                opts.checkpoint_every = Some(n);
            }
            "--checkpoint-path" => {
                opts.checkpoint_path = args.next().ok_or("--checkpoint-path needs a file")?;
            }
            "--quit-after-checkpoint" => opts.quit_after_checkpoint = true,
            "--resume" => opts.resume = Some(args.next().ok_or("--resume needs a file")?),
            "--swap-at" => {
                let spec = args.next().ok_or("--swap-at needs COMMIT:ext[:policy]")?;
                opts.swaps.push(SwapPoint::parse(&spec).map_err(|e| format!("--swap-at {e}"))?);
            }
            "--lockstep" => opts.lockstep = true,
            "--recover" => opts.recover = true,
            "--elide" => opts.elide = Some(args.next().ok_or("--elide needs a table file")?),
            "--help" | "-h" => return Err("help".into()),
            other if opts.input.is_empty() => opts.input = other.to_string(),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if opts.input.is_empty() {
        return Err("missing program file or workload name".into());
    }
    if opts.ext != "none" && !SWAPPABLE.contains(&opts.ext.as_str()) {
        return Err(format!("unknown extension `{}` (one of {})", opts.ext, SWAPPABLE.join(" ")));
    }
    if opts.quit_after_checkpoint && opts.checkpoint_every.is_none() {
        return Err("--quit-after-checkpoint needs --checkpoint-every".into());
    }
    if opts.recover && (opts.quit_after_checkpoint || opts.resume.is_some()) {
        return Err("--recover keeps its checkpoints in memory; it cannot be combined with \
             --quit-after-checkpoint or --resume"
            .into());
    }
    Ok(opts)
}

fn load_program(input: &str) -> Result<Program, String> {
    let named = Workload::all().into_iter().chain(Workload::extra()).find(|w| w.name() == input);
    let source = match named {
        Some(w) => w.source(),
        None => std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?,
    };
    assemble(&source).map_err(|e| format!("{input}: {e}"))
}

fn config(opts: &Options) -> Result<SystemConfig, String> {
    let base = match opts.clock.as_str() {
        "1x" | "1X" => SystemConfig::fabric_full_speed(),
        "0.5x" | "0.5X" => SystemConfig::fabric_half_speed(),
        "0.25x" | "0.25X" => SystemConfig::fabric_quarter_speed(),
        other => return Err(format!("unknown clock ratio `{other}`")),
    };
    Ok(base.with_fifo_depth(opts.fifo))
}

/// Writes `contents` to `path` (exit code 0) or reports why not (2).
/// The file is replaced atomically, so a kill at any point leaves the
/// old file or the new one, never a truncated mix: the bytes go to
/// `<path>.tmp` beside it, are fsynced, and are renamed over `path`;
/// syncing the directory then makes the rename durable.
fn write_file(path: &str, contents: &str) -> i32 {
    let tmp = format!("{path}.tmp");
    let dir = match Path::new(path).parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let written = File::create(&tmp)
        .and_then(|mut f| f.write_all(contents.as_bytes()).and_then(|()| f.sync_all()))
        .and_then(|()| std::fs::rename(&tmp, path))
        .and_then(|()| File::open(dir)?.sync_all());
    match written {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            2
        }
    }
}

/// flexsim's trace sink: the [`Observer`] exporters plus the
/// `--commits` listing, one line per committed instruction.
struct Sink {
    obs: Observer,
    commits: bool,
}

impl TraceSink for Sink {
    fn event(&mut self, ev: TraceEvent) {
        self.obs.event(ev);
    }

    fn commit_packet(&mut self, pkt: &TracePacket) {
        if self.commits {
            println!("{:>10}  {:#010x}  {}", pkt.commit_cycle, pkt.pc, pkt.inst);
        }
        self.obs.commit_packet(pkt);
    }

    fn forward_packet(&mut self, pkt: &TracePacket) {
        self.obs.forward_packet(pkt);
    }

    fn flight_log(&self) -> Vec<FlightEntry> {
        self.obs.flight_log()
    }

    fn rearm_flight(&mut self) {
        self.obs.rearm_flight();
    }
}

/// What driving the system produced: a finished run, or a clean early
/// exit after `--quit-after-checkpoint` wrote its checkpoint.
#[allow(clippy::large_enum_variant)] // Finished is the overwhelmingly common case
enum Driven {
    Finished(RunResult),
    QuitAfterCheckpoint,
}

/// Runs the system, writing a checkpoint every `--checkpoint-every`
/// commits (if requested).
fn drive<E: Extension, S: TraceSink>(
    sys: &mut System<E, S>,
    opts: &Options,
    name: &str,
) -> Result<Result<Driven, SimError>, i32> {
    let Some(every) = opts.checkpoint_every else {
        return Ok(sys.try_run(opts.max).map(Driven::Finished));
    };
    loop {
        let next = sys.core().stats().instret.saturating_add(every);
        match sys.try_run_until(opts.max, next) {
            Ok(RunOutcome::Done(r)) => return Ok(Ok(Driven::Finished(r))),
            Ok(RunOutcome::Paused { instret, cycle }) => {
                let code = write_file(&opts.checkpoint_path, &sys.snapshot().to_json());
                if code != 0 {
                    return Err(code);
                }
                eprintln!(
                    "[{name}] checkpoint at instret {instret} (cycle {cycle}) -> {}",
                    opts.checkpoint_path
                );
                if opts.quit_after_checkpoint {
                    return Ok(Ok(Driven::QuitAfterCheckpoint));
                }
            }
            Err(e) => return Ok(Err(e)),
        }
    }
}

fn run_monitored(program: &Program, opts: &Options, ext: Box<dyn Extension>) -> i32 {
    let cfg = match config(opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let name = ext.name();

    let mut obs = Observer::new();
    if opts.metrics.is_some() {
        obs = obs.with_metrics(MetricsRecorder::new(opts.epoch));
    }
    if opts.trace.is_some() {
        obs = obs.with_chrome(ChromeRecorder::new());
    }
    if opts.flight > 0 {
        obs = obs.with_flight(opts.flight);
    }
    if opts.vcd.is_some() {
        obs = obs.with_packet_tap(VCD_PACKET_CAP);
    }

    let mut sys = System::with_sink(cfg, ext, Sink { obs, commits: opts.commits });
    sys.load_program(program);
    if let Some(path) = &opts.elide {
        let json = match std::fs::read_to_string(path) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return 2;
            }
        };
        let table = match flexcore::ElisionTable::from_json(&json) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return 2;
            }
        };
        eprintln!("[{name}] elision table installed: {} PC(s) from {path}", table.len());
        sys.set_elision(table);
    }
    // Swaps are scheduled before a checkpoint restore: `restore`
    // realigns the scheduled timeline against the checkpoint's commit
    // count, so a resumed run re-executes (or fast-forwards) its swaps
    // exactly like the uninterrupted one.
    for point in &opts.swaps {
        if let Err(e) = swap::schedule(&mut sys, point, program) {
            eprintln!("error: --swap-at: {e}");
            return 2;
        }
    }
    if let Some(path) = &opts.resume {
        let json = match std::fs::read_to_string(path) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return 2;
            }
        };
        let snap = match Snapshot::from_json(&json) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return 2;
            }
        };
        if let Err(e) = sys.restore(&snap) {
            eprintln!("error: {path}: {e}");
            return 2;
        }
        eprintln!("[{name}] resumed from {path} at instret {}", sys.core().stats().instret);
    }
    if opts.lockstep {
        sys.enable_lockstep();
    }
    let mut recoveries = 0;
    let driven = if opts.recover {
        let policy = RecoveryPolicy { checkpoint_every: opts.checkpoint_every.unwrap_or(10_000) };
        let mut sup = Supervisor::new(sys, policy);
        let outcome = sup.run(opts.max);
        let report = sup.report().clone();
        sys = sup.into_system();
        recoveries = report.errors_detected;
        if report.errors_detected > 0 || report.checkpoints_taken > 0 {
            eprintln!("[{name}] recovery report:");
            eprint!("{report}");
        }
        Ok(outcome.map(Driven::Finished))
    } else {
        drive(&mut sys, opts, name)
    };
    let r = match driven {
        Err(code) => return code,
        Ok(Ok(Driven::QuitAfterCheckpoint)) => return 0,
        Ok(Ok(Driven::Finished(r))) => r,
        Ok(Err(SimError::Deadlock(snap))) => {
            eprintln!("[{name}] {}", SimError::Deadlock(snap.clone()));
            let recent = snap.recent_disassembly();
            if !recent.is_empty() {
                eprintln!("last commits before the wedge:\n{recent}");
            }
            return 4;
        }
        Ok(Err(SimError::Divergence(report))) => {
            eprintln!("[{name}] lockstep divergence: {report}");
            if !report.dut_recent.is_empty() {
                eprintln!("last pipeline commits:");
                for c in &report.dut_recent {
                    eprintln!("  {c}");
                }
            }
            if !report.golden_recent.is_empty() {
                eprintln!("last golden-model commits:");
                for c in &report.golden_recent {
                    eprintln!("  {c}");
                }
            }
            return 4;
        }
        Ok(Err(e)) => {
            eprintln!("[{name}] {e}");
            return 4;
        }
    };
    if opts.lockstep {
        let checked = sys.lockstep().map_or(0, |c| c.commits_checked());
        eprintln!("[{name}] lockstep: {checked} commits agreed with the golden model");
    }
    for report in sys.swap_reports() {
        eprintln!("[{name}] {report}");
    }
    if sys.swap_pending() {
        eprintln!("[{name}] note: a scheduled --swap-at boundary was never reached");
    }

    // The VCD dump needs both the tapped packets (in the sink) and the
    // extension's netlist, so write it before consuming `sys`.
    if let Some(path) = &opts.vcd {
        let stimulus: Vec<Vec<bool>> = sys
            .sink()
            .obs
            .packets
            .as_ref()
            .map(|tap| tap.packets().iter().map(|p| sys.extension().vcd_stimulus(p)).collect())
            .unwrap_or_default();
        let mut out = Vec::new();
        if let Err(e) = write_vcd(&sys.extension().netlist(), &stimulus, &mut out) {
            eprintln!("error: {path}: {e}");
            return 2;
        }
        let text = String::from_utf8_lossy(&out);
        let code = write_file(path, &text);
        if code != 0 {
            return code;
        }
        eprintln!("[{name}] wrote {} fabric cycles to {path}", stimulus.len());
    }

    let obs = sys.into_sink().obs;
    if let (Some(path), Some(m)) = (&opts.metrics, &obs.metrics) {
        // A recovered run replays rolled-back windows, so the epoch
        // series legitimately holds more commits than the final result;
        // the bit-exact cross-check only applies to uninterrupted runs.
        if recoveries == 0 {
            if let Err(e) = m.check_against(&r) {
                eprintln!("internal error: metrics disagree with the run result: {e}");
                return 4;
            }
        }
        let code = write_file(path, &m.to_jsonl(&r));
        if code != 0 {
            return code;
        }
        eprintln!("[{name}] wrote {} epochs to {path}", m.epochs().len());
    }
    if let (Some(path), Some(c)) = (&opts.trace, &obs.chrome) {
        let code = write_file(path, &c.to_chrome_json());
        if code != 0 {
            return code;
        }
        eprintln!("[{name}] wrote {} trace events to {path}", c.events().len());
    }

    if opts.json {
        println!("{}", serde::to_string_pretty(&r));
    } else if opts.ext == "none" {
        println!(
            "[core] {} instructions, {} cycles (CPI {:.3}); icache {}; dcache {}",
            r.instret,
            r.cycles,
            r.cycles as f64 / r.instret.max(1) as f64,
            r.icache,
            r.dcache
        );
    } else {
        print!("{}", r.summary());
    }
    if !opts.json && !r.console.is_empty() {
        println!("--- console ---\n{}", String::from_utf8_lossy(&r.console));
    }
    if let Some(trap) = &r.monitor_trap {
        eprintln!("[{name}] {trap}");
        return 3;
    }
    match r.exit {
        ExitReason::Halt(0) => 0,
        ExitReason::Halt(n) => {
            eprintln!("program failed its own check (ta {n})");
            n as i32
        }
        other => {
            eprintln!("abnormal exit: {other:?}");
            2
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            eprintln!(
                "usage: flexsim [--ext {}|none] [--clock 1x|0.5x|0.25x]\n\
                 \x20              [--fifo N] [--max N] [--metrics FILE] [--epoch N]\n\
                 \x20              [--trace FILE] [--flight-recorder N] [--vcd FILE]\n\
                 \x20              [--checkpoint-every N] [--checkpoint-path FILE]\n\
                 \x20              [--quit-after-checkpoint] [--resume FILE] [--lockstep]\n\
                 \x20              [--recover] [--swap-at COMMIT:ext[:policy]] [--elide FILE]\n\
                 \x20              [--json] [--commits] [--disasm] <program.s | workload>\n\
                 `--ext none` (the default) is the unmodified core, the registry's `nop`;\n\
                 every option works with it. `--max 0` commits nothing.",
                SWAPPABLE.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let program = match load_program(&opts.input) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.disasm {
        print!("{}", program.listing());
        return ExitCode::SUCCESS;
    }
    // `parse_args` admitted only registry names and `none`, the
    // unmodified core: `nop`, whose CFGR forwards nothing.
    let key = if opts.ext == "none" { "nop" } else { opts.ext.as_str() };
    let ext = swap::build_extension(key, &program).expect("parse_args admits registry names");
    let code = run_monitored(&program, &opts, ext);
    ExitCode::from(code.clamp(0, 255) as u8)
}
