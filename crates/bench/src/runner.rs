//! Shared simulation runners for the table/figure binaries.

use std::path::{Path, PathBuf};

use flexcore::ext::Extension;
use flexcore::obs::{MetricsRecorder, NullSink, TraceSink};
use flexcore::{RunResult, System, SystemConfig};
use flexcore_mem::{MainMemory, SystemBus};
use flexcore_pipeline::{Core, CoreConfig, ExitReason};
use flexcore_telemetry::{PhaseProfiler, PhaseStats};
use flexcore_workloads::Workload;

use crate::swap::{build_extension, SWAPPABLE};

/// Instruction budget per simulation (well above any workload's need;
/// hitting it is treated as a failed run).
pub const MAX_INSTRUCTIONS: u64 = 200_000_000;

/// The four extensions of the paper's Table IV columns: a view of the
/// first four [`SWAPPABLE`] registry entries, which are in column order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExtKind {
    /// Uninitialized memory check.
    Umc,
    /// Dynamic information flow tracking.
    Dift,
    /// Array bound check.
    Bc,
    /// Soft error check.
    Sec,
}

impl ExtKind {
    /// The four extensions in the paper's column order.
    pub const ALL: [ExtKind; 4] = [ExtKind::Umc, ExtKind::Dift, ExtKind::Bc, ExtKind::Sec];

    /// Paper column name.
    pub fn name(self) -> &'static str {
        match self {
            ExtKind::Umc => "UMC",
            ExtKind::Dift => "DIFT",
            ExtKind::Bc => "BC",
            ExtKind::Sec => "SEC",
        }
    }

    /// Registry key: the name [`build_extension`] constructs this
    /// extension under.
    pub fn key(self) -> &'static str {
        SWAPPABLE[self as usize]
    }

    /// The fabric clock divisor the paper uses for this extension
    /// (§V.C: UMC/DIFT/BC at 0.5X, SEC at 0.25X).
    pub fn paper_divisor(self) -> u32 {
        match self {
            ExtKind::Sec => 4,
            _ => 2,
        }
    }
}

/// Condensed result of one monitored run.
#[derive(Clone, Copy, Debug)]
pub struct RunSummary {
    /// Total cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub instret: u64,
    /// Fraction of committed instructions forwarded to the fabric.
    pub forwarded_fraction: f64,
    /// Meta-data cache miss ratio.
    pub meta_miss_ratio: f64,
    /// Commit-stall cycles from FIFO back-pressure.
    pub fifo_stall_cycles: u64,
}

/// Runs `workload` on the bare Leon3 model and returns its cycle count.
///
/// # Panics
///
/// Panics if the workload fails its self-check (a reproduction bug).
pub fn baseline_cycles(workload: &Workload) -> u64 {
    let program = workload.program().expect("workload assembles");
    let mut mem = MainMemory::new();
    let mut bus = SystemBus::default();
    let mut core = Core::new(CoreConfig::leon3());
    core.load_program(&program, &mut mem);
    let exit = core.run(&mut mem, &mut bus, MAX_INSTRUCTIONS);
    assert_eq!(exit, ExitReason::Halt(0), "{} baseline failed", workload.name());
    core.quiesced_at()
}

/// Runs `workload` under the registry-built `ext` with `sink`
/// attached, returning the result and the finished system (for its
/// sink).
fn monitored<S: TraceSink>(
    workload: &Workload,
    ext: ExtKind,
    config: SystemConfig,
    sink: S,
) -> (RunResult, System<Box<dyn Extension>, S>) {
    let program = workload.program().expect("workload assembles");
    let monitor = build_extension(ext.key(), &program).expect("paper extensions are registered");
    let mut sys = System::with_sink(config, monitor, sink);
    sys.load_program(&program);
    let r = sys.try_run(MAX_INSTRUCTIONS).expect("simulation error");
    assert_eq!(
        r.exit,
        ExitReason::Halt(0),
        "{} under monitoring failed: {:?} / {:?}",
        workload.name(),
        r.exit,
        r.monitor_trap
    );
    (r, sys)
}

fn condense(r: &RunResult) -> RunSummary {
    RunSummary {
        cycles: r.cycles,
        instret: r.instret,
        forwarded_fraction: r.forward.forwarded_fraction(),
        meta_miss_ratio: r.meta_cache.miss_ratio(),
        fifo_stall_cycles: r.forward.fifo_stall_cycles,
    }
}

/// Runs `workload` under `ext` with the given system configuration.
///
/// # Panics
///
/// Panics if the workload fails its self-check or the monitor raises a
/// spurious trap (either is a reproduction bug — the workloads are
/// benign).
pub fn run_extension(workload: &Workload, ext: ExtKind, config: SystemConfig) -> RunSummary {
    condense(&monitored(workload, ext, config, NullSink).0)
}

/// Like [`run_extension`], but with the phase profiler attached:
/// returns the full [`RunResult`] (including `host_ns`) plus the
/// per-phase host-time attribution — the data behind `flexprof`.
pub fn run_extension_profiled(
    workload: &Workload,
    ext: ExtKind,
    config: SystemConfig,
) -> (RunResult, PhaseStats) {
    let (r, sys) = monitored(workload, ext, config, PhaseProfiler::new());
    (r, sys.into_sink().into_stats())
}

/// The paper-faithful system configuration for an extension: fabric at
/// half the core clock for UMC/DIFT/BC, a quarter for SEC (§V.C).
pub fn paper_config(ext: ExtKind) -> SystemConfig {
    match ext.paper_divisor() {
        4 => SystemConfig::fabric_quarter_speed(),
        _ => SystemConfig::fabric_half_speed(),
    }
}

/// The `--series <dir>` flag shared by the figure/table binaries: when
/// present, every monitored run also emits its cycle-resolved epoch
/// series as `<dir>/<stem>.jsonl`.
pub fn series_dir_from_args() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--series" {
            return Some(args.next().expect("--series needs a directory").into());
        }
    }
    None
}

/// Like [`run_extension`], but samples epoch metrics during the run and
/// writes them as JSONL to `<dir>/<stem>.jsonl` (creating `dir` as
/// needed). The sampled series is cross-checked against the run's final
/// aggregate counters before it is written.
///
/// # Panics
///
/// Panics on the same conditions as [`run_extension`], on an
/// epoch-vs-aggregate mismatch (an instrumentation bug), and on I/O
/// errors writing the series file.
pub fn run_extension_series(
    workload: &Workload,
    ext: ExtKind,
    config: SystemConfig,
    dir: &Path,
    stem: &str,
) -> RunSummary {
    let sampler = MetricsRecorder::new(MetricsRecorder::DEFAULT_EPOCH_CYCLES);
    let (r, sys) = monitored(workload, ext, config, sampler);
    let m = sys.into_sink();
    if let Err(e) = m.check_against(&r) {
        panic!("{stem}: epoch series disagrees with the run result: {e}");
    }
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let path = dir.join(format!("{stem}.jsonl"));
    std::fs::write(&path, m.to_jsonl(&r)).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    condense(&r)
}

/// Result of one named job executed by [`run_panic_tolerant`].
#[derive(Clone, Debug)]
pub struct JobReport<T> {
    /// The label the job was submitted under (benchmark × extension …).
    pub label: String,
    /// `Ok` with the job's value, or `Err` with the panic message.
    pub outcome: Result<T, String>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked with a non-string payload".to_string()
    }
}

/// Runs every `(label, job)` pair on its own worker thread, converting
/// worker panics into `Err(message)` reports instead of propagating
/// them — one crashing benchmark/extension combination no longer takes
/// an entire sweep down with it.
///
/// At most `available_parallelism()` jobs run at a time, and reports
/// come back in submission order.
pub fn run_panic_tolerant<T, F>(jobs: Vec<(String, F)>) -> Vec<JobReport<T>>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    run_panic_tolerant_observed(jobs, |_, _, _| {})
}

/// [`run_panic_tolerant`] with a completion callback: `on_done(done,
/// total, report)` fires on the calling thread as each job is joined
/// (in submission order within a batch), which is where `faultsweep`
/// hangs its rate/ETA progress line.
pub fn run_panic_tolerant_observed<T, F, C>(
    jobs: Vec<(String, F)>,
    mut on_done: C,
) -> Vec<JobReport<T>>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
    C: FnMut(usize, usize, &JobReport<T>),
{
    let width = std::thread::available_parallelism().map_or(4, usize::from).max(1);
    let total = jobs.len();
    let mut reports = Vec::with_capacity(total);
    let mut queue = jobs.into_iter();
    loop {
        let handles: Vec<_> = queue
            .by_ref()
            .take(width)
            .map(|(label, job)| (label, std::thread::spawn(job)))
            .collect();
        if handles.is_empty() {
            break;
        }
        for (label, handle) in handles {
            let outcome = handle.join().map_err(panic_message);
            reports.push(JobReport { label, outcome });
            on_done(reports.len(), total, reports.last().expect("just pushed"));
        }
    }
    reports
}

/// Geometric mean of a slice of ratios.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identity_is_identity() {
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        let g = geomean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn paper_divisors() {
        assert_eq!(ExtKind::Umc.paper_divisor(), 2);
        assert_eq!(ExtKind::Sec.paper_divisor(), 4);
    }

    #[test]
    fn panic_tolerant_runner_reports_and_continues() {
        // Silence the default per-thread panic backtrace for the
        // intentionally-crashing job.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let jobs: Vec<(String, Box<dyn FnOnce() -> u32 + Send>)> = vec![
            ("first".to_string(), Box::new(|| 1)),
            ("crash".to_string(), Box::new(|| panic!("sha under DIFT died"))),
            ("last".to_string(), Box::new(|| 3)),
        ];
        let reports = run_panic_tolerant(jobs);
        std::panic::set_hook(prev);

        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].outcome, Ok(1));
        assert_eq!(reports[1].label, "crash");
        let err = reports[1].outcome.as_ref().unwrap_err();
        assert!(err.contains("sha under DIFT died"), "got: {err}");
        assert_eq!(reports[2].outcome, Ok(3));
    }
}
