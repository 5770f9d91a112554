//! Shared simulation runners for the table/figure binaries.

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex};

use flexcore::ext::Extension;
use flexcore::obs::{MetricsRecorder, NullSink, TraceSink};
use flexcore::{RunResult, System, SystemConfig};
use flexcore_pipeline::ExitReason;
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

/// Runs `workload` on the unmodified Leon3 (Table IV's baseline): the
/// registry's `nop` extension, whose CFGR forwards nothing, under
/// `config`. Only `config.core` matters; no packet reaches the fabric.
///
/// # Panics
///
/// Panics if the workload fails its self-check (a reproduction bug).
pub fn run_baseline(workload: &Workload, config: SystemConfig) -> RunResult {
    monitored(workload, "nop", config, NullSink).0
}

/// The cycle count of [`run_baseline`] on the paper's Leon3.
pub fn baseline_cycles(workload: &Workload) -> u64 {
    run_baseline(workload, SystemConfig::fabric_full_speed()).cycles
}

/// Runs `workload` under the registry entry `key` with `sink`
/// attached, returning the result and the finished system (for its
/// sink).
fn monitored<S: TraceSink>(
    workload: &Workload,
    key: &str,
    config: SystemConfig,
    sink: S,
) -> (RunResult, System<Box<dyn Extension>, S>) {
    let program = workload.program().expect("workload assembles");
    let monitor = build_extension(key, &program).expect("runner extensions are registered");
    let mut sys = System::with_sink(config, monitor, sink);
    sys.load_program(&program);
    let r = sys.try_run(MAX_INSTRUCTIONS).expect("simulation error");
    assert_eq!(
        r.exit,
        ExitReason::Halt(0),
        "{} under {key} failed: {:?} / {:?}",
        workload.name(),
        r.exit,
        r.monitor_trap
    );
    (r, sys)
}

/// Runs `workload` under `ext` with the given system configuration.
///
/// With `series = Some((dir, stem))` the run also samples epoch
/// metrics and writes them as JSONL to `<dir>/<stem>.jsonl` (creating
/// `dir` as needed), after cross-checking the sampled series against
/// the run's final aggregate counters.
///
/// # Panics
///
/// Panics if the workload fails its self-check or the monitor raises a
/// spurious trap (either is a reproduction bug — the workloads are
/// benign), on an epoch-vs-aggregate mismatch (an instrumentation
/// bug), and on I/O errors writing the series file.
pub fn run_extension(
    workload: &Workload,
    ext: ExtKind,
    config: SystemConfig,
    series: Option<(&Path, &str)>,
) -> RunResult {
    let Some((dir, stem)) = series else {
        return monitored(workload, ext.key(), config, NullSink).0;
    };
    let sampler = MetricsRecorder::new(MetricsRecorder::DEFAULT_EPOCH_CYCLES);
    let (r, sys) = monitored(workload, ext.key(), config, sampler);
    let m = sys.into_sink();
    if let Err(e) = m.check_against(&r) {
        panic!("{stem}: epoch series disagrees with the run result: {e}");
    }
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let path = dir.join(format!("{stem}.jsonl"));
    std::fs::write(&path, m.to_jsonl(&r)).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    r
}

/// Like [`run_extension`], but with the phase profiler attached:
/// returns the full [`RunResult`] (including `host_ns`) plus the
/// per-phase host-time attribution — the data behind `flexprof`.
pub fn run_extension_profiled(
    workload: &Workload,
    ext: ExtKind,
    config: SystemConfig,
) -> (RunResult, PhaseStats) {
    let (r, sys) = monitored(workload, ext.key(), config, PhaseProfiler::new());
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

/// Runs every `(label, job)` pair on a pool of worker threads,
/// converting job panics into `Err(message)` reports instead of
/// propagating them — one crashing benchmark/extension combination no
/// longer takes an entire sweep down with it.
///
/// `available_parallelism()` scoped workers pull jobs from one shared
/// queue, so no core idles while a job is still queued, and jobs may
/// borrow from the caller. Reports come back in submission order.
/// `on_done` sees each report on the calling thread as soon as it and
/// every earlier job have finished, also in submission order, which is
/// where `faultsweep` appends the trial to its progress journal.
pub fn run_panic_tolerant<T, F>(
    jobs: Vec<(String, F)>,
    mut on_done: impl FnMut(&JobReport<T>),
) -> Vec<JobReport<T>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let width = std::thread::available_parallelism().map_or(4, usize::from).max(1);
    let workers = width.min(jobs.len());
    // Each job carries the sending end of its own result channel.
    let (queue, pending): (Vec<_>, Vec<_>) = jobs
        .into_iter()
        .map(|(label, job)| {
            let (done, result) = mpsc::channel();
            ((job, done), (label, result))
        })
        .unzip();
    let queue = Mutex::new(queue.into_iter());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // The guard drops at the end of this statement: a job
                // never runs, or panics, with the queue locked.
                let next = queue.lock().expect("no job runs with the queue locked").next();
                let Some((job, done)) = next else { break };
                let outcome = panic::catch_unwind(AssertUnwindSafe(job)).map_err(panic_message);
                // The receiving end lives until the scope ends.
                let _ = done.send(outcome);
            });
        }
        pending
            .into_iter()
            .map(|(label, result)| {
                let outcome = result.recv().expect("every dequeued job sends its outcome");
                let report = JobReport { label, outcome };
                on_done(&report);
                report
            })
            .collect()
    })
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
        // More jobs than the pool has workers, so each worker takes
        // several jobs from the queue.
        let width = std::thread::available_parallelism().map_or(4, usize::from).max(1);
        let mut jobs: Vec<(String, Box<dyn FnOnce() -> u32 + Send>)> = vec![
            ("first".to_string(), Box::new(|| 1)),
            ("crash".to_string(), Box::new(|| panic!("sha under DIFT died"))),
        ];
        for i in 2..=2 * width as u32 + 1 {
            jobs.push((format!("job {i}"), Box::new(move || i + 1)));
        }
        let n = jobs.len();
        let mut seen = Vec::new();
        let reports = run_panic_tolerant(jobs, |rep| seen.push(rep.clone()));
        std::panic::set_hook(prev);

        assert_eq!(reports.len(), n);
        assert_eq!(reports[0].outcome, Ok(1));
        assert_eq!(reports[1].label, "crash");
        let err = reports[1].outcome.as_ref().unwrap_err();
        assert!(err.contains("sha under DIFT died"), "got: {err}");
        for (i, rep) in reports.iter().enumerate().skip(2) {
            assert_eq!(rep.outcome, Ok(i as u32 + 1), "{}", rep.label);
        }
        // The callback saw every report once, in submission order,
        // the panicked job included.
        let pairs = |r: &[JobReport<u32>]| {
            r.iter().map(|r| (r.label.clone(), r.outcome.clone())).collect::<Vec<_>>()
        };
        assert_eq!(pairs(&seen), pairs(&reports));
    }

    #[test]
    fn a_free_worker_takes_the_next_queued_job() {
        // Job 0 blocks until job `width` runs. A pool that ran fixed
        // batches of `width` jobs would start job `width` only after
        // job 0 gave up waiting.
        let width = std::thread::available_parallelism().map_or(4, usize::from).max(1);
        if width == 1 {
            return;
        }
        let (signal, wait) = mpsc::channel();
        let mut jobs: Vec<(String, Box<dyn FnOnce() -> bool + Send>)> = vec![(
            "waits".to_string(),
            Box::new(move || wait.recv_timeout(std::time::Duration::from_secs(5)).is_ok()),
        )];
        for i in 1..width {
            jobs.push((format!("job {i}"), Box::new(|| true)));
        }
        jobs.push(("signals".to_string(), Box::new(move || signal.send(()).is_ok())));
        let reports = run_panic_tolerant(jobs, |_| {});
        assert_eq!(reports[0].outcome, Ok(true), "job 0 never saw job {width} run");
        assert!(reports.iter().all(|r| r.outcome == Ok(true)));
    }
}
