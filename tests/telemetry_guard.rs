//! The telemetry overhead contract, enforced:
//!
//! * profiling is *transparent* — a run with the [`PhaseProfiler`]
//!   sink produces the same architectural [`RunResult`] as an
//!   unprofiled one, bit for bit;
//! * the sampling is *deterministic* — which commits open a window
//!   depends only on the commit count, so two profiled runs agree on
//!   every per-phase span count;
//! * (env-gated) the profiler is *light* — a profiled run stays within
//!   1.25× of an unprofiled one, which a clock read per commit would
//!   break, and the unprofiled path is not slower than the profiled
//!   one it strictly under-works.
//!
//! The disabled path itself (`NullSink`: zero-sized, `ENABLED =
//! false`) is covered by `obs::sink`'s own unit test.
//!
//! [`PhaseProfiler`]: flexcore_suite::telemetry::PhaseProfiler
//! [`RunResult`]: flexcore_suite::flexcore::RunResult

use flexcore_suite::flexcore::ext::Umc;
use flexcore_suite::flexcore::{RunResult, System, SystemConfig};
use flexcore_suite::telemetry::{Phase, PhaseProfiler};
use flexcore_suite::workloads::Workload;

const BUDGET: u64 = 200_000_000;

fn run_disabled(workload: &Workload) -> RunResult {
    let program = workload.program().expect("assembles");
    let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
    sys.load_program(&program);
    sys.try_run(BUDGET).expect("clean run")
}

fn run_profiled(workload: &Workload) -> (RunResult, PhaseProfiler) {
    let program = workload.program().expect("assembles");
    let mut sys =
        System::with_sink(SystemConfig::fabric_half_speed(), Umc::new(), PhaseProfiler::new());
    sys.load_program(&program);
    let r = sys.try_run(BUDGET).expect("clean run");
    (r, sys.into_sink())
}

#[test]
fn profiling_is_architecturally_transparent() {
    let workload = Workload::bitcount();
    let disabled = run_disabled(&workload);
    let (profiled, prof) = run_profiled(&workload);
    // `RunResult::eq` compares every architectural field and excludes
    // only `host_ns` — so this is the bit-exactness claim.
    assert_eq!(disabled, profiled, "the profiler observed the run without changing it");
    assert!(disabled.host_ns > 0 && profiled.host_ns > 0, "both runs kept wall-clock");
    // The profiler actually attributed time to the core.
    assert!(prof.stats().total_ns(Phase::Core) > 0);
}

#[test]
fn phase_counts_are_deterministic() {
    let workload = Workload::bitcount();
    let (r, a) = run_profiled(&workload);
    let (_, b) = run_profiled(&workload);
    let (a, b, windows) = (a.stats(), b.stats(), a.windows());
    for phase in Phase::all() {
        assert_eq!(a.count(phase), b.count(phase), "{} span count", phase.name());
    }
    // Every window closes at a commit, which charges the core once.
    assert_eq!(a.count(Phase::Core), windows);
    assert!(windows > 0 && windows < r.instret, "{windows} windows over {} commits", r.instret);
    // UMC checks loads and stores, so sampled windows see its fabric.
    assert!(a.count(Phase::FabricEval) > 0 && a.count(Phase::Fifo) > 0);
}

/// Env-gated (timing on shared runners is noisy): with
/// `FLEXPROF_GUARD=1`, assert the profiled run is at most 1.25× the
/// unprofiled one, and that the unprofiled path is not slower than the
/// profiled path — it does strictly less work, so falling behind means
/// the `NullSink` path stopped being free.
#[test]
fn disabled_path_is_not_slower_than_the_profiled_path() {
    if std::env::var("FLEXPROF_GUARD").as_deref() != Ok("1") {
        eprintln!("skipping throughput guard (set FLEXPROF_GUARD=1 to enable)");
        return;
    }
    let workload = Workload::bitcount();
    // Warm-up, then best-of-3 each to shave scheduler noise.
    let _ = run_disabled(&workload);
    let disabled_ns = (0..3).map(|_| run_disabled(&workload).host_ns).min().expect("three runs");
    let profiled_ns = (0..3).map(|_| run_profiled(&workload).0.host_ns).min().expect("three runs");
    eprintln!("unprofiled {disabled_ns} ns, profiled {profiled_ns} ns");
    // 10% noise floor on top of "not slower".
    assert!(
        disabled_ns as f64 <= profiled_ns as f64 * 1.10,
        "disabled path ({disabled_ns} ns) slower than profiled path ({profiled_ns} ns): \
         the null sink has acquired real overhead"
    );
    assert!(
        profiled_ns as f64 <= disabled_ns as f64 * 1.25,
        "profiled path ({profiled_ns} ns) over 1.25x the unprofiled path ({disabled_ns} ns): \
         the profiler is reading the clock outside its sample windows"
    );
}
