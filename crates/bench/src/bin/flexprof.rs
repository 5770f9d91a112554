//! `flexprof` — phase-attributed host-time profiler for the simulator
//! itself.
//!
//! Runs every workload under every paper extension (fabric at the
//! paper's clock divisor) with the
//! [`PhaseProfiler`](flexcore_telemetry::PhaseProfiler) attached and
//! writes `BENCH_profile.json`: the per-run host-time breakdown across
//! the phase taxonomy (fetch/decode, execute, fabric eval, FIFO
//! accounting, meta-cache, checkpoint, journal write/fsync), with
//! per-phase shares of attributed time plus totals across the sweep.
//! Profiled runs are not throughput evidence; the unprofiled, repeated
//! `sim_mips` of the `perfbench` harness is.
//!
//! ```text
//! flexprof [--profile FILE] [--workloads a,b]
//! flexprof check BASELINE CURRENT [--tolerance PCT]
//! ```
//!
//! `check` compares per-phase **shares** (percentage points of
//! attributed time), not absolute nanoseconds: wall-clock shifts with
//! the machine, but the *shape* of where simulation time goes should
//! not. A phase whose share moved more than the tolerance (default 20
//! points) is a regression; exit code 1. Absolute throughput is
//! reported but never gated — CI machines differ too much for that to
//! be a stable signal.

use std::collections::BTreeMap;

use flexcore_bench::{paper_config, run_extension_profiled, ExtKind};
use flexcore_telemetry::{Phase, PhaseStats};
use flexcore_workloads::Workload;
use serde::Value;

fn arg_string(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1) {
        Some(v) => Some(v.clone()),
        None => {
            eprintln!("flexprof: {name} requires a value");
            std::process::exit(2);
        }
    }
}

fn arg_f64(name: &str) -> Option<f64> {
    arg_string(name).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("flexprof: invalid value for {name}: {v}");
            std::process::exit(2);
        })
    })
}

struct ProfiledRun {
    workload: String,
    extension: &'static str,
    instret: u64,
    cycles: u64,
    host_ns: u64,
    insns_per_sec: f64,
    stats: PhaseStats,
}

fn phase_breakdown(stats: &PhaseStats) -> (Value, u64) {
    let attributed = stats.grand_total_ns();
    let mut obj = Value::object();
    for phase in Phase::all() {
        let total = stats.total_ns(phase);
        let share = if attributed == 0 { 0.0 } else { total as f64 / attributed as f64 };
        obj = obj.raw(
            phase.name(),
            Value::object()
                .field("count", &stats.count(phase))
                .field("total_ns", &total)
                .field("share", &share)
                .build(),
        );
    }
    (obj.build(), attributed)
}

fn run_sweep(workloads: &[Workload]) -> Vec<ProfiledRun> {
    let mut runs = Vec::new();
    for workload in workloads {
        for ext in ExtKind::ALL {
            let (r, stats) = run_extension_profiled(workload, ext, paper_config(ext));
            eprintln!(
                "flexprof: {:>12} x {:<4} {:>9} insns in {:>7.3}s  ({:.0} sim insns/s)",
                workload.name(),
                ext.name(),
                r.instret,
                r.host_secs(),
                r.sim_insns_per_sec(),
            );
            runs.push(ProfiledRun {
                workload: workload.name().to_string(),
                extension: ext.name(),
                instret: r.instret,
                cycles: r.cycles,
                host_ns: r.host_ns,
                insns_per_sec: r.sim_insns_per_sec(),
                stats,
            });
        }
    }
    runs
}

fn profile_doc(runs: &[ProfiledRun]) -> Value {
    let mut out = Vec::new();
    let mut totals = PhaseStats::new();
    let mut total_host_ns = 0u64;
    for run in runs {
        let (phases, attributed) = phase_breakdown(&run.stats);
        let unattributed =
            if run.host_ns == 0 { 0.0 } else { 1.0 - attributed as f64 / run.host_ns as f64 };
        out.push(
            Value::object()
                .field("workload", &run.workload)
                .field("extension", &run.extension)
                .field("instret", &run.instret)
                .field("cycles", &run.cycles)
                .field("host_ns", &run.host_ns)
                .field("host_sim_insns_per_sec", &run.insns_per_sec)
                .raw("phases", phases)
                .field("attributed_ns", &attributed)
                .field("unattributed_share", &unattributed.max(0.0))
                .build(),
        );
        totals.merge(&run.stats);
        total_host_ns = total_host_ns.saturating_add(run.host_ns);
    }
    let (total_phases, total_attributed) = phase_breakdown(&totals);
    Value::object()
        .field("bench", &"flexprof")
        .field("runs_count", &(runs.len() as u64))
        .raw("runs", Value::Array(out))
        .raw(
            "totals",
            Value::object()
                .field("host_ns", &total_host_ns)
                .field("attributed_ns", &total_attributed)
                .raw("phases", total_phases)
                .build(),
        )
        .build()
}

fn cmd_run() -> i32 {
    let path = arg_string("--profile").unwrap_or_else(|| "BENCH_profile.json".into());
    let all = Workload::all();
    let workloads: Vec<Workload> = match arg_string("--workloads") {
        Some(list) => list
            .split(',')
            .map(|name| {
                *all.iter().find(|w| w.name() == name).unwrap_or_else(|| {
                    eprintln!("flexprof: unknown workload `{name}`");
                    std::process::exit(2);
                })
            })
            .collect(),
        None => all.to_vec(),
    };
    eprintln!(
        "flexprof: profiling {} workload(s) x {} extensions",
        workloads.len(),
        ExtKind::ALL.len()
    );
    let mut text = serde::to_string_pretty(&profile_doc(&run_sweep(&workloads)));
    text.push('\n');
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("flexprof: {path}: {e}");
        return 2;
    }
    println!("flexprof: wrote {path}");
    0
}

/// `(workload, extension) -> phase -> share` from a profile document.
fn shares_by_run(doc: &Value) -> BTreeMap<(String, String), BTreeMap<String, f64>> {
    let mut out = BTreeMap::new();
    let Some(runs) = doc.get("runs").and_then(Value::as_array) else { return out };
    for run in runs {
        let (Some(w), Some(e)) = (
            run.get("workload").and_then(Value::as_str),
            run.get("extension").and_then(Value::as_str),
        ) else {
            continue;
        };
        let mut shares = BTreeMap::new();
        if let Some(Value::Object(phases)) = run.get("phases") {
            for (name, p) in phases {
                if let Some(s) = p.get("share").and_then(Value::as_f64) {
                    shares.insert(name.clone(), s);
                }
            }
        }
        out.insert((w.to_string(), e.to_string()), shares);
    }
    out
}

fn cmd_check(baseline_path: &str, current_path: &str) -> i32 {
    let tolerance_points = arg_f64("--tolerance").unwrap_or(20.0);
    let read = |path: &str| -> Value {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("flexprof: {path}: {e}");
            std::process::exit(2);
        });
        serde::from_str(&text).unwrap_or_else(|e| {
            eprintln!("flexprof: {path}: invalid JSON: {e:?}");
            std::process::exit(2);
        })
    };
    let baseline = shares_by_run(&read(baseline_path));
    let current = shares_by_run(&read(current_path));
    let mut regressions = 0u32;
    let mut compared = 0u32;
    for (key, base_shares) in &baseline {
        let Some(cur_shares) = current.get(key) else {
            eprintln!("flexprof: {}/{} missing from {current_path}", key.0, key.1);
            regressions += 1;
            continue;
        };
        for (phase, base) in base_shares {
            let cur = cur_shares.get(phase).copied().unwrap_or(0.0);
            compared += 1;
            let delta_points = (cur - base).abs() * 100.0;
            if delta_points > tolerance_points {
                eprintln!(
                    "flexprof: REGRESSION {}/{} phase `{phase}`: share {:.1}% -> {:.1}% \
                     (moved {delta_points:.1} points, tolerance {tolerance_points:.1})",
                    key.0,
                    key.1,
                    base * 100.0,
                    cur * 100.0,
                );
                regressions += 1;
            }
        }
    }
    println!(
        "flexprof check: {compared} phase shares compared across {} runs, {regressions} \
         regression(s) at {tolerance_points:.1}-point tolerance",
        baseline.len()
    );
    i32::from(regressions > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let code = match args.get(1).map(String::as_str) {
        Some("check") => match (args.get(2), args.get(3)) {
            (Some(b), Some(c)) if !b.starts_with("--") && !c.starts_with("--") => cmd_check(b, c),
            _ => {
                eprintln!("usage: flexprof check BASELINE CURRENT [--tolerance PCT]");
                2
            }
        },
        Some("--help") | Some("-h") => {
            eprintln!(
                "usage: flexprof [--profile FILE] [--workloads a,b]\n       \
                 flexprof check BASELINE CURRENT [--tolerance PCT]"
            );
            2
        }
        _ => cmd_run(),
    };
    std::process::exit(code);
}
