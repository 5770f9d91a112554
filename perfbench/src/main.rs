//! `perfbench` — the FlexCore reproduction's benchmark.
//!
//! ```text
//! perfbench --workload <monitor-sweep|fault-campaign|static-check>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload on one thread, as a closed loop: each
//! operation starts after the previous one finishes. Inputs derive from
//! `--seed` only. Every run prints a metric table, the workload's
//! simulated-behaviour digest, and, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` measures the end-to-end metrics with no spans recorded.
//! * `--trace 1` alternates untraced passes with passes that record spans
//!   around the calls into each layer; it reports the traced passes as
//!   `traced.*`, their gap to the untraced passes of the same run as
//!   `trace.overhead_x.*`, and every per-layer metric: those of the
//!   layers the workload exercises from its own spans, the rest as
//!   [`probes`] describes.
//!
//! The correctness gate runs outside every timed region; any breach is
//! a failed operation, and the process then exits 1.

mod campaign;
mod check;
mod host;
mod probes;
mod sweep;
mod util;

use flexcore_bench::paper::TABLE_IV;
use flexcore_bench::ExtKind;

use util::{geomean, Metric, Report, Tracer};

const WORKLOADS: [&str; 3] = ["monitor-sweep", "fault-campaign", "static-check"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    let seed = value("--seed")?.parse().map_err(|_| "--seed takes an unsigned integer")?;
    let seconds: u32 = value("--seconds")?.parse().map_err(|_| "--seconds takes an integer")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    Ok(Args { workload, seed, seconds: f64::from(seconds), trace })
}

/// The paper's Table IV value for `benchmark` under `ext` at the paper
/// clock (§V.C: 0.5X for UMC/DIFT/BC, 0.25X for SEC).
pub fn paper_cell(benchmark: &str, ext: ExtKind) -> f64 {
    let row = TABLE_IV.iter().find(|r| r.benchmark == benchmark).expect("kernel is in Table IV");
    let col = if ext.paper_divisor() == 4 { 2 } else { 1 };
    match ext {
        ExtKind::Umc => row.umc[col],
        ExtKind::Dift => row.dift[col],
        ExtKind::Bc => row.bc[col],
        ExtKind::Sec => row.sec[col],
    }
}

/// `(slowdown_x, table4_err)` over `(simulated, paper)` slowdown cells:
/// the geomean slowdown and the geomean of |ln(simulated / paper)|.
pub fn table4_cells(cells: &[(f64, f64)]) -> (f64, f64) {
    let sims: Vec<f64> = cells.iter().map(|c| c.0).collect();
    let errs: Vec<f64> = cells.iter().map(|(s, p)| (s / p).ln().abs()).collect();
    (geomean(&sims), geomean(&errs))
}

fn json_number(v: f64) -> String {
    // The gate already failed if a metric came out non-finite; JSON has
    // no NaN, so such a value prints as 0.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_report(args: &Args, report: &Report) {
    println!(
        "perfbench {} seed {} trace {}: {} ops, {} failed",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.gate.attempted,
        report.gate.failures.len()
    );
    for f in report.gate.failures.iter().take(10) {
        println!("  FAILED {f}");
    }
    for m in &report.metrics {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if !report.untraced.is_empty() {
        println!("  untraced lane of the same run:");
        for m in &report.untraced {
            println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    println!("  host reference workload: median {:.0} ns", host::reference_median_ns());
    println!(
        "digest {} {:016x} ops_total {} ops_failed {}",
        args.workload,
        report.digest,
        report.gate.attempted,
        report.gate.failures.len()
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|Metric { name, value, unit }| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    let failed =
        report.gate.failures.len() + report.metrics.iter().filter(|m| !m.value.is_finite()).count();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        report.gate.attempted.max(1),
        failed,
        metrics.join(", ")
    );
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    for _ in 0..3 {
        host::calibrate();
    }
    let mut tr = Tracer::new(args.trace);
    let report = match args.workload.as_str() {
        "monitor-sweep" => sweep::workload(args.seed, args.seconds, &mut tr),
        "fault-campaign" => campaign::workload(args.seed, args.seconds, &mut tr),
        _ => check::workload(args.seed, args.seconds, &mut tr),
    };
    print_report(&args, &report);
    let failed =
        !report.gate.failures.is_empty() || report.metrics.iter().any(|m| !m.value.is_finite());
    std::process::exit(i32::from(failed));
}
