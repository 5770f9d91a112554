//! Regenerates the paper's **Table IV**: execution time of every
//! benchmark under every extension, normalized to the unmonitored
//! baseline, with the fabric at 1X (the ASIC configuration), 0.5X, and
//! 0.25X of the core clock. The paper's published cells are printed
//! alongside.
//!
//! `--software` additionally runs the §V.C software-instrumentation
//! baselines on each benchmark.
//!
//! `--series <dir>` additionally writes each monitored run's
//! cycle-resolved epoch metrics as
//! `<dir>/table4_<workload>_<ext>_<clock>.jsonl`.

use flexcore::software::{run_software_monitored, SoftwareMonitor};
use flexcore::SystemConfig;
use flexcore_bench::{
    baseline_cycles, geomean, paper, run_extension, run_panic_tolerant, series_dir_from_args,
    ExtKind, MAX_INSTRUCTIONS,
};
use flexcore_workloads::Workload;

fn main() {
    let software = std::env::args().any(|a| a == "--software");
    let series = series_dir_from_args();
    let configs = [
        ("1X", SystemConfig::fabric_full_speed()),
        ("0.5X", SystemConfig::fabric_half_speed()),
        ("0.25X", SystemConfig::fabric_quarter_speed()),
    ];

    // All simulations run up front on worker threads; a panicking
    // benchmark × extension combination is reported at the end instead
    // of killing the whole table.
    let workloads = Workload::all();
    let baselines = run_panic_tolerant(
        workloads
            .iter()
            .map(|w| (format!("{} baseline", w.name()), || baseline_cycles(w)))
            .collect(),
        |_| {},
    );
    let series = series.as_deref();
    let mut jobs = Vec::new();
    for w in &workloads {
        for ext in ExtKind::ALL {
            for (cname, cfg) in configs {
                let stem = format!(
                    "table4_{}_{}_{}",
                    w.name(),
                    ext.name().to_lowercase(),
                    cname.to_lowercase()
                );
                jobs.push((format!("{} under {} at {cname}", w.name(), ext.name()), move || {
                    run_extension(w, ext, cfg, series.map(|d| (d, stem.as_str())))
                }));
            }
        }
    }
    let runs = run_panic_tolerant(jobs, |_| {});

    println!("Table IV: normalized execution time (measured, with paper values in parentheses)");
    println!("{}", "=".repeat(118));
    print!("{:<14}", "Benchmark");
    for ext in ExtKind::ALL {
        print!("| {:<24}", format!("{} 1X/0.5X/0.25X", ext.name()));
    }
    println!();
    println!("{}", "-".repeat(118));

    // geomean accumulators: [ext][clock]
    let mut ratios: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 3]; 4];
    let mut failures: Vec<String> = Vec::new();

    for (wi, workload) in workloads.iter().enumerate() {
        let base = match &baselines[wi].outcome {
            Ok(cycles) => Some(*cycles),
            Err(msg) => {
                failures.push(format!("{}: {msg}", baselines[wi].label));
                None
            }
        };
        print!("{:<14}", workload.name());
        for (ei, ext) in ExtKind::ALL.into_iter().enumerate() {
            let paper_cells = paper::TABLE_IV[wi].cells(ext);
            let mut cells = String::new();
            for ci in 0..3 {
                let report = &runs[(wi * ExtKind::ALL.len() + ei) * configs.len() + ci];
                match (&report.outcome, base) {
                    (Ok(run), Some(base)) => {
                        let ratio = run.cycles as f64 / base as f64;
                        ratios[ei][ci].push(ratio);
                        cells.push_str(&format!("{:.2}({:.2}) ", ratio, paper_cells[ci]));
                    }
                    (Err(msg), _) => {
                        failures.push(format!("{}: {msg}", report.label));
                        cells.push_str("died ");
                    }
                    (Ok(_), None) => cells.push_str("n/a "),
                }
            }
            print!("| {cells:<24}");
        }
        println!();
    }

    println!("{}", "-".repeat(118));
    print!("{:<14}", "geomean");
    for (ei, ext) in ExtKind::ALL.into_iter().enumerate() {
        let paper_cells = paper::TABLE_IV[6].cells(ext);
        let mut cells = String::new();
        for ci in 0..3 {
            if ratios[ei][ci].is_empty() {
                cells.push_str("n/a ");
            } else {
                cells.push_str(&format!(
                    "{:.2}({:.2}) ",
                    geomean(&ratios[ei][ci]),
                    paper_cells[ci]
                ));
            }
        }
        print!("| {cells:<24}");
    }
    println!();
    if !failures.is_empty() {
        println!("\n{} run(s) died (panic caught; other rows unaffected):", failures.len());
        for f in &failures {
            println!("  {f}");
        }
    }
    println!(
        "\nPaper's operating points: UMC/DIFT/BC run the fabric at 0.5X, SEC at 0.25X.\n\
         The 1X column corresponds to the full-ASIC implementations."
    );

    if software {
        println!("\nSoftware monitoring baselines (same core, instrumented; §V.C):");
        println!("{}", "-".repeat(84));
        print!("{:<14}", "Benchmark");
        for ext in ExtKind::ALL {
            print!("{:>12}", format!("{} sw", ext.name()));
        }
        println!();
        let monitors = [
            SoftwareMonitor::umc(),
            SoftwareMonitor::dift(),
            SoftwareMonitor::bc(),
            SoftwareMonitor::sec(),
        ];
        let mut sw_ratios: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for workload in Workload::all() {
            let base = baseline_cycles(&workload);
            let program = workload.program().expect("assembles");
            print!("{:<14}", workload.name());
            for (mi, monitor) in monitors.iter().enumerate() {
                let sw = run_software_monitored(monitor, &program, MAX_INSTRUCTIONS);
                let ratio = sw.cycles as f64 / base as f64;
                sw_ratios[mi].push(ratio);
                print!("{:>11.2}x", ratio);
            }
            println!();
        }
        print!("{:<14}", "geomean");
        for r in &sw_ratios {
            print!("{:>11.2}x", geomean(r));
        }
        println!();
        println!("\nPaper's quoted software comparison points:");
        for (name, quote) in paper::SOFTWARE_QUOTES {
            println!("  {name}: {quote}");
        }
    }
}
