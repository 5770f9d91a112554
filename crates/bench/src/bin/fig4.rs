//! Regenerates the paper's **Figure 4**: the percentage of committed
//! instructions forwarded to the reconfigurable fabric, per benchmark,
//! for each extension prototype.
//!
//! The forwarded fraction is a property of the CFGR configuration and
//! the benchmark's dynamic instruction mix, so it is independent of the
//! fabric clock; the runs use the 1X configuration.
//!
//! `--series <dir>` additionally writes each run's cycle-resolved epoch
//! metrics as `<dir>/fig4_<workload>_<ext>.jsonl`.

use flexcore::SystemConfig;
use flexcore_bench::{geomean, run_extension, series_dir_from_args, ExtKind};
use flexcore_workloads::Workload;

fn main() {
    let series = series_dir_from_args();
    println!("Figure 4: % of instructions forwarded to the fabric");
    println!("{}", "=".repeat(66));
    print!("{:<14}", "Benchmark");
    for ext in ExtKind::ALL {
        print!("{:>10}", ext.name());
    }
    println!();
    println!("{}", "-".repeat(66));
    let mut per_ext: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for workload in Workload::all() {
        print!("{:<14}", workload.name());
        for (ei, ext) in ExtKind::ALL.into_iter().enumerate() {
            let cfg = SystemConfig::fabric_full_speed();
            let stem = format!("fig4_{}_{}", workload.name(), ext.name().to_lowercase());
            let run =
                run_extension(&workload, ext, cfg, series.as_deref().map(|d| (d, stem.as_str())));
            let forwarded = run.forward.forwarded_fraction();
            per_ext[ei].push(forwarded.max(1e-6));
            print!("{:>9.1}%", forwarded * 100.0);
        }
        println!();
    }
    println!("{}", "-".repeat(66));
    print!("{:<14}", "geomean");
    for r in &per_ext {
        print!("{:>9.1}%", geomean(r) * 100.0);
    }
    println!();
    println!(
        "\nShape check vs the paper's Figure 4: UMC forwards the least\n\
         (loads/stores only); DIFT the most (loads/stores/ALU/jumps);\n\
         BC slightly below DIFT; SEC in between (ALU only)."
    );
}
