//! The paper's future-work question (§VII): "investigate how the
//! FlexCore approach can be applied to high-performance superscalar
//! cores where multiple instructions may execute in parallel."
//!
//! This study uses the core model's idealized commit-width knob (an
//! optimistic bound: no dependence stalls) to quantify the pressure a
//! faster core puts on the fabric: as the core commits more
//! instructions per cycle, a fabric at a fixed clock ratio must absorb
//! proportionally more packets, so monitoring overheads grow — and the
//! fabric needs a higher relative clock (or multiple packet lanes) to
//! keep up.
//!
//! ```sh
//! cargo run --release -p flexcore-bench --bin superscalar
//! ```

use flexcore::{RunResult, SystemConfig};
use flexcore_bench::{geomean, run_baseline, run_extension, ExtKind};
use flexcore_pipeline::CoreConfig;
use flexcore_workloads::Workload;

fn main() {
    let workloads = [Workload::sha(), Workload::fft(), Workload::bitcount()];
    println!("FlexCore on (idealized) superscalar cores — DIFT overheads");
    println!("{}", "=".repeat(66));
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>12}",
        "width", "base IPC", "DIFT @1X", "DIFT @0.5X", "DIFT @0.25X"
    );
    println!("{}", "-".repeat(66));
    for width in [1u32, 2, 4] {
        let core = CoreConfig::superscalar(width);
        let base = SystemConfig { core, ..SystemConfig::fabric_full_speed() };
        let baselines: Vec<RunResult> = workloads.iter().map(|w| run_baseline(w, base)).collect();
        // Base IPC (geomean) for context.
        let ipcs: Vec<f64> = baselines.iter().map(|b| b.instret as f64 / b.cycles as f64).collect();
        print!("{:>6} {:>10.2}", width, geomean(&ipcs));
        for cfg in [
            SystemConfig::fabric_full_speed(),
            SystemConfig::fabric_half_speed(),
            SystemConfig::fabric_quarter_speed(),
        ] {
            let mut cfg = cfg;
            cfg.core = core;
            let ratios: Vec<f64> = workloads
                .iter()
                .zip(&baselines)
                .map(|(w, b)| {
                    run_extension(w, ExtKind::Dift, cfg, None).cycles as f64 / b.cycles as f64
                })
                .collect();
            print!(" {:>12.3}", geomean(&ratios));
        }
        println!();
    }
    println!("{}", "-".repeat(66));
    println!(
        "Reading: at width 1 the 0.5X fabric nearly keeps up (the paper's\n\
         operating point); each doubling of core commit rate roughly\n\
         doubles the fabric's required relative throughput, so a wider\n\
         core needs a full-speed fabric — or a wider FIFO interface with\n\
         multiple packets per fabric cycle — to stay in the paper's\n\
         overhead regime. This quantifies §VII's open question on this\n\
         model's optimistic-superscalar assumptions."
    );
}
