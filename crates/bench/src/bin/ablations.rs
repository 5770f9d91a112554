//! Ablation study of the FlexCore design choices called out in the
//! paper:
//!
//! * **Core-side pre-decode** (§III.C): "our DIFT prototype can run 30%
//!   faster by performing the instruction decoding for operands and
//!   control signals on the core side" — ablated by making the fabric
//!   decode the raw instruction word itself (one extra fabric cycle
//!   per packet).
//! * **Bit-granular meta-data writes** (§III.D): "without this feature,
//!   a co-processor needs to perform an explicit cache read and then an
//!   explicit cache write in order to update meta-data" — ablated by
//!   turning every masked write into a read-modify-write pair.
//! * **Decoupled execution** (§III.B): the FIFO lets the core commit
//!   without waiting for the fabric — ablated by requiring an
//!   acknowledgment per forwarded instruction (precise exceptions).
//! * **Meta-data cache capacity**: the paper's prototype uses 4 KB;
//!   swept here from 1 KB to 16 KB.
//!
//! ```sh
//! cargo run --release -p flexcore-bench --bin ablations
//! ```

use flexcore::SystemConfig;
use flexcore_bench::{baseline_cycles, geomean, run_extension, ExtKind};
use flexcore_workloads::Workload;

fn sweep(label: &str, cfg: SystemConfig, workloads: &[Workload], baselines: &[u64], ext: ExtKind) {
    let ratios: Vec<f64> = workloads
        .iter()
        .zip(baselines)
        .map(|(w, &b)| run_extension(w, ext, cfg, None).cycles as f64 / b as f64)
        .collect();
    println!("  {:<44}{:>8.3}", label, geomean(&ratios));
}

fn main() {
    let workloads = vec![Workload::sha(), Workload::stringsearch(), Workload::bitcount()];
    let baselines: Vec<u64> = workloads.iter().map(baseline_cycles).collect();

    println!("Ablations (geomean normalized time over sha/stringsearch/bitcount)");
    println!("{}", "=".repeat(60));

    for ext in [ExtKind::Dift, ExtKind::Bc] {
        let base_cfg = SystemConfig::fabric_half_speed();
        println!("\n{} at 0.5X fabric clock:", ext.name());
        sweep("FlexCore as proposed", base_cfg, &workloads, &baselines, ext);
        sweep(
            "- no core-side pre-decode (fabric decodes)",
            base_cfg.without_core_decode(),
            &workloads,
            &baselines,
            ext,
        );
        sweep(
            "- no bit-masked meta writes (RMW pairs)",
            base_cfg.without_masked_writes(),
            &workloads,
            &baselines,
            ext,
        );
        sweep(
            "- no decoupling (ack per instruction)",
            base_cfg.with_precise_exceptions(),
            &workloads,
            &baselines,
            ext,
        );
    }

    println!("\nMeta-data cache capacity (BC at 0.25X — a saturated fabric, where");
    println!("meta misses cost throughput directly — on stringsearch, whose");
    println!("24-KB meta footprint exceeds the default 4-KB cache):");
    let w = [Workload::stringsearch()];
    let b = [baseline_cycles(&w[0])];
    for kb in [1u32, 2, 4, 8, 16, 32] {
        let cfg = SystemConfig::fabric_quarter_speed().with_meta_cache_bytes(kb * 1024);
        sweep(&format!("{kb} KB meta cache"), cfg, &w, &b, ExtKind::Bc);
    }

    println!("\nExpected shapes: each removed mechanism costs performance; the");
    println!("pre-decode ablation hits DIFT hardest (the paper's 30% note);");
    println!("the RMW ablation hits store/allocation-heavy monitoring; the");
    println!("no-decoupling ablation is the most expensive of all. The cache");
    println!("sweep is nearly flat below the footprint size: streaming meta");
    println!("access is compulsory-miss-bound, so only a cache that holds the");
    println!("whole footprint (32 KB) helps — evidence for the paper's choice");
    println!("of a small 4-KB meta cache.");
}
