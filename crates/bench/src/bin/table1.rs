//! Regenerates the paper's **Table I** (example FlexCore co-processing
//! extensions: meta-data, transparent operations, software-visible
//! operations) from the extension descriptors, and — with
//! `--interface` — **Table II** (the core–fabric interface fields).

use flexcore::interface::{ffifo_entry_bits, FieldDirection, FIELDS};
use flexcore_asm::assemble;
use flexcore_bench::swap::build_extension;
use flexcore_bench::ExtKind;

fn print_table1(extended: bool) {
    println!("Table I: example FlexCore co-processing extensions");
    println!("{}", "=".repeat(78));
    let mut keys: Vec<&str> = ExtKind::ALL.iter().map(|k| k.key()).collect();
    if extended {
        // Beyond the paper: extensions this reproduction adds.
        keys.push("mprot");
    }
    // Only CFI reads the program (for its edge table).
    let program = assemble("start: ta 0").expect("one-instruction program assembles");
    for key in keys {
        let ext = build_extension(key, &program).expect("table extensions are registered");
        let d = ext.descriptor();
        println!("\n[{}] {}", d.abbrev, d.name);
        println!("  Meta-data:");
        if d.meta_data.is_empty() {
            println!("    (none)");
        }
        for (i, m) in d.meta_data.iter().enumerate() {
            println!("    {}. {m}", i + 1);
        }
        println!("  Transparent operations:");
        for (i, m) in d.transparent_ops.iter().enumerate() {
            println!("    {}. {m}", i + 1);
        }
        println!("  SW-visible operations:");
        for (i, m) in d.sw_visible_ops.iter().enumerate() {
            println!("    {}. {m}", i + 1);
        }
        println!(
            "  CFGR: forwards {} of 32 instruction classes; {} pipeline stages",
            ext.cfgr().forwarded_classes().count(),
            ext.pipeline_stages(),
        );
    }
}

fn print_table2() {
    println!("\nTable II: the FlexCore interface between the core and the fabric");
    println!("{}", "=".repeat(78));
    println!("{:<16}{:<8}{:<9}{:>5}  Description", "Direction", "Module", "Field", "Bits");
    println!("{}", "-".repeat(78));
    for f in FIELDS {
        let dir = match f.direction {
            FieldDirection::Config => "Config",
            FieldDirection::CoreToFabric => "Core->Fabric",
            FieldDirection::FabricToCore => "Fabric->Core",
        };
        println!("{:<16}{:<8}{:<9}{:>5}  {}", dir, f.module, f.name, f.bits, f.description);
    }
    println!("{}", "-".repeat(78));
    println!("FFIFO entry payload: {} bits per forwarded instruction", ffifo_entry_bits());
}

fn main() {
    print_table1(std::env::args().any(|a| a == "--extended"));
    if std::env::args().any(|a| a == "--interface") {
        print_table2();
    } else {
        println!("\n(run with --interface to also print Table II;");
        println!(" --extended adds the extensions beyond the paper's four)");
    }
}
