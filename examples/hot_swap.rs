//! Hot-swap quickstart: start a kernel under UMC, reprogram the fabric
//! to CFI mid-run without stopping the core, and watch the incoming
//! extension catch a control-flow violation the outgoing one never
//! checks for.
//!
//! ```sh
//! cargo run --example hot_swap
//! ```
//!
//! The same flow is available from the CLI:
//!
//! ```sh
//! cargo run -p flexcore-bench --bin flexsim -- program.s --ext umc --swap-at 40:cfi
//! ```

use flexcore_suite::analysis::cfi_edges;
use flexcore_suite::asm::{assemble, Program};
use flexcore_suite::fabric::{map_to_luts, to_bitstream, LUT_K};
use flexcore_suite::flexcore::ext::{Cfi, CfiTable, Extension, Umc};
use flexcore_suite::flexcore::{SwapPolicy, SwapRequest, System, SystemConfig};

/// CFI edge table recovered statically from the program's own CFG —
/// exactly what `flexsim --swap-at N:cfi` programs.
fn cfi_table(program: &Program) -> CfiTable {
    let edges = cfi_edges(program);
    let mut table = CfiTable::new();
    for &(from, to) in &edges.branch_edges {
        table.allow_branch(from, to);
    }
    for &target in &edges.call_targets {
        table.allow_call(target);
    }
    for &site in &edges.return_sites {
        table.allow_return(site);
    }
    table
}

fn run_with_swap(program: &Program, at_commit: u64) -> Result<(), Box<dyn std::error::Error>> {
    // The run starts under UMC. Boxing is what lets the system carry a
    // different extension after the swap.
    let mut sys: System<Box<dyn Extension>> =
        System::new(SystemConfig::fabric_half_speed(), Box::new(Umc::new()));
    sys.load_program(program);

    // The incoming CFI extension and the bitstream that programs its
    // datapath into the fabric.
    let cfi: Box<dyn Extension> = Box::new(Cfi::new(cfi_table(program)));
    let bitstream = to_bitstream(&map_to_luts(&cfi.netlist(), LUT_K));
    sys.schedule_swap(SwapRequest { at_commit, bitstream, ext: cfi, policy: SwapPolicy::Reset });

    let result = sys.try_run(100_000)?;
    for report in sys.swap_reports() {
        println!("  {report}");
    }
    match &result.monitor_trap {
        Some(trap) => println!("  verdict: {trap}"),
        None => println!("  verdict: clean under {}", sys.extension().name()),
    }
    // Both phases' counters: the forward/monitor accounting in the
    // summary spans the whole run — UMC's packets before the boundary,
    // CFI's after — and the "hot swaps" line is the swap's own ledger.
    print!("{}", result.summary());
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A kernel with memory traffic for UMC up front, then an indirect
    // jump. The jump target `fin` is a legitimate instruction but is
    // not a whitelisted call target or return site, so CFI — and only
    // CFI — flags the transfer.
    let program = assemble(
        "start:  set 0x9000, %o0
                 mov 8, %o1
         fill:   st %o1, [%o0]
                 ld [%o0], %o2
                 add %o0, 4, %o0
                 subcc %o1, 1, %o1
                 bne fill
                 nop
                 set fin, %g1
                 jmpl %g1, %g0
                 nop
         fin:    ta 0",
    )?;

    // A static UMC run (no swap, no trap) tells us how long the kernel
    // is; the indirect jump is its third-to-last commit.
    let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
    sys.load_program(&program);
    let static_run = sys.try_run(100_000)?;
    assert!(static_run.monitor_trap.is_none(), "UMC does not check control flow");
    let n = static_run.instret;
    println!("static UMC run: {n} commits, no trap — the rogue jump goes unnoticed\n");

    // 1. Swap once the fill loop is done: every forwarded packet before
    //    the boundary was checked by UMC, everything after — including
    //    the rogue jump — by CFI, which traps.
    println!("swap at commit 50 (indirect jump still downstream):");
    run_with_swap(&program, 50)?;

    // 2. Swap after the jump has already committed: CFI arrives too
    //    late to see it, and the run finishes clean — bit-identical to
    //    the static run from that boundary onward.
    println!("\nswap at commit {} (after the indirect jump committed):", n - 1);
    run_with_swap(&program, n - 1)?;
    Ok(())
}
