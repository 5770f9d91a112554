//! `flexcheck` — static verification of both halves of the FlexCore
//! artifact, cross-checked against the dynamic monitors.
//!
//! ```text
//! flexcheck [OPTIONS] [workload ...]
//!
//! OPTIONS:
//!   --json <file>   write the findings as a JSON artifact
//!   --xcheck        additionally run every selected workload under the
//!                   UMC extension and fail if the dynamic monitor
//!                   traps on a load the static pass proved initialized
//!   --taint         run the interprocedural taint pass and report the
//!                   check-elision table it proves (tainted-jump /
//!                   tainted-store findings plus per-class PC counts)
//!   --emit-elision <dir>  write each workload's elision table to
//!                   `<dir>/<workload>.elision.json` (implies --taint)
//!   --verify-elision  run every selected workload under each elidable
//!                   registry extension twice — full and with the
//!                   elision table — and fail on any divergence
//!                   (implies --taint)
//!   --max <N>       instruction budget for --xcheck / --verify-elision
//!                   runs (default 200M)
//!   --quiet         print only errors and the per-target summary
//!
//! With no workload arguments, all six paper kernels are analyzed
//! (sha gmac stringsearch fft basicmath bitcount). The netlist of every
//! `swap::SWAPPABLE` extension is always linted.
//! ```
//!
//! Exit codes: `0` clean, `1` at least one error-severity finding,
//! `2` usage or harness failure, `3` static/dynamic contradiction in
//! `--xcheck` mode or lockstep divergence in `--verify-elision` mode.
//!
//! The `--xcheck` soundness direction: the static must-initialize
//! analysis under-approximates (it only *proves* loads whose address
//! it resolves to the loaded image), so every proven load must be
//! silent under UMC. A UMC trap at a proven location means one of the
//! two oracles is wrong — either the analysis proved too much or the
//! monitor's tag pipeline lost an initialization — and either way the
//! build must not ship.
//!
//! The hot-swap direction: every swappable extension's bitstream is
//! rehearsed once — map, serialize, decode — with the decoded mapping
//! proven consistent against a fresh technology mapping of its
//! netlist, and every ordered pair is reported with the configuration
//! frames each side shifts in. A pair with a side that fails would
//! brick a mid-run `--swap-at` between those extensions.

use std::collections::BTreeSet;
use std::process::ExitCode;

use flexcore::{System, SystemConfig};
use flexcore_analysis::{analyze_program, lint_netlist, AnalysisReport, Diagnostic, Severity};
use flexcore_bench::elide::{build_elision_table, verify_elision};
use flexcore_bench::swap::{build_extension, elidable, LUT_K, SWAPPABLE};
use flexcore_bench::ExtKind;
use flexcore_fabric::{
    from_bitstream, map_to_luts, to_bitstream, verify_consistent, Netlist, FRAME_BYTES,
};
use flexcore_workloads::Workload;

struct Options {
    workloads: Vec<String>,
    json: Option<String>,
    xcheck: bool,
    taint: bool,
    emit_elision: Option<String>,
    verify_elision: bool,
    max: u64,
    quiet: bool,
}

impl Options {
    /// `true` when any mode needing the taint pass and elision table is
    /// on (`--emit-elision` / `--verify-elision` imply `--taint`).
    fn wants_elision(&self) -> bool {
        self.taint || self.emit_elision.is_some() || self.verify_elision
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        json: None,
        xcheck: false,
        taint: false,
        emit_elision: None,
        verify_elision: false,
        max: 200_000_000,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => opts.json = Some(args.next().ok_or("--json needs a file")?),
            "--xcheck" => opts.xcheck = true,
            "--taint" => opts.taint = true,
            "--emit-elision" => {
                opts.emit_elision = Some(args.next().ok_or("--emit-elision needs a directory")?);
            }
            "--verify-elision" => opts.verify_elision = true,
            "--max" => {
                opts.max = args
                    .next()
                    .ok_or("--max needs a value")?
                    .parse()
                    .map_err(|e| format!("--max: {e}"))?;
            }
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => return Err("help".into()),
            other if !other.starts_with('-') => opts.workloads.push(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(opts)
}

fn selected_workloads(opts: &Options) -> Result<Vec<Workload>, String> {
    let all: Vec<Workload> = Workload::all().into_iter().chain(Workload::extra()).collect();
    if opts.workloads.is_empty() {
        return Ok(Workload::all().into_iter().collect());
    }
    opts.workloads
        .iter()
        .map(|name| {
            all.iter()
                .find(|w| w.name() == name)
                .copied()
                .ok_or_else(|| format!("unknown workload `{name}`"))
        })
        .collect()
}

/// Severity counts of one finding list.
fn tally(diags: &[Diagnostic]) -> (usize, usize, usize) {
    let count = |s| diags.iter().filter(|d| d.severity == s).count();
    (count(Severity::Error), count(Severity::Warning), count(Severity::Info))
}

fn print_findings(target: &str, diags: &[Diagnostic], quiet: bool) {
    for d in diags {
        if !quiet || d.is_error() {
            println!("{target}: {d}");
        }
    }
    let (e, w, i) = tally(diags);
    println!("[{target}] {e} error(s), {w} warning(s), {i} note(s)");
}

fn diag_json(d: &Diagnostic) -> serde::Value {
    let mut obj =
        serde::Value::object().field("rule", &d.rule.id()).field("severity", &d.severity.name());
    if let Some(a) = d.addr {
        obj = obj.field("addr", &a);
    }
    obj.field("message", &d.message.as_str()).build()
}

fn findings_json(name: &str, diags: &[Diagnostic]) -> serde::Value {
    let (e, w, i) = tally(diags);
    serde::Value::object()
        .field("name", &name)
        .field("errors", &(e as u64))
        .field("warnings", &(w as u64))
        .field("infos", &(i as u64))
        .raw("diagnostics", serde::Value::Array(diags.iter().map(diag_json).collect()))
        .build()
}

/// Analyzes one workload program; returns the report for xcheck reuse.
fn check_workload(w: Workload, opts: &Options) -> Result<AnalysisReport, String> {
    let program = w.program().map_err(|e| format!("{}: {e}", w.name()))?;
    let report = analyze_program(&program);
    print_findings(w.name(), &report.diagnostics, opts.quiet);
    if !opts.quiet {
        println!(
            "[{}] {} blocks, {} reachable instructions, {} proven load(s)",
            w.name(),
            report.cfg.blocks().len(),
            report.cfg.code_len(),
            report.proven_loads.len()
        );
    }
    Ok(report)
}

/// Rehearses the bitstream a mid-run swap to `netlist` programs: map,
/// serialize, decode, and prove the decoded mapping consistent against
/// a fresh mapping of the netlist. Returns the number of configuration
/// frames the swap shifts in.
fn rehearse_bitstream(netlist: &Netlist) -> Result<usize, String> {
    let bytes = to_bitstream(&map_to_luts(netlist, LUT_K));
    let decoded = from_bitstream(&bytes)
        .map_err(|e| format!("{}: bitstream does not round-trip: {e}", netlist.name()))?;
    verify_consistent(netlist, &decoded)
        .map_err(|e| format!("{}: decoded mapping: {e}", netlist.name()))?;
    Ok(bytes.len().div_ceil(FRAME_BYTES))
}

/// Result of one `--xcheck` run.
struct XcheckRow {
    workload: String,
    proven: usize,
    forwarded_loads: u64,
    trap: Option<String>,
    contradiction: bool,
}

/// Runs `w` under UMC and compares the dynamic trap (if any) against
/// the static proven-load set.
fn xcheck_workload(w: Workload, report: &AnalysisReport, max: u64) -> Result<XcheckRow, String> {
    let program = w.program().map_err(|e| format!("{}: {e}", w.name()))?;
    let umc = build_extension(ExtKind::Umc.key(), &program).expect("umc is registered");
    let mut sys = System::new(SystemConfig::fabric_half_speed(), umc);
    sys.load_program(&program);
    let r = sys.try_run(max).map_err(|e| format!("{}: {e}", w.name()))?;
    let proven: BTreeSet<u32> = report.proven_loads.iter().map(|p| p.pc).collect();
    let loads = [
        flexcore_isa::InstrClass::Ld,
        flexcore_isa::InstrClass::Ldub,
        flexcore_isa::InstrClass::Lduh,
        flexcore_isa::InstrClass::Ldsb,
        flexcore_isa::InstrClass::Ldsh,
    ]
    .iter()
    .map(|&c| r.forward.class_count(c))
    .sum();
    let contradiction = r.monitor_trap.as_ref().is_some_and(|t| proven.contains(&t.pc));
    Ok(XcheckRow {
        workload: w.name().to_string(),
        proven: proven.len(),
        forwarded_loads: loads,
        trap: r.monitor_trap.as_ref().map(|t| t.to_string()),
        contradiction,
    })
}

fn run() -> Result<u8, String> {
    let opts = parse_args()?;
    let workloads = selected_workloads(&opts)?;

    let mut any_error = false;
    let mut program_values = Vec::new();
    let mut reports = Vec::new();
    for &w in &workloads {
        let report = check_workload(w, &opts)?;
        any_error |= !report.is_clean();
        program_values.push(findings_json(w.name(), &report.diagnostics));
        reports.push(report);
    }

    // Every registry entry's datapath. CFI's (CAM lookups + class
    // decode) does not depend on its edge table contents, so any
    // kernel's program builds the netlist every instance uses.
    let program = Workload::bitcount().program().map_err(|e| format!("bitcount: {e}"))?;
    let netlists: Vec<Netlist> = SWAPPABLE
        .into_iter()
        .map(|name| build_extension(name, &program).expect("registry names build").netlist())
        .collect();
    let mut netlist_values = Vec::new();
    for netlist in &netlists {
        let diags = lint_netlist(netlist, LUT_K);
        print_findings(netlist.name(), &diags, opts.quiet);
        any_error |= diags.iter().any(Diagnostic::is_error);
        netlist_values.push(findings_json(netlist.name(), &diags));
    }

    // Every ordered pair (including A -> A, the bitstream-refresh case)
    // needs both bitstreams to program; each is rehearsed once.
    let rehearsed: Vec<Result<usize, String>> = netlists.iter().map(rehearse_bitstream).collect();
    let mut swap_values = Vec::new();
    let mut swap_failures = 0usize;
    for (from, from_result) in netlists.iter().zip(&rehearsed) {
        for (to, to_result) in netlists.iter().zip(&rehearsed) {
            let (from_frames, to_frames, error) = match (from_result, to_result) {
                (Err(e), _) => (0, 0, Some(e)),
                (Ok(f), Err(e)) => (*f, 0, Some(e)),
                (Ok(f), Ok(t)) => (*f, *t, None),
            };
            match error {
                Some(e) => {
                    swap_failures += 1;
                    println!("[swap {} -> {}] ERROR: {e}", from.name(), to.name());
                }
                None if !opts.quiet => println!(
                    "[swap {} -> {}] ok ({from_frames} then {to_frames} frame(s))",
                    from.name(),
                    to.name()
                ),
                None => {}
            }
            let mut obj = serde::Value::object()
                .field("from", &from.name())
                .field("to", &to.name())
                .field("from_frames", &(from_frames as u64))
                .field("to_frames", &(to_frames as u64))
                .field("ok", &error.is_none());
            if let Some(e) = error {
                obj = obj.field("error", &e.as_str());
            }
            swap_values.push(obj.build());
        }
    }
    any_error |= swap_failures > 0;
    println!(
        "[swap-pairs] {} ordered pair(s) rehearsed, {} failure(s)",
        netlists.len() * netlists.len(),
        swap_failures
    );

    let mut contradictions = 0usize;
    let mut xcheck_values = Vec::new();
    if opts.xcheck {
        for (w, report) in workloads.iter().zip(&reports) {
            let row = xcheck_workload(*w, report, opts.max)?;
            println!(
                "[xcheck {}] {} proven load(s) static, {} loads forwarded to UMC, {}",
                row.workload,
                row.proven,
                row.forwarded_loads,
                match (&row.trap, row.contradiction) {
                    (None, _) => "no monitor trap".to_string(),
                    (Some(t), false) => format!("trap outside the proven set: {t}"),
                    (Some(t), true) => format!("CONTRADICTION: {t} at a statically proven load"),
                }
            );
            contradictions += usize::from(row.contradiction);
            let mut obj = serde::Value::object()
                .field("workload", &row.workload.as_str())
                .field("static_proven_loads", &(row.proven as u64))
                .field("dynamic_forwarded_loads", &row.forwarded_loads)
                .field("contradiction", &row.contradiction);
            if let Some(t) = &row.trap {
                obj = obj.field("monitor_trap", &t.as_str());
            }
            xcheck_values.push(obj.build());
        }
    }

    let mut divergences = 0usize;
    let mut taint_values = Vec::new();
    let elidable = elidable();
    if opts.wants_elision() {
        if let Some(dir) = &opts.emit_elision {
            std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        }
        for &w in &workloads {
            let program = w.program().map_err(|e| format!("{}: {e}", w.name()))?;
            let (table, summary) = build_elision_table(&program);
            let target = format!("taint {}", w.name());
            print_findings(&target, &summary.taint_diagnostics, opts.quiet);
            println!(
                "[elide {}] {} UMC, {} DIFT, {} CFI PC(s) elidable{}",
                w.name(),
                summary.umc_pcs,
                summary.dift_pcs,
                summary.cfi_pcs,
                if summary.taint_forfeited { " (taint forfeited its elision set)" } else { "" }
            );
            let mut obj = serde::Value::object()
                .field("workload", &w.name())
                .field("umc_pcs", &(summary.umc_pcs as u64))
                .field("dift_pcs", &(summary.dift_pcs as u64))
                .field("cfi_pcs", &(summary.cfi_pcs as u64))
                .field("taint_forfeited", &summary.taint_forfeited)
                .raw(
                    "diagnostics",
                    serde::Value::Array(summary.taint_diagnostics.iter().map(diag_json).collect()),
                );
            if let Some(dir) = &opts.emit_elision {
                let path = format!("{dir}/{}.elision.json", w.name());
                std::fs::write(&path, table.to_json()).map_err(|e| format!("{path}: {e}"))?;
                if !opts.quiet {
                    println!("[elide {}] wrote {} entries to {path}", w.name(), table.len());
                }
                obj = obj.field("table", &path.as_str());
            }
            let mut verify_values = Vec::new();
            if opts.verify_elision {
                for &ext in &elidable {
                    let v = verify_elision(&program, ext, &table, opts.max)?;
                    match &v.divergence {
                        Some(d) => {
                            divergences += 1;
                            println!("[verify {} {ext}] DIVERGENCE: {d}", w.name());
                        }
                        None => println!(
                            "[verify {} {ext}] ok: {} of {} check(s) elided, verdict identical",
                            w.name(),
                            v.elided_checks,
                            v.full_forwarded
                        ),
                    }
                    let mut row = serde::Value::object()
                        .field("extension", &ext)
                        .field("elided_checks", &v.elided_checks)
                        .field("full_forwarded", &v.full_forwarded)
                        .field("elided_forwarded", &v.elided_forwarded)
                        .field("ok", &v.is_clean());
                    if let Some(d) = &v.divergence {
                        row = row.field("divergence", &d.as_str());
                    }
                    verify_values.push(row.build());
                }
                obj = obj.raw("verify", serde::Value::Array(verify_values));
            }
            taint_values.push(obj.build());
        }
        if opts.verify_elision {
            println!(
                "[verify-elision] {} workload(s) x {} extension(s), {} divergence(s)",
                workloads.len(),
                elidable.len(),
                divergences
            );
        }
    }

    if let Some(path) = &opts.json {
        let mut artifact = serde::Value::object()
            .field("version", &1u64)
            .raw("programs", serde::Value::Array(program_values))
            .raw("netlists", serde::Value::Array(netlist_values))
            .raw("swaps", serde::Value::Array(swap_values));
        if opts.xcheck {
            artifact = artifact.raw("xcheck", serde::Value::Array(xcheck_values));
        }
        if opts.wants_elision() {
            artifact = artifact.raw("elision", serde::Value::Array(taint_values));
        }
        std::fs::write(path, serde::to_string_pretty(&artifact.build()))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote findings to {path}");
    }

    if contradictions > 0 {
        eprintln!(
            "{contradictions} static/dynamic contradiction(s): the static analysis and the \
             UMC monitor disagree"
        );
        return Ok(3);
    }
    if divergences > 0 {
        eprintln!("{divergences} lockstep divergence(s): an elided run did not match its full run");
        return Ok(3);
    }
    Ok(u8::from(any_error))
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            eprintln!(
                "usage: flexcheck [--json FILE] [--xcheck] [--taint] [--emit-elision DIR]\n\
                 \x20                [--verify-elision] [--max N] [--quiet] [workload ...]\n\
                 \x20      workloads default to: sha gmac stringsearch fft basicmath bitcount"
            );
            ExitCode::from(2)
        }
    }
}
