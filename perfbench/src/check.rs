//! `static-check`: per kernel, assembly and the static analyses behind
//! check elision; per swappable extension, the netlist → lint → LUT map
//! → bitstream round trip → consistency proof flow and a netlist
//! evaluation over a captured packet stream. The work lands in
//! `analysis` and `fabric`, which `monitor-sweep` never touches.

use flexcore::obs::PacketTap;
use flexcore::{Extension, System, SystemConfig};
use flexcore_analysis::{analyze_program, analyze_taint, cfi_edges, lint_netlist, Diagnostic};
use flexcore_asm::assemble;
use flexcore_bench::elide::build_elision_table;
use flexcore_bench::swap::{build_extension, LUT_K, SWAPPABLE};
use flexcore_bench::{paper_config, ExtKind};
use flexcore_fabric::{from_bitstream, map_to_luts, to_bitstream, verify_consistent};
use flexcore_workloads::Workload;

use crate::probes::Own;
use crate::sweep::{Kernel, Leg, Mon, Sweep, MONITORS};
use crate::table4_cells;
use crate::util::{
    closed_loop, lanes, metric, report, setup_secs, timed, Digest, EndToEnd, Gate, Metric, Report,
    Tracer,
};

/// Forwarded packets captured per extension for netlist evaluation.
pub const TAP_PACKETS: usize = 2048;
/// Instruction cap of a capture run (enough for [`TAP_PACKETS`] under
/// every extension).
const CAPTURE_INSNS: u64 = 40_000;
/// Steps between two side samples of the clean legs behind `sim_mips`.
const SIDE_EVERY: usize = 8;

/// The kernel whose packet streams are captured and whose clean legs
/// are sampled (short, and slowed differently by every Table IV
/// extension).
fn capture_kernel() -> Workload {
    Workload::sha()
}

/// One swappable extension with its captured stimulus.
pub struct Ext {
    pub name: &'static str,
    pub ext: Box<dyn Extension>,
    /// `vcd_stimulus` of every captured packet, one vector per packet.
    pub vectors: Vec<Vec<bool>>,
}

pub struct Setup {
    /// Generated assembly source of every Table IV kernel.
    pub sources: Vec<(Workload, String)>,
    pub exts: Vec<Ext>,
    /// The capture kernel, for the side legs.
    pub kernel: Kernel,
    /// Simulated digest of the capture runs.
    capture_digest: String,
    /// Gate verdict of each capture run.
    verdicts: Vec<Option<String>>,
}

fn paper_ext(name: &str) -> Option<ExtKind> {
    ExtKind::ALL.into_iter().find(|e| e.name().eq_ignore_ascii_case(name))
}

/// Generates every kernel's source and captures, for each swappable
/// extension, the first [`TAP_PACKETS`] packets it is forwarded while
/// monitoring the capture kernel at its paper clock.
pub fn setup() -> Setup {
    let sources: Vec<(Workload, String)> =
        Workload::all().into_iter().map(|w| (w, w.source())).collect();
    let kernel = Kernel::new(capture_kernel());
    let mut verdicts = Vec::new();
    let mut capture_digest = String::new();
    let mut exts = Vec::new();
    for name in SWAPPABLE {
        let ext = build_extension(name, &kernel.program).expect("swappable names build");
        let config = paper_ext(name).map_or_else(SystemConfig::fabric_half_speed, paper_config);
        let mut sys = System::with_sink(config, ext, PacketTap::new(TAP_PACKETS));
        sys.load_program(&kernel.program);
        match sys.try_run(CAPTURE_INSNS) {
            Ok(mut r) => {
                verdicts.push(r.monitor_trap.as_ref().map(|t| format!("{name} capture: {t}")));
                r.host_ns = 0;
                capture_digest.push_str(&format!("{r:?}"));
            }
            Err(e) => verdicts.push(Some(format!("{name} capture: {e}"))),
        }
        let packets = sys.into_sink();
        let ext = build_extension(name, &kernel.program).expect("swappable names build");
        let vectors = packets.packets().iter().map(|p| ext.vcd_stimulus(p)).collect();
        exts.push(Ext { name, ext, vectors });
    }
    Setup { sources, exts, kernel, capture_digest, verdicts }
}

/// One operation of a pass.
#[derive(Clone, Copy)]
pub enum Step {
    Kernel(usize),
    Ext(usize),
}

fn errors(diags: &[Diagnostic]) -> usize {
    diags.iter().filter(|d| d.is_error()).count()
}

/// Runs one step; returns its canonical summary (what later passes
/// must reproduce exactly) and its gate verdict.
pub fn step(setup: &Setup, s: Step, tr: &mut Tracer) -> (String, Option<String>) {
    match s {
        Step::Kernel(i) => {
            let (w, src) = &setup.sources[i];
            let program = match tr.span("asm.assemble", || assemble(src)) {
                Ok(p) => p,
                Err(e) => return (String::new(), Some(format!("{}: {e}", w.name()))),
            };
            let report = tr.span("analysis.analyze_program", || analyze_program(&program));
            let taint = tr.span("analysis.taint", || analyze_taint(&program));
            let edges = tr.span("analysis.cfi_edges", || cfi_edges(&program));
            let (table, summary) =
                tr.span("flexcore.elide.build_table", || build_elision_table(&program));
            let text = format!(
                "{} {:?} {} {:?} {} {} {:?} {:?} {} {} {}",
                w.name(),
                report.diagnostics,
                report.proven_loads.len(),
                taint.diagnostics,
                taint.dift_elidable.len(),
                taint.forfeited,
                edges.branch_edges,
                edges.call_targets,
                summary.umc_pcs,
                summary.dift_pcs,
                table.pcs_with(flexcore::ELIDE_CFI).count(),
            );
            let breach = (!report.is_clean()).then(|| {
                format!("{}: {} analysis error(s)", w.name(), errors(&report.diagnostics))
            });
            (text, breach)
        }
        Step::Ext(j) => {
            let e = &setup.exts[j];
            let nl = tr.span("fabric.netlist_build", || e.ext.netlist());
            let lint = tr.span("analysis.lint_netlist", || lint_netlist(&nl, LUT_K));
            let mapping = tr.span("fabric.map_to_luts", || map_to_luts(&nl, LUT_K));
            let (bytes, decoded) = tr.span("fabric.bitstream_roundtrip", || {
                let bytes = to_bitstream(&mapping);
                let decoded = from_bitstream(&bytes).map(|m| (to_bitstream(&m) == bytes, m));
                (bytes, decoded)
            });
            let Ok((same, decoded)) = decoded else {
                return (String::new(), Some(format!("{}: bitstream does not decode", e.name)));
            };
            let verified = tr.span("fabric.verify_consistent", || verify_consistent(&nl, &decoded));
            let eval = tr.span("fabric.netlist_eval", || {
                let mut state = nl.initial_state();
                let mut d = Digest::new();
                for v in &e.vectors {
                    let out: Vec<u8> = nl.eval(v, &mut state).into_iter().map(u8::from).collect();
                    d.bytes(&out);
                }
                d.value()
            });
            let mut bd = Digest::new();
            bd.bytes(&bytes);
            let text = format!(
                "{} {} {} {:?} {} {} {:016x} {:016x}",
                e.name,
                nl.logic_gates(),
                nl.flops(),
                lint,
                mapping.lut_count(),
                mapping.depth(),
                bd.value(),
                eval
            );
            let breach = if errors(&lint) > 0 {
                Some(format!("{}: {} netlist lint error(s)", e.name, errors(&lint)))
            } else if !same {
                Some(format!("{}: bitstream does not round-trip", e.name))
            } else {
                verified.err().map(|err| format!("{}: {err}", e.name))
            };
            (text, breach)
        }
    }
}

pub fn steps(setup: &Setup) -> Vec<Step> {
    (0..setup.sources.len()).map(Step::Kernel).chain((0..setup.exts.len()).map(Step::Ext)).collect()
}

/// Steps between two repeats of the set-up (see
/// [`crate::util::setup_secs`]).
const SETUP_EVERY: usize = 40;

/// The `asm`, `analysis`, `flexcore.elide` and `fabric` costs: the time
/// per pass in each layer, from the spans `tr` recorded over `passes`
/// passes over every step.
pub fn span_layers(setup: &Setup, tr: &Tracer, passes: usize) -> Vec<Metric> {
    let per_pass_ms = |span: &str| tr.sum_ns(span) / passes as f64 / 1e6;
    let mut out: Vec<Metric> = [
        ("asm.assemble_ms", "asm.assemble"),
        ("analysis.analyze_program_ms", "analysis.analyze_program"),
        ("analysis.taint_ms", "analysis.taint"),
        ("analysis.cfi_edges_ms", "analysis.cfi_edges"),
        ("analysis.lint_netlist_ms", "analysis.lint_netlist"),
        ("flexcore.elide.build_table_ms", "flexcore.elide.build_table"),
        ("fabric.netlist_build_ms", "fabric.netlist_build"),
        ("fabric.map_to_luts_ms", "fabric.map_to_luts"),
        ("fabric.bitstream_roundtrip_ms", "fabric.bitstream_roundtrip"),
        ("fabric.verify_consistent_ms", "fabric.verify_consistent"),
    ]
    .into_iter()
    .map(|(name, span)| metric(name, per_pass_ms(span), "ms"))
    .collect();
    let vectors: usize = setup.exts.iter().map(|e| e.vectors.len()).sum();
    out.push(metric(
        "fabric.netlist_eval_ns_per_vector",
        tr.sum_ns("fabric.netlist_eval") / (passes * vectors) as f64,
        "ns",
    ));
    out
}

/// The `static-check` workload. Traced, its lane-1 spans give the time
/// per pass in each layer.
pub fn workload(seed: u64, seconds: f64, tr: &mut Tracer) -> Report {
    let lanes = lanes(tr.on());
    let (setup, first) = timed(setup);
    let mut setup_s = vec![first as f64 / 1e9];
    // The capture kernel's clean legs, sampled beside the steps: bare
    // and under every monitor. They give `sim_mips` and the kernel's
    // Table IV cells.
    let side_kernels = [setup.kernel.clone()];
    let mut side = Sweep::new(
        std::iter::once(Mon::Bare)
            .chain(MONITORS)
            .map(|mon| Leg { kernel: 0, mon, elide: false })
            .collect(),
    );
    // Warm-up: one untimed pass.
    for s in steps(&setup) {
        let _ = step(&setup, s, &mut Tracer::new(false));
    }
    let all = steps(&setup);
    let mut summaries: Vec<Option<String>> = vec![None; all.len()];
    let mut gate = Gate::default();
    for v in &setup.verdicts {
        gate.check(v.clone());
    }
    let mut off = Tracer::new(false);
    let mut calls = 0;
    let timing = closed_loop(all.len(), seed, seconds, lanes, |i, lane| {
        calls += 1;
        if calls % SIDE_EVERY == 0 {
            side.next(&side_kernels, lane, &mut gate);
        }
        if calls % SETUP_EVERY == 0 {
            setup_s.push(setup_secs(self::setup));
        }
        let t = if lane == 1 { &mut *tr } else { &mut off };
        let ((text, breach), ns) = timed(|| step(&setup, all[i], t));
        gate.check(match &summaries[i] {
            None => {
                summaries[i] = Some(text);
                breach
            }
            Some(prev) if *prev != text => Some(format!("step {i}: repeat differs from the first")),
            Some(_) => None,
        });
        ns
    });
    side.judge(&side_kernels, lanes, &mut gate);
    let (slowdown_x, table4_err) = table4_cells(&side.cells(&side_kernels));
    let mut d = Digest::new();
    d.text(&format!("{:016x}", side.digest(&side_kernels)));
    d.text(&setup.capture_digest);
    for s in &summaries {
        d.text(s.as_deref().unwrap_or(""));
    }
    let e2e: Vec<EndToEnd> = timing
        .op_ms
        .into_iter()
        .enumerate()
        .map(|(lane, op_ms)| EndToEnd {
            sim_mips: side.sim_mips(lane),
            slowdown_x,
            table4_err,
            op_ms,
        })
        .collect();
    report(gate, d.value(), &setup_s, &e2e, || {
        crate::probes::layers(seed, Own::Check(span_layers(&setup, tr, timing.passes)))
    })
}

/// This workload's per-layer metrics from one traced pass over every
/// step, for the traced run of another workload.
pub fn pass_layers() -> Vec<Metric> {
    let setup = setup();
    let mut tr = Tracer::new(true);
    for s in steps(&setup) {
        let _ = step(&setup, s, &mut tr);
    }
    span_layers(&setup, &tr, 1)
}
