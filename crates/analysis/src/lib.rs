//! Static verification for both halves of the FlexCore artifact.
//!
//! The dynamic monitors (UMC, DIFT, BC, …) check one committed
//! instruction at a time; this crate is the complementary *static*
//! oracle. It proves properties of the artifacts before any cycle is
//! simulated, in two passes:
//!
//! * [`analyze_program`] — recovers a delay-slot-aware CFG from an
//!   assembled [`Program`] and runs
//!   must-initialize, constant-propagation, liveness, and
//!   register-window dataflow over it. Its headline diagnostic,
//!   [`Rule::UninitRead`], is the static counterpart of the UMC
//!   extension's uninitialized-read trap; its
//!   [`proven_loads`](AnalysisReport::proven_loads) are loads that UMC
//!   must *never* trap on, which the `flexcheck --xcheck` mode turns
//!   into a soundness gate against the dynamic monitor.
//! * [`lint_netlist`] — structural lint of a
//!   [`Netlist`](flexcore_fabric::Netlist) plus LUT-mapping and
//!   bitstream consistency checks.
//!
//! Findings are typed [`Diagnostic`]s with a stable [`Rule`] id and a
//! [`Severity`]; only `Error` findings gate CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod cfi;
pub mod dataflow;
pub mod diag;
pub mod netlint;
pub mod taint;

use flexcore_asm::Program;

pub use cfg::{build_cfg, Block, Cfg, Edge, TermKind};
pub use cfi::{cfi_edges, CfiEdges};
pub use dataflow::{analyze_dataflow, DataflowReport, ProvenLoad, META_BASE};
pub use diag::{Diagnostic, Rule, Severity};
pub use netlint::lint_netlist;
pub use taint::{analyze_taint, analyze_taint_cfg, Taint, TaintReport};

/// Combined result of the software-side analysis.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// All findings, sorted by (address, rule id, severity) and
    /// deduplicated.
    pub diagnostics: Vec<Diagnostic>,
    /// The recovered control-flow graph.
    pub cfg: Cfg,
    /// Loads statically proven initialized at program load (see
    /// [`ProvenLoad`]); the `--xcheck` soundness anchor.
    pub proven_loads: Vec<ProvenLoad>,
}

impl AnalysisReport {
    /// Findings at [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_error())
    }

    /// Whether the program passed (no error-severity findings).
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }
}

/// Runs the full software-side pipeline: CFG recovery, then all
/// dataflow passes.
pub fn analyze_program(program: &Program) -> AnalysisReport {
    let (cfg, mut diagnostics) = build_cfg(program);
    let dataflow = analyze_dataflow(program, &cfg);
    diagnostics.extend(dataflow.diagnostics);
    diagnostics.sort_by_key(|d| (d.addr, d.rule.id(), d.severity));
    diagnostics.dedup();
    AnalysisReport { diagnostics, cfg, proven_loads: dataflow.proven_loads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_asm::assemble;

    #[test]
    fn report_aggregates_cfg_and_dataflow_findings() {
        // One CFG finding (dead code) and one dataflow finding
        // (uninitialized read).
        let p = assemble(
            "start: ba go
                    nop
                    add %g1, 1, %g1
                    add %g2, 1, %g2
             go:    add %l5, 1, %g3
                    ta 0",
        )
        .unwrap();
        let report = analyze_program(&p);
        assert!(report.diagnostics.iter().any(|d| d.rule == Rule::UnreachableCode));
        assert!(report.diagnostics.iter().any(|d| d.rule == Rule::UninitRead));
        assert!(!report.is_clean());
    }

    #[test]
    fn clean_kernel_is_clean() {
        let p = assemble(
            "start: mov 10, %l0
                    clr %l1
             loop:  add %l1, %l0, %l1
                    subcc %l0, 1, %l0
                    bne loop
                    nop
                    set out, %l2
                    st %l1, [%l2]
                    ta 0
             out:   .space 4",
        )
        .unwrap();
        let report = analyze_program(&p);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }
}
