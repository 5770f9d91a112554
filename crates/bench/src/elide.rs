//! Static check-elision glue: turning the `flexcore_analysis` proofs
//! into an [`ElisionTable`] and verifying elided runs in lockstep
//! against full runs.
//!
//! The table maps each class of proof to the extension whose dynamic
//! check it discharges:
//!
//! | proof source                         | elision bit   |
//! |--------------------------------------|---------------|
//! | dataflow [`ProvenLoad`]s             | [`ELIDE_UMC`]  |
//! | taint `dift_elidable` PCs            | [`ELIDE_DIFT`] |
//! | CFG-recovered static `b<cond>`/`call` sites | [`ELIDE_CFI`] |
//!
//! Soundness never rests on this table alone: every extension
//! re-validates an elision candidate against the committed packet
//! ([`Extension::check_elidable`]), so a stale or wrong table costs
//! performance, not coverage. [`verify_elision`] is the belt to that
//! suspender — it runs the same program with and without the table and
//! demands bit-identical trap verdicts and architectural state.
//!
//! [`ProvenLoad`]: flexcore_analysis::ProvenLoad
//! [`Extension::check_elidable`]: flexcore::Extension::check_elidable

use flexcore::ext::Extension;
use flexcore::{ElisionTable, System, SystemConfig, ELIDE_CFI, ELIDE_DIFT, ELIDE_UMC};
use flexcore_analysis::{analyze_program, analyze_taint_cfg, Diagnostic};
use flexcore_asm::Program;
use flexcore_isa::Instruction;

use crate::swap::build_extension;

/// What [`build_elision_table`] proved, for reporting.
#[derive(Clone, Debug, Default)]
pub struct ElisionSummary {
    /// PCs carrying [`ELIDE_UMC`] (loads proven always-initialized).
    pub umc_pcs: usize,
    /// PCs carrying [`ELIDE_DIFT`] (taint steps proven no-ops).
    pub dift_pcs: usize,
    /// PCs carrying [`ELIDE_CFI`] (statically resolved `b<cond>`/`call`
    /// sites).
    pub cfi_pcs: usize,
    /// `true` when the taint pass forfeited its elision set (reachable
    /// `cpop` or unresolvable indirect jump); `dift_pcs` is then 0.
    pub taint_forfeited: bool,
    /// The taint pass's sink findings (tainted jumps/stores), sorted
    /// and deduplicated.
    pub taint_diagnostics: Vec<Diagnostic>,
}

/// Runs the dataflow and taint passes over `program` and folds their
/// proofs into a per-PC elision table (see the [module docs](self) for
/// the proof → bit mapping).
pub fn build_elision_table(program: &Program) -> (ElisionTable, ElisionSummary) {
    let report = analyze_program(program);
    let taint = analyze_taint_cfg(&report.cfg);
    let mut table = ElisionTable::new();
    let mut summary = ElisionSummary {
        taint_forfeited: taint.forfeited,
        taint_diagnostics: taint.diagnostics.clone(),
        ..ElisionSummary::default()
    };

    for proven in &report.proven_loads {
        table.set(proven.pc, ELIDE_UMC);
        summary.umc_pcs += 1;
    }
    if !taint.forfeited {
        for &pc in &taint.dift_elidable {
            table.set(pc, ELIDE_DIFT);
            summary.dift_pcs += 1;
        }
    }
    // Every static `b<cond>`/`call` site the CFG recovered: the CFI
    // extension re-derives the target from the committed packet and
    // certifies it against its own edge table, so listing a site here
    // is safe even if a fault corrupts the displacement in flight.
    for (pc, inst) in report.cfg.instructions() {
        if matches!(inst, Instruction::Branch { .. } | Instruction::Call { .. })
            && table.mask(pc) & ELIDE_CFI == 0
        {
            table.set(pc, ELIDE_CFI);
            summary.cfi_pcs += 1;
        }
    }
    (table, summary)
}

/// Outcome of one [`verify_elision`] lockstep comparison.
#[derive(Clone, Debug)]
pub struct ElisionVerdict {
    /// Lowercase extension name that was verified.
    pub ext: String,
    /// Checks the elided run discharged statically.
    pub elided_checks: u64,
    /// Packets the full run forwarded to the fabric.
    pub full_forwarded: u64,
    /// Packets the elided run still forwarded.
    pub elided_forwarded: u64,
    /// First observed divergence, `None` when the runs are equivalent.
    pub divergence: Option<String>,
}

impl ElisionVerdict {
    /// `true` when the elided run matched the full run exactly.
    pub fn is_clean(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Runs `program` under `ext_name` twice — once unmodified, once with
/// `table` installed — and compares trap verdicts, architectural
/// state, and the forwarding invariant
/// `elided.forwarded + elided_checks == full.forwarded`.
///
/// When a monitor trap fires, only the trap verdict (PC + reason) is
/// compared: the imprecise TRAP skid means post-trap timing-dependent
/// state legitimately differs. Errors (unknown extension, simulation
/// error) come back as `Err`; a divergence is a clean `Ok` with
/// `divergence: Some(..)`.
pub fn verify_elision(
    program: &Program,
    ext_name: &str,
    table: &ElisionTable,
    max_instructions: u64,
) -> Result<ElisionVerdict, String> {
    let run = |elide: bool| -> Result<_, String> {
        let ext = build_extension(ext_name, program)
            .ok_or_else(|| format!("unknown extension `{ext_name}`"))?;
        let mut sys: System<Box<dyn Extension>> =
            System::new(SystemConfig::fabric_half_speed(), ext);
        sys.load_program(program);
        if elide {
            sys.set_elision(table.clone());
        }
        let result = sys
            .try_run(max_instructions)
            .map_err(|e| format!("{ext_name}: {} run failed: {e}", which(elide)))?;
        let snap = sys.snapshot();
        Ok((result, snap))
    };
    let (full, full_snap) = run(false)?;
    let (elided, elided_snap) = run(true)?;

    let mut divergence = None;
    let mut diverge = |what: &str, full: String, elided: String| {
        if divergence.is_none() && full != elided {
            divergence = Some(format!("{what}: full={full} elided={elided}"));
        }
    };

    diverge(
        "monitor_trap",
        format!("{:?}", full.monitor_trap),
        format!("{:?}", elided.monitor_trap),
    );
    let forwarded_with_elided = elided.forward.forwarded + elided.resilience.elided_checks;
    diverge(
        "forwarded+elided invariant",
        full.forward.forwarded.to_string(),
        forwarded_with_elided.to_string(),
    );
    if full.monitor_trap.is_none() {
        diverge("exit", format!("{:?}", full.exit), format!("{:?}", elided.exit));
        diverge("instret", full.instret.to_string(), elided.instret.to_string());
        diverge(
            "console",
            String::from_utf8_lossy(&full.console).into_owned(),
            String::from_utf8_lossy(&elided.console).into_owned(),
        );
        diverge(
            "regs",
            format!("{:?}", full_snap.core.regs),
            format!("{:?}", elided_snap.core.regs),
        );
        diverge("icc", full_snap.core.icc.to_string(), elided_snap.core.icc.to_string());
        diverge(
            "pc",
            format!("{:#010x}", full_snap.core.pc),
            format!("{:#010x}", elided_snap.core.pc),
        );
        diverge(
            "npc",
            format!("{:#010x}", full_snap.core.npc),
            format!("{:#010x}", elided_snap.core.npc),
        );
        if full_snap.mem_pages != elided_snap.mem_pages {
            diverge(
                "memory",
                format!("{} dirty pages", full_snap.mem_pages.len()),
                format!("{} dirty pages (contents differ)", elided_snap.mem_pages.len()),
            );
        }
        diverge("shadow", format!("{:?}", full_snap.shadow), format!("{:?}", elided_snap.shadow));
    }

    Ok(ElisionVerdict {
        ext: ext_name.to_string(),
        elided_checks: elided.resilience.elided_checks,
        full_forwarded: full.forward.forwarded,
        elided_forwarded: elided.forward.forwarded,
        divergence,
    })
}

fn which(elide: bool) -> &'static str {
    if elide {
        "elided"
    } else {
        "full"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swap::elidable;
    use flexcore_workloads::Workload;

    #[test]
    fn bitcount_table_has_all_three_classes() {
        let program = Workload::bitcount().program().expect("assembles");
        let (table, summary) = build_elision_table(&program);
        assert!(summary.umc_pcs > 0, "dataflow proves some loads");
        assert!(summary.cfi_pcs > 0, "CFG recovers static branch/call sites");
        assert!(!table.is_empty());
        assert_eq!(
            table.pcs_with(ELIDE_UMC).count(),
            summary.umc_pcs,
            "summary counts match table contents"
        );
    }

    #[test]
    fn verify_is_clean_on_bitcount_for_every_elidable_extension() {
        let program = Workload::bitcount().program().expect("assembles");
        let (table, _) = build_elision_table(&program);
        for ext in elidable() {
            let verdict = verify_elision(&program, ext, &table, 2_000_000).expect("runs complete");
            assert!(
                verdict.is_clean(),
                "{ext} diverged: {}",
                verdict.divergence.unwrap_or_default()
            );
            assert_eq!(
                verdict.elided_forwarded + verdict.elided_checks,
                verdict.full_forwarded,
                "{ext}: every elided check accounts for one unfowarded packet"
            );
        }
    }

    #[test]
    fn elision_discharges_checks_on_bitcount_umc() {
        let program = Workload::bitcount().program().expect("assembles");
        let (table, _) = build_elision_table(&program);
        let verdict = verify_elision(&program, "umc", &table, 2_000_000).expect("runs");
        assert!(verdict.elided_checks > 0, "proven loads actually elide UMC checks");
    }
}
