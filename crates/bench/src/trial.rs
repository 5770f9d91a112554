//! Shared fault-campaign trial machinery: the single place that knows
//! how to *generate*, *execute*, and *encode* campaign trials, for
//! `faultsweep` and the benchmark's fault-campaign workload.
//!
//! The three invariants everything here protects:
//!
//! 1. **Trial identity is the label.** `campaign1_trials` /
//!    `sweep_trials` derive every seed, fault site, and flipped bit
//!    deterministically from `(campaign seed, trial index)`, and the
//!    label encodes the position — so a record keyed by label can be
//!    reused on resume.
//! 2. **Execution is a pure function of the spec.** [`run_trial`] has
//!    no hidden state; re-running a trial anywhere (another worker,
//!    another process, another day) reproduces the outcome bit-exactly.
//! 3. **One codec.** [`outcome_record`] / [`decode_outcome`] define the
//!    JSONL trial-record shape that the
//!    [`journal`](crate::journal) appends and reads back.

use flexcore::faults::{FaultModel, FaultPlan, FaultRng, FaultSchedule, FaultTarget};
use flexcore::recovery::{FaultOutcome, RecoveryPolicy, Supervisor};
use flexcore::{Extension, RunResult, SimError, SwapPolicy, System, SystemConfig};
use flexcore_asm::Program;
use flexcore_isa::Instruction;
use flexcore_mem::{MainMemory, SystemBus};
use flexcore_pipeline::{Core, CoreConfig, ExitReason, Stepped, TracePacket};
use flexcore_workloads::Workload;
use serde::{Deserialize, Value};

use crate::swap::{build_extension, schedule, SwapPoint};
use crate::{ExtKind, MAX_INSTRUCTIONS};

/// Cycle budget per faulted run: generous (clean sha needs ~2M) but
/// bounded, so a corrupted loop counter cannot spin forever.
pub const CYCLE_BUDGET: u64 = 50_000_000;

/// The Bernoulli fault rates (faults per million commits) of the
/// rate × target sweep; rate 0 is the clean false-trap row.
pub const SWEEP_RATES: [u64; 4] = [0, 10, 100, 1000];

/// The fault targets of the rate × target sweep, with their stable
/// label fragments.
pub const SWEEP_TARGETS: [(&str, FaultTarget); 4] = [
    ("result", FaultTarget::CommitResult),
    ("register", FaultTarget::Register),
    ("fifo-pkt", FaultTarget::FifoPacket),
    ("metacache", FaultTarget::MetaCache),
];

/// What one faulted simulation did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrialOutcome {
    /// The extension raised a monitor trap.
    pub trapped: bool,
    /// The lockstep golden model caught an architectural divergence.
    pub diverged: bool,
    /// The forward-progress watchdog fired.
    pub deadlocked: bool,
    /// The cycle budget tripped before completion.
    pub over_budget: bool,
    /// Faults the injector actually struck.
    pub faults_injected: u64,
    /// Commits between injection and the trap, when both happened.
    pub trap_skid: Option<u64>,
    /// Fault-outcome triage — only populated by supervised
    /// (`recover`) trials.
    pub triage: Option<FaultOutcome>,
    /// Cycles of rolled-back work replayed by recovery — only
    /// populated by supervised trials.
    pub mttr: Option<u64>,
}

impl TrialOutcome {
    /// The fault was caught — by the extension's own trap or (under
    /// lockstep) by the golden model.
    pub fn detected(&self) -> bool {
        self.trapped || self.diverged
    }
}

/// The fault configuration of one trial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrialKind {
    /// Campaign 1: one single-bit flip of an ALU result under SEC.
    AluFlip {
        /// Per-trial seed (drives the fault stream).
        trial_seed: u64,
        /// 1-based commit index of the struck ALU op.
        site: u64,
        /// Which result bit is flipped.
        bit: u32,
    },
    /// Campaigns 2–3: Bernoulli faults at a fixed rate against one
    /// target under one extension (rate 0 = clean false-trap row).
    RateSweep {
        /// Which extension monitors the run.
        ext: ExtKind,
        /// What the injector strikes.
        target: FaultTarget,
        /// Faults per million commits (0 = no injection).
        rate: u64,
        /// Seed of the Bernoulli stream.
        plan_seed: u64,
    },
    /// Reconfig-window campaign: a UMC → CFI hot-swap scheduled at a
    /// commit boundary, with bitstream-transfer faults striking
    /// *inside* the swap window.
    SwapWindow {
        /// Per-trial seed (drives the byte offset and mask of each
        /// bitstream strike).
        trial_seed: u64,
        /// Commit boundary the swap fires at.
        at_commit: u64,
        /// `false`: a single strike on the first transfer attempt —
        /// the swap's retry machinery must absorb it. `true`: every
        /// attempt is corrupted, so the retry budget exhausts and the
        /// failure escalates through the recovery ladder, which must
        /// replay the swap deterministically.
        exhaust: bool,
    },
}

/// One fully-determined trial: workload + fault configuration + run
/// mode. [`run_trial`] on an equal spec always reproduces the same
/// [`TrialOutcome`].
#[derive(Clone, Debug)]
pub struct TrialSpec {
    /// Stable identity (resume key and log key).
    pub label: String,
    /// The workload the faulted system runs.
    pub workload: Workload,
    /// Fault configuration.
    pub kind: TrialKind,
    /// Step the ISA-level golden model commit-for-commit.
    pub lockstep: bool,
    /// Run under the rollback-and-replay [`Supervisor`] and triage the
    /// outcome (campaign-1 trials only).
    pub recover: bool,
    /// Supervisor knobs for `recover` trials.
    pub policy: RecoveryPolicy,
}

/// Campaign-wide parameters shared by every generated trial.
#[derive(Clone, Copy, Debug)]
pub struct CampaignSpec {
    /// Campaign seed — every trial seed derives from it.
    pub seed: u64,
    /// Campaign-1 trials per workload.
    pub trials: usize,
    /// Enable the lockstep golden model on every trial.
    pub lockstep: bool,
    /// Run campaign-1 trials under the supervisor with triage.
    pub recover: bool,
    /// Supervisor knobs for `recover` trials.
    pub policy: RecoveryPolicy,
}

impl Default for CampaignSpec {
    fn default() -> CampaignSpec {
        CampaignSpec {
            seed: 0xf1ec,
            trials: 100,
            lockstep: false,
            recover: false,
            policy: RecoveryPolicy::default(),
        }
    }
}

/// Campaign-1 trial list: `spec.trials` single-bit ALU-result flips per
/// workload, fault sites drawn from a clean profiling run. Labels,
/// seeds, sites, and bits are exactly the `faultsweep` derivation —
/// progress logs written by either consumer resume interchangeably.
pub fn campaign1_trials(spec: &CampaignSpec, workloads: &[Workload]) -> Vec<TrialSpec> {
    let mut out = Vec::with_capacity(spec.trials * workloads.len());
    for workload in workloads {
        let sites = profile_alu_commits(workload);
        assert!(!sites.is_empty(), "{} has ALU commits", workload.name());
        for t in 0..spec.trials {
            let trial_seed = spec.seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let site = sites[FaultRng::new(trial_seed).below(sites.len() as u64) as usize];
            let bit = FaultRng::new(trial_seed.rotate_left(17)).below(32) as u32;
            out.push(TrialSpec {
                label: format!("{} trial {t}", workload.name()),
                workload: *workload,
                kind: TrialKind::AluFlip { trial_seed, site, bit },
                lockstep: spec.lockstep,
                recover: spec.recover,
                policy: spec.policy,
            });
        }
    }
    out
}

/// Campaigns 2–3 trial list: the rate × target sweep for every
/// extension, in `workload → extension → target → rate` order (the
/// order `faultsweep` prints and records them in).
pub fn sweep_trials(spec: &CampaignSpec, workloads: &[Workload]) -> Vec<TrialSpec> {
    let mut out = Vec::new();
    for workload in workloads {
        for ext in ExtKind::ALL {
            for (tname, target) in SWEEP_TARGETS {
                for rate in SWEEP_RATES {
                    let plan_seed = spec.seed
                        ^ rate.wrapping_mul(0x2545_f491_4f6c_dd1d)
                        ^ (target_tag(target) << 48);
                    out.push(TrialSpec {
                        label: format!("{} {} {tname} rate {rate}", workload.name(), ext.name()),
                        workload: *workload,
                        kind: TrialKind::RateSweep { ext, target, rate, plan_seed },
                        lockstep: spec.lockstep,
                        recover: false,
                        policy: spec.policy,
                    });
                }
            }
        }
    }
    out
}

/// Reconfig-window trial list: `spec.trials` UMC → CFI hot-swaps per
/// workload, each at a boundary drawn deterministically from the
/// workload's commit population, alternating between a single
/// retry-absorbed bitstream strike (even trials) and full retry
/// exhaustion that exercises the recovery ladder (odd trials).
pub fn reconfig_trials(spec: &CampaignSpec, workloads: &[Workload]) -> Vec<TrialSpec> {
    let mut out = Vec::with_capacity(spec.trials * workloads.len());
    for workload in workloads {
        let sites = profile_alu_commits(workload);
        let span = *sites.last().expect("workload has commits");
        for t in 0..spec.trials {
            let trial_seed = spec.seed ^ (t as u64 + 1).wrapping_mul(0xd6e8_feb8_6659_fd93);
            let at_commit = 1 + FaultRng::new(trial_seed.rotate_left(23)).below(span);
            out.push(TrialSpec {
                label: format!("{} swap {t}", workload.name()),
                workload: *workload,
                kind: TrialKind::SwapWindow { trial_seed, at_commit, exhaust: t % 2 == 1 },
                lockstep: spec.lockstep,
                recover: spec.recover,
                policy: spec.policy,
            });
        }
    }
    out
}

fn target_tag(target: FaultTarget) -> u64 {
    match target {
        FaultTarget::CommitResult => 1,
        FaultTarget::Register => 2,
        FaultTarget::FifoPacket => 3,
        FaultTarget::MetaCache => 4,
        _ => 5,
    }
}

/// The paper's fabric-clock configuration for `ext`, with the campaign
/// cycle budget applied.
pub fn paper_config(ext: ExtKind) -> SystemConfig {
    crate::paper_config(ext).with_cycle_budget(CYCLE_BUDGET)
}

/// ALU commit indices of one clean run (the fault-site population):
/// the 1-based commit count of every `Instruction::Alu` commit, in the
/// same order `FaultSchedule::AtCommit` counts. The bare core commits
/// the same instructions in the same order as a monitored system,
/// because no instruction can observe timing.
///
/// # Panics
///
/// Panics if the clean profiling run does not exit with `Halt(0)` — a
/// reproduction bug, not a campaign outcome.
pub fn profile_alu_commits(workload: &Workload) -> Vec<u64> {
    let program = workload.program().expect("workload assembles");
    let mut mem = MainMemory::new();
    let mut bus = SystemBus::default();
    let mut core = Core::new(CoreConfig::leon3());
    core.load_program(&program, &mut mem);
    let mut pkt = TracePacket::EMPTY;
    let (mut commits, mut alu_commits) = (0, Vec::new());
    let exit = loop {
        if commits >= MAX_INSTRUCTIONS {
            break ExitReason::InstructionLimit;
        }
        match core.step_into(&mut mem, &mut bus, &mut pkt) {
            Stepped::Committed => {
                commits += 1;
                if matches!(pkt.inst, Instruction::Alu { .. }) {
                    alu_commits.push(commits);
                }
            }
            Stepped::Annulled => {}
            Stepped::Exited(exit) => break exit,
        }
    };
    assert_eq!(exit, ExitReason::Halt(0), "{} clean profiling run failed", workload.name());
    alu_commits
}

/// The clean (fault-free) reference run supervised triage compares
/// against — SEC at the paper configuration, like every campaign-1
/// trial.
///
/// # Panics
///
/// Panics if the clean run fails or traps (a reproduction bug).
pub fn reference_run(workload: &Workload) -> RunResult {
    let program = workload.program().expect("workload assembles");
    let r = paper_system(&program, ExtKind::Sec)
        .try_run(MAX_INSTRUCTIONS)
        .expect("clean reference run completes");
    assert!(r.monitor_trap.is_none(), "clean reference run must not trap");
    r
}

/// The clean reference the reconfig-window triage compares against: a
/// *swap-free* UMC run at the paper configuration. Triage compares
/// only architectural outcomes (exit reason, instret, console) — the
/// hot-swap equivalence guarantee is exactly that those are unchanged
/// by a swap at any boundary, so the swap-free run is the oracle.
///
/// # Panics
///
/// Panics if the clean run fails or traps (a reproduction bug).
pub fn swap_reference_run(workload: &Workload) -> RunResult {
    let program = workload.program().expect("workload assembles");
    let r = paper_system(&program, ExtKind::Umc)
        .try_run(MAX_INSTRUCTIONS)
        .expect("clean swap reference run completes");
    assert!(r.monitor_trap.is_none(), "clean swap reference run must not trap");
    r
}

/// `program` loaded on a system monitored by the registry-built `ext`
/// at its paper configuration.
fn paper_system(program: &Program, ext: ExtKind) -> System<Box<dyn Extension>> {
    let monitor = build_extension(ext.key(), program).expect("paper extensions are registered");
    let mut sys = System::new(paper_config(ext), monitor);
    sys.load_program(program);
    sys
}

/// The reconfig-window campaign's system: the workload under UMC with
/// a UMC → CFI hot-swap scheduled at `at_commit` (CFI's edge table
/// recovered statically from the workload's own CFG).
fn swapped_system(workload: &Workload, at_commit: u64) -> System<Box<dyn Extension>> {
    let program = workload.program().expect("workload assembles");
    let mut sys = paper_system(&program, ExtKind::Umc);
    let point = SwapPoint { at_commit, to: "cfi".into(), policy: SwapPolicy::Reset };
    schedule(&mut sys, &point, &program).expect("cfi is swappable");
    sys
}

fn outcome_of(result: Result<RunResult, SimError>) -> TrialOutcome {
    match result {
        Ok(r) => TrialOutcome {
            trapped: r.monitor_trap.is_some(),
            faults_injected: r.resilience.faults_injected,
            trap_skid: r.trap_skid,
            ..TrialOutcome::default()
        },
        Err(SimError::Divergence(_)) => TrialOutcome { diverged: true, ..TrialOutcome::default() },
        Err(SimError::Deadlock(_)) => TrialOutcome { deadlocked: true, ..TrialOutcome::default() },
        Err(_) => TrialOutcome { over_budget: true, ..TrialOutcome::default() },
    }
}

/// Arms `plan` on `sys` and runs it. A trial given a `clean` reference
/// producer runs under the rollback-and-replay supervisor and is
/// triaged against `reference`, or against `clean(workload)` when the
/// caller cached none; without one it runs plain and the outcome is
/// recorded as-is.
fn execute(
    mut sys: System<Box<dyn Extension>>,
    plan: FaultPlan,
    spec: &TrialSpec,
    reference: Option<&RunResult>,
    clean: Option<fn(&Workload) -> RunResult>,
) -> TrialOutcome {
    sys.arm_faults(plan);
    if spec.lockstep {
        sys.enable_lockstep();
    }
    let Some(clean) = clean else {
        return outcome_of(sys.try_run(MAX_INSTRUCTIONS));
    };
    let computed;
    let reference = match reference {
        Some(r) => r,
        None => {
            computed = clean(&spec.workload);
            &computed
        }
    };
    let mut sup = Supervisor::new(sys, spec.policy);
    let result = sup.run(MAX_INSTRUCTIONS);
    let report = sup.report();
    let triage = FaultOutcome::classify(report, &result, reference);
    let mut o = outcome_of(result);
    o.triage = Some(triage);
    o.mttr = Some(report.mttr_cycles);
    o
}

/// Executes one trial. Pure: equal specs produce bit-equal outcomes,
/// on any thread, in any process.
///
/// `reference` is the clean run supervised triage compares against;
/// pass a cached one to amortize it across a campaign (it is computed
/// on the spot when `None`). Non-`recover` trials ignore it.
pub fn run_trial(spec: &TrialSpec, reference: Option<&RunResult>) -> TrialOutcome {
    match &spec.kind {
        TrialKind::AluFlip { trial_seed, site, bit } => {
            let plan = FaultPlan::new(*trial_seed).inject(
                FaultTarget::CommitResult,
                FaultSchedule::AtCommit(*site),
                FaultModel::Mask(1 << bit),
            );
            let program = spec.workload.program().expect("workload assembles");
            let sys = paper_system(&program, ExtKind::Sec);
            let clean = spec.recover.then_some(reference_run as fn(&Workload) -> RunResult);
            execute(sys, plan, spec, reference, clean)
        }
        TrialKind::RateSweep { ext, target, rate, plan_seed } => {
            let mut plan = FaultPlan::new(*plan_seed);
            if *rate > 0 {
                plan = plan.inject(
                    *target,
                    FaultSchedule::Bernoulli { per_million: *rate as u32 },
                    FaultModel::BitFlip { bits: 1 },
                );
            }
            let program = spec.workload.program().expect("workload assembles");
            execute(paper_system(&program, *ext), plan, spec, None, None)
        }
        TrialKind::SwapWindow { trial_seed, at_commit, exhaust } => {
            // `exhaust` corrupts *every* transfer attempt (the retry
            // budget cannot win); otherwise exactly the first attempt
            // is struck and one retry must absorb it. Bitstream
            // schedules are evaluated against the transfer-attempt
            // index, so `AtCommit(1)` means "first transfer attempt".
            let schedule =
                if *exhaust { FaultSchedule::EveryCommits(1) } else { FaultSchedule::AtCommit(1) };
            let plan = FaultPlan::new(*trial_seed).inject(
                FaultTarget::Bitstream,
                schedule,
                FaultModel::BitFlip { bits: 1 },
            );
            let sys = swapped_system(&spec.workload, *at_commit);
            let clean = spec.recover.then_some(swap_reference_run as fn(&Workload) -> RunResult);
            execute(sys, plan, spec, reference, clean)
        }
    }
}

/// The JSONL trial record of a campaign progress journal.
pub fn outcome_record(label: &str, o: &TrialOutcome) -> Value {
    let mut obj = Value::object()
        .field("label", &label)
        .field("trapped", &o.trapped)
        .field("diverged", &o.diverged)
        .field("deadlocked", &o.deadlocked)
        .field("over_budget", &o.over_budget)
        .field("faults_injected", &o.faults_injected)
        .field("trap_skid", &o.trap_skid);
    if let Some(t) = o.triage {
        obj = obj.field("triage", &t.label()).field("mttr", &o.mttr.unwrap_or(0));
    }
    obj.build()
}

/// Key `key` of a trial record, which must be present.
fn required<T: Deserialize>(v: &Value, key: &str) -> Result<T, String> {
    T::dec(serde::field(v, "trial record", key)?, key)
}

/// Key `key` of a trial record: absent or `null` is `None`, anything
/// else must decode as a `T`.
fn optional<T: Deserialize>(v: &Value, key: &str) -> Result<Option<T>, String> {
    v.get(key).map_or(Ok(None), |x| Option::<T>::dec(x, key))
}

/// Decodes one [`outcome_record`] back into a [`TrialOutcome`].
///
/// The triage keys are absent in records written without recovery
/// (consumers keep the two modes apart via their campaign headers); a
/// key that is present must hold a value of its type.
pub fn decode_outcome(v: &Value) -> Result<TrialOutcome, String> {
    let triage = optional::<String>(v, "triage")?
        .map(|label| {
            FaultOutcome::from_label(&label)
                .ok_or_else(|| format!("`triage` = `{label}` is not a fault outcome"))
        })
        .transpose()?;
    Ok(TrialOutcome {
        trapped: required(v, "trapped")?,
        diverged: required(v, "diverged")?,
        deadlocked: required(v, "deadlocked")?,
        over_budget: required(v, "over_budget")?,
        faults_injected: required(v, "faults_injected")?,
        trap_skid: optional(v, "trap_skid")?,
        triage,
        mttr: optional(v, "mttr")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(trials: usize) -> CampaignSpec {
        CampaignSpec { trials, ..CampaignSpec::default() }
    }

    #[test]
    fn campaign1_labels_and_seeds_are_the_faultsweep_derivation() {
        let trials = campaign1_trials(&spec(3), &[Workload::bitcount()]);
        assert_eq!(trials.len(), 3);
        assert_eq!(trials[0].label, "bitcount trial 0");
        assert_eq!(trials[2].label, "bitcount trial 2");
        let TrialKind::AluFlip { trial_seed, site, bit } = trials[1].kind else {
            panic!("campaign-1 trials are ALU flips");
        };
        assert_eq!(trial_seed, 0xf1ec ^ 2u64.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        assert!(bit < 32);
        assert!(site > 0, "commit indices are 1-based");
    }

    #[test]
    fn sweep_order_is_workload_ext_target_rate() {
        let trials = sweep_trials(&spec(1), &[Workload::bitcount()]);
        assert_eq!(trials.len(), ExtKind::ALL.len() * SWEEP_TARGETS.len() * SWEEP_RATES.len());
        assert_eq!(trials[0].label, "bitcount UMC result rate 0");
        assert_eq!(trials[3].label, "bitcount UMC result rate 1000");
        assert_eq!(trials[4].label, "bitcount UMC register rate 0");
        assert_eq!(trials[16].label, "bitcount DIFT result rate 0");
        assert!(!trials[0].recover, "sweep trials never run supervised");
    }

    #[test]
    fn reconfig_trials_alternate_strike_and_exhaustion() {
        let trials = reconfig_trials(&spec(4), &[Workload::bitcount()]);
        assert_eq!(trials.len(), 4);
        assert_eq!(trials[0].label, "bitcount swap 0");
        let TrialKind::SwapWindow { at_commit, exhaust, .. } = trials[0].kind else {
            panic!("reconfig trials are swap windows");
        };
        assert!(at_commit >= 1, "boundaries are 1-based");
        assert!(!exhaust, "even trials are single retry-absorbed strikes");
        let TrialKind::SwapWindow { exhaust, .. } = trials[1].kind else {
            panic!("reconfig trials are swap windows");
        };
        assert!(exhaust, "odd trials exhaust the retry budget");
        // Identity is deterministic: regeneration yields the same runs.
        let again = reconfig_trials(&spec(4), &[Workload::bitcount()]);
        assert_eq!(trials[2].kind, again[2].kind);
        assert_eq!(trials[3].label, again[3].label);
    }

    #[test]
    fn outcome_record_roundtrips() {
        let o = TrialOutcome {
            trapped: true,
            faults_injected: 1,
            trap_skid: Some(7),
            triage: Some(FaultOutcome::DetectedRecovered),
            mttr: Some(1234),
            ..TrialOutcome::default()
        };
        let v = outcome_record("sha trial 9", &o);
        assert_eq!(v.get("label").and_then(Value::as_str), Some("sha trial 9"));
        assert_eq!(decode_outcome(&v).expect("decodes"), o);

        let plain = TrialOutcome { deadlocked: true, ..TrialOutcome::default() };
        let v = outcome_record("x", &plain);
        assert!(v.get("triage").is_none(), "triage fields only appear on supervised trials");
        assert_eq!(decode_outcome(&v).expect("decodes"), plain);
    }

    #[test]
    fn a_present_but_mistyped_key_is_refused_by_name() {
        let record = |tail: &str| {
            let json = format!(
                r#"{{"label":"x","trapped":true,"diverged":false,"deadlocked":false,"over_budget":false,"faults_injected":1{tail}}}"#
            );
            decode_outcome(&serde::from_str(&json).expect("valid JSON"))
        };
        assert_eq!(record("").map(|o| o.trap_skid), Ok(None));
        assert_eq!(record(r#","trap_skid":null"#).map(|o| o.trap_skid), Ok(None));
        for (tail, key) in [
            (r#","trap_skid":"7""#, "`trap_skid`"),
            (r#","trap_skid":null,"triage":"bogus","mttr":0"#, "`triage`"),
            (r#","trap_skid":null,"triage":"recovered","mttr":"soon""#, "`mttr`"),
            (r#","triage":7"#, "`triage`"),
        ] {
            let err = record(tail).expect_err(tail);
            assert!(err.contains(key), "{tail}: {err}");
        }
    }
}
