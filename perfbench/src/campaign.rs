//! `fault-campaign`: a seeded list of fault-injection trials, each run
//! by calling `bench::trial::run_trial` directly (never through the
//! panic-tolerant worker pool). Host time lands in system construction
//! and load, checkpoint snapshot and restore, the `RefCore` golden
//! model, supervisor replay and bitstream builds; `mem` sees whole-image
//! copies and restores and code-word flips beside fetch reads.

use flexcore::ext::{Sec, Umc};
use flexcore::faults::FaultTarget;
use flexcore::{FaultOutcome, RecoveryPolicy, RunResult, System};
use flexcore_asm::Program;
use flexcore_bench::trial::{
    campaign1_trials, paper_config, reconfig_trials, run_trial, sweep_trials, CampaignSpec,
    TrialKind, TrialOutcome, TrialSpec, SWEEP_RATES,
};
use flexcore_bench::{ExtKind, MAX_INSTRUCTIONS};
use flexcore_workloads::Workload;

use crate::probes::Own;
use crate::sweep::{Kernel, Leg, Mon, Sweep};
use crate::table4_cells;
use crate::util::{
    closed_loop, lanes, metric, report, setup_secs, timed, Digest, EndToEnd, Gate, Metric, Report,
    Tracer,
};

/// The campaign's kernels: the four short Table IV kernels, so that one
/// trial stays well under a second and every trial repeats several
/// times in a run.
pub fn kernels() -> Vec<Workload> {
    vec![Workload::sha(), Workload::gmac(), Workload::basicmath(), Workload::bitcount()]
}

/// Campaign-1 ALU-flip trials per kernel (supervised, lockstep).
pub const ALU_FLIPS: usize = 6;
/// Reconfig-window trials per kernel: one retry-absorbed strike, one
/// escalated through the recovery ladder.
pub const SWAPS: usize = 2;
/// Trials between two side samples of the clean legs behind `sim_mips`.
const SIDE_EVERY: usize = 3;

/// The three trial families: name, and the span their `run_trial`
/// calls are recorded under.
pub const FAMILIES: [(&str, &str); 3] = [
    ("alu-flip", "bench.trial.run_trial.alu-flip"),
    ("rate-sweep", "bench.trial.run_trial.rate-sweep"),
    ("swap-window", "bench.trial.run_trial.swap-window"),
];

/// Index into [`FAMILIES`] of a spec's family.
pub fn family(spec: &TrialSpec) -> usize {
    match spec.kind {
        TrialKind::AluFlip { .. } => 0,
        TrialKind::RateSweep { .. } => 1,
        TrialKind::SwapWindow { .. } => 2,
    }
}

/// The rate-sweep fault targets: the meta-data cache and FIFO packets
/// of `trial::sweep_trials`, and the kernel's own instruction words.
fn target_index(target: FaultTarget) -> usize {
    match target {
        FaultTarget::MetaCache => 0,
        FaultTarget::FifoPacket => 1,
        _ => 2,
    }
}

/// Rate-sweep trials over every paper extension and every rate of
/// `SWEEP_RATES`: those of `trial::sweep_trials` on the meta-data cache
/// and FIFO-packet targets, and the same sweep, labels and plan seeds on
/// the instruction-word target. Of the kernels, each extension × target
/// × rate cell keeps one, chosen by a Latin square, so every kernel,
/// extension, target and rate weighs the same whatever the seed. That
/// is 48 trials; the whole cross product, 192, would leave each trial
/// a quarter of the samples per run.
fn rate_trials(spec: &CampaignSpec, kernels: &[(Workload, Program)]) -> Vec<TrialSpec> {
    let workloads: Vec<Workload> = kernels.iter().map(|k| k.0).collect();
    let mut all = sweep_trials(spec, &workloads);
    for (workload, program) in kernels {
        let target =
            FaultTarget::InstructionWord { base: program.base(), len: program.len() as u32 };
        for ext in ExtKind::ALL {
            for rate in SWEEP_RATES {
                // `sweep_trials`' plan seed, with the tag (5) it gives
                // every target outside its own four.
                let plan_seed = spec.seed ^ rate.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (5 << 48);
                all.push(TrialSpec {
                    label: format!("{} {} insn-word rate {rate}", workload.name(), ext.name()),
                    workload: *workload,
                    kind: TrialKind::RateSweep { ext, target, rate, plan_seed },
                    lockstep: spec.lockstep,
                    recover: false,
                    policy: spec.policy,
                });
            }
        }
    }
    all.retain(|t| {
        let TrialKind::RateSweep { ext, target, rate, .. } = t.kind else { return false };
        if matches!(target, FaultTarget::CommitResult | FaultTarget::Register) {
            return false;
        }
        let k = workloads.iter().position(|w| *w == t.workload).expect("a campaign kernel");
        let e = ExtKind::ALL.iter().position(|x| *x == ext).expect("a paper extension");
        let r = SWEEP_RATES.iter().position(|x| *x == rate).expect("a sweep rate");
        (e + target_index(target) + r) % workloads.len() == k
    });
    all
}

/// Everything the timed loop needs, built before it starts.
pub struct Setup {
    pub kernels: Vec<(Workload, Program)>,
    /// Clean SEC run per kernel: the campaign-1 triage reference.
    pub sec_ref: Vec<RunResult>,
    /// Clean swap-free UMC run per kernel: the reconfig triage reference.
    pub umc_ref: Vec<RunResult>,
    /// The trials, in canonical (generation) order.
    pub trials: Vec<TrialSpec>,
}

fn reference<E: flexcore::Extension>(program: &Program, ext: ExtKind, e: E) -> RunResult {
    let mut sys = System::new(paper_config(ext), e);
    sys.load_program(program);
    let mut r = sys.try_run(MAX_INSTRUCTIONS).expect("clean reference runs complete");
    r.host_ns = 0;
    r
}

/// Assembles the kernels, runs their clean triage references, and
/// generates the seeded trial list.
pub fn setup(seed: u64) -> Setup {
    let kernels: Vec<(Workload, Program)> =
        kernels().into_iter().map(|w| (w, w.program().expect("kernels assemble"))).collect();
    let sec_ref = kernels.iter().map(|(_, p)| reference(p, ExtKind::Sec, Sec::new())).collect();
    let umc_ref = kernels.iter().map(|(_, p)| reference(p, ExtKind::Umc, Umc::new())).collect();
    let spec = CampaignSpec {
        seed,
        trials: ALU_FLIPS,
        lockstep: true,
        recover: true,
        policy: RecoveryPolicy::default(),
    };
    let workloads: Vec<Workload> = kernels.iter().map(|k| k.0).collect();
    let mut trials = campaign1_trials(&spec, &workloads);
    trials.extend(rate_trials(&spec, &kernels));
    trials.extend(reconfig_trials(&CampaignSpec { trials: SWAPS, ..spec }, &workloads));
    Setup { kernels, sec_ref, umc_ref, trials }
}

impl Setup {
    /// The clean run a supervised trial is triaged against.
    pub fn reference(&self, spec: &TrialSpec) -> Option<&RunResult> {
        let k = self.kernels.iter().position(|(w, _)| *w == spec.workload)?;
        match spec.kind {
            TrialKind::AluFlip { .. } => Some(&self.sec_ref[k]),
            TrialKind::SwapWindow { .. } => Some(&self.umc_ref[k]),
            TrialKind::RateSweep { .. } => None,
        }
    }
}

/// The clean legs sampled beside the trials: each kernel bare, under
/// SEC at 0.25X and under UMC at 0.5X. They give `sim_mips` and the
/// Table IV cells (SEC and UMC) of this workload.
fn side_legs(setup: &Setup) -> (Vec<Kernel>, Sweep) {
    let kernels: Vec<Kernel> = setup
        .kernels
        .iter()
        .map(|(workload, program)| Kernel {
            workload: *workload,
            program: program.clone(),
            cfi: Default::default(),
            elide: Default::default(),
        })
        .collect();
    let mut legs = Vec::new();
    for kernel in 0..kernels.len() {
        for mon in [Mon::Bare, Mon::Paper(ExtKind::Sec), Mon::Paper(ExtKind::Umc)] {
            legs.push(Leg { kernel, mon, elide: false });
        }
    }
    (kernels, Sweep::new(legs))
}

/// The gate for one trial's first outcome: supervised trials must be
/// triaged and never silently corrupt; clean (rate 0) trials must not
/// trap, diverge, deadlock or run over budget.
fn breach(spec: &TrialSpec, o: &TrialOutcome) -> Option<String> {
    if spec.recover {
        return match o.triage {
            None => Some(format!("{}: unclassified outcome", spec.label)),
            Some(FaultOutcome::Sdc) => Some(format!("{}: silent data corruption", spec.label)),
            Some(_) => None,
        };
    }
    if matches!(spec.kind, TrialKind::RateSweep { rate: 0, .. })
        && (o.trapped || o.diverged || o.deadlocked || o.over_budget)
    {
        return Some(format!("{}: false trap on a clean run", spec.label));
    }
    None
}

/// Runs one trial, timed, with its span named after its family.
pub fn trial(setup: &Setup, spec: &TrialSpec, tr: &mut Tracer) -> (TrialOutcome, u64) {
    let span = FAMILIES[family(spec)].1;
    timed(|| tr.span(span, || run_trial(spec, setup.reference(spec))))
}

/// Trials between two repeats of the set-up (see
/// [`crate::util::setup_secs`]).
const SETUP_EVERY: usize = 100;

/// `bench.trial.run_trial_ms.<family>`: the median of the `run_trial`
/// spans `tr` recorded for each trial family.
pub fn span_layers(tr: &Tracer) -> Vec<Metric> {
    FAMILIES
        .iter()
        .map(|(name, span)| {
            metric(format!("bench.trial.run_trial_ms.{name}"), tr.median_ns(span) / 1e6, "ms")
        })
        .collect()
}

/// The `fault-campaign` workload. The digest covers the clean legs and
/// references and every trial's outcome, triage included. Traced, its
/// lane-1 spans give the per-family trial times.
pub fn workload(seed: u64, seconds: f64, tr: &mut Tracer) -> Report {
    let lanes = lanes(tr.on());
    let (setup, first) = timed(|| setup(seed));
    let mut setup_s = vec![first as f64 / 1e9];
    let (side_kernels, mut side) = side_legs(&setup);

    // Warm-up: one untimed trial of each family.
    for f in 0..FAMILIES.len() {
        if let Some(spec) = setup.trials.iter().find(|s| family(s) == f) {
            let _ = trial(&setup, spec, &mut Tracer::new(false));
        }
    }
    let mut outcomes: Vec<Option<TrialOutcome>> = vec![None; setup.trials.len()];
    let mut gate = Gate::default();
    let mut off = Tracer::new(false);
    let mut calls = 0;
    let timing = closed_loop(setup.trials.len(), seed, seconds, lanes, |i, lane| {
        calls += 1;
        if calls % SIDE_EVERY == 0 {
            side.next(&side_kernels, lane, &mut gate);
        }
        if calls % SETUP_EVERY == 0 {
            setup_s.push(setup_secs(|| self::setup(seed)));
        }
        let spec = &setup.trials[i];
        let (o, ns) = trial(&setup, spec, if lane == 1 { &mut *tr } else { &mut off });
        gate.check(match &outcomes[i] {
            None => {
                let b = breach(spec, &o);
                outcomes[i] = Some(o);
                b
            }
            Some(first) if *first != o => {
                Some(format!("{}: repeat run differs from the first", spec.label))
            }
            Some(_) => None,
        });
        ns
    });
    side.judge(&side_kernels, lanes, &mut gate);
    let (slowdown_x, table4_err) = table4_cells(&side.cells(&side_kernels));
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

    let mut d = Digest::new();
    d.text(&format!("{:016x}", side.digest(&side_kernels)));
    for r in setup.sec_ref.iter().chain(&setup.umc_ref) {
        d.text(&format!("{r:?}"));
    }
    for (spec, o) in setup.trials.iter().zip(&outcomes) {
        d.text(&spec.label);
        d.text(&format!("{o:?}"));
    }
    report(gate, d.value(), &setup_s, &e2e, || {
        crate::probes::layers(seed, Own::Campaign(span_layers(tr)))
    })
}

/// This workload's per-layer metrics from one traced pass over every
/// trial, for the traced run of another workload.
pub fn pass_layers(seed: u64) -> Vec<Metric> {
    let setup = setup(seed);
    let mut tr = Tracer::new(true);
    for spec in &setup.trials {
        trial(&setup, spec, &mut tr);
    }
    span_layers(&tr)
}
