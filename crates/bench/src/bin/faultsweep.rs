//! `faultsweep` — seeded fault-injection campaigns that validate the
//! SEC soft-error story end-to-end (§IV.D / §V).
//!
//! Three campaigns, all byte-identical for a given `--seed`:
//!
//! 1. **SEC detection coverage** — single-bit flips in the
//!    execute-stage result of randomly chosen ALU commits of `sha` and
//!    `bitcount`; SEC re-executes every forwarded ALU op, so it must
//!    trap on ≥90% of them (the escapes are mod-3-invisible residue
//!    cases on div).
//! 2. **Clean-run false traps** — the rate-0 rows of the sweep: with no
//!    faults injected, UMC/DIFT/BC/SEC must never trap on the benign
//!    workloads.
//! 3. **Rate × target sweep** — Bernoulli faults at increasing rates
//!    against architectural results, registers, FFIFO packets, and
//!    meta-data lines, with per-extension outcome accounting
//!    (trap / silent / deadlock / budget), driven through
//!    [`System::try_run`](flexcore::System::try_run) so a wedged
//!    configuration is a data point, not a hang.
//!
//! Trial generation, execution, and the JSONL record codec live in
//! [`flexcore_bench::trial`]; the progress log is the crash-safe
//! [`flexcore_bench::journal`].
//!
//! Options: `--seed N` (default 0xf1ec), `--trials N` per workload for
//! campaign 1 (default 100, at least 1). An unknown argument or
//! `--trials 0` exits 2 with a usage line.
//!
//! Campaign robustness options:
//!
//! * `--lockstep` — every faulted run also steps an ISA-level golden
//!   model; architectural corruption the extension misses is caught as
//!   a lockstep divergence and counted as detected.
//! * `--progress FILE` — append one JSONL record per finished trial,
//!   each in a single fsynced write once it and every trial before it
//!   have finished, after a header line stamping the campaign
//!   parameters.
//! * `--resume` — with `--progress`, skip trials already recorded in
//!   the file (deterministic seeds make the skip exact), so an
//!   interrupted campaign continues from its last recorded trial
//!   instead of starting over. A trailing record torn by a crash
//!   mid-append is dropped with a warning (it is re-run), not a fatal
//!   parse error, and a file stamped with different parameters is
//!   refused.
//! * `--recover` — run every campaign-1 trial under the
//!   rollback-and-replay [`Supervisor`](flexcore::Supervisor) and
//!   triage it against a clean reference run of the same workload:
//!   **Masked** (absorbed, output matches), **Detected-Recovered**
//!   (caught, rolled back, replayed to a matching output), **SDC**
//!   (silent data corruption — completed with the wrong output), or
//!   **DUE** (detected but unrecoverable). The campaign fails (exit 1)
//!   on any SDC or unclassified trial; add `--lockstep` so
//!   architectural corruption SEC misses is detected (and therefore
//!   recovered) instead of going silent. Campaigns 2–3 are unchanged
//!   by this flag.
//! * `--reconfig` — replace the three campaigns with the
//!   reconfig-window campaign: every trial schedules a UMC → CFI
//!   hot-swap at a deterministically drawn commit boundary and strikes
//!   the bitstream *inside the swap window* — even trials with a
//!   single transfer strike (one retry must absorb it), odd trials
//!   corrupting every attempt so the retry budget exhausts and the
//!   recovery ladder must roll back and replay the swap. Requires
//!   `--recover`; the same 0-SDC / 0-unclassified gate applies, and
//!   the triage is against a clean swap-free run (a hot-swap must not
//!   change the architectural outcome).

use std::collections::HashMap;

use flexcore::recovery::FaultOutcome;
use flexcore::RunResult;
use flexcore_bench::journal::{Journal, JournalError};
use flexcore_bench::trial::{
    self, CampaignSpec, TrialOutcome, TrialSpec, SWEEP_RATES, SWEEP_TARGETS,
};
use flexcore_bench::{run_panic_tolerant, ExtKind, JobReport};
use flexcore_workloads::Workload;

/// The `--progress` journal plus the trials it recovered on resume.
#[derive(Default)]
struct Progress {
    journal: Option<Journal>,
    done: HashMap<String, TrialOutcome>,
    reused: u64,
}

/// The progress file's header record: the campaign parameters that fix
/// what every trial label means.
fn header(seed: u64, trials: usize, lockstep: bool, recover: bool, reconfig: bool) -> serde::Value {
    let mut h = serde::Value::object()
        .field("seed", &seed)
        .field("trials", &(trials as u64))
        .field("lockstep", &lockstep)
        .field("recover", &recover);
    // Stamped only when set, so progress files from plain campaigns
    // keep their original headers (and stay resumable).
    if reconfig {
        h = h.field("reconfig", &true);
    }
    h.build()
}

/// Exits with status 2 on a journal error: a campaign that cannot
/// record its progress must not pretend it did.
fn or_exit<T>(r: Result<T, JournalError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("faultsweep: {e}");
        std::process::exit(2);
    })
}

/// [`run_panic_tolerant`] with a resume cache: trials already in the
/// progress log come back instantly; fresh trials run against their
/// clean reference run (if any) and each is recorded once it and every
/// trial before it have finished. Reports keep submission order either
/// way.
fn run_with_progress(
    jobs: Vec<(TrialSpec, Option<&RunResult>)>,
    progress: &mut Progress,
) -> Vec<JobReport<TrialOutcome>> {
    let Progress { journal, done, reused } = progress;
    let jobs = jobs
        .into_iter()
        .map(|(spec, reference)| {
            let recorded = done.get(&spec.label).copied();
            let label = spec.label.clone();
            (label, move || recorded.unwrap_or_else(|| trial::run_trial(&spec, reference)))
        })
        .collect();
    run_panic_tolerant(jobs, |rep| {
        if done.contains_key(&rep.label) {
            *reused += 1;
        } else if let (Some(journal), Ok(o)) = (journal.as_mut(), &rep.outcome) {
            or_exit(journal.append_trial(&rep.label, o));
        }
    })
}

/// One supervised triage table: for each workload, runs its trials
/// against its clean reference (`campaign` returns both) and prints
/// a row of masked / detected-recovered / SDC / DUE / unclassified
/// counts with the mean MTTR, then the campaign MTTR line (ending in
/// `mttr_note`) and the 0-SDC / 0-unclassified gate. Returns whether
/// the gate passed.
fn triage_table(
    workloads: &[Workload],
    trials: usize,
    progress: &mut Progress,
    mttr_note: &str,
    campaign: impl Fn(&Workload) -> (RunResult, Vec<TrialSpec>),
) -> bool {
    println!(
        "{:<12}{:>8}{:>9}{:>11}{:>6}{:>6}{:>9}{:>13}",
        "benchmark", "trials", "masked", "recovered", "sdc", "due", "unclass", "mean mttr"
    );
    let mut total_sdc = 0u64;
    let mut total_unclassified = 0u64;
    let mut total_recovered = 0u64;
    let mut mttr_sum = 0u64;
    let (references, specs): (Vec<RunResult>, Vec<Vec<TrialSpec>>) =
        workloads.iter().map(campaign).unzip();
    let jobs = references
        .iter()
        .zip(specs)
        .flat_map(|(reference, specs)| specs.into_iter().map(move |s| (s, Some(reference))))
        .collect();
    let reports = run_with_progress(jobs, progress);
    for (workload, reports) in workloads.iter().zip(reports.chunks(trials)) {
        let mut counts: HashMap<FaultOutcome, u64> = HashMap::new();
        let mut unclassified = 0u64;
        let mut workload_mttr = 0u64;
        for rep in reports {
            match &rep.outcome {
                Ok(o) => match o.triage {
                    Some(t) => {
                        *counts.entry(t).or_default() += 1;
                        if t == FaultOutcome::DetectedRecovered {
                            workload_mttr += o.mttr.unwrap_or(0);
                        }
                    }
                    None => unclassified += 1,
                },
                Err(msg) => {
                    unclassified += 1;
                    eprintln!("  {} panicked: {msg}", rep.label);
                }
            }
        }
        let n = |t: FaultOutcome| counts.get(&t).copied().unwrap_or(0);
        let recovered = n(FaultOutcome::DetectedRecovered);
        let mean_mttr = if recovered == 0 { 0.0 } else { workload_mttr as f64 / recovered as f64 };
        println!(
            "{:<12}{:>8}{:>9}{:>11}{:>6}{:>6}{:>9}{:>13.1}",
            workload.name(),
            trials,
            n(FaultOutcome::Masked),
            recovered,
            n(FaultOutcome::Sdc),
            n(FaultOutcome::Due),
            unclassified,
            mean_mttr,
        );
        total_sdc += n(FaultOutcome::Sdc);
        total_unclassified += unclassified;
        total_recovered += recovered;
        mttr_sum += workload_mttr;
    }
    let campaign_mttr =
        if total_recovered == 0 { 0.0 } else { mttr_sum as f64 / total_recovered as f64 };
    println!(
        "campaign MTTR: {campaign_mttr:.1} cycles mean over {total_recovered} recovered \
         trials{mttr_note}"
    );
    let pass = total_sdc == 0 && total_unclassified == 0;
    println!("recovery gate (0 SDC, 0 unclassified): {}", if pass { "PASS" } else { "FAIL" });
    pass
}

/// Campaign 1 without the supervisor: per workload, how many
/// single-bit ALU flips SEC (or the lockstep golden model) detected,
/// missed or hung on, against the ≥ 90% coverage target. Returns
/// whether every workload met it.
fn coverage_table(
    cspec: &CampaignSpec,
    workloads: &[Workload],
    trials: usize,
    progress: &mut Progress,
) -> bool {
    println!("\nSEC detection coverage (single-bit flips of ALU results, paper 0.25X config)");
    println!(
        "{:<12}{:>8}{:>10}{:>10}{:>10}{:>11}{:>12}",
        "benchmark", "trials", "detected", "silent", "hung", "coverage", "mean skid"
    );
    let mut all_pass = true;
    let jobs = trial::campaign1_trials(cspec, workloads).into_iter().map(|s| (s, None)).collect();
    let reports = run_with_progress(jobs, progress);
    for (workload, reports) in workloads.iter().zip(reports.chunks(trials)) {
        let mut detected = 0u64;
        let mut diverged = 0u64;
        let mut silent = 0u64;
        let mut hung = 0u64;
        let mut skids = Vec::new();
        for rep in reports {
            match &rep.outcome {
                Ok(o) if o.detected() => {
                    detected += 1;
                    diverged += u64::from(o.diverged);
                    skids.extend(o.trap_skid);
                }
                Ok(o) if o.deadlocked || o.over_budget => hung += 1,
                Ok(_) => silent += 1,
                Err(msg) => {
                    silent += 1;
                    eprintln!("  {} panicked: {msg}", rep.label);
                }
            }
        }
        let coverage = detected as f64 / trials as f64;
        let mean_skid = if skids.is_empty() {
            0.0
        } else {
            skids.iter().sum::<u64>() as f64 / skids.len() as f64
        };
        all_pass &= coverage >= 0.90;
        println!(
            "{:<12}{:>8}{:>10}{:>10}{:>10}{:>10.1}%{:>12.1}",
            workload.name(),
            trials,
            detected,
            silent,
            hung,
            coverage * 100.0,
            mean_skid,
        );
        if diverged > 0 {
            println!(
                "  ({diverged} of the {detected} detections came from lockstep divergence, \
                 which fires before the imprecise SEC trap)"
            );
        }
    }
    println!("coverage target ≥ 90.0%: {}", if all_pass { "PASS" } else { "FAIL" });
    all_pass
}

/// The command line.
struct Args {
    seed: u64,
    trials: usize,
    lockstep: bool,
    resume: bool,
    recover: bool,
    reconfig: bool,
    progress: Option<String>,
}

/// Prints `msg` and the usage line, and exits with status 2.
fn usage_exit(msg: &str) -> ! {
    eprintln!(
        "faultsweep: {msg}\nusage: faultsweep [--seed N] [--trials N] [--lockstep] \
         [--recover [--reconfig]] [--progress FILE [--resume]]"
    );
    std::process::exit(2);
}

/// Parses the command line in one pass; anything unknown exits 2.
fn parse_args() -> Args {
    let mut a = Args {
        seed: 0xf1ec,
        trials: 100,
        lockstep: false,
        resume: false,
        recover: false,
        reconfig: false,
        progress: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            || args.next().unwrap_or_else(|| usage_exit(&format!("{arg} requires a value")));
        let mut number = || {
            let v = value();
            let parsed = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => v.parse().ok(),
            };
            parsed.unwrap_or_else(|| {
                usage_exit(&format!("invalid value for {arg}: {v} (expected decimal or 0x-hex)"))
            })
        };
        match arg.as_str() {
            "--seed" => a.seed = number(),
            "--trials" => {
                a.trials = number() as usize;
                if a.trials == 0 {
                    usage_exit("`--trials` must be at least 1");
                }
            }
            "--lockstep" => a.lockstep = true,
            "--resume" => a.resume = true,
            "--recover" => a.recover = true,
            "--reconfig" => a.reconfig = true,
            "--progress" => a.progress = Some(value()),
            _ => usage_exit(&format!("unknown argument `{arg}`")),
        }
    }
    a
}

fn main() {
    let Args { seed, trials, lockstep, resume, recover, reconfig, progress: progress_path } =
        parse_args();
    if resume && progress_path.is_none() {
        eprintln!("faultsweep: --resume needs --progress FILE to resume from");
        std::process::exit(2);
    }
    if reconfig && !recover {
        eprintln!(
            "faultsweep: --reconfig triages swap-window faults under the rollback-and-replay \
             supervisor; add --recover"
        );
        std::process::exit(2);
    }
    let mut progress = Progress::default();
    if let Some(path) = &progress_path {
        let path = std::path::Path::new(path);
        let header = header(seed, trials, lockstep, recover, reconfig);
        let (journal, recovery) = or_exit(Journal::open(path, &header, resume));
        if let Some(partial) = &recovery.dropped_partial {
            eprintln!(
                "faultsweep: {}: dropped truncated trailing record `{partial}` \
                 (crash mid-append; the trial will be re-run)",
                path.display()
            );
        }
        progress = Progress { journal: Some(journal), done: recovery.done, reused: 0 };
    }
    let workloads = [Workload::sha(), Workload::bitcount()];
    let cspec = CampaignSpec { seed, trials, lockstep, recover, ..CampaignSpec::default() };

    println!(
        "faultsweep: seeded fault-injection campaign (seed {seed:#x}, {trials} trials/workload{}{})",
        if lockstep { ", lockstep golden model on" } else { "" },
        if recover { ", rollback-and-replay recovery on" } else { "" }
    );
    println!("{}", "=".repeat(78));

    if reconfig {
        // UMC → CFI hot-swaps with bitstream strikes inside the swap
        // window, triaged against the clean swap-free run.
        println!(
            "\nReconfig-window fault triage (bitstream strikes inside UMC -> CFI swap windows, \
             under the supervisor)"
        );
        println!(
            "  even trials: one corrupted transfer (a retry absorbs it); \
             odd trials: every attempt corrupted (ladder rolls back and replays the swap)"
        );
        let pass = triage_table(
            &workloads,
            trials,
            &mut progress,
            " (each MTTR spans the replayed swap window)",
            |w| (trial::swap_reference_run(w), trial::reconfig_trials(&cspec, &[*w])),
        );
        if progress.reused > 0 {
            println!("resumed: {} trials reused from the progress file", progress.reused);
        }
        println!("\nre-run with the same --seed to reproduce these numbers exactly");
        if !pass {
            std::process::exit(1);
        }
        return;
    }

    // ── Campaign 1: SEC detection coverage on single-bit ALU-result flips ──
    // Under --recover the same trials (same labels, same seeds, same
    // fault sites) run under the rollback-and-replay supervisor and are
    // triaged against a clean reference run instead of merely counted
    // as detected/silent.
    let all_pass = if recover {
        println!(
            "\nSEC soft-error recovery triage (single-bit ALU flips under the supervisor, \
             paper 0.25X config)"
        );
        triage_table(&workloads, trials, &mut progress, "", |w| {
            (trial::reference_run(w), trial::campaign1_trials(&cspec, &[*w]))
        })
    } else {
        coverage_table(&cspec, &workloads, trials, &mut progress)
    };

    // ── Campaigns 2+3: rate × target sweep (rate 0 = clean false-trap check) ──
    println!("\nRate × target sweep (Bernoulli faults/commit; cell = outcome:faults-injected)");
    println!("  outcome key: trap / div (lockstep divergence) / ok (ran clean) / dead / budget");
    let mut clean_false_traps = 0u64;
    // sweep_trials yields workload → extension → target → rate, so
    // each workload's reports split into one (ext, target) row per
    // SWEEP_RATES.len() trials, in ExtKind::ALL × SWEEP_TARGETS order.
    let sweep = trial::sweep_trials(&cspec, &workloads).into_iter().map(|s| (s, None)).collect();
    let reports = run_with_progress(sweep, &mut progress);
    let per_workload = ExtKind::ALL.len() * SWEEP_TARGETS.len() * SWEEP_RATES.len();
    for (workload, reports) in workloads.iter().zip(reports.chunks(per_workload)) {
        println!(
            "\n{} ({} per-million rates: {:?})",
            workload.name(),
            SWEEP_RATES.len(),
            SWEEP_RATES
        );
        print!("{:<6}{:<11}", "ext", "target");
        for r in SWEEP_RATES {
            print!("{:>16}", format!("rate {r}"));
        }
        println!();
        let rows = ExtKind::ALL
            .iter()
            .flat_map(|ext| SWEEP_TARGETS.iter().map(move |(tname, _)| (*ext, *tname)));
        for ((ext, tname), row) in rows.zip(reports.chunks(SWEEP_RATES.len())) {
            print!("{:<6}{:<11}", ext.name(), tname);
            for (ri, rep) in row.iter().enumerate() {
                let cell = match &rep.outcome {
                    Ok(o) => {
                        if SWEEP_RATES[ri] == 0 && o.detected() {
                            clean_false_traps += 1;
                        }
                        let tag = if o.diverged {
                            "div"
                        } else if o.trapped {
                            "trap"
                        } else if o.deadlocked {
                            "dead"
                        } else if o.over_budget {
                            "budget"
                        } else {
                            "ok"
                        };
                        format!("{tag}:{}", o.faults_injected)
                    }
                    Err(_) => "panic".to_string(),
                };
                print!("{cell:>16}");
            }
            println!();
        }
    }
    println!(
        "\nclean-run (rate 0) false traps/divergences across all extensions/targets: {} ({})",
        clean_false_traps,
        if clean_false_traps == 0 { "PASS" } else { "FAIL" }
    );
    if progress.reused > 0 {
        println!("resumed: {} trials reused from the progress file", progress.reused);
    }
    println!("\nre-run with the same --seed to reproduce these numbers exactly");
    if !all_pass || clean_false_traps != 0 {
        std::process::exit(1);
    }
}
