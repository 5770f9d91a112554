//! Campaign-level checks of the reconfig-window machinery: the
//! faultsweep trial path triages swap-window bitstream strikes with
//! zero SDC, and sampled-boundary hot-swaps on the real paper kernels
//! leave the architectural outcome bit-identical to the
//! statically-configured run.

use flexcore::ext::Extension;
use flexcore::recovery::FaultOutcome;
use flexcore::{RunResult, SwapPolicy, System, SystemConfig};
use flexcore_asm::Program;
use flexcore_bench::swap::{self, SwapPoint};
use flexcore_bench::trial::{reconfig_trials, run_trial, swap_reference_run, CampaignSpec};
use flexcore_bench::MAX_INSTRUCTIONS;
use flexcore_workloads::Workload;

/// The supervised reconfig campaign exactly as `faultsweep --reconfig
/// --recover` runs it: even trials take one bitstream strike (a retry
/// masks it), odd trials exhaust the retry budget and must come back
/// as detected-recovered through the ladder's deterministic swap
/// replay. Nothing may classify as SDC, DUE, or unclassified.
#[test]
fn reconfig_campaign_triages_strikes_and_exhaustions_cleanly() {
    let workload = Workload::bitcount();
    let spec = CampaignSpec { seed: 0xf1ec, trials: 4, recover: true, ..CampaignSpec::default() };
    let reference = swap_reference_run(&workload);
    let trials = reconfig_trials(&spec, &[workload]);
    assert_eq!(trials.len(), 4);
    for (i, t) in trials.iter().enumerate() {
        let o = run_trial(t, Some(&reference));
        let triage = o.triage.expect("supervised swap trials always classify");
        if i % 2 == 0 {
            assert_eq!(triage, FaultOutcome::Masked, "{}: one strike, one retry", t.label);
        } else {
            assert_eq!(
                triage,
                FaultOutcome::DetectedRecovered,
                "{}: exhaustion walks the ladder",
                t.label
            );
            assert!(o.mttr.unwrap_or(0) > 0, "{}: recovery took cycles", t.label);
        }
    }
}

fn run_static(program: &Program, ext: &str) -> RunResult {
    let e = swap::build_extension(ext, program).expect("known extension");
    let mut sys = System::new(SystemConfig::fabric_half_speed(), e);
    sys.load_program(program);
    sys.try_run(MAX_INSTRUCTIONS).expect("static run completes")
}

/// Hot-swaps on the real paper kernels at sampled boundaries (the
/// every-boundary sweep lives in the suite-level `hot_swap` test on
/// purpose-built short kernels): for two kernels and two extension
/// pairs, the swapped run's architectural outcome must be
/// bit-identical to the static outgoing run, with the swap completed
/// and no monitor trap.
#[test]
fn sampled_boundary_swaps_match_the_static_run_on_real_workloads() {
    for workload in [Workload::sha(), Workload::bitcount()] {
        let program = workload.program().expect("workload assembles");
        for (from, to) in [("umc", "cfi"), ("sec", "nop")] {
            let reference = run_static(&program, from);
            assert!(reference.monitor_trap.is_none(), "{} is benign under {from}", workload.name());
            let incoming = run_static(&program, to);
            assert!(incoming.monitor_trap.is_none(), "{} is benign under {to}", workload.name());
            for num in [1u64, 2, 4] {
                let boundary = (reference.instret * num / 5).max(1);
                let mut sys: System<Box<dyn Extension>> = System::new(
                    SystemConfig::fabric_half_speed(),
                    swap::build_extension(from, &program).expect("known extension"),
                );
                sys.load_program(&program);
                let point =
                    SwapPoint { at_commit: boundary, to: to.into(), policy: SwapPolicy::Reset };
                swap::schedule(&mut sys, &point, &program).expect("swap schedules");
                let r = sys.try_run(MAX_INSTRUCTIONS).expect("swapped run completes");
                let ctx = format!("{} {from}->{to} at {boundary}", workload.name());
                assert!(r.monitor_trap.is_none(), "{ctx}");
                assert_eq!(r.exit, reference.exit, "{ctx}");
                assert_eq!(r.instret, reference.instret, "{ctx}");
                assert_eq!(r.console, reference.console, "{ctx}");
                assert_eq!(r.resilience.swaps_completed, 1, "{ctx}");
                let [report] = sys.swap_reports() else {
                    panic!("{ctx}: exactly one swap report");
                };
                assert_eq!(report.at_commit, boundary, "{ctx}");
                assert_eq!(report.policy, SwapPolicy::Reset, "{ctx}");
                assert!(report.frames > 0, "{ctx}: bitstream was framed");
                assert!(report.rearmed_cycle > report.quiesce_cycle, "{ctx}");
            }
        }
    }
}
