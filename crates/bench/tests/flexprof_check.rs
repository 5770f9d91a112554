//! `flexprof check` gates per-phase shares over the union of both
//! profiles' phases: a phase that moved, and a phase that appears only
//! in the current profile, are both regressions.

use std::path::PathBuf;
use std::process::Output;

/// A one-run profile document with the given `(phase, share)` pairs.
fn profile(phases: &[(&str, f64)]) -> String {
    let body: Vec<String> =
        phases.iter().map(|(name, share)| format!(r#""{name}": {{"share": {share}}}"#)).collect();
    format!(
        r#"{{"runs": [{{"workload": "sha", "extension": "UMC", "phases": {{{}}}}}]}}"#,
        body.join(", ")
    )
}

/// Writes `doc` to a file unique to `name` and returns its path.
fn write_doc(name: &str, doc: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("flexprof_{name}.json"));
    std::fs::write(&path, doc).expect("temp profile is writable");
    path
}

fn check(name: &str, baseline: &str, current: &str) -> Output {
    let b = write_doc(&format!("{name}_baseline"), baseline);
    let c = write_doc(&format!("{name}_current"), current);
    std::process::Command::new(env!("CARGO_BIN_EXE_flexprof"))
        .arg("check")
        .args([&b, &c])
        .args(["--tolerance", "20"])
        .output()
        .expect("flexprof runs")
}

#[test]
fn identical_profiles_pass() {
    let doc = profile(&[("core", 0.6), ("fifo", 0.1), ("fabric_eval", 0.3)]);
    let run = check("identical", &doc, &doc);
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
}

#[test]
fn a_moved_baseline_phase_fails() {
    let base = profile(&[("core", 0.6), ("fabric_eval", 0.4)]);
    let cur = profile(&[("core", 0.3), ("fabric_eval", 0.7)]);
    let run = check("moved", &base, &cur);
    assert_eq!(run.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&run.stderr).contains("phase `core`"));
}

#[test]
fn a_phase_only_in_the_current_profile_fails() {
    // Each baseline phase moves 12.5 points, inside the tolerance.
    let base = profile(&[("core", 0.5), ("fabric_eval", 0.5)]);
    let cur = profile(&[("core", 0.375), ("fifo", 0.25), ("fabric_eval", 0.375)]);
    let run = check("new_phase", &base, &cur);
    assert_eq!(run.status.code(), Some(1), "{}", String::from_utf8_lossy(&run.stdout));
    assert!(String::from_utf8_lossy(&run.stderr).contains("phase `fifo`"));
}

#[test]
fn bad_usage_exits_2() {
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_flexprof"))
        .args(["check", "only-one.json"])
        .output()
        .expect("flexprof runs");
    assert_eq!(run.status.code(), Some(2));
}
