//! `flexsim --ext` accepts exactly the extension registry plus `none`:
//! an unknown name is a usage error that lists every registered
//! extension, and the usage text is built from the registry, so the
//! two cannot drift apart. `--fifo` rejects a zero depth and accepts
//! any larger one without allocating it up front.

use std::process::Output;

use flexcore_bench::swap::SWAPPABLE;

fn flexsim(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_flexsim"))
        .args(args)
        .output()
        .expect("flexsim runs")
}

#[test]
fn unknown_extension_is_a_usage_error_naming_the_registry() {
    let run = flexsim(&["--ext", "bogus", "bitcount"]);
    assert_eq!(run.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&run.stderr);
    let error = stderr.lines().next().expect("an error line");
    assert!(error.contains("bogus"), "{error}");
    for name in SWAPPABLE {
        assert!(error.contains(name), "`{name}` missing from: {error}");
    }
}

#[test]
fn nop_extension_runs_a_workload() {
    let run = flexsim(&["--ext", "nop", "bitcount"]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
}

#[test]
fn usage_lists_exactly_the_registry_plus_none() {
    let run = flexsim(&["--help"]);
    assert_eq!(run.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&run.stderr);
    let start = stderr.find("[--ext ").expect("usage has an --ext option") + "[--ext ".len();
    let end = start + stderr[start..].find(']').expect("option is bracketed");
    let listed: Vec<&str> = stderr[start..end].split('|').collect();
    let mut expected = SWAPPABLE.to_vec();
    expected.push("none");
    assert_eq!(listed, expected);
}

#[test]
fn zero_fifo_depth_is_a_usage_error() {
    let run = flexsim(&["sha", "--ext", "umc", "--fifo", "0"]);
    assert_eq!(run.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("--fifo"), "{stderr}");
}

#[test]
fn huge_fifo_depth_runs_without_preallocating_it() {
    let run = flexsim(&["bitcount", "--ext", "umc", "--fifo", "18446744073709551615"]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
}
