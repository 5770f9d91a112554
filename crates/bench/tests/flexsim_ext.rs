//! `flexsim --ext` accepts exactly the extension registry plus `none`:
//! an unknown name is a usage error that lists every registered
//! extension, and the usage text is built from the registry, so the
//! two cannot drift apart. `none` is the registry's `nop`, and every
//! option works with it. `--fifo` rejects a zero depth and accepts any
//! larger one without allocating it up front. A checkpoint that cannot
//! be written leaves the previous one intact, and a reader that closes
//! stdout early ends the run quietly.

use std::io::{BufRead as _, BufReader};
use std::path::PathBuf;
use std::process::{Output, Stdio};

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

/// The run's `--json` without its host-time fields.
fn json_without_host_time(run: &Output) -> String {
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    String::from_utf8_lossy(&run.stdout).lines().filter(|l| !l.contains("\"host_")).collect()
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flexcore-flexsim-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

#[test]
fn no_extension_is_the_nop_extension() {
    for k in ["sha", "bitcount", "crc32"] {
        assert_eq!(
            json_without_host_time(&flexsim(&[k, "--json"])),
            json_without_host_time(&flexsim(&[k, "--ext", "nop", "--json"])),
            "{k}"
        );
    }
}

#[test]
fn lockstep_runs_without_an_extension() {
    let run = flexsim(&["bitcount", "--lockstep"]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    assert!(String::from_utf8_lossy(&run.stdout).starts_with("[core] "));
}

#[test]
fn checkpoint_and_resume_run_without_an_extension() {
    let dir = tmpdir("none-resume");
    let ck = dir.join("ck.json");
    let ck = ck.to_str().expect("utf-8 path");
    let first = flexsim(&[
        "sha",
        "--checkpoint-every",
        "40000",
        "--checkpoint-path",
        ck,
        "--quit-after-checkpoint",
    ]);
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    let resumed = flexsim(&["sha", "--resume", ck, "--json"]);
    assert_eq!(
        json_without_host_time(&resumed),
        json_without_host_time(&flexsim(&["sha", "--json"]))
    );
}

#[test]
fn a_failed_checkpoint_write_keeps_the_previous_checkpoint() {
    let dir = tmpdir("ckpt-atomic");
    let ck = dir.join("ck.json");
    let path = ck.to_str().expect("utf-8 path");
    let checkpoint_at = |every: &str| {
        flexsim(&[
            "sha",
            "--ext",
            "umc",
            "--checkpoint-every",
            every,
            "--checkpoint-path",
            path,
            "--quit-after-checkpoint",
        ])
    };
    let first = checkpoint_at("40000");
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    let before = std::fs::read(&ck).expect("first checkpoint");
    // A directory where the temporary file would go makes the next
    // write fail before anything reaches the checkpoint path.
    std::fs::create_dir(dir.join("ck.json.tmp")).expect("block the temp path");
    let second = checkpoint_at("30000");
    assert_eq!(second.status.code(), Some(2), "{}", String::from_utf8_lossy(&second.stderr));
    assert_eq!(std::fs::read(&ck).expect("checkpoint survives"), before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commits_listing_ends_quietly_when_the_reader_closes_the_pipe() {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_flexsim"))
        .args(["sha", "--ext", "umc", "--commits"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("flexsim starts");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    for _ in 0..2 {
        lines.next().expect("a commit line").expect("readable line");
    }
    // Like `| head -2`: the reader closes the pipe with the listing
    // far from done.
    drop(lines);
    let run = child.wait_with_output().expect("flexsim ends");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn report_ends_quietly_when_stdout_is_already_closed() {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_flexsim"))
        .args(["bitcount", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("flexsim starts");
    // Like `| true`: the reader is gone before the run prints its
    // report.
    drop(child.stdout.take());
    let run = child.wait_with_output().expect("flexsim ends");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
