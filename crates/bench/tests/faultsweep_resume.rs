//! `faultsweep --resume` after a kill that lands between a record and
//! its newline: the resumed log must not weld the next record onto the
//! unterminated line, and must end byte-identical to an uninterrupted
//! run. Unknown arguments are refused.

use std::path::{Path, PathBuf};
use std::process::Output;

fn faultsweep(progress: &Path, resume: bool) -> Output {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_faultsweep"));
    cmd.args(["--trials", "2", "--progress"]).arg(progress);
    if resume {
        cmd.arg("--resume");
    }
    cmd.output().expect("faultsweep runs")
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flexcore-fs-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

#[test]
fn resume_closes_an_unterminated_last_record() {
    let dir = tmpdir();
    let clean_path = dir.join("clean.jsonl");
    let run = faultsweep(&clean_path, false);
    assert!(run.status.success(), "clean run: {}", String::from_utf8_lossy(&run.stderr));
    let clean = std::fs::read_to_string(&clean_path).expect("clean log");

    // Keep the header and nine records; drop the tenth line's newline.
    let cut = clean.match_indices('\n').nth(9).expect("log has ten lines").0;
    let path = dir.join("cut.jsonl");
    std::fs::write(&path, &clean[..cut]).expect("write cut log");

    for leg in 1..=2 {
        let run = faultsweep(&path, true);
        assert!(
            run.status.success(),
            "resume {leg} exited {:?}: {}",
            run.status.code(),
            String::from_utf8_lossy(&run.stderr)
        );
    }
    assert_eq!(std::fs::read_to_string(&path).expect("resumed log"), clean);
}

#[test]
fn unknown_arguments_exit_2_and_are_named() {
    for args in [&["--trails", "8"][..], &["--checkpoint-every", "1"]] {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_faultsweep"))
            .args(args)
            .output()
            .expect("faultsweep runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("`{}`", args[0])), "{args:?} not named: {stderr}");
        assert!(stderr.contains("usage: faultsweep"), "{args:?}: no usage line: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?} started a campaign");
    }
}
