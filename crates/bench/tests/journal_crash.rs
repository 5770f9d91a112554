//! Crash-shaped torture tests for the campaign progress journal.
//!
//! Two layers, strongest first:
//!
//! 1. **Exhaustive truncation**: a real journal killed at EVERY byte
//!    offset. Resume must repair the file, keep only what was on disk,
//!    and, once the missing trials are re-appended in campaign order,
//!    end byte-identical to the uninterrupted journal.
//! 2. **Property-based truncation**: the same contract over random
//!    journal shapes cut at a random offset.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use flexcore_bench::journal::Journal;
use flexcore_bench::trial::TrialOutcome;
use proptest::prelude::*;
use serde::Value;

fn tmpfile(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flexcore-jcrash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join("progress.jsonl")
}

/// A faultsweep-shaped header stamp.
fn header() -> Value {
    Value::object()
        .field("seed", &0xf1ecu64)
        .field("trials", &2u64)
        .field("lockstep", &false)
        .field("recover", &false)
        .build()
}

fn outcome(n: u64) -> TrialOutcome {
    TrialOutcome { trapped: n.is_multiple_of(2), faults_injected: n, ..TrialOutcome::default() }
}

/// The campaign a journal records: finished trials in completion
/// order, each label at most once (resume re-runs only absent labels).
type Trials = Vec<(String, TrialOutcome)>;

/// Writes the uninterrupted journal for `trials` and returns its bytes.
fn clean_journal(path: &Path, trials: &Trials) -> Vec<u8> {
    let (mut j, _) = Journal::open(path, &header(), false, 1).expect("create");
    for (label, o) in trials {
        j.append_trial(label, o).expect("append");
    }
    j.sync().expect("sync");
    drop(j);
    std::fs::read(path).expect("read")
}

/// The contract for one truncation offset: the cut file opens, every
/// recovered trial is one the campaign really finished, and after
/// re-appending the absent trials in campaign order the journal is
/// byte-identical to the uninterrupted one and resumes to the same
/// outcome set.
fn check_cut(path: &Path, trials: &Trials, clean: &[u8], cut: usize) -> Result<(), String> {
    std::fs::write(path, &clean[..cut]).map_err(|e| e.to_string())?;
    let (mut j, rec) = Journal::open(path, &header(), true, 1)
        .map_err(|e| format!("cut at {cut}: open failed: {e}"))?;
    let want: HashMap<String, TrialOutcome> = trials.iter().cloned().collect();
    for (label, o) in &rec.done {
        if want.get(label) != Some(o) {
            return Err(format!("cut at {cut}: recovered {label:?} = {o:?}, never recorded"));
        }
    }
    for (label, o) in trials {
        if !rec.done.contains_key(label) {
            j.append_trial(label, o).map_err(|e| e.to_string())?;
        }
    }
    j.sync().map_err(|e| e.to_string())?;
    drop(j);

    let finished = std::fs::read(path).map_err(|e| e.to_string())?;
    if finished != clean {
        return Err(format!(
            "cut at {cut}: finished journal differs\n  got:  {:?}\n  want: {:?}",
            String::from_utf8_lossy(&finished),
            String::from_utf8_lossy(clean)
        ));
    }
    let (_, rec) = Journal::open(path, &header(), true, 1)
        .map_err(|e| format!("cut at {cut}: reopen failed: {e}"))?;
    if rec.done != want {
        return Err(format!("cut at {cut}: resumed state diverged"));
    }
    Ok(())
}

/// Layer 1: kill the journal at every byte offset, including 0 (file
/// emptied: restamp from scratch) and len (no truncation at all).
#[test]
fn resume_survives_truncation_at_every_byte_offset() {
    let trials: Trials = (0..4).map(|t| (format!("sha trial {t}"), outcome(t * 7 + 1))).collect();
    let path = tmpfile("every-byte");
    let clean = clean_journal(&path, &trials);
    for cut in 0..=clean.len() {
        if let Err(msg) = check_cut(&path, &trials, &clean, cut) {
            panic!("{msg}");
        }
    }
}

fn arb_trials() -> impl Strategy<Value = Trials> {
    prop::collection::vec((0u8..12, 0u64..100), 1..16).prop_map(|raw| {
        let mut seen = std::collections::HashSet::new();
        raw.into_iter()
            .filter(|(l, _)| seen.insert(*l))
            .map(|(l, n)| (format!("bitcount trial {l}"), outcome(n)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Layer 2: the same contract over random campaign shapes, cut at a
    /// random point.
    #[test]
    fn resume_survives_random_shapes_and_random_cuts(
        trials in arb_trials(),
        cut_permille in 0usize..=1000,
    ) {
        let path = tmpfile("prop");
        let clean = clean_journal(&path, &trials);
        let cut = clean.len() * cut_permille / 1000;
        if let Err(msg) = check_cut(&path, &trials, &clean, cut) {
            return Err(proptest::test_runner::TestCaseError::fail(msg));
        }
    }
}
