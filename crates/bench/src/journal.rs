//! Crash-safe JSONL progress journal for fault campaigns.
//!
//! The contract, which `faultsweep --progress/--resume` relies on:
//!
//! * **Header stamp.** The first line is the campaign's header record.
//!   Resuming under a different header is refused with both headers in
//!   the error, because the trial labels would not mean the same runs.
//! * **Single-write append.** Every trial record is appended, newline
//!   included, in one `write`, so a crash can tear at most the final
//!   line.
//! * **Fsync per record.** The file is fsynced at open and after every
//!   append. `faultsweep` appends each trial as the worker pool reports
//!   it, so every record is fsynced as its trial is reported.
//! * **Tolerant tail.** On resume a torn final line is dropped,
//!   reported, and cut from the file; that trial is simply re-run.
//!   Corruption before the final line stays a hard error.
//! * **Newline close.** A kill between a record and its newline leaves
//!   a complete but unterminated last line. Resume closes it before
//!   appending, so the next record never welds onto it.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::Value;

use crate::trial::{self, TrialOutcome};

/// Why a journal could not be opened, replayed, or appended to.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// A record before the final line does not parse or decode: real
    /// corruption, not a crash artifact.
    Corrupt {
        /// The journal path.
        path: PathBuf,
        /// What failed to parse or decode.
        detail: String,
    },
    /// The journal was stamped by a campaign with different
    /// parameters.
    HeaderMismatch {
        /// The journal path.
        path: PathBuf,
        /// The header record stamped in the file.
        stamped: String,
        /// The header record this run requested.
        requested: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            JournalError::Corrupt { path, detail } => {
                write!(f, "{}: corrupt journal: {detail}", path.display())
            }
            JournalError::HeaderMismatch { path, stamped, requested } => write!(
                f,
                "{}: was written with different campaign parameters \
                 (the trial labels would not mean the same runs)\n  stamped:   {stamped}\n  \
                 requested: {requested}\nre-run with the stamped parameters or start fresh",
                path.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// What resuming a journal recovered.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The recorded outcome of every finished trial, by label.
    pub done: HashMap<String, TrialOutcome>,
    /// The torn tail line that was dropped, when there was one.
    pub dropped_partial: Option<String>,
}

/// An append-only campaign progress journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: std::fs::File,
}

fn io_err(path: &Path, error: std::io::Error) -> JournalError {
    JournalError::Io { path: path.to_path_buf(), error }
}

impl Journal {
    /// Opens the journal at `path`, stamped with `header`.
    ///
    /// Without `resume`, or when nothing intact is on disk, the file is
    /// truncated and restamped. With `resume`, a torn tail is repaired,
    /// the stamp is checked against `header`, and every recorded trial
    /// is returned for reuse.
    pub fn open(
        path: &Path,
        header: &Value,
        resume: bool,
    ) -> Result<(Journal, Recovery), JournalError> {
        let header = serde::to_string(header);
        let mut recovery = Recovery::default();
        let existing = match std::fs::read_to_string(path) {
            Ok(text) if resume => Some(text),
            Ok(_) => None,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err(path, e)),
        };
        let mut stamped = false;
        if let Some(text) = &existing {
            let parsed = parse_jsonl_tolerant(text)
                .map_err(|detail| JournalError::Corrupt { path: path.to_path_buf(), detail })?;
            if parsed.dropped_partial.is_some() {
                parsed.repair_file(path).map_err(|e| io_err(path, e))?;
            }
            let mut records = parsed.records.into_iter();
            // Nothing intact (a crash during the header stamp) means the
            // file is restamped from scratch below.
            if let Some(first) = records.next() {
                let first = serde::to_string(&first);
                if first != header {
                    return Err(JournalError::HeaderMismatch {
                        path: path.to_path_buf(),
                        stamped: first,
                        requested: header,
                    });
                }
                stamped = true;
                let corrupt =
                    |detail: String| JournalError::Corrupt { path: path.to_path_buf(), detail };
                for v in records {
                    let label = v
                        .get("label")
                        .and_then(Value::as_str)
                        .ok_or_else(|| corrupt("record without a label".into()))?;
                    let outcome = trial::decode_outcome(&v).map_err(corrupt)?;
                    recovery.done.insert(label.to_string(), outcome);
                }
            }
            recovery.dropped_partial = parsed.dropped_partial;
        }
        if !stamped {
            std::fs::write(path, format!("{header}\n")).map_err(|e| io_err(path, e))?;
            // A new file's directory entry is durable only once its
            // directory is synced.
            let dir = match path.parent() {
                Some(p) if !p.as_os_str().is_empty() => p,
                _ => Path::new("."),
            };
            std::fs::File::open(dir).and_then(|d| d.sync_all()).map_err(|e| io_err(dir, e))?;
        }
        let mut file =
            std::fs::OpenOptions::new().append(true).open(path).map_err(|e| io_err(path, e))?;
        // A kill between a record's bytes and its newline leaves a tail
        // that parses (nothing to drop) but is unterminated; a blind
        // append would weld the next record onto it.
        if let (true, Some(text)) = (stamped, &existing) {
            if !text.ends_with('\n') && recovery.dropped_partial.is_none() {
                file.write_all(b"\n").map_err(|e| io_err(path, e))?;
            }
        }
        file.sync_all().map_err(|e| io_err(path, e))?;
        Ok((Journal { path: path.to_path_buf(), file }, recovery))
    }

    /// Appends one finished trial in a single write and fsyncs it.
    pub fn append_trial(&mut self, label: &str, o: &TrialOutcome) -> Result<(), JournalError> {
        let mut line = serde::to_string(&trial::outcome_record(label, o));
        line.push('\n');
        self.file.write_all(line.as_bytes()).map_err(|e| io_err(&self.path, e))?;
        self.file.sync_all().map_err(|e| io_err(&self.path, e))
    }
}

/// A JSONL log read back with crash tolerance.
#[derive(Debug, Default)]
struct TolerantLog {
    /// Every successfully parsed record, in file order.
    records: Vec<Value>,
    /// The dropped torn tail line, shortened for a warning.
    dropped_partial: Option<String>,
    /// Byte length up to and including the last good record's line
    /// end: the truncation point that removes a torn tail.
    good_len: usize,
    /// Whether that good prefix ends with a newline.
    good_ends_with_newline: bool,
}

impl TolerantLog {
    /// Truncates the file the parse came from to its good prefix and
    /// makes sure that prefix ends with a newline.
    fn repair_file(&self, path: &Path) -> std::io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(self.good_len as u64)?;
        drop(f);
        if self.good_len > 0 && !self.good_ends_with_newline {
            std::fs::OpenOptions::new().append(true).open(path)?.write_all(b"\n")?;
        }
        Ok(())
    }
}

/// Parses a JSONL log, tolerating exactly one failure mode: an
/// unparseable **final** line, the signature of a crash mid-append.
/// Corruption anywhere before it is an error.
fn parse_jsonl_tolerant(text: &str) -> Result<TolerantLog, String> {
    let mut log = TolerantLog::default();
    let mut pos = 0usize;
    let mut lineno = 0usize;
    while pos < text.len() {
        let end = match text[pos..].find('\n') {
            Some(i) => pos + i + 1,
            None => text.len(),
        };
        lineno += 1;
        let line = text[pos..end].trim_end_matches('\n');
        if !line.trim().is_empty() {
            match serde::from_str(line) {
                Ok(v) => {
                    log.records.push(v);
                    log.good_len = end;
                    log.good_ends_with_newline = text.as_bytes()[end - 1] == b'\n';
                }
                Err(e) => {
                    let tail_only = text[end..].lines().all(|l| l.trim().is_empty());
                    if !tail_only {
                        return Err(format!("line {lineno}: unparseable record: {e}"));
                    }
                    let mut snippet: String = line.chars().take(60).collect();
                    if snippet.len() < line.len() {
                        snippet.push('…');
                    }
                    log.dropped_partial = Some(snippet);
                    return Ok(log);
                }
            }
        }
        pos = end;
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flexcore-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        dir.join("progress.jsonl")
    }

    fn header(seed: u64) -> Value {
        Value::object().field("seed", &seed).build()
    }

    fn outcome(n: u64) -> TrialOutcome {
        TrialOutcome { trapped: true, faults_injected: n, ..TrialOutcome::default() }
    }

    #[test]
    fn journal_roundtrips_trials() {
        let path = tmpfile("roundtrip");
        let (mut j, rec) = Journal::open(&path, &header(1), false).expect("create");
        assert!(rec.done.is_empty());
        j.append_trial("sha trial 0", &outcome(1)).expect("append");
        j.append_trial("sha trial 1", &outcome(2)).expect("append");
        drop(j);

        let (_, rec) = Journal::open(&path, &header(1), true).expect("resume");
        assert_eq!(rec.done.len(), 2);
        assert_eq!(rec.done.get("sha trial 1"), Some(&outcome(2)));
        assert!(rec.dropped_partial.is_none());
    }

    #[test]
    fn truncated_tail_is_dropped_repaired_and_the_rest_reused() {
        let path = tmpfile("tail");
        let (mut j, _) = Journal::open(&path, &header(1), false).expect("create");
        j.append_trial("sha trial 0", &outcome(1)).expect("append");
        j.append_trial("sha trial 1", &outcome(2)).expect("append");
        drop(j);
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &text[..text.len() - 25]).expect("truncate");

        let (mut j, rec) = Journal::open(&path, &header(1), true).expect("resume");
        assert!(rec.dropped_partial.is_some(), "torn tail reported");
        assert_eq!(rec.done.len(), 1, "only the intact record is reused");
        j.append_trial("sha trial 1", &outcome(2)).expect("append after repair");
        drop(j);
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            text,
            "repaired to the clean log"
        );
    }

    #[test]
    fn header_mismatch_is_refused_with_both_headers() {
        let path = tmpfile("mismatch");
        Journal::open(&path, &header(1), false).expect("create");
        let err = Journal::open(&path, &header(99), true).expect_err("wrong campaign");
        let msg = err.to_string();
        assert!(msg.contains("stamped:   {\"seed\":1}"), "shows the stamped header: {msg}");
        assert!(msg.contains("requested: {\"seed\":99}"), "shows the requested header: {msg}");
    }

    #[test]
    fn an_unknown_triage_label_mid_file_is_corruption() {
        let path = tmpfile("triage");
        let (mut j, _) = Journal::open(&path, &header(1), false).expect("create");
        j.append_trial("sha trial 0", &outcome(1)).expect("append");
        j.append_trial("sha trial 1", &outcome(2)).expect("append");
        drop(j);
        let text = std::fs::read_to_string(&path).expect("read");
        let tampered = text.replacen(
            r#""trap_skid":null}"#,
            r#""trap_skid":null,"triage":"bogus","mttr":0}"#,
            1,
        );
        assert_ne!(tampered, text, "the first record was tampered with");
        std::fs::write(&path, tampered).expect("write");
        let err = Journal::open(&path, &header(1), true).expect_err("not reused without triage");
        assert!(matches!(err, JournalError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("`triage`"), "names the key: {err}");
    }

    #[test]
    fn non_resume_open_truncates_an_existing_journal() {
        let path = tmpfile("truncate");
        let (mut j, _) = Journal::open(&path, &header(1), false).expect("create");
        j.append_trial("sha trial 0", &outcome(1)).expect("append");
        drop(j);
        let (_, rec) = Journal::open(&path, &header(1), false).expect("recreate");
        assert!(rec.done.is_empty(), "fresh open discards history");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "{\"seed\":1}\n");
    }

    #[test]
    fn tolerant_parse_accepts_clean_logs() {
        let text = "{\"a\": 1}\n{\"b\": 2}\n";
        let log = parse_jsonl_tolerant(text).expect("clean log parses");
        assert_eq!(log.records.len(), 2);
        assert!(log.dropped_partial.is_none());
        assert_eq!(log.good_len, text.len());
    }

    #[test]
    fn tolerant_parse_drops_a_truncated_tail() {
        let good = "{\"a\": 1}\n{\"b\": 2}\n";
        let text = format!("{good}{{\"c\": 3, \"tr");
        let log = parse_jsonl_tolerant(&text).expect("truncated tail is tolerated");
        assert_eq!(log.records.len(), 2);
        let dropped = log.dropped_partial.expect("partial tail reported");
        assert!(dropped.contains("\"c\""), "snippet names the dropped line: {dropped}");
        assert_eq!(log.good_len, good.len(), "truncation point preserves every good record");
    }

    #[test]
    fn tolerant_parse_rejects_mid_file_corruption() {
        let text = "{\"a\": 1}\nnot json at all\n{\"b\": 2}\n";
        let err = parse_jsonl_tolerant(text).expect_err("mid-file corruption is a hard error");
        assert!(err.contains("line 2"), "error names the line: {err}");
    }

    #[test]
    fn tolerant_parse_accepts_a_complete_final_line_without_newline() {
        let text = "{\"a\": 1}\n{\"b\": 2}";
        let log = parse_jsonl_tolerant(text).expect("parses");
        assert_eq!(log.records.len(), 2);
        assert!(log.dropped_partial.is_none());
        assert_eq!(log.good_len, text.len());
    }
}
