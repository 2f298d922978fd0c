//! The durable job journal: a write-ahead NDJSON log of job lifecycle
//! events plus an on-disk content-addressed artifact store, giving the
//! farm `kill -9` recovery.
//!
//! Every record is **appended** to a pending tail and only counts as
//! durable once an explicit [`JobJournal::sync`] (a real `fdatasync`)
//! has moved the boundary past it. The farm acknowledges a submission
//! only after the submit record is durable, so an acknowledged job can
//! never be lost. There is no second log format to learn: one event per
//! line, flat JSON in exactly the dialect
//! [`crate::spec::parse_flat_object`] accepts.
//!
//! Events (`simsym-serve-journal/v1`, one flat JSON object per line):
//!
//! | event | fields | meaning |
//! |---|---|---|
//! | header | `schema` | first line of every journal file |
//! | `submit` | `job`, `fingerprint`, `spec` | job acknowledged and queued |
//! | `start` | `job` | a worker picked the job up |
//! | `finish` | `job`, `disposition` (`ok`\|`hit`\|`deadline`\|`panic`), `failed` | terminal |
//! | `cancel` | `job` | terminal; queued- or running-cancelled |
//!
//! Recovery ([`replay`]) is a pure function of the journal bytes. Its
//! verdict for each job: `finish ok` → serve the stored artifact from
//! the on-disk store; `finish hit` → the same, as the cache hit it was
//! (journals written before `hit` existed record a hit as `ok`, and
//! still replay); `finish deadline`/`finish panic` → recreate the
//! failed verdict; `cancel` → recreate the cancellation; anything else
//! (submit or start without a terminal record) → **re-queue and
//! re-run**, which is safe precisely because every job kind is
//! deterministic — re-execution reproduces the lost artifact
//! byte-identically. A torn final line (no trailing newline, invalid
//! UTF-8 tail, or a half-written object) is the expected signature of a
//! crash mid-append: it is discarded, and [`JobJournal::open`]
//! truncates the file back to the last complete line before appending
//! anything new. A malformed record *before* the final line, an id that
//! does not exist, or a fingerprint that does not match the spec is
//! real corruption: replay returns a clean `SERVE-JOURNAL-CORRUPT`
//! error instead of guessing (and never panics — pinned by the
//! truncation property test).

use crate::spec::{self, SpecValue};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Schema tag on the journal header line.
pub const JOURNAL_SCHEMA: &str = "simsym-serve-journal/v1";

/// File name of the job journal inside `--state-dir`.
pub const JOURNAL_FILE: &str = "jobs.ndjson";

/// Subdirectory of `--state-dir` holding the spilled artifacts.
pub const STORE_DIR: &str = "store";

/// How a journaled job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// The run completed and its artifact is in the on-disk store;
    /// `failed` mirrors the batch CLI's exit status.
    Ok {
        /// Whether the artifact reports error-severity findings.
        failed: bool,
    },
    /// The job was answered from the artifact store without running;
    /// `failed` as for [`Disposition::Ok`].
    Hit {
        /// Whether the artifact reports error-severity findings.
        failed: bool,
    },
    /// The job was abandoned at a sweep-job boundary by its deadline.
    Deadline,
    /// The job panicked twice (initial run + the bounded retry).
    Panic,
}

impl Disposition {
    fn label(self) -> &'static str {
        match self {
            Disposition::Ok { .. } => "ok",
            Disposition::Hit { .. } => "hit",
            Disposition::Deadline => "deadline",
            Disposition::Panic => "panic",
        }
    }
}

/// A journaled job's recovered lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveredState {
    /// Submitted (and possibly started) but no terminal record: the job
    /// must be re-queued and re-run.
    Unfinished,
    /// Terminal with a disposition.
    Finished(Disposition),
    /// Cancelled (queued- or running-cancelled, both terminal).
    Cancelled,
}

/// One job reconstructed from the journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveredJob {
    /// The id the pre-crash farm assigned; ids survive restarts.
    pub id: u64,
    /// The original spec JSON, verbatim.
    pub spec: String,
    /// Canonical argv re-derived from the spec.
    pub argv: Vec<String>,
    /// Per-job deadline re-derived from the spec.
    pub deadline_ms: Option<u64>,
    /// The content-address of the job's artifact.
    pub fingerprint: u64,
    /// Where the job's lifecycle stood at the crash.
    pub state: RecoveredState,
}

/// The result of replaying a journal: every job in id order, plus the
/// id counter the restarted farm resumes from and the byte length of
/// the valid prefix (everything after it is a torn tail to truncate).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Replay {
    /// Every journaled job, ascending by id.
    pub jobs: Vec<RecoveredJob>,
    /// `max(id) + 1`, or 0 for an empty journal.
    pub next_id: u64,
    /// Bytes of journal that replayed cleanly; the tail past this point
    /// (if any) is a torn final line and must be truncated before the
    /// journal is appended to again.
    pub valid_len: u64,
}

fn corrupt(detail: impl std::fmt::Display) -> String {
    format!("SERVE-JOURNAL-CORRUPT: {detail}")
}

/// Pulls a required field out of a parsed record, consuming it.
fn take(pairs: &mut Vec<(String, SpecValue)>, key: &str) -> Option<SpecValue> {
    let i = pairs.iter().position(|(k, _)| k == key)?;
    Some(pairs.remove(i).1)
}

fn take_u64(pairs: &mut Vec<(String, SpecValue)>, key: &str, line: usize) -> Result<u64, String> {
    match take(pairs, key) {
        Some(SpecValue::Int(n)) if n >= 0 => Ok(n as u64),
        other => Err(corrupt(format!(
            "line {line}: field {key:?} must be a non-negative integer, got {other:?}"
        ))),
    }
}

fn take_str(
    pairs: &mut Vec<(String, SpecValue)>,
    key: &str,
    line: usize,
) -> Result<String, String> {
    match take(pairs, key) {
        Some(SpecValue::Str(s)) => Ok(s),
        other => Err(corrupt(format!(
            "line {line}: field {key:?} must be a string, got {other:?}"
        ))),
    }
}

/// Replays journal bytes into the farm state they describe. Pure — no
/// I/O — so the recovery property tests can drive it over arbitrary
/// prefixes and corruptions.
///
/// # Errors
///
/// `SERVE-JOURNAL-CORRUPT: …` for any malformed record strictly before
/// the final line, an event referencing an unknown or already-terminal
/// job, a spec that no longer parses, or a fingerprint mismatch. Never
/// panics.
pub fn replay(bytes: &[u8]) -> Result<Replay, String> {
    let mut jobs: Vec<RecoveredJob> = Vec::new();
    // id → index into `jobs`, so resolving a lifecycle event is O(1)
    // and a long-lived farm's journal replays in linear time.
    let mut index: HashMap<u64, usize> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut valid_len: u64 = 0;
    let mut line_no = 0usize;
    let mut rest = bytes;
    // A missing newline means clean EOF or a torn final line — both end
    // the valid prefix there.
    while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
        let (line_bytes, tail) = rest.split_at(nl);
        rest = &tail[1..];
        line_no += 1;
        let line_len = line_bytes.len() as u64 + 1;
        let Ok(line) = std::str::from_utf8(line_bytes) else {
            return Err(corrupt(format!("line {line_no}: not UTF-8")));
        };
        let mut pairs =
            spec::parse_flat_object(line).map_err(|e| corrupt(format!("line {line_no}: {e}")))?;
        if line_no == 1 {
            let schema = take_str(&mut pairs, "schema", line_no)?;
            if schema != JOURNAL_SCHEMA {
                return Err(corrupt(format!(
                    "line 1: schema {schema:?}, expected {JOURNAL_SCHEMA:?}"
                )));
            }
            if let Some((k, _)) = pairs.first() {
                return Err(corrupt(format!("line 1: unexpected field {k:?}")));
            }
            valid_len += line_len;
            continue;
        }
        let event = take_str(&mut pairs, "event", line_no)?;
        match event.as_str() {
            "submit" => {
                let id = take_u64(&mut pairs, "job", line_no)?;
                let fp_hex = take_str(&mut pairs, "fingerprint", line_no)?;
                let spec_text = take_str(&mut pairs, "spec", line_no)?;
                if id < next_id {
                    return Err(corrupt(format!(
                        "line {line_no}: job id {id} is not increasing (next is {next_id})"
                    )));
                }
                let request = spec::job_request(&spec_text)
                    .map_err(|e| corrupt(format!("line {line_no}: embedded spec: {e}")))?;
                let fingerprint = crate::job_fingerprint(&request.argv);
                if format!("{fingerprint:016x}") != fp_hex {
                    return Err(corrupt(format!(
                        "line {line_no}: fingerprint {fp_hex} does not match the spec \
                         (recomputed {fingerprint:016x})"
                    )));
                }
                index.insert(id, jobs.len());
                jobs.push(RecoveredJob {
                    id,
                    spec: spec_text,
                    argv: request.argv,
                    deadline_ms: request.deadline_ms,
                    fingerprint,
                    state: RecoveredState::Unfinished,
                });
                next_id = id + 1;
            }
            "start" | "finish" | "cancel" => {
                let id = take_u64(&mut pairs, "job", line_no)?;
                let Some(job) = index.get(&id).map(|&i| &mut jobs[i]) else {
                    return Err(corrupt(format!(
                        "line {line_no}: {event} for unknown job {id}"
                    )));
                };
                match event.as_str() {
                    // A retried job starts more than once; any start on a
                    // terminal job is corruption.
                    "start" => {
                        if job.state != RecoveredState::Unfinished {
                            return Err(corrupt(format!(
                                "line {line_no}: start for terminal job {id}"
                            )));
                        }
                    }
                    "finish" => {
                        if job.state != RecoveredState::Unfinished {
                            return Err(corrupt(format!(
                                "line {line_no}: finish for terminal job {id}"
                            )));
                        }
                        let failed = take_u64(&mut pairs, "failed", line_no)? != 0;
                        let disposition =
                            match take_str(&mut pairs, "disposition", line_no)?.as_str() {
                                "ok" => Disposition::Ok { failed },
                                "hit" => Disposition::Hit { failed },
                                "deadline" => Disposition::Deadline,
                                "panic" => Disposition::Panic,
                                other => {
                                    return Err(corrupt(format!(
                                        "line {line_no}: unknown disposition {other:?}"
                                    )))
                                }
                            };
                        job.state = RecoveredState::Finished(disposition);
                    }
                    _ => {
                        if job.state != RecoveredState::Unfinished {
                            return Err(corrupt(format!(
                                "line {line_no}: cancel for terminal job {id}"
                            )));
                        }
                        job.state = RecoveredState::Cancelled;
                    }
                }
            }
            other => return Err(corrupt(format!("line {line_no}: unknown event {other:?}"))),
        }
        if let Some((k, _)) = pairs.first() {
            return Err(corrupt(format!("line {line_no}: unexpected field {k:?}")));
        }
        valid_len += line_len;
    }
    Ok(Replay {
        jobs,
        next_id,
        valid_len,
    })
}

/// The append side of the journal: an open file with an explicit sync
/// boundary and a real `fdatasync` behind it.
pub struct JobJournal {
    file: File,
    path: PathBuf,
    /// Records appended since the last [`JobJournal::sync`] — the
    /// pending tail that a crash right now would lose.
    pending_records: u64,
    /// Test seam: force the next append to fail as if the disk did,
    /// so the farm's degradation path can be exercised.
    fail_appends: bool,
}

impl JobJournal {
    /// Opens (creating if needed) the journal under `state_dir`,
    /// replaying whatever is already there. A torn final line is
    /// truncated away so new appends start on a clean boundary; a fresh
    /// journal gets its schema header written and synced immediately.
    ///
    /// # Errors
    ///
    /// I/O failures, and `SERVE-JOURNAL-CORRUPT` from [`replay`].
    pub fn open(state_dir: &Path) -> Result<(JobJournal, Replay), String> {
        fs::create_dir_all(state_dir.join(STORE_DIR))
            .map_err(|e| format!("cannot create state dir {}: {e}", state_dir.display()))?;
        let path = state_dir.join(JOURNAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
        let recovered = replay(&bytes)?;
        if recovered.valid_len < bytes.len() as u64 {
            file.set_len(recovered.valid_len)
                .map_err(|e| format!("cannot truncate torn journal tail: {e}"))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| format!("cannot seek journal: {e}"))?;
        let mut journal = JobJournal {
            file,
            path,
            pending_records: 0,
            fail_appends: false,
        };
        if recovered.valid_len == 0 {
            journal.append(&format!("{{\"schema\": \"{JOURNAL_SCHEMA}\"}}"))?;
            journal.sync()?;
        }
        Ok((journal, recovered))
    }

    /// Appends one record line to the pending tail. Not durable until
    /// [`JobJournal::sync`] — callers must sync before acknowledging
    /// anything that depends on the record.
    ///
    /// # Errors
    ///
    /// Write failures (disk full, journal file removed underneath us).
    pub fn append(&mut self, line: &str) -> Result<(), String> {
        debug_assert!(!line.contains('\n'), "journal records are single lines");
        if self.fail_appends {
            return Err(format!(
                "cannot append to journal {}: injected test failure",
                self.path.display()
            ));
        }
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.write_all(b"\n"))
            .map_err(|e| format!("cannot append to journal {}: {e}", self.path.display()))?;
        self.pending_records += 1;
        Ok(())
    }

    /// The fsync boundary: makes every appended record durable.
    ///
    /// # Errors
    ///
    /// `fdatasync` failures.
    pub fn sync(&mut self) -> Result<(), String> {
        self.file
            .sync_data()
            .map_err(|e| format!("cannot sync journal {}: {e}", self.path.display()))?;
        self.pending_records = 0;
        Ok(())
    }

    /// Records appended but not yet synced — must be 0 whenever the
    /// farm has acknowledged everything it logged (asserted by the
    /// shutdown regression test).
    pub fn pending_records(&self) -> u64 {
        self.pending_records
    }

    /// Makes every subsequent [`JobJournal::append`] fail, as a
    /// transient disk error would — the seam the journal-degradation
    /// test drives.
    #[cfg(test)]
    pub(crate) fn inject_append_failure(&mut self) {
        self.fail_appends = true;
    }
}

/// Journal record constructors, kept next to the parser so the two
/// cannot drift.
pub mod record {
    use simsym_vm::json::push_json_string;

    /// A `submit` record: the job is acknowledged once this is durable.
    pub fn submit(id: u64, fingerprint: u64, spec_text: &str) -> String {
        let mut out = format!(
            "{{\"event\": \"submit\", \"job\": {id}, \"fingerprint\": \"{fingerprint:016x}\", \"spec\": "
        );
        push_json_string(&mut out, spec_text);
        out.push('}');
        out
    }

    /// A `start` record: a worker picked the job up.
    pub fn start(id: u64) -> String {
        format!("{{\"event\": \"start\", \"job\": {id}}}")
    }

    /// A terminal `finish` record.
    pub fn finish(id: u64, disposition: super::Disposition) -> String {
        let failed = match disposition {
            super::Disposition::Ok { failed } | super::Disposition::Hit { failed } => {
                u8::from(failed)
            }
            _ => 1,
        };
        format!(
            "{{\"event\": \"finish\", \"job\": {id}, \"disposition\": \"{}\", \"failed\": {failed}}}",
            disposition.label()
        )
    }

    /// A terminal `cancel` record.
    pub fn cancel(id: u64) -> String {
        format!("{{\"event\": \"cancel\", \"job\": {id}}}")
    }
}

/// Path of the spilled artifact for `fingerprint`.
#[must_use]
pub fn artifact_path(state_dir: &Path, fingerprint: u64) -> PathBuf {
    state_dir
        .join(STORE_DIR)
        .join(format!("{fingerprint:016x}.json"))
}

/// Spills an artifact to the on-disk store, durably (write to a
/// temporary sibling, sync, rename, sync the store directory),
/// **before** the `finish` record is journaled — the same write-ahead
/// order the in-VM journal uses, so a durable `finish ok` always has
/// its artifact bytes on disk. The directory fsync matters: without it
/// the rename itself can be lost to `kill -9`, leaving a durable
/// `finish ok` record whose artifact never made it.
///
/// # Errors
///
/// I/O failures.
pub fn write_artifact(state_dir: &Path, fingerprint: u64, document: &str) -> Result<(), String> {
    let path = artifact_path(state_dir, fingerprint);
    let tmp = path.with_extension("json.tmp");
    let mut file =
        File::create(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    file.write_all(document.as_bytes())
        .and_then(|()| file.sync_data())
        .map_err(|e| format!("cannot write artifact {}: {e}", tmp.display()))?;
    drop(file);
    fs::rename(&tmp, &path)
        .map_err(|e| format!("cannot commit artifact {}: {e}", path.display()))?;
    let store = state_dir.join(STORE_DIR);
    File::open(&store)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("cannot sync artifact store {}: {e}", store.display()))
}

/// Reads a spilled artifact back; `None` when the store has no bytes
/// for this fingerprint (the caller re-runs the job — always safe,
/// because execution is deterministic).
#[must_use]
pub fn read_artifact(state_dir: &Path, fingerprint: u64) -> Option<String> {
    fs::read_to_string(artifact_path(state_dir, fingerprint)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit_line(id: u64, spec_text: &str) -> String {
        let argv = spec::job_argv(spec_text).expect("valid spec");
        record::submit(id, crate::job_fingerprint(&argv), spec_text)
    }

    fn journal_text(lines: &[String]) -> Vec<u8> {
        let mut out = format!("{{\"schema\": \"{JOURNAL_SCHEMA}\"}}\n");
        for l in lines {
            out.push_str(l);
            out.push('\n');
        }
        out.into_bytes()
    }

    #[test]
    fn replay_reconstructs_the_job_lifecycle() {
        let bytes = journal_text(&[
            submit_line(0, "{\"kind\": \"lint\", \"system\": \"ring:3\"}"),
            submit_line(
                1,
                "{\"kind\": \"lint\", \"system\": \"ring:4\", \"deadline_ms\": 50}",
            ),
            submit_line(2, "{\"kind\": \"lint\", \"system\": \"ring:5\"}"),
            record::start(0),
            record::finish(0, Disposition::Ok { failed: false }),
            record::cancel(2),
            record::start(1),
            submit_line(3, "{\"kind\": \"lint\", \"system\": \"ring:3\"}"),
            record::finish(3, Disposition::Hit { failed: false }),
        ]);
        let replayed = replay(&bytes).expect("clean journal");
        assert_eq!(replayed.next_id, 4);
        assert_eq!(replayed.valid_len, bytes.len() as u64);
        assert_eq!(replayed.jobs.len(), 4);
        assert_eq!(
            replayed.jobs[0].state,
            RecoveredState::Finished(Disposition::Ok { failed: false })
        );
        assert_eq!(
            replayed.jobs[3].state,
            RecoveredState::Finished(Disposition::Hit { failed: false })
        );
        assert_eq!(replayed.jobs[1].state, RecoveredState::Unfinished);
        assert_eq!(replayed.jobs[1].deadline_ms, Some(50));
        assert_eq!(replayed.jobs[2].state, RecoveredState::Cancelled);
        assert_eq!(replayed.jobs[0].argv[0], "lint");
        // Deterministic: replaying the same bytes twice is identical.
        assert_eq!(replay(&bytes).unwrap(), replayed);
    }

    #[test]
    fn torn_final_line_is_discarded_not_corrupt() {
        let mut bytes = journal_text(&[submit_line(0, "{\"kind\": \"panic\"}")]);
        let full = bytes.len() as u64;
        bytes.extend_from_slice(b"{\"event\": \"fin"); // crash mid-append
        let replayed = replay(&bytes).expect("torn tail is not corruption");
        assert_eq!(replayed.valid_len, full);
        assert_eq!(replayed.jobs.len(), 1);
        assert_eq!(replayed.jobs[0].state, RecoveredState::Unfinished);
    }

    #[test]
    fn malformed_interior_records_are_corrupt_with_the_code() {
        let good = submit_line(0, "{\"kind\": \"lint\", \"system\": \"ring:3\"}");
        for bad in [
            "{\"event\": \"melt\", \"job\": 0}".to_owned(),
            "{\"event\": \"finish\", \"job\": 7, \"disposition\": \"ok\", \"failed\": 0}"
                .to_owned(),
            "{\"event\": \"start\"}".to_owned(),
            "{\"event\": \"submit\", \"job\": 0, \"fingerprint\": \"0000000000000000\", \
             \"spec\": \"{\\\"kind\\\": \\\"lint\\\", \\\"system\\\": \\\"ring:3\\\"}\"}"
                .to_owned(),
            "not json at all".to_owned(),
            // A verify spec with the retired `interference` field, as a
            // farm that still took it journaled it.
            record::submit(
                1,
                crate::job_fingerprint(&[
                    "verify".to_owned(),
                    "--family".to_owned(),
                    "ring".to_owned(),
                    "--interference".to_owned(),
                    "static".to_owned(),
                    "--json".to_owned(),
                ]),
                "{\"kind\": \"verify\", \"family\": \"ring\", \"interference\": \"static\"}",
            ),
        ] {
            let bytes = journal_text(&[good.clone(), bad.clone()]);
            let err = replay(&bytes).expect_err(&format!("{bad:?} must be corrupt"));
            assert!(err.contains("SERVE-JOURNAL-CORRUPT"), "{err}");
        }
        // Double-terminal is corrupt too.
        let bytes = journal_text(&[
            good,
            record::finish(0, Disposition::Panic),
            record::cancel(0),
        ]);
        assert!(replay(&bytes)
            .unwrap_err()
            .contains("SERVE-JOURNAL-CORRUPT"));
    }

    #[test]
    fn open_truncates_torn_tail_and_resumes_appending() {
        let dir = test_dir("open-truncates");
        let (mut journal, first) = JobJournal::open(&dir).expect("fresh journal");
        assert_eq!(first.next_id, 0);
        journal
            .append(&submit_line(0, "{\"kind\": \"panic\"}"))
            .unwrap();
        journal.sync().unwrap();
        drop(journal);
        // Crash mid-append: garbage with no newline at the end.
        let path = dir.join(JOURNAL_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"event\": \"sta").unwrap();
        drop(f);

        let (mut journal, recovered) = JobJournal::open(&dir).expect("reopen");
        assert_eq!(recovered.jobs.len(), 1);
        journal.append(&record::start(0)).unwrap();
        journal.sync().unwrap();
        assert_eq!(journal.pending_records(), 0);
        drop(journal);
        // The torn bytes are gone; the resumed journal replays cleanly.
        let bytes = fs::read(&path).unwrap();
        let replayed = replay(&bytes).expect("clean after truncate+append");
        assert_eq!(replayed.jobs[0].state, RecoveredState::Unfinished);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifacts_round_trip_through_the_disk_store() {
        let dir = test_dir("artifact-store");
        fs::create_dir_all(dir.join(STORE_DIR)).unwrap();
        let doc = "{\"schema\": \"simsym-lint/v1\"}\n";
        write_artifact(&dir, 0xabcd, doc).expect("spill");
        assert_eq!(read_artifact(&dir, 0xabcd).as_deref(), Some(doc));
        assert_eq!(read_artifact(&dir, 0xdcba), None);
        fs::remove_dir_all(&dir).ok();
    }

    /// A unique per-test scratch dir (tests run concurrently in one
    /// process, so the name carries the test label).
    fn test_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "simsym-serve-journal-{}-{label}",
            std::process::id()
        ));
        fs::remove_dir_all(&dir).ok();
        dir
    }
}
