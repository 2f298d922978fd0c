//! # simsym-serve — the multi-tenant simulation farm
//!
//! A long-running job server over the batch engines: clients POST job
//! specs (sweep / lint / faults / soak / verify, see [`spec`]) to a
//! bounded queue; a worker pool drains the queue in batches through the
//! deterministic strided-partition sweep
//! ([`simsym_vm::engine::sweep::run_jobs`]), so every job's artifact is
//! **byte-identical for any worker count** and identical to what the
//! batch CLI prints for the same argv. Completed artifacts land in a
//! content-addressed store keyed by the job fingerprint (FNV-1a64 over
//! the canonical argv); resubmitting the same job returns the stored
//! document immediately and reports a cache hit.
//!
//! The wire protocol is std-only: `std::net` TCP with a minimal
//! HTTP/1.1 subset (one request per connection, `Connection: close`) and
//! newline-delimited JSON for progress events:
//!
//! | request | response |
//! |---|---|
//! | `POST /jobs` (body = job spec) | `{"job": N, "cache": "hit"\|"miss", ...}` |
//! | `GET /jobs/N/events` | NDJSON event stream, closed at the terminal event |
//! | `GET /jobs/N/result` | the final document (blocks until the job is done) |
//! | `POST /jobs/N/cancel` | dequeues a queued job; interrupts a running one at the next sweep-job boundary |
//! | `GET /healthz` | liveness + saturation: queue depth, in-flight, workers, uptime |
//! | `POST /shutdown` | drain: finish queued + in-flight, reject new work |
//!
//! Submission failures carry the `SERVE-*` diagnostic codes registered
//! in [`simsym_check::diag::codes`]: `SERVE-JOB-SPEC` (malformed spec),
//! `SERVE-QUEUE-FULL` (bounded queue at capacity, shed with
//! `Retry-After`), `SERVE-DRAINING` (shutdown in progress),
//! `SERVE-UNKNOWN-JOB` (bad job id), `SERVE-JOB-DEADLINE` (job abandoned
//! at a sweep-job boundary by its `deadline_ms`), `SERVE-JOB-PANIC`
//! (job panicked on both its run and its one bounded retry),
//! `SERVE-CONN-TIMEOUT` (slowloris guard), `SERVE-JOURNAL-CORRUPT`
//! (unrecoverable `--state-dir` journal), `SERVE-JOURNAL-DEGRADED`
//! (a journal write failed mid-run: the journal is poisoned — never
//! appended past a possibly-torn line — the failing submission is
//! refused, and the farm degrades loudly to volatile semantics).
//!
//! ## Crash safety
//!
//! With `--state-dir` the farm is crash-safe: every lifecycle event is
//! written ahead to the NDJSON job journal ([`journal`]) and synced
//! before the client sees an acknowledgement, and artifacts are spilled
//! to a content-addressed on-disk store before their `finish` record is
//! logged. After `kill -9`, restarting on the same state dir re-queues
//! every acknowledged-but-unfinished job (safe to re-run because every
//! job kind is deterministic) and serves finished artifacts from disk,
//! byte-identical to the pre-crash run.

use simsym_check::diag::codes;
use simsym_vm::engine::sweep::{self, StopSignal};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

pub mod client;
pub mod journal;
pub mod spec;

/// What a job run produced: the final document in one of the existing
/// `simsym-*/v1` schemas, and whether the run reported failure (the
/// batch CLI's nonzero exit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOutput {
    /// The rendered document (JSON, since job argv always carries `--json`).
    pub document: String,
    /// Whether the underlying command failed (error-severity findings).
    pub failed: bool,
}

/// Executes one job argv. The farm is engine-agnostic: the binary
/// implements this by routing straight through its own CLI dispatcher,
/// which is what makes served artifacts byte-identical to batch output
/// *by construction* rather than by parallel maintenance.
pub trait JobRunner: Send + Sync {
    /// Runs the job to completion and returns its document.
    ///
    /// # Errors
    ///
    /// A usage-level error (the CLI would have printed it and exited
    /// nonzero before producing a document).
    fn run(&self, argv: &[String]) -> Result<JobOutput, String>;
}

/// FNV-1a64 over the canonical argv: the job fingerprint the
/// content-addressed store keys on. A unit separator between arguments
/// keeps `["a", "bc"]` and `["ab", "c"]` distinct.
#[must_use]
pub fn job_fingerprint(argv: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for arg in argv {
        for &b in arg.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Farm configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:9119`. Port 0 picks an ephemeral
    /// port; [`Server::local_addr`] reports the bound one.
    pub addr: String,
    /// Worker count for the strided-partition dispatcher. Results do not
    /// depend on it.
    pub workers: usize,
    /// Bounded queue capacity; submissions past it get `SERVE-QUEUE-FULL`.
    pub queue_capacity: usize,
    /// Durable state directory (job journal + artifact store). `None`
    /// runs the PR-9 volatile farm.
    pub state_dir: Option<String>,
    /// Farm-wide default deadline applied to jobs whose spec carries no
    /// `deadline_ms` of its own.
    pub default_deadline_ms: Option<u64>,
    /// Socket read/write timeout for client connections (slowloris
    /// guard); 0 disables the guard.
    pub conn_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:9119".to_owned(),
            workers: 2,
            queue_capacity: 64,
            state_dir: None,
            default_deadline_ms: None,
            conn_timeout_ms: 10_000,
        }
    }
}

/// What the farm did over its lifetime, reported when it drains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs that ran to completion on a worker.
    pub completed: u64,
    /// Submissions answered from the content-addressed store.
    pub cache_hits: u64,
    /// Submissions rejected (bad spec, queue full, draining).
    pub rejected: u64,
    /// Jobs re-queued after a first-run panic (bounded retry).
    pub retried: u64,
    /// Jobs that panicked on the retry too and were reported with
    /// `SERVE-JOB-PANIC`.
    pub panicked: u64,
    /// Jobs abandoned at a sweep-job boundary by `deadline_ms`.
    pub deadlines: u64,
    /// Jobs cancelled (queued or in-flight).
    pub cancelled: u64,
    /// Unfinished jobs re-queued from the journal at startup.
    pub recovered: u64,
}

enum JobState {
    Queued,
    Running,
    /// Finished with `output`; `cache_hit` when it came from the store.
    Done {
        output: Arc<JobOutput>,
        cache_hit: bool,
    },
    Cancelled,
}

/// How a job ended: the input of the one terminal transition,
/// `Farm::finish`, and of bind-time recovery. A verdict replayed from
/// the journal knows how its job ended but not the run's details, so
/// those are `None` there.
enum Verdict {
    /// The run's document (a runner error becomes a failed one), or, at
    /// recovery, the `finish ok` artifact read back from the disk store.
    Ran(Arc<JobOutput>),
    /// Answered from the content-addressed store.
    CacheHit(Arc<JobOutput>),
    /// Stopped at a sweep-job boundary by its deadline:
    /// `(deadline_ms, jobs_completed)` of the live run.
    Deadline(Option<(u64, u64)>),
    /// Panicked on its run and its retry, with the panic message.
    Panic(Option<String>),
    /// Cancelled; a job cancelled mid-run reports the sweep jobs it
    /// completed first.
    Cancelled(Option<u64>),
}

impl Verdict {
    /// The terminal state and event lines this verdict gives job `id`.
    fn outcome(&self, id: u64) -> (JobState, Vec<String>) {
        // A failed document under `code`. A live run first reports
        // `lead`: its event name and the fields after the code.
        let failed = |code: &str, message: String, lead: Option<(&str, String)>| {
            let events = lead.map(|(event, fields)| {
                event_line(id, event, &format!(", \"code\": \"{code}\"{fields}"))
            });
            let document = error_body(code, &message);
            (
                Arc::new(JobOutput {
                    document,
                    failed: true,
                }),
                events.into_iter().collect(),
            )
        };
        let recovered =
            |what: &str| format!("recovered from the journal: the job {what} before the restart");
        let (output, mut events) = match self {
            Verdict::Ran(output) | Verdict::CacheHit(output) => (Arc::clone(output), Vec::new()),
            Verdict::Deadline(Some((deadline_ms, n))) => failed(
                codes::SERVE_JOB_DEADLINE,
                format!(
                    "deadline of {deadline_ms}ms exceeded; stopped at a sweep-job boundary after {n} jobs"
                ),
                Some(("deadline", format!(", \"jobs_completed\": {n}"))),
            ),
            Verdict::Deadline(None) => failed(
                codes::SERVE_JOB_DEADLINE,
                recovered("exceeded its deadline"),
                None,
            ),
            Verdict::Panic(Some(panic)) => failed(
                codes::SERVE_JOB_PANIC,
                format!("job panicked on its run and its retry: {panic}"),
                Some(("panicked", String::new())),
            ),
            Verdict::Panic(None) => failed(codes::SERVE_JOB_PANIC, recovered("panicked"), None),
            Verdict::Cancelled(progress) => {
                let fields = progress.map_or(String::new(), |n| format!(", \"jobs_completed\": {n}"));
                return (
                    JobState::Cancelled,
                    vec![event_line(id, "cancelled", &fields)],
                );
            }
        };
        let cache_hit = matches!(self, Verdict::CacheHit(_));
        events.push(event_line(
            id,
            "finished",
            &format!(
                ", \"cache\": \"{}\", \"failed\": {}",
                if cache_hit { "hit" } else { "miss" },
                u8::from(output.failed)
            ),
        ));
        (JobState::Done { output, cache_hit }, events)
    }

    /// The journal record of this verdict.
    fn record(&self, id: u64) -> String {
        let disposition = match self {
            Verdict::Ran(output) | Verdict::CacheHit(output) => journal::Disposition::Ok {
                failed: output.failed,
            },
            Verdict::Deadline(_) => journal::Disposition::Deadline,
            Verdict::Panic(_) => journal::Disposition::Panic,
            Verdict::Cancelled(_) => return journal::record::cancel(id),
        };
        journal::record::finish(id, disposition)
    }

    /// The summary counter this verdict bumps.
    fn counter<'s>(&self, summary: &'s mut ServeSummary) -> &'s mut u64 {
        match self {
            Verdict::Ran(_) => &mut summary.completed,
            Verdict::CacheHit(_) => &mut summary.cache_hits,
            Verdict::Deadline(_) => &mut summary.deadlines,
            Verdict::Panic(_) => &mut summary.panicked,
            Verdict::Cancelled(_) => &mut summary.cancelled,
        }
    }
}

struct Job {
    argv: Vec<String>,
    fingerprint: u64,
    state: JobState,
    /// Pre-rendered NDJSON event lines; watchers replay from an index.
    events: Vec<String>,
    /// Effective per-job deadline (spec `deadline_ms`, else the farm
    /// default), measured from job start.
    deadline_ms: Option<u64>,
    /// Cooperative cancellation token, observed at sweep-job boundaries.
    cancel: Arc<AtomicBool>,
    /// Runs consumed so far: a first-run panic re-queues once.
    attempts: u32,
    /// The journal already holds a terminal record for this job — it
    /// was demoted to re-run only because its artifact bytes went
    /// missing. Its re-execution must not journal lifecycle records:
    /// replay treats start/finish/cancel after a terminal record as
    /// corruption, and a self-written journal must never fail to bind.
    journaled_terminal: bool,
}

impl Job {
    /// A queued job whose first event line announces it with the
    /// submission's cache disposition.
    fn new(
        id: u64,
        argv: Vec<String>,
        fingerprint: u64,
        deadline_ms: Option<u64>,
        cache: &str,
    ) -> Job {
        let queued = event_line(
            id,
            "queued",
            &format!(
                ", \"kind\": \"{}\", \"fingerprint\": \"{fingerprint:016x}\", \"cache\": \"{cache}\"",
                argv[0]
            ),
        );
        Job {
            argv,
            fingerprint,
            state: JobState::Queued,
            events: vec![queued],
            deadline_ms,
            cancel: Arc::new(AtomicBool::new(false)),
            attempts: 0,
            journaled_terminal: false,
        }
    }
}

#[derive(Default)]
struct FarmState {
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, Job>,
    /// fingerprint → artifact. Idempotent: identical jobs store identical
    /// bytes, so concurrent duplicate submissions are harmless.
    store: HashMap<u64, Arc<JobOutput>>,
    next_id: u64,
    in_flight: u64,
    draining: bool,
    dispatcher_done: bool,
    summary: ServeSummary,
    /// The write-ahead job journal when the farm runs with `--state-dir`.
    journal: Option<journal::JobJournal>,
    state_dir: Option<PathBuf>,
}

/// Shared farm state: one mutex, one condvar. Every state change that a
/// waiter could be blocked on (new queue entry, new event line, drain)
/// notifies all.
struct Farm {
    state: Mutex<FarmState>,
    cv: Condvar,
    config: ServeConfig,
    started: Instant,
}

impl Farm {
    #[cfg(test)]
    fn new(config: ServeConfig) -> Farm {
        Farm::with_state(config, FarmState::default())
    }

    fn with_state(config: ServeConfig, state: FarmState) -> Farm {
        Farm {
            state: Mutex::new(state),
            cv: Condvar::new(),
            config,
            started: Instant::now(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FarmState> {
        self.state.lock().expect("farm state poisoned")
    }

    fn event(st: &mut FarmState, id: u64, line: String) {
        if let Some(job) = st.jobs.get_mut(&id) {
            job.events.push(line);
        }
    }

    /// Appends one record to the job journal (no-op on a volatile
    /// farm). A failed append may have torn a partial line mid-file, so
    /// the journal is poisoned on the spot — appending anything after
    /// the fragment would make the next restart fail with
    /// `SERVE-JOURNAL-CORRUPT`. Returns `false` exactly when durability
    /// was just lost.
    fn journal_append(st: &mut FarmState, line: &str) -> bool {
        let Some(j) = st.journal.as_mut() else {
            return true;
        };
        if let Err(e) = j.append(line) {
            Farm::poison_journal(st, &e);
            return false;
        }
        true
    }

    /// The fsync boundary: called before any acknowledgement that
    /// depends on the appended records being durable. A failed sync
    /// poisons the journal like a failed append: the durability the
    /// farm promises can no longer be delivered. Returns `false`
    /// exactly when durability was just lost.
    fn journal_sync(st: &mut FarmState) -> bool {
        let Some(j) = st.journal.as_mut() else {
            return true;
        };
        if let Err(e) = j.sync() {
            Farm::poison_journal(st, &e);
            return false;
        }
        true
    }

    /// Drops the journal after an append/sync failure and tells the
    /// operator once, loudly: volatile semantics from here on.
    fn poison_journal(st: &mut FarmState, why: &str) {
        st.journal = None;
        eprintln!(
            "simsym serve: {why}; disabling the job journal for the rest of this run \
             (jobs accepted from here on are NOT crash-safe)"
        );
    }

    /// Journals a lifecycle record for job `id` — unless the journal
    /// already holds a terminal record for it (a job demoted to re-run
    /// after its artifact bytes went missing), in which case the record
    /// is skipped: the journal's verdict for the job is already right,
    /// and replay would reject a second lifecycle as corruption.
    fn journal_job(st: &mut FarmState, id: u64, line: &str) {
        if st.jobs.get(&id).is_some_and(|j| j.journaled_terminal) {
            return;
        }
        Farm::journal_append(st, line);
    }

    /// Submits a spec. Returns the response body and HTTP status.
    fn submit(&self, runner_spec: &str) -> (u16, String) {
        let capacity = self.config.queue_capacity;
        let request = match spec::job_request(runner_spec) {
            Ok(request) => request,
            Err(e) => {
                self.lock().summary.rejected += 1;
                return (
                    400,
                    error_body(codes::SERVE_JOB_SPEC, &format!("bad job spec: {e}")),
                );
            }
        };
        let spec::JobRequest { argv, deadline_ms } = request;
        let fingerprint = job_fingerprint(&argv);
        let mut st = self.lock();
        if st.draining {
            st.summary.rejected += 1;
            return (
                503,
                error_body(
                    codes::SERVE_DRAINING,
                    "the farm is draining; resubmit later",
                ),
            );
        }
        let artifact = st.store.get(&fingerprint).cloned();
        if artifact.is_none() && st.queue.len() >= capacity {
            st.summary.rejected += 1;
            return (
                503,
                error_body(
                    codes::SERVE_QUEUE_FULL,
                    &format!("queue is at capacity ({capacity}); resubmit later"),
                ),
            );
        }
        let id = st.next_id;
        st.next_id += 1;
        let cache = if artifact.is_some() { "hit" } else { "miss" };
        let ack =
            format!("{{\"schema\": \"simsym-serve/v1\", \"job\": {id}, \"cache\": \"{cache}\"}}\n");
        st.jobs
            .insert(id, Job::new(id, argv, fingerprint, deadline_ms, cache));
        let submitted = Farm::journal_append(
            &mut st,
            &journal::record::submit(id, fingerprint, runner_spec),
        );
        if let Some(artifact) = artifact {
            // Cache hit: the job finishes at once, with no queue entry
            // and no worker. Journaled as submit+finish so a restart
            // replays it as the finished job it is.
            self.finish(&mut st, id, &Verdict::CacheHit(artifact));
            return (200, ack);
        }
        // Write-ahead: the submit record is durable before the job is
        // visible to the dispatcher and before the client gets its ack —
        // an acknowledged job can never be lost to a crash. If the
        // record cannot be made durable the ack would be a lie, so the
        // submission is refused instead (the journal is poisoned by the
        // failure; a retry lands on the now-volatile farm and is
        // accepted under the weaker contract it advertises).
        if !(submitted && Farm::journal_sync(&mut st)) {
            st.jobs.remove(&id);
            st.summary.rejected += 1;
            return (
                503,
                error_body(
                    codes::SERVE_JOURNAL_DEGRADED,
                    "the job journal failed mid-write; the submission was not made durable — \
                     the farm has degraded to volatile semantics, resubmit to accept that",
                ),
            );
        }
        st.queue.push_back(id);
        self.cv.notify_all();
        (200, ack)
    }

    fn cancel(&self, id: u64) -> (u16, String) {
        let mut st = self.lock();
        let body = |tail: &str| {
            format!("{{\"schema\": \"simsym-serve/v1\", \"job\": {id}, \"cancelled\": {tail}}}\n")
        };
        match st.jobs.get(&id).map(|job| &job.state) {
            None => (
                404,
                error_body(codes::SERVE_UNKNOWN_JOB, &format!("no job {id}")),
            ),
            Some(JobState::Queued) => {
                st.queue.retain(|&q| q != id);
                self.finish(&mut st, id, &Verdict::Cancelled(None));
                (200, body("1"))
            }
            // Cooperative: raise the job's cancellation token; the worker
            // observes it at the next sweep-job boundary, discards partial
            // work, and finalizes the job as cancelled. Best-effort — a
            // run already past its last boundary finishes normally.
            Some(JobState::Running) => {
                st.jobs[&id].cancel.store(true, Ordering::Relaxed);
                Farm::event(&mut st, id, event_line(id, "cancel-requested", ""));
                self.cv.notify_all();
                (200, body("1, \"state\": \"running\""))
            }
            Some(state) => {
                let label = match state {
                    JobState::Cancelled => "cancelled",
                    _ => "done",
                };
                (409, body(&format!("0, \"state\": \"{label}\"")))
            }
        }
    }

    /// The one terminal transition of a live job, in this order: set
    /// the state; for a run, spill the artifact and store it (a durable
    /// `finish ok` always has its artifact); journal the terminal record
    /// (unless the journal already holds one) and sync; push the event
    /// lines; bump the summary counter; wake every waiter.
    fn finish(&self, st: &mut FarmState, id: u64, verdict: &Verdict) {
        let (state, events) = verdict.outcome(id);
        let Some(job) = st.jobs.get_mut(&id) else {
            return;
        };
        job.state = state;
        let fingerprint = job.fingerprint;
        if let Verdict::Ran(artifact) = verdict {
            if let Some(dir) = &st.state_dir {
                if let Err(e) = journal::write_artifact(dir, fingerprint, &artifact.document) {
                    eprintln!("simsym serve: artifact spill failed: {e}");
                }
            }
            st.store.insert(fingerprint, Arc::clone(artifact));
        }
        Farm::journal_job(st, id, &verdict.record(id));
        Farm::journal_sync(st);
        for line in events {
            Farm::event(st, id, line);
        }
        *verdict.counter(&mut st.summary) += 1;
        self.cv.notify_all();
    }

    /// The dispatcher loop: drain the queue in batches, shard each batch
    /// across `workers` scoped threads via the deterministic
    /// strided-partition sweep, repeat until told to drain and empty.
    /// Panic-retried jobs land back on the queue and are picked up by a
    /// later batch, so a drain still runs every acknowledged job.
    fn dispatch(&self, runner: &dyn JobRunner, workers: usize) {
        loop {
            let batch: Vec<u64> = {
                let mut st = self.lock();
                loop {
                    if !st.queue.is_empty() {
                        break st.queue.drain(..).collect();
                    }
                    if st.draining {
                        st.dispatcher_done = true;
                        self.cv.notify_all();
                        return;
                    }
                    st = self.cv.wait(st).expect("farm state poisoned");
                }
            };
            // The strided partition assigns batch[i] to worker i mod W;
            // per-job work and artifacts are deterministic regardless.
            sweep::run_jobs(workers, &batch, |id| self.execute_job(runner, *id));
        }
    }

    /// Runs one job on a worker thread: panic-isolated (`catch_unwind`),
    /// deadline- and cancel-aware (a [`StopSignal`] scoped around the
    /// run, observed by any nested [`sweep::run_jobs`] at its job
    /// boundaries), journaled write-ahead.
    fn execute_job(&self, runner: &dyn JobRunner, id: u64) {
        let (argv, cancel, deadline_ms) = {
            let mut st = self.lock();
            {
                let Some(job) = st.jobs.get_mut(&id) else {
                    return;
                };
                // Cancelled between batch drain and execution: skip.
                if !matches!(job.state, JobState::Queued) {
                    return;
                }
                job.state = JobState::Running;
            }
            st.in_flight += 1;
            Farm::journal_job(&mut st, id, &journal::record::start(id));
            Farm::event(&mut st, id, event_line(id, "started", ""));
            self.cv.notify_all();
            let job = st.jobs.get(&id).expect("running job exists");
            (
                job.argv.clone(),
                Arc::clone(&job.cancel),
                job.deadline_ms.or(self.config.default_deadline_ms),
            )
        };
        let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let signal = {
            let cancel = Arc::clone(&cancel);
            StopSignal::new(move || {
                cancel.load(Ordering::Relaxed) || deadline.is_some_and(|t| Instant::now() >= t)
            })
        };
        let outcome = sweep::with_stop_signal(Arc::clone(&signal), || {
            catch_unwind(AssertUnwindSafe(|| runner.run(&argv)))
        });

        let mut st = self.lock();
        st.in_flight -= 1;
        let verdict = if cancel.load(Ordering::Relaxed) {
            // Cancelled mid-run: partial work is discarded, nothing is
            // cached (the job never produced its real artifact).
            Verdict::Cancelled(Some(signal.jobs_completed()))
        } else if signal.fired() {
            // Deadline. The run may have returned a partial document or
            // even panicked on the truncated result — either way the only
            // honest artifact is the deadline verdict, and it is not
            // cached (a resubmission deserves a fresh budget).
            Verdict::Deadline(Some((deadline_ms.unwrap_or(0), signal.jobs_completed())))
        } else {
            match outcome {
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    let Some(job) = st.jobs.get_mut(&id) else {
                        return;
                    };
                    if job.attempts == 0 {
                        // Bounded retry: the job died without an artifact;
                        // re-queue it once. No journal record — it stays
                        // unfinished, which is exactly what it is.
                        job.attempts = 1;
                        job.state = JobState::Queued;
                        st.queue.push_back(id);
                        Farm::event(
                            &mut st,
                            id,
                            event_line(
                                id,
                                "retrying",
                                &format!(
                                    ", \"code\": \"{}\", \"panic\": {}",
                                    codes::SERVE_JOB_PANIC,
                                    json_string(&message)
                                ),
                            ),
                        );
                        st.summary.retried += 1;
                        self.cv.notify_all();
                        return;
                    }
                    Verdict::Panic(Some(message))
                }
                Ok(Ok(output)) => Verdict::Ran(Arc::new(output)),
                Ok(Err(e)) => Verdict::Ran(Arc::new(JobOutput {
                    document: format!(
                        "{{\"schema\": \"simsym-serve/v1\", \"error\": {}}}\n",
                        json_string(&e)
                    ),
                    failed: true,
                })),
            }
        };
        self.finish(&mut st, id, &verdict);
    }

    /// Blocks until job `id` reaches a terminal state; returns its
    /// artifact and cache disposition, or `None` if it was cancelled.
    fn wait_result(&self, id: u64) -> Result<Option<(Arc<JobOutput>, bool)>, String> {
        let mut st = self.lock();
        loop {
            let Some(job) = st.jobs.get(&id) else {
                return Err(format!("no job {id}"));
            };
            match &job.state {
                JobState::Done { output, cache_hit } => {
                    return Ok(Some((Arc::clone(output), *cache_hit)));
                }
                JobState::Cancelled => return Ok(None),
                _ => st = self.cv.wait(st).expect("farm state poisoned"),
            }
        }
    }
}

/// One `simsym-serve/v1` event line for job `id`; `fields` is empty or
/// starts with `", "`.
fn event_line(id: u64, event: &str, fields: &str) -> String {
    format!("{{\"schema\": \"simsym-serve/v1\", \"job\": {id}, \"event\": \"{event}\"{fields}}}")
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

fn error_body(code: &str, message: &str) -> String {
    format!(
        "{{\"schema\": \"simsym-serve/v1\", \"code\": \"{code}\", \"error\": {}}}\n",
        json_string(message)
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    simsym_vm::json::push_json_string(&mut out, s);
    out
}

/// The farm server: bind, then [`Server::run`] until a client posts
/// `/shutdown` and the queue drains.
pub struct Server {
    listener: TcpListener,
    farm: Arc<Farm>,
    runner: Arc<dyn JobRunner>,
    config: ServeConfig,
    /// (unfinished jobs re-queued, finished artifacts reloaded) from the
    /// journal at bind time.
    recovered: (u64, u64),
}

impl Server {
    /// Binds the listener (port 0 picks an ephemeral port). With a
    /// `state_dir`, replays the job journal first: finished jobs come
    /// back with their on-disk artifacts, unfinished jobs are re-queued
    /// under their original ids.
    ///
    /// # Errors
    ///
    /// Bind failures, a zero worker or queue capacity, and an
    /// unrecoverable journal (`SERVE-JOURNAL-CORRUPT`).
    pub fn bind(config: ServeConfig, runner: Arc<dyn JobRunner>) -> Result<Server, String> {
        if config.workers == 0 {
            return Err("--workers must be at least 1".into());
        }
        if config.queue_capacity == 0 {
            return Err("--queue must be at least 1".into());
        }
        let mut state = FarmState::default();
        let mut recovered = (0u64, 0u64);
        if let Some(dir) = &config.state_dir {
            let dir = PathBuf::from(dir);
            let (journal, replayed) = journal::JobJournal::open(&dir)?;
            recovered = recover_jobs(&mut state, &dir, replayed.jobs);
            state.next_id = replayed.next_id;
            state.summary.recovered = recovered.0;
            state.journal = Some(journal);
            state.state_dir = Some(dir);
        }
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        Ok(Server {
            listener,
            farm: Arc::new(Farm::with_state(config.clone(), state)),
            runner,
            config,
            recovered,
        })
    }

    /// What bind-time journal replay reconstructed: `(unfinished jobs
    /// re-queued, finished artifacts reloaded from the store)`.
    #[must_use]
    pub fn recovery(&self) -> (u64, u64) {
        self.recovered
    }

    /// The actually bound address (resolves a requested port 0).
    #[must_use]
    pub fn local_addr(&self) -> String {
        self.listener
            .local_addr()
            .map_or_else(|_| self.config.addr.clone(), |a| a.to_string())
    }

    /// Serves until drained: accepts connections, one request each, and
    /// returns the lifetime summary once `/shutdown` has been posted and
    /// every queued and in-flight job has finished.
    ///
    /// # Errors
    ///
    /// Accept-loop failures (handler-thread I/O errors only drop that
    /// connection).
    pub fn run(self) -> Result<ServeSummary, String> {
        let Server {
            listener,
            farm,
            runner,
            config,
            recovered: _,
        } = self;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("listener has no local addr: {e}"))?;
        let dispatcher = {
            let farm = Arc::clone(&farm);
            let runner = Arc::clone(&runner);
            let workers = config.workers;
            std::thread::spawn(move || {
                farm.dispatch(runner.as_ref(), workers);
                // Wake the acceptor so it notices dispatcher_done; the
                // connection itself is discarded.
                drop(TcpStream::connect(addr));
            })
        };
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
            if farm.lock().dispatcher_done {
                break;
            }
            let Ok(stream) = stream else { continue };
            if config.conn_timeout_ms > 0 {
                // Slowloris guard: a stalled client gets SERVE-CONN-TIMEOUT
                // instead of wedging a handler thread forever.
                let t = Duration::from_millis(config.conn_timeout_ms);
                let _ = stream.set_read_timeout(Some(t));
                let _ = stream.set_write_timeout(Some(t));
            }
            let farm = Arc::clone(&farm);
            // Dropping a finished handler's handle releases its stack;
            // only the live ones are joined at drain.
            handlers.retain(|h| !h.is_finished());
            handlers.push(std::thread::spawn(move || {
                handle_connection(stream, &farm);
            }));
        }
        dispatcher.join().map_err(|_| "dispatcher panicked")?;
        for h in handlers {
            let _ = h.join();
        }
        // Final fsync boundary before the summary document is emitted:
        // nothing the farm acknowledged may still be pending in the log.
        let mut st = farm.lock();
        Farm::journal_sync(&mut st);
        let summary = st.summary;
        drop(st);
        Ok(summary)
    }
}

/// Rebuilds farm state from replayed journal jobs: each journaled
/// verdict goes through the same outcome mapping as a live one, and
/// nothing is journaled. Finished `ok` jobs whose artifact file is
/// missing are demoted to unfinished and re-run — always safe, because
/// execution is deterministic.
fn recover_jobs(
    state: &mut FarmState,
    dir: &std::path::Path,
    jobs: Vec<journal::RecoveredJob>,
) -> (u64, u64) {
    let mut requeued = 0u64;
    let mut artifacts = 0u64;
    for rj in jobs {
        let mut job = Job::new(rj.id, rj.argv, rj.fingerprint, rj.deadline_ms, "miss");
        job.events.push(event_line(rj.id, "recovered", ""));
        let verdict = match rj.state {
            journal::RecoveredState::Finished(journal::Disposition::Ok { failed }) => {
                match journal::read_artifact(dir, rj.fingerprint) {
                    Some(document) => {
                        let artifact = Arc::new(JobOutput { document, failed });
                        state.store.insert(rj.fingerprint, Arc::clone(&artifact));
                        artifacts += 1;
                        Some(Verdict::Ran(artifact))
                    }
                    // Demoted: the journal's verdict stands (terminal,
                    // ok) but the artifact bytes are gone, so the job
                    // re-runs to regenerate them. The re-execution is
                    // NOT journaled — the journal already holds this
                    // job's terminal record, and replay would read a
                    // second start/finish as corruption, bricking the
                    // state dir on the restart after this one.
                    None => {
                        job.journaled_terminal = true;
                        None
                    }
                }
            }
            journal::RecoveredState::Finished(journal::Disposition::Deadline) => {
                Some(Verdict::Deadline(None))
            }
            journal::RecoveredState::Finished(journal::Disposition::Panic) => {
                Some(Verdict::Panic(None))
            }
            journal::RecoveredState::Cancelled => Some(Verdict::Cancelled(None)),
            journal::RecoveredState::Unfinished => None,
        };
        match verdict {
            Some(verdict) => {
                let (terminal, events) = verdict.outcome(rj.id);
                job.state = terminal;
                job.events.extend(events);
            }
            None => {
                state.queue.push_back(rj.id);
                requeued += 1;
            }
        }
        state.jobs.insert(rj.id, job);
    }
    (requeued, artifacts)
}

/// One parsed HTTP request.
struct Request {
    method: String,
    path: String,
    body: String,
}

/// Why reading a request failed: a stalled socket (the slowloris guard
/// tripping) is answered 408 with its own code, everything else 400.
enum RequestError {
    Timeout,
    Bad(String),
}

fn io_request_error(e: &std::io::Error) -> RequestError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => RequestError::Timeout,
        _ => RequestError::Bad(e.to_string()),
    }
}

/// Total byte cap on the request line plus every header line. Without
/// it a malicious client could grow a handler thread's memory without
/// bound by never sending a newline (the body is already capped).
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Reads one `\n`-terminated line, charging its bytes against the
/// request's shared head `budget`; a line (or an accumulation of lines)
/// past the budget is rejected with a 400, never buffered.
fn read_head_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, RequestError> {
    let mut line = Vec::new();
    loop {
        let buf = reader.fill_buf().map_err(|e| io_request_error(&e))?;
        if buf.is_empty() {
            break; // EOF mid-line; the caller rejects the fragment.
        }
        let nl = buf.iter().position(|&b| b == b'\n');
        let take = nl.map_or(buf.len(), |i| i + 1);
        if take > *budget {
            return Err(RequestError::Bad(format!(
                "request head exceeds the {MAX_HEAD_BYTES}-byte cap"
            )));
        }
        *budget -= take;
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if nl.is_some() {
            break;
        }
    }
    String::from_utf8(line).map_err(|_| RequestError::Bad("request head is not UTF-8".into()))
}

fn read_request(stream: &mut TcpStream) -> Result<Request, RequestError> {
    let bad = |m: &str| RequestError::Bad(m.to_owned());
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| RequestError::Bad(e.to_string()))?,
    );
    let mut budget = MAX_HEAD_BYTES;
    let line = read_head_line(&mut reader, &mut budget)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("empty request line"))?
        .to_owned();
    let path = parts
        .next()
        .ok_or_else(|| bad("request line has no path"))?
        .to_owned();
    let mut content_length = 0usize;
    loop {
        let header = read_head_line(&mut reader, &mut budget)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad Content-Length"))?;
            }
        }
    }
    if content_length > 1 << 20 {
        return Err(bad("body too large (1 MiB cap)"));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| io_request_error(&e))?;
    Ok(Request {
        method,
        path,
        body: String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?,
    })
}

fn write_response(stream: &mut TcpStream, status: u16, extra_headers: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Error",
    };
    // Overload shedding contract: every 503 (queue full, draining)
    // invites the client back rather than just slamming the door.
    let retry_after = if status == 503 {
        "Retry-After: 1\r\n"
    } else {
        ""
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{retry_after}{extra_headers}Connection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn handle_connection(mut stream: TcpStream, farm: &Farm) {
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(RequestError::Timeout) => {
            write_response(
                &mut stream,
                408,
                "",
                &error_body(
                    codes::SERVE_CONN_TIMEOUT,
                    &format!(
                        "connection stalled past the {}ms socket deadline",
                        farm.config.conn_timeout_ms
                    ),
                ),
            );
            return;
        }
        Err(RequestError::Bad(e)) => {
            write_response(&mut stream, 400, "", &error_body(codes::SERVE_JOB_SPEC, &e));
            return;
        }
    };
    let route = (request.method.as_str(), request.path.as_str());
    match route {
        ("POST", "/jobs") => {
            let (status, body) = farm.submit(&request.body);
            write_response(&mut stream, status, "", &body);
        }
        ("GET", "/healthz") => {
            let st = farm.lock();
            let body = format!(
                "{{\"schema\": \"simsym-serve/v1\", \"status\": \"{}\", \"queued\": {}, \"in_flight\": {}, \"workers\": {}, \"uptime_ms\": {}, \"completed\": {}, \"cache_hits\": {}, \"recovered\": {}}}\n",
                if st.draining { "draining" } else { "ok" },
                st.queue.len(),
                st.in_flight,
                farm.config.workers,
                farm.started.elapsed().as_millis(),
                st.summary.completed,
                st.summary.cache_hits,
                st.summary.recovered
            );
            drop(st);
            write_response(&mut stream, 200, "", &body);
        }
        ("POST", "/shutdown") => {
            let body = {
                let mut st = farm.lock();
                st.draining = true;
                // The drain ack is itself a durability point: no job the
                // farm has acknowledged may still be pending in the log.
                Farm::journal_sync(&mut st);
                let body = format!(
                    "{{\"schema\": \"simsym-serve/v1\", \"status\": \"draining\", \"queued\": {}}}\n",
                    st.queue.len()
                );
                farm.cv.notify_all();
                body
            };
            write_response(&mut stream, 200, "", &body);
        }
        ("POST", _) if request.path.ends_with("/cancel") => {
            match job_id(&request.path, "/cancel") {
                Some(id) => {
                    let (status, body) = farm.cancel(id);
                    write_response(&mut stream, status, "", &body);
                }
                None => write_unknown_job(&mut stream, &request.path),
            }
        }
        ("GET", _) if request.path.ends_with("/events") => match job_id(&request.path, "/events") {
            Some(id) => stream_events(&mut stream, farm, id),
            None => write_unknown_job(&mut stream, &request.path),
        },
        ("GET", _) if request.path.ends_with("/result") => match job_id(&request.path, "/result") {
            Some(id) => match farm.wait_result(id) {
                Ok(Some((artifact, cache_hit))) => {
                    let extra = format!(
                        "X-Simsym-Failed: {}\r\nX-Simsym-Cache: {}\r\n",
                        u8::from(artifact.failed),
                        if cache_hit { "hit" } else { "miss" }
                    );
                    write_response(&mut stream, 200, &extra, &artifact.document);
                }
                Ok(None) => write_response(
                    &mut stream,
                    409,
                    "",
                    &error_body(codes::SERVE_UNKNOWN_JOB, &format!("job {id} was cancelled")),
                ),
                Err(e) => {
                    write_response(
                        &mut stream,
                        404,
                        "",
                        &error_body(codes::SERVE_UNKNOWN_JOB, &e),
                    );
                }
            },
            None => write_unknown_job(&mut stream, &request.path),
        },
        (method, path) => write_response(
            &mut stream,
            404,
            "",
            &error_body(
                codes::SERVE_UNKNOWN_JOB,
                &format!("no route for {method} {path}"),
            ),
        ),
    }
}

fn write_unknown_job(stream: &mut TcpStream, path: &str) {
    write_response(
        stream,
        404,
        "",
        &error_body(codes::SERVE_UNKNOWN_JOB, &format!("bad job path {path:?}")),
    );
}

/// Parses `/jobs/<id><suffix>` → `<id>`.
fn job_id(path: &str, suffix: &str) -> Option<u64> {
    path.strip_prefix("/jobs/")?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Streams a job's NDJSON event lines until its terminal event, then
/// closes — the close *is* the end-of-stream marker (`Connection:
/// close` framing).
fn stream_events(stream: &mut TcpStream, farm: &Farm, id: u64) {
    {
        let st = farm.lock();
        if !st.jobs.contains_key(&id) {
            drop(st);
            write_response(
                stream,
                404,
                "",
                &error_body(codes::SERVE_UNKNOWN_JOB, &format!("no job {id}")),
            );
            return;
        }
    }
    let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let mut sent = 0usize;
    loop {
        let (lines, terminal) = {
            let mut st = farm.lock();
            loop {
                let Some(job) = st.jobs.get(&id) else { return };
                let terminal = matches!(job.state, JobState::Done { .. } | JobState::Cancelled);
                if job.events.len() > sent {
                    break (job.events[sent..].to_vec(), terminal);
                }
                if terminal {
                    return; // all events delivered, job terminal: close.
                }
                st = farm.cv.wait(st).expect("farm state poisoned");
            }
        };
        for line in &lines {
            if stream
                .write_all(format!("{line}\n").as_bytes())
                .and_then(|()| stream.flush())
                .is_err()
            {
                return;
            }
            sent += 1;
        }
        if terminal {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes the argv back as the document — enough to test queueing,
    /// caching, and determinism without a VM in the loop.
    struct EchoRunner;
    impl JobRunner for EchoRunner {
        fn run(&self, argv: &[String]) -> Result<JobOutput, String> {
            Ok(JobOutput {
                document: format!("{{\"argv\": \"{}\"}}\n", argv.join(" ")),
                failed: false,
            })
        }
    }

    fn test_config(workers: usize, queue: usize) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            queue_capacity: queue,
            ..ServeConfig::default()
        }
    }

    fn spawn_server(
        config: ServeConfig,
        runner: Arc<dyn JobRunner>,
    ) -> (String, std::thread::JoinHandle<ServeSummary>) {
        let server = Server::bind(config, runner).expect("bind");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        (addr, handle)
    }

    fn test_server(
        workers: usize,
        queue: usize,
    ) -> (String, std::thread::JoinHandle<ServeSummary>) {
        spawn_server(test_config(workers, queue), Arc::new(EchoRunner))
    }

    #[test]
    fn fingerprint_separates_argument_boundaries() {
        let a = job_fingerprint(&["ab".into(), "c".into()]);
        let b = job_fingerprint(&["a".into(), "bc".into()]);
        assert_ne!(a, b);
        assert_eq!(a, job_fingerprint(&["ab".into(), "c".into()]));
    }

    #[test]
    fn submit_run_fetch_and_cache_hit_roundtrip() {
        let (addr, handle) = test_server(2, 8);
        let spec = "{\"kind\": \"lint\", \"system\": \"ring:3\"}";
        let first = client::submit_job(&addr, spec).expect("submit");
        assert_eq!(first.cache, "miss");
        let result = client::fetch_result(&addr, first.job).expect("result");
        assert!(result.document.contains("lint ring:3 --json"));
        assert!(!result.failed);

        // Same spec again: served from the store, marked as a hit, and
        // byte-identical.
        let second = client::submit_job(&addr, spec).expect("resubmit");
        assert_eq!(second.cache, "hit");
        assert_ne!(second.job, first.job);
        let cached = client::fetch_result(&addr, second.job).expect("cached result");
        assert_eq!(cached.document, result.document);

        // Events for the cached job report the hit without a started line.
        let mut events = Vec::new();
        client::watch_events(&addr, second.job, |line| events.push(line.to_owned()))
            .expect("events");
        assert_eq!(events.len(), 2, "{events:?}");
        assert!(events[0].contains("\"event\": \"queued\""));
        assert!(events[0].contains("\"cache\": \"hit\""));
        assert!(events[1].contains("\"event\": \"finished\""));

        let summary = client::shutdown(&addr).expect("shutdown");
        assert!(summary.contains("draining"));
        let summary = handle.join().expect("server thread");
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.cache_hits, 1);
    }

    #[test]
    fn bad_specs_queue_overflow_and_unknown_jobs_are_diagnosed() {
        let (addr, handle) = test_server(1, 1);
        let bad = client::submit_job(&addr, "{\"kind\": \"melt\"}").unwrap_err();
        assert!(bad.contains("SERVE-JOB-SPEC"), "{bad}");

        let missing = client::fetch_result(&addr, 999).unwrap_err();
        assert!(missing.contains("SERVE-UNKNOWN-JOB"), "{missing}");

        // Overflow needs the single worker busy and the queue occupied;
        // the dispatcher may grab the first job instantly, so submit
        // until two are waiting at once or the rejection fires.
        let mut overflowed = None;
        for i in 0..64 {
            let spec = format!("{{\"kind\": \"lint\", \"system\": \"ring:3\", \"seed\": {i}}}");
            match client::submit_job(&addr, &spec) {
                Ok(_) => {}
                Err(e) => {
                    overflowed = Some(e);
                    break;
                }
            }
        }
        // A 1-deep queue under 64 rapid submissions overflows unless the
        // single worker outruns the client on every round-trip; accept
        // either, but when it rejects it must use the right code.
        if let Some(e) = overflowed {
            assert!(e.contains("SERVE-QUEUE-FULL"), "{e}");
        }

        client::shutdown(&addr).expect("shutdown");
        let summary = handle.join().expect("server thread");
        assert!(summary.rejected >= 1);
    }

    #[test]
    fn draining_farm_rejects_new_work_and_finishes_queued_jobs() {
        let (addr, handle) = test_server(1, 8);
        let a = client::submit_job(&addr, "{\"kind\": \"lint\", \"system\": \"ring:3\"}")
            .expect("submit");
        let summary = client::shutdown(&addr).expect("shutdown");
        assert!(summary.contains("draining"));
        let rejected = client::submit_job(&addr, "{\"kind\": \"lint\", \"system\": \"ring:4\"}");
        match rejected {
            // The farm may already have drained and exited; a connection
            // error is the same outcome for the client. When the farm is
            // still up, the refusal must carry the right code.
            Err(e) => {
                if e.contains("SERVE-") {
                    assert!(e.contains("SERVE-DRAINING"), "{e}");
                }
            }
            Ok(_) => panic!("draining farm accepted work"),
        }
        // The queued job still completed.
        let result = client::fetch_result(&addr, a.job);
        if let Ok(out) = result {
            assert!(out.document.contains("ring:3"));
        }
        handle.join().expect("server thread");
    }

    #[test]
    fn cancel_dequeues_a_queued_job() {
        let farm = Farm::new(test_config(1, 8));
        let (status, body) = farm.submit("{\"kind\": \"lint\", \"system\": \"ring:3\"}");
        assert_eq!(status, 200, "{body}");
        let (status, body) = farm.cancel(0);
        assert_eq!(status, 200, "{body}");
        assert!(farm.lock().queue.is_empty());
        assert!(matches!(farm.wait_result(0), Ok(None)));
        let (status, _) = farm.cancel(0);
        assert_eq!(status, 409, "cancelling twice is a conflict");
        let (status, body) = farm.cancel(42);
        assert_eq!(status, 404);
        assert!(body.contains("SERVE-UNKNOWN-JOB"));
        assert_eq!(farm.lock().summary.cancelled, 1);
    }

    /// Panics on `panic` jobs, echoes everything else — the fixture for
    /// panic isolation and the bounded retry.
    struct PanicRunner;
    impl JobRunner for PanicRunner {
        fn run(&self, argv: &[String]) -> Result<JobOutput, String> {
            if argv[0] == "panic" {
                panic!("panic fixture: deliberate failure");
            }
            EchoRunner.run(argv)
        }
    }

    /// Runs a nested deterministic sweep of many short jobs, so ambient
    /// stop signals (deadline, cancel) get boundaries to fire at.
    struct SlowRunner;
    impl JobRunner for SlowRunner {
        fn run(&self, _argv: &[String]) -> Result<JobOutput, String> {
            let jobs: Vec<u32> = (0..200).collect();
            let done = sweep::run_jobs(1, &jobs, |_| {
                std::thread::sleep(Duration::from_millis(5));
            });
            Ok(JobOutput {
                document: format!("{{\"jobs_done\": {}}}\n", done.len()),
                failed: false,
            })
        }
    }

    fn state_dir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("simsym-serve-test-{}-{label}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn panicking_job_is_isolated_retried_once_then_reported() {
        let (addr, handle) = spawn_server(test_config(2, 8), Arc::new(PanicRunner));
        let submitted = client::submit_job(&addr, "{\"kind\": \"panic\"}").expect("submit");
        let result = client::fetch_result(&addr, submitted.job).expect("result");
        assert!(result.failed);
        assert!(
            result.document.contains("SERVE-JOB-PANIC"),
            "{}",
            result.document
        );

        // The farm survived both panics and still runs ordinary work.
        let ok = client::submit_job(&addr, "{\"kind\": \"lint\", \"system\": \"ring:3\"}")
            .expect("submit after panic");
        let ok_result = client::fetch_result(&addr, ok.job).expect("result after panic");
        assert!(!ok_result.failed);

        let mut events = Vec::new();
        client::watch_events(&addr, submitted.job, |line| events.push(line.to_owned()))
            .expect("events");
        assert!(
            events.iter().any(|e| e.contains("\"event\": \"retrying\"")),
            "{events:?}"
        );
        assert!(
            events.iter().any(|e| e.contains("\"event\": \"panicked\"")),
            "{events:?}"
        );

        client::shutdown(&addr).expect("shutdown");
        let summary = handle.join().expect("server thread");
        assert_eq!(summary.retried, 1);
        assert_eq!(summary.panicked, 1);
        assert_eq!(summary.completed, 1);
    }

    #[test]
    fn deadline_stops_a_job_at_a_sweep_boundary() {
        let (addr, handle) = spawn_server(test_config(1, 8), Arc::new(SlowRunner));
        // 200 nested jobs at 5ms each (~1s) against a 40ms deadline.
        let submitted = client::submit_job(
            &addr,
            "{\"kind\": \"lint\", \"system\": \"ring:3\", \"deadline_ms\": 40}",
        )
        .expect("submit");
        let result = client::fetch_result(&addr, submitted.job).expect("result");
        assert!(result.failed);
        assert!(
            result.document.contains("SERVE-JOB-DEADLINE"),
            "{}",
            result.document
        );
        // Deadline verdicts are not cached: the same spec re-runs.
        let again = client::submit_job(
            &addr,
            "{\"kind\": \"lint\", \"system\": \"ring:3\", \"deadline_ms\": 40}",
        )
        .expect("resubmit");
        assert_eq!(again.cache, "miss");
        client::fetch_result(&addr, again.job).expect("second result");
        client::shutdown(&addr).expect("shutdown");
        let summary = handle.join().expect("server thread");
        assert_eq!(summary.deadlines, 2);
        assert_eq!(summary.completed, 0);
    }

    #[test]
    fn farm_default_deadline_applies_when_the_spec_has_none() {
        let mut config = test_config(1, 8);
        config.default_deadline_ms = Some(40);
        let (addr, handle) = spawn_server(config, Arc::new(SlowRunner));
        let submitted = client::submit_job(&addr, "{\"kind\": \"lint\", \"system\": \"ring:3\"}")
            .expect("submit");
        let result = client::fetch_result(&addr, submitted.job).expect("result");
        assert!(
            result.document.contains("SERVE-JOB-DEADLINE"),
            "{}",
            result.document
        );
        client::shutdown(&addr).expect("shutdown");
        assert_eq!(handle.join().expect("server thread").deadlines, 1);
    }

    #[test]
    fn cancel_interrupts_a_running_job() {
        let (addr, handle) = spawn_server(test_config(1, 8), Arc::new(SlowRunner));
        let submitted = client::submit_job(&addr, "{\"kind\": \"lint\", \"system\": \"ring:3\"}")
            .expect("submit");
        // Wait until the worker has actually picked the job up.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let health = client::healthz(&addr).expect("healthz");
            if health.contains("\"in_flight\": 1") {
                break;
            }
            assert!(Instant::now() < deadline, "job never started: {health}");
            std::thread::sleep(Duration::from_millis(5));
        }
        let body = client::cancel_job(&addr, submitted.job).expect("cancel");
        assert!(body.contains("\"cancelled\": 1"), "{body}");
        assert!(body.contains("\"state\": \"running\""), "{body}");
        let result = client::fetch_result(&addr, submitted.job).unwrap_err();
        assert!(result.contains("cancelled"), "{result}");
        client::shutdown(&addr).expect("shutdown");
        let summary = handle.join().expect("server thread");
        assert_eq!(summary.cancelled, 1);
        assert_eq!(summary.completed, 0);
    }

    #[test]
    fn journaled_farm_survives_restart_requeues_and_serves_from_disk() {
        let dir = state_dir("restart");
        let dir_str = dir.to_string_lossy().into_owned();
        let mut config = test_config(1, 8);
        config.state_dir = Some(dir_str);
        let spec_a = "{\"kind\": \"lint\", \"system\": \"ring:3\"}";

        // Life 1: run one job to completion, drain cleanly.
        let (addr, handle) = spawn_server(config.clone(), Arc::new(EchoRunner));
        let a = client::submit_job(&addr, spec_a).expect("submit");
        let first_doc = client::fetch_result(&addr, a.job).expect("result").document;
        client::shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread");

        // The drained journal replays with every job terminal.
        let bytes = std::fs::read(dir.join(journal::JOURNAL_FILE)).expect("journal");
        let replayed = journal::replay(&bytes).expect("clean journal");
        assert!(replayed
            .jobs
            .iter()
            .all(|j| j.state != journal::RecoveredState::Unfinished));

        // Simulate kill -9 mid-flight: a submit+start with no terminal
        // record, exactly what a crashed farm leaves behind.
        let spec_b = "{\"kind\": \"lint\", \"system\": \"ring:4\"}";
        {
            let (mut j, _) = journal::JobJournal::open(&dir).expect("reopen");
            let argv = spec::job_argv(spec_b).expect("spec");
            let id = replayed.next_id;
            j.append(&journal::record::submit(id, job_fingerprint(&argv), spec_b))
                .expect("append");
            j.append(&journal::record::start(id)).expect("append");
            j.sync().expect("sync");
        }

        // Life 2: the unfinished job is re-queued and re-run; the
        // finished one is served byte-identically from the disk store.
        let server = Server::bind(config, Arc::new(EchoRunner)).expect("rebind");
        assert_eq!(server.recovery(), (1, 1));
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        let recovered = client::fetch_result(&addr, replayed.next_id).expect("recovered result");
        assert!(
            recovered.document.contains("ring:4"),
            "{}",
            recovered.document
        );
        let hit = client::submit_job(&addr, spec_a).expect("resubmit");
        assert_eq!(hit.cache, "hit");
        let cached = client::fetch_result(&addr, hit.job).expect("cached result");
        assert_eq!(
            cached.document, first_doc,
            "byte-identical across the crash"
        );
        client::shutdown(&addr).expect("shutdown");
        let summary = handle.join().expect("server thread");
        assert_eq!(summary.recovered, 1);
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.cache_hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_artifact_rerun_does_not_brick_the_journal() {
        let dir = state_dir("demote-rerun");
        let mut config = test_config(1, 8);
        config.state_dir = Some(dir.to_string_lossy().into_owned());
        let spec = "{\"kind\": \"lint\", \"system\": \"ring:3\"}";

        // Life 1: run one job to completion, drain cleanly.
        let (addr, handle) = spawn_server(config.clone(), Arc::new(EchoRunner));
        let a = client::submit_job(&addr, spec).expect("submit");
        let first_doc = client::fetch_result(&addr, a.job).expect("result").document;
        client::shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread");

        // Lose the artifact bytes; the journal still says `finish ok`.
        let argv = spec::job_argv(spec).expect("spec");
        let artifact = journal::artifact_path(&dir, job_fingerprint(&argv));
        std::fs::remove_file(&artifact).expect("artifact existed");

        // Life 2: the job is demoted to unfinished and re-run. The
        // re-execution must not journal a second start/finish for a job
        // the journal already holds as terminal.
        let server = Server::bind(config.clone(), Arc::new(EchoRunner)).expect("life 2 bind");
        assert_eq!(server.recovery(), (1, 0));
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        let rerun = client::fetch_result(&addr, a.job).expect("re-run result");
        assert_eq!(rerun.document, first_doc, "deterministic re-execution");
        client::shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread");

        // Life 3: the self-written journal must still bind — and the
        // re-run regenerated the artifact, so the job is served from
        // disk again instead of being re-queued a second time.
        let server = Server::bind(config, Arc::new(EchoRunner)).expect("life 3 bind");
        assert_eq!(server.recovery(), (0, 1));
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_write_failure_degrades_to_volatile_and_refuses_the_ack() {
        let dir = state_dir("degrade");
        let mut config = test_config(1, 8);
        config.state_dir = Some(dir.to_string_lossy().into_owned());
        let server = Server::bind(config, Arc::new(EchoRunner)).expect("bind");
        server
            .farm
            .lock()
            .journal
            .as_mut()
            .expect("journaled farm")
            .inject_append_failure();
        // The submit whose record cannot be made durable is refused —
        // a 200 here would promise crash-safety the farm cannot keep.
        let (status, body) = server
            .farm
            .submit("{\"kind\": \"lint\", \"system\": \"ring:3\"}");
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("SERVE-JOURNAL-DEGRADED"), "{body}");
        {
            let st = server.farm.lock();
            assert!(st.journal.is_none(), "journal must be poisoned");
            assert!(st.queue.is_empty(), "refused job must not be queued");
            assert!(st.jobs.is_empty(), "refused job must not linger");
        }
        // Nothing was appended past the failure: the on-disk journal
        // still replays cleanly on the next restart.
        let bytes = std::fs::read(dir.join(journal::JOURNAL_FILE)).expect("journal");
        journal::replay(&bytes).expect("clean journal after poisoning");
        // The farm lives on, volatile: a retry is accepted.
        let (status, body) = server
            .farm
            .submit("{\"kind\": \"lint\", \"system\": \"ring:3\"}");
        assert_eq!(status, 200, "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn request_head_is_bounded() {
        // One header line far past the cap is rejected, not buffered.
        let mut budget = MAX_HEAD_BYTES;
        let huge = format!("X-Flood: {}\r\n", "a".repeat(2 * MAX_HEAD_BYTES));
        let mut reader: &[u8] = huge.as_bytes();
        match read_head_line(&mut reader, &mut budget) {
            Err(RequestError::Bad(m)) => assert!(m.contains("cap"), "{m}"),
            other => panic!("oversized line must be rejected, got {:?}", other.is_ok()),
        }
        // Many small headers exhaust the same shared budget.
        let many = "X-H: v\r\n".repeat(4 * 1024);
        let mut reader: &[u8] = many.as_bytes();
        let mut budget = MAX_HEAD_BYTES;
        let mut rejected = false;
        for _ in 0..(4 * 1024) {
            match read_head_line(&mut reader, &mut budget) {
                Ok(_) => {}
                Err(RequestError::Bad(m)) => {
                    assert!(m.contains("cap"), "{m}");
                    rejected = true;
                    break;
                }
                Err(RequestError::Timeout) => panic!("not a timeout"),
            }
        }
        assert!(rejected, "the shared head budget must run out");
    }

    #[test]
    fn a_spec_file_system_is_refused_before_it_is_journaled() {
        let dir = state_dir("spec-file");
        let server = Server::bind(journaled_config(&dir), Arc::new(EchoRunner)).expect("bind");
        let header = journal_text(&dir);
        let (status, body) = server
            .farm
            .submit("{\"kind\": \"lint\", \"system\": \"@/dev/zero\"}");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("SERVE-JOB-SPEC"), "{body}");
        assert_eq!(journal_text(&dir), header, "a refused job leaves no line");
        assert_eq!(server.farm.lock().summary.rejected, 1);
        let (status, body) = server
            .farm
            .submit("{\"kind\": \"lint\", \"system\": \"ring:3\"}");
        assert_eq!(status, 200, "{body}");
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn submit_ack_is_durable_before_it_is_sent() {
        let dir = state_dir("durable-ack");
        let mut config = test_config(1, 8);
        config.state_dir = Some(dir.to_string_lossy().into_owned());
        // Bind only — no dispatcher, so the job can't finish: whatever is
        // in the journal after submit() returns is the write-ahead state.
        let server = Server::bind(config, Arc::new(EchoRunner)).expect("bind");
        let (status, _) = server
            .farm
            .submit("{\"kind\": \"lint\", \"system\": \"ring:3\"}");
        assert_eq!(status, 200);
        let st = server.farm.lock();
        assert_eq!(
            st.journal
                .as_ref()
                .expect("journaled farm")
                .pending_records(),
            0,
            "the ack must not outrun the fsync"
        );
        drop(st);
        let bytes = std::fs::read(dir.join(journal::JOURNAL_FILE)).expect("journal");
        let replayed = journal::replay(&bytes).expect("clean journal");
        assert_eq!(replayed.jobs.len(), 1);
        assert_eq!(replayed.jobs[0].state, journal::RecoveredState::Unfinished);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stalled_connection_gets_conn_timeout_not_a_wedged_farm() {
        let mut config = test_config(1, 8);
        config.conn_timeout_ms = 100;
        let (addr, handle) = spawn_server(config, Arc::new(EchoRunner));
        // A slowloris client: opens the socket, sends half a request
        // line, stalls.
        let mut slow = TcpStream::connect(&addr).expect("connect");
        slow.write_all(b"POST /jo").expect("partial write");
        let mut response = String::new();
        slow.read_to_string(&mut response).expect("read 408");
        assert!(response.contains("408"), "{response}");
        assert!(response.contains("SERVE-CONN-TIMEOUT"), "{response}");
        drop(slow);
        // The farm is unharmed.
        assert!(client::healthz(&addr)
            .expect("healthz")
            .contains("\"status\": \"ok\""));
        client::shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread");
    }

    #[test]
    fn queue_full_and_draining_responses_carry_retry_after() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            write_response(&mut stream, 503, "", "{}");
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        writer.join().expect("writer");
        assert!(response.contains("Retry-After: 1"), "{response}");
    }

    /// The runner behind the terminal-path pins: `fail:1` is a usage
    /// error, `slow:1` outlives a 1 ms deadline before its nested sweep
    /// reaches a boundary, `block:1` waits twice on `gate` (started, then
    /// released) so a test can cancel it mid-run, the `panic` kind
    /// panics, and everything else echoes.
    struct PinRunner {
        gate: std::sync::Barrier,
    }
    impl JobRunner for PinRunner {
        fn run(&self, argv: &[String]) -> Result<JobOutput, String> {
            match argv.get(1).map(String::as_str) {
                Some("fail:1") => Err("unknown family \"fail\"".to_owned()),
                Some("slow:1") => {
                    std::thread::sleep(Duration::from_millis(20));
                    sweep::run_jobs(1, &[0u8; 3], |_| ());
                    EchoRunner.run(argv)
                }
                Some("block:1") => {
                    self.gate.wait();
                    self.gate.wait();
                    EchoRunner.run(argv)
                }
                _ => PanicRunner.run(argv),
            }
        }
    }

    /// Replaces the run of digits after each `marker` with `N`.
    fn mask_count(text: &str, marker: &str) -> String {
        let mut out = String::new();
        let mut rest = text;
        while let Some(i) = rest.find(marker) {
            let (head, tail) = rest.split_at(i + marker.len());
            out.push_str(head);
            out.push('N');
            rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
        }
        out.push_str(rest);
        out
    }

    /// Every job's state and event lines and, for a finished job, its
    /// result (failed flag, cache disposition, document bytes). The
    /// partial-progress counts of a stopped run are masked: they depend
    /// on timing.
    fn farm_transcript(farm: &Farm) -> String {
        let ids: Vec<u64> = farm.lock().jobs.keys().copied().collect();
        let mut out = String::new();
        for id in ids {
            let (state, events) = {
                let st = farm.lock();
                let job = &st.jobs[&id];
                // Matched without binding, so the pin does not depend on
                // what a finished state carries.
                let state = match job.state {
                    JobState::Queued => "queued",
                    JobState::Running => "running",
                    JobState::Cancelled => "cancelled",
                    _ => "done",
                };
                (state, job.events.clone())
            };
            out.push_str(&format!("job {id} {state}\n"));
            for line in events {
                out.push_str(&format!("  {line}\n"));
            }
            if state == "done" {
                let (artifact, hit) = farm.wait_result(id).expect("job").expect("done");
                out.push_str(&format!(
                    "  result failed={} hit={hit} {:?}\n",
                    u8::from(artifact.failed),
                    artifact.document
                ));
            }
        }
        mask_count(&mask_count(&out, "\"jobs_completed\": "), "boundary after ")
    }

    fn journal_text(dir: &std::path::Path) -> String {
        std::fs::read_to_string(dir.join(journal::JOURNAL_FILE)).expect("journal")
    }

    /// Drives a journaled farm through every live terminal path, one
    /// job each, on the calling thread: a miss that succeeds, a miss
    /// whose runner errs, a cache hit, a deadline, a panic retried and
    /// then final, a cancel while queued, a cancel while running; job 7
    /// is left queued. Returns the transcript of every response.
    fn drive_every_live_path(farm: &Farm, runner: &PinRunner) -> String {
        let mut responses = Vec::new();
        let mut submit = |spec: &str| responses.push(farm.submit(spec));
        submit("{\"kind\": \"lint\", \"system\": \"ring:3\"}");
        farm.execute_job(runner, 0);
        submit("{\"kind\": \"lint\", \"system\": \"fail:1\"}");
        farm.execute_job(runner, 1);
        submit("{\"kind\": \"lint\", \"system\": \"ring:3\"}");
        submit("{\"kind\": \"lint\", \"system\": \"slow:1\", \"deadline_ms\": 1}");
        farm.execute_job(runner, 3);
        submit("{\"kind\": \"panic\", \"seed\": 1}");
        farm.execute_job(runner, 4);
        farm.execute_job(runner, 4);
        submit("{\"kind\": \"lint\", \"system\": \"ring:4\"}");
        submit("{\"kind\": \"lint\", \"system\": \"block:1\"}");
        submit("{\"kind\": \"lint\", \"system\": \"ring:5\"}");
        responses.push(farm.cancel(5));
        responses.push(farm.cancel(5));
        std::thread::scope(|s| {
            let worker = s.spawn(|| farm.execute_job(runner, 6));
            runner.gate.wait();
            responses.push(farm.cancel(6));
            runner.gate.wait();
            worker.join().expect("worker");
        });
        responses.push(farm.cancel(6));
        responses
            .iter()
            .map(|(status, body)| format!("{status} {body}"))
            .collect()
    }

    fn pin_runner() -> PinRunner {
        PinRunner {
            gate: std::sync::Barrier::new(2),
        }
    }

    fn journaled_config(dir: &std::path::Path) -> ServeConfig {
        let mut config = test_config(1, 8);
        config.state_dir = Some(dir.to_string_lossy().into_owned());
        config
    }

    const LIVE_RESPONSES: &str = r##"200 {"schema": "simsym-serve/v1", "job": 0, "cache": "miss"}
200 {"schema": "simsym-serve/v1", "job": 1, "cache": "miss"}
200 {"schema": "simsym-serve/v1", "job": 2, "cache": "hit"}
200 {"schema": "simsym-serve/v1", "job": 3, "cache": "miss"}
200 {"schema": "simsym-serve/v1", "job": 4, "cache": "miss"}
200 {"schema": "simsym-serve/v1", "job": 5, "cache": "miss"}
200 {"schema": "simsym-serve/v1", "job": 6, "cache": "miss"}
200 {"schema": "simsym-serve/v1", "job": 7, "cache": "miss"}
200 {"schema": "simsym-serve/v1", "job": 5, "cancelled": 1}
409 {"schema": "simsym-serve/v1", "job": 5, "cancelled": 0, "state": "cancelled"}
200 {"schema": "simsym-serve/v1", "job": 6, "cancelled": 1, "state": "running"}
409 {"schema": "simsym-serve/v1", "job": 6, "cancelled": 0, "state": "cancelled"}
"##;
    const LIVE_TRANSCRIPT: &str = r##"job 0 done
  {"schema": "simsym-serve/v1", "job": 0, "event": "queued", "kind": "lint", "fingerprint": "b16e2eac73947b1a", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 0, "event": "started"}
  {"schema": "simsym-serve/v1", "job": 0, "event": "finished", "cache": "miss", "failed": 0}
  result failed=0 hit=false "{\"argv\": \"lint ring:3 --json\"}\n"
job 1 done
  {"schema": "simsym-serve/v1", "job": 1, "event": "queued", "kind": "lint", "fingerprint": "d6aff3b3ac34bc66", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 1, "event": "started"}
  {"schema": "simsym-serve/v1", "job": 1, "event": "finished", "cache": "miss", "failed": 1}
  result failed=1 hit=false "{\"schema\": \"simsym-serve/v1\", \"error\": \"unknown family \\\"fail\\\"\"}\n"
job 2 done
  {"schema": "simsym-serve/v1", "job": 2, "event": "queued", "kind": "lint", "fingerprint": "b16e2eac73947b1a", "cache": "hit"}
  {"schema": "simsym-serve/v1", "job": 2, "event": "finished", "cache": "hit", "failed": 0}
  result failed=0 hit=true "{\"argv\": \"lint ring:3 --json\"}\n"
job 3 done
  {"schema": "simsym-serve/v1", "job": 3, "event": "queued", "kind": "lint", "fingerprint": "13a6ed00e1edc587", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 3, "event": "started"}
  {"schema": "simsym-serve/v1", "job": 3, "event": "deadline", "code": "SERVE-JOB-DEADLINE", "jobs_completed": N}
  {"schema": "simsym-serve/v1", "job": 3, "event": "finished", "cache": "miss", "failed": 1}
  result failed=1 hit=false "{\"schema\": \"simsym-serve/v1\", \"code\": \"SERVE-JOB-DEADLINE\", \"error\": \"deadline of 1ms exceeded; stopped at a sweep-job boundary after N jobs\"}\n"
job 4 done
  {"schema": "simsym-serve/v1", "job": 4, "event": "queued", "kind": "panic", "fingerprint": "93e1bebab164e084", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 4, "event": "started"}
  {"schema": "simsym-serve/v1", "job": 4, "event": "retrying", "code": "SERVE-JOB-PANIC", "panic": "panic fixture: deliberate failure"}
  {"schema": "simsym-serve/v1", "job": 4, "event": "started"}
  {"schema": "simsym-serve/v1", "job": 4, "event": "panicked", "code": "SERVE-JOB-PANIC"}
  {"schema": "simsym-serve/v1", "job": 4, "event": "finished", "cache": "miss", "failed": 1}
  result failed=1 hit=false "{\"schema\": \"simsym-serve/v1\", \"code\": \"SERVE-JOB-PANIC\", \"error\": \"job panicked on its run and its retry: panic fixture: deliberate failure\"}\n"
job 5 cancelled
  {"schema": "simsym-serve/v1", "job": 5, "event": "queued", "kind": "lint", "fingerprint": "a5c43c93fb8e2157", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 5, "event": "cancelled"}
job 6 cancelled
  {"schema": "simsym-serve/v1", "job": 6, "event": "queued", "kind": "lint", "fingerprint": "2ca2e31c63402155", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 6, "event": "started"}
  {"schema": "simsym-serve/v1", "job": 6, "event": "cancel-requested"}
  {"schema": "simsym-serve/v1", "job": 6, "event": "cancelled", "jobs_completed": N}
job 7 queued
  {"schema": "simsym-serve/v1", "job": 7, "event": "queued", "kind": "lint", "fingerprint": "23dcf6a167381b5c", "cache": "miss"}
"##;
    const LIVE_JOURNAL: &str = r##"{"schema": "simsym-serve-journal/v1"}
{"event": "submit", "job": 0, "fingerprint": "b16e2eac73947b1a", "spec": "{\"kind\": \"lint\", \"system\": \"ring:3\"}"}
{"event": "start", "job": 0}
{"event": "finish", "job": 0, "disposition": "ok", "failed": 0}
{"event": "submit", "job": 1, "fingerprint": "d6aff3b3ac34bc66", "spec": "{\"kind\": \"lint\", \"system\": \"fail:1\"}"}
{"event": "start", "job": 1}
{"event": "finish", "job": 1, "disposition": "ok", "failed": 1}
{"event": "submit", "job": 2, "fingerprint": "b16e2eac73947b1a", "spec": "{\"kind\": \"lint\", \"system\": \"ring:3\"}"}
{"event": "finish", "job": 2, "disposition": "ok", "failed": 0}
{"event": "submit", "job": 3, "fingerprint": "13a6ed00e1edc587", "spec": "{\"kind\": \"lint\", \"system\": \"slow:1\", \"deadline_ms\": 1}"}
{"event": "start", "job": 3}
{"event": "finish", "job": 3, "disposition": "deadline", "failed": 1}
{"event": "submit", "job": 4, "fingerprint": "93e1bebab164e084", "spec": "{\"kind\": \"panic\", \"seed\": 1}"}
{"event": "start", "job": 4}
{"event": "start", "job": 4}
{"event": "finish", "job": 4, "disposition": "panic", "failed": 1}
{"event": "submit", "job": 5, "fingerprint": "a5c43c93fb8e2157", "spec": "{\"kind\": \"lint\", \"system\": \"ring:4\"}"}
{"event": "submit", "job": 6, "fingerprint": "2ca2e31c63402155", "spec": "{\"kind\": \"lint\", \"system\": \"block:1\"}"}
{"event": "submit", "job": 7, "fingerprint": "23dcf6a167381b5c", "spec": "{\"kind\": \"lint\", \"system\": \"ring:5\"}"}
{"event": "cancel", "job": 5}
{"event": "start", "job": 6}
{"event": "cancel", "job": 6}
"##;

    #[test]
    fn every_live_terminal_path_keeps_its_bytes() {
        let dir = state_dir("pin-live");
        let server = Server::bind(journaled_config(&dir), Arc::new(EchoRunner)).expect("bind");
        let runner = pin_runner();
        let responses = drive_every_live_path(&server.farm, &runner);
        let transcript = farm_transcript(&server.farm);
        let journal = journal_text(&dir);
        assert_eq!(responses, LIVE_RESPONSES);
        assert_eq!(transcript, LIVE_TRANSCRIPT);
        assert_eq!(journal, LIVE_JOURNAL);
        assert_eq!(
            server.farm.lock().summary,
            ServeSummary {
                completed: 2,
                cache_hits: 1,
                rejected: 0,
                retried: 1,
                panicked: 1,
                deadlines: 1,
                cancelled: 2,
                recovered: 0,
            }
        );
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    const RECOVERED_TRANSCRIPT: &str = r##"job 0 done
  {"schema": "simsym-serve/v1", "job": 0, "event": "queued", "kind": "lint", "fingerprint": "b16e2eac73947b1a", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 0, "event": "recovered"}
  {"schema": "simsym-serve/v1", "job": 0, "event": "finished", "cache": "miss", "failed": 0}
  result failed=0 hit=false "{\"argv\": \"lint ring:3 --json\"}\n"
job 1 queued
  {"schema": "simsym-serve/v1", "job": 1, "event": "queued", "kind": "lint", "fingerprint": "d6aff3b3ac34bc66", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 1, "event": "recovered"}
job 2 done
  {"schema": "simsym-serve/v1", "job": 2, "event": "queued", "kind": "lint", "fingerprint": "b16e2eac73947b1a", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 2, "event": "recovered"}
  {"schema": "simsym-serve/v1", "job": 2, "event": "finished", "cache": "miss", "failed": 0}
  result failed=0 hit=false "{\"argv\": \"lint ring:3 --json\"}\n"
job 3 done
  {"schema": "simsym-serve/v1", "job": 3, "event": "queued", "kind": "lint", "fingerprint": "13a6ed00e1edc587", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 3, "event": "recovered"}
  {"schema": "simsym-serve/v1", "job": 3, "event": "finished", "cache": "miss", "failed": 1}
  result failed=1 hit=false "{\"schema\": \"simsym-serve/v1\", \"code\": \"SERVE-JOB-DEADLINE\", \"error\": \"recovered from the journal: the job exceeded its deadline before the restart\"}\n"
job 4 done
  {"schema": "simsym-serve/v1", "job": 4, "event": "queued", "kind": "panic", "fingerprint": "93e1bebab164e084", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 4, "event": "recovered"}
  {"schema": "simsym-serve/v1", "job": 4, "event": "finished", "cache": "miss", "failed": 1}
  result failed=1 hit=false "{\"schema\": \"simsym-serve/v1\", \"code\": \"SERVE-JOB-PANIC\", \"error\": \"recovered from the journal: the job panicked before the restart\"}\n"
job 5 cancelled
  {"schema": "simsym-serve/v1", "job": 5, "event": "queued", "kind": "lint", "fingerprint": "a5c43c93fb8e2157", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 5, "event": "recovered"}
  {"schema": "simsym-serve/v1", "job": 5, "event": "cancelled"}
job 6 cancelled
  {"schema": "simsym-serve/v1", "job": 6, "event": "queued", "kind": "lint", "fingerprint": "2ca2e31c63402155", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 6, "event": "recovered"}
  {"schema": "simsym-serve/v1", "job": 6, "event": "cancelled"}
job 7 queued
  {"schema": "simsym-serve/v1", "job": 7, "event": "queued", "kind": "lint", "fingerprint": "23dcf6a167381b5c", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 7, "event": "recovered"}
"##;
    const RERUN_TRANSCRIPT: &str = r##"job 0 done
  {"schema": "simsym-serve/v1", "job": 0, "event": "queued", "kind": "lint", "fingerprint": "b16e2eac73947b1a", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 0, "event": "recovered"}
  {"schema": "simsym-serve/v1", "job": 0, "event": "finished", "cache": "miss", "failed": 0}
  result failed=0 hit=false "{\"argv\": \"lint ring:3 --json\"}\n"
job 1 done
  {"schema": "simsym-serve/v1", "job": 1, "event": "queued", "kind": "lint", "fingerprint": "d6aff3b3ac34bc66", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 1, "event": "recovered"}
  {"schema": "simsym-serve/v1", "job": 1, "event": "started"}
  {"schema": "simsym-serve/v1", "job": 1, "event": "finished", "cache": "miss", "failed": 1}
  result failed=1 hit=false "{\"schema\": \"simsym-serve/v1\", \"error\": \"unknown family \\\"fail\\\"\"}\n"
job 2 done
  {"schema": "simsym-serve/v1", "job": 2, "event": "queued", "kind": "lint", "fingerprint": "b16e2eac73947b1a", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 2, "event": "recovered"}
  {"schema": "simsym-serve/v1", "job": 2, "event": "finished", "cache": "miss", "failed": 0}
  result failed=0 hit=false "{\"argv\": \"lint ring:3 --json\"}\n"
job 3 done
  {"schema": "simsym-serve/v1", "job": 3, "event": "queued", "kind": "lint", "fingerprint": "13a6ed00e1edc587", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 3, "event": "recovered"}
  {"schema": "simsym-serve/v1", "job": 3, "event": "finished", "cache": "miss", "failed": 1}
  result failed=1 hit=false "{\"schema\": \"simsym-serve/v1\", \"code\": \"SERVE-JOB-DEADLINE\", \"error\": \"recovered from the journal: the job exceeded its deadline before the restart\"}\n"
job 4 done
  {"schema": "simsym-serve/v1", "job": 4, "event": "queued", "kind": "panic", "fingerprint": "93e1bebab164e084", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 4, "event": "recovered"}
  {"schema": "simsym-serve/v1", "job": 4, "event": "finished", "cache": "miss", "failed": 1}
  result failed=1 hit=false "{\"schema\": \"simsym-serve/v1\", \"code\": \"SERVE-JOB-PANIC\", \"error\": \"recovered from the journal: the job panicked before the restart\"}\n"
job 5 cancelled
  {"schema": "simsym-serve/v1", "job": 5, "event": "queued", "kind": "lint", "fingerprint": "a5c43c93fb8e2157", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 5, "event": "recovered"}
  {"schema": "simsym-serve/v1", "job": 5, "event": "cancelled"}
job 6 cancelled
  {"schema": "simsym-serve/v1", "job": 6, "event": "queued", "kind": "lint", "fingerprint": "2ca2e31c63402155", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 6, "event": "recovered"}
  {"schema": "simsym-serve/v1", "job": 6, "event": "cancelled"}
job 7 done
  {"schema": "simsym-serve/v1", "job": 7, "event": "queued", "kind": "lint", "fingerprint": "23dcf6a167381b5c", "cache": "miss"}
  {"schema": "simsym-serve/v1", "job": 7, "event": "recovered"}
  {"schema": "simsym-serve/v1", "job": 7, "event": "started"}
  {"schema": "simsym-serve/v1", "job": 7, "event": "finished", "cache": "miss", "failed": 0}
  result failed=0 hit=false "{\"argv\": \"lint ring:5 --json\"}\n"
"##;
    const RERUN_JOURNAL_TAIL: &str = r##"{"event": "start", "job": 7}
{"event": "finish", "job": 7, "disposition": "ok", "failed": 0}
"##;

    #[test]
    fn every_recovered_terminal_path_keeps_its_bytes() {
        let dir = state_dir("pin-recovered");
        let runner = pin_runner();
        {
            let server =
                Server::bind(journaled_config(&dir), Arc::new(EchoRunner)).expect("life 1 bind");
            drive_every_live_path(&server.farm, &runner);
        }
        let before = journal_text(&dir);
        // Job 1's `finish ok` loses its artifact: it is demoted and re-run.
        let failed_argv = spec::job_argv("{\"kind\": \"lint\", \"system\": \"fail:1\"}").unwrap();
        std::fs::remove_file(journal::artifact_path(&dir, job_fingerprint(&failed_argv)))
            .expect("artifact existed");

        let server =
            Server::bind(journaled_config(&dir), Arc::new(EchoRunner)).expect("life 2 bind");
        assert_eq!(server.recovery(), (2, 2));
        let transcript = farm_transcript(&server.farm);
        assert_eq!(transcript, RECOVERED_TRANSCRIPT);
        assert_eq!(journal_text(&dir), before, "recovery journals nothing");
        {
            let st = server.farm.lock();
            assert_eq!(st.queue, [1, 7]);
            assert_eq!(
                st.summary,
                ServeSummary {
                    recovered: 2,
                    ..ServeSummary::default()
                }
            );
        }

        // The demoted re-run journals nothing; the unfinished job's does.
        server.farm.execute_job(&runner, 1);
        assert_eq!(journal_text(&dir), before);
        server.farm.execute_job(&runner, 7);
        let transcript = farm_transcript(&server.farm);
        let after = journal_text(&dir);
        let tail = after.strip_prefix(&before).expect("append-only journal");
        assert_eq!(transcript, RERUN_TRANSCRIPT);
        assert_eq!(tail, RERUN_JOURNAL_TAIL);
        assert_eq!(server.farm.lock().summary.completed, 2);
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }
}
