//! Minimized counterexamples: the delta-debugging shrinker and the
//! `simsym-repro/v1` artifact it emits.
//!
//! When a chaos run (the CLI's `simsym soak`) finds a checker violation,
//! the raw witness is large: a seeded fault plan, a few-thousand-step
//! schedule, a full-size system. [`shrink_counterexample`] minimizes all
//! three while preserving the verdict:
//!
//! 1. **crash events** — greedily drop each crash fault, keeping the
//!    removal iff the violation still reproduces;
//! 2. **schedule prefix** — binary-search the shortest reproducing
//!    prefix (violations are prefix-monotone: once observed, a longer
//!    schedule still contains it), then delta-debug the remainder with
//!    shrinking chunk sizes (halves, quarters, … single steps);
//! 3. **processor count** — retry on the smallest system that still
//!    contains every processor the plan and schedule mention.
//!
//! Every candidate is accepted only if the caller-supplied oracle re-runs
//! it to the **same violation code**, so a shrunk repro never drifts to a
//! different bug. The whole procedure is deterministic: candidate order
//! is a pure function of the input, and the oracle is expected to be a
//! deterministic replay.
//!
//! The result serializes as a [`ReproArtifact`] — a single-line JSON
//! document (`simsym-repro/v1`) that `simsym analyze --trace` accepts
//! and replays to the identical verdict.

use crate::faults::{CrashFault, FaultPlan, FaultPlanError, Recovery, RecoveryMode};
use crate::json::{self, push_json_string};
use simsym_graph::ProcId;
use std::fmt;

/// What one shrink pass did, for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Candidate replays attempted.
    pub candidates: usize,
    /// Crash events before / after shrinking.
    pub crashes_before: usize,
    /// Crash events surviving the shrink.
    pub crashes_after: usize,
    /// Schedule steps before shrinking.
    pub steps_before: usize,
    /// Schedule steps surviving the shrink.
    pub steps_after: usize,
    /// Processor count before shrinking.
    pub procs_before: usize,
    /// Processor count surviving the shrink.
    pub procs_after: usize,
}

/// A minimized counterexample: the smallest (plan, schedule, system
/// size) this shrinker found that still reproduces the violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shrunk {
    /// Processor count of the shrunk system.
    pub procs: usize,
    /// The surviving fault plan.
    pub plan: FaultPlan,
    /// The surviving schedule.
    pub schedule: Vec<ProcId>,
    /// The (unchanged) violation code every accepted candidate
    /// reproduced.
    pub violation: String,
    /// Shrink accounting.
    pub stats: ShrinkStats,
}

/// Minimizes `(plan, schedule, procs)` while `oracle` keeps reproducing
/// `violation`.
///
/// `oracle(procs, plan, schedule)` must deterministically replay the
/// candidate and return the first violation code it observes (or `None`
/// for a clean run). The initial input is assumed to reproduce; if it
/// does not, it is returned unshrunk.
pub fn shrink_counterexample<F>(
    procs: usize,
    plan: FaultPlan,
    schedule: Vec<ProcId>,
    violation: &str,
    oracle: F,
) -> Shrunk
where
    F: Fn(usize, &FaultPlan, &[ProcId]) -> Option<String>,
{
    let mut stats = ShrinkStats {
        crashes_before: plan.crashes.len(),
        steps_before: schedule.len(),
        procs_before: procs,
        ..ShrinkStats::default()
    };
    let mut best = Shrunk {
        procs,
        plan,
        schedule,
        violation: violation.to_owned(),
        stats,
    };
    let reproduces =
        |procs: usize, plan: &FaultPlan, schedule: &[ProcId], stats: &mut ShrinkStats| -> bool {
            stats.candidates += 1;
            oracle(procs, plan, schedule).as_deref() == Some(violation)
        };

    // Phase 1: greedily drop crash events (largest index first, so
    // earlier removals do not shift pending candidates).
    for i in (0..best.plan.crashes.len()).rev() {
        let mut candidate = best.plan.clone();
        candidate.crashes.remove(i);
        if reproduces(best.procs, &candidate, &best.schedule, &mut stats) {
            best.plan = candidate;
        }
    }

    // Phase 2a: binary-search the shortest reproducing schedule prefix.
    // Prefix-monotone: if schedule[..m] reproduces, so does any longer
    // prefix, because a checker violation, once observed, stays in the
    // diagnostic list.
    let mut lo = 0usize; // longest prefix known NOT to reproduce
    let mut hi = best.schedule.len(); // shortest prefix known to reproduce
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if reproduces(best.procs, &best.plan, &best.schedule[..mid], &mut stats) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    best.schedule.truncate(hi);

    // Phase 2b: delta-debug the surviving prefix — try removing chunks,
    // halving the chunk size down to single steps.
    let mut chunk = (best.schedule.len() / 2).max(1);
    loop {
        let mut start = 0;
        while start < best.schedule.len() {
            let end = (start + chunk).min(best.schedule.len());
            let mut candidate = best.schedule.clone();
            candidate.drain(start..end);
            if reproduces(best.procs, &best.plan, &candidate, &mut stats) {
                best.schedule = candidate;
                // Do not advance: the next chunk slid into `start`.
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }

    // Drop crashes the shrunk schedule can no longer trigger, then try
    // the crash pass once more (schedule shrinking may have made more
    // crashes irrelevant).
    for i in (0..best.plan.crashes.len()).rev() {
        let mut candidate = best.plan.clone();
        candidate.crashes.remove(i);
        if reproduces(best.procs, &candidate, &best.schedule, &mut stats) {
            best.plan = candidate;
        }
    }

    // Phase 3: shrink the processor count to the smallest system that
    // still contains every referenced processor.
    let max_ref = best
        .plan
        .crashes
        .iter()
        .map(|c| c.proc.index())
        .chain(best.schedule.iter().map(|p| p.index()))
        .max()
        .unwrap_or(0);
    for procs in (max_ref + 1).max(2)..best.procs {
        if reproduces(procs, &best.plan, &best.schedule, &mut stats) {
            best.procs = procs;
            break;
        }
    }

    stats.crashes_after = best.plan.crashes.len();
    stats.steps_after = best.schedule.len();
    stats.procs_after = best.procs;
    best.stats = stats;
    best
}

/// A replayable minimized counterexample: the `simsym-repro/v1`
/// document `simsym soak` emits and `simsym analyze --trace` replays.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReproArtifact {
    /// System family label (CLI vocabulary: `ring`, `table`, …).
    pub family: String,
    /// Processor count of the (possibly shrunk) system.
    pub procs: usize,
    /// The soak seed that produced the original counterexample.
    pub seed: u64,
    /// Whether the run journaled (replay recoveries) or not (resets).
    pub journal: bool,
    /// The violation code the artifact replays to.
    pub violation: String,
    /// The minimized fault plan.
    pub plan: FaultPlan,
    /// The minimized schedule, replayed verbatim.
    pub schedule: Vec<ProcId>,
}

impl ReproArtifact {
    /// Encodes the artifact as a deterministic single-line JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.schedule.len() * 3);
        out.push_str("{\"schema\":\"simsym-repro/v1\",\"family\":");
        push_json_string(&mut out, &self.family);
        out.push_str(",\"procs\":");
        out.push_str(&self.procs.to_string());
        out.push_str(",\"seed\":");
        out.push_str(&self.seed.to_string());
        out.push_str(",\"journal\":");
        out.push_str(if self.journal { "true" } else { "false" });
        out.push_str(",\"violation\":");
        push_json_string(&mut out, &self.violation);
        out.push_str(",\"plan\":[");
        for (i, c) in self.plan.crashes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"proc\":");
            out.push_str(&c.proc.index().to_string());
            out.push_str(",\"at_step\":");
            out.push_str(&c.at_step.to_string());
            if let Some(r) = c.recovery {
                out.push_str(",\"recovery\":{\"at_step\":");
                out.push_str(&r.at_step.to_string());
                out.push_str(",\"mode\":\"");
                out.push_str(r.mode.name());
                out.push_str("\"}");
            }
            out.push('}');
        }
        out.push_str("],\"schedule\":[");
        for (i, p) in self.schedule.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&p.index().to_string());
        }
        out.push_str("]}");
        out
    }

    /// Decodes a document produced by [`ReproArtifact::to_json`],
    /// validating the embedded fault plan.
    pub fn from_json(text: &str) -> Result<ReproArtifact, ReproError> {
        let value = json::parse(text).map_err(ReproError::Json)?;
        let obj = value.as_object().ok_or(ReproError::Shape("root object"))?;
        let schema = json::get(obj, "schema")
            .and_then(json::Value::as_str)
            .ok_or(ReproError::Shape("schema"))?;
        if schema != "simsym-repro/v1" {
            return Err(ReproError::Schema(schema.to_owned()));
        }
        let family = json::get(obj, "family")
            .and_then(json::Value::as_str)
            .ok_or(ReproError::Shape("family"))?
            .to_owned();
        let procs = json::get(obj, "procs")
            .and_then(json::Value::as_u64)
            .ok_or(ReproError::Shape("procs"))? as usize;
        let seed = json::get(obj, "seed")
            .and_then(json::Value::as_u64)
            .ok_or(ReproError::Shape("seed"))?;
        let journal = json::get(obj, "journal")
            .and_then(json::Value::as_bool)
            .ok_or(ReproError::Shape("journal"))?;
        let violation = json::get(obj, "violation")
            .and_then(json::Value::as_str)
            .ok_or(ReproError::Shape("violation"))?
            .to_owned();
        let raw_plan = json::get(obj, "plan")
            .and_then(json::Value::as_array)
            .ok_or(ReproError::Shape("plan"))?;
        let mut crashes = Vec::with_capacity(raw_plan.len());
        for raw in raw_plan {
            let c = raw.as_object().ok_or(ReproError::Shape("plan entry"))?;
            let proc = json::get(c, "proc")
                .and_then(json::Value::as_u64)
                .ok_or(ReproError::Shape("plan.proc"))?;
            let at_step = json::get(c, "at_step")
                .and_then(json::Value::as_u64)
                .ok_or(ReproError::Shape("plan.at_step"))?;
            let recovery = match json::get(c, "recovery") {
                None | Some(json::Value::Null) => None,
                Some(r) => {
                    let r = r.as_object().ok_or(ReproError::Shape("plan.recovery"))?;
                    let at_step = json::get(r, "at_step")
                        .and_then(json::Value::as_u64)
                        .ok_or(ReproError::Shape("recovery.at_step"))?;
                    let mode = json::get(r, "mode")
                        .and_then(json::Value::as_str)
                        .and_then(RecoveryMode::from_name)
                        .ok_or(ReproError::Shape("recovery.mode"))?;
                    Some(Recovery { at_step, mode })
                }
            };
            crashes.push(CrashFault {
                proc: ProcId::new(proc as usize),
                at_step,
                recovery,
            });
        }
        let plan = FaultPlan::try_crashes(crashes).map_err(ReproError::Plan)?;
        let schedule = json::get(obj, "schedule")
            .and_then(json::Value::as_array)
            .ok_or(ReproError::Shape("schedule"))?
            .iter()
            .map(|v| v.as_u64().map(|i| ProcId::new(i as usize)))
            .collect::<Option<Vec<_>>>()
            .ok_or(ReproError::Shape("schedule entries"))?;
        Ok(ReproArtifact {
            family,
            procs,
            seed,
            journal,
            violation,
            plan,
            schedule,
        })
    }
}

/// Errors from repro-artifact decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReproError {
    /// The document is not well-formed JSON.
    Json(String),
    /// The document is JSON but not a repro artifact (names the
    /// missing/ill-typed field).
    Shape(&'static str),
    /// The document declares an unknown schema.
    Schema(String),
    /// The embedded fault plan is ill-formed.
    Plan(FaultPlanError),
}

impl fmt::Display for ReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReproError::Json(e) => write!(f, "malformed JSON: {e}"),
            ReproError::Shape(field) => {
                write!(f, "not a repro document: bad field {field}")
            }
            ReproError::Schema(s) => write!(f, "unsupported repro schema {s:?}"),
            ReproError::Plan(e) => write!(f, "invalid fault plan: {e}"),
        }
    }
}

impl std::error::Error for ReproError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_artifact() -> ReproArtifact {
        ReproArtifact {
            family: "ring".to_owned(),
            procs: 5,
            seed: 42,
            journal: false,
            violation: "DYN-RECOV-STAB".to_owned(),
            plan: FaultPlan::crashes(vec![
                CrashFault {
                    proc: ProcId::new(1),
                    at_step: 3,
                    recovery: Some(Recovery::reset(9)),
                },
                CrashFault {
                    proc: ProcId::new(2),
                    at_step: 5,
                    recovery: None,
                },
            ]),
            schedule: vec![0, 1, 2, 0, 1].into_iter().map(ProcId::new).collect(),
        }
    }

    #[test]
    fn artifact_round_trips_and_is_deterministic() {
        let artifact = sample_artifact();
        let json = artifact.to_json();
        let back = ReproArtifact::from_json(&json).unwrap();
        assert_eq!(artifact, back);
        assert_eq!(json, back.to_json());
        assert!(json.starts_with("{\"schema\":\"simsym-repro/v1\""));
    }

    #[test]
    fn from_json_rejects_garbage_and_bad_plans() {
        assert!(matches!(
            ReproArtifact::from_json("not json"),
            Err(ReproError::Json(_))
        ));
        assert!(matches!(
            ReproArtifact::from_json("{\"schema\":\"simsym-repro/v2\"}"),
            Err(ReproError::Schema(_))
        ));
        // A duplicate-processor plan is rejected with the plan error, not
        // a panic.
        let mut bad = sample_artifact();
        bad.plan.crashes.push(CrashFault {
            proc: ProcId::new(1),
            at_step: 7,
            recovery: None,
        });
        let json = bad.to_json();
        assert!(matches!(
            ReproArtifact::from_json(&json),
            Err(ReproError::Plan(FaultPlanError::DuplicateProcessor { .. }))
        ));
        // Recovery-before-crash likewise.
        let mut bad = sample_artifact();
        bad.plan.crashes[0].recovery = Some(Recovery::reset(3));
        assert!(matches!(
            ReproArtifact::from_json(&bad.to_json()),
            Err(ReproError::Plan(FaultPlanError::RecoveryBeforeCrash { .. }))
        ));
    }

    /// A synthetic oracle: the "violation" fires iff the plan still
    /// crashes processor 1 at step 3 and the schedule contains at least
    /// two steps of processor 0 before position 6.
    fn toy_oracle(_procs: usize, plan: &FaultPlan, schedule: &[ProcId]) -> Option<String> {
        let crash_ok = plan
            .crashes
            .iter()
            .any(|c| c.proc == ProcId::new(1) && c.at_step == 3);
        let sched_ok = schedule
            .iter()
            .take(6)
            .filter(|&&p| p == ProcId::new(0))
            .count()
            >= 2;
        (crash_ok && sched_ok).then(|| "TOY-VIOLATION".to_owned())
    }

    #[test]
    fn shrinker_minimizes_while_preserving_the_verdict() {
        let plan = FaultPlan::crashes(vec![
            CrashFault {
                proc: ProcId::new(1),
                at_step: 3,
                recovery: Some(Recovery::reset(9)),
            },
            CrashFault {
                proc: ProcId::new(2),
                at_step: 1,
                recovery: None,
            },
            CrashFault {
                proc: ProcId::new(3),
                at_step: 2,
                recovery: None,
            },
        ]);
        let schedule: Vec<ProcId> = [0, 3, 2, 0, 1, 2, 3, 1, 0, 2]
            .into_iter()
            .map(ProcId::new)
            .collect();
        assert!(toy_oracle(5, &plan, &schedule).is_some());
        let shrunk = shrink_counterexample(5, plan, schedule, "TOY-VIOLATION", toy_oracle);
        // The irrelevant crashes are gone, the schedule is down to the
        // two essential steps, and the verdict still reproduces.
        assert_eq!(shrunk.plan.crashes.len(), 1);
        assert_eq!(shrunk.plan.crashes[0].proc, ProcId::new(1));
        assert_eq!(shrunk.schedule, vec![ProcId::new(0), ProcId::new(0)]);
        assert_eq!(
            toy_oracle(shrunk.procs, &shrunk.plan, &shrunk.schedule).as_deref(),
            Some("TOY-VIOLATION")
        );
        // Processor count shrank to cover the highest surviving index.
        assert_eq!(shrunk.procs, 2);
        assert_eq!(shrunk.stats.crashes_after, 1);
        assert_eq!(shrunk.stats.steps_after, 2);
        assert!(shrunk.stats.candidates > 0);
    }

    /// A family of synthetic oracles for randomized soundness tests: the
    /// violation fires iff the plan still crashes `trigger_proc` at
    /// `trigger_step` and the schedule runs processor 0 at least `need`
    /// times. Enough structure to make most of a random witness
    /// irrelevant, like a real checker violation.
    struct ParamOracle {
        trigger_proc: ProcId,
        trigger_step: u64,
        need: usize,
    }

    impl ParamOracle {
        fn check(&self, _procs: usize, plan: &FaultPlan, schedule: &[ProcId]) -> Option<String> {
            let crash_ok = plan
                .crashes
                .iter()
                .any(|c| c.proc == self.trigger_proc && c.at_step == self.trigger_step);
            let sched_ok = schedule.iter().filter(|&&p| p == ProcId::new(0)).count() >= self.need;
            (crash_ok && sched_ok).then(|| "PROP-VIOLATION".to_owned())
        }
    }

    /// Property: for random reproducing inputs, the shrunk witness (a)
    /// still reproduces the same violation code through the same oracle,
    /// (b) never grows, and (c) is identical on a second shrink of the
    /// same input. No external proptest dependency — a seeded [`StdRng`]
    /// drives the generation, so failures replay from the seed constant.
    #[test]
    fn shrunk_repros_reproduce_the_original_violation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5eed_5045);
        for case in 0..50 {
            let procs = rng.gen_range(3..8usize);
            let oracle = ParamOracle {
                trigger_proc: ProcId::new(rng.gen_range(1..procs)),
                trigger_step: rng.gen_range(0..20u64),
                need: rng.gen_range(1..4usize),
            };

            // A plan with the trigger crash plus noise crashes on other
            // processors (one per processor keeps the plan valid).
            let mut crashes = vec![CrashFault {
                proc: oracle.trigger_proc,
                at_step: oracle.trigger_step,
                recovery: rng
                    .gen_bool(0.5)
                    .then(|| Recovery::reset(oracle.trigger_step + rng.gen_range(1..10u64))),
            }];
            for p in (0..procs).map(ProcId::new) {
                if p != oracle.trigger_proc && p.index() != 0 && rng.gen_bool(0.5) {
                    let at_step = rng.gen_range(0..30u64);
                    crashes.push(CrashFault {
                        proc: p,
                        at_step,
                        recovery: rng
                            .gen_bool(0.5)
                            .then(|| Recovery::reset(at_step + rng.gen_range(1..10u64))),
                    });
                }
            }
            let plan = FaultPlan::try_crashes(crashes).unwrap();

            // A random schedule guaranteed to reproduce: seed `need`
            // occurrences of processor 0, then shuffle in noise.
            let len = rng.gen_range(oracle.need..oracle.need + 40);
            let mut schedule: Vec<ProcId> = (0..len)
                .map(|i| {
                    if i < oracle.need {
                        ProcId::new(0)
                    } else {
                        ProcId::new(rng.gen_range(0..procs))
                    }
                })
                .collect();
            for i in (1..schedule.len()).rev() {
                schedule.swap(i, rng.gen_range(0..=i));
            }
            assert!(
                oracle.check(procs, &plan, &schedule).is_some(),
                "case {case}: generator built a non-reproducing input"
            );

            let shrink = |plan: FaultPlan, schedule: Vec<ProcId>| {
                shrink_counterexample(procs, plan, schedule, "PROP-VIOLATION", |n, p, s| {
                    oracle.check(n, p, s)
                })
            };
            let shrunk = shrink(plan.clone(), schedule.clone());

            // (a) Soundness: the shrunk witness replays to the same code.
            assert_eq!(
                oracle
                    .check(shrunk.procs, &shrunk.plan, &shrunk.schedule)
                    .as_deref(),
                Some("PROP-VIOLATION"),
                "case {case}: shrunk witness no longer reproduces"
            );
            // (b) Monotone: shrinking never grows the witness. For this
            // oracle the minimum is known exactly: one crash, `need`
            // schedule steps.
            assert_eq!(shrunk.plan.crashes.len(), 1, "case {case}");
            assert_eq!(
                shrunk.plan.crashes[0].proc, oracle.trigger_proc,
                "case {case}"
            );
            assert_eq!(shrunk.schedule.len(), oracle.need, "case {case}");
            assert!(shrunk.procs <= procs, "case {case}");
            // (c) Determinism: same input, same shrink.
            assert_eq!(shrunk, shrink(plan, schedule), "case {case}");
        }
    }

    #[test]
    fn non_reproducing_input_is_returned_unshrunk() {
        let plan = FaultPlan::crashes(vec![CrashFault {
            proc: ProcId::new(2),
            at_step: 7,
            recovery: None,
        }]);
        let schedule: Vec<ProcId> = [1, 2, 1].into_iter().map(ProcId::new).collect();
        // toy_oracle never fires for this input.
        assert!(toy_oracle(4, &plan, &schedule).is_none());
        let shrunk = shrink_counterexample(
            4,
            plan.clone(),
            schedule.clone(),
            "TOY-VIOLATION",
            toy_oracle,
        );
        assert_eq!(shrunk.plan, plan);
        assert_eq!(shrunk.schedule, schedule);
        assert_eq!(shrunk.procs, 4);
    }

    #[test]
    fn shrinking_is_deterministic() {
        let make = || {
            let plan = FaultPlan::crashes(vec![CrashFault {
                proc: ProcId::new(1),
                at_step: 3,
                recovery: None,
            }]);
            let schedule: Vec<ProcId> = [0, 1, 2, 0, 1, 2, 0, 1]
                .into_iter()
                .map(ProcId::new)
                .collect();
            shrink_counterexample(4, plan, schedule, "TOY-VIOLATION", toy_oracle)
        };
        assert_eq!(make(), make());
    }
}
