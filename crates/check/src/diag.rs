//! The shared diagnostic type every checker reports through.
//!
//! One [`Diagnostic`] shape — severity, stable code, span, message,
//! witness — serves both the static lints and the dynamic (probe-based)
//! checkers, so the CLI and CI can treat findings uniformly. The JSON
//! encoder is deterministic (fixed key order, sorted diagnostics, no
//! whitespace variation) in the same hand-rolled style as the engine's
//! trace codec: equal reports encode to byte-identical documents.

use simsym_graph::{ProcId, VarId};
use simsym_vm::json::push_json_string;
use std::fmt;

/// Stable diagnostic codes, one per checker finding class. The full table
/// lives in DESIGN.md §Checkers.
pub mod codes {
    /// A spec line that does not parse.
    pub const SPEC_SYNTAX: &str = "SPEC-SYNTAX";
    /// The same `edge p n v` line appears twice (the builder silently
    /// collapses the duplicate).
    pub const SPEC_DUP_EDGE: &str = "SPEC-DUP-EDGE";
    /// Two edges give one processor the same name towards *different*
    /// variables (`n_nbr` would not be a function).
    pub const SPEC_EDGE_CONFLICT: &str = "SPEC-EDGE-CONFLICT";
    /// An identifier is declared both as a processor and as a variable —
    /// the spec is not bipartite-readable.
    pub const SPEC_NODE_KIND: &str = "SPEC-NODE-KIND";
    /// A processor has no edge for a declared name (`n_nbr` must be total).
    pub const SPEC_MISSING_EDGE: &str = "SPEC-MISSING-EDGE";
    /// An `edge`/`mark` line references an undeclared identifier.
    pub const SPEC_UNKNOWN_IDENT: &str = "SPEC-UNKNOWN-IDENT";
    /// A declared name or node is never used by any edge.
    pub const SPEC_UNUSED: &str = "SPEC-UNUSED";
    /// A shared variable no processor can reach (degree 0).
    pub const GRAPH_UNREACHABLE_VAR: &str = "GRAPH-UNREACHABLE-VAR";
    /// The system graph is not connected.
    pub const GRAPH_DISCONNECTED: &str = "GRAPH-DISCONNECTED";
    /// A variable's representation does not match the declared instruction
    /// set (multiset variable outside Q, plain cell in Q).
    pub const ISA_VAR_KIND: &str = "ISA-VAR-KIND";
    /// A lock bit is set on a machine whose instruction set has no locks.
    pub const ISA_LOCK_IN_S: &str = "ISA-LOCK-IN-S";
    /// The two Algorithm 1 implementations disagree on the similarity
    /// partition.
    pub const LABEL_MISMATCH: &str = "LABEL-MISMATCH";
    /// The similarity labeling fails the environment-consistency check.
    pub const LABEL_INCONSISTENT: &str = "LABEL-INCONSISTENT";
    /// Lockset race: a shared variable is accessed by multiple processors
    /// with no common lock held.
    pub const DYN_RACE: &str = "DYN-RACE";
    /// A processor attempted to lock a variable it already holds.
    pub const DYN_DOUBLE_LOCK: &str = "DYN-DOUBLE-LOCK";
    /// A processor unlocked a variable it does not hold (the paper's locks
    /// have no owner, so this *works* — but it breaks mutual exclusion).
    pub const DYN_UNLOCK_UNHELD: &str = "DYN-UNLOCK-UNHELD";
    /// Locks still held when the run ended.
    pub const DYN_LOCK_LEAK: &str = "DYN-LOCK-LEAK";
    /// Cycle in the lock-order graph: potential deadlock.
    pub const DYN_LOCK_CYCLE: &str = "DYN-LOCK-CYCLE";
    /// An operation outside the declared instruction set.
    pub const DYN_ISA_OP: &str = "DYN-ISA-OP";
    /// A second shared operation within one atomic step.
    pub const DYN_ATOMICITY: &str = "DYN-ATOMICITY";
    /// A local register expected to hold an integer was missing or
    /// garbled; the program refused to act on it.
    pub const DYN_GARBLED_REG: &str = "DYN-GARBLED-REG";
    /// Uniqueness under faults: two processors selected even though the
    /// fault plan only crashed losers.
    pub const DYN_FAULT_UNIQ: &str = "DYN-FAULT-UNIQ";
    /// Stability under faults: a live (non-crashed) processor lost its
    /// selected flag.
    pub const DYN_FAULT_STAB: &str = "DYN-FAULT-STAB";
    /// A crash-recovery reset wiped a selected processor's state — the
    /// documented place where Stability cannot survive volatile memory.
    pub const DYN_FAULT_RESET: &str = "DYN-FAULT-RESET";
    /// Stability under recovery: a processor lost its selected flag
    /// across a reboot even though stable storage was available (or
    /// strict checking was requested). With a journal this is a real
    /// pass/fail check, not an unavoidable note.
    pub const DYN_RECOV_STAB: &str = "DYN-RECOV-STAB";
    /// Exhaustive exploration reached a state with two or more selected
    /// processors — a Uniqueness violation, with the witness schedule
    /// attached.
    pub const DYN_EXPLORE_UNIQ: &str = "DYN-EXPLORE-UNIQ";
    /// Exploration hit its depth or state budget: results are a lower
    /// bound, not a certificate.
    pub const DYN_EXPLORE_TRUNCATED: &str = "DYN-EXPLORE-TRUNCATED";
    /// Exploration exhausted the reachable space within the budget —
    /// the properties checked hold "up to depth d modulo Aut(N)".
    pub const DYN_EXPLORE_CERTIFIED: &str = "DYN-EXPLORE-CERTIFIED";
    /// A reduced exploration (similarity quotient or partial-order)
    /// disagreed with the identity-reduction oracle on outcomes or
    /// violations — a bug in the reducer, not in the explored program.
    pub const DYN_EXPLORE_DIVERGED: &str = "DYN-EXPLORE-DIVERGED";
    /// The automorphism-group enumeration hit the reducer's cap and fell
    /// back to the identity-only group: `group_order = 1` in this report
    /// means "group too large to enumerate", not "the system is
    /// asymmetric", and the quotient performed no reduction.
    pub const DYN_EXPLORE_GROUP_CAPPED: &str = "DYN-EXPLORE-GROUP-CAPPED";
    /// A soak fault plan is degenerate: the implicit "protect processor
    /// 0" rule leaves no processor to crash, so every seeded plan is
    /// empty and the budget would be wasted on fault-free runs.
    pub const SOAK_DEGENERATE: &str = "SOAK-DEGENERATE";
    /// A fault plan (CLI argument or repro artifact) failed validation —
    /// duplicate processor, or a recovery not strictly after its crash.
    pub const SOAK_PLAN: &str = "SOAK-PLAN";
    /// A repro artifact did not replay to its recorded verdict.
    pub const SOAK_REPLAY_DIVERGED: &str = "SOAK-REPLAY-DIVERGED";
    /// Static dataflow: a register may be read before any write reaches
    /// it on some path — the lint-time face of [`DYN_GARBLED_REG`].
    pub const STAT_UNINIT_READ: &str = "STAT-UNINIT-READ";
    /// Static dataflow: a phase no execution can reach from the entry.
    pub const STAT_DEAD_PHASE: &str = "STAT-DEAD-PHASE";
    /// Static dataflow: program text or initial values distinguish
    /// processors the similarity argument would otherwise treat as
    /// interchangeable — the static counterpart of Theorem 1's
    /// precondition.
    pub const STAT_SYM_BREAK: &str = "STAT-SYM-BREAK";
    /// Static dataflow: a cycle in the potential lock-acquisition order —
    /// the sound over-approximation of [`DYN_LOCK_CYCLE`].
    pub const STAT_LOCK_CYCLE: &str = "STAT-LOCK-CYCLE";
    /// A submitted job spec failed validation (unknown kind, bad field,
    /// malformed JSON) and was rejected before entering the queue.
    pub const SERVE_JOB_SPEC: &str = "SERVE-JOB-SPEC";
    /// The server's bounded job queue was full; the submission was
    /// rejected, not silently dropped.
    pub const SERVE_QUEUE_FULL: &str = "SERVE-QUEUE-FULL";
    /// The server is draining (graceful shutdown): new submissions are
    /// rejected while queued and in-flight jobs run to completion.
    pub const SERVE_DRAINING: &str = "SERVE-DRAINING";
    /// A job id referenced by a status/result/cancel request does not
    /// exist on this server.
    pub const SERVE_UNKNOWN_JOB: &str = "SERVE-UNKNOWN-JOB";
    /// A job exceeded its `deadline_ms` (or the farm-wide default) and
    /// was cooperatively cancelled at a sweep-job boundary; the partial
    /// progress is reported, the artifact is not cached.
    pub const SERVE_JOB_DEADLINE: &str = "SERVE-JOB-DEADLINE";
    /// A job panicked on a farm worker. The panic is isolated
    /// (`catch_unwind`): the farm keeps serving, the job gets one
    /// bounded retry, and a second panic becomes this failed artifact.
    pub const SERVE_JOB_PANIC: &str = "SERVE-JOB-PANIC";
    /// The durable job journal (or its artifact store) could not be
    /// replayed or written safely: a malformed record before the final
    /// line, a fingerprint mismatch, or an I/O failure. A torn final
    /// line is *not* corruption — it is the expected signature of a
    /// crash mid-append and is discarded silently.
    pub const SERVE_JOURNAL_CORRUPT: &str = "SERVE-JOURNAL-CORRUPT";
    /// A journal append or fsync failed mid-run (disk full, file
    /// yanked). The journal is poisoned on the spot — nothing is ever
    /// appended after a possibly-torn partial line — and the farm
    /// degrades loudly to volatile semantics; the submission that hit
    /// the failure is answered 503 rather than acknowledged without
    /// the durability the ack promises.
    pub const SERVE_JOURNAL_DEGRADED: &str = "SERVE-JOURNAL-DEGRADED";
    /// A client connection idled past the socket read/write timeout
    /// (slowloris guard); the connection was dropped, the farm state is
    /// untouched.
    pub const SERVE_CONN_TIMEOUT: &str = "SERVE-CONN-TIMEOUT";

    /// Every diagnostic code, in declaration order. The registry-hygiene
    /// test pins this list against DESIGN.md's §5d table in both
    /// directions, so neither can drift.
    pub const ALL: &[&str] = &[
        SPEC_SYNTAX,
        SPEC_DUP_EDGE,
        SPEC_EDGE_CONFLICT,
        SPEC_NODE_KIND,
        SPEC_MISSING_EDGE,
        SPEC_UNKNOWN_IDENT,
        SPEC_UNUSED,
        GRAPH_UNREACHABLE_VAR,
        GRAPH_DISCONNECTED,
        ISA_VAR_KIND,
        ISA_LOCK_IN_S,
        LABEL_MISMATCH,
        LABEL_INCONSISTENT,
        DYN_RACE,
        DYN_DOUBLE_LOCK,
        DYN_UNLOCK_UNHELD,
        DYN_LOCK_LEAK,
        DYN_LOCK_CYCLE,
        DYN_ISA_OP,
        DYN_ATOMICITY,
        DYN_GARBLED_REG,
        DYN_FAULT_UNIQ,
        DYN_FAULT_STAB,
        DYN_FAULT_RESET,
        DYN_RECOV_STAB,
        DYN_EXPLORE_UNIQ,
        DYN_EXPLORE_TRUNCATED,
        DYN_EXPLORE_CERTIFIED,
        DYN_EXPLORE_DIVERGED,
        DYN_EXPLORE_GROUP_CAPPED,
        SOAK_DEGENERATE,
        SOAK_PLAN,
        SOAK_REPLAY_DIVERGED,
        STAT_UNINIT_READ,
        STAT_DEAD_PHASE,
        STAT_SYM_BREAK,
        STAT_LOCK_CYCLE,
        SERVE_JOB_SPEC,
        SERVE_QUEUE_FULL,
        SERVE_DRAINING,
        SERVE_UNKNOWN_JOB,
        SERVE_JOB_DEADLINE,
        SERVE_JOB_PANIC,
        SERVE_JOURNAL_CORRUPT,
        SERVE_JOURNAL_DEGRADED,
        SERVE_CONN_TIMEOUT,
    ];
}

/// How bad a finding is. `Error` fails `simsym lint` (and the CI smoke
/// step); `Warning` and `Info` are advisory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory observation.
    Info,
    /// Suspicious but not necessarily wrong.
    Warning,
    /// A defect; fails the lint.
    Error,
}

impl Severity {
    /// Stable lower-case name used in JSON and text output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a finding points: any subset of processor, variable, and step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Span {
    /// The processor involved, if any.
    pub proc: Option<ProcId>,
    /// The shared variable involved, if any.
    pub var: Option<VarId>,
    /// The step at which the dynamic checker observed the finding.
    pub step: Option<u64>,
}

impl Span {
    /// An empty span (whole-system finding).
    pub fn none() -> Span {
        Span::default()
    }

    /// A span pointing at a processor.
    pub fn proc(p: ProcId) -> Span {
        Span {
            proc: Some(p),
            ..Span::default()
        }
    }

    /// A span pointing at a variable.
    pub fn var(v: VarId) -> Span {
        Span {
            var: Some(v),
            ..Span::default()
        }
    }

    /// Adds a variable to the span.
    pub fn with_var(mut self, v: VarId) -> Span {
        self.var = Some(v);
        self
    }

    /// Adds a step to the span.
    pub fn with_step(mut self, step: u64) -> Span {
        self.step = Some(step);
        self
    }

    fn is_empty(&self) -> bool {
        self.proc.is_none() && self.var.is_none() && self.step.is_none()
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        if let Some(p) = self.proc {
            write!(f, "p{}", p.index())?;
            sep = " ";
        }
        if let Some(v) = self.var {
            write!(f, "{sep}v{}", v.index())?;
            sep = " ";
        }
        if let Some(s) = self.step {
            write!(f, "{sep}step {s}")?;
        }
        Ok(())
    }
}

/// One checker finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Stable code (see [`codes`]).
    pub code: &'static str,
    /// What it points at.
    pub span: Span,
    /// Human-readable statement of the finding.
    pub message: String,
    /// Concrete evidence, one line per entry (e.g. the witness cycle of a
    /// lock-order deadlock).
    pub witness: Vec<String>,
}

impl Diagnostic {
    /// A diagnostic with no witness lines.
    pub fn new(
        severity: Severity,
        code: &'static str,
        span: Span,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            severity,
            code,
            span,
            message: message.into(),
            witness: Vec::new(),
        }
    }

    /// Attaches witness lines.
    pub fn with_witness(mut self, witness: Vec<String>) -> Diagnostic {
        self.witness = witness;
        self
    }

    fn sort_key(&self) -> (u8, &'static str, usize, usize, u64, &str) {
        // Errors first, then stable code / span / message order.
        let sev = match self.severity {
            Severity::Error => 0,
            Severity::Warning => 1,
            Severity::Info => 2,
        };
        (
            sev,
            self.code,
            self.span.proc.map_or(usize::MAX, ProcId::index),
            self.span.var.map_or(usize::MAX, VarId::index),
            self.span.step.unwrap_or(u64::MAX),
            &self.message,
        )
    }

    /// Encodes the diagnostic as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"severity\":\"");
        out.push_str(self.severity.name());
        out.push_str("\",\"code\":\"");
        out.push_str(self.code);
        out.push_str("\",\"span\":{");
        let mut sep = "";
        if let Some(p) = self.span.proc {
            out.push_str("\"proc\":");
            out.push_str(&p.index().to_string());
            sep = ",";
        }
        if let Some(v) = self.span.var {
            out.push_str(sep);
            out.push_str("\"var\":");
            out.push_str(&v.index().to_string());
            sep = ",";
        }
        if let Some(s) = self.span.step {
            out.push_str(sep);
            out.push_str("\"step\":");
            out.push_str(&s.to_string());
        }
        out.push_str("},\"message\":");
        push_json_string(&mut out, &self.message);
        out.push_str(",\"witness\":[");
        for (i, w) in self.witness.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, w);
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.severity, self.code)?;
        if !self.span.is_empty() {
            write!(f, " [{}]", self.span)?;
        }
        write!(f, " {}", self.message)
    }
}

/// Sorts diagnostics into the canonical report order (errors first, then
/// by code, span, message).
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
}

/// A full lint report: every finding for one system, canonically ordered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckReport {
    /// The system the lint ran on (CLI spec string).
    pub system: String,
    /// All findings, in canonical order.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// Builds a report, sorting the diagnostics canonically.
    pub fn new(system: impl Into<String>, mut diagnostics: Vec<Diagnostic>) -> CheckReport {
        sort_diagnostics(&mut diagnostics);
        CheckReport {
            system: system.into(),
            diagnostics,
        }
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any finding is an error (the lint's failure signal).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Encodes the report as a deterministic single-line JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.diagnostics.len() * 96);
        out.push_str("{\"version\":1,\"system\":");
        push_json_string(&mut out, &self.system);
        out.push_str(",\"errors\":");
        out.push_str(&self.count(Severity::Error).to_string());
        out.push_str(",\"warnings\":");
        out.push_str(&self.count(Severity::Warning).to_string());
        out.push_str(",\"infos\":");
        out.push_str(&self.count(Severity::Info).to_string());
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Renders the report as a human-readable text block.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "lint {}: {} error(s), {} warning(s), {} info\n",
            self.system,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        );
        for d in &self.diagnostics {
            out.push_str(&format!("  {d}\n"));
            for w in &d.witness {
                out.push_str(&format!("      witness: {w}\n"));
            }
        }
        if self.diagnostics.is_empty() {
            out.push_str("  clean\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_display_composes() {
        assert_eq!(Span::none().to_string(), "");
        assert_eq!(Span::proc(ProcId::new(1)).to_string(), "p1");
        assert_eq!(
            Span::proc(ProcId::new(1))
                .with_var(VarId::new(2))
                .with_step(7)
                .to_string(),
            "p1 v2 step 7"
        );
    }

    #[test]
    fn report_sorts_errors_first_and_counts() {
        let report = CheckReport::new(
            "test",
            vec![
                Diagnostic::new(Severity::Info, codes::GRAPH_DISCONNECTED, Span::none(), "i"),
                Diagnostic::new(Severity::Error, codes::DYN_RACE, Span::none(), "e"),
                Diagnostic::new(Severity::Warning, codes::DYN_LOCK_LEAK, Span::none(), "w"),
            ],
        );
        assert_eq!(report.diagnostics[0].severity, Severity::Error);
        assert_eq!(report.count(Severity::Error), 1);
        assert_eq!(report.count(Severity::Warning), 1);
        assert_eq!(report.count(Severity::Info), 1);
        assert!(report.has_errors());
    }

    #[test]
    fn json_is_deterministic_and_escapes() {
        let d = Diagnostic::new(
            Severity::Error,
            codes::DYN_RACE,
            Span::proc(ProcId::new(0))
                .with_var(VarId::new(3))
                .with_step(12),
            "a \"quoted\" message",
        )
        .with_witness(vec!["line\none".to_owned()]);
        let report = CheckReport::new("ring:3", vec![d]);
        let json = report.to_json();
        assert_eq!(json, report.to_json());
        assert!(json.starts_with("{\"version\":1,\"system\":\"ring:3\""));
        assert!(json.contains("\"span\":{\"proc\":0,\"var\":3,\"step\":12}"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("line\\none"));
    }

    #[test]
    fn empty_report_renders_clean() {
        let report = CheckReport::new("x", vec![]);
        assert!(!report.has_errors());
        assert!(report.render_text().contains("clean"));
        assert!(report.to_json().contains("\"diagnostics\":[]"));
    }
}
