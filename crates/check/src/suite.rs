//! Bundling the dynamic checkers: one-call runs and deterministic sweeps.

use crate::diag::{sort_diagnostics, Diagnostic, Severity};
use crate::discipline::DisciplineChecker;
use crate::isa_check::IsaChecker;
use crate::lock_order::{LockOrderChecker, LockOrderGraph};
use crate::lockset::LocksetChecker;
use simsym_vm::engine::sweep::{sweep_jobs, SweepConfig};
use simsym_vm::engine::{self, stop, Probe, System};
use simsym_vm::json::push_json_string;
use simsym_vm::{InstructionSet, Machine, Scheduler};
use std::collections::BTreeMap;

/// All four dynamic checkers, ready to attach to an engine run.
#[derive(Clone, Debug)]
pub struct CheckerSuite {
    /// Eraser-style lockset race detection (inert without locks).
    pub lockset: LocksetChecker,
    /// Double-lock / unlock-unheld / lock-leak discipline checks.
    pub discipline: DisciplineChecker,
    /// Hold-and-wait lock-order graph with cycle detection.
    pub lock_order: LockOrderChecker,
    /// ISA conformance against the declared instruction set.
    pub isa: IsaChecker,
}

impl CheckerSuite {
    /// A suite for a machine declaring `isa`.
    pub fn new(isa: InstructionSet) -> CheckerSuite {
        CheckerSuite {
            lockset: LocksetChecker::new(isa),
            discipline: DisciplineChecker::new(),
            lock_order: LockOrderChecker::new(),
            isa: IsaChecker::new(isa),
        }
    }

    /// The probes to hand to [`engine::run`].
    pub fn probes<S: System + ?Sized>(&mut self) -> [&mut dyn Probe<S>; 4] {
        [
            &mut self.lockset,
            &mut self.discipline,
            &mut self.lock_order,
            &mut self.isa,
        ]
    }

    /// All accumulated diagnostics, canonically sorted.
    pub fn into_diagnostics(self) -> Vec<Diagnostic> {
        let mut diags = self.lockset.into_diagnostics();
        diags.extend(self.discipline.into_diagnostics());
        diags.extend(self.lock_order.into_diagnostics());
        diags.extend(self.isa.into_diagnostics());
        sort_diagnostics(&mut diags);
        diags
    }
}

/// The result of one checked run.
#[derive(Clone, Debug)]
pub struct DynamicRun {
    /// Steps executed.
    pub steps: u64,
    /// All checker findings, canonically sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// The accumulated lock-order graph (for DOT export).
    pub lock_order: LockOrderGraph,
}

/// Runs `machine` under `scheduler` with the full checker suite attached,
/// to the step budget (checkers accumulate; they never abort the run).
pub fn run_dynamic(
    machine: &mut Machine,
    scheduler: &mut dyn Scheduler<Machine>,
    max_steps: u64,
) -> DynamicRun {
    let mut suite = CheckerSuite::new(machine.isa());
    let report = engine::run(
        machine,
        scheduler,
        max_steps,
        &mut suite.probes(),
        &mut stop::Never,
    );
    let lock_order = suite.lock_order.graph().clone();
    DynamicRun {
        steps: report.steps,
        diagnostics: suite.into_diagnostics(),
        lock_order,
    }
}

/// One run's findings within a sweep lint.
#[derive(Clone, Debug)]
pub struct SweepLintRun {
    /// Scheduler family label.
    pub scheduler: String,
    /// The seed this run used.
    pub seed: u64,
    /// Steps executed.
    pub steps: u64,
    /// Findings, canonically sorted.
    pub diagnostics: Vec<Diagnostic>,
}

/// Aggregated findings of the dynamic checkers over kinds × seeds.
#[derive(Clone, Debug)]
pub struct SweepLintReport {
    /// The linted system (CLI spec string).
    pub system: String,
    /// One entry per `(kind, seed)` pair, kind-major seed-minor.
    pub runs: Vec<SweepLintRun>,
}

impl SweepLintReport {
    /// Findings per diagnostic code, over all runs (deterministic order).
    pub fn totals(&self) -> BTreeMap<&'static str, usize> {
        let mut totals = BTreeMap::new();
        for run in &self.runs {
            for d in &run.diagnostics {
                *totals.entry(d.code).or_insert(0) += 1;
            }
        }
        totals
    }

    /// Whether any run produced an error-severity finding.
    pub fn has_errors(&self) -> bool {
        self.runs
            .iter()
            .any(|r| r.diagnostics.iter().any(|d| d.severity == Severity::Error))
    }

    /// Encodes the report as a deterministic single-line JSON document —
    /// byte-identical across repeated sweeps of the same config.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.runs.len() * 64);
        out.push_str("{\"version\":1,\"system\":");
        push_json_string(&mut out, &self.system);
        out.push_str(",\"runs\":[");
        for (i, run) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"scheduler\":");
            push_json_string(&mut out, &run.scheduler);
            out.push_str(",\"seed\":");
            out.push_str(&run.seed.to_string());
            out.push_str(",\"steps\":");
            out.push_str(&run.steps.to_string());
            out.push_str(",\"diagnostics\":[");
            for (j, d) in run.diagnostics.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&d.to_json());
            }
            out.push_str("]}");
        }
        out.push_str("],\"totals\":{");
        for (i, (code, count)) in self.totals().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, code);
            out.push(':');
            out.push_str(&count.to_string());
        }
        out.push_str("}}");
        out
    }

    /// Renders a human-readable summary: clean runs are counted, runs with
    /// findings are listed.
    pub fn render_text(&self) -> String {
        let clean = self
            .runs
            .iter()
            .filter(|r| r.diagnostics.is_empty())
            .count();
        let mut out = format!(
            "sweep lint {}: {} runs, {} clean\n",
            self.system,
            self.runs.len(),
            clean
        );
        for run in &self.runs {
            if run.diagnostics.is_empty() {
                continue;
            }
            out.push_str(&format!(
                "  {} seed {} ({} steps): {} finding(s)\n",
                run.scheduler,
                run.seed,
                run.steps,
                run.diagnostics.len()
            ));
            for d in &run.diagnostics {
                out.push_str(&format!("    {d}\n"));
            }
        }
        let totals = self.totals();
        if totals.is_empty() {
            out.push_str("  clean across all kinds and seeds\n");
        } else {
            let summary: Vec<String> = totals
                .iter()
                .map(|(code, count)| format!("{code} x{count}"))
                .collect();
            out.push_str(&format!("totals: {}\n", summary.join(", ")));
        }
        out
    }
}

/// Runs the dynamic checker suite over every `(kind, seed)` pair of the
/// sweep config, on the engine's deterministic sweep driver. The report
/// is independent of `config.threads`.
pub fn lint_sweep<F>(system: impl Into<String>, factory: F, config: &SweepConfig) -> SweepLintReport
where
    F: Fn() -> Machine + Sync,
{
    let runs = sweep_jobs(config, |kind, seed| {
        let mut machine = factory();
        let procs = machine.graph().processor_count();
        let mut scheduler = kind.scheduler::<Machine>(procs, seed);
        let outcome = run_dynamic(&mut machine, &mut *scheduler, config.max_steps);
        SweepLintRun {
            scheduler: kind.label(),
            seed,
            steps: outcome.steps,
            diagnostics: outcome.diagnostics,
        }
    });
    SweepLintReport {
        system: system.into(),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use simsym_graph::topology;
    use simsym_vm::engine::sweep::SweepScheduler;
    use simsym_vm::{RoundRobin, SystemInit};
    use std::sync::Arc;

    fn fixed_order_factory() -> Machine {
        let g = Arc::new(topology::uniform_ring(3));
        let init = SystemInit::uniform(&g);
        fixtures::fixed_order_machine(g, &init)
    }

    #[test]
    fn run_dynamic_collects_all_checkers() {
        let mut m = fixed_order_factory();
        let outcome = run_dynamic(&mut m, &mut RoundRobin::new(), 120);
        assert_eq!(outcome.steps, 120);
        assert!(outcome
            .diagnostics
            .iter()
            .any(|d| d.code == crate::diag::codes::DYN_LOCK_CYCLE));
        assert!(outcome.lock_order.edge_count() >= 3);
    }

    #[test]
    fn sweep_lint_is_deterministic_and_thread_independent() {
        let config = |threads| SweepConfig {
            kinds: vec![SweepScheduler::RoundRobin, SweepScheduler::RandomFair],
            seeds: (0..4).collect(),
            max_steps: 150,
            threads,
        };
        let serial = lint_sweep("ring:3", fixed_order_factory, &config(1));
        let parallel = lint_sweep("ring:3", fixed_order_factory, &config(4));
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.runs.len(), 8);
        assert!(serial.has_errors());
        assert!(serial
            .totals()
            .contains_key(crate::diag::codes::DYN_LOCK_CYCLE));
        // Byte-identical across repeated sweeps of the same config.
        assert_eq!(
            serial.to_json(),
            lint_sweep("ring:3", fixed_order_factory, &config(2)).to_json()
        );
        assert!(serial.render_text().contains("totals:"));
    }
}
