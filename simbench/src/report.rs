//! What one run reports: the operation tally, named metrics with units,
//! and the one-line JSON result the benchmark ends its output with.

use crate::manifest::{END_TO_END, PER_LAYER};
use crate::trace::Span;
use std::fmt::Write as _;
use std::time::Instant;

/// Named metrics in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Sets `name` (replacing an earlier value of the same name).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_owned(), value, unit),
            None => self.0.push((name.to_owned(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, value, unit)| (value, unit))
    }
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    pub metrics: Metrics,
    /// Spans of a traced run, written out when the run ends.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    pub fn info(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Makes the metrics exactly the manifest's list for this kind of run,
    /// in its order. An untraced run that lacks an end-to-end metric, or
    /// measured one in another unit, fails. A traced run reports 0 for
    /// each layer its workload never calls into (no calls, no time), and
    /// says which.
    pub fn settle(&mut self, traced: bool) {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut settled = Metrics::default();
        let mut unreached = Vec::new();
        for &(name, unit) in list {
            match self.metrics.get(name) {
                Some((value, u)) if u == unit => settled.put(name, value, unit),
                Some((_, u)) => {
                    self.fail(format!("{name} is in {u}, the manifest says {unit}"));
                    settled.put(name, f64::NAN, unit);
                }
                None if traced => {
                    unreached.push(name);
                    settled.put(name, 0.0, unit);
                }
                None => {
                    self.fail(format!("{name} was not measured"));
                    settled.put(name, f64::NAN, unit);
                }
            }
        }
        for (name, _, _) in &self.metrics.0 {
            if !list.iter().any(|(n, _)| n == name) {
                self.notes
                    .push(format!("{name} is not in the manifest; not reported"));
            }
        }
        if !unreached.is_empty() {
            self.notes.push(format!(
                "not called by this workload, reported as 0: {}",
                unreached.join(" ")
            ));
        }
        self.metrics = settled;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.0.iter().all(|m| m.1.is_finite())
    }

    /// The final output line.
    pub fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Calls `f` `n` times, pushing each call's wall time in seconds onto
/// `times`; returns the last call's value.
pub fn timed_repeats<T>(n: usize, times: &mut Vec<f64>, mut f: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..n {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    last.expect("at least one call")
}

/// Peak resident set size of a process (`"self"` or a pid), in MiB, from
/// the kernel's high-water mark.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time (user + system) a process (`"self"` or a pid) has used so
/// far, in seconds, its ended threads included: fields 14 and 15 of
/// `/proc/<pid>/stat`, which Linux counts in ticks of 1/100 s.
pub fn cpu_s(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Field 2, the command name, may hold spaces: count from the ')'
    // that ends it, after which field 3 starts.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks = |field: usize| fields.get(field - 3)?.parse::<f64>().ok();
    match (ticks(14), ticks(15)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.put("run_s", 1.25, "s");
        o.metrics.put("run_s", 1.5, "s");
        assert_eq!(
            o.result_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        o.fail("x".into());
        assert!(!o.correct());
        assert!(peak_rss_mb("self") > 0.0);
        let spin = Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_s("self") >= 0.01, "{}", cpu_s("self"));
    }

    #[test]
    fn settling_keeps_exactly_the_manifest_list() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.metrics.put("run_s", 2.0, "s");
        o.metrics.put("setup_s", 1.0, "s");
        o.metrics.put("peak_rss_mb", 3.0, "MB");
        o.metrics.put("extra_ms", 4.0, "ms");
        o.settle(false);
        let names: Vec<&str> = o.metrics.0.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(names, ["setup_s", "run_s", "peak_rss_mb"]);
        assert!(o.correct());

        // A missing end-to-end metric fails the run.
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.metrics.put("setup_s", 1.0, "s");
        o.settle(false);
        assert!(!o.correct());

        // A traced run fills the layers it never reached with 0.
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.metrics.put("vm.steps", 10.0, "count");
        o.settle(true);
        assert_eq!(o.metrics.0.len(), PER_LAYER.len());
        assert_eq!(o.metrics.get("vm.steps"), Some((10.0, "count")));
        assert_eq!(o.metrics.get("explore.states"), Some((0.0, "count")));
        assert!(o.correct());
    }
}
