//! The metrics `BENCHMARK.json` lists, by name and unit. Every run's
//! result line carries exactly one of these lists: the end-to-end metrics
//! when untraced, the per-layer metrics when traced, whatever the
//! workload. A test holds the lists equal to the manifest.

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics every traced run reports. A workload that never
/// calls into a layer reports that layer's metrics as 0: no calls, no
/// time (see [`crate::report::Outcome::settle`]).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.label_ms", "ms"),
    ("core.program_ms", "ms"),
    ("graph.aut_ms", "ms"),
    ("explore.states", "count"),
    ("explore.arrivals", "count"),
    ("explore.dedup_ratio", "ratio"),
    ("explore.states_per_s", "1/s"),
    ("explore.canon_calls", "count"),
    ("explore.canon_ns", "ns"),
    ("explore.canon_share", "ratio"),
    ("explore.ample_calls", "count"),
    ("explore.ample_ns", "ns"),
    ("explore.step_calls", "count"),
    ("explore.step_ns", "ns"),
    ("explore.self_share", "ratio"),
    ("explore.visited_peak_kb", "KiB"),
    ("check.oracle_share", "ratio"),
    ("certify.ring-5-quotient_ms", "ms"),
    ("certify.table-5-both_ms", "ms"),
    ("certify.hypercube-4-quotient_ms", "ms"),
    ("certify.marked-ring-4-quotient_ms", "ms"),
    ("certify.alternating-4-por_ms", "ms"),
    ("vm.steps", "count"),
    ("vm.steps_per_s", "1/s"),
    ("vm.step_ns", "ns"),
    ("vm.program_ns", "ns"),
    ("vm.machine_ns", "ns"),
    ("vm.sched_ns", "ns"),
    ("check.probe_ns", "ns"),
    ("sweep.runs", "count"),
    ("faults.clean_share", "ratio"),
    ("serve.ack_p50_ms", "ms"),
    ("serve.ack_p90_ms", "ms"),
    ("serve.result_p50_ms", "ms"),
    ("serve.result_p90_ms", "ms"),
    ("serve.journal_sync_p50_us", "us"),
    ("serve.journal_sync_p90_us", "us"),
    ("serve.journal_ack_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p90_ms", "ms"),
    ("serve.exec_lint_p50_ms", "ms"),
    ("serve.exec_sweep_p50_ms", "ms"),
    ("serve.exec_faults_p50_ms", "ms"),
    ("serve.exec_verify_p50_ms", "ms"),
    ("serve.exec_p90_ms", "ms"),
    ("serve.hit_result_ms", "ms"),
    ("serve.miss_result_ms", "ms"),
    ("serve.hit_share", "ratio"),
    ("serve.artifact_write_us", "us"),
    ("serve.artifact_read_us", "us"),
    ("serve.gen_lag_p90_ms", "ms"),
    ("serve.saturation_jobs_per_s", "1/s"),
    ("serve.durable_spawn_ms", "ms"),
    ("trace.overhead", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .map_or(&[][..], Json::as_array)
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn lists_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn every_certify_case_has_its_layer_metric() {
        for c in crate::certify::CASES {
            let name = format!("certify.{}_ms", c.name);
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }
}
