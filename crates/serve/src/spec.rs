//! Job specifications: the flat JSON documents clients POST to the farm,
//! and their deterministic mapping onto batch-CLI argument vectors.
//!
//! A job spec is a single flat JSON object of scalars — no nesting, no
//! arrays — with a required `"kind"` discriminator:
//!
//! ```json
//! {"kind": "verify", "family": "ring", "reduce": "both", "depth": 12}
//! ```
//!
//! [`job_argv`] maps a spec to the argv of the equivalent batch CLI
//! invocation in a **fixed field order** (and always appends `--json`),
//! so two specs describing the same work produce the same argv — which
//! is what the content-addressed store keys on. Unknown kinds, unknown
//! fields, and type mismatches are rejected with a message suitable for
//! a `SERVE-JOB-SPEC` diagnostic; value-level validation (family names,
//! flag ranges) is left to the runner, exactly as the shell leaves it to
//! the CLI. The one exception is a `system` naming a spec file (`@path`):
//! the farm would read that file from its own host, so it is refused
//! here, before anything is journaled.

use simsym_vm::json::{self, push_json_string};

/// A scalar value in a job spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecValue {
    /// A JSON string.
    Str(String),
    /// A JSON integer (floats are rejected — every CLI flag is integral).
    Int(i64),
    /// A JSON boolean.
    Bool(bool),
}

impl SpecValue {
    fn type_name(&self) -> &'static str {
        match self {
            SpecValue::Str(_) => "string",
            SpecValue::Int(_) => "integer",
            SpecValue::Bool(_) => "boolean",
        }
    }
}

/// Parses a flat JSON object of scalars into `(key, value)` pairs in
/// document order. Duplicate keys, nested containers, floats, and nulls
/// are errors — a job spec has no use for any of them, and rejecting
/// them keeps the argv mapping (and therefore the cache key) total.
pub fn parse_flat_object(text: &str) -> Result<Vec<(String, SpecValue)>, String> {
    let json::Value::Object(fields) = json::parse(text)? else {
        return Err("a job spec must be a JSON object".to_owned());
    };
    fields
        .into_iter()
        .map(|(key, value)| {
            let value = match value {
                json::Value::Str(s) => SpecValue::Str(s),
                json::Value::Int(n) => SpecValue::Int(
                    i64::try_from(n)
                        .map_err(|_| format!("integer {n} of {key:?} is out of range"))?,
                ),
                json::Value::Bool(b) => SpecValue::Bool(b),
                json::Value::Null => return Err("null is not a job-spec value".to_owned()),
                json::Value::Array(_) | json::Value::Object(_) => {
                    return Err(format!(
                        "nested containers are not allowed in a job spec (field {key:?})"
                    ))
                }
            };
            Ok((key, value))
        })
        .collect()
}

/// A parsed spec with typed field accessors that consume fields as they
/// are read, so [`job_argv`] can reject leftovers as unknown.
struct Fields(Vec<(String, SpecValue)>);

impl Fields {
    fn take(&mut self, key: &str) -> Option<SpecValue> {
        let i = self.0.iter().position(|(k, _)| k == key)?;
        Some(self.0.remove(i).1)
    }

    fn str_req(&mut self, key: &str) -> Result<String, String> {
        match self.take(key) {
            Some(SpecValue::Str(s)) => Ok(s),
            Some(v) => Err(format!("{key} must be a string, got {}", v.type_name())),
            None => Err(format!("missing required field {key:?}")),
        }
    }

    fn str_opt(&mut self, key: &str) -> Result<Option<String>, String> {
        match self.take(key) {
            Some(SpecValue::Str(s)) => Ok(Some(s)),
            Some(v) => Err(format!("{key} must be a string, got {}", v.type_name())),
            None => Ok(None),
        }
    }

    fn uint_opt(&mut self, key: &str) -> Result<Option<u64>, String> {
        match self.take(key) {
            Some(SpecValue::Int(n)) if n >= 0 => Ok(Some(n as u64)),
            Some(SpecValue::Int(n)) => Err(format!("{key} must be non-negative, got {n}")),
            Some(v) => Err(format!("{key} must be an integer, got {}", v.type_name())),
            None => Ok(None),
        }
    }

    fn bool_flag(&mut self, key: &str) -> Result<bool, String> {
        match self.take(key) {
            Some(SpecValue::Bool(b)) => Ok(b),
            Some(v) => Err(format!("{key} must be a boolean, got {}", v.type_name())),
            None => Ok(false),
        }
    }

    /// The required `system` field: a family spec such as `ring:5`. A
    /// spec file (`@path`) would make the farm read a file of its own
    /// host, of any size, so it is refused.
    fn system(&mut self) -> Result<String, String> {
        let system = self.str_req("system")?;
        if system.starts_with('@') {
            return Err(format!(
                "system {system:?} names a spec file; a farm job takes a family spec such as \"ring:5\""
            ));
        }
        Ok(system)
    }

    fn reject_leftovers(self, kind: &str) -> Result<(), String> {
        if let Some((key, _)) = self.0.first() {
            return Err(format!("unknown field {key:?} for kind {kind:?}"));
        }
        Ok(())
    }
}

/// The job kinds the farm accepts, in the order the docs list them
/// (`panic` is a test fixture: it dies by design, proving the farm's
/// panic isolation end to end).
pub const JOB_KINDS: &[&str] = &["sweep", "lint", "faults", "soak", "verify", "panic"];

/// A validated job submission: the canonical execution argv plus the
/// farm-level metadata that must **not** feed the cache key. A deadline
/// changes when a run is abandoned, never what a completed run computes,
/// so two specs differing only in `deadline_ms` share one artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRequest {
    /// Canonical batch-CLI argv (always ends in `--json`); the
    /// content-addressed store keys on exactly this vector.
    pub argv: Vec<String>,
    /// Per-job execution deadline in milliseconds, measured from the
    /// moment a worker starts the job. `None` defers to the farm-wide
    /// default (`--default-deadline-ms`), which may also be absent.
    pub deadline_ms: Option<u64>,
}

/// Maps a job-spec JSON document to the canonical argv of the equivalent
/// batch CLI invocation. Field emission order is fixed per kind and
/// `--json` is always appended, so equal work means equal argv — the
/// content-addressed store keys on exactly this vector.
///
/// # Errors
///
/// Malformed JSON, an unknown `kind`, an unknown field, or a type
/// mismatch — all surfaced to the client as `SERVE-JOB-SPEC`.
pub fn job_argv(spec_json: &str) -> Result<Vec<String>, String> {
    job_request(spec_json).map(|r| r.argv)
}

/// Parses a full job submission: the canonical argv ([`job_argv`]) plus
/// the farm-level `deadline_ms` field, which every kind accepts and
/// which is deliberately kept **out** of the argv and the cache key.
///
/// # Errors
///
/// Everything [`job_argv`] rejects, plus a zero or non-integer
/// `deadline_ms`.
pub fn job_request(spec_json: &str) -> Result<JobRequest, String> {
    let mut f = Fields(parse_flat_object(spec_json)?);
    let kind = f.str_req("kind")?;
    let deadline_ms = match f.uint_opt("deadline_ms")? {
        Some(0) => return Err("deadline_ms must be at least 1".to_owned()),
        d => d,
    };
    let mut argv: Vec<String> = Vec::new();
    let push_opt_u = |argv: &mut Vec<String>, flag: &str, v: Option<u64>| {
        if let Some(n) = v {
            argv.push(flag.to_owned());
            argv.push(n.to_string());
        }
    };
    match kind.as_str() {
        // A deterministic schedule sweep: lint's --sweep mode, which fans
        // the system across the strided-partition (scheduler, seed) grid.
        "sweep" => {
            argv.push("lint".into());
            argv.push(f.system()?);
            argv.push("--sweep".into());
            push_opt_u(&mut argv, "--seed", f.uint_opt("seed")?);
            push_opt_u(&mut argv, "--steps", f.uint_opt("steps")?);
        }
        "lint" => {
            argv.push("lint".into());
            argv.push(f.system()?);
            if let Some(p) = f.str_opt("program")? {
                argv.push("--program".into());
                argv.push(p);
            }
            push_opt_u(&mut argv, "--seed", f.uint_opt("seed")?);
            push_opt_u(&mut argv, "--steps", f.uint_opt("steps")?);
            if f.bool_flag("static")? {
                argv.push("--static".into());
            }
        }
        "faults" => {
            argv.push("faults".into());
            argv.push("--family".into());
            argv.push(f.str_req("family")?);
            argv.push("--plan".into());
            argv.push(f.str_req("plan")?);
            push_opt_u(&mut argv, "--seed", f.uint_opt("seed")?);
            push_opt_u(&mut argv, "--sweep", f.uint_opt("sweep")?);
            push_opt_u(&mut argv, "--steps", f.uint_opt("steps")?);
            if f.bool_flag("journal")? {
                argv.push("--journal".into());
            }
        }
        "soak" => {
            argv.push("soak".into());
            argv.push("--family".into());
            argv.push(f.str_req("family")?);
            push_opt_u(&mut argv, "--budget", f.uint_opt("budget")?);
            push_opt_u(&mut argv, "--seed", f.uint_opt("seed")?);
            push_opt_u(&mut argv, "--steps", f.uint_opt("steps")?);
            push_opt_u(&mut argv, "--procs", f.uint_opt("procs")?);
            if f.bool_flag("journal")? {
                argv.push("--journal".into());
            }
        }
        "verify" => {
            argv.push("verify".into());
            argv.push("--family".into());
            argv.push(f.str_req("family")?);
            push_opt_u(&mut argv, "--procs", f.uint_opt("procs")?);
            if let Some(p) = f.str_opt("program")? {
                argv.push("--program".into());
                argv.push(p);
            }
            if let Some(r) = f.str_opt("reduce")? {
                argv.push("--reduce".into());
                argv.push(r);
            }
            push_opt_u(&mut argv, "--depth", f.uint_opt("depth")?);
            push_opt_u(&mut argv, "--states", f.uint_opt("states")?);
        }
        // The panic fixture: a job whose execution panics by design, so
        // tests and the CI recovery smoke can prove a worker panic never
        // takes the dispatcher down. `seed` exists only to vary the
        // fingerprint (distinct jobs, no cache collision).
        "panic" => {
            argv.push("panic".into());
            push_opt_u(&mut argv, "--seed", f.uint_opt("seed")?);
        }
        other => {
            return Err(format!(
                "unknown kind {other:?} (have: {})",
                JOB_KINDS.join(" | ")
            ))
        }
    }
    f.reject_leftovers(&kind)?;
    argv.push("--json".into());
    Ok(JobRequest { argv, deadline_ms })
}

/// Re-serializes a flat spec with `key` set to `value` (replacing an
/// existing field in place, or appending a new one), in the same
/// restricted JSON dialect [`parse_flat_object`] accepts. Used by
/// `simsym submit --deadline-ms`, which injects the deadline into the
/// spec without asking the user to edit their JSON.
///
/// # Errors
///
/// Whatever [`parse_flat_object`] rejects about `spec_json`.
pub fn set_field(spec_json: &str, key: &str, value: SpecValue) -> Result<String, String> {
    let mut pairs = parse_flat_object(spec_json)?;
    match pairs.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = value,
        None => pairs.push((key.to_owned(), value)),
    }
    let mut out = String::with_capacity(spec_json.len() + key.len() + 16);
    out.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_string(&mut out, k);
        out.push_str(": ");
        match v {
            SpecValue::Str(s) => push_json_string(&mut out, s),
            SpecValue::Int(n) => out.push_str(&n.to_string()),
            SpecValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
    out.push('}');
    Ok(out)
}

/// Extracts a field from a flat JSON object, for clients picking a job id
/// or cache verdict out of a farm response without a JSON library.
pub fn flat_field(json: &str, key: &str) -> Option<SpecValue> {
    let mut pairs = parse_flat_object(json).ok()?;
    let i = pairs.iter().position(|(k, _)| k == key)?;
    Some(pairs.remove(i).1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_scalars_and_rejects_structure() {
        let pairs =
            parse_flat_object("{\"kind\": \"lint\", \"seed\": 3, \"static\": true}").unwrap();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[1], ("seed".into(), SpecValue::Int(3)));
        assert_eq!(pairs[2], ("static".into(), SpecValue::Bool(true)));
        assert!(parse_flat_object("{\"a\": {}}")
            .unwrap_err()
            .contains("nested"));
        assert!(parse_flat_object("{\"a\": [1]}")
            .unwrap_err()
            .contains("nested"));
        assert!(parse_flat_object("{\"a\": 1.5}")
            .unwrap_err()
            .contains("non-integer"));
        assert!(parse_flat_object("{\"a\": null}")
            .unwrap_err()
            .contains("null"));
        assert!(parse_flat_object("{\"a\": 1, \"a\": 2}")
            .unwrap_err()
            .contains("duplicate"));
        assert!(parse_flat_object("{\"a\": 1} x")
            .unwrap_err()
            .contains("trailing"));
        assert!(parse_flat_object("{}").unwrap().is_empty());
    }

    #[test]
    fn only_json_whitespace_separates_tokens() {
        let pairs = parse_flat_object(" \t{\r\n\"seed\" :\t3 }\n").unwrap();
        assert_eq!(pairs, [("seed".into(), SpecValue::Int(3))]);
        // A no-break space is Unicode whitespace but not JSON whitespace.
        assert!(parse_flat_object("{\"seed\":\u{a0}3}").is_err());
        assert!(parse_flat_object("{\"seed\": 3}\u{2003}").is_err());
    }

    #[test]
    fn hostile_bodies_fail_or_parse_without_blowing_up() {
        // A megabyte of '[' would overflow a handler thread's stack if the
        // reader recursed without a bound.
        let deep = format!("{{\"a\":{}", "[".repeat(1 << 20));
        assert!(parse_flat_object(&deep).unwrap_err().contains("nesting"));
        // A megabyte string value decodes in linear time.
        let long = "\u{e9}".repeat(1 << 19);
        let started = std::time::Instant::now();
        let pairs = parse_flat_object(&format!("{{\"a\": \"{long}\"}}")).unwrap();
        assert_eq!(pairs, [("a".into(), SpecValue::Str(long))]);
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
    }

    #[test]
    fn argv_mapping_is_canonical_per_kind() {
        let a = job_argv("{\"kind\":\"verify\",\"family\":\"ring\",\"depth\":8}").unwrap();
        assert_eq!(a, ["verify", "--family", "ring", "--depth", "8", "--json"]);
        // Field order in the document does not change the argv.
        let b = job_argv("{\"depth\":8,\"kind\":\"verify\",\"family\":\"ring\"}").unwrap();
        assert_eq!(a, b);

        let s = job_argv("{\"kind\":\"sweep\",\"system\":\"ring:3\",\"steps\":200}").unwrap();
        assert_eq!(s, ["lint", "ring:3", "--sweep", "--steps", "200", "--json"]);

        let f = job_argv(
            "{\"kind\":\"faults\",\"family\":\"hypercube\",\"plan\":\"crash\",\"journal\":true}",
        )
        .unwrap();
        assert_eq!(
            f,
            [
                "faults",
                "--family",
                "hypercube",
                "--plan",
                "crash",
                "--journal",
                "--json"
            ]
        );
    }

    #[test]
    fn bad_specs_are_rejected_with_field_level_messages() {
        assert!(job_argv("{\"kind\":\"melt\"}")
            .unwrap_err()
            .contains("unknown kind"));
        assert!(job_argv("{\"kind\":\"lint\"}")
            .unwrap_err()
            .contains("missing required field \"system\""));
        assert!(
            job_argv("{\"kind\":\"lint\",\"system\":\"ring:3\",\"bogus\":1}")
                .unwrap_err()
                .contains("unknown field \"bogus\"")
        );
        // POR's interference relation comes from the program, not a field.
        assert!(
            job_argv("{\"kind\":\"verify\",\"family\":\"ring\",\"interference\":\"static\"}")
                .unwrap_err()
                .contains("unknown field \"interference\"")
        );
        // A spec file would be read from the farm's own host.
        for kind in ["lint", "sweep"] {
            let spec = format!("{{\"kind\":\"{kind}\",\"system\":\"@/dev/zero\"}}");
            assert!(job_argv(&spec).unwrap_err().contains("names a spec file"));
        }
        assert!(job_argv("{\"kind\":\"lint\",\"system\":3}")
            .unwrap_err()
            .contains("must be a string"));
        assert!(
            job_argv("{\"kind\":\"soak\",\"family\":\"ring\",\"seed\":-1}")
                .unwrap_err()
                .contains("non-negative")
        );
        assert!(job_argv("not json").is_err());
    }

    #[test]
    fn flat_field_extracts_scalars() {
        let json = "{\"job\": 7, \"cache\": \"hit\"}";
        assert_eq!(flat_field(json, "job"), Some(SpecValue::Int(7)));
        assert_eq!(
            flat_field(json, "cache"),
            Some(SpecValue::Str("hit".into()))
        );
        assert_eq!(flat_field(json, "nope"), None);
    }

    #[test]
    fn deadline_ms_rides_outside_the_argv_and_the_cache_key() {
        let with =
            job_request("{\"kind\":\"lint\",\"system\":\"ring:3\",\"deadline_ms\":250}").unwrap();
        let without = job_request("{\"kind\":\"lint\",\"system\":\"ring:3\"}").unwrap();
        assert_eq!(with.deadline_ms, Some(250));
        assert_eq!(without.deadline_ms, None);
        // Same argv → same fingerprint: the deadline is an execution
        // budget, not part of the job's identity.
        assert_eq!(with.argv, without.argv);
        assert!(
            job_request("{\"kind\":\"lint\",\"system\":\"ring:3\",\"deadline_ms\":0}")
                .unwrap_err()
                .contains("at least 1")
        );
    }

    #[test]
    fn panic_fixture_kind_maps_to_the_hidden_command() {
        assert_eq!(
            job_argv("{\"kind\":\"panic\"}").unwrap(),
            ["panic", "--json"]
        );
        assert_eq!(
            job_argv("{\"kind\":\"panic\",\"seed\":7}").unwrap(),
            ["panic", "--seed", "7", "--json"]
        );
    }

    #[test]
    fn set_field_inserts_or_replaces_and_reserializes() {
        let spec = "{\"kind\": \"lint\", \"system\": \"ring:3\"}";
        let with = set_field(spec, "deadline_ms", SpecValue::Int(40)).unwrap();
        assert_eq!(job_request(&with).unwrap().deadline_ms, Some(40), "{with}");
        let bumped = set_field(&with, "deadline_ms", SpecValue::Int(90)).unwrap();
        assert_eq!(job_request(&bumped).unwrap().deadline_ms, Some(90));
        assert!(set_field("nope", "k", SpecValue::Int(1)).is_err());
    }

    #[test]
    fn unicode_escapes_parse_and_reserialize() {
        let pairs = parse_flat_object("{\"a\": \"tab\\u0009end\\u00e9\"}").unwrap();
        assert_eq!(pairs[0].1, SpecValue::Str("tab\tend\u{e9}".into()));
        assert!(parse_flat_object("{\"a\": \"\\ud800\"}")
            .unwrap_err()
            .contains("not a scalar value"));
        assert!(parse_flat_object("{\"a\": \"\\u12\"}").is_err());
        // push_json_string escapes C0 controls so journal records stay
        // single-line and re-parseable.
        let mut out = String::new();
        push_json_string(&mut out, "a\nb\u{1}c");
        assert_eq!(out, "\"a\\nb\\u0001c\"");
        let back = parse_flat_object(&format!("{{\"k\": {out}}}")).unwrap();
        assert_eq!(back[0].1, SpecValue::Str("a\nb\u{1}c".into()));
    }
}
