//! The farm commands: `serve`, its clients `submit`, `cancel` and
//! `shutdown`, and the hidden `panic` fixture.

use crate::flags::{self, Kind};
use crate::{ok, CmdOut, DispatchRunner};
use simsym::serve::{client as serve_client, ServeConfig, Server};
use std::sync::Arc;

/// `simsym serve [--addr HOST:PORT] [--workers N] [--queue N]
/// [--state-dir DIR] [--default-deadline-ms N]` — runs the farm until a
/// client posts `/shutdown`, then prints the lifetime summary. The
/// banner (and the journal-recovery report) goes to stderr so stdout
/// stays a clean document channel.
pub fn serve(args: &[String]) -> Result<CmdOut, String> {
    let flags = flags::parse(
        args,
        &[
            flags::ADDR,
            ("--workers", Kind::Count("worker")),
            ("--queue", Kind::Count("queued job")),
            ("--state-dir", Kind::Str("a directory")),
            ("--default-deadline-ms", Kind::Count("millisecond")),
        ],
    )?;
    flags.no_rest("serve argument")?;
    let default = ServeConfig::default();
    let config = ServeConfig {
        addr: flags.text("--addr").unwrap_or(default.addr),
        workers: flags.usize("--workers").unwrap_or(default.workers),
        queue_capacity: flags.usize("--queue").unwrap_or(default.queue_capacity),
        state_dir: flags.text("--state-dir"),
        default_deadline_ms: flags.u64("--default-deadline-ms"),
        ..default
    };
    let workers = config.workers;
    let journaled = config.state_dir.is_some();
    let server = Server::bind(config, Arc::new(DispatchRunner))?;
    eprintln!(
        "simsym serve: listening on {} ({} worker{}); POST /shutdown to drain",
        server.local_addr(),
        workers,
        if workers == 1 { "" } else { "s" }
    );
    if journaled {
        let (requeued, artifacts) = server.recovery();
        eprintln!(
            "simsym serve: journal replayed: recovered {artifacts} finished artifact(s), requeued {requeued} unfinished job(s)"
        );
    }
    let summary = server.run()?;
    ok(format!(
        "{{\"schema\": \"simsym-serve/v1\", \"completed\": {}, \"cache_hits\": {}, \"rejected\": {}, \"retried\": {}, \"panicked\": {}, \"deadlines\": {}, \"cancelled\": {}, \"recovered\": {}}}\n",
        summary.completed,
        summary.cache_hits,
        summary.rejected,
        summary.retried,
        summary.panicked,
        summary.deadlines,
        summary.cancelled,
        summary.recovered
    ))
}

/// `simsym submit [--addr HOST:PORT] [--watch] [--deadline-ms N]
/// <job.json | - | {...}>` — posts one job spec, optionally streams its
/// NDJSON events, and prints the final document. `--deadline-ms` is
/// injected into the spec's `deadline_ms` field (an execution budget
/// that stays out of the job's cache key). Exits nonzero when the
/// job's run failed.
pub fn submit(args: &[String]) -> Result<CmdOut, String> {
    let flags = flags::parse(
        args,
        &[
            flags::ADDR,
            ("--deadline-ms", Kind::Count("millisecond")),
            ("--watch", Kind::Switch),
        ],
    )?;
    let addr = flags
        .text("--addr")
        .unwrap_or_else(|| ServeConfig::default().addr);
    let source = match flags.rest.as_slice() {
        [source] => source.clone(),
        [] => return Err("submit needs a job spec: a file, '-' for stdin, or inline JSON".into()),
        [_, extra, ..] => return Err(format!("submit takes one job spec (extra: {extra:?})")),
    };
    let spec_text = if source == "-" {
        let mut buf = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
            .map_err(|e| format!("cannot read job spec from stdin: {e}"))?;
        buf
    } else if source.trim_start().starts_with('{') {
        source
    } else {
        std::fs::read_to_string(&source)
            .map_err(|e| format!("cannot read job spec {source:?}: {e}"))?
    };
    let spec_text = match flags.u64("--deadline-ms") {
        Some(ms) => {
            let ms = i64::try_from(ms).map_err(|_| "--deadline-ms is out of range".to_owned())?;
            simsym::serve::spec::set_field(
                &spec_text,
                "deadline_ms",
                simsym::serve::spec::SpecValue::Int(ms),
            )?
        }
        None => spec_text,
    };
    let submitted = serve_client::submit_job(&addr, &spec_text)?;
    let mut text = format!(
        "{{\"schema\": \"simsym-serve/v1\", \"job\": {}, \"cache\": \"{}\"}}\n",
        submitted.job, submitted.cache
    );
    if flags.on("--watch") {
        serve_client::watch_events(&addr, submitted.job, |line| {
            text.push_str(line);
            text.push('\n');
        })?;
    }
    let result = serve_client::fetch_result(&addr, submitted.job)?;
    text.push_str(&result.document);
    Ok(CmdOut {
        text,
        failed: result.failed,
    })
}

/// `simsym shutdown [--addr HOST:PORT]` — asks the farm to drain.
pub fn shutdown(args: &[String]) -> Result<CmdOut, String> {
    let flags = flags::parse(args, &[flags::ADDR])?;
    flags.no_rest("shutdown argument")?;
    let addr = flags
        .text("--addr")
        .unwrap_or_else(|| ServeConfig::default().addr);
    serve_client::shutdown(&addr).and_then(ok)
}

/// `simsym cancel [--addr HOST:PORT] <job-id>` — cancels a farm job:
/// dequeues it while queued, or raises its cooperative cancellation
/// token so the worker stops at the next sweep-job boundary.
pub fn cancel(args: &[String]) -> Result<CmdOut, String> {
    let flags = flags::parse(args, &[flags::ADDR])?;
    let addr = flags
        .text("--addr")
        .unwrap_or_else(|| ServeConfig::default().addr);
    let [id] = flags.rest.as_slice() else {
        return Err("cancel takes exactly one job id".into());
    };
    let id: u64 = id
        .parse()
        .map_err(|_| format!("cancel needs a numeric job id (got {id:?})"))?;
    serve_client::cancel_job(&addr, id).and_then(ok)
}

/// Hidden `panic` command: the farm's panic-isolation test fixture (the
/// `{"kind": "panic"}` job spec routes here). It accepts the canonical
/// argv the spec produces and then panics on purpose, proving a worker
/// panic is caught, retried once, and reported — never fatal to the farm.
pub fn panic_fixture(args: &[String]) -> Result<CmdOut, String> {
    let flags = flags::parse(args, &[flags::SEED, flags::JSON])?;
    flags.no_rest("panic argument")?;
    let seed = flags.u64("--seed").unwrap_or(0);
    panic!("panic fixture: deliberate panic (seed {seed})");
}
