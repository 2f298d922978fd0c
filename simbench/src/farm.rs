//! `farm`: the real `simsym serve` release binary as a subprocess, driven
//! through `simsym_serve::client` by an open loop at one fixed arrival
//! rate. One thread submits at the due times; a second fetches results in
//! acknowledgement order.
//!
//! Jobs come from a fixed catalogue of small specs whose artifact digests
//! are pinned (`pins/farm.txt`, from `--pins farm`). Every seed submits
//! the same specs; the seed picks their order, the exponential arrival
//! gaps, and which arrivals resubmit an earlier spec to hit the
//! content-addressed store.
//!
//! `run_s` is the CPU time the serve process spends on that fixed job
//! list. Its wall time would only echo the schedule; its latencies (ack
//! and result p50/p90, timed from the due time) move with queueing and
//! with the shared disk's fsync times, so they are per-layer metrics.

use crate::json;
use crate::mix::{fnv1a, splitmix64};
use crate::report::{cpu_s, peak_rss_mb, Metrics, Outcome};
use crate::stats::{median, percentile, samples_needed, Latency};
use crate::trace::{Recorder, Span};
use simsym_serve::{client, journal, spec};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Open-loop arrival rate, jobs per second: a twentieth to a tenth of the
/// closed-loop saturation throughput the traced run reports (about 600/s
/// pinned to one CPU of a 2-vCPU host in its fast phases, 230–290/s in
/// its slow ones), so the queue stays short in either. On one CPU every
/// submit that lands while a job runs waits for that CPU; at 60/s those
/// overlaps set the p90s, and in a slow host phase the p90 spread between
/// identical runs was 0.30–0.34, against 0.06–0.22 at 30/s.
pub const RATE: f64 = 30.0;
/// Share of arrivals that resubmit an earlier spec (cache hits). An
/// assumption, like the job mix below: no farm traffic has been recorded.
pub const HIT_SHARE: f64 = 0.15;
/// A resubmission only targets a spec first due at least this long
/// before, so the first run has finished and the resubmission hits.
pub const HIT_LOOKBACK: Duration = Duration::from_secs(2);
/// Distinct specs in the catalogue.
pub const CATALOGUE: usize = 4096;
/// Worker threads of the served farm.
const WORKERS: &str = "2";
/// Farm spawns timed per run for `setup_s`, the median of their times.
const SETUP_SPAWNS: usize = 20;

/// Pinned FNV-1a digest of each catalogue spec's artifact, one hex
/// digest per line in catalogue order.
const PINS: &str = include_str!("../pins/farm.txt");

/// The catalogue: mostly small jobs that miss the cache, in a fixed mix
/// of 40% `lint`, 30% `sweep`, 20% `faults --plan crash` and 10%
/// `verify` at four processors.
///
/// The kinds are the ones the farm serves; the weights and sizes are
/// assumptions, since no farm traffic has been recorded. The sizes sit
/// near the small jobs of the CI serve smoke (`lint` of `hypercube:3`,
/// `table:5` and `ring:4`; a 400-step `sweep` of `marked-ring:5`). The
/// per-kind `serve.exec_<kind>_p50_ms` metrics show what each kind costs,
/// so a change that only helps one kind can be read past the mix.
pub fn spec(i: usize) -> String {
    let round = i / 20;
    match i % 20 {
        0..=7 => {
            let system = [
                "ring:5",
                "table:5",
                "hypercube:3",
                "marked-ring:6",
                "ring:7",
                "table:7",
            ][round % 6];
            format!("{{\"kind\": \"lint\", \"system\": \"{system}\", \"seed\": {i}}}")
        }
        8..=11 | 18..=19 => {
            let system = ["ring:4", "table:4", "marked-ring:5"][round % 3];
            format!(
                "{{\"kind\": \"sweep\", \"system\": \"{system}\", \"seed\": {i}, \"steps\": 300}}"
            )
        }
        12..=15 => {
            let family = ["ring", "table"][round % 2];
            format!(
                "{{\"kind\": \"faults\", \"family\": \"{family}\", \"plan\": \"crash\", \"seed\": {i}, \"steps\": 1000}}"
            )
        }
        _ => {
            let family = ["ring", "table"][i % 2];
            let reduce = ["none", "quotient", "por", "both"][round % 4];
            format!(
                "{{\"kind\": \"verify\", \"family\": \"{family}\", \"procs\": 4, \"reduce\": \"{reduce}\", \"depth\": 8, \"states\": {}}}",
                100_000 + i
            )
        }
    }
}

/// The job kind of a catalogue spec.
fn kind(i: usize) -> &'static str {
    match i % 20 {
        0..=7 => "lint",
        8..=11 | 18..=19 => "sweep",
        12..=15 => "faults",
        _ => "verify",
    }
}

/// FNV-1a over a document's bytes.
pub fn digest(text: &str) -> u64 {
    fnv1a(text.as_bytes())
}

fn pinned(i: usize) -> Option<u64> {
    PINS.lines()
        .nth(i)
        .and_then(|l| u64::from_str_radix(l.trim(), 16).ok())
}

/// A small deterministic generator (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_f00d_cafe_d00d)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((splitmix64(&mut self.0) >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (splitmix64(&mut self.0) % n as u64) as usize
    }
}

/// One planned submission.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    /// When it is due, from the start of the load.
    pub due: Duration,
    /// Catalogue index of its spec.
    pub spec: usize,
    /// Whether it resubmits a spec already served in this run.
    pub hit: bool,
}

/// The open-loop schedule: a pure function of (seed, rate, length). It
/// holds `rate × seconds` arrivals, so every run submits as many jobs and
/// the farm holds as many when it stops. Gaps are exponential with mean
/// `1 / rate`, so the last arrival is due near `seconds`.
///
/// The work is the same for every seed: exactly a [`HIT_SHARE`] of the
/// arrivals resubmit an earlier spec, and the rest submit the first
/// catalogue specs, each once, so the job mix is fixed. The seed picks
/// the order of those specs, the gaps, which arrivals are resubmissions
/// and which earlier spec each one repeats.
pub fn schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let count = (rate * seconds).round() as usize;
    let mut rng = Rng::new(seed);
    let mut t = 0.0;
    let due: Vec<Duration> = (0..count)
        .map(|_| {
            t += -rng.unit().ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect();
    // Resubmissions go to arrivals due at least HIT_LOOKBACK after the
    // first one, so each has a spec served that long before to repeat.
    let first_eligible = due.first().map_or(0, |&first| {
        due.partition_point(|d| *d < first + HIT_LOOKBACK)
    });
    let mut eligible: Vec<usize> = (first_eligible..count).collect();
    let hits = ((count as f64 * HIT_SHARE).round() as usize).min(eligible.len());
    shuffle_prefix(&mut rng, &mut eligible, hits);
    let mut is_hit = vec![false; count];
    for &i in &eligible[..hits] {
        is_hit[i] = true;
    }
    let mut order: Vec<usize> = (0..count - hits).map(|i| i % CATALOGUE).collect();
    let n = order.len();
    shuffle_prefix(&mut rng, &mut order, n);
    let mut order = order.into_iter();
    let mut misses: Vec<(Duration, usize)> = Vec::new();
    (0..count)
        .map(|i| {
            let due = due[i];
            if is_hit[i] {
                let served = misses.partition_point(|(d, _)| *d + HIT_LOOKBACK <= due);
                let spec = misses[rng.below(served)].1;
                Arrival {
                    due,
                    spec,
                    hit: true,
                }
            } else {
                let spec = order.next().expect("one spec per miss");
                misses.push((due, spec));
                Arrival {
                    due,
                    spec,
                    hit: false,
                }
            }
        })
        .collect()
}

/// Fisher–Yates over the first `k` places: afterwards `v[..k]` is a
/// uniform sample of `v`, in uniform order.
fn shuffle_prefix(rng: &mut Rng, v: &mut [usize], k: usize) {
    for i in 0..k {
        let j = i + rng.below(v.len() - i);
        v.swap(i, j);
    }
}

/// Where a run keeps its farm state: inside the checkout.
fn run_dir() -> PathBuf {
    PathBuf::from(".simbench-run")
}

/// Builds the `simsym` release binary from this checkout's sources (the
/// workspace next to the benchmark's directory) and returns its path, as
/// cargo reports it.
pub fn build_binary() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "simsym",
        ])
        .args([
            "--message-format",
            "json-render-diagnostics",
            "--manifest-path",
        ])
        .arg(&manifest)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err("building the simsym binary failed".into());
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| json::parse(l).ok())
        .find_map(|m| {
            let bin = m.get("target")?.get("name")?.as_str() == Some("simsym");
            bin.then(|| m.get("executable")?.as_str().map(PathBuf::from))?
        })
        .ok_or_else(|| "cargo reported no simsym executable".to_owned())
}

/// A running `simsym serve`.
pub struct Farm {
    child: Child,
    /// The farm's stderr, held open for as long as the farm runs: it
    /// reports journal failures there, and a closed pipe would make
    /// those reports fail.
    stderr: BufReader<ChildStderr>,
    pub addr: String,
    /// This farm's directory: its state dir, when durable.
    base: PathBuf,
}

static FARMS: AtomicUsize = AtomicUsize::new(0);

fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.port())
}

impl Farm {
    /// Spawns a farm (durable on a fresh state dir unless `volatile`) and
    /// waits until `/healthz` answers; returns it with the time that took.
    ///
    /// The wait blocks on the farm's stderr banner, which `simsym serve`
    /// prints once its listener is bound, and then makes one `/healthz`
    /// call. Polling `/healthz` instead would round the time up to the
    /// polling step and, on a farm pinned to the generator's CPU, take
    /// that CPU from the starting farm.
    pub fn spawn(bin: &Path, volatile: bool) -> Result<(Farm, Duration), String> {
        let n = FARMS.fetch_add(1, Ordering::Relaxed);
        let base = run_dir().join(format!("farm-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).map_err(|e| e.to_string())?;
        let addr = format!("127.0.0.1:{}", free_port()?);
        let state_dir = (!volatile).then(|| base.join("state"));
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", &addr, "--workers", WORKERS]);
        if let Some(dir) = &state_dir {
            cmd.arg("--state-dir").arg(dir);
        }
        let start = Instant::now();
        let mut child = cmd
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut farm = Farm {
            child,
            stderr,
            addr,
            base,
        };
        let mut banner = String::new();
        let _ = farm.stderr.read_line(&mut banner);
        let ready = if banner.contains("listening on") {
            client::healthz(&farm.addr)
        } else {
            Err(format!("simsym serve did not start: {}", banner.trim()))
        };
        match ready {
            Ok(_) => Ok((farm, start.elapsed())),
            Err(e) => {
                farm.kill();
                Err(e)
            }
        }
    }

    /// Peak resident set of the serve process, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Drains the farm, waits for it to exit and removes its files.
    pub fn stop(mut self) -> Result<(), String> {
        let drained = client::shutdown(&self.addr);
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() > deadline {
                self.kill();
                return Err("simsym serve did not drain within 60s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.remove_files();
        drained.map(|_| ())
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.remove_files();
    }

    fn remove_files(&self) {
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

/// What happened to one arrival.
#[derive(Clone, Debug, Default)]
pub struct Record {
    pub sent_lag: Duration,
    pub ack: Option<Duration>,
    pub cache: String,
    pub result: Option<Duration>,
    /// Traced runs: ack → `started`, and `started` → `finished`.
    pub queue_wait: Option<Duration>,
    pub exec: Option<Duration>,
    pub error: Option<String>,
    pub document: Option<String>,
    pub failed_run: bool,
}

/// A job the fetcher or watcher follows after its ack.
struct Acked {
    index: usize,
    job: u64,
    due: Instant,
    acked: Instant,
}

/// One open-loop load: submits each arrival at its due time and fetches
/// every result. Latencies run from the due time. With `traced`, the
/// second thread also follows each job's NDJSON events (to time queue
/// wait and execution) before fetching its result. Either way the load
/// holds at most two connections open: one per thread.
pub fn load(farm: &Farm, plan: &[Arrival], traced: bool) -> Vec<Record> {
    let mut records = vec![Record::default(); plan.len()];
    let (tx, rx) = mpsc::channel::<Acked>();
    let addr = farm.addr.clone();
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let fetcher = scope.spawn(move || {
            rx.into_iter()
                .map(|a| {
                    let fetched = if traced {
                        watch(&addr, &a)
                    } else {
                        fetch(&addr, &a)
                    };
                    (a.index, fetched)
                })
                .collect::<Vec<_>>()
        });
        for (i, a) in plan.iter().enumerate() {
            let due = start + a.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let r = &mut records[i];
            r.sent_lag = sent - due;
            match client::submit_job(&farm.addr, &spec(a.spec)) {
                Ok(sub) => {
                    let acked = Instant::now();
                    r.ack = Some(acked - due);
                    r.cache = sub.cache;
                    let _ = tx.send(Acked {
                        index: i,
                        job: sub.job,
                        due,
                        acked,
                    });
                }
                Err(e) => r.error = Some(format!("submit: {e}")),
            }
        }
        drop(tx);
        for (i, fetched) in fetcher.join().expect("fetcher") {
            let r = &mut records[i];
            match fetched {
                Ok(f) => {
                    r.result = Some(f.latency);
                    r.queue_wait = f.queue_wait;
                    r.exec = f.exec;
                    r.failed_run = f.failed;
                    r.document = Some(f.document);
                }
                Err(e) => r.error = Some(format!("result: {e}")),
            }
        }
    });
    records
}

struct Fetched {
    latency: Duration,
    queue_wait: Option<Duration>,
    exec: Option<Duration>,
    document: String,
    failed: bool,
}

fn fetch(addr: &str, a: &Acked) -> Result<Fetched, String> {
    let r = client::fetch_result(addr, a.job)?;
    Ok(Fetched {
        latency: a.due.elapsed(),
        queue_wait: None,
        exec: None,
        document: r.document,
        failed: r.failed,
    })
}

/// Follows one job's event stream with `client::watch_events` until the
/// farm closes it, stamping the `started` and `finished` lines as they
/// arrive, then fetches the result. Jobs are watched one at a time in
/// ack order, so a job's stream opens only once the job before it is
/// done; events the farm emitted before the open are replayed at once
/// and stamped at the open. The stamps are therefore bounds: a job that
/// finished before its stream opened shows an `exec` near 0.
fn watch(addr: &str, a: &Acked) -> Result<Fetched, String> {
    let mut started = None;
    let mut finished = None;
    client::watch_events(addr, a.job, |line| {
        let now = Instant::now();
        if line.contains("\"event\": \"started\"") {
            started.get_or_insert(now);
        }
        if line.contains("\"event\": \"finished\"") {
            finished.get_or_insert(now);
            started.get_or_insert(now);
        }
    })?;
    let mut f = fetch(addr, a)?;
    f.queue_wait = started.map(|s| s.saturating_duration_since(a.acked));
    f.exec = started.zip(finished).map(|(s, e)| e - s);
    Ok(f)
}

/// Checks every record, counting each arrival as one operation: a
/// refused or missing ack, a missing result, a failed run, a digest that
/// is not the pinned one, an expected hit that missed, or a hit whose
/// bytes differ from the first serve all count as failures.
pub fn check(out: &mut Outcome, plan: &[Arrival], records: &[Record]) {
    let mut first: HashMap<usize, &str> = HashMap::new();
    for (a, r) in plan.iter().zip(records) {
        out.attempted += 1;
        let verdict = (|| {
            if let Some(e) = &r.error {
                return Err(e.clone());
            }
            let doc = r.document.as_deref().ok_or("no result")?;
            if r.failed_run {
                return Err("the job's run reported failure".into());
            }
            let want = pinned(a.spec).ok_or("no pinned digest")?;
            if digest(doc) != want {
                return Err(format!("digest {:016x}, pinned {want:016x}", digest(doc)));
            }
            let expected = if a.hit { "hit" } else { "miss" };
            if r.cache != expected {
                return Err(format!(
                    "acked as a cache {}, expected a {expected}",
                    r.cache
                ));
            }
            match first.get(&a.spec) {
                Some(prev) if a.hit && *prev != doc => {
                    Err("hit bytes differ from the first serve".into())
                }
                Some(_) => Ok(()),
                None => {
                    first.insert(a.spec, doc);
                    Ok(())
                }
            }
        })();
        if let Err(e) = verdict {
            out.fail(format!("job {} ({}): {e}", a.spec, spec(a.spec)));
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn latencies(records: &[Record], f: impl Fn(&Record) -> Option<Duration>) -> Vec<f64> {
    records.iter().filter_map(|r| f(r).map(ms)).collect()
}

/// Puts `<name>_p50_ms` and `<name>_p90_ms` into `m` and states them
/// with their sample count, or fails the run when the sample is too small
/// for p90.
fn put_latency(out: &mut Outcome, m: &mut Metrics, name: &str, values: &[f64]) {
    match Latency::of(values) {
        Some(l) => {
            out.info(format!(
                "{name}: {} samples, p50 {:.3} ms, p90 {:.3} ms",
                l.samples, l.p50, l.p90
            ));
            m.put(&format!("{name}_p50_ms"), l.p50, "ms");
            m.put(&format!("{name}_p90_ms"), l.p90, "ms");
        }
        None => out.fail(format!(
            "{name}: {} samples are too few for p90",
            values.len()
        )),
    }
}

/// Spawns and stops `n` farms, pushing each one's spawn-to-healthy time.
fn time_spawns(bin: &Path, volatile: bool, n: usize, times: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..n {
        let (farm, t) = Farm::spawn(bin, volatile)?;
        farm.stop()?;
        times.push(t.as_secs_f64());
    }
    Ok(())
}

/// What one durable open-loop run left behind.
struct Served {
    records: Vec<Record>,
    /// Peak RSS of the serve process, MiB.
    rss_mb: f64,
    /// CPU time the serve process spent from answering `/healthz` until
    /// the last result was fetched, in seconds.
    cpu_s: f64,
}

/// One durable open-loop run on a fresh state dir.
fn durable_run(bin: &Path, plan: &[Arrival], traced: bool) -> Result<Served, String> {
    let (farm, _) = Farm::spawn(bin, false)?;
    let pid = farm.child.id().to_string();
    let ready = cpu_s(&pid);
    let records = load(&farm, plan, traced);
    let cpu_s = cpu_s(&pid) - ready;
    let rss_mb = farm.peak_rss_mb();
    farm.stop()?;
    Ok(Served {
        records,
        rss_mb,
        cpu_s,
    })
}

/// Pins this process to the first CPU it may use, with `taskset`, so
/// that the load generator, its threads and every farm it spawns from
/// now on (children inherit the mask) share one CPU. Returns the CPU, or
/// why the process was left unpinned.
///
/// On a shared 2-vCPU host the farm's latencies otherwise depend on how
/// the scheduler happens to spread the client and serve threads over the
/// CPUs: the ack p50 of identical runs came out near 1.1 ms in some runs
/// and near 2.1 ms in others, each mode lasting the whole run. On one CPU
/// no request waits on a cross-CPU wake-up, and identical runs agree.
fn pin_to_one_cpu() -> Result<String, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let cpu: String = allowed
        .trim()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let pinned = Command::new("taskset")
        .args(["-a", "-p", "-c", &cpu, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run taskset: {e}"))?;
    if pinned.success() {
        Ok(cpu)
    } else {
        Err(format!("taskset exited with {pinned}"))
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let bin = build_binary()?;
    let cpu = pin_to_one_cpu();
    let plan = schedule(seed, RATE, seconds);
    let misses = plan.iter().filter(|a| !a.hit).count();
    if plan.len() < samples_needed(0.9) {
        return Err(format!("{seconds}s at {RATE}/s is too short for a p90"));
    }
    if misses > CATALOGUE {
        return Err(format!(
            "{seconds}s at {RATE}/s needs {misses} distinct specs; the catalogue has {CATALOGUE}"
        ));
    }
    let mut out = Outcome::default();
    out.info(format!(
        "open loop: {} arrivals at {RATE}/s over {seconds}s, {} resubmissions",
        plan.len(),
        plan.len() - misses
    ));
    out.info(match cpu {
        Ok(cpu) => format!("generator and farms pinned to CPU {cpu}"),
        Err(e) => format!("not pinned to one CPU ({e}); latencies spread more"),
    });
    // `setup_s` times volatile farms: the fsyncs a durable farm makes when
    // it opens its journal took from 0.2 to over 2 ms on a shared disk,
    // and moved the median of 20 spawns up to twofold between identical
    // runs. The traced run reports the durable spawn time per layer
    // (`serve.durable_spawn_ms`). Half the spawns come before the load
    // and half after, so `setup_s` samples both ends of the run.
    let mut spawns = Vec::new();
    time_spawns(&bin, true, SETUP_SPAWNS / 2, &mut spawns)?;
    let served = durable_run(&bin, &plan, false)?;
    let records = &served.records;
    time_spawns(&bin, true, SETUP_SPAWNS - SETUP_SPAWNS / 2, &mut spawns)?;
    out.info(format!(
        "farm spawn times (ms): {:?}",
        spawns
            .iter()
            .map(|t| (t * 1e4).round() / 10.0)
            .collect::<Vec<_>>()
    ));
    check(&mut out, &plan, records);
    let lag = latencies(records, |r| Some(r.sent_lag));
    let send_to_ack = latencies(records, |r| r.ack.map(|a| a - r.sent_lag));
    out.info(format!(
        "generator lateness p50 {:.3} ms, p90 {:.3} ms; send to ack p50 {:.3} ms",
        p50(&lag),
        p90(&lag),
        p50(&send_to_ack)
    ));
    let acks = latencies(records, |r| r.ack);
    let results = latencies(records, |r| r.result);
    let mut latency = Metrics::default();
    put_latency(&mut out, &mut latency, "ack", &acks);
    put_latency(&mut out, &mut latency, "result", &results);
    if !traced {
        out.metrics.put("setup_s", median(&spawns), "s");
        out.metrics.put("run_s", served.cpu_s, "s");
        out.metrics.put("peak_rss_mb", served.rss_mb, "MB");
        return Ok(out);
    }
    for (name, value, unit) in latency.0 {
        out.metrics.put(&format!("serve.{name}"), value, unit);
    }
    traced_run(&mut out, &bin, &plan, records, seed)?;
    Ok(out)
}

/// p50 by the percentile rule, NaN (an incorrect run) when too few.
fn p50(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5).unwrap_or(f64::NAN)
}

fn p90(v: &[f64]) -> f64 {
    Latency::of(v).map_or(f64::NAN, |l| l.p90)
}

/// The traced farm run: the untraced durable run above is the baseline;
/// then the same schedule on a volatile farm, the same schedule traced,
/// a closed loop for saturation, and timed direct journal calls.
fn traced_run(
    out: &mut Outcome,
    bin: &Path,
    plan: &[Arrival],
    plain: &[Record],
    seed: u64,
) -> Result<(), String> {
    let plain_ack = p50(&latencies(plain, |r| r.ack));
    let (farm, _) = Farm::spawn(bin, true)?;
    let volatile = load(&farm, plan, false);
    farm.stop()?;
    check(out, plan, &volatile);
    let volatile_ack = p50(&latencies(&volatile, |r| r.ack));

    let epoch = Instant::now();
    let traced = durable_run(bin, plan, true)?.records;
    check(out, plan, &traced);
    let traced_ack = p50(&latencies(&traced, |r| r.ack));
    let plain_hits = plain.iter().filter(|r| r.cache == "hit").count();
    let hits = traced.iter().filter(|r| r.cache == "hit").count();
    if plain_hits != hits {
        out.fail(format!(
            "traced run had {hits} cache hits, untraced {plain_hits}"
        ));
    }
    out.spans = job_spans(epoch, plan, &traced);

    let m = &mut out.metrics;
    m.put("serve.journal_ack_ms", plain_ack - volatile_ack, "ms");
    let waits = latencies(&traced, |r| r.queue_wait);
    m.put("serve.queue_wait_p50_ms", p50(&waits), "ms");
    m.put("serve.queue_wait_p90_ms", p90(&waits), "ms");
    let exec = |k: Option<&str>| -> Vec<f64> {
        plan.iter()
            .zip(&traced)
            .filter(|(a, _)| !a.hit && k.is_none_or(|k| kind(a.spec) == k))
            .filter_map(|(_, r)| r.exec.map(ms))
            .collect()
    };
    for k in ["lint", "sweep", "faults", "verify"] {
        m.put(&format!("serve.exec_{k}_p50_ms"), p50(&exec(Some(k))), "ms");
    }
    m.put("serve.exec_p90_ms", p90(&exec(None)), "ms");
    let by_hit = |hit: bool| -> Vec<f64> {
        plan.iter()
            .zip(&traced)
            .filter(|(a, _)| a.hit == hit)
            .filter_map(|(_, r)| r.result.map(ms))
            .collect()
    };
    m.put("serve.hit_result_ms", p50(&by_hit(true)), "ms");
    m.put("serve.miss_result_ms", p50(&by_hit(false)), "ms");
    m.put("serve.hit_share", hits as f64 / plan.len() as f64, "ratio");
    m.put(
        "serve.gen_lag_p90_ms",
        p90(&latencies(plain, |r| Some(r.sent_lag))),
        "ms",
    );
    m.put("serve.saturation_jobs_per_s", saturation(bin, plan)?, "1/s");
    let mut durable = Vec::new();
    time_spawns(bin, false, SETUP_SPAWNS, &mut durable)?;
    m.put("serve.durable_spawn_ms", median(&durable) * 1e3, "ms");
    journal_calls(m, seed)?;
    m.put("trace.overhead", traced_ack / plain_ack - 1.0, "ratio");
    Ok(())
}

/// One call span per job (named by kind) holding the client calls and
/// the farm-side intervals the event stream showed.
fn job_spans(epoch: Instant, plan: &[Arrival], records: &[Record]) -> Vec<Span> {
    let mut rec = Recorder::new(epoch);
    for (i, (a, r)) in plan.iter().zip(records).enumerate() {
        let (Some(ack), Some(result)) = (r.ack, r.result) else {
            continue;
        };
        let group = i as u64;
        let due = epoch + a.due;
        let job_name = format!("farm.job.{}", kind(a.spec));
        let job = Some(rec.record(&job_name, group, None, due, due + result));
        rec.record("client.submit", group, job, due + r.sent_lag, due + ack);
        rec.record("client.result", group, job, due + ack, due + result);
        if let (Some(wait), Some(exec)) = (r.queue_wait, r.exec) {
            let started = due + ack + wait;
            rec.record("serve.queue", group, job, due + ack, started);
            rec.record("serve.exec", group, job, started, started + exec);
        }
    }
    rec.into_spans()
}

/// Closed loop, two clients, the schedule's jobs back to back on a fresh
/// durable farm: completed jobs per second.
fn saturation(bin: &Path, plan: &[Arrival]) -> Result<f64, String> {
    let (farm, _) = Farm::spawn(bin, false)?;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let errors: usize = std::thread::scope(|scope| {
        let client = || {
            let mut errors = 0;
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(a) = plan.get(i) else { return errors };
                let ok = client::submit_job(&farm.addr, &spec(a.spec))
                    .and_then(|s| client::fetch_result(&farm.addr, s.job));
                errors += usize::from(ok.is_err());
            }
        };
        let a = scope.spawn(client);
        let b = scope.spawn(client);
        a.join().expect("client") + b.join().expect("client")
    });
    let rate = plan.len() as f64 / start.elapsed().as_secs_f64();
    farm.stop()?;
    if errors > 0 {
        return Err(format!("{errors} closed-loop jobs failed"));
    }
    Ok(rate)
}

/// Times direct calls into the journal layer on a scratch state dir:
/// append + `fdatasync` of submit records, and artifact write and read.
fn journal_calls(m: &mut Metrics, seed: u64) -> Result<(), String> {
    let dir = run_dir().join(format!("journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut j, _) = journal::JobJournal::open(&dir)?;
    let mut sync = Vec::new();
    let mut write = Vec::new();
    let mut read = Vec::new();
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    for i in 0..200u64 {
        let text = spec(i as usize);
        let argv = spec::job_argv(&text)?;
        let fp = simsym_serve::job_fingerprint(&argv);
        j.append(&journal::record::submit(i, fp, &text))?;
        let t = Instant::now();
        j.sync()?;
        sync.push(us(t.elapsed()));
        let doc = format!("{{\"seed\": {seed}, \"job\": {i}}}\n");
        let t = Instant::now();
        journal::write_artifact(&dir, fp, &doc)?;
        write.push(us(t.elapsed()));
        let t = Instant::now();
        let back = journal::read_artifact(&dir, fp);
        read.push(us(t.elapsed()));
        if back.as_deref() != Some(doc.as_str()) {
            return Err("artifact read back differs".into());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let l = Latency::of(&sync).ok_or("too few journal syncs")?;
    m.put("serve.journal_sync_p50_us", l.p50, "us");
    m.put("serve.journal_sync_p90_us", l.p90, "us");
    m.put("serve.artifact_write_us", median(&write), "us");
    m.put("serve.artifact_read_us", median(&read), "us");
    Ok(())
}

/// The pinned digest of every catalogue spec, from the batch CLI.
pub fn pins() -> Result<Vec<String>, String> {
    let bin = build_binary()?;
    (0..CATALOGUE)
        .map(|i| {
            let argv = spec::job_argv(&spec(i))?;
            let out = Command::new(&bin)
                .args(&argv)
                .output()
                .map_err(|e| e.to_string())?;
            if !out.status.success() {
                return Err(format!("{} failed", spec(i)));
            }
            let doc = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
            Ok(format!("{:016x}", digest(&doc)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_rate() {
        let a = schedule(7, RATE, 10.0);
        assert_eq!(a, schedule(7, RATE, 10.0));
        assert_ne!(a, schedule(8, RATE, 10.0));
        assert_ne!(a, schedule(7, RATE / 2.0, 10.0));
        // RATE arrivals a second, in due order, the last due near the end
        assert_eq!(a.len(), (RATE * 10.0) as usize);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        let last = a[a.len() - 1].due.as_secs_f64();
        assert!((8.0..12.0).contains(&last), "{last}");
    }

    #[test]
    fn every_seed_submits_the_same_jobs() {
        let misses = |seed| {
            let plan = schedule(seed, RATE, 20.0);
            let mut specs: Vec<usize> = plan.iter().filter(|a| !a.hit).map(|a| a.spec).collect();
            specs.sort_unstable();
            specs
        };
        let first = misses(1);
        assert_eq!(first, (0..first.len()).collect::<Vec<_>>());
        for seed in 2..6 {
            assert_eq!(misses(seed), first);
        }
    }

    #[test]
    fn resubmissions_target_specs_served_long_before() {
        let plan = schedule(3, RATE, 20.0);
        let hits = plan.iter().filter(|a| a.hit).count();
        assert_eq!(hits, (plan.len() as f64 * HIT_SHARE).round() as usize);
        for (i, a) in plan.iter().enumerate().filter(|(_, a)| a.hit) {
            let first = plan[..i]
                .iter()
                .find(|b| b.spec == a.spec)
                .expect("served before");
            assert!(!first.hit && first.due + HIT_LOOKBACK <= a.due);
        }
        let mut misses: Vec<usize> = plan.iter().filter(|a| !a.hit).map(|a| a.spec).collect();
        let n = misses.len();
        misses.sort_unstable();
        misses.dedup();
        assert_eq!(misses.len(), n, "misses are distinct specs");
    }

    /// Needs the `simsym` binary, which it builds from this checkout.
    #[test]
    fn each_farm_starts_fresh_and_latency_counts_from_the_due_time() {
        let bin = build_binary().expect("simsym builds");
        // Twenty distinct jobs all due at once: each waits for the ones
        // submitted before it, and its latency must include that wait.
        let burst: Vec<Arrival> = (0..20)
            .map(|spec| Arrival {
                due: Duration::ZERO,
                spec,
                hit: false,
            })
            .collect();
        let (a, _) = Farm::spawn(&bin, false).expect("farm");
        let first_dir = a.base.clone();
        let first = load(&a, &burst, false);
        a.stop().expect("drains");
        assert!(!first_dir.exists(), "a stopped farm leaves no state behind");
        let (b, _) = Farm::spawn(&bin, false).expect("farm");
        assert_ne!(b.base, first_dir);
        let second = load(&b, &burst, true);
        b.stop().expect("drains");
        // Every job misses on the second farm too (check() fails a hit
        // where a miss was planned), digests match their pins, and the
        // traced load serves the same bytes as the untraced one.
        let mut out = Outcome::default();
        check(&mut out, &burst, &first);
        check(&mut out, &burst, &second);
        assert_eq!(out.failed, 0, "{:?}", out.errors);
        for (x, y) in first.iter().zip(&second) {
            assert_eq!(x.document, y.document);
            assert!(y.queue_wait.is_some() && y.exec.is_some());
        }
        for r in &first {
            assert!(r.ack.expect("acked") >= r.sent_lag);
            assert!(r.result.expect("fetched") >= r.ack.expect("acked"));
        }
        assert!(first[19].sent_lag > first[0].sent_lag);
    }

    #[test]
    fn every_catalogue_spec_parses_and_has_a_pin() {
        for i in 0..CATALOGUE {
            assert!(spec::job_argv(&spec(i)).is_ok(), "{}", spec(i));
            assert!(pinned(i).is_some(), "spec {i} has no pin");
        }
        assert!(pinned(CATALOGUE).is_none());
    }
}
