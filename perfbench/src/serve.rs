//! The `serve-mix` workload: an open-loop, seeded schedule against a
//! `repro serve` daemon running in its own process.
//!
//! Set-up boots the release `repro` binary with `--journal` and
//! `--cache-dir` in a temporary directory and warms a handful of configs
//! into its cache. The schedule then mixes cache **hits** (resubmits of
//! warmed configs), **computed** jobs (`fig5` at `tiny` with a fresh seed)
//! and computed jobs carrying a generous deadline. Every job is timed from
//! when it was due to be sent. Bodies are checked after the schedule:
//! hits against their warmed bodies, computed jobs against an in-process
//! run of the same config.

use crate::report::{median, peak_rss_mib, percentile, Outcome};
use crate::trace::{Summary, Tracer};
use crate::{repo_root, Settings, SETUP_ROUNDS};
use foldic_bench::serve::BenchRunner;
use foldic_obs::json::Json;
use foldic_serve::client;
use foldic_serve::queue::StudyRunner;
use foldic_serve::JobSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Daemon worker threads.
const WORKERS: usize = 2;
/// Computed jobs per second the daemon sustained at the parent commit:
/// `fig5` at `tiny` with fresh seeds, 2 workers, 2 closed-loop clients,
/// on a 2-core machine (`repro loadgen --mix miss=1 --clients 2`).
const CAPACITY_JOBS_PER_S: f64 = 21.5;
/// Offered computed-job rate, as a share of that capacity.
const COMPUTE_SHARE: f64 = 0.35;
/// Offered cache-hit rate (at least 10 samples beyond p99 in a 15 s run).
const HIT_RATE: f64 = 70.0;
/// Share of computed jobs that carry a deadline.
const DEADLINE_SHARE: f64 = 0.15;
/// The deadline those jobs carry; generous, so it never trips.
const DEADLINE_SECS: f64 = 120.0;
/// Latency limits for goodput, per job kind.
const HIT_LIMIT_MS: f64 = 50.0;
const COMPUTE_LIMIT_MS: f64 = 1500.0;
/// Configs warmed into the cache at set-up.
const WARM_CONFIGS: u64 = 8;
/// Wait between sweeps over outstanding computed jobs.
const POLL_EVERY: Duration = Duration::from_millis(5);
const HTTP_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Hit,
    Compute,
    Deadline,
}

struct Planned {
    /// Seconds after the schedule starts.
    due: f64,
    kind: Kind,
    spec: JobSpec,
    /// Index into the warmed configs (hits only).
    warm: usize,
}

fn fig5(seed: u64) -> JobSpec {
    JobSpec {
        experiments: vec!["fig5".to_owned()],
        size: "tiny".to_owned(),
        seed: Some(seed),
        threads: 1,
        ..JobSpec::default()
    }
}

/// A seed in the range the job schema accepts (≤ 2^53).
fn job_seed(base: u64, n: u64) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(n) & ((1 << 52) - 1)
}

fn warm_specs(seed: u64) -> Vec<JobSpec> {
    (0..WARM_CONFIGS).map(|k| fig5(job_seed(seed, k))).collect()
}

/// The schedule: a constant-rate open loop. Computed jobs sit at evenly
/// spaced slots among the hits and every `1 / DEADLINE_SHARE`-th of them
/// carries a deadline, so the seed varies what is asked (fresh study
/// seeds, which warmed config a hit resubmits), not when. `salt`
/// separates the fresh seeds of two schedules in one run.
fn plan(seed: u64, seconds: f64, salt: u64) -> Vec<Planned> {
    let computed = (seconds * CAPACITY_JOBS_PER_S * COMPUTE_SHARE).round() as usize;
    let total = computed + (seconds * HIT_RATE).round() as usize;
    let deadline_every = (1.0 / DEADLINE_SHARE).round() as usize;
    let mut nth_computed = 0;
    let kinds: Vec<Kind> = (0..total)
        .map(|i| {
            // slot i is computed when it crosses the next multiple of
            // total / computed
            if (i + 1) * computed / total > i * computed / total {
                nth_computed += 1;
                if nth_computed % deadline_every == 0 {
                    Kind::Deadline
                } else {
                    Kind::Compute
                }
            } else {
                Kind::Hit
            }
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ salt);
    let fresh_base = seed ^ 0xF2E5_0000 ^ salt;
    let rate = total as f64 / seconds;
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let due = i as f64 / rate;
            if kind != Kind::Hit {
                let mut spec = fig5(job_seed(fresh_base, 1_000 + i as u64));
                if kind == Kind::Deadline {
                    spec.deadline_secs = Some(DEADLINE_SECS);
                }
                Planned {
                    due,
                    kind,
                    spec,
                    warm: 0,
                }
            } else {
                let warm = rng.gen_range(0..WARM_CONFIGS) as usize;
                Planned {
                    due,
                    kind: Kind::Hit,
                    spec: fig5(job_seed(seed, warm as u64)),
                    warm,
                }
            }
        })
        .collect()
}

// ---- the daemon -------------------------------------------------------------

/// Builds the release `repro` binary (a no-op when it is up to date) and
/// returns its path. Every workload calls it first, so the first run in a
/// fresh checkout builds everything, whichever workload it is.
pub fn build_repro() -> Result<PathBuf, String> {
    let root = repo_root();
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "foldic-bench", "--bin", "repro", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building repro failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("target"));
    Ok(target.join("release").join("repro"))
}

struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn boot(repro: &Path, dir: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let port_file = dir.join("port");
        let child = Command::new(repro)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(WORKERS.to_string())
            .arg("--port-file")
            .arg(&port_file)
            .arg("--journal")
            .arg(dir.join("journal.jsonl"))
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let started = Instant::now();
        loop {
            if let Some(addr) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|t| t.trim().parse().ok())
            {
                daemon.addr = addr;
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during boot ({status})"));
            }
            if started.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not come up within 30 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to drain and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = client::post(self.addr, "/shutdown", HTTP_TIMEOUT);
        let started = Instant::now();
        while started.elapsed() < Duration::from_secs(30) {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not drain within 30 s".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn submit(addr: SocketAddr, spec: &JobSpec) -> Result<(u16, Json), String> {
    let r = client::post_json(addr, "/jobs", &spec.to_json(), HTTP_TIMEOUT)
        .map_err(|e| format!("submit: {e}"))?;
    Ok((r.status, r.body_json().unwrap_or(Json::Null)))
}

fn job_id(body: &Json) -> Result<u64, String> {
    body.get("job")
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| "submit response has no job id".to_owned())
}

fn state(addr: SocketAddr, id: u64) -> Result<String, String> {
    let r = client::get(addr, &format!("/jobs/{id}"), HTTP_TIMEOUT)
        .map_err(|e| format!("status: {e}"))?;
    let body = r.body_json()?;
    body.get("state")
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("job {id}: status has no state"))
}

fn result_body(addr: SocketAddr, id: u64) -> Result<String, String> {
    let r = client::get(addr, &format!("/jobs/{id}/result"), HTTP_TIMEOUT)
        .map_err(|e| format!("result: {e}"))?;
    if r.status != 200 {
        return Err(format!("job {id}: result returned {}", r.status));
    }
    Ok(r.body_text()?.to_owned())
}

/// Submits the warm configs, one batch of `WORKERS` at a time so the
/// daemon's queue high-water mark is left to the schedule, and returns
/// their bodies.
fn warm(d: &Daemon, specs: &[JobSpec]) -> Result<Vec<String>, String> {
    let mut bodies = Vec::with_capacity(specs.len());
    for batch in specs.chunks(WORKERS) {
        let ids = batch
            .iter()
            .map(|spec| job_id(&submit(d.addr, spec)?.1))
            .collect::<Result<Vec<_>, _>>()?;
        for id in ids {
            let started = Instant::now();
            loop {
                match state(d.addr, id)?.as_str() {
                    "done" => break,
                    "queued" | "running" if started.elapsed() < Duration::from_secs(60) => {
                        std::thread::sleep(POLL_EVERY)
                    }
                    other => return Err(format!("warm job {id} ended `{other}`")),
                }
            }
            bodies.push(result_body(d.addr, id)?);
        }
    }
    Ok(bodies)
}

fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let r = client::get(addr, "/metrics", HTTP_TIMEOUT).map_err(|e| format!("metrics: {e}"))?;
    foldic_obs::expo::parse_exposition(r.body_text()?)
}

/// Sum of every series of one family member (`name` or `name{...}`).
fn series(m: &BTreeMap<String, f64>, name: &str) -> f64 {
    m.iter()
        .filter(|(k, _)| *k == name || k.starts_with(&format!("{name}{{")))
        .map(|(_, v)| v)
        .sum()
}

// ---- the load generator -----------------------------------------------------

/// What happened to one planned job.
#[derive(Default)]
struct Record {
    /// Due → answer, in ms; `None` when the job failed.
    latency_ms: Option<f64>,
    /// How late the generator sent it, in ms.
    lag_ms: f64,
    /// Submit round trip (computed jobs).
    submit_ms: Option<f64>,
    body: Option<String>,
    error: Option<String>,
    /// Status polls that found the job not yet done.
    wasted_polls: u64,
}

/// Drives the schedule from two threads: the sender submits on schedule
/// (and fetches hit bodies inline); the poller follows computed jobs to
/// completion. Returns one record per planned job and the schedule's wall
/// time.
fn drive(addr: SocketAddr, plan: &[Planned], tracer: &Tracer) -> (Vec<Record>, f64) {
    let mut records: Vec<Record> = plan.iter().map(|_| Record::default()).collect();
    let (tx, rx) = mpsc::channel::<(usize, u64)>();
    let start = Instant::now();
    let since = move |t: Instant| t.duration_since(start).as_secs_f64();
    let (sent, polled) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut out: Vec<(usize, Record)> = Vec::new();
            for (i, job) in plan.iter().enumerate() {
                let due = start + Duration::from_secs_f64(job.due);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent_at = Instant::now();
                let mut r = Record {
                    lag_ms: (since(sent_at) - job.due) * 1e3,
                    ..Record::default()
                };
                let answer = tracer.span("serve.submit", || submit(addr, &job.spec));
                match (job.kind, answer) {
                    (Kind::Hit, Ok((200, body))) => {
                        let got = job_id(&body)
                            .and_then(|id| tracer.span("serve.result", || result_body(addr, id)));
                        match got {
                            Ok(text) => {
                                r.latency_ms = Some((since(Instant::now()) - job.due) * 1e3);
                                r.body = Some(text);
                            }
                            Err(e) => r.error = Some(e),
                        }
                        if body.get("cache").and_then(Json::as_str) != Some("hit") {
                            r.error = Some("planned hit was not answered from the cache".into());
                        }
                    }
                    (Kind::Compute | Kind::Deadline, Ok((202, body))) => {
                        r.submit_ms = Some(sent_at.elapsed().as_secs_f64() * 1e3);
                        match job_id(&body) {
                            Ok(id) => tx.send((i, id)).expect("poller outlives the sender"),
                            Err(e) => r.error = Some(e),
                        }
                    }
                    (_, Ok((status, body))) => {
                        r.error = Some(format!("submit returned {status}: {}", body.to_compact()))
                    }
                    (_, Err(e)) => r.error = Some(e),
                }
                out.push((i, r));
            }
            drop(tx);
            out
        });
        let poller = scope.spawn(move || {
            let mut out: Vec<(usize, Record)> = Vec::new();
            let mut open: Vec<(usize, u64, u64)> = Vec::new(); // (job, id, wasted polls)
            let mut senders_done = false;
            loop {
                if open.is_empty() && !senders_done {
                    match rx.recv() {
                        Ok((i, id)) => open.push((i, id, 0)),
                        Err(_) => senders_done = true,
                    }
                }
                loop {
                    match rx.try_recv() {
                        Ok((i, id)) => open.push((i, id, 0)),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            senders_done = true;
                            break;
                        }
                    }
                }
                if open.is_empty() && senders_done {
                    return out;
                }
                let mut still = Vec::new();
                for (i, id, wasted) in open.drain(..) {
                    let mut r = Record {
                        wasted_polls: wasted,
                        ..Record::default()
                    };
                    match tracer.span("serve.poll", || state(addr, id)) {
                        Ok(s) if s == "done" => {
                            match tracer.span("serve.result", || result_body(addr, id)) {
                                Ok(text) => {
                                    r.latency_ms =
                                        Some((since(Instant::now()) - plan[i].due) * 1e3);
                                    r.body = Some(text);
                                }
                                Err(e) => r.error = Some(e),
                            }
                        }
                        Ok(s)
                            if (s == "queued" || s == "running")
                                && since(Instant::now()) < plan[i].due + 60.0 =>
                        {
                            still.push((i, id, wasted + 1));
                            continue;
                        }
                        Ok(s) => r.error = Some(format!("job {id} ended `{s}`")),
                        Err(e) => r.error = Some(e),
                    }
                    out.push((i, r));
                }
                open = still;
                if !open.is_empty() {
                    std::thread::sleep(POLL_EVERY);
                }
            }
        });
        (
            sender.join().expect("sender thread panicked"),
            poller.join().expect("poller thread panicked"),
        )
    });
    let wall = start.elapsed().as_secs_f64();
    for (i, r) in sent {
        records[i] = r;
    }
    for (i, r) in polled {
        let sent = &mut records[i];
        sent.latency_ms = r.latency_ms;
        sent.body = r.body;
        sent.wasted_polls = r.wasted_polls;
        if r.error.is_some() {
            sent.error = r.error;
        }
    }
    (records, wall)
}

/// One schedule's measurements.
struct Schedule {
    plan: Vec<Planned>,
    records: Vec<Record>,
    wall: f64,
    before: BTreeMap<String, f64>,
    after: BTreeMap<String, f64>,
}

impl Schedule {
    fn run(d: &Daemon, plan: Vec<Planned>, tracer: &Tracer) -> Result<Self, String> {
        let before = scrape(d.addr)?;
        let (records, wall) = drive(d.addr, &plan, tracer);
        let after = scrape(d.addr)?;
        Ok(Self {
            plan,
            records,
            wall,
            before,
            after,
        })
    }

    fn delta(&self, name: &str) -> f64 {
        series(&self.after, name) - series(&self.before, name)
    }

    /// Latencies of one job class; a failed job counts as missing the
    /// limit.
    fn latencies(&self, kinds: &[Kind], limit: f64) -> Vec<f64> {
        self.plan
            .iter()
            .zip(&self.records)
            .filter(|(p, _)| kinds.contains(&p.kind))
            .map(|(_, r)| match (r.latency_ms, &r.error) {
                (Some(ms), None) => ms,
                (ms, _) => ms.unwrap_or(0.0).max(limit * 2.0),
            })
            .collect()
    }

    fn mean_latency(&self) -> f64 {
        let all = self.latencies(&[Kind::Hit, Kind::Compute, Kind::Deadline], 0.0);
        all.iter().sum::<f64>() / all.len().max(1) as f64
    }
}

const COMPUTED: [Kind; 2] = [Kind::Compute, Kind::Deadline];

/// Checks every body and records end-to-end metrics; returns failures.
fn check(sched: &Schedule, warmed: &[String], out: &mut Outcome) {
    out.attempted += sched.plan.len() as u64;
    let mut to_rerun = Vec::new();
    for (p, r) in sched.plan.iter().zip(&sched.records) {
        if let Some(e) = &r.error {
            out.fail(format!("{:?} job: {e}", p.kind));
            continue;
        }
        match (p.kind, &r.body) {
            (Kind::Hit, Some(body)) if *body == warmed[p.warm] => {}
            (Kind::Hit, _) => out.fail("hit body differs from its warmed body".to_owned()),
            (_, Some(body)) => to_rerun.push((p.spec.clone(), body.clone())),
            (_, None) => out.fail("computed job has no body".to_owned()),
        }
    }
    // in-process runs of the same configs; deadline jobs install a
    // process-wide deadline, so they run one at a time after the rest
    let (plain, bounded): (Vec<_>, Vec<_>) = to_rerun
        .into_iter()
        .partition(|(spec, _)| spec.deadline_secs.is_none());
    let mut mismatches: Vec<bool> = foldic_exec::par_map(WORKERS, plain, |_, (spec, body)| {
        BenchRunner.run(&spec).as_deref() != Ok(body.as_str())
    });
    mismatches.extend(
        bounded
            .into_iter()
            .map(|(spec, body)| BenchRunner.run(&spec).as_deref() != Ok(body.as_str())),
    );
    for _ in mismatches.into_iter().filter(|&m| m) {
        out.fail("computed body differs from an in-process run of its config".to_owned());
    }
}

fn e2e_metrics(sched: &Schedule, out: &mut Outcome) {
    let hits = sched.latencies(&[Kind::Hit], HIT_LIMIT_MS);
    let computed = sched.latencies(&COMPUTED, COMPUTE_LIMIT_MS);
    out.e2e("latency_ms", percentile(&computed, 0.5), computed.len());
    let good = hits.iter().filter(|&&ms| ms <= HIT_LIMIT_MS).count()
        + computed
            .iter()
            .filter(|&&ms| ms <= COMPUTE_LIMIT_MS)
            .count();
    out.e2e(
        "goodput_jobs_per_s",
        good as f64 / sched.wall,
        sched.plan.len(),
    );
}

fn layer_metrics(sched: &Schedule, sum: &Summary, untraced_mean: f64, out: &mut Outcome) {
    // hit latencies and the compute tail swing with host load by more
    // than any end-to-end bound allows, so they are reported here, without
    // one
    let hits = sched.latencies(&[Kind::Hit], HIT_LIMIT_MS);
    if !hits.is_empty() {
        out.layer("hit_p50_ms", percentile(&hits, 0.5));
        out.layer("hit_p99_ms", percentile(&hits, 0.99));
    }
    let computed = sched.latencies(&COMPUTED, COMPUTE_LIMIT_MS);
    if !computed.is_empty() {
        out.layer("compute_p90_ms", percentile(&computed, 0.9));
    }
    let submits: Vec<f64> = sched.records.iter().filter_map(|r| r.submit_ms).collect();
    if !submits.is_empty() {
        out.layer("serve.submit_p50_ms", median(&submits));
    }
    let ratio = |sum: f64, count: f64| if count > 0.0 { sum / count } else { 0.0 };
    out.layer(
        "serve.wait_ms_mean",
        ratio(
            sched.delta("foldic_serve_job_wait_ms_sum"),
            sched.delta("foldic_serve_job_wait_ms_count"),
        ),
    );
    out.layer(
        "serve.run_ms_mean",
        ratio(
            sched.delta("foldic_serve_job_run_ms_sum"),
            sched.delta("foldic_serve_job_run_ms_count"),
        ),
    );
    out.layer(
        "serve.queue_high_water",
        series(&sched.after, "foldic_serve_queue_high_water"),
    );
    let planned_hits = sched.plan.iter().filter(|p| p.kind == Kind::Hit).count() as f64;
    out.layer(
        "serve.cache_hit_ratio",
        ratio(sched.delta("foldic_serve_cache_hits_total"), planned_hits),
    );
    out.layer(
        "serve.cache_insertions",
        sched.delta("foldic_serve_cache_insertions_total"),
    );
    let computed: Vec<&Record> = sched
        .plan
        .iter()
        .zip(&sched.records)
        .filter(|(p, _)| COMPUTED.contains(&p.kind))
        .map(|(_, r)| r)
        .collect();
    let wasted: u64 = computed.iter().map(|r| r.wasted_polls).sum();
    out.layer(
        "serve.requests_per_job",
        ratio(wasted as f64, computed.len() as f64),
    );
    out.layer(
        "serve.rejected",
        sched.delta("foldic_serve_jobs_rejected_total"),
    );
    out.layer("serve.shed", sched.delta("foldic_serve_jobs_shed_total"));
    let lags: Vec<f64> = sched.records.iter().map(|r| r.lag_ms).collect();
    out.layer("loadgen.lag_p99_ms", percentile(&lags, 0.99));
    out.layer(
        "exec.utilization",
        sched.delta("foldic_serve_job_run_ms_sum") / 1e3 / (sched.wall * WORKERS as f64),
    );
    let slowest = computed
        .iter()
        .filter_map(|r| r.latency_ms)
        .fold(0.0, f64::max);
    out.layer("exec.max_job_s", slowest / 1e3);
    out.layer(
        "trace.overhead_frac",
        (sched.mean_latency() - untraced_mean) / untraced_mean,
    );
    out.info("trace_spans", Json::Num(sum.spans.len() as f64));
}

pub fn serve_mix(s: &Settings, repro: &Path, out: &mut Outcome) -> Result<(), String> {
    let tmp = repo_root()
        .join(".bench_tmp")
        .join(format!("serve-mix-{}", std::process::id()));
    let result = run(s, repro, &tmp, out);
    let _ = std::fs::remove_dir_all(&tmp);
    if let Some(parent) = tmp.parent() {
        let _ = std::fs::remove_dir(parent); // only when no other run uses it
    }
    result
}

fn run(s: &Settings, repro: &Path, tmp: &Path, out: &mut Outcome) -> Result<(), String> {
    out.info("workers", Json::Num(WORKERS as f64));
    out.info("offered_hits_per_s", Json::Num(HIT_RATE));
    out.info(
        "offered_computed_per_s",
        Json::Num(CAPACITY_JOBS_PER_S * COMPUTE_SHARE),
    );
    out.info("hit_limit_ms", Json::Num(HIT_LIMIT_MS));
    out.info("compute_limit_ms", Json::Num(COMPUTE_LIMIT_MS));
    let warm_set = warm_specs(s.seed);
    // set-up: boot + warm, five times; the last daemon serves the load
    let mut times = Vec::new();
    let mut booted = None;
    for round in 0..SETUP_ROUNDS {
        if let Some((daemon, _)) = booted.take() {
            Daemon::shutdown(daemon)?;
        }
        let t = Instant::now();
        let daemon = Daemon::boot(repro, &tmp.join(format!("boot{round}")))?;
        let bodies = warm(&daemon, &warm_set)?;
        times.push(t.elapsed().as_secs_f64());
        booted = Some((daemon, bodies));
    }
    let (daemon, warmed) = booted.expect("at least one boot ran");
    out.info(
        "setup_walls_s",
        Json::Arr(times.iter().map(|&w| Json::Num(w)).collect()),
    );
    out.e2e("setup_s", median(&times), times.len());

    let schedule = plan(s.seed, s.seconds, 0);
    if schedule.is_empty() {
        return Err(format!("a {} s schedule holds no jobs", s.seconds));
    }
    let off = Tracer::new(false);
    let sched = Schedule::run(&daemon, schedule, &off)?;
    let traced = if s.traced {
        let tracer = Tracer::new(true);
        let sched = Schedule::run(&daemon, plan(s.seed, s.seconds, 0x7ACE), &tracer)?;
        let (spans, counts) = tracer.take();
        Some((sched, Summary { spans, counts }))
    } else {
        None
    };
    let rss = peak_rss_mib(&daemon.pid());
    daemon.shutdown()?;

    check(&sched, &warmed, out);
    e2e_metrics(&sched, out);
    out.e2e("peak_rss_mib", rss.unwrap_or(f64::NAN), 1);
    if let Some((traced, sum)) = traced {
        check(&traced, &warmed, out);
        layer_metrics(&traced, &sum, sched.mean_latency(), out);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_seeded_and_fresh_seeds_are_unique() {
        let a = plan(7, 2.0, 0);
        let b = plan(7, 2.0, 0);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.spec == y.spec && x.due == y.due));
        let mut fresh: Vec<u64> = a
            .iter()
            .filter(|p| p.kind != Kind::Hit)
            .map(|p| p.spec.seed.unwrap())
            .collect();
        let n = fresh.len();
        fresh.sort_unstable();
        fresh.dedup();
        assert_eq!(fresh.len(), n);
        assert!(n > 0 && n < a.len());
        let warm: Vec<u64> = warm_specs(7).iter().map(|s| s.seed.unwrap()).collect();
        assert!(fresh.iter().all(|f| !warm.contains(f)));
    }
}
