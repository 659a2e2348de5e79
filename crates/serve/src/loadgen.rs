//! Seeded multi-client load generator and its `foldic-serve-bench/1`
//! report.
//!
//! The generator replays a deterministic mix of job kinds against a
//! running daemon:
//!
//! * **hit** — resubmission of a config warmed into the cache before
//!   measurement starts; must be answered from the cache;
//! * **miss** — a config with a fresh seed override, never seen before;
//!   must compute;
//! * **cancel** — a fresh config submitted and cancelled immediately;
//!   whether the cancel lands before a worker picks the job up is a race
//!   the report records rather than asserts;
//! * **deadline** — a fresh config with a generous wall-clock budget,
//!   exercising the deadline path end to end.
//!
//! The *plan* (which job index is which kind, which seed it carries) is a
//! pure function of the generator seed, so two runs against equivalent
//! daemons replay byte-identical traffic. Latencies and throughput are of
//! course wall-clock observations; the report separates the planned mix
//! from the observed outcome so gates can check invariants (no errors, no
//! failed jobs, every planned hit actually hit) without asserting on
//! timing.
//!
//! Since `foldic-serve-bench/2` the report also embeds the **server
//! side**: `/metrics` is scraped right after warmup and again after
//! measurement, the final exposition text is stored verbatim, and the
//! counter deltas between the two scrapes ride along — so the gate can
//! check that the daemon's own accounting (terminal-state counts, cache
//! hits/misses, submit statuses) agrees *exactly* with what the clients
//! observed.

use crate::client;
use crate::job::JobSpec;
use crate::telemetry;
use foldic_obs::json::Json;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Schema identifier of the load report.
pub const REPORT_SCHEMA: &str = "foldic-serve-bench/2";

/// Relative weights of the four job kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixWeights {
    /// Cache-hit resubmissions.
    pub hit: f64,
    /// Fresh-config computations.
    pub miss: f64,
    /// Submit-then-cancel jobs.
    pub cancel: f64,
    /// Deadline-bounded jobs.
    pub deadline: f64,
}

impl Default for MixWeights {
    fn default() -> Self {
        Self {
            hit: 60.0,
            miss: 20.0,
            cancel: 10.0,
            deadline: 10.0,
        }
    }
}

impl MixWeights {
    /// Parses `hit=60,miss=20,cancel=10,deadline=10` (unlisted kinds
    /// default to weight 0; at least one weight must be positive).
    ///
    /// # Errors
    ///
    /// A message for malformed entries, unknown kinds or an all-zero mix.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut mix = Self {
            hit: 0.0,
            miss: 0.0,
            cancel: 0.0,
            deadline: 0.0,
        };
        for part in text.split(',') {
            let (kind, weight) = part
                .split_once('=')
                .ok_or_else(|| format!("bad mix entry `{part}` (want kind=weight)"))?;
            let weight: f64 = weight
                .parse()
                .map_err(|_| format!("bad mix weight `{weight}`"))?;
            if !(weight.is_finite() && weight >= 0.0) {
                return Err(format!("mix weight must be >= 0, got {weight}"));
            }
            match kind.trim() {
                "hit" => mix.hit = weight,
                "miss" => mix.miss = weight,
                "cancel" => mix.cancel = weight,
                "deadline" => mix.deadline = weight,
                other => return Err(format!("unknown mix kind `{other}`")),
            }
        }
        if mix.hit + mix.miss + mix.cancel + mix.deadline <= 0.0 {
            return Err("mix weights sum to zero".to_owned());
        }
        Ok(mix)
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address.
    pub addr: SocketAddr,
    /// Measured jobs to submit (warmup submissions are extra).
    pub jobs: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Generator seed; the whole traffic plan derives from it.
    pub seed: u64,
    /// Job-kind mix.
    pub mix: MixWeights,
    /// Experiments every job runs.
    pub experiments: Vec<String>,
    /// Design size every job uses.
    pub size: String,
    /// Wall-clock budget given to deadline-kind jobs.
    pub deadline_secs: f64,
    /// Per-request socket timeout.
    pub timeout: Duration,
    /// How long to poll one job for a terminal state before counting it
    /// as an error.
    pub poll_timeout: Duration,
}

impl LoadConfig {
    /// Defaults tuned for the tiny-design `table1` study.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            jobs: 24,
            clients: 4,
            seed: 0xF01D_1C5E,
            mix: MixWeights::default(),
            experiments: vec!["table1".to_owned()],
            size: "tiny".to_owned(),
            deadline_secs: 30.0,
            timeout: Duration::from_secs(10),
            poll_timeout: Duration::from_secs(120),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Cancel,
    Deadline,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Miss => "miss",
            Kind::Cancel => "cancel",
            Kind::Deadline => "deadline",
        }
    }
}

/// One planned submission.
#[derive(Debug, Clone)]
struct Planned {
    kind: Kind,
    spec: JobSpec,
}

/// Distinct warm configs hit-kind jobs rotate through.
const WARM_POOL: usize = 4;

/// Builds the deterministic traffic plan: the warm pool plus one planned
/// submission per measured job.
fn plan(cfg: &LoadConfig) -> (Vec<JobSpec>, Vec<Planned>) {
    let base = JobSpec {
        experiments: cfg.experiments.clone(),
        size: cfg.size.clone(),
        seed: None,
        threads: 1,
        deadline_secs: None,
        design_cells: None,
    };
    // Seeds travel as JSON numbers (f64), so derived seeds are masked to
    // the 53-bit exactly-representable range the job schema accepts.
    let json_safe = |seed: u64| seed & ((1u64 << 53) - 1);
    let pool: Vec<JobSpec> = (0..WARM_POOL)
        .map(|i| {
            let mut spec = base.clone();
            spec.seed = Some(json_safe(rand::derive_seed(&[
                "loadgen-pool",
                &format!("{:#x}", cfg.seed),
                &i.to_string(),
            ])));
            spec
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let total = cfg.mix.hit + cfg.mix.miss + cfg.mix.cancel + cfg.mix.deadline;
    let planned = (0..cfg.jobs)
        .map(|i| {
            let roll = rng.gen_range(0.0..total);
            let kind = if roll < cfg.mix.hit {
                Kind::Hit
            } else if roll < cfg.mix.hit + cfg.mix.miss {
                Kind::Miss
            } else if roll < cfg.mix.hit + cfg.mix.miss + cfg.mix.cancel {
                Kind::Cancel
            } else {
                Kind::Deadline
            };
            let mut spec = base.clone();
            match kind {
                Kind::Hit => {
                    spec.seed = pool[rng.gen_range(0..pool.len())].seed;
                }
                Kind::Miss | Kind::Cancel | Kind::Deadline => {
                    // A seed no warm config and no other job carries, so
                    // the first submission is always a genuine miss.
                    spec.seed = Some(json_safe(rand::derive_seed(&[
                        "loadgen-fresh",
                        &format!("{:#x}", cfg.seed),
                        &i.to_string(),
                    ])));
                    if kind == Kind::Deadline {
                        spec.deadline_secs = Some(cfg.deadline_secs);
                    }
                }
            }
            Planned { kind, spec }
        })
        .collect();
    (pool, planned)
}

#[derive(Debug, Default)]
struct Outcome {
    latencies_ms: Vec<f64>,
    hits: u64,
    done: u64,
    cancelled: u64,
    failed: u64,
    rejected: u64,
    errors: Vec<String>,
    bytes: u64,
}

/// Drives one planned job to a terminal state, recording the outcome.
fn drive(cfg: &LoadConfig, job: &Planned, out: &Mutex<Outcome>) {
    let record_error = |msg: String| {
        let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
        out.errors.push(format!("{}: {msg}", job.kind.as_str()));
    };
    let started = Instant::now();
    let submit = match client::post_json(cfg.addr, "/jobs", &job.spec.to_json(), cfg.timeout) {
        Ok(response) => response,
        Err(e) => return record_error(format!("submit failed: {e}")),
    };
    match submit.status {
        200 => {
            // answered from the cache
            let latency = started.elapsed().as_secs_f64() * 1e3;
            let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
            out.hits += 1;
            out.done += 1;
            out.latencies_ms.push(latency);
            return;
        }
        202 => {}
        429 => {
            let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
            out.rejected += 1;
            return;
        }
        status => {
            let body = submit.body_text().unwrap_or("<binary>").to_owned();
            return record_error(format!("submit returned {status}: {body}"));
        }
    }
    let id = match submit
        .body_json()
        .ok()
        .and_then(|doc| doc.get("job").and_then(Json::as_f64))
    {
        Some(id) => id as u64,
        None => return record_error("202 without a job id".to_owned()),
    };

    if job.kind == Kind::Cancel {
        let path = format!("/jobs/{id}/cancel");
        if let Err(e) = client::post(cfg.addr, &path, cfg.timeout) {
            return record_error(format!("cancel failed: {e}"));
        }
    }

    // Poll to a terminal state.
    let path = format!("/jobs/{id}");
    let deadline = started + cfg.poll_timeout;
    loop {
        let status = match client::get(cfg.addr, &path, cfg.timeout) {
            Ok(response) => response,
            Err(e) => return record_error(format!("status poll failed: {e}")),
        };
        let doc = match status.body_json() {
            Ok(doc) => doc,
            Err(e) => return record_error(e),
        };
        let state = doc
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned();
        match state.as_str() {
            "done" => {
                let latency = started.elapsed().as_secs_f64() * 1e3;
                let result_path = format!("/jobs/{id}/result");
                let body_len = match client::get(cfg.addr, &result_path, cfg.timeout) {
                    Ok(r) if r.status == 200 => r.body.len() as u64,
                    Ok(r) => return record_error(format!("result returned {}", r.status)),
                    Err(e) => return record_error(format!("result fetch failed: {e}")),
                };
                let hit = doc.get("cache").and_then(Json::as_str) == Some("hit");
                let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
                out.done += 1;
                if hit {
                    out.hits += 1;
                }
                out.bytes += body_len;
                out.latencies_ms.push(latency);
                return;
            }
            "cancelled" => {
                let latency = started.elapsed().as_secs_f64() * 1e3;
                let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
                out.cancelled += 1;
                out.latencies_ms.push(latency);
                return;
            }
            "failed" => {
                let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
                out.failed += 1;
                return;
            }
            _ => {}
        }
        if Instant::now() >= deadline {
            return record_error(format!("job {id} still `{state}` after poll timeout"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The daemon's own accounting of the measured window, from `/metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSide {
    /// Counter-series deltas (final minus post-warmup baseline) for
    /// every `*_total` series present in the final scrape.
    pub deltas: BTreeMap<String, u64>,
    /// The final `/metrics` exposition body, verbatim.
    pub scrape: String,
}

/// The measured result of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Measured jobs submitted.
    pub jobs: usize,
    /// Client threads used.
    pub clients: usize,
    /// Generator seed, hex.
    pub seed: String,
    /// Planned jobs per kind.
    pub planned: BTreeMap<String, u64>,
    /// Cache hits observed.
    pub hits: u64,
    /// Jobs that finished `done`.
    pub done: u64,
    /// Jobs that finished `cancelled`.
    pub cancelled: u64,
    /// Jobs that finished `failed`.
    pub failed: u64,
    /// Submissions rejected with 429.
    pub rejected: u64,
    /// Client-side errors (transport failures, unexpected statuses).
    pub errors: Vec<String>,
    /// Result bytes fetched.
    pub bytes: u64,
    /// Hit ratio over terminal jobs.
    pub hit_ratio: f64,
    /// Latency percentiles over terminal jobs, milliseconds.
    pub latency_ms: BTreeMap<String, f64>,
    /// Terminal jobs per wall-clock second.
    pub throughput_jps: f64,
    /// Measurement wall time, seconds.
    pub wall_s: f64,
    /// Server-side counter deltas and final exposition (absent in
    /// reports from tooling that never scraped `/metrics`).
    pub server: Option<ServerSide>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

impl LoadReport {
    /// Serializes the report to its schema.
    pub fn to_json(&self) -> Json {
        let counts = |m: &BTreeMap<String, u64>| {
            Json::Obj(
                m.iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect(),
            )
        };
        let mut doc = Json::obj([
            ("schema".to_owned(), Json::Str(REPORT_SCHEMA.to_owned())),
            ("jobs".to_owned(), Json::Num(self.jobs as f64)),
            ("clients".to_owned(), Json::Num(self.clients as f64)),
            ("seed".to_owned(), Json::Str(self.seed.clone())),
            ("planned".to_owned(), counts(&self.planned)),
            (
                "observed".to_owned(),
                Json::obj([
                    ("hits".to_owned(), Json::Num(self.hits as f64)),
                    ("done".to_owned(), Json::Num(self.done as f64)),
                    ("cancelled".to_owned(), Json::Num(self.cancelled as f64)),
                    ("failed".to_owned(), Json::Num(self.failed as f64)),
                    ("rejected".to_owned(), Json::Num(self.rejected as f64)),
                    ("errors".to_owned(), Json::Num(self.errors.len() as f64)),
                ]),
            ),
            (
                "error_samples".to_owned(),
                Json::Arr(
                    self.errors
                        .iter()
                        .take(8)
                        .map(|e| Json::Str(e.clone()))
                        .collect(),
                ),
            ),
            ("bytes".to_owned(), Json::Num(self.bytes as f64)),
            ("hit_ratio".to_owned(), Json::Num(self.hit_ratio)),
            (
                "latency_ms".to_owned(),
                Json::Obj(
                    self.latency_ms
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("throughput_jps".to_owned(), Json::Num(self.throughput_jps)),
            ("wall_s".to_owned(), Json::Num(self.wall_s)),
        ]);
        if let Some(server) = &self.server {
            if let Some(obj) = doc.as_obj_mut() {
                obj.insert(
                    "server".to_owned(),
                    Json::obj([
                        (
                            "deltas".to_owned(),
                            Json::Obj(
                                server
                                    .deltas
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                                    .collect(),
                            ),
                        ),
                        ("scrape".to_owned(), Json::Str(server.scrape.clone())),
                    ]),
                );
            }
        }
        doc
    }

    /// Parses and schema-checks a serialized report.
    ///
    /// # Errors
    ///
    /// A message when the text is not JSON, carries the wrong schema, or
    /// is missing required fields.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("report is not JSON: {e}"))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(REPORT_SCHEMA) => {}
            Some(other) => return Err(format!("unexpected schema `{other}`")),
            None => return Err("report has no schema".to_owned()),
        }
        let num = |name: &str| -> Result<f64, String> {
            doc.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("report missing `{name}`"))
        };
        let count_map = |name: &str| -> Result<BTreeMap<String, u64>, String> {
            let obj = doc
                .get(name)
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("report missing `{name}`"))?;
            Ok(obj
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v as u64)))
                .collect())
        };
        let observed = count_map("observed")?;
        let field = |name: &str| -> u64 { observed.get(name).copied().unwrap_or(0) };
        Ok(Self {
            jobs: num("jobs")? as usize,
            clients: num("clients")? as usize,
            seed: doc
                .get("seed")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
            planned: count_map("planned")?,
            hits: field("hits"),
            done: field("done"),
            cancelled: field("cancelled"),
            failed: field("failed"),
            rejected: field("rejected"),
            errors: doc
                .get("error_samples")
                .and_then(Json::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(|e| e.as_str().map(str::to_owned))
                        .collect()
                })
                .unwrap_or_default(),
            bytes: num("bytes")? as u64,
            hit_ratio: num("hit_ratio")?,
            latency_ms: doc
                .get("latency_ms")
                .and_then(Json::as_obj)
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                        .collect()
                })
                .unwrap_or_default(),
            throughput_jps: num("throughput_jps")?,
            wall_s: num("wall_s")?,
            server: doc.get("server").and_then(|server| {
                let deltas = server
                    .get("deltas")
                    .and_then(Json::as_obj)?
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v as u64)))
                    .collect();
                let scrape = server.get("scrape").and_then(Json::as_str)?.to_owned();
                Some(ServerSide { deltas, scrape })
            }),
        })
    }

    /// The offline CI gate: every job reached a terminal state without
    /// client errors or failures, no submission was rejected (the gate
    /// run sizes its queue to fit), and every planned hit actually hit.
    /// Deliberately no wall-time thresholds — CI runs on whatever core
    /// count it gets.
    ///
    /// # Errors
    ///
    /// One message per violated invariant, joined with `; `.
    pub fn gate(&self) -> Result<(), String> {
        let mut problems = Vec::new();
        if !self.errors.is_empty() {
            problems.push(format!(
                "{} client error(s), first: {}",
                self.errors.len(),
                self.errors[0]
            ));
        }
        if self.failed > 0 {
            problems.push(format!("{} job(s) failed", self.failed));
        }
        if self.rejected > 0 {
            problems.push(format!("{} submission(s) rejected", self.rejected));
        }
        let planned_hits = self.planned.get("hit").copied().unwrap_or(0);
        if self.hits < planned_hits {
            problems.push(format!(
                "only {} cache hit(s), planned {planned_hits}",
                self.hits
            ));
        }
        let terminal = self.done + self.cancelled + self.failed;
        if terminal + self.rejected != self.jobs as u64 {
            problems.push(format!(
                "{terminal} terminal + {} rejected != {} submitted",
                self.rejected, self.jobs
            ));
        }
        // Server-side cross-check: the daemon's own counters over the
        // measured window must agree exactly with the client view.
        if let Some(server) = &self.server {
            let delta = |series: &str| server.deltas.get(series).copied().unwrap_or(0);
            let checks: [(&str, String, u64); 5] = [
                ("done jobs", telemetry::jobs_state_series("done"), self.done),
                (
                    "cancelled jobs",
                    telemetry::jobs_state_series("cancelled"),
                    self.cancelled,
                ),
                (
                    "failed jobs",
                    telemetry::jobs_state_series("failed"),
                    self.failed,
                ),
                (
                    "rejections",
                    telemetry::SERIES_JOBS_REJECTED.to_owned(),
                    self.rejected,
                ),
                (
                    "cache hits",
                    telemetry::SERIES_CACHE_HITS.to_owned(),
                    self.hits,
                ),
            ];
            for (what, series, client_count) in checks {
                let server_count = delta(&series);
                if server_count != client_count {
                    problems.push(format!(
                        "server counted {server_count} {what}, clients saw {client_count}"
                    ));
                }
            }
            if self.rejected == 0 {
                // With no rejections the submit-status split and the
                // cache-miss count are exact functions of the plan.
                let planned_deadline = self.planned.get("deadline").copied().unwrap_or(0);
                let expected_misses = (self.jobs as u64) - self.hits - planned_deadline;
                let misses = delta(telemetry::SERIES_CACHE_MISSES);
                if misses != expected_misses {
                    problems.push(format!(
                        "server counted {misses} cache misses, expected {expected_misses}"
                    ));
                }
                let submits_200 = delta(&telemetry::requests_series("submit", "POST", 200));
                if submits_200 != self.hits {
                    problems.push(format!(
                        "server counted {submits_200} hit submits, clients saw {}",
                        self.hits
                    ));
                }
                let submits_202 = delta(&telemetry::requests_series("submit", "POST", 202));
                let expected_202 = (self.jobs as u64) - self.hits;
                if submits_202 != expected_202 {
                    problems.push(format!(
                        "server counted {submits_202} queued submits, expected {expected_202}"
                    ));
                }
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

/// Scrapes `/metrics`, returning the raw exposition text and its parsed
/// series map.
fn scrape_metrics(cfg: &LoadConfig) -> Result<(String, BTreeMap<String, f64>), String> {
    let response = client::get(cfg.addr, "/metrics", cfg.timeout)
        .map_err(|e| format!("metrics scrape failed: {e}"))?;
    if response.status != 200 {
        return Err(format!("metrics scrape returned {}", response.status));
    }
    let text = response
        .body_text()
        .map_err(|e| format!("metrics body is not text: {e}"))?
        .to_owned();
    let series = foldic_obs::expo::parse_exposition(&text)
        .map_err(|e| format!("metrics scrape does not parse: {e}"))?;
    Ok((text, series))
}

/// Counter deltas between two scrapes: every `*_total` series present in
/// `after`, minus its `before` value (0 when newly appeared).
fn counter_deltas(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .filter(|(series, _)| foldic_obs::expo::family_of(series).ends_with("_total"))
        .map(|(series, &value)| {
            let base = before.get(series).copied().unwrap_or(0.0);
            (series.clone(), (value - base).max(0.0) as u64)
        })
        .collect()
}

/// Runs the load: warms the pool, replays the plan from `clients`
/// threads, aggregates the report.
///
/// # Errors
///
/// A message when warmup cannot complete (daemon unreachable, warm jobs
/// not finishing) or `/metrics` cannot be scraped. Measurement-phase
/// problems are *recorded* in the report instead, so the gate can see
/// them.
pub fn run(cfg: &LoadConfig) -> Result<LoadReport, String> {
    let (pool, planned) = plan(cfg);

    // Warmup: compute each pool config once so every planned hit is a
    // guaranteed hit. Submissions go through the public API like any
    // other job.
    for spec in &pool {
        let response = client::post_json(cfg.addr, "/jobs", &spec.to_json(), cfg.timeout)
            .map_err(|e| format!("warmup submit failed: {e}"))?;
        let id = response
            .body_json()
            .ok()
            .and_then(|doc| doc.get("job").and_then(Json::as_f64))
            .ok_or_else(|| {
                format!(
                    "warmup submit returned {}: {}",
                    response.status,
                    response.body_text().unwrap_or("<binary>")
                )
            })? as u64;
        let path = format!("/jobs/{id}");
        let deadline = Instant::now() + cfg.poll_timeout;
        loop {
            let doc = client::get(cfg.addr, &path, cfg.timeout)
                .map_err(|e| format!("warmup poll failed: {e}"))?
                .body_json()?;
            match doc.get("state").and_then(Json::as_str) {
                Some("done") => break,
                Some("failed") | Some("cancelled") => {
                    return Err(format!(
                        "warmup job {id} ended {:?}",
                        doc.get("state").and_then(Json::as_str)
                    ))
                }
                _ => {}
            }
            if Instant::now() >= deadline {
                return Err(format!("warmup job {id} did not finish in time"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    // Post-warmup baseline: deltas from here cover exactly the
    // measurement window.
    let (_, baseline) = scrape_metrics(cfg)?;

    // Measurement: split the plan round-robin across client threads.
    let out = Mutex::new(Outcome::default());
    let started = Instant::now();
    std::thread::scope(|scope| {
        let clients = cfg.clients.max(1);
        for c in 0..clients {
            let planned = &planned;
            let out = &out;
            let _ = std::thread::Builder::new()
                .name(format!("foldic-loadgen-{c}"))
                .spawn_scoped(scope, move || {
                    for job in planned.iter().skip(c).step_by(clients) {
                        drive(cfg, job, out);
                    }
                });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();

    // Final scrape: every driven job is terminal by now (drive() polls
    // to a terminal state), so the deltas are settled.
    let (scrape, final_series) = scrape_metrics(cfg)?;
    let server = Some(ServerSide {
        deltas: counter_deltas(&baseline, &final_series),
        scrape,
    });

    let mut outcome = out.into_inner().unwrap_or_else(|e| e.into_inner());
    outcome.latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let mut planned_counts: BTreeMap<String, u64> = BTreeMap::new();
    for kind in ["hit", "miss", "cancel", "deadline"] {
        planned_counts.insert(kind.to_owned(), 0);
    }
    for job in &planned {
        *planned_counts
            .entry(job.kind.as_str().to_owned())
            .or_default() += 1;
    }
    let terminal = outcome.done + outcome.cancelled + outcome.failed;
    let latency_ms: BTreeMap<String, f64> = [
        ("p50", percentile(&outcome.latencies_ms, 50.0)),
        ("p90", percentile(&outcome.latencies_ms, 90.0)),
        ("p99", percentile(&outcome.latencies_ms, 99.0)),
        ("max", outcome.latencies_ms.last().copied().unwrap_or(0.0)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect();
    Ok(LoadReport {
        jobs: cfg.jobs,
        clients: cfg.clients,
        seed: format!("{:#x}", cfg.seed),
        planned: planned_counts,
        hits: outcome.hits,
        done: outcome.done,
        cancelled: outcome.cancelled,
        failed: outcome.failed,
        rejected: outcome.rejected,
        errors: outcome.errors,
        bytes: outcome.bytes,
        hit_ratio: if terminal == 0 {
            0.0
        } else {
            outcome.hits as f64 / terminal as f64
        },
        latency_ms,
        throughput_jps: if wall_s > 0.0 {
            terminal as f64 / wall_s
        } else {
            0.0
        },
        wall_s,
        server,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parses_and_rejects() {
        let mix = MixWeights::parse("hit=50,miss=30,cancel=10,deadline=10").unwrap();
        assert_eq!(mix.hit, 50.0);
        assert_eq!(mix.deadline, 10.0);
        assert!(MixWeights::parse("hit=0,miss=0").is_err());
        assert!(MixWeights::parse("bogus=1").is_err());
        assert!(MixWeights::parse("hit").is_err());
        assert!(MixWeights::parse("hit=-1").is_err());
    }

    #[test]
    fn plan_is_deterministic_and_misses_are_unique() {
        let cfg = LoadConfig::new("127.0.0.1:1".parse().unwrap());
        let (pool_a, plan_a) = plan(&cfg);
        let (pool_b, plan_b) = plan(&cfg);
        assert_eq!(pool_a.len(), WARM_POOL);
        assert_eq!(
            pool_a.iter().map(|s| s.seed).collect::<Vec<_>>(),
            pool_b.iter().map(|s| s.seed).collect::<Vec<_>>()
        );
        assert_eq!(plan_a.len(), cfg.jobs);
        for (a, b) in plan_a.iter().zip(&plan_b) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.spec, b.spec);
        }
        // hit jobs draw from the pool; everything else is unique
        let pool_seeds: Vec<Option<u64>> = pool_a.iter().map(|s| s.seed).collect();
        let mut fresh = std::collections::HashSet::new();
        for job in &plan_a {
            match job.kind {
                Kind::Hit => assert!(pool_seeds.contains(&job.spec.seed)),
                _ => assert!(fresh.insert(job.spec.seed), "duplicate fresh seed"),
            }
        }
        // deadline jobs carry the budget, others do not
        for job in &plan_a {
            assert_eq!(job.spec.deadline_secs.is_some(), job.kind == Kind::Deadline);
        }
    }

    #[test]
    fn report_round_trips_and_gates() {
        let report = LoadReport {
            jobs: 10,
            clients: 2,
            seed: "0xf01d1c5e".to_owned(),
            planned: [("hit", 6u64), ("miss", 2), ("cancel", 1), ("deadline", 1)]
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
            hits: 6,
            done: 9,
            cancelled: 1,
            failed: 0,
            rejected: 0,
            errors: Vec::new(),
            bytes: 12345,
            hit_ratio: 0.6,
            latency_ms: [("p50", 1.0), ("p90", 2.0), ("p99", 3.0), ("max", 3.5)]
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
            throughput_jps: 100.0,
            wall_s: 0.1,
            server: None,
        };
        let text = report.to_json().to_pretty();
        let back = LoadReport::parse(&text).unwrap();
        assert_eq!(back, report);
        assert!(back.gate().is_ok());

        let mut bad = report.clone();
        bad.hits = 3;
        assert!(bad.gate().unwrap_err().contains("cache hit"));
        let mut bad = report.clone();
        bad.failed = 1;
        assert!(bad.gate().unwrap_err().contains("failed"));
        let mut bad = report;
        bad.errors.push("boom".to_owned());
        assert!(bad.gate().unwrap_err().contains("error"));

        assert!(LoadReport::parse("{}").is_err());
        assert!(LoadReport::parse("not json").is_err());
    }

    #[test]
    fn server_side_deltas_round_trip_and_cross_check() {
        let mut report = LoadReport {
            jobs: 10,
            clients: 2,
            seed: "0xf01d1c5e".to_owned(),
            planned: [("hit", 6u64), ("miss", 2), ("cancel", 1), ("deadline", 1)]
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
            hits: 6,
            done: 9,
            cancelled: 1,
            failed: 0,
            rejected: 0,
            errors: Vec::new(),
            bytes: 12345,
            hit_ratio: 0.6,
            latency_ms: BTreeMap::new(),
            throughput_jps: 100.0,
            wall_s: 0.1,
            server: None,
        };
        // A server view that agrees exactly with the client view.
        let deltas: BTreeMap<String, u64> = [
            (telemetry::jobs_state_series("done"), 9),
            (telemetry::jobs_state_series("cancelled"), 1),
            (telemetry::jobs_state_series("failed"), 0),
            (telemetry::SERIES_JOBS_REJECTED.to_owned(), 0),
            (telemetry::SERIES_CACHE_HITS.to_owned(), 6),
            (telemetry::SERIES_CACHE_MISSES.to_owned(), 3),
            (telemetry::requests_series("submit", "POST", 200), 6),
            (telemetry::requests_series("submit", "POST", 202), 4),
        ]
        .into_iter()
        .collect();
        report.server = Some(ServerSide {
            deltas,
            scrape: "# TYPE foldic_serve_jobs_total counter\n".to_owned(),
        });
        let text = report.to_json().to_pretty();
        let back = LoadReport::parse(&text).unwrap();
        assert_eq!(back, report);
        assert!(back.gate().is_ok(), "{:?}", back.gate());

        // A drifted server counter must fail the gate.
        let mut drifted = report.clone();
        if let Some(server) = &mut drifted.server {
            server
                .deltas
                .insert(telemetry::SERIES_CACHE_HITS.to_owned(), 5);
        }
        assert!(drifted.gate().unwrap_err().contains("cache hits"));
        let mut drifted = report;
        if let Some(server) = &mut drifted.server {
            server
                .deltas
                .insert(telemetry::SERIES_CACHE_MISSES.to_owned(), 7);
        }
        assert!(drifted.gate().unwrap_err().contains("cache misses"));
    }

    #[test]
    fn counter_deltas_keep_total_series_only() {
        let before: BTreeMap<String, f64> = [
            ("foldic_serve_cache_hits_total".to_owned(), 4.0),
            ("foldic_serve_queue_depth".to_owned(), 2.0),
        ]
        .into_iter()
        .collect();
        let after: BTreeMap<String, f64> = [
            ("foldic_serve_cache_hits_total".to_owned(), 10.0),
            ("foldic_serve_cache_misses_total".to_owned(), 3.0),
            ("foldic_serve_queue_depth".to_owned(), 0.0),
            (
                "foldic_serve_requests_total{endpoint=\"submit\",method=\"POST\",status=\"202\"}"
                    .to_owned(),
                3.0,
            ),
            (
                "foldic_serve_request_latency_ms_sum{endpoint=\"submit\"}".to_owned(),
                9.0,
            ),
        ]
        .into_iter()
        .collect();
        let deltas = counter_deltas(&before, &after);
        assert_eq!(deltas.get("foldic_serve_cache_hits_total"), Some(&6));
        assert_eq!(deltas.get("foldic_serve_cache_misses_total"), Some(&3));
        assert_eq!(
            deltas.get(
                "foldic_serve_requests_total{endpoint=\"submit\",method=\"POST\",status=\"202\"}"
            ),
            Some(&3)
        );
        assert!(
            !deltas.contains_key("foldic_serve_queue_depth"),
            "gauges excluded"
        );
        assert!(
            !deltas.keys().any(|k| k.contains("latency")),
            "histogram series excluded"
        );
    }
}
