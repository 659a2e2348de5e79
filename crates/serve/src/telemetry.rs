//! Serving telemetry: the `foldic-serve-metrics/1` series contract, the
//! per-request id allocator, the structured log hook and the trace mux
//! that turns the process-global `foldic-obs` span buffer into
//! per-job span trees.
//!
//! # Series contract (`foldic-serve-metrics/1`)
//!
//! `GET /metrics` renders one [`foldic_obs::metrics::Snapshot`] through
//! [`foldic_obs::expo`]: the request/latency registry plus the
//! scheduler's counter table, read under the state lock. `GET /stats`
//! ([`crate::queue::Scheduler::stats_json`]) is the JSON view of that
//! same table, nested by section, so a counter both documents carry
//! never disagrees. Every series is prefixed `foldic_serve_`:
//!
//! | Series | Kind | Notes |
//! |---|---|---|
//! | `foldic_serve_requests_total{endpoint,method,status}` | counter | per-request, endpoint classes from [`endpoint_class`] |
//! | `foldic_serve_request_latency_ms{endpoint}` | histogram | **volatile** |
//! | `foldic_serve_job_wait_ms` | histogram | queue wait, **volatile** |
//! | `foldic_serve_job_run_ms` | histogram | execution, **volatile** |
//! | `foldic_serve_jobs_total{state}` | counter | terminal states `done` / `failed` / `cancelled` |
//! | `foldic_serve_jobs_submitted_total` | counter | admitted submissions |
//! | `foldic_serve_jobs_rejected_total` | counter | admission rejections (429) |
//! | `foldic_serve_queue_depth` | gauge | **volatile** |
//! | `foldic_serve_queue_high_water` | gauge | **volatile** |
//! | `foldic_serve_queue_capacity` | gauge | configured bound |
//! | `foldic_serve_cache_hits_total` &c. | counter | `hits`/`misses`/`insertions`/`evictions` (the cache never evicts, so evictions is a constant 0 — present for contract completeness) |
//! | `foldic_serve_cache_entries` | gauge | stored studies |
//! | `foldic_serve_workers` | gauge | configured pool size, **volatile** |
//! | `foldic_serve_workers_busy` | gauge | running jobs, **volatile** |
//! | `foldic_serve_uptime_seconds` | gauge | **volatile** |
//!
//! The durability layer adds families that appear **only when the
//! corresponding feature is configured** (pay-for-use — an undurable
//! daemon's exposition is byte-identical to the pre-durability one):
//!
//! | Series | Kind | Present when | Notes |
//! |---|---|---|---|
//! | `foldic_serve_jobs_shed_total` | counter | any durability feature | breaker sheds + failed journal writes (503) |
//! | `foldic_serve_jobs_poisoned_total` | counter | any durability feature | jobs failed at dispatch by the poison ledger |
//! | `foldic_serve_worker_restarts_total` | counter | any durability feature | worker loops restarted by the supervisor |
//! | `foldic_serve_journal_replayed_jobs_total` | counter | `--journal` | jobs restored from the journal at boot |
//! | `foldic_serve_journal_reenqueued_total` | counter | `--journal` | non-terminal jobs re-enqueued at boot |
//! | `foldic_serve_cache_loaded_total` | counter | `--cache-dir` | verified entries reloaded at boot |
//! | `foldic_serve_cache_corrupt_total` | counter | `--cache-dir` | entries quarantined at boot |
//! | `foldic_serve_breaker_state` | gauge | breaker | 0 closed / 1 half-open / 2 open, **volatile** |
//! | `foldic_serve_breaker_transitions_total` | counter | breaker | state transitions, **volatile** |
//!
//! The resource-governance layer (`--mem-limit`) is pay-for-use the same
//! way — a limitless daemon's exposition is byte-identical to before the
//! layer existed:
//!
//! | Series | Kind | Present when | Notes |
//! |---|---|---|---|
//! | `foldic_serve_mem_limit_bytes` | gauge | `--mem-limit` | configured admission limit |
//! | `foldic_serve_mem_reserved_bytes` | gauge | `--mem-limit` | ledger commitment, **volatile** |
//! | `foldic_serve_mem_reserved_peak_bytes` | gauge | `--mem-limit` | ledger high water, **volatile** |
//! | `foldic_serve_jobs_oversized_total` | counter | `--mem-limit` | estimates above the limit (run alone, budgeted) |
//! | `foldic_serve_jobs_mem_shed_total` | counter | `--mem-limit` | submissions shed by a full ledger (503) |
//!
//! The breaker families are volatile because cooldown expiry is a
//! wall-clock event; the reservation gauges because how many admissions
//! overlap at scrape time is a scheduling accident.
//!
//! **Volatile** series are the timing class: their values depend on
//! wall-clock scheduling, so they are excluded — by
//! [`is_volatile_series`], the analogue of the manifest's excluded
//! `timing` section — from byte-determinism comparisons. So is every
//! `requests_total` sample with `endpoint="job_status"`: status polling
//! frequency is wall-clock dependent. Everything else is a pure function
//! of the request history: two daemons fed the same traffic agree byte
//! for byte on [`deterministic_subset`] regardless of worker count.
//!
//! # Trace mux
//!
//! `foldic-obs` records spans into one process-global buffer; the daemon
//! serves *per-job* traces. The [`Telemetry`] mux drains the global
//! buffer and assigns each event to a job by span ancestry: submission
//! seeds the job's HTTP request span, dispatch adds a synthesized
//! `queue.wait` span under it, execution runs under a `job.run` span
//! inherited through [`foldic_obs::trace::run_with_parent`], and every
//! descendant span follows its parent's assignment. Events whose
//! ancestry is unknown (spans of non-submission requests, foreign
//! instrumentation) are dropped at ingest, which keeps the mux bounded
//! by job traffic. Ingest runs at job completion, on `/metrics` and
//! `/jobs/<id>/trace` reads, and in the shutdown drain path — the last
//! one is what guarantees spans recorded just before `POST /shutdown`
//! still reach their job's tree. One caveat: ingest is destructive on
//! the global buffer, so two schedulers tracing in one process can steal
//! (and then drop) each other's events — per-process daemons, the only
//! deployment shape, are unaffected.

use foldic_obs::expo;
use foldic_obs::json::Json;
use foldic_obs::log::{Level, LogSink};
use foldic_obs::metrics::Registry;
use foldic_obs::trace::{self, Event, SpanId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema identifier of the `/metrics` exposition contract.
pub const METRICS_SCHEMA: &str = "foldic-serve-metrics/1";

/// Series name for the per-endpoint request counter.
pub fn requests_series(endpoint: &str, method: &str, status: u16) -> String {
    format!(
        "foldic_serve_requests_total{{endpoint=\"{endpoint}\",method=\"{method}\",status=\"{status}\"}}"
    )
}

/// Series name for the per-endpoint latency histogram.
pub fn latency_series(endpoint: &str) -> String {
    format!("foldic_serve_request_latency_ms{{endpoint=\"{endpoint}\"}}")
}

/// Series name for the terminal-state job counter.
pub fn jobs_state_series(state: &str) -> String {
    format!("foldic_serve_jobs_total{{state=\"{state}\"}}")
}

/// Admitted submissions.
pub const SERIES_JOBS_SUBMITTED: &str = "foldic_serve_jobs_submitted_total";
/// Admission rejections.
pub const SERIES_JOBS_REJECTED: &str = "foldic_serve_jobs_rejected_total";
/// Cache lookup hits.
pub const SERIES_CACHE_HITS: &str = "foldic_serve_cache_hits_total";
/// Cache lookup misses.
pub const SERIES_CACHE_MISSES: &str = "foldic_serve_cache_misses_total";
/// Cache insertions.
pub const SERIES_CACHE_INSERTIONS: &str = "foldic_serve_cache_insertions_total";
/// Cache evictions (constant 0 — the cache never evicts).
pub const SERIES_CACHE_EVICTIONS: &str = "foldic_serve_cache_evictions_total";
/// Submissions shed by the breaker or a failed journal write (503).
pub const SERIES_JOBS_SHED: &str = "foldic_serve_jobs_shed_total";
/// Jobs failed at dispatch by the poison ledger.
pub const SERIES_JOBS_POISONED: &str = "foldic_serve_jobs_poisoned_total";
/// Worker loops restarted by the supervisor.
pub const SERIES_WORKER_RESTARTS: &str = "foldic_serve_worker_restarts_total";
/// Jobs restored from the journal at boot.
pub const SERIES_JOURNAL_REPLAYED: &str = "foldic_serve_journal_replayed_jobs_total";
/// Non-terminal journaled jobs re-enqueued at boot.
pub const SERIES_JOURNAL_REENQUEUED: &str = "foldic_serve_journal_reenqueued_total";
/// Verified cache entries reloaded from the cache directory at boot.
pub const SERIES_CACHE_LOADED: &str = "foldic_serve_cache_loaded_total";
/// Persisted cache entries quarantined at boot.
pub const SERIES_CACHE_CORRUPT: &str = "foldic_serve_cache_corrupt_total";
/// Circuit-breaker state gauge (0 closed / 1 half-open / 2 open).
pub const SERIES_BREAKER_STATE: &str = "foldic_serve_breaker_state";
/// Circuit-breaker state transitions.
pub const SERIES_BREAKER_TRANSITIONS: &str = "foldic_serve_breaker_transitions_total";
/// Configured admission memory limit (`--mem-limit`).
pub const SERIES_MEM_LIMIT: &str = "foldic_serve_mem_limit_bytes";
/// Bytes currently committed in the reservation ledger.
pub const SERIES_MEM_RESERVED: &str = "foldic_serve_mem_reserved_bytes";
/// Highest the reservation ledger has ever been.
pub const SERIES_MEM_RESERVED_PEAK: &str = "foldic_serve_mem_reserved_peak_bytes";
/// Admissions whose cost estimate exceeded the memory limit outright.
pub const SERIES_JOBS_OVERSIZED: &str = "foldic_serve_jobs_oversized_total";
/// Submissions shed because the reservation ledger was full (503).
pub const SERIES_JOBS_MEM_SHED: &str = "foldic_serve_jobs_mem_shed_total";

/// Families whose values are wall-clock dependent (the timing class).
/// The breaker families qualify because cooldown expiry — and therefore
/// every open/half-open/closed transition — is a wall-clock event.
pub const VOLATILE_FAMILIES: &[&str] = &[
    "foldic_serve_request_latency_ms",
    "foldic_serve_job_wait_ms",
    "foldic_serve_job_run_ms",
    "foldic_serve_queue_depth",
    "foldic_serve_queue_high_water",
    "foldic_serve_uptime_seconds",
    "foldic_serve_workers",
    "foldic_serve_workers_busy",
    "foldic_serve_breaker_state",
    "foldic_serve_breaker_transitions_total",
    "foldic_serve_mem_reserved_bytes",
    "foldic_serve_mem_reserved_peak_bytes",
];

/// `true` for series excluded from byte-determinism comparisons: the
/// [`VOLATILE_FAMILIES`] plus `job_status`-endpoint request samples
/// (poll counts depend on how long jobs were in flight).
pub fn is_volatile_series(series: &str) -> bool {
    VOLATILE_FAMILIES.contains(&expo::family_of(series))
        || series.contains("endpoint=\"job_status\"")
}

/// The deterministic projection of an exposition body: volatile series
/// (and their orphaned `# TYPE` lines) removed. Two daemons fed the same
/// seeded traffic return byte-identical projections at any worker count.
pub fn deterministic_subset(exposition: &str) -> String {
    expo::filter_exposition(exposition, &|series| !is_volatile_series(series))
}

/// Stable endpoint class for a request, bounding label cardinality.
pub fn endpoint_class(method: &str, path: &str) -> &'static str {
    let _ = method;
    match path {
        "/healthz" => "healthz",
        "/stats" => "stats",
        "/metrics" => "metrics",
        "/jobs" => "submit",
        "/shutdown" => "shutdown",
        _ => {
            if let Some(rest) = path.strip_prefix("/jobs/") {
                return match rest.split_once('/').map(|(_, tail)| tail) {
                    None => "job_status",
                    Some("result") => "job_result",
                    Some("trace") => "job_trace",
                    Some("cancel") => "job_cancel",
                    Some(_) => "other",
                };
            }
            if path.starts_with("/cache/") {
                return "cache";
            }
            "other"
        }
    }
}

/// Clamps an arbitrary client method token to a bounded label value.
pub fn method_label(method: &str) -> &'static str {
    match method {
        "GET" => "GET",
        "POST" => "POST",
        _ => "other",
    }
}

/// A string-valued structured log field.
pub fn field_str(key: &str, value: &str) -> (String, Json) {
    (key.to_owned(), Json::Str(value.to_owned()))
}

/// A numeric structured log field.
pub fn field_num(key: &str, value: f64) -> (String, Json) {
    (key.to_owned(), Json::Num(value))
}

/// Telemetry tuning handed to [`Telemetry::new`].
#[derive(Default)]
pub struct TelemetryConfig {
    /// Enable request/job tracing (turns on the process-global
    /// `foldic-obs` trace buffer and the per-job mux).
    pub trace: bool,
    /// Structured log sink, if any.
    pub log: Option<Arc<LogSink>>,
}

/// Per-job span-tree assembly over the global trace buffer.
#[derive(Default)]
struct TraceMux {
    /// Span id → owning job, grown by ancestry at ingest.
    assigned: HashMap<SpanId, u64>,
    /// Job → its events, in ingest order (sorted on render).
    events: HashMap<u64, Vec<Event>>,
}

impl TraceMux {
    /// Declares `span` (and its future descendants) as belonging to `job`.
    fn seed(&mut self, job: u64, span: SpanId) {
        self.assigned.insert(span, job);
        self.events.entry(job).or_default();
    }

    /// Appends a pre-assigned (synthesized) event to `job`'s tree.
    fn push(&mut self, job: u64, event: Event) {
        self.assigned.insert(event.span, job);
        self.events.entry(job).or_default().push(event);
    }

    /// Distributes drained events to jobs by span ancestry; events with
    /// unknown ancestry are dropped. `drained` must be in `(ts_ns, seq)`
    /// order so Begin events assign a span before its children arrive.
    fn absorb(&mut self, drained: Vec<Event>) {
        for event in drained {
            let job = match self.assigned.get(&event.span) {
                Some(&job) => Some(job),
                None => event
                    .parent
                    .and_then(|p| self.assigned.get(&p).copied())
                    .inspect(|&job| {
                        self.assigned.insert(event.span, job);
                    }),
            };
            if let Some(job) = job {
                self.events.entry(job).or_default().push(event);
            }
        }
    }

    /// `job`'s events sorted the way exporters need them.
    fn events_for(&self, job: u64) -> Option<Vec<Event>> {
        let mut events = self.events.get(&job)?.clone();
        events.sort_by_key(|e| (e.ts_ns, e.seq));
        Some(events)
    }
}

/// Shared observability state: always-on metrics registry, optional
/// structured log, optional per-job trace mux, request-id allocator and
/// the uptime epoch. One instance per daemon, shared by the server and
/// its scheduler.
pub struct Telemetry {
    registry: Registry,
    log: Option<Arc<LogSink>>,
    mux: Option<Mutex<TraceMux>>,
    next_request: AtomicU64,
    started: Instant,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("trace", &self.mux.is_some())
            .field("log", &self.log.is_some())
            .finish()
    }
}

impl Telemetry {
    /// Builds the telemetry hub. The metrics registry starts enabled;
    /// with `cfg.trace` the process-global `foldic-obs` trace layer is
    /// switched on (clearing its buffers).
    pub fn new(cfg: TelemetryConfig) -> Arc<Self> {
        let registry = Registry::new();
        registry.set_enabled(true);
        if cfg.trace {
            trace::set_enabled(true);
        }
        Arc::new(Self {
            registry,
            log: cfg.log,
            mux: cfg.trace.then(|| Mutex::new(TraceMux::default())),
            next_request: AtomicU64::new(1),
            started: Instant::now(),
        })
    }

    /// A hub with tracing and logging off — metrics still record.
    pub fn disabled() -> Arc<Self> {
        Self::new(TelemetryConfig::default())
    }

    /// The metrics registry behind `/metrics`.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// `true` when per-job tracing is active.
    pub fn trace_enabled(&self) -> bool {
        self.mux.is_some()
    }

    /// Whole seconds since the daemon started.
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Allocates a request id (`req-000001`-style, unique per process).
    pub fn next_request_id(&self) -> String {
        format!(
            "req-{:06x}",
            self.next_request.fetch_add(1, Ordering::Relaxed)
        )
    }

    /// Writes a structured log line, if a sink is attached.
    pub fn log(&self, level: Level, event: &str, fields: Vec<(String, Json)>) {
        if let Some(sink) = &self.log {
            sink.log(level, event, fields);
        }
    }

    /// `true` when a log line at `level` would actually be written.
    pub fn log_enabled(&self, level: Level) -> bool {
        self.log.as_ref().is_some_and(|sink| sink.enabled(level))
    }

    /// Records one finished request: counter, latency histogram, access
    /// log line.
    pub fn record_request(
        &self,
        endpoint: &'static str,
        method: &str,
        status: u16,
        latency_ms: f64,
        request_id: &str,
    ) {
        let method = method_label(method);
        self.registry
            .add(&requests_series(endpoint, method, status), 1);
        self.registry.observe(&latency_series(endpoint), latency_ms);
        let level = if status >= 500 {
            Level::Error
        } else if status >= 400 {
            Level::Warn
        } else {
            Level::Info
        };
        if self.log_enabled(level) {
            self.log(
                level,
                "request",
                vec![
                    ("endpoint".to_owned(), Json::Str(endpoint.to_owned())),
                    ("latency_ms".to_owned(), Json::Num(latency_ms)),
                    ("method".to_owned(), Json::Str(method.to_owned())),
                    ("request_id".to_owned(), Json::Str(request_id.to_owned())),
                    ("status".to_owned(), Json::Num(f64::from(status))),
                ],
            );
        }
    }

    /// Assigns `span` (a request's `http.request` span) to `job`.
    pub fn seed_job_span(&self, job: u64, span: SpanId) {
        if let Some(mux) = &self.mux {
            mux.lock()
                .unwrap_or_else(|e| e.into_inner())
                .seed(job, span);
        }
    }

    /// Appends a synthesized event directly to `job`'s tree.
    pub fn push_job_event(&self, job: u64, event: Event) {
        if let Some(mux) = &self.mux {
            mux.lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(job, event);
        }
    }

    /// Drains the global trace buffer into the per-job mux. Called at
    /// job completion, on trace/metrics reads, and — crucially — in the
    /// shutdown drain path, so no span recorded before `POST /shutdown`
    /// is lost.
    pub fn ingest(&self) {
        if let Some(mux) = &self.mux {
            let drained = trace::take_events();
            if !drained.is_empty() {
                mux.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .absorb(drained);
            }
        }
    }

    /// `job`'s span tree as Chrome-trace JSON (`None`: tracing off or
    /// the job has no recorded events).
    pub fn job_trace_json(&self, job: u64) -> Option<String> {
        let mux = self.mux.as_ref()?;
        self.ingest();
        let events = mux
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .events_for(job)?;
        if events.is_empty() {
            return None;
        }
        Some(trace::chrome_trace_json(&events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_obs::trace::EventKind;

    fn ev(
        kind: EventKind,
        name: &'static str,
        span: SpanId,
        parent: Option<SpanId>,
        ts: u64,
    ) -> Event {
        trace::synthetic_event(kind, name, span, parent, ts, Vec::new())
    }

    #[test]
    fn endpoint_classes_are_stable_and_bounded() {
        assert_eq!(endpoint_class("GET", "/healthz"), "healthz");
        assert_eq!(endpoint_class("GET", "/stats"), "stats");
        assert_eq!(endpoint_class("GET", "/metrics"), "metrics");
        assert_eq!(endpoint_class("POST", "/jobs"), "submit");
        assert_eq!(endpoint_class("GET", "/jobs/17"), "job_status");
        assert_eq!(endpoint_class("GET", "/jobs/17/result"), "job_result");
        assert_eq!(endpoint_class("GET", "/jobs/17/trace"), "job_trace");
        assert_eq!(endpoint_class("POST", "/jobs/17/cancel"), "job_cancel");
        assert_eq!(endpoint_class("GET", "/cache/abcd"), "cache");
        assert_eq!(endpoint_class("POST", "/shutdown"), "shutdown");
        assert_eq!(endpoint_class("GET", "/jobs/17/bogus"), "other");
        assert_eq!(endpoint_class("GET", "/nope"), "other");
        assert_eq!(method_label("DELETE"), "other");
        assert_eq!(method_label("GET"), "GET");
    }

    #[test]
    fn volatile_filter_matches_the_documented_exclusions() {
        assert!(is_volatile_series(
            "foldic_serve_job_wait_ms_bucket{le=\"1\"}"
        ));
        assert!(is_volatile_series(
            "foldic_serve_request_latency_ms_sum{endpoint=\"submit\"}"
        ));
        assert!(is_volatile_series("foldic_serve_uptime_seconds"));
        assert!(is_volatile_series(
            "foldic_serve_requests_total{endpoint=\"job_status\",method=\"GET\",status=\"200\"}"
        ));
        assert!(!is_volatile_series(
            "foldic_serve_requests_total{endpoint=\"submit\",method=\"POST\",status=\"202\"}"
        ));
        assert!(!is_volatile_series(&jobs_state_series("done")));
        assert!(!is_volatile_series(SERIES_CACHE_HITS));
    }

    #[test]
    fn mux_assigns_events_by_ancestry_and_drops_strays() {
        let mut mux = TraceMux::default();
        mux.seed(7, 100); // http.request span of job 7
        let drained = vec![
            ev(EventKind::Begin, "http.request", 100, None, 10),
            ev(EventKind::Begin, "stage", 101, Some(100), 20),
            ev(EventKind::Begin, "block", 102, Some(101), 30),
            ev(EventKind::Begin, "stray", 900, Some(899), 35),
            ev(EventKind::End, "block", 102, None, 40),
            ev(EventKind::End, "stage", 101, None, 50),
            ev(EventKind::End, "http.request", 100, None, 60),
        ];
        mux.absorb(drained);
        let events = mux.events_for(7).unwrap();
        assert_eq!(events.len(), 6, "stray span must be dropped");
        assert!(events.iter().all(|e| e.name != "stray"));
        // grand-child chained through its parent's assignment
        assert!(events.iter().any(|e| e.name == "block"));
        assert!(mux.events_for(8).is_none());
    }

    #[test]
    fn mux_renders_sorted_chrome_trace_with_synthesized_spans() {
        let mut mux = TraceMux::default();
        mux.seed(3, 200);
        // dispatch synthesizes queue.wait after absorbing nothing yet;
        // its Begin timestamp predates events pushed later
        mux.push(3, ev(EventKind::Begin, "queue.wait", 201, Some(200), 15));
        mux.push(3, ev(EventKind::End, "queue.wait", 201, None, 25));
        mux.absorb(vec![
            ev(EventKind::Begin, "http.request", 200, None, 10),
            ev(EventKind::Begin, "job.run", 202, Some(201), 26),
            ev(EventKind::End, "job.run", 202, None, 30),
            ev(EventKind::End, "http.request", 200, None, 16),
        ]);
        let events = mux.events_for(3).unwrap();
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "http.request",
                "queue.wait",
                "http.request",
                "queue.wait",
                "job.run",
                "job.run"
            ],
            "events must sort by timestamp"
        );
        let doc = Json::parse(&trace::chrome_trace_json(&events)).unwrap();
        let items = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(items.len(), 6);
        // parentage is visible in args: queue.wait → http.request → job.run
        let arg = |name: &str, key: &str| -> f64 {
            items
                .iter()
                .find(|i| {
                    i.get("name").and_then(Json::as_str) == Some(name)
                        && i.get("ph").and_then(Json::as_str) == Some("B")
                })
                .and_then(|i| {
                    i.get("args")
                        .and_then(|a| a.get(key))
                        .and_then(Json::as_f64)
                })
                .unwrap_or(-1.0)
        };
        assert_eq!(arg("queue.wait", "parent"), 200.0);
        assert_eq!(arg("job.run", "parent"), 201.0);
    }

    #[test]
    fn deterministic_subset_strips_volatile_families() {
        let tele = Telemetry::disabled();
        tele.record_request("submit", "POST", 202, 1.25, "req-1");
        tele.record_request("job_status", "GET", 200, 0.5, "req-2");
        let mut snap = tele.registry().snapshot();
        snap.metrics.insert(
            "foldic_serve_uptime_seconds".to_owned(),
            foldic_obs::metrics::Metric::Gauge(12.0),
        );
        let text = expo::to_prometheus(&snap);
        let subset = deterministic_subset(&text);
        assert!(subset.contains("endpoint=\"submit\""));
        assert!(!subset.contains("request_latency"));
        assert!(!subset.contains("uptime"));
        assert!(!subset.contains("job_status"));
        expo::parse_exposition(&subset).expect("subset parses");
    }

    #[test]
    fn request_ids_are_unique_and_formatted() {
        let tele = Telemetry::disabled();
        let a = tele.next_request_id();
        let b = tele.next_request_id();
        assert_ne!(a, b);
        assert!(a.starts_with("req-"), "{a}");
        assert_eq!(a.len(), "req-".len() + 6);
    }
}
