//! End-to-end gate for the serve stack: a real daemon on an ephemeral
//! port, concurrent HTTP submissions, and the interop contract — a served
//! result is byte-for-byte the manifest the one-shot `repro` CLI writes
//! for the same study (modulo the timing/metrics observations that are
//! excluded from comparison), an identical resubmit is a cache hit with
//! an identical body, a one-field config delta is a miss, and a
//! deadline-bounded job degrades with `timed_out` provenance instead of
//! being served stale from the cache.

use foldic_bench::serve::BenchRunner;
use foldic_obs::json::Json;
use foldic_obs::manifest::RunManifest;
use foldic_serve::client;
use foldic_serve::queue::StudyRunner;
use foldic_serve::{JobSpec, Server, ServerConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("foldic-serve-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn boot() -> Server {
    Server::bind(
        "127.0.0.1:0",
        Arc::new(BenchRunner),
        ServerConfig::default(),
    )
    .expect("ephemeral bind")
}

const TIMEOUT: Duration = Duration::from_secs(30);
/// Debug-build experiment runs are slow; polls get a generous ceiling.
const POLL: Duration = Duration::from_secs(600);

fn spec(experiments: &[&str]) -> JobSpec {
    JobSpec {
        experiments: experiments.iter().map(|s| (*s).to_owned()).collect(),
        size: "tiny".to_owned(),
        ..JobSpec::default()
    }
}

/// Submits over HTTP and returns `(status, response document)`.
fn submit(addr: SocketAddr, spec: &JobSpec) -> (u16, Json) {
    let response = client::post_json(addr, "/jobs", &spec.to_json(), TIMEOUT).expect("submit");
    let doc = response.body_json().expect("submit response is JSON");
    (response.status, doc)
}

/// Polls a job to `done` and returns its result body.
fn await_result(addr: SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + POLL;
    loop {
        let doc = client::get(addr, &format!("/jobs/{id}"), TIMEOUT)
            .expect("status")
            .body_json()
            .expect("status is JSON");
        match doc.get("state").and_then(Json::as_str) {
            Some("done") => break,
            Some("failed") | Some("cancelled") => {
                panic!("job {id} ended {:?}", doc.get("state"))
            }
            _ => {}
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
    let result = client::get(addr, &format!("/jobs/{id}/result"), TIMEOUT).expect("result");
    assert_eq!(result.status, 200);
    String::from_utf8(result.body).expect("manifest is UTF-8")
}

#[test]
fn served_manifest_matches_the_one_shot_cli_run() {
    let server = boot();
    let addr = server.local_addr();

    let (status, doc) = submit(addr, &spec(&["table1"]));
    assert_eq!(status, 202, "first submission computes: {doc:?}");
    let id = doc.get("job").and_then(Json::as_f64).unwrap() as u64;
    let served_text = await_result(addr, id);
    let served = RunManifest::parse(&served_text).expect("served body is a manifest");

    // One-shot CLI run of the same study.
    let manifest_path = tmp("oneshot-table1.json");
    let out = repro()
        .args([
            "table1",
            "--size",
            "tiny",
            "--manifest",
            manifest_path.to_str().unwrap(),
        ])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let oneshot = RunManifest::parse(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();

    // The identity part of the manifests is equal: config and digests.
    assert_eq!(served.config, oneshot.config, "canonical config differs");
    assert_eq!(served.results, oneshot.results, "result digests differ");

    // And `repro compare` agrees: the one-shot run (extra metrics are
    // mere changes) compares clean against the served baseline.
    let served_path = tmp("served-table1.json");
    std::fs::write(&served_path, &served_text).unwrap();
    let out = repro()
        .args([
            "compare",
            served_path.to_str().unwrap(),
            manifest_path.to_str().unwrap(),
        ])
        .output()
        .expect("compare runs");
    assert!(
        out.status.success(),
        "compare regressed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    server.shutdown();
}

#[test]
fn identical_resubmit_hits_and_delta_misses() {
    let server = boot();
    let addr = server.local_addr();

    let study = spec(&["table1"]);
    let (status, doc) = submit(addr, &study);
    assert_eq!(status, 202);
    let first = await_result(addr, doc.get("job").and_then(Json::as_f64).unwrap() as u64);

    // Identical resubmit: answered instantly from the cache.
    let (status, doc) = submit(addr, &study);
    assert_eq!(status, 200, "resubmit must hit: {doc:?}");
    assert_eq!(doc.get("cache").and_then(Json::as_str), Some("hit"));
    let id = doc.get("job").and_then(Json::as_f64).unwrap() as u64;
    let cached = await_result(addr, id);
    assert_eq!(cached, first, "cache hit body must be byte-identical");

    // The job status records the hit and carries the cache key…
    let status_doc = client::get(addr, &format!("/jobs/{id}"), TIMEOUT)
        .unwrap()
        .body_json()
        .unwrap();
    let key = status_doc
        .get("cache_key")
        .and_then(Json::as_str)
        .expect("cacheable job exposes its key")
        .to_owned();
    // …and the cache endpoint serves the entry's provenance.
    let prov = client::get(addr, &format!("/cache/{key}"), TIMEOUT)
        .unwrap()
        .body_json()
        .unwrap();
    assert_eq!(
        prov.get("config")
            .and_then(|c| c.get("experiments"))
            .and_then(Json::as_str),
        Some("table1")
    );
    assert!(prov.get("hits").and_then(Json::as_f64).unwrap() >= 1.0);

    // /stats sees exactly one insertion and at least one hit.
    let stats = client::get(addr, "/stats", TIMEOUT)
        .unwrap()
        .body_json()
        .unwrap();
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("insertions").and_then(Json::as_f64), Some(1.0));
    assert!(cache.get("hits").and_then(Json::as_f64).unwrap() >= 1.0);

    // A one-field delta (seed override) is a miss and recomputes.
    let mut delta = study;
    delta.seed = Some(0xD_E17A);
    let (status, doc) = submit(addr, &delta);
    assert_eq!(status, 202, "delta must miss: {doc:?}");
    let other = await_result(addr, doc.get("job").and_then(Json::as_f64).unwrap() as u64);
    assert_ne!(other, first, "different seed, different manifest");
    server.shutdown();
}

#[test]
fn concurrent_submissions_converge_on_one_cached_body() {
    let server = boot();
    let addr = server.local_addr();

    // Several client threads race the same study plus a few distinct
    // ones; every same-study body must come out byte-identical.
    let bodies: Vec<(bool, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                scope.spawn(move || {
                    let mut study = spec(&["table1"]);
                    let same = i % 2 == 0;
                    if !same {
                        study.seed = Some(0x5EED_0000 + i as u64);
                    }
                    let (status, doc) = submit(addr, &study);
                    assert!(status == 200 || status == 202, "submit {i}: {doc:?}");
                    let id = doc.get("job").and_then(Json::as_f64).unwrap() as u64;
                    (same, await_result(addr, id))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let same_bodies: Vec<&String> = bodies
        .iter()
        .filter(|(same, _)| *same)
        .map(|(_, b)| b)
        .collect();
    assert!(same_bodies.len() >= 2);
    for body in &same_bodies[1..] {
        assert_eq!(*body, same_bodies[0], "same study, same bytes");
    }
    for (_, body) in &bodies {
        RunManifest::parse(body).expect("every body is a manifest");
    }
    server.shutdown();
}

#[test]
fn deadline_job_degrades_with_timed_out_provenance_and_skips_the_cache() {
    let server = boot();
    let addr = server.local_addr();

    // A budget far smaller than a tiny table2 run: the watchdog trips,
    // blocks degrade cooperatively, and the job still completes `done`.
    let mut study = spec(&["table2"]);
    study.deadline_secs = Some(0.15);
    let (status, doc) = submit(addr, &study);
    assert_eq!(status, 202, "deadline jobs always compute: {doc:?}");
    let id = doc.get("job").and_then(Json::as_f64).unwrap() as u64;
    // A plain job takes the second worker at the same time; the deadline
    // binds only its own run.
    let mut plain = spec(&["table2"]);
    plain.seed = Some(0x5EED);
    let (_, plain_doc) = submit(addr, &plain);
    let plain_id = plain_doc.get("job").and_then(Json::as_f64).unwrap() as u64;
    let body = await_result(addr, id);
    let manifest = RunManifest::parse(&body).unwrap();
    assert_eq!(
        manifest.config.get("deadline").map(String::as_str),
        Some("0.15")
    );
    assert!(
        !manifest.timeouts.is_empty(),
        "expired budget must surface as timed-out provenance"
    );

    // The degraded job's status payload carries the worker's flight
    // recorder, and the dump names the stage that timed out.
    let status_doc = client::get(addr, &format!("/jobs/{id}"), TIMEOUT)
        .unwrap()
        .body_json()
        .unwrap();
    let flight = status_doc
        .get("flight_recorder")
        .and_then(Json::as_arr)
        .expect("degraded job attaches a flight-recorder dump");
    assert!(!flight.is_empty(), "flight dump must not be empty");
    let timed_out = flight
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some("stage.timeout"))
        .expect("dump records the timed-out stage");
    assert!(
        timed_out
            .get("fields")
            .and_then(|f| f.get("stage"))
            .and_then(Json::as_str)
            .is_some(),
        "stage.timeout record names its stage: {timed_out:?}"
    );

    // The plain job's provenance is its own: no timeouts, no flight dump,
    // and the body of a run alone.
    let plain_body = await_result(addr, plain_id);
    assert!(RunManifest::parse(&plain_body).unwrap().timeouts.is_empty());
    let plain_status = client::get(addr, &format!("/jobs/{plain_id}"), TIMEOUT).unwrap();
    assert!(plain_status
        .body_json()
        .unwrap()
        .get("flight_recorder")
        .is_none());
    assert_eq!(plain_body, BenchRunner.run(&plain).unwrap());

    // Resubmitting the identical deadline job computes again — deadline
    // results are wall-clock-dependent and must never be cached.
    let (status, _) = submit(addr, &study);
    assert_eq!(status, 202, "deadline jobs never hit the cache");
    server.shutdown();
}

#[test]
fn loadgen_report_parses_and_gates_against_a_live_daemon() {
    let server = boot();
    let addr = server.local_addr();

    let mut cfg = foldic_serve::loadgen::LoadConfig::new(addr);
    cfg.jobs = 8;
    cfg.clients = 2;
    cfg.poll_timeout = POLL;
    let report = foldic_serve::loadgen::run(&cfg).expect("loadgen runs");
    let text = report.to_json().to_pretty();
    let parsed = foldic_serve::loadgen::LoadReport::parse(&text).expect("report round-trips");
    assert_eq!(parsed, report);
    parsed.gate().expect("loadgen gate");
    assert!(parsed.hits >= parsed.planned.get("hit").copied().unwrap_or(0));
    server.shutdown();
}

#[test]
fn http_error_paths_are_typed() {
    let server = boot();
    let addr = server.local_addr();

    let cases = [
        ("GET", "/jobs/999", None, 404),
        ("GET", "/jobs/notanumber", None, 400),
        ("GET", "/nope", None, 404),
        ("DELETE", "/jobs", None, 405),
        ("POST", "/jobs", Some("this is not json"), 400),
        ("POST", "/jobs", Some(r#"{"size": "tiny"}"#), 400),
        (
            "POST",
            "/jobs",
            Some(r#"{"experiments": ["layouts"], "size": "tiny"}"#),
            400,
        ),
        ("GET", "/cache/fnv64:0000000000000000", None, 404),
    ];
    for (method, path, body, expect) in cases {
        let response = client::request(addr, method, path, body, TIMEOUT).unwrap();
        assert_eq!(
            response.status,
            expect,
            "{method} {path}: {:?}",
            response.body_text()
        );
        // every error body is a JSON document with an `error` field
        if expect >= 400 {
            let doc = response.body_json().unwrap();
            assert!(doc.get("error").is_some(), "{method} {path}");
        }
    }
    // a queued-then-unfinished job's result is a 409 conflict
    let (status, doc) = submit(addr, &spec(&["fig2"]));
    assert_eq!(status, 202);
    let id = doc.get("job").and_then(Json::as_f64).unwrap() as u64;
    let result = client::get(addr, &format!("/jobs/{id}/result"), TIMEOUT).unwrap();
    assert!(
        result.status == 409 || result.status == 200,
        "pending result must be 409 (or 200 if it already finished)"
    );
    let _ = await_result(addr, id);
    server.shutdown();
}

#[test]
fn metrics_are_deterministic_across_worker_counts() {
    // Counter series must not depend on scheduling: the same seeded
    // traffic replayed against a 1-worker and a 4-worker daemon yields
    // byte-identical expositions once the documented volatile families
    // are filtered out. The mix is cancel-free (a cancel legitimately
    // races its own completion, splitting done/cancelled differently
    // run to run) and single-client (concurrent clients race the
    // hit/miss split).
    let run = |workers: usize| -> String {
        let cfg = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", Arc::new(BenchRunner), cfg).expect("bind");
        let addr = server.local_addr();
        let mut lc = foldic_serve::loadgen::LoadConfig::new(addr);
        lc.jobs = 8;
        lc.clients = 1;
        lc.mix = foldic_serve::loadgen::MixWeights {
            hit: 5.0,
            miss: 2.0,
            cancel: 0.0,
            deadline: 1.0,
        };
        lc.poll_timeout = POLL;
        let report = foldic_serve::loadgen::run(&lc).expect("loadgen runs");
        report.gate().expect("gate cross-checks server counters");
        assert!(
            report.server.is_some(),
            "bench/2 reports embed the final scrape"
        );
        let scrape = client::get(addr, "/metrics", TIMEOUT)
            .expect("metrics scrape")
            .body_text()
            .expect("exposition is text")
            .to_owned();
        server.shutdown();
        foldic_serve::telemetry::deterministic_subset(&scrape)
    };
    let narrow = run(1);
    let wide = run(4);
    assert_eq!(
        narrow, wide,
        "worker count leaked into the deterministic metric subset"
    );
}

/// Kills the daemon subprocess if the test panics before shutdown.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn daemon_serves_traces_metrics_logs_and_health() {
    use std::collections::BTreeMap;

    // A dedicated daemon process: trace assertions need sole ownership
    // of the process-global trace buffer (in-process servers in this
    // test binary would absorb each other's events on ingest and drop
    // them as strays).
    let port_file = tmp("telemetry.port");
    let log_file = tmp("telemetry.log.jsonl");
    let _ = std::fs::remove_file(&port_file);
    let _ = std::fs::remove_file(&log_file);
    let child = repro()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--port-file",
            port_file.to_str().unwrap(),
            "--log",
            log_file.to_str().unwrap(),
            "--log-level",
            "debug",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let mut child = KillOnDrop(child);
    let deadline = Instant::now() + TIMEOUT;
    let addr: SocketAddr = loop {
        match std::fs::read_to_string(&port_file)
            .ok()
            .and_then(|t| t.trim().parse().ok())
        {
            Some(addr) => break addr,
            None => {
                assert!(
                    Instant::now() < deadline,
                    "daemon never wrote its port file"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };

    // /healthz: liveness plus version, uptime and build profile.
    let health = client::get(addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(health.status, 200);
    let doc = health.body_json().unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        doc.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(doc.get("uptime_seconds").and_then(Json::as_f64).is_some());
    assert!(matches!(
        doc.get("profile").and_then(Json::as_str),
        Some("debug" | "release")
    ));

    // A client-provided `x-request-id` is honored and echoed back.
    let spec_json = spec(&["fig2"]).to_json().to_compact();
    let submit = client::request_with_headers(
        addr,
        "POST",
        "/jobs",
        &[("x-request-id", "req-gate-1")],
        Some(&spec_json),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(submit.status, 202, "{:?}", submit.body_text());
    assert_eq!(submit.header("x-request-id"), Some("req-gate-1"));
    let id = submit
        .body_json()
        .unwrap()
        .get("job")
        .and_then(Json::as_f64)
        .unwrap() as u64;

    // Error bodies embed the (allocated) request id that the header
    // carries.
    let err = client::get(addr, "/nope", TIMEOUT).unwrap();
    assert_eq!(err.status, 404);
    let err_id = err
        .body_json()
        .unwrap()
        .get("request_id")
        .and_then(Json::as_str)
        .expect("error body embeds its request id")
        .to_owned();
    assert_eq!(err.header("x-request-id"), Some(err_id.as_str()));

    let _ = await_result(addr, id);

    // /jobs/<id>/trace: Chrome-trace JSON with the submit request's
    // HTTP span at the root, the synthesized queue wait beneath it, the
    // job execution beneath that, and flow spans nested further down.
    let trace = client::get(addr, &format!("/jobs/{id}/trace"), TIMEOUT).unwrap();
    assert_eq!(trace.status, 200, "{:?}", trace.body_text());
    let trace_doc = Json::parse(trace.body_text().unwrap()).expect("trace is JSON");
    let events = trace_doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("trace has a traceEvents array");
    let mut spans: BTreeMap<u64, (String, Option<u64>)> = BTreeMap::new();
    for event in events {
        if event.get("ph").and_then(Json::as_str) != Some("B") {
            continue;
        }
        let name = event.get("name").and_then(Json::as_str).unwrap().to_owned();
        let args = event.get("args").expect("begin events carry args");
        let span = args.get("span").and_then(Json::as_f64).unwrap() as u64;
        let parent = args.get("parent").and_then(Json::as_f64).map(|p| p as u64);
        spans.insert(span, (name, parent));
    }
    let find = |want: &str| -> (u64, Option<u64>) {
        spans
            .iter()
            .find(|(_, (name, _))| name == want)
            .map(|(span, (_, parent))| (*span, *parent))
            .unwrap_or_else(|| panic!("span `{want}` missing from trace:\n{spans:?}"))
    };
    let (http_span, http_parent) = find("http.request");
    assert_eq!(http_parent, None, "the submit request is the trace root");
    let (qwait_span, qwait_parent) = find("queue.wait");
    assert_eq!(qwait_parent, Some(http_span));
    let (run_span, run_parent) = find("job.run");
    assert_eq!(run_parent, Some(qwait_span));
    let nested_under_run = spans.iter().any(|(_, (_, parent))| {
        let mut cursor = *parent;
        while let Some(p) = cursor {
            if p == run_span {
                return true;
            }
            cursor = spans.get(&p).and_then(|(_, grandparent)| *grandparent);
        }
        false
    });
    assert!(
        nested_under_run,
        "no flow spans nest under job.run:\n{spans:?}"
    );

    // /metrics: the contract series parse and carry this traffic.
    use foldic_serve::telemetry;
    let scrape = client::get(addr, "/metrics", TIMEOUT).unwrap();
    assert_eq!(scrape.status, 200);
    let samples =
        foldic_obs::expo::parse_exposition(scrape.body_text().unwrap()).expect("exposition parses");
    assert_eq!(
        samples.get(&telemetry::requests_series("submit", "POST", 202)),
        Some(&1.0)
    );
    assert_eq!(
        samples.get(&telemetry::jobs_state_series("done")),
        Some(&1.0)
    );
    assert_eq!(samples.get(telemetry::SERIES_CACHE_MISSES), Some(&1.0));
    assert_eq!(samples.get("foldic_serve_workers"), Some(&1.0));

    // Clean shutdown, then the structured log: every line parses, the
    // access log carries the caller's request id, and the job lifecycle
    // events reference it too.
    let down = client::post(addr, "/shutdown", TIMEOUT).unwrap();
    assert_eq!(down.status, 200);
    let status = child.0.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit: {status:?}");
    let log_text = std::fs::read_to_string(&log_file).expect("log file exists");
    let mut events_seen = Vec::new();
    for line in log_text.lines() {
        let (_, event, fields) = foldic_obs::log::parse_line(line)
            .unwrap_or_else(|e| panic!("bad log line: {e}\n{line}"));
        events_seen.push((event, fields));
    }
    let with_our_id = |event: &str| {
        events_seen.iter().any(|(e, fields)| {
            e == event && fields.get("request_id").and_then(Json::as_str) == Some("req-gate-1")
        })
    };
    assert!(with_our_id("request"), "access log line for the submit");
    assert!(
        with_our_id("job.queued"),
        "job.queued carries the request id"
    );
    assert!(with_our_id("job.done"), "job.done carries the request id");
    assert!(
        events_seen.iter().any(|(e, _)| e == "scheduler.drained"),
        "shutdown drain is logged"
    );
}
