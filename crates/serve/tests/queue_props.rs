//! Property tests for the scheduler's four hard rules, driven through a
//! controllable stub runner:
//!
//! * admission control — a full queue rejects with a `Retry-After` hint
//!   and never blocks the submitter;
//! * cancel-before-start — a cancelled queued job never reaches the
//!   runner;
//! * concurrency — a deadline-bounded job runs next to a plain one,
//!   while an oversized job (one that holds the whole memory limit)
//!   runs alone, with FIFO order preserved around it;
//! * drain-on-shutdown — in-flight jobs finish, queued jobs cancel, and
//!   shutdown returns without deadlock;
//! * supervision — a panicking spec is quarantined after the poison
//!   threshold and never re-dispatched, and the circuit breaker walks
//!   closed → open (shedding with `Retry-After`) → half-open (one
//!   probe) → closed on a probe success.

use foldic_fault::supervise::BreakerConfig;
use foldic_serve::cost::estimate_cost;
use foldic_serve::queue::{
    Durability, JobState, Scheduler, SchedulerConfig, StudyRunner, Submission,
};
use foldic_serve::JobSpec;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Runner whose jobs block until released, recording everything it runs.
#[derive(Default)]
struct GateRunner {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Job names whose `run` has been entered, in entry order.
    started: Vec<String>,
    /// Job names currently inside `run`.
    running: Vec<String>,
    /// Job names allowed to return from `run`.
    released: Vec<String>,
}

impl GateRunner {
    fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Lets `name` (already running or arriving later) finish.
    fn release(&self, name: &str) {
        let mut state = self.state.lock().unwrap();
        state.released.push(name.to_owned());
        self.cv.notify_all();
    }

    /// Blocks until `name` has entered `run`, failing after `timeout`.
    fn await_started(&self, name: &str, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().unwrap();
        while !state.started.iter().any(|s| s == name) {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(
                !left.is_zero(),
                "`{name}` never started: {:?}",
                state.started
            );
            state = self.cv.wait_timeout(state, left).unwrap().0;
        }
    }

    fn started(&self) -> Vec<String> {
        self.state.lock().unwrap().started.clone()
    }

    fn running_now(&self) -> Vec<String> {
        self.state.lock().unwrap().running.clone()
    }
}

impl StudyRunner for GateRunner {
    fn resolve(&self, spec: &JobSpec) -> Result<BTreeMap<String, String>, String> {
        let mut config = BTreeMap::new();
        config.insert("experiments".to_owned(), spec.experiments.join("+"));
        config.insert("size".to_owned(), spec.size.clone());
        if let Some(seed) = spec.seed {
            config.insert("seed".to_owned(), format!("{seed:#x}"));
        }
        if let Some(secs) = spec.deadline_secs {
            config.insert("deadline".to_owned(), format!("{secs}"));
        }
        Ok(config)
    }

    fn run(&self, spec: &JobSpec) -> Result<String, String> {
        let name = spec.experiments.join("+");
        let mut state = self.state.lock().unwrap();
        state.started.push(name.clone());
        state.running.push(name.clone());
        self.cv.notify_all();
        while !state.released.iter().any(|r| r == &name) {
            let (next, timed_out) = self
                .cv
                .wait_timeout(state, Duration::from_secs(30))
                .unwrap();
            state = next;
            assert!(!timed_out.timed_out(), "job `{name}` never released");
        }
        state.running.retain(|r| r != &name);
        self.cv.notify_all();
        Ok(format!("body:{name}"))
    }
}

fn spec(name: &str) -> JobSpec {
    JobSpec {
        experiments: vec![name.to_owned()],
        size: "tiny".to_owned(),
        ..JobSpec::default()
    }
}

fn queued(sub: Submission) -> u64 {
    match sub {
        Submission::Queued { id } => id,
        other => panic!("expected Queued, got {other:?}"),
    }
}

const WAIT: Duration = Duration::from_secs(20);

#[test]
fn full_queue_rejects_with_retry_after_and_recovers() {
    let runner = GateRunner::new();
    let sched = Scheduler::new(
        runner.clone(),
        SchedulerConfig {
            queue_capacity: 2,
            workers: 1,
            retry_after_secs: 7,
            ..SchedulerConfig::default()
        },
    );
    // `a` occupies the only worker; `b` and `c` fill the queue.
    let a = queued(sched.submit(spec("a")));
    runner.await_started("a", WAIT);
    let b = queued(sched.submit(spec("b")));
    let c = queued(sched.submit(spec("c")));
    // The queue is full: the next submission is rejected immediately,
    // carrying a load-derived hint — the configured base (7) plus one
    // second per worker-pool's worth of queued jobs (2 queued / 1
    // worker) — and is NOT recorded as a job.
    match sched.submit(spec("d")) {
        Submission::Rejected { retry_after_secs } => assert_eq!(retry_after_secs, 9),
        other => panic!("expected Rejected, got {other:?}"),
    }
    // Draining one slot re-admits.
    for name in ["a", "b", "c", "d"] {
        runner.release(name);
    }
    assert_eq!(sched.wait_terminal(a, WAIT), Some(JobState::Done));
    assert_eq!(sched.wait_terminal(b, WAIT), Some(JobState::Done));
    assert_eq!(sched.wait_terminal(c, WAIT), Some(JobState::Done));
    let d = queued(sched.submit(spec("d")));
    assert_eq!(sched.wait_terminal(d, WAIT), Some(JobState::Done));
    sched.shutdown();
}

#[test]
fn cancel_before_start_never_reaches_the_runner() {
    let runner = GateRunner::new();
    let sched = Scheduler::new(
        runner.clone(),
        SchedulerConfig {
            queue_capacity: 8,
            workers: 1,
            retry_after_secs: 1,
            ..SchedulerConfig::default()
        },
    );
    let a = queued(sched.submit(spec("a")));
    runner.await_started("a", WAIT);
    let b = queued(sched.submit(spec("b")));
    let c = queued(sched.submit(spec("c")));
    // `b` is cancelled while queued: terminal immediately…
    assert_eq!(sched.cancel(b), Some(JobState::Cancelled));
    assert_eq!(sched.status(b).unwrap().state, JobState::Cancelled);
    // …and cancelling again (or after the fact) is a no-op.
    assert_eq!(sched.cancel(b), Some(JobState::Cancelled));
    runner.release("a");
    runner.release("c");
    assert_eq!(sched.wait_terminal(a, WAIT), Some(JobState::Done));
    assert_eq!(sched.wait_terminal(c, WAIT), Some(JobState::Done));
    // the runner saw `a` and `c`, never `b`
    assert_eq!(runner.started(), ["a", "c"]);
    // cancelling a running or done job reports its state unchanged
    assert_eq!(sched.cancel(a), Some(JobState::Done));
    assert_eq!(sched.cancel(999), None);
    sched.shutdown();
}

#[test]
fn deadline_and_plain_jobs_run_concurrently() {
    let runner = GateRunner::new();
    let sched = Scheduler::new(
        runner.clone(),
        SchedulerConfig {
            queue_capacity: 8,
            workers: 2,
            retry_after_secs: 1,
            ..SchedulerConfig::default()
        },
    );
    let a = queued(sched.submit(spec("a")));
    runner.await_started("a", WAIT);
    // A deadline binds only its own run, so `d` takes the free worker
    // while `a` is still running.
    let mut dspec = spec("d");
    dspec.deadline_secs = Some(30.0);
    let d = queued(sched.submit(dspec));
    runner.await_started("d", WAIT);
    let mut running = runner.running_now();
    running.sort();
    assert_eq!(running, ["a", "d"]);
    for name in ["a", "d"] {
        runner.release(name);
    }
    for id in [a, d] {
        assert_eq!(sched.wait_terminal(id, WAIT), Some(JobState::Done));
    }
    sched.shutdown();
}

#[test]
fn oversized_jobs_dispatch_alone_in_fifo_order() {
    // The limit holds two tiny jobs side by side; a `full` job prices
    // above it outright and is admitted oversized, holding the whole
    // limit — so it must run alone.
    let limit = 2 * estimate_cost(&spec("a")).unwrap();
    let mut big = spec("o1");
    big.size = "full".to_owned();
    assert!(estimate_cost(&big).unwrap() > limit);
    let runner = GateRunner::new();
    let sched = Scheduler::new(
        runner.clone(),
        SchedulerConfig {
            queue_capacity: 8,
            workers: 2,
            retry_after_secs: 1,
            mem_limit: Some(limit),
        },
    );
    let a = queued(sched.submit(spec("a")));
    let b = queued(sched.submit(spec("b")));
    runner.await_started("a", WAIT);
    runner.await_started("b", WAIT);
    let o1 = queued(sched.submit(big.clone()));
    big.experiments = vec!["o2".to_owned()];
    let o2 = queued(sched.submit(big));
    // `o1` waits for both running jobs to drain, not just for a worker.
    runner.release("a");
    assert_eq!(sched.wait_terminal(a, WAIT), Some(JobState::Done));
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(runner.running_now(), ["b"]);
    assert_eq!(sched.status(o1).unwrap().state, JobState::Queued);
    // `b` finishes → `o1` runs alone; `o2` is held back with a worker
    // free.
    runner.release("b");
    runner.await_started("o1", WAIT);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(runner.running_now(), ["o1"]);
    assert_eq!(sched.status(o2).unwrap().state, JobState::Queued);
    runner.release("o1");
    runner.await_started("o2", WAIT);
    assert_eq!(runner.running_now(), ["o2"]);
    runner.release("o2");
    for id in [b, o1, o2] {
        assert_eq!(sched.wait_terminal(id, WAIT), Some(JobState::Done));
    }
    assert_eq!(runner.started(), ["a", "b", "o1", "o2"]);
    sched.shutdown();
}

#[test]
fn shutdown_drains_in_flight_and_cancels_queued_without_deadlock() {
    let runner = GateRunner::new();
    let sched = Arc::new(Scheduler::new(
        runner.clone(),
        SchedulerConfig {
            queue_capacity: 8,
            workers: 1,
            retry_after_secs: 1,
            ..SchedulerConfig::default()
        },
    ));
    let a = queued(sched.submit(spec("a")));
    runner.await_started("a", WAIT);
    let b = queued(sched.submit(spec("b")));
    // Release the in-flight job shortly after shutdown begins waiting on
    // it — if shutdown deadlocked, the test harness would hang here.
    let releaser = {
        let runner = runner.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            runner.release("a");
        })
    };
    sched.shutdown();
    releaser.join().unwrap();
    // in-flight drained to done, queued cancelled, nothing else ran
    assert_eq!(sched.status(a).unwrap().state, JobState::Done);
    assert_eq!(sched.status(b).unwrap().state, JobState::Cancelled);
    assert_eq!(runner.started(), ["a"]);
    // post-shutdown submissions are refused
    assert!(matches!(sched.submit(spec("c")), Submission::Draining));
    // shutdown is idempotent
    sched.shutdown();
}

#[test]
fn fifo_order_is_preserved_on_a_single_worker() {
    let runner = GateRunner::new();
    let sched = Scheduler::new(
        runner.clone(),
        SchedulerConfig {
            queue_capacity: 16,
            workers: 1,
            retry_after_secs: 1,
            ..SchedulerConfig::default()
        },
    );
    let names: Vec<String> = (0..8).map(|i| format!("job{i}")).collect();
    let ids: Vec<u64> = names
        .iter()
        .map(|name| {
            // pre-release so each job returns as soon as it starts
            runner.release(name);
            queued(sched.submit(spec(name)))
        })
        .collect();
    for id in ids {
        assert_eq!(sched.wait_terminal(id, WAIT), Some(JobState::Done));
    }
    assert_eq!(runner.started(), names);
    sched.shutdown();
}

/// Runner that panics on specs named `boom*` and counts `run` entries —
/// the stub behind the supervision properties.
#[derive(Default)]
struct CrashRunner {
    runs: AtomicU64,
}

impl StudyRunner for CrashRunner {
    fn resolve(&self, spec: &JobSpec) -> Result<BTreeMap<String, String>, String> {
        let mut config = BTreeMap::new();
        config.insert("experiments".to_owned(), spec.experiments.join("+"));
        config.insert("size".to_owned(), spec.size.clone());
        Ok(config)
    }

    fn run(&self, spec: &JobSpec) -> Result<String, String> {
        self.runs.fetch_add(1, Ordering::SeqCst);
        let name = spec.experiments.join("+");
        assert!(!name.starts_with("boom"), "crash requested by the test");
        Ok(format!("body:{name}"))
    }
}

fn breaker_durability(threshold: u32, cooldown: Duration) -> Durability {
    Durability {
        breaker: Some(BreakerConfig {
            failure_threshold: threshold,
            cooldown,
        }),
        ..Durability::default()
    }
}

/// Reads `durability.<field>` out of the stats document.
fn durability_num(sched: &Scheduler, field: &str) -> f64 {
    sched
        .stats_json()
        .get("durability")
        .and_then(|d| d.get(field))
        .and_then(foldic_obs::json::Json::as_f64)
        .unwrap_or_else(|| panic!("stats missing durability.{field}"))
}

#[test]
fn poisoned_spec_is_quarantined_and_other_specs_keep_running() {
    let runner = Arc::new(CrashRunner::default());
    let sched = Scheduler::with_durability(
        runner.clone(),
        SchedulerConfig {
            queue_capacity: 8,
            workers: 1,
            retry_after_secs: 1,
            ..SchedulerConfig::default()
        },
        foldic_serve::Telemetry::disabled(),
        breaker_durability(100, Duration::from_secs(60)),
    );
    // Two panics on the same spec digest reach the poison threshold.
    for _ in 0..2 {
        let id = queued(sched.submit(spec("boom")));
        assert_eq!(sched.wait_terminal(id, WAIT), Some(JobState::Failed));
    }
    assert_eq!(runner.runs.load(Ordering::SeqCst), 2);
    // The third submission is accepted (the digest is only known after
    // resolve) but quarantined at dispatch: failed, runner never entered.
    let id = queued(sched.submit(spec("boom")));
    assert_eq!(sched.wait_terminal(id, WAIT), Some(JobState::Failed));
    let status = sched.status(id).unwrap();
    let error = status.error.as_deref().unwrap_or("");
    assert!(error.contains("poisoned"), "unexpected error: {error}");
    assert_eq!(
        runner.runs.load(Ordering::SeqCst),
        2,
        "a poisoned spec must never be re-dispatched"
    );
    assert!(durability_num(&sched, "poisoned_jobs") >= 1.0);
    // Other specs are unaffected by the quarantine.
    let ok = queued(sched.submit(spec("fine")));
    assert_eq!(sched.wait_terminal(ok, WAIT), Some(JobState::Done));
    sched.shutdown();
}

#[test]
fn breaker_opens_sheds_with_retry_after_and_recovers_via_probe() {
    let runner = Arc::new(CrashRunner::default());
    // Threshold 2, long cooldown: after two panics every submission is
    // shed while the breaker is open.
    let sched = Scheduler::with_durability(
        runner.clone(),
        SchedulerConfig {
            queue_capacity: 8,
            workers: 1,
            retry_after_secs: 1,
            ..SchedulerConfig::default()
        },
        foldic_serve::Telemetry::disabled(),
        breaker_durability(2, Duration::from_secs(3600)),
    );
    // Distinct spec names → distinct digests, so the poison ledger never
    // triggers and each panic strikes the breaker once.
    for name in ["boom1", "boom2"] {
        let id = queued(sched.submit(spec(name)));
        assert_eq!(sched.wait_terminal(id, WAIT), Some(JobState::Failed));
    }
    match sched.submit(spec("fine")) {
        Submission::Shed { retry_after_secs } => assert!(retry_after_secs > 0),
        other => panic!("expected Shed while the breaker is open, got {other:?}"),
    }
    assert!(durability_num(&sched, "shed") >= 1.0);
    sched.shutdown();

    // Same failure pattern with a zero cooldown: the next submission is
    // admitted as the half-open probe, and its success closes the
    // breaker again for everything after it.
    let runner = Arc::new(CrashRunner::default());
    let sched = Scheduler::with_durability(
        runner.clone(),
        SchedulerConfig {
            queue_capacity: 8,
            workers: 1,
            retry_after_secs: 1,
            ..SchedulerConfig::default()
        },
        foldic_serve::Telemetry::disabled(),
        breaker_durability(2, Duration::ZERO),
    );
    for name in ["boom1", "boom2"] {
        let id = queued(sched.submit(spec(name)));
        assert_eq!(sched.wait_terminal(id, WAIT), Some(JobState::Failed));
    }
    let probe = queued(sched.submit(spec("probe")));
    assert_eq!(sched.wait_terminal(probe, WAIT), Some(JobState::Done));
    for i in 0..3 {
        let id = queued(sched.submit(spec(&format!("after{i}"))));
        assert_eq!(sched.wait_terminal(id, WAIT), Some(JobState::Done));
    }
    let breaker = sched.stats_json();
    let state = breaker
        .get("durability")
        .and_then(|d| d.get("breaker"))
        .and_then(|b| b.get("state"))
        .and_then(foldic_obs::json::Json::as_str)
        .map(str::to_owned)
        .unwrap_or_default();
    assert_eq!(state, "closed", "probe success must close the breaker");
    sched.shutdown();
}
