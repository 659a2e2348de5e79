#![warn(missing_docs)]
//! Deterministic work-stealing parallel execution engine.
//!
//! The paper's study is embarrassingly parallel: every table and figure
//! runs the §2.2 block flow over many independent (block, tier-count,
//! bonding-style) configurations. This crate fans those jobs out over a
//! small work-stealing thread pool built on [`std::thread::scope`] —
//! zero external dependencies, so the workspace stays offline-first.
//!
//! # Determinism contract
//!
//! [`par_map`] returns results **in submission order**, regardless of
//! which worker finished which job first. Combined with per-job RNG
//! streams (each job seeds its own generator from a stable
//! `(experiment, block, config)` key via `foldic_rng::derive_seed`),
//! parallel output is byte-identical to serial output. `threads = 1`
//! runs jobs inline on the caller's thread in submission order — the
//! reference against which the parallel path is tested.
//!
//! # Panic safety
//!
//! A panicking job never deadlocks the pool: the panic is caught, the
//! remaining jobs still run, and **every** payload is recorded at its
//! job's slot. [`par_map_caught`] exposes the per-job outcomes as
//! `Result<R, JobPanic>` — the API fault-tolerant callers build on —
//! while [`par_map`] keeps the fail-fast contract by re-raising the
//! payload of the **lowest-index** panicking job (deterministic across
//! thread counts, unlike first-to-finish) after the pool drains.
//!
//! # Instrumentation
//!
//! The [`profile`] module wraps flow stages (place / route / STA / opt /
//! power) in lightweight timers and iteration counters; the pool feeds
//! queue-depth and steal statistics into the same report. See
//! [`RunStats`] for the per-run numbers exposed programmatically.
//!
//! # Run context
//!
//! A fan-out stays inside its run: the pool captures the submitting
//! thread's `foldic_fault::RunCtx` next to its trace span and re-enters
//! it on the worker for every job, so deadlines, fault plans, fault
//! logs, memory budgets and profile reports of concurrent runs never
//! mix.

pub mod profile;

use foldic_fault::{CancelToken, RunCtx};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Statistics of one [`par_map_stats`] run, exposed so benches and tests
/// can assert on scheduling behavior.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of jobs executed (each exactly once).
    pub jobs: usize,
    /// Worker threads used (1 = inline serial execution).
    pub threads: usize,
    /// Jobs taken from another worker's queue.
    pub steals: usize,
    /// Largest backlog any worker's queue reached, sampled at dequeue.
    pub peak_queue_depth: usize,
    /// Wall time of the whole fan-out.
    pub wall: Duration,
}

/// Resolves a requested worker count.
///
/// `Some(n > 0)` wins; otherwise the `FOLDIC_THREADS` environment
/// variable; otherwise [`std::thread::available_parallelism`].
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        if n > 0 {
            return n;
        }
    }
    if let Ok(v) = std::env::var("FOLDIC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A panic captured at the job boundary by [`par_map_caught`] /
/// [`run_caught`].
pub struct JobPanic {
    /// Submission index of the job that panicked.
    pub index: usize,
    /// The raw panic payload, as handed to `catch_unwind`.
    pub payload: Box<dyn std::any::Any + Send>,
}

impl JobPanic {
    /// A human-readable form of the payload (`&str` / `String` payloads
    /// verbatim, anything else a placeholder). Typed payloads should be
    /// recovered from [`JobPanic::payload`] by downcast instead.
    pub fn message(&self) -> String {
        self.payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| self.payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned())
    }
}

impl std::fmt::Debug for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPanic")
            .field("index", &self.index)
            .field("message", &self.message())
            .finish()
    }
}

/// Runs one closure behind the same unwind boundary the pool uses,
/// returning the panic (if any) instead of propagating it.
///
/// # Errors
///
/// Returns the captured payload (index 0) when `f` panics.
pub fn run_caught<R>(f: impl FnOnce() -> R) -> Result<R, JobPanic> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| JobPanic { index: 0, payload })
}

/// Maps `f` over `items` on `threads` workers, returning results in
/// submission order. See the crate docs for the determinism and panic
/// contracts.
pub fn par_map<I, R, F>(threads: usize, items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    par_map_stats(threads, items, f).0
}

/// [`par_map`] variant that also returns the run's [`RunStats`].
///
/// Panic contract: if any job panics, every job still runs, then the
/// payload of the lowest-index panicking job is re-raised here.
pub fn par_map_stats<I, R, F>(threads: usize, items: Vec<I>, f: F) -> (Vec<R>, RunStats)
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    let (caught, stats) = par_map_caught_stats(threads, items, f);
    let results = caught
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(p) => resume_unwind(p.payload),
        })
        .collect();
    (results, stats)
}

/// Outcome of one job under cooperative cancellation
/// ([`run_cancellable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome<R, I> {
    /// The job ran to completion.
    Done(R),
    /// The cancel flag was set before the job body started; the input is
    /// handed back untouched so the caller can degrade or requeue it
    /// explicitly — no item is ever silently dropped.
    Skipped(I),
}

impl<R, I> JobOutcome<R, I> {
    /// The result, when the job ran.
    pub fn done(self) -> Option<R> {
        match self {
            JobOutcome::Done(r) => Some(r),
            JobOutcome::Skipped(_) => None,
        }
    }
}

/// [`par_map`] with cooperative cancellation: workers observe `cancel`
/// between jobs — the token is checked on the worker thread immediately
/// before each job body — so once it is cancelled, every not-yet-started
/// job comes back as [`JobOutcome::Skipped`] with its input intact
/// (still in submission order). In-flight jobs are *not* interrupted;
/// they are expected to poll the same token at their own coarse-grained
/// checkpoints (see `foldic-fault::deadline`).
///
/// The panic contract matches [`par_map`]: every job runs (or is
/// skipped), then the lowest-index panic is re-raised.
pub fn run_cancellable<I, R, F>(
    threads: usize,
    items: Vec<I>,
    cancel: &CancelToken,
    f: F,
) -> Vec<JobOutcome<R, I>>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    par_map(threads, items, |index, item| {
        if cancel.is_cancelled() {
            JobOutcome::Skipped(item)
        } else {
            JobOutcome::Done(f(index, item))
        }
    })
}

/// [`par_map`] variant for fault-tolerant callers: panics are captured
/// per job, so one failing job cannot take down its siblings' results.
pub fn par_map_caught<I, R, F>(threads: usize, items: Vec<I>, f: F) -> Vec<Result<R, JobPanic>>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    par_map_caught_stats(threads, items, f).0
}

/// [`par_map_caught`] variant that also returns the run's [`RunStats`].
pub fn par_map_caught_stats<I, R, F>(
    threads: usize,
    items: Vec<I>,
    f: F,
) -> (Vec<Result<R, JobPanic>>, RunStats)
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    let t0 = Instant::now();
    let n = items.len();
    let workers = threads.max(1).min(n.max(1));
    let mut stats = RunStats {
        jobs: n,
        threads: workers,
        ..RunStats::default()
    };

    if workers <= 1 {
        let results = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                catch_unwind(AssertUnwindSafe(|| {
                    let _span = foldic_obs::span!("job", idx = i, worker = 0usize);
                    f(i, item)
                }))
                .map_err(|payload| JobPanic { index: i, payload })
            })
            .collect();
        stats.wall = t0.elapsed();
        profile::note_run(&stats);
        return (results, stats);
    }

    // Capture the submitting span so jobs on pool workers (whose span
    // stacks start empty) still attribute to it, the submitting run so
    // jobs stay inside it, and the fan-out timestamp so each job span
    // carries its queue wait (`wait_us`) — scheduling delay stays
    // distinguishable from execution time.
    let parent_span = foldic_obs::trace::current_span();
    let run = RunCtx::current();
    let fanout_ns = foldic_obs::trace::now_ns();

    // Per-worker deques, filled round-robin so early jobs start early on
    // every worker. A worker pops its own queue from the front and steals
    // from the back of the longest other queue.
    let queues: Vec<Mutex<VecDeque<(usize, I)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        queues[i % workers].lock().unwrap().push_back((i, item));
    }

    let results: Mutex<Vec<Option<Result<R, JobPanic>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    let steals = AtomicUsize::new(0);
    let peak_depth = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for me in 0..workers {
            let queues = &queues;
            let results = &results;
            let steals = &steals;
            let peak_depth = &peak_depth;
            let f = &f;
            let run = &run;
            scope.spawn(move || loop {
                // own queue first
                let mut job = {
                    let mut q = queues[me].lock().unwrap();
                    let depth = q.len();
                    peak_depth.fetch_max(depth, Ordering::Relaxed);
                    q.pop_front()
                };
                // then steal from the most loaded victim
                if job.is_none() {
                    let victim = (0..workers)
                        .filter(|&w| w != me)
                        .max_by_key(|&w| queues[w].lock().unwrap().len());
                    if let Some(v) = victim {
                        job = queues[v].lock().unwrap().pop_back();
                        if let Some((idx, _)) = &job {
                            steals.fetch_add(1, Ordering::Relaxed);
                            if foldic_obs::trace::is_enabled() {
                                foldic_obs::trace::instant(
                                    "steal",
                                    vec![
                                        ("worker", me.into()),
                                        ("victim", v.into()),
                                        ("idx", (*idx).into()),
                                    ],
                                );
                            }
                        }
                    }
                }
                let Some((idx, item)) = job else {
                    // Every queue was empty at the moment we looked. Jobs
                    // cannot spawn jobs, so the set is fixed and emptiness
                    // is terminal for this worker.
                    break;
                };
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    foldic_obs::trace::run_with_parent(parent_span, || {
                        let _run = run.as_ref().map(RunCtx::enter);
                        let _span = foldic_obs::span!(
                            "job",
                            idx = idx,
                            worker = me,
                            wait_us = foldic_obs::trace::now_ns().saturating_sub(fanout_ns) / 1_000,
                        );
                        f(idx, item)
                    })
                }))
                .map_err(|payload| JobPanic {
                    index: idx,
                    payload,
                });
                results.lock().unwrap()[idx] = Some(outcome);
            });
        }
    });

    stats.steals = steals.into_inner();
    stats.peak_queue_depth = peak_depth.into_inner();
    stats.wall = t0.elapsed();
    let results = results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every job ran exactly once"))
        .collect();
    profile::note_run(&stats);
    (results, stats)
}

/// Maps `f` over mutable borrows in parallel.
///
/// Convenience wrapper for the common "run the flow on every block in
/// place" pattern: distinct `&mut T` are disjoint, so this is plain safe
/// [`par_map`] over the borrow vector.
pub fn par_map_mut<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    par_map(threads, items.iter_mut().collect(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_submission_order() {
        let out = par_map(4, (0..64).collect::<Vec<i64>>(), |i, x| {
            assert_eq!(i as i64, x);
            x * 2
        });
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..200).collect();
        let f = |_: usize, x: u64| x.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
        let serial = par_map(1, items.clone(), f);
        let parallel = par_map(8, items, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn stats_count_jobs() {
        let (_, stats) = par_map_stats(4, (0..40).collect::<Vec<usize>>(), |_, x| x);
        assert_eq!(stats.jobs, 40);
        assert_eq!(stats.threads, 4);
        assert!(stats.peak_queue_depth >= 1);
    }

    #[test]
    fn par_map_mut_mutates_in_place() {
        let mut v: Vec<usize> = (0..32).collect();
        let doubled = par_map_mut(4, &mut v, |_, x| {
            *x *= 2;
            *x
        });
        assert_eq!(v, (0..32).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(doubled, v);
    }

    #[test]
    fn caught_map_records_every_outcome() {
        for threads in [1, 4] {
            let out = par_map_caught(threads, (0..16).collect::<Vec<usize>>(), |_, x| {
                if x % 5 == 3 {
                    panic!("job {x} failed");
                }
                x * 10
            });
            assert_eq!(out.len(), 16);
            for (i, r) in out.iter().enumerate() {
                if i % 5 == 3 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.index, i, "threads={threads}");
                    assert_eq!(p.message(), format!("job {i} failed"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 10, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn par_map_reraises_lowest_index_panic() {
        for threads in [1, 4] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_map(threads, (0..32).collect::<Vec<usize>>(), |_, x| {
                    if x == 7 || x == 21 {
                        panic!("boom {x}");
                    }
                    x
                })
            }))
            .unwrap_err();
            let msg = caught.downcast_ref::<String>().cloned().unwrap();
            assert_eq!(msg, "boom 7", "threads={threads}: deterministic re-raise");
        }
    }

    #[test]
    fn run_caught_returns_value_or_payload() {
        assert_eq!(run_caught(|| 5).unwrap(), 5);
        let p = run_caught(|| -> u8 { panic!("solo") }).unwrap_err();
        assert_eq!(p.message(), "solo");
        // typed payloads survive for downcast by the caller
        let p = run_caught(|| std::panic::panic_any(42usize)).unwrap_err();
        assert_eq!(p.payload.downcast_ref::<usize>(), Some(&42));
        assert_eq!(p.message(), "non-string panic payload");
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = par_map(4, Vec::<u8>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn pre_cancelled_run_skips_every_job_in_order() {
        for threads in [1, 4] {
            let cancel = CancelToken::new();
            cancel.cancel();
            let out = run_cancellable(threads, (0..12).collect::<Vec<usize>>(), &cancel, |_, x| {
                x * 2
            });
            assert_eq!(out.len(), 12, "threads={threads}");
            for (i, o) in out.into_iter().enumerate() {
                assert_eq!(o, JobOutcome::Skipped(i), "threads={threads}");
            }
        }
    }

    #[test]
    fn cancellation_mid_run_skips_the_remaining_jobs() {
        // inline (threads=1) runs jobs strictly in order, so cancelling
        // inside job 2 deterministically skips jobs 3 and up
        let cancel = CancelToken::new();
        let out = run_cancellable(1, (0..8).collect::<Vec<usize>>(), &cancel, |i, x| {
            if i == 2 {
                cancel.cancel();
            }
            x * 10
        });
        for (i, o) in out.into_iter().enumerate() {
            if i <= 2 {
                assert_eq!(o, JobOutcome::Done(i * 10));
                assert_eq!(o.done(), Some(i * 10));
            } else {
                assert_eq!(o, JobOutcome::Skipped(i));
                assert_eq!(o.done(), None);
            }
        }
    }

    #[test]
    fn uncancelled_run_matches_par_map() {
        let cancel = CancelToken::new();
        let out = run_cancellable(4, (0..32).collect::<Vec<u64>>(), &cancel, |_, x| x + 1);
        let expect: Vec<JobOutcome<u64, u64>> = (0..32).map(|x| JobOutcome::Done(x + 1)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn concurrent_runs_stay_apart_across_pool_workers() {
        use foldic_fault::deadline::{poll, stage_scope};
        use foldic_fault::{
            log_fault, DeadlinePolicy, Disposition, FaultRecord, FlowStage, RunConfig,
        };
        use std::sync::Barrier;

        // Two runs, each on its own thread and fanning out over its own
        // pool. Run `a` is cancelled between its two fan-outs; run `b`
        // must not notice, and every record a pool job logs must land in
        // the run that submitted it.
        let barrier = Barrier::new(2);
        let run_one = |name: &'static str, cancel: bool| {
            let run = RunCtx::new(RunConfig {
                deadline: DeadlinePolicy {
                    overall: Some(Duration::from_secs(3600)),
                    ..DeadlinePolicy::default()
                },
                ..RunConfig::default()
            });
            let entered = run.enter();
            let fan_out = || {
                par_map(4, (0..16).collect::<Vec<u32>>(), |_, i| {
                    let scope = stage_scope(FlowStage::Place, name, i);
                    let ok = scope.is_ok() && poll().is_ok();
                    log_fault(FaultRecord {
                        scope: name.to_owned(),
                        block: format!("b{i:02}"),
                        stage: FlowStage::Place,
                        attempts: 1,
                        disposition: Disposition::Recovered,
                        timed_out: false,
                        mem_exceeded: false,
                    });
                    ok
                })
            };
            assert!(fan_out().into_iter().all(|ok| ok), "{name}: first fan-out");
            barrier.wait();
            if cancel {
                run.token().cancel();
            }
            barrier.wait();
            let second = fan_out();
            drop(entered);
            (second, run.finish())
        };
        let ((a_second, a), (b_second, b)) = std::thread::scope(|s| {
            let a = s.spawn(|| run_one("a", true));
            let b = s.spawn(|| run_one("b", false));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(a_second.iter().all(|ok| !ok), "the cancelled run stops");
        assert!(b_second.iter().all(|ok| *ok), "the other run is untouched");
        for (name, outcome) in [("a", a), ("b", b)] {
            assert_eq!(outcome.faults.len(), 32, "{name}: both fan-outs logged");
            assert!(outcome.faults.iter().all(|r| r.scope == name), "{name}");
        }
    }

    #[test]
    fn pool_jobs_attribute_to_the_submitting_span() {
        use foldic_obs::trace;
        trace::set_enabled(true);
        let submit_id = {
            let submit = foldic_obs::span!("fanout_test");
            let id = submit.id().unwrap();
            let out = par_map(4, (0..16).collect::<Vec<usize>>(), |_, x| x * 3);
            assert_eq!(out, (0..16).map(|x| x * 3).collect::<Vec<_>>());
            id
        };
        trace::set_enabled(false);
        let events = trace::take_events();
        // Other tests may run par_map concurrently; only count jobs that
        // claim *our* span as parent.
        let mine: Vec<_> = events
            .iter()
            .filter(|e| {
                e.name == "job" && e.kind == trace::EventKind::Begin && e.parent == Some(submit_id)
            })
            .collect();
        assert_eq!(mine.len(), 16, "every pool job inherits the fan-out span");
        // jobs really ran on pool workers, not the submitting thread
        let submit_tid = events
            .iter()
            .find(|e| e.name == "fanout_test")
            .map(|e| e.tid)
            .unwrap();
        assert!(mine.iter().all(|e| e.tid != submit_tid));
    }
}
