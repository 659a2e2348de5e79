//! Lightweight per-stage instrumentation.
//!
//! Flow code wraps each stage in [`stage`] (or a [`StageTimer`] guard)
//! and reports iteration counts through [`add_iters`]; the pool feeds
//! queue statistics in through `note_run`. Everything lands in the
//! [`Report`] of the calling thread's run context, which records only
//! when the run was built with `profile` on (`repro --profile`). Outside
//! such a run each hook costs one thread-local read, so the hooks stay
//! in release builds.
//!
//! Stage names nest: a stage started while another is active records
//! under `outer/inner`, so per-block flow stages inside a parallel
//! full-chip run stay distinguishable.

use std::cell::RefCell;
use std::time::Instant;

use foldic_fault::run::{profiling, with_profile};
pub use foldic_obs::profile::{Report, StageStats};

use crate::RunStats;

thread_local! {
    static STAGE_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` as a named stage, recording wall time when the run profiles
/// and a trace span when tracing is on.
pub fn stage<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !profiling() && !foldic_obs::trace::is_enabled() {
        return f();
    }
    let _guard = StageTimer::start(name);
    f()
}

/// Adds `n` iterations to the innermost active stage (no-op when the run
/// does not profile or no stage is active). Call once per entry point
/// with a count — not once per inner-loop iteration.
pub fn add_iters(n: u64) {
    if !profiling() || n == 0 {
        return;
    }
    let name = STAGE_STACK.with(|a| a.borrow().join("/"));
    if name.is_empty() {
        return;
    }
    with_profile(|report| report.add_iters(name, n));
}

/// Feeds one pool run's scheduling stats into the report.
pub(crate) fn note_run(stats: &RunStats) {
    with_profile(|report| report.note_run(stats.jobs, stats.steals, stats.peak_queue_depth));
}

/// RAII stage timer: records on drop, so early returns and panics inside
/// the stage still count. Each stage doubles as a trace span, so
/// `--trace` output shows the same names as `--profile`.
pub struct StageTimer {
    name: &'static str,
    start: Instant,
    _span: foldic_obs::trace::SpanGuard,
}

impl StageTimer {
    /// Starts a stage; it ends when the guard drops.
    pub fn start(name: &'static str) -> Self {
        STAGE_STACK.with(|a| a.borrow_mut().push(name));
        Self {
            name,
            start: Instant::now(),
            _span: foldic_obs::trace::SpanGuard::enter(name),
        }
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        let wall = self.start.elapsed();
        let full = STAGE_STACK.with(|a| {
            let mut a = a.borrow_mut();
            let full = a.join("/");
            debug_assert_eq!(a.last().copied(), Some(self.name));
            a.pop();
            full
        });
        // stage() also opens timers for trace-only runs; with_profile
        // only feeds a run that profiles
        with_profile(|report| report.record_stage(full, wall));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_fault::{RunConfig, RunCtx};

    fn profiled() -> RunCtx {
        RunCtx::new(RunConfig {
            profile: true,
            ..RunConfig::default()
        })
    }

    #[test]
    fn records_stages_iters_and_nesting() {
        let run = profiled();
        {
            let _e = run.enter();
            stage("outer", || {
                add_iters(3);
                stage("inner", || add_iters(2));
            });
            stage("outer", || add_iters(1));
        }
        let report = run.take_profile();

        let outer = report.stages.get("outer").expect("outer recorded");
        assert_eq!(outer.calls, 2);
        assert_eq!(outer.iters, 4);
        let inner = report.stages.get("outer/inner").expect("nested name");
        assert_eq!(inner.calls, 1);
        assert_eq!(inner.iters, 2);
        let rendered = report.to_string();
        assert!(rendered.contains("outer/inner"));

        // outside the run => nothing recorded, stage still runs
        let mut ran = false;
        stage("ghost", || ran = true);
        assert!(ran);
        assert!(run.take_profile().stages.is_empty());
    }

    #[test]
    fn pool_stats_feed_the_report() {
        let run = profiled();
        let _e = run.enter();
        let _ = crate::par_map(4, (0..32).collect::<Vec<usize>>(), |_, x| x + 1);
        let report = run.take_profile();
        assert_eq!(report.jobs, 32);
        assert_eq!(report.runs, 1);
    }

    #[test]
    fn pool_jobs_record_into_the_submitting_run() {
        let run = profiled();
        let _e = run.enter();
        let _ = crate::par_map(4, (0..8).collect::<Vec<usize>>(), |_, x| {
            stage("job_stage", || x)
        });
        let report = run.take_profile();
        assert_eq!(report.stages["job_stage"].calls, 8);
    }
}
