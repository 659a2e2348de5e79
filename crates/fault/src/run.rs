//! The per-run context: everything one run owns, shared with no other.
//!
//! A [`RunCtx`] carries the run's cancel token and deadline limits, its
//! fault plan and fault log, its memory policy and per-stage peaks, and
//! its `--profile` report. A thread runs under a context between
//! [`RunCtx::enter`] and the drop of the returned guard, and
//! `foldic-exec` pool workers re-enter the submitting thread's context
//! for every job, so two runs in one process never observe each other's
//! budgets, faults or provenance. The readers the flow calls
//! (`stage_scope`, `poll`, `fault_point`, `log_fault`, `job_scope`, the
//! profile hooks) consult the calling thread's context and are no-ops
//! outside one. With no context, or one arming neither a deadline nor a
//! memory policy, `poll` and the tracking allocator cost one read of a
//! const-initialized thread-local and never allocate.

use crate::deadline::{BudgetSplit, CancelToken, Deadline, DeadlinePolicy, Watchdog};
use crate::inject::FaultPlan;
use crate::resource::ResourcePolicy;
use crate::retry::{Disposition, FaultRecord};
use crate::FlowStage;
use foldic_obs::manifest::RunManifest;
use foldic_obs::profile::Report;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// `poll` has work to do: the context carries a deadline or memory policy.
pub(crate) const ARM_POLL: u8 = 1;
/// The tracking allocator counts: the context carries a memory policy.
pub(crate) const ARM_MEM: u8 = 2;
/// The profile hooks record: the context keeps a `--profile` report.
const ARM_PROFILE: u8 = 4;

thread_local! {
    static CURRENT: RefCell<Option<RunCtx>> = const { RefCell::new(None) };
    /// The current context's armed layers. `Cell<u8>` with const init:
    /// no lazy allocation and no destructor, so the allocator may read it.
    static ARMED: Cell<u8> = const { Cell::new(0) };
}

/// The layers the calling thread's context arms (0 outside any context).
#[inline]
pub(crate) fn armed() -> u8 {
    // try_with: the allocator runs during TLS teardown too.
    ARMED.try_with(Cell::get).unwrap_or(0)
}

/// Runs `f` on the calling thread's context, if it has one.
pub(crate) fn with_current<R>(f: impl FnOnce(&Shared) -> R) -> Option<R> {
    CURRENT
        .try_with(|c| c.borrow().as_ref().map(|run| f(&run.shared)))
        .ok()
        .flatten()
}

/// `true` while the calling thread's context keeps a profile report.
#[inline]
pub fn profiling() -> bool {
    armed() & ARM_PROFILE != 0
}

/// Hands the calling thread's profile report to `f` (no-op outside a
/// profiling context).
pub fn with_profile(f: impl FnOnce(&mut Report)) {
    if !profiling() {
        return;
    }
    with_current(|run| {
        if let Some(report) = &run.profile {
            f(&mut report.lock().unwrap_or_else(|e| e.into_inner()));
        }
    });
}

/// What a run enforces and records. Every field defaults to off; an
/// empty policy arms nothing.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Scope label of the timed-out record an expired overall deadline
    /// leaves in the fault log (`"run"` for `repro`, `"serve"` for the
    /// daemon).
    pub scope: &'static str,
    /// Wall-clock budgets. The overall budget is anchored when the
    /// context is built, and a watchdog trips the run's token when it
    /// expires.
    pub deadline: DeadlinePolicy,
    /// Fault-injection sites.
    pub faults: Option<FaultPlan>,
    /// Memory budgets. A non-empty policy also records per-stage peaks.
    pub memory: ResourcePolicy,
    /// Keep a `--profile` report.
    pub profile: bool,
}

/// Deadline limits, anchored when the context was built.
pub(crate) struct Limits {
    pub(crate) overall: Option<Deadline>,
    pub(crate) stage_budgets: Vec<(FlowStage, Duration)>,
    pub(crate) split: BudgetSplit,
}

/// The state behind a [`RunCtx`], shared by every thread in the run.
pub(crate) struct Shared {
    scope: &'static str,
    pub(crate) token: CancelToken,
    pub(crate) limits: Option<Limits>,
    pub(crate) plan: Option<FaultPlan>,
    pub(crate) memory: Option<ResourcePolicy>,
    armed: u8,
    log: Mutex<Vec<FaultRecord>>,
    peaks: Mutex<[i64; FlowStage::ALL.len()]>,
    profile: Option<Mutex<Report>>,
    watchdog: Mutex<Option<Watchdog>>,
}

impl Shared {
    pub(crate) fn log(&self, record: FaultRecord) {
        self.log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(record);
    }

    /// Max-merges one popped memory scope's peak into its stage's slot.
    pub(crate) fn fold_peak(&self, stage: FlowStage, peak: i64) {
        let idx = FlowStage::ALL
            .iter()
            .position(|s| *s == stage)
            .unwrap_or(FlowStage::ALL.len() - 1);
        let mut peaks = self.peaks.lock().unwrap_or_else(|e| e.into_inner());
        peaks[idx] = peaks[idx].max(peak);
    }
}

/// One run's context. Clones share the same run.
#[derive(Clone)]
pub struct RunCtx {
    shared: Arc<Shared>,
}

impl RunCtx {
    /// Builds a context, anchoring the overall deadline now and spawning
    /// its watchdog.
    pub fn new(cfg: RunConfig) -> Self {
        let token = CancelToken::new();
        let limits = (!cfg.deadline.is_empty()).then(|| Limits {
            overall: cfg.deadline.overall.map(Deadline::new),
            stage_budgets: cfg.deadline.stage_budgets,
            split: cfg.deadline.split.unwrap_or_default(),
        });
        let watchdog = limits
            .as_ref()
            .and_then(|l| l.overall)
            .map(|overall| Watchdog::spawn(overall, token.clone()));
        if cfg.faults.is_some() {
            crate::inject::silence_injected_panics();
        }
        let memory = (!cfg.memory.is_empty()).then_some(cfg.memory);
        let mut armed = 0;
        if limits.is_some() || memory.is_some() {
            armed |= ARM_POLL;
        }
        if memory.is_some() {
            armed |= ARM_MEM;
        }
        if cfg.profile {
            armed |= ARM_PROFILE;
        }
        Self {
            shared: Arc::new(Shared {
                scope: cfg.scope,
                token,
                limits,
                plan: cfg.faults,
                memory,
                armed,
                log: Mutex::new(Vec::new()),
                peaks: Mutex::new([0; FlowStage::ALL.len()]),
                profile: cfg.profile.then(|| Mutex::new(Report::default())),
                watchdog: Mutex::new(watchdog),
            }),
        }
    }

    /// The context the calling thread runs under, if any. `foldic-exec`
    /// captures it at a fan-out and re-enters it on the pool workers.
    pub fn current() -> Option<RunCtx> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Runs the calling thread under this context until the guard drops;
    /// the guard then restores whatever context was current before.
    pub fn enter(&self) -> Entered {
        let prev = CURRENT.with(|c| c.replace(Some(self.clone())));
        let prev_armed = ARMED.with(|a| a.replace(self.shared.armed));
        Entered {
            prev,
            prev_armed,
            _not_send: PhantomData,
        }
    }

    /// The run's cancel token. The watchdog trips it when the overall
    /// deadline expires; cancelling it by hand stops the run the same way.
    pub fn token(&self) -> &CancelToken {
        &self.shared.token
    }

    /// Takes the profile report accumulated so far, leaving an empty one
    /// (an empty report when the run does not profile).
    pub fn take_profile(&self) -> Report {
        self.shared
            .profile
            .as_ref()
            .map(|report| std::mem::take(&mut *report.lock().unwrap_or_else(|e| e.into_inner())))
            .unwrap_or_default()
    }

    /// Ends the run: disarms the watchdog (recording a timed-out record
    /// when it tripped first), drains the fault log and takes the peaks.
    pub fn finish(self) -> RunOutcome {
        let shared = &self.shared;
        let watchdog = shared
            .watchdog
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        let deadline_tripped = watchdog.is_some_and(Watchdog::disarm);
        if deadline_tripped {
            shared.log(FaultRecord {
                scope: shared.scope.to_owned(),
                block: "*".to_owned(),
                stage: FlowStage::Job,
                attempts: 0,
                disposition: Disposition::Degraded,
                timed_out: true,
                mem_exceeded: false,
            });
        }
        let mut records =
            std::mem::take(&mut *shared.log.lock().unwrap_or_else(|e| e.into_inner()));
        // a stable order (scope, block, stage) keeps manifests identical
        // across thread counts
        records.sort();
        let (timeouts, rest): (Vec<_>, Vec<_>) = records.into_iter().partition(|r| r.timed_out);
        let (mem_exceeded, faults) = rest.into_iter().partition(|r| r.mem_exceeded);
        let resources = shared.memory.as_ref().map(|_| {
            let peaks = *shared.peaks.lock().unwrap_or_else(|e| e.into_inner());
            FlowStage::ALL
                .into_iter()
                .zip(peaks)
                .filter(|(_, peak)| *peak > 0)
                .map(|(stage, peak)| (stage, peak as u64))
                .collect()
        });
        RunOutcome {
            faults,
            timeouts,
            mem_exceeded,
            resources,
            deadline_tripped,
        }
    }
}

/// Returned by [`RunCtx::enter`]; restores the previous context on drop.
/// Not `Send`: a context is entered and left on the same thread.
#[must_use = "dropping the guard immediately leaves the run context"]
pub struct Entered {
    prev: Option<RunCtx>,
    prev_armed: u8,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ARMED.with(|a| a.set(self.prev_armed));
        let left = CURRENT.with(|c| c.replace(prev));
        drop(left);
    }
}

/// What a finished run recorded, its fault log sorted and split by cause.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// Blocks that recovered or degraded for any other cause.
    pub faults: Vec<FaultRecord>,
    /// Blocks stopped by a wall-clock budget.
    pub timeouts: Vec<FaultRecord>,
    /// Blocks stopped by a memory budget.
    pub mem_exceeded: Vec<FaultRecord>,
    /// Peak net bytes per stage, in flow order — `Some` only when the run
    /// carried a memory policy, so unbudgeted runs have no such section.
    pub resources: Option<Vec<(FlowStage, u64)>>,
    /// `true` when the overall deadline expired before the run finished.
    pub deadline_tripped: bool,
}

impl RunOutcome {
    /// Writes the manifest's `faults`, `timeouts` and `mem_exceeded`
    /// sections, and its `resources` section when the run was budgeted.
    pub fn write_manifest(&self, manifest: &mut RunManifest) {
        let entries =
            |records: &[FaultRecord]| records.iter().map(FaultRecord::to_manifest_entry).collect();
        manifest.faults = entries(&self.faults);
        manifest.timeouts = entries(&self.timeouts);
        manifest.mem_exceeded = entries(&self.mem_exceeded);
        if let Some(peaks) = &self.resources {
            manifest.resources = peaks
                .iter()
                .map(|(stage, bytes)| (stage.to_string(), *bytes))
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::{poll, stage_scope};
    use crate::{fault_point, job_scope, log_fault, FaultKind};

    fn record(scope: &str, timed_out: bool, mem_exceeded: bool) -> FaultRecord {
        FaultRecord {
            scope: scope.to_owned(),
            block: "b".to_owned(),
            stage: FlowStage::Route,
            attempts: 3,
            disposition: Disposition::Degraded,
            timed_out,
            mem_exceeded,
        }
    }

    #[test]
    fn readers_are_no_ops_outside_any_context_and_enter_nests() {
        let plan = FaultPlan::single(FlowStage::Route, "b", FaultKind::Error, None);
        let outer = RunCtx::new(RunConfig {
            faults: Some(plan),
            profile: true,
            ..RunConfig::default()
        });
        let inner = RunCtx::new(RunConfig::default());
        let no_context = || {
            assert!(RunCtx::current().is_none() && armed() == 0);
            let _scope = stage_scope(FlowStage::Route, "b", 0).unwrap();
            let _mem = job_scope("b", 0);
            assert!(poll().is_ok() && fault_point(FlowStage::Route, "b", 0).is_ok());
            log_fault(record("lost", false, false)); // nowhere to go: dropped
        };
        no_context();
        {
            let _o = outer.enter();
            assert!(profiling() && fault_point(FlowStage::Route, "b", 0).is_err());
            {
                let _i = inner.enter();
                assert!(!profiling() && fault_point(FlowStage::Route, "b", 0).is_ok());
                log_fault(record("inner", false, false));
            }
            assert!(profiling());
            log_fault(record("outer", false, false));
        }
        no_context();
        assert_eq!(inner.finish().faults, [record("inner", false, false)]);
        assert_eq!(outer.finish().faults, [record("outer", false, false)]);
    }

    #[test]
    fn finish_sorts_and_partitions_the_log() {
        let run = RunCtx::new(RunConfig::default());
        {
            let _e = run.enter();
            for r in [("z", false, false), ("a", false, false), ("t", true, false)] {
                log_fault(record(r.0, r.1, r.2));
            }
            log_fault(record("m", false, true));
        }
        let outcome = run.finish();
        let scopes: Vec<&str> = outcome.faults.iter().map(|r| r.scope.as_str()).collect();
        assert_eq!(scopes, ["a", "z"]);
        assert!(outcome.resources.is_none(), "no memory policy, no section");
        let mut manifest = RunManifest::default();
        outcome.write_manifest(&mut manifest);
        assert_eq!(manifest.faults.len(), 2);
        assert_eq!(manifest.timeouts[0].scope, "t");
        assert_eq!(manifest.mem_exceeded[0].scope, "m");
        assert!(manifest.resources.is_empty());
    }

    #[test]
    fn expired_overall_deadline_is_recorded_at_finish() {
        let run = RunCtx::new(RunConfig {
            scope: "wd-test",
            deadline: DeadlinePolicy {
                overall: Some(Duration::from_millis(10)),
                ..DeadlinePolicy::default()
            },
            ..RunConfig::default()
        });
        let t0 = std::time::Instant::now();
        while !run.token().is_cancelled() && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let outcome = run.finish();
        assert!(outcome.deadline_tripped, "the watchdog trips the token");
        let trip = &outcome.timeouts[0];
        assert_eq!((trip.scope.as_str(), trip.block.as_str()), ("wd-test", "*"));
        assert_eq!(trip.stage, FlowStage::Job);
    }
}
