//! Cooperative deadlines, cancellation, and the run watchdog.
//!
//! The flow's iterative kernels (floorplan SA, analytical placement,
//! routing, optimization rounds) have input-dependent runtime; a run that
//! hangs or silently blows its time budget invalidates a PPA comparison
//! just as surely as a crash. This module bounds wall-clock time the same
//! way `inject`/`retry` bound crashes — cooperatively and
//! deterministically:
//!
//! * a [`CancelToken`] is a shared atomic flag: cancellation is always
//!   *requested*, never preemptive, so a kernel is only interrupted at
//!   the coarse-grained poll points it opts into (per temperature step,
//!   per net, per solver iteration — never per move);
//! * a [`Deadline`] is a monotonic-clock budget; stage budgets derive
//!   from the run's remaining budget via a configurable [`BudgetSplit`]
//!   unless the policy gives an explicit per-stage override;
//! * a watchdog thread trips the run token when the overall deadline
//!   expires, so even a kernel between poll points is cancelled at its
//!   next checkpoint ([`RunCtx::finish`](crate::RunCtx::finish) then
//!   records the trip as a timed-out [`FaultRecord`](crate::FaultRecord));
//! * a timed-out stage surfaces as a recoverable
//!   [`FaultCause::TimedOut`] [`FlowError`], so the existing retry →
//!   degrade machinery applies unchanged. A retry gets a *larger* share
//!   of the remaining budget (the base stage budget scaled by the
//!   attempt number, clamped to what is left overall), not a fresh one.
//!
//! Determinism: results are only ever gated on the degrade path — a
//! cancelled stage discards its partial work entirely (the full-chip
//! loop restores the pristine block before degrading), so reports stay
//! byte-identical across thread counts whenever the same set of blocks
//! times out.
//!
//! The policy, the token and the watchdog belong to one
//! [`RunCtx`](crate::RunCtx); the stage scopes below read the calling
//! thread's context. Everything is pay-for-use: outside a context with a
//! deadline or memory policy, [`poll`] is a single thread-local read.

use crate::{FaultCause, FlowError, FlowStage};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// A shared cancellation flag. Clones observe the same flag; checking it
/// is one relaxed atomic load, cheap enough for per-iteration polls.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A monotonic-clock wall-time budget, anchored when constructed.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline starting now with the given budget.
    pub fn new(budget: Duration) -> Self {
        Self {
            start: Instant::now(),
            budget,
        }
    }

    /// The instant the budget runs out.
    pub fn expires_at(&self) -> Instant {
        self.start + self.budget
    }

    /// Budget left, saturating at zero.
    pub fn remaining(&self) -> Duration {
        self.expires_at().saturating_duration_since(Instant::now())
    }

    /// `true` once the budget is spent.
    pub fn expired(&self) -> bool {
        self.remaining().is_zero()
    }
}

/// Default share of the run's *remaining* budget a single stage entry
/// may spend, per [`FlowStage`]. These are heuristics reflecting where
/// the flow's wall time actually goes (placement and optimization
/// dominate); explicit `--stage-timeout` overrides always win.
#[derive(Debug, Clone, Copy)]
pub struct BudgetSplit {
    fractions: [f64; FlowStage::ALL.len()],
}

impl Default for BudgetSplit {
    fn default() -> Self {
        let mut fractions = [0.0; FlowStage::ALL.len()];
        for (slot, stage) in fractions.iter_mut().zip(FlowStage::ALL) {
            *slot = match stage {
                FlowStage::Validate => 0.02,
                FlowStage::Partition => 0.10,
                FlowStage::Place => 0.35,
                FlowStage::Opt => 0.25,
                FlowStage::Route => 0.15,
                FlowStage::Sta => 0.10,
                FlowStage::Power => 0.05,
                FlowStage::Floorplan => 0.25,
                FlowStage::Job => 1.0,
            };
        }
        Self { fractions }
    }
}

impl BudgetSplit {
    /// The share for one stage (in `0.0..=1.0`).
    pub fn fraction(&self, stage: FlowStage) -> f64 {
        let idx = FlowStage::ALL.iter().position(|s| *s == stage);
        idx.map_or(1.0, |i| self.fractions[i])
    }
}

/// What to enforce: an optional overall run budget, optional explicit
/// per-stage budgets, and the split used to derive stage budgets from
/// the overall one when no override is given.
#[derive(Debug, Clone, Default)]
pub struct DeadlinePolicy {
    /// Overall wall-clock budget for the whole run, if any.
    pub overall: Option<Duration>,
    /// Explicit per-stage budgets (`--stage-timeout STAGE=SECS`).
    pub stage_budgets: Vec<(FlowStage, Duration)>,
    /// Split used to derive stage budgets from `overall`.
    pub split: Option<BudgetSplit>,
}

impl DeadlinePolicy {
    /// `true` when the policy enforces nothing (a run arms no deadline).
    pub fn is_empty(&self) -> bool {
        self.overall.is_none() && self.stage_budgets.is_empty()
    }
}

fn never_token() -> &'static CancelToken {
    static NEVER: OnceLock<CancelToken> = OnceLock::new();
    NEVER.get_or_init(CancelToken::new)
}

/// The calling thread's run token — its [`RunCtx`](crate::RunCtx)'s, or
/// a shared token that is never cancelled outside any context, so
/// fan-out call sites need no branching.
pub fn run_token() -> CancelToken {
    crate::run::with_current(|run| run.token.clone()).unwrap_or_else(|| never_token().clone())
}

/// `true` when the current run's deadline policy carries an *explicit*
/// budget for `stage`. Chip-level serial stages only opt into a
/// wall-clock scope on an explicit `--stage-timeout` (a derived share
/// would turn the one non-retryable stage into a timing-dependent chip
/// failure).
pub fn has_stage_override(stage: FlowStage) -> bool {
    crate::run::with_current(|run| {
        run.limits
            .as_ref()
            .is_some_and(|l| l.stage_budgets.iter().any(|(s, _)| *s == stage))
    })
    .unwrap_or(false)
}

/// One entry on the calling thread's stage-scope stack.
struct Scope {
    stage: FlowStage,
    block: String,
    /// `None` means no wall-clock bound for this stage (token-only).
    expires_at: Option<Instant>,
}

thread_local! {
    static SCOPES: RefCell<Vec<Scope>> = const { RefCell::new(Vec::new()) };
}

/// Pops its scope(s) when dropped; returned by [`stage_scope`].
#[derive(Debug)]
#[must_use = "dropping the guard immediately ends the stage scope"]
pub struct StageGuard {
    pushed: bool,
    mem_pushed: bool,
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        if self.mem_pushed {
            crate::resource::pop_stage();
        }
        if self.pushed {
            SCOPES.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

fn timed_out(stage: FlowStage, block: &str, msg: impl Into<String>) -> FlowError {
    FlowError {
        stage,
        block: Some(block.to_owned()),
        cause: FaultCause::TimedOut(msg.into()),
    }
}

/// Enters a wall-clock scope for one stage of one block's flow, on the
/// calling thread. Inside the scope, [`poll`] (and [`poll_unwind`])
/// check the stage's budget and the run token at the kernel's
/// coarse-grained checkpoints.
///
/// The effective budget is the explicit per-stage override when the
/// run's policy has one, otherwise the [`BudgetSplit`] share of the
/// run's remaining budget; either way it is scaled by `attempt + 1` — a
/// retry gets a larger share of what is left, not a fresh budget — and
/// clamped to the overall remaining budget. Outside a context with a
/// deadline policy this is free and always succeeds.
///
/// # Errors
///
/// Returns a [`FaultCause::TimedOut`] error (recoverable, so the normal
/// retry → degrade path applies) when the run is already cancelled, the
/// overall deadline has already expired at stage entry, or the stage's
/// budget works out to zero.
pub fn stage_scope(stage: FlowStage, block: &str, attempt: u32) -> Result<StageGuard, FlowError> {
    let entry = crate::run::with_current(|run| {
        run.limits
            .as_ref()
            .map(|limits| limits.stage_end(&run.token, stage, attempt))
    })
    .flatten();
    let pushed = match entry {
        None => false,
        Some(Err(msg)) => return Err(timed_out(stage, block, msg)),
        Some(Ok(expires_at)) => {
            SCOPES.with(|s| {
                s.borrow_mut().push(Scope {
                    stage,
                    block: block.to_owned(),
                    expires_at,
                })
            });
            true
        }
    };
    // The memory layer scopes the same stage entries: pushed only after
    // the deadline checks pass, so an entry error leaks no scope.
    let mem_pushed = crate::resource::push_stage(stage, block, attempt);
    Ok(StageGuard { pushed, mem_pushed })
}

impl crate::run::Limits {
    /// When a stage entered now ends (`None`: no wall-clock bound), or
    /// why it may not start at all.
    fn stage_end(
        &self,
        token: &CancelToken,
        stage: FlowStage,
        attempt: u32,
    ) -> Result<Option<Instant>, &'static str> {
        if token.is_cancelled() {
            return Err("run cancelled before stage entry");
        }
        let overall_end = self.overall.map(|d| d.expires_at());
        let now = Instant::now();
        if overall_end.is_some_and(|end| end <= now) {
            return Err("run deadline expired before stage entry");
        }
        let base = self
            .stage_budgets
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, d)| *d)
            .or_else(|| {
                self.overall
                    .map(|d| d.remaining().mul_f64(self.split.fraction(stage)))
            });
        let Some(budget) = base else {
            return Ok(overall_end);
        };
        let scaled = budget.saturating_mul(attempt.saturating_add(1));
        if scaled.is_zero() {
            return Err("stage budget is zero");
        }
        let end = now + scaled;
        Ok(Some(overall_end.map_or(end, |o| end.min(o))))
    }
}

/// The cooperative checkpoint kernels call at coarse-grained intervals
/// (per temperature step, per net, per solver iteration). Outside any
/// stage scope — or outside a run context with a deadline or memory
/// policy — this is a no-op costing one thread-local read.
///
/// # Errors
///
/// Returns a [`FaultCause::TimedOut`] error attributed to the innermost
/// scope's stage and block when the run token is cancelled or the
/// stage's budget is spent, or a
/// [`FaultCause::MemExceeded`](crate::FaultCause::MemExceeded) error
/// when a scope on this thread breached its memory budget.
pub fn poll() -> Result<(), FlowError> {
    if crate::run::armed() & crate::run::ARM_POLL == 0 {
        return Ok(());
    }
    SCOPES.with(|s| {
        let scopes = s.borrow();
        let Some(top) = scopes.last() else {
            return Ok(());
        };
        if crate::run::with_current(|run| run.token.is_cancelled()).unwrap_or(false) {
            return Err(timed_out(top.stage, &top.block, "run cancelled"));
        }
        if top.expires_at.is_some_and(|end| end <= Instant::now()) {
            return Err(timed_out(top.stage, &top.block, "stage budget exhausted"));
        }
        Ok(())
    })?;
    crate::resource::check()
}

/// [`poll`] for infallible kernels (floorplan SA, CTS): a trip unwinds
/// with a typed [`FlowError`] payload to the nearest
/// [`isolate`](crate::isolate) boundary — the same mechanism injected
/// panics use — instead of rippling `Result` through signatures that
/// cannot fail any other way.
///
/// # Panics
///
/// Panics (with a `FlowError` payload) exactly when [`poll`] would
/// return an error.
pub fn poll_unwind() {
    if let Err(e) = poll() {
        std::panic::panic_any(e);
    }
}

/// How an injected `slow` fault stalls. Under an active *bounded* stage
/// scope it models a hung kernel: it sleeps in coarse slices until the
/// deadline layer cancels it, so the stall deterministically becomes a
/// `TimedOut` failure regardless of the budget's value. Without a
/// bounded scope it is the legacy fixed short stall.
///
/// # Errors
///
/// Returns the [`poll`] error that ended the stall.
pub(crate) fn injected_slow_stall() -> Result<(), FlowError> {
    let bounded = SCOPES.with(|s| s.borrow().last().is_some_and(|sc| sc.expires_at.is_some()));
    if !bounded {
        std::thread::sleep(Duration::from_millis(25));
        return Ok(());
    }
    loop {
        poll()?;
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Sleeps for `backoff`, waking early if the token is cancelled.
/// Returns `false` when the wait was cut short by cancellation — the
/// caller should stop retrying and degrade.
pub fn backoff_wait(backoff: Duration, token: &CancelToken) -> bool {
    let deadline = Instant::now() + backoff;
    loop {
        if token.is_cancelled() {
            return false;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return true;
        }
        std::thread::sleep(left.min(Duration::from_millis(5)));
    }
}

/// A thread that trips a [`CancelToken`] when a [`Deadline`] expires.
///
/// The thread parks on a channel, so a clean run end wakes and joins it
/// immediately — [`Watchdog::disarm`] returns as soon as the thread has
/// exited, regardless of how much budget was left; no thread leaks past
/// it. On a trip it cancels the token; the owning run records the trip.
pub(crate) struct Watchdog {
    disarm: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<bool>>,
}

impl Watchdog {
    /// Spawns the watchdog for `deadline`, tripping `token` on expiry.
    pub(crate) fn spawn(deadline: Deadline, token: CancelToken) -> Self {
        let (disarm, wake) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("foldic-watchdog".to_owned())
            .spawn(move || {
                // a message or a dropped sender disarms; only the timeout trips
                let tripped = matches!(
                    wake.recv_timeout(deadline.remaining()),
                    Err(mpsc::RecvTimeoutError::Timeout)
                );
                if tripped {
                    token.cancel();
                }
                tripped
            });
        Self {
            disarm: Some(disarm),
            // A failed spawn leaves a watchdog that never trips; the
            // deadline is then only enforced at stage entries. That is a
            // graceful degradation, not a correctness problem.
            handle: handle.ok(),
        }
    }

    /// Stops the watchdog and joins its thread (returns only after the
    /// thread has exited). Returns whether the deadline tripped first.
    pub(crate) fn disarm(mut self) -> bool {
        self.shut_down()
    }

    fn shut_down(&mut self) -> bool {
        drop(self.disarm.take());
        self.handle
            .take()
            .is_some_and(|handle| handle.join().unwrap_or(false))
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shut_down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunConfig, RunCtx};

    /// A context carrying `policy`.
    fn run_with(policy: DeadlinePolicy) -> RunCtx {
        RunCtx::new(RunConfig {
            deadline: policy,
            ..RunConfig::default()
        })
    }

    fn stage_budget(stage: FlowStage, budget: Duration) -> RunCtx {
        run_with(DeadlinePolicy {
            stage_budgets: vec![(stage, budget)],
            ..DeadlinePolicy::default()
        })
    }

    #[test]
    fn token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled());
    }

    #[test]
    fn deadline_remaining_shrinks() {
        let d = Deadline::new(Duration::from_secs(60));
        assert!(!d.expired());
        assert!(d.remaining() <= Duration::from_secs(60));
        assert!(Deadline::new(Duration::ZERO).expired());
    }

    #[test]
    fn stage_scope_errs_when_deadline_already_expired_at_entry() {
        let run = run_with(DeadlinePolicy {
            overall: Some(Duration::ZERO),
            ..DeadlinePolicy::default()
        });
        let _e = run.enter();
        let err = stage_scope(FlowStage::Route, "ccx", 0).unwrap_err();
        assert!(matches!(err.cause, FaultCause::TimedOut(_)), "{err}");
        assert_eq!(err.stage, FlowStage::Route);
        assert_eq!(err.block.as_deref(), Some("ccx"));
        assert!(err.recoverable(), "timeouts must take the retry path");
    }

    #[test]
    fn zero_budget_stage_times_out_at_entry() {
        let run = stage_budget(FlowStage::Sta, Duration::ZERO);
        let _e = run.enter();
        let err = stage_scope(FlowStage::Sta, "dec", 2).unwrap_err();
        assert!(matches!(err.cause, FaultCause::TimedOut(_)), "{err}");
        // a stage with no budget of its own is unscoped but still fine
        let guard = stage_scope(FlowStage::Place, "dec", 0).unwrap();
        assert!(poll().is_ok());
        drop(guard);
    }

    #[test]
    fn cancelled_token_fails_scope_entry_and_poll() {
        let run = stage_budget(FlowStage::Opt, Duration::from_secs(3600));
        let _e = run.enter();
        let guard = stage_scope(FlowStage::Opt, "fpu", 0).unwrap();
        assert!(poll().is_ok());
        run.token().cancel();
        let err = poll().unwrap_err();
        assert!(matches!(err.cause, FaultCause::TimedOut(_)), "{err}");
        drop(guard);
        assert!(stage_scope(FlowStage::Opt, "fpu", 1).is_err());
        assert!(run_token().is_cancelled(), "run_token is the context's");
    }

    #[test]
    fn retry_scales_the_stage_budget_but_not_past_the_overall() {
        let run = run_with(DeadlinePolicy {
            overall: Some(Duration::from_secs(3600)),
            stage_budgets: vec![(FlowStage::Route, Duration::from_millis(40))],
            ..DeadlinePolicy::default()
        });
        let _e = run.enter();
        assert!(has_stage_override(FlowStage::Route));
        assert!(!has_stage_override(FlowStage::Floorplan));
        // attempt 2 gets 3 × 40 ms: a 50 ms wait outlives attempt 0's
        // budget but not attempt 2's.
        let g0 = stage_scope(FlowStage::Route, "b", 0).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(poll().is_err(), "base budget spent");
        drop(g0);
        let g2 = stage_scope(FlowStage::Route, "b", 2).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(poll().is_ok(), "retry budget is scaled up");
        drop(g2);
    }

    #[test]
    fn poll_unwind_carries_a_typed_payload() {
        let run = stage_budget(FlowStage::Place, Duration::from_millis(1));
        let _e = run.enter();
        let caught = crate::isolate(|| {
            let _scope = stage_scope(FlowStage::Place, "mcu", 0)?;
            std::thread::sleep(Duration::from_millis(5));
            poll_unwind();
            Ok(())
        });
        let err = caught.unwrap_err();
        assert_eq!(err.stage, FlowStage::Place);
        assert!(matches!(err.cause, FaultCause::TimedOut(_)));
    }

    #[test]
    fn injected_slow_stall_times_out_under_a_bounded_scope() {
        // no scope: the legacy fixed stall succeeds
        assert!(injected_slow_stall().is_ok());
        // bounded scope: the stall models a hang and is cancelled
        let run = stage_budget(FlowStage::Route, Duration::from_millis(30));
        let _e = run.enter();
        let scope = stage_scope(FlowStage::Route, "ccx", 0).unwrap();
        let t0 = Instant::now();
        let err = injected_slow_stall().unwrap_err();
        assert!(matches!(err.cause, FaultCause::TimedOut(_)), "{err}");
        assert_eq!(err.block.as_deref(), Some("ccx"));
        assert!(t0.elapsed() < Duration::from_secs(5));
        drop(scope);
    }

    #[test]
    fn backoff_wait_is_cut_short_by_cancellation() {
        let token = CancelToken::new();
        let cancel = token.clone();
        let t0 = Instant::now();
        let waiter = std::thread::spawn(move || backoff_wait(Duration::from_secs(30), &cancel));
        std::thread::sleep(Duration::from_millis(20));
        token.cancel();
        assert!(!waiter.join().unwrap(), "cancelled wait reports false");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "cancellation must not wait out the full backoff"
        );
        // and an uncancelled wait completes
        assert!(backoff_wait(Duration::from_millis(1), &CancelToken::new()));
    }

    #[test]
    fn clean_shutdown_joins_without_waiting_out_the_deadline() {
        let token = CancelToken::new();
        let dog = Watchdog::spawn(Deadline::new(Duration::from_secs(3600)), token.clone());
        let t0 = Instant::now();
        assert!(!dog.disarm(), "clean end: no trip");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "disarm joins promptly, not after the 1 h deadline"
        );
        assert!(!token.is_cancelled());
        // drop-path shutdown also joins promptly
        let t0 = Instant::now();
        drop(Watchdog::spawn(
            Deadline::new(Duration::from_secs(3600)),
            CancelToken::new(),
        ));
        assert!(t0.elapsed() < Duration::from_secs(5));
    }
}
