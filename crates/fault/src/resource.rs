//! Cooperative memory budgets: the resource twin of [`deadline`].
//!
//! Large designs hit the memory wall before the wall-clock one: a single
//! oversized placement can OOM-kill the process and void every
//! durability guarantee the serve layer makes. This module bounds *net
//! allocation* the same way `deadline` bounds wall time — cooperatively,
//! deterministically, and pay-for-use:
//!
//! * a [`TrackingAlloc`] global allocator keeps a per-thread net
//!   allocation counter. It counts only on threads running under a
//!   [`RunCtx`](crate::RunCtx) with a [`ResourcePolicy`]; everywhere else
//!   every allocation pays exactly one thread-local read — the same
//!   disabled-cost contract as [`deadline::poll`](crate::deadline::poll);
//! * a [`ResourcePolicy`] carries an overall per-block-job budget
//!   (`--mem-budget BYTES`) and explicit per-stage budgets
//!   (`--stage-mem STAGE=BYTES,…`). Budgets are checked at the existing
//!   cooperative poll points — no new instrumentation in kernels;
//! * a breach surfaces as a recoverable
//!   [`FaultCause::MemExceeded`](crate::FaultCause::MemExceeded)
//!   [`FlowError`], so the existing retry → degrade machinery applies
//!   unchanged. A retry gets a *larger* budget (the base budget scaled
//!   by the attempt number), mirroring how deadline retries get a
//!   larger share of the remaining time;
//! * under a policy, every popped scope folds its peak into its run's
//!   per-stage peaks, which [`RunCtx::finish`](crate::RunCtx::finish)
//!   returns — the manifest's `resources` section.
//!
//! # Accounting model and determinism boundary
//!
//! The counter is *per-thread net bytes*: allocations add, deallocations
//! subtract, on the thread performing them. A scope measures the delta
//! against the counter at scope entry, so a block-job's measurement is
//! the net memory *that block's own flow* holds on its worker thread —
//! not process RSS, not allocator slack, not other threads' work. That
//! is what makes breach decisions independent of the thread count: the
//! same block does the same allocations from the same baseline whether
//! the pool has 1 or 8 workers, so the same set of blocks degrades and
//! reports stay byte-identical. The cost of that property is that
//! cross-thread frees (memory allocated on one thread, dropped on
//! another) skew the two counters in opposite directions, and peaks are
//! sampled at poll granularity, so budgets need margin and peak metrics
//! are compared with a relative tolerance, never byte-exactly.

use crate::run::{armed, with_current, ARM_MEM};
use crate::{FaultCause, FlowError, FlowStage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};

/// A [`GlobalAlloc`] wrapper over the system allocator that maintains a
/// per-thread net-allocation counter while the thread runs under a
/// memory policy. Declared as the workspace's `#[global_allocator]` by
/// this crate; elsewhere each allocation pays one thread-local read and
/// nothing else.
pub struct TrackingAlloc;

#[global_allocator]
static ALLOCATOR: TrackingAlloc = TrackingAlloc;

thread_local! {
    /// Net bytes allocated minus freed on this thread while it ran under
    /// a memory policy. `Cell<i64>` with const init: no lazy allocation,
    /// no drop registration, safe to touch from inside the allocator.
    static NET: Cell<i64> = const { Cell::new(0) };
}

#[inline]
fn count(delta: i64) {
    if armed() & ARM_MEM == 0 {
        return;
    }
    // try_with: the allocator runs during TLS teardown too.
    let _ = NET.try_with(|n| n.set(n.get().wrapping_add(delta)));
}

// SAFETY: defers every allocation decision to `System`; the bookkeeping
// around it touches only a const-initialized thread-local Cell and never
// allocates, so it cannot recurse or change allocation behavior.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count(layout.size() as i64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            count(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            count(new_size as i64 - layout.size() as i64);
        }
        new_ptr
    }
}

/// What to enforce: an optional overall per-block-job budget and
/// optional explicit per-stage budgets, in bytes.
#[derive(Debug, Clone, Default)]
pub struct ResourcePolicy {
    /// Net-allocation budget for one block's whole flow
    /// (`--mem-budget BYTES`), if any.
    pub overall: Option<u64>,
    /// Explicit per-stage budgets (`--stage-mem STAGE=BYTES`).
    pub stage_budgets: Vec<(FlowStage, u64)>,
}

impl ResourcePolicy {
    /// `true` when the policy enforces nothing (a run arms no memory
    /// tracking).
    pub fn is_empty(&self) -> bool {
        self.overall.is_none() && self.stage_budgets.is_empty()
    }

    /// Canonical `STAGE=BYTES,...` spec of the stage budgets (decimal
    /// bytes, input order), for manifest config entries.
    pub fn stage_spec(&self) -> String {
        let entries: Vec<String> = self
            .stage_budgets
            .iter()
            .map(|(stage, bytes)| format!("{stage}={bytes}"))
            .collect();
        entries.join(",")
    }
}

/// One entry on the calling thread's memory-scope stack.
struct MemScope {
    stage: FlowStage,
    block: String,
    /// `None` means observational only (peak tracking, no budget).
    budget: Option<u64>,
    /// Thread net counter at scope entry.
    start: i64,
    /// Largest delta observed at a poll point (or at pop).
    peak: i64,
}

thread_local! {
    static MEM_SCOPES: RefCell<Vec<MemScope>> = const { RefCell::new(Vec::new()) };
}

fn thread_net() -> i64 {
    NET.try_with(Cell::get).unwrap_or(0)
}

/// Pushes a memory scope on the calling thread when its run has a
/// memory policy, returning whether it did. `base` picks the scope's
/// budget from the policy (`None`: observational); it is scaled by
/// `attempt + 1` — a retry gets a larger budget, mirroring deadline
/// retries.
fn push_scope(
    stage: FlowStage,
    block: &str,
    attempt: u32,
    base: impl FnOnce(&ResourcePolicy) -> Option<u64>,
) -> bool {
    let Some(base) = with_current(|run| run.memory.as_ref().map(base)).flatten() else {
        return false;
    };
    let start = thread_net();
    MEM_SCOPES.with(|s| {
        s.borrow_mut().push(MemScope {
            stage,
            block: block.to_owned(),
            budget: base.map(|bytes| bytes.saturating_mul(u64::from(attempt) + 1)),
            start,
            peak: 0,
        })
    });
    true
}

fn pop_scope() {
    let net = thread_net();
    let Some(scope) = MEM_SCOPES.with(|s| s.borrow_mut().pop()) else {
        return;
    };
    let peak = scope.peak.max(net - scope.start);
    with_current(|run| run.fold_peak(scope.stage, peak));
}

/// Enters a stage memory scope on the calling thread when its run has a
/// memory policy; returns whether a scope was pushed (the caller's guard
/// must pop it). The budget is the stage's explicit override, or none
/// (observational). Called by
/// [`stage_scope`](crate::deadline::stage_scope); never fails.
pub(crate) fn push_stage(stage: FlowStage, block: &str, attempt: u32) -> bool {
    push_scope(stage, block, attempt, |policy| {
        let explicit = policy.stage_budgets.iter().find(|(s, _)| *s == stage);
        explicit.map(|(_, bytes)| *bytes)
    })
}

/// Pops the scope pushed by [`push_stage`] (deadline guard drop path).
pub(crate) fn pop_stage() {
    pop_scope();
}

/// Pops its scope when dropped; returned by [`job_scope`].
#[derive(Debug)]
#[must_use = "dropping the guard immediately ends the memory scope"]
pub struct MemGuard {
    pushed: bool,
}

impl Drop for MemGuard {
    fn drop(&mut self) {
        if self.pushed {
            pop_scope();
        }
    }
}

/// Enters the whole-block-job memory scope on the calling thread: the
/// overall `--mem-budget` (scaled by `attempt + 1`) applies to the net
/// allocation of everything the block's flow does, across all stages.
/// Outside a run with a memory policy this is free and pushes nothing.
pub fn job_scope(block: &str, attempt: u32) -> MemGuard {
    MemGuard {
        pushed: push_scope(FlowStage::Job, block, attempt, |policy| policy.overall),
    }
}

/// The memory half of [`poll`](crate::deadline::poll): updates every
/// scope's peak on this thread and reports the first breached budget,
/// attributed to the innermost scope's stage and block (the stage that
/// was running when the budget ran out, which is what the retry →
/// degrade provenance wants).
pub(crate) fn check() -> Result<(), FlowError> {
    if armed() & ARM_MEM == 0 {
        return Ok(());
    }
    let net = thread_net();
    MEM_SCOPES.with(|s| {
        let mut scopes = s.borrow_mut();
        let mut breach: Option<(FlowStage, u64, i64)> = None;
        for scope in scopes.iter_mut() {
            let delta = net - scope.start;
            scope.peak = scope.peak.max(delta);
            if breach.is_none() {
                if let Some(budget) = scope.budget {
                    if delta > 0 && delta as u64 > budget {
                        breach = Some((scope.stage, budget, delta));
                    }
                }
            }
        }
        let (Some((scoped, budget, delta)), Some(top)) = (breach, scopes.last()) else {
            return Ok(());
        };
        Err(FlowError {
            stage: top.stage,
            block: Some(top.block.clone()),
            cause: FaultCause::MemExceeded(format!(
                "{scoped} memory budget exhausted: {delta} net bytes > {budget} budget"
            )),
        })
    })
}

/// Parses a byte count with an optional binary suffix: `123` (bytes),
/// `16k` (KiB), `64M` (MiB), `2G` (GiB); suffixes are case-insensitive.
///
/// # Errors
///
/// Returns a message for an empty spec, a non-digit mantissa, a zero
/// budget (use no flag instead), or a value that overflows `u64`.
pub fn parse_bytes(text: &str) -> Result<u64, String> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err("memory size is empty".to_owned());
    }
    let (digits, multiplier) = match trimmed.as_bytes().last() {
        Some(b'k' | b'K') => (&trimmed[..trimmed.len() - 1], 1u64 << 10),
        Some(b'm' | b'M') => (&trimmed[..trimmed.len() - 1], 1u64 << 20),
        Some(b'g' | b'G') => (&trimmed[..trimmed.len() - 1], 1u64 << 30),
        _ => (trimmed, 1u64),
    };
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!(
            "memory size `{text}` is not WHOLE_BYTES with an optional k/M/G suffix"
        ));
    }
    let value: u64 = digits
        .parse()
        .map_err(|_| format!("memory size `{text}` overflows"))?;
    let bytes = value
        .checked_mul(multiplier)
        .ok_or_else(|| format!("memory size `{text}` overflows"))?;
    if bytes == 0 {
        return Err(format!("memory size `{text}` must be positive"));
    }
    Ok(bytes)
}

/// Formats a byte count in the smallest form [`parse_bytes`] reads back
/// to the same value: the largest binary suffix that divides it exactly,
/// else plain bytes.
pub fn format_bytes(bytes: u64) -> String {
    for (shift, suffix) in [(30u32, "G"), (20, "M"), (10, "k")] {
        let unit = 1u64 << shift;
        if bytes >= unit && bytes.is_multiple_of(unit) {
            return format!("{}{suffix}", bytes / unit);
        }
    }
    bytes.to_string()
}

/// Parses a `--stage-mem` spec (`STAGE=BYTES,...`, byte counts as in
/// [`parse_bytes`]) into per-stage budgets.
///
/// # Errors
///
/// Returns a message on an unknown stage, a malformed byte count, a
/// duplicate stage, or a spec with no entries.
pub fn parse_stage_mem(spec: &str) -> Result<Vec<(FlowStage, u64)>, String> {
    let mut budgets: Vec<(FlowStage, u64)> = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let Some((stage, bytes)) = entry.split_once('=') else {
            return Err(format!("stage-mem entry `{entry}` is not STAGE=BYTES"));
        };
        let stage: FlowStage = stage.trim().parse()?;
        let bytes = parse_bytes(bytes).map_err(|e| format!("stage-mem entry `{entry}`: {e}"))?;
        if budgets.iter().any(|(s, _)| *s == stage) {
            return Err(format!("stage-mem spec repeats stage `{stage}`"));
        }
        budgets.push((stage, bytes));
    }
    if budgets.is_empty() {
        return Err("stage-mem spec is empty".to_owned());
    }
    Ok(budgets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::{poll, stage_scope};
    use crate::{RunConfig, RunCtx};

    #[test]
    fn parse_bytes_reads_suffixes_and_rejects_junk() {
        assert_eq!(parse_bytes("123"), Ok(123));
        assert_eq!(parse_bytes("16k"), Ok(16 << 10));
        assert_eq!(parse_bytes("64M"), Ok(64 << 20));
        assert_eq!(parse_bytes("2G"), Ok(2 << 30));
        assert_eq!(parse_bytes(" 8K "), Ok(8 << 10));
        for junk in [
            "",
            " ",
            "M",
            "-1",
            "1.5M",
            "64 M",
            "0",
            "0k",
            "1T",
            "abc",
            "0x10",
            "18446744073709551616",
            "99999999999999999999G",
        ] {
            assert!(parse_bytes(junk).is_err(), "`{junk}` must be rejected");
        }
    }

    #[test]
    fn format_bytes_roundtrips_through_parse() {
        for bytes in [1, 123, 1 << 10, 3 << 20, (1 << 20) + 1, 7 << 30, u64::MAX] {
            let text = format_bytes(bytes);
            assert_eq!(parse_bytes(&text), Ok(bytes), "{bytes} -> {text}");
        }
        assert_eq!(format_bytes(64 << 20), "64M");
        assert_eq!(format_bytes(1000), "1000");
    }

    #[test]
    fn parse_stage_mem_reads_specs_and_rejects_duplicates() {
        let budgets = parse_stage_mem("place=64M, route=16k").unwrap();
        assert_eq!(
            budgets,
            vec![(FlowStage::Place, 64 << 20), (FlowStage::Route, 16 << 10)]
        );
        assert!(parse_stage_mem("").is_err());
        assert!(parse_stage_mem(",").is_err());
        assert!(parse_stage_mem("place").is_err());
        assert!(parse_stage_mem("warp=1M").is_err());
        assert!(parse_stage_mem("place=1M,place=2M").is_err());
        assert!(parse_stage_mem("place=zero").is_err());
    }

    #[test]
    fn policy_emptiness_and_stage_spec() {
        assert!(ResourcePolicy::default().is_empty());
        let policy = ResourcePolicy {
            overall: None,
            stage_budgets: vec![(FlowStage::Place, 64 << 20)],
        };
        assert!(!policy.is_empty());
        assert_eq!(policy.stage_spec(), format!("place={}", 64 << 20));
    }

    /// A context carrying `policy`.
    fn run_with(overall: Option<u64>, stage_budgets: Vec<(FlowStage, u64)>) -> RunCtx {
        RunCtx::new(RunConfig {
            memory: ResourcePolicy {
                overall,
                stage_budgets,
            },
            ..RunConfig::default()
        })
    }

    #[test]
    fn job_budget_breach_surfaces_as_recoverable_mem_exceeded() {
        let run = run_with(Some(64 << 10), Vec::new());
        let e = run.enter();
        let guard = job_scope("spc0", 0);
        let hog: Vec<u8> = vec![0; 4 << 20];
        let err = poll().unwrap_err();
        assert!(matches!(err.cause, FaultCause::MemExceeded(_)), "{err}");
        assert_eq!(err.block.as_deref(), Some("spc0"));
        assert_eq!(err.stage, FlowStage::Job);
        assert!(err.recoverable(), "mem breaches must take the retry path");
        drop(hog);
        drop(guard);
        drop(e);
        assert!(poll().is_ok());
    }

    #[test]
    fn retry_scales_the_budget_up() {
        let run = run_with(Some(64 << 10), Vec::new());
        let _e = run.enter();
        // attempt 255 gets 256 x 64 KiB = 16 MiB: a 4 MiB allocation
        // breaches attempt 0's budget but not attempt 255's.
        let guard = job_scope("spc0", 255);
        let hog: Vec<u8> = vec![0; 4 << 20];
        assert!(poll().is_ok(), "retry budget is scaled up");
        drop(hog);
        drop(guard);
    }

    #[test]
    fn stage_budget_breach_is_attributed_to_the_stage() {
        let run = run_with(None, vec![(FlowStage::Place, 64 << 10)]);
        let _e = run.enter();
        let outer = job_scope("dec", 0);
        let scope = stage_scope(FlowStage::Place, "dec", 0).unwrap();
        let hog: Vec<u8> = vec![0; 4 << 20];
        let err = poll().unwrap_err();
        assert!(matches!(err.cause, FaultCause::MemExceeded(_)), "{err}");
        assert_eq!(err.stage, FlowStage::Place);
        drop(hog);
        // an unbudgeted stage under the same policy is observational
        drop(scope);
        let scope = stage_scope(FlowStage::Route, "dec", 0).unwrap();
        let hog: Vec<u8> = vec![0; 4 << 20];
        assert!(poll().is_ok());
        drop(hog);
        drop(scope);
        drop(outer);
    }

    #[test]
    fn peaks_record_per_stage_in_their_own_run() {
        // a budget no allocation here comes near: peaks are the point
        let run = run_with(Some(u64::MAX), Vec::new());
        {
            let _e = run.enter();
            let _job = job_scope("fpu", 0);
            let scope = stage_scope(FlowStage::Sta, "fpu", 0).unwrap();
            let hog: Vec<u8> = vec![0; 2 << 20];
            poll().unwrap();
            drop(hog);
            drop(scope);
        }
        let peaks = run.finish().resources.expect("budgeted runs record peaks");
        let sta = peaks.iter().find(|(s, _)| *s == FlowStage::Sta);
        assert!(
            sta.is_some_and(|(_, peak)| *peak >= (2 << 20)),
            "sta peak must cover the allocation: {peaks:?}"
        );
        let job = peaks.iter().find(|(s, _)| *s == FlowStage::Job);
        assert!(job.is_some_and(|(_, peak)| *peak >= (2 << 20)), "{peaks:?}");
    }
}
