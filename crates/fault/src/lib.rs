#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! Fault tolerance for the foldic flow.
//!
//! The paper's study is a long multi-stage pipeline (floorplan →
//! partition → 3D place → route → STA → power) over dozens of blocks and
//! many fold/bonding configurations. A full-chip sweep must survive a
//! per-block failure and finish with partial results and provenance
//! instead of aborting wholesale. This crate supplies the pieces the rest
//! of the workspace builds that on:
//!
//! * a typed error hierarchy — [`FlowError`] carries the failing
//!   [`FlowStage`], the block, a [`FaultCause`] and recoverability, so the
//!   per-block flow path can return `Result` instead of panicking;
//! * deterministic fault injection — a [`FaultPlan`] names
//!   `stage × block` sites (explicitly or seeded) where a panic, error or
//!   slowdown is injected, letting tests prove isolation, retry
//!   determinism and resume correctness without real failures;
//! * retry/degradation provenance — [`FaultRecord`]s describe what
//!   happened at each faulted site (attempts, final disposition) and land
//!   in run manifests through their run's [`RunOutcome`];
//! * a per-run context — [`RunCtx`] owns one run's cancel token and
//!   deadline, fault plan, fault log, memory policy and peaks, and
//!   profile report, so concurrent runs in one process stay independent;
//! * checkpoint/resume — [`CheckpointStore`] persists completed per-block
//!   results as append-only JSONL so an interrupted full-chip run can be
//!   resumed byte-identically;
//! * worker supervision — [`PoisonLedger`] quarantines spec digests whose
//!   runs keep panicking and [`CircuitBreaker`] sheds load while the
//!   worker pool is unhealthy, both as pure clock-explicit state machines
//!   the serve scheduler drives under its own lock.
//!
//! Everything here is deterministic: injection decisions are pure
//! functions of `(site, attempt)`, and log/checkpoint contents are sorted
//! before they reach any comparison.

pub mod checkpoint;
pub mod deadline;
pub mod inject;
pub mod resource;
pub mod retry;
pub mod run;
pub mod supervise;

pub use checkpoint::{CheckpointError, CheckpointStore};
pub use deadline::{BudgetSplit, CancelToken, Deadline, DeadlinePolicy};
pub use inject::{fault_point, FaultKind, FaultPlan, PlanError};
pub use resource::{
    format_bytes, job_scope, parse_bytes, parse_stage_mem, MemGuard, ResourcePolicy, TrackingAlloc,
};
pub use retry::{isolate, log_fault, Disposition, FaultRecord, RetryPolicy};
pub use run::{Entered, RunConfig, RunCtx, RunOutcome};
pub use supervise::{
    Admission, BreakerConfig, BreakerState, CircuitBreaker, PoisonLedger, DEFAULT_POISON_THRESHOLD,
};

use std::fmt;

/// A stage of the per-block physical design flow, used to attribute
/// errors and address fault-injection sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlowStage {
    /// Input validation at flow entry.
    Validate,
    /// Die partitioning (folding only).
    Partition,
    /// Mixed-size (3D) placement.
    Place,
    /// Timing/power optimization.
    Opt,
    /// Wiring analysis / 3D-via placement.
    Route,
    /// Static timing analysis.
    Sta,
    /// Power sign-off.
    Power,
    /// Chip-level floorplanning.
    Floorplan,
    /// Unattributed (e.g. a panic caught at the job boundary).
    Job,
}

impl FlowStage {
    /// All stages, in flow order.
    pub const ALL: [FlowStage; 9] = [
        FlowStage::Validate,
        FlowStage::Partition,
        FlowStage::Place,
        FlowStage::Opt,
        FlowStage::Route,
        FlowStage::Sta,
        FlowStage::Power,
        FlowStage::Floorplan,
        FlowStage::Job,
    ];

    /// Stable lower-case name (used in fault specs and manifests).
    pub fn as_str(self) -> &'static str {
        match self {
            FlowStage::Validate => "validate",
            FlowStage::Partition => "partition",
            FlowStage::Place => "place",
            FlowStage::Opt => "opt",
            FlowStage::Route => "route",
            FlowStage::Sta => "sta",
            FlowStage::Power => "power",
            FlowStage::Floorplan => "floorplan",
            FlowStage::Job => "job",
        }
    }
}

impl fmt::Display for FlowStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for FlowStage {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FlowStage::ALL
            .into_iter()
            .find(|st| st.as_str() == s)
            .ok_or_else(|| format!("unknown flow stage `{s}`"))
    }
}

/// Why a flow stage failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultCause {
    /// The input violated a checked invariant. Retrying the same input
    /// cannot help; the block degrades immediately.
    Invalid(String),
    /// A failure injected by the fault harness.
    Injected(String),
    /// A panic caught at an isolation boundary (payload stringified).
    Panic(String),
    /// A stage reported an internal failure (numerical breakdown,
    /// resource exhaustion, …) that a perturbed retry may avoid.
    Stage(String),
    /// The stage overran its wall-clock budget (or the run was
    /// cancelled) and was cooperatively stopped at a poll point. A retry
    /// gets a larger share of the remaining budget, so this is
    /// recoverable.
    TimedOut(String),
    /// The stage overran its memory budget and was cooperatively
    /// stopped at a poll point. A retry gets a larger budget, so this
    /// is recoverable.
    MemExceeded(String),
}

impl FaultCause {
    /// The human-readable message inside the cause.
    pub fn message(&self) -> &str {
        match self {
            FaultCause::Invalid(m)
            | FaultCause::Injected(m)
            | FaultCause::Panic(m)
            | FaultCause::Stage(m)
            | FaultCause::TimedOut(m)
            | FaultCause::MemExceeded(m) => m,
        }
    }

    /// Stable lower-case label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultCause::Invalid(_) => "invalid",
            FaultCause::Injected(_) => "injected",
            FaultCause::Panic(_) => "panic",
            FaultCause::Stage(_) => "stage",
            FaultCause::TimedOut(_) => "timed_out",
            FaultCause::MemExceeded(_) => "mem_exceeded",
        }
    }
}

/// A typed failure of the per-block flow: which stage failed, on which
/// block, why, and whether a retry can plausibly succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowError {
    /// Stage that failed.
    pub stage: FlowStage,
    /// Block being processed, when known.
    pub block: Option<String>,
    /// Failure cause.
    pub cause: FaultCause,
}

impl FlowError {
    /// A stage-internal failure (recoverable by retry).
    pub fn stage(stage: FlowStage, msg: impl Into<String>) -> Self {
        Self {
            stage,
            block: None,
            cause: FaultCause::Stage(msg.into()),
        }
    }

    /// An invalid-input failure (not recoverable by retry).
    pub fn invalid(stage: FlowStage, msg: impl Into<String>) -> Self {
        Self {
            stage,
            block: None,
            cause: FaultCause::Invalid(msg.into()),
        }
    }

    /// An injected failure from the fault harness.
    pub fn injected(stage: FlowStage, msg: impl Into<String>) -> Self {
        Self {
            stage,
            block: None,
            cause: FaultCause::Injected(msg.into()),
        }
    }

    /// A caught panic payload.
    pub fn panic(msg: impl Into<String>) -> Self {
        Self {
            stage: FlowStage::Job,
            block: None,
            cause: FaultCause::Panic(msg.into()),
        }
    }

    /// A wall-clock timeout (recoverable — retries get a larger budget).
    pub fn timed_out(stage: FlowStage, msg: impl Into<String>) -> Self {
        Self {
            stage,
            block: None,
            cause: FaultCause::TimedOut(msg.into()),
        }
    }

    /// A memory-budget breach (recoverable — retries get a larger
    /// budget).
    pub fn mem_exceeded(stage: FlowStage, msg: impl Into<String>) -> Self {
        Self {
            stage,
            block: None,
            cause: FaultCause::MemExceeded(msg.into()),
        }
    }

    /// `true` when the failure was a wall-clock timeout.
    pub fn is_timeout(&self) -> bool {
        matches!(self.cause, FaultCause::TimedOut(_))
    }

    /// `true` when the failure was a memory-budget breach.
    pub fn is_mem_exceeded(&self) -> bool {
        matches!(self.cause, FaultCause::MemExceeded(_))
    }

    /// Attributes the error to a block (keeps an existing attribution).
    pub fn with_block(mut self, block: &str) -> Self {
        if self.block.is_none() {
            self.block = Some(block.to_owned());
        }
        self
    }

    /// `true` when a perturbed/relaxed retry may succeed. Invalid input
    /// fails identically on every attempt, so it degrades immediately.
    pub fn recoverable(&self) -> bool {
        !matches!(self.cause, FaultCause::Invalid(_))
    }
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.block {
            Some(b) => write!(
                f,
                "{} failed at {} ({}): {}",
                b,
                self.stage,
                self.cause.label(),
                self.cause.message()
            ),
            None => write!(
                f,
                "{} failed ({}): {}",
                self.stage,
                self.cause.label(),
                self.cause.message()
            ),
        }
    }
}

impl std::error::Error for FlowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_roundtrip() {
        for stage in FlowStage::ALL {
            assert_eq!(stage.as_str().parse::<FlowStage>().unwrap(), stage);
        }
        assert!("bogus".parse::<FlowStage>().is_err());
    }

    #[test]
    fn recoverability_follows_cause() {
        assert!(FlowError::stage(FlowStage::Place, "diverged").recoverable());
        assert!(FlowError::injected(FlowStage::Route, "x").recoverable());
        assert!(FlowError::panic("boom").recoverable());
        let timeout = FlowError::timed_out(FlowStage::Route, "budget spent");
        assert!(timeout.recoverable() && timeout.is_timeout());
        assert_eq!(timeout.cause.label(), "timed_out");
        let mem = FlowError::mem_exceeded(FlowStage::Place, "budget spent");
        assert!(mem.recoverable() && mem.is_mem_exceeded() && !mem.is_timeout());
        assert_eq!(mem.cause.label(), "mem_exceeded");
        assert!(!FlowError::invalid(FlowStage::Validate, "bad outline").recoverable());
    }

    #[test]
    fn display_mentions_stage_block_and_cause() {
        let e = FlowError::stage(FlowStage::Sta, "no paths").with_block("spc0");
        let s = e.to_string();
        assert!(
            s.contains("spc0") && s.contains("sta") && s.contains("no paths"),
            "{s}"
        );
        // with_block keeps the first attribution
        let e2 = e.clone().with_block("other");
        assert_eq!(e2.block.as_deref(), Some("spc0"));
    }
}
