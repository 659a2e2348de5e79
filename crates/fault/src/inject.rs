//! Deterministic fault injection.
//!
//! A [`FaultPlan`] names `stage × block` sites where the flow should
//! fail. The decision whether a site fires is a *pure function* of
//! `(stage, block, attempt)` — no global counters, no clocks — so an
//! injected run is byte-identical across thread counts and across
//! repeated executions, which is what lets integration tests assert on
//! exact retry/degradation behavior.
//!
//! Plans come from an explicit spec string (`repro --faults
//! "route:dec:panic"`) or are built in code ([`FaultPlan::single`]). A plan belongs to one
//! [`RunCtx`](crate::RunCtx); flows consult the calling thread's plan
//! through [`fault_point`] at every stage boundary.

use crate::{FaultCause, FlowError, FlowStage};
use std::fmt;
use std::str::FromStr;

/// Why a fault spec was rejected. Typed (rather than a bare message) so
/// callers can distinguish operator typos from structural problems and
/// tests can assert on the exact rejection path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// An entry does not have 2–4 `:`-separated parts.
    Malformed(String),
    /// The stage name is not one of [`FlowStage::ALL`].
    UnknownStage {
        /// The offending entry.
        entry: String,
        /// The unrecognized stage name.
        stage: String,
    },
    /// An entry names an empty block pattern.
    EmptyBlock(String),
    /// The kind is not `panic`, `error`, or `slow`.
    UnknownKind {
        /// The offending entry.
        entry: String,
        /// The unrecognized kind name.
        kind: String,
    },
    /// The attempts bound is not a non-negative integer.
    BadAttempts(String),
    /// Two entries target the same `(stage, block)` site; the second
    /// would be dead (first match fires) and is almost certainly a typo.
    Duplicate(String),
    /// The spec contains no entries at all.
    Empty,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Malformed(entry) => {
                write!(
                    f,
                    "malformed fault `{entry}` (want stage:block[:kind[:attempts]])"
                )
            }
            PlanError::UnknownStage { entry, stage } => {
                write!(f, "fault `{entry}`: unknown flow stage `{stage}`")
            }
            PlanError::EmptyBlock(entry) => {
                write!(f, "fault `{entry}` has an empty block pattern")
            }
            PlanError::UnknownKind { entry, kind } => {
                write!(
                    f,
                    "fault `{entry}`: unknown fault kind `{kind}` (panic|error|slow)"
                )
            }
            PlanError::BadAttempts(entry) => {
                write!(
                    f,
                    "fault `{entry}`: attempts must be a non-negative integer"
                )
            }
            PlanError::Duplicate(entry) => {
                write!(
                    f,
                    "fault `{entry}` duplicates an earlier entry for the same stage and block"
                )
            }
            PlanError::Empty => f.write_str("empty fault spec"),
        }
    }
}

impl std::error::Error for PlanError {}

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with a [`FlowError`] payload (exercises unwind isolation).
    Panic,
    /// Return `Err(FlowError)` from the stage (exercises typed errors).
    Error,
    /// Stall the stage. Without an active stage deadline this is a brief
    /// fixed sleep that then succeeds (exercises scheduling independence
    /// — a slow block must not change any result). Under an active stage
    /// budget it models a *hung* kernel: the stall lasts until the
    /// deadline layer cancels it, deterministically producing a
    /// `TimedOut` failure — the e2e fixture for deadline testing.
    Slow,
}

impl FaultKind {
    fn as_str(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Error => "error",
            FaultKind::Slow => "slow",
        }
    }
}

impl FromStr for FaultKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "panic" => Ok(FaultKind::Panic),
            "error" => Ok(FaultKind::Error),
            "slow" => Ok(FaultKind::Slow),
            other => Err(format!("unknown fault kind `{other}` (panic|error|slow)")),
        }
    }
}

/// One injection site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Stage the fault fires in.
    pub stage: FlowStage,
    /// Block name pattern: exact name, `prefix*`, or `*` for all blocks.
    pub block: String,
    /// What happens when it fires.
    pub kind: FaultKind,
    /// Fire only on the first `n` attempts (`None` = every attempt).
    /// `Some(1)` makes the first attempt fail and the first retry
    /// recover; `None` exhausts every retry and degrades the block.
    pub attempts: Option<u32>,
}

impl InjectedFault {
    fn matches(&self, stage: FlowStage, block: &str, attempt: u32) -> bool {
        if self.stage != stage {
            return false;
        }
        if let Some(n) = self.attempts {
            if attempt >= n {
                return false;
            }
        }
        match self.block.as_str() {
            "*" => true,
            p if p.ends_with('*') => block.starts_with(&p[..p.len() - 1]),
            p => p == block,
        }
    }
}

/// A deterministic set of injection sites.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Sites, checked in order; the first match fires.
    pub faults: Vec<InjectedFault>,
}

impl FaultPlan {
    /// Parses a comma-separated spec: `stage:block[:kind[:attempts]]`.
    ///
    /// * `route:dec:panic` — panic in `dec`'s route stage on every
    ///   attempt (the block degrades after the retry budget).
    /// * `place:mcu0:error:1` — error on attempt 0 only (the first
    ///   retry recovers).
    /// * `sta:*:slow` — slow down every block's STA.
    ///
    /// # Errors
    ///
    /// Returns a typed [`PlanError`] describing the first rejected
    /// entry: malformed shape, unknown stage or kind, empty block,
    /// non-integer attempts, or a duplicate `(stage, block)` site.
    pub fn parse(spec: &str) -> Result<Self, PlanError> {
        let mut faults: Vec<InjectedFault> = Vec::new();
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let entry = entry.trim();
            let parts: Vec<&str> = entry.split(':').collect();
            if parts.len() < 2 || parts.len() > 4 {
                return Err(PlanError::Malformed(entry.to_owned()));
            }
            let stage = FlowStage::from_str(parts[0]).map_err(|_| PlanError::UnknownStage {
                entry: entry.to_owned(),
                stage: parts[0].to_owned(),
            })?;
            let block = parts[1];
            if block.is_empty() {
                return Err(PlanError::EmptyBlock(entry.to_owned()));
            }
            let kind = match parts.get(2) {
                Some(k) => FaultKind::from_str(k).map_err(|_| PlanError::UnknownKind {
                    entry: entry.to_owned(),
                    kind: (*k).to_owned(),
                })?,
                None => FaultKind::Error,
            };
            let attempts = match parts.get(3) {
                Some(n) => Some(
                    n.parse::<u32>()
                        .map_err(|_| PlanError::BadAttempts(entry.to_owned()))?,
                ),
                None => None,
            };
            if faults.iter().any(|f| f.stage == stage && f.block == block) {
                return Err(PlanError::Duplicate(entry.to_owned()));
            }
            faults.push(InjectedFault {
                stage,
                block: block.to_owned(),
                kind,
                attempts,
            });
        }
        if faults.is_empty() {
            return Err(PlanError::Empty);
        }
        Ok(Self { faults })
    }

    /// A single-site plan.
    pub fn single(stage: FlowStage, block: &str, kind: FaultKind, attempts: Option<u32>) -> Self {
        Self {
            faults: vec![InjectedFault {
                stage,
                block: block.to_owned(),
                kind,
                attempts,
            }],
        }
    }

    /// The fault that fires at `(stage, block, attempt)`, if any. Pure:
    /// same arguments, same answer, on every thread.
    pub fn should_fire(&self, stage: FlowStage, block: &str, attempt: u32) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.matches(stage, block, attempt))
            .map(|f| f.kind)
    }

    /// Canonical spec text (parseable by [`FaultPlan::parse`]).
    pub fn to_spec(&self) -> String {
        self.faults
            .iter()
            .map(|f| {
                let mut s = format!("{}:{}:{}", f.stage, f.block, f.kind.as_str());
                if let Some(n) = f.attempts {
                    s.push(':');
                    s.push_str(&n.to_string());
                }
                s
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Silences the panic hook for panics carrying a typed [`FlowError`]
/// payload: injected panics unwind through [`crate::isolate`] by design,
/// so the default hook's backtrace is pure noise (once per attempt).
/// Every other panic still reaches the previously installed hook.
pub(crate) fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<FlowError>().is_none() {
                previous(info);
            }
        }));
    });
}

/// The stage-boundary hook: consults the current run's plan and, when a
/// site fires, panics, returns an error, or sleeps according to the
/// injected kind. A no-op when the run (or the thread) has no plan.
///
/// # Errors
///
/// Returns `Err(FlowError)` with [`FaultCause::Injected`] when an
/// `error`-kind fault fires at this site, or with
/// [`FaultCause::TimedOut`] when a `slow`-kind fault stalls past an
/// active stage deadline.
///
/// # Panics
///
/// Panics with a [`FlowError`] payload when a `panic`-kind fault fires —
/// by design; the payload is recovered intact by [`crate::isolate`].
pub fn fault_point(stage: FlowStage, block: &str, attempt: u32) -> Result<(), FlowError> {
    let fired = crate::run::with_current(|run| {
        run.plan
            .as_ref()
            .and_then(|plan| plan.should_fire(stage, block, attempt))
    })
    .flatten();
    match fired {
        None => Ok(()),
        Some(FaultKind::Slow) => crate::deadline::injected_slow_stall(),
        Some(FaultKind::Error) => Err(FlowError {
            stage,
            block: Some(block.to_owned()),
            cause: FaultCause::Injected(format!("injected error (attempt {attempt})")),
        }),
        Some(FaultKind::Panic) => {
            std::panic::panic_any(FlowError {
                stage,
                block: Some(block.to_owned()),
                cause: FaultCause::Injected(format!("injected panic (attempt {attempt})")),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_and_validates() {
        let plan = FaultPlan::parse("route:dec:panic,place:mcu0:error:1,sta:*:slow").unwrap();
        assert_eq!(plan.faults.len(), 3);
        assert_eq!(FaultPlan::parse(&plan.to_spec()).unwrap(), plan);
        // default kind is error
        let d = FaultPlan::parse("opt:ccu").unwrap();
        assert_eq!(d.faults[0].kind, FaultKind::Error);
        assert!(FaultPlan::parse("bogus:x").is_err());
        assert!(FaultPlan::parse("route:").is_err());
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("route:x:panic:abc").is_err());
    }

    #[test]
    fn parse_errors_are_typed_per_rejection_path() {
        use PlanError::*;
        assert_eq!(
            FaultPlan::parse("route").unwrap_err(),
            Malformed("route".to_owned())
        );
        assert_eq!(
            FaultPlan::parse("a:b:c:d:e").unwrap_err(),
            Malformed("a:b:c:d:e".to_owned())
        );
        assert_eq!(
            FaultPlan::parse("warp:dec").unwrap_err(),
            UnknownStage {
                entry: "warp:dec".to_owned(),
                stage: "warp".to_owned()
            }
        );
        assert_eq!(
            FaultPlan::parse("route:").unwrap_err(),
            EmptyBlock("route:".to_owned())
        );
        assert_eq!(
            FaultPlan::parse("route:dec:hang").unwrap_err(),
            UnknownKind {
                entry: "route:dec:hang".to_owned(),
                kind: "hang".to_owned()
            }
        );
        for bad in [
            "route:dec:panic:-1",
            "route:dec:panic:1.5",
            "route:dec:panic:x",
        ] {
            assert_eq!(
                FaultPlan::parse(bad).unwrap_err(),
                BadAttempts(bad.to_owned()),
                "{bad}"
            );
        }
        assert_eq!(
            FaultPlan::parse("route:dec:panic,route:dec:error").unwrap_err(),
            Duplicate("route:dec:error".to_owned())
        );
        // same block at a different stage is not a duplicate
        assert!(FaultPlan::parse("route:dec:panic,sta:dec:error").is_ok());
        assert_eq!(FaultPlan::parse(" , ,").unwrap_err(), Empty);
        // every variant renders a human-readable message
        for spec in [
            "route",
            "warp:dec",
            "route:",
            "route:dec:hang",
            "route:d:p:9.1",
            "",
        ] {
            assert!(!FaultPlan::parse(spec).unwrap_err().to_string().is_empty());
        }
    }

    #[test]
    fn firing_is_pure_and_attempt_bounded() {
        let plan = FaultPlan::parse("place:mcu0:error:2,route:l2*:panic").unwrap();
        for _ in 0..3 {
            assert_eq!(
                plan.should_fire(FlowStage::Place, "mcu0", 0),
                Some(FaultKind::Error)
            );
            assert_eq!(
                plan.should_fire(FlowStage::Place, "mcu0", 1),
                Some(FaultKind::Error)
            );
            assert_eq!(plan.should_fire(FlowStage::Place, "mcu0", 2), None);
            assert_eq!(plan.should_fire(FlowStage::Place, "mcu1", 0), None);
            assert_eq!(
                plan.should_fire(FlowStage::Route, "l2d0", 7),
                Some(FaultKind::Panic)
            );
            assert_eq!(plan.should_fire(FlowStage::Sta, "mcu0", 0), None);
        }
    }
}
