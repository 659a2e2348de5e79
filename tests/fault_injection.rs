//! Fault-tolerance integration tests: deterministic injection through the
//! full-chip flow, per-block isolation with retry/degradation, thread
//! invariance of faulted runs, and checkpoint/resume equivalence.
//!
//! Each faulted run carries its plan in its own run context, so the
//! tests run in parallel without seeing each other's faults.

use foldic::prelude::*;
use foldic::{
    CheckpointStore, Disposition, FaultPlan, FlowStage, RetryPolicy, RunConfig, RunCtx, RunOutcome,
};
use std::sync::Arc;

/// Runs one full chip under a context injecting `spec`.
fn run_faulted(spec: &str, style: DesignStyle, threads: usize) -> (FullChipResult, RunOutcome) {
    let ctx = RunCtx::new(RunConfig {
        faults: Some(FaultPlan::parse(spec).unwrap()),
        ..RunConfig::default()
    });
    let result = {
        let _entered = ctx.enter();
        run(style, threads, None)
    };
    (result, ctx.finish())
}

fn run(
    style: DesignStyle,
    threads: usize,
    checkpoint: Option<Arc<CheckpointStore>>,
) -> FullChipResult {
    let (mut design, tech) = T2Config::tiny().generate();
    let cfg = FullChipConfig {
        threads,
        checkpoint,
        ..FullChipConfig::default()
    };
    run_fullchip(&mut design, &tech, style, &cfg).unwrap()
}

/// Full result equality, floats compared bit-exactly.
fn assert_same(a: &FullChipResult, b: &FullChipResult) {
    assert_eq!(a.per_block, b.per_block);
    assert_eq!(a.chip, b.chip);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.chip_vias, b.chip_vias);
    assert_eq!(a.intra_block_vias, b.intra_block_vias);
    assert_eq!(a.interblock_wl_um.to_bits(), b.interblock_wl_um.to_bits());
    assert_eq!(a.route_overflow, b.route_overflow);
}

#[test]
fn injected_route_failure_degrades_only_that_block() {
    let (result, outcome) = run_faulted("route:ccx:error", DesignStyle::Flat2d, 1);

    assert_eq!(result.faults.len(), 1, "exactly one faulted block");
    let f = &result.faults[0];
    assert_eq!(f.scope, "2d");
    assert_eq!(f.block, "ccx");
    assert_eq!(f.stage, FlowStage::Route);
    assert_eq!(f.attempts, RetryPolicy::default().max_attempts);
    assert_eq!(f.disposition, Disposition::Degraded);
    for (name, _, m) in &result.per_block {
        assert_eq!(m.degraded, name == "ccx", "only ccx may degrade");
    }
    // the degraded analytical estimate still rolls up into chip totals
    assert!(result.chip.power.total_w() > 0.0);
    assert!(result.chip.footprint_um2 > 0.0);
    // provenance also landed in the run's log, in the same shape
    assert_eq!(outcome.faults, result.faults);
}

#[test]
fn injected_panic_recovers_on_the_first_retry() {
    // `:1` fires on attempt 0 only: the panic unwinds through the
    // isolation boundary, the retry runs clean and recovers the block
    let (result, _) = run_faulted("place:ccx:panic:1", DesignStyle::Flat2d, 1);

    assert_eq!(result.faults.len(), 1);
    let f = &result.faults[0];
    assert_eq!(f.block, "ccx");
    assert_eq!(f.stage, FlowStage::Place);
    assert_eq!(f.attempts, 2, "first run + one retry");
    assert_eq!(f.disposition, Disposition::Recovered);
    assert!(
        result.per_block.iter().all(|(_, _, m)| !m.degraded),
        "a recovered block carries real flow results"
    );
}

#[test]
fn faulted_runs_are_thread_invariant() {
    // one permanent panic (degrades) plus one transient error (recovers)
    let plan = "route:ccx:panic,sta:mcu0:error:1";
    let (serial, serial_outcome) = run_faulted(plan, DesignStyle::CoreCache, 1);
    let (parallel, parallel_outcome) = run_faulted(plan, DesignStyle::CoreCache, 4);

    assert_eq!(serial.faults.len(), 2);
    assert_same(&serial, &parallel);
    assert_eq!(serial_outcome, parallel_outcome);
}

#[test]
fn checkpoint_resume_replays_blocks_byte_identically() {
    let store = Arc::new(CheckpointStore::in_memory());
    let first = run(DesignStyle::CoreCache, 1, Some(store.clone()));
    assert_eq!(store.len(), first.per_block.len(), "every block stored");
    assert_eq!(store.hits(), 0, "a cold store replays nothing");

    // resume with a different thread count: every block replays
    let resumed = run(DesignStyle::CoreCache, 4, Some(store.clone()));
    assert_eq!(store.hits() as usize, first.per_block.len());
    assert_same(&first, &resumed);
}

#[test]
fn torn_checkpoint_tail_is_recomputed_on_resume() {
    let path =
        std::env::temp_dir().join(format!("foldic-fault-itest-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let first = {
        let store = Arc::new(CheckpointStore::open(&path).unwrap());
        run(DesignStyle::Flat2d, 2, Some(store))
    };

    // simulate a kill mid-append: chop into the last entry
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();

    let store = Arc::new(CheckpointStore::open(&path).unwrap());
    let loaded = store.len();
    assert!(
        loaded < first.per_block.len(),
        "the torn entry must be dropped"
    );
    let resumed = run(DesignStyle::Flat2d, 1, Some(store.clone()));
    assert_eq!(store.hits() as usize, loaded, "intact entries replay");
    assert_same(&first, &resumed);
    let _ = std::fs::remove_file(&path);
}
