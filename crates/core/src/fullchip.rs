//! Full-chip assembly: the five design styles of Fig. 8.
//!
//! A full-chip run (§3 and §6):
//!
//! 1. for folded styles, fold the five selected block types (SPC via
//!    second-level FUB folding, CCX via the natural PCX/CPX split, L2D via
//!    macro-row splitting, L2T and RTX via min-cut);
//! 2. floorplan the blocks (user-defined arrangements per style) and plan
//!    chip-level TSVs for cross-die nets;
//! 3. derive per-block I/O timing budgets from the chip-level net lengths
//!    (the §2.2 constraint-extraction step);
//! 4. run the block flow on every unfolded block against those budgets;
//! 5. route the inter-block nets on the M8–M9 over-the-block resources —
//!    SPCs and F2F-folded blocks block them (§6.1) — and roll up chip
//!    power, wirelength and via counts.

use crate::flow::{block_max_layer, collect_metrics, run_block_flow, FlowConfig};
use crate::folding::{
    fold_block_with_budgets, fold_spc_second_level, FoldAspect, FoldConfig, FoldStrategy,
};
use crate::metrics::DesignMetrics;
use foldic_fault::deadline::{backoff_wait, has_stage_override, run_token, stage_scope};
use foldic_fault::{
    fault_point, isolate, job_scope, log_fault, CheckpointStore, Disposition, FaultRecord,
    FlowError, FlowStage, RetryPolicy,
};
use foldic_floorplan::{floorplan_t2, plan_chip_tsvs, ChipPlan, FloorplanStyle};
use foldic_geom::{Point, Rect, Tier};
use foldic_netlist::{Block, BlockId, BlockKind, ClockDomain, Design};
use foldic_obs::json::Json;
use foldic_opt::chip_repeater_spacing_um;
use foldic_power::PowerReport;
use foldic_route::GlobalRouter;
use foldic_tech::{BondingStyle, CellKind, Drive, RoutingPolicy, Technology, VthClass};
use foldic_timing::TimingBudgets;
use std::collections::HashMap;
use std::sync::Arc;

/// Effective chip-net delay per µm of routed length in ps (a buffered
/// top-metal wire).
const CHIP_DELAY_PS_PER_UM: f64 = 0.12;
/// Toggle activity of inter-block buses.
const CHIP_NET_ACTIVITY: f64 = 0.15;
/// Fraction of the raw M8–M9 track supply available for signal routing.
const TRACK_UTILIZATION: f64 = 0.6;

/// The five full-chip design styles of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignStyle {
    /// 2D baseline (Fig. 8a).
    Flat2d,
    /// Core/cache stacking, F2B, no folding (Fig. 8b).
    CoreCache,
    /// Core/core stacking, F2B, no folding (Fig. 8c).
    CoreCore,
    /// Five block types folded, TSVs (Fig. 8d).
    FoldedF2b,
    /// Five block types folded, F2F vias (Fig. 8e).
    FoldedF2f,
}

impl DesignStyle {
    /// All five styles in Fig. 8 order.
    pub const ALL: [DesignStyle; 5] = [
        DesignStyle::Flat2d,
        DesignStyle::CoreCache,
        DesignStyle::CoreCore,
        DesignStyle::FoldedF2b,
        DesignStyle::FoldedF2f,
    ];

    /// `true` for two-tier styles.
    pub fn is_3d(self) -> bool {
        !matches!(self, DesignStyle::Flat2d)
    }

    /// Bonding style of the stack.
    pub fn bonding(self) -> BondingStyle {
        match self {
            DesignStyle::FoldedF2f => BondingStyle::FaceToFace,
            _ => BondingStyle::FaceToBack,
        }
    }

    /// `true` when blocks are folded.
    pub fn folded(self) -> bool {
        matches!(self, DesignStyle::FoldedF2b | DesignStyle::FoldedF2f)
    }

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            DesignStyle::Flat2d => "2D",
            DesignStyle::CoreCache => "3D core/cache",
            DesignStyle::CoreCore => "3D core/core",
            DesignStyle::FoldedF2b => "3D folded (F2B)",
            DesignStyle::FoldedF2f => "3D folded (F2F)",
        }
    }

    /// Short machine-readable name used in metric keys and manifests.
    pub fn slug(self) -> &'static str {
        match self {
            DesignStyle::Flat2d => "2d",
            DesignStyle::CoreCache => "core_cache",
            DesignStyle::CoreCore => "core_core",
            DesignStyle::FoldedF2b => "folded_f2b",
            DesignStyle::FoldedF2f => "folded_f2f",
        }
    }
}

/// Full-chip run configuration.
#[derive(Debug, Clone)]
pub struct FullChipConfig {
    /// Per-block flow settings.
    pub flow: FlowConfig,
    /// Fold RTX too (the paper builds both a 4-type and a 5-type variant,
    /// §6.1).
    pub fold_rtx: bool,
    /// Enable dual-Vth everywhere.
    pub dual_vth: bool,
    /// Worker threads for the per-block fan-out (1 = serial). Results are
    /// identical for any thread count: blocks are independent and each
    /// job's RNG stream is seeded from its own config.
    pub threads: usize,
    /// How often a failing block is retried (with a perturbed seed and a
    /// relaxed config) before it degrades to analytical estimates.
    pub retry: RetryPolicy,
    /// When set, finished per-block results are written here and later
    /// runs skip blocks whose key is already present (resume).
    pub checkpoint: Option<Arc<CheckpointStore>>,
}

impl FullChipConfig {
    /// Fast settings for tests.
    pub fn fast() -> Self {
        Self {
            flow: FlowConfig::fast(),
            ..Self::default()
        }
    }
}

impl Default for FullChipConfig {
    fn default() -> Self {
        Self {
            flow: FlowConfig::default(),
            fold_rtx: true,
            dual_vth: false,
            threads: 1,
            retry: RetryPolicy::default(),
            checkpoint: None,
        }
    }
}

/// Result of a full-chip run.
#[derive(Debug, Clone)]
pub struct FullChipResult {
    /// Which style was built.
    pub style: DesignStyle,
    /// Die outline.
    pub die: foldic_geom::Rect,
    /// Chip totals (footprint = one die).
    pub chip: DesignMetrics,
    /// Per-block sign-off metrics.
    pub per_block: Vec<(String, BlockKind, DesignMetrics)>,
    /// Chip-level 3D connections (between blocks).
    pub chip_vias: usize,
    /// Intra-block 3D connections (inside folded blocks).
    pub intra_block_vias: usize,
    /// Routed inter-block wirelength in µm.
    pub interblock_wl_um: f64,
    /// Inter-block routing detour factor.
    pub interblock_detour: f64,
    /// Inter-block connections that crossed over-capacity regions.
    pub route_overflow: usize,
    /// Faulted blocks of this run (sorted by block name): what failed,
    /// how many attempts were spent, and whether the block recovered or
    /// degraded to analytical estimates.
    pub faults: Vec<FaultRecord>,
}

/// Stable scope label of a `(style, dual_vth)` run, used for fault
/// records and checkpoint keys (e.g. `"core_cache"`, `"folded_f2b.dvt"`).
fn run_scope(style: DesignStyle, dual_vth: bool) -> String {
    if dual_vth {
        format!("{}.dvt", style.slug())
    } else {
        style.slug().to_owned()
    }
}

/// Runs one per-block job behind an isolation boundary: a panic or a
/// recoverable [`FlowError`] restores the block from a pristine clone and
/// retries with the attempt counter bumped (callers perturb seeds and
/// relax configs off it); when every attempt fails — or immediately on a
/// non-recoverable validation error — the block degrades to analytical
/// estimates. Fault provenance is pushed to the run context's fault log
/// and returned for the run's own `faults` table.
fn run_block_isolated(
    scope: &str,
    block: &mut Block,
    retry: RetryPolicy,
    attempt_fn: impl Fn(&mut Block, u32) -> Result<DesignMetrics, FlowError>,
    degrade_fn: impl FnOnce(&Block) -> DesignMetrics,
) -> (DesignMetrics, Option<FaultRecord>) {
    let pristine = block.clone();
    let token = run_token();
    let mut last_stage = FlowStage::Job;
    let mut last_timed_out = false;
    let mut last_mem_exceeded = false;
    let mut attempts = 0;
    for attempt in 0..retry.max_attempts {
        if attempt > 0 {
            *block = pristine.clone();
            // a cancelled run stops retrying and degrades right away; a
            // backoff wait is likewise cut short by cancellation
            if token.is_cancelled() || !backoff_wait(retry.backoff, &token) {
                last_timed_out = true;
                break;
            }
        }
        attempts = attempt + 1;
        // the job-wide memory scope lives inside the isolation boundary
        // so a mem-breach unwind still pops it via the guard's Drop
        let result = isolate(|| {
            let _mem = job_scope(&block.name, attempt);
            attempt_fn(block, attempt)
        });
        match result {
            Ok(metrics) => {
                if attempt == 0 {
                    return (metrics, None);
                }
                let record = FaultRecord {
                    scope: scope.to_owned(),
                    block: block.name.clone(),
                    stage: last_stage,
                    attempts,
                    disposition: Disposition::Recovered,
                    timed_out: last_timed_out,
                    mem_exceeded: last_mem_exceeded,
                };
                log_fault(record.clone());
                return (metrics, Some(record));
            }
            Err(e) => {
                last_stage = e.stage;
                last_timed_out = e.is_timeout();
                last_mem_exceeded = e.is_mem_exceeded();
                if !e.recoverable() {
                    break; // invalid input fails identically every time
                }
            }
        }
    }
    *block = pristine;
    let metrics = degrade_fn(block);
    let record = FaultRecord {
        scope: scope.to_owned(),
        block: block.name.clone(),
        stage: last_stage,
        attempts,
        disposition: Disposition::Degraded,
        timed_out: last_timed_out,
        mem_exceeded: last_mem_exceeded,
    };
    log_fault(record.clone());
    (metrics, Some(record))
}

/// Analytical stand-in metrics for a block whose flow never finished:
/// wiring and power are estimated on the pristine (unoptimized) netlist,
/// timing is not claimed (`wns_ps` = 0), and the result is marked
/// [`degraded`](DesignMetrics::degraded).
fn degraded_estimate(
    block: &Block,
    tech: &Technology,
    bonding: BondingStyle,
    policy: &RoutingPolicy,
) -> DesignMetrics {
    let max_layer = block_max_layer(block, bonding, policy);
    let wiring = foldic_route::BlockWiring::analyze(
        &block.netlist,
        tech,
        foldic_route::wiring::DEFAULT_DETOUR,
        None,
    );
    let mut metrics = match wiring {
        Ok(wiring) => {
            let mut pw_cfg = foldic_power::PowerConfig::for_block(block);
            pw_cfg.max_layer = max_layer;
            let power = foldic_power::analyze_block(&block.netlist, tech, &wiring, &pw_cfg)
                .unwrap_or_default();
            collect_metrics(&block.netlist, block, tech, &wiring, None, power, 0.0)
        }
        // even the estimate failed: report the outline and nothing else
        Err(_) => DesignMetrics {
            footprint_um2: block.outline.area(),
            ..Default::default()
        },
    };
    metrics.degraded = true;
    metrics
}

/// Serializes a finished block into a checkpoint value: its metrics plus
/// the geometry downstream stages read back (outline, folded flag, port
/// positions and tiers) and the block's fault record, if any. Netlist
/// internals are *not* captured — resumed blocks skip their flow, so
/// nothing downstream re-reads instance placement.
fn snapshot_block(block: &Block, metrics: &DesignMetrics, fault: &Option<FaultRecord>) -> Json {
    let mut pairs = vec![
        ("metrics".to_owned(), metrics.to_json()),
        (
            "outline".to_owned(),
            Json::Arr(vec![
                Json::Num(block.outline.llx),
                Json::Num(block.outline.lly),
                Json::Num(block.outline.urx),
                Json::Num(block.outline.ury),
            ]),
        ),
        (
            "folded".to_owned(),
            Json::Num(if block.folded { 1.0 } else { 0.0 }),
        ),
        (
            "ports".to_owned(),
            Json::Arr(
                block
                    .netlist
                    .ports()
                    .map(|(_, p)| {
                        Json::Arr(vec![
                            Json::Num(p.pos.x),
                            Json::Num(p.pos.y),
                            Json::Num(if p.tier == Tier::Top { 1.0 } else { 0.0 }),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(record) = fault {
        pairs.push(("fault".to_owned(), record.to_json()));
    }
    Json::obj(pairs)
}

/// Applies a checkpoint value written by [`snapshot_block`]. Everything
/// is parsed and sanity-checked *before* the block is touched, so a
/// stale or malformed entry leaves the block pristine and the caller
/// re-runs the flow instead.
fn restore_block(block: &mut Block, value: &Json) -> Option<(DesignMetrics, Option<FaultRecord>)> {
    let metrics = DesignMetrics::from_json(value.get("metrics")?).ok()?;
    let outline = value.get("outline")?.as_arr()?;
    let [llx, lly, urx, ury] = [
        outline.first()?.as_f64()?,
        outline.get(1)?.as_f64()?,
        outline.get(2)?.as_f64()?,
        outline.get(3)?.as_f64()?,
    ];
    if !(llx.is_finite() && lly.is_finite() && llx <= urx && lly <= ury) {
        return None;
    }
    let folded = value.get("folded")?.as_f64()? != 0.0;
    let port_entries = value.get("ports")?.as_arr()?;
    if port_entries.len() != block.netlist.num_ports() {
        return None; // written against a different netlist
    }
    let mut ports = Vec::with_capacity(port_entries.len());
    for entry in port_entries {
        let a = entry.as_arr()?;
        let (x, y) = (a.first()?.as_f64()?, a.get(1)?.as_f64()?);
        if !(x.is_finite() && y.is_finite()) {
            return None;
        }
        let tier = if a.get(2)?.as_f64()? != 0.0 {
            Tier::Top
        } else {
            Tier::Bottom
        };
        ports.push((Point::new(x, y), tier));
    }
    let fault = match value.get("fault") {
        Some(json) => Some(FaultRecord::from_json(json).ok()?),
        None => None,
    };
    block.outline = Rect::new(llx, lly, urx, ury);
    block.folded = folded;
    for (idx, (pos, tier)) in ports.into_iter().enumerate() {
        let port = block.netlist.port_mut(foldic_netlist::PortId::from(idx));
        port.pos = pos;
        port.tier = tier;
    }
    Some((metrics, fault))
}

/// Runs one full-chip style end to end. The design is consumed/mutated:
/// pass a fresh clone per style.
///
/// Per-block failures (organic or injected) never abort the run: each
/// block is retried under [`FullChipConfig::retry`] and degrades to
/// analytical estimates on exhaustion, with provenance in
/// [`FullChipResult::faults`].
///
/// # Errors
///
/// Returns [`FlowError`] only for chip-level failures (currently just an
/// injected floorplan fault).
pub fn run_fullchip(
    design: &mut Design,
    tech: &Technology,
    style: DesignStyle,
    cfg: &FullChipConfig,
) -> Result<FullChipResult, FlowError> {
    let _span = foldic_obs::span!("fullchip", style = style.slug(), dual_vth = cfg.dual_vth,);
    let bonding = style.bonding();
    let scope = run_scope(style, cfg.dual_vth);
    let mut faults: Vec<FaultRecord> = Vec::new();
    // the run's cancel token (never cancelled when the run carries no
    // deadline policy): fan-outs stop handing out jobs once it trips, and each
    // skipped block degrades to analytical estimates
    let token = run_token();
    let degrade_skipped = |(id, block): (BlockId, &mut Block), faults: &mut Vec<FaultRecord>| {
        let metrics = degraded_estimate(block, tech, bonding, &cfg.flow.policy);
        let record = FaultRecord {
            scope: scope.clone(),
            block: block.name.clone(),
            stage: FlowStage::Job,
            attempts: 0,
            disposition: Disposition::Degraded,
            timed_out: true,
            mem_exceeded: false,
        };
        log_fault(record.clone());
        faults.push(record);
        (id, metrics)
    };

    // ---- 1. fold the selected blocks --------------------------------------
    let mut folded_results: HashMap<BlockId, DesignMetrics> = HashMap::new();
    let mut intra_block_vias = 0;
    if style.folded() {
        let fold_cfg = |strategy, aspect| FoldConfig {
            strategy,
            aspect,
            bonding,
            placer: cfg.flow.placer.clone(),
            opt: cfg.flow.opt.clone(),
            dual_vth: cfg.dual_vth,
            ..FoldConfig::default()
        };
        // one job per foldable block: blocks are disjoint, so handing out
        // simultaneous `&mut Block` borrows is safe and the engine fans
        // them out across workers
        let jobs: Vec<(BlockId, &mut Block)> = design
            .blocks_mut()
            .filter(|(_, b)| {
                matches!(
                    b.kind,
                    BlockKind::Spc | BlockKind::Ccx | BlockKind::L2d | BlockKind::L2t
                ) || (b.kind == BlockKind::Rtx && cfg.fold_rtx)
            })
            .collect();
        let results = foldic_exec::profile::stage("fold", || {
            foldic_exec::run_cancellable(cfg.threads, jobs, &token, |_, (id, block)| {
                let key = format!("{scope}/{}", block.name);
                if let Some(store) = &cfg.checkpoint {
                    if let Some(value) = store.get(&key) {
                        if let Some((metrics, fault)) = restore_block(block, &value) {
                            if let Some(record) = &fault {
                                log_fault(record.clone());
                            }
                            return (id, metrics, fault);
                        }
                    }
                }
                let kind = block.kind;
                let (metrics, fault) = run_block_isolated(
                    &scope,
                    block,
                    cfg.retry,
                    |b, attempt| {
                        if kind == BlockKind::Spc {
                            let c = fold_cfg(FoldStrategy::MinCut, FoldAspect::Keep)
                                .relaxed_for_retry(attempt);
                            Ok(fold_spc_second_level(b, tech, &c)?.metrics)
                        } else {
                            let strategy = match kind {
                                BlockKind::Ccx => FoldStrategy::NaturalGroups(vec!["pcx".into()]),
                                BlockKind::L2d => FoldStrategy::MacroRows,
                                _ => FoldStrategy::MinCut,
                            };
                            let aspect = match kind {
                                BlockKind::Ccx => FoldAspect::Square,
                                BlockKind::L2d => FoldAspect::KeepWidth,
                                _ => FoldAspect::Keep,
                            };
                            let c = fold_cfg(strategy, aspect).relaxed_for_retry(attempt);
                            let budgets = TimingBudgets::relaxed(&b.netlist, tech);
                            Ok(fold_block_with_budgets(b, tech, &budgets, &c)?.metrics)
                        }
                    },
                    |b| degraded_estimate(b, tech, bonding, &cfg.flow.policy),
                );
                if let Some(store) = &cfg.checkpoint {
                    store.put(&key, snapshot_block(block, &metrics, &fault));
                }
                (id, metrics, fault)
            })
        });
        for outcome in results {
            let (id, m) = match outcome {
                foldic_exec::JobOutcome::Done((id, m, fault)) => {
                    faults.extend(fault);
                    (id, m)
                }
                foldic_exec::JobOutcome::Skipped(job) => degrade_skipped(job, &mut faults),
            };
            intra_block_vias += m.num_3d_connections;
            folded_results.insert(id, m);
        }
    }

    // ---- 2. floorplan -------------------------------------------------------
    // the chip floorplan is serial and non-retryable: it only opts into a
    // wall-clock scope on an explicit `--stage-timeout floorplan=…`, and a
    // trip aborts the run like any other chip-level fault
    let fp_style = match style {
        DesignStyle::Flat2d | DesignStyle::FoldedF2b | DesignStyle::FoldedF2f => {
            FloorplanStyle::Flat2d
        }
        DesignStyle::CoreCache => FloorplanStyle::CoreCache,
        DesignStyle::CoreCore => FloorplanStyle::CoreCore,
    };
    let mut plan: ChipPlan = isolate(|| {
        let _scope = if has_stage_override(FlowStage::Floorplan) {
            Some(stage_scope(FlowStage::Floorplan, "chip", 0)?)
        } else {
            None
        };
        fault_point(FlowStage::Floorplan, "chip", 0)?;
        Ok(foldic_exec::profile::stage("floorplan", || {
            floorplan_t2(design, fp_style, tech)
        }))
    })?;
    if style.folded() {
        // folded blocks expose ports on both tiers: cross-die chip nets
        // exist even though the arrangement is single-layout
        plan.tsvs = plan_chip_tsvs(design, plan.die, tech);
    }

    // ---- 3. floorplan-driven pin assignment + timing budgets ----------------
    assign_port_positions(design, &plan);
    let budgets = chip_budgets(design, &plan, tech);

    // ---- 4. block flows -------------------------------------------------------
    let mut flow_cfg = cfg.flow.clone();
    flow_cfg.bonding = bonding;
    flow_cfg.dual_vth = cfg.dual_vth;
    let order: Vec<BlockId> = design.block_ids().collect();
    let jobs: Vec<(BlockId, &mut Block)> = design
        .blocks_mut()
        .filter(|(id, _)| !folded_results.contains_key(id))
        .collect();
    let flow_results = foldic_exec::profile::stage("block_flows", || {
        foldic_exec::run_cancellable(cfg.threads, jobs, &token, |_, (id, block)| {
            let key = format!("{scope}/{}", block.name);
            if let Some(store) = &cfg.checkpoint {
                if let Some(value) = store.get(&key) {
                    if let Some((metrics, fault)) = restore_block(block, &value) {
                        if let Some(record) = &fault {
                            log_fault(record.clone());
                        }
                        return (id, metrics, fault);
                    }
                }
            }
            let (metrics, fault) = run_block_isolated(
                &scope,
                block,
                cfg.retry,
                |b, attempt| {
                    Ok(run_block_flow(
                        b,
                        tech,
                        &budgets[&id],
                        &flow_cfg.relaxed_for_retry(attempt),
                    )?
                    .metrics)
                },
                |b| degraded_estimate(b, tech, bonding, &cfg.flow.policy),
            );
            if let Some(store) = &cfg.checkpoint {
                store.put(&key, snapshot_block(block, &metrics, &fault));
            }
            (id, metrics, fault)
        })
    });
    let mut flow_metrics: HashMap<BlockId, DesignMetrics> = HashMap::new();
    for outcome in flow_results {
        let (id, m) = match outcome {
            foldic_exec::JobOutcome::Done((id, m, fault)) => {
                faults.extend(fault);
                (id, m)
            }
            foldic_exec::JobOutcome::Skipped(job) => degrade_skipped(job, &mut faults),
        };
        flow_metrics.insert(id, m);
    }
    let mut per_block = Vec::new();
    for id in order {
        let metrics = folded_results
            .get(&id)
            .copied()
            .unwrap_or_else(|| flow_metrics[&id]);
        let b = design.block(id);
        per_block.push((b.name.clone(), b.kind, metrics));
    }

    // ---- 5. inter-block routing and roll-up -----------------------------------
    let chip_route_timer = foldic_exec::profile::StageTimer::start("chip_route");
    let top = tech.metal.top_layer();
    let tracks_per_um = 2.0 / top.pitch_um * TRACK_UTILIZATION;
    let mut router = GlobalRouter::new(plan.die, plan.die.width().max(64.0) / 32.0, tracks_per_um);
    for (_, b) in design.blocks() {
        let open_fraction: f64 = if b.routing_hungry() {
            if style.is_3d() && !b.folded {
                0.5 // the other die is still open above the SPC
            } else {
                0.0
            }
        } else if b.folded {
            match bonding {
                BondingStyle::FaceToFace => 0.0, // §6.1: blocks both dies
                BondingStyle::FaceToBack => 0.5, // top die of the fold uses M8–M9
            }
        } else {
            1.0
        };
        if open_fraction < 1.0 {
            router.scale_capacity(b.chip_rect(), open_fraction);
        }
    }
    let mut tsv_iter = plan.tsvs.iter();
    let mut chip_net_wire_cap_ghz = 0.0; // Σ cap·f over chip nets
    for net in design.chip_nets() {
        let pts: Vec<(Point, foldic_geom::Tier)> = net
            .endpoints
            .iter()
            .map(|&(bid, pid)| {
                let b = design.block(bid);
                let port = b.netlist.port(pid);
                let tier = if b.folded { port.tier } else { b.tier };
                (b.to_chip(port.pos), tier)
            })
            .collect();
        let cross = pts.windows(2).any(|w| w[0].1 != w[1].1);
        let routed = if cross {
            let via = tsv_iter
                .next()
                .copied()
                .unwrap_or_else(|| pts[0].0.midpoint(pts[pts.len() - 1].0));
            let mut len = 0.0;
            for &(p, _) in &pts {
                len += router.route(p, via, net.bits as f64);
            }
            len
        } else {
            let mut len = 0.0;
            for w in pts.windows(2) {
                len += router.route(w[0].0, w[1].0, net.bits as f64);
            }
            len
        };
        let f = net.domain.frequency_ghz(tech);
        chip_net_wire_cap_ghz += routed * net.bits as f64 * top.c_per_um * f;
    }
    let route_stats = router.stats();
    drop(chip_route_timer);
    let interblock_wl_um = route_stats.routed_um;

    // chip-level repeaters on the inter-block wiring
    let spacing = chip_repeater_spacing_um(tech);
    let chip_buffers = (interblock_wl_um / spacing).round() as usize;
    let buf = tech.cells.get(CellKind::Buf, Drive::X8, VthClass::Rvt);

    let mut chip = DesignMetrics {
        footprint_um2: plan.die.area(),
        ..Default::default()
    };
    for (_, _, m) in &per_block {
        chip.absorb(m);
    }
    chip.wirelength_um += interblock_wl_um;
    chip.num_buffers += chip_buffers;
    chip.num_cells += chip_buffers;
    // chip TSV/F2F capacitance on cross-die nets
    let via_cap = match bonding {
        BondingStyle::FaceToBack => tech.tsv.capacitance_ff(),
        BondingStyle::FaceToFace => tech.f2f_via.capacitance_ff(),
    };
    let cross_nets = plan.tsvs.len();
    let chip_power = PowerReport {
        cell_uw: chip_buffers as f64
            * buf.internal_energy_fj
            * tech.cpu_clock_ghz
            * CHIP_NET_ACTIVITY,
        net_wire_uw: (chip_net_wire_cap_ghz + cross_nets as f64 * via_cap * tech.cpu_clock_ghz)
            * tech.vdd
            * tech.vdd
            * CHIP_NET_ACTIVITY,
        net_pin_uw: 0.0,
        leakage_uw: chip_buffers as f64 * buf.leakage_uw,
    };
    chip.power += chip_power;
    chip.num_3d_connections = cross_nets + intra_block_vias;

    // Per-style chip roll-up gauges. This runs serially once per
    // (style, dual_vth) pair within a run, so last-write-wins is safe,
    // and the values are pure functions of the deterministic flow — they
    // land in manifests and must not vary across thread counts.
    if foldic_obs::metrics::is_enabled() {
        let key = |field: &str| {
            let dvt = if cfg.dual_vth { ".dvt" } else { "" };
            format!("fullchip.{}{dvt}.{field}", style.slug())
        };
        foldic_obs::metrics::set_gauge(&key("power_total_uw"), chip.power.total_uw());
        foldic_obs::metrics::set_gauge(&key("power_cell_uw"), chip.power.cell_uw);
        foldic_obs::metrics::set_gauge(&key("power_net_uw"), chip.power.net_uw());
        foldic_obs::metrics::set_gauge(&key("power_leakage_uw"), chip.power.leakage_uw);
        foldic_obs::metrics::set_gauge(&key("wirelength_um"), chip.wirelength_um);
        foldic_obs::metrics::set_gauge(&key("footprint_um2"), chip.footprint_um2);
        foldic_obs::metrics::set_gauge(&key("connections_3d"), chip.num_3d_connections as f64);
        foldic_obs::metrics::set_gauge(&key("buffers"), chip.num_buffers as f64);
    }

    faults.sort();
    Ok(FullChipResult {
        style,
        die: plan.die,
        chip,
        per_block,
        chip_vias: cross_nets,
        intra_block_vias,
        interblock_wl_um,
        interblock_detour: route_stats.detour(),
        route_overflow: route_stats.overflowed,
        faults,
    })
}

/// Re-assigns every unfolded block's port locations from the floorplan
/// (the pin-assignment step of the paper's flow, re-run per configuration):
///
/// * a port facing a *same-tier* peer moves to the boundary point nearest
///   the straight line toward that peer;
/// * a port whose peer sits on the *other* die moves to the projection of
///   its chip-level TSV / F2F-via onto the block — in a 3D stack the 3D
///   connection lands wherever is best for the internal logic, which is
///   precisely why stacking shortens port-attached wiring.
///
/// Folded blocks keep the port tiers/positions their fold assigned.
pub fn assign_port_positions(design: &mut Design, plan: &ChipPlan) {
    // collect (block, port, target chip position, cross-tier?) first
    let mut moves: Vec<(BlockId, foldic_netlist::PortId, Point, bool)> = Vec::new();
    let mut tsv_iter = plan.tsvs.iter();
    for net in design.chip_nets() {
        let pts: Vec<(BlockId, foldic_netlist::PortId, Point, foldic_geom::Tier)> = net
            .endpoints
            .iter()
            .map(|&(bid, pid)| {
                let b = design.block(bid);
                let port = b.netlist.port(pid);
                let tier = if b.folded { port.tier } else { b.tier };
                (bid, pid, b.to_chip(port.pos), tier)
            })
            .collect();
        let cross = pts.windows(2).any(|w| w[0].3 != w[1].3);
        if cross {
            let via = tsv_iter
                .next()
                .copied()
                .unwrap_or_else(|| pts[0].2.midpoint(pts[pts.len() - 1].2));
            for &(bid, pid, _, _) in &pts {
                moves.push((bid, pid, via, true));
            }
        } else {
            // aim each port at the other endpoint's current location
            for (k, &(bid, pid, _, _)) in pts.iter().enumerate() {
                let other = pts[(k + 1) % pts.len()].2;
                moves.push((bid, pid, other, false));
            }
        }
    }
    for (bid, pid, target, cross) in moves {
        let block = design.block_mut(bid);
        if block.folded {
            continue; // the fold already placed these ports
        }
        let rect = block.outline;
        let local = target - block.pos;
        let new_pos = if cross && rect.contains(local) {
            // the 3D connection is directly over the block: land the pin
            // right there
            local
        } else {
            // clamp to the boundary facing the target
            let c = local.clamped(rect);
            // push onto the nearest edge
            let d_left = (c.x - rect.llx).abs();
            let d_right = (rect.urx - c.x).abs();
            let d_bot = (c.y - rect.lly).abs();
            let d_top = (rect.ury - c.y).abs();
            let min = d_left.min(d_right).min(d_bot).min(d_top);
            if min == d_left {
                Point::new(rect.llx, c.y)
            } else if min == d_right {
                Point::new(rect.urx, c.y)
            } else if min == d_bot {
                Point::new(c.x, rect.lly)
            } else {
                Point::new(c.x, rect.ury)
            }
        };
        block.netlist.port_mut(pid).pos = new_pos;
    }
}

/// Derives per-block port budgets from chip-level net lengths: an input
/// port's data arrives later the longer its chip net; an output port must
/// be ready earlier when it drives a long chip net.
pub fn chip_budgets(
    design: &Design,
    plan: &ChipPlan,
    tech: &Technology,
) -> HashMap<BlockId, TimingBudgets> {
    let mut budgets: HashMap<BlockId, TimingBudgets> = design
        .block_ids()
        .map(|id| (id, TimingBudgets::relaxed(&design.block(id).netlist, tech)))
        .collect();
    let mut tsv_iter = plan.tsvs.iter();
    for net in design.chip_nets() {
        let pts: Vec<(Point, foldic_geom::Tier)> = net
            .endpoints
            .iter()
            .map(|&(bid, pid)| {
                let b = design.block(bid);
                let port = b.netlist.port(pid);
                let tier = if b.folded { port.tier } else { b.tier };
                (b.to_chip(port.pos), tier)
            })
            .collect();
        let cross = pts.windows(2).any(|w| w[0].1 != w[1].1);
        let len = if cross {
            let via = tsv_iter
                .next()
                .copied()
                .unwrap_or_else(|| pts[0].0.midpoint(pts[pts.len() - 1].0));
            pts.iter().map(|&(p, _)| p.manhattan(via)).sum::<f64>()
        } else {
            pts.windows(2)
                .map(|w| w[0].0.manhattan(w[1].0))
                .sum::<f64>()
        };
        let delay = len * CHIP_DELAY_PS_PER_UM;
        let period = match net.domain {
            ClockDomain::Cpu => tech.cpu_period_ps(),
            ClockDomain::Io => tech.io_period_ps(),
        };
        // endpoints[0] drives, endpoints[1..] receive
        if let Some(&(bid, pid)) = net.endpoints.first() {
            if let Some(b) = budgets.get_mut(&bid) {
                let req = &mut b.output_required_ps[pid.index()];
                *req = req.min((0.75 * period - delay).max(0.15 * period));
            }
        }
        for &(bid, pid) in net.endpoints.iter().skip(1) {
            if let Some(b) = budgets.get_mut(&bid) {
                let arr = &mut b.input_arrival_ps[pid.index()];
                *arr = arr.max((0.25 * period + delay).min(0.85 * period));
            }
        }
    }
    budgets
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_t2::T2Config;

    /// End-to-end smoke test on the tiny design, 2D style.
    #[test]
    fn flat2d_fullchip_runs() {
        let (mut design, tech) = T2Config::tiny().generate();
        let result = run_fullchip(
            &mut design,
            &tech,
            DesignStyle::Flat2d,
            &FullChipConfig::fast(),
        )
        .unwrap();
        assert_eq!(result.style, DesignStyle::Flat2d);
        assert_eq!(result.per_block.len(), 46);
        assert_eq!(result.chip_vias, 0);
        assert!(result.chip.power.total_uw() > 0.0);
        assert!(result.interblock_wl_um > 0.0);
        assert!(result.chip.footprint_um2 > 0.0);
    }

    #[test]
    fn core_cache_beats_2d_on_interblock_wl() {
        let (design, tech) = T2Config::tiny().generate();
        let cfg = FullChipConfig::fast();
        let mut d2 = design.clone();
        let r2 = run_fullchip(&mut d2, &tech, DesignStyle::Flat2d, &cfg).unwrap();
        let mut d3 = design.clone();
        let r3 = run_fullchip(&mut d3, &tech, DesignStyle::CoreCache, &cfg).unwrap();
        assert!(r3.chip_vias > 0);
        assert!(
            r3.interblock_wl_um < r2.interblock_wl_um,
            "3D {} vs 2D {}",
            r3.interblock_wl_um,
            r2.interblock_wl_um
        );
        assert!(r3.chip.footprint_um2 < r2.chip.footprint_um2);
    }

    #[test]
    fn budgets_tighten_with_distance() {
        let (mut design, tech) = T2Config::tiny().generate();
        let plan = floorplan_t2(&mut design, FloorplanStyle::Flat2d, &tech);
        let budgets = chip_budgets(&design, &plan, &tech);
        // some input port must have a later-than-default arrival
        let mut tightened = 0;
        for (id, b) in &budgets {
            let block = design.block(*id);
            for (pid, port) in block.netlist.ports() {
                let period = port.domain.period_ps(&tech);
                if b.input_arrival_ps[pid.index()] > 0.26 * period {
                    tightened += 1;
                }
            }
        }
        assert!(tightened > 0, "chip distances must tighten some budgets");
    }
}
