//! The in-process flow workloads: `chip-2d3d`, `fold-3d` and `paper-suite`.
//!
//! Each workload generates its design during set-up, then repeats one
//! pass of its study until the measuring window is used up. Every pass's
//! outputs are checked against reference digests outside the timed part.
//! A traced run adds one untraced pass and one pass with spans around
//! every call the benchmark makes into a layer crate.

use crate::report::{check_digests, digest, median, peak_rss_mib, Digests, Outcome};
use crate::trace::{Summary, Tracer};
use crate::{Settings, SETUP_ROUNDS};
use foldic::flow::{block_max_layer, collect_metrics};
use foldic::folding::{fold_block_with_budgets, fold_with_partition};
use foldic::fullchip::{assign_port_positions, chip_budgets};
use foldic::{
    fold_spc_second_level, run_fullchip, DesignMetrics, DesignStyle, FlowConfig, FoldAspect,
    FoldConfig, FoldStrategy, FoldedBlock, FullChipConfig, FullChipResult,
};
use foldic_bench::{experiments, Ctx};
use foldic_floorplan::{floorplan_t2, FloorplanStyle};
use foldic_geom::{Point, Tier};
use foldic_netlist::{Block, BlockKind, Design, GroupId, InstId, Netlist};
use foldic_obs::json::Json;
use foldic_partition::{bipartition, bipartition_seeded, partition_by_groups, Partition};
use foldic_tech::{BondingStyle, Technology};
use foldic_timing::{StaConfig, TimingBudgets};
use std::collections::HashMap;
use std::time::Instant;

/// The three unfolded styles of Table 2.
const UNFOLDED: [DesignStyle; 3] = [
    DesignStyle::Flat2d,
    DesignStyle::CoreCache,
    DesignStyle::CoreCore,
];

/// Block kinds a folded full chip folds (RTX included, as by default).
const FOLD_KINDS: [BlockKind; 5] = [
    BlockKind::Spc,
    BlockKind::Ccx,
    BlockKind::L2d,
    BlockKind::L2t,
    BlockKind::Rtx,
];

const BONDINGS: [BondingStyle; 2] = [BondingStyle::FaceToBack, BondingStyle::FaceToFace];

/// Experiments of `paper-suite`, in `repro` run order, with their span names.
const EXPERIMENTS: [(&str, &str); 13] = [
    ("table1", "experiments.table1"),
    ("table2", "experiments.table2"),
    ("table3", "experiments.table3"),
    ("table4", "experiments.table4"),
    ("fig2", "experiments.fig2"),
    ("fig3", "experiments.fig3"),
    ("fig5", "experiments.fig5"),
    ("fig6", "experiments.fig6"),
    ("fig7", "experiments.fig7"),
    ("fig8", "experiments.fig8"),
    ("table5", "experiments.table5"),
    ("thermal", "experiments.thermal"),
    ("ablations", "experiments.ablations"),
];

/// A generated design plus the technology it was generated against.
pub struct Input {
    pub cfg: foldic_t2::T2Config,
    pub design: Design,
    pub tech: Technology,
}

/// Design generation rounds, timed; `setup_s` is their median. Rounds run
/// before the study and between its timed passes, so they sample the
/// host over the same stretch of time as the passes do: on a shared host
/// a run of back-to-back 0.1 s rounds lands in one fast or slow phase.
struct Setup {
    cfg: foldic_t2::T2Config,
    times: Vec<f64>,
}

/// Generation rounds after each timed pass.
const SETUP_ROUNDS_PER_PASS: usize = 3;

impl Setup {
    fn round(&mut self, tracer: &Tracer) -> (Design, Technology) {
        let t = Instant::now();
        let generated = tracer.span("t2gen.generate", || self.cfg.generate());
        self.times.push(t.elapsed().as_secs_f64());
        generated
    }
}

/// Generates the design `SETUP_ROUNDS` times and keeps the last.
fn setup(s: &Settings, tracer: &Tracer, out: &mut Outcome) -> (Input, Setup) {
    let mut cfg = s.size.t2();
    cfg.seed = s.seed;
    let mut setup = Setup {
        cfg: cfg.clone(),
        times: Vec::new(),
    };
    let mut last = None;
    for _ in 0..SETUP_ROUNDS {
        last = Some(setup.round(tracer));
    }
    let (design, tech) = last.expect("at least one generation ran");
    out.info("design_blocks", Json::Num(design.num_blocks() as f64));
    out.info("design_instances", Json::Num(design.total_insts() as f64));
    (Input { cfg, design, tech }, setup)
}

/// Stored references when the benchmark has them for this workload, size
/// and seed; otherwise a serial (`threads = 1`) run computes them.
fn references(
    s: &Settings,
    workload: &str,
    out: &mut Outcome,
    serial: impl FnOnce() -> Result<Digests, String>,
) -> Result<Digests, String> {
    let path = s.refs_path(workload);
    if s.bless {
        let refs = serial()?;
        crate::report::write_refs(&path, &refs)?;
        eprintln!("wrote {} references to {}", refs.len(), path.display());
        out.info("references", Json::Str("blessed".to_owned()));
        return Ok(refs);
    }
    if path.exists() {
        out.info("references", Json::Str("stored".to_owned()));
        return crate::report::read_refs(&path);
    }
    out.info("references", Json::Str("serial-run".to_owned()));
    let t = Instant::now();
    let refs = serial()?;
    out.info("reference_run_s", Json::Num(t.elapsed().as_secs_f64()));
    Ok(refs)
}

/// Fewest untraced passes behind `latency_ms`, so that its median is not the
/// mean of two when a pass is long (`paper-suite`'s ≈8–10 s).
const MIN_PASSES: usize = 3;

/// Repeats `pass` until `seconds` have elapsed and at least `min_passes`
/// ran, calling `between` after each pass outside its timing; returns each
/// pass's wall time and output. Checks happen after the loop.
fn timed_passes<T>(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> T,
    mut between: impl FnMut(),
) -> (Vec<f64>, Vec<T>) {
    let window = Instant::now();
    let (mut walls, mut outputs) = (Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        outputs.push(pass());
        walls.push(t.elapsed().as_secs_f64());
        between();
        if walls.len() >= min_passes && window.elapsed().as_secs_f64() >= seconds {
            return (walls, outputs);
        }
    }
}

/// A pass's output digests plus its failures (degraded blocks, errors).
type Checked = (Digests, Vec<String>);

/// Checks one pass against the references.
fn check(refs: &Digests, (got, failures): Checked, out: &mut Outcome) {
    out.attempted += refs.len() as u64;
    for f in failures {
        out.fail(f);
    }
    check_digests(out, "output", &got, refs);
}

/// Runs untraced passes for the measuring window, at least `MIN_PASSES`
/// of them (a single pass in a traced run), with set-up rounds between
/// them, checks each, and records `setup_s`, `latency_ms` (median pass)
/// and `goodput_jobs_per_s` (the `jobs` of every pass whose checks all
/// passed, per second of pass wall time). Returns the last pass's output
/// and the median pass wall time.
fn untraced<T>(
    s: &Settings,
    refs: &Digests,
    out: &mut Outcome,
    setup: &mut Setup,
    jobs: usize,
    pass: impl Fn() -> T,
    digests: impl Fn(&T) -> Checked,
) -> (T, f64) {
    let (seconds, min_passes) = if s.traced {
        (0.0, 1)
    } else {
        (s.seconds, MIN_PASSES)
    };
    let off = Tracer::new(false);
    let (walls, mut outputs) = timed_passes(seconds, min_passes, pass, || {
        for _ in 0..SETUP_ROUNDS_PER_PASS {
            setup.round(&off);
        }
    });
    out.info(
        "setup_walls_s",
        Json::Arr(setup.times.iter().map(|&w| Json::Num(w)).collect()),
    );
    out.e2e("setup_s", median(&setup.times), setup.times.len());
    out.info(
        "pass_walls_s",
        Json::Arr(walls.iter().map(|&w| Json::Num(w)).collect()),
    );
    let mut clean = 0;
    for output in &outputs {
        let failed = out.failed;
        check(refs, digests(output), out);
        clean += usize::from(out.failed == failed);
    }
    out.e2e("latency_ms", median(&walls) * 1e3, walls.len());
    let good = (clean * jobs) as f64;
    out.e2e(
        "goodput_jobs_per_s",
        good / walls.iter().sum::<f64>(),
        clean * jobs,
    );
    let last = outputs.pop().expect("at least one pass ran");
    (last, median(&walls))
}

/// Runs one pass under a root `pass` span; returns its output, the spans
/// recorded so far (set-up included) and the pass wall time.
fn traced_pass<T>(tracer: &Tracer, pass: impl FnOnce() -> T) -> (T, Summary, f64) {
    let t = Instant::now();
    let output = tracer.span("pass", pass);
    let wall = t.elapsed().as_secs_f64();
    let (spans, counts) = tracer.take();
    (output, Summary { spans, counts }, wall)
}

/// Per-layer metrics every flow workload derives the same way.
fn common_layers(
    out: &mut Outcome,
    sum: &Summary,
    untraced: f64,
    traced: f64,
    threads: usize,
    job: &str,
) {
    let generate_calls = sum.calls("t2gen.generate").max(1.0);
    out.layer(
        "t2gen.generate_s",
        sum.busy("t2gen.generate") / generate_calls,
    );
    out.layer("exec.max_job_s", sum.max(job));
    let pass_spans = Summary {
        spans: sum
            .spans
            .iter()
            .filter(|s| s.name != "t2gen.generate")
            .cloned()
            .collect(),
        counts: Default::default(),
    };
    out.layer(
        "exec.utilization",
        pass_spans.leaf_busy() / (traced * threads as f64),
    );
    out.layer(
        "core.residual_s",
        traced - pass_spans.covered_excluding("pass"),
    );
    out.layer("trace.overhead_frac", (traced - untraced) / untraced);
}

fn record_peak_rss(out: &mut Outcome) {
    out.e2e("peak_rss_mib", peak_rss_mib("self").unwrap_or(f64::NAN), 1);
}

// ---- chip-2d3d --------------------------------------------------------------

fn chip_digests(results: &[Result<FullChipResult, String>]) -> Checked {
    let mut d = Digests::new();
    let mut failures = Vec::new();
    for r in results {
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                failures.push(e.clone());
                continue;
            }
        };
        let slug = r.style.slug();
        for (name, _, m) in &r.per_block {
            d.insert(format!("{slug}/{name}"), digest(m));
        }
        d.insert(
            format!("{slug}/chip"),
            digest(&(
                r.chip,
                r.chip_vias,
                r.intra_block_vias,
                r.interblock_wl_um,
                r.route_overflow,
            )),
        );
        failures.extend(r.faults.iter().map(|f| format!("{slug}: fault {f}")));
    }
    (d, failures)
}

fn chip_pass(input: &Input, threads: usize) -> Vec<Result<FullChipResult, String>> {
    UNFOLDED
        .iter()
        .map(|&style| {
            let mut design = input.design.clone();
            let cfg = FullChipConfig {
                threads,
                ..FullChipConfig::default()
            };
            run_fullchip(&mut design, &input.tech, style, &cfg)
                .map_err(|e| format!("{}: {e}", style.slug()))
        })
        .collect()
}

/// Replays one block's flow the way `run_block_flow` runs it, one span per
/// layer call.
fn replay_block(
    block: &mut Block,
    tech: &Technology,
    budgets: &TimingBudgets,
    cfg: &FlowConfig,
    tracer: &Tracer,
) -> Result<DesignMetrics, String> {
    let name = block.name.clone();
    let err = |e: foldic::FlowError| format!("{name}: {e}");
    block.validate(tech).map_err(|e| e.to_string())?;
    let outline = block.outline;
    let max_layer = block_max_layer(block, cfg.bonding, &cfg.policy);
    tracer.count("place.cells", block.netlist.num_insts() as f64);
    tracer
        .span("place", || {
            foldic_place::place_block(&mut block.netlist, tech, outline, &cfg.placer)
        })
        .map_err(err)?;
    let mut opt_cfg = cfg.opt.clone();
    opt_cfg.max_layer = max_layer;
    opt_cfg.via_kind = None;
    opt_cfg.dual_vth = cfg.dual_vth;
    tracer.count("opt.cells", block.netlist.num_insts() as f64);
    let opt = tracer
        .span("opt", || {
            foldic_opt::optimize_block_with_vias(&mut block.netlist, tech, budgets, &opt_cfg, None)
        })
        .map_err(err)?;
    tracer.count("opt.buffers_added", opt.buffers_added as f64);
    tracer.count("route.nets", block.netlist.num_nets() as f64);
    let wiring = tracer
        .span("route", || {
            foldic_route::BlockWiring::analyze(&block.netlist, tech, opt_cfg.detour, None)
        })
        .map_err(err)?;
    let sta_cfg = StaConfig {
        max_layer,
        via_kind: None,
    };
    let sta = tracer
        .span("timing", || {
            foldic_timing::analyze(&block.netlist, tech, &wiring, budgets, &sta_cfg)
        })
        .map_err(err)?;
    let mut pw_cfg = foldic_power::PowerConfig::for_block(block);
    pw_cfg.max_layer = max_layer;
    let power = tracer
        .span("power", || {
            foldic_power::analyze_block(&block.netlist, tech, &wiring, &pw_cfg)
        })
        .map_err(err)?;
    Ok(collect_metrics(
        &block.netlist,
        block,
        tech,
        &wiring,
        None,
        power,
        sta.wns_ps,
    ))
}

/// The traced `chip-2d3d` pass: floorplan, budgets and every block flow
/// through the layer calls, without chip routing and roll-up.
fn chip_replay(input: &Input, threads: usize, tracer: &Tracer) -> Result<Digests, String> {
    let mut d = Digests::new();
    for style in UNFOLDED {
        let mut design = input.design.clone();
        let fp_style = match style {
            DesignStyle::CoreCache => FloorplanStyle::CoreCache,
            DesignStyle::CoreCore => FloorplanStyle::CoreCore,
            _ => FloorplanStyle::Flat2d,
        };
        let plan = tracer.span("floorplan", || {
            floorplan_t2(&mut design, fp_style, &input.tech)
        });
        let budgets = tracer.span("core.budgets", || {
            assign_port_positions(&mut design, &plan);
            chip_budgets(&design, &plan, &input.tech)
        });
        let cfg = FlowConfig {
            bonding: style.bonding(),
            ..FlowConfig::default()
        };
        let parent = tracer.current();
        let jobs: Vec<_> = design.blocks_mut().collect();
        let results = foldic_exec::par_map(threads, jobs, |_, (id, block)| {
            tracer.span_under(parent, "job", || {
                let m = replay_block(block, &input.tech, &budgets[&id], &cfg, tracer);
                (block.name.clone(), m)
            })
        });
        for (name, m) in results {
            d.insert(format!("{}/{name}", style.slug()), digest(&m?));
        }
    }
    Ok(d)
}

pub fn chip_2d3d(s: &Settings, out: &mut Outcome) -> Result<(), String> {
    let tracer = Tracer::new(s.traced);
    let (input, mut generation) = setup(s, &tracer, out);
    let refs = references(s, "chip-2d3d", out, || {
        Ok(chip_digests(&chip_pass(&input, 1)).0)
    })?;
    let (results, untraced_wall) = untraced(
        s,
        &refs,
        out,
        &mut generation,
        UNFOLDED.len() * input.design.num_blocks(),
        || chip_pass(&input, s.threads),
        |r| chip_digests(r),
    );
    record_peak_rss(out);
    if !s.traced {
        return Ok(());
    }
    // the traced pass is the replay: per-block metrics must equal the
    // untraced run's `FullChipResult::per_block` bit for bit
    let (replay, sum, traced_wall) =
        traced_pass(&tracer, || chip_replay(&input, s.threads, &tracer));
    let (mut want, _) = chip_digests(&results);
    want.retain(|k, _| !k.ends_with("/chip"));
    match replay {
        Ok(got) => {
            out.attempted += want.len() as u64;
            check_digests(out, "replay vs per_block", &got, &want);
        }
        Err(e) => out.fail(format!("replay failed: {e}")),
    }
    layer_metrics_block_flow(out, &sum);
    common_layers(out, &sum, untraced_wall, traced_wall, s.threads, "job");
    out.layer("floorplan.calls", sum.calls("floorplan"));
    out.layer("floorplan.busy_s", sum.busy("floorplan"));
    out.layer("core.budgets_s", sum.busy("core.budgets"));
    Ok(())
}

fn layer_metrics_block_flow(out: &mut Outcome, sum: &Summary) {
    let per = |busy: f64, n: f64| if n > 0.0 { busy / n * 1e6 } else { 0.0 };
    for layer in ["place", "opt", "route", "timing", "power"] {
        out.layer(&format!("{layer}.calls"), sum.calls(layer));
        out.layer(&format!("{layer}.busy_s"), sum.busy(layer));
    }
    out.layer(
        "place.us_per_cell",
        per(sum.busy("place"), sum.count("place.cells")),
    );
    out.layer(
        "opt.us_per_cell",
        per(sum.busy("opt"), sum.count("opt.cells")),
    );
    out.layer("opt.buffers_added", sum.count("opt.buffers_added"));
    out.layer(
        "route.us_per_net",
        per(sum.busy("route"), sum.count("route.nets")),
    );
}

// ---- fold-3d ----------------------------------------------------------------

/// Every fold candidate under both bonding styles, as fresh block clones.
fn fold_jobs(design: &Design) -> Vec<(BondingStyle, Block)> {
    BONDINGS
        .iter()
        .flat_map(|&bonding| {
            design
                .blocks()
                .filter(|(_, b)| FOLD_KINDS.contains(&b.kind))
                .map(move |(_, b)| (bonding, b.clone()))
        })
        .collect()
}

/// The config `run_fullchip` step 1 folds a block of this kind with.
fn fold_config(kind: BlockKind, bonding: BondingStyle) -> FoldConfig {
    let flow = FlowConfig::default();
    let (strategy, aspect) = match kind {
        BlockKind::Ccx => (
            FoldStrategy::NaturalGroups(vec!["pcx".into()]),
            FoldAspect::Square,
        ),
        BlockKind::L2d => (FoldStrategy::MacroRows, FoldAspect::KeepWidth),
        _ => (FoldStrategy::MinCut, FoldAspect::Keep),
    };
    FoldConfig {
        strategy,
        aspect,
        bonding,
        placer: flow.placer,
        opt: flow.opt,
        dual_vth: false,
        ..FoldConfig::default()
    }
}

/// The partition `fold_block_with_budgets` computes for a strategy.
fn partition(netlist: &Netlist, tech: &Technology, cfg: &FoldConfig) -> Partition {
    match &cfg.strategy {
        FoldStrategy::NaturalGroups(names) => {
            let ids: Vec<GroupId> = (0..netlist.num_groups())
                .map(|i| GroupId(i as u32))
                .filter(|&g| names.iter().any(|n| n == netlist.group_name(g)))
                .collect();
            partition_by_groups(netlist, &ids)
        }
        FoldStrategy::MacroRows => {
            let mut macros: Vec<(InstId, Point)> = netlist
                .insts()
                .filter(|(_, i)| i.master.is_macro())
                .map(|(id, i)| (id, i.pos))
                .collect();
            macros.sort_by(|a, b| a.1.y.total_cmp(&b.1.y).then(a.1.x.total_cmp(&b.1.x)));
            let half = macros.len() / 2;
            let locks: HashMap<InstId, Tier> = macros
                .iter()
                .enumerate()
                .map(|(k, &(id, _))| (id, if k < half { Tier::Bottom } else { Tier::Top }))
                .collect();
            let lock_fn = |id: InstId| locks.get(&id).copied();
            bipartition_seeded(netlist, tech, &cfg.partition, Some(&lock_fn))
        }
        _ => bipartition(netlist, tech, &cfg.partition),
    }
}

fn bonding_slug(b: BondingStyle) -> &'static str {
    match b {
        BondingStyle::FaceToBack => "f2b",
        BondingStyle::FaceToFace => "f2f",
    }
}

type FoldOut = Result<(String, FoldedBlock), String>;

/// One fold job of the traced pass, split into its partition and
/// fold-pipeline calls.
fn fold_one(bonding: BondingStyle, mut b: Block, tech: &Technology, tracer: &Tracer) -> FoldOut {
    let key = format!("{}/{}", bonding_slug(bonding), b.name);
    let cfg = fold_config(b.kind, bonding);
    let folded = if b.kind == BlockKind::Spc {
        tracer.span("fold.spc", || fold_spc_second_level(&mut b, tech, &cfg))
    } else {
        let budgets = TimingBudgets::relaxed(&b.netlist, tech);
        b.validate(tech).map_err(|e| format!("{key}: {e}"))?;
        let part = tracer.span("partition", || partition(&b.netlist, tech, &cfg));
        tracer.span("fold", || {
            fold_with_partition(&mut b, tech, &budgets, &cfg, part)
        })
    };
    let folded = folded.map_err(|e| format!("{key}: {e}"))?;
    tracer.count("fold.cut", folded.cut as f64);
    tracer.count("fold.vias", folded.vias.len() as f64);
    Ok((key, folded))
}

/// The library's own composed fold (`fold_block_with_budgets`), as
/// `run_fullchip` calls it: what the timed passes run, and the reference
/// the traced pass's split calls must match.
fn fold_library(bonding: BondingStyle, mut b: Block, tech: &Technology) -> FoldOut {
    let key = format!("{}/{}", bonding_slug(bonding), b.name);
    let cfg = fold_config(b.kind, bonding);
    let folded = if b.kind == BlockKind::Spc {
        fold_spc_second_level(&mut b, tech, &cfg)
    } else {
        let budgets = TimingBudgets::relaxed(&b.netlist, tech);
        fold_block_with_budgets(&mut b, tech, &budgets, &cfg)
    };
    let folded = folded.map_err(|e| format!("{key}: {e}"))?;
    Ok((key, folded))
}

fn fold_digests(results: &[FoldOut]) -> Checked {
    let mut d = Digests::new();
    let mut failures = Vec::new();
    for r in results {
        match r {
            Ok((key, f)) => {
                d.insert(key.clone(), digest(&(f.metrics, f.cut, f.vias.len())));
                if f.metrics.degraded {
                    failures.push(format!("{key}: degraded"));
                }
            }
            Err(e) => failures.push(e.clone()),
        }
    }
    (d, failures)
}

pub fn fold_3d(s: &Settings, out: &mut Outcome) -> Result<(), String> {
    let tracer = Tracer::new(s.traced);
    let (input, mut generation) = setup(s, &tracer, out);
    let tech = &input.tech;
    let refs = references(s, "fold-3d", out, || {
        let results: Vec<FoldOut> = fold_jobs(&input.design)
            .into_iter()
            .map(|(bonding, b)| fold_library(bonding, b, tech))
            .collect();
        Ok(fold_digests(&results).0)
    })?;
    let jobs = fold_jobs(&input.design).len();
    out.info("fold_jobs", Json::Num(jobs as f64));
    // the timed passes run the library's composed fold, as `run_fullchip`
    // does; only the traced pass splits it into partition + fold calls
    let (_, untraced_wall) = untraced(
        s,
        &refs,
        out,
        &mut generation,
        jobs,
        || {
            foldic_exec::par_map(s.threads, fold_jobs(&input.design), |_, (bonding, b)| {
                fold_library(bonding, b, tech)
            })
        },
        |r| fold_digests(r),
    );
    record_peak_rss(out);
    if !s.traced {
        return Ok(());
    }
    let (output, sum, traced_wall) = traced_pass(&tracer, || {
        let parent = tracer.current();
        foldic_exec::par_map(s.threads, fold_jobs(&input.design), |_, (bonding, b)| {
            tracer.span_under(parent, "job", || fold_one(bonding, b, tech, &tracer))
        })
    });
    check(&refs, fold_digests(&output), out);
    out.layer("partition.calls", sum.calls("partition"));
    out.layer("partition.busy_s", sum.busy("partition"));
    out.layer("partition.cut_total", sum.count("fold.cut"));
    out.layer("fold.calls", sum.calls("fold"));
    out.layer("fold.busy_s", sum.busy("fold"));
    out.layer("fold.spc_busy_s", sum.busy("fold.spc"));
    out.layer("fold.vias_total", sum.count("fold.vias"));
    common_layers(out, &sum, untraced_wall, traced_wall, s.threads, "job");
    Ok(())
}

// ---- paper-suite ------------------------------------------------------------

fn run_experiment(ctx: &mut Ctx, name: &str) -> String {
    match name {
        "table1" => experiments::table1(&ctx.tech),
        "table2" => experiments::table2(ctx),
        "table3" => experiments::table3(ctx),
        "table4" => experiments::table4(ctx),
        "fig2" => experiments::fig2(ctx),
        "fig3" => experiments::fig3(ctx),
        "fig5" => experiments::fig5(ctx),
        "fig6" => experiments::fig6(ctx),
        "fig7" => experiments::fig7(ctx),
        "fig8" => experiments::fig8(ctx),
        "table5" => experiments::table5(ctx),
        "thermal" => experiments::thermal(ctx),
        "ablations" => experiments::ablations(ctx),
        other => unreachable!("unknown experiment {other}"),
    }
}

/// One pass of every servable experiment on one shared `Ctx`; returns the
/// manifest digest of each report.
fn paper_pass(input: &Input, threads: usize, tracer: &Tracer) -> Result<Digests, String> {
    let mut ctx = Ctx::with_design(
        input.cfg.clone(),
        input.design.clone(),
        input.tech.clone(),
        threads,
    );
    let mut d = Digests::new();
    for (name, span) in EXPERIMENTS {
        let text = foldic_exec::run_caught(std::panic::AssertUnwindSafe(|| {
            tracer.span(span, || run_experiment(&mut ctx, name))
        }))
        .map_err(|p| format!("{name} panicked: {}", p.message()))?;
        d.insert(name.to_owned(), foldic_obs::manifest::digest_report(&text));
    }
    Ok(d)
}

pub fn paper_suite(s: &Settings, out: &mut Outcome) -> Result<(), String> {
    debug_assert_eq!(
        EXPERIMENTS.map(|(n, _)| n).as_slice(),
        foldic_bench::serve::SERVABLE
    );
    let tracer = Tracer::new(s.traced);
    let (input, mut generation) = setup(s, &tracer, out);
    let off = Tracer::new(false);
    let refs = references(s, "paper-suite", out, || paper_pass(&input, 1, &off))?;
    let digests = |r: &Result<Digests, String>| match r {
        Ok(d) => (d.clone(), Vec::new()),
        Err(e) => (Digests::new(), vec![e.clone()]),
    };
    let pass = |tracer: &Tracer| paper_pass(&input, s.threads, tracer);
    let (_, untraced_wall) = untraced(
        s,
        &refs,
        out,
        &mut generation,
        EXPERIMENTS.len(),
        || pass(&off),
        digests,
    );
    record_peak_rss(out);
    if !s.traced {
        return Ok(());
    }
    let (output, sum, traced_wall) = traced_pass(&tracer, || pass(&tracer));
    check(&refs, digests(&output), out);
    for (name, span) in EXPERIMENTS {
        out.layer(&format!("experiments.{name}_s"), sum.busy(span));
    }
    let slowest = EXPERIMENTS
        .iter()
        .map(|(_, span)| sum.max(span))
        .fold(0.0, f64::max);
    common_layers(out, &sum, untraced_wall, traced_wall, s.threads, "");
    out.layer("exec.max_job_s", slowest);
    Ok(())
}
