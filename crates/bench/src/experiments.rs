//! One runner per table/figure of the paper.
//!
//! Every runner returns a formatted report with measured values next to
//! the paper's published ones. Determinism: all experiments derive from
//! the seeded generator and seeded heuristics, so reports are
//! reproducible bit-for-bit for a given `T2Config`.

use crate::{fault_footer, fmt_delta, paper, pct, Ctx};
use foldic::prelude::*;
use foldic_timing::TimingBudgets;
use std::fmt::Write as _;

/// Experiments the daemon serves, in the fixed `repro` run order —
/// the names [`run`] knows. `layouts` (writes files) and the `all` alias
/// are deliberately not servable: a job names its studies explicitly.
pub const SERVABLE: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table5",
    "thermal",
    "ablations",
];

/// Runs the [`SERVABLE`] experiment `name` on `ctx` and returns its
/// report; `None` for any other name.
pub fn run(name: &str, ctx: &mut Ctx) -> Option<String> {
    Some(match name {
        "table1" => table1(&ctx.tech),
        "table2" => table2(ctx),
        "table3" => table3(ctx),
        "table4" => table4(ctx),
        "fig2" => fig2(ctx),
        "fig3" => fig3(ctx),
        "fig5" => fig5(ctx),
        "fig6" => fig6(ctx),
        "fig7" => fig7(ctx),
        "fig8" => fig8(ctx),
        "table5" => table5(ctx),
        "thermal" => thermal(ctx),
        "ablations" => ablations(ctx),
        _ => return None,
    })
}

/// A scalar extracted from a design's metrics, one table row each.
type Metric = fn(&DesignMetrics) -> f64;

/// Table 1: 3D interconnect settings from the electrical models.
pub fn table1(tech: &Technology) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table 1: 3D interconnect settings ==");
    let _ = writeln!(
        out,
        "{:<8} {:>9} {:>8} {:>7} {:>9} {:>8}",
        "", "diameter", "height", "pitch", "R", "C"
    );
    for s in [tech.tsv.summary(), tech.f2f_via.summary()] {
        let name = match s.kind {
            foldic_tech::Via3dKind::Tsv => "TSV",
            foldic_tech::Via3dKind::F2fVia => "F2F via",
        };
        let _ = writeln!(
            out,
            "{name:<8} {:>7.2}um {:>6.1}um {:>5.1}um {:>7.3}Ohm {:>6.2}fF",
            s.diameter_um, s.height_um, s.pitch_um, s.resistance_ohm, s.capacitance_ff
        );
    }
    let ratio = tech.tsv.capacitance_ff() / tech.f2f_via.capacitance_ff();
    let _ = writeln!(
        out,
        "TSV/F2F capacitance ratio: {ratio:.1}x (paper requires >> 1; threshold {}x)",
        paper::table1::TSV_OVER_F2F_CAP_MIN
    );
    out
}

/// Table 2: 2D vs core/cache vs core/core block-level designs.
pub fn table2(ctx: &mut Ctx) -> String {
    ctx.warm(&[
        (DesignStyle::Flat2d, false),
        (DesignStyle::CoreCache, false),
        (DesignStyle::CoreCore, false),
    ]);
    let d2 = ctx.fullchip(DesignStyle::Flat2d, false).clone();
    let cc = ctx.fullchip(DesignStyle::CoreCache, false).clone();
    let co = ctx.fullchip(DesignStyle::CoreCore, false).clone();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table 2: 2D vs 3D block-level designs (RVT, 500 MHz) =="
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>12} {:>12}",
        "", "2D", "core/cache", "core/core"
    );
    let _ = writeln!(
        out,
        "{:<18} {:>9.1} mm2 {:>8.1} mm2 {:>8.1} mm2",
        "footprint",
        d2.chip.footprint_mm2(),
        cc.chip.footprint_mm2(),
        co.chip.footprint_mm2()
    );
    let rows: [(&str, Metric, [f64; 2], f64); 7] = [
        ("# cells", |m| m.num_cells as f64, paper::table2::CELLS, 1.0),
        (
            "# buffers",
            |m| m.num_buffers as f64,
            paper::table2::BUFFERS,
            1.0,
        ),
        (
            "wirelength (m)",
            |m| m.wirelength_m(),
            paper::table2::WIRELENGTH,
            1.0,
        ),
        (
            "total power (W)",
            |m| m.power.total_w(),
            paper::table2::TOTAL_POWER,
            1.0,
        ),
        (
            "cell power (W)",
            |m| m.power.cell_uw * 1e-6,
            paper::table2::CELL_POWER,
            1.0,
        ),
        (
            "net power (W)",
            |m| m.power.net_uw() * 1e-6,
            paper::table2::NET_POWER,
            1.0,
        ),
        (
            "leakage (W)",
            |m| m.power.leakage_uw * 1e-6,
            paper::table2::LEAKAGE,
            1.0,
        ),
    ];
    for (name, get, paper_deltas, _) in rows {
        let b = get(&d2.chip);
        let _ = writeln!(
            out,
            "{name:<18} {b:>12.3} | cc {}  co {}",
            fmt_delta(pct(b, get(&cc.chip)), paper_deltas[0]),
            fmt_delta(pct(b, get(&co.chip)), paper_deltas[1]),
        );
    }
    let _ = writeln!(
        out,
        "{:<18} {:>12.3} | cc {}  co {}",
        "footprint delta",
        d2.chip.footprint_mm2(),
        fmt_delta(
            pct(d2.chip.footprint_um2, cc.chip.footprint_um2),
            paper::table2::FOOTPRINT
        ),
        fmt_delta(
            pct(d2.chip.footprint_um2, co.chip.footprint_um2),
            paper::table2::FOOTPRINT
        ),
    );
    let _ = writeln!(
        out,
        "{:<18} {:>9.2} m   | cc {}  co {}",
        "inter-block WL",
        d2.interblock_wl_um * 1e-6,
        fmt_delta(
            pct(d2.interblock_wl_um, cc.interblock_wl_um),
            paper::table2::INTERBLOCK_WL[0]
        ),
        fmt_delta(
            pct(d2.interblock_wl_um, co.interblock_wl_um),
            paper::table2::INTERBLOCK_WL[1]
        ),
    );
    let _ = writeln!(
        out,
        "chip TSVs: core/cache {}, core/core {}",
        cc.chip_vias, co.chip_vias
    );
    out.push_str(&fault_footer(&[&d2, &cc, &co]));
    out
}

/// Table 3: folding-candidate census of the 2D design.
pub fn table3(ctx: &mut Ctx) -> String {
    let d2 = ctx.fullchip(DesignStyle::Flat2d, false).clone();
    let rows = fold_candidates(&d2.per_block);
    let scale = ctx.cfg.cluster_size;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table 3: block census for folding-candidate selection (2D) =="
    );
    let _ = writeln!(
        out,
        "{:<6} {:>8} {:>8} {:>9} {:>10} {:<14} | paper (share, net%, longw)",
        "block", "share%", "net%", "longwires", "(x{scale})", "selected",
    );
    for r in rows.iter().take(10) {
        let p = paper::TABLE3.iter().find(|(k, ..)| *k == r.kind.label());
        let paper_s = p
            .map(|(_, s, n, l, _)| format!("{s:>5.1}% {n:>5.1}% {l:>8.0}"))
            .unwrap_or_else(|| "(below 1% in paper)".to_owned());
        let _ = writeln!(
            out,
            "{:<6} {:>8.2} {:>8.1} {:>9} {:>10.0} {:<14} | {paper_s}",
            r.kind.label(),
            r.power_share * 100.0,
            r.net_power_frac * 100.0,
            r.long_wires,
            r.long_wires as f64 * scale,
            if r.selected { "fold" } else { "-" },
        );
    }
    let _ = writeln!(
        out,
        "(long-wire counts are per synthetic net; x{scale:.0} column rescales to real-cell nets)"
    );
    out.push_str(&fault_footer(&[&d2]));
    out
}

/// Table 4: folding the L2 data bank (`scdata`).
pub fn table4(ctx: &mut Ctx) -> String {
    let b2 = ctx.block_2d("l2d0");
    let mut d3 = ctx.design.clone();
    let id = d3.find_block("l2d0").expect("l2d0 exists");
    let cfg = FoldConfig {
        strategy: FoldStrategy::MacroRows,
        aspect: FoldAspect::KeepWidth,
        bonding: BondingStyle::FaceToBack,
        ..FoldConfig::default()
    };
    let f = fold_block(d3.block_mut(id), &ctx.tech, &cfg).expect("fold");
    let m = &f.metrics;
    let mut out = String::new();
    let _ = writeln!(out, "== Table 4: 2D vs folded L2D (scdata), F2B ==");
    let _ = writeln!(
        out,
        "footprint   {:>9.3} mm2 -> {:>9.3} mm2  {}",
        b2.footprint_mm2(),
        m.footprint_mm2(),
        fmt_delta(
            pct(b2.footprint_um2, m.footprint_um2),
            paper::table4::FOOTPRINT
        )
    );
    let _ = writeln!(
        out,
        "wirelength  {:>9.3} m   -> {:>9.3} m    {}",
        b2.wirelength_m(),
        m.wirelength_m(),
        fmt_delta(
            pct(b2.wirelength_um, m.wirelength_um),
            paper::table4::WIRELENGTH
        )
    );
    let _ = writeln!(
        out,
        "# buffers   {:>9}     -> {:>9}      {}",
        b2.num_buffers,
        m.num_buffers,
        fmt_delta(
            pct(b2.num_buffers as f64, m.num_buffers as f64),
            paper::table4::BUFFERS
        )
    );
    let _ = writeln!(
        out,
        "total power {:>9.1} mW  -> {:>9.1} mW   {}",
        b2.power.total_uw() * 1e-3,
        m.power.total_uw() * 1e-3,
        fmt_delta(
            pct(b2.power.total_uw(), m.power.total_uw()),
            paper::table4::TOTAL_POWER
        )
    );
    let _ = writeln!(
        out,
        "2D net-power portion {:.1}% (paper ~{}%); TSVs used: {}",
        b2.power.net_fraction() * 100.0,
        paper::table4::NET_PORTION_2D,
        m.num_3d_connections
    );
    out
}

/// Table 5: full-chip dual-Vth comparison.
pub fn table5(ctx: &mut Ctx) -> String {
    ctx.warm(&[
        (DesignStyle::Flat2d, true),
        (DesignStyle::CoreCache, true),
        (DesignStyle::FoldedF2f, true),
        (DesignStyle::Flat2d, false),
        (DesignStyle::FoldedF2f, false),
    ]);
    let d2 = ctx.fullchip(DesignStyle::Flat2d, true).clone();
    let nf = ctx.fullchip(DesignStyle::CoreCache, true).clone();
    let fo = ctx.fullchip(DesignStyle::FoldedF2f, true).clone();
    // RVT baselines for the §6.2 DVT-vs-RVT claim
    let d2_rvt = ctx.fullchip(DesignStyle::Flat2d, false).clone();
    let fo_rvt = ctx.fullchip(DesignStyle::FoldedF2f, false).clone();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table 5: 2D vs 3D w/o folding (core/cache, F2B) vs 3D w/ folding (F2F), dual-Vth =="
    );
    let rows: [(&str, Metric, [f64; 2]); 7] = [
        (
            "wirelength (m)",
            |m| m.wirelength_m(),
            paper::table5::WIRELENGTH,
        ),
        ("# cells", |m| m.num_cells as f64, paper::table5::CELLS),
        (
            "# buffers",
            |m| m.num_buffers as f64,
            paper::table5::BUFFERS,
        ),
        (
            "total power (W)",
            |m| m.power.total_w(),
            paper::table5::TOTAL_POWER,
        ),
        (
            "cell power (W)",
            |m| m.power.cell_uw * 1e-6,
            paper::table5::CELL_POWER,
        ),
        (
            "net power (W)",
            |m| m.power.net_uw() * 1e-6,
            paper::table5::NET_POWER,
        ),
        (
            "leakage (W)",
            |m| m.power.leakage_uw * 1e-6,
            paper::table5::LEAKAGE,
        ),
    ];
    let _ = writeln!(
        out,
        "footprint (mm2)    {:>10.2} | w/o fold {}  w/ fold {}",
        d2.chip.footprint_mm2(),
        fmt_delta(
            pct(d2.chip.footprint_um2, nf.chip.footprint_um2),
            paper::table5::FOOTPRINT[0]
        ),
        fmt_delta(
            pct(d2.chip.footprint_um2, fo.chip.footprint_um2),
            paper::table5::FOOTPRINT[1]
        ),
    );
    for (name, get, p) in rows {
        let b = get(&d2.chip);
        let _ = writeln!(
            out,
            "{name:<18} {b:>10.3} | w/o fold {}  w/ fold {}",
            fmt_delta(pct(b, get(&nf.chip)), p[0]),
            fmt_delta(pct(b, get(&fo.chip)), p[1]),
        );
    }
    let _ = writeln!(
        out,
        "HVT share          {:>9.1}% | {:>6.1}% | {:>6.1}%   (paper {:.1} / {:.1} / {:.1})",
        d2.chip.hvt_fraction() * 100.0,
        nf.chip.hvt_fraction() * 100.0,
        fo.chip.hvt_fraction() * 100.0,
        paper::table5::HVT_SHARE[0],
        paper::table5::HVT_SHARE[1],
        paper::table5::HVT_SHARE[2],
    );
    let _ = writeln!(
        out,
        "3D connections     {:>10} | {:>8} | {:>8}   (paper {} / {})",
        0,
        nf.chip.num_3d_connections,
        fo.chip.num_3d_connections,
        paper::table5::VIAS[0],
        paper::table5::VIAS[1],
    );
    let _ = writeln!(
        out,
        "DVT saving vs RVT: 2D {}  3D folded {}",
        fmt_delta(
            pct(d2_rvt.chip.power.total_uw(), d2.chip.power.total_uw()),
            paper::table5::DVT_VS_RVT[0]
        ),
        fmt_delta(
            pct(fo_rvt.chip.power.total_uw(), fo.chip.power.total_uw()),
            paper::table5::DVT_VS_RVT[1]
        ),
    );
    out.push_str(&fault_footer(&[&d2, &nf, &fo, &d2_rvt, &fo_rvt]));
    out
}

/// Fig. 2: folding the crossbar — natural split plus the TSV-count sweep.
pub fn fig2(ctx: &mut Ctx) -> String {
    let b2 = ctx.block_2d("ccx");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. 2: folding CCX (PCX/CPX natural split, F2B) =="
    );
    let run = |strategy: FoldStrategy, bonding| {
        let mut d3 = ctx.design.clone();
        let id = d3.find_block("ccx").expect("ccx exists");
        let cfg = FoldConfig {
            strategy,
            aspect: FoldAspect::Square,
            bonding,
            ..FoldConfig::default()
        };
        fold_block(d3.block_mut(id), &ctx.tech, &cfg).expect("fold")
    };
    let nat = run(
        FoldStrategy::NaturalGroups(vec!["pcx".into()]),
        BondingStyle::FaceToBack,
    );
    let m = &nat.metrics;
    let _ = writeln!(
        out,
        "signal TSVs: {} (paper {})",
        m.num_3d_connections,
        paper::fig2::TSVS
    );
    let _ = writeln!(
        out,
        "footprint  {}",
        fmt_delta(
            pct(b2.footprint_um2, m.footprint_um2),
            paper::fig2::FOOTPRINT
        )
    );
    let _ = writeln!(
        out,
        "wirelength {}",
        fmt_delta(
            pct(b2.wirelength_um, m.wirelength_um),
            paper::fig2::WIRELENGTH
        )
    );
    let _ = writeln!(
        out,
        "# buffers  {}",
        fmt_delta(
            pct(b2.num_buffers as f64, m.num_buffers as f64),
            paper::fig2::BUFFERS
        )
    );
    let _ = writeln!(
        out,
        "power      {}",
        fmt_delta(
            pct(b2.power.total_uw(), m.power.total_uw()),
            paper::fig2::TOTAL_POWER
        )
    );
    let _ = writeln!(
        out,
        "\nTSV-count sweep (alternative partitions; paper: {} TSVs -> benefit shrinks to {:.1}%):",
        paper::fig2::SWEEP_TSVS,
        -paper::fig2::SWEEP_POWER
    );
    let _ = writeln!(
        out,
        "{:>8} {:>9} {:>12} {:>12}",
        "quality", "TSVs", "power vs 2D", "fp vs 2D"
    );
    // independent fold configurations: one engine job per sweep point
    let sweep = foldic_exec::par_map(ctx.threads, vec![1.0, 0.6, 0.3, 0.0], |_, q| {
        (q, run(FoldStrategy::Quality(q), BondingStyle::FaceToBack))
    });
    for (q, f) in sweep {
        let _ = writeln!(
            out,
            "{q:>8.1} {:>9} {:>+11.1}% {:>+11.1}%",
            f.metrics.num_3d_connections,
            pct(b2.power.total_uw(), f.metrics.power.total_uw()),
            pct(b2.footprint_um2, f.metrics.footprint_um2),
        );
    }
    out
}

/// Fig. 3: second-level folding of the SPARC core.
pub fn fig3(ctx: &mut Ctx) -> String {
    let b2 = ctx.block_2d("spc0");
    let run = |second: bool| {
        let mut d3 = ctx.design.clone();
        let id = d3.find_block("spc0").expect("spc0 exists");
        let cfg = FoldConfig {
            bonding: BondingStyle::FaceToFace,
            ..FoldConfig::default()
        };
        if second {
            fold_spc_second_level(d3.block_mut(id), &ctx.tech, &cfg).expect("fold spc")
        } else {
            fold_block(d3.block_mut(id), &ctx.tech, &cfg).expect("fold")
        }
    };
    let block3d = run(false);
    let second = run(true);
    let mut out = String::new();
    let _ = writeln!(out, "== Fig. 3: second-level folding of SPC (F2F) ==");
    let _ = writeln!(
        out,
        "folded FUBs: 6 of 14 (paper {} of 14); F2F vias: {} (paper {})",
        paper::fig3::FOLDED_FUBS,
        second.metrics.num_3d_connections,
        paper::fig3::F2F_VIAS
    );
    let m = &second.metrics;
    let b3 = &block3d.metrics;
    let _ = writeln!(
        out,
        "vs flat min-cut fold : WL {}  buffers {}  power {}",
        fmt_delta(
            pct(b3.wirelength_um, m.wirelength_um),
            paper::fig3::WIRELENGTH_VS_BLOCK3D
        ),
        fmt_delta(
            pct(b3.num_buffers as f64, m.num_buffers as f64),
            paper::fig3::BUFFERS_VS_BLOCK3D
        ),
        fmt_delta(
            pct(b3.power.total_uw(), m.power.total_uw()),
            paper::fig3::POWER_VS_BLOCK3D
        ),
    );
    let _ = writeln!(
        out,
        "vs 2D SPC            : power {}",
        fmt_delta(
            pct(b2.power.total_uw(), m.power.total_uw()),
            paper::fig3::POWER_VS_2D
        )
    );
    let _ = writeln!(
        out,
        "(note: the paper's baseline is the unfolded block-level 3D SPC; our flat\n min-cut fold is an additional — stronger — baseline, see EXPERIMENTS.md)"
    );
    out
}

/// Fig. 4–5: the F2F via placement flow on a folded block.
pub fn fig5(ctx: &mut Ctx) -> String {
    let mut d3 = ctx.design.clone();
    let id = d3.find_block("l2t0").expect("l2t0 exists");
    let cfg = FoldConfig {
        bonding: BondingStyle::FaceToFace,
        ..FoldConfig::default()
    };
    let f = fold_block(d3.block_mut(id), &ctx.tech, &cfg).expect("fold");
    let block = d3.block(id);
    let macros: Vec<foldic_geom::Rect> = block
        .netlist
        .insts()
        .filter(|(_, i)| i.master.is_macro())
        .map(|(_, i)| i.rect(&ctx.tech))
        .collect();
    let over_macros = f
        .vias
        .iter()
        .filter(|v| macros.iter().any(|m| m.contains(v.pos)))
        .count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. 4/5: F2F via placement by 3D-net routing (folded L2T) =="
    );
    let _ = writeln!(out, "3D nets routed: {}", f.vias.len());
    let _ = writeln!(
        out,
        "mean via displacement from ideal: {:.2} um (F2F pitch {:.2} um)",
        f.vias.mean_displacement_um(),
        ctx.tech.f2f_via.pitch_um
    );
    let _ = writeln!(
        out,
        "vias over macros: {} ({:.1}% — F2F vias are not restricted by cells/macros)",
        over_macros,
        over_macros as f64 / f.vias.len().max(1) as f64 * 100.0
    );
    out
}

/// Fig. 6: bonding-style impact on folded placement (L2D and L2T).
pub fn fig6(ctx: &mut Ctx) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. 6: bonding-style impact on folded footprint =="
    );
    let run = |name: &str, strategy: FoldStrategy, aspect: FoldAspect, bonding| {
        let mut d3 = ctx.design.clone();
        let id = d3.find_block(name).expect("block exists");
        let cfg = FoldConfig {
            strategy,
            aspect,
            bonding,
            ..FoldConfig::default()
        };
        let f = fold_block(d3.block_mut(id), &ctx.tech, &cfg).expect("fold");
        (d3.block(id).outline, f)
    };
    let blocks = [
        (
            "l2d0",
            FoldStrategy::MacroRows,
            FoldAspect::KeepWidth,
            paper::fig6::L2D_F2F_VS_F2B_FOOTPRINT,
        ),
        (
            "l2t0",
            FoldStrategy::MinCut,
            FoldAspect::Keep,
            paper::fig6::L2T_F2F_VS_F2B_FOOTPRINT,
        ),
    ];
    // 2 blocks x 2 bonding styles = 4 independent engine jobs
    let jobs: Vec<(&str, FoldStrategy, FoldAspect, BondingStyle)> = blocks
        .iter()
        .flat_map(|(name, strategy, aspect, _)| {
            [BondingStyle::FaceToBack, BondingStyle::FaceToFace]
                .map(|bonding| (*name, strategy.clone(), *aspect, bonding))
        })
        .collect();
    let mut results =
        foldic_exec::par_map(ctx.threads, jobs, |_, (name, strategy, aspect, bonding)| {
            run(name, strategy, aspect, bonding)
        })
        .into_iter();
    for (name, _, _, paper_fp) in blocks {
        let (o_f2b, f2b) = results.next().expect("one result per job");
        let (o_f2f, f2f) = results.next().expect("one result per job");
        let tsv_share = f2b.vias.silicon_area_um2(&ctx.tech) / o_f2b.area() * 100.0;
        let _ = writeln!(
            out,
            "{name}: F2B die {:.0}x{:.0}um ({} TSVs, {:.1}% TSV area; paper ~{:.0}%)",
            o_f2b.width(),
            o_f2b.height(),
            f2b.vias.len(),
            tsv_share,
            paper::fig6::TSV_AREA_SHARE
        );
        let _ = writeln!(
            out,
            "{name}: F2F die {:.0}x{:.0}um; footprint F2F vs F2B {}",
            o_f2f.width(),
            o_f2f.height(),
            fmt_delta(pct(o_f2b.area(), o_f2f.area()), paper_fp)
        );
        if name == "l2t0" {
            let _ = writeln!(
                out,
                "l2t0: F2F vs F2B same partition: WL {}  buffers {}  power {}",
                fmt_delta(
                    pct(f2b.metrics.wirelength_um, f2f.metrics.wirelength_um),
                    paper::fig6::L2T_F2F_VS_F2B_WIRELENGTH
                ),
                fmt_delta(
                    pct(
                        f2b.metrics.num_buffers as f64,
                        f2f.metrics.num_buffers as f64
                    ),
                    paper::fig6::L2T_F2F_VS_F2B_BUFFERS
                ),
                fmt_delta(
                    pct(f2b.metrics.power.total_uw(), f2f.metrics.power.total_uw()),
                    paper::fig6::L2T_F2F_VS_F2B_POWER
                ),
            );
        }
    }
    out
}

/// Fig. 7: partition sweep of the folded L2T under both bonding styles.
pub fn fig7(ctx: &mut Ctx) -> String {
    let b2 = ctx.block_2d("l2t0");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. 7: partition sweep, folded L2T, power normalized to 2D =="
    );
    let _ = writeln!(
        out,
        "{:>5} {:>9} {:>10} {:>10} {:>12}",
        "case", "3D conns", "F2B", "F2F", "F2F vs F2B"
    );
    let qualities = [1.0, 0.75, 0.5, 0.25, 0.0];
    // 5 partition qualities x 2 bonding styles = 10 independent engine jobs
    let jobs: Vec<(f64, BondingStyle)> = qualities
        .iter()
        .flat_map(|&q| {
            [BondingStyle::FaceToBack, BondingStyle::FaceToFace].map(|bonding| (q, bonding))
        })
        .collect();
    let folds = foldic_exec::par_map(ctx.threads, jobs, |_, (q, bonding)| {
        let mut d3 = ctx.design.clone();
        let id = d3.find_block("l2t0").expect("l2t0 exists");
        let cfg = FoldConfig {
            strategy: FoldStrategy::Quality(q),
            bonding,
            ..FoldConfig::default()
        };
        let f = fold_block(d3.block_mut(id), &ctx.tech, &cfg).expect("fold");
        (
            f.metrics.power.total_uw() / b2.power.total_uw(),
            f.metrics.num_3d_connections,
        )
    });
    let mut last_gap = 0.0;
    for (k, _) in qualities.iter().enumerate() {
        let norm = [folds[2 * k].0, folds[2 * k + 1].0];
        let vias = [folds[2 * k].1, folds[2 * k + 1].1];
        last_gap = (norm[1] / norm[0] - 1.0) * 100.0;
        let _ = writeln!(
            out,
            "#{:<4} {:>9} {:>10.3} {:>10.3} {:>+11.1}%   (paper case #{} = {} conns)",
            k + 1,
            vias[1],
            norm[0],
            norm[1],
            last_gap,
            k + 1,
            paper::fig7::CASE_VIAS[k]
        );
    }
    let _ = writeln!(
        out,
        "case #5 F2F vs F2B: {:+.1}% (paper {:+.1}%)",
        last_gap,
        paper::fig7::CASE5_F2F_VS_F2B
    );
    out
}

/// Fig. 8: the five full-chip styles.
pub fn fig8(ctx: &mut Ctx) -> String {
    ctx.warm(&DesignStyle::ALL.map(|s| (s, false)));
    let mut out = String::new();
    let _ = writeln!(out, "== Fig. 8: full-chip design styles ==");
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>9} {:>11} {:>12} {:>9}",
        "style", "die mm2", "(paper)", "3D conns", "(paper)", "interWL m"
    );
    for (k, style) in DesignStyle::ALL.into_iter().enumerate() {
        let r = ctx.fullchip(style, false).clone();
        let _ = writeln!(
            out,
            "{:<18} {:>8.1} {:>9.1} {:>11} {:>12} {:>9.2}",
            style.label(),
            r.chip.footprint_mm2(),
            paper::fig8::FOOTPRINT_MM2[k],
            r.chip.num_3d_connections,
            paper::fig8::VIAS[k],
            r.interblock_wl_um * 1e-6,
        );
    }
    let runs: Vec<&FullChipResult> = DesignStyle::ALL
        .iter()
        .map(|s| ctx.cached(*s, false))
        .collect();
    out.push_str(&fault_footer(&runs));
    out
}

/// Thermal study (the paper's stated future work, §7): maximum junction
/// temperature of the chip styles at their own measured powers.
pub fn thermal(ctx: &mut Ctx) -> String {
    use foldic_thermal::{chip_power_maps, solve_stack, StackConfig};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Thermal (future work, §7): steady-state stack temperatures =="
    );
    let _ = writeln!(
        out,
        "{:<18} {:>9} {:>9} {:>9} {:>10} {:>12}",
        "style", "power W", "Tmax C", "Tavg C", "rise K", "hot tier"
    );
    ctx.warm(&DesignStyle::ALL.map(|s| (s, false)));
    // one engine job per style: each rebuilds its floorplan and solves
    // its own thermal stack
    let shared: &Ctx = ctx;
    let rows = foldic_exec::par_map(shared.threads, DesignStyle::ALL.to_vec(), |_, style| {
        let r = shared.cached(style, false);
        let per_block: Vec<(String, foldic_netlist::BlockKind, f64)> = r
            .per_block
            .iter()
            .map(|(n, k, m)| (n.clone(), *k, m.power.total_uw()))
            .collect();
        // rebuild the floorplanned design to extract block rects
        let mut d = shared.design.clone();
        let _ =
            run_fullchip(&mut d, &shared.tech, style, &FullChipConfig::fast()).expect("fullchip");
        let tiers = if style.is_3d() { 2 } else { 1 };
        let maps = chip_power_maps(&d, &shared.tech, r.die, &per_block, tiers, 48);
        let stack_cfg = match (style.is_3d(), style.bonding()) {
            (false, _) => StackConfig::single_die(),
            (true, BondingStyle::FaceToBack) => StackConfig::f2b(),
            (true, BondingStyle::FaceToFace) => StackConfig::f2f(),
        };
        let rep = solve_stack(&maps, &stack_cfg);
        format!(
            "{:<18} {:>9.2} {:>9.1} {:>9.1} {:>10.1} {:>12}",
            style.label(),
            r.chip.power.total_w(),
            rep.max_c,
            rep.avg_c,
            rep.max_rise_k(),
            if style.is_3d() {
                if rep.hotspot.0 == 0 {
                    "bottom"
                } else {
                    "top"
                }
            } else {
                "-"
            },
        )
    });
    for row in rows {
        let _ = writeln!(out, "{row}");
    }
    let _ = writeln!(
        out,
        "shape: 3D runs hotter than 2D at lower total power (density), and the
         F2F stack runs hottest (two BEOL stacks in the inter-die heat path) —
         the thermal cost of the bonding style that wins on power."
    );
    out
}

/// Ablations: turns off the design choices DESIGN.md calls out, one at a
/// time, and measures what each is worth on the folded L2T (F2B — the
/// style that stresses every mechanism).
pub fn ablations(ctx: &mut Ctx) -> String {
    use foldic::folding::{fold_with_partition, recluster_clock_leaves};
    use foldic_partition::{apply_partition, bipartition, PartitionConfig};
    use foldic_place::{place_folded, PlacerConfig};
    use foldic_route::{place_vias, BlockWiring};

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Ablations: what each design choice is worth (folded L2T, F2B) =="
    );

    // Baseline fold.
    let base = {
        let mut d = ctx.design.clone();
        let id = d.find_block("l2t0").expect("l2t0");
        let cfg = FoldConfig {
            bonding: BondingStyle::FaceToBack,
            ..FoldConfig::default()
        };
        fold_block(d.block_mut(id), &ctx.tech, &cfg).expect("fold")
    };
    let _ = writeln!(
        out,
        "baseline fold      : wl {:>8.3} m  power {:>8.1} mW  vias {}",
        base.metrics.wirelength_m(),
        base.metrics.power.total_uw() * 1e-3,
        base.metrics.num_3d_connections
    );

    // sections (a)-(f) are independent studies: one engine job each,
    // results appended in the fixed section order
    let shared: &Ctx = ctx;
    let base = &base;
    type Section<'a> = Box<dyn FnOnce() -> String + Send + 'a>;

    // (a) no clock-leaf re-clustering: leaf buffers keep their pre-fold
    // flop assignments (α = 1 clock nets sprawl across both dies).
    let section_a: Section = Box::new(move || {
        let ctx = shared;
        let mut d = ctx.design.clone();
        let id = d.find_block("l2t0").expect("l2t0");
        let block = d.block_mut(id);
        let part = bipartition(&block.netlist, &ctx.tech, &PartitionConfig::default());
        apply_partition(&mut block.netlist, &part);
        block.folded = true;
        // replicate the fold flow minus the CTS re-clustering, on the
        // baseline's outline
        let outline = foldic_geom::Rect::new(
            0.0,
            0.0,
            base.metrics.footprint_um2.sqrt(),
            base.metrics.footprint_um2.sqrt(),
        );
        block.outline = outline;
        place_folded(
            &mut block.netlist,
            &ctx.tech,
            outline,
            &PlacerConfig::quality(),
            &[],
        )
        .expect("place");
        let vias =
            place_vias(&block.netlist, &ctx.tech, outline, BondingStyle::FaceToBack).expect("vias");
        let wiring =
            BlockWiring::analyze(&block.netlist, &ctx.tech, 1.1, Some(&vias)).expect("route");
        let clock_wl: f64 = block
            .netlist
            .nets()
            .filter(|(_, n)| n.is_clock)
            .map(|(nid, _)| wiring.net(nid).length_um)
            .sum();
        recluster_clock_leaves(&mut block.netlist);
        let wiring2 =
            BlockWiring::analyze(&block.netlist, &ctx.tech, 1.1, Some(&vias)).expect("route");
        let clock_wl2: f64 = block
            .netlist
            .nets()
            .filter(|(_, n)| n.is_clock)
            .map(|(nid, _)| wiring2.net(nid).length_um)
            .sum();
        format!(
            "no CTS recluster   : clock wl {:.3} m -> {:.3} m with reclustering ({:+.1}%)\n",
            clock_wl * 1e-6,
            clock_wl2 * 1e-6,
            (clock_wl2 / clock_wl.max(1.0) - 1.0) * 100.0
        )
    });

    // (b) fold without the TSV area/keep-out model (pretend TSVs are free
    // silicon like F2F vias): isolates the Fig. 6 cost.
    let section_b: Section = Box::new(move || {
        let ctx = shared;
        let mut d = ctx.design.clone();
        let id = d.find_block("l2t0").expect("l2t0");
        let block = d.block_mut(id);
        let part = bipartition(&block.netlist, &ctx.tech, &PartitionConfig::default());
        let folded = fold_with_partition(
            block,
            &ctx.tech,
            &TimingBudgets::relaxed(&block.netlist, &ctx.tech),
            &FoldConfig {
                bonding: BondingStyle::FaceToFace, // free vias
                ..FoldConfig::default()
            },
            part,
        )
        .expect("fold");
        format!(
            "TSV cost removed   : wl {:>8.3} m  power {:>8.1} mW   (the F2B-vs-F2F gap is the TSV area+displacement cost)\n",
            folded.metrics.wirelength_m(),
            folded.metrics.power.total_uw() * 1e-3
        )
    });

    // (c) partition quality: min-cut vs random balanced (what FM is worth).
    let section_c: Section = Box::new(move || {
        let ctx = shared;
        let cut_of = |q: f64| {
            let mut d = ctx.design.clone();
            let id = d.find_block("l2t0").expect("l2t0");
            let cfg = FoldConfig {
                strategy: FoldStrategy::Quality(q),
                bonding: BondingStyle::FaceToBack,
                ..FoldConfig::default()
            };
            let f = fold_block(d.block_mut(id), &ctx.tech, &cfg).expect("fold");
            (f.metrics.num_3d_connections, f.metrics.power.total_uw())
        };
        let (v1, p1) = cut_of(1.0);
        let (v0, p0) = cut_of(0.0);
        format!(
            "FM vs random part. : {} vs {} vias; power {:+.1}% if partitioning is random\n",
            v1,
            v0,
            (p0 / p1 - 1.0) * 100.0
        )
    });

    // (d) TSV-to-wire coupling parasitic (§7 future work): re-price the
    // folded F2B block's net power with the coupling capacitance on.
    let section_d: Section = Box::new(move || {
        let ctx = shared;
        let mut d = ctx.design.clone();
        let id = d.find_block("l2t0").expect("l2t0");
        let block = d.block_mut(id);
        let fold_cfg = FoldConfig {
            bonding: BondingStyle::FaceToBack,
            ..FoldConfig::default()
        };
        let folded = fold_block(block, &ctx.tech, &fold_cfg).expect("fold");
        let wiring = BlockWiring::analyze(&block.netlist, &ctx.tech, 1.1, Some(&folded.vias))
            .expect("route");
        let mut pcfg = foldic_power::PowerConfig::for_block(block);
        pcfg.via_kind = Some(foldic_tech::Via3dKind::Tsv);
        let without =
            foldic_power::analyze_block(&block.netlist, &ctx.tech, &wiring, &pcfg).expect("power");
        pcfg.tsv_coupling = true;
        let with =
            foldic_power::analyze_block(&block.netlist, &ctx.tech, &wiring, &pcfg).expect("power");
        format!(
            "TSV-wire coupling  : net power {:+.2}% when the coupling parasitic is priced in ({:.1} fF/TSV)\n",
            (with.net_uw() / without.net_uw() - 1.0) * 100.0,
            ctx.tech.tsv.coupling_cap_ff()
        )
    });

    // (e) macro holes vs demand inflation (§4.2): place the macro-heavy
    // L2D both ways and compare wirelength.
    let section_e: Section = Box::new(move || {
        use foldic_place::{place_block, MacroMode};
        let ctx = shared;
        let run = |mode| {
            let mut d = ctx.design.clone();
            let id = d.find_block("l2d0").expect("l2d0");
            let outline = d.block(id).outline;
            let nl = &mut d.block_mut(id).netlist;
            let mut pcfg = PlacerConfig::quality();
            pcfg.macro_mode = mode;
            place_block(nl, &ctx.tech, outline, &pcfg).expect("place");
            BlockWiring::analyze(nl, &ctx.tech, 1.1, None)
                .expect("route")
                .total_um
        };
        let hole = run(MacroMode::Hole);
        let halo = run(MacroMode::DemandInflation);
        format!(
            "macro holes (4.2)  : wl {:.3} m with holes vs {:.3} m with halo-style demand inflation ({:+.1}%)\n",
            hole * 1e-6,
            halo * 1e-6,
            (halo / hole - 1.0) * 100.0
        )
    });

    // (f) CCX natural split vs blind min-cut (is domain structure worth
    // anything beyond FM?).
    let section_f: Section = Box::new(move || {
        let ctx = shared;
        let run = |strategy| {
            let mut d = ctx.design.clone();
            let id = d.find_block("ccx").expect("ccx");
            let cfg = FoldConfig {
                strategy,
                aspect: FoldAspect::Square,
                bonding: BondingStyle::FaceToBack,
                ..FoldConfig::default()
            };
            fold_block(d.block_mut(id), &ctx.tech, &cfg).expect("fold")
        };
        let nat = run(FoldStrategy::NaturalGroups(vec!["pcx".into()]));
        let fm = run(FoldStrategy::MinCut);
        format!(
            "CCX natural vs FM  : {} vs {} vias; power {:.1} vs {:.1} mW\n",
            nat.metrics.num_3d_connections,
            fm.metrics.num_3d_connections,
            nat.metrics.power.total_uw() * 1e-3,
            fm.metrics.power.total_uw() * 1e-3
        )
    });

    let sections: Vec<Section> = vec![
        section_a, section_b, section_c, section_d, section_e, section_f,
    ];
    for part in foldic_exec::par_map(shared.threads, sections, |_, section| section()) {
        out.push_str(&part);
    }
    out
}

/// Writes the Fig. 8 / Fig. 2-style SVG layout shots into `dir`.
pub fn layouts(ctx: &mut Ctx, dir: &std::path::Path) -> String {
    use foldic::{render_block_svg, render_chip_svg};
    let mut out = String::new();
    let _ = writeln!(out, "== Layout shots (SVG) ==");
    std::fs::create_dir_all(dir).expect("create layout dir");
    // one engine job per style shot; files are written serially after
    let shared: &Ctx = ctx;
    let shots = foldic_exec::par_map(
        shared.threads,
        vec![
            (DesignStyle::Flat2d, "fig8a_2d.svg"),
            (DesignStyle::CoreCache, "fig8b_core_cache.svg"),
            (DesignStyle::CoreCore, "fig8c_core_core.svg"),
            (DesignStyle::FoldedF2b, "fig8d_folded_f2b.svg"),
            (DesignStyle::FoldedF2f, "fig8e_folded_f2f.svg"),
        ],
        |_, (style, fname)| {
            let mut d = shared.design.clone();
            let r = run_fullchip(&mut d, &shared.tech, style, &FullChipConfig::fast())
                .expect("fullchip");
            (fname, render_chip_svg(&d, r.die, 900.0 / r.die.width()))
        },
    );
    for (fname, svg) in shots {
        let path = dir.join(fname);
        std::fs::write(&path, svg).expect("write svg");
        let _ = writeln!(out, "wrote {}", path.display());
    }
    // folded CCX block shot (Fig. 2b)
    {
        let mut d = ctx.design.clone();
        let id = d.find_block("ccx").expect("ccx");
        let folded = fold_block(
            d.block_mut(id),
            &ctx.tech,
            &FoldConfig {
                strategy: FoldStrategy::NaturalGroups(vec!["pcx".into()]),
                aspect: FoldAspect::Square,
                bonding: BondingStyle::FaceToBack,
                ..FoldConfig::default()
            },
        )
        .expect("fold");
        let svg = render_block_svg(d.block(id), &ctx.tech, Some(&folded.vias), 0.6);
        let path = dir.join("fig2b_ccx_folded.svg");
        std::fs::write(&path, svg).expect("write svg");
        let _ = writeln!(out, "wrote {}", path.display());
    }
    out
}

/// Runs the 2D block flow and a fold for one block (shared by examples
/// and ablation benches): returns `(2D metrics, folded result)`.
pub fn fold_pair(ctx: &Ctx, name: &str, cfg: &FoldConfig) -> (DesignMetrics, FoldedBlock) {
    let b2 = {
        let mut d = ctx.design.clone();
        let id = d.find_block(name).expect("known block");
        let b = d.block_mut(id);
        let budgets = TimingBudgets::relaxed(&b.netlist, &ctx.tech);
        foldic::flow::run_block_flow(b, &ctx.tech, &budgets, &FlowConfig::default())
            .expect("2D flow")
            .metrics
    };
    let mut d = ctx.design.clone();
    let id = d.find_block(name).expect("known block");
    let folded = fold_block(d.block_mut(id), &ctx.tech, cfg).expect("fold");
    (b2, folded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Ctx {
        Ctx::new(T2Config::tiny())
    }

    #[test]
    fn table1_reports_models() {
        let c = ctx();
        let s = table1(&c.tech);
        assert!(s.contains("TSV"));
        assert!(s.contains("F2F via"));
    }

    #[test]
    fn fig2_runs_on_tiny() {
        let mut c = ctx();
        let s = fig2(&mut c);
        assert!(s.contains("signal TSVs"));
        assert!(s.contains("TSV-count sweep"));
    }

    #[test]
    fn table4_runs_on_tiny() {
        let mut c = ctx();
        let s = table4(&mut c);
        assert!(s.contains("footprint"));
    }
}
