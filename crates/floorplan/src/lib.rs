#![warn(missing_docs)]
//! Chip-level floorplanning for the 2-tier 3D study.
//!
//! Two engines, matching how the paper builds its chips (§3.1):
//!
//! * [`seqpair`] — a fixed-outline simulated-annealing floorplanner on the
//!   sequence-pair representation (the general engine of the paper's
//!   reference \[5\]);
//! * `styles` — *user-defined* constructive floorplans for the T2: the
//!   paper modifies the floorplanner of \[5\] "to handle user-defined
//!   floorplans" because the T2's eight cores and L2 banks "need to be
//!   arranged in a specific order and a regular fashion". The three
//!   published arrangements are reproduced: the 2D chip (Fig. 8a),
//!   core/cache stacking (all SPCs on one die, Fig. 8b) and core/core
//!   stacking (four cores per die, Fig. 8c).
//!
//! After block placement, [`plan_chip_tsvs`] places one TSV per cross-die
//! chip net in the whitespace between blocks ("TSV arrays are treated as
//! additional blocks … all TSVs can be placed outside blocks only"). It
//! rasterizes the blocks once into a grid of free TSV-pitch sites, then,
//! net by net, walks the perimeters of square rings around the port
//! midpoint and claims the first free site; a claimed site stops being
//! free. A net whose search finds no free site keeps a `None` entry, so
//! the plan stays parallel to the cross-die nets.
//!
//! # Examples
//!
//! ```
//! use foldic_floorplan::{floorplan_t2, FloorplanStyle};
//! use foldic_t2::T2Config;
//!
//! let (mut design, tech) = T2Config::tiny().generate();
//! let plan = floorplan_t2(&mut design, FloorplanStyle::CoreCache, &tech);
//! assert!(plan.die.area() > 0.0);
//! ```

pub mod seqpair;
mod styles;

pub use seqpair::{anneal_floorplan, SaConfig, SeqPair};

use foldic_geom::{Point, Rect, Tier};
use foldic_netlist::Design;
use foldic_tech::Technology;

/// The chip-level arrangement styles of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FloorplanStyle {
    /// Single-die 2D chip following the original T2 floorplan.
    Flat2d,
    /// Two-tier: all eight cores on the top die, all cache and control on
    /// the bottom die.
    CoreCache,
    /// Two-tier: four cores plus their cache slice on each die.
    CoreCore,
}

impl FloorplanStyle {
    /// `true` for the two-tier styles.
    pub fn is_3d(self) -> bool {
        !matches!(self, FloorplanStyle::Flat2d)
    }
}

/// Result of chip-level floorplanning.
#[derive(Debug, Clone)]
pub struct ChipPlan {
    /// Die outline (both dies share it in a 3D stack).
    pub die: Rect,
    /// Arrangement style.
    pub style: FloorplanStyle,
    /// Chip-level TSV positions, one entry per cross-die chip net in the
    /// order of `design.chip_nets()`, empty for 2D chips. `None` when the
    /// net found no free site; its consumers then fall back to a point
    /// between the net's ports.
    pub tsvs: Vec<Option<Point>>,
}

impl ChipPlan {
    /// Die footprint in mm².
    pub fn footprint_mm2(&self) -> f64 {
        self.die.area() * 1e-6
    }
}

/// Floorplans the T2 design in the requested style: assigns every block's
/// chip position and tier, then plans chip-level TSVs for 3D styles.
pub fn floorplan_t2(design: &mut Design, style: FloorplanStyle, tech: &Technology) -> ChipPlan {
    let die = styles::place_blocks(design, style);
    let tsvs = if style.is_3d() {
        plan_chip_tsvs(design, die, tech)
    } else {
        Vec::new()
    };
    ChipPlan { die, style, tsvs }
}

/// Places one TSV per cross-die chip net in legal whitespace.
///
/// The ideal spot is the midpoint between the two ports; sites are on the
/// TSV pitch grid, must lie inside the die and outside every block rect on
/// either tier, and cannot be shared. Returns one entry per cross-die net,
/// in chip-net order: the chosen position, or `None` when the search finds
/// no free site.
pub fn plan_chip_tsvs(design: &Design, die: Rect, tech: &Technology) -> Vec<Option<Point>> {
    let blocks: Vec<Rect> = design.blocks().map(|(_, b)| b.chip_rect()).collect();
    plan_sites(
        die,
        tech.tsv.pitch_um,
        &blocks,
        &cross_die_midpoints(design),
    )
}

/// The port midpoint of every cross-die chip net, in chip-net order.
fn cross_die_midpoints(design: &Design) -> Vec<Point> {
    let mut mids = Vec::new();
    for net in design.chip_nets() {
        let mut cross = false;
        let mut mid = Point::ORIGIN;
        let mut n = 0.0;
        let mut tier0 = None;
        for &(bid, pid) in &net.endpoints {
            let block = design.block(bid);
            let port = block.netlist.port(pid);
            mid += block.to_chip(port.pos);
            n += 1.0;
            // folded blocks expose their ports on the tier the fold put
            // them on; unfolded blocks expose everything on their die
            let tier = if block.folded { port.tier } else { block.tier };
            match tier0 {
                None => tier0 = Some(tier),
                Some(t) if t != tier => cross = true,
                _ => {}
            }
        }
        if cross {
            mids.push(mid * (1.0 / n));
        }
    }
    mids
}

/// Claims the nearest free site for each midpoint in turn.
fn plan_sites(die: Rect, pitch: f64, blocks: &[Rect], mids: &[Point]) -> Vec<Option<Point>> {
    let mut grid = SiteGrid::new(die, pitch, blocks);
    mids.iter().map(|&mid| grid.claim_nearest(mid)).collect()
}

/// The TSV pitch grid over the die with one flag per site: free means
/// inside the die, outside every block rect, and not yet claimed.
struct SiteGrid {
    die: Rect,
    pitch: f64,
    cols: i64,
    rows: i64,
    /// Row-major, `r * cols + c`.
    free: Vec<bool>,
}

impl SiteGrid {
    fn new(die: Rect, pitch: f64, blocks: &[Rect]) -> Self {
        let cols = (die.width() / pitch).floor() as i64;
        let rows = (die.height() / pitch).floor() as i64;
        let mut grid = Self {
            die,
            pitch,
            cols,
            rows,
            free: vec![true; (cols.max(0) * rows.max(0)) as usize],
        };
        // Rasterize each block over its site span padded by a site on
        // each side, then decide every site in it with the exact
        // `Rect::contains` test, so rounding in the span cannot matter.
        for b in blocks {
            let span = |lo: f64, hi: f64, origin: f64, n: i64| {
                let first = ((lo - origin) / pitch - 1.5).floor().max(0.0);
                let end = ((hi - origin) / pitch + 1.5).ceil().min(n.max(0) as f64);
                first as i64..end as i64
            };
            for r in span(b.lly, b.ury, die.lly, rows) {
                for c in span(b.llx, b.urx, die.llx, cols) {
                    if b.contains(grid.site(c, r)) {
                        grid.free[(r * cols + c) as usize] = false;
                    }
                }
            }
        }
        grid
    }

    fn site(&self, c: i64, r: i64) -> Point {
        Point::new(
            self.die.llx + (c as f64 + 0.5) * self.pitch,
            self.die.lly + (r as f64 + 0.5) * self.pitch,
        )
    }

    /// Claims site `(c, r)` if it is on the grid and free.
    fn claim(&mut self, c: i64, r: i64) -> Option<Point> {
        if c < 0 || r < 0 || c >= self.cols || r >= self.rows {
            return None;
        }
        let flag = &mut self.free[(r * self.cols + c) as usize];
        if !std::mem::replace(flag, false) {
            return None;
        }
        Some(self.site(c, r))
    }

    /// Searches square rings around the site under `mid` and claims the
    /// first free site. Each ring visits only its perimeter, in the order
    /// of a column-major sweep of the full square: `dc` ascending, and in
    /// each column `dr` ascending.
    fn claim_nearest(&mut self, mid: Point) -> Option<Point> {
        let c0 = ((mid.x - self.die.llx) / self.pitch).floor() as i64;
        let r0 = ((mid.y - self.die.lly) / self.pitch).floor() as i64;
        for ring in 0..self.cols.max(self.rows).max(1) {
            for dc in -ring..=ring {
                let c = c0 + dc;
                let found = if dc.abs() == ring {
                    (-ring..=ring).find_map(|dr| self.claim(c, r0 + dr))
                } else {
                    self.claim(c, r0 - ring)
                        .or_else(|| self.claim(c, r0 + ring))
                };
                if found.is_some() {
                    return found;
                }
            }
        }
        None
    }
}

/// Total inter-block wirelength in µm: for every chip net, the Manhattan
/// distance between its ports (routing through the TSV for cross-die
/// nets), times the bus width.
pub fn interblock_wirelength_um(design: &Design, plan: &ChipPlan) -> f64 {
    let mut tsv_iter = plan.tsvs.iter();
    let mut total = 0.0;
    for net in design.chip_nets() {
        let pts: Vec<(Point, Tier)> = net
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
            let via = tsv_iter.next().copied().flatten().unwrap_or_else(|| {
                // the net got no TSV site; fall back to the midpoint
                pts.iter().fold(Point::ORIGIN, |a, &(p, _)| a + p) * (1.0 / pts.len() as f64)
            });
            pts.iter().map(|&(p, _)| p.manhattan(via)).sum::<f64>()
        } else {
            pts.windows(2)
                .map(|w| w[0].0.manhattan(w[1].0))
                .sum::<f64>()
        };
        total += len * net.bits as f64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_t2::T2Config;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn planned(style: FloorplanStyle) -> (Design, Technology, ChipPlan) {
        let (mut design, tech) = T2Config::tiny().generate();
        let plan = floorplan_t2(&mut design, style, &tech);
        (design, tech, plan)
    }

    #[test]
    fn blocks_do_not_overlap_within_a_tier() {
        for style in [
            FloorplanStyle::Flat2d,
            FloorplanStyle::CoreCache,
            FloorplanStyle::CoreCore,
        ] {
            let (design, _, plan) = planned(style);
            let blocks: Vec<_> = design.blocks().collect();
            for (i, (_, a)) in blocks.iter().enumerate() {
                assert!(
                    plan.die.inflated(1.0).contains_rect(a.chip_rect()),
                    "{style:?}: {} at {} escapes die {}",
                    a.name,
                    a.chip_rect(),
                    plan.die
                );
                for (_, b) in &blocks[i + 1..] {
                    if a.tier == b.tier {
                        assert!(
                            !a.chip_rect()
                                .inflated(-0.5)
                                .overlaps(b.chip_rect().inflated(-0.5)),
                            "{style:?}: {} overlaps {}",
                            a.name,
                            b.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stacking_halves_the_footprint() {
        let (_, _, flat) = planned(FloorplanStyle::Flat2d);
        let (_, _, cc) = planned(FloorplanStyle::CoreCache);
        let ratio = cc.footprint_mm2() / flat.footprint_mm2();
        // The paper reports −46 % at full scale. The tiny test design is
        // macro-dominated (SRAM arrays do not shrink with the logic), so
        // only the direction and a loose band are asserted here; the
        // full-scale value is checked by the Table 2 reproduction.
        assert!(ratio > 0.35 && ratio < 0.90, "ratio {ratio}");
    }

    #[test]
    fn core_cache_puts_all_cores_on_top() {
        let (design, _, _) = planned(FloorplanStyle::CoreCache);
        for (_, b) in design.blocks() {
            if b.kind == foldic_netlist::BlockKind::Spc {
                assert_eq!(b.tier, Tier::Top, "{}", b.name);
            } else {
                assert_eq!(b.tier, Tier::Bottom, "{}", b.name);
            }
        }
    }

    #[test]
    fn core_core_balances_cores() {
        let (design, _, _) = planned(FloorplanStyle::CoreCore);
        let spc_top = design
            .blocks()
            .filter(|(_, b)| b.kind == foldic_netlist::BlockKind::Spc && b.tier == Tier::Top)
            .count();
        assert_eq!(spc_top, 4);
    }

    #[test]
    fn tsvs_live_in_whitespace() {
        let (design, _, plan) = planned(FloorplanStyle::CoreCache);
        assert!(!plan.tsvs.is_empty());
        for &p in plan.tsvs.iter().flatten() {
            for (_, b) in design.blocks() {
                assert!(!b.chip_rect().contains(p), "TSV at {p} inside {}", b.name);
            }
            assert!(plan.die.contains(p));
        }
        // distinct sites
        let mut seen = std::collections::HashSet::new();
        for &p in plan.tsvs.iter().flatten() {
            assert!(seen.insert((p.x.to_bits(), p.y.to_bits())));
        }
    }

    #[test]
    fn core_core_needs_more_tsvs_than_core_cache() {
        // Fig. 8: 7,606 vs 3,263 TSVs — core/core cuts the SPC↔CCX and
        // intra-cache buses across the dies.
        let (_, _, cc) = planned(FloorplanStyle::CoreCache);
        let (_, _, cores) = planned(FloorplanStyle::CoreCore);
        assert!(
            cores.tsvs.len() > cc.tsvs.len(),
            "core/core {} vs core/cache {}",
            cores.tsvs.len(),
            cc.tsvs.len()
        );
    }

    #[test]
    fn stacking_shortens_interblock_wirelength() {
        let (d2, _, p2) = planned(FloorplanStyle::Flat2d);
        let (d3, _, p3) = planned(FloorplanStyle::CoreCache);
        let wl2 = interblock_wirelength_um(&d2, &p2);
        let wl3 = interblock_wirelength_um(&d3, &p3);
        assert!(wl3 < wl2, "3D inter-block WL {wl3} must beat 2D {wl2}");
    }

    // ---- legal-site grid vs full-square oracle ------------------------------

    /// The search [`SiteGrid`] replaced, kept as the oracle: ring `r`
    /// loops over all (2r+1)² cells and skips the interior, each site is
    /// tested against every block rect, and claimed sites live in a set.
    fn plan_sites_full_square(
        die: Rect,
        pitch: f64,
        blocks: &[Rect],
        mids: &[Point],
    ) -> Vec<Option<Point>> {
        let cols = (die.width() / pitch).floor() as i64;
        let rows = (die.height() / pitch).floor() as i64;
        let site = |c: i64, r: i64| {
            Point::new(
                die.llx + (c as f64 + 0.5) * pitch,
                die.lly + (r as f64 + 0.5) * pitch,
            )
        };
        let legal = |c: i64, r: i64| {
            if c < 0 || r < 0 || c >= cols || r >= rows {
                return false;
            }
            let p = site(c, r);
            !blocks.iter().any(|b| b.contains(p))
        };
        let mut occupied = std::collections::HashSet::new();
        let mut tsvs = Vec::new();
        for &mid in mids {
            let c0 = ((mid.x - die.llx) / pitch).floor() as i64;
            let r0 = ((mid.y - die.lly) / pitch).floor() as i64;
            tsvs.push(None);
            'search: for ring in 0..cols.max(rows).max(1) {
                for dc in -ring..=ring {
                    for dr in -ring..=ring {
                        if dc.abs() != ring && dr.abs() != ring {
                            continue;
                        }
                        let (c, r) = (c0 + dc, r0 + dr);
                        if legal(c, r) && occupied.insert((c, r)) {
                            *tsvs.last_mut().unwrap() = Some(site(c, r));
                            break 'search;
                        }
                    }
                }
            }
        }
        tsvs
    }

    fn bits(pts: &[Option<Point>]) -> Vec<Option<(u64, u64)>> {
        pts.iter()
            .map(|p| p.map(|p| (p.x.to_bits(), p.y.to_bits())))
            .collect()
    }

    fn fuzz_seed() -> u64 {
        std::env::var("FOLDIC_FUZZ_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xDAC1_4F00D)
    }

    /// A random block rect for a die of `cols × rows` sites. Kinds: edges
    /// exactly on site centres, touching the previous block, overhanging
    /// the die, and free-floating inside it.
    fn random_block(rng: &mut StdRng, die: Rect, pitch: f64, prev: Option<Rect>) -> Rect {
        let cols = (die.width() / pitch).floor() as i64;
        let rows = (die.height() / pitch).floor() as i64;
        // the exact site-centre expression, so edges hit centres bit for bit
        let cx = |k: i64| die.llx + (k as f64 + 0.5) * pitch;
        let cy = |k: i64| die.lly + (k as f64 + 0.5) * pitch;
        let span = |rng: &mut StdRng, n: i64| {
            let a = rng.gen_range(-2..n.max(0) + 2);
            (a, a + rng.gen_range(0..4i64))
        };
        match (rng.gen_range(0..4u32), prev) {
            (0, _) => {
                let (c1, c2) = span(rng, cols);
                let (r1, r2) = span(rng, rows);
                Rect::new(cx(c1), cy(r1), cx(c2), cy(r2))
            }
            (1, Some(p)) => {
                // shares the previous block's right edge
                let w = rng.gen::<f64>() * 3.0 * pitch;
                Rect::new(p.urx, p.lly, p.urx + w, p.ury)
            }
            (2, _) => {
                // straddles a die corner
                let w = rng.gen::<f64>() * 4.0 * pitch + pitch;
                let h = rng.gen::<f64>() * 4.0 * pitch + pitch;
                let x = if rng.gen_bool(0.5) { die.llx } else { die.urx };
                let y = if rng.gen_bool(0.5) { die.lly } else { die.ury };
                Rect::centered(Point::new(x, y), w, h)
            }
            _ => {
                let x = die.llx + rng.gen::<f64>() * die.width();
                let y = die.lly + rng.gen::<f64>() * die.height();
                let w = rng.gen::<f64>() * die.width() * 0.5;
                let h = rng.gen::<f64>() * die.height() * 0.5;
                Rect::new(x, y, x + w, y + h)
            }
        }
    }

    /// 2k seeded random dies, block sets and chip-net midpoints: the grid
    /// search must return the oracle's sites bit for bit. Covers site
    /// centres exactly on block edges, touching and overhanging blocks,
    /// clustered midpoints (repeated and jittered), midpoints outside the
    /// die, dies with no legal site, full grids and 0×N grids.
    #[test]
    fn site_grid_matches_full_square_oracle_bitwise() {
        const ITERS: usize = 2_000;
        let mut rng = StdRng::seed_from_u64(fuzz_seed() ^ 0x75f);
        let (mut empty_grids, mut on_edge, mut unplaced) = (0, 0, 0);
        for iter in 0..ITERS {
            let pitch = if rng.gen_bool(0.5) {
                7.0
            } else {
                rng.gen_range(3.0..10.0)
            };
            let (w, h) = match iter % 10 {
                // a side shorter than one pitch: a 0×N (or N×0) grid
                0 => (rng.gen::<f64>() * pitch * 0.99, rng.gen_range(0.0..90.0)),
                1 => (rng.gen_range(0.0..90.0), rng.gen::<f64>() * pitch * 0.99),
                // a few sites only, so the grid fills up
                2 => (
                    rng.gen_range(0.0..4.0) * pitch,
                    rng.gen_range(0.0..4.0) * pitch,
                ),
                _ => (rng.gen_range(0.0..90.0), rng.gen_range(0.0..90.0)),
            };
            let (llx, lly) = (rng.gen_range(-40.0..40.0), rng.gen_range(-40.0..40.0));
            let die = Rect::new(llx, lly, llx + w, lly + h);
            let mut blocks: Vec<Rect> = Vec::new();
            for _ in 0..rng.gen_range(0..10) {
                let prev = blocks.last().copied();
                blocks.push(random_block(&mut rng, die, pitch, prev));
            }
            if iter % 25 == 3 {
                // one block covering the whole die: no legal site at all
                blocks.push(die.inflated(rng.gen::<f64>() * pitch));
            }
            let centres: Vec<Point> = (0..rng.gen_range(1..4))
                .map(|_| {
                    Point::new(
                        die.llx - 10.0 + rng.gen::<f64>() * (die.width() + 20.0),
                        die.lly - 10.0 + rng.gen::<f64>() * (die.height() + 20.0),
                    )
                })
                .collect();
            let mids: Vec<Point> = (0..rng.gen_range(0..60))
                .map(|_| {
                    let c = centres[rng.gen_range(0..centres.len())];
                    match rng.gen_range(0..3u32) {
                        0 => c,
                        1 => Point::new(
                            c.x + rng.gen_range(-1.0..1.0) * pitch,
                            c.y + rng.gen_range(-1.0..1.0) * pitch,
                        ),
                        _ => Point::new(
                            die.llx + rng.gen::<f64>() * die.width(),
                            die.lly + rng.gen::<f64>() * die.height(),
                        ),
                    }
                })
                .collect();

            let want = plan_sites_full_square(die, pitch, &blocks, &mids);
            let got = plan_sites(die, pitch, &blocks, &mids);
            assert_eq!(
                bits(&got),
                bits(&want),
                "iter {iter}: die {die} pitch {pitch}"
            );

            let grid = SiteGrid::new(die, pitch, &blocks);
            if grid.free.is_empty() {
                empty_grids += 1;
            }
            let edge_hit = (0..grid.cols.max(0)).any(|c| {
                (0..grid.rows.max(0)).any(|r| {
                    let p = grid.site(c, r);
                    blocks
                        .iter()
                        .any(|b| b.contains(p) && (p.x == b.llx || p.x == b.urx || p.y == b.lly))
                })
            });
            on_edge += usize::from(edge_hit);
            unplaced += usize::from(want.iter().any(Option::is_none));
        }
        assert!(empty_grids > 100, "only {empty_grids} 0×N grids");
        assert!(
            on_edge > 100,
            "only {on_edge} cases with a site on a block edge"
        );
        assert!(
            unplaced > 100,
            "only {unplaced} cases where a net got no TSV"
        );
    }

    /// The folded-style path: `run_fullchip` re-plans chip TSVs on the 2D
    /// arrangement once a fold exposes ports on both tiers.
    #[test]
    fn folded_design_replan_matches_the_oracle() {
        let (mut design, tech) = T2Config::tiny().generate();
        let id = design.find_block("ccx").unwrap();
        let _ = foldic::fold_block(
            design.block_mut(id),
            &tech,
            &foldic::FoldConfig {
                strategy: foldic::FoldStrategy::NaturalGroups(vec!["pcx".into()]),
                bonding: foldic_tech::BondingStyle::FaceToFace,
                placer: foldic_place::PlacerConfig::fast(),
                ..foldic::FoldConfig::default()
            },
        );
        let plan = floorplan_t2(&mut design, FloorplanStyle::Flat2d, &tech);
        let got = plan_chip_tsvs(&design, plan.die, &tech);
        let blocks: Vec<Rect> = design.blocks().map(|(_, b)| b.chip_rect()).collect();
        let mids = cross_die_midpoints(&design);
        let want = plan_sites_full_square(plan.die, tech.tsv.pitch_um, &blocks, &mids);
        assert!(!want.is_empty());
        assert_eq!(bits(&got), bits(&want));
    }
}
