//! Floorplan-level invariants across all styles.

use foldic_floorplan::{
    anneal_floorplan, floorplan_t2, interblock_wirelength_um, plan_chip_tsvs, ChipPlan,
    FloorplanStyle, SaConfig,
};
use foldic_geom::{Point, Rect, Tier};
use foldic_netlist::{Block, BlockKind, ChipNet, ClockDomain, Design, Netlist, PortDir};
use foldic_t2::T2Config;
use foldic_tech::Technology;

#[test]
fn chip_tsv_count_equals_cross_die_nets() {
    let (mut design, tech) = T2Config::tiny().generate();
    let plan = floorplan_t2(&mut design, FloorplanStyle::CoreCache, &tech);
    let mut crossing = 0;
    for net in design.chip_nets() {
        let tiers: std::collections::HashSet<Tier> = net
            .endpoints
            .iter()
            .map(|&(bid, _)| design.block(bid).tier)
            .collect();
        if tiers.len() > 1 {
            crossing += 1;
        }
    }
    assert_eq!(plan.tsvs.len(), crossing);
}

#[test]
fn replanning_tsvs_is_deterministic() {
    let (mut design, tech) = T2Config::tiny().generate();
    let plan = floorplan_t2(&mut design, FloorplanStyle::CoreCore, &tech);
    let again = plan_chip_tsvs(&design, plan.die, &tech);
    assert_eq!(plan.tsvs, again);
}

#[test]
fn interblock_wl_is_positive_and_scales_with_style() {
    let (design, tech) = T2Config::tiny().generate();
    let mut lens = Vec::new();
    for style in [
        FloorplanStyle::Flat2d,
        FloorplanStyle::CoreCache,
        FloorplanStyle::CoreCore,
    ] {
        let mut d = design.clone();
        let plan = floorplan_t2(&mut d, style, &tech);
        let wl = interblock_wirelength_um(&d, &plan);
        assert!(wl > 0.0);
        lens.push(wl);
    }
    // both 3D styles beat 2D
    assert!(lens[1] < lens[0]);
    assert!(lens[2] < lens[0]);
}

#[test]
fn sa_floorplanner_handles_mixed_sizes() {
    use foldic_floorplan::seqpair::FpBlock;
    // one giant block plus many small ones: no overlap, sane bounding box
    let mut blocks = vec![FpBlock { w: 50.0, h: 50.0 }];
    for i in 0..15 {
        blocks.push(FpBlock {
            w: 8.0 + (i % 4) as f64,
            h: 6.0 + (i % 3) as f64,
        });
    }
    let (pos, bb) = anneal_floorplan(&blocks, &Vec::new(), None, &SaConfig::default());
    let area_sum: f64 = blocks.iter().map(|b| b.w * b.h).sum();
    assert!(bb.area() >= area_sum);
    assert!(
        bb.area() < 2.5 * area_sum,
        "bb {} vs blocks {area_sum}",
        bb.area()
    );
    for (i, p) in pos.iter().enumerate() {
        let a = foldic_geom::Rect::with_size(*p, blocks[i].w, blocks[i].h);
        for (j, q) in pos.iter().enumerate().skip(i + 1) {
            let b = foldic_geom::Rect::with_size(*q, blocks[j].w, blocks[j].h);
            assert!(!a.inflated(-1e-9).overlaps(b), "{i} overlaps {j}");
        }
    }
}

#[test]
fn folded_blocks_expose_ports_on_both_tiers_to_the_planner() {
    // fold one block, then floorplan: cross-die chip nets must appear even
    // in the single-arrangement (Flat2d-recipe) plan
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
    let tsvs = plan_chip_tsvs(&design, plan.die, &tech);
    assert!(
        !tsvs.is_empty(),
        "folded CCX ports on the top die must require chip-level 3D connections"
    );
    // the folded-style re-plan of `run_fullchip`, pinned like the styles
    // in `tsv_plans_match_pinned_digests`
    assert_eq!(tsvs.len(), 528);
    assert_eq!(tsv_digest(&tsvs), 0x5dacf19fe66b0610);
}

/// FNV-1a over the TSV entry count and every placed position's bits.
fn tsv_digest(tsvs: &[Option<foldic_geom::Point>]) -> u64 {
    tsvs.iter().flatten().fold(
        rand::fnv1a(rand::FNV1A_BASIS, &(tsvs.len() as u64).to_le_bytes()),
        |h, p| {
            let h = rand::fnv1a(h, &p.x.to_bits().to_le_bytes());
            rand::fnv1a(h, &p.y.to_bits().to_le_bytes())
        },
    )
}

/// TSV plans of every style at tiny and small, pinned by count and
/// digest. Captured from the full-square ring search the legal-site grid
/// replaced; any change to the site order, the legality test or the
/// claim rule moves at least one digest.
#[test]
fn tsv_plans_match_pinned_digests() {
    let want = [
        ("tiny", FloorplanStyle::Flat2d, 0, 0xa8c7f832281a39c5),
        ("tiny", FloorplanStyle::CoreCache, 728, 0xa96c5c315b3851f9),
        ("tiny", FloorplanStyle::CoreCore, 1521, 0x5ba13e389415648a),
        ("small", FloorplanStyle::Flat2d, 0, 0xa8c7f832281a39c5),
        ("small", FloorplanStyle::CoreCache, 1248, 0x4eb497d97fef4992),
        ("small", FloorplanStyle::CoreCore, 2627, 0x2107beb997a78e41),
    ];
    for label in ["tiny", "small"] {
        let (design, tech) = T2Config::from_label(label).unwrap().generate();
        for &(_, style, count, digest) in want.iter().filter(|w| w.0 == label) {
            let mut d = design.clone();
            let plan = floorplan_t2(&mut d, style, &tech);
            assert_eq!(plan.tsvs.len(), count, "{label} {style:?}: TSV count");
            assert!(
                plan.tsvs.iter().all(Option::is_some),
                "{label} {style:?}: a net found no TSV site"
            );
            assert_eq!(
                tsv_digest(&plan.tsvs),
                digest,
                "{label} {style:?}: TSV positions drifted"
            );
        }
    }
}

/// A cross-die net whose TSV search finds no free site must not hand its
/// entry to the nets after it: net 0's port midpoint lies far off the
/// die, so its ring search never reaches a site, while net 1 gets the
/// site next to its ports and its wirelength runs through that TSV.
#[test]
fn a_net_without_a_tsv_site_leaves_later_nets_their_own_tsvs() {
    let tech = Technology::cmos28();
    let mut design = Design::new("pairing");
    // `(net 0 port, net 1 port)` positions per block, block-local
    let sides = [
        (
            "a",
            Tier::Bottom,
            PortDir::Output,
            [Point::new(-10_000.0, 0.0), Point::new(10.0, 2.0)],
        ),
        (
            "b",
            Tier::Top,
            PortDir::Input,
            [Point::new(-10_000.0, 10.0), Point::new(10.0, 8.0)],
        ),
    ];
    let mut ports = Vec::new();
    for (name, tier, dir, pos) in sides {
        let mut nl = Netlist::new(name);
        let pids: Vec<_> = pos
            .iter()
            .enumerate()
            .map(|(k, &p)| {
                let pid = nl.add_port(format!("p{k}"), dir, ClockDomain::Cpu);
                nl.port_mut(pid).pos = p;
                pid
            })
            .collect();
        let mut block = Block::new(name, BlockKind::Mcu, nl, Rect::new(0.0, 0.0, 10.0, 10.0));
        block.tier = tier;
        ports.push((design.add_block(block), pids));
    }
    for (k, bits) in [(0, 1), (1, 3)] {
        design.add_chip_net(ChipNet {
            name: format!("n{k}"),
            endpoints: ports.iter().map(|(bid, pids)| (*bid, pids[k])).collect(),
            bits,
            domain: ClockDomain::Cpu,
        });
    }
    let die = Rect::new(0.0, 0.0, 100.0, 100.0);
    let plan = ChipPlan {
        die,
        style: FloorplanStyle::CoreCache,
        tsvs: plan_chip_tsvs(&design, die, &tech),
    };
    assert_eq!(plan.tsvs.len(), 2, "one entry per cross-die net");
    assert_eq!(plan.tsvs[0], None, "net 0 cannot reach the die");
    let tsv = plan.tsvs[1].expect("net 1 has free sites next to its ports");
    assert!(!design.block(ports[0].0).chip_rect().contains(tsv));

    // net 0 falls back to its port midpoint (5 µm to each port); net 1
    // runs through its own TSV
    let net1 = Point::new(10.0, 2.0).manhattan(tsv) + Point::new(10.0, 8.0).manhattan(tsv);
    let want = 10.0 + 3.0 * net1;
    let got = interblock_wirelength_um(&design, &plan);
    assert!((got - want).abs() < 1e-9, "wirelength {got}, want {want}");
}
