//! Quadratic wirelength system and conjugate-gradient solver.
//!
//! The system is built once per placement and solved many times with
//! growing anchor weights, so everything that does not depend on live
//! positions is precomputed at build: the clique adjacency lives in a
//! flat CSR layout, the base diagonal and right-hand sides (clique +
//! fixed springs) are baked into `base_*` vectors, and star-net pins are
//! pre-resolved to variable indices. Each `solve` then only copies the
//! bases, layers the position-dependent star/anchor contributions on top,
//! and runs CG entirely in scratch buffers owned by the system — zero
//! allocations after the first solve.
//!
//! The x and y systems share the matrix, so one CG loop solves both: the
//! state is interleaved `[x, y]` per variable, every sweep of the
//! neighbour list serves both axes, and each axis keeps its own stop
//! tests, so the result is bit-identical to two separate solves (DESIGN
//! §9).

use foldic_geom::{Point, Rect};
use foldic_netlist::{InstId, Netlist, PinRef};

/// Nets up to this many pins enter the system as cliques; larger nets use
/// centroid (star) springs recomputed every solve.
const CLIQUE_LIMIT: usize = 8;

/// Star-net pin sentinel for "fixed pin" in [`QuadraticSystem::star_var`].
const FIXED_PIN: u32 = u32::MAX;

/// Reusable per-solve buffers. Held by the system so repeated solves (the
/// placer runs `iterations` of them per block) never reallocate.
#[derive(Debug, Default)]
struct SolveScratch {
    diag: Vec<f64>,
    /// Right-hand sides, `[x, y]` per variable.
    b: Vec<[f64; 2]>,
    /// Anchor positions in (the initial guess), solution out, `[x, y]`
    /// per variable.
    v: Vec<[f64; 2]>,
    cg: CgWork,
}

/// CG work vectors, `[x, y]` per variable.
#[derive(Debug, Default)]
struct CgWork {
    r: Vec<[f64; 2]>,
    z: Vec<[f64; 2]>,
    dir: Vec<[f64; 2]>,
    ap: Vec<[f64; 2]>,
}

/// Clique adjacency in CSR form, structure of arrays: the neighbours of
/// variable `i` are `col[off[i]..off[i+1]]` with weights `w[..]` at the
/// same indices, in the exact order the retired `Vec<Vec<…>>` adjacency
/// pushed them (edge order), so `mat_vec` accumulates in the same order
/// and stays bit-identical.
#[derive(Debug, Default)]
struct Csr {
    off: Vec<u32>,
    col: Vec<u32>,
    w: Vec<f64>,
}

impl Csr {
    /// Builds the adjacency of `nv` variables from `(a, b, w)` edges:
    /// count degrees, prefix-sum, then fill in edge order — reproducing
    /// the per-node neighbour order of the retired Vec-of-Vecs exactly.
    fn from_edges(nv: usize, edges: &[(u32, u32, f64)]) -> Self {
        let mut degree = vec![0u32; nv];
        for &(a, b, _) in edges {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut off = vec![0u32; nv + 1];
        for i in 0..nv {
            off[i + 1] = off[i] + degree[i];
        }
        let mut cursor: Vec<u32> = off[..nv].to_vec();
        let mut col = vec![0; off[nv] as usize];
        let mut w = vec![0.0; off[nv] as usize];
        for &(a, b, wt) in edges {
            for (from, to) in [(a, b), (b, a)] {
                let k = cursor[from as usize] as usize;
                col[k] = to;
                w[k] = wt;
                cursor[from as usize] += 1;
            }
        }
        Self { off, col, w }
    }

    /// `out = A·x` for `A = diag − offdiag(self)`, both axes in one sweep
    /// of the neighbour list. Returns `x·out` per axis, accumulated in
    /// i-order from `-0.0` like `f64: Sum`.
    fn mat_vec(&self, diag: &[f64], x: &[[f64; 2]], out: &mut [[f64; 2]]) -> [f64; 2] {
        let mut dot = [-0.0; 2];
        for (i, o) in out.iter_mut().enumerate() {
            let (lo, hi) = (self.off[i] as usize, self.off[i + 1] as usize);
            let xi = x[i];
            let mut s = [diag[i] * xi[0], diag[i] * xi[1]];
            for (&j, &w) in self.col[lo..hi].iter().zip(&self.w[lo..hi]) {
                let xj = x[j as usize];
                s[0] -= w * xj[0];
                s[1] -= w * xj[1];
            }
            *o = s;
            dot[0] += xi[0] * s[0];
            dot[1] += xi[1] * s[1];
        }
        dot
    }
}

/// The quadratic placement system: static clique edges plus per-solve
/// centroid springs and spreading anchors.
#[derive(Debug)]
pub struct QuadraticSystem {
    movable: Vec<InstId>,
    /// Clique edges between movable instances.
    nbr: Csr,
    /// Position-independent diagonal: `1e-6` + clique edges + fixed
    /// springs, accumulated at build time in the retired per-solve order.
    base_diag: Vec<f64>,
    /// Position-independent right-hand sides (fixed-spring pulls),
    /// `[x, y]` per variable.
    base_b: Vec<[f64; 2]>,
    /// Star nets flattened: pins of net `k` are
    /// `star_pins[star_off[k]..star_off[k+1]]`.
    star_off: Vec<u32>,
    star_pins: Vec<PinRef>,
    /// Pre-resolved variable per star pin ([`FIXED_PIN`] when the pin is
    /// on a fixed instance or a port — movability is static, only the
    /// centroid needs live positions).
    star_var: Vec<u32>,
    /// Per-net star weight.
    star_w: Vec<f64>,
    scratch: SolveScratch,
    /// Solves since build — drives the scratch-reuse gauge.
    solves: u64,
}

impl QuadraticSystem {
    /// Builds the system from the netlist topology. Clock nets are
    /// excluded (they are routed as balanced trees, not optimized for
    /// wirelength).
    pub fn build(netlist: &Netlist, _outline: Rect) -> Self {
        let n = netlist.num_insts();
        let mut var_of = vec![None; n];
        let mut movable = Vec::new();
        for (id, inst) in netlist.insts() {
            if !inst.fixed {
                var_of[id.index()] = Some(movable.len() as u32);
                movable.push(id);
            }
        }
        let mut edges = Vec::new();
        let mut fixed_springs = Vec::new();
        let mut star_off = vec![0u32];
        let mut star_pins = Vec::new();
        let mut star_var = Vec::new();
        let mut star_w = Vec::new();
        for (_, net) in netlist.nets() {
            if net.is_clock {
                continue;
            }
            let pins: Vec<PinRef> = net.pins().collect();
            if pins.len() < 2 {
                continue;
            }
            if pins.len() <= CLIQUE_LIMIT {
                let w = 1.0 / (pins.len() as f64 - 1.0);
                for i in 0..pins.len() {
                    for j in (i + 1)..pins.len() {
                        match (
                            pin_var(netlist, &var_of, pins[i]),
                            pin_var(netlist, &var_of, pins[j]),
                        ) {
                            (Var::Movable(a), Var::Movable(b)) => {
                                if a != b {
                                    edges.push((a, b, w));
                                }
                            }
                            (Var::Movable(a), Var::Fixed(p)) | (Var::Fixed(p), Var::Movable(a)) => {
                                fixed_springs.push((a, p, w));
                            }
                            (Var::Fixed(_), Var::Fixed(_)) => {}
                        }
                    }
                }
            } else {
                star_w.push(2.0 / pins.len() as f64);
                for &p in &pins {
                    star_var.push(match pin_var(netlist, &var_of, p) {
                        Var::Movable(a) => a,
                        Var::Fixed(_) => FIXED_PIN,
                    });
                }
                star_pins.extend(pins);
                star_off.push(star_pins.len() as u32);
            }
        }
        let nv = movable.len();
        let nbr = Csr::from_edges(nv, &edges);
        // Base diagonal and right-hand sides, accumulated in the order the
        // retired per-solve loops used (init, edges, fixed springs) so a
        // solve that copies these bases is bit-identical to one that
        // rebuilds them.
        let mut base_diag = vec![1e-6; nv];
        for &(a, b, w) in &edges {
            base_diag[a as usize] += w;
            base_diag[b as usize] += w;
        }
        for &(a, _, w) in &fixed_springs {
            base_diag[a as usize] += w;
        }
        let mut base_b = vec![[0.0; 2]; nv];
        for &(a, p, w) in &fixed_springs {
            base_b[a as usize][0] += w * p.x;
            base_b[a as usize][1] += w * p.y;
        }
        Self {
            movable,
            nbr,
            base_diag,
            base_b,
            star_off,
            star_pins,
            star_var,
            star_w,
            scratch: SolveScratch::default(),
            solves: 0,
        }
    }

    /// Number of movable instances in the system.
    pub fn num_movable(&self) -> usize {
        self.movable.len()
    }

    /// Solves the x and y systems with anchors of weight `anchor_w` at the
    /// instances' current positions, then writes the solution back into
    /// the netlist (clamped to `outline`).
    pub fn solve(&mut self, netlist: &mut Netlist, outline: Rect, cg_iters: usize, anchor_w: f64) {
        let n = self.movable.len();
        if n == 0 {
            return;
        }
        // Split borrows: scratch is mutated while the static system parts
        // are read.
        let Self {
            movable,
            nbr,
            base_diag,
            base_b,
            star_off,
            star_pins,
            star_var,
            star_w,
            scratch,
            solves,
        } = self;
        // Copy the precomputed bases (clique + fixed-spring terms).
        scratch.diag.clear();
        scratch.diag.extend_from_slice(base_diag);
        scratch.b.clear();
        scratch.b.extend_from_slice(base_b);
        let diag = &mut scratch.diag;
        let b = &mut scratch.b;
        // Star springs at the current net centroids.
        for k in 0..star_w.len() {
            let lo = star_off[k] as usize;
            let hi = star_off[k + 1] as usize;
            let w = star_w[k];
            let mut c = Point::ORIGIN;
            for &p in &star_pins[lo..hi] {
                c += netlist.pin_pos(p);
            }
            let c = c * (1.0 / (hi - lo) as f64);
            for &a in &star_var[lo..hi] {
                if a != FIXED_PIN {
                    diag[a as usize] += w;
                    b[a as usize][0] += w * c.x;
                    b[a as usize][1] += w * c.y;
                }
            }
        }
        // Spreading anchors at the current (post-equalization) positions,
        // which are also the initial guess.
        scratch.v.clear();
        scratch.v.extend(movable.iter().map(|&id| {
            let p = netlist.inst(id).pos;
            [p.x, p.y]
        }));
        for (i, p) in scratch.v.iter().enumerate() {
            diag[i] += anchor_w;
            b[i][0] += anchor_w * p[0];
            b[i][1] += anchor_w * p[1];
        }
        cg(nbr, diag, b, &mut scratch.v, cg_iters, &mut scratch.cg);
        for (&id, &[x, y]) in movable.iter().zip(&scratch.v) {
            let p = Point::new(x, y).clamped(outline);
            if p.is_finite() {
                netlist.inst_mut(id).pos = p;
            }
        }
        *solves += 1;
        if foldic_obs::metrics::is_enabled() {
            // High-water count of solves that reused this system's scratch
            // (max-merge: deterministic across pool threads).
            foldic_obs::metrics::set_gauge_max("place.solve.scratch_reuse", (*solves - 1) as f64);
        }
    }
}

/// Jacobi-preconditioned conjugate gradient for `A v = b` where
/// `A = diag − offdiag(nbr)` (a weighted Laplacian plus anchors), on the
/// x and y axes at once. `v` holds the initial guess and receives the
/// solution; `work` is resized here.
///
/// Each axis runs exactly the arithmetic of a single-axis CG in the same
/// order (every dot product sums in i-order from `-0.0`) and keeps its
/// own stop tests; once an axis stops, only its unread `Ap` is written
/// again. So each axis's result is bit-identical to solving it alone.
fn cg(
    nbr: &Csr,
    diag: &[f64],
    b: &[[f64; 2]],
    v: &mut [[f64; 2]],
    iters: usize,
    work: &mut CgWork,
) {
    let n = v.len();
    let CgWork { r, z, dir, ap } = work;
    r.clear();
    r.resize(n, [0.0; 2]);
    nbr.mat_vec(diag, v, r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = [bi[0] - ri[0], bi[1] - ri[1]];
    }
    z.clear();
    z.extend(r.iter().zip(diag).map(|(ri, &d)| [ri[0] / d, ri[1] / d]));
    dir.clear();
    dir.extend_from_slice(z);
    let mut rz = [-0.0; 2];
    for (ri, zi) in r.iter().zip(z.iter()) {
        for a in 0..2 {
            rz[a] += ri[a] * zi[a];
        }
    }
    ap.clear();
    ap.resize(n, [0.0; 2]);
    let mut live = [true; 2];
    for _ in 0..iters {
        for a in 0..2 {
            if rz[a].abs() < 1e-12 {
                live[a] = false;
            }
        }
        if live == [false; 2] {
            break;
        }
        let pap = nbr.mat_vec(diag, dir, ap);
        for a in 0..2 {
            if pap[a].abs() < 1e-18 {
                live[a] = false;
            }
        }
        let rz_new = match live {
            [true, true] => cg_step::<true, true>(rz, pap, diag, v, r, z, dir, ap),
            [true, false] => cg_step::<true, false>(rz, pap, diag, v, r, z, dir, ap),
            [false, true] => cg_step::<false, true>(rz, pap, diag, v, r, z, dir, ap),
            [false, false] => break,
        };
        for a in 0..2 {
            if live[a] {
                rz[a] = rz_new[a];
            }
        }
    }
}

/// One CG iteration's vector updates on the live axes (`X`, `Y`), given
/// `rz = r·z` and `pap = dir·Ap`: `v += α·dir`, `r -= α·Ap`, `z = r/diag`
/// and the new `r·z` in one pass, then `dir = z + β·dir` in a second.
/// The axes are compile-time flags so the common both-live case runs
/// without per-element branches.
#[allow(clippy::too_many_arguments)]
fn cg_step<const X: bool, const Y: bool>(
    rz: [f64; 2],
    pap: [f64; 2],
    diag: &[f64],
    v: &mut [[f64; 2]],
    r: &mut [[f64; 2]],
    z: &mut [[f64; 2]],
    dir: &mut [[f64; 2]],
    ap: &[[f64; 2]],
) -> [f64; 2] {
    let live = [X, Y];
    let alpha = [rz[0] / pap[0], rz[1] / pap[1]];
    let mut rz_new = [-0.0; 2];
    for ((((vi, ri), zi), (di, api)), &d) in v
        .iter_mut()
        .zip(r.iter_mut())
        .zip(z.iter_mut())
        .zip(dir.iter().zip(ap))
        .zip(diag)
    {
        for a in 0..2 {
            if live[a] {
                vi[a] += alpha[a] * di[a];
                ri[a] -= alpha[a] * api[a];
                zi[a] = ri[a] / d;
                rz_new[a] += ri[a] * zi[a];
            }
        }
    }
    let beta = [rz_new[0] / rz[0], rz_new[1] / rz[1]];
    for (di, zi) in dir.iter_mut().zip(z.iter()) {
        for a in 0..2 {
            if live[a] {
                di[a] = zi[a] + beta[a] * di[a];
            }
        }
    }
    rz_new
}

enum Var {
    Movable(u32),
    Fixed(Point),
}

fn pin_var(netlist: &Netlist, var_of: &[Option<u32>], pin: PinRef) -> Var {
    match pin {
        PinRef::InstOut(i) | PinRef::InstIn(i, _) => match var_of[i.index()] {
            Some(v) => Var::Movable(v),
            None => Var::Fixed(netlist.inst(i).pos),
        },
        PinRef::Port(p) => Var::Fixed(netlist.port(p).pos),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_netlist::{InstMaster, PortDir};
    use foldic_tech::{CellKind, CellLibrary, Drive, VthClass};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A chain of movable cells between two fixed ports must spread evenly
    /// along the line between the ports (the classic quadratic solution).
    #[test]
    fn chain_solution_is_linear_interpolation() {
        let lib = CellLibrary::cmos28();
        let master = InstMaster::Cell(lib.id_of(CellKind::Buf, Drive::X1, VthClass::Rvt));
        let mut nl = Netlist::new("chain");
        let left = nl.add_port("in", PortDir::Input, foldic_netlist::ClockDomain::Cpu);
        let right = nl.add_port("out", PortDir::Output, foldic_netlist::ClockDomain::Cpu);
        nl.port_mut(left).pos = Point::new(0.0, 50.0);
        nl.port_mut(right).pos = Point::new(100.0, 50.0);
        let k = 4;
        let cells: Vec<InstId> = (0..k)
            .map(|i| nl.add_inst(format!("c{i}"), master))
            .collect();
        let mut prev = PinRef::port(left);
        for (i, &c) in cells.iter().enumerate() {
            let net = nl.add_net(format!("n{i}"));
            nl.connect_driver(net, prev);
            nl.connect_sink(net, PinRef::input(c, 0));
            prev = PinRef::output(c);
        }
        let last = nl.add_net("nlast");
        nl.connect_driver(last, prev);
        nl.connect_sink(last, PinRef::port(right));

        let outline = Rect::new(0.0, 0.0, 100.0, 100.0);
        let mut sys = QuadraticSystem::build(&nl, outline);
        assert_eq!(sys.num_movable(), k);
        // several solves with negligible anchors converge to the line
        for _ in 0..3 {
            sys.solve(&mut nl, outline, 200, 1e-9);
        }
        for (i, &c) in cells.iter().enumerate() {
            let expect = 100.0 * (i + 1) as f64 / (k + 1) as f64;
            let got = nl.inst(c).pos;
            assert!(
                (got.x - expect).abs() < 1.0,
                "cell {i} at {} expected x={expect}",
                got
            );
            assert!((got.y - 50.0).abs() < 1.0);
        }
    }

    #[test]
    fn anchors_hold_disconnected_cells() {
        let lib = CellLibrary::cmos28();
        let master = InstMaster::Cell(lib.id_of(CellKind::Inv, Drive::X1, VthClass::Rvt));
        let mut nl = Netlist::new("loose");
        let a = nl.add_inst("a", master);
        nl.inst_mut(a).pos = Point::new(30.0, 70.0);
        let outline = Rect::new(0.0, 0.0, 100.0, 100.0);
        let mut sys = QuadraticSystem::build(&nl, outline);
        sys.solve(&mut nl, outline, 50, 0.5);
        let p = nl.inst(a).pos;
        assert!((p.x - 30.0).abs() < 1e-3 && (p.y - 70.0).abs() < 1e-3);
    }

    /// A solve on warm scratch (second and later solves of one system)
    /// must be bitwise identical to the same solve on a freshly built
    /// system — the scratch-reuse path cannot leak state.
    #[test]
    fn scratch_reuse_matches_fresh_build_bitwise() {
        let lib = CellLibrary::cmos28();
        let master = InstMaster::Cell(lib.id_of(CellKind::Buf, Drive::X2, VthClass::Rvt));
        let mut nl = Netlist::new("star");
        let anchor = nl.add_port("in", PortDir::Input, foldic_netlist::ClockDomain::Cpu);
        nl.port_mut(anchor).pos = Point::new(10.0, 10.0);
        // a wide net (star) plus a small clique net
        let cells: Vec<InstId> = (0..12)
            .map(|i| {
                let c = nl.add_inst(format!("s{i}"), master);
                nl.inst_mut(c).pos = Point::new(5.0 * i as f64, 3.0 * (i % 5) as f64);
                c
            })
            .collect();
        let wide = nl.add_net("wide");
        nl.connect_driver(wide, PinRef::port(anchor));
        for &c in &cells {
            nl.connect_sink(wide, PinRef::input(c, 0));
        }
        let pair = nl.add_net("pair");
        nl.connect_driver(pair, PinRef::output(cells[0]));
        nl.connect_sink(pair, PinRef::input(cells[7], 1));

        let outline = Rect::new(0.0, 0.0, 80.0, 80.0);
        // warm path: one system solved three times
        let mut warm_nl = nl.clone();
        let mut warm = QuadraticSystem::build(&warm_nl, outline);
        for i in 0..3 {
            warm.solve(&mut warm_nl, outline, 40, 0.1 * (i + 1) as f64);
        }
        // fresh path: rebuild the system before every solve (scratch is
        // always cold), driving the netlist through the same states
        let mut fresh_nl = nl.clone();
        for i in 0..3 {
            let mut fresh = QuadraticSystem::build(&fresh_nl, outline);
            fresh.solve(&mut fresh_nl, outline, 40, 0.1 * (i + 1) as f64);
        }
        for &c in &cells {
            let w = warm_nl.inst(c).pos;
            let f = fresh_nl.inst(c).pos;
            assert_eq!(
                (w.x.to_bits(), w.y.to_bits()),
                (f.x.to_bits(), f.y.to_bits()),
                "scratch reuse drifted for {}",
                warm_nl.name_of(warm_nl.inst(c).name)
            );
        }
    }

    // ---- fused two-axis CG vs the per-axis oracle ----------------------------

    /// The single-axis solver the fused [`cg`] replaced, kept as its
    /// oracle: one axis per call, dot products through `f64: Sum`.
    /// Returns the number of iterations that updated `v`.
    #[allow(clippy::too_many_arguments)]
    fn cg_per_axis(
        nbr: &Csr,
        diag: &[f64],
        b: &[f64],
        v: &mut [f64],
        iters: usize,
        r: &mut Vec<f64>,
        z: &mut Vec<f64>,
        dir: &mut Vec<f64>,
        ap: &mut Vec<f64>,
    ) -> usize {
        let n = v.len();
        let mat_vec = |v: &[f64], out: &mut [f64]| {
            for i in 0..n {
                let mut s = diag[i] * v[i];
                let (lo, hi) = (nbr.off[i] as usize, nbr.off[i + 1] as usize);
                for (&j, &w) in nbr.col[lo..hi].iter().zip(&nbr.w[lo..hi]) {
                    s -= w * v[j as usize];
                }
                out[i] = s;
            }
        };
        r.clear();
        r.resize(n, 0.0);
        mat_vec(v, r);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        z.clear();
        z.extend(r.iter().zip(diag).map(|(ri, di)| ri / di));
        dir.clear();
        dir.extend_from_slice(z);
        let mut rz: f64 = r.iter().zip(z.iter()).map(|(a, b)| a * b).sum();
        ap.clear();
        ap.resize(n, 0.0);
        let mut done = 0;
        for _ in 0..iters {
            if rz.abs() < 1e-12 {
                break;
            }
            mat_vec(dir, ap);
            let pap: f64 = dir.iter().zip(ap.iter()).map(|(a, b)| a * b).sum();
            if pap.abs() < 1e-18 {
                break;
            }
            let alpha = rz / pap;
            for i in 0..n {
                v[i] += alpha * dir[i];
                r[i] -= alpha * ap[i];
            }
            for i in 0..n {
                z[i] = r[i] / diag[i];
            }
            let rz_new: f64 = r.iter().zip(z.iter()).map(|(a, b)| a * b).sum();
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                dir[i] = z[i] + beta * dir[i];
            }
            done += 1;
        }
        done
    }

    fn fuzz_seed() -> u64 {
        std::env::var("FOLDIC_FUZZ_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xDAC1_4F00D)
    }

    /// 2k seeded random Laplacian + anchor systems: the fused solve must
    /// equal two per-axis oracle solves bit for bit. Covers `n = 1`, an
    /// axis that starts at its solution (`rz = 0`) and so stops before the
    /// other, axes that converge after different iteration counts,
    /// `cg_iters = 0`, and weak or absent anchors.
    #[test]
    fn fused_cg_matches_per_axis_oracle_bitwise() {
        const CASES: usize = 2_000;
        let mut rng = StdRng::seed_from_u64(fuzz_seed() ^ 0xc6);
        let (mut singles, mut at_solution, mut zero_iters, mut uneven) = (0, 0, 0, 0);
        let mut work = CgWork::default();
        let (mut r, mut z, mut dir, mut ap) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for case in 0..CASES {
            let n = if case % 10 == 0 {
                1
            } else {
                rng.gen_range(2..40usize)
            };
            let edges: Vec<(u32, u32, f64)> = (0..rng.gen_range(0..3 * n))
                .filter_map(|_| {
                    let a = rng.gen_range(0..n) as u32;
                    let b = rng.gen_range(0..n) as u32;
                    let w = 1.0 / rng.gen_range(1..8u32) as f64;
                    (a != b).then_some((a, b, w))
                })
                .collect();
            let nbr = Csr::from_edges(n, &edges);
            let anchor_w = match rng.gen_range(0..4u32) {
                0 => 0.0,
                1 => 1e-9,
                _ => rng.gen_range(0.01..2.0),
            };
            let mut diag = vec![1e-6 + anchor_w; n];
            for &(a, b, w) in &edges {
                diag[a as usize] += w;
                diag[b as usize] += w;
            }
            let mut b: Vec<[f64; 2]> = (0..n)
                .map(|_| {
                    let spring = if rng.gen_bool(0.3) {
                        rng.gen_range(0.1..1.0)
                    } else {
                        0.0
                    };
                    [
                        spring * rng.gen_range(-50.0..150.0),
                        spring * rng.gen_range(-50.0..150.0),
                    ]
                })
                .collect();
            for (i, bi) in b.iter_mut().enumerate() {
                if bi[0] != 0.0 || bi[1] != 0.0 {
                    diag[i] += 0.5;
                }
            }
            let mut v: Vec<[f64; 2]> = (0..n)
                .map(|_| [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)])
                .collect();
            for i in 0..n {
                for a in 0..2 {
                    b[i][a] += anchor_w * v[i][a];
                }
            }
            if case % 7 == 3 {
                // one axis starts at its solution: v = 0 and b = 0 give
                // r = 0 exactly, so rz = 0 before the first iteration
                let a = rng.gen_range(0..2usize);
                for i in 0..n {
                    v[i][a] = 0.0;
                    b[i][a] = 0.0;
                }
            }
            let iters = match rng.gen_range(0..6u32) {
                0 => 0,
                1 => 200,
                _ => rng.gen_range(1..60),
            };

            let mut want = [Vec::new(), Vec::new()];
            let mut done = [0; 2];
            for a in 0..2 {
                let ba: Vec<f64> = b.iter().map(|p| p[a]).collect();
                want[a] = v.iter().map(|p| p[a]).collect();
                done[a] = cg_per_axis(
                    &nbr,
                    &diag,
                    &ba,
                    &mut want[a],
                    iters,
                    &mut r,
                    &mut z,
                    &mut dir,
                    &mut ap,
                );
            }
            cg(&nbr, &diag, &b, &mut v, iters, &mut work);
            for a in 0..2 {
                let got: Vec<u64> = v.iter().map(|p| p[a].to_bits()).collect();
                let exp: Vec<u64> = want[a].iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, exp, "case {case}: axis {a}, n {n}, iters {iters}");
            }
            singles += usize::from(n == 1);
            at_solution += usize::from(iters > 0 && done.contains(&0) && done != [0, 0]);
            zero_iters += usize::from(iters == 0);
            uneven += usize::from(done[0] != done[1]);
        }
        assert!(singles >= 100, "only {singles} n = 1 systems");
        assert!(
            at_solution >= 100,
            "only {at_solution} systems with one axis stopped at once"
        );
        assert!(zero_iters >= 100, "only {zero_iters} cg_iters = 0 cases");
        assert!(uneven >= 200, "only {uneven} systems with uneven axes");
    }
}
