//! Analytic global placement: a bound-to-bound (B2B) quadratic net
//! model solved per axis with Jacobi-preconditioned conjugate
//! gradient, then legalized Tetris-style onto the row/slot grid.
//!
//! # Net model
//!
//! Each net with `p ≥ 2` pins contributes, per axis, edges from its
//! two boundary pins (the min- and max-coordinate pins at the current
//! positions) to every other pin, weighted `2 / ((p-1) · max(|xi-xj|,
//! ε))`. Summing a B2B edge's quadratic cost `w·(xi-xj)²` over a net
//! reproduces that net's HPWL exactly at the linearization point, so
//! minimizing the quadratic form minimizes a faithful local model of
//! the annealer's true objective. The model is linearized once, at the
//! ordered layout: one anchor-free solve recovers the connectivity
//! ordering, which is all the seed needs.
//!
//! Fixed pins — macro centers and the floorplan's primary-I/O pads —
//! enter the model as constants: their edge weights fold into the
//! diagonal and right-hand side, anchoring the system. A weak pull
//! (`CENTER_ANCHOR`) toward the die center keeps the matrix
//! positive-definite even for components with no fixed pin.
//!
//! # Determinism
//!
//! The solver is strictly serial — on the single-core bench box there
//! is nothing to win by threading a solve this small, and serial
//! summation makes the result trivially byte-identical for any
//! `LIM_PAR_THREADS` value. Iteration counts are fixed; the only early
//! exit is a relative-residual test on deterministically-summed
//! scalars, so it fires identically on every run.
//!
//! # Legalization
//!
//! Tetris-style: cells sort by solved x (ordinal-tie-broken), then each
//! takes the cheapest per-row append slot (rows keep a cursor; a cell
//! placed in a row consumes the row's next free slot, so no slot is
//! wasted and the result is a valid injection whenever the grid has
//! enough slots — exactly the precondition `Problem::build` already
//! enforced).

use crate::place::{Ctx, PinRef};

/// Conjugate-gradient iteration cap per axis. The seed only needs rank
/// order — legalization quantizes positions to slots — so
/// late-iteration precision is wasted: sweeping the cap on the
/// flow-bench netlists, legalized HPWL is flat from 15 to 40 and only
/// starts degrading below ~12, while each iteration costs ~5 vector
/// passes.
pub const CG_MAX_ITERS: usize = 15;

/// Relative-residual early exit for CG (`‖r‖ ≤ TOL·‖b‖`).
const CG_TOL: f64 = 1e-4;

/// Minimum pin separation (µm) in B2B weights, so coincident pins
/// don't produce unbounded edge weights.
const B2B_EPS: f64 = 0.5;

/// Weak pull toward the die center keeping the system positive-
/// definite for anchor-free connected components.
const CENTER_ANCHOR: f64 = 1e-6;

/// Weight of the x term in the legalizer's row-choice cost (the y term
/// has weight 1). Deliberately y-dominant: the x coordinate inside a
/// row is dictated by the append cursor, not the choice being scored,
/// so a full-weight x term pathologically attracts every cell to the
/// fullest row's frontier.
const LEGALIZE_X_WEIGHT: f64 = 0.05;

/// The legalized analytic seed handed to the annealer.
pub(crate) struct AnalyticSeed {
    /// Valid slot assignment per placeable-cell ordinal.
    pub(crate) slot_of: Vec<usize>,
    /// CG iterations spent (both axes).
    pub(crate) cg_iters: usize,
    /// Total µm the legalizer displaced cells from their solved
    /// positions (0.0 when the ordered baseline won).
    pub(crate) displacement: f64,
}

/// Total HPWL of an assignment, summed in net order.
fn assignment_hpwl(ctx: &Ctx<'_>, slot_of: &[usize]) -> f64 {
    let mut total = 0.0;
    for net in 0..ctx.net_count() {
        let (s, e) = (ctx.net_off[net] as usize, ctx.net_off[net + 1] as usize);
        if e - s < 2 {
            continue;
        }
        let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
        for &pin in &ctx.net_pins[s..e] {
            let (x, y) = ctx.pin_position(pin, slot_of);
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        total += (x1 - x0) + (y1 - y0);
    }
    total
}

/// Solves the B2B model once, spreads and legalizes the solution, and
/// returns it unless the ordered assignment (the linearization start)
/// has strictly lower HPWL, so the seed never loses to the ordered
/// start. Requires `ctx.n_placeable ≥ 2`.
pub(crate) fn seed_assignment(ctx: &Ctx<'_>) -> AnalyticSeed {
    let n = ctx.n_placeable;
    let ordered: Vec<usize> = (0..n).collect();
    let ordered_hpwl = assignment_hpwl(ctx, &ordered);
    let mut x: Vec<f64> = (0..n).map(|i| ctx.slots[i].0).collect();
    let mut y: Vec<f64> = (0..n).map(|i| ctx.slots[i].1).collect();
    let cg_iters = solve(ctx, &mut x, &mut y);
    let (sx, sy) = spread_targets(ctx, &x, &y);
    let (slot_of, displacement) = legalize(ctx, &sx, &sy);
    let (slot_of, displacement) = if assignment_hpwl(ctx, &slot_of) < ordered_hpwl {
        (slot_of, displacement)
    } else {
        (ordered, 0.0)
    };
    AnalyticSeed {
        slot_of,
        cg_iters,
        displacement,
    }
}

/// Rank-quantile spreading: a pure quadratic solve collapses cells into
/// a clump (the model is happiest with everything coincident near its
/// anchors), which destroys the scale legalization needs. Per axis,
/// cells keep their solved rank but take evenly spaced quantiles of the
/// slot-coordinate distribution: relative order carries the
/// connectivity information, the quantile map restores the scale.
fn spread_targets(ctx: &Ctx<'_>, x: &[f64], y: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = x.len();
    let n_slots = ctx.slots.len();
    let mut sorted_sx: Vec<f64> = ctx.slots.iter().map(|s| s.0).collect();
    sorted_sx.sort_unstable_by(f64::total_cmp);
    let mut sorted_sy: Vec<f64> = ctx.slots.iter().map(|s| s.1).collect();
    sorted_sy.sort_unstable_by(f64::total_cmp);
    let mut order: Vec<usize> = (0..n).collect();
    let mut tx = vec![0.0; n];
    let mut ty = vec![0.0; n];
    order.sort_unstable_by(|&a, &b| x[a].total_cmp(&x[b]).then(a.cmp(&b)));
    for (k, &ord) in order.iter().enumerate() {
        tx[ord] = sorted_sx[k * n_slots / n];
    }
    order.sort_unstable_by(|&a, &b| y[a].total_cmp(&y[b]).then(a.cmp(&b)));
    for (k, &ord) in order.iter().enumerate() {
        ty[ord] = sorted_sy[k * n_slots / n];
    }
    (tx, ty)
}

/// One axis's linear system: `(D - W) x = b`, stored as a dense
/// diagonal plus a movable-movable edge list.
struct AxisSystem {
    diag: Vec<f64>,
    rhs: Vec<f64>,
    /// Movable-movable edges `(i, j, w)`, `i != j`.
    edges: Vec<(u32, u32, f64)>,
}

impl AxisSystem {
    /// A system holding only the weak pull toward `center`.
    fn new(n: usize, center: f64) -> Self {
        AxisSystem {
            diag: vec![CENTER_ANCHOR; n],
            rhs: vec![CENTER_ANCHOR * center; n],
            edges: Vec::new(),
        }
    }

    /// Adds one B2B edge between two pins: movable-movable edges go to
    /// the edge list, movable-fixed edges fold into diag/rhs, and
    /// fixed-fixed (or self-) edges are constants with no gradient.
    #[inline]
    fn add_edge(&mut self, a: Var, b: Var, w: f64) {
        match (a, b) {
            (Var::Movable(i), Var::Movable(j)) => {
                if i != j {
                    self.diag[i as usize] += w;
                    self.diag[j as usize] += w;
                    self.edges.push((i, j, w));
                }
            }
            (Var::Movable(i), Var::Fixed(f)) | (Var::Fixed(f), Var::Movable(i)) => {
                self.diag[i as usize] += w;
                self.rhs[i as usize] += w * f;
            }
            (Var::Fixed(_), Var::Fixed(_)) => {}
        }
    }

    /// `y = A x` with `A = diag(d) - W` (serial, fixed order).
    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        for (yi, (&d, &xi)) in y.iter_mut().zip(self.diag.iter().zip(x.iter())) {
            *yi = d * xi;
        }
        for &(i, j, w) in &self.edges {
            y[i as usize] -= w * x[j as usize];
            y[j as usize] -= w * x[i as usize];
        }
    }
}

/// One pin of a net as the solver sees it: a movable variable or a
/// fixed coordinate.
#[derive(Clone, Copy)]
enum Var {
    Movable(u32),
    Fixed(f64),
}

/// Jacobi-preconditioned CG on `sys`, warm-starting from `x`. Returns
/// the iterations spent. Strictly serial.
fn pcg(sys: &AxisSystem, x: &mut [f64], scratch: &mut PcgScratch) -> usize {
    let n = x.len();
    let PcgScratch { r, p, ap } = scratch;
    sys.matvec(x, r);
    let mut bnorm2 = 0.0;
    for (ri, &bi) in r.iter_mut().zip(sys.rhs.iter()) {
        *ri = bi - *ri;
        bnorm2 += bi * bi;
    }
    let tol2 = CG_TOL * CG_TOL * bnorm2.max(f64::MIN_POSITIVE);
    // The residual norms (`rr` for the exit test, `rz` for beta) are
    // accumulated inside the vector-update loops rather than in
    // dedicated passes: in-order accumulation of the same terms, so
    // bit-identical results at two fewer length-n sweeps per iteration
    // — which matters, because with ~2k variables and only ~2k edges
    // the solve is pass-bound, not matvec-bound.
    let mut rz = 0.0;
    let mut rr = 0.0;
    for i in 0..n {
        let zi = r[i] / sys.diag[i];
        p[i] = zi;
        rz += r[i] * zi;
        rr += r[i] * r[i];
    }
    let mut iters = 0;
    for _ in 0..CG_MAX_ITERS {
        if rr <= tol2 {
            break;
        }
        iters += 1;
        sys.matvec(p, ap);
        let pap: f64 = p.iter().zip(ap.iter()).map(|(&a, &b)| a * b).sum();
        if pap <= 0.0 {
            break;
        }
        let alpha = rz / pap;
        let mut rz_new = 0.0;
        let mut rr_new = 0.0;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
            let zi = r[i] / sys.diag[i];
            rz_new += r[i] * zi;
            rr_new += r[i] * r[i];
        }
        let beta = rz_new / rz;
        rz = rz_new;
        rr = rr_new;
        for i in 0..n {
            let zi = r[i] / sys.diag[i];
            p[i] = zi + beta * p[i];
        }
    }
    iters
}

/// CG work vectors, shared by both axes' solves.
struct PcgScratch {
    r: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl PcgScratch {
    fn new(n: usize) -> Self {
        PcgScratch {
            r: vec![0.0; n],
            p: vec![0.0; n],
            ap: vec![0.0; n],
        }
    }
}

/// Builds both axes' B2B systems linearized at `(x, y)` and solves each
/// with PCG warm-started there. Returns the CG iterations spent.
fn solve(ctx: &Ctx<'_>, x: &mut [f64], y: &mut [f64]) -> usize {
    let n = ctx.n_placeable;
    let mut sys_x = AxisSystem::new(n, ctx.die.0 / 2.0);
    let mut sys_y = AxisSystem::new(n, ctx.die.1 / 2.0);
    // Per-net pin scratch: (axis coordinate, variable) pairs.
    let mut pins_x: Vec<(f64, Var)> = Vec::new();
    let mut pins_y: Vec<(f64, Var)> = Vec::new();
    for net in 0..ctx.net_count() {
        let (s, e) = (ctx.net_off[net] as usize, ctx.net_off[net + 1] as usize);
        if e - s < 2 {
            continue;
        }
        pins_x.clear();
        pins_y.clear();
        for &pin in &ctx.net_pins[s..e] {
            match pin {
                PinRef::Cell(ord) => {
                    pins_x.push((x[ord], Var::Movable(ord as u32)));
                    pins_y.push((y[ord], Var::Movable(ord as u32)));
                }
                _ => {
                    let (px, py) = ctx.pin_position(pin, &[]);
                    pins_x.push((px, Var::Fixed(px)));
                    pins_y.push((py, Var::Fixed(py)));
                }
            }
        }
        b2b_net(&pins_x, &mut sys_x);
        b2b_net(&pins_y, &mut sys_y);
    }
    let mut scratch = PcgScratch::new(n);
    pcg(&sys_x, x, &mut scratch) + pcg(&sys_y, y, &mut scratch)
}

/// Adds one net's B2B edges for one axis: boundary pins (first min,
/// first max in scan order — deterministic tie-break) connect to every
/// other pin; the boundary-boundary edge is added once.
fn b2b_net(pins: &[(f64, Var)], sys: &mut AxisSystem) {
    let p = pins.len();
    let mut bmin = 0usize;
    let mut bmax = 0usize;
    for (k, &(c, _)) in pins.iter().enumerate().skip(1) {
        if c < pins[bmin].0 {
            bmin = k;
        }
        if c > pins[bmax].0 {
            bmax = k;
        }
    }
    if bmin == bmax {
        // All pins coincide on this axis; still connect through two
        // distinct boundary indices so the net stays one component.
        bmax = if bmin == 0 { 1 } else { 0 };
    }
    let scale = 2.0 / (p - 1) as f64;
    for (k, &(c, v)) in pins.iter().enumerate() {
        if k != bmin {
            let w = scale / (pins[bmin].0 - c).abs().max(B2B_EPS);
            sys.add_edge(pins[bmin].1, v, w);
        }
        if k != bmax && k != bmin {
            let w = scale / (pins[bmax].0 - c).abs().max(B2B_EPS);
            sys.add_edge(pins[bmax].1, v, w);
        }
    }
}

/// Tetris legalization: cells in ascending solved-x order each take
/// the cheapest per-row append slot. Returns the assignment and the
/// total displacement from the solved positions.
///
/// The row choice is an argmin of `0.05·|Δx| + |Δy|` over non-full
/// rows (ties broken toward the lower row index). Because the cost is
/// bounded below by the y distance alone, the scan walks rows outward
/// from the cell's solved y (over a y-sorted row order) and stops as
/// soon as that lower bound exceeds the best cost seen — identical
/// result to the full scan, but O(rows visited) is a small constant
/// for typical spread solutions instead of the whole row set.
pub(crate) fn legalize(ctx: &Ctx<'_>, x: &[f64], y: &[f64]) -> (Vec<usize>, f64) {
    let n_rows = ctx.row_off.len() - 1;
    let mut cursor: Vec<u32> = ctx.row_off[..n_rows].to_vec();
    // Every slot in a row shares the row's y; sort row indices by it.
    let row_y: Vec<f64> = (0..n_rows)
        .map(|r| ctx.slots[ctx.row_off[r] as usize].1)
        .collect();
    let mut by_y: Vec<usize> = (0..n_rows).collect();
    by_y.sort_unstable_by(|&a, &b| row_y[a].total_cmp(&row_y[b]).then(a.cmp(&b)));
    let mut order: Vec<usize> = (0..ctx.n_placeable).collect();
    order.sort_by(|&a, &b| x[a].total_cmp(&x[b]).then(a.cmp(&b)));
    let mut slot_of = vec![usize::MAX; ctx.n_placeable];
    let mut displacement = 0.0;
    for &ord in &order {
        let (cx, cy) = (x[ord], y[ord]);
        // Two-pointer outward walk from the first row at or above cy.
        let start = by_y.partition_point(|&r| row_y[r] < cy);
        let mut lo = start;
        let mut hi = start;
        // Winner by (cost, row index): the lexicographic min matches
        // the index-order scan's first-strict-improvement rule.
        let mut best = (f64::MAX, usize::MAX);
        loop {
            let dlo = if lo > 0 { cy - row_y[by_y[lo - 1]] } else { f64::MAX };
            let dhi = if hi < n_rows { row_y[by_y[hi]] - cy } else { f64::MAX };
            let (r, dy) = if dlo <= dhi {
                if lo == 0 {
                    break;
                }
                lo -= 1;
                (by_y[lo], dlo)
            } else {
                hi += 1;
                (by_y[hi - 1], dhi)
            };
            // cost ≥ |Δy| for every remaining candidate on both sides.
            if dy > best.0 {
                break;
            }
            let cur = cursor[r];
            if cur >= ctx.row_off[r + 1] {
                continue;
            }
            let (sx, sy) = ctx.slots[cur as usize];
            // Row choice is driven by y fit: every row's cursor sits at
            // roughly the same fill level, so the x term only breaks
            // ties (at full weight it would attract cells to whichever
            // row happens to be fullest).
            let cost = LEGALIZE_X_WEIGHT * (sx - cx).abs() + (sy - cy).abs();
            if (cost, r) < best {
                best = (cost, r);
            }
        }
        let best_row = best.1;
        debug_assert!(best_row != usize::MAX, "legalizer ran out of slots");
        let (sx, sy) = ctx.slots[cursor[best_row] as usize];
        slot_of[ord] = cursor[best_row] as usize;
        cursor[best_row] += 1;
        displacement += (sx - cx).abs() + (sy - cy).abs();
    }
    (slot_of, displacement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{Floorplan, FloorplanOptions};
    use crate::place::Problem;
    use lim_brick::BrickLibrary;
    use lim_rtl::generators::decoder;
    use lim_tech::Technology;

    /// Asserts `slot_of` gives every placeable cell a distinct in-range
    /// slot.
    fn assert_injection(ctx: &Ctx<'_>, slot_of: &[usize]) {
        assert_eq!(slot_of.len(), ctx.n_placeable);
        let mut seen = vec![false; ctx.slots.len()];
        for (ord, &s) in slot_of.iter().enumerate() {
            assert!(s < ctx.slots.len(), "ordinal {ord} got out-of-range slot");
            assert!(!seen[s], "slot {s} assigned twice");
            seen[s] = true;
        }
    }

    #[test]
    fn analytic_placement_is_valid_and_beats_ordered() {
        // Generated decoders are ordered near-optimally by
        // construction, so the solve legitimately falls back to the
        // ordered baseline there (asserted as ≤). The strict win is
        // asserted on a netlist built in scrambled order, where cell
        // indices carry no placement information and only the
        // connectivity-driven solve can recover locality.
        let tech = Technology::cmos65();
        let dec = decoder("dec", 5, 32, true).unwrap();
        let fp = Floorplan::build(&tech, &dec, &BrickLibrary::new(), &FloorplanOptions::default())
            .unwrap();
        let problem = Problem::build(&tech, &dec, &fp, 0.0).unwrap();
        let ctx = problem.ctx();
        let seed = seed_assignment(&ctx);
        assert!(seed.cg_iters > 0);
        assert_injection(&ctx, &seed.slot_of);
        let hpwl = assignment_hpwl(&ctx, &seed.slot_of);
        assert!(hpwl > 0.0);
        let ordered: Vec<usize> = (0..ctx.n_placeable).collect();
        assert!(hpwl <= assignment_hpwl(&ctx, &ordered));

        // Random fanout-rich netlist (fixed seed): every gate draws its
        // inputs uniformly from all earlier nets, so the construction
        // order says nothing about which cells belong together.
        let mut rng = lim_testkit::TestRng::seed_from_u64(17);
        let kinds = [
            lim_rtl::StdCellKind::Inv,
            lim_rtl::StdCellKind::Nand2,
            lim_rtl::StdCellKind::Nor2,
            lim_rtl::StdCellKind::Xor2,
        ];
        let mut n = lim_rtl::Netlist::new("scrambled");
        let mut nets: Vec<lim_rtl::NetId> =
            (0..4).map(|i| n.add_input(format!("in{i}"))).collect();
        for g in 0..96 {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let ins: Vec<lim_rtl::NetId> = (0..kind.input_count())
                .map(|_| nets[rng.gen_range(0..nets.len())])
                .collect();
            nets.push(n.add_gate(kind, 1.0, &ins, format!("g{g}")).unwrap());
        }
        for &o in nets.iter().rev().take(3) {
            n.mark_output(o);
        }
        let fp = Floorplan::build(&tech, &n, &BrickLibrary::new(), &FloorplanOptions::default())
            .unwrap();
        let problem = Problem::build(&tech, &n, &fp, 0.0).unwrap();
        let ctx = problem.ctx();
        let seed = seed_assignment(&ctx);
        assert_injection(&ctx, &seed.slot_of);
        let hpwl = assignment_hpwl(&ctx, &seed.slot_of);
        let ordered: Vec<usize> = (0..ctx.n_placeable).collect();
        let ordered_hpwl = assignment_hpwl(&ctx, &ordered);
        assert!(
            hpwl < ordered_hpwl,
            "analytic {hpwl} vs scrambled-ordered {ordered_hpwl}"
        );
        assert!(seed.displacement > 0.0);
    }

    #[test]
    fn analytic_placement_is_deterministic() {
        let tech = Technology::cmos65();
        let dec = decoder("dec", 4, 16, false).unwrap();
        let fp = Floorplan::build(&tech, &dec, &BrickLibrary::new(), &FloorplanOptions::default())
            .unwrap();
        let problem = Problem::build(&tech, &dec, &fp, 0.0).unwrap();
        let ctx = problem.ctx();
        let a = seed_assignment(&ctx);
        let b = seed_assignment(&ctx);
        assert_eq!(a.slot_of, b.slot_of);
        assert_eq!(a.cg_iters, b.cg_iters);
        assert_eq!(a.displacement.to_bits(), b.displacement.to_bits());
    }

    #[test]
    fn legalizer_emits_valid_slot_injection_on_random_designs() {
        // Property: for any netlist/floorplan and any (even adversarial)
        // solved coordinates, legalization assigns every placeable cell
        // a distinct in-range slot.
        let tech = Technology::cmos65();
        lim_testkit::prop::check("legalizer_emits_valid_slot_injection", |rng| {
            let kinds = [
                lim_rtl::StdCellKind::Inv,
                lim_rtl::StdCellKind::Nand2,
                lim_rtl::StdCellKind::Nor2,
                lim_rtl::StdCellKind::And2,
                lim_rtl::StdCellKind::Xor2,
            ];
            let mut n = lim_rtl::Netlist::new("fuzz");
            let n_inputs = rng.gen_range(2usize..6);
            let mut nets: Vec<lim_rtl::NetId> = (0..n_inputs)
                .map(|i| n.add_input(format!("in{i}")))
                .collect();
            for g in 0..rng.gen_range(2usize..80) {
                let kind = kinds[rng.gen_range(0..kinds.len())];
                let ins: Vec<lim_rtl::NetId> = (0..kind.input_count())
                    .map(|_| nets[rng.gen_range(0..nets.len())])
                    .collect();
                nets.push(n.add_gate(kind, 1.0, &ins, format!("g{g}")).unwrap());
            }
            for &o in nets.iter().rev().take(3) {
                n.mark_output(o);
            }
            let fp =
                Floorplan::build(&tech, &n, &BrickLibrary::new(), &FloorplanOptions::default())
                    .unwrap();
            let problem = Problem::build(&tech, &n, &fp, 0.0).unwrap();
            let ctx = problem.ctx();
            // Adversarial solved positions: arbitrary reals, including
            // clumps far outside the die.
            let xs: Vec<f64> = (0..ctx.n_placeable)
                .map(|_| rng.gen_range(-50.0f64..500.0))
                .collect();
            let ys: Vec<f64> = (0..ctx.n_placeable)
                .map(|_| rng.gen_range(-50.0f64..500.0))
                .collect();
            let (slot_of, displacement) = legalize(&ctx, &xs, &ys);
            assert!(displacement >= 0.0);
            assert_injection(&ctx, &slot_of);
        });
    }
}
