//! Standard-cell placement: one analytic global placement refined by
//! one short seeded anneal.
//!
//! Cells occupy uniform slots on the floorplan's rows. A deterministic
//! analytic global placer (`crate::analytic`: bound-to-bound quadratic
//! net model solved per axis with Jacobi-preconditioned conjugate
//! gradient, legalized Tetris-style onto the slot grid) produces the
//! initial assignment, and the annealer runs once on top of it as a
//! low-temperature refinement, its move stream seeded by one
//! SplitMix64 step from the caller's seed.
//!
//! # Incremental cost
//!
//! The annealer precomputes every net's bounding-box perimeter once and
//! keeps two flat arrays hot: the position of every pin occurrence
//! (net-major, so a net's pins are contiguous) and the cached
//! half-perimeter of every net. A move overwrites the displaced cells'
//! pin positions in place and re-derives the bounds of only the touched
//! nets — a branchless min/max fold over a contiguous f64 slice — so a
//! move costs O(pins on touched nets) with **zero per-move heap
//! allocation** (all scratch buffers are reused). Rejected moves undo by
//! rewriting the same few positions; accepted moves commit the touched
//! nets' new perimeters into the cache. Touched nets are visited in
//! ascending net order and min/max folds are order-independent, so every
//! delta is bit-identical to a from-scratch recompute of the touched
//! nets. Under `debug_assertions` the running cost is additionally
//! checked against a full recompute every [`DRIFT_CHECK_INTERVAL`]
//! accepted moves.
//!
//! Everything is serial and seeded, so a placement is byte-identical
//! for any `LIM_PAR_THREADS` value.

use crate::error::PhysicalError;
use crate::floorplan::Floorplan;
use lim_rtl::{CellKind, NetId, Netlist};
use lim_tech::units::Microns;
use lim_tech::Technology;
use lim_testkit::rng::splitmix64;
use lim_testkit::TestRng;

/// Accepted moves between from-scratch cost cross-checks in debug
/// builds.
pub const DRIFT_CHECK_INTERVAL: usize = 1024;

/// Fraction of the `30 · cells · effort` move budget the refinement
/// anneal spends.
pub(crate) const REFINE_BUDGET: f64 = 0.15;

/// Initial-temperature multiplier of the refinement: low enough that
/// the analytic placement is polished, not scrambled.
pub(crate) const REFINE_T0: f64 = 0.06;

/// Move-window multiplier of the refinement: targets stay local to the
/// analytic placement from the first move.
pub(crate) const REFINE_WINDOW: f64 = 0.35;

/// Where every pin of the design sits.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Per-cell position (cell index → center), `None` for macros (their
    /// position lives in the floorplan).
    pub cell_pos: Vec<Option<(f64, f64)>>,
    /// Positions of primary-input pins (net index → position).
    pub input_pins: Vec<(NetId, (f64, f64))>,
    /// Positions of primary-output pins.
    pub output_pins: Vec<(NetId, (f64, f64))>,
    /// Final total HPWL in µm.
    pub hpwl: f64,
    /// Annealer moves actually evaluated (no-op draws excluded). Zero
    /// when the refinement did not run.
    pub moves: usize,
    /// Moves accepted (their incremental cost updates were kept).
    pub accepted: usize,
    /// Refinement anneals run: 1 when the refinement ran, 0 otherwise
    /// (a zero move budget or fewer than two cells).
    pub starts: usize,
    /// Conjugate-gradient iterations the analytic seed solve spent
    /// (both axes); 0 when no analytic solve ran.
    pub analytic_iters: usize,
    /// Total µm of displacement the Tetris legalizer applied to the
    /// analytic solution; 0.0 when no analytic solve ran or the ordered
    /// baseline won.
    pub legalize_displacement: f64,
    /// Whether the analytic seed ran (`false` only for designs with
    /// fewer than two cells to place).
    pub seeded: bool,
}

/// Placement effort: the multiplier on the refinement anneal's move
/// budget. `0.0` keeps the analytic seed unrefined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaceEffort {
    /// Multiplier on the annealing move budget.
    pub moves: f64,
}

impl PlaceEffort {
    /// Effort with a custom move-budget multiplier.
    pub fn new(moves: f64) -> Self {
        PlaceEffort { moves }
    }
}

impl Default for PlaceEffort {
    fn default() -> Self {
        PlaceEffort::new(1.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PinRef {
    Cell(usize),
    Macro(usize),
    Input(usize),
    Output(usize),
}

/// Static per-design placement context shared (read-only) by the
/// analytic seeder and the anneal: the slot grid, fixed pin positions,
/// and CSR net membership.
pub(crate) struct Ctx<'a> {
    pub(crate) slots: &'a [(f64, f64)],
    /// Center of each floorplan macro, parallel to `floorplan.macros`.
    pub(crate) macro_centers: &'a [(f64, f64)],
    pub(crate) input_pins: &'a [(NetId, (f64, f64))],
    pub(crate) output_pins: &'a [(NetId, (f64, f64))],
    /// CSR: pins of each net, one entry per pin occurrence (net-major,
    /// the same layout as every `CostModel`'s position array).
    pub(crate) net_off: &'a [u32],
    pub(crate) net_pins: &'a [PinRef],
    /// CSR offsets of each placeable cell's pin occurrences.
    pub(crate) cell_off: &'a [u32],
    /// Flat position-array index of each cell pin occurrence.
    pub(crate) cell_pin_idx: &'a [u32],
    /// CSR: deduplicated ascending net list of each placeable cell,
    /// each run terminated by a `u32::MAX` sentinel so the move
    /// evaluator's two-list merge needs no exhaustion branches.
    pub(crate) merge_off: &'a [u32],
    pub(crate) merge_nets: &'a [u32],
    /// Row index of each slot (empty rows compacted away).
    pub(crate) slot_row: &'a [u32],
    /// CSR offsets of each row's contiguous slot range.
    pub(crate) row_off: &'a [u32],
    pub(crate) n_placeable: usize,
    /// Annealing move budget before the [`REFINE_BUDGET`] fraction.
    pub(crate) n_moves: usize,
    /// Die dimensions, for the analytic solver's weak center anchor.
    pub(crate) die: (f64, f64),
}

impl Ctx<'_> {
    pub(crate) fn pin_idx_of(&self, ord: usize) -> &[u32] {
        &self.cell_pin_idx[self.cell_off[ord] as usize..self.cell_off[ord + 1] as usize]
    }

    fn merge_nets_of(&self, ord: usize) -> &[u32] {
        &self.merge_nets[self.merge_off[ord] as usize..self.merge_off[ord + 1] as usize]
    }

    pub(crate) fn net_count(&self) -> usize {
        self.net_off.len() - 1
    }

    /// Position of one pin occurrence under an assignment mapping cell
    /// ordinals to slots (fixed pins ignore the assignment).
    pub(crate) fn pin_position(&self, pin: PinRef, slot_of: &[usize]) -> (f64, f64) {
        match pin {
            PinRef::Cell(ord) => self.slots[slot_of[ord]],
            PinRef::Macro(i) => self.macro_centers[i],
            PinRef::Input(i) => self.input_pins[i].1,
            PinRef::Output(i) => self.output_pins[i].1,
        }
    }
}

/// The owned placement problem: everything `Ctx` borrows, built once
/// per design and shared by the analytic seeder and the anneal.
pub(crate) struct Problem {
    slots: Vec<(f64, f64)>,
    macro_centers: Vec<(f64, f64)>,
    input_pins: Vec<(NetId, (f64, f64))>,
    output_pins: Vec<(NetId, (f64, f64))>,
    net_off: Vec<u32>,
    net_pins: Vec<PinRef>,
    cell_off: Vec<u32>,
    cell_pin_idx: Vec<u32>,
    merge_off: Vec<u32>,
    merge_nets: Vec<u32>,
    slot_row: Vec<u32>,
    row_off: Vec<u32>,
    /// Netlist cell index of each placeable ordinal.
    pub(crate) placeable: Vec<usize>,
    n_moves: usize,
    die: (f64, f64),
}

impl Problem {
    /// Builds the slot grid, fixed pin positions, and CSR net
    /// membership for `netlist` on `floorplan`.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicalError::DoesNotFit`] when the rows offer fewer
    /// slots than there are placeable cells.
    pub(crate) fn build(
        tech: &Technology,
        netlist: &Netlist,
        floorplan: &Floorplan,
        effort_moves: f64,
    ) -> Result<Self, PhysicalError> {
        let cells = netlist.cells();
        let placeable: Vec<usize> = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| !matches!(c.kind, CellKind::Macro { .. }))
            .map(|(i, _)| i)
            .collect();

        // Uniform slot grid across the rows, sized from the average cell
        // footprint; shrink if rounding leaves too few slots.
        let total_area = netlist.stdcell_area(tech).value();
        let avg_width = if placeable.is_empty() {
            1.0
        } else {
            (total_area / placeable.len() as f64 / tech.row_height.value()).max(0.2)
        };
        let mut slot_w = avg_width;
        let build_slots = |slot_w: f64| -> Vec<(f64, f64)> {
            let mut slots = Vec::new();
            for row in &floorplan.rows {
                let usable = row.width().value();
                let n = (usable / slot_w).floor() as usize;
                for k in 0..n {
                    slots.push((
                        row.x_start.value() + (k as f64 + 0.5) * slot_w,
                        row.y.value() + tech.row_height.value() / 2.0,
                    ));
                }
            }
            slots
        };
        let mut slots = build_slots(slot_w);
        while slots.len() < placeable.len() && slot_w > 0.05 {
            slot_w *= 0.8;
            slots = build_slots(slot_w);
        }
        if slots.len() < placeable.len() {
            return Err(PhysicalError::DoesNotFit {
                demand: placeable.len() as f64,
                capacity: slots.len() as f64,
            });
        }

        // Row structure of the slot grid for the annealer's 2-D move
        // windows: rows that round down to zero slots are compacted away
        // so every row in `row_off` is non-empty.
        let mut row_off: Vec<u32> = Vec::with_capacity(floorplan.rows.len() + 1);
        let mut slot_row: Vec<u32> = Vec::with_capacity(slots.len());
        row_off.push(0);
        for row in &floorplan.rows {
            let n = (row.width().value() / slot_w).floor() as usize;
            if n == 0 {
                continue;
            }
            let r = (row_off.len() - 1) as u32;
            slot_row.extend(std::iter::repeat_n(r, n));
            row_off.push(row_off[row_off.len() - 1] + n as u32);
        }
        debug_assert_eq!(slot_row.len(), slots.len());

        // Static pin positions.
        let macro_centers: Vec<(f64, f64)> = floorplan
            .macros
            .iter()
            .map(|m| {
                let (x, y) = m.center();
                (x.value(), y.value())
            })
            .collect();
        let n_pi = netlist.primary_inputs().len().max(1);
        let input_pins: Vec<(NetId, (f64, f64))> = netlist
            .primary_inputs()
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                (
                    n,
                    (
                        0.0,
                        floorplan.height.value() * (i as f64 + 0.5) / n_pi as f64,
                    ),
                )
            })
            .collect();
        let n_po = netlist.primary_outputs().len().max(1);
        let output_pins: Vec<(NetId, (f64, f64))> = netlist
            .primary_outputs()
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                (
                    n,
                    (
                        floorplan.width.value(),
                        floorplan.height.value() * (i as f64 + 0.5) / n_po as f64,
                    ),
                )
            })
            .collect();

        // Net membership, CSR on both sides (one entry per pin
        // occurrence, so incremental removals and rescans agree on
        // multiplicity).
        let n_nets = netlist.net_count();
        let mut cell_off = vec![0u32; placeable.len() + 1];
        for (ord, &ci) in placeable.iter().enumerate() {
            let pins = cells[ci].inputs.len() + cells[ci].outputs.len();
            cell_off[ord + 1] = cell_off[ord] + pins as u32;
        }
        let mut pin_count = vec![0u32; n_nets];
        for &ci in &placeable {
            for &net in cells[ci].inputs.iter().chain(cells[ci].outputs.iter()) {
                pin_count[net.index()] += 1;
            }
        }
        let mut macro_pins: Vec<(u32, PinRef)> = Vec::new();
        for (i, m) in floorplan.macros.iter().enumerate() {
            let cell = cells
                .iter()
                .find(|c| c.name == m.instance)
                .expect("macro instance exists in netlist");
            for &net in cell.inputs.iter().chain(cell.outputs.iter()) {
                macro_pins.push((net.index() as u32, PinRef::Macro(i)));
                pin_count[net.index()] += 1;
            }
        }
        for (i, (net, _)) in input_pins.iter().enumerate() {
            macro_pins.push((net.index() as u32, PinRef::Input(i)));
            pin_count[net.index()] += 1;
        }
        for (i, (net, _)) in output_pins.iter().enumerate() {
            macro_pins.push((net.index() as u32, PinRef::Output(i)));
            pin_count[net.index()] += 1;
        }
        let mut net_off = vec![0u32; n_nets + 1];
        for n in 0..n_nets {
            net_off[n + 1] = net_off[n] + pin_count[n];
        }
        let mut cursor: Vec<u32> = net_off[..n_nets].to_vec();
        let mut net_pins = vec![PinRef::Cell(usize::MAX); *net_off.last().unwrap() as usize];
        // (net, flat position index) per cell pin occurrence; sorted by
        // net within each cell below so move evaluation can merge the
        // two cells' net lists instead of sorting per move.
        let mut cell_pairs: Vec<(u32, u32)> =
            Vec::with_capacity(*cell_off.last().unwrap() as usize);
        for (ord, &ci) in placeable.iter().enumerate() {
            for &net in cells[ci].inputs.iter().chain(cells[ci].outputs.iter()) {
                let n = net.index();
                net_pins[cursor[n] as usize] = PinRef::Cell(ord);
                cell_pairs.push((n as u32, cursor[n]));
                cursor[n] += 1;
            }
        }
        for ord in 0..placeable.len() {
            cell_pairs[cell_off[ord] as usize..cell_off[ord + 1] as usize].sort_unstable();
        }
        let cell_nets: Vec<u32> = cell_pairs.iter().map(|&(n, _)| n).collect();
        let cell_pin_idx: Vec<u32> = cell_pairs.iter().map(|&(_, i)| i).collect();
        // Deduplicated, sentinel-terminated net list per cell for the
        // move evaluator's branch-light merge.
        let mut merge_off = vec![0u32; placeable.len() + 1];
        let mut merge_nets: Vec<u32> = Vec::with_capacity(cell_nets.len() + placeable.len());
        for ord in 0..placeable.len() {
            let mut prev = u32::MAX;
            for &n in &cell_nets[cell_off[ord] as usize..cell_off[ord + 1] as usize] {
                if n != prev {
                    merge_nets.push(n);
                    prev = n;
                }
            }
            merge_nets.push(u32::MAX);
            merge_off[ord + 1] = merge_nets.len() as u32;
        }
        for &(n, pin) in &macro_pins {
            net_pins[cursor[n as usize] as usize] = pin;
            cursor[n as usize] += 1;
        }

        let n_moves = if placeable.len() < 2 {
            0
        } else {
            ((placeable.len() * 30) as f64 * effort_moves) as usize
        };

        Ok(Problem {
            slots,
            macro_centers,
            input_pins,
            output_pins,
            net_off,
            net_pins,
            cell_off,
            cell_pin_idx,
            merge_off,
            merge_nets,
            slot_row,
            row_off,
            placeable,
            n_moves,
            die: (floorplan.width.value(), floorplan.height.value()),
        })
    }

    /// Borrowed view shared by the analytic seeder and the anneal.
    pub(crate) fn ctx(&self) -> Ctx<'_> {
        Ctx {
            slots: &self.slots,
            macro_centers: &self.macro_centers,
            input_pins: &self.input_pins,
            output_pins: &self.output_pins,
            net_off: &self.net_off,
            net_pins: &self.net_pins,
            cell_off: &self.cell_off,
            cell_pin_idx: &self.cell_pin_idx,
            merge_off: &self.merge_off,
            merge_nets: &self.merge_nets,
            slot_row: &self.slot_row,
            row_off: &self.row_off,
            n_placeable: self.placeable.len(),
            n_moves: self.n_moves,
            die: self.die,
        }
    }
}

/// The mutable annealing state: the assignment, the flat pin-position
/// array, the cached per-net perimeters, the running cost, and reusable
/// scratch.
pub(crate) struct CostModel<'a> {
    ctx: &'a Ctx<'a>,
    pub(crate) slot_of: Vec<usize>,
    cell_in_slot: Vec<Option<usize>>,
    /// Position of every pin occurrence, parallel to `ctx.net_pins`.
    pos: Vec<(f64, f64)>,
    /// Cached half-perimeter of every net.
    perim: Vec<f64>,
    pub(crate) cost: f64,
    /// Nets touched by the current move, ascending and deduplicated.
    touched: Vec<u32>,
    /// Their re-derived perimeters, parallel to `touched`.
    new_perim: Vec<f64>,
}

impl<'a> CostModel<'a> {
    /// Model over an explicit assignment (`slot_of[ord]` = slot of cell
    /// ordinal `ord`; must be a valid injection into the slot grid).
    pub(crate) fn with_assignment(ctx: &'a Ctx<'a>, slot_of: Vec<usize>) -> Self {
        debug_assert_eq!(slot_of.len(), ctx.n_placeable);
        let mut cell_in_slot: Vec<Option<usize>> = vec![None; ctx.slots.len()];
        for (ord, &slot) in slot_of.iter().enumerate() {
            debug_assert!(cell_in_slot[slot].is_none(), "slot {slot} double-booked");
            cell_in_slot[slot] = Some(ord);
        }
        let pos: Vec<(f64, f64)> = ctx
            .net_pins
            .iter()
            .map(|&pin| ctx.pin_position(pin, &slot_of))
            .collect();
        let mut model = CostModel {
            ctx,
            slot_of,
            cell_in_slot,
            pos,
            perim: vec![0.0; ctx.net_count()],
            cost: 0.0,
            touched: Vec::with_capacity(16),
            new_perim: Vec::with_capacity(16),
        };
        for net in 0..ctx.net_count() {
            model.perim[net] = model.net_perimeter(net);
        }
        model.cost = model.perim.iter().sum();
        model
    }

    /// Half-perimeter of one net from the flat position array: a
    /// branchless min/max fold over a contiguous slice. Zero for empty
    /// and single-pin nets.
    #[inline(always)]
    fn net_perimeter(&self, net: usize) -> f64 {
        let (s, e) = (
            self.ctx.net_off[net] as usize,
            self.ctx.net_off[net + 1] as usize,
        );
        let pins = &self.pos[s..e];
        if pins.len() < 2 {
            return 0.0;
        }
        let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
        for &(x, y) in pins {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        (x1 - x0) + (y1 - y0)
    }

    /// Evaluates moving cell `a` into `target_slot` (swapping with its
    /// occupant `b`, if any) and returns the cost delta. The pin
    /// positions are left at their NEW values and `touched`/`new_perim`
    /// hold the affected nets; follow with [`Self::commit`] to keep the
    /// move or [`Self::revert`] to undo it.
    ///
    /// One pass does everything: the cells' presorted net lists are
    /// merged (deduplicated, ascending), and each merged net's old and
    /// new perimeter is accumulated as it streams by. The two sums grow
    /// in ascending net order — the same order a from-scratch
    /// evaluation adds in — so the delta is bit-identical to one.
    fn eval_move(&mut self, a: usize, b: Option<usize>, target_slot: usize) -> f64 {
        let ctx = self.ctx;
        let pa_new = ctx.slots[target_slot];
        let pb_new = ctx.slots[self.slot_of[a]];
        for &idx in ctx.pin_idx_of(a) {
            self.pos[idx as usize] = pa_new;
        }
        if let Some(b) = b {
            for &idx in ctx.pin_idx_of(b) {
                self.pos[idx as usize] = pb_new;
            }
        }

        self.touched.clear();
        self.new_perim.clear();
        let la = ctx.merge_nets_of(a);
        let lb = b.map_or(SENTINEL, |b| ctx.merge_nets_of(b));
        let (mut i, mut j) = (0, 0);
        let (mut old_sum, mut new_sum) = (0.0f64, 0.0f64);
        loop {
            let (x, y) = (la[i], lb[j]);
            let n = x.min(y);
            if n == u32::MAX {
                break;
            }
            i += usize::from(x == n);
            j += usize::from(y == n);
            let p = self.net_perimeter(n as usize);
            old_sum += self.perim[n as usize];
            new_sum += p;
            self.touched.push(n);
            self.new_perim.push(p);
        }
        new_sum - old_sum
    }

    /// Keeps an evaluated move: updates the assignment and commits the
    /// touched nets' new perimeters into the cache.
    fn commit(&mut self, a: usize, b: Option<usize>, target_slot: usize) {
        let old_slot = self.slot_of[a];
        self.slot_of[a] = target_slot;
        if let Some(b) = b {
            self.slot_of[b] = old_slot;
        }
        self.cell_in_slot[old_slot] = b;
        self.cell_in_slot[target_slot] = Some(a);
        for (k, &n) in self.touched.iter().enumerate() {
            self.perim[n as usize] = self.new_perim[k];
        }
    }

    /// Undoes an evaluated move by rewriting the displaced pins back to
    /// their pre-move positions (the assignment and perimeter cache were
    /// never changed).
    fn revert(&mut self, a: usize, b: Option<usize>, target_slot: usize) {
        let ctx = self.ctx;
        let pa_old = ctx.slots[self.slot_of[a]];
        for &idx in ctx.pin_idx_of(a) {
            self.pos[idx as usize] = pa_old;
        }
        if let Some(b) = b {
            let pb_old = ctx.slots[target_slot];
            for &idx in ctx.pin_idx_of(b) {
                self.pos[idx as usize] = pb_old;
            }
        }
    }

    /// From-scratch total HPWL at the current (committed) assignment,
    /// bypassing the perimeter cache.
    fn fresh_cost(&self) -> f64 {
        (0..self.ctx.net_count()).map(|n| self.net_perimeter(n)).sum()
    }

    /// Rewrites every cell pin's position from the current assignment
    /// (fixed macro/port pins never move). Used after rolling the
    /// assignment back to the best one seen.
    fn load_assignment_positions(&mut self) {
        for ord in 0..self.ctx.n_placeable {
            let p = self.ctx.slots[self.slot_of[ord]];
            for &idx in self.ctx.pin_idx_of(ord) {
                self.pos[idx as usize] = p;
            }
        }
    }
}

/// A lone merge sentinel, standing in for the net list of an absent
/// swap partner.
const SENTINEL: &[u32] = &[u32::MAX];

/// The outcome of the refinement anneal.
struct Annealed {
    slot_of: Vec<usize>,
    /// Exact (from-scratch) HPWL of the best assignment seen.
    cost: f64,
    attempted: usize,
    accepted: usize,
}

/// The refinement anneal over the assignment `init`, its move stream
/// seeded by `seed`. With `audit` set, the running cost is compared
/// against a from-scratch recompute after **every** accepted move and
/// the maximum relative divergence is folded into it.
fn anneal(ctx: &Ctx<'_>, seed: u64, init: Vec<usize>, mut audit: Option<&mut f64>) -> Annealed {
    let mut model = CostModel::with_assignment(ctx, init);
    let mut rng = TestRng::seed_from_u64(seed);
    let n_moves = ((ctx.n_moves as f64 * REFINE_BUDGET) as usize).max(1);
    let t0 = (model.cost / (ctx.n_placeable.max(1) as f64)).max(1.0) * REFINE_T0;
    let mut best_cost = model.cost;
    // Journal of accepted moves `(a, old_slot, b, target_slot)`. The
    // best assignment is reached by rolling the final assignment back
    // to the last improvement instead of snapshotting the whole
    // assignment on every improvement.
    let mut journal: Vec<(u32, u32, u32, u32)> = Vec::with_capacity(n_moves / 4);
    let mut journal_at_best = 0usize;
    let mut attempted = 0usize;
    let mut accepted = 0usize;
    for step in 0..n_moves {
        let frac = (1.0 - step as f64 / n_moves as f64).max(0.01);
        let t = t0 * (frac * frac).max(1e-4);
        let a = rng.gen_range(0..ctx.n_placeable);
        // TimberWolf-style range limiting: the target slot is drawn from
        // a 2-D window (rows x columns) around the cell's current slot
        // that shrinks with the temperature, so late moves are local
        // refinements in both axes instead of doomed cross-die jumps.
        // The window starts already shrunk (`REFINE_WINDOW`): the
        // analytic seed made the global decisions.
        let n_rows = ctx.row_off.len() - 1;
        let wfrac = frac * REFINE_WINDOW;
        let wr = ((n_rows as f64 * wfrac) as usize).max(1);
        let target_slot = if 2 * wr >= n_rows {
            rng.gen_range(0..ctx.slots.len())
        } else {
            let cur = model.slot_of[a];
            let r = ctx.slot_row[cur] as usize;
            let row = rng.gen_range(r.saturating_sub(wr)..(r + wr).min(n_rows - 1) + 1);
            let rs = ctx.row_off[row] as usize;
            let row_len = ctx.row_off[row + 1] as usize - rs;
            let wc = ((row_len as f64 * wfrac) as usize).max(4);
            let c = (cur - ctx.row_off[r] as usize).min(row_len - 1);
            rs + rng.gen_range(c.saturating_sub(wc)..(c + wc).min(row_len - 1) + 1)
        };
        let b = model.cell_in_slot[target_slot];
        if b == Some(a) {
            continue;
        }
        attempted += 1;
        let delta = model.eval_move(a, b, target_slot);
        if delta > 0.0 && rng.gen::<f64>() >= (-delta / t).exp() {
            model.revert(a, b, target_slot);
        } else {
            let old_slot = model.slot_of[a];
            model.commit(a, b, target_slot);
            journal.push((
                a as u32,
                old_slot as u32,
                b.map_or(u32::MAX, |b| b as u32),
                target_slot as u32,
            ));
            accepted += 1;
            model.cost += delta;
            if let Some(max_drift) = audit.as_deref_mut() {
                let fresh = model.fresh_cost();
                let rel = (model.cost - fresh).abs() / fresh.max(1.0);
                if rel > *max_drift {
                    *max_drift = rel;
                }
            }
            #[cfg(debug_assertions)]
            if accepted.is_multiple_of(DRIFT_CHECK_INTERVAL) {
                let fresh = model.fresh_cost();
                debug_assert!(
                    (model.cost - fresh).abs() <= 1e-6 * fresh.max(1.0),
                    "incremental cost drifted: running {} vs fresh {fresh}",
                    model.cost
                );
            }
            if model.cost < best_cost {
                best_cost = model.cost;
                journal_at_best = journal.len();
            }
        }
    }
    // Keep the best assignment seen (annealing may end on an uphill
    // walk): undo the accepted moves past the last improvement, then
    // report the exact cost, free of accumulation error.
    let mut best_slot_of = std::mem::take(&mut model.slot_of);
    for &(a, old_slot, b, target_slot) in journal[journal_at_best..].iter().rev() {
        best_slot_of[a as usize] = old_slot as usize;
        if b != u32::MAX {
            best_slot_of[b as usize] = target_slot as usize;
        }
    }
    model.slot_of = best_slot_of;
    model.load_assignment_positions();
    let cost = model.fresh_cost();
    Annealed {
        slot_of: std::mem::take(&mut model.slot_of),
        cost,
        attempted,
        accepted,
    }
}

/// Places `netlist` on `floorplan`.
///
/// # Errors
///
/// Returns [`PhysicalError::DoesNotFit`] when the rows offer fewer slots
/// than there are placeable cells.
pub fn place(
    tech: &Technology,
    netlist: &Netlist,
    floorplan: &Floorplan,
    seed: u64,
    effort: PlaceEffort,
) -> Result<Placement, PhysicalError> {
    place_inner(tech, netlist, floorplan, seed, effort, None)
}

/// [`place`] with the incremental-cost audit enabled: every accepted
/// move cross-checks the running cost against a from-scratch recompute.
/// Returns the placement plus the maximum relative divergence observed.
/// Test hook — quadratic in design size, do not use on hot paths.
#[doc(hidden)]
pub fn place_audited(
    tech: &Technology,
    netlist: &Netlist,
    floorplan: &Floorplan,
    seed: u64,
    effort: PlaceEffort,
) -> Result<(Placement, f64), PhysicalError> {
    let mut drift = 0.0;
    let placement = place_inner(tech, netlist, floorplan, seed, effort, Some(&mut drift))?;
    Ok((placement, drift))
}

fn place_inner(
    tech: &Technology,
    netlist: &Netlist,
    floorplan: &Floorplan,
    seed: u64,
    effort: PlaceEffort,
    audit: Option<&mut f64>,
) -> Result<Placement, PhysicalError> {
    let problem = Problem::build(tech, netlist, floorplan, effort.moves)?;
    let ctx = problem.ctx();

    // Analytic seed: one deterministic B2B solve + legalization.
    // Degenerate designs (< 2 movable cells) keep the ordered
    // assignment.
    let analytic = (ctx.n_placeable >= 2).then(|| crate::analytic::seed_assignment(&ctx));
    let seeded = analytic.is_some();
    let (analytic_iters, legalize_displacement) = analytic
        .as_ref()
        .map_or((0, 0.0), |a| (a.cg_iters, a.displacement));
    let init = analytic.map_or_else(|| (0..ctx.n_placeable).collect(), |a| a.slot_of);

    let (slot_of, final_cost, attempted, accepted, starts) = if ctx.n_moves == 0 {
        // Nothing to anneal: keep the seed assignment and report the
        // work actually done.
        let model = CostModel::with_assignment(&ctx, init);
        (model.slot_of, model.cost, 0, 0, 0)
    } else {
        let mut stream = seed;
        let run = anneal(&ctx, splitmix64(&mut stream), init, audit);
        (run.slot_of, run.cost, run.attempted, run.accepted, 1)
    };

    // Emit positions.
    let cells = netlist.cells();
    let mut cell_pos: Vec<Option<(f64, f64)>> = vec![None; cells.len()];
    for (ord, &ci) in problem.placeable.iter().enumerate() {
        cell_pos[ci] = Some(problem.slots[slot_of[ord]]);
    }

    lim_obs::counter_add("place.moves", attempted as u64);
    lim_obs::counter_add("place.incremental_moves", accepted as u64);
    lim_obs::counter_add("place.starts", starts as u64);
    if seeded {
        lim_obs::counter_add("place.analytic_iters", analytic_iters as u64);
        lim_obs::counter_add(
            "place.legalize_displacement",
            legalize_displacement.round() as u64,
        );
        lim_obs::counter_add("place.seeded", starts as u64);
    }
    let Problem {
        input_pins,
        output_pins,
        ..
    } = problem;
    Ok(Placement {
        cell_pos,
        input_pins,
        output_pins,
        hpwl: final_cost,
        moves: attempted,
        accepted,
        starts,
        analytic_iters,
        legalize_displacement,
        seeded,
    })
}

/// Returns the position of every pin of `net` under `placement`
/// (cells at their centers, macros at theirs, ports at the die edge).
pub fn net_pin_positions(
    netlist: &Netlist,
    placement: &Placement,
    floorplan: &Floorplan,
    net: NetId,
) -> Vec<(f64, f64)> {
    let mut pins = Vec::new();
    for (i, cell) in netlist.cells().iter().enumerate() {
        if cell.inputs.contains(&net) || cell.outputs.contains(&net) {
            if let Some(p) = placement.cell_pos[i] {
                pins.push(p);
            } else if let Some(m) = floorplan.macros.iter().find(|m| m.instance == cell.name) {
                let (x, y) = m.center();
                pins.push((x.value(), y.value()));
            }
        }
    }
    for (n, p) in &placement.input_pins {
        if *n == net {
            pins.push(*p);
        }
    }
    for (n, p) in &placement.output_pins {
        if *n == net {
            pins.push(*p);
        }
    }
    pins
}

/// Half-perimeter wirelength of one net.
pub fn hpwl(pins: &[(f64, f64)]) -> Microns {
    if pins.len() < 2 {
        return Microns::ZERO;
    }
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in pins {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    Microns::new((x1 - x0) + (y1 - y0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::FloorplanOptions;
    use lim_brick::BrickLibrary;
    use lim_rtl::generators::decoder;

    #[test]
    fn placement_fits_and_improves() {
        let tech = Technology::cmos65();
        let dec = decoder("dec", 4, 16, true).unwrap();
        let fp = Floorplan::build(&tech, &dec, &BrickLibrary::new(), &FloorplanOptions::default())
            .unwrap();
        let seeded = place(&tech, &dec, &fp, 42, PlaceEffort::default()).unwrap();
        assert!(seeded.hpwl > 0.0);
        assert!(seeded.seeded);
        assert!(seeded.analytic_iters > 0);
        // All std cells have positions inside the die.
        for (i, pos) in seeded.cell_pos.iter().enumerate() {
            let p = pos.unwrap_or_else(|| panic!("cell {i} unplaced"));
            assert!(p.0 >= 0.0 && p.0 <= fp.width.value());
            assert!(p.1 >= 0.0 && p.1 <= fp.height.value());
        }
        // The refined placement beats its unrefined analytic seed.
        let unannealed = place(&tech, &dec, &fp, 42, PlaceEffort::new(0.0)).unwrap();
        assert!(
            seeded.hpwl <= unannealed.hpwl * 1.001,
            "refined {} vs analytic seed {}",
            seeded.hpwl,
            unannealed.hpwl
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let tech = Technology::cmos65();
        let dec = decoder("dec", 3, 8, false).unwrap();
        let fp = Floorplan::build(&tech, &dec, &BrickLibrary::new(), &FloorplanOptions::default())
            .unwrap();
        let p1 = place(&tech, &dec, &fp, 7, PlaceEffort::default()).unwrap();
        let p2 = place(&tech, &dec, &fp, 7, PlaceEffort::default()).unwrap();
        assert_eq!(p1.cell_pos, p2.cell_pos);
        assert_eq!(p1.hpwl, p2.hpwl);
    }

    #[test]
    fn hpwl_of_rectangle() {
        let pins = [(0.0, 0.0), (3.0, 4.0), (1.0, 1.0)];
        assert!((hpwl(&pins).value() - 7.0).abs() < 1e-12);
        assert_eq!(hpwl(&[(1.0, 1.0)]).value(), 0.0);
    }

    #[test]
    fn incremental_cost_matches_recompute() {
        let tech = Technology::cmos65();
        let dec = decoder("dec", 5, 32, true).unwrap();
        let fp = Floorplan::build(&tech, &dec, &BrickLibrary::new(), &FloorplanOptions::default())
            .unwrap();
        let (placement, drift) =
            place_audited(&tech, &dec, &fp, 42, PlaceEffort::default()).unwrap();
        assert!(drift < 1e-9, "incremental cost drifted by {drift}");
        // Reported HPWL equals an API-level recompute over all nets.
        let recomputed: f64 = (0..dec.net_count())
            .map(|n| {
                hpwl(&net_pin_positions(
                    &dec,
                    &placement,
                    &fp,
                    NetId::from_index(n),
                ))
                .value()
            })
            .sum();
        assert!(
            (placement.hpwl - recomputed).abs() <= 1e-9 * recomputed.max(1.0),
            "reported {} vs recomputed {recomputed}",
            placement.hpwl
        );
    }

    /// HPWL (µm) and evaluated moves of the full cold anneal (ordered
    /// start, whole move budget, full temperature and window) at seed 7
    /// and default effort, recorded before that placement mode was
    /// deleted. Identical in debug and release builds.
    const COLD_DEC4X16: (f64, usize) = (552.2957142857138, 1990);
    const COLD_DEC5X32: (f64, usize) = (2163.457142857147, 4884);

    #[test]
    fn seeded_refine_tracks_cold_anneal_on_decoders() {
        // Generated decoders are the seed's worst case: their netlist
        // order is near-optimal by construction, so the ordered-start
        // cold anneal is a very strong baseline and the analytic solve
        // usually falls back to the ordered candidate. Even then the
        // seeded refinement must track the pinned cold anneal closely
        // (the 8% slack absorbs per-seed annealing noise at the
        // refinement's 15% move budget) while spending under half its
        // moves. The strict seeded ≤ cold requirement lives in the
        // flow-netlist test `tests/place_quality.rs`, where mapped
        // netlists give the analytic seed real work to do.
        let tech = Technology::cmos65();
        for (bits, words, (cold_hpwl, cold_moves)) in
            [(4usize, 16usize, COLD_DEC4X16), (5, 32, COLD_DEC5X32)]
        {
            let dec = decoder("dec", bits, words, true).unwrap();
            let fp =
                Floorplan::build(&tech, &dec, &BrickLibrary::new(), &FloorplanOptions::default())
                    .unwrap();
            let seeded = place(&tech, &dec, &fp, 7, PlaceEffort::default()).unwrap();
            assert!(seeded.seeded);
            assert!(
                seeded.hpwl <= cold_hpwl * 1.08,
                "dec{bits}x{words}: seeded {} vs cold {cold_hpwl}",
                seeded.hpwl
            );
            // The refinement spends a fraction of the cold budget.
            assert!(seeded.moves < cold_moves / 2);
        }
    }

    #[test]
    fn counters_reflect_work_actually_done() {
        let tech = Technology::cmos65();
        // A single-cell design: nothing to anneal, so no moves, no
        // starts, and no analytic solve may be reported.
        let mut n = Netlist::new("one");
        let a = n.add_input("a");
        let out = n
            .add_gate(lim_rtl::StdCellKind::Inv, 1.0, &[a], "y")
            .unwrap();
        n.mark_output(out);
        let fp = Floorplan::build(&tech, &n, &BrickLibrary::new(), &FloorplanOptions::default())
            .unwrap();
        let p = place(&tech, &n, &fp, 1, PlaceEffort::default()).unwrap();
        assert_eq!(p.moves, 0);
        assert_eq!(p.accepted, 0);
        assert_eq!(p.starts, 0);
        assert!(!p.seeded);
        assert_eq!(p.analytic_iters, 0);

        // A real design reports the moves it evaluated, which is at
        // most the budget (no-op draws are excluded) and nonzero.
        let dec = decoder("dec", 4, 16, true).unwrap();
        let fp = Floorplan::build(&tech, &dec, &BrickLibrary::new(), &FloorplanOptions::default())
            .unwrap();
        let p = place(&tech, &dec, &fp, 1, PlaceEffort::default()).unwrap();
        assert!(p.moves > 0);
        assert!(p.accepted <= p.moves);
        assert_eq!(p.starts, 1);
        assert!(p.seeded);
    }
}
