//! Backward-Euler transient solver.
//!
//! The solver discretizes the node equations `C dv/dt = −G v + I(t)` with
//! the unconditionally stable backward-Euler rule
//! `(G + C/Δt) v_{n+1} = (C/Δt) v_n + I(t_{n+1})` and solves the linear
//! system by LU factorization. The factorization is reused across steps and
//! refreshed only when a switch changes state (conductance topology
//! change), which makes long RC-ladder simulations cheap.
//!
//! There is one engine. Every run's connectivity graph is reordered by
//! reverse Cuthill–McKee ([`crate::sparse`]); extracted memory arrays are
//! chains of RC segments, so the reordered system is banded with a small
//! half-bandwidth `k`, factored in `O(n·k²)` and solved each step in
//! `O(n·k)`.
//!
//! The engine is a *lockstep panel*. Every run whose reordered system is
//! tridiagonal (half-bandwidth ≤ 1) — every circuit the golden flow
//! builds — joins one panel ([`run_probed_batch`]), whatever its time
//! step, length or node order. Each panel column keeps its own RCM order,
//! `Δt` (step times, `C/Δt` and energy integration), row count, switch
//! state and factorization. A column is factored from both ends
//! ([`TridiagonalPanel::set_column`]): rows above its middle row are
//! eliminated downward from the first row, rows below it upward from the
//! last, and the middle row last, so each step solves two independent
//! chains of about half the column's rows. Both chains start on the
//! panel's first row (the bottom half is stored reversed), and a chain
//! shorter than the panel is padded with inert rows. A time step is one
//! fused sweep per lane group of [`PANEL_LANES`] columns
//! ([`TridiagonalPanel::step`]): a forward pass along all eight chains
//! that multiplies each row by its `C/Δt` (the history term) as it
//! eliminates, then each column's middle row, then a backward pass out
//! to both ends, both passes carrying the chains' running values in
//! registers so their serial recurrences overlap, each row one fused
//! multiply-add on its chain's carried value. A row that carries a
//! source is finished before the sweep, in a lone run's order (`C/Δt`,
//! then each source's current), and swept with a unit multiplier, so no
//! bit moves. A lane group sweeps only as far as its tallest running
//! column's chains reach, and a retired column's lanes go inert (a zero
//! multiplier). A wider run is LU-factored ([`Banded::factor`]) and
//! advances alone through [`Banded::step`], whose forward pass applies
//! the same multipliers. A single [`TransientSim::run`] is the same
//! engine with a one-column panel, so batched and sequential results are
//! bit-identical by construction. This module's tests check the engine
//! against a dense LU oracle with partial pivoting and pin its bits on a
//! fixed set of runs.
//!
//! Supply energy is integrated alongside: every driver's delivered energy
//! is `∫ v_target · i dt`, which for a full charge of capacitance C to Vdd
//! converges to the textbook `C·Vdd²`.

use crate::error::CircuitError;
use crate::netlist::{Circuit, NodeId, SourceId, SwitchControl, SwitchTerminal};
use crate::sparse::{adjacency, half_bandwidth, positions, rcm_order, Banded, TridiagonalPanel, PANEL_LANES};
use crate::waveform::{Edge, Waveform};
use lim_tech::units::{Femtojoules, Picoseconds, Volts};

/// A transient simulation of a [`Circuit`].
#[derive(Debug, Clone)]
pub struct TransientSim<'a> {
    circuit: &'a Circuit,
}

/// One run in a [`run_probed_batch`] call: a circuit, the nodes whose
/// waveforms to record, and the integration window.
#[derive(Debug, Clone, Copy)]
pub struct BatchRun<'a> {
    /// The circuit to integrate.
    pub circuit: &'a Circuit,
    /// Nodes whose waveforms are recorded (as for
    /// [`TransientSim::run_probed`]).
    pub probes: &'a [NodeId],
    /// End of the integration window.
    pub t_end: Picoseconds,
    /// Fixed time step.
    pub dt: Picoseconds,
}

impl BatchRun<'_> {
    /// Time steps this run integrates: `⌈t_end / dt⌉`.
    pub fn steps(&self) -> usize {
        (self.t_end.value() / self.dt.value()).ceil() as usize
    }
}

impl<'a> TransientSim<'a> {
    /// Prepares a simulation of `circuit`.
    pub fn new(circuit: &'a Circuit) -> Self {
        TransientSim { circuit }
    }

    /// Integrates from `t = 0` to `t_end` with fixed step `dt`, recording
    /// every node's waveform.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::BadTimeStep`] when `dt ≤ 0` or `t_end < dt`.
    /// * [`CircuitError::SingularSystem`] when some node has neither a DC
    ///   path to a driver nor capacitance.
    /// * Any validation error from [`Circuit::validate`].
    pub fn run(&self, t_end: Picoseconds, dt: Picoseconds) -> Result<TransientResult, CircuitError> {
        let all: Vec<NodeId> = (0..self.circuit.node_count()).map(NodeId).collect();
        self.run_probed(&all, t_end, dt)
    }

    /// Like [`TransientSim::run`], but records waveforms only for the
    /// `probes` nodes. Final voltages and energies are still available
    /// for every node, so recharge-energy accounting works unchanged;
    /// only [`TransientResult::waveform`] (and the crossing/slew helpers
    /// built on it) is restricted to probed nodes. This keeps golden
    /// validation from allocating `O(nodes × steps)` traces it never
    /// reads.
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::run`].
    pub fn run_probed(
        &self,
        probes: &[NodeId],
        t_end: Picoseconds,
        dt: Picoseconds,
    ) -> Result<TransientResult, CircuitError> {
        let run = BatchRun {
            circuit: self.circuit,
            probes,
            t_end,
            dt,
        };
        let mut out = run_probed_batch(&[run])?;
        Ok(out.pop().expect("one run yields one result"))
    }
}

/// Integrates a batch of runs. Every run whose reordered system is
/// tridiagonal joins one lockstep panel, whatever its time step, length
/// or node order; a wider run advances alone. Each run's result is
/// bit-identical to running it alone through
/// [`TransientSim::run_probed`].
///
/// Observability counters: `transient.batched_runs` (runs submitted),
/// `transient.batch_groups` (tridiagonal panels formed) and
/// `transient.refactorizations`.
///
/// # Errors
///
/// As for [`TransientSim::run`], for any run in the batch.
pub fn run_probed_batch(runs: &[BatchRun<'_>]) -> Result<Vec<TransientResult>, CircuitError> {
    lim_obs::counter_add("transient.batched_runs", runs.len() as u64);
    for r in runs {
        r.circuit.validate()?;
        check_window(r.t_end, r.dt)?;
    }
    let mut results: Vec<Option<TransientResult>> = vec![None; runs.len()];
    let mut panel: Vec<(usize, Column<'_>)> = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        let col = Column::new(r);
        if col.k == 1 {
            panel.push((i, col));
        } else {
            results[i] = run_banded(vec![col])?.pop();
        }
    }
    if !panel.is_empty() {
        lim_obs::counter_add("transient.batch_groups", 1);
        let (slots, cols): (Vec<usize>, Vec<Column<'_>>) = panel.into_iter().unzip();
        for (i, res) in slots.into_iter().zip(run_banded(cols)?) {
            results[i] = Some(res);
        }
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("every run was integrated"))
        .collect())
}

fn check_window(t_end: Picoseconds, dt: Picoseconds) -> Result<(), CircuitError> {
    let (dt_v, t_end_v) = (dt.value(), t_end.value());
    if dt_v <= 0.0 || t_end_v < dt_v || !dt_v.is_finite() || !t_end_v.is_finite() {
        return Err(CircuitError::BadTimeStep {
            dt: dt_v,
            t_end: t_end_v,
        });
    }
    Ok(())
}

/// Sorted, deduplicated node indices to trace.
fn resolve_probes(probes: &[NodeId]) -> Vec<usize> {
    let mut ids: Vec<usize> = probes.iter().map(|p| p.0).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Re-evaluates every switch at time `t` against node voltages `v`,
/// updating `sw_state` in place. Voltage-controlled switches latch once
/// triggered, so for those `sw_state` doubles as the latch. Returns
/// whether any switch changed state.
fn update_switches(ckt: &Circuit, sw_state: &mut [bool], t: f64, v: impl Fn(usize) -> f64) -> bool {
    let mut changed = false;
    for (s, state) in ckt.switches.iter().zip(sw_state) {
        let closed = match s.control {
            SwitchControl::Timed { .. } => s.is_closed_at(t).expect("timed switch resolves by time"),
            SwitchControl::VoltageAbove { node, threshold } => *state || v(node) >= threshold,
            SwitchControl::VoltageBelow { node, threshold } => *state || v(node) <= threshold,
        };
        changed |= *state != closed;
        *state = closed;
    }
    changed
}

/// Stamps the conductance of every closed switch through `add(i, j, g)`.
fn stamp_switches(ckt: &Circuit, sw_state: &[bool], mut add: impl FnMut(usize, usize, f64)) {
    for (sw, _) in ckt.switches.iter().zip(sw_state).filter(|(_, &closed)| closed) {
        let g = 1.0 / sw.r_on;
        match sw.b {
            SwitchTerminal::Ground => add(sw.a, sw.a, g),
            SwitchTerminal::Node(b) => {
                add(sw.a, sw.a, g);
                add(b, b, g);
                add(sw.a, b, -g);
                add(b, sw.a, -g);
            }
        }
    }
}

/// One run inside the engine, with its own ordering, step,
/// switch state and factorization.
struct Column<'a> {
    ckt: &'a Circuit,
    order: Vec<usize>,
    pos: Vec<usize>,
    k: usize,
    dt: f64,
    /// This run's step count; past it the column is retired.
    steps: usize,
    probed: Vec<usize>,
    traces: Vec<Vec<f64>>,
    /// Permuted rows that carry a source, ascending and distinct, with
    /// their `C/Δt`.
    sourced: Vec<(usize, f64)>,
    /// Static stamp in permuted coordinates, including `C/Δt` on the
    /// diagonal; cloned and switch-stamped on each state change.
    template: Banded,
    sw_state: Vec<bool>,
    supply_energy: f64,
    source_energy: Vec<f64>,
    /// Node voltages captured at the column's final step.
    final_v: Vec<f64>,
}

impl<'a> Column<'a> {
    fn new(run: &BatchRun<'a>) -> Column<'a> {
        let (ckt, dt) = (run.circuit, run.dt.value());
        // Connectivity includes every switch whether or not it is closed,
        // so the band structure is valid for all switch states.
        let edges = ckt
            .resistors
            .iter()
            .map(|r| (r.a, r.b))
            .chain(ckt.switches.iter().filter_map(|s| match s.b {
                SwitchTerminal::Node(b) => Some((s.a, b)),
                SwitchTerminal::Ground => None,
            }));
        let adj = adjacency(ckt.node_count(), edges);
        let order = rcm_order(&adj);
        let pos = positions(&order);
        // A diagonal system is stored tridiagonally (zero couplings), so
        // every panel column carries the same kind of factorization.
        let k = half_bandwidth(&adj, &pos).max(1);
        let mut template = Banded::zeros(ckt.node_count(), k);
        for r in &ckt.resistors {
            let g = 1.0 / r.r;
            let (pa, pb) = (pos[r.a], pos[r.b]);
            template.add(pa, pa, g);
            template.add(pb, pb, g);
            template.add(pa, pb, -g);
            template.add(pb, pa, -g);
        }
        for s in &ckt.sources {
            template.add(pos[s.node], pos[s.node], 1.0 / s.r_series);
        }
        for (i, &c) in ckt.caps.iter().enumerate() {
            template.add(pos[i], pos[i], c / dt);
        }
        let mut sourced: Vec<usize> = ckt.sources.iter().map(|s| pos[s.node]).collect();
        sourced.sort_unstable();
        sourced.dedup();
        let sourced = sourced.into_iter().map(|p| (p, ckt.caps[order[p]] / dt)).collect();
        let steps = run.steps();
        let probed = resolve_probes(run.probes);
        let traces = probed
            .iter()
            .map(|&i| {
                let mut t = Vec::with_capacity(steps + 1);
                t.push(ckt.initial_v[i]);
                t
            })
            .collect();
        Column {
            ckt,
            order,
            pos,
            k,
            dt,
            steps,
            probed,
            traces,
            sourced,
            template,
            sw_state: vec![false; ckt.switches.len()],
            supply_energy: 0.0,
            source_energy: vec![0.0; ckt.sources.len()],
            final_v: Vec::new(),
        }
    }

    /// Restamps after a switch-state change and refactors: into panel
    /// column `c` for a tridiagonal run, or into `lu` for a wider one.
    fn refactor(
        &self,
        c: usize,
        panel: Option<&mut TridiagonalPanel>,
        lu: &mut Option<Banded>,
    ) -> Result<(), CircuitError> {
        lim_obs::counter_add("transient.refactorizations", 1);
        let mut a = self.template.clone();
        let pos = &self.pos;
        stamp_switches(self.ckt, &self.sw_state, |i, j, g| a.add(pos[i], pos[j], g));
        match panel {
            Some(panel) => panel.set_column(c, &a),
            None => a.factor().map(|()| *lu = Some(a)),
        }
        .map_err(|e| CircuitError::SingularSystem {
            node: self.order[e.row],
            magnitude: e.magnitude,
        })
    }
}

/// Advances `cols` in lockstep, one panel column each, and retires each
/// column after its own step count. Either every column is tridiagonal
/// and one [`TridiagonalPanel::step`] per step advances them all, or a
/// single wider column advances through its own [`Banded::step`]. Per-column
/// arithmetic is independent and ordered exactly as a lone run's, so
/// results are bit-identical to running each column alone.
///
/// Observability counters, each added once per call:
/// `transient.node_steps` (every column's rows × its steps) and
/// `transient.row_steps` (per lane group, the rows of its tallest
/// running column, summed over steps).
fn run_banded(mut cols: Vec<Column<'_>>) -> Result<Vec<TransientResult>, CircuitError> {
    let wide = cols.iter().any(|c| c.k > 1);
    debug_assert!(!wide || cols.len() == 1, "a wide run advances alone");
    let heights: Vec<usize> = cols.iter().map(|c| c.order.len()).collect();
    let mut panel = (!wide).then(|| TridiagonalPanel::new(&heights));
    let mut lu = None;
    // Voltages and step scales, as the panel lays them out (a wide run
    // keeps its own order): `slots[c][p]` is the flat index of column
    // `c`'s permuted row `p`. Row `p` scales by its `C/Δt` — the history
    // term, folded into the forward pass — or by 1 on a row whose
    // right-hand side is finished before the step. Inert rows stay +0
    // (voltage and scale); a retired column's scale drops to 0, so its
    // lanes go to zero too. Precomputing the division is bit-identical
    // to dividing every step (same operands).
    let (slots, len): (Vec<Vec<usize>>, usize) = match &panel {
        Some(panel) => (
            (heights.iter().enumerate())
                .map(|(c, &n)| (0..n).map(|p| panel.slot(c, p)).collect())
                .collect(),
            panel.slots(),
        ),
        None => (vec![(0..heights[0]).collect()], heights[0]),
    };
    let at = |c: usize, p: usize| slots[c][p];
    let mut live = vec![0; cols.len().div_ceil(PANEL_LANES)];
    let mut x = vec![0.0; len];
    let mut scale = vec![0.0; len];
    for (c, col) in cols.iter().enumerate() {
        for (p, &node) in col.order.iter().enumerate() {
            x[at(c, p)] = col.ckt.initial_v[node];
            scale[at(c, p)] = col.ckt.caps[node] / col.dt;
        }
        for &(p, _) in &col.sourced {
            scale[at(c, p)] = 1.0;
        }
    }
    let max_steps = cols.iter().map(|c| c.steps).max().unwrap_or(0);
    let node_steps: usize = cols.iter().map(|c| c.order.len() * c.steps).sum();
    let mut row_steps = 0;

    for step in 1..=max_steps {
        // Per running column: switches and refactorization, then its
        // source rows finished in a lone run's order (`C/Δt` history,
        // then each source's current in source order). Each lane group
        // sweeps as far as its tallest running column reaches.
        live.fill(0);
        for (c, col) in cols.iter_mut().enumerate() {
            if step > col.steps {
                continue;
            }
            let g = c / PANEL_LANES;
            live[g] = live[g].max(col.order.len());
            let t = step as f64 * col.dt;
            let changed = update_switches(col.ckt, &mut col.sw_state, t, |node| x[at(c, col.pos[node])]);
            if changed || step == 1 {
                col.refactor(c, panel.as_mut(), &mut lu)?;
            }
            for &(p, codt) in &col.sourced {
                x[at(c, p)] *= codt;
            }
            for src in &col.ckt.sources {
                x[at(c, col.pos[src.node])] += src.target_at(t) / src.r_series;
            }
        }
        row_steps += live.iter().sum::<usize>();
        match &panel {
            Some(panel) => panel.step(&mut x, &scale, &live),
            None => lu
                .as_ref()
                .expect("factored on the first step")
                .step(&mut x, &scale),
        }

        // Driver energies, probes, and final voltages of columns
        // finishing this step, whose lanes then go inert.
        for (c, col) in cols.iter_mut().enumerate() {
            if step > col.steps {
                continue;
            }
            let t = step as f64 * col.dt;
            let v = |node: usize| x[at(c, col.pos[node])];
            for (ki, src) in col.ckt.sources.iter().enumerate() {
                let vt = src.target_at(t);
                let i_out = (vt - v(src.node)) / src.r_series; // mA
                let e = vt * i_out * col.dt; // fJ
                col.source_energy[ki] += e;
                col.supply_energy += e;
            }
            for (trace, &node) in col.traces.iter_mut().zip(&col.probed) {
                trace.push(v(node));
            }
            if step == col.steps {
                col.final_v = (0..col.order.len()).map(v).collect();
                for p in 0..col.order.len() {
                    scale[at(c, p)] = 0.0;
                }
            }
        }
    }
    lim_obs::counter_add("transient.node_steps", node_steps as u64);
    lim_obs::counter_add("transient.row_steps", row_steps as u64);

    Ok(cols
        .into_iter()
        .map(|col| {
            let dt = Picoseconds::new(col.dt);
            let mut waveforms: Vec<Option<Waveform>> = (0..col.order.len()).map(|_| None).collect();
            for (trace, &i) in col.traces.into_iter().zip(&col.probed) {
                waveforms[i] = Some(Waveform::new(Picoseconds::ZERO, dt, trace));
            }
            TransientResult {
                waveforms,
                final_v: col.final_v,
                supply_energy: Femtojoules::new(col.supply_energy),
                source_energy: col.source_energy.into_iter().map(Femtojoules::new).collect(),
            }
        })
        .collect())
}

/// The outcome of a transient run: one waveform per probed node plus the
/// final voltage of every node and integrated supply energy.
#[derive(Debug, Clone)]
pub struct TransientResult {
    waveforms: Vec<Option<Waveform>>,
    final_v: Vec<f64>,
    supply_energy: Femtojoules,
    source_energy: Vec<Femtojoules>,
}

impl TransientResult {
    /// Waveform of `node`.
    ///
    /// # Panics
    ///
    /// Panics if the run came from [`TransientSim::run_probed`] and
    /// `node` was not in the probe list.
    pub fn waveform(&self, node: NodeId) -> &Waveform {
        self.waveforms[node.0]
            .as_ref()
            .expect("node was not probed in this transient run")
    }

    /// First crossing of `threshold` at `node` in direction `edge`.
    ///
    /// # Panics
    ///
    /// As for [`TransientResult::waveform`].
    pub fn cross_time(&self, node: NodeId, threshold: Volts, edge: Edge) -> Option<Picoseconds> {
        self.waveform(node).cross_time(threshold, edge)
    }

    /// 10–90 % slew of `node` over the `v_low..v_high` swing.
    ///
    /// # Panics
    ///
    /// As for [`TransientResult::waveform`].
    pub fn slew(&self, node: NodeId, v_low: Volts, v_high: Volts, edge: Edge) -> Option<Picoseconds> {
        self.waveform(node).slew(v_low, v_high, edge)
    }

    /// Node voltage at time `t` (interpolated).
    ///
    /// # Panics
    ///
    /// As for [`TransientResult::waveform`].
    pub fn voltage(&self, node: NodeId, t: Picoseconds) -> Volts {
        self.waveform(node).voltage(t)
    }

    /// Final voltage of `node`. Available for every node, probed or not.
    pub fn final_voltage(&self, node: NodeId) -> Volts {
        Volts::new(self.final_v[node.0])
    }

    /// Total energy delivered by all drivers.
    pub fn supply_energy(&self) -> Femtojoules {
        self.supply_energy
    }

    /// Energy delivered by one driver.
    pub fn source_energy(&self, source: SourceId) -> Femtojoules {
        self.source_energy[source.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lim_tech::units::{Femtofarads, KiloOhms};
    use lim_testkit::prop;
    use lim_testkit::rng::TestRng;

    const VDD: f64 = 1.2;

    /// The test oracle: the same backward-Euler steps on the dense system
    /// in the circuit's own node order, LU-factored with partial pivoting
    /// and refreshed per switch-state change. Records every node.
    fn dense_oracle(
        ckt: &Circuit,
        t_end: Picoseconds,
        dt: Picoseconds,
    ) -> Result<TransientResult, CircuitError> {
        let steps = (t_end.value() / dt.value()).ceil() as usize; // as `BatchRun::steps`
        let dt_v = dt.value();
        let n = ckt.node_count();
        // Static conductance stamp (resistors + source conductances).
        let mut g_static = vec![vec![0.0; n]; n];
        for r in &ckt.resistors {
            let g = 1.0 / r.r;
            g_static[r.a][r.a] += g;
            g_static[r.b][r.b] += g;
            g_static[r.a][r.b] -= g;
            g_static[r.b][r.a] -= g;
        }
        for s in &ckt.sources {
            g_static[s.node][s.node] += 1.0 / s.r_series;
        }

        let mut v: Vec<f64> = ckt.initial_v.clone();
        let mut traces: Vec<Vec<f64>> = v.iter().map(|&x| vec![x]).collect();
        let mut lu: Option<(Vec<Vec<f64>>, Vec<usize>)> = None;
        let mut sw_state = vec![false; ckt.switches.len()];
        let mut supply_energy = 0.0;
        let mut source_energy = vec![0.0; ckt.sources.len()];
        let mut rhs = vec![0.0; n];

        for step in 1..=steps {
            let t = step as f64 * dt_v;

            if update_switches(ckt, &mut sw_state, t, |node| v[node]) || lu.is_none() {
                let mut a = g_static.clone();
                stamp_switches(ckt, &sw_state, |i, j, g| a[i][j] += g);
                for (i, row) in a.iter_mut().enumerate() {
                    row[i] += ckt.caps[i] / dt_v;
                }
                let perm = lu_factor(&mut a)?;
                lu = Some((a, perm));
            }

            // RHS: history term + source currents at t.
            for i in 0..n {
                rhs[i] = ckt.caps[i] / dt_v * v[i];
            }
            for s in &ckt.sources {
                rhs[s.node] += s.target_at(t) / s.r_series;
            }

            let (a, perm) = lu.as_ref().expect("factorization exists");
            lu_solve(a, perm, &rhs, &mut v);

            // Energy delivered by each source over this step.
            for (k, s) in ckt.sources.iter().enumerate() {
                let vt = s.target_at(t);
                let i_out = (vt - v[s.node]) / s.r_series; // mA
                let e = vt * i_out * dt_v; // fJ
                source_energy[k] += e;
                supply_energy += e;
            }
            for (trace, &x) in traces.iter_mut().zip(&v) {
                trace.push(x);
            }
        }

        Ok(TransientResult {
            waveforms: traces
                .into_iter()
                .map(|trace| Some(Waveform::new(Picoseconds::ZERO, dt, trace)))
                .collect(),
            final_v: v,
            supply_energy: Femtojoules::new(supply_energy),
            source_energy: source_energy.into_iter().map(Femtojoules::new).collect(),
        })
    }

    /// In-place LU factorization with partial pivoting. Returns the row
    /// permutation.
    fn lu_factor(a: &mut [Vec<f64>]) -> Result<Vec<usize>, CircuitError> {
        let n = a.len();
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            // Pivot.
            let mut best = col;
            let mut best_mag = a[col][col].abs();
            for (row, a_row) in a.iter().enumerate().skip(col + 1) {
                let mag = a_row[col].abs();
                if mag > best_mag {
                    best = row;
                    best_mag = mag;
                }
            }
            // The best candidate is judged relative to the whole column's
            // magnitude (scale-independent, like the engine's row-relative
            // test): a column whose candidates all vanished against its
            // upper entries is (near-)singular, and an all-zero column
            // certainly is.
            let scale = a.iter().map(|row| row[col].abs()).fold(0.0f64, f64::max);
            if best_mag < 1e-12 * scale || scale == 0.0 {
                return Err(CircuitError::SingularSystem {
                    node: col,
                    magnitude: best_mag,
                });
            }
            if best != col {
                a.swap(best, col);
                perm.swap(best, col);
            }
            let pivot = a[col][col];
            for row in col + 1..n {
                let factor = a[row][col] / pivot;
                a[row][col] = factor;
                if factor != 0.0 {
                    // Split the row pair to satisfy the borrow checker.
                    let (upper, lower) = a.split_at_mut(row);
                    let (prow, crow) = (&upper[col], &mut lower[0]);
                    for k in col + 1..n {
                        crow[k] -= factor * prow[k];
                    }
                }
            }
        }
        Ok(perm)
    }

    /// Solves `A x = b` given the LU factorization and permutation from
    /// [`lu_factor`]. The solution lands in `x`; `b` is left untouched.
    fn lu_solve(a: &[Vec<f64>], perm: &[usize], b: &[f64], x: &mut [f64]) {
        let n = a.len();
        // Apply permutation and forward-substitute.
        for i in 0..n {
            x[i] = b[perm[i]];
        }
        for i in 0..n {
            for k in 0..i {
                x[i] -= a[i][k] * x[k];
            }
        }
        // Back-substitute.
        for i in (0..n).rev() {
            for k in i + 1..n {
                x[i] -= a[i][k] * x[k];
            }
            x[i] /= a[i][i];
        }
    }

    fn charge_circuit(r: f64, c: f64) -> (Circuit, NodeId, SourceId) {
        let mut ckt = Circuit::new();
        let n = ckt.add_node("out");
        ckt.add_cap(n, Femtofarads::new(c));
        let s = ckt.add_source(n, KiloOhms::new(r), Volts::ZERO);
        ckt.schedule(s, Picoseconds::ZERO, Volts::new(VDD));
        (ckt, n, s)
    }

    #[test]
    fn single_pole_step_response_matches_closed_form() {
        let (ckt, n, _) = charge_circuit(2.0, 10.0); // tau = 20 ps
        let res = TransientSim::new(&ckt)
            .run(Picoseconds::new(200.0), Picoseconds::new(0.02))
            .unwrap();
        // v(t) = Vdd (1 - e^{-t/tau}); check several points.
        for t in [5.0, 20.0, 60.0, 140.0] {
            let expect = VDD * (1.0 - (-t / 20.0f64).exp());
            let got = res.voltage(n, Picoseconds::new(t)).value();
            assert!(
                (got - expect).abs() < 0.01,
                "at t={t}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn charge_energy_is_c_vdd_squared() {
        let (ckt, _, s) = charge_circuit(1.0, 10.0);
        let res = TransientSim::new(&ckt)
            .run(Picoseconds::new(500.0), Picoseconds::new(0.05))
            .unwrap();
        let expect = 10.0 * VDD * VDD; // fJ
        let got = res.source_energy(s).value();
        assert!(
            (got - expect).abs() / expect < 0.01,
            "supply energy {got} vs C·Vdd² = {expect}"
        );
    }

    #[test]
    fn switch_discharges_precharged_node() {
        let mut ckt = Circuit::new();
        let n = ckt.add_node("bl");
        ckt.add_cap(n, Femtofarads::new(20.0));
        ckt.set_initial(n, Volts::new(VDD));
        ckt.add_switch_to_ground(n, KiloOhms::new(5.0), Picoseconds::new(50.0));
        let res = TransientSim::new(&ckt)
            .run(Picoseconds::new(600.0), Picoseconds::new(0.1))
            .unwrap();
        // Held high before the switch closes.
        assert!((res.voltage(n, Picoseconds::new(49.0)).value() - VDD).abs() < 1e-6);
        // Falls with tau = 100 ps after.
        let t50 = res
            .cross_time(n, Volts::new(VDD / 2.0), Edge::Falling)
            .unwrap();
        let expect = 50.0 + 100.0 * 2.0f64.ln();
        assert!(
            (t50.value() - expect).abs() < 1.0,
            "t50 {t50} vs {expect}"
        );
    }

    #[test]
    fn rc_ladder_slower_than_lumped() {
        // 4-segment ladder vs a single lumped RC with the same totals: the
        // distributed line is faster at 50% (Elmore overestimates).
        let mut ladder = Circuit::new();
        let mut prev = ladder.add_node("n0");
        let src = ladder.add_source(prev, KiloOhms::new(0.5), Volts::ZERO);
        ladder.schedule(src, Picoseconds::ZERO, Volts::new(VDD));
        ladder.add_cap(prev, Femtofarads::new(2.5));
        let mut last = prev;
        for i in 1..4 {
            let n = ladder.add_node(format!("n{i}"));
            ladder.add_resistor(prev, n, KiloOhms::new(1.0));
            ladder.add_cap(n, Femtofarads::new(2.5));
            prev = n;
            last = n;
        }
        let res = TransientSim::new(&ladder)
            .run(Picoseconds::new(150.0), Picoseconds::new(0.02))
            .unwrap();
        let t50 = res
            .cross_time(last, Volts::new(VDD / 2.0), Edge::Rising)
            .unwrap();
        assert!(t50.value() > 0.0 && t50.value() < 150.0);
        // Elmore delay for this ladder:
        // driver: 0.5 kΩ × 10 fF = 5 ps; segments: 1·(7.5) + 1·(5) + 1·(2.5).
        let elmore = 5.0 + 7.5 + 5.0 + 2.5;
        // The 50 % point of an RC ladder is ~0.7–1.0× Elmore.
        assert!(
            t50.value() < elmore && t50.value() > 0.4 * elmore,
            "t50 = {t50}, elmore = {elmore}"
        );
    }

    #[test]
    fn floating_node_is_singular() {
        let mut ckt = Circuit::new();
        let _ = ckt.add_node("float"); // no cap, no path
        let (t_end, dt) = (Picoseconds::new(1.0), Picoseconds::new(0.1));
        let engine = TransientSim::new(&ckt).run(t_end, dt).unwrap_err();
        let oracle = dense_oracle(&ckt, t_end, dt).unwrap_err();
        for err in [engine, oracle] {
            match err {
                CircuitError::SingularSystem { node, magnitude } => {
                    assert_eq!(node, 0);
                    assert_eq!(magnitude, 0.0);
                }
                other => panic!("expected SingularSystem, got {other:?}"),
            }
        }
    }

    /// The node a run reports as singular and the rejected pivot's
    /// magnitude, the node checked against the dense oracle's when
    /// `oracle` is set.
    fn singular_node(ckt: &Circuit, oracle: bool) -> (usize, f64) {
        let (t_end, dt) = (Picoseconds::new(1.0), Picoseconds::new(0.1));
        let err = TransientSim::new(ckt).run(t_end, dt).unwrap_err();
        let CircuitError::SingularSystem { node, magnitude } = err else {
            panic!("expected SingularSystem, got {err:?}");
        };
        if oracle {
            let dense = dense_oracle(ckt, t_end, dt).unwrap_err();
            assert!(matches!(dense, CircuitError::SingularSystem { node: n, .. } if n == node));
        }
        (node, magnitude)
    }

    /// Where `node`'s permuted row lies against the middle row of
    /// `ckt`'s tridiagonal system.
    fn side_of_middle(ckt: &Circuit, node: usize) -> std::cmp::Ordering {
        let run = BatchRun {
            circuit: ckt,
            probes: &[],
            t_end: Picoseconds::new(1.0),
            dt: Picoseconds::new(0.1),
        };
        let column = Column::new(&run);
        assert_eq!(column.k, 1, "a tridiagonal system joins the panel");
        column.pos[node].cmp(&crate::sparse::middle_row(ckt.node_count()))
    }

    #[test]
    fn floating_node_is_singular_wherever_its_row_falls() {
        use std::cmp::Ordering::{Equal, Greater, Less};
        // Isolated nodes, every one capped but the floating one: RCM
        // orders them by index, reversed, so the floating node's row
        // walks from the bottom chain through the middle row into the
        // top chain. At both parities the panel names the node.
        for n in [5, 6] {
            let mut sides = Vec::new();
            for floating in 0..n {
                let mut ckt = Circuit::new();
                for i in 0..n {
                    let node = ckt.add_node(format!("n{i}"));
                    if i != floating {
                        ckt.add_cap(node, Femtofarads::new(1.0 + i as f64));
                    }
                }
                sides.push(side_of_middle(&ckt, floating));
                assert_eq!(
                    singular_node(&ckt, true),
                    (floating, 0.0),
                    "{n} rows, node {floating}"
                );
            }
            for side in [Less, Equal, Greater] {
                assert!(
                    sides.contains(&side),
                    "{n} rows: no floating row {side:?} the middle"
                );
            }
        }
    }

    #[test]
    fn floating_island_names_one_of_its_nodes() {
        // A two-node island — a resistor, no cap, no driver — beside a
        // driven ladder of 0–6 nodes, added before or after it: the
        // island's rows land in either chain or across the middle row,
        // and the error names one of its two nodes.
        use std::cmp::Ordering::{Equal, Greater, Less};
        let mut placements = Vec::new();
        for ladder in 0..7 {
            for island_first in [false, true] {
                let mut ckt = Circuit::new();
                let mut island = Vec::new();
                let mut add_island = |ckt: &mut Circuit| {
                    let (a, b) = (ckt.add_node("ia"), ckt.add_node("ib"));
                    ckt.add_resistor(a, b, KiloOhms::new(1.0));
                    island = vec![a.0, b.0];
                };
                if island_first {
                    add_island(&mut ckt);
                }
                let mut prev: Option<NodeId> = None;
                for i in 0..ladder {
                    let node = ckt.add_node(format!("n{i}"));
                    ckt.add_cap(node, Femtofarads::new(1.0));
                    match prev {
                        Some(p) => ckt.add_resistor(p, node, KiloOhms::new(0.1)),
                        None => {
                            let src = ckt.add_source(node, KiloOhms::new(0.5), Volts::ZERO);
                            ckt.schedule(src, Picoseconds::ZERO, Volts::new(VDD));
                        }
                    }
                    prev = Some(node);
                }
                if !island_first {
                    add_island(&mut ckt);
                }
                placements.push(
                    island
                        .iter()
                        .map(|&i| side_of_middle(&ckt, i))
                        .collect::<Vec<_>>(),
                );
                let (node, _) = singular_node(&ckt, false);
                assert!(
                    island.contains(&node),
                    "ladder {ladder}: node {node} not in {island:?}"
                );
            }
        }
        assert!(
            placements.contains(&vec![Less, Less]) && placements.contains(&vec![Greater, Greater])
        );
        assert!(
            placements.iter().any(|rows| rows.contains(&Equal)),
            "no island on the middle row"
        );
    }

    #[test]
    fn bad_time_step_rejected() {
        let (ckt, _, _) = charge_circuit(1.0, 1.0);
        let err = TransientSim::new(&ckt)
            .run(Picoseconds::new(1.0), Picoseconds::ZERO)
            .unwrap_err();
        assert!(matches!(err, CircuitError::BadTimeStep { .. }));
    }

    #[test]
    fn node_to_node_switch_equalizes_charge() {
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let b = ckt.add_node("b");
        ckt.add_cap(a, Femtofarads::new(10.0));
        ckt.add_cap(b, Femtofarads::new(10.0));
        ckt.set_initial(a, Volts::new(VDD));
        ckt.add_switch(a, b, KiloOhms::new(1.0), Picoseconds::new(10.0));
        let res = TransientSim::new(&ckt)
            .run(Picoseconds::new(300.0), Picoseconds::new(0.05))
            .unwrap();
        // Charge sharing: both settle at Vdd/2.
        assert!((res.final_voltage(a).value() - VDD / 2.0).abs() < 0.01);
        assert!((res.final_voltage(b).value() - VDD / 2.0).abs() < 0.01);
    }

    /// An `n`-node ladder of 50 Ω segments driven at its near end.
    fn long_ladder(n: usize) -> (Circuit, NodeId) {
        long_ladder_r(n, 0.05)
    }

    /// As [`long_ladder`] but with configurable segment resistance, so
    /// same-structure circuits with different element values exist.
    fn long_ladder_r(n: usize, seg_r: f64) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let mut prev = ckt.add_node("n0");
        ckt.add_cap(prev, Femtofarads::new(1.0));
        let src = ckt.add_source(prev, KiloOhms::new(0.5), Volts::ZERO);
        ckt.schedule(src, Picoseconds::ZERO, Volts::new(VDD));
        let mut last = prev;
        for i in 1..n {
            let node = ckt.add_node(format!("n{i}"));
            ckt.add_resistor(prev, node, KiloOhms::new(seg_r));
            ckt.add_cap(node, Femtofarads::new(1.0));
            prev = node;
            last = node;
        }
        (ckt, last)
    }

    #[test]
    fn run_probed_matches_run_and_limits_waveforms() {
        let (ladder, far) = long_ladder(24);
        let t_end = Picoseconds::new(100.0);
        let dt = Picoseconds::new(0.1);
        let full = TransientSim::new(&ladder).run(t_end, dt).unwrap();
        let probed = TransientSim::new(&ladder)
            .run_probed(&[far], t_end, dt)
            .unwrap();
        // The probed waveform is bit-identical to the full run's.
        let (a, b) = (full.waveform(far), probed.waveform(far));
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.at(i).value(), b.at(i).value());
        }
        // Energies and final voltages cover every node either way.
        assert_eq!(full.supply_energy().value(), probed.supply_energy().value());
        assert_eq!(
            full.final_voltage(NodeId(0)).value(),
            probed.final_voltage(NodeId(0)).value()
        );
    }

    #[test]
    #[should_panic(expected = "not probed")]
    fn unprobed_waveform_panics() {
        let (ladder, far) = long_ladder(10);
        let res = TransientSim::new(&ladder)
            .run_probed(&[far], Picoseconds::new(10.0), Picoseconds::new(0.1))
            .unwrap();
        let _ = res.waveform(NodeId(0));
    }

    fn assert_bit_identical(a: &TransientResult, b: &TransientResult, probe: NodeId, ctx: &str) {
        let (wa, wb) = (a.waveform(probe), b.waveform(probe));
        assert_eq!(wa.len(), wb.len(), "{ctx}: waveform length");
        for s in 0..wa.len() {
            assert_eq!(
                wa.at(s).value().to_bits(),
                wb.at(s).value().to_bits(),
                "{ctx}: sample {s}"
            );
        }
        assert_eq!(
            a.supply_energy().value().to_bits(),
            b.supply_energy().value().to_bits(),
            "{ctx}: supply energy"
        );
        for i in 0..a.final_v.len() {
            assert_eq!(
                a.final_v[i].to_bits(),
                b.final_v[i].to_bits(),
                "{ctx}: final v node {i}"
            );
        }
    }

    #[test]
    fn batch_is_bit_identical_to_sequential_runs() {
        // A mix of shapes in one panel: two same-structure ladders with
        // different element values, an exact duplicate, a shorter ladder
        // (padded with inert rows), and a switched circuit (state change
        // mid-run).
        let (a, a_far) = long_ladder_r(24, 0.05);
        let (b, b_far) = long_ladder_r(24, 0.08);
        let (c, c_far) = long_ladder(16);
        let mut d = Circuit::new();
        let mut prev = d.add_node("n0");
        d.add_cap(prev, Femtofarads::new(2.0));
        d.set_initial(prev, Volts::new(VDD));
        for i in 1..12 {
            let node = d.add_node(format!("n{i}"));
            d.add_resistor(prev, node, KiloOhms::new(0.1));
            d.add_cap(node, Femtofarads::new(2.0));
            d.set_initial(node, Volts::new(VDD));
            prev = node;
        }
        d.add_switch_to_ground(prev, KiloOhms::new(1.0), Picoseconds::new(20.0));
        let d_far = prev;

        let t_end = Picoseconds::new(80.0);
        let dt = Picoseconds::new(0.1);
        let a_probe = [a_far];
        let b_probe = [b_far];
        let c_probe = [c_far];
        let d_probe = [d_far];
        let runs = [
            BatchRun { circuit: &a, probes: &a_probe, t_end, dt },
            BatchRun { circuit: &b, probes: &b_probe, t_end, dt },
            BatchRun { circuit: &a, probes: &a_probe, t_end, dt }, // duplicate of run 0
            BatchRun { circuit: &c, probes: &c_probe, t_end, dt },
            BatchRun { circuit: &d, probes: &d_probe, t_end, dt },
        ];
        let batch = run_probed_batch(&runs).unwrap();
        assert_eq!(batch.len(), runs.len());
        for (i, run) in runs.iter().enumerate() {
            let solo = TransientSim::new(run.circuit)
                .run_probed(run.probes, t_end, dt)
                .unwrap();
            assert_bit_identical(&batch[i], &solo, run.probes[0], &format!("run {i}"));
        }
    }

    #[test]
    fn batch_handles_tiny_and_empty_inputs() {
        assert!(run_probed_batch(&[]).unwrap().is_empty());
        // A one-node circuit is a one-row panel column, batched or alone.
        let (tiny, node, _) = charge_circuit(1.0, 10.0);
        let probes = [node];
        let runs = [BatchRun {
            circuit: &tiny,
            probes: &probes,
            t_end: Picoseconds::new(50.0),
            dt: Picoseconds::new(0.05),
        }];
        let batch = run_probed_batch(&runs).unwrap();
        let solo = TransientSim::new(&tiny)
            .run_probed(&probes, Picoseconds::new(50.0), Picoseconds::new(0.05))
            .unwrap();
        assert_bit_identical(&batch[0], &solo, node, "tiny batch run");
    }

    #[test]
    fn batch_propagates_errors() {
        let mut bad = Circuit::new();
        let _ = bad.add_node("float");
        let (good, far) = long_ladder(16);
        let probes = [far];
        let no_probes: [NodeId; 0] = [];
        let runs = [
            BatchRun {
                circuit: &good,
                probes: &probes,
                t_end: Picoseconds::new(10.0),
                dt: Picoseconds::new(0.1),
            },
            BatchRun {
                circuit: &bad,
                probes: &no_probes,
                t_end: Picoseconds::new(10.0),
                dt: Picoseconds::new(0.1),
            },
        ];
        let err = run_probed_batch(&runs).unwrap_err();
        assert!(matches!(err, CircuitError::SingularSystem { .. }));
    }

    /// Random RC topology: a connected resistor tree plus chords, caps on
    /// every node, one stepped driver, and a sprinkle of switches.
    fn random_circuit(rng: &mut TestRng) -> Circuit {
        let n = 2 + rng.bounded(22) as usize;
        let mut ckt = Circuit::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| ckt.add_node(format!("n{i}"))).collect();
        for &node in &nodes {
            ckt.add_cap(node, Femtofarads::new(0.5 + 4.0 * rng.unit_f64()));
        }
        // Spanning tree keeps everything reachable.
        for i in 1..n {
            let parent = rng.bounded(i as u64) as usize;
            ckt.add_resistor(
                nodes[parent],
                nodes[i],
                KiloOhms::new(0.05 + rng.unit_f64()),
            );
        }
        // Chords raise the bandwidth unpredictably.
        for _ in 0..rng.bounded(4) {
            let a = rng.bounded(n as u64) as usize;
            let b = rng.bounded(n as u64) as usize;
            if a != b {
                ckt.add_resistor(nodes[a], nodes[b], KiloOhms::new(0.1 + rng.unit_f64()));
            }
        }
        let driven = rng.bounded(n as u64) as usize;
        let src = ckt.add_source(nodes[driven], KiloOhms::new(0.5), Volts::ZERO);
        ckt.schedule(src, Picoseconds::ZERO, Volts::new(VDD));
        if rng.gen_bool(0.5) {
            let a = rng.bounded(n as u64) as usize;
            ckt.add_switch_to_ground(
                nodes[a],
                KiloOhms::new(1.0 + rng.unit_f64()),
                Picoseconds::new(20.0),
            );
        }
        ckt
    }

    #[test]
    fn prop_sparse_and_dense_solvers_agree() {
        prop::check("sparse_dense_agreement", |rng| {
            let ckt = random_circuit(rng);
            let t_end = Picoseconds::new(60.0);
            let dt = Picoseconds::new(0.1);
            let dense = dense_oracle(&ckt, t_end, dt).unwrap();
            let banded = TransientSim::new(&ckt).run(t_end, dt).unwrap();
            for i in 0..ckt.node_count() {
                let node = NodeId(i);
                let (a, b) = (dense.waveform(node), banded.waveform(node));
                assert_eq!(a.len(), b.len());
                for s in 0..a.len() {
                    let (va, vb) = (a.at(s).value(), b.at(s).value());
                    assert!(
                        (va - vb).abs() < 1e-9,
                        "node {i} sample {s}: dense {va} vs banded {vb}"
                    );
                }
            }
            let (ea, eb) = (dense.supply_energy().value(), banded.supply_energy().value());
            assert!((ea - eb).abs() < 1e-6 * ea.abs().max(1.0), "{ea} vs {eb}");
        });
    }

    /// A ladder of 8–80 nodes inserted in shuffled order (so its RCM
    /// order is its own), with random elements and initial voltages, a
    /// stepped driver at one end and, half the time, a latching switch
    /// at the other: it reorders to half-bandwidth 1 and changes its
    /// factorization mid-run.
    fn random_ladder(rng: &mut TestRng) -> (Circuit, NodeId) {
        let n = 8 + rng.bounded(73) as usize;
        let mut ckt = Circuit::new();
        let ids: Vec<NodeId> = (0..n).map(|i| ckt.add_node(format!("n{i}"))).collect();
        let mut chain = ids.clone();
        rng.shuffle(&mut chain);
        for (i, &node) in chain.iter().enumerate() {
            ckt.add_cap(node, Femtofarads::new(0.2 + 3.0 * rng.unit_f64()));
            ckt.set_initial(node, Volts::new(VDD * rng.unit_f64()));
            if i > 0 {
                ckt.add_resistor(chain[i - 1], node, KiloOhms::new(0.02 + 0.5 * rng.unit_f64()));
            }
        }
        let src = ckt.add_source(chain[0], KiloOhms::new(0.2 + rng.unit_f64()), Volts::ZERO);
        ckt.schedule(src, Picoseconds::new(2.0 * rng.unit_f64()), Volts::new(VDD));
        let far = chain[n - 1];
        if rng.gen_bool(0.5) {
            ckt.add_vc_switch_to_ground(far, KiloOhms::new(1.0 + rng.unit_f64()), chain[n / 2], Volts::new(VDD / 2.0));
        }
        (ckt, far)
    }

    #[test]
    fn sweep_work_counters() {
        // One lane group: a 5-row column for 4 steps and a 3-row column
        // for 10. Node-steps are 5·4 + 3·10; the group sweeps 5 rows for
        // 4 steps, then 3 rows for the 6 steps after the tall one retires.
        let (tall, _) = long_ladder(5);
        let (short, _) = long_ladder(3);
        let probes = [NodeId(0)];
        let dt = Picoseconds::new(0.5);
        let runs = [
            BatchRun { circuit: &tall, probes: &probes, t_end: Picoseconds::new(2.0), dt },
            BatchRun { circuit: &short, probes: &probes, t_end: Picoseconds::new(5.0), dt },
        ];
        assert_eq!(runs.map(|r| r.steps()), [4, 10]);
        lim_obs::set_enabled(true);
        lim_obs::reset();
        run_probed_batch(&runs).unwrap();
        let report = lim_obs::Report::capture();
        assert_eq!(report.counter("transient.node_steps"), Some(50));
        assert_eq!(report.counter("transient.row_steps"), Some(4 * 5 + 6 * 3));
    }

    /// FNV-1a over the bits of every probed sample (probes in node
    /// order), every final voltage and every source's energy.
    fn result_digest(res: &TransientResult) -> u64 {
        let samples = res.waveforms.iter().flatten().flat_map(Waveform::samples);
        let energies = res.source_energy.iter().map(|e| e.value());
        samples
            .chain(&res.final_v)
            .copied()
            .chain(energies)
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
    }

    /// A driven ladder whose far end a switch pulls down: at 30 ps when
    /// `timed`, else once the middle node rises past half-Vdd.
    fn switched_ladder(n: usize, timed: bool) -> (Circuit, NodeId) {
        let (mut ckt, far) = long_ladder_r(n, 0.07);
        if timed {
            ckt.add_switch_to_ground(far, KiloOhms::new(1.0), Picoseconds::new(30.0));
        } else {
            ckt.add_vc_switch_to_ground(far, KiloOhms::new(1.5), NodeId(n / 2), Volts::new(VDD / 2.0));
        }
        (ckt, far)
    }

    /// A 30-node ladder with a chord every fifth node, so its RCM order
    /// has half-bandwidth above 1, and a timed switch mid-run.
    fn chorded_ladder() -> (Circuit, NodeId) {
        let (mut ckt, far) = long_ladder_r(30, 0.06);
        for i in (0..26).step_by(5) {
            ckt.add_resistor(NodeId(i), NodeId(i + 3), KiloOhms::new(0.4));
        }
        ckt.add_switch_to_ground(NodeId(12), KiloOhms::new(2.0), Picoseconds::new(15.0));
        (ckt, far)
    }

    #[test]
    fn engine_bits_are_pinned() {
        // Recorded when each panel row became one fused multiply-add
        // per recurrence; the wide run (an LU) and the one-row column
        // kept their digests. Every node is probed in the lone runs.
        let window = |t_end: f64, dt: f64| (Picoseconds::new(t_end), Picoseconds::new(dt));
        let lone = |ckt: &Circuit, (t_end, dt): (Picoseconds, Picoseconds)| {
            result_digest(&TransientSim::new(ckt).run(t_end, dt).unwrap())
        };
        let mut got: Vec<(String, u64)> = Vec::new();
        for n in [16, 64, 160] {
            // The `transient_ladder` bench circuit and window.
            got.push((format!("ladder_{n}"), lone(&long_ladder(n).0, window(200.0, 0.1))));
        }
        got.push(("timed_switch".into(), lone(&switched_ladder(40, true).0, window(80.0, 0.1))));
        got.push(("vc_switch".into(), lone(&switched_ladder(48, false).0, window(60.0, 0.05))));
        let (wide, wide_far) = chorded_ladder();
        let wide_probes = [wide_far];
        let wide_run = BatchRun {
            circuit: &wide,
            probes: &wide_probes,
            t_end: Picoseconds::new(60.0),
            dt: Picoseconds::new(0.1),
        };
        assert!(Column::new(&wide_run).k > 1, "the chorded ladder goes wide");
        got.push(("wide".into(), lone(&wide, window(60.0, 0.1))));

        // Nine tridiagonal runs, three lane groups: the tallest column
        // retires first, every run has its own Δt and window, and the
        // last one carries two sources on one node and a third mid-way.
        let (mut multi, multi_far) = long_ladder_r(24, 0.09);
        let extra = multi.add_source(NodeId(0), KiloOhms::new(0.8), Volts::new(VDD));
        multi.schedule(extra, Picoseconds::new(25.0), Volts::ZERO);
        let mid = multi.add_source(NodeId(12), KiloOhms::new(2.0), Volts::ZERO);
        multi.schedule(mid, Picoseconds::new(10.0), Volts::new(VDD / 2.0));
        let mix: Vec<((Circuit, NodeId), f64, f64)> = vec![
            (long_ladder(120), 30.0, 0.1),
            (long_ladder_r(80, 0.08), 60.0, 0.07),
            (switched_ladder(40, true), 80.0, 0.1),
            (long_ladder(16), 100.0, 0.13),
            (switched_ladder(48, false), 50.0, 0.05),
            (long_ladder_r(64, 0.03), 90.0, 0.2),
            (long_ladder(1), 20.0, 0.05),
            (long_ladder_r(100, 0.05), 40.0, 0.11),
            ((multi, multi_far), 70.0, 0.09),
        ];
        let probes: Vec<[NodeId; 2]> = mix.iter().map(|((_, far), _, _)| [NodeId(0), *far]).collect();
        let runs: Vec<BatchRun<'_>> = mix
            .iter()
            .zip(&probes)
            .map(|(((ckt, _), t_end, dt), p)| BatchRun {
                circuit: ckt,
                probes: p,
                t_end: Picoseconds::new(*t_end),
                dt: Picoseconds::new(*dt),
            })
            .collect();
        for (i, res) in run_probed_batch(&runs).unwrap().iter().enumerate() {
            got.push((format!("batch_{i}"), result_digest(res)));
        }

        let want: [(&str, u64); 15] = [
            ("ladder_16", 0xad79_a357_f063_74d2),
            ("ladder_64", 0x828d_563f_0b3b_02b0),
            ("ladder_160", 0x249a_0758_5d4c_97c7),
            ("timed_switch", 0x6031_4899_35af_311f),
            ("vc_switch", 0xf484_0079_6fc7_30f9),
            ("wide", 0x196e_53fd_111d_ecd3),
            ("batch_0", 0x1fa2_7ef1_f370_92ea),
            ("batch_1", 0xca24_da8f_5639_ea34),
            ("batch_2", 0xc03e_155f_6cb0_a2f5),
            ("batch_3", 0x7ab8_0110_4c84_9ac8),
            ("batch_4", 0x5663_0be3_15c0_8862),
            ("batch_5", 0x1e57_a80d_de55_ba26),
            ("batch_6", 0x8fa7_13eb_2037_cdb3),
            ("batch_7", 0x3abd_da58_f1d9_9e34),
            ("batch_8", 0x891c_781d_8aaf_c13b),
        ];
        let want: Vec<(String, u64)> = want.iter().map(|&(n, d)| (n.to_string(), d)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn prop_batched_runs_match_sequential() {
        // 1–9 runs per case, each with its own Δt, window and size:
        // ladders share one padded tridiagonal panel and retire at
        // different steps; chorded random circuits may go wide.
        prop::check("batch_sequential_agreement", |rng| {
            let count = 1 + rng.bounded(9) as usize;
            let circuits: Vec<(Circuit, NodeId)> = (0..count)
                .map(|_| {
                    if rng.gen_bool(0.6) {
                        random_ladder(rng)
                    } else {
                        (random_circuit(rng), NodeId(0))
                    }
                })
                .collect();
            let windows: Vec<(Picoseconds, Picoseconds)> = (0..count)
                .map(|_| {
                    let dt = 0.03 + 0.2 * rng.unit_f64();
                    (Picoseconds::new(dt * (20 + rng.bounded(400)) as f64), Picoseconds::new(dt))
                })
                .collect();
            let probes: Vec<[NodeId; 2]> = circuits.iter().map(|(_, far)| [NodeId(0), *far]).collect();
            let runs: Vec<BatchRun<'_>> = circuits
                .iter()
                .zip(&probes)
                .zip(&windows)
                .map(|(((c, _), p), &(t_end, dt))| BatchRun {
                    circuit: c,
                    probes: p,
                    t_end,
                    dt,
                })
                .collect();
            let batch = run_probed_batch(&runs).unwrap();
            for (i, run) in runs.iter().enumerate() {
                let solo = TransientSim::new(run.circuit)
                    .run_probed(run.probes, run.t_end, run.dt)
                    .unwrap();
                for &probe in run.probes {
                    assert_bit_identical(&batch[i], &solo, probe, &format!("run {i} of {count}"));
                }
            }
        });
    }
}
