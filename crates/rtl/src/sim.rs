//! Event-driven two-value gate simulation with switching-activity capture.
//!
//! The paper's flow runs Modelsim to produce a switching-activity file
//! (.saif) that PrimeTime consumes for power analysis. [`Simulator`] plays
//! the Modelsim role: it evaluates the combinational logic in topological
//! order, updates flip-flops on [`step`](Simulator::step), and counts
//! per-net toggles into a [`SwitchingActivity`] that `lim-physical`'s
//! power analysis consumes.
//!
//! Brick macros are not simulated at the gate level (their behaviour lives
//! in the brick library); their output nets can be forced with
//! [`force_net`](Simulator::force_net) when a testbench needs them.

use crate::error::RtlError;
use crate::ir::{CellId, CellKind, NetId, Netlist};
use crate::stdcell::StdCellKind;

/// Per-net toggle statistics accumulated over a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchingActivity {
    toggles: Vec<u64>,
    cycles: u64,
}

impl SwitchingActivity {
    /// Toggles counted on `net`.
    pub fn toggles(&self, net: NetId) -> u64 {
        self.toggles[net.index()]
    }

    /// Clock cycles simulated.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Average toggle rate of `net` per cycle (0.0 when no cycles ran).
    pub fn toggle_rate(&self, net: NetId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.toggles[net.index()] as f64 / self.cycles as f64
        }
    }

    /// A uniform default activity (used when no testbench is available):
    /// every net toggles at `rate` per cycle.
    pub fn uniform(net_count: usize, rate: f64, cycles: u64) -> Self {
        let per_net = (rate * cycles as f64).round() as u64;
        SwitchingActivity {
            toggles: vec![per_net; net_count],
            cycles,
        }
    }
}

/// Gate-level simulator over a validated [`Netlist`].
#[derive(Debug, Clone)]
pub struct Simulator<'n> {
    netlist: &'n Netlist,
    order: Vec<CellId>,
    values: Vec<bool>,
    /// Next-state values for sequential cells, captured before the edge.
    toggles: Vec<u64>,
    cycles: u64,
    /// Nets forced by the testbench (e.g. macro outputs).
    forced: Vec<Option<bool>>,
}

impl<'n> Simulator<'n> {
    /// Prepares a simulator; validates the netlist and computes the
    /// combinational evaluation order.
    ///
    /// # Errors
    ///
    /// Propagates validation errors (undriven nets, loops, …).
    pub fn new(netlist: &'n Netlist) -> Result<Self, RtlError> {
        let order = netlist.validate()?;
        Ok(Simulator {
            netlist,
            order,
            values: vec![false; netlist.net_count()],
            toggles: vec![0; netlist.net_count()],
            cycles: 0,
            forced: vec![None; netlist.net_count()],
        })
    }

    /// Forces `net` to `value` until [`release_net`](Self::release_net);
    /// used to drive macro outputs from a behavioural model.
    pub fn force_net(&mut self, net: NetId, value: bool) {
        self.forced[net.index()] = Some(value);
        self.values[net.index()] = value;
    }

    /// Removes a force.
    pub fn release_net(&mut self, net: NetId) {
        self.forced[net.index()] = None;
    }

    /// Current value of a net.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    fn non_clock_inputs(&self) -> Vec<NetId> {
        self.netlist
            .primary_inputs()
            .iter()
            .copied()
            .filter(|&n| Some(n) != self.netlist.clock())
            .collect()
    }

    fn apply_inputs(&mut self, inputs: &[bool]) -> Result<(), RtlError> {
        let pins = self.non_clock_inputs();
        if inputs.len() != pins.len() {
            return Err(RtlError::WrongInputCount {
                expected: pins.len(),
                got: inputs.len(),
            });
        }
        for (&net, &v) in pins.iter().zip(inputs) {
            self.values[net.index()] = v;
        }
        Ok(())
    }

    fn propagate(&mut self) {
        for &cid in &self.order {
            let cell = self.netlist.cell(cid);
            match &cell.kind {
                CellKind::Gate { kind, .. } => {
                    let ins: Vec<bool> =
                        cell.inputs.iter().map(|&n| self.values[n.index()]).collect();
                    let out = kind.eval(&ins);
                    let o = cell.outputs[0].index();
                    if self.forced[o].is_none() {
                        self.values[o] = out;
                    }
                }
                CellKind::Tie { value } => {
                    let o = cell.outputs[0].index();
                    if self.forced[o].is_none() {
                        self.values[o] = *value;
                    }
                }
                CellKind::Macro { .. } => { /* behaviour supplied via force_net */ }
            }
        }
    }

    fn read_outputs(&self) -> Vec<bool> {
        self.netlist
            .primary_outputs()
            .iter()
            .map(|&n| self.values[n.index()])
            .collect()
    }

    /// Combinational evaluation: applies `inputs` (all primary inputs
    /// except the clock, in declaration order), settles the logic and
    /// returns the primary outputs.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::WrongInputCount`] on arity mismatch.
    pub fn eval(&mut self, inputs: &[bool]) -> Result<Vec<bool>, RtlError> {
        self.apply_inputs(inputs)?;
        self.propagate();
        Ok(self.read_outputs())
    }

    /// One full clock cycle: applies inputs, settles, clocks every
    /// flip-flop, settles again, accumulates toggle counts, and returns
    /// the post-edge primary outputs.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::WrongInputCount`] on arity mismatch.
    pub fn step(&mut self, inputs: &[bool]) -> Result<Vec<bool>, RtlError> {
        let before = self.values.clone();
        self.apply_inputs(inputs)?;
        self.propagate();

        // Capture D pins, then update Q outputs simultaneously.
        let mut updates: Vec<(usize, bool)> = Vec::new();
        for cell in self.netlist.cells() {
            if let CellKind::Gate { kind, .. } = &cell.kind {
                match kind {
                    StdCellKind::Dff => {
                        let d = self.values[cell.inputs[0].index()];
                        updates.push((cell.outputs[0].index(), d));
                    }
                    StdCellKind::DffEn => {
                        let d = self.values[cell.inputs[0].index()];
                        let en = self.values[cell.inputs[1].index()];
                        let q = cell.outputs[0].index();
                        updates.push((q, if en { d } else { self.values[q] }));
                    }
                    _ => {}
                }
            }
        }
        for (net, v) in updates {
            if self.forced[net].is_none() {
                self.values[net] = v;
            }
        }
        self.propagate();

        for (i, (&now, &was)) in self.values.iter().zip(&before).enumerate() {
            if now != was {
                self.toggles[i] += 1;
            }
        }
        // The clock itself toggles twice per cycle.
        if let Some(clk) = self.netlist.clock() {
            self.toggles[clk.index()] += 2;
        }
        self.cycles += 1;
        Ok(self.read_outputs())
    }

    /// The accumulated switching activity.
    pub fn activity(&self) -> SwitchingActivity {
        SwitchingActivity {
            toggles: self.toggles.clone(),
            cycles: self.cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Netlist;
    use crate::stdcell::StdCellKind;

    fn toy_comb() -> Netlist {
        let mut n = Netlist::new("toy");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_gate(StdCellKind::Xor2, 1.0, &[a, b], "x").unwrap();
        n.mark_output(x);
        n
    }

    #[test]
    fn eval_xor() {
        let n = toy_comb();
        let mut sim = Simulator::new(&n).unwrap();
        assert_eq!(sim.eval(&[true, false]).unwrap(), vec![true]);
        assert_eq!(sim.eval(&[true, true]).unwrap(), vec![false]);
    }

    #[test]
    fn wrong_input_count() {
        let n = toy_comb();
        let mut sim = Simulator::new(&n).unwrap();
        assert!(matches!(
            sim.eval(&[true]),
            Err(RtlError::WrongInputCount { .. })
        ));
    }

    #[test]
    fn dff_pipeline_delays_one_cycle() {
        let mut n = Netlist::new("pipe");
        n.add_clock("clk");
        let d = n.add_input("d");
        let q = n.add_dff(d, 1.0, "q");
        n.mark_output(q);
        let mut sim = Simulator::new(&n).unwrap();
        assert_eq!(sim.step(&[true]).unwrap(), vec![true]);
        assert_eq!(sim.step(&[false]).unwrap(), vec![false]);
        assert_eq!(sim.step(&[true]).unwrap(), vec![true]);
    }

    #[test]
    fn activity_counts_toggles() {
        let mut n = Netlist::new("tgl");
        n.add_clock("clk");
        let d = n.add_input("d");
        let q = n.add_dff(d, 1.0, "q");
        n.mark_output(q);
        let mut sim = Simulator::new(&n).unwrap();
        // d alternates: q toggles every cycle.
        for i in 0..10 {
            sim.step(&[i % 2 == 0]).unwrap();
        }
        let act = sim.activity();
        assert_eq!(act.cycles(), 10);
        assert!(act.toggle_rate(q) > 0.8);
        // The clock toggles twice per cycle.
        let clk = n.clock().unwrap();
        assert_eq!(act.toggles(clk), 20);
    }

    #[test]
    fn forced_macro_outputs_hold() {
        let mut n = Netlist::new("macro");
        let clk = n.add_clock("clk");
        let outs = n.add_macro("u_brick", "brick_x", &[clk], 2, "arbl");
        let merged = n
            .add_gate(StdCellKind::And2, 1.0, &[outs[0], outs[1]], "both")
            .unwrap();
        n.mark_output(merged);
        let mut sim = Simulator::new(&n).unwrap();
        sim.force_net(outs[0], true);
        sim.force_net(outs[1], true);
        assert_eq!(sim.step(&[]).unwrap(), vec![true]);
        sim.force_net(outs[1], false);
        assert_eq!(sim.step(&[]).unwrap(), vec![false]);
    }

    #[test]
    fn uniform_activity() {
        let act = SwitchingActivity::uniform(4, 0.25, 100);
        assert_eq!(act.cycles(), 100);
        assert!((act.toggle_rate(NetId(2)) - 0.25).abs() < 1e-9);
    }
}
