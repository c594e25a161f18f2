//! Event-driven two-value gate simulation with switching-activity capture.
//!
//! The paper's flow runs Modelsim to produce a switching-activity file
//! (.saif) that PrimeTime consumes for power analysis. [`Simulator`] plays
//! the Modelsim role: it evaluates the combinational logic in topological
//! order, updates flip-flops on [`step`](Simulator::step), and counts
//! per-net toggles into a [`SwitchingActivity`] that `lim-physical`'s
//! power analysis consumes.
//!
//! Brick macros are sequential cells whose behaviour lives outside the
//! gate level: a [`MacroModel`] attached with [`Simulator::attach`]
//! supplies it. At each clock edge the simulator hands every attached
//! model the macro's input pins as they settled before the edge and
//! takes back the outputs that launch from that edge, together with the
//! flip-flop updates — the timing [`CellKind::Macro`] documents. A macro
//! without a model holds its outputs low.

use crate::error::RtlError;
use crate::ir::{CellId, CellKind, NetId, Netlist};
use crate::stdcell::StdCellKind;
use std::any::Any;
use std::fmt;

/// The behaviour of a macro cell under simulation.
pub trait MacroModel: Any + fmt::Debug {
    /// One clock edge. `inputs` are the macro's input pins, in pin
    /// order, as they settled before the edge; `outputs` hold what the
    /// previous edge launched, and the model overwrites what this edge
    /// launches.
    fn edge(&mut self, inputs: &[bool], outputs: &mut [bool]);
}

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
#[derive(Debug)]
pub struct Simulator<'n> {
    netlist: &'n Netlist,
    order: Vec<CellId>,
    values: Vec<bool>,
    toggles: Vec<u64>,
    cycles: u64,
    /// Behaviour of macro cells, one model per attached macro.
    models: Vec<(CellId, Box<dyn MacroModel>)>,
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
            models: Vec::new(),
        })
    }

    /// Makes `model` the behaviour of macro `cell`, replacing any model
    /// attached to it before.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::MacroModel`] when `cell` is not a macro of
    /// this netlist.
    pub fn attach(&mut self, cell: CellId, model: Box<dyn MacroModel>) -> Result<(), RtlError> {
        let c = self.netlist.cell(cell);
        if !matches!(c.kind, CellKind::Macro { .. }) {
            return Err(RtlError::MacroModel {
                cell: c.name.clone(),
                reason: "not a macro cell".into(),
            });
        }
        self.models.retain(|(c, _)| *c != cell);
        self.models.push((cell, model));
        Ok(())
    }

    /// The model attached to macro `cell`, when it is an `M`.
    pub fn model_mut<M: MacroModel>(&mut self, cell: CellId) -> Option<&mut M> {
        let (_, model) = self.models.iter_mut().find(|(c, _)| *c == cell)?;
        (model.as_mut() as &mut dyn Any).downcast_mut()
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
                    self.values[cell.outputs[0].index()] = kind.eval(&ins);
                }
                CellKind::Tie { value } => self.values[cell.outputs[0].index()] = *value,
                // Outputs change only at the edge, from the attached model.
                CellKind::Macro { .. } => {}
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
    /// flip-flop and attached macro model, settles again, accumulates
    /// toggle counts, and returns the post-edge primary outputs.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::WrongInputCount`] on arity mismatch.
    pub fn step(&mut self, inputs: &[bool]) -> Result<Vec<bool>, RtlError> {
        let before = self.values.clone();
        self.apply_inputs(inputs)?;
        self.propagate();

        // Capture every flop's and macro's next state from the pre-edge
        // values, then update them simultaneously.
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
        for (cid, model) in &mut self.models {
            let cell = self.netlist.cell(*cid);
            let pins = |nets: &[NetId]| nets.iter().map(|&n| self.values[n.index()]).collect();
            let ins: Vec<bool> = pins(&cell.inputs);
            let mut outs: Vec<bool> = pins(&cell.outputs);
            model.edge(&ins, &mut outs);
            updates.extend(cell.outputs.iter().map(|n| n.index()).zip(outs));
        }
        for (net, v) in updates {
            self.values[net] = v;
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

    /// A one-bit register as a macro: launches its pre-edge input.
    #[derive(Debug)]
    struct Latch;

    impl MacroModel for Latch {
        fn edge(&mut self, inputs: &[bool], outputs: &mut [bool]) {
            outputs[0] = inputs[1];
        }
    }

    #[test]
    fn macro_outputs_launch_from_the_edge_and_hold_between_edges() {
        let mut n = Netlist::new("macro");
        let clk = n.add_clock("clk");
        let d = n.add_input("d");
        let q = n.add_macro("u_latch", "latch", &[clk, d], 1, "q")[0];
        let y = n.add_gate(StdCellKind::Buf, 1.0, &[q], "y").unwrap();
        n.mark_output(y);
        let mut sim = Simulator::new(&n).unwrap();
        // Unmodeled, the macro holds its outputs low.
        assert_eq!(sim.step(&[true]).unwrap(), vec![false]);
        let cell = CellId(n.cells().iter().position(|c| c.name == "u_latch").unwrap());
        sim.attach(cell, Box::new(Latch)).unwrap();
        assert!(sim.model_mut::<Latch>(cell).is_some());
        assert_eq!(sim.step(&[true]).unwrap(), vec![true]);
        // Settling new inputs moves nothing until the next edge.
        assert_eq!(sim.eval(&[false]).unwrap(), vec![true]);
        assert_eq!(sim.step(&[false]).unwrap(), vec![false]);
        // Only macros take models.
        let buf = CellId(n.cells().iter().position(|c| c.name == "u_y").unwrap());
        assert!(matches!(
            sim.attach(buf, Box::new(Latch)),
            Err(RtlError::MacroModel { .. })
        ));
    }

    #[test]
    fn uniform_activity() {
        let act = SwitchingActivity::uniform(4, 0.25, 100);
        assert_eq!(act.cycles(), 100);
        assert!((act.toggle_rate(NetId(2)) - 0.25).abs() < 1e-9);
    }
}
