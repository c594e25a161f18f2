//! Flat gate-level structural netlist.
//!
//! A [`Netlist`] holds named nets and cells (standard-cell gates, DFFs,
//! constant ties and brick macros) in a single clock domain. It is the
//! exchange format between the generators (`generators`), the optimizer
//! (`mapping`), the simulator (`sim`) and the physical flow
//! (`lim-physical`).

use crate::error::RtlError;
use crate::stdcell::StdCellKind;
use lim_tech::units::SquareMicrons;
use lim_tech::Technology;

/// Identifier of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) usize);

impl NetId {
    /// The raw index (stable for the lifetime of the netlist).
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs a `NetId` from an index previously obtained with
    /// [`index`](Self::index). The caller must ensure it belongs to the
    /// same netlist.
    pub fn from_index(index: usize) -> Self {
        NetId(index)
    }
}

/// Identifier of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub(crate) usize);

impl CellId {
    /// The raw index (stable for the lifetime of the netlist).
    pub fn index(self) -> usize {
        self.0
    }
}

/// What a cell is.
#[derive(Debug, Clone, PartialEq)]
pub enum CellKind {
    /// A standard cell at a drive strength.
    Gate {
        /// The cell kind.
        kind: StdCellKind,
        /// Drive strength in unit-inverter multiples.
        drive: f64,
    },
    /// A memory-brick bank macro, referenced by its library entry name.
    /// All inputs are setup-checked against the clock; all outputs launch
    /// from the clock (sequential behaviour).
    Macro {
        /// Name of the `lim-brick` library entry.
        lib_name: String,
    },
    /// A constant driver.
    Tie {
        /// The constant value.
        value: bool,
    },
}

impl CellKind {
    /// True for cells whose outputs launch from the clock.
    pub fn is_sequential(&self) -> bool {
        match self {
            CellKind::Gate { kind, .. } => kind.is_sequential(),
            CellKind::Macro { .. } => true,
            CellKind::Tie { .. } => false,
        }
    }
}

/// One cell instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Instance name.
    pub name: String,
    /// What the cell is.
    pub kind: CellKind,
    /// Input nets, in pin order.
    pub inputs: Vec<NetId>,
    /// Output nets, in pin order.
    pub outputs: Vec<NetId>,
}

/// A flat single-clock gate-level netlist.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Netlist {
    name: String,
    net_names: Vec<String>,
    cells: Vec<Cell>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
    clock: Option<NetId>,
}

impl Netlist {
    /// An empty netlist called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            ..Netlist::default()
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an internal net.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        self.net_names.push(name.into());
        NetId(self.net_names.len() - 1)
    }

    /// Adds a primary input (a driven net).
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.primary_inputs.push(id);
        id
    }

    /// Declares the clock input (also a primary input).
    pub fn add_clock(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_input(name);
        self.clock = Some(id);
        id
    }

    /// Marks an existing net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        self.primary_outputs.push(net);
    }

    /// Adds a combinational gate driving a fresh net named `out_name`.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::WrongPinCount`] if `inputs` does not match the
    /// cell's arity.
    pub fn add_gate(
        &mut self,
        kind: StdCellKind,
        drive: f64,
        inputs: &[NetId],
        out_name: impl Into<String>,
    ) -> Result<NetId, RtlError> {
        if kind.is_sequential() {
            return Err(RtlError::WrongPinCount {
                cell: kind.name(),
                expected: kind.input_count(),
                got: usize::MAX,
            });
        }
        if inputs.len() != kind.input_count() {
            return Err(RtlError::WrongPinCount {
                cell: kind.name(),
                expected: kind.input_count(),
                got: inputs.len(),
            });
        }
        let out_name = out_name.into();
        let out = self.add_net(out_name.clone());
        self.cells.push(Cell {
            name: format!("u_{out_name}"),
            kind: CellKind::Gate { kind, drive },
            inputs: inputs.to_vec(),
            outputs: vec![out],
        });
        Ok(out)
    }

    /// Adds a D flip-flop driving a fresh net named `q_name`.
    pub fn add_dff(&mut self, d: NetId, drive: f64, q_name: impl Into<String>) -> NetId {
        let q_name = q_name.into();
        let q = self.add_net(q_name.clone());
        self.cells.push(Cell {
            name: format!("u_{q_name}"),
            kind: CellKind::Gate {
                kind: StdCellKind::Dff,
                drive,
            },
            inputs: vec![d],
            outputs: vec![q],
        });
        q
    }

    /// Adds an enabled D flip-flop driving a fresh net named `q_name`.
    pub fn add_dff_en(
        &mut self,
        d: NetId,
        en: NetId,
        drive: f64,
        q_name: impl Into<String>,
    ) -> NetId {
        let q_name = q_name.into();
        let q = self.add_net(q_name.clone());
        self.cells.push(Cell {
            name: format!("u_{q_name}"),
            kind: CellKind::Gate {
                kind: StdCellKind::DffEn,
                drive,
            },
            inputs: vec![d, en],
            outputs: vec![q],
        });
        q
    }

    /// Adds a constant driver.
    pub fn add_tie(&mut self, value: bool, name: impl Into<String>) -> NetId {
        let name = name.into();
        let out = self.add_net(name.clone());
        self.cells.push(Cell {
            name: format!("u_{name}"),
            kind: CellKind::Tie { value },
            inputs: Vec::new(),
            outputs: vec![out],
        });
        out
    }

    /// Adds a brick macro with `inputs` pins and `n_outputs` fresh output
    /// nets named `prefix[i]`.
    pub fn add_macro(
        &mut self,
        instance: impl Into<String>,
        lib_name: impl Into<String>,
        inputs: &[NetId],
        n_outputs: usize,
        prefix: &str,
    ) -> Vec<NetId> {
        let outs: Vec<NetId> = (0..n_outputs)
            .map(|i| self.add_net(format!("{prefix}[{i}]")))
            .collect();
        self.cells.push(Cell {
            name: instance.into(),
            kind: CellKind::Macro {
                lib_name: lib_name.into(),
            },
            inputs: inputs.to_vec(),
            outputs: outs.clone(),
        });
        outs
    }

    /// Adds a fully specified cell whose nets already exist — the escape
    /// hatch for sequential feedback (ring counters, FSMs), where an
    /// output net must be created before its driver. Prefer
    /// [`add_gate`](Self::add_gate) / [`add_dff`](Self::add_dff) for
    /// feed-forward logic; [`validate`](Self::validate) still checks the
    /// result.
    pub fn splice_cell(&mut self, cell: Cell) -> CellId {
        self.cells.push(cell);
        CellId(self.cells.len() - 1)
    }

    /// Replaces the cell at `index` wholesale (used by optimization
    /// passes, e.g. constant folding swapping a gate for a tie).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn replace_cell(&mut self, index: usize, cell: Cell) {
        self.cells[index] = cell;
    }

    /// Keeps only cells whose flag is `true`; returns how many were
    /// removed. Existing [`CellId`]s are invalidated.
    pub fn retain_cells(&mut self, keep: &[bool]) -> usize {
        let before = self.cells.len();
        let mut i = 0;
        self.cells.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
        before - self.cells.len()
    }

    /// Rewires input pin `pin` of `cell` to `net`.
    ///
    /// # Panics
    ///
    /// Panics if the cell or pin index is out of range.
    pub fn rewire_input(&mut self, cell: CellId, pin: usize, net: NetId) {
        self.cells[cell.0].inputs[pin] = net;
    }

    /// Nets count.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Cells count.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Name of a net.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.0]
    }

    /// The cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// One cell.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0]
    }

    /// Primary inputs (including the clock, if declared).
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Primary outputs.
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }

    /// The clock net, if declared.
    pub fn clock(&self) -> Option<NetId> {
        self.clock
    }

    /// Map from net index to its driving cell (if any).
    pub fn driver_map(&self) -> Vec<Option<CellId>> {
        let mut map = vec![None; self.net_count()];
        for (i, cell) in self.cells.iter().enumerate() {
            for &o in &cell.outputs {
                map[o.0] = Some(CellId(i));
            }
        }
        map
    }

    /// The `(cell, input-pin)` loads of every net, in one flat array.
    ///
    /// # Panics
    ///
    /// Panics if a cell input names a net that does not exist;
    /// [`validate`](Self::validate) reports that as an error instead.
    pub fn fanout(&self) -> Fanout {
        let mut counts = vec![0usize; self.net_count()];
        for cell in &self.cells {
            for &n in &cell.inputs {
                counts[n.0] += 1;
            }
        }
        Fanout::fill(&self.cells, counts)
    }

    /// Total standard-cell area (macros excluded — their area comes from
    /// the brick library).
    pub fn stdcell_area(&self, tech: &Technology) -> SquareMicrons {
        let mut a = 0.0;
        for cell in &self.cells {
            if let CellKind::Gate { kind, drive } = &cell.kind {
                a += kind.area(tech, *drive).value();
            }
        }
        SquareMicrons::new(a)
    }

    /// Checks structural sanity — every net has exactly one driver (or
    /// is a primary input), pin arities match, and the combinational
    /// part is acyclic — and returns the [`topo_order`](Self::topo_order)
    /// of the combinational cells, so a caller that needs both pays for
    /// one connectivity pass.
    ///
    /// # Errors
    ///
    /// The first violation, looking in this order: cells in index order
    /// (a gate's arity, then its output nets, then its input nets must
    /// exist); then nets in index order (more than one driver, or no
    /// driver while a cell or primary output reads the net); then a
    /// combinational loop.
    pub fn validate(&self) -> Result<Vec<CellId>, RtlError> {
        let nets = self.net_count();
        let mut drivers = vec![0usize; nets];
        for &pi in &self.primary_inputs {
            drivers[pi.0] += 1;
        }
        // Load counts double as the first counting pass of the fanout.
        let mut loads = vec![0usize; nets];
        for cell in &self.cells {
            if let CellKind::Gate { kind, .. } = &cell.kind {
                let expected = kind.input_count();
                if cell.inputs.len() != expected {
                    return Err(RtlError::WrongPinCount {
                        cell: kind.name(),
                        expected,
                        got: cell.inputs.len(),
                    });
                }
            }
            for &o in &cell.outputs {
                *drivers.get_mut(o.0).ok_or(RtlError::UnknownNet(o.0))? += 1;
            }
            for &i in &cell.inputs {
                *loads.get_mut(i.0).ok_or(RtlError::UnknownNet(i.0))? += 1;
            }
        }
        // A net is used when a cell reads it or it is a primary output.
        let mut used: Vec<bool> = loads.iter().map(|&l| l > 0).collect();
        for &po in &self.primary_outputs {
            if let Some(u) = used.get_mut(po.0) {
                *u = true;
            }
        }
        for (n, &d) in drivers.iter().enumerate() {
            if d > 1 {
                return Err(RtlError::MultipleDrivers {
                    net: self.net_names[n].clone(),
                });
            }
            if d == 0 && used[n] {
                return Err(RtlError::Undriven {
                    net: self.net_names[n].clone(),
                });
            }
        }
        self.order_with(&Fanout::fill(&self.cells, loads))
    }

    /// Topological order of the *combinational* cells (sequential cells
    /// and macros break the ordering, as their outputs are cycle
    /// boundaries).
    ///
    /// The order is Kahn's algorithm with a LIFO stack: the stack starts
    /// with every combinational cell that no combinational cell feeds,
    /// pushed in cell-index order; each popped cell releases its
    /// outputs' loads in (cell, pin) order, and a load whose last
    /// combinational input was released is pushed.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::CombinationalLoop`] naming the lowest-index
    /// combinational cell left on or behind a cycle.
    ///
    /// # Panics
    ///
    /// Panics if a cell input names a net that does not exist.
    pub fn topo_order(&self) -> Result<Vec<CellId>, RtlError> {
        self.order_with(&self.fanout())
    }

    fn order_with(&self, fanout: &Fanout) -> Result<Vec<CellId>, RtlError> {
        let cells = &self.cells;
        let comb: Vec<bool> = cells.iter().map(|c| !c.kind.is_sequential()).collect();
        // In-degree of each combinational cell = number of its input
        // pins driven by combinational cells.
        let mut indeg = vec![0usize; cells.len()];
        for (d, cell) in cells.iter().enumerate() {
            if comb[d] {
                for &out in &cell.outputs {
                    for &(load, _) in fanout.loads(out) {
                        if comb[load.0] {
                            indeg[load.0] += 1;
                        }
                    }
                }
            }
        }
        let mut stack: Vec<usize> = (0..cells.len())
            .filter(|&i| comb[i] && indeg[i] == 0)
            .collect();
        let comb_total = comb.iter().filter(|&&c| c).count();
        let mut order = Vec::with_capacity(comb_total);
        while let Some(i) = stack.pop() {
            order.push(CellId(i));
            for &out in &cells[i].outputs {
                for &(load, _) in fanout.loads(out) {
                    if comb[load.0] {
                        indeg[load.0] -= 1;
                        if indeg[load.0] == 0 {
                            stack.push(load.0);
                        }
                    }
                }
            }
        }
        if order.len() != comb_total {
            let stuck = (0..cells.len())
                .find(|&i| comb[i] && indeg[i] > 0)
                .expect("some cell is on the loop");
            return Err(RtlError::CombinationalLoop {
                cell: cells[stuck].name.clone(),
            });
        }
        Ok(order)
    }
}

/// Input-pin loads of every net in compressed sparse rows: the loads of
/// net `n` are `loads[offsets[n]..offsets[n + 1]]`, in (cell, pin)
/// order. Two flat arrays replace one `Vec` per net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fanout {
    offsets: Vec<usize>,
    loads: Vec<(CellId, usize)>,
}

impl Fanout {
    /// Builds the rows from per-net load counts (the first counting
    /// pass). A prefix sum turns the counts into row ends; the second
    /// pass walks the cells backwards, moving each row end down to its
    /// row start as it places loads, so they land in (cell, pin) order
    /// without a cursor array.
    fn fill(cells: &[Cell], mut offsets: Vec<usize>) -> Fanout {
        let mut total = 0;
        for o in &mut offsets {
            total += *o;
            *o = total;
        }
        offsets.push(total);
        let mut loads = vec![(CellId(0), 0); total];
        for (c, cell) in cells.iter().enumerate().rev() {
            for (p, &n) in cell.inputs.iter().enumerate().rev() {
                offsets[n.0] -= 1;
                loads[offsets[n.0]] = (CellId(c), p);
            }
        }
        Fanout { offsets, loads }
    }

    /// Nets covered (the netlist's net count when this was built).
    pub fn net_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of input pins reading `net`.
    pub fn count(&self, net: NetId) -> usize {
        self.offsets[net.0 + 1] - self.offsets[net.0]
    }

    /// The `(cell, input-pin)` loads of `net`, in cell then pin order.
    pub fn loads(&self, net: NetId) -> &[(CellId, usize)] {
        &self.loads[self.offsets[net.0]..self.offsets[net.0 + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::cmos65()
    }

    #[test]
    fn build_validate_small() {
        let mut n = Netlist::new("toy");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_gate(StdCellKind::Nand2, 1.0, &[a, b], "x").unwrap();
        let y = n.add_gate(StdCellKind::Inv, 2.0, &[x], "y").unwrap();
        n.mark_output(y);
        assert!(n.validate().is_ok());
        assert_eq!(n.cell_count(), 2);
        assert_eq!(n.net_count(), 4);
        assert!(n.stdcell_area(&tech()).value() > 0.0);
    }

    #[test]
    fn wrong_arity_rejected() {
        let mut n = Netlist::new("toy");
        let a = n.add_input("a");
        let err = n.add_gate(StdCellKind::Nand2, 1.0, &[a], "x").unwrap_err();
        assert!(matches!(err, RtlError::WrongPinCount { .. }));
    }

    #[test]
    fn undriven_net_detected() {
        let mut n = Netlist::new("toy");
        let floating = n.add_net("floating");
        let x = n
            .add_gate(StdCellKind::Inv, 1.0, &[floating], "x")
            .unwrap();
        n.mark_output(x);
        assert!(matches!(n.validate(), Err(RtlError::Undriven { .. })));
    }

    #[test]
    fn comb_loop_detected() {
        let mut n = Netlist::new("loop");
        let a = n.add_net("a");
        let b = n.add_gate(StdCellKind::Inv, 1.0, &[a], "b").unwrap();
        // Close the loop: another inverter from b driving a. We must splice
        // manually since add_gate always makes fresh nets.
        n.cells.push(Cell {
            name: "u_loop".into(),
            kind: CellKind::Gate {
                kind: StdCellKind::Inv,
                drive: 1.0,
            },
            inputs: vec![b],
            outputs: vec![a],
        });
        n.mark_output(b);
        assert!(matches!(
            n.validate(),
            Err(RtlError::CombinationalLoop { .. })
        ));
    }

    #[test]
    fn dff_breaks_loops() {
        let mut n = Netlist::new("counter_bit");
        n.add_clock("clk");
        let q_fb = n.add_net("q");
        let d = n.add_gate(StdCellKind::Inv, 1.0, &[q_fb], "d").unwrap();
        // DFF from d back to q (manual splice for the feedback net).
        n.cells.push(Cell {
            name: "u_q".into(),
            kind: CellKind::Gate {
                kind: StdCellKind::Dff,
                drive: 1.0,
            },
            inputs: vec![d],
            outputs: vec![q_fb],
        });
        n.mark_output(q_fb);
        assert!(n.validate().is_ok(), "{:?}", n.validate());
    }

    #[test]
    fn macro_cells_are_sequential() {
        let mut n = Netlist::new("with_brick");
        let clk = n.add_clock("clk");
        let en = n.add_input("en");
        let outs = n.add_macro("u_brick", "brick_8t_16_10_x2", &[clk, en], 10, "arbl");
        assert_eq!(outs.len(), 10);
        for &o in &outs {
            n.mark_output(o);
        }
        assert!(n.validate().is_ok());
        assert!(n.cells()[0].kind.is_sequential());
    }

    #[test]
    fn driver_and_fanout_maps_agree() {
        let mut n = Netlist::new("maps");
        let a = n.add_input("a");
        let x = n.add_gate(StdCellKind::Inv, 1.0, &[a], "x").unwrap();
        let y = n.add_gate(StdCellKind::Inv, 1.0, &[x], "y").unwrap();
        let z = n.add_gate(StdCellKind::Inv, 1.0, &[x], "z").unwrap();
        n.mark_output(y);
        n.mark_output(z);
        let drivers = n.driver_map();
        let fanout = n.fanout();
        assert_eq!(drivers[a.index()], None);
        assert!(drivers[x.index()].is_some());
        assert_eq!(fanout.net_count(), n.net_count());
        assert_eq!(fanout.count(x), 2);
        assert_eq!(fanout.count(y), 0);
        assert_eq!(fanout.loads(x), [(CellId(1), 0), (CellId(2), 0)]);
    }
}
