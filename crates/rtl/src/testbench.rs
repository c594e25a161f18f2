//! One named-port harness and one model per brick kind, for every
//! memory netlist.
//!
//! [`Testbench`] drives a netlist through its ports by name — the bus
//! nets `din[0]`, `din[1]`, … are the port `din` — one clock cycle at a
//! time, with a [`MacroModel`] bound to every macro. The models are the
//! two macro kinds this flow instantiates: [`SramBrickModel`] for the
//! brick columns both memory builders emit (`lim::sram::generate` and
//! [`crate::smartmem::lower`]), and [`CamModel`] for the CAM macro of
//! `lim::cam`. Stepped next to [`crate::BehavInterp`], the harness
//! checks a generated memory cycle by cycle through its real
//! synthesized periphery.

use crate::error::RtlError;
use crate::ir::{Cell, CellId, CellKind, NetId, Netlist};
use crate::sim::{MacroModel, Simulator};
use std::collections::BTreeMap;

/// Port values by name; bit `i` of a bus is bit `i` of its value.
pub type Ports = BTreeMap<String, u64>;

/// The port and bit a net carries: `din[3]` is bit 3 of `din`, `we`
/// bit 0 of `we`.
fn port_bit(net: &str) -> (&str, usize) {
    net.strip_suffix(']')
        .and_then(|s| s.rsplit_once('['))
        .and_then(|(port, bit)| Some((port, bit.parse().ok()?)))
        .unwrap_or((net, 0))
}

/// Bit `b` of `v`, LSB first (0 past bit 63).
fn bit(v: u64, b: usize) -> bool {
    v.checked_shr(b as u32).unwrap_or(0) & 1 == 1
}

/// The word `bits` spell, LSB first.
fn word(bits: &[bool]) -> u64 {
    bits.iter().rev().fold(0, |acc, &b| acc << 1 | u64::from(b))
}

/// A netlist driven through named ports, with a model on every macro.
#[derive(Debug)]
pub struct Testbench<'n> {
    netlist: &'n Netlist,
    sim: Simulator<'n>,
    /// Port and bit of every non-clock primary input, simulator order.
    inputs: Vec<(String, usize)>,
    /// Port and bit of every primary output.
    outputs: Vec<(String, usize)>,
}

impl<'n> Testbench<'n> {
    /// Binds `model(cell)` to every macro cell of `netlist`.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures and the first macro
    /// `model` rejects.
    pub fn new<M: MacroModel>(
        netlist: &'n Netlist,
        model: impl Fn(&Cell) -> Result<M, RtlError>,
    ) -> Result<Self, RtlError> {
        let mut sim = Simulator::new(netlist)?;
        for (i, cell) in netlist.cells().iter().enumerate() {
            if matches!(cell.kind, CellKind::Macro { .. }) {
                sim.attach(CellId(i), Box::new(model(cell)?))?;
            }
        }
        let named = |nets: &[NetId]| -> Vec<(String, usize)> {
            nets.iter()
                .filter(|&&n| Some(n) != netlist.clock())
                .map(|&n| {
                    let (port, b) = port_bit(netlist.net_name(n));
                    (port.to_owned(), b)
                })
                .collect()
        };
        Ok(Testbench {
            netlist,
            sim,
            inputs: named(netlist.primary_inputs()),
            outputs: named(netlist.primary_outputs()),
        })
    }

    /// The model bound to macro `instance`, when it is an `M`.
    pub fn model_mut<M: MacroModel>(&mut self, instance: &str) -> Option<&mut M> {
        let i = self
            .netlist
            .cells()
            .iter()
            .position(|c| c.name == instance)?;
        self.sim.model_mut(CellId(i))
    }

    /// Settles `ports` (absent ones read 0) without a clock edge and
    /// returns every output port.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn settle(&mut self, ports: &Ports) -> Result<Ports, RtlError> {
        let outs = self.sim.eval(&self.vector(ports))?;
        Ok(self.named_outputs(&outs))
    }

    /// One clock cycle on `ports` (absent ones read 0); returns every
    /// output port after the edge.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn cycle(&mut self, ports: &Ports) -> Result<Ports, RtlError> {
        let outs = self.sim.step(&self.vector(ports))?;
        Ok(self.named_outputs(&outs))
    }

    fn vector(&self, ports: &Ports) -> Vec<bool> {
        self.inputs
            .iter()
            .map(|(port, b)| bit(ports.get(port).copied().unwrap_or(0), *b))
            .collect()
    }

    fn named_outputs(&self, outs: &[bool]) -> Ports {
        let mut named = Ports::new();
        for ((port, b), &v) in self.outputs.iter().zip(outs) {
            let x = named.entry(port.clone()).or_default();
            *x |= u64::from(v).checked_shl(*b as u32).unwrap_or(0);
        }
        named
    }
}

/// A brick column of either memory builder: pins `clk, en, rdwl[W],
/// wdwl[W], wbl[B]` in, `B` read bits out.
///
/// At each edge it launches the word on the hot read word line (0 when
/// none is hot or `en` is low), then stores `wbl` under the hot write
/// word line, so a same-address read and write launches the old word,
/// as [`crate::BehavInterp`] computes.
#[derive(Debug, Clone)]
pub struct SramBrickModel {
    words: Vec<u64>,
}

impl SramBrickModel {
    /// A zeroed array shaped by `cell`'s pins.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::MacroModel`] when the pins do not fit the
    /// layout with 1–64 read bits and at least one word.
    pub fn for_cell(cell: &Cell) -> Result<Self, RtlError> {
        let bits = cell.outputs.len();
        let lines = cell.inputs.len().saturating_sub(2 + bits);
        if !(1..=64).contains(&bits) || lines == 0 || lines % 2 == 1 {
            return Err(RtlError::MacroModel {
                cell: cell.name.clone(),
                reason: format!(
                    "{} inputs and {bits} outputs do not fit `clk, en, rdwl[W], wdwl[W], wbl[B]`",
                    cell.inputs.len()
                ),
            });
        }
        Ok(SramBrickModel {
            words: vec![0; lines / 2],
        })
    }
}

impl MacroModel for SramBrickModel {
    fn edge(&mut self, inputs: &[bool], outputs: &mut [bool]) {
        let w = self.words.len();
        let (rdwl, rest) = inputs[2..].split_at(w);
        let (wdwl, wbl) = rest.split_at(w);
        let read = match rdwl.iter().rposition(|&hot| hot) {
            Some(r) if inputs[1] => self.words[r],
            _ => 0,
        };
        if let Some(r) = wdwl.iter().rposition(|&hot| hot) {
            self.words[r] = word(wbl);
        }
        for (b, out) in outputs.iter_mut().enumerate() {
            *out = bit(read, b);
        }
    }
}

/// A CAM array: pins `clk, en, key[K]` in, one match line per entry
/// out.
///
/// Match lines launch from the clock like every macro output: at each
/// edge with `en` high, an entry's line rises when it stores the
/// pre-edge key. Entries are written host-side through
/// [`store`](Self::store) and [`clear`](Self::clear) (the CAM block's
/// write port belongs to the surrounding datapath).
#[derive(Debug, Clone)]
pub struct CamModel {
    keys: Vec<Option<u64>>,
    key_mask: u64,
}

impl CamModel {
    /// An empty array shaped by `cell`'s pins.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::MacroModel`] unless the cell has 1–64 key
    /// pins after `clk, en` and at least one output.
    pub fn for_cell(cell: &Cell) -> Result<Self, RtlError> {
        let key_bits = cell.inputs.len().saturating_sub(2);
        if !(1..=64).contains(&key_bits) || cell.outputs.is_empty() {
            return Err(RtlError::MacroModel {
                cell: cell.name.clone(),
                reason: format!(
                    "{} inputs and {} outputs do not fit `clk, en, key[K]`",
                    cell.inputs.len(),
                    cell.outputs.len()
                ),
            });
        }
        Ok(CamModel {
            keys: vec![None; cell.outputs.len()],
            key_mask: u64::MAX >> (64 - key_bits),
        })
    }

    /// Stores `key` (cut to the key width) in `entry`.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range.
    pub fn store(&mut self, entry: usize, key: u64) {
        self.keys[entry] = Some(key & self.key_mask);
    }

    /// Empties `entry`.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range.
    pub fn clear(&mut self, entry: usize) {
        self.keys[entry] = None;
    }
}

impl MacroModel for CamModel {
    fn edge(&mut self, inputs: &[bool], outputs: &mut [bool]) {
        let key = word(&inputs[2..]);
        for (line, stored) in outputs.iter_mut().zip(&self.keys) {
            *line = inputs[1] && *stored == Some(key);
        }
    }
}
