//! Structural Verilog emission for gate-level netlists.
//!
//! Complements `lim-brick::verilog` (which writes brick stubs): this
//! module dumps the synthesized standard-cell logic so a full design can
//! be inspected or shipped to an external flow.
//!
//! Emission is one pass over the netlist after one resolution pass:
//! every net (by [`NetId`]) and every cell instance (by cell index) is
//! mapped to its identifier exactly once, and each line is then written
//! straight into a single pre-sized output buffer.

use crate::ir::{CellKind, NetId, Netlist};
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::Write as _;

/// Appends `name` sanitized into a Verilog identifier: every character
/// that is not alphanumeric or `_` becomes `_` (so `a[0]` → `a_0_`).
/// Runs of kept characters are copied whole.
fn push_ident(out: &mut String, name: &str) {
    let mut run = 0;
    for (i, c) in name.char_indices() {
        if !(c.is_alphanumeric() || c == '_') {
            out.push_str(&name[run..i]);
            out.push('_');
            run = i + c.len_utf8();
        }
    }
    out.push_str(&name[run..]);
}

/// Sanitized net names (by net index) followed by sanitized instance
/// names (by cell index), back to back in one buffer.
struct Sanitized {
    text: String,
    /// End offset of slot `i` in `text`; slot `i` starts where `i - 1`
    /// ends.
    ends: Vec<usize>,
    nets: usize,
}

impl Sanitized {
    fn new(netlist: &Netlist) -> Self {
        let nets = netlist.net_count();
        let names = (0..nets)
            .map(|i| netlist.net_name(NetId::from_index(i)))
            .chain(netlist.cells().iter().map(|c| c.name.as_str()));
        let bytes: usize = names.clone().map(str::len).sum();
        let mut text = String::with_capacity(bytes);
        let mut ends = Vec::with_capacity(nets + netlist.cell_count());
        for name in names {
            push_ident(&mut text, name);
            ends.push(text.len());
        }
        Sanitized { text, ends, nets }
    }

    fn slot(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    fn net(&self, id: NetId) -> &str {
        self.slot(id.index())
    }

    fn cell(&self, index: usize) -> &str {
        self.slot(self.nets + index)
    }
}

/// One Verilog namespace (nets, or instances). Sanitization alone maps
/// distinct objects onto one identifier — distinct source names (`a[0]`
/// and `a_0_`) and distinct objects that share a name alike — so the
/// first claimant keeps the plain sanitized form and later claimants
/// pick up a uniquifying `_2`, `_3`, … suffix.
struct Namespace<'a> {
    used: HashSet<Cow<'a, str>>,
}

impl<'a> Namespace<'a> {
    fn with_capacity(n: usize) -> Self {
        Namespace {
            used: HashSet::with_capacity(n),
        }
    }

    fn claim(&mut self, base: &'a str) -> Cow<'a, str> {
        if self.used.insert(Cow::Borrowed(base)) {
            return Cow::Borrowed(base);
        }
        let mut k = 2usize;
        loop {
            let candidate = format!("{base}_{k}");
            if !self.used.contains(candidate.as_str()) {
                self.used.insert(Cow::Owned(candidate.clone()));
                return Cow::Owned(candidate);
            }
            k += 1;
        }
    }
}

/// The identifier of every net and every named cell instance.
///
/// Resolution order is ports (inputs, then outputs), then internal
/// wires by net index, then instances by cell index, so emission is
/// reproducible. Constant ties emit an `assign` and claim no instance
/// name.
struct Idents<'a> {
    nets: Vec<Cow<'a, str>>,
    cells: Vec<Cow<'a, str>>,
    is_port: Vec<bool>,
}

impl<'a> Idents<'a> {
    fn resolve(netlist: &Netlist, sanitized: &'a Sanitized) -> Self {
        let mut ns = Namespace::with_capacity(netlist.net_count());
        let mut nets: Vec<Option<Cow<'a, str>>> = vec![None; netlist.net_count()];
        let ports = netlist
            .primary_inputs()
            .iter()
            .chain(netlist.primary_outputs());
        for &p in ports {
            if nets[p.index()].is_none() {
                nets[p.index()] = Some(ns.claim(sanitized.net(p)));
            }
        }
        let is_port: Vec<bool> = nets.iter().map(Option::is_some).collect();
        for (i, slot) in nets.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(ns.claim(sanitized.net(NetId::from_index(i))));
            }
        }
        let mut ns = Namespace::with_capacity(netlist.cell_count());
        let cells = netlist
            .cells()
            .iter()
            .enumerate()
            .map(|(i, cell)| match cell.kind {
                CellKind::Tie { .. } => Cow::Borrowed(""),
                _ => ns.claim(sanitized.cell(i)),
            })
            .collect();
        Idents {
            nets: nets
                .into_iter()
                .map(|n| n.expect("every net resolved"))
                .collect(),
            cells,
            is_port,
        }
    }

    fn net(&self, id: NetId) -> &str {
        &self.nets[id.index()]
    }
}

/// Emits the netlist as structural Verilog.
pub fn emit(netlist: &Netlist) -> String {
    let sanitized = Sanitized::new(netlist);
    let names = Idents::resolve(netlist, &sanitized);

    // Size the buffer once: per line, the fixed text is well under 24
    // bytes besides its identifiers.
    let nets: usize = names.nets.iter().map(|n| n.len() + 24).sum();
    let cells: usize = netlist
        .cells()
        .iter()
        .zip(&names.cells)
        .map(|(cell, inst)| {
            let pins: usize = cell
                .inputs
                .iter()
                .chain(&cell.outputs)
                .map(|&n| names.net(n).len() + 2)
                .sum();
            let head = match &cell.kind {
                CellKind::Macro { lib_name } => lib_name.len(),
                _ => 0,
            };
            head + inst.len() + pins + 24
        })
        .sum();
    let mut v = String::with_capacity(2 * netlist.name().len() + 64 + nets + cells);

    v.push_str("// Auto-generated structural netlist: ");
    v.push_str(netlist.name());
    v.push_str("\nmodule ");
    push_ident(&mut v, netlist.name());
    v.push_str(" (\n");
    let ports = netlist
        .primary_inputs()
        .iter()
        .map(|&p| ("  input  wire ", p))
        .chain(
            netlist
                .primary_outputs()
                .iter()
                .map(|&p| ("  output wire ", p)),
        );
    for (i, (dir, p)) in ports.enumerate() {
        if i > 0 {
            v.push_str(",\n");
        }
        v.push_str(dir);
        v.push_str(names.net(p));
    }
    v.push_str("\n);\n");

    // Internal wires: everything that isn't a port.
    for (name, _) in names.nets.iter().zip(&names.is_port).filter(|(_, &p)| !p) {
        v.push_str("  wire ");
        v.push_str(name);
        v.push_str(";\n");
    }

    for (cell, inst) in netlist.cells().iter().zip(&names.cells) {
        match &cell.kind {
            CellKind::Gate { kind, drive } => {
                v.push_str("  ");
                v.push_str(kind.name());
                let _ = write!(v, "_X{}", drive.round() as i64);
            }
            CellKind::Macro { lib_name } => {
                v.push_str("  ");
                push_ident(&mut v, lib_name);
            }
            CellKind::Tie { value } => {
                v.push_str("  assign ");
                v.push_str(names.net(cell.outputs[0]));
                v.push_str(if *value { " = 1'b1;\n" } else { " = 1'b0;\n" });
                continue;
            }
        }
        v.push(' ');
        v.push_str(inst);
        v.push_str(" (");
        for (i, &n) in cell.inputs.iter().chain(&cell.outputs).enumerate() {
            if i > 0 {
                v.push_str(", ");
            }
            v.push_str(names.net(n));
        }
        v.push_str(");\n");
    }
    v.push_str("endmodule\n");
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::decoder;
    use crate::ir::Netlist;
    use crate::stdcell::StdCellKind;

    #[test]
    fn emits_ports_and_instances() {
        let dec = decoder("dec2to4", 2, 4, true).unwrap();
        let v = emit(&dec);
        assert!(v.contains("module dec2to4 ("));
        assert!(v.contains("input  wire addr_0_"));
        assert!(v.contains("input  wire en"));
        assert!(v.contains("output wire out_3_"));
        assert!(v.contains("INV_X2"));
        assert!(v.contains("AND2_X1"));
        assert!(v.contains("endmodule"));
    }

    #[test]
    fn colliding_sanitized_names_are_uniquified() {
        // `a[0]` and `a_0_` both sanitize to `a_0_`; the second comer
        // must pick up a suffix instead of silently shorting the wires.
        let mut n = Netlist::new("clash");
        let a = n.add_input("a[0]");
        let b = n.add_input("a_0_");
        let x = n.add_gate(StdCellKind::And2, 1.0, &[a, b], "y").unwrap();
        n.mark_output(x);
        let v = emit(&n);
        assert!(
            v.contains("input  wire a_0_,"),
            "first comer keeps the plain name:\n{v}"
        );
        assert!(
            v.contains("input  wire a_0__2"),
            "second comer is uniquified:\n{v}"
        );
        assert!(v.contains("AND2_X1 u_y (a_0_, a_0__2, y);"), "{v}");
        // Every emitted identifier is unique across the port list.
        let mut seen = std::collections::HashSet::new();
        for line in v.lines() {
            if let Some(name) = line.trim().strip_prefix("input  wire ") {
                assert!(seen.insert(name.trim_end_matches(',').to_owned()), "{line}");
            }
        }
    }

    #[test]
    fn distinct_nets_and_cells_sharing_a_name_stay_distinct() {
        // A port and an internal tie both called `en`, and two gates
        // both called `u_y`: each object gets its own identifier.
        let mut n = Netlist::new("shared");
        let en = n.add_input("en");
        let tie = n.add_tie(true, "en");
        let y1 = n.add_gate(StdCellKind::And2, 1.0, &[en, tie], "y").unwrap();
        let y2 = n.add_gate(StdCellKind::Inv, 1.0, &[y1], "y").unwrap();
        n.mark_output(y2);
        let v = emit(&n);
        // Ports resolve first, so the output keeps the plain `y`.
        assert!(v.contains("input  wire en,"), "{v}");
        assert!(v.contains("output wire y\n"), "{v}");
        assert!(v.contains("  wire en_2;"), "{v}");
        assert!(v.contains("assign en_2 = 1'b1;"), "{v}");
        assert!(v.contains("AND2_X1 u_y (en, en_2, y_2);"), "{v}");
        assert!(v.contains("INV_X1 u_y_2 (y_2, y);"), "{v}");
    }

    #[test]
    fn every_cell_appears_once() {
        let dec = decoder("dec3to8", 3, 8, false).unwrap();
        let v = emit(&dec);
        let instances = v
            .lines()
            .filter(|l| l.trim_start().starts_with("AND2"))
            .count();
        let and_cells = dec
            .cells()
            .iter()
            .filter(|c| matches!(&c.kind, CellKind::Gate { kind, .. } if kind.name() == "AND2"))
            .count();
        assert_eq!(instances, and_cells);
    }
}
