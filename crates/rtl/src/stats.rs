//! Netlist statistics: the `report_qor` of the mapping stage.

use crate::ir::{CellKind, NetId, Netlist};
use lim_tech::units::SquareMicrons;
use lim_tech::Technology;
use std::collections::BTreeMap;

/// Summary numbers for one netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistStats {
    /// Combinational gate count.
    pub combinational: usize,
    /// Sequential cell count.
    pub sequential: usize,
    /// Brick macro count.
    pub macros: usize,
    /// Constant ties.
    pub ties: usize,
    /// Longest combinational chain (gate levels).
    pub logic_depth: usize,
    /// Largest net fanout.
    pub max_fanout: usize,
    /// Standard-cell area.
    pub stdcell_area: SquareMicrons,
    /// Instance counts by cell name.
    pub histogram: BTreeMap<&'static str, usize>,
}

impl NetlistStats {
    /// Computes statistics for `netlist`.
    ///
    /// # Errors
    ///
    /// Propagates validation failures (the depth needs a topological
    /// order).
    pub fn of(netlist: &Netlist, tech: &Technology) -> Result<Self, crate::RtlError> {
        let mut combinational = 0;
        let mut sequential = 0;
        let mut macros = 0;
        let mut ties = 0;
        let mut histogram: BTreeMap<&'static str, usize> = BTreeMap::new();
        for cell in netlist.cells() {
            match &cell.kind {
                CellKind::Gate { kind, .. } => {
                    if kind.is_sequential() {
                        sequential += 1;
                    } else {
                        combinational += 1;
                    }
                    *histogram.entry(kind.name()).or_insert(0) += 1;
                }
                CellKind::Macro { .. } => macros += 1,
                CellKind::Tie { .. } => ties += 1,
            }
        }

        // Logic depth over the combinational DAG.
        let order = netlist.topo_order()?;
        let driver = netlist.driver_map();
        let mut depth = vec![0usize; netlist.cell_count()];
        let mut logic_depth = 0;
        for cid in order {
            let cell = netlist.cell(cid);
            let mut best = 0;
            for &input in &cell.inputs {
                if let Some(d) = driver[input.index()] {
                    if !netlist.cell(d).kind.is_sequential() {
                        best = best.max(depth[d.index()] + 1);
                    }
                }
            }
            depth[cid.index()] = best;
            logic_depth = logic_depth.max(best + 1);
        }

        let fanout = netlist.fanout();
        let max_fanout = (0..netlist.net_count())
            .map(|i| fanout.count(NetId::from_index(i)))
            .max()
            .unwrap_or(0);

        Ok(NetlistStats {
            combinational,
            sequential,
            macros,
            ties,
            logic_depth,
            max_fanout,
            stdcell_area: netlist.stdcell_area(tech),
            histogram,
        })
    }

    /// Renders the statistics as a small table.
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "cells: {} comb + {} seq + {} macro + {} tie",
            self.combinational, self.sequential, self.macros, self.ties
        );
        let _ = writeln!(
            s,
            "depth: {} levels, max fanout {}, std area {:.1}",
            self.logic_depth, self.max_fanout, self.stdcell_area
        );
        for (name, count) in &self.histogram {
            let _ = writeln!(s, "  {name:<8} {count}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{decoder, kogge_stone_adder, ripple_adder};

    #[test]
    fn decoder_stats_are_consistent() {
        let tech = Technology::cmos65();
        let dec = decoder("dec", 4, 16, true).unwrap();
        let stats = NetlistStats::of(&dec, &tech).unwrap();
        assert_eq!(stats.sequential, 0);
        assert_eq!(stats.macros, 0);
        assert_eq!(
            stats.combinational,
            stats.histogram.values().sum::<usize>()
        );
        assert!(stats.histogram["AND2"] > 16);
        assert!(stats.logic_depth >= 3);
        assert!(stats.max_fanout >= 8);
        let table = stats.to_table();
        assert!(table.contains("AND2"));
    }

    #[test]
    fn depth_separates_adder_architectures() {
        let tech = Technology::cmos65();
        let ks = NetlistStats::of(&kogge_stone_adder("ks", 32).unwrap(), &tech).unwrap();
        let rp = NetlistStats::of(&ripple_adder("rp", 32).unwrap(), &tech).unwrap();
        assert!(ks.logic_depth < rp.logic_depth / 2);
        assert!(ks.combinational > rp.combinational); // prefix tree costs gates
    }
}
