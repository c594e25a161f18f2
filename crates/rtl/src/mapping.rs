//! Netlist optimization passes — the Design Compiler stand-in.
//!
//! Three classic cleanups run after generation:
//!
//! 1. **Constant propagation** — gates fed by ties are folded into ties or
//!    simpler gates where the output is fully determined.
//! 2. **Dead-gate sweep** — cells whose outputs reach neither a primary
//!    output nor a sequential/macro input are removed.
//! 3. **Fanout buffering** — nets loaded beyond a fanout budget get a
//!    buffer tree, keeping stage efforts near the logical-effort optimum.

use crate::error::RtlError;
use crate::ir::{Cell, CellId, CellKind, NetId, Netlist};
use crate::stdcell::StdCellKind;

/// Statistics reported by [`optimize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptimizeStats {
    /// Gates replaced by constants.
    pub constants_folded: usize,
    /// Dead cells removed.
    pub dead_removed: usize,
    /// Buffers inserted for fanout.
    pub buffers_inserted: usize,
}

/// Maximum fanout before buffering.
pub const FANOUT_BUDGET: usize = 8;

/// Runs all optimization passes and returns the cleaned netlist plus
/// statistics.
///
/// # Errors
///
/// Propagates validation failures on the input netlist.
pub fn optimize(netlist: &Netlist) -> Result<(Netlist, OptimizeStats), RtlError> {
    let _span = lim_obs::Span::enter("map");
    netlist.validate()?;
    let mut stats = OptimizeStats::default();
    let mut n = netlist.clone();
    {
        let _pass = lim_obs::Span::enter("fold_constants");
        stats.constants_folded = fold_constants(&mut n)?;
    }
    {
        let _pass = lim_obs::Span::enter("sweep_dead");
        stats.dead_removed = sweep_dead(&mut n);
    }
    {
        let _pass = lim_obs::Span::enter("buffer_fanout");
        stats.buffers_inserted = buffer_fanout(&mut n);
    }
    lim_obs::counter_add("map.constants_folded", stats.constants_folded as u64);
    lim_obs::counter_add("map.dead_removed", stats.dead_removed as u64);
    lim_obs::counter_add("map.buffers_inserted", stats.buffers_inserted as u64);
    n.validate()?;
    Ok((n, stats))
}

/// Folds gates whose output is fully determined by tie inputs — including
/// absorbing inputs (AND with 0, OR with 1). Iterates to a fixed point.
/// Returns the number of cells folded.
fn fold_constants(n: &mut Netlist) -> Result<usize, RtlError> {
    let mut folded = 0usize;
    loop {
        // Net → constant value, where known.
        let mut constants: Vec<Option<bool>> = vec![None; n.net_count()];
        for cell in n.cells() {
            if let CellKind::Tie { value } = cell.kind {
                constants[cell.outputs[0].index()] = Some(value);
            }
        }
        // Find one gate whose output is invariant over its free inputs.
        let mut target: Option<(usize, bool)> = None;
        for (idx, cell) in n.cells().iter().enumerate() {
            let CellKind::Gate { kind, .. } = &cell.kind else {
                continue;
            };
            if kind.is_sequential() || cell.inputs.is_empty() {
                continue;
            }
            let fixed: Vec<Option<bool>> =
                cell.inputs.iter().map(|i| constants[i.index()]).collect();
            if fixed.iter().all(|c| c.is_none()) {
                continue;
            }
            let free: Vec<usize> = (0..fixed.len()).filter(|&i| fixed[i].is_none()).collect();
            let mut value: Option<bool> = None;
            let mut invariant = true;
            for assignment in 0..(1usize << free.len()) {
                let mut ins: Vec<bool> = fixed.iter().map(|c| c.unwrap_or(false)).collect();
                for (bit, &pin) in free.iter().enumerate() {
                    ins[pin] = (assignment >> bit) & 1 == 1;
                }
                let out = kind.eval(&ins);
                match value {
                    None => value = Some(out),
                    Some(v) if v != out => {
                        invariant = false;
                        break;
                    }
                    Some(_) => {}
                }
            }
            if invariant {
                target = Some((idx, value.expect("at least one assignment evaluated")));
                break;
            }
        }
        let Some((idx, value)) = target else { break };
        let out = n.cells()[idx].outputs[0];
        replace_cell_with_tie(n, idx, out, value);
        folded += 1;
    }
    Ok(folded)
}

fn replace_cell_with_tie(n: &mut Netlist, idx: usize, out: NetId, value: bool) {
    let name = n.cells()[idx].name.clone();
    n.replace_cell(
        idx,
        Cell {
            name,
            kind: CellKind::Tie { value },
            inputs: Vec::new(),
            outputs: vec![out],
        },
    );
}

/// Removes cells that drive nothing reachable. Returns removed count.
fn sweep_dead(n: &mut Netlist) -> usize {
    let mut live_nets = vec![false; n.net_count()];
    for &o in n.primary_outputs() {
        live_nets[o.index()] = true;
    }
    // Iterate to fixed point: a cell is live if any output net is live;
    // its inputs then become live.
    let mut changed = true;
    let mut live_cell = vec![false; n.cell_count()];
    while changed {
        changed = false;
        for (i, cell) in n.cells().iter().enumerate() {
            let is_live = live_cell[i]
                || cell.outputs.iter().any(|o| live_nets[o.index()])
                // Sequential state and macros are always retained: their
                // behaviour is externally observable.
                || matches!(cell.kind, CellKind::Macro { .. });
            if is_live && !live_cell[i] {
                live_cell[i] = true;
                changed = true;
            }
            if live_cell[i] {
                for &input in &cell.inputs {
                    if !live_nets[input.index()] {
                        live_nets[input.index()] = true;
                        changed = true;
                    }
                }
            }
        }
    }
    n.retain_cells(&live_cell)
}

/// Inserts balanced buffer trees on nets with more than
/// [`FANOUT_BUDGET`] sinks: each overloaded net gets one layer of leaf
/// buffers (≤ budget sinks each), and the layer of buffer inputs is
/// itself re-checked — giving `O(log_b S)` depth instead of a chain.
/// Returns the number of buffers inserted.
fn buffer_fanout(n: &mut Netlist) -> usize {
    let mut inserted = 0usize;
    // One fanout suffices for the whole pass: buffering a net only
    // rewires pins that sat on that net (and appends fresh cells), so
    // the recorded sinks of every later net stay exact.
    let fanout = n.fanout();
    let clock = n.clock();
    for i in 0..fanout.net_count() {
        let net = NetId::from_index(i);
        // Don't buffer the clock: clock trees are synthesized by the
        // physical flow.
        if Some(net) == clock || fanout.count(net) <= FANOUT_BUDGET {
            continue;
        }
        // One balanced layer per round: every group of `FANOUT_BUDGET`
        // sinks moves behind its own buffer; the layer of buffer inputs
        // then becomes the sink set of the next round, giving
        // `O(log_b S)` depth instead of a chain.
        let mut sinks = fanout.loads(net).to_vec();
        while sinks.len() > FANOUT_BUDGET {
            let mut next: Vec<(CellId, usize)> =
                Vec::with_capacity(sinks.len() / FANOUT_BUDGET + 1);
            for group in sinks.chunks(FANOUT_BUDGET) {
                let name = format!("{}_buf{}", n.net_name(net), inserted);
                let buf_out = n
                    .add_gate(StdCellKind::Buf, 6.0, &[net], name)
                    .expect("buffer arity is 1");
                let buf_cell = CellId(n.cell_count() - 1);
                for &(cell, pin) in group {
                    n.rewire_input(cell, pin, buf_out);
                }
                next.push((buf_cell, 0));
                inserted += 1;
            }
            sinks = next;
            if inserted > 50_000 {
                return inserted; // safety valve
            }
        }
    }
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Netlist;

    #[test]
    fn constant_folding_collapses_tied_logic() {
        let mut n = Netlist::new("cp");
        let a = n.add_input("a");
        let zero = n.add_tie(false, "zero");
        // AND with 0 is always 0; the inverter after it becomes constant 1.
        let x = n.add_gate(StdCellKind::And2, 1.0, &[a, zero], "x").unwrap();
        let y = n.add_gate(StdCellKind::Inv, 1.0, &[x], "y").unwrap();
        n.mark_output(y);
        let (opt, stats) = optimize(&n).unwrap();
        assert_eq!(stats.constants_folded, 2);
        // Everything left is ties (and the dead original tie got swept).
        assert!(opt
            .cells()
            .iter()
            .all(|c| matches!(c.kind, CellKind::Tie { .. })));
    }

    #[test]
    fn dead_gates_removed() {
        let mut n = Netlist::new("dead");
        let a = n.add_input("a");
        let live = n.add_gate(StdCellKind::Inv, 1.0, &[a], "live").unwrap();
        let _dead = n.add_gate(StdCellKind::Buf, 1.0, &[a], "dead").unwrap();
        n.mark_output(live);
        let (opt, stats) = optimize(&n).unwrap();
        assert_eq!(stats.dead_removed, 1);
        assert_eq!(opt.cell_count(), 1);
    }

    #[test]
    fn high_fanout_gets_buffered() {
        let mut n = Netlist::new("fan");
        let a = n.add_input("a");
        let src = n.add_gate(StdCellKind::Inv, 1.0, &[a], "src").unwrap();
        for i in 0..20 {
            let s = n
                .add_gate(StdCellKind::Inv, 1.0, &[src], format!("sink{i}"))
                .unwrap();
            n.mark_output(s);
        }
        let (opt, stats) = optimize(&n).unwrap();
        assert!(stats.buffers_inserted >= 1);
        // After buffering no net exceeds the budget (clock exempt).
        let fanout = opt.fanout();
        for i in 0..opt.net_count() {
            assert!(fanout.count(NetId::from_index(i)) <= FANOUT_BUDGET + 1);
        }
        // Function preserved: still 20 outputs, all inverters of src.
        assert_eq!(opt.primary_outputs().len(), 20);
    }

    #[test]
    fn optimization_preserves_function() {
        use crate::generators::decoder;
        use crate::sim::Simulator;
        let dec = decoder("dec3", 3, 8, true).unwrap();
        let (opt, _) = optimize(&dec).unwrap();
        let mut s1 = Simulator::new(&dec).unwrap();
        let mut s2 = Simulator::new(&opt).unwrap();
        for addr in 0..8usize {
            for en in [false, true] {
                let mut inputs: Vec<bool> = (0..3).map(|b| (addr >> b) & 1 == 1).collect();
                inputs.push(en);
                assert_eq!(
                    s1.eval(&inputs).unwrap(),
                    s2.eval(&inputs).unwrap(),
                    "addr {addr} en {en}"
                );
            }
        }
    }
}
