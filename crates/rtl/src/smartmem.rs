//! Lowering of inferred memories to brick-backed smart memories.
//!
//! [`lower`] turns a behavioral module plus its [`crate::infer`] result
//! into a flat structural [`Netlist`]: each inferred memory becomes one
//! brick-macro column per byte-enable lane, fed by a synthesized
//! address decoder (complement rails → ≤3-bit predecode groups →
//! per-word wordline AND trees, the same structure
//! the SRAM generator builds), write-enable gating folded into the
//! write wordlines, write drivers, and an output buffer stage; plain
//! registered outputs become DFFs and continuous assigns become
//! buffers. The caller supplies the brick decomposition per memory as a
//! [`MemLowering`] — this crate stays ignorant of brick libraries and
//! only records the chosen library entry names on the macros.
//!
//! [`crate::testbench::Testbench`] with a
//! [`crate::testbench::SramBrickModel`] on every lane macro steps the
//! lowered design cycle by cycle through the *real* synthesized
//! periphery, for comparison against [`crate::behav::BehavInterp`].

use crate::behav::{BehavModule, Cond, PortDir, Rvalue, Stmt};
use crate::error::RtlError;
use crate::generators::{complement_rails, predecode, word_line};
use crate::infer::{Inference, WriteEnable};
use crate::ir::{NetId, Netlist};
use crate::stdcell::StdCellKind;
use std::collections::BTreeMap;

/// The brick decomposition chosen for one inferred memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemLowering {
    /// Words per brick (the memory's word count must divide by it).
    pub brick_words: usize,
    /// Brick-library entry name per byte-enable lane, in lane order
    /// (ascending `lo`); one entry for non-byte-enabled memories. The
    /// caller must have registered each entry before physical synthesis.
    pub entry_names: Vec<String>,
}

fn bad(reason: impl Into<String>) -> RtlError {
    RtlError::BadGeneratorParams {
        generator: "smartmem",
        reason: reason.into(),
    }
}

/// Net handle(s) of one port: scalar ports get one net, vectors one per
/// bit (LSB first).
type PortNets = BTreeMap<String, Vec<NetId>>;

fn port_bit(nets: &PortNets, name: &str, bit: usize) -> Result<NetId, RtlError> {
    nets.get(name)
        .and_then(|v| v.get(bit))
        .copied()
        .ok_or_else(|| bad(format!("no net for `{name}[{bit}]`")))
}

/// Lowers `module` to a structural netlist, splicing one brick-macro
/// column per byte-enable lane of every inferred memory and mapping the
/// remaining registered outputs and continuous assigns onto flops and
/// buffers.
///
/// # Errors
///
/// Returns [`RtlError::BadGeneratorParams`] when `inference` carries
/// rejections, a memory has no [`MemLowering`] (or one that does not
/// tile it), the module mixes clocks, or residual logic falls outside
/// the `q <= d` / `if (en) q <= d` / `assign y = x` subset.
pub fn lower(
    module: &BehavModule,
    inference: &Inference,
    plans: &BTreeMap<String, MemLowering>,
) -> Result<Netlist, RtlError> {
    if let Some(r) = inference.rejected.first() {
        return Err(bad(format!("inference carries rejections ({r})")));
    }
    if inference.memories.is_empty() {
        return Err(bad("no inferred memories to lower"));
    }
    let clock = inference.memories[0].clock.clone();
    for b in &module.always {
        if b.clock != clock {
            return Err(bad(format!(
                "module mixes clocks `{clock}` and `{}`",
                b.clock
            )));
        }
    }

    let mut n = Netlist::new(module.name.clone());
    let mut nets: PortNets = BTreeMap::new();
    for p in &module.ports {
        if p.dir != PortDir::Input {
            continue;
        }
        if p.name == clock {
            nets.insert(p.name.clone(), vec![n.add_clock(p.name.clone())]);
        } else if p.width == 1 {
            nets.insert(p.name.clone(), vec![n.add_input(p.name.clone())]);
        } else {
            let v = (0..p.width)
                .map(|i| n.add_input(format!("{}[{i}]", p.name)))
                .collect();
            nets.insert(p.name.clone(), v);
        }
    }
    let clk = port_bit(&nets, &clock, 0)?;

    // --- Memories --------------------------------------------------
    // Read-data nets per output port, assembled across lanes.
    let mut mem_outputs: BTreeMap<String, Vec<NetId>> = BTreeMap::new();
    for m in &inference.memories {
        let plan = plans
            .get(&m.name)
            .ok_or_else(|| bad(format!("no lowering plan for memory `{}`", m.name)))?;
        if plan.brick_words == 0 || m.words % plan.brick_words != 0 {
            return Err(bad(format!(
                "brick depth {} does not tile memory `{}` ({} words)",
                plan.brick_words, m.name, m.words
            )));
        }
        let lanes = m.lanes();
        if plan.entry_names.len() != lanes.len() {
            return Err(bad(format!(
                "memory `{}` has {} lanes but {} library entries",
                m.name,
                lanes.len(),
                plan.entry_names.len()
            )));
        }
        let raddr = nets
            .get(&m.read.addr)
            .ok_or_else(|| bad(format!("no nets for read address `{}`", m.read.addr)))?
            .clone();
        let waddr = nets
            .get(&m.write_addr)
            .ok_or_else(|| bad(format!("no nets for write address `{}`", m.write_addr)))?
            .clone();

        // Each port's complement rails, then its predecode groups.
        let (r_label, w_label) = (format!("{}_raddr", m.name), format!("{}_waddr", m.name));
        let raddr_n = complement_rails(&mut n, &raddr, &r_label)?;
        let r_groups = predecode(&mut n, &raddr, &raddr_n, &r_label)?;
        let waddr_n = complement_rails(&mut n, &waddr, &w_label)?;
        let w_groups = predecode(&mut n, &waddr, &waddr_n, &w_label)?;
        let rdwl: Vec<NetId> = (0..m.words)
            .map(|w| word_line(&mut n, &r_groups, w, &[], &format!("{}_rdwl_{w}", m.name)))
            .collect::<Result<_, _>>()?;

        let mut dout_nets: Vec<Option<NetId>> = vec![None; m.bits];
        for (k, lane) in lanes.iter().enumerate() {
            // Per-lane write wordlines with the lane's enable folded in.
            let lane_en = match &m.enable {
                WriteEnable::Always => None,
                WriteEnable::Signal(s) => Some(port_bit(&nets, s, 0)?),
                WriteEnable::Lanes { signal, .. } => {
                    Some(port_bit(&nets, signal, lane.we_bit)?)
                }
            };
            let wdwl: Vec<NetId> = (0..m.words)
                .map(|w| {
                    let label = format!("{}_l{k}_wdwl_{w}", m.name);
                    word_line(&mut n, &w_groups, w, lane_en.as_slice(), &label)
                })
                .collect::<Result<_, _>>()?;
            // Write drivers from the lane's slice of the data port.
            let wbl: Vec<NetId> = (lane.lo..=lane.hi)
                .map(|b| {
                    let d = port_bit(&nets, &m.write_data, b)?;
                    n.add_gate(
                        StdCellKind::Buf,
                        4.0,
                        &[d],
                        format!("{}_l{k}_wdrv_{}", m.name, b - lane.lo),
                    )
                })
                .collect::<Result<_, _>>()?;
            let en_pin = n.add_tie(true, format!("{}_l{k}_en", m.name));
            let mut macro_inputs = vec![clk, en_pin];
            macro_inputs.extend(&rdwl);
            macro_inputs.extend(&wdwl);
            macro_inputs.extend(&wbl);
            let outs = n.add_macro(
                format!("u_{}_l{k}", m.name),
                plan.entry_names[k].clone(),
                &macro_inputs,
                lane.width(),
                &format!("{}_arbl{k}", m.name),
            );
            for (j, &o) in outs.iter().enumerate() {
                dout_nets[lane.lo + j] = Some(o);
            }
        }
        let dout: Vec<NetId> = dout_nets
            .into_iter()
            .map(|o| o.ok_or_else(|| bad("lane tiling left a bit undriven")))
            .collect::<Result<_, _>>()?;
        mem_outputs.insert(m.read.out.clone(), dout);
    }

    // --- Residual registered logic and assigns ---------------------
    // Collect `q <= rhs` statements that do not touch an array.
    let mut reg_writes: BTreeMap<String, (Rvalue, Vec<Cond>)> = BTreeMap::new();
    fn collect(
        body: &[Stmt],
        conds: &mut Vec<Cond>,
        out: &mut BTreeMap<String, (Rvalue, Vec<Cond>)>,
        mem_reads: &BTreeMap<String, Vec<NetId>>,
    ) -> Result<(), RtlError> {
        for s in body {
            match s {
                Stmt::RegWrite { dst, rhs, .. } => {
                    if mem_reads.contains_key(dst) {
                        continue; // the memory read port, already lowered
                    }
                    if matches!(rhs, Rvalue::MemRead { .. }) {
                        return Err(bad(format!(
                            "register `{dst}` reads an array but was not inferred"
                        )));
                    }
                    if out
                        .insert(dst.clone(), (rhs.clone(), conds.clone()))
                        .is_some()
                    {
                        return Err(bad(format!("register `{dst}` written more than once")));
                    }
                }
                Stmt::MemWrite { .. } => {}
                Stmt::If { cond, body, .. } => {
                    conds.push(cond.clone());
                    collect(body, conds, out, mem_reads)?;
                    conds.pop();
                }
            }
        }
        Ok(())
    }
    for b in &module.always {
        let mut conds = Vec::new();
        collect(&b.body, &mut conds, &mut reg_writes, &mem_outputs)?;
    }

    // Bit `b` of `rhs`, resolved against the input nets.
    let rhs_bit = |nets: &PortNets, rhs: &Rvalue, b: usize| -> Result<NetId, RtlError> {
        match rhs {
            Rvalue::Signal { name, sel } => {
                let off = sel.map_or(0, |s| s.lo);
                port_bit(nets, name, off + b)
            }
            Rvalue::MemRead { .. } => Err(bad("array read outside an inferred memory")),
        }
    };

    // --- Outputs, in port declaration order ------------------------
    for p in &module.ports {
        if p.dir != PortDir::Output {
            continue;
        }
        let bit_name = |b: usize| {
            if p.width == 1 {
                p.name.clone()
            } else {
                format!("{}[{b}]", p.name)
            }
        };
        if let Some(dout) = mem_outputs.get(&p.name) {
            for (b, &o) in dout.iter().enumerate() {
                let out = n.add_gate(StdCellKind::Buf, 2.0, &[o], bit_name(b))?;
                n.mark_output(out);
            }
        } else if let Some((rhs, conds)) = reg_writes.get(&p.name) {
            let en = match conds.as_slice() {
                [] => None,
                [c] => Some(port_bit(&nets, &c.signal, c.bit.unwrap_or(0))?),
                _ => {
                    return Err(bad(format!(
                        "register `{}` nested under more than one condition",
                        p.name
                    )))
                }
            };
            for b in 0..p.width {
                let d = rhs_bit(&nets, rhs, b)?;
                let q = match en {
                    Some(en) => n.add_dff_en(d, en, 1.0, bit_name(b)),
                    None => n.add_dff(d, 1.0, bit_name(b)),
                };
                n.mark_output(q);
            }
        } else if let Some(a) = module.assigns.iter().find(|a| a.dst == p.name) {
            for b in 0..p.width {
                let d = rhs_bit(&nets, &a.rhs, b)?;
                let out = n.add_gate(StdCellKind::Buf, 1.0, &[d], bit_name(b))?;
                n.mark_output(out);
            }
        } else {
            return Err(bad(format!("output `{}` is never driven", p.name)));
        }
    }

    n.validate()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behav::BehavInterp;
    use crate::infer::infer;
    use crate::ir::CellKind;
    use crate::parse::parse;
    use crate::testbench::{SramBrickModel, Testbench};

    const SRC: &str = "\
module spram (
  input wire clk,
  input wire we,
  input wire [3:0] waddr,
  input wire [3:0] raddr,
  input wire [7:0] din,
  output reg [7:0] dout
);
  reg [7:0] mem [15:0];
  always @(posedge clk) begin
    if (we)
      mem[waddr] <= din;
    dout <= mem[raddr];
  end
endmodule
";

    fn lowered(src: &str, entries: &[(&str, usize, &[&str])]) -> (Netlist, BehavModule) {
        let module = parse(src).unwrap();
        let inf = infer(&module);
        assert!(inf.rejected.is_empty(), "{:?}", inf.rejected);
        let plans: BTreeMap<String, MemLowering> = entries
            .iter()
            .map(|(name, bw, names)| {
                (
                    (*name).to_owned(),
                    MemLowering {
                        brick_words: *bw,
                        entry_names: names.iter().map(|s| (*s).to_owned()).collect(),
                    },
                )
            })
            .collect();
        let n = lower(&module, &inf, &plans).unwrap();
        (n, module)
    }

    fn vals(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
    }

    #[test]
    fn lowered_netlist_validates_and_has_the_macro() {
        let (n, _) = lowered(SRC, &[("mem", 8, &["brick_8t_8_8_x2"])]);
        assert!(n.validate().is_ok());
        assert_eq!(n.primary_outputs().len(), 8);
        let macros: Vec<_> = n
            .cells()
            .iter()
            .filter(|c| matches!(c.kind, CellKind::Macro { .. }))
            .collect();
        assert_eq!(macros.len(), 1);
        assert_eq!(macros[0].name, "u_mem_l0");
        assert_eq!(macros[0].inputs.len(), 2 + 2 * 16 + 8);
    }

    #[test]
    fn testbench_matches_behavioral_interpreter() {
        let (n, module) = lowered(SRC, &[("mem", 8, &["brick_8t_8_8_x2"])]);
        let mut tb = Testbench::new(&n, SramBrickModel::for_cell).unwrap();
        let mut gold = BehavInterp::new(&module).unwrap();
        let trace: &[(&str, u64, u64, u64, u64)] = &[
            // (we, waddr, raddr, din) tuples exercising collisions.
            ("w", 1, 3, 0, 0xA5),
            ("r", 0, 0, 3, 0),
            ("collide", 1, 3, 3, 0x5A), // read-during-write: old value
            ("r", 0, 0, 3, 0),
        ];
        for &(tag, we, waddr, raddr, din) in trace {
            let inputs = vals(&[("we", we), ("waddr", waddr), ("raddr", raddr), ("din", din)]);
            let got = tb.cycle(&inputs).unwrap();
            let want = gold.step(&inputs);
            assert_eq!(got["dout"], want["dout"], "step `{tag}`");
        }
    }

    #[test]
    fn byte_enable_lanes_lower_to_two_macros() {
        let src = "\
module be (
  input clk,
  input [1:0] we,
  input [2:0] waddr,
  input [2:0] raddr,
  input [15:0] din,
  output reg [15:0] dout
);
  reg [15:0] m [7:0];
  always @(posedge clk) begin
    if (we[0]) m[waddr][7:0] <= din[7:0];
    if (we[1]) m[waddr][15:8] <= din[15:8];
    dout <= m[raddr];
  end
endmodule
";
        let (n, module) = lowered(src, &[("m", 8, &["brick_8t_8_8_x1", "brick_8t_8_8_x1"])]);
        let macros = n
            .cells()
            .iter()
            .filter(|c| matches!(c.kind, CellKind::Macro { .. }))
            .count();
        assert_eq!(macros, 2);
        let mut tb = Testbench::new(&n, SramBrickModel::for_cell).unwrap();
        let mut gold = BehavInterp::new(&module).unwrap();
        // Write low lane only, then both, read back each time.
        for inputs in [
            vals(&[("we", 0b01), ("waddr", 2), ("din", 0xBEEF)]),
            vals(&[("raddr", 2)]),
            vals(&[("we", 0b11), ("waddr", 2), ("din", 0x1234), ("raddr", 2)]),
            vals(&[("raddr", 2)]),
        ] {
            let got = tb.cycle(&inputs).unwrap();
            let want = gold.step(&inputs);
            assert_eq!(got["dout"], want["dout"], "inputs {inputs:?}");
        }
    }

    #[test]
    fn residual_dff_and_assign_logic_is_lowered() {
        let src = "\
module mix (
  input clk,
  input we,
  input en,
  input d,
  input [1:0] waddr,
  input [1:0] raddr,
  input [3:0] din,
  output reg [3:0] q,
  output reg r,
  output y
);
  reg [3:0] m [3:0];
  always @(posedge clk) begin
    if (we) m[waddr] <= din;
    q <= m[raddr];
    if (en) r <= d;
  end
  assign y = d;
endmodule
";
        let (n, module) = lowered(src, &[("m", 4, &["brick_8t_4_4_x1"])]);
        assert_eq!(n.primary_outputs().len(), 6);
        let mut tb = Testbench::new(&n, SramBrickModel::for_cell).unwrap();
        let mut gold = BehavInterp::new(&module).unwrap();
        for inputs in [
            vals(&[("we", 1), ("waddr", 1), ("din", 0x9), ("d", 1), ("en", 0)]),
            vals(&[("raddr", 1), ("d", 1), ("en", 1)]),
            vals(&[("raddr", 1), ("d", 0), ("en", 0)]),
        ] {
            let got = tb.cycle(&inputs).unwrap();
            let want = gold.step(&inputs);
            for k in ["q", "r", "y"] {
                assert_eq!(got[k], want[k], "output `{k}` for {inputs:?}");
            }
        }
    }

    #[test]
    fn missing_plan_is_rejected() {
        let module = parse(SRC).unwrap();
        let inf = infer(&module);
        let err = lower(&module, &inf, &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, RtlError::BadGeneratorParams { .. }));
    }
}
