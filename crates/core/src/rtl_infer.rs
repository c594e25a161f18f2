//! End-to-end RTL memory inference: behavioral Verilog in, brick-backed
//! smart memory plus a physical-flow report out.
//!
//! This is the glue between the `lim-rtl` frontend (parse → infer →
//! lower, which knows nothing about brick libraries) and the rest of the
//! stack: for every inferred memory it sweeps the caller's brick-depth
//! candidates through the analytic DSE estimator ([`crate::dse`]),
//! picks the decomposition minimizing the delay·energy·area product,
//! registers the winning bank entries in the flow's
//! [`BrickLibrary`](lim_brick::BrickLibrary),
//! lowers the module, and drives the full [`LimFlow`] physical
//! synthesis. The whole path is deterministic: the DSE sweep, the
//! tie-break (smaller brick first) and the flow are all byte-stable
//! across `lim-par` worker counts.

use crate::dse;
use crate::error::LimError;
use crate::flow::{LimBlock, LimFlow};
use crate::sram::check_wordline_budget;
use lim_brick::compiler::MAX_STACK;
use lim_brick::{BitcellKind, BrickSpec};
use lim_physical::power::MacroActivity;
use lim_rtl::infer::{infer, Inference};
use lim_rtl::smartmem::{lower, MemLowering};
use lim_rtl::{parse, verilog};
use lim_tech::units::{Femtojoules, Picoseconds, SquareMicrons};
use std::collections::BTreeMap;
use std::time::Duration;

/// Default brick-depth candidates when the caller passes none.
pub const DEFAULT_BRICK_WORDS: &[usize] = &[8, 16, 32, 64];

/// The DSE-chosen decomposition of one inferred memory.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPlan {
    /// Array name in the source.
    pub name: String,
    /// Words.
    pub words: usize,
    /// Word width in bits.
    pub bits: usize,
    /// Byte-enable lane widths (one full-word lane when not
    /// byte-enabled), ascending bit order.
    pub lane_bits: Vec<usize>,
    /// Chosen words-per-brick.
    pub brick_words: usize,
    /// Bricks stacked per lane column.
    pub stack: usize,
    /// Brick-library entry per lane.
    pub entry_names: Vec<String>,
    /// Estimated critical read path of the winning point (worst lane).
    pub delay: Picoseconds,
    /// Estimated read energy per access, summed over lanes.
    pub energy: Femtojoules,
    /// Estimated bank area, summed over lanes.
    pub area: SquareMicrons,
    /// How many brick-depth candidates tiled this memory.
    pub candidates: usize,
}

/// Wall-clock spent in each frontend stage (from the shared span
/// clock, valid whether or not obs collection is enabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RtlStageTimings {
    /// Source → behavioral IR.
    pub parse: Duration,
    /// IR → inference result.
    pub infer: Duration,
    /// Inference → structural netlist.
    pub lower: Duration,
}

/// Everything `rtl.infer` hands back for one source module.
#[derive(Debug, Clone)]
pub struct RtlInferReport {
    /// Module name from the source.
    pub module: String,
    /// Source lines consumed by the parser.
    pub parse_lines: usize,
    /// Per-memory decomposition choices, declaration order.
    pub memories: Vec<MemoryPlan>,
    /// The synthesized block (gate/macro counts + physical report).
    pub block: LimBlock,
    /// Structural Verilog of the lowered (pre-optimization) netlist.
    pub verilog: String,
    /// Frontend stage timings.
    pub timings: RtlStageTimings,
}

fn bad(reason: impl Into<String>) -> LimError {
    LimError::BadConfig {
        reason: reason.into(),
    }
}

/// Picks the brick decomposition for one memory: sweeps every distinct
/// candidate depth that tiles it through the analytic estimator and
/// keeps the delay·energy·area minimum (ties to the shallower brick).
fn choose_decomposition(
    flow: &LimFlow,
    mem: &lim_rtl::InferredMemory,
    brick_options: &[usize],
) -> Result<MemoryPlan, LimError> {
    let lanes = mem.lanes();
    let lane_bits: Vec<usize> = lanes.iter().map(|l| l.width()).collect();
    let widest = *lane_bits.iter().max().unwrap();
    // A repeated depth is dropped, first occurrence kept: it would add
    // nothing but sweep points. The kept list only holds depths that
    // divide the memory, so the `contains` scan stays short.
    let mut candidates: Vec<usize> = Vec::new();
    for &bw in brick_options {
        if !candidates.contains(&bw)
            && bw > 0
            && mem.words.is_multiple_of(bw)
            && (1..=MAX_STACK).contains(&(mem.words / bw))
            && BrickSpec::new(BitcellKind::Sram8T, bw, widest).is_ok()
        {
            candidates.push(bw);
        }
    }
    if candidates.is_empty() {
        return Err(bad(format!(
            "no brick depth in {brick_options:?} tiles memory `{}` ({} words, stack ≤ {MAX_STACK})",
            mem.name, mem.words
        )));
    }

    // One sweep per distinct lane width; points are keyed (bw, width).
    let mut widths: Vec<usize> = lane_bits.clone();
    widths.sort_unstable();
    widths.dedup();
    let memories: Vec<(usize, usize)> = widths.iter().map(|&w| (mem.words, w)).collect();
    let points = dse::explore(flow.technology(), &memories, &candidates)?;
    let point = |bw: usize, bits: usize| {
        points
            .iter()
            .find(|p| p.brick_words == bw && p.bits == bits)
            .expect("sweep covers the (bw, width) grid")
    };

    // Score a candidate over all lanes: the slowest lane bounds delay,
    // energy and area pay per lane.
    let mut best: Option<(f64, usize)> = None;
    for &bw in &candidates {
        let delay = lane_bits
            .iter()
            .map(|&w| point(bw, w).delay.value())
            .fold(0.0f64, f64::max);
        let energy: f64 = lane_bits.iter().map(|&w| point(bw, w).energy.value()).sum();
        let area: f64 = lane_bits.iter().map(|&w| point(bw, w).area.value()).sum();
        let score = delay * energy * area;
        let better = match best {
            None => true,
            // Strict `<`: equal scores keep the earlier (smaller) depth.
            Some((s, _)) => score < s,
        };
        if better {
            best = Some((score, bw));
        }
    }
    let (_, brick_words) = best.expect("candidates is non-empty");
    let stack = mem.words / brick_words;
    let entry_names: Vec<String> = lane_bits
        .iter()
        .map(|&w| {
            Ok(format!(
                "{}_x{stack}",
                BrickSpec::new(BitcellKind::Sram8T, brick_words, w)?.instance_name()
            ))
        })
        .collect::<Result<_, LimError>>()?;
    let delay = lane_bits
        .iter()
        .map(|&w| point(brick_words, w).delay.value())
        .fold(0.0f64, f64::max);
    let energy: f64 = lane_bits
        .iter()
        .map(|&w| point(brick_words, w).energy.value())
        .sum();
    let area: f64 = lane_bits
        .iter()
        .map(|&w| point(brick_words, w).area.value())
        .sum();
    Ok(MemoryPlan {
        name: mem.name.clone(),
        words: mem.words,
        bits: mem.bits,
        lane_bits,
        brick_words,
        stack,
        entry_names,
        delay: Picoseconds::new(delay),
        energy: Femtojoules::new(energy),
        area: SquareMicrons::new(area),
        candidates: candidates.len(),
    })
}

/// Parses behavioral Verilog, infers its memories, chooses a brick
/// decomposition per memory via DSE, lowers to a structural netlist and
/// runs the full physical flow.
///
/// `brick_options` lists the words-per-brick candidates (empty →
/// [`DEFAULT_BRICK_WORDS`]). The flow's brick library picks up every
/// bank entry the lowering instantiates, so a resident server can
/// snapshot/absorb it around the call exactly like `flow.run`.
///
/// # Errors
///
/// Returns [`LimError::BadConfig`] on parse errors (message carries the
/// `line:col` diagnostic), when any array is rejected by inference
/// (message lists every rejection), when no memory is inferred, or when
/// no brick candidate tiles a memory; propagates lowering and physical
/// synthesis failures.
pub fn infer_and_synthesize(
    flow: &mut LimFlow,
    source: &str,
    brick_options: &[usize],
) -> Result<RtlInferReport, LimError> {
    let _span = lim_obs::Span::enter("rtl_infer");
    let brick_options = if brick_options.is_empty() {
        DEFAULT_BRICK_WORDS
    } else {
        brick_options
    };

    let (parsed, parse_elapsed) = lim_obs::timed("rtl_parse", || parse::parse(source));
    let module = match parsed {
        Ok(m) => m,
        Err(e) => return Err(bad(format!("parse error at {e}"))),
    };
    lim_obs::counter_add("rtl.parse_lines", module.source_lines as u64);

    let (inference, infer_elapsed): (Inference, Duration) =
        lim_obs::timed("rtl_infer_pass", || infer(&module));
    lim_obs::counter_add("rtl.infer.memories", inference.memories.len() as u64);
    lim_obs::counter_add("rtl.infer.rejected", inference.rejected.len() as u64);
    if !inference.rejected.is_empty() {
        let mut lines: Vec<String> =
            inference.rejected.iter().map(|r| r.to_string()).collect();
        lines.sort();
        return Err(bad(format!(
            "{} array(s) not inferable: {}",
            inference.rejected.len(),
            lines.join("; ")
        )));
    }
    if inference.memories.is_empty() {
        return Err(bad(format!(
            "module `{}` declares no inferable memory array",
            module.name
        )));
    }
    check_wordline_budget(inference.memories.iter().fold(0usize, |trees, m| {
        trees.saturating_add(m.words.saturating_mul(1 + m.lanes().len()))
    }))?;

    // Per-memory decomposition choice + library registration.
    let mut plans_by_mem: BTreeMap<String, MemLowering> = BTreeMap::new();
    let mut plans: Vec<MemoryPlan> = Vec::with_capacity(inference.memories.len());
    for mem in &inference.memories {
        let plan = choose_decomposition(flow, mem, brick_options)?;
        let tech = flow.technology().clone();
        for (&w, _) in plan.lane_bits.iter().zip(&plan.entry_names) {
            let spec = BrickSpec::new(BitcellKind::Sram8T, plan.brick_words, w)?;
            flow.library_mut().get_or_insert(&tech, &spec, plan.stack)?;
        }
        // Fixed names, so the last memory placed wins: array names come
        // from the source text and never become telemetry keys.
        lim_obs::gauge_set("rtl.infer.words", plan.words as f64);
        lim_obs::gauge_set("rtl.infer.bits", plan.bits as f64);
        lim_obs::gauge_set("rtl.infer.brick_words", plan.brick_words as f64);
        lim_obs::gauge_set("rtl.infer.stack", plan.stack as f64);
        plans_by_mem.insert(
            mem.name.clone(),
            MemLowering {
                brick_words: plan.brick_words,
                entry_names: plan.entry_names.clone(),
            },
        );
        plans.push(plan);
    }

    let (lowered, lower_elapsed) =
        lim_obs::timed("rtl_lower", || lower(&module, &inference, &plans_by_mem));
    let netlist = lowered?;
    let structural = verilog::emit(&netlist);

    // Every lane macro is active each cycle: reads launch every edge,
    // writes land only when the enable fires — model the common
    // read-dominated duty cycle the SRAM path uses for one bank.
    let saved_activity = flow.options.macro_activity;
    flow.options.macro_activity = MacroActivity {
        read_rate: 1.0,
        write_rate: 0.0,
        match_rate: 0.0,
    };
    let block = flow.synthesize(&netlist);
    flow.options.macro_activity = saved_activity;
    let block = block?;

    Ok(RtlInferReport {
        module: module.name.clone(),
        parse_lines: module.source_lines,
        memories: plans,
        block,
        verilog: structural,
        timings: RtlStageTimings {
            parse: parse_elapsed,
            infer: infer_elapsed,
            lower: lower_elapsed,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "\
module spram (
  input wire clk,
  input wire we,
  input wire [4:0] waddr,
  input wire [4:0] raddr,
  input wire [9:0] din,
  output reg [9:0] dout
);
  reg [9:0] mem [31:0];
  always @(posedge clk) begin
    if (we)
      mem[waddr] <= din;
    dout <= mem[raddr];
  end
endmodule
";

    #[test]
    fn end_to_end_single_port() {
        let mut flow = LimFlow::cmos65();
        let report = infer_and_synthesize(&mut flow, SRC, &[8, 16, 32]).unwrap();
        assert_eq!(report.module, "spram");
        assert_eq!(report.memories.len(), 1);
        let m = &report.memories[0];
        assert_eq!(m.words, 32);
        assert_eq!(m.bits, 10);
        assert_eq!(m.candidates, 3);
        assert_eq!(m.stack * m.brick_words, 32);
        assert_eq!(m.entry_names.len(), 1);
        assert!(flow.library().get(&m.entry_names[0]).is_ok());
        assert!(report.block.report.fmax.value() > 0.0);
        assert!(report.block.macro_count == 1);
        assert!(report.verilog.contains("module spram ("));
        assert!(report.parse_lines >= 15);
    }

    #[test]
    fn choice_is_deterministic_and_scores_minimum() {
        let mut flow = LimFlow::cmos65();
        let a = infer_and_synthesize(&mut flow, SRC, &[8, 16, 32]).unwrap();
        let mut flow2 = LimFlow::cmos65();
        let b = infer_and_synthesize(&mut flow2, SRC, &[32, 16, 8]).unwrap();
        // Candidate order must not change the winner.
        assert_eq!(a.memories[0].brick_words, b.memories[0].brick_words);
        assert_eq!(
            a.block.report.min_period, b.block.report.min_period,
            "physical result must be reproducible"
        );
    }

    #[test]
    fn parse_and_inference_errors_surface_as_bad_config() {
        let mut flow = LimFlow::cmos65();
        let err = infer_and_synthesize(&mut flow, "module busted", &[16]).unwrap_err();
        assert!(matches!(err, LimError::BadConfig { .. }));
        assert!(err.to_string().contains("parse error"), "{err}");

        let async_read = "\
module ar (
  input clk,
  input we,
  input [1:0] waddr,
  input [1:0] raddr,
  input [3:0] din,
  output [3:0] q
);
  reg [3:0] m [3:0];
  always @(posedge clk)
    if (we) m[waddr] <= din;
  assign q = m[raddr];
endmodule
";
        let err = infer_and_synthesize(&mut flow, async_read, &[2]).unwrap_err();
        assert!(err.to_string().contains("async-read-port"), "{err}");
        // Rejections carry line:col.
        assert!(err.to_string().contains("12:"), "{err}");
    }

    #[test]
    fn untileable_memory_is_rejected() {
        let mut flow = LimFlow::cmos65();
        let err = infer_and_synthesize(&mut flow, SRC, &[7]).unwrap_err();
        assert!(matches!(err, LimError::BadConfig { .. }));
        assert!(err.to_string().contains("tiles memory"), "{err}");
    }
}
