//! Structural RTL infrastructure for the LiM flow.
//!
//! The LiM methodology expresses smart memories as RTL that instantiates
//! memory bricks next to synthesized standard-cell logic (decoders, bank
//! enables, compute blocks). This crate is the logic-synthesis side of the
//! picture:
//!
//! * [`ir`] — a flat gate-level structural netlist ([`Netlist`]) with
//!   validation (single driver per net, no dangling pins, no
//!   combinational loops).
//! * [`stdcell`] — the pattern-construct standard-cell library: logical
//!   effort parameters, pin capacitances, area, leakage, and Boolean
//!   evaluation for simulation.
//! * [`generators`] — parameterized netlist generators for the blocks the
//!   paper's flow synthesizes around bricks: decoders with predecoding,
//!   mux trees, comparators, priority encoders, adders, array multipliers
//!   and sequencers.
//! * [`mapping`] — netlist cleanup passes (constant propagation, dead-gate
//!   sweep, fanout buffering), the equivalent of the paper's Design
//!   Compiler step.
//! * [`sim`] — an event-driven two-value gate simulator with DFF support
//!   and a [`MacroModel`] hook for brick macros, producing per-net
//!   switching activity (the SAIF file of the paper's flow) for power
//!   analysis.
//! * [`testbench`] — one named-port harness over the simulator, with an
//!   SRAM-brick and a CAM macro model, that steps every generated memory.
//! * [`verilog`] — structural Verilog emission.
//!
//! The memory-inference frontend turns *behavioral* Verilog into the
//! structural world above:
//!
//! * [`parse`](mod@parse) — a hand-rolled parser for a behavioral subset
//!   (`module`/ports, `reg [W-1:0] mem [D-1:0]` arrays, clocked `always`
//!   write blocks, sync read ports) into [`behav::BehavModule`].
//! * [`behav`] — the frontend IR plus [`behav::BehavInterp`], the
//!   reference non-blocking-assignment interpreter.
//! * [`infer`] — memory inference: port classification and a rejection
//!   taxonomy with line/column diagnostics.
//! * [`smartmem`] — lowering of inferred memories to brick-macro columns
//!   with synthesized decoder/enable/driver periphery.
//!
//! # Examples
//!
//! Generate and exercise the paper's 5-to-32 decoder:
//!
//! ```
//! use lim_rtl::generators::decoder;
//! use lim_rtl::sim::Simulator;
//!
//! # fn main() -> Result<(), lim_rtl::RtlError> {
//! let dec = decoder("dec5to32", 5, 32, true)?;
//! let mut sim = Simulator::new(&dec)?;
//! // Address 13 = 0b01101 (LSB first: 1,0,1,1,0), enabled.
//! let outs = sim.eval(&[true, false, true, true, false, /*en*/ true])?;
//! assert_eq!(outs.iter().filter(|&&b| b).count(), 1);
//! assert!(outs[13]);
//! # Ok(())
//! # }
//! ```

pub mod behav;
pub mod error;
pub mod generators;
pub mod infer;
pub mod ir;
pub mod mapping;
pub mod parse;
pub mod sim;
pub mod smartmem;
pub mod stats;
pub mod stdcell;
pub mod testbench;
pub mod verilog;

pub use behav::{BehavInterp, BehavModule};
pub use error::RtlError;
pub use infer::{Inference, InferredMemory, RejectKind, Rejection};
pub use ir::{CellId, CellKind, NetId, Netlist};
pub use parse::{parse, ParseError};
pub use sim::{MacroModel, Simulator, SwitchingActivity};
pub use smartmem::MemLowering;
pub use stdcell::StdCellKind;
pub use testbench::{CamModel, SramBrickModel, Testbench};
