//! Logic-in-Memory (LiM) synthesis: the primary contribution of the
//! DAC'15 paper, as a library.
//!
//! The flow (paper Fig. 2): smart memories are described structurally,
//! bitcell arrays map to compiled **memory bricks** (`lim-brick`), custom
//! periphery and computation logic map to pattern-compatible standard
//! cells (`lim-rtl`), and the whole block goes through conventional
//! physical synthesis (`lim-physical`) — the memory macro is a "white
//! box" whose boundary logic synthesis can see through.
//!
//! This crate provides:
//!
//! * [`sram`] — the 1R1W SRAM smart-memory generator (paper Fig. 3):
//!   stacked bricks, read/write decoders, bank enables and output muxing,
//!   with arbitrary partitioning (Fig. 4 configurations A–E).
//! * [`cam`] — the CAM smart-memory generator used by the SpGEMM
//!   accelerator (paper Fig. 5): search registers, match-line capture,
//!   priority decode and a sequencer.
//! * [`flow`] — [`LimFlow`]: one object that compiles bricks on demand,
//!   generates RTL, and runs it through mapping + physical synthesis to a
//!   [`LimBlock`] report.
//! * [`dse`] — rapid design-space exploration over brick/partition
//!   choices (paper Fig. 4c), with pareto-front extraction.
//! * [`rtl_infer`] — the behavioral-RTL entry point: parse a
//!   `reg [W-1:0] mem [D-1:0]` design, infer its memories, choose each
//!   one's brick decomposition via [`dse`], lower to a smart memory and
//!   run the full flow ([`infer_and_synthesize`]).
//! * [`chip`] — silicon emulation: die-to-die variation and measurement
//!   noise sampling so library-based simulation can be compared against
//!   "chip measurements" (paper Fig. 4b).
//!
//! # Examples
//!
//! Build the paper's configuration B (32x10 b SRAM from two stacked
//! 16x10 b bricks) and synthesize it:
//!
//! ```
//! use lim::flow::LimFlow;
//! use lim::sram::SramConfig;
//!
//! # fn main() -> Result<(), lim::LimError> {
//! let mut flow = LimFlow::cmos65();
//! let config = SramConfig::new(32, 10, 1, 16)?;
//! let block = flow.synthesize_sram(&config)?;
//! assert!(block.report.fmax.value() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod cam;
pub mod chip;
pub mod dse;
pub mod error;
pub mod flow;
pub mod interpolation;
pub mod parallel_access;
pub mod rtl_infer;
pub mod soc;
pub mod sram;

pub use chip::{ChipSample, SiliconEmulation};
pub use dse::{pareto_front, DsePoint};
pub use error::LimError;
pub use flow::{LimBlock, LimFlow};
pub use parallel_access::ParallelAccessConfig;
pub use rtl_infer::{infer_and_synthesize, MemoryPlan, RtlInferReport};
pub use sram::SramConfig;
