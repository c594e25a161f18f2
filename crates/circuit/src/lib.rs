//! RC circuit-level golden reference for the LiM flow.
//!
//! The paper validates its brick performance-estimation tool against SPICE
//! simulations of RC-extracted bitcell arrays (Table 1). This crate plays
//! the SPICE role: it represents extracted parasitic networks as explicit
//! R/C/switch/driver circuits ([`netlist`]) and integrates them in the time
//! domain with a backward-Euler solver ([`transient`]). Delay and slew are
//! measured on the resulting waveforms ([`waveform`]), and supply energy is
//! integrated alongside.
//!
//! The fast analytic estimator in `lim-brick` and this solver share the
//! same extracted parasitics but use *independent solution methods* — a
//! first-moment (Elmore) analysis versus full numerical integration — so
//! the tool-vs-golden error reported by the Table 1 reproduction is a real
//! methodological gap, as in the paper.
//!
//! # Examples
//!
//! Charging a 10 fF node through 1 kΩ and measuring the 50 % delay:
//!
//! ```
//! use lim_circuit::{Circuit, TransientSim};
//! use lim_circuit::waveform::Edge;
//! use lim_tech::units::{Femtofarads, KiloOhms, Picoseconds, Volts};
//!
//! # fn main() -> Result<(), lim_circuit::CircuitError> {
//! let mut ckt = Circuit::new();
//! let n = ckt.add_node("out");
//! ckt.add_cap(n, Femtofarads::new(10.0));
//! let src = ckt.add_source(n, KiloOhms::new(1.0), Volts::ZERO);
//! ckt.schedule(src, Picoseconds::ZERO, Volts::new(1.2));
//!
//! let result = TransientSim::new(&ckt)
//!     .run(Picoseconds::new(200.0), Picoseconds::new(0.05))?;
//! let t50 = result
//!     .cross_time(n, Volts::new(0.6), Edge::Rising)
//!     .expect("node should cross half-Vdd");
//! // RC ln 2 ≈ 6.93 ps.
//! assert!((t50.value() - 6.93).abs() < 0.2);
//! # Ok(())
//! # }
//! ```

pub mod elmore;
pub mod error;
pub mod extract;
pub mod netlist;
pub mod sparse;
pub mod transient;
pub mod vcd;
pub mod waveform;

pub use elmore::RcTree;
pub use error::CircuitError;
pub use netlist::{Circuit, NodeId, SourceId, SwitchId};
pub use sparse::PANEL_LANES;
pub use transient::{run_probed_batch, BatchRun, TransientResult, TransientSim};
pub use waveform::{Edge, Waveform};
