//! Error type for netlist construction, simulation and mapping.

use std::error::Error;
use std::fmt;

/// Errors raised by the RTL infrastructure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtlError {
    /// A net id referenced a net that does not exist.
    UnknownNet(usize),
    /// A cell id referenced a cell that does not exist.
    UnknownCell(usize),
    /// A net has more than one driver.
    MultipleDrivers {
        /// Name of the doubly driven net.
        net: String,
    },
    /// A net has no driver and is not a primary input.
    Undriven {
        /// Name of the floating net.
        net: String,
    },
    /// A gate was built with the wrong number of input pins.
    WrongPinCount {
        /// Cell kind name.
        cell: &'static str,
        /// Expected inputs.
        expected: usize,
        /// Provided inputs.
        got: usize,
    },
    /// The combinational part of the netlist has a cycle.
    CombinationalLoop {
        /// A cell on the cycle.
        cell: String,
    },
    /// Simulation input vector length does not match the port count.
    WrongInputCount {
        /// Expected number of primary inputs.
        expected: usize,
        /// Provided number.
        got: usize,
    },
    /// A generator was asked for an unsupported configuration.
    BadGeneratorParams {
        /// Which generator.
        generator: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// A simulation model does not fit the cell it was bound to.
    MacroModel {
        /// Instance name of the cell.
        cell: String,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for RtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtlError::UnknownNet(id) => write!(f, "unknown net id {id}"),
            RtlError::UnknownCell(id) => write!(f, "unknown cell id {id}"),
            RtlError::MultipleDrivers { net } => write!(f, "net `{net}` has multiple drivers"),
            RtlError::Undriven { net } => write!(f, "net `{net}` has no driver"),
            RtlError::WrongPinCount {
                cell,
                expected,
                got,
            } => write!(f, "cell `{cell}` takes {expected} inputs, got {got}"),
            RtlError::CombinationalLoop { cell } => {
                write!(f, "combinational loop through cell `{cell}`")
            }
            RtlError::WrongInputCount { expected, got } => {
                write!(f, "expected {expected} primary-input values, got {got}")
            }
            RtlError::BadGeneratorParams { generator, reason } => {
                write!(f, "generator `{generator}`: {reason}")
            }
            RtlError::MacroModel { cell, reason } => write!(f, "model of `{cell}`: {reason}"),
        }
    }
}

impl Error for RtlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            RtlError::MultipleDrivers { net: "x".into() }.to_string(),
            "net `x` has multiple drivers"
        );
        assert!(RtlError::WrongPinCount {
            cell: "NAND2",
            expected: 2,
            got: 3
        }
        .to_string()
        .contains("NAND2"));
    }
}
