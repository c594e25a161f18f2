//! Error type for brick compilation and estimation.

use std::error::Error;
use std::fmt;

/// Errors raised by the brick compiler, estimator or library generator.
#[derive(Debug, Clone, PartialEq)]
pub enum BrickError {
    /// Array dimensions out of the supported range.
    InvalidArraySize {
        /// Requested rows.
        words: usize,
        /// Requested bits per word.
        bits: usize,
    },
    /// Stack count out of the supported range (1 ..= 64).
    InvalidStack(usize),
    /// The requested operation only applies to CAM bricks.
    NotACam {
        /// The brick that was asked for a match operation.
        brick: String,
    },
    /// A library lookup failed.
    UnknownEntry(String),
    /// The golden transient simulation failed.
    Golden(lim_circuit::CircuitError),
    /// The golden simulations of one configuration would integrate more
    /// node-steps than [`crate::golden::MAX_NODE_STEPS`].
    GoldenTooLarge {
        /// Node-steps (rows × steps) the read and write simulations need.
        node_steps: u64,
    },
    /// A technology parameter was invalid.
    Tech(lim_tech::TechError),
}

impl fmt::Display for BrickError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrickError::InvalidArraySize { words, bits } => write!(
                f,
                "array size {words}x{bits} is outside the supported range (1..={} words, 1..={} bits)",
                crate::BrickSpec::MAX_WORDS,
                crate::BrickSpec::MAX_BITS
            ),
            BrickError::InvalidStack(s) => {
                write!(f, "stack count {s} is outside the supported range 1..=64")
            }
            BrickError::NotACam { brick } => {
                write!(f, "brick `{brick}` is not a CAM; match operations unavailable")
            }
            BrickError::UnknownEntry(name) => write!(f, "no library entry named `{name}`"),
            BrickError::Golden(e) => write!(f, "golden simulation failed: {e}"),
            BrickError::GoldenTooLarge { node_steps } => write!(
                f,
                "golden simulation needs {node_steps} node-steps, past the bound of {} \
                 (rows x steps over the read and write transients)",
                crate::golden::MAX_NODE_STEPS
            ),
            BrickError::Tech(e) => write!(f, "technology error: {e}"),
        }
    }
}

impl Error for BrickError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BrickError::Golden(e) => Some(e),
            BrickError::Tech(e) => Some(e),
            _ => None,
        }
    }
}

impl From<lim_circuit::CircuitError> for BrickError {
    fn from(e: lim_circuit::CircuitError) -> Self {
        BrickError::Golden(e)
    }
}

impl From<lim_tech::TechError> for BrickError {
    fn from(e: lim_tech::TechError) -> Self {
        BrickError::Tech(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = BrickError::InvalidArraySize { words: 0, bits: 8 };
        assert!(e.to_string().contains("0x8"));
        let g = BrickError::from(lim_circuit::CircuitError::UnknownNode(1));
        assert!(g.source().is_some());
        assert!(BrickError::InvalidStack(99).to_string().contains("99"));
    }
}
