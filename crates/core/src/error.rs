use std::error::Error;
use std::fmt;

use domino_bdd::BddError;
use domino_netlist::NetlistError;

/// Errors from domino synthesis and phase-assignment search.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PhaseError {
    /// The underlying netlist was invalid or mis-sized.
    Netlist(NetlistError),
    /// BDD construction or probability computation failed.
    Bdd(BddError),
    /// A phase assignment's length does not match the network's output view.
    AssignmentMismatch {
        /// Outputs in the network's combinational view.
        expected: usize,
        /// Phases supplied.
        got: usize,
    },
    /// A per-input probability vector had the wrong length.
    ProbabilityMismatch {
        /// Primary input count.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// The flow was cooperatively cancelled at a stage boundary (see
    /// [`flow::minimize`](crate::flow::minimize)).
    Cancelled,
}

impl fmt::Display for PhaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhaseError::Netlist(e) => write!(f, "netlist error: {e}"),
            PhaseError::Bdd(e) => write!(f, "bdd error: {e}"),
            PhaseError::AssignmentMismatch { expected, got } => write!(
                f,
                "phase assignment has {got} phases but the network view has {expected} outputs"
            ),
            PhaseError::ProbabilityMismatch { expected, got } => write!(
                f,
                "expected {expected} primary-input probabilities, got {got}"
            ),
            PhaseError::Cancelled => write!(f, "flow cancelled"),
        }
    }
}

impl Error for PhaseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PhaseError::Netlist(e) => Some(e),
            PhaseError::Bdd(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for PhaseError {
    fn from(e: NetlistError) -> Self {
        PhaseError::Netlist(e)
    }
}

impl From<BddError> for PhaseError {
    fn from(e: BddError) -> Self {
        PhaseError::Bdd(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = PhaseError::AssignmentMismatch {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("2 phases"));
        let e: PhaseError = NetlistError::DuplicateName("x".into()).into();
        assert!(Error::source(&e).is_some());
    }
}
