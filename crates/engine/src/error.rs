use std::fmt;

use domino_netlist::NetlistError;
use domino_phase::PhaseError;

/// Errors from job resolution, execution or the cache.
#[derive(Debug)]
pub enum EngineError {
    /// A malformed or inconsistent job specification.
    Spec(String),
    /// Filesystem trouble (BLIF paths, disk cache).
    Io(String),
    /// The circuit failed to parse or validate.
    Netlist(NetlistError),
    /// The synthesis flow itself failed.
    Flow(PhaseError),
    /// The batch was cancelled before this job ran.
    Cancelled,
    /// The flow panicked mid-run; the worker contained it and the rest of
    /// the batch continued.
    Panicked(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Spec(msg) => write!(f, "invalid job spec: {msg}"),
            EngineError::Io(msg) => write!(f, "i/o error: {msg}"),
            EngineError::Netlist(e) => write!(f, "netlist error: {e}"),
            EngineError::Flow(e) => write!(f, "flow error: {e}"),
            EngineError::Cancelled => write!(f, "job cancelled"),
            EngineError::Panicked(msg) => write!(f, "flow panicked: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Netlist(e) => Some(e),
            EngineError::Flow(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for EngineError {
    fn from(e: NetlistError) -> Self {
        EngineError::Netlist(e)
    }
}

impl From<PhaseError> for EngineError {
    /// A flow cancelled at a stage boundary is a cancelled job, not a
    /// failed one.
    fn from(e: PhaseError) -> Self {
        match e {
            PhaseError::Cancelled => EngineError::Cancelled,
            other => EngineError::Flow(other),
        }
    }
}
