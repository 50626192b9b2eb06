//! Runtime errors.
//!
//! A [`FilterError`] carries *where* it happened (`filter`, normally a
//! `stage[copy]` label), *what* happened (`message`), and a structured
//! [`ErrorKind`] so callers can distinguish an ordinary filter failure
//! from a caught panic, a malformed packet, a run-deadline stall, or a
//! secondary cancellation.

use std::fmt;

/// What class of failure a [`FilterError`] represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorKind {
    /// The filter returned an error from its own code.
    #[default]
    Failed,
    /// The filter copy panicked; the executor caught the panic and
    /// converted it (panic isolation).
    Panicked,
    /// A packet could not be decoded (short / corrupt payload).
    Malformed,
    /// The run exceeded its deadline or made no progress for longer than
    /// the stall timeout; the message names where copies were blocked.
    Stalled,
    /// The copy was interrupted because the run was cancelled (secondary
    /// to the root cause, e.g. a deadline expiry elsewhere).
    Cancelled,
}

impl ErrorKind {
    fn verb(self) -> &'static str {
        match self {
            ErrorKind::Failed => "failed",
            ErrorKind::Panicked => "panicked",
            ErrorKind::Malformed => "received malformed data",
            ErrorKind::Stalled => "stalled",
            ErrorKind::Cancelled => "was cancelled",
        }
    }
}

/// An error raised by a filter or the executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterError {
    /// Name of the filter (or subsystem) that failed.
    pub filter: String,
    pub message: String,
    /// Failure class (ordinary error, caught panic, malformed packet,
    /// stall, cancellation).
    pub kind: ErrorKind,
}

impl FilterError {
    pub fn new(filter: impl Into<String>, message: impl Into<String>) -> Self {
        FilterError {
            filter: filter.into(),
            message: message.into(),
            kind: ErrorKind::Failed,
        }
    }

    /// A caught panic, attributed to `filter`.
    pub fn panicked(filter: impl Into<String>, message: impl Into<String>) -> Self {
        FilterError {
            kind: ErrorKind::Panicked,
            ..FilterError::new(filter, message)
        }
    }

    /// A packet that could not be decoded.
    pub fn malformed(filter: impl Into<String>, message: impl Into<String>) -> Self {
        FilterError {
            kind: ErrorKind::Malformed,
            ..FilterError::new(filter, message)
        }
    }

    /// A deadline/stall-detector diagnosis.
    pub fn stalled(filter: impl Into<String>, message: impl Into<String>) -> Self {
        FilterError {
            kind: ErrorKind::Stalled,
            ..FilterError::new(filter, message)
        }
    }

    /// A copy interrupted by run cancellation.
    pub fn cancelled(filter: impl Into<String>, message: impl Into<String>) -> Self {
        FilterError {
            kind: ErrorKind::Cancelled,
            ..FilterError::new(filter, message)
        }
    }
}

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "filter `{}` {}: {}",
            self.filter,
            self.kind.verb(),
            self.message
        )
    }
}

impl std::error::Error for FilterError {}

/// Result alias for filter code.
pub type FilterResult<T> = Result<T, FilterError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = FilterError::new("extract", "bad buffer");
        assert_eq!(e.to_string(), "filter `extract` failed: bad buffer");
    }

    #[test]
    fn display_names_the_kind() {
        assert_eq!(
            FilterError::panicked("f1[0]", "index out of bounds").to_string(),
            "filter `f1[0]` panicked: index out of bounds"
        );
        assert_eq!(
            FilterError::malformed("sum[1]", "short packet").to_string(),
            "filter `sum[1]` received malformed data: short packet"
        );
        assert_eq!(
            FilterError::stalled("pipeline", "deadline 100ms exceeded").to_string(),
            "filter `pipeline` stalled: deadline 100ms exceeded"
        );
    }

    #[test]
    fn constructors_set_the_kind() {
        assert_eq!(FilterError::new("x", "m").kind, ErrorKind::Failed);
        assert_eq!(FilterError::cancelled("x", "m").kind, ErrorKind::Cancelled);
    }
}
