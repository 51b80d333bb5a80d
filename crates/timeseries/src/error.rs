use std::fmt;

/// Errors produced by time-series operations.
///
/// The `Display` form is a lowercase, punctuation-free sentence per the Rust
/// API guidelines; every variant carries enough context to diagnose the
/// failing call without a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TimeSeriesError {
    /// Two series that must share a length (and alignment) did not.
    LengthMismatch {
        /// Length of the left-hand series.
        left: usize,
        /// Length of the right-hand series.
        right: usize,
    },
    /// Two series that must start at the same timestamp did not.
    StartMismatch,
    /// A window or index fell outside the series bounds.
    OutOfBounds {
        /// The offending index (in hours from the series start).
        index: usize,
        /// The series length.
        len: usize,
    },
    /// An operation that requires a non-empty series received an empty one.
    Empty,
    /// A calendar component (month, day, hour) was invalid.
    InvalidDate {
        /// Human-readable description of what was invalid.
        what: &'static str,
    },
}

impl fmt::Display for TimeSeriesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LengthMismatch { left, right } => {
                write!(f, "series lengths differ: {left} vs {right}")
            }
            Self::StartMismatch => write!(f, "series start timestamps differ"),
            Self::OutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for series of length {len}")
            }
            Self::Empty => write!(f, "operation requires a non-empty series"),
            Self::InvalidDate { what } => write!(f, "invalid date component: {what}"),
        }
    }
}

impl std::error::Error for TimeSeriesError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_trailing_punctuation() {
        let errors: Vec<TimeSeriesError> = vec![
            TimeSeriesError::LengthMismatch { left: 1, right: 2 },
            TimeSeriesError::StartMismatch,
            TimeSeriesError::OutOfBounds { index: 5, len: 3 },
            TimeSeriesError::Empty,
            TimeSeriesError::InvalidDate { what: "month" },
        ];
        for err in errors {
            let text = err.to_string();
            assert!(!text.is_empty());
            assert!(text.chars().next().unwrap().is_lowercase());
            assert!(!text.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TimeSeriesError>();
    }
}
