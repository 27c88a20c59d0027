//! Error type shared across the workspace.

use std::fmt;

/// Errors produced by the density-biased sampling library.
#[derive(Debug)]
pub enum Error {
    /// A point or dataset had a different dimensionality than expected.
    DimensionMismatch { expected: usize, got: usize },
    /// A parameter was outside its valid range (e.g. a negative bandwidth,
    /// an empty dataset where points are required, a sample size of zero).
    InvalidParameter(String),
    /// An I/O failure while reading or writing a dataset file.
    Io(std::io::Error),
    /// A dataset file could not be parsed.
    Parse { line: usize, message: String },
    /// Point `index` (0-based, in scan order) has a NaN or infinite
    /// coordinate.
    NonFinite { index: usize },
}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            Error::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            Error::NonFinite { index } => write!(f, "non-finite coordinate at point {index}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = Error::DimensionMismatch {
            expected: 2,
            got: 3,
        };
        assert_eq!(e.to_string(), "dimension mismatch: expected 2, got 3");
    }

    #[test]
    fn display_invalid_parameter() {
        let e = Error::InvalidParameter("bandwidth must be positive".into());
        assert!(e.to_string().contains("bandwidth must be positive"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
        use std::error::Error as _;
        assert!(e.source().is_some());
    }

    #[test]
    fn parse_error_mentions_line() {
        let e = Error::Parse {
            line: 7,
            message: "bad float".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }
}
