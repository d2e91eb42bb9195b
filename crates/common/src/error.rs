//! Workspace-wide error type.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// The error type shared by every `cstore` crate.
///
/// Variants are intentionally coarse: each names the subsystem that can
/// produce it plus a human-readable message. Call sites that need to react
/// programmatically match on the variant; everything else just propagates.
#[derive(Debug)]
pub enum Error {
    /// A schema/type mismatch (wrong column type, arity mismatch, ...).
    Type(String),
    /// Malformed or unsupported SQL.
    Sql(String),
    /// Catalog problems: unknown table/column, duplicate names, ...
    Catalog(String),
    /// Planner/optimizer failures.
    Plan(String),
    /// Execution-time failures (overflow, division by zero, spill errors).
    Execution(String),
    /// Storage-layer failures: corrupt segment, bad checksum, format version.
    Storage(String),
    /// Underlying I/O error (file-backed blob store, spill files).
    Io(std::io::Error),
    /// An operation is valid but not supported by this build.
    Unsupported(String),
    /// The resource governor refused the operation: admission queue
    /// timeout/overflow, or a memory reservation beyond the shared ledger
    /// that could not be resolved by spilling.
    ResourceExhausted(String),
    /// The database is in read-only degradation; the message names the
    /// cause (sticky WAL failure, blob-store write failure, failed mover).
    ReadOnly(String),
    /// A write-write conflict between concurrent transactions: two
    /// transactions tried to delete/update the same row, and this one lost.
    Conflict(String),
    /// The statement ran past its `SET query_timeout_ms` deadline.
    Timeout,
}

impl Error {
    /// Short code naming the variant; stable for tests and log grepping.
    pub fn code(&self) -> &'static str {
        match self {
            Error::Type(_) => "TYPE",
            Error::Sql(_) => "SQL",
            Error::Catalog(_) => "CATALOG",
            Error::Plan(_) => "PLAN",
            Error::Execution(_) => "EXECUTION",
            Error::Storage(_) => "STORAGE",
            Error::Io(_) => "IO",
            Error::Unsupported(_) => "UNSUPPORTED",
            Error::ResourceExhausted(_) => "RESOURCE_EXHAUSTED",
            Error::ReadOnly(_) => "READ_ONLY",
            Error::Conflict(_) => "CONFLICT",
            Error::Timeout => "TIMEOUT",
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Type(m) => write!(f, "type error: {m}"),
            Error::Sql(m) => write!(f, "SQL error: {m}"),
            Error::Catalog(m) => write!(f, "catalog error: {m}"),
            Error::Plan(m) => write!(f, "plan error: {m}"),
            Error::Execution(m) => write!(f, "execution error: {m}"),
            Error::Storage(m) => write!(f, "storage error: {m}"),
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::ResourceExhausted(m) => write!(f, "resource exhausted: {m}"),
            Error::ReadOnly(m) => write!(f, "database is read-only: {m}"),
            Error::Conflict(m) => write!(f, "write-write conflict: {m}"),
            // Same text as when this was an `Execution` error.
            Error::Timeout => {
                write!(
                    f,
                    "execution error: query timeout exceeded (SET query_timeout_ms)"
                )
            }
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
    fn display_includes_message() {
        let e = Error::Type("expected Int64".into());
        assert_eq!(e.to_string(), "type error: expected Int64");
        assert_eq!(e.code(), "TYPE");
    }

    #[test]
    fn governor_variants_display_and_code() {
        let e = Error::ResourceExhausted("admission queue timeout".into());
        assert_eq!(e.code(), "RESOURCE_EXHAUSTED");
        assert_eq!(e.to_string(), "resource exhausted: admission queue timeout");
        let e = Error::ReadOnly("WAL is failed: disk full".into());
        assert_eq!(e.code(), "READ_ONLY");
        assert!(e.to_string().contains("read-only"));
        assert!(e.to_string().contains("disk full"));
    }

    #[test]
    fn conflict_variant_displays_and_codes() {
        let e = Error::Conflict("row t:42 already written by txn 7".into());
        assert_eq!(e.code(), "CONFLICT");
        assert!(e.to_string().contains("write-write conflict"));
        assert!(e.to_string().contains("txn 7"));
    }

    #[test]
    fn timeout_is_its_own_variant_with_the_established_text() {
        assert_eq!(Error::Timeout.code(), "TIMEOUT");
        assert_eq!(
            Error::Timeout.to_string(),
            "execution error: query timeout exceeded (SET query_timeout_ms)"
        );
    }

    #[test]
    fn io_error_converts_and_chains() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert_eq!(e.code(), "IO");
        assert!(std::error::Error::source(&e).is_some());
    }
}
