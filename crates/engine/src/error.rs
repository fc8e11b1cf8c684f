//! Error and abort types of the execution engine.

use std::fmt;

/// The reason a transaction was aborted by the engine.
///
/// Aborts are a normal part of optimistic / multi-version concurrency control; the driver
/// records them per reason so that the relative cost of the isolation levels (the motivation of
/// the paper: MVRC is cheaper than Serializable) becomes measurable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// The transaction tried to write a row that an uncommitted transaction has already written
    /// (dirty writes are forbidden under every isolation level of Section 3.5).
    WriteLocked,
    /// First-committer-wins: under Snapshot Isolation and Serializable, a row written by this
    /// transaction was concurrently modified by a transaction that committed after this
    /// transaction's snapshot.
    WriteConflict,
    /// Serializable only: commit-time read validation failed because a version observed by the
    /// transaction (through a key read or a predicate read) was overwritten by a transaction
    /// that committed first.
    SerializationConflict,
    /// A key-based statement addressed a row that does not exist in the visible snapshot
    /// (Section 5.4: "if no tuple with the specified key exists, the transaction must abort").
    MissingRow(String),
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::WriteLocked => write!(f, "write lock held by an uncommitted transaction"),
            AbortReason::WriteConflict => write!(f, "first-committer-wins write conflict"),
            AbortReason::SerializationConflict => {
                write!(
                    f,
                    "serializable certification failed: an observed version was overwritten"
                )
            }
            AbortReason::MissingRow(key) => write!(f, "key-based statement found no row for {key}"),
        }
    }
}

/// Errors raised by the engine for *mis-use* of the API (as opposed to aborts, which are part of
/// normal operation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The transaction id is unknown or the transaction already finished.
    UnknownTransaction(u64),
    /// A tuple key was inserted or loaded twice.
    DuplicateKey(String),
    /// A program name is not part of the workload.
    UnknownProgram(String),
    /// The transaction was aborted; the operation cannot proceed.
    Aborted(AbortReason),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownTransaction(id) => write!(f, "unknown transaction t{id}"),
            EngineError::DuplicateKey(key) => write!(f, "duplicate primary key {key}"),
            EngineError::UnknownProgram(name) => write!(f, "unknown program '{name}'"),
            EngineError::Aborted(reason) => write!(f, "transaction aborted: {reason}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Result alias for engine operations: the error channel carries only API mis-use; aborts are
/// surfaced through [`EngineError::Aborted`] so that `?` still works in statement code.
pub type EngineResult<T> = Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_reasons_render_human_readably() {
        assert!(AbortReason::WriteLocked.to_string().contains("uncommitted"));
        assert!(AbortReason::WriteConflict
            .to_string()
            .contains("first-committer-wins"));
        assert!(AbortReason::SerializationConflict
            .to_string()
            .contains("certification"));
        assert!(AbortReason::MissingRow("Account(7)".into())
            .to_string()
            .contains("Account(7)"));
    }

    #[test]
    fn engine_errors_render_human_readably() {
        assert!(EngineError::UnknownTransaction(3)
            .to_string()
            .contains("t3"));
        assert!(EngineError::DuplicateKey("R(1)".into())
            .to_string()
            .contains("R(1)"));
        assert!(EngineError::UnknownProgram("P".into())
            .to_string()
            .contains("'P'"));
        assert!(EngineError::Aborted(AbortReason::WriteLocked)
            .to_string()
            .contains("aborted"));
    }
}
