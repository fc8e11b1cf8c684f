//! Error type for BTP construction and SQL translation.

use std::fmt;

/// Errors arising while building programs or translating SQL into BTPs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BtpError {
    /// A relation referenced by a statement is not part of the schema.
    UnknownRelation(String),
    /// An attribute referenced by a statement does not belong to its relation.
    UnknownAttribute {
        /// The relation under consideration.
        relation: String,
        /// The unresolved attribute name.
        attribute: String,
    },
    /// A foreign key referenced by a constraint is not part of the schema.
    UnknownForeignKey(String),
    /// A statement violates the typing constraints of Figure 5 of the paper.
    InvalidStatement {
        /// The statement name.
        statement: String,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A foreign-key constraint `q_j = f(q_i)` violates its well-formedness conditions
    /// (Section 5.1): `rel(q_i) = dom(f)`, `rel(q_j) = range(f)` and `q_j` key-based.
    InvalidFkConstraint {
        /// The foreign key name.
        foreign_key: String,
        /// Human-readable description of the violated condition.
        reason: String,
    },
    /// A statement id does not belong to the program under construction.
    UnknownStatement(String),
    /// The SQL front-end failed to parse its input.
    SqlParse {
        /// Line number (1-based) where the error was detected.
        line: usize,
        /// Column number (1-based) where the error was detected.
        column: usize,
        /// Description of the parse failure.
        message: String,
    },
    /// A program declares more statements than a [`StmtId`](crate::StmtId) can number.
    TooManyStatements {
        /// The program's name.
        program: String,
        /// How many statements it declares (for a builder, counting the one refused).
        count: usize,
        /// The limit it exceeds.
        limit: usize,
    },
    /// A program of a workload text unfolds to more LTPs than the analyzer admits; see
    /// [`MAX_PROGRAM_LTPS`](crate::sql::MAX_PROGRAM_LTPS).
    TooManyLtps {
        /// The program's name.
        program: String,
        /// How many LTPs `Unfold≤2` would produce before duplicates are dropped (saturating).
        count: u64,
        /// The limit it exceeds.
        limit: u64,
    },
    /// The programs of a workload together unfold to more LTPs than the analyzer admits; see
    /// [`MAX_WORKLOAD_LTPS`](crate::sql::MAX_WORKLOAD_LTPS).
    TooManyWorkloadLtps {
        /// How many LTPs `Unfold≤2` would produce over all programs, before duplicates are
        /// dropped (saturating).
        count: u64,
        /// The limit it exceeds.
        limit: u64,
    },
    /// The LTPs of a workload may give more summary-graph edges than the analyzer admits; see
    /// [`MAX_WORKLOAD_EDGES`](crate::sql::MAX_WORKLOAD_EDGES).
    TooManyWorkloadEdges {
        /// The upper bound on the edges, `2·Σ_r s_r²` over the statement occurrences `s_r`
        /// on each relation `r` (saturating).
        bound: u64,
        /// The limit it exceeds.
        limit: u64,
    },
}

impl fmt::Display for BtpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BtpError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            BtpError::UnknownAttribute {
                relation,
                attribute,
            } => {
                write!(f, "relation `{relation}` has no attribute `{attribute}`")
            }
            BtpError::UnknownForeignKey(name) => write!(f, "unknown foreign key `{name}`"),
            BtpError::InvalidStatement { statement, reason } => {
                write!(f, "statement `{statement}` is not well-formed: {reason}")
            }
            BtpError::InvalidFkConstraint {
                foreign_key,
                reason,
            } => {
                write!(
                    f,
                    "foreign-key constraint over `{foreign_key}` is invalid: {reason}"
                )
            }
            BtpError::UnknownStatement(name) => write!(f, "unknown statement `{name}`"),
            BtpError::SqlParse {
                line,
                column,
                message,
            } => {
                write!(
                    f,
                    "SQL parse error at line {line}, column {column}: {message}"
                )
            }
            BtpError::TooManyStatements {
                program,
                count,
                limit,
            } => write!(
                f,
                "program `{program}` declares {count} statements, more than the limit of {limit}"
            ),
            BtpError::TooManyLtps {
                program,
                count,
                limit,
            } => write!(
                f,
                "program `{program}` unfolds to {count} LTPs under Unfold≤2, \
                 more than the limit of {limit}"
            ),
            BtpError::TooManyWorkloadLtps { count, limit } => write!(
                f,
                "the workload's programs unfold to {count} LTPs under Unfold≤2, \
                 more than the workload limit of {limit}"
            ),
            BtpError::TooManyWorkloadEdges { bound, limit } => write!(
                f,
                "the workload's LTPs may give up to {bound} summary-graph edges, \
                 more than the edge limit of {limit}"
            ),
        }
    }
}

impl std::error::Error for BtpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = BtpError::InvalidStatement {
            statement: "q1".into(),
            reason: "empty write set".into(),
        };
        assert!(e.to_string().contains("q1"));
        assert!(e.to_string().contains("empty write set"));
        let e = BtpError::SqlParse {
            line: 7,
            column: 12,
            message: "expected FROM".into(),
        };
        assert!(e.to_string().contains("line 7"));
        assert!(e.to_string().contains("column 12"));
    }
}
