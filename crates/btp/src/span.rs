//! Source positions for statements parsed from SQL text.
//!
//! The SQL front-end records where each statement starts; the span travels with the
//! [`Program`](crate::Program) so downstream consumers (the `mvrc lint` diagnostics renderer)
//! can point back at the `file:line:column` of the SQL a summary-graph node came from.

use serde::Serialize;
use std::fmt;

/// A 1-based line/column position in the SQL source a statement was parsed from.
///
/// Spans identify the first token of the statement (`SELECT`, `UPDATE`, `INSERT`, `DELETE`).
/// Programs built through [`ProgramBuilder`](crate::ProgramBuilder) or decoded from snapshots
/// carry no spans; the accessors then return `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct SourceSpan {
    /// Line number (1-based).
    pub line: usize,
    /// Column number (1-based).
    pub column: usize,
}

impl fmt::Display for SourceSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_as_line_colon_column() {
        let span = SourceSpan {
            line: 48,
            column: 5,
        };
        assert_eq!(span.to_string(), "48:5");
    }
}
