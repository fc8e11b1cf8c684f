//! Abstract syntax tree of the SQL subset. Every name and literal borrows from the parsed
//! text (`'a`); the translator reads each once, and only the names of the BTP `Program` and
//! its statements are owned.
//!
//! The tree is flat: a [`SqlText`] keeps every statement, name, operand, comparison,
//! assignment and `VALUES` expression of the text in one buffer per kind, and a node refers to
//! its children as a [`Run`] of consecutive entries, read back by indexing the text
//! (`text[block]`). Parsing a text allocates these buffers, not a vector per statement.

use crate::span::SourceSpan;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Index;

/// A parsed text: its `PROGRAM` blocks and the buffers their nodes index into.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SqlText<'a> {
    /// The `PROGRAM` blocks, in source order.
    pub programs: Vec<SqlProgram<'a>>,
    pub(super) statements: Vec<SqlStatement<'a>>,
    pub(super) names: Vec<&'a str>,
    pub(super) operands: Vec<Value<'a>>,
    pub(super) comparisons: Vec<Comparison<'a>>,
    pub(super) assignments: Vec<Assignment<'a>>,
    pub(super) values: Vec<Operands<'a>>,
}

/// Consecutive entries `T` of one of a [`SqlText`]'s buffers; `text[run]` is the slice.
pub struct Run<T> {
    start: usize,
    end: usize,
    entries: PhantomData<fn() -> T>,
}

impl<T> Run<T> {
    /// The entries of `buffer` from `start` on.
    pub(super) fn since(start: usize, buffer: &[T]) -> Self {
        Run {
            start,
            end: buffer.len(),
            entries: PhantomData,
        }
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the run has no entries.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

// Derives would demand `T: Clone`, `T: Debug`, …; a run is two indices whatever `T` is.
impl<T> Clone for Run<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Run<T> {}

impl<T> PartialEq for Run<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.start, self.end) == (other.start, other.end)
    }
}

impl<T> Eq for Run<T> {}

impl<T> Default for Run<T> {
    fn default() -> Self {
        Run {
            start: 0,
            end: 0,
            entries: PhantomData,
        }
    }
}

impl<T> fmt::Debug for Run<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

macro_rules! index_buffer {
    ($($buffer:ident: $entry:ty,)*) => {$(
        impl<'a> Index<Run<$entry>> for SqlText<'a> {
            type Output = [$entry];

            fn index(&self, run: Run<$entry>) -> &[$entry] {
                &self.$buffer[run.start..run.end]
            }
        }
    )*};
}

index_buffer! {
    statements: SqlStatement<'a>,
    names: &'a str,
    operands: Value<'a>,
    comparisons: Comparison<'a>,
    assignments: Assignment<'a>,
    values: Operands<'a>,
}

/// A statement list: a program body, a branch of an `IF` or a loop body.
pub type Block<'a> = Run<SqlStatement<'a>>;
/// A list of names: columns, `RETURNING` columns or program parameters.
pub type Names<'a> = Run<&'a str>;
/// The operands of a (flattened) arithmetic expression.
pub type Operands<'a> = Run<Value<'a>>;
/// A `WHERE` clause: a conjunction of comparisons (the only condition shape the subset
/// supports).
pub type Condition<'a> = Run<Comparison<'a>>;

/// A parsed `PROGRAM name(:p1, :p2, …) { … }` block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SqlProgram<'a> {
    /// The program name.
    pub name: &'a str,
    /// Declared host parameters (without the leading `:`).
    pub params: Names<'a>,
    /// The program body.
    pub body: Block<'a>,
}

/// A single operand inside an expression or comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value<'a> {
    /// A column reference.
    Column(&'a str),
    /// A host parameter `:name`.
    Param(&'a str),
    /// A numeric literal.
    Number(&'a str),
    /// A string literal.
    Str(&'a str),
}

impl<'a> Value<'a> {
    /// The column name if this operand is a column reference.
    pub fn as_column(&self) -> Option<&'a str> {
        match self {
            Value::Column(c) => Some(c),
            _ => None,
        }
    }

    /// The parameter name if this operand is a host parameter.
    pub fn as_param(&self) -> Option<&'a str> {
        match self {
            Value::Param(p) => Some(p),
            _ => None,
        }
    }
}

/// Comparison operators of the SQL subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A single comparison `left op right`, where each side is a (flattened) arithmetic expression
/// represented by its operands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison<'a> {
    /// Operands of the left-hand side expression.
    pub left: Operands<'a>,
    /// The comparison operator.
    pub op: CompareOp,
    /// Operands of the right-hand side expression.
    pub right: Operands<'a>,
}

impl<'a> SqlText<'a> {
    /// Column names mentioned on either side of a comparison.
    pub fn columns(&self, cmp: Comparison<'a>) -> impl Iterator<Item = &'a str> + '_ {
        self[cmp.left]
            .iter()
            .chain(&self[cmp.right])
            .filter_map(Value::as_column)
    }

    /// If the comparison is a simple equality binding a single column to a single non-column
    /// operand (`col = :param`, `col = 3`, `:param = col` …), returns the column and the bound
    /// operand. Used both for key-based classification and foreign-key inference.
    pub fn column_binding(&self, cmp: Comparison<'a>) -> Option<(&'a str, Value<'a>)> {
        if cmp.op != CompareOp::Eq {
            return None;
        }
        match (&self[cmp.left], &self[cmp.right]) {
            ([Value::Column(c)], [v]) if v.as_column().is_none() => Some((c, *v)),
            ([v], [Value::Column(c)]) if v.as_column().is_none() => Some((c, *v)),
            _ => None,
        }
    }
}

/// An assignment of an `UPDATE … SET` clause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment<'a> {
    /// The attribute being written.
    pub target: &'a str,
    /// Operands of the assigned expression (columns contribute to the statement's read set).
    pub expr: Operands<'a>,
}

/// A statement of the SQL subset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SqlStatement<'a> {
    /// `SELECT cols [INTO :vars] FROM rel [WHERE cond]`
    Select {
        /// Target relation.
        relation: &'a str,
        /// Selected columns; empty with `star = true` means `SELECT *`.
        columns: Names<'a>,
        /// Whether `*` was selected.
        star: bool,
        /// Optional `WHERE` condition.
        where_clause: Option<Condition<'a>>,
        /// Source position of the `SELECT` keyword.
        span: SourceSpan,
    },
    /// `UPDATE rel SET a = expr, … [WHERE cond] [RETURNING cols [INTO :vars]]`
    Update {
        /// Target relation.
        relation: &'a str,
        /// `SET` assignments.
        assignments: Run<Assignment<'a>>,
        /// Optional `WHERE` condition.
        where_clause: Option<Condition<'a>>,
        /// Columns listed in a `RETURNING` clause (contribute to the read set).
        returning: Names<'a>,
        /// Source position of the `UPDATE` keyword.
        span: SourceSpan,
    },
    /// `INSERT INTO rel [(cols)] VALUES (exprs)`
    Insert {
        /// Target relation.
        relation: &'a str,
        /// Explicit column list; empty means positional over all attributes.
        columns: Names<'a>,
        /// Value expressions, one per column.
        values: Run<Operands<'a>>,
        /// Source position of the `INSERT` keyword.
        span: SourceSpan,
    },
    /// `DELETE FROM rel [WHERE cond]`
    Delete {
        /// Target relation.
        relation: &'a str,
        /// Optional `WHERE` condition.
        where_clause: Option<Condition<'a>>,
        /// Source position of the `DELETE` keyword.
        span: SourceSpan,
    },
    /// `IF cond THEN … [ELSE …] ENDIF` — the condition only involves host variables and is not
    /// retained beyond parsing.
    If {
        /// Statements of the `THEN` branch.
        then_branch: Block<'a>,
        /// Statements of the `ELSE` branch (empty when absent).
        else_branch: Block<'a>,
    },
    /// `REPEAT … END REPEAT`, `FOR … DO … ENDFOR` or `WHILE … DO … ENDWHILE` — all map onto
    /// `loop(P)`.
    Loop {
        /// Statements of the loop body.
        body: Block<'a>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A text holding `comparisons`, each side given by its operands.
    fn text<'a>(comparisons: &[(&[Value<'a>], CompareOp, &[Value<'a>])]) -> SqlText<'a> {
        let mut text = SqlText::default();
        for &(left, op, right) in comparisons {
            let start = text.operands.len();
            text.operands.extend_from_slice(left);
            let left = Run::since(start, &text.operands);
            let start = text.operands.len();
            text.operands.extend_from_slice(right);
            let right = Run::since(start, &text.operands);
            text.comparisons.push(Comparison { left, op, right });
        }
        text
    }

    #[test]
    fn column_binding_recognizes_simple_equalities() {
        let text = text(&[
            (&[Value::Column("id")], CompareOp::Eq, &[Value::Param("B")]),
            (&[Value::Number("3")], CompareOp::Eq, &[Value::Column("id")]),
            (&[Value::Column("bid")], CompareOp::Ge, &[Value::Param("T")]),
            (&[Value::Column("a")], CompareOp::Eq, &[Value::Column("b")]),
            (
                &[Value::Column("a"), Value::Column("b")],
                CompareOp::Eq,
                &[Value::Param("x")],
            ),
        ]);
        let binding = |i: usize| text.column_binding(text.comparisons[i]);
        let (col, v) = binding(0).unwrap();
        assert_eq!(col, "id");
        assert_eq!(v.as_param(), Some("B"));
        // Swapped sides.
        assert_eq!(binding(1).unwrap().0, "id");
        // Not an equality, column to column, a compound side.
        assert!(binding(2).is_none());
        assert!(binding(3).is_none());
        assert!(binding(4).is_none());
    }

    #[test]
    fn comparison_columns_come_from_both_sides() {
        let text = text(&[(
            &[Value::Column("a"), Value::Number("1")],
            CompareOp::Lt,
            &[Value::Column("b")],
        )]);
        let columns: Vec<&str> = text.columns(text.comparisons[0]).collect();
        assert_eq!(columns, vec!["a", "b"]);
        let condition: Condition<'_> = Run::since(0, &text.comparisons);
        assert_eq!(text[condition].len(), 1);
    }
}
