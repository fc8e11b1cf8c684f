//! Abstract syntax tree of the SQL subset. Every name and literal borrows from the parsed
//! text (`'a`); the translator reads each once, and only the names of the BTP `Program` and
//! its statements are owned.

use crate::span::SourceSpan;

/// A parsed `PROGRAM name(:p1, :p2, …) { … }` block.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlProgram<'a> {
    /// The program name.
    pub name: &'a str,
    /// Declared host parameters (without the leading `:`).
    pub params: Vec<&'a str>,
    /// The program body.
    pub body: Vec<SqlStatement<'a>>,
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
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison<'a> {
    /// Operands of the left-hand side expression.
    pub left: Vec<Value<'a>>,
    /// The comparison operator.
    pub op: CompareOp,
    /// Operands of the right-hand side expression.
    pub right: Vec<Value<'a>>,
}

impl<'a> Comparison<'a> {
    /// Column names mentioned on either side.
    pub fn columns(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.left
            .iter()
            .chain(self.right.iter())
            .filter_map(Value::as_column)
    }

    /// If the comparison is a simple equality binding a single column to a single non-column
    /// operand (`col = :param`, `col = 3`, `:param = col` …), returns the column and the bound
    /// operand. Used both for key-based classification and foreign-key inference.
    pub fn column_binding(&self) -> Option<(&'a str, Value<'a>)> {
        if self.op != CompareOp::Eq {
            return None;
        }
        match (self.left.as_slice(), self.right.as_slice()) {
            ([Value::Column(c)], [v]) if v.as_column().is_none() => Some((c, *v)),
            ([v], [Value::Column(c)]) if v.as_column().is_none() => Some((c, *v)),
            _ => None,
        }
    }
}

/// A conjunction of comparisons (the only condition shape the subset supports).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Condition<'a> {
    /// The conjuncts.
    pub comparisons: Vec<Comparison<'a>>,
}

impl<'a> Condition<'a> {
    /// All column names mentioned anywhere in the condition.
    pub fn columns(&self) -> Vec<&'a str> {
        let mut out: Vec<&str> = Vec::new();
        for c in &self.comparisons {
            for col in c.columns() {
                if !out.contains(&col) {
                    out.push(col);
                }
            }
        }
        out
    }

    /// All `(column, operand)` equality bindings.
    pub fn bindings(&self) -> Vec<(&'a str, Value<'a>)> {
        self.comparisons
            .iter()
            .filter_map(Comparison::column_binding)
            .collect()
    }
}

/// An assignment of an `UPDATE … SET` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment<'a> {
    /// The attribute being written.
    pub target: &'a str,
    /// Operands of the assigned expression (columns contribute to the statement's read set).
    pub expr: Vec<Value<'a>>,
}

/// A statement of the SQL subset.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlStatement<'a> {
    /// `SELECT cols [INTO :vars] FROM rel [WHERE cond]`
    Select {
        /// Target relation.
        relation: &'a str,
        /// Selected columns; empty with `star = true` means `SELECT *`.
        columns: Vec<&'a str>,
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
        assignments: Vec<Assignment<'a>>,
        /// Optional `WHERE` condition.
        where_clause: Option<Condition<'a>>,
        /// Columns listed in a `RETURNING` clause (contribute to the read set).
        returning: Vec<&'a str>,
        /// Source position of the `UPDATE` keyword.
        span: SourceSpan,
    },
    /// `INSERT INTO rel [(cols)] VALUES (exprs)`
    Insert {
        /// Target relation.
        relation: &'a str,
        /// Explicit column list; empty means positional over all attributes.
        columns: Vec<&'a str>,
        /// Value expressions, one per column.
        values: Vec<Vec<Value<'a>>>,
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
        then_branch: Vec<SqlStatement<'a>>,
        /// Statements of the `ELSE` branch (empty when absent).
        else_branch: Vec<SqlStatement<'a>>,
    },
    /// `REPEAT … END REPEAT`, `FOR … DO … ENDFOR` or `WHILE … DO … ENDWHILE` — all map onto
    /// `loop(P)`.
    Loop {
        /// Statements of the loop body.
        body: Vec<SqlStatement<'a>>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_binding_recognizes_simple_equalities() {
        let cmp = Comparison {
            left: vec![Value::Column("id")],
            op: CompareOp::Eq,
            right: vec![Value::Param("B")],
        };
        let (col, v) = cmp.column_binding().unwrap();
        assert_eq!(col, "id");
        assert_eq!(v.as_param(), Some("B"));

        let swapped = Comparison {
            left: vec![Value::Number("3")],
            op: CompareOp::Eq,
            right: vec![Value::Column("id")],
        };
        assert_eq!(swapped.column_binding().unwrap().0, "id");

        let not_eq = Comparison {
            left: vec![Value::Column("bid")],
            op: CompareOp::Ge,
            right: vec![Value::Param("T")],
        };
        assert!(not_eq.column_binding().is_none());

        let col_to_col = Comparison {
            left: vec![Value::Column("a")],
            op: CompareOp::Eq,
            right: vec![Value::Column("b")],
        };
        assert!(col_to_col.column_binding().is_none());

        let compound = Comparison {
            left: vec![Value::Column("a"), Value::Column("b")],
            op: CompareOp::Eq,
            right: vec![Value::Param("x")],
        };
        assert!(compound.column_binding().is_none());
    }

    #[test]
    fn condition_columns_are_deduplicated() {
        let cond = Condition {
            comparisons: vec![
                Comparison {
                    left: vec![Value::Column("a")],
                    op: CompareOp::Eq,
                    right: vec![Value::Param("x")],
                },
                Comparison {
                    left: vec![Value::Column("a")],
                    op: CompareOp::Lt,
                    right: vec![Value::Column("b")],
                },
            ],
        };
        assert_eq!(cond.columns(), vec!["a", "b"]);
        assert_eq!(cond.bindings().len(), 1);
    }
}
