//! Basic transaction programs: statements, control-flow expressions and foreign-key
//! constraint annotations.

use crate::error::BtpError;
use crate::span::SourceSpan;
use crate::statement::Statement;
use mvrc_schema::FkId;
use serde::Serialize;
use std::fmt;
use std::sync::Arc;

/// The most statements a program can declare: every [`StmtId`] fits in 16 bits. Above it,
/// [`Program::from_parts`], the SQL front end and [`ProgramBuilder`](crate::ProgramBuilder)
/// fail with [`BtpError::TooManyStatements`], and snapshot decoding refuses the program as
/// corrupt.
pub const MAX_PROGRAM_STATEMENTS: usize = 1 << 16;

/// Identifier of a statement within its [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct StmtId(pub u16);

impl StmtId {
    /// Zero-based index of the statement in the program's statement table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl From<StmtId> for ProgramExpr {
    fn from(id: StmtId) -> Self {
        ProgramExpr::Statement(id)
    }
}

/// The control-flow syntax of BTPs (Section 5.1):
///
/// ```text
/// P ← loop(P) | (P | P) | (P | ε) | P; P | q
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum ProgramExpr {
    /// A single statement `q`.
    Statement(StmtId),
    /// Sequential composition `P1; P2; …; Pn`.
    Seq(Vec<ProgramExpr>),
    /// Branching `(P1 | P2)`.
    Choice(Box<ProgramExpr>, Box<ProgramExpr>),
    /// Optional execution `(P | ε)`.
    Optional(Box<ProgramExpr>),
    /// Iteration `loop(P)`: `P` repeated an arbitrary finite number of times.
    Loop(Box<ProgramExpr>),
    /// The empty program `ε`.
    Empty,
}

impl ProgramExpr {
    /// Sequential composition of a slice of expressions.
    pub fn seq(parts: impl IntoIterator<Item = ProgramExpr>) -> ProgramExpr {
        ProgramExpr::Seq(parts.into_iter().collect())
    }

    /// Branching between two alternatives.
    pub fn choice(left: ProgramExpr, right: ProgramExpr) -> ProgramExpr {
        ProgramExpr::Choice(Box::new(left), Box::new(right))
    }

    /// Optional execution of an expression.
    pub fn optional(inner: ProgramExpr) -> ProgramExpr {
        ProgramExpr::Optional(Box::new(inner))
    }

    /// Iteration of an expression.
    pub fn looped(inner: ProgramExpr) -> ProgramExpr {
        ProgramExpr::Loop(Box::new(inner))
    }

    /// Returns `true` if the expression contains a `loop` node.
    pub fn contains_loop(&self) -> bool {
        match self {
            ProgramExpr::Loop(_) => true,
            ProgramExpr::Statement(_) | ProgramExpr::Empty => false,
            ProgramExpr::Seq(parts) => parts.iter().any(ProgramExpr::contains_loop),
            ProgramExpr::Choice(a, b) => a.contains_loop() || b.contains_loop(),
            ProgramExpr::Optional(a) => a.contains_loop(),
        }
    }

    /// Returns `true` if the expression contains branching (`Choice` or `Optional`).
    pub fn contains_branching(&self) -> bool {
        match self {
            ProgramExpr::Choice(_, _) | ProgramExpr::Optional(_) => true,
            ProgramExpr::Statement(_) | ProgramExpr::Empty => false,
            ProgramExpr::Seq(parts) => parts.iter().any(ProgramExpr::contains_branching),
            ProgramExpr::Loop(a) => a.contains_branching(),
        }
    }

    /// Collects the statements mentioned by the expression, in pre-order.
    pub fn statements(&self) -> Vec<StmtId> {
        let mut out = Vec::new();
        self.collect_statements(&mut out);
        out
    }

    fn collect_statements(&self, out: &mut Vec<StmtId>) {
        match self {
            ProgramExpr::Statement(id) => out.push(*id),
            ProgramExpr::Empty => {}
            ProgramExpr::Seq(parts) => parts.iter().for_each(|p| p.collect_statements(out)),
            ProgramExpr::Choice(a, b) => {
                a.collect_statements(out);
                b.collect_statements(out);
            }
            ProgramExpr::Optional(a) | ProgramExpr::Loop(a) => a.collect_statements(out),
        }
    }
}

/// A foreign-key constraint annotation `q_j = f(q_i)` on a program (Section 5.1).
///
/// `dom_stmt` (`q_i`) ranges over the referencing relation `dom(f)`; `range_stmt` (`q_j`) is a
/// statement identifying a single tuple of the referenced relation `range(f)`. Every
/// instantiation of the program must access, through `range_stmt`, exactly the tuple that the
/// foreign key associates with the tuple accessed through `dom_stmt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct FkConstraint {
    /// The foreign key `f`.
    pub fk: FkId,
    /// `q_i`: the statement over `dom(f)`.
    pub dom_stmt: StmtId,
    /// `q_j`: the (single-tuple) statement over `range(f)`.
    pub range_stmt: StmtId,
}

/// A basic transaction program (BTP): a statement table, a control-flow body and foreign-key
/// constraint annotations.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Program {
    /// Shared with the LTPs unfolded from the program.
    pub(crate) name: Arc<str>,
    pub(crate) statements: Vec<Statement>,
    pub(crate) body: ProgramExpr,
    pub(crate) fk_constraints: Vec<FkConstraint>,
    /// Source position of each statement, parallel to `statements`. Empty (no spans) for
    /// programs not parsed from SQL text — builder-constructed or snapshot-decoded programs.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub(crate) spans: Vec<Option<SourceSpan>>,
}

impl Program {
    /// Creates a program from parts. Prefer [`ProgramBuilder`](crate::ProgramBuilder) which
    /// validates statements and constraints against a schema.
    ///
    /// Fails with [`BtpError::TooManyStatements`] above [`MAX_PROGRAM_STATEMENTS`] statements,
    /// whose ids would wrap.
    pub fn from_parts(
        name: impl Into<Arc<str>>,
        statements: Vec<Statement>,
        body: ProgramExpr,
        fk_constraints: Vec<FkConstraint>,
    ) -> Result<Self, BtpError> {
        let name = name.into();
        if statements.len() > MAX_PROGRAM_STATEMENTS {
            return Err(BtpError::TooManyStatements {
                program: name.to_string(),
                count: statements.len(),
                limit: MAX_PROGRAM_STATEMENTS,
            });
        }
        Ok(Program {
            name,
            statements,
            body,
            fk_constraints,
            spans: Vec::new(),
        })
    }

    /// Attaches source spans (parallel to the statement table) to the program. The SQL
    /// front-end uses this to record where each statement starts in the input text.
    ///
    /// # Panics
    ///
    /// Panics if `spans` is non-empty and its length differs from the statement count.
    pub fn with_spans(mut self, spans: Vec<Option<SourceSpan>>) -> Self {
        assert!(
            spans.is_empty() || spans.len() == self.statements.len(),
            "span table length {} does not match statement count {}",
            spans.len(),
            self.statements.len()
        );
        self.spans = spans;
        self
    }

    /// The source position of a statement, when the program was parsed from SQL text.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this program.
    pub fn span(&self, id: StmtId) -> Option<SourceSpan> {
        assert!(id.index() < self.statements.len(), "unknown statement {id}");
        self.spans.get(id.index()).copied().flatten()
    }

    /// The program's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns a copy of the program under a different name (program names must be unique
    /// within a workload; renaming lets a program template be instantiated several times).
    pub fn renamed(&self, name: impl Into<Arc<str>>) -> Self {
        Program {
            name: name.into(),
            ..self.clone()
        }
    }

    /// Returns a copy of the program whose statement `id` is `edit(id, statement)`; the body,
    /// constraints and source spans stay. The statement count cannot change, so neither can
    /// the ids.
    pub fn map_statements(&self, mut edit: impl FnMut(StmtId, &Statement) -> Statement) -> Self {
        Program {
            name: self.name.clone(),
            statements: self.statements().map(|(id, s)| edit(id, s)).collect(),
            body: self.body.clone(),
            fk_constraints: self.fk_constraints.clone(),
            spans: self.spans.clone(),
        }
    }

    /// Number of declared statements.
    #[inline]
    pub fn statement_count(&self) -> usize {
        self.statements.len()
    }

    /// Access a statement by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this program.
    pub fn statement(&self, id: StmtId) -> &Statement {
        &self.statements[id.index()]
    }

    /// Iterate over all declared statements with their ids.
    pub fn statements(&self) -> impl Iterator<Item = (StmtId, &Statement)> {
        self.statements
            .iter()
            .enumerate()
            .map(|(i, s)| (StmtId(i as u16), s))
    }

    /// The program's control-flow body.
    #[inline]
    pub fn body(&self) -> &ProgramExpr {
        &self.body
    }

    /// The program's foreign-key constraint annotations.
    #[inline]
    pub fn fk_constraints(&self) -> &[FkConstraint] {
        &self.fk_constraints
    }

    /// Returns `true` if the program is already linear (no loops, no branching), i.e. an LTP.
    pub fn is_linear(&self) -> bool {
        !self.body.contains_loop() && !self.body.contains_branching()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} := ", self.name)?;
        fmt_expr(&self.body, self, f)
    }
}

fn fmt_expr(expr: &ProgramExpr, program: &Program, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match expr {
        ProgramExpr::Statement(id) => f.write_str(program.statement(*id).name()),
        ProgramExpr::Empty => f.write_str("ε"),
        ProgramExpr::Seq(parts) => {
            let mut first = true;
            for p in parts {
                if !first {
                    f.write_str("; ")?;
                }
                fmt_expr(p, program, f)?;
                first = false;
            }
            Ok(())
        }
        ProgramExpr::Choice(a, b) => {
            f.write_str("(")?;
            fmt_expr(a, program, f)?;
            f.write_str(" | ")?;
            fmt_expr(b, program, f)?;
            f.write_str(")")
        }
        ProgramExpr::Optional(a) => {
            f.write_str("(")?;
            fmt_expr(a, program, f)?;
            f.write_str(" | ε)")
        }
        ProgramExpr::Loop(a) => {
            f.write_str("loop(")?;
            fmt_expr(a, program, f)?;
            f.write_str(")")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statement::StatementKind;
    use mvrc_schema::{AttrSet, SchemaBuilder};

    fn sample_program() -> Program {
        let mut b = SchemaBuilder::new("s");
        let r = b.relation("R", &["k", "v"], &["k"]).unwrap();
        let schema = b.build();
        let rel = schema.relation(r);
        let q0 = Statement::new(
            "q0",
            rel,
            StatementKind::KeyUpdate,
            None,
            Some(AttrSet::EMPTY),
            Some(rel.all_attrs()),
        )
        .unwrap();
        let q1 = Statement::new(
            "q1",
            rel,
            StatementKind::KeySelect,
            None,
            Some(rel.all_attrs()),
            None,
        )
        .unwrap();
        let body = ProgramExpr::seq([
            ProgramExpr::Statement(StmtId(0)),
            ProgramExpr::optional(ProgramExpr::Statement(StmtId(1))),
        ]);
        Program::from_parts("P", vec![q0, q1], body, vec![]).unwrap()
    }

    #[test]
    fn accessors_and_statement_iteration() {
        let p = sample_program();
        assert_eq!(p.name(), "P");
        assert_eq!(p.statement_count(), 2);
        assert_eq!(p.statement(StmtId(1)).name(), "q1");
        let ids: Vec<StmtId> = p.statements().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![StmtId(0), StmtId(1)]);
    }

    #[test]
    fn linearity_detection() {
        let p = sample_program();
        assert!(!p.is_linear());
        let linear = Program::from_parts(
            "L",
            p.statements.clone(),
            ProgramExpr::seq([
                ProgramExpr::Statement(StmtId(0)),
                ProgramExpr::Statement(StmtId(1)),
            ]),
            vec![],
        )
        .unwrap();
        assert!(linear.is_linear());
    }

    #[test]
    fn expr_structure_queries() {
        let looped = ProgramExpr::looped(ProgramExpr::Statement(StmtId(0)));
        assert!(looped.contains_loop());
        assert!(!looped.contains_branching());
        let choice = ProgramExpr::choice(
            ProgramExpr::Statement(StmtId(0)),
            ProgramExpr::Statement(StmtId(1)),
        );
        assert!(choice.contains_branching());
        assert!(!choice.contains_loop());
        assert_eq!(choice.statements(), vec![StmtId(0), StmtId(1)]);
        assert_eq!(ProgramExpr::Empty.statements(), vec![]);
    }

    #[test]
    fn display_uses_paper_notation() {
        let p = sample_program();
        assert_eq!(p.to_string(), "P := q0; (q1 | ε)");
        let with_loop = Program::from_parts(
            "L",
            p.statements.clone(),
            ProgramExpr::looped(ProgramExpr::Statement(StmtId(0))),
            vec![],
        )
        .unwrap();
        assert_eq!(with_loop.to_string(), "L := loop(q0)");
    }

    #[test]
    fn spans_default_to_none_and_survive_renaming() {
        let p = sample_program();
        assert_eq!(p.span(StmtId(0)), None);
        let span = SourceSpan { line: 3, column: 5 };
        let with = p.clone().with_spans(vec![Some(span), None]);
        assert_eq!(with.span(StmtId(0)), Some(span));
        assert_eq!(with.span(StmtId(1)), None);
        assert_eq!(with.renamed("P2").span(StmtId(0)), Some(span));
    }

    #[test]
    #[should_panic(expected = "span table length")]
    fn mismatched_span_table_panics() {
        let _ = sample_program().with_spans(vec![None]);
    }

    #[test]
    fn from_parts_refuses_more_statements_than_ids() {
        let q0 = sample_program().statement(StmtId(0)).clone();
        let parts = |count: usize| {
            Program::from_parts(
                "P",
                vec![q0.clone(); count],
                ProgramExpr::Statement(StmtId(0)),
                vec![],
            )
        };
        let accepted = parts(MAX_PROGRAM_STATEMENTS).unwrap();
        let last = accepted.statements().last().map(|(id, _)| id);
        assert_eq!(last, Some(StmtId(u16::MAX)));
        assert_eq!(
            parts(MAX_PROGRAM_STATEMENTS + 1).unwrap_err(),
            BtpError::TooManyStatements {
                program: "P".into(),
                count: MAX_PROGRAM_STATEMENTS + 1,
                limit: MAX_PROGRAM_STATEMENTS,
            }
        );
    }

    #[test]
    fn map_statements_keeps_body_constraints_and_spans() {
        let span = SourceSpan { line: 2, column: 1 };
        let p = sample_program().with_spans(vec![None, Some(span)]);
        let q0 = p.statement(StmtId(0)).clone();
        let edited = p.map_statements(|_, _| q0.clone());
        assert_eq!(edited.statement(StmtId(1)), &q0);
        assert_eq!(edited.to_string(), "P := q0; (q0 | ε)");
        assert_eq!(edited.span(StmtId(1)), Some(span));
        assert_eq!(edited.fk_constraints(), p.fk_constraints());
    }

    #[test]
    fn stmt_id_display_and_conversion() {
        assert_eq!(StmtId(4).to_string(), "q4");
        let expr: ProgramExpr = StmtId(2).into();
        assert_eq!(expr, ProgramExpr::Statement(StmtId(2)));
    }
}
