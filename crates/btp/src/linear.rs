//! Linear transaction programs (LTPs): BTPs without loops and branching (Section 6.1).
//!
//! An LTP is simply a finite sequence of statements. Statement identity within an LTP is
//! *positional* — the same BTP statement may occur multiple times after loop unfolding — and the
//! program order `q <_P q'` used by Algorithm 1/2 is the positional order.

use crate::program::{FkConstraint, Program, StmtId};
use crate::statement::Statement;
use mvrc_schema::FkId;
use serde::Serialize;
use std::fmt;
use std::sync::Arc;

/// A position of a statement within a [`LinearProgram`].
pub type StmtPos = usize;

/// A foreign-key constraint of an LTP, expressed over statement positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct LinearFkConstraint {
    /// The foreign key `f`.
    pub fk: FkId,
    /// Position of `q_i`, the statement over `dom(f)`.
    pub dom_pos: StmtPos,
    /// Position of `q_j`, the single-tuple statement over `range(f)`.
    pub range_pos: StmtPos,
}

/// A linear transaction program: a named sequence of statements with foreign-key constraints.
/// The LTPs unfolded from one program share its name.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LinearProgram {
    pub(crate) name: String,
    pub(crate) program_name: Arc<str>,
    pub(crate) statements: Vec<Statement>,
    pub(crate) origins: Vec<StmtId>,
    pub(crate) fk_constraints: Vec<LinearFkConstraint>,
}

impl LinearProgram {
    /// Creates an LTP directly from a sequence of statements.
    ///
    /// `origins` records, for every position, the id of the BTP statement the occurrence stems
    /// from; when building LTPs by hand it can simply be the positional identity.
    pub fn new(
        name: impl Into<String>,
        program_name: impl Into<Arc<str>>,
        statements: Vec<Statement>,
        origins: Vec<StmtId>,
        fk_constraints: Vec<LinearFkConstraint>,
    ) -> Self {
        assert_eq!(
            statements.len(),
            origins.len(),
            "every LTP position needs an origin statement id"
        );
        LinearProgram {
            name: name.into(),
            program_name: program_name.into(),
            statements,
            origins,
            fk_constraints,
        }
    }

    /// Builds an LTP from a [`Program`] that is already linear (no loops, no branching).
    ///
    /// # Panics
    ///
    /// Panics if the program is not linear; use [`unfold_le2`](crate::unfold_le2) for general
    /// BTPs.
    pub fn from_linear_program(program: &Program) -> Self {
        assert!(
            program.is_linear(),
            "program `{}` contains loops or branching; unfold it instead",
            program.name()
        );
        let order = program.body().statements();
        let statements: Vec<Statement> = order
            .iter()
            .map(|id| program.statement(*id).clone())
            .collect();
        let pos_of = |stmt: StmtId| order.iter().position(|s| *s == stmt);
        let fk_constraints = program
            .fk_constraints()
            .iter()
            .filter_map(|c: &FkConstraint| {
                Some(LinearFkConstraint {
                    fk: c.fk,
                    dom_pos: pos_of(c.dom_stmt)?,
                    range_pos: pos_of(c.range_stmt)?,
                })
            })
            .collect();
        LinearProgram {
            name: program.name().to_string(),
            program_name: program.name.clone(),
            statements,
            origins: order,
            fk_constraints,
        }
    }

    /// The LTP's name (unique among the unfoldings of a program, e.g. `PlaceBid[2]`).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name of the BTP this LTP was unfolded from.
    #[inline]
    pub fn program_name(&self) -> &str {
        &self.program_name
    }

    /// Number of statements.
    #[inline]
    pub fn len(&self) -> usize {
        self.statements.len()
    }

    /// Returns `true` if the LTP has no statements (possible when all branches collapse to `ε`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// Access a statement by position.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of range.
    #[inline]
    pub fn statement(&self, pos: StmtPos) -> &Statement {
        &self.statements[pos]
    }

    /// Iterate over `(position, statement)` pairs in program order.
    pub fn statements(&self) -> impl Iterator<Item = (StmtPos, &Statement)> {
        self.statements.iter().enumerate()
    }

    /// The BTP statement id a position originates from.
    #[inline]
    pub fn origin(&self, pos: StmtPos) -> StmtId {
        self.origins[pos]
    }

    /// The LTP's foreign-key constraints.
    #[inline]
    pub fn fk_constraints(&self) -> &[LinearFkConstraint] {
        &self.fk_constraints
    }

    /// Foreign-key constraints whose domain-side statement is at `pos` — i.e. constraints of the
    /// form `q_k = f(q_pos)` used by `cDepConds` in Algorithm 1.
    pub fn fk_constraints_with_dom(
        &self,
        pos: StmtPos,
    ) -> impl Iterator<Item = &LinearFkConstraint> {
        self.fk_constraints.iter().filter(move |c| c.dom_pos == pos)
    }

    /// Program order test `self[a] <_P self[b]`.
    #[inline]
    pub fn precedes(&self, a: StmtPos, b: StmtPos) -> bool {
        a < b
    }

    /// Derives the tuple-granularity variant of this LTP (every defined attribute set widened to
    /// the full attribute set of its relation); `all_attrs` resolves `Attr(rel)` per relation.
    pub fn widen_to_tuple_granularity(
        &self,
        mut all_attrs: impl FnMut(mvrc_schema::RelId) -> mvrc_schema::AttrSet,
    ) -> LinearProgram {
        LinearProgram {
            name: self.name.clone(),
            program_name: self.program_name.clone(),
            statements: self
                .statements
                .iter()
                .map(|s| s.widen_to_tuple_granularity(all_attrs(s.rel())))
                .collect(),
            origins: self.origins.clone(),
            fk_constraints: self.fk_constraints.clone(),
        }
    }
}

impl fmt::Display for LinearProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} := ", self.name)?;
        let names: Vec<&str> = self.statements.iter().map(|s| s.name()).collect();
        f.write_str(&names.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use mvrc_schema::SchemaBuilder;

    fn schema() -> mvrc_schema::Schema {
        let mut b = SchemaBuilder::new("auction");
        let buyer = b.relation("Buyer", &["id", "calls"], &["id"]).unwrap();
        let bids = b
            .relation("Bids", &["buyerId", "bid"], &["buyerId"])
            .unwrap();
        b.foreign_key("f1", bids, &["buyerId"], buyer, &["id"])
            .unwrap();
        b.build()
    }

    fn find_bids(schema: &mvrc_schema::Schema) -> Program {
        let mut pb = ProgramBuilder::new(schema, "FindBids");
        let q1 = pb
            .key_update("q1", "Buyer", &["calls"], &["calls"])
            .unwrap();
        let q2 = pb.pred_select("q2", "Bids", &["bid"], &["bid"]).unwrap();
        pb.seq(&[q1.into(), q2.into()]);
        pb.build()
    }

    #[test]
    fn from_linear_program_preserves_order_and_origins() {
        let schema = schema();
        let p = find_bids(&schema);
        let ltp = LinearProgram::from_linear_program(&p);
        assert_eq!(ltp.len(), 2);
        assert_eq!(ltp.name(), "FindBids");
        assert_eq!(ltp.program_name(), "FindBids");
        assert_eq!(ltp.statement(0).name(), "q1");
        assert_eq!(ltp.statement(1).name(), "q2");
        assert_eq!(ltp.origin(0), StmtId(0));
        assert_eq!(ltp.origin(1), StmtId(1));
        assert!(ltp.precedes(0, 1));
        assert!(!ltp.precedes(1, 1));
        assert!(!ltp.is_empty());
    }

    #[test]
    #[should_panic(expected = "contains loops or branching")]
    fn from_linear_program_rejects_branching() {
        let schema = schema();
        let mut pb = ProgramBuilder::new(&schema, "P");
        let q = pb.key_select("q", "Buyer", &["calls"]).unwrap();
        pb.optional(q.into());
        let p = pb.build();
        let _ = LinearProgram::from_linear_program(&p);
    }

    #[test]
    fn fk_constraints_with_dom_filters_by_position() {
        let schema = schema();
        let mut pb = ProgramBuilder::new(&schema, "PlaceBidLinear");
        let q3 = pb
            .key_update("q3", "Buyer", &["calls"], &["calls"])
            .unwrap();
        let q4 = pb.key_select("q4", "Bids", &["bid"]).unwrap();
        pb.seq(&[q3.into(), q4.into()]);
        pb.fk_constraint("f1", q4, q3).unwrap();
        let p = pb.build();
        let ltp = LinearProgram::from_linear_program(&p);
        let with_dom: Vec<_> = ltp.fk_constraints_with_dom(1).collect();
        assert_eq!(with_dom.len(), 1);
        assert_eq!(with_dom[0].range_pos, 0);
        assert_eq!(ltp.fk_constraints_with_dom(0).count(), 0);
    }

    #[test]
    fn widening_to_tuple_granularity_widens_defined_sets() {
        let schema = schema();
        let p = find_bids(&schema);
        let ltp = LinearProgram::from_linear_program(&p);
        let widened = ltp.widen_to_tuple_granularity(|rel| schema.all_attrs(rel));
        // q1 is a key update on Buyer(id, calls): its defined sets now cover both attributes.
        assert_eq!(widened.statement(0).write_attrs().len(), 2);
        // q2 is a predicate selection: write set stays undefined.
        assert_eq!(widened.statement(1).write_set(), None);
        assert_eq!(widened.statement(1).pread_attrs().len(), 2);
    }

    #[test]
    fn display_lists_statement_names() {
        let schema = schema();
        let ltp = LinearProgram::from_linear_program(&find_bids(&schema));
        assert_eq!(ltp.to_string(), "FindBids := q1; q2");
    }
}
