//! Ergonomic, schema-validated construction of BTPs.

use crate::error::BtpError;
use crate::program::{FkConstraint, Program, ProgramExpr, StmtId, MAX_PROGRAM_STATEMENTS};
use crate::statement::{Statement, StatementKind};
use mvrc_schema::{AttrSet, Relation, Schema};

/// Builder for [`Program`]s.
///
/// Statements are declared first (returning their [`StmtId`]), then composed into the program
/// body with [`push`](ProgramBuilder::push), [`seq`](ProgramBuilder::seq),
/// [`optional`](ProgramBuilder::optional), [`choice`](ProgramBuilder::choice) and
/// [`looped`](ProgramBuilder::looped). The top-level body is the sequence of pushed expressions.
#[derive(Debug)]
pub struct ProgramBuilder<'a> {
    schema: &'a Schema,
    name: String,
    statements: Vec<Statement>,
    body: Vec<ProgramExpr>,
    fk_constraints: Vec<FkConstraint>,
}

impl<'a> ProgramBuilder<'a> {
    /// Starts building a program with the given name against the given schema.
    pub fn new(schema: &'a Schema, name: impl Into<String>) -> Self {
        ProgramBuilder {
            schema,
            name: name.into(),
            statements: Vec::new(),
            body: Vec::new(),
            fk_constraints: Vec::new(),
        }
    }

    /// The schema this builder validates against.
    pub fn schema(&self) -> &Schema {
        self.schema
    }

    fn relation(&self, name: &str) -> Result<&'a Relation, BtpError> {
        self.schema
            .relation_by_name(name)
            .ok_or_else(|| BtpError::UnknownRelation(name.to_string()))
    }

    fn attrs(&self, rel: &Relation, names: &[&str]) -> Result<AttrSet, BtpError> {
        rel.attrs_by_names(names.iter().copied())
            .map_err(|attribute| BtpError::UnknownAttribute {
                relation: rel.name().to_string(),
                attribute,
            })
    }

    fn add_statement(&mut self, statement: Statement) -> Result<StmtId, BtpError> {
        let count = self.statements.len();
        if count == MAX_PROGRAM_STATEMENTS {
            return Err(BtpError::TooManyStatements {
                program: self.name.clone(),
                count: count + 1,
                limit: MAX_PROGRAM_STATEMENTS,
            });
        }
        self.statements.push(statement);
        Ok(StmtId(count as u16))
    }

    /// Declares an `ins` statement over `rel`.
    pub fn insert(&mut self, name: &str, rel: &str) -> Result<StmtId, BtpError> {
        let rel = self.relation(rel)?;
        let stmt = Statement::new(name, rel, StatementKind::Insert, None, None, None)?;
        self.add_statement(stmt)
    }

    /// Declares a `key sel` statement over `rel` reading `read` attributes.
    pub fn key_select(&mut self, name: &str, rel: &str, read: &[&str]) -> Result<StmtId, BtpError> {
        let rel = self.relation(rel)?;
        let read = self.attrs(rel, read)?;
        let stmt = Statement::new(name, rel, StatementKind::KeySelect, None, Some(read), None)?;
        self.add_statement(stmt)
    }

    /// Declares a `pred sel` statement over `rel` with predicate attributes `pread` and read
    /// attributes `read`.
    pub fn pred_select(
        &mut self,
        name: &str,
        rel: &str,
        pread: &[&str],
        read: &[&str],
    ) -> Result<StmtId, BtpError> {
        let rel = self.relation(rel)?;
        let pread = self.attrs(rel, pread)?;
        let read = self.attrs(rel, read)?;
        let stmt = Statement::new(
            name,
            rel,
            StatementKind::PredSelect,
            Some(pread),
            Some(read),
            None,
        )?;
        self.add_statement(stmt)
    }

    /// Declares a `key upd` statement over `rel` reading `read` and writing `write` attributes.
    pub fn key_update(
        &mut self,
        name: &str,
        rel: &str,
        read: &[&str],
        write: &[&str],
    ) -> Result<StmtId, BtpError> {
        let rel = self.relation(rel)?;
        let read = self.attrs(rel, read)?;
        let write = self.attrs(rel, write)?;
        let stmt = Statement::new(
            name,
            rel,
            StatementKind::KeyUpdate,
            None,
            Some(read),
            Some(write),
        )?;
        self.add_statement(stmt)
    }

    /// Declares a `pred upd` statement over `rel` with predicate attributes `pread`, reading
    /// `read` and writing `write` attributes.
    pub fn pred_update(
        &mut self,
        name: &str,
        rel: &str,
        pread: &[&str],
        read: &[&str],
        write: &[&str],
    ) -> Result<StmtId, BtpError> {
        let rel = self.relation(rel)?;
        let pread = self.attrs(rel, pread)?;
        let read = self.attrs(rel, read)?;
        let write = self.attrs(rel, write)?;
        let stmt = Statement::new(
            name,
            rel,
            StatementKind::PredUpdate,
            Some(pread),
            Some(read),
            Some(write),
        )?;
        self.add_statement(stmt)
    }

    /// Declares a `key del` statement over `rel`.
    pub fn key_delete(&mut self, name: &str, rel: &str) -> Result<StmtId, BtpError> {
        let rel = self.relation(rel)?;
        let stmt = Statement::new(name, rel, StatementKind::KeyDelete, None, None, None)?;
        self.add_statement(stmt)
    }

    /// Declares a `pred del` statement over `rel` with predicate attributes `pread`.
    pub fn pred_delete(
        &mut self,
        name: &str,
        rel: &str,
        pread: &[&str],
    ) -> Result<StmtId, BtpError> {
        let rel = self.relation(rel)?;
        let pread = self.attrs(rel, pread)?;
        let stmt = Statement::new(
            name,
            rel,
            StatementKind::PredDelete,
            Some(pread),
            None,
            None,
        )?;
        self.add_statement(stmt)
    }

    /// Appends an expression to the top-level sequence.
    pub fn push(&mut self, expr: ProgramExpr) -> &mut Self {
        self.body.push(expr);
        self
    }

    /// Appends several expressions to the top-level sequence.
    pub fn seq(&mut self, exprs: &[ProgramExpr]) -> &mut Self {
        self.body.extend_from_slice(exprs);
        self
    }

    /// Appends `(expr | ε)` to the top-level sequence.
    pub fn optional(&mut self, expr: ProgramExpr) -> &mut Self {
        self.body.push(ProgramExpr::optional(expr));
        self
    }

    /// Appends `(left | right)` to the top-level sequence.
    pub fn choice(&mut self, left: ProgramExpr, right: ProgramExpr) -> &mut Self {
        self.body.push(ProgramExpr::choice(left, right));
        self
    }

    /// Appends `loop(expr)` to the top-level sequence.
    pub fn looped(&mut self, expr: ProgramExpr) -> &mut Self {
        self.body.push(ProgramExpr::looped(expr));
        self
    }

    /// Adds a foreign-key constraint `range_stmt = fk(dom_stmt)` (Section 5.1).
    ///
    /// Validation enforces `rel(dom_stmt) = dom(fk)`, `rel(range_stmt) = range(fk)` and that the
    /// range-side statement identifies a single tuple (a key-based statement or an insert).
    pub fn fk_constraint(
        &mut self,
        fk: &str,
        dom_stmt: StmtId,
        range_stmt: StmtId,
    ) -> Result<&mut Self, BtpError> {
        let fk_ref = self
            .schema
            .foreign_key_by_name(fk)
            .ok_or_else(|| BtpError::UnknownForeignKey(fk.to_string()))?;
        let dom = self
            .statements
            .get(dom_stmt.index())
            .ok_or_else(|| BtpError::UnknownStatement(dom_stmt.to_string()))?;
        let range = self
            .statements
            .get(range_stmt.index())
            .ok_or_else(|| BtpError::UnknownStatement(range_stmt.to_string()))?;
        if dom.rel() != fk_ref.dom() {
            return Err(BtpError::InvalidFkConstraint {
                foreign_key: fk.to_string(),
                reason: format!(
                    "statement `{}` is over {} but dom({}) is {}",
                    dom.name(),
                    self.schema.relation(dom.rel()).name(),
                    fk,
                    self.schema.relation(fk_ref.dom()).name()
                ),
            });
        }
        if range.rel() != fk_ref.range() {
            return Err(BtpError::InvalidFkConstraint {
                foreign_key: fk.to_string(),
                reason: format!(
                    "statement `{}` is over {} but range({}) is {}",
                    range.name(),
                    self.schema.relation(range.rel()).name(),
                    fk,
                    self.schema.relation(fk_ref.range()).name()
                ),
            });
        }
        if !range.kind().identifies_single_tuple() {
            return Err(BtpError::InvalidFkConstraint {
                foreign_key: fk.to_string(),
                reason: format!(
                    "range-side statement `{}` must be key-based or an insert, got `{}`",
                    range.name(),
                    range.kind()
                ),
            });
        }
        self.fk_constraints.push(FkConstraint {
            fk: fk_ref.id(),
            dom_stmt,
            range_stmt,
        });
        Ok(self)
    }

    /// Finalizes the program. Statements that were declared but never composed into the body are
    /// allowed (and simply unused).
    pub fn build(self) -> Program {
        let body = if self.body.len() == 1 {
            self.body.into_iter().next().expect("length checked")
        } else {
            ProgramExpr::Seq(self.body)
        };
        Program::from_parts(self.name, self.statements, body, self.fk_constraints)
            .expect("`add_statement` refuses statements past the limit")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvrc_schema::SchemaBuilder;

    fn auction_schema() -> Schema {
        let mut b = SchemaBuilder::new("auction");
        let buyer = b.relation("Buyer", &["id", "calls"], &["id"]).unwrap();
        let bids = b
            .relation("Bids", &["buyerId", "bid"], &["buyerId"])
            .unwrap();
        let log = b
            .relation("Log", &["id", "buyerId", "bid"], &["id"])
            .unwrap();
        b.foreign_key("f1", bids, &["buyerId"], buyer, &["id"])
            .unwrap();
        b.foreign_key("f2", log, &["buyerId"], buyer, &["id"])
            .unwrap();
        b.build()
    }

    #[test]
    fn builds_place_bid_with_constraints() {
        let schema = auction_schema();
        let mut pb = ProgramBuilder::new(&schema, "PlaceBid");
        let q3 = pb
            .key_update("q3", "Buyer", &["calls"], &["calls"])
            .unwrap();
        let q4 = pb.key_select("q4", "Bids", &["bid"]).unwrap();
        let q5 = pb.key_update("q5", "Bids", &[], &["bid"]).unwrap();
        let q6 = pb.insert("q6", "Log").unwrap();
        pb.seq(&[q3.into(), q4.into()]);
        pb.optional(q5.into());
        pb.push(q6.into());
        pb.fk_constraint("f1", q4, q3).unwrap();
        pb.fk_constraint("f1", q5, q3).unwrap();
        pb.fk_constraint("f2", q6, q3).unwrap();
        let p = pb.build();
        assert_eq!(p.statement_count(), 4);
        assert_eq!(p.fk_constraints().len(), 3);
        assert_eq!(p.to_string(), "PlaceBid := q3; q4; (q5 | ε); q6");
        assert!(!p.is_linear());
    }

    #[test]
    fn unknown_relation_and_attribute_errors() {
        let schema = auction_schema();
        let mut pb = ProgramBuilder::new(&schema, "P");
        assert!(matches!(
            pb.insert("q", "Nope"),
            Err(BtpError::UnknownRelation(_))
        ));
        assert!(matches!(
            pb.key_select("q", "Buyer", &["missing"]),
            Err(BtpError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn fk_constraint_validation() {
        let schema = auction_schema();
        let mut pb = ProgramBuilder::new(&schema, "P");
        let q_buyer = pb
            .key_update("qa", "Buyer", &["calls"], &["calls"])
            .unwrap();
        let q_bids_pred = pb.pred_select("qb", "Bids", &["bid"], &["bid"]).unwrap();
        let q_bids_key = pb.key_select("qc", "Bids", &["bid"]).unwrap();

        // Unknown foreign key.
        assert!(matches!(
            pb.fk_constraint("nope", q_bids_key, q_buyer),
            Err(BtpError::UnknownForeignKey(_))
        ));
        // dom-side relation mismatch: f1 has dom Bids, not Buyer.
        assert!(matches!(
            pb.fk_constraint("f1", q_buyer, q_buyer),
            Err(BtpError::InvalidFkConstraint { .. })
        ));
        // range-side relation mismatch: f1 has range Buyer, not Bids.
        assert!(matches!(
            pb.fk_constraint("f1", q_bids_key, q_bids_key),
            Err(BtpError::InvalidFkConstraint { .. })
        ));
        // Valid: Bids statement -> Buyer key statement.
        pb.fk_constraint("f1", q_bids_key, q_buyer).unwrap();
        // Predicate-based statements are fine on the dom side too.
        pb.fk_constraint("f1", q_bids_pred, q_buyer).unwrap();
        let p = pb.build();
        assert_eq!(p.fk_constraints().len(), 2);
    }

    #[test]
    fn fk_constraint_range_must_identify_single_tuple() {
        let schema = auction_schema();
        let mut pb = ProgramBuilder::new(&schema, "P");
        let q_buyer_pred = pb
            .pred_select("qa", "Buyer", &["calls"], &["calls"])
            .unwrap();
        let q_bids = pb.key_select("qb", "Bids", &["bid"]).unwrap();
        let err = pb.fk_constraint("f1", q_bids, q_buyer_pred).unwrap_err();
        assert!(matches!(err, BtpError::InvalidFkConstraint { .. }));
    }

    #[test]
    fn single_expression_body_is_not_wrapped() {
        let schema = auction_schema();
        let mut pb = ProgramBuilder::new(&schema, "P");
        let q = pb.key_select("q", "Buyer", &["calls"]).unwrap();
        pb.looped(q.into());
        let p = pb.build();
        assert!(matches!(p.body(), ProgramExpr::Loop(_)));
        assert_eq!(p.to_string(), "P := loop(q)");
    }

    #[test]
    fn choice_composition() {
        let schema = auction_schema();
        let mut pb = ProgramBuilder::new(&schema, "P");
        let a = pb.key_select("qa", "Buyer", &["calls"]).unwrap();
        let b = pb.key_select("qb", "Buyer", &["id"]).unwrap();
        pb.choice(a.into(), b.into());
        let p = pb.build();
        assert_eq!(p.to_string(), "P := (qa | qb)");
    }

    #[test]
    fn a_program_holds_at_most_65536_statements() {
        let schema = auction_schema();
        let mut pb = ProgramBuilder::new(&schema, "P");
        for k in 0..MAX_PROGRAM_STATEMENTS {
            let id = pb.key_select("q", "Buyer", &["calls"]).unwrap();
            assert_eq!(id.index(), k);
        }
        assert_eq!(
            pb.insert("q", "Log").unwrap_err(),
            BtpError::TooManyStatements {
                program: "P".into(),
                count: 65_537,
                limit: 65_536,
            }
        );
        assert_eq!(pb.build().statement_count(), 65_536);
    }
}
