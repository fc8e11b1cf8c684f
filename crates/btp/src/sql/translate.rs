//! Translation of parsed SQL programs into BTPs (Appendix A of the paper).

use super::ast::{Block, Condition, SqlProgram, SqlStatement, SqlText, Value};
use crate::error::BtpError;
use crate::program::{FkConstraint, Program, ProgramExpr, StmtId, MAX_PROGRAM_STATEMENTS};
use crate::span::SourceSpan;
use crate::statement::{Statement, StatementKind};
use crate::unfold::{add_statement_occurrences, unfolding_count, UnfoldOptions};
use mvrc_schema::{AttrId, AttrSet, ForeignKey, RelId, Relation, Schema};
use std::sync::Arc;

/// Translates every parsed program of a workload. Fails before anything is unfolded when a
/// program would unfold to more than [`MAX_PROGRAM_LTPS`] LTPs, or all of them together to
/// more than [`MAX_WORKLOAD_LTPS`] LTPs or more than [`MAX_WORKLOAD_EDGES`] possible edges.
pub fn translate_workload(schema: &Schema, text: &SqlText<'_>) -> Result<Vec<Program>, BtpError> {
    let fks = FksByDom::new(schema);
    let mut ctx = TranslateCtx {
        schema,
        fks: &fks,
        text,
        numbered: 0,
        statements: Vec::new(),
        bindings: Vec::new(),
        binding_ends: Vec::new(),
        spans: Vec::new(),
    };
    let programs = text
        .programs
        .iter()
        .map(|p| ctx.translate(p))
        .collect::<Result<Vec<_>, _>>()?;
    check_workload_ltps(&programs, UnfoldOptions::default())?;
    Ok(programs)
}

/// The most LTPs one program of a workload text may unfold to (`Unfold≤2`, counted before
/// duplicates are dropped); a program above it is a [`BtpError::TooManyLtps`].
///
/// Algorithm 1's summary graph has a node per LTP statement and grows quadratically in them, so
/// time and memory follow this count. `mvrc analyze` on one-program files, on a 2-core VM
/// (20-byte edges; the last two rows were measured before this limit existed, with 40-byte
/// edges, and are refused at once now):
///
/// | program | LTPs | time | peak RSS |
/// |---|---|---|---|
/// | 3 nested `WHILE` loops, one `UPDATE` per level | 183 | 0.13 s | 45 MB |
/// | 8 optional `UPDATE`s | 256 | 0.06 s | 23 MB |
/// | 9 optional `UPDATE`s | 512 | 0.30 s | 105 MB |
/// | 10 optional `UPDATE`s | 1,024 | 3.2 s | 1.2 GB |
/// | 4 nested `WHILE` loops | 33,673 | OOM-killed at 15.6 GB | — |
///
/// The limit keeps one program well within a second and 256 MB. Every bundled workload
/// unfolds to at most 13 LTPs per program.
pub const MAX_PROGRAM_LTPS: u64 = 512;

/// The most LTPs all programs of a workload together may unfold to (the sum of their
/// [`MAX_PROGRAM_LTPS`] counts); above it, [`check_workload_ltps`] fails with a
/// [`BtpError::TooManyWorkloadLtps`].
///
/// The summary graph is quadratic in the workload's LTPs, not in one program's, so programs
/// under the per-program limit still add up. Programs of 8 and 9 optional `UPDATE`s (256 and
/// 512 LTPs, as in the table above), `mvrc analyze` on the same VM (median of 5 runs, 20-byte
/// edges):
///
/// | programs | LTPs | time | peak RSS |
/// |---|---|---|---|
/// | 2 × 256 | 512 | 0.23 s | 83 MB |
/// | 3 × 256 | 768 | 0.52 s | 184 MB |
/// | 512 + 256 | 768 | 0.62 s | 215 MB |
/// | 2 × 512 | 1,024 | 1.2 s | 410 MB |
/// | 4 × 512 | 2,048 | refused at once by this limit | — |
/// | 1 program of 12,000 `UPDATE`s | 1 | refused at once by [`MAX_WORKLOAD_EDGES`] | — |
///
/// The limit is the 1,024 row: two programs at the per-program limit, about a second and
/// 410 MB per summary graph (CI analyzes it under a 900 MiB address-space cap). Before
/// either limit, the 4 × 512 and 12,000-`UPDATE` rows aborted in Algorithm 1 asking for a
/// 5 GB `Vec`. The bundled workload files unfold to at most 30 LTPs, and
/// Auction(100), the largest generated file the benchmark times, to 300. The last row is
/// within this limit: LTPs do not bound statements, which [`MAX_WORKLOAD_EDGES`] does.
pub const MAX_WORKLOAD_LTPS: u64 = 1024;

/// The most summary-graph edges the LTPs of a workload may give by the bound of
/// [`check_workload_ltps`]; above it, that check fails with a
/// [`BtpError::TooManyWorkloadEdges`].
///
/// The LTP budget does not bound statements: one program of 12,000 copies of one `UPDATE` is
/// a single LTP. Algorithm 1 derives at most two edges (one of each kind) per ordered pair of
/// statement occurrences on the same relation, so `2·Σ_r s_r²`, with `s_r` the statement
/// occurrences on relation `r` over all LTPs, bounds the edge count. One-table files of
/// `UPDATE T SET a = a + 1 WHERE id = :x;` statements, `mvrc analyze` on a 2-core VM under a
/// 3 GB address-space cap:
///
/// | program(s) | bound | edges | time | peak RSS |
/// |---|---|---|---|---|
/// | 2 × 512 LTPs (the 2 × 512 row above) | 42,467,328 | 21,233,664 | 1.2 s | 410 MB |
/// | one LTP of 4,000 statements | 32,000,000 | 16,000,000 | 0.8 s | 313 MB |
/// | one LTP of 12,000 statements | 288,000,000 | — | refused at once; aborted asking for a 5 GB `Vec` before | — |
///
/// The limit admits the 2 × 512 row, the most the LTP budget lets through on one relation.
/// The bundled workload files bound at most 1,648 edges (TPC-C), and Auction(341), the
/// largest Auction(n) within the LTP budget, 6,744,098.
pub const MAX_WORKLOAD_EDGES: u64 = 50_000_000;

/// Sums how many LTPs `programs` unfold to with loops bounded as in `options` (before
/// duplicates are dropped, saturating) and fails with [`BtpError::TooManyLtps`] when one
/// program counts more than [`MAX_PROGRAM_LTPS`], or with [`BtpError::TooManyWorkloadLtps`]
/// when all of them count more than [`MAX_WORKLOAD_LTPS`]. A second walk over each expression
/// counts the statement occurrences per relation over all LTPs and fails with
/// [`BtpError::TooManyWorkloadEdges`] when they bound the summary graph's edges above
/// [`MAX_WORKLOAD_EDGES`]. Nothing is unfolded: all three are read off each program's
/// expression.
/// Returns the LTP total.
pub fn check_workload_ltps<'a>(
    programs: impl IntoIterator<Item = &'a Program>,
    options: UnfoldOptions,
) -> Result<u64, BtpError> {
    let loop_bound = options.max_loop_iterations;
    let (mut count, mut occurrences) = (0u64, Vec::new());
    for program in programs {
        let program_count = unfolding_count(program.body(), loop_bound);
        if program_count > MAX_PROGRAM_LTPS {
            return Err(BtpError::TooManyLtps {
                program: program.name().to_string(),
                count: program_count,
                limit: MAX_PROGRAM_LTPS,
            });
        }
        count = count.saturating_add(program_count);
        let rel_of = |id| usize::from(program.statement(id).rel().0);
        add_statement_occurrences(program.body(), 1, &rel_of, loop_bound, &mut occurrences);
    }
    if count > MAX_WORKLOAD_LTPS {
        return Err(BtpError::TooManyWorkloadLtps {
            count,
            limit: MAX_WORKLOAD_LTPS,
        });
    }
    let bound = occurrences.iter().fold(0u64, |edges, &s| {
        edges.saturating_add(s.saturating_mul(s).saturating_mul(2))
    });
    if bound > MAX_WORKLOAD_EDGES {
        return Err(BtpError::TooManyWorkloadEdges {
            bound,
            limit: MAX_WORKLOAD_EDGES,
        });
    }
    Ok(count)
}

/// How many BTP statements `block` translates to: one per `SELECT`, `UPDATE`, `INSERT` and
/// `DELETE`, in every branch and loop body.
fn statement_count(text: &SqlText<'_>, block: Block<'_>) -> usize {
    text[block]
        .iter()
        .map(|stmt| match *stmt {
            SqlStatement::If {
                then_branch,
                else_branch,
            } => statement_count(text, then_branch) + statement_count(text, else_branch),
            SqlStatement::Loop { body } => statement_count(text, body),
            _ => 1,
        })
        .sum()
}

/// A schema's foreign keys grouped by domain relation: those over relation `r` are
/// `fks[starts[r]..starts[r + 1]]`, in id order. Foreign-key inference then visits only the
/// keys leaving a relation the program's statements access, not every key of the schema.
struct FksByDom<'a> {
    starts: Vec<usize>,
    fks: Vec<&'a ForeignKey>,
}

impl<'a> FksByDom<'a> {
    fn new(schema: &'a Schema) -> Self {
        let mut fks: Vec<&ForeignKey> = schema.foreign_keys().collect();
        // Stable: keys over one relation stay in id order.
        fks.sort_by_key(|fk| fk.dom());
        let mut starts = vec![0; schema.relation_count() + 1];
        for fk in &fks {
            starts[fk.dom().index() + 1] += 1;
        }
        for r in 1..starts.len() {
            starts[r] += starts[r - 1];
        }
        FksByDom { starts, fks }
    }

    fn over(&self, dom: RelId) -> &[&'a ForeignKey] {
        &self.fks[self.starts[dom.index()]..self.starts[dom.index() + 1]]
    }
}

/// What translating the programs of one text needs. The program being translated owns
/// `statements` and `spans`; the other buffers serve every program in turn.
struct TranslateCtx<'a, 'p> {
    schema: &'a Schema,
    fks: &'a FksByDom<'a>,
    text: &'a SqlText<'p>,
    /// How many statements the text's programs have numbered so far: the next one is
    /// `q{numbered + 1}`, whichever program it belongs to.
    numbered: usize,
    statements: Vec<Statement>,
    /// The attributes each statement binds to a host parameter by an equality predicate (or by
    /// an INSERT value), with the parameter's name, one run per statement in statement order.
    /// Used for foreign-key inference.
    bindings: Vec<(AttrId, &'p str)>,
    /// For every statement: where its run in `bindings` ends (the next one's starts there).
    binding_ends: Vec<usize>,
    /// For every statement: where it starts in the SQL source (parallel to `statements`).
    spans: Vec<Option<SourceSpan>>,
}

impl<'a, 'p> TranslateCtx<'a, 'p> {
    /// Translates one parsed program into a BTP, inferring foreign-key constraints from host
    /// parameter reuse. Fails before anything is unfolded when the program would unfold to
    /// more than [`MAX_PROGRAM_LTPS`] LTPs.
    fn translate(&mut self, program: &SqlProgram<'p>) -> Result<Program, BtpError> {
        // Counted before any statement is numbered: a `StmtId` past the limit would wrap.
        let count = statement_count(self.text, program.body);
        if count > MAX_PROGRAM_STATEMENTS {
            return Err(BtpError::TooManyStatements {
                program: program.name.to_string(),
                count,
                limit: MAX_PROGRAM_STATEMENTS,
            });
        }
        self.statements = Vec::with_capacity(count);
        self.spans = Vec::with_capacity(count);
        self.bindings.clear();
        self.binding_ends.clear();
        let body = self.translate_block(program.body)?;
        let count = unfolding_count(&body, UnfoldOptions::default().max_loop_iterations);
        if count > MAX_PROGRAM_LTPS {
            return Err(BtpError::TooManyLtps {
                program: program.name.to_string(),
                count,
                limit: MAX_PROGRAM_LTPS,
            });
        }
        let fk_constraints = self.infer_fk_constraints();
        let statements = std::mem::take(&mut self.statements);
        let spans = std::mem::take(&mut self.spans);
        Ok(Program::from_parts(program.name, statements, body, fk_constraints)?.with_spans(spans))
    }

    fn relation(&self, name: &str) -> Result<&'a Relation, BtpError> {
        self.schema
            .relation_by_name(name)
            .ok_or_else(|| BtpError::UnknownRelation(name.to_string()))
    }

    fn attr(&self, rel: &Relation, name: &str) -> Result<AttrId, BtpError> {
        rel.attr_by_name(name)
            .ok_or_else(|| BtpError::UnknownAttribute {
                relation: rel.name().to_string(),
                attribute: name.to_string(),
            })
    }

    fn attrs(&self, rel: &Relation, names: &[&str]) -> Result<AttrSet, BtpError> {
        let mut set = AttrSet::empty();
        for name in names {
            set.insert(self.attr(rel, name)?);
        }
        Ok(set)
    }

    /// `q1`, `q2`, … numbered across the whole text, as the paper's figures number them. The
    /// digits are written directly: a `format!` per statement measurably slows parsing a
    /// generated Auction(100) file.
    fn next_name(&mut self) -> Arc<str> {
        self.numbered += 1;
        let mut name = [0u8; 21];
        let mut start = name.len();
        let mut n = self.numbered;
        loop {
            start -= 1;
            name[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        start -= 1;
        name[start] = b'q';
        Arc::from(std::str::from_utf8(&name[start..]).expect("ASCII digits"))
    }

    /// Adds a statement; its bindings are those recorded by [`bind`](Self::bind) since the
    /// previous one was added.
    fn add(&mut self, statement: Statement, span: SourceSpan) -> StmtId {
        let id = StmtId(self.statements.len() as u16);
        self.statements.push(statement);
        self.binding_ends.push(self.bindings.len());
        self.spans.push(Some(span));
        id
    }

    /// Binds `attr` of the statement being translated to `param`, replacing an earlier binding
    /// of `attr` by the same statement.
    fn bind(&mut self, attr: AttrId, param: &'p str) {
        let start = self.binding_ends.last().copied().unwrap_or(0);
        match self.bindings[start..].iter_mut().find(|(a, _)| *a == attr) {
            Some(binding) => binding.1 = param,
            None => self.bindings.push((attr, param)),
        }
    }

    /// The parameter the statement at `index` binds `attr` to.
    fn binding(&self, index: usize, attr: AttrId) -> Option<&'p str> {
        let start = index
            .checked_sub(1)
            .map_or(0, |prev| self.binding_ends[prev]);
        self.bindings[start..self.binding_ends[index]]
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|&(_, p)| p)
    }

    fn translate_block(&mut self, block: Block<'p>) -> Result<ProgramExpr, BtpError> {
        let text = self.text;
        let mut parts = Vec::with_capacity(block.len());
        for &stmt in &text[block] {
            parts.push(self.translate_statement(stmt)?);
        }
        Ok(match parts.len() {
            0 => ProgramExpr::Empty,
            1 => parts.into_iter().next().expect("length checked"),
            _ => ProgramExpr::Seq(parts),
        })
    }

    fn translate_statement(&mut self, stmt: SqlStatement<'p>) -> Result<ProgramExpr, BtpError> {
        let text = self.text;
        match stmt {
            SqlStatement::Select {
                relation,
                columns,
                star,
                where_clause,
                span,
            } => {
                let rel = self.relation(relation)?;
                let read = if star {
                    rel.all_attrs()
                } else {
                    self.attrs(rel, &text[columns])?
                };
                let analysis = self.analyze_where(rel, where_clause)?;
                let name = self.next_name();
                let (kind, pread) = if analysis.key_based {
                    (StatementKind::KeySelect, None)
                } else {
                    (StatementKind::PredSelect, Some(analysis.pread))
                };
                let statement = Statement::new(name, rel, kind, pread, Some(read), None)?;
                Ok(self.add(statement, span).into())
            }
            SqlStatement::Update {
                relation,
                assignments,
                where_clause,
                returning,
                span,
            } => {
                let rel = self.relation(relation)?;
                let mut write = AttrSet::empty();
                let mut read = AttrSet::empty();
                for a in &text[assignments] {
                    write.insert(self.attr(rel, a.target)?);
                    for v in &text[a.expr] {
                        if let Some(col) = v.as_column() {
                            read.insert(self.attr(rel, col)?);
                        }
                    }
                }
                read = read.union(self.attrs(rel, &text[returning])?);
                let analysis = self.analyze_where(rel, where_clause)?;
                let name = self.next_name();
                let (kind, pread) = if analysis.key_based {
                    (StatementKind::KeyUpdate, None)
                } else {
                    (StatementKind::PredUpdate, Some(analysis.pread))
                };
                let statement = Statement::new(name, rel, kind, pread, Some(read), Some(write))?;
                Ok(self.add(statement, span).into())
            }
            SqlStatement::Insert {
                relation,
                columns,
                values,
                span,
            } => {
                let rel = self.relation(relation)?;
                let columns = &text[columns];
                // Pair values with attributes either positionally or through the column list and
                // record parameter bindings for foreign-key inference.
                for (idx, &value) in text[values].iter().enumerate() {
                    let attr = if columns.is_empty() {
                        if idx < rel.attribute_count() {
                            Some(AttrId(idx as u8))
                        } else {
                            None
                        }
                    } else {
                        columns.get(idx).map(|c| self.attr(rel, c)).transpose()?
                    };
                    if let (Some(attr), [Value::Param(p)]) = (attr, &text[value]) {
                        self.bind(attr, p);
                    }
                }
                let name = self.next_name();
                let statement = Statement::new(name, rel, StatementKind::Insert, None, None, None)?;
                Ok(self.add(statement, span).into())
            }
            SqlStatement::Delete {
                relation,
                where_clause,
                span,
            } => {
                let rel = self.relation(relation)?;
                let analysis = self.analyze_where(rel, where_clause)?;
                let name = self.next_name();
                let (kind, pread) = if analysis.key_based {
                    (StatementKind::KeyDelete, None)
                } else {
                    (StatementKind::PredDelete, Some(analysis.pread))
                };
                let statement = Statement::new(name, rel, kind, pread, None, None)?;
                Ok(self.add(statement, span).into())
            }
            SqlStatement::If {
                then_branch,
                else_branch,
            } => {
                let then_expr = self.translate_block(then_branch)?;
                if else_branch.is_empty() {
                    Ok(ProgramExpr::optional(then_expr))
                } else {
                    let else_expr = self.translate_block(else_branch)?;
                    Ok(ProgramExpr::choice(then_expr, else_expr))
                }
            }
            SqlStatement::Loop { body } => {
                let inner = self.translate_block(body)?;
                Ok(ProgramExpr::looped(inner))
            }
        }
    }

    /// Classifies a `WHERE` clause and binds its equality-bound attributes.
    fn analyze_where(
        &mut self,
        rel: &Relation,
        where_clause: Option<Condition<'p>>,
    ) -> Result<WhereAnalysis, BtpError> {
        let Some(cond) = where_clause else {
            // No WHERE clause: a scan over the whole relation, i.e. predicate-based with an
            // empty predicate read set.
            return Ok(WhereAnalysis {
                key_based: false,
                pread: AttrSet::empty(),
            });
        };
        let text = self.text;
        let mut pread = AttrSet::empty();
        for col in text[cond].iter().flat_map(|&c| text.columns(c)) {
            pread.insert(self.attr(rel, col)?);
        }
        let mut bound = AttrSet::empty();
        for (col, value) in text[cond].iter().filter_map(|&c| text.column_binding(c)) {
            let attr = self.attr(rel, col)?;
            bound.insert(attr);
            if let Some(p) = value.as_param() {
                self.bind(attr, p);
            }
        }
        // Key-based: the equality-bound attributes cover the primary key (Appendix A
        // "key-condition intended to find a tuple by its primary key").
        let key_based = rel.primary_key().is_subset_of(bound);
        Ok(WhereAnalysis { key_based, pread })
    }

    /// Infers foreign-key constraints `q_j = f(q_i)` from parameter reuse: when the foreign-key
    /// attributes of `q_i` and the referenced attributes of a single-tuple statement `q_j` are
    /// bound to the same host parameters, every instantiation necessarily respects `f`.
    fn infer_fk_constraints(&self) -> Vec<FkConstraint> {
        let mut constraints = Vec::new();
        for (i, qi) in self.statements.iter().enumerate() {
            for fk in self.fks.over(qi.rel()) {
                for (j, qj) in self.statements.iter().enumerate() {
                    if i == j || qj.rel() != fk.range() || !qj.kind().identifies_single_tuple() {
                        continue;
                    }
                    let all_pairs_match = fk.attr_pairs().all(|(dom_attr, range_attr)| {
                        match (self.binding(i, dom_attr), self.binding(j, range_attr)) {
                            (Some(a), Some(b)) => a == b,
                            _ => false,
                        }
                    });
                    if all_pairs_match {
                        constraints.push(FkConstraint {
                            fk: fk.id(),
                            dom_stmt: StmtId(i as u16),
                            range_stmt: StmtId(j as u16),
                        });
                    }
                }
            }
        }
        // The program lists its constraints by foreign key, then `q_i`, then `q_j`.
        constraints.sort_unstable_by_key(|c| (c.fk, c.dom_stmt, c.range_stmt));
        constraints
    }
}

struct WhereAnalysis {
    key_based: bool,
    pread: AttrSet,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::testgen::{self, auction_schema};
    use crate::sql::{parse_workload, parse_workload_file};

    const AUCTION_SQL: &str = r#"
        PROGRAM FindBids(:B, :T) {
            UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
            SELECT bid FROM Bids WHERE bid >= :T;
            COMMIT;
        }
        PROGRAM PlaceBid(:B, :V) {
            UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
            SELECT bid INTO :C FROM Bids WHERE buyerId = :B;
            IF :C < :V THEN
                UPDATE Bids SET bid = :V WHERE buyerId = :B;
            ENDIF;
            INSERT INTO Log VALUES (:logId, :B, :V);
            COMMIT;
        }
    "#;

    #[test]
    fn find_bids_matches_figure_2() {
        let schema = auction_schema();
        let programs = parse_workload(&schema, AUCTION_SQL).unwrap();
        let fb = &programs[0];
        assert_eq!(fb.name(), "FindBids");
        assert_eq!(fb.statement_count(), 2);
        let q1 = fb.statement(StmtId(0));
        assert_eq!(q1.kind(), StatementKind::KeyUpdate);
        let buyer = schema.relation_by_name("Buyer").unwrap();
        let calls = buyer.attr_by_name("calls").unwrap();
        assert_eq!(q1.read_set(), Some(AttrSet::singleton(calls)));
        assert_eq!(q1.write_set(), Some(AttrSet::singleton(calls)));
        assert_eq!(q1.pread_set(), None);
        let q2 = fb.statement(StmtId(1));
        assert_eq!(q2.kind(), StatementKind::PredSelect);
        let bids = schema.relation_by_name("Bids").unwrap();
        let bid = bids.attr_by_name("bid").unwrap();
        assert_eq!(q2.pread_set(), Some(AttrSet::singleton(bid)));
        assert_eq!(q2.read_set(), Some(AttrSet::singleton(bid)));
        assert!(fb.is_linear());
    }

    #[test]
    fn place_bid_matches_figure_2_and_infers_constraints() {
        let schema = auction_schema();
        let programs = parse_workload(&schema, AUCTION_SQL).unwrap();
        let pb = &programs[1];
        assert_eq!(pb.statement_count(), 4);
        assert_eq!(pb.statement(StmtId(1)).kind(), StatementKind::KeySelect);
        assert_eq!(pb.statement(StmtId(2)).kind(), StatementKind::KeyUpdate);
        assert_eq!(pb.statement(StmtId(3)).kind(), StatementKind::Insert);
        // Statements are numbered across the workload, as in Figure 2.
        assert_eq!(programs[0].to_string(), "FindBids := q1; q2");
        assert_eq!(pb.to_string(), "PlaceBid := q3; q4; (q5 | ε); q6");
        // Inferred constraints: q3 = f1(q4), q3 = f1(q5), q3 = f2(q6).
        assert_eq!(pb.fk_constraints().len(), 3);
        for c in pb.fk_constraints() {
            assert_eq!(c.range_stmt, StmtId(0));
        }
        let dom_stmts: Vec<StmtId> = pb.fk_constraints().iter().map(|c| c.dom_stmt).collect();
        assert!(dom_stmts.contains(&StmtId(1)));
        assert!(dom_stmts.contains(&StmtId(2)));
        assert!(dom_stmts.contains(&StmtId(3)));
    }

    #[test]
    fn predicate_reads_are_not_constrained() {
        // FindBids' q2 does not bind buyerId, so no constraint may be inferred (the paper makes
        // this exact point at the end of Section 5.1).
        let schema = auction_schema();
        let programs = parse_workload(&schema, AUCTION_SQL).unwrap();
        assert!(programs[0].fk_constraints().is_empty());
    }

    #[test]
    fn select_without_where_is_a_full_scan() {
        let schema = auction_schema();
        let programs = parse_workload(&schema, "PROGRAM P { SELECT bid FROM Bids; }").unwrap();
        let q = programs[0].statement(StmtId(0));
        assert_eq!(q.kind(), StatementKind::PredSelect);
        assert_eq!(q.pread_set(), Some(AttrSet::empty()));
    }

    #[test]
    fn delete_classification() {
        let schema = auction_schema();
        let programs = parse_workload(
            &schema,
            r#"PROGRAM P {
                DELETE FROM Log WHERE id = :l;
                DELETE FROM Log WHERE buyerId = :b;
            }"#,
        )
        .unwrap();
        assert_eq!(
            programs[0].statement(StmtId(0)).kind(),
            StatementKind::KeyDelete
        );
        assert_eq!(
            programs[0].statement(StmtId(1)).kind(),
            StatementKind::PredDelete
        );
    }

    #[test]
    fn insert_with_explicit_columns_binds_parameters() {
        let schema = auction_schema();
        let programs = parse_workload(
            &schema,
            r#"PROGRAM P(:B) {
                UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
                INSERT INTO Log (id, buyerId, bid) VALUES (:l, :B, 0);
            }"#,
        )
        .unwrap();
        assert_eq!(programs[0].fk_constraints().len(), 1);
        assert_eq!(programs[0].fk_constraints()[0].dom_stmt, StmtId(1));
    }

    #[test]
    fn star_select_reads_all_attributes() {
        let schema = auction_schema();
        let programs =
            parse_workload(&schema, "PROGRAM P { SELECT * FROM Buyer WHERE id = :B; }").unwrap();
        let q = programs[0].statement(StmtId(0));
        assert_eq!(q.kind(), StatementKind::KeySelect);
        assert_eq!(q.read_set(), Some(AttrSet::all(2)));
    }

    #[test]
    fn unknown_names_are_rejected() {
        let schema = auction_schema();
        assert!(matches!(
            parse_workload(&schema, "PROGRAM P { SELECT x FROM Nope; }"),
            Err(BtpError::UnknownRelation(_))
        ));
        assert!(matches!(
            parse_workload(&schema, "PROGRAM P { SELECT nope FROM Buyer; }"),
            Err(BtpError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn translated_statements_keep_their_source_spans() {
        let schema = auction_schema();
        let programs = parse_workload(&schema, AUCTION_SQL).unwrap();
        // FindBids: UPDATE on line 3, SELECT on line 4 of AUCTION_SQL (both indented 12).
        let fb = &programs[0];
        assert_eq!(
            fb.span(StmtId(0)),
            Some(SourceSpan {
                line: 3,
                column: 13
            })
        );
        assert_eq!(
            fb.span(StmtId(1)),
            Some(SourceSpan {
                line: 4,
                column: 13
            })
        );
        // PlaceBid: the branch-guarded UPDATE sits on line 11, deeper indented.
        let pb = &programs[1];
        assert_eq!(
            pb.span(StmtId(2)),
            Some(SourceSpan {
                line: 11,
                column: 17
            })
        );
    }

    #[test]
    fn loops_translate_to_loop_expressions() {
        let schema = auction_schema();
        let programs = parse_workload(
            &schema,
            r#"PROGRAM P {
                REPEAT
                    UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
                END REPEAT;
            }"#,
        )
        .unwrap();
        assert!(matches!(programs[0].body(), ProgramExpr::Loop(_)));
    }

    /// A one-table file whose program nests `depth` `WHILE` loops with one `UPDATE` per level.
    fn nested_while_file(depth: usize) -> String {
        format!(
            "TABLE T (id, a, PRIMARY KEY (id));\nPROGRAM P(:x) {{\n{}{}}}\n",
            "WHILE :x DO UPDATE T SET a = a + 1 WHERE id = :x;\n".repeat(depth),
            "END WHILE;\n".repeat(depth)
        )
    }

    #[test]
    fn programs_beyond_the_ltp_limit_are_refused_before_unfolding() {
        let (_, programs) = parse_workload_file(&nested_while_file(3)).unwrap();
        assert_eq!(crate::unfold_le2(&programs[0]).len(), 183);
        for (depth, count) in [(4, 33_673), (5, 1_133_904_603)] {
            assert_eq!(
                parse_workload_file(&nested_while_file(depth)).unwrap_err(),
                BtpError::TooManyLtps {
                    program: "P".into(),
                    count,
                    limit: MAX_PROGRAM_LTPS,
                }
            );
        }
    }

    #[test]
    fn bundled_workloads_stay_far_below_the_ltp_limit() {
        for source in testgen::sources() {
            let (_, programs) = parse_workload_file(source).unwrap();
            for program in &programs {
                assert!(
                    unfolding_count(program.body(), 2) <= 13,
                    "{}",
                    program.name()
                );
            }
            assert!(check_workload_ltps(&programs, UnfoldOptions::default()).unwrap() <= 30);
        }
        // The largest generated input the analyzer is timed on: Auction(100), 300 LTPs; and
        // the largest Auction(n) within the LTP budget passes the edge budget too.
        let (_, programs) = parse_workload_file(&testgen::auction_n_sql(100)).unwrap();
        assert_eq!(
            check_workload_ltps(&programs, UnfoldOptions::default()),
            Ok(300)
        );
        let (_, programs) = parse_workload_file(&testgen::auction_n_sql(341)).unwrap();
        assert_eq!(
            check_workload_ltps(&programs, UnfoldOptions::default()),
            Ok(1023)
        );
    }

    /// A one-table file of one program of `count` copies of one key-based `UPDATE`: one LTP of
    /// `count` statements.
    fn long_program_file(count: usize) -> String {
        format!(
            "TABLE T (id, a, PRIMARY KEY (id));\nPROGRAM P(:x) {{\n{}}}\n",
            "UPDATE T SET a = a + 1 WHERE id = :x;\n".repeat(count)
        )
    }

    #[test]
    fn workloads_beyond_the_edge_bound_are_refused_before_unfolding() {
        // One LTP of 4,000 statements: bound 2 · 4,000² edges, within the limit.
        let (_, programs) = parse_workload_file(&long_program_file(4_000)).unwrap();
        assert_eq!(
            check_workload_ltps(&programs, UnfoldOptions::default()),
            Ok(1)
        );
        // 12,000 statements (the 480 KB file that used to abort in Algorithm 1): refused.
        assert_eq!(
            parse_workload_file(&long_program_file(12_000)).unwrap_err(),
            BtpError::TooManyWorkloadEdges {
                bound: 288_000_000,
                limit: MAX_WORKLOAD_EDGES,
            }
        );
        // Occurrences count per relation over every LTP: two programs of nine optional
        // `UPDATE`s hold 2 · 9 · 256 of them, bound 2 · 4,608² edges, within the limit.
        let (_, programs) = parse_workload_file(&optional_updates_file(&[9, 9])).unwrap();
        assert_eq!(
            check_workload_ltps(&programs, UnfoldOptions::default()),
            Ok(MAX_WORKLOAD_LTPS)
        );
    }

    /// A one-table file of programs with `optionals[i]` optional `UPDATE`s each, so program
    /// `i` unfolds to `2^optionals[i]` LTPs.
    fn optional_updates_file(optionals: &[usize]) -> String {
        let mut sql = String::from("TABLE T (id, a, PRIMARY KEY (id));\n");
        for (i, &k) in optionals.iter().enumerate() {
            sql.push_str(&format!("PROGRAM P{i}(:x) {{\n"));
            for _ in 0..k {
                sql.push_str("IF :x THEN UPDATE T SET a = a + 1 WHERE id = :x; END IF;\n");
            }
            sql.push_str("}\n");
        }
        sql
    }

    #[test]
    fn workloads_beyond_the_total_ltp_limit_are_refused_before_unfolding() {
        // Two programs at the per-program limit fill the workload budget exactly.
        let (_, programs) = parse_workload_file(&optional_updates_file(&[9, 9])).unwrap();
        assert_eq!(
            check_workload_ltps(&programs, UnfoldOptions::default()),
            Ok(MAX_WORKLOAD_LTPS)
        );
        // One LTP more, or four such programs (the 1.2 KB file that used to abort in
        // Algorithm 1), is refused — each program on its own is within its limit.
        for (optionals, count) in [(&[9, 9, 0][..], 1025), (&[9, 9, 9, 9][..], 2048)] {
            assert_eq!(
                parse_workload_file(&optional_updates_file(optionals)).unwrap_err(),
                BtpError::TooManyWorkloadLtps {
                    count,
                    limit: MAX_WORKLOAD_LTPS,
                }
            );
        }
    }

    #[test]
    fn programs_beyond_65536_statements_are_refused_before_numbering() {
        // Statements in branches count too: reads spread over 1,000 tables (within the edge
        // bound), then one update in each branch of an IF.
        let file = |reads: usize| {
            let mut sql: String = (0..1000).map(|k| format!("TABLE T{k} (a, b);\n")).collect();
            sql.push_str("PROGRAM P(:x) {\n");
            for k in 0..reads {
                sql.push_str(&format!("SELECT b FROM T{} WHERE a = :x;\n", k % 1000));
            }
            sql.push_str(
                "IF :x THEN UPDATE T0 SET b = :x WHERE a = :x; \
                 ELSE UPDATE T0 SET b = 1 WHERE a = :x; END IF;\n}\n",
            );
            sql
        };
        let (_, programs) = parse_workload_file(&file(65_534)).unwrap();
        let p = &programs[0];
        assert_eq!(p.statement_count(), 65_536);
        // The last statement keeps its own id: it is the ELSE branch's update.
        let last = p.statement(StmtId(65_535));
        assert_eq!(last.kind(), StatementKind::KeyUpdate);
        assert_eq!(last.name(), "q65536");
        assert_eq!(
            parse_workload_file(&file(65_535)).unwrap_err(),
            BtpError::TooManyStatements {
                program: "P".into(),
                count: 65_537,
                limit: MAX_PROGRAM_STATEMENTS,
            }
        );
    }
}
