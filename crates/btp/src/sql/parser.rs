//! Recursive-descent parser for the SQL subset.

use super::ast::{Assignment, CompareOp, Comparison, Condition, SqlProgram, SqlStatement, Value};
use super::catalog::{Catalog, ForeignKeyDecl, TableDecl};
use super::lexer::{tokenize, Token, TokenKind};
use crate::error::BtpError;
use crate::span::SourceSpan;

/// How deeply `IF` and loop blocks may nest. The parser recurses once per level, so without a
/// cap a few kilobytes of nested blocks overflow the stack of the thread parsing them; with it,
/// deeper nesting is a [`BtpError::SqlParse`] at the block that crosses the limit.
const MAX_BLOCK_NESTING: usize = 128;

/// Parses a workload script into its `PROGRAM` blocks.
///
/// Catalog declarations (`SCHEMA …;`, `TABLE …;`, `CREATE TABLE …;`, `FOREIGN KEY …;`) may be
/// interleaved with the programs; they are parsed like in
/// [`parse_workload_file`](super::parse_workload_file), so a malformed one is an error, and
/// then dropped.
pub fn parse_text(text: &str) -> Result<Vec<SqlProgram>, BtpError> {
    parse_source(text).map(|(_, programs)| programs)
}

/// Lexes `text` once and parses its catalog declarations and `PROGRAM` blocks in source order,
/// stopping at the first syntax error.
pub(super) fn parse_source(text: &str) -> Result<(Catalog, Vec<SqlProgram>), BtpError> {
    let mut parser = Parser {
        tokens: tokenize(text)?,
        pos: 0,
        depth: 0,
    };
    let mut catalog = Catalog::default();
    let mut programs = Vec::new();
    while !parser.at_end() {
        if parser.eat_keyword("schema") {
            catalog.name = Some(parser.expect_ident("schema name")?);
            parser.expect_semicolon()?;
        } else if parser.peek_keyword("table") || parser.peek_keyword("create") {
            parser.eat_keyword("create");
            parser.expect_keyword("table")?;
            catalog.tables.push(parser.parse_table()?);
        } else if parser.eat_keyword("foreign") {
            parser.expect_keyword("key")?;
            let ordinal = catalog.foreign_keys.len() + 1;
            catalog
                .foreign_keys
                .push(parser.parse_foreign_key(ordinal)?);
        } else if parser.eat_keyword("program") {
            match parser.parse_program() {
                Ok(program) => programs.push(program),
                // Whatever construct was open, a program that runs into the end of the input
                // is unterminated.
                Err(_) if parser.at_end() => return Err(parser.error("unterminated PROGRAM block")),
                Err(e) => return Err(e),
            }
        } else {
            return Err(parser.error(
                "expected a catalog declaration (SCHEMA, TABLE, FOREIGN KEY) or a PROGRAM block",
            ));
        }
    }
    Ok((catalog, programs))
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Number of `IF`/loop blocks enclosing the current position.
    depth: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Source position of the current token (or, at end of input, the last token).
    fn span(&self) -> SourceSpan {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(SourceSpan { line: 1, column: 1 }, |t| SourceSpan {
                line: t.line,
                column: t.column,
            })
    }

    fn error(&self, message: impl Into<String>) -> BtpError {
        let span = self.span();
        BtpError::SqlParse {
            line: span.line,
            column: span.column,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        self.peek().is_some_and(|k| k.is_keyword(kw))
    }

    fn advance(&mut self) -> Option<TokenKind> {
        let kind = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if kind.is_some() {
            self.pos += 1;
        }
        kind
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), BtpError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", kw.to_uppercase())))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), BtpError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    fn expect_semicolon(&mut self) -> Result<(), BtpError> {
        self.expect(&TokenKind::Semicolon, "`;`")
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, BtpError> {
        match self.peek() {
            Some(TokenKind::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.error(format!("expected {what}"))),
        }
    }

    /// Parses `<name> ( attr [, attr]* [, PRIMARY KEY ( attr [, attr]* )] ) ;` after the
    /// `TABLE` keyword.
    fn parse_table(&mut self) -> Result<TableDecl, BtpError> {
        let span = self.span();
        let name = self.expect_ident("table name")?;
        self.expect(&TokenKind::LParen, "`(` after the table name")?;
        let mut attributes = Vec::new();
        let mut primary_key = Vec::new();
        loop {
            if self.eat(&TokenKind::RParen) {
                break;
            }
            if self.eat(&TokenKind::Comma) {
                continue;
            }
            if self.eat_keyword("primary") {
                self.expect_keyword("key")?;
                self.expect(&TokenKind::LParen, "`(` after PRIMARY KEY")?;
                loop {
                    if self.eat(&TokenKind::RParen) {
                        break;
                    }
                    if self.eat(&TokenKind::Comma) {
                        continue;
                    }
                    primary_key.push(self.expect_ident("primary-key attribute")?);
                }
                continue;
            }
            attributes.push(self.expect_ident("attribute name")?);
        }
        self.expect_semicolon()?;
        if attributes.is_empty() {
            return Err(BtpError::SqlParse {
                line: span.line,
                column: span.column,
                message: format!("table `{name}` declares no attributes"),
            });
        }
        if primary_key.is_empty() {
            primary_key.push(attributes[0].clone());
        }
        Ok(TableDecl {
            name,
            attributes,
            primary_key,
            line: span.line,
            column: span.column,
        })
    }

    /// Parses `[<name> :] <dom> ( attrs ) REFERENCES <range> ( attrs ) ;` after `FOREIGN KEY`;
    /// an anonymous key is named `fk<ordinal>`.
    fn parse_foreign_key(&mut self, ordinal: usize) -> Result<ForeignKeyDecl, BtpError> {
        let span = self.span();
        let first = self.expect_ident("foreign key name or domain relation")?;
        // Three accepted shapes: `f1 : Bids (…)` (colon token), `f1: Bids (…)` (the lexer fuses
        // `:Bids` into a parameter token) and the anonymous `Bids (…)`.
        let (name, dom) = if self.eat(&TokenKind::Colon) {
            (first, self.expect_ident("domain relation")?)
        } else if let Some(TokenKind::Param(dom)) = self.peek().cloned() {
            self.pos += 1;
            (first, dom)
        } else {
            (format!("fk{ordinal}"), first)
        };
        let dom_attrs = self.parse_attr_list("domain attribute")?;
        self.expect_keyword("references")?;
        let range = self.expect_ident("referenced relation")?;
        let range_attrs = self.parse_attr_list("referenced attribute")?;
        self.expect_semicolon()?;
        Ok(ForeignKeyDecl {
            name,
            dom,
            dom_attrs,
            range,
            range_attrs,
            line: span.line,
            column: span.column,
        })
    }

    fn parse_attr_list(&mut self, what: &str) -> Result<Vec<String>, BtpError> {
        self.expect(&TokenKind::LParen, "`(`")?;
        let mut attrs = Vec::new();
        loop {
            if self.eat(&TokenKind::RParen) {
                break;
            }
            if self.eat(&TokenKind::Comma) {
                continue;
            }
            attrs.push(self.expect_ident(what)?);
        }
        if attrs.is_empty() {
            return Err(self.error(format!("expected at least one {what}")));
        }
        Ok(attrs)
    }

    /// Parses `<name> [( :param [, :param]* )] { statements }` after the `PROGRAM` keyword.
    fn parse_program(&mut self) -> Result<SqlProgram, BtpError> {
        let name = self.expect_ident("program name")?;
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) {
            while !self.eat(&TokenKind::RParen) {
                match self.advance() {
                    Some(TokenKind::Param(p)) => params.push(p),
                    Some(TokenKind::Comma) => {}
                    _ => return Err(self.error("expected `:parameter` in program header")),
                }
            }
        }
        self.expect(&TokenKind::LBrace, "`{` to open the program body")?;
        let body = self.parse_statements_until(&[Terminator::RBrace])?;
        self.expect(&TokenKind::RBrace, "`}` to close the program body")?;
        Ok(SqlProgram { name, params, body })
    }

    fn parse_statements_until(
        &mut self,
        terminators: &[Terminator],
    ) -> Result<Vec<SqlStatement>, BtpError> {
        let mut statements = Vec::new();
        loop {
            // Drop stray semicolons.
            while self.eat(&TokenKind::Semicolon) {}
            if self.at_end() || terminators.iter().any(|t| t.matches(self)) {
                return Ok(statements);
            }
            if let Some(stmt) = self.parse_statement()? {
                statements.push(stmt);
            }
        }
    }

    fn parse_statement(&mut self) -> Result<Option<SqlStatement>, BtpError> {
        if self.eat_keyword("commit") {
            self.eat(&TokenKind::Semicolon);
            return Ok(None);
        }
        if self.peek_keyword("select") {
            return self.parse_select().map(Some);
        }
        if self.peek_keyword("update") {
            return self.parse_update().map(Some);
        }
        if self.peek_keyword("insert") {
            return self.parse_insert().map(Some);
        }
        if self.peek_keyword("delete") {
            return self.parse_delete().map(Some);
        }
        if self.peek_keyword("if") {
            return self.nested(Self::parse_if).map(Some);
        }
        if self.peek_keyword("repeat") || self.peek_keyword("for") || self.peek_keyword("while") {
            return self.nested(Self::parse_loop).map(Some);
        }
        Err(self.error(format!("unexpected token {:?}", self.peek())))
    }

    fn parse_select(&mut self) -> Result<SqlStatement, BtpError> {
        let span = self.span();
        self.expect_keyword("select")?;
        let mut columns = Vec::new();
        let mut star = false;
        loop {
            match self.peek() {
                Some(TokenKind::Star) => {
                    star = true;
                    self.pos += 1;
                }
                Some(TokenKind::Ident(_))
                    if !self.peek_keyword("from") && !self.peek_keyword("into") =>
                {
                    let mut col = self.expect_ident("column name")?;
                    // Qualified column `alias.column` — keep only the column name.
                    if self.eat(&TokenKind::Dot) {
                        col = self.expect_ident("column after `.`")?;
                    }
                    columns.push(col);
                }
                _ => break,
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        if self.eat_keyword("into") {
            // Host variables receiving the result; irrelevant to the analysis.
            while let Some(TokenKind::Param(_)) = self.peek() {
                self.pos += 1;
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect_keyword("from")?;
        let relation = self.expect_ident("relation name")?;
        let where_clause = self.parse_optional_where()?;
        self.eat(&TokenKind::Semicolon);
        Ok(SqlStatement::Select {
            relation,
            columns,
            star,
            where_clause,
            span,
        })
    }

    fn parse_update(&mut self) -> Result<SqlStatement, BtpError> {
        let span = self.span();
        self.expect_keyword("update")?;
        let relation = self.expect_ident("relation name")?;
        self.expect_keyword("set")?;
        let mut assignments = Vec::new();
        loop {
            let target = self.expect_ident("assignment target")?;
            self.expect(&TokenKind::Eq, "`=` in assignment")?;
            let expr = self.parse_expression()?;
            assignments.push(Assignment { target, expr });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let where_clause = self.parse_optional_where()?;
        let mut returning = Vec::new();
        if self.eat_keyword("returning") {
            loop {
                match self.peek() {
                    Some(TokenKind::Ident(_)) if !self.peek_keyword("into") => {
                        returning.push(self.expect_ident("returning column")?);
                    }
                    _ => break,
                }
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            if self.eat_keyword("into") {
                while let Some(TokenKind::Param(_)) = self.peek() {
                    self.pos += 1;
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
        }
        self.eat(&TokenKind::Semicolon);
        Ok(SqlStatement::Update {
            relation,
            assignments,
            where_clause,
            returning,
            span,
        })
    }

    fn parse_insert(&mut self) -> Result<SqlStatement, BtpError> {
        let span = self.span();
        self.expect_keyword("insert")?;
        self.expect_keyword("into")?;
        let relation = self.expect_ident("relation name")?;
        let mut columns = Vec::new();
        if self.eat(&TokenKind::LParen) {
            while !self.eat(&TokenKind::RParen) {
                match self.advance() {
                    Some(TokenKind::Ident(c)) => columns.push(c),
                    Some(TokenKind::Comma) => {}
                    _ => return Err(self.error("expected column name in INSERT column list")),
                }
            }
        }
        self.expect_keyword("values")?;
        self.expect(&TokenKind::LParen, "`(` before VALUES list")?;
        let mut values = Vec::new();
        loop {
            let expr = self.parse_expression()?;
            values.push(expr);
            if self.eat(&TokenKind::Comma) {
                continue;
            }
            self.expect(&TokenKind::RParen, "`)` after VALUES list")?;
            break;
        }
        self.eat(&TokenKind::Semicolon);
        Ok(SqlStatement::Insert {
            relation,
            columns,
            values,
            span,
        })
    }

    fn parse_delete(&mut self) -> Result<SqlStatement, BtpError> {
        let span = self.span();
        self.expect_keyword("delete")?;
        self.expect_keyword("from")?;
        let relation = self.expect_ident("relation name")?;
        let where_clause = self.parse_optional_where()?;
        self.eat(&TokenKind::Semicolon);
        Ok(SqlStatement::Delete {
            relation,
            where_clause,
            span,
        })
    }

    /// Parses one `IF`/loop block with `parse`, one level deeper; fails at the block's first
    /// token when that level would exceed [`MAX_BLOCK_NESTING`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<SqlStatement, BtpError>,
    ) -> Result<SqlStatement, BtpError> {
        if self.depth == MAX_BLOCK_NESTING {
            return Err(self.error(format!(
                "blocks nest more than {MAX_BLOCK_NESTING} levels deep"
            )));
        }
        self.depth += 1;
        let block = parse(self);
        self.depth -= 1;
        block
    }

    fn parse_if(&mut self) -> Result<SqlStatement, BtpError> {
        self.expect_keyword("if")?;
        // The condition involves host variables only; skip tokens until THEN (or a `:` style
        // shorthand where THEN is omitted and the body starts right away is not supported).
        while !self.peek_keyword("then") {
            if self.at_end() {
                return Err(self.error("expected `THEN` after IF condition"));
            }
            self.pos += 1;
        }
        self.expect_keyword("then")?;
        let then_branch = self.parse_statements_until(&[
            Terminator::Keyword("else"),
            Terminator::Keyword("endif"),
            Terminator::EndPair("end", "if"),
        ])?;
        let mut else_branch = Vec::new();
        if self.eat_keyword("else") {
            else_branch = self.parse_statements_until(&[
                Terminator::Keyword("endif"),
                Terminator::EndPair("end", "if"),
            ])?;
        }
        if !self.eat_keyword("endif") {
            self.expect_keyword("end")?;
            self.expect_keyword("if")?;
        }
        self.eat(&TokenKind::Semicolon);
        Ok(SqlStatement::If {
            then_branch,
            else_branch,
        })
    }

    fn parse_loop(&mut self) -> Result<SqlStatement, BtpError> {
        if self.eat_keyword("repeat") {
            let body = self.parse_statements_until(&[
                Terminator::Keyword("endrepeat"),
                Terminator::EndPair("end", "repeat"),
                Terminator::Keyword("until"),
            ])?;
            if self.eat_keyword("until") {
                // Skip the loop condition up to the terminating semicolon.
                while !self.eat(&TokenKind::Semicolon) {
                    if self.at_end() {
                        break;
                    }
                    self.pos += 1;
                }
            } else if !self.eat_keyword("endrepeat") {
                self.expect_keyword("end")?;
                self.expect_keyword("repeat")?;
            }
            self.eat(&TokenKind::Semicolon);
            return Ok(SqlStatement::Loop { body });
        }
        let is_for = self.eat_keyword("for");
        if !is_for {
            self.expect_keyword("while")?;
        }
        // Skip the loop header up to DO (FOR each item DO … / WHILE cond DO …).
        while !self.peek_keyword("do") {
            if self.at_end() {
                return Err(self.error("expected `DO` after loop header"));
            }
            self.pos += 1;
        }
        self.expect_keyword("do")?;
        let body = self.parse_statements_until(&[
            Terminator::Keyword("endfor"),
            Terminator::Keyword("endwhile"),
            Terminator::EndPair("end", "for"),
            Terminator::EndPair("end", "while"),
        ])?;
        if !self.eat_keyword("endfor") && !self.eat_keyword("endwhile") {
            self.expect_keyword("end")?;
            if !self.eat_keyword("for") {
                self.expect_keyword("while")?;
            }
        }
        self.eat(&TokenKind::Semicolon);
        Ok(SqlStatement::Loop { body })
    }

    fn parse_optional_where(&mut self) -> Result<Option<Condition>, BtpError> {
        if !self.eat_keyword("where") {
            return Ok(None);
        }
        let mut comparisons = Vec::new();
        loop {
            let left = self.parse_expression()?;
            let op = match self.peek() {
                Some(TokenKind::Eq) => CompareOp::Eq,
                Some(TokenKind::NotEq) => CompareOp::NotEq,
                Some(TokenKind::Lt) => CompareOp::Lt,
                Some(TokenKind::Le) => CompareOp::Le,
                Some(TokenKind::Gt) => CompareOp::Gt,
                Some(TokenKind::Ge) => CompareOp::Ge,
                _ => return Err(self.error("expected comparison operator in WHERE clause")),
            };
            self.pos += 1;
            let right = self.parse_expression()?;
            comparisons.push(Comparison { left, op, right });
            if !self.eat_keyword("and") {
                break;
            }
        }
        Ok(Some(Condition { comparisons }))
    }

    /// Parses a flattened arithmetic expression (operands joined by `+`, `-`, `*`, `/`) and
    /// returns its operands. Qualified columns `alias.column` are reduced to the column name.
    fn parse_expression(&mut self) -> Result<Vec<Value>, BtpError> {
        let mut operands = Vec::new();
        loop {
            match self.peek().cloned() {
                Some(TokenKind::Ident(name)) => {
                    self.pos += 1;
                    // Qualified name `alias.column`.
                    if self.eat(&TokenKind::Dot) {
                        let column = self.expect_ident("column after `.`")?;
                        operands.push(Value::Column(column));
                    } else {
                        operands.push(Value::Column(name));
                    }
                }
                Some(TokenKind::Param(p)) => {
                    self.pos += 1;
                    operands.push(Value::Param(p));
                }
                Some(TokenKind::Number(n)) => {
                    self.pos += 1;
                    operands.push(Value::Number(n));
                }
                Some(TokenKind::Str(s)) => {
                    self.pos += 1;
                    operands.push(Value::Str(s));
                }
                _ => return Err(self.error("expected expression operand")),
            }
            match self.peek() {
                Some(TokenKind::Plus)
                | Some(TokenKind::Minus)
                | Some(TokenKind::Star)
                | Some(TokenKind::Slash) => {
                    self.pos += 1;
                }
                _ => break,
            }
        }
        Ok(operands)
    }
}

/// A construct that terminates a statement list.
enum Terminator {
    RBrace,
    Keyword(&'static str),
    EndPair(&'static str, &'static str),
}

impl Terminator {
    fn matches(&self, parser: &Parser) -> bool {
        match self {
            Terminator::RBrace => parser.peek() == Some(&TokenKind::RBrace),
            Terminator::Keyword(kw) => parser.peek_keyword(kw),
            Terminator::EndPair(first, second) => {
                parser.peek_keyword(first)
                    && parser
                        .tokens
                        .get(parser.pos + 1)
                        .is_some_and(|t| t.kind.is_keyword(second))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_auction_programs() {
        let programs = parse_text(
            r#"
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
            "#,
        )
        .unwrap();
        assert_eq!(programs.len(), 2);
        assert_eq!(programs[0].name, "FindBids");
        assert_eq!(programs[0].params, vec!["B", "T"]);
        assert_eq!(programs[0].body.len(), 2);
        assert_eq!(programs[1].body.len(), 4);
        assert!(matches!(programs[1].body[2], SqlStatement::If { .. }));
        assert!(matches!(programs[1].body[3], SqlStatement::Insert { .. }));
    }

    #[test]
    fn parses_loops_and_deletes() {
        let programs = parse_text(
            r#"
            PROGRAM Delivery(:w_id) {
                FOR each district DO
                    SELECT no_o_id FROM new_order WHERE no_d_id = :d_id AND no_w_id = :w_id;
                    DELETE FROM new_order WHERE no_o_id = :no_o_id AND no_d_id = :d_id AND no_w_id = :w_id;
                ENDFOR;
            }
            "#,
        )
        .unwrap();
        assert_eq!(programs.len(), 1);
        let body = &programs[0].body;
        assert_eq!(body.len(), 1);
        match &body[0] {
            SqlStatement::Loop { body } => {
                assert_eq!(body.len(), 2);
                assert!(matches!(body[1], SqlStatement::Delete { .. }));
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_and_repeat() {
        let programs = parse_text(
            r#"
            PROGRAM P {
                IF :x < 3 THEN
                    SELECT a FROM R WHERE k = :x;
                ELSE
                    UPDATE R SET a = 1 WHERE k = :x;
                END IF;
                REPEAT
                    INSERT INTO R VALUES (:x, :y);
                END REPEAT;
            }
            "#,
        )
        .unwrap();
        let body = &programs[0].body;
        assert_eq!(body.len(), 2);
        match &body[0] {
            SqlStatement::If {
                then_branch,
                else_branch,
            } => {
                assert_eq!(then_branch.len(), 1);
                assert_eq!(else_branch.len(), 1);
            }
            other => panic!("expected if, got {other:?}"),
        }
        assert!(matches!(body[1], SqlStatement::Loop { .. }));
    }

    #[test]
    fn update_with_returning_and_qualified_columns() {
        let programs = parse_text(
            r#"
            PROGRAM P {
                UPDATE district SET d_next_o_id = d_next_o_id + 1
                WHERE d_id = :d_id AND d_w_id = :w_id
                RETURNING d_next_o_id, d_tax INTO :o_id, :d_tax;
                SELECT old.Balance INTO :a FROM Savings WHERE CustomerId = :x;
            }
            "#,
        )
        .unwrap();
        match &programs[0].body[0] {
            SqlStatement::Update {
                assignments,
                returning,
                where_clause,
                ..
            } => {
                assert_eq!(assignments.len(), 1);
                assert_eq!(
                    returning,
                    &vec!["d_next_o_id".to_string(), "d_tax".to_string()]
                );
                assert_eq!(where_clause.as_ref().unwrap().comparisons.len(), 2);
            }
            other => panic!("expected update, got {other:?}"),
        }
        match &programs[0].body[1] {
            SqlStatement::Select { columns, .. } => {
                assert_eq!(columns, &vec!["Balance".to_string()])
            }
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn select_star_and_missing_where() {
        let programs = parse_text("PROGRAM P { SELECT * FROM R; }").unwrap();
        match &programs[0].body[0] {
            SqlStatement::Select {
                star, where_clause, ..
            } => {
                assert!(*star);
                assert!(where_clause.is_none());
            }
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_report_lines_and_columns() {
        let err = parse_text("PROGRAM P {\n SELECT a FRM R; }").unwrap_err();
        match err {
            BtpError::SqlParse { line, column, .. } => {
                assert_eq!(line, 2);
                // The error points at `FRM`, the token where `FROM` was expected.
                assert_eq!(column, 11);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(parse_text("PROGRAM P { UPDATE R SET WHERE a = 1; }").is_err());
        let message = |text: &str| parse_text(text).unwrap_err().to_string();
        assert_eq!(
            message("SELECT a FROM R;"),
            "SQL parse error at line 1, column 1: \
             expected a catalog declaration (SCHEMA, TABLE, FOREIGN KEY) or a PROGRAM block"
        );
        // Declarations next to the programs are parsed, not skipped.
        assert_eq!(
            message("TABLE X (;\nPROGRAM P { SELECT a FROM R; }"),
            "SQL parse error at line 1, column 10: expected attribute name"
        );
        // A body that runs into the end of the input, whatever construct is open.
        for text in [
            "PROGRAM P {\n SELECT a FROM R;",
            "PROGRAM P {\nIF :x THEN\n SELECT a FROM R;",
        ] {
            let last_line = text.lines().count();
            assert_eq!(
                message(text),
                format!(
                    "SQL parse error at line {last_line}, column 17: unterminated PROGRAM block"
                )
            );
        }
    }

    #[test]
    fn statements_carry_their_source_spans() {
        let programs = parse_text(
            "PROGRAM P {\n    SELECT a FROM R WHERE k = :x;\n    UPDATE R SET a = 1 WHERE k = :x;\n}",
        )
        .unwrap();
        match &programs[0].body[0] {
            SqlStatement::Select { span, .. } => {
                assert_eq!((span.line, span.column), (2, 5));
            }
            other => panic!("expected select, got {other:?}"),
        }
        match &programs[0].body[1] {
            SqlStatement::Update { span, .. } => {
                assert_eq!((span.line, span.column), (3, 5));
            }
            other => panic!("expected update, got {other:?}"),
        }
    }

    #[test]
    fn block_nesting_is_capped_with_a_typed_error() {
        // `levels` IF blocks around one SELECT, each opening on its own line.
        let nested = |levels: usize| {
            format!(
                "PROGRAM P {{\n{}SELECT a FROM R;\n{}}}",
                "IF :x THEN\n".repeat(levels),
                "END IF;\n".repeat(levels)
            )
        };
        let programs = parse_text(&nested(MAX_BLOCK_NESTING)).unwrap();
        let mut depth = 0;
        let mut body = &programs[0].body;
        while let [SqlStatement::If { then_branch, .. }] = body.as_slice() {
            depth += 1;
            body = then_branch;
        }
        assert_eq!(depth, MAX_BLOCK_NESTING);

        for levels in [MAX_BLOCK_NESTING + 1, 100_000] {
            match parse_text(&nested(levels)).unwrap_err() {
                BtpError::SqlParse {
                    line,
                    column,
                    message,
                } => {
                    // The IF that would open level MAX_BLOCK_NESTING + 1.
                    assert_eq!((line, column), (MAX_BLOCK_NESTING + 2, 1));
                    assert!(message.contains("nest"), "{message}");
                }
                other => panic!("expected parse error, got {other:?}"),
            }
        }
        // Loops count toward the same limit.
        let mixed = format!(
            "PROGRAM P {{ {} SELECT a FROM R; {} }}",
            "WHILE :x DO ".repeat(MAX_BLOCK_NESTING + 1),
            "END WHILE; ".repeat(MAX_BLOCK_NESTING + 1)
        );
        assert!(matches!(parse_text(&mixed), Err(BtpError::SqlParse { .. })));
    }
}
