//! Recursive-descent parser for the SQL subset.

use super::ast::{
    Assignment, Block, CompareOp, Comparison, Condition, Operands, Run, SqlProgram, SqlStatement,
    SqlText, Value,
};
use super::catalog::{Catalog, ForeignKeyDecl, TableDecl};
use super::lexer::{describe, tokenize, Keyword, Token, TokenKind};
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
pub fn parse_text(text: &str) -> Result<SqlText<'_>, BtpError> {
    parse_source(text).map(|(_, parsed)| parsed)
}

/// Lexes `text` once and parses its catalog declarations and `PROGRAM` blocks in source order,
/// stopping at the first syntax error.
pub(super) fn parse_source(text: &str) -> Result<(Catalog<'_>, SqlText<'_>), BtpError> {
    let mut parser = Parser {
        tokens: tokenize(text)?,
        pos: 0,
        depth: 0,
        ast: SqlText::default(),
        open: Vec::new(),
    };
    let mut catalog = Catalog::default();
    while !parser.at_end() {
        if parser.eat_keyword(Keyword::Schema) {
            catalog.name = Some(parser.expect_ident("schema name")?);
            parser.expect_semicolon()?;
        } else if parser.peek_keyword(Keyword::Table) || parser.peek_keyword(Keyword::Create) {
            parser.eat_keyword(Keyword::Create);
            parser.expect_keyword(Keyword::Table)?;
            catalog.tables.push(parser.parse_table()?);
        } else if parser.eat_keyword(Keyword::Foreign) {
            parser.expect_keyword(Keyword::Key)?;
            let ordinal = catalog.foreign_keys.len() + 1;
            catalog
                .foreign_keys
                .push(parser.parse_foreign_key(ordinal)?);
        } else if parser.eat_keyword(Keyword::Program) {
            match parser.parse_program() {
                Ok(program) => parser.ast.programs.push(program),
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
    Ok((catalog, parser.ast))
}

/// A cursor over the tokens of one text. Tokens borrow from the text and are `Copy`, and so
/// does every name the AST keeps: looking at or consuming a token allocates nothing. The nodes
/// go into the buffers of `ast`, each run of children in one piece: a list's entries are
/// pushed as they parse, except statements, whose blocks nest; those wait in `open` until
/// their block ends.
struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Number of `IF`/loop blocks enclosing the current position.
    depth: usize,
    ast: SqlText<'a>,
    /// The statements parsed so far of every block still open, outermost block first.
    open: Vec<SqlStatement<'a>>,
}

impl<'a> Parser<'a> {
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

    fn peek(&self) -> Option<TokenKind> {
        self.tokens.get(self.pos).map(|t| t.kind)
    }

    fn peek_keyword(&self, kw: Keyword) -> bool {
        self.peek() == Some(TokenKind::Ident(kw))
    }

    /// Consumes the current token, if any.
    fn bump(&mut self) -> Option<Token<'a>> {
        let token = self.tokens.get(self.pos).copied();
        if token.is_some() {
            self.pos += 1;
        }
        token
    }

    /// Consumes the current token and returns its text; only call after a successful `peek`.
    fn bump_text(&mut self) -> &'a str {
        let text = self.tokens[self.pos].text;
        self.pos += 1;
        text
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        self.eat(TokenKind::Ident(kw))
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), BtpError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", kw.as_str())))
        }
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.peek() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<(), BtpError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    fn expect_semicolon(&mut self) -> Result<(), BtpError> {
        self.expect(TokenKind::Semicolon, "`;`")
    }

    /// Consumes an identifier (a keyword counts as one) and returns its text.
    fn expect_ident(&mut self, what: &str) -> Result<&'a str, BtpError> {
        match self.peek() {
            Some(TokenKind::Ident(_)) => Ok(self.bump_text()),
            _ => Err(self.error(format!("expected {what}"))),
        }
    }

    /// Parses `<name> ( attr [, attr]* [, PRIMARY KEY ( attr [, attr]* )] ) ;` after the
    /// `TABLE` keyword.
    fn parse_table(&mut self) -> Result<TableDecl<'a>, BtpError> {
        let span = self.span();
        let name = self.expect_ident("table name")?;
        self.expect(TokenKind::LParen, "`(` after the table name")?;
        let mut attributes = Vec::new();
        let mut primary_key = Vec::new();
        loop {
            if self.eat(TokenKind::RParen) {
                break;
            }
            if self.eat(TokenKind::Comma) {
                continue;
            }
            if self.eat_keyword(Keyword::Primary) {
                self.expect_keyword(Keyword::Key)?;
                self.expect(TokenKind::LParen, "`(` after PRIMARY KEY")?;
                loop {
                    if self.eat(TokenKind::RParen) {
                        break;
                    }
                    if self.eat(TokenKind::Comma) {
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
            primary_key.push(attributes[0]);
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
    fn parse_foreign_key(&mut self, ordinal: usize) -> Result<ForeignKeyDecl<'a>, BtpError> {
        let span = self.span();
        let first = self.expect_ident("foreign key name or domain relation")?;
        // Three accepted shapes: `f1 : Bids (…)` (colon token), `f1: Bids (…)` (the lexer fuses
        // `:Bids` into a parameter token) and the anonymous `Bids (…)`.
        let (name, dom) = if self.eat(TokenKind::Colon) {
            (first.into(), self.expect_ident("domain relation")?)
        } else if self.peek() == Some(TokenKind::Param) {
            (first.into(), self.bump_text())
        } else {
            (format!("fk{ordinal}").into(), first)
        };
        let dom_attrs = self.parse_attr_list("domain attribute")?;
        self.expect_keyword(Keyword::References)?;
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

    fn parse_attr_list(&mut self, what: &str) -> Result<Vec<&'a str>, BtpError> {
        self.expect(TokenKind::LParen, "`(`")?;
        let mut attrs = Vec::new();
        loop {
            if self.eat(TokenKind::RParen) {
                break;
            }
            if self.eat(TokenKind::Comma) {
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
    fn parse_program(&mut self) -> Result<SqlProgram<'a>, BtpError> {
        let name = self.expect_ident("program name")?;
        let start = self.ast.names.len();
        if self.eat(TokenKind::LParen) {
            while !self.eat(TokenKind::RParen) {
                // The offending token is consumed before the error names a position.
                match self.bump() {
                    Some(t) if t.kind == TokenKind::Param => self.ast.names.push(t.text),
                    Some(t) if t.kind == TokenKind::Comma => {}
                    _ => return Err(self.error("expected `:parameter` in program header")),
                }
            }
        }
        let params = Run::since(start, &self.ast.names);
        self.expect(TokenKind::LBrace, "`{` to open the program body")?;
        let body = self.parse_statements_until(&[Terminator::RBrace])?;
        self.expect(TokenKind::RBrace, "`}` to close the program body")?;
        Ok(SqlProgram { name, params, body })
    }

    fn parse_statements_until(
        &mut self,
        terminators: &[Terminator],
    ) -> Result<Block<'a>, BtpError> {
        let mark = self.open.len();
        loop {
            // Drop stray semicolons.
            while self.eat(TokenKind::Semicolon) {}
            if self.at_end() || terminators.iter().any(|t| t.matches(self)) {
                let start = self.ast.statements.len();
                self.ast.statements.extend(self.open.drain(mark..));
                return Ok(Run::since(start, &self.ast.statements));
            }
            if let Some(stmt) = self.parse_statement()? {
                self.open.push(stmt);
            }
        }
    }

    fn parse_statement(&mut self) -> Result<Option<SqlStatement<'a>>, BtpError> {
        let Some(TokenKind::Ident(keyword)) = self.peek() else {
            return Err(self.unexpected_token());
        };
        match keyword {
            Keyword::Commit => {
                self.pos += 1;
                self.eat(TokenKind::Semicolon);
                Ok(None)
            }
            Keyword::Select => self.parse_select().map(Some),
            Keyword::Update => self.parse_update().map(Some),
            Keyword::Insert => self.parse_insert().map(Some),
            Keyword::Delete => self.parse_delete().map(Some),
            Keyword::If => self.nested(Self::parse_if).map(Some),
            Keyword::Repeat | Keyword::For | Keyword::While => {
                self.nested(Self::parse_loop).map(Some)
            }
            _ => Err(self.unexpected_token()),
        }
    }

    fn unexpected_token(&self) -> BtpError {
        self.error(format!(
            "unexpected token {}",
            describe(self.tokens.get(self.pos))
        ))
    }

    fn parse_select(&mut self) -> Result<SqlStatement<'a>, BtpError> {
        let span = self.span();
        self.expect_keyword(Keyword::Select)?;
        let start = self.ast.names.len();
        let mut star = false;
        loop {
            match self.peek() {
                Some(TokenKind::Star) => {
                    star = true;
                    self.pos += 1;
                }
                Some(TokenKind::Ident(kw)) if kw != Keyword::From && kw != Keyword::Into => {
                    let mut col = self.bump_text();
                    // Qualified column `alias.column` — keep only the column name.
                    if self.eat(TokenKind::Dot) {
                        col = self.expect_ident("column after `.`")?;
                    }
                    self.ast.names.push(col);
                }
                _ => break,
            }
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        let columns = Run::since(start, &self.ast.names);
        if self.eat_keyword(Keyword::Into) {
            // Host variables receiving the result; irrelevant to the analysis.
            self.skip_params();
        }
        self.expect_keyword(Keyword::From)?;
        let relation = self.expect_ident("relation name")?;
        let where_clause = self.parse_optional_where()?;
        self.eat(TokenKind::Semicolon);
        Ok(SqlStatement::Select {
            relation,
            columns,
            star,
            where_clause,
            span,
        })
    }

    /// Skips a comma-separated list of host parameters (an `INTO` target list).
    fn skip_params(&mut self) {
        while self.eat(TokenKind::Param) {
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
    }

    fn parse_update(&mut self) -> Result<SqlStatement<'a>, BtpError> {
        let span = self.span();
        self.expect_keyword(Keyword::Update)?;
        let relation = self.expect_ident("relation name")?;
        self.expect_keyword(Keyword::Set)?;
        let start = self.ast.assignments.len();
        loop {
            let target = self.expect_ident("assignment target")?;
            self.expect(TokenKind::Eq, "`=` in assignment")?;
            let expr = self.parse_expression()?;
            self.ast.assignments.push(Assignment { target, expr });
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        let assignments = Run::since(start, &self.ast.assignments);
        let where_clause = self.parse_optional_where()?;
        let start = self.ast.names.len();
        if self.eat_keyword(Keyword::Returning) {
            loop {
                match self.peek() {
                    Some(TokenKind::Ident(kw)) if kw != Keyword::Into => {
                        let column = self.bump_text();
                        self.ast.names.push(column);
                    }
                    _ => break,
                }
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            if self.eat_keyword(Keyword::Into) {
                self.skip_params();
            }
        }
        let returning = Run::since(start, &self.ast.names);
        self.eat(TokenKind::Semicolon);
        Ok(SqlStatement::Update {
            relation,
            assignments,
            where_clause,
            returning,
            span,
        })
    }

    fn parse_insert(&mut self) -> Result<SqlStatement<'a>, BtpError> {
        let span = self.span();
        self.expect_keyword(Keyword::Insert)?;
        self.expect_keyword(Keyword::Into)?;
        let relation = self.expect_ident("relation name")?;
        let start = self.ast.names.len();
        if self.eat(TokenKind::LParen) {
            while !self.eat(TokenKind::RParen) {
                // The offending token is consumed before the error names a position.
                match self.bump() {
                    Some(t) if matches!(t.kind, TokenKind::Ident(_)) => self.ast.names.push(t.text),
                    Some(t) if t.kind == TokenKind::Comma => {}
                    _ => return Err(self.error("expected column name in INSERT column list")),
                }
            }
        }
        let columns = Run::since(start, &self.ast.names);
        self.expect_keyword(Keyword::Values)?;
        self.expect(TokenKind::LParen, "`(` before VALUES list")?;
        let start = self.ast.values.len();
        loop {
            let expr = self.parse_expression()?;
            self.ast.values.push(expr);
            if self.eat(TokenKind::Comma) {
                continue;
            }
            self.expect(TokenKind::RParen, "`)` after VALUES list")?;
            break;
        }
        let values = Run::since(start, &self.ast.values);
        self.eat(TokenKind::Semicolon);
        Ok(SqlStatement::Insert {
            relation,
            columns,
            values,
            span,
        })
    }

    fn parse_delete(&mut self) -> Result<SqlStatement<'a>, BtpError> {
        let span = self.span();
        self.expect_keyword(Keyword::Delete)?;
        self.expect_keyword(Keyword::From)?;
        let relation = self.expect_ident("relation name")?;
        let where_clause = self.parse_optional_where()?;
        self.eat(TokenKind::Semicolon);
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
        parse: fn(&mut Self) -> Result<SqlStatement<'a>, BtpError>,
    ) -> Result<SqlStatement<'a>, BtpError> {
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

    /// Skips tokens up to the keyword `kw`; at the end of the input, fails with `missing`.
    fn skip_to_keyword(&mut self, kw: Keyword, missing: &str) -> Result<(), BtpError> {
        while !self.peek_keyword(kw) {
            if self.at_end() {
                return Err(self.error(missing));
            }
            self.pos += 1;
        }
        Ok(())
    }

    fn parse_if(&mut self) -> Result<SqlStatement<'a>, BtpError> {
        self.expect_keyword(Keyword::If)?;
        // The condition involves host variables only; skip tokens until THEN (or a `:` style
        // shorthand where THEN is omitted and the body starts right away is not supported).
        self.skip_to_keyword(Keyword::Then, "expected `THEN` after IF condition")?;
        self.expect_keyword(Keyword::Then)?;
        let then_branch = self.parse_statements_until(&[
            Terminator::Keyword(Keyword::Else),
            Terminator::Keyword(Keyword::EndIf),
            Terminator::EndPair(Keyword::If),
        ])?;
        let mut else_branch = Run::default();
        if self.eat_keyword(Keyword::Else) {
            else_branch = self.parse_statements_until(&[
                Terminator::Keyword(Keyword::EndIf),
                Terminator::EndPair(Keyword::If),
            ])?;
        }
        if !self.eat_keyword(Keyword::EndIf) {
            self.expect_keyword(Keyword::End)?;
            self.expect_keyword(Keyword::If)?;
        }
        self.eat(TokenKind::Semicolon);
        Ok(SqlStatement::If {
            then_branch,
            else_branch,
        })
    }

    fn parse_loop(&mut self) -> Result<SqlStatement<'a>, BtpError> {
        if self.eat_keyword(Keyword::Repeat) {
            let body = self.parse_statements_until(&[
                Terminator::Keyword(Keyword::EndRepeat),
                Terminator::EndPair(Keyword::Repeat),
                Terminator::Keyword(Keyword::Until),
            ])?;
            if self.eat_keyword(Keyword::Until) {
                // Skip the loop condition up to the terminating semicolon.
                while !self.eat(TokenKind::Semicolon) {
                    if self.at_end() {
                        break;
                    }
                    self.pos += 1;
                }
            } else if !self.eat_keyword(Keyword::EndRepeat) {
                self.expect_keyword(Keyword::End)?;
                self.expect_keyword(Keyword::Repeat)?;
            }
            self.eat(TokenKind::Semicolon);
            return Ok(SqlStatement::Loop { body });
        }
        if !self.eat_keyword(Keyword::For) {
            self.expect_keyword(Keyword::While)?;
        }
        // Skip the loop header up to DO (FOR each item DO … / WHILE cond DO …).
        self.skip_to_keyword(Keyword::Do, "expected `DO` after loop header")?;
        self.expect_keyword(Keyword::Do)?;
        let body = self.parse_statements_until(&[
            Terminator::Keyword(Keyword::EndFor),
            Terminator::Keyword(Keyword::EndWhile),
            Terminator::EndPair(Keyword::For),
            Terminator::EndPair(Keyword::While),
        ])?;
        if !self.eat_keyword(Keyword::EndFor) && !self.eat_keyword(Keyword::EndWhile) {
            self.expect_keyword(Keyword::End)?;
            if !self.eat_keyword(Keyword::For) {
                self.expect_keyword(Keyword::While)?;
            }
        }
        self.eat(TokenKind::Semicolon);
        Ok(SqlStatement::Loop { body })
    }

    fn parse_optional_where(&mut self) -> Result<Option<Condition<'a>>, BtpError> {
        if !self.eat_keyword(Keyword::Where) {
            return Ok(None);
        }
        let start = self.ast.comparisons.len();
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
            self.ast.comparisons.push(Comparison { left, op, right });
            if !self.eat_keyword(Keyword::And) {
                break;
            }
        }
        Ok(Some(Run::since(start, &self.ast.comparisons)))
    }

    /// Parses a flattened arithmetic expression (operands joined by `+`, `-`, `*`, `/`) and
    /// returns its operands. Qualified columns `alias.column` are reduced to the column name.
    fn parse_expression(&mut self) -> Result<Operands<'a>, BtpError> {
        let start = self.ast.operands.len();
        loop {
            let operand = match self.peek() {
                Some(TokenKind::Ident(_)) => {
                    let mut name = self.bump_text();
                    // Qualified name `alias.column`.
                    if self.eat(TokenKind::Dot) {
                        name = self.expect_ident("column after `.`")?;
                    }
                    Value::Column(name)
                }
                Some(TokenKind::Param) => Value::Param(self.bump_text()),
                Some(TokenKind::Number) => Value::Number(self.bump_text()),
                Some(TokenKind::Str) => Value::Str(self.bump_text()),
                _ => return Err(self.error("expected expression operand")),
            };
            self.ast.operands.push(operand);
            match self.peek() {
                Some(TokenKind::Plus | TokenKind::Minus | TokenKind::Star | TokenKind::Slash) => {
                    self.pos += 1;
                }
                _ => break,
            }
        }
        Ok(Run::since(start, &self.ast.operands))
    }
}

/// A construct that terminates a statement list.
enum Terminator {
    RBrace,
    Keyword(Keyword),
    /// `END` followed by the keyword.
    EndPair(Keyword),
}

impl Terminator {
    fn matches(&self, parser: &Parser) -> bool {
        match *self {
            Terminator::RBrace => parser.peek() == Some(TokenKind::RBrace),
            Terminator::Keyword(kw) => parser.peek_keyword(kw),
            Terminator::EndPair(second) => {
                parser.peek_keyword(Keyword::End)
                    && parser
                        .tokens
                        .get(parser.pos + 1)
                        .is_some_and(|t| t.kind == TokenKind::Ident(second))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_auction_programs() {
        let text = parse_text(
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
        let programs = &text.programs;
        assert_eq!(programs.len(), 2);
        assert_eq!(programs[0].name, "FindBids");
        assert_eq!(text[programs[0].params], ["B", "T"]);
        assert_eq!(programs[0].body.len(), 2);
        let place_bid = &text[programs[1].body];
        assert_eq!(place_bid.len(), 4);
        assert!(matches!(place_bid[2], SqlStatement::If { .. }));
        match place_bid[3] {
            SqlStatement::Insert {
                columns, values, ..
            } => {
                assert!(columns.is_empty());
                let values: Vec<_> = text[values].iter().map(|&v| &text[v]).collect();
                let param = |p| [Value::Param(p)];
                assert_eq!(values, [&param("logId")[..], &param("B"), &param("V")]);
            }
            other => panic!("expected insert, got {other:?}"),
        }
    }

    #[test]
    fn parses_loops_and_deletes() {
        let text = parse_text(
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
        assert_eq!(text.programs.len(), 1);
        let body = &text[text.programs[0].body];
        assert_eq!(body.len(), 1);
        match body[0] {
            SqlStatement::Loop { body } => {
                assert_eq!(body.len(), 2);
                assert!(matches!(text[body][1], SqlStatement::Delete { .. }));
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_and_repeat() {
        let text = parse_text(
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
        let body = &text[text.programs[0].body];
        assert_eq!(body.len(), 2);
        match body[0] {
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
        let text = parse_text(
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
        let body = &text[text.programs[0].body];
        match body[0] {
            SqlStatement::Update {
                assignments,
                returning,
                where_clause,
                ..
            } => {
                let [assignment] = text[assignments] else {
                    panic!("expected one assignment");
                };
                assert_eq!(assignment.target, "d_next_o_id");
                let operands = [Value::Column("d_next_o_id"), Value::Number("1")];
                assert_eq!(text[assignment.expr], operands);
                assert_eq!(text[returning], ["d_next_o_id", "d_tax"]);
                let conjuncts = &text[where_clause.unwrap()];
                assert_eq!(conjuncts.len(), 2);
                assert_eq!(
                    text.column_binding(conjuncts[1]),
                    Some(("d_w_id", Value::Param("w_id")))
                );
            }
            other => panic!("expected update, got {other:?}"),
        }
        match body[1] {
            SqlStatement::Select { columns, .. } => {
                assert_eq!(text[columns], ["Balance"])
            }
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn select_star_and_missing_where() {
        let text = parse_text("PROGRAM P { SELECT * FROM R; }").unwrap();
        match text[text.programs[0].body][0] {
            SqlStatement::Select {
                star, where_clause, ..
            } => {
                assert!(star);
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
        let text = parse_text(
            "PROGRAM P {\n    SELECT a FROM R WHERE k = :x;\n    UPDATE R SET a = 1 WHERE k = :x;\n}",
        )
        .unwrap();
        let body = &text[text.programs[0].body];
        match body[0] {
            SqlStatement::Select { span, .. } => {
                assert_eq!((span.line, span.column), (2, 5));
            }
            other => panic!("expected select, got {other:?}"),
        }
        match body[1] {
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
        let source = nested(MAX_BLOCK_NESTING);
        let text = parse_text(&source).unwrap();
        let mut depth = 0;
        let mut body = text.programs[0].body;
        while let [SqlStatement::If { then_branch, .. }] = text[body] {
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
