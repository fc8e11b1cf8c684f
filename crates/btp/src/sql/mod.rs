//! SQL front-end: translating a small SQL subset into BTPs.
//!
//! Appendix A of the paper lists the SQL statement shapes that correspond to BTP statements
//! (key/predicate-based selections, updates and deletions, plus inserts) and the control-flow
//! constructs (`IF … ELSE … ENDIF` and `REPEAT … END REPEAT`) that map onto `(P | P)`, `(P | ε)`
//! and `loop(P)`. This module implements that translation so a workload can be analyzed directly
//! from (pseudo-)SQL text:
//!
//! ```
//! use mvrc_schema::SchemaBuilder;
//! use mvrc_btp::sql::parse_workload;
//!
//! let mut sb = SchemaBuilder::new("auction");
//! let buyer = sb.relation("Buyer", &["id", "calls"], &["id"]).unwrap();
//! let bids = sb.relation("Bids", &["buyerId", "bid"], &["buyerId"]).unwrap();
//! let log = sb.relation("Log", &["id", "buyerId", "bid"], &["id"]).unwrap();
//! sb.foreign_key("f1", bids, &["buyerId"], buyer, &["id"]).unwrap();
//! sb.foreign_key("f2", log, &["buyerId"], buyer, &["id"]).unwrap();
//! let schema = sb.build();
//!
//! let programs = parse_workload(&schema, r#"
//!     PROGRAM FindBids(:B, :T) {
//!         UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
//!         SELECT bid FROM Bids WHERE bid >= :T;
//!     }
//!     PROGRAM PlaceBid(:B, :V) {
//!         UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
//!         SELECT bid INTO :C FROM Bids WHERE buyerId = :B;
//!         IF :C < :V THEN
//!             UPDATE Bids SET bid = :V WHERE buyerId = :B;
//!         ENDIF;
//!         INSERT INTO Log VALUES (:logId, :B, :V);
//!     }
//! "#).unwrap();
//! assert_eq!(programs.len(), 2);
//! assert_eq!(programs[1].to_string(), "PlaceBid := q3; q4; (q5 | ε); q6");
//! assert_eq!(programs[1].fk_constraints().len(), 3);
//! ```
//!
//! ## Self-contained workload files
//!
//! [`parse_workload_file`] additionally builds the schema from a small DDL dialect (`SCHEMA`,
//! `TABLE`, `FOREIGN KEY` declarations) so that a single file can describe schema *and*
//! programs — this is what the `mvrc` command-line analyzer consumes. Every entry point lexes
//! the text once and parses declarations and `PROGRAM` blocks in one pass, in source order;
//! [`parse_workload`] and [`parse_program`] parse the declarations too and then drop them.
//! The tokens borrow their text from the input and identifiers carry a keyword tag set while
//! lexing, so the parser compares tags, not strings. The AST ([`SqlText`] and the types under
//! it) borrows every name and literal from the input too, and it is flat: the statements,
//! names, operands, comparisons, assignments and `VALUES` expressions of a whole text sit in
//! one buffer per kind, and a node refers to its children as a [`Run`] of one of them. So
//! parsing allocates per text, not per statement or identifier. Translation numbers the
//! statements across the whole text, `q1`, `q2`, … continuing from one program to the next,
//! as the paper's Figures 2, 10 and 17 do: the Auction text below names PlaceBid's statements
//! `q3`–`q6`. A workload file is one numbering; a text given to [`parse_program`] starts at
//! `q1`. Each statement name is made once and shared by the program's LTPs; besides them, only
//! the names of the translated [`Program`]s (and of the built schema) are owned. Positions are 1-based lines and columns counted in
//! characters.
//!
//! Errors come in a fixed order: a lexical error, else the first syntax error in the text
//! (a declaration's or a program's, whichever comes first), else a semantic catalog error
//! (`declares no TABLE`, `invalid TABLE`, `invalid FOREIGN KEY`), else a translation error. A
//! `PROGRAM` block that runs into the end of the input is an `unterminated PROGRAM block`,
//! whatever construct inside it was still open. A program of more than 65,536 statements, or
//! a catalog of more than 65,536 tables or foreign keys, is refused before its 16-bit ids
//! could wrap ([`BtpError::TooManyStatements`], `invalid TABLE`, `invalid FOREIGN KEY`).
//! Translation counts a program's LTPs on its expression before anything is unfolded: a
//! program above [`MAX_PROGRAM_LTPS`] is a [`BtpError::TooManyLtps`], and a workload whose
//! programs together exceed [`MAX_WORKLOAD_LTPS`] is a [`BtpError::TooManyWorkloadLtps`]. A
//! second walk counts the statement occurrences per relation: a workload whose LTPs may give
//! more than [`MAX_WORKLOAD_EDGES`] summary-graph edges is a
//! [`BtpError::TooManyWorkloadEdges`].
//!
//! ## Classification rules (Appendix A)
//!
//! * A `WHERE` clause consisting of equality comparisons that cover the relation's primary key
//!   classifies the statement as **key-based**; any other `WHERE` clause makes it
//!   **predicate-based** with `PReadSet` equal to the attributes mentioned in the clause.
//! * `SELECT` read sets are the selected attributes; `UPDATE` read sets are the attributes
//!   appearing in `SET` expressions and `RETURNING` clauses; `UPDATE` write sets are the `SET`
//!   targets; `INSERT` / `DELETE` write all attributes of their relation.
//! * Foreign-key constraints `q_j = f(q_i)` are **inferred from parameter reuse**: when the
//!   foreign-key attributes of `q_i` and the key attributes of `q_j` are bound to the same host
//!   parameters, every instantiation of the program necessarily respects the foreign key.

mod ast;
mod catalog;
mod lexer;
mod parser;
mod translate;

pub use ast::{
    Assignment, Block, CompareOp, Comparison, Condition, Names, Operands, Run, SqlProgram,
    SqlStatement, SqlText, Value,
};
pub use parser::parse_text;
pub use translate::{
    check_workload_ltps, translate_workload, MAX_PROGRAM_LTPS, MAX_WORKLOAD_EDGES,
    MAX_WORKLOAD_LTPS,
};

use crate::error::BtpError;
use crate::program::Program;
use mvrc_schema::Schema;

/// Parses a workload script containing one or more `PROGRAM … { … }` blocks and translates every
/// program into a BTP.
pub fn parse_workload(schema: &Schema, text: &str) -> Result<Vec<Program>, BtpError> {
    let parsed = parse_text(text)?;
    translate_workload(schema, &parsed)
}

/// Parses a self-contained workload file (catalog declarations plus `PROGRAM` blocks) and
/// returns the schema together with the translated programs.
pub fn parse_workload_file(text: &str) -> Result<(Schema, Vec<Program>), BtpError> {
    let (catalog, parsed) = parser::parse_source(text)?;
    let schema = catalog.build()?;
    let programs = translate_workload(&schema, &parsed)?;
    Ok((schema, programs))
}

/// Parses a script expected to contain exactly one program.
pub fn parse_program(schema: &Schema, text: &str) -> Result<Program, BtpError> {
    let mut programs = parse_workload(schema, text)?;
    match programs.len() {
        1 => Ok(programs.remove(0)),
        n => Err(BtpError::SqlParse {
            line: 1,
            column: 1,
            message: format!("expected exactly one PROGRAM block, found {n}"),
        }),
    }
}

#[cfg(test)]
mod testgen;

#[cfg(test)]
mod tests {
    use super::*;

    /// Every 20th seeded mutant: 200 texts, from all four bundled files.
    const GOLDEN_STRIDE: usize = 20;

    /// One line per sampled mutant and entry point: the `Display` text of the error, or `ok`.
    fn error_lines() -> String {
        let sources = testgen::sources();
        let schemas: Vec<Schema> = sources
            .iter()
            .map(|source| parse_workload_file(source).expect("bundled file").0)
            .collect();
        let show = |result: Result<(), BtpError>| match result {
            Ok(()) => "ok".to_string(),
            Err(e) => e.to_string(),
        };
        let mut out = String::new();
        for (index, (source, text)) in testgen::mutants().into_iter().enumerate() {
            if index % GOLDEN_STRIDE != 0 {
                continue;
            }
            let file = show(parse_workload_file(&text).map(drop));
            let program = show(parse_program(&schemas[source], &text).map(drop));
            out.push_str(&format!(
                "{index} file: {file}\n{index} program: {program}\n"
            ));
        }
        out
    }

    /// Pins the error text of both entry points on a sample of the seeded mutants, so a change
    /// of the token representation cannot silently alter a message (`unexpected token …`
    /// renders the offending token). `MVRC_BLESS=1` rewrites the file instead.
    #[test]
    fn parse_errors_match_the_golden_file() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/sql_parse_errors.txt"
        );
        let lines = error_lines();
        if std::env::var_os("MVRC_BLESS").is_some() {
            std::fs::write(path, &lines).expect("write the golden file");
            return;
        }
        let pinned = std::fs::read_to_string(path).expect("golden file; bless with MVRC_BLESS=1");
        assert!(pinned.contains("unexpected token Some("));
        for (got, want) in lines.lines().zip(pinned.lines()) {
            assert_eq!(got, want);
        }
        assert_eq!(lines.lines().count(), pinned.lines().count());
    }
}
