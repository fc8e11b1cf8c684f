//! Generated-input test for the SQL front end: near-valid workload text never reaches a panic.
//!
//! The inputs are the bundled workload files and the Auction SQL with their `--` comments
//! stripped, then mutated by deleting, duplicating or swapping whitespace-separated tokens
//! (seeded, so every run sees the same inputs). Whatever the mutation, `parse_workload_file`
//! and `parse_program` must return `Ok` or a `BtpError`, and a `SqlParse` error must point at
//! a line and column of the text it was given.

use mvrc_repro::benchmarks::{auction_schema, AUCTION_SQL};
use mvrc_repro::btp::sql::parse_program;
use mvrc_repro::btp::BtpError;
use mvrc_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mutated inputs per source text.
const MUTANTS_PER_SOURCE: usize = 1000;

/// Removes every `--` comment, keeping the line breaks so positions stay meaningful.
fn strip_comments(text: &str) -> String {
    text.lines()
        .map(|line| line.find("--").map_or(line, |at| &line[..at]))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Applies one to three token deletions, duplications or swaps. The text is kept as
/// `(token, whitespace after it)` pairs; a swap exchanges two tokens and leaves the whitespace
/// (and so the line structure) where it was.
fn mutate(text: &str, rng: &mut StdRng) -> String {
    let leading = &text[..text.len() - text.trim_start().len()];
    let mut pieces: Vec<(&str, &str)> = Vec::new();
    let mut rest = text.trim_start();
    while !rest.is_empty() {
        let token_end = rest.find(char::is_whitespace).unwrap_or(rest.len());
        let (token, after) = rest.split_at(token_end);
        let gap_end = after.len() - after.trim_start().len();
        pieces.push((token, &after[..gap_end]));
        rest = &after[gap_end..];
    }
    for _ in 0..rng.gen_range(1..=3) {
        if pieces.is_empty() {
            break;
        }
        let i = rng.gen_range(0..pieces.len());
        match rng.gen_range(0..3) {
            0 => {
                pieces.remove(i);
            }
            1 => pieces.insert(i + 1, (pieces[i].0, " ")),
            _ => {
                let j = rng.gen_range(0..pieces.len());
                let (a, b) = (pieces[i].0, pieces[j].0);
                pieces[i].0 = b;
                pieces[j].0 = a;
            }
        }
    }
    let mut out = String::from(leading);
    for (token, gap) in pieces {
        out.push_str(token);
        out.push_str(gap);
    }
    out
}

/// Fails when a parse error names no position of `text`: every `SqlParse` must point at an
/// existing line, and at a column on it or just past its last character.
fn assert_positioned<T>(result: Result<T, BtpError>, text: &str) {
    if let Err(BtpError::SqlParse { line, column, .. }) = result {
        let line_text = text.split('\n').nth(line.wrapping_sub(1));
        let width = line_text.map(|l| l.chars().count());
        assert!(
            width.is_some_and(|w| (1..=w + 1).contains(&column)),
            "error at {line}:{column} lies outside the input:\n{text}"
        );
    }
}

#[test]
fn mutated_workload_text_parses_or_fails_with_a_positioned_error() {
    let sources = [
        include_str!("../crates/cli/workloads/auction.sql"),
        include_str!("../crates/cli/workloads/shop.sql"),
        include_str!("../crates/cli/workloads/smallbank.sql"),
        AUCTION_SQL,
    ];
    let auction = auction_schema();
    let mut rng = StdRng::seed_from_u64(22);
    let mut accepted = 0;
    for source in sources {
        let source = strip_comments(source);
        let schema = match parse_workload_file(&source) {
            Ok((schema, _)) => schema,
            Err(_) => {
                // The Auction SQL declares no tables; its schema is built in code.
                assert!(parse_workload(&auction, &source).is_ok());
                auction.clone()
            }
        };
        for _ in 0..MUTANTS_PER_SOURCE {
            let text = mutate(&source, &mut rng);
            let file = parse_workload_file(&text);
            accepted += usize::from(file.is_ok());
            assert_positioned(file, &text);
            assert_positioned(parse_program(&schema, &text), &text);
        }
    }
    // Some mutations are harmless (a swapped pair of equal tokens, a duplicated `;`), so the
    // corpus also reaches the translation of a parsed file.
    assert!(accepted > 0);
}
