//! Inputs shared by the front end's unit tests: the bundled workload files, their seeded
//! token mutations and generated Auction(n) files.
//!
//! The mutations are those of the workspace's `tests/sql_mutations.rs`: the same sources, the
//! same generator and the same seed, so [`mutants`] yields the same 4,000 texts in the same
//! order.

use mvrc_schema::Schema;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mutated inputs per source text.
const MUTANTS_PER_SOURCE: usize = 1000;

/// The Auction schema of Section 2, as `auction.sql` declares it.
pub(crate) fn auction_schema() -> Schema {
    super::parse_workload_file(sources()[0])
        .expect("auction.sql translates")
        .0
}

/// The bundled workload files, in the order the mutations visit them.
pub(crate) fn sources() -> [&'static str; 4] {
    [
        include_str!("../../../cli/workloads/auction.sql"),
        include_str!("../../../cli/workloads/shop.sql"),
        include_str!("../../../cli/workloads/smallbank.sql"),
        include_str!("../../../cli/workloads/tpcc.sql"),
    ]
}

/// Removes every `--` comment, keeping the line breaks so positions stay meaningful.
pub(crate) fn strip_comments(text: &str) -> String {
    text.lines()
        .map(|line| line.find("--").map_or(line, |at| &line[..at]))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Applies one to three deletions, duplications or swaps of whitespace-separated tokens; a swap
/// leaves the whitespace (and so the line structure) where it was.
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

/// The seeded mutants, each with the index of the source (in [`sources`]) it was made from.
pub(crate) fn mutants() -> Vec<(usize, String)> {
    let mut rng = StdRng::seed_from_u64(22);
    let mut out = Vec::with_capacity(4 * MUTANTS_PER_SOURCE);
    for (i, source) in sources().into_iter().enumerate() {
        let source = strip_comments(source);
        for _ in 0..MUTANTS_PER_SOURCE {
            out.push((i, mutate(&source, &mut rng)));
        }
    }
    out
}

/// The Auction(n) workload of Section 7.3 as a workload file: one `Bids<i>` relation and one
/// `FindBids<i>`/`PlaceBid<i>` pair per item.
pub(crate) fn auction_n_sql(n: usize) -> String {
    let mut sql = format!(
        "SCHEMA Auction{n};\n\
         TABLE Buyer (id, calls, PRIMARY KEY (id));\n\
         TABLE Log (id, buyerId, bid, PRIMARY KEY (id));\n\
         FOREIGN KEY f_log: Log (buyerId) REFERENCES Buyer (id);\n"
    );
    for i in 1..=n {
        sql.push_str(&format!(
            "TABLE Bids{i} (buyerId, bid, PRIMARY KEY (buyerId));\n\
             FOREIGN KEY f_bids{i}: Bids{i} (buyerId) REFERENCES Buyer (id);\n"
        ));
    }
    for i in 1..=n {
        sql.push_str(&format!(
            "PROGRAM FindBids{i}(:B, :T) {{\n\
             \x20   UPDATE Buyer SET calls = calls + 1 WHERE id = :B;\n\
             \x20   SELECT bid FROM Bids{i} WHERE bid >= :T;\n\
             }}\n\
             PROGRAM PlaceBid{i}(:B, :V) {{\n\
             \x20   UPDATE Buyer SET calls = calls + 1 WHERE id = :B;\n\
             \x20   SELECT bid INTO :C FROM Bids{i} WHERE buyerId = :B;\n\
             \x20   IF :C < :V THEN\n\
             \x20       UPDATE Bids{i} SET bid = :V WHERE buyerId = :B;\n\
             \x20   ENDIF;\n\
             \x20   INSERT INTO Log VALUES (:logId, :B, :V);\n\
             }}\n"
        ));
    }
    sql
}
