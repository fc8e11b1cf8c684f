//! The Auction benchmark (Section 2 of the paper), translated from the bundled `auction.sql`,
//! and its scalable variant Auction(n) (Section 7.3), generated in code.
//!
//! Schema: `Buyer(id, calls)`, `Bids(buyerId, bid)`, `Log(id, buyerId, bid)` with foreign keys
//! `f1: Bids(buyerId) → Buyer(id)` and `f2: Log(buyerId) → Buyer(id)`.
//!
//! Programs (Figure 1/2):
//!
//! * `FindBids := q1; q2` — increment the caller's `Buyer.calls`, then predicate-select all bids
//!   above a threshold.
//! * `PlaceBid := q3; q4; (q5 | ε); q6` — increment `Buyer.calls`, read the buyer's current bid,
//!   conditionally raise it, and append a `Log` entry.
//!
//! Auction(n) replicates the `Bids` relation and both programs per item `i`, keeping `Buyer` and
//! `Log` shared; its summary graph has `3n` nodes and `9n² + 8n` edges (`n` counterflow).

use crate::bundled;
use mvrc_btp::Workload;
use mvrc_btp::{Program, ProgramBuilder};
use mvrc_schema::{Schema, SchemaBuilder};
use std::sync::OnceLock;

/// The Auction workload (Section 2): `{FindBids, PlaceBid}` with the BTPs of Figure 2 and the
/// foreign-key constraints `q3 = f1(q4)`, `q3 = f1(q5)`, `q3 = f2(q6)` of Section 5.1.
pub fn auction() -> Workload {
    static PARSED: OnceLock<Workload> = OnceLock::new();
    bundled(
        &PARSED,
        "Auction",
        include_str!("../../cli/workloads/auction.sql"),
        &[("FindBids", "FB"), ("PlaceBid", "PB")],
    )
}

/// The scalable Auction(n) workload (Section 7.3): one `Bids_i` relation and one
/// `FindBids_i`/`PlaceBid_i` program pair per item `i ∈ 1..=n`. `Auction(1)` is isomorphic to
/// [`auction`] (modulo relation naming).
pub fn auction_n(n: usize) -> Workload {
    assert!(n >= 1, "Auction(n) needs at least one item");
    let mut b = SchemaBuilder::new(format!("Auction({n})"));
    let buyer = b
        .relation("Buyer", &["id", "calls"], &["id"])
        .expect("valid relation");
    let log = b
        .relation("Log", &["id", "buyerId", "bid"], &["id"])
        .expect("valid relation");
    b.foreign_key("f_log", log, &["buyerId"], buyer, &["id"])
        .expect("valid fk");
    let mut bids_names = Vec::with_capacity(n);
    for i in 1..=n {
        let name = format!("Bids{i}");
        let bids = b
            .relation(&name, &["buyerId", "bid"], &["buyerId"])
            .expect("valid relation");
        b.foreign_key(&format!("f_bids{i}"), bids, &["buyerId"], buyer, &["id"])
            .expect("valid fk");
        bids_names.push(name);
    }
    let schema = b.build();

    let mut programs = Vec::with_capacity(2 * n);
    let mut abbreviations = Vec::with_capacity(2 * n);
    for (idx, bids_name) in bids_names.iter().enumerate() {
        let i = idx + 1;
        programs.push(find_bids(&schema, &format!("FindBids{i}"), bids_name));
        programs.push(place_bid(
            &schema,
            &format!("PlaceBid{i}"),
            bids_name,
            &format!("f_bids{i}"),
        ));
        abbreviations.push((format!("FindBids{i}"), format!("FB{i}")));
        abbreviations.push((format!("PlaceBid{i}"), format!("PB{i}")));
    }
    let abbrev_refs: Vec<(&str, &str)> = abbreviations
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    Workload::new(format!("Auction({n})"), schema, programs, &abbrev_refs)
}

/// `FindBids := q1; q2` over the given bids relation.
fn find_bids(schema: &Schema, name: &str, bids_rel: &str) -> Program {
    let mut pb = ProgramBuilder::new(schema, name);
    let q1 = pb
        .key_update("q1", "Buyer", &["calls"], &["calls"])
        .expect("q1");
    let q2 = pb
        .pred_select("q2", bids_rel, &["bid"], &["bid"])
        .expect("q2");
    pb.seq(&[q1.into(), q2.into()]);
    pb.build()
}

/// `PlaceBid := q3; q4; (q5 | ε); q6` over the given bids relation, with the foreign-key
/// constraints of Section 5.1 (`f_log` in the role of `f2`).
fn place_bid(schema: &Schema, name: &str, bids_rel: &str, bids_fk: &str) -> Program {
    let mut pb = ProgramBuilder::new(schema, name);
    let q3 = pb
        .key_update("q3", "Buyer", &["calls"], &["calls"])
        .expect("q3");
    let q4 = pb.key_select("q4", bids_rel, &["bid"]).expect("q4");
    let q5 = pb.key_update("q5", bids_rel, &[], &["bid"]).expect("q5");
    let q6 = pb.insert("q6", "Log").expect("q6");
    pb.seq(&[q3.into(), q4.into()]);
    pb.optional(q5.into());
    pb.push(q6.into());
    pb.fk_constraint(bids_fk, q4, q3).expect("q3 = f(q4)");
    pb.fk_constraint(bids_fk, q5, q3).expect("q3 = f(q5)");
    pb.fk_constraint("f_log", q6, q3).expect("q3 = f(q6)");
    pb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvrc_btp::{unfold_set_le2, StatementKind, StmtId};

    #[test]
    fn auction_matches_figure_2() {
        let w = auction();
        assert_eq!(w.schema.relation_count(), 3);
        assert_eq!(w.schema.foreign_key_count(), 2);
        assert_eq!(w.program_count(), 2);
        let pb = w.program("PlaceBid").unwrap();
        assert_eq!(pb.to_string(), "PlaceBid := q3; q4; (q5 | ε); q6");
        assert_eq!(pb.statement(StmtId(3)).kind(), StatementKind::Insert);
        assert_eq!(pb.fk_constraints().len(), 3);
        assert_eq!(w.abbreviate("PlaceBid"), "PB");
    }

    #[test]
    fn auction_unfolds_into_three_ltps() {
        let w = auction();
        let ltps = unfold_set_le2(&w.programs);
        assert_eq!(ltps.len(), 3);
    }

    #[test]
    fn auction_n_scales_programs_and_relations() {
        let w = auction_n(4);
        assert_eq!(w.program_count(), 8);
        assert_eq!(w.schema.relation_count(), 2 + 4);
        assert_eq!(w.schema.foreign_key_count(), 1 + 4);
        let ltps = unfold_set_le2(&w.programs);
        assert_eq!(ltps.len(), 12);
        assert_eq!(w.abbreviate("PlaceBid3"), "PB3");
    }

    #[test]
    fn auction_1_mirrors_auction() {
        let w1 = auction_n(1);
        let w = auction();
        assert_eq!(w1.program_count(), w.program_count());
        let ltps1 = unfold_set_le2(&w1.programs);
        let ltps = unfold_set_le2(&w.programs);
        assert_eq!(ltps1.len(), ltps.len());
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn auction_0_is_rejected() {
        let _ = auction_n(0);
    }
}
