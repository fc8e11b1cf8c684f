//! The SmallBank benchmark (Appendix E.1 of the paper), translated from the bundled
//! `smallbank.sql`.
//!
//! Schema: `Account(Name, CustomerId)`, `Savings(CustomerId, Balance)`,
//! `Checking(CustomerId, Balance)`; `Account(CustomerId)` references both
//! `Savings(CustomerId)` and `Checking(CustomerId)`.
//!
//! Five programs (Figure 9/10), all of them linear and key-based only — the fragment for which
//! the earlier work `[46]` gives a complete characterization, making SmallBank the paper's
//! ground-truth benchmark for false-negative analysis.

use crate::bundled;
use mvrc_btp::Workload;
use std::sync::OnceLock;

/// The SmallBank workload: `{Amalgamate, Balance, DepositChecking, TransactSavings, WriteCheck}`
/// as in Figure 10 of the paper (statement numbering included).
pub fn smallbank() -> Workload {
    static PARSED: OnceLock<Workload> = OnceLock::new();
    bundled(
        &PARSED,
        "SmallBank",
        include_str!("../../cli/workloads/smallbank.sql"),
        &[
            ("Amalgamate", "Am"),
            ("Balance", "Bal"),
            ("DepositChecking", "DC"),
            ("TransactSavings", "TS"),
            ("WriteCheck", "WC"),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvrc_btp::{unfold_set_le2, StatementKind};

    #[test]
    fn schema_matches_appendix_e1() {
        let schema = smallbank().schema;
        assert_eq!(schema.relation_count(), 3);
        assert_eq!(schema.foreign_key_count(), 2);
        for rel in schema.relations() {
            assert_eq!(rel.attribute_count(), 2);
        }
    }

    #[test]
    fn five_linear_programs_with_figure_10_statement_counts() {
        let w = smallbank();
        assert_eq!(w.program_count(), 5);
        let expected = [
            ("Amalgamate", 5),
            ("Balance", 3),
            ("DepositChecking", 2),
            ("TransactSavings", 2),
            ("WriteCheck", 4),
        ];
        for (name, count) in expected {
            let p = w.program(name).unwrap();
            assert_eq!(p.statement_count(), count, "statement count of {name}");
            assert!(p.is_linear(), "{name} must be linear");
        }
        // No inserts, deletes or predicate-based statements anywhere (Section 7.1).
        for p in &w.programs {
            for (_, s) in p.statements() {
                assert!(matches!(
                    s.kind(),
                    StatementKind::KeySelect | StatementKind::KeyUpdate
                ));
            }
        }
    }

    #[test]
    fn unfolding_is_the_identity_for_smallbank() {
        let w = smallbank();
        let ltps = unfold_set_le2(&w.programs);
        assert_eq!(ltps.len(), 5);
    }

    #[test]
    fn abbreviations_match_the_paper() {
        let w = smallbank();
        assert_eq!(w.abbreviate("Amalgamate"), "Am");
        assert_eq!(w.abbreviate("Balance"), "Bal");
        assert_eq!(w.abbreviate("DepositChecking"), "DC");
        assert_eq!(w.abbreviate("TransactSavings"), "TS");
        assert_eq!(w.abbreviate("WriteCheck"), "WC");
    }
}
