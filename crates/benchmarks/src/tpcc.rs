//! The TPC-C benchmark (Appendix E.2 of the paper), translated from the bundled `tpcc.sql`.
//!
//! Nine relations, twelve foreign keys and five transaction programs (Delivery, NewOrder,
//! OrderStatus, Payment, StockLevel), declared in Figure 17's order so that their statements
//! are `q1`–`q29` as in the figure. `Unfold≤2` turns the five BTPs into 13 LTPs (Table 2). The
//! file's header gives the foreign-key constraints each program binds and why.

use crate::bundled;
use mvrc_btp::Workload;
use std::sync::OnceLock;

/// The TPC-C workload: the five programs of Figure 17.
pub fn tpcc() -> Workload {
    static PARSED: OnceLock<Workload> = OnceLock::new();
    bundled(
        &PARSED,
        "TPC-C",
        include_str!("../../cli/workloads/tpcc.sql"),
        &[
            ("Delivery", "Del"),
            ("NewOrder", "NO"),
            ("OrderStatus", "OS"),
            ("Payment", "Pay"),
            ("StockLevel", "SL"),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvrc_btp::{unfold_set_le2, StatementKind};

    #[test]
    fn schema_matches_appendix_e2() {
        let schema = tpcc().schema;
        assert_eq!(schema.relation_count(), 9);
        assert_eq!(schema.foreign_key_count(), 12);
        let attr_counts: Vec<usize> = schema.relations().map(|r| r.attribute_count()).collect();
        assert_eq!(*attr_counts.iter().min().unwrap(), 3);
        assert_eq!(*attr_counts.iter().max().unwrap(), 21);
        assert_eq!(
            schema
                .relation_by_name("Customer")
                .unwrap()
                .attribute_count(),
            21
        );
        assert_eq!(
            schema
                .relation_by_name("New_Order")
                .unwrap()
                .attribute_count(),
            3
        );
    }

    #[test]
    fn five_programs_unfold_into_thirteen_ltps() {
        let w = tpcc();
        assert_eq!(w.program_count(), 5);
        let ltps = unfold_set_le2(&w.programs);
        assert_eq!(
            ltps.len(),
            13,
            "Table 2: TPC-C has 13 unfolded transaction programs"
        );
        // Per-program unfolding counts: NewOrder 3, Payment 4, OrderStatus 2, Delivery 3,
        // StockLevel 1.
        let count = |name: &str| ltps.iter().filter(|l| l.program_name() == name).count();
        assert_eq!(count("NewOrder"), 3);
        assert_eq!(count("Payment"), 4);
        assert_eq!(count("OrderStatus"), 2);
        assert_eq!(count("Delivery"), 3);
        assert_eq!(count("StockLevel"), 1);
    }

    #[test]
    fn statement_details_match_figure_17() {
        let w = tpcc();
        let schema = &w.schema;
        let customer = schema.relation_by_name("Customer").unwrap();
        let district = schema.relation_by_name("District").unwrap();

        let payment = w.program("Payment").unwrap();
        let q23 = payment
            .statements()
            .find(|(_, s)| s.name() == "q23")
            .unwrap()
            .1;
        assert_eq!(q23.kind(), StatementKind::KeyUpdate);
        assert_eq!(q23.rel(), customer.id());
        assert_eq!(q23.write_set().unwrap().len(), 3);
        assert_eq!(q23.read_set().unwrap().len(), 15);

        let new_order = w.program("NewOrder").unwrap();
        let q10 = new_order
            .statements()
            .find(|(_, s)| s.name() == "q10")
            .unwrap()
            .1;
        assert_eq!(q10.rel(), district.id());
        assert_eq!(
            q10.write_set(),
            Some(mvrc_schema::AttrSet::singleton(
                district.attr_by_name("d_next_o_id").unwrap()
            ))
        );
        let q14 = new_order
            .statements()
            .find(|(_, s)| s.name() == "q14")
            .unwrap()
            .1;
        assert_eq!(q14.read_set().unwrap().len(), 15);
        assert_eq!(q14.write_set().unwrap().len(), 4);

        let delivery = w.program("Delivery").unwrap();
        let q5 = delivery
            .statements()
            .find(|(_, s)| s.name() == "q5")
            .unwrap()
            .1;
        assert_eq!(q5.kind(), StatementKind::PredUpdate);
        assert_eq!(q5.pread_set().unwrap().len(), 3);
        assert_eq!(q5.write_set().unwrap().len(), 1);

        let stock_level = w.program("StockLevel").unwrap();
        for (_, s) in stock_level.statements() {
            assert!(!s.kind().writes(), "StockLevel is read-only");
        }
    }

    #[test]
    fn control_flow_matches_figure_17() {
        let w = tpcc();
        assert_eq!(
            w.program("Delivery").unwrap().to_string(),
            "Delivery := loop(q1; q2; q3; q4; q5; q6; q7)"
        );
        assert_eq!(
            w.program("NewOrder").unwrap().to_string(),
            "NewOrder := q8; q9; q10; q11; q12; loop(q13; q14; q15)"
        );
        assert_eq!(
            w.program("OrderStatus").unwrap().to_string(),
            "OrderStatus := (q16 | q17); q18; q19"
        );
        assert_eq!(
            w.program("Payment").unwrap().to_string(),
            "Payment := q20; q21; (q22 | ε); q23; (q24; q25 | ε); q26"
        );
        assert_eq!(
            w.program("StockLevel").unwrap().to_string(),
            "StockLevel := q27; q28; q29"
        );
    }

    #[test]
    fn abbreviations_match_the_paper() {
        let w = tpcc();
        assert_eq!(w.abbreviate("NewOrder"), "NO");
        assert_eq!(w.abbreviate("Payment"), "Pay");
        assert_eq!(w.abbreviate("OrderStatus"), "OS");
        assert_eq!(w.abbreviate("Delivery"), "Del");
        assert_eq!(w.abbreviate("StockLevel"), "SL");
    }
}
