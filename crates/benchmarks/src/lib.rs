//! # mvrc-benchmarks
//!
//! The benchmark workloads evaluated in Section 7 of *"Detecting Robustness against MVRC for
//! Transaction Programs with Predicate Reads"* (EDBT 2023):
//!
//! * [`smallbank`] — the SmallBank banking benchmark (Appendix E.1): 5 linear, key-based
//!   programs; the paper's ground-truth benchmark for false-negative analysis.
//! * [`tpcc`] — TPC-C (Appendix E.2): 9 relations, 12 foreign keys, 5 programs with loops,
//!   branching, inserts, deletes and predicate reads; unfolds into 13 LTPs.
//! * [`auction`] — the running example of Section 2 (FindBids / PlaceBid).
//! * [`auction_n`] — the scalable Auction(n) benchmark of Section 7.3 with `2n` programs.
//! * [`synthetic`] — a reproducible random workload generator used for property-based testing
//!   and ablations.
//! * [`ycsb_t`] — a deterministic YCSB-T-like transactional key-value mix with a
//!   parameterized read-modify-write share, beyond the paper's own benchmarks.
//!
//! The paper's three fixed benchmarks are defined once, in SQL, as the paper writes them: the
//! bundled workload files `crates/cli/workloads/{smallbank,tpcc,auction}.sql`, translated by
//! [`mvrc_btp::sql`]. The translator numbers statements across the whole file (`q1`, `q2`, …
//! continuing from program to program), so the statement names are those of Figures 2, 10
//! and 17. Each file is parsed once per process; every call returns a copy. The generators
//! ([`auction_n`], [`synthetic`], [`ycsb_t`]) build their programs in code.
//!
//! Every workload is returned as a [`Workload`] (the shared value type of [`mvrc_btp`]):
//! schema + programs + unfolding options + the program abbreviations used in the paper's
//! figures.

mod auction;
mod smallbank;
mod synthetic;
mod tpcc;

pub use auction::{auction, auction_n};
pub use mvrc_btp::Workload;
pub use smallbank::smallbank;
pub use synthetic::{synthetic, ycsb_t, SyntheticConfig, YcsbtConfig};
pub use tpcc::tpcc;

use mvrc_btp::sql::parse_workload_file;
use std::sync::OnceLock;

/// All fixed-size benchmarks of the paper (SmallBank, TPC-C, Auction), in the order used by
/// Table 2 and Figures 6/7.
pub fn paper_benchmarks() -> Vec<Workload> {
    vec![smallbank(), tpcc(), auction()]
}

/// A copy of the bundled workload file `text`, named `name` (the paper's names are not all SQL
/// identifiers: `TPC-C`) and carrying the paper's program abbreviations. `parsed` holds the
/// translation, made on the first call.
fn bundled(
    parsed: &'static OnceLock<Workload>,
    name: &str,
    text: &str,
    abbreviations: &[(&str, &str)],
) -> Workload {
    parsed
        .get_or_init(|| {
            let (schema, programs) = parse_workload_file(text)
                .unwrap_or_else(|e| panic!("the bundled {name} file translates: {e}"));
            Workload::new(name, schema, programs, abbreviations)
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_benchmarks_are_in_table_2_order() {
        let names: Vec<String> = paper_benchmarks().into_iter().map(|w| w.name).collect();
        assert_eq!(names, vec!["SmallBank", "TPC-C", "Auction"]);
    }

    #[test]
    fn table_2_workload_characteristics() {
        // Table 2, first three rows: relations, attributes per relation, transaction programs.
        let sb = smallbank();
        assert_eq!(sb.schema.relation_count(), 3);
        assert_eq!(
            (
                sb.min_attributes_per_relation(),
                sb.max_attributes_per_relation()
            ),
            (2, 2)
        );
        assert_eq!(sb.program_count(), 5);

        let tp = tpcc();
        assert_eq!(tp.schema.relation_count(), 9);
        assert_eq!(
            (
                tp.min_attributes_per_relation(),
                tp.max_attributes_per_relation()
            ),
            (3, 21)
        );
        assert_eq!(tp.program_count(), 5);

        let au = auction();
        assert_eq!(au.schema.relation_count(), 3);
        assert_eq!(
            (
                au.min_attributes_per_relation(),
                au.max_attributes_per_relation()
            ),
            (2, 3)
        );
        assert_eq!(au.program_count(), 2);

        let aun = auction_n(10);
        assert_eq!(aun.program_count(), 20);
    }
}
