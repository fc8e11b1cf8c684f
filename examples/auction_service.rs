//! The auction service of Section 2 of the paper, end to end: SQL text in, robustness verdict
//! and Graphviz summary graph out. This is the paper's headline example — the workload contains
//! a type-I cycle (so the older analysis rejects it) but no type-II cycle (so Algorithm 2 proves
//! it safe under MVRC).
//!
//! ```text
//! cargo run --example auction_service
//! cargo run --example auction_service > auction.dot   # pipe the DOT graph into Graphviz
//! ```

use mvrc_repro::prelude::*;
use mvrc_repro::robustness::{find_type1_violation, find_type2_violation, to_dot, DotOptions};

fn main() {
    // The schema and the SQL programs of Figure 1, as the bundled workload file writes them.
    // Translation turns the programs into basic transaction programs and infers foreign-key
    // constraints from host-parameter reuse (e.g. both the Buyer update and the Bids lookup
    // use :B).
    let (schema, programs) =
        parse_workload_file(include_str!("../crates/cli/workloads/auction.sql"))
            .expect("the auction SQL parses");
    println!("-- schema -------------------------------------------------------------");
    println!("{schema}");
    println!();

    println!("-- basic transaction programs ------------------------------------------");
    for p in &programs {
        println!(
            "{p}   ({} foreign-key constraints)",
            p.fk_constraints().len()
        );
    }
    println!();

    let session = RobustnessSession::from_programs(&schema, &programs);
    let ltps = session.ltps();
    println!("-- Unfold≤2 -------------------------------------------------------------");
    for ltp in ltps {
        println!("{ltp}");
    }
    println!();

    let graph = session.graph(AnalysisSettings::paper_default());
    println!("-- summary graph (Algorithm 1) -------------------------------------------");
    println!(
        "{} nodes, {} edges ({} counterflow)",
        graph.node_count(),
        graph.edge_count(),
        graph.counterflow_edge_count()
    );
    println!();

    println!("-- robustness (Algorithm 2 vs. the type-I baseline) -----------------------");
    match find_type1_violation(&graph) {
        Some(witness) => println!(
            "type-I condition:  cycle found through {} => cannot attest robustness",
            graph.describe_edge(&witness.counterflow_edge)
        ),
        None => println!("type-I condition:  no dangerous cycle"),
    }
    match find_type2_violation(&graph) {
        Some(_) => println!("type-II condition: cycle found => cannot attest robustness"),
        None => println!(
            "type-II condition: no type-II cycle => {{FindBids, PlaceBid}} is robust against MVRC"
        ),
    }
    println!();

    println!("-- Figure 4 as Graphviz DOT ----------------------------------------------");
    println!("{}", to_dot(&graph, DotOptions::default()));
}
