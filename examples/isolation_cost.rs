//! The cost of serializability: why robustness matters.
//!
//! The paper's motivation is that isolation level MVRC "can be implemented more efficiently
//! than isolation level Serializable": when a workload is *robust*, deploying it under MVRC
//! yields serializable behaviour without paying for the stronger level. This example makes that
//! cost visible on the in-memory engine by driving the same workload mixes, with the same
//! seeds, under read committed, snapshot isolation and serializable certification, and
//! reporting commits, aborts and abort rates.
//!
//! ```text
//! cargo run --release --example isolation_cost
//! ```

use mvrc_engine::{compare_isolation_levels, DriverConfig, ExecutableWorkload, IsolationLevel};

fn print_table(title: &str, stats: &[mvrc_engine::RunStats]) {
    println!("{title}");
    println!("{:-<90}", "");
    println!(
        "{:<22} {:>9} {:>9} {:>12} {:>10} {:>14}",
        "isolation level", "commits", "aborts", "abort rate", "steps", "serializable"
    );
    for s in stats {
        println!(
            "{:<22} {:>9} {:>9} {:>11.1}% {:>10} {:>14}",
            s.isolation.name(),
            s.commits,
            s.total_aborts(),
            s.abort_rate() * 100.0,
            s.steps,
            s.is_serializable()
        );
    }
    println!();
}

fn main() {
    let base = DriverConfig {
        concurrency: 8,
        target_commits: 400,
        seed: 2024,
        ..DriverConfig::default()
    };

    // SmallBank with a hot working set: the full mix is NOT robust against MVRC, so the cheap
    // level occasionally admits anomalies — the price of the cheap level when robustness does
    // not hold.
    let smallbank = ExecutableWorkload::new(&mvrc_repro::benchmarks::smallbank(), 4);
    let stats = compare_isolation_levels(&smallbank, &IsolationLevel::ALL, base);
    print_table(
        "SmallBank, full mix, 4 rows per relation, 8 concurrent transactions",
        &stats,
    );

    // The robust SmallBank subset {Amalgamate, DepositChecking, TransactSavings}: read committed
    // is both the cheapest level *and* serializable — this is the deployment the paper enables.
    let robust_subset = smallbank
        .restrict(&["Amalgamate", "DepositChecking", "TransactSavings"])
        .expect("known program names");
    let stats = compare_isolation_levels(&robust_subset, &IsolationLevel::ALL, base);
    print_table(
        "SmallBank, robust subset {Amalgamate, DepositChecking, TransactSavings}",
        &stats,
    );
    assert!(
        stats[0].is_serializable(),
        "the robust subset must be serializable under read committed"
    );

    // Auction: robust as a whole (the headline result of the running example).
    let auction = ExecutableWorkload::new(&mvrc_repro::benchmarks::auction(), 4);
    let stats = compare_isolation_levels(&auction, &IsolationLevel::ALL, base);
    print_table(
        "Auction {FindBids, PlaceBid}, 4 rows per relation, 8 concurrent transactions",
        &stats,
    );
    assert!(
        stats[0].is_serializable(),
        "Auction is robust: MVRC executions are serializable"
    );

    println!(
        "Reading the tables: the serializable level aborts (and therefore re-executes) far more\n\
         transactions than read committed at the same contention. For workloads the analysis\n\
         attests robust, the read-committed row is serializable anyway — the extra aborts of the\n\
         serializable level buy nothing."
    );
}
