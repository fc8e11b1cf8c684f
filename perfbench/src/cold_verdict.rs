//! `cold-verdict`: the in-process equivalent of `mvrc analyze <file>`, one workload file per
//! operation from a fresh start — SQL parse, `RobustnessSession::new` (`Unfold≤2`), Algorithm 1,
//! the CSR/closure derivation and the cycle test. Nothing is cached across operations.
//!
//! Inputs: Auction(n) workload files for n = 10, 19, …, 91, 100 (the seed shuffles the items of
//! each file), and the bundled `smallbank.sql` and `shop.sql`, in a fixed order.

use mvrc_btp::{sql::parse_workload_file, Workload};
use mvrc_robustness::{AnalysisSettings, RobustnessSession};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::report::{run_cycles, Report, Setup};
use crate::trace::Tracer;
use crate::Ctx;

const SMALLBANK_SQL: &str = include_str!("../../crates/cli/workloads/smallbank.sql");
const SHOP_SQL: &str = include_str!("../../crates/cli/workloads/shop.sql");

/// One workload file and the answer it must produce.
struct Input {
    text: String,
    robust: bool,
    programs: usize,
    /// `(nodes, edges)` of the summary graph, when known in closed form.
    shape: Option<(usize, usize)>,
}

/// The Auction(n) workload of Section 7.3 as a workload file: one `Bids<i>` relation and one
/// `FindBids<i>`/`PlaceBid<i>` pair per item, the item order shuffled by `rng`.
fn auction_sql(n: usize, rng: &mut StdRng) -> String {
    let mut items: Vec<usize> = (1..=n).collect();
    items.shuffle(rng);
    let mut sql = format!(
        "SCHEMA Auction{n};\n\
         TABLE Buyer (id, calls, PRIMARY KEY (id));\n\
         TABLE Log (id, buyerId, bid, PRIMARY KEY (id));\n\
         FOREIGN KEY f_log: Log (buyerId) REFERENCES Buyer (id);\n"
    );
    for &i in &items {
        sql.push_str(&format!(
            "TABLE Bids{i} (buyerId, bid, PRIMARY KEY (buyerId));\n\
             FOREIGN KEY f_bids{i}: Bids{i} (buyerId) REFERENCES Buyer (id);\n"
        ));
    }
    for &i in &items {
        sql.push_str(&auction_programs(i));
    }
    sql
}

/// The `FindBids<i>` and `PlaceBid<i>` programs of Auction(n).
fn auction_programs(i: usize) -> String {
    format!(
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
    )
}

fn inputs(ctx: &Ctx) -> Vec<Input> {
    let e = &ctx.expected;
    let auction = ["cold-verdict", "auction_n"];
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 1);
    // Fixed sizes and a fixed order: a cycle's work grows with n², so drawing n moved the
    // timings from seed to seed by more than their bounds allow, and the peak resident set
    // depended on the order of the inputs (heap fragmentation), by up to 15 %. Eleven sizes
    // keep a cycle near 0.3 s, so a window (see `report`) is one or two cycles, and with the two
    // bundled files make an odd count of inputs, so the median lies inside one input's
    // latencies rather than between two.
    let mut inputs: Vec<Input> = (0..11)
        .map(|k| 10 + 9 * k)
        .map(|n| Input {
            text: auction_sql(n, &mut rng),
            robust: e.bool(&[auction[0], auction[1], "robust"]),
            programs: 2 * n,
            shape: Some((
                e.count(&[auction[0], auction[1], "nodes_per_n"]) * n,
                e.count(&[auction[0], auction[1], "edges_per_n"]) * n
                    + e.count(&[auction[0], auction[1], "edges_per_n_squared"]) * n * n,
            )),
        })
        .collect();
    for (file, text) in [("smallbank.sql", SMALLBANK_SQL), ("shop.sql", SHOP_SQL)] {
        let key = ["cold-verdict", "bundled", file];
        inputs.push(Input {
            text: text.to_string(),
            robust: e.bool(&[key[0], key[1], key[2], "robust"]),
            programs: e.count(&[key[0], key[1], key[2], "programs"]),
            shape: None,
        });
    }
    inputs
}

/// What one cold analysis produced.
struct Verdict {
    robust: bool,
    programs: usize,
    nodes: usize,
    edges: usize,
}

fn analyze(text: &str, t: &mut Tracer) -> Result<Verdict, String> {
    let settings = AnalysisSettings::paper_default();
    let (schema, programs) = t
        .span("btp.sql.parse", |_| parse_workload_file(text))
        .map_err(|e| format!("parse: {e}"))?;
    let statements: usize = programs.iter().map(|p| p.statement_count()).sum();
    t.count("btp.sql.statements", statements as f64);
    let program_count = programs.len();
    let name = schema.name().to_string();
    let workload = Workload::new(name, schema, programs, &[]);
    let session = t.span("btp.unfold", |_| RobustnessSession::new(workload));
    t.count("btp.unfold.ltps", session.ltps().len() as f64);
    let graph = t.span("core.summary.construct", |_| session.graph(settings));
    t.count("core.summary.edges", graph.edge_count() as f64);
    let words = t.span("core.kernels.derive", |_| {
        graph.reachability_words().1.len()
    });
    t.count("core.kernels.closure_words", words as f64);
    let report = t.span("core.algorithm.cycle_test", |_| session.analyze(settings));
    Ok(Verdict {
        robust: report.is_robust(),
        programs: program_count,
        nodes: report.node_count,
        edges: report.edge_count,
    })
}

fn check(input: &Input, got: &Verdict) -> Result<(), String> {
    let label = input.text.lines().next().unwrap_or_default();
    if got.robust != input.robust || got.programs != input.programs {
        return Err(format!(
            "{label}: robust={} programs={}, expected robust={} programs={}",
            got.robust, got.programs, input.robust, input.programs
        ));
    }
    match input.shape {
        Some(shape) if shape != (got.nodes, got.edges) => Err(format!(
            "{label}: summary graph {:?}, expected {shape:?}",
            (got.nodes, got.edges)
        )),
        _ => Ok(()),
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut tracer = Tracer::new(0);
    let mut setup = Setup::new(|_: &mut Tracer| inputs(ctx));
    let inputs = setup.sample(ctx, &mut tracer);
    let pause = |t: &mut Tracer| drop(setup.sample(ctx, t));
    let result = run_cycles(ctx, &mut tracer, inputs.len(), 200.0, pause, |i, t| {
        let input = &inputs[i];
        let verdict = t.op(i, |t| analyze(&input.text, t))?;
        check(input, &verdict)
    });
    Report {
        setup_s: setup.samples,
        run: result,
        tracer,
        extra: Default::default(),
        // A 25 s run holds 500 to 1700 operations, so p90 always has 10 beyond it; it lies
        // inside the latencies of Auction(91), the second largest input.
        tail_cap: 90.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_auction_matches_the_closed_form() {
        for n in [1, 4, 10] {
            let text = auction_sql(n, &mut StdRng::seed_from_u64(n as u64));
            let verdict = analyze(&text, &mut Tracer::new(0)).unwrap();
            assert!(verdict.robust);
            assert_eq!(verdict.programs, 2 * n);
            assert_eq!((verdict.nodes, verdict.edges), (3 * n, 8 * n + 9 * n * n));
        }
    }

    #[test]
    fn a_wrong_expected_answer_counts_as_a_failure() {
        // Every verdict flipped, so whichever input comes first meets a wrong answer.
        let planted = crate::expected::BUILTIN
            .replace("true", "TRUE")
            .replace("false", "true")
            .replace("TRUE", "false");
        let ctx = Ctx {
            seed: 7,
            seconds: 0.05,
            trace: false,
            expected: crate::expected::Expected::parse(&planted),
            work_dir: std::env::temp_dir(),
        };
        let report = run(&ctx);
        let f = &report.run.failures;
        assert!(f.attempted >= 1);
        assert_eq!(f.failed, f.attempted, "{:?}", f.messages);
    }
}
