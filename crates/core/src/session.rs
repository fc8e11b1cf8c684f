//! The stateful analysis session: one [`Workload`], one lazily-built summary graph per
//! settings combination, every query answered through views of the cached graphs. See
//! [`RobustnessSession`] for the design and a worked SmallBank example.

use crate::algorithm::RobustnessOutcome;
use crate::analysis::AnalysisReport;
use crate::settings::{AnalysisSettings, CycleCondition, Granularity};
use crate::summary::{SummaryGraph, UnknownProgram};
use mvrc_btp::{unfold, LinearProgram, Program, Workload};
use mvrc_schema::Schema;
use std::sync::{Arc, OnceLock};

/// Cache key for the summary-graph cache: the graph shape depends only on the dependency
/// granularity and the foreign-key switch, so the type-I and type-II conditions share a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GraphKey {
    granularity: Granularity,
    use_foreign_keys: bool,
}

impl From<AnalysisSettings> for GraphKey {
    fn from(settings: AnalysisSettings) -> Self {
        GraphKey {
            granularity: settings.granularity,
            use_foreign_keys: settings.use_foreign_keys,
        }
    }
}

/// The key domain is exactly `2 granularities × 2 foreign-key switches`, so the graph cache is
/// a fixed array of [`OnceLock`] slots instead of a locked map: a query under an
/// already-built combination is one atomic acquire-load plus an `Arc` bump — **lock-free** —
/// which is what lets many `mvrc-serve` reader threads share one session with no
/// reader/reader or reader/writer convoy on the hot path.
const GRAPH_SLOTS: usize = 4;

impl GraphKey {
    /// Slot index; the order (attribute before tuple granularity, no-FK before FK) is the
    /// deterministic order [`RobustnessSession::cached_graphs`] reports.
    fn slot(self) -> usize {
        (matches!(self.granularity, Granularity::Tuple) as usize) * 2
            + self.use_foreign_keys as usize
    }
}

/// A stateful robustness-analysis session over one workload.
///
/// The session is the primary entry point of this crate. Construction unfolds the workload's
/// BTPs once; the first query under a given granularity/foreign-key combination runs
/// Algorithm 1 once and caches the resulting [`SummaryGraph`]; every further query —
/// [`analyze`](Self::analyze), [`analyze_programs`](Self::analyze_programs),
/// [`is_robust`](Self::is_robust) and the subset sweeps of [`crate::explore_subsets`] — runs
/// on a cached graph (a full-graph view, a cheap [`InducedView`](crate::InducedView) or a
/// bit-sliced lane batch), never a reconstruction. Workload edits ([`add_program`](Self::add_program) /
/// [`remove_program`](Self::remove_program)) update every cached graph incrementally,
/// re-deriving only the Algorithm 1 edge rows that touch changed nodes.
///
/// Cloning a session clones the workload and LTPs and *shares* all cached graphs (each slot is
/// an `Arc` bump; a later incremental edit on either copy un-shares the touched graphs via
/// `Arc::make_mut`). This is what makes the `mvrc-serve` edit path cheap: the writer clones the
/// published session, applies the incremental edit to the clone, and atomically publishes it
/// while readers keep querying the old `Arc`s.
///
/// # Worked example: SmallBank
///
/// The SmallBank benchmark (Appendix E.1 of the paper) has five programs; the full mix is not
/// robust, but several subsets are (Figure 6). A session answers all of those questions from a
/// single summary graph per setting:
///
/// ```
/// use mvrc_benchmarks::smallbank;
/// use mvrc_robustness::{AnalysisSettings, RobustnessSession};
///
/// let mut session = RobustnessSession::new(smallbank());
/// let settings = AnalysisSettings::paper_default();
///
/// // Builds the summary graph for `attr dep + FK` (Algorithm 1), runs Algorithm 2.
/// assert!(!session.is_robust(settings));
///
/// // Answered on an induced view of the *same* cached graph — no reconstruction.
/// let subset = session
///     .analyze_programs(&["Amalgamate", "DepositChecking", "TransactSavings"], settings)
///     .unwrap();
/// assert!(subset.is_robust());
///
/// // Unknown names are an error, not a silently smaller subset.
/// assert!(session.analyze_programs(&["Blance"], settings).is_err());
///
/// // Each removal updates the cached graph incrementally. Dropping WriteCheck alone is not
/// // enough ({Am, Bal, DC, TS} is still rejected); dropping Balance too flips the verdict.
/// session.remove_program("WriteCheck").unwrap();
/// assert!(!session.is_robust(settings));
/// session.remove_program("Balance").unwrap();
/// assert!(session.is_robust(settings));
/// ```
#[derive(Debug, Clone)]
pub struct RobustnessSession {
    workload: Workload,
    program_names: Vec<String>,
    /// The unfolded LTPs, `Arc`-shared with the nodes of the attribute-granularity graphs.
    ltps: Vec<Arc<LinearProgram>>,
    /// One slot per granularity/foreign-key combination ([`GraphKey::slot`]); built on first
    /// use, then read lock-free (an [`OnceLock`] read is a single atomic acquire-load).
    cache: [OnceLock<Arc<SummaryGraph>>; GRAPH_SLOTS],
}

impl RobustnessSession {
    /// Opens a session over a workload; the BTPs are unfolded once using the workload's
    /// unfolding options (`Unfold≤2` unless overridden via
    /// [`Workload::with_unfold_options`]).
    pub fn new(workload: Workload) -> Self {
        let program_names = workload
            .programs
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        let ltps = workload.unfolded().into_iter().map(Arc::new).collect();
        RobustnessSession {
            workload,
            program_names,
            ltps,
            cache: Default::default(),
        }
    }

    /// Convenience constructor for call sites that have a schema and programs but no workload
    /// wrapper: the workload is named after the schema and uses default unfolding.
    pub fn from_programs(schema: &Schema, programs: &[Program]) -> Self {
        Self::new(Workload::new(
            schema.name(),
            schema.clone(),
            programs.to_vec(),
            &[],
        ))
    }

    /// The workload this session analyzes.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The workload's schema.
    pub fn schema(&self) -> &Schema {
        &self.workload.schema
    }

    /// Names of the analyzed programs (application-level BTPs), in workload order.
    pub fn program_names(&self) -> &[String] {
        &self.program_names
    }

    /// The unfolded LTPs, in program order.
    pub fn ltps(&self) -> &[Arc<LinearProgram>] {
        &self.ltps
    }

    /// Number of summary graphs currently cached (one per granularity/foreign-key combination
    /// queried so far).
    pub fn cached_graph_count(&self) -> usize {
        self.cache
            .iter()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// The summary graphs currently cached, in a deterministic order (attribute before tuple
    /// granularity, no-FK before FK — the slot order). This is the serialization hook of the
    /// `mvrc-dist` snapshot layer: persisting these graphs lets a reopened session answer
    /// queries without re-running any Algorithm 1 edge derivation.
    pub fn cached_graphs(&self) -> Vec<Arc<SummaryGraph>> {
        self.cache
            .iter()
            .filter_map(|slot| slot.get().cloned())
            .collect()
    }

    /// Caches `graphs`, each under its own granularity/foreign-key combination, so queries
    /// against those combinations run no Algorithm 1 edge derivation — the deserialization
    /// hook of the `mvrc-dist` snapshot layer.
    ///
    /// Every graph must be a summary graph over this session's LTPs, as
    /// [`SummaryGraph::from_snapshot_parts`] reassembles them from [`Self::ltps`].
    ///
    /// # Panics
    ///
    /// Panics when a graph's node count differs from the session's LTP count.
    pub fn with_cached_graphs(mut self, graphs: impl IntoIterator<Item = SummaryGraph>) -> Self {
        for graph in graphs {
            assert_eq!(
                graph.node_count(),
                self.ltps.len(),
                "with_cached_graphs: a graph over another LTP list"
            );
            let slot = GraphKey::from(graph.settings()).slot();
            // A later entry for the same combination wins (snapshots never repeat one).
            self.cache[slot] = OnceLock::from(Arc::new(graph));
        }
        self
    }

    /// The summary graph for the given settings: built by Algorithm 1 on first use, cached and
    /// shared afterwards. The graph shape only depends on `granularity` and
    /// `use_foreign_keys`, so settings differing only in the cycle condition share one graph;
    /// the cached graph's own [`settings()`](SummaryGraph::settings) therefore always carries
    /// the canonical type-II condition (independent of which query arrived first), and the
    /// requested condition is applied per query instead.
    pub fn graph(&self, settings: AnalysisSettings) -> Arc<SummaryGraph> {
        let key = GraphKey::from(settings);
        Arc::clone(self.cache[key.slot()].get_or_init(|| {
            let canonical = AnalysisSettings {
                granularity: key.granularity,
                use_foreign_keys: key.use_foreign_keys,
                condition: CycleCondition::TypeII,
            };
            Arc::new(SummaryGraph::construct(
                &self.ltps,
                &self.workload.schema,
                canonical,
            ))
        }))
    }

    /// Runs the full analysis (cached Algorithm 1 graph + cycle test) under the given settings.
    pub fn analyze(&self, settings: AnalysisSettings) -> AnalysisReport {
        AnalysisReport::from_graph(&self.graph(settings), settings)
    }

    /// Runs the analysis for a subset of the programs, on an induced view of the cached graph.
    ///
    /// Returns [`UnknownProgram`] when a requested name matches none of the workload's
    /// programs.
    pub fn analyze_programs(
        &self,
        program_names: &[&str],
        settings: AnalysisSettings,
    ) -> Result<AnalysisReport, UnknownProgram> {
        let graph = self.graph(settings);
        let view = graph.induced_for_programs(program_names)?;
        Ok(AnalysisReport::from_view(&view, settings))
    }

    /// Convenience: is the complete workload attested robust under the given settings?
    pub fn is_robust(&self, settings: AnalysisSettings) -> bool {
        RobustnessOutcome::evaluate(&self.graph(settings), settings.condition).robust
    }

    /// Adds a program to the workload.
    ///
    /// The program is unfolded with the session's unfolding options and every cached summary
    /// graph is extended **incrementally**: only the Algorithm 1 edge rows touching the new
    /// LTP nodes are derived; existing rows are reused as-is.
    ///
    /// # Panics
    ///
    /// Panics when a program with the same name already exists (remove it first).
    pub fn add_program(&mut self, program: Program) {
        assert!(
            !self.program_names.iter().any(|n| n == program.name()),
            "add_program: a program named `{}` already exists in the session",
            program.name()
        );
        let new_ltps: Vec<Arc<LinearProgram>> = unfold(&program, self.workload.unfold)
            .into_iter()
            .map(Arc::new)
            .collect();
        self.program_names.push(program.name().to_string());
        self.workload.programs.push(program);
        for slot in &mut self.cache {
            if let Some(graph) = slot.get_mut() {
                Arc::make_mut(graph).add_ltps(&new_ltps, &self.workload.schema);
            }
        }
        self.ltps.extend(new_ltps);
    }

    /// Removes a program from the workload.
    ///
    /// Every cached summary graph drops the program's LTP nodes (and all edges touching them)
    /// without re-running any Algorithm 1 edge derivation — edges are pairwise, so the
    /// surviving rows are exactly the rows between surviving nodes.
    pub fn remove_program(&mut self, name: &str) -> Result<(), UnknownProgram> {
        if !self.program_names.iter().any(|n| n == name) {
            return Err(UnknownProgram {
                name: name.to_string(),
                known: self.program_names.clone(),
            });
        }
        let node_ids: Vec<usize> = self
            .ltps
            .iter()
            .enumerate()
            .filter(|(_, l)| l.program_name() == name)
            .map(|(id, _)| id)
            .collect();
        for slot in &mut self.cache {
            if let Some(graph) = slot.get_mut() {
                Arc::make_mut(graph).remove_nodes(&node_ids);
            }
        }
        self.ltps.retain(|l| l.program_name() != name);
        self.program_names.retain(|n| n != name);
        self.workload.programs.retain(|p| p.name() != name);
        Ok(())
    }

    /// Replaces a program with an edited version of the same name, updating every cached
    /// summary graph incrementally (a [`remove_program`](Self::remove_program) followed by an
    /// [`add_program`](Self::add_program)).
    ///
    /// This is the entry point for *program-edit searches* such as the promotion-repair pass of
    /// `mvrc-lint`, which repeatedly swaps single programs in and out of a session while keeping
    /// the untouched nodes' Algorithm 1 rows.
    pub fn replace_program(&mut self, program: Program) -> Result<(), UnknownProgram> {
        self.remove_program(program.name())?;
        self.add_program(program);
        Ok(())
    }
}

// Compile-time `Send`/`Sync` audit: the serve daemon shares `Arc<RobustnessSession>`s (and
// through them `Arc<SummaryGraph>`s, warm-opened from snapshots or built fresh) across reader
// threads. A session field regressing to a non-`Sync` type must fail compilation here, not in
// a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RobustnessSession>();
    assert_send_sync::<SummaryGraph>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::CycleCondition;
    use mvrc_btp::ProgramBuilder;
    use mvrc_schema::SchemaBuilder;

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new("s");
        b.relation("Bids", &["buyerId", "bid"], &["buyerId"])
            .unwrap();
        b.build()
    }

    fn reader(schema: &Schema) -> Program {
        let mut pb = ProgramBuilder::new(schema, "Reader");
        let q = pb.key_select("qr", "Bids", &["bid"]).unwrap();
        pb.push(q.into());
        pb.build()
    }

    fn read_then_write(schema: &Schema) -> Program {
        let mut pb = ProgramBuilder::new(schema, "ReadThenWrite");
        let qr = pb.key_select("qr", "Bids", &["bid"]).unwrap();
        let qw = pb.key_update("qw", "Bids", &["bid"], &["bid"]).unwrap();
        pb.seq(&[qr.into(), qw.into()]);
        pb.build()
    }

    #[test]
    fn graphs_are_cached_per_granularity_fk_combination() {
        let schema = schema();
        let session = RobustnessSession::from_programs(&schema, &[reader(&schema)]);
        let before = SummaryGraph::constructions_on_current_thread();
        for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
            for settings in AnalysisSettings::evaluation_grid(condition) {
                session.analyze(settings);
                session.is_robust(settings);
            }
        }
        // 8 settings, but only 4 distinct granularity/FK combinations.
        assert_eq!(SummaryGraph::constructions_on_current_thread() - before, 4);
        assert_eq!(session.cached_graph_count(), 4);
    }

    #[test]
    fn incremental_edits_keep_cached_graphs_consistent() {
        let schema = schema();
        let settings = AnalysisSettings::paper_default();
        let mut session = RobustnessSession::from_programs(&schema, &[reader(&schema)]);
        assert!(session.is_robust(settings));

        let before = SummaryGraph::constructions_on_current_thread();
        session.add_program(read_then_write(&schema));
        assert_eq!(
            SummaryGraph::constructions_on_current_thread(),
            before,
            "add_program must extend the cached graph, not rebuild it"
        );
        assert!(!session.is_robust(settings));

        let fresh = RobustnessSession::from_programs(&schema, &session.workload().programs);
        assert_eq!(
            session.graph(settings).edge_count(),
            fresh.graph(settings).edge_count()
        );

        session.remove_program("ReadThenWrite").unwrap();
        assert!(session.is_robust(settings));
        assert_eq!(session.program_names(), &["Reader".to_string()]);
        assert!(session.remove_program("Nope").is_err());
    }

    #[test]
    fn snapshot_parts_round_trip_without_rebuilding() {
        let schema = schema();
        let session =
            RobustnessSession::from_programs(&schema, &[reader(&schema), read_then_write(&schema)]);
        for settings in AnalysisSettings::evaluation_grid(CycleCondition::TypeII) {
            session.analyze(settings);
        }
        let graphs: Vec<SummaryGraph> = session
            .cached_graphs()
            .iter()
            .map(|g| {
                let (_, bits) = g.reachability_words();
                SummaryGraph::from_snapshot_parts(
                    session.ltps(),
                    &schema,
                    g.settings(),
                    g.edges().to_vec(),
                    bits.to_vec(),
                )
                .unwrap()
            })
            .collect();
        assert_eq!(graphs.len(), 4);

        let before = SummaryGraph::constructions_on_current_thread();
        let closures_before = SummaryGraph::closures_computed_on_current_thread();
        let reopened =
            RobustnessSession::new(session.workload().clone()).with_cached_graphs(graphs);
        assert_eq!(reopened.cached_graph_count(), 4);
        assert_eq!(reopened.program_names(), session.program_names());
        for settings in AnalysisSettings::evaluation_grid(CycleCondition::TypeII) {
            assert_eq!(reopened.is_robust(settings), session.is_robust(settings));
            assert_eq!(
                *reopened.graph(settings),
                *session.graph(settings),
                "cached graphs must round-trip bit-identically"
            );
        }
        assert_eq!(
            SummaryGraph::constructions_on_current_thread(),
            before,
            "reassembly and cached queries must not construct graphs"
        );
        assert_eq!(
            SummaryGraph::closures_computed_on_current_thread(),
            closures_before,
            "reassembly and cached queries must not compute closures"
        );
    }

    #[test]
    fn clone_carries_the_cache() {
        let schema = schema();
        let session = RobustnessSession::from_programs(&schema, &[reader(&schema)]);
        session.analyze(AnalysisSettings::paper_default());
        let cloned = session.clone();
        assert_eq!(cloned.cached_graph_count(), 1);
        let before = SummaryGraph::constructions_on_current_thread();
        assert!(cloned.is_robust(AnalysisSettings::paper_default()));
        assert_eq!(SummaryGraph::constructions_on_current_thread(), before);
    }
}
