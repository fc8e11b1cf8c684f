//! The subset sweep by per-subset reconstruction.

use mvrc_btp::LinearProgram;
use mvrc_robustness::{
    is_robust, AnalysisSettings, RobustnessSession, SubsetExploration, SummaryGraph,
    TooManyPrograms,
};

/// Explores every non-empty subset of the session's programs by building the subset's own
/// summary graph (Algorithm 1 over the subset's LTPs) and running the scalar cycle test on it.
///
/// The result has the shape of `mvrc_robustness::explore_subsets`: the same robust and
/// maximal families in the same order, `2^n − 1` cycle tests and nothing pruned or reused.
/// It builds one graph per subset, where the production sweep builds one in all.
///
/// # Panics
///
/// Panics when the session has more than `MAX_SWEEP_PROGRAMS` programs.
pub fn explore_subsets(
    session: &RobustnessSession,
    settings: AnalysisSettings,
) -> SubsetExploration {
    let programs: Vec<String> = session.program_names().to_vec();
    let n = programs.len();
    TooManyPrograms::check(n).unwrap_or_else(|e| panic!("{e}"));

    let ltps_per_program: Vec<Vec<&LinearProgram>> = programs
        .iter()
        .map(|name| {
            session
                .ltps()
                .iter()
                .filter(|l| l.program_name() == name)
                .map(|l| &**l)
                .collect()
        })
        .collect();

    let mut robust: Vec<Vec<usize>> = Vec::new();
    for mask in 1usize..(1 << n) {
        let subset: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        let ltps: Vec<LinearProgram> = subset
            .iter()
            .flat_map(|&i| ltps_per_program[i].iter().map(|l| (*l).clone()))
            .collect();
        let graph = SummaryGraph::construct(&ltps, session.schema(), settings);
        if is_robust(&graph, settings.condition) {
            robust.push(subset);
        }
    }
    robust.sort();

    let maximal = maximal_sets(&robust);
    SubsetExploration {
        programs,
        settings,
        robust,
        maximal,
        cycle_tests: (1 << n) - 1,
        pruned: 0,
        reused: 0,
    }
}

/// Filters a family of sets down to its maximal elements (no other set is a strict superset).
fn maximal_sets(sets: &[Vec<usize>]) -> Vec<Vec<usize>> {
    sets.iter()
        .filter(|candidate| {
            !sets.iter().any(|other| {
                other.len() > candidate.len() && candidate.iter().all(|x| other.contains(x))
            })
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maximal_sets_filters_strict_subsets() {
        let sets = vec![vec![0], vec![0, 1], vec![2], vec![1]];
        let maximal = maximal_sets(&sets);
        assert_eq!(maximal, vec![vec![0, 1], vec![2]]);
    }
}
