//! A metamorphic relation of the analysis: adding a renamed copy of a program that is already
//! in a subset never changes the subset's verdict. The summary graph already has the edges
//! between two instances of one LTP (Algorithm 1 pairs every node with itself), so the copy
//! adds no cycle shape the subset did not have.

use mvrc_robustness::{AnalysisSettings, CycleCondition, Granularity, RobustnessSession};

#[test]
fn a_renamed_copy_of_a_member_keeps_every_subset_verdict() {
    let mut pairs = 0;
    for workload in [mvrc_benchmarks::smallbank(), mvrc_benchmarks::tpcc()] {
        let names: Vec<&str> = workload.programs.iter().map(|p| p.name()).collect();
        for (at, program) in workload.programs.iter().enumerate() {
            let copy_name = format!("{}Copy", program.name());
            let mut with_copy = workload.clone();
            with_copy.programs.push(program.renamed(copy_name.as_str()));
            let session = RobustnessSession::new(with_copy);
            for condition in [CycleCondition::TypeI, CycleCondition::TypeII] {
                for use_foreign_keys in [false, true] {
                    let settings = AnalysisSettings {
                        granularity: Granularity::Attribute,
                        use_foreign_keys,
                        condition,
                    };
                    // Every subset that holds the copied program.
                    for mask in (1u32..1 << names.len()).filter(|m| m & (1 << at) != 0) {
                        let subset: Vec<&str> = (0..names.len())
                            .filter(|&i| mask & (1 << i) != 0)
                            .map(|i| names[i])
                            .collect();
                        let mut grown = subset.clone();
                        grown.push(&copy_name);
                        let verdict = |programs: &[&str]| {
                            session
                                .analyze_programs(programs, settings)
                                .unwrap()
                                .is_robust()
                        };
                        assert_eq!(
                            verdict(&grown),
                            verdict(&subset),
                            "{}: {subset:?} plus a copy of {} under {settings}",
                            workload.name,
                            program.name()
                        );
                        pairs += 1;
                    }
                }
            }
        }
    }
    // Two workloads of five programs, each in 16 subsets, under four settings.
    assert_eq!(pairs, 2 * 5 * 16 * 4);
}
