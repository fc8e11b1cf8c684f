//! Analysis settings: dependency granularity and foreign-key usage.
//!
//! Section 7.2 of the paper evaluates four settings — `tpl dep`, `attr dep`, `tpl dep + FK` and
//! `attr dep + FK` — formed by two independent switches captured here.

use serde::Serialize;
use std::fmt;

/// Granularity at which dependencies between operations are tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Granularity {
    /// Dependencies require a common *attribute* (the paper's default, `attr dep`): two
    /// operations over the same tuple only conflict when they access a common attribute and one
    /// of them writes it.
    Attribute,
    /// Dependencies are tracked per *tuple* (`tpl dep`): any two operations over the same tuple
    /// with at least one write conflict, regardless of the attributes accessed.
    Tuple,
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Granularity::Attribute => f.write_str("attr dep"),
            Granularity::Tuple => f.write_str("tpl dep"),
        }
    }
}

/// The robustness condition used for the cycle test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CycleCondition {
    /// Absence of **type-I** cycles (cycles with at least one counterflow edge) — the baseline
    /// condition of Alomari & Fekete `[3]`.
    TypeI,
    /// Absence of **type-II** cycles (Theorem 4.2 / Algorithm 2) — the paper's refined
    /// condition.
    TypeII,
}

impl fmt::Display for CycleCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycleCondition::TypeI => f.write_str("type-I"),
            CycleCondition::TypeII => f.write_str("type-II"),
        }
    }
}

/// Full configuration of a robustness analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct AnalysisSettings {
    /// Dependency granularity.
    pub granularity: Granularity,
    /// Whether foreign-key constraint annotations are used to suppress impossible counterflow
    /// edges (the `+ FK` settings).
    pub use_foreign_keys: bool,
    /// Which cycle condition attests robustness.
    pub condition: CycleCondition,
}

impl AnalysisSettings {
    /// The paper's strongest setting: attribute granularity, foreign keys, type-II cycles.
    pub const fn paper_default() -> Self {
        AnalysisSettings {
            granularity: Granularity::Attribute,
            use_foreign_keys: true,
            condition: CycleCondition::TypeII,
        }
    }

    /// The baseline of Alomari & Fekete `[3]` at the given granularity/FK setting.
    pub const fn baseline(granularity: Granularity, use_foreign_keys: bool) -> Self {
        AnalysisSettings {
            granularity,
            use_foreign_keys,
            condition: CycleCondition::TypeI,
        }
    }

    /// All four evaluation settings of Section 7.2 (`tpl dep`, `attr dep`, `tpl dep + FK`,
    /// `attr dep + FK`) for the given cycle condition, in the order used by Figures 6 and 7.
    pub fn evaluation_grid(condition: CycleCondition) -> [AnalysisSettings; 4] {
        [
            AnalysisSettings {
                granularity: Granularity::Tuple,
                use_foreign_keys: false,
                condition,
            },
            AnalysisSettings {
                granularity: Granularity::Attribute,
                use_foreign_keys: false,
                condition,
            },
            AnalysisSettings {
                granularity: Granularity::Tuple,
                use_foreign_keys: true,
                condition,
            },
            AnalysisSettings {
                granularity: Granularity::Attribute,
                use_foreign_keys: true,
                condition,
            },
        ]
    }

    /// The label used in the paper's figures, e.g. `attr dep + FK`.
    pub fn label(&self) -> String {
        if self.use_foreign_keys {
            format!("{} + FK", self.granularity)
        } else {
            self.granularity.to_string()
        }
    }
}

impl Default for AnalysisSettings {
    fn default() -> Self {
        AnalysisSettings::paper_default()
    }
}

impl fmt::Display for AnalysisSettings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.label(), self.condition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper() {
        let grid = AnalysisSettings::evaluation_grid(CycleCondition::TypeII);
        let labels: Vec<String> = grid.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["tpl dep", "attr dep", "tpl dep + FK", "attr dep + FK"]
        );
    }

    #[test]
    fn default_is_the_paper_setting() {
        let s = AnalysisSettings::default();
        assert_eq!(s.granularity, Granularity::Attribute);
        assert!(s.use_foreign_keys);
        assert_eq!(s.condition, CycleCondition::TypeII);
        assert_eq!(s.to_string(), "attr dep + FK (type-II)");
    }

    #[test]
    fn baseline_uses_type_i() {
        let s = AnalysisSettings::baseline(Granularity::Tuple, false);
        assert_eq!(s.condition, CycleCondition::TypeI);
        assert_eq!(s.label(), "tpl dep");
    }
}
