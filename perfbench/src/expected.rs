//! The hand-written expected answers (`expected.json`), compiled in.

use serde_json::Value;

pub const BUILTIN: &str = include_str!("../expected.json");

/// The parsed expected-answers document.
#[derive(Debug)]
pub struct Expected(Value);

impl Expected {
    /// The built-in answers.
    pub fn builtin() -> Expected {
        Expected::parse(BUILTIN)
    }

    /// Answers from the text of an expected-answers document.
    pub fn parse(text: &str) -> Expected {
        Expected(serde_json::from_str(text).expect("the expected answers are JSON"))
    }

    fn at(&self, path: &[&str]) -> &Value {
        let mut value = &self.0;
        for key in path {
            value = value
                .get(key)
                .unwrap_or_else(|| panic!("expected.json has no `{}`", path.join(".")));
        }
        value
    }

    /// A boolean answer at `path`.
    pub fn bool(&self, path: &[&str]) -> bool {
        self.at(path)
            .as_bool()
            .unwrap_or_else(|| panic!("`{}` must be a boolean", path.join(".")))
    }

    /// A whole-number answer at `path`.
    pub fn count(&self, path: &[&str]) -> usize {
        self.at(path)
            .as_u64()
            .unwrap_or_else(|| panic!("`{}` must be a whole number", path.join(".")))
            as usize
    }

    /// A list of program-name sets at `path`.
    pub fn name_sets(&self, path: &[&str]) -> Vec<Vec<String>> {
        let sets = self
            .at(path)
            .as_array()
            .unwrap_or_else(|| panic!("`{}` must be an array", path.join(".")));
        sets.iter()
            .map(|set| {
                set.as_array()
                    .expect("each set is an array of names")
                    .iter()
                    .map(|name| name.as_str().expect("names are strings").to_string())
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_answers_parse() {
        let expected = Expected::builtin();
        assert!(expected.bool(&["cold-verdict", "auction_n", "robust"]));
        assert_eq!(
            expected.count(&["cold-verdict", "bundled", "smallbank.sql", "programs"]),
            5
        );
        assert_eq!(
            expected
                .name_sets(&["certify-audit", "maximal_robust", "SmallBank"])
                .len(),
            3
        );
    }
}
