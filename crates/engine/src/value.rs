//! Concrete values and rows.
//!
//! The static analysis of the paper never needs values — BTP statements only carry attribute
//! *sets*. The engine, in contrast, executes concrete transactions, so it stores typed values
//! and extracts primary keys from them.

use mvrc_schema::{AttrSet, Relation};
use std::fmt;

/// A single attribute value.
///
/// Two scalar types are sufficient for every workload of the paper (identifiers / balances /
/// quantities are integers, names / payloads are strings); `Null` models attributes that a
/// program never touches.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Absent / untouched value.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// Owned string.
    Str(String),
}

impl Value {
    /// Returns the integer payload, if the value is an integer.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the string payload, if the value is a string.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Returns `true` when the value is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "'{v}'"),
        }
    }
}

/// A row: one value per attribute of the relation, in attribute order.
pub type Row = Vec<Value>;

/// A primary-key value: the values of the relation's key attributes, in attribute order.
///
/// Keys are ordered so they can serve as `BTreeMap` keys, giving the storage layer ordered
/// scans for free.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key(pub Vec<Value>);

impl Key {
    /// Builds a single-attribute integer key, the common case in every benchmark.
    pub fn int(v: i64) -> Self {
        Key(vec![Value::Int(v)])
    }

    /// Builds a composite key from values.
    pub fn composite(values: impl IntoIterator<Item = Value>) -> Self {
        Key(values.into_iter().collect())
    }

    /// Extracts the primary key of `row` according to the relation's key attribute set.
    pub fn of_row(relation: &Relation, row: &Row) -> Key {
        Key(extract(row, relation.primary_key()))
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Extracts the values of the attributes in `attrs` from `row`, in attribute order.
pub fn extract(row: &Row, attrs: AttrSet) -> Vec<Value> {
    attrs
        .iter()
        .map(|a| row.get(a.index()).cloned().unwrap_or(Value::Null))
        .collect()
}

/// Projects a row to the attributes in `attrs`, replacing every other position with `Null`.
///
/// The engine hands projected rows to (predicate) read operations so that a program can only
/// observe the attributes its `ReadSet` declares — mirroring the attribute-level dependency
/// granularity of the analysis.
pub fn project(row: &Row, attrs: AttrSet) -> Row {
    row.iter()
        .enumerate()
        .map(|(i, v)| {
            if i < 64 && attrs.contains(mvrc_schema::AttrId(i as u8)) {
                v.clone()
            } else {
                Value::Null
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvrc_schema::SchemaBuilder;

    fn relation() -> (mvrc_schema::Schema, mvrc_schema::RelId) {
        let mut b = SchemaBuilder::new("s");
        let r = b
            .relation("Account", &["name", "customer_id"], &["name"])
            .unwrap();
        (b.build(), r)
    }

    #[test]
    fn value_accessors_and_display() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Str("x".into()).as_int(), None);
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Int(7).as_str(), None);
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Str("abc".into()).to_string(), "'abc'");
    }

    #[test]
    fn key_of_row_extracts_primary_key_values() {
        let (schema, rel) = relation();
        let relation = schema.relation(rel);
        let row: Row = vec![Value::Str("alice".into()), Value::Int(1)];
        let key = Key::of_row(relation, &row);
        assert_eq!(key, Key(vec![Value::Str("alice".into())]));
        assert_eq!(key.to_string(), "('alice')");
        assert_eq!(Key::int(4).to_string(), "(4)");
        assert_eq!(
            Key::composite([Value::Int(1), Value::Int(2)]),
            Key(vec![Value::Int(1), Value::Int(2)])
        );
    }

    #[test]
    fn keys_order_like_their_values() {
        assert!(Key::int(1) < Key::int(2));
        assert!(
            Key::composite([Value::Int(1), Value::Int(5)])
                < Key::composite([Value::Int(2), Value::Int(0)])
        );
    }

    #[test]
    fn extract_and_project_respect_attribute_sets() {
        let (schema, rel) = relation();
        let relation = schema.relation(rel);
        let row: Row = vec![Value::Str("alice".into()), Value::Int(1)];
        let only_id = AttrSet::singleton(relation.attr_by_name("customer_id").unwrap());
        assert_eq!(extract(&row, only_id), vec![Value::Int(1)]);
        let projected = project(&row, only_id);
        assert_eq!(projected, vec![Value::Null, Value::Int(1)]);
        let all = relation.all_attrs();
        assert_eq!(project(&row, all), row);
    }
}
