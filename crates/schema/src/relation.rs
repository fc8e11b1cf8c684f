//! Relations and relation identifiers.

use crate::attrs::{AttrId, AttrSet};
use serde::Serialize;
use std::fmt;

/// The most relations a schema can declare: every [`RelId`] fits in 16 bits.
pub(crate) const MAX_RELATIONS: usize = 1 << 16;

/// Identifier of a relation within a [`Schema`](crate::Schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct RelId(pub u16);

impl RelId {
    /// Zero-based index of the relation in the schema's catalog.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A relation of the database schema: a name, an ordered list of attribute names and a primary
/// key.
///
/// The paper assumes each tuple is uniquely identified by a primary key that cannot be altered
/// by update statements (Section 5.4); the primary key is therefore recorded so that front-ends
/// (e.g. the SQL translator) can classify statements as key-based or predicate-based.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Relation {
    pub(crate) id: RelId,
    pub(crate) name: String,
    pub(crate) attributes: Vec<String>,
    pub(crate) primary_key: AttrSet,
}

impl Relation {
    /// The relation's identifier.
    #[inline]
    pub fn id(&self) -> RelId {
        self.id
    }

    /// The relation's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes (`|Attr(R)|`).
    #[inline]
    pub fn attribute_count(&self) -> usize {
        self.attributes.len()
    }

    /// `Attr(R)`: the set containing every attribute of the relation.
    #[inline]
    pub fn all_attrs(&self) -> AttrSet {
        AttrSet::all(self.attributes.len())
    }

    /// The primary key attributes.
    #[inline]
    pub fn primary_key(&self) -> AttrSet {
        self.primary_key
    }

    /// Name of an attribute by id.
    ///
    /// # Panics
    ///
    /// Panics if the attribute id is out of range for this relation.
    pub fn attr_name(&self, attr: AttrId) -> &str {
        &self.attributes[attr.index()]
    }

    /// All attribute names, in declaration order.
    pub fn attr_names(&self) -> impl Iterator<Item = &str> {
        self.attributes.iter().map(String::as_str)
    }

    /// Looks up an attribute by name (case-sensitive first, then case-insensitive).
    pub fn attr_by_name(&self, name: &str) -> Option<AttrId> {
        if let Some(pos) = self.attributes.iter().position(|a| a == name) {
            return Some(AttrId(pos as u8));
        }
        self.attributes
            .iter()
            .position(|a| a.eq_ignore_ascii_case(name))
            .map(|pos| AttrId(pos as u8))
    }

    /// Resolves a list of attribute names into an [`AttrSet`].
    pub fn attrs_by_names<'a, I>(&self, names: I) -> Result<AttrSet, String>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut set = AttrSet::empty();
        for name in names {
            match self.attr_by_name(name) {
                Some(id) => set.insert(id),
                None => return Err(name.to_string()),
            }
        }
        Ok(set)
    }

    /// Renders an attribute set as a sorted list of attribute names (useful for reports and
    /// DOT output).
    pub fn render_attrs(&self, set: AttrSet) -> String {
        let names: Vec<&str> = set.iter().map(|a| self.attr_name(a)).collect();
        format!("{{{}}}", names.join(", "))
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name, self.attributes.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        Relation {
            id: RelId(0),
            name: "Bids".into(),
            attributes: vec!["buyerId".into(), "bid".into()],
            primary_key: AttrSet::singleton(AttrId(0)),
        }
    }

    #[test]
    fn attribute_lookup_by_name() {
        let r = sample();
        assert_eq!(r.attr_by_name("bid"), Some(AttrId(1)));
        assert_eq!(r.attr_by_name("BID"), Some(AttrId(1)));
        assert_eq!(r.attr_by_name("missing"), None);
    }

    #[test]
    fn attrs_by_names_builds_sets_and_reports_unknowns() {
        let r = sample();
        let set = r.attrs_by_names(["buyerId", "bid"]).unwrap();
        assert_eq!(set, AttrSet::all(2));
        assert_eq!(r.attrs_by_names(["nope"]).unwrap_err(), "nope");
    }

    #[test]
    fn all_attrs_matches_attribute_count() {
        let r = sample();
        assert_eq!(r.all_attrs().len(), r.attribute_count());
    }

    #[test]
    fn render_attrs_uses_names() {
        let r = sample();
        assert_eq!(r.render_attrs(AttrSet::all(2)), "{buyerId, bid}");
        assert_eq!(r.render_attrs(AttrSet::empty()), "{}");
    }

    #[test]
    fn display_shows_schema_style() {
        assert_eq!(sample().to_string(), "Bids(buyerId, bid)");
    }
}
