//! Foreign keys.

use crate::attrs::{AttrId, AttrSet};
use crate::relation::RelId;
use serde::Serialize;
use std::fmt;

/// Identifier of a foreign key within a [`Schema`](crate::Schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct FkId(pub u16);

/// The most foreign keys a schema can declare: every [`FkId`] fits in 16 bits.
pub(crate) const MAX_FOREIGN_KEYS: usize = 1 << 16;

impl FkId {
    /// Zero-based index of the foreign key in the schema's catalog.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A foreign key `f` with domain relation `dom(f)` and range relation `range(f)` (Section 3.1).
///
/// Conceptually `f` maps every tuple `t ∈ I(dom(f))` to a tuple `f(t) ∈ I(range(f))`. For the
/// static analysis only the relations and the participating attribute sets matter; the mapping
/// itself is materialized by the schedule substrate when instantiating programs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ForeignKey {
    pub(crate) id: FkId,
    pub(crate) name: String,
    pub(crate) dom: RelId,
    pub(crate) dom_attrs: AttrSet,
    pub(crate) dom_attr_list: Vec<AttrId>,
    pub(crate) range: RelId,
    pub(crate) range_attrs: AttrSet,
    pub(crate) range_attr_list: Vec<AttrId>,
}

impl ForeignKey {
    /// The foreign key's identifier.
    #[inline]
    pub fn id(&self) -> FkId {
        self.id
    }

    /// The foreign key's name (e.g. `f1`).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `dom(f)`: the referencing relation.
    #[inline]
    pub fn dom(&self) -> RelId {
        self.dom
    }

    /// Attributes of `dom(f)` participating in the foreign key.
    #[inline]
    pub fn dom_attrs(&self) -> AttrSet {
        self.dom_attrs
    }

    /// `range(f)`: the referenced relation.
    #[inline]
    pub fn range(&self) -> RelId {
        self.range
    }

    /// Attributes of `range(f)` participating in the foreign key (usually its primary key).
    #[inline]
    pub fn range_attrs(&self) -> AttrSet {
        self.range_attrs
    }

    /// The correspondence between domain and range attributes, in declaration order: the i-th
    /// domain attribute references the i-th range attribute.
    pub fn attr_pairs(&self) -> impl Iterator<Item = (AttrId, AttrId)> + '_ {
        self.dom_attr_list
            .iter()
            .copied()
            .zip(self.range_attr_list.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrId;

    #[test]
    fn accessors_roundtrip() {
        let fk = ForeignKey {
            id: FkId(3),
            name: "f3".into(),
            dom: RelId(1),
            dom_attrs: AttrSet::singleton(AttrId(0)),
            dom_attr_list: vec![AttrId(0)],
            range: RelId(0),
            range_attrs: AttrSet::singleton(AttrId(0)),
            range_attr_list: vec![AttrId(0)],
        };
        assert_eq!(fk.id(), FkId(3));
        assert_eq!(fk.name(), "f3");
        assert_eq!(fk.dom(), RelId(1));
        assert_eq!(fk.range(), RelId(0));
        assert_eq!(fk.dom_attrs().len(), 1);
        assert_eq!(fk.range_attrs().len(), 1);
        assert_eq!(
            fk.attr_pairs().collect::<Vec<_>>(),
            vec![(AttrId(0), AttrId(0))]
        );
        assert_eq!(FkId(3).to_string(), "f3");
    }
}
