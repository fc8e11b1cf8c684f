//! Attribute identifiers and attribute bitsets.
//!
//! Every relation in the benchmarks considered by the paper has at most 21 attributes (TPC-C's
//! `Customer`), so a 64-bit bitset comfortably represents any subset of a relation's attributes.
//! Set operations used by Algorithm 1 — intersection emptiness tests between `ReadSet`,
//! `WriteSet` and `PReadSet` — become single bitwise AND instructions.

use serde::Serialize;
use std::fmt;

/// Maximum number of attributes a single relation may declare.
pub const MAX_ATTRS: usize = 64;

/// Index of an attribute within its relation (position in the relation's attribute list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct AttrId(pub u8);

impl AttrId {
    /// Returns the zero-based position of this attribute in its relation.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// A set of attributes of a single relation, stored as a 64-bit bitmask.
///
/// The paper distinguishes between an *undefined* attribute set (`⊥`) and an *empty* one (`∅`);
/// this distinction is modelled at the statement level as `Option<AttrSet>` — `AttrSet` itself is
/// always a defined (possibly empty) set.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub struct AttrSet(u64);

impl AttrSet {
    /// The empty attribute set (`∅`).
    pub const EMPTY: AttrSet = AttrSet(0);

    /// Creates an empty attribute set.
    #[inline]
    pub const fn empty() -> Self {
        AttrSet(0)
    }

    /// Creates a set containing the first `n` attributes (used for `Attr(R)` of a relation with
    /// `n` attributes).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    pub fn all(n: usize) -> Self {
        assert!(
            n <= MAX_ATTRS,
            "relations support at most {MAX_ATTRS} attributes"
        );
        if n == MAX_ATTRS {
            AttrSet(u64::MAX)
        } else {
            AttrSet((1u64 << n) - 1)
        }
    }

    /// Creates a set from raw bits. Callers must guarantee the bits refer to valid attribute
    /// positions of the intended relation.
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        AttrSet(bits)
    }

    /// Returns the raw bit representation.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Creates a singleton set.
    #[inline]
    pub fn singleton(attr: AttrId) -> Self {
        AttrSet(1u64 << attr.index())
    }

    /// Builds a set from an iterator of attribute ids.
    pub fn from_attrs<I: IntoIterator<Item = AttrId>>(attrs: I) -> Self {
        let mut set = AttrSet::empty();
        for a in attrs {
            set.insert(a);
        }
        set
    }

    /// Returns `true` if the set contains no attributes.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of attributes in the set.
    #[inline]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` if the attribute is a member of the set.
    #[inline]
    pub fn contains(self, attr: AttrId) -> bool {
        self.0 & (1u64 << attr.index()) != 0
    }

    /// Adds an attribute to the set.
    #[inline]
    pub fn insert(&mut self, attr: AttrId) {
        self.0 |= 1u64 << attr.index();
    }

    /// Removes an attribute from the set.
    #[inline]
    pub fn remove(&mut self, attr: AttrId) {
        self.0 &= !(1u64 << attr.index());
    }

    /// Set union.
    #[inline]
    pub const fn union(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub const fn intersection(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 & other.0)
    }

    /// Set difference (`self \ other`).
    #[inline]
    pub const fn difference(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 & !other.0)
    }

    /// Returns `true` if the two sets share at least one attribute.
    ///
    /// This is the primitive used throughout `ncDepConds` and `cDepConds` in Algorithm 1.
    #[inline]
    pub const fn intersects(self, other: AttrSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Returns `true` if `self` is a subset of `other`.
    #[inline]
    pub const fn is_subset_of(self, other: AttrSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterates over the attribute ids contained in the set, in increasing order.
    pub fn iter(self) -> AttrSetIter {
        AttrSetIter { bits: self.0 }
    }
}

impl fmt::Debug for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AttrSet{{")?;
        let mut first = true;
        for a in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", a.0)?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<AttrId> for AttrSet {
    fn from_iter<T: IntoIterator<Item = AttrId>>(iter: T) -> Self {
        AttrSet::from_attrs(iter)
    }
}

impl IntoIterator for AttrSet {
    type Item = AttrId;
    type IntoIter = AttrSetIter;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the members of an [`AttrSet`].
#[derive(Debug, Clone)]
pub struct AttrSetIter {
    bits: u64,
}

impl Iterator for AttrSetIter {
    type Item = AttrId;

    #[inline]
    fn next(&mut self) -> Option<AttrId> {
        if self.bits == 0 {
            None
        } else {
            let idx = self.bits.trailing_zeros() as u8;
            self.bits &= self.bits - 1;
            Some(AttrId(idx))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.bits.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for AttrSetIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_members() {
        let s = AttrSet::empty();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(AttrId(0)));
    }

    #[test]
    fn all_covers_first_n_attributes() {
        let s = AttrSet::all(5);
        assert_eq!(s.len(), 5);
        for i in 0..5 {
            assert!(s.contains(AttrId(i)));
        }
        assert!(!s.contains(AttrId(5)));
    }

    #[test]
    fn all_64_is_full_mask() {
        let s = AttrSet::all(64);
        assert_eq!(s.len(), 64);
        assert_eq!(s.bits(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn all_rejects_more_than_64() {
        let _ = AttrSet::all(65);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = AttrSet::empty();
        s.insert(AttrId(3));
        s.insert(AttrId(17));
        assert!(s.contains(AttrId(3)));
        assert!(s.contains(AttrId(17)));
        assert_eq!(s.len(), 2);
        s.remove(AttrId(3));
        assert!(!s.contains(AttrId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = AttrSet::from_attrs([AttrId(0), AttrId(1), AttrId(2)]);
        let b = AttrSet::from_attrs([AttrId(2), AttrId(3)]);
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersection(b), AttrSet::singleton(AttrId(2)));
        assert_eq!(a.difference(b), AttrSet::from_attrs([AttrId(0), AttrId(1)]));
        assert!(a.intersects(b));
        assert!(!a.intersects(AttrSet::singleton(AttrId(5))));
        assert!(AttrSet::singleton(AttrId(2)).is_subset_of(a));
        assert!(!b.is_subset_of(a));
    }

    #[test]
    fn iteration_is_sorted() {
        let s = AttrSet::from_attrs([AttrId(9), AttrId(1), AttrId(33)]);
        let items: Vec<u8> = s.iter().map(|a| a.0).collect();
        assert_eq!(items, vec![1, 9, 33]);
    }

    #[test]
    fn from_iterator_collects() {
        let s: AttrSet = [AttrId(4), AttrId(4), AttrId(7)].into_iter().collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn debug_format_lists_members() {
        let s = AttrSet::from_attrs([AttrId(1), AttrId(3)]);
        assert_eq!(format!("{s:?}"), "AttrSet{1,3}");
    }

    #[test]
    fn empty_intersection_with_anything_is_empty() {
        let a = AttrSet::all(10);
        assert!(!AttrSet::EMPTY.intersects(a));
        assert!(AttrSet::EMPTY.is_subset_of(a));
    }
}
