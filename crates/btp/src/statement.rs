//! Statements of a basic transaction program.
//!
//! A statement `q` is the unit of work a program performs against a single relation. Following
//! Figure 5 of the paper, its type constrains which of `ReadSet(q)`, `WriteSet(q)` and
//! `PReadSet(q)` are defined (`⊥` vs. a — possibly empty — set) and whether they may be empty.

use crate::error::BtpError;
use mvrc_schema::{AttrSet, RelId, Relation};
use serde::Serialize;
use std::fmt;
use std::sync::Arc;

/// The type of a statement: `type(q)` in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum StatementKind {
    /// `ins` — insertion of a single tuple.
    Insert,
    /// `key sel` — key-based selection of exactly one tuple.
    KeySelect,
    /// `pred sel` — predicate-based selection of an arbitrary number of tuples.
    PredSelect,
    /// `key upd` — key-based update of exactly one tuple.
    KeyUpdate,
    /// `pred upd` — predicate-based update of an arbitrary number of tuples.
    PredUpdate,
    /// `key del` — key-based deletion of exactly one tuple.
    KeyDelete,
    /// `pred del` — predicate-based deletion of an arbitrary number of tuples.
    PredDelete,
}

impl StatementKind {
    /// All statement kinds, in the row/column order of Table 1 of the paper:
    /// `ins, key sel, pred sel, key upd, pred upd, key del, pred del`.
    pub const ALL: [StatementKind; 7] = [
        StatementKind::Insert,
        StatementKind::KeySelect,
        StatementKind::PredSelect,
        StatementKind::KeyUpdate,
        StatementKind::PredUpdate,
        StatementKind::KeyDelete,
        StatementKind::PredDelete,
    ];

    /// Index of the kind in the row/column order of Table 1.
    #[inline]
    pub fn table_index(self) -> usize {
        match self {
            StatementKind::Insert => 0,
            StatementKind::KeySelect => 1,
            StatementKind::PredSelect => 2,
            StatementKind::KeyUpdate => 3,
            StatementKind::PredUpdate => 4,
            StatementKind::KeyDelete => 5,
            StatementKind::PredDelete => 6,
        }
    }

    /// Returns `true` for statements performing a key-based retrieval (`key sel`, `key upd`,
    /// `key del`). Inserts are *not* key-based retrievals even though they identify a single
    /// tuple.
    #[inline]
    pub fn is_key_based(self) -> bool {
        matches!(
            self,
            StatementKind::KeySelect | StatementKind::KeyUpdate | StatementKind::KeyDelete
        )
    }

    /// Returns `true` for predicate-based statements (`pred sel`, `pred upd`, `pred del`), i.e.
    /// statements that start with a predicate read over their relation.
    #[inline]
    pub fn is_predicate_based(self) -> bool {
        matches!(
            self,
            StatementKind::PredSelect | StatementKind::PredUpdate | StatementKind::PredDelete
        )
    }

    /// Returns `true` for statements that write (insert, delete or update).
    #[inline]
    pub fn writes(self) -> bool {
        !matches!(self, StatementKind::KeySelect | StatementKind::PredSelect)
    }

    /// Returns `true` for statements that may appear as the *range side* `q_j` of a foreign-key
    /// constraint `q_j = f(q_i)` — i.e. statements identifying exactly one tuple.
    ///
    /// Inserts are accepted: an insert identifies exactly the single inserted tuple, and the
    /// foreign-key check `cDepConds` of Algorithm 1 explicitly allows `ins` alongside
    /// `key upd` and `key del`.
    #[inline]
    pub fn identifies_single_tuple(self) -> bool {
        matches!(
            self,
            StatementKind::Insert
                | StatementKind::KeySelect
                | StatementKind::KeyUpdate
                | StatementKind::KeyDelete
        )
    }

    /// The abbreviation used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            StatementKind::Insert => "ins",
            StatementKind::KeySelect => "key sel",
            StatementKind::PredSelect => "pred sel",
            StatementKind::KeyUpdate => "key upd",
            StatementKind::PredUpdate => "pred upd",
            StatementKind::KeyDelete => "key del",
            StatementKind::PredDelete => "pred del",
        }
    }
}

impl fmt::Display for StatementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A statement of a basic transaction program (Section 5.1).
///
/// `read_set`, `write_set` and `pread_set` model `ReadSet(q)`, `WriteSet(q)` and `PReadSet(q)`;
/// `None` encodes the paper's `⊥` (undefined), `Some(AttrSet::EMPTY)` encodes a defined but
/// empty set. The name is shared: a clone, e.g. each LTP occurrence of the statement, copies
/// no text.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Statement {
    name: Arc<str>,
    rel: RelId,
    kind: StatementKind,
    read_set: Option<AttrSet>,
    write_set: Option<AttrSet>,
    pread_set: Option<AttrSet>,
}

impl Statement {
    /// Creates a statement and validates the Figure-5 constraints for its kind.
    ///
    /// The caller provides the full attribute set of the statement's relation (`Attr(rel(q))`),
    /// which is needed both to validate that the provided sets are subsets of `Attr(R)` and to
    /// fill in the write set of inserts and deletes (which is always `Attr(R)`).
    pub fn new(
        name: impl Into<Arc<str>>,
        rel: &Relation,
        kind: StatementKind,
        pread_set: Option<AttrSet>,
        read_set: Option<AttrSet>,
        write_set: Option<AttrSet>,
    ) -> Result<Self, BtpError> {
        let name = name.into();
        let all = rel.all_attrs();
        let check_subset = |set: Option<AttrSet>, which: &str| -> Result<(), BtpError> {
            if let Some(s) = set {
                if !s.is_subset_of(all) {
                    return Err(BtpError::InvalidStatement {
                        statement: name.to_string(),
                        reason: format!("{which} is not a subset of Attr({})", rel.name()),
                    });
                }
            }
            Ok(())
        };
        check_subset(pread_set, "PReadSet")?;
        check_subset(read_set, "ReadSet")?;
        check_subset(write_set, "WriteSet")?;

        let invalid = |reason: &str| BtpError::InvalidStatement {
            statement: name.to_string(),
            reason: reason.to_string(),
        };

        // Figure 5: constraints relative to type(q).
        let (pread_set, read_set, write_set) = match kind {
            StatementKind::Insert => {
                if pread_set.is_some() || read_set.is_some() {
                    return Err(invalid("ins statements have PReadSet = ReadSet = ⊥"));
                }
                if write_set.is_some() && write_set != Some(all) {
                    return Err(invalid(
                        "ins statements write all attributes of the relation",
                    ));
                }
                (None, None, Some(all))
            }
            StatementKind::KeyDelete => {
                if pread_set.is_some() || read_set.is_some() {
                    return Err(invalid("key del statements have PReadSet = ReadSet = ⊥"));
                }
                if write_set.is_some() && write_set != Some(all) {
                    return Err(invalid(
                        "key del statements write all attributes of the relation",
                    ));
                }
                (None, None, Some(all))
            }
            StatementKind::PredDelete => {
                if read_set.is_some() {
                    return Err(invalid("pred del statements have ReadSet = ⊥"));
                }
                if write_set.is_some() && write_set != Some(all) {
                    return Err(invalid(
                        "pred del statements write all attributes of the relation",
                    ));
                }
                (Some(pread_set.unwrap_or(AttrSet::EMPTY)), None, Some(all))
            }
            StatementKind::KeySelect => {
                if pread_set.is_some() {
                    return Err(invalid("key sel statements have PReadSet = ⊥"));
                }
                if write_set.is_some() {
                    return Err(invalid("key sel statements have WriteSet = ⊥"));
                }
                (None, Some(read_set.unwrap_or(AttrSet::EMPTY)), None)
            }
            StatementKind::PredSelect => {
                if write_set.is_some() {
                    return Err(invalid("pred sel statements have WriteSet = ⊥"));
                }
                (
                    Some(pread_set.unwrap_or(AttrSet::EMPTY)),
                    Some(read_set.unwrap_or(AttrSet::EMPTY)),
                    None,
                )
            }
            StatementKind::KeyUpdate => {
                if pread_set.is_some() {
                    return Err(invalid("key upd statements have PReadSet = ⊥"));
                }
                let ws = write_set
                    .ok_or_else(|| invalid("key upd statements must define a WriteSet"))?;
                if ws.is_empty() {
                    return Err(invalid(
                        "key upd statements must write at least one attribute",
                    ));
                }
                (None, Some(read_set.unwrap_or(AttrSet::EMPTY)), Some(ws))
            }
            StatementKind::PredUpdate => {
                let ws = write_set
                    .ok_or_else(|| invalid("pred upd statements must define a WriteSet"))?;
                if ws.is_empty() {
                    return Err(invalid(
                        "pred upd statements must write at least one attribute",
                    ));
                }
                (
                    Some(pread_set.unwrap_or(AttrSet::EMPTY)),
                    Some(read_set.unwrap_or(AttrSet::EMPTY)),
                    Some(ws),
                )
            }
        };

        Ok(Statement {
            name,
            rel: rel.id(),
            kind,
            read_set,
            write_set,
            pread_set,
        })
    }

    /// The statement's name (e.g. `q3`). Names are informational; identity within a program is
    /// positional.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `rel(q)`: the relation the statement is over.
    #[inline]
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// `type(q)`.
    #[inline]
    pub fn kind(&self) -> StatementKind {
        self.kind
    }

    /// `ReadSet(q)` — `None` encodes `⊥`.
    #[inline]
    pub fn read_set(&self) -> Option<AttrSet> {
        self.read_set
    }

    /// `WriteSet(q)` — `None` encodes `⊥`.
    #[inline]
    pub fn write_set(&self) -> Option<AttrSet> {
        self.write_set
    }

    /// `PReadSet(q)` — `None` encodes `⊥`.
    #[inline]
    pub fn pread_set(&self) -> Option<AttrSet> {
        self.pread_set
    }

    /// `ReadSet(q)` interpreted as a plain set: `⊥` behaves as the empty set for intersection
    /// purposes.
    #[inline]
    pub fn read_attrs(&self) -> AttrSet {
        self.read_set.unwrap_or(AttrSet::EMPTY)
    }

    /// `WriteSet(q)` interpreted as a plain set.
    #[inline]
    pub fn write_attrs(&self) -> AttrSet {
        self.write_set.unwrap_or(AttrSet::EMPTY)
    }

    /// `PReadSet(q)` interpreted as a plain set.
    #[inline]
    pub fn pread_attrs(&self) -> AttrSet {
        self.pread_set.unwrap_or(AttrSet::EMPTY)
    }

    /// Widens every *defined* attribute set to the full attribute set of the relation.
    ///
    /// This implements the **tuple-granularity** setting of Section 7.2 ("dependencies are
    /// defined on the level of complete tuples"): operations over the same tuple conflict even
    /// when they do not access a common attribute, which is equivalent to pretending every
    /// defined set covers all attributes.
    pub fn widen_to_tuple_granularity(&self, all_attrs: AttrSet) -> Statement {
        Statement {
            name: self.name.clone(),
            rel: self.rel,
            kind: self.kind,
            read_set: self.read_set.map(|_| all_attrs),
            write_set: self.write_set.map(|_| all_attrs),
            pread_set: self.pread_set.map(|_| all_attrs),
        }
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{} {}]", self.name, self.kind, self.rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvrc_schema::{AttrId, SchemaBuilder};

    fn bids_relation() -> (mvrc_schema::Schema, RelId) {
        let mut b = SchemaBuilder::new("s");
        let bids = b
            .relation("Bids", &["buyerId", "bid"], &["buyerId"])
            .unwrap();
        (b.build(), bids)
    }

    #[test]
    fn insert_forces_full_write_set_and_undefined_reads() {
        let (schema, bids) = bids_relation();
        let rel = schema.relation(bids);
        let q = Statement::new("q6", rel, StatementKind::Insert, None, None, None).unwrap();
        assert_eq!(q.write_set(), Some(AttrSet::all(2)));
        assert_eq!(q.read_set(), None);
        assert_eq!(q.pread_set(), None);
        assert!(q.kind().writes());
    }

    #[test]
    fn insert_rejects_read_sets() {
        let (schema, bids) = bids_relation();
        let rel = schema.relation(bids);
        let err = Statement::new(
            "q",
            rel,
            StatementKind::Insert,
            None,
            Some(AttrSet::EMPTY),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, BtpError::InvalidStatement { .. }));
    }

    #[test]
    fn key_update_requires_nonempty_write_set() {
        let (schema, bids) = bids_relation();
        let rel = schema.relation(bids);
        let err = Statement::new(
            "q5",
            rel,
            StatementKind::KeyUpdate,
            None,
            Some(AttrSet::EMPTY),
            Some(AttrSet::EMPTY),
        )
        .unwrap_err();
        assert!(matches!(err, BtpError::InvalidStatement { .. }));

        let ok = Statement::new(
            "q5",
            rel,
            StatementKind::KeyUpdate,
            None,
            Some(AttrSet::EMPTY),
            Some(AttrSet::singleton(AttrId(1))),
        )
        .unwrap();
        assert_eq!(ok.read_set(), Some(AttrSet::EMPTY));
        assert_eq!(ok.write_set(), Some(AttrSet::singleton(AttrId(1))));
    }

    #[test]
    fn key_update_rejects_predicate_reads() {
        let (schema, bids) = bids_relation();
        let rel = schema.relation(bids);
        let err = Statement::new(
            "q",
            rel,
            StatementKind::KeyUpdate,
            Some(AttrSet::EMPTY),
            None,
            Some(AttrSet::singleton(AttrId(1))),
        )
        .unwrap_err();
        assert!(matches!(err, BtpError::InvalidStatement { .. }));
    }

    #[test]
    fn pred_select_defines_pread_and_read() {
        let (schema, bids) = bids_relation();
        let rel = schema.relation(bids);
        let q = Statement::new(
            "q2",
            rel,
            StatementKind::PredSelect,
            Some(AttrSet::singleton(AttrId(1))),
            Some(AttrSet::singleton(AttrId(1))),
            None,
        )
        .unwrap();
        assert_eq!(q.pread_set(), Some(AttrSet::singleton(AttrId(1))));
        assert!(!q.kind().writes());
        assert!(q.kind().is_predicate_based());
    }

    #[test]
    fn pred_select_rejects_write_set() {
        let (schema, bids) = bids_relation();
        let rel = schema.relation(bids);
        let err = Statement::new(
            "q",
            rel,
            StatementKind::PredSelect,
            None,
            None,
            Some(AttrSet::singleton(AttrId(1))),
        )
        .unwrap_err();
        assert!(matches!(err, BtpError::InvalidStatement { .. }));
    }

    #[test]
    fn deletes_write_all_attributes() {
        let (schema, bids) = bids_relation();
        let rel = schema.relation(bids);
        let kd = Statement::new("d1", rel, StatementKind::KeyDelete, None, None, None).unwrap();
        assert_eq!(kd.write_set(), Some(AttrSet::all(2)));
        let pd = Statement::new(
            "d2",
            rel,
            StatementKind::PredDelete,
            Some(AttrSet::singleton(AttrId(0))),
            None,
            None,
        )
        .unwrap();
        assert_eq!(pd.write_set(), Some(AttrSet::all(2)));
        assert_eq!(pd.pread_set(), Some(AttrSet::singleton(AttrId(0))));
        assert_eq!(pd.read_set(), None);
    }

    #[test]
    fn out_of_relation_attributes_are_rejected() {
        let (schema, bids) = bids_relation();
        let rel = schema.relation(bids);
        let err = Statement::new(
            "q",
            rel,
            StatementKind::KeySelect,
            None,
            Some(AttrSet::singleton(AttrId(5))),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, BtpError::InvalidStatement { .. }));
    }

    #[test]
    fn tuple_granularity_widening_preserves_undefined_sets() {
        let (schema, bids) = bids_relation();
        let rel = schema.relation(bids);
        let q = Statement::new(
            "q5",
            rel,
            StatementKind::KeyUpdate,
            None,
            Some(AttrSet::EMPTY),
            Some(AttrSet::singleton(AttrId(1))),
        )
        .unwrap();
        let widened = q.widen_to_tuple_granularity(rel.all_attrs());
        assert_eq!(widened.read_set(), Some(AttrSet::all(2)));
        assert_eq!(widened.write_set(), Some(AttrSet::all(2)));
        assert_eq!(widened.pread_set(), None);
    }

    #[test]
    fn kind_helpers_match_the_paper_terminology() {
        assert!(StatementKind::KeyUpdate.is_key_based());
        assert!(!StatementKind::Insert.is_key_based());
        assert!(StatementKind::Insert.identifies_single_tuple());
        assert!(!StatementKind::PredUpdate.identifies_single_tuple());
        assert!(StatementKind::PredDelete.writes());
        assert!(!StatementKind::KeySelect.writes());
        assert_eq!(StatementKind::ALL.len(), 7);
        for (i, k) in StatementKind::ALL.iter().enumerate() {
            assert_eq!(k.table_index(), i);
        }
        assert_eq!(StatementKind::PredUpdate.label(), "pred upd");
    }
}
