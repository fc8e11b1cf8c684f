//! The schema catalog and its builder.

use crate::attrs::{AttrSet, MAX_ATTRS};
use crate::error::SchemaError;
use crate::foreign_key::{FkId, ForeignKey, MAX_FOREIGN_KEYS};
use crate::relation::{RelId, Relation, MAX_RELATIONS};
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;

/// A relational schema `(Rels, FKeys)` as defined in Section 3.1 of the paper.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Schema {
    name: String,
    relations: Vec<Relation>,
    foreign_keys: Vec<ForeignKey>,
    #[serde(skip)]
    rel_by_name: HashMap<String, RelId>,
}

impl Schema {
    /// The schema's name (informational only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Number of foreign keys.
    pub fn foreign_key_count(&self) -> usize {
        self.foreign_keys.len()
    }

    /// Access a relation by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this schema.
    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id.index()]
    }

    /// Access a foreign key by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this schema.
    pub fn foreign_key(&self, id: FkId) -> &ForeignKey {
        &self.foreign_keys[id.index()]
    }

    /// Iterate over all relations.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.iter()
    }

    /// Iterate over all foreign keys.
    pub fn foreign_keys(&self) -> impl Iterator<Item = &ForeignKey> {
        self.foreign_keys.iter()
    }

    /// Looks up a relation by name (case-insensitive fallback).
    pub fn relation_by_name(&self, name: &str) -> Option<&Relation> {
        if let Some(&id) = self.rel_by_name.get(name) {
            return Some(self.relation(id));
        }
        self.relations
            .iter()
            .find(|r| r.name().eq_ignore_ascii_case(name))
    }

    /// Looks up a foreign key by name.
    pub fn foreign_key_by_name(&self, name: &str) -> Option<&ForeignKey> {
        self.foreign_keys.iter().find(|f| f.name() == name)
    }

    /// Foreign keys whose domain is `rel` (i.e. `rel` is the referencing relation).
    pub fn foreign_keys_from(&self, rel: RelId) -> impl Iterator<Item = &ForeignKey> {
        self.foreign_keys.iter().filter(move |f| f.dom() == rel)
    }

    /// Foreign keys whose range is `rel` (i.e. `rel` is the referenced relation).
    pub fn foreign_keys_to(&self, rel: RelId) -> impl Iterator<Item = &ForeignKey> {
        self.foreign_keys.iter().filter(move |f| f.range() == rel)
    }

    /// `Attr(R)` for a relation id.
    pub fn all_attrs(&self, rel: RelId) -> AttrSet {
        self.relation(rel).all_attrs()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schema {} {{", self.name)?;
        for r in &self.relations {
            writeln!(f, "  {r}")?;
        }
        for fk in &self.foreign_keys {
            let dom = self.relation(fk.dom());
            let range = self.relation(fk.range());
            writeln!(
                f,
                "  {}: {}{} -> {}{}",
                fk.name(),
                dom.name(),
                dom.render_attrs(fk.dom_attrs()),
                range.name(),
                range.render_attrs(fk.range_attrs()),
            )?;
        }
        write!(f, "}}")
    }
}

/// Incremental builder for [`Schema`].
#[derive(Debug, Clone, Default)]
pub struct SchemaBuilder {
    name: String,
    relations: Vec<Relation>,
    foreign_keys: Vec<ForeignKey>,
    rel_by_name: HashMap<String, RelId>,
    fk_names: HashMap<String, FkId>,
}

impl SchemaBuilder {
    /// Starts a new schema with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SchemaBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declares a relation with its attributes and primary-key attributes.
    ///
    /// Returns the new relation's id.
    pub fn relation(
        &mut self,
        name: &str,
        attributes: &[&str],
        primary_key: &[&str],
    ) -> Result<RelId, SchemaError> {
        if self.rel_by_name.contains_key(name) {
            return Err(SchemaError::DuplicateRelation(name.to_string()));
        }
        if self.relations.len() == MAX_RELATIONS {
            return Err(SchemaError::TooManyRelations);
        }
        if attributes.is_empty() {
            return Err(SchemaError::EmptyRelation(name.to_string()));
        }
        if attributes.len() > MAX_ATTRS {
            return Err(SchemaError::TooManyAttributes {
                relation: name.to_string(),
                count: attributes.len(),
            });
        }
        let mut attr_names: Vec<String> = Vec::with_capacity(attributes.len());
        for a in attributes {
            if attr_names.iter().any(|existing| existing == a) {
                return Err(SchemaError::DuplicateAttribute {
                    relation: name.to_string(),
                    attribute: (*a).to_string(),
                });
            }
            attr_names.push((*a).to_string());
        }
        if primary_key.is_empty() {
            return Err(SchemaError::EmptyPrimaryKey(name.to_string()));
        }
        let id = RelId(self.relations.len() as u16);
        let relation = Relation {
            id,
            name: name.to_string(),
            attributes: attr_names,
            primary_key: AttrSet::empty(),
        };
        let pk = relation
            .attrs_by_names(primary_key.iter().copied())
            .map_err(|attribute| SchemaError::UnknownAttribute {
                relation: name.to_string(),
                attribute,
            })?;
        let relation = Relation {
            primary_key: pk,
            ..relation
        };
        self.rel_by_name.insert(name.to_string(), id);
        self.relations.push(relation);
        Ok(id)
    }

    /// Declares a foreign key `name: dom(dom_attrs) -> range(range_attrs)`.
    ///
    /// Returns the new foreign key's id.
    pub fn foreign_key(
        &mut self,
        name: &str,
        dom: RelId,
        dom_attrs: &[&str],
        range: RelId,
        range_attrs: &[&str],
    ) -> Result<FkId, SchemaError> {
        if self.fk_names.contains_key(name) {
            return Err(SchemaError::DuplicateForeignKey(name.to_string()));
        }
        if self.foreign_keys.len() == MAX_FOREIGN_KEYS {
            return Err(SchemaError::TooManyForeignKeys);
        }
        if dom_attrs.len() != range_attrs.len() {
            return Err(SchemaError::ForeignKeyArityMismatch {
                foreign_key: name.to_string(),
                dom_attrs: dom_attrs.len(),
                range_attrs: range_attrs.len(),
            });
        }
        let dom_rel = self
            .relations
            .get(dom.index())
            .ok_or_else(|| SchemaError::UnknownRelation(format!("{dom}")))?;
        let unknown_attr = |rel: &Relation, attribute: String| SchemaError::UnknownAttribute {
            relation: rel.name().to_string(),
            attribute,
        };
        let dom_list: Vec<_> = dom_attrs
            .iter()
            .map(|a| {
                dom_rel
                    .attr_by_name(a)
                    .ok_or_else(|| unknown_attr(dom_rel, a.to_string()))
            })
            .collect::<Result<_, _>>()?;
        let dom_set = AttrSet::from_attrs(dom_list.iter().copied());
        let range_rel = self
            .relations
            .get(range.index())
            .ok_or_else(|| SchemaError::UnknownRelation(format!("{range}")))?;
        let range_list: Vec<_> = range_attrs
            .iter()
            .map(|a| {
                range_rel
                    .attr_by_name(a)
                    .ok_or_else(|| unknown_attr(range_rel, a.to_string()))
            })
            .collect::<Result<_, _>>()?;
        let range_set = AttrSet::from_attrs(range_list.iter().copied());
        let id = FkId(self.foreign_keys.len() as u16);
        self.foreign_keys.push(ForeignKey {
            id,
            name: name.to_string(),
            dom,
            dom_attrs: dom_set,
            dom_attr_list: dom_list,
            range,
            range_attrs: range_set,
            range_attr_list: range_list,
        });
        self.fk_names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Convenience variant of [`SchemaBuilder::foreign_key`] resolving relations by name.
    pub fn foreign_key_by_names(
        &mut self,
        name: &str,
        dom: &str,
        dom_attrs: &[&str],
        range: &str,
        range_attrs: &[&str],
    ) -> Result<FkId, SchemaError> {
        let dom_id = *self
            .rel_by_name
            .get(dom)
            .ok_or_else(|| SchemaError::UnknownRelation(dom.to_string()))?;
        let range_id = *self
            .rel_by_name
            .get(range)
            .ok_or_else(|| SchemaError::UnknownRelation(range.to_string()))?;
        self.foreign_key(name, dom_id, dom_attrs, range_id, range_attrs)
    }

    /// Finalizes the schema.
    pub fn build(self) -> Schema {
        Schema {
            name: self.name,
            relations: self.relations,
            foreign_keys: self.foreign_keys,
            rel_by_name: self.rel_by_name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrId;

    fn auction() -> Schema {
        let mut b = SchemaBuilder::new("auction");
        let buyer = b.relation("Buyer", &["id", "calls"], &["id"]).unwrap();
        let bids = b
            .relation("Bids", &["buyerId", "bid"], &["buyerId"])
            .unwrap();
        let log = b
            .relation("Log", &["id", "buyerId", "bid"], &["id"])
            .unwrap();
        b.foreign_key("f1", bids, &["buyerId"], buyer, &["id"])
            .unwrap();
        b.foreign_key("f2", log, &["buyerId"], buyer, &["id"])
            .unwrap();
        b.build()
    }

    #[test]
    fn builds_the_auction_schema() {
        let s = auction();
        assert_eq!(s.relation_count(), 3);
        assert_eq!(s.foreign_key_count(), 2);
        assert_eq!(s.relation(RelId(0)).name(), "Buyer");
        assert_eq!(s.relation_by_name("bids").unwrap().id(), RelId(1));
        assert_eq!(s.relation_by_name("Log").unwrap().attribute_count(), 3);
        assert!(s.relation_by_name("Nope").is_none());
    }

    #[test]
    fn primary_keys_are_resolved() {
        let s = auction();
        assert_eq!(
            s.relation(RelId(0)).primary_key(),
            AttrSet::singleton(AttrId(0))
        );
    }

    #[test]
    fn foreign_key_lookups() {
        let s = auction();
        let bids = s.relation_by_name("Bids").unwrap().id();
        let buyer = s.relation_by_name("Buyer").unwrap().id();
        assert_eq!(s.foreign_keys_from(bids).count(), 1);
        assert_eq!(s.foreign_keys_to(buyer).count(), 2);
        let f1 = s.foreign_key_by_name("f1").unwrap();
        assert_eq!(f1.dom(), bids);
        assert_eq!(f1.range(), buyer);
    }

    #[test]
    fn duplicate_relation_is_rejected() {
        let mut b = SchemaBuilder::new("s");
        b.relation("R", &["a"], &["a"]).unwrap();
        assert_eq!(
            b.relation("R", &["a"], &["a"]).unwrap_err(),
            SchemaError::DuplicateRelation("R".into())
        );
    }

    #[test]
    fn duplicate_attribute_is_rejected() {
        let mut b = SchemaBuilder::new("s");
        let err = b.relation("R", &["a", "a"], &["a"]).unwrap_err();
        assert!(matches!(err, SchemaError::DuplicateAttribute { .. }));
    }

    #[test]
    fn unknown_primary_key_attribute_is_rejected() {
        let mut b = SchemaBuilder::new("s");
        let err = b.relation("R", &["a"], &["b"]).unwrap_err();
        assert!(matches!(err, SchemaError::UnknownAttribute { .. }));
    }

    #[test]
    fn empty_primary_key_is_rejected() {
        let mut b = SchemaBuilder::new("s");
        let err = b.relation("R", &["a"], &[]).unwrap_err();
        assert_eq!(err, SchemaError::EmptyPrimaryKey("R".into()));
    }

    #[test]
    fn foreign_key_arity_mismatch_is_rejected() {
        let mut b = SchemaBuilder::new("s");
        let r1 = b.relation("R1", &["a", "b"], &["a"]).unwrap();
        let r2 = b.relation("R2", &["x"], &["x"]).unwrap();
        let err = b.foreign_key("f", r1, &["a", "b"], r2, &["x"]).unwrap_err();
        assert!(matches!(err, SchemaError::ForeignKeyArityMismatch { .. }));
    }

    #[test]
    fn foreign_key_by_names_resolves() {
        let mut b = SchemaBuilder::new("s");
        b.relation("R1", &["a"], &["a"]).unwrap();
        b.relation("R2", &["x"], &["x"]).unwrap();
        let fk = b
            .foreign_key_by_names("f", "R1", &["a"], "R2", &["x"])
            .unwrap();
        assert_eq!(fk, FkId(0));
        assert!(b
            .foreign_key_by_names("g", "R1", &["a"], "Nope", &["x"])
            .is_err());
    }

    #[test]
    fn duplicate_foreign_key_is_rejected() {
        let mut b = SchemaBuilder::new("s");
        let r1 = b.relation("R1", &["a"], &["a"]).unwrap();
        let r2 = b.relation("R2", &["x"], &["x"]).unwrap();
        b.foreign_key("f", r1, &["a"], r2, &["x"]).unwrap();
        assert_eq!(
            b.foreign_key("f", r1, &["a"], r2, &["x"]).unwrap_err(),
            SchemaError::DuplicateForeignKey("f".into())
        );
    }

    #[test]
    fn display_renders_relations_and_fks() {
        let s = auction();
        let rendered = s.to_string();
        assert!(rendered.contains("Buyer(id, calls)"));
        assert!(rendered.contains("f1: Bids{buyerId} -> Buyer{id}"));
    }

    #[test]
    fn a_schema_holds_at_most_65536_relations_and_foreign_keys() {
        let mut b = SchemaBuilder::new("s");
        for k in 0..MAX_RELATIONS {
            let id = b.relation(&format!("R{k}"), &["a"], &["a"]).unwrap();
            assert_eq!(id.index(), k);
        }
        assert_eq!(
            b.relation("R65536", &["a"], &["a"]).unwrap_err(),
            SchemaError::TooManyRelations
        );
        for k in 0..MAX_FOREIGN_KEYS {
            let id = b
                .foreign_key(&format!("f{k}"), RelId(1), &["a"], RelId(0), &["a"])
                .unwrap();
            assert_eq!(id.index(), k);
        }
        assert_eq!(
            b.foreign_key("f65536", RelId(1), &["a"], RelId(0), &["a"])
                .unwrap_err(),
            SchemaError::TooManyForeignKeys
        );
        let schema = b.build();
        assert_eq!(schema.relation_count(), 65_536);
        assert_eq!(schema.foreign_key_count(), 65_536);
    }
}
