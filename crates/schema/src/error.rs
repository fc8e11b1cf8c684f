//! Error type for schema construction.

use std::fmt;

/// Errors that can arise while building a [`Schema`](crate::Schema).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A relation with the same name already exists.
    DuplicateRelation(String),
    /// Two attributes of the same relation share a name.
    DuplicateAttribute {
        /// Relation being defined.
        relation: String,
        /// The offending attribute name.
        attribute: String,
    },
    /// A relation declares more attributes than supported.
    TooManyAttributes {
        /// Relation being defined.
        relation: String,
        /// Number of declared attributes.
        count: usize,
    },
    /// A relation was declared without attributes.
    EmptyRelation(String),
    /// An attribute referenced by name does not exist in the relation.
    UnknownAttribute {
        /// Relation being referenced.
        relation: String,
        /// The unknown attribute name.
        attribute: String,
    },
    /// A relation referenced by name does not exist.
    UnknownRelation(String),
    /// A primary key was declared empty.
    EmptyPrimaryKey(String),
    /// The schema already declares as many relations as [`RelId`](crate::RelId) can number.
    TooManyRelations,
    /// The schema already declares as many foreign keys as [`FkId`](crate::FkId) can number.
    TooManyForeignKeys,
    /// A foreign key with the same name already exists.
    DuplicateForeignKey(String),
    /// A foreign key maps between attribute lists of different lengths.
    ForeignKeyArityMismatch {
        /// Name of the foreign key.
        foreign_key: String,
        /// Number of attributes on the domain side.
        dom_attrs: usize,
        /// Number of attributes on the range side.
        range_attrs: usize,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::DuplicateRelation(name) => {
                write!(f, "relation `{name}` is declared twice")
            }
            SchemaError::DuplicateAttribute {
                relation,
                attribute,
            } => {
                write!(
                    f,
                    "attribute `{attribute}` is declared twice in relation `{relation}`"
                )
            }
            SchemaError::TooManyAttributes { relation, count } => {
                write!(
                    f,
                    "relation `{relation}` declares {count} attributes, more than the supported maximum of {}",
                    crate::attrs::MAX_ATTRS
                )
            }
            SchemaError::EmptyRelation(name) => {
                write!(f, "relation `{name}` must declare at least one attribute")
            }
            SchemaError::UnknownAttribute {
                relation,
                attribute,
            } => {
                write!(
                    f,
                    "relation `{relation}` has no attribute named `{attribute}`"
                )
            }
            SchemaError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            SchemaError::EmptyPrimaryKey(name) => {
                write!(f, "relation `{name}` must declare a non-empty primary key")
            }
            SchemaError::TooManyRelations => write!(
                f,
                "the schema already declares {} relations, the most it can hold",
                crate::relation::MAX_RELATIONS
            ),
            SchemaError::TooManyForeignKeys => write!(
                f,
                "the schema already declares {} foreign keys, the most it can hold",
                crate::foreign_key::MAX_FOREIGN_KEYS
            ),
            SchemaError::DuplicateForeignKey(name) => {
                write!(f, "foreign key `{name}` is declared twice")
            }
            SchemaError::ForeignKeyArityMismatch {
                foreign_key,
                dom_attrs,
                range_attrs,
            } => {
                write!(
                    f,
                    "foreign key `{foreign_key}` maps {dom_attrs} attributes to {range_attrs} attributes"
                )
            }
        }
    }
}

impl std::error::Error for SchemaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_names() {
        let e = SchemaError::DuplicateRelation("Buyer".into());
        assert!(e.to_string().contains("Buyer"));
        let e = SchemaError::UnknownAttribute {
            relation: "Bids".into(),
            attribute: "x".into(),
        };
        assert!(e.to_string().contains("Bids"));
        assert!(e.to_string().contains("`x`"));
        let e = SchemaError::ForeignKeyArityMismatch {
            foreign_key: "f1".into(),
            dom_attrs: 2,
            range_attrs: 1,
        };
        assert!(e.to_string().contains("f1"));
    }
}
