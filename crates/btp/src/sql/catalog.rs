//! Catalog declarations of self-contained workload files and the [`Schema`] they build.
//!
//! [`parse_workload`](super::parse_workload) needs an already-built [`Schema`]. For tooling
//! (the `mvrc` command-line analyzer, user-provided workload files) it is more convenient when
//! a single file describes the whole workload — schema *and* programs. The front end therefore
//! accepts a small DDL dialect next to the `PROGRAM` blocks:
//!
//! ```text
//! SCHEMA auction;
//!
//! TABLE Buyer (id, calls, PRIMARY KEY (id));
//! TABLE Bids  (buyerId, bid, PRIMARY KEY (buyerId));
//! TABLE Log   (id, buyerId, bid, PRIMARY KEY (id));
//!
//! FOREIGN KEY f1: Bids (buyerId) REFERENCES Buyer (id);
//! FOREIGN KEY f2: Log  (buyerId) REFERENCES Buyer (id);
//!
//! PROGRAM FindBids(:B, :T) { … }
//! PROGRAM PlaceBid(:B, :V) { … }
//! ```
//!
//! * `SCHEMA <name>;` is optional and only names the catalog.
//! * `TABLE` (or `CREATE TABLE`) lists the attributes in order; the `PRIMARY KEY (…)` clause is
//!   optional — without it the first attribute is the key.
//! * `FOREIGN KEY [<name>:] <dom> (<attrs>) REFERENCES <range> (<attrs>);` declares a foreign
//!   key; the name is optional (`fk1`, `fk2`, … are generated).
//!
//! The parser reads the declarations in the same pass as the programs; this module holds what
//! it collects and builds the [`Schema`] from it once the whole file has parsed.

use crate::error::BtpError;
use mvrc_schema::{Schema, SchemaBuilder};
use std::borrow::Cow;

/// A parsed `TABLE` declaration; its names borrow from the workload text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct TableDecl<'a> {
    pub name: &'a str,
    pub attributes: Vec<&'a str>,
    pub primary_key: Vec<&'a str>,
    pub line: usize,
    pub column: usize,
}

/// A parsed `FOREIGN KEY` declaration; its names borrow from the workload text, except the
/// generated name of an anonymous key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct ForeignKeyDecl<'a> {
    pub name: Cow<'a, str>,
    pub dom: &'a str,
    pub dom_attrs: Vec<&'a str>,
    pub range: &'a str,
    pub range_attrs: Vec<&'a str>,
    pub line: usize,
    pub column: usize,
}

/// The catalog declarations of a workload file, each kind in source order.
#[derive(Debug, Default)]
pub(super) struct Catalog<'a> {
    /// The name of the last `SCHEMA` declaration, if any.
    pub name: Option<&'a str>,
    pub tables: Vec<TableDecl<'a>>,
    pub foreign_keys: Vec<ForeignKeyDecl<'a>>,
}

impl Catalog<'_> {
    /// Builds the declared [`Schema`]. Its errors are semantic, so the caller reports them only
    /// after the whole file parsed.
    pub fn build(&self) -> Result<Schema, BtpError> {
        if self.tables.is_empty() {
            return Err(BtpError::SqlParse {
                line: 1,
                column: 1,
                message: "the workload file declares no TABLE".into(),
            });
        }

        let mut builder = SchemaBuilder::new(self.name.unwrap_or("workload"));
        for table in &self.tables {
            builder
                .relation(table.name, &table.attributes, &table.primary_key)
                .map_err(|e| BtpError::SqlParse {
                    line: table.line,
                    column: table.column,
                    message: format!("invalid TABLE `{}`: {e}", table.name),
                })?;
        }
        for fk in &self.foreign_keys {
            builder
                .foreign_key_by_names(&fk.name, fk.dom, &fk.dom_attrs, fk.range, &fk.range_attrs)
                .map_err(|e| BtpError::SqlParse {
                    line: fk.line,
                    column: fk.column,
                    message: format!("invalid FOREIGN KEY `{}`: {e}", fk.name),
                })?;
        }
        Ok(builder.build())
    }
}

#[cfg(test)]
mod tests {
    use crate::sql::parse_workload_file;

    const AUCTION_FILE: &str = r#"
        SCHEMA auction;

        TABLE Buyer (id, calls, PRIMARY KEY (id));
        TABLE Bids  (buyerId, bid, PRIMARY KEY (buyerId));
        TABLE Log   (id, buyerId, bid, PRIMARY KEY (id));

        FOREIGN KEY f1: Bids (buyerId) REFERENCES Buyer (id);
        FOREIGN KEY f2: Log  (buyerId) REFERENCES Buyer (id);

        PROGRAM FindBids(:B, :T) {
            UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
            SELECT bid FROM Bids WHERE bid >= :T;
        }

        PROGRAM PlaceBid(:B, :V) {
            UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
            SELECT bid INTO :C FROM Bids WHERE buyerId = :B;
            IF :C < :V THEN
                UPDATE Bids SET bid = :V WHERE buyerId = :B;
            ENDIF;
            INSERT INTO Log VALUES (:logId, :B, :V);
        }
    "#;

    #[test]
    fn parses_the_auction_catalog() {
        let schema = parse_workload_file(AUCTION_FILE).unwrap().0;
        assert_eq!(schema.name(), "auction");
        assert_eq!(schema.relation_count(), 3);
        assert_eq!(schema.foreign_key_count(), 2);
        let bids = schema.relation_by_name("Bids").unwrap();
        assert_eq!(bids.attribute_count(), 2);
        assert_eq!(bids.primary_key().len(), 1);
        assert!(schema.foreign_key_by_name("f1").is_some());
    }

    #[test]
    fn parses_a_self_contained_workload_file() {
        let (schema, programs) = parse_workload_file(AUCTION_FILE).unwrap();
        assert_eq!(schema.relation_count(), 3);
        assert_eq!(programs.len(), 2);
        assert_eq!(programs[0].name(), "FindBids");
        assert_eq!(programs[1].name(), "PlaceBid");
        // Foreign-key constraints are inferred from parameter reuse in PlaceBid.
        assert_eq!(programs[1].fk_constraints().len(), 3);
    }

    #[test]
    fn primary_key_defaults_to_the_first_attribute() {
        let schema = parse_workload_file("TABLE T (a, b, c);").unwrap().0;
        let t = schema.relation_by_name("T").unwrap();
        assert!(t.primary_key().contains(t.attr_by_name("a").unwrap()));
        assert_eq!(t.primary_key().len(), 1);
    }

    #[test]
    fn create_table_is_accepted_and_fk_names_are_generated() {
        let text = r#"
            CREATE TABLE Parent (id, payload);
            CREATE TABLE Child (id, parentId, PRIMARY KEY (id));
            FOREIGN KEY Child (parentId) REFERENCES Parent (id);
        "#;
        let schema = parse_workload_file(text).unwrap().0;
        assert_eq!(schema.relation_count(), 2);
        assert_eq!(schema.foreign_key_count(), 1);
        assert!(schema.foreign_key_by_name("fk1").is_some());
    }

    #[test]
    fn composite_keys_and_composite_foreign_keys_parse() {
        let text = r#"
            TABLE District (d_id, d_w_id, d_name, PRIMARY KEY (d_id, d_w_id));
            TABLE Customer (c_id, c_d_id, c_w_id, PRIMARY KEY (c_id, c_d_id, c_w_id));
            FOREIGN KEY f2: Customer (c_d_id, c_w_id) REFERENCES District (d_id, d_w_id);
        "#;
        let schema = parse_workload_file(text).unwrap().0;
        assert_eq!(
            schema
                .relation_by_name("District")
                .unwrap()
                .primary_key()
                .len(),
            2
        );
        let f2 = schema.foreign_key_by_name("f2").unwrap();
        assert_eq!(f2.dom_attrs().len(), 2);
        assert_eq!(f2.range_attrs().len(), 2);
    }

    #[test]
    fn useful_errors_for_malformed_declarations() {
        // No tables at all.
        let err = parse_workload_file("SCHEMA s;").unwrap_err();
        assert!(err.to_string().contains("no TABLE"), "{err}");
        // Unknown attribute in the primary key.
        let err = parse_workload_file("TABLE T (a, b, PRIMARY KEY (zzz));").unwrap_err();
        assert!(err.to_string().contains("invalid TABLE"), "{err}");
        // Foreign key over an undeclared relation.
        let err =
            parse_workload_file("TABLE T (a); FOREIGN KEY T (a) REFERENCES Nope (x);").unwrap_err();
        assert!(err.to_string().contains("invalid FOREIGN KEY"), "{err}");
        // Unexpected top-level token.
        let err = parse_workload_file("TABLE T (a); SELECT a FROM T;").unwrap_err();
        assert!(
            err.to_string().contains("expected a catalog declaration"),
            "{err}"
        );
        // Empty attribute list.
        let err = parse_workload_file("TABLE T ();").unwrap_err();
        assert!(err.to_string().contains("no attributes"), "{err}");
        // Unterminated program block.
        let err = parse_workload_file("TABLE T (a); PROGRAM P() { SELECT a FROM T;").unwrap_err();
        assert!(err.to_string().contains("unterminated"), "{err}");
        // Syntax errors come in source order, and before the semantic catalog errors: the
        // program's `FRM` is reported, not the missing TABLE, nor the bad TABLE after it.
        for text in [
            "PROGRAM P() {\n SELECT a FRM T; }",
            "PROGRAM P() {\n SELECT a FRM T; }\nTABLE T (;",
        ] {
            let err = parse_workload_file(text).unwrap_err();
            assert_eq!(
                err.to_string(),
                "SQL parse error at line 2, column 11: expected `FROM`"
            );
        }
    }

    #[test]
    fn program_only_files_still_need_a_schema() {
        let err = parse_workload_file("PROGRAM P() { }").unwrap_err();
        assert!(err.to_string().contains("no TABLE"));
    }
}
