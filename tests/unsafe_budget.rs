//! Workspace unsafe budget, and the manifest rule that keeps the oracle crate out of
//! production builds.
//!
//! The workspace forbids `unsafe_code` via `[workspace.lints]`; exactly one crate opts out of
//! that inheritance, for a documented reason: `mvrc-serve`, whose `signal.rs` installs the
//! SIGTERM/SIGINT handler. Every other crate is compiled with `unsafe_code = "forbid"`.
//!
//! This test is the budget's enforcement: it scans every source file in `crates/` and fails
//! when an `unsafe` token (outside comments and string literals) appears in any file not on
//! the allowlist, or when an allowlisted file's count changes. Growing the budget is a
//! deliberate act: update the table below *and* the module docs of the file in question.
//!
//! `mvrc-oracles` holds the literal reference implementations the test suites check against.
//! `the_oracle_crate_is_only_a_dev_dependency` scans the workspace manifests and perfbench's
//! and fails when one names it outside a `[dev-dependencies]` table.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Allowlisted files (relative to the repo root) and their exact `unsafe` token budgets.
const BUDGET: &[(&str, usize)] = &[("crates/serve/src/signal.rs", 1)];

/// Crates allowed to *not* inherit `[lints] workspace = true` (they re-declare their own
/// `[lints.rust]` table without `unsafe_code = "forbid"`).
const LINT_OPT_OUTS: &[&str] = &["serve"];

/// Strips line comments, (nested) block comments, normal and raw string literals, so that
/// `unsafe` mentioned in docs or messages does not count against the budget.
fn strip_comments_and_strings(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'r' if matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#')) => {
                // Raw string literal: r"..." or r#"..."# (any number of hashes).
                let mut hashes = 0;
                let mut j = i + 1;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    j += 1;
                    'raw: while j < bytes.len() {
                        if bytes[j] == b'"' {
                            let mut k = j + 1;
                            let mut seen = 0;
                            while seen < hashes && bytes.get(k) == Some(&b'#') {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                j = k;
                                break 'raw;
                            }
                        }
                        j += 1;
                    }
                    i = j;
                } else {
                    out.push(bytes[i] as char);
                    i += 1;
                }
            }
            b'"' => {
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
            }
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    out
}

/// Counts whole-word `unsafe` tokens in already-stripped source.
fn count_unsafe(stripped: &str) -> usize {
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let bytes = stripped.as_bytes();
    let mut count = 0;
    let mut start = 0;
    while let Some(pos) = stripped[start..].find("unsafe") {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let after_ok = at + 6 >= bytes.len() || !is_ident(bytes[at + 6]);
        if before_ok && after_ok {
            count += 1;
        }
        start = at + 6;
    }
    count
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source tree") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR of the facade package is the repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn unsafe_stays_within_the_documented_budget() {
    let root = repo_root();
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    assert!(
        sources.len() > 20,
        "source scan looks broken: only {} files found",
        sources.len()
    );

    let budget: BTreeMap<&str, usize> = BUDGET.iter().copied().collect();
    let mut violations = Vec::new();
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for path in &sources {
        let rel = path
            .strip_prefix(&root)
            .expect("source under repo root")
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(path).expect("readable source file");
        let count = count_unsafe(&strip_comments_and_strings(&src));
        if count == 0 {
            continue;
        }
        seen.insert(rel.clone(), count);
        match budget.get(rel.as_str()) {
            Some(&allowed) if count == allowed => {}
            Some(&allowed) => violations.push(format!(
                "{rel}: {count} unsafe tokens, budget is {allowed} — update the budget table \
                 and the module docs if this growth is deliberate"
            )),
            None => violations.push(format!(
                "{rel}: {count} unsafe tokens in a file outside the allowlist — new unsafe \
                 requires a documented budget entry"
            )),
        }
    }
    // Allowlisted files must still exist (a rename would silently retire its budget).
    for (rel, _) in BUDGET {
        assert!(
            seen.contains_key(*rel),
            "allowlisted file {rel} no longer contains unsafe (or was moved); prune the budget"
        );
    }
    assert!(
        violations.is_empty(),
        "unsafe budget violations:\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn every_crate_inherits_the_workspace_lints_except_the_documented_opt_outs() {
    let root = repo_root();
    let workspace_toml =
        fs::read_to_string(root.join("Cargo.toml")).expect("workspace manifest readable");
    assert!(
        workspace_toml.contains("unsafe_code = \"forbid\""),
        "the workspace lint table must forbid unsafe_code"
    );

    for entry in fs::read_dir(root.join("crates")).expect("crates dir readable") {
        let dir = entry.expect("readable dir entry").path();
        let name = dir
            .file_name()
            .expect("crate dir name")
            .to_string_lossy()
            .to_string();
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("crate manifest readable");
        let inherits = manifest.contains("[lints]") && manifest.contains("workspace = true");
        if LINT_OPT_OUTS.contains(&name.as_str()) {
            assert!(
                !inherits,
                "crate `{name}` is on the lint opt-out list but inherits the workspace lints; \
                 remove it from LINT_OPT_OUTS"
            );
        } else {
            assert!(
                inherits,
                "crate `{name}` does not inherit `[lints] workspace = true`; unsafe_code would \
                 not be forbidden there"
            );
        }
    }
}

/// The manifest lines that name `mvrc-oracles` outside a `[dev-dependencies]` table (or the
/// workspace's declaration of it, or its own package name), as `table: line`.
fn oracle_mentions_outside_dev_dependencies(manifest: &str) -> Vec<String> {
    let mut table = String::new();
    let mut found = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line.to_string();
        } else if line.contains("mvrc-oracles")
            && !line.starts_with('#')
            && !table.ends_with("dev-dependencies]")
            && table != "[workspace.dependencies]"
            && !(table == "[package]" && line.starts_with("name"))
        {
            found.push(format!("{table}: {line}"));
        }
    }
    found
}

#[test]
fn the_oracle_crate_is_only_a_dev_dependency() {
    let root = repo_root();
    let mut manifests = vec![root.join("Cargo.toml"), root.join("perfbench/Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates dir readable") {
        manifests.push(entry.expect("readable dir entry").path().join("Cargo.toml"));
    }
    let mut violations = Vec::new();
    for manifest in &manifests {
        let text = fs::read_to_string(manifest).expect("manifest readable");
        for mention in oracle_mentions_outside_dev_dependencies(&text) {
            violations.push(format!("{}: {mention}", manifest.display()));
        }
    }
    assert!(
        violations.is_empty(),
        "mvrc-oracles is a test-only crate; list it under [dev-dependencies] only:\n  {}",
        violations.join("\n  ")
    );
}

#[cfg(test)]
mod scanner_tests {
    use super::*;

    #[test]
    fn comments_and_strings_do_not_count() {
        let src = r##"
            // unsafe in a line comment
            /* unsafe in a /* nested */ block comment */
            let s = "unsafe in a string";
            let r = r#"unsafe in a raw string"#;
            let n = "escaped \" unsafe still in string";
            fn not_unsafe_fn() {}
        "##;
        assert_eq!(count_unsafe(&strip_comments_and_strings(src)), 0);
    }

    #[test]
    fn the_manifest_scan_flags_a_production_dependency_on_the_oracles() {
        let manifest = r#"
            [package]
            name = "mvrc-oracles"
            [workspace.dependencies]
            mvrc-oracles = { path = "crates/oracles" }
            [dependencies]
            mvrc-oracles = { workspace = true }
            [dev-dependencies]
            mvrc-oracles = { workspace = true }
            [target.'cfg(unix)'.dev-dependencies]
            mvrc-oracles = { workspace = true }
        "#;
        assert_eq!(
            oracle_mentions_outside_dev_dependencies(manifest),
            ["[dependencies]: mvrc-oracles = { workspace = true }"]
        );
    }

    #[test]
    fn real_unsafe_tokens_count_once_each() {
        let src = "unsafe fn f() { unsafe { g() } } // unsafe";
        assert_eq!(count_unsafe(&strip_comments_and_strings(src)), 2);
    }
}
