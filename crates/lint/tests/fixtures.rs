//! Fixture corpus: one known-bad file per rule family plus known-good
//! trap files, scanned exactly like workspace sources. The bad files
//! pin *which* rule fires and where; the good files pin the constructs
//! that defeated the v1 line scanner (multi-line block comments,
//! multi-line raw strings) plus the inline-allow layer.

use datagrid_lint::{scan_standalone, Config};
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Scans a fixture as if it were a simnet source file (simulation rules
/// apply; console/export-crate rules do not).
fn scan(name: &str) -> Vec<(String, usize)> {
    let cfg = Config::default();
    let rel = format!("crates/simnet/src/fixture_{}", name.replace('/', "_"));
    scan_standalone(&cfg, "simnet", &rel, &fixture(name))
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

fn rules(found: &[(String, usize)]) -> Vec<&str> {
    found.iter().map(|(r, _)| r.as_str()).collect()
}

#[test]
fn determinism_fixture_flags_hash_containers_feeding_exports() {
    let found = scan("bad/determinism.rs");
    assert!(
        found.iter().all(|(r, _)| r == "hash-iter-export"),
        "got: {found:?}"
    );
    // render_summary (export root) and collect_counts (reachable) are
    // both flagged; `unrelated` is not.
    assert_eq!(found.len(), 4, "got: {found:?}");
    assert!(found.iter().all(|(_, line)| *line < 27), "got: {found:?}");
}

#[test]
fn float_eq_fixture() {
    let found = scan("bad/float_eq.rs");
    assert_eq!(
        rules(&found),
        vec!["float-eq", "float-eq"],
        "got: {found:?}"
    );
}

#[test]
fn wildcard_fixture_flags_watched_enums_only() {
    let found = scan("bad/wildcard.rs");
    assert_eq!(rules(&found), vec!["wildcard-match"], "got: {found:?}");
    assert_eq!(found[0].1, 6, "got: {found:?}");
}

#[test]
fn legacy_fixture_covers_the_v1_rule_families() {
    let found = scan("bad/legacy.rs");
    assert_eq!(
        rules(&found),
        vec![
            "no-unwrap",
            "no-expect",
            "no-panic",
            "no-println",
            "no-wallclock"
        ],
        "got: {found:?}"
    );
}

#[test]
fn clean_fixture_reports_nothing() {
    let found = scan("good/clean.rs");
    assert!(found.is_empty(), "false positives: {found:?}");
}

#[test]
fn allowed_fixture_reports_nothing_and_allows_are_not_stale() {
    let found = scan("good/allowed.rs");
    assert!(found.is_empty(), "got: {found:?}");
}
