//! The workspace must conform to its own lint rules: `cargo test` fails
//! the moment a denied pattern lands outside the audited allowlist, long
//! before the CI `analysis` job runs.

use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels below the workspace root")
}

#[test]
fn workspace_is_lint_clean() {
    let started = std::time::Instant::now();
    let report = datagrid_lint::run(workspace_root()).expect("workspace walks cleanly");
    let elapsed = started.elapsed();
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}): wrong root?",
        report.files_scanned
    );
    let rendered: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert!(
        report.is_clean(),
        "datagrid-lint found {} violation(s):\n{}",
        rendered.len(),
        rendered.join("\n")
    );
    // The analyzer gates every CI run; keep it interactive-fast. The
    // acceptance budget is ~2s — assert with debug-build headroom.
    assert!(
        elapsed.as_secs_f64() < 2.0,
        "lint walk took {elapsed:?}, budget is 2s"
    );
}

#[test]
fn every_library_crate_forbids_unsafe() {
    let crates_dir = workspace_root().join("crates");
    let mut checked = 0;
    for entry in std::fs::read_dir(&crates_dir).expect("crates/ exists") {
        let lib = entry.expect("readable dir entry").path().join("src/lib.rs");
        if !lib.is_file() {
            continue;
        }
        let source = std::fs::read_to_string(&lib).expect("readable lib.rs");
        assert!(
            source.contains("#![forbid(unsafe_code)]"),
            "{} is missing #![forbid(unsafe_code)]",
            lib.display()
        );
        checked += 1;
    }
    assert_eq!(checked, 9, "expected all nine crate roots to be checked");
}
