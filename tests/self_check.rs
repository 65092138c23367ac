//! Source conformance that clippy does not check: every library crate
//! root forbids `unsafe`.

use std::path::Path;

#[test]
fn every_library_crate_forbids_unsafe() {
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
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
    assert_eq!(checked, 8, "expected all eight crate roots to be checked");
}
