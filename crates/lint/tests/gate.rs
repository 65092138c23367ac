//! End-to-end proof that `--deny` bites. A synthetic workspace starts
//! clean; an injected `.unwrap()` in library code must fail the run, and
//! so must a suppression at either allow layer that no longer suppresses
//! anything — the allowlists can only shrink.

use datagrid_lint::run;
use std::fs;
use std::path::PathBuf;

struct TempWorkspace {
    root: PathBuf,
}

impl TempWorkspace {
    fn new(tag: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("datagrid-lint-gate-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/demo/src")).expect("mkdir");
        TempWorkspace { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        fs::write(self.root.join(rel), contents).expect("write workspace file");
    }

    /// Rules of every finding the run reports.
    fn rules(&self) -> Vec<&'static str> {
        let report = run(&self.root).expect("walks");
        assert_eq!(report.is_clean(), report.findings.is_empty());
        report.findings.iter().map(|f| f.rule).collect()
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const LIB: &str = "crates/demo/src/lib.rs";
const CLEAN: &str = "#![forbid(unsafe_code)]\nfn quiet(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";

#[test]
fn gate_fails_on_new_findings_and_stale_allows() {
    let ws = TempWorkspace::new("gate");
    ws.write(LIB, CLEAN);
    assert!(ws.rules().is_empty(), "clean workspace reported findings");

    // 1. An injected `.unwrap()` in library code is a finding.
    ws.write(
        LIB,
        "#![forbid(unsafe_code)]\nfn brittle(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    assert_eq!(ws.rules(), vec!["no-unwrap"]);

    // 2. A `lint-allow.txt` entry that matches nothing is stale.
    ws.write(LIB, CLEAN);
    ws.write(
        "lint-allow.txt",
        "no-expect crates/demo/src/lib.rs -- the expect it covered is gone\n",
    );
    assert_eq!(ws.rules(), vec!["stale-allow"]);
    fs::remove_file(ws.root.join("lint-allow.txt")).expect("remove allowlist");

    // 3. A leftover inline allow that suppresses nothing is stale.
    ws.write(
        LIB,
        &format!(
            "{CLEAN}// lint: allow(no-panic) -- the panic below was removed\nfn calm() {{}}\n"
        ),
    );
    assert_eq!(ws.rules(), vec!["stale-inline-allow"]);
}
