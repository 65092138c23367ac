//! CLI for the datagrid token-level static analyzer.
//!
//! ```text
//! datagrid-lint [--deny] [--root <path>]
//! ```
//!
//! Advisory by default: findings print but the exit code stays 0 so a
//! developer can run it mid-refactor. `--deny` is the CI mode — any
//! finding that neither an inline allow nor `lint-allow.txt` covers,
//! including a stale allow at either layer, exits 1.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: datagrid-lint [--deny] [--root <path>]";

fn main() -> ExitCode {
    let mut deny = false;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--root" => {
                let Some(p) = args.next() else {
                    eprintln!("datagrid-lint: --root needs a path");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(p);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("datagrid-lint: unknown argument `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let report = match datagrid_lint::run(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("datagrid-lint: {err}");
            return ExitCode::from(2);
        }
    };

    for finding in &report.findings {
        println!("{finding}");
    }
    println!(
        "datagrid-lint: {} file(s) scanned, {} finding(s), {} allowlisted",
        report.files_scanned,
        report.findings.len(),
        report.allowed
    );
    if deny && !report.is_clean() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
