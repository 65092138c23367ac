//! # datagrid-lint
//!
//! Token-level static analyzer for the datagrid workspace. The
//! simulation makes determinism and robustness promises that neither
//! `rustc` nor clippy can check, so this crate encodes them as rules
//! over a real (still dependency-free) analysis pipeline:
//!
//! ```text
//! lexer  →  item index  →  call graph  →  rules  →  allowlists
//! (spans)   (fns, cfg(test),  (export      (token    (inline + file)
//!            directives)       reach)       patterns)
//! ```
//!
//! | rule | what it denies | where |
//! |---|---|---|
//! | `no-unwrap` / `no-expect` | `.unwrap()` / `.expect(…)` | library code |
//! | `no-panic` | `panic!` / `unreachable!` / `todo!` / `unimplemented!` | library code |
//! | `no-wallclock` | `Instant::now` / `SystemTime::now` | simulation crates |
//! | `no-hashmap-export` | `HashMap` anywhere | export crates (`obs`) |
//! | `hash-iter-export` | `HashMap`/`HashSet` reachable from a render/export root | every crate |
//! | `no-println` | console macros | library crates |
//! | `forbid-unsafe` | crate root missing `#![forbid(unsafe_code)]` | every crate |
//! | `float-eq` | `==`/`!=` against float literals | outside sanctioned modules |
//! | `wildcard-match` | `_ =>` over model-checked event/state enums | every crate |
//! | `stale-allow` / `stale-inline-allow` / `bad-directive` | suppressions that no longer bite, or do not parse | hygiene |
//!
//! Allocation on the simulation's hot paths is checked by measurement
//! instead, in the counting-allocator tests (`crates/simnet/tests/
//! alloc_steady.rs`, `crates/core/tests/alloc_steady.rs`,
//! `crates/sysmon/tests/alloc_battery.rs`); truncating `as` casts by
//! `clippy::cast_possible_truncation` in the crates that mint ids.
//!
//! Suppression layers, from narrowest to widest:
//!
//! 1. `// lint: allow(<rule>) -- <reason>` on the offending line (or the
//!    line above) — site-level, audited, reported when stale.
//! 2. `lint-allow.txt` `<rule> <path> -- <reason>` — file-level, audited,
//!    reported when stale.
//!
//! `--deny` fails on any finding neither layer covers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod callgraph;
pub mod index;
pub mod lexer;
pub mod rules;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub use rules::Config;

/// One rule violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier, e.g. `float-eq`.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Enclosing function name, or `file` outside any function.
    pub scope: String,
    /// What was matched, trimmed for display.
    pub excerpt: String,
}

impl Finding {
    /// A finding about a whole file (or a support file), outside any
    /// function.
    fn file_level(rule: &'static str, path: &str, line: usize, excerpt: String) -> Self {
        Finding {
            rule,
            path: path.to_string(),
            line,
            scope: "file".to_string(),
            excerpt,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] ({}) {}",
            self.path, self.line, self.rule, self.scope, self.excerpt
        )
    }
}

/// A parsed `lint-allow.txt` entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule the exception applies to.
    pub rule: String,
    /// Workspace-relative path the exception covers.
    pub path: String,
    /// Mandatory human justification (text after `--`).
    pub reason: String,
    /// Line in `lint-allow.txt`, for stale-entry reporting.
    pub line: usize,
}

/// Scanner outcome: surviving findings plus walk statistics.
#[derive(Debug, Default)]
pub struct Report {
    /// Unallowed findings (the `--deny` gate), including hygiene
    /// findings (stale allows, bad directives).
    pub findings: Vec<Finding>,
    /// Findings suppressed by inline or file-level allowlists.
    pub allowed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the tree conforms (nothing unallowed to report).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Errors from walking the workspace or parsing support files.
#[derive(Debug)]
pub enum LintError {
    /// The workspace root did not look like this repository.
    BadRoot(PathBuf),
    /// An allowlist line did not parse as `<rule> <path> -- <reason>`.
    BadAllowEntry {
        /// 1-based line in the allowlist file.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// Filesystem failure, with the path that caused it.
    Io(PathBuf, std::io::Error),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::BadRoot(p) => {
                write!(f, "{} does not contain a crates/ directory", p.display())
            }
            LintError::BadAllowEntry { line, text } => write!(
                f,
                "lint-allow.txt:{line}: expected `<rule> <path> -- <reason>`, got `{text}`"
            ),
            LintError::Io(p, e) => write!(f, "{}: {e}", p.display()),
        }
    }
}

impl std::error::Error for LintError {}

/// True when the whole file is test code by location or naming, so every
/// line is exempt from the library rules.
fn is_test_file(rel_path: &str) -> bool {
    rel_path.contains("/tests/") || rel_path.ends_with("/tests.rs")
}

/// True for executable entry points (`src/bin/*`, `main.rs`): panicking
/// on a broken invocation is idiomatic there, and stdout is their output
/// channel.
fn is_bin_file(rel_path: &str) -> bool {
    rel_path.contains("/src/bin/") || rel_path.ends_with("/main.rs")
}

/// Checks a crate root for the `#![forbid(unsafe_code)]` attribute.
pub fn check_forbid_unsafe(rel_path: &str, source: &str) -> Option<Finding> {
    if source.contains("#![forbid(unsafe_code)]") {
        None
    } else {
        Some(Finding::file_level(
            "forbid-unsafe",
            rel_path,
            0,
            "crate root is missing #![forbid(unsafe_code)]".to_string(),
        ))
    }
}

/// Parses `lint-allow.txt`. Blank lines and `#` comments are skipped;
/// everything else must be `<rule> <path> -- <reason>`.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, LintError> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || LintError::BadAllowEntry {
            line: idx + 1,
            text: line.to_string(),
        };
        let (head, reason) = line.split_once(" -- ").ok_or_else(bad)?;
        let (rule, path) = head.trim().split_once(' ').ok_or_else(bad)?;
        if rule.is_empty() || path.trim().is_empty() || reason.trim().is_empty() {
            return Err(bad());
        }
        entries.push(AllowEntry {
            rule: rule.to_string(),
            path: path.trim().to_string(),
            reason: reason.trim().to_string(),
            line: idx + 1,
        });
    }
    Ok(entries)
}

/// One analyzed source file, kept so the crate-level call graph can see
/// all files at once.
struct AnalyzedFile {
    rel: String,
    source: String,
    lexed: lexer::Lexed,
    index: index::FileIndex,
}

impl AnalyzedFile {
    fn new(rel: String, source: String) -> Self {
        let lexed = lexer::lex(&source);
        let index = index::index_file(&source, &lexed, is_test_file(&rel));
        AnalyzedFile {
            rel,
            source,
            lexed,
            index,
        }
    }

    fn as_crate_file(&self) -> callgraph::CrateFile<'_> {
        callgraph::CrateFile {
            src: &self.source,
            lexed: &self.lexed,
            index: &self.index,
        }
    }
}

/// Scans one file in isolation (intra-file call graph only). The
/// fixture tests and one-off checks use this; [`run`] uses the
/// crate-level path below.
pub fn scan_standalone(
    cfg: &Config,
    crate_name: &str,
    rel_path: &str,
    source: &str,
) -> Vec<Finding> {
    let file = AnalyzedFile::new(rel_path.to_string(), source.to_string());
    let export = callgraph::export_reach(&[file.as_crate_file()]);
    let (mut findings, _allowed) = assemble_file_findings(cfg, crate_name, &file, &export[0]);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Runs rules over one analyzed file and applies the *inline* allow
/// layer. Returns (surviving findings, inline-allowed count).
fn assemble_file_findings(
    cfg: &Config,
    crate_name: &str,
    file: &AnalyzedFile,
    export: &[bool],
) -> (Vec<Finding>, usize) {
    let ctx = rules::FileContext {
        cfg,
        crate_name,
        rel_path: &file.rel,
        src: &file.source,
        lexed: &file.lexed,
        index: &file.index,
        export,
        is_bin: is_bin_file(&file.rel),
    };
    let lines: Vec<&str> = file.source.lines().collect();
    let mut findings: Vec<Finding> = rules::scan_file(&ctx)
        .into_iter()
        .map(|rf| Finding {
            rule: rf.rule,
            path: file.rel.clone(),
            line: rf.line as usize,
            scope: rf
                .token
                .and_then(|t| file.index.enclosing_item(t))
                .map(|i| file.index.items[i].name.clone())
                .unwrap_or_else(|| "file".to_string()),
            excerpt: lines
                .get(rf.line.saturating_sub(1) as usize)
                .map(|l| l.trim().chars().take(96).collect())
                .unwrap_or_default(),
        })
        .collect();

    if file.rel.ends_with("/lib.rs") {
        findings.extend(check_forbid_unsafe(&file.rel, &file.source));
    }
    for (line, body) in &file.index.bad_directives {
        findings.push(Finding::file_level(
            "bad-directive",
            &file.rel,
            *line as usize,
            format!("unparseable directive `lint: {body}`"),
        ));
    }

    // Inline allow layer: `// lint: allow(rule) -- reason` suppresses
    // the rule on its own line (trailing comment) or the next line
    // (directive above).
    let mut used = vec![false; file.index.allows.len()];
    let mut allowed = 0usize;
    findings.retain(|f| {
        for (ai, allow) in file.index.allows.iter().enumerate() {
            let l = allow.line as usize;
            if allow.rule == f.rule && (f.line == l || f.line == l + 1) {
                used[ai] = true;
                allowed += 1;
                return false;
            }
        }
        true
    });
    for (ai, allow) in file.index.allows.iter().enumerate() {
        if !used[ai] {
            findings.push(Finding::file_level(
                "stale-inline-allow",
                &file.rel,
                allow.line as usize,
                format!(
                    "inline allow for `{}` suppresses nothing — delete it",
                    allow.rule
                ),
            ));
        }
    }
    (findings, allowed)
}

fn read(path: &Path) -> Result<String, LintError> {
    fs::read_to_string(path).map_err(|e| LintError::Io(path.to_path_buf(), e))
}

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = fs::read_dir(dir).map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
        let path = entry.path();
        if path.is_dir() {
            rust_files_under(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks `crates/*/src` under `root`, applies every rule per crate
/// (lexer → index → call graph → rules), subtracts both allow layers,
/// and reports stale entries at each.
pub fn run(root: &Path) -> Result<Report, LintError> {
    let cfg = Config::default();
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(LintError::BadRoot(root.to_path_buf()));
    }

    let mut report = Report::default();
    let mut findings = Vec::new();

    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| LintError::Io(crates_dir.clone(), e))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    crate_dirs.sort();

    for crate_dir in &crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut files = Vec::new();
        rust_files_under(&crate_dir.join("src"), &mut files)?;
        files.sort();

        // Analyze every file up front so the call graph sees the crate.
        let mut analyzed: Vec<AnalyzedFile> = Vec::with_capacity(files.len());
        for file in &files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(file)
                .to_string_lossy()
                .replace('\\', "/");
            analyzed.push(AnalyzedFile::new(rel, read(file)?));
        }
        report.files_scanned += analyzed.len();
        let crate_files: Vec<callgraph::CrateFile<'_>> =
            analyzed.iter().map(AnalyzedFile::as_crate_file).collect();
        let export = callgraph::export_reach(&crate_files);
        for (file, export) in analyzed.iter().zip(&export) {
            let (file_findings, inline_allowed) =
                assemble_file_findings(&cfg, &crate_name, file, export);
            report.allowed += inline_allowed;
            findings.extend(file_findings);
        }
    }

    // File-level allowlist.
    let allow_path = root.join("lint-allow.txt");
    let allow = if allow_path.is_file() {
        parse_allowlist(&read(&allow_path)?)?
    } else {
        Vec::new()
    };
    let mut used = vec![false; allow.len()];
    for finding in findings {
        let covered = allow
            .iter()
            .position(|a| a.rule == finding.rule && a.path == finding.path);
        match covered {
            Some(i) => {
                used[i] = true;
                report.allowed += 1;
            }
            None => report.findings.push(finding),
        }
    }
    for (entry, used) in allow.iter().zip(&used) {
        if !used {
            report.findings.push(Finding::file_level(
                "stale-allow",
                "lint-allow.txt",
                entry.line,
                format!(
                    "entry `{} {}` no longer matches any finding — delete it",
                    entry.rule, entry.path
                ),
            ));
        }
    }

    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_scan_matches_v1_semantics() {
        let cfg = Config::default();
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); z.expect(\"boom\"); }\n}\nfn h() { w.expect(\"msg\"); }\n";
        let found = scan_standalone(&cfg, "core", "crates/core/src/x.rs", src);
        let rules: Vec<_> = found.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(rules, vec![("no-unwrap", 1), ("no-expect", 6)]);
        assert_eq!(found[0].scope, "f");
        assert_eq!(found[1].scope, "h");
    }

    #[test]
    fn inline_allow_suppresses_and_goes_stale() {
        let cfg = Config::default();
        let src = "fn f() { x.expect(\"invariant\"); } // lint: allow(no-expect) -- audited: module invariant\n";
        assert!(scan_standalone(&cfg, "core", "crates/core/src/x.rs", src).is_empty());

        let above = "// lint: allow(no-expect) -- audited: module invariant\nfn f() { x.expect(\"invariant\"); }\n";
        assert!(scan_standalone(&cfg, "core", "crates/core/src/x.rs", above).is_empty());

        let stale = "// lint: allow(no-expect) -- nothing here\nfn f() { let _ = 1; }\n";
        let found = scan_standalone(&cfg, "core", "crates/core/src/x.rs", stale);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "stale-inline-allow");
    }

    #[test]
    fn forbid_unsafe_check() {
        assert!(check_forbid_unsafe("crates/a/src/lib.rs", "#![forbid(unsafe_code)]\n").is_none());
        let f = check_forbid_unsafe("crates/a/src/lib.rs", "pub mod x;\n").expect("finding");
        assert_eq!(f.rule, "forbid-unsafe");
        assert_eq!(f.line, 0);
    }

    #[test]
    fn allowlist_parses_and_rejects_reasonless_entries() {
        let ok = parse_allowlist(
            "# audited exceptions\n\
             no-panic crates/simnet/src/engine.rs -- documented # Panics contract\n",
        )
        .expect("parses");
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].rule, "no-panic");
        assert!(parse_allowlist("no-panic crates/x.rs\n").is_err());
        assert!(parse_allowlist("no-panic -- why\n").is_err());
    }

    #[test]
    fn bin_files_are_exempt_from_library_rules() {
        let cfg = Config::default();
        let src = "fn main() { println!(\"report\"); cfg.unwrap(); }\n";
        assert!(scan_standalone(&cfg, "testbed", "crates/testbed/src/bin/run.rs", src).is_empty());
        let lib = scan_standalone(&cfg, "testbed", "crates/testbed/src/lib.rs", src);
        assert!(lib.iter().any(|f| f.rule == "no-println"));
    }
}
