//! Rule families over the token stream, item index and call graph.
//!
//! Legacy v1 rules (`no-unwrap`, `no-expect`, `no-panic`,
//! `no-wallclock`, `no-hashmap-export`, `no-println`) are re-implemented
//! on tokens, which fixes the v1 sanitizer's blind spots: nothing inside
//! a multi-line block comment or raw string can match, and nothing real
//! can hide in one.
//!
//! Families that need more than one line of context:
//!
//! - **`hash-iter-export`** — `HashMap`/`HashSet` mentioned in any
//!   function reachable from an export root (`render_*`, `*snapshot*`,
//!   `emit_*`, …): hash iteration order must never feed a rendered
//!   artifact. Extends the crate-scoped `no-hashmap-export`.
//! - **`float-eq`** — `==`/`!=` adjacent to a float literal outside the
//!   sanctioned comparison modules (solver tolerances live there on
//!   purpose).
//! - **`wildcard-match`** — `_ =>` arms in matches over the event/state
//!   enums that `core::grid::modelcheck` explores exhaustively; a new
//!   variant must be handled (or rejected) explicitly, never absorbed.

use crate::index::FileIndex;
use crate::lexer::{Lexed, TokenKind};

/// Analyzer configuration: which crates get which scoped rules, which
/// modules may compare floats, which enums must be matched exhaustively.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose clocks must come from the simulation.
    pub simulation_crates: Vec<String>,
    /// Crates whose whole artifact surface bans `HashMap`.
    pub export_crates: Vec<String>,
    /// Crates whose purpose is console reporting (exempt `no-println`).
    pub console_crates: Vec<String>,
    /// Workspace-relative paths allowed to compare floats exactly
    /// (tolerance/verification modules).
    pub sanctioned_float_paths: Vec<String>,
    /// Enums whose matches must not use `_ =>`.
    pub watched_enums: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            simulation_crates: to_owned(&["simnet", "sysmon", "gridftp", "catalog", "core", "obs"]),
            export_crates: to_owned(&["obs"]),
            console_crates: to_owned(&["bench", "lint"]),
            sanctioned_float_paths: to_owned(&[
                // Solver certificates compare against explicit tolerances.
                "crates/simnet/src/verify.rs",
                // Summary statistics order NaN-free samples exactly.
                "crates/simnet/src/stats.rs",
            ]),
            watched_enums: to_owned(&["EventKind", "FaultKind", "FetchPhase", "ReplayStatus"]),
        }
    }
}

fn to_owned(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| (*s).to_string()).collect()
}

/// Everything `scan_file` needs about one file.
pub struct FileContext<'a> {
    /// Analyzer configuration.
    pub cfg: &'a Config,
    /// Directory name under `crates/`.
    pub crate_name: &'a str,
    /// Workspace-relative path with forward slashes.
    pub rel_path: &'a str,
    /// File source.
    pub src: &'a str,
    /// Token stream.
    pub lexed: &'a Lexed,
    /// Item index.
    pub index: &'a FileIndex,
    /// Per-item export reachability (parallel to `index.items`).
    pub export: &'a [bool],
    /// True for `src/bin/*` / `main.rs` entry points.
    pub is_bin: bool,
}

/// A rule hit before excerpt/fingerprint assembly: rule id, 1-based
/// line, and the triggering token index (`None` for file-level hits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFinding {
    /// Stable rule identifier.
    pub rule: &'static str,
    /// 1-based line (0 for whole-file findings).
    pub line: u32,
    /// Index of the triggering token, for scope attribution.
    pub token: Option<usize>,
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const PRINT_MACROS: [&str; 5] = ["println", "eprintln", "print", "eprint", "dbg"];

fn text<'a>(ctx: &FileContext<'a>, i: usize) -> &'a str {
    ctx.lexed
        .tokens
        .get(i)
        .map(|t| t.text(ctx.src))
        .unwrap_or("")
}

fn kind(ctx: &FileContext<'_>, i: usize) -> Option<TokenKind> {
    ctx.lexed.tokens.get(i).map(|t| t.kind)
}

fn is_ident(ctx: &FileContext<'_>, i: usize, any_of: &[&str]) -> bool {
    kind(ctx, i) == Some(TokenKind::Ident) && any_of.contains(&text(ctx, i))
}

fn is_punct(ctx: &FileContext<'_>, i: usize, p: &str) -> bool {
    kind(ctx, i) == Some(TokenKind::Punct) && text(ctx, i) == p
}

fn in_export_reach(ctx: &FileContext<'_>, i: usize) -> bool {
    ctx.index
        .enclosing_item(i)
        .is_some_and(|item| ctx.export.get(item).copied().unwrap_or(false))
}

/// Runs every token-level rule over one file.
pub fn scan_file(ctx: &FileContext<'_>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let toks = &ctx.lexed.tokens;
    let simulation = ctx
        .cfg
        .simulation_crates
        .iter()
        .any(|c| c == ctx.crate_name);
    let export_crate = ctx.cfg.export_crates.iter().any(|c| c == ctx.crate_name);
    let console = ctx.cfg.console_crates.iter().any(|c| c == ctx.crate_name);
    let float_sanctioned = ctx
        .cfg
        .sanctioned_float_paths
        .iter()
        .any(|p| ctx.rel_path == p);
    let watched: Vec<&str> = ctx.cfg.watched_enums.iter().map(String::as_str).collect();

    macro_rules! push {
        ($rule:expr, $i:expr) => {{
            let i = $i;
            out.push(RawFinding {
                rule: $rule,
                line: toks[i].line,
                token: Some(i),
            });
        }};
    }

    for i in 0..toks.len() {
        if ctx.index.in_test(i) {
            continue;
        }

        // --- panic-family and console rules (library code only) -----------
        if !ctx.is_bin {
            if is_punct(ctx, i, ".") && is_punct(ctx, i + 2, "(") {
                if is_ident(ctx, i + 1, &["unwrap"]) {
                    push!("no-unwrap", i + 1);
                } else if is_ident(ctx, i + 1, &["expect"]) {
                    push!("no-expect", i + 1);
                }
            }
            if is_ident(ctx, i, &PANIC_MACROS) && is_punct(ctx, i + 1, "!") {
                push!("no-panic", i);
            }
            if !console && is_ident(ctx, i, &PRINT_MACROS) && is_punct(ctx, i + 1, "!") {
                push!("no-println", i);
            }
        }

        // --- wall clocks in simulation crates ------------------------------
        if simulation
            && is_ident(ctx, i, &["Instant", "SystemTime"])
            && is_punct(ctx, i + 1, "::")
            && is_ident(ctx, i + 2, &["now"])
        {
            push!("no-wallclock", i);
        }

        // --- determinism family --------------------------------------------
        if is_ident(ctx, i, &["HashMap"]) && export_crate {
            push!("no-hashmap-export", i);
        }
        if is_ident(ctx, i, &["HashMap", "HashSet"]) && in_export_reach(ctx, i) {
            push!("hash-iter-export", i);
        }

        // --- float-safety --------------------------------------------------
        if !float_sanctioned
            && (is_punct(ctx, i, "==") || is_punct(ctx, i, "!="))
            && (kind(ctx, i.wrapping_sub(1)) == Some(TokenKind::Float)
                || kind(ctx, i + 1) == Some(TokenKind::Float)
                || (is_punct(ctx, i + 1, "-") && kind(ctx, i + 2) == Some(TokenKind::Float)))
        {
            push!("float-eq", i);
        }

        // --- wildcard-match ------------------------------------------------
        if is_ident(ctx, i, &["match"]) {
            scan_match(ctx, i, &watched, &mut out);
        }
    }
    out
}

/// Scans one `match` expression (starting at the `match` keyword) for a
/// `_ =>` arm while any arm pattern references a watched enum.
fn scan_match(ctx: &FileContext<'_>, at: usize, watched: &[&str], out: &mut Vec<RawFinding>) {
    let toks = &ctx.lexed.tokens;
    // Find the body `{`: first brace at zero paren/bracket depth after
    // the scrutinee.
    let mut paren = 0i64;
    let mut bracket = 0i64;
    let mut open = None;
    for j in at + 1..toks.len() {
        match text(ctx, j) {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "{" if paren == 0 && bracket == 0 => {
                open = Some(j);
                break;
            }
            ";" if paren == 0 && bracket == 0 => return, // not a match expr after all
            _ => {}
        }
    }
    let Some(open) = open else { return };
    let close = ctx
        .index
        .brace_match
        .get(open)
        .copied()
        .unwrap_or(open)
        .min(toks.len().saturating_sub(1));

    let mut depth = 1i64; // inside the body
    let mut paren = 0i64;
    let mut bracket = 0i64;
    let mut in_pattern = true;
    let mut watched_pattern = false;
    let mut wildcards: Vec<usize> = Vec::new();
    for j in open + 1..close {
        let t = text(ctx, j);
        match t {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 1 {
                    in_pattern = true; // end of a block arm body
                }
            }
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "=>" if depth == 1 && paren == 0 && bracket == 0 => in_pattern = false,
            "," if depth == 1 && paren == 0 && bracket == 0 => in_pattern = true,
            _ => {}
        }
        if in_pattern && depth == 1 {
            if kind(ctx, j) == Some(TokenKind::Ident)
                && watched.contains(&t)
                && is_punct(ctx, j + 1, "::")
            {
                watched_pattern = true;
            }
            if t == "_"
                && kind(ctx, j) == Some(TokenKind::Ident)
                && is_punct(ctx, j + 1, "=>")
                && paren == 0
                && bracket == 0
            {
                wildcards.push(j);
            }
        }
    }
    if watched_pattern {
        for w in wildcards {
            out.push(RawFinding {
                rule: "wildcard-match",
                line: toks[w].line,
                token: Some(w),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{self, CrateFile};
    use crate::index::index_file;
    use crate::lexer::lex;

    /// Runs the full single-file pipeline with the default config.
    fn scan(crate_name: &str, rel_path: &str, src: &str) -> Vec<(&'static str, u32)> {
        let cfg = Config::default();
        let lexed = lex(src);
        let index = index_file(src, &lexed, false);
        let files = [CrateFile {
            src,
            lexed: &lexed,
            index: &index,
        }];
        let export = callgraph::export_reach(&files);
        let ctx = FileContext {
            cfg: &cfg,
            crate_name,
            rel_path,
            src,
            lexed: &lexed,
            index: &index,
            export: &export[0],
            is_bin: rel_path.contains("/src/bin/") || rel_path.ends_with("/main.rs"),
        };
        scan_file(&ctx)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn legacy_rules_fire_outside_tests_only() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"p\"); }\n#[cfg(test)]\nmod tests {\n    fn g() { z.unwrap(); }\n}\n";
        let got = scan("core", "crates/core/src/x.rs", src);
        assert_eq!(
            got,
            vec![("no-unwrap", 1), ("no-expect", 1), ("no-panic", 1)]
        );
    }

    #[test]
    fn block_comments_and_raw_strings_do_not_trigger() {
        // The v1 sanitizer's two failure modes, now regression-pinned:
        // commented-out code across lines, and violations inside
        // multi-line raw strings.
        let src = "/*\nfn old() { x.unwrap(); }\n*/\nfn f() {\n    let _s = r#\"\n        y.unwrap();\n        panic!(\"inside string\")\n    \"#;\n}\n";
        assert!(scan("core", "crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn code_after_a_block_comment_close_is_still_scanned() {
        let src = "/* comment\nspanning lines */ fn f() { x.unwrap(); }\n";
        let got = scan("core", "crates/core/src/x.rs", src);
        assert_eq!(got, vec![("no-unwrap", 2)]);
    }

    #[test]
    fn float_eq_fires_near_float_literals_but_not_in_sanctioned_files() {
        let src = "fn f(x: f64) -> bool { x == 0.0 }\n";
        assert_eq!(
            scan("core", "crates/core/src/factors.rs", src),
            vec![("float-eq", 1)]
        );
        assert!(scan("simnet", "crates/simnet/src/verify.rs", src).is_empty());
        // Integer comparisons never fire.
        assert!(scan(
            "core",
            "crates/core/src/x.rs",
            "fn g(n: u32) -> bool { n == 0 }\n"
        )
        .is_empty());
    }

    #[test]
    fn wildcard_match_fires_on_watched_enums_only() {
        let src = "fn f(e: EventKind, n: u32) {\n    match e {\n        EventKind::FlowCompleted => {}\n        _ => {}\n    }\n    match n {\n        0 => {}\n        _ => {}\n    }\n}\n";
        let got = scan("simnet", "crates/simnet/src/x.rs", src);
        assert_eq!(got, vec![("wildcard-match", 4)]);
    }

    #[test]
    fn wildcard_match_sees_through_nested_arms() {
        let src = "fn f(e: EventKind) {\n    match e {\n        EventKind::A => match inner {\n            1 => {}\n            _ => {}\n        },\n        EventKind::B => {}\n    }\n}\n";
        // The inner `_` belongs to a non-watched integer match; the outer
        // match has no wildcard. Nothing fires.
        assert!(scan("simnet", "crates/simnet/src/x.rs", src).is_empty());
    }

    #[test]
    fn hash_iter_export_follows_the_call_graph() {
        let src = "pub fn render_json() -> String { gather() }\nfn gather() -> String { let m: HashMap<u32, u32> = HashMap::default(); String::default() }\nfn unrelated() { let m: HashMap<u32, u32> = HashMap::default(); }\n";
        let got = scan("testbed", "crates/testbed/src/report.rs", src);
        assert_eq!(got, vec![("hash-iter-export", 2), ("hash-iter-export", 2)]);
    }

    #[test]
    fn wallclock_and_println_scoping_matches_v1() {
        let src = "fn t() { let _ = Instant::now(); println!(\"x\"); }\n";
        let got = scan("simnet", "crates/simnet/src/a.rs", src);
        assert_eq!(got, vec![("no-wallclock", 1), ("no-println", 1)]);
        let testbed = scan("testbed", "crates/testbed/src/a.rs", src);
        assert_eq!(testbed, vec![("no-println", 1)]);
        assert!(scan("bench", "crates/bench/src/a.rs", src).is_empty());
        assert!(scan("testbed", "crates/testbed/src/bin/run.rs", src).is_empty());
    }
}
