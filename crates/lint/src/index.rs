//! Per-file item index on top of the token stream.
//!
//! The index gives every rule the same three answers the v1 line
//! scanner faked with brace counting:
//!
//! 1. **Is this token test code?** `#[cfg(test)]` attributes are
//!    resolved at token level (including `cfg(any(test, …))`, one-line
//!    `#[cfg(test)] mod tests { … }`, and attribute stacks), producing
//!    token spans that rules skip.
//! 2. **Which function owns this token?** Every `fn` item is recorded
//!    with its name and the token range of its body, so findings carry
//!    a stable scope and the call graph has nodes to connect.
//! 3. **What did the author suppress?** `// lint: allow(<rule>) --
//!    <reason>` suppresses that rule on the directive's own line and the
//!    line below. Malformed directives are reported, so the annotation
//!    layer cannot rot silently.

use crate::lexer::{Lexed, Token, TokenKind};

/// One indexed `fn` item.
#[derive(Debug, Clone)]
pub struct Item {
    /// Bare function name (last path segment only).
    pub name: String,
    /// Token indices of the body's `{` and its matching `}`; `None` for
    /// bodiless declarations (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
    /// True when the item lives under `#[cfg(test)]` (or the whole file
    /// is test code by path).
    pub is_test: bool,
    /// Self type of the enclosing `impl` block, if any — the last path
    /// segment (`impl fmt::Display for Finding` → `Finding`). Lets the
    /// call graph resolve `Type::name(…)` to the right `fn name`.
    pub owner: Option<String>,
}

/// A site-level suppression: `// lint: allow(<rule>) -- <reason>`.
/// Applies to findings on the directive's line and the next line, so it
/// works both as a trailing comment and as a line above.
#[derive(Debug, Clone)]
pub struct InlineAllow {
    /// Rule identifier being suppressed.
    pub rule: String,
    /// Mandatory audit note.
    pub reason: String,
    /// 1-based line of the directive.
    pub line: u32,
}

/// Everything the analyzer knows about one file's structure.
#[derive(Debug, Default)]
pub struct FileIndex {
    /// Indexed functions, in source order.
    pub items: Vec<Item>,
    /// Token-index spans (inclusive) that are `#[cfg(test)]` code.
    pub test_spans: Vec<(usize, usize)>,
    /// Site-level suppressions.
    pub allows: Vec<InlineAllow>,
    /// `lint:` directives that did not parse: (line, body).
    pub bad_directives: Vec<(u32, String)>,
    /// Whole file is test code (path under `tests/`, or `#![cfg(test)]`).
    pub file_test: bool,
    /// For each token index of a `{`, the token index of its matching
    /// `}` (self for unbalanced opens).
    pub brace_match: Vec<usize>,
}

impl FileIndex {
    /// True when the token at `tok` is inside test code.
    pub fn in_test(&self, tok: usize) -> bool {
        self.file_test
            || self
                .test_spans
                .iter()
                .any(|&(lo, hi)| tok >= lo && tok <= hi)
    }

    /// Index of the innermost function whose body contains `tok`.
    pub fn enclosing_item(&self, tok: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (span len, idx)
        for (idx, item) in self.items.iter().enumerate() {
            if let Some((open, close)) = item.body {
                if tok >= open && tok <= close {
                    let len = close - open;
                    if best.map(|(l, _)| len < l).unwrap_or(true) {
                        best = Some((len, idx));
                    }
                }
            }
        }
        best.map(|(_, idx)| idx)
    }
}

fn is(tok: &Token, src: &str, kind: TokenKind, text: &str) -> bool {
    tok.kind == kind && tok.text(src) == text
}

/// Builds the index for one lexed file. `file_test` marks files whose
/// path already exempts them (integration tests).
pub fn index_file(src: &str, lexed: &Lexed, file_test: bool) -> FileIndex {
    let toks = &lexed.tokens;
    let mut out = FileIndex {
        file_test,
        brace_match: vec![0; toks.len()],
        ..FileIndex::default()
    };

    // --- Pass 1: brace matching -----------------------------------------
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if is(t, src, TokenKind::Punct, "{") {
            out.brace_match[i] = i; // provisional: unbalanced opens match themselves
            stack.push(i);
        } else if is(t, src, TokenKind::Punct, "}") {
            if let Some(open) = stack.pop() {
                out.brace_match[open] = i;
            }
        }
    }

    // --- Pass 2: cfg(test) spans ----------------------------------------
    // `armed` holds the brace depth at which a `#[cfg(test)]` attribute
    // is waiting for its item's block; a `;` at that depth (bodiless
    // item) disarms it.
    let mut depth = 0usize;
    let mut armed: Option<usize> = None;
    let mut test_stack: Vec<bool> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if is(t, src, TokenKind::Punct, "#") {
            let inner = i + 1 < toks.len() && is(&toks[i + 1], src, TokenKind::Punct, "!");
            let open = i + if inner { 2 } else { 1 };
            if open < toks.len() && is(&toks[open], src, TokenKind::Punct, "[") {
                let close = matching_bracket(toks, src, open);
                if attr_is_cfg_test(toks, src, open, close) {
                    if inner && depth == 0 {
                        out.file_test = true;
                    } else {
                        armed = Some(depth);
                    }
                }
                i = close + 1;
                continue;
            }
        } else if is(t, src, TokenKind::Punct, "{") {
            let parent_test = test_stack.last().copied().unwrap_or(false);
            let this_test = parent_test || armed == Some(depth);
            if armed == Some(depth) {
                armed = None;
            }
            if this_test && !parent_test {
                out.test_spans.push((i, out.brace_match[i]));
            }
            test_stack.push(this_test);
            depth += 1;
        } else if is(t, src, TokenKind::Punct, "}") {
            test_stack.pop();
            depth = depth.saturating_sub(1);
        } else if is(t, src, TokenKind::Punct, ";") && armed == Some(depth) {
            armed = None;
        }
        i += 1;
    }

    // --- Pass 3: directives ----------------------------------------------
    for d in &lexed.directives {
        match d.body.strip_prefix("allow(").and_then(parse_allow) {
            Some((rule, reason)) => out.allows.push(InlineAllow {
                rule,
                reason,
                line: d.line,
            }),
            None => out.bad_directives.push((d.line, d.body.clone())),
        }
    }

    // --- Pass 4: impl blocks ----------------------------------------------
    // (body open, body close, self type) for owner attribution.
    let mut impls: Vec<(usize, usize, String)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is(&toks[i], src, TokenKind::Ident, "impl") {
            if let Some(entry) = parse_impl_head(toks, src, i, &out.brace_match) {
                impls.push(entry);
            }
        }
        i += 1;
    }

    // --- Pass 5: fn items -------------------------------------------------
    let mut i = 0usize;
    while i < toks.len() {
        if is(&toks[i], src, TokenKind::Ident, "fn")
            && i + 1 < toks.len()
            && toks[i + 1].kind == TokenKind::Ident
        {
            let name_token = i + 1;
            let body = find_body(toks, src, name_token + 1, &out.brace_match);
            // A span from `#[cfg(test)] fn lone() { … }` starts at the
            // body brace, after the name token — check both.
            let is_test =
                out.in_test(name_token) || body.is_some_and(|(open, _)| out.in_test(open));
            // Innermost impl block containing the name token.
            let owner = impls
                .iter()
                .filter(|(open, close, _)| name_token > *open && name_token < *close)
                .min_by_key(|(open, close, _)| close - open)
                .map(|(_, _, ty)| ty.clone());
            out.items.push(Item {
                name: toks[name_token].text(src).to_string(),
                body,
                is_test,
                owner,
            });
        }
        i += 1;
    }
    out
}

/// Parses an `impl` head starting at token `i` into its body span and
/// self type name: the last path-segment ident before the body brace
/// (after `for` when present, so `impl fmt::Display for Finding` →
/// `Finding`, `impl<T> Grid<T>` → `Grid`). Returns `None` when no body
/// brace follows (e.g. the `impl` keyword in `impl Trait` return types).
fn parse_impl_head(
    toks: &[Token],
    src: &str,
    i: usize,
    brace_match: &[usize],
) -> Option<(usize, usize, String)> {
    let mut angle = 0i64;
    let mut last_ident: Option<&str> = None;
    let mut frozen = false; // set once a `where` clause starts
    let mut j = i + 1;
    while j < toks.len() {
        let t = &toks[j];
        match t.kind {
            TokenKind::Punct => match t.text(src) {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "{" if angle <= 0 => {
                    let name = last_ident?;
                    return Some((
                        j,
                        brace_match.get(j).copied().unwrap_or(j),
                        name.to_string(),
                    ));
                }
                ";" if angle <= 0 => return None,
                _ => {}
            },
            TokenKind::Ident if angle <= 0 && !frozen => {
                let text = t.text(src);
                if text == "for" {
                    last_ident = None; // self type comes after `for`
                } else if text == "where" {
                    frozen = true;
                } else {
                    last_ident = Some(text);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// `allow(<rule>) -- <reason>` body after the opening paren.
fn parse_allow(rest: &str) -> Option<(String, String)> {
    let close = rest.find(')')?;
    let rule = rest[..close].trim();
    let after = rest[close + 1..].trim();
    let reason = after.strip_prefix("--")?.trim();
    if rule.is_empty() || reason.is_empty() {
        return None;
    }
    Some((rule.to_string(), reason.to_string()))
}

/// Token index of the `]` closing the `[` at `open` (or the last token).
fn matching_bracket(toks: &[Token], src: &str, open: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if is(t, src, TokenKind::Punct, "[") {
            depth += 1;
        } else if is(t, src, TokenKind::Punct, "]") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// True when the attribute tokens in `(open, close)` are a
/// `cfg(… test …)` that is not `cfg(not(test))`.
fn attr_is_cfg_test(toks: &[Token], src: &str, open: usize, close: usize) -> bool {
    let mut saw_cfg_head = false;
    let mut saw_test = false;
    let mut saw_not = false;
    for (j, t) in toks
        .iter()
        .enumerate()
        .skip(open + 1)
        .take_while(|(j, _)| *j < close)
    {
        if t.kind == TokenKind::Ident {
            match t.text(src) {
                "cfg" if j == open + 1 => saw_cfg_head = true,
                "test" => saw_test = true,
                "not" => saw_not = true,
                _ => {}
            }
        }
    }
    saw_cfg_head && saw_test && !saw_not
}

/// Scans forward from just past the fn name for the body `{`, skipping
/// generics, the parameter list, the return type and any where-clause.
/// Returns the `{`/`}` token pair, or `None` at a `;` (no body).
fn find_body(
    toks: &[Token],
    src: &str,
    mut i: usize,
    brace_match: &[usize],
) -> Option<(usize, usize)> {
    // Generic parameters: angle-bracket counting (`<<`/`>>` count twice).
    if i < toks.len() && is(&toks[i], src, TokenKind::Punct, "<") {
        let mut angle = 0i64;
        while i < toks.len() {
            match toks[i].text(src) {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                _ => {}
            }
            i += 1;
            if angle <= 0 {
                break;
            }
        }
    }
    // Parameter list.
    let mut paren = 0i64;
    let mut seen_params = false;
    while i < toks.len() {
        let text = toks[i].text(src);
        if toks[i].kind == TokenKind::Punct {
            match text {
                "(" => {
                    paren += 1;
                    seen_params = true;
                }
                ")" => paren -= 1,
                _ => {}
            }
        }
        i += 1;
        if seen_params && paren == 0 {
            break;
        }
    }
    // Return type / where clause up to `{` or `;`.
    let mut paren = 0i64;
    let mut bracket = 0i64;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokenKind::Punct {
            match t.text(src) {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" if paren == 0 && bracket == 0 => {
                    return Some((i, brace_match.get(i).copied().unwrap_or(i)));
                }
                ";" if paren == 0 && bracket == 0 => return None,
                "}" if paren == 0 && bracket == 0 => return None, // ran out of item
                _ => {}
            }
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn index(src: &str) -> FileIndex {
        index_file(src, &lex(src), false)
    }

    #[test]
    fn indexes_functions_with_bodies_and_names() {
        let src = "pub fn alpha(x: u32) -> u32 { x + 1 }\nfn beta<T: Clone>(t: T) { let _ = t; }\nfn decl();\n";
        let idx = index(src);
        let names: Vec<_> = idx.items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta", "decl"]);
        assert!(idx.items[0].body.is_some());
        assert!(idx.items[1].body.is_some());
        assert!(idx.items[2].body.is_none());
    }

    #[test]
    fn cfg_test_spans_cover_mods_and_single_fns() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n#[cfg(test)]\nfn lone() {}\n";
        let idx = index(src);
        let by_name = |n: &str| idx.items.iter().find(|i| i.name == n).expect("item");
        assert!(!by_name("live").is_test);
        assert!(by_name("helper").is_test);
        assert!(by_name("lone").is_test);
    }

    #[test]
    fn cfg_any_test_counts_but_cfg_not_test_does_not() {
        let src = "#[cfg(any(test, feature = \"x\"))]\nmod a { fn f() {} }\n#[cfg(not(test))]\nmod b { fn g() {} }\n";
        let idx = index(src);
        let by_name = |n: &str| idx.items.iter().find(|i| i.name == n).expect("item");
        assert!(by_name("f").is_test);
        assert!(!by_name("g").is_test);
    }

    #[test]
    fn one_line_cfg_test_mod_is_scoped() {
        let src = "#[cfg(test)] mod tests { fn f() {} }\nfn live() {}\n";
        let idx = index(src);
        assert!(idx.items.iter().find(|i| i.name == "f").expect("f").is_test);
        assert!(
            !idx.items
                .iter()
                .find(|i| i.name == "live")
                .expect("live")
                .is_test
        );
    }

    #[test]
    fn bodiless_cfg_test_disarms_on_semicolon() {
        let src = "#[cfg(test)]\nmod tests;\nfn live() {}\n";
        let idx = index(src);
        assert!(
            !idx.items
                .iter()
                .find(|i| i.name == "live")
                .expect("live")
                .is_test
        );
    }

    #[test]
    fn inline_allow_parses_rule_and_reason() {
        let src = "fn f() {} // lint: allow(no-expect) -- audited: invariant\n// lint: allow(bad syntax\nfn g() {}\n";
        let idx = index(src);
        assert_eq!(idx.allows.len(), 1);
        assert_eq!(idx.allows[0].rule, "no-expect");
        assert_eq!(idx.allows[0].reason, "audited: invariant");
        assert_eq!(idx.bad_directives.len(), 1);
    }

    #[test]
    fn enclosing_item_prefers_innermost() {
        let src = "fn outer() {\n    fn inner() { let x = 1; }\n}\n";
        let idx = index(src);
        let lexed = lex(src);
        // Find the token for `x`.
        let xt = lexed
            .tokens
            .iter()
            .position(|t| t.text(src) == "x")
            .expect("x token");
        let item = idx.enclosing_item(xt).expect("enclosed");
        assert_eq!(idx.items[item].name, "inner");
    }
}
