//! Approximate intra-crate call graph, for export reachability.
//!
//! Nodes are the indexed `fn` items of one crate; an edge `f → g` exists
//! when `f`'s body contains a call whose bare callee name matches `g`'s
//! name. Matching is by name only — no type resolution — which makes the
//! graph deliberately *over*-approximate: a call `x.settle()` connects
//! to every `fn settle` in the crate, whichever type it belongs to. For
//! the determinism rule that is the conservative direction (a function
//! counts as export-reachable unless no export root could possibly reach
//! it), and cross-crate calls simply end at the crate boundary.
//!
//! An export root is a function whose name says it renders/serialises
//! output (`render_*`, `export_*`, `emit_*`, `dump_*`, `write_*`,
//! `*snapshot*`, `*_json`, `*_text`); the `hash-iter-export` rule watches
//! every body reachable from one for `HashMap`/`HashSet`.

use crate::index::FileIndex;
use crate::lexer::{Lexed, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// Identifies one function across a crate's files: (file index within
/// the crate, item index within the file).
pub type FnRef = (usize, usize);

/// Keywords and call-like constructs that are never callee names.
const NON_CALLEES: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "fn", "as", "in", "move", "let", "else",
    "Some", "Ok",
];

/// Std types whose associated functions (`Vec::new`, `String::from`, …)
/// must not be mistaken for calls to same-named crate functions: without
/// this, one `HashMap::new()` in an export body would mark every `fn new`
/// in the crate export-reachable.
const STD_QUALIFIERS: [&str; 16] = [
    "Vec", "VecDeque", "Box", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Rc", "Arc",
    "Option", "Result", "Cell", "RefCell", "Duration", "Cow",
];

/// True when `name` marks a function as an export root for the
/// determinism rule.
pub fn is_export_root(name: &str) -> bool {
    name.starts_with("render_")
        || name.starts_with("export_")
        || name.starts_with("emit_")
        || name.starts_with("dump_")
        || name.starts_with("write_")
        || name.contains("snapshot")
        || name.ends_with("_json")
        || name.ends_with("_text")
}

/// One call site as the graph resolves it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Callee {
    /// Unqualified or method call: matches every `fn name` in the crate.
    Bare(String),
    /// `Type::name(…)`: matches only `fn name` inside `impl Type`.
    Qualified(String, String),
}

/// Collects everything `item`'s body calls: `name(…)`, `recv.name(…)`,
/// `Type::name(…)`, including `.collect::<T>()` turbofish forms. Macro
/// invocations (`name!`) are not calls. `Self::name(…)` resolves against
/// the calling item's own impl type.
pub fn callees(src: &str, lexed: &Lexed, index: &FileIndex, item: usize) -> BTreeSet<Callee> {
    let mut out = BTreeSet::new();
    let Some((open, close)) = index.items[item].body else {
        return out;
    };
    let owner = index.items[item].owner.as_deref();
    let toks = &lexed.tokens;
    for i in open..=close.min(toks.len().saturating_sub(1)) {
        if toks[i].kind != TokenKind::Ident {
            continue;
        }
        let name = toks[i].text(src);
        if NON_CALLEES.contains(&name) {
            continue;
        }
        // Skip definitions: `fn name`.
        if i > 0 && toks[i - 1].kind == TokenKind::Ident && toks[i - 1].text(src) == "fn" {
            continue;
        }
        // Resolve the qualifier, if the call is `Something::name(…)`.
        let qualifier =
            if i >= 2 && toks[i - 1].text(src) == "::" && toks[i - 2].kind == TokenKind::Ident {
                Some(toks[i - 2].text(src))
            } else {
                None
            };
        // Std associated functions (`Vec::new(…)`) are not crate calls.
        if qualifier.is_some_and(|q| STD_QUALIFIERS.contains(&q)) {
            continue;
        }
        let is_call = match toks.get(i + 1).map(|t| t.text(src)) {
            Some("(") => true,
            // Turbofish: `name::<T>(…)`.
            Some("::") if toks.get(i + 2).is_some_and(|t| t.text(src) == "<") => {
                let mut angle = 0i64;
                let mut j = i + 2;
                while j < toks.len() {
                    match toks[j].text(src) {
                        "<" => angle += 1,
                        "<<" => angle += 2,
                        ">" => angle -= 1,
                        ">>" => angle -= 2,
                        _ => {}
                    }
                    j += 1;
                    if angle <= 0 {
                        break;
                    }
                }
                toks.get(j).is_some_and(|t| t.text(src) == "(")
            }
            _ => false,
        };
        if !is_call {
            continue;
        }
        // A type qualifier pins the callee to one impl block; lowercase
        // qualifiers are module paths, which stay bare. `Self::` resolves
        // to the caller's own impl type.
        match qualifier {
            Some("Self") => match owner {
                Some(ty) => {
                    out.insert(Callee::Qualified(ty.to_string(), name.to_string()));
                }
                None => {
                    out.insert(Callee::Bare(name.to_string()));
                }
            },
            Some(q) if q.chars().next().is_some_and(char::is_uppercase) => {
                out.insert(Callee::Qualified(q.to_string(), name.to_string()));
            }
            _ => {
                out.insert(Callee::Bare(name.to_string()));
            }
        }
    }
    out
}

/// One crate's worth of analyzed files, as the graph sees them.
pub struct CrateFile<'a> {
    /// File source.
    pub src: &'a str,
    /// Token stream.
    pub lexed: &'a Lexed,
    /// Item index.
    pub index: &'a FileIndex,
}

/// Builds the call graph over `files` and returns, per file and item,
/// whether the item's body is reachable from an export root. Test items
/// neither propagate nor receive reachability.
pub fn export_reach(files: &[CrateFile<'_>]) -> Vec<Vec<bool>> {
    // name -> every non-test fn with that name in the crate.
    let mut by_name: BTreeMap<&str, Vec<FnRef>> = BTreeMap::new();
    // (impl type, name) -> the fns of that name in that type's impls.
    let mut by_owner: BTreeMap<(&str, &str), Vec<FnRef>> = BTreeMap::new();
    let mut flags: Vec<Vec<bool>> = files
        .iter()
        .map(|f| vec![false; f.index.items.len()])
        .collect();
    let mut queue: Vec<FnRef> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        for (ii, item) in f.index.items.iter().enumerate() {
            if item.is_test {
                continue;
            }
            by_name
                .entry(item.name.as_str())
                .or_default()
                .push((fi, ii));
            if let Some(owner) = &item.owner {
                by_owner
                    .entry((owner.as_str(), item.name.as_str()))
                    .or_default()
                    .push((fi, ii));
            }
            if is_export_root(&item.name) {
                flags[fi][ii] = true;
                queue.push((fi, ii));
            }
        }
    }

    while let Some((fi, ii)) = queue.pop() {
        let f = &files[fi];
        for callee in callees(f.src, f.lexed, f.index, ii) {
            let targets = match &callee {
                Callee::Bare(name) => by_name.get(name.as_str()),
                Callee::Qualified(owner, name) => by_owner.get(&(owner.as_str(), name.as_str())),
            };
            for &(tf, ti) in targets.into_iter().flatten() {
                if !flags[tf][ti] {
                    flags[tf][ti] = true;
                    queue.push((tf, ti));
                }
            }
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::index_file;
    use crate::lexer::lex;

    struct Owned {
        src: String,
        lexed: crate::lexer::Lexed,
        index: FileIndex,
    }

    fn own(src: &str) -> Owned {
        let lexed = lex(src);
        let index = index_file(src, &lexed, false);
        Owned {
            src: src.to_string(),
            lexed,
            index,
        }
    }

    /// Export flags for `sources` (one file each), looked up by name.
    fn reach(sources: &[&str]) -> impl Fn(usize, &str) -> bool {
        let owned: Vec<Owned> = sources.iter().map(|s| own(s)).collect();
        let files: Vec<CrateFile<'_>> = owned
            .iter()
            .map(|o| CrateFile {
                src: &o.src,
                lexed: &o.lexed,
                index: &o.index,
            })
            .collect();
        let flags = export_reach(&files);
        let items: Vec<Vec<(String, bool)>> = owned
            .iter()
            .map(|o| {
                o.index
                    .items
                    .iter()
                    .map(|i| (i.name.clone(), i.is_test))
                    .collect()
            })
            .collect();
        // Non-test item by that name.
        move |file, name| {
            let ii = items[file]
                .iter()
                .position(|(n, t)| n == name && !t)
                .expect("item");
            flags[file][ii]
        }
    }

    #[test]
    fn export_reach_propagates_through_direct_and_method_calls() {
        let r = reach(&[
            "fn render_json() { helper(); obj.step(); }\nfn helper() {}\nfn step() {}\nfn cold() {}\n",
        ]);
        assert!(r(0, "render_json"));
        assert!(r(0, "helper"));
        assert!(r(0, "step"));
        assert!(!r(0, "cold"));
    }

    #[test]
    fn export_reach_crosses_files_within_the_crate() {
        let r = reach(&[
            "fn render_json() { shared(); }\n",
            "fn shared() { leaf(); }\nfn leaf() {}\n",
        ]);
        assert!(r(1, "shared"));
        assert!(r(1, "leaf"));
    }

    #[test]
    fn test_functions_do_not_catch_reachability() {
        let src = "fn render_json() { helper(); }\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn helper() {}\n";
        let o = own(src);
        let flags = export_reach(&[CrateFile {
            src: &o.src,
            lexed: &o.lexed,
            index: &o.index,
        }]);
        for (ii, item) in o.index.items.iter().enumerate() {
            if item.name == "helper" {
                assert_eq!(
                    flags[0][ii], !item.is_test,
                    "test helper must stay unreached"
                );
            }
        }
    }

    #[test]
    fn export_roots_are_detected_by_name() {
        assert!(is_export_root("render_json"));
        assert!(is_export_root("metrics_snapshot"));
        assert!(is_export_root("emit_engine_observability"));
        assert!(!is_export_root("settle_flow"));
    }

    #[test]
    fn turbofish_counts_as_a_call() {
        let r = reach(&["fn render_json() { let _ = gather::<u32>(); }\nfn gather() {}\n"]);
        assert!(r(0, "gather"));
    }
}
