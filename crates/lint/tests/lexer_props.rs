//! Property tests for the lexer: it must be *total* — never panic, on
//! any input — and its spans must tile the source without overlapping,
//! stay on char boundaries, and carry monotonic line numbers. Runs over
//! both arbitrary printable soup and adversarial concatenations of the
//! constructs the lexer special-cases (raw strings, nested comments,
//! prefixes, compound operators), including every prefix slice of each.

use datagrid_lint::lexer::{lex, Lexed};
use proptest::prelude::*;

/// Checks every structural invariant of one lex result.
fn check_invariants(src: &str) {
    let Lexed { tokens, directives } = lex(src);
    let mut prev_end = 0usize;
    let mut prev_line = 1u32;
    for t in &tokens {
        prop_assert!(t.start < t.end, "empty span {}..{}", t.start, t.end);
        prop_assert!(t.end <= src.len(), "span past EOF");
        prop_assert!(t.start >= prev_end, "overlapping spans");
        prop_assert!(src.is_char_boundary(t.start), "start off boundary");
        prop_assert!(src.is_char_boundary(t.end), "end off boundary");
        prop_assert!(t.line >= prev_line, "line went backwards");
        // Line must match the actual newline count before the token.
        let expect = 1 + src[..t.start].bytes().filter(|&b| b == b'\n').count() as u32;
        prop_assert_eq!(t.line, expect, "line number drifted");
        // text() must be a valid slice (would panic otherwise).
        let _ = t.text(src);
        prev_end = t.end;
        prev_line = t.line;
    }
    for d in &directives {
        prop_assert!(d.line >= 1);
    }
}

/// Fragments that exercise every special case in the lexer, designed to
/// interact badly when concatenated: unterminated raw strings, comment
/// openers inside strings, prefix letters adjacent to quotes, compound
/// operators that shift meaning when merged.
const FRAGMENTS: [&str; 24] = [
    "fn f() { x.unwrap(); }\n",
    "r#\"raw ' \" /* \"#",
    "r##\"two hashes \"# inside\"##",
    "br#\"bytes\"#",
    "b\"bytes\\\"esc\"",
    "b'x'",
    "/* outer /* inner */ tail */",
    "/* unterminated",
    "\"unterminated str",
    "r#\"unterminated raw",
    "// lint: not-a-rule\n",
    "// lint: allow(no-unwrap) -- reason\n",
    "'a>",
    "'x'",
    "1.5e-3f64",
    "0xfe_u8",
    "x.0.1",
    "1..=2",
    "<<= >>= ... ..= :: ->",
    "#[cfg(test)] mod t { }",
    "r#match",
    "\\",
    "\u{1f600}\"\u{1f600}\"\u{1f600}",
    "'\\u{41}'",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary printable-ASCII-plus-newline soup never panics and
    /// always yields well-formed spans.
    #[test]
    fn lexer_is_total_on_printable_soup(src in "[\n -~]{0,80}") {
        check_invariants(&src);
    }

    /// Adversarial concatenations of special-cased constructs, and every
    /// char-boundary prefix of each (truncation mid-construct must not
    /// panic either — that is how unterminated strings/comments arise).
    #[test]
    fn lexer_is_total_on_adversarial_fragments(
        picks in proptest::collection::vec(0usize..24, 1..8),
        cut in 0usize..400,
    ) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        check_invariants(&src);
        let mut cut = cut.min(src.len());
        while !src.is_char_boundary(cut) {
            cut -= 1;
        }
        check_invariants(&src[..cut]);
    }

    /// Re-lexing the text of every token in isolation stays total
    /// (tokens are themselves valid lexer inputs).
    #[test]
    fn token_texts_relex_without_panicking(src in "[\n -~]{0,60}") {
        let lexed = lex(&src);
        for t in &lexed.tokens {
            check_invariants(t.text(&src));
        }
    }
}
