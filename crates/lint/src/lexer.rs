//! Hand-rolled Rust lexer for the conformance analyzer.
//!
//! The v1 scanner sanitized one line at a time, which is exactly why it
//! mishandled multi-line block comments and raw strings: a `*/` or `"#`
//! on a later line is invisible to a per-line state machine. The lexer
//! replaces it with a single pass over the whole file that produces
//! spanned tokens and never loses track of what is code and what is
//! text:
//!
//! - nested block comments (`/* /* */ */`) with unbounded depth,
//! - raw and byte strings (`r"…"`, `r#"…"#` with any hash count,
//!   `b"…"`, `br#"…"#`) including multi-line bodies,
//! - raw identifiers (`r#match`),
//! - char literals vs. lifetimes (`'a'` vs. `'a`),
//! - float vs. integer literals, tuple indices (`x.0`), ranges (`1..2`),
//! - maximal-munch compound operators (`==`, `!=`, `=>`, `::`, …).
//!
//! Comments are not tokens, but line comments whose body starts with
//! `lint:` are captured as [`Directive`]s — the annotation channel the
//! item index uses for `// lint: allow(<rule>) -- <reason>` site-level
//! suppressions.
//!
//! The lexer is total: any byte sequence lexes without panicking
//! (unterminated strings and comments run to end of file), a property
//! pinned by the `lexer_props` proptest suite.

/// What a [`Token`] is. Keywords are `Ident`s; rule code compares the
/// source text via [`Token::text`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers).
    Ident,
    /// Lifetime such as `'a` (the tick is part of the span).
    Lifetime,
    /// String literal of any flavour: cooked, raw, byte, byte-raw.
    Str,
    /// Character literal, e.g. `'x'` or `'\n'`.
    Char,
    /// Integer literal (any radix, with or without suffix).
    Int,
    /// Float literal (`1.0`, `1.`, `1e9`, `1f64`).
    Float,
    /// Punctuation / operator; compound operators span multiple bytes.
    Punct,
}

/// One lexed token: kind plus byte span and 1-based start line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Byte offset of the first byte (inclusive, on a char boundary).
    pub start: usize,
    /// Byte offset one past the last byte (on a char boundary).
    pub end: usize,
    /// 1-based line number of `start`.
    pub line: u32,
}

impl Token {
    /// The token's source text.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }
}

/// A captured `// lint: …` comment. `body` is the text after `lint:`,
/// trimmed (e.g. `allow(no-expect) -- reason`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Directive body after the `lint:` marker, trimmed.
    pub body: String,
}

/// Lexer output: the token stream plus any lint directives found in
/// comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// `// lint: …` directives in source order.
    pub directives: Vec<Directive>,
}

/// Compound operators, longest first so maximal munch is a prefix scan.
const COMPOUND_OPS: [&str; 22] = [
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

struct Cursor<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Consumes one byte, counting newlines. Multi-byte chars are
    /// consumed byte-by-byte; only `\n` affects the line counter, so
    /// byte-wise consumption keeps the count exact.
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek(0)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    /// Consumes bytes while `f` holds.
    fn eat_while(&mut self, f: impl Fn(u8) -> bool) {
        while let Some(b) = self.peek(0) {
            if !f(b) {
                break;
            }
            self.bump();
        }
    }

    /// Byte offset snapped back to the nearest char boundary at or
    /// before `pos`, so spans always slice cleanly.
    fn boundary(&self, mut pos: usize) -> usize {
        while pos > 0 && pos < self.src.len() && !self.src.is_char_boundary(pos) {
            pos -= 1;
        }
        pos.min(self.src.len())
    }
}

/// Lexes a full source file. Total: never panics, whatever the input.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor::new(src);
    let mut out = Lexed::default();

    while let Some(b) = cur.peek(0) {
        let start = cur.pos;
        let line = cur.line;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek(1) == Some(b'/') => lex_line_comment(&mut cur, &mut out),
            b'/' if cur.peek(1) == Some(b'*') => lex_block_comment(&mut cur),
            b'"' => {
                lex_cooked_string(&mut cur);
                push(&mut out, TokenKind::Str, start, &cur, line);
            }
            b'\'' => lex_tick(&mut cur, &mut out),
            b'0'..=b'9' => {
                let kind = lex_number(&mut cur);
                push(&mut out, kind, start, &cur, line);
            }
            _ if is_ident_start(b) => lex_ident_or_prefixed_string(&mut cur, &mut out),
            _ => {
                lex_punct(&mut cur);
                push(&mut out, TokenKind::Punct, start, &cur, line);
            }
        }
    }
    out
}

fn push(out: &mut Lexed, kind: TokenKind, start: usize, cur: &Cursor<'_>, line: u32) {
    let start = cur.boundary(start);
    let end = cur.boundary(cur.pos);
    if end > start {
        out.tokens.push(Token {
            kind,
            start,
            end,
            line,
        });
    }
}

fn lex_line_comment(cur: &mut Cursor<'_>, out: &mut Lexed) {
    let line = cur.line;
    let start = cur.pos;
    while let Some(b) = cur.peek(0) {
        if b == b'\n' {
            break;
        }
        cur.bump();
    }
    let text = cur.src.get(start..cur.pos).unwrap_or("");
    // Strip `//`, `///`, `//!` and leading whitespace to find `lint:`.
    let body = text.trim_start_matches('/').trim_start_matches('!').trim();
    if let Some(rest) = body.strip_prefix("lint:") {
        out.directives.push(Directive {
            line,
            body: rest.trim().to_string(),
        });
    }
}

fn lex_block_comment(cur: &mut Cursor<'_>) {
    cur.bump(); // '/'
    cur.bump(); // '*'
    let mut depth = 1u32;
    while depth > 0 {
        match (cur.peek(0), cur.peek(1)) {
            (Some(b'/'), Some(b'*')) => {
                cur.bump();
                cur.bump();
                depth += 1;
            }
            (Some(b'*'), Some(b'/')) => {
                cur.bump();
                cur.bump();
                depth -= 1;
            }
            (Some(_), _) => {
                cur.bump();
            }
            (None, _) => break, // unterminated: runs to EOF
        }
    }
}

fn lex_cooked_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening '"'
    while let Some(b) = cur.bump() {
        match b {
            b'\\' => {
                cur.bump();
            }
            b'"' => return,
            _ => {}
        }
    }
}

/// Raw string body after the `r`/`br` prefix: `#`*N `"` … `"` `#`*N.
fn lex_raw_string(cur: &mut Cursor<'_>) {
    let mut hashes = 0usize;
    while cur.peek(0) == Some(b'#') {
        cur.bump();
        hashes += 1;
    }
    if cur.peek(0) != Some(b'"') {
        return; // not actually a raw string (e.g. `r#ident` handled upstream)
    }
    cur.bump(); // opening '"'
    'body: while let Some(b) = cur.bump() {
        if b == b'"' {
            for i in 0..hashes {
                if cur.peek(i) != Some(b'#') {
                    continue 'body;
                }
            }
            for _ in 0..hashes {
                cur.bump();
            }
            return;
        }
    }
}

/// `'` starts either a char literal or a lifetime.
fn lex_tick(cur: &mut Cursor<'_>, out: &mut Lexed) {
    let start = cur.pos;
    let line = cur.line;
    cur.bump(); // the tick
    match cur.peek(0) {
        Some(b'\\') => {
            // Escaped char literal: consume until the closing tick or
            // end of line (char literals cannot span lines).
            cur.bump();
            cur.bump(); // the escaped char
            while let Some(b) = cur.peek(0) {
                if b == b'\n' {
                    break;
                }
                cur.bump();
                if b == b'\'' {
                    break;
                }
            }
            push(out, TokenKind::Char, start, cur, line);
        }
        Some(b) if is_ident_start(b) => {
            // Could be `'a'` (char) or `'a` (lifetime). Decode one char,
            // then look for a closing tick.
            let ch_len = utf8_len(b);
            if cur.peek(ch_len) == Some(b'\'') {
                for _ in 0..=ch_len {
                    cur.bump();
                }
                push(out, TokenKind::Char, start, cur, line);
            } else {
                cur.eat_while(is_ident_continue);
                push(out, TokenKind::Lifetime, start, cur, line);
            }
        }
        Some(b'\'') | None => {
            // `''` or trailing tick: emit as punct so nothing is lost.
            cur.bump();
            push(out, TokenKind::Punct, start, cur, line);
        }
        Some(b) => {
            // Non-ident single char like `'+'`.
            let ch_len = utf8_len(b);
            if cur.peek(ch_len) == Some(b'\'') {
                for _ in 0..=ch_len {
                    cur.bump();
                }
                push(out, TokenKind::Char, start, cur, line);
            } else {
                push(out, TokenKind::Punct, start, cur, line);
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn lex_number(cur: &mut Cursor<'_>) -> TokenKind {
    if cur.peek(0) == Some(b'0')
        && matches!(
            cur.peek(1),
            Some(b'x') | Some(b'X') | Some(b'o') | Some(b'O') | Some(b'b') | Some(b'B')
        )
    {
        cur.bump();
        cur.bump();
        cur.eat_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        return TokenKind::Int;
    }
    cur.eat_while(|b| b.is_ascii_digit() || b == b'_');
    let mut float = false;
    if cur.peek(0) == Some(b'.') {
        match cur.peek(1) {
            // `1.0`: fraction digits follow.
            Some(d) if d.is_ascii_digit() => {
                cur.bump();
                cur.eat_while(|b| b.is_ascii_digit() || b == b'_');
                float = true;
            }
            // `1..2` is a range, `1.max()` a method call: the dot is
            // not part of the number.
            Some(b'.') => {}
            Some(b) if is_ident_start(b) => {}
            // `1.` with nothing number-ish after: a float.
            _ => {
                cur.bump();
                float = true;
            }
        }
    }
    // Exponent: `1e9`, `2.5E-3`.
    if matches!(cur.peek(0), Some(b'e') | Some(b'E')) {
        let (sign, digit) = (cur.peek(1), cur.peek(2));
        let direct_digit = sign.is_some_and(|b| b.is_ascii_digit());
        let signed_digit =
            matches!(sign, Some(b'+') | Some(b'-')) && digit.is_some_and(|b| b.is_ascii_digit());
        if direct_digit || signed_digit {
            cur.bump(); // e
            if signed_digit {
                cur.bump(); // sign
            }
            cur.eat_while(|b| b.is_ascii_digit() || b == b'_');
            float = true;
        }
    }
    // Type suffix (`u32`, `f64`, …): an `f` suffix makes it a float.
    if cur.peek(0).is_some_and(is_ident_start) {
        if cur.peek(0) == Some(b'f') {
            float = true;
        }
        cur.eat_while(is_ident_continue);
    }
    if float {
        TokenKind::Float
    } else {
        TokenKind::Int
    }
}

/// Identifier, or a string with an `r` / `b` / `br` prefix, or a raw
/// identifier `r#name`.
fn lex_ident_or_prefixed_string(cur: &mut Cursor<'_>, out: &mut Lexed) {
    let start = cur.pos;
    let line = cur.line;
    cur.eat_while(is_ident_continue);
    let ident = cur.src.get(start..cur.pos).unwrap_or("");
    match ident {
        "r" | "br" | "rb" => match cur.peek(0) {
            Some(b'"') => {
                lex_raw_string(cur);
                push(out, TokenKind::Str, start, cur, line);
                return;
            }
            Some(b'#') => {
                // `r#"…"#` raw string vs `r#ident` raw identifier.
                let mut i = 0;
                while cur.peek(i) == Some(b'#') {
                    i += 1;
                }
                if cur.peek(i) == Some(b'"') {
                    lex_raw_string(cur);
                    push(out, TokenKind::Str, start, cur, line);
                    return;
                }
                if i == 1 && cur.peek(1).is_some_and(is_ident_start) {
                    cur.bump(); // '#'
                    cur.eat_while(is_ident_continue);
                }
            }
            _ => {}
        },
        "b" => {
            if cur.peek(0) == Some(b'"') {
                lex_cooked_string(cur);
                push(out, TokenKind::Str, start, cur, line);
                return;
            }
            if cur.peek(0) == Some(b'\'') {
                // Byte literal `b'x'`: reuse the tick lexer and patch
                // the span back to include the `b`.
                let before = out.tokens.len();
                lex_tick(cur, out);
                if out.tokens.len() > before {
                    if let Some(tok) = out.tokens.last_mut() {
                        tok.start = cur.boundary(start);
                    }
                }
                return;
            }
        }
        _ => {}
    }
    push(out, TokenKind::Ident, start, cur, line);
}

fn lex_punct(cur: &mut Cursor<'_>) {
    for op in COMPOUND_OPS {
        let bytes = op.as_bytes();
        if (0..bytes.len()).all(|i| cur.peek(i) == Some(bytes[i])) {
            for _ in 0..bytes.len() {
                cur.bump();
            }
            return;
        }
    }
    // Single char (multi-byte chars consumed whole so spans stay on
    // boundaries).
    if let Some(b) = cur.peek(0) {
        for _ in 0..utf8_len(b) {
            cur.bump();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn idents_ops_and_numbers() {
        let got = texts("let x = a.b_2 == 1.5e3;");
        let kinds: Vec<_> = got.iter().map(|(k, t)| (*k, t.as_str())).collect();
        assert_eq!(
            kinds,
            vec![
                (TokenKind::Ident, "let"),
                (TokenKind::Ident, "x"),
                (TokenKind::Punct, "="),
                (TokenKind::Ident, "a"),
                (TokenKind::Punct, "."),
                (TokenKind::Ident, "b_2"),
                (TokenKind::Punct, "=="),
                (TokenKind::Float, "1.5e3"),
                (TokenKind::Punct, ";"),
            ]
        );
    }

    #[test]
    fn nested_block_comments_hide_their_contents() {
        let src = "a /* x.unwrap() /* nested */ still comment */ b";
        let got = texts(src);
        assert_eq!(
            got,
            vec![
                (TokenKind::Ident, "a".into()),
                (TokenKind::Ident, "b".into())
            ]
        );
    }

    #[test]
    fn multi_line_block_comment_tracks_lines() {
        let src = "/* one\ntwo\nthree */ x";
        let lexed = lex(src);
        assert_eq!(lexed.tokens.len(), 1);
        assert_eq!(lexed.tokens[0].line, 3);
    }

    #[test]
    fn raw_strings_with_hashes_and_newlines() {
        let src = "let s = r#\"panic!(\"inner\")\nline2\"#; t";
        let got = texts(src);
        assert!(got.contains(&(TokenKind::Str, "r#\"panic!(\"inner\")\nline2\"#".into())));
        assert_eq!(got.last(), Some(&(TokenKind::Ident, "t".into())));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let got = texts(r##"b"bytes" b'x' br#"raw"#"##);
        assert_eq!(got[0], (TokenKind::Str, "b\"bytes\"".into()));
        assert_eq!(got[1], (TokenKind::Char, "b'x'".into()));
        assert_eq!(got[2].0, TokenKind::Str);
    }

    #[test]
    fn raw_identifier_is_an_ident() {
        let got = texts("r#match");
        assert_eq!(got, vec![(TokenKind::Ident, "r#match".into())]);
    }

    #[test]
    fn chars_vs_lifetimes() {
        let got = texts("fn f<'a>(c: char) { let x = 'y'; let n = '\\n'; }");
        assert!(got.contains(&(TokenKind::Lifetime, "'a".into())));
        assert!(got.contains(&(TokenKind::Char, "'y'".into())));
        assert!(got.contains(&(TokenKind::Char, "'\\n'".into())));
    }

    #[test]
    fn tuple_index_and_range_are_not_floats() {
        let got = texts("x.0 1..2 3.max(4) 5.");
        assert!(got.contains(&(TokenKind::Int, "0".into())));
        assert!(got.contains(&(TokenKind::Int, "1".into())));
        assert!(got.contains(&(TokenKind::Punct, "..".into())));
        assert!(got.contains(&(TokenKind::Int, "3".into())));
        assert!(got.contains(&(TokenKind::Float, "5.".into())));
    }

    #[test]
    fn directives_are_captured_with_lines() {
        let src = "// lint: not-a-rule\nfn f() {}\n//   lint: allow(no-expect) -- reason\n";
        let lexed = lex(src);
        assert_eq!(lexed.directives.len(), 2);
        assert_eq!(lexed.directives[0].line, 1);
        assert_eq!(lexed.directives[0].body, "not-a-rule");
        assert_eq!(lexed.directives[1].line, 3);
        assert_eq!(lexed.directives[1].body, "allow(no-expect) -- reason");
    }

    #[test]
    fn unterminated_constructs_lex_to_eof() {
        assert!(lex("\"never closed").tokens.len() == 1);
        assert!(lex("/* never closed").tokens.is_empty());
        assert!(lex("r#\"never closed").tokens.len() == 1);
        let _ = lex("'");
        let _ = lex("b");
        let _ = lex("r#");
    }

    #[test]
    fn spans_are_monotonic_and_on_boundaries() {
        let src = "let s = \"héllo\"; // é\nfn f() { 'é' }";
        let lexed = lex(src);
        let mut prev_end = 0;
        for t in &lexed.tokens {
            assert!(t.start >= prev_end);
            assert!(t.end <= src.len());
            assert!(src.is_char_boundary(t.start) && src.is_char_boundary(t.end));
            prev_end = t.end;
        }
    }
}
