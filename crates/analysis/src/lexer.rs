//! A small hand-rolled Rust lexer: enough token structure for the lint
//! rules, and nothing more.
//!
//! The lexer understands exactly the parts of Rust surface syntax a
//! text-level scan gets wrong: string literals (plain, raw, byte, and
//! C-string forms), char literals vs. lifetimes, nested block comments,
//! and line comments — so a rule matching `unwrap` never fires on the word
//! inside a doc comment or a format string. It does **not** build a syntax
//! tree; rules pattern-match over the flat token stream.
//!
//! Two hard guarantees, pinned by the seeded random cases in
//! `tests/properties.rs`:
//! the lexer never panics and always terminates, on arbitrary input. Every
//! loop below advances the cursor by at least one byte per iteration, and
//! every unterminated construct (string, comment, char) lexes to the end
//! of input instead of erroring.
//!
//! Line comments are additionally scanned for the inline escape syntax
//!
//! ```text
//! // lint: allow(<rule>): <justification>
//! ```
//!
//! which is collected as an [`AllowDirective`]. A directive with an empty
//! justification is recorded as malformed — the rule engine turns that
//! into a diagnostic of its own, so an escape can never be silent.

/// What a token is. Identifiers keep their text (rules match on names);
/// string literals keep their *raw* content; numeric literals their text
/// (a rule reads float values); punctuation keeps the character. Char
/// and lifetime tokens carry no payload — rules only need to know they
/// are not identifiers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`Vec`, `fn`, `unwrap`, ...).
    Ident(String),
    /// One punctuation character (`.`, `:`, `[`, `!`, ...).
    Punct(char),
    /// A string literal's content, escapes left as written.
    Str(String),
    /// A char or byte literal.
    Char,
    /// A numeric literal, as written (`1e-9`, `0x1F`, `2_000u32`).
    Num(String),
    /// A lifetime (`'a`).
    Lifetime,
}

/// One token with the 1-based source line it starts on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok {
    /// Token kind and payload.
    pub kind: TokKind,
    /// 1-based line number.
    pub line: u32,
}

/// One parsed `// lint: allow(<rule>): <justification>` escape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowDirective {
    /// 1-based line the comment sits on.
    pub line: u32,
    /// The rule name inside `allow(...)`.
    pub rule: String,
    /// The free-text justification after the closing `):`. Guaranteed
    /// non-empty — an empty one is reported in
    /// [`LexOutput::malformed_allows`] instead.
    pub justification: String,
}

/// Everything the lexer extracts from one source file.
#[derive(Clone, Debug, Default)]
pub struct LexOutput {
    /// The token stream, comments and whitespace stripped.
    pub tokens: Vec<Tok>,
    /// Well-formed inline allow escapes.
    pub allows: Vec<AllowDirective>,
    /// Lines holding a `lint:` comment that failed to parse as
    /// `allow(<rule>): <non-empty justification>`.
    pub malformed_allows: Vec<u32>,
}

/// Lexes `src` into tokens plus inline lint directives.
pub fn lex(src: &str) -> LexOutput {
    let b = src.as_bytes();
    let mut out = LexOutput::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                let end = line_end(b, start);
                scan_lint_comment(&src[start..end], line, &mut out);
                i = end;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Nested block comment; unterminated runs to EOF.
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let tok_line = line;
                let (content, next) = scan_string(b, i + 1, &mut line);
                out.tokens.push(Tok {
                    kind: TokKind::Str(String::from_utf8_lossy(content).into_owned()),
                    line: tok_line,
                });
                i = next;
            }
            b'\'' => {
                let tok_line = line;
                i = scan_quote(b, i, &mut line, tok_line, &mut out.tokens);
            }
            c if c.is_ascii_digit() => {
                let (tok_line, start) = (line, i);
                i = scan_number(b, i);
                out.tokens.push(Tok {
                    kind: TokKind::Num(src[start..i].to_string()),
                    line: tok_line,
                });
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let tok_line = line;
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                // String-literal prefixes: r"", r#""#, b"", br"", c"",
                // and the raw-identifier form r#ident.
                if matches!(word, "r" | "b" | "br" | "rb" | "c" | "cr") {
                    let mut j = i;
                    let mut hashes = 0usize;
                    while j < b.len() && b[j] == b'#' {
                        hashes += 1;
                        j += 1;
                    }
                    if j < b.len() && b[j] == b'"' {
                        let (content, next) = if word.contains('r') || hashes > 0 {
                            scan_raw_string(b, j + 1, hashes, &mut line)
                        } else {
                            scan_string(b, j + 1, &mut line)
                        };
                        out.tokens.push(Tok {
                            kind: TokKind::Str(String::from_utf8_lossy(content).into_owned()),
                            line: tok_line,
                        });
                        i = next;
                        continue;
                    }
                    if word == "r" && hashes == 1 && j < b.len() {
                        // Raw identifier r#foo: lex as the identifier.
                        let start2 = j;
                        let mut k = j;
                        while k < b.len() && (b[k].is_ascii_alphanumeric() || b[k] == b'_') {
                            k += 1;
                        }
                        if k > start2 {
                            out.tokens.push(Tok {
                                kind: TokKind::Ident(src[start2..k].to_string()),
                                line: tok_line,
                            });
                            i = k;
                            continue;
                        }
                    }
                    if word == "b" && j < b.len() && b[j] == b'\'' {
                        // Byte char literal b'x'.
                        i = scan_quote(b, j, &mut line, tok_line, &mut out.tokens);
                        continue;
                    }
                }
                out.tokens.push(Tok {
                    kind: TokKind::Ident(word.to_string()),
                    line: tok_line,
                });
            }
            _ => {
                // Multi-byte UTF-8 and all remaining ASCII lex as single
                // punctuation tokens; advance by the full code point so we
                // never split one.
                let ch = src[i..].chars().next().unwrap_or('\u{fffd}');
                out.tokens.push(Tok {
                    kind: TokKind::Punct(if ch.is_ascii() { ch } else { '\u{fffd}' }),
                    line,
                });
                i += ch.len_utf8().max(1);
            }
        }
    }
    out
}

/// Index of the next newline at or after `from` (or EOF).
fn line_end(b: &[u8], from: usize) -> usize {
    let mut i = from;
    while i < b.len() && b[i] != b'\n' {
        i += 1;
    }
    i
}

/// Scans a plain (escaped) string body starting *after* the opening quote;
/// returns the content slice and the index after the closing quote.
fn scan_string<'a>(b: &'a [u8], start: usize, line: &mut u32) -> (&'a [u8], usize) {
    let mut i = start;
    while i < b.len() {
        match b[i] {
            b'\\' => {
                // A line continuation is still a line.
                *line += u32::from(b.get(i + 1) == Some(&b'\n'));
                i = (i + 2).min(b.len());
            }
            b'"' => return (&b[start..i], i + 1),
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (&b[start..], i)
}

/// Scans a raw string body (after the opening quote) terminated by `"`
/// followed by `hashes` `#` characters.
fn scan_raw_string<'a>(
    b: &'a [u8],
    start: usize,
    hashes: usize,
    line: &mut u32,
) -> (&'a [u8], usize) {
    let mut i = start;
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if b[i] == b'"'
            && b.len() - i > hashes
            && b[i + 1..i + 1 + hashes].iter().all(|&h| h == b'#')
        {
            return (&b[start..i], i + 1 + hashes);
        }
        i += 1;
    }
    (&b[start..], i)
}

/// Scans from a `'`: either a char/byte literal or a lifetime.
fn scan_quote(b: &[u8], at: usize, line: &mut u32, tok_line: u32, toks: &mut Vec<Tok>) -> usize {
    let mut i = at + 1; // past the opening '
    if i >= b.len() {
        toks.push(Tok {
            kind: TokKind::Char,
            line: tok_line,
        });
        return i;
    }
    let is_ident_start = b[i].is_ascii_alphabetic() || b[i] == b'_';
    if is_ident_start && b.get(i + 1) != Some(&b'\'') {
        // Lifetime: consume the identifier, no closing quote.
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        toks.push(Tok {
            kind: TokKind::Lifetime,
            line: tok_line,
        });
        return i;
    }
    // Char literal: one (possibly escaped) char, then the closing quote.
    if b[i] == b'\\' {
        i = (i + 2).min(b.len());
        // Escapes like \u{1F600} or \x7f: consume to the closing quote.
        while i < b.len() && b[i] != b'\'' && b[i] != b'\n' {
            i += 1;
        }
    } else if b[i] == b'\n' {
        *line += 1;
        i += 1;
    } else {
        i += src_char_len(b, i);
    }
    if i < b.len() && b[i] == b'\'' {
        i += 1;
    }
    toks.push(Tok {
        kind: TokKind::Char,
        line: tok_line,
    });
    i
}

/// Length in bytes of the UTF-8 code point starting at `i` (1 for
/// continuation garbage, so progress is always made).
fn src_char_len(b: &[u8], i: usize) -> usize {
    match b[i] {
        x if x < 0x80 => 1,
        x if x >= 0xF0 => 4,
        x if x >= 0xE0 => 3,
        x if x >= 0xC0 => 2,
        _ => 1,
    }
}

/// Scans a numeric literal (integer, float, hex, suffixed). Consumes a
/// decimal point only when a digit follows, so ranges (`0..n`) survive.
fn scan_number(b: &[u8], start: usize) -> usize {
    let mut i = start;
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
        i += 1;
    }
    if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
        i += 1;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
    }
    // A signed exponent (`1e-9`, `2.5E+3`) of a decimal literal: the
    // alphanumeric run stopped at the sign.
    let radix = b[start] == b'0' && matches!(b.get(start + 1), Some(b'x' | b'o' | b'b'));
    let signed =
        matches!(b.get(i), Some(b'-' | b'+')) && b.get(i + 1).is_some_and(u8::is_ascii_digit);
    if !radix && matches!(b[i - 1], b'e' | b'E') && signed {
        i += 1;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
    }
    i
}

/// Parses one line comment's text for the lint escape syntax.
fn scan_lint_comment(text: &str, line: u32, out: &mut LexOutput) {
    // Doc comments (/// or //!) never carry directives; the extra slash
    // or bang is simply part of `text` and fails the prefix match below.
    let t = text.trim_start();
    let Some(rest) = t.strip_prefix("lint:") else {
        return;
    };
    let rest = rest.trim_start();
    let parsed = (|| {
        let rest = rest.strip_prefix("allow(")?;
        let close = rest.find(')')?;
        let rule = rest[..close].trim();
        let tail = rest[close + 1..].trim_start();
        let just = tail.strip_prefix(':')?.trim();
        if rule.is_empty() || just.is_empty() {
            return None;
        }
        Some(AllowDirective {
            line,
            rule: rule.to_string(),
            justification: just.to_string(),
        })
    })();
    match parsed {
        Some(d) => out.allows.push(d),
        None => out.malformed_allows.push(line),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_their_contents_from_ident_matching() {
        let src = r##"
            // unwrap in a comment
            /* unwrap in /* a nested */ block */
            let s = "unwrap inside a string";
            let r = r#"raw unwrap"#;
            let ok = value.checked();
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
        assert!(ids.contains(&"checked".to_string()));
        // The string contents are still available to rules that want them.
        let strs: Vec<_> = lex(src)
            .tokens
            .into_iter()
            .filter(|t| matches!(t.kind, TokKind::Str(_)))
            .collect();
        assert_eq!(strs.len(), 2);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }").tokens;
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn escaped_chars_and_strings_lex() {
        let toks = lex(r#"let a = '\''; let b = '\u{1F600}'; let c = "q\"w";"#).tokens;
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
        assert!(toks
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Str(s) if s == "q\\\"w")));
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"two\nline\"\nb\n\"con\\\ntinued\"\nc";
        let toks = lex(src).tokens;
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2); // string starts on line 2
        assert_eq!(toks[2].line, 4); // b after the 2-line string
        assert_eq!(toks[4].line, 7); // c after a line continuation
    }

    #[test]
    fn allow_directives_parse_and_empty_justifications_are_malformed() {
        let src = "\
            x(); // lint: allow(hot-path-alloc): amortized by the pool\n\
            y(); // lint: allow(panic-free-wire):\n\
            z(); // lint: deny(whatever): not the allow form\n";
        let out = lex(src);
        assert_eq!(out.allows.len(), 1);
        assert_eq!(out.allows[0].rule, "hot-path-alloc");
        assert_eq!(out.allows[0].line, 1);
        assert_eq!(out.allows[0].justification, "amortized by the pool");
        assert_eq!(out.malformed_allows, vec![2, 3]);
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let toks = lex("for i in 0..10 { a[i] }").tokens;
        let dots = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct('.'))
            .count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn numbers_keep_their_text_and_signed_exponents() {
        let nums: Vec<TokKind> = lex("1e-9 - 0x1e-5 + 2.5E+3f64")
            .tokens
            .into_iter()
            .map(|t| t.kind)
            .collect();
        let num = |s: &str| TokKind::Num(s.to_string());
        let hex = [num("0x1e"), TokKind::Punct('-'), num("5")];
        assert_eq!(nums[..2], [num("1e-9"), TokKind::Punct('-')]);
        assert_eq!(nums[2..5], hex);
        assert_eq!(nums[5..], [TokKind::Punct('+'), num("2.5E+3f64")]);
    }

    #[test]
    fn unterminated_constructs_reach_eof_without_panicking() {
        for src in ["\"abc", "r#\"abc", "/* abc", "'", "b'", "'a", "r#"] {
            let _ = lex(src);
        }
    }

    #[test]
    fn byte_and_raw_strings_lex_as_strings() {
        let toks = lex(r##"let a = b"bytes"; let b = br#"raw bytes"#; let c = r"raw";"##).tokens;
        let strs = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Str(_)))
            .count();
        assert_eq!(strs, 3);
    }
}
