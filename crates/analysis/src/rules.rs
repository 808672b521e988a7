//! The five project rules, each a pure function over lexed token streams
//! (or, for the doc rule, raw source lines).
//!
//! * [`hot_path_alloc`] — no heap-allocating constructs in the manifest's
//!   hot modules (static complement of the runtime `alloc_events` gate);
//! * [`panic_free_wire`] — no panicking constructs or bare indexing in the
//!   wire/codec decode paths (network input must never panic);
//! * [`has_forbid_unsafe`] — every crate root carries
//!   `#![forbid(unsafe_code)]`;
//! * [`doc_comment_shape`] — no mangled doc comments (`////`, or a plain
//!   `//` torn into a doc block) in the API surface files — the lexer
//!   strips comments, so this one scans raw lines;
//! * [`float_tolerance`] — no float literal in `(0, 1e-6]` (a tolerance)
//!   outside tests: network distances are exact and compare with `==`.
//!
//! Token rules see streams with `#[cfg(test)]` / `#[test]` items already
//! stripped ([`strip_test_code`]): test code asserts and unwraps freely.

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};

/// Names of the five rules, as used in manifests and allow escapes.
pub const RULE_HOT_PATH: &str = "hot-path-alloc";
/// See [`RULE_HOT_PATH`].
pub const RULE_WIRE: &str = "panic-free-wire";
/// See [`RULE_HOT_PATH`].
pub const RULE_UNSAFE: &str = "forbid-unsafe-everywhere";
/// See [`RULE_HOT_PATH`].
pub const RULE_DOC: &str = "doc-comment-shape";
/// See [`RULE_HOT_PATH`].
pub const RULE_FLOAT: &str = "float-tolerance";

fn ident(t: &Tok) -> Option<&str> {
    match &t.kind {
        TokKind::Ident(s) => Some(s),
        _ => None,
    }
}

fn is_punct(t: &Tok, c: char) -> bool {
    t.kind == TokKind::Punct(c)
}

/// Removes items guarded by `#[cfg(test)]` (or any `cfg(...)` mentioning
/// `test`) and `#[test]` functions: the attribute, any stacked attributes
/// after it, and the item body up to its balanced closing brace (or
/// terminating semicolon).
pub fn strip_test_code(toks: &[Tok]) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0usize;
    while i < toks.len() {
        if is_punct(&toks[i], '#') && i + 1 < toks.len() && is_punct(&toks[i + 1], '[') {
            let close = match matching(toks, i + 1, '[', ']') {
                Some(c) => c,
                None => {
                    out.extend_from_slice(&toks[i..]);
                    break;
                }
            };
            if attr_is_test(&toks[i + 2..close]) {
                i = skip_attrs_and_item(toks, close + 1);
                continue;
            }
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

/// Whether attribute tokens (inside `#[...]`) gate on test builds.
fn attr_is_test(inner: &[Tok]) -> bool {
    match inner.first().and_then(ident) {
        Some("test") => true,
        Some("cfg") => inner.iter().skip(1).any(|t| ident(t) == Some("test")),
        _ => false,
    }
}

/// Index of the token closing the group opened at `open` (which holds
/// `open_c`), honouring nesting; `None` when unbalanced.
fn matching(toks: &[Tok], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if is_punct(t, open_c) {
            depth += 1;
        } else if is_punct(t, close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Skips any further stacked attributes, then one item: everything up to
/// the first top-level `{` (consumed with its balanced body) or `;`.
fn skip_attrs_and_item(toks: &[Tok], mut i: usize) -> usize {
    while i + 1 < toks.len() && is_punct(&toks[i], '#') && is_punct(&toks[i + 1], '[') {
        match matching(toks, i + 1, '[', ']') {
            Some(c) => i = c + 1,
            None => return toks.len(),
        }
    }
    while i < toks.len() {
        if is_punct(&toks[i], ';') {
            return i + 1;
        }
        if is_punct(&toks[i], '{') {
            return match matching(toks, i, '{', '}') {
                Some(c) => c + 1,
                None => toks.len(),
            };
        }
        i += 1;
    }
    i
}

// ---------------------------------------------------------------------
// hot-path-alloc
// ---------------------------------------------------------------------

const MAP_TYPES: &[&str] = &[
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "FxHashMap",
    "FxHashSet",
];

/// Flags heap-allocating constructs in a hot module's (non-test) code:
/// `Vec::new`, `vec![`, `Box::new`, `format!`, `.to_vec()`, `.collect()`,
/// `.to_string()`, `String::from`, and map/set `new`/`default`
/// constructors. Cold or amortized sites carry a justified
/// `// lint: allow(hot-path-alloc)` escape.
pub fn hot_path_alloc(file: &str, toks: &[Tok]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut push = |line: u32, what: &str| {
        out.push(Diagnostic {
            file: file.to_string(),
            line,
            rule: RULE_HOT_PATH,
            message: format!(
                "`{what}` allocates inside a hot module — steady-state ticks must run in \
                 reused capacity; move the allocation to install/startup or justify it with \
                 `// lint: allow(hot-path-alloc): <why this site is cold or amortized>`"
            ),
        });
    };
    for (i, t) in toks.iter().enumerate() {
        match ident(t) {
            Some("vec") if next_is(toks, i, '!') => push(t.line, "vec![..]"),
            Some("format") if next_is(toks, i, '!') => push(t.line, "format!"),
            Some(head @ ("Vec" | "Box" | "String")) if path_sep(toks, i) => {
                if let Some(m) = ident(&toks[i + 3]) {
                    let hit = matches!(
                        (head, m),
                        ("Vec", "new") | ("Box", "new") | ("String", "from")
                    );
                    if hit {
                        push(t.line, &format!("{head}::{m}"));
                    }
                }
            }
            Some(head) if MAP_TYPES.contains(&head) && path_sep(toks, i) => {
                if let Some(m @ ("new" | "default")) = ident(&toks[i + 3]) {
                    push(t.line, &format!("{head}::{m}"));
                }
            }
            Some(m @ ("to_vec" | "collect" | "to_string"))
                if i > 0 && is_punct(&toks[i - 1], '.') =>
            {
                push(t.line, &format!(".{m}()"));
            }
            _ => {}
        }
    }
    out
}

fn next_is(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i + 1).is_some_and(|t| is_punct(t, c))
}

/// Whether `toks[i]` is followed by `::` (a path segment separator).
fn path_sep(toks: &[Tok], i: usize) -> bool {
    i + 3 < toks.len() && next_is(toks, i, ':') && is_punct(&toks[i + 2], ':')
}

// ---------------------------------------------------------------------
// panic-free-wire
// ---------------------------------------------------------------------

/// Identifiers that may legitimately precede `[` without it being an
/// indexing expression (slice patterns, array types, generic bounds).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "while", "match", "return", "mut", "ref", "as", "move", "static",
    "const", "use", "pub", "fn", "where", "impl", "for", "loop", "break", "continue", "dyn",
    "enum", "struct", "trait", "type", "unsafe", "mod", "crate", "box", "yield", "await",
];

/// Flags panicking constructs and bare indexing in wire/codec decode
/// paths: `.unwrap()`, `.expect()`, `panic!`, `unreachable!`, `todo!`,
/// `unimplemented!`, `assert!`/`assert_eq!`/`assert_ne!`, and `expr[...]`
/// indexing (which panics on hostile offsets). Network input must surface
/// as typed `WireError` values, never as a panic.
pub fn panic_free_wire(file: &str, toks: &[Tok]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut push = |line: u32, what: &str, hint: &str| {
        out.push(Diagnostic {
            file: file.to_string(),
            line,
            rule: RULE_WIRE,
            message: format!(
                "`{what}` can panic on hostile or corrupt input — {hint}; if this site is \
                 provably unreachable from network input, justify it with \
                 `// lint: allow(panic-free-wire): <why>`"
            ),
        });
    };
    for (i, t) in toks.iter().enumerate() {
        match ident(t) {
            Some(m @ ("unwrap" | "expect" | "unwrap_err" | "expect_err"))
                if i > 0 && is_punct(&toks[i - 1], '.') && next_is(toks, i, '(') =>
            {
                push(
                    t.line,
                    &format!(".{m}()"),
                    "return a typed `WireError` instead",
                );
            }
            Some(
                m @ ("panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
                | "assert_ne"),
            ) if next_is(toks, i, '!') => {
                push(
                    t.line,
                    &format!("{m}!"),
                    "decode errors must be values, not aborts",
                );
            }
            _ => {}
        }
        if is_punct(t, '[') && i > 0 {
            let prev = &toks[i - 1];
            let indexing = match &prev.kind {
                TokKind::Ident(s) => !NON_INDEX_KEYWORDS.contains(&s.as_str()),
                TokKind::Punct(')') | TokKind::Punct(']') => true,
                _ => false,
            };
            if indexing {
                push(
                    t.line,
                    "expr[..]",
                    "bare indexing aborts on out-of-range offsets; use `get`/`try_into` and \
                     propagate `WireError::Truncated`",
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// forbid-unsafe-everywhere
// ---------------------------------------------------------------------

/// Whether a crate root's token stream carries the inner attribute
/// `#![forbid(unsafe_code)]`.
pub fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    toks.windows(7).any(|w| {
        is_punct(&w[0], '#')
            && is_punct(&w[1], '!')
            && is_punct(&w[2], '[')
            && ident(&w[3]) == Some("forbid")
            && is_punct(&w[4], '(')
            && ident(&w[5]) == Some("unsafe_code")
            && is_punct(&w[6], ')')
    })
}

// ---------------------------------------------------------------------
// float-tolerance
// ---------------------------------------------------------------------

/// The largest literal read as a tolerance.
// lint: allow(float-tolerance): the rule's own threshold
const TOLERANCE_CEILING: f64 = 1e-6;

/// Flags float literals in `(0, 1e-6]` in non-test code. Such a literal is
/// a tolerance, and every network distance is a multiple of one distance
/// unit (`rnn_roadnet::UNIT`), exact in `f64`, so distances compare with
/// `==`. What still needs an epsilon (planar geometry) says why with a
/// `// lint: allow(float-tolerance): <why>` escape.
pub fn float_tolerance(file: &str, toks: &[Tok]) -> Vec<Diagnostic> {
    toks.iter()
        .filter_map(|t| match &t.kind {
            TokKind::Num(text) => float_value(text)
                .filter(|&v| v > 0.0 && v <= TOLERANCE_CEILING)
                .map(|_| (t.line, text)),
            _ => None,
        })
        .map(|(line, text)| Diagnostic {
            file: file.to_string(),
            line,
            rule: RULE_FLOAT,
            message: format!(
                "`{text}` is a float tolerance — network distances are exact multiples of \
                 the distance unit, so compare them with `==`; justify any other epsilon \
                 with `// lint: allow(float-tolerance): <why>`"
            ),
        })
        .collect()
}

/// The value of a float literal (`1e-9`, `0.000_5`, `5e-7f64`); `None`
/// for integer, hex, octal and binary literals.
fn float_value(text: &str) -> Option<f64> {
    let digits: String = text.chars().filter(|&c| c != '_').collect();
    let body = digits.trim_end_matches("f64").trim_end_matches("f32");
    let radix = body.starts_with("0x") || body.starts_with("0o") || body.starts_with("0b");
    if radix || !body.contains(['.', 'e', 'E']) {
        return None;
    }
    body.parse().ok()
}

// ---------------------------------------------------------------------
// doc-comment-shape
// ---------------------------------------------------------------------

/// Catches mechanically mangled doc comments in the manifest's API
/// surface files. The lexer strips comments before the token rules run,
/// so this rule scans **raw source lines** instead:
///
/// * a line opening with four or more slashes (`////`) — rustdoc treats
///   it as a plain comment, so the line silently drops out of the
///   rendered docs while still *looking* like documentation in review;
/// * a plain `//` line sandwiched between doc-comment lines of a block —
///   the classic symptom of a search-and-replace or merge eating one
///   slash, which splits the block and drops the line from the docs.
///
/// Deliberate plain comments between doc lines can be excused with
/// `// lint: allow(doc-comment-shape): <why>`; escape directives
/// themselves are never flagged.
pub fn doc_comment_shape(file: &str, src: &str) -> Vec<Diagnostic> {
    /// Classification of one trimmed line for the sandwich check.
    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Doc,
        Plain,
        /// A `// lint:` escape directive — never flagged itself, and
        /// invisible to the neighbour scan (so an allow placed above a
        /// deliberate plain note does not break the block it excuses).
        Allow,
        Other,
    }
    fn kind(trimmed: &str) -> Kind {
        if trimmed.starts_with("///") || trimmed.starts_with("//!") {
            // `////` is handled (and flagged) separately; for the
            // sandwich check it still marks a doc block.
            Kind::Doc
        } else if trimmed.starts_with("// lint:") {
            Kind::Allow
        } else if trimmed.starts_with("//") {
            Kind::Plain
        } else {
            Kind::Other
        }
    }

    let mut out = Vec::new();
    let kinds: Vec<Kind> = src.lines().map(|l| kind(l.trim_start())).collect();
    for (idx, line) in src.lines().enumerate() {
        let trimmed = line.trim_start();
        let lineno = (idx + 1) as u32;
        if trimmed.starts_with("////") || trimmed.starts_with("//!!") {
            out.push(Diagnostic {
                file: file.to_string(),
                line: lineno,
                rule: RULE_DOC,
                message: format!(
                    "doc comment opens with `{}` — rustdoc treats it as a plain \
                     comment and silently drops the line from the rendered docs; \
                     use `///` (or `//!`)",
                    &trimmed[..4]
                ),
            });
            continue;
        }
        if kinds[idx] != Kind::Plain {
            continue;
        }
        // Sandwiched between doc lines of the same block? Blank lines end
        // a doc block, so only look at the nearest non-escape neighbours.
        let prev_doc = kinds[..idx]
            .iter()
            .rev()
            .find(|&&k| k != Kind::Allow)
            .is_some_and(|&k| k == Kind::Doc);
        let next_doc = kinds[idx + 1..]
            .iter()
            .find(|&&k| k != Kind::Allow)
            .is_some_and(|&k| k == Kind::Doc);
        if prev_doc && next_doc {
            out.push(Diagnostic {
                file: file.to_string(),
                line: lineno,
                rule: RULE_DOC,
                message: "plain `//` line interrupts a doc-comment block — a lost slash \
                          splits the block and drops this line from the rendered docs; \
                          restore `///` or move the comment out of the block"
                    .to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn test_items_are_stripped() {
        let src = "
            fn hot() { work(); }
            #[cfg(test)]
            mod tests {
                fn helper() { data.unwrap(); }
            }
            #[test]
            fn one() { x.unwrap(); }
            #[cfg(all(test, feature = \"x\"))]
            fn gated() { y.unwrap(); }
            fn also_hot() {}
        ";
        let toks = strip_test_code(&lex(src).tokens);
        let ids: Vec<_> = toks.iter().filter_map(ident).collect();
        assert!(ids.contains(&"hot"));
        assert!(ids.contains(&"also_hot"));
        assert!(!ids.contains(&"unwrap"), "{ids:?}");
        assert!(!ids.contains(&"helper"));
    }

    #[test]
    fn non_test_attrs_survive_stripping() {
        let src = "#[derive(Debug)] struct S { a: u32 } #[inline] fn f() {}";
        let toks = strip_test_code(&lex(src).tokens);
        let ids: Vec<_> = toks.iter().filter_map(ident).collect();
        assert!(ids.contains(&"derive"));
        assert!(ids.contains(&"inline"));
        assert!(ids.contains(&"f"));
    }

    #[test]
    fn hot_path_alloc_catches_each_family() {
        let src = r#"
            fn f() {
                let a = Vec::new();
                let b = vec![1, 2];
                let c = Box::new(7);
                let d = format!("x{}", 1);
                let e = s.to_vec();
                let g: Vec<u32> = it.collect();
                let h = String::from("y");
                let i = FxHashMap::default();
                let j = BTreeMap::new();
                let k = s.to_string();
            }
        "#;
        let diags = hot_path_alloc("f.rs", &lex(src).tokens);
        assert_eq!(diags.len(), 10, "{diags:#?}");
    }

    #[test]
    fn hot_path_alloc_ignores_lookalikes() {
        let src = "
            fn f() {
                let a = Vec::with_capacity(4); // growth is explicit, not denied
                let b = pool.new_node();
                let c = collect_stats();
                let d = self.format_mode;
            }
        ";
        assert!(hot_path_alloc("f.rs", &lex(src).tokens).is_empty());
    }

    #[test]
    fn wire_rule_catches_panics_and_indexing() {
        let src = r#"
            fn decode(b: &[u8]) -> u8 {
                let x = r.u32().unwrap();
                let y = r.u16().expect("hdr");
                if bad { panic!("no") }
                assert!(b.len() > 4);
                b[0]
            }
        "#;
        let diags = panic_free_wire("w.rs", &lex(src).tokens);
        assert_eq!(diags.len(), 5, "{diags:#?}");
    }

    #[test]
    fn wire_rule_ignores_types_patterns_and_attrs() {
        let src = "
            #[derive(Debug)]
            struct S { buf: [u8; 4] }
            fn f(chunk: [u8; 16]) -> Option<u8> {
                let [a, b] = pair;
                let ok = buf.get(0)?;
                let arr = [1, 2, 3];
                Some(*ok)
            }
        ";
        let diags = panic_free_wire("w.rs", &lex(src).tokens);
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn wire_rule_flags_chained_and_nested_indexing() {
        let src = "fn f() { m[0]; g()[1]; rows[i][j]; }";
        let diags = panic_free_wire("w.rs", &lex(src).tokens);
        assert_eq!(diags.len(), 4, "{diags:#?}");
    }

    #[test]
    fn forbid_unsafe_detection() {
        assert!(has_forbid_unsafe(
            &lex("//! Docs.\n#![forbid(unsafe_code)]\npub fn f() {}").tokens
        ));
        assert!(!has_forbid_unsafe(
            &lex("#![deny(unsafe_code)]\npub fn f() {}").tokens
        ));
        assert!(!has_forbid_unsafe(&lex("pub fn f() {}").tokens));
    }

    #[test]
    fn doc_shape_passes_well_formed_docs() {
        let src = "\
//! Module docs.
//!
//! More module docs.

/// Item docs with a code fence:
///
/// ```text
/// //// inside a fence still LOOKS bad but we only check line starts
/// ```
pub fn f() {}

// A plain comment between items is fine.
/// Next item.
pub fn g() {}

// ----------------------------------------------------------------
// Section divider, also fine.
";
        let diags = doc_comment_shape("x.rs", src);
        // The fenced `//// inside...` line starts with `/// ` after
        // trimming, so it is a doc line, not a four-slash opener.
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn doc_shape_flags_four_slashes_and_torn_blocks() {
        let src = "\
//// Lost its doc status entirely.
pub fn a() {}

/// First doc line.
// second line lost a slash
/// third doc line.
pub fn b() {}

/// Deliberate tears still get flagged here; the escape directive is
// lint: allow(doc-comment-shape): deliberate plain note inside the block
// invisible to the neighbour scan, and apply_allows suppresses later.
/// ...continues.
pub fn c() {}
";
        let diags = doc_comment_shape("x.rs", src);
        assert_eq!(diags.len(), 3, "{diags:#?}");
        assert!(diags.iter().all(|d| d.rule == RULE_DOC));
        assert_eq!(diags[0].line, 1);
        assert!(diags[0].message.contains("////"));
        assert_eq!(diags[1].line, 5);
        assert!(diags[1].message.contains("interrupts a doc-comment block"));
        // The rule itself still reports the excused line (the directive on
        // the line above is skipped by the neighbour scan, not honoured
        // here); `apply_allows` consumes the directive downstream, which
        // the bad_doc_comment fixture exercises end to end.
        assert_eq!(diags[2].line, 11);
    }
}
