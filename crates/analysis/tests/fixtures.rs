//! The committed fixture corpus: one known-good tree and one
//! known-bad tree per rule (plus one for the escape syntax itself).
//! Each bad fixture must produce findings — these are the trees the CLI
//! is required to exit non-zero on — and the good tree must be clean.

use std::path::PathBuf;

use rnn_analysis::check_workspace;
use rnn_analysis::diag::Diagnostic;

fn check_fixture(name: &str) -> Vec<Diagnostic> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    check_workspace(&root).unwrap_or_else(|e| panic!("fixture {name}: pass failed to run: {e}"))
}

#[test]
fn good_fixture_is_clean() {
    let diags = check_fixture("good");
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn bad_hot_path_finds_every_alloc_family() {
    let diags = check_fixture("bad_hot_path");
    assert_eq!(diags.len(), 5, "{diags:#?}");
    assert!(diags.iter().all(|d| d.rule == "hot-path-alloc"));
    for needle in ["Vec::new", "format!", ".to_vec()", "Box::new", ".collect()"] {
        assert!(
            diags.iter().any(|d| d.message.contains(needle)),
            "no finding for {needle}: {diags:#?}"
        );
    }
}

#[test]
fn bad_wire_finds_panics_and_indexing() {
    let diags = check_fixture("bad_wire");
    assert_eq!(diags.len(), 5, "{diags:#?}");
    assert!(diags.iter().all(|d| d.rule == "panic-free-wire"));
    for needle in ["assert!", ".unwrap()", "panic!", "expr[..]"] {
        assert!(
            diags.iter().any(|d| d.message.contains(needle)),
            "no finding for {needle}: {diags:#?}"
        );
    }
}

#[test]
fn bad_replog_finds_the_panicking_fencing_path() {
    let diags = check_fixture("bad_replog");
    assert_eq!(diags.len(), 4, "{diags:#?}");
    assert!(diags.iter().all(|d| d.rule == "panic-free-wire"));
    for needle in [".unwrap()", "panic!", "expr[..]"] {
        assert!(
            diags.iter().any(|d| d.message.contains(needle)),
            "no finding for {needle}: {diags:#?}"
        );
    }
}

#[test]
fn bad_float_tolerance_finds_both_tolerances_and_nothing_else() {
    let diags = check_fixture("bad_float_tolerance");
    assert_eq!(diags.len(), 2, "{diags:#?}");
    assert!(diags.iter().all(|d| d.rule == "float-tolerance"));
    assert_eq!((diags[0].line, diags[1].line), (5, 9), "{diags:#?}");
    assert!(diags[0].message.contains("`1e-9`"));
    assert!(diags[1].message.contains("`0.000_000_5`"));
}

#[test]
fn bad_unsafe_demands_forbid_not_deny() {
    let diags = check_fixture("bad_unsafe");
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, "forbid-unsafe-everywhere");
    assert!(diags[0].file.ends_with("crate/src/lib.rs"));
}

#[test]
fn bad_doc_comment_finds_four_slash_openers_and_torn_blocks() {
    let diags = check_fixture("bad_doc_comment");
    assert_eq!(diags.len(), 2, "{diags:#?}");
    assert!(diags.iter().all(|d| d.rule == "doc-comment-shape"));
    assert_eq!(diags[0].line, 1);
    assert!(diags[0].message.contains("////"));
    assert_eq!(diags[1].line, 5);
    assert!(diags[1].message.contains("interrupts a doc-comment block"));
    // The fixture's third tear carries a justified escape, which both
    // suppresses the finding and counts as used (no lint-allow diag).
}

#[test]
fn bad_allow_reports_malformed_unused_and_unknown_escapes() {
    let diags = check_fixture("bad_allow");
    assert_eq!(diags.len(), 4, "{diags:#?}");
    // The escape with the empty justification does NOT suppress the
    // allocation below it.
    assert!(diags.iter().any(|d| d.rule == "hot-path-alloc"));
    let meta: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "lint-allow").collect();
    assert_eq!(meta.len(), 3, "{diags:#?}");
    assert!(meta.iter().any(|d| d.message.contains("malformed")));
    assert!(meta.iter().any(|d| d.message.contains("unused")));
    assert!(meta.iter().any(|d| d.message.contains("unknown rule")));
}

#[test]
fn missing_manifest_is_a_hard_error_not_a_clean_pass() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let err = check_workspace(&root).unwrap_err();
    assert!(err.contains("lint.toml"), "{err}");
}
