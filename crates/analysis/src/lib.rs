//! `rnn-analysis` — a project-native static lint pass for the rnn-monitor
//! workspace.
//!
//! Generic linters cannot see this project's invariants: that the
//! steady-state tick path must not allocate (the runtime `alloc_events`
//! gate only catches what a benchmark happens to execute), that the wire
//! decode paths must never panic on hostile bytes, and that the API
//! surface's doc comments stay mechanically well-formed, and that no
//! float tolerance creeps back into code whose distances are exact.
//! This crate encodes those invariants as five rules over a hand-rolled
//! Rust lexer and runs them at review time:
//!
//! ```text
//! cargo run -p rnn-analysis -- check
//! ```
//!
//! Scope lives in `lint.toml` at the workspace root; per-site escapes are
//! `// lint: allow(<rule>): <justification>` comments with a mandatory
//! non-empty justification. Unused escapes are themselves diagnostics, so
//! the allow-list cannot rot.
#![forbid(unsafe_code)]

pub mod diag;
pub mod lexer;
pub mod manifest;
pub mod rules;

use std::path::{Path, PathBuf};

use diag::{apply_allows, Diagnostic, LINT_ALLOW_RULE};
use lexer::{lex, AllowDirective};
use manifest::{Manifest, ManifestExt};
use rules::{
    doc_comment_shape, float_tolerance, has_forbid_unsafe, hot_path_alloc, panic_free_wire,
    strip_test_code, RULE_DOC, RULE_FLOAT, RULE_HOT_PATH, RULE_UNSAFE, RULE_WIRE,
};

/// The manifest file the pass is configured by.
pub const MANIFEST_NAME: &str = "lint.toml";

/// Runs every configured rule over the tree rooted at `root` (which must
/// contain a [`MANIFEST_NAME`]). `Ok` carries the findings — empty means
/// the tree is clean; `Err` means the pass itself could not run (missing
/// manifest, unreadable scoped file, malformed manifest), which is always
/// a hard failure: a lint pass that silently skips scope enforces nothing.
pub fn check_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let manifest_path = root.join(MANIFEST_NAME);
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let m = manifest::parse(&text).map_err(|e| format!("{MANIFEST_NAME}: {e}"))?;

    let mut out = Vec::new();
    check_token_rules(root, &m, &mut out)?;
    check_forbid_unsafe(root, &m, &mut out)?;
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(out)
}

/// Reads a manifest-scoped file; missing scope is a hard error, not a
/// silently narrowed rule.
fn read_scoped(root: &Path, rel: &str) -> Result<String, String> {
    std::fs::read_to_string(root.join(rel))
        .map_err(|e| format!("{MANIFEST_NAME} scopes `{rel}` but it cannot be read: {e}"))
}

/// Runs the per-file rules (`hot-path-alloc`, `panic-free-wire`,
/// `doc-comment-shape`, and `float-tolerance` over every `.rs` file
/// below its `dirs`) over their manifest scopes. A file scoped by
/// several rules is lexed once and its escapes are resolved across all
/// of them, so an allow for one rule is never misreported as unused just
/// because another rule also covers the file.
fn check_token_rules(root: &Path, m: &Manifest, out: &mut Vec<Diagnostic>) -> Result<(), String> {
    let hot = m.list(RULE_HOT_PATH, "files").unwrap_or_default();
    let wire = m.list(RULE_WIRE, "files").unwrap_or_default();
    let docs = m.list(RULE_DOC, "files").unwrap_or_default();
    let mut floats = Vec::new();
    for dir in m.list(RULE_FLOAT, "dirs").unwrap_or_default() {
        let entries = std::fs::read_dir(root.join(&dir))
            .map_err(|e| format!("{MANIFEST_NAME} scopes `{dir}` but it cannot be read: {e}"))?;
        walk_for_sources(root, entries, &mut floats);
    }
    let scoped = hot.iter().chain(&wire).chain(&docs).chain(&floats);
    let mut files: Vec<&String> = scoped.collect();
    files.sort();
    files.dedup();

    for rel in files {
        let src = read_scoped(root, rel)?;
        let lexed = lex(&src);
        let toks = strip_test_code(&lexed.tokens);
        let mut diags = Vec::new();
        if hot.contains(rel) {
            diags.extend(hot_path_alloc(rel, &toks));
        }
        if wire.contains(rel) {
            diags.extend(panic_free_wire(rel, &toks));
        }
        if docs.contains(rel) {
            // The lexer strips comments, so the doc rule reads the raw
            // source instead of the token stream.
            diags.extend(doc_comment_shape(rel, &src));
        }
        if floats.contains(rel) {
            diags.extend(float_tolerance(rel, &toks));
        }
        let (known, unknown): (Vec<AllowDirective>, Vec<AllowDirective>) =
            lexed.allows.into_iter().partition(|a| {
                [RULE_HOT_PATH, RULE_WIRE, RULE_UNSAFE, RULE_DOC, RULE_FLOAT]
                    .contains(&a.rule.as_str())
            });
        for a in unknown {
            out.push(Diagnostic {
                file: rel.clone(),
                line: a.line,
                rule: LINT_ALLOW_RULE,
                message: format!("`lint: allow({})` names an unknown rule", a.rule),
            });
        }
        out.extend(apply_allows(rel, &known, &lexed.malformed_allows, diags));
    }
    Ok(())
}

/// Walks the tree for crate roots (any `Cargo.toml` with sibling sources)
/// and demands `#![forbid(unsafe_code)]` in each root file. Directories
/// whose name appears in the manifest's `skip` list are pruned, as are
/// dot-directories and build output.
fn check_forbid_unsafe(root: &Path, m: &Manifest, out: &mut Vec<Diagnostic>) -> Result<(), String> {
    if m.table(RULE_UNSAFE).is_none() {
        return Ok(());
    }
    let skip = m.list(RULE_UNSAFE, "skip").unwrap_or_default();
    let mut manifests = Vec::new();
    walk_for_manifests(root, &skip, &mut manifests);
    manifests.sort();
    for dir in manifests {
        let mut roots: Vec<PathBuf> = ["src/lib.rs", "src/main.rs"]
            .iter()
            .map(|r| dir.join(r))
            .filter(|p| p.is_file())
            .collect();
        if let Ok(entries) = std::fs::read_dir(dir.join("src/bin")) {
            let mut bins: Vec<PathBuf> = entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "rs"))
                .collect();
            bins.sort();
            roots.extend(bins);
        }
        for path in roots {
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            if !has_forbid_unsafe(&lex(&src).tokens) {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .into_owned();
                out.push(Diagnostic {
                    file: rel,
                    line: 1,
                    rule: RULE_UNSAFE,
                    message: "crate root lacks `#![forbid(unsafe_code)]` — every crate in \
                              this workspace statically rejects unsafe blocks"
                        .to_string(),
                });
            }
        }
    }
    Ok(())
}

/// Collects every `.rs` file below a directory's `entries`, as a path
/// relative to `root` with `/` separators.
fn walk_for_sources(root: &Path, entries: std::fs::ReadDir, out: &mut Vec<String>) {
    for path in entries.filter_map(|e| e.ok()).map(|e| e.path()) {
        if path.is_dir() {
            if let Ok(sub) = std::fs::read_dir(&path) {
                walk_for_sources(root, sub, out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let parts: Vec<_> = rel.iter().map(|p| p.to_string_lossy()).collect();
            out.push(parts.join("/"));
        }
    }
}

/// Depth-first search for directories containing a `Cargo.toml`.
fn walk_for_manifests(dir: &Path, skip: &[String], out: &mut Vec<PathBuf>) {
    if dir.join("Cargo.toml").is_file() {
        out.push(dir.to_path_buf());
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if !path.is_dir() {
            continue;
        }
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" || skip.iter().any(|s| s == &*name) {
            continue;
        }
        walk_for_manifests(&path, skip, out);
    }
}
