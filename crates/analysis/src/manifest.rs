//! The `lint.toml` scope manifest: which files each rule covers.
//!
//! Parsed with a purpose-built reader for the small TOML subset the
//! manifest actually uses — `[section]` / `[section.sub]` headers, `key =
//! "string"`, `key = ["array", "of", "strings"]` (multi-line allowed), and
//! `#` comments — keeping the crate dependency-free like the rest of the
//! vendor-stub discipline. Anything outside that subset is a hard error:
//! a manifest that cannot be read precisely must not silently narrow a
//! rule's scope.

use std::collections::BTreeMap;

/// One parsed value: a string or a list of strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// `key = "text"`.
    Str(String),
    /// `key = ["a", "b"]`.
    List(Vec<String>),
}

/// `section name → key → value`; subsections keep their dotted name
/// (`rule.sub`).
pub type Manifest = BTreeMap<String, BTreeMap<String, Value>>;

/// Parses manifest text. Errors carry the 1-based line number.
pub fn parse(src: &str) -> Result<Manifest, String> {
    let mut out = Manifest::new();
    let mut section = String::new();
    let mut lines = src.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(format!("line {lineno}: unterminated section header"));
            };
            section = name.trim().to_string();
            if section.is_empty() {
                return Err(format!("line {lineno}: empty section name"));
            }
            out.entry(section.clone()).or_default();
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(format!("line {lineno}: expected `key = value`"));
        };
        let key = line[..eq].trim().to_string();
        if key.is_empty() || section.is_empty() {
            return Err(format!("line {lineno}: key outside a section"));
        }
        let mut value_text = line[eq + 1..].trim().to_string();
        // A multi-line array: keep consuming lines until the bracket
        // closes (strings in the manifest never contain brackets).
        if value_text.starts_with('[') {
            while !balanced(&value_text) {
                let Some((_, more)) = lines.next() else {
                    return Err(format!("line {lineno}: unterminated array for `{key}`"));
                };
                value_text.push(' ');
                value_text.push_str(strip_comment(more).trim());
            }
        }
        let value = parse_value(&value_text)
            .map_err(|e| format!("line {lineno}: value for `{key}`: {e}"))?;
        out.entry(section.clone()).or_default().insert(key, value);
    }
    Ok(out)
}

/// Cuts a `#` comment, respecting `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// Whether every `[` in an array literal has closed (strings excluded).
fn balanced(text: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    for c in text.chars() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
        escaped = false;
    }
    depth <= 0
}

fn parse_value(text: &str) -> Result<Value, String> {
    if let Some(inner) = text.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array".to_string())?;
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(parse_string(part)?);
        }
        return Ok(Value::List(items));
    }
    Ok(Value::Str(parse_string(text)?))
}

/// Splits on commas outside quotes.
fn split_top_level(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in text.chars() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                cur.push(c);
                continue;
            }
            '"' if !escaped => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
        escaped = false;
    }
    parts.push(cur);
    parts
}

fn parse_string(text: &str) -> Result<String, String> {
    let t = text.trim();
    let inner = t
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("expected a quoted string, got `{t}`"))?;
    // The manifest's strings are paths, column names, and prose; the only
    // escapes worth honouring are \" and \\.
    Ok(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
}

/// Convenience accessors over a parsed manifest.
pub trait ManifestExt {
    /// The string list at `section.key`, if the section and key exist.
    fn list(&self, section: &str, key: &str) -> Option<Vec<String>>;
    /// All `key → string value` pairs of a section.
    fn table(&self, section: &str) -> Option<&BTreeMap<String, Value>>;
}

impl ManifestExt for Manifest {
    fn list(&self, section: &str, key: &str) -> Option<Vec<String>> {
        match self.get(section)?.get(key)? {
            Value::List(v) => Some(v.clone()),
            Value::Str(s) => Some(vec![s.clone()]),
        }
    }
    fn table(&self, section: &str) -> Option<&BTreeMap<String, Value>> {
        self.get(section)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_keys_arrays_and_comments_parse() {
        let m = parse(
            "# top comment\n\
             [hot-path-alloc]\n\
             files = [\n\
               \"a.rs\", # trailing\n\
               \"b.rs\",\n\
             ]\n\
             [rule.sub]\n\
             key = \"text\"\n",
        )
        .unwrap();
        assert_eq!(
            m.list("hot-path-alloc", "files").unwrap(),
            vec!["a.rs".to_string(), "b.rs".to_string()]
        );
        assert_eq!(m["rule.sub"]["key"], Value::Str("text".to_string()));
    }

    #[test]
    fn hash_inside_strings_is_not_a_comment() {
        let m = parse("[s]\nkey = \"has # inside\"\n").unwrap();
        assert_eq!(m["s"]["key"], Value::Str("has # inside".to_string()));
    }

    #[test]
    fn malformed_manifests_are_hard_errors() {
        for bad in [
            "[unclosed\nkey = \"v\"\n",
            "key = \"outside any section\"\n",
            "[s]\nkey = unquoted\n",
            "[s]\nkey = [\"never closed\"\n",
            "[s]\njust a line\n",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn empty_sections_exist() {
        let m = parse("[forbid-unsafe]\n").unwrap();
        assert!(m.table("forbid-unsafe").is_some());
    }
}
