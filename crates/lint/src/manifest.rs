//! The checked-in lint manifest (`lint.toml` at the workspace root).
//!
//! The manifest declares the *scopes* the rules apply to — which crates
//! carry the determinism contract, which functions root the hot-path
//! closure, where slice indexing is forbidden, which files form the
//! panic-containment domain, which structs are schema-locked, and which
//! files may contain `unsafe`. Keeping scope in a reviewed file (rather
//! than hard-coded in the pass) means widening or narrowing a guarantee is
//! a visible diff.
//!
//! The parser is a deliberately tiny TOML subset — `[section]` headers,
//! `key = "string"`, and `key = [ "a", "b" ]` arrays (single- or
//! multi-line, `#` comments) — because the container has no `toml` crate
//! and the pass must stay dependency-free. Parse failures surface as typed
//! [`LintError`]s, never panics.

use std::collections::BTreeMap;

use crate::error::{io_error, LintError, LintResult};

/// Parsed `lint.toml`. All paths are workspace-relative with forward
/// slashes; crate names are directory names under `crates/`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Crates under the determinism contract (`wall-clock`, `entropy`,
    /// `hash-iter`, `panic`, `discard`, `float-accum` rules).
    pub sim_crates: Vec<String>,
    /// Functions rooting the transitive hot-path closure
    /// (`hot-alloc-transitive`): bare names or `Type::method`.
    pub hot_entry_points: Vec<String>,
    /// Files where slice indexing is forbidden (`index`).
    pub index_strict: Vec<String>,
    /// Files whose panic sites must stay behind `catch_unwind` cell
    /// boundaries (`panic-escape`).
    pub panic_files: Vec<String>,
    /// Functions asserted to run only inside a containment cell, beyond
    /// what `catch_unwind(...)` regions prove automatically.
    pub panic_contained: Vec<String>,
    /// Workspace-relative path of the schema lock file (`schema-lock`);
    /// empty disables the pass.
    pub schema_lock: String,
    /// Struct/enum names whose serialized shape the lock file pins.
    pub schema_structs: Vec<String>,
    /// Files allowed to contain `unsafe`; empty in this workspace, whose
    /// crates and binary are all `#![forbid(unsafe_code)]`.
    pub unsafe_allowed: Vec<String>,
    /// 1-based `lint.toml` line of each `section.key`, for diagnostics
    /// that point back into the manifest.
    pub key_lines: BTreeMap<String, u32>,
}

impl Manifest {
    /// Parses manifest text. Unknown sections or keys are an error — a
    /// typo in the manifest must not silently drop a guarantee.
    pub fn parse(text: &str) -> LintResult<Manifest> {
        let mut sections: BTreeMap<String, BTreeMap<String, (Vec<String>, u32)>> = BTreeMap::new();
        let mut current: Option<String> = None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let line_no = idx as u32 + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                current = Some(name.trim().to_string());
                sections.entry(name.trim().to_string()).or_default();
                continue;
            }
            let Some((key, mut value)) = line.split_once('=') else {
                return Err(LintError::ManifestParse {
                    line: line_no,
                    detail: "expected `key = value`".to_string(),
                });
            };
            let Some(section) = current.clone() else {
                return Err(LintError::ManifestParse {
                    line: line_no,
                    detail: "key outside any [section]".to_string(),
                });
            };
            let key = key.trim().to_string();
            // Multi-line arrays: keep consuming until the closing bracket.
            let mut buf = value.trim().to_string();
            while buf.starts_with('[') && !balanced(&buf) {
                let Some((_, next)) = lines.next() else {
                    return Err(LintError::ManifestParse {
                        line: line_no,
                        detail: "unterminated array".to_string(),
                    });
                };
                buf.push(' ');
                buf.push_str(strip_comment(next).trim());
            }
            value = &buf;
            let items = parse_value(value)
                .map_err(|detail| LintError::ManifestParse { line: line_no, detail })?;
            sections.entry(section).or_default().insert(key, (items, line_no));
        }

        let mut m = Manifest::default();
        for (section, keys) in sections {
            for (key, (items, line_no)) in keys {
                m.key_lines.insert(format!("{section}.{key}"), line_no);
                match (section.as_str(), key.as_str()) {
                    ("determinism", "sim_crates") => m.sim_crates = items,
                    ("hot", "entry_points") => m.hot_entry_points = items,
                    ("hot", "index_strict") => m.index_strict = items,
                    ("panic_domains", "files") => m.panic_files = items,
                    ("panic_domains", "contained") => m.panic_contained = items,
                    ("schema", "lock") => {
                        let [lock] = items.as_slice() else {
                            return Err(LintError::ManifestParse {
                                line: line_no,
                                detail: "`lock` takes exactly one path".to_string(),
                            });
                        };
                        m.schema_lock = lock.clone();
                    }
                    ("schema", "structs") => m.schema_structs = items,
                    ("unsafe_code", "allowed") => m.unsafe_allowed = items,
                    _ => {
                        return Err(LintError::ManifestInvalid(format!(
                            "unknown key `{key}` in section `[{section}]`"
                        )))
                    }
                }
            }
        }
        Ok(m)
    }

    /// Loads and parses `<root>/lint.toml`.
    pub fn load(root: &std::path::Path) -> LintResult<Manifest> {
        let path = root.join("lint.toml");
        let text = std::fs::read_to_string(&path).map_err(|e| io_error(&path, "read", e))?;
        Manifest::parse(&text)
    }

    /// The manifest line a `section.key` was declared on (1 if unknown).
    pub fn line_of(&self, section_key: &str) -> u32 {
        self.key_lines.get(section_key).copied().unwrap_or(1)
    }

    /// Whether a workspace-relative path belongs to a sim crate.
    pub fn is_sim_crate_path(&self, rel: &str) -> bool {
        self.sim_crates.iter().any(|c| {
            rel.strip_prefix("crates/")
                .and_then(|r| r.strip_prefix(c.as_str()))
                .is_some_and(|r| r.starts_with('/'))
        })
    }

    /// Whether a workspace-relative path is under the slice-index rule.
    pub fn is_index_strict(&self, rel: &str) -> bool {
        self.index_strict.iter().any(|p| p == rel)
    }

    /// Whether a workspace-relative path is in the panic-containment domain.
    pub fn is_panic_domain(&self, rel: &str) -> bool {
        self.panic_files.iter().any(|p| p == rel)
    }

    /// Whether a workspace-relative path may contain `unsafe`.
    pub fn allows_unsafe(&self, rel: &str) -> bool {
        self.unsafe_allowed.iter().any(|p| p == rel)
    }
}

fn strip_comment(line: &str) -> &str {
    // `#` starts a comment unless inside a quoted string.
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

fn balanced(buf: &str) -> bool {
    buf.trim_end().ends_with(']')
}

fn parse_value(value: &str) -> Result<Vec<String>, String> {
    let value = value.trim();
    if let Some(inner) = value.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
        let mut out = Vec::new();
        for item in inner.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue; // trailing comma
            }
            out.push(parse_string(item)?);
        }
        return Ok(out);
    }
    Ok(vec![parse_string(value)?])
}

fn parse_string(value: &str) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, found `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# workspace lint manifest
[determinism]
sim_crates = ["sim", "pipeline"]

[hot]
entry_points = [
    "run_batch",   # the batch kernel
    "EventQueue::schedule",
]
index_strict = ["crates/sim/src/event.rs"]

[panic_domains]
files = ["crates/bench/src/resilient.rs"]
contained = ["run_attempts"]

[schema]
lock = "tests/golden/schema_lock.json"
structs = ["RunReport", "Checkpoint"]

[unsafe_code]
allowed = ["crates/bench/src/bin/repro.rs"]
"#;

    #[test]
    fn parses_sections_arrays_and_comments() {
        let m = Manifest::parse(SAMPLE).unwrap();
        assert_eq!(m.sim_crates, ["sim", "pipeline"]);
        assert_eq!(m.hot_entry_points, ["run_batch", "EventQueue::schedule"]);
        assert_eq!(m.index_strict, ["crates/sim/src/event.rs"]);
        assert_eq!(m.panic_files, ["crates/bench/src/resilient.rs"]);
        assert_eq!(m.panic_contained, ["run_attempts"]);
        assert_eq!(m.schema_lock, "tests/golden/schema_lock.json");
        assert_eq!(m.schema_structs, ["RunReport", "Checkpoint"]);
        assert_eq!(m.unsafe_allowed, ["crates/bench/src/bin/repro.rs"]);
    }

    #[test]
    fn key_lines_point_back_into_the_manifest() {
        let m = Manifest::parse(SAMPLE).unwrap();
        assert_eq!(m.line_of("hot.entry_points"), 7);
        assert_eq!(m.line_of("schema.structs"), 19);
        assert_eq!(m.line_of("no.such_key"), 1);
    }

    #[test]
    fn path_classification() {
        let m = Manifest::parse(SAMPLE).unwrap();
        assert!(m.is_sim_crate_path("crates/sim/src/lib.rs"));
        assert!(m.is_sim_crate_path("crates/pipeline/src/core/mod.rs"));
        assert!(!m.is_sim_crate_path("crates/simulator/src/lib.rs")); // prefix, not match
        assert!(!m.is_sim_crate_path("crates/bench/src/lib.rs"));
        assert!(m.is_panic_domain("crates/bench/src/resilient.rs"));
        assert!(!m.is_panic_domain("crates/bench/src/sweep.rs"));
    }

    #[test]
    fn unknown_keys_are_typed_errors() {
        let err = Manifest::parse("[determinism]\nsim_crate = [\"x\"]\n").unwrap_err();
        assert!(matches!(err, LintError::ManifestInvalid(_)), "{err}");
        assert!(Manifest::parse("[typo]\nsim_crates = [\"x\"]\n").is_err());
        // The retired file-scoped hot list is an unknown key, not a no-op.
        let err = Manifest::parse("[hot]\npaths = [\"crates/sim/src/event.rs\"]\n").unwrap_err();
        assert!(matches!(err, LintError::ManifestInvalid(_)), "{err}");
        let err = Manifest::parse("orphan = \"x\"\n").unwrap_err();
        assert!(matches!(err, LintError::ManifestParse { line: 1, .. }), "{err}");
    }

    #[test]
    fn garbled_values_carry_the_line() {
        let err = Manifest::parse("[hot]\nentry_points = [\n  \"a\"\n").unwrap_err();
        assert!(matches!(err, LintError::ManifestParse { line: 2, .. }), "{err}");
        let err = Manifest::parse("[hot]\nentry_points = 42\n").unwrap_err();
        assert!(matches!(err, LintError::ManifestParse { line: 2, .. }), "{err}");
        let err = Manifest::parse("[schema]\nlock = [\"a\", \"b\"]\n").unwrap_err();
        assert!(matches!(err, LintError::ManifestParse { line: 2, .. }), "{err}");
    }

    #[test]
    fn missing_manifest_is_a_typed_io_error() {
        let err = Manifest::load(std::path::Path::new("/nonexistent-dvs-lint")).unwrap_err();
        assert!(matches!(err, LintError::Io { op: "read", .. }), "{err}");
    }
}
