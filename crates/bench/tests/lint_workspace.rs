//! Workspace lint fingerprint: the full `dvs-lint` JSON report over this
//! repository, pinned byte-for-byte in `tests/golden/lint_workspace.json`.
//!
//! The report embeds the graph statistics (functions indexed, hot-closure
//! size, contained set, locked structs) alongside the findings, so a
//! refactor that silently shrinks an analyzed set — an entry point that
//! stops resolving, a containment root that drifts — shows up as golden
//! drift even while the finding list stays empty.
//!
//! Regenerate after an intentional scope change with
//! `REGEN_GOLDEN=1 cargo test -p dvs-bench --test lint_workspace`,
//! then review the diff like any other manifest edit.

use std::path::Path;

use dvs_bench::golden::{check_text, golden_dir};
use dvs_lint::{analyze_workspace, render_json};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

/// The tree must be lint-clean: every hazard either fixed or carrying a
/// reasoned waiver. This is the same gate `repro lint --check` applies.
#[test]
fn workspace_is_lint_clean() {
    let analysis = analyze_workspace(repo_root()).expect("workspace lints");
    assert!(analysis.findings.is_empty(), "unwaived lint findings:\n{}", render_json(&analysis));
    assert!(analysis.advisories.is_empty(), "stale waivers to delete:\n{}", render_json(&analysis));
}

/// The full report matches the committed fingerprint byte-for-byte.
#[test]
fn workspace_report_matches_golden() {
    let analysis = analyze_workspace(repo_root()).expect("workspace lints");
    check_text(&golden_dir().join("lint_workspace.json"), &render_json(&analysis))
        .unwrap_or_else(|e| panic!("{e}"));
}

/// Negative coverage for the schema lock: tampering with a locked struct's
/// recorded field list must surface as a DVS-S001 finding anchored at the
/// struct's definition. Runs against an in-memory tamper — the committed
/// lock file is never touched.
#[test]
fn tampered_schema_lock_is_a_hard_finding() {
    let root = repo_root();
    let manifest = dvs_lint::Manifest::load(root).expect("lint.toml loads");
    let lock_path = root.join(&manifest.schema_lock);
    let lock = std::fs::read_to_string(&lock_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", lock_path.display()));
    assert!(lock.contains("\"fingerprint: u64\""), "lock shape changed:\n{lock}");
    let tampered = lock.replace("\"fingerprint: u64\"", "\"fingerprint: u32\"");

    // Re-scan the tree with the tampered expectation.
    let files = collect_tree(root);
    let refs: Vec<(&str, &str)> = files.iter().map(|(r, s)| (r.as_str(), s.as_str())).collect();
    let wc = dvs_lint::check_sources(&refs, &manifest, Some(&tampered), false);
    let s001: Vec<_> = wc.analysis.findings.iter().filter(|f| f.rule_id == "DVS-S001").collect();
    assert!(
        s001.iter().any(|f| f.matched == "Checkpoint"),
        "drifting `Checkpoint`'s fingerprint field must be caught: {s001:?}"
    );
}

/// Reads the workspace `.rs` files the same way `analyze_workspace` does —
/// the root `src/` plus every `crates/*/src/` — kept local because the
/// engine's collector is not public API.
fn collect_tree(root: &Path) -> Vec<(String, String)> {
    let mut stack = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        stack.extend(entries.flatten().map(|e| e.path().join("src")));
    }
    let mut out = Vec::new();
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(src) = std::fs::read_to_string(&path) {
                    let rel = path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/");
                    out.push((rel, src));
                }
            }
        }
    }
    out.sort();
    out
}
