//! Workspace-graph fixtures: a synthetic multi-file workspace under
//! `tests/fixtures/graph/` exercising every interprocedural pass at once,
//! with the full JSON report pinned byte-for-byte in
//! `tests/goldens/workspace_graph.json`.
//!
//! The hot entry (`pump` in `hot_lib.rs`) is allocation-free and its
//! helper in another file, `hot_util.rs`, is not: DVS-H002 walks the call
//! edge across files and flags the helper.
//!
//! Regenerate the golden after an intentional rule change with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p dvs-lint --test workspace_graph
//! ```

mod common;

use std::path::PathBuf;

use dvs_lint::{check_sources, render_json, Manifest, WorkspaceCheck};

/// The command that rewrites this file's golden.
const REGEN: &str = "REGEN_GOLDEN=1 cargo test -p dvs-lint --test workspace_graph";

/// The synthetic workspace: one hot crate (entry + extracted helper), one
/// executor crate (panic domain), one sim crate (float reduction + locked
/// schema). `vanished` and `Ghost` are deliberate stale manifest entries.
fn graph_manifest() -> Manifest {
    Manifest::parse(concat!(
        "[determinism]\n",
        "sim_crates = [\"simx\"]\n",
        "[hot]\n",
        "entry_points = [\"pump\", \"vanished\"]\n",
        "index_strict = []\n",
        "[panic_domains]\n",
        "files = [\"crates/exec/src/worker.rs\"]\n",
        "contained = []\n",
        "[schema]\n",
        "lock = \"tests/golden/schema_lock.json\"\n",
        "structs = [\"Stats\", \"Ghost\"]\n",
        "[unsafe_code]\n",
        "allowed = []\n",
    ))
    .expect("graph fixture manifest parses")
}

fn dir(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join(sub)
}

/// Loads the corpus as `(workspace-relative path, source)` pairs.
fn sources() -> Vec<(String, String)> {
    let load = |stem: &str| {
        let p = dir("fixtures").join("graph").join(format!("{stem}.rs"));
        std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
    };
    vec![
        ("crates/hot/src/lib.rs".to_string(), load("hot_lib")),
        ("crates/hot/src/util.rs".to_string(), load("hot_util")),
        ("crates/exec/src/worker.rs".to_string(), load("exec_worker")),
        ("crates/simx/src/merge.rs".to_string(), load("simx_merge")),
    ]
}

fn run(expected: Option<&str>, regen: bool) -> WorkspaceCheck {
    let files = sources();
    let refs: Vec<(&str, &str)> = files.iter().map(|(r, s)| (r.as_str(), s.as_str())).collect();
    check_sources(&refs, &graph_manifest(), expected, regen)
}

/// The canonical lock text for the corpus, with `Stats`' field list
/// tampered — the deterministic drift the S001 tests and the golden pin.
fn drifted_lock() -> String {
    let actual = run(None, true).schema_lock_text.expect("schema section is enabled");
    assert!(actual.contains("sum: f64"), "fixture lock text changed shape:\n{actual}");
    actual.replace("sum: f64", "sum: f32")
}

#[test]
fn h002_follows_the_call_edge_into_the_helper() {
    let wc = run(None, true); // regen mode: schema drift out of scope here
    let a = &wc.analysis;
    let h = a
        .findings
        .iter()
        .find(|f| f.rule_id == "DVS-H002")
        .expect("the extracted helper's allocation must be caught");
    assert_eq!(h.path, "crates/hot/src/util.rs");
    assert_eq!(h.matched, "Vec::new");
    assert!(h.message.contains("pump"), "chain names the entry: {}", h.message);
}

#[test]
fn p003_flags_escaping_sites_and_spares_contained_ones() {
    let a = run(None, true).analysis;
    let p: Vec<_> = a.findings.iter().filter(|f| f.rule_id == "DVS-P003").collect();
    assert!(
        p.iter().any(|f| f.path == "crates/exec/src/worker.rs" && f.matched.contains('[')),
        "the summary index escapes every boundary: {p:?}"
    );
    assert!(
        p.iter().all(|f| !f.snippet.contains("checked_mul")),
        "`step` runs behind catch_unwind and must stay unflagged: {p:?}"
    );
}

#[test]
fn f001_fires_on_the_shard_merge() {
    let a = run(None, true).analysis;
    let f = a
        .findings
        .iter()
        .find(|f| f.rule_id == "DVS-F001")
        .expect("the f64 merge accumulation must be caught");
    assert_eq!(f.path, "crates/simx/src/merge.rs");
    assert!(f.message.contains("merge"), "{}", f.message);
}

#[test]
fn m001_reports_the_stale_entry_and_the_stale_schema_struct() {
    let a = run(None, true).analysis;
    let m: Vec<_> = a.findings.iter().filter(|f| f.rule_id == "DVS-M001").collect();
    assert_eq!(m.len(), 2, "{m:?}");
    assert!(m.iter().any(|f| f.message.contains("vanished")), "{m:?}");
    assert!(m.iter().any(|f| f.message.contains("Ghost")), "{m:?}");
    assert!(m.iter().all(|f| f.path == "lint.toml"), "{m:?}");
}

#[test]
fn s001_names_the_drifted_struct_at_its_definition() {
    let a = run(Some(&drifted_lock()), false).analysis;
    let s = a
        .findings
        .iter()
        .find(|f| f.rule_id == "DVS-S001")
        .expect("a tampered field list must be drift");
    assert_eq!(s.path, "crates/simx/src/merge.rs", "anchored at the definition: {s:?}");
    assert!(s.message.contains("Stats"), "{}", s.message);
}

#[test]
fn s001_regen_suppresses_drift_and_returns_the_lock_text() {
    let wc = run(Some(&drifted_lock()), true);
    assert!(wc.analysis.findings.iter().all(|f| f.rule_id != "DVS-S001"));
    let text = wc.schema_lock_text.expect("regen returns the canonical text");
    assert!(text.contains("\"Stats\""));
    assert!(!text.contains("\"Ghost\""), "stale names never enter the lock");
}

#[test]
fn golden_report_is_stable() {
    // The pinned run uses the tampered lock so the golden covers every
    // interprocedural rule at once: H002, P003, F001, M001 ×2, and S001.
    let got = render_json(&run(Some(&drifted_lock()), false).analysis);
    let golden_path = dir("goldens").join("workspace_graph.json");
    if std::env::var_os("REGEN_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(&golden_path, &got).unwrap();
    } else {
        let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!("read golden {}: {e}\nrun `{REGEN}` to create it", golden_path.display())
        });
        common::assert_golden("workspace-graph report", &want, &got, REGEN);
    }
}
