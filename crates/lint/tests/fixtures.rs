//! Fixture corpus: known-bad source files under `tests/fixtures/`, with the
//! full JSON report pinned byte-for-byte in `tests/goldens/`.
//!
//! Each fixture is scanned via [`dvs_lint::check_source`] under a synthetic
//! manifest/path that puts it in the scope its hazards target (sim crate,
//! index-strict). After an intentional rule change, regenerate
//! with the workspace-wide convention:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p dvs-lint --test fixtures
//! ```
//!
//! then review the golden diff like any other source change.

mod common;

use std::path::PathBuf;

use dvs_lint::{check_source, render_json, Manifest};

/// The command that rewrites this file's goldens.
const REGEN: &str = "REGEN_GOLDEN=1 cargo test -p dvs-lint --test fixtures";

/// Manifest used for every fixture: all fixtures pose as files inside a
/// `sim` crate; `panics.rs` (plus `clean.rs`, to prove cleanliness under
/// maximum scope) is additionally index-strict.
fn fixture_manifest() -> Manifest {
    Manifest::parse(concat!(
        "[determinism]\n",
        "sim_crates = [\"sim\"]\n",
        "[hot]\n",
        "index_strict = [\"crates/sim/src/panics.rs\", \"crates/sim/src/clean.rs\"]\n",
        "[unsafe_code]\n",
        "allowed = []\n",
    ))
    .expect("fixture manifest parses")
}

fn dir(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join(sub)
}

/// Scans one fixture and compares (or regenerates) its golden JSON report.
fn check_fixture(stem: &str) -> dvs_lint::Analysis {
    let src_path = dir("fixtures").join(format!("{stem}.rs"));
    let src = std::fs::read_to_string(&src_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", src_path.display()));
    let rel = format!("crates/sim/src/{stem}.rs");
    let analysis = check_source(&rel, &src, &fixture_manifest());
    let got = render_json(&analysis);

    let golden_path = dir("goldens").join(format!("{stem}.json"));
    if std::env::var_os("REGEN_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &got).unwrap();
    } else {
        let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!("read golden {}: {e}\nrun `{REGEN}` to create it", golden_path.display())
        });
        common::assert_golden(&format!("fixture `{stem}`"), &want, &got, REGEN);
    }
    analysis
}

#[test]
fn determinism_fixture_fires_every_d_rule() {
    let a = check_fixture("determinism");
    let ids: Vec<&str> = a.findings.iter().map(|f| f.rule_id.as_str()).collect();
    for id in ["DVS-D001", "DVS-D002", "DVS-D003"] {
        assert!(ids.contains(&id), "expected {id} in {ids:?}");
    }
    // Span accuracy spot check: `Instant::now` on line 9 of the fixture.
    let inst = a.findings.iter().find(|f| f.matched == "Instant::now").unwrap();
    assert_eq!((inst.line, inst.col), (9, 14));
    assert_eq!(inst.snippet, "let t0 = Instant::now();");
}

#[test]
fn panics_fixture_fires_outside_tests_only() {
    let a = check_fixture("panics");
    let ids: Vec<&str> = a.findings.iter().map(|f| f.rule_id.as_str()).collect();
    assert!(ids.contains(&"DVS-P001"), "{ids:?}");
    assert!(ids.contains(&"DVS-P002"), "{ids:?}");
    // The #[cfg(test)] module starts at line 16; nothing may fire inside.
    assert!(
        a.findings.iter().all(|f| f.line < 16),
        "findings leaked into the test module: {:?}",
        a.findings
    );
}

#[test]
fn discard_fixture_flags_bare_underscore_calls_only() {
    let a = check_fixture("discard");
    assert_eq!(a.findings.len(), 2, "{:?}", a.findings);
    assert!(a.findings.iter().all(|f| f.rule_id == "DVS-R001"));
    let lines: Vec<u32> = a.findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![11, 12]); // not the `_checked` binding, not `let _ = 17`
}

#[test]
fn waivers_fixture_exercises_the_full_state_machine() {
    let a = check_fixture("waivers");
    // Two waivers honoured (trailing hash-iter + standalone panic).
    assert_eq!(a.waivers_honoured, 2);
    // The reason-less waiver is a W001 AND its unwrap still fires; the
    // unknown-rule waiver is a second W001.
    let w001 = a.findings.iter().filter(|f| f.rule_id == "DVS-W001").count();
    assert_eq!(w001, 2, "{:?}", a.findings);
    assert!(a.findings.iter().any(|f| f.rule_id == "DVS-P001" && f.line == 14));
    // The entropy waiver suppressed nothing: one W002 advisory.
    assert_eq!(a.advisories.len(), 1);
    assert_eq!(a.advisories[0].rule_id, "DVS-W002");
}

#[test]
fn clean_fixture_is_clean_under_maximum_scope() {
    let a = check_fixture("clean");
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    assert!(a.advisories.is_empty());
    assert_eq!(a.waivers_honoured, 0);
}
