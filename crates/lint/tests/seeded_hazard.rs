//! Seeded-hazard self-test: builds a throwaway workspace on disk, plants a
//! hazard in a sim crate, and proves the *end-to-end* driver
//! ([`dvs_lint::analyze_workspace`], the same entry `repro lint --check`
//! uses) reports it dirty with a span-accurate, stable-rule-ID diagnostic —
//! and goes clean again once the hazard is waived with a reason.

use std::path::{Path, PathBuf};

use dvs_lint::analyze_workspace;

const MANIFEST: &str = concat!(
    "[determinism]\n",
    "sim_crates = [\"sim\"]\n",
    "[hot]\n",
    "index_strict = []\n",
    "[unsafe_code]\n",
    "allowed = []\n",
);

/// A unique-per-test scratch workspace under the target dir (kept out of
/// the source tree so the real lint pass never scans it).
struct ScratchWorkspace {
    root: PathBuf,
}

impl ScratchWorkspace {
    fn new(tag: &str) -> Self {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/lint-scratch")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("crates/sim/src")).unwrap();
        std::fs::write(root.join("lint.toml"), MANIFEST).unwrap();
        std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/*\"]\n").unwrap();
        Self { root }
    }

    fn write_sim_lib(&self, src: &str) {
        std::fs::write(self.root.join("crates/sim/src/lib.rs"), src).unwrap();
    }

    fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for ScratchWorkspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn seeded_wall_clock_read_makes_the_workspace_dirty() {
    let ws = ScratchWorkspace::new("seeded-dirty");
    ws.write_sim_lib("pub fn t() -> std::time::Instant {\n    std::time::Instant::now()\n}\n");

    let a = analyze_workspace(ws.root()).expect("analysis runs");
    assert!(a.is_dirty(), "planted hazard must gate");
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    let f = &a.findings[0];
    assert_eq!(f.rule_id, "DVS-D001");
    assert_eq!(f.rule_name, "wall-clock");
    assert_eq!(f.path, "crates/sim/src/lib.rs");
    // Span-accurate: `Instant` of `Instant::now()` on line 2, col 16.
    assert_eq!((f.line, f.col), (2, 16));
    assert_eq!(f.snippet, "std::time::Instant::now()");
}

#[test]
fn waiving_the_seeded_hazard_cleans_the_workspace() {
    let ws = ScratchWorkspace::new("seeded-waived");
    ws.write_sim_lib(
        "pub fn t() -> std::time::Instant {\n    // dvs-lint: allow(wall-clock, reason = \"scratch fixture\")\n    std::time::Instant::now()\n}\n",
    );

    let a = analyze_workspace(ws.root()).expect("analysis runs");
    assert!(!a.is_dirty(), "{:?}", a.findings);
    assert_eq!(a.waivers_honoured, 1);
    assert!(a.advisories.is_empty());
}

#[test]
fn clean_scratch_workspace_reports_zero_findings() {
    let ws = ScratchWorkspace::new("seeded-clean");
    ws.write_sim_lib("pub fn two() -> u32 {\n    1 + 1\n}\n");

    let a = analyze_workspace(ws.root()).expect("analysis runs");
    assert!(!a.is_dirty());
    assert_eq!(a.files_scanned, 1);
}

#[test]
fn manifest_naming_a_missing_hot_path_is_an_error() {
    let ws = ScratchWorkspace::new("seeded-badmanifest");
    ws.write_sim_lib("pub fn two() -> u32 { 1 + 1 }\n");
    std::fs::write(
        ws.root().join("lint.toml"),
        concat!(
            "[determinism]\n",
            "sim_crates = [\"sim\"]\n",
            "[hot]\n",
            "index_strict = [\"crates/sim/src/gone.rs\"]\n",
            "[unsafe_code]\n",
            "allowed = []\n",
        ),
    )
    .unwrap();

    let err = analyze_workspace(ws.root()).expect_err("lapsed guarantee must fail loudly");
    assert!(err.to_string().contains("gone.rs"), "{err}");
}
