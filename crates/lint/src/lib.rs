//! `dvs-lint` — the workspace's determinism & hot-path static-analysis
//! pass.
//!
//! The repo's core contract — byte-identical [`RunReport`]s across both
//! simulator cores, every `--jobs` count, cache on/off, and fault plans —
//! is enforced dynamically by the differential suite. This crate adds the
//! *static* half: a dependency-free pass (lightweight tokenizer, no `syn`)
//! that rejects whole hazard classes at CI time, before any seed has a
//! chance to expose them:
//!
//! * **Determinism** — wall-clock reads, OS entropy, and hash-ordered
//!   containers in the simulation crates (`DVS-D001`–`DVS-D003`).
//! * **Panic hygiene** — `unwrap`/`expect`/`panic!` and (in index-strict
//!   modules) slice indexing where `DvsError` paths exist
//!   (`DVS-P001`/`DVS-P002`).
//! * **Discarded results** — `let _ = fallible(…)` (`DVS-R001`).
//! * **`unsafe`** — anywhere outside the manifest's `[unsafe_code]`
//!   carve-outs, of which there are none (`DVS-U001`), mirroring the
//!   crates' `#![forbid(unsafe_code)]`.
//!
//! On top of the per-file rules, a second phase analyzes the *workspace
//! graph*: a lightweight item parser ([`parse`]) feeds a conservative call
//! graph ([`graph`]), over which four interprocedural passes run
//! ([`passes`]):
//!
//! * **Transitive hot-path allocation** (`DVS-H002`) — allocation anywhere
//!   in the reachability closure of the checked-in `lint.toml` manifest's
//!   `[hot] entry_points`, whichever file the code lives in: the static
//!   mirror of the per-cell byte ceiling in
//!   `crates/bench/tests/fleet_allocs.rs`.
//! * **Panic-domain escape** (`DVS-P003`) — panic/index sites in the
//!   resilient-sweep files that are *not* contained by a `catch_unwind`
//!   cell boundary, so one bad cell could kill the whole sweep.
//! * **Float-accumulation determinism** (`DVS-F001`) — order-sensitive
//!   `f32`/`f64` accumulation inside merge/reduce functions of sim crates.
//! * **Schema lock** (`DVS-S001`) — serialized struct shapes fingerprinted
//!   against `tests/golden/schema_lock.json`; drift without
//!   `REGEN_GOLDEN=1` is a hard error. Stale manifest entries surface as
//!   `DVS-M001` rather than silently lapsing.
//!
//! False positives are waived *in place*, with a mandatory reason:
//!
//! ```text
//! // dvs-lint: allow(hash-iter, reason = "lookup-only registry, never iterated")
//! ```
//!
//! Run it as `repro lint [--check] [--emit-json]`; rules, manifest format,
//! and the golden-regeneration workflow are documented in `docs/lint.md`.
//!
//! [`RunReport`]: https://docs.rs/dvs-metrics (the workspace's run-record type)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod graph;
pub mod manifest;
pub mod parse;
pub mod passes;
pub mod report;
pub mod rules;
pub mod tokens;
pub mod waiver;

pub use engine::{
    analyze_workspace, check_source, check_sources, Analysis, Finding, Stats, Unit, WorkspaceCheck,
};
pub use error::{LintError, LintResult};
pub use manifest::Manifest;
pub use report::{render_json, render_text};
pub use rules::{Rule, RULES};
pub use waiver::{Waiver, WaiverError, WaiverScope};

/// Locates the workspace root by walking up from `start` until a directory
/// holding both `lint.toml` and a `Cargo.toml` is found.
pub fn find_workspace_root(start: &std::path::Path) -> Option<std::path::PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("lint.toml").is_file() && d.join("Cargo.toml").is_file() {
            return Some(d);
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}
