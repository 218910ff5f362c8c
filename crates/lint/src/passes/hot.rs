//! DVS-H002 `hot-alloc-transitive`: allocation anywhere in the closure of
//! the manifest's `[hot] entry_points`.
//!
//! A list of hot *files* would let a helper moved into an unlisted file
//! silently leave the guarantee. This pass instead roots at the declared
//! hot *functions* (`run_batch`, the event-heap dispatch, sketch
//! `observe`/`merge`, codec block encode/decode, the resilient worker
//! loop), takes the conservative reachability closure over the call graph,
//! and scans every function body in the closure for allocating calls. Entry points that no longer
//! resolve to any function are reported as DVS-M001 — a stale manifest is
//! a lapsed guarantee, not a clean run.

use crate::engine::Unit;
use crate::graph::Graph;
use crate::manifest::Manifest;
use crate::passes::{stale_manifest, PassFinding};
use crate::rules::{alloc_site_at, by_name, RawFinding};

/// Findings plus the closure statistics the report pins.
#[derive(Debug, Default)]
pub struct HotOutcome {
    /// H002 allocation findings and M001 stale-entry findings.
    pub findings: Vec<PassFinding>,
    /// How many functions the entry specs resolved to.
    pub entry_fns: usize,
    /// Size of the reachability closure (including the entries).
    pub closure_fns: usize,
}

/// Runs the pass. No `entry_points` means no closure and no findings.
pub fn run(units: &[Unit], graph: &Graph, manifest: &Manifest) -> HotOutcome {
    let mut out = HotOutcome::default();
    if manifest.hot_entry_points.is_empty() {
        return out;
    }
    let rule = by_name("hot-alloc-transitive").expect("catalog");
    let mut roots = Vec::new();
    for spec in &manifest.hot_entry_points {
        let ids = graph.resolve_entry(spec);
        if ids.is_empty() {
            out.findings.push(stale_manifest(
                manifest.line_of("hot.entry_points"),
                spec.clone(),
                format!(
                    "[hot] entry_points names `{spec}`, which resolves to no function in the \
                     workspace; the hot-path guarantee it declared has lapsed — update or remove \
                     the entry"
                ),
            ));
        } else {
            roots.extend(ids);
        }
    }
    roots.sort_unstable();
    roots.dedup();
    out.entry_fns = roots.len();
    let reach = graph.reach_from(&roots);
    out.closure_fns = reach.reached.iter().filter(|&&b| b).count();

    // Scan every closure member's body for allocating calls. Bodies of
    // nested fns are token-subsets of their parent's body, so identical
    // sites can match twice; dedupe by position at the end.
    let mut sites: Vec<(usize, RawFinding)> = Vec::new();
    for (idx, f) in graph.fns.iter().enumerate() {
        if !reach.reached[idx] {
            continue;
        }
        let unit = &units[f.file];
        let item = &unit.parsed.fns[f.item];
        let Some((open, close)) = item.body else { continue };
        let chain = graph.chain(&reach, idx);
        let via =
            if chain.len() > 1 { format!(" (via {})", chain.join(" → ")) } else { String::new() };
        let entry = chain.first().cloned().unwrap_or_else(|| f.display());
        let toks = unit.ts.toks();
        let last = close.min(toks.len().saturating_sub(1));
        for (i, t) in toks.iter().enumerate().take(last + 1).skip(open) {
            let Some(matched) = alloc_site_at(&unit.src, &unit.ts, i) else { continue };
            sites.push((
                f.file,
                RawFinding {
                    rule,
                    line: t.line,
                    col: t.col,
                    matched: matched.to_string(),
                    message: format!(
                        "`{matched}` allocates in `{}`, which is reachable from hot entry \
                         `{entry}`{via}; hot paths must reuse pooled storage, or waive with a \
                         reason explaining why this site is cold or construction-time only",
                        f.display(),
                    ),
                },
            ));
        }
    }
    sites.sort_by_key(|(file, raw)| (*file, raw.line, raw.col));
    sites.dedup_by(|a, b| (a.0, a.1.line, a.1.col) == (b.0, b.1.line, b.1.col));
    out.findings.extend(sites.into_iter().map(|(file, raw)| PassFinding::in_file(file, raw)));
    out
}
