//! The analysis driver: file discovery, the two-phase check, waiver
//! application, reporting.
//!
//! The engine walks the workspace's *library* sources (`src/` and
//! `crates/*/src/`, including `src/bin`), classifies each file against the
//! [`Manifest`], then runs two phases:
//!
//! 1. **Per-file rules** ([`crate::rules`]) over each file's token stream.
//! 2. **Interprocedural passes** ([`crate::passes`]) over the workspace
//!    call graph built from every file's parse: transitive hot-path
//!    allocation, panic-domain escape, float-accumulation determinism, and
//!    the schema lock.
//!
//! Findings from both phases merge into one per-file stream before waiver
//! application, so an inline pragma suppresses an interprocedural finding
//! exactly like a token-level one. Findings anchored *outside* the scanned
//! sources (`lint.toml` staleness, schema-lock drift) bypass waivers: the
//! manifest and the lock file are themselves the review surface.
//!
//! Integration tests, benches, and examples are out of scope — the
//! determinism contract there is enforced dynamically by the differential
//! suite, and test code is allowed to unwrap.
//!
//! Output ordering is deterministic: files are visited in sorted path
//! order, findings stay in (line, col, rule) order, and path-anchored
//! findings sort after file findings, so two runs over the same tree emit
//! byte-identical reports (the linter holds itself to the workspace's own
//! standard).

use std::path::{Path, PathBuf};

use crate::error::{io_error, LintError, LintResult};
use crate::graph::Graph;
use crate::manifest::Manifest;
use crate::parse::{self, ParsedFile};
use crate::passes;
use crate::rules::{self, FileScope, RawFinding};
use crate::tokens::{self, TokenStream};
use crate::waiver::{self, WaiverScope};

/// One reportable diagnostic, tied to a stable rule ID and an exact span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule ID (`DVS-D003`).
    pub rule_id: String,
    /// Waiver short name (`hash-iter`).
    pub rule_name: String,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// The matched hazard (e.g. `Instant::now`).
    pub matched: String,
    /// Why this is a problem here.
    pub message: String,
    /// The offending source line, trimmed (empty for findings anchored
    /// outside the scanned sources, e.g. in `lint.toml`).
    pub snippet: String,
}

/// Workspace-level statistics the report pins alongside the findings.
///
/// These make the analysis itself observable: the workspace fingerprint
/// golden compares them byte-for-byte, so a refactor that silently shrinks
/// the hot closure or the contained set shows up as golden drift even when
/// no finding changes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Functions indexed into the call graph (test code excluded).
    pub fns_indexed: usize,
    /// Functions the `[hot] entry_points` specs resolved to.
    pub hot_entry_fns: usize,
    /// Size of the hot reachability closure (including the entries).
    pub hot_closure_fns: usize,
    /// Functions proven reachable only inside `catch_unwind` boundaries.
    pub contained_fns: usize,
    /// Serialized struct definitions covered by the schema lock.
    pub schema_structs: usize,
    /// `(rule id, emitted findings + advisories)` for every catalog rule,
    /// in ID order, zeros included.
    pub rule_counts: Vec<(String, usize)>,
}

/// The result of one analysis run.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Gating findings — unwaived hazards plus waiver-syntax errors.
    pub findings: Vec<Finding>,
    /// Advisory findings (`DVS-W002` unused waivers); never gate CI.
    pub advisories: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Waivers that suppressed at least one finding.
    pub waivers_honoured: usize,
    /// Workspace-level statistics (graph sizes, per-rule counts).
    pub stats: Stats,
}

impl Analysis {
    /// Whether `--check` should fail.
    pub fn is_dirty(&self) -> bool {
        !self.findings.is_empty()
    }
}

/// One source file prepared for both analysis phases.
pub struct Unit {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// File contents.
    pub src: String,
    /// Lexed token stream.
    pub ts: TokenStream,
    /// Item/call-site parse of the token stream.
    pub parsed: ParsedFile,
    /// Rule-family scope from the manifest.
    pub scope: FileScope,
}

/// The output of [`check_sources`]: the analysis plus the canonical
/// schema-lock text (for the caller to write on regeneration).
pub struct WorkspaceCheck {
    /// The merged analysis.
    pub analysis: Analysis,
    /// Canonical schema-lock text computed from the tree; `Some` whenever
    /// the manifest enables the `[schema]` section.
    pub schema_lock_text: Option<String>,
}

/// Rules no inline pragma can waive: the waiver machinery itself, and the
/// manifest/lock rules whose whole point is that suppression must go
/// through a reviewed file edit, not a source comment.
const UNWAIVABLE: [&str; 4] = ["waiver-syntax", "unused-waiver", "stale-manifest", "schema-lock"];

/// Analyzes the workspace rooted at `root`, loading `<root>/lint.toml`.
///
/// Honours `REGEN_GOLDEN=1`: when set and the manifest enables the
/// `[schema]` section, the canonical lock is rewritten in place instead of
/// producing drift findings.
pub fn analyze_workspace(root: &Path) -> LintResult<Analysis> {
    let manifest = Manifest::load(root)?;
    // Validate the manifest's file lists against the tree: a scoped file
    // that no longer exists means the guarantee silently lapsed — fail
    // loudly instead.
    for rel in
        manifest.index_strict.iter().chain(&manifest.unsafe_allowed).chain(&manifest.panic_files)
    {
        if !root.join(rel).is_file() {
            return Err(LintError::ManifestInvalid(format!(
                "lint.toml names `{rel}`, which does not exist in the workspace"
            )));
        }
    }
    let mut files = Vec::new();
    collect_rs(&root.join("src"), root, &mut files)?;
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| io_error(&crates_dir, "read", e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), root, &mut files)?;
    }
    files.sort();

    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for rel in files {
        let path = root.join(&rel);
        let src = std::fs::read_to_string(&path).map_err(|e| io_error(&path, "read", e))?;
        sources.push((rel, src));
    }
    let refs: Vec<(&str, &str)> =
        sources.iter().map(|(rel, src)| (rel.as_str(), src.as_str())).collect();

    let expected = if manifest.schema_lock.is_empty() {
        None
    } else {
        let lock = root.join(&manifest.schema_lock);
        match std::fs::read_to_string(&lock) {
            Ok(s) => Some(s),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_error(&lock, "read", e)),
        }
    };
    let regen = std::env::var("REGEN_GOLDEN").is_ok_and(|v| v == "1");

    let out = check_sources(&refs, &manifest, expected.as_deref(), regen);
    if regen {
        if let Some(text) = &out.schema_lock_text {
            let lock = root.join(&manifest.schema_lock);
            if let Some(parent) = lock.parent() {
                std::fs::create_dir_all(parent).map_err(|e| io_error(parent, "create", e))?;
            }
            std::fs::write(&lock, text).map_err(|e| io_error(&lock, "write", e))?;
        }
    }
    Ok(out.analysis)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> LintResult<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| io_error(dir, "read", e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).map_err(|_| {
                LintError::ManifestInvalid(format!("{} escapes the workspace root", path.display()))
            })?;
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

/// Scope classification for one workspace-relative path.
pub fn scope_for(rel: &str, manifest: &Manifest) -> FileScope {
    FileScope {
        sim: manifest.is_sim_crate_path(rel),
        index_strict: manifest.is_index_strict(rel),
        unsafe_ok: manifest.allows_unsafe(rel),
        all_test: false,
    }
}

/// Analyzes a set of in-memory source files as one workspace: both the
/// per-file rules and the interprocedural passes run, with waiver
/// application over the merged stream. Exposed for the fixture corpus,
/// which synthesizes multi-file workspaces without touching disk.
///
/// `schema_expected` is the committed lock file's contents (`None` when
/// missing or the pass is disabled); `regen` suppresses drift findings
/// while the caller rewrites the lock from
/// [`WorkspaceCheck::schema_lock_text`].
pub fn check_sources(
    files: &[(&str, &str)],
    manifest: &Manifest,
    schema_expected: Option<&str>,
    regen: bool,
) -> WorkspaceCheck {
    let units: Vec<Unit> = files
        .iter()
        .map(|(rel, src)| {
            let ts = tokens::lex(src);
            let parsed = parse::parse_file(src, &ts);
            Unit {
                rel: rel.to_string(),
                src: src.to_string(),
                ts,
                parsed,
                scope: scope_for(rel, manifest),
            }
        })
        .collect();
    let parsed: Vec<(&str, &ParsedFile)> =
        units.iter().map(|u| (u.rel.as_str(), &u.parsed)).collect();
    let graph = Graph::build(&parsed);

    let mut stats = Stats { fns_indexed: graph.fns.len(), ..Stats::default() };

    let hot = passes::hot::run(&units, &graph, manifest);
    stats.hot_entry_fns = hot.entry_fns;
    stats.hot_closure_fns = hot.closure_fns;
    let pd = passes::panic_domain::run(&units, &graph, manifest);
    stats.contained_fns = pd.contained_fns;
    let fd = passes::float_det::run(&units);
    let schema = passes::schema::run(&units, manifest, schema_expected, regen);
    stats.schema_structs = schema.structs;

    // Route pass findings: file-anchored ones join that file's rule stream
    // (and the waiver pipeline); path-anchored ones bypass waivers.
    let mut per_file: Vec<Vec<RawFinding>> = (0..units.len()).map(|_| Vec::new()).collect();
    let mut per_path: Vec<(String, RawFinding)> = Vec::new();
    for pf in hot.findings.into_iter().chain(pd.findings).chain(fd).chain(schema.findings) {
        match pf.file {
            Some(fi) => per_file[fi].push(pf.raw),
            None => per_path.push((pf.path, pf.raw)),
        }
    }

    let mut analysis = Analysis::default();
    for (fi, unit) in units.iter().enumerate() {
        let mut raw = rules::check_file(&unit.src, unit.scope);
        raw.append(&mut per_file[fi]);
        raw.sort_by(|a, b| (a.line, a.col, a.rule.id).cmp(&(b.line, b.col, b.rule.id)));
        let (findings, advisories, honoured) = apply_waivers(unit, raw);
        analysis.findings.extend(findings);
        analysis.advisories.extend(advisories);
        analysis.waivers_honoured += honoured;
        analysis.files_scanned += 1;
    }
    per_path.sort_by(|a, b| {
        (a.0.as_str(), a.1.line, a.1.rule.id, a.1.matched.as_str()).cmp(&(
            b.0.as_str(),
            b.1.line,
            b.1.rule.id,
            b.1.matched.as_str(),
        ))
    });
    for (path, raw) in per_path {
        analysis.findings.push(Finding {
            rule_id: raw.rule.id.to_string(),
            rule_name: raw.rule.name.to_string(),
            path,
            line: raw.line,
            col: raw.col,
            matched: raw.matched,
            message: raw.message,
            snippet: String::new(),
        });
    }

    for r in rules::RULES {
        let n = analysis.findings.iter().filter(|f| f.rule_id == r.id).count()
            + analysis.advisories.iter().filter(|f| f.rule_id == r.id).count();
        stats.rule_counts.push((r.id.to_string(), n));
    }
    analysis.stats = stats;
    WorkspaceCheck { analysis, schema_lock_text: schema.actual }
}

/// Analyzes one in-memory source file. Exposed for the fixture corpus and
/// the seeded-hazard self-tests, which synthesize paths and manifests.
/// Interprocedural passes still run — over the one-file "workspace" — so
/// single-file fixtures can exercise them too.
pub fn check_source(rel: &str, src: &str, manifest: &Manifest) -> Analysis {
    check_sources(&[(rel, src)], manifest, None, false).analysis
}

/// Parses this file's waiver pragmas and subtracts waived findings.
/// Returns `(findings, advisories, waivers_honoured)`.
fn apply_waivers(unit: &Unit, raw: Vec<RawFinding>) -> (Vec<Finding>, Vec<Finding>, usize) {
    let rel = unit.rel.as_str();
    let lines: Vec<&str> = unit.src.lines().collect();
    let snippet = |line: u32| -> String {
        let text = lines.get(line as usize - 1).copied().unwrap_or("").trim();
        let mut s: String = text.chars().take(120).collect();
        if s.len() < text.len() {
            s.push('…');
        }
        s
    };

    // Waiver collection: parse every pragma-shaped comment; broken ones
    // become DVS-W001 findings (never silently inert).
    struct Armed {
        rule: &'static rules::Rule,
        reason_line: u32,
        scope: WaiverScope,
        /// The line this waiver covers (Line scope only).
        target: Option<u32>,
        used: bool,
    }
    let code_lines: Vec<u32> = {
        let mut v: Vec<u32> = unit.ts.toks().iter().map(|t| t.line).collect();
        v.dedup();
        v
    };
    let mut armed: Vec<Armed> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    let w001 = rules::by_name("waiver-syntax").expect("catalog");
    for c in unit.ts.comments() {
        if !waiver::is_pragma(&c.body) {
            continue;
        }
        match waiver::parse(&c.body) {
            Ok(Some(w)) => {
                let Some(rule) = rules::by_name(&w.rule) else {
                    findings.push(Finding {
                        rule_id: w001.id.to_string(),
                        rule_name: w001.name.to_string(),
                        path: rel.to_string(),
                        line: c.line,
                        col: c.col,
                        matched: w.rule.clone(),
                        message: format!(
                            "waiver names unknown rule `{}`; known rules: {}",
                            w.rule,
                            rules::RULES.iter().map(|r| r.name).collect::<Vec<_>>().join(", ")
                        ),
                        snippet: snippet(c.line),
                    });
                    continue;
                };
                if UNWAIVABLE.contains(&rule.name) {
                    findings.push(Finding {
                        rule_id: w001.id.to_string(),
                        rule_name: w001.name.to_string(),
                        path: rel.to_string(),
                        line: c.line,
                        col: c.col,
                        matched: w.rule.clone(),
                        message: format!("rule `{}` cannot be waived", rule.name),
                        snippet: snippet(c.line),
                    });
                    continue;
                }
                let target = match w.scope {
                    WaiverScope::File => None,
                    WaiverScope::Line if c.trailing => Some(c.line),
                    // Standalone pragma: covers the next line holding code.
                    WaiverScope::Line => {
                        Some(code_lines.iter().copied().find(|&l| l > c.line).unwrap_or(u32::MAX))
                    }
                };
                armed.push(Armed {
                    rule,
                    reason_line: c.line,
                    scope: w.scope,
                    target,
                    used: false,
                });
            }
            Ok(None) => unreachable!("is_pragma gated"),
            Err(e) => findings.push(Finding {
                rule_id: w001.id.to_string(),
                rule_name: w001.name.to_string(),
                path: rel.to_string(),
                line: c.line,
                col: c.col,
                matched: "dvs-lint:".to_string(),
                message: e.to_string(),
                snippet: snippet(c.line),
            }),
        }
    }

    // Waiver application.
    let mut waivers_honoured = 0usize;
    for f in raw {
        let RawFinding { rule, line, col, matched, message } = f;
        let waived = armed.iter_mut().find(|a| {
            a.rule == rule
                && match a.scope {
                    WaiverScope::File => true,
                    WaiverScope::Line => a.target == Some(line),
                }
        });
        if let Some(a) = waived {
            if !a.used {
                a.used = true;
                waivers_honoured += 1;
            }
            continue;
        }
        findings.push(Finding {
            rule_id: rule.id.to_string(),
            rule_name: rule.name.to_string(),
            path: rel.to_string(),
            line,
            col,
            matched,
            message,
            snippet: snippet(line),
        });
    }

    // Unused waivers: advisory only — a stale waiver is hygiene debt, not
    // a correctness hazard, and must not flip CI red on unrelated edits.
    let w002 = rules::by_name("unused-waiver").expect("catalog");
    let advisories = armed
        .iter()
        .filter(|a| !a.used)
        .map(|a| Finding {
            rule_id: w002.id.to_string(),
            rule_name: w002.name.to_string(),
            path: rel.to_string(),
            line: a.reason_line,
            col: 1,
            matched: a.rule.name.to_string(),
            message: format!(
                "waiver for `{}` suppressed nothing; delete it if the hazard is gone",
                a.rule.name
            ),
            snippet: snippet(a.reason_line),
        })
        .collect();

    (findings, advisories, waivers_honoured)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest::parse(
            "[determinism]\nsim_crates = [\"sim\"]\n[hot]\nindex_strict = []\n[unsafe_code]\nallowed = []\n",
        )
        .unwrap()
    }

    #[test]
    fn trailing_waiver_suppresses_its_line() {
        let src = "use std::collections::HashMap; // dvs-lint: allow(hash-iter, reason = \"import for lookup-only map\")\n";
        let a = check_source("crates/sim/src/lib.rs", src, &manifest());
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.waivers_honoured, 1);
        assert!(a.advisories.is_empty());
    }

    #[test]
    fn standalone_waiver_covers_next_code_line() {
        let src = "\n// dvs-lint: allow(panic, reason = \"len checked above\")\n// (explanatory prose between is fine)\nfn f(x: Option<u8>) { x.unwrap(); }\n";
        let a = check_source("crates/sim/src/lib.rs", src, &manifest());
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn file_waiver_covers_whole_file() {
        let src = "// dvs-lint: allow-file(panic, reason = \"oracle engine asserts invariants\")\nfn f(x: Option<u8>) { x.unwrap(); }\nfn g(y: Option<u8>) { y.unwrap(); }\n";
        let a = check_source("crates/sim/src/lib.rs", src, &manifest());
        assert!(a.findings.is_empty());
        assert_eq!(a.waivers_honoured, 1);
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_suppress() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); } // dvs-lint: allow(hash-iter, reason = \"wrong rule\")\n";
        let a = check_source("crates/sim/src/lib.rs", src, &manifest());
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].rule_id, "DVS-P001");
        assert_eq!(a.advisories.len(), 1); // and the waiver reports unused
    }

    #[test]
    fn reasonless_waiver_is_a_finding_and_inert() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); } // dvs-lint: allow(panic)\n";
        let a = check_source("crates/sim/src/lib.rs", src, &manifest());
        let ids: Vec<&str> = a.findings.iter().map(|f| f.rule_id.as_str()).collect();
        assert!(ids.contains(&"DVS-P001"), "{ids:?}");
        assert!(ids.contains(&"DVS-W001"), "{ids:?}");
    }

    #[test]
    fn unknown_rule_in_waiver_is_reported() {
        // `hot-alloc` is the retired DVS-H001's name: no rule answers to it.
        for name in ["no-such-rule", "hot-alloc"] {
            let src = format!("// dvs-lint: allow({name}, reason = \"x\")\nfn f() {{}}\n");
            let a = check_source("crates/sim/src/lib.rs", &src, &manifest());
            assert_eq!(a.findings.len(), 1, "{name}");
            assert_eq!(a.findings[0].rule_id, "DVS-W001", "{name}");
        }
    }

    #[test]
    fn non_sim_crates_skip_determinism_rules() {
        let src = "use std::collections::HashMap;\nfn f(x: Option<u8>) { x.unwrap(); }\n";
        let a = check_source("crates/bench/src/lib.rs", src, &manifest());
        // Only U001 could fire (no unsafe here), so clean.
        assert!(a.findings.is_empty());
    }

    #[test]
    fn snippets_and_spans_are_accurate() {
        let src = "fn f() {\n    let t = Instant::now();\n}\n";
        let a = check_source("crates/sim/src/time.rs", src, &manifest());
        assert_eq!(a.findings.len(), 1);
        let f = &a.findings[0];
        assert_eq!((f.line, f.col), (2, 13));
        assert_eq!(f.snippet, "let t = Instant::now();");
    }

    #[test]
    fn stale_manifest_and_schema_waivers_are_rejected() {
        for name in ["stale-manifest", "schema-lock"] {
            let src = format!("// dvs-lint: allow({name}, reason = \"nope\")\nfn f() {{}}\n");
            let a = check_source("crates/sim/src/lib.rs", &src, &manifest());
            assert_eq!(a.findings.len(), 1, "{name}: {:?}", a.findings);
            assert_eq!(a.findings[0].rule_id, "DVS-W001");
            assert!(a.findings[0].message.contains("cannot be waived"));
        }
    }

    #[test]
    fn per_rule_counts_cover_whole_catalog() {
        let a = check_source("crates/sim/src/lib.rs", "fn f() {}\n", &manifest());
        assert_eq!(a.stats.rule_counts.len(), rules::RULES.len());
        assert!(a.stats.rule_counts.iter().all(|(_, n)| *n == 0));
        assert_eq!(a.stats.fns_indexed, 1);
    }
}
