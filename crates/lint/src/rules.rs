//! The rule catalog and the per-file checking pass.
//!
//! Every rule has a **stable ID** (`DVS-…`, never reused or renumbered)
//! plus a short name used in waiver pragmas. Rules match over the token
//! stream from [`crate::tokens`], so string literals, comments, and doc
//! examples can never produce findings.
//!
//! | ID       | name         | scope                     | hazard |
//! |----------|--------------|---------------------------|--------|
//! | DVS-D001 | `wall-clock` | sim crates                | `Instant::now` / `SystemTime` / `Utc::now` / `Local::now` — wall-clock reads leak real time into simulated time |
//! | DVS-D002 | `entropy`    | sim crates                | `thread_rng` / `OsRng` / `from_entropy` / `getrandom` / `rand::random` / `RandomState` — OS entropy breaks replay |
//! | DVS-D003 | `hash-iter`  | sim crates                | `HashMap` / `HashSet` — iteration order varies per process, so any traversal is a nondeterminism hazard |
//! | DVS-P001 | `panic`      | sim crates                | `.unwrap()` / `.expect(` / `panic!` — panic where `DvsError` paths exist |
//! | DVS-P002 | `index`      | manifest `[hot] index_strict` | `x[i]` slice indexing — a hidden panic branch on the hot path |
//! | DVS-R001 | `discard`    | sim crates                | `let _ = call(…)` — silently discarding a fallible result |
//! | DVS-U001 | `unsafe-code`| whole workspace           | `unsafe` outside the manifest's allowed files |
//! | DVS-W001 | `waiver-syntax` | whole workspace        | malformed or reason-less waiver pragma (not itself waivable) |
//! | DVS-W002 | `unused-waiver` | whole workspace        | advisory: a waiver that suppressed nothing |
//!
//! The interprocedural rules live in [`crate::passes`] and run over the
//! whole-workspace call graph rather than per file:
//!
//! | ID       | name                  | scope | hazard |
//! |----------|-----------------------|-------|--------|
//! | DVS-F001 | `float-accum`         | sim-crate merge/reduce fns | order-sensitive `f32`/`f64` accumulation |
//! | DVS-H002 | `hot-alloc-transitive`| closure of `[hot] entry_points` | `Vec::new` / `vec!` / `format!` / `.to_string()` / `Box::new` / `.clone()` anywhere reachable from a hot entry |
//! | DVS-M001 | `stale-manifest`      | `lint.toml` | manifest entries that resolve to nothing (not waivable) |
//! | DVS-P003 | `panic-escape`        | `[panic_domains] files` | panic/index site reachable outside every `catch_unwind` |
//! | DVS-S001 | `schema-lock`         | `[schema] structs` | serialized-struct drift vs the lock file (not waivable) |

use crate::tokens::{self, Pat, Tok, TokKind, TokenStream};

/// A lint rule's identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rule {
    /// Stable machine ID (`DVS-D001`, …). Never renumbered.
    pub id: &'static str,
    /// Short name used in waiver pragmas (`wall-clock`, …).
    pub name: &'static str,
    /// One-line summary for reports and docs.
    pub summary: &'static str,
}

/// The full catalog, in ID order.
pub const RULES: &[Rule] = &[
    Rule { id: "DVS-D001", name: "wall-clock", summary: "wall-clock read in simulation code" },
    Rule {
        id: "DVS-D002",
        name: "entropy",
        summary: "OS entropy / nondeterministic RNG in simulation code",
    },
    Rule {
        id: "DVS-D003",
        name: "hash-iter",
        summary: "hash-ordered container in simulation code",
    },
    Rule {
        id: "DVS-F001",
        name: "float-accum",
        summary: "order-sensitive float accumulation in a merge/reduce path",
    },
    Rule {
        id: "DVS-H002",
        name: "hot-alloc-transitive",
        summary: "allocation reachable from a declared hot entry point",
    },
    Rule {
        id: "DVS-M001",
        name: "stale-manifest",
        summary: "lint.toml names something the workspace no longer has",
    },
    Rule { id: "DVS-P001", name: "panic", summary: "panic site in non-test library code" },
    Rule { id: "DVS-P002", name: "index", summary: "slice indexing in an index-strict hot path" },
    Rule {
        id: "DVS-P003",
        name: "panic-escape",
        summary: "panic site that escapes every catch_unwind cell boundary",
    },
    Rule {
        id: "DVS-R001", name: "discard", summary: "discarded fallible result (`let _ = …(…)`)"
    },
    Rule {
        id: "DVS-S001",
        name: "schema-lock",
        summary: "serialized struct drifted from the committed schema lock",
    },
    Rule {
        id: "DVS-U001",
        name: "unsafe-code",
        summary: "`unsafe` outside the allowed carve-outs",
    },
    Rule {
        id: "DVS-W001",
        name: "waiver-syntax",
        summary: "malformed or reason-less waiver pragma",
    },
    Rule {
        id: "DVS-W002",
        name: "unused-waiver",
        summary: "waiver pragma that suppressed nothing (advisory)",
    },
];

/// Looks a rule up by its waiver short name.
pub fn by_name(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// Looks a rule up by stable ID.
pub fn by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Which rule families apply to a file, derived from the manifest by the
/// engine (and set directly by fixture tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct FileScope {
    /// Under the determinism contract (D/P/R rules).
    pub sim: bool,
    /// Under the slice-indexing rule (P002).
    pub index_strict: bool,
    /// Allowed to contain `unsafe` (suppresses U001).
    pub unsafe_ok: bool,
    /// Entirely test code (fixtures under `tests/`, `benches/`, …): only
    /// waiver-syntax diagnostics apply.
    pub all_test: bool,
}

/// One raw finding (before waiver application).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawFinding {
    /// The violated rule.
    pub rule: &'static Rule,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// What was matched, e.g. `Instant::now`.
    pub matched: String,
    /// Human explanation with the determinism angle spelled out.
    pub message: String,
}

/// Runs every applicable rule over one file. Returns raw findings in
/// source order; the engine applies waivers afterwards.
pub fn check_file(src: &str, scope: FileScope) -> Vec<RawFinding> {
    let ts = tokens::lex(src);
    let test_ranges = if scope.all_test { vec![(0, u32::MAX)] } else { test_line_ranges(src, &ts) };
    let in_test = |line: u32| test_ranges.iter().any(|&(a, b)| line >= a && line <= b);

    let mut out = Vec::new();
    let toks = ts.toks();
    for (i, t) in toks.iter().enumerate() {
        if in_test(t.line) {
            continue;
        }
        if scope.sim {
            determinism_rules(src, &ts, i, t, &mut out);
            panic_rules(src, &ts, i, t, &mut out);
            discard_rule(src, &ts, i, t, &mut out);
        }
        if scope.index_strict {
            index_rule(src, toks, i, t, &mut out);
        }
        if !scope.unsafe_ok {
            unsafe_rule(src, t, &mut out);
        }
    }
    out
}

fn ident_text<'a>(src: &'a str, t: &Tok) -> &'a str {
    &src[t.start..t.end]
}

fn finding(
    rule_name: &str,
    t: &Tok,
    matched: impl Into<String>,
    message: impl Into<String>,
) -> RawFinding {
    RawFinding {
        rule: by_name(rule_name).expect("rule names in this module are catalog members"),
        line: t.line,
        col: t.col,
        matched: matched.into(),
        message: message.into(),
    }
}

/// DVS-D001 / DVS-D002 / DVS-D003.
fn determinism_rules(src: &str, ts: &TokenStream, i: usize, t: &Tok, out: &mut Vec<RawFinding>) {
    if t.kind != TokKind::Ident {
        return;
    }
    let path2 = |head: &'static str, tail: &'static str| {
        ts.seq_matches(
            src,
            i,
            &[Pat::Ident(head), Pat::Punct(b':'), Pat::Punct(b':'), Pat::Ident(tail)],
        )
    };
    match ident_text(src, t) {
        "Instant" if path2("Instant", "now") => out.push(finding(
            "wall-clock",
            t,
            "Instant::now",
            "`Instant::now` reads the host clock; simulation time must come from `SimTime` so runs replay byte-identically",
        )),
        "SystemTime" => out.push(finding(
            "wall-clock",
            t,
            "SystemTime",
            "`SystemTime` is a wall-clock source; derive timestamps from the simulated timeline instead",
        )),
        "Utc" | "Local" | "Date" if path2_any(ts, src, i) => out.push(finding(
            "wall-clock",
            t,
            format!("{}::now", ident_text(src, t)),
            "date/time `now()` reads the host clock; simulation code must be replayable without it",
        )),
        "thread_rng" => out.push(finding(
            "entropy",
            t,
            "thread_rng",
            "`thread_rng` seeds from OS entropy; use the workspace's `StableRng` with an explicit `stable_seed`",
        )),
        "OsRng" => out.push(finding(
            "entropy",
            t,
            "OsRng",
            "`OsRng` draws OS entropy; faulty and clean runs alike must derive all randomness from the scenario seed",
        )),
        "from_entropy" => out.push(finding(
            "entropy",
            t,
            "from_entropy",
            "`from_entropy` seeds from the OS; seed explicitly from the scenario's `stable_seed`",
        )),
        "getrandom" => out.push(finding(
            "entropy",
            t,
            "getrandom",
            "`getrandom` is an OS entropy syscall; simulation code must be deterministic",
        )),
        "RandomState" => out.push(finding(
            "entropy",
            t,
            "RandomState",
            "`RandomState` is per-process random hashing; it makes every map traversal order a fresh coin flip",
        )),
        "random" if ts.seq_matches(src, i.wrapping_sub(3), &[Pat::Ident("rand"), Pat::Punct(b':'), Pat::Punct(b':'), Pat::Ident("random")]) => {
            out.push(finding(
                "entropy",
                t,
                "rand::random",
                "`rand::random` uses the thread RNG; draw from a seeded `StableRng` instead",
            ))
        }
        name @ ("HashMap" | "HashSet") => out.push(finding(
            "hash-iter",
            t,
            name,
            format!(
                "`{name}` iteration order varies per process; use `BTreeMap`/`BTreeSet` or an index-keyed `Vec` \
                 so any traversal is deterministic (waive only for provably lookup-only maps)"
            ),
        )),
        _ => {}
    }
}

/// `Utc::now` / `Local::now` / `Date::now` path check for the current ident.
fn path2_any(ts: &TokenStream, src: &str, i: usize) -> bool {
    let head = {
        let t = &ts.toks()[i];
        &src[t.start..t.end]
    };
    let head: &'static str = match head {
        "Utc" => "Utc",
        "Local" => "Local",
        "Date" => "Date",
        _ => return false,
    };
    ts.seq_matches(
        src,
        i,
        &[Pat::Ident(head), Pat::Punct(b':'), Pat::Punct(b':'), Pat::Ident("now")],
    )
}

/// Matches a panic site at token `i`: `.unwrap()`, `.expect(`, `panic!`.
/// Shared between DVS-P001 (per-file) and DVS-P003 (panic-domain pass).
pub(crate) fn panic_site_at(src: &str, ts: &TokenStream, i: usize) -> Option<&'static str> {
    let t = ts.toks().get(i)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    match ident_text(src, t) {
        "unwrap" if preceded_by_dot(ts, i) && followed_by(ts, i, b'(') => Some(".unwrap()"),
        "expect" if preceded_by_dot(ts, i) && followed_by(ts, i, b'(') => Some(".expect(…)"),
        "panic" if followed_by(ts, i, b'!') => Some("panic!"),
        _ => None,
    }
}

/// DVS-P001: `.unwrap()`, `.expect(`, `panic!`.
fn panic_rules(src: &str, ts: &TokenStream, i: usize, t: &Tok, out: &mut Vec<RawFinding>) {
    let message = match panic_site_at(src, ts, i) {
        Some(".unwrap()") => "`unwrap` panics on the failure path; return `DvsError` (or restructure so the invariant is by construction)",
        Some(".expect(…)") => "`expect` panics on the failure path; return `DvsError`, or waive with the invariant as the reason",
        Some("panic!") => "explicit panic in library code; prefer a typed `DvsError` so callers can degrade gracefully",
        _ => return,
    };
    let matched = panic_site_at(src, ts, i).expect("matched above");
    out.push(finding("panic", t, matched, message));
}

fn preceded_by_dot(ts: &TokenStream, i: usize) -> bool {
    i > 0 && ts.toks()[i - 1].kind == TokKind::Punct(b'.')
}

fn followed_by(ts: &TokenStream, i: usize, b: u8) -> bool {
    ts.toks().get(i + 1).is_some_and(|t| t.kind == TokKind::Punct(b))
}

/// Matches an allocating call at token `i` (the DVS-H002 hazard, scanned
/// over the hot closure by [`crate::passes::hot`]).
pub(crate) fn alloc_site_at(src: &str, ts: &TokenStream, i: usize) -> Option<&'static str> {
    let t = ts.toks().get(i)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    match ident_text(src, t) {
        "Vec"
            if ts.seq_matches(
                src,
                i,
                &[Pat::Ident("Vec"), Pat::Punct(b':'), Pat::Punct(b':'), Pat::Ident("new")],
            ) =>
        {
            Some("Vec::new")
        }
        "Box"
            if ts.seq_matches(
                src,
                i,
                &[Pat::Ident("Box"), Pat::Punct(b':'), Pat::Punct(b':'), Pat::Ident("new")],
            ) =>
        {
            Some("Box::new")
        }
        "vec" if followed_by(ts, i, b'!') => Some("vec!"),
        "format" if followed_by(ts, i, b'!') => Some("format!"),
        "to_string" if preceded_by_dot(ts, i) && followed_by(ts, i, b'(') => Some(".to_string()"),
        "clone" if preceded_by_dot(ts, i) && followed_by(ts, i, b'(') => Some(".clone()"),
        _ => None,
    }
}

/// DVS-P002: slice indexing `x[i]` — a `[` token *directly adjacent* to a
/// value-producing token (identifier, `)`, or `]`). Types (`&[u8]`), array
/// literals (`= [1, 2]`), and attributes (`#[…]`) all have a non-value
/// token before the bracket and are not matched.
fn index_rule(src: &str, toks: &[Tok], i: usize, t: &Tok, out: &mut Vec<RawFinding>) {
    let Some(matched) = index_site_at(src, toks, i) else { return };
    out.push(finding(
        "index",
        t,
        matched,
        "slice indexing panics out of bounds; use `get`/pattern matching on the hot path, or waive \
         with the bounds invariant as the reason",
    ));
}

/// Matches a slice-indexing site at token `i` (a `[` directly adjacent to a
/// value-producing token). Shared between DVS-P002 and DVS-P003.
pub(crate) fn index_site_at(src: &str, toks: &[Tok], i: usize) -> Option<String> {
    let t = toks.get(i)?;
    if t.kind != TokKind::Punct(b'[') || i == 0 {
        return None;
    }
    let prev = &toks[i - 1];
    let value_like =
        matches!(prev.kind, TokKind::Ident | TokKind::Punct(b')') | TokKind::Punct(b']'));
    if value_like && prev.end == t.start {
        // `ident [` with a space is still indexing, but adjacency keeps
        // macro matchers (`($x:ident [$($t:tt)*])`) out of scope; rustfmt
        // normalises real indexing to the adjacent form.
        let ident = if prev.kind == TokKind::Ident { &src[prev.start..prev.end] } else { "…" };
        return Some(format!("{ident}["));
    }
    None
}

/// DVS-R001: `let _ = <expr containing a call>;`.
fn discard_rule(src: &str, ts: &TokenStream, i: usize, t: &Tok, out: &mut Vec<RawFinding>) {
    if t.kind != TokKind::Ident || ident_text(src, t) != "let" {
        return;
    }
    let toks = ts.toks();
    // `let` `_` `=` (an underscore *pattern*, not `_x` — `_x` is an Ident).
    if !(toks.get(i + 1).is_some_and(|u| u.kind == TokKind::Ident && ident_text(src, u) == "_")
        && toks.get(i + 2).is_some_and(|u| u.kind == TokKind::Punct(b'=')))
    {
        return;
    }
    // Scan the discarded expression to `;`; flag when it contains a call
    // (an ident directly followed by `(` — method or function).
    let mut j = i + 3;
    while j < toks.len() && toks[j].kind != TokKind::Punct(b';') {
        if toks[j].kind == TokKind::Ident
            && toks
                .get(j + 1)
                .is_some_and(|u| u.kind == TokKind::Punct(b'(') && toks[j].end == u.start)
        {
            out.push(finding(
                "discard",
                &toks[i],
                format!("let _ = … {}(…)", ident_text(src, &toks[j])),
                "`let _ =` silently discards a result; handle the failure, or bind it and assert, or waive \
                 with the reason the result is safely ignorable",
            ));
            return;
        }
        j += 1;
    }
}

/// DVS-U001: the `unsafe` keyword anywhere outside the allowed files.
fn unsafe_rule(src: &str, t: &Tok, out: &mut Vec<RawFinding>) {
    if t.kind == TokKind::Ident && ident_text(src, t) == "unsafe" {
        out.push(finding(
            "unsafe-code",
            t,
            "unsafe",
            "`unsafe` outside the manifest's `[unsafe_code] allowed` files; workspace crates are \
             `#![forbid(unsafe_code)]` and the lint manifest mirrors that statically",
        ));
    }
}

/// Line ranges (1-based, inclusive) covered by `#[cfg(test)] mod … { … }`
/// blocks. Rules (and the item parser) skip those — test code may unwrap
/// freely and must not enter the workspace call graph.
pub(crate) fn test_line_ranges(src: &str, ts: &TokenStream) -> Vec<(u32, u32)> {
    let toks = ts.toks();
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if ts.seq_matches(
            src,
            i,
            &[
                Pat::Punct(b'#'),
                Pat::Punct(b'['),
                Pat::Ident("cfg"),
                Pat::Punct(b'('),
                Pat::Ident("test"),
                Pat::Punct(b')'),
                Pat::Punct(b']'),
            ],
        ) {
            let start_line = toks[i].line;
            let mut j = i + 7;
            // Skip further attributes between `#[cfg(test)]` and the item.
            while j < toks.len() && toks[j].kind == TokKind::Punct(b'#') {
                j += 1; // '#'
                if toks.get(j).map(|t| t.kind) == Some(TokKind::Punct(b'[')) {
                    let mut depth = 0i32;
                    while j < toks.len() {
                        match toks[j].kind {
                            TokKind::Punct(b'[') => depth += 1,
                            TokKind::Punct(b']') => {
                                depth -= 1;
                                if depth == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
            }
            // The guarded item: anything up to its opening brace, then the
            // matching close. Covers `mod tests { … }` and `fn helper() { … }`.
            while j < toks.len()
                && toks[j].kind != TokKind::Punct(b'{')
                && toks[j].kind != TokKind::Punct(b';')
            {
                j += 1;
            }
            if j < toks.len() && toks[j].kind == TokKind::Punct(b'{') {
                let mut depth = 0i32;
                while j < toks.len() {
                    match toks[j].kind {
                        TokKind::Punct(b'{') => depth += 1,
                        TokKind::Punct(b'}') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let end_line = toks.get(j).map(|t| t.line).unwrap_or(u32::MAX);
                ranges.push((start_line, end_line));
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_findings(src: &str) -> Vec<RawFinding> {
        check_file(src, FileScope { sim: true, unsafe_ok: true, ..Default::default() })
    }

    #[test]
    fn wall_clock_and_entropy_fire_in_sim_scope() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); }";
        let found = sim_findings(src);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].rule.id, "DVS-D001");
        assert_eq!(found[1].rule.id, "DVS-D002");
        assert_eq!(found[0].col, 18);
    }

    #[test]
    fn hash_containers_fire_on_any_use() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }";
        let found = sim_findings(src);
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|f| f.rule.id == "DVS-D003"));
        assert_eq!(found[0].line, 1);
        assert_eq!(found[1].line, 2);
    }

    #[test]
    fn panic_sites_fire_but_not_field_names() {
        let src = "fn f(x: Option<u32>) { x.unwrap(); maybe().expect(\"m\"); panic!(\"boom\"); }";
        let found = sim_findings(src);
        assert_eq!(found.iter().filter(|f| f.rule.id == "DVS-P001").count(), 3);
        // An `unwrap` field or a bare fn named unwrap is not a panic site.
        let ok = "struct S { unwrap: u32 } fn g(s: S) -> u32 { unwrap(s) } fn unwrap(s: S) -> u32 { s.unwrap }";
        assert!(sim_findings(ok).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); let m: HashMap<u8,u8>; }\n}\n";
        assert!(sim_findings(src).is_empty());
    }

    #[test]
    fn cfg_test_fn_is_exempt() {
        let src =
            "#[cfg(test)]\nfn helper() { x.unwrap() }\nfn lib(y: Option<u8>) { y.expect(\"\"); }";
        let found = sim_findings(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].matched, ".expect(…)");
    }

    #[test]
    fn alloc_sites_match_every_allocating_form() {
        let src = "fn f() { let v = Vec::new(); let s = x.to_string(); let b = Box::new(1); let c = y.clone(); let m = format!(\"x\"); let w = vec![1]; let n = Vec::len(&v); }";
        let ts = tokens::lex(src);
        let found: Vec<&str> =
            (0..ts.toks().len()).filter_map(|i| alloc_site_at(src, &ts, i)).collect();
        assert_eq!(found, ["Vec::new", ".to_string()", "Box::new", ".clone()", "format!", "vec!"]);
        // No per-file rule looks for allocation.
        assert!(check_file(src, FileScope { sim: true, unsafe_ok: true, ..Default::default() })
            .is_empty());
    }

    #[test]
    fn index_rule_matches_indexing_not_types() {
        let src = "fn f(xs: &[u32], i: usize) -> u32 { let a = [1u32, 2]; let t: [u8; 2] = [0; 2]; xs[i] }";
        let found = check_file(
            src,
            FileScope { index_strict: true, unsafe_ok: true, ..Default::default() },
        );
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].matched, "xs[");
    }

    #[test]
    fn discard_rule_wants_a_call() {
        let src = "fn f(a: u32) { let _ = a; let _ = fallible(a); let _x = fallible(a); }";
        let found = sim_findings(src);
        assert_eq!(found.iter().filter(|f| f.rule.id == "DVS-R001").count(), 1);
    }

    #[test]
    fn unsafe_rule_respects_carve_out() {
        let src = "unsafe fn f() {}";
        assert_eq!(check_file(src, FileScope::default()).len(), 1);
        assert!(check_file(src, FileScope { unsafe_ok: true, ..Default::default() }).is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src =
            "// Instant::now\nfn f() -> &'static str { \"HashMap thread_rng panic! unsafe\" }";
        let found = check_file(src, FileScope { sim: true, ..Default::default() });
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn catalog_ids_and_names_are_unique() {
        for (a, ra) in RULES.iter().enumerate() {
            for rb in &RULES[a + 1..] {
                assert_ne!(ra.id, rb.id);
                assert_ne!(ra.name, rb.name);
            }
        }
        assert_eq!(by_name("hash-iter").unwrap().id, "DVS-D003");
        assert_eq!(by_id("DVS-H002").unwrap().name, "hot-alloc-transitive");
        // Retired IDs are never reused.
        assert!(by_id("DVS-H001").is_none());
    }
}
