//! The workspace symbol index and conservative call graph.
//!
//! Built from every file's [`crate::parse::ParsedFile`], the graph resolves
//! call sites to candidate definitions **conservatively**: when static
//! tokens cannot pin the target down (bare names shared by several
//! functions, `.method(…)` calls that could dispatch through any trait
//! impl), the edge goes to *every* candidate. Reachability is therefore a
//! sound over-approximation — a function actually reachable from an entry
//! point is always in the closure; the closure may contain more. The
//! property tests in `tests/graph_props.rs` pin exactly this contract.
//!
//! One deliberate scope cut keeps the over-approximation useful: the
//! `.method(…)` name fallback only fans out to methods *in the caller's own
//! crate*. Without it, ubiquitous names (`get`, `parse`, `build`, `load`)
//! connect every crate to every other and the hot closure degenerates to
//! "most of the workspace". Cross-crate calls still resolve through the
//! precise forms — `Type::method(…)` with a workspace type, module-
//! qualified free functions, and bare imported names — and genuinely hot
//! cross-crate methods are rooted as their own `[hot] entry_points`
//! (the manifest lists the sketch and codec methods for exactly this
//! reason).

use std::collections::BTreeMap;

use crate::parse::{CallSite, ParsedFile};

/// One function in the flattened workspace index.
#[derive(Clone, Debug)]
pub struct GFn {
    /// Index of the owning file (position in the slice passed to [`Graph::build`]).
    pub file: usize,
    /// Index into that file's `ParsedFile::fns`.
    pub item: usize,
    /// Owning crate, from the file's workspace-relative path
    /// (`crates/<name>/…` → `<name>`; anything else → the root crate `""`).
    pub krate: String,
    /// The function's name.
    pub name: String,
    /// The enclosing `impl`/`trait` self type, when any.
    pub self_type: Option<String>,
    /// 1-based definition line.
    pub line: u32,
}

impl GFn {
    /// `Type::name` for methods, `name` for free functions.
    pub fn display(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One resolved call edge.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Callee (index into [`Graph::fns`]).
    pub to: usize,
    /// Whether the call site sits inside a `catch_unwind(...)` argument —
    /// i.e. the callee runs behind a panic-containment boundary here.
    pub contained: bool,
}

/// The workspace call graph. Test-region functions are excluded entirely:
/// they are neither call sources nor call targets.
#[derive(Debug, Default)]
pub struct Graph {
    /// All indexed functions.
    pub fns: Vec<GFn>,
    /// Outgoing edges per function.
    pub adj: Vec<Vec<Edge>>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_type_method: BTreeMap<(String, String), Vec<usize>>,
    methods_by_name: BTreeMap<String, Vec<usize>>,
}

/// Reachability result: which functions are in the closure, and one
/// shortest parent chain per reached function for diagnostics.
#[derive(Clone, Debug)]
pub struct Reach {
    /// Membership per function index.
    pub reached: Vec<bool>,
    /// BFS parent per reached function (`None` for roots and unreached).
    pub parent: Vec<Option<usize>>,
    /// The root each reached function was first discovered from.
    pub root: Vec<Option<usize>>,
}

/// Owning crate of a workspace-relative path: `crates/<name>/…` →
/// `<name>`, anything else (the root `src/`) → `""`.
fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/").and_then(|r| r.split('/').next()).unwrap_or("").to_string()
}

impl Graph {
    /// Builds the index and edges from every file's `(relative path, parse
    /// result)`, in file order (file index = slice position). The path only
    /// determines each function's owning crate (for the intra-crate method
    /// fallback); it is never opened.
    pub fn build(files: &[(&str, &ParsedFile)]) -> Graph {
        let mut g = Graph::default();
        // Per file, local fn item index -> global index (None for tests).
        let mut local_to_global: Vec<Vec<Option<usize>>> = Vec::with_capacity(files.len());
        for (fi, (rel, pf)) in files.iter().enumerate() {
            let krate = crate_of(rel);
            let mut map = Vec::with_capacity(pf.fns.len());
            for (ii, f) in pf.fns.iter().enumerate() {
                if f.in_test {
                    map.push(None);
                    continue;
                }
                let gi = g.fns.len();
                g.fns.push(GFn {
                    file: fi,
                    item: ii,
                    krate: krate.clone(),
                    name: f.name.clone(),
                    self_type: f.self_type.clone(),
                    line: f.line,
                });
                g.by_name.entry(f.name.clone()).or_default().push(gi);
                if let Some(ty) = &f.self_type {
                    g.by_type_method.entry((ty.clone(), f.name.clone())).or_default().push(gi);
                    g.methods_by_name.entry(f.name.clone()).or_default().push(gi);
                }
                map.push(Some(gi));
            }
            local_to_global.push(map);
        }
        g.adj = vec![Vec::new(); g.fns.len()];
        for (fi, (_, pf)) in files.iter().enumerate() {
            for call in &pf.calls {
                let Some(Some(from)) = local_to_global[fi].get(call.caller).copied() else {
                    continue;
                };
                let caller_self = g.fns[from].self_type.clone();
                let caller_krate = g.fns[from].krate.clone();
                let contained = pf.token_is_contained(call.tok);
                for to in g.resolve(call, caller_self.as_deref(), &caller_krate) {
                    g.adj[from].push(Edge { to, contained });
                }
            }
        }
        for edges in &mut g.adj {
            edges.sort_by_key(|e| (e.to, e.contained));
            edges.dedup_by_key(|e| (e.to, e.contained));
        }
        g
    }

    /// Resolves one call site to all candidate definitions. The policy is
    /// the conservative one documented in `docs/lint.md`:
    ///
    /// * `.name(…)` — every method named `name` on any type *in the
    ///   caller's crate* (trait dispatch cannot be resolved statically;
    ///   the crate cut keeps ubiquitous names from connecting everything,
    ///   see the module docs);
    /// * `Type::name(…)` — the type's own `name` when the type is known,
    ///   otherwise a leaf (a std/foreign type);
    /// * `module::name(…)` (lowercase qualifier) — every function named
    ///   `name`, workspace-wide;
    /// * `Self::name(…)` — resolved through the caller's impl type;
    /// * bare `name(…)` — every function named `name`, workspace-wide
    ///   (bare calls reach cross-crate imports via `use`).
    pub fn resolve(
        &self,
        call: &CallSite,
        caller_self: Option<&str>,
        caller_krate: &str,
    ) -> Vec<usize> {
        if call.method {
            return self
                .methods_by_name
                .get(&call.name)
                .map(|v| v.iter().copied().filter(|&i| self.fns[i].krate == caller_krate).collect())
                .unwrap_or_default();
        }
        if let Some(q) = &call.qualifier {
            let q: &str = if q == "Self" {
                match caller_self {
                    Some(s) => s,
                    None => return Vec::new(),
                }
            } else {
                q
            };
            if let Some(v) = self.by_type_method.get(&(q.to_string(), call.name.clone())) {
                return v.clone();
            }
            if q.chars().next().is_some_and(|c| c.is_lowercase() || c == '_') {
                // Module-qualified: any same-named function may be meant.
                return self.by_name.get(&call.name).cloned().unwrap_or_default();
            }
            return Vec::new(); // unknown Type::method — a std leaf
        }
        self.by_name.get(&call.name).cloned().unwrap_or_default()
    }

    /// Resolves a manifest entry-point spec (`name` or `Type::method`) to
    /// all matching function indices. Empty means the spec is stale.
    pub fn resolve_entry(&self, spec: &str) -> Vec<usize> {
        if let Some((ty, name)) = spec.split_once("::") {
            return self
                .by_type_method
                .get(&(ty.trim().to_string(), name.trim().to_string()))
                .cloned()
                .unwrap_or_default();
        }
        self.by_name.get(spec.trim()).cloned().unwrap_or_default()
    }

    /// BFS over all edges from `roots`. The closure is a sound
    /// over-approximation of everything those functions can execute.
    pub fn reach_from(&self, roots: &[usize]) -> Reach {
        let n = self.fns.len();
        let mut r = Reach { reached: vec![false; n], parent: vec![None; n], root: vec![None; n] };
        let mut queue = std::collections::VecDeque::new();
        for &root in roots {
            if root < n && !r.reached[root] {
                r.reached[root] = true;
                r.root[root] = Some(root);
                queue.push_back(root);
            }
        }
        while let Some(cur) = queue.pop_front() {
            for e in &self.adj[cur] {
                if !r.reached[e.to] {
                    r.reached[e.to] = true;
                    r.parent[e.to] = Some(cur);
                    r.root[e.to] = r.root[cur];
                    queue.push_back(e.to);
                }
            }
        }
        r
    }

    /// Renders the discovery chain `root → … → idx` for diagnostics,
    /// truncated in the middle when longer than six hops.
    pub fn chain(&self, reach: &Reach, idx: usize) -> Vec<String> {
        let mut names = Vec::new();
        let mut cur = Some(idx);
        while let Some(i) = cur {
            names.push(self.fns[i].display());
            cur = reach.parent[i];
        }
        names.reverse();
        if names.len() > 6 {
            let tail = names.split_off(names.len() - 3);
            names.truncate(2);
            names.push("…".to_string());
            names.extend(tail);
        }
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::tokens::lex;

    /// Each source becomes its own file inside ONE crate (`crates/one`), so
    /// the intra-crate method fallback still fans out across these files.
    fn graph_of(srcs: &[&str]) -> Graph {
        let parsed: Vec<ParsedFile> = srcs.iter().map(|s| parse_file(s, &lex(s))).collect();
        let rels: Vec<String> =
            (0..srcs.len()).map(|i| format!("crates/one/src/f{i}.rs")).collect();
        let files: Vec<(&str, &ParsedFile)> =
            rels.iter().map(String::as_str).zip(parsed.iter()).collect();
        Graph::build(&files)
    }

    /// Each source becomes its own crate (`crates/k<i>`), for pinning the
    /// crate-boundary behaviour of each resolution form.
    fn graph_of_crates(srcs: &[&str]) -> Graph {
        let parsed: Vec<ParsedFile> = srcs.iter().map(|s| parse_file(s, &lex(s))).collect();
        let rels: Vec<String> =
            (0..srcs.len()).map(|i| format!("crates/k{i}/src/lib.rs")).collect();
        let files: Vec<(&str, &ParsedFile)> =
            rels.iter().map(String::as_str).zip(parsed.iter()).collect();
        Graph::build(&files)
    }

    fn idx(g: &Graph, display: &str) -> usize {
        g.fns.iter().position(|f| f.display() == display).unwrap()
    }

    #[test]
    fn bare_calls_reach_across_files() {
        let g = graph_of(&["fn entry() { helper(); }", "fn helper() { leaf(); }", "fn leaf() {}"]);
        let r = g.reach_from(&[idx(&g, "entry")]);
        assert!(r.reached[idx(&g, "helper")]);
        assert!(r.reached[idx(&g, "leaf")]);
    }

    #[test]
    fn qualified_calls_resolve_precisely() {
        let g = graph_of(&[
            "impl A { fn go(&self) {} } impl B { fn go(&self) {} } fn entry() { A::go(); }",
        ]);
        let r = g.reach_from(&[idx(&g, "entry")]);
        assert!(r.reached[idx(&g, "A::go")]);
        assert!(!r.reached[idx(&g, "B::go")]);
    }

    #[test]
    fn method_calls_dispatch_conservatively() {
        let g = graph_of(&[
            "impl A { fn go(&self) {} } impl B { fn go(&self) {} } fn entry(x: A) { x.go(); }",
        ]);
        let r = g.reach_from(&[idx(&g, "entry")]);
        // Static tokens cannot tell A from B: both are in the closure.
        assert!(r.reached[idx(&g, "A::go")]);
        assert!(r.reached[idx(&g, "B::go")]);
    }

    #[test]
    fn method_fallback_stops_at_the_crate_boundary() {
        let srcs = [
            "impl A { fn go(&self) {} } fn entry(x: A) { x.go(); }",
            "impl Other { fn go(&self) {} } fn far() { Remote::help(); }",
            "impl Remote { fn help() {} }",
        ];
        // Same crate: the fallback fans out to both `go` impls.
        let same = graph_of(&srcs);
        let r = same.reach_from(&[idx(&same, "entry")]);
        assert!(r.reached[idx(&same, "A::go")]);
        assert!(r.reached[idx(&same, "Other::go")]);
        // Separate crates: only the caller's own crate's `go`; but the
        // precise `Type::method` form still crosses crates.
        let split = graph_of_crates(&srcs);
        let r = split.reach_from(&[idx(&split, "entry")]);
        assert!(r.reached[idx(&split, "A::go")]);
        assert!(!r.reached[idx(&split, "Other::go")]);
        let r = split.reach_from(&[idx(&split, "far")]);
        assert!(r.reached[idx(&split, "Remote::help")]);
    }

    #[test]
    fn bare_calls_cross_crates() {
        let g = graph_of_crates(&["fn entry() { helper(); }", "fn helper() {}"]);
        let r = g.reach_from(&[idx(&g, "entry")]);
        assert!(r.reached[idx(&g, "helper")]);
    }

    #[test]
    fn self_calls_resolve_through_the_impl() {
        let g = graph_of(&[
            "impl A { fn entry(&self) { Self::own(); } fn own() {} } impl B { fn own() {} }",
        ]);
        let r = g.reach_from(&[idx(&g, "A::entry")]);
        assert!(r.reached[idx(&g, "A::own")]);
        assert!(!r.reached[idx(&g, "B::own")]);
    }

    #[test]
    fn cycles_terminate() {
        let g = graph_of(&["fn a() { b(); }", "fn b() { a(); }"]);
        let r = g.reach_from(&[idx(&g, "a")]);
        assert!(r.reached[idx(&g, "b")]);
    }

    #[test]
    fn std_calls_are_leaves() {
        let g = graph_of(&["fn entry() { Vec::new(); String::from(\"x\"); }"]);
        let r = g.reach_from(&[idx(&g, "entry")]);
        assert_eq!(r.reached.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn test_fns_are_excluded() {
        let g = graph_of(&["fn lib() {}\n#[cfg(test)]\nmod t { fn helper() { lib(); } }"]);
        assert_eq!(g.fns.len(), 1);
    }

    #[test]
    fn entry_specs_resolve_both_forms() {
        let g = graph_of(&["fn free() {} impl T { fn m(&self) {} }"]);
        assert_eq!(g.resolve_entry("free").len(), 1);
        assert_eq!(g.resolve_entry("T::m").len(), 1);
        assert!(g.resolve_entry("gone").is_empty());
        assert!(g.resolve_entry("T::gone").is_empty());
    }

    #[test]
    fn contained_edges_are_flagged() {
        let g = graph_of(&[
            "fn entry() { let _r = std::panic::catch_unwind(|| inner()); outer(); }\nfn inner() {}\nfn outer() {}",
        ]);
        let entry = idx(&g, "entry");
        let inner = idx(&g, "inner");
        let outer = idx(&g, "outer");
        let edge = |to: usize| g.adj[entry].iter().find(|e| e.to == to).unwrap();
        assert!(edge(inner).contained);
        assert!(!edge(outer).contained);
    }

    #[test]
    fn chains_render_root_to_target() {
        let g = graph_of(&["fn a() { b(); }", "fn b() { c(); }", "fn c() {}"]);
        let r = g.reach_from(&[idx(&g, "a")]);
        assert_eq!(g.chain(&r, idx(&g, "c")), ["a", "b", "c"]);
    }
}
