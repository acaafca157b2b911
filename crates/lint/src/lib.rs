#![warn(missing_docs)]
//! # f4tlint / FtProve — cross-file semantic lint engine for the F4T workspace
//!
//! A dependency-free workspace analyzer enforcing the repo-specific
//! determinism and concurrency contracts that `rustc`/`clippy` cannot
//! know about. It is the static half of FtVerify (the dynamic half is
//! `f4t_sim::check`, the cycle-level hazard checker).
//!
//! ## Passes
//!
//! Every file is lexed exactly once; all rules share the result:
//!
//! 1. **lex** ([`lexer`]) — comment/string stripping with columns
//!    preserved, `#[cfg(test)]` region marking, `f4tlint:` directives;
//! 2. **parse** ([`parse`]) — approximate item structure: functions with
//!    body ranges and enclosing impl types, struct fields with declared
//!    types, `use` paths, module-level statics;
//! 3. **index** ([`index`]) — workspace symbol tables (functions by
//!    name / impl type, unordered-container fields, metric literals);
//! 4. **callgraph** ([`callgraph`]) — name-resolved approximate call
//!    graph with BFS reachability (over-approximating, the safe
//!    direction for "is a panic reachable from tick?");
//! 5. **rules** ([`rules`]) — the per-line, dataflow, reachability and
//!    cross-artifact rules below.
//!
//! ## Rules
//!
//! | rule | scope | meaning |
//! |------|-------|---------|
//! | `wall_clock` | every crate except `bench` | no `std::time::Instant` / `SystemTime`: simulated time must come from the cycle counter, or determinism and reproducibility die silently |
//! | `raw_queue` | `core`, `mem` | no `VecDeque<...>` fields/locals — on-chip queues must be `f4t_sim::Fifo` (bounded, with backpressure and conservation counters) |
//! | `panic_path` | `core` | no `unwrap()`/`expect()`/`panic!`-family in non-test code: everything in `core` is reachable from `Engine::tick` |
//! | `nondeterministic_iter` | every crate | no `for … in` loops over `HashMap`/`HashSet` iterators — declared types flow from struct fields (workspace-wide) and same-file bindings to the loop site; hash order silently breaks the golden-digest contract |
//! | `panic_reachable` | every crate except `core` | no panic-family expression in any function the call graph reaches from `tick`/`tick_probed`/`ParallelRunner` entry points |
//! | `float_in_digest` | every crate | no f32/f64 arithmetic reachable from `fold_digests`/FNV/digest/merge entry points — float rounding is order-sensitive and breaks byte-identical artifact merging |
//! | `shared_mut_across_shards` | every crate | no statics, `Rc`, non-`Sync` interior mutability or `unsafe` referenced from `parallel.rs` worker closures or anything they reach |
//! | `tick_path_scan` | `core`, `mem`, `host`, `system`, `workloads` | no `.iter().position(` / `.iter().find(` / `.contains(&` / `min_by_key(` and no `HashMap`/`HashSet` field access in functions the call graph reaches from `tick`/`tick_probed` (`Engine::tick`, and `Node::tick` around it): the hardware answers in one cycle and a flow id is an index, so the simulator answers from an index (DESIGN.md §12.1) |
//! | `metric_name` | every crate | FtScope metric / FtFlight stage / FtJournal event names are dotted `snake_case` and unique per file |
//! | `metrics_catalog` | every crate | every metric/stage/event literal must match an entry of the generated METRICS.md catalog (placeholders match any run) |
//! | `cargo_deps` | every manifest | every dependency is `path =` / `workspace = true` — the workspace builds fully offline |
//! | `stale_allow` | every file | an allow directive that suppresses zero findings is dead weight — delete it (also fires on unknown rule names) |
//!
//! ## Allow-listing
//!
//! A justified exception is granted in place:
//!
//! ```text
//! // f4tlint: allow(raw_queue): bounded by the dispatch gate.
//! tx_overflow: VecDeque<TxRequest>,
//! ```
//!
//! The directive covers its own line, any immediately following comment
//! lines, and the first code line after it. `// f4tlint: allow-file(rule)`
//! anywhere in a file disables the rule for that whole file. Doc comments
//! (`///`, `//!`) never carry directives. `stale_allow` keeps the escape
//! hatch honest: an allow that stops suppressing anything is itself a
//! finding.
//!
//! The `workspace_is_clean` test in this crate scans the real workspace,
//! so `cargo test` fails on any new violation; `scripts/verify.sh` and the
//! CI `lint` job also run the `f4tlint` binary directly.

// f4tlint: allow-file(wall_clock): the linter times its own passes for
// `--timings`; nothing in this crate executes inside the simulation.

pub mod callgraph;
pub mod index;
pub mod lexer;
pub mod parse;
pub mod rules;

use crate::callgraph::CallGraph;
use crate::index::SymbolIndex;
use crate::lexer::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The rules f4tlint knows, with one-line descriptions (`f4tlint --rules`).
pub const RULES: &[(&str, &str)] = &[
    ("wall_clock", "no std::time::Instant/SystemTime outside crates/bench"),
    ("raw_queue", "no VecDeque in crates/core|mem; on-chip queues use f4t_sim::Fifo"),
    ("panic_path", "no unwrap/expect/panic!-family in non-test crates/core code"),
    (
        "nondeterministic_iter",
        "no for-loops over HashMap/HashSet iterators anywhere; declared types tracked \
         workspace-wide from struct fields to use sites",
    ),
    (
        "panic_reachable",
        "no panic-family expression reachable from tick/tick_probed/ParallelRunner entry \
         points (call-graph BFS; crates/core is covered line-by-line by panic_path)",
    ),
    (
        "float_in_digest",
        "no f32/f64 arithmetic reachable from fold_digests/FNV/digest/merge entry points",
    ),
    (
        "shared_mut_across_shards",
        "no statics, Rc, non-Sync interior mutability or unsafe referenced from shard-worker \
         code (parallel.rs closures and everything they reach)",
    ),
    (
        "tick_path_scan",
        "no linear table scan (.iter().position/.iter().find/.contains(&/min_by_key) or \
         HashMap/HashSet field access reachable from tick/tick_probed in \
         crates/core|mem|host|system|workloads",
    ),
    (
        "metric_name",
        "FtScope metric / FtFlight stage / FtJournal event names are dotted snake_case, unique per file",
    ),
    (
        "metrics_catalog",
        "every metric/stage/event literal matches an entry of METRICS.md (regenerate with \
         UPDATE_METRICS=1 cargo test --test metrics_catalog)",
    ),
    ("cargo_deps", "every Cargo.toml dependency is path/workspace (offline build)"),
    ("stale_allow", "allow directives that suppress zero findings are dead weight"),
];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path of the offending file (as given to the scanner).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (one of [`RULES`]).
    pub rule: &'static str,
    /// What went wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// Everything the rule passes see: the lexed files, the manifests and
/// the METRICS.md catalog (when present).
pub struct Workspace {
    /// Every lexed source file.
    pub files: Vec<SourceFile>,
    /// `(label, contents)` of every Cargo.toml.
    pub manifests: Vec<(String, String)>,
    /// Metric names from METRICS.md (`None` when no catalog exists —
    /// the `metrics_catalog` rule then stays silent).
    pub catalog: Option<Vec<String>>,
}

/// A full scan result: findings plus per-pass timing.
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// `(pass, milliseconds)` per pass, in execution order.
    pub timings: Vec<(&'static str, f64)>,
    /// Number of `.rs` files lexed.
    pub files_scanned: usize,
}

fn timed<T>(
    timings: &mut Vec<(&'static str, f64)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = Instant::now();
    let v = f();
    timings.push((name, t0.elapsed().as_secs_f64() * 1000.0));
    v
}

/// Runs every pass over an already-loaded workspace.
pub fn run_passes(ws: &mut Workspace, timings: &mut Vec<(&'static str, f64)>) -> Vec<Finding> {
    let idx = timed(timings, "index", || SymbolIndex::build(&ws.files));
    let graph = timed(timings, "callgraph", || CallGraph::build(&ws.files, &idx));
    let mut findings = Vec::new();
    timed(timings, "wall_clock", || rules::wall_clock(ws, &mut findings));
    timed(timings, "raw_queue", || rules::raw_queue(ws, &mut findings));
    timed(timings, "panic_path", || rules::panic_path(ws, &mut findings));
    timed(timings, "nondeterministic_iter", || {
        rules::nondeterministic_iter(ws, &idx, &mut findings)
    });
    timed(timings, "panic_reachable", || {
        rules::panic_reachable(ws, &idx, &graph, &mut findings)
    });
    timed(timings, "float_in_digest", || {
        rules::float_in_digest(ws, &idx, &graph, &mut findings)
    });
    timed(timings, "shared_mut_across_shards", || {
        rules::shared_mut_across_shards(ws, &idx, &graph, &mut findings)
    });
    timed(timings, "tick_path_scan", || {
        rules::tick_path_scan(ws, &idx, &graph, &mut findings)
    });
    timed(timings, "metric_name", || rules::metric_name(ws, &idx, &mut findings));
    timed(timings, "metrics_catalog", || rules::metrics_catalog(ws, &idx, &mut findings));
    timed(timings, "cargo_deps", || rules::cargo_deps(ws, &mut findings));
    // Last: every suppressible rule has run, so use-tracking is final.
    timed(timings, "stale_allow", || rules::stale_allow(ws, &mut findings));
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    findings
}

/// Scans a set of in-memory sources `(label, crate_name, src)` as one
/// workspace, with an optional metric catalog. Used by the fixture
/// self-tests; the cross-file rules see all files together.
pub fn scan_files(inputs: &[(&str, &str, &str)], catalog: Option<Vec<String>>) -> Vec<Finding> {
    let files = inputs
        .iter()
        .map(|(label, crate_name, src)| SourceFile::new(label, crate_name, src))
        .collect();
    let mut ws = Workspace { files, manifests: Vec::new(), catalog };
    let mut timings = Vec::new();
    run_passes(&mut ws, &mut timings)
}

/// Scans one Rust source file. `file` is the label used in findings,
/// `crate_name` selects which rules are in force. Cross-file resolution
/// sees only this file.
pub fn scan_source(file: &str, crate_name: &str, src: &str) -> Vec<Finding> {
    scan_files(&[(file, crate_name, src)], None)
}

/// Scans one `Cargo.toml`: every entry in a dependencies section must be a
/// `path =` or `workspace = true` dependency (the workspace builds with no
/// network access; see ROADMAP.md).
pub fn scan_manifest(file: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut in_deps = false;
    for (i, line) in src.lines().enumerate() {
        let t = line.trim();
        if t.starts_with('[') {
            let section = t.trim_start_matches('[').trim_end_matches(']');
            in_deps = section == "dependencies"
                || section.ends_with(".dependencies")
                || section == "dev-dependencies"
                || section == "build-dependencies";
            continue;
        }
        if !in_deps || t.is_empty() || t.starts_with('#') {
            continue;
        }
        if t.contains("workspace = true") || t.contains("path =") {
            continue;
        }
        findings.push(Finding {
            file: file.into(),
            line: i + 1,
            rule: "cargo_deps",
            message: format!(
                "dependency entry `{t}` is not path/workspace; external crates are not \
                 available in this build environment"
            ),
        });
    }
    findings
}

// ---------------------------------------------------------------------------
// Workspace loader.
// ---------------------------------------------------------------------------

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut entries: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // `fixtures` holds intentionally-violating inputs for the
            // lint self-tests; `target` is build output.
            if name != "fixtures" && name != "target" {
                walk_rs(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn load_tree(root: &Path, dir: &Path, crate_name: &str, files: &mut Vec<SourceFile>) {
    let mut paths = Vec::new();
    walk_rs(dir, &mut paths);
    for path in paths {
        let Ok(src) = std::fs::read_to_string(&path) else { continue };
        let label = path.strip_prefix(root).unwrap_or(&path).display().to_string();
        files.push(SourceFile::new(&label, crate_name, &src));
    }
}

/// Extracts metric names from METRICS.md table rows: the first
/// backtick-quoted cell of each `|`-row. Instance indices appear as the
/// literal `<i>` and are matched by code-side placeholders.
pub fn parse_catalog(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in src.lines() {
        let t = line.trim();
        if !t.starts_with('|') {
            continue;
        }
        let Some(a) = t.find('`') else { continue };
        let Some(b) = t[a + 1..].find('`') else { continue };
        let name = &t[a + 1..a + 1 + b];
        if !name.is_empty() {
            out.push(name.to_string());
        }
    }
    out
}

/// Loads the whole workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`): all crates under `crates/`, the facade
/// crate's `src/` / `tests/` / `examples/`, every manifest and the
/// METRICS.md catalog.
pub fn load_workspace(root: &Path) -> Workspace {
    let mut files = Vec::new();
    let mut manifests = Vec::new();
    let manifest = root.join("Cargo.toml");
    if let Ok(src) = std::fs::read_to_string(&manifest) {
        let label = manifest.strip_prefix(root).unwrap_or(&manifest).display().to_string();
        manifests.push((label, src));
    }
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut dirs: Vec<PathBuf> =
            entries.flatten().map(|e| e.path()).filter(|p| p.is_dir()).collect();
        dirs.sort();
        for dir in dirs {
            let crate_name =
                dir.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
            let manifest = dir.join("Cargo.toml");
            if let Ok(src) = std::fs::read_to_string(&manifest) {
                let label =
                    manifest.strip_prefix(root).unwrap_or(&manifest).display().to_string();
                manifests.push((label, src));
            }
            load_tree(root, &dir, &crate_name, &mut files);
        }
    }
    // Facade crate sources and the workspace-level integration tests.
    load_tree(root, &root.join("src"), "f4t", &mut files);
    load_tree(root, &root.join("tests"), "f4t", &mut files);
    load_tree(root, &root.join("examples"), "f4t", &mut files);
    let catalog = std::fs::read_to_string(root.join("METRICS.md")).ok().map(|s| parse_catalog(&s));
    Workspace { files, manifests, catalog }
}

/// Scans the whole workspace rooted at `root`, with per-pass timing.
pub fn scan_workspace_report(root: &Path) -> Report {
    let mut timings = Vec::new();
    let mut ws = timed(&mut timings, "load", || load_workspace(root));
    let files_scanned = ws.files.len();
    let findings = run_passes(&mut ws, &mut timings);
    Report { findings, timings, files_scanned }
}

/// Scans the whole workspace rooted at `root` (findings only).
pub fn scan_workspace(root: &Path) -> Vec<Finding> {
    scan_workspace_report(root).findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
    }

    /// Findings of one rule, as (line, message) pairs.
    fn of<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
        findings.iter().filter(|f| f.rule == rule).collect()
    }

    fn lines(findings: &[&Finding]) -> Vec<usize> {
        findings.iter().map(|f| f.line).collect()
    }

    #[test]
    fn fixture_wall_clock_detected() {
        let all = scan_source("wall_clock.rs", "core", &fixture("wall_clock.rs"));
        let f = of(&all, "wall_clock");
        // The commented-out Instant and the one in a string do not count,
        // and the allow-listed one is exempt.
        assert_eq!(lines(&f), [5, 8], "{all:#?}");
        assert!(of(&all, "stale_allow").is_empty(), "{all:#?}");
    }

    #[test]
    fn fixture_raw_queue_detected_and_allow_listed() {
        let all = scan_source("raw_queue.rs", "core", &fixture("raw_queue.rs"));
        assert_eq!(lines(&of(&all, "raw_queue")), [8], "{all:#?}");
        // Out of scope for non-hardware crates (the unused allow then
        // surfaces as stale — which is correct: it suppresses nothing).
        let host = scan_source("raw_queue.rs", "host", &fixture("raw_queue.rs"));
        assert!(of(&host, "raw_queue").is_empty(), "{host:#?}");
    }

    #[test]
    fn fixture_panic_path_detected_outside_tests_only() {
        let all = scan_source("panic_path.rs", "core", &fixture("panic_path.rs"));
        let f = of(&all, "panic_path");
        assert_eq!(f.len(), 2, "{all:#?}");
        assert!(f.iter().all(|x| x.line < 20), "test-module panics exempt: {all:#?}");
    }

    #[test]
    fn fixture_nondeterministic_iter_detected() {
        let src = fixture("nondeterministic_iter.rs");
        let all = scan_source("nondeterministic_iter.rs", "core", &src);
        let f = of(&all, "nondeterministic_iter");
        // Field iter, method-chain iter, local binding, by-reference loop;
        // the allow-listed loop, the order-insensitive fold, the Vec loops
        // and the #[cfg(test)] loop are all exempt.
        assert_eq!(lines(&f), [12, 15, 19, 22], "{all:#?}");
        assert!(f[0].message.contains("nondeterministic"), "{all:#?}");
        assert!(of(&all, "stale_allow").is_empty(), "{all:#?}");
        // The rule is workspace-wide now: other crates are in scope too.
        let host = scan_source("nondeterministic_iter.rs", "host", &src);
        assert_eq!(of(&host, "nondeterministic_iter").len(), 4, "{host:#?}");
    }

    #[test]
    fn cross_file_field_type_flows_to_use_site() {
        let state = fixture("nondet_iter/state.rs");
        let routes = fixture("nondet_iter/routes.rs");
        let all = scan_files(
            &[
                ("crates/tcp/src/state.rs", "tcp", &state),
                ("crates/tcp/src/routes.rs", "tcp", &routes),
            ],
            None,
        );
        let f = of(&all, "nondeterministic_iter");
        // routes.rs never mentions HashMap; the field type flows from
        // state.rs through the symbol index to the loop in routes.rs.
        assert_eq!(f.len(), 1, "{all:#?}");
        assert_eq!(f[0].file, "crates/tcp/src/routes.rs", "{all:#?}");
        assert!(f[0].message.contains("state.rs"), "decl site named: {all:#?}");
        // A different crate with the same type name must NOT resolve.
        let other = scan_files(
            &[
                ("crates/tcp/src/state.rs", "tcp", &state),
                ("crates/host/src/routes.rs", "host", &routes),
            ],
            None,
        );
        assert!(of(&other, "nondeterministic_iter").is_empty(), "{other:#?}");
    }

    #[test]
    fn fixture_panic_reachable_detected() {
        let all = scan_source("panic_reachable.rs", "system", &fixture("panic_reachable.rs"));
        let f = of(&all, "panic_reachable");
        // The expect in drain_one (tick -> pump -> drain_one), the unwrap
        // in pump and the unwrap in probe_tail (reached only from
        // tick_probed); the panic in cold_init (unreachable from either
        // entry) and the test-module unwrap are exempt.
        assert_eq!(f.len(), 3, "{all:#?}");
        assert!(
            f.iter().any(|x| x.message.contains("drain_one") && x.message.contains("tick")),
            "path rendered: {all:#?}"
        );
        assert!(
            f.iter().any(|x| x.message.contains("probe_tail <- Pump::tick_probed")),
            "tick_probed is an entry: {all:#?}"
        );
        assert!(of(&all, "stale_allow").is_empty(), "{all:#?}");
    }

    #[test]
    fn fixture_float_in_digest_detected() {
        let all = scan_source("float_digest.rs", "sim", &fixture("float_digest.rs"));
        let f = of(&all, "float_in_digest");
        // The f64 cast in weight() (fold_digests -> mix -> weight) and the
        // float literal in mix(); rate() floats are unreachable from any
        // digest entry point.
        assert_eq!(f.len(), 2, "{all:#?}");
        assert!(f.iter().any(|x| x.message.contains("fold_digests")), "{all:#?}");
    }

    #[test]
    fn fixture_shared_mut_detected() {
        let all = scan_source("shared_mut.rs", "system", &fixture("shared_mut.rs"));
        let f = of(&all, "shared_mut_across_shards");
        // The module-level static mut, the Rc inside the worker helper and
        // the unsafe block; the Rc in cold_setup (unreachable from any
        // worker) is exempt.
        assert_eq!(f.len(), 3, "{all:#?}");
        assert!(f.iter().any(|x| x.message.contains("static mut")), "{all:#?}");
        assert!(f.iter().any(|x| x.message.contains("Rc")), "{all:#?}");
    }

    #[test]
    fn fixture_tick_path_scan_detected() {
        let src = fixture("tick_path_scan.rs");
        let all = scan_source("tick_path_scan.rs", "mem", &src);
        let f = of(&all, "tick_path_scan");
        // position() + hashed field in route(), contains(&) in admit(),
        // the first min_by_key in coldest(), the find() in lookup()
        // (reached only from tick_probed) and the hashed socket map in
        // Lib::send() (reached from Node::tick through a driver step);
        // the excused min_by_key, cold_report() and the test module are
        // exempt.
        assert_eq!(lines(&f), [26, 27, 32, 36, 52, 62], "{all:#?}");
        assert!(f[4].message.contains("Table::lookup <- Table::tick_probed"), "{all:#?}");
        assert!(f[0].message.contains("iter().position("), "{all:#?}");
        assert!(f[0].message.contains("Table::route <- Table::tick"), "path rendered: {all:#?}");
        assert!(f[1].message.contains("self.owners"), "{all:#?}");
        assert!(f[5].message.contains("self.sockets"), "{all:#?}");
        assert!(f[5].message.contains("Lib::send <- Node::step_flow <- Node::tick"), "{all:#?}");
        assert!(of(&all, "stale_allow").is_empty(), "{all:#?}");
        // Everything a node tick executes is in scope, the host model and
        // the drivers included ...
        for krate in ["core", "host", "system", "workloads"] {
            let scanned = scan_source("tick_path_scan.rs", krate, &src);
            assert_eq!(of(&scanned, "tick_path_scan").len(), f.len(), "{krate}: {scanned:#?}");
        }
        // ... and nothing else is (the excuse then suppresses nothing,
        // which stale_allow reports).
        let bench = scan_source("tick_path_scan.rs", "bench", &src);
        assert!(of(&bench, "tick_path_scan").is_empty(), "{bench:#?}");
    }

    #[test]
    fn fixture_metrics_catalog_detected() {
        let src = fixture("metrics_catalog.rs");
        let catalog = vec![
            "engine.rx.segments".to_string(),
            "engine.<i>.drops".to_string(),
            "engine.flight.rx_ingest.cycles".to_string(),
            "engine.journal.kind.tcb_migrate_start".to_string(),
            "engine.pulse.last.goodput_bytes".to_string(),
        ];
        let all = scan_files(&[("metrics_catalog.rs", "sim", &src)], Some(catalog));
        let f = of(&all, "metrics_catalog");
        // Exactly the three planted strays: the uncatalogued counter, the
        // uncatalogued stage name and the uncatalogued pulse series. The
        // catalogued counter, the placeholder-bearing gauge (matches
        // engine.<i>.drops), the catalogued event kind and the catalogued
        // pulse series are clean.
        assert_eq!(f.len(), 3, "{all:#?}");
        assert!(f.iter().any(|x| x.message.contains("engine.rx.bytes_total")), "{all:#?}");
        assert!(f.iter().any(|x| x.message.contains("tx_emit")), "{all:#?}");
        assert!(f.iter().any(|x| x.message.contains("bogus_series")), "{all:#?}");
        assert!(f[0].message.contains("UPDATE_METRICS=1"), "{all:#?}");
        // No catalog loaded -> rule stays silent.
        let silent = scan_files(&[("metrics_catalog.rs", "sim", &src)], None);
        assert!(of(&silent, "metrics_catalog").is_empty(), "{silent:#?}");
    }

    #[test]
    fn fixture_stale_allow_detected() {
        let all = scan_source("stale_allow.rs", "core", &fixture("stale_allow.rs"));
        let f = of(&all, "stale_allow");
        // The allow suppressing nothing and the allow naming an unknown
        // rule; the load-bearing allow (which suppresses a real VecDeque)
        // is exempt — and the VecDeque itself stays suppressed.
        assert_eq!(f.len(), 2, "{all:#?}");
        assert!(f.iter().any(|x| x.message.contains("suppresses no findings")), "{all:#?}");
        assert!(f.iter().any(|x| x.message.contains("unknown rule")), "{all:#?}");
        assert!(of(&all, "raw_queue").is_empty(), "{all:#?}");
    }

    #[test]
    fn fixture_metric_name_detected() {
        let all = scan_source("metric_name.rs", "sim", &fixture("metric_name.rs"));
        let f = of(&all, "metric_name");
        assert_eq!(f.len(), 5, "{all:#?}");
        assert!(f[0].message.contains("snake_case"), "{all:#?}");
        assert!(f[1].message.contains("already registered"), "{all:#?}");
        // FtFlight stage names go through the same rule via stage_name().
        assert!(f[2].message.contains("Rx-Ingest"), "{all:#?}");
        // FtJournal event names go through it via event_name() /
        // journal_event(); the well-formed literals around the bad one
        // must stay clean.
        assert!(f[3].message.contains("TcbMigrateStart"), "{all:#?}");
        // FtPulse series names go through it via series_name().
        assert!(f[4].message.contains("GoodputBytes"), "{all:#?}");
    }

    #[test]
    fn fixture_bad_manifest_detected() {
        let f = scan_manifest("bad_manifest.toml", &fixture("bad_manifest.toml"));
        assert!(f.iter().all(|x| x.rule == "cargo_deps"), "{f:#?}");
        assert_eq!(f.len(), 2, "{f:#?}");
    }

    #[test]
    fn allow_file_disables_rule() {
        let src = "// f4tlint: allow-file(raw_queue)\nstruct S { q: VecDeque<u32> }\n";
        assert!(scan_source("x.rs", "core", src).is_empty());
    }

    #[test]
    fn lexer_strips_strings_comments_and_lifetimes() {
        let src = r#"
let s = "panic!( inside a string";
// .unwrap() in a comment
/* .expect( in a block comment */
fn f<'a>(x: &'a str) -> char { 'x' }
"#;
        assert!(scan_source("x.rs", "core", src).is_empty());
    }

    #[test]
    fn callgraph_reachability_pinned() {
        // Pin the approximate call graph over a known shape: tick calls
        // pump (self method) and helper::assist (qualified free path);
        // pump calls drain (free); cold is never called.
        let src = "\
struct Node;
impl Node {
    fn tick(&mut self) {
        self.pump();
        helper::assist();
    }
    fn pump(&mut self) {
        drain();
    }
}
fn drain() {}
fn assist() {}
fn cold() {
    drain();
}
";
        let file = SourceFile::new("g.rs", "system", src);
        let files = vec![file];
        let idx = SymbolIndex::build(&files);
        let graph = CallGraph::build(&files, &idx);
        let by_name = |n: &str| {
            *idx.fns_named(n).first().unwrap_or_else(|| panic!("fn {n} not indexed"))
        };
        let (tick, pump, drain, assist, cold) =
            (by_name("tick"), by_name("pump"), by_name("drain"), by_name("assist"), by_name("cold"));
        let pred = graph.reachable_from(&[tick]);
        assert!(pred[tick].is_some() && pred[pump].is_some(), "direct + self-method edges");
        assert!(pred[drain].is_some(), "transitive through pump");
        assert!(pred[assist].is_some(), "lowercase-qualified path resolves to free fn");
        assert!(pred[cold].is_none(), "cold is not reachable from tick");
        let path = graph.path_to_entry(&idx, &pred, drain);
        assert_eq!(path, "drain <- Node::pump <- Node::tick", "{path}");
    }

    #[test]
    fn catalog_parses_table_rows() {
        let md = "# Catalog\n\n| name | kind |\n|---|---|\n| `engine.cycles` | counter |\n| `engine.<i>.drops` | counter |\n";
        assert_eq!(parse_catalog(md), ["engine.cycles", "engine.<i>.drops"]);
    }

    #[test]
    fn workspace_is_clean() {
        // The lint enforces itself: any new violation in the real tree
        // fails `cargo test -p f4t-lint`.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
        let findings = scan_workspace(root);
        assert!(
            findings.is_empty(),
            "f4tlint found {} violation(s):\n{}",
            findings.len(),
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
        );
    }

    #[test]
    fn full_scan_fits_ci_budget() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
        let report = scan_workspace_report(root);
        assert!(report.files_scanned > 20, "walker found the tree: {}", report.files_scanned);
        let total_ms: f64 = report.timings.iter().map(|(_, ms)| ms).sum();
        // CI budget is 10s for the whole binary; the library passes must
        // stay an order of magnitude under that even on debug builds.
        assert!(total_ms < 10_000.0, "lint passes took {total_ms:.0} ms: {:?}", report.timings);
    }
}
