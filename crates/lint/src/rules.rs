//! Pass 5 — the rules.
//!
//! One table-driven pattern pass ([`ROWS`]) holds the per-line rules
//! (`wall_clock`, `raw_queue`, `panic_path`) and the `regrowth` rows;
//! `metric_name` and `nondeterministic_iter` consume the shared lexed
//! files directly; the reachability rules (`panic_reachable`,
//! `float_in_digest`, `shared_mut_across_shards`, `tick_path_scan`) walk
//! the call graph from semantic entry points; `metrics_catalog` cross-checks
//! registration literals against METRICS.md; `stale_allow` runs last
//! over the directive use-tracking the other rules populated.

use crate::callgraph::CallGraph;
use crate::index::{FnId, SymbolIndex};
use crate::lexer::{trailing_ident, word_match, SourceFile};
use crate::parse::ParsedFile;
use crate::{Finding, Workspace};
use std::collections::{HashMap, HashSet};

/// Whether `rule` is in force for a crate directory named `crate_name`
/// (`"core"`, `"sim"`, …; the facade crate and root tests scan as `"f4t"`).
pub fn rule_applies(rule: &str, crate_name: &str) -> bool {
    match rule {
        // bench measures real elapsed time on purpose (simulated-vs-wall
        // throughput); everything else runs on the cycle counter.
        "wall_clock" => crate_name != "bench",
        "raw_queue" => matches!(crate_name, "core" | "mem"),
        // panic_path is the cheap per-line guard over the whole of
        // crates/core; panic_reachable extends it workspace-wide along
        // the call graph (and therefore skips core to avoid doubling).
        "panic_path" => crate_name == "core",
        // Everything `Node::tick` executes: the hardware-model crates and
        // the host model, drivers and node around them.
        "tick_path_scan" => {
            matches!(crate_name, "core" | "mem" | "host" | "system" | "workloads")
        }
        _ => true,
    }
}

/// Panic-family expressions that must not execute on a tick path.
pub const PANIC_PATTERNS: &[&str] =
    &[".unwrap()", ".expect(", "panic!(", "unreachable!(", "todo!(", "unimplemented!("];

/// Iterator-producing methods whose order is the hash order.
const HASH_ITER_METHODS: &[&str] =
    &[".iter()", ".iter_mut()", ".keys()", ".values()", ".values_mut()", ".drain()", ".into_iter()"];

fn finding(file: &SourceFile, line: usize, rule: &'static str, message: String) -> Finding {
    Finding { file: file.label.clone(), line: line + 1, rule, message }
}

/// Emits unless an allow directive covers (rule, line); marks the
/// directive used either way it fires.
fn emit(
    file: &mut SourceFile,
    line: usize,
    rule: &'static str,
    message: String,
    out: &mut Vec<Finding>,
) {
    if !file.directives.check(rule, line) {
        let f = finding(file, line, rule, message);
        out.push(f);
    }
}

// ---------------------------------------------------------------------------
// The pattern pass.
// ---------------------------------------------------------------------------

/// Path prefixes, or `<file>#<item>` for the body of one item of that
/// file ([`ParsedFile::bodies`]).
type Specs = &'static [&'static str];

/// The least and the most matching lines a row allows.
type Count = (usize, usize);

/// One row of the pattern pass: in `scope`, the lines outside `places`
/// that match `pats` number between `count.0` and `count.1`. So a row
/// forbids its patterns (no places, `(0, 0)`), lets them appear only in
/// its places, or bounds how often they appear.
pub struct Row {
    /// The rule its findings carry. A `regrowth` row takes no allow
    /// directive: an exception is one of its `places`.
    pub rule: &'static str,
    /// Where the row looks. An item missing from its file is itself a
    /// `regrowth` finding, so a renamed anchor cannot switch a row off.
    pub scope: Specs,
    /// Where the patterns go unchecked.
    pub places: Specs,
    /// Patterns ([`pat_match`]); a line matches when one does and no
    /// `!`-prefixed one does.
    pub pats: Specs,
    /// Each line past the most is a finding; a shortfall is one, at the
    /// scope's first line.
    pub count: Count,
    /// Whether `#[cfg(test)]` regions count.
    pub tests: bool,
    /// The finding's message; `{pat}` names the matched pattern.
    pub why: &'static str,
}

/// A `regrowth` row allowing `n` matching lines; test regions count.
const fn regrowth(scope: Specs, pats: Specs, places: Specs, n: Count, why: &'static str) -> Row {
    Row { rule: "regrowth", scope, places, pats, count: n, tests: true, why }
}

const NONE: Count = (0, 0);
const ALL: Specs = &[""];
const CODE: Specs = &["crates/", "src/", "tests/", "examples/"];
const NO_EXAMPLES: Specs = &["crates/", "src/", "tests/"];
const CORE: Specs = &["crates/core/src/"];
const PARALLEL: Specs = &["crates/core/src/parallel.rs"];
const FIXTURES: Specs = &["crates/lint/fixtures/"];

/// Every row of the pattern pass. The `regrowth` rows hold the one-X
/// decisions of DESIGN.md (one `Probe`, one wire, one idle routine, one
/// host model, one `Worker`, …) against a second copy growing back.
#[rustfmt::skip]
pub const ROWS: &[Row] = &[
    Row { rule: "wall_clock", scope: ALL, places: &[], pats: &[r"\bInstant\b", r"\bSystemTime\b"],
        count: NONE, tests: true,
        why: "wall-clock time in simulated code; use the cycle counter / now_ns()" },
    Row { rule: "raw_queue", scope: ALL, places: &[], pats: &["VecDeque<"], count: NONE,
        tests: true, why: "unbounded VecDeque models an on-chip queue; use f4t_sim::Fifo \
        or justify with // f4tlint: allow(raw_queue): <why bounded>" },
    Row { rule: "panic_path", scope: ALL, places: &[], pats: PANIC_PATTERNS, count: NONE,
        tests: false, why: "`{pat}` is reachable from Engine::tick; return/skip instead (or \
        debug_assert! for dispatch-gate contracts)" },
    // §8.2, §10.2: recorders reach the data path through one Probe; stamps ride in the queue.
    regrowth(CORE, &["Option<&mut InvariantChecker>", "Option<&mut FlightRecorder>",
        "Option<&mut Journal>"], &[], (0, 4),
        "`{pat}`: at most 4 recorder options in crates/core/src (Scheduler signatures FtBench \
        binds); pass the Probe handle, DESIGN.md §8.2"),
    regrowth(CORE, &["_stamps", "enable_flight", "tick_checked", "tick_flight"], &[], NONE,
        "`{pat}`: a stamp mirror or per-recorder tick is back; use tick_probed, DESIGN.md §10.2"),
    // §7: one JSON codec (f4t-lint's json_escape keeps its crate free of dependencies).
    regrowth(NO_EXAMPLES, &[r"fn json_str\b", r"fn json_string\b", r"fn json_f64\b",
        r"fn scan_string\b", r"fn balanced\b", r"fn find_key\b", r"fn top_level_fields\b",
        r"fn parse_json_string\b", r"fn parse_string_array\b", "mod flatjson"], &[], NONE,
        "`{pat}`: a hand-rolled JSON escaper or reader is back; use f4t_sim::json, DESIGN.md §7"),
    // §14.1: one wire. The named tests keep their own segment schedules.
    regrowth(CODE, &["BytePacer::for_link"], &["crates/system/src/link.rs"], NONE,
        "`{pat}`: a hand-rolled link pacer is back; use DuplexLink, DESIGN.md §14.1"),
    regrowth(CODE, &["DropPolicy", "struct Ferry"], &[], NONE,
        "`{pat}`: a second loss model is back; use Impairments on DuplexLink, DESIGN.md §14.1"),
    regrowth(&["tests/", "examples/", "crates/bench/src/"], &[".pop_tx()"], &["tests/end_to_end.rs",
        "tests/failure_injection.rs", "tests/wire_interop.rs", "tests/engine_props.rs",
        "tests/journal_forensics.rs"], NONE,
        "`{pat}`: a hand-rolled engine-pair loop is back; step an EnginePair, DESIGN.md §14.1"),
    // §7: one instrument substrate. Recorders derive their own deltas.
    regrowth(NO_EXAMPLES, &["TraceCounters", "trace_prev", "PulseCounters", "pulse_prev",
        "DualPortRam", "fold_shard_digests"], &[], NONE, "`{pat}`: a shadow counter, a second port \
        model or a second digest fold is back; recorders derive their deltas, DESIGN.md §7"),
    regrowth(NO_EXAMPLES, &["cbf2_9ce4"], &["crates/sim/src/digest.rs",
        "crates/lint/fixtures/float_digest.rs"], NONE,
        "`{pat}`: a hand-written FNV-1a is back; use f4t_sim::digest, DESIGN.md §7"),
    regrowth(&["crates/"], &[r"struct Ring\b"], &["crates/sim/src/ring.rs"], NONE,
        "`{pat}`: a second ring type is back; use f4t_sim::Ring, DESIGN.md §7"),
    // §7: one event stream. Engine::tick computes nothing for the trace.
    regrowth(CORE, &[r"trace.record\b", "TraceKind"], &[], NONE, "`{pat}`: a second trace emission \
        is back; emit once through probe.event, DESIGN.md §7"),
    regrowth(&["crates/core/src/engine.rs#Engine::tick"], &["scheduler.stats()", "trace.enabled",
        "for seg in", "segs.iter()"], &[], NONE, "`{pat}` in Engine::tick: a second trace emission \
        is back; emit once through probe.event, DESIGN.md §7"),
    // §3.1: one event handler, one segment builder.
    regrowth(&["crates/core/src/memory_manager.rs"], &["fn accumulate"], &[], NONE,
        "`{pat}`: a second event merge; call EventView::accumulate, DESIGN.md §3.1"),
    regrowth(CORE, &["dup_ack_gen.saturating_add"], &[], (1, 1),
        "want one event-table merge in crates/core/src, EventView::accumulate, DESIGN.md §3.1"),
    regrowth(&["crates/core/src/fpu.rs"], &["TxRequest {"], &[], (2, 2), "want 2 `TxRequest {` in \
        crates/core/src/fpu.rs: fpu::segment's signature and literal, DESIGN.md §3.1"),
    // §12.1: the memory manager holds each DRAM-side TCB once, in its flow's row.
    Row { rule: "regrowth", scope: &["crates/mem/src/tcb_cache.rs"], places: &[],
        pats: &[r"\bTcb\b"], count: NONE, tests: false, why: "`{pat}` in the TCB cache: a second \
        copy of a DRAM-side TCB is back; a line is a tag and a dirty bit, DESIGN.md §12.1" },
    regrowth(&["crates/core/src/memory_manager.rs"], &["SlabQueue<(Tcb", "FlowSlab<(Tcb"], &[],
        NONE, "`{pat}`: a second copy of a DRAM-side TCB is back; stage it in its flow's row and \
        queue the flow id, DESIGN.md §12.1"),
    // §9.1: one idle routine.
    regrowth(&["crates/core/src/fpc.rs"], &["stall_fifo_empty +="], &[], (2, 2), "want 2 \
        `stall_fifo_empty +=` in fpc.rs: dispatch's bubble and Fpc::skip_cycles, DESIGN.md §9.1"),
    regrowth(&["crates/core/src/engine.rs"], &["skip_cycles(", "skip_idle_cycles("],
        &["crates/core/src/engine.rs#Engine::skip_idle"], NONE,
        "`{pat}` outside Engine::skip_idle: a second idle catch-up is back, DESIGN.md §9.1"),
    regrowth(&["crates/core/src/engine.rs#Engine::skip_idle"], &["skip_cycles(",
        "skip_idle_cycles("], &[], (1, usize::MAX),
        "want at least one module replay in Engine::skip_idle, DESIGN.md §9.1"),
    // §12.1: one host application model.
    regrowth(CODE, &[r"\bHttpClient\b", r"\bHttpServer\b", r"\bRoundRobinSender\b"], &[], NONE,
        "`{pat}`: a per-workload host application is back; echo and HTTP are \
        RequestClient/RequestServer, round-robin is BulkSender, DESIGN.md §12.1"),
    regrowth(&["crates/system/src/node.rs"], &["next: usize"], &[], (0, 1), "`{pat}`: one in \
        node.rs (Rotation's); a driver keeps its own rotation again, DESIGN.md §12.1"),
    regrowth(CODE, &[r"\bSlowlorisClient\b", r"\bChurnServer\b"], &[], NONE,
        "`{pat}`: a per-scenario FtStorm driver is back; slowloris is a paced BulkSender, the \
        churn server a SinkServer, DESIGN.md §12.1"),
    regrowth(&["crates/system/src/node.rs#enum Driver"], &[r"^    \w"], &[], (1, 8),
        "want 1 to 8 Driver variants: a new workload is a new set of parameters, DESIGN.md §12.1"),
    regrowth(&["crates/system/src/node.rs#impl Node"], &[r"Driver::\w", r"!Driver::Idle\b"], &[],
        NONE, "impl Node names a driver variant; add one match in impl Driver, DESIGN.md §12.1"),
    // §6: the host model holds only what the simulation runs.
    regrowth(CODE, &[r"\bRuntime\b", r"\bQueuePair\b", r"\bIova\b", r"\bDoorbell\b",
        r"\bCommandQueue\b", r"\bDecodeError\b", r"\bencode16\b", r"\bdecode16\b", r"\bencode8\b",
        r"\bdecode8\b"], &[], NONE, "`{pat}`: unread host bookkeeping is back; a command is its \
        enum value plus F4tLib::entry_bytes, DESIGN.md §6"),
    // §12.4: one thread substrate, the Worker in parallel.rs, and no unsafe.
    regrowth(CODE, &["thread::spawn", "thread::scope", "Builder::new"], PARALLEL, NONE,
        "`{pat}` outside parallel.rs: use ParallelRunner or Worker, DESIGN.md §12.4"),
    regrowth(CODE, &[r"\bunsafe\s*{", r"\bunsafe\s*fn\b", r"\bunsafe\s*impl\b",
        r"\bunsafe\s*trait\b", r"\bunsafe\s*extern\b"], FIXTURES, NONE,
        "unsafe code in the workspace; move values between threads instead, DESIGN.md §12.4"),
    regrowth(CODE, &["Barrier", "thread::scope", "sync::atomic"], FIXTURES, NONE,
        "`{pat}`: a second thread mechanism; hand jobs to a Worker by value, DESIGN.md §12.4"),
    regrowth(CODE, &["available_parallelism"], PARALLEL, NONE,
        "`{pat}` outside parallel.rs: a Worker picks its own form, DESIGN.md §12.4"),
];

/// The longest literal piece of `pat`: a cheap filter before
/// [`pat_match`], and the name a finding gives the pattern.
fn needle(pat: &str) -> &str {
    // Every piece after the first starts with a token's letter (`b`, `w`, `s*`).
    let pieces = pat.trim_start_matches(['!', '^']).split('\\').enumerate();
    let lits = pieces.map(|(k, s)| if k == 0 { s } else { s.get(1..).unwrap_or("") });
    lits.map(|s| s.trim_start_matches('*')).max_by_key(|s| s.len()).unwrap_or("")
}

/// Whether `pat` matches in `line`: literal text plus a leading `^` (line
/// start), `\b` (word boundary), `\w` (one identifier character) and
/// `\s*` (a run of whitespace).
pub fn pat_match(line: &str, pat: &str) -> bool {
    let (anchored, pat) = pat.strip_prefix('^').map_or((false, pat), |p| (true, p));
    let (l, p) = (line.as_bytes(), pat.as_bytes());
    let word = |i: usize| l.get(i).is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_');
    let at = |mut i: usize| {
        let mut j = 0;
        while j < p.len() {
            match (p[j], p.get(j + 1)) {
                (b'\\', Some(b'b')) if (i > 0 && word(i - 1)) != word(i) => j += 2,
                (b'\\', Some(b'w')) if word(i) => (i, j) = (i + 1, j + 2),
                (b'\\', Some(b's')) => {
                    i += l[i..].iter().take_while(|c| c.is_ascii_whitespace()).count();
                    j += 3;
                }
                (c, _) if c != b'\\' && l.get(i) == Some(&c) => (i, j) = (i + 1, j + 1),
                _ => return false,
            }
        }
        true
    };
    (0..=if anchored { 0 } else { l.len() }).any(at)
}

/// The needle of the first of `pats` (each paired with its needle) that
/// matches `line`, unless a `!`-prefixed one matches too.
fn line_match(line: &str, pats: &[(&str, &'static str)]) -> Option<&'static str> {
    let hit = |&(p, n): &(&str, &str)| line.contains(n) && pat_match(line, p);
    let &(_, needle) = pats.iter().find(|p| !p.0.starts_with('!') && hit(p))?;
    let vetoed = pats.iter().any(|&(p, n)| p.strip_prefix('!').is_some_and(|p| hit(&(p, n))));
    (!vetoed).then_some(needle)
}

/// Which lines of `file` (parsed into `p`) the `specs` cover; `Err` is
/// the finding for an item of this file that a spec names and `p` lacks.
fn cover(specs: Specs, file: &SourceFile, p: Option<&ParsedFile>) -> Result<Vec<bool>, Finding> {
    let mut lines = vec![false; file.code.len()];
    for spec in specs {
        match spec.split_once('#') {
            None if file.label.starts_with(spec) => lines.fill(true),
            Some((path, item)) if file.label == path => {
                let bodies = p.map(|p| p.bodies(item)).unwrap_or_default();
                if bodies.is_empty() {
                    let message = format!("anchor `{item}` not found: update the rows naming it");
                    return Err(finding(file, 0, "regrowth", message));
                }
                bodies.into_iter().for_each(|(a, b)| lines[a..=b].fill(true));
            }
            _ => {}
        }
    }
    Ok(lines)
}

/// The pattern pass: every row of [`ROWS`] over the lexed files and, for
/// `regrowth` rows, the lint fixtures. A row whose scope holds none of
/// the scanned files checks nothing (a fixture scan sees one file).
pub fn patterns(ws: &mut Workspace, idx: &SymbolIndex, out: &mut Vec<Finding>) {
    for row in ROWS {
        let regrowth = row.rule == "regrowth";
        let pats: Vec<_> = row.pats.iter().map(|&p| (p, needle(p))).collect();
        // Matching lines so far, and where a shortfall is reported.
        let (mut hits, mut first) = (0, None);
        let fixtures = ws.fixtures.iter_mut().filter(|_| regrowth);
        let files = ws.files.iter_mut().chain(fixtures).enumerate();
        for (fi, file) in files.filter(|(_, f)| rule_applies(row.rule, &f.crate_name)) {
            let parsed = idx.parsed.get(fi);
            let covered = (cover(row.scope, file, parsed), cover(row.places, file, parsed));
            let (scope, places) = match covered {
                (Ok(scope), Ok(places)) => (scope, places),
                (Err(f), _) | (_, Err(f)) => {
                    if !out.contains(&f) {
                        out.push(f);
                    }
                    continue;
                }
            };
            for i in (0..scope.len()).filter(|&i| scope[i] && !places[i]) {
                first.get_or_insert_with(|| finding(file, i, row.rule, row.why.into()));
                let counted = row.tests || !file.tests[i];
                let Some(pat) = line_match(&file.code[i], &pats).filter(|_| counted) else {
                    continue;
                };
                hits += 1;
                if hits > row.count.1 && (regrowth || !file.directives.check(row.rule, i)) {
                    let message = row.why.replace("{pat}", pat.trim_start_matches('.'));
                    out.push(finding(file, i, row.rule, message));
                }
            }
        }
        out.extend(first.filter(|_| hits < row.count.0));
    }
}

/// Identifiers this file declares with a `HashMap`/`HashSet` type or
/// constructor: `name: HashMap<..>` fields/params and
/// `let [mut] name = HashMap::new()`-style bindings.
fn hash_container_idents(code: &[String]) -> HashSet<String> {
    let mut names = HashSet::new();
    for line in code {
        for pat in ["HashMap<", "HashSet<", "HashMap::", "HashSet::"] {
            let mut start = 0;
            while let Some(pos) = line[start..].find(pat) {
                let at = start + pos;
                let before = line[..at].trim_end();
                let binding =
                    before.strip_suffix(':').or_else(|| before.strip_suffix('=')).map(str::trim_end);
                if let Some(b) = binding {
                    let ident = trailing_ident(b);
                    if !ident.is_empty() && !ident.starts_with(|c: char| c.is_ascii_digit()) {
                        names.insert(ident);
                    }
                }
                start = at + pat.len();
            }
        }
    }
    names
}

/// How a loop expression was matched to an unordered container.
enum IterSource {
    /// A binding/field declared in the same file.
    Local,
    /// A struct field resolved through the workspace index.
    Field { owner: String, decl_file: String, decl_line: usize },
}

/// Whether the loop expression after `for … in` iterates an unordered
/// container. `locals` are this file's hash-typed idents; `self_fields`
/// maps field names of the enclosing impl type (resolved workspace-wide)
/// to their declaration site.
fn unordered_iter_source(
    expr: &str,
    locals: &HashSet<String>,
    self_fields: &HashMap<String, (String, String, usize)>,
) -> Option<IterSource> {
    let classify = |before: &str, ident: &str| -> Option<IterSource> {
        if locals.contains(ident) {
            return Some(IterSource::Local);
        }
        if before.ends_with("self.") {
            if let Some((owner, decl_file, decl_line)) = self_fields.get(ident) {
                return Some(IterSource::Field {
                    owner: owner.clone(),
                    decl_file: decl_file.clone(),
                    decl_line: *decl_line,
                });
            }
        }
        None
    };
    for method in HASH_ITER_METHODS {
        let mut start = 0;
        while let Some(pos) = expr[start..].find(method) {
            let at = start + pos;
            let ident = trailing_ident(&expr[..at]);
            if !ident.is_empty() {
                let before = &expr[..at - ident.len()];
                if let Some(src) = classify(before, &ident) {
                    return Some(src);
                }
            }
            start = at + method.len();
        }
    }
    let t = expr.trim_start();
    if let Some(r) = t.strip_prefix('&') {
        let r = r.trim_start();
        let r = r.strip_prefix("mut ").unwrap_or(r).trim_start();
        let (before, r) = match r.strip_prefix("self.") {
            Some(rest) => ("self.", rest),
            None => ("", r),
        };
        let ident: String = r.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        let rest = r[ident.len()..].trim_start();
        if rest.is_empty() || rest.starts_with('{') {
            return classify(before, &ident);
        }
    }
    None
}

/// `nondeterministic_iter`: no for-loops over unordered-container
/// iteration anywhere in the workspace. Declared types flow from struct
/// fields (workspace index) and same-file bindings to their use sites.
pub fn nondeterministic_iter(ws: &mut Workspace, idx: &SymbolIndex, out: &mut Vec<Finding>) {
    // (field name → (owner, decl file, decl line)) per (crate, impl type).
    for fi in 0..ws.files.len() {
        if ws.files[fi].test_file {
            continue;
        }
        let locals = hash_container_idents(&ws.files[fi].code);
        for i in 0..ws.files[fi].code.len() {
            if ws.files[fi].tests[i] || !word_match(&ws.files[fi].code[i], "for") {
                continue;
            }
            // Line-based: the loop expression is everything after the
            // last ` in ` on the `for` line (good enough for rustfmt'd
            // single-line headers; multi-line headers are rare).
            let Some(pos) = ws.files[fi].code[i].rfind(" in ") else { continue };
            // Fields of the enclosing impl type, resolved cross-file
            // within the same crate.
            let impl_type = idx
                .enclosing_fn(fi, i)
                .and_then(|f| idx.fns[f].impl_type.clone());
            let mut self_fields: HashMap<String, (String, String, usize)> = HashMap::new();
            if let Some(ty) = &impl_type {
                for uf in &idx.unordered_fields {
                    if uf.owner == *ty && uf.crate_name == ws.files[fi].crate_name {
                        self_fields.insert(
                            uf.name.clone(),
                            (uf.owner.clone(), ws.files[uf.file].label.clone(), uf.line + 1),
                        );
                    }
                }
            }
            let expr = ws.files[fi].code[i][pos + 4..].to_string();
            if let Some(src) = unordered_iter_source(&expr, &locals, &self_fields) {
                let message = match src {
                    IterSource::Local => "for-loop over HashMap/HashSet iteration order is \
                                          nondeterministic and breaks the golden-digest \
                                          contract; iterate a FlowSlab/FlowSet or \
                                          collect-and-sort (or justify with // f4tlint: \
                                          allow(nondeterministic_iter): <why order-insensitive>)"
                        .to_string(),
                    IterSource::Field { owner, decl_file, decl_line } => format!(
                        "for-loop over `{owner}` field declared HashMap/HashSet at \
                         {decl_file}:{decl_line}; hash order is nondeterministic and breaks \
                         the golden-digest contract — iterate a FlowSlab/FlowSet or \
                         collect-and-sort"
                    ),
                };
                emit(&mut ws.files[fi], i, "nondeterministic_iter", message, out);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Call-graph reachability rules.
// ---------------------------------------------------------------------------

/// Whether the body of `f` mentions `word` (stripped code).
fn body_mentions(files: &[SourceFile], idx: &SymbolIndex, f: FnId, word: &str) -> bool {
    let r = &idx.fns[f];
    let Some((start, end)) = r.body else { return false };
    files[r.file].code[start..=end].iter().any(|l| word_match(l, word))
}

/// The two names a module's per-cycle entry goes by: the plain `tick`
/// wrapper and the `tick_probed` it forwards to (DESIGN.md §8.2).
fn is_tick_entry(name: &str) -> bool {
    matches!(name, "tick" | "tick_probed")
}

/// Where code starts running on FtTurbo's thread substrate (DESIGN.md
/// §12.4), for `panic_reachable` and `shared_mut_across_shards`: every
/// function in `parallel.rs`, every host of a `run_rounds` call, and
/// every step handed to a `Worker` constructor — the function named as
/// its argument, or the hosting function when the argument is a closure.
fn thread_entries(files: &[SourceFile], idx: &SymbolIndex) -> Vec<FnId> {
    const CALL: &str = "Worker::";
    let mut names = Vec::new();
    let mut entries = Vec::new();
    for (id, f) in idx.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        if files[f.file].label.ends_with("parallel.rs") {
            entries.push(id);
            continue;
        }
        if body_mentions(files, idx, id, "run_rounds") {
            entries.push(id);
        }
        let Some((start, end)) = f.body else { continue };
        for line in &files[f.file].code[start..=end] {
            for (pos, _) in line.match_indices(CALL) {
                // `Worker::<constructor>(<step>`.
                let call = &line[pos + CALL.len()..];
                let Some(open) = call.find('(') else { continue };
                if !call[..open].chars().all(|c| c.is_alphanumeric() || c == '_') {
                    continue;
                }
                let arg = call[open + 1..].trim_start();
                let path: String = arg
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == ':')
                    .collect();
                match path.trim_end_matches(':').rsplit("::").next() {
                    Some("move") => entries.push(id),
                    Some(name) if !name.is_empty() => names.push(name.to_string()),
                    _ if arg.starts_with('|') => entries.push(id),
                    _ => {}
                }
            }
        }
    }
    for (id, f) in idx.fns.iter().enumerate() {
        if !f.is_test && names.contains(&f.name) {
            entries.push(id);
        }
    }
    entries
}

/// `panic_reachable`: no panic-family expression in any function
/// reachable from a tick entry or a thread entry, workspace-wide.
pub fn panic_reachable(
    ws: &mut Workspace,
    idx: &SymbolIndex,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    let mut entries = thread_entries(&ws.files, idx);
    entries.extend(idx.fns.iter().enumerate().filter_map(|(id, f)| {
        (!f.is_test && is_tick_entry(&f.name)).then_some(id)
    }));
    let pred = graph.reachable_from(&entries);
    for (id, f) in idx.fns.iter().enumerate() {
        if pred[id].is_none() || f.is_test {
            continue;
        }
        // crates/core is already guarded line-by-line by panic_path.
        if ws.files[f.file].crate_name == "core" {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let path = graph.path_to_entry(idx, &pred, id);
        for i in start..=end.min(ws.files[f.file].code.len() - 1) {
            if ws.files[f.file].tests[i] {
                continue;
            }
            for pat in PANIC_PATTERNS {
                if ws.files[f.file].code[i].contains(pat) {
                    let fi = f.file;
                    emit(
                        &mut ws.files[fi],
                        i,
                        "panic_reachable",
                        format!(
                            "`{}` on a tick- or thread-reachable path ({path}); a model \
                             that panics mid-tick cannot report what went wrong — return/skip \
                             instead",
                            pat.trim_start_matches('.')
                        ),
                        out,
                    );
                    break;
                }
            }
        }
    }
}

/// Whether a stripped code line performs f32/f64 work: the type names
/// as words, or a float literal (`1.5`, `2.0e9` — not tuple indexing,
/// not ranges).
fn has_float_use(code: &str) -> bool {
    if word_match(code, "f32") || word_match(code, "f64") {
        return true;
    }
    let b = code.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if c != b'.' {
            continue;
        }
        // digits on both sides of the dot …
        if i == 0 || !b[i - 1].is_ascii_digit() || !b.get(i + 1).is_some_and(u8::is_ascii_digit) {
            continue;
        }
        // … and the integer part is a standalone number, not `x.0.1`
        // tuple chains or an identifier tail like `base64`.
        let mut j = i - 1;
        while j > 0 && (b[j - 1].is_ascii_digit() || b[j - 1] == b'_') {
            j -= 1;
        }
        let before = if j == 0 { None } else { Some(b[j - 1]) };
        let ident_before =
            before.is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.');
        if !ident_before {
            return true;
        }
    }
    false
}

/// `float_in_digest`: no f32/f64 arithmetic reachable from digest or
/// artifact-merge entry points (`fold_digests`, FNV helpers, `merge`,
/// `*digest*`). Float rounding is order-sensitive; anything feeding the
/// byte-identical merge contract must stay in integers.
pub fn float_in_digest(
    ws: &mut Workspace,
    idx: &SymbolIndex,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    let mut entries = Vec::new();
    for (id, f) in idx.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        if f.name == "fold_digests"
            || f.name == "merge"
            || f.name.contains("digest")
            || f.name.contains("fnv")
        {
            entries.push(id);
        }
    }
    let pred = graph.reachable_from(&entries);
    for (id, f) in idx.fns.iter().enumerate() {
        if pred[id].is_none() || f.is_test {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let path = graph.path_to_entry(idx, &pred, id);
        for i in start..=end.min(ws.files[f.file].code.len() - 1) {
            if ws.files[f.file].tests[i] {
                continue;
            }
            if has_float_use(&ws.files[f.file].code[i]) {
                let fi = f.file;
                emit(
                    &mut ws.files[fi],
                    i,
                    "float_in_digest",
                    format!(
                        "f32/f64 on a digest/merge path ({path}); float rounding is \
                         order-sensitive and breaks the byte-identical merge contract — \
                         keep digests and merged artifacts in integers"
                    ),
                    out,
                );
            }
        }
    }
}

/// Shared-mutable-state patterns hunted inside worker-reachable code.
const SHARED_MUT_PATTERNS: &[(&str, &str)] = &[
    ("static mut ", "a `static mut` is unsynchronized shared state across shard workers"),
    ("thread_local!", "thread-locals diverge between pool sizes (shard-to-thread mapping varies)"),
    ("Rc<", "`Rc` is not Sync; a clone smuggled across a hand-off is a data race"),
    ("RefCell<", "`RefCell` has non-Sync interior mutability; workers sharing one race"),
    ("UnsafeCell<", "raw interior mutability shared across workers is unchecked"),
];

/// `shared_mut_across_shards`: statics, `Rc`, non-`Sync` interior
/// mutability or `unsafe` referenced from a thread entry or anything it
/// reaches. The determinism contract (pool-size invariance,
/// byte-identical digests) holds only if shards never share mutable
/// state between round hand-offs, and a node window only if its two
/// sides share none until the window closes.
pub fn shared_mut_across_shards(
    ws: &mut Workspace,
    idx: &SymbolIndex,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    let entries = thread_entries(&ws.files, idx);
    let pred = graph.reachable_from(&entries);

    // (a) module-level statics in any file holding worker-reachable code.
    let mut reached_files: Vec<bool> = vec![false; ws.files.len()];
    for (id, f) in idx.fns.iter().enumerate() {
        if pred[id].is_some() && !f.is_test {
            reached_files[f.file] = true;
        }
    }
    for (fi, reached) in reached_files.iter().enumerate() {
        if !reached {
            continue;
        }
        let statics: Vec<(usize, String)> =
            idx.parsed[fi].statics.iter().map(|s| (s.line, s.decl.clone())).collect();
        for (line, decl) in statics {
            if ws.files[fi].tests.get(line).copied().unwrap_or(false) {
                continue;
            }
            emit(
                &mut ws.files[fi],
                line,
                "shared_mut_across_shards",
                format!(
                    "module-level `{decl}` is visible to shard workers; cross-shard state \
                     must move with the jobs a Worker hands off, not through globals"
                ),
                out,
            );
        }
    }

    // (b) non-Sync/unsafe patterns inside worker-reachable bodies.
    for (id, f) in idx.fns.iter().enumerate() {
        if pred[id].is_none() || f.is_test {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let path = graph.path_to_entry(idx, &pred, id);
        for i in start..=end.min(ws.files[f.file].code.len() - 1) {
            if ws.files[f.file].tests[i] {
                continue;
            }
            let code = ws.files[f.file].code[i].clone();
            let hit = SHARED_MUT_PATTERNS
                .iter()
                .find(|(pat, _)| code.contains(pat))
                .map(|&(pat, why)| (pat, why))
                .or_else(|| {
                    word_match(&code, "unsafe")
                        .then_some(("unsafe", "unsafe code on a worker path is unaudited by the determinism contract"))
                });
            if let Some((pat, why)) = hit {
                let fi = f.file;
                emit(
                    &mut ws.files[fi],
                    i,
                    "shared_mut_across_shards",
                    format!("`{}` on a shard-worker path ({path}): {why}", pat.trim_end()),
                    out,
                );
            }
        }
    }
}

/// Linear-search expressions that walk a whole table to answer one
/// question.
const SCAN_PATTERNS: &[&str] = &[".iter().position(", ".iter().find(", ".contains(&", "min_by_key("];

/// `tick_path_scan`: no linear table scan and no hashed-container field
/// access in `crates/{core,mem,host,system,workloads}` functions the call
/// graph reaches from a `tick`/`tick_probed` entry. The modelled hardware answers these in
/// one cycle (comparator arrays, priority encoders); the simulator must
/// answer them from an index, or the host cost of a tick follows the
/// table size instead of the work done (DESIGN.md §12.1).
pub fn tick_path_scan(
    ws: &mut Workspace,
    idx: &SymbolIndex,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    let in_scope = |files: &[SourceFile], f: FnId| {
        !idx.fns[f].is_test && rule_applies("tick_path_scan", &files[idx.fns[f].file].crate_name)
    };
    let entries: Vec<FnId> = (0..idx.fns.len())
        .filter(|&id| in_scope(&ws.files, id) && is_tick_entry(&idx.fns[id].name))
        .collect();
    let pred = graph.reachable_from(&entries);
    for (id, f) in idx.fns.iter().enumerate() {
        if pred[id].is_none() || !in_scope(&ws.files, id) {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let fi = f.file;
        // `self.<field>` spellings of the enclosing type's hashed fields.
        let hashed: Vec<String> = idx
            .unordered_fields
            .iter()
            .filter(|uf| {
                Some(&uf.owner) == f.impl_type.as_ref() && uf.crate_name == ws.files[fi].crate_name
            })
            .map(|uf| format!("self.{}", uf.name))
            .collect();
        let path = graph.path_to_entry(idx, &pred, id);
        for i in start..=end.min(ws.files[fi].code.len() - 1) {
            if ws.files[fi].tests[i] {
                continue;
            }
            let code = &ws.files[fi].code[i];
            let what = SCAN_PATTERNS
                .iter()
                .find(|pat| code.contains(*pat))
                .map(|pat| format!("linear scan `{}…)`", pat.trim_start_matches('.')))
                .or_else(|| {
                    hashed
                        .iter()
                        .find(|field| word_match(code, field))
                        .map(|field| format!("hashed container `{field}`"))
                });
            if let Some(what) = what {
                emit(
                    &mut ws.files[fi],
                    i,
                    "tick_path_scan",
                    format!(
                        "{what} on a tick-reachable path ({path}); the modelled hardware \
                         answers in one cycle, so answer from a dense index / bitset, or \
                         justify with // f4tlint: allow(tick_path_scan): <why bounded>"
                    ),
                    out,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Metric-name rules.
// ---------------------------------------------------------------------------

/// Removes `{...}` format placeholders from a metric-name literal.
pub fn strip_placeholders(lit: &str) -> String {
    let mut out = String::new();
    let mut depth = 0u32;
    for c in lit.chars() {
        match c {
            '{' => depth += 1,
            '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// Replaces `{...}` placeholders with `*` wildcards (for catalog
/// matching).
fn placeholder_glob(lit: &str) -> String {
    let mut out = String::new();
    let mut depth = 0u32;
    for c in lit.chars() {
        match c {
            '{' => {
                if depth == 0 {
                    out.push('*');
                }
                depth += 1;
            }
            '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// `metric_name`: FtScope/FtFlight/FtJournal names are dotted
/// snake_case and unique per file.
pub fn metric_name(ws: &mut Workspace, idx: &SymbolIndex, out: &mut Vec<Finding>) {
    let mut seen: HashMap<(usize, String), usize> = HashMap::new();
    for m in &idx.metrics {
        let fi = m.file;
        let name = strip_placeholders(&m.literal);
        if name.is_empty() {
            continue; // fully dynamic name
        }
        if !name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
        {
            emit(
                &mut ws.files[fi],
                m.line,
                "metric_name",
                format!("metric name {:?} is not dotted snake_case ([a-z0-9_.])", m.literal),
                out,
            );
        }
        if let Some(first) = seen.insert((fi, format!("{}{}", m.method, m.literal)), m.line + 1) {
            emit(
                &mut ws.files[fi],
                m.line,
                "metric_name",
                format!(
                    "metric {:?} already registered at line {first}; duplicate registration \
                     under one prefix silently overwrites",
                    m.literal
                ),
                out,
            );
        }
    }
}

/// Glob match where `pat` may contain `*` (matching any run, dots
/// included) and `name` is literal.
fn glob_match(pat: &str, name: &str) -> bool {
    let parts: Vec<&str> = pat.split('*').collect();
    if parts.len() == 1 {
        return pat == name;
    }
    let mut rest = name;
    if !rest.starts_with(parts[0]) {
        return false;
    }
    rest = &rest[parts[0].len()..];
    let last = parts[parts.len() - 1];
    if rest.len() < last.len() || !rest.ends_with(last) {
        return false;
    }
    rest = &rest[..rest.len() - last.len()];
    for mid in &parts[1..parts.len() - 1] {
        if mid.is_empty() {
            continue;
        }
        match rest.find(mid) {
            Some(p) => rest = &rest[p + mid.len()..],
            None => return false,
        }
    }
    true
}

/// `metrics_catalog`: every registration literal must match an entry of
/// METRICS.md (instance indices there appear as `<i>`; placeholders in
/// code match any run). Stage and event names check their catalog
/// families (`engine.flight.<stage>.cycles`, `engine.journal.kind.<kind>`).
pub fn metrics_catalog(ws: &mut Workspace, idx: &SymbolIndex, out: &mut Vec<Finding>) {
    let Some(catalog) = ws.catalog.clone() else { return };
    for m in &idx.metrics {
        let fi = m.file;
        if ws.files[fi].test_file {
            continue;
        }
        let full = match m.method {
            "stage_name(" => format!("engine.flight.{}.cycles", m.literal),
            "event_name(" | "journal_event(" => format!("engine.journal.kind.{}", m.literal),
            "series_name(" => format!("engine.pulse.last.{}", m.literal),
            _ => m.literal.clone(),
        };
        let pat = placeholder_glob(&full);
        // A fully dynamic name carries nothing to check.
        if !pat.chars().any(|c| c.is_ascii_alphanumeric()) {
            continue;
        }
        // Malformed names are metric_name's findings, not ours.
        let static_part = strip_placeholders(&full);
        if !static_part
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
        {
            continue;
        }
        if !catalog.iter().any(|entry| glob_match(&pat, entry)) {
            emit(
                &mut ws.files[fi],
                m.line,
                "metrics_catalog",
                format!(
                    "metric {:?} (family `{pat}`) is not in METRICS.md; regenerate the \
                     catalog with UPDATE_METRICS=1 cargo test --test metrics_catalog, or fix \
                     the name",
                    m.literal
                ),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Manifest + staleness rules.
// ---------------------------------------------------------------------------

/// `cargo_deps`: every dependency entry is `path =`/`workspace = true`.
pub fn cargo_deps(ws: &Workspace, out: &mut Vec<Finding>) {
    for (label, src) in &ws.manifests {
        out.extend(crate::scan_manifest(label, src));
    }
}

/// `stale_allow`: an allow directive that suppressed nothing is dead
/// weight — it either outlived the violation it excused or names a rule
/// that never fires there. Delete it or fix the rule name.
pub fn stale_allow(ws: &mut Workspace, out: &mut Vec<Finding>) {
    let known: Vec<&str> = crate::RULES.iter().map(|(name, _)| *name).collect();
    for file in &mut ws.files {
        let mut findings = Vec::new();
        for (i, d) in file.directives.list.iter().enumerate() {
            if file.directives.used[i] {
                continue;
            }
            let kind = if d.file_level { "allow-file" } else { "allow" };
            let message = if known.contains(&d.rule.as_str()) {
                format!(
                    "`{kind}({})` suppresses no findings; the violation it excused is gone — \
                     delete the directive",
                    d.rule
                )
            } else {
                format!(
                    "`{kind}({})` names an unknown rule (known: {}); it can never suppress \
                     anything",
                    d.rule,
                    known.join(", ")
                )
            };
            findings.push(finding(file, d.line, "stale_allow", message));
        }
        out.extend(findings);
    }
}
