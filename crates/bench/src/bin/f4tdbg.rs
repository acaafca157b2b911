//! `f4tdbg` — post-mortem reader for FtJournal black-box dumps.
//!
//! `f4tperf --dump-on-failure` (and any harness calling
//! `Engine::blackbox_json`) writes a self-contained JSON dump on
//! failure: the journal tail, watchdog alarms, FtVerify violations,
//! implicated TCBs, the engine config and the FtFlight breakdown.
//! This tool pretty-prints, filters, diffs and digest-checks those
//! dumps:
//!
//! ```sh
//! f4tdbg print dump.json --flow 7 --module scheduler --cycles 100..5000
//! f4tdbg digest dump.json        # recompute + compare the FNV digest
//! f4tdbg diff a.json b.json      # first divergence between two dumps
//! ```

use f4t_sim::digest::{fnv1a, FNV_OFFSET};
use f4t_sim::json::{self, Value};

/// Exit codes: `0` success / digests match / dumps identical, `1`
/// digest mismatch or dumps differ, `2` usage or I/O error.
const EXIT_DIFFERS: i32 = 1;
const EXIT_USAGE: i32 = 2;

const HELP: &str = "\
f4tdbg — read FtJournal black-box dumps (written by f4tperf --dump-on-failure)

USAGE:
  f4tdbg print <DUMP.json> [FILTERS]   pretty-print header, alarms, violations
                                       and the journal tail
  f4tdbg digest <DUMP.json>            recompute the FNV-1a digest over the
                                       retained journal lines and compare it
                                       with the dump's recorded stream digest
  f4tdbg diff <A.json> <B.json>        compare two dumps line by line
  f4tdbg pulse <PULSE.json>            render the FtPulse series document
                                       (written by f4tperf --pulse-json) as
                                       per-engine ASCII sparklines
  f4tdbg pulse <A.json> <B.json>       compare two pulse documents exactly,
                                       as f4tperf --pulse-gate does; exit 1
                                       and name each moved leaf (a series'
                                       first differing window) when they
                                       differ

FILTERS (print):
  --flow <N>                           only events for flow N
  --module <NAME>                      only events from one module
                                       (rx_parser, scheduler, fpc, fpu,
                                       memory_manager, packet_gen, timers, host)
  --kind <NAME>                        only events of one kind (seg_accepted,
                                       event_routed, tcb_migrate_start, ...)
  --cycles <LO..HI>                    only events with LO <= cycle <= HI

FILTERS (pulse):
  --series <SUBSTR>                    only series (or, for A B, moved
                                       paths) whose name contains SUBSTR
                                       (e.g. --series goodput, --series p99)

EXIT CODES: 0 success (digest matches / dumps or pulse documents identical) /
            1 digest mismatch, dumps differ or pulse documents differ /
            2 usage or I/O error

NOTE: the stream digest covers every recorded event, including ones the
bounded ring has since overwritten; a recomputed digest only matches when
nothing was overwritten (journal.events_overwritten == 0 at dump time).
";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(EXIT_USAGE);
}

fn read(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => die(&format!("reading {path}: {e}")),
    }
}

/// A parsed dump: the top-level fields f4tdbg consumes. The rest
/// (config, implicated TCBs, flight) is not read.
struct Dump {
    reason: String,
    cycle: u64,
    workload: Option<String>,
    journal_digest: u64,
    journal: Vec<String>,
    alarms: Vec<String>,
    violations: Vec<String>,
}

impl Dump {
    fn parse(path: &str, text: &str) -> Dump {
        let doc = json::parse(text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
        if doc.entries().is_none() {
            die(&format!("{path}: not a JSON object"));
        }
        let str_field = |k: &str| doc.get(k).and_then(Value::as_str).map(str::to_string);
        let num_field = |k: &str| doc.get(k).and_then(Value::as_u64);
        // The turbofish keeps f4tlint's name-resolved call graph from
        // linking every module's `collect` (metrics export) under the
        // `cmd_digest` path.
        let arr_field = |k: &str| {
            let items = doc.get(k).and_then(Value::as_array).unwrap_or_default();
            items.iter().filter_map(Value::as_str).map(str::to_string).collect::<Vec<_>>()
        };
        Dump {
            reason: str_field("reason").unwrap_or_else(|| "unknown".into()),
            cycle: num_field("cycle").unwrap_or(0),
            workload: str_field("workload"),
            journal_digest: num_field("journal_digest")
                .unwrap_or_else(|| die(&format!("{path}: missing journal_digest"))),
            journal: arr_field("journal"),
            alarms: arr_field("alarms"),
            violations: arr_field("violations"),
        }
    }
}

/// One parsed journal line (`cycle module kind flow a b`, space-joined —
/// the canonical `JournalEvent::line` rendering).
struct Entry<'a> {
    cycle: u64,
    module: &'a str,
    kind: &'a str,
    flow: u32,
    a: &'a str,
    b: &'a str,
}

impl<'a> Entry<'a> {
    fn parse(line: &'a str) -> Option<Entry<'a>> {
        let mut it = line.split_whitespace();
        let e = Entry {
            cycle: it.next()?.parse().ok()?,
            module: it.next()?,
            kind: it.next()?,
            flow: it.next()?.parse().ok()?,
            a: it.next()?,
            b: it.next()?,
        };
        it.next().is_none().then_some(e)
    }
}

#[derive(Default)]
struct Filters {
    flow: Option<u32>,
    module: Option<String>,
    kind: Option<String>,
    cycles: Option<(u64, u64)>,
}

impl Filters {
    fn matches(&self, e: &Entry) -> bool {
        self.flow.is_none_or(|f| e.flow == f)
            && self.module.as_deref().is_none_or(|m| e.module == m)
            && self.kind.as_deref().is_none_or(|k| e.kind == k)
            && self.cycles.is_none_or(|(lo, hi)| (lo..=hi).contains(&e.cycle))
    }
}

fn parse_filters(args: &[String]) -> Filters {
    let mut f = Filters::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> &String {
            it.next().unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--flow" => {
                f.flow = Some(
                    val("--flow").parse().unwrap_or_else(|e| die(&format!("--flow: {e}"))),
                )
            }
            "--module" => f.module = Some(val("--module").clone()),
            "--kind" => f.kind = Some(val("--kind").clone()),
            "--cycles" => {
                let v = val("--cycles");
                let (lo, hi) = v
                    .split_once("..")
                    .unwrap_or_else(|| die(&format!("--cycles wants LO..HI, got {v}")));
                let lo = lo.parse().unwrap_or_else(|e| die(&format!("--cycles: {e}")));
                let hi = hi.parse().unwrap_or_else(|e| die(&format!("--cycles: {e}")));
                f.cycles = Some((lo, hi));
            }
            other => die(&format!("unknown filter {other} (try --help)")),
        }
    }
    f
}

fn cmd_print(path: &str, filters: &Filters) {
    let d = Dump::parse(path, &read(path));
    println!("dump        {path}");
    println!("reason      {}", d.reason);
    if let Some(w) = &d.workload {
        println!("workload    {w}");
    }
    println!("cycle       {}", d.cycle);
    println!("digest      {:016x}", d.journal_digest);
    if !d.alarms.is_empty() {
        println!("\nalarms ({}):", d.alarms.len());
        for a in &d.alarms {
            println!("  {a}");
        }
    }
    if !d.violations.is_empty() {
        println!("\nviolations ({}):", d.violations.len());
        for v in &d.violations {
            println!("  {v}");
        }
    }
    let mut shown = 0usize;
    println!("\njournal ({} retained):", d.journal.len());
    println!("  {:>10}  {:<14}  {:<18}  {:>8}  {:>12}  {:>12}", "cycle", "module", "kind", "flow", "a", "b");
    for line in &d.journal {
        let Some(e) = Entry::parse(line) else {
            println!("  (unparsable: {line})");
            continue;
        };
        if !filters.matches(&e) {
            continue;
        }
        shown += 1;
        println!(
            "  {:>10}  {:<14}  {:<18}  {:>8}  {:>12}  {:>12}",
            e.cycle, e.module, e.kind, e.flow, e.a, e.b
        );
    }
    println!("  ({shown} of {} shown)", d.journal.len());
}

fn cmd_digest(path: &str) {
    let d = Dump::parse(path, &read(path));
    let mut h = FNV_OFFSET;
    for line in &d.journal {
        h = fnv1a(h, line.as_bytes());
    }
    println!("recorded digest    {:016x}", d.journal_digest);
    println!("recomputed digest  {:016x} over {} retained lines", h, d.journal.len());
    if h == d.journal_digest {
        println!("MATCH — the retained tail replays the full recorded stream");
    } else {
        println!(
            "MISMATCH — the ring overwrote events (the stream digest covers \
             them; the retained tail cannot) or the dump was edited"
        );
        std::process::exit(EXIT_DIFFERS);
    }
}

fn cmd_diff(path_a: &str, path_b: &str) {
    let a = Dump::parse(path_a, &read(path_a));
    let b = Dump::parse(path_b, &read(path_b));
    let mut differs = false;
    if a.reason != b.reason {
        println!("reason: {} vs {}", a.reason, b.reason);
        differs = true;
    }
    if a.journal_digest != b.journal_digest {
        println!("digest: {:016x} vs {:016x}", a.journal_digest, b.journal_digest);
        differs = true;
    }
    let n = a.journal.len().max(b.journal.len());
    let mut shown = 0;
    for i in 0..n {
        let la = a.journal.get(i).map(String::as_str);
        let lb = b.journal.get(i).map(String::as_str);
        if la != lb {
            if shown == 0 {
                println!("journal diverges at entry {i}:");
            }
            println!("  - {}", la.unwrap_or("(absent)"));
            println!("  + {}", lb.unwrap_or("(absent)"));
            shown += 1;
            differs = true;
            if shown >= 16 {
                println!("  (further divergence suppressed)");
                break;
            }
        }
    }
    for (label, xs, ys) in [("alarms", &a.alarms, &b.alarms), ("violations", &a.violations, &b.violations)] {
        if xs != ys {
            println!("{label} differ: {} vs {} entries", xs.len(), ys.len());
            differs = true;
        }
    }
    if differs {
        std::process::exit(EXIT_DIFFERS);
    }
    println!("dumps identical ({} journal entries, digest {:016x})", a.journal.len(), a.journal_digest);
}

/// Sparkline glyphs, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
/// Maximum sparkline width; longer series are bucketed (max per bucket)
/// so a 1024-window ring still fits a terminal line.
const SPARK_WIDTH: usize = 64;

/// Renders `vals` as a sparkline, scaled to the series' own max.
fn sparkline(vals: &[u64]) -> String {
    if vals.is_empty() {
        return "(empty)".into();
    }
    // Bucket down to SPARK_WIDTH, keeping each bucket's max (a dropped
    // spike would defeat the whole point of the shape view).
    let bucketed: Vec<u64> = if vals.len() > SPARK_WIDTH {
        (0..SPARK_WIDTH)
            .map(|b| {
                let lo = vals.len() * b / SPARK_WIDTH;
                let hi = vals.len() * (b + 1) / SPARK_WIDTH;
                vals[lo..hi.max(lo + 1)].iter().copied().max().unwrap_or(0)
            })
            .collect()
    } else {
        vals.to_vec()
    };
    let max = bucketed.iter().copied().max().unwrap_or(0);
    bucketed
        .iter()
        .map(|&v| {
            if max == 0 {
                SPARKS[0]
            } else {
                SPARKS[(v.saturating_mul(7).div_ceil(max.max(1))).min(7) as usize]
            }
        })
        .collect()
}

/// Parses the pulse-specific filter args (`--series <SUBSTR>`).
fn parse_series_filter(args: &[String]) -> Option<String> {
    let mut filter = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--series" => {
                filter = Some(
                    it.next()
                        .unwrap_or_else(|| die("--series needs a value"))
                        .clone(),
                )
            }
            other => die(&format!("unknown pulse filter {other} (try --help)")),
        }
    }
    filter
}

fn cmd_pulse_show(path: &str, filter: Option<&str>) {
    let text = read(path);
    let secs = match f4t_bench::pulsejson::sections(&text) {
        Ok(s) => s,
        Err(e) => die(&format!("{path}: {e}")),
    };
    println!("pulse       {path}");
    let merged = json::parse(&text).ok().and_then(|d| d.get("merged_digest")?.as_u64());
    if let Some(d) = merged {
        println!("merged      {d:016x}");
    }
    for sec in &secs {
        println!();
        match sec.digest {
            Some(d) => println!("[{}]  digest {d:016x}", sec.label),
            None => println!("[{}]", sec.label),
        }
        let mut shown = 0usize;
        for (name, vals) in &sec.series {
            if filter.is_some_and(|f| !name.contains(f)) {
                continue;
            }
            shown += 1;
            let max = vals.iter().copied().max().unwrap_or(0);
            let last = vals.last().copied().unwrap_or(0);
            println!(
                "  {:<32} {}  max {max} last {last}",
                name,
                sparkline(vals)
            );
        }
        println!("  ({shown} of {} series shown, {} windows)", sec.series.len(), sec
            .series
            .values()
            .map(Vec::len)
            .max()
            .unwrap_or(0));
    }
}

/// Diffs two pulse documents with [`f4t_bench::compare_documents`], the
/// comparison `--pulse-gate` makes: each moved leaf by dotted path, a
/// series by its first differing window. `filter` narrows the paths
/// printed, not the verdict.
fn cmd_pulse_diff(path_a: &str, path_b: &str, filter: Option<&str>) {
    let [a, b] = [path_a, path_b].map(read);
    let sections = [(path_a, &a), (path_b, &b)].map(|(path, text)| {
        f4t_bench::pulsejson::sections(text).unwrap_or_else(|e| die(&format!("{path}: {e}"))).len()
    });
    let moved = f4t_bench::compare_documents(&a, &b).unwrap_or_else(|e| die(&e));
    if moved.is_empty() {
        println!("pulse documents identical ({} sections)", sections[0]);
        return;
    }
    let path = |m: &String| m.split_once(": ").map_or(m.as_str(), |(p, _)| p).to_owned();
    let shown: Vec<&String> =
        moved.iter().filter(|m| filter.is_none_or(|f| path(m).contains(f))).collect();
    println!("pulse documents differ ({path_a} -> {path_b}):");
    for m in &shown {
        println!("  - {m}");
    }
    if shown.len() < moved.len() {
        println!("  ({} more outside --series)", moved.len() - shown.len());
    }
    std::process::exit(EXIT_DIFFERS);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--help") | Some("-h") | None => {
            print!("{HELP}");
            if argv.is_empty() {
                std::process::exit(EXIT_USAGE);
            }
        }
        Some("print") => {
            let Some(path) = argv.get(1) else { die("print needs a dump path") };
            cmd_print(path, &parse_filters(&argv[2..]));
        }
        Some("digest") => {
            let Some(path) = argv.get(1) else { die("digest needs a dump path") };
            if argv.len() > 2 {
                die("digest takes exactly one dump path");
            }
            cmd_digest(path);
        }
        Some("pulse") => {
            let paths: Vec<&String> =
                argv[1..].iter().take_while(|a| !a.starts_with("--")).collect();
            let rest = &argv[1 + paths.len()..];
            match paths.as_slice() {
                [path] => cmd_pulse_show(path, parse_series_filter(rest).as_deref()),
                [a, b] => cmd_pulse_diff(a, b, parse_series_filter(rest).as_deref()),
                _ => die("pulse needs one or two pulse-document paths"),
            }
        }
        Some("diff") => {
            let (Some(a), Some(b)) = (argv.get(1), argv.get(2)) else {
                die("diff needs two dump paths")
            };
            if argv.len() > 3 {
                die("diff takes exactly two dump paths");
            }
            cmd_diff(a, b);
        }
        Some(other) => die(&format!("unknown command {other} (try --help)")),
    }
}
