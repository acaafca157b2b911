//! # f4t-bench — the figure/table regeneration harness
//!
//! One binary per figure and table of the paper's evaluation (run with
//! `cargo run --release -p f4t-bench --bin figNN`), plus in-tree
//! micro-benchmarks (`cargo bench`; see [`micro`]). `EXPERIMENTS.md` at
//! the repository root records paper-vs-measured for every harness.
//!
//! Set `F4T_QUICK=1` to cut simulation windows ~10× for smoke runs.

use f4t_sim::json::Value;
use std::fmt::Display;

pub mod micro {
    //! A dependency-free micro-benchmark harness (the build environment
    //! has no registry access, so criterion is not available). Each
    //! benchmark self-calibrates its batch size to ~20 ms, takes the best
    //! of three timed batches, and prints ns/iter in a criterion-like
    //! one-line format.

    use std::hint::black_box;
    use std::time::Instant;

    /// Target wall time per timed batch.
    const BATCH_MS: u128 = 20;

    /// Times `f`, printing and returning the best-of-3 ns/iter.
    pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> f64 {
        // Calibrate: grow the batch until one batch takes >= BATCH_MS.
        let mut batch = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            if t.elapsed().as_millis() >= BATCH_MS || batch >= 1 << 28 {
                break;
            }
            batch *= 2;
        }
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            best = best.min(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        println!("{name:<44} {best:>12.1} ns/iter  (batch {batch})");
        best
    }
}

pub mod pulsejson;

/// Tolerances for the FtFlight perf gate. Total simulated cycles are
/// two-sided (a big drop is as suspicious as a big rise — it usually
/// means the workload silently stopped doing work); stage p99s are
/// one-sided with an additive floor so near-zero baselines don't gate on
/// ±1 cycle.
const GATE_CYCLES_RATIO: f64 = 1.25;
const GATE_P99_RATIO: f64 = 1.25;
const GATE_P99_SLACK_CYCLES: f64 = 16.0;

/// The FtFlight perf gate (DESIGN.md §10.4): compares a `--breakdown-json`
/// document against a committed baseline and returns one formatted
/// violation per out-of-tolerance metric (empty = gate passes). It reads
/// top-level `cycles`, every `flight.stages.<stage>.p99_cycles` (stage
/// lines in ascending stage name) and `flight.spans_recorded`. Every line
/// names the workload, stage and metric with the observed value, the
/// baseline and the allowed bound — the format
/// `workload=… stage=… metric=… observed=… baseline=… allowed…` is pinned
/// by `crates/bench/tests/cli.rs`.
pub fn flight_gate(workload: &str, base: &Value, cur: &Value) -> Vec<String> {
    let cycles = |doc: &Value| doc.get("cycles").and_then(Value::as_f64);
    let flight = |doc: &Value, key: &str| doc.get("flight")?.get(key)?.as_f64();
    let p99 = |doc: &Value, stage: &str| {
        doc.get("flight")?.get("stages")?.get(stage)?.get("p99_cycles")?.as_f64()
    };
    let mut violations = Vec::new();
    match (cycles(base), cycles(cur)) {
        (Some(b), Some(c)) => {
            let lo = b / GATE_CYCLES_RATIO;
            let hi = b * GATE_CYCLES_RATIO;
            if c > hi || c < lo {
                violations.push(format!(
                    "workload={workload} stage=total metric=cycles observed={c:.0} baseline={b:.0} allowed=[{lo:.0}..{hi:.0}]"
                ));
            }
        }
        _ => violations.push(format!(
            "workload={workload} stage=total metric=cycles observed=missing baseline=missing allowed=present"
        )),
    }
    let stages = base.get("flight").and_then(|f| f.get("stages")).and_then(Value::entries);
    let mut stages: Vec<(&str, f64)> = stages
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, _)| Some((name.as_str(), p99(base, name)?)))
        .collect();
    stages.sort_by(|x, y| x.0.cmp(y.0));
    for (stage, b) in stages {
        let allowed = b * GATE_P99_RATIO + GATE_P99_SLACK_CYCLES;
        match p99(cur, stage) {
            Some(c) if c <= allowed => {}
            Some(c) => violations.push(format!(
                "workload={workload} stage={stage} metric=p99_cycles observed={c:.0} baseline={b:.0} allowed<={allowed:.0}"
            )),
            None => violations.push(format!(
                "workload={workload} stage={stage} metric=p99_cycles observed=missing baseline={b:.0} allowed<={allowed:.0}"
            )),
        }
    }
    if let (Some(b), Some(c)) = (flight(base, "spans_recorded"), flight(cur, "spans_recorded")) {
        if b > 0.0 && c == 0.0 {
            violations.push(format!(
                "workload={workload} stage=total metric=spans_recorded observed=0 baseline={b:.0} allowed>0"
            ));
        }
    }
    violations
}

/// Whether quick mode is on (`F4T_QUICK=1`).
pub fn quick() -> bool {
    std::env::var("F4T_QUICK").is_ok_and(|v| v != "0")
}

/// Scales a nanosecond duration down in quick mode.
pub fn scale_ns(full: u64) -> u64 {
    if quick() {
        (full / 10).max(50_000)
    } else {
        full
    }
}

/// A plain-text aligned table, the output format of every harness.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Display>(headers: &[S]) -> Table {
        Table { headers: headers.iter().map(|h| h.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (stringifying each cell).
    pub fn row<S: Display>(&mut self, cells: &[S]) {
        let row: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{c:>w$}", w = w));
            }
            out.push('\n');
        };
        line(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with `digits` decimals.
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Prints the standard harness banner.
pub fn banner(id: &str, title: &str) {
    println!("=== {id}: {title} ===");
    if quick() {
        println!("(F4T_QUICK=1: shortened windows; numbers are noisier)");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_sim::json;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["1", "2"]);
        t.row(&["333", "4"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[2].ends_with("2"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
    }

    /// Every committed gate baseline and perf record parses with the
    /// workspace codec, and every flight/pulse baseline passes its gate
    /// against itself.
    #[test]
    fn committed_results_parse_and_gate_clean_against_themselves() {
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let read = |dir: &str, prefix: &str| -> Vec<(String, String)> {
            let mut names: Vec<String> = std::fs::read_dir(format!("{results}/{dir}"))
                .expect("results directory")
                .map(|e| e.expect("dir entry").file_name().into_string().expect("UTF-8 name"))
                .filter(|n| n.starts_with(prefix) && n.ends_with(".json"))
                .collect();
            names.sort();
            let text = |n: &str| std::fs::read_to_string(format!("{results}/{dir}/{n}")).expect("read");
            names.into_iter().map(|n| (format!("{dir}/{n}"), text(&n))).collect()
        };
        let (flight, pulse) = (read("flight", ""), read("pulse", ""));
        assert_eq!(flight.len(), pulse.len(), "one flight and one pulse baseline per workload");
        assert!(!flight.is_empty());
        for (name, text) in &flight {
            let doc = json::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(doc.get("flight").and_then(|f| f.get("stages")).is_some(), "{name}");
            assert!(flight_gate("self", &doc, &doc).is_empty(), "{name}");
        }
        for (name, text) in &pulse {
            assert_eq!(pulsejson::shape_gate("self", text, text), Ok(vec![]), "{name}");
        }
        let records = read("", "tick_cost_pr");
        assert!(!records.is_empty());
        for (name, text) in &records {
            assert!(json::parse(text).is_ok(), "{name}");
        }
    }

    #[test]
    fn flight_gate_orders_stage_lines_by_name_and_flags_missing_ones() {
        let base = json::parse(
            r#"{"cycles": 1000, "flight": {"spans_recorded": 5, "stages": {
                "tx_emit": {"p99_cycles": 10}, "fpu_process": {"p99_cycles": 10},
                "rx_ingest": {"p99_cycles": 10}}}}"#,
        )
        .unwrap();
        let cur = json::parse(
            r#"{"cycles": 2000, "flight": {"spans_recorded": 0, "stages": {
                "tx_emit": {"p99_cycles": 50}, "fpu_process": {"p99_cycles": 29}}}}"#,
        )
        .unwrap();
        assert_eq!(
            flight_gate("w", &base, &cur),
            [
                "workload=w stage=total metric=cycles observed=2000 baseline=1000 allowed=[800..1250]",
                "workload=w stage=fpu_process metric=p99_cycles observed=29 baseline=10 allowed<=28",
                "workload=w stage=rx_ingest metric=p99_cycles observed=missing baseline=10 allowed<=28",
                "workload=w stage=tx_emit metric=p99_cycles observed=50 baseline=10 allowed<=28",
                "workload=w stage=total metric=spans_recorded observed=0 baseline=5 allowed>0",
            ]
        );
        let not_a_breakdown = json::parse("{}").unwrap();
        assert_eq!(flight_gate("w", &not_a_breakdown, &not_a_breakdown).len(), 1);
    }
}
