//! # f4t-bench — the figure/table regeneration harness
//!
//! [`figures`] holds one report per figure and table of the paper's
//! evaluation; the `figures` binary prints them (`cargo run --release -p
//! f4t-bench --bin figures -- <name>…`). `EXPERIMENTS.md` at the
//! repository root records paper-vs-measured for every report.

use f4t_sim::json::{self, Value};
use std::fmt::Display;

pub mod figures;
pub mod pulsejson;

/// The one comparison of a simulated document (a `--breakdown-json`
/// breakdown, a `--pulse-json` series document) with its committed
/// baseline, behind `f4tperf --gate`/`--pulse-gate`, `f4tdbg pulse A B`
/// and the `results/{flight,pulse}` golden. The rule is exact: a
/// committed document changes only by regeneration.
///
/// Returns nothing when `observed` equals `baseline` byte for byte.
/// Otherwise returns one line per moved leaf, by dotted path (`[k]` for
/// an array element): `<path>: gone`, `<path>: new`, `<path>: <baseline>
/// -> <observed>` for a changed scalar or an array's first differing
/// element, `<path>: <n> elements -> <m> elements` for a length change.
/// Keys match by name, so texts that differ but parse to the same leaves
/// (spacing, key order) give the one line [`FORMATTING_ONLY`].
///
/// # Errors
///
/// Either document does not parse; the message names which one and the
/// reader's byte offset.
pub fn compare_documents(baseline: &str, observed: &str) -> Result<Vec<String>, String> {
    fn show(v: &Value) -> String {
        match v {
            Value::Null => "null".to_owned(),
            Value::Bool(b) => b.to_string(),
            Value::Number(n) => n.clone(),
            Value::String(s) => json::quote(s),
            Value::Array(a) => format!("{} elements", a.len()),
            Value::Object(o) => format!("{} keys", o.len()),
        }
    }
    fn walk(path: &str, base: &Value, cur: &Value, out: &mut Vec<String>) {
        let sub = |key: &str| if path.is_empty() { key.to_owned() } else { format!("{path}.{key}") };
        match (base, cur) {
            (Value::Object(b), Value::Object(c)) => {
                for (key, bv) in b {
                    match c.iter().find(|(k, _)| k == key) {
                        Some((_, cv)) => walk(&sub(key), bv, cv, out),
                        None => out.push(format!("{}: gone", sub(key))),
                    }
                }
                for (key, _) in c.iter().filter(|(k, _)| b.iter().all(|(bk, _)| bk != k)) {
                    out.push(format!("{}: new", sub(key)));
                }
            }
            (Value::Array(b), Value::Array(c)) => {
                if let Some(k) = (0..b.len().min(c.len())).find(|&k| b[k] != c[k]) {
                    walk(&format!("{path}[{k}]"), &b[k], &c[k], out);
                }
                if b.len() != c.len() {
                    out.push(format!("{path}: {} -> {}", show(base), show(cur)));
                }
            }
            _ if base != cur => out.push(format!("{path}: {} -> {}", show(base), show(cur))),
            _ => {}
        }
    }
    let base = json::parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur = json::parse(observed).map_err(|e| format!("observed: {e}"))?;
    let mut moved = Vec::new();
    if baseline == observed {
        return Ok(moved);
    }
    walk("", &base, &cur, &mut moved);
    if moved.is_empty() {
        moved.push(FORMATTING_ONLY.to_owned());
    }
    Ok(moved)
}

/// [`compare_documents`]'s one line for texts that differ but whose
/// leaves are all equal.
pub const FORMATTING_ONLY: &str = "formatting only: the texts differ, every leaf is equal";

/// How long a figure report simulates: the full windows, or quick ones
/// ~10× shorter for smoke runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Windows {
    Full,
    Quick,
}

impl Windows {
    /// Whether these are the quick windows.
    pub fn quick(self) -> bool {
        self == Windows::Quick
    }

    /// Scales a nanosecond duration down in quick mode.
    pub fn scale_ns(self, full: u64) -> u64 {
        if self.quick() {
            (full / 10).max(50_000)
        } else {
            full
        }
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
}

/// Formats a float with `digits` decimals.
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// The standard report banner.
pub fn banner(id: &str, title: &str, w: Windows) -> String {
    let note = "(F4T_QUICK=1: shortened windows; numbers are noisier)\n";
    let quick = if w.quick() { note } else { "" };
    format!("=== {id}: {title} ===\n{quick}\n")
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

    /// Every committed baseline and perf record parses with the
    /// workspace codec (a pulse baseline as pulse sections too), and
    /// every flight/pulse baseline compares clean against itself.
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
        }
        for (name, text) in &pulse {
            assert!(pulsejson::sections(text).is_ok(), "{name}");
        }
        for (name, text) in flight.iter().chain(&pulse) {
            assert_eq!(compare_documents(text, text), Ok(vec![]), "{name}");
        }
        let records = read("", "tick_cost_pr");
        assert!(!records.is_empty());
        for (name, text) in &records {
            assert!(json::parse(text).is_ok(), "{name}");
        }
    }

    const DOC: &str = r#"{"cycles": 1000, "flight": {"stages": {"fpu_process": {"p99_cycles": 10}}},
        "series": [1, 2, 3], "name": "w"}"#;

    #[test]
    fn identical_text_moves_nothing() {
        assert_eq!(compare_documents(DOC, DOC), Ok(vec![]));
    }

    #[test]
    fn a_changed_scalar_is_named_by_its_dotted_path() {
        let cur = DOC.replace("\"p99_cycles\": 10", "\"p99_cycles\": 12").replace("\"w\"", "\"v\"");
        assert_eq!(
            compare_documents(DOC, &cur),
            Ok(vec![
                "flight.stages.fpu_process.p99_cycles: 10 -> 12".to_owned(),
                "name: \"w\" -> \"v\"".to_owned(),
            ])
        );
    }

    #[test]
    fn a_gone_key_and_a_new_key_are_named() {
        let cur = DOC.replace("\"cycles\": 1000, ", "").replace("\"name\"", "\"label\"");
        assert_eq!(
            compare_documents(DOC, &cur),
            Ok(vec!["cycles: gone".to_owned(), "name: gone".to_owned(), "label: new".to_owned()])
        );
    }

    #[test]
    fn an_array_names_its_first_differing_element_and_a_length_change() {
        let cur = DOC.replace("[1, 2, 3]", "[1, 5, 6]");
        assert_eq!(compare_documents(DOC, &cur), Ok(vec!["series[1]: 2 -> 5".to_owned()]));
        let longer = DOC.replace("[1, 2, 3]", "[1, 2, 3, 4]");
        assert_eq!(
            compare_documents(DOC, &longer),
            Ok(vec!["series: 3 elements -> 4 elements".to_owned()])
        );
        let both = DOC.replace("[1, 2, 3]", "[0, 2]");
        assert_eq!(
            compare_documents(DOC, &both),
            Ok(vec!["series[0]: 1 -> 0".to_owned(), "series: 3 elements -> 2 elements".to_owned()])
        );
    }

    /// Spacing and key order are not leaves, but the texts still differ:
    /// an exact rule reports them rather than passing.
    #[test]
    fn a_formatting_only_difference_is_reported_as_such() {
        let spaced = DOC.replace(", ", ",  ");
        let reordered = DOC.replace("\"series\": [1, 2, 3], \"name\": \"w\"", "\"name\": \"w\", \"series\": [1, 2, 3]");
        for cur in [spaced, reordered] {
            assert_ne!(cur, DOC);
            assert_eq!(compare_documents(DOC, &cur), Ok(vec![FORMATTING_ONLY.to_owned()]));
        }
    }

    #[test]
    fn an_unparseable_document_is_an_error() {
        let truncated = &DOC[..DOC.len() - 1];
        assert!(compare_documents(truncated, DOC).unwrap_err().starts_with("baseline: "));
        assert!(compare_documents(DOC, truncated).unwrap_err().starts_with("observed: "));
        assert!(compare_documents(truncated, truncated).is_err(), "identical but unparseable");
    }
}
