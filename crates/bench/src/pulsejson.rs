//! FtPulse document reading (DESIGN.md §15). A pulse document
//! (`f4tperf --pulse-json`) is read through `f4t_sim::json`: its
//! top-level `"engines"` object maps section labels (`a`/`b`, `engine`,
//! `shard0`…) to the per-recorder JSON from `PulseRecorder::to_json`,
//! whose `"series"` object maps series names to integer arrays. `f4tdbg
//! pulse` renders and validates documents with it; comparing one with a
//! committed baseline is [`crate::compare_documents`].

use f4t_sim::json::{self, Value};
use std::collections::BTreeMap;

/// One labelled pulse section (`a`, `b`, `engine`, `shard0`…) extracted
/// from a `--pulse-json` document.
#[derive(Debug, Clone)]
pub struct PulseSection {
    /// Section label inside the `"engines"` object.
    pub label: String,
    /// Series name → retained window samples, oldest first.
    pub series: BTreeMap<String, Vec<u64>>,
    /// The recorder's running digest, if present.
    pub digest: Option<u64>,
}

/// Parses a `--pulse-json` document into its labelled sections, in
/// document order.
///
/// # Errors
///
/// Malformed JSON, a missing or empty `"engines"` object, or a section
/// whose `"series"` is not an object of integer arrays.
pub fn sections(text: &str) -> Result<Vec<PulseSection>, String> {
    let doc = json::parse(text)?;
    let engines = doc
        .get("engines")
        .and_then(Value::entries)
        .ok_or("no \"engines\" object (not a pulse document?)")?;
    if engines.is_empty() {
        return Err("\"engines\" object holds no sections".to_string());
    }
    engines
        .iter()
        .map(|(label, section)| {
            let series = section
                .get("series")
                .and_then(Value::entries)
                .ok_or_else(|| format!("section {label:?} has no \"series\" object"))?
                .iter()
                .map(|(name, vals)| {
                    let vals = vals.as_array().and_then(|a| a.iter().map(Value::as_u64).collect());
                    vals.map(|v| (name.clone(), v)).ok_or_else(|| {
                        format!("section {label:?} series {name:?} is not an integer array")
                    })
                })
                .collect::<Result<_, String>>()?;
            let digest = section.get("digest").and_then(Value::as_u64);
            Ok(PulseSection { label: label.clone(), series, digest })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(goodput: &[u64], retransmits: &[u64], p99: &[u64]) -> String {
        let arr = |v: &[u64]| {
            let s: Vec<String> = v.iter().map(u64::to_string).collect();
            format!("[{}]", s.join(", "))
        };
        format!(
            "{{\"workload\": \"t\",\n\"engines\": {{\n\"a\": {{\n \"digest\": 42,\n \
             \"series\": {{\n  \"goodput_bytes\": {},\n  \"retransmits\": {},\n  \
             \"stage.fpu_process.p99_cycles\": {}\n }}\n}}\n}}}}\n",
            arr(goodput),
            arr(retransmits),
            arr(p99)
        )
    }

    #[test]
    fn parses_sections_series_and_digest() {
        let d = doc(&[0, 50, 100, 100], &[0, 1, 0, 0], &[2, 2, 2, 2]);
        let s = sections(&d).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].label, "a");
        assert_eq!(s[0].digest, Some(42));
        assert_eq!(s[0].series["goodput_bytes"], vec![0, 50, 100, 100]);
        assert_eq!(s[0].series["stage.fpu_process.p99_cycles"], vec![2, 2, 2, 2]);
    }

    /// A `}` inside a string value must not end the section: the reader
    /// walks JSON values, not brace depth.
    #[test]
    fn brace_inside_a_string_does_not_split_a_section() {
        let d = doc(&[0, 50, 100, 100], &[0, 1, 0, 0], &[2, 2, 2, 2])
            .replace("\"digest\": 42,", "\"note\": \"x}\", \"digest\": 42,");
        let s = sections(&d).unwrap();
        let labels: Vec<&str> = s.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["a"]);
        assert_eq!(s[0].digest, Some(42));
        assert_eq!(s[0].series["goodput_bytes"], vec![0, 50, 100, 100]);
        assert_eq!(s[0].series["stage.fpu_process.p99_cycles"], vec![2, 2, 2, 2]);
    }

    /// Recorder digests are full-width FNV values; a reader that goes
    /// through `f64` would round them above 2^53.
    #[test]
    fn digest_above_2_pow_53_reads_back_exactly() {
        let d = doc(&[1, 2], &[0, 0], &[2, 2])
            .replace("\"digest\": 42", "\"digest\": 18446744073709551615");
        assert_eq!(sections(&d).unwrap()[0].digest, Some(u64::MAX));
    }

    #[test]
    fn rejects_non_pulse_documents() {
        assert!(sections("{\"workload\": \"t\"}").is_err());
        assert!(sections("{\"engines\": {}}").is_err());
        assert!(sections("{\"engines\": {\"a\": {\"digest\": 1}}}").is_err(), "no series");
        let negative = doc(&[1, 2], &[0, 0], &[2, 2]).replace("[1, 2]", "[1, -2]");
        assert!(sections(&negative).is_err(), "series values are u64");
        let d = doc(&[1, 2], &[0, 0], &[2, 2]);
        assert!(sections(&d[..d.len() - 3]).unwrap_err().contains("at byte"), "truncated");
    }
}
