//! FtPulse document reading and the shape-aware perf gate (DESIGN.md
//! §15). A pulse document (`f4tperf --pulse-json`) is read through
//! `f4t_sim::json`: its top-level `"engines"` object maps section labels
//! (`a`/`b`, `engine`, `shard0`…) to the per-recorder JSON from
//! `PulseRecorder::to_json`, whose `"series"` object maps series names
//! to integer arrays.
//!
//! The shape gate compares those *windowed* series against a committed
//! baseline and catches mid-run degradations — a transient stall storm, a
//! retransmit burst, a shard running hot then recovering — that
//! end-of-run aggregate gates (total cycles, final p99) are blind to,
//! because the degradation averages out by the end of the run.

use f4t_sim::json::{self, Value};
use std::collections::BTreeMap;

/// Shape-gate tolerances. Runs are deterministic (simulated clock only),
/// so these absorb intentional-change drift, not machine noise. Windowed
/// stage p99s get a deliberately tighter bound than the end-of-run flight
/// gate (1.25x + 16): the whole point of the shape gate is to flag ramps
/// the aggregate tolerances swallow.
pub mod tolerance {
    /// Window count: observed within ±25% of baseline (plus slack below).
    pub const WINDOWS_RATIO_PCT: u64 = 25;
    /// Window count absolute slack.
    pub const WINDOWS_SLACK: u64 = 2;
    /// Time-to-steady-state: observed at most this many windows later.
    pub const STEADY_SLACK_WINDOWS: u64 = 2;
    /// Steady-state goodput deviation: observed permille at most
    /// `2 * baseline + 150`.
    pub const DEVIATION_SLACK_PERMILLE: u64 = 150;
    /// Per-window retransmit ceiling: observed max at most
    /// `2 * baseline_max + 8`.
    pub const RETRANSMIT_SLACK: u64 = 8;
    /// Per-window stage p99: observed at most `baseline + baseline/8 +
    /// 8` cycles — an eighth plus eight, vs the flight gate's quarter
    /// plus sixteen.
    pub const P99_SLACK_CYCLES: u64 = 8;
}

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

/// First window index whose value reaches 90% of the series maximum —
/// the integer "time to steady state". `None` for all-zero series.
fn time_to_steady(series: &[u64]) -> Option<u64> {
    let max = *series.iter().max()?;
    if max == 0 {
        return None;
    }
    let threshold = max - max / 10;
    series.iter().position(|&v| v >= threshold).map(|i| i as u64)
}

/// Maximum absolute deviation from the mean over the steady region, in
/// permille of the mean. `None` when the steady region is empty or the
/// mean is zero.
fn steady_deviation_permille(series: &[u64], from: u64) -> Option<u64> {
    let steady = series.get(from as usize..)?;
    if steady.is_empty() {
        return None;
    }
    let sum: u64 = steady.iter().sum();
    let mean = sum / steady.len() as u64;
    if mean == 0 {
        return None;
    }
    let dev = steady.iter().map(|&v| v.abs_diff(mean)).max().unwrap_or(0);
    Some(dev.saturating_mul(1000) / mean)
}

/// Compares a current pulse document against a committed baseline and
/// returns one formatted violation per out-of-tolerance shape metric
/// (empty = gate passes). Violation lines follow the flight gate's pinned
/// `workload=… stage=… metric=… observed=… baseline=… allowed…` format.
pub fn shape_gate(
    workload: &str,
    baseline_text: &str,
    current_text: &str,
) -> Result<Vec<String>, String> {
    let base_sections = sections(baseline_text)?;
    let cur_sections = sections(current_text)?;
    let cur_by_label: BTreeMap<&str, &PulseSection> =
        cur_sections.iter().map(|s| (s.label.as_str(), s)).collect();
    let mut violations = Vec::new();
    for base in &base_sections {
        let label = base.label.as_str();
        let Some(cur) = cur_by_label.get(label) else {
            violations.push(format!(
                "workload={workload} stage={label} metric=section observed=missing baseline=present allowed=present"
            ));
            continue;
        };
        gate_section(workload, label, base, cur, &mut violations);
    }
    Ok(violations)
}

fn gate_section(
    workload: &str,
    label: &str,
    base: &PulseSection,
    cur: &PulseSection,
    violations: &mut Vec<String>,
) {
    let empty: Vec<u64> = Vec::new();
    let bg = base.series.get("goodput_bytes").unwrap_or(&empty);
    let cg = cur.series.get("goodput_bytes").unwrap_or(&empty);

    // 1. Window count: the run's time axis itself must match.
    let (bw, cw) = (bg.len() as u64, cg.len() as u64);
    let slack = bw * tolerance::WINDOWS_RATIO_PCT / 100 + tolerance::WINDOWS_SLACK;
    if cw.abs_diff(bw) > slack {
        violations.push(format!(
            "workload={workload} stage={label} metric=windows observed={cw} baseline={bw} allowed=[{}..{}]",
            bw.saturating_sub(slack),
            bw + slack
        ));
    }

    // 2. Time to steady state on the goodput ramp.
    if let Some(bt) = time_to_steady(bg) {
        let allowed = bt + tolerance::STEADY_SLACK_WINDOWS;
        match time_to_steady(cg) {
            Some(ct) if ct <= allowed => {}
            Some(ct) => violations.push(format!(
                "workload={workload} stage={label} metric=time_to_steady_windows observed={ct} baseline={bt} allowed<={allowed}"
            )),
            None => violations.push(format!(
                "workload={workload} stage={label} metric=time_to_steady_windows observed=never baseline={bt} allowed<={allowed}"
            )),
        }
    }

    // 3. Steady-state throughput variance (max deviation, permille).
    if let Some(bt) = time_to_steady(bg) {
        if let Some(bd) = steady_deviation_permille(bg, bt) {
            let allowed = bd * 2 + tolerance::DEVIATION_SLACK_PERMILLE;
            match time_to_steady(cg).and_then(|ct| steady_deviation_permille(cg, ct)) {
                Some(cd) if cd <= allowed => {}
                Some(cd) => violations.push(format!(
                    "workload={workload} stage={label} metric=steady_goodput_deviation_permille observed={cd} baseline={bd} allowed<={allowed}"
                )),
                None => violations.push(format!(
                    "workload={workload} stage={label} metric=steady_goodput_deviation_permille observed=undefined baseline={bd} allowed<={allowed}"
                )),
            }
        }
    }

    // 4. Per-window retransmit ceiling.
    if let (Some(br), Some(cr)) =
        (base.series.get("retransmits"), cur.series.get("retransmits"))
    {
        let bmax = br.iter().copied().max().unwrap_or(0);
        let cmax = cr.iter().copied().max().unwrap_or(0);
        let allowed = bmax * 2 + tolerance::RETRANSMIT_SLACK;
        if cmax > allowed {
            violations.push(format!(
                "workload={workload} stage={label} metric=retransmits_window_max observed={cmax} baseline={bmax} allowed<={allowed}"
            ));
        }
    }

    // 5. Windowed stage p99 trajectories — the rule that catches a
    //    mid-run latency ramp the end-of-run aggregate gate swallows.
    for (name, bvals) in &base.series {
        let Some(stage) = name.strip_prefix("stage.").and_then(|s| s.strip_suffix(".p99_cycles"))
        else {
            continue;
        };
        let Some(cvals) = cur.series.get(name) else { continue };
        for (k, (&b, &c)) in bvals.iter().zip(cvals.iter()).enumerate() {
            let allowed = b + b / 8 + tolerance::P99_SLACK_CYCLES;
            if c > allowed {
                violations.push(format!(
                    "workload={workload} stage={label}.{stage} metric=window_p99_cycles window={k} observed={c} baseline={b} allowed<={allowed}"
                ));
                break; // first offending window per stage is enough
            }
        }
    }
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

    #[test]
    fn identical_documents_pass() {
        let d = doc(&[0, 50, 100, 100], &[0, 1, 0, 0], &[2, 2, 2, 2]);
        assert!(shape_gate("t", &d, &d).unwrap().is_empty());
    }

    #[test]
    fn late_p99_ramp_trips_window_rule() {
        let base = doc(&[0, 50, 100, 100], &[0, 0, 0, 0], &[2, 2, 2, 2]);
        // +12 cycles from window 2 on: under the flight gate's 1.25x+16
        // aggregate slack, over the windowed 1/8+8 bound.
        let cur = doc(&[0, 50, 100, 100], &[0, 0, 0, 0], &[2, 2, 14, 14]);
        let v = shape_gate("t", &base, &cur).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("metric=window_p99_cycles"), "{}", v[0]);
        assert!(v[0].contains("window=2"), "{}", v[0]);
    }

    #[test]
    fn slow_ramp_trips_time_to_steady() {
        let base = doc(&[0, 90, 100, 100, 100, 100], &[0; 6], &[2; 6]);
        let cur = doc(&[0, 5, 10, 20, 40, 100], &[0; 6], &[2; 6]);
        let v = shape_gate("t", &base, &cur).unwrap();
        assert!(
            v.iter().any(|l| l.contains("metric=time_to_steady_windows")),
            "{v:?}"
        );
    }

    #[test]
    fn retransmit_storm_trips_ceiling() {
        let base = doc(&[100; 4], &[0, 1, 0, 0], &[2; 4]);
        let cur = doc(&[100; 4], &[0, 1, 40, 0], &[2; 4]);
        let v = shape_gate("t", &base, &cur).unwrap();
        assert!(v.iter().any(|l| l.contains("metric=retransmits_window_max")), "{v:?}");
    }

    #[test]
    fn mid_run_dip_trips_steady_variance() {
        let base = doc(&[0, 100, 100, 100, 100, 100], &[0; 6], &[2; 6]);
        // Same endpoints, same total ramp — but a hole in the middle.
        let cur = doc(&[0, 100, 100, 5, 100, 100], &[0; 6], &[2; 6]);
        let v = shape_gate("t", &base, &cur).unwrap();
        assert!(
            v.iter().any(|l| l.contains("metric=steady_goodput_deviation_permille")),
            "{v:?}"
        );
    }

    #[test]
    fn missing_section_is_a_violation() {
        let base = doc(&[100; 4], &[0; 4], &[2; 4]);
        let cur = base.replace("\"a\":", "\"b\":");
        let v = shape_gate("t", &base, &cur).unwrap();
        assert!(v.iter().any(|l| l.contains("metric=section")), "{v:?}");
    }
}
