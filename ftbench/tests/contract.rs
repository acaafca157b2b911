//! `BENCHMARK.json`, the tables in `src/spec.rs` and what the program
//! actually prints must name the same workloads and metrics — no more,
//! no fewer. The runs here are `--quick` (quarter size, 1 rep).

use ftbench::json::{self, Value};
use ftbench::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::Command;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Value {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn names(list: &Value) -> Vec<String> {
    list.as_arr()
        .expect("an array")
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_spec_tables() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);

    let workloads = doc.get("workloads").expect("workloads");
    for (entry, spec) in workloads.as_arr().expect("array").iter().zip(&WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(entry.get("name").and_then(Value::as_str), Some(spec.name));
        assert_eq!(entry.get("why").and_then(Value::as_str), Some(spec.why));
    }
    assert_eq!(names(workloads).len(), WORKLOADS.len());

    let e2e = doc.get("end_to_end").expect("end_to_end");
    assert_eq!(names(e2e).len(), END_TO_END.len());
    for (entry, spec) in e2e.as_arr().expect("array").iter().zip(&END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(entry.get("name").and_then(Value::as_str), Some(spec.name));
        assert_eq!(
            entry.get("unit").and_then(Value::as_str),
            Some(spec.unit),
            "{}",
            spec.name
        );
        assert_eq!(
            entry.get("better").and_then(Value::as_str),
            Some(spec.better.as_str())
        );
        assert_eq!(
            entry.get("bound").and_then(Value::as_f64),
            Some(spec.bound),
            "{}",
            spec.name
        );
    }

    let layers = doc.get("per_layer").expect("per_layer");
    assert_eq!(names(layers).len(), PER_LAYER.len());
    for (entry, spec) in layers.as_arr().expect("array").iter().zip(&PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(entry.get("name").and_then(Value::as_str), Some(spec.name));
        assert_eq!(
            entry.get("unit").and_then(Value::as_str),
            Some(spec.unit),
            "{}",
            spec.name
        );
        assert_eq!(
            entry.get("better").and_then(Value::as_str),
            Some(spec.better.as_str())
        );
    }
}

fn ftbench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ftbench"))
        .args(args)
        .current_dir(manifest_dir().join(".."))
        .output()
        .expect("ftbench runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// The record of a `--quick` run of the whole set: the one `ci.sh` just
/// made, when it says where, else a fresh one.
fn quick_record() -> Value {
    let path = match std::env::var("FTBENCH_QUICK_RECORD") {
        Ok(p) => manifest_dir().join("..").join(p),
        Err(_) => {
            let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick");
            let (ok, stdout) =
                ftbench(&["--quick", "--out-dir", dir.to_str().expect("utf-8 path")]);
            assert!(ok, "quick run failed:\n{stdout}");
            dir.join("BENCH.json")
        }
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).expect("record parses")
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "simulates tens of milliseconds of engine time: use --release"
)]
fn quick_run_emits_exactly_the_listed_names() {
    let doc = benchmark_json();
    let record = quick_record();
    assert_eq!(
        record.get("comparable").and_then(Value::as_bool),
        Some(false),
        "a quick record must be marked non-comparable"
    );
    let meta = record.get("meta").expect("meta");
    for key in ["host_cpus", "rustc", "profile", "commit", "seed"] {
        assert!(meta.get(key).is_some(), "meta.{key}");
    }
    let workloads = record.get("workloads").expect("workloads");
    assert_eq!(
        keys(workloads),
        names(doc.get("workloads").expect("workloads"))
    );
    for (name, w) in workloads.as_obj().expect("object") {
        assert_eq!(
            w.get("correct").and_then(Value::as_bool),
            Some(true),
            "{name}"
        );
        assert_eq!(w.get("failed").and_then(Value::as_f64), Some(0.0), "{name}");
        for table in ["end_to_end", "per_layer"] {
            let got = w.get(table).expect(table);
            assert_eq!(
                keys(got),
                names(doc.get(table).expect(table)),
                "{name} {table}"
            );
            for (metric, v) in got.as_obj().expect("object") {
                let value = v.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{name} {metric} = {value:?}"
                );
            }
        }
        let shares: f64 = w
            .get("per_layer")
            .and_then(Value::as_obj)
            .expect("per_layer")
            .iter()
            .filter(|(k, _)| k.starts_with("attrib.") || k == "driver.host_share")
            .map(|(_, v)| v.get("value").and_then(Value::as_f64).expect("a number"))
            .sum();
        assert!(
            (shares - 1.0).abs() < 0.01,
            "{name}: shares sum to {shares}"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "simulates milliseconds of engine time: use --release"
)]
fn result_line_has_exactly_the_contract_keys() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("line");
    let dir = dir.to_str().expect("utf-8 path");
    for (trace, specs) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        let (ok, stdout) = ftbench(&[
            "--workload",
            "churn-storm",
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--quick",
            "--out-dir",
            dir,
        ]);
        assert!(ok, "{stdout}");
        let line = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        assert!(line
            .get("attempted")
            .and_then(Value::as_f64)
            .is_some_and(|a| a >= 1.0));
        let metrics = line.get("metrics").expect("metrics");
        assert_eq!(
            keys(metrics),
            specs.iter().map(|s| s.name).collect::<Vec<_>>()
        );
        for (spec, (_, m)) in specs.iter().zip(metrics.as_obj().expect("object")) {
            assert_eq!(keys(m), ["value", "unit"], "{}", spec.name);
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(spec.unit));
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let (ok, stdout) = ftbench(&["--workload", "no-such-workload"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
}
