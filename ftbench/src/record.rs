//! The whole-set run: one child process per workload, folded into one
//! record that is printed as a table and written as JSON; and the A/A
//! self-check that runs the set twice and compares it with itself.

use crate::cli::FullArgs;
use crate::json::{self, Value};
use crate::spec::{MetricSpec, END_TO_END, FAILED_SHARE, PER_LAYER, WORKLOADS};
use std::process::{Command, Stdio};

/// Version of the record layout.
pub const SCHEMA: u64 = 1;

fn meta(args: &FullArgs) -> Value {
    let env = |k: &str| {
        std::env::var(k)
            .ok()
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    let mut m = Value::obj();
    m.set("seed", args.seed.into());
    m.set("reps", (args.reps as u64).into());
    m.set("quick", args.quick.into());
    m.set(
        "host_cpus",
        (std::thread::available_parallelism().map_or(1, |n| n.get()) as u64).into(),
    );
    m.set("rustc", env("FTBENCH_RUSTC").into());
    m.set("commit", env("FTBENCH_COMMIT").into());
    m.set(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .into(),
    );
    m.set(
        "clocks",
        "sim_* metrics and count/ratio/cycles rows are on the simulated clock and exact; host_*, setup_s and ns rows are wall-clock on this host; no real link or NIC is involved".into(),
    );
    m
}

/// Runs one workload in a child process and returns its detailed line.
fn run_child(name: &str, args: &FullArgs) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating ftbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        name,
        "--seed",
        &args.seed.to_string(),
        "--reps",
        &args.reps.to_string(),
    ])
    .args(["--trace", "2", "--detail", "--out-dir", &args.out_dir])
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("running {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().ok_or(format!(
        "{name}: child printed nothing (status {})",
        out.status
    ))?;
    for l in lines {
        println!("{l}");
    }
    let line = json::parse(last).map_err(|e| format!("{name}: unreadable result line: {e}"))?;
    // Exit 1 means "ran, but a check failed": the line says which.
    if !out.status.success() && out.status.code() != Some(1) {
        return Err(format!("{name}: child failed with {}", out.status));
    }
    Ok(line)
}

/// Splits a child's flat `metrics` object into the two tables.
fn workload_entry(line: &Value) -> Value {
    let metrics = line.get("metrics").cloned().unwrap_or_else(Value::obj);
    let pick = |specs: &[MetricSpec]| {
        let mut o = Value::obj();
        for s in specs {
            o.set(s.name, metrics.get(s.name).cloned().unwrap_or(Value::Null));
        }
        o
    };
    let info = |k: &str| {
        line.get("info")
            .and_then(|i| i.get(k))
            .cloned()
            .unwrap_or(Value::Null)
    };
    let mut w = Value::obj();
    for k in ["correct", "attempted", "failed"] {
        w.set(k, line.get(k).cloned().unwrap_or(Value::Null));
    }
    for k in [
        FAILED_SHARE,
        "sim_digest",
        "sim_latency_samples",
        "trace",
        "advisories",
        "problems",
    ] {
        w.set(k, info(k));
    }
    w.set("end_to_end", pick(&END_TO_END));
    w.set("per_layer", pick(&PER_LAYER));
    w
}

/// Runs every workload and returns the record.
fn run_set(args: &FullArgs) -> Result<Value, String> {
    let mut workloads = Value::obj();
    for spec in &WORKLOADS {
        eprintln!("ftbench: running {} ...", spec.name);
        workloads.set(spec.name, workload_entry(&run_child(spec.name, args)?));
    }
    let mut r = Value::obj();
    r.set("benchmark", "FtBench".into());
    r.set("schema", SCHEMA.into());
    // A quick run's numbers must never be compared with a full record's.
    r.set("comparable", (!args.quick).into());
    r.set("meta", meta(args));
    r.set("workloads", workloads);
    Ok(r)
}

fn num(v: Option<&Value>, key: &str) -> f64 {
    v.and_then(|m| m.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

/// Four significant digits, or the integer as it is.
fn fmt(v: f64) -> String {
    if v.is_nan() {
        "-".into()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        let decimals = (3 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
        format!("{v:.decimals$}")
    }
}

/// Prints every metric by name with unit, value, quartiles and count.
/// The value is the median of the samples, except for host times, where
/// it is the fastest-of estimate and the quartiles describe the raw reps.
fn print_record(r: &Value) {
    let meta = r.get("meta");
    println!(
        "FtBench  seed {}  reps {}  host_cpus {}  {}  commit {}{}",
        fmt(num(meta, "seed")),
        fmt(num(meta, "reps")),
        fmt(num(meta, "host_cpus")),
        meta.and_then(|m| m.get("rustc"))
            .and_then(Value::as_str)
            .unwrap_or("unknown"),
        meta.and_then(|m| m.get("commit"))
            .and_then(Value::as_str)
            .unwrap_or("unknown"),
        if r.get("comparable").and_then(Value::as_bool) == Some(false) {
            "  [QUICK: not comparable with full-size records]"
        } else {
            ""
        },
    );
    for spec in &WORKLOADS {
        let Some(w) = r.get("workloads").and_then(|ws| ws.get(spec.name)) else {
            continue;
        };
        println!(
            "\n== {}  correct={}  attempted={}  failed={}  {}={}  sim_digest={}",
            spec.name,
            w.get("correct").and_then(Value::as_bool).unwrap_or(false),
            fmt(num(Some(w), "attempted")),
            fmt(num(Some(w), "failed")),
            FAILED_SHARE,
            fmt(num(Some(w), FAILED_SHARE)),
            w.get("sim_digest").and_then(Value::as_str).unwrap_or("-"),
        );
        println!(
            "{:<46} {:>10} {:>14} {:>14} {:>14} {:>3}",
            "metric", "unit", "value", "q1", "q3", "n"
        );
        for (table, specs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for s in specs {
                let m = w.get(table).and_then(|t| t.get(s.name));
                println!(
                    "{:<46} {:>10} {:>14} {:>14} {:>14} {:>3}",
                    s.name,
                    s.unit,
                    fmt(num(m, "value")),
                    fmt(num(m, "q1")),
                    fmt(num(m, "q3")),
                    fmt(num(m, "n")),
                );
            }
        }
        for key in ["advisories", "problems"] {
            for a in w.get(key).and_then(Value::as_arr).unwrap_or(&[]) {
                println!("{key}: {}", a.as_str().unwrap_or("?"));
            }
        }
    }
}

fn all_correct(r: &Value) -> bool {
    WORKLOADS.iter().all(|s| {
        r.get("workloads")
            .and_then(|ws| ws.get(s.name))
            .and_then(|w| w.get("correct"))
            .and_then(Value::as_bool)
            == Some(true)
    })
}

/// Whether the workloads really stress different layers: the
/// cross-workload expectations a full-size record must meet.
fn cross_checks(r: &Value) -> Vec<String> {
    let layer = |w: &str, m: &str| {
        num(
            r.get("workloads")
                .and_then(|ws| ws.get(w))
                .and_then(|w| w.get("per_layer"))
                .and_then(|t| t.get(m)),
            "value",
        )
    };
    let mut out = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            out.push(what);
        }
    };
    for w in &WORKLOADS {
        let skip = layer(w.name, "engine.ff_skip_ratio");
        if w.name == "scale-64k" {
            expect(
                skip > 0.0,
                format!(
                    "{}: fast-forward never engaged (ff_skip_ratio {skip})",
                    w.name
                ),
            );
        } else {
            expect(
                skip == 0.0,
                format!("{}: ff_skip_ratio {skip}, expected 0 in lockstep", w.name),
            );
        }
    }
    let bulk = layer("bulk-128", "scheduler.migrations");
    expect(
        bulk == 0.0,
        format!("bulk-128: {bulk} migrations, expected none"),
    );
    let echo = layer("echo-4k", "scheduler.migrations");
    expect(
        echo > 1e5,
        format!("echo-4k: {echo} migrations, expected more than 1e5"),
    );
    out
}

fn write_record(r: &Value, path: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, r.to_pretty()).map_err(|e| format!("writing {path}: {e}"))
}

/// The default mode: run, print, write `<out-dir>/BENCH.json`.
pub fn run_full(args: &FullArgs) -> i32 {
    let record = match run_set(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ftbench: {e}");
            return 2;
        }
    };
    print_record(&record);
    // Quick runs are too short for the migration count to mean anything.
    let crossed = if args.quick {
        Vec::new()
    } else {
        cross_checks(&record)
    };
    for c in &crossed {
        println!("FAILED CHECK [record]: {c}");
    }
    let path = format!("{}/BENCH.json", args.out_dir);
    if let Err(e) = write_record(&record, &path) {
        eprintln!("ftbench: {e}");
        return 2;
    }
    println!("\nrecord written to {path}");
    i32::from(!all_correct(&record) || !crossed.is_empty())
}

/// A/A: two runs of the same code must agree within the benchmark's own
/// bounds — simulated metrics and digests exactly, host metrics within
/// their bound.
pub fn run_selfcheck(args: &FullArgs) -> i32 {
    let mut sets = Vec::new();
    for pass in ["A", "B"] {
        eprintln!("ftbench: self-check pass {pass}");
        match run_set(args) {
            Ok(r) => sets.push(r),
            Err(e) => {
                eprintln!("ftbench: {e}");
                return 2;
            }
        }
    }
    let (a, b) = (&sets[0], &sets[1]);
    let mut ok = all_correct(a) && all_correct(b);
    println!(
        "{:<12} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "value A", "value B", "diff", "bound"
    );
    for w in &WORKLOADS {
        let entry = |r: &'_ Value| r.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(wa), Some(wb)) = (entry(a), entry(b)) else {
            ok = false;
            continue;
        };
        let (da, db) = (wa.get("sim_digest"), wb.get("sim_digest"));
        if da != db || da.is_none() {
            println!("{:<12} sim_digest differs: {da:?} vs {db:?}", w.name);
            ok = false;
        }
        for s in &END_TO_END {
            let va = num(wa.get("end_to_end").and_then(|t| t.get(s.name)), "value");
            let vb = num(wb.get("end_to_end").and_then(|t| t.get(s.name)), "value");
            let exact = s.name.starts_with("sim_");
            let diff = if va == vb {
                0.0
            } else {
                (va - vb).abs() / va.abs().min(vb.abs())
            };
            let pass = if exact { va == vb } else { diff <= s.bound };
            ok &= pass;
            println!(
                "{:<12} {:<20} {:>14} {:>14} {:>8.2}% {:>6.0}%  {}",
                w.name,
                s.name,
                fmt(va),
                fmt(vb),
                diff * 100.0,
                if exact { 0.0 } else { s.bound * 100.0 },
                if pass { "ok" } else { "DIFFERS" },
            );
        }
    }
    let path = format!("{}/BENCH.json", args.out_dir);
    if let Err(e) = write_record(b, &path) {
        eprintln!("ftbench: {e}");
        return 2;
    }
    println!(
        "\nself-check {}; second pass written to {path}",
        if ok { "passed" } else { "FAILED" }
    );
    i32::from(!ok)
}
