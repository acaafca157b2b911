//! One workload in this process: the unit the contract's driver invokes
//! and the unit a full run spawns once per workload (so each workload's
//! peak RSS is its own).

use crate::cli::{OneArgs, Phases};
use crate::e2e::{end_to_end, Measured};
use crate::json::Value;
use crate::layers::layers;
use crate::spec::{END_TO_END, FAILED_SHARE, PER_LAYER};
use crate::workloads::Size;

fn metric(m: Measured, unit: &str, detail: bool) -> Value {
    let mut v = Value::obj();
    v.set("value", m.value.into());
    v.set("unit", unit.into());
    if detail {
        v.set("q1", m.q1.into());
        v.set("q3", m.q3.into());
        v.set("n", (m.n as u64).into());
    }
    v
}

/// Runs the requested phases of one workload and prints the result as
/// the last line of standard output. Returns the process exit code:
/// 0 when every check passed, 1 otherwise.
pub fn run(args: &OneArgs) -> i32 {
    let w = args.workload;
    let mut metrics = Value::obj();
    let mut info = Value::obj();
    info.set("workload", w.name().into());
    info.set("seed", args.seed.into());
    info.set("quick", (args.size != Size::Full).into());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems: Vec<String> = Vec::new();
    let mut plain = None;

    if args.phases != Phases::Layers {
        let e = end_to_end(w, args.seed, args.size, args.budget);
        for (spec, (name, m)) in END_TO_END.iter().zip(&e.metrics) {
            debug_assert_eq!(spec.name, *name);
            metrics.set(spec.name, metric(*m, spec.unit, args.detail));
        }
        attempted += e.attempted;
        failed += e.failed;
        problems.extend(e.problems.iter().cloned());
        info.set(FAILED_SHARE, e.failed_share.into());
        info.set("sim_digest", format!("{:016x}", e.digest).into());
        info.set("sim_latency_samples", e.latency_samples.into());
        info.set(
            "host_wall_s_samples",
            Value::Arr(e.wall_samples.iter().map(|&s| s.into()).collect()),
        );
        plain = Some((e.last, e.driver_share));
    }

    if args.phases != Phases::EndToEnd {
        match layers(w, args.seed, args.size, &args.out_dir, plain) {
            Ok(l) => {
                for spec in &PER_LAYER {
                    let m = Measured::exact(l.metrics[spec.name], 1);
                    metrics.set(spec.name, metric(m, spec.unit, args.detail));
                }
                attempted += l.attempted;
                failed += l.failed;
                problems.extend(l.problems);
                info.set("layers_sim_digest", format!("{:016x}", l.digest).into());
                info.set("trace", l.trace_path.into());
                info.set(
                    "advisories",
                    Value::Arr(l.advisories.into_iter().map(Value::from).collect()),
                );
            }
            Err(e) => {
                eprintln!("ftbench: {e}");
                return 2;
            }
        }
    }

    let correct = problems.is_empty() && failed == 0;
    for p in &problems {
        println!("FAILED CHECK [{}]: {p}", w.name());
    }
    let mut line = Value::obj();
    line.set("correct", correct.into());
    line.set("attempted", attempted.into());
    line.set("failed", failed.into());
    line.set("metrics", metrics);
    if args.detail {
        info.set(
            "problems",
            Value::Arr(problems.into_iter().map(Value::from).collect()),
        );
        line.set("info", info);
    }
    println!("{}", line.to_compact());
    i32::from(!correct)
}
