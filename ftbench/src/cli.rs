//! Command line of `ftbench`.

use crate::e2e::Budget;
use crate::workloads::{Size, Workload};

/// Usage text.
pub const USAGE: &str = "\
usage: sh ftbench/run.sh [--seed N] [--reps R] [--quick] [--out-dir DIR]
           build, run every workload (one child process each), check the
           outputs, print every metric and write DIR/BENCH.json
       sh ftbench/run.sh --selfcheck [--seed N] [--reps R] [--quick]
           A/A: run the whole set twice and compare it with itself
       sh ftbench/run.sh --workload W --seed N --seconds S --trace 0|1
           one workload in this process; the last line of standard output
           is one JSON object {correct, attempted, failed, metrics} with the
           end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)

  --seed N      workload seed (default 11)
  --reps R      timed reps per workload (default 5; overrides --seconds)
  --seconds S   keep starting timed reps for S seconds, at least 3 reps
  --quick       quarter-size workloads, 1 rep: a smoke run whose numbers are
                not comparable with any full-size record
  --trace 2     both phases in one process (what the full run's children use)
  --detail      add quartiles, sample counts, digest and findings to the line
  --out-dir DIR where traces and BENCH.json go (default ftbench/out)
workloads: bulk-128 echo-4k scale-64k churn-storm";

/// Which phases a single-workload run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phases {
    /// Untraced timed reps: the end-to-end metrics.
    EndToEnd,
    /// Plain, traced, armed, sharded and standalone runs: the per-layer
    /// metrics.
    Layers,
    /// Both, end-to-end first.
    Both,
}

/// Arguments of a single-workload run.
#[derive(Debug, Clone)]
pub struct OneArgs {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// How long the end-to-end phase measures.
    pub budget: Budget,
    /// Phases to run.
    pub phases: Phases,
    /// Work per rep (`--quick`: a quarter).
    pub size: Size,
    /// Print the detailed line.
    pub detail: bool,
    /// Output directory.
    pub out_dir: String,
}

/// Arguments of a whole-set run.
#[derive(Debug, Clone)]
pub struct FullArgs {
    /// Workload seed.
    pub seed: u64,
    /// Timed reps per workload.
    pub reps: usize,
    /// Quarter-size smoke run.
    pub quick: bool,
    /// Output directory.
    pub out_dir: String,
}

/// What to do.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Print usage.
    Help,
    /// One workload in this process.
    One(OneArgs),
    /// Every workload, one child each.
    Full(FullArgs),
    /// The whole set twice.
    SelfCheck(FullArgs),
}

/// Default seed: this PR's number in the stacked sequence.
pub const DEFAULT_SEED: u64 = 11;
/// Default timed reps of a full run.
pub const DEFAULT_REPS: usize = 5;

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Names the offending flag or value.
pub fn parse(args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: Option<f64> = None;
    let mut reps: Option<usize> = None;
    let mut trace = 0u8;
    let (mut quick, mut detail, mut selfcheck) = (false, false, false);
    let mut out_dir = String::from("ftbench/out");
    let mut it = args;
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "-h" | "--help" => return Ok(Mode::Help),
            "--workload" => {
                let v = value("a workload name")?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = num(&value("a number")?, "--seed")?,
            "--seconds" => {
                let s: f64 = num(&value("a number")?, "--seconds")?;
                if !(0.0..=3_600.0).contains(&s) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--reps" => {
                let r: usize = num(&value("a number")?, "--reps")?;
                if r == 0 || r > 1_000 {
                    return Err(format!("--reps {r} out of range"));
                }
                reps = Some(r);
            }
            "--trace" => {
                trace = num(&value("0, 1 or 2")?, "--trace")?;
                if trace > 2 {
                    return Err(format!("--trace {trace}: expected 0, 1 or 2"));
                }
            }
            "--out-dir" => out_dir = value("a directory")?,
            "--quick" => quick = true,
            "--detail" => detail = true,
            "--selfcheck" => selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let full = || FullArgs {
        seed,
        reps: reps.unwrap_or(if quick { 1 } else { DEFAULT_REPS }),
        quick,
        out_dir: out_dir.clone(),
    };
    match (workload, selfcheck) {
        (Some(_), true) => Err("--selfcheck runs every workload; drop --workload".into()),
        (None, true) => Ok(Mode::SelfCheck(full())),
        (None, false) => Ok(Mode::Full(full())),
        (Some(workload), false) => Ok(Mode::One(OneArgs {
            workload,
            seed,
            budget: match (reps, seconds) {
                (Some(r), _) => Budget::Reps(r),
                (None, Some(s)) => Budget::Seconds(s),
                (None, None) => Budget::Reps(if quick { 1 } else { DEFAULT_REPS }),
            },
            phases: [Phases::EndToEnd, Phases::Layers, Phases::Both][usize::from(trace)],
            size: if quick { Size::Quarter } else { Size::Full },
            detail,
            out_dir,
        })),
    }
}

fn num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Mode, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn contract_invocation_parses() {
        let Ok(Mode::One(a)) = p(&[
            "--workload",
            "echo-4k",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]) else {
            panic!("expected a single-workload run");
        };
        assert_eq!(
            (a.workload, a.seed, a.phases),
            (Workload::Echo4k, 7, Phases::Layers)
        );
        assert!(matches!(a.budget, Budget::Seconds(s) if s == 20.0));
        assert!(a.size == Size::Full && !a.detail);
    }

    #[test]
    fn defaults_and_modes() {
        let Ok(Mode::Full(f)) = p(&[]) else {
            panic!("expected a full run")
        };
        assert_eq!(
            (f.seed, f.reps, f.quick),
            (DEFAULT_SEED, DEFAULT_REPS, false)
        );
        let Ok(Mode::SelfCheck(f)) = p(&["--selfcheck", "--quick", "--seed", "12"]) else {
            panic!("expected a self-check")
        };
        assert_eq!((f.seed, f.reps, f.quick), (12, 1, true));
        assert!(matches!(p(&["--help"]), Ok(Mode::Help)));
    }

    #[test]
    fn bad_input_is_named() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--trace", "3"],
            &["--reps", "0"],
            &["--seconds", "-1"],
            &["--bogus"],
            &["--selfcheck", "--workload", "echo-4k"],
        ] {
            assert!(p(bad).is_err(), "{bad:?}");
        }
    }
}
