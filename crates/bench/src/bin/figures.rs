//! Regenerates the paper's evaluation: every figure and table report, or
//! only the named ones, in table order.
//!
//! ```text
//! cargo run --release -q -p f4t-bench --bin figures
//! cargo run --release -q -p f4t-bench --bin figures -- fig15_versatility ablations
//! ```
//!
//! `F4T_QUICK=1` runs the quick windows (~10× shorter). An unknown name
//! exits 2 and lists the valid ones.

use f4t_bench::figures::REPORTS;
use f4t_bench::Windows;

fn main() {
    let quick = std::env::var("F4T_QUICK").is_ok_and(|v| v != "0");
    let w = if quick { Windows::Quick } else { Windows::Full };
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = names.iter().find(|n| !REPORTS.iter().any(|(name, _)| name == n)) {
        let valid: Vec<&str> = REPORTS.iter().map(|(name, _)| *name).collect();
        eprintln!("figures: unknown report `{bad}`; valid names: {}", valid.join(" "));
        std::process::exit(2);
    }
    for (name, report) in REPORTS {
        if names.is_empty() || names.iter().any(|n| n == name) {
            print!("{}", report(w));
        }
    }
}
