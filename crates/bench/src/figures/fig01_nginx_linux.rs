//! Figure 1: CPU utilization and performance of Nginx on Linux.
//!
//! (a) 37 % of CPU cycles go to the TCP stack; (b) Nginx on Linux cannot
//! saturate 100 Gbps — it peaks at a few hundred thousand requests per
//! second per core. Both sides come from the calibrated Linux model
//! (anchored at the paper's own measured points; see DESIGN.md §5).

use crate::{banner, f, Table, Windows};
use f4t_host::{CpuCategory, LinuxModel};
use f4t_system::LinuxSystem;

pub fn report(w: Windows) -> String {
    let mut out = banner("Fig. 1", "CPU utilization and performance of Nginx on Linux", w);

    out += "(a) CPU utilization breakdown (fully loaded core):\n";
    let acc = LinuxModel::nginx_breakdown();
    let mut t = Table::new(&["category", "share (%)"]);
    t.row(&["application".to_string(), f(acc.fraction(CpuCategory::App) * 100.0, 1)]);
    t.row(&["tcp stack".to_string(), f(acc.fraction(CpuCategory::Tcp) * 100.0, 1)]);
    t.row(&["other kernel".to_string(), f(acc.fraction(CpuCategory::Kernel) * 100.0, 1)]);
    out += &t.render();
    out += "\n";

    out += "(b) Nginx request rate and goodput on Linux (256 B responses):\n";
    let mut t = Table::new(&["cores", "krps", "goodput (Gbps)", "% of 100G"]);
    for cores in [1u32, 2, 4, 8] {
        let rps = LinuxSystem::nginx_rps(cores, 1024);
        let gbps = rps * 256.0 * 8.0 / 1e9;
        t.row(&[cores.to_string(), f(rps / 1e3, 0), f(gbps, 2), f(gbps, 2)]);
    }
    out += &t.render();
    out += "\n";
    out += "Paper: TCP stack consumes 37% of cycles; Nginx achieves only a few\n\
            million requests/s and cannot saturate the 100 Gbps link.\n";
    out
}
