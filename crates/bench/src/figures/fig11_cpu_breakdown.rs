//! Figure 11: CPU utilization breakdown of Nginx (1 core, 64 flows).
//!
//! Linux spends 37 % of its cycles in the TCP stack; F4T removes all of
//! them, leaving the application with 2.8× the cycles (and the remaining
//! kernel share is filesystem access, e.g. vfs_read).

use crate::{banner, f, Table, Windows};
use f4t_core::EngineConfig;
use f4t_host::{CpuAccounting, CpuCategory, LinuxModel};
use f4t_system::F4tSystem;

/// The F4T Nginx server core's CPU cycles over one measurement window.
pub fn f4t_accounting(w: Windows) -> CpuAccounting {
    let mut sys = F4tSystem::http(2, 1, 64, EngineConfig::reference());
    sys.run_ns(w.scale_ns(400_000));
    let before = sys.b.total_accounting();
    sys.run_ns(w.scale_ns(2_000_000));
    let after = sys.b.total_accounting();
    CpuAccounting {
        app: after.app - before.app,
        tcp: after.tcp - before.tcp,
        kernel: after.kernel - before.kernel,
        lib: after.lib - before.lib,
        idle: after.idle - before.idle,
    }
}

/// Category `c`'s percentage of `a`'s busy cycles (the paper's bars
/// exclude idle).
fn busy(a: &CpuAccounting, c: CpuCategory) -> f64 {
    let total = a.app + a.tcp + a.kernel + a.lib;
    if total == 0 {
        return 0.0;
    }
    let v: u64 = match c {
        CpuCategory::App => a.app,
        CpuCategory::Tcp => a.tcp,
        CpuCategory::Kernel => a.kernel,
        CpuCategory::F4tLib => a.lib,
        CpuCategory::Idle => 0,
    };
    v as f64 * 100.0 / total as f64
}

pub fn report(w: Windows) -> String {
    let mut out = banner("Fig. 11", "CPU utilization breakdown of Nginx (1 core, 64 flows)", w);
    // Linux side: the calibrated model's per-request budget; F4T side:
    // the server node's accounting in simulation.
    let linux = LinuxModel::nginx_breakdown();
    let f4t = f4t_accounting(w);

    let mut t = Table::new(&["category", "Linux (%)", "F4T (%)"]);
    for (name, c) in [
        ("application", CpuCategory::App),
        ("kernel TCP", CpuCategory::Tcp),
        ("other kernel (vfs, syscalls)", CpuCategory::Kernel),
        ("F4T library", CpuCategory::F4tLib),
    ] {
        t.row(&[name.to_string(), f(busy(&linux, c), 1), f(busy(&f4t, c), 1)]);
    }
    out += &t.render();
    out += "\n";

    // Application-cycle multiplier at equal wall time: the paper's 2.8×.
    let linux_app_frac = busy(&linux, CpuCategory::App) / 100.0;
    let f4t_app_frac = busy(&f4t, CpuCategory::App) / 100.0;
    out += &format!(
        "application cycles per unit time: F4T/Linux = {:.2}x (paper: 2.8x)\n",
        f4t_app_frac / linux_app_frac
    );
    out += "\n\
            Paper: F4T removes ALL kernel-TCP cycles and provides 2.8x CPU\n\
            cycles to the application; remaining kernel time is vfs_read.\n";
    out
}
