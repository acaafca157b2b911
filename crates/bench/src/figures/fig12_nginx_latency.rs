//! Figure 12: median and 99th-percentile latency of Nginx.
//!
//! Same setup as Fig. 11 (one server core, 64 connections). F4T latency
//! is measured end to end in the system simulation; Linux latency comes
//! from the calibrated closed-loop queueing model with its heavy
//! softirq/scheduling tail. The paper reports ratios: 3.7× shorter
//! median, 26× shorter 99th percentile under F4T.

use crate::{banner, f, Table, Windows};
use f4t_core::EngineConfig;
use f4t_system::{F4tSystem, LinuxSystem, Metrics};

/// The F4T Nginx run (one server core, 64 connections).
pub fn f4t_point(w: Windows) -> Metrics {
    let mut sys = F4tSystem::http(2, 1, 64, EngineConfig::reference());
    sys.measure(w.scale_ns(400_000), w.scale_ns(4_000_000))
}

pub fn report(w: Windows) -> String {
    let mut out = banner("Fig. 12", "Nginx latency (1 core, 64 flows)", w);
    let m = f4t_point(w);
    let f4t_med = m.median_latency_us();
    let f4t_p99 = m.p99_latency_us();

    let linux = LinuxSystem::nginx_latency(1, 64, 0xF47);
    let linux_med = linux.percentile(50.0) as f64 / 1e3;
    let linux_p99 = linux.percentile(99.0) as f64 / 1e3;

    let mut t = Table::new(&["stack", "median (µs)", "p99 (µs)", "samples"]);
    t.row(&["Linux".to_string(), f(linux_med, 1), f(linux_p99, 1), linux.count().to_string()]);
    t.row(&["F4T".to_string(), f(f4t_med, 1), f(f4t_p99, 1), m.latency.count().to_string()]);
    out += &t.render();
    out += "\n";
    out += &format!("median ratio (Linux/F4T): {:.1}x   (paper: 3.7x)\n", linux_med / f4t_med);
    out += &format!("p99 ratio    (Linux/F4T): {:.1}x   (paper: 26x)\n", linux_p99 / f4t_p99);
    out += "\n\
            Paper: although FtEngine delays event processing (round-robin\n\
            accumulation), its end-to-end latency is far below Linux's.\n";
    out
}
