//! Figure 10: request processing rate of Nginx, F4T vs Linux.
//!
//! wrk drives keep-alive connections against an Nginx-model server; the
//! server runs 1–4 cores; the x-axis is the connection count, saturating
//! around 256 flows. Paper headline: F4T reaches 2.6–2.8× Linux at the
//! saturation point.

use crate::{banner, f, Table, Windows};
use f4t_core::EngineConfig;
use f4t_system::{F4tSystem, LinuxSystem};

/// Requests/s an F4T Nginx server on `cores` cores serves over `flows`
/// connections.
pub fn f4t_rps(cores: usize, flows: usize, w: Windows) -> f64 {
    let window = w.scale_ns(2_000_000);
    // Generous client side so the server is the bottleneck.
    let client_cores = (cores * 2).max(2);
    let mut sys = F4tSystem::http(client_cores, cores, flows, EngineConfig::reference());
    sys.run_ns(w.scale_ns(400_000));
    let served0 = sys.server_requests();
    sys.run_ns(window);
    (sys.server_requests() - served0) as f64 * 1e9 / window as f64
}

pub fn report(w: Windows) -> String {
    let mut out = banner("Fig. 10", "Nginx request rate (krps), F4T vs Linux", w);
    for cores in [1usize, 2, 4] {
        out += &format!("{cores} server core(s):\n");
        let mut t = Table::new(&["flows", "Linux (krps)", "F4T (krps)", "speedup"]);
        for flows in [16usize, 64, 256, 1024] {
            let f4t_rps = f4t_rps(cores, flows, w);
            let linux_rps = LinuxSystem::nginx_rps(cores as u32, flows as u32);
            t.row(&[
                flows.to_string(),
                f(linux_rps / 1e3, 0),
                f(f4t_rps / 1e3, 0),
                format!("{:.2}x", f4t_rps / linux_rps),
            ]);
        }
        out += &t.render();
        out += "\n";
    }
    out += "Paper: F4T reaches 2.6-2.8x Linux's request rate at the saturation\n\
            point (256 flows), for 1-4 cores; F4T also saturates at fewer flows\n\
            thanks to its lower latency.\n";
    out
}
