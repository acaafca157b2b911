//! Figure 8: throughput with different request patterns.
//!
//! (a) bulk data transfer (iperf, one flow per core) and (b) round-robin
//! requests (16 flows per core), both with 64 B and 128 B requests, Linux
//! vs F4T, sweeping core counts. F4T numbers come from the full system
//! simulation; Linux from the calibrated model.

use crate::{banner, f, Table, Windows};
use f4t_core::EngineConfig;
use f4t_system::{F4tSystem, LinuxSystem, Metrics};

/// One F4T point: `cores` cores of bulk (one flow each) or round-robin
/// (16 flows each) `size`-byte requests.
pub fn f4t_point(cores: usize, rr: bool, size: u32, w: Windows) -> Metrics {
    let mut sys = if rr {
        F4tSystem::round_robin(cores, 16, size, EngineConfig::reference())
    } else {
        F4tSystem::bulk(cores, size, EngineConfig::reference())
    };
    // Unscaled warm-up, as in Fig. 16: the command rings fill first.
    sys.measure(200_000, w.scale_ns(600_000))
}

pub fn report(w: Windows) -> String {
    let mut out = banner("Fig. 8", "throughput with different request patterns (goodput, Gbps)", w);
    let window = w.scale_ns(600_000);
    for (name, rr) in [("(a) bulk data transfer", false), ("(b) round-robin requests", true)] {
        out += &format!("{name}:\n");
        let mut t = Table::new(&[
            "cores",
            "Linux 64B",
            "Linux 128B",
            "F4T 64B",
            "F4T 64B Mrps",
            "F4T 128B",
            "F4T 128B Mrps",
        ]);
        for cores in [1usize, 2, 4, 8] {
            let mut cells = vec![cores.to_string()];
            for size in [64u32, 128] {
                let linux = if rr {
                    LinuxSystem::round_robin(cores as u32, size, window)
                } else {
                    LinuxSystem::bulk(cores as u32, size, window)
                };
                cells.push(f(linux.goodput_gbps(), 2));
            }
            for size in [64u32, 128] {
                let m = f4t_point(cores, rr, size, w);
                cells.push(f(m.goodput_gbps(), 1));
                cells.push(f(m.mrps(), 1));
            }
            t.row(&cells);
        }
        out += &t.render();
        out += "\n";
    }
    out += "Paper anchors: bulk/128B — Linux 8.3 Gbps at 8 cores; F4T 45 Gbps\n\
            (44 Mrps) at 1 core, 87 Gbps at 2, saturating at 92.6 Gbps.\n\
            Round-robin/128B — Linux 0.126→0.833 Gbps; F4T 35→90 Gbps.\n";
    out
}
