//! Figure 13: 128 B echo request rate vs number of flows.
//!
//! The connectivity result (§5.3): ping-pong over up to 64 K flows, the
//! worst case for TCB locality. F4T holds 1024 flows in FPC SRAM; beyond
//! that every request forces DRAM traffic — DDR4 (38 GB/s) throttles,
//! HBM (460 GB/s) does not. Linux supports the flows but at a far lower
//! rate. Eight cores on each side, as in the paper.

use crate::{banner, f, Table, Windows};
use f4t_core::EngineConfig;
use f4t_mem::DramKind;
use f4t_system::{F4tSystem, LinuxSystem, Metrics};

/// Cores on each side.
const CORES: usize = 8;

/// One F4T point: 128 B echo over `flows` flows with `dram` behind the
/// TCB store.
pub fn f4t_point(flows: usize, dram: DramKind, w: Windows) -> Metrics {
    // Long windows: the DDR4-throttled regime includes loss-recovery
    // cycles at RTO timescales (~10 ms), which short windows miss.
    let cfg = EngineConfig { dram, ..EngineConfig::reference() };
    let mut sys = F4tSystem::echo(CORES, flows, 128, cfg);
    sys.measure(w.scale_ns(4_000_000), w.scale_ns(16_000_000))
}

pub fn report(w: Windows) -> String {
    let mut out = banner("Fig. 13", "128 B echo request rate vs flow count (8 cores)", w);
    let flows_sweep: &[usize] =
        if w.quick() { &[64, 1024, 4096] } else { &[64, 256, 1024, 4096, 16_384, 65_536] };

    let mut t = Table::new(&[
        "flows",
        "Linux (Mrps)",
        "F4T-DDR4 (Mrps)",
        "F4T-HBM (Mrps)",
        "DDR4 migr/req",
        "HBM/Linux",
    ]);
    for &flows in flows_sweep {
        let linux_rps = LinuxSystem::echo_rps(CORES as u32, flows as u32);
        let ddr = f4t_point(flows, DramKind::Ddr4, w);
        let hbm = f4t_point(flows, DramKind::Hbm, w);
        t.row(&[
            flows.to_string(),
            f(linux_rps / 1e6, 2),
            f(ddr.mrps(), 2),
            f(hbm.mrps(), 2),
            f(ddr.migrations as f64 / ddr.requests.max(1) as f64, 2),
            format!("{:.0}x", hbm.mrps() * 1e6 / linux_rps),
        ]);
    }
    out += &t.render();
    out += "\n\
            Paper: F4T beats Linux at every flow count (20x at 1K flows);\n\
            F4T-DDR4 drops once active flows exceed the 1024 SRAM-resident\n\
            TCBs (DRAM-bandwidth throttled), while F4T-HBM stays high —\n\
            12x and 44x Linux respectively at 64K flows.\n";
    out
}
