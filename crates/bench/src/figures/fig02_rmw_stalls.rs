//! Figure 2: bulk data transfer performance, w-RMW vs w/o-RMW.
//!
//! The motivation experiment (§3.1): a design that stalls 17 cycles
//! between stateful events (derived from Limago, 322 MHz) against a
//! theoretical stall-free single-cycle design (derived from TONIC,
//! 100 MHz, granted arbitrary-length requests). No link bottleneck. Each
//! point runs the cycle models to convergence rather than multiplying
//! constants.

use crate::{banner, f, Table, Windows};
use f4t_baseline::{StallingEngine, TonicModel};

/// The request sizes of the figure's x-axis.
pub const SIZES: [u32; 9] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// The request rates (requests/s) of the w-RMW and the w/o-RMW design at
/// one request size.
pub fn rates(size: u32) -> (f64, f64) {
    // w-RMW: drive the stalling engine to saturation for 1 ms.
    let mut w = StallingEngine::limago();
    let cycles = w.clock().freq_hz() / 1_000;
    for _ in 0..cycles {
        w.offer_event();
        w.tick();
    }
    // w/o-RMW: one arbitrary-length event per cycle for 1 ms.
    let mut wo = TonicModel::without_rmw();
    for _ in 0..100_000 {
        wo.tick_with_request(size);
    }
    (w.measured_rate(), wo.processed() as f64 * 1e3) // per ms -> per s
}

pub fn report(w: Windows) -> String {
    let mut out = banner("Fig. 2", "bulk transfer throughput: w-RMW (stalls) vs w/o-RMW", w);
    let mut t = Table::new(&[
        "request (B)",
        "w-RMW (Mrps)",
        "w-RMW (Gbps)",
        "w/o-RMW (Mrps)",
        "w/o-RMW (Gbps)",
        "gap",
    ]);
    for size in SIZES {
        let (w_rate, wo_rate) = rates(size);
        let gbps = |rate: f64| f(rate * f64::from(size) * 8.0 / 1e9, 2);
        t.row(&[
            size.to_string(),
            f(w_rate / 1e6, 1),
            gbps(w_rate),
            f(wo_rate / 1e6, 1),
            gbps(wo_rate),
            format!("{:.1}x", wo_rate / w_rate),
        ]);
    }
    out += &t.render();
    out += "\n\
            Paper: the large, size-independent gap between w-RMW and w/o-RMW is\n\
            the performance lost to RMW stalls (~5.3x at every request size).\n";
    out
}
