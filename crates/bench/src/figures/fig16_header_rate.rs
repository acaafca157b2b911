//! Figure 16: header processing rate without the link bottleneck (§6).
//!
//! The paper connects two FtEngines inside one FPGA and strips payloads
//! to study raw header/command processing. We reproduce it by running the
//! system with 1-byte requests over an effectively infinite link:
//!
//! * (a) rate vs CPU core count, 16 B vs 8 B commands — 16 B saturates
//!   PCIe, 8 B scales to ~900 Mrps;
//! * (b) intermediate designs at 24 cores — Baseline (17-cycle stalls),
//!   1FPC, 1FPC-C (+ event coalescing), F4T (8 FPCs + coalescing), for
//!   bulk and round-robin patterns.

use crate::{banner, f, Table, Windows};
use f4t_baseline::StallingEngine;
use f4t_core::EngineConfig;
use f4t_system::{DuplexLink, F4tSystem};

/// Header rate in Mrps: `cores` cores of 1-byte bulk (one flow each) or
/// round-robin (16 flows each) requests with `compact` 8 B commands (16 B
/// otherwise), over a link with no bottleneck.
pub fn header_rate(cores: usize, rr: bool, cfg: EngineConfig, compact: bool, w: Windows) -> f64 {
    let mut sys = if rr {
        F4tSystem::round_robin(cores, 16, 1, cfg)
    } else {
        F4tSystem::bulk(cores, 1, cfg)
    };
    // Remove the link bottleneck (10 Tbps, 200 ns).
    sys.set_link(DuplexLink::new(10_000, 200));
    if compact {
        sys.a.use_compact_commands();
        sys.b.use_compact_commands();
    }
    // The warm-up is not scaled: 24 cores' command rings are still
    // filling after a quick 50 µs one, and a request counts when queued.
    sys.measure(200_000, w.scale_ns(400_000)).mrps()
}

/// The stalling Baseline's command rate in Mrps: it absorbs commands at
/// 250 MHz / 17.
pub fn baseline_rate(w: Windows) -> f64 {
    let mut e = StallingEngine::baseline_250mhz();
    for _ in 0..w.scale_ns(1_000_000) / 4 {
        e.offer_event();
        e.tick();
    }
    e.measured_rate() / 1e6
}

/// Panel (b)'s designs past Baseline, by name: one FPC, one FPC with
/// event coalescing, and F4T (8 FPCs with coalescing).
pub fn designs() -> [(&'static str, EngineConfig); 3] {
    let one_fpc = |coalescing| EngineConfig {
        num_fpcs: 1,
        lut_groups: 1,
        coalescing,
        ..EngineConfig::reference()
    };
    [
        ("1FPC", one_fpc(false)),
        ("1FPC-C (+coalescing)", one_fpc(true)),
        ("F4T (8 FPCs + C)", EngineConfig::reference()),
    ]
}

pub fn report(w: Windows) -> String {
    let mut out = banner("Fig. 16", "header processing rate (no link bottleneck)", w);
    out += "(a) rate vs core count, bulk pattern (Mrps):\n";
    let mut t = Table::new(&["cores", "16B commands", "8B commands"]);
    for cores in [1usize, 4, 8, 16, 24] {
        let m16 = header_rate(cores, false, EngineConfig::reference(), false, w);
        let m8 = header_rate(cores, false, EngineConfig::reference(), true, w);
        t.row(&[cores.to_string(), f(m16, 0), f(m8, 0)]);
    }
    out += &t.render();
    out += "\n(b) intermediate designs at 24 cores (Mrps, 8B commands):\n";
    let baseline = baseline_rate(w);
    let mut t = Table::new(&["design", "bulk", "bulk gain", "round-robin", "rr gain"]);
    t.row(&[
        "Baseline (w-RMW, 17 cyc)".to_string(),
        f(baseline, 1),
        "1.0x".to_string(),
        f(baseline, 1),
        "1.0x".to_string(),
    ]);
    for (name, cfg) in designs() {
        let bulk = header_rate(24, false, cfg.clone(), true, w);
        let rr = header_rate(24, true, cfg, true, w);
        t.row(&[
            name.to_string(),
            f(bulk, 1),
            format!("{:.1}x", bulk / baseline),
            f(rr, 1),
            format!("{:.1}x", rr / baseline),
        ]);
    }
    out += &t.render();
    out += "\n\
            Paper: 1FPC = 8.6x/8.4x over Baseline; coalescing lifts bulk to\n\
            62.3x (but rr only 8.6x); 8 parallel FPCs lift both to 63.1x/71.3x.\n\
            (a): 16 B commands saturate PCIe; 8 B scale linearly to ~900 Mrps.\n";
    out
}
