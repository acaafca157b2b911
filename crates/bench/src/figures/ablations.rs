//! Ablations of F4T's design choices (beyond the paper's own Fig. 16b):
//!
//! * FPC count sweep (how much parallelism the round-robin pattern needs);
//! * event coalescing on/off at system level (same-flow vs multi-flow);
//! * TCB-cache size sweep under the echo workload;
//! * location-LUT partition count (routing bandwidth);
//! * TCB-manager scan policy (skip-idle priority encoder vs the paper's
//!   plain full iteration).
//!
//! Header rates are Fig. 16's with 8 B commands.

use super::fig16_header_rate::header_rate;
use crate::{banner, f, Table, Windows};
use f4t_core::fpc::ScanPolicy;
use f4t_core::EngineConfig;
use f4t_mem::DramKind;
use f4t_system::F4tSystem;

pub fn report(w: Windows) -> String {
    let mut out = banner("Ablations", "design-choice sweeps (header rate in Mrps unless noted)", w);

    out += "A. FPC count (round-robin, 24 cores — multi-flow parallelism):\n";
    let mut t = Table::new(&["FPCs", "rr Mrps", "bulk Mrps"]);
    for fpcs in [1usize, 2, 4, 8, 16] {
        let cfg = EngineConfig {
            num_fpcs: fpcs,
            lut_groups: (fpcs / 2).max(1),
            ..EngineConfig::reference()
        };
        let rr = header_rate(24, true, cfg.clone(), true, w);
        let bulk = header_rate(24, false, cfg, true, w);
        t.row(&[fpcs.to_string(), f(rr, 0), f(bulk, 0)]);
    }
    out += &t.render();

    out += "\nB. Event coalescing (24 cores):\n";
    let mut t = Table::new(&["coalescing", "bulk Mrps", "rr Mrps"]);
    for c in [false, true] {
        let cfg = EngineConfig { coalescing: c, ..EngineConfig::reference() };
        let bulk = header_rate(24, false, cfg.clone(), true, w);
        let rr = header_rate(24, true, cfg, true, w);
        t.row(&[c.to_string(), f(bulk, 0), f(rr, 0)]);
    }
    out += &t.render();

    out += "\nC. TCB-cache size (echo, 4 cores, 4096 flows, DDR4):\n";
    let mut t = Table::new(&["cache sets", "Mrps", "cache hit %"]);
    for sets in [64usize, 512, 4096] {
        let cfg =
            EngineConfig { dram: DramKind::Ddr4, tcb_cache_sets: sets, ..EngineConfig::reference() };
        let mut sys = F4tSystem::echo(4, 4096, 128, cfg);
        let m = sys.measure(w.scale_ns(2_000_000), w.scale_ns(6_000_000));
        t.row(&[
            sets.to_string(),
            f(m.mrps(), 1),
            f(sys.a.engine.stats().tcb_cache_hit_rate * 100.0, 0),
        ]);
    }
    out += &t.render();

    out += "\nD. Location-LUT partitions (routing bandwidth, rr, 24 cores):\n";
    let mut t = Table::new(&["LUT groups", "rr Mrps"]);
    for groups in [1usize, 2, 4, 8] {
        let cfg = EngineConfig { lut_groups: groups, ..EngineConfig::reference() };
        t.row(&[groups.to_string(), f(header_rate(24, true, cfg, true, w), 0)]);
    }
    out += &t.render();

    out += "\nE. TCB-manager scan policy (bulk, 1 core — latency-sensitive):\n";
    let mut t = Table::new(&["policy", "bulk 128B Gbps"]);
    for (name, policy) in
        [("skip-idle", ScanPolicy::SkipIdle), ("full-iteration", ScanPolicy::FullIteration)]
    {
        let cfg = EngineConfig { scan_policy: policy, ..EngineConfig::reference() };
        let mut sys = F4tSystem::bulk(1, 128, cfg);
        let m = sys.measure(w.scale_ns(200_000), w.scale_ns(400_000));
        t.row(&[name.to_string(), f(m.goodput_gbps(), 1)]);
    }
    out += &t.render();
    out
}
