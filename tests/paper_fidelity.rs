//! Paper fidelity: the shapes EXPERIMENTS.md records for the paper's
//! figures, asserted on the figure reports' own point functions with
//! quick windows.
//!
//! * Fig. 2 — the w-RMW vs w/o-RMW gap is 5.3× at every request size;
//! * Fig. 15 — F4T's event rate is a flat 125 Mev/s at every FPU latency,
//!   while the stalling Baseline's falls;
//! * Fig. 16(a) — with 8 B commands 24 cores reach the engine's
//!   1000 Mrps ceiling, while 16 B commands saturate PCIe below it; at 16
//!   cores the two are level;
//! * Fig. 16(b) — the design ordering: 1FPC is ~8.5× Baseline on both
//!   patterns, coalescing lifts bulk but not round-robin, and 8 FPCs lift
//!   round-robin.
//!
//! Fig. 13 is left out. In quick windows DDR4 and HBM are level at 4096
//! flows (44.02 vs 44.00 Mrps): the DDR4 knee shows only with full
//! windows past 4 K flows, minutes of simulation rather than a tier-1
//! test. That check waits on ROADMAP item 1's DRAM model.

use f4t::core::EngineConfig;
use f4t_bench::figures::{fig02_rmw_stalls, fig15_versatility, fig16_header_rate};
use f4t_bench::Windows;

const QUICK: Windows = Windows::Quick;

#[test]
fn fig02_rmw_gap_is_5_3x_at_every_request_size() {
    for size in fig02_rmw_stalls::SIZES {
        let (w_rate, wo_rate) = fig02_rmw_stalls::rates(size);
        let gap = wo_rate / w_rate;
        assert!((5.25..5.35).contains(&gap), "{size} B: gap {gap:.3}x, want 5.3x");
    }
}

#[test]
fn fig15_f4t_is_flat_while_baseline_falls() {
    let cycles = fig15_versatility::cycles(QUICK);
    let mut last_baseline = f64::INFINITY;
    for lat in fig15_versatility::LATENCIES {
        let f4t = fig15_versatility::f4t_rate(lat, cycles) / 1e6;
        assert!((f4t - 125.0).abs() < 0.1, "latency {lat}: F4T {f4t:.2} Mev/s, want 125");
        let baseline = fig15_versatility::baseline_rate(lat, cycles) / 1e6;
        assert!(baseline < last_baseline, "latency {lat}: Baseline {baseline:.2} Mev/s, no fall");
        last_baseline = baseline;
    }
}

#[test]
fn fig16a_8b_commands_reach_the_ceiling_16b_saturates_pcie() {
    let rate = |cores, compact| {
        fig16_header_rate::header_rate(cores, false, EngineConfig::reference(), compact, QUICK)
    };
    let (m8, m16) = (rate(24, true), rate(24, false));
    assert!((m8 / 1000.0 - 1.0).abs() < 0.01, "24 cores, 8 B: {m8:.1} Mrps, want 1000");
    assert!(m16 < 0.8 * m8, "24 cores: 16 B {m16:.1} Mrps, want below 0.8x of 8 B {m8:.1}");
    let (m8, m16) = (rate(16, true), rate(16, false));
    assert!((m16 / m8 - 1.0).abs() < 0.01, "16 cores: 16 B {m16:.1} vs 8 B {m8:.1} Mrps, want level");
}

/// Fig. 16(b)'s designs past Baseline, as gains over Baseline on one
/// pattern: [1FPC, 1FPC-C, F4T].
fn fig16b_gains(rr: bool) -> [f64; 3] {
    let baseline = fig16_header_rate::baseline_rate(QUICK);
    fig16_header_rate::designs()
        .map(|(_, cfg)| fig16_header_rate::header_rate(24, rr, cfg, true, QUICK) / baseline)
}

#[test]
fn fig16b_coalescing_lifts_bulk() {
    let [one_fpc, one_fpc_c, f4t] = fig16b_gains(false);
    assert!((8.0..9.0).contains(&one_fpc), "1FPC bulk {one_fpc:.2}x, want ~8.5x");
    assert!(one_fpc_c > 5.0 * one_fpc, "coalescing: bulk {one_fpc:.2}x -> {one_fpc_c:.2}x");
    assert!(f4t >= one_fpc_c, "8 FPCs lost bulk rate: {one_fpc_c:.2}x -> {f4t:.2}x");
}

#[test]
fn fig16b_parallel_fpcs_lift_round_robin() {
    let [one_fpc, one_fpc_c, f4t] = fig16b_gains(true);
    assert!((8.0..9.0).contains(&one_fpc), "1FPC rr {one_fpc:.2}x, want ~8.5x");
    let lift = one_fpc_c / one_fpc;
    assert!((0.95..1.05).contains(&lift), "coalescing moved rr: {one_fpc:.2}x -> {one_fpc_c:.2}x");
    assert!(f4t > 5.0 * one_fpc_c, "8 FPCs: rr {one_fpc_c:.2}x -> {f4t:.2}x");
}
