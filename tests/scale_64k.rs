//! Flow-scale smoke tests: thousands of flows against the reference
//! engine geometry (8 FPCs x 128 slots = 1024 SRAM-resident TCBs), so
//! the overwhelming majority of flows live in DRAM and every send is a
//! SRAM<->DRAM migration round-trip through the LocationLut Moving
//! protocol.
//!
//! Checked properties, with the invariant checker attached throughout:
//!   * zero violations (no migration races, port overuse, FIFO leaks);
//!   * zero stuck flows — every flow's cumulative ACK pointer reaches
//!     its request pointer (`snd_una == req`);
//!   * completion within a **cycle** budget, never a wall-clock one, so
//!     the test is deterministic and f4tlint `wall_clock`-clean. The
//!     budgets are 1.25x what the run takes (36 992 and 209 152 active
//!     cycles): with the single-FPC victim ask the scheduler had before
//!     PR 16 the same runs take 50 240 and 324 736 cycles, so a return
//!     of that starvation fails here instead of hiding in a loose bound.
//!
//! The ideal peer and the issue → drain schedule are
//! [`ScaleShard`] — the same driver `f4tperf --workload scale` runs —
//! here as one shard with no idle tail.
//!
//! The 8K variant runs on every push; the full 64K configuration is
//! `#[ignore]`d (minutes in debug builds) and exercised by the
//! fast-forward figure harness (`f4tperf --workload scale`).

use f4t::core::EngineConfig;
use f4t::system::ScaleShard;

/// Bytes each flow sends; below one MSS so each flow is a single data
/// segment plus its ACK — the workload stresses flow count, not
/// per-flow throughput.
const PER_FLOW_BYTES: u32 = 512;

fn scale_smoke(total_flows: usize, cycle_budget: u64) {
    // Watchdog on at the default production thresholds: a healthy scale
    // run must complete without a single stuck-flow / retx-storm /
    // queue-SLO / starved-LUT alarm. Journal at the default 1/64
    // sampling rides along to keep its overhead on the hot migration
    // path exercised at scale.
    let cfg = EngineConfig {
        check: true,
        journal: true,
        watchdog: true,
        ..EngineConfig::reference()
    };
    let mut shard =
        ScaleShard::new(cfg, 0..total_flows, PER_FLOW_BYTES, 0).expect("flow table full");
    let mut round = 0;
    while shard.step(round) {
        round += 1;
    }
    let e = &shard.engine;

    let stats = e.stats();
    assert!(shard.completed(), "{total_flows} flows did not complete in {} cycles", e.cycles());
    assert!(
        shard.active_cycles() < cycle_budget,
        "completion took {} cycles, budget {cycle_budget}",
        shard.active_cycles()
    );
    assert!(
        stats.migrations > 0 && stats.dram_events > 0,
        "scale workload never left SRAM: migrations={} dram_events={}",
        stats.migrations,
        stats.dram_events
    );
    assert_eq!(
        e.check_total_violations(),
        0,
        "invariant violations at {total_flows} flows:\n{}",
        e.check_summary().unwrap_or_default()
    );
    assert_eq!(
        e.watchdog_alarm_count(),
        0,
        "watchdog alarms on a healthy scale run:\n{}",
        e.watchdog()
            .map(|w| w.alarms().iter().map(|a| a.line()).collect::<Vec<_>>().join("\n"))
            .unwrap_or_default()
    );
    assert!(
        e.journal().is_some_and(|j| j.events_recorded() > 0),
        "journal never engaged at scale"
    );
    // Fast-forward must have engaged (the drain gaps between migration
    // waves are skippable even with the 64-cycle audit cap).
    let executed = e.cycles() - e.fastforward_skipped_cycles();
    assert!(
        e.fastforward_skipped_cycles() > 0,
        "fast-forward never engaged over {} cycles",
        e.cycles()
    );
    println!(
        "scale {total_flows}: {} active of {} cycles simulated, {executed} ticks executed \
         ({:.1}x), {} migrations, {} dram events",
        shard.active_cycles(),
        e.cycles(),
        e.cycles() as f64 / executed as f64,
        stats.migrations,
        stats.dram_events
    );
}

/// 8K flows: 8x SRAM capacity. Runs on every push (CI `scale` job).
#[test]
fn scale_8k_flows_complete_with_zero_violations() {
    scale_smoke(8_192, 46_240);
}

/// The paper's full 64K-connection operating point (§4.3: "F4T supports
/// 64K concurrent connections"). Ignored by default: minutes in debug
/// builds. Run with `cargo test --release --test scale_64k -- --ignored`.
#[test]
#[ignore = "64K flows takes minutes in debug builds; run with --release -- --ignored"]
fn scale_64k_flows_complete_with_zero_violations() {
    scale_smoke(65_536, 261_440);
}
