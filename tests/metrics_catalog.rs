//! METRICS.md catalog test.
//!
//! `METRICS.md` is a generated catalog of every FtScope metric (and
//! FtFlight span histogram) the engine registers, with instance indices
//! normalized (`fpc0` → `fpc<i>`). This test regenerates the catalog
//! from a reference run and fails if the committed file drifted —
//! adding, renaming or dropping a metric without updating the catalog
//! is the exact class of silent observability rot it exists to catch.
//!
//! Regenerate with: `UPDATE_METRICS=1 cargo test --test metrics_catalog`

use f4t::core::{EngineConfig, EventKind, HostNotification};
use f4t::sim::{MetricValue, MetricsRegistry};
use f4t::system::{DuplexLink, EnginePair};
use f4t::tcp::{FourTuple, SeqNum};
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// The reference run: tiny FPCs so flows overflow to DRAM and migrate
/// (engaging the memory-manager and swap-in metric families), FtFlight
/// at 1/1 sampling, FtJournal at 1/1 with the watchdog sweeping, FtPulse
/// sampling every window at 1/1 flow tracking, and the FtVerify checker
/// attached, so every metric family the engine can register is present
/// in one registry.
fn reference_registry() -> MetricsRegistry {
    let cfg = EngineConfig {
        num_fpcs: 2,
        lut_groups: 2,
        flows_per_fpc: 4,
        check: true,
        flight: true,
        flight_sample: 1,
        journal: true,
        journal_sample: 1,
        watchdog: true,
        watchdog_interval: 4_096,
        pulse: true,
        pulse_interval: 1_024,
        pulse_flow_sample: 1,
        ..EngineConfig::reference()
    };
    let mut pair = EnginePair::new(cfg, DuplexLink::ideal());
    pair.a.set_trace_capacity(1024);
    pair.b.set_trace_capacity(1024);
    let mut flows = Vec::new();
    for i in 0..10u16 {
        let t = FourTuple::new(
            Ipv4Addr::new(10, 0, 0, 1),
            30_000 + i,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        flows.push(pair.a.open_established(t, SeqNum(0)).unwrap());
        pair.b.open_established(t.reversed(), SeqNum(0)).unwrap();
    }
    for &fa in &flows {
        assert!(pair.a.push_host(fa, EventKind::SendReq { req: SeqNum(0).add(4096) }));
    }
    for _ in 0..400 {
        pair.step(64);
        while let Some(n) = pair.b.pop_notification() {
            if let HostNotification::DataReceived { flow, upto } = n {
                pair.b.push_host(flow, EventKind::RecvConsumed { consumed: upto });
            }
        }
        while pair.a.pop_notification().is_some() {}
    }
    pair.a.telemetry()
}

/// Collapses instance indices so the catalog is geometry-independent:
/// every ASCII digit run becomes `<i>` (`engine.fpc3.dispatches` →
/// `engine.fpc<i>.dispatches`).
fn normalize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut in_digits = false;
    for c in name.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push_str("<i>");
                in_digits = true;
            }
        } else {
            in_digits = false;
            out.push(c);
        }
    }
    out
}

fn catalog(reg: &MetricsRegistry) -> String {
    let mut rows = std::collections::BTreeMap::new();
    for (name, value) in reg.iter() {
        let kind = match value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        let prev = rows.insert(normalize(name), kind);
        assert!(
            prev.is_none_or(|p| p == kind),
            "metric {name} registered with two kinds"
        );
    }
    let mut out = String::from(
        "# FtScope / FtFlight metric catalog\n\
         \n\
         Generated from a reference run by `tests/metrics_catalog.rs`;\n\
         the test fails when this file drifts from what the engine\n\
         actually registers. Regenerate with:\n\
         \n\
         ```sh\n\
         UPDATE_METRICS=1 cargo test --test metrics_catalog\n\
         ```\n\
         \n\
         Instance indices are normalized to `<i>` (`fpc0`, `fpc1`, …\n\
         all appear as `fpc<i>`). Kinds follow `f4t_sim::MetricValue`:\n\
         counters are monotonic, gauges are instantaneous levels,\n\
         histograms export count/mean/min/max/p50/p99/p999 summaries\n\
         (FtFlight `engine.flight.<stage>.cycles` families are span\n\
         lengths in engine cycles; see DESIGN.md §10). FtJournal\n\
         families (`engine.journal.*` per-kind event counts and ring\n\
         occupancy, `engine.watchdog.*` sweep and per-alarm counts)\n\
         appear when the forensic journal/watchdog are enabled; see\n\
         DESIGN.md §11. FtPulse families (`engine.pulse.*` ring\n\
         occupancy plus `engine.pulse.last.*` most-recent-window\n\
         values of every time series) appear when the pulse recorder\n\
         is enabled; see DESIGN.md §15.\n\
         \n\
         | metric | kind |\n\
         |--------|------|\n",
    );
    for (name, kind) in &rows {
        writeln!(out, "| `{name}` | {kind} |").unwrap();
    }
    out
}

#[test]
fn metrics_md_matches_registry() {
    let got = catalog(&reference_registry());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/METRICS.md");
    if std::env::var("UPDATE_METRICS").is_ok() {
        std::fs::write(path, &got).unwrap();
        eprintln!("wrote {path}");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("METRICS.md missing; run UPDATE_METRICS=1 cargo test --test metrics_catalog");
    assert!(
        got == want,
        "METRICS.md is out of date with the metrics the engine registers;\n\
         regenerate with: UPDATE_METRICS=1 cargo test --test metrics_catalog"
    );
}

#[test]
fn reference_run_engages_every_family() {
    // The catalog is only as good as its reference run: make sure the
    // run actually exercised the conditional metric families.
    let reg = reference_registry();
    for needle in [
        "engine.flight.tx_emit.cycles",
        "engine.flight.tcb_fetch_dram.cycles",
        "engine.mm.dram.accesses",
        "engine.mm.migration_latency_cycles",
        "engine.scheduler.coalesce_fifo0.depth",
        "engine.journal.events_recorded",
        "engine.journal.kind.tcb_migrate_done",
        "engine.watchdog.observations",
        "engine.watchdog.alarm.stuck_flow",
        "engine.pulse.windows_recorded",
        "engine.pulse.last.goodput_bytes",
        "engine.pulse.last.stage.tcb_fetch_dram.tail_cycles",
    ] {
        assert!(reg.get(needle).is_some(), "reference run never registered {needle}");
    }
    assert!(reg.counter_value("engine.journal.events_recorded") > 0);
    assert!(reg.counter_value("engine.watchdog.observations") > 0);
    assert!(reg.counter_value("engine.flight.spans_recorded") > 0);
    assert!(reg.counter_value("engine.pulse.windows_recorded") > 0);
}
