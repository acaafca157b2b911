//! FtJournal forensic pipeline tests: a planted fault must be *flagged*
//! by the online watchdog and *explained* by the causal journal, and the
//! black-box dump must carry the whole story.
//!
//! Two failure classes are planted:
//!
//! * a **LUT misdirect** freezing flow 0's location-LUT entry in the
//!   `Moving` state — its events park forever, the watchdog raises
//!   `starved_lut`, and the journal shows the parked routes;
//! * a **blackholed peer** (all TX dropped mid-transfer) — the cumulative
//!   ACK pointer stops, the watchdog raises `stuck_flow`, and the journal
//!   shows the retransmit storm driving it.

use f4t::core::{Engine, EngineConfig, EventKind};
use f4t::mem::Location;
use f4t::sim::{AlarmKind, JournalKind, WatchdogConfig};
use f4t::tcp::{FlowId, FourTuple, Segment, SeqNum, TCP_BUFFER};
use std::net::Ipv4Addr;

/// Small engine with full-rate journal and a hair-trigger watchdog.
fn forensic_config() -> EngineConfig {
    EngineConfig {
        num_fpcs: 2,
        lut_groups: 2,
        flows_per_fpc: 4,
        max_flows: 16,
        journal: true,
        journal_sample: 1,
        watchdog: true,
        watchdog_interval: 4_096,
        watchdog_cfg: WatchdogConfig {
            stall_horizon_cycles: 60_000,
            moving_horizon_cycles: 30_000,
            ..WatchdogConfig::default()
        },
        ..EngineConfig::reference()
    }
}

fn tuple() -> FourTuple {
    FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 40_000, Ipv4Addr::new(10, 0, 0, 2), 80)
}

/// Runs the engine in 64-cycle chunks for `cycles`, ACKing every payload
/// segment like an ideal peer (unless `blackhole`, which drops all TX).
fn pump(e: &mut Engine, isn: SeqNum, cycles: u64, blackhole: bool) {
    let end = e.cycles() + cycles;
    let mut pending: Option<SeqNum> = None;
    while e.cycles() < end {
        e.run(64);
        while let Some(seg) = e.pop_tx() {
            if blackhole {
                continue;
            }
            if seg.has_payload() {
                let end_seq = seg.seq_end();
                pending = Some(match pending {
                    Some(h) => h.max_seq(end_seq),
                    None => end_seq,
                });
            }
        }
        if let Some(h) = pending {
            if e.push_rx(Segment::pure_ack(tuple().reversed(), isn, h, TCP_BUFFER)) {
                pending = None;
            }
        }
        while e.pop_notification().is_some() {}
    }
}

#[test]
fn lut_misdirect_flagged_by_watchdog_and_explained_by_journal() {
    let mut e = Engine::new(forensic_config());
    let isn = SeqNum(0);
    let flow = e.open_established(tuple(), isn).unwrap();
    assert_eq!(flow, FlowId(0));

    // Healthy phase: a transfer completes, no alarms.
    assert!(e.push_host(flow, EventKind::SendReq { req: isn.add(4_096) }));
    pump(&mut e, isn, 30_000, false);
    assert_eq!(e.peek_tcb(flow).unwrap().snd_una, isn.add(4_096), "healthy transfer stalled");
    assert_eq!(e.watchdog_alarm_count(), 0, "healthy run must not alarm");
    let fault_cycle = e.cycles();

    // Plant the fault: freeze the LUT entry in `Moving`. Every
    // subsequent event for the flow parks awaiting a migration
    // completion that never comes.
    e.fault_inject_lut(flow, Location::Moving);
    assert!(e.push_host(flow, EventKind::SendReq { req: isn.add(8_192) }));
    pump(&mut e, isn, 120_000, false);

    // Flagged: the watchdog raised starved_lut against exactly this flow.
    let wd = e.watchdog().unwrap();
    assert!(
        wd.alarms().iter().any(|a| a.kind == AlarmKind::StarvedLut && a.flow == Some(flow.0)),
        "expected a starved_lut alarm for {flow}, got: {:?}",
        wd.alarms().iter().map(|a| a.line()).collect::<Vec<_>>()
    );

    // Explained: the journal shows the flow's events parking in the
    // scheduler (route=parked, cause=mid-migration) after the fault
    // cycle, with no event_routed deliveries after it.
    let j = e.journal().unwrap();
    let parked = j
        .events()
        .filter(|ev| {
            ev.cycle >= fault_cycle
                && ev.flow == flow.0
                && ev.kind == JournalKind::EventRouted
                && ev.a == f4t::sim::Journal::ROUTE_PARKED
        })
        .count();
    assert!(parked > 0, "journal must show the parked route after the fault");
    let delivered = j
        .events()
        .filter(|ev| {
            ev.cycle >= fault_cycle
                && ev.flow == flow.0
                && ev.kind == JournalKind::EventRouted
                && ev.a != f4t::sim::Journal::ROUTE_PARKED
        })
        .count();
    assert_eq!(delivered, 0, "a Moving-frozen flow must not receive deliveries");

    // The dump carries the whole story: reason, alarm line, journal tail.
    let dump = e.blackbox_json("watchdog-alarm", &[("workload", "forensics")]);
    assert!(dump.contains("\"reason\": \"watchdog-alarm\""), "{dump}");
    assert!(dump.contains("starved_lut"), "dump must carry the alarm:\n{dump}");
    assert!(dump.contains("event_routed"), "dump must carry the journal tail:\n{dump}");
    assert!(dump.contains("\"workload\": \"forensics\""), "{dump}");
}

#[test]
fn blackholed_peer_trips_stuck_flow_with_retransmits_in_journal() {
    let mut e = Engine::new(forensic_config());
    let isn = SeqNum(0);
    let flow = e.open_established(tuple(), isn).unwrap();

    // The peer is dark from the first byte: the request pointer runs
    // ahead while the cumulative ACK never moves, so the flow has
    // outstanding work with zero progress — the stuck-flow signature.
    // Long enough for the initial 10 ms RTO (2.5M cycles) to fire at
    // least once; fast-forward makes the idle stretches cheap.
    assert!(e.push_host(flow, EventKind::SendReq { req: isn.add(16_384) }));
    pump(&mut e, isn, 2_600_000, true);

    assert_eq!(
        e.peek_tcb(flow).unwrap().snd_una,
        isn,
        "no ACKs may arrive through a blackhole"
    );
    let wd = e.watchdog().unwrap();
    assert!(
        wd.alarms().iter().any(|a| a.kind == AlarmKind::StuckFlow && a.flow == Some(flow.0)),
        "expected a stuck_flow alarm, got: {:?}",
        wd.alarms().iter().map(|a| a.line()).collect::<Vec<_>>()
    );

    // The journal explains *why*: RTO retransmissions firing without any
    // FPU progress (snd_una frozen) after the blackhole began.
    let j = e.journal().unwrap();
    let retransmits =
        j.events().filter(|ev| ev.flow == flow.0 && ev.kind == JournalKind::Retransmit).count();
    assert!(retransmits > 0, "journal must show the retransmissions");
    let timer_fires =
        j.events().filter(|ev| ev.flow == flow.0 && ev.kind == JournalKind::TimerFired).count();
    assert!(timer_fires > 0, "journal must show the RTO timer firing");
}
