//! Failure injection across the full engine-to-engine path: loss,
//! duplication, reordering and burst loss on the wire; the protocol must
//! deliver the byte stream intact (verified by pointer arithmetic) in
//! every case.

use f4t::core::{Engine, EngineConfig, EventKind, HostNotification};
use f4t::sim::SimRng;
use f4t::tcp::{FourTuple, Segment, SeqNum};
use std::collections::VecDeque;

fn engines() -> (Engine, Engine, f4t::tcp::FlowId, f4t::tcp::FlowId) {
    let cfg = EngineConfig { num_fpcs: 1, lut_groups: 1, ..EngineConfig::reference() };
    let mut a = Engine::new(cfg.clone());
    let mut b = Engine::new(cfg);
    let t = FourTuple::default();
    let fa = a.open_established(t, SeqNum(0)).unwrap();
    let fb = b.open_established(t.reversed(), SeqNum(0)).unwrap();
    (a, b, fa, fb)
}

/// Runs a 100 KB transfer with a wire mutator applied to A→B segments
/// (the mutator also sees the current cycle, for time-based faults);
/// returns (cycles used, retransmissions). This wire is hand-rolled on
/// purpose: cycle-windowed blackouts and per-segment closures are faults
/// `DuplexLink`'s sequence-indexed impairments cannot express.
fn transfer_with(
    mut mutate: impl FnMut(u64, Segment, &mut VecDeque<Segment>),
    max_cycles: u64,
) -> (u64, u64) {
    let (mut a, mut b, fa, _fb) = engines();
    let total = 100_000u32;
    a.push_host(fa, EventKind::SendReq { req: SeqNum(total) });
    let mut cycles = 0;
    for c in 0..max_cycles {
        cycles = c;
        a.tick();
        b.tick();
        // Receiver app consumes (keeps the window open).
        while let Some(n) = b.pop_notification() {
            if let HostNotification::DataReceived { flow, upto } = n {
                b.push_host(flow, EventKind::RecvConsumed { consumed: upto });
            }
        }
        let mut to_b = VecDeque::new();
        while let Some(seg) = a.pop_tx() {
            mutate(c, seg, &mut to_b);
        }
        for seg in to_b {
            b.push_rx(seg);
        }
        while let Some(seg) = b.pop_tx() {
            a.push_rx(seg);
        }
        if a.peek_tcb(fa).map(|t| t.snd_una) == Some(SeqNum(total)) {
            break;
        }
    }
    let tcb = a.peek_tcb(fa).expect("flow exists");
    assert_eq!(tcb.snd_una, SeqNum(total), "full stream acknowledged");
    (cycles, a.stats().retransmissions)
}

#[test]
fn clean_wire_no_retransmissions() {
    let (_, rtx) = transfer_with(|_, seg, out| out.push_back(seg), 300_000);
    assert_eq!(rtx, 0);
}

#[test]
fn random_loss_recovered() {
    // 5% loss over ~70 data segments: retransmission is statistically
    // certain (P[no drop] < 3%), and the stream must still complete.
    let mut rng = SimRng::new(42);
    let (_, rtx) = transfer_with(
        move |_, seg, out| {
            if !(seg.has_payload() && rng.chance(0.05)) {
                out.push_back(seg);
            }
        },
        10_000_000,
    );
    assert!(rtx > 0, "losses required retransmission");
}

#[test]
fn duplication_is_harmless() {
    let mut rng = SimRng::new(7);
    transfer_with(
        move |_, seg, out| {
            out.push_back(seg);
            if rng.chance(0.05) {
                out.push_back(seg); // duplicate delivery
            }
        },
        600_000,
    );
}

#[test]
fn reordering_recovered() {
    // Swap adjacent data segments 10% of the time.
    let mut rng = SimRng::new(13);
    let mut hold: Option<Segment> = None;
    transfer_with(
        move |_, seg, out| {
            if let Some(h) = hold.take() {
                out.push_back(seg);
                out.push_back(h);
            } else if seg.has_payload() && rng.chance(0.1) {
                hold = Some(seg);
            } else {
                out.push_back(seg);
            }
        },
        5_000_000,
    );
}

#[test]
fn burst_loss_recovered_by_rto() {
    // Drop 20 consecutive data segments once: dup-ACKs cannot repair a
    // hole that big alone; the retransmission timer must kick in.
    let mut seen = 0;
    let (cycles, rtx) = transfer_with(
        move |_, seg, out| {
            if seg.has_payload() {
                seen += 1;
                if (30..50).contains(&seen) {
                    return; // dropped on the wire
                }
            }
            out.push_back(seg);
        },
        10_000_000,
    );
    assert!(rtx >= 1);
    // RTO is ≥ 5 ms = 1.25 M cycles; recovery must have taken that long.
    assert!(cycles > 100_000, "took {cycles} cycles");
}

/// FtVerify negative test: plant a *dual-residency* migration race (the
/// §3.2 hazard the location-LUT Moving protocol exists to rule out) and
/// prove the checker's structural audit reports it. A checker that stays
/// silent here would make the zero-violation property tests meaningless.
#[test]
fn injected_dram_ghost_is_detected_as_migration_race() {
    use f4t::sim::ViolationKind;
    let cfg = EngineConfig { num_fpcs: 1, lut_groups: 1, check: true, ..EngineConfig::reference() };
    let mut e = Engine::new(cfg);
    let flow = e.open_established(FourTuple::default(), SeqNum(0)).unwrap();
    // Run past at least one audit boundary: a healthy engine is clean.
    e.run(200);
    assert!(e.check_enabled());
    assert_eq!(e.check_total_violations(), 0, "{}", e.check_summary().unwrap_or_default());
    // Fault: copy the SRAM-resident TCB into the DRAM store behind the
    // scheduler's back — the flow is now valid in two memories at once.
    assert!(e.fault_inject_dram_ghost(flow), "flow must be SRAM-resident");
    e.run(200);
    assert!(e.check_total_violations() > 0, "audit missed the dual residency");
    assert!(
        e.check_violations().iter().any(|v| v.kind == ViolationKind::MigrationRace),
        "expected a migration_race violation, got:\n{}",
        e.check_summary().unwrap_or_default()
    );
}

/// FtVerify negative test: corrupt the location LUT so it points at DRAM
/// while the TCB actually lives in FPC SRAM (a stale-LUT race — the state
/// an interrupted migration would leave behind). The audit must flag the
/// mismatch from both directions.
#[test]
fn injected_stale_lut_entry_is_detected() {
    use f4t::mem::Location;
    use f4t::sim::ViolationKind;
    let cfg = EngineConfig { num_fpcs: 1, lut_groups: 1, check: true, ..EngineConfig::reference() };
    let mut e = Engine::new(cfg);
    let flow = e.open_established(FourTuple::default(), SeqNum(0)).unwrap();
    e.run(200);
    assert_eq!(e.check_total_violations(), 0, "{}", e.check_summary().unwrap_or_default());
    e.fault_inject_lut(flow, Location::Dram);
    e.run(200);
    let races = e
        .check_violations()
        .iter()
        .filter(|v| v.kind == ViolationKind::MigrationRace)
        .count();
    assert!(
        races > 0,
        "audit missed the stale LUT entry:\n{}",
        e.check_summary().unwrap_or_default()
    );
}

#[test]
fn total_blackout_then_recovery() {
    // The wire goes completely dark for 2 ms starting mid-burst: every
    // A→B segment (data and retransmissions alike) vanishes. The first
    // retransmission timeout fires after the light returns and restarts
    // the stream.
    let (cycles, rtx) = transfer_with(
        move |cycle, seg, out| {
            let dark = (100..500_100).contains(&cycle);
            if !dark {
                out.push_back(seg);
            }
        },
        20_000_000,
    );
    assert!(rtx >= 1, "recovery needed retransmissions");
    assert!(cycles > 1_000_000, "waited through at least one RTO ({cycles} cycles)");
}
