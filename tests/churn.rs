//! Connection churn: the paper motivates dynamic FPC allocation with
//! "workloads continuously establish and terminate flows" (§4.4.2). This
//! test runs many short-lived connections through the full handshake /
//! transfer / orderly-close lifecycle and checks that every piece of
//! per-flow state is reclaimed.

use f4t::core::{EngineConfig, EventKind, HostNotification};
use f4t::netsim::Impairments;
use f4t::system::link::A_TO_B;
use f4t::system::{DuplexLink, EnginePair};
use f4t::tcp::FourTuple;
use std::net::Ipv4Addr;

/// Steps one cycle at a time until a step moves no segment, so every
/// exchange the first step set off has crossed the (ideal) wire.
fn pump(pair: &mut EnginePair) {
    while pair.step(1) {}
}

#[test]
fn short_connections_churn_and_reclaim() {
    let cfg = EngineConfig { num_fpcs: 2, flows_per_fpc: 16, lut_groups: 2, ..EngineConfig::reference() };
    // Client `a`, server `b`.
    let mut pair = EnginePair::new(cfg, DuplexLink::ideal());
    pair.b.listen(80);

    let rounds = 60; // 60 sequential short connections through 32 slots
    let mut completed = 0;
    for i in 0..rounds {
        let t = FourTuple::new(
            Ipv4Addr::new(10, 0, 0, 1),
            40_000 + (i % 4) as u16, // deliberately reuse ports
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        let fc = pair.a.open_active(t).expect("capacity reclaimed each round");
        pair.a.push_host(fc, EventKind::Connect);

        let mut connected = false;
        let mut closed = false;
        let mut sent = false;
        for _ in 0..120_000u64 {
            pump(&mut pair);
            while let Some(n) = pair.a.pop_notification() {
                match n {
                    HostNotification::Connected { flow } if flow == fc => connected = true,
                    HostNotification::Closed { flow } if flow == fc => closed = true,
                    _ => {}
                }
            }
            while let Some(n) = pair.b.pop_notification() {
                if let HostNotification::PeerFin { flow } = n {
                    // Server closes its side in response (passive close).
                    pair.b.push_host(flow, EventKind::Close);
                }
            }
            if connected && !sent {
                let tcb = pair.a.peek_tcb(fc).expect("live connection");
                pair.a.push_host(fc, EventKind::SendReq { req: tcb.snd_nxt.add(256) });
                pair.a.push_host(fc, EventKind::Close);
                sent = true;
            }
            if closed {
                break;
            }
        }
        assert!(connected, "round {i}: handshake completed");
        assert!(closed, "round {i}: client reached Closed");
        assert!(pair.a.peek_tcb(fc).is_none(), "round {i}: client state reclaimed");
        completed += 1;
        // Let the server drain its own close.
        for _ in 0..5_000 {
            pump(&mut pair);
            while pair.b.pop_notification().is_some() {}
        }
    }
    assert_eq!(completed, rounds);
}

/// Churn where every connection's payload takes losses on the way: the
/// lifecycle must still complete (fast retransmit under dup-ACKs), and
/// after the last connection drains, BOTH engines must be structurally
/// empty — zero live flows and a zero LUT census. Loss recovery keeps
/// per-flow state (retransmit queues, reassembly chunks, LUT entries)
/// alive longer than the clean path, which is exactly when reclamation
/// bugs leak. The wire eats every 5th data segment (deterministic loss);
/// ACKs and control segments pass, so dup-ACK fast retransmit — not just
/// the RTO — gets exercised.
#[test]
fn churn_under_loss_reclaims_all_state() {
    let cfg = EngineConfig {
        num_fpcs: 2,
        flows_per_fpc: 16,
        lut_groups: 2,
        check: true,
        ..EngineConfig::reference()
    };
    let mut pair = EnginePair::new(cfg, DuplexLink::ideal());
    pair.b.listen(80);
    // With ~6 segments per 8 KB payload, every connection loses at least
    // one.
    pair.link.set_impairments(Impairments::every_nth(5));

    let rounds = 12;
    for i in 0..rounds {
        let t = FourTuple::new(
            Ipv4Addr::new(10, 0, 0, 1),
            41_000 + (i % 4) as u16,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        let fc = pair.a.open_active(t).expect("capacity reclaimed each round");
        pair.a.push_host(fc, EventKind::Connect);

        let mut connected = false;
        let mut closed = false;
        let mut sent = false;
        for _ in 0..3_000_000u64 {
            pump(&mut pair);
            while let Some(n) = pair.a.pop_notification() {
                match n {
                    HostNotification::Connected { flow } if flow == fc => connected = true,
                    HostNotification::Closed { flow } if flow == fc => closed = true,
                    _ => {}
                }
            }
            while let Some(n) = pair.b.pop_notification() {
                match n {
                    HostNotification::PeerFin { flow } => {
                        pair.b.push_host(flow, EventKind::Close);
                    }
                    HostNotification::DataReceived { flow, upto } => {
                        pair.b.push_host(flow, EventKind::RecvConsumed { consumed: upto });
                    }
                    _ => {}
                }
            }
            if connected && !sent {
                let tcb = pair.a.peek_tcb(fc).expect("live connection");
                // 8 KB so the transfer spans several segments: enough
                // traffic behind a lost one to trigger fast retransmit.
                pair.a.push_host(fc, EventKind::SendReq { req: tcb.snd_nxt.add(8_192) });
                pair.a.push_host(fc, EventKind::Close);
                sent = true;
            }
            if closed {
                break;
            }
        }
        assert!(connected, "round {i}: handshake completed under loss");
        assert!(closed, "round {i}: lifecycle completed under loss");
        assert!(pair.a.peek_tcb(fc).is_none(), "round {i}: client state reclaimed");
        for _ in 0..20_000 {
            pump(&mut pair);
            while pair.b.pop_notification().is_some() {}
            while pair.a.pop_notification().is_some() {}
        }
    }
    assert!(pair.link.dropped_loss(A_TO_B) > 0, "the loss schedule actually dropped segments");

    // Structural audit: nothing may survive the last teardown.
    for (side, e) in [("client", &pair.a), ("server", &pair.b)] {
        assert_eq!(e.live_flows(), 0, "{side}: flow table entries leaked");
        let (in_fpc, in_dram, moving) = e.lut_census();
        assert_eq!(
            (in_fpc, in_dram, moving),
            (0, 0, 0),
            "{side}: LUT entries leaked (fpc/dram/moving)"
        );
    }
    assert_eq!(
        pair.a.check_total_violations() + pair.b.check_total_violations(),
        0,
        "invariant checker fired during lossy churn"
    );
}
