//! Cross-crate integration: the full stack (workloads → library → PCIe →
//! engine → link → peer) moving real data under each of the paper's
//! workload patterns.

use f4t::core::{Engine, EngineConfig, EventKind, HostNotification};
use f4t::mem::DramKind;
use f4t::system::{DuplexLink, EnginePair, F4tSystem};
use f4t::tcp::{FourTuple, SeqNum};
use std::net::Ipv4Addr;

fn small_engine() -> EngineConfig {
    EngineConfig { num_fpcs: 2, flows_per_fpc: 32, lut_groups: 2, ..EngineConfig::reference() }
}

#[test]
fn bulk_transfer_reaches_tens_of_gbps() {
    let mut sys = F4tSystem::bulk(2, 128, small_engine());
    let m = sys.measure(100_000, 300_000);
    assert!(m.goodput_gbps() > 30.0, "2 cores at 128 B: got {:.1} Gbps", m.goodput_gbps());
    assert_eq!(m.retransmissions, 0);
}

#[test]
fn large_requests_approach_line_rate() {
    let mut sys = F4tSystem::bulk(2, 1460, small_engine());
    let m = sys.measure(100_000, 300_000);
    assert!(m.goodput_gbps() > 80.0, "got {:.1} Gbps", m.goodput_gbps());
}

#[test]
fn round_robin_multi_flow_works() {
    let mut sys = F4tSystem::round_robin(2, 16, 128, small_engine());
    let m = sys.measure(100_000, 300_000);
    assert!(m.mrps() > 10.0, "got {:.1} Mrps", m.mrps());
}

#[test]
fn echo_with_more_flows_than_sram() {
    // 32 slots x 2 FPCs = 64 slots; 256 flows force DRAM migration.
    let mut sys = F4tSystem::echo(2, 256, 128, small_engine());
    let m = sys.measure(0, 1_500_000);
    assert!(m.requests > 1_000, "round trips: {}", m.requests);
    let migrations =
        sys.a.engine.stats().migrations + sys.b.engine.stats().migrations;
    assert!(migrations > 50, "TCB migration engaged: {migrations}");
}

#[test]
fn echo_hbm_beats_or_matches_ddr4() {
    let run = |dram| {
        let cfg = EngineConfig { dram, ..small_engine() };
        let mut sys = F4tSystem::echo(2, 512, 128, cfg);
        sys.measure(500_000, 1_000_000).mrps()
    };
    let ddr4 = run(DramKind::Ddr4);
    let hbm = run(DramKind::Hbm);
    assert!(hbm >= ddr4 * 0.9, "HBM {hbm:.1} vs DDR4 {ddr4:.1} Mrps");
}

#[test]
fn handshake_then_data_between_engines() {
    let mut pair = EnginePair::new(small_engine(), DuplexLink::ideal());
    pair.b.listen(80);
    let t = FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 40_000, Ipv4Addr::new(10, 0, 0, 2), 80);
    let fc = pair.a.open_active(t).unwrap();
    pair.a.push_host(fc, EventKind::Connect);

    let mut server_flow = None;
    let mut delivered = SeqNum::ZERO;
    for _ in 0..200_000u64 {
        pair.step(1);
        while let Some(n) = pair.a.pop_notification() {
            if matches!(n, HostNotification::Connected { .. }) {
                let tcb = pair.a.peek_tcb(fc).unwrap();
                pair.a.push_host(fc, EventKind::SendReq { req: tcb.snd_nxt.add(10_000) });
            }
        }
        while let Some(n) = pair.b.pop_notification() {
            match n {
                HostNotification::NewConnection { flow, .. } => server_flow = Some(flow),
                HostNotification::DataReceived { upto, .. } => delivered = upto,
                _ => {}
            }
        }
        if let Some(sf) = server_flow {
            if let Some(tcb) = pair.b.peek_tcb(sf) {
                if tcb.rcv_nxt.since(tcb.rcv_consumed) >= 10_000 {
                    break;
                }
            }
        }
    }
    let sf = server_flow.expect("server accepted the connection");
    let tcb = pair.b.peek_tcb(sf).unwrap();
    assert_eq!(tcb.rcv_nxt.since(tcb.rcv_consumed), 10_000, "payload delivered after handshake");
    assert_ne!(delivered, SeqNum::ZERO);
}

/// Property: reordering with displacement below the dup-ACK threshold
/// (3) must cause ZERO retransmissions — the receiver emits at most two
/// duplicate ACKs before the held segment lands, so neither fast
/// retransmit nor (with delivery this prompt) the RTO may fire. A
/// spurious-retransmit storm under mild reorder is exactly the failure
/// mode FlexTOE-class offloads are criticised for.
///
/// The two engines are wired by hand, not through `EnginePair`: the
/// exact displacement schedule (every 7th data segment, held behind
/// exactly two later ones) is the property under test, and the link's
/// randomized reordering cannot pin it.
#[test]
fn bounded_reorder_causes_no_spurious_retransmits() {
    let mut client = Engine::new(small_engine());
    let mut server = Engine::new(small_engine());
    server.listen(80);
    let t = FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 40_100, Ipv4Addr::new(10, 0, 0, 2), 80);
    let fc = client.open_active(t).unwrap();
    client.push_host(fc, EventKind::Connect);

    let total = 131_072u32; // ~90 full segments
    let mut held: Option<f4t::tcp::Segment> = None;
    let mut since_held = 0u32;
    let mut data_segs = 0u64;
    let mut target: Option<SeqNum> = None;
    for _ in 0..400_000u64 {
        client.tick();
        server.tick();
        while let Some(seg) = client.pop_tx() {
            if seg.has_payload() {
                data_segs += 1;
                // Hold every 7th data segment back by exactly two
                // later data segments (displacement 2 < dup-ACK 3).
                if held.is_none() && data_segs.is_multiple_of(7) {
                    held = Some(seg);
                    since_held = 0;
                    continue;
                }
                since_held += 1;
            }
            server.push_rx(seg);
            if since_held >= 2 {
                if let Some(h) = held.take() {
                    server.push_rx(h);
                }
            }
        }
        while let Some(seg) = server.pop_tx() {
            client.push_rx(seg);
        }
        while let Some(n) = client.pop_notification() {
            if matches!(n, HostNotification::Connected { .. }) && target.is_none() {
                let tcb = client.peek_tcb(fc).unwrap();
                let req = tcb.snd_nxt.add(total);
                client.push_host(fc, EventKind::SendReq { req });
                target = Some(req);
            }
        }
        while let Some(n) = server.pop_notification() {
            if let HostNotification::DataReceived { flow, upto } = n {
                server.push_host(flow, EventKind::RecvConsumed { consumed: upto });
            }
        }
        if let Some(req) = target {
            if client.peek_tcb(fc).unwrap().snd_una == req {
                break;
            }
        }
    }
    // A segment held at the very tail has no later traffic to displace
    // it behind; flush it so the transfer can complete.
    if let Some(h) = held.take() {
        server.push_rx(h);
        for _ in 0..50_000u64 {
            client.tick();
            server.tick();
            while let Some(seg) = client.pop_tx() {
                server.push_rx(seg);
            }
            while let Some(seg) = server.pop_tx() {
                client.push_rx(seg);
            }
            while client.pop_notification().is_some() {}
            while server.pop_notification().is_some() {}
        }
    }
    let tcb = client.peek_tcb(fc).expect("flow still open");
    assert_eq!(tcb.flight_size(), 0, "transfer fully acknowledged");
    assert_eq!(tcb.unsent(), 0, "entire request sent");
    assert!(data_segs > 80, "transfer actually spanned many segments: {data_segs}");
    assert_eq!(
        client.stats().retransmissions, 0,
        "displacement-2 reorder must not trigger fast retransmit or RTO"
    );
}

#[test]
fn sixty_four_k_flows_open_and_echo_sample_works() {
    // The headline connectivity number: open 64K flows on the reference
    // engine and verify a sample of them can move data.
    let mut engine = Engine::new(EngineConfig::reference());
    let mut flows = Vec::new();
    for i in 0..65_536u32 {
        let t = FourTuple::new(
            Ipv4Addr::from(0x0a00_0001 + (i / 60_000) * 256),
            (i % 60_000 + 1_024) as u16,
            Ipv4Addr::new(10, 1, 0, 2),
            80,
        );
        let f = engine.open_established(t, SeqNum(0)).expect("capacity for 64K flows");
        flows.push(f);
        if i % 1024 == 0 {
            engine.run(16);
        }
    }
    engine.run(10_000);
    assert!(engine.peek_tcb(flows[0]).is_some());
    assert!(engine.peek_tcb(flows[65_535]).is_some());
    // The 65 537th flow is refused.
    let t = FourTuple::new(Ipv4Addr::new(99, 0, 0, 1), 1, Ipv4Addr::new(99, 0, 0, 2), 2);
    assert!(engine.open_established(t, SeqNum(0)).is_none());
}
