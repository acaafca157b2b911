//! Property-based tests over the whole engine: arbitrary interleavings of
//! host commands and hostile network input must never panic, and the
//! TCB's cumulative-pointer invariants must hold at every step.
//!
//! Randomized via the deterministic in-tree PRNG ([`f4t::sim::SimRng`])
//! rather than proptest — the build environment has no registry access.
//! Failures print the seed of the offending case; re-run with that seed
//! hardcoded to reproduce.

use f4t::core::{Engine, EngineConfig, EventKind, HostNotification};
use f4t::sim::SimRng;
use f4t::system::{DuplexLink, EnginePair};
use f4t::tcp::{FourTuple, Segment, SeqNum, TcpFlags, MSS};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
enum Op {
    /// Application asks to send `len` more bytes.
    Send(u16),
    /// Application consumes everything received so far.
    ConsumeAll,
    /// A network segment arrives with the given (offset-based) fields.
    Rx { seq_off: u32, ack_off: u32, len: u16, wnd: u32, flags: u8 },
    /// Time passes.
    Run(u16),
}

fn random_op(rng: &mut SimRng) -> Op {
    match rng.next_below(4) {
        0 => Op::Send(rng.next_below(4096) as u16),
        1 => Op::ConsumeAll,
        2 => Op::Rx {
            seq_off: rng.next_below(200_000) as u32,
            ack_off: rng.next_below(200_000) as u32,
            len: rng.next_below(2048) as u16,
            wnd: rng.next_below(1_000_000) as u32,
            // Any flag combination except SYN (which re-anchors the ISN
            // and is exercised separately by the handshake tests).
            flags: (rng.next_below(64) as u8) & !0x02,
        },
        _ => Op::Run(1 + rng.next_below(511) as u16),
    }
}

fn check_invariants(engine: &Engine, flow: f4t::tcp::FlowId, isn: SeqNum) {
    let Some(t) = engine.peek_tcb(flow) else { return };
    // Cumulative-pointer ordering: una <= nxt (in circular order), both
    // reachable from the ISN, and the congestion window never collapses
    // below one segment.
    assert!(t.snd_una.le(t.snd_nxt), "snd_una {:?} <= snd_nxt {:?}", t.snd_una, t.snd_nxt);
    assert!(t.snd_nxt.le(t.req.max_seq(t.snd_nxt)), "snd_nxt vs req");
    assert!(t.cwnd >= MSS, "cwnd {} >= 1 MSS", t.cwnd);
    assert!(t.flight_size() <= 1 << 30, "sane flight");
    assert!(t.rcv_consumed.le(t.rcv_nxt), "consumed <= received");
    let _ = isn;
}

/// Arbitrary op sequences never panic and never violate pointer
/// invariants — including garbage segments (bad ACKs, window 0,
/// random flags like RST).
#[test]
fn engine_survives_arbitrary_inputs() {
    for case in 0..64u64 {
        let mut rng = SimRng::new(0xE7A1_0000 + case);
        let cfg = EngineConfig { num_fpcs: 1, lut_groups: 1, ..EngineConfig::reference() };
        let mut e = Engine::new(cfg);
        let tuple = FourTuple::default();
        let isn = SeqNum(1_000);
        let flow = e.open_established(tuple, isn).unwrap();
        e.run(20);
        let mut req = isn;
        let n_ops = 1 + rng.next_below(59);
        for _ in 0..n_ops {
            match random_op(&mut rng) {
                Op::Send(len) => {
                    // The library only advances REQ within buffer space;
                    // emulate that contract.
                    let t = e.peek_tcb(flow);
                    let acked = t.map(|t| t.snd_una).unwrap_or(isn);
                    if req.since(acked).saturating_add(u32::from(len)) <= f4t::tcp::TCP_BUFFER {
                        req = req.add(u32::from(len));
                        e.push_host(flow, EventKind::SendReq { req });
                    }
                }
                Op::ConsumeAll => {
                    if let Some(t) = e.peek_tcb(flow) {
                        let upto = t.rcv_nxt;
                        e.push_host(flow, EventKind::RecvConsumed { consumed: upto });
                    }
                }
                Op::Rx { seq_off, ack_off, len, wnd, flags } => {
                    let seg = Segment {
                        tuple: tuple.reversed(),
                        seq: isn.add(seq_off),
                        ack: isn.add(ack_off),
                        flags: TcpFlags(flags),
                        window: wnd,
                        payload_len: u32::from(len),
                        is_retransmit: false,
                        ts_val: 1,
                        ts_ecr: 0,
                        tag: 0,
                    };
                    e.push_rx(seg);
                }
                Op::Run(n) => e.run(u64::from(n)),
            }
            e.run(4);
            check_invariants(&e, flow, isn);
            while e.pop_tx().is_some() {}
            while e.pop_notification().is_some() {}
        }
    }
}

/// Against a well-behaved peer (pure cumulative ACKs of whatever was
/// sent), every requested byte is eventually acknowledged, whatever
/// the send-size pattern.
#[test]
fn all_requested_data_gets_acked() {
    for case in 0..32u64 {
        let mut rng = SimRng::new(0xACED_0000 + case);
        let sends: Vec<u32> =
            (0..(1 + rng.next_below(29))).map(|_| 1 + rng.next_below(4_999) as u32).collect();
        let cfg = EngineConfig { num_fpcs: 1, lut_groups: 1, ..EngineConfig::reference() };
        let mut e = Engine::new(cfg);
        let tuple = FourTuple::default();
        let isn = SeqNum(0);
        let flow = e.open_established(tuple, isn).unwrap();
        e.run(20);
        let mut req = isn;
        for s in &sends {
            req = req.add(*s);
            e.push_host(flow, EventKind::SendReq { req });
            e.run(2);
        }
        let total: u32 = sends.iter().sum();
        for _ in 0..400_000u64 {
            e.tick();
            // Ideal peer: cumulative-ACK everything that arrives.
            let mut highest: Option<SeqNum> = None;
            while let Some(seg) = e.pop_tx() {
                if seg.has_payload() {
                    let end = seg.seq_end();
                    highest = Some(match highest {
                        Some(h) => h.max_seq(end),
                        None => end,
                    });
                }
            }
            if let Some(h) = highest {
                e.push_rx(Segment::pure_ack(tuple.reversed(), isn, h, f4t::tcp::TCP_BUFFER));
            }
            if e.peek_tcb(flow).map(|t| t.snd_una) == Some(isn.add(total)) {
                break;
            }
        }
        assert_eq!(e.peek_tcb(flow).unwrap().snd_una, isn.add(total), "case seed {case}");
    }
}

/// FtVerify positive property: with the hazard checker attached, random
/// interleavings of bulk transfer, echo traffic and connection churn over
/// deliberately tiny FPCs (so flows overflow to DRAM and migrate) report
/// **zero** violations — no port overuse, no schedule-parity drift, no
/// RMW hazards, no migration races, no FIFO imbalance.
#[test]
fn checker_stays_clean_under_random_bulk_echo_churn() {
    for case in 0..6u64 {
        let mut rng = SimRng::new(0xC4EC_0000 + case);
        // 2 FPCs x 4 slots vs 12 flows: DRAM residency and migrations are
        // guaranteed, which is exactly the machinery the checker audits.
        let cfg = EngineConfig {
            num_fpcs: 2,
            lut_groups: 2,
            flows_per_fpc: 4,
            check: true,
            ..EngineConfig::reference()
        };
        let mut pair = EnginePair::new(cfg, DuplexLink::ideal());
        let tuple_for = |port: u16| {
            FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), port, Ipv4Addr::new(10, 0, 0, 2), 80)
        };
        let mut next_port = 20_000u16;
        let mut flows = Vec::new();
        for _ in 0..12 {
            let t = tuple_for(next_port);
            next_port += 1;
            let fa = pair.a.open_established(t, SeqNum(0)).unwrap();
            let fb = pair.b.open_established(t.reversed(), SeqNum(0)).unwrap();
            flows.push((fa, fb, SeqNum(0), SeqNum(0)));
        }
        let exchange = |pair: &mut EnginePair, cycles: u64| {
            for _ in 0..cycles {
                pair.step(1);
                // Both apps consume what arrives, keeping windows open.
                for e in [&mut pair.a, &mut pair.b] {
                    while let Some(n) = e.pop_notification() {
                        if let HostNotification::DataReceived { flow, upto } = n {
                            e.push_host(flow, EventKind::RecvConsumed { consumed: upto });
                        }
                    }
                }
            }
        };
        exchange(&mut pair, 100);
        for _ in 0..250 {
            match rng.next_below(8) {
                // Bulk: push more request pointer on a random a-side flow.
                0..=3 => {
                    let i = rng.next_below(flows.len() as u64) as usize;
                    let (fa, _, req_a, _) = &mut flows[i];
                    let acked = pair.a.peek_tcb(*fa).map(|t| t.snd_una).unwrap_or(*req_a);
                    let add = 256 + rng.next_below(4096) as u32;
                    if req_a.since(acked).saturating_add(add) <= f4t::tcp::TCP_BUFFER {
                        *req_a = req_a.add(add);
                        pair.a.push_host(*fa, EventKind::SendReq { req: *req_a });
                    }
                }
                // Echo: the b side answers with its own small send.
                4..=5 => {
                    let i = rng.next_below(flows.len() as u64) as usize;
                    let (_, fb, _, req_b) = &mut flows[i];
                    let acked = pair.b.peek_tcb(*fb).map(|t| t.snd_una).unwrap_or(*req_b);
                    let add = 64 + rng.next_below(512) as u32;
                    if req_b.since(acked).saturating_add(add) <= f4t::tcp::TCP_BUFFER {
                        *req_b = req_b.add(add);
                        pair.b.push_host(*fb, EventKind::SendReq { req: *req_b });
                    }
                }
                // Churn: close one pair, open a fresh one on a new port.
                6 if flows.len() > 4 => {
                    let i = rng.next_below(flows.len() as u64) as usize;
                    let (fa, fb, _, _) = flows.swap_remove(i);
                    pair.a.push_host(fa, EventKind::Close);
                    pair.b.push_host(fb, EventKind::Close);
                    exchange(&mut pair, 200);
                    let t = tuple_for(next_port);
                    next_port += 1;
                    if let (Some(fa), Some(fb)) = (
                        pair.a.open_established(t, SeqNum(0)),
                        pair.b.open_established(t.reversed(), SeqNum(0)),
                    ) {
                        flows.push((fa, fb, SeqNum(0), SeqNum(0)));
                    }
                }
                // Time passes.
                _ => {}
            }
            exchange(&mut pair, 20 + rng.next_below(200));
        }
        exchange(&mut pair, 2_000);
        // The run must actually have exercised the audited machinery.
        let stats = pair.a.stats();
        assert!(
            stats.dram_events + stats.migrations > 0,
            "case {case}: workload never left SRAM — checker had nothing to audit"
        );
        for (side, e) in [("a", &pair.a), ("b", &pair.b)] {
            assert!(e.check_enabled());
            assert_eq!(
                e.check_total_violations(),
                0,
                "case {case} side {side}:\n{}",
                e.check_summary().unwrap_or_default()
            );
        }
    }
}
