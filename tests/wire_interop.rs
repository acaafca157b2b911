//! Wire interop: every segment the engine emits can be rendered to real
//! Ethernet/IPv4/TCP bytes (checksummed) and parsed back losslessly — the
//! engine's fast path carries parsed segments, but nothing it produces is
//! un-serializable.

use f4t::core::{Engine, EngineConfig, EventKind};
use f4t::tcp::wire::{EthernetHeader, Ipv4Header, TcpHeader};
use f4t::tcp::{FourTuple, MacAddr, Segment, SeqNum};
use std::net::Ipv4Addr;

/// Renders a simulation segment to wire bytes (payload zero-filled, as
/// the simulator carries lengths only).
fn to_wire(seg: &Segment) -> Vec<u8> {
    let mut frame = Vec::new();
    EthernetHeader {
        dst: MacAddr([2, 2, 2, 2, 2, 2]),
        src: MacAddr([1, 1, 1, 1, 1, 1]),
        ethertype: EthernetHeader::TYPE_IPV4,
    }
    .write(&mut frame);
    let payload = vec![0u8; seg.payload_len as usize];
    Ipv4Header {
        src: seg.tuple.src_ip,
        dst: seg.tuple.dst_ip,
        protocol: Ipv4Header::PROTO_TCP,
        total_len: (Ipv4Header::LEN + TcpHeader::LEN + payload.len()) as u16,
        ident: 0,
        ttl: 64,
    }
    .write(&mut frame);
    TcpHeader {
        src_port: seg.tuple.src_port,
        dst_port: seg.tuple.dst_port,
        seq: seg.seq,
        ack: seg.ack,
        flags: seg.flags,
        window: seg.window.min(u32::from(u16::MAX)) as u16,
    }
    .write(seg.tuple.src_ip, seg.tuple.dst_ip, &payload, &mut frame);
    frame
}

#[test]
fn engine_segments_round_trip_through_bytes() {
    let cfg = EngineConfig { num_fpcs: 1, lut_groups: 1, ..EngineConfig::reference() };
    let mut e = Engine::new(cfg);
    let tuple =
        FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 40_000, Ipv4Addr::new(10, 0, 0, 2), 80);
    let flow = e.open_established(tuple, SeqNum(5_000)).unwrap();
    e.run(20);
    e.push_host(flow, EventKind::SendReq { req: SeqNum(5_000).add(10_000) });
    e.run(2_000);

    let mut checked = 0;
    while let Some(seg) = e.pop_tx() {
        let frame = to_wire(&seg);
        // MTU discipline: payload never exceeds the MSS.
        assert!(seg.payload_len <= f4t::tcp::MSS);
        assert!(frame.len() <= 14 + 20 + 20 + f4t::tcp::MSS as usize);

        let (_, rest) = EthernetHeader::parse(&frame).expect("ethernet");
        let (ip, rest) = Ipv4Header::parse(rest).expect("ipv4 checksum valid");
        assert_eq!(ip.src, tuple.src_ip);
        assert_eq!(ip.dst, tuple.dst_ip);
        let (tcp, body) = TcpHeader::parse(rest, ip.src, ip.dst).expect("tcp checksum valid");
        assert_eq!(tcp.src_port, tuple.src_port);
        assert_eq!(tcp.dst_port, tuple.dst_port);
        assert_eq!(tcp.seq, seg.seq);
        assert_eq!(tcp.ack, seg.ack);
        assert_eq!(tcp.flags, seg.flags);
        assert_eq!(body.len() as u32, seg.payload_len);
        checked += 1;
    }
    assert!(checked >= 7, "rendered {checked} segments (10 KB / MSS)");
}

#[test]
fn handshake_segments_round_trip_through_bytes() {
    let cfg = EngineConfig { num_fpcs: 1, lut_groups: 1, ..EngineConfig::reference() };
    let mut client = Engine::new(cfg.clone());
    let mut server = Engine::new(cfg);
    server.listen(80);
    let tuple =
        FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 40_001, Ipv4Addr::new(10, 0, 0, 2), 80);
    let fc = client.open_active(tuple).unwrap();
    client.push_host(fc, EventKind::Connect);

    // Every handshake segment crosses the wire as real bytes, so this
    // loop renders and parses each frame itself instead of stepping an
    // `EnginePair`.
    let mut syn_seen = false;
    let mut syn_ack_seen = false;
    for _ in 0..50_000u64 {
        client.tick();
        server.tick();
        while let Some(seg) = client.pop_tx() {
            let frame = to_wire(&seg);
            let (_, rest) = EthernetHeader::parse(&frame).unwrap();
            let (ip, rest) = Ipv4Header::parse(rest).unwrap();
            let (tcp, _) = TcpHeader::parse(rest, ip.src, ip.dst).unwrap();
            syn_seen |= tcp.flags.contains(f4t::tcp::TcpFlags::SYN)
                && !tcp.flags.contains(f4t::tcp::TcpFlags::ACK);
            server.push_rx(seg);
        }
        while let Some(seg) = server.pop_tx() {
            let frame = to_wire(&seg);
            let (_, rest) = EthernetHeader::parse(&frame).unwrap();
            let (ip, rest) = Ipv4Header::parse(rest).unwrap();
            let (tcp, _) = TcpHeader::parse(rest, ip.src, ip.dst).unwrap();
            syn_ack_seen |=
                tcp.flags.contains(f4t::tcp::TcpFlags::SYN | f4t::tcp::TcpFlags::ACK);
            client.push_rx(seg);
        }
        if syn_seen && syn_ack_seen {
            break;
        }
    }
    assert!(syn_seen, "SYN rendered and parsed");
    assert!(syn_ack_seen, "SYN|ACK rendered and parsed");
}
