//! Quickstart: a complete F4T round trip in ~60 lines of user code.
//!
//! Builds the paper's testbed — two hosts with FtEngines on a 100 Gbps
//! link — transfers data through the full stack (socket-style library →
//! command queues → PCIe → engine → wire → peer), and prints what
//! happened. Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use f4t::core::EngineConfig;
use f4t::system::F4tSystem;
use f4t::tcp::wire::{EthernetHeader, Ipv4Header, TcpHeader};
use f4t::tcp::{SeqNum, TcpFlags};
use std::net::Ipv4Addr;

fn main() {
    // --- 1. An end-to-end bulk transfer on the paper's reference design.
    // One sender core issuing 128 B requests (the paper's headline
    // request size) against one receiver core.
    let mut system = F4tSystem::bulk(1, 128, EngineConfig::reference());

    // Warm up 100 µs, measure 400 µs of simulated time.
    let metrics = system.measure(100_000, 400_000);

    println!("F4T quickstart — bulk transfer, 1 core, 128 B requests");
    println!("  goodput:          {:.1} Gbps", metrics.goodput_gbps());
    println!("  request rate:     {:.1} Mrps", metrics.mrps());
    println!("  retransmissions:  {}", metrics.retransmissions);
    println!(
        "  engine events:    {} (coalesced away: {})",
        system.a.engine.stats().host_events,
        system.a.engine.stats().events_coalesced
    );
    assert!(metrics.goodput_gbps() > 20.0, "the paper reports ~45 Gbps here");

    // --- 2. The same engine speaks real wire formats: here is one of its
    // segments rendered to actual TCP/IP bytes (checksummed), then parsed
    // back.
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(10, 0, 0, 2);
    let tcp = TcpHeader {
        src_port: 40_000,
        dst_port: 80,
        seq: SeqNum(1_000),
        ack: SeqNum(2_000),
        flags: TcpFlags::ACK | TcpFlags::PSH,
        window: 0xFFFF,
    };
    let payload = b"hello from F4T";
    let mut frame = Vec::new();
    EthernetHeader {
        dst: f4t::tcp::MacAddr([0x02, 0xf4, 0x70, 0, 0, 2]),
        src: f4t::tcp::MacAddr([0x02, 0xf4, 0x70, 0, 0, 1]),
        ethertype: EthernetHeader::TYPE_IPV4,
    }
    .write(&mut frame);
    Ipv4Header {
        src,
        dst,
        protocol: Ipv4Header::PROTO_TCP,
        total_len: (Ipv4Header::LEN + TcpHeader::LEN + payload.len()) as u16,
        ident: 1,
        ttl: 64,
    }
    .write(&mut frame);
    tcp.write(src, dst, payload, &mut frame);
    println!("\nwire check: built a {}-byte Ethernet/IPv4/TCP frame", frame.len());
    let (_, rest) = EthernetHeader::parse(&frame).expect("valid ethernet");
    let (ip, rest) = Ipv4Header::parse(rest).expect("valid ipv4 + checksum");
    let (parsed, body) = TcpHeader::parse(rest, ip.src, ip.dst).expect("valid tcp + checksum");
    assert_eq!(parsed, tcp);
    assert_eq!(body, payload);
    println!("wire check: parsed back OK (checksums verified)");

    // --- 3. The engine answers pings in hardware (§4.1.2).
    let ping = f4t::tcp::wire::IcmpEcho { is_request: true, ident: 7, seq: 1, payload: vec![1, 2, 3] };
    let pong = system.a.engine.handle_ping(&ping).expect("engine answers ping");
    println!("\nping {} -> pong {} (answered in hardware)", ping.seq, pong.seq);

    // --- 4. Wire two bare engines back to back and capture their
    // traffic for Wireshark.
    use f4t::core::EventKind;
    use f4t::system::{DuplexLink, EnginePair};
    let cfg = EngineConfig { num_fpcs: 1, lut_groups: 1, ..EngineConfig::reference() };
    let mut pair = EnginePair::new(cfg, DuplexLink::ideal());
    pair.link.enable_pcap(96);
    let tuple = f4t::tcp::FourTuple::new(
        Ipv4Addr::new(10, 0, 0, 1),
        40_000,
        Ipv4Addr::new(10, 0, 0, 2),
        80,
    );
    let fa = pair.a.open_established(tuple, SeqNum(0)).unwrap();
    let _fb = pair.b.open_established(tuple.reversed(), SeqNum(0)).unwrap();
    pair.a.run(20);
    pair.a.push_host(fa, EventKind::SendReq { req: SeqNum(20_000) });
    for _ in 0..20_000u64 {
        pair.step(1);
    }
    let packets = pair.link.pcap_packets();
    let path = std::env::temp_dir().join("f4t_quickstart.pcap");
    std::fs::write(&path, pair.link.take_pcap().expect("capture enabled")).expect("write pcap");
    println!(
        "\ncaptured {packets} packets of a 20 KB transfer to {} (open it in Wireshark)",
        path.display()
    );
}
