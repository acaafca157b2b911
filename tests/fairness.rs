//! Bandwidth sharing: two window-unlimited F4T flows on one lossless
//! 5 Gbps, 50 µs bottleneck split it evenly, end to end through two
//! engines. The link's pacer backpressures both engines' TX queues and
//! never drops, so no AIMD loss occurs here: what is checked is that the
//! two flows share the backpressured wire evenly, not how congestion
//! control converges under loss.

use f4t::core::{EngineConfig, EventKind, HostNotification};
use f4t::system::{DuplexLink, EnginePair};
use f4t::tcp::{FourTuple, SeqNum};
use std::net::Ipv4Addr;

#[test]
fn two_flows_share_the_bottleneck_fairly() {
    let cfg = EngineConfig { num_fpcs: 2, lut_groups: 2, ..EngineConfig::reference() };
    let mut pair = EnginePair::new(cfg, DuplexLink::new(5, 50_000));
    let t1 = FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 40_000, Ipv4Addr::new(10, 0, 0, 2), 80);
    let t2 = FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 40_001, Ipv4Addr::new(10, 0, 0, 2), 80);
    let isn = SeqNum(0);
    let f1 = pair.a.open_established(t1, isn).unwrap();
    let f2 = pair.a.open_established(t2, isn).unwrap();
    pair.b.open_established(t1.reversed(), isn).unwrap();
    pair.b.open_established(t2.reversed(), isn).unwrap();

    let mut req1 = isn;
    let mut req2 = isn;
    for c in 0..6_000_000u64 {
        // Keep both send buffers topped up.
        if c % 64 == 0 {
            req1 = req1.add(16 * 1024);
            req2 = req2.add(16 * 1024);
            pair.a.push_host(f1, EventKind::SendReq { req: req1 });
            pair.a.push_host(f2, EventKind::SendReq { req: req2 });
        }
        pair.step(1);
        while let Some(n) = pair.b.pop_notification() {
            if let HostNotification::DataReceived { flow, upto } = n {
                pair.b.push_host(flow, EventKind::RecvConsumed { consumed: upto });
            }
        }
        while pair.a.pop_notification().is_some() {}
    }

    let d1 = u64::from(pair.a.peek_tcb(f1).unwrap().snd_una.since(isn));
    let d2 = u64::from(pair.a.peek_tcb(f2).unwrap().snd_una.since(isn));
    let total = d1 + d2;
    assert!(total > 0);
    // Jain's fairness index for two flows: (d1+d2)^2 / (2*(d1^2+d2^2)).
    let jain = (total as f64).powi(2) / (2.0 * ((d1 as f64).powi(2) + (d2 as f64).powi(2)));
    assert!(
        jain > 0.8,
        "unfair split: {d1} vs {d2} bytes (Jain {jain:.3})"
    );
    // And the bottleneck was actually used (≥ 50% of 5 Gbps over 24 ms).
    let gbps = f4t::sim::gbps(total, 24_000_000);
    assert!(gbps > 2.5, "bottleneck utilization {gbps:.2} Gbps");
}
