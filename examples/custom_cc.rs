//! Programmability (§4.5): bring your own congestion-control algorithm.
//!
//! The paper's users program the TCP stack by rewriting the FPU in HLS
//! C++ — "users need to modify only the FPU". Here the same extension
//! point is the [`CongestionControl`] trait: implement it, hand it to the
//! engine, and every FPC runs it, with state riding in the TCB and zero
//! throughput penalty regardless of its (modelled) pipeline latency.
//!
//! The demo algorithm is a deliberately unusual one no stock stack ships:
//! a decoupled AIMD with a *multiplicative increase* probe phase, plus a
//! hard rate cap — the kind of datacenter-specific policy the paper's
//! flexibility argument is about.
//!
//! ```sh
//! cargo run --release --example custom_cc
//! ```

use f4t::core::{Engine, EngineConfig, EventKind, HostNotification};
use f4t::system::{DuplexLink, EnginePair};
use f4t::tcp::{CcState, CongestionControl, FourTuple, SeqNum, Tcb, MSS};
use std::sync::Arc;

/// A custom algorithm: multiplicative-increase up to a configured rate
/// cap, multiplicative-decrease on loss — "MIMD-with-ceiling".
#[derive(Debug)]
struct MimdCapped {
    /// Hard window ceiling in bytes (a tenant rate cap).
    cap: u32,
    /// Increase factor per ACK'd window (×1.25 per RTT ≈ probing).
    num: u32,
    den: u32,
}

impl CongestionControl for MimdCapped {
    fn name(&self) -> &'static str {
        "mimd-capped"
    }

    // Pretend this costs a deep 93-cycle pipeline (heavier than Vegas):
    // with F4T's architecture that is free (Fig. 15).
    fn fpu_latency_cycles(&self) -> u32 {
        93
    }

    fn init(&self, tcb: &mut Tcb) {
        tcb.cc = CcState::None;
        tcb.cwnd = 4 * MSS;
        tcb.ssthresh = self.cap;
    }

    fn on_ack(&self, tcb: &mut Tcb, newly_acked: u32, _rtt: Option<u64>, _now: u64) {
        // Multiplicative increase: grow proportionally to what was ACKed.
        let grow = (u64::from(newly_acked) * u64::from(self.num - self.den)
            / u64::from(self.den)) as u32;
        tcb.cwnd = tcb.cwnd.saturating_add(grow.max(1)).min(self.cap);
    }

    fn on_enter_recovery(&self, tcb: &mut Tcb, _now: u64) {
        tcb.ssthresh = (tcb.flight_size() / 2).max(2 * MSS);
        tcb.cwnd = tcb.ssthresh;
    }

    fn on_timeout(&self, tcb: &mut Tcb, _now: u64) {
        tcb.ssthresh = (tcb.flight_size() / 2).max(2 * MSS);
        tcb.cwnd = MSS;
    }
}

fn main() {
    println!("custom congestion control on FtEngine: MIMD with a 64-segment cap\n");

    let cap = 64 * MSS;
    let cc = Arc::new(MimdCapped { cap, num: 5, den: 4 });
    let cfg = EngineConfig { num_fpcs: 1, lut_groups: 1, ..EngineConfig::reference() };
    let mut pair = EnginePair {
        a: Engine::with_cc(cfg.clone(), cc),
        b: Engine::new(cfg), // the peer runs stock New Reno
        link: DuplexLink::ideal(),
    };

    let tuple = FourTuple::default();
    let isn = SeqNum(0);
    let fa = pair.a.open_established(tuple, isn).unwrap();
    pair.b.open_established(tuple.reversed(), isn).unwrap();

    // Bulk transfer with an ideal link; sample the window as it probes.
    let mut req = isn;
    let mut samples = Vec::new();
    for c in 0..150_000u64 {
        req = req.add(1024);
        pair.a.push_host(fa, EventKind::SendReq { req });
        pair.step(1);
        while let Some(n) = pair.b.pop_notification() {
            if let HostNotification::DataReceived { flow, upto } = n {
                pair.b.push_host(flow, EventKind::RecvConsumed { consumed: upto });
            }
        }
        if c % 15_000 == 0 {
            let t = pair.a.peek_tcb(fa).unwrap();
            samples.push((c * 4 / 1000, t.cwnd / MSS));
        }
    }

    println!("  t(µs)   cwnd(segments)");
    for (t, w) in &samples {
        println!("  {t:>5}   {w:>3}  {}", "#".repeat(*w as usize / 2));
    }

    let final_cwnd = pair.a.peek_tcb(fa).unwrap().cwnd;
    assert_eq!(final_cwnd, cap, "the ceiling held: {final_cwnd} == {cap}");
    let acked = pair.a.peek_tcb(fa).unwrap().snd_una.since(isn);
    println!("\n  delivered {} KB; window capped at exactly {} segments", acked / 1024, cap / MSS);
    println!(
        "\nThe engine ran an algorithm it had never seen, with a 93-cycle\n\
         FPU latency, at full throughput — §4.5's versatility claim."
    );
}
