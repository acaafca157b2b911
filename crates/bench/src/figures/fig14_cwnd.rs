//! Figure 14: congestion-window traces, F4T vs the NS3-equivalent.
//!
//! A single bulk flow over a 10 Gbps, 50 µs link with a deterministic
//! drop every N data packets, run twice: once on two FtEngines (the FPU's
//! integer TCB arithmetic) and once on the independent reference
//! simulator (`f4t-netsim`, NS3-style floating point). The traces should
//! show the same sawtooth (New Reno) / concave-probe (CUBIC) shapes with
//! matching reduction points.

use crate::{banner, f, Table, Windows};
use f4t_core::{EngineConfig, EventKind, HostNotification};
use f4t_netsim::{Impairments, LinkConfig, RefAlgo, Simulation, SimulationConfig};
use f4t_system::{DuplexLink, EnginePair};
use f4t_tcp::{CcAlgorithm, FourTuple, SeqNum, MSS};

/// Samples per trace in the report.
const SAMPLES: usize = 40;

/// A cwnd trace: (time in ns, cwnd in MSS units) samples.
pub type Trace = Vec<(u64, f64)>;

/// Runs a single-flow bulk transfer between two engines over a paced,
/// delayed, lossy link; returns `samples` cwnd samples in MSS units.
pub fn engine_trace(algo: CcAlgorithm, duration_ns: u64, drop_every: u64, samples: usize) -> Trace {
    let cfg = EngineConfig { cc: algo, num_fpcs: 1, lut_groups: 1, ..EngineConfig::reference() };
    // 10 Gbps + 50 µs propagation each way, every Nth data packet lost.
    let mut pair = EnginePair::new(cfg, DuplexLink::new(10, 50_000));
    pair.link.set_impairments(Impairments::every_nth(drop_every));
    let tuple = FourTuple::default();
    let isn = SeqNum(0);
    let fa = pair.a.open_established(tuple, isn).unwrap();
    let _fb = pair.b.open_established(tuple.reversed(), isn).unwrap();

    let mut req = isn;
    let mut trace = Vec::new();
    let sample_every = duration_ns / samples as u64;
    let mut next_sample = sample_every;

    let cycles = duration_ns / 4;
    for c in 0..cycles {
        let now = c * 4;
        // Application: keep the send buffer topped up.
        if req.since(isn) < (c as u32 / 63) * MSS + 512 * 1024 {
            req = req.add(64 * 1024);
            pair.a.push_host(fa, EventKind::SendReq { req });
        }
        pair.step(1);
        // B's application consumes everything (iperf server), keeping the
        // advertised window open.
        while let Some(n) = pair.b.pop_notification() {
            if let HostNotification::DataReceived { flow, upto } = n {
                pair.b.push_host(flow, EventKind::RecvConsumed { consumed: upto });
            }
        }
        while pair.a.pop_notification().is_some() {}
        if now >= next_sample {
            next_sample += sample_every;
            if let Some(t) = pair.a.peek_tcb(fa) {
                trace.push((now, f64::from(t.cwnd) / f64::from(MSS)));
            }
        }
    }
    trace
}

/// Runs the NS3-equivalent under the same link and loss pattern.
pub fn reference_trace(algo: RefAlgo, duration_ns: u64, drop_every: u64, samples: usize) -> Trace {
    let sim = Simulation::new(SimulationConfig {
        algo,
        link: LinkConfig {
            bandwidth_gbps: 10.0,
            delay_ns: 50_000,
            queue_pkts: 2_000,
            impair: Impairments::every_nth(drop_every),
        },
        mss: MSS,
        duration_ns,
        sample_ns: duration_ns / samples as u64,
    });
    sim.run().samples.iter().map(|s| (s.t_ns, s.cwnd_segments)).collect()
}

/// A trace's mean, min and max cwnd and its count of multiplicative
/// decreases.
fn summarize(trace: &[(u64, f64)]) -> (f64, f64, f64, usize) {
    let vals: Vec<f64> = trace.iter().map(|&(_, v)| v).collect();
    let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
    let max = vals.iter().cloned().fold(0.0, f64::max);
    let min = vals.iter().cloned().fold(f64::MAX, f64::min);
    let descents = vals.windows(2).filter(|w| w[1] < w[0] * 0.85).count();
    (mean, min, max, descents)
}

pub fn report(w: Windows) -> String {
    let mut out = banner("Fig. 14", "congestion window: F4T engine vs NS3-equivalent reference", w);
    let duration = w.scale_ns(40_000_000); // 40 ms ≈ many loss epochs
    let drop_every = 1_500u64;

    // The paper shows NEW RENO and CUBIC; Vegas (also implemented in the
    // paper, §5.4) is included as an extension.
    for (algo, ref_algo) in [
        (CcAlgorithm::NewReno, RefAlgo::NewReno),
        (CcAlgorithm::Cubic, RefAlgo::Cubic),
        (CcAlgorithm::Vegas, RefAlgo::Vegas),
    ] {
        out += &format!("--- {algo} ---\n");
        let eng = engine_trace(algo, duration, drop_every, SAMPLES);
        let rf = reference_trace(ref_algo, duration, drop_every, SAMPLES);

        out += &format!(
            "cwnd trace (segments), sampled every {} µs:\n",
            duration / SAMPLES as u64 / 1000
        );
        let mut t = Table::new(&["t (ms)", "F4T", "NS3-ref"]);
        for i in (0..SAMPLES.min(eng.len()).min(rf.len())).step_by(2) {
            t.row(&[f(eng[i].0 as f64 / 1e6, 1), f(eng[i].1, 1), f(rf[i].1, 1)]);
        }
        out += &t.render();

        let (e_mean, e_min, e_max, e_desc) = summarize(&eng);
        let (r_mean, r_min, r_max, r_desc) = summarize(&rf);
        out += &format!(
            "summary: F4T mean {:.1} [{:.1}..{:.1}] segs, {} reductions; \
             NS3-ref mean {:.1} [{:.1}..{:.1}] segs, {} reductions\n\n",
            e_mean, e_min, e_max, e_desc, r_mean, r_min, r_max, r_desc
        );
    }
    out += "Paper: F4T faithfully reproduces the NS3 congestion-window\n\
            behaviour for NEW RENO and CUBIC under injected drops.\n";
    out
}
