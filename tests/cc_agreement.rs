//! Fig.-14-style agreement test: FtEngine's congestion control (integer
//! TCB arithmetic in the FPU) against the independent NS3-style reference
//! (floating-point, `f4t-netsim`). Run under identical links and
//! deterministic loss, the windows must agree closely — two codebases,
//! one RFC.

use f4t::netsim::RefAlgo;
use f4t::tcp::CcAlgorithm;
use f4t_bench::figures::fig14_cwnd::{engine_trace, reference_trace, Trace};

/// Samples per trace.
const SAMPLES: usize = 20;

/// A Fig. 14 trace's cwnd column, in MSS units.
fn cwnd(trace: Trace) -> Vec<f64> {
    trace.into_iter().map(|(_, cwnd)| cwnd).collect()
}

/// Fig. 14's engine trace as a cwnd column. The engine samples once per
/// period after the first, so a shorter trace means a sample was skipped.
fn engine_cwnd(algo: CcAlgorithm, duration_ns: u64, drop_every: u64) -> Vec<f64> {
    let trace = cwnd(engine_trace(algo, duration_ns, drop_every, SAMPLES));
    assert_eq!(trace.len(), SAMPLES - 1, "engine trace skipped a sample");
    trace
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

#[test]
fn newreno_engine_matches_reference() {
    let dur = 8_000_000; // 8 ms: slow start + the first loss epochs
    let eng = engine_cwnd(CcAlgorithm::NewReno, dur, 1_500);
    let rf = cwnd(reference_trace(RefAlgo::NewReno, dur, 1_500, SAMPLES));
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
    let eng = engine_cwnd(CcAlgorithm::Cubic, dur, 1_500);
    let rf = cwnd(reference_trace(RefAlgo::Cubic, dur, 1_500, SAMPLES));
    let (me, mr) = (mean(&eng), mean(&rf));
    assert!(
        (me - mr).abs() / mr.max(1.0) < 0.3,
        "mean cwnd: engine {me:.1} vs reference {mr:.1}"
    );
}

#[test]
fn both_stacks_show_multiplicative_decrease() {
    let dur = 12_000_000;
    for trace in [
        engine_cwnd(CcAlgorithm::NewReno, dur, 1_200),
        cwnd(reference_trace(RefAlgo::NewReno, dur, 1_200, SAMPLES)),
    ] {
        let max = trace.iter().cloned().fold(0.0, f64::max);
        let has_drop = trace.windows(2).any(|w| w[1] < w[0] * 0.7);
        assert!(max > 50.0, "window grew: max {max:.1}");
        assert!(has_drop, "window halved after loss: {trace:?}");
    }
}
