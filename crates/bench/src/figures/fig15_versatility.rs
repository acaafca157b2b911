//! Figure 15: event processing rate vs FPU processing latency.
//!
//! The versatility result (§5.4): the stalling Baseline's throughput
//! falls as 1/latency, while F4T's is flat — its FPU is fully pipelined
//! and events accumulate while TCBs are in flight. Latencies bracket the
//! measured algorithm costs: New Reno 14, CUBIC 41, Vegas 68 cycles.
//!
//! Both designs are driven by the same saturating multi-flow event
//! stream; rates are measured from the cycle models, not computed.

use crate::{banner, f, Table, Windows};
use f4t_baseline::StallingEngine;
use f4t_core::fpc::{Fpc, ScanPolicy};
use f4t_core::fpu::EventView;
use f4t_core::{EventKind, FlowEvent};
use f4t_sim::ClockDomain;
use f4t_tcp::{FlowId, FourTuple, NewReno, SeqNum, Tcb, MSS};
use std::sync::Arc;

/// The FPU latencies of the figure's x-axis, in cycles.
pub const LATENCIES: [u32; 9] = [1, 5, 10, 14, 20, 41, 68, 100, 150];

/// Cycles each point runs.
pub fn cycles(w: Windows) -> u64 {
    if w.quick() {
        100_000
    } else {
        1_000_000
    }
}

/// Measures one FPC's sustained event-handling rate with the given FPU
/// latency, under a saturating stream of per-flow events.
pub fn f4t_rate(latency: u32, cycles: u64) -> f64 {
    let slots = 64usize;
    let mut fpc =
        Fpc::new(0, slots, Arc::new(NewReno), Some(latency), MSS, ScanPolicy::SkipIdle);
    // Install the flows, respecting the swap-in port's 1-per-2-cycles
    // acceptance rate.
    let mut out = f4t_core::fpc::FpcOutput::default();
    let mut setup_cycle = 0u64;
    for i in 0..slots as u32 {
        let mut t = Tcb::established(FlowId(i), FourTuple::default(), SeqNum(0));
        t.snd_wnd = u32::MAX / 2;
        t.cwnd = u32::MAX / 2;
        while !fpc.push_tcb(t, EventView::default()) {
            fpc.tick(setup_cycle, setup_cycle * 4, true, &mut out);
            setup_cycle += 1;
        }
    }
    for _ in 0..4 * slots as u64 {
        fpc.tick(setup_cycle, setup_cycle * 4, true, &mut out);
        setup_cycle += 1;
    }
    assert_eq!(fpc.flow_count(), slots, "all flows installed");
    let mut req = vec![SeqNum(0); slots];
    let mut next = 0usize;
    let handled0 = fpc.events_handled();
    for c in setup_cycle..setup_cycle + cycles {
        // Saturate the input FIFO with send-request events, round-robin
        // over flows (multi-flow pattern).
        while !fpc.input_full() {
            req[next] = req[next].add(64);
            let ev = FlowEvent::new(
                FlowId(next as u32),
                EventKind::SendReq { req: req[next] },
                c * 4,
            );
            if !fpc.push_event(ev) {
                break;
            }
            next = (next + 1) % slots;
        }
        out.tx.clear();
        out.outcomes.clear();
        fpc.tick(c, c * 4, true, &mut out);
    }
    (fpc.events_handled() - handled0) as f64 * 250e6 / cycles as f64
}

/// Measures the stalling baseline under the same saturating stream.
pub fn baseline_rate(latency: u32, cycles: u64) -> f64 {
    let mut e = StallingEngine::new(ClockDomain::ENGINE_CORE, u64::from(latency));
    for _ in 0..cycles {
        e.offer_event();
        e.tick();
    }
    e.measured_rate()
}

pub fn report(w: Windows) -> String {
    let mut out = banner("Fig. 15", "event processing rate vs FPU processing latency", w);
    let cycles = cycles(w);
    let mut t = Table::new(&[
        "FPU latency (cycles)",
        "Baseline (Mev/s)",
        "F4T (Mev/s)",
        "F4T/Baseline",
        "note",
    ]);
    for lat in LATENCIES {
        let b = baseline_rate(lat, cycles);
        let f4t = f4t_rate(lat, cycles);
        let note = match lat {
            14 => "= New Reno",
            41 => "= CUBIC",
            68 => "= TCP Vegas",
            _ => "",
        };
        t.row(&[
            lat.to_string(),
            f(b / 1e6, 1),
            f(f4t / 1e6, 1),
            format!("{:.1}x", f4t / b),
            note.to_string(),
        ]);
    }
    out += &t.render();
    out += "\n\
            Paper: Baseline degrades with latency; F4T holds 125 Mev/s per FPC\n\
            regardless, so Vegas (68 cycles) runs as fast as New Reno (14).\n";
    out
}
