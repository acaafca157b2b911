#![warn(missing_docs)]
//! # f4t-baseline — the comparison designs
//!
//! Two prior FPGA TCP accelerator architectures the paper measures F4T
//! against:
//!
//! * [`StallingEngine`] — the "w-RMW" / `Baseline` design (§3.1, Fig. 2,
//!   Fig. 15, Fig. 16b): an engine that performs each stateful TCP
//!   operation as an atomic read-modify-write and therefore **stalls**
//!   between events. The paper derives it from Limago, which "operates at
//!   322 MHz and uses 17 cycles to process an event"; the Fig. 16b
//!   ablation runs the same design at F4T's 250 MHz.
//! * [`TonicModel`] — the "w/o-RMW" design (Fig. 2): TONIC's approach of
//!   forcing all RMW work into a single cycle at 100 MHz, transferring
//!   one fixed 128 B segment per cycle, with ~1 K flows of SRAM-only
//!   state. Fig. 2 additionally grants it arbitrary-length requests, as
//!   the paper does.
//!
//! Both are small cycle models exposing the same event-rate metric the
//! F4T engine reports, so the harnesses can sweep them side by side.

use f4t_sim::ClockDomain;
use std::collections::VecDeque;

/// The stalling w-RMW engine.
///
/// Events are admitted into a queue; processing an event occupies the
/// (single, non-pipelined) RMW unit for `stall_cycles`. This is the
/// architecture whose throughput collapses as TCP-algorithm latency grows
/// (Fig. 15) — exactly the failure mode F4T's accumulation removes.
///
/// # Examples
///
/// ```
/// use f4t_baseline::StallingEngine;
/// let mut e = StallingEngine::limago();
/// assert_eq!(e.events_per_second(), 322_000_000 / 17);
/// for _ in 0..100 {
///     e.offer_event();
///     e.tick();
/// }
/// assert!(e.processed() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct StallingEngine {
    clock: ClockDomain,
    stall_cycles: u64,
    busy_until: u64,
    cycle: u64,
    queue: VecDeque<()>,
    queue_cap: usize,
    processed: u64,
    offered: u64,
    rejected: u64,
}

impl StallingEngine {
    /// The Limago-derived design of §3.1: 322 MHz, 17 cycles per event.
    pub fn limago() -> StallingEngine {
        StallingEngine::new(ClockDomain::ENGINE_NET, 17)
    }

    /// The Fig. 16b `Baseline`: the same 17-cycle stall on F4T's 250 MHz
    /// platform.
    pub fn baseline_250mhz() -> StallingEngine {
        StallingEngine::new(ClockDomain::ENGINE_CORE, 17)
    }

    /// A stalling engine with an arbitrary per-event latency (the Fig. 15
    /// sweep).
    pub fn new(clock: ClockDomain, stall_cycles: u64) -> StallingEngine {
        assert!(stall_cycles > 0, "stall must be non-zero");
        StallingEngine {
            clock,
            stall_cycles,
            busy_until: 0,
            cycle: 0,
            queue: VecDeque::new(),
            queue_cap: 64,
            processed: 0,
            offered: 0,
            rejected: 0,
        }
    }

    /// The engine's clock domain.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Configured per-event occupancy in cycles.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Peak sustainable event rate: `frequency / stall` — the analytic
    /// ceiling the cycle model converges to.
    pub fn events_per_second(&self) -> u64 {
        self.clock.freq_hz() / self.stall_cycles
    }

    /// Offers one event; returns `false` if the input queue is full (the
    /// backpressure that, at system level, stalls the whole RX pipeline).
    pub fn offer_event(&mut self) -> bool {
        self.offered += 1;
        if self.queue.len() >= self.queue_cap {
            self.rejected += 1;
            return false;
        }
        self.queue.push_back(());
        true
    }

    /// Advances one cycle of this engine's clock.
    pub fn tick(&mut self) {
        if self.cycle >= self.busy_until
            && self.queue.pop_front().is_some() {
                self.processed += 1;
                self.busy_until = self.cycle + self.stall_cycles;
            }
        self.cycle += 1;
    }

    /// Events fully processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Events offered (accepted + rejected).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Events rejected by backpressure.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Measured event rate so far, events/second.
    pub fn measured_rate(&self) -> f64 {
        if self.cycle == 0 {
            return 0.0;
        }
        self.processed as f64 * self.clock.freq_hz() as f64 / self.cycle as f64
    }
}

/// The TONIC-like single-cycle design (§2.5).
///
/// Processes one event per 100 MHz cycle with **no** stalls — achieved by
/// obligating all RMW work to finish in 10 ns — but fixed to 128 B
/// segment-granularity transfers and ~1 K SRAM-resident flows. The Fig. 2
/// `w/o-RMW` curve additionally assumes arbitrary-length requests
/// (`segment_locked = false`).
#[derive(Debug, Clone)]
pub struct TonicModel {
    clock: ClockDomain,
    /// When true, every transfer is rounded up to whole 128 B segments
    /// and capped at one segment per event (TONIC's real constraint).
    segment_locked: bool,
    max_flows: u32,
    processed: u64,
    payload_bytes: u64,
    cycle: u64,
}

/// TONIC's fixed segment size.
pub const TONIC_SEGMENT: u32 = 128;

impl TonicModel {
    /// TONIC as published: 100 MHz, 128 B segments, 1 K flows.
    pub fn tonic() -> TonicModel {
        TonicModel {
            clock: ClockDomain::TONIC,
            segment_locked: true,
            max_flows: 1024,
            processed: 0,
            payload_bytes: 0,
            cycle: 0,
        }
    }

    /// The paper's hypothetical `w/o-RMW` design: same single-cycle
    /// processing, arbitrary request lengths.
    pub fn without_rmw() -> TonicModel {
        TonicModel { segment_locked: false, ..TonicModel::tonic() }
    }

    /// Peak event rate (one per cycle).
    pub fn events_per_second(&self) -> u64 {
        self.clock.freq_hz()
    }

    /// Maximum concurrent flows (SRAM-only TCB storage).
    pub fn max_flows(&self) -> u32 {
        self.max_flows
    }

    /// Processes one request of `len` bytes this cycle; returns the bytes
    /// actually transferred (capped at one 128 B segment when
    /// segment-locked).
    pub fn tick_with_request(&mut self, len: u32) -> u32 {
        self.cycle += 1;
        self.processed += 1;
        let sent = if self.segment_locked { len.min(TONIC_SEGMENT) } else { len };
        self.payload_bytes += u64::from(sent);
        sent
    }

    /// Total payload bytes transferred.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Events processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Achieved goodput in Gbps over the elapsed cycles.
    pub fn goodput_gbps(&self) -> f64 {
        if self.cycle == 0 {
            return 0.0;
        }
        let ns = self.clock.cycles_to_ns(self.cycle);
        f4t_sim::gbps(self.payload_bytes, ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limago_rate_matches_paper() {
        // 322 MHz / 17 cycles ≈ 18.9 M events/s.
        let e = StallingEngine::limago();
        assert_eq!(e.events_per_second(), 18_941_176);
    }

    #[test]
    fn baseline_250_rate() {
        // 250 MHz / 17 ≈ 14.7 M events/s — the Fig. 16b Baseline, which
        // makes 1FPC's 125 M/s an 8.5× gain, matching the paper's 8.6×.
        let e = StallingEngine::baseline_250mhz();
        assert_eq!(e.events_per_second(), 14_705_882);
        let gain = 125_000_000.0 / e.events_per_second() as f64;
        assert!((8.0..9.0).contains(&gain));
    }

    #[test]
    fn cycle_model_converges_to_analytic_rate() {
        let mut e = StallingEngine::new(ClockDomain::ENGINE_CORE, 17);
        for _ in 0..170_000 {
            e.offer_event();
            e.tick();
        }
        let measured = e.measured_rate();
        let analytic = e.events_per_second() as f64;
        assert!((measured - analytic).abs() / analytic < 0.01, "measured {measured}");
        assert!(e.rejected() > 0, "saturated input exerts backpressure");
    }

    #[test]
    fn stall_sweep_is_inverse_linear() {
        // Fig. 15's baseline curve shape: doubling the latency halves the
        // rate.
        let r1 = StallingEngine::new(ClockDomain::ENGINE_CORE, 10).events_per_second();
        let r2 = StallingEngine::new(ClockDomain::ENGINE_CORE, 20).events_per_second();
        assert_eq!(r1, 2 * r2);
    }

    #[test]
    fn idle_engine_processes_lazily() {
        let mut e = StallingEngine::new(ClockDomain::ENGINE_CORE, 5);
        for _ in 0..10 {
            e.tick();
        }
        assert_eq!(e.processed(), 0);
        e.offer_event();
        e.tick();
        assert_eq!(e.processed(), 1);
    }

    #[test]
    fn tonic_segment_lock_caps_transfers() {
        let mut t = TonicModel::tonic();
        assert_eq!(t.tick_with_request(1000), 128, "capped at one segment");
        assert_eq!(t.tick_with_request(64), 64, "small requests pass through");
        assert_eq!(t.max_flows(), 1024);
        assert_eq!(t.events_per_second(), 100_000_000);
    }

    #[test]
    fn without_rmw_sends_arbitrary_lengths() {
        let mut t = TonicModel::without_rmw();
        assert_eq!(t.tick_with_request(1000), 1000);
    }

    #[test]
    fn tonic_peak_goodput_at_128b() {
        // 128 B per 10 ns cycle = 102.4 Gbps of payload: TONIC's design
        // point for saturating 100G with 128 B requests.
        let mut t = TonicModel::tonic();
        for _ in 0..100_000 {
            t.tick_with_request(128);
        }
        assert!((t.goodput_gbps() - 102.4).abs() < 0.5, "got {}", t.goodput_gbps());
    }

    #[test]
    fn fig2_gap_shape() {
        // Fig. 2: w-RMW throughput = 18.9M * size; w/o-RMW = 100M * size.
        // The gap is a constant ~5.3x independent of request size.
        for size in [16u64, 128, 512, 4096] {
            let w_rmw = StallingEngine::limago().events_per_second() * size;
            let wo_rmw = TonicModel::without_rmw().events_per_second() * size;
            let ratio = wo_rmw as f64 / w_rmw as f64;
            assert!((5.2..5.4).contains(&ratio));
        }
    }
}
