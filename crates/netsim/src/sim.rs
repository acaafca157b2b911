//! The end-to-end reference simulation (sender → link → receiver → link
//! → sender), producing the Fig. 14 congestion-window traces.

use crate::endpoint::{RefReceiver, RefSender, SendOrder};
use crate::link::{Link, LinkConfig};
use crate::refcc::RefAlgo;
use f4t_sim::EventQueue;

/// One point of a congestion-window trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CwndSample {
    /// Simulation time in nanoseconds.
    pub t_ns: u64,
    /// Congestion window in segments.
    pub cwnd_segments: f64,
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    /// Congestion-control algorithm.
    pub algo: RefAlgo,
    /// Link in the data direction. The ACK direction shares its
    /// bandwidth, delay and queue; impairments never touch ACKs, so it
    /// is lossless.
    pub link: LinkConfig,
    /// Segment size.
    pub mss: u32,
    /// Duration in nanoseconds.
    pub duration_ns: u64,
    /// Sampling interval for the cwnd trace.
    pub sample_ns: u64,
}

impl Default for SimulationConfig {
    fn default() -> SimulationConfig {
        SimulationConfig {
            algo: RefAlgo::NewReno,
            link: LinkConfig::default(),
            mss: 1460,
            duration_ns: 2_000_000_000,
            sample_ns: 10_000_000,
        }
    }
}

/// Results of a run.
#[derive(Debug, Clone)]
pub struct TraceResult {
    /// Sampled congestion window over time.
    pub samples: Vec<CwndSample>,
    /// Bytes delivered in order at the receiver.
    pub delivered: u64,
    /// Retransmissions performed.
    pub retransmissions: u64,
    /// Data packets dropped by the link.
    pub drops: u64,
}

impl TraceResult {
    /// Mean cwnd in segments over the trace.
    pub fn mean_cwnd(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.cwnd_segments).sum::<f64>() / self.samples.len() as f64
    }

    /// Goodput in Gbps over the run duration.
    pub fn goodput_gbps(&self, duration_ns: u64) -> f64 {
        f4t_sim::gbps(self.delivered, duration_ns)
    }
}

#[derive(Debug)]
enum Event {
    /// A data segment arrives at the receiver.
    Data { seq: u64, len: u32, sent_ns: u64 },
    /// An ACK arrives at the sender.
    Ack { ack: u64, echo_ns: u64 },
    /// Retransmission-timeout check.
    Rto { armed_una: u64 },
    /// Trace sampling tick.
    Sample,
}

/// The simulation driver.
#[derive(Debug)]
pub struct Simulation {
    config: SimulationConfig,
}

impl Simulation {
    /// Creates a simulation.
    pub fn new(config: SimulationConfig) -> Simulation {
        Simulation { config }
    }

    /// Runs a single bulk flow for the configured duration and returns
    /// the congestion-window trace.
    pub fn run(&self) -> TraceResult {
        let cfg = self.config;
        let mut sender = RefSender::new(cfg.algo, cfg.mss, u64::MAX);
        let mut receiver = RefReceiver::new();
        let mut data_link = Link::new(cfg.link);
        let mut ack_link = Link::new(cfg.link);
        let mut q: EventQueue<Event> = EventQueue::new();
        let mut samples = Vec::new();

        let wire = |len: u32| u64::from(len) + 78;

        // A data send through the impairment-aware entry point: the
        // primary and any injected duplicate both become arrival events.
        let send_data =
            |link: &mut Link, q: &mut EventQueue<Event>, now: u64, seq: u64, len: u32, sent: u64| {
                let o = link.offer(now, wire(len), true);
                if let Some(at) = o.arrival {
                    q.schedule(at, Event::Data { seq, len, sent_ns: sent });
                }
                if let Some(at) = o.dup_arrival {
                    q.schedule(at, Event::Data { seq, len, sent_ns: sent });
                }
            };

        // Prime: fill the initial window and start sampling.
        let pump =
            |sender: &mut RefSender, link: &mut Link, q: &mut EventQueue<Event>, now: u64| {
                while let Some(SendOrder { seq, len, .. }) = sender.next_send() {
                    send_data(link, q, now, seq, len, now);
                }
                let rto_ns = (sender.rto() * 1e9) as u64;
                q.schedule(now + rto_ns, Event::Rto { armed_una: sender.snd_una() });
            };
        pump(&mut sender, &mut data_link, &mut q, 0);
        q.schedule(cfg.sample_ns, Event::Sample);

        while let Some((now, ev)) = q.pop() {
            if now > cfg.duration_ns {
                break;
            }
            match ev {
                Event::Data { seq, len, sent_ns } => {
                    let ack = receiver.on_data(seq, len);
                    if let Some(at) = ack_link.transmit(now, 78, false) {
                        q.schedule(at, Event::Ack { ack, echo_ns: sent_ns });
                    }
                }
                Event::Ack { ack, echo_ns } => {
                    let rtt = (now > echo_ns).then(|| (now - echo_ns) as f64 / 1e9);
                    let now_s = now as f64 / 1e9;
                    if let Some(rtx) = sender.on_ack(ack, rtt, now_s) {
                        send_data(&mut data_link, &mut q, now, rtx.seq, rtx.len, 0);
                    }
                    pump(&mut sender, &mut data_link, &mut q, now);
                }
                Event::Rto { armed_una } => {
                    // Lazy validation: fire only if no progress since armed.
                    if sender.snd_una() == armed_una && sender.flight() > 0 {
                        if let Some(rtx) = sender.on_timeout() {
                            send_data(&mut data_link, &mut q, now, rtx.seq, rtx.len, 0);
                        }
                        let rto_ns = (sender.rto() * 1e9) as u64;
                        q.schedule(now + rto_ns, Event::Rto { armed_una: sender.snd_una() });
                    }
                }
                Event::Sample => {
                    samples.push(CwndSample { t_ns: now, cwnd_segments: sender.cc.cwnd });
                    q.schedule(now + cfg.sample_ns, Event::Sample);
                }
            }
        }

        TraceResult {
            samples,
            delivered: receiver.rcv_nxt(),
            retransmissions: sender.retransmissions(),
            drops: data_link.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impair::{EveryNth, Impairments};

    fn run(algo: RefAlgo, impair: Impairments, duration_ms: u64) -> TraceResult {
        Simulation::new(SimulationConfig {
            algo,
            link: LinkConfig { impair, ..LinkConfig::default() },
            duration_ns: duration_ms * 1_000_000,
            sample_ns: 1_000_000,
            ..SimulationConfig::default()
        })
        .run()
    }

    /// Scripted loss of data packets `start`, `start + n`, ….
    fn every_nth(n: u64, start: u64) -> Impairments {
        Impairments { every_nth: Some(EveryNth { n, start }), ..Impairments::none() }
    }

    #[test]
    fn lossless_run_delivers_at_line_rate() {
        // Over-buffered link: no injected loss AND no queue overflow.
        let r = Simulation::new(SimulationConfig {
            algo: RefAlgo::NewReno,
            link: LinkConfig { queue_pkts: 10_000, ..LinkConfig::default() },
            duration_ns: 500_000_000,
            sample_ns: 1_000_000,
            ..SimulationConfig::default()
        })
        .run();
        assert_eq!(r.retransmissions, 0);
        assert_eq!(r.drops, 0);
        // 10 Gbps link, 100 µs RTT: should reach multi-Gbps goodput.
        assert!(r.goodput_gbps(500_000_000) > 5.0, "got {:.2}", r.goodput_gbps(500_000_000));
    }

    #[test]
    fn newreno_sawtooth_under_periodic_loss() {
        let r = run(RefAlgo::NewReno, every_nth(2000, 1500), 1000);
        assert!(r.retransmissions > 0, "losses were repaired");
        // A sawtooth: the max cwnd is well above the mean, and the window
        // repeatedly dips (count descents).
        let mut descents = 0;
        for w in r.samples.windows(2) {
            if w[1].cwnd_segments < w[0].cwnd_segments * 0.8 {
                descents += 1;
            }
        }
        assert!(descents >= 2, "saw {descents} multiplicative decreases");
    }

    #[test]
    fn cubic_recovers_faster_than_newreno() {
        let drops = every_nth(3000, 2000);
        let reno = run(RefAlgo::NewReno, drops, 1500);
        let cubic = run(RefAlgo::Cubic, drops, 1500);
        assert!(cubic.retransmissions > 0 && reno.retransmissions > 0);
        // CUBIC's concave catch-up yields a higher mean window under the
        // same loss pattern (the classic motivation for CUBIC).
        assert!(
            cubic.mean_cwnd() > reno.mean_cwnd() * 0.9,
            "cubic {:.1} vs reno {:.1}",
            cubic.mean_cwnd(),
            reno.mean_cwnd()
        );
    }

    #[test]
    fn vegas_avoids_losses_on_small_queue() {
        // Delay-based Vegas should stabilize below the queue cliff and
        // suffer far fewer drops than loss-based Reno.
        let link = LinkConfig { queue_pkts: 30, ..LinkConfig::default() };
        let reno = Simulation::new(SimulationConfig {
            algo: RefAlgo::NewReno,
            link,
            duration_ns: 1_000_000_000,
            sample_ns: 1_000_000,
            ..Default::default()
        })
        .run();
        let vegas = Simulation::new(SimulationConfig {
            algo: RefAlgo::Vegas,
            link,
            duration_ns: 1_000_000_000,
            sample_ns: 1_000_000,
            ..Default::default()
        })
        .run();
        assert!(
            vegas.drops < reno.drops / 2 + 1,
            "vegas {} drops vs reno {}",
            vegas.drops,
            reno.drops
        );
    }

    #[test]
    fn burst_loss_profile_recovers_end_to_end() {
        let r = Simulation::new(SimulationConfig {
            algo: RefAlgo::NewReno,
            link: LinkConfig {
                queue_pkts: 10_000,
                impair: Impairments::profile("burst-loss").unwrap(),
                ..LinkConfig::default()
            },
            duration_ns: 500_000_000,
            sample_ns: 1_000_000,
            ..SimulationConfig::default()
        })
        .run();
        assert!(r.drops > 0, "burst loss fired");
        assert!(r.retransmissions > 0, "losses were repaired");
        assert!(r.delivered > 10_000_000, "delivered {}", r.delivered);
    }

    #[test]
    fn duplication_does_not_inflate_delivery() {
        let base = SimulationConfig {
            algo: RefAlgo::NewReno,
            link: LinkConfig { queue_pkts: 10_000, ..LinkConfig::default() },
            duration_ns: 200_000_000,
            sample_ns: 1_000_000,
            ..SimulationConfig::default()
        };
        let clean = Simulation::new(base).run();
        let duped = Simulation::new(SimulationConfig {
            link: LinkConfig {
                impair: Impairments::profile("duplicate").unwrap(),
                ..base.link
            },
            ..base
        })
        .run();
        assert_eq!(duped.drops, 0, "duplication never drops");
        // The receiver's cumulative pointer counts each byte once, so
        // duplicates must not push goodput above the clean run's.
        assert!(
            duped.delivered <= clean.delivered,
            "dup {} vs clean {}",
            duped.delivered,
            clean.delivered
        );
        assert!(duped.delivered > clean.delivered / 2, "duplicates stalled the flow");
    }

    #[test]
    fn reorder_profile_bounded_retransmissions() {
        // Bounded displacement (≤3) sits at the dup-ACK threshold; the
        // retransmit count must stay a tiny fraction of delivered
        // segments (no spurious-retransmit storm).
        let r = Simulation::new(SimulationConfig {
            algo: RefAlgo::NewReno,
            link: LinkConfig {
                queue_pkts: 10_000,
                impair: Impairments::profile("reorder").unwrap(),
                ..LinkConfig::default()
            },
            duration_ns: 500_000_000,
            sample_ns: 1_000_000,
            ..SimulationConfig::default()
        })
        .run();
        assert_eq!(r.drops, 0, "reordering never drops");
        assert!(r.delivered > 10_000_000, "delivered {}", r.delivered);
        let segments = r.delivered / 1460;
        assert!(
            r.retransmissions < segments / 20,
            "retransmit storm: {} rtx for {segments} segments",
            r.retransmissions
        );
    }

    #[test]
    fn trace_sampling_covers_duration() {
        let r = run(RefAlgo::NewReno, Impairments::none(), 100);
        assert!(r.samples.len() >= 95, "got {} samples", r.samples.len());
        assert!(r.samples.windows(2).all(|w| w[1].t_ns > w[0].t_ns));
    }
}
