//! The simulated link: serialization, propagation, queueing — and, via
//! [`Impairments`], scripted or random loss, reordering, duplication,
//! burst loss and jitter (the same loss decision the system-level
//! `DuplexLink` draws).

use crate::impair::{ImpairDecision, ImpairState, Impairments};

/// Link parameters.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Bottleneck bandwidth in Gbps.
    pub bandwidth_gbps: f64,
    /// One-way propagation delay in nanoseconds.
    pub delay_ns: u64,
    /// Drop-tail queue capacity in packets.
    pub queue_pkts: usize,
    /// Impairments of data packets (scripted or random loss, reorder,
    /// duplicate, burst loss, jitter).
    pub impair: Impairments,
}

impl Default for LinkConfig {
    fn default() -> LinkConfig {
        LinkConfig {
            bandwidth_gbps: 10.0,
            delay_ns: 50_000, // 50 µs one way
            queue_pkts: 100,
            impair: Impairments::none(),
        }
    }
}

/// What the link did with an offered packet: where (and whether) the
/// primary copy arrives, and the arrival of a duplicate if the
/// duplication impairment fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Offer {
    /// Arrival time of the packet at the far end; `None` when dropped.
    pub arrival: Option<u64>,
    /// Arrival time of a duplicate delivery, when one was injected.
    pub dup_arrival: Option<u64>,
}

/// One direction of the link.
#[derive(Debug)]
pub struct Link {
    config: LinkConfig,
    /// Time the transmitter becomes free.
    busy_until_ns: u64,
    data_pkts: u64,
    dropped_loss: u64,
    dropped_queue: u64,
    duplicated: u64,
    reordered: u64,
    impair: Option<ImpairState>,
}

impl Link {
    /// Creates a link direction.
    pub fn new(config: LinkConfig) -> Link {
        let impair = config.impair.is_active().then(|| ImpairState::new(config.impair));
        Link {
            config,
            busy_until_ns: 0,
            data_pkts: 0,
            dropped_loss: 0,
            dropped_queue: 0,
            duplicated: 0,
            reordered: 0,
            impair,
        }
    }

    fn serialize_ns(&self, wire_bytes: u64) -> u64 {
        ((wire_bytes * 8) as f64 / self.config.bandwidth_gbps) as u64
    }

    /// Offers a packet at `now`; returns its arrival time at the far end,
    /// or `None` if it was dropped (queue overflow or injected loss).
    /// `is_data` selects whether impairments apply. Duplicates
    /// injected by the impairment model are not visible through this
    /// legacy entry point — callers that honour duplication use
    /// [`Link::offer`].
    pub fn transmit(&mut self, now_ns: u64, wire_bytes: u64, is_data: bool) -> Option<u64> {
        self.offer(now_ns, wire_bytes, is_data).arrival
    }

    /// Offers a packet through the full impairment pipeline. Reordering
    /// is expressed as extra delay (the caller's event queue delivers in
    /// timestamp order, so a held-back packet lands behind later ones);
    /// the displacement is bounded by `reorder_depth` MTU serialization
    /// times. A duplicate trails the primary by one serialization time.
    pub fn offer(&mut self, now_ns: u64, wire_bytes: u64, is_data: bool) -> Offer {
        const NO: Offer = Offer { arrival: None, dup_arrival: None };
        let mut decision = ImpairDecision::default();
        if is_data {
            self.data_pkts += 1;
            if let Some(st) = self.impair.as_mut() {
                decision = st.decide();
            }
            if decision.drop {
                self.dropped_loss += 1;
                return NO;
            }
        }
        // Drop-tail queue: bound the backlog in serialization time.
        let queue_cap_ns = self.serialize_ns(1538) * self.config.queue_pkts as u64;
        if self.busy_until_ns.saturating_sub(now_ns) > queue_cap_ns {
            self.dropped_queue += 1;
            return NO;
        }
        let start = self.busy_until_ns.max(now_ns);
        self.busy_until_ns = start + self.serialize_ns(wire_bytes);
        let mut arrival = self.busy_until_ns + self.config.delay_ns;
        if decision.reorder > 0 {
            arrival += decision.reorder * self.serialize_ns(1538);
            self.reordered += 1;
        }
        arrival += decision.jitter_ns;
        let dup_arrival = decision.duplicate.then(|| {
            self.duplicated += 1;
            arrival + self.serialize_ns(wire_bytes)
        });
        Offer { arrival: Some(arrival), dup_arrival }
    }

    /// Packets dropped so far (all causes).
    pub fn dropped(&self) -> u64 {
        self.dropped_loss + self.dropped_queue
    }

    /// Packets dropped by injected loss (the impairment model's
    /// every-Nth, Bernoulli or burst mechanisms).
    pub fn dropped_loss(&self) -> u64 {
        self.dropped_loss
    }

    /// Packets dropped by drop-tail queue overflow.
    pub fn dropped_queue(&self) -> u64 {
        self.dropped_queue
    }

    /// Duplicate deliveries injected so far.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Packets held back (reordered) so far.
    pub fn reordered(&self) -> u64 {
        self.reordered
    }

    /// Data packets offered so far.
    pub fn data_pkts(&self) -> u64 {
        self.data_pkts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impair::EveryNth;

    #[test]
    fn serialization_and_delay() {
        let mut l = Link::new(LinkConfig {
            bandwidth_gbps: 10.0,
            delay_ns: 1_000,
            queue_pkts: 10,
            ..LinkConfig::default()
        });
        // 1250 bytes at 10 Gbps = 1 µs serialization.
        let arrival = l.transmit(0, 1250, true).unwrap();
        assert_eq!(arrival, 1_000 + 1_000);
        // Second packet queues behind the first.
        let arrival2 = l.transmit(0, 1250, true).unwrap();
        assert_eq!(arrival2, 2_000 + 1_000);
    }

    #[test]
    fn every_nth_drop_deterministic() {
        let every_nth = Some(EveryNth { n: 3, start: 2 });
        let cfg = LinkConfig {
            impair: Impairments { every_nth, ..Impairments::none() },
            ..Default::default()
        };
        let mut l = Link::new(cfg);
        let results: Vec<bool> =
            (0..7).map(|_| l.transmit(0, 100, true).is_some()).collect();
        // Packets 2 and 5 dropped (1-based).
        assert_eq!(results, vec![true, false, true, true, false, true, true]);
        assert_eq!(l.dropped(), 2);
        assert_eq!(l.dropped_loss(), 2, "all drops were injected");
        assert_eq!(l.dropped_queue(), 0);
    }

    #[test]
    fn random_drop_rate_close_to_p() {
        let cfg = LinkConfig {
            impair: Impairments { loss_p: 0.1, seed: 42, ..Impairments::none() },
            queue_pkts: 1_000_000,
            ..Default::default()
        };
        let mut l = Link::new(cfg);
        for _ in 0..10_000 {
            let _ = l.transmit(u64::MAX / 2, 100, true);
        }
        let rate = l.dropped() as f64 / 10_000.0;
        assert!((0.08..0.12).contains(&rate), "rate {rate}");
    }

    #[test]
    fn queue_overflow_drops_counted_separately() {
        let cfg = LinkConfig {
            bandwidth_gbps: 1.0,
            delay_ns: 0,
            queue_pkts: 2,
            ..LinkConfig::default()
        };
        let mut l = Link::new(cfg);
        let mut ok = 0;
        for _ in 0..10 {
            if l.transmit(0, 1538, true).is_some() {
                ok += 1;
            }
        }
        assert!(ok <= 4, "queue bounded, accepted {ok}");
        assert!(l.dropped() > 0);
        assert_eq!(l.dropped(), l.dropped_queue(), "overflow, not loss");
        assert_eq!(l.dropped_loss(), 0);
    }

    #[test]
    fn acks_bypass_every_nth_loss() {
        let cfg = LinkConfig { impair: Impairments::every_nth(1), ..Default::default() };
        let mut l = Link::new(cfg);
        assert!(l.transmit(0, 78, false).is_some(), "ACK survives 100% data loss");
        assert!(l.transmit(0, 100, true).is_none());
    }

    #[test]
    fn acks_bypass_impairments() {
        let cfg = LinkConfig {
            impair: Impairments { loss_p: 1.0, seed: 1, ..Impairments::none() },
            ..LinkConfig::default()
        };
        let mut l = Link::new(cfg);
        assert!(l.transmit(0, 78, false).is_some(), "ACK survives 100% impair loss");
        assert!(l.transmit(0, 100, true).is_none());
        assert_eq!(l.dropped_loss(), 1);
    }

    #[test]
    fn duplication_yields_trailing_copy() {
        let cfg = LinkConfig {
            delay_ns: 1_000,
            impair: Impairments { dup_p: 1.0, seed: 2, ..Impairments::none() },
            ..LinkConfig::default()
        };
        let mut l = Link::new(cfg);
        let o = l.offer(0, 1250, true);
        let first = o.arrival.unwrap();
        let dup = o.dup_arrival.unwrap();
        assert!(dup > first, "duplicate trails the original");
        assert_eq!(l.duplicated(), 1);
        // The legacy entry point still reports the primary arrival.
        assert!(l.transmit(0, 1250, true).is_some());
    }

    #[test]
    fn reordering_displaces_within_bound() {
        let cfg = LinkConfig {
            bandwidth_gbps: 10.0,
            delay_ns: 1_000,
            queue_pkts: 1_000,
            impair: Impairments {
                reorder_p: 1.0,
                reorder_depth: 3,
                seed: 3,
                ..Impairments::none()
            },
        };
        let mut l = Link::new(cfg);
        let base = Link::new(LinkConfig {
            bandwidth_gbps: 10.0,
            delay_ns: 1_000,
            queue_pkts: 1_000,
            ..LinkConfig::default()
        });
        let mtu_ns = base.serialize_ns(1538);
        for i in 0..100u64 {
            let now = i * 10_000;
            let held = l.offer(now, 100, true).arrival.unwrap();
            let clean = now + l.serialize_ns(100) + 1_000;
            let extra = held - clean;
            assert!(extra >= mtu_ns && extra <= 3 * mtu_ns, "displacement {extra}");
        }
        assert_eq!(l.reordered(), 100);
    }

    #[test]
    fn jitter_bounded_and_deterministic() {
        let cfg = LinkConfig {
            delay_ns: 1_000,
            impair: Impairments { jitter_ns: 500, seed: 4, ..Impairments::none() },
            ..LinkConfig::default()
        };
        let mut a = Link::new(cfg);
        let mut b = Link::new(cfg);
        for i in 0..1_000u64 {
            let now = i * 100_000;
            let aa = a.offer(now, 100, true).arrival.unwrap();
            let bb = b.offer(now, 100, true).arrival.unwrap();
            assert_eq!(aa, bb, "same seed, same arrivals");
            let clean = now + a.serialize_ns(100) + 1_000;
            assert!((0..500).contains(&(aa - clean)), "jitter {}", aa - clean);
        }
    }
}
