//! Deterministic link impairments (FtStorm, DESIGN.md §14).
//!
//! Hostile-network scenarios need more than Bernoulli loss: real links
//! reorder (parallel paths, LAG hashing), duplicate (retransmitting
//! middleboxes), lose in bursts (interference, buffer overruns) and
//! jitter; trace comparisons (Fig. 14) want scripted every-Nth loss.
//! [`Impairments`] describes those mechanisms; [`ImpairState`]
//! turns the description into a per-packet decision stream that is a
//! pure function of `(seed, packet index)` — each mechanism draws from
//! its own forked [`SimRng`] on **every** data packet, so enabling or
//! triggering one mechanism never shifts another's draw sequence. That
//! property is what keeps the golden determinism digest and the
//! fast-forward/tick-by-tick equivalence byte-identical under every
//! impairment profile.

use f4t_sim::SimRng;

/// Gilbert–Elliott two-state burst-loss parameters. The chain moves
/// between a `good` and a `bad` state once per data packet; each state
/// has its own loss probability, so losses cluster into bursts whose
/// mean length is `1 / p_exit_bad` packets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeParams {
    /// P(good → bad) per data packet.
    pub p_enter_bad: f64,
    /// P(bad → good) per data packet.
    pub p_exit_bad: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GeParams {
    /// Mild bursty loss: a bad spell starts roughly every 500 packets,
    /// lasts ~8 packets and loses half of them — short enough that
    /// dup-ACK fast retransmit repairs most bursts without an RTO.
    pub fn mild() -> GeParams {
        GeParams { p_enter_bad: 0.002, p_exit_bad: 0.125, loss_good: 0.0, loss_bad: 0.5 }
    }
}

/// Scripted loss: drop data packets `start`, `start + n`, `start + 2n`, …
/// (1-based) — deterministic without a seed, good for trace comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EveryNth {
    /// Period in data packets.
    pub n: u64,
    /// Index (1-based) of the first dropped data packet.
    pub start: u64,
}

/// Impairment configuration for one link direction. All mechanisms
/// apply to data packets only — ACKs are never impaired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Impairments {
    /// Independent (memoryless) Bernoulli loss probability.
    pub loss_p: f64,
    /// Scripted every-Nth loss; composes with the random mechanisms
    /// (either one can drop a packet).
    pub every_nth: Option<EveryNth>,
    /// Burst loss (Gilbert–Elliott); `None` disables the chain.
    pub ge: Option<GeParams>,
    /// Probability a data packet is reordered (held back behind
    /// later-sent packets).
    pub reorder_p: f64,
    /// Maximum displacement, in packets, of a reordered packet. The
    /// drawn displacement is uniform in `[1, reorder_depth]`.
    pub reorder_depth: u64,
    /// Probability a data packet is delivered twice.
    pub dup_p: f64,
    /// Uniform extra one-way delay in `[0, jitter_ns)` per data packet
    /// (order-preserving: jitter alone never reorders).
    pub jitter_ns: u64,
    /// Seed for the per-mechanism decision streams.
    pub seed: u64,
}

impl Impairments {
    /// A clean link: every mechanism disabled.
    pub fn none() -> Impairments {
        Impairments {
            loss_p: 0.0,
            every_nth: None,
            ge: None,
            reorder_p: 0.0,
            reorder_depth: 0,
            dup_p: 0.0,
            jitter_ns: 0,
            seed: 0,
        }
    }

    /// A link that drops data packets `n`, `2n`, `3n`, … and nothing else
    /// (the Fig. 14 loss pattern).
    pub fn every_nth(n: u64) -> Impairments {
        Impairments { every_nth: Some(EveryNth { n, start: n }), ..Impairments::none() }
    }

    /// Whether any mechanism is enabled.
    pub fn is_active(&self) -> bool {
        self.loss_p > 0.0
            || self.every_nth.is_some()
            || self.ge.is_some()
            || self.reorder_p > 0.0
            || self.dup_p > 0.0
            || self.jitter_ns > 0
    }

    /// The named profiles accepted by `f4tperf --impair` and the
    /// scenario-matrix grid. `None` for an unknown name.
    pub fn profile(name: &str) -> Option<Impairments> {
        let base = Impairments::none();
        match name {
            "clean" => Some(base),
            "reorder" => Some(Impairments {
                reorder_p: 0.05,
                reorder_depth: 3,
                seed: 0xF47_0001,
                ..base
            }),
            "burst-loss" => {
                Some(Impairments { ge: Some(GeParams::mild()), seed: 0xF47_0002, ..base })
            }
            "duplicate" => Some(Impairments { dup_p: 0.02, seed: 0xF47_0003, ..base }),
            "jitter" => Some(Impairments { jitter_ns: 2_000, seed: 0xF47_0004, ..base }),
            "lossy" => Some(Impairments { loss_p: 0.005, seed: 0xF47_0005, ..base }),
            _ => None,
        }
    }

    /// Every profile name `profile` accepts, in documentation order.
    pub fn profile_names() -> &'static [&'static str] {
        &["clean", "reorder", "burst-loss", "duplicate", "jitter", "lossy"]
    }

    /// The same impairments with an independent decision stream — used
    /// to give each link direction its own draws.
    pub fn reseeded(&self, salt: u64) -> Impairments {
        Impairments { seed: self.seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)), ..*self }
    }
}

impl Default for Impairments {
    fn default() -> Impairments {
        Impairments::none()
    }
}

/// The per-packet verdict drawn from the decision streams.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImpairDecision {
    /// Drop the packet (Bernoulli or burst loss fired).
    pub drop: bool,
    /// Deliver the packet twice.
    pub duplicate: bool,
    /// Displacement in packets (0 = in order).
    pub reorder: u64,
    /// Extra one-way delay.
    pub jitter_ns: u64,
}

/// The decision machine: one forked [`SimRng`] stream per mechanism
/// plus the Gilbert–Elliott channel state.
#[derive(Debug, Clone)]
pub struct ImpairState {
    cfg: Impairments,
    loss: SimRng,
    ge: SimRng,
    reorder: SimRng,
    dup: SimRng,
    jitter: SimRng,
    /// Gilbert–Elliott channel state (`true` = bad).
    in_bad: bool,
    decisions: u64,
}

impl ImpairState {
    /// Creates the decision machine for `cfg`.
    pub fn new(cfg: Impairments) -> ImpairState {
        let mut root = SimRng::new(cfg.seed);
        ImpairState {
            cfg,
            loss: root.fork(),
            ge: root.fork(),
            reorder: root.fork(),
            dup: root.fork(),
            jitter: root.fork(),
            in_bad: false,
            decisions: 0,
        }
    }

    /// The configuration this machine draws for.
    pub fn config(&self) -> &Impairments {
        &self.cfg
    }

    /// Data packets judged so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Draws the verdict for the next data packet. Every enabled
    /// mechanism draws exactly once per call (the GE chain draws its
    /// transition plus, in a lossy state, its loss), so decision `i` of
    /// mechanism `m` depends only on `(seed, i)`; every-Nth loss draws
    /// nothing and reads `i` itself.
    pub fn decide(&mut self) -> ImpairDecision {
        self.decisions += 1;
        let mut d = ImpairDecision::default();
        if self.cfg.loss_p > 0.0 && self.loss.chance(self.cfg.loss_p) {
            d.drop = true;
        }
        if let Some(EveryNth { n, start }) = self.cfg.every_nth {
            if self.decisions >= start && (self.decisions - start).is_multiple_of(n) {
                d.drop = true;
            }
        }
        if let Some(ge) = self.cfg.ge {
            self.in_bad = if self.in_bad {
                !self.ge.chance(ge.p_exit_bad)
            } else {
                self.ge.chance(ge.p_enter_bad)
            };
            let p = if self.in_bad { ge.loss_bad } else { ge.loss_good };
            if p > 0.0 && self.ge.chance(p) {
                d.drop = true;
            }
        }
        if self.cfg.reorder_p > 0.0 && self.reorder.chance(self.cfg.reorder_p) {
            d.reorder = 1 + self.reorder.next_below(self.cfg.reorder_depth.max(1));
        }
        if self.cfg.dup_p > 0.0 && self.dup.chance(self.cfg.dup_p) {
            d.duplicate = true;
        }
        if self.cfg.jitter_ns > 0 {
            d.jitter_ns = self.jitter.next_below(self.cfg.jitter_ns);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_stream_is_deterministic() {
        let cfg = Impairments {
            loss_p: 0.1,
            every_nth: Some(EveryNth { n: 7, start: 3 }),
            ge: Some(GeParams::mild()),
            reorder_p: 0.2,
            reorder_depth: 4,
            dup_p: 0.1,
            jitter_ns: 500,
            seed: 7,
        };
        let mut a = ImpairState::new(cfg);
        let mut b = ImpairState::new(cfg);
        for _ in 0..10_000 {
            assert_eq!(a.decide(), b.decide());
        }
    }

    #[test]
    fn mechanisms_use_independent_streams() {
        // Enabling duplication must not change the loss decisions.
        let plain = Impairments { loss_p: 0.1, seed: 11, ..Impairments::none() };
        let with_dup = Impairments { dup_p: 0.5, ..plain };
        let mut a = ImpairState::new(plain);
        let mut b = ImpairState::new(with_dup);
        for _ in 0..5_000 {
            assert_eq!(a.decide().drop, b.decide().drop);
        }
    }

    /// Data packets (1-based) the machine drops among the first `count`.
    fn dropped(cfg: Impairments, count: u64) -> Vec<u64> {
        let mut st = ImpairState::new(cfg);
        (1..=count).filter(|_| st.decide().drop).collect()
    }

    #[test]
    fn every_nth_drops_exactly_its_schedule() {
        let cfg = Impairments {
            every_nth: Some(EveryNth { n: 3, start: 2 }),
            ..Impairments::none()
        };
        assert!(cfg.is_active());
        assert_eq!(dropped(cfg, 12), [2, 5, 8, 11]);
        assert_eq!(dropped(Impairments::every_nth(4), 12), [4, 8, 12]);
    }

    #[test]
    fn every_nth_composes_with_random_loss() {
        // Either mechanism drops; neither shifts the other's schedule.
        let random = Impairments { loss_p: 0.2, seed: 5, ..Impairments::none() };
        let both = Impairments { every_nth: Some(EveryNth { n: 3, start: 2 }), ..random };
        let (r, b) = (dropped(random, 3_000), dropped(both, 3_000));
        let mut union: Vec<u64> = r.iter().copied().chain((2..=3_000).step_by(3)).collect();
        union.sort_unstable();
        union.dedup();
        assert_eq!(b, union);
        assert!(r.len() > 400, "random loss engaged: {}", r.len());
    }

    #[test]
    fn ge_losses_cluster_into_bursts() {
        let cfg = Impairments { ge: Some(GeParams::mild()), seed: 3, ..Impairments::none() };
        let mut st = ImpairState::new(cfg);
        let verdicts: Vec<bool> = (0..200_000).map(|_| st.decide().drop).collect();
        let losses = verdicts.iter().filter(|&&d| d).count();
        // Stationary bad-state share 0.002/(0.002+0.125) ≈ 1.6%; half lost.
        assert!((500..4_000).contains(&losses), "losses {losses}");
        // Burstiness: a loss is followed by another loss far more often
        // than the marginal rate (memoryless loss would give ~0.8%).
        let pairs = verdicts.windows(2).filter(|w| w[0] && w[1]).count();
        assert!(
            pairs as f64 > losses as f64 * 0.1,
            "losses do not cluster: {pairs} pairs / {losses} losses"
        );
    }

    #[test]
    fn reorder_depth_bounded() {
        let cfg = Impairments {
            reorder_p: 1.0,
            reorder_depth: 3,
            seed: 5,
            ..Impairments::none()
        };
        let mut st = ImpairState::new(cfg);
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            let d = st.decide().reorder;
            assert!((1..=3).contains(&d), "displacement {d}");
            seen[d as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3], "all displacements drawn");
    }

    #[test]
    fn profiles_resolve_and_unknown_rejected() {
        for name in Impairments::profile_names() {
            let p = Impairments::profile(name).expect("known profile");
            assert_eq!(p.is_active(), *name != "clean", "{name}");
        }
        assert!(Impairments::profile("carrier-pigeon").is_none());
    }

    #[test]
    fn reseeded_direction_streams_differ() {
        let cfg = Impairments::profile("burst-loss").unwrap();
        let mut a = ImpairState::new(cfg);
        let mut b = ImpairState::new(cfg.reseeded(1));
        let same = (0..10_000).filter(|_| a.decide().drop == b.decide().drop).count();
        assert!(same < 10_000, "direction streams identical");
    }
}
