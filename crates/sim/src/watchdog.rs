//! FtJournal's online health watchdog.
//!
//! The 64K-flow operating point cannot be eyeballed: the system itself
//! must detect anomalies online. The watchdog consumes periodic
//! observations (the engine feeds it at FtVerify audit boundaries) and
//! raises typed alarms for:
//!
//! * **stuck flows** — outstanding work but no forward progress of the
//!   cumulative ACK pointer for a configurable horizon (generalizing the
//!   ad-hoc stuck-flow scan `tests/scale_64k.rs` used to hard-code);
//! * **retransmit storms** — more retransmissions inside one observation
//!   window than the configured threshold;
//! * **queue-depth SLO breaches** — a queue observed at capacity for N
//!   consecutive observations;
//! * **starved LUT entries** — a flow stuck in the location LUT's
//!   `Moving` state past a horizon (a migration that never completed);
//! * **a starved swap-in queue** — flows waiting to enter a full set of
//!   FPCs while no eviction is in flight although a victim exists, past
//!   the same horizon (a migration that never started).
//!
//! The watchdog is engine-agnostic: it sees plain observation structs,
//! never engine types, so `f4t-sim` stays dependency-free. Each
//! (kind, subject) pair alarms at most once — an alarm is a forensic
//! trigger (dump + journal), not a per-interval metric.
//!
//! # Examples
//!
//! ```
//! use f4t_sim::watchdog::{FlowObservation, Watchdog, WatchdogConfig};
//! let cfg = WatchdogConfig { stall_horizon_cycles: 100, ..WatchdogConfig::default() };
//! let mut w = Watchdog::new(cfg);
//! let stuck = [FlowObservation { flow: 7, progress: 42, outstanding: true, moving: false }];
//! w.observe(0, &stuck, &[], 0, false);
//! w.observe(200, &stuck, &[], 0, false);
//! assert_eq!(w.alarms().len(), 1);
//! ```

use crate::telemetry::MetricsRegistry;
use std::collections::{BTreeMap, BTreeSet};

/// Number of per-kind alarm counters (telemetry rows).
pub const ALARM_KIND_COUNT: usize = 4;

/// Watchdog thresholds. Defaults are conservative (no false positives on
/// the healthy reference workloads); tests shrink them to trip fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// A flow with outstanding work whose progress marker is unchanged
    /// for this many cycles is stuck. The default (2.5M cycles = 10 ms
    /// at 250 MHz) sits beyond any healthy RTO backoff round.
    pub stall_horizon_cycles: u64,
    /// Retransmissions within one observation window at or above this
    /// count are a storm.
    pub retx_storm_threshold: u64,
    /// A queue observed at capacity this many consecutive observations
    /// breaches its SLO.
    pub queue_slo_consecutive: u32,
    /// A flow observed in the location LUT's `Moving` state for this
    /// many cycles is starved (its migration never completed); so is a
    /// swap-in queue observed starved for as long.
    pub moving_horizon_cycles: u64,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            stall_horizon_cycles: 2_500_000,
            retx_storm_threshold: 4_096,
            queue_slo_consecutive: 8,
            moving_horizon_cycles: 250_000,
        }
    }
}

/// One flow's health snapshot at an observation boundary.
#[derive(Debug, Clone, Copy)]
pub struct FlowObservation {
    /// The flow id.
    pub flow: u32,
    /// A monotone forward-progress marker (the engine uses the raw
    /// cumulative-ACK pointer `snd_una`).
    pub progress: u64,
    /// Whether the flow has outstanding work (request pointer ahead of
    /// the progress marker). Stall detection only applies while true.
    pub outstanding: bool,
    /// Whether the location LUT currently says `Moving` for this flow.
    pub moving: bool,
}

/// One queue's occupancy snapshot at an observation boundary.
#[derive(Debug, Clone, Copy)]
pub struct QueueObservation {
    /// Stable queue name (e.g. `scheduler.input_fifo`).
    pub name: &'static str,
    /// Entries currently queued.
    pub depth: usize,
    /// Queue capacity.
    pub cap: usize,
}

/// The class of anomaly an alarm reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlarmKind {
    /// No forward progress with work outstanding past the horizon.
    StuckFlow,
    /// Retransmissions above threshold within one observation window.
    RetxStorm,
    /// A queue at capacity for too many consecutive observations.
    QueueSlo,
    /// A location-LUT entry stuck in `Moving` past the horizon.
    StarvedLut,
    /// The swap-in queue waited past the horizon on FPCs that were all
    /// full while nothing was being evicted and a victim was on offer.
    SwapInStarved,
}

impl AlarmKind {
    /// Every kind with a telemetry row of its own, in catalog order.
    pub const ALL: [AlarmKind; ALARM_KIND_COUNT] = [
        AlarmKind::StuckFlow,
        AlarmKind::RetxStorm,
        AlarmKind::QueueSlo,
        AlarmKind::StarvedLut,
    ];

    /// Stable kind name (used in telemetry, dumps and METRICS.md).
    pub fn name(self) -> &'static str {
        match self {
            AlarmKind::StuckFlow => "stuck_flow",
            AlarmKind::RetxStorm => "retx_storm",
            AlarmKind::QueueSlo => "queue_slo",
            AlarmKind::StarvedLut => "starved_lut",
            AlarmKind::SwapInStarved => "swap_in_starved",
        }
    }

    /// Telemetry row the kind counts under. Both starved-migration kinds
    /// share `alarm.starved_lut`: the catalogue (METRICS.md) has one row
    /// for "a migration starved", and the alarm line tells them apart.
    fn index(self) -> usize {
        match self {
            AlarmKind::StuckFlow => 0,
            AlarmKind::RetxStorm => 1,
            AlarmKind::QueueSlo => 2,
            AlarmKind::StarvedLut | AlarmKind::SwapInStarved => 3,
        }
    }
}

/// A raised alarm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alarm {
    /// Observation cycle at which the alarm fired.
    pub cycle: u64,
    /// Anomaly class.
    pub kind: AlarmKind,
    /// The implicated flow, when the anomaly is per-flow.
    pub flow: Option<u32>,
    /// Human-readable evidence (horizon, counts, queue name).
    pub detail: String,
}

impl Alarm {
    /// Single-line rendering for dumps and test output.
    pub fn line(&self) -> String {
        match self.flow {
            Some(f) => format!("{} {} flow={} {}", self.cycle, self.kind.name(), f, self.detail),
            None => format!("{} {} {}", self.cycle, self.kind.name(), self.detail),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct FlowState {
    progress: u64,
    /// Cycle the progress marker last changed (or tracking began).
    progress_since: u64,
    /// Cycle the flow was first seen in `Moving` (`None` when not moving).
    moving_since: Option<u64>,
}

/// The watchdog: periodic-observation anomaly detector.
#[derive(Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    flows: BTreeMap<u32, FlowState>,
    /// Consecutive at-capacity observations per queue.
    queue_full_streak: BTreeMap<&'static str, u32>,
    /// (kind row, flow, queue) subjects already alarmed — alarms fire
    /// once per flow, once per queue, once for a global anomaly.
    alerted: BTreeSet<(usize, Option<u32>, &'static str)>,
    alarms: Vec<Alarm>,
    per_kind: [u64; ALARM_KIND_COUNT],
    observations: u64,
    last_retx_total: u64,
    /// Cycle the swap-in queue was first observed starved (`None` while
    /// it is not).
    swap_in_starved_since: Option<u64>,
}

impl Watchdog {
    /// Creates a watchdog with the given thresholds.
    pub fn new(cfg: WatchdogConfig) -> Watchdog {
        Watchdog {
            cfg,
            flows: BTreeMap::new(),
            queue_full_streak: BTreeMap::new(),
            alerted: BTreeSet::new(),
            alarms: Vec::new(),
            per_kind: [0; ALARM_KIND_COUNT],
            observations: 0,
            last_retx_total: 0,
            swap_in_starved_since: None,
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> WatchdogConfig {
        self.cfg
    }

    /// Ingests one observation boundary: per-flow snapshots (the full
    /// live-flow scan, any order — state is keyed by flow id), queue
    /// occupancies, the engine's cumulative retransmission counter and the
    /// swap-in path's health. `swap_in_starved` means: flows wait for
    /// swap-in, every FPC is full, no migration is in flight, and yet some
    /// FPC holds an evictable flow — the scheduler could make room and is
    /// not doing so; it alarms once the condition has held across
    /// observations for [`WatchdogConfig::moving_horizon_cycles`]. Returns
    /// the number of alarms raised by this observation.
    pub fn observe(
        &mut self,
        cycle: u64,
        flows: &[FlowObservation],
        queues: &[QueueObservation],
        retx_total: u64,
        swap_in_starved: bool,
    ) -> usize {
        self.observations += 1;
        let before = self.alarms.len();

        // Flow health: carry state across scans, drop closed flows.
        let mut next = BTreeMap::new();
        for ob in flows {
            let prev = self.flows.get(&ob.flow).copied();
            let mut st = match prev {
                Some(p) if p.progress == ob.progress => p,
                _ => FlowState {
                    progress: ob.progress,
                    progress_since: cycle,
                    moving_since: prev.and_then(|p| p.moving_since),
                },
            };
            st.moving_since = if ob.moving { st.moving_since.or(Some(cycle)) } else { None };
            if ob.outstanding && cycle.saturating_sub(st.progress_since) >= self.cfg.stall_horizon_cycles
            {
                self.raise(
                    cycle,
                    AlarmKind::StuckFlow,
                    Some(ob.flow),
                    "",
                    format!(
                        "no progress past {} for {} cycles (horizon {})",
                        st.progress,
                        cycle - st.progress_since,
                        self.cfg.stall_horizon_cycles
                    ),
                );
            }
            if let Some(since) = st.moving_since {
                if cycle.saturating_sub(since) >= self.cfg.moving_horizon_cycles {
                    self.raise(
                        cycle,
                        AlarmKind::StarvedLut,
                        Some(ob.flow),
                        "",
                        format!(
                            "LUT entry Moving for {} cycles (horizon {})",
                            cycle - since,
                            self.cfg.moving_horizon_cycles
                        ),
                    );
                }
            }
            next.insert(ob.flow, st);
        }
        self.flows = next;

        // Queue SLO: at-capacity streaks.
        for q in queues {
            let streak = self.queue_full_streak.entry(q.name).or_insert(0);
            if q.cap > 0 && q.depth >= q.cap {
                *streak += 1;
            } else {
                *streak = 0;
            }
            if *streak >= self.cfg.queue_slo_consecutive {
                let streak = *streak;
                self.raise(
                    cycle,
                    AlarmKind::QueueSlo,
                    None,
                    q.name,
                    format!(
                        "queue {} at capacity {} for {} consecutive observations",
                        q.name, q.cap, streak
                    ),
                );
            }
        }

        // Retransmit storm: per-window delta of the cumulative counter.
        let delta = retx_total.saturating_sub(self.last_retx_total);
        self.last_retx_total = retx_total;
        if delta >= self.cfg.retx_storm_threshold {
            self.raise(
                cycle,
                AlarmKind::RetxStorm,
                None,
                "",
                format!(
                    "{delta} retransmissions in one observation window (threshold {})",
                    self.cfg.retx_storm_threshold
                ),
            );
        }

        // Swap-in starvation: how long the condition has held.
        self.swap_in_starved_since =
            if swap_in_starved { self.swap_in_starved_since.or(Some(cycle)) } else { None };
        if let Some(since) = self.swap_in_starved_since {
            if cycle - since >= self.cfg.moving_horizon_cycles {
                self.raise(
                    cycle,
                    AlarmKind::SwapInStarved,
                    None,
                    "",
                    format!(
                        "swap-in queue starved for {} cycles with a victim on offer (horizon {})",
                        cycle - since,
                        self.cfg.moving_horizon_cycles
                    ),
                );
            }
        }
        self.alarms.len() - before
    }

    /// Records an alarm about `flow` (per-flow kinds) or `queue` (queue
    /// SLOs; empty otherwise) unless that subject already alarmed.
    fn raise(
        &mut self,
        cycle: u64,
        kind: AlarmKind,
        flow: Option<u32>,
        queue: &'static str,
        detail: String,
    ) {
        if !self.alerted.insert((kind.index(), flow, queue)) {
            return;
        }
        self.per_kind[kind.index()] += 1;
        self.alarms.push(Alarm { cycle, kind, flow, detail });
    }

    /// Alarms raised so far, in firing order.
    pub fn alarms(&self) -> &[Alarm] {
        &self.alarms
    }

    /// Total alarms raised.
    pub fn alarm_count(&self) -> u64 {
        self.alarms.len() as u64
    }

    /// Observation boundaries ingested.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Reports watchdog telemetry into `reg` under `prefix`.
    pub fn collect(&self, prefix: &str, reg: &mut MetricsRegistry) {
        reg.counter(&format!("{prefix}.observations"), self.observations);
        reg.counter(&format!("{prefix}.alarms_total"), self.alarms.len() as u64);
        reg.gauge(&format!("{prefix}.flows_tracked"), self.flows.len() as f64);
        for kind in AlarmKind::ALL {
            reg.counter(
                &format!("{prefix}.alarm.{}", kind.name()),
                self.per_kind[kind.index()],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(flow: u32, progress: u64, outstanding: bool) -> FlowObservation {
        FlowObservation { flow, progress, outstanding, moving: false }
    }

    fn tight() -> WatchdogConfig {
        WatchdogConfig {
            stall_horizon_cycles: 100,
            retx_storm_threshold: 10,
            queue_slo_consecutive: 3,
            moving_horizon_cycles: 100,
        }
    }

    #[test]
    fn stuck_flow_fires_once_past_horizon() {
        let mut w = Watchdog::new(tight());
        assert_eq!(w.observe(0, &[flow(7, 42, true)], &[], 0, false), 0);
        assert_eq!(w.observe(50, &[flow(7, 42, true)], &[], 0, false), 0, "inside horizon");
        assert_eq!(w.observe(150, &[flow(7, 42, true)], &[], 0, false), 1);
        assert_eq!(w.observe(300, &[flow(7, 42, true)], &[], 0, false), 0, "alarms once");
        let a = &w.alarms()[0];
        assert_eq!(a.kind, AlarmKind::StuckFlow);
        assert_eq!(a.flow, Some(7));
        assert!(a.line().contains("stuck_flow flow=7"));
    }

    #[test]
    fn progress_resets_the_stall_clock() {
        let mut w = Watchdog::new(tight());
        w.observe(0, &[flow(7, 42, true)], &[], 0, false);
        w.observe(90, &[flow(7, 43, true)], &[], 0, false);
        assert_eq!(w.observe(150, &[flow(7, 43, true)], &[], 0, false), 0, "clock restarted at 90");
        assert_eq!(w.observe(200, &[flow(7, 43, true)], &[], 0, false), 1);
    }

    #[test]
    fn idle_flows_never_stall() {
        let mut w = Watchdog::new(tight());
        w.observe(0, &[flow(7, 42, false)], &[], 0, false);
        w.observe(10_000, &[flow(7, 42, false)], &[], 0, false);
        assert!(w.alarms().is_empty());
    }

    #[test]
    fn closed_flows_are_pruned() {
        let mut w = Watchdog::new(tight());
        w.observe(0, &[flow(7, 42, true)], &[], 0, false);
        w.observe(50, &[], &[], 0, false); // flow closed
        w.observe(500, &[flow(7, 42, true)], &[], 0, false); // reopened id: fresh clock
        assert!(w.alarms().is_empty());
    }

    #[test]
    fn starved_lut_entry_detected() {
        let mut w = Watchdog::new(tight());
        let moving = FlowObservation { flow: 3, progress: 0, outstanding: false, moving: true };
        w.observe(0, &[moving], &[], 0, false);
        assert_eq!(w.observe(150, &[moving], &[], 0, false), 1);
        assert_eq!(w.alarms()[0].kind, AlarmKind::StarvedLut);
        // Movement completing clears the clock.
        let mut w = Watchdog::new(tight());
        w.observe(0, &[moving], &[], 0, false);
        w.observe(50, &[flow(3, 0, false)], &[], 0, false);
        assert_eq!(w.observe(500, &[moving], &[], 0, false), 0, "fresh Moving episode");
    }

    #[test]
    fn starved_swap_in_queue_detected_once_past_the_horizon() {
        let mut w = Watchdog::new(tight());
        assert_eq!(w.observe(0, &[], &[], 0, true), 0);
        assert_eq!(w.observe(60, &[], &[], 0, false), 0, "an eviction started: clock cleared");
        assert_eq!(w.observe(120, &[], &[], 0, true), 0);
        assert_eq!(w.observe(200, &[], &[], 0, true), 0, "80 cycles into the second episode");
        assert_eq!(w.observe(220, &[], &[], 0, true), 1);
        assert_eq!(w.observe(400, &[], &[], 0, true), 0, "alarms once");
        let a = &w.alarms()[0];
        assert_eq!((a.kind, a.flow), (AlarmKind::SwapInStarved, None));
        assert!(a.line().starts_with("220 swap_in_starved "), "{}", a.line());
        // Counted on the starved-migration row, next to starved_lut.
        let mut reg = MetricsRegistry::new();
        w.collect("watchdog", &mut reg);
        assert_eq!(reg.counter_value("watchdog.alarm.starved_lut"), 1);
        assert_eq!(reg.counter_value("watchdog.alarms_total"), 1);
    }

    #[test]
    fn queue_slo_needs_consecutive_full_observations() {
        let mut w = Watchdog::new(tight());
        let full = QueueObservation { name: "scheduler.input_fifo", depth: 8, cap: 8 };
        let ok = QueueObservation { name: "scheduler.input_fifo", depth: 2, cap: 8 };
        w.observe(0, &[], &[full], 0, false);
        w.observe(1, &[], &[ok], 0, false); // streak broken
        w.observe(2, &[], &[full], 0, false);
        w.observe(3, &[], &[full], 0, false);
        assert!(w.alarms().is_empty());
        assert_eq!(w.observe(4, &[], &[full], 0, false), 1);
        assert_eq!(w.alarms()[0].kind, AlarmKind::QueueSlo);
        assert!(w.alarms()[0].detail.contains("scheduler.input_fifo"));
    }

    #[test]
    fn retx_storm_uses_window_delta() {
        let mut w = Watchdog::new(tight());
        w.observe(0, &[], &[], 5, false);
        assert!(w.alarms().is_empty(), "5 in the first window is below threshold");
        w.observe(1, &[], &[], 9, false);
        assert!(w.alarms().is_empty(), "delta 4");
        assert_eq!(w.observe(2, &[], &[], 30, false), 1, "delta 21 >= 10");
        assert_eq!(w.alarms()[0].kind, AlarmKind::RetxStorm);
    }

    #[test]
    fn collect_reports_registry_metrics() {
        let mut w = Watchdog::new(tight());
        w.observe(0, &[flow(1, 0, true)], &[], 0, false);
        w.observe(200, &[flow(1, 0, true)], &[], 0, false);
        let mut reg = MetricsRegistry::new();
        w.collect("watchdog", &mut reg);
        assert_eq!(reg.counter_value("watchdog.observations"), 2);
        assert_eq!(reg.counter_value("watchdog.alarms_total"), 1);
        assert_eq!(reg.counter_value("watchdog.alarm.stuck_flow"), 1);
        assert_eq!(reg.counter_value("watchdog.alarm.retx_storm"), 0);
    }
}
