//! FtJournal — a bounded, per-flow-sampled causal event journal.
//!
//! FtScope answers *how busy* each module is and FtFlight answers *where
//! a flow's time goes*; FtJournal answers *what actually happened to flow
//! N, in order*. Every core module (RX parser, scheduler, FPCs, memory
//! manager, packet generator, timers) plus the host doorbell path emits
//! typed events stamped with the absolute simulated engine clock, and the
//! journal keeps a bounded ring of the most recent ones — the black-box
//! flight recorder a post-mortem dump serializes when an invariant
//! violation, watchdog alarm or perf-gate failure fires.
//!
//! Design constraints (DESIGN.md §11):
//!
//! * **Deterministic under fast-forward.** Events are only emitted at
//!   executed ticks and stamped with the simulated clock; fast-forward
//!   skips only provably idle windows, so a fast-forwarded run journals
//!   exactly what a tick-by-tick run journals, byte for byte
//!   (`tests/fastforward_equiv.rs`).
//! * **Cheap.** Sampling is flow-id based (`flow % sample == 0`), the
//!   same policy FtFlight uses, so both execution modes agree on the
//!   sampled set without shared state; an unsampled flow costs one
//!   branch per emission.
//! * **Bounded.** The ring overwrites its oldest entry once full; a
//!   running FNV-1a digest over *every* recorded event (including
//!   overwritten ones) still fingerprints the complete stream.
//!
//! # Examples
//!
//! ```
//! use f4t_sim::journal::{Journal, JournalKind, JournalModule};
//! let mut j = Journal::new(1);
//! j.record(40, JournalModule::RxParser, JournalKind::SegAccepted, 7, 1448, 0);
//! assert_eq!(j.events_recorded(), 1);
//! assert!(j.lines().next().unwrap().contains("seg_accepted"));
//! ```

use crate::digest::{fnv1a, FNV_OFFSET};
use crate::ring::Ring;
use crate::telemetry::MetricsRegistry;

/// Default ring capacity: at 48 B/event this bounds the journal at 3 MB.
pub const JOURNAL_DEFAULT_CAP: usize = 65_536;

/// Number of event kinds in the catalog.
pub const KIND_COUNT: usize = 19;

/// The module an event is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JournalModule {
    /// RX parser: MAC ingest, cuckoo flow lookup, segment admission.
    RxParser,
    /// Scheduler: coalesce FIFOs, location LUT, migration control.
    Scheduler,
    /// An FPC: event-table accumulation, TCB dispatch, FPU writeback.
    Fpc,
    /// The FPU pipeline proper (decision outcomes).
    Fpu,
    /// Memory manager: DRAM store, TCB cache, swap-in check logic.
    MemoryManager,
    /// Packet generator: TX segmentation.
    PacketGen,
    /// Timer wheel: RTO / zero-window-probe deadlines.
    Timers,
    /// Host doorbell / completion path.
    Host,
}

impl JournalModule {
    /// Every module, in pipeline order.
    pub const ALL: [JournalModule; 8] = [
        JournalModule::RxParser,
        JournalModule::Scheduler,
        JournalModule::Fpc,
        JournalModule::Fpu,
        JournalModule::MemoryManager,
        JournalModule::PacketGen,
        JournalModule::Timers,
        JournalModule::Host,
    ];

    /// Stable module name (used in dump lines and `f4tdbg` filters).
    pub fn name(self) -> &'static str {
        match self {
            JournalModule::RxParser => "rx_parser",
            JournalModule::Scheduler => "scheduler",
            JournalModule::Fpc => "fpc",
            JournalModule::Fpu => "fpu",
            JournalModule::MemoryManager => "memory_manager",
            JournalModule::PacketGen => "packet_gen",
            JournalModule::Timers => "timers",
            JournalModule::Host => "host",
        }
    }
}

/// Identity helper for journal event-name literals. Exists so `f4tlint`'s
/// `metric_name` rule can lint event names exactly like FtScope metric
/// names and FtFlight stage names (snake_case, unique per file) — the
/// event catalog stays consistent with METRICS.md.
const fn event_name(name: &'static str) -> &'static str {
    name
}

/// A typed journal event kind. `a`/`b` payload semantics per kind are
/// documented on each variant (0 when unused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JournalKind {
    /// RX parser admitted a segment (`a` = payload bytes, `b` = 1 if the
    /// segment advanced the in-order pointer).
    SegAccepted,
    /// Flow-table cuckoo lookup hit (`a` = probes).
    CuckooHit,
    /// Flow-table cuckoo lookup miss — no such flow; the flow field is
    /// the `u32::MAX` sentinel (`a` = probes, `b` = 1 for a SYN).
    CuckooMiss,
    /// Host doorbell accepted an event (`a` = kind discriminant).
    HostEvent,
    /// A timer deadline fired (`a` = 0 RTO, 1 zero-window probe; `b` = 1
    /// if the resulting event was accepted at the scheduler intake).
    TimerFired,
    /// Scheduler intake accepted an event into a coalesce FIFO
    /// (`a` = FIFO index).
    EventEnqueued,
    /// Scheduler intake merged an event into one already queued
    /// (`a` = FIFO index).
    EventMerged,
    /// Scheduler routed an event (`a` = [`Journal::ROUTE_FPC`] → FPC `b`,
    /// [`Journal::ROUTE_DRAM`], or [`Journal::ROUTE_PARKED`] with `b` the
    /// park cause: 0 mid-migration, 1 DRAM backpressure, 2 FPC
    /// backpressure, 3 bounced into a full intake).
    EventRouted,
    /// Scheduler dropped an event for an unallocated flow.
    EventDropped,
    /// Memory manager bounced an event for a flow that left DRAM.
    EventBounced,
    /// A TCB was installed in an FPC slot (`a` = FPC id).
    TcbInstall,
    /// An FPC evicted a TCB toward DRAM (`a` = FPC id).
    TcbEvict,
    /// Scheduler flipped the location LUT to Moving (`a` = source,
    /// `b` = destination; FPC id or [`Journal::DRAM_SLOT`]).
    TcbMigrateStart,
    /// A migration completed (`a` = 0 DRAM write-back done, 1 installed
    /// in FPC `b`).
    TcbMigrateDone,
    /// Memory-manager check logic requested a swap-in.
    TcbSwapInReq,
    /// Memory manager handled an event in place on a DRAM TCB.
    DramEventHandled,
    /// FPU pass completed (`a` = FPC id, `b` = new `snd_una << 32 |
    /// snd_nxt`).
    FpuDecision,
    /// FPU requested a retransmission (`a` = sequence number, `b` =
    /// bytes).
    Retransmit,
    /// Packet generator emitted a segment (`a` = payload bytes, `b` = 1
    /// if a retransmission).
    TxEmit,
}

impl JournalKind {
    /// Every kind, in catalog order (also the metrics emission order).
    pub const ALL: [JournalKind; KIND_COUNT] = [
        JournalKind::SegAccepted,
        JournalKind::CuckooHit,
        JournalKind::CuckooMiss,
        JournalKind::HostEvent,
        JournalKind::TimerFired,
        JournalKind::EventEnqueued,
        JournalKind::EventMerged,
        JournalKind::EventRouted,
        JournalKind::EventDropped,
        JournalKind::EventBounced,
        JournalKind::TcbInstall,
        JournalKind::TcbEvict,
        JournalKind::TcbMigrateStart,
        JournalKind::TcbMigrateDone,
        JournalKind::TcbSwapInReq,
        JournalKind::DramEventHandled,
        JournalKind::FpuDecision,
        JournalKind::Retransmit,
        JournalKind::TxEmit,
    ];

    /// Stable event name (used in dump lines, telemetry and METRICS.md).
    pub fn name(self) -> &'static str {
        match self {
            JournalKind::SegAccepted => event_name("seg_accepted"),
            JournalKind::CuckooHit => event_name("cuckoo_hit"),
            JournalKind::CuckooMiss => event_name("cuckoo_miss"),
            JournalKind::HostEvent => event_name("host_event"),
            JournalKind::TimerFired => event_name("timer_fired"),
            JournalKind::EventEnqueued => event_name("event_enqueued"),
            JournalKind::EventMerged => event_name("event_merged"),
            JournalKind::EventRouted => event_name("event_routed"),
            JournalKind::EventDropped => event_name("event_dropped"),
            JournalKind::EventBounced => event_name("event_bounced"),
            JournalKind::TcbInstall => event_name("tcb_install"),
            JournalKind::TcbEvict => event_name("tcb_evict"),
            JournalKind::TcbMigrateStart => event_name("tcb_migrate_start"),
            JournalKind::TcbMigrateDone => event_name("tcb_migrate_done"),
            JournalKind::TcbSwapInReq => event_name("tcb_swap_in_req"),
            JournalKind::DramEventHandled => event_name("dram_event_handled"),
            JournalKind::FpuDecision => event_name("fpu_decision"),
            JournalKind::Retransmit => event_name("retransmit"),
            JournalKind::TxEmit => event_name("tx_emit"),
        }
    }

    /// Dense index into per-kind arrays: the discriminant, which is the
    /// position in [`JournalKind::ALL`].
    fn index(self) -> usize {
        self as usize
    }
}

/// One journal entry: the absolute engine cycle, the emitting module,
/// the typed kind, the flow, and two kind-specific payload words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEvent {
    /// Absolute simulated engine cycle of emission.
    pub cycle: u64,
    /// Emitting module.
    pub module: JournalModule,
    /// Typed event kind.
    pub kind: JournalKind,
    /// The flow the event concerns.
    pub flow: u32,
    /// Kind-specific payload (see [`JournalKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`JournalKind`]).
    pub b: u64,
}

impl JournalEvent {
    /// The canonical single-line rendering: the format dump files store
    /// and `f4tdbg` parses (`cycle module kind flow a b`, space-joined).
    pub fn line(&self) -> String {
        format!(
            "{} {} {} {} {} {}",
            self.cycle,
            self.module.name(),
            self.kind.name(),
            self.flow,
            self.a,
            self.b
        )
    }
}

/// The journal: a bounded event ring plus a running digest and per-kind
/// counters, fed by sampled emissions.
#[derive(Debug)]
pub struct Journal {
    /// Track flows whose id is `0 (mod sample)`; 1 tracks everything.
    sample: u32,
    /// Retained events; its lifetime push count is `events_recorded`.
    ring: Ring<JournalEvent>,
    /// Running FNV-1a digest over the line rendering of every recorded
    /// event, including ones the ring has since overwritten.
    digest: u64,
    per_kind: [u64; KIND_COUNT],
    suppressed: u64,
}

impl Journal {
    /// [`JournalKind::EventRouted`] payload: delivered to FPC `b`.
    pub const ROUTE_FPC: u64 = 0;
    /// [`JournalKind::EventRouted`] payload: delivered to the memory
    /// manager (DRAM).
    pub const ROUTE_DRAM: u64 = 1;
    /// [`JournalKind::EventRouted`] payload: parked in the pending queue
    /// (`b` = cause: 0 mid-migration, 1 DRAM backpressure, 2 FPC
    /// backpressure, 3 bounced into a full intake).
    pub const ROUTE_PARKED: u64 = 2;
    /// [`JournalKind::TcbMigrateStart`] endpoint code for DRAM (FPC ids
    /// are 0..=254).
    pub const DRAM_SLOT: u64 = 255;

    /// Creates a journal sampling one in `sample` flows (0 clamps to 1 =
    /// every flow) with the default ring capacity.
    pub fn new(sample: u32) -> Journal {
        Journal::with_capacity(sample, JOURNAL_DEFAULT_CAP)
    }

    /// [`new`](Self::new) with an explicit ring capacity (min 1).
    pub fn with_capacity(sample: u32, cap: usize) -> Journal {
        Journal {
            sample: sample.max(1),
            ring: Ring::new(cap.max(1)),
            digest: FNV_OFFSET,
            per_kind: [0; KIND_COUNT],
            suppressed: 0,
        }
    }

    /// The sampling divisor.
    pub fn sample_n(&self) -> u32 {
        self.sample
    }

    /// Whether events for `flow` are journaled under the sampling policy.
    /// Flow-id based so fast-forwarded and tick-by-tick runs agree.
    #[inline]
    pub fn sampled(&self, flow: u32) -> bool {
        flow.is_multiple_of(self.sample)
    }

    /// Emits one event. Unsampled flows cost one branch.
    #[inline]
    pub fn record(
        &mut self,
        cycle: u64,
        module: JournalModule,
        kind: JournalKind,
        flow: u32,
        a: u64,
        b: u64,
    ) {
        if !self.sampled(flow) {
            self.suppressed += 1;
            return;
        }
        let ev = JournalEvent { cycle, module, kind, flow, a, b };
        self.digest = fnv1a(self.digest, ev.line().as_bytes());
        self.per_kind[kind.index()] += 1;
        self.ring.push(ev);
    }

    /// Events recorded (sampled flows only), including overwritten ones.
    pub fn events_recorded(&self) -> u64 {
        self.ring.total()
    }

    /// Emissions skipped by sampling.
    pub fn events_suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Recorded events the bounded ring has since overwritten.
    pub fn events_overwritten(&self) -> u64 {
        self.ring.overwritten()
    }

    /// Events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Running FNV-1a digest over every recorded event's line rendering —
    /// a fingerprint of the complete stream, not just the retained tail.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &JournalEvent> {
        self.ring.iter()
    }

    /// Retained events rendered as canonical lines, oldest first.
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        self.events().map(JournalEvent::line)
    }

    /// Reports journal telemetry into `reg` under `prefix`: stream
    /// counters plus one counter per event kind.
    pub fn collect(&self, prefix: &str, reg: &mut MetricsRegistry) {
        reg.counter(&format!("{prefix}.events_recorded"), self.events_recorded());
        reg.counter(&format!("{prefix}.events_suppressed"), self.suppressed);
        reg.counter(&format!("{prefix}.events_overwritten"), self.events_overwritten());
        reg.gauge(&format!("{prefix}.retained"), self.ring.len() as f64);
        for kind in JournalKind::ALL {
            reg.counter(
                &format!("{prefix}.kind.{}", kind.name()),
                self.per_kind[kind.index()],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(j: &mut Journal, cycle: u64, flow: u32) {
        j.record(cycle, JournalModule::RxParser, JournalKind::SegAccepted, flow, 9, 0);
    }

    #[test]
    fn kind_index_is_the_position_in_all() {
        for (i, kind) in JournalKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i, "{}", kind.name());
        }
    }

    #[test]
    fn kind_names_unique_and_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for kind in JournalKind::ALL {
            let n = kind.name();
            assert!(seen.insert(n), "duplicate event name {n}");
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "event name {n} is not snake_case"
            );
        }
        assert_eq!(seen.len(), KIND_COUNT);
        let mut seen = std::collections::HashSet::new();
        for m in JournalModule::ALL {
            assert!(seen.insert(m.name()), "duplicate module name {}", m.name());
        }
    }

    #[test]
    fn sampling_is_flow_id_based() {
        let mut j = Journal::new(64);
        for flow in [0u32, 64, 63, 1] {
            ev(&mut j, 10, flow);
        }
        assert_eq!(j.events_recorded(), 2, "flows 0 and 64 sampled");
        assert_eq!(j.events_suppressed(), 2);
        assert!(j.sampled(128) && !j.sampled(129));
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_order() {
        let mut j = Journal::with_capacity(1, 4);
        for c in 0..6u64 {
            ev(&mut j, c, 1);
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.events_overwritten(), 2);
        let cycles: Vec<u64> = j.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4, 5], "oldest first, earliest two gone");
    }

    #[test]
    fn digest_covers_overwritten_events() {
        let mut full = Journal::with_capacity(1, 2);
        let mut tail = Journal::with_capacity(1, 2);
        for c in 0..8u64 {
            ev(&mut full, c, 1);
        }
        for c in 6..8u64 {
            ev(&mut tail, c, 1);
        }
        assert_eq!(
            full.lines().collect::<Vec<_>>(),
            tail.lines().collect::<Vec<_>>(),
            "retained tails match"
        );
        assert_ne!(full.digest(), tail.digest(), "digest sees the whole stream");
    }

    #[test]
    fn digest_and_lines_are_deterministic() {
        let build = || {
            let mut j = Journal::new(1);
            j.record(4, JournalModule::Scheduler, JournalKind::EventRouted, 3, 0, 1);
            j.record(8, JournalModule::Fpu, JournalKind::FpuDecision, 3, 2, 4096);
            (j.digest(), j.lines().collect::<Vec<_>>())
        };
        assert_eq!(build(), build());
        let (_, lines) = build();
        assert_eq!(lines[0], "4 scheduler event_routed 3 0 1");
        assert_eq!(lines[1], "8 fpu fpu_decision 3 2 4096");
    }

    #[test]
    fn sample_zero_clamps_to_every_flow() {
        let mut j = Journal::new(0);
        assert_eq!(j.sample_n(), 1);
        ev(&mut j, 1, 12345);
        assert_eq!(j.events_recorded(), 1);
    }

    #[test]
    fn collect_reports_registry_metrics() {
        let mut j = Journal::new(1);
        ev(&mut j, 7, 2);
        let mut reg = MetricsRegistry::new();
        j.collect("journal", &mut reg);
        assert_eq!(reg.counter_value("journal.events_recorded"), 1);
        assert_eq!(reg.counter_value("journal.kind.seg_accepted"), 1);
        assert_eq!(reg.counter_value("journal.kind.tx_emit"), 0);
    }
}
