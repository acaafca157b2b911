//! The FtEngine top level: composition of every module in Fig. 3.
//!
//! One [`Engine::tick`] advances the whole accelerator by one 250 MHz
//! cycle. The engine exposes three boundaries:
//!
//! * **host interface** — [`Engine::push_event`] accepts user-request
//!   events (the decoded 16 B commands of §4.1.1) and
//!   [`Engine::pop_notification`] yields ACKed-data / received-data
//!   pointers and connection notifications going the other way;
//! * **network interface** — [`Engine::push_rx`] and [`Engine::pop_tx`]
//!   move [`Segment`]s; the system layer applies link pacing;
//! * **control** — flow setup ([`Engine::open_established`],
//!   [`Engine::open_active`], [`Engine::listen`]) and diagnostics
//!   ([`Engine::peek_tcb`], [`Engine::stats`]).

use crate::event::{EventKind, FlowEvent, TimeoutKind, TxRequest};
use crate::fpc::{Fpc, FpcOutput, ScanPolicy, WriteBack};
use crate::memory_manager::{MemoryManager, MmOutput};
use crate::packet_gen::PacketGenerator;
use crate::rx_parser::{RxOutput, RxParser};
use crate::scheduler::Scheduler;
use crate::timers::TimerWheel;
use f4t_mem::{DramKind, Location};
use f4t_sim::check::{InvariantChecker, Violation, ViolationKind};
use f4t_sim::clock::merge_horizon;
use f4t_sim::telemetry::{MetricsRegistry, TraceRing};
use f4t_sim::flight::{FlightStage, STAGE_COUNT};
use f4t_sim::json::{push_quoted, quote};
use f4t_sim::pulse::{PulseSeries, FLOW_SERIES_COUNT, SERIES_COUNT};
use f4t_sim::{
    FlightRecorder, FlowObservation, FlowSet, FlowSlab, Journal, JournalKind, JournalModule,
    Probe, PulseRecorder, QueueObservation, Watchdog, WatchdogConfig,
};
use f4t_tcp::wire::{ArpMessage, IcmpEcho};
use f4t_tcp::{
    CcAlgorithm, CongestionControl, FlowId, FourTuple, MacAddr, Segment, SeqNum, Tcb, TcpState,
    MSS,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Engine configuration. [`EngineConfig::reference`] is the paper's
/// shipped design point: eight FPCs of 128 flows each, HBM, New Reno,
/// coalescing on.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of parallel FPCs (§4.4.2).
    pub num_fpcs: usize,
    /// TCB slots per FPC.
    pub flows_per_fpc: usize,
    /// Total flows supported (location LUT / flow table size).
    pub max_flows: usize,
    /// On-board memory for overflow TCBs.
    pub dram: DramKind,
    /// Congestion-control algorithm programmed into the FPU.
    pub cc: CcAlgorithm,
    /// Event coalescing in the scheduler (§4.4.1) — the 1FPC-C knob of
    /// Fig. 16b.
    pub coalescing: bool,
    /// Location-LUT partitions (4 routes 4 events/cycle for 8 FPCs).
    pub lut_groups: usize,
    /// Maximum segment size.
    pub mss: u32,
    /// Direct-mapped TCB-cache sets in the memory manager.
    pub tcb_cache_sets: usize,
    /// TCB-manager scan policy.
    pub scan_policy: ScanPolicy,
    /// Fast-forward: when every module reports a quiet horizon,
    /// [`Engine::run`] skips the clock straight to the earliest
    /// `next_activity()` cycle instead of executing idle ticks.
    /// Cycle-exact by construction — skipped windows replay their
    /// accumulator effects in closed form, so traces, telemetry and TCB
    /// state are bit-identical to the tick-by-tick run. On by default;
    /// disable to force tick-by-tick execution (e.g. when bisecting the
    /// equivalence contract itself).
    pub fast_forward: bool,
    /// FtVerify: attach the cycle-level hazard checker (port budgets,
    /// schedule parity, RMW hazards, migration races, valid-bit leaks,
    /// FIFO conservation). Off by default; the disabled path costs one
    /// branch per checkpoint.
    pub check: bool,
    /// FtFlight: attach the per-flow latency-attribution recorder
    /// (DESIGN.md §10). Off by default; the disabled path costs one
    /// branch per stage boundary.
    pub flight: bool,
    /// FtFlight sampling divisor: track flows whose id is
    /// `0 (mod flight_sample)`. 1 tracks every flow; the default 64
    /// keeps overhead within the ≤1.10x budget on 64K-flow workloads.
    pub flight_sample: u32,
    /// FtJournal: attach the bounded causal event journal (DESIGN.md
    /// §11). Off by default; the disabled path costs one branch per
    /// emission site.
    pub journal: bool,
    /// FtJournal sampling divisor: record events for flows whose id is
    /// `0 (mod journal_sample)`. 1 records every flow; the default 64
    /// keeps overhead within the ≤1.10x budget. Flow-less events
    /// (`flow == u32::MAX`, e.g. cuckoo misses) are always recorded.
    pub journal_sample: u32,
    /// FtJournal/watchdog: attach the online health watchdog (stuck
    /// flows, retransmit storms, queue SLO breaches, starved LUT
    /// entries, a starved swap-in queue). Off by default.
    pub watchdog: bool,
    /// Cycles between watchdog sweeps. A sweep walks every resident TCB,
    /// so it runs on a coarse period (default 65 536 cycles ≈ 262 µs).
    pub watchdog_interval: u64,
    /// Watchdog thresholds; see [`WatchdogConfig`].
    pub watchdog_cfg: WatchdogConfig,
    /// FtPulse: attach the windowed time-series recorder (DESIGN.md
    /// §15). Off by default; the disabled path costs one branch per
    /// tick.
    pub pulse: bool,
    /// Cycles between pulse samples. Fast-forward windows are capped at
    /// the next sample boundary, so small intervals trade skip length
    /// for time resolution (default 8 192 cycles ≈ 32.8 µs).
    pub pulse_interval: u64,
    /// FtPulse per-flow sampling divisor: record cwnd/ssthresh/srtt/
    /// flightsize series for flows whose id is `0 (mod
    /// pulse_flow_sample)`, up to the track cap.
    pub pulse_flow_sample: u32,
}

impl EngineConfig {
    /// The paper's reference design (§4.4.2, §4.7).
    pub fn reference() -> EngineConfig {
        EngineConfig {
            num_fpcs: 8,
            flows_per_fpc: 128,
            max_flows: 65_536,
            dram: DramKind::Hbm,
            cc: CcAlgorithm::NewReno,
            coalescing: true,
            lut_groups: 4,
            mss: MSS,
            tcb_cache_sets: 512,
            scan_policy: ScanPolicy::SkipIdle,
            fast_forward: true,
            check: false,
            flight: false,
            flight_sample: 64,
            journal: false,
            journal_sample: 64,
            watchdog: false,
            watchdog_interval: 65_536,
            watchdog_cfg: WatchdogConfig::default(),
            pulse: false,
            pulse_interval: f4t_sim::pulse::PULSE_DEFAULT_INTERVAL,
            pulse_flow_sample: f4t_sim::pulse::PULSE_DEFAULT_FLOW_SAMPLE,
        }
    }

    /// A single-FPC engine (the `1FPC` ablation point of Fig. 16b).
    pub fn single_fpc() -> EngineConfig {
        EngineConfig { num_fpcs: 1, lut_groups: 1, ..EngineConfig::reference() }
    }
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig::reference()
    }
}

/// A hardware-to-software notification (the 16 B completion commands of
/// §4.1.1: "FtEngine sends ACKed data and received data pointers to the
/// software").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostNotification {
    /// The connection is established.
    Connected {
        /// The flow.
        flow: FlowId,
    },
    /// The peer acknowledged our data up to this pointer: the library may
    /// reclaim send-buffer space.
    DataAcked {
        /// The flow.
        flow: FlowId,
        /// Cumulative ACKed pointer.
        upto: SeqNum,
    },
    /// In-order data is available up to this pointer: `recv()` may return
    /// it.
    DataReceived {
        /// The flow.
        flow: FlowId,
        /// Cumulative received pointer.
        upto: SeqNum,
    },
    /// The peer closed its direction (EOF).
    PeerFin {
        /// The flow.
        flow: FlowId,
    },
    /// The connection fully closed.
    Closed {
        /// The flow.
        flow: FlowId,
    },
    /// A new inbound connection arrived on a listening port (`accept()`
    /// can return it once `Connected` follows).
    NewConnection {
        /// Newly allocated flow.
        flow: FlowId,
        /// Our 4-tuple for it.
        tuple: FourTuple,
    },
}

/// Aggregate counters for the harnesses.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Engine cycles elapsed.
    pub cycles: u64,
    /// Events accepted at the host interface.
    pub host_events: u64,
    /// Segments received from the network.
    pub segments_in: u64,
    /// Segments emitted to the network.
    pub segments_out: u64,
    /// Wire bytes emitted (payload + overhead).
    pub bytes_out: u64,
    /// Payload bytes DMAed toward the host.
    pub rx_dma_bytes: u64,
    /// Events merged by the scheduler's coalesce FIFOs.
    pub events_coalesced: u64,
    /// TCB migrations initiated.
    pub migrations: u64,
    /// Retransmitted segments.
    pub retransmissions: u64,
    /// Memory-manager events handled in DRAM.
    pub dram_events: u64,
    /// Events dropped for unallocated flows (teardown races, stale
    /// segments after close).
    pub events_dropped: u64,
    /// TCB-cache hit rate in the memory manager.
    pub tcb_cache_hit_rate: f64,
    /// FPC dispatch cycles idle with no pending work anywhere (summed
    /// over FPCs).
    pub stall_fifo_empty: u64,
    /// FPC dispatch cycles where all pending work was blocked on TCBs in
    /// flight through the FPU.
    pub stall_tcb_wait: u64,
    /// FPC dispatch cycles gated by TX/evict-checker backpressure.
    pub stall_backpressure: u64,
    /// Events accumulated while their TCB was in flight — each would
    /// have stalled a write-side-RMW design (§4.2).
    pub rmw_hazard_events: u64,
    /// Cycles actually spent stalled on an in-flight TCB: structurally
    /// zero in F4T's stall-free event accumulation.
    pub rmw_stall_cycles: u64,
    /// Location-LUT partition-port stalls in the scheduler.
    pub lut_stalls: u64,
}

/// The FtEngine accelerator.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    cycle: u64,
    fpcs: Vec<Fpc>,
    scheduler: Scheduler,
    mm: MemoryManager,
    pkt_gen: PacketGenerator,
    rx_parser: RxParser,
    timers: TimerWheel,
    /// Skid buffer between FPU output and the packet-generator FIFO; each
    /// request keeps its FPC-exit cycle so FtFlight's `tx_emit` span
    /// charges the skid wait to TX emission.
    // f4tlint: allow(raw_queue): bounded by the dispatch gate (FPCs stop
    // dispatching while it is non-empty), so depth <= one tick's output.
    tx_overflow: VecDeque<(TxRequest, u64)>,
    /// Segments awaiting the link (the MAC-side output buffer).
    // f4tlint: allow(raw_queue): capped at TX_OUT_CAP by the tick loop;
    // models the MAC buffer, not an on-chip FIFO.
    tx_out: VecDeque<Segment>,
    // f4tlint: allow(raw_queue): models the DMA completion ring toward
    // host memory, which the host must drain; not an on-chip queue.
    notifications: VecDeque<HostNotification>,
    /// Open flows, keyed by flow id on a dense FtTurbo slab: O(1)
    /// id-keyed access with deterministic ascending-id iteration for the
    /// audit and watchdog sweeps.
    flows: FlowSlab<FourTuple>,
    /// Reused per-tick scratch buffers (hot path; avoids reallocating).
    fpc_scratch: FpcOutput,
    seg_scratch: Vec<Segment>,
    rx_scratch: RxOutput,
    mm_scratch: MmOutput,
    timer_scratch: Vec<(FlowId, TimeoutKind)>,
    next_flow: u32,
    /// Flow ids released by closed connections, reused before new ids
    /// are minted. Flow ids are a bounded hardware resource: the
    /// location LUT is indexed by `id % max_flows`, so letting ids grow
    /// without reuse would alias live flows after enough churn.
    free_flow_ids: Vec<u32>,
    host_events: u64,
    /// Bounced events (`MmOutput::bounced`) handed back to the scheduler:
    /// the "left the DRAM path alive" term of the audit's
    /// event-conservation clause.
    bounces_returned: u64,
    /// Cycles elided by fast-forward (the `engine.fastforward.*`
    /// telemetry family; excluded from the equivalence contract since the
    /// tick-by-tick run by definition skips nothing).
    ff_skipped_cycles: u64,
    /// Fast-forward windows taken.
    ff_windows: u64,
    /// FtVerify hazard checker; attached when `EngineConfig::check` is
    /// set. Boxed so the disabled engine stays small.
    check: Option<Box<InvariantChecker>>,
    /// FtFlight latency-attribution recorder; attached when
    /// `EngineConfig::flight` is set. Boxed like the checker.
    flight: Option<Box<FlightRecorder>>,
    /// FtJournal causal event journal; attached when
    /// `EngineConfig::journal` is set. Boxed like the checker.
    journal: Option<Box<Journal>>,
    /// Online health watchdog; attached when `EngineConfig::watchdog` is
    /// set. Boxed like the checker.
    watchdog: Option<Box<Watchdog>>,
    /// FtPulse windowed time-series recorder; attached when
    /// `EngineConfig::pulse` is set. Boxed like the checker.
    pulse: Option<Box<PulseRecorder>>,
    /// FtScope pipeline trace, a fourth `Probe` view; attached by
    /// `set_trace_capacity`. Boxed like the checker.
    trace: Option<Box<TraceRing>>,
    /// Our MAC address (for ARP answers).
    pub mac: MacAddr,
}

/// Engine-core period in nanoseconds (250 MHz).
pub const CYCLE_NS: u64 = 4;
/// MAC output buffer cap; beyond this the packet generator stalls and
/// backpressure propagates to FPC dispatch.
const TX_OUT_CAP: usize = 256;
/// Segments the packet generator and the RX parser each handle per
/// 322 MHz MAC cycle.
const MAC_PARALLELISM: u32 = 4;
/// FtVerify structural-audit period. Per-cycle rules (ports, parity, RMW)
/// fire inline; the cross-module residency/LUT/conservation audit walks
/// every table, so it runs every `AUDIT_INTERVAL` cycles instead.
pub(crate) const AUDIT_INTERVAL: u64 = 64;

/// The periodic observers in the order a tick runs them: FtVerify
/// structural audit, watchdog sweep, FtPulse window sample.
const OBSERVERS: [fn(&mut Engine, u64); 3] =
    [Engine::run_audit, Engine::run_watchdog, Engine::run_pulse];

impl Engine {
    /// Builds an engine from `config` with the configured built-in
    /// congestion-control algorithm.
    pub fn new(config: EngineConfig) -> Engine {
        let cc: Arc<dyn CongestionControl> = match config.cc {
            CcAlgorithm::NewReno => Arc::new(f4t_tcp::NewReno),
            CcAlgorithm::Cubic => Arc::new(f4t_tcp::Cubic),
            CcAlgorithm::Vegas => Arc::new(f4t_tcp::Vegas),
        };
        Engine::with_cc(config, cc)
    }

    /// Builds an engine running a custom congestion-control algorithm —
    /// the paper's programmability story (§4.5): "users need to modify
    /// only the FPU to program the TCP stack".
    pub fn with_cc(config: EngineConfig, cc: Arc<dyn CongestionControl>) -> Engine {
        assert!(config.num_fpcs > 0, "need at least one FPC");
        let fpcs = (0..config.num_fpcs)
            .map(|i| {
                Fpc::new(
                    i as u8,
                    config.flows_per_fpc,
                    Arc::clone(&cc),
                    None, // the algorithm's natural FPU latency
                    config.mss,
                    config.scan_policy,
                )
            })
            .collect();
        let mut engine = Engine {
            scheduler: Scheduler::new(config.max_flows, config.lut_groups, config.coalescing),
            mm: MemoryManager::new(config.dram, config.tcb_cache_sets),
            pkt_gen: PacketGenerator::new(config.mss, MAC_PARALLELISM),
            rx_parser: RxParser::new(config.max_flows, MAC_PARALLELISM),
            timers: TimerWheel::new(),
            tx_overflow: VecDeque::new(),
            tx_out: VecDeque::new(),
            notifications: VecDeque::new(),
            flows: FlowSlab::with_capacity(0),
            fpc_scratch: FpcOutput::default(),
            seg_scratch: Vec::new(),
            rx_scratch: RxOutput::default(),
            mm_scratch: MmOutput::default(),
            timer_scratch: Vec::new(),
            next_flow: 0,
            free_flow_ids: Vec::new(),
            host_events: 0,
            bounces_returned: 0,
            ff_skipped_cycles: 0,
            ff_windows: 0,
            check: config.check.then(|| Box::new(InvariantChecker::new())),
            flight: config.flight.then(|| Box::new(FlightRecorder::new(config.flight_sample))),
            journal: config.journal.then(|| Box::new(Journal::new(config.journal_sample))),
            watchdog: config.watchdog.then(|| Box::new(Watchdog::new(config.watchdog_cfg))),
            pulse: config
                .pulse
                .then(|| Box::new(PulseRecorder::new(config.pulse_interval, config.pulse_flow_sample))),
            trace: None,
            mac: MacAddr([0x02, 0xf4, 0x70, 0, 0, 1]),
            fpcs,
            cycle: 0,
            config,
        };
        // `is_multiple_of(0)` only holds at cycle 0; treat 0 as "every
        // cycle" so a zeroed config still sweeps.
        if engine.config.watchdog_interval == 0 {
            engine.config.watchdog_interval = 1;
        }
        if engine.config.pulse_interval == 0 {
            engine.config.pulse_interval = 1;
        }
        engine
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Current simulation time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.cycle * CYCLE_NS
    }

    /// Elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    fn alloc_flow(&mut self) -> Option<FlowId> {
        if self.flows.len() >= self.config.max_flows {
            return None;
        }
        if let Some(id) = self.free_flow_ids.pop() {
            return Some(FlowId(id));
        }
        let flow = FlowId(self.next_flow);
        self.next_flow += 1;
        Some(flow)
    }

    /// Opens a flow in the established state (both endpoints must use the
    /// same `isn`; the system layer's `open_pair` helper does). Returns
    /// `None` when the engine is at its flow limit.
    pub fn open_established(&mut self, tuple: FourTuple, isn: SeqNum) -> Option<FlowId> {
        let flow = self.alloc_flow()?;
        let mut tcb = Tcb::established(flow, tuple, isn);
        self.config.cc.instance().init(&mut tcb);
        self.rx_parser.register_flow(tuple, flow, isn).ok()?;
        self.flows.insert(flow.0, tuple);
        self.scheduler.place_new_flow(
            tcb,
            &mut self.fpcs,
            &mut self.mm,
            self.cycle,
            self.check.as_deref_mut(),
        );
        Some(flow)
    }

    /// Opens a flow for an active connect; the host follows with a
    /// [`EventKind::Connect`] event to launch the handshake.
    pub fn open_active(&mut self, tuple: FourTuple) -> Option<FlowId> {
        let flow = self.alloc_flow()?;
        let isn = Self::isn_for(flow);
        let mut tcb = Tcb::new(flow);
        tcb.tuple = tuple;
        tcb.snd_una = isn;
        tcb.snd_nxt = isn;
        tcb.req = isn;
        tcb.recover = isn;
        // Peer ISN unknown: the tracker re-anchors on the SYN|ACK.
        self.rx_parser.register_flow(tuple, flow, SeqNum::ZERO).ok()?;
        self.flows.insert(flow.0, tuple);
        self.scheduler.place_new_flow(
            tcb,
            &mut self.fpcs,
            &mut self.mm,
            self.cycle,
            self.check.as_deref_mut(),
        );
        Some(flow)
    }

    /// Starts listening on a TCP port (passive open / SO_REUSEPORT).
    pub fn listen(&mut self, port: u16) {
        self.rx_parser.listen(port);
    }

    fn isn_for(flow: FlowId) -> SeqNum {
        SeqNum(flow.0.wrapping_mul(2_654_435_761).wrapping_add(0x1000))
    }

    /// Whether the host interface can accept another event this cycle.
    pub fn can_accept_event(&self) -> bool {
        self.scheduler.can_accept()
    }

    /// Offers a host event (decoded command); `false` when the intake is
    /// full — the library retries, which is exactly the doorbell
    /// backpressure a real queue pair exhibits.
    pub fn push_event(&mut self, ev: FlowEvent) -> bool {
        let cycle = self.cycle;
        if self.scheduler.push_event_at(ev, cycle) {
            self.host_events += 1;
            Probe::new(None, None, self.journal.as_deref_mut(), self.trace.as_deref_mut()).event(
                cycle,
                JournalModule::Host,
                JournalKind::HostEvent,
                ev.flow.0,
                Self::event_kind_code(&ev.kind),
                0,
            );
            true
        } else {
            false
        }
    }

    /// Stable numeric code for a host-event kind, journalled as the
    /// `host_event` `a` payload (timer-driven events never pass through
    /// the doorbell, so `timeout` only appears via internal paths).
    fn event_kind_code(kind: &EventKind) -> u64 {
        match kind {
            EventKind::Connect => 0,
            EventKind::Close => 1,
            EventKind::SendReq { .. } => 2,
            EventKind::RecvConsumed { .. } => 3,
            EventKind::RxPacket { .. } => 4,
            EventKind::Timeout { .. } => 5,
        }
    }

    /// Convenience: build and push a host event stamped with `now`.
    pub fn push_host(&mut self, flow: FlowId, kind: EventKind) -> bool {
        let now = self.now_ns();
        self.push_event(FlowEvent::new(flow, kind, now))
    }

    /// Offers a segment from the network; `false` = NIC buffer overflow
    /// (the segment is lost).
    pub fn push_rx(&mut self, seg: Segment) -> bool {
        self.rx_parser.push_segment_at(seg, self.cycle)
    }

    /// Takes the next outbound segment, if any (the link model drains at
    /// line rate).
    pub fn pop_tx(&mut self) -> Option<Segment> {
        self.tx_out.pop_front()
    }

    /// Peeks the next outbound segment without taking it (the link model
    /// checks its serialization budget against the wire length first).
    pub fn peek_tx(&self) -> Option<&Segment> {
        self.tx_out.front()
    }

    /// Takes the next host notification, if any. The host side must
    /// drain this every tick (as `f4t-system`'s nodes do): the queue
    /// models the DMA completion ring and is not bounded here.
    pub fn pop_notification(&mut self) -> Option<HostNotification> {
        self.notifications.pop_front()
    }

    /// Copies a flow's TCB wherever it lives (FPC SRAM or DRAM) — the
    /// Fig. 14 congestion-window probe.
    pub fn peek_tcb(&self, flow: FlowId) -> Option<Tcb> {
        // The location LUT names the owning FPC of an SRAM-resident flow.
        // Otherwise (DRAM, or Moving — the TCB may still sit in the FPC it
        // is leaving) ask every FPC's CAM, O(1) each, then the DRAM store.
        let owner = match self.scheduler.location(flow) {
            Location::Fpc(i) => self.fpcs.get(usize::from(i)).and_then(|f| f.peek_tcb(flow)),
            _ => None,
        };
        owner
            .or_else(|| self.fpcs.iter().find_map(|f| f.peek_tcb(flow)))
            .or_else(|| self.mm.peek_tcb(flow))
            .copied()
    }

    /// Payload bytes DMAed toward the host so far (the one
    /// [`EngineStats`] field the host model reads every cycle).
    pub fn rx_dma_bytes(&self) -> u64 {
        self.rx_parser.payload_dma_bytes()
    }

    /// Flows currently allocated (established, handshaking, or still
    /// draining teardown). Zero after every connection fully closes.
    pub fn live_flows(&self) -> usize {
        self.flows.len()
    }

    /// LUT occupancy census across the scheduler's partitions:
    /// `(in_fpc, in_dram, moving)`. `(0, 0, 0)` proves no flow holds a
    /// location entry — the structural leak audit for churn tests.
    pub fn lut_census(&self) -> (usize, usize, usize) {
        self.scheduler.lut_census()
    }

    /// Answers an ARP request addressed to us (hardware ARP, §4.1.2).
    pub fn handle_arp(&self, req: &ArpMessage) -> Option<ArpMessage> {
        req.is_request.then(|| req.reply_from(self.mac))
    }

    /// Answers an ICMP echo request (hardware ping, §4.1.2).
    pub fn handle_ping(&self, req: &IcmpEcho) -> Option<IcmpEcho> {
        req.is_request.then(|| req.reply())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        let s = self.scheduler.stats();
        let mut stalls = (0u64, 0u64, 0u64);
        for f in &self.fpcs {
            let (e, w, b) = f.stall_cycles();
            stalls.0 += e;
            stalls.1 += w;
            stalls.2 += b;
        }
        EngineStats {
            cycles: self.cycle,
            host_events: self.host_events,
            segments_in: self.rx_parser.segments_in(),
            segments_out: self.pkt_gen.segments_out(),
            bytes_out: self.pkt_gen.bytes_out(),
            rx_dma_bytes: self.rx_dma_bytes(),
            events_coalesced: s.coalesced,
            migrations: s.migrations,
            retransmissions: self.pkt_gen.retransmissions(),
            dram_events: self.mm.events_handled(),
            events_dropped: s.dropped,
            tcb_cache_hit_rate: self.mm.cache_hit_rate(),
            stall_fifo_empty: stalls.0,
            stall_tcb_wait: stalls.1,
            stall_backpressure: stalls.2,
            rmw_hazard_events: self.rmw_hazard_events(),
            rmw_stall_cycles: self.rmw_stall_cycles(),
            lut_stalls: self.scheduler.lut_stalls(),
        }
    }

    /// Events accumulated while their TCB was in flight through the FPU,
    /// summed over FPCs — each would stall a write-side-RMW design.
    pub fn rmw_hazard_events(&self) -> u64 {
        self.fpcs.iter().map(Fpc::rmw_hazard_events).sum()
    }

    /// Cycles spent stalled on an in-flight TCB, summed over FPCs.
    /// Structurally zero (§4.2's stall-free event accumulation); tests
    /// assert it rather than assume it.
    pub fn rmw_stall_cycles(&self) -> u64 {
        self.fpcs.iter().map(Fpc::rmw_stall_cycles).sum()
    }

    /// FtScope: materializes the full telemetry registry, walking every
    /// module. Call twice and [`MetricsRegistry::delta`] the snapshots to
    /// window a measurement.
    pub fn telemetry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        self.collect("engine", &mut reg);
        reg
    }

    /// Reports the whole engine's telemetry into `reg` under `prefix`
    /// (multi-engine systems disambiguate with e.g. `a.engine`).
    pub fn collect(&self, prefix: &str, reg: &mut MetricsRegistry) {
        reg.counter(&format!("{prefix}.cycles"), self.cycle);
        reg.counter(&format!("{prefix}.host_events"), self.host_events);
        reg.gauge(&format!("{prefix}.flows_open"), self.flows.len() as f64);
        reg.gauge(&format!("{prefix}.tx_out.depth"), self.tx_out.len() as f64);
        reg.gauge(&format!("{prefix}.tx_overflow.depth"), self.tx_overflow.len() as f64);
        reg.counter(&format!("{prefix}.rmw.hazard_events"), self.rmw_hazard_events());
        reg.counter(&format!("{prefix}.rmw.stall_cycles"), self.rmw_stall_cycles());
        reg.counter(&format!("{prefix}.fastforward.skipped_cycles"), self.ff_skipped_cycles);
        reg.counter(&format!("{prefix}.fastforward.windows"), self.ff_windows);
        for f in &self.fpcs {
            f.collect(&format!("{prefix}.fpc{}", f.id()), reg);
        }
        self.scheduler.collect(&format!("{prefix}.scheduler"), reg);
        self.mm.collect(&format!("{prefix}.mm"), reg);
        self.rx_parser.collect(&format!("{prefix}.rx"), reg);
        reg.counter(&format!("{prefix}.tx.segments_out"), self.pkt_gen.segments_out());
        reg.counter(&format!("{prefix}.tx.bytes_out"), self.pkt_gen.bytes_out());
        reg.counter(&format!("{prefix}.tx.retransmissions"), self.pkt_gen.retransmissions());
        let traced = self.trace.as_ref().map_or(0, |t| t.total_recorded());
        reg.counter(&format!("{prefix}.trace.recorded"), traced);
        if let Some(f) = &self.flight {
            f.collect(&format!("{prefix}.flight"), reg);
        }
        if let Some(j) = &self.journal {
            j.collect(&format!("{prefix}.journal"), reg);
        }
        if let Some(w) = &self.watchdog {
            w.collect(&format!("{prefix}.watchdog"), reg);
        }
        if let Some(p) = &self.pulse {
            p.collect(&format!("{prefix}.pulse"), reg);
        }
    }

    /// The FtFlight recorder, when [`EngineConfig::flight`] is set.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_deref()
    }

    /// FtFlight latency-breakdown JSON (per-stage p50/p99/p999 in cycles
    /// and ns plus the capped per-flow table), when the recorder is
    /// attached. Contains no fast-forward-dependent counters: a
    /// fast-forwarded and a tick-by-tick run of the same workload return
    /// byte-identical text (`tests/fastforward_equiv.rs`).
    pub fn flight_json(&self) -> Option<String> {
        self.flight.as_ref().map(|f| f.to_json(CYCLE_NS))
    }

    /// The FtJournal, when [`EngineConfig::journal`] is set.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_deref()
    }

    /// The journal's running determinism digest (0 when the journal is
    /// off). Covers every recorded event including overwritten ones, so
    /// two runs with equal digests emitted identical event streams.
    pub fn journal_digest(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.digest())
    }

    /// The health watchdog, when [`EngineConfig::watchdog`] is set.
    pub fn watchdog(&self) -> Option<&Watchdog> {
        self.watchdog.as_deref()
    }

    /// Total watchdog alarms raised (0 when the watchdog is off).
    pub fn watchdog_alarm_count(&self) -> u64 {
        self.watchdog.as_ref().map_or(0, |w| w.alarm_count())
    }

    /// The FtPulse recorder, when [`EngineConfig::pulse`] is set.
    pub fn pulse(&self) -> Option<&PulseRecorder> {
        self.pulse.as_deref()
    }

    /// FtPulse time-series JSON (every retained window per series), when
    /// the recorder is attached. Byte-stable and integer-only: a
    /// fast-forwarded, a tick-by-tick, and any worker-pool run of the
    /// same workload return identical text (`tests/fastforward_equiv.rs`,
    /// `tests/determinism.rs`).
    pub fn pulse_json(&self) -> Option<String> {
        self.pulse.as_ref().map(|p| p.to_json(CYCLE_NS))
    }

    /// The pulse recorder's running determinism digest (0 when pulse is
    /// off). Covers every recorded window including ones the bounded
    /// rings have overwritten.
    pub fn pulse_digest(&self) -> u64 {
        self.pulse.as_ref().map_or(0, |p| p.digest())
    }

    /// FtJournal post-mortem black-box dump: a self-contained JSON
    /// document carrying everything needed to explain a failure after the
    /// fact — the journal tail (with its digest), watchdog alarms,
    /// FtVerify violations, the TCBs implicated by alarms, the engine
    /// config and the FtFlight breakdown. `reason` names the trigger
    /// (e.g. `invariant-violation`, `watchdog-alarm`, `gate-failure`);
    /// `extra` holds plain `(key, value)` pairs the caller adds as
    /// top-level string fields (workload name, RNG seed), escaped here.
    pub fn blackbox_json(&self, reason: &str, extra: &[(&str, &str)]) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("  \"reason\": {},\n", quote(reason)));
        s.push_str(&format!("  \"cycle\": {},\n", self.cycle));
        for (k, v) in extra {
            s.push_str(&format!("  {}: {},\n", quote(k), quote(v)));
        }
        s.push_str(&format!(
            "  \"config\": {{\"num_fpcs\": {}, \"flows_per_fpc\": {}, \"max_flows\": {}, \"lut_groups\": {}, \"coalescing\": {}, \"fast_forward\": {}, \"journal_sample\": {}, \"watchdog_interval\": {}}},\n",
            self.config.num_fpcs,
            self.config.flows_per_fpc,
            self.config.max_flows,
            self.config.lut_groups,
            self.config.coalescing,
            self.config.fast_forward,
            self.config.journal_sample,
            self.config.watchdog_interval,
        ));
        // Journal tail: newest-last compact lines plus the running digest.
        s.push_str(&format!("  \"journal_digest\": {},\n", self.journal_digest()));
        s.push_str("  \"journal\": [");
        if let Some(j) = &self.journal {
            let mut first = true;
            for line in j.lines() {
                if !first {
                    s.push_str(", ");
                }
                first = false;
                push_quoted(&mut s, &line);
            }
        }
        s.push_str("],\n");
        // Watchdog alarms, in firing order.
        s.push_str("  \"alarms\": [");
        let mut implicated: Vec<FlowId> = Vec::new();
        if let Some(w) = &self.watchdog {
            for (i, a) in w.alarms().iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                push_quoted(&mut s, &a.line());
                if let Some(f) = a.flow {
                    implicated.push(FlowId(f));
                }
            }
        }
        s.push_str("],\n");
        // FtVerify violations (Display-rendered).
        s.push_str("  \"violations\": [");
        for (i, v) in self.check_violations().iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            push_quoted(&mut s, &v.to_string());
        }
        s.push_str("],\n");
        // TCBs implicated by per-flow alarms (Debug-rendered; capped so a
        // storm cannot balloon the dump).
        implicated.sort();
        implicated.dedup();
        implicated.truncate(16);
        s.push_str("  \"implicated_tcbs\": [");
        let mut first = true;
        for flow in implicated {
            if let Some(tcb) = self.peek_tcb(flow) {
                if !first {
                    s.push_str(", ");
                }
                first = false;
                push_quoted(&mut s, &format!("{tcb:?}"));
            }
        }
        s.push_str("],\n");
        // FtFlight breakdown, when the recorder is attached.
        match self.flight_json() {
            Some(fj) => s.push_str(&format!("  \"flight\": {fj}\n")),
            None => s.push_str("  \"flight\": null\n"),
        }
        s.push('}');
        s
    }

    /// Enables (capacity > 0) or disables (capacity 0) the pipeline
    /// trace ring. The ring keeps the most recent `capacity` events.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace = (capacity > 0).then(|| Box::new(TraceRing::new(capacity)));
    }

    /// The pipeline trace ring (read side), when enabled.
    pub fn trace(&self) -> Option<&TraceRing> {
        self.trace.as_deref()
    }

    /// Exports the trace ring as Chrome-trace JSON (load in Perfetto or
    /// `chrome://tracing`).
    pub fn export_chrome_trace(&self) -> String {
        let empty = TraceRing::default();
        let mut out = self.trace.as_deref().unwrap_or(&empty).to_chrome_json(CYCLE_NS);
        // Splice FtPulse counter events ("ph": "C") into the event array
        // so the series render as counter tracks alongside the pipeline
        // instants in the same trace viewer.
        if let Some(p) = &self.pulse {
            let counters = p.chrome_counter_events(CYCLE_NS);
            if !counters.is_empty() {
                if let Some(pos) = out.rfind("\n]") {
                    out.insert_str(pos, &format!(",\n{counters}"));
                }
            }
        }
        out
    }

    fn accept_new_connection(&mut self, syn: Segment, probe: &mut Probe) {
        let Some(flow) = self.alloc_flow() else { return };
        let tuple = syn.tuple.reversed();
        let isn = Self::isn_for(flow);
        let mut tcb = Tcb::new(flow);
        tcb.state = TcpState::Listen;
        tcb.tuple = tuple;
        tcb.snd_una = isn;
        tcb.snd_nxt = isn;
        tcb.req = isn;
        tcb.recover = isn;
        if self.rx_parser.register_flow(tuple, flow, SeqNum::ZERO).is_err() {
            return;
        }
        self.flows.insert(flow.0, tuple);
        self.scheduler.place_new_flow(tcb, &mut self.fpcs, &mut self.mm, self.cycle, probe.check());
        self.notifications.push_back(HostNotification::NewConnection { flow, tuple });
        // Re-offer the SYN now that the flow exists.
        self.rx_parser.push_segment_at(syn, self.cycle);
    }

    fn process_outcome(&mut self, wb: &WriteBack, probe: &mut Probe) {
        let (flow, outcome) = (wb.flow, &wb.outcome);
        if outcome.connected {
            self.notifications.push_back(HostNotification::Connected { flow });
        }
        if let Some(upto) = outcome.acked_upto {
            self.notifications.push_back(HostNotification::DataAcked { flow, upto });
        }
        if let Some(upto) = outcome.rcvd_upto {
            self.notifications.push_back(HostNotification::DataReceived { flow, upto });
        }
        if outcome.peer_fin {
            self.notifications.push_back(HostNotification::PeerFin { flow });
        }
        if outcome.closed {
            self.notifications.push_back(HostNotification::Closed { flow });
            // Full teardown: release the flow-table entry, reassembly
            // state, routing state and the flow-count slot. (TIME_WAIT is
            // skipped in the prototype model; see DESIGN.md §6.)
            if let Some(tuple) = self.flows.remove(flow.0) {
                self.rx_parser.remove_flow(&tuple, flow);
            }
            self.scheduler.on_flow_closed(flow, self.cycle, probe);
            self.timers.disarm(flow, TimeoutKind::Rto);
            self.timers.disarm(flow, TimeoutKind::Probe);
            self.free_flow_ids.push(flow.0);
            return;
        }
        match wb.rto_deadline {
            Some(d) => self.timers.arm(flow, TimeoutKind::Rto, d),
            None => self.timers.disarm(flow, TimeoutKind::Rto),
        }
        match wb.probe_deadline {
            Some(d) => self.timers.arm(flow, TimeoutKind::Probe, d),
            None => self.timers.disarm(flow, TimeoutKind::Probe),
        }
    }

    /// Advances the engine by one 250 MHz cycle. Returns whether some
    /// FPC ran its full pipeline; `false` means every FPC took its quiet
    /// path, the cue to ask [`Self::idle_until`] how long the engine may
    /// sleep.
    pub fn tick(&mut self) -> bool {
        let cycle = self.cycle;
        let now = self.now_ns();
        // The recorders step out of `self` for the pipeline phases, so one
        // probe rides through the modules and the `&mut self` helpers
        // alike; they are back before the periodic observers run.
        let (mut check, mut flight, mut journal, mut trace) =
            (self.check.take(), self.flight.take(), self.journal.take(), self.trace.take());
        let probe = &mut Probe::new(
            check.as_deref_mut(),
            flight.as_deref_mut(),
            journal.as_deref_mut(),
            trace.as_deref_mut(),
        );

        // 0. Drain the TX skid buffer into the packet generator.
        while let Some(&(req, stamp)) = self.tx_overflow.front() {
            if self.pkt_gen.can_accept() {
                self.pkt_gen.push_at(req, stamp);
                self.tx_overflow.pop_front();
            } else {
                break;
            }
        }

        // 1. Timers → timeout events.
        let mut fired = std::mem::take(&mut self.timer_scratch);
        self.timers.expired_into(now, &mut fired);
        for (flow, kind) in fired.drain(..) {
            let ev = FlowEvent::new(flow, EventKind::Timeout { kind }, now);
            let accepted = self.scheduler.push_event_at(ev, cycle);
            let code = match kind {
                TimeoutKind::Rto => 0,
                TimeoutKind::Probe => 1,
            };
            probe.event(
                cycle,
                JournalModule::Timers,
                JournalKind::TimerFired,
                flow.0,
                code,
                u64::from(accepted),
            );
            if !accepted {
                // Intake full: re-arm slightly later rather than lose it.
                self.timers.arm(flow, kind, now + 2_000);
            }
        }
        self.timer_scratch = fired;

        // 2. RX parser → events, gated on intake space so bursts back
        //    up into the parser's (bounded) input buffer instead of
        //    losing protocol events; only genuine NIC-buffer overflow
        //    drops packets.
        if self.scheduler.intake_free() >= 8 {
            let mut rx_out = std::mem::take(&mut self.rx_scratch);
            self.rx_parser.tick_probed(now, cycle, &mut rx_out, probe);
            for ev in rx_out.events.drain(..) {
                let accepted = self.scheduler.push_event_at(ev, cycle);
                debug_assert!(accepted, "intake_free checked");
            }
            for syn in rx_out.new_connections.drain(..) {
                self.accept_new_connection(syn, probe);
            }
            self.rx_scratch = rx_out;
        }

        // 3. Scheduler: coalesce + route + migrations + swap-ins. The
        //    trace view's merge/route/drop/migration counts close here.
        self.scheduler.tick_probed(cycle, &mut self.fpcs, &mut self.mm, probe);
        probe.flush_counts(cycle);

        // 4. FPCs (scratch output buffers are reused across ticks: this
        //    is the simulator's hottest loop). A quiet FPC moves only its
        //    counters and leaves the buffers alone, and so does a busy one
        //    that wrote back, evicted and installed nothing this cycle:
        //    only an FPC that produced something is drained. Each FPC is
        //    drained right after its own tick, in FPC order, never once
        //    after the loop: an eviction drained here can land in a later
        //    FPC's swap-in port and be installed by that FPC's tick in
        //    this same cycle. After a drain every buffer is empty again.
        let gate = self.tx_overflow.is_empty() && self.pkt_gen.free() >= 16;
        let mut out = std::mem::take(&mut self.fpc_scratch);
        let mut busy = false;
        for i in 0..self.fpcs.len() {
            if !self.fpcs[i].tick_probed(cycle, now, gate, &mut out, probe) {
                continue;
            }
            busy = true;
            if out.is_empty() {
                continue;
            }
            let fpc_id = self.fpcs[i].id();
            for req in out.tx.drain(..) {
                if req.retransmit {
                    probe.event(
                        cycle,
                        JournalModule::Fpu,
                        JournalKind::Retransmit,
                        req.flow.0,
                        u64::from(req.seq.0),
                        u64::from(req.len),
                    );
                }
                if self.pkt_gen.can_accept() {
                    self.pkt_gen.push_at(req, cycle);
                } else {
                    self.tx_overflow.push_back((req, cycle));
                }
            }
            for wb in out.outcomes.drain(..) {
                probe.event(
                    cycle,
                    JournalModule::Fpu,
                    JournalKind::FpuDecision,
                    wb.flow.0,
                    u64::from(fpc_id),
                    u64::from(wb.snd_una.0) << 32 | u64::from(wb.snd_nxt.0),
                );
                self.process_outcome(&wb, probe);
            }
            for tcb in out.evicted.drain(..) {
                probe.event(
                    cycle,
                    JournalModule::Fpc,
                    JournalKind::TcbEvict,
                    tcb.flow.0,
                    u64::from(fpc_id),
                    0,
                );
                self.scheduler.on_evicted(tcb, &mut self.fpcs, &mut self.mm);
            }
            for flow in out.installed.drain(..) {
                probe.event(
                    cycle,
                    JournalModule::Fpc,
                    JournalKind::TcbInstall,
                    flow.0,
                    u64::from(fpc_id),
                    0,
                );
                probe.event(
                    cycle,
                    JournalModule::Scheduler,
                    JournalKind::TcbMigrateDone,
                    flow.0,
                    1,
                    u64::from(fpc_id),
                );
                let (chk, flight) = probe.check_and_flight();
                self.scheduler.on_installed(flow, fpc_id, cycle, chk, flight);
            }
        }
        self.fpc_scratch = out;

        // 5. Memory manager.
        let mut mo = std::mem::take(&mut self.mm_scratch);
        self.mm.tick_probed(&mut mo, cycle, probe);
        for flow in mo.swap_in_requests.drain(..) {
            probe.event(
                cycle,
                JournalModule::MemoryManager,
                JournalKind::TcbSwapInReq,
                flow.0,
                0,
                0,
            );
            self.scheduler.request_swap_in_at(flow, cycle);
        }
        for flow in mo.evict_done.drain(..) {
            probe.event(
                cycle,
                JournalModule::MemoryManager,
                JournalKind::TcbMigrateDone,
                flow.0,
                0,
                Journal::DRAM_SLOT,
            );
            self.scheduler.on_evict_done(flow, cycle, probe.check());
        }
        for ev in mo.bounced.drain(..) {
            probe.event(
                cycle,
                JournalModule::MemoryManager,
                JournalKind::EventBounced,
                ev.flow.0,
                0,
                0,
            );
            self.scheduler.push_bounced(ev, cycle, probe);
            self.bounces_returned += 1;
        }
        self.mm_scratch = mo;

        // 6. Packet generator → MAC buffer (with output backpressure).
        if self.tx_out.len() < TX_OUT_CAP {
            let mut segs = std::mem::take(&mut self.seg_scratch);
            segs.clear();
            self.pkt_gen.tick_probed(now, cycle, &mut segs, probe);
            self.tx_out.extend(segs.drain(..));
            self.seg_scratch = segs;
        }
        // The trace view's retransmitted-segment count closes here.
        probe.flush_counts(cycle);
        (self.check, self.flight, self.journal, self.trace) = (check, flight, journal, trace);

        // 7. Periodic observers, each on its own coarse period: the
        //    FtVerify structural audit (residency, LUT consistency, FIFO
        //    conservation, valid-bit leaks), the online health watchdog
        //    and the FtPulse window sample. Fast-forward windows stop at
        //    the same boundary, so every observer sees identical state at
        //    identical cycles in fast-forwarded and tick-by-tick runs
        //    (for FtPulse: byte-identical series, DESIGN.md §15).
        if self.next_observer_boundary(cycle) == cycle {
            for (period, observe) in self.observer_periods().into_iter().zip(OBSERVERS) {
                if period.is_some_and(|iv| cycle.is_multiple_of(iv)) {
                    observe(self, cycle);
                }
            }
        }

        self.cycle += 1;
        busy
    }

    /// One watchdog sweep: builds flow/queue observations from the live
    /// module state and feeds them to the [`Watchdog`]. Flows whose TCB
    /// is mid-migration (in neither an FPC nor the DRAM store this
    /// instant) are skipped; the `moving` flag covers the LUT side.
    fn run_watchdog(&mut self, cycle: u64) {
        let Some(mut wd) = self.watchdog.take() else { return };
        // Residency map: (snd_una, req) wherever the TCB lives, on a
        // dense slab (no hashing, deterministic iteration).
        let mut residency: FlowSlab<(u64, u64)> = FlowSlab::with_capacity(0);
        for f in &self.fpcs {
            for tcb in f.resident_tcbs() {
                residency.insert(tcb.flow.0, (u64::from(tcb.snd_una.0), u64::from(tcb.req.0)));
            }
        }
        for tcb in self.mm.resident_tcbs() {
            if !residency.contains(tcb.flow.0) {
                residency.insert(tcb.flow.0, (u64::from(tcb.snd_una.0), u64::from(tcb.req.0)));
            }
        }
        // Slab iteration is already ascending by flow id — the order the
        // sweep previously had to sort into.
        let ids: Vec<FlowId> = self.flows.ids().map(FlowId).collect();
        let mut flow_obs: Vec<FlowObservation> = Vec::with_capacity(ids.len());
        for flow in ids {
            let moving = self.scheduler.location(flow) == Location::Moving;
            let Some(&(una, req)) = residency.get(flow.0) else {
                if moving {
                    flow_obs.push(FlowObservation {
                        flow: flow.0,
                        progress: 0,
                        outstanding: false,
                        moving: true,
                    });
                }
                continue;
            };
            flow_obs.push(FlowObservation {
                flow: flow.0,
                progress: una,
                outstanding: una != req,
                moving,
            });
        }
        let queues = [
            QueueObservation {
                name: "scheduler.input_fifo",
                depth: Scheduler::INPUT_FIFO_DEPTH - self.scheduler.intake_free(),
                cap: Scheduler::INPUT_FIFO_DEPTH,
            },
            QueueObservation { name: "engine.tx_out", depth: self.tx_out.len(), cap: TX_OUT_CAP },
        ];
        // Swap-ins wait on full FPCs, nothing is moving, and still some
        // FPC has a flow it could give up: the victim search is stuck.
        let starved = self.scheduler.swap_in_backlog() > 0
            && self.scheduler.migrations_in_flight() == 0
            && self.fpcs.iter().all(|f| !f.can_accept_tcb())
            && self.fpcs.iter().any(|f| f.coldest_flow().is_some());
        wd.observe(cycle, &flow_obs, &queues, self.pkt_gen.retransmissions(), starved);
        self.watchdog = Some(wd);
    }

    /// One FtPulse window: reads the cumulative counters behind the rate
    /// series (the recorder differences them into per-window rates) and
    /// the instantaneous gauges, and records per-flow congestion state for
    /// the sampled flows. Everything read here is a pure function of engine state at
    /// the sample cycle, so fast-forwarded and tick-by-tick runs (which
    /// both stop at every sample boundary) record identical windows.
    fn run_pulse(&mut self, cycle: u64) {
        let Some(mut p) = self.pulse.take() else { return };
        let stats = self.stats();
        let cache_hits = self.mm.cache_hits();
        let cache_lookups = cache_hits + self.mm.cache_misses();
        let (lut_fpc, lut_dram, lut_moving) = self.scheduler.lut_census();

        let mut readings = [0u64; SERIES_COUNT];
        let mut set = |s: PulseSeries, v: u64| readings[s.index()] = v;
        set(PulseSeries::GoodputBytes, stats.bytes_out);
        set(PulseSeries::SegmentsTx, stats.segments_out);
        set(PulseSeries::SegmentsRx, stats.segments_in);
        set(PulseSeries::Retransmits, stats.retransmissions);
        set(PulseSeries::HostEvents, stats.host_events);
        set(PulseSeries::StallFifoEmpty, stats.stall_fifo_empty);
        set(PulseSeries::StallTcbWait, stats.stall_tcb_wait);
        set(PulseSeries::StallBackpressure, stats.stall_backpressure);
        set(
            PulseSeries::EventTableValid,
            self.fpcs.iter().map(|f| f.event_table_valid() as u64).sum(),
        );
        set(PulseSeries::FpuOccupancy, self.fpcs.iter().map(|f| f.fpu_depth() as u64).sum());
        set(PulseSeries::LutInFpc, lut_fpc as u64);
        set(PulseSeries::LutInDram, lut_dram as u64);
        set(PulseSeries::LutMoving, lut_moving as u64);
        set(PulseSeries::TcbCacheHits, cache_hits);
        set(PulseSeries::TcbCacheLookups, cache_lookups);
        set(PulseSeries::FlowsOpen, self.flows.len() as u64);

        // Per-stage p99-so-far from the flight histograms (zero when the
        // flight recorder is off): the aggregate percentile sampled at
        // each window boundary, which the pulse gate compares per window.
        let mut stage_p99 = [0u64; STAGE_COUNT];
        if let Some(f) = &self.flight {
            for stage in FlightStage::ALL {
                stage_p99[stage.index()] = f.stage_histogram(stage).percentile(99.0);
            }
        }

        // Per-flow congestion series: ascending flow-id walk (slab order
        // is deterministic), bounded by the recorder's remaining track
        // budget so a 64K-flow engine never peeks thousands of TCBs.
        let mut budget = p.track_budget();
        let mut flow_samples: Vec<(u32, [u64; FLOW_SERIES_COUNT])> = Vec::new();
        for flow in self.flows.ids() {
            if !p.sampled(flow) {
                continue;
            }
            if !p.tracks(flow) {
                if budget == 0 {
                    continue;
                }
                budget -= 1;
            }
            if let Some(tcb) = self.peek_tcb(FlowId(flow)) {
                flow_samples.push((
                    flow,
                    [
                        u64::from(tcb.cwnd),
                        u64::from(tcb.ssthresh),
                        tcb.rto.srtt_ns(),
                        u64::from(tcb.flight_size()),
                    ],
                ));
            }
        }

        p.record_window(cycle, &readings, &stage_p99, &flow_samples);
        self.pulse = Some(p);
    }

    /// FtVerify cross-module audit. Per-cycle rules live inline in the
    /// modules; this pass checks the *structural* invariants that need a
    /// global view: a TCB is valid in exactly the place its location-LUT
    /// entry claims (§3.2's race-free migration), never in two memories
    /// at once, every FIFO's push/pop accounting balances, and no event
    /// routed to DRAM went missing.
    fn run_audit(&mut self, cycle: u64) {
        let Some(mut chk) = self.check.take() else { return };
        for f in &self.fpcs {
            f.audit(cycle, &mut chk);
        }
        self.scheduler.audit(cycle, &mut chk);
        self.mm.audit(cycle, &mut chk);
        self.rx_parser.audit(cycle, &mut chk);

        // Event conservation on the DRAM path: what the scheduler routed
        // there was handled in place, bounced and taken back by the
        // scheduler, or still waits in the memory manager's input.
        let routed = self.scheduler.stats().routed_dram;
        let (handled, returned, queued) =
            (self.mm.events_handled(), self.bounces_returned, self.mm.events_queued() as u64);
        if routed != handled + returned + queued {
            chk.report(
                cycle,
                ViolationKind::EventConservation,
                "engine.audit",
                format!(
                    "{routed} events routed to DRAM != {handled} handled + {returned} bounced \
                     back to the scheduler + {queued} queued"
                ),
            );
        }

        // Residency map: which memory actually holds each flow right now.
        // Slab/bitset-backed so audit reports come out in deterministic
        // (ascending flow id) order run over run.
        let mut sram: FlowSlab<u8> = FlowSlab::with_capacity(0);
        for f in &self.fpcs {
            for flow in f.resident_flows() {
                if let Some(prev) = sram.insert(flow.0, f.id()) {
                    chk.report(
                        cycle,
                        ViolationKind::MigrationRace,
                        "engine.audit",
                        format!("flow {flow} resident in fpc{prev} and fpc{} at once", f.id()),
                    );
                }
            }
        }
        let mut dram = FlowSet::with_capacity(0);
        for flow in self.mm.resident_flows() {
            dram.insert(flow.0);
        }
        for flow in dram.iter().map(FlowId) {
            if let Some(&fpc) = sram.get(flow.0) {
                chk.report(
                    cycle,
                    ViolationKind::MigrationRace,
                    "engine.audit",
                    format!("flow {flow} resident in fpc{fpc} SRAM and DRAM at once"),
                );
            }
        }
        // Every open flow's LUT entry must match actual residency.
        // `Moving` is the sanctioned transient and is skipped.
        for flow in self.flows.ids().map(FlowId) {
            match self.scheduler.location(flow) {
                Location::Fpc(i) => {
                    if sram.get(flow.0) != Some(&i) {
                        chk.report(
                            cycle,
                            ViolationKind::MigrationRace,
                            "engine.audit",
                            format!("LUT says flow {flow} is in fpc{i} but that FPC does not hold it"),
                        );
                    }
                }
                Location::Dram => {
                    if !dram.contains(flow.0) {
                        chk.report(
                            cycle,
                            ViolationKind::MigrationRace,
                            "engine.audit",
                            format!("LUT says flow {flow} is in DRAM but the store does not hold it"),
                        );
                    }
                }
                Location::Moving => {}
                Location::Unallocated => {
                    chk.report(
                        cycle,
                        ViolationKind::MigrationRace,
                        "engine.audit",
                        format!("open flow {flow} has an unallocated LUT entry"),
                    );
                }
            }
        }
        self.check = Some(chk);
    }

    /// Whether the FtVerify checker is attached.
    pub fn check_enabled(&self) -> bool {
        self.check.is_some()
    }

    /// Total FtVerify violations so far (0 when the checker is off).
    pub fn check_total_violations(&self) -> u64 {
        self.check.as_ref().map_or(0, |c| c.total_violations())
    }

    /// The retained FtVerify violation log (empty when the checker is off).
    pub fn check_violations(&self) -> &[Violation] {
        self.check.as_ref().map_or(&[][..], |c| c.violations())
    }

    /// FtVerify report, when the checker is attached.
    pub fn check_summary(&self) -> Option<String> {
        self.check.as_ref().map(|c| c.summary())
    }

    /// FtVerify fault injection: corrupts `flow`'s location-LUT entry
    /// directly, bypassing the Moving protocol. For negative tests that
    /// prove the audit catches stale-LUT migration races.
    pub fn fault_inject_lut(&mut self, flow: FlowId, loc: Location) {
        self.scheduler.fault_set_location(flow, loc);
    }

    /// FtVerify fault injection: plants a copy of an FPC-resident TCB in
    /// the DRAM store, creating the dual-residency race §3.2 rules out by
    /// construction. Returns `false` if the flow is not SRAM-resident.
    pub fn fault_inject_dram_ghost(&mut self, flow: FlowId) -> bool {
        let Some(tcb) = self.fpcs.iter().find_map(|f| f.peek_tcb(flow)).copied() else {
            return false;
        };
        self.mm.fault_inject_store(tcb);
        true
    }

    /// The engine-wide activity horizon: the earliest cycle at which any
    /// module's observable state can change, folded with
    /// [`merge_horizon`] across every `next_activity()` report.
    /// `Some(current cycle)` means there is work right now; `None` means
    /// the engine is fully drained and only external input can wake it.
    ///
    /// The TX skid buffer counts as immediate work (its drain runs every
    /// tick); the MAC output buffer and host-notification queues do not —
    /// they are drained externally and generate no tick activity.
    pub fn next_activity(&self) -> Option<u64> {
        let cycle = self.cycle;
        if !self.tx_overflow.is_empty() {
            return Some(cycle);
        }
        // A deadline at `d` ns fires on the first cycle whose timestamp
        // reaches it: ceil(d / CYCLE_NS).
        let mut h = self.timers.next_activity_ns().map(|d| d.div_ceil(CYCLE_NS).max(cycle));
        h = merge_horizon(h, self.rx_parser.next_activity(cycle));
        h = merge_horizon(h, self.scheduler.next_activity(cycle));
        for f in &self.fpcs {
            h = merge_horizon(h, f.next_activity(cycle));
        }
        h = merge_horizon(h, self.mm.next_activity(cycle));
        h = merge_horizon(h, self.pkt_gen.next_activity(cycle));
        h
    }

    /// The end of the engine's idle stretch: the merged
    /// [`next_activity`](Self::next_activity) horizon, capped at the next
    /// observer boundary so audits, sweeps and samples run at exactly the
    /// cycles a tick-by-tick run takes them. Every cycle from the current
    /// one up to it (exclusive) is a tick that would only move per-cycle
    /// accumulators; the current cycle itself means there is work now,
    /// and `u64::MAX` a drained engine with no observer attached.
    pub fn idle_until(&self) -> u64 {
        let cycle = self.cycle;
        let horizon = self.next_activity().unwrap_or(u64::MAX);
        horizon.min(self.next_observer_boundary(cycle)).max(cycle)
    }

    /// The idle routine: advances the clock to `to`, no further than
    /// [`idle_until`](Self::idle_until), replaying in closed form what
    /// ticking those cycles would have moved:
    ///
    /// * timers fire only at the (conservative) heap-head horizon;
    /// * the RX parser and packet generator fold their 322/250 credit
    ///   arithmetic modularly (the RX tick's intake gate is open all
    ///   window — quiescence requires an empty scheduler intake — and the
    ///   MAC buffer cannot change mid-window, so the TX gate is constant;
    ///   a caller that drains the MAC buffer settles first);
    /// * the scheduler's pending queue sleeps until its head retry and
    ///   `lut.begin_cycle()` resets a budget nothing draws on;
    /// * FPCs accumulate occupancy gauges and dispatch bubbles (the
    ///   dispatch gate is open all window: the skid buffer is empty and
    ///   the request FIFO's 64 free slots exceed the 16-slot threshold);
    /// * the memory manager accrues DRAM pacer credit up to its burst cap.
    ///
    /// [`Engine::run`] skips through it, counting the
    /// `engine.fastforward.*` family; a node window (DESIGN.md §12.4)
    /// settles a sleeping engine through it and counts nothing.
    pub fn skip_idle(&mut self, to: u64) {
        debug_assert!(to <= self.idle_until(), "skip to {to} past the idle horizon");
        let cycle = self.cycle;
        if to <= cycle {
            return;
        }
        let n = to - cycle;
        for f in &mut self.fpcs {
            f.skip_cycles(cycle, n, true);
        }
        self.mm.skip_idle_cycles(n);
        self.rx_parser.skip_idle_cycles(n);
        if self.tx_out.len() < TX_OUT_CAP {
            self.pkt_gen.skip_idle_cycles(n);
        }
        self.cycle = to;
    }

    /// Periods of the attached periodic observers, in [`OBSERVERS`] order.
    fn observer_periods(&self) -> [Option<u64>; 3] {
        [
            self.check.is_some().then_some(AUDIT_INTERVAL),
            self.watchdog.is_some().then_some(self.config.watchdog_interval),
            self.pulse.is_some().then_some(self.config.pulse_interval),
        ]
    }

    /// The first cycle at or after `cycle` on which some attached
    /// periodic observer runs (`u64::MAX` with none attached).
    fn next_observer_boundary(&self, cycle: u64) -> u64 {
        let mut next = u64::MAX;
        for iv in self.observer_periods().into_iter().flatten() {
            next = next.min(cycle.next_multiple_of(iv));
        }
        next
    }

    /// Cycles elided by fast-forward so far.
    pub fn fastforward_skipped_cycles(&self) -> u64 {
        self.ff_skipped_cycles
    }

    /// Fast-forward windows taken so far.
    pub fn fastforward_windows(&self) -> u64 {
        self.ff_windows
    }

    /// Runs `n` cycles. With [`EngineConfig::fast_forward`] set (the
    /// default), quiescent stretches are skipped in one step per the
    /// module horizons; the result is bit-identical to ticking each cycle
    /// (see `tests/fastforward_equiv.rs` for the enforced contract).
    pub fn run(&mut self, n: u64) {
        let end = self.cycle.saturating_add(n);
        if !self.config.fast_forward {
            while self.cycle < end {
                self.tick();
            }
            return;
        }
        while self.cycle < end {
            let to = self.idle_until().min(end);
            if to > self.cycle {
                self.ff_skipped_cycles += to - self.cycle;
                self.ff_windows += 1;
                self.skip_idle(to);
            } else {
                self.tick();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_sim::watchdog::AlarmKind;
    use std::net::Ipv4Addr;

    fn tuple_ab() -> FourTuple {
        FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 40_000, Ipv4Addr::new(10, 0, 0, 2), 80)
    }

    /// Two engines wired back-to-back with an ideal (infinite) link. The
    /// shared wire is `f4t_system::EnginePair`, but `f4t-core`'s unit
    /// tests cannot depend on `f4t-system`, so they keep this copy.
    fn run_pair(a: &mut Engine, b: &mut Engine, cycles: u64) {
        for _ in 0..cycles {
            a.tick();
            b.tick();
            while let Some(seg) = a.pop_tx() {
                b.push_rx(seg);
            }
            while let Some(seg) = b.pop_tx() {
                a.push_rx(seg);
            }
        }
    }

    #[test]
    fn reference_config_shape() {
        let e = Engine::new(EngineConfig::reference());
        assert_eq!(e.config().num_fpcs, 8);
        assert_eq!(e.config().flows_per_fpc, 128);
        assert_eq!(e.config().max_flows, 65_536);
        assert_eq!(e.now_ns(), 0);
    }

    #[test]
    fn end_to_end_bulk_transfer() {
        let mut a = Engine::new(EngineConfig::single_fpc());
        let mut b = Engine::new(EngineConfig::single_fpc());
        let t = tuple_ab();
        let isn = SeqNum(1000);
        let fa = a.open_established(t, isn).unwrap();
        let fb = b.open_established(t.reversed(), isn).unwrap();
        run_pair(&mut a, &mut b, 50);

        // A sends 10 KB.
        assert!(a.push_host(fa, EventKind::SendReq { req: isn.add(10_000) }));
        run_pair(&mut a, &mut b, 3000);

        // B's host saw the data arrive in order.
        let mut rcvd = SeqNum::ZERO;
        while let Some(n) = b.pop_notification() {
            if let HostNotification::DataReceived { flow, upto } = n {
                assert_eq!(flow, fb);
                rcvd = upto;
            }
        }
        assert_eq!(rcvd, isn.add(10_000), "all 10 KB delivered in order");

        // A's host saw everything ACKed.
        let mut acked = SeqNum::ZERO;
        while let Some(n) = a.pop_notification() {
            if let HostNotification::DataAcked { upto, .. } = n {
                acked = upto;
            }
        }
        assert_eq!(acked, isn.add(10_000), "all data acknowledged");
        assert_eq!(a.stats().retransmissions, 0, "clean link: no retransmits");
    }

    /// Telemetry JSON minus the `fastforward.*` family (the only
    /// counters allowed to differ between execution modes).
    fn telemetry_without_ff(e: &Engine) -> String {
        e.telemetry()
            .to_json()
            .lines()
            .filter(|l| !l.contains("fastforward"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn fast_forward_matches_tick_by_tick_on_bulk() {
        // The same bulk transfer driven twice — once fast-forwarded, once
        // tick-by-tick — through identical chunked `run` windows, with
        // the checker auditing both paths. Every observable must match.
        let drive = |ff: bool| {
            let cfg = EngineConfig { fast_forward: ff, check: true, ..EngineConfig::single_fpc() };
            let mut a = Engine::new(cfg.clone());
            let mut b = Engine::new(cfg);
            a.set_trace_capacity(4096);
            let t = tuple_ab();
            let isn = SeqNum(1000);
            let fa = a.open_established(t, isn).unwrap();
            b.open_established(t.reversed(), isn).unwrap();
            assert!(a.push_host(fa, EventKind::SendReq { req: isn.add(10_000) }));
            let mut wire = Vec::new();
            for _ in 0..200 {
                a.run(32);
                b.run(32);
                while let Some(seg) = a.pop_tx() {
                    wire.push(format!("{seg:?}"));
                    b.push_rx(seg);
                }
                while let Some(seg) = b.pop_tx() {
                    wire.push(format!("{seg:?}"));
                    a.push_rx(seg);
                }
            }
            // A long drained tail exercises deep multi-window skips.
            a.run(100_000);
            b.run(100_000);
            assert_eq!(a.check_total_violations(), 0, "{:?}", a.check_violations());
            let tcb = a.peek_tcb(fa).unwrap();
            (wire, format!("{tcb:?}"), telemetry_without_ff(&a), a.export_chrome_trace(), a)
        };
        let (wire_ff, tcb_ff, telem_ff, trace_ff, eng_ff) = drive(true);
        let (wire_tk, tcb_tk, telem_tk, trace_tk, eng_tk) = drive(false);
        assert_eq!(wire_ff, wire_tk, "packet traces diverge");
        assert_eq!(tcb_ff, tcb_tk, "final TCB state diverges");
        assert_eq!(telem_ff, telem_tk, "telemetry diverges");
        assert_eq!(trace_ff, trace_tk, "pipeline trace diverges");
        assert!(eng_ff.fastforward_skipped_cycles() > 50_000, "fast-forward barely engaged");
        assert_eq!(eng_tk.fastforward_skipped_cycles(), 0, "tick-by-tick must skip nothing");
    }

    /// Work-proportional FPC ticks: with one busy flow per side on 8-FPC
    /// engines, only the FPC owning the flow runs the full tick; the other
    /// seven take the quiet path every cycle.
    #[test]
    fn only_the_owning_fpc_runs_the_full_tick() {
        let mut a = Engine::new(EngineConfig::reference());
        let mut b = Engine::new(EngineConfig::reference());
        let t = tuple_ab();
        let isn = SeqNum(1000);
        let fa = a.open_established(t, isn).unwrap();
        let fb = b.open_established(t.reversed(), isn).unwrap();
        assert!(a.push_host(fa, EventKind::SendReq { req: isn.add(200_000) }));
        run_pair(&mut a, &mut b, 20_000);
        assert!(a.peek_tcb(fa).is_some_and(|t| t.snd_una == isn.add(200_000)), "all data ACKed");
        for (e, flow) in [(&a, fa), (&b, fb)] {
            let owner = e.fpcs.iter().position(|f| f.peek_tcb(flow).is_some()).expect("resident");
            for (i, f) in e.fpcs.iter().enumerate() {
                if i == owner {
                    assert!(f.full_ticks > 0, "owner fpc{i} never ran the full tick");
                    assert!(f.full_ticks < 20_000, "owner fpc{i} never quiet");
                } else {
                    assert_eq!(f.full_ticks, 0, "fpc{i} holds no flow yet ran the full tick");
                }
            }
        }
    }

    #[test]
    fn fast_forward_skips_to_rto_deadline_exactly() {
        // A lone sender with unacknowledged data is quiescent until its
        // RTO fires; fast-forward must land on the same cycle the
        // tick-by-tick run retransmits.
        let drive = |ff: bool| {
            let cfg = EngineConfig { fast_forward: ff, ..EngineConfig::single_fpc() };
            let mut e = Engine::new(cfg);
            let fa = e.open_established(tuple_ab(), SeqNum(1000)).unwrap();
            e.push_host(fa, EventKind::SendReq { req: SeqNum(1000).add(100) });
            let mut events = Vec::new();
            // 4M cycles = 16 ms: covers the 10 ms initial RTO.
            for _ in 0..40 {
                e.run(100_000);
                while let Some(seg) = e.pop_tx() {
                    events.push((e.cycles(), format!("{seg:?}")));
                }
            }
            (events, e.fastforward_skipped_cycles())
        };
        let (ev_ff, skipped) = drive(true);
        let (ev_tk, _) = drive(false);
        assert_eq!(ev_ff, ev_tk, "retransmission schedule diverges");
        assert!(
            ev_ff.iter().any(|(_, s)| s.contains("is_retransmit: true")),
            "RTO never fired: {ev_ff:?}"
        );
        assert!(skipped > 2_000_000, "idle RTO wait was not skipped (skipped {skipped})");
    }

    /// `skip_idle` against ticking: an engine that has delivered a
    /// transfer sits mostly idle, every recorder armed; one copy skips each
    /// idle stretch in closed form, the other ticks it. Telemetry JSON
    /// (the `fastforward.*` family included), trace, flight, pulse and
    /// journal come out byte-identical, and only `run` counts skips.
    #[test]
    fn skip_idle_matches_ticking_the_same_cycles() {
        let drive = |skip: bool| {
            let cfg = EngineConfig {
                check: true,
                flight: true,
                journal: true,
                watchdog: true,
                pulse: true,
                ..EngineConfig::single_fpc()
            };
            let mut a = Engine::new(cfg.clone());
            let mut b = Engine::new(cfg);
            a.set_trace_capacity(4096);
            let isn = SeqNum(1000);
            let fa = a.open_established(tuple_ab(), isn).unwrap();
            b.open_established(tuple_ab().reversed(), isn).unwrap();
            assert!(a.push_host(fa, EventKind::SendReq { req: isn.add(10_000) }));
            run_pair(&mut a, &mut b, 3_000);
            let (end, mut skipped) = (a.cycles() + 20_000, 0);
            while a.cycles() < end {
                let to = a.idle_until().min(end);
                if skip && to > a.cycles() {
                    skipped += to - a.cycles();
                    a.skip_idle(to);
                } else {
                    a.tick();
                }
            }
            assert_eq!(a.check_total_violations(), 0, "{:?}", a.check_violations());
            let view = (a.telemetry().to_json(), a.export_chrome_trace(), a.flight_json());
            (view, a.pulse_json(), a.journal_digest(), skipped, a.fastforward_windows())
        };
        let (view_skip, pulse_skip, journal_skip, skipped, windows) = drive(true);
        let (view_tick, pulse_tick, journal_tick, _, _) = drive(false);
        assert_eq!(view_skip, view_tick, "telemetry, trace or flight diverge");
        assert_eq!(pulse_skip, pulse_tick, "pulse series diverge");
        assert_eq!(journal_skip, journal_tick, "journal diverges");
        assert!(skipped > 15_000, "idle stretches barely skipped ({skipped} of 20000 cycles)");
        assert_eq!(windows, 0, "skip_idle counted a fast-forward window");
    }

    /// A skip past the idle horizon would hide work the engine owes this
    /// cycle: debug builds refuse it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "past the idle horizon")]
    fn skipping_past_the_idle_horizon_panics() {
        let mut e = Engine::new(EngineConfig::single_fpc());
        let fa = e.open_established(tuple_ab(), SeqNum(1000)).unwrap();
        assert!(e.push_host(fa, EventKind::SendReq { req: SeqNum(1000).add(100) }));
        assert_eq!(e.idle_until(), e.cycles(), "a queued event is work now");
        e.skip_idle(e.cycles() + 1);
    }

    #[test]
    fn end_to_end_handshake() {
        let mut client = Engine::new(EngineConfig::single_fpc());
        let mut server = Engine::new(EngineConfig::single_fpc());
        server.listen(80);
        let t = tuple_ab();
        let fc = client.open_active(t).unwrap();
        assert!(client.push_host(fc, EventKind::Connect));
        run_pair(&mut client, &mut server, 2000);

        let mut client_connected = false;
        while let Some(n) = client.pop_notification() {
            if matches!(n, HostNotification::Connected { flow } if flow == fc) {
                client_connected = true;
            }
        }
        assert!(client_connected, "client completed the handshake");

        let mut server_new = None;
        let mut server_connected = false;
        while let Some(n) = server.pop_notification() {
            match n {
                HostNotification::NewConnection { flow, tuple } => {
                    assert_eq!(tuple, t.reversed());
                    server_new = Some(flow);
                }
                HostNotification::Connected { flow } => {
                    assert_eq!(Some(flow), server_new);
                    server_connected = true;
                }
                _ => {}
            }
        }
        assert!(server_connected, "server reached established");

        // Data flows over the handshaken connection.
        let tcb = client.peek_tcb(fc).unwrap();
        client.push_host(fc, EventKind::SendReq { req: tcb.snd_nxt.add(256) });
        run_pair(&mut client, &mut server, 2000);
        let srv_flow = server_new.unwrap();
        let srv_tcb = server.peek_tcb(srv_flow).unwrap();
        assert_eq!(srv_tcb.rcv_nxt.since(srv_tcb.rcv_consumed), 256, "payload arrived");
    }

    #[test]
    fn loss_recovers_via_retransmission() {
        let mut a = Engine::new(EngineConfig::single_fpc());
        let mut b = Engine::new(EngineConfig::single_fpc());
        let t = tuple_ab();
        let isn = SeqNum(0);
        let fa = a.open_established(t, isn).unwrap();
        let _fb = b.open_established(t.reversed(), isn).unwrap();
        run_pair(&mut a, &mut b, 50);
        a.push_host(fa, EventKind::SendReq { req: isn.add(50_000) });

        // Drop the 3rd data segment once.
        let mut dropped = false;
        let mut seen = 0;
        for _ in 0..1_000_000u64 {
            a.tick();
            b.tick();
            while let Some(seg) = a.pop_tx() {
                if seg.has_payload() {
                    seen += 1;
                    if seen == 3 && !dropped {
                        dropped = true;
                        continue; // lost on the wire
                    }
                }
                b.push_rx(seg);
            }
            while let Some(seg) = b.pop_tx() {
                a.push_rx(seg);
            }
            if a.peek_tcb(fa).map(|t| t.snd_una) == Some(isn.add(50_000)) {
                break;
            }
        }
        assert!(dropped);
        let tcb = a.peek_tcb(fa).unwrap();
        assert_eq!(tcb.snd_una, isn.add(50_000), "transfer completed despite loss");
        assert!(a.stats().retransmissions >= 1, "loss repaired by retransmission");
    }

    #[test]
    fn flows_overflow_to_dram() {
        let mut cfg = EngineConfig::single_fpc();
        cfg.flows_per_fpc = 4;
        let mut e = Engine::new(cfg);
        for i in 0..10u32 {
            let t = FourTuple::new(
                Ipv4Addr::new(10, 0, 0, 1),
                10_000 + i as u16,
                Ipv4Addr::new(10, 0, 0, 2),
                80,
            );
            e.open_established(t, SeqNum(0)).unwrap();
            e.run(10);
        }
        e.run(100);
        let in_dram = (0..10).filter(|&i| e.mm.peek_tcb(FlowId(i)).is_some()).count();
        assert_eq!(in_dram, 6, "4 SRAM-resident, 6 in DRAM");
        // peek_tcb finds them regardless of residence.
        for i in 0..10u32 {
            assert!(e.peek_tcb(FlowId(i)).is_some(), "flow {i} visible");
        }
    }

    #[test]
    fn flow_limit_enforced() {
        let mut cfg = EngineConfig::single_fpc();
        cfg.max_flows = 2;
        let mut e = Engine::new(cfg);
        assert!(e.open_established(tuple_ab(), SeqNum(0)).is_some());
        let t2 = FourTuple::new(Ipv4Addr::new(10, 0, 0, 3), 1, Ipv4Addr::new(10, 0, 0, 4), 2);
        assert!(e.open_established(t2, SeqNum(0)).is_some());
        let t3 = FourTuple::new(Ipv4Addr::new(10, 0, 0, 5), 1, Ipv4Addr::new(10, 0, 0, 6), 2);
        assert!(e.open_established(t3, SeqNum(0)).is_none(), "65K-style cap");
    }

    #[test]
    fn zero_window_closes_and_probe_reopens() {
        // Fill the receiver's 512 KB buffer without consuming: the
        // advertised window closes and the sender stalls; once the app
        // consumes, the window-update (or probe) restarts the transfer.
        let mut a = Engine::new(EngineConfig::single_fpc());
        let mut b = Engine::new(EngineConfig::single_fpc());
        let t = tuple_ab();
        let isn = SeqNum(0);
        let fa = a.open_established(t, isn).unwrap();
        let fb = b.open_established(t.reversed(), isn).unwrap();
        run_pair(&mut a, &mut b, 50);
        // Ask for 600 KB — more than the 512 KB receive buffer.
        a.push_host(fa, EventKind::SendReq { req: isn.add(600_000) });
        run_pair(&mut a, &mut b, 60_000);
        let tcb_a = a.peek_tcb(fa).unwrap();
        assert!(
            tcb_a.snd_una.since(isn) < 600_000,
            "sender stalled before finishing: {} B acked",
            tcb_a.snd_una.since(isn)
        );
        assert_eq!(tcb_a.snd_wnd, 0, "peer advertised a closed window");
        assert!(tcb_a.probe_deadline.is_some(), "probe timer armed");
        // The receiving app finally consumes everything buffered.
        let tcb_b = b.peek_tcb(fb).unwrap();
        b.push_host(fb, EventKind::RecvConsumed { consumed: tcb_b.rcv_nxt });
        run_pair(&mut a, &mut b, 40_000);
        // Keep consuming until the stream completes.
        for _ in 0..20 {
            let tcb_b = b.peek_tcb(fb).unwrap();
            b.push_host(fb, EventKind::RecvConsumed { consumed: tcb_b.rcv_nxt });
            run_pair(&mut a, &mut b, 20_000);
            if a.peek_tcb(fa).unwrap().snd_una == isn.add(600_000) {
                break;
            }
        }
        assert_eq!(
            a.peek_tcb(fa).unwrap().snd_una,
            isn.add(600_000),
            "transfer completed after the window reopened"
        );
    }

    #[test]
    fn load_imbalance_triggers_fpc_migration() {
        // Two FPCs; hammer one flow hard enough to backpressure its FPC's
        // input FIFO while coalescing is off: the scheduler must migrate
        // flows toward the idler FPC (§4.4.2).
        let mut cfg = EngineConfig::reference();
        cfg.num_fpcs = 2;
        cfg.lut_groups = 2;
        cfg.flows_per_fpc = 8;
        cfg.coalescing = false;
        let mut e = Engine::new(cfg);
        // Open 8 flows; with least-loaded placement they spread 4/4.
        let mut flows = Vec::new();
        for i in 0..8u16 {
            let t = FourTuple::new(
                Ipv4Addr::new(10, 0, 0, 1),
                30_000 + i,
                Ipv4Addr::new(10, 0, 0, 2),
                80,
            );
            flows.push(e.open_established(t, SeqNum(0)).unwrap());
            e.run(8);
        }
        // Flood dup-ack-style distinct events to all flows faster than
        // one FPC drains (0.5 events/cycle), creating backpressure.
        let mut req = vec![SeqNum(0); flows.len()];
        for c in 0..200_000u64 {
            for (i, &f) in flows.iter().enumerate() {
                req[i] = req[i].add(1);
                e.push_host(f, EventKind::SendReq { req: req[i] });
            }
            e.tick();
            while e.pop_tx().is_some() {}
            let _ = c;
        }
        assert!(
            e.stats().migrations > 0,
            "backpressure triggered load-balance migration"
        );
    }

    #[test]
    fn orderly_close_tears_down_and_tuple_is_reusable() {
        let mut a = Engine::new(EngineConfig::single_fpc());
        let mut b = Engine::new(EngineConfig::single_fpc());
        let t = tuple_ab();
        let isn = SeqNum(0);
        let fa = a.open_established(t, isn).unwrap();
        let fb = b.open_established(t.reversed(), isn).unwrap();
        run_pair(&mut a, &mut b, 50);
        // Transfer then close from both sides.
        a.push_host(fa, EventKind::SendReq { req: isn.add(1_000) });
        run_pair(&mut a, &mut b, 2_000);
        a.push_host(fa, EventKind::Close);
        b.push_host(fb, EventKind::Close);
        let mut a_closed = false;
        let mut b_closed = false;
        // TIME_WAIT holds the active closer for 100 µs (25 k cycles).
        for _ in 0..80 {
            run_pair(&mut a, &mut b, 1_000);
            while let Some(n) = a.pop_notification() {
                a_closed |= matches!(n, HostNotification::Closed { flow } if flow == fa);
            }
            while let Some(n) = b.pop_notification() {
                b_closed |= matches!(n, HostNotification::Closed { flow } if flow == fb);
            }
            if a_closed && b_closed {
                break;
            }
        }
        assert!(a_closed && b_closed, "both directions closed");
        assert!(a.peek_tcb(fa).is_none(), "TCB slot reclaimed");
        // The same 4-tuple opens a NEW connection (no stale flow-table
        // entry in the way), and capacity was released.
        let fa2 = a.open_established(t, SeqNum(50_000)).expect("tuple reusable");
        // Flow ids are a bounded pool and may be recycled after close.
        assert_eq!(fa2, fa, "freed flow id recycled");
        let fb2 = b.open_established(t.reversed(), SeqNum(50_000)).unwrap();
        run_pair(&mut a, &mut b, 50);
        a.push_host(fa2, EventKind::SendReq { req: SeqNum(50_000).add(500) });
        run_pair(&mut a, &mut b, 2_000);
        let tcb = b.peek_tcb(fb2).unwrap();
        assert_eq!(tcb.rcv_nxt, SeqNum(50_500), "new connection moves data");
    }

    #[test]
    fn rst_tears_down_immediately() {
        let mut e = Engine::new(EngineConfig::single_fpc());
        let flow = e.open_established(tuple_ab(), SeqNum(0)).unwrap();
        e.run(50);
        let mut rst = f4t_tcp::Segment::pure_ack(tuple_ab().reversed(), SeqNum(0), SeqNum(0), 0);
        rst.flags = f4t_tcp::TcpFlags::RST | f4t_tcp::TcpFlags::ACK;
        e.push_rx(rst);
        e.run(500);
        let mut closed = false;
        while let Some(n) = e.pop_notification() {
            closed |= matches!(n, HostNotification::Closed { flow: f } if f == flow);
        }
        assert!(closed, "RST closed the connection");
        assert!(e.peek_tcb(flow).is_none(), "state reclaimed");
    }

    #[test]
    fn arp_and_ping_answered_in_hardware() {
        let e = Engine::new(EngineConfig::single_fpc());
        let req = ArpMessage {
            is_request: true,
            sender_mac: MacAddr([1; 6]),
            sender_ip: Ipv4Addr::new(10, 0, 0, 2),
            target_mac: MacAddr::default(),
            target_ip: Ipv4Addr::new(10, 0, 0, 1),
        };
        let reply = e.handle_arp(&req).expect("ARP answered");
        assert_eq!(reply.sender_mac, e.mac);
        assert!(e.handle_arp(&reply).is_none(), "replies are not re-answered");

        let ping = IcmpEcho { is_request: true, ident: 1, seq: 9, payload: vec![0xAA; 16] };
        let pong = e.handle_ping(&ping).expect("ping answered");
        assert!(!pong.is_request);
        assert_eq!(pong.payload, ping.payload);
        assert!(e.handle_ping(&pong).is_none());
    }

    #[test]
    fn steady_state_has_rmw_hazards_but_zero_rmw_stalls() {
        // The paper's §4.2 claim: event accumulation never stalls on a
        // TCB in flight through the FPU. Hammer one flow so events land
        // while its TCB is mid-pipeline (the hazard), then assert the
        // stall counter is structurally zero.
        let mut a = Engine::new(EngineConfig::single_fpc());
        let mut b = Engine::new(EngineConfig::single_fpc());
        let t = tuple_ab();
        let isn = SeqNum(0);
        let fa = a.open_established(t, isn).unwrap();
        let _fb = b.open_established(t.reversed(), isn).unwrap();
        run_pair(&mut a, &mut b, 50);
        let mut req = isn;
        for _ in 0..5_000u64 {
            req = req.add(64);
            a.push_host(fa, EventKind::SendReq { req });
            a.tick();
            b.tick();
            while let Some(seg) = a.pop_tx() {
                b.push_rx(seg);
            }
            while let Some(seg) = b.pop_tx() {
                a.push_rx(seg);
            }
        }
        let stats = a.stats();
        assert!(
            stats.rmw_hazard_events > 0,
            "the workload must actually exercise the in-flight-TCB hazard"
        );
        assert_eq!(stats.rmw_stall_cycles, 0, "F4T accumulation is stall-free");
        // The dispatch-stall taxonomy is being populated too.
        assert!(
            stats.stall_fifo_empty + stats.stall_tcb_wait + stats.stall_backpressure > 0,
            "some dispatch cycles were idle or blocked"
        );
    }

    #[test]
    fn telemetry_registry_covers_every_module() {
        let mut a = Engine::new(EngineConfig::single_fpc());
        let mut b = Engine::new(EngineConfig::single_fpc());
        let t = tuple_ab();
        let isn = SeqNum(0);
        let fa = a.open_established(t, isn).unwrap();
        let _fb = b.open_established(t.reversed(), isn).unwrap();
        let before = a.telemetry();
        a.push_host(fa, EventKind::SendReq { req: isn.add(10_000) });
        run_pair(&mut a, &mut b, 3_000);
        let after = a.telemetry();
        assert!(after.counter_value("engine.cycles") > 0);
        assert!(after.counter_value("engine.fpc0.events_handled") > 0);
        assert!(after.counter_value("engine.scheduler.events_in") > 0);
        assert!(after.counter_value("engine.rx.segments_in") > 0);
        assert!(after.counter_value("engine.tx.segments_out") > 0);
        assert!(after.counter_value("engine.rx.cuckoo.probes") > 0);
        // The windowed view subtracts the earlier snapshot.
        let win = after.delta(&before);
        assert_eq!(win.counter_value("engine.cycles"), after.counter_value("engine.cycles"));
        assert!(win.counter_value("engine.fpc0.input_fifo.pushed") > 0);
        // Registry serializes without panicking and is non-trivial.
        assert!(after.to_json().len() > 200);
    }

    #[test]
    fn trace_ring_captures_pipeline_events() {
        let mut a = Engine::new(EngineConfig::single_fpc());
        let mut b = Engine::new(EngineConfig::single_fpc());
        let t = tuple_ab();
        let isn = SeqNum(0);
        let fa = a.open_established(t, isn).unwrap();
        let _fb = b.open_established(t.reversed(), isn).unwrap();
        run_pair(&mut a, &mut b, 50);
        a.push_host(fa, EventKind::SendReq { req: isn.add(10_000) });
        run_pair(&mut a, &mut b, 2_000);
        // Armed mid-run: the ring must count only what happens from here
        // on, not lump the scheduler's totals since cycle 0 into the
        // first traced cycle.
        let before = a.telemetry();
        assert!(before.counter_value("engine.scheduler.routed_fpc") > 0, "untraced routes");
        a.set_trace_capacity(4096);
        a.push_host(fa, EventKind::SendReq { req: isn.add(20_000) });
        run_pair(&mut a, &mut b, 3_000);
        let ring = a.trace().expect("trace armed");
        assert!(ring.total_recorded() > 0, "pipeline activity traced");
        assert_eq!(ring.overwritten(), 0, "the whole window is retained");
        let window = a.telemetry().delta(&before);
        let traced = |kind: JournalKind| -> u64 {
            ring.iter().filter(|e| e.kind == kind).map(|e| e.arg).sum()
        };
        assert_eq!(
            traced(JournalKind::EventRouted),
            window.counter_value("engine.scheduler.routed_fpc")
                + window.counter_value("engine.scheduler.routed_dram"),
            "route args sum to the traced window's routes"
        );
        assert_eq!(
            traced(JournalKind::EventMerged),
            window.counter_value("engine.scheduler.coalesced"),
            "coalesce args sum to the traced window's merges"
        );
        let json = a.export_chrome_trace();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("host_enqueue"));
        assert!(json.contains("dispatch"));
        assert!(json.contains("tx_segment"));
        // Disabling detaches the view.
        a.set_trace_capacity(0);
        run_pair(&mut a, &mut b, 100);
        assert!(a.trace().is_none());
        assert_eq!(a.telemetry().counter_value("engine.trace.recorded"), 0);
    }

    /// Both documents the engine assembles from recorder parts parse:
    /// the Chrome trace with FtPulse counters spliced into its event
    /// array, and the black-box dump with a caller value that needs
    /// escaping.
    #[test]
    fn chrome_trace_and_blackbox_dump_parse_as_json() {
        use f4t_sim::json::{self, Value};
        let cfg = EngineConfig {
            flight: true,
            journal: true,
            journal_sample: 1,
            pulse: true,
            pulse_interval: 256,
            ..EngineConfig::single_fpc()
        };
        let mut a = Engine::new(cfg.clone());
        let mut b = Engine::new(cfg);
        a.set_trace_capacity(4096);
        let (t, isn) = (tuple_ab(), SeqNum(0));
        let fa = a.open_established(t, isn).unwrap();
        let _fb = b.open_established(t.reversed(), isn).unwrap();
        a.push_host(fa, EventKind::SendReq { req: isn.add(10_000) });
        run_pair(&mut a, &mut b, 3_000);

        let trace = json::parse(&a.export_chrome_trace()).expect("trace parses");
        let events = trace.get("traceEvents").and_then(Value::as_array).unwrap();
        let phase = |ph: &str| {
            events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph)).count()
        };
        assert!(phase("i") > 0, "pipeline instants");
        assert!(phase("C") > 0, "pulse counters in the same array");

        let odd = "w\"o\\r\nk\u{1}é";
        let dump = a.blackbox_json("gate-failure", &[("workload", odd)]);
        let dump = json::parse(&dump).expect("dump parses");
        assert_eq!(dump.get("reason").and_then(Value::as_str), Some("gate-failure"));
        assert_eq!(dump.get("workload").and_then(Value::as_str), Some(odd));
        assert_eq!(dump.get("cycle").and_then(Value::as_u64), Some(a.cycles()));
        assert_eq!(dump.get("journal_digest").and_then(Value::as_u64), Some(a.journal_digest()));
        let journal = dump.get("journal").and_then(Value::as_array).unwrap();
        assert!(!journal.is_empty() && journal.iter().all(|l| l.as_str().is_some()));
        assert!(dump.get("flight").and_then(|f| f.get("stages")).is_some());
    }

    #[test]
    fn skid_buffer_keeps_the_fpc_exit_stamp_through_tx_emit() {
        // Flow 7 is sampled (7 % 7 == 0), the filler flow 1 is not.
        let cfg = EngineConfig { flight: true, flight_sample: 7, ..EngineConfig::single_fpc() };
        let mut e = Engine::new(cfg);
        e.run(100);
        let req = |flow: u32| TxRequest {
            flow: FlowId(flow),
            tuple: tuple_ab(),
            seq: SeqNum(flow),
            len: 1,
            ack: SeqNum(0),
            wnd: 0,
            flags: f4t_tcp::TcpFlags::ACK,
            retransmit: false,
            ts_ecr: 0,
        };
        // A full request FIFO ahead of one request that left its FPC at
        // cycle 90 and has sat in the skid buffer since.
        for _ in 0..PacketGenerator::REQUEST_FIFO_DEPTH {
            e.pkt_gen.push_at(req(1), 100);
        }
        e.tx_overflow.push_back((req(7), 90));
        let mut emitted_at = None;
        while emitted_at.is_none() {
            e.tick();
            while let Some(seg) = e.pop_tx() {
                if seg.seq == SeqNum(7) {
                    emitted_at = Some(e.cycles() - 1);
                }
            }
        }
        let waited = emitted_at.unwrap() - 90;
        assert!(waited > 10, "the request really queued behind the full FIFO");
        let h = e.flight().unwrap().stage_histogram(FlightStage::TxEmit);
        assert_eq!((h.count(), h.min(), h.max()), (1, waited, waited));
    }

    /// What [`bounce_into_a_full_intake`] leaves behind.
    struct BounceRun {
        e: Engine,
        /// Events the host offered and the intake accepted.
        offered: u64,
        /// Whether the scheduler parked the planted event in the tick in
        /// which it met the full intake.
        parked: bool,
    }

    /// A single-FPC engine under sustained doorbell backpressure — the
    /// host tops the 512-entry intake up before every tick with window
    /// updates for 120 SRAM-resident flows, and one FPC drains them at an
    /// event every other cycle — into which `kind` arrives for the idle
    /// flow 0 *through the memory manager's input*: an event routed to
    /// DRAM just before its flow swapped in (§3.2), which the memory
    /// manager can only bounce. `plant_after` picks the tick; `None` when
    /// the scheduler freed an intake slot in that very tick, so the bounce
    /// found room and the case was not reached. Nothing else parks in this
    /// run (every flow is SRAM-resident and a lone FPC has nowhere to
    /// migrate to). Afterwards the flood stops and the engine drains.
    fn bounce_into_a_full_intake(kind: EventKind, plant_after: u64, ff: bool) -> Option<BounceRun> {
        const FLOOD_FLOWS: u32 = 120;
        let cfg = EngineConfig {
            fast_forward: ff,
            check: true,
            journal: true,
            journal_sample: 1024, // flow 0 only
            ..EngineConfig::single_fpc()
        };
        let mut e = Engine::new(cfg);
        let isn = SeqNum(1000);
        for i in 0..=FLOOD_FLOWS {
            let t = FourTuple::new(
                Ipv4Addr::new(10, 0, 0, 1),
                10_000 + i as u16,
                Ipv4Addr::new(10, 0, 0, 2),
                80,
            );
            e.open_established(t, isn).unwrap();
            e.run(4);
        }
        e.run(100);
        // (next flood flow, events the intake accepted from the host)
        let mut host = (0u32, 0u64);
        let step = |e: &mut Engine, flood: Option<&mut (u32, u64)>| {
            if let Some((next, offered)) = flood {
                let update = EventKind::RecvConsumed { consumed: isn };
                while e.push_host(FlowId(1 + *next % FLOOD_FLOWS), update) {
                    *next += 1;
                    *offered += 1;
                }
            }
            e.run(1);
            while e.pop_tx().is_some() {}
            while e.pop_notification().is_some() {}
        };
        for _ in 0..400 + plant_after {
            step(&mut e, Some(&mut host));
        }
        assert_eq!(e.scheduler.stats().events_in, host.1, "only the host feeds the intake");
        let planted = FlowEvent::new(FlowId(0), kind, e.now_ns());
        assert!(e.mm.push_event_at(planted, e.cycles()));
        step(&mut e, Some(&mut host));
        if e.scheduler.stats().events_in != host.1 || e.scheduler.can_accept() {
            return None; // the bounce found room in its own tick
        }
        let offered = host.1;
        let parked = e.scheduler.stats().parked == 1;
        for _ in 0..4_000 {
            step(&mut e, None);
        }
        Some(BounceRun { e, offered, parked })
    }

    /// Runs [`bounce_into_a_full_intake`] on the first tick (of a few
    /// consecutive ones) whose scheduler pass frees no intake slot.
    fn bounce_run(kind: EventKind, ff: bool) -> BounceRun {
        (0..8)
            .find_map(|k| bounce_into_a_full_intake(kind, k, ff))
            .expect("no tick in eight kept the intake full through the scheduler pass")
    }

    #[test]
    fn bounce_into_a_full_intake_is_parked_and_delivered_exactly_once() {
        let isn = SeqNum(1000);
        let kinds = [
            EventKind::Close,
            EventKind::Timeout { kind: TimeoutKind::Rto },
            EventKind::SendReq { req: isn.add(700) },
        ];
        for kind in kinds {
            let run = bounce_run(kind, true);
            let e = &run.e;
            assert!(run.parked, "{kind:?}: the bounced event must wait in the pending queue");
            let s = e.scheduler.stats();
            assert_eq!((s.events_in, s.parked), (run.offered, 1), "{kind:?}: taken back once");
            assert_eq!(s.dropped, 0);
            // The plant skipped the scheduler's routed-to-DRAM count, so
            // the audit's event-conservation clause — and no other rule —
            // reports one more event leaving the DRAM path than entered it.
            let violations = e.check_violations();
            assert!(
                !violations.is_empty()
                    && violations.iter().all(|v| v.kind == ViolationKind::EventConservation),
                "{violations:?}"
            );
            let journal: Vec<_> =
                e.journal().unwrap().events().filter(|ev| ev.flow == 0).collect();
            let bounces = journal.iter().filter(|ev| ev.kind == JournalKind::EventBounced).count();
            assert_eq!(bounces, 1, "{kind:?}: one bounce");
            let routes: Vec<u64> = journal
                .iter()
                .filter(|ev| ev.kind == JournalKind::EventRouted)
                .map(|ev| ev.a)
                .collect();
            assert_eq!(routes, [Journal::ROUTE_PARKED, Journal::ROUTE_FPC], "{kind:?}: one delivery");
            let tcb = e.peek_tcb(FlowId(0)).unwrap();
            match kind {
                EventKind::Close => {
                    assert_eq!(tcb.state, TcpState::FinWait, "the FIN went out")
                }
                EventKind::SendReq { req } => {
                    assert_eq!(tcb.req, req, "the request pointer moved");
                    assert_eq!(tcb.snd_nxt, req, "and its 700 bytes were sent");
                }
                // A timeout with nothing in flight changes no TCB field;
                // the journal's single delivery is its evidence.
                _ => {}
            }
        }
    }

    #[test]
    fn fast_forward_matches_tick_by_tick_with_a_parked_bounce() {
        let kind = EventKind::Close;
        let (ff, tk) = (bounce_run(kind, true), bounce_run(kind, false));
        assert!(ff.parked && tk.parked);
        assert_eq!(ff.offered, tk.offered);
        assert_eq!(telemetry_without_ff(&ff.e), telemetry_without_ff(&tk.e), "telemetry diverges");
        assert_eq!(ff.e.journal_digest(), tk.e.journal_digest(), "journal diverges");
        assert_eq!(
            format!("{:?}", ff.e.peek_tcb(FlowId(0))),
            format!("{:?}", tk.e.peek_tcb(FlowId(0))),
        );
        assert!(ff.e.fastforward_skipped_cycles() > 0, "the drained tail was skipped");
        assert_eq!(tk.e.fastforward_skipped_cycles(), 0);
    }

    #[test]
    fn watchdog_flags_a_swap_in_queue_the_scheduler_leaves_starved() {
        let horizon = 1_000;
        let mut cfg = EngineConfig::single_fpc();
        cfg.flows_per_fpc = 4;
        cfg.check = true;
        cfg.watchdog = true;
        cfg.watchdog_interval = 1 << 40; // sweeps are driven by hand below
        cfg.watchdog_cfg.moving_horizon_cycles = horizon;
        let mut e = Engine::new(cfg);
        let isn = SeqNum(0);
        for i in 0..6u16 {
            let t = FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 10_000 + i, Ipv4Addr::new(10, 0, 0, 2), 80);
            e.open_established(t, isn).unwrap();
            e.run(10);
        }
        e.run(100);
        // The fault: a swap-in is queued on a full FPC and the scheduler
        // is withheld (no tick), so no eviction ever starts although all
        // four resident flows are evictable.
        let c = e.cycles();
        e.scheduler.request_swap_in_at(FlowId(5), c);
        e.run_watchdog(c);
        e.run_watchdog(c + horizon - 1);
        assert_eq!(e.watchdog_alarm_count(), 0, "inside the horizon");
        e.run_watchdog(c + horizon);
        let alarms = e.watchdog().unwrap().alarms();
        assert_eq!(alarms.len(), 1, "{alarms:?}");
        assert_eq!((alarms[0].kind, alarms[0].flow), (AlarmKind::SwapInStarved, None));

        // Released, the scheduler makes room in its next tick, the flow
        // comes in and its data goes out — and a DRAM path that was only
        // ever fed by the scheduler keeps the conservation clause quiet.
        assert!(e.push_host(FlowId(5), EventKind::SendReq { req: isn.add(300) }));
        e.run(2_000);
        assert!(matches!(e.scheduler.location(FlowId(5)), Location::Fpc(0)));
        assert_eq!(e.peek_tcb(FlowId(5)).unwrap().snd_nxt, isn.add(300));
        assert!(e.scheduler.stats().routed_dram >= 1);
        assert_eq!(e.check_total_violations(), 0, "{:?}", e.check_violations());
        e.watchdog = Some(Box::new(Watchdog::new(e.config().watchdog_cfg)));
        e.run_watchdog(e.cycles());
        e.run_watchdog(e.cycles() + horizon);
        assert_eq!(e.watchdog_alarm_count(), 0, "a working victim search never starves");
    }

    #[test]
    fn backpressured_link_grows_packet_size() {
        // §5.1: when the network bottlenecks, events accumulate and the
        // emitted packets become larger.
        let mut cfg = EngineConfig::single_fpc();
        cfg.coalescing = false; // isolate the FPC-accumulation effect
        let mut e = Engine::new(cfg);
        let fa = e.open_established(tuple_ab(), SeqNum(0)).unwrap();
        e.run(50);
        // Feed 128 B requests but drain the link slowly.
        let mut req_ptr = SeqNum(0);
        let mut drained: Vec<Segment> = Vec::new();
        for c in 0..30_000u64 {
            req_ptr = req_ptr.add(128);
            e.push_host(fa, EventKind::SendReq { req: req_ptr });
            e.tick();
            // Slow link: one segment every 100 cycles.
            if c % 100 == 0 {
                if let Some(seg) = e.pop_tx() {
                    drained.push(seg);
                }
            }
        }
        // Early packets left before backlog built; judge the steady
        // state by the second half of the drain.
        let tail = &drained[drained.len() / 2..];
        let avg_payload: f64 =
            tail.iter().map(|s| f64::from(s.payload_len)).sum::<f64>() / tail.len() as f64;
        assert!(
            avg_payload > 512.0,
            "accumulation grew packets well beyond 128 B, got {avg_payload:.0} B"
        );
    }
}
