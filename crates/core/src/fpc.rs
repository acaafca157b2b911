//! The flow processing core (FPC).
//!
//! One FPC (Fig. 4) composes:
//!
//! * the **event handler**, which accumulates incoming events into the
//!   event table by overwriting cumulative pointers and OR-ing occurrence
//!   bits, with duplicate-ACK counting as its only single-cycle RMW
//!   (§4.2.1);
//! * the **dual memory** — a TCB table written by the FPU and an event
//!   table written by the event handler, with per-entry valid bits merged
//!   at dispatch (§4.2.3);
//! * the **TCB manager**, which round-robins over slots, constructs the
//!   merged up-to-date TCB, clears valid bits and issues to the FPU;
//! * the **FPU** pipeline (see [`crate::fpu`]);
//! * the **evict checker**, which diverts processed TCBs whose evict flag
//!   is set toward DRAM without consuming an extra memory port (§4.3.2);
//! * the **CAM** mapping global flow ids to local slots (§4.4.2).
//!
//! The two-cycle port schedule is honoured structurally: event handling
//! and TCB acceptance happen on even cycles, FPU writeback and TCB-manager
//! dispatch on odd cycles — one event and one dispatch per two cycles,
//! i.e. 125 M events/s per FPC at 250 MHz.

use crate::event::{FlowEvent, TxRequest};
use crate::fpu::{EventView, Fpu, FpuOutcome, FpuResult};
use f4t_mem::Cam;
use f4t_sim::check::{InvariantChecker, PortTracker, ViolationKind};
use f4t_sim::clock::odd_cycles_in;
use f4t_sim::{Fifo, FlightStage, FlowSet, Probe};
use f4t_tcp::{CongestionControl, FlowId, SeqNum, Tcb};
use std::sync::Arc;

/// How the TCB manager walks the slot array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanPolicy {
    /// Jump to the next slot with pending work (a hardware priority
    /// encoder); same-flow spacing is still guaranteed by the in-flight
    /// guard. Default.
    #[default]
    SkipIdle,
    /// Visit every slot in fixed order whether or not it has work —
    /// the paper's plainest description, with a hard round period of
    /// `2 × slots` cycles.
    FullIteration,
}

/// FtTurbo struct-of-arrays slot table: the dual memory's TCB half and
/// event half plus the scheduling metadata live in parallel arrays
/// indexed by slot, with the per-slot flags held as dense bitsets
/// ([`FlowSet`] keyed by slot index). The dispatch pick, the coldest-flow
/// answer, the FtVerify audit and the watchdog residency pass touch only
/// the word-packed flags and the one array they need, instead of striding
/// over a ~200-byte AoS `Slot` per probe.
struct SlotTable {
    tcbs: Vec<Tcb>,
    evs: Vec<EventView>,
    occupied: FlowSet,
    in_fpu: FlowSet,
    /// Column copy of each slot's `Tcb::evict` flag (set by the scheduler,
    /// honoured by the evict checker), so the coldest-flow scan masks on
    /// bits instead of loading TCBs.
    evict: FlowSet,
    /// Column copy of each slot's `Tcb::last_active_ns`: the coldest-flow
    /// scan reads this 8 B/slot array, not the TCB table.
    last_active: Vec<u64>,
    /// Slots whose event-table entry has at least one valid bit set; its
    /// `len()` is the FtScope valid-bit utilization gauge.
    pending: FlowSet,
    /// Last cycle each slot was installed or dispatched; the FtVerify
    /// audit uses it to bound how long a valid event entry may sit
    /// without being scheduled (valid-bit leak detection).
    last_progress: Vec<u64>,
    /// Cycle each slot's event-table entry last turned valid (pending
    /// false→true); the FtFlight `event_accum` span runs from here to the
    /// FPU issue that consumes the accumulated view.
    pending_since: Vec<u64>,
}

impl SlotTable {
    fn new(slots: usize) -> SlotTable {
        SlotTable {
            tcbs: vec![Tcb::new(FlowId(u32::MAX)); slots],
            evs: vec![EventView::default(); slots],
            occupied: FlowSet::with_capacity(slots),
            in_fpu: FlowSet::with_capacity(slots),
            evict: FlowSet::with_capacity(slots),
            last_active: vec![0; slots],
            pending: FlowSet::with_capacity(slots),
            last_progress: vec![0; slots],
            pending_since: vec![0; slots],
        }
    }

    fn len(&self) -> usize {
        self.tcbs.len()
    }

    /// Occupied, has a valid event entry, and its TCB is not in flight.
    #[inline]
    fn dispatchable(&self, idx: usize) -> bool {
        let i = idx as u32;
        self.occupied.contains(i) && self.pending.contains(i) && !self.in_fpu.contains(i)
    }

    /// The TCB manager's round-robin pick: the first dispatchable slot at
    /// or after `from` in circular slot order — one priority encode over
    /// `occupied & pending & !in_fpu`, as in the hardware (§4.2.3).
    #[inline]
    fn next_dispatchable(&self, from: usize) -> Option<usize> {
        self.occupied.first_in_and_not(&self.pending, &self.in_fpu, from as u32).map(|i| i as usize)
    }

    /// Installs a swapped-in TCB in a slot, keeping the evict / last-active
    /// columns in step with the fields they mirror.
    #[inline]
    fn store_tcb(&mut self, idx: usize, tcb: Tcb) {
        self.tcbs[idx] = tcb;
        self.last_active[idx] = tcb.last_active_ns;
        self.set_evict(idx, tcb.evict);
    }

    /// Sets a slot's evict flag (TCB field and column together).
    #[inline]
    fn set_evict(&mut self, idx: usize, evict: bool) {
        self.tcbs[idx].evict = evict;
        if evict {
            self.evict.insert(idx as u32);
        } else {
            self.evict.remove(idx as u32);
        }
    }

    /// Stamps a slot's last activity (TCB field and column together).
    #[inline]
    fn touch(&mut self, idx: usize, now_ns: u64) {
        self.tcbs[idx].last_active_ns = now_ns;
        self.last_active[idx] = now_ns;
    }

    /// Sets a slot's valid-entry flag, stamping `pending_since` on the
    /// false→true transition.
    #[inline]
    fn set_pending(&mut self, idx: usize, pending: bool, cycle: u64) {
        if pending {
            if self.pending.insert(idx as u32) {
                self.pending_since[idx] = cycle;
            }
        } else {
            self.pending.remove(idx as u32);
        }
    }
}

/// What one FPU write-back reports to the engine: the pass's outcome
/// (host notifications) and the four fields of the written-back TCB the
/// engine reads (the journal's send pointers and the timer deadlines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteBack {
    /// The flow whose TCB was processed.
    pub flow: FlowId,
    /// Side effects of the pass.
    pub outcome: FpuOutcome,
    /// `Tcb::snd_una` after the pass.
    pub snd_una: SeqNum,
    /// `Tcb::snd_nxt` after the pass.
    pub snd_nxt: SeqNum,
    /// `Tcb::rto_deadline` after the pass.
    pub rto_deadline: Option<u64>,
    /// `Tcb::probe_deadline` after the pass.
    pub probe_deadline: Option<u64>,
}

/// Everything an FPC produced in one cycle, drained by the engine.
#[derive(Debug, Default)]
pub struct FpcOutput {
    /// Transmit requests for the packet generator; the FPU pass writes
    /// its segments here directly.
    pub tx: Vec<TxRequest>,
    /// One report per FPU write-back.
    pub outcomes: Vec<WriteBack>,
    /// TCBs diverted by the evict checker (destined for DRAM or another
    /// FPC, per the scheduler's migration in progress).
    pub evicted: Vec<Tcb>,
    /// Flows whose swap-in completed this cycle (the engine flips their
    /// location-LUT entry from Moving to this FPC).
    pub installed: Vec<FlowId>,
}

impl FpcOutput {
    /// Whether the FPC produced nothing since the last drain.
    pub(crate) fn is_empty(&self) -> bool {
        self.tx.is_empty()
            && self.outcomes.is_empty()
            && self.evicted.is_empty()
            && self.installed.is_empty()
    }
}

/// A flow processing core.
pub struct Fpc {
    id: u8,
    table: SlotTable,
    cam: Cam,
    fpu: Fpu,
    rr_ptr: usize,
    scan: ScanPolicy,
    /// Events routed here by the scheduler (paper: events of a flow are
    /// only routed while the location LUT says this FPC owns it), each
    /// with the engine cycle it was routed: the wait from there to the
    /// event handler is the SRAM-resident TCB fetch path (FtFlight
    /// `tcb_fetch_sram`).
    input_events: Fifo<(FlowEvent, u64)>,
    /// Swap-in TCBs with their accumulated event-table half (dedicated
    /// write port: one accept per two cycles).
    input_tcbs: Fifo<(Tcb, EventView)>,
    events_handled: u64,
    dispatches: u64,
    stale_events: u64,
    /// Events accumulated while the slot's TCB was in flight in the FPU —
    /// each one would have stalled a w-RMW design (paper §4.2.1).
    rmw_hazard_events: u64,
    /// Cycles the event handler spent stalled waiting for an in-flight
    /// TCB to return before it could read-modify-write. Structurally zero
    /// in F4T: event accumulation never waits. The counter exists so the
    /// paper's stall-free claim is *checkable*, not assumed.
    rmw_stall_cycles: u64,
    /// Odd (dispatch) cycles with no pending work anywhere.
    stall_fifo_empty: u64,
    /// Odd cycles where pending work existed but every candidate slot was
    /// blocked on its TCB being in flight (TCB-miss wait).
    stall_tcb_wait: u64,
    /// Odd cycles where downstream TX/evict backpressure closed the gate.
    stall_backpressure: u64,
    /// Per-cycle sums for occupancy gauges (divide by `ticks`).
    occupied_sum: u64,
    valid_sum: u64,
    fpu_depth_sum: u64,
    ticks: u64,
    /// FtVerify per-cycle port accounting for the dual memory; only
    /// consulted when an [`InvariantChecker`] is attached to the tick.
    tcb_ports: PortTracker,
    ev_ports: PortTracker,
    /// Cycles that ran the full tick rather than the quiet path.
    #[cfg(test)]
    pub(crate) full_ticks: u64,
}

impl std::fmt::Debug for Fpc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fpc")
            .field("id", &self.id)
            .field("flows", &self.cam.len())
            .field("events_handled", &self.events_handled)
            .finish_non_exhaustive()
    }
}

impl Fpc {
    /// Depth of the event input FIFO; when full the scheduler sees
    /// backpressure and triggers load-balancing migration (§4.4.2).
    pub const INPUT_FIFO_DEPTH: usize = 32;

    /// Creates an FPC with `slots` TCB slots running `cc`.
    pub fn new(
        id: u8,
        slots: usize,
        cc: Arc<dyn CongestionControl>,
        fpu_latency_override: Option<u32>,
        mss: u32,
        scan: ScanPolicy,
    ) -> Fpc {
        Fpc {
            id,
            table: SlotTable::new(slots),
            cam: Cam::new(slots),
            fpu: Fpu::new(cc, fpu_latency_override, mss),
            rr_ptr: 0,
            scan,
            input_events: Fifo::new(Self::INPUT_FIFO_DEPTH),
            input_tcbs: Fifo::new(4),
            events_handled: 0,
            dispatches: 0,
            stale_events: 0,
            rmw_hazard_events: 0,
            rmw_stall_cycles: 0,
            stall_fifo_empty: 0,
            stall_tcb_wait: 0,
            stall_backpressure: 0,
            occupied_sum: 0,
            valid_sum: 0,
            fpu_depth_sum: 0,
            ticks: 0,
            tcb_ports: PortTracker::new(format!("fpc{id}.tcb_table"), 2),
            ev_ports: PortTracker::new(format!("fpc{id}.event_table"), 2),
            #[cfg(test)]
            full_ticks: 0,
        }
    }

    /// This FPC's id.
    pub fn id(&self) -> u8 {
        self.id
    }

    /// Number of resident flows.
    pub fn flow_count(&self) -> usize {
        self.cam.len()
    }

    /// Free TCB slots.
    pub fn free_slots(&self) -> usize {
        self.cam.capacity() - self.cam.len()
    }

    /// Whether the event input FIFO is full (scheduler backpressure).
    pub fn input_full(&self) -> bool {
        self.input_events.is_full()
    }

    /// Current event input backlog.
    pub fn input_backlog(&self) -> usize {
        self.input_events.len()
    }

    /// Instantaneous valid event-table entries (FtPulse occupancy gauge;
    /// the per-cycle average lives in `event_table.valid_entries_avg`).
    pub fn event_table_valid(&self) -> usize {
        self.table.pending.len()
    }

    /// Instantaneous FPU pipeline slots in use (FtPulse occupancy gauge).
    pub fn fpu_depth(&self) -> usize {
        self.fpu.depth_used()
    }

    /// Whether the swap-in port can accept a TCB.
    pub fn can_accept_tcb(&self) -> bool {
        !self.input_tcbs.is_full() && self.free_slots() > self.input_tcbs.len()
    }

    /// Total events handled into the event table.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Total TCB dispatches to the FPU.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Events dropped because their flow had already closed (strays).
    pub fn stale_events(&self) -> u64 {
        self.stale_events
    }

    /// Events that would have stalled a w-RMW design (the flow's TCB was
    /// in flight in the FPU when the event was accumulated).
    pub fn rmw_hazard_events(&self) -> u64 {
        self.rmw_hazard_events
    }

    /// Cycles the event handler stalled waiting for an in-flight TCB.
    /// Structurally zero in F4T — exposed so the stall-free claim is
    /// asserted by tests instead of assumed.
    pub fn rmw_stall_cycles(&self) -> u64 {
        self.rmw_stall_cycles
    }

    /// Dispatch-stall cycle counts, in taxonomy order:
    /// `(fifo_empty, tcb_wait, evict_backpressure)`.
    pub fn stall_cycles(&self) -> (u64, u64, u64) {
        (self.stall_fifo_empty, self.stall_tcb_wait, self.stall_backpressure)
    }

    /// Reports this FPC's counters and gauges under `prefix` (e.g.
    /// `engine.fpc0`).
    pub fn collect(&self, prefix: &str, reg: &mut f4t_sim::telemetry::MetricsRegistry) {
        reg.counter(&format!("{prefix}.events_handled"), self.events_handled);
        reg.counter(&format!("{prefix}.dispatches"), self.dispatches);
        reg.counter(&format!("{prefix}.stale_events"), self.stale_events);
        reg.counter(&format!("{prefix}.stall.fifo_empty"), self.stall_fifo_empty);
        reg.counter(&format!("{prefix}.stall.tcb_wait"), self.stall_tcb_wait);
        reg.counter(&format!("{prefix}.stall.evict_backpressure"), self.stall_backpressure);
        reg.counter(&format!("{prefix}.rmw.hazard_events"), self.rmw_hazard_events);
        reg.counter(&format!("{prefix}.rmw.stall_cycles"), self.rmw_stall_cycles);
        let ticks = self.ticks.max(1) as f64;
        reg.gauge(
            &format!("{prefix}.event_table.occupancy_avg"),
            self.occupied_sum as f64 / ticks,
        );
        reg.gauge(
            &format!("{prefix}.event_table.valid_entries_avg"),
            self.valid_sum as f64 / ticks,
        );
        reg.gauge(&format!("{prefix}.fpu.occupancy_avg"), self.fpu_depth_sum as f64 / ticks);
        reg.counter(&format!("{prefix}.fpu.processed"), self.fpu.processed());
        self.input_events.collect(&format!("{prefix}.input_fifo"), reg);
        self.input_tcbs.collect(&format!("{prefix}.swapin_fifo"), reg);
    }

    /// Offers an event; returns `false` under backpressure.
    pub fn push_event(&mut self, ev: FlowEvent) -> bool {
        self.push_event_at(ev, 0)
    }

    /// [`push_event`](Self::push_event) carrying the engine cycle of
    /// routing, recorded as the FtFlight `tcb_fetch_sram` span start.
    pub fn push_event_at(&mut self, ev: FlowEvent, cycle: u64) -> bool {
        self.input_events.push((ev, cycle)).is_ok()
    }

    /// Offers a swap-in TCB with its accumulated event half; returns
    /// `false` when the port is busy. Events accumulated while the flow
    /// lived in DRAM ride along so nothing is lost in migration.
    pub fn push_tcb(&mut self, tcb: Tcb, ev: EventView) -> bool {
        if !self.can_accept_tcb() {
            return false;
        }
        self.input_tcbs.push((tcb, ev)).is_ok()
    }

    /// Marks `flow` for eviction (scheduler step ③ of Fig. 6): sets the
    /// TCB's evict flag; the evict checker diverts it after its next FPU
    /// pass. Returns `false` if the flow is not resident.
    pub fn request_evict(&mut self, flow: FlowId) -> bool {
        let Some(slot_idx) = self.cam.lookup(flow) else { return false };
        self.table.set_evict(slot_idx, true);
        let since = self.table.last_progress[slot_idx];
        self.table.set_pending(slot_idx, true, since); // force a prompt FPU pass
        true
    }

    /// The least-recently-active resident flow not already being evicted
    /// (the "coldest" flow the FPC answers the scheduler with, Fig. 6 ②).
    pub fn coldest_flow(&self) -> Option<FlowId> {
        let t = &self.table;
        t.occupied
            .iter_without(&t.evict, &t.in_fpu)
            // f4tlint: allow(tick_path_scan): the modelled FPC compares its
            // resident flows' timestamps to answer the scheduler (Fig. 6 ②);
            // the candidate mask is combined a word at a time (no candidate:
            // two ANDs per word) and only real candidates read the 8 B/slot
            // last-active column. Ties go to the lowest slot.
            .min_by_key(|&i| t.last_active[i as usize])
            .map(|i| t.tcbs[i as usize].flow)
    }

    /// Read-only view of a resident flow's TCB (diagnostics, Fig. 14
    /// congestion-window traces).
    pub fn peek_tcb(&self, flow: FlowId) -> Option<&Tcb> {
        self.cam.lookup(flow).map(|slot| &self.table.tcbs[slot])
    }

    /// Event-handler write: accumulate `event` into the event table.
    fn handle_event(&mut self, event: FlowEvent, now_ns: u64, cycle: u64, probe: &mut Probe) {
        if let Some(chk) = probe.check() {
            // Event accumulation is the even phase of the two-cycle port
            // schedule (§4.2.3); running it on a dispatch cycle would
            // collide with the TCB manager's event-table ports.
            if !cycle.is_multiple_of(2) {
                chk.report(
                    cycle,
                    ViolationKind::ScheduleParity,
                    format!("fpc{}", self.id),
                    "event accumulation on an odd (dispatch) cycle".into(),
                );
            }
            // One event-table write per handled event. The dup-ACK
            // increment is the paper's only single-cycle RMW and lives in
            // a dedicated counter array, not a second BRAM port (§4.2.1).
            self.ev_ports.access(cycle, 1, chk);
        }
        let Some(slot_idx) = self.cam.lookup(event.flow) else {
            // The moving-state protocol prevents migration races, but a
            // connection that just CLOSED frees its slot with events
            // possibly still in our input FIFO (e.g. a retransmitted FIN
            // behind the ACK that completed the close). Real stacks
            // answer such strays with an RST; we drop and count them.
            self.stale_events += 1;
            return;
        };
        if self.table.in_fpu.contains(slot_idx as u32) {
            // A w-RMW design would stall here until the in-flight TCB
            // returned; F4T accumulates into the event table and moves on.
            self.rmw_hazard_events += 1;
        }
        self.table.set_pending(slot_idx, true, cycle);
        self.table.touch(slot_idx, now_ns);
        self.events_handled += 1;
        // SoA split borrow: the event-table row is written against a
        // read-only view of the TCB-table row.
        self.table.evs[slot_idx].accumulate(&self.table.tcbs[slot_idx], event.kind);
    }

    /// TCB-manager dispatch: pick the next slot per the scan policy,
    /// construct the merged TCB, clear valid bits and issue to the FPU.
    /// `gate_open` is false when the downstream TX path is exerting
    /// backpressure (dispatch throttles rather than stalls mid-pipeline).
    fn dispatch(&mut self, now_cycle: u64, gate_open: bool, probe: &mut Probe) {
        if !gate_open {
            self.stall_backpressure += 1;
            return;
        }
        let n = self.table.len();
        let issued = match self.scan {
            ScanPolicy::FullIteration => {
                let idx = self.rr_ptr;
                self.rr_ptr = (self.rr_ptr + 1) % n;
                self.try_issue(idx, now_cycle, probe)
            }
            ScanPolicy::SkipIdle => match self.table.next_dispatchable(self.rr_ptr) {
                Some(idx) => {
                    self.rr_ptr = (idx + 1) % n;
                    self.try_issue(idx, now_cycle, probe)
                }
                None => false,
            },
        };
        if !issued {
            // Classify the bubble: was there simply nothing to do, or was
            // pending work blocked on a TCB still in the FPU pipeline?
            if self.table.pending.is_empty() && self.input_events.is_empty() {
                self.stall_fifo_empty += 1;
            } else {
                self.stall_tcb_wait += 1;
            }
        }
    }

    fn try_issue(&mut self, idx: usize, now_cycle: u64, probe: &mut Probe) -> bool {
        if !self.table.dispatchable(idx) {
            return false;
        }
        if let Some(chk) = probe.check() {
            // Dispatch is the odd phase of the two-cycle schedule.
            if now_cycle.is_multiple_of(2) {
                chk.report(
                    now_cycle,
                    ViolationKind::ScheduleParity,
                    format!("fpc{}", self.id),
                    "TCB dispatch on an even (event) cycle".into(),
                );
            }
            // Construct-read on the TCB table; construct-read plus
            // valid-bit clear on the event table.
            self.tcb_ports.access(now_cycle, 1, chk);
            self.ev_ports.access(now_cycle, 2, chk);
            // Structural stall-free check: the in-FPU guard above must
            // agree with the pipeline's actual contents, otherwise a TCB
            // is read-modify-written while an older copy is in flight.
            if self.fpu.in_flight(self.table.tcbs[idx].flow) {
                chk.report(
                    now_cycle,
                    ViolationKind::RmwHazard,
                    format!("fpc{}", self.id),
                    format!(
                        "flow {} dispatched while already in the FPU pipeline",
                        self.table.tcbs[idx].flow
                    ),
                );
            }
        }
        // The accumulation wait: valid bits first set to the merged view
        // being consumed by this FPU issue.
        probe.span(
            FlightStage::EventAccum,
            self.table.tcbs[idx].flow.0,
            now_cycle.saturating_sub(self.table.pending_since[idx]),
        );
        // Construct the merged TCB: event-table values with valid bits set
        // override; dup-ACK count rides in the EventView (its valid bit is
        // NOT cleared at dispatch — see the event handler above).
        let merged_ev = self.table.evs[idx];
        // Clear valid bits (§4.2.3 step ④), except the dup-ACK counter
        // which must keep accumulating against the merged view while the
        // FPU is in flight.
        self.table.evs[idx] = EventView { dup_acks: merged_ev.dup_acks, ..EventView::default() };
        self.table.set_pending(idx, false, now_cycle);
        self.table.in_fpu.insert(idx as u32);
        self.table.last_progress[idx] = now_cycle;
        self.dispatches += 1;
        self.fpu.issue(idx, self.table.tcbs[idx].flow, merged_ev, now_cycle);
        true
    }

    /// Advances one 250 MHz cycle.
    ///
    /// `tx_gate_open` reflects packet-generator FIFO space; when false the
    /// TCB manager pauses dispatch (events keep accumulating — this is the
    /// mechanism behind the paper's observation that link backpressure
    /// grows the effective request size, §5.1).
    pub fn tick(&mut self, cycle: u64, now_ns: u64, tx_gate_open: bool, out: &mut FpcOutput) {
        self.tick_probed(cycle, now_ns, tx_gate_open, out, &mut Probe::detached());
    }

    /// [`Fpc::tick`] with the engine's [`Probe`]: the FtVerify checker
    /// (when `EngineConfig::check` is set) and the FtFlight recorder (when
    /// `EngineConfig::flight` is) see every port access, dispatch and FPU
    /// pass. A detached view is a single branch per call site —
    /// production runs pay nothing.
    ///
    /// Returns whether the full tick ran. A quiet FPC — no queued input,
    /// no valid event-table entry, no FPU result due at `cycle` — has
    /// nothing for the TCB manager to dispatch (§4.2.3), so it takes the
    /// O(1) path: [`skip_cycles`](Self::skip_cycles) for this one cycle,
    /// leaving `out` untouched.
    #[inline]
    pub fn tick_probed(
        &mut self,
        cycle: u64,
        now_ns: u64,
        tx_gate_open: bool,
        out: &mut FpcOutput,
        probe: &mut Probe,
    ) -> bool {
        if self.is_quiet(cycle) {
            self.skip_cycles(cycle, 1, tx_gate_open);
            return false;
        }
        self.tick_full(cycle, now_ns, tx_gate_open, out, probe);
        true
    }

    /// No queued input, no valid event-table entry and no FPU result due
    /// at `cycle`: a tick would only move the per-cycle counters.
    #[inline]
    fn is_quiet(&self, cycle: u64) -> bool {
        self.input_events.is_empty()
            && self.input_tcbs.is_empty()
            && self.table.pending.is_empty()
            && self.fpu.next_activity().is_none_or(|due| due > cycle)
    }

    /// One cycle of every module: FPU writeback, then the event handler
    /// and swap-in port (even cycles) or the TCB manager (odd cycles).
    /// Kept out of line so the quiet test and `skip_cycles` inline into
    /// the engine's FPC loop on their own.
    #[inline(never)]
    fn tick_full(
        &mut self,
        cycle: u64,
        now_ns: u64,
        tx_gate_open: bool,
        out: &mut FpcOutput,
        probe: &mut Probe,
    ) {
        #[cfg(test)]
        {
            self.full_ticks += 1;
        }
        // FtScope occupancy gauges: three u64 adds per cycle.
        self.ticks += 1;
        self.occupied_sum += self.cam.len() as u64;
        self.valid_sum += self.table.pending.len() as u64;
        self.fpu_depth_sum += self.fpu.depth_used() as u64;
        // FPU advances every cycle; a completing job runs its pass on the
        // slot's TCB in place and writes its segments into `out.tx`. Until
        // this cycle every reader of the slot saw the dispatched TCB.
        if let Some(result) = self.fpu.tick(cycle, now_ns, &mut self.table.tcbs, &mut out.tx) {
            self.write_back(result, cycle, out, probe);
        }

        if cycle.is_multiple_of(2) {
            // Even cycle: event handling + swap-in acceptance.
            if let Some((ev, routed_at)) = self.input_events.pop() {
                probe.span(FlightStage::TcbFetchSram, ev.flow.0, cycle.saturating_sub(routed_at));
                self.handle_event(ev, now_ns, cycle, probe);
            }
            if let Some((tcb, ev)) = self.input_tcbs.pop() {
                let flow = tcb.flow;
                if let Some(c) = probe.check() {
                    // Swap-in writes both halves of the dual memory.
                    self.tcb_ports.access(cycle, 1, c);
                    self.ev_ports.access(cycle, 1, c);
                }
                if let Some(slot_idx) = self.cam.insert(flow) {
                    let pending = tcb.can_send() || ev.any();
                    self.table.store_tcb(slot_idx, tcb);
                    self.table.evs[slot_idx] = ev;
                    self.table.set_pending(slot_idx, pending, cycle);
                    self.table.in_fpu.remove(slot_idx as u32);
                    self.table.occupied.insert(slot_idx as u32);
                    self.table.last_progress[slot_idx] = cycle;
                    out.installed.push(flow);
                } else {
                    if let Some(c) = probe.check() {
                        c.report(
                            cycle,
                            ViolationKind::MigrationRace,
                            format!("fpc{}", self.id),
                            format!("swap-in of flow {flow} with no free slot"),
                        );
                    }
                    debug_assert!(false, "swap-in with no free slot at FPC {}", self.id);
                }
            }
        } else {
            // Odd cycle: TCB-manager dispatch (FPU writeback handled above).
            self.dispatch(cycle, tx_gate_open, probe);
        }
    }

    /// The evict checker at FPU write-back: frees the slot of a closed
    /// connection, diverts a TCB whose evict flag is set (the flag only
    /// turns on while the TCB is in flight, so the slot's flag is the
    /// request), and otherwise keeps the processed TCB in its slot.
    fn write_back(
        &mut self,
        result: FpuResult,
        cycle: u64,
        out: &mut FpcOutput,
        probe: &mut Probe,
    ) {
        let idx = result.slot;
        let row = &self.table.tcbs[idx];
        let (flow, evict) = (row.flow, row.evict);
        self.table.last_active[idx] = row.last_active_ns;
        let report = WriteBack {
            flow,
            outcome: result.outcome,
            snd_una: row.snd_una,
            snd_nxt: row.snd_nxt,
            rto_deadline: row.rto_deadline,
            probe_deadline: row.probe_deadline,
        };
        debug_assert_eq!(self.cam.lookup(flow), Some(idx), "FPU job's slot does not hold {flow}");
        probe.span(FlightStage::FpuProcess, flow.0, cycle.saturating_sub(result.issued_cycle));
        if let Some(c) = probe.check() {
            // FPU write-back port on the TCB table.
            self.tcb_ports.access(cycle, 1, c);
            if !self.table.in_fpu.contains(idx as u32) {
                // The pipeline wrote back a slot the bookkeeping no longer
                // considers in flight: two passes overlapped on one TCB.
                c.report(
                    cycle,
                    ViolationKind::RmwHazard,
                    format!("fpc{}", self.id),
                    format!("FPU write-back for flow {flow} whose slot is not in-FPU"),
                );
            }
        }
        self.table.in_fpu.remove(idx as u32);
        if result.outcome.closed {
            // Connection fully closed: free the slot and CAM entry; the
            // engine tears down the flow-table and location-LUT state from
            // the Closed notification.
            self.table.occupied.remove(idx as u32);
            self.table.evs[idx] = EventView::default();
            self.table.set_evict(idx, false);
            self.table.set_pending(idx, false, cycle);
            self.cam.remove(flow);
        } else if evict
            && !self.table.evs[idx].any_except_dup_acks()
            && !self.table.pending.contains(idx as u32)
        {
            // Divert only once no unprocessed events remain ("TCBs are
            // always processed before they are evicted").
            self.table.occupied.remove(idx as u32);
            self.table.evs[idx] = EventView::default();
            self.table.set_evict(idx, false);
            self.cam.remove(flow);
            out.evicted.push(self.table.tcbs[idx]);
        } else if evict || result.outcome.more_work {
            self.table.set_pending(idx, true, cycle);
        }
        out.outcomes.push(report);
    }

    /// Activity horizon: the earliest cycle at which ticking this FPC can
    /// change observable state, beyond the per-cycle accumulators that
    /// [`skip_cycles`](Self::skip_cycles) replays. `Some(cycle)` means
    /// there is work right now (queued input, or a dispatchable slot);
    /// a later cycle means the only scheduled event is the FPU head
    /// completing; `None` means idle until new input arrives.
    pub fn next_activity(&self, cycle: u64) -> Option<u64> {
        if !self.input_events.is_empty() || !self.input_tcbs.is_empty() {
            return Some(cycle);
        }
        // A pending slot whose TCB is not in flight dispatches on the
        // next odd cycle; treat it as immediate work. With no valid entry
        // (a quiet FPC) the answer is the FPU head, without the priority
        // encode.
        if !self.table.pending.is_empty() && self.table.next_dispatchable(0).is_some() {
            return Some(cycle);
        }
        self.fpu.next_activity().map(|c| c.max(cycle))
    }

    /// The idle routine: `n` cycles from `from_cycle` in which nothing
    /// but the per-cycle counters moves, with the TX gate held at
    /// `tx_gate_open`. The caller guarantees [`next_activity`]
    /// (Self::next_activity) stays past the window — fast-forward for a
    /// whole window, [`tick_probed`](Self::tick_probed)'s quiet path for
    /// one cycle — so ticking would only have accumulated occupancy
    /// gauges, spent one dispatch bubble per odd cycle, and (under
    /// FullIteration, with the gate open) walked the scan pointer. This
    /// replays exactly that, keeping every counter bit-identical to the
    /// tick-by-tick run.
    #[inline]
    pub fn skip_cycles(&mut self, from_cycle: u64, n: u64, tx_gate_open: bool) {
        self.ticks += n;
        self.occupied_sum += self.cam.len() as u64 * n;
        self.valid_sum += self.table.pending.len() as u64 * n;
        self.fpu_depth_sum += self.fpu.depth_used() as u64 * n;
        let odd = odd_cycles_in(from_cycle, n);
        // Same bubble taxonomy as `dispatch`: a closed gate stalls on
        // backpressure; with no dispatchable slot, pending work
        // (necessarily in flight here) classifies the odd cycles as
        // TCB-wait, otherwise the FIFOs are simply empty.
        if !tx_gate_open {
            self.stall_backpressure += odd;
            return;
        }
        if self.table.pending.is_empty() && self.input_events.is_empty() {
            self.stall_fifo_empty += odd;
        } else {
            self.stall_tcb_wait += odd;
        }
        if self.scan == ScanPolicy::FullIteration {
            let slots = self.table.len() as u64;
            self.rr_ptr = ((self.rr_ptr as u64 + odd % slots) % slots) as usize;
        }
    }

    /// FtVerify periodic audit: FIFO conservation, CAM/slot-array
    /// agreement and valid-bit leak detection. Called by the engine every
    /// audit interval while checking is enabled.
    pub fn audit(&self, cycle: u64, chk: &mut InvariantChecker) {
        chk.check_fifo(cycle, &format!("fpc{}.input_fifo", self.id), &self.input_events);
        chk.check_fifo(cycle, &format!("fpc{}.swapin_fifo", self.id), &self.input_tcbs);
        let occupied = self.table.occupied.len();
        if occupied != self.cam.len() {
            chk.report(
                cycle,
                ViolationKind::MigrationRace,
                format!("fpc{}", self.id),
                format!(
                    "CAM holds {} flows but {} slots are occupied",
                    self.cam.len(),
                    occupied
                ),
            );
        }
        // Walk only the valid-entry bitset (ascending slot order, the
        // same order the AoS scan reported in).
        for i in self.table.pending.iter() {
            if self.table.dispatchable(i as usize) {
                let idle = cycle.saturating_sub(self.table.last_progress[i as usize]);
                if idle > chk.leak_bound() {
                    chk.report(
                        cycle,
                        ViolationKind::ValidBitLeak,
                        format!("fpc{}", self.id),
                        format!(
                            "flow {} has a valid event-table entry undispatched for {idle} cycles",
                            self.table.tcbs[i as usize].flow
                        ),
                    );
                }
            }
        }
    }

    /// Flows currently resident in this FPC's TCB table (FtVerify audit
    /// support: residency is cross-checked against the location LUT and
    /// the DRAM store).
    pub fn resident_flows(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.table.occupied.iter().map(|i| self.table.tcbs[i as usize].flow)
    }

    /// TCBs currently resident in this FPC (watchdog progress scan: one
    /// pass over the occupancy bitset instead of a per-flow `peek_tcb`
    /// search).
    pub fn resident_tcbs(&self) -> impl Iterator<Item = &Tcb> {
        self.table.occupied.iter().map(|i| &self.table.tcbs[i as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, TimeoutKind};
    use f4t_tcp::{CcAlgorithm, FourTuple, SeqNum, TcpFlags, MSS};

    fn fpc(slots: usize) -> Fpc {
        Fpc::new(0, slots, Arc::new(f4t_tcp::NewReno), Some(4), MSS, ScanPolicy::SkipIdle)
    }

    fn established_tcb(id: u32) -> Tcb {
        let mut t = Tcb::established(FlowId(id), FourTuple::default(), SeqNum(1000));
        CcAlgorithm::NewReno.instance().init(&mut t);
        t
    }

    fn run_cycles(fpc: &mut Fpc, from: u64, n: u64, out: &mut FpcOutput) {
        for c in from..from + n {
            fpc.tick(c, c * 4, true, out);
        }
    }

    #[test]
    fn swap_in_then_event_then_data_out() {
        let mut f = fpc(8);
        assert!(f.push_tcb(established_tcb(1), EventView::default()));
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 4, &mut out);
        assert_eq!(f.flow_count(), 1);

        // Send request for 500 B.
        let ev = FlowEvent::new(
            FlowId(1),
            EventKind::SendReq { req: SeqNum(1000).add(500) },
            0,
        );
        assert!(f.push_event(ev));
        run_cycles(&mut f, 4, 20, &mut out);
        assert_eq!(out.tx.len(), 1);
        assert_eq!(out.tx[0].len, 500);
        assert_eq!(out.tx[0].seq, SeqNum(1000));
        assert_eq!(f.events_handled(), 1);
        assert!(f.dispatches() >= 1);
    }

    #[test]
    fn events_accumulate_between_dispatches() {
        // Many small send requests arriving while the FPU is busy are
        // absorbed into ONE transmission — the core stall-free claim.
        let mut f = Fpc::new(0, 8, Arc::new(f4t_tcp::NewReno), Some(60), MSS, ScanPolicy::SkipIdle);
        f.push_tcb(established_tcb(1), EventView::default());
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 4, &mut out);
        // Queue 8 requests of 100 B each (pointers 1100, 1200, ... 1800).
        for i in 1..=8u32 {
            let ev = FlowEvent::new(
                FlowId(1),
                EventKind::SendReq { req: SeqNum(1000).add(i * 100) },
                0,
            );
            assert!(f.push_event(ev));
        }
        run_cycles(&mut f, 4, 200, &mut out);
        let total: u32 = out.tx.iter().map(|t| t.len).sum();
        assert_eq!(total, 800, "all accumulated data sent");
        assert!(
            out.tx.len() <= 2,
            "requests accumulated into at most two bursts, got {}",
            out.tx.len()
        );
    }

    #[test]
    fn dispatch_rate_is_one_per_two_cycles() {
        // With every slot occupied and permanently pending, dispatches
        // happen every other cycle: 125 M/s at 250 MHz.
        let mut f = fpc(4);
        for i in 0..4 {
            let mut t = established_tcb(i);
            t.req = t.req.add(100_000_000); // endless data
            t.snd_wnd = u32::MAX / 2;
            t.cwnd = u32::MAX / 2;
            f.push_tcb(t, EventView::default());
        }
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 8, &mut out); // swap-ins complete
        let d0 = f.dispatches();
        run_cycles(&mut f, 8, 200, &mut out);
        let dispatched = f.dispatches() - d0;
        assert!((95..=100).contains(&dispatched), "dispatched {dispatched} in 200 cycles");
    }

    #[test]
    fn same_flow_never_double_issued() {
        let mut f = Fpc::new(0, 4, Arc::new(f4t_tcp::NewReno), Some(50), MSS, ScanPolicy::SkipIdle);
        let mut t = established_tcb(1);
        t.req = t.req.add(1_000_000);
        f.push_tcb(t, EventView::default());
        let mut out = FpcOutput::default();
        // The flow has endless more_work; with a 50-cycle FPU it must not
        // be re-issued while in flight.
        for c in 0..400u64 {
            f.tick(c, c * 4, true, &mut out);
            assert!(f.fpu.depth_used() <= 1, "flow double-issued at cycle {c}");
        }
    }

    #[test]
    fn dup_ack_counter_increments_in_place() {
        let mut f = fpc(4);
        let mut t = established_tcb(1);
        t.snd_nxt = t.snd_una.add(20 * MSS); // data in flight
        t.req = t.snd_nxt;
        f.push_tcb(t, EventView::default());
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 4, &mut out);
        let dup = |n: u64| {
            FlowEvent::new(
                FlowId(1),
                EventKind::RxPacket {
                    ack: SeqNum(1000),
                    rcv_nxt: SeqNum(1000),
                    wnd: f4t_tcp::TCP_BUFFER,
                    flags: TcpFlags::ACK,
                    had_payload: false,
                    needs_ack: false,
                    in_order: true,
                    ts_val: 0,
                    ts_ecr: 0,
                },
                n,
            )
        };
        for i in 0..3 {
            f.push_event(dup(i));
        }
        run_cycles(&mut f, 4, 60, &mut out);
        // Three duplicates triggered fast retransmit.
        assert!(out.tx.iter().any(|t| t.retransmit), "fast retransmit fired");
    }

    #[test]
    fn evict_diverts_after_processing() {
        let mut f = fpc(4);
        f.push_tcb(established_tcb(7), EventView::default());
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 4, &mut out);
        assert!(f.request_evict(FlowId(7)));
        run_cycles(&mut f, 4, 40, &mut out);
        assert_eq!(out.evicted.len(), 1);
        assert_eq!(out.evicted[0].flow, FlowId(7));
        assert!(!out.evicted[0].evict, "flag cleared on the way out");
        assert_eq!(f.flow_count(), 0, "slot and CAM entry freed");
        assert!(f.peek_tcb(FlowId(7)).is_none());
    }

    #[test]
    fn evict_waits_for_unprocessed_events() {
        // An event arriving after the evict request must be processed
        // before the TCB leaves (deadlock-avoidance rule, §4.3.2).
        let mut f = Fpc::new(0, 4, Arc::new(f4t_tcp::NewReno), Some(20), MSS, ScanPolicy::SkipIdle);
        f.push_tcb(established_tcb(7), EventView::default());
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 4, &mut out);
        f.request_evict(FlowId(7));
        // Event lands while the evict-pass is in the FPU pipeline.
        run_cycles(&mut f, 4, 10, &mut out);
        f.push_event(FlowEvent::new(
            FlowId(7),
            EventKind::SendReq { req: SeqNum(1000).add(300) },
            0,
        ));
        run_cycles(&mut f, 14, 120, &mut out);
        assert_eq!(out.evicted.len(), 1, "eventually evicted");
        let sent: u32 = out.tx.iter().map(|t| t.len).sum();
        assert_eq!(sent, 300, "the late event was processed, not lost");
    }

    #[test]
    fn coldest_flow_selection() {
        let mut f = fpc(8);
        for i in 0..3 {
            f.push_tcb(established_tcb(i), EventView::default());
        }
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 10, &mut out);
        // Touch flows 0 and 2 with events; flow 1 stays cold.
        for id in [0u32, 2] {
            f.push_event(FlowEvent::new(
                FlowId(id),
                EventKind::SendReq { req: SeqNum(1000).add(10) },
                0,
            ));
        }
        run_cycles(&mut f, 10, 20, &mut out);
        assert_eq!(f.coldest_flow(), Some(FlowId(1)));
    }

    #[test]
    fn coldest_flow_ties_go_to_the_lowest_slot() {
        let mut f = fpc(8);
        // Slots 0..4 in install order; flows 11, 12 and 13 share the
        // oldest stamp, flow 10 is younger.
        for (id, stamp) in [(10u32, 900u64), (11, 500), (12, 500), (13, 500)] {
            let mut t = established_tcb(id);
            t.last_active_ns = stamp;
            f.push_tcb(t, EventView::default());
        }
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 10, &mut out);
        assert_eq!(f.dispatches(), 0, "idle flows: stamps untouched");
        assert_eq!(f.coldest_flow(), Some(FlowId(11)), "slot 1 wins the three-way tie");
        // A flow already marked for eviction is skipped, ...
        assert!(f.request_evict(FlowId(11)));
        assert_eq!(f.coldest_flow(), Some(FlowId(12)));
        // ... and so is one whose TCB is in flight in the FPU.
        f.table.in_fpu.insert(2);
        assert_eq!(f.coldest_flow(), Some(FlowId(13)));
    }

    /// The coldest-flow scan as it read before the evict / last-active
    /// columns existed: straight off the TCB table.
    fn coldest_by_tcb_scan(f: &Fpc) -> Option<FlowId> {
        f.table
            .occupied
            .iter()
            .filter(|&i| !f.table.tcbs[i as usize].evict && !f.table.in_fpu.contains(i))
            .min_by_key(|&i| f.table.tcbs[i as usize].last_active_ns)
            .map(|i| f.table.tcbs[i as usize].flow)
    }

    #[test]
    fn coldest_flow_columns_track_the_tcb_fields() {
        use f4t_sim::SimRng;
        let mut rng = SimRng::new(0xC01D);
        let mut f = Fpc::new(0, 16, Arc::new(f4t_tcp::NewReno), Some(6), MSS, ScanPolicy::SkipIdle);
        let mut out = FpcOutput::default();
        let mut parked: Vec<Tcb> = (0..16).map(established_tcb).collect();
        let mut req = [0u32; 16];
        for c in 0..6_000u64 {
            // Re-install one parked (new or evicted) TCB when the port is free.
            if let Some(t) = parked.pop() {
                if !f.push_tcb(t, EventView::default()) {
                    parked.push(t);
                }
            }
            let id = rng.next_below(16) as usize;
            match rng.next_below(16) {
                0..=5 => {
                    req[id] += 1 + rng.next_below(400) as u32;
                    f.push_event(FlowEvent::new(
                        FlowId(id as u32),
                        EventKind::SendReq { req: SeqNum(1000).add(req[id]) },
                        c,
                    ));
                }
                6 => {
                    f.request_evict(FlowId(id as u32));
                }
                _ => {}
            }
            f.tick(c, c * 4, true, &mut out);
            parked.append(&mut out.evicted);
            assert_eq!(f.coldest_flow(), coldest_by_tcb_scan(&f), "cycle {c}");
        }
        assert!(f.dispatches() > 500, "FPU passes exercised: {}", f.dispatches());
    }

    /// The masked-out corners of the candidate set, on a table spanning
    /// three bitset words: every flow evict-marked or every TCB in flight
    /// → `None`; one survivor → that flow however warm; equal stamps →
    /// the lowest slot.
    #[test]
    fn coldest_flow_masked_out_and_single_survivor() {
        let slots = 130u32;
        let mut f = fpc(slots as usize);
        let mut out = FpcOutput::default();
        let mut c = 0;
        for id in 0..slots {
            let mut t = established_tcb(1000 + id);
            t.last_active_ns = 500;
            while !f.push_tcb(t, EventView::default()) {
                run_cycles(&mut f, c, 1, &mut out);
                c += 1;
            }
        }
        run_cycles(&mut f, c, 10, &mut out);
        assert_eq!(f.flow_count(), slots as usize);
        assert_eq!(f.coldest_flow(), Some(FlowId(1000)), "all tied: slot 0");
        assert_eq!(f.coldest_flow(), coldest_by_tcb_scan(&f));

        for slot in 0..slots {
            f.table.in_fpu.insert(slot);
        }
        assert_eq!(f.coldest_flow(), None, "every TCB in flight");
        f.table.in_fpu.remove(129);
        f.table.touch(129, 9_000);
        assert_eq!(f.coldest_flow(), Some(FlowId(1129)), "single survivor, last word");
        for slot in 0..slots {
            f.table.in_fpu.remove(slot);
        }

        for slot in 0..slots as usize {
            f.table.set_evict(slot, true);
        }
        assert_eq!(f.coldest_flow(), None, "every flow already marked");
        assert_eq!(f.coldest_flow(), coldest_by_tcb_scan(&f));
        f.table.set_evict(64, false);
        f.table.set_evict(70, false);
        assert_eq!(f.coldest_flow(), Some(FlowId(1064)), "two survivors tie: lower slot");
        assert_eq!(f.coldest_flow(), coldest_by_tcb_scan(&f));
        f.table.in_fpu.insert(64);
        assert_eq!(f.coldest_flow(), Some(FlowId(1070)));
    }

    /// The slot-by-slot circular walk the priority encode replaces.
    fn linear_pick(t: &SlotTable, rr_ptr: usize) -> Option<usize> {
        let n = t.len();
        (0..n).map(|off| (rr_ptr + off) % n).find(|&idx| t.dispatchable(idx))
    }

    #[test]
    fn ready_mask_pick_matches_linear_scan() {
        use f4t_sim::SimRng;
        let mut rng = SimRng::new(0xD15_BA7C);
        for slots in [1usize, 8, 63, 64, 65, 128, 200] {
            for round in 0..40u64 {
                let mut t = SlotTable::new(slots);
                // Densities sweep from nearly empty to nearly full.
                let (occ, pend, busy) = (1 + round % 8, 1 + (round / 2) % 8, (round / 3) % 6);
                for i in 0..slots as u32 {
                    if rng.next_below(8) < occ {
                        t.occupied.insert(i);
                    }
                    if rng.next_below(8) < pend {
                        t.pending.insert(i);
                    }
                    if rng.next_below(8) < busy {
                        t.in_fpu.insert(i);
                    }
                }
                for rr_ptr in 0..slots {
                    assert_eq!(
                        t.next_dispatchable(rr_ptr),
                        linear_pick(&t, rr_ptr),
                        "slots {slots} round {round} rr_ptr {rr_ptr}"
                    );
                }
            }
        }
    }

    #[test]
    fn backpressure_gates_dispatch_not_handling() {
        let mut f = fpc(4);
        let t = established_tcb(1);
        f.push_tcb(t, EventView::default());
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 4, &mut out);
        // Gate closed: events are still handled, nothing dispatched.
        f.push_event(FlowEvent::new(
            FlowId(1),
            EventKind::SendReq { req: SeqNum(1000).add(100) },
            0,
        ));
        for c in 4..40u64 {
            f.tick(c, c * 4, false, &mut out);
        }
        assert_eq!(f.events_handled(), 1);
        assert!(out.tx.is_empty(), "no dispatch while gated");
        // Gate opens: the accumulated request goes out.
        run_cycles(&mut f, 40, 40, &mut out);
        assert_eq!(out.tx.iter().map(|t| t.len).sum::<u32>(), 100);
    }

    #[test]
    fn full_iteration_round_period() {
        let slots = 16;
        let mut f =
            Fpc::new(0, slots, Arc::new(f4t_tcp::NewReno), Some(4), MSS, ScanPolicy::FullIteration);
        let mut t = established_tcb(3);
        t.req = t.req.add(100);
        f.push_tcb(t, EventView::default());
        let mut out = FpcOutput::default();
        // With full iteration the single flow is visited once per
        // 2×slots cycles at most.
        run_cycles(&mut f, 0, 2 * slots as u64 + 10, &mut out);
        assert_eq!(out.tx.iter().map(|t| t.len).sum::<u32>(), 100);
    }

    /// The DRAM path merges exactly like the FPC: one event sequence fed to
    /// an FPC slot (dispatch gated, so the FPU never consumes the view) and
    /// to the same TCB resident in the memory manager leaves both holding
    /// the same event-table half.
    #[test]
    fn dram_path_merges_exactly_like_the_fpc() {
        use crate::memory_manager::{MemoryManager, MmOutput};
        use f4t_mem::DramKind;

        let base = SeqNum(1000);
        let mut tcb = established_tcb(5);
        tcb.snd_nxt = base.add(20 * MSS); // data in flight: duplicates count
        tcb.req = tcb.snd_nxt;
        let rx =
            |flags: TcpFlags, rcv_nxt: SeqNum, payload: bool, in_order: bool, ts: (u64, u64)| {
                EventKind::RxPacket {
                    ack: base.add(MSS),
                    rcv_nxt,
                    wnd: f4t_tcp::TCP_BUFFER,
                    flags,
                    had_payload: payload,
                    needs_ack: payload,
                    in_order,
                    ts_val: ts.0,
                    ts_ecr: ts.1,
                }
            };
        let syn_isn = SeqNum(0x8000_1000); // more than 2^31 from rcv_nxt
        let events = [
            EventKind::SendReq { req: base.add(30 * MSS) },
            EventKind::RecvConsumed { consumed: base.add(500) },
            rx(TcpFlags::ACK, base, false, true, (0, 0)), // ACK advance
            rx(TcpFlags::ACK, base, false, true, (0, 0)), // three duplicates
            rx(TcpFlags::ACK, base, false, true, (0, 0)),
            rx(TcpFlags::ACK, base, false, true, (0, 41)),
            rx(TcpFlags::ACK, base, true, false, (700, 0)), // two out-of-order payloads
            rx(TcpFlags::ACK, base, true, false, (701, 0)),
            rx(TcpFlags::SYN | TcpFlags::ACK, syn_isn, false, true, (702, 42)),
            EventKind::Timeout { kind: TimeoutKind::Rto },
            EventKind::Timeout { kind: TimeoutKind::Probe },
            EventKind::Close,
        ];

        let mut f = fpc(4);
        assert!(f.push_tcb(tcb, EventView::default()));
        let mut out = FpcOutput::default();
        let mut c = 0;
        let mut tick_gated = |f: &mut Fpc| {
            for _ in 0..4 {
                f.tick(c, c * 4, false, &mut out);
                c += 1;
            }
        };
        tick_gated(&mut f); // swap-in
        for kind in events {
            assert!(f.push_event(FlowEvent::new(FlowId(5), kind, 0)));
            tick_gated(&mut f);
        }
        assert_eq!(f.events_handled(), events.len() as u64);
        assert_eq!(f.dispatches(), 0, "gate closed: the view was never consumed");
        let slot = f.cam.lookup(FlowId(5)).expect("resident");
        let fpc_view = f.table.evs[slot];

        let mut mm = MemoryManager::new(DramKind::Hbm, 64);
        mm.accept_eviction(tcb);
        let mut mm_out = MmOutput::default();
        for _ in 0..4 {
            mm.tick(&mut mm_out);
        }
        assert_eq!(mm_out.evict_done, vec![FlowId(5)]);
        for kind in events {
            assert!(mm.push_event(FlowEvent::new(FlowId(5), kind, 0)));
            for _ in 0..4 {
                mm.tick(&mut mm_out);
            }
        }
        assert_eq!(mm.events_handled(), events.len() as u64);
        let (_, dram_view) = mm.take_for_swap_in(FlowId(5)).expect("resident + bandwidth");

        assert_eq!(dram_view, fpc_view);
        assert_eq!(fpc_view.ack, Some(base.add(MSS)));
        assert_eq!(fpc_view.dup_acks, Some(4), "three duplicates, then the SYN repeats the ACK");
        assert_eq!(fpc_view.dup_ack_gen, 2);
        assert_eq!(fpc_view.rcv_nxt, Some(syn_isn), "the SYN re-anchored rcv_nxt");
        assert_eq!((fpc_view.ts_val, fpc_view.ts_ecr), (702, 42));
        assert!(fpc_view.rto_fired && fpc_view.probe_fired && fpc_view.close);
    }

    #[test]
    fn input_fifo_backpressure_reported() {
        let mut f = fpc(4);
        f.push_tcb(established_tcb(1), EventView::default());
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 4, &mut out);
        let ev =
            FlowEvent::new(FlowId(1), EventKind::SendReq { req: SeqNum(1000).add(1) }, 0);
        let mut accepted = 0;
        while f.push_event(ev) {
            accepted += 1;
        }
        assert_eq!(accepted, Fpc::INPUT_FIFO_DEPTH);
        assert!(f.input_full());
    }

    /// One random event for flow `id`: mostly send requests and ACKs
    /// (some duplicate, some carrying payload or a FIN), now and then a
    /// timeout, a close request or an RST that closes the flow outright.
    fn random_event(rng: &mut f4t_sim::SimRng, id: usize, req: &mut [u32], c: u64) -> EventKind {
        let code = rng.next_below(32);
        match code {
            0..=13 => {
                req[id] += 1 + rng.next_below(3_000) as u32;
                EventKind::SendReq { req: SeqNum(1000).add(req[id]) }
            }
            14..=27 | 31 => {
                let payload = rng.next_below(4) == 0;
                let fin = rng.next_below(16) == 0;
                let rst = if code == 31 { TcpFlags::RST } else { TcpFlags::NONE };
                EventKind::RxPacket {
                    ack: SeqNum(1000).add(rng.next_below(u64::from(req[id]) + 1) as u32),
                    rcv_nxt: SeqNum(1000).add(if payload || fin { 100 } else { 0 }),
                    wnd: f4t_tcp::TCP_BUFFER,
                    flags: rst | if fin { TcpFlags::ACK | TcpFlags::FIN } else { TcpFlags::ACK },
                    had_payload: payload,
                    needs_ack: payload || fin,
                    in_order: rng.next_below(8) != 0,
                    ts_val: c,
                    ts_ecr: 0,
                }
            }
            28 => EventKind::Timeout { kind: TimeoutKind::Rto },
            29 => EventKind::Timeout { kind: TimeoutKind::Probe },
            _ => EventKind::Close,
        }
    }

    fn telemetry(f: &Fpc) -> f4t_sim::telemetry::MetricsRegistry {
        let mut reg = f4t_sim::telemetry::MetricsRegistry::new();
        f.collect("fpc", &mut reg);
        reg
    }

    /// The quiet path against the full tick. Two FPCs take the same seeded
    /// schedule: `tick_full` — the reference, which never takes the quiet
    /// path — drives one, `tick_probed` the other. Bursts, trickles and
    /// silences mix events for resident and unknown flows, swap-ins,
    /// evict requests and closes, while the TX gate opens and closes; every
    /// cycle's output and stall counts must match, and so must the
    /// telemetry. A quiet cycle never reports work at that cycle.
    #[test]
    fn quiet_path_matches_the_full_tick() {
        use f4t_sim::SimRng;
        const FLOWS: usize = 12; // flows 10 and 11 are never installed
        for (seed, latency, scan) in [
            (1, 1, ScanPolicy::SkipIdle),
            (2, 1, ScanPolicy::FullIteration),
            (3, 41, ScanPolicy::SkipIdle),
            (4, 41, ScanPolicy::FullIteration),
        ] {
            let mut rng = SimRng::new(0x9017 + seed);
            let make = || Fpc::new(0, 8, Arc::new(f4t_tcp::NewReno), Some(latency), MSS, scan);
            let (mut real, mut full) = (make(), make());
            let (mut out_r, mut out_f) = (FpcOutput::default(), FpcOutput::default());
            let mut parked: Vec<Tcb> = (0..10).map(established_tcb).collect();
            let mut req = [0u32; FLOWS];
            let mut gate = true;
            let (mut quiet, mut quiet_gated, mut closed) = (0u64, 0u64, 0);
            for c in 0..12_000u64 {
                let rate = match (c / 700) % 3 {
                    0 => 2,  // burst: an event most cycles
                    1 => 40, // trickle
                    _ => 0,  // silence
                };
                if rate > 0 && rng.next_below(rate) == 0 {
                    let id = rng.next_below(FLOWS as u64) as usize;
                    let kind = random_event(&mut rng, id, &mut req, c);
                    let ev = FlowEvent::new(FlowId(id as u32), kind, c);
                    assert_eq!(real.push_event_at(ev, c), full.push_event_at(ev, c), "cycle {c}");
                }
                if rate > 0 && rng.next_below(rate * 8) == 0 {
                    let id = FlowId(rng.next_below(FLOWS as u64) as u32);
                    assert_eq!(real.request_evict(id), full.request_evict(id), "cycle {c}");
                }
                if rng.next_below(64) == 0 {
                    if let Some(t) = parked.pop() {
                        let accepted = real.push_tcb(t, EventView::default());
                        assert_eq!(accepted, full.push_tcb(t, EventView::default()), "cycle {c}");
                        if !accepted {
                            parked.push(t);
                        }
                    }
                }
                if rng.next_below(48) == 0 {
                    gate = !gate;
                }

                let is_quiet = real.is_quiet(c);
                if is_quiet {
                    assert_ne!(real.next_activity(c), Some(c), "quiet cycle {c} reports work");
                    quiet += 1;
                    quiet_gated += u64::from(!gate && c % 2 == 1);
                }
                let ran = real.tick_probed(c, c * 4, gate, &mut out_r, &mut Probe::detached());
                assert_eq!(ran, !is_quiet, "cycle {c}");
                full.tick_full(c, c * 4, gate, &mut out_f, &mut Probe::detached());
                assert_eq!(format!("{out_r:?}"), format!("{out_f:?}"), "output, cycle {c}");
                assert_eq!(real.stall_cycles(), full.stall_cycles(), "stalls, cycle {c}");
                assert_eq!(real.next_activity(c + 1), full.next_activity(c + 1), "cycle {c}");
                if c % 512 == 0 {
                    assert_eq!(telemetry(&real), telemetry(&full), "telemetry, cycle {c}");
                }
                parked.append(&mut out_r.evicted);
                // A closed flow comes back as a fresh connection.
                for w in out_r.outcomes.iter().filter(|w| w.outcome.closed) {
                    parked.push(established_tcb(w.flow.0));
                    closed += 1;
                }
                out_f = FpcOutput::default();
                out_r = FpcOutput::default();
            }
            assert_eq!(telemetry(&real), telemetry(&full), "telemetry at the end");
            assert_eq!(real.full_ticks, 12_000 - quiet);
            let label = format!("seed {seed} latency {latency} {scan:?}");
            assert!(quiet > 3_000 && quiet < 11_000, "{label}: {quiet} quiet cycles");
            assert!(quiet_gated > 100, "{label}: {quiet_gated} quiet cycles behind a closed gate");
            assert!(real.dispatches() > 300, "{label}: {} dispatches", real.dispatches());
            assert!(real.stale_events() > 0, "{label}: no event for an unknown flow");
            assert!(closed > 0, "{label}: no flow closed");
            let stalls = real.stall_cycles();
            assert!(stalls.0 > 0 && stalls.1 > 0 && stalls.2 > 0, "{label}: stalls {stalls:?}");
        }
    }

    /// Ticks `f` until its one FPU job has been issued, returning the
    /// cycle after the dispatch.
    fn tick_until_in_flight(f: &mut Fpc, mut c: u64, out: &mut FpcOutput) -> u64 {
        while f.fpu_depth() == 0 {
            f.tick(c, c * 4, true, out);
            c += 1;
            assert!(c < 100, "never dispatched");
        }
        c
    }

    /// During the FPU latency every reader of the slot sees the TCB as it
    /// was dispatched; the pass lands in the slot at write-back, not
    /// before.
    #[test]
    fn readers_see_the_pre_pass_tcb_until_write_back() {
        let mut f = Fpc::new(0, 8, Arc::new(f4t_tcp::NewReno), Some(20), MSS, ScanPolicy::SkipIdle);
        // Flow 1 has 700 B to send, so the install makes it pending; flow
        // 2 is idle and stamped far in the future, so flow 1 becomes the
        // coldest once its pass stamps it with the write-back time.
        let mut hot = established_tcb(1);
        hot.req = hot.req.add(700);
        hot.last_active_ns = 100;
        let mut idle = established_tcb(2);
        idle.last_active_ns = 1_000_000;
        assert!(f.push_tcb(idle, EventView::default()));
        assert!(f.push_tcb(hot, EventView::default()));
        let mut out = FpcOutput::default();
        let mut c = tick_until_in_flight(&mut f, 0, &mut out);
        assert_eq!(f.flow_count(), 2);
        let resident = |f: &Fpc| *f.resident_tcbs().find(|t| t.flow == FlowId(1)).expect("resident");
        let mut in_flight_cycles = 0;
        while f.fpu_depth() == 1 {
            assert_eq!(f.peek_tcb(FlowId(1)), Some(&hot), "peek, cycle {c}");
            assert_eq!(resident(&f), hot, "resident_tcbs, cycle {c}");
            assert_eq!(f.coldest_flow(), Some(FlowId(2)), "in flight: masked out, cycle {c}");
            assert!(out.tx.is_empty(), "no segment before write-back, cycle {c}");
            f.tick(c, c * 4, true, &mut out);
            c += 1;
            in_flight_cycles += 1;
        }
        assert_eq!(in_flight_cycles, 20, "one write-back, 20 cycles after dispatch");
        let written = *f.peek_tcb(FlowId(1)).expect("still resident");
        assert_eq!(written.snd_nxt, hot.snd_nxt.add(700), "the pass landed");
        assert_eq!(written.last_active_ns, (c - 1) * 4, "stamped at write-back");
        assert_eq!(resident(&f), written);
        assert_eq!(f.coldest_flow(), Some(FlowId(1)), "post-pass stamp is older than flow 2's");
        assert_eq!(out.tx.iter().map(|t| t.len).sum::<u32>(), 700);
    }

    /// An evict flag set on the slot while its TCB is in flight diverts
    /// the processed TCB at write-back: at once when nothing else is
    /// pending, and after one more pass when `request_evict` also marked
    /// the slot pending.
    #[test]
    fn an_evict_flag_set_in_flight_diverts_at_write_back() {
        for via_request in [false, true] {
            let mut f = Fpc::new(0, 4, Arc::new(f4t_tcp::NewReno), Some(10), MSS, ScanPolicy::SkipIdle);
            let mut t = established_tcb(7);
            t.req = t.req.add(300);
            assert!(f.push_tcb(t, EventView::default()));
            let mut out = FpcOutput::default();
            let mut c = tick_until_in_flight(&mut f, 0, &mut out);
            if via_request {
                assert!(f.request_evict(FlowId(7)));
            } else {
                let slot = f.cam.lookup(FlowId(7)).expect("resident");
                f.table.set_evict(slot, true);
            }
            let passes = if via_request { 2 } else { 1 };
            while out.evicted.is_empty() {
                f.tick(c, c * 4, true, &mut out);
                c += 1;
                assert!(c < 200, "via_request {via_request}: never evicted");
            }
            assert_eq!(f.fpu.processed(), passes, "via_request {via_request}");
            let gone = out.evicted[0];
            assert_eq!(gone.flow, FlowId(7));
            assert!(!gone.evict, "flag cleared on the way out");
            assert_eq!(gone.snd_nxt, t.snd_nxt.add(300), "the pass ran before the divert");
            assert_eq!(f.flow_count(), 0);
            assert!(f.peek_tcb(FlowId(7)).is_none());
        }
    }

    /// The coldest-flow column is written from the slot row at every
    /// write-back (and at every touch and install in between).
    #[test]
    fn last_active_column_matches_every_row_after_each_write_back() {
        use f4t_sim::SimRng;
        let mut rng = SimRng::new(0x1A57);
        let mut f = Fpc::new(0, 16, Arc::new(f4t_tcp::NewReno), Some(7), MSS, ScanPolicy::SkipIdle);
        let mut out = FpcOutput::default();
        let mut parked: Vec<Tcb> = (0..16).map(established_tcb).collect();
        let mut req = [0u32; 16];
        let mut write_backs = 0;
        for c in 0..4_000u64 {
            if let Some(t) = parked.pop() {
                if !f.push_tcb(t, EventView::default()) {
                    parked.push(t);
                }
            }
            let id = rng.next_below(16) as usize;
            if rng.next_below(3) == 0 {
                let kind = random_event(&mut rng, id, &mut req, c);
                f.push_event(FlowEvent::new(FlowId(id as u32), kind, c));
            } else if rng.next_below(16) == 0 {
                f.request_evict(FlowId(id as u32));
            }
            let before = f.fpu.processed();
            f.tick(c, c * 4, true, &mut out);
            if f.fpu.processed() > before {
                write_backs += 1;
                for i in f.table.occupied.iter() {
                    let i = i as usize;
                    let row = f.table.tcbs[i].last_active_ns;
                    assert_eq!(f.table.last_active[i], row, "slot {i}, cycle {c}");
                }
            }
            parked.append(&mut out.evicted);
            for w in out.outcomes.iter().filter(|w| w.outcome.closed) {
                parked.push(established_tcb(w.flow.0));
            }
            out.outcomes.clear();
        }
        assert!(write_backs > 500, "{write_backs} write-backs");
    }

    /// What the engine reads of one write-back of `t`.
    fn write_back_view(outcome: FpuOutcome, t: &Tcb) -> WriteBack {
        WriteBack {
            flow: t.flow,
            outcome,
            snd_una: t.snd_una,
            snd_nxt: t.snd_nxt,
            rto_deadline: t.rto_deadline,
            probe_deadline: t.probe_deadline,
        }
    }

    /// The FPC with a by-value FPU pipeline: the TCB manager copies the
    /// slot's TCB into the pipeline at dispatch, the pass runs on that copy
    /// and the evict checker stores it back (or diverts it) at write-back.
    /// A second model of the FPC, kept to check the real one against.
    struct ByValueFpc {
        table: SlotTable,
        cam: Cam,
        cc: Arc<dyn CongestionControl>,
        latency: u64,
        /// In issue order: the TCB copy, the latched event view and the
        /// write-back cycle.
        jobs: Vec<(Tcb, EventView, u64)>,
        rr_ptr: usize,
        scan: ScanPolicy,
        input_events: Fifo<FlowEvent>,
        input_tcbs: Fifo<(Tcb, EventView)>,
        /// The counters of [`counters`], in its order.
        n: [u64; 12],
    }

    /// Every counter of an FPC and its FPU, in one order.
    fn counters(f: &Fpc) -> [u64; 12] {
        [
            f.events_handled,
            f.dispatches,
            f.stale_events,
            f.rmw_hazard_events,
            f.stall_fifo_empty,
            f.stall_tcb_wait,
            f.stall_backpressure,
            f.occupied_sum,
            f.valid_sum,
            f.fpu_depth_sum,
            f.ticks,
            f.fpu.processed(),
        ]
    }

    const EVENTS: usize = 0;
    const DISPATCHES: usize = 1;
    const STALE: usize = 2;
    const RMW_HAZARD: usize = 3;
    const FIFO_EMPTY: usize = 4;
    const TCB_WAIT: usize = 5;
    const BACKPRESSURE: usize = 6;
    const OCCUPIED: usize = 7;
    const VALID: usize = 8;
    const DEPTH: usize = 9;
    const TICKS: usize = 10;
    const PROCESSED: usize = 11;

    /// One cycle's product of the by-value model, as the engine reads it.
    #[derive(Default)]
    struct ByValueOut {
        tx: Vec<TxRequest>,
        reports: Vec<WriteBack>,
        evicted: Vec<Tcb>,
        installed: Vec<FlowId>,
    }

    impl ByValueFpc {
        fn new(slots: usize, latency: u32, scan: ScanPolicy) -> ByValueFpc {
            ByValueFpc {
                table: SlotTable::new(slots),
                cam: Cam::new(slots),
                cc: Arc::new(f4t_tcp::NewReno),
                latency: u64::from(latency).max(1),
                jobs: Vec::new(),
                rr_ptr: 0,
                scan,
                input_events: Fifo::new(Fpc::INPUT_FIFO_DEPTH),
                input_tcbs: Fifo::new(4),
                n: [0; 12],
            }
        }

        fn push_event(&mut self, ev: FlowEvent) -> bool {
            self.input_events.push(ev).is_ok()
        }

        fn push_tcb(&mut self, tcb: Tcb) -> bool {
            let free = self.cam.capacity() - self.cam.len();
            if self.input_tcbs.is_full() || free <= self.input_tcbs.len() {
                return false;
            }
            self.input_tcbs.push((tcb, EventView::default())).is_ok()
        }

        fn request_evict(&mut self, flow: FlowId) -> bool {
            let Some(idx) = self.cam.lookup(flow) else { return false };
            self.table.set_evict(idx, true);
            let since = self.table.last_progress[idx];
            self.table.set_pending(idx, true, since);
            true
        }

        fn tick(&mut self, cycle: u64, now_ns: u64, gate: bool, out: &mut ByValueOut) {
            let t = &mut self.table;
            self.n[TICKS] += 1;
            self.n[OCCUPIED] += self.cam.len() as u64;
            self.n[VALID] += t.pending.len() as u64;
            self.n[DEPTH] += self.jobs.len() as u64;
            if self.jobs.first().is_some_and(|j| j.2 <= cycle) {
                let (mut tcb, ev, _) = self.jobs.remove(0);
                let (outcome, tx) = crate::fpu::process(self.cc.as_ref(), &mut tcb, &ev, now_ns, MSS);
                self.n[PROCESSED] += 1;
                let flow = tcb.flow;
                let idx = self.cam.lookup(flow).expect("in-flight flow is resident");
                t.in_fpu.remove(idx as u32);
                let evict = tcb.evict || t.tcbs[idx].evict;
                if outcome.closed {
                    t.occupied.remove(idx as u32);
                    t.evs[idx] = EventView::default();
                    t.set_evict(idx, false);
                    t.set_pending(idx, false, cycle);
                    self.cam.remove(flow);
                } else if evict && !t.evs[idx].any_except_dup_acks() && !t.pending.contains(idx as u32) {
                    t.occupied.remove(idx as u32);
                    t.evs[idx] = EventView::default();
                    t.set_evict(idx, false);
                    self.cam.remove(flow);
                    out.evicted.push(Tcb { evict: false, ..tcb });
                } else {
                    t.store_tcb(idx, Tcb { evict, ..tcb });
                    if evict || outcome.more_work {
                        t.set_pending(idx, true, cycle);
                    }
                }
                out.tx.extend(tx);
                out.reports.push(write_back_view(outcome, &tcb));
            }
            if cycle.is_multiple_of(2) {
                if let Some(ev) = self.input_events.pop() {
                    match self.cam.lookup(ev.flow) {
                        None => self.n[STALE] += 1,
                        Some(idx) => {
                            if t.in_fpu.contains(idx as u32) {
                                self.n[RMW_HAZARD] += 1;
                            }
                            t.set_pending(idx, true, cycle);
                            t.touch(idx, now_ns);
                            self.n[EVENTS] += 1;
                            t.evs[idx].accumulate(&t.tcbs[idx], ev.kind);
                        }
                    }
                }
                if let Some((tcb, ev)) = self.input_tcbs.pop() {
                    let idx = self.cam.insert(tcb.flow).expect("free slot checked at push");
                    let pending = tcb.can_send() || ev.any();
                    t.store_tcb(idx, tcb);
                    t.evs[idx] = ev;
                    t.set_pending(idx, pending, cycle);
                    t.in_fpu.remove(idx as u32);
                    t.occupied.insert(idx as u32);
                    t.last_progress[idx] = cycle;
                    out.installed.push(tcb.flow);
                }
                return;
            }
            if !gate {
                self.n[BACKPRESSURE] += 1;
                return;
            }
            let pick = match self.scan {
                ScanPolicy::FullIteration => {
                    let idx = self.rr_ptr;
                    self.rr_ptr = (idx + 1) % t.len();
                    Some(idx).filter(|&i| t.dispatchable(i))
                }
                ScanPolicy::SkipIdle => t.next_dispatchable(self.rr_ptr).inspect(|&idx| {
                    self.rr_ptr = (idx + 1) % t.len();
                }),
            };
            let Some(idx) = pick else {
                let idle = t.pending.is_empty() && self.input_events.is_empty();
                self.n[if idle { FIFO_EMPTY } else { TCB_WAIT }] += 1;
                return;
            };
            let merged = t.evs[idx];
            t.evs[idx] = EventView { dup_acks: merged.dup_acks, ..EventView::default() };
            t.set_pending(idx, false, cycle);
            t.in_fpu.insert(idx as u32);
            t.last_progress[idx] = cycle;
            self.n[DISPATCHES] += 1;
            self.jobs.push((t.tcbs[idx], merged, cycle + self.latency));
        }
    }

    /// The in-place FPC against the by-value model. Both take the same
    /// seeded streams of events (some for flows that are not resident),
    /// evict requests (many landing while the flow's TCB is in flight),
    /// swap-ins of new, evicted and re-opened flows, and a TX gate that
    /// opens and closes. Every cycle the segments, the write-back reports,
    /// the evicted and installed TCBs, every resident slot row and every
    /// counter must match.
    #[test]
    fn in_place_pass_matches_the_by_value_pipeline() {
        use f4t_sim::SimRng;
        const FLOWS: usize = 14; // flows 12 and 13 are never installed
        for (seed, latency, scan) in [
            (1, 1, ScanPolicy::SkipIdle),
            (2, 6, ScanPolicy::FullIteration),
            (3, 41, ScanPolicy::SkipIdle),
            (4, 68, ScanPolicy::SkipIdle),
        ] {
            let mut rng = SimRng::new(0xB7_5A1E + seed);
            let mut real = Fpc::new(0, 8, Arc::new(f4t_tcp::NewReno), Some(latency), MSS, scan);
            let mut model = ByValueFpc::new(8, latency, scan);
            let (mut out, mut mout) = (FpcOutput::default(), ByValueOut::default());
            let mut parked: Vec<Tcb> = (0..12).map(established_tcb).collect();
            let mut req = [0u32; FLOWS];
            let mut gate = true;
            let (mut evicted, mut in_flight_evicts) = (0, 0);
            for c in 0..10_000u64 {
                let label = format!("seed {seed} cycle {c}");
                if rng.next_below(2) == 0 {
                    let id = rng.next_below(FLOWS as u64) as usize;
                    let ev = FlowEvent::new(FlowId(id as u32), random_event(&mut rng, id, &mut req, c), c);
                    assert_eq!(real.push_event(ev), model.push_event(ev), "{label}");
                }
                if rng.next_below(12) == 0 {
                    let id = FlowId(rng.next_below(FLOWS as u64) as u32);
                    let flying = real.cam.lookup(id).is_some_and(|i| real.table.in_fpu.contains(i as u32));
                    in_flight_evicts += u64::from(flying);
                    assert_eq!(real.request_evict(id), model.request_evict(id), "{label}");
                }
                if rng.next_below(4) == 0 {
                    if let Some(t) = parked.pop() {
                        let accepted = real.push_tcb(t, EventView::default());
                        assert_eq!(accepted, model.push_tcb(t), "{label}");
                        if !accepted {
                            parked.push(t);
                        }
                    }
                }
                if rng.next_below(40) == 0 {
                    gate = !gate;
                }
                real.tick(c, c * 4, gate, &mut out);
                model.tick(c, c * 4, gate, &mut mout);

                assert_eq!(out.tx, mout.tx, "segments, {label}");
                assert_eq!(out.outcomes, mout.reports, "write-back reports, {label}");
                assert_eq!(out.evicted, mout.evicted, "evictions, {label}");
                assert_eq!(out.installed, mout.installed, "installs, {label}");
                assert_eq!(counters(&real), model.n, "counters, {label}");
                let rows: Vec<u32> = real.table.occupied.iter().collect();
                assert_eq!(rows, model.table.occupied.iter().collect::<Vec<_>>(), "{label}");
                for i in rows {
                    let (r, m, i) = (&real.table, &model.table, i as usize);
                    assert_eq!(r.tcbs[i], m.tcbs[i], "slot {i} row, {label}");
                    assert_eq!(r.evs[i], m.evs[i], "slot {i} events, {label}");
                    assert_eq!(r.last_active[i], m.last_active[i], "slot {i} column, {label}");
                }
                let set = |s: &FlowSet| s.iter().collect::<Vec<_>>();
                assert_eq!(set(&real.table.pending), set(&model.table.pending), "pending, {label}");
                assert_eq!(set(&real.table.evict), set(&model.table.evict), "evict, {label}");

                evicted += out.evicted.len();
                parked.append(&mut out.evicted);
                for w in mout.reports.iter().filter(|w| w.outcome.closed) {
                    parked.push(established_tcb(w.flow.0)); // a closed flow re-opens
                }
                out = FpcOutput::default();
                mout = ByValueOut::default();
            }
            let n = model.n;
            let label = format!("seed {seed} latency {latency} {scan:?}");
            assert!(n[PROCESSED] > 500, "{label}: {n:?}");
            assert!(n[STALE] > 0, "{label}: {n:?}");
            // At latency 1 the write-back precedes the event handler in
            // the same cycle, so no event ever finds its TCB in flight.
            assert!(latency == 1 || n[RMW_HAZARD] > 0, "{label}: {n:?}");
            assert!(n[FIFO_EMPTY] + n[TCB_WAIT] > 0 && n[BACKPRESSURE] > 0, "{label}: {n:?}");
            assert!(evicted > 20, "{label}: {evicted} evictions");
            assert!(latency == 1 || in_flight_evicts > 20, "{label}: {in_flight_evicts} in-flight evicts");
        }
    }
}
