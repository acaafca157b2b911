//! The memory manager: TCP-state handling for DRAM-resident flows.
//!
//! "We implement the memory manager that handles the events routed to
//! DRAM. The memory manager does not process TCP algorithms but handles
//! them like the event handler in FPC, and the handled events are later
//! processed in FPC. It also includes a direct-mapped TCB cache to handle
//! the frequently accessed TCBs more efficiently. To swap flows back into
//! FPC, the memory manager checks whether each flow can send packets and
//! swaps only the necessary flows to FPC" (§4.3.1).
//!
//! DRAM contents are the functional source of truth: one `(Tcb,
//! EventView)` row per flow id (the same dual-memory halves an FPC slot
//! holds), each DRAM-resident TCB held once. The write-back queue carries
//! flow ids, and the [`f4t_mem::TcbCache`] in front is the *performance*
//! model, tags and dirty bits only: a hit serves the event-handling RMW
//! from SRAM, a miss charges the [`f4t_mem::DramModel`]'s byte budget —
//! which is exactly the bottleneck behind Fig. 13's DDR4 knee.

use crate::event::FlowEvent;
use crate::fpu::EventView;
use f4t_mem::{CacheAccess, DramKind, DramModel, TcbCache, TCB_BYTES};
use f4t_sim::check::InvariantChecker;
use f4t_sim::{
    Fifo, FlightStage, FlowSet, Histogram, JournalKind, JournalModule, Probe, SlabQueue,
};
use f4t_tcp::{FlowId, Tcb};

/// Per-cycle outputs of the memory manager.
#[derive(Debug, Default)]
pub struct MmOutput {
    /// Flows the check logic wants swapped into an FPC (they can send).
    pub swap_in_requests: Vec<FlowId>,
    /// Evictions whose DRAM write completed (the scheduler flips the
    /// location LUT from Moving to Dram — Fig. 6's evict-complete signal).
    pub evict_done: Vec<FlowId>,
    /// Events that arrived for a flow that had already left DRAM (the
    /// §3.2 in-flight-during-migration race): the scheduler re-routes
    /// them to the flow's new location.
    pub bounced: Vec<FlowEvent>,
}

/// Rows in one page of a [`Column`].
const ROWS_PER_PAGE: usize = 1024;

/// One half of the DRAM store: a `T` per flow id, in pages of
/// [`ROWS_PER_PAGE`] whose capacity is reserved once, when a flow id
/// first reaches them. A page never reallocates, so a growing id space
/// copies no stored row, and its unwritten tail costs no memory. Whether
/// a row holds a live value is the memory manager's `resident` /
/// `staged` sets' answer, never the column's.
#[derive(Debug)]
struct Column<T> {
    pages: Vec<Vec<T>>,
}

impl<T: Clone> Column<T> {
    fn new() -> Column<T> {
        Column { pages: Vec::new() }
    }

    /// Writes `value` as `id`'s row.
    fn put(&mut self, id: u32, value: T) {
        let (page, slot) = (id as usize / ROWS_PER_PAGE, id as usize % ROWS_PER_PAGE);
        while self.pages.len() <= page {
            self.pages.push(Vec::with_capacity(ROWS_PER_PAGE));
        }
        let rows = &mut self.pages[page];
        if slot < rows.len() {
            rows[slot] = value;
        } else {
            // Rows below `slot` that no flow wrote yet get filler copies.
            rows.resize(slot, value.clone());
            rows.push(value);
        }
    }

    /// `id`'s row, which [`put`](Self::put) wrote.
    fn get(&self, id: u32) -> &T {
        &self.pages[id as usize / ROWS_PER_PAGE][id as usize % ROWS_PER_PAGE]
    }

    /// Mutable [`get`](Self::get).
    fn get_mut(&mut self, id: u32) -> &mut T {
        &mut self.pages[id as usize / ROWS_PER_PAGE][id as usize % ROWS_PER_PAGE]
    }
}

/// The memory manager.
#[derive(Debug)]
pub struct MemoryManager {
    /// DRAM contents, a row per flow id in two halves (the dual-memory
    /// halves an FPC slot holds): every event-handling lookup is two
    /// array indexes instead of a hash. The TCB half is written when the
    /// TCB is staged, the event half when its DRAM write completes.
    tcbs: Column<Tcb>,
    evs: Column<EventView>,
    /// Flows whose row is written to DRAM: visible to event handling,
    /// swap-in and the check logic. Iterates ascending by flow id.
    resident: FlowSet,
    /// Flows whose TCB is staged in its row while the DRAM write waits in
    /// the write-back queue.
    staged: FlowSet,
    cache: TcbCache,
    dram: DramModel,
    /// Events routed to DRAM, each with the engine cycle it was routed
    /// (the DRAM-side FtFlight `event_accum` span start).
    input: Fifo<(FlowEvent, u64)>,
    /// Staged flows awaiting their DRAM write (bandwidth), tagged with
    /// the cycle they entered the queue. Bounded by the migration-control
    /// window (at most one eviction in flight per FPC plus new
    /// placements).
    writeback_queue: SlabQueue<(FlowId, u64)>,
    /// Flows with an outstanding swap-in request (dedup).
    swap_requested: FlowSet,
    events_handled: u64,
    /// Local cycle count (incremented per tick) for latency measurement.
    cycle: u64,
    /// Cycles each eviction waited in the write-back queue for DRAM
    /// bandwidth — the tail of this histogram is the migration cost the
    /// scheduler's 12-cycle retry bound absorbs.
    writeback_latency: Histogram,
    writeback_high: usize,
}

impl MemoryManager {
    /// Depth of the event input FIFO.
    pub const INPUT_FIFO_DEPTH: usize = 64;

    /// Creates a memory manager backed by `dram` with a TCB cache of
    /// `cache_sets` direct-mapped entries.
    pub fn new(dram: DramKind, cache_sets: usize) -> MemoryManager {
        MemoryManager {
            tcbs: Column::new(),
            evs: Column::new(),
            resident: FlowSet::with_capacity(0),
            staged: FlowSet::with_capacity(0),
            cache: TcbCache::new(cache_sets),
            dram: DramModel::new(dram),
            input: Fifo::new(Self::INPUT_FIFO_DEPTH),
            writeback_queue: SlabQueue::with_capacity(16),
            swap_requested: FlowSet::with_capacity(0),
            events_handled: 0,
            cycle: 0,
            writeback_latency: Histogram::new(),
            writeback_high: 0,
        }
    }

    /// Number of DRAM-resident flows.
    pub fn flow_count(&self) -> usize {
        self.resident.len()
    }

    /// Whether the event input FIFO has room.
    pub fn can_accept_event(&self) -> bool {
        !self.input.is_full()
    }

    /// Offers an event routed to DRAM; `false` under backpressure.
    pub fn push_event(&mut self, ev: FlowEvent) -> bool {
        self.push_event_at(ev, 0)
    }

    /// [`push_event`](Self::push_event) carrying the engine cycle of
    /// routing, recorded as the DRAM-side FtFlight `event_accum` start.
    pub fn push_event_at(&mut self, ev: FlowEvent, cycle: u64) -> bool {
        self.input.push((ev, cycle)).is_ok()
    }

    /// Stores a brand-new flow directly in DRAM (initial placement when
    /// every FPC is full). Deferred through the writeback queue so it
    /// costs DRAM bandwidth like any other fill.
    pub fn insert_new(&mut self, tcb: Tcb) {
        self.stage(tcb);
    }

    /// Accepts an evicted TCB arriving from an FPC (Fig. 6 step ⑤).
    /// The DRAM write completes asynchronously; `evict_done` reports it.
    pub fn accept_eviction(&mut self, tcb: Tcb) {
        self.stage(tcb);
    }

    /// Stages `tcb` in its row and queues its DRAM write. The row stays
    /// invisible to event handling and swap-in until the write completes.
    fn stage(&mut self, tcb: Tcb) {
        let flow = tcb.flow;
        debug_assert!(!self.holds(flow), "{flow} staged while the memory manager holds it");
        self.tcbs.put(flow.0, tcb);
        self.staged.insert(flow.0);
        self.writeback_queue.push_back((flow, self.cycle));
        self.writeback_high = self.writeback_high.max(self.writeback_queue.len());
    }

    /// Hands a flow's TCB + accumulated events to the scheduler for
    /// swap-in. Charges a DRAM read unless the TCB cache holds the flow.
    /// Returns `None` when the flow is not resident or this cycle's DRAM
    /// budget is exhausted (the scheduler retries).
    pub fn take_for_swap_in(&mut self, flow: FlowId) -> Option<(Tcb, EventView)> {
        if !self.resident.contains(flow.0) {
            return None;
        }
        // Migration always reads the authoritative DRAM copy (the cache
        // accelerates in-place event handling, not TCB movement).
        if !self.dram.try_access(TCB_BYTES) {
            return None;
        }
        self.cache.invalidate(flow);
        self.swap_requested.remove(flow.0);
        self.resident.remove(flow.0);
        Some((*self.tcbs.get(flow.0), *self.evs.get(flow.0)))
    }

    /// Whether this module holds `flow`'s TCB: resident, or staged for
    /// its DRAM write. O(1), the scheduler's swap-in membership question.
    pub(crate) fn holds(&self, flow: FlowId) -> bool {
        self.resident.contains(flow.0) || self.staged.contains(flow.0)
    }

    /// Read-only view of a DRAM-resident TCB, including TCBs still
    /// staged for their DRAM write (diagnostics).
    pub fn peek_tcb(&self, flow: FlowId) -> Option<&Tcb> {
        self.holds(flow).then(|| self.tcbs.get(flow.0))
    }

    /// Events handled in place (the FPC-event-handler-equivalent work).
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Events waiting in the input FIFO.
    pub fn events_queued(&self) -> usize {
        self.input.len()
    }

    /// The DRAM channel (diagnostics: bytes served, refusals).
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    /// TCB-cache hit rate (diagnostics).
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Cumulative TCB-cache hits (integer form of the hit rate, used by
    /// the FtPulse rate series so no floats enter digested state).
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Cumulative TCB-cache misses.
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Reports memory-manager telemetry into `reg` under `prefix`:
    /// TCB-cache hit/miss, DRAM channel traffic and refusals, write-back
    /// queue occupancy, and the migration (write-back) latency histogram.
    pub fn collect(&self, prefix: &str, reg: &mut f4t_sim::telemetry::MetricsRegistry) {
        reg.gauge(&format!("{prefix}.flows_resident"), self.resident.len() as f64);
        reg.counter(&format!("{prefix}.events_handled"), self.events_handled);
        reg.counter(&format!("{prefix}.tcb_cache.hits"), self.cache.hits());
        reg.counter(&format!("{prefix}.tcb_cache.misses"), self.cache.misses());
        reg.gauge(&format!("{prefix}.tcb_cache.hit_rate"), self.cache.hit_rate());
        reg.counter(&format!("{prefix}.dram.bytes_served"), self.dram.bytes_served());
        reg.counter(&format!("{prefix}.dram.accesses"), self.dram.accesses());
        reg.counter(&format!("{prefix}.dram.refusals"), self.dram.refusals());
        reg.gauge(&format!("{prefix}.writeback.depth"), self.writeback_queue.len() as f64);
        reg.gauge(&format!("{prefix}.writeback.high_watermark"), self.writeback_high as f64);
        reg.histogram(&format!("{prefix}.migration_latency_cycles"), &self.writeback_latency);
        self.input.collect(&format!("{prefix}.input_fifo"), reg);
    }

    /// The check logic: would this flow transmit if it were in an FPC?
    /// Evaluated on the merged view "directly to TCBs in the memory"
    /// without writing back (§4.3.1).
    fn check_can_send(tcb: &Tcb, ev: &EventView) -> bool {
        // Apply the pointers to a scratch copy (TCBs are Copy). The ACK
        // bound is `snd_nxt`, tighter than the FPU's `snd_max`.
        let mut t = *tcb;
        ev.absorb(&mut t);
        if let Some(a) = ev.ack {
            if a.gt(t.snd_una) && a.le(t.snd_nxt) {
                t.snd_una = a;
            }
        }
        t.ack_pending = ev.needs_ack;
        t.can_send()
            || ev.connect
            || ev.close
            || ev.rto_fired
            || ev.probe_fired
            || !ev.flags.is_empty()
            || ev.ack.is_some_and(|a| a.gt(tcb.snd_una))
    }

    /// Advances one engine cycle.
    pub fn tick(&mut self, out: &mut MmOutput) {
        self.tick_probed(out, 0, &mut Probe::detached());
    }

    /// [`tick`](Self::tick) with the engine's [`Probe`]: when a queued
    /// event is handled in place, the span from its routing stamp to
    /// `now_cycle` (the engine clock) is recorded as DRAM-side FtFlight
    /// `event_accum`, and an FtJournal `dram_event_handled` entry is
    /// emitted.
    pub fn tick_probed(&mut self, out: &mut MmOutput, now_cycle: u64, probe: &mut Probe) {
        self.cycle += 1;
        self.dram.tick();

        // 1. Evictions / new placements: one DRAM TCB write each.
        if !self.writeback_queue.is_empty() && self.dram.try_access(TCB_BYTES) {
            if let Some((flow, enqueued)) = self.writeback_queue.pop_front() {
                self.writeback_latency.record(self.cycle - enqueued);
                self.staged.remove(flow.0);
                self.resident.insert(flow.0);
                // A fresh row accumulates from nothing: a recycled flow id
                // never sees its predecessor's events.
                self.evs.put(flow.0, EventView::default());
                self.cache.fill(flow);
                // Fresh DRAM residency: any previous swap-in request is
                // void (it may have been dropped while we were in
                // transit), so the check logic may fire again.
                self.swap_requested.remove(flow.0);
                // The freshly stored TCB may already be sendable (events
                // can accumulate on it immediately); let the check logic
                // evaluate it now rather than waiting for the next event.
                if Self::check_can_send(self.tcbs.get(flow.0), self.evs.get(flow.0))
                    && self.swap_requested.insert(flow.0)
                {
                    out.swap_in_requests.push(flow);
                }
                out.evict_done.push(flow);
            }
        }

        // 2. Event handling: one event per cycle when bandwidth allows.
        if let Some(&(event, routed_at)) = self.input.front() {
            let flow = event.flow;
            if self.resident.contains(flow.0) {
                // Charge the memory system: cache hit = SRAM (free);
                // miss = TCB read + write-back of the RMW (2×128 B), plus
                // a dirty victim write.
                let charge = match self.cache.probe(flow) {
                    CacheAccess::Hit => 0,
                    CacheAccess::Miss { victim_dirty } => {
                        2 * TCB_BYTES + if victim_dirty { TCB_BYTES } else { 0 }
                    }
                };
                if charge == 0 || self.dram.try_access(charge) {
                    self.input.pop();
                    probe.span(
                        FlightStage::EventAccum,
                        flow.0,
                        now_cycle.saturating_sub(routed_at),
                    );
                    // The RMW accumulates in place on the DRAM row.
                    let (tcb, ev) = (self.tcbs.get(flow.0), self.evs.get_mut(flow.0));
                    ev.accumulate(tcb, event.kind);
                    self.events_handled += 1;
                    let can_send = Self::check_can_send(tcb, ev);
                    probe.event(
                        now_cycle,
                        JournalModule::MemoryManager,
                        JournalKind::DramEventHandled,
                        flow.0,
                        charge,
                        u64::from(can_send),
                    );
                    if charge > 0 {
                        self.cache.fill(flow);
                    }
                    // The cached line now differs from DRAM.
                    self.cache.mark_dirty(flow);
                    if can_send && self.swap_requested.insert(flow.0) {
                        out.swap_in_requests.push(flow);
                    }
                }
                // else: head-of-line wait for bandwidth — the Fig. 13 knee.
            } else {
                // The flow left DRAM while this event was in our input
                // FIFO (an event routed just before the swap-in began):
                // bounce it back to the scheduler for re-routing, exactly
                // the in-flight case §3.2 warns about. It sheds its stamp
                // here: the flight span restarts when the scheduler
                // re-stamps it at intake.
                self.input.pop();
                out.bounced.push(event);
            }
        }
    }

    /// Activity horizon: `Some(cycle)` while queued events or pending
    /// write-backs exist (both retry for DRAM bandwidth every cycle),
    /// `None` when ticking would only accrue pacer credit — which
    /// [`skip_idle_cycles`](Self::skip_idle_cycles) replays exactly.
    pub fn next_activity(&self, cycle: u64) -> Option<u64> {
        if !self.input.is_empty() || !self.writeback_queue.is_empty() {
            return Some(cycle);
        }
        None
    }

    /// Fast-forward catch-up for `n` quiescent cycles: the local cycle
    /// counter advances and the DRAM pacer accrues `n` ticks of credit
    /// (batched accrual equals per-tick accrual when nothing consumes
    /// mid-window — the burst clamp is monotone).
    pub fn skip_idle_cycles(&mut self, n: u64) {
        debug_assert!(
            self.input.is_empty() && self.writeback_queue.is_empty(),
            "memory-manager fast-forward with queued work"
        );
        self.cycle += n;
        self.dram.tick_n(n);
    }

    /// Flows currently resident in the DRAM store, in ascending flow-id
    /// order (FtVerify audit support). Excludes TCBs still waiting in
    /// the write-back queue — those are mid-migration and their LUT
    /// entries say `Moving`.
    pub fn resident_flows(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.resident.iter().map(FlowId)
    }

    /// TCBs this module holds, including write-back-queue entries still
    /// mid-migration (watchdog progress scan — same coverage as
    /// [`peek_tcb`](Self::peek_tcb), one pass instead of per-flow
    /// lookups). Deterministic order: resident flows ascending by flow
    /// id, then the write-back queue head-first.
    pub fn resident_tcbs(&self) -> impl Iterator<Item = &Tcb> {
        let queued = self.writeback_queue.iter().map(|&(flow, _)| flow.0);
        self.resident.iter().chain(queued).map(|id| self.tcbs.get(id))
    }

    /// FtVerify fault injection: plants `tcb` directly in the DRAM store,
    /// bypassing the write-back path and the Moving protocol. Exists so
    /// the negative tests can seed a dual-residency migration race the
    /// audit must detect; never called from protocol paths.
    pub fn fault_inject_store(&mut self, tcb: Tcb) {
        self.tcbs.put(tcb.flow.0, tcb);
        self.evs.put(tcb.flow.0, EventView::default());
        self.resident.insert(tcb.flow.0);
    }

    /// FtVerify periodic audit: conservation on the event input FIFO.
    pub fn audit(&self, cycle: u64, chk: &mut InvariantChecker) {
        chk.check_fifo(cycle, "mm.input_fifo", &self.input);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use f4t_tcp::{FourTuple, SeqNum};

    fn established(id: u32) -> Tcb {
        Tcb::established(FlowId(id), FourTuple::default(), SeqNum(1000))
    }

    fn send_event(id: u32, upto: u32) -> FlowEvent {
        FlowEvent::new(FlowId(id), EventKind::SendReq { req: SeqNum(1000).add(upto) }, 0)
    }

    fn run(mm: &mut MemoryManager, cycles: u64) -> MmOutput {
        let mut out = MmOutput::default();
        for _ in 0..cycles {
            mm.tick(&mut out);
        }
        out
    }

    #[test]
    fn eviction_completes_and_signals() {
        let mut mm = MemoryManager::new(DramKind::Hbm, 64);
        mm.accept_eviction(established(5));
        let out = run(&mut mm, 4);
        assert_eq!(out.evict_done, vec![FlowId(5)]);
        assert_eq!(mm.flow_count(), 1);
        assert!(mm.peek_tcb(FlowId(5)).is_some());
    }

    #[test]
    fn a_staged_tcb_is_visible_at_once_and_resident_when_its_write_completes() {
        let mut mm = MemoryManager::new(DramKind::Hbm, 64);
        for id in [7, 1] {
            mm.accept_eviction(established(id));
        }
        run(&mut mm, 4);
        // Staged, write-back queue order 9 then 3: visible to the
        // diagnostics at once, resident flows first.
        mm.accept_eviction(established(9));
        mm.insert_new(established(3));
        assert!(mm.holds(FlowId(3)) && mm.holds(FlowId(9)) && !mm.holds(FlowId(4)));
        assert_eq!(mm.peek_tcb(FlowId(9)).map(|t| t.flow), Some(FlowId(9)));
        let held: Vec<u32> = mm.resident_tcbs().map(|t| t.flow.0).collect();
        assert_eq!(held, [1, 7, 9, 3]);
        assert_eq!(mm.resident_flows().map(|f| f.0).collect::<Vec<_>>(), [1, 7]);
        // One write per cycle: flow 9's completes, flow 3 is still staged,
        // so its event bounces and swap-in finds nothing to take.
        assert!(mm.push_event(send_event(3, 300)));
        let out = run(&mut mm, 1);
        assert_eq!((out.evict_done, out.bounced), (vec![FlowId(9)], vec![send_event(3, 300)]));
        assert!(mm.take_for_swap_in(FlowId(3)).is_none(), "staged, not resident");
        let out = run(&mut mm, 1);
        assert_eq!(out.evict_done, vec![FlowId(3)]);
        assert_eq!(mm.resident_flows().map(|f| f.0).collect::<Vec<_>>(), [1, 3, 7, 9]);
        let (tcb, ev) = mm.take_for_swap_in(FlowId(3)).expect("resident + bandwidth");
        assert_eq!((tcb.flow, ev), (FlowId(3), EventView::default()), "the bounce left no trace");
    }

    #[test]
    fn a_recycled_flow_id_starts_from_an_empty_event_view() {
        let mut mm = MemoryManager::new(DramKind::Hbm, 64);
        mm.accept_eviction(established(5));
        run(&mut mm, 4);
        mm.push_event(send_event(5, 300));
        run(&mut mm, 4);
        let (_, ev) = mm.take_for_swap_in(FlowId(5)).expect("resident + bandwidth");
        assert_eq!(ev.req, Some(SeqNum(1300)));
        // The id closes in an FPC and is reused for a new DRAM placement:
        // the old row's accumulated request must not ride along.
        mm.insert_new(Tcb::new(FlowId(5)));
        run(&mut mm, 4);
        let (tcb, ev) = mm.take_for_swap_in(FlowId(5)).expect("resident + bandwidth");
        assert_eq!((tcb, ev), (Tcb::new(FlowId(5)), EventView::default()));
    }

    #[test]
    fn event_accumulates_and_check_logic_requests_swap_in() {
        let mut mm = MemoryManager::new(DramKind::Hbm, 64);
        mm.accept_eviction(established(5));
        run(&mut mm, 4);
        assert!(mm.push_event(send_event(5, 300)));
        let out = run(&mut mm, 4);
        assert_eq!(out.swap_in_requests, vec![FlowId(5)], "flow can send: swap it in");
        assert_eq!(mm.events_handled(), 1);
        // A second event does not duplicate the request.
        mm.push_event(send_event(5, 600));
        let out = run(&mut mm, 4);
        assert!(out.swap_in_requests.is_empty(), "request already outstanding");
    }

    #[test]
    fn handled_event_spans_from_its_routing_stamp_and_a_bounce_records_nothing() {
        use f4t_sim::FlightRecorder;
        let mut mm = MemoryManager::new(DramKind::Hbm, 64);
        mm.accept_eviction(established(5));
        run(&mut mm, 4);
        let mut flight = FlightRecorder::new(1);
        let mut out = MmOutput::default();
        // Flow 5 is resident: handled in place, span = now - routing stamp.
        assert!(mm.push_event_at(send_event(5, 300), 50));
        mm.tick_probed(&mut out, 57, &mut Probe::new(None, Some(&mut flight), None, None));
        let h = flight.stage_histogram(FlightStage::EventAccum);
        assert_eq!((h.count(), h.min(), h.max()), (1, 7, 7));
        // Flow 9 never lived here: the event bounces as a bare
        // `FlowEvent` (stamp shed) and no span is recorded for it.
        assert!(mm.push_event_at(send_event(9, 300), 60));
        mm.tick_probed(&mut out, 70, &mut Probe::new(None, Some(&mut flight), None, None));
        assert_eq!(out.bounced, vec![send_event(9, 300)]);
        assert_eq!(flight.spans_recorded(), 1, "the bounce recorded nothing");
    }

    #[test]
    fn idle_flow_stays_in_dram() {
        let mut mm = MemoryManager::new(DramKind::Hbm, 64);
        mm.accept_eviction(established(1));
        run(&mut mm, 4);
        // A pure window update does not make the idle flow sendable.
        let ev = FlowEvent::new(
            FlowId(1),
            EventKind::RecvConsumed { consumed: SeqNum(1000) },
            0,
        );
        mm.push_event(ev);
        let out = run(&mut mm, 4);
        assert!(out.swap_in_requests.is_empty(), "nothing to send: no swap-in");
    }

    #[test]
    fn swap_in_returns_tcb_with_accumulated_events() {
        let mut mm = MemoryManager::new(DramKind::Hbm, 64);
        mm.accept_eviction(established(5));
        run(&mut mm, 4);
        mm.push_event(send_event(5, 300));
        run(&mut mm, 4);
        let (tcb, ev) = mm.take_for_swap_in(FlowId(5)).expect("resident + bandwidth");
        assert_eq!(tcb.flow, FlowId(5));
        assert_eq!(ev.req, Some(SeqNum(1300)), "DRAM-accumulated event rides along");
        assert_eq!(mm.flow_count(), 0);
        assert!(mm.take_for_swap_in(FlowId(5)).is_none(), "gone after take");
    }

    #[test]
    fn ddr4_bandwidth_throttles_event_handling() {
        let mut mm = MemoryManager::new(DramKind::Ddr4, 4);
        // 64 flows spread across cache sets → constant conflict misses.
        for i in 0..64 {
            mm.accept_eviction(established(i));
        }
        run(&mut mm, 256);
        let mut pushed = 0u64;
        let mut cycles = 0u64;
        let mut out = MmOutput::default();
        // Feed round-robin events for 10k cycles.
        for c in 0..10_000u64 {
            let id = (c % 64) as u32;
            if mm.can_accept_event()
                && mm.push_event(send_event(id, (c / 64 + 1) as u32 * 10)) {
                    pushed += 1;
                }
            mm.tick(&mut out);
            cycles += 1;
        }
        let handled = mm.events_handled();
        // DDR4 effective ≈ 45.6 B/cycle; each miss costs ≥256 B → ≤ ~0.18
        // events/cycle. Far below the 1/cycle SRAM rate.
        assert!(handled < cycles / 4, "handled {handled} in {cycles} cycles");
        assert!(mm.dram().refusals() > 0, "bandwidth was the limiter");
        let _ = pushed;
    }

    #[test]
    fn hbm_keeps_event_rate_high() {
        let mut mm = MemoryManager::new(DramKind::Hbm, 4);
        for i in 0..64 {
            mm.accept_eviction(established(i));
        }
        run(&mut mm, 256);
        let mut out = MmOutput::default();
        let mut offered = 0u64;
        for c in 0..10_000u64 {
            let id = (c % 64) as u32;
            if mm.can_accept_event() && mm.push_event(send_event(id, (c / 64 + 1) as u32 * 10)) {
                offered += 1;
            }
            mm.tick(&mut out);
        }
        // HBM sustains ~1 event/cycle even with 100% cache misses.
        assert!(
            mm.events_handled() + 64 >= offered,
            "handled {} of {offered}",
            mm.events_handled()
        );
    }

    #[test]
    fn cache_hits_avoid_dram_traffic() {
        let mut mm = MemoryManager::new(DramKind::Ddr4, 64);
        mm.accept_eviction(established(3));
        run(&mut mm, 8);
        let served_before = mm.dram().bytes_served();
        // Repeated events to the same (cached) flow.
        let mut out = MmOutput::default();
        for i in 0..32u32 {
            mm.push_event(send_event(3, (i + 1) * 10));
            mm.tick(&mut out);
        }
        assert_eq!(mm.events_handled(), 32);
        assert_eq!(mm.dram().bytes_served(), served_before, "all hits: no DRAM bytes");
        assert!(mm.cache_hit_rate() > 0.9);
    }
}
