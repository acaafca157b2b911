//! The scheduler: event routing, coalescing and TCB-migration control.
//!
//! The scheduler (Fig. 5) "orchestrates all flows": it tracks every TCB's
//! location in the location LUT, routes events to the owning FPC or to
//! DRAM, parks events whose flow is mid-migration in the pending queue
//! (retrying after 12 cycles — all migrations complete within that bound,
//! §4.3.2), coalesces events of the same flow in four 16-entry FIFOs
//! (§4.4.1), allocates new flows to the least-loaded FPC and migrates
//! flows away from congested FPCs (§4.4.2).

use crate::event::FlowEvent;
use crate::fpc::Fpc;
use crate::fpu::EventView;
use crate::memory_manager::MemoryManager;
use f4t_mem::{Location, LocationLut};
use f4t_sim::check::{InvariantChecker, ViolationKind};
use f4t_sim::{
    Fifo, FlightRecorder, FlightStage, FlowSlab, Journal, JournalKind, JournalModule, Probe,
    SlabQueue,
};
use f4t_tcp::{FlowId, Tcb};

/// Whether a location-LUT state transition is part of the migration
/// protocol (Fig. 6): every move between SRAM and DRAM passes through
/// `Moving`, and any state may release to `Unallocated` on close. A
/// direct `Fpc→Dram`, `Dram→Fpc` or `Fpc(i)→Fpc(j)` edge means the
/// protocol was bypassed — exactly the race class §4.3.2 rules out.
fn lut_transition_legal(from: Location, to: Location) -> bool {
    use Location::*;
    matches!(
        (from, to),
        (Unallocated, Moving)
            | (Moving, Fpc(_))
            | (Moving, Dram)
            | (Fpc(_), Moving)
            | (Dram, Moving)
            | (_, Unallocated)
    )
}

/// Where an in-flight migration is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MigrationDest {
    /// Swap out to DRAM.
    Dram,
    /// Direct FPC-to-FPC move (load balancing).
    Fpc(u8),
}

/// Running totals the harnesses report.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerStats {
    /// Events accepted from the host interface / RX parser / timers.
    pub events_in: u64,
    /// Events merged away in the coalesce FIFOs.
    pub coalesced: u64,
    /// Events routed to FPCs.
    pub routed_fpc: u64,
    /// Events routed to the memory manager.
    pub routed_dram: u64,
    /// Events parked in the pending queue.
    pub parked: u64,
    /// Migrations initiated (either direction).
    pub migrations: u64,
    /// Events dropped for unallocated flows.
    pub dropped: u64,
}

/// The scheduler.
#[derive(Debug)]
pub struct Scheduler {
    /// Intake FIFO; each event rides with the engine cycle it was offered
    /// (the FtFlight `coalesce_fifo` span start).
    input: Fifo<(FlowEvent, u64)>,
    /// Coalesce FIFOs. An entry keeps its intake stamp, so the
    /// `coalesce_fifo` span covers intake plus coalesce residency. On a
    /// merge the incoming event's stamp is dropped with it — the queued
    /// entry keeps the earliest stamp.
    coalesce: Vec<Fifo<(FlowEvent, u64)>>,
    coalescing: bool,
    lut: LocationLut,
    /// Pending retry queue for events whose flow is mid-migration;
    /// bounded by intake backpressure (events only enter via the bounded
    /// input/coalesce FIFOs). Tuple: (event, retry cycle, cycle first
    /// parked — the FtFlight `pending_wait` span start, kept across
    /// re-parks).
    pending: SlabQueue<(FlowEvent, u64, u64)>,
    /// Reused per-tick batch buffer for the pending drain (hot path;
    /// avoids reallocating).
    pending_scratch: Vec<(FlowEvent, u64, u64)>,
    pending_high: usize,
    /// In-flight migrations, keyed by flow id on a dense FtTurbo slab
    /// (no hashing on the routing path; ascending-id iteration).
    migrations: FlowSlab<MigrationDest>,
    /// How many entries of `migrations` are bound for DRAM — the eviction
    /// concurrency the full-FPC swap-in branch bounds, kept as a running
    /// count so that branch need not walk the slab every action.
    dram_bound: usize,
    /// FtFlight: cycle each in-flight migration / swap-in began, recorded
    /// as `tcb_fetch_dram` when the flow lands in an FPC; indexed by flow
    /// id, [`NOT_MIGRATING`] otherwise. Written with or without a recorder
    /// attached (`request_swap_in_at` has no probe to ask), so it is one
    /// flat word per flow rather than a `FlowSlab`, whose insert / remove
    /// per migration showed up as host time on 64K migrating flows.
    migration_started: Vec<u64>,
    /// At most one entry per DRAM-resident flow (the memory manager
    /// deduplicates swap-in requests).
    swap_in_queue: SlabQueue<FlowId>,
    stats: SchedulerStats,
}

/// The paper's coalesce-FIFO geometry: four FIFOs of 16 entries.
const COALESCE_FIFOS: usize = 4;
const COALESCE_DEPTH: usize = 16;
/// Pending-queue retry delay: "the scheduler retries the routing after 12
/// cycles, and it always succeeds because all migration completes within
/// 12 cycles" (§4.3.2).
pub const PENDING_RETRY_CYCLES: u64 = 12;
/// Intake bandwidth from the host/RX/timer interfaces, events per cycle.
const INTAKE_PER_CYCLE: usize = 4;
/// `Scheduler::migration_started` entry of a flow with no span open.
const NOT_MIGRATING: u64 = u64::MAX;

impl Scheduler {
    /// Depth of the intake FIFO shared by host, RX parser and timers.
    pub const INPUT_FIFO_DEPTH: usize = 512;

    /// Swap-in control actions per cycle (the migration machinery runs
    /// well ahead of the 12-cycle per-migration bound).
    pub const SWAP_ACTIONS_PER_CYCLE: usize = 8;

    /// Creates a scheduler for `max_flows` flows routed across
    /// `lut_groups` LUT partitions, with event coalescing on or off.
    pub fn new(max_flows: usize, lut_groups: usize, coalescing: bool) -> Scheduler {
        Scheduler {
            input: Fifo::new(Self::INPUT_FIFO_DEPTH),
            coalesce: (0..COALESCE_FIFOS).map(|_| Fifo::new(COALESCE_DEPTH)).collect(),
            coalescing,
            lut: LocationLut::new(max_flows, lut_groups),
            pending: SlabQueue::with_capacity(16),
            pending_scratch: Vec::new(),
            pending_high: 0,
            migrations: FlowSlab::with_capacity(0),
            dram_bound: 0,
            migration_started: Vec::new(),
            swap_in_queue: SlabQueue::with_capacity(16),
            stats: SchedulerStats::default(),
        }
    }

    /// Offers an event at the intake; `false` under backpressure (the
    /// host's doorbell stalls).
    pub fn push_event(&mut self, ev: FlowEvent) -> bool {
        self.push_event_at(ev, 0)
    }

    /// [`push_event`](Self::push_event) carrying the engine cycle of
    /// arrival, recorded as the FtFlight `coalesce_fifo` span start.
    pub fn push_event_at(&mut self, ev: FlowEvent, cycle: u64) -> bool {
        if self.input.push((ev, cycle)).is_ok() {
            self.stats.events_in += 1;
            true
        } else {
            false
        }
    }

    /// Takes back an event the memory manager bounced (its flow left DRAM
    /// while the event waited there): through the intake like any new
    /// event, or — when the intake is full — straight into the pending
    /// queue, which re-routes it after the usual
    /// [`PENDING_RETRY_CYCLES`]. Never refuses: a `SendReq`, `Close` or
    /// `Timeout` has no peer to resend it. (Holding the event in the
    /// memory manager until the intake has room would close a cycle —
    /// intake ← coalesce FIFO ← LUT port ← pending retries ← memory-manager
    /// input ← the held event — that wedges a DDR4 engine above 1 K flows.)
    pub fn push_bounced(&mut self, ev: FlowEvent, cycle: u64, probe: &mut Probe) {
        if !self.push_event_at(ev, cycle) {
            self.park(ev, cycle, None, 3, probe);
        }
    }

    /// Whether the intake FIFO has room.
    pub fn can_accept(&self) -> bool {
        !self.input.is_full()
    }

    /// Free intake slots this cycle.
    pub fn intake_free(&self) -> usize {
        self.input.free()
    }

    /// Intake backlog (diagnostics).
    pub fn backlog(&self) -> usize {
        self.input.len()
            + self.coalesce.iter().map(Fifo::len).sum::<usize>()
            + self.pending.len()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// LUT-partition stalls (diagnostics).
    pub fn lut_stalls(&self) -> u64 {
        self.lut.stalls()
    }

    /// LUT occupancy census: `(in_fpc, in_dram, moving)` flow counts.
    /// All three are zero exactly when no flow holds a LUT entry — the
    /// structural leak check churn tests assert after full teardown.
    pub fn lut_census(&self) -> (usize, usize, usize) {
        self.lut.census()
    }

    /// Queues a check-logic swap-in request from the memory manager.
    pub fn request_swap_in(&mut self, flow: FlowId) {
        self.request_swap_in_at(flow, 0);
    }

    /// [`request_swap_in`](Self::request_swap_in) carrying the engine
    /// cycle, recorded as the FtFlight `tcb_fetch_dram` span start (the
    /// DRAM→FPC migration wait measured to the swap-in install).
    pub fn request_swap_in_at(&mut self, flow: FlowId, cycle: u64) {
        self.stamp_migration(flow, cycle);
        self.swap_in_queue.push_back(flow);
    }

    /// Pending swap-in requests (diagnostics).
    pub fn swap_in_backlog(&self) -> usize {
        self.swap_in_queue.len()
    }

    /// Migrations currently in flight (diagnostics).
    pub fn migrations_in_flight(&self) -> usize {
        self.migrations.len()
    }

    /// Activity horizon: the earliest cycle at which ticking the
    /// scheduler can change observable state. Queued intake, coalesce or
    /// swap-in work is immediate; a non-empty pending queue wakes at the
    /// head's retry cycle (the head is the minimum — parks append
    /// monotonically increasing `cycle + 12` retries and the only
    /// `push_front` re-parks the entry just popped at `cycle + 1`);
    /// `None` means nothing will happen until new input arrives. The
    /// per-cycle `lut.begin_cycle()` port-budget reset is not activity:
    /// with no lookups there is nothing to budget.
    pub fn next_activity(&self, cycle: u64) -> Option<u64> {
        if !self.input.is_empty()
            || self.coalesce.iter().any(|q| !q.is_empty())
            || !self.swap_in_queue.is_empty()
        {
            return Some(cycle);
        }
        self.pending.front().map(|&(_, retry, _)| retry.max(cycle))
    }

    /// Records (or redirects) `flow`'s in-flight migration.
    fn set_migration(&mut self, flow: FlowId, dest: MigrationDest) {
        let prev = self.migrations.insert(flow.0, dest);
        self.dram_bound += usize::from(dest == MigrationDest::Dram);
        self.dram_bound -= usize::from(prev == Some(MigrationDest::Dram));
    }

    /// Forgets `flow`'s in-flight migration, if any.
    fn clear_migration(&mut self, flow: FlowId) {
        if self.migrations.remove(flow.0) == Some(MigrationDest::Dram) {
            self.dram_bound -= 1;
        }
    }

    /// Opens `flow`'s `tcb_fetch_dram` span at `cycle` unless one is
    /// already open (an eviction followed by a swap-in request keeps the
    /// earlier start).
    fn stamp_migration(&mut self, flow: FlowId, cycle: u64) {
        let i = flow.0 as usize;
        if self.migration_started.len() <= i {
            self.migration_started.resize(i + 1, NOT_MIGRATING);
        }
        if self.migration_started[i] == NOT_MIGRATING {
            self.migration_started[i] = cycle;
        }
    }

    /// Closes `flow`'s `tcb_fetch_dram` span, returning its start.
    fn take_migration_stamp(&mut self, flow: FlowId) -> Option<u64> {
        let slot = self.migration_started.get_mut(flow.0 as usize)?;
        let start = std::mem::replace(slot, NOT_MIGRATING);
        (start != NOT_MIGRATING).then_some(start)
    }

    /// Sets `flow`'s LUT entry, validating the migration-protocol edge
    /// when an FtVerify checker is attached. All protocol-path writes go
    /// through here; only the documented fault-injection hook bypasses it.
    fn set_location(&mut self, flow: FlowId, to: Location, cycle: u64, probe: &mut Probe) {
        if let Some(chk) = probe.check() {
            let from = self.lut.peek(flow);
            if !lut_transition_legal(from, to) {
                chk.report(
                    cycle,
                    ViolationKind::MigrationRace,
                    "scheduler.lut",
                    format!("illegal LUT transition {from:?} → {to:?} for flow {flow}"),
                );
            }
        }
        self.lut.set(flow, to);
    }

    /// FtVerify fault injection: corrupts `flow`'s LUT entry without the
    /// Moving protocol, bypassing transition validation. Exists so the
    /// negative tests can seed a migration race the audit must detect;
    /// never called from the protocol paths.
    pub fn fault_set_location(&mut self, flow: FlowId, loc: Location) {
        self.lut.set(flow, loc);
    }

    /// Places a brand-new flow: least-loaded FPC with room, else DRAM.
    /// Sets the location LUT through the proper Moving transition.
    /// (Takes the checker as a bare option, not a [`Probe`]: FtBench binds
    /// this signature — DESIGN.md §8.2.)
    pub fn place_new_flow(
        &mut self,
        tcb: Tcb,
        fpcs: &mut [Fpc],
        mm: &mut MemoryManager,
        cycle: u64,
        chk: Option<&mut InvariantChecker>,
    ) -> Location {
        let probe = &mut Probe::new(chk, None, None);
        let flow = tcb.flow;
        let target = fpcs
            .iter()
            .enumerate()
            .filter(|(_, f)| f.can_accept_tcb())
            // f4tlint: allow(tick_path_scan): one compare tree over the
            // (eight) FPCs, not over a flow table.
            .min_by_key(|(_, f)| f.flow_count())
            .map(|(i, _)| i);
        match target {
            Some(i) => {
                let accepted = fpcs[i].push_tcb(tcb, EventView::default());
                debug_assert!(accepted, "can_accept_tcb lied");
                self.set_location(flow, Location::Moving, cycle, probe);
                Location::Fpc(i as u8)
            }
            None => {
                mm.insert_new(tcb);
                self.set_location(flow, Location::Moving, cycle, probe);
                Location::Dram
            }
        }
    }

    /// Location of a flow (diagnostics; control-path read).
    pub fn location(&self, flow: FlowId) -> Location {
        self.lut.peek(flow)
    }

    /// Engine callback: an FPC's swap-in port installed `flow`. With an
    /// FtFlight recorder attached, closes the `tcb_fetch_dram` span opened
    /// when the migration / swap-in began. (Bare options for the same
    /// reason as [`place_new_flow`](Self::place_new_flow).)
    pub fn on_installed(
        &mut self,
        flow: FlowId,
        fpc: u8,
        cycle: u64,
        chk: Option<&mut InvariantChecker>,
        flight: Option<&mut FlightRecorder>,
    ) {
        let probe = &mut Probe::new(chk, flight, None);
        self.set_location(flow, Location::Fpc(fpc), cycle, probe);
        self.clear_migration(flow);
        if let Some(start) = self.take_migration_stamp(flow) {
            probe.span(FlightStage::TcbFetchDram, flow.0, cycle.saturating_sub(start));
        }
    }

    /// Engine callback: the memory manager finished writing `flow` to
    /// DRAM (Fig. 6's evict-complete signal). (Bare option for the same
    /// reason as [`place_new_flow`](Self::place_new_flow).)
    pub fn on_evict_done(
        &mut self,
        flow: FlowId,
        cycle: u64,
        chk: Option<&mut InvariantChecker>,
    ) {
        self.set_location(flow, Location::Dram, cycle, &mut Probe::new(chk, None, None));
        self.clear_migration(flow);
        self.take_migration_stamp(flow);
    }

    /// Engine callback: the connection fully closed; release routing
    /// state so the flow id slot can be reused by new connections.
    pub fn on_flow_closed(&mut self, flow: FlowId, cycle: u64, probe: &mut Probe) {
        self.set_location(flow, Location::Unallocated, cycle, probe);
        self.clear_migration(flow);
        self.take_migration_stamp(flow);
    }

    /// Engine callback: an evict checker diverted `tcb` out of an FPC.
    /// Forwards it to its migration destination.
    pub fn on_evicted(&mut self, tcb: Tcb, fpcs: &mut [Fpc], mm: &mut MemoryManager) {
        let flow = tcb.flow;
        match self.migrations.get(flow.0).copied() {
            Some(MigrationDest::Fpc(j)) => {
                if !fpcs[j as usize].push_tcb(tcb, EventView::default()) {
                    // Target filled up meanwhile: fall back to DRAM.
                    self.set_migration(flow, MigrationDest::Dram);
                    mm.accept_eviction(tcb);
                }
            }
            Some(MigrationDest::Dram) | None => {
                self.set_migration(flow, MigrationDest::Dram);
                mm.accept_eviction(tcb);
            }
        }
    }

    /// Begins evicting `flow` from `from_fpc` toward `dest`.
    fn start_migration(
        &mut self,
        flow: FlowId,
        from_fpc: usize,
        dest: MigrationDest,
        fpcs: &mut [Fpc],
        cycle: u64,
        probe: &mut Probe,
    ) -> bool {
        if self.migrations.contains(flow.0) {
            return false;
        }
        if !fpcs[from_fpc].request_evict(flow) {
            return false;
        }
        self.set_location(flow, Location::Moving, cycle, probe);
        self.set_migration(flow, dest);
        self.stamp_migration(flow, cycle);
        let to = match dest {
            MigrationDest::Dram => Journal::DRAM_SLOT,
            MigrationDest::Fpc(j) => u64::from(j),
        };
        probe.event(
            cycle,
            JournalModule::Scheduler,
            JournalKind::TcbMigrateStart,
            flow.0,
            from_fpc as u64,
            to,
        );
        self.stats.migrations += 1;
        true
    }

    /// Parks `ev` in the pending queue for a retry after
    /// [`PENDING_RETRY_CYCLES`]; `cause` is the journal's park-cause code
    /// (see [`JournalKind::EventRouted`]).
    fn park(
        &mut self,
        ev: FlowEvent,
        cycle: u64,
        parked_at: Option<u64>,
        cause: u64,
        probe: &mut Probe,
    ) {
        self.pending.push_back((ev, cycle + PENDING_RETRY_CYCLES, parked_at.unwrap_or(cycle)));
        self.stats.parked += 1;
        probe.event(
            cycle,
            JournalModule::Scheduler,
            JournalKind::EventRouted,
            ev.flow.0,
            Journal::ROUTE_PARKED,
            cause,
        );
    }

    /// Routes one event; returns `true` when consumed (delivered or
    /// parked), `false` to retry next cycle. `parked_at` is the cycle the
    /// event first entered the pending queue (`None` when routing straight
    /// out of a coalesce FIFO); a successful delivery closes that FtFlight
    /// `pending_wait` span.
    fn route(
        &mut self,
        ev: FlowEvent,
        cycle: u64,
        parked_at: Option<u64>,
        fpcs: &mut [Fpc],
        mm: &mut MemoryManager,
        probe: &mut Probe,
    ) -> bool {
        let Some(loc) = self.lut.lookup(ev.flow) else {
            return false; // LUT partition budget exhausted this cycle
        };
        let delivered = |probe: &mut Probe, route: u64, fpc: u64| {
            if let Some(parked) = parked_at {
                probe.span(FlightStage::PendingWait, ev.flow.0, cycle - parked);
            }
            probe.event(
                cycle,
                JournalModule::Scheduler,
                JournalKind::EventRouted,
                ev.flow.0,
                route,
                fpc,
            );
        };
        match loc {
            Location::Unallocated => {
                self.stats.dropped += 1;
                probe.event(
                    cycle,
                    JournalModule::Scheduler,
                    JournalKind::EventDropped,
                    ev.flow.0,
                    0,
                    0,
                );
                true
            }
            Location::Moving => {
                self.park(ev, cycle, parked_at, 0, probe);
                true
            }
            Location::Dram => {
                if mm.push_event_at(ev, cycle) {
                    self.stats.routed_dram += 1;
                    delivered(probe, Journal::ROUTE_DRAM, 0);
                } else {
                    // Memory-manager backpressure (DRAM bandwidth): park
                    // the event instead of blocking the coalesce FIFO —
                    // otherwise one slow DRAM flow head-of-line blocks
                    // SRAM-resident flows hashed to the same FIFO.
                    self.park(ev, cycle, parked_at, 1, probe);
                }
                true
            }
            Location::Fpc(i) => {
                let i = i as usize;
                if fpcs[i].push_event_at(ev, cycle) {
                    self.stats.routed_fpc += 1;
                    delivered(probe, Journal::ROUTE_FPC, i as u64);
                    return true;
                }
                // Backpressure: migrate the congested flow to the
                // idlest FPC (§4.4.2), park the event meanwhile.
                let idlest = fpcs
                    .iter()
                    .enumerate()
                    .filter(|&(j, f)| j != i && f.can_accept_tcb())
                    // f4tlint: allow(tick_path_scan): one compare tree
                    // over the (eight) FPCs, not over a flow table.
                    .min_by_key(|(_, f)| f.input_backlog() * 1024 + f.flow_count())
                    .map(|(j, _)| j);
                let Some(j) = idlest else { return false };
                let migrating = self.start_migration(
                    ev.flow,
                    i,
                    MigrationDest::Fpc(j as u8),
                    fpcs,
                    cycle,
                    probe,
                );
                if migrating {
                    self.park(ev, cycle, parked_at, 2, probe);
                }
                migrating
            }
        }
    }

    /// Swap-in progress, up to [`Self::SWAP_ACTIONS_PER_CYCLE`] actions
    /// per cycle: satisfy the head of the swap-in queue, evicting cold
    /// flows when every FPC is full. The hardware completes any migration
    /// within 12 cycles (§4.3.2), so the control machinery must sustain
    /// several concurrent migrations — it is never itself the bottleneck
    /// (DRAM bandwidth is, which is the point of Fig. 13).
    fn progress_swap_in(
        &mut self,
        fpcs: &mut [Fpc],
        mm: &mut MemoryManager,
        cycle: u64,
        probe: &mut Probe,
    ) {
        for _ in 0..Self::SWAP_ACTIONS_PER_CYCLE {
            let Some(&flow) = self.swap_in_queue.front() else { return };
            if self.migrations.contains(flow.0) {
                // Mid-migration: rotate so one moving flow does not block
                // the queue.
                if let Some(f) = self.swap_in_queue.pop_front() {
                    self.swap_in_queue.push_back(f);
                }
                continue;
            }
            if mm.peek_tcb(flow).is_none() {
                // Flow left DRAM by other means (already swapped in).
                self.swap_in_queue.pop_front();
                continue;
            }
            let target = fpcs
                .iter()
                .enumerate()
                .filter(|(_, f)| f.can_accept_tcb())
                // f4tlint: allow(tick_path_scan): one compare tree over
                // the (eight) FPCs, not over a flow table.
                .min_by_key(|(_, f)| f.flow_count())
                .map(|(i, _)| i);
            match target {
                Some(i) => {
                    if let Some((tcb, ev)) = mm.take_for_swap_in(flow) {
                        self.set_location(flow, Location::Moving, cycle, probe);
                        let accepted = fpcs[i].push_tcb(tcb, ev);
                        debug_assert!(accepted, "can_accept_tcb lied on swap-in");
                        self.stats.migrations += 1;
                        probe.event(
                            cycle,
                            JournalModule::Scheduler,
                            JournalKind::TcbMigrateStart,
                            flow.0,
                            Journal::DRAM_SLOT,
                            i as u64,
                        );
                        self.swap_in_queue.pop_front();
                    } else {
                        // DRAM bandwidth exhausted: retry next cycle.
                        return;
                    }
                }
                None => {
                    // Every FPC is full: evict cold flows to make room
                    // (Fig. 6), concurrency bounded by demand.
                    if self.dram_bound >= self.swap_in_queue.len().min(256)
                        || !self.evict_coldest(fpcs, cycle, probe)
                    {
                        return;
                    }
                }
            }
        }
    }

    /// Fig. 6 ①–③ with every FPC full: asks the FPCs for their coldest
    /// flow, shortest input FIFO first (ties to the lowest id), and starts
    /// evicting the first victim offered. An FPC with nothing to offer —
    /// every slot already evict-marked or in flight in its FPU — or whose
    /// victim `start_migration` refuses passes the ask on to the next one;
    /// `false` only when no FPC can give up a flow this cycle. The modelled
    /// hardware is a priority pick over the FPCs' "have a victim" lines,
    /// not a walk over any flow table.
    fn evict_coldest(&mut self, fpcs: &mut [Fpc], cycle: u64, probe: &mut Probe) -> bool {
        // (backlog, id) of the FPC asked last: the order is strictly
        // ascending in that key, so it needs no sort and no visited set.
        let mut asked = None;
        loop {
            let next = fpcs
                .iter()
                .enumerate()
                .map(|(i, f)| (f.input_backlog(), i))
                .filter(|&key| asked.is_none_or(|last| key > last))
                .min();
            let Some((_, t)) = next else { return false };
            asked = next;
            if let Some(cold) = fpcs[t].coldest_flow() {
                if self.start_migration(cold, t, MigrationDest::Dram, fpcs, cycle, probe) {
                    return true;
                }
            }
        }
    }

    /// Advances one engine cycle.
    pub fn tick(&mut self, cycle: u64, fpcs: &mut [Fpc], mm: &mut MemoryManager) {
        self.tick_probed(cycle, fpcs, mm, &mut Probe::detached());
    }

    /// [`Scheduler::tick`] with the engine's [`Probe`]: an attached
    /// FtVerify checker validates every location-LUT transition against
    /// the migration protocol, an FtFlight recorder attributes
    /// coalesce-FIFO residency and pending-queue wait per flow, and an
    /// FtJournal receives enqueue / merge / route / migrate events.
    pub fn tick_probed(
        &mut self,
        cycle: u64,
        fpcs: &mut [Fpc],
        mm: &mut MemoryManager,
        probe: &mut Probe,
    ) {
        self.lut.begin_cycle();

        // 1. Intake into the coalesce FIFOs.
        for _ in 0..INTAKE_PER_CYCLE {
            let Some(&(ev, _)) = self.input.front() else { break };
            let q = ev.flow.0 as usize % self.coalesce.len();
            if self.coalescing {
                let mut merged = false;
                for (queued, _) in self.coalesce[q].iter_mut() {
                    if queued.flow == ev.flow && queued.try_merge(&ev) {
                        merged = true;
                        break;
                    }
                }
                if merged {
                    // The merged event's span folds into the queued event it
                    // coalesced with; its own intake stamp goes with it.
                    self.input.pop();
                    self.stats.coalesced += 1;
                    probe.event(
                        cycle,
                        JournalModule::Scheduler,
                        JournalKind::EventMerged,
                        ev.flow.0,
                        q as u64,
                        0,
                    );
                    continue;
                }
            }
            if self.coalesce[q].is_full() {
                break; // backpressure to the intake
            }
            if let Some(stamped) = self.input.pop() {
                let accepted = self.coalesce[q].push(stamped).is_ok();
                debug_assert!(accepted, "coalesce FIFO checked not full above");
                probe.event(
                    cycle,
                    JournalModule::Scheduler,
                    JournalKind::EventEnqueued,
                    ev.flow.0,
                    q as u64,
                    0,
                );
            }
        }

        // 2. Retry pending events whose timer elapsed (ahead of new
        //    routing so ordering per flow is preserved). The due prefix is
        //    drained from the ring in one batch per tick instead of one
        //    pop per entry; anything routing re-parks (and anything route
        //    itself parks) carries a retry past `cycle`, so the upfront
        //    prefix equals what an incremental pop loop would take.
        let due = self
            .pending
            .iter()
            .take(4)
            .take_while(|&&(_, retry, _)| retry <= cycle)
            .count();
        if due > 0 {
            let mut batch = std::mem::take(&mut self.pending_scratch);
            batch.clear();
            batch.extend(self.pending.drain_front(due));
            let mut failed_at = None;
            for (i, &(ev, _, parked_at)) in batch.iter().enumerate() {
                if !self.route(ev, cycle, Some(parked_at), fpcs, mm, probe) {
                    failed_at = Some(i);
                    break;
                }
            }
            if let Some(i) = failed_at {
                // Re-park the unrouted tail at the front in order, then
                // the failed entry ahead of it with a next-cycle retry —
                // the exact state the per-entry loop left behind.
                for &entry in batch[i + 1..].iter().rev() {
                    self.pending.push_front(entry);
                }
                let (ev, _, parked_at) = batch[i];
                self.pending.push_front((ev, cycle + 1, parked_at));
            }
            self.pending_scratch = batch;
        }

        // 3. Route one event per coalesce FIFO (up to 4/cycle with 4 LUT
        //    partitions, §4.4.2).
        for q in 0..self.coalesce.len() {
            let Some(&(ev, stamp)) = self.coalesce[q].front() else { continue };
            if self.route(ev, cycle, None, fpcs, mm, probe) {
                self.coalesce[q].pop();
                probe.span(FlightStage::CoalesceFifo, ev.flow.0, cycle.saturating_sub(stamp));
            }
        }

        // 4. Swap-in progress.
        self.progress_swap_in(fpcs, mm, cycle, probe);

        self.pending_high = self.pending_high.max(self.pending.len());
    }

    /// FtVerify periodic audit: conservation on the intake and coalesce
    /// FIFOs. LUT-residency cross-checks live in the engine, which can see
    /// the FPCs and the DRAM store at once.
    pub fn audit(&self, cycle: u64, chk: &mut InvariantChecker) {
        chk.check_fifo(cycle, "scheduler.input_fifo", &self.input);
        for (i, q) in self.coalesce.iter().enumerate() {
            chk.check_fifo(cycle, &format!("scheduler.coalesce_fifo{i}"), q);
        }
    }

    /// Reports scheduler telemetry into `reg` under `prefix`: routing
    /// counters, pending-queue depth/high-watermark, location-LUT stalls
    /// and census, and per-FIFO occupancy.
    pub fn collect(&self, prefix: &str, reg: &mut f4t_sim::telemetry::MetricsRegistry) {
        let s = &self.stats;
        reg.counter(&format!("{prefix}.events_in"), s.events_in);
        reg.counter(&format!("{prefix}.coalesced"), s.coalesced);
        reg.counter(&format!("{prefix}.routed_fpc"), s.routed_fpc);
        reg.counter(&format!("{prefix}.routed_dram"), s.routed_dram);
        reg.counter(&format!("{prefix}.parked"), s.parked);
        reg.counter(&format!("{prefix}.migrations"), s.migrations);
        reg.counter(&format!("{prefix}.dropped"), s.dropped);
        reg.counter(&format!("{prefix}.lut.stalls"), self.lut.stalls());
        let (fpc, dram, moving) = self.lut.census();
        reg.gauge(&format!("{prefix}.lut.flows_fpc"), fpc as f64);
        reg.gauge(&format!("{prefix}.lut.flows_dram"), dram as f64);
        reg.gauge(&format!("{prefix}.lut.flows_moving"), moving as f64);
        reg.gauge(&format!("{prefix}.pending.depth"), self.pending.len() as f64);
        reg.gauge(&format!("{prefix}.pending.high_watermark"), self.pending_high as f64);
        reg.gauge(&format!("{prefix}.swap_in_queue.depth"), self.swap_in_queue.len() as f64);
        reg.gauge(&format!("{prefix}.migrations_in_flight"), self.migrations.len() as f64);
        self.input.collect(&format!("{prefix}.input_fifo"), reg);
        for (i, q) in self.coalesce.iter().enumerate() {
            q.collect(&format!("{prefix}.coalesce_fifo{i}"), reg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::fpc::{FpcOutput, ScanPolicy};
    use f4t_mem::DramKind;
    use f4t_tcp::{CcAlgorithm, FourTuple, NewReno, SeqNum, MSS};
    use std::sync::Arc;

    fn make_fpcs(n: usize, slots: usize) -> Vec<Fpc> {
        (0..n)
            .map(|i| {
                Fpc::new(i as u8, slots, Arc::new(NewReno), Some(4), MSS, ScanPolicy::SkipIdle)
            })
            .collect()
    }

    fn established(id: u32) -> Tcb {
        let mut t = Tcb::established(FlowId(id), FourTuple::default(), SeqNum(1000));
        CcAlgorithm::NewReno.instance().init(&mut t);
        t
    }

    fn send_event(id: u32, upto: u32) -> FlowEvent {
        FlowEvent::new(FlowId(id), EventKind::SendReq { req: SeqNum(1000).add(upto) }, 0)
    }

    /// Drives scheduler + FPCs + MM together like the engine does.
    fn run(
        sched: &mut Scheduler,
        fpcs: &mut [Fpc],
        mm: &mut MemoryManager,
        from: u64,
        cycles: u64,
    ) -> (Vec<crate::event::TxRequest>, u64) {
        let mut tx = Vec::new();
        let mut handled = 0;
        for c in from..from + cycles {
            sched.tick(c, fpcs, mm);
            let mut evicted = Vec::new();
            let mut installed = Vec::new();
            for f in fpcs.iter_mut() {
                let mut out = FpcOutput::default();
                f.tick(c, c * 4, true, &mut out);
                tx.extend(out.tx);
                evicted.extend(out.evicted);
                for flow in out.installed {
                    installed.push((flow, f.id()));
                }
                handled += out.outcomes.len() as u64;
            }
            for t in evicted {
                sched.on_evicted(t, fpcs, mm);
            }
            for (flow, id) in installed {
                sched.on_installed(flow, id, c, None, None);
            }
            let mut mo = crate::memory_manager::MmOutput::default();
            mm.tick(&mut mo);
            for flow in mo.swap_in_requests {
                sched.request_swap_in(flow);
            }
            for flow in mo.evict_done {
                sched.on_evict_done(flow, c, None);
            }
        }
        (tx, handled)
    }

    #[test]
    fn new_flow_placed_in_least_loaded_fpc() {
        let mut sched = Scheduler::new(1024, 4, true);
        let mut fpcs = make_fpcs(2, 8);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        for id in 0..4 {
            sched.place_new_flow(established(id), &mut fpcs, &mut mm, 0, None);
            run(&mut sched, &mut fpcs, &mut mm, id as u64 * 10, 10);
        }
        assert_eq!(fpcs[0].flow_count(), 2);
        assert_eq!(fpcs[1].flow_count(), 2, "round-robins via least-loaded");
        assert_eq!(sched.location(FlowId(0)), Location::Fpc(0));
    }

    #[test]
    fn overflow_flows_placed_in_dram() {
        let mut sched = Scheduler::new(1024, 4, true);
        let mut fpcs = make_fpcs(1, 2);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        for id in 0..5 {
            sched.place_new_flow(established(id), &mut fpcs, &mut mm, 0, None);
            run(&mut sched, &mut fpcs, &mut mm, id as u64 * 10, 10);
        }
        assert_eq!(fpcs[0].flow_count(), 2);
        assert_eq!(mm.flow_count(), 3, "excess flows live in DRAM");
        assert_eq!(sched.location(FlowId(4)), Location::Dram);
    }

    #[test]
    fn events_route_to_owning_fpc_and_produce_tx() {
        let mut sched = Scheduler::new(1024, 4, true);
        let mut fpcs = make_fpcs(2, 8);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        sched.place_new_flow(established(1), &mut fpcs, &mut mm, 0, None);
        run(&mut sched, &mut fpcs, &mut mm, 0, 10);
        assert!(sched.push_event(send_event(1, 700)));
        let (tx, _) = run(&mut sched, &mut fpcs, &mut mm, 10, 60);
        assert_eq!(tx.iter().map(|t| t.len).sum::<u32>(), 700);
        assert_eq!(sched.stats().routed_fpc, 1);
    }

    #[test]
    fn coalescing_merges_same_flow_events() {
        let mut sched = Scheduler::new(1024, 4, true);
        let mut fpcs = make_fpcs(1, 8);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        sched.place_new_flow(established(1), &mut fpcs, &mut mm, 0, None);
        // Fill intake BEFORE ticking so events pile into the FIFO.
        for i in 1..=8u32 {
            assert!(sched.push_event(send_event(1, i * 100)));
        }
        let (tx, _) = run(&mut sched, &mut fpcs, &mut mm, 0, 80);
        assert!(sched.stats().coalesced >= 5, "coalesced {}", sched.stats().coalesced);
        assert_eq!(tx.iter().map(|t| t.len).sum::<u32>(), 800, "no data lost");
    }

    #[test]
    fn coalesce_merge_keeps_the_earliest_intake_stamp() {
        let mut sched = Scheduler::new(1024, 4, true);
        let mut fpcs = make_fpcs(1, 8);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        sched.place_new_flow(established(1), &mut fpcs, &mut mm, 0, None);
        run(&mut sched, &mut fpcs, &mut mm, 0, 10);
        assert!(sched.push_event_at(send_event(1, 100), 100));
        assert!(sched.push_event_at(send_event(1, 200), 103));
        let mut flight = FlightRecorder::new(1);
        sched.tick_probed(110, &mut fpcs, &mut mm, &mut Probe::new(None, Some(&mut flight), None));
        assert_eq!(sched.stats().coalesced, 1, "second event merged into the first");
        assert_eq!(sched.stats().routed_fpc, 1);
        // One span, from the FIRST event's intake stamp: the merged
        // event's stamp (103) left with it.
        let h = flight.stage_histogram(FlightStage::CoalesceFifo);
        assert_eq!((h.count(), h.min(), h.max()), (1, 10, 10));
    }

    #[test]
    fn bounced_event_is_restamped_at_intake() {
        let mut sched = Scheduler::new(1024, 4, true);
        let mut fpcs = make_fpcs(1, 8);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        sched.place_new_flow(established(1), &mut fpcs, &mut mm, 0, None);
        run(&mut sched, &mut fpcs, &mut mm, 0, 10);
        // An event routed to DRAM at cycle 50 for a flow that lives in an
        // FPC: the memory manager bounces it, the engine re-offers it.
        let mut flight = FlightRecorder::new(1);
        assert!(mm.push_event_at(send_event(1, 100), 50));
        let mut mo = crate::memory_manager::MmOutput::default();
        mm.tick_probed(&mut mo, 60, &mut Probe::new(None, Some(&mut flight), None));
        assert_eq!(mo.bounced.len(), 1);
        assert!(sched.push_event_at(mo.bounced[0], 60));
        sched.tick_probed(64, &mut fpcs, &mut mm, &mut Probe::new(None, Some(&mut flight), None));
        // The only span is coalesce_fifo from the re-offer (64 - 60): the
        // cycle-50 stamp was shed with the bounce.
        assert_eq!(flight.spans_recorded(), 1);
        let h = flight.stage_histogram(FlightStage::CoalesceFifo);
        assert_eq!((h.count(), h.min(), h.max()), (1, 4, 4));
    }

    #[test]
    fn coalescing_disabled_routes_each_event() {
        let mut sched = Scheduler::new(1024, 4, false);
        let mut fpcs = make_fpcs(1, 8);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        sched.place_new_flow(established(1), &mut fpcs, &mut mm, 0, None);
        run(&mut sched, &mut fpcs, &mut mm, 0, 10);
        for i in 1..=8u32 {
            sched.push_event(send_event(1, i * 100));
        }
        run(&mut sched, &mut fpcs, &mut mm, 10, 100);
        assert_eq!(sched.stats().coalesced, 0);
        assert_eq!(sched.stats().routed_fpc, 8);
    }

    #[test]
    fn dram_events_reach_memory_manager_and_swap_in() {
        let mut sched = Scheduler::new(1024, 4, true);
        let mut fpcs = make_fpcs(1, 2);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        // Fill the FPC, push one flow to DRAM.
        for id in 0..3 {
            sched.place_new_flow(established(id), &mut fpcs, &mut mm, 0, None);
            run(&mut sched, &mut fpcs, &mut mm, id as u64 * 10, 10);
        }
        assert_eq!(sched.location(FlowId(2)), Location::Dram);
        // An event for the DRAM flow: handled there, check logic fires,
        // scheduler swaps it in (evicting a cold flow), data goes out.
        sched.push_event(send_event(2, 500));
        let (tx, _) = run(&mut sched, &mut fpcs, &mut mm, 100, 400);
        assert!(sched.stats().routed_dram >= 1);
        assert_eq!(tx.iter().map(|t| t.len).sum::<u32>(), 500, "swapped-in flow sent its data");
        assert!(matches!(sched.location(FlowId(2)), Location::Fpc(_)), "now SRAM-resident");
        assert_eq!(mm.flow_count(), 1, "a cold flow was evicted to make room");
    }

    #[test]
    fn moving_flows_park_events_and_never_lose_them() {
        let mut sched = Scheduler::new(1024, 4, true);
        let mut fpcs = make_fpcs(1, 4);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        sched.place_new_flow(established(1), &mut fpcs, &mut mm, 0, None);
        run(&mut sched, &mut fpcs, &mut mm, 0, 10);
        // Force the flow into Moving state via an explicit migration.
        sched.start_migration(
            FlowId(1),
            0,
            MigrationDest::Dram,
            &mut fpcs,
            10,
            &mut Probe::detached(),
        );
        assert_eq!(sched.location(FlowId(1)), Location::Moving);
        sched.push_event(send_event(1, 300));
        let (tx, _) = run(&mut sched, &mut fpcs, &mut mm, 10, 600);
        assert!(sched.stats().parked >= 1, "event parked during migration");
        assert_eq!(tx.iter().map(|t| t.len).sum::<u32>(), 300, "parked event delivered");
    }

    #[test]
    fn dram_bound_counter_matches_a_recount() {
        // 24 flows over 8 slots, events round-robin: every event pulls a
        // DRAM flow in and pushes a cold one out, so the counter sees the
        // insert at eviction start, the re-insert when the TCB leaves its
        // FPC, and the remove at evict-done / install.
        let mut sched = Scheduler::new(1024, 4, true);
        let mut fpcs = make_fpcs(2, 4);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        for id in 0..24 {
            sched.place_new_flow(established(id), &mut fpcs, &mut mm, 0, None);
            run(&mut sched, &mut fpcs, &mut mm, id as u64 * 10, 10);
        }
        let mut peak = 0;
        for c in 0..6_000u64 {
            if c % 3 == 0 {
                let id = (c / 3 % 24) as u32;
                sched.push_event(send_event(id, 1 + (c / 72) as u32 * 10));
            }
            run(&mut sched, &mut fpcs, &mut mm, 240 + c, 1);
            let recount =
                sched.migrations.iter_dense().filter(|d| **d == MigrationDest::Dram).count();
            assert_eq!(sched.dram_bound, recount, "cycle {c}");
            peak = peak.max(recount);
        }
        assert!(peak >= 1 && sched.stats().migrations > 100, "migrations exercised");
    }

    /// Eight 2-slot FPCs, all full and all with an empty input FIFO (so a
    /// backlog tie goes to FPC 0), plus four DRAM-resident flows (16..20)
    /// queued for swap-in. Returns the cycle the set-up ran to.
    fn all_full_with_swap_ins_queued(
        sched: &mut Scheduler,
        fpcs: &mut [Fpc],
        mm: &mut MemoryManager,
    ) -> u64 {
        for id in 0..20 {
            sched.place_new_flow(established(id), fpcs, mm, 0, None);
            run(sched, fpcs, mm, id as u64 * 10, 10);
        }
        assert!(fpcs.iter().all(|f| f.free_slots() == 0 && f.input_backlog() == 0));
        for id in 16..20 {
            assert_eq!(sched.location(FlowId(id)), Location::Dram);
            sched.request_swap_in(FlowId(id));
        }
        200
    }

    fn resident_flows_of(fpc: &Fpc) -> Vec<FlowId> {
        fpc.resident_flows().collect()
    }

    #[test]
    fn victim_search_moves_past_an_fpc_with_nothing_left_to_evict() {
        let mut sched = Scheduler::new(1024, 4, true);
        let mut fpcs = make_fpcs(8, 2);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        let c = all_full_with_swap_ins_queued(&mut sched, &mut fpcs, &mut mm);
        // FPC 0 — the one the backlog pick lands on — is already giving up
        // both of its flows, so it has no victim to offer.
        for flow in resident_flows_of(&fpcs[0]) {
            let started = sched.start_migration(
                flow,
                0,
                MigrationDest::Dram,
                &mut fpcs,
                c,
                &mut Probe::detached(),
            );
            assert!(started);
        }
        assert!(fpcs[0].coldest_flow().is_none());
        assert!(fpcs[1..].iter().all(|f| f.coldest_flow().is_some()), "seven FPCs hold cold flows");
        let before = sched.stats().migrations;

        sched.tick(c, &mut fpcs, &mut mm);

        // Demand is four swap-ins and two evictions were in flight: the
        // same tick starts the other two, on the next FPC in the order.
        assert_eq!(sched.stats().migrations - before, 2, "evictions started in the same tick");
        for flow in resident_flows_of(&fpcs[1]) {
            assert_eq!(sched.location(flow), Location::Moving, "{flow} of FPC 1 is the victim");
        }
        assert!(fpcs[1].coldest_flow().is_none());
    }

    #[test]
    fn victim_search_tries_the_next_fpc_when_a_victim_is_refused() {
        let mut sched = Scheduler::new(1024, 4, true);
        let mut fpcs = make_fpcs(8, 2);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        let c = all_full_with_swap_ins_queued(&mut sched, &mut fpcs, &mut mm);
        // FPC 0 offers its coldest flow, but that flow already has a
        // migration on the books (it has landed, its install callback has
        // not run yet): `start_migration` refuses it.
        let refused = fpcs[0].coldest_flow().expect("FPC 0 holds cold flows");
        sched.set_migration(refused, MigrationDest::Fpc(0));
        let before = sched.stats().migrations;

        sched.tick(c, &mut fpcs, &mut mm);

        assert!(sched.stats().migrations > before, "the ask moved on to another FPC");
        assert_eq!(sched.location(refused), Location::Fpc(0), "the refused victim stays put");
        let victim = resident_flows_of(&fpcs[1])
            .into_iter()
            .find(|&f| sched.location(f) == Location::Moving);
        assert!(victim.is_some(), "FPC 1 gave up a flow instead");
    }

    #[test]
    fn intake_backpressure_reported() {
        let mut sched = Scheduler::new(64, 4, true);
        let mut n = 0;
        while sched.push_event(send_event(n, 1)) {
            n += 1;
        }
        assert_eq!(n as usize, Scheduler::INPUT_FIFO_DEPTH);
        assert!(!sched.can_accept());
        assert!(sched.backlog() >= Scheduler::INPUT_FIFO_DEPTH);
    }
}
