//! The RX data path: the RX parser.
//!
//! "The RX parser first retrieves the received packet's flow ID by looking
//! up a cuckoo hash table with the 4-tuple... Next, the RX parser DMAs the
//! payload to the TCP data buffer if it fits in the receive window
//! (regardless of whether it is in order) and drops if not. Applications,
//! however, are notified about the received data only when the data is
//! reassembled in order. This allows the hardware to reassemble data
//! logically without actually manipulating the data" (§4.1.2).
//!
//! The parser turns each segment into one [`FlowEvent`] carrying the
//! *post-reassembly* in-order pointer, so the FPU never touches payload.

use crate::event::{EventKind, FlowEvent};
use f4t_sim::{Fifo, FlightStage, FlowSet, FlowSlab, JournalKind, JournalModule, Probe};
use f4t_tcp::reassembly::ReassemblyResult;
use f4t_tcp::{FlowId, FlowTable, ReassemblyTracker, Segment, SeqNum, TcpFlags, TCP_BUFFER};

/// Everything the parser keeps per flow, in one flow-indexed record: after
/// the cuckoo lookup a segment costs one index, and teardown forgets the
/// three parts together so a recycled id inherits none of them.
#[derive(Debug, Clone)]
struct RxFlow {
    tracker: ReassemblyTracker,
    /// The highest ACK seen (`None` before the first), used to tag
    /// potential duplicate ACKs as non-mergeable so the scheduler's
    /// coalescing never destroys loss evidence (§4.4.1).
    ack_high: Option<SeqNum>,
    /// Sequence end of a FIN whose flag was withheld because the segment
    /// arrived out of order. The flag is re-delivered on the first event
    /// after reassembly passes this point — without this, a gap filled by
    /// a retransmission that does not itself carry FIN would silently
    /// absorb the phantom byte and the FPU would never see the close.
    pending_fin: Option<SeqNum>,
}

impl RxFlow {
    fn new(init_rcv: SeqNum) -> RxFlow {
        RxFlow {
            tracker: ReassemblyTracker::new(init_rcv, TCP_BUFFER),
            ack_high: None,
            pending_fin: None,
        }
    }
}

/// 322 MHz network cycles per 1000 engine (250 MHz) cycles.
const NET_PER_ENGINE_MILLI: u64 = 1288;

/// Per-cycle output of the parser.
#[derive(Debug, Default)]
pub struct RxOutput {
    /// Events bound for the scheduler.
    pub events: Vec<FlowEvent>,
    /// SYN segments for unknown tuples on listening ports: the engine
    /// allocates a flow, registers it, and re-offers the segment.
    pub new_connections: Vec<Segment>,
}

/// The RX parser.
#[derive(Debug)]
pub struct RxParser {
    flow_table: FlowTable,
    flows: FlowSlab<RxFlow>,
    /// Listening ports (a bitset keyed by port number).
    listening: FlowSet,
    /// The MAC-side buffer; each segment rides with the engine cycle it
    /// was offered (the FtFlight `rx_ingest` span start).
    input: Fifo<(Segment, u64)>,
    parallelism: u32,
    net_cycle_credit: u64,
    segments_in: u64,
    payload_dma_bytes: u64,
    dropped_unknown: u64,
    cuckoo_lookups: u64,
    cuckoo_probes: u64,
    ooo_segments: u64,
    dup_segments: u64,
    window_drops: u64,
    ooo_depth_max: usize,
}

impl RxParser {
    /// Depth of the input segment FIFO (the MAC-side buffer).
    pub const INPUT_FIFO_DEPTH: usize = 256;

    /// Creates a parser sized for `max_flows` with `parallelism` lookups
    /// per network cycle (§4.4.2: "the RX parser can parallelize packet
    /// parsing and flow ID lookup by partitioning the memory").
    pub fn new(max_flows: usize, parallelism: u32) -> RxParser {
        assert!(parallelism > 0, "parallelism must be non-zero");
        RxParser {
            flow_table: FlowTable::with_capacity(max_flows),
            flows: FlowSlab::with_capacity(0),
            listening: FlowSet::with_capacity(0),
            input: Fifo::new(Self::INPUT_FIFO_DEPTH),
            parallelism,
            net_cycle_credit: 0,
            segments_in: 0,
            payload_dma_bytes: 0,
            dropped_unknown: 0,
            cuckoo_lookups: 0,
            cuckoo_probes: 0,
            ooo_segments: 0,
            dup_segments: 0,
            window_drops: 0,
            ooo_depth_max: 0,
        }
    }

    /// Opens a listening port (SO_REUSEPORT-style: all SYNs to this port
    /// become new connections).
    pub fn listen(&mut self, port: u16) {
        self.listening.insert(u32::from(port));
    }

    /// Registers a flow: `tuple` is OUR 4-tuple (src = this host).
    /// `init_rcv` seeds the reassembly tracker (peer ISN + 1 when known,
    /// or a placeholder replaced at the first SYN).
    ///
    /// # Errors
    ///
    /// Propagates the cuckoo table's insertion errors.
    pub fn register_flow(
        &mut self,
        tuple: f4t_tcp::FourTuple,
        flow: FlowId,
        init_rcv: SeqNum,
    ) -> Result<(), f4t_tcp::flow_table::InsertError> {
        self.flow_table.insert(tuple, flow)?;
        self.flows.insert(flow.0, RxFlow::new(init_rcv));
        Ok(())
    }

    /// Removes a flow (connection teardown).
    pub fn remove_flow(&mut self, tuple: &f4t_tcp::FourTuple, flow: FlowId) {
        self.flow_table.remove(tuple);
        self.flows.remove(flow.0);
    }

    /// Offers a segment from the network; returns `false` when the input
    /// buffer overflows (the segment is lost, as on a real NIC).
    pub fn push_segment(&mut self, seg: Segment) -> bool {
        self.push_segment_at(seg, 0)
    }

    /// [`push_segment`](Self::push_segment) carrying the engine cycle of
    /// arrival, recorded as the FtFlight `rx_ingest` span start.
    pub fn push_segment_at(&mut self, seg: Segment, cycle: u64) -> bool {
        self.input.push((seg, cycle)).is_ok()
    }

    /// FtVerify periodic audit: conservation on the segment input FIFO.
    pub fn audit(&self, cycle: u64, chk: &mut f4t_sim::check::InvariantChecker) {
        chk.check_fifo(cycle, "rx.input_fifo", &self.input);
    }

    /// Activity horizon: `Some(cycle)` while parse work is queued, `None`
    /// when ticking would only run the 322/250 credit arithmetic — which
    /// [`skip_idle_cycles`](Self::skip_idle_cycles) replays in closed
    /// form.
    pub fn next_activity(&self, cycle: u64) -> Option<u64> {
        if !self.input.is_empty() {
            return Some(cycle);
        }
        None
    }

    /// Fast-forward catch-up for `n` idle cycles. With an empty input
    /// each tick is `credit += 1288; credit %= 1000` (the extracted
    /// budget goes unused), so `n` ticks fold to one modular step.
    pub fn skip_idle_cycles(&mut self, n: u64) {
        debug_assert!(self.input.is_empty(), "rx-parser fast-forward with queued segments");
        self.net_cycle_credit = ((u128::from(self.net_cycle_credit)
            + u128::from(NET_PER_ENGINE_MILLI) * u128::from(n))
            % 1000) as u64;
    }

    /// Parses one segment into an event (the per-packet work).
    /// `arrived_at` is the ingest stamp popped alongside the segment.
    fn parse_one(
        &mut self,
        seg: Segment,
        arrived_at: u64,
        now_ns: u64,
        cycle: u64,
        out: &mut RxOutput,
        probe: &mut Probe,
    ) {
        self.segments_in += 1;
        // Lookup by OUR tuple: the segment's source is the peer.
        let our_tuple = seg.tuple.reversed();
        let (looked_up, probes) = self.flow_table.lookup_probed(&our_tuple);
        self.cuckoo_lookups += 1;
        self.cuckoo_probes += u64::from(probes);
        let Some(flow) = looked_up else {
            // Unknown tuple: no flow id exists; the sentinel u32::MAX
            // marks table misses (SYNs to listening ports included).
            probe.event(
                cycle,
                JournalModule::RxParser,
                JournalKind::CuckooMiss,
                u32::MAX,
                u64::from(probes),
                u64::from(seg.flags.contains(TcpFlags::SYN)),
            );
            let port = u32::from(seg.tuple.dst_port);
            if seg.flags.contains(TcpFlags::SYN) && self.listening.contains(port) {
                out.new_connections.push(seg);
            } else {
                self.dropped_unknown += 1;
            }
            return;
        };
        probe.span(FlightStage::RxIngest, flow.0, cycle.saturating_sub(arrived_at));
        probe.span(FlightStage::CuckooLookup, flow.0, u64::from(probes));
        probe.event(
            cycle,
            JournalModule::RxParser,
            JournalKind::CuckooHit,
            flow.0,
            u64::from(probes),
            0,
        );
        let rx = self.flows.get_or_insert_with(flow.0, || RxFlow::new(seg.seq));
        let tracker = &mut rx.tracker;
        if seg.flags.contains(TcpFlags::SYN) {
            // (Re)anchor reassembly at the peer's ISN + 1.
            *tracker = ReassemblyTracker::new(seg.seq.add(1), TCP_BUFFER);
            rx.pending_fin = None;
        }

        // FIN occupies one phantom byte of sequence space so it is only
        // delivered in order.
        let fin_phantom = u32::from(seg.flags.contains(TcpFlags::FIN));
        let body = seg.payload_len + fin_phantom;
        let ack_advances = rx.ack_high.is_none_or(|high| seg.ack.gt(high));
        let (in_order, needs_ack, accepted_payload) = if body > 0 {
            let r = tracker.on_segment(seg.seq, body);
            self.ooo_depth_max = self.ooo_depth_max.max(tracker.chunk_count());
            match r {
                ReassemblyResult::Advanced(_) => (true, true, seg.payload_len),
                ReassemblyResult::OutOfOrder => {
                    self.ooo_segments += 1;
                    (false, true, seg.payload_len)
                }
                // Unacceptable segments still elicit an ACK (RFC 793) —
                // this also answers zero-window probes and duplicates
                // (which become dup-ACK evidence at the peer).
                ReassemblyResult::Duplicate => {
                    self.dup_segments += 1;
                    (false, true, 0)
                }
                ReassemblyResult::Dropped => {
                    self.window_drops += 1;
                    (false, true, 0)
                }
            }
        } else {
            // Pure ACK. It is mergeable only if the ACK advances — a
            // non-advancing pure ACK is a potential duplicate ACK whose
            // count must survive coalescing.
            (ack_advances, false, 0)
        };
        if ack_advances {
            rx.ack_high = Some(seg.ack);
        }
        self.payload_dma_bytes += u64::from(accepted_payload);

        // The FIN flag is reported only once its phantom byte has been
        // sequenced (rcv_nxt passed it), so the FPU sees an in-order FIN.
        // A withheld flag is parked and re-attached to the first event
        // after the gap fills — the filling segment need not carry FIN.
        let mut flags = seg.flags;
        if fin_phantom == 1 && tracker.rcv_nxt().lt(seg.seq_end()) {
            flags.remove(TcpFlags::FIN);
            rx.pending_fin = Some(seg.seq_end());
        } else if rx.pending_fin.is_some_and(|fin_end| tracker.rcv_nxt().ge(fin_end)) {
            flags.insert(TcpFlags::FIN);
            rx.pending_fin = None;
        }

        probe.event(
            cycle,
            JournalModule::RxParser,
            JournalKind::SegAccepted,
            flow.0,
            u64::from(seg.payload_len),
            u64::from(in_order),
        );
        out.events.push(FlowEvent::new(
            flow,
            EventKind::RxPacket {
                ack: seg.ack,
                rcv_nxt: tracker.rcv_nxt(),
                wnd: seg.window,
                flags,
                had_payload: seg.payload_len > 0,
                needs_ack,
                in_order,
                ts_val: seg.ts_val,
                ts_ecr: seg.ts_ecr,
            },
            now_ns,
        ));
    }

    /// Advances one engine (250 MHz) cycle, parsing up to the network-rate
    /// budget of segments.
    pub fn tick(&mut self, now_ns: u64, out: &mut RxOutput) {
        self.tick_probed(now_ns, 0, out, &mut Probe::detached());
    }

    /// [`tick`](Self::tick) with the engine's [`Probe`]: each parsed
    /// segment records its input-FIFO residency (FtFlight `rx_ingest`,
    /// arrival stamp to `cycle`) and its cuckoo probe count
    /// (`cuckoo_lookup`), and emits `cuckoo_hit` / `cuckoo_miss` and
    /// `seg_accepted` FtJournal events.
    pub fn tick_probed(&mut self, now_ns: u64, cycle: u64, out: &mut RxOutput, probe: &mut Probe) {
        self.net_cycle_credit += NET_PER_ENGINE_MILLI;
        let mut budget = (self.net_cycle_credit / 1000) * u64::from(self.parallelism);
        self.net_cycle_credit %= 1000;
        while budget > 0 {
            let Some((seg, arrived_at)) = self.input.pop() else { break };
            self.parse_one(seg, arrived_at, now_ns, cycle, out, probe);
            budget -= 1;
        }
    }

    /// Total segments parsed.
    pub fn segments_in(&self) -> u64 {
        self.segments_in
    }

    /// Total payload bytes DMAed to the host buffer.
    pub fn payload_dma_bytes(&self) -> u64 {
        self.payload_dma_bytes
    }

    /// Segments dropped for unknown tuples.
    pub fn dropped_unknown(&self) -> u64 {
        self.dropped_unknown
    }

    /// The reassembly tracker of `flow` (diagnostics).
    pub fn tracker(&self, flow: FlowId) -> Option<&ReassemblyTracker> {
        self.flows.get(flow.0).map(|rx| &rx.tracker)
    }

    /// Reports RX-parser telemetry into `reg` under `prefix`: cuckoo
    /// lookup/probe counts, out-of-order reassembly pressure, and input
    /// FIFO occupancy.
    pub fn collect(&self, prefix: &str, reg: &mut f4t_sim::telemetry::MetricsRegistry) {
        reg.counter(&format!("{prefix}.segments_in"), self.segments_in);
        reg.counter(&format!("{prefix}.payload_dma_bytes"), self.payload_dma_bytes);
        reg.counter(&format!("{prefix}.dropped_unknown"), self.dropped_unknown);
        reg.counter(&format!("{prefix}.cuckoo.lookups"), self.cuckoo_lookups);
        reg.counter(&format!("{prefix}.cuckoo.probes"), self.cuckoo_probes);
        let avg = if self.cuckoo_lookups == 0 {
            0.0
        } else {
            self.cuckoo_probes as f64 / self.cuckoo_lookups as f64
        };
        reg.gauge(&format!("{prefix}.cuckoo.probes_per_lookup"), avg);
        reg.gauge(&format!("{prefix}.flow_table.occupancy"), self.flow_table.len() as f64);
        reg.counter(&format!("{prefix}.reassembly.ooo_segments"), self.ooo_segments);
        reg.counter(&format!("{prefix}.reassembly.dup_segments"), self.dup_segments);
        reg.counter(&format!("{prefix}.reassembly.window_drops"), self.window_drops);
        reg.counter(&format!("{prefix}.reassembly.ooo_depth_max"), self.ooo_depth_max as u64);
        // An order-free sum, so the storage-order walk gives the same value.
        let cur_depth: usize = self.flows.iter_dense().map(|rx| rx.tracker.chunk_count()).sum();
        reg.gauge(&format!("{prefix}.reassembly.ooo_chunks"), cur_depth as f64);
        self.input.collect(&format!("{prefix}.input_fifo"), reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_tcp::FourTuple;
    use std::net::Ipv4Addr;

    fn our_tuple() -> FourTuple {
        FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 5000, Ipv4Addr::new(10, 0, 0, 2), 80)
    }

    fn peer_data(seq: u32, len: u32) -> Segment {
        Segment::data(our_tuple().reversed(), SeqNum(seq), SeqNum(100), len)
    }

    fn parser_with_flow() -> RxParser {
        let mut p = RxParser::new(1024, 1);
        p.register_flow(our_tuple(), FlowId(1), SeqNum(0)).unwrap();
        p
    }

    fn drain(p: &mut RxParser, ticks: u64) -> RxOutput {
        let mut out = RxOutput::default();
        for t in 0..ticks {
            p.tick(t * 4, &mut out);
        }
        out
    }

    #[test]
    fn in_order_data_event() {
        let mut p = parser_with_flow();
        assert!(p.push_segment(peer_data(0, 500)));
        let out = drain(&mut p, 4);
        assert_eq!(out.events.len(), 1);
        let EventKind::RxPacket { rcv_nxt, had_payload, needs_ack, in_order, ack, .. } =
            out.events[0].kind
        else {
            panic!()
        };
        assert_eq!(rcv_nxt, SeqNum(500), "post-reassembly pointer");
        assert!(had_payload && needs_ack && in_order);
        assert_eq!(ack, SeqNum(100));
        assert_eq!(p.payload_dma_bytes(), 500, "payload DMAed at its offset");
    }

    #[test]
    fn out_of_order_then_fill() {
        let mut p = parser_with_flow();
        p.push_segment(peer_data(500, 500)); // gap
        p.push_segment(peer_data(0, 500)); // fill
        let out = drain(&mut p, 6);
        assert_eq!(out.events.len(), 2);
        let EventKind::RxPacket { rcv_nxt, in_order, .. } = out.events[0].kind else { panic!() };
        assert_eq!(rcv_nxt, SeqNum(0), "pointer unchanged by the gap");
        assert!(!in_order, "marked out-of-order: blocks coalescing");
        let EventKind::RxPacket { rcv_nxt, .. } = out.events[1].kind else { panic!() };
        assert_eq!(rcv_nxt, SeqNum(1000), "both chunks delivered");
        assert_eq!(p.payload_dma_bytes(), 1000, "OOO payload DMAed immediately");
    }

    #[test]
    fn duplicate_elicits_ack_without_dma() {
        let mut p = parser_with_flow();
        p.push_segment(peer_data(0, 100));
        p.push_segment(peer_data(0, 100)); // dup
        let out = drain(&mut p, 6);
        let EventKind::RxPacket { needs_ack, had_payload, in_order, .. } = out.events[1].kind
        else {
            panic!()
        };
        assert!(needs_ack, "RFC 793: unacceptable segment gets an ACK");
        assert!(had_payload);
        assert!(!in_order);
        assert_eq!(p.payload_dma_bytes(), 100, "duplicate not re-DMAed");
    }

    #[test]
    fn pure_ack_event_has_no_ack_due() {
        let mut p = parser_with_flow();
        p.push_segment(Segment::pure_ack(our_tuple().reversed(), SeqNum(0), SeqNum(700), 2048));
        let out = drain(&mut p, 4);
        let EventKind::RxPacket { ack, wnd, needs_ack, had_payload, .. } = out.events[0].kind
        else {
            panic!()
        };
        assert_eq!(ack, SeqNum(700));
        assert_eq!(wnd, 2048);
        assert!(!needs_ack && !had_payload, "pure ACKs are not themselves ACKed");
    }

    #[test]
    fn fin_reported_only_in_order() {
        let mut p = parser_with_flow();
        // FIN at seq 500 while 0..500 is missing: flag withheld.
        let mut fin = peer_data(500, 0);
        fin.flags = TcpFlags::FIN | TcpFlags::ACK;
        p.push_segment(fin);
        let out = drain(&mut p, 4);
        let EventKind::RxPacket { flags, .. } = out.events[0].kind else { panic!() };
        assert!(!flags.contains(TcpFlags::FIN), "out-of-order FIN withheld");
        // The missing data arrives (a plain retransmission, no FIN flag of
        // its own); the phantom completes and the parked flag rides out on
        // this event — losing it here would leave the FPU half-closed
        // forever, since the peer sees everything ACKed and stops resending.
        p.push_segment(peer_data(0, 500));
        let out = drain(&mut p, 4);
        let EventKind::RxPacket { rcv_nxt, flags, .. } = out.events[0].kind else { panic!() };
        assert_eq!(rcv_nxt, SeqNum(501), "data + FIN phantom sequenced");
        assert!(flags.contains(TcpFlags::FIN), "withheld FIN re-delivered after gap fill");
    }

    #[test]
    fn withheld_fin_not_leaked_across_reuse() {
        let mut p = parser_with_flow();
        let mut fin = peer_data(500, 0);
        fin.flags = TcpFlags::FIN | TcpFlags::ACK;
        p.push_segment(fin);
        drain(&mut p, 4);
        // The flow is torn down with the FIN still parked, and the id is
        // reissued to a fresh connection on the same tuple.
        p.remove_flow(&our_tuple(), FlowId(1));
        p.register_flow(our_tuple(), FlowId(1), SeqNum(0)).unwrap();
        p.push_segment(peer_data(0, 600));
        let out = drain(&mut p, 4);
        let EventKind::RxPacket { flags, .. } = out.events[0].kind else { panic!() };
        assert!(!flags.contains(TcpFlags::FIN), "stale pending FIN must not resurface");
    }

    /// Tracker, ACK watch and parked FIN live in one record, so teardown
    /// forgets them together: a recycled id starts from nothing.
    #[test]
    fn recycled_id_inherits_no_receive_state() {
        let mut p = parser_with_flow();
        // First incarnation: an out-of-order chunk, ACK high-water 9000
        // and a parked FIN.
        let mut seg = peer_data(500, 100);
        seg.ack = SeqNum(9_000);
        seg.flags = TcpFlags::FIN | TcpFlags::ACK;
        p.push_segment(seg);
        drain(&mut p, 4);
        let rx = p.flows.get(1).unwrap();
        assert_eq!(rx.tracker.chunk_count(), 1);
        assert_eq!(rx.ack_high, Some(SeqNum(9_000)));
        assert_eq!(rx.pending_fin, Some(SeqNum(601)));

        p.remove_flow(&our_tuple(), FlowId(1));
        assert!(p.flows.get(1).is_none() && p.tracker(FlowId(1)).is_none());
        p.register_flow(our_tuple(), FlowId(1), SeqNum(40)).unwrap();
        let rx = p.flows.get(1).unwrap();
        assert_eq!((rx.ack_high, rx.pending_fin), (None, None));
        assert_eq!(rx.tracker.rcv_nxt(), SeqNum(40));
        assert_eq!(rx.tracker.chunk_count(), 0);

        // A pure ACK far below the dead incarnation's high-water mark is
        // this connection's first: it advances, so it stays mergeable.
        p.push_segment(Segment::pure_ack(our_tuple().reversed(), SeqNum(40), SeqNum(100), 2048));
        let out = drain(&mut p, 4);
        let EventKind::RxPacket { in_order, flags, rcv_nxt, .. } = out.events[0].kind else {
            panic!()
        };
        assert!(in_order, "stale ACK watch would have tagged this a duplicate ACK");
        assert!(!flags.contains(TcpFlags::FIN));
        assert_eq!(rcv_nxt, SeqNum(40));
    }

    #[test]
    fn syn_anchors_reassembly() {
        let mut p = RxParser::new(64, 1);
        p.register_flow(our_tuple(), FlowId(3), SeqNum(0)).unwrap();
        let mut syn_ack = peer_data(77_000, 0);
        syn_ack.flags = TcpFlags::SYN | TcpFlags::ACK;
        p.push_segment(syn_ack);
        let out = drain(&mut p, 4);
        let EventKind::RxPacket { rcv_nxt, flags, .. } = out.events[0].kind else { panic!() };
        assert_eq!(rcv_nxt, SeqNum(77_001), "anchored at peer ISN + 1");
        assert!(flags.contains(TcpFlags::SYN));
    }

    #[test]
    fn unknown_tuple_syn_on_listening_port() {
        let mut p = RxParser::new(64, 1);
        // The arriving SYN targets OUR port 5000 (the reversed tuple's
        // destination).
        p.listen(5000);
        let mut syn = peer_data(5_000, 0);
        syn.flags = TcpFlags::SYN;
        p.push_segment(syn);
        let out = drain(&mut p, 4);
        assert_eq!(out.new_connections.len(), 1, "handed to the engine for allocation");
        assert!(out.events.is_empty());
        // Same SYN to a non-listening port is dropped.
        let mut p = RxParser::new(64, 1);
        let mut syn = peer_data(5_000, 0);
        syn.flags = TcpFlags::SYN;
        p.push_segment(syn);
        let out = drain(&mut p, 4);
        assert!(out.new_connections.is_empty());
        assert_eq!(p.dropped_unknown(), 1);
    }

    #[test]
    fn parse_rate_tracks_network_domain() {
        let mut p = parser_with_flow();
        for i in 0..60u32 {
            p.push_segment(peer_data(i * 10, 10));
        }
        let out = drain(&mut p, 40);
        // ~1.288 segments per engine cycle.
        assert!((50..=52).contains(&out.events.len()), "parsed {}", out.events.len());
    }

    #[test]
    fn remove_flow_stops_events() {
        let mut p = parser_with_flow();
        p.remove_flow(&our_tuple(), FlowId(1));
        p.push_segment(peer_data(0, 100));
        let out = drain(&mut p, 4);
        assert!(out.events.is_empty());
        assert_eq!(p.dropped_unknown(), 1);
    }
}
