//! The TX data path: the packet generator.
//!
//! "The packet generator passively generates packets when FPC requests a
//! data transfer... If the requested data transfer size exceeds the
//! maximum segment size, the packet generator splits the request into
//! multiple requests" (§4.1.2). It runs in the 322 MHz network domain and
//! "can be easily parallelized as its operation is stateless" (§4.4.2).
//!
//! The model produces at most `parallelism` segments per **network-domain
//! cycle**; the engine ticks it at 250 MHz and the 322/250 ratio is
//! accumulated fractionally.

use crate::event::TxRequest;
use f4t_sim::{Fifo, FlightStage, JournalKind, JournalModule, Probe};
use f4t_tcp::{Segment, TcpFlags};

/// The packet generator.
#[derive(Debug)]
pub struct PacketGenerator {
    /// Pending FPC requests (the FPU-facing FIFO whose occupancy gates
    /// TCB-manager dispatch), each with the engine cycle it left its FPC
    /// (the FtFlight `tx_emit` span start).
    requests: Fifo<(TxRequest, u64)>,
    /// Payload bytes of the head request already segmented.
    head_offset: u32,
    mss: u32,
    /// Segments producible per network cycle.
    parallelism: u32,
    /// Fractional network cycles accumulated per engine tick (×1000).
    net_cycle_credit: u64,
    segments_out: u64,
    bytes_out: u64,
    retransmissions: u64,
}

/// 322 MHz network cycles per 1000 engine (250 MHz) cycles.
const NET_PER_ENGINE_MILLI: u64 = 1288;

impl PacketGenerator {
    /// Depth of the request FIFO; `is_full` backpressures FPC dispatch.
    pub const REQUEST_FIFO_DEPTH: usize = 64;

    /// Creates a generator with the given MSS and per-cycle parallelism.
    pub fn new(mss: u32, parallelism: u32) -> PacketGenerator {
        assert!(mss > 0, "mss must be non-zero");
        assert!(parallelism > 0, "parallelism must be non-zero");
        PacketGenerator {
            requests: Fifo::new(Self::REQUEST_FIFO_DEPTH),
            head_offset: 0,
            mss,
            parallelism,
            net_cycle_credit: 0,
            segments_out: 0,
            bytes_out: 0,
            retransmissions: 0,
        }
    }

    /// Whether the request FIFO has room (FPC dispatch gate).
    pub fn can_accept(&self) -> bool {
        !self.requests.is_full()
    }

    /// Room left in the request FIFO.
    pub fn free(&self) -> usize {
        self.requests.free()
    }

    /// Queues a transmit request from an FPU pass. The FPC dispatch gate
    /// must check [`can_accept`](Self::can_accept) first; a request offered
    /// past a full FIFO is dropped (debug builds assert instead) and the
    /// retransmission path recovers, as it would for any lost segment.
    pub fn push(&mut self, req: TxRequest) {
        self.push_at(req, 0);
    }

    /// [`push`](Self::push) carrying the engine cycle the request left its
    /// FPC, recorded as the FtFlight `tx_emit` span start.
    pub fn push_at(&mut self, req: TxRequest, stamp: u64) {
        let accepted = self.requests.push((req, stamp)).is_ok();
        debug_assert!(accepted, "packet generator FIFO overrun: dispatch gate violated");
    }

    /// Advances one engine (250 MHz) cycle, emitting segments into `out`.
    /// `now_ns` stamps the TSval of data segments.
    pub fn tick(&mut self, now_ns: u64, out: &mut Vec<Segment>) {
        self.tick_probed(now_ns, 0, out, &mut Probe::detached());
    }

    /// [`tick`](Self::tick) with the engine's [`Probe`]: when the head
    /// request finishes segmenting, the span from its FPC-exit stamp to
    /// `cycle` is recorded as FtFlight `tx_emit`, and each emitted segment
    /// records a `tx_emit` FtJournal event.
    pub fn tick_probed(
        &mut self,
        now_ns: u64,
        cycle: u64,
        out: &mut Vec<Segment>,
        probe: &mut Probe,
    ) {
        self.net_cycle_credit += NET_PER_ENGINE_MILLI;
        let mut budget = (self.net_cycle_credit / 1000) * u64::from(self.parallelism);
        self.net_cycle_credit %= 1000;
        while budget > 0 {
            let Some(&(req, left_fpc_at)) = self.requests.front() else { break };
            let remaining = req.len - self.head_offset;
            let seg_len = remaining.min(self.mss);
            let seg = Segment {
                tuple: req.tuple,
                seq: req.seq.add(self.head_offset),
                ack: req.ack,
                flags: req.flags | TcpFlags::ACK,
                window: req.wnd,
                payload_len: seg_len,
                is_retransmit: req.retransmit,
                ts_val: now_ns,
                ts_ecr: req.ts_ecr,
                tag: 0,
            };
            // Control-only segments (SYN/FIN/pure ACK) keep their flags
            // exactly; data segments always carry ACK.
            let seg = if req.len == 0 {
                Segment { flags: req.flags, payload_len: 0, ..seg }
            } else {
                seg
            };
            out.push(seg);
            self.segments_out += 1;
            self.bytes_out += u64::from(seg.wire_len());
            if req.retransmit {
                self.retransmissions += 1;
            }
            probe.event(
                cycle,
                JournalModule::PacketGen,
                JournalKind::TxEmit,
                req.flow.0,
                u64::from(seg.payload_len),
                u64::from(req.retransmit),
            );
            budget -= 1;
            if self.head_offset + seg_len >= req.len {
                self.requests.pop();
                probe.span(FlightStage::TxEmit, req.flow.0, cycle.saturating_sub(left_fpc_at));
                self.head_offset = 0;
            } else {
                self.head_offset += seg_len;
            }
        }
    }

    /// Activity horizon: `Some(cycle)` while transmit requests are
    /// queued, `None` when ticking would only run the 322/250 credit
    /// arithmetic — which [`skip_idle_cycles`](Self::skip_idle_cycles)
    /// replays in closed form.
    pub fn next_activity(&self, cycle: u64) -> Option<u64> {
        if !self.requests.is_empty() {
            return Some(cycle);
        }
        None
    }

    /// Fast-forward catch-up for `n` idle cycles. With an empty request
    /// FIFO each tick is `credit += 1288; credit %= 1000` (the extracted
    /// budget finds nothing to segment), so `n` ticks fold to one modular
    /// step. The engine only calls this when the MAC buffer is below its
    /// cap — when it is full the tick-by-tick path skips the generator
    /// entirely and the credit must stay frozen.
    pub fn skip_idle_cycles(&mut self, n: u64) {
        debug_assert!(self.requests.is_empty(), "packet-gen fast-forward with queued requests");
        self.net_cycle_credit = ((u128::from(self.net_cycle_credit)
            + u128::from(NET_PER_ENGINE_MILLI) * u128::from(n))
            % 1000) as u64;
    }

    /// Total segments emitted.
    pub fn segments_out(&self) -> u64 {
        self.segments_out
    }

    /// Total wire bytes emitted (payload + per-packet overhead).
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// Retransmitted segments emitted.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_tcp::{FlowId, FourTuple, SeqNum, MSS};

    fn req(len: u32) -> TxRequest {
        TxRequest {
            flow: FlowId(1),
            tuple: FourTuple::default(),
            seq: SeqNum(1000),
            len,
            ack: SeqNum(500),
            wnd: 4096,
            flags: TcpFlags::ACK,
            retransmit: false,
            ts_ecr: 7,
        }
    }

    fn drain(pg: &mut PacketGenerator, ticks: u64) -> Vec<Segment> {
        let mut out = Vec::new();
        for t in 0..ticks {
            pg.tick(t * 4, &mut out);
        }
        out
    }

    #[test]
    fn splits_large_request_at_mss() {
        let mut pg = PacketGenerator::new(MSS, 1);
        pg.push(req(3 * MSS + 100));
        let segs = drain(&mut pg, 10);
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[0].payload_len, MSS);
        assert_eq!(segs[0].seq, SeqNum(1000));
        assert_eq!(segs[1].seq, SeqNum(1000).add(MSS));
        assert_eq!(segs[3].payload_len, 100);
        // All segments carry the request's ACK/window/TSecr.
        assert!(segs.iter().all(|s| s.ack == SeqNum(500) && s.window == 4096 && s.ts_ecr == 7));
    }

    #[test]
    fn small_request_single_segment() {
        let mut pg = PacketGenerator::new(MSS, 1);
        pg.push(req(128));
        let segs = drain(&mut pg, 4);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].payload_len, 128);
    }

    #[test]
    fn pure_ack_passthrough() {
        let mut pg = PacketGenerator::new(MSS, 1);
        let mut r = req(0);
        r.flags = TcpFlags::SYN;
        pg.push(r);
        let segs = drain(&mut pg, 4);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].payload_len, 0);
        assert_eq!(segs[0].flags, TcpFlags::SYN, "control flags not mangled");
    }

    #[test]
    fn rate_tracks_network_domain() {
        // One segment per 322 MHz cycle = 1.288 per engine cycle.
        let mut pg = PacketGenerator::new(MSS, 1);
        for _ in 0..60 {
            pg.push(req(MSS));
        }
        let segs = drain(&mut pg, 40);
        // 40 engine cycles → ~51 network cycles.
        assert!((50..=52).contains(&segs.len()), "emitted {}", segs.len());
    }

    #[test]
    fn parallelism_multiplies_rate() {
        let mut pg = PacketGenerator::new(MSS, 4);
        for _ in 0..64 {
            pg.push(req(MSS));
        }
        let segs = drain(&mut pg, 13);
        // 13 engine cycles → 16 net cycles → 64 segments with 4-way.
        assert!(segs.len() >= 60, "emitted {}", segs.len());
    }

    #[test]
    fn counters_and_backpressure() {
        let mut pg = PacketGenerator::new(MSS, 1);
        let mut r = req(MSS);
        r.retransmit = true;
        pg.push(r);
        let segs = drain(&mut pg, 4);
        assert!(segs[0].is_retransmit);
        assert_eq!(pg.retransmissions(), 1);
        assert_eq!(pg.segments_out(), 1);
        assert_eq!(pg.bytes_out(), u64::from(MSS + 78));
        assert!(pg.can_accept());
        for _ in 0..PacketGenerator::REQUEST_FIFO_DEPTH {
            pg.push(req(1));
        }
        assert!(!pg.can_accept());
    }

    fn overrun() -> PacketGenerator {
        let mut pg = PacketGenerator::new(MSS, 1);
        for _ in 0..=PacketGenerator::REQUEST_FIFO_DEPTH {
            pg.push(req(1));
        }
        pg
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dispatch gate violated")]
    fn overrun_panics() {
        overrun();
    }

    /// Release builds compile the assertion out: the request is refused.
    #[test]
    #[cfg(not(debug_assertions))]
    fn overrun_is_refused() {
        assert_eq!(overrun().requests.len(), PacketGenerator::REQUEST_FIFO_DEPTH);
    }
}
