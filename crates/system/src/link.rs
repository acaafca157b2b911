//! The one wire between two engines.
//!
//! The evaluation connects nodes back-to-back (§5: "we set up the network
//! by directly connecting ... two FtEngines"). Each direction serializes
//! segments at line rate (observed from the 250 MHz engine domain) and
//! delivers them after a fixed propagation + MAC/PHY delay. The pristine
//! link does not drop; hostile-network scenarios attach an
//! [`Impairments`] profile (FtStorm, DESIGN.md §14) that can lose
//! (randomly, in bursts or every Nth), duplicate, reorder and jitter
//! **data** segments — ACKs are never impaired, and decisions are drawn
//! from per-direction deterministic streams so every run replays
//! bit-identically from its seed.
//!
//! [`DuplexLink::carry`] moves segments between two engines; `F4tSystem`
//! calls it once per system tick, and [`EnginePair`] drives it between
//! two bare engines for tests and figure harnesses. For a node window
//! (DESIGN.md §12.4) the link splits into two halves, one per node, for
//! as many cycles as [`DuplexLink::lookahead_cycles`] allows. That rests
//! on one fact: no impairment makes a segment arrive sooner than one
//! delay after the send that released it — loss, duplication and jitter
//! only add delay, and a countdown release queues behind the send that
//! triggers it. The exceptions keep their own rules: a held segment's
//! flush deadline, which delivery runs on the *receiver's* clock, ends a
//! window early (`DuplexLink::cycles_to_flush`); a dropped send that
//! releases a hold, possible only on a direction that both loses and
//! holds, keeps the link in lock-step. Each half tapes what it sends
//! while a capture is on, and the join writes the two tapes in lock-step
//! order.

use f4t_core::{Engine, EngineConfig, CYCLE_NS};
use f4t_netsim::{ImpairState, Impairments};
use f4t_sim::clock::BytePacer;
use f4t_sim::ClockDomain;
use f4t_tcp::pcap::PcapWriter;
use f4t_tcp::{MacAddr, Segment};
use std::collections::VecDeque;
use std::mem;

/// Packet-capture cap: recording stops after this many packets so bulk
/// runs cannot balloon the in-memory capture (tcpdump `-c` style).
pub(crate) const PCAP_MAX_PACKETS: u64 = 10_000;

/// A reordered segment held aside: it re-enters the delivery queue after
/// `countdown` further data segments pass it, or at `deadline_ns` if the
/// direction goes quiet first (so a held tail segment cannot dangle).
#[derive(Debug)]
struct HeldSegment {
    countdown: u64,
    deadline_ns: u64,
    arrival_ns: u64,
    seg: Segment,
}

/// One direction of the link.
#[derive(Debug)]
struct LinkDir {
    pacer: BytePacer,
    /// One-way propagation + MAC delay.
    delay_ns: u64,
    in_flight: VecDeque<(u64, Segment)>,
    held: Vec<HeldSegment>,
    bytes: u64,
    segments: u64,
    impair: Option<ImpairState>,
    dropped_loss: u64,
    duplicated: u64,
    reordered: u64,
}

impl LinkDir {
    /// An empty direction with `pacer`'s rate and credit.
    fn new(pacer: BytePacer, delay_ns: u64) -> LinkDir {
        LinkDir {
            pacer,
            delay_ns,
            in_flight: VecDeque::new(),
            held: Vec::new(),
            bytes: 0,
            segments: 0,
            impair: None,
            dropped_loss: 0,
            duplicated: 0,
            reordered: 0,
        }
    }

    /// How long a reordered segment may be held before the flush
    /// deadline forces delivery (keeps quiet directions live while
    /// staying far below the 5 ms RTO floor).
    fn hold_flush_ns(&self) -> u64 {
        8 * self.delay_ns.max(1_000)
    }

    /// Whether a segment of `wire_len` can be serialized right now.
    fn can_send(&self, wire_len: u32) -> bool {
        self.pacer.available() >= u64::from(wire_len)
    }

    /// Sends from `from`'s TX queue until it empties or the direction
    /// runs out of credit, showing each segment to `tap` as it leaves;
    /// whether anything was sent.
    #[inline]
    fn drain(&mut self, from: &mut Engine, now_ns: u64, mut tap: impl FnMut(&Segment)) -> bool {
        let mut sent = false;
        while let Some(seg) = from.peek_tx() {
            if !self.can_send(seg.wire_len()) {
                break;
            }
            let Some(seg) = from.pop_tx() else { break };
            tap(&seg);
            self.send(seg, now_ns);
            sent = true;
        }
        sent
    }

    /// Whether a dropped send on this direction can release a held
    /// segment: it both loses (random, scripted or burst loss) and holds
    /// (a reorder profile, or segments still held from an earlier one).
    /// Such a release queues behind an old back, possibly due at once.
    fn drop_may_release(&self) -> bool {
        let Some(imp) = self.impair.as_ref().map(ImpairState::config) else { return false };
        let loses = imp.loss_p > 0.0 || imp.every_nth.is_some() || imp.ge.is_some();
        loses && (imp.reorder_p > 0.0 || !self.held.is_empty())
    }

    /// Sends a segment (the caller checked [`Self::can_send`]).
    fn send(&mut self, seg: Segment, now_ns: u64) {
        let flush_ns = self.hold_flush_ns();
        let consumed = self.pacer.try_consume(u64::from(seg.wire_len()));
        debug_assert!(consumed, "send without can_send");
        self.bytes += u64::from(seg.wire_len());
        self.segments += 1;
        let arrival = now_ns + self.delay_ns;
        // Impairments judge data segments only; ACKs pass clean and do
        // not count toward reorder displacement.
        if !seg.has_payload() {
            self.enqueue(arrival, seg);
            return;
        }
        let decision = match self.impair.as_mut() {
            Some(st) => st.decide(),
            None => f4t_netsim::ImpairDecision::default(),
        };
        if decision.drop {
            // The wire time was spent; the segment dies on the link.
            self.dropped_loss += 1;
            self.pass_held();
            return;
        }
        let arrival = arrival + decision.jitter_ns;
        if decision.reorder > 0 {
            self.reordered += 1;
            self.held.push(HeldSegment {
                countdown: decision.reorder,
                deadline_ns: arrival + flush_ns,
                arrival_ns: arrival,
                seg,
            });
            return;
        }
        self.enqueue(arrival, seg);
        if decision.duplicate {
            self.duplicated += 1;
            self.enqueue(arrival, seg);
        }
        self.pass_held();
    }

    /// Enqueues a delivery, clamping the arrival so the queue stays
    /// non-decreasing (delivery only ever inspects the front).
    fn enqueue(&mut self, arrival_ns: u64, seg: Segment) {
        let at = match self.in_flight.back() {
            Some(&(back, _)) => back.max(arrival_ns),
            None => arrival_ns,
        };
        self.in_flight.push_back((at, seg));
    }

    /// One data segment passed the held buffer: countdowns tick, and any
    /// segment whose displacement is spent re-enters behind the queue.
    fn pass_held(&mut self) {
        let mut i = 0;
        while i < self.held.len() {
            self.held[i].countdown = self.held[i].countdown.saturating_sub(1);
            if self.held[i].countdown == 0 {
                let h = self.held.remove(i);
                self.enqueue(h.arrival_ns, h.seg);
            } else {
                i += 1;
            }
        }
    }

    /// Releases held segments whose flush deadline passed (the liveness
    /// bound for a held tail segment on a quiet direction).
    fn flush_held(&mut self, now_ns: u64) {
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].deadline_ns <= now_ns {
                let h = self.held.remove(i);
                self.enqueue(h.arrival_ns, h.seg);
            } else {
                i += 1;
            }
        }
    }
}

/// A full-duplex fixed-latency link.
#[derive(Debug)]
pub struct DuplexLink {
    dirs: [LinkDir; 2],
    /// Optional capture of every sent segment (both directions, capped
    /// at [`PCAP_MAX_PACKETS`]); see [`DuplexLink::enable_pcap`].
    pcap: Option<PcapWriter<Vec<u8>>>,
    /// Each direction's window send queue, emptied into the in-flight
    /// queue when its node window closed: the next window's half sends
    /// into it, so no window regrows a queue from empty.
    spare: [VecDeque<(u64, Segment)>; 2],
}

/// Direction index: node A → node B.
pub const A_TO_B: usize = 0;
/// Direction index: node B → node A.
pub const B_TO_A: usize = 1;

/// A segment as it left a node in a window, for the capture: the
/// sending cycle's clock, the segment, and the source and destination
/// MACs.
type Taped = (u64, Segment, MacAddr, MacAddr);

impl DuplexLink {
    /// Creates a link of `gbps` with one-way latency `delay_ns`
    /// (direct-attach 100G ≈ 1 µs including MAC/PHY and cabling).
    pub fn new(gbps: u64, delay_ns: u64) -> DuplexLink {
        let pacer = BytePacer::for_link(gbps, ClockDomain::ENGINE_CORE, 2 * 1538);
        DuplexLink::with_pacer(pacer, delay_ns)
    }

    /// A link that neither paces nor delays: every segment is delivered
    /// by the carry that sent it. Its pacer is an ordinary one whose
    /// credit no pair of engines can exhaust, so the paced path pays no
    /// extra branch for it.
    pub fn ideal() -> DuplexLink {
        const UNLIMITED: u64 = u64::MAX / 4;
        let mut pacer = BytePacer::new(UNLIMITED, 1, UNLIMITED);
        pacer.tick(); // start full: nothing is refused even before a tick
        DuplexLink::with_pacer(pacer, 0)
    }

    fn with_pacer(pacer: BytePacer, delay_ns: u64) -> DuplexLink {
        let dirs = [LinkDir::new(pacer.clone(), delay_ns), LinkDir::new(pacer, delay_ns)];
        DuplexLink { dirs, pcap: None, spare: Default::default() }
    }

    /// The paper's testbed link.
    pub fn hundred_gig() -> DuplexLink {
        DuplexLink::new(100, 1_000)
    }

    /// Attaches an impairment profile to both directions. Each direction
    /// draws from its own reseeded decision stream; `clean` (inactive)
    /// profiles detach impairment entirely.
    pub fn set_impairments(&mut self, imp: Impairments) {
        for (i, d) in self.dirs.iter_mut().enumerate() {
            d.impair = imp.is_active().then(|| ImpairState::new(imp.reseeded(i as u64)));
        }
    }

    /// Starts capturing every sent segment (both directions) as a
    /// libpcap stream in memory, truncating payloads at `payload_cap`
    /// bytes (snaplen). Recording stops after [`PCAP_MAX_PACKETS`]
    /// packets.
    pub fn enable_pcap(&mut self, payload_cap: u32) {
        // Writing into a Vec cannot fail.
        self.pcap = PcapWriter::new(Vec::new(), payload_cap).ok();
    }

    /// Packets captured so far (0 when capture is off).
    pub fn pcap_packets(&self) -> u64 {
        self.pcap.as_ref().map_or(0, PcapWriter::packets)
    }

    /// Finishes the capture and returns the pcap bytes, ready to write
    /// to disk and open in Wireshark. `None` when capture was never
    /// enabled.
    pub fn take_pcap(&mut self) -> Option<Vec<u8>> {
        self.pcap.take().and_then(|w| w.finish().ok())
    }

    /// Accrues one engine cycle of serialization budget.
    pub fn tick(&mut self) {
        for d in &mut self.dirs {
            d.pacer.tick();
        }
    }

    /// Accrues `n` engine cycles of serialization budget at once
    /// (identical to `n` calls of [`Self::tick`]).
    pub fn tick_n(&mut self, n: u64) {
        for d in &mut self.dirs {
            d.pacer.tick_n(n);
        }
    }

    /// Engine cycles the two ends can run apart — each unable to see what
    /// the other sends before then: the one-way delay in whole cycles
    /// (250 on the 100G link), since no impairment delivers a segment
    /// sooner than one delay after the send that released it. 0 on the
    /// ideal link, and while a direction both loses and holds: a dropped
    /// send there can release a held segment that is due at once.
    /// Held segments' flush deadlines cut windows further (see
    /// `cycles_to_flush`).
    pub fn lookahead_cycles(&self) -> u64 {
        if self.dirs.iter().any(LinkDir::drop_may_release) {
            0
        } else {
            self.dirs[A_TO_B].delay_ns / CYCLE_NS
        }
    }

    /// Cycles from `cycle` until the first cycle whose delivery flushes a
    /// held segment by its deadline (`u64::MAX` with nothing held). That
    /// flush runs on the receiver's clock, so a window must end before it.
    /// A hold made inside a window has a deadline far past its end.
    pub(crate) fn cycles_to_flush(&self, cycle: u64) -> u64 {
        let deadline = self.dirs.iter().flat_map(|d| &d.held).map(|h| h.deadline_ns).min();
        deadline.map_or(u64::MAX, |ns| ns.div_ceil(CYCLE_NS).saturating_sub(cycle))
    }

    /// Splits the link for a node window: node `a`'s half, then node
    /// `b`'s. Each half takes the direction its node sends on and the
    /// segments already in flight toward its node; while a capture is
    /// on, it tapes its sends, addressed to the peer in `macs` (`[a, b]`).
    pub(crate) fn open_window(&mut self, macs: [MacAddr; 2]) -> (LinkHalf, LinkHalf) {
        let [(a_to_b, to_b), (b_to_a, to_a)] = [A_TO_B, B_TO_A].map(|dir| {
            let d = &mut self.dirs[dir];
            let empty = LinkDir::new(d.pacer.clone(), d.delay_ns);
            let mut tx = mem::replace(d, empty);
            let in_flight = mem::replace(&mut tx.in_flight, mem::take(&mut self.spare[dir]));
            (tx, in_flight)
        });
        let capturing = self.pcap.as_ref().is_some_and(|w| w.packets() < PCAP_MAX_PACKETS);
        let tape = || capturing.then(Vec::new);
        (
            LinkHalf { tx: a_to_b, rx: to_a, to_mac: macs[1], tape: tape() },
            LinkHalf { tx: b_to_a, rx: to_b, to_mac: macs[0], tape: tape() },
        )
    }

    /// Joins the halves of [`Self::open_window`] back into the link. The
    /// window's sends on each direction queue behind the segments still
    /// in flight on it — every one of them was sent before the window —
    /// and the sends that would arrive before that queue's back wait for
    /// it, as [`LinkDir::enqueue`] clamps them in lock-step. Window sends
    /// are non-decreasing, so only a prefix of them can need it. The
    /// emptied window queues are kept for the next window. The tapes go
    /// to the capture in lock-step order.
    pub(crate) fn close_window(&mut self, a: LinkHalf, b: LinkHalf) {
        self.record_tapes(a.tape, b.tape);
        for (dir, mut tx, mut rx) in [(A_TO_B, a.tx, b.rx), (B_TO_A, b.tx, a.rx)] {
            if let Some(&(back, _)) = rx.back() {
                for (at, _) in tx.in_flight.iter_mut().take_while(|(at, _)| *at < back) {
                    *at = back;
                }
            }
            rx.append(&mut tx.in_flight);
            debug_assert!(rx.iter().map(|&(at, _)| at).is_sorted(), "in-flight arrivals regress");
            self.spare[dir] = mem::replace(&mut tx.in_flight, rx);
            self.dirs[dir] = tx;
        }
    }

    /// Writes a window's tapes to the capture as lock-step records them —
    /// by cycle, A→B before B→A — up to [`PCAP_MAX_PACKETS`].
    fn record_tapes(&mut self, a: Option<Vec<Taped>>, b: Option<Vec<Taped>>) {
        let Some(w) = &mut self.pcap else { return };
        let mut record = |(now_ns, seg, from_mac, to_mac): Taped| {
            if w.packets() < PCAP_MAX_PACKETS {
                let _ = w.record(now_ns, &seg, from_mac, to_mac);
            }
        };
        let mut b = b.unwrap_or_default().into_iter().peekable();
        for x in a.unwrap_or_default() {
            while let Some(y) = b.next_if(|y| y.0 < x.0) {
                record(y);
            }
            record(x);
        }
        b.for_each(record);
    }

    /// Moves segments between engine `a` (direction [`A_TO_B`]) and
    /// engine `b` at `now_ns`: drains each TX queue while its direction
    /// has serialization credit (the MAC-side backpressure gate), A
    /// first, then hands every due segment to its receiver, A→B first.
    /// Returns whether any segment left either TX queue.
    #[inline]
    pub fn carry(&mut self, a: &mut Engine, b: &mut Engine, now_ns: u64) -> bool {
        let a_sent = self.drain_tx(A_TO_B, a, b.mac, now_ns);
        let b_sent = self.drain_tx(B_TO_A, b, a.mac, now_ns);
        while let Some(seg) = self.deliver(A_TO_B, now_ns) {
            b.push_rx(seg);
        }
        while let Some(seg) = self.deliver(B_TO_A, now_ns) {
            a.push_rx(seg);
        }
        a_sent || b_sent
    }

    /// Sends from `from`'s TX queue into `dir` until it empties or the
    /// direction runs out of credit, capturing each segment if a capture
    /// is on; whether anything was sent.
    #[inline]
    fn drain_tx(&mut self, dir: usize, from: &mut Engine, to_mac: MacAddr, now_ns: u64) -> bool {
        let (pcap, from_mac) = (&mut self.pcap, from.mac);
        self.dirs[dir].drain(from, now_ns, |seg| {
            if let Some(w) = pcap {
                if w.packets() < PCAP_MAX_PACKETS {
                    let _ = w.record(now_ns, seg, from_mac, to_mac);
                }
            }
        })
    }

    /// Whether direction `dir` can serialize a segment of `wire_len`
    /// right now (the MAC-side drain gate: the engine's TX buffer keeps
    /// backpressure when this is false).
    pub fn can_send(&self, dir: usize, wire_len: u32) -> bool {
        self.dirs[dir].can_send(wire_len)
    }

    /// Sends a segment (caller must have checked [`Self::can_send`]).
    pub fn send(&mut self, dir: usize, seg: Segment, now_ns: u64) {
        self.dirs[dir].send(seg, now_ns);
    }

    /// Pops the next segment due for delivery in `dir` at `now_ns`.
    pub fn deliver(&mut self, dir: usize, now_ns: u64) -> Option<Segment> {
        let d = &mut self.dirs[dir];
        if !d.held.is_empty() {
            d.flush_held(now_ns);
        }
        if d.in_flight.front().is_some_and(|&(at, _)| at <= now_ns) {
            d.in_flight.pop_front().map(|(_, s)| s)
        } else {
            None
        }
    }

    /// Wire bytes carried in `dir`.
    pub fn bytes(&self, dir: usize) -> u64 {
        self.dirs[dir].bytes
    }

    /// Segments carried in `dir`.
    pub fn segments(&self, dir: usize) -> u64 {
        self.dirs[dir].segments
    }

    /// Data segments lost to the impairment model in `dir`.
    pub fn dropped_loss(&self, dir: usize) -> u64 {
        self.dirs[dir].dropped_loss
    }

    /// Duplicate deliveries injected in `dir`.
    pub fn duplicated(&self, dir: usize) -> u64 {
        self.dirs[dir].duplicated
    }

    /// Data segments held back (reordered) in `dir`.
    pub fn reordered(&self, dir: usize) -> u64 {
        self.dirs[dir].reordered
    }

    /// Total impairment events (loss + duplication + reordering) across
    /// both directions — the scenario matrix asserts this is non-zero
    /// under every non-clean profile.
    pub fn impairment_events(&self) -> u64 {
        self.dirs
            .iter()
            .map(|d| d.dropped_loss + d.duplicated + d.reordered)
            .sum()
    }
}

/// One node's share of a [`DuplexLink`] during a node window: the
/// direction it sends on, and the segments already in flight toward it
/// when the window opened. Nothing the other node sends in the window can
/// arrive before it closes, so the node steps against its half alone.
#[derive(Debug)]
pub(crate) struct LinkHalf {
    tx: LinkDir,
    rx: VecDeque<(u64, Segment)>,
    /// The peer's MAC, the destination of every taped send.
    to_mac: MacAddr,
    /// This node's sends, while a capture is on.
    tape: Option<Vec<Taped>>,
}

impl LinkHalf {
    /// Accrues one cycle of the send direction's credit.
    pub(crate) fn tick(&mut self) {
        self.tx.pacer.tick();
    }

    /// Whether [`Self::carry`] at `now_ns` would take a segment from
    /// `engine`'s TX or hand it an arrival.
    pub(crate) fn due(&self, engine: &Engine, now_ns: u64) -> bool {
        engine.peek_tx().is_some_and(|seg| self.tx.can_send(seg.wire_len()))
            || self.rx.front().is_some_and(|&(at, _)| at <= now_ns)
    }

    /// Drains `engine`'s TX onto the wire, then hands it every arrival due
    /// at `now_ns` — this node's end of [`DuplexLink::carry`]. Returns
    /// whether an arrival was handed over.
    pub(crate) fn carry(&mut self, engine: &mut Engine, now_ns: u64) -> bool {
        let (tape, from_mac, to_mac) = (&mut self.tape, engine.mac, self.to_mac);
        self.tx.drain(engine, now_ns, |seg| {
            if let Some(t) = tape {
                t.push((now_ns, *seg, from_mac, to_mac));
            }
        });
        let mut delivered = false;
        while self.rx.front().is_some_and(|&(at, _)| at <= now_ns) {
            if let Some((_, seg)) = self.rx.pop_front() {
                engine.push_rx(seg);
                delivered = true;
            }
        }
        delivered
    }
}

/// Two bare engines joined by one [`DuplexLink`] (`a` sends on
/// [`A_TO_B`]). The pair moves segments only: host commands and
/// notifications stay with the caller.
#[derive(Debug)]
pub struct EnginePair {
    /// The engine on the link's A side.
    pub a: Engine,
    /// The engine on the link's B side.
    pub b: Engine,
    /// The wire between them.
    pub link: DuplexLink,
}

impl EnginePair {
    /// Two fresh engines of `cfg` on `link`.
    pub fn new(cfg: EngineConfig, link: DuplexLink) -> EnginePair {
        EnginePair { a: Engine::new(cfg.clone()), b: Engine::new(cfg), link }
    }

    /// Advances `cycles` engine cycles: the link accrues that much
    /// serialization credit, `a` runs, then `b`, and the link carries at
    /// their post-step clock — so the link clock advances with the
    /// engines'. Returns whether any segment left either TX queue.
    pub fn step(&mut self, cycles: u64) -> bool {
        self.link.tick_n(cycles);
        self.a.run(cycles);
        self.b.run(cycles);
        let now = self.a.now_ns();
        self.link.carry(&mut self.a, &mut self.b, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_core::{EventKind, HostNotification};
    use f4t_netsim::EveryNth;
    use f4t_tcp::{FlowId, FourTuple, SeqNum, TCP_BUFFER};

    fn seg(len: u32) -> Segment {
        Segment::data(FourTuple::default(), SeqNum(0), SeqNum(0), len)
    }

    fn data_at(seq: u32, len: u32) -> Segment {
        Segment::data(FourTuple::default(), SeqNum(seq), SeqNum(0), len)
    }

    fn ack() -> Segment {
        Segment::pure_ack(FourTuple::default(), SeqNum(0), SeqNum(0), 65_535)
    }

    fn ticked(mut l: DuplexLink, n: u64) -> DuplexLink {
        for _ in 0..n {
            l.tick();
        }
        l
    }

    #[test]
    fn serialization_budget_paces() {
        let mut l = DuplexLink::hundred_gig();
        // Two MTU burst allowance; a third back-to-back MTU must wait.
        l.tick();
        for _ in 0..61 {
            l.tick(); // ~3100 B of credit total
        }
        assert!(l.can_send(A_TO_B, 1538));
        l.send(A_TO_B, seg(1460), 0);
        assert!(l.can_send(A_TO_B, 1538));
        l.send(A_TO_B, seg(1460), 0);
        assert!(!l.can_send(A_TO_B, 1538), "line rate enforced");
    }

    #[test]
    fn delivery_after_delay() {
        let mut l = ticked(DuplexLink::new(100, 500), 10);
        l.send(A_TO_B, seg(100), 1_000);
        assert!(l.deliver(A_TO_B, 1_400).is_none(), "still propagating");
        assert!(l.deliver(A_TO_B, 1_500).is_some());
        assert!(l.deliver(A_TO_B, 1_500).is_none());
    }

    #[test]
    fn directions_independent() {
        let mut l = ticked(DuplexLink::hundred_gig(), 10);
        l.send(A_TO_B, seg(64), 0);
        l.send(B_TO_A, seg(64), 0);
        assert_eq!(l.segments(A_TO_B), 1);
        assert_eq!(l.segments(B_TO_A), 1);
        assert_eq!(l.bytes(A_TO_B), 64 + 78);
        assert!(l.deliver(B_TO_A, 10_000).is_some());
        assert!(l.deliver(A_TO_B, 10_000).is_some());
    }

    #[test]
    fn hundred_gig_sustains_line_rate() {
        // 50 B/cycle: 1538 B frames every ~31 cycles = 100 Gbps.
        let mut l = DuplexLink::hundred_gig();
        let mut sent = 0u64;
        for c in 0..250_000u64 {
            l.tick();
            if l.can_send(A_TO_B, 1538) {
                l.send(A_TO_B, seg(1460), c * 4);
                sent += 1;
            }
        }
        let gbps = f4t_sim::gbps(sent * 1538, 1_000_000);
        assert!((98.0..=100.5).contains(&gbps), "got {gbps:.1}");
    }

    #[test]
    fn impaired_loss_spares_acks() {
        let mut l = ticked(DuplexLink::hundred_gig(), 200);
        l.set_impairments(Impairments { loss_p: 1.0, seed: 9, ..Impairments::none() });
        l.send(A_TO_B, seg(100), 0);
        l.send(A_TO_B, ack(), 0);
        assert_eq!(l.dropped_loss(A_TO_B), 1, "data lost");
        let delivered = l.deliver(A_TO_B, 10_000).expect("ACK passes clean");
        assert!(!delivered.has_payload());
        assert!(l.deliver(A_TO_B, 10_000).is_none());
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut l = ticked(DuplexLink::hundred_gig(), 200);
        l.set_impairments(Impairments { dup_p: 1.0, seed: 9, ..Impairments::none() });
        l.send(A_TO_B, seg(100), 0);
        assert!(l.deliver(A_TO_B, 10_000).is_some());
        assert!(l.deliver(A_TO_B, 10_000).is_some(), "duplicate copy");
        assert!(l.deliver(A_TO_B, 10_000).is_none());
        assert_eq!(l.duplicated(A_TO_B), 1);
    }

    #[test]
    fn reordering_displaces_behind_later_sends() {
        let mut l = ticked(DuplexLink::hundred_gig(), 500);
        l.set_impairments(Impairments {
            reorder_p: 1.0,
            reorder_depth: 1,
            seed: 9,
            ..Impairments::none()
        });
        // The first segment is judged "hold for 1 data pass"; detach
        // impairment so the second passes clean and releases it.
        l.send(A_TO_B, data_at(0, 100), 0);
        assert_eq!(l.reordered(A_TO_B), 1);
        assert!(l.deliver(A_TO_B, 5_000).is_none(), "held, not delivered");
        l.set_impairments(Impairments::none());
        l.send(A_TO_B, data_at(100, 100), 100);
        let first = l.deliver(A_TO_B, 5_000).expect("passing segment delivers");
        assert_eq!(first.seq, SeqNum(100), "later send overtakes the held one");
        let second = l.deliver(A_TO_B, 5_000).expect("held segment re-enters behind it");
        assert_eq!(second.seq, SeqNum(0));
    }

    #[test]
    fn held_tail_segment_flushes_on_quiet_direction() {
        let mut l = ticked(DuplexLink::hundred_gig(), 500);
        l.set_impairments(Impairments {
            reorder_p: 1.0,
            reorder_depth: 3,
            seed: 9,
            ..Impairments::none()
        });
        l.send(A_TO_B, data_at(0, 100), 0);
        assert_eq!(l.reordered(A_TO_B), 1);
        // Nothing else is ever sent: the flush deadline (8x delay) must
        // release the segment rather than wedging the flow.
        assert!(l.deliver(A_TO_B, 8_000).is_none());
        let s = l.deliver(A_TO_B, 20_000).expect("deadline flush releases the tail");
        assert_eq!(s.seq, SeqNum(0));
    }

    #[test]
    fn reorder_swaps_wire_order() {
        let mut l = ticked(DuplexLink::hundred_gig(), 500);
        // Seeded so only some segments are held: verify at least one
        // delivery happens out of send order.
        l.set_impairments(Impairments {
            reorder_p: 0.5,
            reorder_depth: 2,
            seed: 1,
            ..Impairments::none()
        });
        let mut order = Vec::new();
        for i in 0..20u32 {
            for _ in 0..100 {
                l.tick();
            }
            l.send(A_TO_B, data_at(i * 100, 100), u64::from(i) * 2_000);
            while let Some(s) = l.deliver(A_TO_B, u64::from(i) * 2_000 + 1_500) {
                order.push(s.seq.0);
            }
        }
        while let Some(s) = l.deliver(A_TO_B, u64::MAX) {
            order.push(s.seq.0);
        }
        assert_eq!(order.len(), 20, "nothing lost");
        assert!(order.windows(2).any(|w| w[1] < w[0]), "no reordering in {order:?}");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).map(|i| i * 100).collect::<Vec<_>>());
    }

    #[test]
    fn impaired_runs_replay_deterministically() {
        let imp = Impairments::profile("burst-loss").unwrap();
        let run = || {
            let mut l = ticked(DuplexLink::hundred_gig(), 4_000);
            l.set_impairments(imp);
            let mut delivered = Vec::new();
            for i in 0..2_000u32 {
                for _ in 0..100 {
                    l.tick();
                }
                let now = u64::from(i) * 1_000;
                l.send(A_TO_B, data_at(i * 100, 100), now);
                while let Some(s) = l.deliver(A_TO_B, now) {
                    delivered.push(s.seq.0);
                }
            }
            (delivered, l.dropped_loss(A_TO_B))
        };
        let (a, la) = run();
        let (b, lb) = run();
        assert_eq!(a, b);
        assert_eq!(la, lb);
        assert!(la > 0, "burst loss engaged");
    }

    #[test]
    fn delivery_times_stay_monotonic_under_impairments() {
        let mut l = ticked(DuplexLink::hundred_gig(), 4_000);
        l.set_impairments(Impairments {
            reorder_p: 0.3,
            reorder_depth: 3,
            dup_p: 0.2,
            jitter_ns: 1_500,
            seed: 77,
            ..Impairments::none()
        });
        let mut count = 0;
        for i in 0..500u32 {
            for _ in 0..100 {
                l.tick();
            }
            let now = u64::from(i) * 500;
            l.send(A_TO_B, data_at(i, 100), now);
            // Any due segment must actually pop (front-only delivery
            // would wedge if arrivals regressed).
            while l.deliver(A_TO_B, now).is_some() {
                count += 1;
            }
        }
        while l.deliver(A_TO_B, u64::MAX).is_some() {
            count += 1;
        }
        assert!(count > 400, "delivered {count}");
    }

    #[test]
    fn every_nth_loss_counts_data_segments_only() {
        let mut l = ticked(DuplexLink::hundred_gig(), 100);
        let every_nth = Some(EveryNth { n: 3, start: 2 });
        l.set_impairments(Impairments { every_nth, ..Impairments::none() });
        for i in 1..=9u32 {
            // ACKs pass clean and do not advance the data-packet index.
            l.send(A_TO_B, ack(), 0);
            l.send(A_TO_B, data_at(i, 100), 0);
        }
        let (mut data, mut acks) = (Vec::new(), 0);
        while let Some(s) = l.deliver(A_TO_B, 10_000) {
            if s.has_payload() {
                data.push(s.seq.0);
            } else {
                acks += 1;
            }
        }
        assert_eq!(acks, 9);
        assert_eq!(data, [1, 3, 4, 6, 7, 9], "data segments 2, 5, 8 lost");
        assert_eq!(l.dropped_loss(A_TO_B), 3);
    }

    #[test]
    fn every_nth_composes_with_random_loss_on_the_wire() {
        let delivered = |imp: Impairments| {
            let mut l = DuplexLink::hundred_gig();
            l.set_impairments(imp);
            let mut got = Vec::new();
            for i in 1..=300u32 {
                l.tick_n(10);
                l.send(A_TO_B, data_at(i, 100), 0);
                while let Some(s) = l.deliver(A_TO_B, 10_000) {
                    got.push(s.seq.0);
                }
            }
            got
        };
        let random = Impairments { loss_p: 0.2, seed: 5, ..Impairments::none() };
        let lossy = delivered(random);
        let every_nth = Some(EveryNth { n: 3, start: 2 });
        let both = delivered(Impairments { every_nth, ..random });
        // Either mechanism drops; neither shifts the other's schedule.
        let expect: Vec<u32> = lossy.iter().copied().filter(|i| i % 3 != 2).collect();
        assert_eq!(both, expect);
        assert!(lossy.len() < 270, "random loss engaged: {} of 300 delivered", lossy.len());
    }

    /// Reorder every data segment by up to 3, plus `loss_p` loss.
    fn reorder_all(loss_p: f64) -> Impairments {
        Impairments { reorder_p: 1.0, reorder_depth: 3, loss_p, seed: 9, ..Impairments::none() }
    }

    #[test]
    fn lookahead_is_the_delay_unless_a_drop_can_release_a_hold() {
        assert_eq!(DuplexLink::hundred_gig().lookahead_cycles(), 250);
        assert_eq!(DuplexLink::ideal().lookahead_cycles(), 0);
        assert_eq!(DuplexLink::new(100, 4).lookahead_cycles(), 1);
        // No named profile both loses and reorders.
        for name in Impairments::profile_names() {
            let mut l = DuplexLink::hundred_gig();
            l.set_impairments(Impairments::profile(name).expect("profile"));
            assert_eq!(l.lookahead_cycles(), 250, "{name}");
        }
        let every_nth = Some(EveryNth { n: 5, start: 1 });
        let mut l = DuplexLink::hundred_gig();
        l.set_impairments(Impairments { every_nth, ..Impairments::none() });
        assert_eq!(l.lookahead_cycles(), 250, "scripted loss alone");
        l.enable_pcap(64);
        assert_eq!(l.lookahead_cycles(), 250, "capture armed");
        for lossy in [
            Impairments { every_nth, ..reorder_all(0.0) },
            Impairments { ge: Some(f4t_netsim::GeParams::mild()), ..reorder_all(0.0) },
            reorder_all(0.01),
        ] {
            l.set_impairments(lossy);
            assert_eq!(l.lookahead_cycles(), 0, "{lossy:?}");
        }
    }

    #[test]
    fn a_held_segment_on_a_lossy_direction_keeps_the_link_in_lock_step_until_it_leaves() {
        let mut l = ticked(DuplexLink::hundred_gig(), 500);
        l.set_impairments(reorder_all(0.0));
        l.send(A_TO_B, data_at(0, 100), 0);
        assert_eq!(l.lookahead_cycles(), 250, "a hold alone cannot arrive early");
        l.set_impairments(Impairments::profile("lossy").expect("profile"));
        assert_eq!(l.lookahead_cycles(), 0, "a drop could release the held segment");
        assert!(l.deliver(A_TO_B, 20_000).is_some(), "deadline flush");
        assert_eq!(l.lookahead_cycles(), 250);
    }

    #[test]
    fn a_window_ends_before_the_first_flush_deadline() {
        let mut l = ticked(DuplexLink::hundred_gig(), 500);
        assert_eq!(l.cycles_to_flush(0), u64::MAX, "nothing held");
        l.set_impairments(reorder_all(0.0));
        // Arrives at 1 µs, flushes at 1 + 8 µs: cycle 2 250.
        l.send(A_TO_B, data_at(0, 100), 0);
        l.send(B_TO_A, data_at(0, 100), 4_000);
        assert_eq!(l.cycles_to_flush(0), 2_250, "the earlier of the two deadlines");
        assert_eq!(l.cycles_to_flush(2_249), 1);
        assert_eq!(l.cycles_to_flush(2_250), 0);
        assert_eq!(l.cycles_to_flush(9_000), 0, "overdue");
        assert!(l.deliver(A_TO_B, 2_249 * CYCLE_NS).is_none(), "held until its deadline");
        assert!(l.deliver(A_TO_B, 2_250 * CYCLE_NS).is_some(), "flushed at that cycle");
        // B->A: 5 µs arrival + 8 µs = cycle 3 250.
        assert_eq!(l.cycles_to_flush(250), 3_000);
        assert!(l.deliver(B_TO_A, 13_000).is_some());
        // A deadline inside a cycle flushes at the next cycle's start:
        // 14 001 ns is cycle 3 501.
        l.send(A_TO_B, data_at(0, 100), 5_001);
        assert_eq!(l.cycles_to_flush(0), 3_501);
        assert!(l.deliver(A_TO_B, 3_500 * CYCLE_NS).is_none());
        assert!(l.deliver(A_TO_B, 3_501 * CYCLE_NS).is_some());
    }

    #[test]
    fn window_sends_queue_behind_the_segments_in_flight() {
        let mut l = ticked(DuplexLink::hundred_gig(), 100);
        l.send(A_TO_B, data_at(1, 100), 0);
        let (mut a, b) = l.open_window([MacAddr::default(); 2]);
        assert_eq!(b.rx.len(), 1, "node b's half holds the A->B segment in flight");
        a.tx.send(data_at(2, 100), 4);
        l.close_window(a, b);
        let order: Vec<u32> =
            std::iter::from_fn(|| l.deliver(A_TO_B, u64::MAX)).map(|s| s.seq.0).collect();
        assert_eq!(order, [1, 2]);
        assert_eq!(l.segments(A_TO_B), 2, "the half's send counts on the link");
    }

    #[test]
    fn window_sends_due_before_the_queue_back_wait_for_it() {
        let mut l = ticked(DuplexLink::hundred_gig(), 500);
        // A jittered send still in flight when the window opens ...
        l.send(A_TO_B, data_at(1, 100), 3_000);
        let (mut a, b) = l.open_window([MacAddr::default(); 2]);
        // ... outlasts the window's first two sends, not its third.
        for (seq, now) in [(2, 1_000), (3, 1_500), (4, 2_500)] {
            a.tx.send(data_at(seq, 100), now);
        }
        l.close_window(a, b);
        let at: Vec<u64> = l.dirs[A_TO_B].in_flight.iter().map(|&(at, _)| at).collect();
        assert_eq!(at, [4_000, 4_000, 4_000, 4_000], "lock-step enqueue clamps the same way");
    }

    #[test]
    fn window_tapes_reach_the_capture_in_lock_step_order_up_to_the_cap() {
        let (ma, mb) = (MacAddr([0xa; 6]), MacAddr([0xb; 6]));
        let fill = |l: &mut DuplexLink| {
            l.enable_pcap(64);
            let w = l.pcap.as_mut().expect("capture on");
            for i in 0..PCAP_MAX_PACKETS - 3 {
                w.record(0, &data_at(i as u32, 100), ma, mb).expect("in memory");
            }
        };
        let mut windowed = DuplexLink::hundred_gig();
        fill(&mut windowed);
        let (mut a, mut b) = windowed.open_window([ma, mb]);
        let ta = a.tape.as_mut().expect("a tapes");
        ta.extend([8, 12].map(|t| (t, data_at(t as u32, 100), ma, mb)));
        let tb = b.tape.as_mut().expect("b tapes");
        tb.extend([4, 8, 12].map(|t| (t, data_at(100 + t as u32, 100), mb, ma)));
        windowed.close_window(a, b);
        assert_eq!(windowed.pcap_packets(), PCAP_MAX_PACKETS);

        // Lock-step: cycle by cycle, A->B first; the cap keeps three.
        let mut lock_step = DuplexLink::hundred_gig();
        fill(&mut lock_step);
        let w = lock_step.pcap.as_mut().expect("capture on");
        for (t, seq, from, to) in [(4, 104, mb, ma), (8, 8, ma, mb), (8, 108, mb, ma)] {
            w.record(t, &data_at(seq, 100), from, to).expect("in memory");
        }
        assert_eq!(windowed.take_pcap(), lock_step.take_pcap());

        let (a, b) = windowed.open_window([ma, mb]);
        assert!(a.tape.is_none() && b.tape.is_none(), "no tape without a capture");
        windowed.close_window(a, b);
    }

    /// `a` and `b` on `link` with one established flow from `a`.
    fn flow_pair(link: DuplexLink) -> (EnginePair, FlowId) {
        let cfg = EngineConfig { num_fpcs: 1, lut_groups: 1, ..EngineConfig::reference() };
        let mut pair = EnginePair::new(cfg, link);
        let fa = pair.a.open_established(FourTuple::default(), SeqNum(0)).expect("flow");
        pair.b.open_established(FourTuple::default().reversed(), SeqNum(0)).expect("flow");
        (pair, fa)
    }

    /// `b`'s application consumes everything delivered.
    fn consume(e: &mut Engine) {
        while let Some(n) = e.pop_notification() {
            if let HostNotification::DataReceived { flow, upto } = n {
                e.push_host(flow, EventKind::RecvConsumed { consumed: upto });
            }
        }
    }

    fn carried(l: &DuplexLink) -> u64 {
        l.segments(A_TO_B) + l.segments(B_TO_A)
    }

    #[test]
    fn ideal_pair_delivers_within_the_sending_step() {
        let (mut pair, fa) = flow_pair(DuplexLink::ideal());
        pair.a.push_host(fa, EventKind::SendReq { req: SeqNum(64 * 1024) });
        let mut moving_steps = 0;
        for _ in 0..2_000 {
            let before = carried(&pair.link);
            let moved = pair.step(16);
            // An ideal link drains both TX queues and delivers everything
            // it was handed within the step ...
            assert!(pair.a.peek_tx().is_none() && pair.b.peek_tx().is_none());
            assert!(pair.link.dirs.iter().all(|d| d.in_flight.is_empty()));
            // ... so `step` is false exactly when both queues were empty.
            assert_eq!(moved, carried(&pair.link) > before);
            moving_steps += u64::from(moved);
            consume(&mut pair.b);
        }
        assert_eq!(pair.a.peek_tcb(fa).expect("flow").snd_una, SeqNum(64 * 1024));
        assert!(moving_steps > 10, "only {moving_steps} steps carried traffic");
        assert!(!pair.step(16), "an idle pair carries nothing");
    }

    #[test]
    fn paced_pair_holds_line_rate() {
        // A window-unlimited bulk flow on a 10 Gbps, 1 µs pair: the wire,
        // not the engines, is the bottleneck.
        let (mut pair, fa) = flow_pair(DuplexLink::new(10, 1_000));
        let steps = 250_000 / 16; // 1 ms
        for _ in 0..steps {
            // Keep the whole send buffer requested.
            if let Some(t) = pair.a.peek_tcb(fa) {
                pair.a.push_host(fa, EventKind::SendReq { req: t.snd_una.add(TCP_BUFFER) });
            }
            pair.step(16);
            consume(&mut pair.b);
        }
        let gbps = f4t_sim::gbps(pair.link.bytes(A_TO_B), steps * 16 * 4);
        assert!((9.5..=10.05).contains(&gbps), "got {gbps:.2} Gbps");
    }

    #[test]
    fn pair_capture_records_every_carried_segment() {
        let (mut pair, fa) = flow_pair(DuplexLink::ideal());
        pair.link.enable_pcap(64);
        pair.a.push_host(fa, EventKind::SendReq { req: SeqNum(64 * 1024) });
        for _ in 0..2_000 {
            pair.step(16);
            consume(&mut pair.b);
        }
        let packets = pair.link.pcap_packets();
        assert!(packets > 40, "captured {packets}");
        assert_eq!(packets, carried(&pair.link));
        let bytes = pair.link.take_pcap().expect("capture enabled");
        assert_eq!(bytes[..4], 0xA1B2_C3D4u32.to_le_bytes(), "pcap magic");
    }
}
