//! The flow processing unit (FPU).
//!
//! "FPU is a stateless processing unit that processes all TCP algorithms
//! only when it receives a TCB from the TCB manager. It can be stateless
//! because all necessary information required to process TCP algorithms is
//! in the TCB" (§4.2.2). The FPU is fully pipelined: a new TCB can enter
//! every initiation interval regardless of pipeline depth, which is why
//! F4T's throughput is invariant to algorithm complexity (Fig. 15).
//!
//! The pass is the combinational function the paper's users write in HLS
//! C++: an ordered list of calls into connection management, reliability
//! and flow control, with congestion control behind the
//! [`CongestionControl`] trait. [`Fpu`] is the pipeline wrapper that
//! models its latency: a job names a TCB slot, and the pass runs on that
//! slot's row at write-back, writing its segments into the caller's
//! buffer. [`process`] is the same pass on a caller's TCB. [`EventView`]
//! is the event-table half and owns the event handler's merge.

use crate::event::{EventKind, TimeoutKind, TxRequest};
use f4t_tcp::{CongestionControl, SeqNum, Tcb, TcpFlags, TcpState};
use std::collections::VecDeque;
use std::sync::Arc;

/// The merged event-table view handed to the FPU alongside the TCB-table
/// half (the "valid, up-to-date TCB" of §4.2.3). `None`/`false` fields had
/// no valid bit set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventView {
    /// User send-request pointer.
    pub req: Option<SeqNum>,
    /// User receive-consumed pointer.
    pub consumed: Option<SeqNum>,
    /// Latest cumulative ACK from the peer.
    pub ack: Option<SeqNum>,
    /// Latest reassembled in-order pointer from the RX parser.
    pub rcv_nxt: Option<SeqNum>,
    /// Latest peer-advertised window.
    pub wnd: Option<u32>,
    /// Accumulated occurrence flags (SYN/FIN/RST).
    pub flags: TcpFlags,
    /// Merged duplicate-ACK count (absolute, maintained by the event
    /// handler's single-cycle increment).
    pub dup_acks: Option<u16>,
    /// Retransmission timer fired.
    pub rto_fired: bool,
    /// Zero-window probe timer fired.
    pub probe_fired: bool,
    /// An ACK is owed to the peer (payload accepted or unacceptable
    /// segment received).
    pub needs_ack: bool,
    /// Number of ACK-eliciting *out-of-order* packets accumulated. RFC
    /// 5681 demands an immediate duplicate ACK per out-of-order segment;
    /// since accumulation would collapse them into one FPU pass, the
    /// event handler counts them and the FPU replays that many ACKs.
    pub dup_ack_gen: u16,
    /// Active open requested.
    pub connect: bool,
    /// Close requested.
    pub close: bool,
    /// Peer's latest TSval (0 = none).
    pub ts_val: u64,
    /// Peer's latest TSecr — our stamp coming home (0 = none).
    pub ts_ecr: u64,
}

impl EventView {
    /// Whether any valid bit other than the duplicate-ACK counter is set.
    /// The dup-ACK counter's valid bit intentionally survives dispatch
    /// (it must keep accumulating against the merged view), and its value
    /// is mirrored into the TCB on every FPU pass — so it must not block
    /// eviction.
    pub fn any_except_dup_acks(&self) -> bool {
        let mut v = *self;
        v.dup_acks = None;
        v.any()
    }

    /// Whether any valid bit is set (the slot has pending work).
    pub fn any(&self) -> bool {
        self.req.is_some()
            || self.consumed.is_some()
            || self.ack.is_some()
            || self.rcv_nxt.is_some()
            || self.wnd.is_some()
            || !self.flags.is_empty()
            || self.dup_acks.is_some()
            || self.rto_fired
            || self.probe_fired
            || self.needs_ack
            || self.dup_ack_gen > 0
            || self.connect
            || self.close
    }

    /// The event handler (§4.2.1): merges one event into this event-table
    /// entry, read against the TCB-table half `tcb` wherever a field has
    /// no valid bit yet. Cumulative pointers overwrite, occurrence bits
    /// OR, and the duplicate-ACK count is the one single-cycle increment.
    /// The FPC's event handler and the memory manager's DRAM-side handler
    /// both merge through here.
    #[inline]
    pub(crate) fn accumulate(&mut self, tcb: &Tcb, kind: EventKind) {
        match kind {
            EventKind::Connect => self.connect = true,
            EventKind::Close => self.close = true,
            EventKind::SendReq { req } => {
                self.req = Some(self.req.unwrap_or(tcb.req).max_seq(req));
            }
            EventKind::RecvConsumed { consumed } => {
                self.consumed = Some(self.consumed.unwrap_or(tcb.rcv_consumed).max_seq(consumed));
            }
            EventKind::Timeout { kind: TimeoutKind::Rto } => self.rto_fired = true,
            EventKind::Timeout { kind: TimeoutKind::Probe } => self.probe_fired = true,
            EventKind::RxPacket {
                ack,
                rcv_nxt,
                wnd,
                flags,
                had_payload,
                needs_ack,
                in_order,
                ts_val,
                ts_ecr,
            } => {
                // Merged views (event table if valid, else TCB table).
                let cur_ack = self.ack.unwrap_or(tcb.snd_una);
                let cur_wnd = self.wnd.unwrap_or(tcb.snd_wnd);
                let in_flight = tcb.snd_nxt.gt(cur_ack);
                if ack.gt(cur_ack) {
                    self.ack = Some(ack);
                    self.dup_acks = Some(0);
                } else if ack == cur_ack && !had_payload && wnd == cur_wnd && in_flight {
                    // The single-cycle RMW: increment the merged count.
                    let cur_dup = self.dup_acks.unwrap_or(tcb.dup_acks);
                    self.dup_acks = Some(cur_dup.saturating_add(1));
                }
                // A SYN (re)anchors the receive sequence space at the
                // peer's ISN; circular max-merging against the
                // pre-handshake placeholder would pick the wrong side when
                // the ISN is more than 2^31 away.
                self.rcv_nxt = if flags.contains(TcpFlags::SYN) {
                    Some(rcv_nxt)
                } else {
                    Some(self.rcv_nxt.unwrap_or(tcb.rcv_nxt).max_seq(rcv_nxt))
                };
                self.wnd = Some(wnd);
                self.flags.insert(flags);
                self.needs_ack |= needs_ack;
                if needs_ack && !in_order {
                    self.dup_ack_gen = self.dup_ack_gen.saturating_add(1);
                }
                if ts_val != 0 {
                    self.ts_val = ts_val;
                }
                if ts_ecr != 0 {
                    self.ts_ecr = ts_ecr;
                }
            }
        }
    }

    /// Applies the user and peer pointers to `tcb`: send request, receive
    /// consumed, peer window and the merged duplicate-ACK count. The FPU
    /// absorbs them at the start of every pass; the memory manager's check
    /// logic applies them to a scratch copy.
    #[inline]
    pub(crate) fn absorb(&self, tcb: &mut Tcb) {
        if let Some(req) = self.req {
            tcb.req = tcb.req.max_seq(req);
        }
        if let Some(c) = self.consumed {
            tcb.rcv_consumed = tcb.rcv_consumed.max_seq(c);
        }
        if let Some(w) = self.wnd {
            tcb.snd_wnd = w;
        }
        if let Some(d) = self.dup_acks {
            tcb.dup_acks = d;
        }
    }
}

/// What one FPU pass produced besides the updated TCB and its segments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FpuOutcome {
    /// New cumulative ACKed-data pointer to report to the host
    /// ("FtEngine sends ACKed data ... pointers to the software").
    pub acked_upto: Option<SeqNum>,
    /// New received-data pointer to report to the host.
    pub rcvd_upto: Option<SeqNum>,
    /// The connection became established this pass.
    pub connected: bool,
    /// The peer closed its direction (EOF for the application).
    pub peer_fin: bool,
    /// The connection fully closed this pass.
    pub closed: bool,
    /// The flow still has sendable work the pass could not finish
    /// (per-visit burst cap); the TCB manager should revisit soon.
    pub more_work: bool,
}

/// Per-visit cap on new payload bytes committed to the packet generator
/// (a TSO-sized burst). Larger requests stay pending and set
/// [`FpuOutcome::more_work`].
pub const MAX_BURST: u32 = 65_536;

/// TIME_WAIT duration. Real stacks hold 2×MSL (minutes); the simulation
/// scales it to 100 µs — still several RTTs of the direct-attach testbed,
/// which preserves the property it exists for (absorbing a retransmitted
/// final FIN) at simulable timescales.
pub const TIME_WAIT_NS: u64 = 100_000;

/// Processes one merged TCB with [`run_pass`], returning the outcome and
/// the segments the pass built. The [`Fpu`] runs the same pass on a slot
/// row at write-back; this form serves callers holding a TCB of their own.
pub fn process(
    cc: &dyn CongestionControl,
    tcb: &mut Tcb,
    ev: &EventView,
    now_ns: u64,
    mss: u32,
) -> (FpuOutcome, Vec<TxRequest>) {
    let mut tx = Vec::new();
    let outcome = run_pass(cc, tcb, ev, now_ns, mss, &mut tx);
    (outcome, tx)
}

/// The one FPU pass: the entire TCP algorithm suite — handshake, ACK
/// clocking, congestion/flow control, loss recovery, retransmission,
/// probing, ACK generation — as a pure function of `(tcb, events, now)`,
/// appending its segments to `tx`.
///
/// This function is deliberately *stateless*: every read and write goes
/// through `tcb`. It is the Rust analogue of the HLS C++ the paper's
/// users drop into the FPU placeholder (§4.5). The body is the pass's
/// fixed step order, one call per step into connection management,
/// reliability or flow control (congestion control is `cc`). Each step
/// reads what the earlier ones wrote, so the order is the behaviour.
fn run_pass(
    cc: &dyn CongestionControl,
    tcb: &mut Tcb,
    ev: &EventView,
    now_ns: u64,
    mss: u32,
    tx: &mut Vec<TxRequest>,
) -> FpuOutcome {
    tcb.last_active_ns = now_ns;
    let mut p = Pass {
        now_ns,
        out: FpuOutcome::default(),
        tx,
        ack_due: ev.needs_ack,
        retransmit_due: false,
        go_back_n: false,
        sent_data: false,
        prev_advertised: tcb.advertised_window(),
    };
    ev.absorb(tcb); // 0: the view's pointers, then the peer's timestamp
    if ev.ts_val != 0 {
        tcb.ts_recent = ev.ts_val;
    }
    if reset_on_rst(tcb, ev, &mut p) {
        return p.out; // 1: an RST ends the pass
    }
    open_connection(cc, tcb, ev, &mut p); // 2
    advance_rcv_nxt(tcb, ev, &mut p); // 3
    accept_ack(cc, tcb, ev, &mut p); // 4
    fast_recovery(cc, tcb, &mut p); // 5
    take_peer_fin(tcb, ev, &mut p); // 6
    tcb.close_pending |= ev.close; // 7: the FIN waits for the stream to drain (13)
    if tcb.state == TcpState::TimeWait {
        hold_time_wait(tcb, ev, &mut p); // 8
        return p.out;
    }
    expire_rto(cc, tcb, ev, &mut p); // 9
    probe_zero_window(tcb, ev, &mut p); // 10
    retransmit_head(tcb, mss, &mut p); // 11
    send_new_data(tcb, &mut p); // 12
    send_fin_when_drained(tcb, &mut p); // 13
    send_acks(tcb, ev, &mut p); // 14
    tcb.ack_pending = false;
    tcb.snd_max = tcb.snd_max.max_seq(tcb.snd_nxt);
    p.out.more_work = tcb.state.can_send_data() && tcb.sendable() > 0;
    p.out
}

/// What one [`run_pass`] carries from step to step.
struct Pass<'a> {
    now_ns: u64,
    out: FpuOutcome,
    /// Where the pass's segments go.
    tx: &'a mut Vec<TxRequest>,
    /// An ACK is owed; any data, retransmission or FIN carries it.
    ack_due: bool,
    /// Fast retransmit, a partial ACK or an RTO wants the head resent.
    retransmit_due: bool,
    /// The RTO fired: `snd_nxt` rewinds after the head retransmission.
    go_back_n: bool,
    /// Step 12 sent new data (the FIN waits for a later pass).
    sent_data: bool,
    /// The receive window advertised before this pass, read before step 0
    /// absorbs `consumed` (step 14's window-update test compares to it).
    prev_advertised: u32,
}

/// The one segment builder: `len` bytes at `seq`, carrying the TCB's
/// current ACK, advertised window and echoed timestamp.
fn segment(tcb: &Tcb, seq: SeqNum, len: u32, flags: TcpFlags, retransmit: bool) -> TxRequest {
    TxRequest {
        flow: tcb.flow,
        tuple: tcb.tuple,
        seq,
        len,
        ack: tcb.rcv_nxt,
        wnd: tcb.advertised_window(),
        flags,
        retransmit,
        ts_ecr: tcb.ts_recent,
    }
}

/// A timer event is live if its deadline (which a later pass may have
/// pushed out) has passed.
fn timer_due(fired: bool, deadline: Option<u64>, now_ns: u64) -> bool {
    fired && deadline.is_some_and(|d| now_ns >= d)
}

// --- connection management (RFC 9293 §3.5–3.6): reset, open, the
// transitions an ACK or FIN completes, TIME_WAIT, FIN emission ---

/// Step 1: an RST closes the connection and ends the pass.
fn reset_on_rst(tcb: &mut Tcb, ev: &EventView, p: &mut Pass) -> bool {
    if !ev.flags.contains(TcpFlags::RST) {
        return false;
    }
    tcb.state = TcpState::Closed;
    tcb.rto_deadline = None;
    tcb.probe_deadline = None;
    p.out.closed = true;
    true
}

/// Step 2: active open; passive open on a SYN; the SYN half of a SYN|ACK
/// (step 4 takes its ACK half). A duplicate SYN later is just ACKed.
fn open_connection(cc: &dyn CongestionControl, tcb: &mut Tcb, ev: &EventView, p: &mut Pass) {
    if ev.connect && tcb.state == TcpState::Closed {
        tcb.state = TcpState::SynSent;
        cc.init(tcb);
        send_control(tcb, TcpFlags::SYN, p);
    }
    if !ev.flags.contains(TcpFlags::SYN)
        || !matches!(tcb.state, TcpState::Listen | TcpState::Closed | TcpState::SynSent)
    {
        return;
    }
    // The RX parser initialized reassembly at the peer's ISN+1 and
    // reports it via ev.rcv_nxt.
    if let Some(r) = ev.rcv_nxt {
        tcb.rcv_nxt = r;
        tcb.rcv_consumed = r;
    }
    if tcb.state == TcpState::SynSent {
        p.ack_due = true;
    } else {
        tcb.state = TcpState::SynReceived;
        cc.init(tcb);
        send_control(tcb, TcpFlags::SYN | TcpFlags::ACK, p);
        p.ack_due = false;
    }
}

/// Step 4's transitions: the handshake completes, and CLOSING waits out
/// TIME_WAIT once our FIN is ACKed. FIN_WAIT stays put (FIN-WAIT-2).
fn complete_on_ack(tcb: &mut Tcb, p: &mut Pass) {
    match tcb.state {
        TcpState::SynSent => {
            tcb.state = TcpState::Established;
            p.out.connected = true;
            p.ack_due = true; // third handshake packet
        }
        TcpState::SynReceived => {
            tcb.state = TcpState::Established;
            p.out.connected = true;
        }
        TcpState::Closing if tcb.snd_una == tcb.snd_nxt => enter_time_wait(tcb, p.now_ns),
        _ => {}
    }
}

/// Step 6: the peer's FIN (sequenced by the RX parser) is ACKed. FIN_WAIT
/// goes to TIME_WAIT if our FIN is ACKed too, else CLOSING.
fn take_peer_fin(tcb: &mut Tcb, ev: &EventView, p: &mut Pass) {
    if !ev.flags.contains(TcpFlags::FIN) {
        return;
    }
    match tcb.state {
        TcpState::Established => {
            tcb.state = TcpState::CloseWait;
            p.out.peer_fin = true;
        }
        TcpState::FinWait => {
            p.out.peer_fin = true;
            if tcb.snd_una == tcb.snd_nxt {
                enter_time_wait(tcb, p.now_ns);
            } else {
                tcb.state = TcpState::Closing; // simultaneous close
            }
        }
        _ => {}
    }
    p.ack_due = true;
}

/// The 2MSL timer rides the RTO slot: nothing is in flight.
fn enter_time_wait(tcb: &mut Tcb, now_ns: u64) {
    tcb.state = TcpState::TimeWait;
    tcb.rto_deadline = Some(now_ns + TIME_WAIT_NS);
}

/// Step 8: TIME_WAIT closes when the 2MSL timer expires and re-ACKs a
/// stray segment (a retransmitted final FIN) until then.
fn hold_time_wait(tcb: &mut Tcb, ev: &EventView, p: &mut Pass) {
    if timer_due(ev.rto_fired, tcb.rto_deadline, p.now_ns) {
        tcb.state = TcpState::Closed;
        tcb.rto_deadline = None;
        p.out.closed = true;
    } else if p.ack_due {
        p.tx.push(segment(tcb, tcb.snd_nxt, 0, TcpFlags::ACK, false));
    }
}

/// Step 13: a requested close whose stream is drained, on a pass that
/// sent no data, emits the FIN; outside ESTABLISHED/CLOSE_WAIT it lapses.
fn send_fin_when_drained(tcb: &mut Tcb, p: &mut Pass) {
    if !tcb.close_pending || tcb.unsent() > 0 || p.sent_data {
        return;
    }
    tcb.close_pending = false;
    tcb.state = match tcb.state {
        TcpState::Established => TcpState::FinWait,
        TcpState::CloseWait => TcpState::Closing,
        _ => return,
    };
    send_control(tcb, TcpFlags::FIN | TcpFlags::ACK, p);
    p.ack_due = false;
}

/// A SYN or FIN: its phantom byte takes one sequence number, under the RTO.
fn send_control(tcb: &mut Tcb, flags: TcpFlags, p: &mut Pass) {
    p.tx.push(segment(tcb, tcb.snd_nxt, 0, flags, false));
    tcb.snd_nxt = tcb.snd_nxt.add(1);
    tcb.rto_deadline = Some(p.now_ns + tcb.rto.rto_ns());
}

// --- reliability: the receive pointer, ACK acceptance (RTT sample, RTO
// restart), fast retransmit and recovery, RTO expiry, retransmission ---

/// Step 3: the reassembled in-order pointer, reported when it moves.
fn advance_rcv_nxt(tcb: &mut Tcb, ev: &EventView, p: &mut Pass) {
    if let Some(r) = ev.rcv_nxt.filter(|r| r.gt(tcb.rcv_nxt)) {
        tcb.rcv_nxt = r;
        p.out.rcvd_upto = Some(r);
    }
}

/// Step 4: an ACK of new data up to the highest byte *ever* sent (after a
/// go-back-N rewind, pre-rewind data can still be ACKed): RTT sample (RFC
/// 7323), full or partial ACK in recovery (RFC 6582), RTO restart while
/// data remains in flight (RFC 6298 §5.3).
fn accept_ack(cc: &dyn CongestionControl, tcb: &mut Tcb, ev: &EventView, p: &mut Pass) {
    let now_ns = p.now_ns;
    let snd_limit = tcb.snd_max.max_seq(tcb.snd_nxt);
    let Some(ack) = ev.ack.filter(|a| a.gt(tcb.snd_una) && a.le(snd_limit)) else { return };
    let newly = ack.since(tcb.snd_una);
    let rtt = (ev.ts_ecr != 0 && now_ns > ev.ts_ecr).then(|| now_ns - ev.ts_ecr);
    if let Some(r) = rtt {
        tcb.rto.on_rtt_sample(r);
    }
    if tcb.in_recovery {
        if ack.ge(tcb.recover) {
            tcb.in_recovery = false;
            tcb.dup_acks = 0;
            tcb.dup_acks_processed = 0;
            cc.on_exit_recovery(tcb, now_ns);
        } else {
            cc.on_partial_ack(tcb, newly);
            p.retransmit_due = true;
        }
    } else {
        tcb.dup_acks = 0;
        tcb.dup_acks_processed = 0;
        cc.on_ack(tcb, newly, rtt, now_ns);
    }
    tcb.snd_una = ack;
    if ack.gt(tcb.snd_nxt) {
        tcb.snd_nxt = ack; // a late ACK overtook the go-back-N rewind
    }
    p.out.acked_upto = Some(ack);
    complete_on_ack(tcb, p);
    if tcb.state != TcpState::TimeWait {
        tcb.rto_deadline = (tcb.flight_size() > 0).then(|| now_ns + tcb.rto.rto_ns());
    }
}

/// Step 5: the third duplicate ACK with data in flight enters fast
/// recovery (RFC 5681 §3.2); later duplicates inflate once per batch.
fn fast_recovery(cc: &dyn CongestionControl, tcb: &mut Tcb, p: &mut Pass) {
    if !tcb.in_recovery && tcb.dup_acks >= 3 && tcb.flight_size() > 0 {
        cc.on_enter_recovery(tcb, p.now_ns);
        tcb.in_recovery = true;
        tcb.recover = tcb.snd_nxt;
        tcb.dup_acks_processed = tcb.dup_acks;
        p.retransmit_due = true;
    } else if tcb.in_recovery && tcb.dup_acks > tcb.dup_acks_processed {
        let delta = u32::from(tcb.dup_acks - tcb.dup_acks_processed);
        cc.on_dup_ack_in_recovery(tcb, delta);
        tcb.dup_acks_processed = tcb.dup_acks;
    }
}

/// Step 9: an RTO with data in flight collapses the window, backs the
/// timer off (RFC 6298 §5.5) and asks step 11 for go-back-N.
fn expire_rto(cc: &dyn CongestionControl, tcb: &mut Tcb, ev: &EventView, p: &mut Pass) {
    if !timer_due(ev.rto_fired, tcb.rto_deadline, p.now_ns) || tcb.flight_size() == 0 {
        return;
    }
    cc.on_timeout(tcb, p.now_ns);
    tcb.rto.on_timeout();
    tcb.in_recovery = false;
    tcb.dup_acks = 0;
    tcb.dup_acks_processed = 0;
    p.retransmit_due = true;
    p.go_back_n = true;
    tcb.rto_deadline = Some(p.now_ns + tcb.rto.rto_ns());
}

/// Step 11: resend up to one MSS from `snd_una`. `span` is sequence
/// space; when our FIN is in flight its phantom byte sits at `snd_max -
/// 1`, and a retransmission reaching it must carry the FIN again and
/// shed the phantom from the length — otherwise the receiver sequences
/// the phantom as data and the peer never learns the stream ended. After
/// an RTO, everything beyond the head is unsent again (go-back-N).
fn retransmit_head(tcb: &mut Tcb, mss: u32, p: &mut Pass) {
    if !p.retransmit_due || tcb.flight_size() == 0 {
        return;
    }
    let span = tcb.flight_size().min(mss);
    let fin = matches!(tcb.state, TcpState::FinWait | TcpState::Closing)
        && tcb.snd_una.add(span) == tcb.snd_max;
    let flags = if fin { TcpFlags::FIN | TcpFlags::ACK } else { TcpFlags::ACK };
    p.tx.push(segment(tcb, tcb.snd_una, span - u32::from(fin), flags, true));
    if p.go_back_n {
        tcb.snd_nxt = tcb.snd_una.add(span);
    }
    p.ack_due = false;
}

// --- flow control: the zero-window probe, new-data sizing, window
// updates and duplicate-ACK generation ---

/// Step 10: unsent data against a zero window sends a 1-byte probe each
/// time the probe timer fires (RFC 9293 §3.8.6.1). The byte is stream
/// data: the first probe advances `snd_nxt`, re-probes resend `snd_una`.
fn probe_zero_window(tcb: &mut Tcb, ev: &EventView, p: &mut Pass) {
    if tcb.snd_wnd != 0 || tcb.unsent() == 0 || !tcb.state.can_send_data() {
        tcb.probe_deadline = None;
        return;
    }
    let fired = timer_due(ev.probe_fired, tcb.probe_deadline, p.now_ns);
    if fired {
        let fresh = tcb.flight_size() == 0;
        let seq = if fresh { tcb.snd_nxt } else { tcb.snd_una };
        p.tx.push(segment(tcb, seq, 1, TcpFlags::ACK, !fresh));
        if fresh {
            tcb.snd_nxt = tcb.snd_nxt.add(1);
        }
    }
    if fired || tcb.probe_deadline.is_none() {
        tcb.probe_deadline = Some(p.now_ns + tcb.rto.rto_ns());
    }
}

/// Step 12: as much new data as the congestion and peer windows allow,
/// at most [`MAX_BURST`] per visit, carrying the owed ACK.
fn send_new_data(tcb: &mut Tcb, p: &mut Pass) {
    let n = if tcb.state.can_send_data() { tcb.sendable().min(MAX_BURST) } else { 0 };
    if n == 0 {
        return;
    }
    p.tx.push(segment(tcb, tcb.snd_nxt, n, TcpFlags::ACK, false));
    tcb.snd_nxt = tcb.snd_nxt.add(n);
    if tcb.rto_deadline.is_none() {
        tcb.rto_deadline = Some(p.now_ns + tcb.rto.rto_ns());
    }
    p.sent_data = true;
    p.ack_due = false;
}

/// Step 14: a pure ACK if one is still owed, or a window update if the
/// application reopened a nearly closed window (under a quarter of the
/// buffer before the pass, half after). While the receive gap stays
/// open, the peer gets one duplicate ACK per out-of-order segment the
/// event handler counted, up to eight (RFC 5681 §4.2).
fn send_acks(tcb: &Tcb, ev: &EventView, p: &mut Pass) {
    let window_opened =
        p.prev_advertised < tcb.rcv_buf / 4 && tcb.advertised_window() >= tcb.rcv_buf / 2;
    if !p.ack_due && !window_opened {
        return;
    }
    let gap_open = p.out.rcvd_upto.is_none() && ev.dup_ack_gen > 1;
    let repeats = if gap_open { (ev.dup_ack_gen - 1).min(7) } else { 0 };
    let ack = segment(tcb, tcb.snd_nxt, 0, TcpFlags::ACK, false);
    for _ in 0..=repeats {
        p.tx.push(ack);
    }
}

/// One in-flight FPU job: the slot whose TCB it processes and the event
/// view latched at dispatch. The TCB stays in its slot; the slot's event
/// half keeps accumulating while the job is in flight.
#[derive(Debug, Clone, Copy)]
struct FpuJob {
    slot: u32,
    flow: f4t_tcp::FlowId,
    ev: EventView,
    /// Cycle at which the pipeline writes the result back.
    ready_cycle: u64,
    /// Cycle at which the job was issued (FtFlight `fpu_process` span).
    issued_cycle: u64,
}

/// A finished FPU job: the slot written back and the pass's side effects.
#[derive(Debug, Clone, Copy)]
pub struct FpuResult {
    /// The slot whose TCB the pass updated.
    pub slot: usize,
    /// Side effects of the pass.
    pub outcome: FpuOutcome,
    /// Cycle the job entered the pipeline (FtFlight `fpu_process` span).
    pub issued_cycle: u64,
}

/// The pipelined FPU. Slot jobs enter with [`Fpu::issue`]; `latency`
/// cycles later [`Fpu::tick`] runs the pass on the slot's TCB, so every
/// reader of the slot sees the dispatched TCB until write-back. The
/// pipeline never stalls — issue capacity is one per cycle regardless of
/// depth, which is the versatility property Fig. 15 measures.
#[derive(Debug)]
pub struct Fpu {
    cc: Arc<dyn CongestionControl>,
    latency: u64,
    mss: u32,
    // f4tlint: allow(raw_queue): fixed-latency pipeline model, bounded by
    // construction (one job enters per dispatch, depth == latency).
    pipeline: VecDeque<FpuJob>,
    processed: u64,
}

impl Fpu {
    /// Creates an FPU running `cc` with the algorithm's natural pipeline
    /// latency, or `latency_override` cycles if given (used by the Fig. 15
    /// versatility sweep).
    pub fn new(cc: Arc<dyn CongestionControl>, latency_override: Option<u32>, mss: u32) -> Fpu {
        let latency = u64::from(latency_override.unwrap_or_else(|| cc.fpu_latency_cycles())).max(1);
        Fpu { cc, latency, mss, pipeline: VecDeque::new(), processed: 0 }
    }

    /// Pipeline depth in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// The congestion-control algorithm in use.
    pub fn cc(&self) -> &dyn CongestionControl {
        self.cc.as_ref()
    }

    /// Issues the TCB in `slot` (flow `flow`) with its merged event view
    /// into the pipeline at cycle `now_cycle`.
    pub fn issue(&mut self, slot: usize, flow: f4t_tcp::FlowId, ev: EventView, now_cycle: u64) {
        self.pipeline.push_back(FpuJob {
            slot: slot as u32,
            flow,
            ev,
            ready_cycle: now_cycle + self.latency,
            issued_cycle: now_cycle,
        });
    }

    /// Whether a TCB for `flow` is currently in the pipeline (the TCB
    /// manager must not re-issue it — the data-hazard guard).
    pub fn in_flight(&self, flow: f4t_tcp::FlowId) -> bool {
        self.pipeline.iter().any(|j| j.flow == flow)
    }

    /// Number of jobs in the pipeline.
    pub fn depth_used(&self) -> usize {
        self.pipeline.len()
    }

    /// Activity horizon: the cycle the head job completes, or `None` when
    /// the pipeline is empty. The head is the minimum — jobs enter in
    /// issue order with a fixed latency, so ready cycles are monotone.
    pub fn next_activity(&self) -> Option<u64> {
        self.pipeline.front().map(|j| j.ready_cycle)
    }

    /// Total TCBs processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Advances one cycle. The job completing this cycle, if any, runs
    /// its pass on `tcbs[slot]` in place, appending its segments to `tx`.
    pub fn tick(
        &mut self,
        now_cycle: u64,
        now_ns: u64,
        tcbs: &mut [Tcb],
        tx: &mut Vec<TxRequest>,
    ) -> Option<FpuResult> {
        if self.pipeline.front().is_none_or(|j| j.ready_cycle > now_cycle) {
            return None;
        }
        let job = self.pipeline.pop_front()?;
        let slot = job.slot as usize;
        let outcome = run_pass(self.cc.as_ref(), &mut tcbs[slot], &job.ev, now_ns, self.mss, tx);
        self.processed += 1;
        Some(FpuResult { slot, outcome, issued_cycle: job.issued_cycle })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_tcp::{CcAlgorithm, FlowId, FourTuple, NewReno, MSS};

    fn established() -> Tcb {
        let mut t = Tcb::established(FlowId(1), FourTuple::default(), SeqNum(1000));
        CcAlgorithm::NewReno.instance().init(&mut t);
        t
    }

    /// One pass through [`process`]: the outcome's fields read through
    /// `Deref`, the segments as `tx`.
    struct Out {
        outcome: FpuOutcome,
        tx: Vec<TxRequest>,
    }

    impl std::ops::Deref for Out {
        type Target = FpuOutcome;
        fn deref(&self) -> &FpuOutcome {
            &self.outcome
        }
    }

    fn run(tcb: &mut Tcb, ev: EventView, now: u64) -> Out {
        let (outcome, tx) = process(&NewReno, tcb, &ev, now, MSS);
        Out { outcome, tx }
    }

    /// Connection management: open, close, TIME-WAIT, reset.
    mod connection_management {
        use super::*;

        #[test]
        fn rfc9293_three_way_handshake_active_open() {
            let mut flow = Tcb::new(FlowId(7));
            flow.tuple = FourTuple::default();
            // connect(): SYN out.
            let out = run(&mut flow, EventView { connect: true, ..Default::default() }, 0);
            assert_eq!(flow.state, TcpState::SynSent);
            assert!(out.tx[0].flags.contains(TcpFlags::SYN));
            assert_eq!(flow.snd_nxt, SeqNum(1), "SYN consumed a phantom byte");
            // SYN|ACK arrives (peer ISN 5000; parser reports rcv_nxt 5001).
            let ev = EventView {
                flags: TcpFlags::SYN | TcpFlags::ACK,
                ack: Some(SeqNum(1)),
                rcv_nxt: Some(SeqNum(5001)),
                ..Default::default()
            };
            let out = run(&mut flow, ev, 100);
            assert_eq!(flow.state, TcpState::Established);
            assert!(out.connected);
            assert_eq!(flow.rcv_nxt, SeqNum(5001));
            assert_eq!(out.tx.len(), 1, "final handshake ACK");
            assert_eq!(out.tx[0].ack, SeqNum(5001));
        }

        #[test]
        fn rfc9293_three_way_handshake_passive_open() {
            let mut flow = Tcb::new(FlowId(8));
            flow.state = TcpState::Listen;
            let ev = EventView {
                flags: TcpFlags::SYN,
                rcv_nxt: Some(SeqNum(42)),
                ..Default::default()
            };
            let out = run(&mut flow, ev, 0);
            assert_eq!(flow.state, TcpState::SynReceived);
            assert!(out.tx[0].flags.contains(TcpFlags::SYN | TcpFlags::ACK));
            // Handshake ACK arrives.
            let out = run(&mut flow, EventView { ack: Some(SeqNum(1)), ..Default::default() }, 10);
            assert_eq!(flow.state, TcpState::Established);
            assert!(out.connected);
        }

        #[test]
        fn rfc9293_close_sends_fin_once_the_stream_drains() {
            let mut t = established();
            t.req = SeqNum(1000).add(100);
            // Close with unsent data: FIN deferred.
            let out = run(&mut t, EventView { close: true, ..Default::default() }, 0);
            assert!(t.close_pending);
            assert_eq!(t.state, TcpState::Established);
            assert!(out.tx.iter().all(|r| !r.flags.contains(TcpFlags::FIN)));
            // Data ACKed: next visit emits FIN.
            let out = run(&mut t, EventView { ack: Some(SeqNum(1100)), ..Default::default() }, 10);
            let fin = out.tx.iter().find(|r| r.flags.contains(TcpFlags::FIN)).expect("FIN sent");
            assert_eq!(fin.len, 0);
            assert_eq!(t.state, TcpState::FinWait);
        }

        #[test]
        fn rfc9293_peer_fin_is_acked_and_reported() {
            let mut t = established();
            let ev = EventView {
                flags: TcpFlags::FIN,
                rcv_nxt: Some(SeqNum(1001)), // FIN phantom sequenced by parser
                needs_ack: true,
                ..Default::default()
            };
            let out = run(&mut t, ev, 0);
            assert_eq!(t.state, TcpState::CloseWait);
            assert!(out.peer_fin);
            assert_eq!(out.tx.len(), 1, "FIN is ACKed");
        }

        #[test]
        fn rfc9293_active_close_passes_through_time_wait() {
            let mut t = established();
            // We close first: FIN out.
            run(&mut t, EventView { close: true, ..Default::default() }, 0);
            assert_eq!(t.state, TcpState::FinWait);
            // Peer ACKs our FIN.
            let fin_end = t.snd_nxt;
            run(&mut t, EventView { ack: Some(fin_end), ..Default::default() }, 10);
            assert_eq!(t.state, TcpState::FinWait, "FIN_WAIT_2 equivalent");
            // Peer's FIN arrives: TIME_WAIT with the 2MSL timer armed.
            let peer_fin = EventView {
                flags: TcpFlags::FIN,
                rcv_nxt: Some(SeqNum(1001)),
                needs_ack: true,
                ..Default::default()
            };
            let out = run(&mut t, peer_fin, 20);
            assert_eq!(t.state, TcpState::TimeWait);
            assert!(!out.closed, "not closed yet: quiet period");
            assert_eq!(t.rto_deadline, Some(20 + TIME_WAIT_NS));
            assert_eq!(out.tx.len(), 1, "final FIN is ACKed");
            // A retransmitted FIN during TIME_WAIT is re-ACKed, not fatal.
            let out = run(&mut t, peer_fin, 1_000);
            assert_eq!(t.state, TcpState::TimeWait);
            assert_eq!(out.tx.len(), 1, "duplicate FIN re-ACKed");
            // Timer expiry closes for real.
            let out = run(
                &mut t,
                EventView { rto_fired: true, ..Default::default() },
                20 + TIME_WAIT_NS + 1,
            );
            assert_eq!(t.state, TcpState::Closed);
            assert!(out.closed);
        }

        #[test]
        fn rfc9293_rst_closes_the_connection() {
            let mut t = established();
            let out = run(&mut t, EventView { flags: TcpFlags::RST, ..Default::default() }, 0);
            assert_eq!(t.state, TcpState::Closed);
            assert!(out.closed);
            assert!(out.tx.is_empty());
        }
    }

    /// Reliability: ACK acceptance, RTT, loss recovery, retransmission.
    mod reliability {
        use super::*;

        /// A flow with 20 MSS in flight and a matching window.
        fn twenty_in_flight() -> Tcb {
            let mut t = established();
            t.snd_nxt = SeqNum(1000).add(20 * MSS);
            t.req = t.snd_nxt;
            t.cwnd = 20 * MSS;
            t
        }

        #[test]
        fn rfc9293_ack_advances_snd_una_and_reports_to_the_host() {
            let mut t = established();
            t.snd_nxt = SeqNum(1000).add(4000);
            t.req = t.snd_nxt;
            let ev = EventView { ack: Some(SeqNum(1000).add(4000)), ..Default::default() };
            let out = run(&mut t, ev, 0);
            assert_eq!(t.snd_una, SeqNum(5000));
            assert_eq!(out.acked_upto, Some(SeqNum(5000)));
            assert!(t.rto_deadline.is_none(), "no flight left: RTO cancelled");
        }

        #[test]
        fn rfc9293_old_and_unsent_acks_are_ignored() {
            let mut t = established();
            t.snd_una = SeqNum(2000);
            t.snd_nxt = SeqNum(3000);
            let out = run(&mut t, EventView { ack: Some(SeqNum(1500)), ..Default::default() }, 0);
            assert_eq!(t.snd_una, SeqNum(2000));
            assert!(out.acked_upto.is_none());
            // An ACK for data we never sent is also ignored.
            run(&mut t, EventView { ack: Some(SeqNum(9000)), ..Default::default() }, 0);
            assert_eq!(t.snd_una, SeqNum(2000));
        }

        #[test]
        fn rfc7323_echoed_timestamp_is_an_rtt_sample() {
            let mut t = established();
            t.snd_nxt = SeqNum(1000).add(100);
            let ev = EventView {
                ack: Some(SeqNum(1000).add(100)),
                ts_ecr: 1_000_000,
                ..Default::default()
            };
            run(&mut t, ev, 1_100_000); // 100 µs RTT
            assert!(t.rto.has_sample());
            assert_eq!(t.rto.srtt_ns(), 100_000);
        }

        #[test]
        fn rfc5681_three_dup_acks_trigger_fast_retransmit() {
            let mut t = twenty_in_flight();
            let out = run(&mut t, EventView { dup_acks: Some(3), ..Default::default() }, 0);
            assert!(t.in_recovery);
            let rtx = out.tx.iter().find(|r| r.retransmit).expect("retransmission emitted");
            assert_eq!(rtx.seq, SeqNum(1000), "retransmits the lost head segment");
            assert_eq!(rtx.len, MSS);
            assert_eq!(t.recover, SeqNum(1000).add(20 * MSS));
            assert_eq!(t.ssthresh, 10 * MSS, "halved flight");
        }

        #[test]
        fn rfc5681_accumulated_dup_acks_inflate_the_window_once() {
            let mut t = twenty_in_flight();
            run(&mut t, EventView { dup_acks: Some(3), ..Default::default() }, 0);
            let cwnd_after_entry = t.cwnd;
            // Five more duplicates accumulated before the next visit.
            run(&mut t, EventView { dup_acks: Some(8), ..Default::default() }, 100);
            assert_eq!(t.cwnd, cwnd_after_entry + 5 * MSS, "batched inflation");
        }

        #[test]
        fn rfc6582_full_ack_exits_recovery() {
            let mut t = twenty_in_flight();
            run(&mut t, EventView { dup_acks: Some(3), ..Default::default() }, 0);
            assert!(t.in_recovery);
            let full = EventView { ack: Some(SeqNum(1000).add(20 * MSS)), ..Default::default() };
            let out = run(&mut t, full, 100);
            assert!(!t.in_recovery);
            assert_eq!(t.cwnd, t.ssthresh, "window deflates to ssthresh");
            assert_eq!(out.acked_upto, Some(SeqNum(1000).add(20 * MSS)));
        }

        #[test]
        fn rfc6582_partial_ack_retransmits_the_next_hole() {
            let mut t = twenty_in_flight();
            run(&mut t, EventView { dup_acks: Some(3), ..Default::default() }, 0);
            let partial = EventView { ack: Some(SeqNum(1000).add(5 * MSS)), ..Default::default() };
            let out = run(&mut t, partial, 100);
            assert!(t.in_recovery, "partial ACK stays in recovery");
            let rtx = out.tx.iter().find(|r| r.retransmit).expect("hole retransmitted");
            assert_eq!(rtx.seq, SeqNum(1000).add(5 * MSS));
        }

        #[test]
        fn rfc6298_rto_backs_off_collapses_the_window_and_goes_back_n() {
            let mut t = established();
            t.snd_nxt = SeqNum(1000).add(10 * MSS);
            t.req = t.snd_nxt;
            t.cwnd = 10 * MSS;
            t.rto_deadline = Some(5_000_000);
            let ev = EventView { rto_fired: true, ..Default::default() };
            let out = run(&mut t, ev, 6_000_000);
            assert_eq!(t.cwnd, MSS);
            let rtx = out.tx.iter().find(|r| r.retransmit).expect("head retransmitted");
            assert_eq!(rtx.seq, SeqNum(1000));
            assert_eq!(t.snd_nxt, SeqNum(1000).add(MSS), "go-back-N rewound");
            assert!(t.rto_deadline.unwrap() > 6_000_000, "timer re-armed with backoff");
        }

        #[test]
        fn rfc6298_timeout_before_the_deadline_is_ignored() {
            let mut t = established();
            t.snd_nxt = SeqNum(1000).add(MSS);
            t.req = t.snd_nxt;
            t.rto_deadline = Some(10_000_000);
            // Timer event arrives early (deadline re-armed since it was set).
            let out = run(&mut t, EventView { rto_fired: true, ..Default::default() }, 1_000);
            assert!(out.tx.iter().all(|r| !r.retransmit), "no spurious retransmission");
            assert_eq!(t.cwnd, 10 * MSS);
        }
    }

    /// Flow control: window-sized data, probing, ACK and window updates.
    mod flow_control {
        use super::*;

        #[test]
        fn send_request_emits_data_within_window() {
            let mut t = established();
            let ev = EventView { req: Some(SeqNum(1000).add(5000)), ..Default::default() };
            let out = run(&mut t, ev, 1000);
            assert_eq!(out.tx.len(), 1);
            let req = out.tx[0];
            assert_eq!(req.seq, SeqNum(1000));
            assert_eq!(req.len, 5000, "5000 B fits in the 10-MSS initial window");
            assert_eq!(t.snd_nxt, SeqNum(6000));
            assert!(t.rto_deadline.is_some(), "RTO armed");
            assert!(!out.more_work);
        }

        #[test]
        fn congestion_window_caps_transmission() {
            let mut t = established();
            t.cwnd = 2 * MSS;
            let ev = EventView { req: Some(SeqNum(1000).add(100_000)), ..Default::default() };
            let out = run(&mut t, ev, 0);
            assert_eq!(out.tx[0].len, 2 * MSS);
            // Window-limited flows do NOT set more_work: the ACK that opens
            // the window arrives as an event and wakes the flow.
            assert!(!out.more_work);
        }

        #[test]
        fn burst_cap_limits_single_visit() {
            let mut t = established();
            t.cwnd = 1 << 20;
            t.snd_wnd = 1 << 20;
            let ev = EventView { req: Some(SeqNum(1000).add(500_000)), ..Default::default() };
            let out = run(&mut t, ev, 0);
            assert_eq!(out.tx[0].len, MAX_BURST);
            assert!(out.more_work);
        }

        #[test]
        fn accumulated_requests_processed_at_once() {
            // The single-flow performance property (§4.2.2): eight 100 B
            // requests accumulate into one 800 B transmission.
            let mut t = established();
            let ev = EventView { req: Some(SeqNum(1000).add(800)), ..Default::default() };
            let out = run(&mut t, ev, 0);
            assert_eq!(out.tx.len(), 1);
            assert_eq!(out.tx[0].len, 800);
        }

        #[test]
        fn rfc9293_received_data_is_acked_with_window_and_timestamp() {
            let mut t = established();
            let ev = EventView {
                rcv_nxt: Some(SeqNum(1000).add(2000)),
                needs_ack: true,
                ts_val: 777,
                ..Default::default()
            };
            let out = run(&mut t, ev, 0);
            assert_eq!(out.rcvd_upto, Some(SeqNum(3000)));
            assert_eq!(out.tx.len(), 1);
            let ack = out.tx[0];
            assert_eq!(ack.len, 0);
            assert_eq!(ack.ack, SeqNum(3000));
            assert_eq!(ack.ts_ecr, 777, "peer's stamp echoed for its RTT");
            assert_eq!(ack.wnd, t.rcv_buf - 2000, "window reflects unconsumed data");
        }

        #[test]
        fn rfc9293_data_segment_piggybacks_the_ack() {
            let mut t = established();
            let ev = EventView {
                req: Some(SeqNum(1000).add(500)),
                rcv_nxt: Some(SeqNum(1000).add(100)),
                needs_ack: true,
                ..Default::default()
            };
            let out = run(&mut t, ev, 0);
            assert_eq!(out.tx.len(), 1, "single segment carries data + ACK");
            assert_eq!(out.tx[0].len, 500);
            assert_eq!(out.tx[0].ack, SeqNum(1100));
        }

        #[test]
        fn rfc5681_one_duplicate_ack_per_out_of_order_segment() {
            // Three out-of-order segments accumulated into one pass: the
            // gap is still open, so three duplicate ACKs go out.
            let mut t = established();
            let ooo = EventView { needs_ack: true, dup_ack_gen: 3, ..Default::default() };
            let out = run(&mut t, ooo, 0);
            assert_eq!(out.tx.len(), 3);
            assert!(out.tx.iter().all(|r| r.len == 0 && r.ack == SeqNum(1000)));
            // At most eight per pass.
            let out = run(&mut t, EventView { dup_ack_gen: 20, ..ooo }, 10);
            assert_eq!(out.tx.len(), 8);
            // The gap filled in the same pass: one cumulative ACK suffices.
            let filled = EventView { rcv_nxt: Some(SeqNum(1000).add(3000)), ..ooo };
            let out = run(&mut t, filled, 20);
            assert_eq!(out.tx.len(), 1);
            assert_eq!(out.tx[0].ack, SeqNum(4000));
        }

        #[test]
        fn rfc9293_zero_window_probe_cycle() {
            let mut t = established();
            t.snd_wnd = 0;
            t.req = SeqNum(1000).add(100);
            // First visit arms the probe timer.
            let out = run(&mut t, EventView::default(), 1000);
            assert!(out.tx.is_empty());
            let deadline = t.probe_deadline.expect("probe armed");
            // Timer fires: a 1-byte probe goes out.
            let ev = EventView { probe_fired: true, ..Default::default() };
            let out = run(&mut t, ev, deadline + 1);
            assert_eq!(out.tx.len(), 1);
            assert_eq!(out.tx[0].len, 1, "one-byte window probe");
            // Window opens: probe timer cancelled, data flows.
            let ev = EventView { wnd: Some(100_000), ..Default::default() };
            let out = run(&mut t, ev, deadline + 1000);
            assert!(t.probe_deadline.is_none());
            assert!(out.tx.iter().any(|r| r.len > 0));
        }

        #[test]
        fn rfc9293_window_update_when_the_application_reopens_the_window() {
            let mut t = established();
            // Buffer nearly full, window nearly closed.
            t.rcv_nxt = SeqNum(1000).add(t.rcv_buf - 100);
            assert!(t.advertised_window() < t.rcv_buf / 4);
            // Application consumes everything.
            let ev = EventView { consumed: Some(t.rcv_nxt), ..Default::default() };
            let out = run(&mut t, ev, 0);
            assert_eq!(t.advertised_window(), t.rcv_buf);
            assert_eq!(out.tx.len(), 1, "window-update ACK sent");
            assert_eq!(out.tx[0].wnd, t.rcv_buf);
        }
    }

    /// Every component together across a sequence-space wrap.
    mod sequence_wrap {
        use super::*;

        /// One pass's observable result, every sequence number taken
        /// relative to the ISN so runs at different ISNs compare equal.
        #[derive(Debug, PartialEq)]
        struct Step {
            state: TcpState,
            tx: Vec<(u32, u32, u32, TcpFlags, bool)>,
            acked_upto: Option<u32>,
            rcvd_upto: Option<u32>,
            flags: (bool, bool, bool),
            snd_una: u32,
            snd_nxt: u32,
            cwnd: u32,
            in_recovery: bool,
        }

        /// Handshake → data → three duplicate ACKs → partial ACK → full
        /// ACK → RTO go-back-N → drain → FIN → TIME_WAIT → closed, both
        /// directions starting at `isn`. Returns the steps and the final
        /// raw `snd_una`.
        fn transfer(isn: SeqNum) -> (Vec<Step>, SeqNum) {
            let mut t = Tcb::new(FlowId(9));
            (t.snd_una, t.snd_nxt, t.snd_max, t.req, t.recover) = (isn, isn, isn, isn, isn);
            (t.rcv_nxt, t.rcv_consumed) = (isn, isn); // placeholder until the peer's SYN
            let mut steps = Vec::new();
            let mut now = 0;
            let mut pass = |ev: EventView, t: &mut Tcb, now: u64| {
                let out = run(t, ev, now);
                steps.push(Step {
                    state: t.state,
                    tx: out
                        .tx
                        .iter()
                        .map(|r| (r.seq.since(isn), r.len, r.ack.since(isn), r.flags, r.retransmit))
                        .collect(),
                    acked_upto: out.acked_upto.map(|a| a.since(isn)),
                    rcvd_upto: out.rcvd_upto.map(|r| r.since(isn)),
                    flags: (out.connected, out.peer_fin, out.closed),
                    snd_una: t.snd_una.since(isn),
                    snd_nxt: t.snd_nxt.since(isn),
                    cwnd: t.cwnd,
                    in_recovery: t.in_recovery,
                });
            };
            let data = isn.add(1); // first byte after our SYN
            let peer = isn.add(1); // the peer's stream starts after its SYN too
            pass(EventView { connect: true, ..Default::default() }, &mut t, now);
            let syn_ack = EventView {
                flags: TcpFlags::SYN | TcpFlags::ACK,
                ack: Some(data),
                rcv_nxt: Some(peer),
                ..Default::default()
            };
            pass(syn_ack, &mut t, 100);
            let req = EventView { req: Some(data.add(20 * MSS)), ..Default::default() };
            pass(req, &mut t, 200);
            pass(EventView { dup_acks: Some(3), ..Default::default() }, &mut t, 300);
            pass(EventView { ack: Some(data.add(4 * MSS)), ..Default::default() }, &mut t, 400);
            pass(EventView { ack: Some(t.recover), ..Default::default() }, &mut t, 500);
            now = t.rto_deadline.expect("data in flight: RTO armed");
            pass(EventView { rto_fired: true, ..Default::default() }, &mut t, now);
            for _ in 0..64 {
                if t.snd_una == data.add(20 * MSS) {
                    break;
                }
                now += 1_000;
                pass(EventView { ack: Some(t.snd_max), ..Default::default() }, &mut t, now);
            }
            pass(EventView { close: true, ..Default::default() }, &mut t, now + 1_000);
            pass(EventView { ack: Some(t.snd_nxt), ..Default::default() }, &mut t, now + 2_000);
            let peer_fin = EventView {
                flags: TcpFlags::FIN,
                rcv_nxt: Some(peer.add(1)),
                needs_ack: true,
                ..Default::default()
            };
            pass(peer_fin, &mut t, now + 3_000);
            let expiry = t.rto_deadline.expect("2MSL timer armed");
            pass(EventView { rto_fired: true, ..Default::default() }, &mut t, expiry);
            (steps, t.snd_una)
        }

        #[test]
        fn every_component_behaves_the_same_across_a_sequence_wrap() {
            let (plain, _) = transfer(SeqNum(1000));
            // The stream crosses 2^32 four segments in, mid-burst.
            let isn = SeqNum(u32::MAX - 4 * MSS);
            let (wrapped, end) = transfer(isn);
            assert!(end.0 < isn.0, "the stream wrapped");
            // The plain run exercised every component.
            let rtx: Vec<u32> =
                plain.iter().flat_map(|s| &s.tx).filter(|r| r.4).map(|r| r.0).collect();
            assert_eq!(rtx[..2], [1, 1 + 4 * MSS], "fast retransmit, then the partial-ACK hole");
            assert!(rtx.len() >= 3, "the RTO resent the head too");
            assert!(plain.iter().any(|s| s.in_recovery));
            assert!(plain.iter().any(|s| s.state == TcpState::TimeWait));
            assert_eq!(plain.last().map(|s| (s.state, s.flags.2)), Some((TcpState::Closed, true)));
            assert_eq!(wrapped, plain);
        }
    }

    /// The pipeline wrapper and the event view.
    mod pipeline {
        use super::*;

        #[test]
        fn pipeline_latency_and_order() {
            let mut fpu = Fpu::new(Arc::new(NewReno), Some(5), MSS);
            // Slot 1 holds flow 1; slot 0 is a bystander.
            let mut tcbs = vec![Tcb::new(FlowId(0)), established()];
            tcbs[1].last_active_ns = 7;
            let mut tx = Vec::new();
            fpu.issue(1, FlowId(1), EventView::default(), 10);
            assert!(fpu.in_flight(FlowId(1)));
            for c in 10..15 {
                assert!(fpu.tick(c, c, &mut tcbs, &mut tx).is_none(), "not ready at cycle {c}");
                assert_eq!(tcbs[1].last_active_ns, 7, "the slot is untouched at cycle {c}");
            }
            let r = fpu.tick(15, 15, &mut tcbs, &mut tx).expect("ready after 5 cycles");
            assert_eq!((r.slot, r.issued_cycle), (1, 10));
            assert_eq!(tcbs[r.slot].flow, FlowId(1));
            assert_eq!(tcbs[1].last_active_ns, 15, "the pass ran on the slot at write-back");
            assert_eq!(tcbs[0], Tcb::new(FlowId(0)), "no other slot written");
            assert!(!fpu.in_flight(FlowId(1)));
            assert_eq!(fpu.processed(), 1);
        }

        #[test]
        fn pipeline_back_to_back_issue() {
            // Fully pipelined: three TCBs issued on consecutive cycles emerge
            // on consecutive cycles, regardless of a deep pipeline.
            let mut fpu = Fpu::new(Arc::new(NewReno), Some(68), MSS);
            let mut tcbs: Vec<Tcb> =
                (0..3).map(|i| Tcb { flow: FlowId(i), ..established() }).collect();
            for (i, c) in (100..103).enumerate() {
                fpu.issue(i, FlowId(i as u32), EventView::default(), c);
            }
            let mut tx = Vec::new();
            let mut done = Vec::new();
            for c in 100..200 {
                if let Some(r) = fpu.tick(c, 0, &mut tcbs, &mut tx) {
                    done.push((c, tcbs[r.slot].flow));
                }
            }
            assert_eq!(done.len(), 3);
            assert_eq!(done[0], (168, FlowId(0)));
            assert_eq!(done[1], (169, FlowId(1)));
            assert_eq!(done[2], (170, FlowId(2)));
        }

        #[test]
        fn uses_algorithm_latency_by_default() {
            let fpu = Fpu::new(Arc::new(f4t_tcp::Vegas), None, MSS);
            assert_eq!(fpu.latency(), 68);
            assert_eq!(fpu.cc().name(), "vegas");
        }

        #[test]
        fn event_view_any() {
            assert!(!EventView::default().any());
            assert!(EventView { connect: true, ..Default::default() }.any());
            assert!(EventView { dup_acks: Some(1), ..Default::default() }.any());
            assert!(EventView { rto_fired: true, ..Default::default() }.any());
        }
    }
}
