//! The transmission control block (TCB).
//!
//! The TCB holds *all* per-flow transmission state (RFC 793 §3.2). In F4T
//! the TCB is the unit of storage, migration and processing: the event
//! handler accumulates events into it, the TCB manager constructs a merged
//! view of it, the FPU transforms it, and the scheduler migrates it between
//! FPC SRAM and DRAM. Keeping every field here — including congestion
//! control scratch state — is what lets the FPU be stateless (§4.2.2).

use crate::cc::CcState;
use crate::{FourTuple, RtoEstimator, SeqNum, MSS, TCP_BUFFER};

/// TCP connection states (RFC 793), reduced to the ones the prototype's
/// data path distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TcpState {
    /// No connection.
    #[default]
    Closed,
    /// Passive open; waiting for a SYN.
    Listen,
    /// Active open; SYN sent.
    SynSent,
    /// SYN received; SYN-ACK sent.
    SynReceived,
    /// Connection established; data flows.
    Established,
    /// FIN sent, awaiting ACK/FIN.
    FinWait,
    /// FIN received, waiting for local close.
    CloseWait,
    /// Both sides closed; draining.
    Closing,
    /// Final quiet period.
    TimeWait,
}

impl TcpState {
    /// Whether payload data may be sent in this state.
    pub fn can_send_data(self) -> bool {
        matches!(self, TcpState::Established | TcpState::CloseWait)
    }
}

/// The per-flow transmission control block.
///
/// Field names follow RFC 793 / the paper: `snd_una` is the ACK pointer,
/// `snd_nxt` the SEQ pointer, `req` the user send-request pointer from
/// §4.2.1 ("the F4T library sends the pointer itself instead of the
/// request length").
///
/// The struct is `Copy`: FtEngine moves whole TCBs between memories, and
/// the simulator does the same.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tcb {
    /// Global flow id.
    pub flow: crate::FlowId,
    /// The connection 4-tuple (stored so the packet generator can build
    /// headers without another lookup).
    pub tuple: FourTuple,
    /// Connection state machine.
    pub state: TcpState,

    // --- transmit-side pointers (cumulative, byte-stream space) ---
    /// Highest cumulative ACK received from the peer: all data before this
    /// point has been delivered.
    pub snd_una: SeqNum,
    /// Next sequence number to send: all data before this point has been
    /// transmitted at least once.
    pub snd_nxt: SeqNum,
    /// Highest sequence number ever transmitted (go-back-N rewinds
    /// `snd_nxt` but not this); ACKs up to here are acceptable.
    pub snd_max: SeqNum,
    /// User send-request pointer: the application has asked to send all
    /// data before this point (paper's REQ).
    pub req: SeqNum,
    /// Peer-advertised receive window in bytes.
    pub snd_wnd: u32,

    // --- congestion state ---
    /// Congestion window in bytes.
    pub cwnd: u32,
    /// Slow-start threshold in bytes.
    pub ssthresh: u32,
    /// Duplicate-ACK count (the one state the event handler increments
    /// in place — a single-cycle RMW, §4.2.1).
    pub dup_acks: u16,
    /// True while in fast recovery.
    pub in_recovery: bool,
    /// NewReno recovery point: recovery ends when `snd_una` passes this.
    pub recover: SeqNum,
    /// Algorithm-specific scratch state ("adding some entries in the
    /// TCB", §5.4).
    pub cc: CcState,

    // --- receive side ---
    /// Next in-order byte expected from the peer (reassembled pointer).
    pub rcv_nxt: SeqNum,
    /// Receive buffer size in bytes.
    pub rcv_buf: u32,
    /// Application-consumed pointer: bytes before this have been read by
    /// the app (advances via user recv events; determines the advertised
    /// window).
    pub rcv_consumed: SeqNum,
    /// Whether an ACK is owed to the peer.
    pub ack_pending: bool,

    // --- timers / RTT ---
    /// RTO estimator state.
    pub rto: RtoEstimator,
    /// Absolute deadline (ns) of the retransmission timer, if armed.
    pub rto_deadline: Option<u64>,
    /// Absolute deadline (ns) of the zero-window probe timer, if armed.
    pub probe_deadline: Option<u64>,
    /// The peer's most recent timestamp value, echoed back on our next
    /// segment (RFC 7323 TS.Recent); carries RTT samples to the peer.
    pub ts_recent: u64,
    /// Duplicate-ACK count already acted on by the FPU; the difference
    /// against `dup_acks` is how many new duplicates arrived since the
    /// last FPU visit (event accumulation can deliver several at once).
    pub dup_acks_processed: u16,

    /// Set when the application has requested close but unsent data is
    /// still queued; the FIN goes out once the stream drains.
    pub close_pending: bool,

    // --- engine metadata (not protocol state) ---
    /// Set by the scheduler to request eviction; the evict checker diverts
    /// the TCB to DRAM after its next FPU pass (§4.3.2).
    pub evict: bool,
    /// Last cycle this flow saw an event, for coldest-flow selection.
    pub last_active_ns: u64,
}

impl Tcb {
    /// Creates a closed TCB for `flow` with the evaluation's default
    /// buffer size and an initial window of 10 segments.
    pub fn new(flow: crate::FlowId) -> Tcb {
        Tcb {
            flow,
            tuple: FourTuple::default(),
            state: TcpState::Closed,
            snd_una: SeqNum::ZERO,
            snd_nxt: SeqNum::ZERO,
            snd_max: SeqNum::ZERO,
            req: SeqNum::ZERO,
            snd_wnd: TCP_BUFFER,
            cwnd: 10 * MSS,
            ssthresh: TCP_BUFFER,
            dup_acks: 0,
            in_recovery: false,
            recover: SeqNum::ZERO,
            cc: CcState::None,
            rcv_nxt: SeqNum::ZERO,
            rcv_buf: TCP_BUFFER,
            rcv_consumed: SeqNum::ZERO,
            ack_pending: false,
            rto: RtoEstimator::new(),
            rto_deadline: None,
            probe_deadline: None,
            ts_recent: 0,
            dup_acks_processed: 0,
            close_pending: false,
            evict: false,
            last_active_ns: 0,
        }
    }

    /// Creates an established TCB ready for data transfer, with both
    /// directions starting at sequence number `isn`. Used by workloads and
    /// tests that skip the handshake.
    pub fn established(flow: crate::FlowId, tuple: FourTuple, isn: SeqNum) -> Tcb {
        let mut t = Tcb::new(flow);
        t.tuple = tuple;
        t.state = TcpState::Established;
        t.snd_una = isn;
        t.snd_nxt = isn;
        t.snd_max = isn;
        t.req = isn;
        t.recover = isn;
        t.rcv_nxt = isn;
        t.rcv_consumed = isn;
        t
    }

    /// Bytes in flight (sent but unacknowledged).
    pub fn flight_size(&self) -> u32 {
        self.snd_nxt.since(self.snd_una)
    }

    /// Bytes the application has requested but that are not yet sent.
    pub fn unsent(&self) -> u32 {
        self.req.since(self.snd_nxt)
    }

    /// The effective send window: the lesser of the congestion window and
    /// the peer's advertised window, measured from `snd_una`.
    pub fn effective_window(&self) -> u32 {
        self.cwnd.min(self.snd_wnd)
    }

    /// How many new bytes may be sent right now.
    pub fn sendable(&self) -> u32 {
        let window = self.effective_window();
        let flight = self.flight_size();
        let room = window.saturating_sub(flight);
        room.min(self.unsent())
    }

    /// The receive window to advertise: buffer space not yet consumed by
    /// the application.
    pub fn advertised_window(&self) -> u32 {
        let buffered = self.rcv_nxt.since(self.rcv_consumed);
        self.rcv_buf.saturating_sub(buffered)
    }

    /// Whether this flow currently has a reason to transmit: data to send
    /// within window, an ACK owed, or a pending retransmission. This is
    /// the predicate the memory manager's *check logic* evaluates to
    /// decide whether to swap a DRAM-resident flow into an FPC (§4.3.1).
    pub fn can_send(&self) -> bool {
        self.ack_pending
            || (self.state.can_send_data() && self.sendable() > 0)
            || self.dup_acks >= 3
            || matches!(self.state, TcpState::SynSent | TcpState::SynReceived)
    }
}

/// A TCB's tag is its flow id: what a flow-indexed table (the memory
/// manager's tag-only TCB cache, say) keeps of it.
impl From<Tcb> for crate::FlowId {
    fn from(tcb: Tcb) -> crate::FlowId {
        tcb.flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowId;

    fn established() -> Tcb {
        Tcb::established(FlowId(1), FourTuple::default(), SeqNum(1000))
    }

    #[test]
    fn fresh_tcb_defaults() {
        let t = Tcb::new(FlowId(9));
        assert_eq!(t.state, TcpState::Closed);
        assert_eq!(t.cwnd, 10 * MSS);
        assert_eq!(t.flight_size(), 0);
        assert!(!t.can_send());
    }

    #[test]
    fn window_arithmetic() {
        let mut t = established();
        t.req = t.req.add(100_000);
        t.cwnd = 4 * MSS;
        t.snd_wnd = 100 * MSS;
        assert_eq!(t.effective_window(), 4 * MSS);
        assert_eq!(t.sendable(), 4 * MSS);
        t.snd_nxt = t.snd_nxt.add(2 * MSS);
        assert_eq!(t.flight_size(), 2 * MSS);
        assert_eq!(t.sendable(), 2 * MSS);
    }

    #[test]
    fn sendable_limited_by_unsent() {
        let mut t = established();
        t.req = t.req.add(100);
        assert_eq!(t.sendable(), 100);
    }

    #[test]
    fn peer_window_limits_send() {
        let mut t = established();
        t.req = t.req.add(1_000_000);
        t.snd_wnd = 500;
        assert_eq!(t.sendable(), 500);
        t.snd_wnd = 0;
        assert_eq!(t.sendable(), 0);
    }

    #[test]
    fn advertised_window_shrinks_with_unconsumed_data() {
        let mut t = established();
        assert_eq!(t.advertised_window(), TCP_BUFFER);
        t.rcv_nxt = t.rcv_nxt.add(10_000); // data arrived
        assert_eq!(t.advertised_window(), TCP_BUFFER - 10_000);
        t.rcv_consumed = t.rcv_consumed.add(10_000); // app read it
        assert_eq!(t.advertised_window(), TCP_BUFFER);
    }

    #[test]
    fn check_logic_predicate() {
        let mut t = established();
        assert!(!t.can_send(), "idle established flow has nothing to do");
        t.req = t.req.add(1);
        assert!(t.can_send(), "pending user data");
        let mut t = established();
        t.ack_pending = true;
        assert!(t.can_send(), "owed ACK");
        let mut t = established();
        t.dup_acks = 3;
        assert!(t.can_send(), "fast retransmit due");
    }

    #[test]
    fn state_gates_data() {
        assert!(TcpState::Established.can_send_data());
        assert!(TcpState::CloseWait.can_send_data());
        assert!(!TcpState::SynSent.can_send_data());
        assert!(!TcpState::Closed.can_send_data());
    }
}
