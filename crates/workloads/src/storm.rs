//! FtStorm hostile-scenario drivers (DESIGN.md §14).
//!
//! Four traffic shapes that stress exactly the control paths bulk/echo
//! workloads never touch:
//!
//! * [`IncastSender`] — N-to-1 fan-in with synchronized request release:
//!   every epoch boundary all senders fire one burst at the same
//!   receiver, recreating the classic partition-aggregate incast that
//!   fills the bottleneck queue in one RTT.
//! * [`SinkServer`] — the fan-in receiver: drains whatever is readable,
//!   opening the window as fast as the core allows.
//! * [`ChurnClient`] / [`ChurnServer`] — sustained connect/close
//!   cycling: each client connection sends one small request and
//!   actively closes; the server drains and passively closes on FIN.
//!   Exercises handshake, teardown, flow-id reuse and LUT recycling at
//!   steady state.
//! * [`SlowlorisClient`] — thousands of near-idle connections dripping
//!   a few bytes at a long interval, holding TCB and LUT residency with
//!   almost no data-path load.
//!
//! Like every other driver, these are pure bookkeeping over F4T library
//! pointers; cycle costs stay with the per-core loop in `f4t-system`.

use f4t_host::{F4tLib, SendError};
use f4t_sim::FlowSlab;
use f4t_tcp::FlowId;

/// Default incast burst payload per sender per epoch.
pub const INCAST_BURST_BYTES: u32 = 2_048;
/// Default incast epoch (synchronized release period).
pub const INCAST_EPOCH_NS: u64 = 100_000;
/// Request each churn connection sends before closing.
pub const CHURN_REQUEST_BYTES: u32 = 256;
/// Bytes a slowloris connection drips per interval.
pub const SLOWLORIS_DRIP_BYTES: u32 = 8;

/// N-to-1 fan-in sender: all flows release one burst at every epoch
/// boundary (partition-aggregate style synchronized incast).
#[derive(Debug)]
pub struct IncastSender {
    flows: Vec<FlowId>,
    /// Which flows still owe this epoch's burst.
    pending: Vec<bool>,
    cursor: usize,
    burst_bytes: u32,
    epoch_ns: u64,
    epoch: u64,
    sent: u64,
}

impl IncastSender {
    /// Creates a sender over established `flows` releasing `burst_bytes`
    /// per flow every `epoch_ns`.
    pub fn new(flows: Vec<FlowId>, burst_bytes: u32, epoch_ns: u64) -> IncastSender {
        let n = flows.len();
        IncastSender {
            flows,
            pending: vec![false; n],
            cursor: 0,
            burst_bytes,
            epoch_ns: epoch_ns.max(1),
            epoch: u64::MAX,
            sent: 0,
        }
    }

    /// Issues at most one burst send. Returns `true` when a send was
    /// issued (the caller charges one command's worth of cycles).
    pub fn step(&mut self, lib: &mut F4tLib, now_ns: u64) -> bool {
        let epoch = now_ns / self.epoch_ns;
        if epoch != self.epoch {
            // Epoch boundary: every flow re-arms, releases synchronize.
            self.epoch = epoch;
            self.pending.fill(true);
            self.cursor = 0;
        }
        while self.cursor < self.flows.len() {
            let i = self.cursor;
            if !self.pending[i] {
                self.cursor += 1;
                continue;
            }
            match lib.send(self.flows[i], self.burst_bytes) {
                Ok(_) => {
                    self.pending[i] = false;
                    self.cursor += 1;
                    self.sent += 1;
                    return true;
                }
                // Backpressured: retry the same flow on the next step so
                // the release order stays deterministic.
                Err(SendError::BufferFull | SendError::QueueFull) => return false,
                Err(_) => {
                    self.pending[i] = false;
                    self.cursor += 1;
                }
            }
        }
        false
    }

    /// Burst sends issued.
    pub fn requests(&self) -> u64 {
        self.sent
    }
}

/// The fan-in receiver: drains readable bytes, opening the window.
#[derive(Debug, Default)]
pub struct SinkServer {
    consumed: u64,
}

impl SinkServer {
    /// Creates a sink.
    pub fn new() -> SinkServer {
        SinkServer::default()
    }

    /// Drains one flow's readable bytes; `true` when bytes were taken.
    pub fn step_flow(&mut self, flow: FlowId, lib: &mut F4tLib) -> bool {
        let Some(sock) = lib.socket(flow) else { return false };
        let readable = sock.readable();
        if readable == 0 {
            return false;
        }
        let took = lib.recv(flow, readable);
        self.consumed += u64::from(took);
        took > 0
    }

    /// Total bytes consumed.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }
}

/// Lifecycle of one churning client connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChurnPhase {
    /// Waiting for the handshake to complete.
    AwaitConnect,
    /// Connected; the request send is still owed (backpressure retry).
    NeedSend,
    /// Request sent; the close command is still owed.
    NeedClose,
    /// Close issued; waiting for the engine's Closed notification.
    Closing,
}

/// Connect → one request → close, forever. Flow membership is dynamic:
/// the system-level churn manager announces opens via [`Self::on_open`]
/// and the node reports engine teardown via [`Self::on_closed`].
#[derive(Debug)]
pub struct ChurnClient {
    req_bytes: u32,
    states: FlowSlab<ChurnPhase>,
    opened: u64,
    completed: u64,
}

impl ChurnClient {
    /// Creates a client whose connections each send `req_bytes`.
    pub fn new(req_bytes: u32) -> ChurnClient {
        ChurnClient { req_bytes, states: FlowSlab::with_capacity(0), opened: 0, completed: 0 }
    }

    /// A new connection attempt was issued for `flow`.
    pub fn on_open(&mut self, flow: FlowId) {
        self.states.insert(flow.0, ChurnPhase::AwaitConnect);
        self.opened += 1;
    }

    /// The engine tore `flow` down; its lifecycle is complete.
    pub fn on_closed(&mut self, flow: FlowId) {
        if self.states.remove(flow.0).is_some() {
            self.completed += 1;
        }
    }

    /// Advances one connection. Returns `true` when a command was issued.
    pub fn step_flow(&mut self, flow: FlowId, lib: &mut F4tLib) -> bool {
        let Some(phase) = self.states.get_mut(flow.0) else { return false };
        if *phase == ChurnPhase::AwaitConnect {
            if !lib.socket(flow).is_some_and(|s| s.connected) {
                return false;
            }
            *phase = ChurnPhase::NeedSend;
        }
        if *phase == ChurnPhase::NeedSend {
            match lib.send(flow, self.req_bytes) {
                Ok(_) => *phase = ChurnPhase::NeedClose,
                Err(SendError::BufferFull | SendError::QueueFull) => return false,
                Err(_) => return false,
            }
        }
        if *phase == ChurnPhase::NeedClose {
            if lib.close(flow).is_err() {
                // Queue full: the send above may still have gone out;
                // report work done and retry the close on a later step.
                return true;
            }
            *phase = ChurnPhase::Closing;
            return true;
        }
        false
    }

    /// Connections opened so far.
    pub fn opened(&self) -> u64 {
        self.opened
    }

    /// Connections that completed the full open→request→close cycle.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Connections currently somewhere in their lifecycle.
    pub fn live(&self) -> usize {
        self.states.len()
    }
}

/// Per-connection server bookkeeping.
#[derive(Debug, Clone, Copy)]
struct ChurnServerConn {
    close_sent: bool,
}

/// Accept → drain → passive-close on FIN. Membership is dynamic, driven
/// by [`Self::on_accept`] / [`Self::on_closed`] from the node.
#[derive(Debug, Default)]
pub struct ChurnServer {
    conns: FlowSlab<ChurnServerConn>,
    consumed: u64,
    served: u64,
}

impl ChurnServer {
    /// Creates a server.
    pub fn new() -> ChurnServer {
        ChurnServer::default()
    }

    /// The engine accepted a new connection on this core.
    pub fn on_accept(&mut self, flow: FlowId) {
        self.conns.insert(flow.0, ChurnServerConn { close_sent: false });
    }

    /// The engine tore `flow` down.
    pub fn on_closed(&mut self, flow: FlowId) {
        if self.conns.remove(flow.0).is_some() {
            self.served += 1;
        }
    }

    /// Drains readable data and answers the peer's FIN with a close.
    pub fn step_flow(&mut self, flow: FlowId, lib: &mut F4tLib) -> bool {
        let Some(conn) = self.conns.get_mut(flow.0) else { return false };
        let Some(sock) = lib.socket(flow).copied() else { return false };
        let mut did_work = false;
        if sock.readable() > 0 {
            let took = lib.recv(flow, sock.readable());
            self.consumed += u64::from(took);
            did_work = took > 0;
        }
        if sock.eof && !conn.close_sent && lib.close(flow).is_ok() {
            conn.close_sent = true;
            did_work = true;
        }
        did_work
    }

    /// Connections fully served (accepted through closed).
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Bytes drained from churning connections.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Connections currently open.
    pub fn live(&self) -> usize {
        self.conns.len()
    }
}

/// Thousands of near-idle connections each dripping a few bytes at a
/// long interval — the residency stressor: every flow stays established
/// (TCB + LUT entries pinned) while the data path is almost unloaded.
#[derive(Debug)]
pub struct SlowlorisClient {
    flows: Vec<FlowId>,
    cursor: usize,
    drip_bytes: u32,
    interval_ns: u64,
    next_drip_ns: u64,
    drips: u64,
}

impl SlowlorisClient {
    /// Creates a dripper over established `flows`: one flow sends
    /// `drip_bytes` every `interval_ns` (cursor rotation, so each flow
    /// transmits every `flows.len() * interval_ns`).
    pub fn new(flows: Vec<FlowId>, drip_bytes: u32, interval_ns: u64) -> SlowlorisClient {
        SlowlorisClient {
            flows,
            cursor: 0,
            drip_bytes,
            interval_ns: interval_ns.max(1),
            next_drip_ns: 0,
            drips: 0,
        }
    }

    /// Issues at most one drip. Returns `true` when a send was issued.
    pub fn step(&mut self, lib: &mut F4tLib, now_ns: u64) -> bool {
        if self.flows.is_empty() || now_ns < self.next_drip_ns {
            return false;
        }
        let flow = self.flows[self.cursor % self.flows.len()];
        self.cursor += 1;
        match lib.send(flow, self.drip_bytes) {
            Ok(_) => {
                self.next_drip_ns = now_ns + self.interval_ns;
                self.drips += 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Drip sends issued.
    pub fn requests(&self) -> u64 {
        self.drips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_host::Completion;
    use f4t_tcp::SeqNum;

    fn lib_with_flows(n: u32) -> (F4tLib, Vec<FlowId>) {
        let mut lib = F4tLib::new();
        let flows: Vec<FlowId> = (0..n).map(FlowId).collect();
        for &f in &flows {
            lib.register(f, SeqNum(0), true);
        }
        (lib, flows)
    }

    #[test]
    fn incast_releases_one_burst_per_flow_per_epoch() {
        let (mut lib, flows) = lib_with_flows(4);
        let mut inc = IncastSender::new(flows.clone(), 512, 10_000);
        // Epoch 0: four sends then quiescent.
        for _ in 0..4 {
            assert!(inc.step(&mut lib, 100));
        }
        assert!(!inc.step(&mut lib, 5_000), "epoch burst exhausted");
        assert_eq!(inc.requests(), 4);
        // Next epoch re-arms every flow: the release restarts at flow 0.
        assert!(inc.step(&mut lib, 10_001));
        assert_eq!(lib.socket(flows[0]).unwrap().req, SeqNum(1_024));
        for &f in &flows[1..] {
            assert_eq!(lib.socket(f).unwrap().req, SeqNum(512));
        }
    }

    #[test]
    fn incast_retries_backpressured_flow_in_order() {
        let (mut lib, flows) = lib_with_flows(2);
        let mut inc = IncastSender::new(flows.clone(), f4t_tcp::TCP_BUFFER, 10_000);
        assert!(inc.step(&mut lib, 0), "first flow's buffer has room");
        assert!(inc.step(&mut lib, 0), "second flow too");
        assert!(!inc.step(&mut lib, 10_500), "both buffers now full");
        // ACK flow 0's data: the retry targets it first (deterministic).
        lib.on_completion(Completion::Acked { flow: flows[0], upto: SeqNum(f4t_tcp::TCP_BUFFER) });
        assert!(inc.step(&mut lib, 10_600));
        assert_eq!(lib.socket(flows[0]).unwrap().req.since(SeqNum(0)), 2 * f4t_tcp::TCP_BUFFER);
    }

    #[test]
    fn sink_drains_readable() {
        let (mut lib, flows) = lib_with_flows(1);
        let mut sink = SinkServer::new();
        assert!(!sink.step_flow(flows[0], &mut lib), "nothing readable");
        lib.on_completion(Completion::Received { flow: flows[0], upto: SeqNum(900) });
        assert!(sink.step_flow(flows[0], &mut lib));
        assert_eq!(sink.consumed(), 900);
        assert_eq!(lib.socket(flows[0]).unwrap().readable(), 0);
    }

    #[test]
    fn churn_client_lifecycle() {
        let mut lib = F4tLib::new();
        let flow = FlowId(3);
        let mut client = ChurnClient::new(CHURN_REQUEST_BYTES);
        lib.register(flow, SeqNum(0), false);
        client.on_open(flow);
        assert_eq!(client.live(), 1);
        assert!(!client.step_flow(flow, &mut lib), "handshake not done");
        lib.on_completion(Completion::Connected { flow });
        assert!(client.step_flow(flow, &mut lib), "request + close issued");
        assert_eq!(lib.socket(flow).unwrap().req, SeqNum(CHURN_REQUEST_BYTES));
        assert!(!client.step_flow(flow, &mut lib), "closing: nothing left");
        client.on_closed(flow);
        assert_eq!(client.completed(), 1);
        assert_eq!(client.live(), 0);
        assert!(!client.step_flow(flow, &mut lib), "forgotten flow is inert");
    }

    #[test]
    fn churn_server_drains_and_closes_on_fin() {
        let mut lib = F4tLib::new();
        let flow = FlowId(9);
        let mut server = ChurnServer::new();
        lib.register_accepted(flow, SeqNum(7_000), SeqNum(2_000));
        server.on_accept(flow);
        lib.on_completion(Completion::Received { flow, upto: SeqNum(2_000 + 256) });
        assert!(server.step_flow(flow, &mut lib));
        assert_eq!(server.consumed(), 256);
        lib.on_completion(Completion::Eof { flow });
        assert!(server.step_flow(flow, &mut lib), "close answers the FIN");
        assert!(!server.step_flow(flow, &mut lib), "close sent only once");
        server.on_closed(flow);
        assert_eq!(server.served(), 1);
        assert_eq!(server.live(), 0);
    }

    #[test]
    fn slowloris_paces_drips_across_flows() {
        let (mut lib, flows) = lib_with_flows(3);
        let mut slow = SlowlorisClient::new(flows.clone(), SLOWLORIS_DRIP_BYTES, 1_000);
        assert!(slow.step(&mut lib, 0));
        assert!(!slow.step(&mut lib, 500), "interval not elapsed");
        assert!(slow.step(&mut lib, 1_000));
        assert!(slow.step(&mut lib, 2_000));
        assert_eq!(slow.requests(), 3);
        // Cursor rotated: each flow got exactly one drip.
        for &f in &flows {
            assert_eq!(lib.socket(f).unwrap().req, SeqNum(SLOWLORIS_DRIP_BYTES));
        }
    }
}
