//! The echo (ping-pong) connectivity benchmark (§5.3, Fig. 13).
//!
//! "An echoing benchmark that sends a 128 B payload when it receives a
//! message from the other... each flow has to wait for a response to send
//! the next message. Thus, the TCB access pattern has a very low temporal
//! locality and results in the worst-case performance when utilizing
//! DRAM."

use f4t_host::{F4tLib, SendError};
use f4t_sim::{FlowSlab, Histogram};
use f4t_tcp::{FlowId, SeqNum};

/// Per-flow client state.
#[derive(Debug, Clone, Copy)]
struct PingState {
    /// Response pointer we are waiting for.
    expect: SeqNum,
    /// When the outstanding ping was sent (ns); 0 = none outstanding.
    sent_ns: u64,
    /// Earliest time the next ping may be sent (open-loop pacing).
    next_send_ns: u64,
}

/// The echo client: keeps exactly one message outstanding per flow.
#[derive(Debug)]
pub struct EchoClient {
    msg_bytes: u32,
    states: FlowSlab<PingState>,
    /// Minimum gap between a flow's consecutive pings (0 = closed loop).
    pace_ns: u64,
    /// Round-trip latency per message, in nanoseconds.
    pub latency: Histogram,
    completed: u64,
}

impl EchoClient {
    /// Creates a closed-loop client over `flows`, each registered in
    /// `lib` already.
    pub fn new(flows: &[FlowId], msg_bytes: u32, lib: &F4tLib) -> EchoClient {
        EchoClient::with_pace(flows, msg_bytes, lib, 0)
    }

    /// Creates a client that paces each flow to at most one ping per
    /// `pace_ns` (an open-loop offered load; 0 = closed loop).
    pub fn with_pace(
        flows: &[FlowId],
        msg_bytes: u32,
        lib: &F4tLib,
        pace_ns: u64,
    ) -> EchoClient {
        let mut states = FlowSlab::with_capacity(0);
        for &f in flows {
            let isn = lib.socket(f).map(|s| s.consumed).unwrap_or(SeqNum::ZERO);
            states.insert(f.0, PingState { expect: isn, sent_ns: 0, next_send_ns: 0 });
        }
        EchoClient { msg_bytes, states, pace_ns, latency: Histogram::new(), completed: 0 }
    }

    /// Drives one flow: if its response arrived, consume it, record
    /// latency and send the next ping; if idle, send the first ping.
    /// Returns `true` when a send was issued (library-call cost).
    pub fn step_flow(&mut self, flow: FlowId, lib: &mut F4tLib, now_ns: u64) -> bool {
        let Some(st) = self.states.get_mut(flow.0) else { return false };
        if st.sent_ns != 0 {
            // Waiting: has the echo come back?
            let Some(sock) = lib.socket(flow) else { return false };
            if sock.received.ge(st.expect) {
                lib.recv(flow, self.msg_bytes);
                self.latency.record(now_ns.saturating_sub(st.sent_ns));
                self.completed += 1;
                st.sent_ns = 0;
            } else {
                return false;
            }
        }
        // Pacing gate (open-loop mode).
        if now_ns < st.next_send_ns {
            return false;
        }
        // Send the next ping.
        match lib.send(flow, self.msg_bytes) {
            Ok(_) => {
                st.expect = st.expect.add(self.msg_bytes);
                st.sent_ns = now_ns.max(1);
                st.next_send_ns = now_ns + self.pace_ns;
                true
            }
            Err(SendError::BufferFull | SendError::QueueFull) => false,
            Err(_) => false,
        }
    }

    /// Completed round trips.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Earliest future send deadline across idle flows (the timer a
    /// sleeping thread must arm before blocking), if any.
    pub fn earliest_deadline(&self) -> Option<u64> {
        self.states
            .iter_dense()
            .filter(|st| st.sent_ns == 0 && st.next_send_ns > 0)
            .map(|st| st.next_send_ns)
            .min()
    }
}

/// The echo server: answers every complete message with a same-sized
/// reply.
#[derive(Debug)]
pub struct EchoServer {
    msg_bytes: u32,
    replies: u64,
}

impl EchoServer {
    /// Creates a server echoing `msg_bytes`-sized messages.
    pub fn new(msg_bytes: u32) -> EchoServer {
        EchoServer { msg_bytes, replies: 0 }
    }

    /// Serves one flow: consume a complete message and reply. Returns
    /// `true` when a reply was sent.
    pub fn step_flow(&mut self, flow: FlowId, lib: &mut F4tLib) -> bool {
        let Some(sock) = lib.socket(flow) else { return false };
        if sock.readable() < self.msg_bytes {
            return false;
        }
        lib.recv(flow, self.msg_bytes);
        if lib.send(flow, self.msg_bytes).is_ok() {
            self.replies += 1;
            true
        } else {
            false
        }
    }

    /// Replies sent.
    pub fn replies(&self) -> u64 {
        self.replies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_host::Completion;

    fn lib_with(flows: &[u32]) -> F4tLib {
        let mut lib = F4tLib::new();
        for &f in flows {
            lib.register(FlowId(f), SeqNum(0), true);
        }
        lib
    }

    #[test]
    fn client_one_outstanding_per_flow() {
        let mut lib = lib_with(&[1]);
        let mut c = EchoClient::new(&[FlowId(1)], 128, &lib);
        assert!(c.step_flow(FlowId(1), &mut lib, 1000), "first ping sent");
        assert!(!c.step_flow(FlowId(1), &mut lib, 2000), "waits for the echo");
        assert_eq!(lib.socket(FlowId(1)).unwrap().req, SeqNum(128), "exactly one message out");
    }

    #[test]
    fn round_trip_records_latency() {
        let mut lib = lib_with(&[1]);
        let mut c = EchoClient::new(&[FlowId(1)], 128, &lib);
        c.step_flow(FlowId(1), &mut lib, 1_000);
        // Echo arrives 5 µs later.
        lib.on_completion(Completion::Received { flow: FlowId(1), upto: SeqNum(128) });
        assert!(c.step_flow(FlowId(1), &mut lib, 6_000), "next ping sent");
        assert_eq!(c.completed(), 1);
        assert_eq!(c.latency.count(), 1);
        assert!((4_000..=5_100).contains(&c.latency.percentile(50.0)));
        assert_eq!(lib.socket(FlowId(1)).unwrap().req, SeqNum(256));
    }

    #[test]
    fn server_echoes_complete_messages_only() {
        let mut lib = lib_with(&[7]);
        let mut s = EchoServer::new(128);
        assert!(!s.step_flow(FlowId(7), &mut lib), "nothing readable");
        lib.on_completion(Completion::Received { flow: FlowId(7), upto: SeqNum(100) });
        assert!(!s.step_flow(FlowId(7), &mut lib), "partial message");
        lib.on_completion(Completion::Received { flow: FlowId(7), upto: SeqNum(128) });
        assert!(s.step_flow(FlowId(7), &mut lib));
        assert_eq!(s.replies(), 1);
        assert_eq!(lib.socket(FlowId(7)).unwrap().req, SeqNum(128), "reply queued");
    }

    #[test]
    fn pacing_gates_next_ping() {
        let mut lib = lib_with(&[1]);
        let mut c = EchoClient::with_pace(&[FlowId(1)], 128, &lib, 10_000);
        assert!(c.step_flow(FlowId(1), &mut lib, 1_000), "first ping immediate");
        lib.on_completion(Completion::Received { flow: FlowId(1), upto: SeqNum(128) });
        // Response consumed, but the pacing gate holds the next ping.
        assert!(!c.step_flow(FlowId(1), &mut lib, 5_000));
        assert_eq!(c.completed(), 1, "round trip still recorded");
        assert_eq!(c.earliest_deadline(), Some(11_000), "sleep timer target");
        assert!(c.step_flow(FlowId(1), &mut lib, 11_000), "gate opens on time");
        assert_eq!(c.earliest_deadline(), None, "ping outstanding again");
    }

    #[test]
    fn many_flows_independent() {
        let ids: Vec<u32> = (0..100).collect();
        let mut lib = lib_with(&ids);
        let flows: Vec<FlowId> = ids.iter().map(|&i| FlowId(i)).collect();
        let mut c = EchoClient::new(&flows, 128, &lib);
        for &f in &flows {
            assert!(c.step_flow(f, &mut lib, 10));
        }
        // Echo half of them.
        for i in 0..50 {
            lib.on_completion(Completion::Received { flow: FlowId(i), upto: SeqNum(128) });
        }
        let mut progressed = 0;
        for &f in &flows {
            if c.step_flow(f, &mut lib, 20_000) {
                progressed += 1;
            }
        }
        assert_eq!(progressed, 50);
        assert_eq!(c.completed(), 50);
    }
}
