//! Closed-loop request/response applications: one client and one server
//! cover both the echo benchmark and the HTTP pair; they differ only in
//! byte counts and CPU costs.
//!
//! * **Echo** (§5.3, Fig. 13) is the `(msg, msg)` case: "an echoing
//!   benchmark that sends a 128 B payload when it receives a message from
//!   the other... each flow has to wait for a response to send the next
//!   message. Thus, the TCB access pattern has a very low temporal
//!   locality and results in the worst-case performance when utilizing
//!   DRAM."
//! * **wrk + Nginx** (§5.2, Figs. 1, 10–12) is the
//!   `(WRK_REQUEST_BYTES, NGINX_RESPONSE_BYTES)` case: closed-loop GETs
//!   answered with 256 B responses, the server paying application cycles
//!   plus a VFS read charged as kernel time (see [`crate::http`]).

use f4t_host::F4tLib;
use f4t_sim::{FlowSlab, Histogram};
use f4t_tcp::{FlowId, SeqNum};

/// Application cycles per echo request or reply.
pub const ECHO_APP_CYCLES: u64 = 100;

/// Per-flow client state.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    /// Response pointer we are waiting for.
    expect: SeqNum,
    /// When the outstanding request was sent (ns); 0 = none outstanding.
    sent_ns: u64,
    /// Earliest time the next request may be sent (open-loop pacing).
    next_send_ns: u64,
}

/// The client: keeps exactly one request outstanding per flow.
#[derive(Debug)]
pub struct RequestClient {
    request_bytes: u32,
    response_bytes: u32,
    /// Minimum gap between a flow's consecutive requests (0 = closed loop).
    pace_ns: u64,
    app_cycles: u64,
    states: FlowSlab<Outstanding>,
    /// Round-trip latency per request, in nanoseconds.
    pub latency: Histogram,
    completed: u64,
    consumed: u64,
}

impl RequestClient {
    /// Creates a client over `flows`, each registered in `lib` already,
    /// sending `request_bytes` and awaiting `response_bytes`. Each flow
    /// sends at most one request per `pace_ns` (an open-loop offered
    /// load; 0 = closed loop), and each request costs `app_cycles`.
    pub fn new(
        flows: &[FlowId],
        lib: &F4tLib,
        request_bytes: u32,
        response_bytes: u32,
        pace_ns: u64,
        app_cycles: u64,
    ) -> RequestClient {
        let mut states = FlowSlab::with_capacity(0);
        for &f in flows {
            let isn = lib.socket(f).map(|s| s.consumed).unwrap_or(SeqNum::ZERO);
            states.insert(f.0, Outstanding { expect: isn, sent_ns: 0, next_send_ns: 0 });
        }
        RequestClient {
            request_bytes,
            response_bytes,
            pace_ns,
            app_cycles,
            states,
            latency: Histogram::new(),
            completed: 0,
            consumed: 0,
        }
    }

    /// Drives one flow: if its response arrived, consume it, record
    /// latency and send the next request; if idle, send the first one.
    /// Returns `true` when a send was issued (library-call cost).
    pub fn step_flow(&mut self, flow: FlowId, lib: &mut F4tLib, now_ns: u64) -> bool {
        let Some(st) = self.states.get_mut(flow.0) else { return false };
        if st.sent_ns != 0 {
            // Waiting: has the response come back?
            let Some(sock) = lib.socket(flow) else { return false };
            if !sock.received.ge(st.expect) {
                return false;
            }
            self.consumed += u64::from(lib.recv(flow, self.response_bytes));
            self.latency.record(now_ns.saturating_sub(st.sent_ns));
            self.completed += 1;
            st.sent_ns = 0;
        }
        // Pacing gate (open-loop mode).
        if now_ns < st.next_send_ns || lib.send(flow, self.request_bytes).is_err() {
            return false;
        }
        st.expect = st.expect.add(self.response_bytes);
        st.sent_ns = now_ns.max(1);
        st.next_send_ns = now_ns + self.pace_ns;
        true
    }

    /// Completed round trips.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Response bytes taken by `recv`.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Application cycles per request.
    pub fn app_cycles(&self) -> u64 {
        self.app_cycles
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

/// The server: answers every complete request with one response.
#[derive(Debug)]
pub struct RequestServer {
    request_bytes: u32,
    response_bytes: u32,
    app_cycles: u64,
    kernel_cycles: u64,
    served: u64,
    consumed: u64,
}

impl RequestServer {
    /// Creates a server answering each `request_bytes` request with
    /// `response_bytes`, paying `app_cycles` application and
    /// `kernel_cycles` kernel time per reply.
    pub fn new(
        request_bytes: u32,
        response_bytes: u32,
        app_cycles: u64,
        kernel_cycles: u64,
    ) -> RequestServer {
        RequestServer {
            request_bytes,
            response_bytes,
            app_cycles,
            kernel_cycles,
            served: 0,
            consumed: 0,
        }
    }

    /// Serves one flow: consume a complete request and reply. Returns
    /// `true` when a reply was sent.
    pub fn step_flow(&mut self, flow: FlowId, lib: &mut F4tLib) -> bool {
        let Some(sock) = lib.socket(flow) else { return false };
        if sock.readable() < self.request_bytes {
            return false;
        }
        self.consumed += u64::from(lib.recv(flow, self.request_bytes));
        let sent = lib.send(flow, self.response_bytes).is_ok();
        self.served += u64::from(sent);
        sent
    }

    /// Replies sent.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Request bytes taken by `recv`.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// `(application, kernel)` cycles per reply.
    pub fn cycles(&self) -> (u64, u64) {
        (self.app_cycles, self.kernel_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{NGINX_RESPONSE_BYTES, WRK_REQUEST_BYTES};
    use f4t_host::Completion;

    /// `(request, response)` bytes: echo, then wrk + Nginx.
    const SIZES: [(u32, u32); 2] = [(128, 128), (WRK_REQUEST_BYTES, NGINX_RESPONSE_BYTES)];

    fn lib_with(flows: &[u32]) -> F4tLib {
        let mut lib = F4tLib::new();
        for &f in flows {
            lib.register(FlowId(f), SeqNum(0), true);
        }
        lib
    }

    fn client(flows: &[FlowId], lib: &F4tLib, (req, resp): (u32, u32)) -> RequestClient {
        RequestClient::new(flows, lib, req, resp, 0, ECHO_APP_CYCLES)
    }

    #[test]
    fn client_one_outstanding_per_flow() {
        for sizes in SIZES {
            let mut lib = lib_with(&[1]);
            let mut c = client(&[FlowId(1)], &lib, sizes);
            assert!(c.step_flow(FlowId(1), &mut lib, 1000), "first request sent");
            assert!(!c.step_flow(FlowId(1), &mut lib, 2000), "waits for the response");
            assert_eq!(lib.socket(FlowId(1)).unwrap().req, SeqNum(sizes.0), "one request out");
        }
    }

    #[test]
    fn round_trip_records_latency() {
        for sizes @ (req, resp) in SIZES {
            let mut lib = lib_with(&[1]);
            let mut c = client(&[FlowId(1)], &lib, sizes);
            c.step_flow(FlowId(1), &mut lib, 1_000);
            // The response arrives 50 µs later.
            lib.on_completion(Completion::Received { flow: FlowId(1), upto: SeqNum(resp) });
            assert!(c.step_flow(FlowId(1), &mut lib, 51_000), "next request sent");
            assert_eq!(c.completed(), 1);
            assert_eq!(c.consumed(), u64::from(resp), "the response was taken");
            assert_eq!(c.latency.count(), 1);
            assert!((45_000..=50_100).contains(&c.latency.percentile(50.0)));
            assert_eq!(lib.socket(FlowId(1)).unwrap().req, SeqNum(2 * req));
        }
    }

    #[test]
    fn server_answers_complete_requests_only() {
        for (req, resp) in SIZES {
            let mut lib = lib_with(&[7]);
            let mut s = RequestServer::new(req, resp, ECHO_APP_CYCLES, 0);
            assert!(!s.step_flow(FlowId(7), &mut lib), "nothing readable");
            lib.on_completion(Completion::Received { flow: FlowId(7), upto: SeqNum(req - 28) });
            assert!(!s.step_flow(FlowId(7), &mut lib), "partial request");
            lib.on_completion(Completion::Received { flow: FlowId(7), upto: SeqNum(req) });
            assert!(s.step_flow(FlowId(7), &mut lib));
            assert_eq!(s.served(), 1);
            assert_eq!(s.consumed(), u64::from(req), "the partial request was left");
            assert_eq!(lib.socket(FlowId(7)).unwrap().req, SeqNum(resp), "response queued");
        }
    }

    #[test]
    fn pipelined_requests_served_in_order() {
        for (req, resp) in SIZES {
            let mut lib = lib_with(&[3]);
            let mut s = RequestServer::new(req, resp, ECHO_APP_CYCLES, 0);
            // Two back-to-back requests arrive.
            lib.on_completion(Completion::Received { flow: FlowId(3), upto: SeqNum(2 * req) });
            assert!(s.step_flow(FlowId(3), &mut lib));
            assert!(s.step_flow(FlowId(3), &mut lib));
            assert!(!s.step_flow(FlowId(3), &mut lib));
            assert_eq!(s.served(), 2);
        }
    }

    #[test]
    fn pacing_gates_next_request() {
        let mut lib = lib_with(&[1]);
        let mut c = RequestClient::new(&[FlowId(1)], &lib, 128, 128, 10_000, ECHO_APP_CYCLES);
        assert!(c.step_flow(FlowId(1), &mut lib, 1_000), "first request immediate");
        lib.on_completion(Completion::Received { flow: FlowId(1), upto: SeqNum(128) });
        // Response consumed, but the pacing gate holds the next request.
        assert!(!c.step_flow(FlowId(1), &mut lib, 5_000));
        assert_eq!(c.completed(), 1, "round trip still recorded");
        assert_eq!(c.earliest_deadline(), Some(11_000), "sleep timer target");
        assert!(c.step_flow(FlowId(1), &mut lib, 11_000), "gate opens on time");
        assert_eq!(c.earliest_deadline(), None, "request outstanding again");
    }

    #[test]
    fn many_flows_independent() {
        let ids: Vec<u32> = (0..100).collect();
        let mut lib = lib_with(&ids);
        let flows: Vec<FlowId> = ids.iter().map(|&i| FlowId(i)).collect();
        let mut c = client(&flows, &lib, SIZES[0]);
        for &f in &flows {
            assert!(c.step_flow(f, &mut lib, 10));
        }
        // Answer half of them.
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
