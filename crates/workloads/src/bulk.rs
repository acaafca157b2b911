//! Bulk data transfer (iperf) and the round-robin multi-flow request
//! pattern (§5.1, Figs. 2, 8, 9, 16).

use f4t_host::F4tLib;
use f4t_tcp::FlowId;

/// An iperf-style sender: fixed-size requests, as fast as the send
/// buffer allows, rotating over its flow set. One flow is the bulk
/// transfer; several are the round-robin pattern where "adjacent
/// requests in each queue are from different flows", which defeats both
/// the scheduler's coalescing and the FPC's same-flow accumulation.
#[derive(Debug)]
pub struct BulkSender {
    flows: Vec<FlowId>,
    next: usize,
    request_bytes: u32,
    requests: u64,
}

impl BulkSender {
    /// Creates a sender issuing `request_bytes`-sized requests over
    /// `flows` (one for bulk; the paper's round-robin uses 16 per core).
    ///
    /// # Panics
    ///
    /// Panics if `flows` is empty or `request_bytes` is zero.
    pub fn new(flows: Vec<FlowId>, request_bytes: u32) -> BulkSender {
        assert!(!flows.is_empty(), "need at least one flow");
        assert!(request_bytes > 0, "request size must be non-zero");
        BulkSender { flows, next: 0, request_bytes, requests: 0 }
    }

    /// The first driven flow (the only one for a bulk transfer).
    pub fn flow(&self) -> FlowId {
        self.flows[0]
    }

    /// Attempts one `send()` on the next flow in rotation; returns `true`
    /// if a request was issued (costing the caller one library-call
    /// budget), `false` if blocked on buffer/queue space (costing a
    /// poll). A blocked flow is skipped: the next call tries the
    /// following one.
    pub fn step(&mut self, lib: &mut F4tLib) -> bool {
        let flow = self.flows[self.next];
        self.next = (self.next + 1) % self.flows.len();
        let sent = lib.send(flow, self.request_bytes).is_ok();
        self.requests += u64::from(sent);
        sent
    }

    /// Requests issued.
    pub fn requests(&self) -> u64 {
        self.requests
    }
}

/// The receiving side of a bulk transfer: consume everything that
/// arrives, keeping the advertised window open.
#[derive(Debug)]
pub struct BulkReceiver {
    flows: Vec<FlowId>,
    consumed: u64,
}

impl BulkReceiver {
    /// Creates a receiver draining `flows`.
    pub fn new(flows: Vec<FlowId>) -> BulkReceiver {
        BulkReceiver { flows, consumed: 0 }
    }

    /// Consumes available data on one flow per call (round-robining
    /// through the set); returns bytes consumed (0 = nothing readable,
    /// costing the caller only a poll).
    pub fn step(&mut self, lib: &mut F4tLib) -> u32 {
        for _ in 0..self.flows.len() {
            let flow = self.flows[0];
            self.flows.rotate_left(1);
            let got = lib.recv(flow, u32::MAX);
            if got > 0 {
                self.consumed += u64::from(got);
                return got;
            }
        }
        0
    }

    /// Total bytes consumed.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_host::Completion;
    use f4t_tcp::{SeqNum, TCP_BUFFER};

    fn lib_with(n: u32) -> F4tLib {
        let mut lib = F4tLib::new();
        for i in 0..n {
            lib.register(FlowId(i), SeqNum(0), true);
        }
        lib
    }

    #[test]
    fn sender_issues_until_buffer_full() {
        let mut lib = lib_with(2);
        let mut s = BulkSender::new(vec![FlowId(1)], 128);
        let mut issued = 0;
        while s.step(&mut lib) {
            issued += 1;
        }
        assert_eq!(issued, u64::from(TCP_BUFFER / 128).min(1024), "buffer or queue bound");
        assert_eq!(s.requests(), issued);
    }

    #[test]
    fn sender_resumes_after_ack() {
        let mut lib = lib_with(2);
        let mut s = BulkSender::new(vec![FlowId(1)], TCP_BUFFER / 2);
        assert!(s.step(&mut lib));
        assert!(s.step(&mut lib));
        assert!(!s.step(&mut lib), "buffer full");
        lib.on_completion(Completion::Acked { flow: FlowId(1), upto: SeqNum(TCP_BUFFER / 2) });
        assert!(s.step(&mut lib));
    }

    #[test]
    fn sender_rotates_across_flows() {
        let mut lib = lib_with(4);
        let mut rr = BulkSender::new((0..4).map(FlowId).collect(), 128);
        for _ in 0..8 {
            assert!(rr.step(&mut lib));
        }
        // Each flow got exactly 2 requests of 128 B.
        for i in 0..4 {
            let s = lib.socket(FlowId(i)).unwrap();
            assert_eq!(s.req, SeqNum(256), "flow {i}");
        }
        assert_eq!(rr.requests(), 8);
    }

    #[test]
    fn blocked_flow_skipped_not_stuck() {
        let mut lib = lib_with(2);
        // Fill flow 0's buffer entirely.
        lib.send(FlowId(0), TCP_BUFFER).unwrap();
        let mut rr = BulkSender::new(vec![FlowId(0), FlowId(1)], 128);
        assert!(!rr.step(&mut lib), "flow 0: blocked");
        assert!(rr.step(&mut lib), "flow 1: fine");
        assert_eq!(rr.requests(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn empty_flow_set_panics() {
        let _ = BulkSender::new(vec![], 128);
    }

    #[test]
    fn receiver_consumes_and_rotates() {
        let mut lib = lib_with(3);
        let mut r = BulkReceiver::new(vec![FlowId(1), FlowId(2)]);
        assert_eq!(r.step(&mut lib), 0, "nothing yet");
        lib.on_completion(Completion::Received { flow: FlowId(2), upto: SeqNum(300) });
        assert_eq!(r.step(&mut lib), 300, "found the readable flow");
        assert_eq!(r.consumed(), 300);
    }
}
