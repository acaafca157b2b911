//! Bulk data transfer (iperf) and the round-robin multi-flow request
//! pattern (§5.1, Figs. 2, 8, 9, 16); paced, the same sender is the
//! FtStorm slowloris dripper.

use f4t_host::F4tLib;
use f4t_tcp::FlowId;

/// An iperf-style sender: fixed-size requests, as fast as the send
/// buffer allows, rotating over its flow set. One flow is the bulk
/// transfer; several are the round-robin pattern where "adjacent
/// requests in each queue are from different flows", which defeats both
/// the scheduler's coalescing and the FPC's same-flow accumulation. A
/// minimum gap between sends makes it the slowloris dripper
/// ([`crate::storm`]): thousands of flows, each sending a few bytes per
/// `flows.len() × gap`.
#[derive(Debug)]
pub struct BulkSender {
    flows: Vec<FlowId>,
    next: usize,
    request_bytes: u32,
    /// Minimum time between successful sends (0 = as fast as possible).
    min_gap_ns: u64,
    /// Earliest time the next send may go out.
    next_send_ns: u64,
    requests: u64,
}

impl BulkSender {
    /// Creates a sender issuing `request_bytes`-sized requests over
    /// `flows` (one for bulk; the paper's round-robin uses 16 per core),
    /// at most one per `min_gap_ns` (0 for bulk and round-robin). An
    /// empty flow set never sends.
    ///
    /// # Panics
    ///
    /// Panics if `request_bytes` is zero.
    pub fn new(flows: Vec<FlowId>, request_bytes: u32, min_gap_ns: u64) -> BulkSender {
        assert!(request_bytes > 0, "request size must be non-zero");
        BulkSender { flows, next: 0, request_bytes, min_gap_ns, next_send_ns: 0, requests: 0 }
    }

    /// The first driven flow (the only one for a bulk transfer).
    pub fn flow(&self) -> FlowId {
        self.flows[0]
    }

    /// Attempts one `send()` on the next flow in rotation; returns `true`
    /// if a request was issued (costing the caller one library-call
    /// budget), `false` if the gap has not elapsed or the flow is blocked
    /// on buffer/queue space (costing a poll). A blocked flow is skipped:
    /// the next call tries the following one.
    pub fn step(&mut self, lib: &mut F4tLib, now_ns: u64) -> bool {
        if self.flows.is_empty() || now_ns < self.next_send_ns {
            return false;
        }
        let flow = self.flows[self.next];
        self.next = (self.next + 1) % self.flows.len();
        let sent = lib.send(flow, self.request_bytes).is_ok();
        if sent {
            self.next_send_ns = now_ns + self.min_gap_ns;
            self.requests += 1;
        }
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
        let mut s = BulkSender::new(vec![FlowId(1)], 128, 0);
        let mut issued = 0;
        while s.step(&mut lib, 0) {
            issued += 1;
        }
        assert_eq!(issued, u64::from(TCP_BUFFER / 128).min(1024), "buffer or queue bound");
        assert_eq!(s.requests(), issued);
    }

    #[test]
    fn sender_resumes_after_ack() {
        let mut lib = lib_with(2);
        let mut s = BulkSender::new(vec![FlowId(1)], TCP_BUFFER / 2, 0);
        assert!(s.step(&mut lib, 0));
        assert!(s.step(&mut lib, 0));
        assert!(!s.step(&mut lib, 0), "buffer full");
        lib.on_completion(Completion::Acked { flow: FlowId(1), upto: SeqNum(TCP_BUFFER / 2) });
        assert!(s.step(&mut lib, 0));
    }

    #[test]
    fn sender_rotates_across_flows() {
        let mut lib = lib_with(4);
        let mut rr = BulkSender::new((0..4).map(FlowId).collect(), 128, 0);
        for _ in 0..8 {
            assert!(rr.step(&mut lib, 0));
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
        let mut rr = BulkSender::new(vec![FlowId(0), FlowId(1)], 128, 0);
        assert!(!rr.step(&mut lib, 0), "flow 0: blocked");
        assert!(rr.step(&mut lib, 0), "flow 1: fine");
        assert_eq!(rr.requests(), 1);
    }

    /// An empty flow set (a core with more cores than flows to share)
    /// steps as a no-op instead of panicking: it never sends.
    #[test]
    fn empty_flow_set_panics() {
        let mut lib = lib_with(1);
        let mut s = BulkSender::new(vec![], 128, 0);
        assert!(!s.step(&mut lib, 0));
        assert_eq!(s.requests(), 0);
        assert_eq!(lib.sends(), 0, "no send reached the library");
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
