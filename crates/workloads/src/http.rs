//! The Nginx + wrk HTTP workload (§5.2, Figs. 1, 10, 11, 12).
//!
//! wrk issues closed-loop HTTP GETs; Nginx answers each with a 256 B
//! response "including the HTTP header and the HTML payload" (the paper
//! uses 256 B rather than 128 B because Nginx's header alone exceeds
//! 128 B). The server pays per-request application cycles plus a VFS read
//! for the HTML file — the kernel cost the paper observes remaining even
//! under F4T (Fig. 11's `vfs_read` note).

use f4t_host::{F4tLib, SendError};
use f4t_sim::{FlowSlab, Histogram};
use f4t_tcp::{FlowId, SeqNum};

/// wrk's request size (a minimal GET).
pub const WRK_REQUEST_BYTES: u32 = 128;
/// Nginx's response size (HTTP header + HTML payload).
pub const NGINX_RESPONSE_BYTES: u32 = 256;

/// Per-connection client state.
#[derive(Debug, Clone, Copy)]
struct ConnState {
    expect: SeqNum,
    sent_ns: u64,
}

/// The wrk-style load generator: one outstanding request per connection.
#[derive(Debug)]
pub struct HttpClient {
    states: FlowSlab<ConnState>,
    /// End-to-end request latency in nanoseconds.
    pub latency: Histogram,
    completed: u64,
}

impl HttpClient {
    /// Creates a client over established connections.
    pub fn new(flows: &[FlowId], lib: &F4tLib) -> HttpClient {
        let mut states = FlowSlab::with_capacity(0);
        for &f in flows {
            let isn = lib.socket(f).map(|s| s.consumed).unwrap_or(SeqNum::ZERO);
            states.insert(f.0, ConnState { expect: isn, sent_ns: 0 });
        }
        HttpClient { states, latency: Histogram::new(), completed: 0 }
    }

    /// Drives one connection. Returns `true` when a request was issued.
    pub fn step_flow(&mut self, flow: FlowId, lib: &mut F4tLib, now_ns: u64) -> bool {
        let Some(st) = self.states.get_mut(flow.0) else { return false };
        if st.sent_ns != 0 {
            let Some(sock) = lib.socket(flow) else { return false };
            if sock.received.ge(st.expect) {
                lib.recv(flow, NGINX_RESPONSE_BYTES);
                self.latency.record(now_ns.saturating_sub(st.sent_ns));
                self.completed += 1;
                st.sent_ns = 0;
            } else {
                return false;
            }
        }
        match lib.send(flow, WRK_REQUEST_BYTES) {
            Ok(_) => {
                st.expect = st.expect.add(NGINX_RESPONSE_BYTES);
                st.sent_ns = now_ns.max(1);
                true
            }
            Err(SendError::BufferFull | SendError::QueueFull) => false,
            Err(_) => false,
        }
    }

    /// Completed requests.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

/// The Nginx-style server.
#[derive(Debug)]
pub struct HttpServer {
    served: u64,
}

/// Per-request server CPU costs in cycles: `(application, vfs_read)`.
/// These are the calibrated Fig. 11 budget (see `f4t_host::linux_model`).
pub const NGINX_APP_CYCLES: u64 = 5_000;
/// VFS cost of fetching the HTML file (remains under F4T, Fig. 11).
pub const NGINX_VFS_CYCLES: u64 = 2_000;

impl HttpServer {
    /// Creates a server.
    pub fn new() -> HttpServer {
        HttpServer { served: 0 }
    }

    /// Serves one connection if a complete request is readable; returns
    /// `true` when a response was sent. The caller charges
    /// [`NGINX_APP_CYCLES`] + [`NGINX_VFS_CYCLES`] per served request.
    pub fn step_flow(&mut self, flow: FlowId, lib: &mut F4tLib) -> bool {
        let Some(sock) = lib.socket(flow) else { return false };
        if sock.readable() < WRK_REQUEST_BYTES {
            return false;
        }
        lib.recv(flow, WRK_REQUEST_BYTES);
        if lib.send(flow, NGINX_RESPONSE_BYTES).is_ok() {
            self.served += 1;
            true
        } else {
            false
        }
    }

    /// Requests served.
    pub fn served(&self) -> u64 {
        self.served
    }
}

impl Default for HttpServer {
    fn default() -> HttpServer {
        HttpServer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_host::Completion;

    #[test]
    fn request_response_cycle() {
        let mut lib = F4tLib::new();
        lib.register(FlowId(1), SeqNum(0), true);
        let mut client = HttpClient::new(&[FlowId(1)], &lib);
        assert!(client.step_flow(FlowId(1), &mut lib, 1_000));
        assert_eq!(lib.socket(FlowId(1)).unwrap().req, SeqNum(128));
        // The 256 B response arrives.
        lib.on_completion(Completion::Received { flow: FlowId(1), upto: SeqNum(256) });
        assert!(client.step_flow(FlowId(1), &mut lib, 51_000), "next request issued");
        assert_eq!(client.completed(), 1);
        assert!((45_000..=50_100).contains(&client.latency.percentile(50.0)));
    }

    #[test]
    fn server_answers_complete_requests() {
        let mut lib = F4tLib::new();
        lib.register(FlowId(2), SeqNum(0), true);
        let mut server = HttpServer::new();
        assert!(!server.step_flow(FlowId(2), &mut lib));
        lib.on_completion(Completion::Received { flow: FlowId(2), upto: SeqNum(128) });
        assert!(server.step_flow(FlowId(2), &mut lib));
        assert_eq!(server.served(), 1);
        assert_eq!(
            lib.socket(FlowId(2)).unwrap().req,
            SeqNum(256),
            "256 B response queued"
        );
    }

    #[test]
    fn pipelined_requests_served_in_order() {
        let mut lib = F4tLib::new();
        lib.register(FlowId(3), SeqNum(0), true);
        let mut server = HttpServer::new();
        // Two back-to-back requests arrive.
        lib.on_completion(Completion::Received { flow: FlowId(3), upto: SeqNum(256) });
        assert!(server.step_flow(FlowId(3), &mut lib));
        assert!(server.step_flow(FlowId(3), &mut lib));
        assert!(!server.step_flow(FlowId(3), &mut lib));
        assert_eq!(server.served(), 2);
    }
}
