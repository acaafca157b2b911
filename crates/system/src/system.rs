//! The two-node F4T testbed.
//!
//! [`F4tSystem::tick`] is the reference step: node `a`, node `b`, the
//! churn manager, then the link. [`F4tSystem::run_cycles`] runs the same
//! cycles in node windows (DESIGN.md §12.4): as long as the link's
//! lookahead allows, node `b` steps on a worker beside node `a`, and the
//! two meet only at the window's end.

use crate::link::{DuplexLink, LinkHalf};
use crate::metrics::Metrics;
use crate::node::{Driver, Node, Rotation};
use f4t_core::parallel::Worker;
use f4t_core::{EngineConfig, CYCLE_NS};
use f4t_host::{CpuAccounting, F4tLib, LIB_CMD_CYCLES};
use f4t_sim::{Histogram, MetricsRegistry};
use f4t_tcp::{FlowId, FourTuple, SeqNum};
use f4t_netsim::Impairments;
use f4t_workloads::http::{
    NGINX_APP_CYCLES, NGINX_RESPONSE_BYTES, NGINX_VFS_CYCLES, WRK_APP_CYCLES, WRK_REQUEST_BYTES,
};
use f4t_workloads::{
    BulkReceiver, BulkSender, ChurnClient, IncastSender, RequestClient, RequestServer, SinkServer,
    CHURN_APP_CYCLES, CHURN_REQUEST_BYTES, ECHO_APP_CYCLES,
};
use std::net::Ipv4Addr;
use std::ops::{Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};

/// Sustains a target population of short-lived connections: every tick
/// it tops the client node back up to `target_live` in-flight lifecycles
/// (bounded opens per tick so connection setup stays paced rather than
/// bursting the command rings).
#[derive(Debug)]
struct ChurnManager {
    target_live: usize,
    max_opens_per_tick: usize,
    /// Monotone tuple index: every connection gets a fresh 4-tuple so a
    /// closing flow's tuple is never reused while it drains.
    next_tuple: u32,
    core_rr: usize,
    cores: usize,
}

impl ChurnManager {
    fn step(&mut self, a: &mut Node) {
        let live = a.churn_live();
        let mut opens = 0;
        while live + opens < self.target_live && opens < self.max_opens_per_tick {
            let core = self.core_rr % self.cores;
            if a.open_active_flow(tuple(self.next_tuple), core).is_none() {
                break; // flow table or command ring full: retry next tick
            }
            self.next_tuple = self.next_tuple.wrapping_add(1);
            self.core_rr += 1;
            opens += 1;
        }
    }
}

/// A node on the heap, so a window can hand it to the worker by moving
/// one pointer. Derefs to the [`Node`].
#[derive(Debug, Default)]
pub struct NodeBox(Option<Box<Node>>);

/// Empty only while node `b` is out on the worker, inside
/// [`F4tSystem::run_cycles`], or after the worker's thread died holding
/// it.
const NODE_OUT: &str = "node is out on its window worker";

impl NodeBox {
    fn new(node: Node) -> NodeBox {
        NodeBox(Some(Box::new(node)))
    }
}

impl Deref for NodeBox {
    type Target = Node;

    fn deref(&self) -> &Node {
        self.0.as_deref().expect(NODE_OUT)
    }
}

impl DerefMut for NodeBox {
    fn deref_mut(&mut self) -> &mut Node {
        self.0.as_deref_mut().expect(NODE_OUT)
    }
}

/// Node `b`'s side of one window, as the worker receives it.
#[derive(Debug)]
struct NodeWindow {
    node: NodeBox,
    link: LinkHalf,
    from: u64,
    cycles: u64,
    /// Engine steps node `b` slept through, once the window ran.
    slept: u64,
}

/// The worker's step: node `b`'s side of a window.
fn run_node_window(w: &mut NodeWindow) {
    w.slept = step_side(&mut w.node, &mut w.link, None, w.from, w.cycles);
}

/// One node's side of cycles `from..from + cycles`, in
/// [`F4tSystem::tick`]'s order for that node: its send direction's
/// credit accrues, the node ticks (then the churn manager, on `a`), its
/// TX drains onto the wire and the arrivals due at it land. The node's
/// engine sleeps through its idle cycles, settling before the link
/// touches it and at the window's end; returns the engine steps slept.
fn step_side(
    node: &mut Node,
    link: &mut LinkHalf,
    mut churn: Option<&mut ChurnManager>,
    from: u64,
    cycles: u64,
) -> u64 {
    node.begin_engine_sleep();
    for cycle in from..from + cycles {
        let now = cycle * CYCLE_NS;
        link.tick();
        node.tick(now);
        if let Some(m) = churn.as_deref_mut() {
            m.step(node);
        }
        if link.due(&node.engine, now) {
            node.settle_engine();
            if link.carry(&mut node.engine, now) {
                node.wake_engine();
            }
        }
    }
    node.end_engine_sleep()
}

/// Two nodes connected by a 100 Gbps link, running a workload.
#[derive(Debug)]
pub struct F4tSystem {
    /// The client/sender node.
    pub a: NodeBox,
    /// The server/receiver node.
    pub b: NodeBox,
    link: DuplexLink,
    cycle: u64,
    /// Connection churn generator (churnstorm workload only).
    churn: Option<ChurnManager>,
    /// Steps node `b`'s side of every window; made for the first one.
    worker: Option<Worker<NodeWindow>>,
    /// Node windows run so far.
    windows: u64,
    /// Engine steps each node (`a`, `b`) slept through in those windows.
    slept: [u64; 2],
}

fn tuple(i: u32) -> FourTuple {
    // Unique 4-tuples: vary source port and, beyond 60k flows, source IP.
    FourTuple::new(
        Ipv4Addr::from(0x0a00_0001 + (i / 60_000) * 256),
        (i % 60_000 + 1_024) as u16,
        Ipv4Addr::new(10, 1, 0, 2),
        80,
    )
}

impl F4tSystem {
    /// Wires two freshly configured nodes together.
    pub fn new(a: Node, b: Node) -> F4tSystem {
        F4tSystem {
            a: NodeBox::new(a),
            b: NodeBox::new(b),
            link: DuplexLink::hundred_gig(),
            cycle: 0,
            churn: None,
            worker: None,
            windows: 0,
            slept: [0; 2],
        }
    }

    /// Attaches a hostile-network impairment profile to the link (both
    /// directions, independent decision streams). Call after
    /// [`F4tSystem::set_link`] if both are used.
    pub fn set_impairments(&mut self, imp: Impairments) {
        self.link.set_impairments(imp);
    }

    /// Total link impairment events (loss + duplication + reordering)
    /// across both directions — non-zero proves a profile engaged.
    pub fn impairment_events(&self) -> u64 {
        self.link.impairment_events()
    }

    /// Starts capturing link traffic (both directions) as a libpcap
    /// stream in memory; see [`DuplexLink::enable_pcap`]. Call after
    /// [`F4tSystem::set_link`] if both are used.
    pub fn enable_pcap(&mut self, payload_cap: u32) {
        self.link.enable_pcap(payload_cap);
    }

    /// Packets captured so far (0 when capture is off).
    pub fn pcap_packets(&self) -> u64 {
        self.link.pcap_packets()
    }

    /// Finishes the capture and returns the pcap bytes, ready to write
    /// to disk and open in Wireshark. `None` when capture was never
    /// enabled.
    pub fn take_pcap(&mut self) -> Option<Vec<u8>> {
        self.link.take_pcap()
    }

    /// The link between the two nodes (its per-direction counters).
    pub fn link(&self) -> &DuplexLink {
        &self.link
    }

    /// Current simulation time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.cycle * CYCLE_NS
    }

    /// Replaces the link (e.g. an effectively infinite one for the §6
    /// header-processing experiment, which removes the link bottleneck).
    /// Capture and impairments live on the link, so enable them after
    /// this call: [`F4tSystem::enable_pcap`],
    /// [`F4tSystem::set_impairments`].
    pub fn set_link(&mut self, link: DuplexLink) {
        self.link = link;
    }

    /// Opens an established flow pair on both nodes; `a_core`/`b_core`
    /// own it on each side. Returns the (a, b) flow ids.
    pub fn open_pair(&mut self, i: u32, a_core: usize, b_core: usize) -> (FlowId, FlowId) {
        let t = tuple(i);
        let isn = SeqNum(1_000);
        let fa = self.a.add_established_flow(t, isn, a_core).expect("flow capacity");
        let fb = self.b.add_established_flow(t.reversed(), isn, b_core).expect("flow capacity");
        (fa, fb)
    }

    /// Opens pairs `0..n` in index order, pair `i` owned by core
    /// `cores(i) = (a_core, b_core)`, and returns each node's flows per
    /// core.
    fn open_spread(
        &mut self,
        n: usize,
        cores: impl Fn(usize) -> (usize, usize),
    ) -> (Vec<Vec<FlowId>>, Vec<Vec<FlowId>>) {
        let mut a = vec![Vec::new(); self.a.core_count()];
        let mut b = vec![Vec::new(); self.b.core_count()];
        for i in 0..n {
            let (ca, cb) = cores(i);
            let (fa, fb) = self.open_pair(i as u32, ca, cb);
            a[ca].push(fa);
            b[cb].push(fb);
        }
        (a, b)
    }

    /// Advances one engine cycle across both nodes and the link.
    pub fn tick(&mut self) {
        let now = self.now_ns();
        self.link.tick();
        self.a.tick(now);
        self.b.tick(now);
        // Churn opens happen after the node ticks: any flow ids the
        // engine freed this tick were already fully forgotten by the
        // node's teardown interception, so reissued ids start clean.
        if let Some(m) = &mut self.churn {
            m.step(&mut self.a);
        }
        // Drain TX at line rate (MAC backpressure otherwise), then
        // deliver due segments.
        self.link.carry(&mut self.a.engine, &mut self.b.engine, now);
        self.cycle += 1;
    }

    /// Runs `n` cycles, byte-identical to `n` calls of [`Self::tick`].
    ///
    /// On a link with at least two cycles of lookahead
    /// ([`DuplexLink::lookahead_cycles`]) the cycles run in node windows
    /// of up to the lookahead, each ending before a held segment's flush
    /// deadline: node `b`'s side goes to a [`Worker`], made on the first
    /// window, and node `a`'s steps on this thread. The worker has a
    /// thread of its own on a multi-CPU host and steps node `b` here,
    /// before node `a`, otherwise; the bytes are the same. A window the
    /// deadline cuts under 2 cycles is one [`Self::tick`]. Otherwise — on
    /// the ideal link, or while a direction both loses and holds — each
    /// cycle is a [`Self::tick`], with no further look at the link.
    /// Inside a window each node's engine sleeps through its idle cycles
    /// ([`Self::slept_cycles`]). A panic in either node's window is
    /// re-raised here with its payload once both sides stopped.
    pub fn run_cycles(&mut self, n: u64) {
        let lookahead = self.link.lookahead_cycles();
        if lookahead < 2 {
            for _ in 0..n {
                self.tick();
            }
            return;
        }
        let mut left = n;
        while left > 0 {
            let cycles = left.min(lookahead).min(self.link.cycles_to_flush(self.cycle));
            if cycles < 2 {
                self.tick();
                left -= 1;
            } else {
                self.run_window(cycles);
                left -= cycles;
            }
        }
    }

    /// One node window of `cycles`, no more than the link's lookahead and
    /// ending before the next flush deadline: node `b`'s side starts on
    /// the worker, node `a`'s steps here, node `b`'s finishes, and the
    /// link's halves join.
    fn run_window(&mut self, cycles: u64) {
        let worker = self.worker.get_or_insert_with(|| Worker::new(run_node_window));
        let macs = [self.a.engine.mac, self.b.engine.mac];
        let (mut a_link, b_link) = self.link.open_window(macs);
        let (from, node) = (self.cycle, std::mem::take(&mut self.b));
        worker.start(NodeWindow { node, link: b_link, from, cycles, slept: 0 });
        let (a, churn) = (&mut self.a, self.churn.as_mut());
        let a_side = panic::catch_unwind(AssertUnwindSafe(|| {
            step_side(a, &mut a_link, churn, from, cycles)
        }));
        let Some((job, b_side)) = worker.finish() else { panic!("{NODE_OUT} and it died") };
        self.b = job.node;
        self.link.close_window(a_link, job.link);
        self.cycle += cycles;
        self.windows += 1;
        let a_slept = a_side.and_then(|slept| b_side.map(|()| slept));
        self.slept[0] += a_slept.unwrap_or_else(|payload| panic::resume_unwind(payload));
        self.slept[1] += job.slept;
    }

    /// Node windows run so far (0 when every cycle was a reference
    /// tick).
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Engine steps node `a`'s and node `b`'s engine slept through inside
    /// node windows (DESIGN.md §12.4), each settled in closed form — 0 in
    /// reference ticks or with [`EngineConfig::fast_forward`] off. A host-side
    /// view of the run, kept out of telemetry: it moves no simulated byte.
    pub fn slept_cycles(&self) -> [u64; 2] {
        self.slept
    }

    /// Runs for `ns` nanoseconds of simulated time.
    pub fn run_ns(&mut self, ns: u64) {
        self.run_cycles(ns / CYCLE_NS);
    }

    fn client_latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for core in 0..self.a.core_count() {
            if let Some(latency) = self.a.driver(core).latency() {
                h.merge(latency);
            }
        }
        h
    }

    /// FtScope snapshot over both engines: client-side metrics under
    /// `a.engine.*`, server-side under `b.engine.*`.
    pub fn telemetry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        self.a.engine.collect("a.engine", &mut reg);
        self.b.engine.collect("b.engine", &mut reg);
        reg
    }

    /// Warm up for `warmup_ns`, then measure for `window_ns` and return
    /// the window's metrics. Request counts and goodput are window
    /// deltas; latency percentiles cover the whole run (cumulative
    /// histograms), which is conservative for the tail.
    pub fn measure(&mut self, warmup_ns: u64, window_ns: u64) -> Metrics {
        self.run_ns(warmup_ns);
        let telem0 = self.telemetry();
        let req0 = self.a.requests();
        let bytes0 = self.b.consumed_bytes() + self.a.consumed_bytes();
        let mig0 = self.a.engine.stats().migrations + self.b.engine.stats().migrations;
        let rtx0 = self.a.engine.stats().retransmissions + self.b.engine.stats().retransmissions;
        let mut cpu0 = CpuAccounting::default();
        cpu0.merge(&self.a.total_accounting());

        self.run_ns(window_ns);

        let cpu1 = self.a.total_accounting();
        let cpu = CpuAccounting {
            app: cpu1.app - cpu0.app,
            tcp: cpu1.tcp - cpu0.tcp,
            kernel: cpu1.kernel - cpu0.kernel,
            lib: cpu1.lib - cpu0.lib,
            idle: cpu1.idle - cpu0.idle,
        };
        Metrics {
            duration_ns: window_ns,
            requests: self.a.requests() - req0,
            goodput_bytes: self.b.consumed_bytes() + self.a.consumed_bytes() - bytes0,
            latency: self.client_latency(),
            cpu,
            migrations: self.a.engine.stats().migrations + self.b.engine.stats().migrations
                - mig0,
            retransmissions: self.a.engine.stats().retransmissions
                + self.b.engine.stats().retransmissions
                - rtx0,
            telemetry: self.telemetry().delta(&telem0),
        }
    }

    // --- workload constructors (the paper's four setups) ---

    /// §5.1 bulk data transfer: `cores` sender cores, one flow each,
    /// `request_bytes` per send; the peer runs one receiver core per
    /// sender core.
    pub fn bulk(cores: usize, request_bytes: u32, engine: EngineConfig) -> F4tSystem {
        F4tSystem::round_robin(cores, 1, request_bytes, engine)
    }

    /// §5.1 round-robin: `cores` sender cores × `flows_per_core` flows
    /// (the paper uses 16), rotating `request_bytes` sends.
    pub fn round_robin(
        cores: usize,
        flows_per_core: usize,
        request_bytes: u32,
        engine: EngineConfig,
    ) -> F4tSystem {
        let mut sys = F4tSystem::new(Node::new(cores, engine.clone()), Node::new(cores, engine));
        let (a, b) =
            sys.open_spread(cores * flows_per_core, |i| (i / flows_per_core, i / flows_per_core));
        for (core, (fa, fb)) in a.into_iter().zip(b).enumerate() {
            sys.a.set_driver(core, Driver::BulkSender(BulkSender::new(fa, request_bytes, 0)));
            sys.b.set_driver(core, Driver::BulkReceiver(BulkReceiver::new(fb)));
        }
        sys
    }

    /// §5.3 echo (ping-pong) over `total_flows` connections spread across
    /// `cores` cores on each side.
    pub fn echo(cores: usize, total_flows: usize, msg_bytes: u32, engine: EngineConfig) -> F4tSystem {
        F4tSystem::echo_paced(cores, total_flows, msg_bytes, 0, engine)
    }

    /// Echo with per-flow pacing: each flow pings at most once per
    /// `pace_ns` (an open-loop offered load used by the sleep-after-poll
    /// extension experiment; 0 = the paper's closed loop).
    pub fn echo_paced(
        cores: usize,
        total_flows: usize,
        msg_bytes: u32,
        pace_ns: u64,
        engine: EngineConfig,
    ) -> F4tSystem {
        F4tSystem::request_response(
            cores,
            cores,
            total_flows,
            engine,
            |flows, lib| {
                RequestClient::new(flows, lib, msg_bytes, msg_bytes, pace_ns, ECHO_APP_CYCLES)
            },
            || RequestServer::new(msg_bytes, msg_bytes, ECHO_APP_CYCLES, 0),
        )
    }

    /// §5.2 Nginx + wrk: `server_cores` Nginx cores serving `connections`
    /// keep-alive connections driven by `client_cores` wrk cores.
    pub fn http(
        client_cores: usize,
        server_cores: usize,
        connections: usize,
        engine: EngineConfig,
    ) -> F4tSystem {
        let (req, resp) = (WRK_REQUEST_BYTES, NGINX_RESPONSE_BYTES);
        F4tSystem::request_response(
            client_cores,
            server_cores,
            connections,
            engine,
            |flows, lib| RequestClient::new(flows, lib, req, resp, 0, WRK_APP_CYCLES),
            || RequestServer::new(req, resp, NGINX_APP_CYCLES, NGINX_VFS_CYCLES),
        )
    }

    /// `connections` request/response pairs, pair `i` on client core
    /// `i % client_cores` and server core `i % server_cores`; each core
    /// runs the driver `client` or `server` builds for its flows.
    fn request_response(
        client_cores: usize,
        server_cores: usize,
        connections: usize,
        engine: EngineConfig,
        client: impl Fn(&[FlowId], &F4tLib) -> RequestClient,
        server: impl Fn() -> RequestServer,
    ) -> F4tSystem {
        let client_node = Node::new(client_cores, engine.clone());
        let mut sys = F4tSystem::new(client_node, Node::new(server_cores, engine));
        let (a, b) = sys.open_spread(connections, |i| (i % client_cores, i % server_cores));
        for (core, fa) in a.into_iter().enumerate() {
            let client = client(&fa, sys.a.lib(core));
            sys.a.set_driver(core, Driver::RequestClient { client, flows: Rotation::new(fa) });
        }
        for (core, fb) in b.into_iter().enumerate() {
            let server = server();
            sys.b.set_driver(core, Driver::RequestServer { server, flows: Rotation::new(fb) });
        }
        sys
    }

    // --- FtStorm hostile-scenario constructors (DESIGN.md §14) ---

    /// N-to-1 incast: `senders` flows spread over `cores` client cores,
    /// all releasing a `burst_bytes` burst at every `epoch_ns` boundary,
    /// converging on a single receiver core.
    pub fn incast(
        senders: usize,
        cores: usize,
        burst_bytes: u32,
        epoch_ns: u64,
        engine: EngineConfig,
    ) -> F4tSystem {
        let mut sys = F4tSystem::new(Node::new(cores, engine.clone()), Node::new(1, engine));
        let (a, mut b) = sys.open_spread(senders, |i| (i % cores, 0));
        for (core, fa) in a.into_iter().enumerate() {
            sys.a.set_driver(core, Driver::Incast(IncastSender::new(fa, burst_bytes, epoch_ns)));
        }
        let (server, flows) = (SinkServer::new(0, LIB_CMD_CYCLES), Rotation::new(b.remove(0)));
        sys.b.set_driver(0, Driver::Sink { server, flows });
        sys
    }

    /// Sustained connect/close cycling: the churn manager keeps
    /// `target_live` connection lifecycles in flight across `cores`
    /// client cores; each connection sends one request and actively
    /// closes, the server drains and passively closes on FIN.
    pub fn churnstorm(cores: usize, target_live: usize, engine: EngineConfig) -> F4tSystem {
        let a = Node::new(cores, engine.clone());
        let b = Node::new(cores, engine);
        let mut sys = F4tSystem::new(a, b);
        sys.b.engine.listen(80);
        for core in 0..cores {
            let client = ChurnClient::new(CHURN_REQUEST_BYTES);
            sys.a.set_driver(core, Driver::ChurnClient { client, flows: Rotation::default() });
            let server = SinkServer::new(CHURN_APP_CYCLES, 2 * LIB_CMD_CYCLES);
            sys.b.set_driver(core, Driver::Sink { server, flows: Rotation::default() });
        }
        sys.churn = Some(ChurnManager {
            target_live,
            max_opens_per_tick: 4,
            next_tuple: 0,
            core_rr: 0,
            cores,
        });
        sys
    }

    /// Slowloris-style residency stress: `total_flows` established
    /// connections spread across `cores` cores, each client core
    /// dripping `drip_bytes` from one of its flows every `interval_ns`.
    /// The flows stay pinned in TCBs and LUTs while the data path idles.
    pub fn slowloris(
        cores: usize,
        total_flows: usize,
        drip_bytes: u32,
        interval_ns: u64,
        engine: EngineConfig,
    ) -> F4tSystem {
        let mut sys = F4tSystem::new(Node::new(cores, engine.clone()), Node::new(cores, engine));
        let (a, b) = sys.open_spread(total_flows, |i| (i % cores, i % cores));
        for (core, (fa, fb)) in a.into_iter().zip(b).enumerate() {
            let client = BulkSender::new(fa, drip_bytes, interval_ns.max(1));
            sys.a.set_driver(core, Driver::BulkSender(client));
            let (server, flows) = (SinkServer::new(0, LIB_CMD_CYCLES), Rotation::new(fb));
            sys.b.set_driver(core, Driver::Sink { server, flows });
        }
        sys
    }

    /// Server-side requests served (HTTP) — the Fig. 10 metric.
    pub fn server_requests(&self) -> u64 {
        self.b.requests()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_core::{Engine, EngineConfig};
    use f4t_tcp::{CongestionControl, Tcb};
    use std::sync::Arc;

    fn small_engine() -> EngineConfig {
        EngineConfig { num_fpcs: 2, flows_per_fpc: 32, lut_groups: 2, ..EngineConfig::reference() }
    }

    #[test]
    fn bulk_moves_data_end_to_end() {
        let mut sys = F4tSystem::bulk(1, 1460, small_engine());
        let m = sys.measure(40_000, 200_000);
        assert!(m.goodput_gbps() > 10.0, "got {:.1} Gbps", m.goodput_gbps());
        assert!(m.requests > 0);
        assert_eq!(m.retransmissions, 0, "clean direct-attach link");
    }

    #[test]
    fn bulk_small_requests_single_core_hits_tens_of_gbps() {
        // The Fig. 8a shape: one core, 128 B requests, ~45 Gbps.
        let mut sys = F4tSystem::bulk(1, 128, small_engine());
        let m = sys.measure(40_000, 400_000);
        assert!(
            (25.0..70.0).contains(&m.goodput_gbps()),
            "got {:.1} Gbps ({:.1} Mrps)",
            m.goodput_gbps(),
            m.mrps()
        );
    }

    #[test]
    fn round_robin_progresses_all_flows() {
        let mut sys = F4tSystem::round_robin(1, 4, 128, small_engine());
        let m = sys.measure(40_000, 200_000);
        assert!(m.requests > 100, "got {} requests", m.requests);
        assert!(m.goodput_gbps() > 1.0);
    }

    #[test]
    fn echo_round_trips_and_records_latency() {
        let mut sys = F4tSystem::echo(1, 8, 128, small_engine());
        sys.run_ns(400_000);
        let m = sys.measure(0, 200_000);
        assert!(m.requests > 10, "completed {} round trips", m.requests);
        assert!(m.latency.count() > 0);
        // RTT floor: 2x 1 µs link + engine/PCIe; must be >2 µs and sane.
        assert!(m.median_latency_us() > 2.0);
        assert!(m.median_latency_us() < 100.0, "got {} µs", m.median_latency_us());
    }

    #[test]
    fn incast_fans_in_synchronized_bursts() {
        let mut sys = F4tSystem::incast(8, 2, 1_024, 50_000, small_engine());
        sys.run_ns(400_000);
        assert!(sys.a.requests() >= 8 * 4, "bursts released: {}", sys.a.requests());
        assert!(sys.b.consumed_bytes() > 8 * 1_024, "fan-in drained");
    }

    #[test]
    fn churnstorm_cycles_connections_through_reuse() {
        let mut sys = F4tSystem::churnstorm(2, 8, small_engine());
        sys.run_ns(2_000_000);
        let completed = sys.a.requests();
        assert!(completed > 16, "full lifecycles completed: {completed}");
        assert!(sys.b.requests() > 16, "server served: {}", sys.b.requests());
        assert!(
            sys.b.consumed_bytes() >= completed * u64::from(CHURN_REQUEST_BYTES) / 2,
            "requests drained"
        );
        // With 8 in-flight lifecycles and dozens completed, flow ids
        // were necessarily recycled many times.
        assert!(sys.a.churn_live() <= 8 + 4);
    }

    #[test]
    fn slowloris_holds_flows_with_trickle_traffic() {
        let mut sys = F4tSystem::slowloris(1, 32, 8, 2_000, small_engine());
        sys.run_ns(600_000);
        let drips = sys.a.requests();
        assert!(drips > 50, "dripping: {drips}");
        assert!(sys.b.consumed_bytes() > 0);
        // Residency: all 32 flows still established on both engines.
        assert_eq!(sys.a.engine.live_flows(), 32);
        assert_eq!(sys.b.engine.live_flows(), 32);
    }

    /// More cores than flows: the flowless cores poll and yield, the
    /// others run their round trips.
    #[test]
    fn cores_without_flows_poll_instead_of_panicking() {
        let mut echo = F4tSystem::echo(4, 2, 128, small_engine());
        echo.run_ns(200_000);
        assert!(echo.a.requests() > 0, "echo round trips: {}", echo.a.requests());
        let mut http = F4tSystem::http(4, 4, 2, small_engine());
        http.run_ns(200_000);
        assert!(http.a.requests() > 0, "http round trips: {}", http.a.requests());
    }

    #[test]
    fn impaired_link_still_converges() {
        let mut sys = F4tSystem::bulk(1, 1460, small_engine());
        sys.set_impairments(Impairments::profile("reorder").expect("profile"));
        let m = sys.measure(40_000, 400_000);
        assert!(m.goodput_gbps() > 1.0, "got {:.2} Gbps", m.goodput_gbps());
        assert!(sys.impairment_events() > 0, "profile engaged");
    }

    #[test]
    fn no_window_no_worker() {
        let mut sys = F4tSystem::bulk(1, 128, small_engine());
        assert!(sys.worker.is_none());
        for _ in 0..100 {
            sys.tick();
        }
        sys.run_cycles(0);
        // A direction that both loses and reorders steps in lock-step.
        let lossy = Impairments::profile("lossy").expect("profile");
        sys.set_impairments(Impairments { reorder_p: 0.05, reorder_depth: 3, ..lossy });
        sys.run_cycles(1_000);
        sys.set_link(DuplexLink::ideal());
        sys.run_cycles(1_000);
        assert!(sys.worker.is_none(), "{:?}", sys.worker);
        assert_eq!(sys.windows(), 0);
        sys.set_link(DuplexLink::hundred_gig());
        sys.run_cycles(1_000);
        assert!(sys.worker.is_some());
        assert!(sys.windows() > 0);
    }

    #[test]
    fn an_inline_worker_matches_tick_and_counts_windows() {
        let run = |inline: bool| {
            let mut sys = F4tSystem::echo(2, 16, 128, small_engine());
            if inline {
                sys.worker = Some(Worker::inline(run_node_window));
                sys.run_cycles(3_000);
            } else {
                for _ in 0..3_000 {
                    sys.tick();
                }
            }
            (sys.windows(), sys.a.requests(), sys.telemetry().to_json())
        };
        let (windows, requests, telemetry) = run(true);
        assert_eq!(windows, 3_000 / 250, "windows of the 250-cycle lookahead");
        assert!(requests > 0, "echo ran");
        assert_eq!((0, requests, telemetry), run(false));
    }

    /// Congestion control that refuses the first ACK, naming the thread
    /// it ran on.
    #[derive(Debug)]
    struct RefusesAcks;

    impl CongestionControl for RefusesAcks {
        fn name(&self) -> &'static str {
            "refuses-acks"
        }
        fn fpu_latency_cycles(&self) -> u32 {
            1
        }
        fn init(&self, tcb: &mut Tcb) {
            tcb.cwnd = 64 * 1_024;
        }
        fn on_ack(&self, _: &mut Tcb, _: u32, _: Option<u64>, _: u64) {
            let thread = std::thread::current();
            panic!("ack refused on {}", thread.name().unwrap_or("?"));
        }
        fn on_enter_recovery(&self, _: &mut Tcb, _: u64) {}
        fn on_timeout(&self, _: &mut Tcb, _: u64) {}
    }

    #[test]
    fn a_panic_in_node_b_window_is_raised_on_the_caller() {
        let here = std::thread::current().name().unwrap_or("?").to_string();
        let threaded = Worker::spawn(run_node_window).expect("thread");
        for (worker, on) in [(threaded, "f4t-worker"), (Worker::inline(run_node_window), &here)] {
            let cfg = small_engine();
            let mut b = Node::new(1, cfg.clone());
            b.engine = Engine::with_cc(cfg.clone(), Arc::new(RefusesAcks));
            let mut sys = F4tSystem::new(Node::new(1, cfg), b);
            sys.worker = Some(worker);
            let (fa, fb) = sys.open_pair(0, 0, 0);
            sys.a.set_driver(0, Driver::BulkReceiver(BulkReceiver::new(vec![fa])));
            sys.b.set_driver(0, Driver::BulkSender(BulkSender::new(vec![fb], 1_024, 0)));

            let caught = panic::catch_unwind(AssertUnwindSafe(|| sys.run_cycles(20_000)));
            let payload = caught.expect_err("node b's congestion control panics");
            let message = payload.downcast_ref::<String>().expect("formatted payload");
            assert_eq!(message, &format!("ack refused on {on}"));
            // Both nodes are back in place; dropping the system joins a
            // worker thread.
            assert!(sys.b.engine.live_flows() > 0);
            assert_eq!(sys.a.requests(), 0);
            drop(sys);
        }
    }

    #[test]
    fn http_serves_requests() {
        let mut sys = F4tSystem::http(1, 1, 16, small_engine());
        sys.run_ns(400_000);
        let served0 = sys.server_requests();
        sys.run_ns(400_000);
        let served = sys.server_requests() - served0;
        assert!(served > 20, "served {served}");
        // Server CPU is dominated by application, not lib (Fig. 11 shape).
        let acct = sys.b.total_accounting();
        assert!(acct.app > acct.lib, "app {} vs lib {}", acct.app, acct.lib);
        assert_eq!(acct.tcp, 0, "F4T leaves zero TCP cycles on the host");
    }
}
