//! The two-node F4T testbed.

use crate::link::DuplexLink;
use crate::metrics::Metrics;
use crate::node::{Driver, Node};
use f4t_core::EngineConfig;
use f4t_host::CpuAccounting;
use f4t_sim::{Histogram, MetricsRegistry};
use f4t_tcp::{FlowId, FourTuple, SeqNum};
use f4t_netsim::Impairments;
use f4t_workloads::{
    BulkReceiver, BulkSender, ChurnClient, ChurnServer, EchoClient, EchoServer, HttpClient,
    HttpServer, IncastSender, RoundRobinSender, SinkServer, SlowlorisClient, CHURN_REQUEST_BYTES,
};
use std::net::Ipv4Addr;

/// Engine-core period in nanoseconds.
pub(crate) const CYCLE_NS: u64 = 4;

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

/// Two nodes connected by a 100 Gbps link, running a workload.
#[derive(Debug)]
pub struct F4tSystem {
    /// The client/sender node.
    pub a: Node,
    /// The server/receiver node.
    pub b: Node,
    link: DuplexLink,
    cycle: u64,
    /// Connection churn generator (churnstorm workload only).
    churn: Option<ChurnManager>,
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
        F4tSystem { a, b, link: DuplexLink::hundred_gig(), cycle: 0, churn: None }
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

    /// Runs `n` cycles.
    pub fn run_cycles(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Runs for `ns` nanoseconds of simulated time.
    pub fn run_ns(&mut self, ns: u64) {
        self.run_cycles(ns / CYCLE_NS);
    }

    fn client_latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for core in 0..self.a.core_count() {
            match self.a.driver(core) {
                Driver::EchoClient { client, .. } => h.merge(&client.latency),
                Driver::HttpClient { client, .. } => h.merge(&client.latency),
                _ => {}
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
        let a = Node::new(cores, engine.clone());
        let b = Node::new(cores, engine);
        let mut sys = F4tSystem::new(a, b);
        for core in 0..cores {
            let (fa, fb) = sys.open_pair(core as u32, core, core);
            sys.a.set_driver(core, Driver::BulkSender(BulkSender::new(fa, request_bytes)));
            sys.b.set_driver(core, Driver::BulkReceiver(BulkReceiver::new(vec![fb])));
        }
        sys
    }

    /// §5.1 round-robin: `cores` sender cores × `flows_per_core` flows
    /// (the paper uses 16), rotating `request_bytes` sends.
    pub fn round_robin(
        cores: usize,
        flows_per_core: usize,
        request_bytes: u32,
        engine: EngineConfig,
    ) -> F4tSystem {
        let a = Node::new(cores, engine.clone());
        let b = Node::new(cores, engine);
        let mut sys = F4tSystem::new(a, b);
        let mut idx = 0u32;
        for core in 0..cores {
            let mut a_flows = Vec::new();
            let mut b_flows = Vec::new();
            for _ in 0..flows_per_core {
                let (fa, fb) = sys.open_pair(idx, core, core);
                idx += 1;
                a_flows.push(fa);
                b_flows.push(fb);
            }
            sys.a.set_driver(
                core,
                Driver::RoundRobin(RoundRobinSender::new(a_flows, request_bytes)),
            );
            sys.b.set_driver(core, Driver::BulkReceiver(BulkReceiver::new(b_flows)));
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
        let a = Node::new(cores, engine.clone());
        let b = Node::new(cores, engine);
        let mut sys = F4tSystem::new(a, b);
        let mut per_core_a: Vec<Vec<FlowId>> = vec![Vec::new(); cores];
        let mut per_core_b: Vec<Vec<FlowId>> = vec![Vec::new(); cores];
        for i in 0..total_flows {
            let core = i % cores;
            let (fa, fb) = sys.open_pair(i as u32, core, core);
            per_core_a[core].push(fa);
            per_core_b[core].push(fb);
        }
        for core in 0..cores {
            let client =
                EchoClient::with_pace(&per_core_a[core], msg_bytes, sys.a.lib(core), pace_ns);
            sys.a.set_driver(
                core,
                Driver::EchoClient { client, flows: per_core_a[core].clone(), next: 0 },
            );
            sys.b.set_driver(
                core,
                Driver::EchoServer {
                    server: EchoServer::new(msg_bytes),
                    flows: per_core_b[core].clone(),
                    next: 0,
                },
            );
        }
        sys
    }

    /// §5.2 Nginx + wrk: `server_cores` Nginx cores serving `connections`
    /// keep-alive connections driven by `client_cores` wrk cores.
    pub fn http(
        client_cores: usize,
        server_cores: usize,
        connections: usize,
        engine: EngineConfig,
    ) -> F4tSystem {
        let a = Node::new(client_cores, engine.clone());
        let b = Node::new(server_cores, engine);
        let mut sys = F4tSystem::new(a, b);
        let mut per_core_a: Vec<Vec<FlowId>> = vec![Vec::new(); client_cores];
        let mut per_core_b: Vec<Vec<FlowId>> = vec![Vec::new(); server_cores];
        for i in 0..connections {
            let ca = i % client_cores;
            let cb = i % server_cores;
            let (fa, fb) = sys.open_pair(i as u32, ca, cb);
            per_core_a[ca].push(fa);
            per_core_b[cb].push(fb);
        }
        for (core, flows) in per_core_a.iter().enumerate() {
            let client = HttpClient::new(flows, sys.a.lib(core));
            sys.a.set_driver(
                core,
                Driver::HttpClient { client, flows: flows.clone(), next: 0 },
            );
        }
        for (core, flows) in per_core_b.iter().enumerate() {
            sys.b.set_driver(
                core,
                Driver::HttpServer {
                    server: HttpServer::new(),
                    flows: flows.clone(),
                    next: 0,
                },
            );
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
        let a = Node::new(cores, engine.clone());
        let b = Node::new(1, engine);
        let mut sys = F4tSystem::new(a, b);
        let mut per_core_a: Vec<Vec<FlowId>> = vec![Vec::new(); cores];
        let mut b_flows = Vec::new();
        for i in 0..senders {
            let core = i % cores;
            let (fa, fb) = sys.open_pair(i as u32, core, 0);
            per_core_a[core].push(fa);
            b_flows.push(fb);
        }
        for (core, flows) in per_core_a.iter().enumerate() {
            sys.a.set_driver(
                core,
                Driver::Incast(IncastSender::new(flows.clone(), burst_bytes, epoch_ns)),
            );
        }
        sys.b.set_driver(0, Driver::Sink { server: SinkServer::new(), flows: b_flows, next: 0 });
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
            sys.a.set_driver(
                core,
                Driver::ChurnClient {
                    client: ChurnClient::new(CHURN_REQUEST_BYTES),
                    flows: Vec::new(),
                    next: 0,
                },
            );
            sys.b.set_driver(
                core,
                Driver::ChurnServer { server: ChurnServer::new(), flows: Vec::new(), next: 0 },
            );
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
        let a = Node::new(cores, engine.clone());
        let b = Node::new(cores, engine);
        let mut sys = F4tSystem::new(a, b);
        let mut per_core_a: Vec<Vec<FlowId>> = vec![Vec::new(); cores];
        let mut per_core_b: Vec<Vec<FlowId>> = vec![Vec::new(); cores];
        for i in 0..total_flows {
            let core = i % cores;
            let (fa, fb) = sys.open_pair(i as u32, core, core);
            per_core_a[core].push(fa);
            per_core_b[core].push(fb);
        }
        for core in 0..cores {
            sys.a.set_driver(
                core,
                Driver::Slowloris(SlowlorisClient::new(
                    per_core_a[core].clone(),
                    drip_bytes,
                    interval_ns,
                )),
            );
            sys.b.set_driver(
                core,
                Driver::Sink {
                    server: SinkServer::new(),
                    flows: per_core_b[core].clone(),
                    next: 0,
                },
            );
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
    use f4t_core::EngineConfig;

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

    #[test]
    fn impaired_link_still_converges() {
        let mut sys = F4tSystem::bulk(1, 1460, small_engine());
        sys.set_impairments(Impairments::profile("reorder").expect("profile"));
        let m = sys.measure(40_000, 400_000);
        assert!(m.goodput_gbps() > 1.0, "got {:.2} Gbps", m.goodput_gbps());
        assert!(sys.impairment_events() > 0, "profile engaged");
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
