//! One host node: cores + F4T library + command rings + PCIe + engine.

use f4t_core::{Engine, EngineConfig, EventKind, FlowEvent, HostNotification};
use f4t_host::pcie::PCIE_BURST_BYTES;
use f4t_host::{
    Command, Completion, CoreBudget, CpuAccounting, CpuCategory, F4tLib, PcieDir, PcieModel,
    LIB_CMD_CYCLES, LIB_COMPLETION_CYCLES, LIB_POLL_CYCLES,
};
use f4t_sim::{FlowSlab, Histogram};
use f4t_tcp::{FlowId, FourTuple, SeqNum};
use f4t_workloads::{
    BulkReceiver, BulkSender, ChurnClient, IncastSender, RequestClient, RequestServer, SinkServer,
    CHURN_APP_CYCLES,
};
use std::collections::VecDeque;

/// The application driver running on one core.
#[derive(Debug)]
pub enum Driver {
    /// No application (core services completions only).
    Idle,
    /// iperf-style sender rotating over its flows (bulk: one flow;
    /// round-robin: several; slowloris: many, with a gap between sends).
    BulkSender(BulkSender),
    /// Bulk receiving side (drains data, opens the window).
    BulkReceiver(BulkReceiver),
    /// Closed-loop request/response client (echo, wrk).
    RequestClient {
        /// The driver.
        client: RequestClient,
        /// Flow rotation.
        flows: Rotation,
    },
    /// Request/response server (echo, Nginx).
    RequestServer {
        /// The driver.
        server: RequestServer,
        /// Flow rotation.
        flows: Rotation,
    },
    /// Synchronized N-to-1 incast sender (FtStorm).
    Incast(IncastSender),
    /// Receiver draining whatever is readable and answering a peer's FIN
    /// (FtStorm incast, slowloris and churnstorm servers). Accepted
    /// connections join the rotation.
    Sink {
        /// The driver.
        server: SinkServer,
        /// Flow rotation.
        flows: Rotation,
    },
    /// Connect/close cycling client; flow membership is dynamic
    /// (FtStorm churnstorm).
    ChurnClient {
        /// The driver.
        client: ChurnClient,
        /// Live flow rotation (node-maintained).
        flows: Rotation,
    },
}

impl Driver {
    /// `(application, kernel, library)` cycles of one step that did
    /// work; `None` for a core without an application.
    fn costs(&self) -> Option<(u64, u64, u64)> {
        Some(match self {
            Driver::Idle => return None,
            Driver::BulkSender(_) | Driver::BulkReceiver(_) | Driver::Incast(_) => {
                (0, 0, LIB_CMD_CYCLES)
            }
            Driver::RequestClient { client, .. } => (client.app_cycles(), 0, 2 * LIB_CMD_CYCLES),
            Driver::RequestServer { server, .. } => {
                let (app, kernel) = server.cycles();
                (app, kernel, 2 * LIB_CMD_CYCLES)
            }
            Driver::Sink { server, .. } => {
                let (app, lib) = server.cycles();
                (app, 0, lib)
            }
            Driver::ChurnClient { .. } => (CHURN_APP_CYCLES, 0, 2 * LIB_CMD_CYCLES),
        })
    }

    /// Whether the driver steps the flows its completions make
    /// actionable (epoll-style readiness) — the per-flow drivers, which
    /// own a [`Rotation`]. Only these queue ready flows.
    fn readiness_driven(&self) -> bool {
        matches!(
            self,
            Driver::RequestClient { .. }
                | Driver::RequestServer { .. }
                | Driver::Sink { .. }
                | Driver::ChurnClient { .. }
        )
    }

    /// One application step: `ready` is the flow a completion made
    /// actionable, if any (readiness-driven drivers only). Returns
    /// whether the step did work.
    fn step(&mut self, lib: &mut F4tLib, ready: Option<FlowId>, now_ns: u64) -> bool {
        match self {
            Driver::Idle => false,
            Driver::BulkSender(s) => s.step(lib, now_ns),
            Driver::BulkReceiver(r) => r.step(lib) > 0,
            Driver::Incast(s) => s.step(lib, now_ns),
            Driver::RequestClient { client, flows } => {
                flows.pick(ready).is_some_and(|f| client.step_flow(f, lib, now_ns))
            }
            Driver::RequestServer { server, flows } => {
                flows.pick(ready).is_some_and(|f| server.step_flow(f, lib))
            }
            Driver::Sink { server, flows } => {
                flows.pick(ready).is_some_and(|f| server.step_flow(f, lib))
            }
            Driver::ChurnClient { client, flows } => {
                flows.pick(ready).is_some_and(|f| client.step_flow(f, lib))
            }
        }
    }

    /// Requests issued, round trips completed or replies served.
    fn requests(&self) -> u64 {
        match self {
            Driver::BulkSender(s) => s.requests(),
            Driver::RequestClient { client, .. } => client.completed(),
            Driver::RequestServer { server, .. } => server.served(),
            Driver::Incast(s) => s.requests(),
            Driver::Sink { server, .. } => server.served(),
            Driver::ChurnClient { client, .. } => client.completed(),
            Driver::Idle | Driver::BulkReceiver(_) => 0,
        }
    }

    /// Bytes the driver's `recv` calls took.
    fn consumed(&self) -> u64 {
        match self {
            Driver::BulkReceiver(r) => r.consumed(),
            Driver::RequestClient { client, .. } => client.consumed(),
            Driver::RequestServer { server, .. } => server.consumed(),
            Driver::Sink { server, .. } => server.consumed(),
            _ => 0,
        }
    }

    /// Churn connections somewhere in their lifecycle.
    fn live(&self) -> usize {
        match self {
            Driver::ChurnClient { client, .. } => client.live(),
            _ => 0,
        }
    }

    /// Client-side round-trip latency, for drivers that measure it.
    pub(crate) fn latency(&self) -> Option<&Histogram> {
        match self {
            Driver::RequestClient { client, .. } => Some(&client.latency),
            _ => None,
        }
    }

    /// The timer a sleeping thread arms for its driver's future work.
    fn wake_deadline(&self) -> Option<u64> {
        match self {
            Driver::RequestClient { client, .. } => client.earliest_deadline(),
            _ => None,
        }
    }

    /// The node actively opened `flow` on this core.
    fn on_open(&mut self, flow: FlowId) {
        if let Driver::ChurnClient { client, flows } = self {
            client.on_open(flow);
            flows.push(flow);
        }
    }

    /// The engine accepted `flow` and the node assigned it to this core.
    fn on_accept(&mut self, flow: FlowId) {
        if let Driver::Sink { flows, .. } = self {
            flows.push(flow);
        }
    }

    /// The engine tore `flow` down. Returns whether the driver tracked
    /// the flow, in which case the node forgets it at once (eager
    /// teardown, so its id can be reissued); an untracked flow's
    /// `Closed` completion is delivered like any other.
    fn on_closed(&mut self, flow: FlowId) -> bool {
        let (tracked, flows) = match self {
            Driver::ChurnClient { client, flows } => (client.on_closed(flow), flows),
            Driver::Sink { server, flows } => (server.on_closed(flow), flows),
            _ => return false,
        };
        if tracked {
            flows.remove(flow);
        }
        tracked
    }
}

/// The flows a per-flow driver steps, and the next one in rotation.
#[derive(Debug, Default)]
pub struct Rotation {
    flows: Vec<FlowId>,
    next: usize,
}

impl Rotation {
    /// A rotation over `flows`, starting at the first.
    pub fn new(flows: Vec<FlowId>) -> Rotation {
        Rotation { flows, next: 0 }
    }

    /// The flow to step: `ready` when a completion made one actionable,
    /// else the next in rotation (initial kick / spurious wakeups);
    /// `None` on an empty rotation.
    fn pick(&mut self, ready: Option<FlowId>) -> Option<FlowId> {
        if ready.is_some() || self.flows.is_empty() {
            return ready;
        }
        let f = self.flows[self.next % self.flows.len()];
        self.next += 1;
        Some(f)
    }

    /// Adds a newly opened or accepted flow (dynamic membership).
    fn push(&mut self, flow: FlowId) {
        self.flows.push(flow);
    }

    /// Drops a torn-down flow (dynamic membership).
    fn remove(&mut self, flow: FlowId) {
        // f4tlint: allow(tick_path_scan): once per connection close, over
        // one core's live rotation; the position feeds `swap_remove`, so
        // the rotation order is simulated behaviour.
        if let Some(p) = self.flows.iter().position(|&f| f == flow) {
            self.flows.swap_remove(p);
        }
    }
}

/// One application thread's core.
#[derive(Debug)]
struct Core {
    budget: CoreBudget,
    lib: F4tLib,
    acct: CpuAccounting,
    driver: Driver,
    completions: VecDeque<Completion>,
    /// Flows made readable by recent completions (epoll-style readiness,
    /// so closed-loop drivers with thousands of flows step the right
    /// one instead of scanning).
    ready: VecDeque<FlowId>,
    /// Consecutive empty poll ticks (drives sleep-after-poll, §4.6).
    empty_polls: u32,
    /// Whether the thread has gone to sleep awaiting a runtime signal.
    sleeping: bool,
    /// Timer armed before sleeping (paced senders wake themselves).
    wake_at_ns: Option<u64>,
    /// Payload bytes of the command at the ring's head already streamed
    /// across PCIe (0 unless it is larger than one burst).
    streamed: u64,
}

/// The engine's sleep inside a node window (DESIGN.md §12.4). After a
/// tick in which every FPC took its quiet path the node asks
/// [`Engine::idle_until`] and stops ticking the engine until that cycle;
/// the engine's clock lags the node's meanwhile. Before anything feeds
/// or drains the engine it settles: one [`Engine::skip_idle`] up to the
/// clock the engine reads in lock-step. A feed also wakes it.
#[derive(Debug, Clone, Copy)]
struct EngineSleep {
    /// The engine's clock in lock-step: its cycle, had it ticked through
    /// every engine step of the window so far.
    clock: u64,
    /// The engine ticks again at this cycle.
    until: u64,
    /// Engine steps slept through.
    slept: u64,
}

impl EngineSleep {
    /// Brings the engine's clock up to [`Self::clock`].
    fn settle(&self, engine: &mut Engine) {
        if engine.cycles() < self.clock {
            engine.skip_idle(self.clock);
        }
    }

    /// Settles the engine before it is fed, and ends the sleep: the input
    /// may move its horizon.
    fn wake(&mut self, engine: &mut Engine) {
        self.settle(engine);
        self.until = self.clock;
    }

    /// One engine step of the node's tick: slept through while the engine
    /// is idle, else settle and tick — and after a tick in which every
    /// FPC was quiet, sleep until [`Engine::idle_until`].
    fn step(&mut self, engine: &mut Engine) {
        if self.clock < self.until {
            self.clock += 1;
            self.slept += 1;
            return;
        }
        self.settle(engine);
        let busy = engine.tick();
        self.clock = engine.cycles();
        if !busy {
            self.until = engine.idle_until();
        }
    }
}

/// What the node keeps per flow, in one flow-indexed record.
#[derive(Debug, Clone, Copy, Default)]
struct FlowRoute {
    /// Receive-side scaling: completions of a flow go to one core (§4.6).
    /// A flow nobody assigned reads as core 0.
    core: usize,
    /// Last REQ pointer DMAed, to charge TX payload DMA (`None` until the
    /// first pointer is known).
    last_req: Option<SeqNum>,
}

/// A host node (server machine) in the testbed.
#[derive(Debug)]
pub struct Node {
    /// The FtEngine on this node's smartNIC slot.
    pub engine: Engine,
    pcie: PcieModel,
    cores: Vec<Core>,
    /// Owning core and last REQ pointer per flow.
    routes: FlowSlab<FlowRoute>,
    /// RX payload DMA bytes already charged.
    rx_dma_charged: u64,
    /// Completions waiting for PCIe d2h budget, with their destination
    /// core captured at enqueue time (so churn teardown cannot re-route
    /// an in-flight completion when a flow id is recycled).
    completion_backlog: VecDeque<(usize, Completion)>,
    /// Round-robin core assignment for engine-accepted connections.
    accept_rr: usize,
    /// Round-robin start for command DMA, so one busy core cannot
    /// monopolize the PCIe budget.
    dma_rr: usize,
    /// Sleep-after-poll (§4.6): when enabled, an application thread that
    /// polls emptily for ~10 µs goes to sleep and is woken by the runtime
    /// when a completion arrives — "F4T software does not consume CPU
    /// cycles when there are no requests".
    sleep_after_poll: bool,
    /// The engine's sleep, inside a node window only.
    engine_sleep: Option<EngineSleep>,
}

/// Bytes one DMA descriptor moves when a transfer streams across cycles.
const DMA_CHUNK: u64 = 4096;

// Node `b` moves to the node-window thread and back by value (DESIGN.md
// §12.4): a field that is not `Send` (an `Rc`, a `RefCell` handle) must
// fail the build here, not a run.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Node>();
};

impl Node {
    /// Creates a node with `cores` application threads, each with its own
    /// command ring.
    pub fn new(cores: usize, engine: EngineConfig) -> Node {
        Node {
            engine: Engine::new(engine),
            pcie: PcieModel::gen3x16(),
            cores: (0..cores)
                .map(|_| Core {
                    budget: CoreBudget::xeon_5118(),
                    lib: F4tLib::new(),
                    acct: CpuAccounting::default(),
                    driver: Driver::Idle,
                    completions: VecDeque::new(),
                    ready: VecDeque::new(),
                    empty_polls: 0,
                    sleeping: false,
                    wake_at_ns: None,
                    streamed: 0,
                })
                .collect(),
            routes: FlowSlab::with_capacity(0),
            rx_dma_charged: 0,
            completion_backlog: VecDeque::new(),
            accept_rr: 0,
            dma_rr: 0,
            sleep_after_poll: false,
            engine_sleep: None,
        }
    }

    /// Enables/disables the §4.6 sleep-after-poll policy on all cores.
    pub fn set_sleep_after_poll(&mut self, enabled: bool) {
        self.sleep_after_poll = enabled;
    }

    /// Switches every core's library to the compact 8 B commands (§6).
    /// Safe to call after flows are registered (socket state is kept).
    pub fn use_compact_commands(&mut self) {
        for c in &mut self.cores {
            c.lib.switch_to_compact();
        }
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Opens a pre-established flow owned by `core`.
    pub fn add_established_flow(
        &mut self,
        tuple: FourTuple,
        isn: SeqNum,
        core: usize,
    ) -> Option<FlowId> {
        let flow = self.engine.open_established(tuple, isn)?;
        self.cores[core].lib.register(flow, isn, true);
        self.routes.insert(flow.0, FlowRoute { core, last_req: Some(isn) });
        Some(flow)
    }

    /// Actively opens a connection owned by `core`: allocates the engine
    /// flow, registers the socket, and enqueues the Connect command that
    /// launches the handshake. Returns `None` when the engine is at its
    /// flow limit or the core's command ring is full (the churn manager
    /// retries next tick).
    pub fn open_active_flow(&mut self, tuple: FourTuple, core: usize) -> Option<FlowId> {
        if self.cores[core].lib.commands_full() {
            return None;
        }
        self.wake_engine();
        let flow = self.engine.open_active(tuple)?;
        let isn = self.engine.peek_tcb(flow).map(|t| t.snd_una).unwrap_or(SeqNum::ZERO);
        let c = &mut self.cores[core];
        c.lib.register(flow, isn, false);
        let connected = c.lib.connect(flow);
        debug_assert!(connected.is_ok(), "ring fullness checked above");
        self.routes.insert(flow.0, FlowRoute { core, last_req: Some(isn) });
        c.driver.on_open(flow);
        Some(flow)
    }

    /// Lets the engine sleep through its idle cycles until
    /// [`Self::end_engine_sleep`]: node windows only (DESIGN.md §12.4),
    /// and only with [`EngineConfig::fast_forward`] set.
    pub(crate) fn begin_engine_sleep(&mut self) {
        let clock = self.engine.cycles();
        let sleep = EngineSleep { clock, until: clock, slept: 0 };
        self.engine_sleep = self.engine.config().fast_forward.then_some(sleep);
    }

    /// Settles the engine and ends its sleep; the engine steps it slept
    /// through.
    pub(crate) fn end_engine_sleep(&mut self) -> u64 {
        let Some(sleep) = self.engine_sleep.take() else { return 0 };
        sleep.settle(&mut self.engine);
        sleep.slept
    }

    /// Brings a sleeping engine's clock up to date before something
    /// drains it.
    pub(crate) fn settle_engine(&mut self) {
        if let Some(sleep) = &self.engine_sleep {
            sleep.settle(&mut self.engine);
        }
    }

    /// Settles a sleeping engine before something feeds it, and wakes it.
    pub(crate) fn wake_engine(&mut self) {
        if let Some(sleep) = &mut self.engine_sleep {
            sleep.wake(&mut self.engine);
        }
    }

    /// Installs a driver on a core.
    pub fn set_driver(&mut self, core: usize, driver: Driver) {
        self.cores[core].driver = driver;
    }

    /// Merged utilization across cores.
    pub fn total_accounting(&self) -> CpuAccounting {
        let mut total = CpuAccounting::default();
        for c in &self.cores {
            total.merge(&c.acct);
        }
        total
    }

    /// Immutable access to a core's library (stats).
    pub fn lib(&self, core: usize) -> &F4tLib {
        &self.cores[core].lib
    }

    /// Immutable access to a core's driver (stats).
    pub fn driver(&self, core: usize) -> &Driver {
        &self.cores[core].driver
    }

    /// Total requests issued by all drivers.
    pub fn requests(&self) -> u64 {
        self.cores.iter().map(|c| c.driver.requests()).sum()
    }

    /// Connections currently somewhere in their lifecycle across all
    /// churn clients (0 when every opened flow has fully closed).
    pub fn churn_live(&self) -> usize {
        self.cores.iter().map(|c| c.driver.live()).sum()
    }

    /// Bytes the drivers' `recv` calls took (goodput measurement point).
    pub fn consumed_bytes(&self) -> u64 {
        self.cores.iter().map(|c| c.driver.consumed()).sum()
    }

    /// PCIe diagnostics.
    pub fn pcie(&self) -> &PcieModel {
        &self.pcie
    }

    /// The core owning `flow` (RSS); unknown flows land on core 0.
    fn core_of(&self, flow: FlowId) -> usize {
        self.routes.get(flow.0).map_or(0, |r| r.core)
    }

    /// The per-flow record of `flow`, created empty when there is none.
    fn route_mut(&mut self, flow: FlowId) -> &mut FlowRoute {
        self.routes.get_or_insert_with(flow.0, FlowRoute::default)
    }

    fn command_to_event(cmd: Command, now_ns: u64) -> FlowEvent {
        let kind = match cmd {
            Command::Connect { .. } => EventKind::Connect,
            Command::Close { .. } => EventKind::Close,
            Command::Send { req, .. } => EventKind::SendReq { req },
            Command::RecvConsumed { consumed, .. } => EventKind::RecvConsumed { consumed },
        };
        FlowEvent::new(cmd.flow(), kind, now_ns)
    }

    fn notification_to_completion(n: HostNotification) -> Completion {
        match n {
            HostNotification::Connected { flow } => Completion::Connected { flow },
            HostNotification::DataAcked { flow, upto } => Completion::Acked { flow, upto },
            HostNotification::DataReceived { flow, upto } => Completion::Received { flow, upto },
            HostNotification::PeerFin { flow } => Completion::Eof { flow },
            HostNotification::Closed { flow } => Completion::Closed { flow },
            HostNotification::NewConnection { flow, .. } => Completion::Accepted { flow },
        }
    }

    /// Advances the node one engine cycle.
    pub fn tick(&mut self, now_ns: u64) {
        self.pcie.tick();

        // 1. DMA commands from core queues into the engine (h2d), paying
        //    for the command entry and, for sends, the payload bytes.
        //    Queues are served round-robin starting at a rotating index.
        let n_cores = self.cores.len();
        self.dma_rr = (self.dma_rr + 1) % n_cores.max(1);
        'dma: for off in 0..n_cores {
            let i = (self.dma_rr + off) % n_cores;
            while let Some(&cmd) = self.cores[i].lib.commands_front() {
                let entry = self.cores[i].lib.entry_bytes() as u64;
                let payload = match cmd {
                    Command::Send { flow, req } => {
                        let prev = self.routes.get(flow.0).and_then(|r| r.last_req).unwrap_or(req);
                        u64::from(req.since(prev))
                    }
                    _ => 0,
                };
                if !self.engine.can_accept_event() {
                    break 'dma;
                }
                // More than one PCIe burst could never pass at once: the
                // payload streams ahead in DMA_CHUNK pieces, over as many
                // cycles as the budget takes, and the entry goes last.
                let mut owed = entry + payload - self.cores[i].streamed;
                while owed > PCIE_BURST_BYTES {
                    if !self.pcie.try_transfer(PcieDir::HostToDevice, DMA_CHUNK) {
                        break 'dma;
                    }
                    self.cores[i].streamed += DMA_CHUNK;
                    owed -= DMA_CHUNK;
                }
                if !self.pcie.try_transfer(PcieDir::HostToDevice, owed) {
                    break 'dma;
                }
                self.cores[i].streamed = 0;
                self.cores[i].lib.commands_pop();
                if let Command::Send { flow, req } = cmd {
                    self.route_mut(flow).last_req = Some(req);
                }
                self.wake_engine();
                let accepted = self.engine.push_event(Self::command_to_event(cmd, now_ns));
                debug_assert!(accepted, "checked can_accept_event");
            }
        }

        // 2. Engine cycle, slept through inside a node window while the
        //    engine is idle. What the node reads below — DMA bytes,
        //    notifications, TCBs — cannot move in an idle cycle.
        match &mut self.engine_sleep {
            Some(sleep) => sleep.step(&mut self.engine),
            None => {
                self.engine.tick();
            }
        }

        // 3. RX payload DMA (d2h): charge what the parser accepted.
        let rx_total = self.engine.rx_dma_bytes();
        if rx_total > self.rx_dma_charged {
            let delta = rx_total - self.rx_dma_charged;
            // Borrow against future budget: the DMA engine streams.
            let chunk = delta.min(DMA_CHUNK);
            if self.pcie.try_transfer(PcieDir::DeviceToHost, chunk) {
                self.rx_dma_charged += chunk;
            }
        }

        // 4. Completions to cores (d2h, 16 B each). Engine-side connection
        //    lifecycle (accept / teardown) is intercepted here, in the same
        //    tick the engine acts, because flow ids are recycled
        //    immediately: by the time a PCIe-delayed completion reaches a
        //    core, its flow id may already name a different connection.
        while let Some(n) = self.engine.pop_notification() {
            match n {
                HostNotification::NewConnection { flow, .. } => {
                    let core = self.accept_rr % n_cores.max(1);
                    self.accept_rr += 1;
                    self.route_mut(flow).core = core;
                    // Server-side sockets have asymmetric sequence bases:
                    // each direction picked its own ISN in the handshake.
                    if let Some(t) = self.engine.peek_tcb(flow) {
                        self.cores[core].lib.register_accepted(flow, t.snd_nxt, t.rcv_nxt);
                        self.route_mut(flow).last_req = Some(t.snd_nxt);
                    }
                    self.cores[core].driver.on_accept(flow);
                    self.completion_backlog.push_back((core, Completion::Accepted { flow }));
                }
                HostNotification::Closed { flow } => {
                    let core = self.core_of(flow);
                    if self.cores[core].driver.on_closed(flow) {
                        // Eager teardown: forget the flow everywhere and
                        // drop its still-undelivered completions, so the
                        // id can be reissued without aliasing state.
                        self.routes.remove(flow.0);
                        self.cores[core].lib.deregister(flow);
                        self.completion_backlog.retain(|&(_, c)| c.flow() != flow);
                        // Completions already DMA'd to a core but not yet
                        // consumed (budget starvation) alias the reissued
                        // id too — their `upto` pointers are in the dead
                        // incarnation's sequence space.
                        for c in &mut self.cores {
                            c.completions.retain(|q| q.flow() != flow);
                        }
                    } else {
                        self.completion_backlog.push_back((core, Completion::Closed { flow }));
                    }
                }
                HostNotification::Connected { flow } => {
                    // Handshake complete: only now are both directions'
                    // sequence bases known (each side picked its own ISN
                    // and the SYN/SYN|ACK each consume one sequence
                    // number). Re-seed before any data completion can
                    // apply a pointer from the provisional space.
                    let core = self.core_of(flow);
                    if let Some(t) = self.engine.peek_tcb(flow) {
                        self.cores[core].lib.seed_handshake(flow, t.snd_una, t.rcv_nxt);
                        self.route_mut(flow).last_req = Some(t.snd_una);
                    }
                    self.completion_backlog.push_back((core, Completion::Connected { flow }));
                }
                other => {
                    let c = Self::notification_to_completion(other);
                    let core = self.core_of(c.flow());
                    self.completion_backlog.push_back((core, c));
                }
            }
        }
        while let Some(&(core, c)) = self.completion_backlog.front() {
            if !self.pcie.try_transfer(PcieDir::DeviceToHost, 16) {
                break;
            }
            self.completion_backlog.pop_front();
            self.cores[core].completions.push_back(c);
        }

        // 5. Core work.
        const SLEEP_AFTER_EMPTY_TICKS: u32 = 2_500; // ≈10 µs of polling
        for core in &mut self.cores {
            core.budget.tick();
            // Sleep-after-poll: a sleeping thread costs nothing; it wakes
            // on the runtime's signal (a completion arriving) or on its
            // own timer (a paced sender's next deadline).
            if core.sleeping {
                let timer_due = core.wake_at_ns.is_some_and(|t| now_ns >= t);
                if core.completions.is_empty() && !timer_due {
                    core.acct.charge(CpuCategory::Idle, 9);
                    continue;
                }
                core.sleeping = false;
                core.wake_at_ns = None;
                core.empty_polls = 0;
            }
            // Completions first (the poll loop of §4.6).
            let readiness = core.driver.readiness_driven();
            while let Some(&c) = core.completions.front() {
                if !core.budget.try_spend(LIB_COMPLETION_CYCLES) {
                    break;
                }
                core.acct.charge(CpuCategory::F4tLib, LIB_COMPLETION_CYCLES);
                core.lib.on_completion(c);
                match c {
                    // Readability, connection establishment and FIN all
                    // make a flow actionable for closed-loop drivers.
                    Completion::Received { flow, .. }
                    | Completion::Accepted { flow }
                    | Completion::Connected { flow }
                    | Completion::Eof { flow }
                        if readiness =>
                    {
                        core.ready.push_back(flow)
                    }
                    _ => {}
                }
                core.completions.pop_front();
            }
            // Application steps until the budget runs dry or the driver
            // has nothing to do.
            let mut did_anything = false;
            if let Some((app, kernel, lib)) = core.driver.costs() {
                let cost = app + kernel + lib;
                while core.budget.available() >= cost {
                    let ready = if readiness { core.ready.pop_front() } else { None };
                    if core.driver.step(&mut core.lib, ready, now_ns) {
                        did_anything = true;
                        let spent = core.budget.try_spend(cost);
                        debug_assert!(spent, "checked available");
                        core.acct.charge(CpuCategory::App, app);
                        core.acct.charge(CpuCategory::Kernel, kernel);
                        core.acct.charge(CpuCategory::F4tLib, lib);
                        continue;
                    }
                    // Nothing actionable: pay one poll. A spurious wakeup
                    // (e.g. a partial message) keeps draining the ready
                    // queue; otherwise the core yields.
                    if !core.budget.try_spend(LIB_POLL_CYCLES) {
                        break;
                    }
                    core.acct.charge(CpuCategory::F4tLib, LIB_POLL_CYCLES);
                    if ready.is_none() {
                        break;
                    }
                }
            }
            if did_anything || !core.completions.is_empty() {
                core.empty_polls = 0;
            } else {
                core.empty_polls += 1;
                if self.sleep_after_poll && core.empty_polls >= SLEEP_AFTER_EMPTY_TICKS {
                    core.sleeping = true;
                    // Arm the wake timer for drivers with future work.
                    core.wake_at_ns = core.driver.wake_deadline();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn tuple(i: u16) -> FourTuple {
        FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 10_000 + i, Ipv4Addr::new(10, 0, 0, 2), 80)
    }

    #[test]
    fn node_builds_past_the_old_queue_pair_limit() {
        // The per-thread queue-pair bookkeeping ran out of its 64
        // hugepages after 4 088 application threads.
        let node = Node::new(4_089, EngineConfig::single_fpc());
        assert_eq!(node.core_count(), 4_089);
    }

    #[test]
    fn command_dma_reaches_engine() {
        let mut node = Node::new(1, EngineConfig::single_fpc());
        let flow = node.add_established_flow(tuple(0), SeqNum(0), 0).unwrap();
        node.set_driver(0, Driver::BulkSender(BulkSender::new(vec![flow], 128, 0)));
        for c in 0..2_000u64 {
            node.tick(c * 4);
        }
        assert!(node.engine.stats().host_events > 0, "commands crossed PCIe");
        // The engine produced data segments.
        assert!(node.engine.pop_tx().is_some());
    }

    #[test]
    fn send_rate_matches_library_cost_model() {
        // One core at 2.3 GHz with 40-cycle sends + ~12-cycle completions
        // should issue tens of requests per microsecond (≈44 Mrps).
        let mut node = Node::new(1, EngineConfig::reference());
        let flow = node.add_established_flow(tuple(0), SeqNum(0), 0).unwrap();
        node.set_driver(0, Driver::BulkSender(BulkSender::new(vec![flow], 128, 0)));
        // Drain TX so buffer never fills (ideal peer ACK immediately).
        let mut issued_at_10us = 0;
        for c in 0..25_000u64 {
            node.tick(c * 4);
            while node.engine.pop_tx().is_some() {}
            // Ideal peer ACKs at a realistic cadence (every ~16 cycles,
            // i.e. one cumulative ACK per couple of MTUs of data).
            if c % 16 == 0 {
                if let Some(t) = node.engine.peek_tcb(flow) {
                    if t.snd_nxt.since(t.snd_una) > 0 {
                        node.engine.push_rx(f4t_tcp::Segment::pure_ack(
                            tuple(0).reversed(),
                            t.rcv_nxt,
                            t.snd_nxt,
                            f4t_tcp::TCP_BUFFER,
                        ));
                    }
                }
            }
            if c == 2_499 {
                let Driver::BulkSender(s) = node.driver(0) else { panic!() };
                issued_at_10us = s.requests();
            }
        }
        let Driver::BulkSender(s) = node.driver(0) else { panic!() };
        let issued_last_90us = s.requests() - issued_at_10us;
        // 90 µs at ~44 Mrps ≈ 3960; allow wide tolerance for completion
        // processing share.
        assert!(
            (2_000..5_000).contains(&issued_last_90us),
            "issued {issued_last_90us} in 90 us"
        );
    }

    #[test]
    fn rss_routes_completions_to_owning_core() {
        let mut node = Node::new(2, EngineConfig::single_fpc());
        let f0 = node.add_established_flow(tuple(0), SeqNum(0), 0).unwrap();
        let f1 = node.add_established_flow(tuple(1), SeqNum(0), 1).unwrap();
        node.set_driver(0, Driver::BulkSender(BulkSender::new(vec![f0], 1000, 0)));
        node.set_driver(1, Driver::BulkSender(BulkSender::new(vec![f1], 1000, 0)));
        for c in 0..4_000u64 {
            node.tick(c * 4);
            while let Some(seg) = node.engine.pop_tx() {
                // Ideal peer: ack everything instantly.
                node.engine.push_rx(f4t_tcp::Segment::pure_ack(
                    seg.tuple.reversed(),
                    seg.ack,
                    seg.seq_end(),
                    f4t_tcp::TCP_BUFFER,
                ));
            }
        }
        // Both cores saw their own flow's pointers advance.
        assert!(node.lib(0).socket(f0).unwrap().acked.since(SeqNum(0)) > 0);
        assert!(node.lib(1).socket(f1).unwrap().acked.since(SeqNum(0)) > 0);
    }

    /// Only readiness-driven drivers queue ready flows: the bulk
    /// receivers and senders never pop one, so after a run no core holds
    /// more entries than it owns flows.
    #[test]
    fn ready_queues_stay_bounded_by_the_flow_count() {
        use crate::F4tSystem;
        let cfg = EngineConfig {
            num_fpcs: 2,
            flows_per_fpc: 32,
            lut_groups: 2,
            ..EngineConfig::reference()
        };
        let runs = [F4tSystem::bulk(2, 128, cfg.clone()), F4tSystem::round_robin(2, 4, 128, cfg)];
        for mut sys in runs {
            sys.run_ns(200_000);
            assert!(sys.b.consumed_bytes() > 0, "data flowed");
            for node in [&sys.a, &sys.b] {
                for (i, core) in node.cores.iter().enumerate() {
                    let flows = node.routes.iter().filter(|(_, r)| r.core == i).count();
                    assert!(core.ready.len() <= flows, "core {i}: {} ready", core.ready.len());
                }
            }
        }
    }

    /// A send larger than one PCIe burst (8192 B, the entry included)
    /// streams across cycles instead of wedging its core's command ring:
    /// 8 KiB and 64 KiB bulk sends keep the h2d direction near its rate.
    #[test]
    fn sends_larger_than_a_pcie_burst_stream_across_cycles() {
        use crate::F4tSystem;
        let cfg = EngineConfig {
            num_fpcs: 2,
            flows_per_fpc: 32,
            lut_groups: 2,
            ..EngineConfig::reference()
        };
        let ns = 200_000;
        for size in [8_192, 65_536] {
            let mut sys = F4tSystem::bulk(1, size, cfg.clone());
            let m = sys.measure(0, ns);
            assert!(m.goodput_gbps() > 80.0, "{size} B: {:.2} Gbps", m.goodput_gbps());
            let h2d_bps = sys.a.pcie().h2d_bytes() as f64 * 1e9 / ns as f64;
            let share = h2d_bps / f4t_host::pcie::PCIE_EFFECTIVE_BPS as f64;
            assert!((0.85..=1.0).contains(&share), "{size} B: h2d at {share:.3} of PCIe");
        }
    }
}
