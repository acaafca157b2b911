//! `scale-64k`: a bare [`Engine`] against the benchmark's own ideal
//! ACKing peer. No host model, no link, no workload driver of the
//! repository runs here, so any optimisation of those must leave this
//! workload unchanged.
//!
//! Every flow sends `WAVES` requests of `WAVE_BYTES`; wave k+1 is issued
//! once the engine has reported wave k ACKed on every flow, and after
//! the last wave every TCB's `snd_una` is read back and must equal the
//! target. The peer ACKs
//! whatever data it saw after each `PUMP_CYCLES` quantum (a 1 µs
//! turnaround, the system link's one-way delay). After the last wave the
//! engine idles for a simulated tail, the regime where fast-forward
//! skips. The run is a state machine ([`ScaleRun::step`]) so the same
//! code serves the timed reps and the `ParallelRunner` shards.

use super::{
    armed_findings, charge_failures, digest_telemetry, engine_counts, Fnv, Rep, RepOpts, Sim, Size,
    CYCLE_NS,
};
use crate::spans::Tracer;
use crate::stats::percentile_sorted;
use f4t_core::{Engine, EngineConfig, EventKind, HostNotification};
use f4t_sim::{MetricsRegistry, SimRng};
use f4t_tcp::{FlowId, FourTuple, Segment, SeqNum, TCP_BUFFER};
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Engine cycles per pump: the peer's ACK turnaround.
const PUMP_CYCLES: u64 = 256;
/// Bytes each flow sends per wave.
const WAVE_BYTES: u32 = 256;
/// Waves per flow.
const WAVES: u32 = 2;
/// Source ports used per source address.
const PORTS_PER_IP: u32 = 32_768;
/// Most ACKs offered per pump: the RX parser's input FIFO depth.
const ACKS_PER_PUMP: usize = 256;
/// Idle-tail cycles advanced per step.
const TAIL_CHUNK: u64 = 1 << 20;

/// Size of one `scale-64k` run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleShape {
    /// Flows opened.
    pub flows: u32,
    /// Simulated idle cycles after the last wave.
    pub tail_cycles: u64,
}

impl ScaleShape {
    /// The shape of a rep of the given size.
    pub fn of(size: Size) -> ScaleShape {
        let div = match size {
            Size::Full => 1,
            Size::Quarter => 4,
            Size::Mini => 16,
        };
        ScaleShape {
            flows: 65_536 / div as u32,
            tail_cycles: 5_000_000 / div,
        }
    }
}

/// The k-th of the 65 536 client 4-tuples every bare-engine driver of
/// the benchmark uses.
pub fn tuple_for(k: u32) -> FourTuple {
    let ip = Ipv4Addr::new(10, 0, (k / PORTS_PER_IP) as u8, 1);
    FourTuple::new(
        ip,
        (1_024 + k % PORTS_PER_IP) as u16,
        Ipv4Addr::new(10, 0, 0, 2),
        80,
    )
}

/// Inverse of [`tuple_for`]: the peer finds a segment's flow by
/// arithmetic on its 4-tuple instead of hashing it.
fn key_of(t: &FourTuple) -> usize {
    usize::from(t.src_ip.octets()[2]) * PORTS_PER_IP as usize + usize::from(t.src_port) - 1_024
}

fn shuffled(n: u32, rng: &mut SimRng) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n).collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    v
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Issue,
    Drain,
    Tail,
    Done,
}

/// One `scale-64k` run in progress.
#[derive(Debug)]
pub struct ScaleRun {
    /// The engine under test.
    pub engine: Engine,
    flows: Vec<FlowId>,
    /// Per flow: the reversed tuple ACKs are addressed with.
    ack_tuple: Vec<FourTuple>,
    /// Tuple key → flow index.
    flow_of_key: Vec<u32>,
    rng: SimRng,
    phase: Phase,
    wave: u32,
    target: SeqNum,
    order: Vec<u32>,
    issued: usize,
    issue_cycle: Vec<u64>,
    /// Peer state: highest sequence end seen but not yet ACKed, per flow,
    /// valid while the flow is on the dirty list.
    unacked_hi: Vec<SeqNum>,
    on_dirty: Vec<bool>,
    dirty: VecDeque<u32>,
    acks: Vec<Segment>,
    notes: Vec<HostNotification>,
    segs: Vec<Segment>,
    wave_done: Vec<u32>,
    completed: u32,
    budget: u64,
    tail_left: u64,
    /// Wave completion latencies in cycles (request issued → the engine
    /// reports the wave's last byte ACKed).
    pub latency_cycles: Vec<u64>,
    /// Cycle at which the last wave was verified complete.
    pub active_cycles: u64,
    /// Flows that never reached their target within the cycle budget.
    pub stuck: Vec<u32>,
    /// Host seconds spent in the benchmark's own code.
    pub driver_s: f64,
}

impl ScaleRun {
    /// Builds the engine, opens `shape.flows` flows on tuples permuted by
    /// `seed`, and prepares the peer.
    pub fn new(
        shape: ScaleShape,
        seed: u64,
        mut cfg: EngineConfig,
        tracer: &mut Tracer,
    ) -> ScaleRun {
        let n = shape.flows;
        cfg.max_flows = n as usize;
        let mut rng = SimRng::new(seed);
        let perm = shuffled(n, &mut rng);
        let mut engine = Engine::new(cfg);
        let mut flows = Vec::with_capacity(n as usize);
        let mut ack_tuple = Vec::with_capacity(n as usize);
        let mut flow_of_key = vec![0u32; n as usize];
        tracer.enter("open_flows");
        for (i, &k) in perm.iter().enumerate() {
            let t = tuple_for(k);
            let flow = engine
                .open_established(t, SeqNum(0))
                .expect("max_flows sized to the run");
            flows.push(flow);
            ack_tuple.push(t.reversed());
            flow_of_key[key_of(&t)] = i as u32;
        }
        tracer.exit();
        let mut run = ScaleRun {
            engine,
            flows,
            ack_tuple,
            flow_of_key,
            rng,
            phase: Phase::Issue,
            wave: 0,
            target: SeqNum(0),
            order: Vec::new(),
            issued: 0,
            issue_cycle: vec![0; n as usize],
            unacked_hi: vec![SeqNum(0); n as usize],
            on_dirty: vec![false; n as usize],
            dirty: VecDeque::new(),
            acks: Vec::with_capacity(ACKS_PER_PUMP),
            notes: Vec::new(),
            segs: Vec::new(),
            wave_done: vec![0; n as usize],
            completed: 0,
            budget: 0,
            tail_left: shape.tail_cycles,
            latency_cycles: Vec::with_capacity((n * WAVES) as usize),
            active_cycles: 0,
            stuck: Vec::new(),
            driver_s: 0.0,
        };
        run.begin_wave();
        run
    }

    fn begin_wave(&mut self) {
        self.wave += 1;
        self.target = SeqNum(0).add(self.wave * WAVE_BYTES);
        self.order = shuffled(self.flows.len() as u32, &mut self.rng);
        self.issued = 0;
        self.completed = 0;
        self.budget = self.engine.cycles() + self.flows.len() as u64 * 20_000 + 10_000_000;
        self.phase = Phase::Issue;
    }

    /// One quantum: run the engine, harvest TX, ACK what was seen, and
    /// count the completions the engine reports to its host.
    fn pump(&mut self, tracer: &mut Tracer) {
        tracer.enter("engine.run");
        self.engine.run(PUMP_CYCLES);
        tracer.exit();

        tracer.enter("engine.pop_tx");
        while let Some(seg) = self.engine.pop_tx() {
            self.segs.push(seg);
        }
        tracer.exit();

        tracer.enter("peer.ack");
        let t = Instant::now();
        for seg in self.segs.drain(..) {
            if !seg.has_payload() {
                continue;
            }
            let i = self.flow_of_key[key_of(&seg.tuple)] as usize;
            let end = seg.seq_end();
            if self.on_dirty[i] {
                self.unacked_hi[i] = self.unacked_hi[i].max_seq(end);
            } else {
                self.on_dirty[i] = true;
                self.unacked_hi[i] = end;
                self.dirty.push_back(i as u32);
            }
        }
        self.acks.clear();
        for &i in self.dirty.iter().take(ACKS_PER_PUMP) {
            let hi = self.unacked_hi[i as usize];
            self.acks.push(Segment::pure_ack(
                self.ack_tuple[i as usize],
                SeqNum(0),
                hi,
                TCP_BUFFER,
            ));
        }
        self.driver_s += t.elapsed().as_secs_f64();
        tracer.exit();

        tracer.enter("engine.push_rx");
        let mut accepted = 0;
        for &ack in &self.acks {
            if !self.engine.push_rx(ack) {
                break;
            }
            accepted += 1;
        }
        tracer.exit();

        tracer.enter("engine.pop_notification");
        while let Some(n) = self.engine.pop_notification() {
            self.notes.push(n);
        }
        tracer.exit();

        tracer.enter("peer.complete");
        let t = Instant::now();
        for i in self.dirty.drain(..accepted) {
            self.on_dirty[i as usize] = false;
        }
        let now = self.engine.cycles();
        for n in self.notes.drain(..) {
            let HostNotification::DataAcked { flow, upto } = n else {
                continue;
            };
            // Flow ids are handed out densely in opening order.
            let i = flow.0 as usize;
            if self.wave_done[i] < self.wave && upto.ge(self.target) {
                self.wave_done[i] = self.wave;
                self.completed += 1;
                self.latency_cycles.push(now - self.issue_cycle[i]);
            }
        }
        self.driver_s += t.elapsed().as_secs_f64();
        tracer.exit();
    }

    /// Every flow whose TCB is not exactly at the current target.
    fn short_of_target(&self) -> Vec<u32> {
        (0..self.flows.len() as u32)
            .filter(|&i| {
                self.engine
                    .peek_tcb(self.flows[i as usize])
                    .is_none_or(|t| t.snd_una != self.target)
            })
            .collect()
    }

    /// Advances the run by one quantum. Returns `false` once finished.
    pub fn step(&mut self, tracer: &mut Tracer) -> bool {
        match self.phase {
            Phase::Issue => {
                tracer.enter("engine.push_host");
                while self.issued < self.order.len() {
                    let i = self.order[self.issued] as usize;
                    if !self
                        .engine
                        .push_host(self.flows[i], EventKind::SendReq { req: self.target })
                    {
                        break;
                    }
                    self.issue_cycle[i] = self.engine.cycles();
                    self.issued += 1;
                }
                tracer.exit();
                self.pump(tracer);
                if self.issued == self.order.len() {
                    self.phase = Phase::Drain;
                }
            }
            Phase::Drain => {
                self.pump(tracer);
                if self.completed as usize == self.flows.len() {
                    if self.wave < WAVES {
                        self.begin_wave();
                    } else {
                        // Every completion was reported; now read every
                        // TCB once and hold the engine to it.
                        tracer.enter("verify.scan");
                        let t = Instant::now();
                        self.stuck = self.short_of_target();
                        self.driver_s += t.elapsed().as_secs_f64();
                        tracer.exit();
                        self.active_cycles = self.engine.cycles();
                        self.phase = Phase::Tail;
                    }
                }
            }
            Phase::Tail => {
                let n = self.tail_left.min(TAIL_CHUNK);
                tracer.enter("engine.run");
                self.engine.run(n);
                tracer.exit();
                self.tail_left -= n;
                if self.tail_left == 0 {
                    self.phase = Phase::Done;
                }
            }
            Phase::Done => return false,
        }
        if matches!(self.phase, Phase::Issue | Phase::Drain) && self.engine.cycles() > self.budget {
            // Out of cycle budget: every flow short of its target failed.
            self.stuck = self.short_of_target();
            self.active_cycles = self.engine.cycles();
            self.phase = Phase::Done;
        }
        self.phase != Phase::Done
    }

    /// Bytes every flow was asked to send over the whole run.
    pub fn bytes_per_flow() -> u64 {
        u64::from(WAVES * WAVE_BYTES)
    }
}

/// Times one construction of the engine, its flows and the peer.
pub fn setup_only(opts: RepOpts) -> f64 {
    let t = Instant::now();
    let run = ScaleRun::new(
        ScaleShape::of(opts.size),
        opts.seed,
        opts.arm.config(),
        &mut Tracer::off(),
    );
    let setup_s = t.elapsed().as_secs_f64();
    drop(run);
    setup_s
}

/// Runs one rep of `scale-64k`.
pub fn run(opts: RepOpts, tracer: &mut Tracer) -> Rep {
    let shape = ScaleShape::of(opts.size);

    tracer.enter("setup");
    let t = Instant::now();
    let mut run = ScaleRun::new(shape, opts.seed, opts.arm.config(), tracer);
    let setup_s = t.elapsed().as_secs_f64();
    tracer.exit();

    let telem0: MetricsRegistry = run.engine.telemetry();
    tracer.enter("measure");
    let region = Instant::now();
    let mut mark = region;
    let mut pieces_s: Vec<f64> = Vec::new();
    loop {
        let more = run.step(tracer);
        let now = Instant::now();
        pieces_s.push((now - mark).as_secs_f64());
        mark = now;
        if !more {
            break;
        }
    }
    let wall_s = (mark - region).as_secs_f64();
    tracer.exit();

    let window = run.engine.telemetry().delta(&telem0);
    let flows = u64::from(shape.flows);
    let mut problems = Vec::new();
    for &i in run.stuck.iter().take(8) {
        problems.push(format!("flow {i} short of its target at the cycle budget"));
    }
    if run.stuck.len() > 8 {
        problems.push(format!("... and {} more stuck flows", run.stuck.len() - 8));
    }
    let counts = {
        let mut c = engine_counts(&window, 1);
        // No host model and no link in this workload, by construction.
        for name in [
            "link.impairment_events",
            "host.sends",
            "host.completions",
            "host.eagain",
            "host.pcie_h2d_bytes",
            "host.pcie_d2h_bytes",
            "host.pcie_refusals",
            "host.cpu_busy_share",
        ] {
            c.insert(name, 0.0);
        }
        c
    };
    if counts["fpc.rmw_stall_cycles"] != 0.0 {
        problems.push(format!(
            "fpc.rmw_stall_cycles = {}",
            counts["fpc.rmw_stall_cycles"]
        ));
    }
    let mut advisories = Vec::new();
    let (alarms, named, flight_p99) =
        armed_findings(&[("engine", &run.engine)], &mut problems, &mut advisories);
    let mut failed_flows = run.stuck.clone();
    failed_flows.extend(named);
    failed_flows.sort_unstable();
    failed_flows.dedup();
    let failed = charge_failures(failed_flows.len() as u64, !problems.is_empty(), flows);

    let active_ns = run.active_cycles * CYCLE_NS;
    let done_waves = run.latency_cycles.len() as u64;
    run.latency_cycles.sort_unstable();
    let us = |cycles: u64| (cycles * CYCLE_NS) as f64 / 1e3;

    let mut h = Fnv::default();
    digest_telemetry(&mut h, &window);
    for v in [run.active_cycles, run.engine.cycles(), done_waves] {
        h.u64(v);
    }
    for &c in &run.latency_cycles {
        h.u64(c);
    }

    Rep {
        setup_s,
        wall_s,
        pieces_s,
        driver_s: run.driver_s,
        sim: Sim {
            goodput_gbps: f4t_sim::gbps(
                (flows - run.stuck.len() as u64) * ScaleRun::bytes_per_flow(),
                active_ns,
            ),
            requests_mrps: f4t_sim::mops(done_waves, active_ns),
            latency_p50_us: us(percentile_sorted(&run.latency_cycles, 50.0)),
            latency_p99_us: us(percentile_sorted(&run.latency_cycles, 99.0)),
            latency_samples: done_waves,
            cycles_active: run.active_cycles,
            cycles_timed: run.engine.cycles(),
            digest: h.0,
        },
        attempted: flows,
        failed,
        problems,
        advisories,
        counts,
        flight_p99,
        alarms,
    }
}
