//! Standalone host-time drivers: each feeds one module a synthetic
//! stream through its public `new`/`push*`/`tick` entry points, at the
//! flow count and segment size of the workload being reported, and
//! returns nanoseconds per unit of work. These are the `ns` rows of the
//! layer table.

use super::micro::Micro;
use crate::workloads::scale::tuple_for;
use crate::workloads::system::churn_impairments;
use f4t_core::fpc::{Fpc, FpcOutput, ScanPolicy};
use f4t_core::fpu::{process, EventView};
use f4t_core::memory_manager::{MemoryManager, MmOutput};
use f4t_core::rx_parser::{RxOutput, RxParser};
use f4t_core::scheduler::Scheduler;
use f4t_core::timers::TimerWheel;
use f4t_core::{
    Engine, EngineConfig, EventKind, FlowEvent, PacketGenerator, TimeoutKind, TxRequest,
};
use f4t_host::{Completion, F4tLib};
use f4t_mem::{DramKind, DramModel, TcbCache};
use f4t_sim::{Fifo, FlowSlab, SlabQueue};
use f4t_system::link::A_TO_B;
use f4t_system::{DuplexLink, Node};
use f4t_tcp::{
    CcAlgorithm, FlowId, FlowTable, FourTuple, NewReno, ReassemblyTracker, Segment, SeqNum, Tcb,
    TcpFlags, MSS, TCP_BUFFER,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Where on the flow-count / segment-size plane a workload sits.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Concurrent flows.
    pub flows: usize,
    /// Payload bytes of a data segment the workload transmits.
    pub tx_payload: u32,
    /// Payload bytes of a segment it receives (0: pure ACKs).
    pub rx_payload: u32,
}

fn tuple(i: usize) -> FourTuple {
    tuple_for(i as u32)
}

fn established(id: u32) -> Tcb {
    let mut t = Tcb::established(FlowId(id), tuple(id as usize), SeqNum(0));
    CcAlgorithm::NewReno.instance().init(&mut t);
    t
}

/// An engine holding `flows` established flows, run until their TCBs
/// have settled into FPC slots and DRAM.
fn engine_with_flows(flows: usize) -> Engine {
    let mut e = Engine::new(EngineConfig {
        max_flows: flows.max(1),
        ..EngineConfig::reference()
    });
    for i in 0..flows {
        e.open_established(tuple(i), SeqNum(0))
            .expect("max_flows sized to the point");
    }
    e.run(flows as u64 + 4_096);
    e
}

fn engine(m: &Micro, p: Point, out: &mut BTreeMap<&'static str, f64>) {
    let mut e = engine_with_flows(p.flows);
    out.insert(
        "engine.host_ns_per_tick_idle",
        m.bench(|| {
            e.tick();
            e.cycles()
        }),
    );
    let mut e = engine_with_flows(p.flows);
    let mut req = SeqNum(0);
    out.insert(
        "engine.host_ns_per_tick_busy",
        m.bench(|| {
            req = req.add(128);
            e.push_host(FlowId(0), EventKind::SendReq { req });
            e.tick();
            while e.pop_tx().is_some() {}
            while e.pop_notification().is_some() {}
            e.cycles()
        }),
    );
    out.insert("sim.telemetry_snapshot_ns", m.bench(|| e.telemetry().len()));
    // Opening is one-shot work: time whole batches of opens on fresh
    // engines (construction untimed) and keep the best.
    let opens = p.flows.clamp(256, 65_536);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut e = Engine::new(EngineConfig {
            max_flows: opens,
            ..EngineConfig::reference()
        });
        let t = Instant::now();
        for i in 0..opens {
            black_box(e.open_established(tuple(i), SeqNum(0)));
        }
        best = best.min(t.elapsed().as_nanos() as f64 / opens as f64);
    }
    out.insert("engine.host_ns_per_flow_open", best);
}

fn rx_parser(m: &Micro, p: Point, out: &mut BTreeMap<&'static str, f64>) {
    /// Segments offered per tick: under the parser's 5.15/tick budget.
    const PER_TICK: usize = 4;
    for (name, ooo) in [
        ("rx_parser.host_ns_per_segment", false),
        ("rx_parser.host_ns_per_segment_ooo", true),
    ] {
        let n = p.flows.max(1);
        let mut rx = RxParser::new(n.max(16), 4);
        let peers: Vec<FourTuple> = (0..n).map(|i| tuple(i).reversed()).collect();
        for i in 0..n {
            rx.register_flow(tuple(i), FlowId(i as u32), SeqNum(0))
                .expect("table sized to n");
        }
        let mut next = vec![SeqNum(0); n];
        let mut filled_gap = vec![false; n];
        let mut acked = 0u32;
        // Out-of-order needs payload to reorder; pure-ACK workloads
        // reorder MSS segments instead.
        let len = if ooo && p.rx_payload == 0 {
            MSS
        } else {
            p.rx_payload
        };
        let mut rx_out = RxOutput::default();
        let (mut i, mut now) = (0usize, 0u64);
        let ns = m.bench(|| {
            for _ in 0..PER_TICK {
                i = (i + 1) % n;
                let seg = if len == 0 {
                    acked = acked.wrapping_add(1);
                    Segment::pure_ack(peers[i], SeqNum(0), SeqNum(acked), TCP_BUFFER)
                } else if !ooo {
                    let seg = Segment::data(peers[i], next[i], SeqNum(0), len);
                    next[i] = next[i].add(len);
                    seg
                } else if !filled_gap[i] {
                    // Second segment first: lands out of order.
                    filled_gap[i] = true;
                    Segment::data(peers[i], next[i].add(len), SeqNum(0), len)
                } else {
                    filled_gap[i] = false;
                    let seg = Segment::data(peers[i], next[i], SeqNum(0), len);
                    next[i] = next[i].add(2 * len);
                    seg
                };
                rx.push_segment(seg);
            }
            rx_out.events.clear();
            rx_out.new_connections.clear();
            now += 4;
            rx.tick(now, &mut rx_out);
            rx_out.events.len()
        });
        out.insert(name, ns / PER_TICK as f64);
    }
}

/// Cost of one `Instant::now()` + `elapsed()` pair, to take out of
/// regions timed from inside a loop.
fn timer_pair_ns() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let outer = Instant::now();
        let mut acc = 0u128;
        for _ in 0..10_000 {
            let t = Instant::now();
            acc += black_box(t.elapsed().as_nanos());
        }
        black_box(acc);
        best = best.min(outer.elapsed().as_nanos() as f64 / 10_000.0);
    }
    best
}

/// Drives scheduler + FPCs + memory manager together the way the engine
/// does, timing only the scheduler's own calls. `flows` above the 1024
/// FPC slots force DRAM residency, so round-robin events migrate.
/// Returns (scheduler ns, events routed, migrations).
fn scheduler_trio(flows: usize, cycles: u64, timer_ns: f64) -> (f64, u64, u64) {
    let mut sched = Scheduler::new(flows.max(16), 4, true);
    let mut fpcs: Vec<Fpc> = (0..8)
        .map(|i| {
            Fpc::new(
                i as u8,
                128,
                Arc::new(NewReno),
                None,
                MSS,
                ScanPolicy::SkipIdle,
            )
        })
        .collect();
    let mut mm = MemoryManager::new(DramKind::Hbm, 512);
    let mut fpc_out = FpcOutput::default();
    let mut mm_out = MmOutput::default();
    let mut evicted: Vec<Tcb> = Vec::new();
    let mut installed: Vec<(FlowId, u8)> = Vec::new();
    let mut sched_ns = 0.0;
    let mut timed_regions = 0u64;
    let mut cycle = 0u64;
    let mut placed = 0usize;
    let mut next_flow = 0usize;
    let mut req = vec![SeqNum(0); flows];
    let mut start = (0u64, 0u64);
    // Placement phase (untimed), then the measured phase.
    let warm = flows as u64 / 4 + 2_000;
    while cycle < warm + cycles {
        let measuring = cycle >= warm;
        if cycle == warm {
            let s = sched.stats();
            start = (s.events_in, s.migrations);
            sched_ns = 0.0;
            timed_regions = 0;
        }
        while placed < flows && placed < (cycle as usize + 1) * 4 {
            sched.place_new_flow(established(placed as u32), &mut fpcs, &mut mm, cycle, None);
            placed += 1;
        }
        let t = Instant::now();
        if measuring {
            for _ in 0..2 {
                if !sched.can_accept() {
                    break;
                }
                next_flow = (next_flow + 1) % flows;
                req[next_flow] = req[next_flow].add(64);
                let kind = EventKind::SendReq {
                    req: req[next_flow],
                };
                sched.push_event_at(
                    FlowEvent::new(FlowId(next_flow as u32), kind, cycle * 4),
                    cycle,
                );
            }
        }
        sched.tick(cycle, &mut fpcs, &mut mm);
        sched_ns += t.elapsed().as_nanos() as f64;
        timed_regions += 1;

        for f in &mut fpcs {
            fpc_out.tx.clear();
            fpc_out.outcomes.clear();
            f.tick(cycle, cycle * 4, true, &mut fpc_out);
            evicted.append(&mut fpc_out.evicted);
            installed.extend(fpc_out.installed.drain(..).map(|flow| (flow, f.id())));
        }
        mm_out.bounced.clear();
        mm.tick(&mut mm_out);

        let t = Instant::now();
        for tcb in evicted.drain(..) {
            sched.on_evicted(tcb, &mut fpcs, &mut mm);
        }
        for (flow, id) in installed.drain(..) {
            sched.on_installed(flow, id, cycle, None, None);
        }
        for flow in mm_out.swap_in_requests.drain(..) {
            sched.request_swap_in_at(flow, cycle);
        }
        for flow in mm_out.evict_done.drain(..) {
            sched.on_evict_done(flow, cycle, None);
        }
        sched_ns += t.elapsed().as_nanos() as f64;
        timed_regions += 1;
        cycle += 1;
    }
    let s = sched.stats();
    let ns = (sched_ns - timed_regions as f64 * timer_ns).max(0.0);
    (ns, s.events_in - start.0, s.migrations - start.1)
}

fn scheduler(m: &Micro, out: &mut BTreeMap<&'static str, f64>) {
    let timer_ns = timer_pair_ns();
    let cycles = m.fixed_cycles();
    let best = |flows: usize, per: fn((f64, u64, u64)) -> f64| {
        (0..3)
            .map(|_| per(scheduler_trio(flows, cycles, timer_ns)))
            .fold(f64::INFINITY, f64::min)
    };
    // 512 flows all fit in FPC slots: pure routing, no migration.
    let per_event = best(512, |(ns, events, _)| ns / events.max(1) as f64);
    // 4096 flows over 1024 slots: nearly every event finds its flow in
    // DRAM and pulls it in, evicting another.
    let per_migration = best(4_096, |(ns, _, migrations)| ns / migrations.max(1) as f64);
    out.insert("scheduler.host_ns_per_event", per_event);
    out.insert("scheduler.host_ns_per_migration", per_migration);
}

fn fpc_and_fpu(m: &Micro, p: Point, out: &mut BTreeMap<&'static str, f64>) {
    // The workload's flows spread over eight FPCs of 128 slots.
    let residents = p.flows.div_ceil(8).clamp(1, 128) as u32;
    for (name, saturated) in [
        ("fpc.host_ns_per_tick_idle", false),
        ("fpc.host_ns_per_tick_saturated", true),
    ] {
        let slots = 128;
        let mut fpc = Fpc::new(0, slots, Arc::new(NewReno), None, MSS, ScanPolicy::SkipIdle);
        let mut fpc_out = FpcOutput::default();
        let mut cycle = 0u64;
        let mut tick = |fpc: &mut Fpc| {
            fpc_out.tx.clear();
            fpc_out.outcomes.clear();
            fpc_out.evicted.clear();
            fpc_out.installed.clear();
            fpc.tick(cycle, cycle * 4, true, &mut fpc_out);
            cycle += 1;
            fpc_out.tx.len()
        };
        for i in 0..residents {
            let mut t = established(i);
            if saturated {
                // Always sendable: every dispatch produces a segment.
                t.snd_wnd = u32::MAX / 2;
                t.cwnd = u32::MAX / 2;
                t.req = t.req.add(1 << 30);
            }
            while !fpc.push_tcb(t, EventView::default()) {
                tick(&mut fpc);
            }
        }
        for _ in 0..64 {
            tick(&mut fpc);
        }
        out.insert(name, m.bench(|| tick(&mut fpc)));
    }
    let cc = CcAlgorithm::NewReno.instance();
    let mut tcb = established(1);
    let mut now = 0u64;
    out.insert(
        "fpu.host_ns_per_process",
        m.bench(|| {
            now += 100;
            let ev = EventView {
                req: Some(tcb.snd_nxt.add(512)),
                ack: Some(tcb.snd_una.add(tcb.flight_size().min(MSS))),
                ..Default::default()
            };
            process(cc, &mut tcb, &ev, now, MSS)
        }),
    );
}

fn memory_manager(m: &Micro, p: Point, out: &mut BTreeMap<&'static str, f64>) {
    let resident = p.flows.clamp(1_024, 65_536) as u32;
    let mut mm = MemoryManager::new(DramKind::Hbm, 512);
    for i in 0..resident {
        mm.accept_eviction(established(i));
    }
    let mut mm_out = MmOutput::default();
    let mut drain = |mm: &mut MemoryManager| {
        mm_out.swap_in_requests.clear();
        mm_out.evict_done.clear();
        mm_out.bounced.clear();
        mm.tick(&mut mm_out);
    };
    for _ in 0..resident as usize + 4_096 {
        drain(&mut mm);
    }
    let (mut i, mut ptr) = (0u32, 0u32);
    out.insert(
        "memory_manager.host_ns_per_event",
        m.bench(|| {
            // A stride co-prime with the 512 cache sets spreads accesses.
            i = (i + 997) % resident;
            ptr += 16;
            if mm.can_accept_event() {
                mm.push_event(FlowEvent::new(
                    FlowId(i),
                    EventKind::RecvConsumed {
                        consumed: SeqNum(ptr),
                    },
                    0,
                ));
            }
            drain(&mut mm);
            mm.events_handled()
        }),
    );
}

fn packet_gen(m: &Micro, p: Point, out: &mut BTreeMap<&'static str, f64>) {
    const PER_TICK: usize = 4;
    let mut pg = PacketGenerator::new(MSS, 4);
    let mut segs: Vec<Segment> = Vec::new();
    let mut seq = SeqNum(0);
    let mut now = 0u64;
    let len = p.tx_payload.clamp(1, MSS);
    let ns = m.bench(|| {
        for _ in 0..PER_TICK {
            if !pg.can_accept() {
                break;
            }
            pg.push(TxRequest {
                flow: FlowId(0),
                tuple: tuple(0),
                seq,
                len,
                ack: SeqNum(0),
                wnd: TCP_BUFFER,
                flags: TcpFlags::ACK,
                retransmit: false,
                ts_ecr: 0,
            });
            seq = seq.add(len);
        }
        segs.clear();
        now += 4;
        pg.tick(now, &mut segs);
        segs.len()
    });
    out.insert("packet_gen.host_ns_per_segment", ns / PER_TICK as f64);
}

fn timers(m: &Micro, p: Point, out: &mut BTreeMap<&'static str, f64>) {
    let flows = p.flows.max(1) as u32;
    let mut wheel = TimerWheel::new();
    let (mut i, mut now) = (0u32, 0u64);
    out.insert(
        "timers.host_ns_per_arm_disarm",
        m.bench(|| {
            // Each FPU writeback moves the flow's RTO; the engine polls
            // `expired` every tick, which also retires stale heap entries.
            i = (i + 1) % flows;
            now += 1_000;
            wheel.arm(FlowId(i), TimeoutKind::Rto, now + 100_000);
            wheel.disarm(FlowId((i + flows / 2) % flows), TimeoutKind::Rto);
            wheel.expired(now).len()
        }),
    );
}

fn link(m: &Micro, p: Point, out: &mut BTreeMap<&'static str, f64>) {
    for (name, impaired) in [
        ("link.host_ns_per_segment", false),
        ("link.host_ns_per_segment_impaired", true),
    ] {
        let mut link = DuplexLink::hundred_gig();
        if impaired {
            link.set_impairments(churn_impairments(11));
        }
        let len = p.tx_payload.clamp(1, MSS);
        let mut seq = SeqNum(0);
        let mut now = 0u64;
        let mut carried = 0u64;
        // One iteration is one system tick of link work; the per-segment
        // cost is total time over segments delivered, so the serialization
        // ticks between two segments are charged to the segment.
        let per_tick = m.bench(|| {
            link.tick();
            let seg = Segment::data(tuple(0), seq, SeqNum(0), len);
            if link.can_send(A_TO_B, seg.wire_len()) {
                link.send(A_TO_B, seg, now);
                seq = seq.add(len);
            }
            while link.deliver(A_TO_B, now).is_some() {
                carried += 1;
            }
            now += 4;
            carried
        });
        let ticks_per_segment = now as f64 / 4.0 / carried.max(1) as f64;
        out.insert(name, per_tick * ticks_per_segment);
    }
}

fn host(m: &Micro, p: Point, out: &mut BTreeMap<&'static str, f64>) {
    let flows = p.flows.clamp(1, 65_536) as u32;
    let len = p.tx_payload.clamp(1, MSS);
    let mut lib = F4tLib::new();
    for i in 0..flows {
        lib.register(FlowId(i), SeqNum(0), true);
    }
    let mut i = 0u32;
    out.insert(
        "host.host_ns_per_send",
        m.bench(|| {
            // send() → the node DMAs the command → the ACK completion
            // frees the buffer: one request's full library round.
            i = (i + 1) % flows;
            let req = lib.send(FlowId(i), len);
            lib.commands_pop();
            if let Ok(upto) = req {
                lib.on_completion(Completion::Acked {
                    flow: FlowId(i),
                    upto,
                });
            }
            lib.sends()
        }),
    );
    let mut upto = vec![SeqNum(0); flows as usize];
    out.insert(
        "host.host_ns_per_completion",
        m.bench(|| {
            // A receive completion and the recv() that consumes it.
            i = (i + 1) % flows;
            upto[i as usize] = upto[i as usize].add(len);
            lib.on_completion(Completion::Received {
                flow: FlowId(i),
                upto: upto[i as usize],
            });
            let took = lib.recv(FlowId(i), len);
            lib.commands_pop();
            took
        }),
    );
    let mut node = Node::new(4, EngineConfig::reference());
    let mut now = 0u64;
    out.insert(
        "host.node_tick_idle_ns",
        m.bench(|| {
            now += 4;
            node.tick(now);
            now
        }),
    );
}

fn tcp(m: &Micro, p: Point, out: &mut BTreeMap<&'static str, f64>) {
    let n = p.flows.clamp(1_024, 65_536);
    let mut table = FlowTable::with_capacity(n);
    let tuples: Vec<FourTuple> = (0..n).map(tuple).collect();
    for (i, t) in tuples.iter().enumerate() {
        table
            .insert(*t, FlowId(i as u32))
            .expect("table sized to n");
    }
    let mut i = 0usize;
    out.insert(
        "tcp.cuckoo_lookup_ns",
        m.bench(|| {
            i = (i + 997) % n;
            table.lookup(&tuples[i])
        }),
    );
    out.insert(
        "tcp.cuckoo_insert_remove_ns",
        m.bench(|| {
            i = (i + 997) % n;
            let id = table.remove(&tuples[i]);
            table
                .insert(tuples[i], id.unwrap_or(FlowId(i as u32)))
                .is_ok()
        }),
    );
    let len = if p.rx_payload == 0 { MSS } else { p.rx_payload };
    let mut r = ReassemblyTracker::new(SeqNum(0), TCP_BUFFER);
    let mut seq = SeqNum(0);
    out.insert(
        "tcp.reassembly_in_order_ns",
        m.bench(|| {
            let res = r.on_segment(seq, len);
            seq = seq.add(len);
            res
        }),
    );
    let mut r = ReassemblyTracker::new(SeqNum(0), TCP_BUFFER);
    let mut seq = SeqNum(0);
    let pair = m.bench(|| {
        r.on_segment(seq.add(len), len);
        let res = r.on_segment(seq, len);
        seq = seq.add(2 * len);
        res
    });
    out.insert("tcp.reassembly_ooo_ns", pair / 2.0);
    let cc = CcAlgorithm::NewReno.instance();
    let mut tcb = established(1);
    tcb.ssthresh = 2 * MSS;
    let mut now = 0u64;
    out.insert(
        "tcp.cc_on_ack_ns",
        m.bench(|| {
            now += 2_000;
            tcb.snd_una = tcb.snd_una.add(MSS);
            tcb.snd_nxt = tcb.snd_una.add(MSS);
            cc.on_ack(&mut tcb, MSS, Some(100_000), now);
            tcb.cwnd
        }),
    );
}

fn substrate(m: &Micro, p: Point, out: &mut BTreeMap<&'static str, f64>) {
    let n = p.flows.clamp(1_024, 65_536) as u32;
    let mut q: SlabQueue<u64> = SlabQueue::with_capacity(16);
    for v in 0..8 {
        q.push_back(v);
    }
    let mut v = 0u64;
    out.insert(
        "sim.slab_queue_push_pop_ns",
        m.bench(|| {
            v += 1;
            q.push_back(v);
            q.pop_front()
        }),
    );
    let mut slab: FlowSlab<u64> = FlowSlab::with_capacity(n as usize);
    for id in 0..n {
        slab.insert(id, u64::from(id));
    }
    let mut i = 0u32;
    out.insert(
        "sim.flowslab_get_ns",
        m.bench(|| {
            i = (i + 997) % n;
            slab.get(i).copied()
        }),
    );
    let mut fifo: Fifo<u64> = Fifo::new(64);
    for v in 0..8 {
        let _ = fifo.push(v);
    }
    out.insert(
        "sim.fifo_push_pop_ns",
        m.bench(|| {
            v += 1;
            let _ = fifo.push(v);
            fifo.pop()
        }),
    );
    let mut dram = DramModel::new(DramKind::Hbm);
    out.insert(
        "mem.dram_tick_ns",
        m.bench(|| {
            dram.tick();
            dram.try_access(128)
        }),
    );
    let mut cache = TcbCache::new(512);
    out.insert(
        "mem.tcb_cache_lookup_ns",
        m.bench(|| {
            i = (i + 997) % n;
            let access = cache.probe(FlowId(i));
            if access != f4t_mem::CacheAccess::Hit {
                cache.fill(established(i));
            }
            access
        }),
    );
}

/// Runs every standalone driver at `p`.
pub fn run(m: &Micro, p: Point) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    engine(m, p, &mut out);
    rx_parser(m, p, &mut out);
    scheduler(m, &mut out);
    fpc_and_fpu(m, p, &mut out);
    memory_manager(m, p, &mut out);
    packet_gen(m, p, &mut out);
    timers(m, p, &mut out);
    link(m, p, &mut out);
    host(m, p, &mut out);
    tcp(m, p, &mut out);
    substrate(m, p, &mut out);
    out
}
