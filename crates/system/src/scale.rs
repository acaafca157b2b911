//! The ideal-peer scale driver (paper §4.3, Fig. 13): thousands of
//! established flows on a bare [`Engine`], each sending one request
//! against a peer that cumulatively ACKs whatever the engine emits.
//! With 1024 SRAM slots almost every flow lives in DRAM, so every send
//! is a SRAM<->DRAM migration round trip.
//!
//! A [`ScaleShard`] owns one engine and one contiguous slice of the flow
//! range and advances in [`RENDEZVOUS_QUANTUM`]-cycle pump rounds through
//! [`step`](ScaleShard::step) — the step function
//! [`run_all`](ScaleShard::run_all) hands to [`ParallelRunner::run_rounds`].
//! Shards never exchange anything, so a run is a pure function of the
//! shard set: one shard is the single-engine run, N shards on any pool
//! size produce the same per-shard state.

use crate::link::PCAP_MAX_PACKETS;
use f4t_core::{Engine, EngineConfig, EventKind, ParallelRunner, RENDEZVOUS_QUANTUM};
use f4t_tcp::pcap::PcapWriter;
use f4t_tcp::{FlowId, FourTuple, MacAddr, Segment, SeqNum, TCP_BUFFER};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::ops::Range;

/// MAC synthesized for the ideal peer (it has no engine of its own).
const PEER_MAC: MacAddr = MacAddr([0x02, 0xf4, 0x74, 0x00, 0x00, 0xee]);
/// Drain pumps between completion checks: scanning every TCB is far
/// more expensive than a pump.
const COMPLETION_CHECK_PUMPS: u64 = 256;
/// Every flow starts at sequence number zero.
const ISN: SeqNum = SeqNum(0);

/// 4-tuple of global flow index `i`: 32768 client ports per client IP,
/// so 64K flows fit in two IPs.
fn tuple_for(i: usize) -> FourTuple {
    let ip = Ipv4Addr::new(10, 0, (i / 32_768) as u8, 1);
    FourTuple::new(ip, 1024 + (i % 32_768) as u16, Ipv4Addr::new(10, 0, 0, 2), 80)
}

/// One engine, its slice of the flow range and its ideal peer.
///
/// The run has three phases: *issue* (one send request per flow,
/// pumping whenever the doorbell backpressures), *drain* (pump until
/// every cumulative ACK pointer reaches its request pointer) and an
/// *idle tail* of simulated time after completion, where fast-forward
/// dominates. A shard that exhausts its cycle budget (20 000 cycles per
/// flow + 10 M) before completing is [`stuck`](Self::stuck).
#[derive(Debug)]
pub struct ScaleShard {
    /// The shard's engine.
    pub engine: Engine,
    first: usize,
    flows: Vec<FlowId>,
    by_tuple: HashMap<FourTuple, usize>,
    target: SeqNum,
    /// ACKs owed to the engine, ratcheted to the highest sequence seen
    /// per flow and retried until the RX intake accepts them.
    pending_ack: Vec<Option<SeqNum>>,
    issued: usize,
    drain_pumps: u64,
    completed_round: Option<u64>,
    active_cycles: u64,
    idle_left: u64,
    budget: u64,
    stuck: bool,
    pcap: Option<PcapWriter<Vec<u8>>>,
}

impl ScaleShard {
    /// Builds an engine sized for `range.len()` flows and opens global
    /// flows `range` on it, each to send `bytes`; `idle_cycles` is the
    /// post-completion tail. `None` when the flow table refuses a flow.
    pub fn new(
        mut cfg: EngineConfig,
        range: Range<usize>,
        bytes: u32,
        idle_cycles: u64,
    ) -> Option<ScaleShard> {
        let n = range.len();
        cfg.max_flows = n;
        let mut engine = Engine::new(cfg);
        let mut flows = Vec::with_capacity(n);
        let mut by_tuple = HashMap::with_capacity(n);
        for i in 0..n {
            let t = tuple_for(range.start + i);
            flows.push(engine.open_established(t, ISN)?);
            by_tuple.insert(t, i);
        }
        Some(ScaleShard {
            engine,
            first: range.start,
            flows,
            by_tuple,
            target: ISN.add(bytes),
            pending_ack: vec![None; n],
            issued: 0,
            drain_pumps: 0,
            completed_round: None,
            active_cycles: 0,
            idle_left: idle_cycles,
            budget: n as u64 * 20_000 + 10_000_000,
            stuck: false,
            pcap: None,
        })
    }

    /// Splits `total_flows` into `shards` contiguous ranges, one
    /// [`ScaleShard`] each (the shard count is part of the workload's
    /// identity; the worker-pool size is not).
    pub fn split(
        cfg: &EngineConfig,
        total_flows: usize,
        shards: usize,
        bytes: u32,
        idle_cycles: u64,
    ) -> Option<Vec<ScaleShard>> {
        (0..shards)
            .map(|s| {
                let range = total_flows * s / shards..total_flows * (s + 1) / shards;
                ScaleShard::new(cfg.clone(), range, bytes, idle_cycles)
            })
            .collect()
    }

    /// Runs `shards` to the end of their idle tails on a pool of
    /// `threads` workers (one shard, or a pool of 1, runs inline) and
    /// hands them back in the same order for merging.
    pub fn run_all(shards: Vec<ScaleShard>, threads: usize) -> Vec<ScaleShard> {
        let mut runner = ParallelRunner::new(shards);
        runner.run_rounds(threads, ScaleShard::step);
        runner.into_shards()
    }

    /// Starts capturing the engine's TX segments as a libpcap stream in
    /// memory (payloads truncated at `payload_cap`, capped at 10k
    /// packets like [`F4tSystem::enable_pcap`](crate::F4tSystem::enable_pcap)).
    pub fn enable_pcap(&mut self, payload_cap: u32) {
        // Writing into a Vec cannot fail.
        self.pcap = PcapWriter::new(Vec::new(), payload_cap).ok();
    }

    /// Finishes the capture: `(packets, pcap bytes)`. `None` when capture
    /// was never enabled.
    pub fn take_pcap(&mut self) -> Option<(u64, Vec<u8>)> {
        let w = self.pcap.take()?;
        let packets = w.packets();
        w.finish().ok().map(|bytes| (packets, bytes))
    }

    /// One rendezvous quantum of simulated time: run the engine, harvest
    /// TX, synthesize the ideal peer's cumulative ACKs.
    fn pump(&mut self) {
        let e = &mut self.engine;
        e.run(RENDEZVOUS_QUANTUM);
        while let Some(seg) = e.pop_tx() {
            if let Some(w) = &mut self.pcap {
                if w.packets() < PCAP_MAX_PACKETS {
                    let _ = w.record(e.now_ns(), &seg, e.mac, PEER_MAC);
                }
            }
            if seg.has_payload() {
                // f4tlint: allow(tick_path_scan): the ideal peer's own
                // 4-tuple → flow lookup, once per data segment it ACKs (it
                // has no flow id to index by); no node tick runs this — the
                // call graph reaches `step` by name only.
                let slot = &mut self.pending_ack[self.by_tuple[&seg.tuple]];
                let end = seg.seq_end();
                *slot = Some(slot.map_or(end, |h| h.max_seq(end)));
            }
        }
        for (i, slot) in self.pending_ack.iter_mut().enumerate() {
            let Some(h) = *slot else { continue };
            let ack = Segment::pure_ack(tuple_for(self.first + i).reversed(), ISN, h, TCP_BUFFER);
            if e.push_rx(ack) {
                *slot = None;
            }
        }
        while e.pop_notification().is_some() {}
    }

    /// Advances the shard by one round; `false` once it has nothing left
    /// to do (finished its idle tail, or stuck). Completion is checked on
    /// every 256th drain pump *of this shard*, so a shard's schedule does
    /// not depend on which other shards run beside it.
    pub fn step(&mut self, round: u64) -> bool {
        if self.stuck {
            return false;
        }
        if self.issued < self.flows.len() {
            while self.issued < self.flows.len()
                && self
                    .engine
                    .push_host(self.flows[self.issued], EventKind::SendReq { req: self.target })
            {
                self.issued += 1;
            }
            if self.issued < self.flows.len() {
                self.pump();
                self.stuck = self.engine.cycles() >= self.budget;
                return !self.stuck;
            }
        }
        if self.completed_round.is_none() {
            self.pump();
            self.drain_pumps += 1;
            if self.drain_pumps.is_multiple_of(COMPLETION_CHECK_PUMPS) {
                let (e, target) = (&self.engine, self.target);
                if self.flows.iter().all(|&f| e.peek_tcb(f).is_some_and(|t| t.snd_una == target)) {
                    self.completed_round = Some(round);
                    self.active_cycles = e.cycles();
                } else {
                    self.stuck = e.cycles() >= self.budget;
                }
            }
            return !self.stuck;
        }
        self.engine.run(std::mem::take(&mut self.idle_left));
        false
    }

    /// Flows this shard owns.
    pub fn flows(&self) -> usize {
        self.flows.len()
    }

    /// Whether every flow's cumulative ACK pointer reached its request.
    pub fn completed(&self) -> bool {
        self.completed_round.is_some()
    }

    /// The round whose completion check first passed.
    pub fn completed_round(&self) -> Option<u64> {
        self.completed_round
    }

    /// Whether the shard gave up on its cycle budget before completing.
    pub fn stuck(&self) -> bool {
        self.stuck
    }

    /// Engine cycles at completion (before the idle tail); 0 until then.
    pub fn active_cycles(&self) -> u64 {
        self.active_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    /// Per-shard (cycles, journal digest, completion round) after a full
    /// run of two uneven shards on a pool of `pool` workers.
    fn run(pool: usize) -> Vec<(u64, u64, Option<u64>)> {
        let cfg = EngineConfig {
            num_fpcs: 2,
            lut_groups: 1,
            flows_per_fpc: 8,
            check: true,
            journal: true,
            journal_sample: 1,
            ..EngineConfig::reference()
        };
        let shards = ScaleShard::split(&cfg, 101, 2, 700, 10_000).expect("flow table holds 101 flows");
        assert_eq!(shards.iter().map(ScaleShard::flows).collect::<Vec<_>>(), [50, 51]);
        ScaleShard::run_all(shards, pool)
            .iter()
            .map(|s| {
                assert!(s.completed() && !s.stuck(), "shard did not complete");
                assert_eq!(s.engine.check_total_violations(), 0);
                assert_eq!(s.engine.cycles(), s.active_cycles() + 10_000, "idle tail ran once");
                (s.engine.cycles(), s.engine.journal_digest(), s.completed_round())
            })
            .collect()
    }

    #[test]
    fn pool_size_does_not_change_per_shard_results() {
        let inline = run(1);
        assert!(inline[0].1 != inline[1].1, "shards must do distinct work");
        assert_eq!(run(2), inline);
    }
}
