//! The four workloads and what one repetition of each returns.
//!
//! Every repetition builds a fresh system, so the simulated side of a
//! rep is a pure function of `(workload, seed, quick)`: the `sim_*`
//! numbers and `digest` must come out bit-identical on every rep, with
//! any recorder armed, and with the span recorder on.

pub mod scale;
pub mod system;

use crate::spans::Tracer;
use f4t_core::{Engine, EngineConfig};
use f4t_sim::watchdog::AlarmKind;
use f4t_sim::{FlightStage, MetricValue, MetricsRegistry};
use std::collections::BTreeMap;

/// Engine-core period (250 MHz).
pub const CYCLE_NS: u64 = 4;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `F4tSystem::bulk(2 cores, 128 B)` on a clean 100 G link.
    Bulk128,
    /// `F4tSystem::echo(8 cores, 4096 flows, 128 B)`.
    Echo4k,
    /// Bare `Engine`, 65 536 flows against the benchmark's ideal peer.
    Scale64k,
    /// `F4tSystem::churnstorm(4 cores, 1024 live)` over a reordering,
    /// duplicating link.
    ChurnStorm,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Bulk128,
        Workload::Echo4k,
        Workload::Scale64k,
        Workload::ChurnStorm,
    ];

    /// The name used on the command line and in every record.
    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].name
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which recorders a rep arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// None: the configuration every end-to-end number comes from.
    Off,
    /// FtVerify checker + FtFlight + FtJournal + watchdog + FtPulse.
    All,
    /// FtVerify checker only.
    Check,
    /// FtFlight only.
    Flight,
    /// FtJournal only.
    Journal,
    /// FtPulse only.
    Pulse,
}

impl Arm {
    /// The reference engine configuration with this arming applied.
    pub fn config(self) -> EngineConfig {
        let mut cfg = EngineConfig::reference();
        let all = self == Arm::All;
        cfg.check = all || self == Arm::Check;
        cfg.flight = all || self == Arm::Flight;
        cfg.journal = all || self == Arm::Journal;
        cfg.watchdog = all;
        cfg.pulse = all || self == Arm::Pulse;
        cfg
    }
}

/// How much work one rep does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The committed size every comparable record uses.
    Full,
    /// Quarter-length windows (`scale-64k`: a quarter of the flows and
    /// tail): `--quick` smoke runs, never comparable with full records.
    Quarter,
    /// The size of the recorder-arming reps: a quarter for the system
    /// workloads, a sixteenth for `scale-64k`, whose checker audit walks
    /// every table every 64 cycles and costs in proportion to the flows.
    Mini,
}

/// How one rep is to be run.
#[derive(Debug, Clone, Copy)]
pub struct RepOpts {
    /// Workload seed (tuple/issue permutation, impairment streams).
    pub seed: u64,
    /// Work per rep.
    pub size: Size,
    /// Recorder arming.
    pub arm: Arm,
}

/// The simulated-clock outcome of one rep. Deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    /// Application bytes consumed ÷ simulated window, Gbit/s.
    pub goodput_gbps: f64,
    /// Requests (or flow-waves) completed ÷ simulated window, M/s.
    pub requests_mrps: f64,
    /// Median latency, µs of simulated time (definition per workload).
    pub latency_p50_us: f64,
    /// 99th-percentile latency, µs of simulated time.
    pub latency_p99_us: f64,
    /// Latency samples behind the percentiles.
    pub latency_samples: u64,
    /// Simulated cycles of the measured region (`scale-64k`: until the
    /// last flow's `snd_una` reached its target).
    pub cycles_active: u64,
    /// Simulated cycles covered by `host_wall_s`, skipped ones included.
    pub cycles_timed: u64,
    /// FNV-1a over the window's recorder-independent telemetry + totals.
    pub digest: u64,
}

/// Everything one rep returns.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds to construct the system and open its flows.
    pub setup_s: f64,
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// The timed region cut at its deterministic piece boundaries (one
    /// tick batch, one engine step): piece k is the same simulated work
    /// in every rep of one `(workload, seed, size)`. Sums to `wall_s`.
    pub pieces_s: Vec<f64>,
    /// The part of `wall_s` spent in the benchmark's own code (ideal
    /// peer, sampling, loop overhead).
    pub driver_s: f64,
    /// Simulated-clock results.
    pub sim: Sim,
    /// Flows whose outcome was checked.
    pub attempted: u64,
    /// Flows that failed their check.
    pub failed: u64,
    /// Human-readable description of every failed check.
    pub problems: Vec<String>,
    /// Findings worth printing that do not fail the rep.
    pub advisories: Vec<String>,
    /// Exact per-layer window counts, keyed by per-layer metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// FtFlight stage p99s in cycles (armed reps only), worst engine.
    pub flight_p99: Option<[u64; 9]>,
    /// Checker violations + watchdog alarms (armed reps only).
    pub alarms: u64,
}

/// Runs one repetition of `w`.
pub fn run_rep(w: Workload, opts: RepOpts, tracer: &mut Tracer) -> Rep {
    match w {
        Workload::Scale64k => scale::run(opts, tracer),
        _ => system::run(w, opts, tracer),
    }
}

/// Flows to report as failed: the flows the checks named, but at least
/// one when any check failed (conservation, determinism, a checker
/// violation name no flow yet must fail the run), and never more than
/// were attempted.
pub fn charge_failures(named: u64, any_problem: bool, attempted: u64) -> u64 {
    named.max(u64::from(any_problem)).min(attempted)
}

/// Builds the workload's system exactly as a rep does, drops it, and
/// returns the host seconds the build took: an extra `setup_s` sample.
pub fn setup_only(w: Workload, opts: RepOpts) -> f64 {
    match w {
        Workload::Scale64k => scale::setup_only(opts),
        _ => system::setup_only(w, opts),
    }
}

/// FNV-1a, the digest every determinism check in the repository uses.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes into the digest.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Telemetry families a recorder adds or fast-forward capping changes;
/// left out of the digest so armed, traced and plain reps can be
/// compared for equality.
const DIGEST_SKIP: [&str; 6] = [
    ".fastforward.",
    ".flight.",
    ".journal.",
    ".watchdog.",
    ".pulse.",
    ".trace.",
];

/// Folds the recorder-independent part of a telemetry window into `h`
/// (the same text `to_json` would print for those keys).
pub fn digest_telemetry(h: &mut Fnv, window: &MetricsRegistry) {
    let mut kept = MetricsRegistry::new();
    for (name, value) in window.iter() {
        if DIGEST_SKIP.iter().any(|s| name.contains(s)) {
            continue;
        }
        match value {
            MetricValue::Counter(v) => kept.counter(name, *v),
            MetricValue::Gauge(v) => kept.gauge(name, *v),
            MetricValue::Histogram(s) => {
                kept.counter(&format!("{name}.count"), s.count);
                kept.counter(&format!("{name}.p50"), s.p50);
                kept.counter(&format!("{name}.p99"), s.p99);
                kept.counter(&format!("{name}.max"), s.max);
            }
        }
    }
    h.bytes(kept.to_json().as_bytes());
}

/// Sums the window counters of every key that ends in `suffix` and
/// contains `mid` (e.g. all `fpcN.dispatches` of both engines).
pub fn sum_counters(window: &MetricsRegistry, mid: &str, suffix: &str) -> f64 {
    window
        .iter()
        .filter(|(k, _)| k.ends_with(suffix) && k.contains(mid))
        .map(|(_, v)| match v {
            MetricValue::Counter(c) => *c as f64,
            _ => 0.0,
        })
        .sum()
}

/// Largest gauge (or histogram p99) among keys ending in `suffix`.
pub fn max_level(window: &MetricsRegistry, suffix: &str) -> f64 {
    window
        .iter()
        .filter(|(k, _)| k.ends_with(suffix))
        .map(|(_, v)| match v {
            MetricValue::Gauge(g) => *g,
            MetricValue::Histogram(h) => h.p99 as f64,
            MetricValue::Counter(c) => *c as f64,
        })
        .fold(0.0, f64::max)
}

/// Mean gauge among keys ending in `suffix` (0 when there are none).
pub fn mean_level(window: &MetricsRegistry, suffix: &str) -> f64 {
    let (sum, n) =
        window
            .iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .fold((0.0, 0u32), |(s, n), (_, v)| match v {
                MetricValue::Gauge(g) => (s + g, n + 1),
                _ => (s, n),
            });
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The exact per-layer counts every workload reports, read from a
/// telemetry window summed over all engines in it. `engines` is how many
/// engines the window covers (1 bare, 2 in a system). A ratio whose
/// denominator is zero on this workload reads 0.
pub fn engine_counts(window: &MetricsRegistry, engines: u64) -> BTreeMap<&'static str, f64> {
    let s = |mid: &str, suffix: &str| sum_counters(window, mid, suffix);
    let mut c = BTreeMap::new();
    let cycles = s("engine", "engine.cycles");
    let skipped = s(".fastforward.", ".skipped_cycles");
    let executed = cycles - skipped;
    c.insert("engine.ticks_executed", executed);
    c.insert("engine.ff_skip_ratio", ratio(skipped, cycles));
    c.insert("engine.ff_windows", s(".fastforward.", ".windows"));

    c.insert("rx_parser.segments_in", s(".rx.", ".segments_in"));
    c.insert(
        "rx_parser.cuckoo_probes_per_lookup",
        ratio(s(".rx.cuckoo.", ".probes"), s(".rx.cuckoo.", ".lookups")),
    );
    c.insert(
        "rx_parser.ooo_segments",
        s(".rx.reassembly.", ".ooo_segments"),
    );
    c.insert(
        "rx_parser.dup_segments",
        s(".rx.reassembly.", ".dup_segments"),
    );
    c.insert(
        "rx_parser.input_fifo_hwm",
        max_level(window, ".rx.input_fifo.high_watermark"),
    );
    c.insert("rx_parser.dropped_unknown", s(".rx.", ".dropped_unknown"));

    let events_in = s(".scheduler.", ".events_in");
    let routed_fpc = s(".scheduler.", ".routed_fpc");
    let routed_dram = s(".scheduler.", ".routed_dram");
    c.insert("scheduler.events_in", events_in);
    c.insert(
        "scheduler.coalesced_share",
        ratio(s(".scheduler.", ".coalesced"), events_in),
    );
    c.insert("scheduler.migrations", s(".scheduler.", ".migrations"));
    c.insert(
        "scheduler.routed_dram_share",
        ratio(routed_dram, routed_fpc + routed_dram),
    );
    c.insert("scheduler.lut_stalls", s(".scheduler.lut.", ".stalls"));
    c.insert(
        "scheduler.pending_hwm",
        max_level(window, ".scheduler.pending.high_watermark"),
    );
    c.insert("scheduler.dropped", s(".scheduler.", ".dropped"));

    // Fast-forward replays skipped cycles into the stall counters, so
    // the shares are of all simulated FPC cycles, skipped ones included.
    let fpcs = window
        .iter()
        .filter(|(k, _)| k.ends_with(".dispatches"))
        .count() as u64;
    let fpc_ticks = cycles * ratio(fpcs as f64, engines as f64);
    let handled = s(".fpc", ".events_handled");
    let dispatches = s(".fpc", ".dispatches");
    c.insert("fpc.events_handled", handled);
    c.insert("fpc.dispatches", dispatches);
    c.insert("fpc.events_per_dispatch", ratio(handled, dispatches));
    c.insert(
        "fpc.stall_fifo_empty_share",
        ratio(s(".fpc", ".stall.fifo_empty"), fpc_ticks),
    );
    c.insert(
        "fpc.stall_tcb_wait_share",
        ratio(s(".fpc", ".stall.tcb_wait"), fpc_ticks),
    );
    c.insert(
        "fpc.stall_backpressure_share",
        ratio(s(".fpc", ".stall.evict_backpressure"), fpc_ticks),
    );
    c.insert("fpc.rmw_stall_cycles", s(".fpc", ".rmw.stall_cycles"));
    c.insert("fpc.stale_events", s(".fpc", ".stale_events"));

    c.insert("fpu.processed", s(".fpu.", ".processed"));
    c.insert("fpu.retransmissions", s(".tx.", ".retransmissions"));
    c.insert(
        "fpu.occupancy_avg",
        mean_level(window, ".fpu.occupancy_avg"),
    );

    let hits = s(".mm.tcb_cache.", ".hits");
    let misses = s(".mm.tcb_cache.", ".misses");
    c.insert(
        "memory_manager.events_handled",
        s(".mm.", ".mm.events_handled"),
    );
    c.insert(
        "memory_manager.tcb_cache_hit_rate",
        ratio(hits, hits + misses),
    );
    c.insert("memory_manager.dram_accesses", s(".mm.dram.", ".accesses"));
    c.insert("memory_manager.dram_refusals", s(".mm.dram.", ".refusals"));
    c.insert(
        "memory_manager.migration_latency_p99_cycles",
        max_level(window, ".mm.migration_latency_cycles"),
    );

    c.insert("packet_gen.segments_out", s(".tx.", ".segments_out"));
    c.insert("packet_gen.bytes_out", s(".tx.", ".bytes_out"));
    c
}

/// What an armed rep adds: checker violations and watchdog alarms (with
/// the flows they name) as failures, and FtFlight stage p99s. A
/// `queue_slo` alarm is only an advisory: a queue pinned at capacity is
/// what saturation looks like, and `bulk-128` holds `tx_out` full by
/// design.
pub fn armed_findings(
    engines: &[(&str, &Engine)],
    problems: &mut Vec<String>,
    advisories: &mut Vec<String>,
) -> (u64, Vec<u32>, Option<[u64; 9]>) {
    let mut alarms = 0;
    let mut named = Vec::new();
    let mut p99: Option<[u64; 9]> = None;
    for (label, e) in engines {
        alarms += e.check_total_violations();
        for v in e.check_violations() {
            problems.push(format!("{label}: checker violation: {v}"));
        }
        for a in e.watchdog().map_or(&[][..], |w| w.alarms()) {
            if a.kind == AlarmKind::QueueSlo {
                advisories.push(format!("{label}: watchdog: {}", a.line()));
            } else {
                alarms += 1;
                problems.push(format!("{label}: watchdog alarm: {}", a.line()));
                named.extend(a.flow);
            }
        }
        if let Some(f) = e.flight() {
            let row = p99.get_or_insert([0; 9]);
            for stage in FlightStage::ALL {
                let v = f.stage_histogram(stage).percentile(99.0);
                row[stage.index()] = row[stage.index()].max(v);
            }
        }
    }
    named.sort_unstable();
    named.dedup();
    (alarms, named, p99)
}
