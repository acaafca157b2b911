//! FtFlight — span-based per-flow latency attribution.
//!
//! FtScope (`telemetry`) answers *how busy* each module is; FtFlight
//! answers *where a flow's time goes*. Every tracked segment/event is
//! stamped with the simulated cycle at each pipeline-stage boundary —
//! RX-parser ingest, cuckoo lookup, coalesce-FIFO residency, event-table
//! accumulation, pending-queue wait, TCB fetch (SRAM hit vs DRAM/HBM
//! migration), FPU processing and TX emission — and the stage durations
//! feed per-stage [`Histogram`]s plus a bounded per-flow aggregate table.
//!
//! Design constraints (DESIGN.md §10):
//!
//! * **Deterministic under fast-forward.** All stamps are differences of
//!   simulated-clock cycles taken at executed ticks; fast-forward skips
//!   only provably idle windows, so a fast-forwarded run records exactly
//!   the spans a tick-by-tick run records and [`FlightRecorder::to_json`]
//!   is byte-identical between the two (`tests/fastforward_equiv.rs`).
//! * **Cheap.** Sampling is flow-id based (`flow % sample == 0`) so both
//!   execution modes agree on which flows are tracked without any shared
//!   state; an unsampled flow costs one branch per boundary.
//! * **Integer-only output.** The JSON uses integer cycle counts and
//!   integer nanosecond conversions so output is bit-stable across
//!   platforms.
//!
//! # Examples
//!
//! ```
//! use f4t_sim::flight::{FlightRecorder, FlightStage};
//! let mut fr = FlightRecorder::new(1);
//! fr.record(FlightStage::FpuProcess, 7, 12);
//! assert_eq!(fr.spans_recorded(), 1);
//! let json = fr.to_json(4);
//! assert!(json.contains("\"fpu_process\""));
//! ```

use crate::stats::Histogram;
use crate::telemetry::MetricsRegistry;
use std::collections::BTreeMap;

/// Number of pipeline stages a flight record can attribute time to.
pub const STAGE_COUNT: usize = 9;

/// Nominal network-domain clock period in picoseconds (322 MHz ≈ 3106 ps);
/// used for the secondary ns conversion in the breakdown JSON.
pub const NET_PERIOD_PS: u64 = 3106;

/// Maximum per-flow entries serialized into the breakdown JSON (the
/// in-memory table is unbounded up to the sampled-flow population; the
/// JSON keeps the lowest flow ids so output stays reviewable).
const JSON_FLOW_CAP: usize = 64;

/// A pipeline stage boundary a span is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlightStage {
    /// NIC buffer → RX parser parse slot (input-FIFO residency).
    RxIngest,
    /// Flow-table cuckoo lookup; the span length is the probe count.
    CuckooLookup,
    /// Scheduler intake + coalesce-FIFO residency (entry → first route).
    CoalesceFifo,
    /// Pending-queue park time (migration or backpressure retry wait).
    PendingWait,
    /// Event-table accumulation: first valid bit set → FPU dispatch
    /// (FPC SRAM slots), or memory-manager service wait (DRAM flows).
    EventAccum,
    /// SRAM-resident TCB path: scheduler route → FPC event handler.
    TcbFetchSram,
    /// DRAM/HBM-resident TCB path: swap-in request → TCB installed
    /// (includes evict-checker and writeback cost on the far side).
    TcbFetchDram,
    /// FPU pipeline residency (issue → result).
    FpuProcess,
    /// TX request accepted → final segment on the wire.
    TxEmit,
}

/// Identity helper for stage-name literals. Exists so `f4tlint`'s
/// `metric_name` rule can lint flight stage names exactly like FtScope
/// metric names (dotted snake_case, unique per file).
const fn stage_name(name: &'static str) -> &'static str {
    name
}

impl FlightStage {
    /// Every stage, in pipeline order (also the JSON emission order).
    pub const ALL: [FlightStage; STAGE_COUNT] = [
        FlightStage::RxIngest,
        FlightStage::CuckooLookup,
        FlightStage::CoalesceFifo,
        FlightStage::PendingWait,
        FlightStage::EventAccum,
        FlightStage::TcbFetchSram,
        FlightStage::TcbFetchDram,
        FlightStage::FpuProcess,
        FlightStage::TxEmit,
    ];

    /// Stable stage name (used in JSON, telemetry and METRICS.md).
    pub fn name(self) -> &'static str {
        match self {
            FlightStage::RxIngest => stage_name("rx_ingest"),
            FlightStage::CuckooLookup => stage_name("cuckoo_lookup"),
            FlightStage::CoalesceFifo => stage_name("coalesce_fifo"),
            FlightStage::PendingWait => stage_name("pending_wait"),
            FlightStage::EventAccum => stage_name("event_accum"),
            FlightStage::TcbFetchSram => stage_name("tcb_fetch_sram"),
            FlightStage::TcbFetchDram => stage_name("tcb_fetch_dram"),
            FlightStage::FpuProcess => stage_name("fpu_process"),
            FlightStage::TxEmit => stage_name("tx_emit"),
        }
    }

    /// Dense index into per-stage arrays ([`FlightStage::ALL`] order).
    pub fn index(self) -> usize {
        match self {
            FlightStage::RxIngest => 0,
            FlightStage::CuckooLookup => 1,
            FlightStage::CoalesceFifo => 2,
            FlightStage::PendingWait => 3,
            FlightStage::EventAccum => 4,
            FlightStage::TcbFetchSram => 5,
            FlightStage::TcbFetchDram => 6,
            FlightStage::FpuProcess => 7,
            FlightStage::TxEmit => 8,
        }
    }
}

/// Per-flow, per-stage aggregate (full histograms per flow would cost
/// ~150 KB each; count/total/max is enough to attribute a flow's time).
#[derive(Debug, Clone, Copy, Default)]
struct StageAgg {
    count: u64,
    total_cycles: u64,
    max_cycles: u64,
}

/// The flight recorder: aggregate per-stage histograms plus a per-flow
/// breakdown table, fed by sampled span completions.
#[derive(Debug)]
pub struct FlightRecorder {
    /// Track flows whose id is `0 (mod sample)`; 1 tracks everything.
    sample: u32,
    /// Cycles added to every recorded span — a fault-injection hook for
    /// perf-gate self-tests (`f4tperf --inject-slowdown`), never set in
    /// normal operation.
    bias: u64,
    stages: Vec<Histogram>,
    per_flow: BTreeMap<u32, [StageAgg; STAGE_COUNT]>,
    recorded: u64,
    unsampled: u64,
}

impl FlightRecorder {
    /// Creates a recorder sampling one in `sample` flows (0 is clamped
    /// to 1 = every flow).
    pub fn new(sample: u32) -> FlightRecorder {
        FlightRecorder {
            sample: sample.max(1),
            bias: 0,
            stages: (0..STAGE_COUNT).map(|_| Histogram::new()).collect(),
            per_flow: BTreeMap::new(),
            recorded: 0,
            unsampled: 0,
        }
    }

    /// The sampling divisor.
    pub fn sample_n(&self) -> u32 {
        self.sample
    }

    /// Whether spans for `flow` are tracked under the sampling policy.
    /// Flow-id based so fast-forwarded and tick-by-tick runs agree.
    #[inline]
    pub fn sampled(&self, flow: u32) -> bool {
        flow.is_multiple_of(self.sample)
    }

    /// Adds `cycles` to every subsequently recorded span (perf-gate
    /// self-test hook; see [`FlightRecorder::bias`]).
    pub fn set_bias(&mut self, cycles: u64) {
        self.bias = cycles;
    }

    /// The configured span bias (0 in normal operation).
    pub fn bias(&self) -> u64 {
        self.bias
    }

    /// Records a completed span of `cycles` for `flow` at `stage`.
    /// Unsampled flows cost one branch.
    #[inline]
    pub fn record(&mut self, stage: FlightStage, flow: u32, cycles: u64) {
        if !self.sampled(flow) {
            self.unsampled += 1;
            return;
        }
        let cycles = cycles + self.bias;
        self.stages[stage.index()].record(cycles);
        let agg = &mut self.per_flow.entry(flow).or_default()[stage.index()];
        agg.count += 1;
        agg.total_cycles += cycles;
        agg.max_cycles = agg.max_cycles.max(cycles);
        self.recorded += 1;
    }

    /// Spans recorded (sampled flows only).
    pub fn spans_recorded(&self) -> u64 {
        self.recorded
    }

    /// Span completions skipped by sampling.
    pub fn spans_unsampled(&self) -> u64 {
        self.unsampled
    }

    /// Number of distinct flows with at least one recorded span.
    pub fn flows_tracked(&self) -> usize {
        self.per_flow.len()
    }

    /// The aggregate histogram for one stage.
    pub fn stage_histogram(&self, stage: FlightStage) -> &Histogram {
        &self.stages[stage.index()]
    }

    /// Reports per-stage histograms into a telemetry registry as
    /// `<prefix>.<stage>.cycles`.
    pub fn collect(&self, prefix: &str, reg: &mut MetricsRegistry) {
        reg.counter(&format!("{prefix}.spans_recorded"), self.recorded);
        reg.counter(&format!("{prefix}.spans_unsampled"), self.unsampled);
        reg.gauge(&format!("{prefix}.flows_tracked"), self.per_flow.len() as f64);
        for stage in FlightStage::ALL {
            reg.histogram(
                &format!("{prefix}.{}.cycles", stage.name()),
                &self.stages[stage.index()],
            );
        }
    }

    /// Serializes the latency breakdown as JSON. `cycle_ns` is the engine
    /// cycle period (4 ns at 250 MHz); a secondary conversion at the
    /// 322 MHz network clock is included per the paper's two clock
    /// domains. Integer-only arithmetic: the output is byte-stable, and
    /// fast-forwarded vs tick-by-tick runs of the same workload produce
    /// identical text.
    pub fn to_json(&self, cycle_ns: u64) -> String {
        let ns = |c: u64| c.saturating_mul(cycle_ns);
        let ns_net = |c: u64| c.saturating_mul(NET_PERIOD_PS) / 1000;
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"sample\": {},\n", self.sample));
        out.push_str(&format!("  \"cycle_ns\": {cycle_ns},\n"));
        out.push_str(&format!("  \"spans_recorded\": {},\n", self.recorded));
        out.push_str(&format!("  \"spans_unsampled\": {},\n", self.unsampled));
        out.push_str(&format!("  \"flows_tracked\": {},\n", self.per_flow.len()));
        out.push_str("  \"stages\": {\n");
        for (i, stage) in FlightStage::ALL.iter().enumerate() {
            let h = &self.stages[stage.index()];
            let (p50, p99, p999) =
                (h.percentile(50.0), h.percentile(99.0), h.percentile(99.9));
            out.push_str(&format!(
                "    \"{}\": {{\"count\": {}, \"min_cycles\": {}, \"max_cycles\": {}, \
                 \"p50_cycles\": {}, \"p99_cycles\": {}, \"p999_cycles\": {}, \
                 \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
                 \"p50_ns_net\": {}, \"p99_ns_net\": {}, \"p999_ns_net\": {}}}{}\n",
                stage.name(),
                h.count(),
                h.min(),
                h.max(),
                p50,
                p99,
                p999,
                ns(p50),
                ns(p99),
                ns(p999),
                ns_net(p50),
                ns_net(p99),
                ns_net(p999),
                if i + 1 < STAGE_COUNT { "," } else { "" }
            ));
        }
        out.push_str("  },\n");
        let omitted = self.per_flow.len().saturating_sub(JSON_FLOW_CAP);
        out.push_str(&format!("  \"flows_omitted\": {omitted},\n"));
        out.push_str("  \"flows\": {\n");
        let shown: Vec<_> = self.per_flow.iter().take(JSON_FLOW_CAP).collect();
        for (fi, (flow, aggs)) in shown.iter().enumerate() {
            out.push_str(&format!("    \"{flow}\": {{"));
            let mut first = true;
            for stage in FlightStage::ALL {
                let a = &aggs[stage.index()];
                if a.count == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!(
                    "\"{}\": {{\"count\": {}, \"total_cycles\": {}, \"max_cycles\": {}}}",
                    stage.name(),
                    a.count,
                    a.total_cycles,
                    a.max_cycles
                ));
            }
            out.push_str(&format!("}}{}\n", if fi + 1 < shown.len() { "," } else { "" }));
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn stage_names_unique_and_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for stage in FlightStage::ALL {
            let n = stage.name();
            assert!(seen.insert(n), "duplicate stage name {n}");
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "stage name {n} is not snake_case"
            );
            assert_eq!(FlightStage::ALL[stage.index()], stage, "index round-trip");
        }
        assert_eq!(seen.len(), STAGE_COUNT);
    }

    #[test]
    fn sampling_is_flow_id_based() {
        let mut fr = FlightRecorder::new(64);
        fr.record(FlightStage::RxIngest, 0, 5);
        fr.record(FlightStage::RxIngest, 64, 5);
        fr.record(FlightStage::RxIngest, 63, 5);
        fr.record(FlightStage::RxIngest, 1, 5);
        assert_eq!(fr.spans_recorded(), 2, "flows 0 and 64 sampled");
        assert_eq!(fr.spans_unsampled(), 2, "flows 63 and 1 skipped");
        assert_eq!(fr.flows_tracked(), 2);
        assert!(fr.sampled(128) && !fr.sampled(129));
    }

    #[test]
    fn sample_zero_clamps_to_every_flow() {
        let mut fr = FlightRecorder::new(0);
        assert_eq!(fr.sample_n(), 1);
        fr.record(FlightStage::TxEmit, 12345, 1);
        assert_eq!(fr.spans_recorded(), 1);
    }

    #[test]
    fn bias_inflates_recorded_spans() {
        let mut fr = FlightRecorder::new(1);
        fr.record(FlightStage::FpuProcess, 1, 10);
        fr.set_bias(100);
        fr.record(FlightStage::FpuProcess, 1, 10);
        let h = fr.stage_histogram(FlightStage::FpuProcess);
        assert_eq!(h.min(), 10);
        assert!(h.max() >= 110);
    }

    #[test]
    fn json_shape_and_determinism() {
        let build = || {
            let mut fr = FlightRecorder::new(1);
            for f in 0..3u32 {
                fr.record(FlightStage::RxIngest, f, 4);
                fr.record(FlightStage::FpuProcess, f, 17);
                fr.record(FlightStage::TxEmit, f, u64::from(f) * 7);
            }
            fr.to_json(4)
        };
        let a = build();
        assert_eq!(a, build(), "breakdown JSON must be byte-stable");
        assert!(a.contains("\"fpu_process\""));
        assert!(a.contains("\"p999_cycles\""));
        // 17 cycles at 4 ns.
        assert!(a.contains("\"p50_ns\": 68"));
        // 17 cycles at the 322 MHz clock: 17 * 3106 / 1000 = 52 ns.
        assert!(a.contains("\"p50_ns_net\": 52"));
        // Every stage appears exactly once, in FlightStage order.
        let doc = crate::json::parse(&a).expect("breakdown parses");
        let stages = doc.get("stages").and_then(Value::entries).unwrap();
        let names: Vec<&str> = stages.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = FlightStage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, want);
        let fpu = doc.get("stages").and_then(|s| s.get("fpu_process")).unwrap();
        assert_eq!(fpu.get("p99_cycles").and_then(Value::as_u64), Some(17));
        let flows = doc.get("flows").and_then(Value::entries).unwrap();
        assert_eq!(flows.len(), 3);
    }

    /// A histogram holding exactly one span must report that span's value
    /// at every percentile — tail percentiles must never interpolate
    /// toward zero or overshoot past the only sample.
    #[test]
    fn single_sample_percentiles_are_stable() {
        let mut fr = FlightRecorder::new(1);
        fr.record(FlightStage::EventAccum, 7, 42);
        let h = fr.stage_histogram(FlightStage::EventAccum);
        assert_eq!(h.count(), 1);
        let (p50, p99, p999) = (h.percentile(50.0), h.percentile(99.0), h.percentile(99.9));
        assert_eq!(p50, p99, "one sample: p50 and p99 must agree");
        assert_eq!(p99, p999, "one sample: p99 and p999 must agree");
        assert!(
            (h.min()..=h.max()).contains(&p999),
            "p999 {p999} outside the observed range [{}, {}]",
            h.min(),
            h.max()
        );
    }

    /// A recorder that never saw a span still serializes: every stage
    /// appears with zeroed statistics, the flow table is empty, and the
    /// bytes are identical across calls (the empty breakdown is a valid
    /// gate baseline).
    #[test]
    fn json_is_byte_stable_with_empty_stages() {
        let fr = FlightRecorder::new(64);
        let a = fr.to_json(4);
        assert_eq!(a, fr.to_json(4), "empty breakdown must be byte-stable");
        for stage in FlightStage::ALL {
            assert_eq!(a.matches(&format!("    \"{}\":", stage.name())).count(), 1);
        }
        assert!(a.contains("\"spans_recorded\": 0"), "{a}");
        assert!(a.contains("\"flows_tracked\": 0"), "{a}");
        assert!(a.contains("\"count\": 0"), "{a}");
        let doc = crate::json::parse(&a).expect("empty breakdown parses");
        assert_eq!(doc.get("flows").and_then(Value::entries), Some(&[][..]));
        assert!(a.ends_with("}\n"), "serialization must stay well-terminated");
    }

    #[test]
    fn json_caps_per_flow_entries() {
        let mut fr = FlightRecorder::new(1);
        for f in 0..200u32 {
            fr.record(FlightStage::TxEmit, f, 1);
        }
        let j = fr.to_json(4);
        assert!(j.contains("\"flows_omitted\": 136"));
        assert!(j.contains("\"63\""));
        assert!(!j.contains("\"64\": {"), "flow 64 beyond the JSON cap");
        assert_eq!(fr.flows_tracked(), 200, "in-memory table keeps everything");
    }

    #[test]
    fn collect_reports_registry_metrics() {
        let mut fr = FlightRecorder::new(1);
        fr.record(FlightStage::PendingWait, 3, 12);
        let mut reg = MetricsRegistry::new();
        fr.collect("flight", &mut reg);
        assert_eq!(reg.counter_value("flight.spans_recorded"), 1);
        match reg.get("flight.pending_wait.cycles") {
            Some(crate::telemetry::MetricValue::Histogram(s)) => assert_eq!(s.count, 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}
