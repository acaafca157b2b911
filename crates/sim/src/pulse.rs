//! FtPulse — deterministic time-series telemetry (DESIGN.md §15).
//!
//! Every observability layer before this one (FtScope snapshots, FtFlight
//! percentiles, FtJournal events) reports end-of-run aggregates. FtPulse
//! adds the time axis: a [`PulseRecorder`] samples a curated set of rates
//! and gauges at a fixed simulated-cycle interval into bounded per-series
//! rings, so throughput ramps, cwnd trajectories, stall storms, and
//! occupancy waves are visible as *windowed series*, not just sums.
//!
//! Determinism contract (the whole point):
//!
//! * Samples are taken only at cycles that are exact multiples of the
//!   configured interval. The engine caps fast-forward windows at the next
//!   sample boundary (the FtVerify-audit / watchdog-sweep precedent), so
//!   fast-forward, tick-by-tick, and every worker-pool size produce
//!   **byte-identical** series and an identical running digest.
//! * Everything recorded is an integer. Rates are deltas of cumulative
//!   counters between consecutive windows, taken by the recorder itself
//!   (the engine hands over running totals and keeps no shadow copy);
//!   gauges are instantaneous values at the boundary. No floats ever
//!   enter the digest.
//! * A running FNV-1a digest folds every sample *as it is recorded*, so
//!   the digest covers windows later overwritten by the bounded ring —
//!   same scheme as the FtJournal event digest.
//! * Under sharded runs each shard records its own series; aggregation
//!   ([`PulseRecorder::aggregate_json`]) walks shards in fixed order and
//!   is integer-only (sums for rates/gauges, maxima for stage p99s).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::digest::{fnv1a_u64, fold_digests, FNV_OFFSET};
use crate::flight::{FlightStage, STAGE_COUNT};
use crate::ring::Ring;
use crate::telemetry::MetricsRegistry;

/// Default sampling interval in engine cycles (32.768 µs at 250 MHz) —
/// coarse enough that fast-forward keeps its big skips, fine enough to
/// resolve slow-start ramps and retransmit storms.
pub const PULSE_DEFAULT_INTERVAL: u64 = 8_192;

/// Default per-flow sampling rate: flows whose id is a multiple of this
/// get cwnd/ssthresh/srtt/flightsize series (flow-id based, like FtFlight
/// and FtJournal sampling, so execution modes agree without shared state).
pub const PULSE_DEFAULT_FLOW_SAMPLE: u32 = 64;

/// Default ring capacity: windows retained per series.
pub const PULSE_DEFAULT_CAP: usize = 1_024;

/// Maximum number of distinct flows tracked with per-flow series.
pub const PULSE_FLOW_CAP: usize = 8;

/// Number of per-flow series tracked for each sampled flow.
pub const FLOW_SERIES_COUNT: usize = 4;

/// Names of the per-flow series, in recording order.
pub const FLOW_SERIES_NAMES: [&str; FLOW_SERIES_COUNT] =
    ["cwnd", "ssthresh", "srtt_ns", "flightsize"];

/// Number of fixed scalar series every recorder samples.
pub const SERIES_COUNT: usize = 16;

/// Identity helper so f4tlint's `metric_name` / `metrics_catalog` rules
/// can find and validate pulse series names as literals (the same trick
/// as `stage_name` in FtFlight and `event_name` in FtJournal).
const fn series_name(name: &'static str) -> &'static str {
    name
}

/// The fixed scalar series a [`PulseRecorder`] samples every window.
///
/// Rates are deltas of cumulative engine counters over the window; gauges
/// are instantaneous values at the window boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PulseSeries {
    /// Wire bytes emitted during the window (rate).
    GoodputBytes,
    /// Segments emitted to the network during the window (rate).
    SegmentsTx,
    /// Segments received from the network during the window (rate).
    SegmentsRx,
    /// Retransmitted segments during the window (rate).
    Retransmits,
    /// Host-interface events accepted during the window (rate).
    HostEvents,
    /// FPC dispatch cycles idle with no pending work (rate).
    StallFifoEmpty,
    /// FPC dispatch cycles blocked on TCBs in flight (rate).
    StallTcbWait,
    /// FPC dispatch cycles gated by TX backpressure (rate).
    StallBackpressure,
    /// Valid event-table entries summed over FPCs (gauge).
    EventTableValid,
    /// FPU pipeline slots in use summed over FPCs (gauge).
    FpuOccupancy,
    /// Location-LUT entries pointing at FPC SRAM (gauge).
    LutInFpc,
    /// Location-LUT entries pointing at DRAM (gauge).
    LutInDram,
    /// Location-LUT entries mid-migration (gauge).
    LutMoving,
    /// Memory-manager TCB-cache hits during the window (rate).
    TcbCacheHits,
    /// Memory-manager TCB-cache lookups during the window (rate).
    TcbCacheLookups,
    /// Flows currently allocated (gauge).
    FlowsOpen,
}

impl PulseSeries {
    /// Every series, in recording (and JSON) order.
    pub const ALL: [PulseSeries; SERIES_COUNT] = [
        PulseSeries::GoodputBytes,
        PulseSeries::SegmentsTx,
        PulseSeries::SegmentsRx,
        PulseSeries::Retransmits,
        PulseSeries::HostEvents,
        PulseSeries::StallFifoEmpty,
        PulseSeries::StallTcbWait,
        PulseSeries::StallBackpressure,
        PulseSeries::EventTableValid,
        PulseSeries::FpuOccupancy,
        PulseSeries::LutInFpc,
        PulseSeries::LutInDram,
        PulseSeries::LutMoving,
        PulseSeries::TcbCacheHits,
        PulseSeries::TcbCacheLookups,
        PulseSeries::FlowsOpen,
    ];

    /// The subset exported as Chrome-trace counter events (kept small so
    /// trace files stay loadable; the JSON export has everything).
    pub const CHROME: [PulseSeries; 7] = [
        PulseSeries::GoodputBytes,
        PulseSeries::SegmentsTx,
        PulseSeries::SegmentsRx,
        PulseSeries::Retransmits,
        PulseSeries::EventTableValid,
        PulseSeries::FpuOccupancy,
        PulseSeries::FlowsOpen,
    ];

    /// Stable snake-case series name (telemetry key suffix).
    pub fn name(self) -> &'static str {
        match self {
            PulseSeries::GoodputBytes => series_name("goodput_bytes"),
            PulseSeries::SegmentsTx => series_name("segments_tx"),
            PulseSeries::SegmentsRx => series_name("segments_rx"),
            PulseSeries::Retransmits => series_name("retransmits"),
            PulseSeries::HostEvents => series_name("host_events"),
            PulseSeries::StallFifoEmpty => series_name("stall_fifo_empty"),
            PulseSeries::StallTcbWait => series_name("stall_tcb_wait"),
            PulseSeries::StallBackpressure => series_name("stall_backpressure"),
            PulseSeries::EventTableValid => series_name("event_table_valid"),
            PulseSeries::FpuOccupancy => series_name("fpu_occupancy"),
            PulseSeries::LutInFpc => series_name("lut_in_fpc"),
            PulseSeries::LutInDram => series_name("lut_in_dram"),
            PulseSeries::LutMoving => series_name("lut_moving"),
            PulseSeries::TcbCacheHits => series_name("tcb_cache_hits"),
            PulseSeries::TcbCacheLookups => series_name("tcb_cache_lookups"),
            PulseSeries::FlowsOpen => series_name("flows_open"),
        }
    }

    /// Dense index into per-series arrays: the discriminant, which is the
    /// position in [`PulseSeries::ALL`] (recording order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the series is a per-window rate (the recorder differences
    /// a cumulative total) rather than a gauge (recorded as read).
    pub fn is_rate(self) -> bool {
        !matches!(
            self,
            PulseSeries::EventTableValid
                | PulseSeries::FpuOccupancy
                | PulseSeries::LutInFpc
                | PulseSeries::LutInDram
                | PulseSeries::LutMoving
                | PulseSeries::FlowsOpen
        )
    }
}

/// Retained samples of one series, oldest first.
fn values(ring: &Ring<u64>) -> Vec<u64> {
    ring.iter().copied().collect()
}

/// Newest sample of one series (0 before the first window).
fn newest(ring: &Ring<u64>) -> u64 {
    ring.last().copied().unwrap_or(0)
}

/// Per-flow series for one sampled flow.
#[derive(Clone, Debug)]
struct FlowTrack {
    first_window: u64,
    series: [Ring<u64>; FLOW_SERIES_COUNT],
}

/// Windowed time-series recorder (see module docs for the contract).
///
/// The engine calls [`PulseRecorder::record_window`] at every cycle that
/// is a multiple of the interval; the recorder owns the rings, the
/// rate derivation, the running digest, the per-flow tracks, and all
/// serialization.
#[derive(Clone, Debug)]
pub struct PulseRecorder {
    interval: u64,
    flow_sample: u32,
    cap: usize,
    digest: u64,
    /// Cumulative totals read at the previous window, per rate series.
    prev_totals: [u64; SERIES_COUNT],
    /// One ring per scalar series; their common push count is the number
    /// of windows recorded.
    scalars: [Ring<u64>; SERIES_COUNT],
    stages: [Ring<u64>; STAGE_COUNT],
    flows: BTreeMap<u32, FlowTrack>,
    flow_samples_omitted: u64,
}

impl PulseRecorder {
    /// Creates a recorder with the default ring capacity. A zero interval
    /// or flow-sample clamps to 1 (sample every cycle / every flow).
    pub fn new(interval: u64, flow_sample: u32) -> PulseRecorder {
        PulseRecorder::with_capacity(interval, flow_sample, PULSE_DEFAULT_CAP)
    }

    /// Creates a recorder retaining at most `cap` windows per series.
    pub fn with_capacity(interval: u64, flow_sample: u32, cap: usize) -> PulseRecorder {
        let cap = cap.max(1);
        PulseRecorder {
            interval: interval.max(1),
            flow_sample: flow_sample.max(1),
            cap,
            digest: FNV_OFFSET,
            prev_totals: [0; SERIES_COUNT],
            scalars: std::array::from_fn(|_| Ring::new(cap)),
            stages: std::array::from_fn(|_| Ring::new(cap)),
            flows: BTreeMap::new(),
            flow_samples_omitted: 0,
        }
    }

    /// Sampling interval in engine cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Per-flow sampling rate (1/N by flow id).
    pub fn flow_sample(&self) -> u32 {
        self.flow_sample
    }

    /// Ring capacity (windows retained per series).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total windows recorded (including overwritten ones).
    pub fn windows_recorded(&self) -> u64 {
        self.scalars[0].total()
    }

    /// Windows currently retained in the rings.
    pub fn windows_retained(&self) -> usize {
        self.scalars[0].len()
    }

    /// Running FNV-1a digest over every sample ever recorded.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Distinct flows with per-flow series.
    pub fn flows_tracked(&self) -> usize {
        self.flows.len()
    }

    /// Sampled flow observations dropped because the flow cap was full.
    pub fn flow_samples_omitted(&self) -> u64 {
        self.flow_samples_omitted
    }

    /// Whether per-flow series apply to this flow id (flow-id based, so
    /// every execution mode agrees without shared state).
    pub fn sampled(&self, flow: u32) -> bool {
        flow.is_multiple_of(self.flow_sample)
    }

    /// Whether this flow already has a per-flow track.
    pub fn tracks(&self, flow: u32) -> bool {
        self.flows.contains_key(&flow)
    }

    /// How many more flows the recorder will accept per-flow series for —
    /// lets the engine bound its TCB-peeking walk per window.
    pub fn track_budget(&self) -> usize {
        PULSE_FLOW_CAP.saturating_sub(self.flows.len())
    }

    /// Records one window. `readings` and `stage_p99` are in
    /// [`PulseSeries::ALL`] / [`FlightStage::ALL`] order; a rate series
    /// ([`PulseSeries::is_rate`]) reads its cumulative total, which the
    /// recorder differences against the previous window, and a gauge reads
    /// its instantaneous value. `flow_samples` holds `(flow, [cwnd,
    /// ssthresh, srtt_ns, flightsize])` in ascending flow-id order. Every
    /// recorded value is folded into the digest before the ring insert, so
    /// the digest covers overwritten windows.
    pub fn record_window(
        &mut self,
        cycle: u64,
        readings: &[u64; SERIES_COUNT],
        stage_p99: &[u64; STAGE_COUNT],
        flow_samples: &[(u32, [u64; FLOW_SERIES_COUNT])],
    ) {
        let mut scalars = *readings;
        for i in PulseSeries::ALL.into_iter().filter(|s| s.is_rate()).map(PulseSeries::index) {
            scalars[i] = readings[i].wrapping_sub(self.prev_totals[i]);
            self.prev_totals[i] = readings[i];
        }
        let w = self.windows_recorded();
        let mut h = self.digest;
        h = fnv1a_u64(h, cycle);
        for &v in &scalars {
            h = fnv1a_u64(h, v);
        }
        for &v in stage_p99 {
            h = fnv1a_u64(h, v);
        }
        for &(flow, vals) in flow_samples {
            h = fnv1a_u64(h, u64::from(flow));
            for &v in &vals {
                h = fnv1a_u64(h, v);
            }
        }
        self.digest = h;

        for (ring, &v) in self.scalars.iter_mut().zip(scalars.iter()) {
            ring.push(v);
        }
        for (ring, &v) in self.stages.iter_mut().zip(stage_p99.iter()) {
            ring.push(v);
        }
        for &(flow, vals) in flow_samples {
            if let Some(track) = self.flows.get_mut(&flow) {
                for (ring, &v) in track.series.iter_mut().zip(vals.iter()) {
                    ring.push(v);
                }
            } else if self.flows.len() < PULSE_FLOW_CAP {
                let mut track = FlowTrack {
                    first_window: w,
                    series: std::array::from_fn(|_| Ring::new(self.cap)),
                };
                for (ring, &v) in track.series.iter_mut().zip(vals.iter()) {
                    ring.push(v);
                }
                self.flows.insert(flow, track);
            } else {
                self.flow_samples_omitted += 1;
            }
        }
    }

    /// Retained samples for one scalar series, oldest first.
    pub fn series(&self, s: PulseSeries) -> Vec<u64> {
        values(&self.scalars[s.index()])
    }

    /// Retained samples for one stage-p99 series, oldest first.
    pub fn stage_series(&self, stage: FlightStage) -> Vec<u64> {
        values(&self.stages[stage.index()])
    }

    /// Most recent sample of a scalar series (0 before the first window).
    pub fn last(&self, s: PulseSeries) -> u64 {
        newest(&self.scalars[s.index()])
    }

    /// Registers pulse telemetry under `prefix` (e.g. `engine.pulse`):
    /// window accounting plus a `last.*` gauge per series so plain
    /// FtScope snapshots carry the newest window.
    pub fn collect(&self, prefix: &str, reg: &mut MetricsRegistry) {
        reg.counter(&format!("{prefix}.windows_recorded"), self.windows_recorded());
        reg.gauge(&format!("{prefix}.windows_retained"), self.windows_retained() as f64);
        reg.gauge(&format!("{prefix}.flows_tracked"), self.flows.len() as f64);
        reg.counter(&format!("{prefix}.flow_samples_omitted"), self.flow_samples_omitted);
        for s in PulseSeries::ALL {
            reg.gauge(&format!("{prefix}.last.{}", s.name()), self.last(s) as f64);
        }
        // `tail_cycles`, not `p99_cycles`: METRICS.md normalizes digit
        // runs to `<i>`, so a digit-bearing suffix could never match its
        // own catalog entry. The JSON export keeps the precise name.
        for stage in FlightStage::ALL {
            reg.gauge(
                &format!("{prefix}.last.stage.{}.tail_cycles", stage.name()),
                newest(&self.stages[stage.index()]) as f64,
            );
        }
    }

    /// Byte-stable JSON export of every retained series. Integer-only;
    /// building it twice from the same recorder yields identical bytes.
    pub fn to_json(&self, cycle_ns: u64) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, " \"interval_cycles\": {},", self.interval);
        let _ = writeln!(out, " \"cycle_ns\": {cycle_ns},");
        let _ = writeln!(out, " \"flow_sample\": {},", self.flow_sample);
        let _ = writeln!(out, " \"ring_capacity\": {},", self.cap);
        let _ = writeln!(out, " \"windows_recorded\": {},", self.windows_recorded());
        let _ = writeln!(out, " \"windows_retained\": {},", self.windows_retained());
        let _ = writeln!(out, " \"digest\": {},", self.digest);
        out.push_str(" \"series\": {\n");
        for s in PulseSeries::ALL {
            let _ = writeln!(out, "  \"{}\": {},", s.name(), json_u64_array(&self.series(s)));
        }
        for (i, stage) in FlightStage::ALL.iter().enumerate() {
            let _ = write!(
                out,
                "  \"stage.{}.p99_cycles\": {}",
                stage.name(),
                json_u64_array(&self.stage_series(*stage))
            );
            out.push_str(if i + 1 == STAGE_COUNT { "\n" } else { ",\n" });
        }
        out.push_str(" },\n");
        out.push_str(" \"flows\": [");
        let mut first = true;
        for (flow, track) in &self.flows {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            let _ = write!(
                out,
                "  {{\"flow\": {flow}, \"first_window\": {}",
                track.first_window
            );
            for (name, ring) in FLOW_SERIES_NAMES.iter().zip(track.series.iter()) {
                let _ = write!(out, ", \"{name}\": {}", json_u64_array(&values(ring)));
            }
            out.push('}');
        }
        out.push_str(if first { "],\n" } else { "\n ],\n" });
        let _ = writeln!(out, " \"flow_samples_omitted\": {}", self.flow_samples_omitted);
        out.push_str("}\n");
        out
    }

    /// Chrome-trace counter events (`"ph": "C"`) for the curated
    /// [`PulseSeries::CHROME`] subset, comma-joined, ready to splice into
    /// the engine's trace export. Timestamps are exact integer-µs
    /// renderings of `window_cycle * cycle_ns`, so the output is
    /// byte-stable. Empty string when no windows were recorded.
    pub fn chrome_counter_events(&self, cycle_ns: u64) -> String {
        let retained = self.windows_retained() as u64;
        if retained == 0 {
            return String::new();
        }
        let first_window = self.windows_recorded() - retained;
        let mut out = String::new();
        let mut first = true;
        for s in PulseSeries::CHROME {
            for (k, v) in self.series(s).iter().enumerate() {
                let cycle = (first_window + k as u64) * self.interval;
                let ns = cycle.saturating_mul(cycle_ns);
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\": \"pulse.{}\", \"cat\": \"pulse\", \"ph\": \"C\", \
                     \"ts\": {}.{:03}, \"pid\": 0, \"tid\": 0, \"args\": {{\"value\": {v}}}}}",
                    s.name(),
                    ns / 1000,
                    ns % 1000
                );
            }
        }
        out
    }

    /// Fleet-aggregate view over shard recorders, walked in the given
    /// (fixed) order. Scalar series are summed element-wise, stage-p99
    /// series take the element-wise maximum, and the merged digest folds
    /// the per-shard digests in order ([`fold_digests`]). Shards
    /// are aligned on their most recent common windows (rings may have
    /// overwritten different amounts). Integer-only and byte-stable.
    pub fn aggregate_json(shards: &[&PulseRecorder]) -> String {
        let n = shards.iter().map(|p| p.windows_retained()).min().unwrap_or(0);
        let merged = fold_digests(shards.iter().map(|p| p.digest));
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, " \"shards\": {},", shards.len());
        let _ = writeln!(out, " \"merged_digest\": {merged},");
        let _ = writeln!(out, " \"windows\": {n},");
        out.push_str(" \"series\": {\n");
        let combine = |per_shard: Vec<Vec<u64>>, max: bool| -> Vec<u64> {
            let mut acc = vec![0u64; n];
            for vals in &per_shard {
                let skip = vals.len() - n.min(vals.len());
                for (a, &v) in acc.iter_mut().zip(vals[skip..].iter()) {
                    *a = if max { (*a).max(v) } else { a.saturating_add(v) };
                }
            }
            acc
        };
        for s in PulseSeries::ALL {
            let acc = combine(shards.iter().map(|p| p.series(s)).collect(), false);
            let _ = writeln!(out, "  \"{}\": {},", s.name(), json_u64_array(&acc));
        }
        for (i, stage) in FlightStage::ALL.iter().enumerate() {
            let acc = combine(shards.iter().map(|p| p.stage_series(*stage)).collect(), true);
            let _ = write!(out, "  \"stage.{}.p99_cycles\": {}", stage.name(), json_u64_array(&acc));
            out.push_str(if i + 1 == STAGE_COUNT { "\n" } else { ",\n" });
        }
        out.push_str(" }\n}\n");
        out
    }
}

fn json_u64_array(vals: &[u64]) -> String {
    let mut out = String::with_capacity(vals.len() * 4 + 2);
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    /// Readings under which every scalar series of `p` records `base +
    /// i`: a rate series reads the running total `p` differences back.
    fn scalars(p: &PulseRecorder, base: u64) -> [u64; SERIES_COUNT] {
        std::array::from_fn(|i| {
            let v = base + i as u64;
            if PulseSeries::ALL[i].is_rate() { p.prev_totals[i] + v } else { v }
        })
    }

    fn stages(base: u64) -> [u64; STAGE_COUNT] {
        std::array::from_fn(|i| base * 10 + i as u64)
    }

    #[test]
    fn series_index_is_the_position_in_all() {
        for (i, s) in PulseSeries::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i, "{}", s.name());
        }
    }

    #[test]
    fn rates_are_derived_from_cumulative_totals() {
        let mut p = PulseRecorder::new(64, 1);
        let mut readings = [0u64; SERIES_COUNT];
        for (w, total) in [100u64, 250, 250].into_iter().enumerate() {
            readings[PulseSeries::GoodputBytes.index()] = total;
            readings[PulseSeries::FlowsOpen.index()] = total;
            p.record_window(w as u64 * 64, &readings, &stages(0), &[]);
        }
        assert_eq!(p.series(PulseSeries::GoodputBytes), [100, 150, 0], "rate: per-window delta");
        assert_eq!(p.series(PulseSeries::FlowsOpen), [100, 250, 250], "gauge: as read");
    }

    #[test]
    fn series_names_unique_and_snake_case() {
        let names: Vec<_> = PulseSeries::ALL.iter().map(|s| s.name()).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "series name {n:?} not snake_case"
            );
            assert!(!names[i + 1..].contains(n), "duplicate series name {n:?}");
        }
        for n in FLOW_SERIES_NAMES {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_order() {
        let mut p = PulseRecorder::with_capacity(64, 1, 3);
        for w in 0..5u64 {
            p.record_window(w * 64, &scalars(&p, w), &stages(w), &[]);
        }
        assert_eq!(p.windows_recorded(), 5);
        assert_eq!(p.windows_retained(), 3);
        // Oldest retained window is w=2; series[0] is GoodputBytes = base.
        assert_eq!(p.series(PulseSeries::GoodputBytes), vec![2, 3, 4]);
        assert_eq!(p.last(PulseSeries::GoodputBytes), 4);
    }

    #[test]
    fn digest_covers_overwritten_windows() {
        let mut a = PulseRecorder::with_capacity(64, 1, 2);
        let mut b = PulseRecorder::with_capacity(64, 1, 2);
        for w in 0..4u64 {
            a.record_window(w * 64, &scalars(&a, w), &stages(w), &[]);
            // b diverges only in the first (overwritten) window.
            let base = if w == 0 { 99 } else { w };
            b.record_window(w * 64, &scalars(&b, base), &stages(w), &[]);
        }
        assert_eq!(a.series(PulseSeries::GoodputBytes), b.series(PulseSeries::GoodputBytes));
        assert_ne!(a.digest(), b.digest(), "digest must cover overwritten windows");
    }

    #[test]
    fn flow_tracking_caps_and_counts_omissions() {
        let mut p = PulseRecorder::new(64, 1);
        let samples: Vec<_> =
            (0..(PULSE_FLOW_CAP as u32 + 3)).map(|f| (f, [1, 2, 3, 4])).collect();
        p.record_window(0, &scalars(&p, 0), &stages(0), &samples);
        assert_eq!(p.flows_tracked(), PULSE_FLOW_CAP);
        assert_eq!(p.flow_samples_omitted(), 3);
        assert_eq!(p.track_budget(), 0);
        assert!(p.tracks(0));
        assert!(!p.tracks(PULSE_FLOW_CAP as u32 + 1));
    }

    #[test]
    fn sampling_is_flow_id_based_and_zero_clamps() {
        let p = PulseRecorder::new(64, 4);
        assert!(p.sampled(0) && p.sampled(8));
        assert!(!p.sampled(3));
        let every = PulseRecorder::new(0, 0);
        assert_eq!(every.interval(), 1);
        assert!(every.sampled(7), "flow_sample 0 clamps to every flow");
    }

    #[test]
    fn json_shape_and_determinism() {
        let build = || {
            let mut p = PulseRecorder::new(64, 2);
            for w in 0..3u64 {
                p.record_window(w * 64, &scalars(&p, w), &stages(w), &[(2, [10, 20, 30, 40])]);
            }
            p.to_json(4)
        };
        let j = build();
        assert_eq!(j, build(), "JSON must be byte-stable");
        for needle in [
            "\"interval_cycles\": 64",
            "\"goodput_bytes\": [0, 1, 2]",
            "\"stage.rx_ingest.p99_cycles\"",
            "\"flow\": 2",
            "\"srtt_ns\": [30, 30, 30]",
            "\"digest\":",
        ] {
            assert!(j.contains(needle), "missing {needle} in:\n{j}");
        }
        let doc = crate::json::parse(&j).expect("pulse JSON parses");
        let series = doc.get("series").and_then(Value::entries).unwrap();
        assert_eq!(series.len(), SERIES_COUNT + STAGE_COUNT);
        let flow = &doc.get("flows").and_then(Value::as_array).unwrap()[0];
        assert_eq!(flow.get("flow").and_then(Value::as_u64), Some(2));
        assert_eq!(flow.get("cwnd").and_then(Value::as_array).map(<[Value]>::len), Some(3));
    }

    #[test]
    fn json_is_byte_stable_when_empty() {
        let p = PulseRecorder::new(64, 2);
        let j = p.to_json(4);
        assert_eq!(j, p.to_json(4));
        let doc = crate::json::parse(&j).expect("empty pulse JSON parses");
        assert_eq!(doc.get("windows_recorded").and_then(Value::as_u64), Some(0));
        assert_eq!(doc.get("flows").and_then(Value::as_array), Some(&[][..]));
    }

    #[test]
    fn chrome_counter_events_are_counter_phase() {
        let mut p = PulseRecorder::new(64, 1);
        assert!(p.chrome_counter_events(4).is_empty());
        p.record_window(0, &scalars(&p, 5), &stages(1), &[]);
        p.record_window(64, &scalars(&p, 6), &stages(1), &[]);
        let ev = p.chrome_counter_events(4);
        assert!(ev.contains("\"ph\": \"C\""));
        assert!(ev.contains("\"name\": \"pulse.goodput_bytes\""));
        // Window 1 is cycle 64 -> 256 ns -> 0.256 us.
        assert!(ev.contains("\"ts\": 0.256"), "integer-us timestamps:\n{ev}");
        // A comma-joined event list: splices into an array, no stray comma.
        let events = crate::json::parse(&format!("[{ev}]")).expect("events parse");
        assert_eq!(events.as_array().map(<[Value]>::len), Some(2 * PulseSeries::CHROME.len()));
    }

    #[test]
    fn collect_reports_registry_metrics() {
        let mut p = PulseRecorder::new(64, 1);
        p.record_window(0, &scalars(&p, 7), &stages(2), &[]);
        let mut reg = MetricsRegistry::new();
        p.collect("engine.pulse", &mut reg);
        assert_eq!(reg.counter_value("engine.pulse.windows_recorded"), 1);
        assert_eq!(reg.gauge_value("engine.pulse.last.goodput_bytes") as u64, 7);
        assert_eq!(reg.gauge_value("engine.pulse.last.stage.rx_ingest.tail_cycles") as u64, 20);
    }

    #[test]
    fn aggregate_sums_scalars_and_maxes_stages() {
        let mut a = PulseRecorder::new(64, 1);
        let mut b = PulseRecorder::new(64, 1);
        for w in 0..2u64 {
            a.record_window(w * 64, &scalars(&a, w), &stages(1), &[]);
            b.record_window(w * 64, &scalars(&b, w + 10), &stages(3), &[]);
        }
        let j = PulseRecorder::aggregate_json(&[&a, &b]);
        assert_eq!(j, PulseRecorder::aggregate_json(&[&a, &b]), "byte-stable");
        // goodput: (0+10), (1+11); stage p99 takes the max (30..).
        assert!(j.contains("\"goodput_bytes\": [10, 12]"), "{j}");
        assert!(j.contains("\"stage.rx_ingest.p99_cycles\": [30, 30]"), "{j}");
        let merged = |j: &str| {
            let doc = crate::json::parse(j).expect("aggregate JSON parses");
            assert_eq!(doc.get("shards").and_then(Value::as_u64), Some(2));
            doc.get("merged_digest").and_then(Value::as_u64).expect("full-width digest")
        };
        let swapped = PulseRecorder::aggregate_json(&[&b, &a]);
        assert_eq!(merged(&j), fold_digests([a.digest(), b.digest()]));
        assert_ne!(merged(&j), merged(&swapped), "merge order is fixed, not commutative");
    }
}
