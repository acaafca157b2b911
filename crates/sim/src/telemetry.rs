//! FtScope — the observability substrate: a metrics registry with
//! snapshot/delta semantics, a bounded structured trace ring, and
//! Chrome-trace-viewer JSON export.
//!
//! The hot path stays plain `u64` fields inside each module (incremented
//! with `#[inline]` adds, zero allocation); this module only defines the
//! *collection* side: modules report their counters into a
//! [`MetricsRegistry`] on demand (`Engine::telemetry` walks every
//! submodule), and two registries taken at different times can be
//! subtracted with [`MetricsRegistry::delta`] for windowed sampling.
//!
//! Tracing is off by default. Armed, a [`TraceRing`] is one more view on
//! the [`Probe`](crate::Probe): it sees every journal emission, unsampled,
//! and maps each kind to its Chrome event itself, so no module knows the
//! trace exists; detached, it costs one branch per emission. The newest
//! events win (ring wraparound) and the buffer exports as the Chrome
//! trace event format, loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev).

use crate::journal::{Journal, JournalKind};
use crate::json::{fmt_f64, push_quoted};
use crate::ring::Ring;
use crate::stats::Histogram;
use std::collections::BTreeMap;

/// Point-in-time value of one named metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing count (deltas are meaningful).
    Counter(u64),
    /// Instantaneous level (deltas keep the later value).
    Gauge(f64),
    /// Distribution summary captured from a [`Histogram`].
    Histogram(HistogramSummary),
}

/// The fixed-size summary a [`Histogram`] exports into a registry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Smallest sample (zero when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (~3 % bucket error).
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    /// Summarizes `h`.
    pub fn of(h: &Histogram) -> HistogramSummary {
        HistogramSummary {
            count: h.count(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.percentile(50.0),
            p99: h.percentile(99.0),
        }
    }
}

/// A named snapshot of every metric a component tree reported.
///
/// Names are dot-separated paths (`engine.fpc0.stall.fifo_empty`); the
/// `BTreeMap` keeps JSON output and iteration deterministic.
///
/// # Examples
///
/// ```
/// use f4t_sim::telemetry::MetricsRegistry;
/// let mut a = MetricsRegistry::new();
/// a.counter("engine.events", 10);
/// let mut b = MetricsRegistry::new();
/// b.counter("engine.events", 25);
/// assert_eq!(b.delta(&a).counter_value("engine.events"), 15);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Reports a counter (monotonic) value.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.metrics.insert(name.to_string(), MetricValue::Counter(value));
    }

    /// Reports a gauge (instantaneous) value.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), MetricValue::Gauge(value));
    }

    /// Reports a histogram's summary.
    pub fn histogram(&mut self, name: &str, h: &Histogram) {
        self.metrics.insert(name.to_string(), MetricValue::Histogram(HistogramSummary::of(h)));
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// Convenience: a counter's value, zero when absent or non-counter.
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Convenience: a gauge's value, zero when absent or non-gauge.
    pub fn gauge_value(&self, name: &str) -> f64 {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0.0,
        }
    }

    /// Number of metrics in the registry.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Windowed view: counters become `self - earlier` (saturating, so a
    /// component reset never underflows); gauges and histogram summaries
    /// keep this (the later) snapshot's value. Metrics absent from
    /// `earlier` are treated as starting at zero.
    pub fn delta(&self, earlier: &MetricsRegistry) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        for (name, value) in &self.metrics {
            let v = match (value, earlier.metrics.get(name)) {
                (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                    MetricValue::Counter(now.saturating_sub(*then))
                }
                (v, _) => v.clone(),
            };
            out.metrics.insert(name.clone(), v);
        }
        out
    }

    /// Serializes the registry in the Prometheus text exposition format
    /// (version 0.0.4). Dots in metric names become underscores
    /// (`engine.fpc0.stall` → `engine_fpc0_stall`); counters and gauges
    /// emit one sample each, histograms emit as summaries with
    /// `quantile` labels plus `_sum`/`_count`/`_min`/`_max` series.
    /// Deterministic: names are BTreeMap-ordered and numbers use the
    /// same formatter as [`MetricsRegistry::to_json`].
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let pname = prometheus_name(name);
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {pname} counter\n{pname} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {pname} gauge\n{pname} {}\n", fmt_f64(*v)));
                }
                MetricValue::Histogram(h) => {
                    // Approximate sum from the stored mean (the registry
                    // keeps a fixed-size summary, not raw samples).
                    let sum = (h.mean * h.count as f64).round() as u64;
                    out.push_str(&format!(
                        "# TYPE {pname} summary\n\
                         {pname}{{quantile=\"0.5\"}} {}\n\
                         {pname}{{quantile=\"0.99\"}} {}\n\
                         {pname}_sum {sum}\n\
                         {pname}_count {}\n\
                         {pname}_min {}\n\
                         {pname}_max {}\n",
                        h.p50, h.p99, h.count, h.min, h.max
                    ));
                }
            }
        }
        out
    }

    /// Serializes the registry as a JSON object (hand-rolled — the build
    /// has no serde). Counters emit as integers, gauges as floats,
    /// histograms as nested objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("  ");
            push_quoted(&mut out, name);
            out.push_str(": ");
            match value {
                MetricValue::Counter(v) => out.push_str(&v.to_string()),
                MetricValue::Gauge(v) => out.push_str(&fmt_f64(*v)),
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \"p50\": {}, \"p99\": {}}}",
                        h.count, h.min, h.max, fmt_f64(h.mean), h.p50, h.p99
                    ));
                }
            }
        }
        out.push_str("\n}\n");
        out
    }
}

/// Maps a dotted metric path onto a Prometheus-legal metric name:
/// `[a-zA-Z0-9_:]` pass through, everything else (dots included) becomes
/// an underscore, and a leading digit gains a `_` prefix.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// The trace viewer's tracks, in `tid` order (`tid` = index + 1).
const TRACKS: [&str; 6] = ["intake", "scheduler", "fpc", "memory", "tx", "overload"];

/// The Chrome event a journal kind shows as: its name and its index in
/// [`TRACKS`]; `None` for kinds the trace leaves to the journal.
fn chrome_event(kind: JournalKind) -> Option<(&'static str, usize)> {
    Some(match kind {
        JournalKind::HostEvent => ("host_enqueue", 0),
        JournalKind::SegAccepted => ("rx_enqueue", 0),
        JournalKind::EventRouted => ("route", 1),
        JournalKind::EventMerged => ("coalesce", 1),
        JournalKind::FpuDecision => ("dispatch", 2),
        JournalKind::TcbMigrateStart => ("migrate_start", 3),
        JournalKind::TcbMigrateDone => ("migrate_done", 3),
        JournalKind::TcbEvict => ("evict", 3),
        JournalKind::TcbInstall => ("swap_in", 3),
        JournalKind::Retransmit => ("retransmit", 4),
        JournalKind::TxEmit => ("tx_segment", 4),
        JournalKind::EventDropped => ("drop", 5),
        _ => return None,
    })
}

/// The kinds the ring keeps as one per-tick count rather than one event
/// per emission, in the order [`TraceRing::flush_counts`] records them.
/// `Retransmit` counts `TxEmit`s with `b = 1` (retransmitted segments),
/// not the FPU's own `Retransmit` requests.
const COUNTED: [JournalKind; 5] = [
    JournalKind::EventMerged,
    JournalKind::EventRouted,
    JournalKind::EventDropped,
    JournalKind::TcbMigrateStart,
    JournalKind::Retransmit,
];

/// One structured pipeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Engine cycle at which the event occurred.
    pub cycle: u64,
    /// The journal kind the event shows; `Retransmit` marks the per-tick
    /// count of retransmitted segments (`TxEmit` with `b = 1`).
    pub kind: JournalKind,
    /// Flow the event belongs to (0 for counts and TX segments).
    pub flow: u32,
    /// Kind-specific argument: FPC id, payload bytes or a count.
    pub arg: u64,
}

/// FtScope's pipeline trace: a view of the journal's emission stream
/// kept in a bounded [`Ring`] of [`TraceEvent`]s.
///
/// [`Probe::event`](crate::Probe::event) hands every emission to
/// [`observe`](Self::observe), unsampled. Host events, accepted
/// segments, FPU decisions, evictions, installs, DRAM write-backs
/// (`TcbMigrateDone` with `a = 0`) and emitted segments each become one
/// event. Merges, FPC/DRAM routes, drops, migration starts and
/// retransmitted segments are counted instead, and
/// [`flush_counts`](Self::flush_counts) records each nonzero count as one
/// event. When full, the oldest events are overwritten so the buffer
/// always holds the newest window.
///
/// # Examples
///
/// ```
/// use f4t_sim::telemetry::TraceRing;
/// use f4t_sim::JournalKind;
/// let mut ring = TraceRing::new(2);
/// ring.observe(1, JournalKind::FpuDecision, 7, 0, 0);
/// ring.observe(2, JournalKind::EventMerged, 7, 0, 0);
/// ring.observe(2, JournalKind::EventMerged, 9, 1, 0);
/// ring.flush_counts(2); // one `coalesce` event, arg 2
/// ring.observe(3, JournalKind::FpuDecision, 7, 1, 0); // overwrites cycle 1
/// let kept: Vec<(u64, u64)> = ring.iter().map(|e| (e.cycle, e.arg)).collect();
/// assert_eq!(kept, [(2, 2), (3, 1)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceRing {
    ring: Ring<TraceEvent>,
    /// Emissions of each [`COUNTED`] kind since the last flush.
    counts: [u64; COUNTED.len()],
}

impl TraceRing {
    /// Creates a ring holding up to `capacity` events (zero keeps none).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing { ring: Ring::new(capacity), counts: [0; COUNTED.len()] }
    }

    /// Takes one journal emission: counts it, records it, or ignores it.
    /// Kept out of line so each `Probe::event` site inlines only the
    /// attached-view branch.
    #[inline(never)]
    pub fn observe(&mut self, cycle: u64, kind: JournalKind, flow: u32, a: u64, b: u64) {
        // Position in `COUNTED`.
        let counted = match kind {
            JournalKind::EventMerged => Some(0),
            JournalKind::EventRouted if a != Journal::ROUTE_PARKED => Some(1),
            JournalKind::EventDropped => Some(2),
            JournalKind::TcbMigrateStart => Some(3),
            JournalKind::TxEmit if b == 1 => Some(4),
            _ => None,
        };
        if let Some(i) = counted {
            self.counts[i] += 1;
        }
        let (flow, arg) = match kind {
            JournalKind::HostEvent | JournalKind::SegAccepted => (flow, 0),
            JournalKind::FpuDecision | JournalKind::TcbEvict | JournalKind::TcbInstall => (flow, a),
            JournalKind::TcbMigrateDone if a == 0 => (flow, 0),
            JournalKind::TxEmit => (0, a),
            _ => return,
        };
        self.ring.push(TraceEvent { cycle, kind, flow, arg });
    }

    /// Records each nonzero count since the last flush as one event at
    /// `cycle` (coalesce, route, drop, migrate_start, retransmit, in that
    /// order) and resets the counts.
    pub fn flush_counts(&mut self, cycle: u64) {
        for (kind, n) in COUNTED.into_iter().zip(&mut self.counts) {
            if *n > 0 {
                self.ring.push(TraceEvent { cycle, kind, flow: 0, arg: std::mem::take(n) });
            }
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Lifetime events recorded (including since-overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.ring.total()
    }

    /// Events lost to wraparound.
    pub fn overwritten(&self) -> u64 {
        self.ring.overwritten()
    }

    /// Iterates events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Exports the ring as Chrome trace event format JSON (open in
    /// `chrome://tracing` or <https://ui.perfetto.dev>). `cycle_ns` is
    /// the engine cycle period in nanoseconds (4 at 250 MHz); timestamps
    /// are microseconds as the format requires.
    pub fn to_chrome_json(&self, cycle_ns: u64) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        let mut first = true;
        // Name the tracks once via metadata events.
        for (i, name) in TRACKS.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {}, \
                 \"args\": {{\"name\": \"{name}\"}}}}",
                i + 1
            ));
        }
        for ev in self.iter() {
            let Some((name, track)) = chrome_event(ev.kind) else { continue };
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let ts_us = ev.cycle as f64 * cycle_ns as f64 / 1000.0;
            out.push_str(&format!(
                "{{\"name\": \"{name}\", \"cat\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \
                 \"ts\": {}, \"pid\": 0, \"tid\": {}, \
                 \"args\": {{\"flow\": {}, \"arg\": {}, \"cycle\": {}}}}}",
                TRACKS[track],
                ts_us,
                track + 1,
                ev.flow,
                ev.arg,
                ev.cycle
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    /// Parses a Chrome-trace export and returns its `traceEvents` array.
    fn trace_events(j: &str) -> Vec<Value> {
        let doc = crate::json::parse(j).expect("trace JSON parses");
        assert_eq!(doc.get("displayTimeUnit").and_then(Value::as_str), Some("ns"));
        doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents array").to_vec()
    }

    #[test]
    fn registry_round_trip() {
        let mut r = MetricsRegistry::new();
        r.counter("a.count", 5);
        r.gauge("a.depth", 2.5);
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        r.histogram("a.lat", &h);
        assert_eq!(r.counter_value("a.count"), 5);
        assert_eq!(r.gauge_value("a.depth"), 2.5);
        assert_eq!(r.len(), 3);
        match r.get("a.lat") {
            Some(MetricValue::Histogram(s)) => {
                assert_eq!(s.count, 2);
                assert_eq!(s.min, 10);
                assert_eq!(s.max, 20);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn snapshot_delta_round_trip() {
        let mut earlier = MetricsRegistry::new();
        earlier.counter("x.events", 100);
        earlier.gauge("x.depth", 7.0);
        let mut later = MetricsRegistry::new();
        later.counter("x.events", 150);
        later.counter("x.new", 3);
        later.gauge("x.depth", 2.0);
        let d = later.delta(&earlier);
        assert_eq!(d.counter_value("x.events"), 50, "counters subtract");
        assert_eq!(d.counter_value("x.new"), 3, "missing-in-earlier counts from zero");
        assert_eq!(d.gauge_value("x.depth"), 2.0, "gauges keep the later value");
        // Underflow (component reset) saturates instead of wrapping.
        let d2 = earlier.delta(&later);
        assert_eq!(d2.counter_value("x.events"), 0);
    }

    #[test]
    fn json_is_well_formed() {
        let mut r = MetricsRegistry::new();
        r.counter("c", 1);
        r.gauge("g", 1.5);
        let mut h = Histogram::new();
        h.record(42);
        r.histogram("h", &h);
        let j = crate::json::parse(&r.to_json()).expect("registry JSON parses");
        let keys: Vec<&str> = j.entries().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["c", "g", "h"], "name order");
        assert_eq!(j.get("c").and_then(Value::as_u64), Some(1));
        assert_eq!(j.get("g").and_then(Value::as_f64), Some(1.5));
        assert_eq!(j.get("h").and_then(|h| h.get("p99")).and_then(Value::as_u64), Some(42));
    }

    #[test]
    fn prometheus_round_trip() {
        let mut r = MetricsRegistry::new();
        r.counter("engine.fpc0.events", 42);
        r.gauge("engine.tx_out.depth", 3.5);
        let mut h = Histogram::new();
        h.record(10);
        h.record(30);
        r.histogram("engine.flight.fpu_process.cycles", &h);
        let text = r.to_prometheus();

        // Parse the exposition text back into (name, value) samples and
        // check every registry entry survived the trip.
        let mut samples = std::collections::BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            samples.insert(name.to_string(), value.to_string());
        }
        assert_eq!(samples.get("engine_fpc0_events").unwrap(), "42");
        assert_eq!(samples.get("engine_tx_out_depth").unwrap(), "3.5");
        let p = "engine_flight_fpu_process_cycles";
        assert_eq!(samples.get(&format!("{p}{{quantile=\"0.5\"}}")).unwrap(), "10");
        assert_eq!(samples.get(&format!("{p}_count")).unwrap(), "2");
        assert_eq!(samples.get(&format!("{p}_min")).unwrap(), "10");
        assert_eq!(samples.get(&format!("{p}_max")).unwrap(), "30");
        assert_eq!(samples.get(&format!("{p}_sum")).unwrap(), "40");
        // Every non-comment line is `name[{labels}] value`, values numeric.
        for v in samples.values() {
            v.parse::<f64>().expect("numeric sample value");
        }
        // Each registry metric has exactly one # TYPE line.
        assert_eq!(text.matches("# TYPE ").count(), r.len());
    }

    #[test]
    fn prometheus_name_sanitization() {
        assert_eq!(prometheus_name("a.b-c.d"), "a_b_c_d");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("ok_name:x"), "ok_name:x");
    }

    #[test]
    fn trace_ring_wraparound() {
        let mut ring = TraceRing::new(4);
        for c in 0..10u64 {
            ring.observe(c, JournalKind::FpuDecision, c as u32, 0, 0);
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.total_recorded(), 10);
        assert_eq!(ring.overwritten(), 6);
        let cycles: Vec<u64> = ring.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, [6, 7, 8, 9], "newest window survives, oldest-first order");
    }

    /// Each emission maps to its row: `flow`/`arg` per the DESIGN.md §7
    /// table, parked routes, FPC-side installs and unmapped kinds ignored,
    /// and the counts flushed in `COUNTED` order, zero counts skipped.
    #[test]
    fn observe_maps_each_kind_and_flush_orders_the_counts() {
        use JournalKind::*;
        let mut ring = TraceRing::new(64);
        for (kind, a, b) in [
            (HostEvent, 2, 0),
            (SegAccepted, 1448, 1),
            (FpuDecision, 1, 77),
            (TcbEvict, 1, 0),
            (TcbInstall, 0, 0),
            (TcbMigrateDone, 0, Journal::DRAM_SLOT),
            (TcbMigrateDone, 1, 0),
            (TxEmit, 1448, 1),
            (TxEmit, 512, 0),
            (TcbMigrateStart, 0, 1),
            (EventRouted, Journal::ROUTE_FPC, 0),
            (EventRouted, Journal::ROUTE_DRAM, 0),
            (EventRouted, Journal::ROUTE_PARKED, 2),
            (EventMerged, 3, 0),
            (Retransmit, 100, 1448),
            (CuckooHit, 1, 0),
        ] {
            ring.observe(9, kind, 5, a, b);
        }
        ring.flush_counts(9);
        let rows: Vec<(&str, u32, u64)> = ring
            .iter()
            .map(|e| (chrome_event(e.kind).expect("only traced kinds are kept").0, e.flow, e.arg))
            .collect();
        assert_eq!(
            rows,
            [
                ("host_enqueue", 5, 0),
                ("rx_enqueue", 5, 0),
                ("dispatch", 5, 1),
                ("evict", 5, 1),
                ("swap_in", 5, 0),
                ("migrate_done", 5, 0),
                ("tx_segment", 0, 1448),
                ("tx_segment", 0, 512),
                ("coalesce", 0, 1),
                ("route", 0, 2),
                ("migrate_start", 0, 1),
                ("retransmit", 0, 1),
            ]
        );
        ring.flush_counts(10);
        assert_eq!(ring.len(), rows.len(), "a flush resets the counts");
    }

    #[test]
    fn chrome_json_shape() {
        let mut ring = TraceRing::new(8);
        ring.observe(100, JournalKind::TcbMigrateDone, 5, 0, 255);
        ring.observe(101, JournalKind::TxEmit, 5, 1460, 0);
        let events = trace_events(&ring.to_chrome_json(4));
        assert_eq!(events.len(), 6 + 2, "six track names, two data events");
        let done = &events[6];
        assert_eq!(done.get("name").and_then(Value::as_str), Some("migrate_done"));
        assert_eq!(done.get("cat").and_then(Value::as_str), Some("memory"));
        // cycle 100 at 4 ns/cycle = 400 ns = 0.4 µs.
        assert_eq!(done.get("ts").and_then(Value::as_f64), Some(0.4));
        let tx = &events[7];
        assert_eq!(tx.get("tid").and_then(Value::as_u64), Some(5));
        assert_eq!(tx.get("args").and_then(|a| a.get("arg")).and_then(Value::as_u64), Some(1460));
    }

    #[test]
    fn capacity_zero_ring_is_inert() {
        let mut ring = TraceRing::new(0);
        assert_eq!(ring.capacity(), 0);
        for c in 0..100u64 {
            ring.observe(c, JournalKind::EventRouted, 1, Journal::ROUTE_FPC, 2);
            ring.flush_counts(c);
        }
        assert!(ring.is_empty());
        assert_eq!(ring.len(), 0);
        assert_eq!(ring.total_recorded(), 0);
        assert_eq!(ring.overwritten(), 0, "no events were ever stored, none lost");
        assert_eq!(ring.iter().count(), 0);
        // Export still produces valid JSON: the six track names, no data.
        let events = trace_events(&ring.to_chrome_json(4));
        assert_eq!(events.len(), 6);
        assert!(events.iter().all(|e| e.get("ph").and_then(Value::as_str) == Some("M")));
    }

    #[test]
    fn chrome_json_on_wrapped_ring_orders_and_balances() {
        let mut ring = TraceRing::new(4);
        // Fill, then wrap past the boundary so head sits mid-buffer.
        for c in 0..7u64 {
            ring.observe(c, JournalKind::TxEmit, c as u32, c * 10, 0);
        }
        // Events must export oldest-first even though the backing buffer
        // is physically rotated: exactly cycles 3,4,5,6 in that order,
        // the overwritten ones absent.
        let events = trace_events(&ring.to_chrome_json(4));
        let cycles: Vec<u64> = events[6..]
            .iter()
            .map(|e| e.get("args").and_then(|a| a.get("cycle")).and_then(Value::as_u64).unwrap())
            .collect();
        assert_eq!(cycles, [3, 4, 5, 6]);
    }
}
