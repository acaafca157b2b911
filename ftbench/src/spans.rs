//! The benchmark's own span recorder. Spans wrap only calls the
//! benchmark itself makes into the library (in-program spans are a later
//! issue); they are kept in memory and written as a Chrome trace when the
//! traced run ends. Per-name totals are maintained online, so self time
//! stays exact even after the stored-span cap is reached.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Stored spans are capped so a run with millions of short calls cannot
/// balloon memory or the trace file; totals keep counting past the cap.
pub const STORED_SPAN_CAP: usize = 200_000;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the recorder.
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    /// Call-site name.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// Running totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans closed under this name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the part covered by direct children.
    pub self_ns: u64,
}

#[derive(Debug)]
struct Open {
    id: u32,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    open: Vec<Open>,
    spans: Vec<Span>,
    next_id: u32,
    totals: BTreeMap<&'static str, Totals>,
}

impl Default for SpanRecorder {
    fn default() -> SpanRecorder {
        SpanRecorder::new()
    }
}

impl SpanRecorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> SpanRecorder {
        SpanRecorder {
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
            next_id: 0,
            totals: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the currently open one.
    pub fn enter(&mut self, name: &'static str) {
        let t = self.now_ns();
        self.enter_at(name, t);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let t = self.now_ns();
        self.exit_at(t);
    }

    /// [`enter`](Self::enter) with an explicit timestamp.
    pub fn enter_at(&mut self, name: &'static str, start_ns: u64) {
        self.open.push(Open {
            id: self.next_id,
            name,
            start_ns,
            child_ns: 0,
        });
        self.next_id += 1;
    }

    /// [`exit`](Self::exit) with an explicit timestamp. A stray exit with
    /// nothing open is ignored.
    pub fn exit_at(&mut self, end_ns: u64) {
        let Some(o) = self.open.pop() else { return };
        let dur = end_ns.saturating_sub(o.start_ns);
        let t = self.totals.entry(o.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(o.child_ns);
        let parent = self.open.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        if self.spans.len() < STORED_SPAN_CAP {
            self.spans.push(Span {
                id: o.id,
                parent,
                name: o.name,
                start_ns: o.start_ns,
                end_ns,
            });
        }
    }

    /// Stored spans, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, in name order.
    pub fn totals(&self) -> &BTreeMap<&'static str, Totals> {
        &self.totals
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"ph": "X"`) event per stored span, microsecond units,
    /// with the `{id, parent}` pair in `args`, plus the per-name totals.
    pub fn to_chrome_trace(&self, workload: &str) -> Value {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = Value::obj();
                args.set("id", u64::from(s.id).into());
                args.set(
                    "parent",
                    s.parent.map_or(Value::Null, |p| u64::from(p).into()),
                );
                args.set("start_ns", s.start_ns.into());
                args.set("end_ns", s.end_ns.into());
                let mut e = Value::obj();
                e.set("name", s.name.into());
                e.set("cat", workload.into());
                e.set("ph", "X".into());
                e.set("pid", 1u64.into());
                e.set("tid", 1u64.into());
                e.set("ts", Value::Num(s.start_ns as f64 / 1e3));
                e.set("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3));
                e.set("args", args);
                e
            })
            .collect();
        let mut totals = Value::obj();
        for (name, t) in &self.totals {
            let mut row = Value::obj();
            row.set("count", t.count.into());
            row.set("total_ns", t.total_ns.into());
            row.set("self_ns", t.self_ns.into());
            totals.set(name, row);
        }
        let mut doc = Value::obj();
        doc.set("displayTimeUnit", "ns".into());
        doc.set("spansStored", (self.spans.len() as u64).into());
        doc.set(
            "spansClosed",
            self.totals.values().map(|t| t.count).sum::<u64>().into(),
        );
        doc.set("totals", totals);
        doc.set("traceEvents", Value::Arr(events));
        doc
    }
}

/// A span recorder that may be switched off: the untraced reps pass
/// `Tracer::off()` through the same code path and pay one branch per
/// span site.
#[derive(Debug, Default)]
pub struct Tracer(Option<SpanRecorder>);

impl Tracer {
    /// No recording.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// Recording from now.
    pub fn on() -> Tracer {
        Tracer(Some(SpanRecorder::new()))
    }

    /// Opens a span (no-op when off).
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if let Some(r) = &mut self.0 {
            r.enter(name);
        }
    }

    /// Closes the innermost span (no-op when off).
    #[inline]
    pub fn exit(&mut self) {
        if let Some(r) = &mut self.0 {
            r.exit();
        }
    }

    /// The recorder, when on.
    pub fn recorder(&self) -> Option<&SpanRecorder> {
        self.0.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut r = SpanRecorder::new();
        r.enter_at("measure", 0);
        r.enter_at("engine.run", 10);
        r.exit_at(40); // 30 ns
        r.enter_at("peer.ack", 40);
        r.enter_at("engine.push_rx", 45);
        r.exit_at(55); // 10 ns, child of peer.ack
        r.exit_at(70); // peer.ack: 30 total, 20 self
        r.enter_at("engine.run", 70);
        r.exit_at(90); // 20 ns
        r.exit_at(100); // measure: 100 total, children 30 + 30 + 20
        let t = r.totals();
        assert_eq!(
            t["measure"],
            Totals {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(
            t["engine.run"],
            Totals {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        assert_eq!(
            t["peer.ack"],
            Totals {
                count: 1,
                total_ns: 30,
                self_ns: 20
            }
        );
        assert_eq!(
            t["engine.push_rx"],
            Totals {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        // Self times partition the root span exactly.
        let self_sum: u64 = t.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, 100);
    }

    #[test]
    fn parents_and_ids_are_recorded() {
        let mut r = SpanRecorder::new();
        r.enter_at("a", 0);
        r.enter_at("b", 1);
        r.exit_at(2);
        r.exit_at(3);
        r.exit_at(4); // stray exit: ignored
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[0],
            Span {
                id: 1,
                parent: Some(0),
                name: "b",
                start_ns: 1,
                end_ns: 2
            }
        );
        assert_eq!(
            spans[1],
            Span {
                id: 0,
                parent: None,
                name: "a",
                start_ns: 0,
                end_ns: 3
            }
        );
        let doc = r.to_chrome_trace("w");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(crate::json::parse(&doc.to_compact()).unwrap(), doc);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::off();
        t.enter("x");
        t.exit();
        assert!(t.recorder().is_none());
        let mut t = Tracer::on();
        t.enter("x");
        t.exit();
        assert_eq!(t.recorder().unwrap().totals()["x"].count, 1);
    }
}
