//! The probe handle — the one parameter through which the data path
//! reaches its recorders.
//!
//! The engine owns an optional [`InvariantChecker`], [`FlightRecorder`]
//! and [`Journal`]; once per tick it lends them out as a single
//! [`Probe`], every module takes `&mut Probe` in its `tick_probed`, and
//! every helper below that takes the same handle. A site emits through
//! [`Probe::span`] / [`Probe::event`] (one branch when that view is
//! detached) or asks for the checker with [`Probe::check`] where the
//! rule needs module state inline. A new view is one more field here,
//! not a new parameter on every stage (DESIGN.md §8.2).
//!
//! # Examples
//!
//! ```
//! use f4t_sim::{FlightRecorder, FlightStage, Probe};
//! let mut flight = FlightRecorder::new(1);
//! let mut probe = Probe::new(None, Some(&mut flight), None);
//! probe.span(FlightStage::FpuProcess, 7, 14);
//! assert!(probe.check().is_none(), "no checker attached");
//! assert_eq!(flight.spans_recorded(), 1);
//! ```

use crate::check::InvariantChecker;
use crate::flight::{FlightRecorder, FlightStage};
use crate::journal::{Journal, JournalKind, JournalModule};

/// Borrowed view of whichever recorders are attached for this tick.
#[derive(Debug)]
pub struct Probe<'a> {
    check: Option<&'a mut InvariantChecker>,
    flight: Option<&'a mut FlightRecorder>,
    journal: Option<&'a mut Journal>,
}

impl<'a> Probe<'a> {
    /// A probe over the given views; `None` detaches that view.
    pub fn new(
        check: Option<&'a mut InvariantChecker>,
        flight: Option<&'a mut FlightRecorder>,
        journal: Option<&'a mut Journal>,
    ) -> Probe<'a> {
        Probe { check, flight, journal }
    }

    /// A probe with every view detached (what the plain `tick` wrappers
    /// pass).
    pub const fn detached() -> Probe<'static> {
        Probe { check: None, flight: None, journal: None }
    }

    /// The FtVerify checker, for rules evaluated inline against module
    /// state.
    #[inline]
    pub fn check(&mut self) -> Option<&mut InvariantChecker> {
        self.check.as_deref_mut()
    }

    /// The checker and the flight recorder as the separate options
    /// `Scheduler::on_installed` still takes (FtBench binds that
    /// signature).
    pub fn check_and_flight(
        &mut self,
    ) -> (Option<&mut InvariantChecker>, Option<&mut FlightRecorder>) {
        (self.check.as_deref_mut(), self.flight.as_deref_mut())
    }

    /// Records a completed FtFlight span ([`FlightRecorder::record`]).
    #[inline]
    pub fn span(&mut self, stage: FlightStage, flow: u32, cycles: u64) {
        if let Some(f) = &mut self.flight {
            f.record(stage, flow, cycles);
        }
    }

    /// Emits an FtJournal event ([`Journal::record`]).
    #[inline]
    pub fn event(
        &mut self,
        cycle: u64,
        module: JournalModule,
        kind: JournalKind,
        flow: u32,
        a: u64,
        b: u64,
    ) {
        if let Some(j) = &mut self.journal {
            j.record(cycle, module, kind, flow, a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans_and_events(p: &mut Probe) {
        for flow in 0..10u32 {
            p.span(FlightStage::RxIngest, flow, u64::from(flow) + 3);
            p.event(40 + u64::from(flow), JournalModule::RxParser, JournalKind::SegAccepted, flow, 9, 1);
        }
    }

    #[test]
    fn detached_probe_records_nothing() {
        let mut p = Probe::detached();
        spans_and_events(&mut p);
        assert!(p.check().is_none());
        let (chk, flight) = p.check_and_flight();
        assert!(chk.is_none() && flight.is_none());
    }

    /// A detached view's recorder is untouched — not even the sampling
    /// test runs, so `unsampled`/`suppressed` do not move.
    #[test]
    fn each_view_detaches_independently() {
        let (mut flight, mut journal) = (FlightRecorder::new(4), Journal::new(4));
        spans_and_events(&mut Probe::new(None, Some(&mut flight), None));
        assert_eq!((flight.spans_recorded(), flight.spans_unsampled()), (3, 7));
        assert_eq!((journal.events_recorded(), journal.events_suppressed()), (0, 0));
        spans_and_events(&mut Probe::new(None, None, Some(&mut journal)));
        assert_eq!((flight.spans_recorded(), flight.spans_unsampled()), (3, 7));
        assert_eq!((journal.events_recorded(), journal.events_suppressed()), (3, 7));
    }

    #[test]
    fn attached_probe_matches_direct_record_calls() {
        let (mut chk, mut flight, mut journal) =
            (InvariantChecker::new(), FlightRecorder::new(4), Journal::new(3));
        let mut p = Probe::new(Some(&mut chk), Some(&mut flight), Some(&mut journal));
        spans_and_events(&mut p);
        assert!(p.check().is_some());
        let (mut direct_f, mut direct_j) = (FlightRecorder::new(4), Journal::new(3));
        for flow in 0..10u32 {
            direct_f.record(FlightStage::RxIngest, flow, u64::from(flow) + 3);
            direct_j.record(
                40 + u64::from(flow),
                JournalModule::RxParser,
                JournalKind::SegAccepted,
                flow,
                9,
                1,
            );
        }
        assert_eq!(flight.to_json(4), direct_f.to_json(4));
        assert_eq!(flight.spans_unsampled(), direct_f.spans_unsampled());
        assert_eq!(journal.digest(), direct_j.digest());
        assert_eq!(journal.events_suppressed(), direct_j.events_suppressed());
    }
}
