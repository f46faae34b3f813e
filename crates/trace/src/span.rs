//! The trace event model: fixed-size, allocation-free records.
//!
//! A [`TraceEvent`] is a `Copy` value small enough to push through the
//! lock-free [`crate::FlightRecorder`] without touching the heap. Names,
//! categories, and argument keys are `&'static str` by design: the hot
//! path (one event per pipeline operation) must not format or allocate.
//!
//! Timestamps are plain `u64`s in whatever unit the producer uses —
//! the VLSA pipeline uses *clock cycles*, which keeps traces bit-for-bit
//! deterministic and replayable. The Chrome exporter maps one unit to
//! one microsecond so Perfetto renders cycles directly.

use std::fmt;

/// Maximum key/value arguments a single event can carry.
pub const MAX_ARGS: usize = 6;

/// Well-known span names the workspace's instrumented code emits, so
/// exporters, tests, and trace consumers agree on spellings.
///
/// The pipeline's per-op state machine emits [`names::OP`] /
/// [`names::SPECULATE`] / [`names::DETECT`] / [`names::RECOVER`] /
/// [`names::STALL`] plus, under faults, [`names::RESIDUE_RETRY`] /
/// [`names::ESCALATE`] / [`names::WATCHDOG`] / [`names::DEGRADE`] /
/// [`names::EXACT_OP`], all in category `"resilience"` (the plain
/// `VlsaPipeline` is a view over that machine); the issue-queue model
/// emits the per-op names in category `"queue"`; the conformance
/// monitor adds [`names::WINDOW`] / [`names::ALERT`] (category
/// `"monitor"`).
pub mod names {
    /// One completed operation (the replay source).
    pub const OP: &str = "op";
    /// The single-cycle speculative attempt.
    pub const SPECULATE: &str = "speculate";
    /// The `ER` detector fired.
    pub const DETECT: &str = "detect";
    /// The recovery cycle rebuilding the exact sum.
    pub const RECOVER: &str = "recover";
    /// A stall bubble (`STALL` high).
    pub const STALL: &str = "stall";
    /// A queued arrival was dropped (issue-stage stall).
    pub const DROP: &str = "drop";
    /// The residue checker rejected a delivered sum; the op re-runs.
    pub const RESIDUE_RETRY: &str = "residue_retry";
    /// Retries exhausted: the op escalated to the exact fallback path.
    pub const ESCALATE: &str = "escalate";
    /// The recovery watchdog bounded a stall and forced the fallback.
    pub const WATCHDOG: &str = "watchdog";
    /// The pipeline crossed the degradation threshold and switched to
    /// the exact adder for the rest of the stream.
    pub const DEGRADE: &str = "degrade";
    /// An operation served by the exact path while degraded.
    pub const EXACT_OP: &str = "exact_op";
    /// The conformance monitor raised a drift alert (category
    /// `"monitor"`): live traffic no longer matches the uniform-operand
    /// model the speculation window was sized against.
    pub const ALERT: &str = "alert";
    /// The conformance monitor closed and evaluated one sliding window
    /// (category `"monitor"`).
    pub const WINDOW: &str = "window";
    /// An SLO burn-rate rule transitioned (fired or cleared) — category
    /// `"slo"`, emitted by `vlsa-slo`'s engine.
    pub const SLO_BURN: &str = "slo_burn";
}

/// Chrome trace-event phase of a [`TraceEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// A complete span: `ts` .. `ts + dur` (Chrome `"X"`).
    Complete,
    /// A point-in-time marker (Chrome `"i"`).
    Instant,
    /// A sampled counter value (Chrome `"C"`); the value rides in the
    /// event's arguments.
    Counter,
}

impl Phase {
    /// The Chrome trace-event `ph` letter.
    pub fn code(self) -> &'static str {
        match self {
            Phase::Complete => "X",
            Phase::Instant => "i",
            Phase::Counter => "C",
        }
    }
}

/// One traced span, marker, or counter sample.
///
/// # Examples
///
/// ```
/// use vlsa_trace::TraceEvent;
///
/// let ev = TraceEvent::complete("op", "pipeline", 10, 2)
///     .on_track(1)
///     .arg("i", 7)
///     .arg("err", 1);
/// assert_eq!(ev.ts, 10);
/// assert_eq!(ev.dur, 2);
/// assert_eq!(ev.args(), &[("i", 7), ("err", 1)]);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (the span label in a viewer).
    pub name: &'static str,
    /// Category, e.g. `"pipeline"` or `"sim"`.
    pub cat: &'static str,
    /// Event phase.
    pub ph: Phase,
    /// Start timestamp (cycles for the VLSA pipeline).
    pub ts: u64,
    /// Duration for [`Phase::Complete`] events; 0 otherwise.
    pub dur: u64,
    /// Track (Chrome `tid`) the event renders on.
    pub track: u32,
    nargs: u8,
    args: [(&'static str, u64); MAX_ARGS],
}

impl TraceEvent {
    fn new(name: &'static str, cat: &'static str, ph: Phase, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat,
            ph,
            ts,
            dur,
            track: 0,
            nargs: 0,
            args: [("", 0); MAX_ARGS],
        }
    }

    /// A complete span covering `ts .. ts + dur`.
    pub fn complete(name: &'static str, cat: &'static str, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent::new(name, cat, Phase::Complete, ts, dur)
    }

    /// An instantaneous marker at `ts`.
    pub fn instant(name: &'static str, cat: &'static str, ts: u64) -> TraceEvent {
        TraceEvent::new(name, cat, Phase::Instant, ts, 0)
    }

    /// A counter sample: `name` takes `value` at `ts`.
    pub fn counter(name: &'static str, cat: &'static str, ts: u64, value: u64) -> TraceEvent {
        TraceEvent::new(name, cat, Phase::Counter, ts, 0).arg("value", value)
    }

    /// Moves the event onto a different display track.
    pub fn on_track(mut self, track: u32) -> TraceEvent {
        self.track = track;
        self
    }

    /// Attaches a key/value argument.
    ///
    /// # Panics
    ///
    /// Panics if the event already carries [`MAX_ARGS`] arguments — a
    /// programming error at the instrumentation site, not a runtime
    /// condition.
    pub fn arg(mut self, key: &'static str, value: u64) -> TraceEvent {
        let n = self.nargs as usize;
        assert!(n < MAX_ARGS, "TraceEvent `{}` has too many args", self.name);
        self.args[n] = (key, value);
        self.nargs += 1;
        self
    }

    /// The attached arguments, in insertion order.
    pub fn args(&self) -> &[(&'static str, u64)] {
        &self.args[..self.nargs as usize]
    }

    /// Looks up an argument by key.
    pub fn get_arg(&self, key: &str) -> Option<u64> {
        self.args().iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {} @{}",
            self.cat,
            self.ph.code(),
            self.name,
            self.ts
        )?;
        if self.ph == Phase::Complete {
            write!(f, "+{}", self.dur)?;
        }
        for (k, v) in self.args() {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_phase_and_fields() {
        let c = TraceEvent::complete("a", "x", 5, 3);
        assert_eq!(c.ph, Phase::Complete);
        assert_eq!((c.ts, c.dur), (5, 3));
        let i = TraceEvent::instant("b", "x", 9);
        assert_eq!(i.ph, Phase::Instant);
        assert_eq!(i.dur, 0);
        let k = TraceEvent::counter("depth", "x", 2, 4);
        assert_eq!(k.ph, Phase::Counter);
        assert_eq!(k.get_arg("value"), Some(4));
    }

    #[test]
    fn args_accumulate_in_order() {
        let ev = TraceEvent::instant("e", "c", 0).arg("a", 1).arg("b", 2);
        assert_eq!(ev.args(), &[("a", 1), ("b", 2)]);
        assert_eq!(ev.get_arg("b"), Some(2));
        assert_eq!(ev.get_arg("nope"), None);
    }

    #[test]
    #[should_panic(expected = "too many args")]
    fn arg_overflow_panics() {
        let mut ev = TraceEvent::instant("e", "c", 0);
        for _ in 0..=MAX_ARGS {
            ev = ev.arg("k", 0);
        }
    }

    #[test]
    fn display_is_compact() {
        let ev = TraceEvent::complete("op", "pipeline", 3, 1).arg("i", 0);
        let s = ev.to_string();
        assert!(s.contains("[pipeline] X op @3+1 i=0"), "{s}");
    }

    #[test]
    fn phase_codes_match_chrome() {
        assert_eq!(Phase::Complete.code(), "X");
        assert_eq!(Phase::Instant.code(), "i");
        assert_eq!(Phase::Counter.code(), "C");
    }
}
