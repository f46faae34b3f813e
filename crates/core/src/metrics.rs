//! Telemetry hooks for the software adder model.
//!
//! Metric names ([`vlsa_telemetry::names::core`]):
//!
//! - `vlsa.core.adds` — speculative additions performed
//! - `vlsa.core.detector_fires` — additions where the `ER` signal rose
//! - `vlsa.core.true_errors` — additions whose speculative sum was wrong
//! - `vlsa.core.false_positives` — detector fired but the speculation
//!   was correct (`error_detected && speculative == exact`)
//!
//! Everything is gated on [`vlsa_telemetry::is_enabled`], so the
//! disabled cost is one relaxed atomic load per addition (or per batch,
//! through [`AddTally::record`]).

use vlsa_telemetry::names::core as metric;

/// The `vlsa.core.*` counts of a batch of speculative additions, for
/// callers that take their verdicts from elsewhere (e.g. a batch
/// executor) and record them in one update.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AddTally {
    /// Additions performed.
    pub adds: u64,
    /// Additions where the `ER` detector fired.
    pub detector_fires: u64,
    /// Additions whose speculative sum was wrong.
    pub true_errors: u64,
    /// Detector fires on sums that were nevertheless correct.
    pub false_positives: u64,
}

impl AddTally {
    /// Counts one addition: whether `ER` fired and whether the
    /// speculative sum equals the exact one.
    #[inline]
    pub fn count(&mut self, error_detected: bool, correct: bool) {
        self.adds += 1;
        self.detector_fires += u64::from(error_detected);
        self.true_errors += u64::from(!correct);
        self.false_positives += u64::from(error_detected && correct);
    }

    /// Adds the tally to the `vlsa.core.*` counters when telemetry is
    /// enabled. A zero count leaves its counter untouched, exactly as
    /// the same additions recorded one at a time would.
    pub fn record(&self) {
        if !vlsa_telemetry::is_enabled() {
            return;
        }
        let recorder = vlsa_telemetry::recorder();
        for (name, n) in [
            (metric::ADDS, self.adds),
            (metric::DETECTOR_FIRES, self.detector_fires),
            (metric::FALSE_POSITIVES, self.false_positives),
            (metric::TRUE_ERRORS, self.true_errors),
        ] {
            if n > 0 {
                recorder.counter(name).add(n);
            }
        }
    }
}

/// Records one speculative addition's outcome.
#[inline]
pub(crate) fn record_add(error_detected: bool, correct: bool) {
    let mut tally = AddTally::default();
    tally.count(error_detected, correct);
    tally.record();
}
