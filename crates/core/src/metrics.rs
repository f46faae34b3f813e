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
//! disabled cost is one relaxed atomic load per addition.

use vlsa_telemetry::names::core as metric;

/// Records one speculative addition's outcome.
#[inline]
pub(crate) fn record_add(error_detected: bool, correct: bool) {
    if !vlsa_telemetry::is_enabled() {
        return;
    }
    let recorder = vlsa_telemetry::recorder();
    recorder.counter(metric::ADDS).incr();
    if error_detected {
        recorder.counter(metric::DETECTOR_FIRES).incr();
        if correct {
            recorder.counter(metric::FALSE_POSITIVES).incr();
        }
    }
    if !correct {
        recorder.counter(metric::TRUE_ERRORS).incr();
    }
}
