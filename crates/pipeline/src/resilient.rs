//! The crate's one per-op VLSA state machine, with residue checking,
//! bounded retry, escalation to an exact adder, and graceful
//! degradation.
//!
//! With no fault and no residue check, [`ResilientPipeline`] is the
//! paper's handshake — one cycle per op, one more when `ER` fires —
//! and [`crate::VlsaPipeline`] is a streaming view of exactly that. In
//! the paper's design the `ER` detector is the *only* line of defense,
//! and a transient fault that suppresses it turns a wrong speculative
//! sum into silent data corruption (`VALID = 1`, sum wrong).
//! [`ResilientPipeline`] hardens that design:
//!
//! - **Behavioral fault injection** ([`PipelineFault`]): stuck or
//!   transient faults on the detector (`ER` suppressed or forced) and
//!   single-bit flips on the speculative or recovery sum, active over a
//!   cycle window.
//! - **End-to-end residue check** ([`vlsa_core::ResidueChecker`]): an
//!   independent mod-m congruence over the delivered `(sum, cout)`.
//!   Zero false positives; at the workspace design points
//!   (`window ≥ (nbits − 1) / 2`) it catches *every* natural
//!   speculation error the detector can miss.
//! - **Bounded retry → escalate**: a residue mismatch re-executes the
//!   op up to [`ResilienceConfig::max_retries`] times, then escalates
//!   to a trusted exact fallback adder (the degradation target, outside
//!   the injected fault's blast radius).
//! - **Recovery watchdog**: no op may stall the pipe longer than
//!   [`ResilienceConfig::watchdog_stall_limit`] cycles; the watchdog
//!   cuts retry loops short and forces the escalation.
//! - **Graceful degradation**: when escalations cluster —
//!   [`ResilienceConfig::degrade_threshold`] of them within the last
//!   [`ResilienceConfig::degrade_window_ops`] ops — the pipeline
//!   concludes the speculative datapath is broken and latches into
//!   degraded mode, serving every remaining op from the exact adder at
//!   a fixed [`ResilienceConfig::exact_latency_cycles`] latency.
//!
//! Because this is a model, ground truth is known: the run reports any
//! wrong sum it delivered as a *silent corruption*, which is how fault
//! campaigns measure the detector/residue coverage.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vlsa_batch::{BatchExecutor, OpVerdict, ScalarExecutor};
use vlsa_core::{ResidueChecker, SpeculativeAdder};
use vlsa_telemetry::names::resilience as metric;
use vlsa_trace::{names as span, TraceEvent};

/// What a behavioral fault does to one pipeline attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The `ER` detector output is forced low: a true speculation error
    /// goes unreported (the SDC precursor).
    SuppressDetector,
    /// The `ER` detector output is forced high: every op takes the
    /// recovery bubble (availability, not integrity, suffers).
    AssertDetector,
    /// Bit `.0` of the speculative sum flips.
    FlipSpecBit(u32),
    /// Bit `.0` of the recovery (exact-path) sum flips.
    FlipExactBit(u32),
}

/// A fault injected into the behavioral pipeline, active from
/// `from_cycle` for `duration` cycles (or forever).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineFault {
    /// The upset this fault causes while active.
    pub kind: FaultKind,
    /// First cycle (inclusive) the fault is active.
    pub from_cycle: u64,
    /// Active cycle count; `None` is a permanent (stuck) fault.
    pub duration: Option<u64>,
}

impl PipelineFault {
    /// A permanent fault active from cycle 0.
    pub fn persistent(kind: FaultKind) -> PipelineFault {
        PipelineFault {
            kind,
            from_cycle: 0,
            duration: None,
        }
    }

    /// A single-event upset: active on cycles
    /// `from_cycle .. from_cycle + duration`.
    pub fn transient(kind: FaultKind, from_cycle: u64, duration: u64) -> PipelineFault {
        PipelineFault {
            kind,
            from_cycle,
            duration: Some(duration),
        }
    }

    /// Whether the fault upsets an attempt issued at `cycle`.
    pub fn active(&self, cycle: u64) -> bool {
        cycle >= self.from_cycle
            && match self.duration {
                None => true,
                Some(d) => cycle - self.from_cycle < d,
            }
    }
}

/// Resilience policy knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResilienceConfig {
    /// The end-to-end residue checker, or `None` to run detector-only
    /// (the paper's baseline protection).
    pub residue: Option<ResidueChecker>,
    /// Re-executions allowed per op after a residue mismatch before
    /// escalating to the exact fallback.
    pub max_retries: u32,
    /// Escalations within [`ResilienceConfig::degrade_window_ops`] that
    /// trigger the switch to degraded (exact-only) mode.
    pub degrade_threshold: u32,
    /// Sliding op window over which escalations are counted.
    pub degrade_window_ops: u64,
    /// Maximum cycles one op may hold the pipe; the watchdog escalates
    /// anything slower.
    pub watchdog_stall_limit: u64,
    /// Latency of the exact fallback path, in cycles.
    pub exact_latency_cycles: u64,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            residue: Some(ResidueChecker::mod3()),
            max_retries: 1,
            degrade_threshold: 4,
            degrade_window_ops: 64,
            watchdog_stall_limit: 8,
            exact_latency_cycles: 2,
        }
    }
}

/// Aggregate accounting of a resilient run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilientStats {
    /// Operand pairs processed.
    pub ops: u64,
    /// Clock cycles consumed.
    pub cycles: u64,
    /// Recovery bubbles taken because `ER` fired.
    pub er_recoveries: u64,
    /// Residue checks performed on delivered sums.
    pub residue_checks: u64,
    /// Residue mismatches (the delivered sum was proven wrong).
    pub residue_mismatches: u64,
    /// Re-executions triggered by residue mismatches.
    pub retries: u64,
    /// Ops that fell back to the exact adder.
    pub escalations: u64,
    /// Escalations forced early by the stall watchdog.
    pub watchdog_trips: u64,
    /// Transitions into degraded (exact-only) mode.
    pub degrade_transitions: u64,
    /// Ops served by the exact path while degraded.
    pub degraded_ops: u64,
    /// Wrong sums delivered with `VALID = 1` — silent data corruption,
    /// observable here because the model knows ground truth.
    pub silent_corruptions: u64,
}

impl ResilientStats {
    /// Average cycles per op.
    pub fn average_latency(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.cycles as f64 / self.ops as f64
        }
    }
}

impl fmt::Display for ResilientStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops in {} cycles ({} retries, {} escalations, {} degraded, {} silent)",
            self.ops,
            self.cycles,
            self.retries,
            self.escalations,
            self.degraded_ops,
            self.silent_corruptions
        )
    }
}

/// The outcome of a resilient run: the sums actually handed to the
/// consumer, plus the accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResilientTrace {
    /// Per-op delivered sums, in input order.
    pub delivered: Vec<u64>,
    /// Aggregate statistics for this run.
    pub stats: ResilientStats,
}

/// What the pipeline did for one operand pair — the per-op detail a
/// serving layer forwards to its client alongside the sum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpOutcome {
    /// The delivered sum (truncated to the adder width).
    pub sum: u64,
    /// Whether the `ER` detector fired on the delivering attempt (the
    /// op paid the recovery bubble).
    pub stalled: bool,
    /// Whether the exact path delivered this sum — an escalation or a
    /// degraded-mode op rather than the speculative datapath.
    pub exact_path: bool,
    /// Cycles this op held the pipe.
    pub cycles: u64,
}

/// The outcome of one [`ResilientPipeline::run_batch_on`] call: per-op
/// outcomes in input order, plus the aggregate accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchTrace {
    /// Per-op outcomes, in input order.
    pub outcomes: Vec<OpOutcome>,
    /// Aggregate statistics for this batch.
    pub stats: ResilientStats,
}

/// The VLSA pipeline's per-op state machine, with fault injection,
/// residue checking, retry/escalate policy, and graceful degradation.
/// [`crate::VlsaPipeline`] is a fault-free, residue-free view of it.
///
/// Degradation state is sticky across [`ResilientPipeline::run`] calls
/// (the cycle counter and escalation history persist), so a stream can
/// be fed in chunks; [`ResilientPipeline::reset`] restores the pristine
/// speculative mode.
///
/// # Examples
///
/// ```
/// use vlsa_core::SpeculativeAdder;
/// use vlsa_pipeline::{FaultKind, PipelineFault, ResilienceConfig, ResilientPipeline};
///
/// let adder = SpeculativeAdder::new(16, 8)?;
/// let mut pipe = ResilientPipeline::new(adder, ResilienceConfig::default());
/// // A stuck-low detector would silently corrupt (0x7FFF, 1)...
/// pipe.inject(PipelineFault::persistent(FaultKind::SuppressDetector));
/// let trace = pipe.run(&[(1, 2), (0x7FFF, 1)]);
/// // ...but the residue check catches it and the exact path delivers.
/// assert_eq!(trace.delivered, vec![3, 0x8000]);
/// assert_eq!(trace.stats.silent_corruptions, 0);
/// assert_eq!(trace.stats.escalations, 1);
/// # Ok::<(), vlsa_core::SpecError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ResilientPipeline {
    adder: SpeculativeAdder,
    config: ResilienceConfig,
    faults: Vec<PipelineFault>,
    degraded: bool,
    degrade_signal: Option<Arc<AtomicBool>>,
    recent_escalations: VecDeque<u64>,
    op_index: u64,
    cycle: u64,
}

impl ResilientPipeline {
    /// Wraps a speculative adder in the resilience control logic.
    pub fn new(adder: SpeculativeAdder, config: ResilienceConfig) -> ResilientPipeline {
        ResilientPipeline {
            adder,
            config,
            faults: Vec::new(),
            degraded: false,
            degrade_signal: None,
            recent_escalations: VecDeque::new(),
            op_index: 0,
            cycle: 0,
        }
    }

    /// The underlying speculative adder.
    pub fn adder(&self) -> &SpeculativeAdder {
        &self.adder
    }

    /// The active policy.
    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// Injects a fault for subsequent runs.
    pub fn inject(&mut self, fault: PipelineFault) {
        self.faults.push(fault);
    }

    /// Builder-style [`ResilientPipeline::inject`].
    pub fn with_fault(mut self, fault: PipelineFault) -> ResilientPipeline {
        self.inject(fault);
        self
    }

    /// Whether the pipeline has latched into degraded (exact-only) mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Attaches an external degrade signal — the hook a live
    /// conformance monitor (e.g. `vlsa_monitor::ConformanceMonitor`)
    /// trips when traffic drifts off the uniform-operand model. While
    /// the flag reads `true`, [`ResilientPipeline::run`] latches into
    /// degraded (exact-only) mode *before* the next op issues, rather
    /// than waiting for escalations to accumulate: the monitor predicts
    /// the design point is blown, the pipeline pre-emptively stops
    /// speculating.
    ///
    /// The check is one relaxed atomic load per op; with no signal
    /// attached the cost is an `Option` branch.
    pub fn set_degrade_signal(&mut self, signal: Arc<AtomicBool>) {
        self.degrade_signal = Some(signal);
    }

    /// Builder-style [`ResilientPipeline::set_degrade_signal`].
    pub fn with_degrade_signal(mut self, signal: Arc<AtomicBool>) -> ResilientPipeline {
        self.set_degrade_signal(signal);
        self
    }

    /// Latches degraded (exact-only) mode immediately, as if the
    /// degrade signal had fired. Returns whether this call caused the
    /// transition.
    pub fn force_degrade(&mut self) -> bool {
        if self.degraded {
            return false;
        }
        self.degraded = true;
        true
    }

    /// Clears injected faults, degradation state, and the clock.
    pub fn reset(&mut self) {
        self.faults.clear();
        self.degraded = false;
        self.recent_escalations.clear();
        self.op_index = 0;
        self.cycle = 0;
    }

    /// Feeds a stream of operand pairs through the resilient pipeline,
    /// returning only the delivered sums. Operands are truncated to the
    /// adder width.
    ///
    /// This is [`ResilientPipeline::run_batch_on`] over a
    /// [`ScalarExecutor`] with the per-op detail dropped; see there for
    /// the telemetry and tracing emitted.
    ///
    /// # Panics
    ///
    /// Panics if the adder is wider than 64 bits.
    pub fn run(&mut self, operands: &[(u64, u64)]) -> ResilientTrace {
        let executor = ScalarExecutor::new(self.adder.nbits(), self.adder.window());
        let batch = self.run_batch_on(&executor, operands);
        ResilientTrace {
            delivered: batch.outcomes.iter().map(|o| o.sum).collect(),
            stats: batch.stats,
        }
    }

    /// Feeds a batch of operand pairs through the resilient pipeline,
    /// keeping per-op detail: sum, stall flag, exact-path flag, and
    /// cycle cost. Operands are truncated to the adder width. This
    /// drives the pipeline's one per-op state machine:
    /// [`ResilientPipeline::run`] (campaigns, benches, `trace
    /// --resilient`) calls it with a [`ScalarExecutor`], the server calls
    /// it with the executor of its `--backend`, and
    /// [`crate::VlsaPipeline`] replays the same machine chunk by chunk.
    ///
    /// The executor pre-computes every op's speculative sum, exact sum,
    /// `ER` flag, and carry-outs in one pass; this method then replays
    /// fault application per attempt timestamp, residue audits, bounded
    /// retry, watchdog, escalation, and the degrade latch (including the
    /// pre-emptive signal check *per op*, so mid-batch monitor flips
    /// land on the same op) from those verdicts. Retries reuse the
    /// verdict because the adder is deterministic. Executors are
    /// bit-identical to each other, so outcomes, stats, cycle
    /// accounting, and emitted spans do not depend on the executor.
    ///
    /// Degradation state, the cycle counter, and the escalation history
    /// persist across calls, so a serving layer can hold one pipeline
    /// per worker and feed it batch after batch — the result is
    /// bit-identical to one long sequential run over the concatenated
    /// batches.
    ///
    /// When telemetry is enabled, records the `vlsa.resilience.*`
    /// counters ([`vlsa_telemetry::names::resilience`]). The arithmetic
    /// itself is the executor's to account for: `vlsa.batch.*` for the
    /// sliced engine, nothing for the scalar one, so the pipeline never
    /// bumps the `vlsa.core.*` counters. When tracing is enabled, every
    /// op emits an `op` span (category `"resilience"`, track 0,
    /// replay-compatible args), per-attempt `speculate` / `detect` /
    /// `recover` / `stall` spans (tracks 1–2), and the resilience events
    /// `residue_retry`, `escalate`, `watchdog`, `degrade`, and
    /// `exact_op` — so a detector failure caught by the residue check
    /// and the eventual degradation are visible on the Chrome-trace
    /// timeline.
    ///
    /// # Panics
    ///
    /// Panics if the adder is wider than 64 bits, or if the executor's
    /// width or window disagrees with the pipeline's adder.
    pub fn run_batch_on(
        &mut self,
        executor: &dyn BatchExecutor,
        operands: &[(u64, u64)],
    ) -> BatchTrace {
        let nbits = self.adder.nbits();
        assert!(nbits <= 64, "ResilientPipeline::run is limited to 64 bits");
        assert_eq!(
            executor.nbits(),
            nbits,
            "executor width must match the adder"
        );
        assert_eq!(
            executor.window(),
            self.adder.window(),
            "executor window must match the adder"
        );
        let verdicts = executor.execute(operands);
        let batch = self.replay(operands, &verdicts);
        if vlsa_telemetry::is_enabled() {
            let stats = &batch.stats;
            let rec = vlsa_telemetry::recorder();
            rec.counter(metric::OPS).add(stats.ops);
            rec.counter(metric::RESIDUE_CHECKS)
                .add(stats.residue_checks);
            rec.counter(metric::RESIDUE_MISMATCHES)
                .add(stats.residue_mismatches);
            rec.counter(metric::RETRIES).add(stats.retries);
            rec.counter(metric::ESCALATIONS).add(stats.escalations);
            rec.counter(metric::WATCHDOG_TRIPS)
                .add(stats.watchdog_trips);
            rec.counter(metric::DEGRADE_TRANSITIONS)
                .add(stats.degrade_transitions);
            rec.counter(metric::DEGRADED_OPS).add(stats.degraded_ops);
            rec.counter(metric::SILENT_CORRUPTIONS)
                .add(stats.silent_corruptions);
        }
        batch
    }

    /// The per-op state machine behind [`ResilientPipeline::run_batch_on`]:
    /// replays one executor verdict per operand pair (see there for the
    /// spans it emits) and returns the outcomes, without touching the
    /// `vlsa.resilience.*` counters. State carries across calls, so
    /// replaying a stream chunk by chunk matches one replay of the whole.
    #[inline(always)]
    pub(crate) fn replay(&mut self, operands: &[(u64, u64)], verdicts: &[OpVerdict]) -> BatchTrace {
        debug_assert_eq!(verdicts.len(), operands.len());
        let nbits = self.adder.nbits();
        let mask = if nbits == 64 {
            u64::MAX
        } else {
            (1u64 << nbits) - 1
        };
        let spans = vlsa_trace::recorder();
        let run_start = self.cycle;
        let mut stats = ResilientStats::default();
        let mut out = Vec::with_capacity(operands.len());

        for (&(a, b), verdict) in operands.iter().zip(verdicts) {
            let (a, b) = (a & mask, b & mask);
            let i = self.op_index;
            self.op_index += 1;
            stats.ops += 1;
            let op_start = self.cycle;
            if !self.degraded
                && self
                    .degrade_signal
                    .as_ref()
                    .is_some_and(|s| s.load(Ordering::Relaxed))
            {
                self.degraded = true;
                stats.degrade_transitions += 1;
                if let Some(rec) = &spans {
                    rec.record(
                        TraceEvent::instant(span::DEGRADE, "resilience", op_start)
                            .on_track(2)
                            .arg("i", i)
                            .arg("preemptive", 1),
                    );
                    rec.record(
                        TraceEvent::counter("degraded", "resilience", op_start, 1).on_track(3),
                    );
                }
            }
            // Ground truth: the executor's exact path is conformance-
            // tested against `exact_u64`, and faults never touch it.
            let truth = verdict.exact;
            let truth_cout = verdict.exact_cout;

            if self.degraded {
                self.cycle += self.config.exact_latency_cycles;
                stats.degraded_ops += 1;
                if let Some(rec) = &spans {
                    let dur = self.config.exact_latency_cycles;
                    rec.record(
                        TraceEvent::complete(span::OP, "resilience", op_start, dur)
                            .arg("i", i)
                            .arg("a", a)
                            .arg("b", b)
                            .arg("sum", truth)
                            .arg("err", 0),
                    );
                    rec.record(
                        TraceEvent::complete(span::EXACT_OP, "resilience", op_start, dur)
                            .on_track(2),
                    );
                }
                out.push(OpOutcome {
                    sum: truth,
                    stalled: false,
                    exact_path: true,
                    cycles: self.config.exact_latency_cycles,
                });
                continue;
            }

            let mut attempts = 0u32;
            let mut escalate = false;
            let mut watchdog_tripped = false;
            let mut last_er;
            let mut delivered;
            loop {
                let attempt_ts = self.cycle;
                self.cycle += 1;
                let mut er = verdict.er;
                let mut spec = verdict.spec;
                let mut exact_hw = verdict.exact;
                for fault in &self.faults {
                    if !fault.active(attempt_ts) {
                        continue;
                    }
                    match fault.kind {
                        FaultKind::SuppressDetector => er = false,
                        FaultKind::AssertDetector => er = true,
                        FaultKind::FlipSpecBit(bit) => {
                            if (bit as usize) < nbits {
                                spec ^= 1u64 << bit;
                            }
                        }
                        FaultKind::FlipExactBit(bit) => {
                            if (bit as usize) < nbits {
                                exact_hw ^= 1u64 << bit;
                            }
                        }
                    }
                }
                last_er = er;
                if let Some(rec) = &spans {
                    rec.record(
                        TraceEvent::complete(span::SPECULATE, "resilience", attempt_ts, 1)
                            .on_track(1),
                    );
                }
                let dcout;
                if er {
                    stats.er_recoveries += 1;
                    if let Some(rec) = &spans {
                        rec.record(
                            TraceEvent::instant(span::DETECT, "resilience", self.cycle).on_track(1),
                        );
                        rec.record(
                            TraceEvent::complete(span::RECOVER, "resilience", self.cycle, 1)
                                .on_track(1),
                        );
                        rec.record(
                            TraceEvent::complete(span::STALL, "resilience", self.cycle, 1)
                                .on_track(2),
                        );
                    }
                    self.cycle += 1;
                    delivered = exact_hw;
                    dcout = truth_cout;
                } else {
                    delivered = spec;
                    dcout = self.config.residue.is_some() && verdict.spec_cout;
                }
                let Some(checker) = &self.config.residue else {
                    break;
                };
                stats.residue_checks += 1;
                if checker.accepts(a, b, delivered, dcout, nbits) {
                    break;
                }
                stats.residue_mismatches += 1;
                let elapsed = self.cycle - op_start;
                let retry_allowed = attempts < self.config.max_retries;
                let watchdog_ok = elapsed < self.config.watchdog_stall_limit;
                if retry_allowed && watchdog_ok {
                    attempts += 1;
                    stats.retries += 1;
                    if let Some(rec) = &spans {
                        rec.record(
                            TraceEvent::instant(span::RESIDUE_RETRY, "resilience", self.cycle)
                                .on_track(1)
                                .arg("i", i),
                        );
                    }
                    continue;
                }
                watchdog_tripped = retry_allowed && !watchdog_ok;
                escalate = true;
                break;
            }

            if escalate {
                if watchdog_tripped {
                    stats.watchdog_trips += 1;
                    if let Some(rec) = &spans {
                        rec.record(
                            TraceEvent::instant(span::WATCHDOG, "resilience", self.cycle)
                                .on_track(2)
                                .arg("i", i),
                        );
                    }
                }
                stats.escalations += 1;
                if let Some(rec) = &spans {
                    rec.record(
                        TraceEvent::instant(span::ESCALATE, "resilience", self.cycle)
                            .on_track(2)
                            .arg("i", i),
                    );
                    rec.record(
                        TraceEvent::complete(
                            span::EXACT_OP,
                            "resilience",
                            self.cycle,
                            self.config.exact_latency_cycles,
                        )
                        .on_track(2),
                    );
                }
                self.cycle += self.config.exact_latency_cycles;
                delivered = truth;
                self.recent_escalations.push_back(i);
                while let Some(&front) = self.recent_escalations.front() {
                    if front + self.config.degrade_window_ops <= i {
                        self.recent_escalations.pop_front();
                    } else {
                        break;
                    }
                }
                if !self.degraded
                    && self.recent_escalations.len() as u64
                        >= u64::from(self.config.degrade_threshold)
                {
                    self.degraded = true;
                    stats.degrade_transitions += 1;
                    if let Some(rec) = &spans {
                        rec.record(
                            TraceEvent::instant(span::DEGRADE, "resilience", self.cycle)
                                .on_track(2)
                                .arg("i", i),
                        );
                        rec.record(
                            TraceEvent::counter("degraded", "resilience", self.cycle, 1)
                                .on_track(3),
                        );
                    }
                }
            }

            if delivered != truth {
                stats.silent_corruptions += 1;
            }
            if let Some(rec) = &spans {
                rec.record(
                    TraceEvent::complete(span::OP, "resilience", op_start, self.cycle - op_start)
                        .arg("i", i)
                        .arg("a", a)
                        .arg("b", b)
                        .arg("sum", delivered)
                        .arg("err", u64::from(last_er)),
                );
            }
            out.push(OpOutcome {
                sum: delivered,
                stalled: last_er,
                exact_path: escalate,
                cycles: self.cycle - op_start,
            });
        }

        stats.cycles = self.cycle - run_start;
        BatchTrace {
            outcomes: out,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversarial_operands;
    use rand::SeedableRng;

    fn adder(nbits: usize, window: usize) -> SpeculativeAdder {
        SpeculativeAdder::new(nbits, window).expect("valid adder")
    }

    fn truth(nbits: usize, a: u64, b: u64) -> u64 {
        let mask = if nbits == 64 {
            u64::MAX
        } else {
            (1u64 << nbits) - 1
        };
        a.wrapping_add(b) & mask
    }

    #[test]
    fn fault_free_stream_matches_the_plain_pipeline() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3511);
        let ops = crate::random_operands(32, 5_000, &mut rng);
        let mut pipe = ResilientPipeline::new(adder(32, 16), ResilienceConfig::default());
        let trace = pipe.run(&ops);
        assert_eq!(trace.stats.ops, 5_000);
        assert_eq!(trace.stats.silent_corruptions, 0);
        assert_eq!(trace.stats.residue_mismatches, 0);
        assert_eq!(trace.stats.escalations, 0);
        assert!(!pipe.is_degraded());
        for (k, &(a, b)) in ops.iter().enumerate() {
            assert_eq!(trace.delivered[k], truth(32, a, b));
        }
        // Cycle accounting matches the 1 + P(error) model.
        assert_eq!(
            trace.stats.cycles,
            trace.stats.ops + trace.stats.er_recoveries
        );
    }

    #[test]
    fn suppressed_detector_without_residue_is_silent_corruption() {
        let config = ResilienceConfig {
            residue: None,
            ..ResilienceConfig::default()
        };
        let mut pipe = ResilientPipeline::new(adder(16, 4), config)
            .with_fault(PipelineFault::persistent(FaultKind::SuppressDetector));
        let trace = pipe.run(&adversarial_operands(16, 10));
        // Every op's speculation is wrong, the detector never reports,
        // and nothing else is watching.
        assert_eq!(trace.stats.silent_corruptions, 10);
        assert_eq!(trace.stats.residue_checks, 0);
        assert!(trace.delivered.iter().all(|&s| s != 0x8000));
    }

    #[test]
    fn residue_catches_the_suppressed_detector_and_degrades() {
        let config = ResilienceConfig {
            degrade_threshold: 4,
            ..ResilienceConfig::default()
        };
        let mut pipe = ResilientPipeline::new(adder(16, 4), config)
            .with_fault(PipelineFault::persistent(FaultKind::SuppressDetector));
        let trace = pipe.run(&adversarial_operands(16, 50));
        // Zero SDC: every wrong sum was caught by the residue check and
        // served by the exact path instead.
        assert_eq!(trace.stats.silent_corruptions, 0);
        assert!(trace.delivered.iter().all(|&s| s == 0x8000));
        // The first `degrade_threshold` ops retry and escalate; the
        // rest ride the degraded exact path.
        assert_eq!(trace.stats.escalations, 4);
        assert_eq!(trace.stats.retries, 4);
        assert_eq!(trace.stats.degrade_transitions, 1);
        assert_eq!(trace.stats.degraded_ops, 46);
        assert!(pipe.is_degraded());
        // Degradation is sticky across runs — and still correct.
        let next = pipe.run(&[(1, 2), (0x7FFF, 1)]);
        assert_eq!(next.delivered, vec![3, 0x8000]);
        assert_eq!(next.stats.degraded_ops, 2);
    }

    #[test]
    fn transient_detector_fault_only_bites_inside_its_window() {
        // Every op errs (adversarial), so with the detector healthy each
        // op takes 2 cycles. Suppress the detector for cycles 4..8 only:
        // ops issued there escalate, the rest recover normally.
        let config = ResilienceConfig {
            degrade_threshold: 100, // keep degradation out of this test
            ..ResilienceConfig::default()
        };
        let mut pipe = ResilientPipeline::new(adder(16, 4), config)
            .with_fault(PipelineFault::transient(FaultKind::SuppressDetector, 4, 4));
        let trace = pipe.run(&adversarial_operands(16, 20));
        assert_eq!(trace.stats.silent_corruptions, 0);
        assert!(trace.delivered.iter().all(|&s| s == 0x8000));
        assert!(trace.stats.escalations >= 1, "{}", trace.stats);
        assert!(trace.stats.escalations <= 4, "{}", trace.stats);
        assert!(trace.stats.er_recoveries >= 16, "{}", trace.stats);
        assert!(!pipe.is_degraded());
    }

    #[test]
    fn spec_bit_flip_is_caught_and_survived_by_retry() {
        // Flip a speculative sum bit for exactly one cycle: the residue
        // check rejects that attempt, and the (now clean) retry passes
        // without any escalation.
        let config = ResilienceConfig::default();
        let mut pipe = ResilientPipeline::new(adder(16, 8), config)
            .with_fault(PipelineFault::transient(FaultKind::FlipSpecBit(3), 0, 1));
        let trace = pipe.run(&[(1, 2), (10, 20)]);
        assert_eq!(trace.delivered, vec![3, 30]);
        assert_eq!(trace.stats.silent_corruptions, 0);
        assert_eq!(trace.stats.residue_mismatches, 1);
        assert_eq!(trace.stats.retries, 1);
        assert_eq!(trace.stats.escalations, 0);
    }

    #[test]
    fn corrupted_recovery_path_escalates_to_the_fallback() {
        // Force every op down the recovery path AND corrupt that path:
        // only the second-line residue check plus the exact fallback
        // keep the stream correct.
        let config = ResilienceConfig {
            degrade_threshold: 1_000,
            ..ResilienceConfig::default()
        };
        let mut pipe = ResilientPipeline::new(adder(16, 8), config)
            .with_fault(PipelineFault::persistent(FaultKind::AssertDetector))
            .with_fault(PipelineFault::persistent(FaultKind::FlipExactBit(0)));
        let trace = pipe.run(&[(2, 2), (4, 4), (6, 6)]);
        assert_eq!(trace.delivered, vec![4, 8, 12]);
        assert_eq!(trace.stats.silent_corruptions, 0);
        assert_eq!(trace.stats.escalations, 3);
        assert!(trace.stats.er_recoveries >= 3);
    }

    #[test]
    fn watchdog_bounds_the_per_op_stall() {
        // Generous retry budget but a tight stall watchdog: the retry
        // loop is cut short and the op escalates within the bound.
        let config = ResilienceConfig {
            max_retries: 100,
            watchdog_stall_limit: 4,
            degrade_threshold: 1_000,
            exact_latency_cycles: 2,
            ..ResilienceConfig::default()
        };
        let mut pipe = ResilientPipeline::new(adder(16, 4), config)
            .with_fault(PipelineFault::persistent(FaultKind::SuppressDetector));
        let trace = pipe.run(&adversarial_operands(16, 5));
        assert_eq!(trace.stats.silent_corruptions, 0);
        assert_eq!(trace.stats.watchdog_trips, 5);
        assert_eq!(trace.stats.escalations, 5);
        // Each op: at most watchdog_stall_limit attempt cycles plus the
        // fallback latency.
        assert!(
            trace.stats.cycles <= 5 * (4 + 2),
            "{} cycles",
            trace.stats.cycles
        );
    }

    #[test]
    fn forced_detector_costs_availability_not_integrity() {
        let mut pipe = ResilientPipeline::new(adder(16, 8), ResilienceConfig::default())
            .with_fault(PipelineFault::persistent(FaultKind::AssertDetector));
        let trace = pipe.run(&[(1, 2), (3, 4), (5, 6)]);
        assert_eq!(trace.delivered, vec![3, 7, 11]);
        assert_eq!(trace.stats.er_recoveries, 3);
        assert_eq!(trace.stats.silent_corruptions, 0);
        assert_eq!(trace.stats.escalations, 0);
        assert_eq!(trace.stats.cycles, 6); // every op pays the bubble
    }

    #[test]
    fn telemetry_counters_match_stats() {
        let scope = vlsa_telemetry::ScopedRecorder::install();
        let mut pipe = ResilientPipeline::new(adder(16, 4), ResilienceConfig::default())
            .with_fault(PipelineFault::persistent(FaultKind::SuppressDetector));
        let trace = pipe.run(&adversarial_operands(16, 20));
        let registry = scope.registry();
        assert_eq!(registry.counter_value(metric::OPS), trace.stats.ops);
        assert_eq!(
            registry.counter_value(metric::RESIDUE_MISMATCHES),
            trace.stats.residue_mismatches
        );
        assert_eq!(registry.counter_value(metric::RETRIES), trace.stats.retries);
        assert_eq!(
            registry.counter_value(metric::ESCALATIONS),
            trace.stats.escalations
        );
        assert_eq!(
            registry.counter_value(metric::DEGRADE_TRANSITIONS),
            trace.stats.degrade_transitions
        );
        assert_eq!(
            registry.counter_value(metric::DEGRADED_OPS),
            trace.stats.degraded_ops
        );
        assert_eq!(registry.counter_value(metric::SILENT_CORRUPTIONS), 0);
    }

    #[test]
    fn trace_shows_the_detect_catch_degrade_story() {
        let scope = vlsa_trace::ScopedTrace::install(4096);
        let mut pipe = ResilientPipeline::new(adder(16, 4), ResilienceConfig::default())
            .with_fault(PipelineFault::persistent(FaultKind::SuppressDetector));
        pipe.run(&adversarial_operands(16, 10));
        let events = scope.drain();
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        for expected in [
            span::SPECULATE,
            span::RESIDUE_RETRY,
            span::ESCALATE,
            span::EXACT_OP,
            span::DEGRADE,
            span::OP,
        ] {
            assert!(names.contains(&expected), "missing `{expected}` span");
        }
        // The retry precedes the first escalation, which precedes the
        // degrade latch — the full second-line-of-defense story.
        let pos = |n: &str| names.iter().position(|&x| x == n).expect("present");
        assert!(pos(span::RESIDUE_RETRY) < pos(span::ESCALATE));
        assert!(pos(span::ESCALATE) < pos(span::DEGRADE));
        assert!(events.iter().all(|e| e.cat == "resilience"));
    }

    #[test]
    fn reset_restores_speculative_mode() {
        let mut pipe = ResilientPipeline::new(adder(16, 4), ResilienceConfig::default())
            .with_fault(PipelineFault::persistent(FaultKind::SuppressDetector));
        pipe.run(&adversarial_operands(16, 20));
        assert!(pipe.is_degraded());
        pipe.reset();
        assert!(!pipe.is_degraded());
        let trace = pipe.run(&[(1, 2)]);
        assert_eq!(trace.delivered, vec![3]);
        assert_eq!(trace.stats.degraded_ops, 0);
    }

    #[test]
    fn degrade_signal_preempts_speculation() {
        let signal = Arc::new(AtomicBool::new(false));
        let mut pipe = ResilientPipeline::new(adder(16, 4), ResilienceConfig::default())
            .with_degrade_signal(Arc::clone(&signal));
        // Signal low: the pipeline speculates as usual.
        let before = pipe.run(&[(1, 2), (3, 4)]);
        assert_eq!(before.stats.degraded_ops, 0);
        assert!(!pipe.is_degraded());
        // A monitor trips the signal: the very next op (and everything
        // after) rides the exact path, no escalations needed.
        signal.store(true, Ordering::Relaxed);
        let after = pipe.run(&adversarial_operands(16, 10));
        assert!(pipe.is_degraded());
        assert_eq!(after.stats.degrade_transitions, 1);
        assert_eq!(after.stats.degraded_ops, 10);
        assert_eq!(after.stats.escalations, 0);
        assert_eq!(after.stats.silent_corruptions, 0);
        assert!(after.delivered.iter().all(|&s| s == 0x8000));
    }

    #[test]
    fn preemptive_degrade_is_visible_in_the_trace() {
        let scope = vlsa_trace::ScopedTrace::install(256);
        let signal = Arc::new(AtomicBool::new(true));
        let mut pipe = ResilientPipeline::new(adder(16, 4), ResilienceConfig::default())
            .with_degrade_signal(signal);
        pipe.run(&[(1, 2)]);
        let events = scope.drain();
        let degrade = events
            .iter()
            .find(|e| e.name == span::DEGRADE)
            .expect("degrade span");
        assert_eq!(degrade.get_arg("preemptive"), Some(1));
    }

    #[test]
    fn force_degrade_latches_once() {
        let mut pipe = ResilientPipeline::new(adder(16, 8), ResilienceConfig::default());
        assert!(pipe.force_degrade());
        assert!(!pipe.force_degrade());
        let trace = pipe.run(&[(2, 3)]);
        assert_eq!(trace.delivered, vec![5]);
        assert_eq!(trace.stats.degraded_ops, 1);
    }

    #[test]
    fn fault_activity_windows() {
        let f = PipelineFault::transient(FaultKind::SuppressDetector, 5, 3);
        assert!(!f.active(4));
        assert!(f.active(5));
        assert!(f.active(7));
        assert!(!f.active(8));
        let p = PipelineFault::persistent(FaultKind::AssertDetector);
        assert!(p.active(0));
        assert!(p.active(u64::MAX));
    }

    #[test]
    fn chunked_run_batch_on_matches_one_sequential_run() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
        let ops = crate::random_operands(32, 3_000, &mut rng);
        let scalar = ScalarExecutor::new(32, 16);
        let mut whole = ResilientPipeline::new(adder(32, 16), ResilienceConfig::default());
        let reference = whole.run_batch_on(&scalar, &ops);
        let mut chunked = ResilientPipeline::new(adder(32, 16), ResilienceConfig::default());
        let mut outcomes = Vec::new();
        let mut stats_ops = 0;
        let mut stalls = 0;
        // Uneven chunk sizes: state (clock, escalation history) must
        // carry across calls for the outcomes to line up.
        for chunk in ops.chunks(617) {
            let batch = chunked.run_batch_on(&scalar, chunk);
            stats_ops += batch.stats.ops;
            stalls += batch.stats.er_recoveries;
            outcomes.extend(batch.outcomes);
        }
        assert_eq!(outcomes, reference.outcomes);
        assert_eq!(stats_ops, reference.stats.ops);
        assert_eq!(stalls, reference.stats.er_recoveries);
    }

    #[test]
    fn op_outcomes_carry_stall_and_exact_path_detail() {
        // Healthy pipeline, adversarial operands: every op stalls but
        // none escalates.
        let scalar = ScalarExecutor::new(16, 4);
        let mut pipe = ResilientPipeline::new(adder(16, 4), ResilienceConfig::default());
        let batch = pipe.run_batch_on(&scalar, &adversarial_operands(16, 3));
        assert!(batch.outcomes.iter().all(|o| o.stalled && !o.exact_path));
        assert!(batch.outcomes.iter().all(|o| o.cycles == 2));
        // Degraded pipeline: exact path, no stalls.
        pipe.force_degrade();
        let degraded = pipe.run_batch_on(&scalar, &[(1, 2)]);
        assert_eq!(
            degraded.outcomes,
            vec![OpOutcome {
                sum: 3,
                stalled: false,
                exact_path: true,
                cycles: 2,
            }]
        );
    }

    #[test]
    fn residue_disabled_never_checks() {
        let config = ResilienceConfig {
            residue: None,
            ..ResilienceConfig::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(997);
        let ops = crate::random_operands(32, 2_000, &mut rng);
        let mut pipe = ResilientPipeline::new(adder(32, 16), config);
        let trace = pipe.run(&ops);
        assert_eq!(trace.stats.residue_checks, 0);
        assert_eq!(trace.stats.silent_corruptions, 0);
    }
}
