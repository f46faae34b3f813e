//! Cycle-accurate model of the Variable Latency Speculative Adder
//! pipeline (paper §4.3, Figs. 6–7).
//!
//! The circuit is clocked just above the error-detection delay. Every
//! operand pair normally completes in one cycle (`VALID = 1`); when the
//! detector fires, `VALID` drops, `STALL` rises, and the corrected sum
//! appears one cycle later — so the average latency over a random
//! stream is `1 + P(error)` cycles, within a hair of 1.
//!
//! The crate states that rule once, in [`ResilientPipeline`]'s per-op
//! state machine. With no fault injected and no residue check, that
//! machine is exactly the paper's handshake, and [`VlsaPipeline`] is a
//! streaming view of it: [`VlsaPipeline::run`] returns the cycle counts
//! of a stream as a [`PipelineTrace`], [`VlsaPipeline::timing_diagram`]
//! renders the paper's Fig. 7 for a short stream, and the queue model
//! ([`VlsaPipeline::run_queued`]) charges each op `1 + ER` cycles from
//! the same scalar oracle. [`EffectiveLatency`] then converts cycle
//! counts into wall-clock speedup versus a single-cycle traditional
//! adder.

mod queue;
mod resilient;

pub use queue::{QueueConfig, QueueError, QueueStats};
pub use resilient::{
    BatchTrace, FaultKind, OpOutcome, PipelineFault, ResilienceConfig, ResilientPipeline,
    ResilientStats, ResilientTrace,
};

use rand::Rng;
use std::fmt;
use vlsa_batch::{BatchExecutor, ScalarExecutor};
use vlsa_core::{AddTally, SpeculativeAdder};
use vlsa_telemetry::names::pipeline as metric;
use vlsa_telemetry::DEFAULT_BUCKETS;

/// Operand pairs per executor call in [`VlsaPipeline::run_observed`]:
/// the verdict and outcome buffers stay this small however long the
/// stream is.
const CHUNK_OPS: usize = 4096;

/// The cycle accounting of a stream of additions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineTrace {
    /// Number of operand pairs processed.
    pub operations: u64,
    /// Number of operations that needed the recovery cycle.
    pub errors: u64,
    /// Total clock cycles consumed.
    pub total_cycles: u64,
}

impl PipelineTrace {
    /// Average cycles per addition (the paper's headline `1.000x`).
    pub fn average_latency(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.operations as f64
        }
    }

    /// Fraction of operations that stalled.
    pub fn error_rate(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.errors as f64 / self.operations as f64
        }
    }
}

impl fmt::Display for PipelineTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops in {} cycles ({} errors, average latency {:.4})",
            self.operations,
            self.total_cycles,
            self.errors,
            self.average_latency()
        )
    }
}

/// One operation's outcome as seen by a live observer — the operand
/// sampling hook a conformance monitor (e.g.
/// `vlsa_monitor::ConformanceMonitor`) feeds on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpSample {
    /// Index of the operand pair in the input stream.
    pub index: usize,
    /// Left operand (already truncated to the adder width).
    pub a: u64,
    /// Right operand (already truncated to the adder width).
    pub b: u64,
    /// The sum handed to the consumer.
    pub sum: u64,
    /// Whether the `ER` detector fired (the op paid the bubble).
    pub stalled: bool,
    /// Cycles this op held the pipe (1 clean, 2 stalled).
    pub latency_cycles: u64,
}

/// The variable-latency adder pipeline.
///
/// # Examples
///
/// ```
/// use vlsa_core::SpeculativeAdder;
/// use vlsa_pipeline::VlsaPipeline;
///
/// let adder = SpeculativeAdder::for_accuracy(64, 0.9999)?;
/// let mut pipe = VlsaPipeline::new(adder);
/// let trace = pipe.run(&[(1, 2), (u64::MAX, 1), (7, 8)]);
/// assert_eq!(trace.operations, 3);
/// // The all-propagate pair stalls one extra cycle.
/// assert_eq!(trace.total_cycles, 4);
/// # Ok::<(), vlsa_core::SpecError>(())
/// ```
#[derive(Clone, Debug)]
pub struct VlsaPipeline {
    adder: SpeculativeAdder,
}

impl VlsaPipeline {
    /// Wraps a speculative adder in the Fig. 6 control logic.
    pub fn new(adder: SpeculativeAdder) -> Self {
        VlsaPipeline { adder }
    }

    /// The underlying speculative adder.
    pub fn adder(&self) -> &SpeculativeAdder {
        &self.adder
    }

    /// Feeds a stream of operand pairs through the pipeline and returns
    /// the trace. Operands are truncated to the adder width.
    ///
    /// Each call replays the stream, 4,096 pairs at a time, through a
    /// fresh fault-free, residue-free [`ResilientPipeline`] fed by
    /// [`ScalarExecutor`] verdicts, so op indices and cycles restart at
    /// 0 on every call.
    ///
    /// When telemetry is enabled, records `vlsa.pipeline.ops` /
    /// `vlsa.pipeline.stalls` counters, the per-op latency histogram
    /// `vlsa.pipeline.op_latency_cycles`, the lengths of runs of
    /// consecutive stalled operations in `vlsa.pipeline.stall_run_ops`,
    /// and the `vlsa.core.*` counts of the additions; the
    /// `vlsa.resilience.*` counters are left alone.
    ///
    /// When tracing is enabled (`vlsa_trace::is_enabled`), every
    /// operation emits the state machine's flight-recorder spans with
    /// cycle timestamps (category `"resilience"`): an `op` span
    /// carrying the full operands (track 0, the replay source), a
    /// `speculate` span, and — on detection — a `detect` marker plus
    /// `recover` and `stall` spans for the bubble (tracks 1–2).
    ///
    /// # Panics
    ///
    /// Panics if the adder is wider than 64 bits.
    pub fn run(&mut self, operands: &[(u64, u64)]) -> PipelineTrace {
        self.run_observed(operands, |_| {})
    }

    /// [`VlsaPipeline::run`] with a live observer: `observe` is called
    /// once per operation with the sampled operands, delivered sum,
    /// stall flag, and latency — the hook a conformance monitor uses to
    /// watch real traffic without buffering the stream.
    ///
    /// # Panics
    ///
    /// Panics if the adder is wider than 64 bits.
    pub fn run_observed<F: FnMut(&OpSample)>(
        &mut self,
        operands: &[(u64, u64)],
        mut observe: F,
    ) -> PipelineTrace {
        let nbits = self.adder.nbits();
        let executor = ScalarExecutor::new(nbits, self.adder.window());
        let handshake = ResilienceConfig {
            residue: None,
            ..ResilienceConfig::default()
        };
        let mut pipe = ResilientPipeline::new(self.adder, handshake);
        let telemetry = vlsa_telemetry::is_enabled().then(|| {
            let recorder = vlsa_telemetry::recorder();
            (
                recorder.counter(metric::OPS),
                recorder.counter(metric::STALLS),
                recorder.histogram(metric::OP_LATENCY_CYCLES, DEFAULT_BUCKETS),
                recorder.histogram(metric::STALL_RUN_OPS, DEFAULT_BUCKETS),
            )
        });
        let mask = if nbits == 64 {
            u64::MAX
        } else {
            (1u64 << nbits) - 1
        };
        // Lives outside the chunk loop: a stall run crossing a chunk
        // boundary is one run.
        let mut stall_run = 0u64;
        let mut trace = PipelineTrace::default();
        for chunk in operands.chunks(CHUNK_OPS) {
            let verdicts = executor.execute(chunk);
            let batch = pipe.replay(chunk, &verdicts);
            for (&(a, b), outcome) in chunk.iter().zip(&batch.outcomes) {
                observe(&OpSample {
                    index: trace.operations as usize,
                    a: a & mask,
                    b: b & mask,
                    sum: outcome.sum,
                    stalled: outcome.stalled,
                    latency_cycles: outcome.cycles,
                });
                trace.operations += 1;
                if let Some((.., stall_runs)) = &telemetry {
                    if outcome.stalled {
                        stall_run += 1;
                    } else if stall_run > 0 {
                        stall_runs.record(stall_run);
                        stall_run = 0;
                    }
                }
            }
            let stalls = batch.stats.er_recoveries;
            trace.errors += stalls;
            trace.total_cycles += batch.stats.cycles;
            if let Some((ops, stall_count, latency, _)) = &telemetry {
                let clean = chunk.len() as u64 - stalls;
                ops.add(chunk.len() as u64);
                stall_count.add(stalls);
                latency.record_n(1, clean);
                latency.record_n(2, stalls);
                let mut adds = AddTally::default();
                for v in &verdicts {
                    adds.count(v.er, v.spec == v.exact);
                }
                adds.record();
            }
        }
        if let Some((.., stall_runs)) = &telemetry {
            if stall_run > 0 {
                stall_runs.record(stall_run);
            }
        }
        trace
    }

    /// Renders the paper's Fig. 7 timing diagram of a short operand
    /// stream as ASCII, one column per clock cycle for at most
    /// `max_cycles` cycles. An op whose detector fires shows its
    /// speculative result (`S2*`, `VALID` low, `STALL` high) for one
    /// cycle, then the corrected sum.
    ///
    /// The diagram comes from an ordinary [`VlsaPipeline::run_observed`]
    /// over the first `max_cycles` pairs, so it records telemetry and
    /// spans like any run.
    ///
    /// # Panics
    ///
    /// Panics if the adder is wider than 64 bits.
    pub fn timing_diagram(&self, operands: &[(u64, u64)], max_cycles: usize) -> String {
        use std::fmt::Write as _;
        // Every op takes at least one cycle, so this prefix fills the
        // diagram.
        let shown = &operands[..operands.len().min(max_cycles)];
        let mut cycles = Vec::new(); // (op index, VALID) per cycle
        VlsaPipeline::new(self.adder).run_observed(shown, |s| {
            if s.stalled {
                cycles.push((s.index, false));
            }
            cycles.push((s.index, true));
        });
        let mut rows = [
            String::from("cycle |"),
            String::from("op    |"),
            String::from("sum   |"),
            String::from("valid |"),
            String::from("stall |"),
        ];
        for (cycle, &(op, valid)) in cycles.iter().take(max_cycles).enumerate() {
            let n = op + 1;
            let sum = if valid {
                format!("S{n}")
            } else {
                format!("S{n}*")
            };
            let _ = write!(rows[0], " {:>6}", cycle + 1);
            let _ = write!(rows[1], " {:>6}", format!("A{n}B{n}"));
            let _ = write!(rows[2], " {sum:>6}");
            let _ = write!(rows[3], " {:>6}", u8::from(valid));
            let _ = write!(rows[4], " {:>6}", u8::from(!valid));
        }
        rows.join("\n") + "\n"
    }
}

/// Converts cycle statistics into wall-clock effective latency.
///
/// The VLSA clock period is set by its slowest single-cycle component
/// (`max(T_aca, T_detect)`, paper §4.3); a traditional adder completes
/// in one cycle of period `t_traditional_ps`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EffectiveLatency {
    /// VLSA clock period in picoseconds.
    pub t_clock_ps: f64,
    /// Traditional single-cycle adder period in picoseconds.
    pub t_traditional_ps: f64,
}

impl EffectiveLatency {
    /// Average wall-clock time per addition for a trace, or `None` for
    /// an empty trace (no operations ⇒ no meaningful latency).
    pub fn time_per_add_ps(&self, trace: &PipelineTrace) -> Option<f64> {
        if trace.operations == 0 {
            None
        } else {
            Some(self.t_clock_ps * trace.average_latency())
        }
    }

    /// Speedup of the VLSA over the traditional adder for a trace, or
    /// `None` when the trace is empty or the per-add time degenerates
    /// to zero (a zero clock period).
    pub fn speedup(&self, trace: &PipelineTrace) -> Option<f64> {
        let per_add = self.time_per_add_ps(trace)?;
        (per_add > 0.0).then(|| self.t_traditional_ps / per_add)
    }
}

/// Generates `count` uniform random operand pairs for an `nbits` adder.
///
/// # Panics
///
/// Panics unless `1 <= nbits <= 64`.
pub fn random_operands<R: Rng + ?Sized>(
    nbits: usize,
    count: usize,
    rng: &mut R,
) -> Vec<(u64, u64)> {
    assert!((1..=64).contains(&nbits), "nbits must be in 1..=64");
    let mask = if nbits == 64 {
        u64::MAX
    } else {
        (1u64 << nbits) - 1
    };
    (0..count)
        .map(|_| (rng.gen::<u64>() & mask, rng.gen::<u64>() & mask))
        .collect()
}

/// Generates `count` operand pairs whose propagate bits (`a XOR b`) are
/// i.i.d. with probability `p` of being 1 — the workload model of
/// `vlsa_runstats::prob_longest_run_le_biased`. At `p = 0.5` this is
/// statistically identical to [`random_operands`]; `p > 0.5` lengthens
/// propagate runs exponentially, modeling biased or adversarial traffic
/// that blows past the uniform-operand design point (the drift the
/// conformance monitor exists to catch).
///
/// # Panics
///
/// Panics unless `1 <= nbits <= 64` and `p` is a probability.
pub fn biased_operands<R: Rng + ?Sized>(
    nbits: usize,
    count: usize,
    p: f64,
    rng: &mut R,
) -> Vec<(u64, u64)> {
    assert!((1..=64).contains(&nbits), "nbits must be in 1..=64");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mask = if nbits == 64 {
        u64::MAX
    } else {
        (1u64 << nbits) - 1
    };
    (0..count)
        .map(|_| {
            let a = rng.gen::<u64>() & mask;
            let mut xor = 0u64;
            for bit in 0..nbits {
                if rng.gen_bool(p) {
                    xor |= 1u64 << bit;
                }
            }
            (a, a ^ xor)
        })
        .collect()
}

/// Generates adversarial operand pairs that always carry the full
/// width (`a = 0111…1`, `b = 1`), defeating speculation every time.
///
/// # Panics
///
/// Panics unless `2 <= nbits <= 64`.
pub fn adversarial_operands(nbits: usize, count: usize) -> Vec<(u64, u64)> {
    assert!((2..=64).contains(&nbits), "nbits must be in 2..=64");
    let a = if nbits == 64 {
        u64::MAX >> 1
    } else {
        (1u64 << (nbits - 1)) - 1
    };
    vec![(a, 1); count]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn adder(nbits: usize, window: usize) -> SpeculativeAdder {
        SpeculativeAdder::new(nbits, window).expect("valid adder")
    }

    #[test]
    fn clean_stream_is_single_cycle() {
        let mut pipe = VlsaPipeline::new(adder(32, 32));
        let mut samples = Vec::new();
        let trace = pipe.run_observed(&[(1, 2), (3, 4), (5, 6)], |s| samples.push(*s));
        assert_eq!(trace.total_cycles, 3);
        assert_eq!(trace.errors, 0);
        assert_eq!(trace.average_latency(), 1.0);
        assert!(samples.iter().all(|s| !s.stalled && s.latency_cycles == 1));
        assert_eq!(samples[1].sum, 7);
    }

    #[test]
    fn errors_cost_exactly_one_extra_cycle() {
        let mut pipe = VlsaPipeline::new(adder(16, 4));
        let ops = adversarial_operands(16, 5);
        let mut samples = Vec::new();
        let trace = pipe.run_observed(&ops, |s| samples.push(*s));
        assert_eq!(trace.errors, 5);
        assert_eq!(trace.total_cycles, 10);
        assert_eq!(trace.average_latency(), 2.0);
        // Each stalled op delivers the corrected sum after its bubble.
        assert!(samples.iter().all(|s| s.stalled && s.latency_cycles == 2));
        assert_eq!(samples[0].sum, ops[0].0.wrapping_add(ops[0].1) & 0xFFFF);
        // Stall cycles show the speculative result with VALID low.
        let diagram = pipe.timing_diagram(&ops, 2);
        assert!(diagram.contains("valid |      0      1\n"), "{diagram}");
        assert!(diagram.contains("stall |      1      0\n"), "{diagram}");
    }

    #[test]
    fn mixed_stream_reproduces_fig7() {
        // Paper Fig. 7: ops 1 and 3 are clean, op 2 errs.
        let mut pipe = VlsaPipeline::new(adder(8, 3));
        let ops = [(1, 2), (0x7F, 1), (2, 4)];
        let trace = pipe.run(&ops);
        assert_eq!(trace.errors, 1);
        assert_eq!(trace.total_cycles, 4);
        let diagram = pipe.timing_diagram(&ops, 10);
        assert!(diagram.contains("S2*"), "{diagram}");
        assert!(
            diagram.contains("valid |      1      0      1      1"),
            "{diagram}"
        );
        assert!(
            diagram.contains("stall |      0      1      0      0"),
            "{diagram}"
        );
        // The diagram stops at `max_cycles`.
        let short = pipe.timing_diagram(&ops, 2);
        assert!(short.starts_with("cycle |      1      2\n"), "{short}");
    }

    #[test]
    fn average_latency_matches_error_probability() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(139);
        let a = adder(64, 8);
        let predicted = a.detection_probability();
        let mut pipe = VlsaPipeline::new(a);
        let ops = random_operands(64, 50_000, &mut rng);
        let trace = pipe.run(&ops);
        let expected = 1.0 + predicted;
        assert!(
            (trace.average_latency() - expected).abs() < 0.005,
            "{} vs {expected}",
            trace.average_latency()
        );
    }

    #[test]
    fn paper_design_point_is_near_one_cycle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(149);
        let a = SpeculativeAdder::for_accuracy(64, 0.9999).expect("valid");
        let mut pipe = VlsaPipeline::new(a);
        let trace = pipe.run(&random_operands(64, 100_000, &mut rng));
        assert!(
            trace.average_latency() < 1.001,
            "{}",
            trace.average_latency()
        );
    }

    #[test]
    fn effective_latency_speedup() {
        let mut pipe = VlsaPipeline::new(adder(32, 32));
        let trace = pipe.run(&[(1, 1); 10]);
        let eff = EffectiveLatency {
            t_clock_ps: 500.0,
            t_traditional_ps: 1000.0,
        };
        assert_eq!(eff.time_per_add_ps(&trace), Some(500.0));
        assert_eq!(eff.speedup(&trace), Some(2.0));
    }

    #[test]
    fn effective_latency_of_empty_trace_is_none() {
        let eff = EffectiveLatency {
            t_clock_ps: 500.0,
            t_traditional_ps: 1000.0,
        };
        let empty = PipelineTrace::default();
        assert_eq!(eff.time_per_add_ps(&empty), None);
        assert_eq!(eff.speedup(&empty), None);
        // A degenerate zero clock also refuses to report a speedup.
        let mut pipe = VlsaPipeline::new(adder(8, 8));
        let trace = pipe.run(&[(1, 2)]);
        let zero_clock = EffectiveLatency {
            t_clock_ps: 0.0,
            t_traditional_ps: 1000.0,
        };
        assert_eq!(zero_clock.time_per_add_ps(&trace), Some(0.0));
        assert_eq!(zero_clock.speedup(&trace), None);
    }

    #[test]
    fn trace_display_and_empty_behaviour() {
        let trace = PipelineTrace::default();
        assert_eq!(trace.average_latency(), 0.0);
        assert_eq!(trace.error_rate(), 0.0);
        let mut pipe = VlsaPipeline::new(adder(8, 8));
        let trace = pipe.run(&[(1, 2)]);
        assert!(trace.to_string().contains("1 ops"));
        assert_eq!(pipe.adder().nbits(), 8);
    }

    #[test]
    fn run_observed_samples_every_op() {
        let mut pipe = VlsaPipeline::new(adder(8, 3));
        let mut samples = Vec::new();
        let trace = pipe.run_observed(&[(1, 2), (0x7F, 1), (0x1FF, 4)], |s| samples.push(*s));
        assert_eq!(samples.len(), 3);
        // Clean op: 1 cycle, speculative sum delivered.
        assert_eq!(samples[0].sum, 3);
        assert!(!samples[0].stalled);
        assert_eq!(samples[0].latency_cycles, 1);
        // The all-propagate pair stalls and delivers the exact sum.
        assert!(samples[1].stalled);
        assert_eq!(samples[1].latency_cycles, 2);
        assert_eq!(samples[1].sum, 0x80);
        // Operands are reported truncated to the adder width.
        assert_eq!(samples[2].a, 0xFF);
        assert_eq!(samples[2].index, 2);
        // The observer changes nothing about the trace itself (ops 2
        // and 3 both carry long propagate runs and stall).
        assert_eq!(trace.errors, 2);
        assert_eq!(trace.total_cycles, 5);
    }

    #[test]
    fn biased_operands_hit_the_requested_xor_density() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(211);
        let ops = biased_operands(64, 2_000, 0.75, &mut rng);
        let ones: u64 = ops.iter().map(|&(a, b)| (a ^ b).count_ones() as u64).sum();
        let density = ones as f64 / (2_000.0 * 64.0);
        assert!((density - 0.75).abs() < 0.01, "{density}");
        // Biased streams stall a window sized for uniform traffic far
        // more often than the design point predicts.
        let a = adder(64, 18);
        let predicted = a.detection_probability();
        let mut pipe = VlsaPipeline::new(a);
        let trace = pipe.run(&ops);
        assert!(
            trace.error_rate() > 100.0 * predicted.max(1e-6),
            "error rate {} vs predicted {predicted}",
            trace.error_rate()
        );
    }

    #[test]
    fn random_operands_respect_mask() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(151);
        for (a, b) in random_operands(20, 100, &mut rng) {
            assert!(a < (1 << 20) && b < (1 << 20));
        }
    }

    #[test]
    #[should_panic(expected = "nbits must be in")]
    fn random_operands_reject_wide() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        random_operands(65, 1, &mut rng);
    }
}
