//! The pluggable batch-execution boundary.
//!
//! A [`BatchExecutor`] turns a slice of operand pairs into per-op
//! [`OpVerdict`]s: everything the resilience layer needs to replay its
//! per-op state machine (speculative sum, exact sum, `ER` flag, both
//! carry-outs) without caring how the arithmetic was scheduled.
//!
//! Two implementations ship:
//!
//! - [`ScalarExecutor`] — the one-op-at-a-time loop, kept as the
//!   conformance oracle and the executor behind
//!   `ResilientPipeline::run`. Deliberately free of telemetry so oracle
//!   runs measure the arithmetic, not the instrumentation.
//! - [`SlicedExecutor`] — the transposed engine: chunks the batch into
//!   64-lane blocks and, one block after another on the calling thread,
//!   transposes, runs the word-wide ACA, and untransposes. Records
//!   `vlsa.batch.*` phase counters and the lane-occupancy histogram
//!   when telemetry is enabled.

use crate::engine::run_block;
use crate::transpose::{transpose_block, untranspose_block, LANES};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;
use vlsa_telemetry::names::batch as metric;
use vlsa_telemetry::DEFAULT_BUCKETS;

/// Which [`BatchExecutor`] a component should run.
///
/// Parsed from `--backend scalar|sliced`. [`Default`] is
/// [`Backend::Scalar`], the conformance oracle, so that report rows
/// without a `backend` field read as scalar; servers pick their own
/// default (`vlsa-server`'s `ShardConfig` runs sliced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// One op at a time through the scalar ACA model.
    #[default]
    Scalar,
    /// 64 ops per machine word through the transposed engine.
    Sliced,
}

impl Backend {
    /// The flag spelling, also used as the `backend` label/column value.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sliced => "sliced",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Backend, String> {
        match s {
            "scalar" => Ok(Backend::Scalar),
            "sliced" => Ok(Backend::Sliced),
            other => Err(format!("unknown backend {other:?} (scalar|sliced)")),
        }
    }
}

/// Everything the resilience layer needs to know about one addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpVerdict {
    /// Speculative (windowed) sum, masked to the executor's width.
    pub spec: u64,
    /// Exact sum, masked to the executor's width.
    pub exact: u64,
    /// Whether the `ER` detector fired (speculation may be wrong).
    pub er: bool,
    /// Speculative carry-out.
    pub spec_cout: bool,
    /// Exact carry-out.
    pub exact_cout: bool,
}

/// A strategy for executing a batch of independent additions.
///
/// Implementations mask operands to their configured width themselves,
/// and must be bit-identical to [`ScalarExecutor`] in every `OpVerdict`
/// field — the conformance proptests enforce this.
pub trait BatchExecutor: Send + Sync + std::fmt::Debug {
    /// Short identifier (`"scalar"` / `"sliced"`), used in telemetry
    /// and bench rows.
    fn name(&self) -> &'static str;

    /// Operand width in bits.
    fn nbits(&self) -> usize;

    /// Speculation window `k`.
    fn window(&self) -> usize;

    /// Executes every op, preserving order.
    fn execute(&self, ops: &[(u64, u64)]) -> Vec<OpVerdict>;
}

/// Builds the executor for `backend`.
pub fn executor_for(backend: Backend, nbits: usize, window: usize) -> Arc<dyn BatchExecutor> {
    match backend {
        Backend::Scalar => Arc::new(ScalarExecutor::new(nbits, window)),
        Backend::Sliced => Arc::new(SlicedExecutor::new(nbits, window)),
    }
}

fn width_mask(nbits: usize) -> u64 {
    if nbits >= 64 {
        u64::MAX
    } else {
        (1u64 << nbits) - 1
    }
}

/// The conformance oracle: the same per-op scalar loop the pipeline
/// has always run, minus telemetry.
#[derive(Debug, Clone)]
pub struct ScalarExecutor {
    nbits: usize,
    window: usize,
}

impl ScalarExecutor {
    /// # Panics
    /// If `nbits` is 0 or exceeds 64, or `window` is 0.
    pub fn new(nbits: usize, window: usize) -> ScalarExecutor {
        assert!((1..=64).contains(&nbits), "nbits={nbits}");
        assert!(window >= 1, "window={window}");
        ScalarExecutor { nbits, window }
    }

    /// One op's verdict; operands are masked to the executor's width.
    pub fn verdict(&self, a: u64, b: u64) -> OpVerdict {
        let mask = width_mask(self.nbits);
        let (a, b) = (a & mask, b & mask);
        let (spec, spec_cout) = vlsa_core::windowed_add_u64(a, b, self.nbits, self.window);
        let full = a as u128 + b as u128;
        OpVerdict {
            spec,
            exact: (full as u64) & mask,
            er: vlsa_runstats::longest_one_run_u64(a ^ b) as usize >= self.window,
            spec_cout,
            exact_cout: full >> self.nbits != 0,
        }
    }
}

impl BatchExecutor for ScalarExecutor {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn nbits(&self) -> usize {
        self.nbits
    }

    fn window(&self) -> usize {
        self.window
    }

    fn execute(&self, ops: &[(u64, u64)]) -> Vec<OpVerdict> {
        ops.iter().map(|&(a, b)| self.verdict(a, b)).collect()
    }
}

/// The transposed engine: 64 additions per machine word.
#[derive(Debug, Clone)]
pub struct SlicedExecutor {
    nbits: usize,
    window: usize,
}

impl SlicedExecutor {
    /// # Panics
    /// If `nbits` is 0 or exceeds 64, or `window` is 0.
    pub fn new(nbits: usize, window: usize) -> SlicedExecutor {
        assert!((1..=64).contains(&nbits), "nbits={nbits}");
        assert!(window >= 1, "window={window}");
        SlicedExecutor { nbits, window }
    }

    /// Records the batch's op and block counts, the per-phase
    /// `[transpose, compute, untranspose]` nanoseconds, and one lane
    /// occupancy sample per block.
    fn record(ops: &[(u64, u64)], phase_ns: [u64; 3]) {
        if !vlsa_telemetry::is_enabled() {
            return;
        }
        let rec = vlsa_telemetry::recorder();
        rec.counter(metric::OPS).add(ops.len() as u64);
        rec.counter(metric::BLOCKS)
            .add(ops.len().div_ceil(LANES) as u64);
        rec.counter(metric::TRANSPOSE_NS).add(phase_ns[0]);
        rec.counter(metric::COMPUTE_NS).add(phase_ns[1]);
        rec.counter(metric::UNTRANSPOSE_NS).add(phase_ns[2]);
        let occupancy = rec.histogram(metric::LANE_OCCUPANCY, DEFAULT_BUCKETS);
        for block in ops.chunks(LANES) {
            occupancy.record(block.len() as u64);
        }
    }
}

impl BatchExecutor for SlicedExecutor {
    fn name(&self) -> &'static str {
        "sliced"
    }

    fn nbits(&self) -> usize {
        self.nbits
    }

    fn window(&self) -> usize {
        self.window
    }

    fn execute(&self, ops: &[(u64, u64)]) -> Vec<OpVerdict> {
        if ops.is_empty() {
            return Vec::new();
        }
        let mask = width_mask(self.nbits);
        let mut verdicts = Vec::with_capacity(ops.len());
        let mut phase_ns = [0u64; 3];
        for chunk in ops.chunks(LANES) {
            let masked: Vec<(u64, u64)> =
                chunk.iter().map(|&(a, b)| (a & mask, b & mask)).collect();
            let t0 = Instant::now();
            let (ta, tb) = transpose_block(&masked);
            let t1 = Instant::now();
            let block = run_block(&ta, &tb, self.nbits, self.window);
            let t2 = Instant::now();
            let spec = untranspose_block(&block.spec_sum, masked.len());
            let exact = untranspose_block(&block.exact_sum, masked.len());
            verdicts.extend((0..masked.len()).map(|lane| OpVerdict {
                spec: spec[lane],
                exact: exact[lane],
                er: block.er >> lane & 1 == 1,
                spec_cout: block.spec_cout >> lane & 1 == 1,
                exact_cout: block.exact_cout >> lane & 1 == 1,
            }));
            let t3 = Instant::now();
            phase_ns[0] += t1.duration_since(t0).as_nanos() as u64;
            phase_ns[1] += t2.duration_since(t1).as_nanos() as u64;
            phase_ns[2] += t3.duration_since(t2).as_nanos() as u64;
        }
        SlicedExecutor::record(ops, phase_ns);
        verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn backend_parses_and_prints() {
        assert_eq!("scalar".parse::<Backend>().unwrap(), Backend::Scalar);
        assert_eq!("sliced".parse::<Backend>().unwrap(), Backend::Sliced);
        assert!("vector".parse::<Backend>().is_err());
        assert_eq!(Backend::default(), Backend::Scalar);
        assert_eq!(Backend::Sliced.to_string(), "sliced");
    }

    #[test]
    fn executors_agree_on_a_mixed_batch() {
        let mut rng = StdRng::seed_from_u64(0xE_ACA);
        for &(nbits, window) in &[(64usize, 8usize), (32, 4), (16, 2), (8, 3)] {
            let scalar = ScalarExecutor::new(nbits, window);
            let sliced = SlicedExecutor::new(nbits, window);
            // 150 ops: two full blocks plus a ragged 22-lane tail.
            let mut ops: Vec<(u64, u64)> = (0..150).map(|_| (rng.gen(), rng.gen())).collect();
            ops.push((u64::MAX, 1)); // worst-case carry chain
            ops.push((0, 0));
            assert_eq!(
                scalar.execute(&ops),
                sliced.execute(&ops),
                "n={nbits} k={window}"
            );
        }
    }

    #[test]
    fn empty_batch_yields_no_verdicts() {
        assert!(SlicedExecutor::new(64, 8).execute(&[]).is_empty());
        assert!(ScalarExecutor::new(64, 8).execute(&[]).is_empty());
    }

    #[test]
    fn sliced_records_phase_and_occupancy_telemetry() {
        let scope = vlsa_telemetry::ScopedRecorder::install();
        let sliced = SlicedExecutor::new(64, 8);
        let ops: Vec<(u64, u64)> = (0..100).map(|i| (i, i * 3)).collect();
        sliced.execute(&ops);
        let reg = scope.registry();
        assert_eq!(reg.counter_value(metric::OPS), 100);
        assert_eq!(reg.counter_value(metric::BLOCKS), 2);
        let occupancy = reg.histogram(metric::LANE_OCCUPANCY, DEFAULT_BUCKETS);
        assert_eq!(occupancy.count(), 2); // one full word, one 36-lane tail
    }
}
