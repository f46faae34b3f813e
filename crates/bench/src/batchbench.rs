//! The executor benchmark behind `BENCH_batch.json`: per-shard
//! throughput of the scalar loop versus the bit-sliced engine, on the
//! same operand stream, at the widths and windows the conformance
//! suite proves bit-identical.
//!
//! Each row compares single-threaded `ScalarExecutor` and
//! `SlicedExecutor` at one `(nbits, window)` point. The `speedup`
//! column is what the `--gate` flag checks: this is the per-shard win
//! a `--backend sliced` server inherits.
//!
//! The `pipeline_ops_s` column times what a sliced shard actually runs
//! per batch: `ResilientPipeline::run_batch_on` over the sliced
//! executor under `ResilienceConfig::default()` (the per-op resilience
//! replay plus the mod-3 residue audit on top of `execute`). Its ratio
//! to `sliced_ops_s` is the replay overhead, which `--gate` also bounds
//! by [`MAX_REPLAY_OVERHEAD`] on 64-bit rows: the common case must stay
//! a small constant over the bare engine.
//!
//! Methodology: per row each measurement runs once warm, then
//! `repeats` timed runs keep the *best* wall time — the run least
//! disturbed by the scheduler — and throughput is `ops / best`. The
//! sliced and pipeline measurements of a row alternate within each
//! repetition, so their ratio compares them under the same machine
//! load; the scalar loop, 20× slower, is timed on its own so its cache
//! and heap footprint does not land on either of them.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use vlsa_batch::{BatchExecutor, ScalarExecutor, SlicedExecutor};
use vlsa_core::SpeculativeAdder;
use vlsa_pipeline::{random_operands, ResilienceConfig, ResilientPipeline};
use vlsa_telemetry::Json;

use crate::report::Report;

/// One executor comparison: a width/window pair.
#[derive(Clone, Copy, Debug)]
pub struct ExecPoint {
    /// Operand width in bits.
    pub nbits: usize,
    /// Speculative carry window.
    pub window: usize,
}

/// The committed comparison points: the acceptance widths crossed with
/// representative windows (the full width × window lattice lives in
/// the conformance tests; the bench keeps one row per width plus the
/// window sweep at 64 bits).
pub const EXEC_POINTS: &[ExecPoint] = &[
    ExecPoint {
        nbits: 64,
        window: 8,
    },
    ExecPoint {
        nbits: 64,
        window: 4,
    },
    ExecPoint {
        nbits: 64,
        window: 2,
    },
    ExecPoint {
        nbits: 32,
        window: 4,
    },
    ExecPoint {
        nbits: 16,
        window: 2,
    },
    ExecPoint {
        nbits: 8,
        window: 2,
    },
];

/// Ops per timed batch. A multiple of 64 so every block is full; big
/// enough that per-call overhead vanishes, small enough to stay in
/// cache and finish a full sweep in seconds.
pub const BATCH_OPS: usize = 64 * 1024;

/// Timed repetitions per measurement (best-of).
pub const REPEATS: usize = 5;

/// The largest `sliced_ops_s / pipeline_ops_s` a 64-bit row may show
/// when `--gate` is given: the resilient replay may at most halve the
/// bare engine's throughput.
pub const MAX_REPLAY_OVERHEAD: f64 = 2.0;

/// Best-of-`repeats` throughput of each of `runs` over `ops` ops,
/// timing the runs in alternation.
fn ops_per_sec<const N: usize>(
    ops: usize,
    repeats: usize,
    mut runs: [&mut dyn FnMut(); N],
) -> [f64; N] {
    for run in &mut runs {
        run(); // warm
    }
    let mut best = [Duration::MAX; N];
    for _ in 0..repeats {
        for (run, best) in runs.iter_mut().zip(&mut best) {
            let start = Instant::now();
            run();
            *best = (*best).min(start.elapsed());
        }
    }
    best.map(|b| ops as f64 / b.as_secs_f64().max(1e-12))
}

/// Runs one executor row: scalar vs sliced vs the resilient pipeline
/// over sliced, single-threaded.
fn run_exec_point(point: ExecPoint, ops: &[(u64, u64)], repeats: usize) -> Json {
    let scalar = ScalarExecutor::new(point.nbits, point.window);
    let sliced = SlicedExecutor::new(point.nbits, point.window);
    let adder = SpeculativeAdder::new(point.nbits, point.window).expect("committed point");
    let mut pipeline = ResilientPipeline::new(adder, ResilienceConfig::default());
    let [scalar_ops_s] = ops_per_sec(
        ops.len(),
        repeats,
        [&mut || drop(std::hint::black_box(scalar.execute(ops)))],
    );
    let [sliced_ops_s, pipeline_ops_s] = ops_per_sec(
        ops.len(),
        repeats,
        [
            &mut || drop(std::hint::black_box(sliced.execute(ops))),
            &mut || drop(std::hint::black_box(pipeline.run_batch_on(&sliced, ops))),
        ],
    );
    Json::obj()
        .set("nbits", point.nbits as u64)
        .set("window", point.window as u64)
        .set("ops", ops.len() as u64)
        .set("scalar_ops_s", scalar_ops_s)
        .set("sliced_ops_s", sliced_ops_s)
        .set("speedup", sliced_ops_s / scalar_ops_s.max(1e-12))
        .set("pipeline_ops_s", pipeline_ops_s)
}

/// Runs the whole benchmark and assembles the `BENCH_batch.json`
/// report. `batch_ops`/`repeats` shrink for tests; the committed
/// report uses [`BATCH_OPS`]/[`REPEATS`].
pub fn run_batch_bench(batch_ops: usize, repeats: usize) -> Report {
    let mut report = Report::new("batch");
    report.set("batch_ops", batch_ops as u64);
    report.set("repeats", repeats as u64);
    report.set(
        "cores",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    );

    println!(
        "{:>5} {:>6} | {:>14} {:>14} | {:>8} | {:>14}",
        "nbits", "window", "scalar ops/s", "sliced ops/s", "speedup", "pipeline ops/s"
    );
    for &point in EXEC_POINTS {
        let mut rng = StdRng::seed_from_u64(0x5EED_BA7C);
        let ops = random_operands(point.nbits, batch_ops, &mut rng);
        let row = run_exec_point(point, &ops, repeats);
        let f = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "{:>5} {:>6} | {:>14.0} {:>14.0} | {:>7.1}x | {:>14.0}",
            point.nbits,
            point.window,
            f("scalar_ops_s"),
            f("sliced_ops_s"),
            f("speedup"),
            f("pipeline_ops_s"),
        );
        report.push_row(row);
    }
    report
}

/// The smallest sliced-over-scalar speedup across the *production
/// width* (64-bit) executor rows — what `--gate` compares against.
/// Narrow widths are reported but not gated: an 8-bit scalar add is
/// cheap enough that slicing's win shrinks by construction, while the
/// server always runs 64-bit shards.
pub fn min_speedup(report: &Report) -> f64 {
    wide_metric(report, |row| row.get("speedup").and_then(Json::as_f64))
        .into_iter()
        .fold(f64::INFINITY, f64::min)
}

/// The largest `sliced_ops_s / pipeline_ops_s` across the 64-bit rows:
/// how many times slower the resilient replay runs than the bare
/// sliced engine. `--gate` fails it above [`MAX_REPLAY_OVERHEAD`].
pub fn max_replay_overhead(report: &Report) -> f64 {
    wide_metric(report, |row| {
        let f = |k: &str| row.get(k).and_then(Json::as_f64);
        Some(f("sliced_ops_s")? / f("pipeline_ops_s")?.max(1e-12))
    })
    .into_iter()
    .fold(0.0, f64::max)
}

/// `metric` of every 64-bit row that carries it.
fn wide_metric(report: &Report, metric: impl Fn(&Json) -> Option<f64>) -> Vec<f64> {
    let doc = report.to_json();
    doc.get("rows")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|row| row.get("nbits").and_then(Json::as_u64) == Some(64))
        .filter_map(metric)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_report_has_every_committed_point_and_coherent_speedups() {
        // Tiny batch: this exercises shape, not performance.
        let report = run_batch_bench(256, 1);
        let doc = report.to_json();
        let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(rows.len(), EXEC_POINTS.len());
        for (row, point) in rows.iter().zip(EXEC_POINTS) {
            assert_eq!(
                row.get("nbits").and_then(Json::as_u64),
                Some(point.nbits as u64)
            );
            let scalar = row
                .get("scalar_ops_s")
                .and_then(Json::as_f64)
                .expect("scalar");
            let sliced = row
                .get("sliced_ops_s")
                .and_then(Json::as_f64)
                .expect("sliced");
            let speedup = row.get("speedup").and_then(Json::as_f64).expect("speedup");
            let pipeline = row
                .get("pipeline_ops_s")
                .and_then(Json::as_f64)
                .expect("pipeline");
            assert!(scalar > 0.0 && sliced > 0.0 && pipeline > 0.0);
            assert!((speedup - sliced / scalar).abs() < 1e-9);
        }
        assert!(min_speedup(&report).is_finite());
        assert!(max_replay_overhead(&report) > 0.0);
    }
}
