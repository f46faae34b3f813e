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
//! Methodology: per measurement the batch is executed once warm, then
//! `repeats` timed runs keep the *best* wall time — the run least
//! disturbed by the scheduler — and throughput is `ops / best`.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use vlsa_batch::{BatchExecutor, ScalarExecutor, SlicedExecutor};
use vlsa_pipeline::random_operands;
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

/// Best-of-`repeats` throughput of `executor` over `ops`.
fn ops_per_sec(executor: &dyn BatchExecutor, ops: &[(u64, u64)], repeats: usize) -> f64 {
    std::hint::black_box(executor.execute(ops)); // warm
    let mut best = Duration::MAX;
    for _ in 0..repeats {
        let start = Instant::now();
        std::hint::black_box(executor.execute(ops));
        best = best.min(start.elapsed());
    }
    ops.len() as f64 / best.as_secs_f64().max(1e-12)
}

/// Runs one executor row: scalar vs sliced, single-threaded.
fn run_exec_point(point: ExecPoint, ops: &[(u64, u64)], repeats: usize) -> Json {
    let scalar = ScalarExecutor::new(point.nbits, point.window);
    let sliced = SlicedExecutor::new(point.nbits, point.window);
    let scalar_ops_s = ops_per_sec(&scalar, ops, repeats);
    let sliced_ops_s = ops_per_sec(&sliced, ops, repeats);
    Json::obj()
        .set("nbits", point.nbits as u64)
        .set("window", point.window as u64)
        .set("ops", ops.len() as u64)
        .set("scalar_ops_s", scalar_ops_s)
        .set("sliced_ops_s", sliced_ops_s)
        .set("speedup", sliced_ops_s / scalar_ops_s.max(1e-12))
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
        "{:>5} {:>6} | {:>14} {:>14} | {:>8}",
        "nbits", "window", "scalar ops/s", "sliced ops/s", "speedup"
    );
    for &point in EXEC_POINTS {
        let mut rng = StdRng::seed_from_u64(0x5EED_BA7C);
        let ops = random_operands(point.nbits, batch_ops, &mut rng);
        let row = run_exec_point(point, &ops, repeats);
        let f = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "{:>5} {:>6} | {:>14.0} {:>14.0} | {:>7.1}x",
            point.nbits,
            point.window,
            f("scalar_ops_s"),
            f("sliced_ops_s"),
            f("speedup"),
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
    report
        .to_json()
        .get("rows")
        .and_then(Json::as_arr)
        .map_or(f64::INFINITY, |rows| {
            rows.iter()
                .filter(|row| row.get("nbits").and_then(Json::as_u64) == Some(64))
                .filter_map(|row| row.get("speedup").and_then(Json::as_f64))
                .fold(f64::INFINITY, f64::min)
        })
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
            assert!(scalar > 0.0 && sliced > 0.0);
            assert!((speedup - sliced / scalar).abs() < 1e-9);
        }
        assert!(min_speedup(&report).is_finite());
    }
}
