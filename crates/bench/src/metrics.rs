//! Builders for the `BENCH_pipeline.json` / `BENCH_sim.json` telemetry
//! reports emitted by the `metrics` binary.
//!
//! Each builder runs a representative experiment under a
//! [`ScopedRecorder`] so the report captures exactly that experiment's
//! instrumentation, regardless of what else the process did.

use crate::report::Report;
use crate::{paper_window, synthesize, PAPER_ACCURACY};
use rand::SeedableRng;
use std::sync::Arc;
use vlsa_core::{almost_correct_adder, SpeculativeAdder};
use vlsa_monitor::{ConformanceMonitor, MonitorConfig};
use vlsa_pipeline::{
    random_operands, FaultKind, PipelineFault, QueueConfig, ResilienceConfig, ResilientPipeline,
    VlsaPipeline,
};
use vlsa_sim::{check_adder, random_pairs};
use vlsa_telemetry::names::core as core_metric;
use vlsa_telemetry::{Json, Registry, ScopedRecorder, DEFAULT_BUCKETS};

/// Everything a `pipeline_report` run produces beyond the report
/// itself: the live registry (for Prometheus exposition or a scrape
/// endpoint) and the conformance monitor that watched the stream (for
/// the `/snapshot` document).
#[derive(Debug)]
pub struct PipelineMetricsRun {
    /// The `BENCH_pipeline.json` document.
    pub report: Report,
    /// The registry the experiment recorded into.
    pub registry: Arc<Registry>,
    /// The monitor that watched the random-stream segment.
    pub monitor: ConformanceMonitor,
}

/// Latency quantiles reported in `BENCH_pipeline.json`, as
/// `(field name, q)` pairs.
pub const LATENCY_QUANTILES: &[(&str, f64)] =
    &[("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p999", 0.999)];

/// Summarizes a finished conformance monitor for the report: window and
/// alert totals, the worst (smallest) spectrum p-value seen, and the
/// model-vs-measured stall rate.
fn monitor_summary(monitor: &ConformanceMonitor) -> Json {
    let windows = monitor.windows();
    let min_p = windows
        .iter()
        .filter_map(|w| w.p_value)
        .fold(f64::INFINITY, f64::min);
    let (total_ops, total_stalls) = windows.iter().fold((0u64, 0u64), |(ops, stalls), w| {
        (ops + w.ops, stalls + w.stalls)
    });
    let mut doc = Json::obj()
        .set("windows", windows.len() as u64)
        .set("window_ops", monitor.config().window_ops)
        .set("alerts", monitor.alerts().len() as u64)
        .set("expected_stall_rate", monitor.config().stall_probability())
        .set(
            "observed_stall_rate",
            if total_ops == 0 {
                0.0
            } else {
                total_stalls as f64 / total_ops as f64
            },
        );
    if min_p.is_finite() {
        doc = doc.set("min_p_value", min_p);
    }
    doc.set(
        "alert_records",
        Json::Arr(monitor.alerts().iter().map(|a| a.to_json()).collect()),
    )
}

/// Runs the paper's 64-bit design point through the pipeline (a random
/// stream plus a queued run) and reports the speculation metrics. The
/// random stream runs under a [`ConformanceMonitor`] fed from the
/// pipeline's operand-sampling hook, so the report carries live
/// model-vs-measured conformance fields next to the raw counters. A
/// third segment runs the [`ResilientPipeline`] with a persistent
/// suppressed-detector fault so the retry / escalation / degradation
/// counters in the report are exercised, not zero.
pub fn pipeline_report(ops: usize, queue_cycles: u64, seed: u64) -> Report {
    pipeline_metrics_run(ops, queue_cycles, seed).report
}

/// [`pipeline_report`] keeping the registry and monitor alive for the
/// `--prom` / `--serve` paths of the `metrics` binary.
pub fn pipeline_metrics_run(ops: usize, queue_cycles: u64, seed: u64) -> PipelineMetricsRun {
    let scope = ScopedRecorder::install();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let adder = SpeculativeAdder::for_accuracy(64, PAPER_ACCURACY).expect("valid design point");
    let window = adder.window();
    let mut monitor = ConformanceMonitor::new(MonitorConfig::new(64, window));
    let mut pipe = VlsaPipeline::new(adder);
    let trace = pipe.run_observed(&random_operands(64, ops, &mut rng), |sample| {
        monitor.observe(sample.a, sample.b, sample.stalled, sample.latency_cycles);
    });
    monitor.finish();
    let stats = pipe
        .run_queued(
            QueueConfig {
                arrival_prob: 0.9,
                capacity: 8,
            },
            queue_cycles,
            &mut rng,
        )
        .expect("valid queue config");

    // Resilience segment: an aggressive 8-bit window-4 design (6.25% of
    // random pairs mispredict, and `window ≥ (nbits − 1) / 2` keeps
    // every natural error a single run, so mod 3 misses none) with its
    // detector held low — the residue check is the only thing standing
    // between the stream and silent corruption, and the degradation
    // latch must trip.
    let aggressive = SpeculativeAdder::new(8, 4).expect("valid design point");
    let mut resilient = ResilientPipeline::new(aggressive, ResilienceConfig::default())
        .with_fault(PipelineFault::persistent(FaultKind::SuppressDetector));
    let rtrace = resilient.run(&random_operands(8, ops.min(10_000), &mut rng));

    let registry = scope.registry();
    let latency_hist = registry.histogram(
        vlsa_telemetry::names::pipeline::OP_LATENCY_CYCLES,
        DEFAULT_BUCKETS,
    );
    let mut quantiles = Json::obj();
    for &(field, q) in LATENCY_QUANTILES {
        quantiles = quantiles.set(field, latency_hist.quantile(q).expect("nonempty histogram"));
    }
    let mut report = Report::new("pipeline");
    report
        .set("nbits", 64u64)
        .set("window", window as u64)
        .set("ops", trace.operations)
        .set("adds", registry.counter_value(core_metric::ADDS))
        .set(
            "detector_fires",
            registry.counter_value(core_metric::DETECTOR_FIRES),
        )
        .set(
            "true_errors",
            registry.counter_value(core_metric::TRUE_ERRORS),
        )
        .set(
            "false_positives",
            registry.counter_value(core_metric::FALSE_POSITIVES),
        )
        .set("average_latency_cycles", trace.average_latency())
        .set(
            "latency_histogram",
            registry
                .histogram(
                    vlsa_telemetry::names::pipeline::OP_LATENCY_CYCLES,
                    DEFAULT_BUCKETS,
                )
                .to_json(),
        )
        .set("latency_quantiles", quantiles)
        .set("monitor", monitor_summary(&monitor))
        .set("mean_queue_wait", stats.mean_wait())
        .set("queue_drop_rate", stats.drop_rate())
        .set("queue_throughput", stats.throughput())
        .set("residue_checks", rtrace.stats.residue_checks)
        .set("residue_retries", rtrace.stats.retries)
        .set("escalations", rtrace.stats.escalations)
        .set("watchdog_trips", rtrace.stats.watchdog_trips)
        .set("degrade_transitions", rtrace.stats.degrade_transitions)
        .set("degraded_ops", rtrace.stats.degraded_ops)
        .set("silent_corruptions", rtrace.stats.silent_corruptions);
    report.attach_registry(registry);
    let registry = Arc::clone(registry);
    drop(scope);
    PipelineMetricsRun {
        report,
        registry,
        monitor,
    }
}

/// Simulates random vectors through a gate-level ACA and reports the
/// engine profiling metrics (passes, gate evals, lane utilization,
/// sweep timing).
pub fn sim_report(nbits: usize, vectors: usize, seed: u64) -> Report {
    let scope = ScopedRecorder::install();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let window = paper_window(nbits);
    let netlist = synthesize(&almost_correct_adder(nbits, window));
    let pairs = random_pairs(nbits, vectors, &mut rng);
    let check = check_adder(&netlist, nbits, &pairs).expect("simulate ACA");

    let registry = scope.registry();
    let mut report = Report::new("sim");
    report
        .set("nbits", nbits as u64)
        .set("window", window as u64)
        .set("vectors", check.total)
        .set("gate_level_mismatches", check.mismatches)
        .set("measured_error_rate", check.error_rate())
        .set("passes", registry.counter_value("vlsa.sim.passes"))
        .set("gate_evals", registry.counter_value("vlsa.sim.gate_evals"))
        .set(
            "lanes_per_pass",
            registry
                .histogram("vlsa.sim.lanes_per_pass", DEFAULT_BUCKETS)
                .to_json(),
        )
        .set(
            "sweep_ns",
            registry
                .histogram("vlsa.sim.sweep_ns", DEFAULT_BUCKETS)
                .to_json(),
        );
    report.attach_registry(registry);
    report
}

/// Required fields of `BENCH_pipeline.json`, used by the acceptance
/// test and documented in `EXPERIMENTS.md`.
pub const PIPELINE_REPORT_FIELDS: &[&str] = &[
    "adds",
    "detector_fires",
    "false_positives",
    "latency_histogram",
    "latency_quantiles",
    "monitor",
    "mean_queue_wait",
    "residue_retries",
    "escalations",
    "watchdog_trips",
    "degrade_transitions",
    "degraded_ops",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;
    use vlsa_telemetry::Json;

    #[test]
    fn pipeline_report_round_trips_with_required_fields() {
        let _guard = test_lock();
        let report = pipeline_report(20_000, 5_000, 64);
        let text = report.to_json().to_string();
        let parsed = Json::parse(&text).expect("valid JSON");

        assert_eq!(
            parsed.get("report").and_then(Json::as_str),
            Some("pipeline")
        );
        for field in PIPELINE_REPORT_FIELDS {
            assert!(parsed.get(field).is_some(), "missing field `{field}`");
        }
        let adds = parsed.get("adds").and_then(Json::as_u64).expect("adds");
        // 20k stream adds plus ~0.9 × 5k queued arrivals.
        assert!(adds >= 23_000, "adds={adds}");
        let fires = parsed
            .get("detector_fires")
            .and_then(Json::as_u64)
            .expect("fires");
        let errors = parsed
            .get("true_errors")
            .and_then(Json::as_u64)
            .expect("errors");
        let false_pos = parsed
            .get("false_positives")
            .and_then(Json::as_u64)
            .expect("fp");
        assert!(fires >= errors + false_pos);
        let hist = parsed.get("latency_histogram").expect("histogram");
        assert!(hist.get("count").and_then(Json::as_u64).expect("count") >= 20_000);
        let wait = parsed
            .get("mean_queue_wait")
            .and_then(Json::as_f64)
            .expect("wait");
        assert!(wait >= 1.0, "wait={wait}");
        // Latency quantiles: almost every op completes in one cycle at
        // the 99.99% design point.
        let quantiles = parsed.get("latency_quantiles").expect("quantiles");
        for (field, _) in LATENCY_QUANTILES {
            let v = quantiles.get(field).and_then(Json::as_f64);
            assert!(v.is_some_and(|v| (1.0..=2.0).contains(&v)), "{field}={v:?}");
        }
        assert_eq!(quantiles.get("p50").and_then(Json::as_f64), Some(1.0));
        // Conformance monitoring: a uniform stream matches the model,
        // so windows close without alerts.
        let monitor = parsed.get("monitor").expect("monitor summary");
        assert!(
            monitor
                .get("windows")
                .and_then(Json::as_u64)
                .expect("windows")
                >= 4,
            "{monitor}"
        );
        assert_eq!(monitor.get("alerts").and_then(Json::as_u64), Some(0));
        assert_eq!(
            monitor
                .get("alert_records")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0)
        );
        let expected = monitor
            .get("expected_stall_rate")
            .and_then(Json::as_f64)
            .expect("expected rate");
        let observed = monitor
            .get("observed_stall_rate")
            .and_then(Json::as_f64)
            .expect("observed rate");
        assert!(expected > 0.0 && observed < 10.0 * expected.max(1e-6));
        assert!(
            monitor
                .get("min_p_value")
                .and_then(Json::as_f64)
                .expect("min p")
                > 1e-3
        );
        // The monitor's own metric family landed in the snapshot.
        assert!(parsed
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("vlsa.monitor.windows"))
            .is_some());
        // The registry snapshot rides along.
        assert!(parsed
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(core_metric::ADDS))
            .is_some());
        // The resilience segment actually exercised its machinery: the
        // suppressed detector forces escalations, the degradation latch
        // trips, and the residue check leaves nothing silent.
        let escalations = parsed
            .get("escalations")
            .and_then(Json::as_u64)
            .expect("escalations");
        assert!(escalations > 0, "escalations={escalations}");
        assert!(
            parsed
                .get("degrade_transitions")
                .and_then(Json::as_u64)
                .expect("degrade_transitions")
                >= 1
        );
        assert!(
            parsed
                .get("degraded_ops")
                .and_then(Json::as_u64)
                .expect("degraded_ops")
                > 0
        );
        assert_eq!(
            parsed.get("silent_corruptions").and_then(Json::as_u64),
            Some(0)
        );
        assert!(parsed
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("vlsa.resilience.escalations"))
            .is_some());
    }

    #[test]
    fn sim_report_round_trips_with_profile() {
        let _guard = test_lock();
        let report = sim_report(32, 130, 7);
        let text = report.to_json().to_string();
        let parsed = Json::parse(&text).expect("valid JSON");

        assert_eq!(parsed.get("report").and_then(Json::as_str), Some("sim"));
        // 130 vectors = 3 passes (64 + 64 + 2 lanes).
        assert!(parsed.get("passes").and_then(Json::as_u64).expect("passes") >= 3);
        assert!(
            parsed
                .get("gate_evals")
                .and_then(Json::as_u64)
                .expect("evals")
                > 0
        );
        let lanes = parsed.get("lanes_per_pass").expect("lanes histogram");
        assert!(lanes.get("sum").and_then(Json::as_u64).expect("sum") >= 130);
        assert!(parsed
            .get("sweep_ns")
            .and_then(|h| h.get("count"))
            .is_some());
    }
}
