//! Well-known metric names.
//!
//! Instrument names are plain strings (`vlsa.<crate>.<metric>`), which
//! keeps the recording API dependency-free — but report builders, CI
//! checks, and dashboards need the exact spellings. This module is the
//! single source of truth for the names the workspace emits; new
//! instrumented subsystems add their names here.

/// `vlsa.core.*` — speculative-add accounting (every `add_u64` /
/// `add_wide` call).
pub mod core {
    /// Total speculative additions performed.
    pub const ADDS: &str = "vlsa.core.adds";
    /// Additions where the `ER` detector fired.
    pub const DETECTOR_FIRES: &str = "vlsa.core.detector_fires";
    /// Additions where the speculative sum was actually wrong.
    pub const TRUE_ERRORS: &str = "vlsa.core.true_errors";
    /// Detector fires on sums that were nevertheless correct.
    pub const FALSE_POSITIVES: &str = "vlsa.core.false_positives";
}

/// `vlsa.pipeline.*` — the variable-latency pipeline's stall
/// accounting (`vlsa_pipeline::VlsaPipeline::run` and `run_observed`)
/// and its issue-queue model (`VlsaPipeline::run_queued` and
/// `run_queued_ops`, the `queue_*` names).
pub mod pipeline {
    /// Operand pairs fed through the pipeline.
    pub const OPS: &str = "vlsa.pipeline.ops";
    /// Operations that paid the recovery bubble.
    pub const STALLS: &str = "vlsa.pipeline.stalls";
    /// Per-operation latency in cycles (1 clean, 2 stalled).
    pub const OP_LATENCY_CYCLES: &str = "vlsa.pipeline.op_latency_cycles";
    /// Lengths of runs of consecutive stalled operations.
    pub const STALL_RUN_OPS: &str = "vlsa.pipeline.stall_run_ops";
    /// Operand pairs that arrived at the issue queue.
    pub const QUEUE_ARRIVALS: &str = "vlsa.pipeline.queue_arrivals";
    /// Queued operations completed (`VALID` results delivered).
    pub const QUEUE_COMPLETED: &str = "vlsa.pipeline.queue_completed";
    /// Arrivals dropped because the queue was full.
    pub const QUEUE_DROPPED: &str = "vlsa.pipeline.queue_dropped";
    /// Recovery (stall) cycles taken behind the queue.
    pub const QUEUE_RECOVERY_CYCLES: &str = "vlsa.pipeline.queue_recovery_cycles";
    /// Per-op cycles from arrival to completed result.
    pub const QUEUE_WAIT_CYCLES: &str = "vlsa.pipeline.queue_wait_cycles";
    /// Mean queue occupancy of the last queued run (gauge).
    pub const QUEUE_MEAN_LEN: &str = "vlsa.pipeline.queue_mean_len";
    /// Largest queue occupancy seen (gauge).
    pub const QUEUE_MAX_LEN: &str = "vlsa.pipeline.queue_max_len";
}

/// `vlsa.monitor.*` — the live conformance monitor
/// (`vlsa_monitor::ConformanceMonitor`): sliding-window estimators
/// compared against the exact uniform-operand model, plus drift alerts.
pub mod monitor {
    /// Operations observed by the monitor.
    pub const OPS: &str = "vlsa.monitor.ops";
    /// Conformance windows closed and evaluated.
    pub const WINDOWS: &str = "vlsa.monitor.windows";
    /// Drift alerts raised (all kinds).
    pub const ALERTS: &str = "vlsa.monitor.alerts";
    /// Alerts from the chi-square run-length spectrum test.
    pub const SPECTRUM_ALERTS: &str = "vlsa.monitor.spectrum_alerts";
    /// Alerts from the CUSUM error-rate tracker.
    pub const ERROR_RATE_ALERTS: &str = "vlsa.monitor.error_rate_alerts";
    /// Chi-square statistic of the last closed window (gauge).
    pub const CHI2: &str = "vlsa.monitor.chi2";
    /// Chi-square survival p-value of the last closed window (gauge).
    pub const CHI2_P: &str = "vlsa.monitor.chi2_p";
    /// Current CUSUM of the stall-rate tracker (gauge).
    pub const CUSUM: &str = "vlsa.monitor.cusum";
    /// Stall rate measured over the last closed window (gauge).
    pub const STALL_RATE: &str = "vlsa.monitor.stall_rate";
    /// Mean cycles per op over the last closed window (gauge).
    pub const EFFECTIVE_LATENCY: &str = "vlsa.monitor.effective_latency";
    /// Live propagate-run-length spectrum of observed operand pairs.
    pub const RUN_LENGTH: &str = "vlsa.monitor.run_length";
}

/// `vlsa.resilience.*` — the resilience layer: residue checking,
/// bounded retry, escalation to the exact path, degradation, and the
/// recovery watchdog (`vlsa-pipeline`'s `ResilientPipeline`).
pub mod resilience {
    /// Operations processed by a resilient pipeline.
    pub const OPS: &str = "vlsa.resilience.ops";
    /// Residue checks performed on delivered sums.
    pub const RESIDUE_CHECKS: &str = "vlsa.resilience.residue_checks";
    /// Residue mismatches (delivered sum proven wrong).
    pub const RESIDUE_MISMATCHES: &str = "vlsa.resilience.residue_mismatches";
    /// Operation re-executions triggered by residue mismatches.
    pub const RETRIES: &str = "vlsa.resilience.retries";
    /// Operations that exhausted retries and fell back to the exact
    /// adder.
    pub const ESCALATIONS: &str = "vlsa.resilience.escalations";
    /// Stalls bounded by the recovery watchdog.
    pub const WATCHDOG_TRIPS: &str = "vlsa.resilience.watchdog_trips";
    /// Transitions into degraded (exact-only) mode.
    pub const DEGRADE_TRANSITIONS: &str = "vlsa.resilience.degrade_transitions";
    /// Operations served by the exact path while degraded.
    pub const DEGRADED_OPS: &str = "vlsa.resilience.degraded_ops";
    /// Wrong sums delivered with `VALID = 1` that no checker caught
    /// (observable in simulation because the model knows ground truth).
    pub const SILENT_CORRUPTIONS: &str = "vlsa.resilience.silent_corruptions";
}

/// `vlsa.server.*` — the sharded batching addition service
/// (`vlsa-server`): request/op accounting, load shedding, protocol
/// errors, and per-shard latency distributions.
pub mod server {
    /// Batch requests accepted (shed requests are *not* counted here).
    pub const REQUESTS: &str = "vlsa.server.requests";
    /// Operand pairs served.
    pub const OPS: &str = "vlsa.server.ops";
    /// Served ops whose `ER` detector fired (paid the recovery bubble).
    pub const STALLS: &str = "vlsa.server.stalls";
    /// Served ops delivered by the exact path (escalated or degraded).
    pub const EXACT_OPS: &str = "vlsa.server.exact_ops";
    /// Requests shed with a typed `Busy` frame because the target
    /// shard's queue was full.
    pub const SHED: &str = "vlsa.server.shed";
    /// Malformed or unexpected frames answered with an `Error` frame.
    pub const PROTOCOL_ERRORS: &str = "vlsa.server.protocol_errors";
    /// Client connections accepted.
    pub const CONNECTIONS: &str = "vlsa.server.connections";
    /// Batches flushed by the per-shard adaptive batcher.
    pub const BATCHES: &str = "vlsa.server.batches";
    /// Operand pairs per flushed batch (histogram).
    pub const BATCH_OPS: &str = "vlsa.server.batch_ops";
    /// Occupied lanes per 64-lane word a flushed batch decomposes into
    /// (histogram). Full words record 64; the ragged tail records the
    /// remainder, so the sliced backend's lane efficiency is readable
    /// straight off `/metrics` regardless of the active backend.
    pub const BATCH_FILL: &str = "vlsa.server.batch_fill";
    /// Per-request latency from enqueue to response ready, in
    /// microseconds (histogram, labeled per shard).
    pub const REQUEST_LATENCY_US: &str = "vlsa.server.request_latency_us";
    /// Pending requests in a shard's queue (gauge, labeled per shard).
    pub const QUEUE_DEPTH: &str = "vlsa.server.queue_depth";
    /// p50 of [`REQUEST_LATENCY_US`] (gauge, labeled per shard).
    pub const LATENCY_P50_US: &str = "vlsa.server.latency_p50_us";
    /// p99 of [`REQUEST_LATENCY_US`] (gauge, labeled per shard).
    pub const LATENCY_P99_US: &str = "vlsa.server.latency_p99_us";
    /// p999 of [`REQUEST_LATENCY_US`] (gauge, labeled per shard).
    pub const LATENCY_P999_US: &str = "vlsa.server.latency_p999_us";
    /// Shards flipped into degraded (exact-only) mode by monitor drift.
    pub const DEGRADED_SHARDS: &str = "vlsa.server.degraded_shards";
    /// Constant-`1` gauge whose labels carry the build and serving
    /// configuration (crate version, operand width, speculation window,
    /// shard count, modeled cycle time) so scraped data is
    /// self-describing. Rendered as `vlsa_server_build_info{...} 1`.
    pub const BUILD_INFO: &str = "vlsa.server.build_info";
    /// Canonical wide events appended to the per-process ring.
    pub const EVENTS_EMITTED: &str = "vlsa.server.events_emitted";
    /// Wide events dropped by the emission rate limiter.
    pub const EVENTS_DROPPED: &str = "vlsa.server.events_dropped";
    /// Shard workers restarted by the supervisor (dead or wedged).
    pub const RESTARTS: &str = "vlsa.server.restarts";
    /// Requests answered with a typed `Retryable` frame: accepted but
    /// not executed because their worker died or was deposed.
    pub const RETRYABLE: &str = "vlsa.server.retryable";
    /// Requests shed with a typed `DeadlineExceeded` frame after
    /// outwaiting their client-stamped budget.
    pub const DEADLINE_EXCEEDED: &str = "vlsa.server.deadline_exceeded";
    /// Hedged request copies refused because their `(key, seq)` was
    /// already accepted on another connection.
    pub const HEDGE_DUPLICATES: &str = "vlsa.server.hedge_duplicates";
    /// Connections closed by the idle reaper.
    pub const IDLE_REAPED: &str = "vlsa.server.idle_reaped";
    /// Connections torn down for feeding a frame slower than the
    /// per-frame deadline (slow-loris defense).
    pub const SLOW_FRAMES: &str = "vlsa.server.slow_frames";
}

/// `vlsa.batch.*` — the bit-sliced data-parallel batch engine
/// (`vlsa-batch`'s `SlicedExecutor`): per-phase cost of the
/// transpose → word-wide compute → untranspose pipeline, and how full
/// the 64-lane words actually run.
pub mod batch {
    /// Operand pairs executed by the sliced backend.
    pub const OPS: &str = "vlsa.batch.ops";
    /// 64-lane blocks processed (full or ragged).
    pub const BLOCKS: &str = "vlsa.batch.blocks";
    /// Nanoseconds spent transposing operands into lane words.
    pub const TRANSPOSE_NS: &str = "vlsa.batch.transpose_ns";
    /// Nanoseconds spent in word-wide P/G, ER, and prefix compute.
    pub const COMPUTE_NS: &str = "vlsa.batch.compute_ns";
    /// Nanoseconds spent transposing sums back to lane order.
    pub const UNTRANSPOSE_NS: &str = "vlsa.batch.untranspose_ns";
    /// Occupied lanes per processed block (histogram; 64 = full word,
    /// anything lower is a ragged tail block wasting lanes).
    pub const LANE_OCCUPANCY: &str = "vlsa.batch.lane_occupancy";
}

/// `vlsa.slo.*` — the SLO error-budget engine (`vlsa-slo`): burn-rate
/// alert transitions and live budget/burn gauges.
pub mod slo {
    /// Burn-rate alert transitions into `firing` (all severities).
    pub const ALERTS: &str = "vlsa.slo.alerts";
    /// Page-severity rules that started firing.
    pub const PAGES: &str = "vlsa.slo.pages";
    /// Warn-severity rules that started firing.
    pub const WARNS: &str = "vlsa.slo.warns";
    /// Firing rules that cleared after recovery.
    pub const CLEARS: &str = "vlsa.slo.clears";
    /// Fraction of the current period's error budget consumed (gauge,
    /// labeled per SLO; exceeds 1 once the budget is blown).
    pub const BUDGET_CONSUMED: &str = "vlsa.slo.budget_consumed";
    /// Live burn rate (gauge, labeled per SLO, rule, and window).
    pub const BURN_RATE: &str = "vlsa.slo.burn_rate";
    /// Page-severity rules currently firing (gauge).
    pub const PAGES_FIRING: &str = "vlsa.slo.pages_firing";
    /// Warn-severity rules currently firing (gauge).
    pub const WARNS_FIRING: &str = "vlsa.slo.warns_firing";
}

/// `vlsa.recorded.*` — series produced by the embedded time-series
/// store's recording rules (`vlsa-tsdb`): derived views materialized on
/// every ingest tick so dashboards and the regression gate read
/// pre-computed answers instead of re-evaluating expressions.
pub mod recorded {
    /// Fleet ops/second — `rate(vlsa.server.ops[1s])` summed over shards.
    pub const OPS_PER_SEC: &str = "vlsa.recorded.ops_per_sec";
    /// Fleet sheds/second — `rate(vlsa.server.shed[1s])`.
    pub const SHED_PER_SEC: &str = "vlsa.recorded.shed_per_sec";
    /// Worst-shard p999 request latency (µs) —
    /// `quantile(0.999, vlsa.server.request_latency_us[10s])`.
    pub const P999_US: &str = "vlsa.recorded.p999_us";
    /// Worst SLO burn rate — `max_over_time(vlsa.slo.burn_rate[10s])`.
    pub const BURN_RATE_MAX: &str = "vlsa.recorded.burn_rate_max";
    /// Page-severity SLO rules firing —
    /// `max_over_time(vlsa.slo.pages_firing[10s])`.
    pub const PAGES_FIRING: &str = "vlsa.recorded.pages_firing";
    /// Worst conformance-monitor chi-square statistic —
    /// `max_over_time(vlsa.monitor.chi2[1m])`.
    pub const CHI2_MAX: &str = "vlsa.recorded.chi2_max";
    /// Worst conformance-monitor CUSUM statistic —
    /// `max_over_time(vlsa.monitor.cusum[1m])`.
    pub const CUSUM_MAX: &str = "vlsa.recorded.cusum_max";
}

/// `vlsa.fleet.*` — the fleet aggregator (`vlsa-bench`'s `aggregate`
/// bin): scrape-loop health over the target processes.
pub mod fleet {
    /// Aggregation sweeps completed (each sweep scrapes every target).
    pub const SCRAPES: &str = "vlsa.fleet.scrapes";
    /// Individual target scrapes that failed (unreachable or unparsable).
    pub const SCRAPE_ERRORS: &str = "vlsa.fleet.scrape_errors";
    /// Targets that answered the most recent sweep (gauge).
    pub const TARGETS_UP: &str = "vlsa.fleet.targets_up";
}

/// Attaches a `key=value` label to a metric name: `labeled("vlsa.server
/// .queue_depth", "shard", "3")` → `vlsa.server.queue_depth#shard=3`.
///
/// The registry treats the labeled name as an ordinary instrument (every
/// label combination is its own counter/gauge/histogram); exporters that
/// understand labels — the Prometheus exposition in `vlsa-monitor` —
/// split it back apart with [`split_label`] and render
/// `vlsa_server_queue_depth{shard="3"}`.
pub fn labeled(name: &str, key: &str, value: impl std::fmt::Display) -> String {
    format!("{name}#{key}={value}")
}

/// Splits a possibly-labeled name into `(base, Some((key, value)))`, or
/// `(name, None)` when it carries no `#key=value` suffix (a malformed
/// suffix without `=` is treated as part of the base name).
///
/// Multi-label names ([`labeled_multi`]) return only the *first* label
/// here; exporters that render every label use [`split_labels`].
pub fn split_label(name: &str) -> (&str, Option<(&str, &str)>) {
    let (base, labels) = split_labels(name);
    (base, labels.first().copied())
}

/// Attaches several `key=value` labels to a metric name:
/// `labeled_multi("vlsa.server.build_info", &[("version", "0.1.0"),
/// ("shards", "4")])` → `vlsa.server.build_info#version=0.1.0#shards=4`.
///
/// Like [`labeled`], the registry treats the result as one opaque
/// instrument name; [`split_labels`] recovers the parts.
pub fn labeled_multi(name: &str, labels: &[(&str, &str)]) -> String {
    let mut out = String::from(name);
    for (key, value) in labels {
        out.push('#');
        out.push_str(key);
        out.push('=');
        out.push_str(value);
    }
    out
}

/// Splits a possibly-labeled name into `(base, labels)` where every
/// `#key=value` segment becomes one pair, in order. If *any* `#` segment
/// lacks an `=`, the whole name is treated as an unlabeled base name
/// (mirroring [`split_label`]'s malformed-suffix rule).
pub fn split_labels(name: &str) -> (&str, Vec<(&str, &str)>) {
    let Some((base, rest)) = name.split_once('#') else {
        return (name, Vec::new());
    };
    let mut labels = Vec::new();
    for segment in rest.split('#') {
        match segment.split_once('=') {
            Some(pair) => labels.push(pair),
            None => return (name, Vec::new()),
        }
    }
    (base, labels)
}

/// `vlsa.sim.*` — gate-level simulation profiling and fault-campaign
/// counters.
pub mod sim {
    /// Faults injected by coverage sweeps and campaigns.
    pub const FAULTS_INJECTED: &str = "vlsa.sim.faults_injected";
    /// Faults whose effect reached a primary output.
    pub const FAULTS_PROPAGATED: &str = "vlsa.sim.faults_propagated";
    /// Faults masked by the logic under the applied vectors.
    pub const FAULTS_MASKED: &str = "vlsa.sim.faults_masked";
}

#[cfg(test)]
mod tests {
    #[test]
    fn names_follow_the_convention() {
        for name in [
            super::core::ADDS,
            super::core::DETECTOR_FIRES,
            super::pipeline::OPS,
            super::pipeline::OP_LATENCY_CYCLES,
            super::pipeline::QUEUE_WAIT_CYCLES,
            super::pipeline::QUEUE_MAX_LEN,
            super::monitor::WINDOWS,
            super::monitor::ALERTS,
            super::monitor::CHI2_P,
            super::monitor::RUN_LENGTH,
            super::resilience::OPS,
            super::resilience::RESIDUE_MISMATCHES,
            super::resilience::DEGRADE_TRANSITIONS,
            super::sim::FAULTS_INJECTED,
            super::server::REQUESTS,
            super::server::SHED,
            super::server::PROTOCOL_ERRORS,
            super::server::REQUEST_LATENCY_US,
            super::server::EVENTS_EMITTED,
            super::server::BATCH_FILL,
            super::batch::OPS,
            super::batch::TRANSPOSE_NS,
            super::batch::LANE_OCCUPANCY,
            super::slo::ALERTS,
            super::slo::BUDGET_CONSUMED,
            super::slo::BURN_RATE,
            super::fleet::SCRAPES,
            super::fleet::TARGETS_UP,
        ] {
            assert!(name.starts_with("vlsa."), "{name}");
            assert_eq!(name.split('.').count(), 3, "{name}");
        }
    }

    #[test]
    fn labels_round_trip() {
        let name = super::labeled(super::server::QUEUE_DEPTH, "shard", 3);
        assert_eq!(name, "vlsa.server.queue_depth#shard=3");
        assert_eq!(
            super::split_label(&name),
            ("vlsa.server.queue_depth", Some(("shard", "3")))
        );
        assert_eq!(
            super::split_label("vlsa.server.ops"),
            ("vlsa.server.ops", None)
        );
        // A stray `#` without `=` stays part of the base name.
        assert_eq!(super::split_label("a#b"), ("a#b", None));
    }

    #[test]
    fn multi_labels_round_trip() {
        let name = super::labeled_multi(
            super::server::BUILD_INFO,
            &[("version", "0.1.0"), ("nbits", "64"), ("shards", "4")],
        );
        assert_eq!(
            name,
            "vlsa.server.build_info#version=0.1.0#nbits=64#shards=4"
        );
        let (base, labels) = super::split_labels(&name);
        assert_eq!(base, "vlsa.server.build_info");
        assert_eq!(
            labels,
            vec![("version", "0.1.0"), ("nbits", "64"), ("shards", "4")]
        );
        // split_label sees the first label of a multi-label name.
        assert_eq!(
            super::split_label(&name),
            ("vlsa.server.build_info", Some(("version", "0.1.0")))
        );
        // One malformed segment poisons the whole suffix.
        assert_eq!(super::split_labels("a#k=v#junk"), ("a#k=v#junk", vec![]));
        assert_eq!(super::split_labels("plain"), ("plain", vec![]));
    }
}
