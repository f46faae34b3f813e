//! Implementation of the `trace` binary: captured pipeline runs with
//! flight-recorder spans, gate-level waveform dumps, and replay
//! verification of a previously captured trace.
//!
//! The Chrome trace written by [`capture_run`] doubles as a recording of
//! the exact operand stream: every `op` span carries its operands and
//! result losslessly, so [`replay`] can re-execute the run bit-for-bit
//! and prove the captured behaviour reproduces.

use crate::synthesize;
use rand::SeedableRng;
use std::fmt;
use vlsa_core::{almost_correct_adder, SpecError, SpeculativeAdder};
use vlsa_netlist::NetId;
use vlsa_pipeline::{
    random_operands, FaultKind, PipelineFault, ResilienceConfig, ResilientPipeline, ResilientStats,
    VlsaPipeline,
};
use vlsa_sim::{
    pack_lanes, simulate, simulate_with_fault, NetlistVcd, SimulateError, Stimulus, StuckAt,
    VcdNets,
};
use vlsa_telemetry::Json;
use vlsa_trace::{chrome_trace, extract_ops, ReplayError, ScopedTrace};

/// Parameters of a traced pipeline run.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Adder bitwidth (1..=64).
    pub nbits: usize,
    /// Speculation window.
    pub window: usize,
    /// Number of random operand pairs to stream.
    pub ops: usize,
    /// RNG seed for the operand stream.
    pub seed: u64,
}

/// Outcome of a traced run: the Chrome trace document plus headline
/// numbers for the console.
#[derive(Clone, Debug)]
pub struct CapturedRun {
    /// The `trace.json` document: Chrome trace events plus a `vlsa`
    /// metadata object ([`replay`] consumes both).
    pub doc: Json,
    /// Operand pairs processed.
    pub operations: u64,
    /// Operations that needed the recovery cycle.
    pub errors: u64,
    /// Total pipeline cycles.
    pub total_cycles: u64,
    /// Span events captured.
    pub events: usize,
    /// Events lost to ring overflow (0 with the sizing below).
    pub dropped: u64,
}

/// Runs a random operand stream through the software pipeline under a
/// scoped flight recorder and exports the spans as a Chrome trace.
///
/// The ring is sized for the worst case (five spans per erroring op)
/// so nothing is dropped and the trace is a complete replay source.
///
/// # Panics
///
/// Panics if the adder geometry is invalid.
pub fn capture_run(cfg: &TraceConfig) -> CapturedRun {
    let adder = SpeculativeAdder::new(cfg.nbits, cfg.window).expect("valid adder geometry");
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let operands = random_operands(cfg.nbits, cfg.ops, &mut rng);
    let scope = ScopedTrace::install(cfg.ops * 5 + 16);
    let trace = VlsaPipeline::new(adder).run(&operands);
    let events = scope.drain();
    let dropped = scope.recorder().dropped();
    drop(scope);
    let doc = chrome_trace(&events).set(
        "vlsa",
        Json::obj()
            .set("mode", "pipeline")
            .set("nbits", cfg.nbits as u64)
            .set("window", cfg.window as u64)
            .set("seed", cfg.seed)
            .set("ops", trace.operations)
            .set("errors", trace.errors)
            .set("total_cycles", trace.total_cycles),
    );
    CapturedRun {
        doc,
        operations: trace.operations,
        errors: trace.errors,
        total_cycles: trace.total_cycles,
        events: events.len(),
        dropped,
    }
}

/// Outcome of a traced resilient run: the Chrome trace document plus
/// the pipeline's resilience statistics.
#[derive(Clone, Debug)]
pub struct ResilientCapture {
    /// The `trace.json` document (`vlsa.mode = "resilient"`; not a
    /// replay source — the injected fault is outside the replay model).
    pub doc: Json,
    /// Resilience statistics of the run.
    pub stats: ResilientStats,
    /// Whether the pipeline ended the run degraded to the exact adder.
    pub degraded: bool,
    /// Span events captured.
    pub events: usize,
    /// Events lost to ring overflow (0 with the sizing below).
    pub dropped: u64,
}

/// Runs the operand stream through the [`ResilientPipeline`] with a
/// persistent suppressed-detector fault under a scoped flight recorder:
/// the exported Chrome trace shows the full detector-failure →
/// residue-catch → retry → escalate → degrade story on its span tracks.
///
/// # Panics
///
/// Panics if the adder geometry is invalid.
pub fn capture_resilient_run(cfg: &TraceConfig) -> ResilientCapture {
    let adder = SpeculativeAdder::new(cfg.nbits, cfg.window).expect("valid adder geometry");
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let operands = random_operands(cfg.nbits, cfg.ops, &mut rng);
    // Worst case per op: op + speculate + retries + stall + escalate +
    // watchdog + degrade + exact + degraded-counter — ten is generous.
    let scope = ScopedTrace::install(cfg.ops * 10 + 16);
    let mut pipe = ResilientPipeline::new(adder, ResilienceConfig::default())
        .with_fault(PipelineFault::persistent(FaultKind::SuppressDetector));
    let trace = pipe.run(&operands);
    let degraded = pipe.is_degraded();
    let events = scope.drain();
    let dropped = scope.recorder().dropped();
    drop(scope);
    let doc = chrome_trace(&events).set(
        "vlsa",
        Json::obj()
            .set("mode", "resilient")
            .set("nbits", cfg.nbits as u64)
            .set("window", cfg.window as u64)
            .set("seed", cfg.seed)
            .set("ops", trace.stats.ops)
            .set("residue_mismatches", trace.stats.residue_mismatches)
            .set("retries", trace.stats.retries)
            .set("escalations", trace.stats.escalations)
            .set("watchdog_trips", trace.stats.watchdog_trips)
            .set("degrade_transitions", trace.stats.degrade_transitions)
            .set("degraded_ops", trace.stats.degraded_ops)
            .set("silent_corruptions", trace.stats.silent_corruptions),
    );
    ResilientCapture {
        doc,
        stats: trace.stats,
        degraded,
        events: events.len(),
        dropped,
    }
}

/// Parameters of a gate-level waveform dump.
#[derive(Clone, Copy, Debug)]
pub struct VcdConfig {
    /// Which nets to record.
    pub nets: VcdNets,
    /// Cap on recorded operations (gate-level simulation is one pass
    /// per op; long streams are truncated to this many).
    pub max_ops: usize,
    /// Optional stuck-at fault injected on every recorded cycle, as
    /// `(net index, stuck value)`.
    pub fault: Option<(usize, bool)>,
}

/// Replays the first operand pairs of the [`TraceConfig`] stream
/// through the synthesized gate-level ACA and dumps every recorded net
/// as VCD, with `valid`/`stall` handshake wires driven from the
/// software pipeline model. Returns the VCD text and the number of
/// operations recorded.
///
/// # Errors
///
/// Propagates [`SimulateError`] from the gate-level simulation.
///
/// # Panics
///
/// Panics if the adder geometry or the fault net index is invalid.
pub fn capture_vcd(cfg: &TraceConfig, vcd: &VcdConfig) -> Result<(String, usize), SimulateError> {
    let adder = SpeculativeAdder::new(cfg.nbits, cfg.window).expect("valid adder geometry");
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    // Same seed as `capture_run`, so this is a prefix of that stream.
    let operands = random_operands(cfg.nbits, cfg.ops.min(vcd.max_ops), &mut rng);
    let netlist = synthesize(&almost_correct_adder(cfg.nbits, cfg.window));
    let fault = vcd.fault.map(|(index, value)| StuckAt {
        net: resolve_net(&netlist, index),
        value,
    });
    let mut rec = NetlistVcd::new(&netlist, vcd.nets, 0);
    let valid = rec.extra_wire("valid", 1);
    let stall = rec.extra_wire("stall", 1);
    for &(a, b) in &operands {
        let r = adder.add_u64(a, b);
        let mut stim = Stimulus::new();
        stim.set_bus("a", &pack_lanes(&[vec![a]], cfg.nbits));
        stim.set_bus("b", &pack_lanes(&[vec![b]], cfg.nbits));
        match fault {
            Some(f) => rec.record_fault(&simulate_with_fault(&netlist, &stim, f)?, f),
            None => rec.record(&simulate(&netlist, &stim)?),
        }
        rec.annotate(valid, u64::from(!r.error_detected));
        rec.annotate(stall, u64::from(r.error_detected));
        if r.error_detected {
            // The recovery bubble: outputs hold, then the corrected sum
            // is valid one cycle later.
            rec.hold();
            rec.annotate(valid, 1);
            rec.annotate(stall, 0);
        }
    }
    let count = operands.len();
    Ok((rec.finish(), count))
}

/// Finds the [`NetId`] with the given index.
///
/// # Panics
///
/// Panics if the index is out of range.
fn resolve_net(netlist: &vlsa_netlist::Netlist, index: usize) -> NetId {
    netlist
        .nodes()
        .map(|(id, _)| id)
        .find(|id| id.index() == index)
        .unwrap_or_else(|| {
            panic!(
                "fault net index {index} out of range (netlist has {} nets)",
                netlist.len()
            )
        })
}

/// Outcome of replaying a captured trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Operations replayed.
    pub ops: usize,
    /// Error count recorded in the trace.
    pub recorded_errors: u64,
    /// Error count the replay produced.
    pub replayed_errors: u64,
    /// Ops whose replayed sum differed from the recorded sum.
    pub sum_mismatches: usize,
    /// Ops whose replayed error flag differed from the recorded flag.
    pub flag_mismatches: usize,
    /// Lowest mismatching op index, if any.
    pub first_mismatch: Option<u64>,
}

impl ReplayReport {
    /// Whether the replay reproduced the capture bit-for-bit.
    pub fn is_exact(&self) -> bool {
        self.sum_mismatches == 0
            && self.flag_mismatches == 0
            && self.recorded_errors == self.replayed_errors
    }
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops replayed: {} errors recorded, {} replayed, {} sum / {} flag mismatches",
            self.ops,
            self.recorded_errors,
            self.replayed_errors,
            self.sum_mismatches,
            self.flag_mismatches
        )
    }
}

/// Why a trace document could not be replayed.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceReplayError {
    /// A required metadata field is absent or malformed.
    MissingMeta(&'static str),
    /// The recorded geometry does not describe a valid adder.
    BadGeometry(SpecError),
    /// The `op` spans could not be extracted.
    Extract(ReplayError),
    /// The capture mode cannot be re-executed by the replay model
    /// (e.g. a resilient run with an injected fault).
    Unreplayable(String),
}

impl fmt::Display for TraceReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceReplayError::MissingMeta(field) => {
                write!(f, "trace is missing metadata field `{field}`")
            }
            TraceReplayError::BadGeometry(e) => write!(f, "recorded adder geometry: {e}"),
            TraceReplayError::Extract(e) => write!(f, "{e}"),
            TraceReplayError::Unreplayable(mode) => {
                write!(f, "`{mode}` captures are not replayable (injected faults)")
            }
        }
    }
}

impl std::error::Error for TraceReplayError {}

impl From<ReplayError> for TraceReplayError {
    fn from(e: ReplayError) -> Self {
        TraceReplayError::Extract(e)
    }
}

/// Re-executes the operand stream recorded in a `trace.json` document
/// on a freshly built adder of the recorded geometry, comparing every
/// sum and error flag against the capture.
///
/// # Errors
///
/// Returns [`TraceReplayError`] if the document lacks the `vlsa`
/// metadata or well-formed `op` spans.
pub fn replay(doc: &Json) -> Result<ReplayReport, TraceReplayError> {
    let meta = doc
        .get("vlsa")
        .ok_or(TraceReplayError::MissingMeta("vlsa"))?;
    if let Some(mode) = meta.get("mode").and_then(Json::as_str) {
        if mode != "pipeline" {
            return Err(TraceReplayError::Unreplayable(mode.to_string()));
        }
    }
    let field = |name: &'static str| {
        meta.get(name)
            .and_then(Json::as_u64)
            .ok_or(TraceReplayError::MissingMeta(name))
    };
    let nbits = field("nbits")? as usize;
    let window = field("window")? as usize;
    let recorded_errors = field("errors")?;
    let ops = extract_ops(doc)?;
    let adder = SpeculativeAdder::new(nbits, window).map_err(TraceReplayError::BadGeometry)?;
    let mut report = ReplayReport {
        ops: ops.len(),
        recorded_errors,
        ..ReplayReport::default()
    };
    for op in &ops {
        let r = adder.add_u64(op.a, op.b);
        let sum = if r.error_detected {
            r.exact
        } else {
            r.speculative
        };
        report.replayed_errors += u64::from(r.error_detected);
        let mut mismatch = false;
        if sum != op.sum {
            report.sum_mismatches += 1;
            mismatch = true;
        }
        if r.error_detected != op.error {
            report.flag_mismatches += 1;
            mismatch = true;
        }
        if mismatch && report.first_mismatch.is_none() {
            report.first_mismatch = Some(op.index);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    fn cfg() -> TraceConfig {
        // Narrow window so the stream actually errs.
        TraceConfig {
            nbits: 32,
            window: 6,
            ops: 400,
            seed: 11,
        }
    }

    #[test]
    fn capture_is_complete_and_replayable() {
        let _guard = test_lock();
        let run = capture_run(&cfg());
        assert_eq!(run.dropped, 0);
        assert!(run.errors > 0, "window 6 over 400 random ops must err");
        assert_eq!(run.total_cycles, run.operations + run.errors);
        let report = replay(&run.doc).expect("replayable");
        assert_eq!(report.ops as u64, run.operations);
        assert!(report.is_exact(), "{report}");
        assert_eq!(report.replayed_errors, run.errors);
    }

    #[test]
    fn replay_detects_tampering() {
        let _guard = test_lock();
        let run = capture_run(&cfg());
        // Corrupt the recorded error count.
        let meta = run.doc.get("vlsa").expect("meta").clone();
        let doc = run.doc.clone().set("vlsa", meta.set("errors", 0u64));
        let report = replay(&doc).expect("still parses");
        assert!(!report.is_exact());
        assert_eq!(report.replayed_errors, run.errors);
    }

    #[test]
    fn replay_requires_metadata() {
        let _guard = test_lock();
        let run = capture_run(&cfg());
        let doc = run.doc.clone().set("vlsa", Json::obj());
        assert_eq!(
            replay(&doc),
            Err(TraceReplayError::MissingMeta("nbits")),
            "geometry fields are required"
        );
        assert!(replay(&Json::obj()).is_err());
    }

    #[test]
    fn resilient_capture_tells_the_degrade_story() {
        let _guard = test_lock();
        // 8-bit window-4: 6.25% of random pairs err, so the suppressed
        // detector forces escalations fast and the degrade latch trips.
        let run = capture_resilient_run(&TraceConfig {
            nbits: 8,
            window: 4,
            ops: 400,
            seed: 11,
        });
        assert_eq!(run.dropped, 0);
        assert!(run.degraded, "{:?}", run.stats);
        assert_eq!(run.stats.silent_corruptions, 0);
        assert!(run.stats.escalations > 0 && run.stats.degraded_ops > 0);
        // The story is visible in the exported trace, in order.
        let text = run.doc.to_string();
        for name in ["residue_retry", "escalate", "degrade", "exact_op"] {
            assert!(text.contains(&format!("\"{name}\"")), "missing `{name}`");
        }
        // And the capture refuses to masquerade as a replay source.
        assert_eq!(
            replay(&run.doc),
            Err(TraceReplayError::Unreplayable("resilient".to_string()))
        );
    }

    #[test]
    fn vcd_capture_covers_stream_prefix() {
        let cfg = cfg();
        let vcd = VcdConfig {
            nets: VcdNets::Ports,
            max_ops: 16,
            fault: None,
        };
        let (text, count) = capture_vcd(&cfg, &vcd).expect("simulate");
        assert_eq!(count, 16);
        assert!(text.contains("$var wire 1"), "{text}");
        assert!(text.contains(" valid $end"), "{text}");
        assert!(text.contains(" stall $end"), "{text}");
    }

    #[test]
    fn vcd_fault_injection_is_commented() {
        let cfg = cfg();
        let vcd = VcdConfig {
            nets: VcdNets::Ports,
            max_ops: 4,
            // Fault the first gate after the input buses.
            fault: Some((2 * cfg.nbits, true)),
        };
        let (text, _) = capture_vcd(&cfg, &vcd).expect("simulate");
        assert!(text.contains("stuck-at-1"), "{text}");
        assert!(text.contains(" fault_active $end"), "{text}");
    }
}
