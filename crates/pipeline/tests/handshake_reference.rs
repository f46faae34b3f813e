//! `VlsaPipeline::run_observed` is a chunked view over the resilient
//! state machine. These tests check it against a direct reference of
//! the paper's VALID/STALL handshake (§4.3, Figs. 6–7) written on
//! `SpeculativeAdder::add_u64`: per-op outcomes, the span stream, and
//! the `vlsa.pipeline.*` / `vlsa.core.*` telemetry must all agree,
//! including across the view's 4,096-op chunk boundaries.

use rand::SeedableRng;
use std::sync::Mutex;
use vlsa_core::SpeculativeAdder;
use vlsa_pipeline::{adversarial_operands, biased_operands, random_operands, VlsaPipeline};
use vlsa_telemetry::{Json, ScopedRecorder, DEFAULT_BUCKETS};
use vlsa_trace::{ScopedTrace, TraceEvent};

/// The recorders are process-wide: one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Per op: `(sum, stalled, cycles)`.
type Outcome = (u64, bool, u64);

/// The handshake, one op per loop turn: a clean op retires in one
/// cycle with the speculative sum; an op whose detector fires stalls
/// one more cycle and retires the exact sum. Each op's `op` span comes
/// after its per-cycle spans, as the state machine emits them.
fn reference(adder: &SpeculativeAdder, ops: &[(u64, u64)]) -> (Vec<Outcome>, Vec<TraceEvent>) {
    let rec = vlsa_telemetry::recorder();
    let latency = rec.histogram("vlsa.pipeline.op_latency_cycles", DEFAULT_BUCKETS);
    let stall_runs = rec.histogram("vlsa.pipeline.stall_run_ops", DEFAULT_BUCKETS);
    let (mut outcomes, mut spans, mut cycle, mut run) = (Vec::new(), Vec::new(), 0u64, 0u64);
    for (i, &(a, b)) in ops.iter().enumerate() {
        let r = adder.add_u64(a, b);
        let (err, ts) = (r.error_detected, cycle);
        let sum = if err { r.exact } else { r.speculative };
        cycle += 1 + u64::from(err);
        spans.push(TraceEvent::complete("speculate", "pipeline", ts, 1).on_track(1));
        if err {
            spans.push(TraceEvent::instant("detect", "pipeline", ts + 1).on_track(1));
            spans.push(TraceEvent::complete("recover", "pipeline", ts + 1, 1).on_track(1));
            spans.push(TraceEvent::complete("stall", "pipeline", ts + 1, 1).on_track(2));
        }
        spans.push(
            TraceEvent::complete("op", "pipeline", ts, cycle - ts)
                .arg("i", i as u64)
                .arg("a", a)
                .arg("b", b)
                .arg("sum", sum)
                .arg("err", u64::from(err)),
        );
        latency.record(cycle - ts);
        if err {
            run += 1;
        } else if run > 0 {
            stall_runs.record(std::mem::take(&mut run));
        }
        outcomes.push((sum, err, cycle - ts));
    }
    if run > 0 {
        stall_runs.record(run);
    }
    let stalls = outcomes.iter().filter(|o| o.1).count() as u64;
    rec.counter("vlsa.pipeline.ops").add(ops.len() as u64);
    rec.counter("vlsa.pipeline.stalls").add(stalls);
    (outcomes, spans)
}

/// Everything a run shows: outcomes, spans (category aside), and the
/// telemetry snapshot.
type Observed = (Vec<Outcome>, Vec<SpanKey>, Json);
type SpanKey = (&'static str, u64, u64, u32, Vec<(&'static str, u64)>);

fn key(e: &TraceEvent) -> SpanKey {
    (e.name, e.ts, e.dur, e.track, e.args().to_vec())
}

fn observe_reference(adder: &SpeculativeAdder, ops: &[(u64, u64)]) -> Observed {
    let metrics = ScopedRecorder::install();
    let (outcomes, spans) = reference(adder, ops);
    (
        outcomes,
        spans.iter().map(key).collect(),
        metrics.snapshot(),
    )
}

fn observe_view(adder: &SpeculativeAdder, ops: &[(u64, u64)]) -> Observed {
    let metrics = ScopedRecorder::install();
    let spans = ScopedTrace::install(ops.len() * 5 + 16);
    let mut outcomes = Vec::new();
    let trace = VlsaPipeline::new(*adder).run_observed(ops, |s| {
        assert_eq!(s.index, outcomes.len());
        outcomes.push((s.sum, s.stalled, s.latency_cycles));
    });
    assert_eq!(spans.recorder().dropped(), 0);
    let events = spans.drain();
    assert!(events.iter().all(|e| e.cat == "resilience"));
    assert_eq!(trace.operations, ops.len() as u64);
    assert_eq!(trace.errors, outcomes.iter().filter(|o| o.1).count() as u64);
    assert_eq!(
        trace.total_cycles,
        outcomes.iter().map(|o| o.2).sum::<u64>()
    );
    (
        outcomes,
        events.iter().map(key).collect(),
        metrics.snapshot(),
    )
}

fn assert_agree(adder: &SpeculativeAdder, ops: &[(u64, u64)], label: &str) {
    let (ref_outcomes, ref_spans, ref_metrics) = observe_reference(adder, ops);
    let (outcomes, spans, metrics) = observe_view(adder, ops);
    assert_eq!(outcomes, ref_outcomes, "{label}: outcomes");
    assert_eq!(spans.len(), ref_spans.len(), "{label}: span count");
    for (k, (got, want)) in spans.iter().zip(&ref_spans).enumerate() {
        assert_eq!(got, want, "{label}: span {k}");
    }
    assert_eq!(metrics, ref_metrics, "{label}: telemetry");
}

#[test]
fn view_matches_the_reference_handshake() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7A11);
    let lengths = [4095usize, 4096, 4097];
    let mut case = 0;
    for (nbits, windows) in [(8, [2, 4]), (16, [3, 6]), (32, [4, 10]), (64, [6, 18])] {
        for window in windows {
            let adder = SpeculativeAdder::new(nbits, window).expect("valid adder");
            let streams = [
                (
                    "uniform",
                    random_operands(nbits, lengths[case % 3], &mut rng),
                ),
                (
                    "biased",
                    biased_operands(nbits, lengths[(case + 1) % 3], 0.75, &mut rng),
                ),
                (
                    "adversarial",
                    adversarial_operands(nbits, lengths[(case + 2) % 3]),
                ),
            ];
            for (kind, ops) in streams {
                let label = format!("n={nbits} k={window} {kind} x{}", ops.len());
                assert_agree(&adder, &ops, &label);
            }
            case += 1;
        }
    }
}

#[test]
fn stall_run_across_a_chunk_boundary_is_one_run() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let adder = SpeculativeAdder::new(16, 4).expect("valid adder");
    // Ten back-to-back stalls at ops 4090..4100 straddle the first
    // 4,096-op chunk boundary.
    let mut ops = vec![(1u64, 2u64); 4090];
    ops.extend(adversarial_operands(16, 10));
    ops.extend(vec![(3, 4); 100]);
    assert_agree(&adder, &ops, "boundary run");

    let metrics = ScopedRecorder::install();
    VlsaPipeline::new(adder).run(&ops);
    let runs = metrics
        .registry()
        .histogram("vlsa.pipeline.stall_run_ops", DEFAULT_BUCKETS);
    assert_eq!(runs.count(), 1);
    assert_eq!(runs.max(), Some(10));
}
