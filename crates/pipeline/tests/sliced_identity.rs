//! `run_batch_on` over the sliced executor must be bit-identical to
//! `run_batch_on` over the scalar oracle — outcomes *and* stats —
//! across fault-free streams, injected faults, mid-batch degrade
//! flips, and chunked feeding.
//!
//! This is the contract that lets the server swap `--backend sliced`
//! in without perturbing a single delivered sum, stall flag, cycle
//! count, or resilience counter.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vlsa_batch::{BatchExecutor, ScalarExecutor, SlicedExecutor};
use vlsa_core::SpeculativeAdder;
use vlsa_pipeline::{
    adversarial_operands, random_operands, BatchTrace, FaultKind, PipelineFault, ResilienceConfig,
    ResilientPipeline,
};

fn pipeline(nbits: usize, window: usize) -> ResilientPipeline {
    let adder = SpeculativeAdder::new(nbits, window).expect("valid adder");
    ResilientPipeline::new(adder, ResilienceConfig::default())
}

fn mixed_stream(nbits: usize) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(0x51_1CED);
    let mut ops = random_operands(nbits, 700, &mut rng);
    ops.extend(adversarial_operands(nbits, 200));
    ops.extend(random_operands(nbits, 700, &mut rng));
    ops
}

/// The reference run: the same state machine over the scalar oracle.
fn scalar_run(pipeline: &mut ResilientPipeline, ops: &[(u64, u64)]) -> BatchTrace {
    let adder = pipeline.adder();
    let oracle = ScalarExecutor::new(adder.nbits(), adder.window());
    pipeline.run_batch_on(&oracle, ops)
}

fn assert_identical(
    reference: &mut ResilientPipeline,
    subject: &mut ResilientPipeline,
    executor: &dyn BatchExecutor,
    ops: &[(u64, u64)],
    what: &str,
) {
    let want = scalar_run(reference, ops);
    let got = subject.run_batch_on(executor, ops);
    assert_eq!(want.stats, got.stats, "{what}: stats");
    assert_eq!(want.outcomes.len(), got.outcomes.len(), "{what}: len");
    for (i, (w, g)) in want.outcomes.iter().zip(&got.outcomes).enumerate() {
        assert_eq!(w, g, "{what}: outcome {i}");
    }
}

#[test]
fn fault_free_streams_match_the_scalar_oracle() {
    for &(nbits, window) in &[(64usize, 8usize), (32, 4), (16, 2), (8, 2)] {
        let ops = mixed_stream(nbits);
        let executor = SlicedExecutor::new(nbits, window);
        let mut reference = pipeline(nbits, window);
        let mut subject = pipeline(nbits, window);
        assert_identical(
            &mut reference,
            &mut subject,
            &executor,
            &ops,
            &format!("nbits={nbits} window={window}"),
        );
    }
}

#[test]
fn chunked_feeding_matches_one_long_run() {
    let nbits = 64;
    let window = 8;
    let ops = mixed_stream(nbits);
    let executor = SlicedExecutor::new(nbits, window);
    let mut reference = pipeline(nbits, window);
    let one_shot = scalar_run(&mut reference, &ops);
    let mut subject = pipeline(nbits, window);
    let mut outcomes = Vec::new();
    for chunk in ops.chunks(97) {
        outcomes.extend(subject.run_batch_on(&executor, chunk).outcomes);
    }
    assert_eq!(one_shot.outcomes, outcomes);
}

#[test]
fn injected_faults_land_on_the_same_attempts() {
    // Transient faults key off the attempt cycle; identical cycle
    // accounting means identical blast radii on both paths.
    let faults = [
        PipelineFault::transient(FaultKind::SuppressDetector, 40, 200),
        PipelineFault::transient(FaultKind::FlipSpecBit(3), 300, 500),
        PipelineFault::transient(FaultKind::AssertDetector, 900, 100),
        PipelineFault::persistent(FaultKind::FlipExactBit(0)),
    ];
    let nbits = 32;
    let window = 4;
    let ops = mixed_stream(nbits);
    let executor = SlicedExecutor::new(nbits, window);
    for fault in faults {
        let mut reference = pipeline(nbits, window).with_fault(fault);
        let mut subject = pipeline(nbits, window).with_fault(fault);
        assert_identical(
            &mut reference,
            &mut subject,
            &executor,
            &ops,
            &format!("{fault:?}"),
        );
    }
}

#[test]
fn mid_batch_degrade_signal_flips_the_same_op() {
    // The pre-emptive degrade check runs per op on both paths, so a
    // signal raised before the batch lands on op 0 either way; more
    // importantly, a pipeline already holding a raised signal latches
    // at the same point in a chunked stream.
    let nbits = 64;
    let window = 8;
    let ops = mixed_stream(nbits);
    let executor = SlicedExecutor::new(nbits, window);
    let signal_ref = Arc::new(AtomicBool::new(false));
    let signal_sub = Arc::new(AtomicBool::new(false));
    let mut reference = pipeline(nbits, window).with_degrade_signal(Arc::clone(&signal_ref));
    let mut subject = pipeline(nbits, window).with_degrade_signal(Arc::clone(&signal_sub));

    let first = &ops[..500];
    let rest = &ops[500..];
    let want_head = scalar_run(&mut reference, first);
    let got_head = subject.run_batch_on(&executor, first);
    assert_eq!(want_head.outcomes, got_head.outcomes);
    assert_eq!(want_head.stats, got_head.stats);

    signal_ref.store(true, Ordering::Relaxed);
    signal_sub.store(true, Ordering::Relaxed);
    let want_tail = scalar_run(&mut reference, rest);
    let got_tail = subject.run_batch_on(&executor, rest);
    assert_eq!(want_tail.outcomes, got_tail.outcomes);
    assert_eq!(want_tail.stats, got_tail.stats);
    assert_eq!(want_tail.stats.degrade_transitions, 1);
    assert!(reference.is_degraded() && subject.is_degraded());
}

#[test]
fn mismatched_executor_width_panics() {
    let executor = SlicedExecutor::new(32, 8);
    let mut p = pipeline(64, 8);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        p.run_batch_on(&executor, &[(1, 2)]);
    }));
    assert!(err.is_err());
}
