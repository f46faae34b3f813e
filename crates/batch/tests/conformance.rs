//! Conformance: the sliced engine is bit-identical to the scalar
//! oracle, the scalar oracle agrees with `vlsa-core`'s
//! `SpeculativeAdder`, and the transpose round-trips losslessly.
//!
//! Four layers of evidence:
//!
//! 1. **Transpose round-trip (proptest)** — arbitrary operand blocks
//!    of 1..=64 lanes, including ragged final blocks, survive
//!    transpose → untranspose bit-identically.
//! 2. **Exhaustive small widths** — every operand pair at n ≤ 8 for
//!    every window k, compared field-for-field against the oracle
//!    (ER mask included), so there is no corner left to sample.
//! 3. **Proptest at production widths** — widths {8, 16, 32, 64} ×
//!    k ∈ {2, 4, 8}: sums, ER mask, carry-outs, and the per-batch
//!    stall count all match the scalar oracle.
//! 4. **An independent reference for the oracle** — exhaustively at
//!    n ≤ 6 and by proptest at production widths, every
//!    `ScalarExecutor` verdict equals `SpeculativeAdder::add_u64_with_cout`
//!    (speculative sum, ER, speculative carry-out) plus
//!    `SpeculativeAdder::exact_u64` (exact sum and carry-out).

use proptest::prelude::*;
use vlsa_batch::{
    transpose_block, untranspose_block, BatchExecutor, OpVerdict, ScalarExecutor, SlicedExecutor,
    LANES,
};
use vlsa_core::SpeculativeAdder;

fn width_mask(nbits: usize) -> u64 {
    if nbits == 64 {
        u64::MAX
    } else {
        (1u64 << nbits) - 1
    }
}

/// The conformance triple the issue names: per-op sums, the ER-fired
/// mask, and the batch stall count.
fn assert_bit_identical(ops: &[(u64, u64)], nbits: usize, window: usize) {
    let oracle: Vec<OpVerdict> = ScalarExecutor::new(nbits, window).execute(ops);
    let sliced: Vec<OpVerdict> = SlicedExecutor::new(nbits, window).execute(ops);
    assert_eq!(oracle.len(), sliced.len());
    for (i, (want, got)) in oracle.iter().zip(&sliced).enumerate() {
        assert_eq!(
            want, got,
            "op {i} diverged: nbits={nbits} window={window} a={:#x} b={:#x}",
            ops[i].0, ops[i].1
        );
    }
    let want_stalls = oracle.iter().filter(|v| v.er).count();
    let got_stalls = sliced.iter().filter(|v| v.er).count();
    assert_eq!(want_stalls, got_stalls, "stall counts diverged");
}

/// Every `ScalarExecutor` verdict equals what `SpeculativeAdder`
/// computes for the same pair, field for field.
fn assert_oracle_matches_core(ops: &[(u64, u64)], nbits: usize, window: usize) {
    let adder = SpeculativeAdder::new(nbits, window).expect("valid adder");
    let verdicts = ScalarExecutor::new(nbits, window).execute(ops);
    assert_eq!(verdicts.len(), ops.len());
    for (&(a, b), got) in ops.iter().zip(&verdicts) {
        let (spec, spec_cout) = adder.add_u64_with_cout(a, b);
        let (exact, exact_cout) = adder.exact_u64(a, b);
        let want = OpVerdict {
            spec: spec.speculative,
            exact,
            er: spec.error_detected,
            spec_cout,
            exact_cout,
        };
        assert_eq!(
            *got, want,
            "nbits={nbits} window={window} a={a:#x} b={b:#x}"
        );
    }
}

/// Every operand pair at width `nbits`.
fn all_pairs(nbits: usize) -> Vec<(u64, u64)> {
    let m = width_mask(nbits);
    (0..=m).flat_map(|a| (0..=m).map(move |b| (a, b))).collect()
}

proptest! {
    #[test]
    fn transpose_round_trip_is_lossless(
        ops in proptest::collection::vec(any::<(u64, u64)>(), 1..=LANES)
    ) {
        let (ta, tb) = transpose_block(&ops);
        let back_a = untranspose_block(&ta, ops.len());
        let back_b = untranspose_block(&tb, ops.len());
        for (lane, &(a, b)) in ops.iter().enumerate() {
            prop_assert_eq!(back_a[lane], a);
            prop_assert_eq!(back_b[lane], b);
        }
        // Untouched lanes beyond the block are zero on both sides.
        let full_a = untranspose_block(&ta, LANES);
        for &word in &full_a[ops.len()..] {
            prop_assert_eq!(word, 0);
        }
    }

    #[test]
    fn production_widths_match_the_oracle(
        raw in proptest::collection::vec(any::<(u64, u64)>(), 1..=200),
        nbits in proptest::sample::select(&[8usize, 16, 32, 64]),
        window in proptest::sample::select(&[2usize, 4, 8]),
    ) {
        assert_bit_identical(&raw, nbits, window);
    }

    #[test]
    fn adversarial_propagate_runs_match_the_oracle(
        seed in any::<u64>(),
        nbits in proptest::sample::select(&[8usize, 16, 32, 64]),
        window in proptest::sample::select(&[2usize, 4, 8]),
    ) {
        // Bias operands toward long carry chains: b chosen so a ^ b is
        // mostly ones, the regime where ER fires and the windowed sum
        // actually diverges from the exact one.
        let mask = width_mask(nbits);
        let mut ops = Vec::new();
        let mut x = seed | 1;
        for i in 0..96u64 {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
            let a = x & mask;
            let b = (!a ^ (x >> 17 & 0xF)) & mask;
            ops.push((a, b));
            ops.push((a, (!a) & mask)); // all-propagate: worst case
            ops.push((mask, 1));        // carry ripples end to end
        }
        assert_bit_identical(&ops, nbits, window);
    }

    #[test]
    fn oracle_matches_the_core_adder_at_production_widths(
        raw in proptest::collection::vec(any::<(u64, u64)>(), 1..=200),
        nbits in proptest::sample::select(&[8usize, 16, 32, 64]),
        window in proptest::sample::select(&[2usize, 4, 8]),
    ) {
        assert_oracle_matches_core(&raw, nbits, window);
    }
}

#[test]
fn exhaustive_small_widths_every_window() {
    // n ≤ 8 would be 65k pairs per (n, k) at n = 8; exhaust fully up
    // to n = 6 and cover n = 7, 8 on a dense lattice plus every
    // single-operand boundary value.
    for nbits in 1..=6usize {
        let ops = all_pairs(nbits);
        for window in 1..=nbits {
            assert_bit_identical(&ops, nbits, window);
        }
    }
    for nbits in [7usize, 8] {
        let m = width_mask(nbits);
        for window in 1..=nbits {
            let mut ops = Vec::new();
            for a in 0..=m {
                for b in [0, 1, m / 2, m - 1, m, !a & m, (a << 1) & m] {
                    ops.push((a, b));
                }
            }
            assert_bit_identical(&ops, nbits, window);
        }
    }
}

#[test]
fn exhaustive_small_widths_oracle_matches_the_core_adder() {
    for nbits in 1..=6usize {
        let ops = all_pairs(nbits);
        for window in 1..=nbits {
            assert_oracle_matches_core(&ops, nbits, window);
        }
    }
}
