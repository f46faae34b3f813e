//! The paper's Fig. 6 at gate level: the variable-latency adder as a
//! sealed sequential circuit with VALID/STALL handshake.
//!
//! State:
//!
//! - `in_recovery` — set for exactly one cycle after a detection,
//! - `a_hold` / `b_hold` — the operands being recovered.
//!
//! Per cycle, the combinational VLSA datapath (`vlsa_into`) runs on the
//! live operands (or the held ones during recovery); the outputs are
//!
//! - `sum[i]` — speculative sum normally, recovered sum during the
//!   extra cycle,
//! - `valid` — low exactly on the cycle a fresh operand pair trips the
//!   detector,
//! - `stall` — high on that same cycle, telling the environment to hold
//!   its operands.
//!
//! `vlsa-pipeline`'s software model is the reference; the test suite
//! locksteps the two cycle by cycle.

use crate::{SealCircuitError, SeqBuilder, SeqCircuit};
use vlsa_core::vlsa_into;
use vlsa_netlist::Bus;

/// Builds the sequential VLSA of paper Fig. 6.
///
/// Interface: inputs `a[0..n]`, `b[0..n]`; outputs `sum[0..n]`,
/// `valid`, `stall`. The environment must hold `a`/`b` stable while
/// `stall` is high (as any stall-based handshake requires).
///
/// # Errors
///
/// Returns [`SealCircuitError`] if the internal register bookkeeping is
/// inconsistent (unreachable for valid parameters).
///
/// # Panics
///
/// Panics if `nbits` or `window` is zero.
///
/// # Examples
///
/// ```
/// use vlsa_seq::sequential_vlsa;
///
/// let circuit = sequential_vlsa(16, 5)?;
/// assert_eq!(circuit.registers().len(), 1 + 2 * 16); // in_recovery + holds
/// # Ok::<(), vlsa_seq::SealCircuitError>(())
/// ```
pub fn sequential_vlsa(nbits: usize, window: usize) -> Result<SeqCircuit, SealCircuitError> {
    assert!(nbits > 0, "adder width must be positive");
    assert!(window > 0, "window must be positive");
    let mut b = SeqBuilder::new(format!("vlsa_seq{nbits}w{window}"));

    let in_recovery = b.register("in_recovery", false);
    let a_hold: Vec<_> = (0..nbits)
        .map(|i| b.register(format!("a_hold{i}"), false))
        .collect();
    let b_hold: Vec<_> = (0..nbits)
        .map(|i| b.register(format!("b_hold{i}"), false))
        .collect();

    let nl = b.comb();
    let a_in = nl.input_bus("a", nbits);
    let b_in = nl.input_bus("b", nbits);

    // Effective operands: live normally, held during recovery.
    let a_eff: Bus = (0..nbits)
        .map(|i| nl.mux2(a_in[i], a_hold[i], in_recovery))
        .collect();
    let b_eff: Bus = (0..nbits)
        .map(|i| nl.mux2(b_in[i], b_hold[i], in_recovery))
        .collect();

    let nets = vlsa_into(nl, &a_eff, &b_eff, window);

    // Handshake: a fresh operand pair that trips the detector stalls
    // for one recovery cycle.
    let not_recovery = nl.not(in_recovery);
    let stall = nl.and2(not_recovery, nets.err);
    let valid = nl.not(stall);

    // Output bus: speculative sum normally, recovered sum while the
    // held operands are being fixed.
    for i in 0..nbits {
        let s = nl.mux2(nets.speculative[i], nets.recovered[i], in_recovery);
        nl.output(format!("sum[{i}]"), s);
    }
    nl.output("valid", valid);
    nl.output("stall", stall);

    // Next state.
    let a_next: Vec<_> = (0..nbits)
        .map(|i| nl.mux2(a_in[i], a_hold[i], in_recovery))
        .collect();
    let b_next: Vec<_> = (0..nbits)
        .map(|i| nl.mux2(b_in[i], b_hold[i], in_recovery))
        .collect();
    b.connect(in_recovery, stall);
    for i in 0..nbits {
        b.connect(a_hold[i], a_next[i]);
        b.connect(b_hold[i], b_next[i]);
    }
    b.seal()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeqSim;
    use rand::SeedableRng;
    use std::collections::HashMap;
    use vlsa_batch::ScalarExecutor;
    use vlsa_core::SpeculativeAdder;
    use vlsa_pipeline::VlsaPipeline;

    /// Drives the gate-level Fig. 6 with an operand stream (holding
    /// inputs during stalls) and returns per-cycle (sum, valid, stall)
    /// for lane 0.
    fn drive(circuit: &SeqCircuit, nbits: usize, ops: &[(u64, u64)]) -> Vec<(u64, bool, bool)> {
        let mut sim = SeqSim::new(circuit);
        let mut out = Vec::new();
        let mut idx = 0;
        let mut guard = 0;
        while idx < ops.len() {
            guard += 1;
            assert!(guard < 10 * ops.len() + 10, "handshake livelock");
            let (a, b) = ops[idx];
            let mut inputs = HashMap::new();
            for i in 0..nbits {
                inputs.insert(
                    format!("a[{i}]"),
                    if (a >> i) & 1 == 1 { u64::MAX } else { 0 },
                );
                inputs.insert(
                    format!("b[{i}]"),
                    if (b >> i) & 1 == 1 { u64::MAX } else { 0 },
                );
            }
            let outputs = sim.step(&inputs).expect("step");
            let mut sum = 0u64;
            for i in 0..nbits {
                if outputs[&format!("sum[{i}]")] & 1 == 1 {
                    sum |= 1 << i;
                }
            }
            let valid = outputs["valid"] & 1 == 1;
            let stall = outputs["stall"] & 1 == 1;
            out.push((sum, valid, stall));
            if !stall {
                // Result cycle for this op (fresh-valid or recovery).
                idx += 1;
            }
        }
        out
    }

    #[test]
    fn locksteps_with_software_pipeline() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(263);
        let nbits = 16;
        let window = 4; // narrow so errors actually occur
        let circuit = sequential_vlsa(nbits, window).expect("sealed");
        let adder = SpeculativeAdder::new(nbits, window).expect("valid");
        let ops = vlsa_pipeline::random_operands(nbits, 300, &mut rng);

        let gate = drive(&circuit, nbits, &ops);
        // Per-cycle expectations from the verdicts and the pipeline's
        // outcomes: a stalled op shows its speculative sum with VALID
        // low and STALL high, then the corrected sum.
        let oracle = ScalarExecutor::new(nbits, window);
        let mut expected = Vec::new();
        let trace = VlsaPipeline::new(adder).run_observed(&ops, |s| {
            if s.stalled {
                expected.push((oracle.verdict(s.a, s.b).spec, false, true));
            }
            expected.push((s.sum, true, false));
        });
        assert_eq!(gate.len() as u64, trace.total_cycles, "cycle counts differ");
        assert_eq!(gate.len(), expected.len());
        for (cycle, (g, e)) in gate.iter().zip(&expected).enumerate() {
            assert_eq!(g, e, "(sum, valid, stall) @ cycle {cycle}");
        }
        assert!(trace.errors > 0, "window 4 should err in 300 ops");
    }

    #[test]
    fn clean_stream_never_stalls() {
        let circuit = sequential_vlsa(8, 8).expect("sealed");
        let ops = vec![(1u64, 2u64), (100, 55), (200, 55)];
        let gate = drive(&circuit, 8, &ops);
        assert_eq!(gate.len(), 3);
        for (sum, valid, stall) in &gate {
            assert!(*valid && !*stall);
            let _ = sum;
        }
        assert_eq!(gate[0].0, 3);
        assert_eq!(gate[2].0, 255);
    }

    #[test]
    fn error_produces_two_cycle_transaction() {
        let circuit = sequential_vlsa(8, 3).expect("sealed");
        // 0b0111_1111 + 1 carries the full width.
        let gate = drive(&circuit, 8, &[(0x7F, 0x01)]);
        assert_eq!(gate.len(), 2);
        let (wrong, valid0, stall0) = gate[0];
        assert!(!valid0 && stall0);
        assert_ne!(wrong, 0x80);
        let (fixed, valid1, stall1) = gate[1];
        assert!(valid1 && !stall1);
        assert_eq!(fixed, 0x80);
    }

    #[test]
    fn register_count_scales_with_width() {
        let c = sequential_vlsa(12, 5).expect("sealed");
        assert_eq!(c.registers().len(), 25);
        assert_eq!(c.free_inputs().count(), 24);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = sequential_vlsa(8, 0);
    }
}
