//! End-to-end residue checking of speculative sums.
//!
//! The `ER` detector is the VLSA's *only* line of defense in the paper:
//! if a defect suppresses it, a wrong speculative sum leaves the adder
//! with `VALID = 1` — silent data corruption. A residue (mod-`m`)
//! checker is the classic second line: small mod-`m` reduction trees
//! compute `a mod m`, `b mod m`, and `(sum + cout·2ⁿ) mod m`
//! *independently of the carry chain*, and the delivered result is
//! accepted only when
//!
//! ```text
//! (a + b) mod m  ==  (sum + cout·2ⁿ) mod m
//! ```
//!
//! Properties (for odd `m`, the default `m = 3`):
//!
//! - **Zero false positives.** A correct `(sum, cout)` always satisfies
//!   the congruence, so the checker never stalls a good result.
//! - **Bounded false negatives.** A wrong result escapes only when the
//!   numeric error is a multiple of `m`. The ACA's *natural* error from
//!   one truncated carry run is exactly `2^j` for some bit `j`, and
//!   `2^j mod 3 ∈ {1, 2}` — never 0 — so mod-3 catches every
//!   single-run error. Two simultaneous runs can combine to
//!   `2^i + 2^j ≡ 0 (mod 3)` (opposite bit parities), but two disjoint
//!   runs of `window`+ propagates each preceded by a generate need at
//!   least `2·(window+1)` bits: whenever `window ≥ (nbits − 1)/2` the
//!   escape set of natural ACA errors is *empty*.
//!
//! Cost on the served path: a delivered result is almost always the
//! exact sum, so [`ResidueChecker::accepts`] first tests the integer
//! identity `a + b == sum + cout·2ⁿ` in `u128` (one add, one shift, one
//! compare for `nbits ≤ 64`). Integer equality implies the congruence
//! for every `m`, so the early accept never changes a verdict; the
//! mod-`m` comparison runs only on a wrong result (an injected fault or
//! an `ER` escape). All residue arithmetic is done in `u128`, where
//! every intermediate (`x mod m < 2⁶⁴`, products of two residues
//! `< 2¹²⁸`) fits, so any odd modulus up to `u64::MAX` is exact.
//!
//! The checker is the trusted base of the resilience layer
//! (`vlsa-resilience` campaigns assume the checker itself is
//! fault-free, the standard assumption in fault-injection studies); on
//! a mismatch the pipeline retries and then degrades to the exact
//! adder (`vlsa-pipeline`'s `ResilientPipeline`).

use crate::SpecError;
use std::fmt;

/// A mod-`m` residue checker over an `nbits`-wide addition.
///
/// # Examples
///
/// ```
/// use vlsa_core::ResidueChecker;
///
/// let check = ResidueChecker::mod3();
/// // A correct 8-bit sum passes, a corrupted one fails.
/// assert!(check.accepts(200, 100, 44, true, 8));
/// assert!(!check.accepts(200, 100, 45, true, 8));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ResidueChecker {
    modulus: u64,
}

impl ResidueChecker {
    /// The default checker: mod-3, the cheapest odd residue code.
    pub fn mod3() -> Self {
        ResidueChecker { modulus: 3 }
    }

    /// A checker with an explicit modulus.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidModulus`] unless `modulus` is an odd
    /// integer ≥ 3 (an even modulus is blind to errors divisible by its
    /// 2-part, which includes the ACA's natural `2^j` errors).
    pub fn new(modulus: u64) -> Result<Self, SpecError> {
        if modulus < 3 || modulus.is_multiple_of(2) {
            return Err(SpecError::InvalidModulus { modulus });
        }
        Ok(ResidueChecker { modulus })
    }

    /// The checker's modulus.
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// `x mod m` — what a hardware mod-`m` reduction tree over the bits
    /// of `x` produces.
    pub fn residue(&self, x: u64) -> u64 {
        x % self.modulus
    }

    /// `(x + y) mod m` for residues `x, y < m`, without overflow.
    fn add_mod(&self, x: u64, y: u64) -> u64 {
        ((u128::from(x) + u128::from(y)) % u128::from(self.modulus)) as u64
    }

    /// `(x · y) mod m` for residues `x, y < m`, without overflow.
    fn mul_mod(&self, x: u64, y: u64) -> u64 {
        ((u128::from(x) * u128::from(y)) % u128::from(self.modulus)) as u64
    }

    /// `2^nbits mod m`, the weight of the carry-out bit, by
    /// square-and-multiply: O(log `nbits`) reductions.
    pub fn pow2(&self, nbits: usize) -> u64 {
        let mut result = 1;
        let mut base = self.residue(2);
        let mut exp = nbits;
        while exp > 0 {
            if exp & 1 == 1 {
                result = self.mul_mod(result, base);
            }
            base = self.mul_mod(base, base);
            exp >>= 1;
        }
        result
    }

    /// The residue the operands predict: `(a + b) mod m`.
    pub fn expected(&self, a: u64, b: u64) -> u64 {
        self.add_mod(self.residue(a), self.residue(b))
    }

    /// The residue of a delivered result: `(sum + cout·2ⁿ) mod m`.
    pub fn observed(&self, sum: u64, cout: bool, nbits: usize) -> u64 {
        let weight = if cout { self.pow2(nbits) } else { 0 };
        self.add_mod(self.residue(sum), weight)
    }

    /// Whether the delivered `(sum, cout)` is residue-consistent with
    /// `a + b`. `true` never rejects a correct result; `false` proves
    /// the result wrong.
    ///
    /// An exact result (`a + b == sum + cout·2ⁿ` as integers, checked
    /// for `nbits ≤ 64`) is accepted with one compare; only a wrong one
    /// pays for the mod-`m` reduction.
    #[inline]
    pub fn accepts(&self, a: u64, b: u64, sum: u64, cout: bool, nbits: usize) -> bool {
        if nbits <= 64
            && u128::from(a) + u128::from(b) == u128::from(sum) + (u128::from(cout) << nbits)
        {
            return true;
        }
        self.congruent(a, b, sum, cout, nbits)
    }

    /// The mod-`m` comparison behind [`ResidueChecker::accepts`].
    #[cold]
    #[inline(never)]
    fn congruent(&self, a: u64, b: u64, sum: u64, cout: bool, nbits: usize) -> bool {
        self.expected(a, b) == self.observed(sum, cout, nbits)
    }

    /// Wide-operand [`ResidueChecker::residue`] over little-endian
    /// `u64` words, truncated to `nbits`.
    pub fn residue_wide(&self, words: &[u64], nbits: usize) -> u64 {
        let word_weight = self.pow2(64);
        let mut r = 0u64;
        let mut weight = 1u64;
        let nwords = nbits.div_ceil(64);
        for (i, &w) in words.iter().enumerate().take(nwords) {
            let w = if (i + 1) * 64 > nbits && !nbits.is_multiple_of(64) {
                w & ((1u64 << (nbits % 64)) - 1)
            } else {
                w
            };
            // Fold each word at its positional weight 2^(64·i) mod m.
            r = self.add_mod(r, self.mul_mod(self.residue(w), weight));
            weight = self.mul_mod(weight, word_weight);
        }
        r
    }
}

impl fmt::Display for ResidueChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mod{}", self.modulus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpeculativeAdder;
    use rand::{Rng, SeedableRng};

    #[test]
    fn constructor_rejects_even_and_tiny_moduli() {
        assert!(matches!(
            ResidueChecker::new(0),
            Err(SpecError::InvalidModulus { .. })
        ));
        assert!(matches!(
            ResidueChecker::new(1),
            Err(SpecError::InvalidModulus { .. })
        ));
        assert!(matches!(
            ResidueChecker::new(4),
            Err(SpecError::InvalidModulus { .. })
        ));
        let c = ResidueChecker::new(7).expect("valid");
        assert_eq!(c.modulus(), 7);
        assert_eq!(c.to_string(), "mod7");
    }

    #[test]
    fn correct_sums_always_pass() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(271);
        let check = ResidueChecker::mod3();
        for nbits in [8usize, 16, 32, 64] {
            let mask = if nbits == 64 {
                u64::MAX
            } else {
                (1u64 << nbits) - 1
            };
            for _ in 0..2_000 {
                let a = rng.gen::<u64>() & mask;
                let b = rng.gen::<u64>() & mask;
                let sum = a.wrapping_add(b) & mask;
                let cout = (a as u128 + b as u128) >> nbits != 0;
                assert!(check.accepts(a, b, sum, cout, nbits), "{a:#x}+{b:#x}");
            }
        }
    }

    #[test]
    fn single_bit_errors_are_always_caught_by_mod3() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(277);
        let check = ResidueChecker::mod3();
        for _ in 0..2_000 {
            let a = rng.gen::<u64>() & 0xFFFF;
            let b = rng.gen::<u64>() & 0xFFFF;
            let sum = a.wrapping_add(b) & 0xFFFF;
            let cout = a + b > 0xFFFF;
            let bit = rng.gen_range(0..16);
            assert!(
                !check.accepts(a, b, sum ^ (1 << bit), cout, 16),
                "flip of bit {bit} escaped"
            );
            // Flipping the carry-out alone is a 2^16 error: caught too.
            assert!(!check.accepts(a, b, sum, !cout, 16));
        }
    }

    #[test]
    fn natural_aca_errors_are_caught_when_window_dominates() {
        // window ≥ (nbits − 1)/2 ⇒ at most one truncated carry run ⇒
        // error magnitude 2^j ⇒ mod-3 catches it.
        let check = ResidueChecker::mod3();
        let adder = SpeculativeAdder::new(8, 4).expect("valid");
        let mut wrong = 0u64;
        for a in 0u64..256 {
            for b in 0u64..256 {
                let r = adder.add_u64(a, b);
                let (spec, spec_cout) = crate::windowed_add_u64(a, b, 8, 4);
                assert_eq!(spec, r.speculative);
                if !r.is_correct() {
                    wrong += 1;
                    assert!(
                        !check.accepts(a, b, spec, spec_cout, 8),
                        "{a}+{b}: wrong spec sum {spec} escaped mod-3"
                    );
                }
            }
        }
        assert!(wrong > 0, "sweep produced no natural errors");
    }

    #[test]
    fn known_escape_shape_exists_below_the_window_bound() {
        // Two truncated runs with opposite-parity first-wrong-bits sum
        // to a multiple of 3 — the documented mod-3 escape set. With
        // window 4 on 16 bits (< the (nbits−1)/2 bound) such a pair is
        // constructible: generates at bits 1 and 8, propagate runs at
        // 2–5 and 9–12 → error 2^6 + 2^13 = 8256 = 3·2752.
        let check = ResidueChecker::mod3();
        let adder = SpeculativeAdder::new(16, 4).expect("valid");
        let a: u64 = (1 << 1) | (0b1111 << 2) | (1 << 8) | (0b1111 << 9);
        let b: u64 = (1 << 1) | (1 << 8);
        let r = adder.add_u64(a, b);
        let (spec, spec_cout) = crate::windowed_add_u64(a, b, 16, 4);
        assert!(!r.is_correct(), "pair must defeat speculation");
        let full_exact = a + b;
        let full_spec = spec + (u64::from(spec_cout) << 16);
        assert_eq!(full_exact - full_spec, (1 << 6) + (1 << 13));
        assert!(
            check.accepts(a, b, spec, spec_cout, 16),
            "this error is ≡ 0 (mod 3) by construction"
        );
        // A mod-5 checker sees it fine — escapes are modulus-specific.
        assert!(!ResidueChecker::new(5)
            .expect("valid")
            .accepts(a, b, spec, spec_cout, 16));
    }

    #[test]
    fn wide_residue_matches_narrow() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(281);
        for m in [3u64, 5, 7, 15] {
            let check = ResidueChecker::new(m).expect("valid");
            for _ in 0..500 {
                let x: u64 = rng.gen();
                assert_eq!(check.residue_wide(&[x], 64), check.residue(x));
                assert_eq!(
                    check.residue_wide(&[x], 40),
                    check.residue(x & ((1 << 40) - 1))
                );
            }
            // Cross-word: value = low + 2^64·high.
            let r = check.residue_wide(&[5, 1], 128);
            let expect = (5 + check.pow2(64)) % m;
            assert_eq!(r, expect);
        }
    }

    /// The plain mod-`m` formula (a linear `2ⁿ` loop, no early accept),
    /// widened to `u128` so it cannot overflow: the reference every
    /// verdict must match.
    fn reference_pow2(m: u64, nbits: usize) -> u128 {
        let m = u128::from(m);
        let mut r = 1u128;
        for _ in 0..nbits {
            r = (r * 2) % m;
        }
        r
    }

    fn reference_accepts(m: u64, a: u64, b: u64, sum: u64, cout: bool, nbits: usize) -> bool {
        let wide = u128::from(m);
        let expected = (u128::from(a) % wide + u128::from(b) % wide) % wide;
        let observed =
            (u128::from(sum) % wide + u128::from(cout) * reference_pow2(m, nbits)) % wide;
        expected == observed
    }

    const LARGE_MODULI: [u64; 2] = [(1 << 63) + 1, u64::MAX];

    #[test]
    fn large_moduli_accept_correct_sums_and_reduce_exactly() {
        for m in LARGE_MODULI {
            let check = ResidueChecker::new(m).expect("valid");
            // 2^64 mod (2^63 + 1) = 2^63 − 1; 2^64 mod (2^64 − 1) = 1.
            let weight = if m == u64::MAX { 1 } else { (1 << 63) - 1 };
            assert_eq!(check.pow2(64), weight, "m = {m:#x}");
            // u64::MAX + 2^63 = 2^64 + (2^63 − 1): a correct sum with
            // the carry out set.
            let (a, b) = (u64::MAX, 1u64 << 63);
            let (sum, cout) = (a.wrapping_add(b), true);
            assert_eq!(sum, (1 << 63) - 1);
            assert!(check.accepts(a, b, sum, cout, 64), "m = {m:#x}");
            // The mod-m path agrees on its own, without the early accept.
            assert_eq!(check.expected(a, b), check.observed(sum, cout, 64));
            // Off by one is caught; off by exactly m is the checker's
            // blind spot, and must read as such.
            assert!(!check.accepts(a, b, sum ^ 1, cout, 64));
            let exact = u128::from(a) + u128::from(b);
            let shifted = exact - u128::from(m);
            assert!(check.accepts(a, b, shifted as u64, shifted >> 64 != 0, 64));
            // Every 64-bit word folds at weight 2^64 mod m.
            assert_eq!(
                check.residue_wide(&[u64::MAX, u64::MAX], 128),
                ((u128::MAX) % u128::from(m)) as u64
            );
        }
    }

    #[test]
    fn accepts_matches_the_reference_exhaustively_at_small_widths() {
        for m in [3u64, 5, 7, 9, 15] {
            let check = ResidueChecker::new(m).expect("valid");
            for nbits in 0..=5usize {
                let values = 1u64 << nbits;
                for a in 0..values {
                    for b in 0..values {
                        for sum in 0..values {
                            for cout in [false, true] {
                                assert_eq!(
                                    check.accepts(a, b, sum, cout, nbits),
                                    reference_accepts(m, a, b, sum, cout, nbits),
                                    "m={m} nbits={nbits} {a}+{b} vs ({sum}, {cout})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pow2_matches_a_naive_loop() {
        for m in [3u64, 5, 7, 9, 15, 1_000_003, (1 << 32) + 15]
            .into_iter()
            .chain(LARGE_MODULI)
        {
            let check = ResidueChecker::new(m).expect("valid");
            for n in 0..=128usize {
                assert_eq!(
                    u128::from(check.pow2(n)),
                    reference_pow2(m, n),
                    "2^{n} mod {m}"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn accepts_matches_the_reference_at_64_bits(
            a in proptest::prelude::any::<u64>(),
            b in proptest::prelude::any::<u64>(),
            half in 1u64..=u64::MAX / 2,
            j in 0usize..=64,
        ) {
            let m = 2 * half + 1;
            let check = ResidueChecker::new(m).expect("odd, >= 3");
            let exact = u128::from(a) + u128::from(b);
            let correct = (exact as u64, exact >> 64 != 0);
            proptest::prop_assert!(check.accepts(a, b, correct.0, correct.1, 64));
            // Off by ±2^j in the full 65-bit result: the shape of a
            // truncated carry run (ACA) or a single-bit fault.
            let delta = 1u128 << j;
            let candidates = [
                Some(exact),
                exact.checked_sub(delta),
                Some(exact + delta).filter(|v| v >> 65 == 0),
            ];
            for full in candidates.into_iter().flatten() {
                for cout in [false, true] {
                    let sum = full as u64;
                    proptest::prop_assert_eq!(
                        check.accepts(a, b, sum, cout, 64),
                        reference_accepts(m, a, b, sum, cout, 64)
                    );
                }
            }
        }
    }

    #[test]
    fn pow2_cycles_mod3() {
        let check = ResidueChecker::mod3();
        assert_eq!(check.pow2(0), 1);
        assert_eq!(check.pow2(1), 2);
        assert_eq!(check.pow2(2), 1);
        assert_eq!(check.pow2(16), 1);
        assert_eq!(check.pow2(17), 2);
    }
}
