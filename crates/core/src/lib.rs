//! Variable Latency Speculative Addition — the core contribution of
//! Verma, Brisk & Ienne, *"Variable Latency Speculative Addition: A New
//! Paradigm for Arithmetic Circuit Design"*, DATE 2008.
//!
//! Three cooperating pieces, each available both as a gate-level
//! [`vlsa_netlist::Netlist`] generator and (where meaningful) as a
//! word-level software model:
//!
//! - **Almost Correct Adder** ([`almost_correct_adder`],
//!   [`SpeculativeAdder`]): computes every carry from a `window`-wide
//!   slice of preceding bits via the paper's shared log-depth strip
//!   (Fig. 4). Exponentially faster than exact addition; wrong exactly
//!   when a propagate run of `window`+ positions occurs, which for
//!   `window ≈ log2 n` is vanishingly rare (`vlsa-runstats`).
//! - **Error detection** ([`error_detector`]): flags any all-propagate
//!   window using only AND/OR gates, at ~2/3 of an exact adder's delay.
//! - **Error recovery / VLSA** ([`vlsa_adder`]): reuses the ACA's block
//!   `(G, P)` pairs in a block-lookahead layer to rebuild the exact sum
//!   (paper §4.2), assembled with the detector into the combinational
//!   heart of the variable-latency adder (the pipelined organization is
//!   `vlsa-pipeline`).
//!
//! The carry-operator algebra underlying all of it is exposed as
//! [`CarryOp`].
//!
//! # Examples
//!
//! ```
//! use vlsa_core::SpeculativeAdder;
//!
//! // A 64-bit adder wrong less than once in 10,000 uniform additions.
//! let adder = SpeculativeAdder::for_accuracy(64, 0.9999)?;
//! let r = adder.add_u64(u64::MAX / 3, u64::MAX / 5);
//! assert_eq!(r.exact, (u64::MAX / 3).wrapping_add(u64::MAX / 5));
//! if !r.error_detected {
//!     assert_eq!(r.speculative, r.exact);
//! }
//! # Ok::<(), vlsa_core::SpecError>(())
//! ```

mod aca;
mod analysis;
mod carryop;
mod detect;
mod error;
mod exact_error;
mod metrics;
mod multiop;
mod overclock;
mod residue;
mod software;
mod vlsa;

pub use aca::{aca_into, almost_correct_adder, almost_correct_adder_styled, AcaStyle};
pub use analysis::{measure_error_magnitude, measure_uniform_error_magnitude, ErrorMagnitude};
pub use carryop::{CarryOp, CarryOpWord};
pub use detect::error_detector;
pub use error::SpecError;
pub use exact_error::{prob_aca_detection, prob_aca_error, prob_aca_false_alarm};
pub use metrics::AddTally;
pub use multiop::MultiOperandAdder;
pub use overclock::TimingSpeculativeAdder;
pub use residue::ResidueChecker;
pub use software::{
    windowed_add_u64, windowed_add_wide, windowed_sum_u64, windowed_sum_wide, Speculation,
    SpeculativeAdder,
};
pub use vlsa::{vlsa_adder, vlsa_into, VlsaNets};

#[cfg(test)]
mod proptests;
