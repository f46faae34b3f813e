//! # vlsa-batch
//!
//! Bit-sliced (transposed) data-parallel execution of the paper's
//! Almost Correct Adder: 64 independent additions per machine word.
//!
//! The scalar model executes one logical add per call — an `O(nbits)`
//! per-bit scan for the windowed sum plus a longest-run scan for the
//! `ER` detector. This crate *transposes* a block of up to 64 operand
//! pairs so that word `i` holds bit `i` of every lane; the P/G strip,
//! the k-window carry assembly, the ER detector, and the Kogge–Stone
//! exact-recovery prefix then each become a handful of word-wide
//! AND/OR/XOR/shift ops whose cost is shared by all 64 lanes.
//!
//! Layers:
//!
//! - [`transpose`] — 64×64 bit-matrix transpose between lane order and
//!   position order (an involution, so untransposing is re-transposing).
//! - [`engine`] — the word-wide ACA on one transposed block: windowed
//!   carries, ER lane mask, and the exact carry prefix-sum.
//! - [`executor`] — the pluggable [`BatchExecutor`] boundary with the
//!   [`ScalarExecutor`] conformance oracle and the [`SlicedExecutor`]
//!   transposed implementation (plus the [`Backend`] flag enum). Both
//!   run on the caller's thread: a server's shards are its unit of
//!   parallelism.
//!
//! Every executor is bit-identical to the scalar oracle — same sums,
//! same ER mask, same carry-outs — and the scalar oracle agrees with
//! `vlsa_core::SpeculativeAdder`, which the conformance tests in
//! `tests/conformance.rs` enforce exhaustively at small widths and by
//! proptest at {8, 16, 32, 64} bits.

pub mod engine;
pub mod executor;
pub mod transpose;

pub use engine::{run_block, BlockVerdict, MAX_NBITS};
pub use executor::{
    executor_for, Backend, BatchExecutor, OpVerdict, ScalarExecutor, SlicedExecutor,
};
pub use transpose::{transpose64, transpose_block, untranspose_block, LANES};
