//! The bit-sliced executor benchmark behind `BENCH_batch.json` (see
//! `vlsa_bench::batchbench` for the methodology).
//!
//! Usage:
//!   cargo run --release -p vlsa-bench --bin batch -- \
//!       --json BENCH_batch.json [--gate 10] [--ops 65536] [--repeats 5]
//!
//! Flags: `--ops <n>` operands per timed batch (default 65536),
//! `--repeats <n>` best-of repetitions (default 5), `--gate <x>` exit
//! nonzero unless every executor row's sliced-over-scalar speedup is
//! at least `x` (default 0 = report only; CI gates at 4, the committed
//! report documents the full local win). With `--gate`, a 64-bit row
//! whose `sliced_ops_s / pipeline_ops_s` exceeds
//! `MAX_REPLAY_OVERHEAD` (2) also fails: the resilient replay must not
//! cost more than the engine it wraps.

use std::process::ExitCode;

use vlsa_bench::batchbench::{
    max_replay_overhead, min_speedup, run_batch_bench, BATCH_OPS, MAX_REPLAY_OVERHEAD, REPEATS,
};
use vlsa_bench::report::{args_without_json, parse_arg, split_value_flag, ArgError};

fn main() -> ExitCode {
    let (args, json_path) = args_without_json().unwrap_or_else(|e| e.exit());
    let split = |args, flag| split_value_flag(args, flag).unwrap_or_else(|e: ArgError| e.exit());
    let (args, ops) = split(args, "ops");
    let (args, repeats) = split(args, "repeats");
    let (args, gate) = split(args, "gate");
    if let Some(unexpected) = args.get(1) {
        ArgError::Unexpected {
            arg: unexpected.clone(),
        }
        .exit();
    }
    let parsed = |flag: &str, value: Option<String>, default: u64| {
        value.map_or(default, |v| {
            parse_arg(flag, &v).unwrap_or_else(|e| e.exit())
        })
    };
    let ops = parsed("--ops", ops, BATCH_OPS as u64) as usize;
    let repeats = (parsed("--repeats", repeats, REPEATS as u64) as usize).max(1);
    let gated = gate.is_some();
    let gate: f64 = gate.map_or(0.0, |v| {
        parse_arg("--gate", &v).unwrap_or_else(|e: ArgError| e.exit())
    });

    let report = run_batch_bench(ops, repeats);
    report.write_if(&json_path);

    let worst = min_speedup(&report);
    println!("minimum sliced/scalar speedup: {worst:.1}x (gate {gate:.1}x)");
    let overhead = max_replay_overhead(&report);
    println!(
        "maximum sliced/pipeline replay overhead: {overhead:.2}x (gate {MAX_REPLAY_OVERHEAD:.1}x)"
    );
    let mut ok = true;
    if worst < gate {
        eprintln!("FAILED: speedup {worst:.1}x is below the {gate:.1}x gate");
        ok = false;
    }
    if gated && overhead > MAX_REPLAY_OVERHEAD {
        eprintln!(
            "FAILED: replay overhead {overhead:.2}x is above the {MAX_REPLAY_OVERHEAD:.1}x gate"
        );
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
