//! Regenerates the paper's §4.3 result: VLSA average latency over a
//! random operand stream is ~1.0001 cycles, and — with the clock set by
//! `max(T_aca, T_detect)` — the effective speedup over a single-cycle
//! traditional adder approaches 2x (paper: "almost half the latency of
//! the fastest traditional adder").
//!
//! Usage:
//!   cargo run --release -p vlsa-bench --bin latency [-- ops N] [--json PATH]
//!   cargo run --release -p vlsa-bench --bin latency -- queue   # issue-queue study

use rand::SeedableRng;
use std::path::PathBuf;
use vlsa_bench::report::{args_without_json, parse_arg, Report};
use vlsa_bench::{fastest_traditional, paper_window, synthesize};
use vlsa_core::{almost_correct_adder, error_detector, SpeculativeAdder};
use vlsa_pipeline::{
    adversarial_operands, random_operands, EffectiveLatency, QueueConfig, VlsaPipeline,
};
use vlsa_techlib::TechLibrary;
use vlsa_telemetry::Json;
use vlsa_timing::analyze;

fn queue_study(json_path: &Option<PathBuf>) {
    let mut report = Report::new("latency_queue");
    let mut rng = rand::rngs::StdRng::seed_from_u64(4095);
    println!("VLSA behind an issue queue (Bernoulli arrivals, capacity 8)\n");
    println!(
        "{:>8} {:>7} | {:>10} {:>11} {:>11} {:>10}",
        "load", "window", "mean wait", "mean queue", "throughput", "drop rate"
    );
    for window in [8usize, 18] {
        for load in [0.5f64, 0.8, 0.95, 1.0] {
            let adder = SpeculativeAdder::new(64, window).expect("valid");
            let mut pipe = VlsaPipeline::new(adder);
            let stats = pipe
                .run_queued(
                    QueueConfig {
                        arrival_prob: load,
                        capacity: 8,
                    },
                    500_000,
                    &mut rng,
                )
                .expect("valid queue config");
            println!(
                "{load:>8.2} {window:>7} | {:>10.3} {:>11.3} {:>11.3} {:>10.2e}",
                stats.mean_wait(),
                stats.mean_queue_len(),
                stats.throughput(),
                stats.drop_rate()
            );
            report.push_row(
                Json::obj()
                    .set("load", load)
                    .set("window", window as u64)
                    .set("mean_wait", stats.mean_wait())
                    .set("mean_queue_len", stats.mean_queue_len())
                    .set("throughput", stats.throughput())
                    .set("drop_rate", stats.drop_rate()),
            );
        }
    }
    report.write_if(json_path);
    println!(
        "\nAt the design window (18) the recovery cycles are invisible up \
         to 95% load (sub-0.01 queue occupancy); at exactly 100% load any \
         service time above 1.0 makes the queue critically loaded and the \
         wait grows, as queueing theory demands — the issue stage must \
         leave the VLSA that p = 1e-4 of slack. An aggressive window (8) \
         saturates already at ~90% load."
    );
}

fn main() {
    let (args, json_path) = args_without_json().unwrap_or_else(|e| e.exit());
    if args.get(1).map(String::as_str) == Some("queue") {
        queue_study(&json_path);
        return;
    }
    let ops: usize = args
        .get(2)
        .map(|a| parse_arg("ops", a).unwrap_or_else(|e| e.exit()))
        .unwrap_or(1_000_000);
    let mut report = Report::new("latency");
    report.set("ops", ops as u64);
    let lib = TechLibrary::umc180();
    let mut rng = rand::rngs::StdRng::seed_from_u64(64);

    println!("VLSA pipeline latency (paper §4.3, Fig. 7)\n");
    println!(
        "{:>6} {:>7} | {:>9} {:>12} {:>12} | {:>10} {:>10} {:>9}",
        "bits", "window", "errors", "avg cycles", "pred cycles", "clock ps", "trad ps", "speedup"
    );
    for nbits in [16usize, 32, 48, 64] {
        let w = paper_window(nbits);
        let adder = SpeculativeAdder::new(nbits, w).expect("valid");
        let predicted = 1.0 + adder.detection_probability();
        let mut pipe = VlsaPipeline::new(adder);
        let stream = random_operands(nbits, ops, &mut rng);
        let trace = pipe.run(&stream);

        let aca_ps = analyze(&synthesize(&almost_correct_adder(nbits, w)), &lib)
            .expect("timing")
            .max_delay_ps;
        let det_ps = analyze(&synthesize(&error_detector(nbits, w)), &lib)
            .expect("timing")
            .max_delay_ps;
        let (_, _, trad_ps) = fastest_traditional(nbits, &lib).expect("timing");
        let eff = EffectiveLatency {
            t_clock_ps: aca_ps.max(det_ps),
            t_traditional_ps: trad_ps,
        };
        let speedup = eff.speedup(&trace).expect("non-empty trace");
        println!(
            "{nbits:>6} {w:>7} | {:>9} {:>12.6} {predicted:>12.6} | {:>10.0} {trad_ps:>10.0} {speedup:>9.2}",
            trace.errors,
            trace.average_latency(),
            eff.t_clock_ps,
        );
        report.push_row(
            Json::obj()
                .set("bits", nbits as u64)
                .set("window", w as u64)
                .set("errors", trace.errors)
                .set("avg_cycles", trace.average_latency())
                .set("pred_cycles", predicted)
                .set("clock_ps", eff.t_clock_ps)
                .set("trad_ps", trad_ps)
                .set("speedup", speedup),
        );
    }
    report.write_if(&json_path);

    // The paper's Fig. 7 scenario in miniature.
    println!("\nTiming diagram (paper Fig. 7 shape: op 2 errs, ops 1 and 3 are clean):");
    let adder = SpeculativeAdder::new(16, 4).expect("valid");
    let pipe = VlsaPipeline::new(adder);
    let fig7 = [(0x0012, 0x0034), (0x7FFF, 0x0001), (0x0100, 0x0200)];
    print!("{}", pipe.timing_diagram(&fig7, 8));

    // Worst case: adversarial stream keeps the pipeline at 2 cycles/op.
    let mut pipe = VlsaPipeline::new(SpeculativeAdder::new(32, 8).expect("valid"));
    let worst = pipe.run(&adversarial_operands(32, 10_000));
    println!(
        "\nAdversarial stream (full-width carries): {:.3} cycles/op — \
         speculation never helps a hostile workload.",
        worst.average_latency()
    );
}
