//! The variable-latency pipeline in action: VALID/STALL handshake,
//! a Fig. 7-style timing diagram, and throughput on random streams.
//!
//! Run with: `cargo run --release --example pipeline_demo`

use rand::SeedableRng;
use vlsa::core::SpeculativeAdder;
use vlsa::pipeline::{adversarial_operands, random_operands, VlsaPipeline};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A deliberately narrow window so the demo shows a stall quickly.
    let adder = SpeculativeAdder::new(16, 4)?;
    let mut pipe = VlsaPipeline::new(adder);

    // Paper Fig. 7: three operand pairs, the middle one errs.
    let fig7 = [(0x0012, 0x0034), (0x7FFF, 0x0001), (0x0100, 0x0200)];
    println!("Fig. 7 timing diagram (op 2 triggers recovery):\n");
    print!("{}", pipe.timing_diagram(&fig7, 8));
    println!("\n{}\n", pipe.run(&fig7));

    // Realistic design point on a long random stream.
    let adder = SpeculativeAdder::for_accuracy(64, 0.9999)?;
    println!(
        "64-bit VLSA at 99.99% accuracy (window {}):",
        adder.window()
    );
    let mut pipe = VlsaPipeline::new(adder);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2008);
    let trace = pipe.run(&random_operands(64, 500_000, &mut rng));
    println!("  {trace}");
    assert!(trace.average_latency() < 1.001);

    // And the worst case, which degrades gracefully to 2 cycles/op.
    let mut pipe = VlsaPipeline::new(SpeculativeAdder::new(64, 8)?);
    let trace = pipe.run(&adversarial_operands(64, 1_000));
    println!("  adversarial stream: {trace}");
    Ok(())
}
