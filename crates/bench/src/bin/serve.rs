//! Runs a standalone `vlsa-server` for scripted load tests (the CI
//! `server-smoke` job pairs this with the `loadgen` binary).
//!
//! Usage:
//!   cargo run --release -p vlsa-bench --bin serve -- \
//!       --addr 127.0.0.1:0 --shards 4 --serve-secs 30 \
//!       --addr-file server.addr --metrics --metrics-addr-file m.addr
//!
//! Flags: `--addr <host:port>` (default ephemeral), `--shards <n>`
//! (default 4), `--n <bits>` (default 64), `--backend scalar|sliced`
//! (execution backend per shard, default sliced; results are
//! bit-identical either way — only throughput differs), `--cycle-ns
//! <ns>` (modeled device time per pipeline cycle, default 3000),
//! `--serve-secs <s>`
//! (default 30), `--trace-every <n>` (self-sample every nth untraced
//! request into the trace rings; default 64, `0` disables
//! self-sampling — client-requested traces are always honored),
//! `--addr-file <path>` / `--metrics-addr-file <path>` (write the
//! bound addresses for scripts), `--metrics` (mount the Prometheus
//! endpoint, plus `/snapshot`, `/exemplars`, `/trace/{id}`,
//! `/profile`, `/query` + `/series` over the embedded metrics
//! history, `/healthz`, and `/readyz`), `--queue-capacity <n>`
//! (per-shard admission queue depth), `--slo demo|standard` (enable
//! the SLO engine and the `/slo` route; `demo` compresses the burn
//! windows for scripted tests), `--events` / `--events-file <path>`
//! (canonical wide events at `/events`, optionally mirrored to a
//! JSON-lines file), `--chaos <plan>` (arm a fault plan, e.g.
//! `kill:shard=0@batch=3` — see `vlsa-chaos` for the DSL; the CI
//! chaos-smoke job uses this to kill a live shard and watch the
//! supervisor restart it through `/healthz`).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use vlsa_bench::report::{parse_arg, split_value_flag, ArgError};
use vlsa_bench::serverbench::SWEEP_CYCLE_NS;
use vlsa_chaos::{ChaosInjector, FaultPlan};
use vlsa_monitor::write_addr_file;
use vlsa_server::{EventLogConfig, ObsConfig, ServerConfig, ShardConfig, VlsaServer};
use vlsa_slo::Objectives;
use vlsa_telemetry::ScopedRecorder;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let split = |args, flag| split_value_flag(args, flag).unwrap_or_else(|e: ArgError| e.exit());
    let (args, addr) = split(args, "addr");
    let (args, shards) = split(args, "shards");
    let (args, nbits) = split(args, "n");
    let (args, backend) = split(args, "backend");
    let (args, cycle_ns) = split(args, "cycle-ns");
    let (args, serve_secs) = split(args, "serve-secs");
    let (args, trace_every) = split(args, "trace-every");
    let (args, addr_file) = split(args, "addr-file");
    let (args, metrics_addr_file) = split(args, "metrics-addr-file");
    let (args, queue_capacity) = split(args, "queue-capacity");
    let (args, slo) = split(args, "slo");
    let (args, events_file) = split(args, "events-file");
    let (args, chaos) = split(args, "chaos");
    let metrics_flag = args.iter().any(|a| a == "--metrics");
    let events_flag = args.iter().any(|a| a == "--events");
    if let Some(unexpected) = args[1..]
        .iter()
        .find(|a| *a != "--metrics" && *a != "--events")
    {
        ArgError::Unexpected {
            arg: unexpected.clone(),
        }
        .exit();
    }
    let parsed = |flag: &str, value: Option<String>, default| {
        value.map_or(default, |v| {
            parse_arg(flag, &v).unwrap_or_else(|e| e.exit())
        })
    };
    let shards = parsed("--shards", shards, 4u64) as usize;
    let nbits = parsed("--n", nbits, 64u64) as usize;
    let backend = backend.map_or(ShardConfig::default().backend, |v| {
        parse_arg("--backend", &v).unwrap_or_else(|e| e.exit())
    });
    let cycle_ns = parsed("--cycle-ns", cycle_ns, SWEEP_CYCLE_NS);
    let serve_secs = parsed("--serve-secs", serve_secs, 30u64);
    let sample_every = parsed(
        "--trace-every",
        trace_every,
        ObsConfig::default().sample_every,
    );
    let queue_capacity = parsed(
        "--queue-capacity",
        queue_capacity,
        ShardConfig::default().queue_capacity as u64,
    ) as usize;
    let objectives = slo.map(|v| match v.as_str() {
        "demo" => Objectives::demo(),
        "standard" => Objectives::standard(),
        other => {
            eprintln!("error: --slo must be `demo` or `standard`, got `{other}`");
            std::process::exit(2);
        }
    });
    let events_file = events_file.map(PathBuf::from);
    let events = (events_flag || events_file.is_some()).then(EventLogConfig::default);
    let chaos_plan = chaos.map(|spec| {
        FaultPlan::parse(&spec).unwrap_or_else(|e| {
            eprintln!("error: --chaos plan `{spec}` is invalid: {e}");
            std::process::exit(2);
        })
    });

    // The scrape endpoint reads the global recorder, so install it for
    // the server's lifetime: every counter in `vlsa.server.*` is live.
    let _telemetry = ScopedRecorder::install();
    let mut server = VlsaServer::start(ServerConfig {
        addr: addr.unwrap_or_else(|| "127.0.0.1:0".to_string()),
        shards,
        shard: ShardConfig {
            nbits,
            cycle_ns,
            queue_capacity,
            backend,
            ..ShardConfig::default()
        },
        metrics: metrics_flag,
        trace: ObsConfig {
            sample_every,
            ..ObsConfig::default()
        },
        slo: objectives,
        events,
        events_file,
        chaos: chaos_plan
            .as_ref()
            .map(|plan| Arc::new(ChaosInjector::new(plan.clone()))),
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    println!(
        "serving vlsa://{} with {shards} shard(s), {nbits}-bit, {cycle_ns} ns/cycle, {} backend",
        server.addr(),
        backend.as_str()
    );
    if let Some(plan) = &chaos_plan {
        println!("chaos armed: {plan}");
    }
    if let Some(path) = addr_file.map(PathBuf::from) {
        write_addr_file(server.addr(), &path).expect("write address file");
    }
    if let Some(metrics) = server.metrics_addr() {
        println!("metrics at http://{metrics}/metrics");
        if let Some(path) = metrics_addr_file.map(PathBuf::from) {
            write_addr_file(metrics, &path).expect("write metrics address file");
        }
    }
    std::thread::sleep(Duration::from_secs(serve_secs));
    server.shutdown();
    let totals = server.pool().totals();
    println!(
        "served {} ops in {} requests ({} shed, {} stalls); shutting down",
        totals.ops, totals.requests, totals.shed, totals.stalls
    );
}
