//! `e2e`: the outside-in served benchmark.
//!
//! For each workload it spawns the `serve` binary that sits next to
//! this executable, drives it over loopback TCP from two client threads
//! with oracle-checked replies, reads the server's counters from
//! `/proc`, then replays the same requests in-process through each
//! layer's public functions to split the server's per-op host cost by
//! layer. See README.md for the metrics and how to read them.
//!
//! Usage (from the repository root; `run.sh` builds this binary and
//! `serve`):
//!
//! ```text
//! e2e [--workload <name>] [--seed <n>] [--seconds <s>] [--trace 0|1]
//!     [--repeat <n>] [--json <path>] [--spans <path>]
//! ```
//!
//! Prints one `workload metric value unit` line per metric and, last, a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Exits 1
//! on any wrong reply, accounting gap or replay mismatch, 2 on bad
//! arguments.

mod load;
mod replay;
mod serve;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use load::{probe, run_pass, Counts, Pass, PassResult, SLICES};
use replay::Spans;
use serve::{peak_rss_kib, Server};
use stats::{block_percentile, median, nearest_rank, quartiles, sorted};
use workload::{build_pool, Workload, WORKLOADS};

/// Warm-up before the untraced window.
const WARMUP: Duration = Duration::from_secs(3);
/// The traced pass: a fresh server, a short warm-up, a short window.
const TRACED_WARMUP: Duration = Duration::from_secs(1);
const TRACED_WINDOW: Duration = Duration::from_secs(4);
/// Servers spawned per run to time set-up; `setup_s` is their median.
const SETUP_SPAWNS: usize = 21;
/// Requests per block for the end-to-end latency percentiles: the
/// fewest that leave ten samples beyond a nearest-rank p99. Smaller
/// blocks make more of them, so the median block shrugs off more host
/// stalls.
const LATENCY_BLOCK: usize = 1000;
/// Above this share of the CPU the client may be the bottleneck.
const CLIENT_BOUND_SHARE: f64 = 0.3;

/// The end-to-end metrics, which the JSON result carries by default
/// (`--trace 0`). Every other metric is per-layer and carried instead
/// with `--trace 1`, except those in [`PRINTED_ONLY`].
const END_TO_END: [&str; 7] = [
    "setup_s",
    "throughput_ops_s",
    "latency_p50_us",
    "latency_p99_us",
    "server_cpu_ns_per_op",
    "server_peak_rss_mib",
    "answered_frac",
];

/// Printed but left out of the JSON result: the server echoes phase
/// times in whole microseconds, so these medians repeat exactly from
/// run to run (linger reads 0 on every bulk run) and cannot show a
/// change smaller than a microsecond.
const PRINTED_ONLY: [&str; 3] = [
    "shard.queue_us_p50",
    "shard.linger_us_p50",
    "shard.service_us_p50",
];

#[derive(Debug)]
struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    json: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: 15,
        trace: false,
        repeat: 1,
        json: None,
        spans: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = workload::by_name(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = number(value)?,
            "--seconds" => args.seconds = number(value)?.max(1),
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--repeat" => args.repeat = number(value)?.max(1) as usize,
            "--json" => args.json = Some(value.into()),
            "--spans" => args.spans = Some(value.into()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Every value of every (workload index, metric) pair, one per repeat,
/// with the metric's unit.
type Table = BTreeMap<(usize, &'static str), (&'static str, Vec<f64>)>;

/// One measured value.
#[derive(Clone, Debug)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample counts and flags printed beside the value.
    note: String,
}

/// Everything one workload run produced.
#[derive(Debug)]
struct Run {
    metrics: Vec<Metric>,
    counts: Counts,
    /// Why the run is not correct, if it is not.
    failure: Option<String>,
    spans: Option<Spans>,
}

/// Where the executables and the run's scratch files live.
struct Paths {
    serve: PathBuf,
    scratch: PathBuf,
}

fn paths() -> Result<Paths, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    let serve = dir.join("serve");
    if !serve.is_file() {
        return Err(format!("no `serve` binary next to {}", exe.display()));
    }
    let scratch = dir.join("e2e-scratch");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    Ok(Paths { serve, scratch })
}

/// Spawns a server and times it to its first correct reply.
fn timed_setup(
    paths: &Paths,
    serve_secs: u64,
    probe_request: &workload::Request,
    counts: &mut Counts,
) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let server = Server::spawn(&paths.serve, &paths.scratch, serve_secs)
        .map_err(|e| format!("spawning serve: {e}"))?;
    counts.offered += 1;
    match probe(server.addr, probe_request) {
        Ok(true) => counts.correct += 1,
        Ok(false) => counts.wrong += 1,
        Err(_) => counts.errors += 1,
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

fn run_workload(w: &Workload, args: &Args, paths: &Paths) -> Result<Run, String> {
    let pools: Vec<_> = (0..workload::CONNECTIONS)
        .map(|conn| build_pool(w, args.seed, conn))
        .collect();
    let window = Duration::from_secs(args.seconds);
    let serve_secs = (WARMUP + window).as_secs() + 60;
    let mut counts = Counts::default();
    let mut setups = Vec::with_capacity(SETUP_SPAWNS);
    let mut server = None;
    for _ in 0..SETUP_SPAWNS {
        // One server at a time: the previous one is gone before the
        // next is timed.
        drop(server.take());
        let (s, secs) = timed_setup(paths, serve_secs, &pools[0][0], &mut counts)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up spawn");
    let pass = Pass {
        warmup: WARMUP,
        window,
        traced: false,
    };
    let untraced = run_pass(server.addr, server.pid(), w, &pools, args.seed, pass)
        .map_err(|e| format!("reading /proc: {e}"))?;
    let rss_kib = peak_rss_kib(server.pid()).map_err(|e| format!("reading /proc: {e}"))?;
    drop(server);
    counts.add(&untraced.counts);
    let mut failure = untraced.first_error.clone();

    let mut metrics = end_to_end(&untraced, median(&setups), rss_kib);
    let mut spans = None;
    if args.trace {
        let server = Server::spawn(&paths.serve, &paths.scratch, serve_secs)
            .map_err(|e| format!("spawning serve: {e}"))?;
        let pass = Pass {
            warmup: TRACED_WARMUP,
            window: TRACED_WINDOW,
            traced: true,
        };
        let traced = run_pass(server.addr, server.pid(), w, &pools, args.seed, pass)
            .map_err(|e| format!("reading /proc: {e}"))?;
        drop(server);
        counts.add(&traced.counts);
        failure = failure.or(traced.first_error.clone());
        match replay::run(&pools) {
            Ok((layers, recorded)) => {
                metrics.extend(per_layer(&untraced, &traced, &layers));
                spans = Some(recorded);
            }
            Err(e) => failure = failure.or(Some(format!("replay: {e}"))),
        }
    }
    if failure.is_none() && counts.failed() > 0 {
        failure = Some(format!(
            "{} of {} requests failed",
            counts.failed(),
            counts.offered
        ));
    }
    if !counts.closes() {
        failure = Some(format!("accounting gap: {counts:?}"));
    }
    Ok(Run {
        metrics,
        counts,
        failure,
        spans,
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// A nearest-rank percentile metric with its sample count, or nothing
/// when too few samples lie beyond it.
fn percentile(name: &'static str, samples: &[f64], per_mille: usize) -> Option<Metric> {
    let (value, beyond) = nearest_rank(&sorted(samples.to_vec()), per_mille)?;
    Some(Metric {
        note: format!("n={} beyond={beyond}", samples.len()),
        ..metric(name, value, "us")
    })
}

fn end_to_end(pass: &PassResult, setup_s: f64, rss_kib: u64) -> Vec<Metric> {
    let mut out = vec![
        Metric {
            note: format!("spawns={SETUP_SPAWNS}"),
            ..metric("setup_s", setup_s, "s")
        },
        Metric {
            note: format!("slices={SLICES}"),
            ..metric("throughput_ops_s", pass.ops_per_sec(), "ops/s")
        },
    ];
    for (name, per_mille) in [("latency_p50_us", 500), ("latency_p99_us", 990)] {
        out.extend(
            block_percentile(&pass.latency_us, LATENCY_BLOCK, per_mille).map(|(v, blocks)| {
                Metric {
                    note: format!("n={} blocks={blocks}", pass.latency_us.len()),
                    ..metric(name, v, "us")
                }
            }),
        );
    }
    out.push(Metric {
        note: format!(
            "window_cpu_ms={:.1} stat_ms={}",
            pass.server_cpu_ns as f64 / 1e6,
            pass.server_ticks * 10
        ),
        ..metric("server_cpu_ns_per_op", pass.server_cpu_ns_per_op(), "ns")
    });
    out.push(metric(
        "server_peak_rss_mib",
        rss_kib as f64 / 1024.0,
        "MiB",
    ));
    out.push(Metric {
        note: format!(
            "offered={} shed={} deadline_exceeded={} errors={} wrong={}",
            pass.counts.offered,
            pass.counts.shed,
            pass.counts.deadline_exceeded,
            pass.counts.errors,
            pass.counts.wrong
        ),
        ..metric(
            "answered_frac",
            pass.counts.correct as f64 / pass.counts.offered as f64,
            "frac",
        )
    });
    out
}

fn per_layer(untraced: &PassResult, traced: &PassResult, layers: &replay::Layers) -> Vec<Metric> {
    let server_cpu_ns_per_op = untraced.server_cpu_ns_per_op();
    let phase = |f: fn(&vlsa_server::ServerTiming) -> u32| -> Vec<f64> {
        traced.traced.iter().map(|(_, t)| f64::from(f(t))).collect()
    };
    let network: Vec<f64> = traced
        .traced
        .iter()
        .map(|(rtt_us, t)| rtt_us - t.total_us() as f64)
        .collect();
    let client_share =
        untraced.client_cpu_ns as f64 / (untraced.client_cpu_ns + untraced.server_cpu_ns) as f64;
    let attributed =
        layers.decode_ns_per_op + layers.run_batch_on_ns_per_op + layers.encode_ns_per_op;
    let plain = [
        (
            "server.ctx_switches_per_req",
            untraced.server_switches as f64 / untraced.requests() as f64,
            "1/req",
        ),
        ("server.threads", untraced.server_threads as f64, "count"),
        (
            "server.unattributed_ns_per_op",
            server_cpu_ns_per_op - attributed,
            "ns",
        ),
        ("protocol.decode_ns_per_op", layers.decode_ns_per_op, "ns"),
        ("protocol.encode_ns_per_op", layers.encode_ns_per_op, "ns"),
        ("shard.pool_rtt_us_p50", layers.pool_rtt_us_p50, "us"),
        (
            "pipeline.run_batch_on_ns_per_op",
            layers.run_batch_on_ns_per_op,
            "ns",
        ),
        ("pipeline.replay_ns_per_op", layers.replay_ns_per_op, "ns"),
        ("batch.execute_ns_per_op", layers.execute_ns_per_op, "ns"),
        (
            "batch.transpose_ns_per_op",
            layers.transpose_ns_per_op,
            "ns",
        ),
        ("batch.compute_ns_per_op", layers.compute_ns_per_op, "ns"),
        (
            "batch.untranspose_ns_per_op",
            layers.untranspose_ns_per_op,
            "ns",
        ),
        ("batch.lane_occupancy", layers.lane_occupancy, "frac"),
        (
            "client.trace_overhead_frac",
            1.0 - traced.ops_per_sec() / untraced.ops_per_sec(),
            "frac",
        ),
    ];
    let mut out: Vec<Metric> = plain.into_iter().map(|(n, v, u)| metric(n, v, u)).collect();
    out.push(Metric {
        note: format!("ops={}", layers.ops),
        ..metric("pipeline.stall_rate", layers.stall_rate, "frac")
    });
    out.push(Metric {
        note: if client_share > CLIENT_BOUND_SHARE {
            "client-bound".to_string()
        } else {
            String::new()
        },
        ..metric("client.cpu_share", client_share, "frac")
    });
    out.extend(percentile("server.network_us_p50", &network, 500));
    out.extend(percentile(
        "shard.queue_us_p50",
        &phase(|t| t.queue_us),
        500,
    ));
    out.extend(percentile(
        "shard.linger_us_p50",
        &phase(|t| t.linger_us),
        500,
    ));
    out.extend(percentile(
        "shard.service_us_p50",
        &phase(|t| t.service_us),
        500,
    ));
    out.extend(percentile("client.late_p99_us", &untraced.late_us, 990));
    out
}

/// A JSON number; the benchmark never records a non-finite value, but
/// a broken run must still print valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_metrics<'a>(metrics: impl Iterator<Item = (String, f64, &'a str)>) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let paths = match paths() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Every number depends on how many cores client and server share.
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# e2e seed={} seconds={} cores={cores}",
        args.seed, args.seconds
    );
    let mut table = Table::new();
    let mut counts = Counts::default();
    let mut failures = Vec::new();
    let mut spans = Vec::new();
    let mut report = String::new();
    for repeat in 0..args.repeat {
        for (wi, w) in args.workloads.iter().enumerate() {
            let run = match run_workload(w, &args, &paths) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("error: {}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            };
            for m in &run.metrics {
                println!("{} {} {} {} {}", w.name, m.name, m.value, m.unit, m.note);
                table
                    .entry((wi, m.name))
                    .or_insert((m.unit, Vec::new()))
                    .1
                    .push(m.value);
            }
            if let Some(f) = &run.failure {
                eprintln!("FAILED {}: {f}", w.name);
                failures.push(format!("{}: {f}", w.name));
            }
            counts.add(&run.counts);
            let _ =
                writeln!(
                report,
                "{}{{\"workload\": \"{}\", \"repeat\": {repeat}, \"seed\": {}, \"seconds\": {}, \
                 \"correct\": {}, \"metrics\": {}}}",
                if report.is_empty() { "" } else { ",\n" },
                w.name,
                args.seed,
                args.seconds,
                run.failure.is_none(),
                json_metrics(run.metrics.iter().map(|m| (m.name.to_string(), m.value, m.unit)))
            );
            if let Some(s) = run.spans {
                spans.push((w.name, s));
            }
        }
    }
    if args.repeat > 1 {
        println!("# workload metric median iqr/median (max-min)/median runs");
        for ((wi, name), (unit, values)) in &table {
            let med = median(values);
            let (q1, q3) = quartiles(values).unwrap_or((med, med));
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let share = |d: f64| {
                if med == 0.0 {
                    format!("{d}(abs)")
                } else {
                    format!("{:.4}", d / med.abs())
                }
            };
            println!(
                "{} {name} {med} {unit} iqr={} spread={} runs={}",
                args.workloads[*wi].name,
                share(q3 - q1),
                share(hi - lo),
                values.len()
            );
        }
    }
    if let Some(path) = &args.json {
        let doc = format!("{{\"runs\": [\n{report}\n]}}\n");
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.spans {
        if let Err(e) = replay::write_spans(path, &spans) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        final_line(&args, &table, &counts, failures.is_empty())
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The last stdout line. One workload: its metrics under their own
/// names (medians when repeated); several: `workload/metric` keys.
/// `--trace 0`, the default, reports the end-to-end metrics, `--trace 1`
/// the per-layer ones.
fn final_line(args: &Args, table: &Table, counts: &Counts, correct: bool) -> String {
    let single = args.workloads.len() == 1;
    let metrics = table
        .iter()
        .filter(|((_, name), _)| {
            END_TO_END.contains(name) != args.trace && !PRINTED_ONLY.contains(name)
        })
        .map(|((wi, name), (unit, values))| {
            let key = if single {
                name.to_string()
            } else {
                format!("{}/{name}", args.workloads[*wi].name)
            };
            (key, median(values), *unit)
        });
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        counts.offered,
        counts.failed(),
        json_metrics(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn command_line_arguments_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "paced-mixed",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]))
        .expect("parses");
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(a.workloads[0].name, "paced-mixed");
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10, false));
        let defaults = parse_args(&[]).expect("defaults");
        assert_eq!(defaults.workloads.len(), 4);
        assert!(!defaults.trace, "the gated end-to-end set is the default");
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn the_final_line_carries_the_requested_metric_set() {
        let mut table = Table::new();
        table.insert((0, "setup_s"), ("s", vec![0.5, 0.7, 0.6]));
        table.insert((0, "batch.lane_occupancy"), ("frac", vec![1.0]));
        table.insert((0, "shard.linger_us_p50"), ("us", vec![0.0]));
        let mut args =
            parse_args(&strings(&["--workload", "bulk-uniform", "--trace", "0"])).expect("parses");
        let counts = Counts {
            offered: 3,
            correct: 3,
            ..Counts::default()
        };
        let line = final_line(&args, &table, &counts, true);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.6, \"unit\": \"s\"}}}"
        );
        args.trace = true;
        let line = final_line(&args, &table, &counts, true);
        assert!(line.contains("batch.lane_occupancy"));
        assert!(
            !line.contains("setup_s") && !line.contains("linger"),
            "{line}"
        );
    }
}
