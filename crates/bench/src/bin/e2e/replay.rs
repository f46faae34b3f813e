//! The in-process replay: the same request pool pushed through each
//! layer's public functions on one thread, with spans recorded around
//! every call, so per-op host cost can be split by layer.
//!
//! Span tree per request:
//!
//! ```text
//! replay.request
//! ├── protocol.decode        read_frame over the encoded AddBatch
//! ├── pipeline.run_batch_on  ResilientPipeline::run_batch_on(&SlicedExecutor)
//! │   └── batch.execute      SlicedExecutor::execute, timed from inside
//! └── protocol.encode        Frame::SumBatch(..).encode()
//! ```

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::mpsc::channel;
use std::sync::Mutex;
use std::time::Instant;

use vlsa_batch::{
    run_block, transpose_block, untranspose_block, BatchExecutor, OpVerdict, SlicedExecutor, LANES,
};
use vlsa_core::SpeculativeAdder;
use vlsa_pipeline::{ResilienceConfig, ResilientPipeline};
use vlsa_server::protocol::{FLAG_EXACT, FLAG_STALLED};
use vlsa_server::{read_frame, Backend, Frame, OpResult, ShardConfig, ShardPool, SumBatch};

use crate::stats::{median, nearest_rank, sorted};
use crate::workload::{Request, NBITS, SHARDS, WINDOW};

/// Requests the shard-pool replay times. Each small request waits out
/// the batcher's linger, so this is kept short.
const POOL_REPLAY_REQUESTS: usize = 256;
/// Replay passes over the pool; each layer reports its median pass, so
/// up to three passes disturbed by another process or a host stall do
/// not set the number. A pass over the pool takes tens of ms per layer,
/// about one host stall's length.
const REPLAY_PASSES: usize = 7;

/// One recorded span. Times are ns since the replay began; `parent`
/// indexes the span list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the benchmark ends.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    fn record(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Every span's self time: its duration minus the part of it that
    /// the union of its children's intervals covers.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for c in &self.spans {
            if let Some(p) = c.parent {
                let parent = &self.spans[p];
                let clipped = (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns));
                if clipped.0 < clipped.1 {
                    children[p].push(clipped);
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, span.start_ns);
                for (s, e) in kids {
                    let s = s.max(reach);
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Total duration, and total self time, of every span called `name`.
    fn totals(&self, name: &str, self_times: &[u64]) -> (u64, u64) {
        self.spans
            .iter()
            .zip(self_times)
            .filter(|(s, _)| s.name == name)
            .fold((0, 0), |(d, st), (s, own)| (d + s.duration_ns(), st + own))
    }

    /// Appends the spans as JSON lines tagged with `workload`.
    pub fn write_jsonl(&self, out: &mut impl Write, workload: &str) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

/// Writes every workload's spans to `path`.
pub fn write_spans(path: &Path, runs: &[(&str, Spans)]) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    for (workload, spans) in runs {
        spans.write_jsonl(&mut out, workload)?;
    }
    out.flush()
}

/// The sliced executor with the start and end of its last `execute`
/// call captured, so the replay can record `batch.execute` as a child
/// of `pipeline.run_batch_on` without touching the pipeline.
#[derive(Debug)]
struct TimedExecutor {
    inner: SlicedExecutor,
    last: Mutex<Option<(Instant, Instant)>>,
}

impl BatchExecutor for TimedExecutor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn nbits(&self) -> usize {
        self.inner.nbits()
    }

    fn window(&self) -> usize {
        self.inner.window()
    }

    fn execute(&self, ops: &[(u64, u64)]) -> Vec<OpVerdict> {
        let start = Instant::now();
        let verdicts = self.inner.execute(ops);
        *self.last.lock().expect("executor timing lock") = Some((start, Instant::now()));
        verdicts
    }
}

/// Per-layer costs from one replay.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub ops: u64,
    pub decode_ns_per_op: f64,
    pub run_batch_on_ns_per_op: f64,
    pub execute_ns_per_op: f64,
    /// `run_batch_on` self time: the per-op resilience replay.
    pub replay_ns_per_op: f64,
    pub encode_ns_per_op: f64,
    pub transpose_ns_per_op: f64,
    pub compute_ns_per_op: f64,
    pub untranspose_ns_per_op: f64,
    pub lane_occupancy: f64,
    pub stall_rate: f64,
    pub pool_rtt_us_p50: f64,
}

/// The replay order: both connections' pools, interleaved the way the
/// two connections offer them.
fn interleaved(pools: &[Vec<Request>]) -> impl Iterator<Item = &Request> {
    let longest = pools.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest).flat_map(move |i| pools.iter().filter_map(move |p| p.get(i)))
}

/// Replays the pool [`REPLAY_PASSES`] times, each pass once through
/// decode, `run_batch_on` and encode (recording spans) and once block
/// by block through the sliced engine's phases, taking each layer's
/// median pass; then times a prefix of the pool through an in-process
/// shard pool. Returns the layers and the last pass's spans.
///
/// # Errors
///
/// A replayed result that differs from the oracle, or a shard pool that
/// fails to answer.
pub fn run(pools: &[Vec<Request>]) -> Result<(Layers, Spans), String> {
    let adder = SpeculativeAdder::new(NBITS, WINDOW).map_err(|e| e.to_string())?;
    let mut pipeline = ResilientPipeline::new(adder, ResilienceConfig::default());
    let executor = TimedExecutor {
        inner: SlicedExecutor::new(NBITS, WINDOW),
        last: Mutex::new(None),
    };
    // Per pass: decode, run_batch_on, execute, run_batch_on self time,
    // encode, transpose, compute, untranspose (ns totals).
    let mut passes: Vec<[u64; 8]> = Vec::with_capacity(REPLAY_PASSES);
    let mut last = None;
    for _ in 0..REPLAY_PASSES {
        let (spans, ops, stalls) = span_pass(pools, &mut pipeline, &executor)?;
        let self_times = spans.self_times();
        let total = |name| spans.totals(name, &self_times);
        let (run_ns, run_self_ns) = total("pipeline.run_batch_on");
        let (phase_ns, blocks) = block_pass(pools);
        passes.push([
            total("protocol.decode").0,
            run_ns,
            total("batch.execute").0,
            run_self_ns,
            total("protocol.encode").0,
            phase_ns[0],
            phase_ns[1],
            phase_ns[2],
        ]);
        last = Some((spans, ops, stalls, blocks));
    }
    let (spans, ops, stalls, blocks) = last.expect("at least one replay pass");
    let per_op = |k: usize| {
        let totals: Vec<f64> = passes.iter().map(|p| p[k] as f64).collect();
        median(&totals) / ops as f64
    };
    let layers = Layers {
        ops,
        decode_ns_per_op: per_op(0),
        run_batch_on_ns_per_op: per_op(1),
        execute_ns_per_op: per_op(2),
        replay_ns_per_op: per_op(3),
        encode_ns_per_op: per_op(4),
        transpose_ns_per_op: per_op(5),
        compute_ns_per_op: per_op(6),
        untranspose_ns_per_op: per_op(7),
        lane_occupancy: ops as f64 / (LANES as u64 * blocks) as f64,
        stall_rate: stalls as f64 / ops as f64,
        pool_rtt_us_p50: pool_rtt_us_p50(pools)?,
    };
    Ok((layers, spans))
}

/// One span-recorded pass over the pool. Returns the spans, the ops
/// replayed and how many of them stalled.
fn span_pass(
    pools: &[Vec<Request>],
    pipeline: &mut ResilientPipeline,
    executor: &TimedExecutor,
) -> Result<(Spans, u64, u64), String> {
    let mut spans = Spans::new();
    let (mut ops, mut stalls) = (0u64, 0u64);
    for request in interleaved(pools) {
        let begin = Instant::now();
        let decoded = read_frame(&mut request.frame.as_slice());
        let decoded_at = Instant::now();
        let Ok(Frame::AddBatch(add)) = decoded else {
            return Err(format!("request {:#x} does not decode", request.id));
        };
        let batch = pipeline.run_batch_on(executor, &add.ops);
        let computed = Instant::now();
        let results: Vec<OpResult> = batch
            .outcomes
            .iter()
            .map(|o| OpResult {
                sum: o.sum,
                flags: u8::from(o.stalled) * FLAG_STALLED + u8::from(o.exact_path) * FLAG_EXACT,
            })
            .collect();
        if results != request.expected {
            return Err(format!(
                "replayed request {:#x} differs from the oracle",
                request.id
            ));
        }
        stalls += batch.stats.er_recoveries;
        let encode_at = Instant::now();
        let reply = Frame::SumBatch(SumBatch {
            request_id: add.request_id,
            shard: (add.request_id % SHARDS) as u16,
            results,
            timing: None,
            unknown: Vec::new(),
        })
        .encode();
        let end = Instant::now();
        std::hint::black_box(reply);
        let execute = executor
            .last
            .lock()
            .expect("executor timing lock")
            .take()
            .ok_or("run_batch_on did not call the executor")?;
        let id = request.id;
        let root = spans.record("replay.request", (begin, end), None, id);
        spans.record("protocol.decode", (begin, decoded_at), Some(root), id);
        let run = spans.record(
            "pipeline.run_batch_on",
            (decoded_at, computed),
            Some(root),
            id,
        );
        spans.record("batch.execute", execute, Some(run), id);
        spans.record("protocol.encode", (encode_at, end), Some(root), id);
        ops += add.ops.len() as u64;
    }
    Ok((spans, ops, stalls))
}

/// One pass through the sliced engine's phases, block by block, as the
/// server runs them: each request is its own job, so blocks never span
/// requests. Returns ns per phase and the number of blocks.
fn block_pass(pools: &[Vec<Request>]) -> ([u64; 3], u64) {
    let (mut phase_ns, mut blocks) = ([0u64; 3], 0u64);
    for request in interleaved(pools) {
        for chunk in request.ops.chunks(LANES) {
            let t0 = Instant::now();
            let (a, b) = transpose_block(chunk);
            let t1 = Instant::now();
            let block = run_block(&a, &b, NBITS, WINDOW);
            let t2 = Instant::now();
            let sums = (
                untranspose_block(&block.spec_sum, chunk.len()),
                untranspose_block(&block.exact_sum, chunk.len()),
            );
            let t3 = Instant::now();
            std::hint::black_box((sums, block.er));
            for (acc, d) in phase_ns.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2]) {
                *acc += d.as_nanos() as u64;
            }
            blocks += 1;
        }
    }
    (phase_ns, blocks)
}

/// `ShardPool::submit` → reply `recv`, one request at a time, on a
/// 2-shard sliced pool with no sockets.
fn pool_rtt_us_p50(pools: &[Vec<Request>]) -> Result<f64, String> {
    let config = ShardConfig {
        nbits: NBITS,
        window: WINDOW,
        backend: Backend::Sliced,
        cycle_ns: 0,
        ..ShardConfig::default()
    };
    let pool = ShardPool::start(&config, SHARDS as usize).map_err(|e| e.to_string())?;
    let mut rtt_us = Vec::with_capacity(POOL_REPLAY_REQUESTS);
    for request in interleaved(pools).take(POOL_REPLAY_REQUESTS) {
        let add = vlsa_server::AddBatch::new(request.id, NBITS as u8, request.ops.clone());
        let (tx, rx) = channel();
        let start = Instant::now();
        pool.submit(add, tx)
            .map_err(|f| format!("pool refused: {f:?}"))?;
        let reply = rx.recv().map_err(|_| "pool dropped a reply".to_string())?;
        rtt_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        match reply.frame {
            Frame::SumBatch(sums) if sums.results == request.expected => {}
            other => {
                return Err(format!(
                    "pool answered {:#x} wrongly: {other:?}",
                    request.id
                ))
            }
        }
    }
    pool.shutdown();
    nearest_rank(&sorted(rtt_us), 500)
        .map(|(v, _)| v)
        .ok_or_else(|| "too few pool replies for a p50".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::new();
        s.spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),  // overlaps a: union is 10..50
            span("c", 90, 120, Some(0)), // clipped to the parent: 90..100
            span("grandchild", 12, 20, Some(1)),
        ];
        let own = s.self_times();
        assert_eq!(own, vec![100 - 40 - 10, 30 - 8, 20, 30, 8]);
        assert_eq!(s.totals("root", &own), (100, 50));
        assert_eq!(s.totals("a", &own), (30, 22));
    }

    #[test]
    fn spans_serialise_one_json_object_per_line() {
        let mut s = Spans::new();
        s.spans = vec![span("root", 0, 5, None), span("child", 1, 2, Some(0))];
        let mut out = Vec::new();
        s.write_jsonl(&mut out, "w").expect("write");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"name\":\"child\""));
    }
}
