//! The four served workloads, their seeded request pools, and the
//! scalar oracle every reply is checked against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vlsa_batch::{BatchExecutor, ScalarExecutor};
use vlsa_pipeline::{adversarial_operands, biased_operands, random_operands};
use vlsa_server::protocol::{FLAG_STALLED, MAX_BATCH_OPS};
use vlsa_server::{AddBatch, Frame, OpResult, SumBatch, TraceContext};

/// Operand width of every workload.
pub const NBITS: usize = 64;
/// The server's default speculation window.
pub const WINDOW: usize = 24;
/// Shards the served process runs; replies must come from
/// `request_id % SHARDS`.
pub const SHARDS: u64 = 2;
/// Client connections, one per client thread.
pub const CONNECTIONS: usize = 2;
/// Operands pre-generated per connection (4 MiB of operand bytes). The
/// pool is cycled, which is safe because the server keeps no state
/// keyed by operands or request ids.
pub const POOL_OPS_PER_CONN: usize = 1 << 18;
/// In the traced pass, every this-many-th request carries a sampled
/// trace context.
pub const TRACE_EVERY: usize = 8;

/// Which operands a workload sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Uniform 64-bit operands: ER fires on about 2e-6 of ops.
    Uniform,
    /// Per request, a third each of uniform, biased (p = 0.8) and
    /// adversarial operands: ER fires on about 35% of ops.
    Mixed,
}

/// How requests are offered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// Each connection sends its next request when the previous reply
    /// arrives.
    Closed,
    /// Exponential inter-arrival times, seeded per connection, realising
    /// this total rate over all connections, independent of replies.
    Open { ops_per_sec: f64 },
}

/// One served workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub ops_per_request: usize,
    pub mix: Mix,
    pub arrival: Arrival,
}

/// The workloads, in run order. Why each exists is in the README:
/// `small-closed` stresses per-request work (socket, framing, queue,
/// batcher linger, reply hop), `bulk-uniform` per-op work with no
/// stalls, `bulk-mixed` the same layers with a third of ops stalling,
/// and `paced-mixed` latency at a fixed rate under independent
/// arrivals.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "small-closed",
        ops_per_request: 16,
        mix: Mix::Uniform,
        arrival: Arrival::Closed,
    },
    Workload {
        name: "bulk-uniform",
        ops_per_request: MAX_BATCH_OPS as usize,
        mix: Mix::Uniform,
        arrival: Arrival::Closed,
    },
    Workload {
        name: "bulk-mixed",
        ops_per_request: MAX_BATCH_OPS as usize,
        mix: Mix::Mixed,
        arrival: Arrival::Closed,
    },
    Workload {
        name: "paced-mixed",
        ops_per_request: 256,
        mix: Mix::Mixed,
        arrival: Arrival::Open {
            ops_per_sec: 250_000.0,
        },
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One pre-generated request: operands, its encoded frames, and the
/// reply the oracle expects.
#[derive(Debug)]
pub struct Request {
    /// The id of the entry's first send; later passes over the pool
    /// send it under fresh ids (see [`request_id`]).
    pub id: u64,
    pub ops: Vec<(u64, u64)>,
    /// The extension-free `AddBatch` frame, length prefix included.
    pub frame: Vec<u8>,
    /// The same request with a sampled trace context, for requests the
    /// traced pass samples.
    pub traced: Option<(u64, Vec<u8>)>,
    pub expected: Vec<OpResult>,
}

/// SplitMix64 finaliser: a bijective mix of a 64-bit counter.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Request id of the `index`th request connection `conn` sends: a hash
/// of a seeded counter, so the shard routing (`id % SHARDS`) is fixed by
/// the seed. The counter runs over sends, not pool entries: routing
/// that repeated with the pool would let two closed-loop connections
/// lock into a cycle whose share of same-shard collisions, and so
/// throughput, depends on the seed.
pub fn request_id(seed: u64, conn: usize, index: usize) -> u64 {
    mix64(seed ^ mix64(((conn as u64) << 32) | index as u64))
}

/// Where the request id sits in an encoded `AddBatch` frame: after the
/// 4-byte length prefix and the type byte, little-endian.
const FRAME_ID_BYTES: std::ops::Range<usize> = 5..13;

/// Copies the encoded `AddBatch` `frame` into `out` with its request id
/// replaced by `id`, so a pre-encoded pool entry can be sent under a
/// fresh id without encoding it again.
pub fn readdress(frame: &[u8], id: u64, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(frame);
    out[FRAME_ID_BYTES].copy_from_slice(&id.to_le_bytes());
}

/// The RNG stream of one connection's operands.
fn operand_rng(seed: u64, conn: usize) -> StdRng {
    StdRng::seed_from_u64(mix64(seed) ^ conn as u64)
}

/// The RNG stream of one connection's open-loop arrival times.
pub fn arrival_rng(seed: u64, conn: usize) -> StdRng {
    StdRng::seed_from_u64(mix64(seed ^ 0x0A22_17A1) ^ conn as u64)
}

fn operands(mix: Mix, count: usize, rng: &mut StdRng) -> Vec<(u64, u64)> {
    match mix {
        Mix::Uniform => random_operands(NBITS, count, rng),
        Mix::Mixed => {
            let third = count / 3;
            let mut ops = random_operands(NBITS, third, rng);
            ops.extend(biased_operands(NBITS, third, 0.8, rng));
            ops.extend(adversarial_operands(NBITS, count - 2 * third));
            ops
        }
    }
}

/// What a correct server answers: the exact sum (recovery is always
/// exact), `FLAG_STALLED` exactly when ER fires, and `FLAG_EXACT` clear
/// because no faults are armed.
pub fn oracle(ops: &[(u64, u64)]) -> Vec<OpResult> {
    ScalarExecutor::new(NBITS, WINDOW)
        .execute(ops)
        .iter()
        .map(|v| OpResult {
            sum: v.exact,
            flags: if v.er { FLAG_STALLED } else { 0 },
        })
        .collect()
}

/// Builds connection `conn`'s request pool for `workload` from `seed`.
pub fn build_pool(workload: &Workload, seed: u64, conn: usize) -> Vec<Request> {
    build_requests(
        workload,
        seed,
        conn,
        POOL_OPS_PER_CONN / workload.ops_per_request,
    )
}

/// The first `count` requests of connection `conn`'s pool.
fn build_requests(workload: &Workload, seed: u64, conn: usize, count: usize) -> Vec<Request> {
    let mut rng = operand_rng(seed, conn);
    (0..count)
        .map(|index| {
            let id = request_id(seed, conn, index);
            let ops = operands(workload.mix, workload.ops_per_request, &mut rng);
            let request = AddBatch::new(id, NBITS as u8, ops);
            let traced = (index % TRACE_EVERY == 0).then(|| {
                let trace_id = id | 1;
                let traced = request.clone().with_trace(TraceContext::sampled(trace_id));
                (trace_id, Frame::AddBatch(traced).encode())
            });
            let frame = Frame::AddBatch(request.clone()).encode();
            let expected = oracle(&request.ops);
            Request {
                id,
                ops: request.ops,
                frame,
                traced,
                expected,
            }
        })
        .collect()
}

/// Why a reply is wrong.
#[derive(Debug, PartialEq, Eq)]
pub enum Mismatch {
    RequestId {
        got: u64,
    },
    Shard {
        got: u16,
        want: u16,
    },
    Count {
        got: usize,
        want: usize,
    },
    Op {
        index: usize,
        got: OpResult,
        want: OpResult,
    },
    Timing {
        got: Option<u64>,
        want: Option<u64>,
    },
    Extensions,
}

/// Checks a `SumBatch` against the oracle in full: the id `request` was
/// sent under, shard routing, every sum and flag, and exactly the
/// extensions the request asked for (`trace_id` when it carried a
/// sampled trace context).
pub fn check_reply(
    request: &Request,
    id: u64,
    reply: &SumBatch,
    trace_id: Option<u64>,
) -> Result<(), Mismatch> {
    if reply.request_id != id {
        return Err(Mismatch::RequestId {
            got: reply.request_id,
        });
    }
    let want_shard = (id % SHARDS) as u16;
    if reply.shard != want_shard {
        return Err(Mismatch::Shard {
            got: reply.shard,
            want: want_shard,
        });
    }
    if reply.results.len() != request.expected.len() {
        return Err(Mismatch::Count {
            got: reply.results.len(),
            want: request.expected.len(),
        });
    }
    if let Some(index) = (0..reply.results.len()).find(|&i| reply.results[i] != request.expected[i])
    {
        return Err(Mismatch::Op {
            index,
            got: reply.results[index],
            want: request.expected[index],
        });
    }
    let echoed = reply.timing.map(|t| t.trace_id);
    if echoed != trace_id {
        return Err(Mismatch::Timing {
            got: echoed,
            want: trace_id,
        });
    }
    if !reply.unknown.is_empty() {
        return Err(Mismatch::Extensions);
    }
    Ok(())
}

/// Draws one exponential inter-arrival gap, in seconds, for a mean of
/// `mean_s`.
pub fn exponential_gap(rng: &mut StdRng, mean_s: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() * mean_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsa_server::protocol::FLAG_EXACT;

    fn stalls(expected: &[OpResult]) -> u64 {
        expected.iter().filter(|r| r.stalled()).count() as u64
    }

    fn small_pool(name: &str, seed: u64) -> Vec<Request> {
        build_requests(by_name(name).expect("workload"), seed, 1, 16)
    }

    #[test]
    fn the_same_seed_gives_byte_identical_frames_and_routing() {
        for w in &WORKLOADS {
            let a = build_requests(w, 7, 0, 16);
            let b = build_requests(w, 7, 0, 16);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.frame, y.frame, "{}", w.name);
                assert_eq!(x.traced, y.traced, "{}", w.name);
                assert_eq!(x.id % SHARDS, y.id % SHARDS);
            }
            let c = build_requests(w, 8, 0, 1);
            assert_ne!(a[0].frame, c[0].frame, "{}: seed must matter", w.name);
        }
        // Both shards get traffic, and connections differ.
        let ids: Vec<u64> = (0..64).map(|i| request_id(7, 0, i)).collect();
        assert!(ids.iter().any(|id| id % SHARDS == 0));
        assert!(ids.iter().any(|id| id % SHARDS == 1));
        assert_ne!(request_id(7, 0, 0), request_id(7, 1, 0));
    }

    #[test]
    fn frames_decode_back_to_the_pool_request() {
        let pool = small_pool("paced-mixed", 3);
        let r = &pool[0];
        let Frame::AddBatch(decoded) = Frame::decode(r.frame[4], &r.frame[5..]).expect("frame")
        else {
            panic!("not an AddBatch");
        };
        assert_eq!((decoded.request_id, &decoded.ops), (r.id, &r.ops));
        assert!(decoded.trace.is_none());
        let (trace_id, traced) = r.traced.as_ref().expect("index 0 is traced");
        let Frame::AddBatch(decoded) = Frame::decode(traced[4], &traced[5..]).expect("frame")
        else {
            panic!("not an AddBatch");
        };
        assert_eq!(decoded.trace, Some(TraceContext::sampled(*trace_id)));
        assert!(pool[1].traced.is_none());
    }

    #[test]
    fn a_readdressed_frame_decodes_to_the_new_id_and_the_same_request() {
        let pool = small_pool("paced-mixed", 3);
        let (trace_id, traced) = pool[0].traced.as_ref().expect("index 0 is traced");
        let mut out = Vec::new();
        for frame in [&pool[0].frame, traced] {
            readdress(frame, 0xDEAD_BEEF_0000_0001, &mut out);
            let Frame::AddBatch(decoded) = Frame::decode(out[4], &out[5..]).expect("frame") else {
                panic!("not an AddBatch");
            };
            assert_eq!(decoded.request_id, 0xDEAD_BEEF_0000_0001);
            assert_eq!(decoded.ops, pool[0].ops);
            assert_eq!(out.len(), frame.len());
            if frame == traced {
                assert_eq!(decoded.trace, Some(TraceContext::sampled(*trace_id)));
            }
        }
        // The first send of an entry goes out under the pool's own id.
        readdress(&pool[0].frame, pool[0].id, &mut out);
        assert_eq!(out, pool[0].frame);
    }

    #[test]
    fn the_mixed_mix_stalls_about_a_third_and_uniform_almost_never() {
        let mixed = small_pool("paced-mixed", 11);
        let ops: usize = mixed.iter().map(|r| r.ops.len()).sum();
        let rate = mixed.iter().map(|r| stalls(&r.expected)).sum::<u64>() as f64 / ops as f64;
        assert!((0.33..0.38).contains(&rate), "mixed stall rate {rate}");
        let uniform = small_pool("small-closed", 11);
        assert!(uniform.iter().all(|r| stalls(&r.expected) == 0));
    }

    fn served(request: &Request) -> SumBatch {
        SumBatch {
            request_id: request.id,
            shard: (request.id % SHARDS) as u16,
            results: request.expected.clone(),
            timing: None,
            unknown: Vec::new(),
        }
    }

    #[test]
    fn the_oracle_check_rejects_a_flipped_stall_flag_and_a_wrong_sum() {
        let pool = small_pool("paced-mixed", 5);
        let request = &pool[1];
        assert_eq!(
            check_reply(request, request.id, &served(request), None),
            Ok(())
        );

        let mut flipped = served(request);
        flipped.results[3].flags ^= FLAG_STALLED;
        assert!(matches!(
            check_reply(request, request.id, &flipped, None),
            Err(Mismatch::Op { index: 3, .. })
        ));

        let mut wrong = served(request);
        wrong.results[200].sum ^= 1 << 40;
        assert!(matches!(
            check_reply(request, request.id, &wrong, None),
            Err(Mismatch::Op { index: 200, .. })
        ));

        let mut exact = served(request);
        exact.results[0].flags |= FLAG_EXACT;
        assert!(check_reply(request, request.id, &exact, None).is_err());

        let mut rerouted = served(request);
        rerouted.shard ^= 1;
        assert!(matches!(
            check_reply(request, request.id, &rerouted, None),
            Err(Mismatch::Shard { .. })
        ));

        let mut short = served(request);
        short.results.pop();
        assert!(matches!(
            check_reply(request, request.id, &short, None),
            Err(Mismatch::Count { .. })
        ));

        // A traced request must come back with its own trace id echoed.
        assert!(matches!(
            check_reply(request, request.id, &served(request), Some(9)),
            Err(Mismatch::Timing { .. })
        ));
    }

    #[test]
    fn the_oracle_agrees_with_the_definition_of_the_flags() {
        let ops = [(u64::MAX >> 1, 1), (1, 2), (u64::MAX, 1)];
        let expected = oracle(&ops);
        assert_eq!(expected[0].sum, 1 << 63);
        assert!(expected[0].stalled(), "a 63-bit carry chain exceeds k=24");
        assert_eq!(expected[1], OpResult { sum: 3, flags: 0 });
        assert_eq!(expected[2].sum, 0, "sums wrap at 64 bits");
        assert!(expected.iter().all(|r| !r.exact_path()));
    }
}
