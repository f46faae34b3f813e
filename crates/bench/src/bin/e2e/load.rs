//! The load generator: two client threads, one connection each,
//! sending pre-encoded requests and checking every reply against the
//! oracle.
//!
//! A pass has a warm-up and a measured window, cut into [`SLICES`]
//! equal slices. Delivered ops count in the slice their correct reply
//! arrived in, and the server's CPU time is read from `/proc` at every
//! slice edge; rates and CPU per op are computed per slice and reported
//! as the median slice. Latency is kept per request (raw, never
//! bucketed) for every request due in the window, in due-time order,
//! for percentiles over blocks of consecutive requests. Either way a
//! stall of the host moves one slice or block, not the run's number.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use vlsa_server::{read_frame, Frame, ProtocolError, ServerTiming};

use crate::serve::{cpu_ns, cpu_ticks, thread_switches};
use crate::stats::median;
use crate::workload::{
    arrival_rng, check_reply, exponential_gap, readdress, request_id, Arrival, Request, Workload,
    CONNECTIONS,
};

/// Client socket timeout: no reply within this is a failed request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Slices per measured window.
pub const SLICES: usize = 5;

/// How a pass offers load.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    pub warmup: Duration,
    pub window: Duration,
    /// Whether every `TRACE_EVERY`th request carries a sampled trace
    /// context.
    pub traced: bool,
}

/// Request accounting. Every offered request ends in exactly one of the
/// other buckets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub offered: u64,
    pub correct: u64,
    pub wrong: u64,
    pub shed: u64,
    pub deadline_exceeded: u64,
    pub errors: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.offered += o.offered;
        self.correct += o.correct;
        self.wrong += o.wrong;
        self.shed += o.shed;
        self.deadline_exceeded += o.deadline_exceeded;
        self.errors += o.errors;
    }

    /// Requests that did not come back correct.
    pub fn failed(&self) -> u64 {
        self.offered - self.correct
    }

    /// Whether `offered == answered + shed + deadline_exceeded + errors`
    /// holds, with `answered` the correct plus the wrong replies.
    pub fn closes(&self) -> bool {
        self.offered == self.correct + self.wrong + self.shed + self.deadline_exceeded + self.errors
    }
}

/// One connection's open-loop arrival stream: seeded exponential
/// inter-arrival times realising its share of the workload's total
/// rate, independent of replies.
#[derive(Debug)]
pub struct Arrivals {
    next: Instant,
    rng: StdRng,
    mean_gap_s: f64,
}

impl Arrivals {
    pub fn new(
        ops_per_sec: f64,
        ops_per_request: usize,
        seed: u64,
        conn: usize,
        start: Instant,
    ) -> Arrivals {
        Arrivals {
            next: start,
            rng: arrival_rng(seed, conn),
            mean_gap_s: (ops_per_request * CONNECTIONS) as f64 / ops_per_sec,
        }
    }

    /// The due time of the next arrival, which is taken off the stream.
    pub fn take(&mut self) -> Instant {
        let due = self.next;
        self.next += Duration::from_secs_f64(exponential_gap(&mut self.rng, self.mean_gap_s));
        due
    }
}

/// When a connection's next request is due.
#[derive(Debug)]
pub enum Schedule {
    /// Closed loop: when the previous reply arrived.
    Closed { next: Instant },
    /// Open loop: the connection's next arrival. A slow reply makes the
    /// following requests late, and the wait counts in their latency.
    Open(Arrivals),
}

impl Schedule {
    /// When the next request is due.
    fn next_due(&mut self) -> Instant {
        match self {
            Schedule::Closed { next } => *next,
            Schedule::Open(arrivals) => arrivals.take(),
        }
    }

    /// Notes the reply to the request just sent.
    fn replied(&mut self, at: Instant) {
        if let Schedule::Closed { next } = self {
            *next = at;
        }
    }

    /// Whether latency is timed from the due time (open loop) rather
    /// than from the actual send.
    fn is_open(&self) -> bool {
        matches!(self, Schedule::Open(_))
    }
}

/// What one request's timing contributes to the window statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// From due time (open loop) or send (closed loop) to reply.
    pub latency: Duration,
    /// How late the generator sent it: send minus due.
    pub late: Duration,
}

/// Times one request: `due` when it should have gone out, `sent` when
/// it did, `replied` when the reply arrived.
pub fn time_request(open: bool, due: Instant, sent: Instant, replied: Instant) -> Timing {
    let from = if open { due } else { sent };
    Timing {
        latency: replied.saturating_duration_since(from),
        late: sent.saturating_duration_since(due),
    }
}

/// One connection's share of a pass.
#[derive(Debug, Default)]
struct ConnResult {
    counts: Counts,
    slices: Vec<Slice>,
    /// `(due time, latency µs)` in due-time order.
    latency_us: Vec<(Instant, f64)>,
    late_us: Vec<f64>,
    traced: Vec<(f64, ServerTiming)>,
    first_error: Option<String>,
}

/// One slice of a measured window.
#[derive(Clone, Debug, Default)]
pub struct Slice {
    /// Correct replies received in the slice, and their ops.
    pub requests: u64,
    pub ops: u64,
    /// Server CPU over the slice, ns.
    pub server_cpu_ns: u64,
}

/// A finished pass.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Every request of the pass, warm-up included.
    pub counts: Counts,
    pub slices: Vec<Slice>,
    pub slice_s: f64,
    /// Per-request latency of requests due in the window, µs, in
    /// due-time order over both connections. Closed loop: send to reply;
    /// open loop: due time to reply.
    pub latency_us: Vec<f64>,
    /// Per-request lateness of requests due in the window, µs.
    pub late_us: Vec<f64>,
    /// `(rtt µs, echoed server timing)` of traced requests due in the
    /// window.
    pub traced: Vec<(f64, ServerTiming)>,
    /// Server and client (this process) CPU over the window, ns.
    pub server_cpu_ns: u64,
    pub client_cpu_ns: u64,
    /// Server CPU over the window in 10 ms kernel ticks, exited threads
    /// included: the coarse cross-check of `server_cpu_ns`.
    pub server_ticks: u64,
    /// Server context switches over the window, and its thread count.
    pub server_switches: u64,
    pub server_threads: u64,
    pub first_error: Option<String>,
}

impl PassResult {
    /// Correct replies received in the window.
    pub fn requests(&self) -> u64 {
        self.slices.iter().map(|s| s.requests).sum()
    }

    /// Delivered ops per second, median slice.
    pub fn ops_per_sec(&self) -> f64 {
        self.median_slice(|s| s.ops as f64 / self.slice_s)
    }

    /// Server CPU per delivered op, ns, median slice.
    pub fn server_cpu_ns_per_op(&self) -> f64 {
        self.median_slice(|s| s.server_cpu_ns as f64 / s.ops as f64)
    }

    fn median_slice(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        median(&self.slices.iter().map(f).collect::<Vec<_>>())
    }
}

/// The slice `t` falls in, given the window's slice edges.
fn slice_of(edges: &[Instant], t: Instant) -> Option<usize> {
    let (first, last) = (edges[0], edges[edges.len() - 1]);
    (first..last)
        .contains(&t)
        .then(|| edges.partition_point(|e| *e <= t) - 1)
}

/// `/proc` readings over a window: server CPU at every slice edge, and
/// over the whole window the server's CPU in kernel ticks, this
/// process's CPU, the server's context switches and, at its end, the
/// server's thread count.
struct EdgeSamples {
    server_cpu_ns: Vec<u64>,
    server_ticks: u64,
    client_cpu_ns: u64,
    switches: u64,
    threads: u64,
}

fn sample_edges(edges: &[Instant], pid: u32) -> io::Result<EdgeSamples> {
    let pid_str = pid.to_string();
    sleep_until(edges[0]);
    let client0 = cpu_ns("self")?;
    let ticks0 = cpu_ticks(pid)?;
    let (_, switches0) = thread_switches(pid)?;
    let mut server_cpu_ns = vec![cpu_ns(&pid_str)?];
    for &edge in &edges[1..] {
        sleep_until(edge);
        server_cpu_ns.push(cpu_ns(&pid_str)?);
    }
    let ticks1 = cpu_ticks(pid)?;
    let (threads, switches1) = thread_switches(pid)?;
    Ok(EdgeSamples {
        server_cpu_ns,
        server_ticks: ticks1.saturating_sub(ticks0),
        client_cpu_ns: cpu_ns("self")?.saturating_sub(client0),
        switches: switches1.saturating_sub(switches0),
        threads,
    })
}

/// Runs one pass against the server at `addr` (process `pid`).
///
/// # Errors
///
/// Only `/proc` read failures; request failures are counted.
pub fn run_pass(
    addr: SocketAddr,
    pid: u32,
    workload: &Workload,
    pools: &[Vec<Request>],
    seed: u64,
    pass: Pass,
) -> io::Result<PassResult> {
    // Connections are opened before the clock starts.
    let start = Instant::now() + Duration::from_millis(20);
    let t0 = start + pass.warmup;
    let edges: Vec<Instant> = (0..=SLICES as u32)
        .map(|k| t0 + pass.window * k / SLICES as u32)
        .collect();
    // Clients hold their connections open until the last edge has been
    // read: a server connection thread that exits takes its context
    // switch counts with it.
    let done = Barrier::new(pools.len() + 1);
    let (edges, done) = (&edges, &done);
    let (conns, sampled) = std::thread::scope(|scope| {
        let clients: Vec<_> = pools
            .iter()
            .enumerate()
            .map(|(conn, pool)| {
                scope.spawn(move || {
                    let schedule = match workload.arrival {
                        Arrival::Closed => Schedule::Closed { next: start },
                        Arrival::Open { ops_per_sec } => Schedule::Open(Arrivals::new(
                            ops_per_sec,
                            workload.ops_per_request,
                            seed,
                            conn,
                            start,
                        )),
                    };
                    let mut link = connect(addr).and_then(|stream| {
                        let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
                        Ok((stream, reader))
                    });
                    let out = match link {
                        Ok((ref stream, ref mut reader)) => drive(
                            stream,
                            reader,
                            pool,
                            (seed, conn),
                            schedule,
                            edges,
                            pass.traced,
                        ),
                        Err(ref e) => ConnResult {
                            first_error: Some(format!("connect: {e}")),
                            ..ConnResult::default()
                        },
                    };
                    done.wait();
                    drop(link);
                    out
                })
            })
            .collect();
        let sampled = sample_edges(edges, pid);
        done.wait();
        let conns: Vec<ConnResult> = clients
            .into_iter()
            .map(|d| d.join().expect("client thread panicked"))
            .collect();
        (conns, sampled)
    });
    let sampled = sampled?;
    let mut out = PassResult {
        slices: vec![Slice::default(); SLICES],
        slice_s: pass.window.as_secs_f64() / SLICES as f64,
        ..PassResult::default()
    };
    let mut latency: Vec<(Instant, f64)> = Vec::new();
    for conn in conns {
        out.counts.add(&conn.counts);
        for (total, s) in out.slices.iter_mut().zip(conn.slices) {
            total.requests += s.requests;
            total.ops += s.ops;
        }
        latency.extend(conn.latency_us);
        out.late_us.extend(conn.late_us);
        out.traced.extend(conn.traced);
        out.first_error = out.first_error.or(conn.first_error);
    }
    latency.sort_by_key(|&(due, _)| due);
    out.latency_us = latency.into_iter().map(|(_, us)| us).collect();
    let cpu = &sampled.server_cpu_ns;
    for (slice, pair) in out.slices.iter_mut().zip(cpu.windows(2)) {
        slice.server_cpu_ns = pair[1].saturating_sub(pair[0]);
    }
    out.server_cpu_ns = cpu[SLICES].saturating_sub(cpu[0]);
    out.server_ticks = sampled.server_ticks;
    out.client_cpu_ns = sampled.client_cpu_ns;
    out.server_switches = sampled.switches;
    out.server_threads = sampled.threads;
    Ok(out)
}

fn sleep_until(when: Instant) {
    let now = Instant::now();
    if when > now {
        std::thread::sleep(when - now);
    }
}

/// Opens a client connection with the benchmark's socket options.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
    Ok(stream)
}

/// How one request ended.
enum Outcome {
    Correct(Option<ServerTiming>),
    Wrong(String),
    Shed,
    DeadlineExceeded,
    /// Transport or protocol failure; the connection is unusable.
    Broken(String),
    /// A typed error frame; the connection is still usable.
    Refused(String),
}

/// Sends one pre-encoded request, `frame` addressed as `id`, and
/// classifies the reply.
fn exchange(
    stream: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &Request,
    id: u64,
    frame: &[u8],
    trace_id: Option<u64>,
) -> Outcome {
    if let Err(e) = (&mut &*stream).write_all(frame) {
        return Outcome::Broken(format!("write: {e}"));
    }
    match read_frame(reader) {
        Ok(Frame::SumBatch(sums)) => match check_reply(request, id, &sums, trace_id) {
            Ok(()) => Outcome::Correct(sums.timing),
            Err(m) => Outcome::Wrong(format!("request {id:#x}: {m:?}")),
        },
        Ok(Frame::Busy(_)) => Outcome::Shed,
        Ok(Frame::Error(e)) if e.code == ProtocolError::CODE_DEADLINE_EXCEEDED => {
            Outcome::DeadlineExceeded
        }
        Ok(Frame::Error(e)) => Outcome::Refused(format!("error frame {}: {}", e.code, e.detail)),
        Ok(other) => Outcome::Broken(format!("unexpected frame type {:#x}", other.frame_type())),
        Err(e) => Outcome::Broken(format!("read: {e}")),
    }
}

/// Sends `request` on a fresh connection and reports whether the reply
/// was correct: the set-up probe.
pub fn probe(addr: SocketAddr, request: &Request) -> io::Result<bool> {
    let stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    Ok(matches!(
        exchange(
            &stream,
            &mut reader,
            request,
            request.id,
            &request.frame,
            None
        ),
        Outcome::Correct(_)
    ))
}

/// One connection's loop: cycle the pool until the window (its first
/// to last slice edge) closes. The `i`th send of connection `conn`
/// goes out as `request_id(seed, conn, i)`.
fn drive(
    stream: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    pool: &[Request],
    (seed, conn): (u64, usize),
    mut schedule: Schedule,
    edges: &[Instant],
    traced: bool,
) -> ConnResult {
    let t1 = edges[edges.len() - 1];
    let mut out = ConnResult {
        slices: vec![Slice::default(); edges.len() - 1],
        ..ConnResult::default()
    };
    let mut frame = Vec::new();
    for i in 0.. {
        let due = schedule.next_due();
        if due >= t1 {
            break;
        }
        sleep_until(due);
        let request = &pool[i % pool.len()];
        let (encoded, trace_id) = match (&request.traced, traced) {
            (Some((trace_id, encoded)), true) => (encoded, Some(*trace_id)),
            _ => (&request.frame, None),
        };
        let id = request_id(seed, conn, i);
        readdress(encoded, id, &mut frame);
        out.counts.offered += 1;
        let sent = Instant::now();
        let outcome = exchange(stream, reader, request, id, &frame, trace_id);
        let replied = Instant::now();
        let in_window = slice_of(edges, due).is_some();
        if in_window {
            let timing = time_request(schedule.is_open(), due, sent, replied);
            out.latency_us
                .push((due, timing.latency.as_nanos() as f64 / 1e3));
            out.late_us.push(timing.late.as_nanos() as f64 / 1e3);
        }
        match outcome {
            Outcome::Correct(echo) => {
                out.counts.correct += 1;
                if let Some(k) = slice_of(edges, replied) {
                    out.slices[k].requests += 1;
                    out.slices[k].ops += request.ops.len() as u64;
                }
                if let (true, Some(timing)) = (in_window, echo) {
                    let rtt_us = replied.duration_since(sent).as_nanos() as f64 / 1e3;
                    out.traced.push((rtt_us, timing));
                }
            }
            Outcome::Wrong(why) => {
                out.counts.wrong += 1;
                out.first_error.get_or_insert(why);
            }
            Outcome::Shed => out.counts.shed += 1,
            Outcome::DeadlineExceeded => out.counts.deadline_exceeded += 1,
            Outcome::Refused(why) => {
                out.counts.errors += 1;
                out.first_error.get_or_insert(why);
            }
            Outcome::Broken(why) => {
                out.counts.errors += 1;
                out.first_error.get_or_insert(why);
                break;
            }
        }
        schedule.replied(replied);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let due = Instant::now();
        let sent = due + Duration::from_micros(300);
        let replied = sent + Duration::from_micros(700);
        let open = time_request(true, due, sent, replied);
        assert_eq!(open.latency, Duration::from_micros(1000));
        assert_eq!(open.late, Duration::from_micros(300));
        // Closed loop: latency from the send, lateness is client
        // turnaround since the previous reply.
        let closed = time_request(false, due, sent, replied);
        assert_eq!(closed.latency, Duration::from_micros(700));
        assert_eq!(closed.late, Duration::from_micros(300));
        // Sending early is never negative lateness.
        let early = time_request(true, sent, due, replied);
        assert_eq!(early.late, Duration::ZERO);
    }

    #[test]
    fn open_arrivals_are_seeded_per_connection_and_ignore_replies() {
        let start = Instant::now();
        let mut open = Schedule::Open(Arrivals::new(250_000.0, 256, 9, 0, start));
        let mut reference = Arrivals::new(250_000.0, 256, 9, 0, start);
        assert!(open.is_open());
        let n = 20_000;
        let mut last = start;
        for _ in 0..n {
            // A reply far in the future does not move the stream.
            let due = open.next_due();
            open.replied(start + Duration::from_secs(3600));
            assert_eq!(due, reference.take(), "seeded, not reply-driven");
            assert!(due >= last);
            last = due;
        }
        // Mean gap: 256 ops × 2 connections / 250k ops/s = 2.048 ms.
        let mean_ms = last.duration_since(start).as_secs_f64() * 1e3 / (n - 1) as f64;
        assert!((mean_ms - 2.048).abs() < 0.05, "mean gap {mean_ms} ms");
        let mut other = Arrivals::new(250_000.0, 256, 9, 1, start);
        other.take();
        assert_ne!(
            other.take(),
            Arrivals::new(250_000.0, 256, 9, 0, start).take()
        );
    }

    #[test]
    fn a_closed_schedule_is_due_when_the_reply_arrives() {
        let start = Instant::now();
        let mut s = Schedule::Closed { next: start };
        assert!(!s.is_open());
        assert_eq!(s.next_due(), start);
        assert_eq!(s.next_due(), start, "asking again does not advance");
        let replied = start + Duration::from_micros(640);
        s.replied(replied);
        assert_eq!(s.next_due(), replied);
    }

    #[test]
    fn instants_fall_in_half_open_slices() {
        let t0 = Instant::now();
        let edges: Vec<Instant> = (0..=3).map(|k| t0 + Duration::from_secs(k)).collect();
        assert_eq!(slice_of(&edges, t0), Some(0));
        assert_eq!(slice_of(&edges, t0 + Duration::from_millis(999)), Some(0));
        assert_eq!(slice_of(&edges, t0 + Duration::from_secs(1)), Some(1));
        assert_eq!(slice_of(&edges, t0 + Duration::from_millis(2999)), Some(2));
        assert_eq!(slice_of(&edges, t0 + Duration::from_secs(3)), None);
        assert_eq!(slice_of(&edges[1..], t0), None, "before the window");
    }

    #[test]
    fn a_stall_in_one_slice_does_not_set_the_run_rates() {
        let calm = |ops: u64| Slice {
            requests: ops / 16,
            ops,
            server_cpu_ns: ops * 100,
        };
        let mut stalled = calm(1_000);
        stalled.server_cpu_ns *= 3;
        let pass = PassResult {
            slices: vec![calm(10_000), stalled, calm(10_000)],
            slice_s: 2.0,
            ..PassResult::default()
        };
        assert_eq!(pass.ops_per_sec(), 5_000.0);
        assert_eq!(pass.server_cpu_ns_per_op(), 100.0);
        assert_eq!(pass.requests(), 10_000 / 16 * 2 + 1_000 / 16);
    }

    #[test]
    fn accounting_closes_only_when_every_request_has_one_outcome() {
        let mut c = Counts {
            offered: 10,
            correct: 6,
            wrong: 1,
            shed: 1,
            deadline_exceeded: 1,
            errors: 1,
        };
        assert!(c.closes());
        assert_eq!(c.failed(), 4);
        c.offered += 1;
        assert!(!c.closes());
    }
}
