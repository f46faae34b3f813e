//! The shard pool: one `ResilientPipeline` worker thread per shard,
//! operands routed by request id, supervised for fault recovery.
//!
//! Each shard owns a bounded job queue ([`crate::queue::Bounded`]), an
//! adaptive [`crate::batcher::Batcher`], a `ResilientPipeline`, and —
//! optionally — a live `ConformanceMonitor` wired to the shard's
//! degrade flag, so traffic drift on one shard flips *that shard* to
//! the exact path while the others keep speculating.
//!
//! ## Supervision
//!
//! A pool-level supervisor thread watches every shard worker through a
//! [`ShardHealth`] heartbeat. Two failure modes are detected: a **dead**
//! worker (the thread panicked — its liveness latch clears on unwind)
//! and a **wedged** worker (alive but making no batch progress while
//! work is pending, past [`SupervisorConfig::wedge_timeout`]). Either
//! way the supervisor bumps the shard's *generation* (deposing the old
//! worker, which refuses any jobs it still holds with typed `Retryable`
//! frames when it wakes), evacuates the queue into `Retryable` answers
//! — accepted work is never silently lost — and spawns a replacement
//! worker on the *same* queue. The degrade latch is shared state, so a
//! shard that had degraded to the exact adder stays degraded across the
//! restart.
//!
//! ## Deadlines
//!
//! Jobs whose request carries an `EXT_DEADLINE` budget are checked when
//! their batch is formed: a job that has already outwaited its budget
//! is answered with a typed `DeadlineExceeded` frame instead of
//! occupying batch compute — under overload this sheds exactly the
//! requests whose answers would arrive too late to matter.
//!
//! ## Modeled device time
//!
//! Each shard models one adder device. With
//! [`ShardConfig::cycle_ns`] set, a worker paces itself to the modeled
//! clock: after computing a batch it sleeps until the device would have
//! finished it (`batch_cycles × cycle_ns` after the previous batch).
//! Aggregate wall-clock throughput then reflects modeled device
//! parallelism — more shards, more devices — independent of how many
//! host cores the simulation happens to get.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vlsa_batch::{executor_for, Backend, LANES};
use vlsa_chaos::{ChaosInjector, WorkerFault};
use vlsa_core::{SpecError, SpeculativeAdder};
use vlsa_monitor::{ConformanceMonitor, MonitorConfig};
use vlsa_pipeline::{ResilienceConfig, ResilientPipeline};
use vlsa_telemetry::names::{labeled, server as metric};
use vlsa_telemetry::DEFAULT_BUCKETS;
use vlsa_trace::{RequestTrace, TraceEvent};

use crate::batcher::{BatchPolicy, Batcher};
use crate::clock::ModeledClock;
use crate::error::ProtocolError;
use crate::events::{EventLog, WideEvent};
use crate::protocol::{
    AddBatch, Busy, Frame, OpResult, ServerTiming, SumBatch, FLAG_EXACT, FLAG_STALLED,
};
use crate::queue::{Bounded, PushError};
use crate::slo::ServerSlo;

/// Watchdog policy for the pool's supervisor thread.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// Whether a supervisor thread runs at all. Off, a dead shard stays
    /// dead (the pre-supervision behavior).
    pub enabled: bool,
    /// How often the supervisor inspects shard health.
    pub poll: Duration,
    /// A worker that is alive but has made no batch progress for this
    /// long *while work is pending* is declared wedged and deposed.
    pub wedge_timeout: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            enabled: true,
            poll: Duration::from_millis(20),
            wedge_timeout: Duration::from_secs(1),
        }
    }
}

/// Per-shard configuration, shared by every shard in a pool.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Adder width in bits (`1..=64`).
    pub nbits: usize,
    /// Speculation window in bits.
    pub window: usize,
    /// Resilience policy for each shard's pipeline.
    pub resilience: ResilienceConfig,
    /// Bounded queue capacity, in requests; pushes beyond it shed.
    pub queue_capacity: usize,
    /// Adaptive batch flush policy.
    pub batch: BatchPolicy,
    /// Modeled device cycle time in nanoseconds; `0` disables pacing
    /// (the worker runs as fast as the host allows).
    pub cycle_ns: u64,
    /// Which arithmetic backend each shard worker runs its batches on:
    /// the bit-sliced (transposed) engine by default, or the scalar
    /// per-op loop. Outcomes are bit-identical either way; only
    /// throughput differs.
    pub backend: Backend,
    /// Ops per conformance-monitor window; `None` runs without a
    /// monitor.
    pub monitor_window_ops: Option<u64>,
    /// Supervisor watchdog policy.
    pub supervisor: SupervisorConfig,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            nbits: 64,
            window: 24,
            resilience: ResilienceConfig::default(),
            queue_capacity: 64,
            batch: BatchPolicy::default(),
            cycle_ns: 0,
            backend: Backend::Sliced,
            monitor_window_ops: None,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// The sampling decision attached to a job at submit time.
#[derive(Clone, Copy, Debug)]
pub struct JobTrace {
    /// The request's trace id (client-chosen or server-generated).
    pub trace_id: u64,
    /// Whether to echo a [`ServerTiming`] extension on the `SumBatch`
    /// (true only for client-requested traces — untraced clients never
    /// receive extension bytes).
    pub echo: bool,
    /// Microseconds since the server's trace epoch at submit time; the
    /// recorded span tree's root timestamp.
    pub start_us: u64,
}

/// What a worker sends back per job: the response frame plus — for
/// sampled requests — the trace with every server-side phase filled in
/// except `write_us`, which the connection thread measures around the
/// actual socket write before recording the trace.
#[derive(Debug)]
pub struct Reply {
    /// The response frame to write to the client.
    pub frame: Frame,
    /// The request's trace, when it was sampled.
    pub trace: Option<RequestTrace>,
}

/// A queued unit of work: one client request plus its reply channel.
#[derive(Debug)]
pub struct Job {
    /// The decoded request.
    pub request: AddBatch,
    /// Where the worker sends the response.
    pub reply: Sender<Reply>,
    /// When the request entered the queue (latency measurement base).
    pub enqueued: Instant,
    /// The sampling decision, made at submit time.
    pub trace: Option<JobTrace>,
}

/// Lock-free per-shard counters, shared between the worker and
/// observers (tests, `loadgen`, the bench suite) without requiring
/// telemetry to be enabled.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Requests executed (shed requests are not counted).
    pub requests: AtomicU64,
    /// Ops served.
    pub ops: AtomicU64,
    /// Served ops whose `ER` detector fired.
    pub stalls: AtomicU64,
    /// Served ops delivered by the exact path.
    pub exact_ops: AtomicU64,
    /// Batches flushed.
    pub batches: AtomicU64,
    /// Requests shed with a `Busy` frame.
    pub shed: AtomicU64,
    /// Requests answered with a typed `Retryable` frame (worker died or
    /// was deposed before executing them).
    pub retryable: AtomicU64,
    /// Requests shed with a typed `DeadlineExceeded` frame.
    pub deadline_exceeded: AtomicU64,
    /// Times the supervisor restarted this shard's worker.
    pub restarts: AtomicU64,
    /// Whether this shard has latched into degraded mode.
    pub degraded: AtomicBool,
}

/// A plain-value copy of [`ShardStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Requests executed.
    pub requests: u64,
    /// Ops served.
    pub ops: u64,
    /// Ops that stalled.
    pub stalls: u64,
    /// Ops served by the exact path.
    pub exact_ops: u64,
    /// Batches flushed.
    pub batches: u64,
    /// Requests shed.
    pub shed: u64,
    /// Requests answered `Retryable`.
    pub retryable: u64,
    /// Requests shed past their deadline.
    pub deadline_exceeded: u64,
    /// Supervisor restarts.
    pub restarts: u64,
    /// Degraded-mode latch.
    pub degraded: bool,
}

impl ShardStats {
    fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            exact_ops: self.exact_ops.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            retryable: self.retryable.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }
}

/// The liveness/progress contract between one shard's worker and the
/// supervisor. Plain atomics: the worker touches them on its hot path,
/// the supervisor polls.
#[derive(Debug, Default)]
pub struct ShardHealth {
    /// Milliseconds since the pool epoch at the worker's last sign of
    /// progress.
    last_progress_ms: AtomicU64,
    /// Jobs the worker currently holds outside the queue.
    in_flight: AtomicU64,
    /// Cleared (on unwind or exit) by the owning generation's guard;
    /// false means the worker thread is gone.
    alive: AtomicBool,
    /// The generation currently entitled to the shard. A worker that
    /// observes a newer generation is deposed: it refuses held jobs
    /// with `Retryable` and exits.
    generation: AtomicU64,
}

impl ShardHealth {
    fn touch(&self, epoch: Instant) {
        self.last_progress_ms
            .store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
    }
}

/// Clears the liveness latch when the owning worker unwinds or
/// returns — but only if it still owns the shard (a deposed worker
/// must not mark its successor dead).
struct AliveGuard {
    health: Arc<ShardHealth>,
    generation: u64,
}

impl Drop for AliveGuard {
    fn drop(&mut self) {
        if self.health.generation.load(Ordering::SeqCst) == self.generation {
            self.health.alive.store(false, Ordering::SeqCst);
        }
    }
}

struct ShardRuntime {
    queue: Arc<Bounded<Job>>,
    stats: Arc<ShardStats>,
    degrade: Arc<AtomicBool>,
    health: Arc<ShardHealth>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

/// Optional observability/fault couplings threaded through the pool:
/// the SLO accountant (fed sheds on the submit path and per-batch
/// evidence by workers), the canonical wide-event log (one record per
/// flushed batch, plus restart records), and a chaos injector whose
/// planned worker faults land inside the batch loop.
#[derive(Clone, Debug, Default)]
pub struct PoolHooks {
    /// SLO accountant shared with the scrape endpoint.
    pub slo: Option<Arc<ServerSlo>>,
    /// Wide-event log shared with the `/events` endpoint.
    pub events: Option<Arc<EventLog>>,
    /// Fault injector; `None` (production) costs nothing.
    pub chaos: Option<Arc<ChaosInjector>>,
    /// Process-wide modeled clock, folded forward by every flushed
    /// batch (always present; a fresh clock costs one atomic).
    pub clock: Arc<ModeledClock>,
}

/// Everything the shards and the supervisor share.
struct PoolInner {
    config: ShardConfig,
    shards: Vec<ShardRuntime>,
    degraded_total: Arc<AtomicU64>,
    hooks: PoolHooks,
    /// Time base for heartbeat arithmetic.
    epoch: Instant,
    /// Raised at the start of shutdown; the supervisor stops deposing.
    closing: AtomicBool,
    /// Deposed-but-unjoinable workers (wedged ones we could not wait
    /// for at restart time); joined at shutdown.
    graveyard: Mutex<Vec<JoinHandle<()>>>,
}

/// The pool of shard workers. Submitting routes by
/// `request_id % shards`; shutdown closes every queue, drains what was
/// already accepted, and joins the workers.
pub struct ShardPool {
    inner: Arc<PoolInner>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

impl ShardPool {
    /// Starts `shards` workers, each with its own pipeline (and
    /// monitor, if configured).
    ///
    /// # Errors
    ///
    /// Returns the adder construction error for an invalid
    /// width/window combination.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn start(config: &ShardConfig, shards: usize) -> Result<ShardPool, SpecError> {
        ShardPool::start_with_hooks(config, shards, PoolHooks::default())
    }

    /// [`ShardPool::start`] with observability hooks: an SLO accountant
    /// and/or a wide-event log shared with the serving layer, and/or a
    /// chaos injector.
    ///
    /// # Errors
    ///
    /// Returns the adder construction error for an invalid
    /// width/window combination.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn start_with_hooks(
        config: &ShardConfig,
        shards: usize,
        hooks: PoolHooks,
    ) -> Result<ShardPool, SpecError> {
        assert!(shards > 0, "a pool needs at least one shard");
        // Validate once up front so workers can't die on a bad config.
        SpeculativeAdder::new(config.nbits, config.window)?;
        let mut built = Vec::with_capacity(shards);
        for _ in 0..shards {
            built.push(ShardRuntime {
                queue: Arc::new(Bounded::new(config.queue_capacity)),
                stats: Arc::new(ShardStats::default()),
                degrade: Arc::new(AtomicBool::new(false)),
                health: Arc::new(ShardHealth::default()),
                worker: Mutex::new(None),
            });
        }
        let inner = Arc::new(PoolInner {
            config: config.clone(),
            shards: built,
            degraded_total: Arc::new(AtomicU64::new(0)),
            hooks,
            epoch: Instant::now(),
            closing: AtomicBool::new(false),
            graveyard: Mutex::new(Vec::new()),
        });
        for shard_id in 0..shards {
            let shard = &inner.shards[shard_id];
            shard.health.alive.store(true, Ordering::SeqCst);
            shard.health.touch(inner.epoch);
            let handle = spawn_worker(&inner, shard_id, 0);
            *shard.worker.lock().expect("worker lock") = Some(handle);
        }
        let supervisor = config.supervisor.enabled.then(|| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("vlsa-supervisor".to_string())
                .spawn(move || supervisor_loop(&inner))
                .expect("spawn supervisor")
        });
        Ok(ShardPool {
            inner,
            supervisor: Mutex::new(supervisor),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard a request id routes to.
    pub fn route(&self, request_id: u64) -> usize {
        (request_id % self.inner.shards.len() as u64) as usize
    }

    /// Routes and enqueues a request. On backpressure the request is
    /// shed — the error carries the exact frame (`Busy`, or a typed
    /// shutdown `Error`) the connection should send instead; nothing is
    /// silently dropped.
    ///
    /// # Errors
    ///
    /// The response frame to send when the request was not accepted.
    pub fn submit(&self, request: AddBatch, reply: Sender<Reply>) -> Result<(), Box<Frame>> {
        self.submit_traced(request, reply, None)
    }

    /// [`ShardPool::submit`] with an explicit sampling decision; `Some`
    /// makes the worker fill in a [`RequestTrace`] on the reply.
    ///
    /// # Errors
    ///
    /// The response frame to send when the request was not accepted.
    pub fn submit_traced(
        &self,
        request: AddBatch,
        reply: Sender<Reply>,
        trace: Option<JobTrace>,
    ) -> Result<(), Box<Frame>> {
        let shard_id = self.route(request.request_id);
        let shard = &self.inner.shards[shard_id];
        let request_id = request.request_id;
        let job = Job {
            request,
            reply,
            enqueued: Instant::now(),
            trace,
        };
        match shard.queue.try_push(job) {
            Ok(_) => Ok(()),
            Err(PushError::Full(_)) => {
                shard.stats.shed.fetch_add(1, Ordering::Relaxed);
                if vlsa_telemetry::is_enabled() {
                    vlsa_telemetry::recorder().counter(metric::SHED).incr();
                }
                // A shed is a request the service declined to answer:
                // it burns availability budget.
                if let Some(slo) = &self.inner.hooks.slo {
                    slo.record_shed(1);
                }
                Err(Box::new(Frame::Busy(Busy {
                    request_id,
                    shard: shard_id as u16,
                    queue_depth: shard.queue.len() as u32,
                })))
            }
            Err(PushError::Closed(_)) => {
                Err(Box::new(Frame::Error(ProtocolError::Shutdown.to_frame())))
            }
        }
    }

    /// A shard's counters.
    pub fn stats(&self, shard: usize) -> ShardSnapshot {
        self.inner.shards[shard].stats.snapshot()
    }

    /// Counters summed across all shards.
    pub fn totals(&self) -> ShardSnapshot {
        let mut total = ShardSnapshot::default();
        for shard in &self.inner.shards {
            let s = shard.stats.snapshot();
            total.requests += s.requests;
            total.ops += s.ops;
            total.stalls += s.stalls;
            total.exact_ops += s.exact_ops;
            total.batches += s.batches;
            total.shed += s.shed;
            total.retryable += s.retryable;
            total.deadline_exceeded += s.deadline_exceeded;
            total.restarts += s.restarts;
            total.degraded |= s.degraded;
        }
        total
    }

    /// Current depth of a shard's queue.
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.inner.shards[shard].queue.len()
    }

    /// A shard's degrade flag — the coupling point for an external
    /// monitor or an operator switch; raising it flips that shard to
    /// the exact path before its next op.
    pub fn degrade_flag(&self, shard: usize) -> Arc<AtomicBool> {
        Arc::clone(&self.inner.shards[shard].degrade)
    }

    /// Shards currently latched into degraded mode.
    pub fn degraded_shards(&self) -> u64 {
        self.inner.degraded_total.load(Ordering::Relaxed)
    }

    /// Supervisor restarts across all shards.
    pub fn restarts(&self) -> u64 {
        self.totals().restarts
    }

    /// Whether [`ShardPool::shutdown`] has begun. The serving layer
    /// uses this to tell a worker loss (answer `Retryable`) from a
    /// drain (answer `Shutdown`).
    pub fn is_closing(&self) -> bool {
        self.inner.closing.load(Ordering::Relaxed)
    }

    /// Counts and builds the typed `Retryable` answer for a request
    /// whose reply channel died with its worker (the job was in flight
    /// when the worker was killed). The supervisor handles *queued*
    /// jobs itself; this is the connection thread's path for in-flight
    /// ones.
    pub fn retryable_frame(&self, request_id: u64) -> Frame {
        let shard_id = self.route(request_id);
        let shard = &self.inner.shards[shard_id];
        shard.stats.retryable.fetch_add(1, Ordering::Relaxed);
        if vlsa_telemetry::is_enabled() {
            vlsa_telemetry::recorder().counter(metric::RETRYABLE).incr();
        }
        if let Some(slo) = &self.inner.hooks.slo {
            slo.record_retryable(1);
        }
        Frame::Error(
            ProtocolError::Retryable(format!("shard {shard_id} worker lost mid-request"))
                .to_frame(),
        )
    }

    /// Closes every queue, lets the workers drain what was accepted,
    /// and joins them (plus the supervisor). Idempotent; also runs on
    /// drop.
    pub fn shutdown(&self) {
        self.inner.closing.store(true, Ordering::SeqCst);
        for shard in &self.inner.shards {
            shard.queue.close();
        }
        for shard in &self.inner.shards {
            if let Some(handle) = shard.worker.lock().expect("worker lock").take() {
                let _ = handle.join();
            }
        }
        if let Some(handle) = self.supervisor.lock().expect("supervisor lock").take() {
            let _ = handle.join();
        }
        let deposed: Vec<JoinHandle<()>> = self
            .inner
            .graveyard
            .lock()
            .expect("graveyard lock")
            .drain(..)
            .collect();
        for handle in deposed {
            let _ = handle.join();
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("shards", &self.inner.shards.len())
            .field("degraded", &self.degraded_shards())
            .field("restarts", &self.restarts())
            .finish()
    }
}

/// Spawns the `generation`th worker for `shard_id` over the shard's
/// existing queue. Used at pool start (generation 0) and by the
/// supervisor for replacements.
fn spawn_worker(inner: &Arc<PoolInner>, shard_id: usize, generation: u64) -> JoinHandle<()> {
    let shard = &inner.shards[shard_id];
    let batcher = Batcher::new(Arc::clone(&shard.queue), inner.config.batch, |job: &Job| {
        job.request.ops.len().max(1)
    });
    let ctx = WorkerCtx {
        shard_id: shard_id as u16,
        generation,
        config: inner.config.clone(),
        stats: Arc::clone(&shard.stats),
        degrade: Arc::clone(&shard.degrade),
        degraded_total: Arc::clone(&inner.degraded_total),
        health: Arc::clone(&shard.health),
        epoch: inner.epoch,
        hooks: inner.hooks.clone(),
    };
    std::thread::Builder::new()
        .name(format!("vlsa-shard-{shard_id}"))
        .spawn(move || worker_loop(&ctx, &batcher))
        .expect("spawn shard worker")
}

/// The supervisor: polls shard health, deposes dead/wedged workers,
/// evacuates their queues into `Retryable` answers, and spawns
/// replacements.
fn supervisor_loop(inner: &Arc<PoolInner>) {
    let poll = inner.config.supervisor.poll;
    let wedge_ms = inner.config.supervisor.wedge_timeout.as_millis() as u64;
    while !inner.closing.load(Ordering::Relaxed) {
        std::thread::sleep(poll);
        for shard_id in 0..inner.shards.len() {
            if inner.closing.load(Ordering::Relaxed) {
                return;
            }
            let shard = &inner.shards[shard_id];
            let dead = !shard.health.alive.load(Ordering::SeqCst);
            let pending =
                shard.health.in_flight.load(Ordering::Relaxed) > 0 || !shard.queue.is_empty();
            let now_ms = inner.epoch.elapsed().as_millis() as u64;
            let stalled_ms =
                now_ms.saturating_sub(shard.health.last_progress_ms.load(Ordering::Relaxed));
            let wedged = !dead && pending && stalled_ms > wedge_ms;
            if dead || wedged {
                restart_shard(inner, shard_id, dead);
            }
        }
    }
}

/// Deposes `shard_id`'s current worker and brings up its successor.
fn restart_shard(inner: &Arc<PoolInner>, shard_id: usize, dead: bool) {
    let shard = &inner.shards[shard_id];
    let mut slot = shard.worker.lock().expect("worker lock");
    // Bump the generation first: from here the old worker (if it ever
    // wakes) knows it has been deposed and refuses its held jobs.
    let new_generation = shard.health.generation.fetch_add(1, Ordering::SeqCst) + 1;
    if let Some(handle) = slot.take() {
        if dead {
            // The thread is gone (panicked); reap it. `join` returns
            // the panic payload, which is exactly what we expect.
            let _ = handle.join();
        } else {
            // Wedged: the thread may sleep for a long time yet. Park
            // the handle; shutdown joins it.
            inner.graveyard.lock().expect("graveyard lock").push(handle);
        }
    }
    // Evacuate queued (not-yet-started) jobs into typed Retryable
    // answers so accepted work is never silently lost.
    let drained = shard.queue.drain_now();
    let drained_n = drained.len() as u64;
    for job in drained {
        let frame = Frame::Error(
            ProtocolError::Retryable(format!("shard {shard_id} worker restarted")).to_frame(),
        );
        let _ = job.reply.send(Reply { frame, trace: None });
    }
    shard.stats.restarts.fetch_add(1, Ordering::Relaxed);
    shard
        .stats
        .retryable
        .fetch_add(drained_n, Ordering::Relaxed);
    if vlsa_telemetry::is_enabled() {
        let rec = vlsa_telemetry::recorder();
        rec.counter(metric::RESTARTS).incr();
        rec.counter(metric::RETRYABLE).add(drained_n);
    }
    if let Some(slo) = &inner.hooks.slo {
        slo.record_restart(drained_n);
    }
    let degraded = shard.stats.degraded.load(Ordering::Relaxed);
    if let Some(events) = &inner.hooks.events {
        let verdict = inner
            .hooks
            .slo
            .as_ref()
            .map(|slo| slo.verdict())
            .unwrap_or_default();
        events.emit(&WideEvent {
            kind: "restart",
            shard: shard_id as u16,
            requests: 0,
            ops: 0,
            cycles: 0,
            wait_us: 0,
            service_us: 0,
            pace_us: 0,
            adder: if degraded { "exact" } else { "speculative" },
            stalls: 0,
            exact_ops: 0,
            residue_mismatches: 0,
            degraded,
            trace_id: None,
            slo_pages_firing: verdict.pages_firing,
            slo_warns_firing: verdict.warns_firing,
            generation: new_generation,
            deadline_exceeded: 0,
            retryable_drained: drained_n,
        });
    }
    // Fresh heartbeat so the replacement is not instantly "wedged".
    shard.health.in_flight.store(0, Ordering::Relaxed);
    shard.health.touch(inner.epoch);
    shard.health.alive.store(true, Ordering::SeqCst);
    *slot = Some(spawn_worker(inner, shard_id, new_generation));
}

/// Telemetry handles a worker resolves once and updates lock-free.
struct ShardMetrics {
    requests: Arc<vlsa_telemetry::Counter>,
    ops: Arc<vlsa_telemetry::Counter>,
    stalls: Arc<vlsa_telemetry::Counter>,
    exact_ops: Arc<vlsa_telemetry::Counter>,
    batches: Arc<vlsa_telemetry::Counter>,
    deadline_exceeded: Arc<vlsa_telemetry::Counter>,
    batch_ops: Arc<vlsa_telemetry::Histogram>,
    batch_fill: Arc<vlsa_telemetry::Histogram>,
    latency: Arc<vlsa_telemetry::Histogram>,
    queue_depth: Arc<vlsa_telemetry::Gauge>,
    p50: Arc<vlsa_telemetry::Gauge>,
    p99: Arc<vlsa_telemetry::Gauge>,
    p999: Arc<vlsa_telemetry::Gauge>,
    degraded_shards: Arc<vlsa_telemetry::Gauge>,
}

impl ShardMetrics {
    fn resolve(shard: u16) -> ShardMetrics {
        let rec = vlsa_telemetry::recorder();
        ShardMetrics {
            requests: rec.counter(metric::REQUESTS),
            ops: rec.counter(metric::OPS),
            stalls: rec.counter(metric::STALLS),
            exact_ops: rec.counter(metric::EXACT_OPS),
            batches: rec.counter(metric::BATCHES),
            deadline_exceeded: rec.counter(metric::DEADLINE_EXCEEDED),
            batch_ops: rec.histogram(metric::BATCH_OPS, DEFAULT_BUCKETS),
            batch_fill: rec.histogram(metric::BATCH_FILL, DEFAULT_BUCKETS),
            latency: rec.histogram(
                &labeled(metric::REQUEST_LATENCY_US, "shard", shard),
                DEFAULT_BUCKETS,
            ),
            queue_depth: rec.gauge(&labeled(metric::QUEUE_DEPTH, "shard", shard)),
            p50: rec.gauge(&labeled(metric::LATENCY_P50_US, "shard", shard)),
            p99: rec.gauge(&labeled(metric::LATENCY_P99_US, "shard", shard)),
            p999: rec.gauge(&labeled(metric::LATENCY_P999_US, "shard", shard)),
            degraded_shards: rec.gauge(metric::DEGRADED_SHARDS),
        }
    }
}

/// Pre-creates every per-shard instrument (plus the lazily-resolved
/// shed counter) at zero. Workers resolve their own handles at spawn,
/// which races the embedded history's first ingest tick — warming the
/// registry first guarantees the t=0 snapshot carries zero baselines,
/// so `increase()` over the whole run counts from the true start.
pub(crate) fn warm_metrics(shards: usize) {
    if !vlsa_telemetry::is_enabled() {
        return;
    }
    for shard in 0..shards {
        drop(ShardMetrics::resolve(shard as u16));
    }
    vlsa_telemetry::recorder().counter(metric::SHED);
}

/// Everything one worker generation needs, bundled for `spawn_worker`.
struct WorkerCtx {
    shard_id: u16,
    generation: u64,
    config: ShardConfig,
    stats: Arc<ShardStats>,
    degrade: Arc<AtomicBool>,
    degraded_total: Arc<AtomicU64>,
    health: Arc<ShardHealth>,
    epoch: Instant,
    hooks: PoolHooks,
}

impl WorkerCtx {
    /// Whether a newer generation owns the shard now.
    fn deposed(&self) -> bool {
        self.health.generation.load(Ordering::SeqCst) != self.generation
    }

    /// Answers jobs this (deposed) worker holds with typed `Retryable`
    /// frames — it no longer owns the shard, and the jobs were not
    /// executed.
    fn refuse_jobs(&self, jobs: Vec<Job>) {
        let n = jobs.len() as u64;
        for job in jobs {
            let frame = Frame::Error(
                ProtocolError::Retryable(format!(
                    "shard {} worker deposed before executing",
                    self.shard_id
                ))
                .to_frame(),
            );
            let _ = job.reply.send(Reply { frame, trace: None });
        }
        self.stats.retryable.fetch_add(n, Ordering::Relaxed);
        if vlsa_telemetry::is_enabled() {
            vlsa_telemetry::recorder().counter(metric::RETRYABLE).add(n);
        }
        if let Some(slo) = &self.hooks.slo {
            slo.record_retryable(n);
        }
        self.health.in_flight.store(0, Ordering::Relaxed);
    }

    /// Sheds one job that outwaited its deadline budget with a typed
    /// `DeadlineExceeded` frame.
    fn shed_expired(
        &self,
        job: Job,
        budget_us: u32,
        waited_us: u32,
        metrics: Option<&ShardMetrics>,
    ) {
        let frame = Frame::Error(
            ProtocolError::DeadlineExceeded {
                budget_us,
                waited_us,
            }
            .to_frame(),
        );
        let _ = job.reply.send(Reply { frame, trace: None });
        self.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = metrics {
            m.deadline_exceeded.incr();
        }
        if let Some(slo) = &self.hooks.slo {
            slo.record_deadline_exceeded(1);
        }
    }
}

fn worker_loop(ctx: &WorkerCtx, batcher: &Batcher<Job>) {
    let shard_id = ctx.shard_id;
    let config = &ctx.config;
    let stats = &ctx.stats;
    let adder = SpeculativeAdder::new(config.nbits, config.window).expect("validated in start");
    let mut pipeline = ResilientPipeline::new(adder, config.resilience);
    pipeline.set_degrade_signal(Arc::clone(&ctx.degrade));
    // The backend's executor runs inline on this worker: shards are
    // the server's unit of parallelism.
    let executor = executor_for(config.backend, config.nbits, config.window);
    let mut monitor = config.monitor_window_ops.map(|window_ops| {
        let mc = MonitorConfig::new(config.nbits, config.window).with_window_ops(window_ops);
        let mut m = ConformanceMonitor::new(mc);
        m.set_degrade_signal(Arc::clone(&ctx.degrade));
        m
    });
    let metrics = vlsa_telemetry::is_enabled().then(|| ShardMetrics::resolve(shard_id));
    let spans = vlsa_trace::recorder();
    // The worker's marker stack for the on-demand sampling profiler:
    // `/profile` snapshots tell you which phase each shard is in.
    let stack = vlsa_profile::register_thread(&format!("vlsa-shard-{shard_id}"));
    let f_wait = vlsa_profile::frame("batch_wait");
    let f_service = vlsa_profile::frame("pipeline_service");
    let f_monitor = vlsa_profile::frame("conformance_monitor");
    let f_pace = vlsa_profile::frame("device_pace");
    let f_reply = vlsa_profile::frame("reply_dispatch");
    let mask = if config.nbits == 64 {
        u64::MAX
    } else {
        (1u64 << config.nbits) - 1
    };
    // Clears the liveness latch when this worker unwinds (panic) or
    // returns, unless a successor already took over.
    let _alive = AliveGuard {
        health: Arc::clone(&ctx.health),
        generation: ctx.generation,
    };
    // The modeled device clock: the instant the device finished its
    // last batch.
    let mut device_free = Instant::now();
    let mut total_cycles = 0u64;
    // The degrade latch survives restarts: a successor of a degraded
    // worker must not re-count the shard into `degraded_total`.
    let mut was_degraded = stats.degraded.load(Ordering::Relaxed);
    // Conformance alerts are cumulative on the monitor; the SLO
    // correctness feed wants per-batch deltas.
    let mut seen_alerts = 0usize;

    loop {
        let (jobs, formation_start) = {
            let _in_wait = stack.push(f_wait);
            batcher.next_batch_timed()
        };
        if jobs.is_empty() {
            break; // closed and drained
        }
        ctx.health.touch(ctx.epoch);
        ctx.health
            .in_flight
            .store(jobs.len() as u64, Ordering::Relaxed);
        if ctx.deposed() {
            ctx.refuse_jobs(jobs);
            break;
        }
        // Planned chaos lands here: after the batch is held (so a kill
        // is a genuine mid-batch loss) and before compute.
        if let Some(chaos) = &ctx.hooks.chaos {
            match chaos.worker_fault(shard_id, total_cycles) {
                Some(WorkerFault::Panic) => {
                    panic!("chaos: injected kill of shard {shard_id} worker (mid-batch)")
                }
                Some(WorkerFault::Stall(wedge)) => {
                    // Deliberately no heartbeat: this is the wedge the
                    // watchdog exists to catch.
                    std::thread::sleep(wedge);
                    if ctx.deposed() {
                        ctx.refuse_jobs(jobs);
                        break;
                    }
                    ctx.health.touch(ctx.epoch);
                }
                None => {}
            }
        }
        // Deadline check at batch formation: a job that already
        // outwaited its client-stamped budget is answered with a typed
        // DeadlineExceeded instead of occupying compute.
        let mut batch_deadline_shed = 0u64;
        let mut kept = Vec::with_capacity(jobs.len());
        for job in jobs {
            match job.request.deadline_us {
                Some(budget_us) => {
                    let waited_us = us32(job.enqueued.elapsed());
                    if u64::from(waited_us) > u64::from(budget_us) {
                        ctx.shed_expired(job, budget_us, waited_us, metrics.as_ref());
                        batch_deadline_shed += 1;
                    } else {
                        kept.push(job);
                    }
                }
                None => kept.push(job),
            }
        }
        let jobs = kept;
        if jobs.is_empty() {
            // The whole batch expired; an all-shed batch is progress,
            // not an exit condition.
            ctx.health.in_flight.store(0, Ordering::Relaxed);
            continue;
        }
        let batch_ready = Instant::now();
        let batch_start_cycle = total_cycles;
        let batch_requests = jobs.len() as u64;
        let mut batch_cycles = 0u64;
        let mut batch_ops = 0u64;
        let mut batch_stalls = 0u64;
        let mut batch_exact = 0u64;
        let mut batch_residue = 0u64;
        let mut first_trace_id = None;
        let mut last_compute_end = batch_ready;
        let mut replies = Vec::with_capacity(jobs.len());
        for job in jobs {
            let _in_service = stack.push(f_service);
            // The pool routes every width through the same shard
            // pipeline; requests narrower than the shard adder still
            // add correctly because operands are masked to the
            // *request* width first and sums are masked on the way out.
            let ops: Vec<(u64, u64)> = job
                .request
                .ops
                .iter()
                .map(|&(a, b)| {
                    (
                        a & request_mask(job.request.nbits),
                        b & request_mask(job.request.nbits),
                    )
                })
                .collect();
            let batch = pipeline.run_batch_on(&*executor, &ops);
            if let Some(m) = monitor.as_mut() {
                let _in_monitor = stack.push(f_monitor);
                for (&(a, b), outcome) in ops.iter().zip(&batch.outcomes) {
                    m.observe(a & mask, b & mask, outcome.stalled, outcome.cycles);
                }
                if let Some(jt) = &job.trace {
                    // Drift alerts closing over this window cite the
                    // sampled requests that fed it.
                    m.note_exemplar(jt.trace_id);
                }
            }
            let compute_end = Instant::now();
            ctx.health.touch(ctx.epoch);
            last_compute_end = compute_end;
            batch_cycles += batch.stats.cycles;
            batch_ops += batch.stats.ops;
            batch_stalls += batch.stats.er_recoveries;
            batch_residue += batch.stats.residue_mismatches;
            if first_trace_id.is_none() {
                first_trace_id = job.trace.as_ref().map(|jt| jt.trace_id);
            }
            stats.requests.fetch_add(1, Ordering::Relaxed);
            stats.ops.fetch_add(batch.stats.ops, Ordering::Relaxed);
            stats
                .stalls
                .fetch_add(batch.stats.er_recoveries, Ordering::Relaxed);
            let exact = batch.outcomes.iter().filter(|o| o.exact_path).count() as u64;
            batch_exact += exact;
            stats.exact_ops.fetch_add(exact, Ordering::Relaxed);
            if let Some(m) = &metrics {
                m.requests.incr();
                m.ops.add(batch.stats.ops);
                m.stalls.add(batch.stats.er_recoveries);
                m.exact_ops.add(exact);
                // Lane occupancy: how this job's ops decompose into
                // 64-lane words. Recorded for both backends so flipping
                // `--backend` never changes which series exist.
                let mut remaining = batch.stats.ops;
                while remaining > 0 {
                    let fill = remaining.min(LANES as u64);
                    m.batch_fill.record(fill);
                    remaining -= fill;
                }
            }
            let results: Vec<OpResult> = batch
                .outcomes
                .iter()
                .map(|o| OpResult {
                    sum: o.sum & request_mask(job.request.nbits),
                    flags: u8::from(o.stalled) * FLAG_STALLED + u8::from(o.exact_path) * FLAG_EXACT,
                })
                .collect();
            // Phase decomposition: queue (enqueue → formation start),
            // linger (formation start → batch dispatch), service (batch
            // dispatch → this job computed — head-of-batch wait counts
            // as service of the batch). Phases are contiguous so they
            // sum to the request's server-side residency.
            let trace = job.trace.map(|jt| {
                let linger_from = formation_start.max(job.enqueued);
                RequestTrace {
                    trace_id: jt.trace_id,
                    request_id: job.request.request_id,
                    shard: shard_id,
                    nbits: job.request.nbits,
                    ops: batch.stats.ops as u32,
                    stalls: batch.stats.er_recoveries as u32,
                    exact_ops: exact as u32,
                    cycles: batch.stats.cycles,
                    start_us: jt.start_us,
                    queue_us: us32(formation_start.saturating_duration_since(job.enqueued)),
                    linger_us: us32(batch_ready.saturating_duration_since(linger_from)),
                    service_us: us32(compute_end.saturating_duration_since(batch_ready)),
                    pace_us: 0,  // filled after the pacing sleep
                    write_us: 0, // filled by the connection thread
                }
            });
            replies.push(PendingReply {
                request_id: job.request.request_id,
                results,
                reply: job.reply,
                enqueued: job.enqueued,
                echo: job.trace.is_some_and(|jt| jt.echo),
                trace,
                compute_end,
            });
        }
        total_cycles += batch_cycles;
        stats.batches.fetch_add(1, Ordering::Relaxed);

        // Pace to the modeled device: this batch completes
        // batch_cycles × cycle_ns after the device last went free (or
        // after compute began, if the device sat idle). Sleep in
        // bounded slices so the heartbeat keeps beating — a long
        // modeled pace is progress, not a wedge.
        if config.cycle_ns > 0 {
            let _in_pace = stack.push(f_pace);
            let now = Instant::now();
            if device_free < now {
                device_free = now;
            }
            device_free += Duration::from_nanos(batch_cycles.saturating_mul(config.cycle_ns));
            let mut now = Instant::now();
            while device_free > now {
                std::thread::sleep((device_free - now).min(Duration::from_millis(100)));
                ctx.health.touch(ctx.epoch);
                now = Instant::now();
            }
        }

        // Replies go out only once the modeled device is done, so the
        // measured latency includes the modeled service time. A reply
        // whose request expired during compute/pacing still gets its
        // sums — it was executed; deadline shedding only covers work
        // not yet started.
        let dispatch = Instant::now();
        let _in_reply = stack.push(f_reply);
        let latency_threshold_us = ctx.hooks.slo.as_ref().map(|slo| slo.latency_threshold_us());
        let (mut lat_good, mut lat_bad) = (0u64, 0u64);
        for pending in replies {
            let latency_us = pending.enqueued.elapsed().as_micros() as u64;
            if let Some(m) = &metrics {
                m.latency.record(latency_us);
            }
            if let Some(threshold) = latency_threshold_us {
                if latency_us <= threshold {
                    lat_good += 1;
                } else {
                    lat_bad += 1;
                }
            }
            let trace = pending.trace.map(|mut rt| {
                // Device pacing plus any tail of the batch computed
                // after this job — everything between this job's
                // compute end and reply dispatch.
                rt.pace_us = us32(dispatch.saturating_duration_since(pending.compute_end));
                rt
            });
            let timing = trace.filter(|_| pending.echo).map(|rt| ServerTiming {
                trace_id: rt.trace_id,
                queue_us: rt.queue_us,
                linger_us: rt.linger_us,
                service_us: rt.service_us,
                pace_us: rt.pace_us,
            });
            let frame = Frame::SumBatch(SumBatch {
                request_id: pending.request_id,
                shard: shard_id,
                results: pending.results,
                timing,
                unknown: Vec::new(),
            });
            // A send error means the client vanished; its result dies
            // with the channel, which is fine — the op was still
            // executed and accounted.
            let _ = pending.reply.send(Reply { frame, trace });
        }
        ctx.health.in_flight.store(0, Ordering::Relaxed);
        ctx.health.touch(ctx.epoch);

        let degraded_now = ctx.degrade.load(Ordering::Relaxed) || pipeline.is_degraded();
        if degraded_now && !was_degraded {
            was_degraded = true;
            stats.degraded.store(true, Ordering::Relaxed);
            ctx.degraded_total.fetch_add(1, Ordering::Relaxed);
        }

        // Feed the SLO accountant: availability good = every request
        // answered (sheds arrive via the submit path); latency verdicts
        // from the dispatch loop; correctness bad = residue mismatches
        // plus any conformance alerts this batch closed over.
        let alert_delta = monitor.as_ref().map_or(0, |m| {
            let total = m.alerts().len();
            let delta = total.saturating_sub(seen_alerts);
            seen_alerts = total;
            delta as u64
        });
        // Modeled time on this shard: cycles so far at the configured
        // cycle period (1 ns/cycle when unpaced, keeping the clock
        // monotone and deterministic in tests).
        let now_ns = total_cycles.saturating_mul(config.cycle_ns.max(1));
        ctx.hooks.clock.advance_to(now_ns);
        let verdict = ctx
            .hooks
            .slo
            .as_ref()
            .map(|slo| {
                let corr_bad = batch_residue + alert_delta;
                let corr_good = batch_ops.saturating_sub(corr_bad);
                slo.observe_batch(
                    now_ns,
                    batch_requests,
                    lat_good,
                    lat_bad,
                    corr_good,
                    corr_bad,
                )
            })
            .unwrap_or_default();
        if let Some(events) = &ctx.hooks.events {
            events.emit(&WideEvent {
                kind: "batch",
                shard: shard_id,
                requests: batch_requests.min(u64::from(u32::MAX)) as u32,
                ops: batch_ops,
                cycles: batch_cycles,
                wait_us: us32(batch_ready.saturating_duration_since(formation_start)),
                service_us: us32(last_compute_end.saturating_duration_since(batch_ready)),
                pace_us: us32(dispatch.saturating_duration_since(last_compute_end)),
                adder: if degraded_now { "exact" } else { "speculative" },
                stalls: batch_stalls,
                exact_ops: batch_exact,
                residue_mismatches: batch_residue,
                degraded: degraded_now,
                trace_id: first_trace_id,
                slo_pages_firing: verdict.pages_firing,
                slo_warns_firing: verdict.warns_firing,
                generation: ctx.generation,
                deadline_exceeded: batch_deadline_shed,
                retryable_drained: 0,
            });
        }

        if let Some(m) = &metrics {
            m.batches.incr();
            m.batch_ops.record(batch_ops);
            m.queue_depth.set(batcher.queue().len() as f64);
            for (gauge, q) in [(&m.p50, 0.5), (&m.p99, 0.99), (&m.p999, 0.999)] {
                if let Some(v) = m.latency.quantile(q) {
                    gauge.set(v);
                }
            }
            m.degraded_shards
                .set(ctx.degraded_total.load(Ordering::Relaxed) as f64);
        }
        if let Some(rec) = &spans {
            rec.record(
                TraceEvent::complete("batch", "server", batch_start_cycle, batch_cycles.max(1))
                    .on_track(u32::from(shard_id))
                    .arg("shard", u64::from(shard_id))
                    .arg("ops", batch_ops),
            );
        }
    }
    if let Some(m) = monitor.as_mut() {
        m.finish();
    }
}

/// A computed job parked between the compute loop and reply dispatch.
struct PendingReply {
    request_id: u64,
    results: Vec<OpResult>,
    reply: Sender<Reply>,
    enqueued: Instant,
    echo: bool,
    trace: Option<RequestTrace>,
    compute_end: Instant,
}

/// A duration as whole microseconds, saturating at `u32::MAX` (~71
/// minutes — far beyond any real phase).
fn us32(d: Duration) -> u32 {
    d.as_micros().min(u32::MAX as u128) as u32
}

fn request_mask(nbits: u8) -> u64 {
    if nbits >= 64 {
        u64::MAX
    } else {
        (1u64 << nbits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use vlsa_chaos::FaultPlan;

    fn submit_and_wait(pool: &ShardPool, request_id: u64, ops: Vec<(u64, u64)>) -> SumBatch {
        let (tx, rx) = channel();
        pool.submit(AddBatch::new(request_id, 32, ops), tx)
            .expect("accepted");
        match rx.recv().expect("reply").frame {
            Frame::SumBatch(s) => s,
            other => panic!("expected sums, got {other:?}"),
        }
    }

    fn fast_supervisor() -> SupervisorConfig {
        SupervisorConfig {
            enabled: true,
            poll: Duration::from_millis(5),
            wedge_timeout: Duration::from_millis(60),
        }
    }

    #[test]
    fn pool_delivers_correct_sums_with_shard_ids() {
        let pool = ShardPool::start(
            &ShardConfig {
                nbits: 32,
                window: 16,
                ..ShardConfig::default()
            },
            3,
        )
        .expect("valid config");
        for id in 0..6u64 {
            let sums = submit_and_wait(&pool, id, vec![(id, 100), (7, 8)]);
            assert_eq!(sums.request_id, id);
            assert_eq!(sums.shard, (id % 3) as u16);
            assert_eq!(sums.results.len(), 2);
            assert_eq!(sums.results[0].sum, id + 100);
            assert_eq!(sums.results[1].sum, 15);
        }
        let totals = pool.totals();
        assert_eq!(totals.requests, 6);
        assert_eq!(totals.ops, 12);
        assert_eq!(totals.shed, 0);
        assert_eq!(totals.restarts, 0);
        assert_eq!(totals.retryable, 0);
        assert_eq!(totals.deadline_exceeded, 0);
        pool.shutdown();
    }

    #[test]
    fn full_queue_sheds_with_a_busy_frame() {
        // One shard with a tiny queue and slow modeled pacing: a fat
        // first batch parks the worker in its pacing sleep (max_ops 1
        // keeps the batcher from lingering and draining the queue for
        // us), and the fill loop below then overfills the 2-deep queue
        // while the worker is provably not consuming.
        let pool = ShardPool::start(
            &ShardConfig {
                nbits: 32,
                window: 16,
                queue_capacity: 2,
                cycle_ns: 1_000_000,
                batch: BatchPolicy {
                    max_ops: 1,
                    linger: Duration::ZERO,
                },
                ..ShardConfig::default()
            },
            1,
        )
        .expect("valid config");
        let mut receivers = Vec::new();
        let (tx, rx) = channel();
        pool.submit(
            AddBatch::new(0, 32, vec![(1, 2); 200]), // ≥ 200 modeled ms of pacing
            tx,
        )
        .expect("empty queue accepts");
        receivers.push(rx);
        std::thread::sleep(Duration::from_millis(50));
        let mut busy = 0;
        for id in 1..=20u64 {
            let (tx, rx) = channel();
            match pool.submit(AddBatch::new(id, 32, vec![(1, 2)]), tx) {
                Ok(()) => receivers.push(rx),
                Err(frame) => match *frame {
                    Frame::Busy(b) => {
                        busy += 1;
                        assert_eq!(b.shard, 0);
                        assert!(b.queue_depth >= 1);
                    }
                    other => panic!("expected busy, got {other:?}"),
                },
            }
        }
        // The queue holds at most 2 of the 20, however the scheduler
        // interleaved the fill with the worker's wake-up.
        assert!(busy >= 18, "overfilled queue must shed, got {busy}");
        assert_eq!(pool.totals().shed, busy);
        // Every accepted request still gets its answer — shed ≠ drop.
        for rx in receivers {
            assert!(matches!(
                rx.recv().expect("reply").frame,
                Frame::SumBatch(_)
            ));
        }
        pool.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_a_typed_shutdown_error() {
        let pool = ShardPool::start(
            &ShardConfig {
                nbits: 32,
                window: 16,
                ..ShardConfig::default()
            },
            1,
        )
        .expect("valid config");
        pool.shutdown();
        assert!(pool.is_closing());
        let (tx, _rx) = channel();
        let err = pool
            .submit(AddBatch::new(1, 32, vec![(1, 2)]), tx)
            .expect_err("closed");
        match *err {
            Frame::Error(e) => assert_eq!(e.code, ProtocolError::Shutdown.code()),
            other => panic!("expected error frame, got {other:?}"),
        }
    }

    #[test]
    fn degrade_flag_flips_one_shard_to_the_exact_path() {
        let pool = ShardPool::start(
            &ShardConfig {
                nbits: 32,
                window: 16,
                ..ShardConfig::default()
            },
            2,
        )
        .expect("valid config");
        pool.degrade_flag(0).store(true, Ordering::Relaxed);
        // request_id 0 routes to shard 0 (degraded), 1 to shard 1.
        let degraded = submit_and_wait(&pool, 0, vec![(1, 2), (3, 4)]);
        assert!(degraded.results.iter().all(OpResult::exact_path));
        let healthy = submit_and_wait(&pool, 1, vec![(1, 2), (3, 4)]);
        assert!(healthy.results.iter().all(|r| !r.exact_path()));
        assert_eq!(degraded.results[0].sum, 3);
        assert_eq!(healthy.results[1].sum, 7);
        assert_eq!(pool.degraded_shards(), 1);
        assert!(pool.stats(0).degraded);
        assert!(!pool.stats(1).degraded);
        pool.shutdown();
    }

    #[test]
    fn a_killed_worker_is_restarted_and_the_shard_answers_again() {
        let chaos = Arc::new(ChaosInjector::new(
            "kill:shard=0@batch=2".parse::<FaultPlan>().expect("plan"),
        ));
        let pool = ShardPool::start_with_hooks(
            &ShardConfig {
                nbits: 32,
                window: 16,
                supervisor: fast_supervisor(),
                ..ShardConfig::default()
            },
            2,
            PoolHooks {
                chaos: Some(Arc::clone(&chaos)),
                ..PoolHooks::default()
            },
        )
        .expect("valid config");
        // Batch 1 on shard 0 is fine.
        assert_eq!(submit_and_wait(&pool, 0, vec![(1, 2)]).results[0].sum, 3);
        // Batch 2 trips the kill: the worker panics holding the job, so
        // the reply channel dies — the serving layer maps that to a
        // typed Retryable for the in-flight request.
        let (tx, rx) = channel();
        pool.submit(AddBatch::new(2, 32, vec![(5, 6)]), tx)
            .expect("accepted");
        assert!(rx.recv().is_err(), "sender died with the worker");
        let retry = pool.retryable_frame(2);
        match retry {
            Frame::Error(e) => assert_eq!(e.code, ProtocolError::CODE_RETRYABLE),
            other => panic!("expected retryable, got {other:?}"),
        }
        // The supervisor notices and restarts; the shard answers again
        // without a process (or pool) restart.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.stats(0).restarts == 0 {
            assert!(Instant::now() < deadline, "supervisor never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(submit_and_wait(&pool, 4, vec![(10, 20)]).results[0].sum, 30);
        assert_eq!(chaos.counts().kills, 1);
        assert_eq!(pool.restarts(), 1);
        assert!(pool.totals().retryable >= 1, "the lost job was accounted");
        // Shard 1 never noticed.
        assert_eq!(submit_and_wait(&pool, 1, vec![(2, 3)]).results[0].sum, 5);
        pool.shutdown();
    }

    #[test]
    fn a_wedged_worker_trips_the_watchdog_and_queued_work_is_refused_typed() {
        let chaos = Arc::new(ChaosInjector::new(
            "stall:shard=0@batch=1,ms=400"
                .parse::<FaultPlan>()
                .expect("plan"),
        ));
        let pool = ShardPool::start_with_hooks(
            &ShardConfig {
                nbits: 32,
                window: 16,
                supervisor: fast_supervisor(),
                ..ShardConfig::default()
            },
            1,
            PoolHooks {
                chaos: Some(Arc::clone(&chaos)),
                ..PoolHooks::default()
            },
        )
        .expect("valid config");
        // Job 1 is held by the stalled worker; job 2 (submitted while
        // it sleeps) sits in the queue.
        let (tx1, rx1) = channel();
        pool.submit(AddBatch::new(0, 32, vec![(1, 2)]), tx1)
            .expect("accepted");
        std::thread::sleep(Duration::from_millis(30)); // let batch 1 form alone
        let (tx2, rx2) = channel();
        pool.submit(AddBatch::new(1, 32, vec![(3, 4)]), tx2)
            .expect("accepted");
        // The watchdog deposes the wedged worker and evacuates job 2.
        let frame2 = rx2
            .recv_timeout(Duration::from_secs(5))
            .expect("queued job answered by the supervisor")
            .frame;
        match frame2 {
            Frame::Error(e) => assert_eq!(e.code, ProtocolError::CODE_RETRYABLE),
            other => panic!("expected retryable, got {other:?}"),
        }
        // The deposed worker wakes, sees the new generation, and
        // refuses the job it still holds — typed, never silent.
        let frame1 = rx1
            .recv_timeout(Duration::from_secs(5))
            .expect("held job answered by the deposed worker")
            .frame;
        match frame1 {
            Frame::Error(e) => assert_eq!(e.code, ProtocolError::CODE_RETRYABLE),
            other => panic!("expected retryable, got {other:?}"),
        }
        // The replacement answers new traffic.
        assert_eq!(submit_and_wait(&pool, 2, vec![(7, 8)]).results[0].sum, 15);
        let totals = pool.totals();
        assert_eq!(totals.restarts, 1);
        assert!(totals.retryable >= 2, "{totals:?}");
        assert_eq!(chaos.counts().stalls, 1);
        pool.shutdown();
    }

    #[test]
    fn the_degrade_latch_survives_a_worker_restart() {
        let chaos = Arc::new(ChaosInjector::new(
            "kill:shard=0@batch=2".parse::<FaultPlan>().expect("plan"),
        ));
        let pool = ShardPool::start_with_hooks(
            &ShardConfig {
                nbits: 32,
                window: 16,
                supervisor: fast_supervisor(),
                ..ShardConfig::default()
            },
            1,
            PoolHooks {
                chaos: Some(chaos),
                ..PoolHooks::default()
            },
        )
        .expect("valid config");
        pool.degrade_flag(0).store(true, Ordering::Relaxed);
        // Batch 1 latches the degrade state.
        assert!(submit_and_wait(&pool, 0, vec![(1, 2)]).results[0].exact_path());
        assert_eq!(pool.degraded_shards(), 1);
        // Batch 2 kills the worker; wait for the restart.
        let (tx, rx) = channel();
        pool.submit(AddBatch::new(1, 32, vec![(5, 6)]), tx)
            .expect("accepted");
        let _ = rx.recv(); // dies with the worker
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.stats(0).restarts == 0 {
            assert!(Instant::now() < deadline, "supervisor never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The successor is still degraded (shared latch), and the shard
        // is not double-counted.
        let sums = submit_and_wait(&pool, 2, vec![(10, 20)]);
        assert!(sums.results[0].exact_path(), "degrade latch survived");
        assert_eq!(pool.degraded_shards(), 1, "no double count across restart");
        assert!(pool.stats(0).degraded);
        pool.shutdown();
    }

    #[test]
    fn expired_deadlines_are_shed_with_a_typed_frame() {
        // Park the worker in modeled pacing with a fat first request,
        // then enqueue a request with a 1 ms budget — by the time the
        // worker forms its next batch, the budget is long gone.
        let pool = ShardPool::start(
            &ShardConfig {
                nbits: 32,
                window: 16,
                cycle_ns: 1_000_000, // 1 ms per cycle
                batch: BatchPolicy {
                    max_ops: 1,
                    linger: Duration::ZERO,
                },
                ..ShardConfig::default()
            },
            1,
        )
        .expect("valid config");
        let (tx, rx_fat) = channel();
        pool.submit(AddBatch::new(0, 32, vec![(1, 2); 100]), tx)
            .expect("accepted");
        std::thread::sleep(Duration::from_millis(10)); // worker is pacing now
        let (tx, rx) = channel();
        pool.submit(
            AddBatch::new(1, 32, vec![(3, 4)]).with_deadline_us(1_000),
            tx,
        )
        .expect("accepted");
        let frame = rx.recv().expect("answered").frame;
        match frame {
            Frame::Error(e) => {
                assert_eq!(e.code, ProtocolError::CODE_DEADLINE_EXCEEDED);
                assert!(e.detail.contains("budget 1000"), "{}", e.detail);
            }
            other => panic!("expected deadline exceeded, got {other:?}"),
        }
        // The fat request (no deadline) still gets real sums.
        assert!(matches!(
            rx_fat.recv().expect("answered").frame,
            Frame::SumBatch(_)
        ));
        let totals = pool.totals();
        assert_eq!(totals.deadline_exceeded, 1);
        // And a request with a generous budget is served normally.
        let (tx, rx) = channel();
        pool.submit(
            AddBatch::new(2, 32, vec![(5, 6)]).with_deadline_us(30_000_000),
            tx,
        )
        .expect("accepted");
        assert!(matches!(
            rx.recv().expect("reply").frame,
            Frame::SumBatch(_)
        ));
        pool.shutdown();
    }

    #[test]
    fn traced_jobs_come_back_with_a_contiguous_phase_decomposition() {
        let pool = ShardPool::start(
            &ShardConfig {
                nbits: 32,
                window: 16,
                cycle_ns: 1_000, // make device_pace nonzero and visible
                ..ShardConfig::default()
            },
            1,
        )
        .expect("valid config");
        let (tx, rx) = channel();
        let submitted = Instant::now();
        pool.submit_traced(
            AddBatch::new(5, 32, vec![(1, 2); 256]),
            tx,
            Some(JobTrace {
                trace_id: 0xFACE,
                echo: true,
                start_us: 12,
            }),
        )
        .expect("accepted");
        let reply = rx.recv().expect("reply");
        let observed_us = submitted.elapsed().as_micros() as u64;
        let rt = reply.trace.expect("sampled job carries a trace");
        assert_eq!(rt.trace_id, 0xFACE);
        assert_eq!(rt.request_id, 5);
        assert_eq!(rt.shard, 0);
        assert_eq!(rt.start_us, 12);
        assert_eq!(rt.ops, 256);
        // Phases sum to the server-side residency, which cannot exceed
        // what the submitter observed (write_us is still 0 here).
        assert_eq!(rt.write_us, 0);
        assert!(rt.total_us() <= observed_us + 1);
        // 256 single-cycle-ish ops at 1 µs/cycle: pacing must show up.
        assert!(rt.pace_us > 0, "{rt:?}");
        // The echoed wire timing mirrors the trace phases exactly.
        let Frame::SumBatch(sums) = reply.frame else {
            panic!("expected sums");
        };
        let timing = sums.timing.expect("echo requested");
        assert_eq!(timing.trace_id, 0xFACE);
        assert_eq!(
            timing.total_us(),
            u64::from(rt.queue_us)
                + u64::from(rt.linger_us)
                + u64::from(rt.service_us)
                + u64::from(rt.pace_us)
        );

        // echo: false keeps the wire clean but still returns the trace.
        let (tx, rx) = channel();
        pool.submit_traced(
            AddBatch::new(6, 32, vec![(3, 4)]),
            tx,
            Some(JobTrace {
                trace_id: 0xBEEF,
                echo: false,
                start_us: 0,
            }),
        )
        .expect("accepted");
        let reply = rx.recv().expect("reply");
        assert_eq!(reply.trace.expect("traced").trace_id, 0xBEEF);
        let Frame::SumBatch(sums) = reply.frame else {
            panic!("expected sums");
        };
        assert!(sums.timing.is_none(), "server-sampled replies stay bare");
        pool.shutdown();
    }

    #[test]
    fn hooked_pool_emits_wide_events_and_feeds_the_slo_accountant() {
        use crate::events::EventLogConfig;
        use vlsa_telemetry::Json;

        let slo = Arc::new(ServerSlo::new(vlsa_slo::Objectives::demo()));
        let events = Arc::new(EventLog::new(EventLogConfig::default()));
        let pool = ShardPool::start_with_hooks(
            &ShardConfig {
                nbits: 32,
                window: 16,
                ..ShardConfig::default()
            },
            1,
            PoolHooks {
                slo: Some(Arc::clone(&slo)),
                events: Some(Arc::clone(&events)),
                ..PoolHooks::default()
            },
        )
        .expect("valid config");
        for id in 0..4u64 {
            let sums = submit_and_wait(&pool, id, vec![(id, 10)]);
            assert_eq!(sums.results[0].sum, id + 10);
        }
        pool.shutdown();

        // One wide event per batch, each a parseable JSON line carrying
        // the canonical fields.
        assert!(events.emitted() >= 1, "batches must emit events");
        let jsonl = events.last_jsonl(16);
        let last = jsonl.lines().last().expect("at least one event");
        let doc = Json::parse(last).expect("valid JSON line");
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("batch"));
        assert_eq!(doc.get("shard").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("adder").and_then(Json::as_str), Some("speculative"));
        assert!(doc.get("ops").and_then(Json::as_u64).unwrap_or(0) >= 1);
        assert_eq!(doc.get("slo_pages_firing").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("generation").and_then(Json::as_u64), Some(0));

        // The SLO accountant saw the answered requests: its modeled
        // clock advanced and nothing is burning on a healthy stream.
        let status = slo.status_json();
        assert!(
            status
                .get("modeled_now_ns")
                .and_then(Json::as_u64)
                .unwrap_or(0)
                > 0
        );
        assert_eq!(slo.verdict(), crate::slo::SloVerdict::default());
    }

    #[test]
    fn modeled_pacing_slows_the_worker_down() {
        // 1 µs per cycle, ~1000 single-cycle ops → ≥ 1 ms of modeled
        // device time for the whole request.
        let pool = ShardPool::start(
            &ShardConfig {
                nbits: 64,
                window: 32,
                cycle_ns: 1_000,
                ..ShardConfig::default()
            },
            1,
        )
        .expect("valid config");
        let ops: Vec<(u64, u64)> = (0..1000).map(|i| (i, i + 1)).collect();
        let start = Instant::now();
        let sums = submit_and_wait(&pool, 0, ops);
        let elapsed = start.elapsed();
        assert_eq!(sums.results.len(), 1000);
        assert!(
            elapsed >= Duration::from_millis(1),
            "pacing should cost ≥ 1ms, took {elapsed:?}"
        );
        pool.shutdown();
    }
}
