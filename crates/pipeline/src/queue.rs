//! Processor-integration model: the VLSA behind an issue queue.
//!
//! §4.2 argues the speculative adder belongs "inside a processor": ops
//! arrive from an issue stage, the adder usually retires one per cycle,
//! and the rare recovery cycle backpressures the queue. This module
//! quantifies that — queue occupancy, waiting time, and drop behaviour
//! under a Bernoulli arrival process — so the `1 + p` average service
//! time can be judged as a *system* property, not just a device one.

use crate::VlsaPipeline;
use rand::Rng;
use std::collections::VecDeque;
use std::fmt;
use vlsa_batch::{OpVerdict, ScalarExecutor};
use vlsa_core::AddTally;
use vlsa_telemetry::names::pipeline as metric;
use vlsa_telemetry::DEFAULT_BUCKETS;
use vlsa_trace::TraceEvent;

/// Invalid [`QueueConfig`] geometry.
///
/// Queued runs validate their configuration and return this instead of
/// panicking, so a malformed config arriving from campaign files or
/// other external input is a recoverable error rather than a
/// worker-thread abort.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueueError {
    /// The arrival probability is not in `[0, 1]` (NaN included).
    InvalidArrivalProb {
        /// The rejected probability.
        arrival_prob: f64,
    },
    /// The queue capacity is zero — nothing could ever be accepted.
    ZeroCapacity,
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::InvalidArrivalProb { arrival_prob } => {
                write!(f, "arrival probability {arrival_prob} is not in [0, 1]")
            }
            QueueError::ZeroCapacity => write!(f, "queue capacity must be positive"),
        }
    }
}

impl std::error::Error for QueueError {}

/// Arrival process and queue geometry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueueConfig {
    /// Probability that a new operand pair arrives each cycle.
    pub arrival_prob: f64,
    /// Maximum operands waiting (arrivals beyond this are dropped and
    /// counted — i.e. the issue stage would have stalled).
    pub capacity: usize,
}

/// Aggregate statistics of a queued run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueueStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Operands that arrived.
    pub arrivals: u64,
    /// Operands completed (VALID results delivered).
    pub completed: u64,
    /// Arrivals rejected because the queue was full.
    pub dropped: u64,
    /// Recovery (stall) cycles taken by the adder.
    pub recovery_cycles: u64,
    /// Sum over completed ops of (completion − arrival) in cycles.
    pub total_wait_cycles: u64,
    /// Sum over cycles of the queue length (for the mean).
    pub queue_len_integral: u64,
    /// Largest queue length observed.
    pub max_queue_len: usize,
}

impl QueueStats {
    /// Mean cycles from arrival to completed result.
    pub fn mean_wait(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_wait_cycles as f64 / self.completed as f64
        }
    }

    /// Mean queue occupancy.
    pub fn mean_queue_len(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.queue_len_integral as f64 / self.cycles as f64
        }
    }

    /// Completed operations per cycle.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.completed as f64 / self.cycles as f64
        }
    }

    /// Fraction of arrivals dropped (issue-stage stalls).
    pub fn drop_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.dropped as f64 / self.arrivals as f64
        }
    }
}

impl fmt::Display for QueueStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops in {} cycles: wait {:.3} cyc, queue {:.3}, throughput {:.3}, drops {:.2e}",
            self.completed,
            self.cycles,
            self.mean_wait(),
            self.mean_queue_len(),
            self.throughput(),
            self.drop_rate()
        )
    }
}

impl VlsaPipeline {
    /// Runs the adder behind a bounded queue with Bernoulli arrivals
    /// for `cycles` cycles, drawing uniform random operands.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError`] if `arrival_prob` is not in `[0, 1]` or
    /// `capacity` is zero.
    ///
    /// # Panics
    ///
    /// Panics if the adder is wider than 64 bits.
    pub fn run_queued<R: Rng + ?Sized>(
        &mut self,
        config: QueueConfig,
        cycles: u64,
        rng: &mut R,
    ) -> Result<QueueStats, QueueError> {
        let nbits = self.adder().nbits();
        let mask = if nbits == 64 {
            u64::MAX
        } else {
            (1u64 << nbits) - 1
        };
        self.run_queued_ops(config, cycles, rng, |rng| {
            (rng.gen::<u64>() & mask, rng.gen::<u64>() & mask)
        })
    }

    /// [`VlsaPipeline::run_queued`] with a caller-supplied operand
    /// stream: `next_op` is invoked once per arrival. This is how
    /// adversarial workloads (e.g. always-stalling carry chains) are
    /// pushed through the queue model.
    ///
    /// When telemetry is enabled, records arrival/completion/drop
    /// counters (`vlsa.pipeline.queue_*`), the per-op wait histogram
    /// `vlsa.pipeline.queue_wait_cycles`, and occupancy gauges
    /// `vlsa.pipeline.queue_mean_len` / `vlsa.pipeline.queue_max_len`.
    ///
    /// When tracing is enabled, each completed op emits an `op` span
    /// covering arrival → completion with the queue depth attached
    /// (`qd`), recovery bubbles emit `recover`/`stall` spans, drops emit
    /// `drop` markers, and the occupancy is sampled as a `queue_depth`
    /// counter track whenever it changes.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError`] if `arrival_prob` is not in `[0, 1]` or
    /// `capacity` is zero.
    ///
    /// # Panics
    ///
    /// Panics if the adder is wider than 64 bits.
    pub fn run_queued_ops<R, F>(
        &mut self,
        config: QueueConfig,
        cycles: u64,
        rng: &mut R,
        mut next_op: F,
    ) -> Result<QueueStats, QueueError>
    where
        R: Rng + ?Sized,
        F: FnMut(&mut R) -> (u64, u64),
    {
        if !(0.0..=1.0).contains(&config.arrival_prob) {
            return Err(QueueError::InvalidArrivalProb {
                arrival_prob: config.arrival_prob,
            });
        }
        if config.capacity == 0 {
            return Err(QueueError::ZeroCapacity);
        }
        // Resolve instrument handles once; the per-cycle path then pays
        // only atomic updates.
        let wait_hist = vlsa_telemetry::is_enabled().then(|| {
            vlsa_telemetry::recorder().histogram(metric::QUEUE_WAIT_CYCLES, DEFAULT_BUCKETS)
        });
        let spans = vlsa_trace::recorder();
        let mut last_depth = u64::MAX; // force an initial queue_depth sample
        let mut stats = QueueStats {
            cycles,
            ..QueueStats::default()
        };
        let oracle = ScalarExecutor::new(self.adder().nbits(), self.adder().window());
        let mut adds = AddTally::default();
        // Queue of (a, b, arrival_cycle).
        let mut queue: VecDeque<(u64, u64, u64)> = VecDeque::new();
        // The head op's verdict and first service cycle, once it issues.
        let mut head: Option<(OpVerdict, u64)> = None;
        for cycle in 0..cycles {
            // Arrival at the start of the cycle.
            if rng.gen_bool(config.arrival_prob) {
                stats.arrivals += 1;
                if queue.len() < config.capacity {
                    let (a, b) = next_op(rng);
                    queue.push_back((a, b, cycle));
                } else {
                    stats.dropped += 1;
                    if let Some(rec) = &spans {
                        rec.record(TraceEvent::instant("drop", "queue", cycle).on_track(2));
                    }
                }
            }
            // Service: the head op holds the adder for `1 + ER` cycles.
            if let Some(&(a, b, arrived)) = queue.front() {
                let (v, issued) = *head.get_or_insert_with(|| {
                    let v = oracle.verdict(a, b);
                    adds.count(v.er, v.spec == v.exact);
                    if let (true, Some(rec)) = (v.er, &spans) {
                        rec.record(TraceEvent::instant("detect", "queue", cycle).on_track(1));
                    }
                    (v, cycle)
                });
                if cycle - issued == u64::from(v.er) {
                    head = None;
                    queue.pop_front();
                    let wait = cycle - arrived + 1;
                    stats.completed += 1;
                    stats.total_wait_cycles += wait;
                    stats.recovery_cycles += u64::from(v.er);
                    if let Some(hist) = &wait_hist {
                        hist.record(wait);
                    }
                    if let Some(rec) = &spans {
                        rec.record(
                            TraceEvent::complete("op", "queue", arrived, wait)
                                .arg("i", stats.completed - 1)
                                .arg("a", a)
                                .arg("b", b)
                                .arg("sum", if v.er { v.exact } else { v.spec })
                                .arg("err", u64::from(v.er))
                                .arg("qd", queue.len() as u64),
                        );
                        if v.er {
                            rec.record(
                                TraceEvent::complete("recover", "queue", cycle, 1).on_track(1),
                            );
                            rec.record(
                                TraceEvent::complete("stall", "queue", cycle, 1).on_track(2),
                            );
                        }
                    }
                }
            }
            stats.queue_len_integral += queue.len() as u64;
            stats.max_queue_len = stats.max_queue_len.max(queue.len());
            if let Some(rec) = &spans {
                let depth = queue.len() as u64;
                if depth != last_depth {
                    last_depth = depth;
                    rec.record(
                        TraceEvent::counter("queue_depth", "queue", cycle, depth).on_track(3),
                    );
                }
            }
        }
        if wait_hist.is_some() {
            let recorder = vlsa_telemetry::recorder();
            recorder.counter(metric::QUEUE_ARRIVALS).add(stats.arrivals);
            recorder
                .counter(metric::QUEUE_COMPLETED)
                .add(stats.completed);
            recorder.counter(metric::QUEUE_DROPPED).add(stats.dropped);
            recorder
                .counter(metric::QUEUE_RECOVERY_CYCLES)
                .add(stats.recovery_cycles);
            recorder
                .gauge(metric::QUEUE_MEAN_LEN)
                .set(stats.mean_queue_len());
            recorder
                .gauge(metric::QUEUE_MAX_LEN)
                .set_max(stats.max_queue_len as f64);
            adds.record();
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vlsa_core::SpeculativeAdder;

    fn pipeline(nbits: usize, window: usize) -> VlsaPipeline {
        VlsaPipeline::new(SpeculativeAdder::new(nbits, window).expect("valid"))
    }

    #[test]
    fn no_arrivals_means_nothing_happens() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(409);
        let stats = pipeline(32, 8)
            .run_queued(
                QueueConfig {
                    arrival_prob: 0.0,
                    capacity: 4,
                },
                10_000,
                &mut rng,
            )
            .expect("valid config");
        assert_eq!(stats.arrivals, 0);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.mean_wait(), 0.0);
        assert_eq!(stats.throughput(), 0.0);
    }

    #[test]
    fn light_load_has_single_cycle_waits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(419);
        let stats = pipeline(64, 64)
            .run_queued(
                QueueConfig {
                    arrival_prob: 0.3,
                    capacity: 8,
                },
                100_000,
                &mut rng,
            )
            .expect("valid config");
        assert_eq!(stats.dropped, 0);
        assert!(
            (stats.mean_wait() - 1.0).abs() < 1e-9,
            "{}",
            stats.mean_wait()
        );
        assert!((stats.throughput() - 0.3).abs() < 0.01);
    }

    #[test]
    fn full_load_exact_adder_keeps_up() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(421);
        let stats = pipeline(32, 32)
            .run_queued(
                QueueConfig {
                    arrival_prob: 1.0,
                    capacity: 4,
                },
                50_000,
                &mut rng,
            )
            .expect("valid config");
        // Service rate 1/cycle matches arrivals: no drops, wait 1.
        assert_eq!(stats.dropped, 0);
        assert!((stats.mean_wait() - 1.0).abs() < 1e-9);
        assert!(stats.max_queue_len <= 1);
    }

    #[test]
    fn full_load_with_errors_backs_up_and_drops() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(431);
        // Window 4 at 32 bits: ~20% of ops need two cycles, so the
        // queue saturates under back-to-back arrivals.
        let stats = pipeline(32, 4)
            .run_queued(
                QueueConfig {
                    arrival_prob: 1.0,
                    capacity: 4,
                },
                50_000,
                &mut rng,
            )
            .expect("valid config");
        assert!(stats.dropped > 0);
        assert_eq!(stats.max_queue_len, 4);
        assert!(stats.mean_wait() > 2.0, "{}", stats.mean_wait());
        assert!(stats.recovery_cycles > 1_000);
    }

    #[test]
    fn moderate_load_absorbs_recoveries() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(433);
        // 80% load, ~2% recovery rate: queue stays shallow.
        let stats = pipeline(64, 10)
            .run_queued(
                QueueConfig {
                    arrival_prob: 0.8,
                    capacity: 16,
                },
                200_000,
                &mut rng,
            )
            .expect("valid config");
        assert_eq!(stats.dropped, 0);
        assert!(stats.mean_wait() < 1.6, "{}", stats.mean_wait());
        assert!(stats.mean_queue_len() < 1.5, "{}", stats.mean_queue_len());
        let display = stats.to_string();
        assert!(display.contains("throughput"));
    }

    #[test]
    fn zero_capacity_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let err = pipeline(8, 8)
            .run_queued(
                QueueConfig {
                    arrival_prob: 0.5,
                    capacity: 0,
                },
                10,
                &mut rng,
            )
            .expect_err("zero capacity must be rejected");
        assert_eq!(err, QueueError::ZeroCapacity);
        assert!(err.to_string().contains("capacity"));
    }

    #[test]
    fn bad_arrival_probabilities_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for bad in [-0.1, 1.5, f64::NAN] {
            let err = pipeline(8, 8)
                .run_queued(
                    QueueConfig {
                        arrival_prob: bad,
                        capacity: 4,
                    },
                    10,
                    &mut rng,
                )
                .expect_err("bad probability must be rejected");
            match err {
                QueueError::InvalidArrivalProb { arrival_prob } => {
                    assert!(arrival_prob.is_nan() || arrival_prob == bad);
                    assert!(err.to_string().contains("not in [0, 1]"));
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn empty_stats_have_zero_derived_metrics() {
        let stats = QueueStats::default();
        assert_eq!(stats.mean_wait(), 0.0);
        assert_eq!(stats.mean_queue_len(), 0.0);
        assert_eq!(stats.throughput(), 0.0);
        assert_eq!(stats.drop_rate(), 0.0);
    }

    #[test]
    fn adversarial_stream_halves_throughput_and_drops_half() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(443);
        let cycles = 50_000u64;
        let capacity = 4usize;
        // Every op is the full-width carry chain: service time is
        // exactly 2 cycles, arrivals come every cycle, so the queue
        // saturates and half the offered load is shed.
        let stats = pipeline(32, 4)
            .run_queued_ops(
                QueueConfig {
                    arrival_prob: 1.0,
                    capacity,
                },
                cycles,
                &mut rng,
                |_| ((1u64 << 31) - 1, 1),
            )
            .expect("valid config");
        assert_eq!(stats.arrivals, cycles);
        // Every completed op needed its recovery cycle.
        assert_eq!(stats.recovery_cycles, stats.completed);
        assert!(
            (stats.throughput() - 0.5).abs() < 0.01,
            "{}",
            stats.throughput()
        );
        assert!(
            (stats.drop_rate() - 0.5).abs() < 0.01,
            "{}",
            stats.drop_rate()
        );
        assert_eq!(stats.max_queue_len, capacity);
        // The queue pins at capacity, so accepted ops wait ~2·capacity.
        // The queue alternates between capacity and capacity−1 (a pop
        // frees one slot every other cycle), so the mean sits at ~3.5.
        assert!(
            stats.mean_queue_len() > capacity as f64 - 0.6,
            "{}",
            stats.mean_queue_len()
        );
        assert!(
            stats.mean_wait() > 2.0 * capacity as f64 - 1.0,
            "{}",
            stats.mean_wait()
        );
        // Conservation: every arrival is completed, dropped, or still
        // queued when the clock stops.
        let outstanding = stats.arrivals - stats.completed - stats.dropped;
        assert!(outstanding <= capacity as u64, "{outstanding}");
    }

    #[test]
    fn alternating_stream_recovers_on_exactly_half_the_ops() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(449);
        let mut toggle = false;
        let stats = pipeline(16, 4)
            .run_queued_ops(
                QueueConfig {
                    arrival_prob: 0.4,
                    capacity: 16,
                },
                100_000,
                &mut rng,
                |_| {
                    toggle = !toggle;
                    if toggle {
                        (0x7FFF, 1) // full carry chain: always stalls
                    } else {
                        (1, 2) // clean
                    }
                },
            )
            .expect("valid config");
        assert_eq!(stats.dropped, 0);
        let recovery_share = stats.recovery_cycles as f64 / stats.completed as f64;
        assert!((recovery_share - 0.5).abs() < 0.02, "{recovery_share}");
        // Light enough load that waits stay finite and small.
        assert!(stats.mean_wait() < 3.0, "{}", stats.mean_wait());
    }

    #[test]
    fn drop_accounting_under_tiny_queue() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(457);
        // Capacity 1 with certain arrivals and always-stalling service:
        // the head op holds the slot for 2 cycles, so at most every
        // other arrival is accepted.
        let stats = pipeline(8, 2)
            .run_queued_ops(
                QueueConfig {
                    arrival_prob: 1.0,
                    capacity: 1,
                },
                10_000,
                &mut rng,
                |_| (0x7F, 1),
            )
            .expect("valid config");
        assert!(stats.dropped >= stats.completed, "{stats}");
        let outstanding = stats.arrivals - stats.completed - stats.dropped;
        assert!(outstanding <= 1, "{stats}");
        assert_eq!(stats.max_queue_len, 1);
    }
}
