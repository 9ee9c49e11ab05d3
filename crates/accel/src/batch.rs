//! Cross-request batch scheduling: shape-coalesced waves over many
//! independent request DAGs.
//!
//! The machine model of [`machine`](crate::machine) keeps one request's
//! residue tasks in flight at a time, so the butterfly lanes idle
//! whenever a single ciphertext cannot fill every VPU slot. This module
//! adds the throughput executor: a [`BatchScheduler`] takes the
//! operation DAGs of many **independent** requests, groups
//! structurally-ready tasks by `(kind, n)` shape into *waves*, and
//! executes each wave as one fanned-out dispatch:
//!
//! - the kernel shape (NTT tables, automorphism control bits) is
//!   measured **once** into the shape memo ([`ShapeMemo`]), not once
//!   per task;
//! - keyswitch digit products of distinct ciphertexts ride the same
//!   wave, so the twiddle/key operand stream is fetched once per VPU
//!   slot and every same-shape follower on that slot skips the
//!   re-fetch ([`shared_stream_bytes`]);
//! - RNS limbs of distinct requests are sharded across VPU slots
//!   (earliest-free-slot within the wave, ties to the lowest slot), so
//!   lanes a single ciphertext leaves idle are filled by its
//!   neighbours' limbs.
//!
//! Waves are one order of the crate's single scheduling core; the
//! sequential references run the same core once per request in
//! submission order and lay the calls end to end.
//!
//! **Determinism contract.** Batched execution is *bit-identical* to
//! per-request sequential execution in everything a client can observe:
//! per-request task digests and aggregate pipeline cycle statistics are
//! byte-equal at every `UVPU_THREADS` setting, because wave formation,
//! slot sharding, and retry handling all run on the virtual cycle
//! timeline and the kernel measurements come from the same
//! deterministic simulator. What batching *is allowed* to change is the
//! timeline itself — makespan shrinks and lane occupancy rises; that is
//! the optimization being measured.

use crate::config::AcceleratorConfig;
use crate::graph::TaskGraph;
use crate::machine::{AccelReport, Accelerator};
use crate::recovery::{RetryPolicy, TaskExecutor};
use crate::sched::{self, Order, Pricing};
use crate::workload::{FheOp, ShapeMemo, Task, TaskKind};
use crate::AccelError;

/// One independent request: an id for reporting plus its task DAG.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// Caller-chosen identifier carried into the report slices.
    pub id: u64,
    /// The request's operation DAG (flat lists are DAGs with no edges).
    pub graph: TaskGraph,
}

impl BatchRequest {
    /// A request over an explicit DAG.
    #[must_use]
    pub fn new(id: u64, graph: TaskGraph) -> Self {
        Self { id, graph }
    }

    /// A request of independent tasks (no dependency edges).
    #[must_use]
    pub fn from_tasks(id: u64, tasks: &[Task]) -> Self {
        Self {
            id,
            graph: TaskGraph::flat(tasks),
        }
    }

    /// A request lowering one homomorphic operation to its RNS tasks.
    #[must_use]
    pub fn from_op(id: u64, op: FheOp) -> Self {
        Self::from_tasks(id, &op.lower())
    }
}

/// Bytes of a task's NoC transfer that are a *shared operand stream* —
/// twiddle factors for NTTs, key digits for keyswitch accumulation —
/// identical for every same-shape task in a wave. A slot that just ran
/// a task of the same wave keeps the stream resident and skips the
/// re-fetch; only the per-ciphertext data is moved.
///
/// Single-pass element-wise tasks and automorphisms carry no shared
/// stream (their operands are all per-ciphertext), so they save
/// nothing.
#[must_use]
pub fn shared_stream_bytes(kind: TaskKind, n: usize) -> usize {
    match kind {
        // One twiddle (resp. key-digit) polynomial of `n` 8-byte words.
        TaskKind::Ntt => n * 8,
        TaskKind::Elementwise { passes } if passes >= 2 => n * 8,
        TaskKind::Elementwise { .. } | TaskKind::Automorphism => 0,
    }
}

/// Per-wave accounting in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveStats {
    /// Kernel shape the wave coalesces.
    pub kind: TaskKind,
    /// Ring degree of the wave's tasks.
    pub n: usize,
    /// Tasks fanned out in this wave.
    pub tasks: usize,
    /// Distinct VPU slots the wave landed on.
    pub slots_used: usize,
    /// Wave start (first task's NoC issue) on the cycle timeline.
    pub start: u64,
    /// Wave end (last member's completion) on the cycle timeline.
    pub end: u64,
    /// NoC bytes the wave avoided re-fetching via stream sharing.
    pub stream_bytes_saved: u64,
}

/// One request's slice of a batch (or sequential) execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSlice {
    /// The request's [`BatchRequest::id`].
    pub id: u64,
    /// Tasks the request contributed.
    pub task_count: usize,
    /// Lane-busy cycles of every attempt of its tasks: pipeline plus
    /// detector cycles, retries included, backoff excluded. The slices
    /// sum to [`BatchReport::busy_lane_cycles`].
    pub compute_cycles: u64,
    /// Cycle at which the request's last task finished.
    pub finish: u64,
    /// Final output digest per task in the request's task order
    /// (empty on the model-only path, which has no executor).
    pub task_digests: Vec<u64>,
}

/// Report of one batch execution.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Aggregate machine report over the whole batch.
    pub report: AccelReport,
    /// Per-request slices in submission order.
    pub per_request: Vec<RequestSlice>,
    /// Waves in execution order (empty for sequential reference runs).
    pub waves: Vec<WaveStats>,
    /// Compute cycles lanes actually spent busy, summed over slots.
    pub busy_lane_cycles: u64,
    /// `makespan × vpu_count`: the cycles the slots *could* have spent.
    pub total_lane_cycles: u64,
    /// Retries across all tasks (recovery path only).
    pub retries: u64,
    /// Detector-flagged attempts (recovery path only).
    pub detected_faults: u64,
    /// Slots quarantined, in quarantine order (recovery path only).
    pub quarantined_slots: Vec<usize>,
}

impl BatchReport {
    /// Lane occupancy in parts per million:
    /// `busy_lane_cycles / total_lane_cycles`, integer fixed-point.
    /// `0` for an empty batch (no division by zero).
    #[must_use]
    pub fn occupancy_ppm(&self) -> u64 {
        ratio_ppm(self.busy_lane_cycles, self.total_lane_cycles)
    }

    /// Mean wave fill in parts per million: slots used per wave over
    /// slots available, averaged across waves. `0` when no waves ran.
    #[must_use]
    pub fn wave_fill_ppm(&self) -> u64 {
        let v = self.report.vpu_busy.len();
        let filled: u64 = self.waves.iter().map(|w| w.slots_used as u64).sum();
        ratio_ppm(filled, (self.waves.len() * v) as u64)
    }
}

/// `part / whole` in parts per million, `0` when `whole` is zero.
#[must_use]
pub fn ratio_ppm(part: u64, whole: u64) -> u64 {
    if whole == 0 {
        0
    } else {
        u64::try_from(u128::from(part) * 1_000_000 / u128::from(whole)).unwrap_or(u64::MAX)
    }
}

/// The cross-request throughput executor.
///
/// Construction validates the accelerator configuration once; the
/// scheduler itself is stateless between runs, so one instance can
/// serve every drain cycle of a service.
#[derive(Debug, Clone)]
pub struct BatchScheduler {
    config: AcceleratorConfig,
}

impl BatchScheduler {
    /// A scheduler for the given machine shape.
    ///
    /// # Errors
    ///
    /// [`AccelError::InvalidConfig`] on a bad configuration.
    pub fn new(config: AcceleratorConfig) -> Result<Self, AccelError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The machine configuration.
    #[must_use]
    pub const fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Executes `requests` as shape-coalesced waves on the fault-free
    /// machine model. Kernel shapes already present in `memo` are not
    /// re-measured; missing shapes are measured once and inserted.
    ///
    /// The returned slices carry no digests (there is no executor on
    /// this path); result digests of the model path are metadata-only
    /// and identical batched or not.
    ///
    /// # Errors
    ///
    /// Kernel-mapping errors or SRAM overflow.
    pub fn run(
        &self,
        requests: &[BatchRequest],
        memo: &mut ShapeMemo,
    ) -> Result<BatchReport, AccelError> {
        self.batched(requests, Pricing::Memo(memo))
    }

    /// Executes `requests` as waves through a [`TaskExecutor`] under
    /// `policy` — the degraded-mode twin of [`BatchScheduler::run`].
    ///
    /// A detected-faulty attempt retries on its own slot after the
    /// policy backoff; a slot crossing the quarantine threshold is
    /// retired, and **only its wave members are re-routed**: the
    /// faulted task and any not-yet-dispatched members of the current
    /// wave remap to the earliest healthy slot, while completed wave
    /// members and other waves are untouched. Digest order inside each
    /// slice follows the request's own task order, so a per-request
    /// digest fold is bit-identical to sequential execution.
    ///
    /// # Errors
    ///
    /// As [`BatchScheduler::run`], plus
    /// [`AccelError::FaultUnrecoverable`] when a task exhausts its
    /// retry budget.
    pub fn run_with_recovery(
        &self,
        requests: &[BatchRequest],
        exec: &mut dyn TaskExecutor,
        policy: &RetryPolicy,
    ) -> Result<BatchReport, AccelError> {
        self.batched(requests, Pricing::Executor(exec, policy))
    }

    /// Sequential reference: each request scheduled alone, one after
    /// another, as [`TaskGraph::schedule_memoized`] schedules it — the
    /// exact baseline the occupancy win is measured against. Wave list is
    /// empty; slices and aggregate statistics line up with
    /// [`BatchScheduler::run`] for comparison.
    ///
    /// # Errors
    ///
    /// As [`BatchScheduler::run`].
    pub fn run_sequential(
        &self,
        requests: &[BatchRequest],
        memo: &mut ShapeMemo,
    ) -> Result<BatchReport, AccelError> {
        self.sequential(requests, |graph| {
            sched::run(
                &self.config,
                &[graph],
                Order::Submission,
                Pricing::Memo(memo),
            )
        })
    }

    /// Sequential reference of the recovery path: each request's tasks
    /// run alone, without edges, as
    /// [`run_tasks_with_recovery`](Accelerator::run_tasks_with_recovery)
    /// runs them, in submission order — the digest oracle for the batch
    /// determinism contract.
    ///
    /// # Errors
    ///
    /// As [`BatchScheduler::run_with_recovery`].
    pub fn run_sequential_with_recovery(
        &self,
        requests: &[BatchRequest],
        exec: &mut dyn TaskExecutor,
        policy: &RetryPolicy,
    ) -> Result<BatchReport, AccelError> {
        self.sequential(requests, |graph| {
            let flat = TaskGraph::flat(graph.tasks());
            let pricing = Pricing::Executor(exec, policy);
            sched::run(&self.config, &[&flat], Order::Submission, pricing)
        })
    }

    /// One core call over every request in wave order, with request ids
    /// attached to the slices.
    fn batched(
        &self,
        requests: &[BatchRequest],
        pricing: Pricing<'_>,
    ) -> Result<BatchReport, AccelError> {
        let graphs: Vec<&TaskGraph> = requests.iter().map(|r| &r.graph).collect();
        let (mut batch, _) = sched::run(&self.config, &graphs, Order::Waves, pricing)?;
        for (slice, request) in batch.per_request.iter_mut().zip(requests) {
            slice.id = request.id;
        }
        Ok(batch)
    }

    /// The sequential references: one `run_one` core call per request,
    /// laid end to end on the timeline. A request's slice finishes at its
    /// call's makespan; counters, busy cycles and memo accounting are the
    /// sums of the per-call reports, and no quarantine carries over.
    fn sequential(
        &self,
        requests: &[BatchRequest],
        mut run_one: impl FnMut(&TaskGraph) -> Result<(BatchReport, u64), AccelError>,
    ) -> Result<BatchReport, AccelError> {
        let v = self.config.vpu_count;
        let mut total = sched::empty_report(v);
        for request in requests {
            let (one, _) = run_one(&request.graph)?;
            let (sum, r) = (&mut total.report, &one.report);
            for slice in one.per_request {
                total.per_request.push(RequestSlice {
                    id: request.id,
                    finish: sum.makespan + r.makespan,
                    ..slice
                });
            }
            sum.makespan += r.makespan;
            for (busy, one) in sum.vpu_busy.iter_mut().zip(&r.vpu_busy) {
                *busy += one;
            }
            sum.vpu_stats += r.vpu_stats;
            sum.noc_cycles += r.noc_cycles;
            sum.sram_traffic_bytes += r.sram_traffic_bytes;
            sum.task_count += r.task_count;
            sum.memo_hits += r.memo_hits;
            sum.memo_misses += r.memo_misses;
            total.busy_lane_cycles += one.busy_lane_cycles;
            total.retries += one.retries;
            total.detected_faults += one.detected_faults;
        }
        total.total_lane_cycles = total.report.makespan * v as u64;
        Ok(total)
    }
}

impl Accelerator {
    /// Runs many independent requests as shape-coalesced waves — see
    /// [`BatchScheduler::run`].
    ///
    /// # Errors
    ///
    /// As [`BatchScheduler::run`].
    pub fn run_batch(
        &mut self,
        requests: &[BatchRequest],
        memo: &mut ShapeMemo,
    ) -> Result<BatchReport, AccelError> {
        BatchScheduler::new(*self.config())?.run(requests, memo)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use uvpu_core::stats::CycleStats;

    fn config(vpus: usize) -> AcceleratorConfig {
        AcceleratorConfig {
            vpu_count: vpus,
            ..AcceleratorConfig::default()
        }
    }

    fn requests(n: usize, count: usize) -> Vec<BatchRequest> {
        (0..count)
            .map(|i| {
                BatchRequest::from_op(
                    i as u64,
                    FheOp::HMult {
                        n,
                        limbs: 1 + i % 2,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn empty_batch_is_trivial() {
        let sched = BatchScheduler::new(config(4)).unwrap();
        let mut memo = ShapeMemo::new();
        let r = sched.run(&[], &mut memo).unwrap();
        assert_eq!(r.report.makespan, 0);
        assert_eq!(r.occupancy_ppm(), 0, "empty batch: no division by zero");
        assert_eq!(r.wave_fill_ppm(), 0, "no waves: fill is zero");
        assert!(r.per_request.is_empty());
    }

    #[test]
    fn single_task_batch_edges() {
        let sched = BatchScheduler::new(config(4)).unwrap();
        let mut memo = ShapeMemo::new();
        let reqs = [BatchRequest::from_op(7, FheOp::Ntt { n: 256 })];
        let r = sched.run(&reqs, &mut memo).unwrap();
        assert_eq!(r.waves.len(), 1);
        assert_eq!(r.waves[0].tasks, 1);
        assert_eq!(r.waves[0].slots_used, 1);
        // One task on a 4-slot machine: a quarter of the waves' slots.
        assert_eq!(r.wave_fill_ppm(), 250_000);
        assert!(r.occupancy_ppm() > 0 && r.occupancy_ppm() < 1_000_000);
        assert_eq!(r.per_request[0].id, 7);
        assert_eq!(r.per_request[0].finish, r.report.makespan);
    }

    #[test]
    fn batching_conserves_work_and_raises_occupancy() {
        let sched = BatchScheduler::new(config(4)).unwrap();
        let reqs = requests(512, 6);
        let mut memo = ShapeMemo::new();
        let batched = sched.run(&reqs, &mut memo).unwrap();
        let seq = sched.run_sequential(&reqs, &mut memo).unwrap();
        // The determinism contract: pipeline work is conserved exactly.
        assert_eq!(batched.report.vpu_stats, seq.report.vpu_stats);
        assert_eq!(batched.busy_lane_cycles, seq.busy_lane_cycles);
        assert_eq!(batched.report.task_count, seq.report.task_count);
        for (b, s) in batched.per_request.iter().zip(&seq.per_request) {
            assert_eq!(b.compute_cycles, s.compute_cycles);
            assert_eq!(b.task_count, s.task_count);
        }
        // The optimization: coalesced waves finish sooner and keep the
        // lanes fuller than one-request-at-a-time execution.
        assert!(batched.report.makespan < seq.report.makespan);
        assert!(batched.occupancy_ppm() > seq.occupancy_ppm());
        // Stream sharing moved fewer bytes for the same result.
        assert!(batched.report.sram_traffic_bytes < seq.report.sram_traffic_bytes);
        let saved: u64 = batched.waves.iter().map(|w| w.stream_bytes_saved).sum();
        assert_eq!(
            batched.report.sram_traffic_bytes + saved,
            seq.report.sram_traffic_bytes
        );
    }

    #[test]
    fn waves_coalesce_same_shapes_across_requests() {
        let sched = BatchScheduler::new(config(4)).unwrap();
        let reqs: Vec<BatchRequest> = (0..5)
            .map(|i| BatchRequest::from_op(i, FheOp::Ntt { n: 512 }))
            .collect();
        let mut memo = ShapeMemo::new();
        let r = sched.run(&reqs, &mut memo).unwrap();
        assert_eq!(r.waves.len(), 1, "five same-shape requests: one wave");
        assert_eq!(r.waves[0].tasks, 5);
        assert_eq!(r.waves[0].slots_used, 4, "sharded across every slot");
        assert_eq!(r.report.memo_misses, 1);
        assert_eq!(r.report.memo_hits, 4);
    }

    #[test]
    fn dag_dependencies_are_respected_in_waves() {
        // Two-stage chains: stage 1 cannot start before stage 0 ends.
        let mut reqs = Vec::new();
        for id in 0..3u64 {
            let mut g = TaskGraph::new();
            let a = g.add(
                Task {
                    kind: TaskKind::Ntt,
                    n: 256,
                    noc_bytes: 2 * 256 * 8,
                },
                &[],
            );
            g.add(
                Task {
                    kind: TaskKind::Elementwise { passes: 2 },
                    n: 256,
                    noc_bytes: 3 * 256 * 8,
                },
                &[a],
            );
            reqs.push(BatchRequest::new(id, g));
        }
        let sched = BatchScheduler::new(config(2)).unwrap();
        let mut memo = ShapeMemo::new();
        let r = sched.run(&reqs, &mut memo).unwrap();
        assert_eq!(r.waves.len(), 2, "one NTT wave, one ewise wave");
        assert!(r.waves[0].end <= r.waves[1].end);
        // Every dependent task starts after its predecessor finished:
        // per-request finish is the second task's end.
        for slice in &r.per_request {
            assert!(slice.finish > 0);
        }
    }

    #[test]
    fn batch_is_thread_count_invariant() {
        let run = || {
            let sched = BatchScheduler::new(config(3)).unwrap();
            let mut memo = ShapeMemo::new();
            sched.run(&requests(256, 5), &mut memo).unwrap()
        };
        let base = uvpu_par::with_threads(1, run);
        for threads in [2, 4, 7] {
            assert_eq!(
                base,
                uvpu_par::with_threads(threads, run),
                "{threads} threads"
            );
        }
    }

    /// Slot 0 is persistently faulty; everything else is clean.
    struct Flaky;

    impl TaskExecutor for Flaky {
        fn execute(
            &mut self,
            _task: &Task,
            slot: usize,
            _attempt: u32,
        ) -> Result<crate::recovery::TaskAttempt, AccelError> {
            let bad = slot == 0;
            let mut stats = CycleStats::new();
            stats.elementwise = 10;
            Ok(crate::recovery::TaskAttempt {
                stats,
                digest: if bad { 0xbad } else { 0x900d },
                check_cycles: 1,
                detected: bad,
            })
        }
    }

    fn flaky_policy() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            backoff_cycles: 8,
            quarantine_threshold: 2,
        }
    }

    fn single_task_requests(count: u64) -> Vec<BatchRequest> {
        (0..count)
            .map(|i| {
                BatchRequest::from_tasks(
                    i,
                    &[Task {
                        kind: TaskKind::Elementwise { passes: 1 },
                        n: 64,
                        noc_bytes: 64 * 8,
                    }],
                )
            })
            .collect()
    }

    #[test]
    fn recovery_path_confines_retries_to_wave_members() {
        let sched = BatchScheduler::new(config(3)).unwrap();
        let reqs = single_task_requests(4);
        let r = sched
            .run_with_recovery(&reqs, &mut Flaky, &flaky_policy())
            .unwrap();
        assert_eq!(r.quarantined_slots, vec![0]);
        assert!(r.detected_faults >= 2);
        for slice in &r.per_request {
            assert_eq!(slice.task_digests, vec![0x900d], "all converge clean");
        }
        // Slots 1 and 2 did the real work after the quarantine.
        assert!(r.report.vpu_busy[1] + r.report.vpu_busy[2] > r.report.vpu_busy[0]);
    }

    #[test]
    fn request_compute_sums_to_busy_lanes_on_every_path() {
        let sched = BatchScheduler::new(config(3)).unwrap();
        let reqs = single_task_requests(4);
        let policy = flaky_policy();
        let mut memo = ShapeMemo::new();
        let runs = [
            ("run", sched.run(&reqs, &mut memo).unwrap(), false),
            (
                "run_sequential",
                sched.run_sequential(&reqs, &mut memo).unwrap(),
                false,
            ),
            (
                "run_with_recovery",
                sched.run_with_recovery(&reqs, &mut Flaky, &policy).unwrap(),
                true,
            ),
            (
                "run_sequential_with_recovery",
                sched
                    .run_sequential_with_recovery(&reqs, &mut Flaky, &policy)
                    .unwrap(),
                true,
            ),
        ];
        for (path, r, executor) in runs {
            let compute: u64 = r.per_request.iter().map(|s| s.compute_cycles).sum();
            assert_eq!(
                compute, r.busy_lane_cycles,
                "{path}: backoff is not compute"
            );
            if executor {
                assert!(r.retries > 0, "{path}: the scenario must retry");
                let attempts = r.report.task_count as u64 + r.retries;
                assert_eq!(r.report.memo_hits, 0, "{path}");
                assert_eq!(
                    r.report.memo_misses, attempts,
                    "{path}: one miss per attempt"
                );
            }
        }
    }

    #[test]
    fn ratio_ppm_edges() {
        assert_eq!(ratio_ppm(0, 0), 0);
        assert_eq!(ratio_ppm(5, 0), 0);
        assert_eq!(ratio_ppm(1, 4), 250_000);
        assert_eq!(ratio_ppm(4, 4), 1_000_000);
        assert_eq!(ratio_ppm(u64::MAX, 1), u64::MAX, "saturates, never panics");
    }
}
