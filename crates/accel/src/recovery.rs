//! Retry/quarantine recovery: the attempt loop of the scheduling core.
//!
//! Every attempt runs through a [`TaskExecutor`], which may inject
//! faults and run online detectors (see the `uvpu-fault` crate). The
//! fault-free entry points price tasks with an executor that reads the
//! shape memo and never detects, so all of them share this one state
//! machine;
//! [`run_tasks_with_recovery`](crate::machine::Accelerator::run_tasks_with_recovery)
//! is the flat entry point with a caller-supplied executor.
//!
//! 1. **Retry**: a detected-faulty attempt is re-executed from its input
//!    operands on the same VPU slot, charging the NoC re-fetch, a
//!    configurable backoff, and the full re-compute to the timeline.
//! 2. **Quarantine**: a slot accumulating [`RetryPolicy::quarantine_threshold`]
//!    detections is marked degraded; the scheduler stops placing work on
//!    it and remaps in-flight retries to the earliest healthy slot
//!    (paper-level analogue of column remapping around a bad lane).
//!    The last healthy slot is never quarantined.
//! 3. **Surrender**: a task still failing detection after
//!    [`RetryPolicy::max_retries`] retries surfaces as
//!    [`AccelError::FaultUnrecoverable`] instead of a panic or silent
//!    corruption.

use crate::graph::TaskGraph;
use crate::machine::{AccelReport, Accelerator};
use crate::sched::{self, Order, Pricing};
use crate::workload::Task;
use crate::AccelError;
use std::fmt;
use uvpu_core::stats::CycleStats;

/// Outcome of one execution attempt of one task, as reported by a
/// [`TaskExecutor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskAttempt {
    /// Pipeline cycles spent computing this attempt (charged to the
    /// slot whether or not the attempt was detected faulty).
    pub stats: CycleStats,
    /// Digest of the attempt's output vector (implementation-defined,
    /// but stable for identical outputs) — lets a campaign classify
    /// silent corruption against a fault-free golden digest.
    pub digest: u64,
    /// Extra cycles spent by online detectors on this attempt.
    pub check_cycles: u64,
    /// `true` when an online detector flagged this attempt as faulty.
    pub detected: bool,
}

/// Executes task attempts on behalf of the recovery scheduler.
///
/// Implementations run the task's kernel bit-exactly (possibly under a
/// fault-injecting trace sink) and apply their online detectors; the
/// scheduler only sees the verdict. `slot` is the VPU the scheduler
/// placed the attempt on and `attempt` counts from 0, so a
/// deterministic injector can key its fault decisions on both.
pub trait TaskExecutor {
    /// Runs one attempt of `task`.
    ///
    /// # Errors
    ///
    /// Kernel-mapping errors from the VPU simulator.
    fn execute(
        &mut self,
        task: &Task,
        slot: usize,
        attempt: u32,
    ) -> Result<TaskAttempt, AccelError>;
}

/// When to retry, back off, and give up on a VPU slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per task after the initial attempt (0 = detect only).
    pub max_retries: u32,
    /// Idle cycles charged to the slot before each retry (models
    /// pipeline drain + operand re-fetch issue latency).
    pub backoff_cycles: u64,
    /// Detections on one slot before it is quarantined. The last
    /// healthy slot is exempt so the machine never deadlocks.
    pub quarantine_threshold: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_cycles: 32,
            quarantine_threshold: 2,
        }
    }
}

/// Report of a recovery run: the usual machine report plus the fault
/// ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// The underlying machine report. Cycle/traffic totals include all
    /// re-execution work, so comparing against a fault-free
    /// [`run_tasks`](crate::machine::Accelerator::run_tasks) of the
    /// same list prices the recovery overhead.
    pub report: AccelReport,
    /// Total attempts across all tasks (≥ `report.task_count`).
    pub attempts: u64,
    /// Attempts beyond the first, per task, summed.
    pub retries: u64,
    /// Attempts flagged faulty by a detector.
    pub detected_faults: u64,
    /// Tasks that were detected faulty at least once but whose final
    /// attempt passed detection.
    pub recovered_tasks: u64,
    /// Slots quarantined, in quarantine order.
    pub quarantined_slots: Vec<usize>,
    /// Idle backoff cycles charged across all retries.
    pub backoff_cycles: u64,
    /// Online-detector cycles charged across all attempts.
    pub check_cycles: u64,
    /// Final output digest per task, in submission order.
    pub task_digests: Vec<u64>,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.report)?;
        write!(
            f,
            "  recovery: {} attempts ({} retries), {} detected, {} recovered, {} slot(s) quarantined, {} backoff + {} check cycles",
            self.attempts,
            self.retries,
            self.detected_faults,
            self.recovered_tasks,
            self.quarantined_slots.len(),
            self.backoff_cycles,
            self.check_cycles
        )
    }
}

impl Accelerator {
    /// Runs an explicit task list through `exec` under `policy`,
    /// retrying detected-faulty attempts and quarantining repeatedly
    /// faulty slots. The fault-free [`run_tasks`](Self::run_tasks) runs
    /// the same loop with memo pricing, which never detects.
    ///
    /// # Errors
    ///
    /// As [`run_tasks`](Self::run_tasks), plus
    /// [`AccelError::FaultUnrecoverable`] when a task exhausts its
    /// retry budget without a clean attempt.
    pub fn run_tasks_with_recovery(
        &mut self,
        tasks: &[Task],
        exec: &mut dyn TaskExecutor,
        policy: &RetryPolicy,
    ) -> Result<RecoveryReport, AccelError> {
        let flat = TaskGraph::flat(tasks);
        let pricing = Pricing::Executor(exec, policy);
        let (mut batch, recovered_tasks) =
            sched::run(self.config(), &[&flat], Order::Submission, pricing)?;
        Ok(RecoveryReport {
            attempts: batch.report.task_count as u64 + batch.retries,
            retries: batch.retries,
            detected_faults: batch.detected_faults,
            recovered_tasks,
            quarantined_slots: batch.quarantined_slots,
            backoff_cycles: batch.retries * policy.backoff_cycles,
            // Lane-busy cycles beyond the pipeline's are detector cycles.
            check_cycles: batch.busy_lane_cycles - batch.report.vpu_stats.total(),
            task_digests: std::mem::take(&mut batch.per_request[0].task_digests),
            report: batch.report,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use crate::workload::TaskKind;

    fn config(vpus: usize) -> AcceleratorConfig {
        AcceleratorConfig {
            vpu_count: vpus,
            ..AcceleratorConfig::default()
        }
    }

    fn task(n: usize) -> Task {
        Task {
            kind: TaskKind::Elementwise { passes: 1 },
            n,
            noc_bytes: n * 8,
        }
    }

    fn mk_attempt(cycles: u64, detected: bool, digest: u64) -> TaskAttempt {
        let mut stats = CycleStats::new();
        stats.elementwise = cycles;
        TaskAttempt {
            stats,
            digest,
            check_cycles: 1,
            detected,
        }
    }

    /// Scripted executor: detects a fault whenever `faulty(slot, attempt)`.
    struct Scripted<F: FnMut(usize, u32) -> bool> {
        faulty: F,
        calls: u64,
    }

    impl<F: FnMut(usize, u32) -> bool> TaskExecutor for Scripted<F> {
        fn execute(
            &mut self,
            _task: &Task,
            slot: usize,
            attempt: u32,
        ) -> Result<TaskAttempt, AccelError> {
            self.calls += 1;
            let bad = (self.faulty)(slot, attempt);
            Ok(mk_attempt(10, bad, if bad { 0xbad } else { 0x900d }))
        }
    }

    #[test]
    fn clean_run_has_no_retries() {
        let mut accel = Accelerator::new(config(2)).unwrap();
        let mut exec = Scripted {
            faulty: |_, _| false,
            calls: 0,
        };
        let tasks = [task(64), task(64), task(64)];
        let r = accel
            .run_tasks_with_recovery(&tasks, &mut exec, &RetryPolicy::default())
            .unwrap();
        assert_eq!(r.attempts, 3);
        assert_eq!(r.retries, 0);
        assert_eq!(r.detected_faults, 0);
        assert_eq!(r.recovered_tasks, 0);
        assert!(r.quarantined_slots.is_empty());
        assert_eq!(r.task_digests, vec![0x900d; 3]);
        assert_eq!(r.backoff_cycles, 0);
        assert_eq!(r.check_cycles, 3, "one check cycle per attempt");
    }

    #[test]
    fn transient_fault_recovers_on_retry() {
        let mut accel = Accelerator::new(config(2)).unwrap();
        // Faulty on the first attempt only — a transient upset.
        let mut exec = Scripted {
            faulty: |_, attempt| attempt == 0,
            calls: 0,
        };
        let policy = RetryPolicy::default();
        let r = accel
            .run_tasks_with_recovery(&[task(64)], &mut exec, &policy)
            .unwrap();
        assert_eq!(r.attempts, 2);
        assert_eq!(r.retries, 1);
        assert_eq!(r.detected_faults, 1);
        assert_eq!(r.recovered_tasks, 1);
        assert_eq!(r.task_digests, vec![0x900d]);
        assert_eq!(r.backoff_cycles, policy.backoff_cycles);
    }

    #[test]
    fn persistent_slot_fault_quarantines_and_remaps() {
        let mut accel = Accelerator::new(config(2)).unwrap();
        // Slot 0 is broken; slot 1 is fine. Every attempt on slot 0
        // fails, so the scheduler must quarantine it and remap.
        let mut exec = Scripted {
            faulty: |slot, _| slot == 0,
            calls: 0,
        };
        let policy = RetryPolicy {
            max_retries: 3,
            backoff_cycles: 8,
            quarantine_threshold: 2,
        };
        let tasks = [task(64), task(64), task(64)];
        let r = accel
            .run_tasks_with_recovery(&tasks, &mut exec, &policy)
            .unwrap();
        assert_eq!(r.quarantined_slots, vec![0]);
        assert_eq!(r.task_digests, vec![0x900d; 3], "all tasks completed clean");
        assert!(
            r.detected_faults >= 2,
            "threshold reached before quarantine"
        );
        // After quarantine, everything lands on slot 1.
        assert!(r.report.vpu_busy[1] > r.report.vpu_busy[0]);
    }

    #[test]
    fn unrecoverable_fault_is_a_typed_error() {
        let mut accel = Accelerator::new(config(1)).unwrap();
        // Single slot, always faulty: quarantine is impossible (last
        // healthy slot) and retries never converge.
        let mut exec = Scripted {
            faulty: |_, _| true,
            calls: 0,
        };
        let policy = RetryPolicy {
            max_retries: 2,
            backoff_cycles: 0,
            quarantine_threshold: 2,
        };
        let err = accel.run_tasks_with_recovery(&[task(64)], &mut exec, &policy);
        match err {
            Err(AccelError::FaultUnrecoverable {
                task_index,
                attempts,
            }) => {
                assert_eq!(task_index, 0);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected FaultUnrecoverable, got {other:?}"),
        }
        assert_eq!(exec.calls, 3, "initial attempt + 2 retries");
    }

    #[test]
    fn last_healthy_slot_is_exempt_from_quarantine() {
        let mut accel = Accelerator::new(config(2)).unwrap();
        // Both slots produce one detected fault each before going
        // clean: with threshold 1, slot 0 is quarantined on its first
        // fault, but slot 1 — by then the last healthy slot — must
        // stay in service even after reaching the same threshold.
        let mut first_fault_on = [true; 2];
        let mut exec = Scripted {
            faulty: move |slot, _| std::mem::take(&mut first_fault_on[slot]),
            calls: 0,
        };
        let policy = RetryPolicy {
            max_retries: 3,
            backoff_cycles: 4,
            quarantine_threshold: 1,
        };
        let tasks = [task(64), task(64), task(64)];
        let r = accel
            .run_tasks_with_recovery(&tasks, &mut exec, &policy)
            .unwrap();
        assert_eq!(
            r.quarantined_slots,
            vec![0],
            "slot 1 reached the threshold but is the last healthy slot"
        );
        assert_eq!(r.detected_faults, 2, "one fault on each slot");
        assert_eq!(r.task_digests, vec![0x900d; 3]);
        // Everything after the two transients runs on the one
        // remaining slot; no deadlock, no panic.
        assert_eq!(r.report.vpu_busy[0], 11, "only the faulted attempt");
        assert!(r.report.vpu_busy[1] > r.report.vpu_busy[0]);
    }

    #[test]
    fn remap_walks_past_every_faulted_slot() {
        let mut accel = Accelerator::new(config(3)).unwrap();
        // Slots 0 and 1 are permanently broken; only slot 2 computes
        // cleanly. One task must survive two in-flight quarantines and
        // land on the sole healthy slot.
        let mut exec = Scripted {
            faulty: |slot, _| slot < 2,
            calls: 0,
        };
        let policy = RetryPolicy {
            max_retries: 3,
            backoff_cycles: 8,
            quarantine_threshold: 1,
        };
        let tasks = [task(64), task(64)];
        let r = accel
            .run_tasks_with_recovery(&tasks, &mut exec, &policy)
            .unwrap();
        assert_eq!(
            r.quarantined_slots,
            vec![0, 1],
            "every faulted slot quarantined, in fault order"
        );
        assert_eq!(r.task_digests, vec![0x900d; 2]);
        assert_eq!(r.recovered_tasks, 1, "task 0 recovered after remapping");
        // One 11-cycle attempt burned on each broken slot; the clean
        // retry of task 0 and all of task 1 land on slot 2.
        assert_eq!(r.report.vpu_busy, vec![11, 11, 22]);
        // Task 1 was scheduled after both quarantines: straight to
        // slot 2, first attempt, no retries.
        assert_eq!(r.attempts, 4, "3 attempts for task 0, 1 for task 1");
    }

    #[test]
    fn quarantine_edges_are_thread_count_invariant() {
        // The recovery scheduler runs on the virtual cycle timeline;
        // the host worker-pool size must not change one bit of the
        // report — including both quarantine edge cases above.
        let run = || {
            let mut accel = Accelerator::new(config(3)).unwrap();
            let mut exec = Scripted {
                faulty: |slot, attempt| slot < 2 && attempt < 3,
                calls: 0,
            };
            let policy = RetryPolicy {
                max_retries: 4,
                backoff_cycles: 8,
                quarantine_threshold: 2,
            };
            let tasks = [task(64), task(128), task(64), task(256)];
            accel
                .run_tasks_with_recovery(&tasks, &mut exec, &policy)
                .unwrap()
        };
        let base = uvpu_par::with_threads(1, run);
        assert!(
            !base.quarantined_slots.is_empty(),
            "scenario must actually exercise quarantine"
        );
        for threads in [2, 4] {
            let other = uvpu_par::with_threads(threads, run);
            assert_eq!(base, other, "report drifted at {threads} threads");
        }
    }

    #[test]
    fn recovery_overhead_prices_into_the_report() {
        let mut accel = Accelerator::new(config(2)).unwrap();
        let policy = RetryPolicy::default();
        let mut clean = Scripted {
            faulty: |_, _| false,
            calls: 0,
        };
        let base = accel
            .run_tasks_with_recovery(&[task(64)], &mut clean, &policy)
            .unwrap();
        let mut flaky = Scripted {
            faulty: |_, attempt| attempt == 0,
            calls: 0,
        };
        let mut accel2 = Accelerator::new(config(2)).unwrap();
        let faulty = accel2
            .run_tasks_with_recovery(&[task(64)], &mut flaky, &policy)
            .unwrap();
        assert!(faulty.report.makespan > base.report.makespan);
        assert!(faulty.report.sram_traffic_bytes > base.report.sram_traffic_bytes);
        assert_eq!(
            faulty.report.vpu_stats.elementwise,
            2 * base.report.vpu_stats.elementwise,
            "re-execution doubles the pipeline work"
        );
    }
}
