//! The accelerator machine model: VPUs, a ring NoC, global SRAM, and a
//! list scheduler (paper Fig 1(a)). [`Accelerator::run_tasks`] is the
//! flat entry point of the shared scheduling core: one request without
//! edges, submission order, memo pricing.

use crate::config::AcceleratorConfig;
use crate::graph::TaskGraph;
use crate::sched::{self, Order, Pricing};
use crate::workload::{FheOp, Task};
use crate::AccelError;
use std::fmt;
use uvpu_core::stats::CycleStats;

/// Execution report for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelReport {
    /// Total cycles until the last VPU finishes (makespan).
    pub makespan: u64,
    /// Per-VPU busy cycles.
    pub vpu_busy: Vec<u64>,
    /// Aggregate VPU pipeline statistics.
    pub vpu_stats: CycleStats,
    /// Total NoC transfer cycles (bandwidth + hop latency).
    pub noc_cycles: u64,
    /// Total bytes moved between SRAM and VPUs.
    pub sram_traffic_bytes: u64,
    /// Number of tasks executed.
    pub task_count: usize,
    /// Kernel measurements answered from the memo cache (same-shape
    /// tasks cost the same cycles, so only the first of each shape runs
    /// the bit-exact simulator).
    pub memo_hits: u64,
    /// Kernel measurements that had to run the simulator.
    pub memo_misses: u64,
}

impl AccelReport {
    /// Mean VPU utilization: busy cycles over `makespan × vpu_count`.
    #[must_use]
    pub fn vpu_utilization(&self) -> f64 {
        if self.makespan == 0 {
            return 1.0;
        }
        let busy: u64 = self.vpu_busy.iter().sum();
        busy as f64 / (self.makespan as f64 * self.vpu_busy.len() as f64)
    }

    /// Fraction of kernel measurements served from the memo cache.
    #[must_use]
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            return 0.0;
        }
        self.memo_hits as f64 / total as f64
    }
}

impl fmt::Display for AccelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "accelerator: {} tasks on {} VPUs, makespan {} cycles ({:.1}% VPU busy)",
            self.task_count,
            self.vpu_busy.len(),
            self.makespan,
            100.0 * self.vpu_utilization()
        )?;
        writeln!(f, "  pipeline: {}", self.vpu_stats)?;
        writeln!(
            f,
            "  noc: {} cycles, {} bytes SRAM traffic",
            self.noc_cycles, self.sram_traffic_bytes
        )?;
        write!(
            f,
            "  kernel memo: {} hits, {} misses ({:.1}% hit rate)",
            self.memo_hits,
            self.memo_misses,
            100.0 * self.memo_hit_rate()
        )
    }
}

/// The multi-VPU accelerator simulator.
///
/// Tasks are scheduled greedily onto the earliest-available VPU; each
/// task's VPU cost comes from actually running the kernel on the
/// bit-exact VPU simulator, and its NoC cost from the configured ring
/// bandwidth and hop latency. NoC transfers overlap with compute of
/// *other* tasks but serialize with their own task (load → compute →
/// store).
///
/// # Example
///
/// ```
/// use uvpu_accel::config::AcceleratorConfig;
/// use uvpu_accel::machine::Accelerator;
/// use uvpu_accel::workload::FheOp;
///
/// # fn main() -> Result<(), uvpu_accel::AccelError> {
/// let mut accel = Accelerator::new(AcceleratorConfig::default())?;
/// let report = accel.run(&[FheOp::HMult { n: 1 << 12, limbs: 3 }])?;
/// assert!(report.makespan > 0);
/// assert!(report.vpu_utilization() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: AcceleratorConfig,
}

impl Accelerator {
    /// Creates an accelerator from a validated configuration.
    ///
    /// # Errors
    ///
    /// [`AccelError::InvalidConfig`] on a bad configuration.
    pub fn new(config: AcceleratorConfig) -> Result<Self, AccelError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration.
    #[must_use]
    pub const fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// NoC cycles for one transfer of `bytes` between the SRAM and a VPU
    /// `hops` ring positions away.
    #[must_use]
    pub fn noc_cycles(&self, bytes: usize, hops: usize) -> u64 {
        sched::noc_cycles(&self.config, bytes, hops)
    }

    /// Runs a workload and returns the report.
    ///
    /// # Errors
    ///
    /// Kernel-mapping errors from the VPU simulator, or a working set
    /// exceeding the SRAM capacity.
    pub fn run(&mut self, ops: &[FheOp]) -> Result<AccelReport, AccelError> {
        let tasks: Vec<Task> = ops.iter().flat_map(FheOp::lower).collect();
        self.run_tasks(&tasks)
    }

    /// Runs an explicit task list.
    ///
    /// # Errors
    ///
    /// As [`Accelerator::run`].
    pub fn run_tasks(&mut self, tasks: &[Task]) -> Result<AccelReport, AccelError> {
        let mut memo = crate::workload::ShapeMemo::new();
        self.run_tasks_memoized(tasks, &mut memo)
    }

    /// Runs an explicit task list against a caller-owned shape memo.
    ///
    /// Shapes already present in `memo` (e.g. measured during admission
    /// estimation) are **not** re-measured — this is the single
    /// premeasure pass shared by estimation, scheduling, and batch
    /// execution. Missing shapes are measured (in parallel when host
    /// threads are available) and inserted, so the memo only grows.
    /// The report's hit/miss counters still replay the sequential
    /// first-occurrence accounting over *this* task list, independent of
    /// what the caller pre-seeded.
    ///
    /// # Errors
    ///
    /// As [`Accelerator::run`].
    pub fn run_tasks_memoized(
        &mut self,
        tasks: &[Task],
        memo: &mut crate::workload::ShapeMemo,
    ) -> Result<AccelReport, AccelError> {
        let flat = TaskGraph::flat(tasks);
        let pricing = Pricing::Memo(memo);
        let (batch, _) = sched::run(&self.config, &[&flat], Order::Submission, pricing)?;
        Ok(batch.report)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn config(vpus: usize) -> AcceleratorConfig {
        AcceleratorConfig {
            vpu_count: vpus,
            ..AcceleratorConfig::default()
        }
    }

    #[test]
    fn more_vpus_shrink_makespan() {
        let ops = [FheOp::HMult {
            n: 1 << 10,
            limbs: 3,
        }];
        let r1 = Accelerator::new(config(1)).unwrap().run(&ops).unwrap();
        let r4 = Accelerator::new(config(4)).unwrap().run(&ops).unwrap();
        let r8 = Accelerator::new(config(8)).unwrap().run(&ops).unwrap();
        assert!(r4.makespan < r1.makespan);
        assert!(r8.makespan <= r4.makespan);
        // Total work is conserved regardless of the VPU count.
        assert_eq!(r1.vpu_stats, r4.vpu_stats);
        assert_eq!(r1.sram_traffic_bytes, r4.sram_traffic_bytes);
    }

    #[test]
    fn hadd_is_cheap_hmult_is_not() {
        let mut accel = Accelerator::new(config(4)).unwrap();
        let add = accel
            .run(&[FheOp::HAdd {
                n: 1 << 10,
                limbs: 3,
            }])
            .unwrap();
        let mult = accel
            .run(&[FheOp::HMult {
                n: 1 << 10,
                limbs: 3,
            }])
            .unwrap();
        // HMult's keyswitch pipeline dwarfs HAdd's element-wise passes
        // (NoC transfer time is common to both, so the gap is bounded).
        assert!(mult.makespan > 3 * add.makespan);
    }

    #[test]
    fn rotation_workload_is_movement_heavy() {
        let mut accel = Accelerator::new(config(2)).unwrap();
        let r = accel.run(&[FheOp::Automorphism { n: 1 << 12 }]).unwrap();
        assert_eq!(r.vpu_stats.compute(), 0);
        assert!(r.vpu_stats.network_move > 0);
    }

    #[test]
    fn determinism_and_memoization() {
        let ops = [
            FheOp::HRot {
                n: 1 << 10,
                limbs: 2,
            },
            FheOp::HAdd {
                n: 1 << 10,
                limbs: 2,
            },
        ];
        let a = Accelerator::new(config(3)).unwrap().run(&ops).unwrap();
        let b = Accelerator::new(config(3)).unwrap().run(&ops).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn memo_counters_add_up() {
        let ops = [
            FheOp::HMult {
                n: 1 << 10,
                limbs: 3,
            },
            FheOp::HMult {
                n: 1 << 10,
                limbs: 3,
            },
        ];
        let r = Accelerator::new(config(4)).unwrap().run(&ops).unwrap();
        assert_eq!(
            (r.memo_hits + r.memo_misses) as usize,
            r.task_count,
            "every task is either a hit or a miss"
        );
        // Two identical HMults share shapes: only (ntt, n) and the
        // distinct ewise shapes miss.
        assert!(r.memo_misses <= 4);
        assert!(r.memo_hits > r.memo_misses);
        assert!(r.memo_hit_rate() > 0.5);
        let text = r.to_string();
        assert!(text.contains("kernel memo"), "{text}");
        assert!(text.contains("makespan"), "{text}");
    }

    #[test]
    fn scheduler_emits_task_spans_when_traced() {
        use uvpu_core::trace::{self, RingBufferSink, SharedSink, TraceEvent};
        let shared = SharedSink::new(RingBufferSink::new(256));
        trace::install_global(Box::new(shared.clone()));
        let r = Accelerator::new(config(2))
            .unwrap()
            .run(&[
                FheOp::Ntt { n: 1 << 10 },
                FheOp::Automorphism { n: 1 << 10 },
            ])
            .unwrap();
        trace::take_global();
        shared.with(|s| {
            let names: Vec<String> = s
                .events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::SpanBegin { name, .. } => Some(name.clone()),
                    _ => None,
                })
                .collect();
            assert!(
                names.iter().any(|n| n.starts_with("task.ntt n=1024")),
                "{names:?}"
            );
            assert!(
                names.iter().any(|n| n.starts_with("task.automorphism")),
                "{names:?}"
            );
            assert!(names.iter().any(|n| n == "noc.transfer"), "{names:?}");
            // Span ends line up with the report's timeline.
            let max_end = s
                .events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::SpanEnd { ts, .. } => Some(*ts),
                    _ => None,
                })
                .max()
                .unwrap();
            assert_eq!(max_end, r.makespan);
        });
    }

    #[test]
    fn sram_overflow_is_reported() {
        let mut cfg = config(2);
        cfg.sram_bytes = 1024;
        let mut accel = Accelerator::new(cfg).unwrap();
        let err = accel.run(&[FheOp::Ntt { n: 1 << 12 }]);
        assert!(matches!(err, Err(AccelError::SramOverflow { .. })));
    }

    #[test]
    fn utilization_is_a_fraction() {
        let mut accel = Accelerator::new(config(4)).unwrap();
        let r = accel
            .run(&[FheOp::HMult {
                n: 1 << 12,
                limbs: 2,
            }])
            .unwrap();
        let u = r.vpu_utilization();
        assert!(u > 0.0 && u <= 1.0, "{u}");
    }
}
