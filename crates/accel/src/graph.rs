//! Dependency-aware scheduling: FHE kernels as a task graph.
//!
//! Real FHE programs are DAGs — a rotation consumes the multiply that
//! produced its input — so a flat task list over-estimates the available
//! parallelism. A [`TaskGraph`] is the request type of the shared
//! scheduling core: [`TaskGraph::schedule`] runs one graph in submission
//! order on memo pricing, and [`TaskGraph::critical_path_beats`] reports
//! the critical path, exposing when a workload stops scaling with more
//! VPUs.

use crate::config::AcceleratorConfig;
use crate::machine::AccelReport;
use crate::sched::{self, Order, Pricing};
use crate::workload::{premeasure_into, FheOp, ShapeMemo, Task};
use crate::AccelError;

/// A node handle in the task graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// A DAG of vector tasks.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    preds: Vec<Vec<usize>>,
}

impl TaskGraph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// A graph of independent tasks: a flat list as one request
    /// without edges.
    pub(crate) fn flat(tasks: &[Task]) -> Self {
        Self {
            tasks: tasks.to_vec(),
            preds: vec![Vec::new(); tasks.len()],
        }
    }

    /// Adds a task depending on the given predecessors.
    ///
    /// # Panics
    ///
    /// Panics on a dangling predecessor handle.
    pub fn add(&mut self, task: Task, deps: &[NodeId]) -> NodeId {
        for d in deps {
            assert!(d.0 < self.tasks.len(), "dangling dependency");
        }
        self.tasks.push(task);
        self.preds.push(deps.iter().map(|d| d.0).collect());
        NodeId(self.tasks.len() - 1)
    }

    /// Adds a whole homomorphic op as a sequential stage: all its lowered
    /// tasks depend on `deps`, and the returned handle stands for the
    /// stage's completion (a barrier node pattern: every task of the
    /// stage is a predecessor of whatever depends on the result).
    pub fn add_op(&mut self, op: FheOp, deps: &[NodeId]) -> Vec<NodeId> {
        op.lower().into_iter().map(|t| self.add(t, deps)).collect()
    }

    /// The tasks in insertion order.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Predecessor indices (into [`TaskGraph::tasks`]) of task `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// The critical-path length in VPU beats (ignoring NoC), i.e. the
    /// lower bound on makespan with unlimited VPUs.
    ///
    /// # Errors
    ///
    /// Kernel-mapping errors.
    pub fn critical_path_beats(&self, lanes: usize) -> Result<u64, AccelError> {
        let mut memo = ShapeMemo::new();
        self.critical_path_beats_memoized(lanes, &mut memo)
    }

    /// [`TaskGraph::critical_path_beats`] against a caller-owned shape
    /// memo; only shapes missing from `memo` are measured.
    ///
    /// # Errors
    ///
    /// Kernel-mapping errors.
    pub fn critical_path_beats_memoized(
        &self,
        lanes: usize,
        memo: &mut ShapeMemo,
    ) -> Result<u64, AccelError> {
        premeasure_into(&self.tasks, lanes, memo)?;
        let mut cost = vec![0u64; self.tasks.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            let own = memo[&(t.kind, t.n)].total();
            let pred_max = self.preds[i].iter().map(|&p| cost[p]).max().unwrap_or(0);
            cost[i] = pred_max + own;
        }
        Ok(cost.into_iter().max().unwrap_or(0))
    }

    /// List scheduling onto the machine: tasks dispatch in index order
    /// (every predecessor has a lower index, so one sweep schedules
    /// all of them) to the earliest-free VPU, and start once all
    /// predecessors finish. NoC transfer serializes with its own task,
    /// as for a flat task list.
    ///
    /// # Errors
    ///
    /// Kernel-mapping errors or SRAM overflow.
    pub fn schedule(&self, config: &AcceleratorConfig) -> Result<AccelReport, AccelError> {
        let mut memo = ShapeMemo::new();
        self.schedule_memoized(config, &mut memo)
    }

    /// [`TaskGraph::schedule`] against a caller-owned shape memo; shapes
    /// already measured (e.g. during admission estimation) are not
    /// re-measured, missing shapes are measured and inserted.
    ///
    /// # Errors
    ///
    /// Kernel-mapping errors or SRAM overflow.
    pub fn schedule_memoized(
        &self,
        config: &AcceleratorConfig,
        memo: &mut ShapeMemo,
    ) -> Result<AccelReport, AccelError> {
        config.validate()?;
        let (batch, _) = sched::run(config, &[self], Order::Submission, Pricing::Memo(memo))?;
        Ok(batch.report)
    }
}

/// Builds a bootstrapping-shaped dependency graph: `stages` factorized
/// DFT stages, each of `rotations` HRot-per-limb tasks feeding an
/// element-wise combine, every stage depending on the previous one — the
/// rotation-dominated serial/parallel mix of CoeffToSlot.
#[must_use]
pub fn bootstrap_graph(n: usize, limbs: usize, stages: usize, rotations: usize) -> TaskGraph {
    let mut g = TaskGraph::new();
    let mut stage_barrier: Vec<NodeId> = Vec::new();
    for _ in 0..stages {
        let mut stage_nodes = Vec::new();
        for _ in 0..rotations {
            for _ in 0..limbs {
                // HRot = automorphism + keyswitch digit products.
                let a = g.add(
                    Task {
                        kind: crate::workload::TaskKind::Automorphism,
                        n,
                        noc_bytes: 2 * n * 8,
                    },
                    &stage_barrier,
                );
                let k = g.add(
                    Task {
                        kind: crate::workload::TaskKind::Ntt,
                        n,
                        noc_bytes: 2 * n * 8,
                    },
                    &[a],
                );
                stage_nodes.push(k);
            }
        }
        // The stage's element-wise combine depends on all its rotations.
        let combine = g.add(
            Task {
                kind: crate::workload::TaskKind::Elementwise { passes: 2 },
                n,
                noc_bytes: 3 * n * 8,
            },
            &stage_nodes,
        );
        stage_barrier = vec![combine];
    }
    g
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
    fn empty_graph_is_trivial() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        let r = g.schedule(&config(2)).unwrap();
        assert_eq!(r.makespan, 0);
        assert_eq!(r.task_count, 0);
    }

    #[test]
    fn serial_chain_does_not_scale() {
        // A fully serial graph: extra VPUs cannot help.
        let mut g = TaskGraph::new();
        let mut last: Vec<NodeId> = Vec::new();
        for _ in 0..6 {
            let id = g.add(
                Task {
                    kind: crate::workload::TaskKind::Ntt,
                    n: 1 << 10,
                    noc_bytes: 0,
                },
                &last,
            );
            last = vec![id];
        }
        // Zero NoC latency isolates the dependency structure.
        let cfg = |vpus| AcceleratorConfig {
            vpu_count: vpus,
            noc_hop_latency: 0,
            ..AcceleratorConfig::default()
        };
        let r1 = g.schedule(&cfg(1)).unwrap();
        let r8 = g.schedule(&cfg(8)).unwrap();
        assert_eq!(r1.makespan, r8.makespan, "serial chains are VPU-bound");
        assert_eq!(r1.makespan, g.critical_path_beats(64).unwrap());
    }

    #[test]
    fn parallel_fanout_scales_until_critical_path() {
        let g = bootstrap_graph(1 << 10, 2, 3, 4);
        let r1 = g.schedule(&config(1)).unwrap();
        let r4 = g.schedule(&config(4)).unwrap();
        let r64 = g.schedule(&config(64)).unwrap();
        assert!(r4.makespan < r1.makespan);
        // With unlimited VPUs the makespan approaches the critical path
        // (plus NoC overheads).
        let cp = g.critical_path_beats(64).unwrap();
        assert!(r64.makespan >= cp);
        assert!(r64.makespan < r1.makespan / 2);
    }

    #[test]
    fn graph_and_flat_agree_on_independent_tasks() {
        // With no dependencies, the DAG scheduler reduces to the flat one.
        let tasks: Vec<Task> = FheOp::HAdd {
            n: 1 << 10,
            limbs: 4,
        }
        .lower();
        let mut g = TaskGraph::new();
        for t in &tasks {
            g.add(*t, &[]);
        }
        let flat = crate::machine::Accelerator::new(config(4))
            .unwrap()
            .run_tasks(&tasks)
            .unwrap();
        let dag = g.schedule(&config(4)).unwrap();
        assert_eq!(flat.vpu_stats, dag.vpu_stats);
        assert_eq!(flat.makespan, dag.makespan);
    }

    #[test]
    #[should_panic(expected = "dangling dependency")]
    fn dangling_dependency_panics() {
        let mut g = TaskGraph::new();
        g.add(
            Task {
                kind: crate::workload::TaskKind::Ntt,
                n: 64,
                noc_bytes: 0,
            },
            &[NodeId(5)],
        );
    }
}
