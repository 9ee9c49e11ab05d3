//! FHE workload description and its lowering to per-VPU tasks.
//!
//! Homomorphic operations decompose naturally along the RNS dimension
//! (paper §II-A: a ciphertext is a `2 × N × L` tensor): every residue
//! polynomial's NTT, automorphism, or element-wise pass is an independent
//! vector task — exactly the parallelism the multi-VPU accelerator of
//! Fig 1(a) exploits.

use crate::AccelError;
use uvpu_core::auto_map::AutomorphismMapping;
use uvpu_core::ntt_map::NttPlan;
use uvpu_core::stats::CycleStats;
use uvpu_core::vpu::Vpu;
use uvpu_math::modular::Modulus;
use uvpu_math::primes::ntt_prime;

/// A high-level homomorphic operation (one paper §II-A primitive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FheOp {
    /// Homomorphic addition of two ciphertexts.
    HAdd {
        /// Ring degree.
        n: usize,
        /// RNS limb count `L + 1`.
        limbs: usize,
    },
    /// Homomorphic multiplication with relinearization and rescale.
    HMult {
        /// Ring degree.
        n: usize,
        /// RNS limb count.
        limbs: usize,
    },
    /// Homomorphic rotation (automorphism + keyswitch).
    HRot {
        /// Ring degree.
        n: usize,
        /// RNS limb count.
        limbs: usize,
    },
    /// A bare forward NTT (for microbenchmarks).
    Ntt {
        /// Transform length.
        n: usize,
    },
    /// A bare automorphism (for microbenchmarks).
    Automorphism {
        /// Element count.
        n: usize,
    },
}

/// One schedulable unit of vector work: a single residue polynomial's
/// pass through a VPU, plus the bytes it moves over the NoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// What the VPU executes.
    pub kind: TaskKind,
    /// Ring degree the task operates on.
    pub n: usize,
    /// Bytes fetched from / written to the global SRAM over the NoC.
    pub noc_bytes: usize,
}

/// The vector kernel a task runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Forward or inverse negacyclic NTT.
    Ntt,
    /// Automorphism (single-pass-per-column permutation).
    Automorphism,
    /// `passes` element-wise vector passes over the polynomial.
    Elementwise {
        /// Number of full-polynomial element-wise passes.
        passes: usize,
    },
}

impl TaskKind {
    /// Stable display name for reports and traces (the element-wise
    /// variant folds its pass count in).
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            TaskKind::Ntt => "ntt".to_string(),
            TaskKind::Automorphism => "automorphism".to_string(),
            TaskKind::Elementwise { passes } => format!("ewise\u{00d7}{passes}"),
        }
    }
}

impl FheOp {
    /// Lowers the operation to independent tasks (one per residue
    /// polynomial pass), following the standard CKKS dataflow:
    ///
    /// - `HAdd`: 2 element-wise passes per limb;
    /// - `HMult`: 4 forward NTTs (both ciphertexts' parts), 3 Hadamard
    ///   passes, `limbs` keyswitch digit NTTs + 2·`limbs` accumulation
    ///   passes, 2 inverse NTTs, and 2 rescale passes per limb;
    /// - `HRot`: 2 automorphism passes per limb plus the same keyswitch
    ///   pipeline as `HMult`'s relinearization.
    #[must_use]
    pub fn lower(&self) -> Vec<Task> {
        use TaskKind::{Automorphism, Elementwise, Ntt};
        // A task over ring degree `n` moving `polys` polynomials of
        // 8-byte words over the NoC.
        let task = |kind, n: usize, polys: usize| Task {
            kind,
            n,
            noc_bytes: polys * n * 8,
        };
        let ewise = |passes| Elementwise { passes };
        match *self {
            // Two reads + one write per pass.
            FheOp::HAdd { n, limbs } => vec![task(ewise(1), n, 3); 2 * limbs],
            FheOp::HMult { n, limbs } => {
                let mut tasks = Vec::new();
                for _ in 0..limbs {
                    // Forward NTTs of the four input polynomials, then
                    // the tensor product (d0, d1, d2).
                    tasks.extend([task(Ntt, n, 2); 4]);
                    tasks.push(task(ewise(3), n, 3));
                    // Keyswitch: one digit NTT + two key-product
                    // accumulations per digit.
                    for _ in 0..limbs {
                        tasks.extend([task(Ntt, n, 2), task(ewise(2), n, 3)]);
                    }
                    // Back to coefficients + rescale.
                    tasks.extend([task(Ntt, n, 2), task(Ntt, n, 2), task(ewise(2), n, 2)]);
                }
                tasks
            }
            FheOp::HRot { n, limbs } => {
                let mut tasks = Vec::new();
                for _ in 0..limbs {
                    // Automorphism on both ciphertext polynomials, then
                    // the keyswitch pipeline, as in HMult.
                    tasks.extend([task(Automorphism, n, 2); 2]);
                    for _ in 0..limbs {
                        tasks.extend([task(Ntt, n, 2), task(ewise(2), n, 3)]);
                    }
                }
                tasks
            }
            FheOp::Ntt { n } => vec![task(Ntt, n, 2)],
            FheOp::Automorphism { n } => vec![task(Automorphism, n, 2)],
        }
    }
}

impl FheOp {
    /// Single-VPU latency of the whole operation in pipeline beats: the
    /// sum of its lowered tasks' measured cycles (every task executes on
    /// the bit-exact simulator). At the paper's 1 GHz clock one beat is
    /// one nanosecond.
    ///
    /// # Errors
    ///
    /// Kernel-mapping errors from the VPU simulator.
    pub fn latency_beats(&self, lanes: usize) -> Result<u64, AccelError> {
        let mut memo = ShapeMemo::new();
        self.latency_beats_memoized(lanes, &mut memo)
    }

    /// [`FheOp::latency_beats`] against a caller-owned shape memo: only
    /// shapes missing from `memo` are measured (and inserted), so a
    /// caller estimating a stream of operations pays for each distinct
    /// `(kind, n)` shape exactly once across the whole stream.
    ///
    /// # Errors
    ///
    /// As [`FheOp::latency_beats`].
    pub fn latency_beats_memoized(
        &self,
        lanes: usize,
        memo: &mut ShapeMemo,
    ) -> Result<u64, AccelError> {
        let tasks = self.lower();
        premeasure_into(&tasks, lanes, memo)?;
        let mut total = 0u64;
        for task in &tasks {
            total += memo[&(task.kind, task.n)].total();
        }
        Ok(total)
    }
}

/// Memoized kernel measurements keyed by task shape `(kind, n)`.
///
/// The simulator is deterministic, so same-shape tasks cost identical
/// cycles; a memo built once can be threaded through estimation,
/// scheduling, and batch execution without re-running the simulator.
pub type ShapeMemo = std::collections::HashMap<(TaskKind, usize), CycleStats>;

/// Measures every distinct `(kind, n)` shape appearing in `tasks`, in
/// parallel across host threads when more than one is available.
///
/// The simulator is deterministic, so tasks of the same shape cost the
/// same cycles; measuring each shape once and fanning the independent
/// measurements out over [`uvpu_par`] workers is bit-exact regardless of
/// thread count. Shapes are measured in first-occurrence task order and
/// the first failing shape's error is returned, matching what a
/// sequential memoized sweep would report.
///
/// # Errors
///
/// As [`measure_task`], for the first failing shape in task order.
pub fn premeasure(tasks: &[Task], lanes: usize) -> Result<ShapeMemo, AccelError> {
    let mut memo = ShapeMemo::new();
    premeasure_into(tasks, lanes, &mut memo)?;
    Ok(memo)
}

/// Like [`premeasure`], but extends a caller-owned memo in place and
/// measures **only the shapes not already present** — the mechanism that
/// lets the service layer estimate a request once and execute it later
/// without a second premeasure pass.
///
/// # Errors
///
/// As [`measure_task`], for the first failing missing shape in task
/// order. Already-memoized shapes are never re-measured, and on error
/// every successfully measured shape before the failure is retained.
pub fn premeasure_into(
    tasks: &[Task],
    lanes: usize,
    memo: &mut ShapeMemo,
) -> Result<(), AccelError> {
    premeasure_distinct(tasks, lanes, memo).map(|_| ())
}

/// [`premeasure_into`], returning the number of distinct shapes in
/// `tasks` — the memo misses of a call that prices them from the memo.
pub(crate) fn premeasure_distinct<'a>(
    tasks: impl IntoIterator<Item = &'a Task>,
    lanes: usize,
    memo: &mut ShapeMemo,
) -> Result<u64, AccelError> {
    let mut shapes: Vec<(TaskKind, usize)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for t in tasks {
        let shape = (t.kind, t.n);
        if seen.insert(shape) && !memo.contains_key(&shape) {
            shapes.push(shape);
        }
    }
    let measured = uvpu_par::par_map_indexed(shapes.len(), |i| {
        let (kind, n) = shapes[i];
        measure_task(
            &Task {
                kind,
                n,
                noc_bytes: 0,
            },
            lanes,
        )
    });
    for (shape, result) in shapes.into_iter().zip(measured) {
        memo.insert(shape, result?);
    }
    Ok(seen.len() as u64)
}

/// Measures one task's VPU cycle cost by actually executing the kernel on
/// a simulated VPU (bit-exact; the returned stats are the real pass
/// counts, not an estimate).
///
/// # Errors
///
/// [`AccelError::Core`] when the kernel cannot be mapped (e.g. `n`
/// smaller than the lane count for automorphism).
pub fn measure_task(task: &Task, lanes: usize) -> Result<CycleStats, AccelError> {
    let n = task.n;
    let q = Modulus::new(ntt_prime(50, n.max(lanes * 2)).map_err(uvpu_core::CoreError::Math)?)
        .map_err(uvpu_core::CoreError::Math)?;
    let mut vpu = Vpu::new(lanes, q, 8)?;
    match task.kind {
        TaskKind::Ntt => {
            let plan = NttPlan::cached(q, n, lanes)?;
            let data: Vec<u64> = (0..n as u64).collect();
            let run = plan.execute_forward_negacyclic(&mut vpu, &data)?;
            Ok(run.stats)
        }
        TaskKind::Automorphism => {
            let plan = AutomorphismMapping::cached(n, lanes, 5, 0)?;
            let data: Vec<u64> = (0..n as u64).collect();
            let run = plan.execute(&mut vpu, &data)?;
            Ok(run.stats)
        }
        TaskKind::Elementwise { passes } => {
            // One element-wise beat per lane-width column per pass.
            let cols = (n / lanes).max(1) as u64;
            Ok(CycleStats {
                butterfly: 0,
                elementwise: cols * passes as u64,
                network_move: 0,
            })
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn hadd_lowers_to_elementwise_only() {
        let tasks = FheOp::HAdd {
            n: 1 << 12,
            limbs: 3,
        }
        .lower();
        assert_eq!(tasks.len(), 6);
        assert!(tasks
            .iter()
            .all(|t| matches!(t.kind, TaskKind::Elementwise { passes: 1 })));
    }

    #[test]
    fn hmult_task_count_scales_quadratically_with_limbs() {
        let t2 = FheOp::HMult {
            n: 1 << 10,
            limbs: 2,
        }
        .lower()
        .len();
        let t4 = FheOp::HMult {
            n: 1 << 10,
            limbs: 4,
        }
        .lower()
        .len();
        // Keyswitch digits make the count quadratic in limbs.
        assert!(t4 > 2 * t2);
    }

    #[test]
    fn measured_ntt_matches_plan_stats() {
        let task = Task {
            kind: TaskKind::Ntt,
            n: 1 << 10,
            noc_bytes: 0,
        };
        let stats = measure_task(&task, 64).unwrap();
        assert!(stats.butterfly > 0);
        assert!(stats.utilization() > 0.6 && stats.utilization() < 0.95);
    }

    #[test]
    fn measured_automorphism_is_pure_movement() {
        let task = Task {
            kind: TaskKind::Automorphism,
            n: 1 << 10,
            noc_bytes: 0,
        };
        let stats = measure_task(&task, 64).unwrap();
        assert_eq!(stats.compute(), 0);
        assert_eq!(stats.network_move, (1 << 10) / 64);
    }

    #[test]
    fn elementwise_task_cost_is_column_count() {
        let task = Task {
            kind: TaskKind::Elementwise { passes: 3 },
            n: 1 << 10,
            noc_bytes: 0,
        };
        let stats = measure_task(&task, 64).unwrap();
        assert_eq!(stats.elementwise, 3 * (1 << 10) / 64);
    }
}
