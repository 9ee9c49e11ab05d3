//! Event-level multi-VPU FHE accelerator simulator — the system context
//! of paper Fig 1(a): several unified vector processing units connected
//! by a network-on-chip around a global on-chip SRAM.
//!
//! - [`config`]: hardware shape (VPU count, lanes, SRAM, NoC);
//! - [`workload`]: homomorphic operations lowered to per-residue vector
//!   tasks, each *measured* by executing it on the bit-exact VPU
//!   simulator from [`uvpu_core`];
//! - [`machine`] (flat task lists), [`graph`] (dependency graphs, with
//!   critical-path analysis), [`recovery`] (fault-detecting executors
//!   under retry/quarantine) and [`batch`] (shape-coalesced waves over
//!   many requests, RNS limbs sharded across VPU slots, shared
//!   twiddle/key streams fetched once): the scheduling entry points.
//!
//! Every entry point is a few-line wrapper over one crate-private list
//! scheduler, which places each task on the earliest-free healthy VPU
//! slot. The entry point fixes its three parameters: the requests
//! (task graphs), the order (waves or submission order) and the pricing
//! (the shape memo, or an executor under a retry policy).
//!
//! # Example
//!
//! ```
//! use uvpu_accel::config::AcceleratorConfig;
//! use uvpu_accel::machine::Accelerator;
//! use uvpu_accel::workload::FheOp;
//!
//! # fn main() -> Result<(), uvpu_accel::AccelError> {
//! let mut accel = Accelerator::new(AcceleratorConfig::default())?;
//! let report = accel.run(&[
//!     FheOp::HMult { n: 1 << 12, limbs: 3 },
//!     FheOp::HRot { n: 1 << 12, limbs: 3 },
//! ])?;
//! println!("makespan: {} cycles over {} tasks", report.makespan, report.task_count);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod batch;
pub mod config;
pub mod graph;
pub mod machine;
pub mod recovery;
mod sched;
pub mod workload;

use std::fmt;

/// Errors produced by the accelerator simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AccelError {
    /// The configuration is inconsistent.
    InvalidConfig(&'static str),
    /// A task's working set exceeds the on-chip SRAM.
    SramOverflow {
        /// Bytes the task needs resident.
        needed: usize,
        /// Configured capacity.
        capacity: usize,
    },
    /// An error bubbled up from the VPU simulator.
    Core(uvpu_core::CoreError),
    /// A task still failed online detection after exhausting its retry
    /// budget (and any quarantine-driven remap) — see
    /// [`recovery`](crate::recovery).
    FaultUnrecoverable {
        /// Index of the task in the submitted list.
        task_index: usize,
        /// Attempts made (first execution plus retries).
        attempts: u32,
    },
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig(why) => write!(f, "invalid accelerator config: {why}"),
            Self::SramOverflow { needed, capacity } => {
                write!(f, "working set of {needed} B exceeds {capacity} B of SRAM")
            }
            Self::Core(e) => write!(f, "vpu error: {e}"),
            Self::FaultUnrecoverable {
                task_index,
                attempts,
            } => write!(
                f,
                "task {task_index} still faulty after {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for AccelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<uvpu_core::CoreError> for AccelError {
    fn from(e: uvpu_core::CoreError) -> Self {
        Self::Core(e)
    }
}
