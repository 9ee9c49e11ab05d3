//! The unified vector processing unit for FHE — the primary contribution
//! of *"A Unified Vector Processing Unit for Fully Homomorphic
//! Encryption"* (DATE 2025), reproduced as a bit-exact, cycle-counting
//! simulator.
//!
//! The VPU ([`vpu::Vpu`]) has `m` computing lanes ([`lane`]) — each a
//! Barrett modular multiplier, adder/subtractor, and register-file slice —
//! joined by a single **inter-lane network** ([`network`]): two
//! constant-geometry NTT stages plus a `log₂ m`-stage shift network with
//! `m − 1` control bits. That one network realizes *every* irregular data
//! permutation FHE needs:
//!
//! - length-`m` NTT butterflies via the constant-geometry routes
//!   ([`ntt_map::SmallNtt`]);
//! - dimension transposes of the multi-dimensional NTT decomposition
//!   ([`ntt_map::NttPlan`], [`transpose`]);
//! - arbitrary automorphisms, each column in a **single** traversal via
//!   the recursive shift decomposition and the control SRAM
//!   ([`control`], [`auto_map`]);
//! - cross-lane reductions for matrix/tensor products
//!   ([`vpu::Vpu::reduce_sum`]);
//! - a textual vector instruction set with assembler/disassembler
//!   ([`isa`]) and synthesizable Verilog emission ([`rtl`]).
//!
//! # Quick start
//!
//! ```
//! use uvpu_core::auto_map::AutomorphismMapping;
//! use uvpu_core::ntt_map::NttPlan;
//! use uvpu_core::vpu::Vpu;
//! use uvpu_math::{modular::Modulus, primes::ntt_prime};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 1 << 10;
//! let m = 64;
//! let q = Modulus::new(ntt_prime(50, n)?)?;
//! let mut vpu = Vpu::new(m, q, 64)?;
//!
//! // A full negacyclic NTT, decomposed over the 64 lanes.
//! let plan = NttPlan::new(q, n, m)?;
//! let poly: Vec<u64> = (0..n as u64).collect();
//! let spectrum = plan.execute_forward_negacyclic(&mut vpu, &poly)?;
//! println!("NTT utilization: {:.1}%", 100.0 * spectrum.stats.utilization());
//!
//! // An automorphism — one network pass per column, 100% utilization.
//! let rot = AutomorphismMapping::new(n, m, 5, 0)?;
//! let rotated = rot.execute(&mut vpu, &spectrum.output)?;
//! assert_eq!(rotated.utilization(), 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod auto_map;
pub mod control;
pub mod isa;
pub mod lane;
pub mod network;
pub mod ntt_map;
pub mod rtl;
pub mod stats;
pub mod trace;
pub mod transpose;
pub mod vpu;

mod error;

pub use error::CoreError;
