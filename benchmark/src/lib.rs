//! The repository benchmark: five workloads over the math → scheme →
//! VPU-sim → accel → serve ladder, on both clocks. See `README.md`.
//!
//! Everything here measures the crates from outside, by timing calls
//! into their public functions.

pub mod alloc;
pub mod json;
pub mod ladder;
pub mod names;
pub mod run;
pub mod span;
pub mod stats;
pub mod suite;
pub mod workloads;
