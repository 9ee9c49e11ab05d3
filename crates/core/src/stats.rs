//! Cycle accounting for the VPU simulator.
//!
//! Every vector operation — a traversal of the inter-lane network, a lane
//! compute step, or both back-to-back in the same pipeline beat — costs
//! one cycle. Utilization (paper Table III) is the fraction of cycles in
//! which the modular arithmetic logic performs useful work.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Cycle counters broken down by what the lanes were doing.
///
/// # Example
///
/// ```
/// use uvpu_core::stats::CycleStats;
///
/// let mut stats = CycleStats::default();
/// stats.butterfly += 6;
/// stats.network_move += 2;
/// assert_eq!(stats.total(), 8);
/// assert!((stats.utilization() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleStats {
    /// Cycles spent on butterfly operations (paired-lane NTT compute).
    pub butterfly: u64,
    /// Cycles spent on element-wise modular arithmetic (twiddle scaling,
    /// Hadamard products, additions).
    pub elementwise: u64,
    /// Cycles in which data only traversed the inter-lane network
    /// (transposes, automorphism passes, reductions' shift half) with the
    /// arithmetic units idle.
    pub network_move: u64,
}

impl CycleStats {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Cycles in which the modular arithmetic logic did useful work.
    #[must_use]
    pub fn compute(&self) -> u64 {
        self.butterfly + self.elementwise
    }

    /// Total cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.butterfly + self.elementwise + self.network_move
    }

    /// Throughput utilization: compute cycles over total cycles (the
    /// metric of paper Table III).
    ///
    /// An empty run counts as fully utilized — `utilization()` of
    /// all-zero counters returns `1.0`. This is a deliberate convention:
    /// a phase that consumed no cycles wasted none, and callers folding
    /// utilizations (e.g. taking a minimum across shards) must not see an
    /// idle shard as 0% busy. Reports that want to distinguish "empty"
    /// from "perfect" should check [`total`](Self::total)` == 0` first
    /// and render `n/a` (the bench breakdown tables do).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            1.0
        } else {
            self.compute() as f64 / total as f64
        }
    }

    /// Utilization that distinguishes "empty" from "perfect": `None`
    /// when no cycles elapsed, `Some(compute / total)` otherwise.
    ///
    /// Use this in reports and snapshots where an all-zero interval must
    /// render as `n/a`/`null` rather than as 100% — the convention of
    /// [`utilization`](Self::utilization) is right for folding but wrong
    /// for display.
    #[must_use]
    pub fn utilization_checked(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            None
        } else {
            Some(self.compute() as f64 / total as f64)
        }
    }

    /// Utilization of the interval between an `earlier` snapshot and
    /// now: [`utilization_checked`](Self::utilization_checked) of
    /// [`delta`](Self::delta). `None` when the interval is empty.
    ///
    /// # Example
    ///
    /// ```
    /// use uvpu_core::stats::CycleStats;
    ///
    /// let before = CycleStats { butterfly: 10, elementwise: 0, network_move: 10 };
    /// let after = CycleStats { butterfly: 16, elementwise: 0, network_move: 12 };
    /// assert_eq!(after.utilization_since(&before), Some(0.75));
    /// assert_eq!(after.utilization_since(&after), None);
    /// ```
    #[must_use]
    pub fn utilization_since(&self, earlier: &Self) -> Option<f64> {
        self.delta(earlier).utilization_checked()
    }

    /// Per-field saturating difference `self − earlier`: the cycles
    /// spent between an `earlier` snapshot and now. Saturating rather
    /// than panicking, so a snapshot taken after a counter reset
    /// attributes zero (not garbage) to the interval.
    ///
    /// # Example
    ///
    /// ```
    /// use uvpu_core::stats::CycleStats;
    ///
    /// let before = CycleStats { butterfly: 4, elementwise: 1, network_move: 0 };
    /// let after = CycleStats { butterfly: 9, elementwise: 1, network_move: 2 };
    /// let span = after.delta(&before);
    /// assert_eq!(span.butterfly, 5);
    /// assert_eq!(span.total(), 7);
    /// ```
    #[must_use]
    pub fn delta(&self, earlier: &Self) -> Self {
        Self {
            butterfly: self.butterfly.saturating_sub(earlier.butterfly),
            elementwise: self.elementwise.saturating_sub(earlier.elementwise),
            network_move: self.network_move.saturating_sub(earlier.network_move),
        }
    }
}

impl Add for CycleStats {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self {
            butterfly: self.butterfly + rhs.butterfly,
            elementwise: self.elementwise + rhs.elementwise,
            network_move: self.network_move + rhs.network_move,
        }
    }
}

impl AddAssign for CycleStats {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl fmt::Display for CycleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles (butterfly {}, elementwise {}, move {}; {:.2}% utilized)",
            self.total(),
            self.butterfly,
            self.elementwise,
            self.network_move,
            100.0 * self.utilization()
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_fully_utilized() {
        assert_eq!(CycleStats::new().utilization(), 1.0);
        assert_eq!(CycleStats::new().total(), 0);
    }

    #[test]
    fn utilization_fraction() {
        let s = CycleStats {
            butterfly: 60,
            elementwise: 20,
            network_move: 20,
        };
        assert_eq!(s.compute(), 80);
        assert_eq!(s.total(), 100);
        assert!((s.utilization() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn add_accumulates() {
        let a = CycleStats {
            butterfly: 1,
            elementwise: 2,
            network_move: 3,
        };
        let mut b = a;
        b += a;
        assert_eq!(b, a + a);
        assert_eq!(b.total(), 12);
    }

    #[test]
    fn delta_saturates_per_field() {
        let a = CycleStats {
            butterfly: 10,
            elementwise: 0,
            network_move: 5,
        };
        let b = CycleStats {
            butterfly: 4,
            elementwise: 3,
            network_move: 5,
        };
        let d = a.delta(&b);
        assert_eq!(d.butterfly, 6);
        assert_eq!(d.elementwise, 0, "saturates instead of wrapping");
        assert_eq!(d.network_move, 0);
        assert_eq!(CycleStats::new().delta(&a), CycleStats::new());
    }

    #[test]
    fn checked_utilization_distinguishes_empty_from_perfect() {
        assert_eq!(CycleStats::new().utilization_checked(), None);
        let perfect = CycleStats {
            butterfly: 5,
            elementwise: 0,
            network_move: 0,
        };
        assert_eq!(perfect.utilization_checked(), Some(1.0));
        let s = CycleStats {
            butterfly: 60,
            elementwise: 20,
            network_move: 20,
        };
        assert_eq!(s.utilization_checked(), Some(s.utilization()));
    }

    #[test]
    fn utilization_since_measures_the_interval() {
        let before = CycleStats {
            butterfly: 100,
            elementwise: 0,
            network_move: 100,
        };
        let after = CycleStats {
            butterfly: 103,
            elementwise: 0,
            network_move: 101,
        };
        assert_eq!(after.utilization_since(&before), Some(0.75));
        // Empty interval: None, not the global ratio.
        assert_eq!(after.utilization_since(&after), None);
        // Reset between snapshots (earlier > self): delta saturates to
        // zero, so the interval reads as empty.
        assert_eq!(before.utilization_since(&after), None);
    }

    #[test]
    fn display_mentions_utilization() {
        let s = CycleStats {
            butterfly: 3,
            elementwise: 0,
            network_move: 1,
        };
        let text = s.to_string();
        assert!(text.contains("75.00%"), "got: {text}");
    }
}
