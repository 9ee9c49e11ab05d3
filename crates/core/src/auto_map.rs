//! Mapping automorphisms of arbitrary length onto the VPU (paper §IV-B).
//!
//! A length-`N` automorphism (optionally merged with a cyclic offset —
//! the general form `i ↦ i·g + t mod N`) is decomposed over the row-major
//! `R × C` matrix with `R = m` rows across the lanes:
//!
//! - **Eq (3)**: whole columns move to new column positions (a register
//!   re-address, free);
//! - **Eq (2)**: within each column, a length-`m` automorphism merged
//!   with a column-constant shift — realized in **one** traversal of the
//!   shift network via the precomputed control SRAM.
//!
//! Every element therefore crosses the inter-lane network exactly once,
//! which is why Table III reports 100% throughput utilization for
//! automorphism at every size.

use crate::control::{AutomorphismControlTable, ShiftControls};
use crate::stats::CycleStats;
use crate::trace::TraceSink;
use crate::vpu::Vpu;
use crate::CoreError;
use std::sync::Arc;
use uvpu_math::automorphism::{AffineMap, RowColumnDecomposition};
use uvpu_math::MathError;

/// Result of an automorphism execution.
#[derive(Debug, Clone)]
pub struct AutomorphismExecution {
    /// Permuted output: `output[(i·g + t) mod N] = input[i]`.
    pub output: Vec<u64>,
    /// Cycles consumed (all network-move beats).
    pub stats: CycleStats,
    /// The ideal beat count (one vector pass per `m` elements); the
    /// execution always meets it, so `utilization()` is 1.0.
    pub ideal_beats: u64,
}

impl AutomorphismExecution {
    /// Throughput utilization versus the ideal all-lanes-busy schedule
    /// (paper Table III's automorphism column).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.stats.total() == 0 {
            1.0
        } else {
            self.ideal_beats as f64 / self.stats.total() as f64
        }
    }
}

/// A planned length-`N` automorphism `i ↦ i·g + t mod N` on an `m`-lane VPU.
///
/// # Example
///
/// ```
/// use uvpu_core::auto_map::AutomorphismMapping;
/// use uvpu_core::vpu::Vpu;
/// use uvpu_math::modular::Modulus;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = Modulus::new(97)?;
/// let mut vpu = Vpu::new(8, q, 16)?;
/// let plan = AutomorphismMapping::new(64, 8, 5, 0)?; // σ_{5,1} on N = 64
/// let data: Vec<u64> = (0..64).collect();
/// let run = plan.execute(&mut vpu, &data)?;
/// assert_eq!(run.output[5], 1); // element 1 moved to 1·5 mod 64
/// assert_eq!(run.utilization(), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AutomorphismMapping {
    n: usize,
    m: usize,
    map: AffineMap,
    decomposition: RowColumnDecomposition,
    /// `controls[s]`: the merged control word of Eq (2) for a column
    /// whose row shift is `s` — what the control SRAM's runtime merge
    /// yields for `(g mod m, s)`, resolved once here. Shared, so cloning
    /// a plan stays cheap.
    controls: Arc<[ShiftControls]>,
}

impl AutomorphismMapping {
    /// Plans the map `i ↦ i·g + t mod n` for an `m`-lane VPU.
    ///
    /// # Errors
    ///
    /// - [`CoreError::UnsupportedSize`] if `n < m` or `n` is not a
    ///   power-of-two multiple of `m`.
    /// - [`CoreError::Math`] for an even multiplier `g`.
    pub fn new(n: usize, m: usize, g: u64, t: u64) -> Result<Self, CoreError> {
        if !m.is_power_of_two() || m < 2 {
            return Err(CoreError::InvalidLaneCount { lanes: m });
        }
        if !n.is_power_of_two() || n < m {
            return Err(CoreError::UnsupportedSize { size: n });
        }
        let map = AffineMap::new(n, g, t)?;
        let decomposition = RowColumnDecomposition::new(map, m, n / m).map_err(CoreError::Math)?;
        let table = AutomorphismControlTable::cached(m)?;
        let controls = (0..m as u64)
            .map(|shift| table.merged(g, shift))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            n,
            m,
            map,
            decomposition,
            controls,
        })
    }

    /// Returns the process-wide cached plan for `(n, m, g, t)`, building
    /// it on first use — the control-bit decomposition
    /// ([`RowColumnDecomposition`]) solves one affine map per column, so
    /// schedulers that re-measure the same automorphism shape (the
    /// accelerator's `measure_task`) should share the plan instead of
    /// re-deriving it.
    ///
    /// # Errors
    ///
    /// As [`AutomorphismMapping::new`]; failures are not cached.
    pub fn cached(n: usize, m: usize, g: u64, t: u64) -> Result<Arc<Self>, CoreError> {
        static PLANS: uvpu_par::Memo<(usize, usize, u64, u64), AutomorphismMapping> =
            uvpu_par::Memo::new();
        PLANS.get_or_try_insert_with(&(n, m, g, t), || Self::new(n, m, g, t))
    }

    /// Convenience constructor for the paper's Eq (1): `σ_{Φ,r}` with
    /// `g = Φ^r mod N`.
    ///
    /// # Errors
    ///
    /// As [`AutomorphismMapping::new`].
    pub fn sigma(n: usize, m: usize, phi: u64, r: u32) -> Result<Self, CoreError> {
        if phi.is_multiple_of(2) {
            return Err(CoreError::Math(MathError::EvenMultiplier {
                multiplier: phi,
            }));
        }
        let mut g = 1u64;
        for _ in 0..r {
            g = g * phi % (n as u64);
        }
        Self::new(n, m, g, 0)
    }

    /// Element count `N`.
    #[must_use]
    pub const fn n(&self) -> usize {
        self.n
    }

    /// The underlying index map.
    #[must_use]
    pub const fn map(&self) -> AffineMap {
        self.map
    }

    /// The `R × C` decomposition (R = lanes).
    #[must_use]
    pub const fn decomposition(&self) -> &RowColumnDecomposition {
        &self.decomposition
    }

    /// Column `c` across the lanes (lane `r` holds element `r·C + c`)
    /// makes its one traversal under the column's control word; `lanes`
    /// carries it in and the routed column out.
    fn route_column<S: TraceSink>(
        &self,
        vpu: &mut Vpu<S>,
        input: &[u64],
        c: usize,
        lanes: &mut [u64],
    ) -> Result<(), CoreError> {
        let cols = self.n / self.m;
        for (r, lane) in lanes.iter_mut().enumerate() {
            *lane = input[r * cols + c];
        }
        vpu.load(0, lanes)?;
        let shift = self.decomposition.column_shift(c) as usize;
        vpu.route_shift(1, 0, &self.controls[shift])?;
        vpu.store_into(1, lanes)
    }

    /// Executes the automorphism: each of the `N/m` columns makes exactly
    /// one pass through the shift network with the merged control word of
    /// Eq (2), and lands at the Eq (3) target column.
    ///
    /// # Errors
    ///
    /// Lane-count/modulus mismatches or register errors.
    pub fn execute<S: TraceSink>(
        &self,
        vpu: &mut Vpu<S>,
        input: &[u64],
    ) -> Result<AutomorphismExecution, CoreError> {
        if input.len() != self.n {
            return Err(CoreError::LengthMismatch {
                expected: self.n,
                actual: input.len(),
            });
        }
        if vpu.lanes() != self.m {
            return Err(CoreError::InvalidLaneCount { lanes: vpu.lanes() });
        }
        vpu.ensure_depth(2);
        let start = *vpu.stats();
        vpu.span_begin("automorphism");
        let (m, cols) = (self.m, self.n / self.m);
        let mut output = vec![0u64; self.n];
        let mut lanes = uvpu_math::pool::take_scratch(m);
        for c in 0..cols {
            self.route_column(vpu, input, c, &mut lanes)?;
            // Eq (3): the whole column is stored to its target column.
            let target = self.decomposition.column_target(c);
            for (r, &v) in lanes.iter().enumerate() {
                output[r * cols + target] = v;
            }
        }
        uvpu_math::pool::recycle(lanes);
        vpu.span_end("automorphism");
        let stats = vpu.stats().delta(&start);
        Ok(AutomorphismExecution {
            output,
            stats,
            ideal_beats: cols as u64,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::ntt_map::oracle::probes;
    use proptest::prelude::*;
    use uvpu_math::modular::Modulus;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn compiled_mapping_equals_per_column_control_merge(
            log_m in 1u32..=6,
            extra in 0u32..=12,
            g in any::<u64>(),
            t in any::<u64>(),
        ) {
            // The oracle: every column asks the control SRAM for its
            // merged word at run time and crosses the public per-beat API.
            let (m, n) = (1usize << log_m, 1usize << (log_m + extra));
            let (g, t) = ((g % n as u64) | 1, t % n as u64);
            let q = Modulus::new(0x0fff_ffff_fffc_0001).unwrap();
            let plan = AutomorphismMapping::new(n, m, g, t).unwrap();
            let input: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
            let cols = n / m;

            let expect_vpu = &mut probes(m, q, 1, 3 * cols + 2)[0];
            expect_vpu.span_begin("automorphism");
            let mut expect = vec![0u64; n];
            for c in 0..cols {
                let column: Vec<u64> = (0..m).map(|r| input[r * cols + c]).collect();
                expect_vpu.load(0, &column).unwrap();
                let row_map = plan.decomposition().column_row_map(c);
                expect_vpu
                    .automorphism_pass(1, 0, row_map.multiplier(), row_map.offset())
                    .unwrap();
                let target = plan.decomposition().column_target(c);
                for (r, v) in expect_vpu.store(1).unwrap().into_iter().enumerate() {
                    expect[r * cols + target] = v;
                }
            }
            expect_vpu.span_end("automorphism");

            let got_vpu = &mut probes(m, q, 1, 3 * cols + 2)[0];
            let got = plan.execute(got_vpu, &input).unwrap();
            prop_assert_eq!(&got.output, &expect);
            prop_assert_eq!(&got.output, &plan.map().permute(&input));
            prop_assert_eq!(got.stats, *expect_vpu.stats());
            prop_assert_eq!(got_vpu.sink().0.events(), expect_vpu.sink().0.events());
            prop_assert_eq!(&got_vpu.sink().1, &expect_vpu.sink().1);
        }
    }

    fn vpu(m: usize) -> Vpu {
        Vpu::new(m, Modulus::new(0x0fff_ffff_fffc_0001).unwrap(), 8).unwrap()
    }

    #[test]
    fn validates_parameters() {
        assert!(AutomorphismMapping::new(64, 8, 4, 0).is_err(), "even g");
        assert!(AutomorphismMapping::new(4, 8, 5, 0).is_err(), "n < m");
        assert!(
            AutomorphismMapping::new(96, 8, 5, 0).is_err(),
            "non power of two"
        );
        assert!(AutomorphismMapping::new(64, 8, 5, 63).is_ok());
    }

    #[test]
    fn matches_index_map_exhaustively_small() {
        let mut v = vpu(8);
        let data: Vec<u64> = (0..64).collect();
        for g in (1..64u64).step_by(2) {
            for t in [0u64, 1, 17, 63] {
                let plan = AutomorphismMapping::new(64, 8, g, t).unwrap();
                let run = plan.execute(&mut v, &data).unwrap();
                let expect = AffineMap::new(64, g, t).unwrap().permute(&data);
                assert_eq!(run.output, expect, "g={g} t={t}");
            }
        }
    }

    #[test]
    fn sigma_matches_phi_powers() {
        let mut v = vpu(8);
        let data: Vec<u64> = (0..64).collect();
        for r in 0..6u32 {
            let plan = AutomorphismMapping::sigma(64, 8, 5, r).unwrap();
            let run = plan.execute(&mut v, &data).unwrap();
            let g = (0..r).fold(1u64, |acc, _| acc * 5 % 64);
            let expect = AffineMap::automorphism(64, g).unwrap().permute(&data);
            assert_eq!(run.output, expect, "r={r}");
        }
        assert!(AutomorphismMapping::sigma(64, 8, 6, 1).is_err());
    }

    #[test]
    fn single_network_pass_per_column_gives_full_utilization() {
        let mut v = vpu(16);
        let n = 1 << 12;
        let data: Vec<u64> = (0..n as u64).collect();
        let plan = AutomorphismMapping::new(n, 16, 5, 0).unwrap();
        let run = plan.execute(&mut v, &data).unwrap();
        assert_eq!(run.stats.network_move, (n / 16) as u64);
        assert_eq!(run.stats.butterfly + run.stats.elementwise, 0);
        assert_eq!(
            run.utilization(),
            1.0,
            "Table III: automorphism is always 100%"
        );
    }

    #[test]
    fn large_sizes_match_index_map() {
        let mut v = vpu(64);
        for log_n in [10usize, 12] {
            let n = 1 << log_n;
            let data: Vec<u64> = (0..n as u64).map(|x| x * 3 + 1).collect();
            let plan = AutomorphismMapping::new(n, 64, 25, 7).unwrap();
            let run = plan.execute(&mut v, &data).unwrap();
            let expect = AffineMap::new(n, 25, 7).unwrap().permute(&data);
            assert_eq!(run.output, expect);
            assert_eq!(run.utilization(), 1.0);
        }
    }
}
