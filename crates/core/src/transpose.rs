//! Dimension transposes on the inter-lane network (paper Fig 3).
//!
//! Two fully-routed demonstrations of the paper's transpose mechanics,
//! executed beat by beat through the VPU's network and per-lane register
//! addressing:
//!
//! - [`transpose_square`]: the regular case of Fig 3(a). Each source
//!   column is rotated to a *diagonal* (one shift traversal + per-lane
//!   scatter), then each diagonal is rotated back to a row (one gathered
//!   shift traversal) — two network passes per column.
//! - [`fig3b_mixed_transpose`]: the paper's worked irregular example
//!   (`m = 4`, dimensions x=4, y=4, z=2): restoring the canonical layout
//!   from the mixed `y|x₁ × x₀|z` layout needs irregular per-element
//!   shifts that the shift stages alone cannot express; a single
//!   constant-geometry pass first un-interleaves each column, after which
//!   two plain shift steps finish — `2 + (log₂ m − log₂ z) = 3` passes
//!   per column, the count the paper's cost analysis uses.

use crate::control::ShiftControls;
use crate::network::{CgDirection, NetworkPass};
use crate::trace::TraceSink;
use crate::vpu::Vpu;
use crate::CoreError;

/// Transposes an `m × m` tile held across registers, through the shift
/// network (Fig 3(a)).
///
/// Input: register `src_base + c` holds matrix column `c` (lane `r` =
/// element `A[r][c]`). Output: register `dst_base + r` holds matrix row
/// `r` (lane `c` = element `A[r][c]`). Source and destination ranges must
/// not overlap.
///
/// Costs exactly `2m` network-move beats.
///
/// # Errors
///
/// Register range errors from the VPU.
///
/// # Example
///
/// ```
/// use uvpu_core::transpose::transpose_square;
/// use uvpu_core::vpu::Vpu;
/// use uvpu_math::modular::Modulus;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = Modulus::new(97)?;
/// let mut vpu = Vpu::new(4, q, 8)?;
/// // Column c of the matrix A[r][c] = 10·r + c.
/// for c in 0..4 {
///     let col: Vec<u64> = (0..4).map(|r| (10 * r + c) as u64).collect();
///     vpu.load(c, &col)?;
/// }
/// transpose_square(&mut vpu, 0, 4)?;
/// assert_eq!(vpu.store(4)?, vec![0, 1, 2, 3]); // row 0
/// assert_eq!(vpu.store(5)?, vec![10, 11, 12, 13]); // row 1
/// # Ok(())
/// # }
/// ```
pub fn transpose_square<S: TraceSink>(
    vpu: &mut Vpu<S>,
    src_base: usize,
    dst_base: usize,
) -> Result<(), CoreError> {
    let m = vpu.lanes();
    vpu.ensure_depth(dst_base + m);
    // Step 1 — column → diagonal: shift column c down by c; the element
    // with row index r lands on lane (r + c) mod m and is scattered to
    // register dst_base + r (per-lane write addressing).
    for c in 0..m {
        let pass = NetworkPass::shift(ShiftControls::from_rotation(m, c as u64));
        let addrs: Vec<usize> = (0..m).map(|lane| dst_base + (lane + m - c) % m).collect();
        vpu.route_scatter(src_base + c, &pass, &addrs)?;
    }
    // Step 2 — diagonal → row: register dst_base + r holds A[r][c] at
    // lane (r + c) mod m; shifting up by r leaves lane c = A[r][c].
    for r in 0..m {
        let pass = NetworkPass::shift(ShiftControls::from_rotation(m, (m - r) as u64 % m as u64));
        vpu.route(dst_base + r, dst_base + r, &pass)?;
    }
    Ok(())
}

/// The paper's Fig 3(b) worked example on `m = 4` lanes, fully routed.
///
/// The 32 elements are indexed by digits `(x, y, z)` with
/// `i = (z·4 + y)·4 + x` (x = 2 bits, y = 2 bits, z = 1 bit). Input
/// layout (**mixed**, as left behind by the short final NTT dimension):
/// register `y·2 + x₁`, lane `x₀·2 + z`. Output layout (**canonical**):
/// register `z·4 + y`, lane `x`.
///
/// Per input column the routing is: one DIT constant-geometry pass (the
/// `[0,16,1,17] → [0,1,16,17]` reorganization the paper describes), one
/// shift traversal with per-lane scatter, and one final shift traversal —
/// `3 = 2 + (log₂ 4 − log₂ 2)` network beats per column.
///
/// # Errors
///
/// Register errors, or a VPU with a lane count other than 4.
pub fn fig3b_mixed_transpose<S: TraceSink>(
    vpu: &mut Vpu<S>,
    src_base: usize,
    dst_base: usize,
) -> Result<(), CoreError> {
    if vpu.lanes() != 4 {
        return Err(CoreError::InvalidLaneCount { lanes: vpu.lanes() });
    }
    vpu.ensure_depth(dst_base + 8);
    let scratch = dst_base + 8;
    vpu.ensure_depth(scratch + 8);

    for reg in 0..8 {
        let (y, x1) = (reg >> 1, reg & 1);
        // Pass 1 — CG reorganization: lanes x₀|z → z|x₀ (un-interleave).
        vpu.route(
            scratch + reg,
            src_base + reg,
            &NetworkPass::cg(CgDirection::Dit),
        )?;
        // Pass 2 — shift by 2·x₁ and scatter diagonally: the element with
        // hidden digit z sits at lane (z ⊕ x₁)·2 + x₀ afterwards, and is
        // written to its target register z·4 + y.
        let rot = 2 * x1 as u64;
        let addrs: Vec<usize> = (0..4)
            .map(|lane| {
                let lane_hi = lane >> 1;
                let z = lane_hi ^ x1; // undo the rotation to recover z
                dst_base + z * 4 + y
            })
            .collect();
        let pass = NetworkPass::shift(ShiftControls::from_rotation(4, rot));
        vpu.route_scatter(scratch + reg, &pass, &addrs)?;
    }
    // Pass 3 — per target register: elements (x₁, z) sit at lane
    // (z ⊕ x₁)·2 + x₀; shifting by 2·z makes the lane x₁·2 + x₀ = x.
    for reg in 0..8 {
        let z = reg >> 2;
        let pass = NetworkPass::shift(ShiftControls::from_rotation(4, 2 * z as u64));
        vpu.route(dst_base + reg, dst_base + reg, &pass)?;
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use uvpu_math::modular::Modulus;

    fn vpu(m: usize, depth: usize) -> Vpu {
        Vpu::new(m, Modulus::new(0x0fff_ffff_fffc_0001).unwrap(), depth).unwrap()
    }

    #[test]
    fn square_transpose_various_sizes() {
        for m in [2usize, 4, 8, 16, 64] {
            let mut v = vpu(m, 2 * m);
            for c in 0..m {
                let col: Vec<u64> = (0..m).map(|r| (r * m + c) as u64).collect();
                v.load(c, &col).unwrap();
            }
            transpose_square(&mut v, 0, m).unwrap();
            for r in 0..m {
                let row: Vec<u64> = (0..m).map(|c| (r * m + c) as u64).collect();
                assert_eq!(v.store(m + r).unwrap(), row, "m={m} row={r}");
            }
            assert_eq!(
                v.stats().network_move,
                2 * m as u64,
                "Fig 3(a): two passes per column"
            );
            assert_eq!(v.stats().compute(), 0, "transpose is pure movement");
        }
    }

    #[test]
    fn square_transpose_is_involution() {
        let m = 8;
        let mut v = vpu(m, 3 * m);
        let data: Vec<Vec<u64>> = (0..m)
            .map(|c| (0..m).map(|r| (r * 31 + c * 7) as u64 % 97).collect())
            .collect();
        for (c, col) in data.iter().enumerate() {
            v.load(c, col).unwrap();
        }
        transpose_square(&mut v, 0, m).unwrap();
        transpose_square(&mut v, m, 2 * m).unwrap();
        for (c, col) in data.iter().enumerate() {
            assert_eq!(v.store(2 * m + c).unwrap(), *col);
        }
    }

    #[test]
    fn fig3b_restores_canonical_layout() {
        // Build the mixed layout y|x₁ × x₀|z from Fig 3(b) and check the
        // routed transpose produces the canonical z|y × x layout.
        let mut v = vpu(4, 32);
        let idx = |x: usize, y: usize, z: usize| ((z * 4 + y) * 4 + x) as u64;
        for reg in 0..8usize {
            let (y, x1) = (reg >> 1, reg & 1);
            let col: Vec<u64> = (0..4)
                .map(|lane| {
                    let (x0, z) = (lane >> 1, lane & 1);
                    idx(x1 * 2 + x0, y, z)
                })
                .collect();
            v.load(reg, &col).unwrap();
        }
        // The paper's first-column example: register (y=0, x₁=0) holds
        // [0, 16, 1, 17].
        assert_eq!(v.store(0).unwrap(), vec![0, 16, 1, 17]);

        fig3b_mixed_transpose(&mut v, 0, 8).unwrap();
        for reg in 0..8usize {
            let (z, y) = (reg >> 2, reg & 3);
            let expect: Vec<u64> = (0..4).map(|x| idx(x, y, z)).collect();
            assert_eq!(v.store(8 + reg).unwrap(), expect, "reg={reg}");
        }
        // 3 network beats per column: 1 CG + 2 shifts.
        assert_eq!(v.stats().network_move, 3 * 8);
    }

    #[test]
    fn fig3b_requires_four_lanes() {
        let mut v = vpu(8, 32);
        assert!(fig3b_mixed_transpose(&mut v, 0, 8).is_err());
    }
}
