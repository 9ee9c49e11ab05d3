//! The inter-lane network (paper Fig 2): two constant-geometry NTT stages
//! plus a `log₂ m`-stage shift network.
//!
//! One traversal applies, in order:
//!
//! 1. at most one **constant-geometry (CG) stage** — the perfect shuffle
//!    (DIT orientation) or its inverse (DIF orientation), the fixed
//!    connection pattern of the Pease NTT that brings each butterfly's two
//!    operands into adjacent lanes regardless of the stage's stride;
//! 2. the **shift stages** of distance `m/2, m/4, …, 1`, each a row of
//!    `m` 2:1 MUXes with one control bit per residue class (see
//!    [`ShiftControls`]).
//!
//! When `m = 4` the two CG orientations coincide (the shuffle is an
//! involution) and the stages merge, exactly as the paper notes.

use crate::control::ShiftControls;
use crate::CoreError;
use uvpu_math::util::log2_exact;

/// Orientation of a constant-geometry stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CgDirection {
    /// Decimation-in-time routing: the inverse perfect shuffle
    /// (`out[i] = in[2i]`, `out[i + m/2] = in[2i + 1]`), used by the
    /// inverse NTT and the CG-assisted transposes of Fig 3(b).
    Dit,
    /// Decimation-in-frequency routing: the perfect shuffle
    /// (`out[2i] = in[i]`, `out[2i + 1] = in[i + m/2]`), used by the
    /// forward NTT.
    Dif,
}

/// Configuration of a single network traversal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetworkPass {
    /// Optional CG stage to activate (the other stages route straight
    /// through, as in §III-B).
    pub cg: Option<CgDirection>,
    /// Optional shift-stage control word (`None` routes straight through).
    pub shifts: Option<ShiftControls>,
}

impl NetworkPass {
    /// A pass that only activates a CG stage.
    #[must_use]
    pub fn cg(direction: CgDirection) -> Self {
        Self {
            cg: Some(direction),
            shifts: None,
        }
    }

    /// A pass that only activates the shift stages.
    #[must_use]
    pub fn shift(controls: ShiftControls) -> Self {
        Self {
            cg: None,
            shifts: Some(controls),
        }
    }
}

/// The inter-lane network of an `m`-lane VPU.
///
/// # Example
///
/// ```
/// use uvpu_core::network::{CgDirection, InterLaneNetwork};
/// use uvpu_core::control::ShiftControls;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = InterLaneNetwork::new(8)?;
/// let data: Vec<u64> = (0..8).collect();
///
/// // The DIF CG stage is the perfect shuffle …
/// assert_eq!(net.cg_pass(&data, CgDirection::Dif), vec![0, 4, 1, 5, 2, 6, 3, 7]);
/// // … and a rotation control word cycles all lanes.
/// let rot = ShiftControls::from_rotation(8, 3);
/// assert_eq!(net.shift_pass(&data, &rot), vec![5, 6, 7, 0, 1, 2, 3, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterLaneNetwork {
    m: usize,
    log_m: u32,
}

impl InterLaneNetwork {
    /// Creates a network for `m` lanes.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidLaneCount`] unless `m` is a power of two ≥ 2.
    pub fn new(m: usize) -> Result<Self, CoreError> {
        if !m.is_power_of_two() || m < 2 {
            return Err(CoreError::InvalidLaneCount { lanes: m });
        }
        Ok(Self {
            m,
            log_m: log2_exact(m),
        })
    }

    /// Lane count.
    #[must_use]
    pub const fn lanes(&self) -> usize {
        self.m
    }

    /// Number of shift stages (`log₂ m`).
    #[must_use]
    pub const fn shift_stages(&self) -> u32 {
        self.log_m
    }

    /// Number of CG stages: 2, except 1 at `m = 4` where DIT and DIF
    /// orientations coincide (and 1 at `m = 2`, where the shuffle is the
    /// identity... a single trivial stage).
    #[must_use]
    pub const fn cg_stages(&self) -> u32 {
        if self.m <= 4 {
            1
        } else {
            2
        }
    }

    /// Total MUX stages in one traversal (CG + shift), the quantity that
    /// drives the area model and the critical-path argument of §III-B.
    #[must_use]
    pub const fn total_stages(&self) -> u32 {
        self.cg_stages() + self.shift_stages()
    }

    /// Per-traversal shift control budget: `m − 1` bits (paper Fig 2).
    #[must_use]
    pub const fn control_bits(&self) -> usize {
        self.m - 1
    }

    /// Applies one CG stage.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != m`.
    #[must_use]
    pub fn cg_pass<T: Copy>(&self, data: &[T], direction: CgDirection) -> Vec<T> {
        self.cg_pass_grouped(data, direction, self.m)
    }

    /// Applies a grouped CG stage: the network splits into `m / group`
    /// independent sub-networks of `group` lanes each, letting several
    /// shorter NTTs run in parallel (§IV-A).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != m`, or `group` does not divide `m` evenly
    /// into power-of-two blocks of at least 2 lanes.
    #[must_use]
    pub fn cg_pass_grouped<T: Copy>(
        &self,
        data: &[T],
        direction: CgDirection,
        group: usize,
    ) -> Vec<T> {
        let mut out = data.to_vec();
        self.cg_pass_grouped_into(data, direction, group, &mut out);
        out
    }

    /// [`cg_pass_grouped`](Self::cg_pass_grouped) into a caller-provided
    /// lane-width buffer (every slot of `out` is overwritten).
    ///
    /// # Panics
    ///
    /// As [`cg_pass_grouped`](Self::cg_pass_grouped), or if
    /// `out.len() != m`.
    pub fn cg_pass_grouped_into<T: Copy>(
        &self,
        data: &[T],
        direction: CgDirection,
        group: usize,
        out: &mut [T],
    ) {
        assert_eq!(data.len(), self.m, "lane-width vector");
        assert_eq!(out.len(), self.m, "lane-width output");
        assert!(
            group.is_power_of_two() && group >= 2 && group <= self.m,
            "group size {group} must be a power of two in [2, m]"
        );
        let half = group / 2;
        for (src, dst) in data.chunks_exact(group).zip(out.chunks_exact_mut(group)) {
            match direction {
                // Perfect shuffle: lane i and lane i + g/2 become adjacent.
                CgDirection::Dif => {
                    for i in 0..half {
                        dst[2 * i] = src[i];
                        dst[2 * i + 1] = src[i + half];
                    }
                }
                // Inverse shuffle: adjacent pairs spread back out.
                CgDirection::Dit => {
                    for i in 0..half {
                        dst[i] = src[2 * i];
                        dst[i + half] = src[2 * i + 1];
                    }
                }
            }
        }
    }

    /// Applies the shift stages under a control word: stage distance `m/2`
    /// first down to distance `1`, each moving the selected residue
    /// classes from lane `i` to lane `i + d mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != m` or the control word was built for a
    /// different lane count.
    #[must_use]
    pub fn shift_pass<T: Copy>(&self, data: &[T], controls: &ShiftControls) -> Vec<T> {
        let mut out = data.to_vec();
        self.shift_pass_in_place(&mut out, controls);
        out
    }

    /// [`shift_pass`](Self::shift_pass) in place. A selected class at
    /// distance `d` is the lanes `c, c + d, c + 2d, …`, each moving one
    /// step along — a rotation of that class, which needs no second
    /// buffer.
    ///
    /// # Panics
    ///
    /// As [`shift_pass`](Self::shift_pass).
    pub fn shift_pass_in_place<T: Copy>(&self, data: &mut [T], controls: &ShiftControls) {
        assert_eq!(data.len(), self.m, "lane-width vector");
        assert_eq!(controls.m(), self.m, "control word lane count mismatch");
        let m = self.m;
        for level in (0..controls.levels()).rev() {
            let d = 1usize << level;
            for (class, _) in controls
                .level_bits(level)
                .iter()
                .enumerate()
                .filter(|(_, &set)| set)
            {
                let wrapped = data[m - d + class];
                for i in (class + d..m).step_by(d).rev() {
                    data[i] = data[i - d];
                }
                data[class] = wrapped;
            }
        }
    }

    /// Applies a full traversal (optional CG stage, then shift stages).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != m`.
    #[must_use]
    pub fn traverse<T: Copy>(&self, data: &[T], pass: &NetworkPass) -> Vec<T> {
        let mut out = data.to_vec();
        self.traverse_into(data, pass.cg, pass.shifts.as_ref(), &mut out);
        out
    }

    /// [`traverse`](Self::traverse) into a caller-provided lane-width
    /// buffer, with the pass given by its two halves.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != m` or `out.len() != m`.
    pub(crate) fn traverse_into<T: Copy>(
        &self,
        data: &[T],
        cg: Option<CgDirection>,
        shifts: Option<&ShiftControls>,
        out: &mut [T],
    ) {
        match cg {
            Some(dir) => self.cg_pass_grouped_into(data, dir, self.m, out),
            None => out.copy_from_slice(data),
        }
        if let Some(controls) = shifts {
            self.shift_pass_in_place(out, controls);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uvpu_math::automorphism::AffineMap;

    #[test]
    fn rejects_bad_lane_counts() {
        assert!(InterLaneNetwork::new(0).is_err());
        assert!(InterLaneNetwork::new(1).is_err());
        assert!(InterLaneNetwork::new(12).is_err());
        assert!(InterLaneNetwork::new(64).is_ok());
    }

    #[test]
    fn cg_stages_merge_at_m4() {
        assert_eq!(InterLaneNetwork::new(4).unwrap().cg_stages(), 1);
        assert_eq!(InterLaneNetwork::new(8).unwrap().cg_stages(), 2);
        assert_eq!(InterLaneNetwork::new(64).unwrap().total_stages(), 8);
        // §III-B: 32–64 lanes ⇒ 7–8 stages.
        assert_eq!(InterLaneNetwork::new(32).unwrap().total_stages(), 7);
    }

    #[test]
    fn shuffle_and_unshuffle_are_inverse() {
        let net = InterLaneNetwork::new(16).unwrap();
        let data: Vec<u64> = (100..116).collect();
        let shuffled = net.cg_pass(&data, CgDirection::Dif);
        assert_eq!(net.cg_pass(&shuffled, CgDirection::Dit), data);
    }

    #[test]
    fn dit_and_dif_coincide_at_m4() {
        let net = InterLaneNetwork::new(4).unwrap();
        let data = [10u64, 11, 12, 13];
        assert_eq!(
            net.cg_pass(&data, CgDirection::Dif),
            net.cg_pass(&data, CgDirection::Dit),
            "at m = 4 the shuffle is an involution, so one CG stage suffices"
        );
    }

    #[test]
    fn shuffle_pairs_butterfly_operands() {
        // The DIF CG stage must bring (i, i + m/2) into lanes (2i, 2i+1).
        let net = InterLaneNetwork::new(64).unwrap();
        let data: Vec<u64> = (0..64).collect();
        let out = net.cg_pass(&data, CgDirection::Dif);
        for i in 0..32 {
            assert_eq!(out[2 * i], i as u64);
            assert_eq!(out[2 * i + 1], i as u64 + 32);
        }
    }

    #[test]
    fn grouped_cg_runs_independent_blocks() {
        let net = InterLaneNetwork::new(8).unwrap();
        let data: Vec<u64> = (0..8).collect();
        let out = net.cg_pass_grouped(&data, CgDirection::Dif, 4);
        assert_eq!(out, vec![0, 2, 1, 3, 4, 6, 5, 7]);
    }

    #[test]
    fn shift_pass_realizes_any_affine_map() {
        let net = InterLaneNetwork::new(64).unwrap();
        let data: Vec<u64> = (0..64).collect();
        for g in (1..64u64).step_by(2) {
            for t in [0u64, 1, 13, 63] {
                let map = AffineMap::new(64, g, t).unwrap();
                let controls = crate::control::ShiftControls::from_affine(&map);
                assert_eq!(
                    net.shift_pass(&data, &controls),
                    map.permute(&data),
                    "g={g} t={t}"
                );
            }
        }
    }

    #[test]
    fn paper_fig2_subcolumn_shift_example() {
        // §IV-B, m = 8: shift the even sub-column [0,2,4,6] by 2 positions
        // and the odd sub-column [1,3,5,7] by 3 positions (global
        // distances 4 and 6), yielding [4,6,0,2] and [7,1,3,5].
        let net = InterLaneNetwork::new(8).unwrap();
        let data: Vec<u64> = (0..8).collect();
        // Even sub-column: move every element 4 lanes (2 sub-positions) —
        // one distance-4 step on the even residue classes {0, 2} mod 4.
        // Odd sub-column: the paper's "distance 3" (global 6) equals a
        // single distance-2 step the other way around the length-4 cycle —
        // exactly the control-merging the paper describes.
        let controls = crate::control::ShiftControls::from_bits(
            8,
            vec![
                vec![false],
                vec![false, true],              // distance-2 stage: odd class
                vec![true, false, true, false], // distance-4 stage: even classes
            ],
        )
        .unwrap();
        let out = net.shift_pass(&data, &controls);
        let evens: Vec<u64> = (0..4).map(|i| out[2 * i]).collect();
        let odds: Vec<u64> = (0..4).map(|i| out[2 * i + 1]).collect();
        assert_eq!(evens, vec![4, 6, 0, 2]);
        assert_eq!(odds, vec![7, 1, 3, 5]);
    }

    #[test]
    fn traverse_composes_cg_then_shift() {
        let net = InterLaneNetwork::new(8).unwrap();
        let data: Vec<u64> = (0..8).collect();
        let pass = NetworkPass {
            cg: Some(CgDirection::Dif),
            shifts: Some(crate::control::ShiftControls::from_rotation(8, 1)),
        };
        let expect = net.shift_pass(
            &net.cg_pass(&data, CgDirection::Dif),
            &crate::control::ShiftControls::from_rotation(8, 1),
        );
        assert_eq!(net.traverse(&data, &pass), expect);
        // Default pass is a no-op.
        assert_eq!(net.traverse(&data, &NetworkPass::default()), data);
    }

    proptest! {
        #[test]
        fn shift_pass_is_always_a_permutation(
            log_m in 1u32..=8,
            seed in any::<u64>(),
        ) {
            let m = 1usize << log_m;
            let net = InterLaneNetwork::new(m).unwrap();
            // Random control bits — even arbitrary words permute (each
            // stage is conflict-free by construction).
            let mut s = seed;
            let mut bits = Vec::new();
            for l in 0..log_m as usize {
                let mut level = Vec::new();
                for _ in 0..(1usize << l) {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    level.push(s >> 63 == 1);
                }
                bits.push(level);
            }
            let controls = crate::control::ShiftControls::from_bits(m, bits).unwrap();
            let data: Vec<u64> = (0..m as u64).collect();
            let mut out = net.shift_pass(&data, &controls);
            out.sort_unstable();
            prop_assert_eq!(out, data);
        }
    }
}
