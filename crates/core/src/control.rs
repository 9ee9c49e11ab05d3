//! Shift-network control words and the precomputed automorphism table.
//!
//! The shift half of the inter-lane network has `log₂ m` stages of
//! distance `m/2, m/4, …, 1`; the stage of distance `d` has `d`
//! independently controlled MUX groups (one per residue class mod `d`),
//! for `m − 1` control bits per traversal (paper Fig 2).
//!
//! A control word *is* a [`ShiftDecomposition`] of the permutation being
//! routed: [`ShiftControls::from_affine`] produces the word for any merged
//! automorphism-plus-shift `ρ_t ∘ σ_g` in `O(m)` time, proving the paper's
//! §IV-B claim that such permutations need exactly one network traversal.
//!
//! Because the control patterns are irregular, the paper pre-generates
//! them for all `m/2` distinct automorphisms and stores them in a small
//! SRAM (≈2 kbit at `m = 64`); [`AutomorphismControlTable`] models that
//! SRAM, including the runtime merge with the per-column shift of Eq (2).
//!
//! [`ShiftDecomposition`]: uvpu_math::automorphism::ShiftDecomposition

use crate::CoreError;
use uvpu_math::automorphism::{AffineMap, ShiftDecomposition};
use uvpu_math::util::log2_exact;

/// A full set of control bits for one traversal of the shift network.
///
/// `bits[level][class]` drives the MUX group of residue class `class`
/// at the stage of distance `2^level`; when set, every element of that
/// class moves from lane `i` to lane `i + 2^level mod m`.
///
/// # Example
///
/// ```
/// use uvpu_core::control::ShiftControls;
/// use uvpu_math::automorphism::AffineMap;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Route the merged automorphism+shift i ↦ 5i + 3 (mod 64) in one pass.
/// let map = AffineMap::new(64, 5, 3)?;
/// let controls = ShiftControls::from_affine(&map);
/// assert_eq!(controls.bit_count(), 63); // m − 1 control bits
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShiftControls {
    m: usize,
    bits: Vec<Vec<bool>>,
}

impl ShiftControls {
    /// The all-zero control word: every stage passes data straight through.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a power of two ≥ 2.
    #[must_use]
    pub fn identity(m: usize) -> Self {
        let levels = log2_exact(m) as usize;
        Self {
            m,
            bits: (0..levels).map(|l| vec![false; 1 << l]).collect(),
        }
    }

    /// Control word realizing an arbitrary merged automorphism-plus-shift
    /// `i ↦ i·g + t mod m` — the paper's single-traversal guarantee.
    #[must_use]
    pub fn from_affine(map: &AffineMap) -> Self {
        let dec = ShiftDecomposition::decompose(map);
        let m = map.n();
        let levels = log2_exact(m) as usize;
        Self {
            m,
            bits: (0..levels).map(|l| dec.level_bits(l).to_vec()).collect(),
        }
    }

    /// Control word for a uniform cyclic rotation by `t` (every lane's
    /// element moves to lane `i + t mod m`): the binary expansion of `t`
    /// selects whole stages. Used for cross-lane reductions and the
    /// regular transpose steps of Fig 3(a).
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a power of two ≥ 2.
    #[must_use]
    pub fn from_rotation(m: usize, t: u64) -> Self {
        let levels = log2_exact(m) as usize;
        let t = t % m as u64;
        Self {
            m,
            bits: (0..levels)
                .map(|l| vec![(t >> l) & 1 == 1; 1 << l])
                .collect(),
        }
    }

    /// Builds a control word from raw per-level bits.
    ///
    /// # Errors
    ///
    /// [`CoreError::LengthMismatch`] unless `bits[l].len() == 2^l` for every
    /// level and the level count is `log₂ m`.
    pub fn from_bits(m: usize, bits: Vec<Vec<bool>>) -> Result<Self, CoreError> {
        if !m.is_power_of_two() || m < 2 {
            return Err(CoreError::InvalidLaneCount { lanes: m });
        }
        let levels = log2_exact(m) as usize;
        if bits.len() != levels {
            return Err(CoreError::LengthMismatch {
                expected: levels,
                actual: bits.len(),
            });
        }
        for (l, level) in bits.iter().enumerate() {
            if level.len() != 1 << l {
                return Err(CoreError::LengthMismatch {
                    expected: 1 << l,
                    actual: level.len(),
                });
            }
        }
        Ok(Self { m, bits })
    }

    /// Number of lanes this word drives.
    #[must_use]
    pub const fn m(&self) -> usize {
        self.m
    }

    /// The control bit for residue class `class` at stage distance `2^level`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range `level`/`class`.
    #[must_use]
    pub fn bit(&self, level: usize, class: usize) -> bool {
        self.bits[level][class]
    }

    /// All bits of one stage (distance `2^level`), indexed by class.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range `level`.
    #[must_use]
    pub fn level_bits(&self, level: usize) -> &[bool] {
        &self.bits[level]
    }

    /// Number of stages (`log₂ m`).
    #[must_use]
    pub fn levels(&self) -> usize {
        self.bits.len()
    }

    /// Total control bits (`m − 1`).
    #[must_use]
    pub fn bit_count(&self) -> usize {
        self.bits.iter().map(Vec::len).sum()
    }

    /// Flattens the word into `m − 1` bits, stage `m/2` first — the layout
    /// of one control-SRAM row.
    #[must_use]
    pub fn to_word(&self) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.bit_count());
        for level in (0..self.bits.len()).rev() {
            out.extend_from_slice(&self.bits[level]);
        }
        out
    }

    /// Whether the word routes everything straight through.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.bits.iter().all(|l| l.iter().all(|&b| !b))
    }
}

/// The on-chip control SRAM of §IV-B: pre-generated control words for all
/// `m/2` distinct automorphisms `σ_g` (`g` odd), plus the runtime merge
/// with a per-column cyclic shift.
///
/// With `m` lanes the table holds `m/2` words of `m − 1` bits — e.g.
/// ≈2 kbit at `m = 64`, matching the paper's estimate.
///
/// # Example
///
/// ```
/// use uvpu_core::control::AutomorphismControlTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let table = AutomorphismControlTable::new(64)?;
/// assert_eq!(table.sram_bits(), 32 * 63); // (m/2)·(m−1) = 2016 bits
/// let word = table.merged(5, 7)?; // σ_5 composed with a shift by 7
/// assert_eq!(word.bit_count(), 63);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AutomorphismControlTable {
    m: usize,
    /// `words[(g − 1)/2]` is the control word for `σ_g`, `g` odd.
    words: Vec<ShiftControls>,
}

impl AutomorphismControlTable {
    /// Pre-generates control words for every odd multiplier mod `m`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidLaneCount`] if `m` is not a power of two ≥ 2.
    pub fn new(m: usize) -> Result<Self, CoreError> {
        if !m.is_power_of_two() || m < 2 {
            return Err(CoreError::InvalidLaneCount { lanes: m });
        }
        let words = (0..m as u64 / 2)
            .map(|k| {
                Ok(ShiftControls::from_affine(&AffineMap::automorphism(
                    m,
                    2 * k + 1,
                )?))
            })
            .collect::<Result<_, CoreError>>()?;
        Ok(Self { m, words })
    }

    /// The process-wide shared table for `m` lanes, built on first use —
    /// its contents depend on `m` alone, so every `m`-lane VPU (and every
    /// worker's scratch VPU) reads the same one.
    ///
    /// # Errors
    ///
    /// As [`AutomorphismControlTable::new`]; failures are not cached.
    pub fn cached(m: usize) -> Result<std::sync::Arc<Self>, CoreError> {
        static TABLES: uvpu_par::Memo<usize, AutomorphismControlTable> = uvpu_par::Memo::new();
        TABLES.get_or_try_insert_with(&m, || Self::new(m))
    }

    /// Lane count.
    #[must_use]
    pub const fn m(&self) -> usize {
        self.m
    }

    /// The stored word for the pure automorphism `σ_g`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedSize`] if `g` is even.
    pub fn lookup(&self, g: u64) -> Result<&ShiftControls, CoreError> {
        if g.is_multiple_of(2) {
            return Err(CoreError::UnsupportedSize { size: g as usize });
        }
        let g = g % self.m as u64;
        Ok(&self.words[((g - 1) / 2) as usize])
    }

    /// The runtime merge of Eq (2): the control word for `ρ_t ∘ σ_g`
    /// (automorphism then cyclic shift by `t`), computed with the same
    /// `O(m)` combinational logic the paper implements with "extra simple
    /// logic gates" — so any column of a decomposed automorphism still
    /// traverses the network exactly once.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedSize`] if `g` is even.
    pub fn merged(&self, g: u64, t: u64) -> Result<ShiftControls, CoreError> {
        if g.is_multiple_of(2) {
            return Err(CoreError::UnsupportedSize { size: g as usize });
        }
        let map = AffineMap::new(self.m, g % self.m as u64, t % self.m as u64)?;
        Ok(ShiftControls::from_affine(&map))
    }

    /// Total SRAM bits: `(m/2)·(m − 1)`.
    #[must_use]
    pub fn sram_bits(&self) -> usize {
        self.words.len() * (self.m - 1)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn identity_word_is_identity() {
        let c = ShiftControls::identity(16);
        assert!(c.is_identity());
        assert_eq!(c.bit_count(), 15);
        assert_eq!(c.levels(), 4);
    }

    #[test]
    fn rotation_word_sets_whole_stages() {
        let c = ShiftControls::from_rotation(8, 5); // 5 = 0b101
        assert_eq!(c.level_bits(0), &[true]);
        assert_eq!(c.level_bits(1), &[false, false]);
        assert_eq!(c.level_bits(2), &[true, true, true, true]);
        // Rotation by m is identity.
        assert!(ShiftControls::from_rotation(8, 8).is_identity());
    }

    #[test]
    fn rotation_matches_affine_decomposition() {
        for t in 0..32u64 {
            let map = AffineMap::rotation(32, t).unwrap();
            assert_eq!(
                ShiftControls::from_rotation(32, t),
                ShiftControls::from_affine(&map),
                "t = {t}"
            );
        }
    }

    #[test]
    fn from_bits_validates_shape() {
        assert!(ShiftControls::from_bits(8, vec![vec![false]; 3]).is_err());
        assert!(
            ShiftControls::from_bits(8, vec![vec![false], vec![false; 2], vec![false; 4]]).is_ok()
        );
        assert!(ShiftControls::from_bits(6, vec![]).is_err());
    }

    #[test]
    fn to_word_orders_big_stage_first() {
        let mut bits = vec![vec![true], vec![false, true], vec![false; 4]];
        bits[2][3] = true;
        let c = ShiftControls::from_bits(8, bits).unwrap();
        // Stage distance 4 (level 2) first, then 2, then 1.
        assert_eq!(
            c.to_word(),
            vec![false, false, false, true, false, true, true]
        );
        assert_eq!(c.to_word().len(), 7);
    }

    #[test]
    fn table_size_matches_paper() {
        let table = AutomorphismControlTable::new(64).unwrap();
        assert_eq!(table.sram_bits(), 2016); // "about 2 kbits" at m = 64
        assert!(AutomorphismControlTable::new(63).is_err());
    }

    #[test]
    fn lookup_and_merge_agree_with_direct_decomposition() {
        let table = AutomorphismControlTable::new(32).unwrap();
        for g in (1..32u64).step_by(2) {
            let direct = ShiftControls::from_affine(&AffineMap::automorphism(32, g).unwrap());
            assert_eq!(table.lookup(g).unwrap(), &direct);
            for t in [0u64, 1, 7, 31] {
                let merged = table.merged(g, t).unwrap();
                let composed = ShiftControls::from_affine(&AffineMap::new(32, g, t).unwrap());
                assert_eq!(merged, composed);
            }
        }
        assert!(table.lookup(4).is_err());
        assert!(table.merged(2, 0).is_err());
    }
}
