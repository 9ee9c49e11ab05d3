//! The computing lanes (paper Fig 1(c)).
//!
//! Each lane holds a Barrett modular multiplier, a modular
//! adder/subtractor, and a slice of the register file (2 read ports, 1
//! write port). [`LaneArray`] models the `m` lanes' register state and the
//! arithmetic they can perform in one beat:
//!
//! - element-wise add / sub / multiply / multiply-accumulate across all
//!   lanes;
//! - **paired-lane butterflies**: adjacent lanes exchange operands over
//!   their direct connections to compute a DIT or DIF butterfly per pair;
//! - per-lane-addressed register writes, the vector-machine addressing the
//!   diagonal transpose steps of Fig 3 rely on.

use crate::CoreError;
use uvpu_math::modular::Modulus;

/// Which butterfly the paired lanes execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ButterflyKind {
    /// Decimation-in-time: `(u, v) ↦ (u + w·v, u − w·v)`.
    Dit,
    /// Decimation-in-frequency: `(u, v) ↦ (u + v, (u − v)·w)`.
    Dif,
}

/// `x mod q` for a word entering the lanes. Twiddles and simulator state
/// are already in `[0, q)`, so the Barrett reduction is almost never
/// taken.
#[inline]
fn reduce(q: &Modulus, x: u64) -> u64 {
    if x < q.value() {
        x
    } else {
        q.reduce_u64(x)
    }
}

/// The register state and arithmetic units of `m` lanes.
///
/// Registers are indexed by address; `read(addr)` returns the `m`-element
/// vector stored across the lanes at that address.
///
/// # Example
///
/// ```
/// use uvpu_core::lane::LaneArray;
/// use uvpu_math::modular::Modulus;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = Modulus::new(97)?;
/// let mut lanes = LaneArray::new(4, q, 8)?;
/// lanes.write(0, &[1, 2, 3, 4])?;
/// lanes.write(1, &[10, 20, 30, 40])?;
/// lanes.ewise_add(2, 0, 1)?;
/// assert_eq!(lanes.read(2)?, &[11, 22, 33, 44]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LaneArray {
    m: usize,
    modulus: Modulus,
    /// Register `addr` occupies `regs[addr·m .. (addr + 1)·m]`.
    regs: Vec<u64>,
}

impl LaneArray {
    /// Creates `m` lanes with a register file of `depth` entries each.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidLaneCount`] unless `m` is a power of two ≥ 2.
    pub fn new(m: usize, modulus: Modulus, depth: usize) -> Result<Self, CoreError> {
        if !m.is_power_of_two() || m < 2 {
            return Err(CoreError::InvalidLaneCount { lanes: m });
        }
        Ok(Self {
            m,
            modulus,
            regs: vec![0; m * depth],
        })
    }

    /// Lane count `m`.
    #[must_use]
    pub const fn lanes(&self) -> usize {
        self.m
    }

    /// Register file depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.regs.len() / self.m
    }

    /// The lanes' modulus.
    #[must_use]
    pub const fn modulus(&self) -> Modulus {
        self.modulus
    }

    /// Grows the register file to at least `depth` entries.
    pub fn ensure_depth(&mut self, depth: usize) {
        if self.depth() < depth {
            self.regs.resize(depth * self.m, 0);
        }
    }

    fn check_addr(&self, addr: usize) -> Result<(), CoreError> {
        if addr >= self.depth() {
            return Err(CoreError::RegisterOutOfRange {
                address: addr,
                depth: self.depth(),
            });
        }
        Ok(())
    }

    fn check_len(&self, len: usize) -> Result<(), CoreError> {
        if len != self.m {
            return Err(CoreError::LengthMismatch {
                expected: self.m,
                actual: len,
            });
        }
        Ok(())
    }

    /// Reads the vector at a register address.
    ///
    /// # Errors
    ///
    /// [`CoreError::RegisterOutOfRange`] for a bad address.
    pub fn read(&self, addr: usize) -> Result<&[u64], CoreError> {
        self.check_addr(addr)?;
        Ok(&self.regs[addr * self.m..(addr + 1) * self.m])
    }

    /// Writes a vector to a register address (values must be reduced).
    ///
    /// # Errors
    ///
    /// Bad address or wrong vector length.
    pub fn write(&mut self, addr: usize, data: &[u64]) -> Result<(), CoreError> {
        self.check_addr(addr)?;
        self.check_len(data.len())?;
        debug_assert!(data.iter().all(|&x| x < self.modulus.value()));
        self.regs[addr * self.m..(addr + 1) * self.m].copy_from_slice(data);
        Ok(())
    }

    /// [`write`](Self::write) for unreduced words: each is reduced modulo
    /// `q` on its way into the register (the SRAM→VPU load interface).
    ///
    /// # Errors
    ///
    /// Bad address or wrong vector length.
    pub(crate) fn write_reduced(&mut self, addr: usize, data: &[u64]) -> Result<(), CoreError> {
        self.check_addr(addr)?;
        self.check_len(data.len())?;
        let q = self.modulus;
        for (slot, &x) in self.regs[addr * self.m..].iter_mut().zip(data) {
            *slot = reduce(&q, x);
        }
        Ok(())
    }

    /// Per-lane-addressed write: lane `l` writes `data[l]` to register
    /// address `addrs[l]` — the vector-machine addressing mode the
    /// diagonal transpose of Fig 3(a) needs ("write them to the register
    /// addresses of x|z").
    ///
    /// # Errors
    ///
    /// Bad address in `addrs` or wrong vector length.
    pub fn write_per_lane(&mut self, addrs: &[usize], data: &[u64]) -> Result<(), CoreError> {
        self.check_len(data.len())?;
        self.check_len(addrs.len())?;
        for &a in addrs {
            self.check_addr(a)?;
        }
        for (l, (&a, &v)) in addrs.iter().zip(data).enumerate() {
            self.regs[a * self.m + l] = v;
        }
        Ok(())
    }

    /// Per-lane-addressed read: lane `l` reads from register `addrs[l]`.
    ///
    /// # Errors
    ///
    /// Bad address in `addrs`.
    pub fn read_per_lane(&self, addrs: &[usize]) -> Result<Vec<u64>, CoreError> {
        let mut out = vec![0; self.m];
        self.read_per_lane_into(addrs, &mut out)?;
        Ok(out)
    }

    /// [`read_per_lane`](Self::read_per_lane) into a caller-provided
    /// lane-width buffer.
    ///
    /// # Errors
    ///
    /// Bad address in `addrs`, or `addrs`/`out` not lane-width.
    pub(crate) fn read_per_lane_into(
        &self,
        addrs: &[usize],
        out: &mut [u64],
    ) -> Result<(), CoreError> {
        self.check_len(addrs.len())?;
        self.check_len(out.len())?;
        for &a in addrs {
            self.check_addr(a)?;
        }
        for (l, (&a, o)) in addrs.iter().zip(out).enumerate() {
            *o = self.regs[a * self.m + l];
        }
        Ok(())
    }

    /// `dst[l] ← op(a[l], b[l], dst[l])` in every lane, in place. Each
    /// lane reads only its own slot, so `dst` may alias `a` or `b`.
    fn ewise(
        &mut self,
        dst: usize,
        a: usize,
        b: usize,
        op: impl Fn(&Modulus, u64, u64, u64) -> u64,
    ) -> Result<(), CoreError> {
        self.check_addr(dst)?;
        self.check_addr(a)?;
        self.check_addr(b)?;
        let (m, q) = (self.m, self.modulus);
        for l in 0..m {
            let (x, y, acc) = (
                self.regs[a * m + l],
                self.regs[b * m + l],
                self.regs[dst * m + l],
            );
            self.regs[dst * m + l] = op(&q, x, y, acc);
        }
        Ok(())
    }

    /// `dst ← a + b` element-wise.
    ///
    /// # Errors
    ///
    /// Bad register address.
    pub fn ewise_add(&mut self, dst: usize, a: usize, b: usize) -> Result<(), CoreError> {
        self.ewise(dst, a, b, |q, x, y, _| q.add(x, y))
    }

    /// `dst ← a − b` element-wise.
    ///
    /// # Errors
    ///
    /// Bad register address.
    pub fn ewise_sub(&mut self, dst: usize, a: usize, b: usize) -> Result<(), CoreError> {
        self.ewise(dst, a, b, |q, x, y, _| q.sub(x, y))
    }

    /// `dst ← a · b` element-wise (Barrett multipliers, one per lane).
    ///
    /// # Errors
    ///
    /// Bad register address.
    pub fn ewise_mul(&mut self, dst: usize, a: usize, b: usize) -> Result<(), CoreError> {
        self.ewise(dst, a, b, |q, x, y, _| q.mul(x, y))
    }

    /// `dst ← dst + a · b` element-wise (multiply-accumulate, the
    /// matrix/tensor-product primitive).
    ///
    /// # Errors
    ///
    /// Bad register address.
    pub fn ewise_mac(&mut self, dst: usize, a: usize, b: usize) -> Result<(), CoreError> {
        self.ewise(dst, a, b, |q, x, y, acc| q.mul_add(x, y, acc))
    }

    /// `dst ← src · consts` element-wise against an immediate constant
    /// vector (twiddle factors resident in the register file).
    ///
    /// # Errors
    ///
    /// Bad register address or wrong constant-vector length.
    pub fn ewise_mul_const(
        &mut self,
        dst: usize,
        src: usize,
        consts: &[u64],
    ) -> Result<(), CoreError> {
        self.check_addr(dst)?;
        self.check_addr(src)?;
        self.check_len(consts.len())?;
        let (m, q) = (self.m, self.modulus);
        self.regs.copy_within(src * m..(src + 1) * m, dst * m);
        for (x, &c) in self.regs[dst * m..(dst + 1) * m].iter_mut().zip(consts) {
            *x = q.mul(*x, reduce(&q, c));
        }
        Ok(())
    }

    /// Executes one butterfly per adjacent lane pair, in place on the
    /// vector at `addr`. `twiddles[p]` feeds the pair `(2p, 2p + 1)`.
    ///
    /// # Errors
    ///
    /// Bad address, or `twiddles.len() != m/2`.
    pub fn butterfly_adjacent(
        &mut self,
        addr: usize,
        kind: ButterflyKind,
        twiddles: &[u64],
    ) -> Result<(), CoreError> {
        self.check_addr(addr)?;
        if twiddles.len() != self.m / 2 {
            return Err(CoreError::LengthMismatch {
                expected: self.m / 2,
                actual: twiddles.len(),
            });
        }
        let q = self.modulus;
        let v = &mut self.regs[addr * self.m..(addr + 1) * self.m];
        for (pair, &w) in v.chunks_exact_mut(2).zip(twiddles) {
            let w = reduce(&q, w);
            let (u, x) = (pair[0], pair[1]);
            (pair[0], pair[1]) = match kind {
                ButterflyKind::Dit => {
                    let wx = q.mul(w, x);
                    (q.add(u, wx), q.sub(u, wx))
                }
                ButterflyKind::Dif => (q.add(u, x), q.mul(q.sub(u, x), w)),
            };
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn lanes() -> LaneArray {
        LaneArray::new(8, Modulus::new(97).unwrap(), 16).unwrap()
    }

    #[test]
    fn construction_validates() {
        let q = Modulus::new(97).unwrap();
        assert!(LaneArray::new(3, q, 4).is_err());
        assert!(LaneArray::new(0, q, 4).is_err());
        let l = LaneArray::new(8, q, 4).unwrap();
        assert_eq!(l.lanes(), 8);
        assert_eq!(l.depth(), 4);
    }

    #[test]
    fn read_write_round_trip_and_bounds() {
        let mut l = lanes();
        let v: Vec<u64> = (10..18).collect();
        l.write(3, &v).unwrap();
        assert_eq!(l.read(3).unwrap(), v.as_slice());
        assert!(l.read(16).is_err());
        assert!(l.write(16, &v).is_err());
        assert!(l.write(0, &[1, 2, 3]).is_err());
    }

    #[test]
    fn ensure_depth_grows_only() {
        let mut l = lanes();
        l.ensure_depth(4);
        assert_eq!(l.depth(), 16);
        l.ensure_depth(32);
        assert_eq!(l.depth(), 32);
        assert_eq!(l.read(31).unwrap(), &[0; 8]);
    }

    #[test]
    fn elementwise_arithmetic() {
        let mut l = lanes();
        l.write(0, &[90, 2, 3, 4, 5, 6, 7, 96]).unwrap();
        l.write(1, &[10, 20, 30, 40, 50, 60, 70, 2]).unwrap();
        l.ewise_add(2, 0, 1).unwrap();
        assert_eq!(l.read(2).unwrap(), &[3, 22, 33, 44, 55, 66, 77, 1]);
        l.ewise_sub(3, 0, 1).unwrap();
        assert_eq!(l.read(3).unwrap()[0], (90 + 97 - 10) % 97);
        l.ewise_mul(4, 0, 1).unwrap();
        assert_eq!(l.read(4).unwrap()[1], 40);
        l.ewise_mac(4, 0, 1).unwrap();
        assert_eq!(l.read(4).unwrap()[1], 80);
    }

    #[test]
    fn mul_const_reduces_immediates() {
        let mut l = lanes();
        l.write(0, &[1; 8]).unwrap();
        l.ewise_mul_const(1, 0, &[98; 8]).unwrap(); // 98 ≡ 1
        assert_eq!(l.read(1).unwrap(), &[1; 8]);
    }

    #[test]
    fn dit_dif_butterflies_are_inverse_up_to_two() {
        let mut l = lanes();
        let v: Vec<u64> = (1..9).collect();
        l.write(0, &v).unwrap();
        let w = [5u64, 7, 11, 13];
        let w_inv: Vec<u64> = w.iter().map(|&x| l.modulus().inv(x).unwrap()).collect();
        // DIF with w then DIT with w^{-1} doubles each element.
        l.butterfly_adjacent(0, ButterflyKind::Dif, &w).unwrap();
        l.butterfly_adjacent(0, ButterflyKind::Dit, &w_inv).unwrap();
        let q = l.modulus();
        let got = l.read(0).unwrap().to_vec();
        for (x, orig) in got.iter().zip(&v) {
            assert_eq!(*x, q.mul(2, *orig));
        }
    }

    #[test]
    fn butterfly_validates_twiddle_length() {
        let mut l = lanes();
        assert!(l
            .butterfly_adjacent(0, ButterflyKind::Dit, &[1, 2, 3])
            .is_err());
    }

    #[test]
    fn per_lane_addressing_scatters_and_gathers() {
        let mut l = lanes();
        let addrs = [0usize, 1, 2, 3, 4, 5, 6, 7];
        l.write_per_lane(&addrs, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        // Element for lane l went to register addrs[l]; diagonal readback.
        assert_eq!(
            l.read_per_lane(&addrs).unwrap(),
            vec![1, 2, 3, 4, 5, 6, 7, 8]
        );
        // Register 3 holds only lane 3's element.
        assert_eq!(l.read(3).unwrap(), &[0, 0, 0, 4, 0, 0, 0, 0]);
        assert!(l.write_per_lane(&[99; 8], &[0; 8]).is_err());
    }
}
