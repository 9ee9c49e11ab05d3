//! Mapping NTTs of arbitrary length onto the VPU (paper §IV-A).
//!
//! A length-`N` transform is decomposed into dimensions of at most `m`
//! (the lane count). Each dimension's small NTTs run fully lane-resident
//! as Pease constant-geometry stages ([`SmallNtt`]); element-wise twiddle
//! scalings separate the dimensions; and the shift network transposes the
//! data between dimensions ([`NttPlan`]), following the pass counts of
//! Fig 3: two shift traversals per column for a regular transpose, plus
//! `log₂ m − log₂ d` extra constant-geometry traversals per column when
//! the incoming dimension `d` is shorter than the VPU width.
//!
//! The full pipeline is bit-exact against the golden-model DFT for every
//! size, and its cycle counts reproduce the utilization behaviour of
//! paper Table III.

use crate::stats::CycleStats;
use crate::trace::{EwiseOp, MemDir, TraceSink};
use crate::vpu::{PeaseStage, Vpu};
use crate::CoreError;
use std::sync::Arc;
use uvpu_math::modular::Modulus;
use uvpu_math::primes::min_root_of_unity;
use uvpu_math::util::{bit_reverse, log2_exact};
use uvpu_math::MathError;

/// A length-`L` Pease constant-geometry NTT plan (`L ≤ m`), with
/// precomputed per-stage twiddles.
///
/// Forward stages use the DIF CG route (perfect shuffle) + DIF
/// butterflies; output within each lane group is in **bit-reversed**
/// order. Inverse stages run the exact algebraic inverse (DIT butterflies +
/// unshuffle route, reversed stage order, `L^{-1}` fold), consuming
/// bit-reversed order and producing natural order — so chaining forward
/// and inverse needs no bit-reversal pass, the property the paper's dual
/// DIT/DIF hardware provides.
///
/// # Example
///
/// ```
/// use uvpu_core::ntt_map::SmallNtt;
/// use uvpu_core::vpu::Vpu;
/// use uvpu_math::modular::Modulus;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = Modulus::new(97)?; // 97 ≡ 1 (mod 32)
/// let ntt = SmallNtt::new(q, 8)?;
/// let mut vpu = Vpu::new(8, q, 4)?;
/// vpu.load(0, &[1, 2, 3, 4, 5, 6, 7, 8])?;
/// ntt.run_forward(&mut vpu, 0)?;
/// ntt.run_inverse(&mut vpu, 0)?;
/// assert_eq!(vpu.store(0)?, vec![1, 2, 3, 4, 5, 6, 7, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SmallNtt {
    len: usize,
    log_len: u32,
    modulus: Modulus,
    omega: u64,
    /// Lane count the stage tables below are laid out for.
    lanes: usize,
    /// Stage `s` is `fwd[s·lanes/2..][..lanes/2]`: ω^{(j >> s) << s} for
    /// butterfly `j` of a group, repeated for each of the `lanes/L`
    /// groups the CG network splits into.
    fwd: Vec<u64>,
    /// Inverse twiddles (element-wise inverses of `fwd`).
    inv: Vec<u64>,
    /// `L⁻¹` in every lane (the fold closing the inverse transform).
    scale: Vec<u64>,
}

impl SmallNtt {
    /// Builds the plan for a cyclic NTT of power-of-two length `len ≥ 2`
    /// on a `len`-lane VPU.
    ///
    /// # Errors
    ///
    /// [`MathError::LengthNotPowerOfTwo`] / [`MathError::NoRootOfUnity`]
    /// wrapped in [`CoreError::Math`].
    pub fn new(modulus: Modulus, len: usize) -> Result<Self, CoreError> {
        if !len.is_power_of_two() || len < 2 {
            return Err(CoreError::Math(MathError::LengthNotPowerOfTwo {
                length: len,
            }));
        }
        let omega = min_root_of_unity(&modulus, len as u64)?;
        Self::with_root(modulus, len, omega, len)
    }

    /// Builds the plan with an explicitly chosen primitive `len`-th root —
    /// required when the small transform is one dimension of a larger
    /// decomposition, whose twiddles fix `ω_len = ω^{N/len}` — for a
    /// `lanes`-lane VPU (`lanes/len` lane groups transforming in
    /// parallel). The stage tables are laid out for that width here, so
    /// running the transform replays them without building anything.
    ///
    /// # Errors
    ///
    /// [`CoreError::Math`] if `omega` is not a primitive `len`-th root;
    /// [`CoreError::UnsupportedSize`] unless `lanes` is a positive
    /// multiple of `len`.
    pub fn with_root(
        modulus: Modulus,
        len: usize,
        omega: u64,
        lanes: usize,
    ) -> Result<Self, CoreError> {
        if !len.is_power_of_two() || len < 2 {
            return Err(CoreError::Math(MathError::LengthNotPowerOfTwo {
                length: len,
            }));
        }
        if lanes == 0 || !lanes.is_multiple_of(len) {
            return Err(CoreError::UnsupportedSize { size: len });
        }
        if modulus.pow(omega, len as u64) != 1
            || (len > 1 && modulus.pow(omega, len as u64 / 2) == 1)
        {
            return Err(CoreError::Math(MathError::NoRootOfUnity {
                modulus: modulus.value(),
                order: len as u64,
            }));
        }
        let log_len = log2_exact(len);
        let stages = |root: u64| -> Vec<u64> {
            let powers: Vec<u64> = powers(modulus, root, len / 2).collect();
            (0..log_len)
                .flat_map(|s| (0..lanes / 2).map(move |j| ((j % (len / 2)) >> s) << s))
                .map(|e| powers[e])
                .collect()
        };
        Ok(Self {
            len,
            log_len,
            modulus,
            omega,
            lanes,
            fwd: stages(omega),
            inv: stages(modulus.inv(omega)?),
            scale: vec![modulus.inv(len as u64)?; lanes],
        })
    }

    /// Transform length `L`.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Always false: the length is at least 2 (kept for API symmetry).
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        false
    }

    /// The primitive `L`-th root of unity in use.
    #[must_use]
    pub const fn omega(&self) -> u64 {
        self.omega
    }

    /// The modulus the twiddles were computed under.
    #[must_use]
    pub const fn modulus(&self) -> Modulus {
        self.modulus
    }

    /// Number of butterfly stages (`log₂ L`).
    #[must_use]
    pub const fn stages(&self) -> u32 {
        self.log_len
    }

    /// Stage `s` of a stage table (`lanes/2` twiddles).
    fn stage<'a>(&self, table: &'a [u64], s: usize) -> &'a [u64] {
        &table[s * self.lanes / 2..(s + 1) * self.lanes / 2]
    }

    /// Stage `s` of a stage table, re-laid for `m` lanes.
    fn stage_pool(&self, table: &[u64], s: usize, m: usize) -> Vec<u64> {
        let group = &self.stage(table, s)[..self.len / 2];
        group.iter().copied().cycle().take(m / 2).collect()
    }

    /// Compiles the forward transform into a VPU assembly [`Program`]
    /// operating in place on register `addr` — the lane-resident NTT as
    /// an inspectable artifact (one `pease.fwd` instruction per stage,
    /// twiddles in named constant pools).
    ///
    /// [`Program`]: crate::isa::Program
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a multiple of the transform length.
    #[must_use]
    pub fn forward_program(&self, addr: usize, m: usize) -> crate::isa::Program {
        assert_eq!(
            m % self.len,
            0,
            "lane count must be a multiple of the length"
        );
        let mut prog = crate::isa::Program::new();
        for s in 0..self.log_len as usize {
            let pool = format!("tw{s}");
            prog.pools
                .insert(pool.clone(), self.stage_pool(&self.fwd, s, m));
            prog.instrs.push(crate::isa::Instr::PeaseForward {
                addr,
                pool,
                group: self.len,
            });
        }
        prog
    }

    /// Compiles the inverse transform into a VPU assembly [`Program`]
    /// (reversed stages, inverse twiddles, and the `L^{-1}` fold).
    ///
    /// [`Program`]: crate::isa::Program
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a multiple of the transform length.
    #[must_use]
    pub fn inverse_program(&self, addr: usize, m: usize) -> crate::isa::Program {
        assert_eq!(
            m % self.len,
            0,
            "lane count must be a multiple of the length"
        );
        let mut prog = crate::isa::Program::new();
        for s in (0..self.log_len as usize).rev() {
            let pool = format!("itw{s}");
            prog.pools
                .insert(pool.clone(), self.stage_pool(&self.inv, s, m));
            prog.instrs.push(crate::isa::Instr::PeaseInverse {
                addr,
                pool,
                group: self.len,
            });
        }
        prog.pools.insert("linv".into(), vec![self.scale[0]; m]);
        prog.instrs.push(crate::isa::Instr::MulConst {
            dst: addr,
            src: addr,
            pool: "linv".into(),
        });
        prog
    }

    fn check_lanes<S: TraceSink>(&self, vpu: &Vpu<S>) -> Result<(), CoreError> {
        if vpu.lanes() == self.lanes {
            Ok(())
        } else {
            Err(CoreError::UnsupportedSize { size: self.len })
        }
    }

    /// Runs the forward transform on the register at `addr`, transforming
    /// all `m/L` lane groups in parallel. Costs `log₂ L` butterfly beats.
    ///
    /// Output within each group: position `p` holds `X[bit_reverse(p)]`.
    ///
    /// # Errors
    ///
    /// Register errors from the VPU, or a lane count other than the one
    /// the plan was built for.
    pub fn run_forward<S: TraceSink>(
        &self,
        vpu: &mut Vpu<S>,
        addr: usize,
    ) -> Result<(), CoreError> {
        self.check_lanes(vpu)?;
        for s in 0..self.log_len as usize {
            let twiddles = self.stage(&self.fwd, s);
            vpu.pease_stage(addr, &PeaseStage::Forward { twiddles }, self.len)?;
        }
        Ok(())
    }

    /// Runs the inverse transform (bit-reversed input → natural output,
    /// scaled by `L^{-1}`). Costs `log₂ L` butterfly beats plus one
    /// element-wise beat for the `L^{-1}` fold.
    ///
    /// # Errors
    ///
    /// Register errors from the VPU, or an incompatible lane count.
    pub fn run_inverse<S: TraceSink>(
        &self,
        vpu: &mut Vpu<S>,
        addr: usize,
    ) -> Result<(), CoreError> {
        self.check_lanes(vpu)?;
        for s in (0..self.log_len as usize).rev() {
            let twiddles = self.stage(&self.inv, s);
            vpu.pease_stage(addr, &PeaseStage::Inverse { twiddles }, self.len)?;
        }
        vpu.ewise_mul_const(addr, addr, &self.scale)
    }
}

/// `root^0, root^1, …, root^{count − 1}`.
fn powers(modulus: Modulus, root: u64, count: usize) -> impl Iterator<Item = u64> {
    let mut acc = 1u64;
    (0..count).map(move |_| {
        let power = acc;
        acc = modulus.mul(acc, root);
        power
    })
}

/// Direction of a planned transform execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Forward,
    Inverse,
}

/// Result of executing a planned transform: the output values plus the
/// cycle statistics of just this execution.
#[derive(Debug, Clone)]
pub struct NttExecution {
    /// Transform output in natural index order.
    pub output: Vec<u64>,
    /// Cycles consumed by this execution only.
    pub stats: CycleStats,
}

/// A multi-dimensional NTT plan for length `N` on an `m`-lane VPU.
///
/// The decomposition uses `⌈log N / log m⌉` dimensions: every dimension
/// is `m` except the last, which is `N / m^{k−1} ∈ [2, m]` (for `N ≤ m` a
/// single dimension of length `N`). This matches the paper's §II-B
/// scheme. The executed pipeline is:
///
/// 1. *(negacyclic only)* ψ-twist, one element-wise beat per column;
/// 2. for each dimension: inter-dimension twiddle scaling (element-wise),
///    a shift-network transpose (network-move beats, Fig 3 pass counts),
///    and the lane-resident Pease NTT stages (butterfly beats);
/// 3. metadata readout — output ordering is address arithmetic, free.
///
/// The plan is *compiled*: everything that depends only on `(q, N, m)` —
/// stage twiddles laid out for `m` lanes, the ω-power table behind the
/// twiddle and twist scalings — is resolved here, and all index maps are
/// closed-form bit-field shuffles of the element code (every dimension
/// is a power of two), so executing does only gathers, lane arithmetic,
/// network routing and event emission.
///
/// # Example
///
/// ```
/// use uvpu_core::ntt_map::NttPlan;
/// use uvpu_core::vpu::Vpu;
/// use uvpu_math::{modular::Modulus, primes::ntt_prime};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let n = 256;
/// let q = Modulus::new(ntt_prime(30, n)?)?;
/// let plan = NttPlan::new(q, n, 16)?; // two dimensions of 16
/// assert_eq!(plan.dims(), &[16, 16]);
/// let mut vpu = Vpu::new(16, q, 64)?;
/// let data: Vec<u64> = (0..n as u64).collect();
/// let fwd = plan.execute_forward(&mut vpu, &data)?;
/// let back = plan.execute_inverse(&mut vpu, &fwd.output)?;
/// assert_eq!(back.output, data);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NttPlan {
    n: usize,
    m: usize,
    dims: Vec<usize>,
    /// `log₂` of each dimension: digit `s` of an element code occupies
    /// `bits[s]` bits above those of the digits before it.
    bits: Vec<u32>,
    modulus: Modulus,
    /// Primitive `n`-th root of unity for the inter-dimension twiddles.
    omega: u64,
    /// `ω^e` for `e ∈ [0, n/2)` (see [`Self::omega_pow`]). Shared, so
    /// cloning a plan stays cheap.
    omega_pows: Arc<[u64]>,
    /// Per-dimension small transforms, laid out for `m` lanes.
    small: Vec<SmallNtt>,
    /// `(ψ, ψ⁻¹)`, ψ the primitive `2n`-th root of the negacyclic twist,
    /// if the modulus has one.
    psi: Option<(u64, u64)>,
    /// The lane-width all-ones immediate of the charged scaling beats.
    ones: Vec<u64>,
    /// `bit_reverse(p, log₂ m)` for `p < m`; a `b`-bit reversal is the
    /// top `b` bits of it.
    brv: Vec<usize>,
}

/// Where dimension `t` sits while it occupies the lanes.
///
/// Lanes: `grp · d_t + pos`, where `grp` is the low part of the packed
/// already-transformed digits `K` when `d_t < m` (partial dimensions
/// share the lanes, as in Fig 3). Columns: the rest of `K`, then the
/// untransformed digits (dimension `t + 1` most significant). So the
/// element codes of one lane group of one column are
/// `base(col) + grp + pos · Π_{u<t} d_u`.
struct DimLayout {
    t: usize,
    /// `log₂ d_t`.
    bits: u32,
    /// Bit offset of digit `t` in an element code (`log₂ Π_{u<t} d_u`).
    off: u32,
    /// Lane groups that hold data (`m / d_t`, or 1 when `n < m`).
    groups: usize,
    /// `log₂` of the number of columns sharing the untransformed digits.
    k_bits: u32,
}

/// Column passes below this many beats (`columns × stages`) run on the
/// calling thread even when workers are available. Measured on the
/// 2-core reference host at m = 64: a fan-out costs ≈ 150 µs (thread
/// spawns, joins, the analytic re-charge) and saves ≈ 0.08 µs per beat,
/// so the 1 536-beat dimensions of n = 2^14 lose to the sequential loop
/// (1.39 vs 1.26 ms) and the 3 072-beat ones of n = 2^15 win (2.50 vs
/// 2.71 ms).
const PAR_MIN_BEATS: usize = 2048;

/// Columns handed to a worker at a time in the parallel column pass.
/// Measured with `PAR_MIN_BEATS` (2 threads, n = 2^16, median of 60):
/// one column per queue pull costs 5.14 ms, 4 → 4.90, 16 → 4.85, 64 →
/// 4.75 (n = 2^15: 2.71 / 2.67 / 2.51 / 2.49). 16 is where the curve
/// flattens, and it still leaves 21 pieces to balance over the workers
/// at the cut-off (342 columns of 6 stages), where 64 would leave 5.
const PAR_COLUMN_BATCH: usize = 16;

impl NttPlan {
    /// Plans a length-`n` transform for an `m`-lane VPU.
    ///
    /// # Errors
    ///
    /// - [`CoreError::UnsupportedSize`] for `n < 2`, non-power-of-two `n`,
    ///   or `n` not decomposable over `m` (the trailing dimension must be
    ///   at least 2).
    /// - [`CoreError::Math`] when the modulus lacks the required roots of
    ///   unity.
    pub fn new(modulus: Modulus, n: usize, m: usize) -> Result<Self, CoreError> {
        if !n.is_power_of_two() || n < 2 {
            return Err(CoreError::UnsupportedSize { size: n });
        }
        if !m.is_power_of_two() || m < 2 {
            return Err(CoreError::InvalidLaneCount { lanes: m });
        }
        let log_m = log2_exact(m);
        let mut bits = Vec::new();
        let mut remaining = log2_exact(n);
        while remaining > 0 {
            // A trailing dimension of length 1 cannot occur, but a
            // trailing 2 on a wide VPU is fine: the CG network splits
            // into m/2 groups.
            let b = remaining.min(log_m);
            bits.push(b);
            remaining -= b;
        }
        let dims: Vec<usize> = bits.iter().map(|&b| 1usize << b).collect();
        // Root consistency: when the modulus supports the negacyclic twist
        // (a 2n-th root ψ exists), derive ω = ψ² so that twisted-cyclic
        // and negacyclic pipelines agree; each dimension's small-NTT root
        // is then ω^{n/d}, pinned by the inter-dimension twiddles.
        let psi = match min_root_of_unity(&modulus, 2 * n as u64) {
            Ok(psi) => Some((psi, modulus.inv(psi)?)),
            Err(_) => None,
        };
        let omega = match psi {
            Some((p, _)) => modulus.mul(p, p),
            None => min_root_of_unity(&modulus, n as u64)?,
        };
        let mut plan = Self {
            n,
            m,
            dims,
            bits,
            modulus,
            omega,
            omega_pows: powers(modulus, omega, n / 2).collect(),
            small: Vec::new(),
            psi,
            ones: vec![1; m],
            brv: (0..m).map(|p| bit_reverse(p, log_m)).collect(),
        };
        plan.small = plan
            .dims
            .iter()
            .map(|&d| SmallNtt::with_root(modulus, d, plan.omega_pow(n / d), m))
            .collect::<Result<_, _>>()?;
        Ok(plan)
    }

    /// `ω^e` for `e ∈ [0, n)`; `ω^{−e}` is `ω^{n − e}`. The table holds
    /// the lower half of the powers and `ω^{n/2} = −1` gives the rest.
    fn omega_pow(&self, e: usize) -> u64 {
        match e.checked_sub(self.n / 2) {
            None => self.omega_pows[e],
            Some(low) => self.modulus.neg(self.omega_pows[low]),
        }
    }

    /// Returns the process-wide cached plan for `(q, n, m)`, building it
    /// on first use. Plan construction pays a root search plus the
    /// twiddle tables of every dimension; schedulers and benches that
    /// repeatedly execute the same shape should share the plan.
    ///
    /// # Errors
    ///
    /// As [`NttPlan::new`]; failures are not cached.
    pub fn cached(modulus: Modulus, n: usize, m: usize) -> Result<Arc<Self>, CoreError> {
        static PLANS: uvpu_par::Memo<(u64, usize, usize), NttPlan> = uvpu_par::Memo::new();
        PLANS.get_or_try_insert_with(&(modulus.value(), n, m), || Self::new(modulus, n, m))
    }

    /// Transform length `N`.
    #[must_use]
    pub const fn n(&self) -> usize {
        self.n
    }

    /// Lane count the plan targets.
    #[must_use]
    pub const fn m(&self) -> usize {
        self.m
    }

    /// The dimension decomposition, in processing order.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The `n`-th root of unity used for inter-dimension twiddles.
    #[must_use]
    pub const fn omega(&self) -> u64 {
        self.omega
    }

    /// Lane-width columns per pass; a transform shorter than the VPU
    /// occupies one partial column.
    fn cols(&self) -> usize {
        (self.n / self.m).max(1)
    }

    // ---- closed-form index maps ----------------------------------------
    //
    // An element *code* packs its per-dimension digits with dimension 0
    // least significant: `code = Σ_s x_s · Π_{u<s} d_u`. After the last
    // dimension is transformed the code is the natural output index.

    /// Flat input index of an element: its digits in reverse significance
    /// (`i = Σ_s x_s · Π_{u>s} d_u` — dimension 0 is processed first and
    /// has the largest input stride).
    fn input_index(&self, mut code: usize) -> usize {
        let mut index = 0;
        for &b in &self.bits {
            index = (index << b) | (code & ((1 << b) - 1));
            code >>= b;
        }
        index
    }

    fn layout(&self, t: usize) -> DimLayout {
        let off: u32 = self.bits[..t].iter().sum();
        // Only a short last dimension (or a single one, `n < m`) shares
        // the lanes between groups, and then never more groups than
        // there are already-transformed index values.
        let groups = (self.m >> self.bits[t]).min(1 << off);
        DimLayout {
            t,
            bits: self.bits[t],
            off,
            groups,
            k_bits: off - log2_exact(groups),
        }
    }

    /// Calls `visit(lane, code)` for each occupied lane of column `col`.
    /// With `reversed`, in-group position `p` maps to digit
    /// `bit_reverse(p)` — the transformed side of a Pease NTT (forward
    /// output, inverse input); otherwise to digit `p`.
    fn for_column(
        &self,
        lay: &DimLayout,
        col: usize,
        reversed: bool,
        mut visit: impl FnMut(usize, usize),
    ) {
        // Column = (rest of K) + 2^k_bits · r, r the untransformed digits
        // with dimension t + 1 most significant.
        let mut base = (col & ((1 << lay.k_bits) - 1)) * lay.groups;
        let mut rest = col >> lay.k_bits;
        let mut off = log2_exact(self.n);
        for &b in self.bits[lay.t + 1..].iter().rev() {
            off -= b;
            base |= (rest & ((1 << b) - 1)) << off;
            rest >>= b;
        }
        let narrow = log2_exact(self.m) - lay.bits;
        for grp in 0..lay.groups {
            for pos in 0..1 << lay.bits {
                let digit = if reversed {
                    self.brv[pos] >> narrow
                } else {
                    pos
                };
                visit((grp << lay.bits) + pos, base + grp + (digit << lay.off));
            }
        }
    }

    /// Column `col` gathered from `state` into the lane-width `lanes`
    /// (unoccupied lanes read zero), through its small NTT on `vpu`, and
    /// back out into `lanes`.
    fn transform_column<S: TraceSink>(
        &self,
        vpu: &mut Vpu<S>,
        lay: &DimLayout,
        col: usize,
        direction: Direction,
        state: &[u64],
        lanes: &mut [u64],
    ) -> Result<(), CoreError> {
        lanes[lay.groups << lay.bits..].fill(0);
        let reversed = direction == Direction::Inverse;
        self.for_column(lay, col, reversed, |lane, code| lanes[lane] = state[code]);
        vpu.load(0, lanes)?;
        match direction {
            Direction::Forward => self.small[lay.t].run_forward(vpu, 0)?,
            Direction::Inverse => self.small[lay.t].run_inverse(vpu, 0)?,
        }
        vpu.store_into(0, lanes)
    }

    fn transpose_moves_per_column(&self, t: usize) -> u64 {
        // Fig 3: two shift traversals per column; entering a dimension
        // shorter than the VPU width costs log m − log d extra CG
        // traversals per column (up to log m − 1 for d = 2).
        2 + u64::from(log2_exact(self.m) - self.bits[t])
    }

    // ---- execution -----------------------------------------------------

    fn execute_on<S: TraceSink>(
        &self,
        vpus: &mut [Vpu<S>],
        input: &[u64],
        direction: Direction,
        negacyclic: bool,
    ) -> Result<NttExecution, CoreError> {
        if vpus.is_empty() {
            return Err(CoreError::InvalidLaneCount { lanes: 0 });
        }
        if input.len() != self.n {
            return Err(CoreError::LengthMismatch {
                expected: self.n,
                actual: input.len(),
            });
        }
        for vpu in vpus.iter() {
            if vpu.lanes() != self.m {
                return Err(CoreError::InvalidLaneCount { lanes: vpu.lanes() });
            }
            if vpu.modulus() != self.modulus {
                return Err(CoreError::Math(MathError::ModulusMismatch));
            }
        }
        let twist = if negacyclic {
            Some(self.psi.ok_or(CoreError::Math(MathError::NoRootOfUnity {
                modulus: self.modulus.value(),
                order: 2 * self.n as u64,
            }))?)
        } else {
            None
        };
        for vpu in vpus.iter_mut() {
            vpu.ensure_depth(2);
        }
        let starts: Vec<CycleStats> = vpus.iter().map(|v| *v.stats()).collect();
        let cols = self.cols() as u64;
        let kdims = self.dims.len();
        // Phase spans are emitted on shard 0 (the only shard for
        // single-VPU runs); sharded beats still trace on their own VPU.
        let phase = match (direction, negacyclic) {
            (Direction::Forward, false) => "ntt.forward",
            (Direction::Forward, true) => "ntt.forward_negacyclic",
            (Direction::Inverse, false) => "ntt.inverse",
            (Direction::Inverse, true) => "ntt.inverse_negacyclic",
        };
        vpus[0].span_begin(phase);
        let trace_names = vpus[0].sink().enabled();
        let q = self.modulus;
        let mask = self.n - 1;
        // x · ψ^{±i} from ψ^{±i} = ω^{±⌊i/2⌋} · ψ^{±(i mod 2)}: `half` is
        // the exponent of the ω factor, `odd` is ψ^{±1}.
        let twisted = |x: u64, i: usize, half: usize, odd: u64| {
            let y = q.mul(x, self.omega_pow(half));
            if i & 1 == 1 {
                q.mul(y, odd)
            } else {
                y
            }
        };

        // state[code] = current value of the element with that digit code.
        // Every code is written before any read (the digit map is a
        // bijection), so uninitialized pool scratch is safe here.
        let mut state = uvpu_math::pool::take_scratch(self.n);
        let output = match direction {
            Direction::Forward => {
                // Load through the digit reversal; the ψ-twist x_i · ψ^i
                // turns the negacyclic problem cyclic. Its element-wise
                // beats are charged below.
                for (code, slot) in state.iter_mut().enumerate() {
                    let i = self.input_index(code);
                    let x = q.reduce_u64(input[i]);
                    *slot = match twist {
                        Some((psi, _)) => twisted(x, i, i >> 1, psi),
                        None => x,
                    };
                }
                if twist.is_some() {
                    // One element-wise beat per column for the twist.
                    vpus[0].span_begin("ntt.twist");
                    self.charge_elementwise(vpus, cols)?;
                    vpus[0].span_end("ntt.twist");
                }
                for t in 0..kdims {
                    if t > 0 {
                        // Inter-dimension twiddle (element-wise) …
                        vpus[0].span_begin("ntt.twiddle");
                        self.apply_twiddles(&mut state, t, false);
                        self.charge_elementwise(vpus, cols)?;
                        vpus[0].span_end("ntt.twiddle");
                        // … then the transpose bringing dim t into lanes.
                        self.charge_transpose(vpus, t);
                    }
                    self.run_dimension(vpus, &mut state, t, Direction::Forward, trace_names)?;
                }
                // Readout: code == natural output index by construction.
                state
            }
            Direction::Inverse => {
                for (slot, &x) in state.iter_mut().zip(input) {
                    *slot = q.reduce_u64(x);
                }
                for t in (0..kdims).rev() {
                    if t < kdims - 1 {
                        // Mirror of the forward transpose (leaving dim t+1).
                        self.charge_transpose(vpus, t + 1);
                    }
                    self.run_dimension(vpus, &mut state, t, Direction::Inverse, trace_names)?;
                    if t > 0 {
                        vpus[0].span_begin("ntt.twiddle");
                        self.apply_twiddles(&mut state, t, true);
                        self.charge_elementwise(vpus, cols)?;
                        vpus[0].span_end("ntt.twiddle");
                    }
                }
                // Store through the digit reversal, untwisting by ψ^{−i}.
                let mut out = uvpu_math::pool::take_scratch(self.n);
                for (code, &x) in state.iter().enumerate() {
                    let i = self.input_index(code);
                    out[i] = match twist {
                        Some((_, psi_inv)) => twisted(x, i, (self.n - (i >> 1)) & mask, psi_inv),
                        None => x,
                    };
                }
                uvpu_math::pool::recycle(state);
                if twist.is_some() {
                    vpus[0].span_begin("ntt.twist");
                    self.charge_elementwise(vpus, cols)?;
                    vpus[0].span_end("ntt.twist");
                }
                out
            }
        };
        vpus[0].span_end(phase);
        let mut stats = CycleStats::new();
        for (vpu, start) in vpus.iter().zip(&starts) {
            stats += vpu.stats().delta(start);
        }
        Ok(NttExecution { output, stats })
    }

    fn charge_elementwise<S: TraceSink>(
        &self,
        vpus: &mut [Vpu<S>],
        beats: u64,
    ) -> Result<(), CoreError> {
        // Run genuine element-wise beats on a scratch register so the
        // accounting flows through the normal pipeline path, one beat per
        // column distributed round-robin across the shard set.
        let shard_count = vpus.len();
        for b in 0..beats {
            vpus[(b as usize) % shard_count].ewise_mul_const(1, 1, &self.ones)?;
        }
        Ok(())
    }

    /// Charges the transpose that brings dimension `t` into the lanes
    /// (or, mirrored, takes it out), column by column round-robin.
    fn charge_transpose<S: TraceSink>(&self, vpus: &mut [Vpu<S>], t: usize) {
        vpus[0].span_begin("ntt.transpose");
        let shard_count = vpus.len();
        for c in 0..self.cols() {
            vpus[c % shard_count].charge_network_moves(self.transpose_moves_per_column(t));
        }
        vpus[0].span_end("ntt.transpose");
    }

    /// Applies the inter-dimension twiddles for dimension `t` directly on
    /// the logical state (values are position-independent scalings; the
    /// pipeline beat is charged by the caller): `ω_{P_t}^{x_t · κ_t}`
    /// with `P_t = Π_{u≤t} d_u` and `κ_t` the packed transformed index so
    /// far — the low bits of the code — read from the ω-power table.
    fn apply_twiddles(&self, state: &mut [u64], t: usize, inverse: bool) {
        let off: u32 = self.bits[..t].iter().sum();
        let span = off + self.bits[t];
        let step = log2_exact(self.n) - span;
        for (code, v) in state.iter_mut().enumerate() {
            let kappa = code & ((1 << off) - 1);
            let digit = (code >> off) & ((1 << self.bits[t]) - 1);
            let e = ((digit * kappa) & ((1 << span) - 1)) << step;
            if e != 0 {
                let e = if inverse { self.n - e } else { e };
                *v = self.modulus.mul(*v, self.omega_pow(e));
            }
        }
    }

    /// Runs dimension `t`'s small NTTs through the VPUs, column by
    /// column, round-robin across the shard set.
    fn run_dimension<S: TraceSink>(
        &self,
        vpus: &mut [Vpu<S>],
        state: &mut [u64],
        t: usize,
        direction: Direction,
        trace_names: bool,
    ) -> Result<(), CoreError> {
        if trace_names {
            vpus[0].span_begin(&format!("ntt.dim{t}"));
        }
        let (m, cols) = (self.m, self.cols());
        let lay = self.layout(t);
        // Forward reads digit i_t at position p = i_t and leaves
        // X[brv(p)] at p; the inverse consumes that order and restores
        // the natural one. So one side of each pass is bit-reversed.
        let inverse = direction == Direction::Inverse;
        let shard_count = vpus.len();
        if uvpu_par::max_threads() > 1 && cols * lay.bits as usize >= PAR_MIN_BEATS {
            // Parallel path: every column's lane transform is
            // independent, so workers run the identical `SmallNtt` code on
            // private scratch VPUs, writing column-major into `routed`,
            // while the *real* shards are charged analytically below — in
            // the same deterministic round-robin order as the sequential
            // loop. Outputs and per-shard `CycleStats` are bit-identical
            // for any thread count; so is the event stream, except that a
            // column's stages arrive as one `beats(count)` event at the
            // cycle of the first (the scratch VPUs' own events and fault
            // hooks land on `NopSink`s; each column's load/store is
            // re-emitted on its real shard).
            let src: &[u64] = state;
            let mut routed = uvpu_math::pool::take_scratch(cols * m);
            uvpu_par::par_chunks_mut_with(
                &mut routed,
                PAR_COLUMN_BATCH * m,
                || Vpu::new(m, self.modulus, 1),
                |scratch, batch, piece| {
                    let vpu = scratch.as_mut().map_err(|e| e.clone())?;
                    (batch * PAR_COLUMN_BATCH..)
                        .zip(piece.chunks_mut(m))
                        .try_for_each(|(col, lanes)| {
                            self.transform_column(vpu, &lay, col, direction, src, lanes)
                        })
                },
            )?;
            for (col, lanes) in routed.chunks(m).enumerate() {
                let vpu = &mut vpus[col % shard_count];
                vpu.charge_mem(MemDir::Load, 0, m);
                vpu.charge_butterflies(u64::from(lay.bits));
                if inverse {
                    // The `L^{-1}` fold of `SmallNtt::run_inverse`.
                    vpu.charge_elementwise_ops(EwiseOp::MulConst, 1);
                }
                vpu.charge_mem(MemDir::Store, 0, m);
                self.for_column(&lay, col, !inverse, |lane, code| state[code] = lanes[lane]);
            }
            uvpu_math::pool::recycle(routed);
        } else {
            let mut lanes = uvpu_math::pool::take_scratch(m);
            for col in 0..cols {
                let vpu = &mut vpus[col % shard_count];
                self.transform_column(vpu, &lay, col, direction, state, &mut lanes)?;
                self.for_column(&lay, col, !inverse, |lane, code| state[code] = lanes[lane]);
            }
            uvpu_math::pool::recycle(lanes);
        }
        if trace_names {
            vpus[0].span_end(&format!("ntt.dim{t}"));
        }
        Ok(())
    }

    /// Executes the forward **cyclic** transform: output `X[k] = Σ_i
    /// a[i]·ω^{ik}` in natural order.
    ///
    /// # Errors
    ///
    /// Length/lane/modulus mismatches, or register errors.
    pub fn execute_forward<S: TraceSink>(
        &self,
        vpu: &mut Vpu<S>,
        input: &[u64],
    ) -> Result<NttExecution, CoreError> {
        self.execute_on(std::slice::from_mut(vpu), input, Direction::Forward, false)
    }

    /// Executes the inverse cyclic transform (natural-order spectrum in,
    /// natural-order sequence out).
    ///
    /// # Errors
    ///
    /// Length/lane/modulus mismatches, or register errors.
    pub fn execute_inverse<S: TraceSink>(
        &self,
        vpu: &mut Vpu<S>,
        input: &[u64],
    ) -> Result<NttExecution, CoreError> {
        self.execute_on(std::slice::from_mut(vpu), input, Direction::Inverse, false)
    }

    /// Executes the forward **negacyclic** transform (the FHE NTT over
    /// `Z_q[X]/(X^N+1)`): a ψ-twist followed by the cyclic pipeline.
    /// Output: `X[k] = a(ψ^{2k+1})` in natural order.
    ///
    /// # Errors
    ///
    /// As [`Self::execute_forward`], plus a missing `2N`-th root.
    pub fn execute_forward_negacyclic<S: TraceSink>(
        &self,
        vpu: &mut Vpu<S>,
        input: &[u64],
    ) -> Result<NttExecution, CoreError> {
        self.execute_on(std::slice::from_mut(vpu), input, Direction::Forward, true)
    }

    /// Executes the inverse negacyclic transform.
    ///
    /// # Errors
    ///
    /// As [`Self::execute_inverse`], plus a missing `2N`-th root.
    pub fn execute_inverse_negacyclic<S: TraceSink>(
        &self,
        vpu: &mut Vpu<S>,
        input: &[u64],
    ) -> Result<NttExecution, CoreError> {
        self.execute_on(std::slice::from_mut(vpu), input, Direction::Inverse, true)
    }

    /// Executes the forward negacyclic transform **sharded across
    /// multiple VPUs** (paper §IV: "it is easy to extend the mapping to
    /// multiple VPUs for parallel execution"). Columns are assigned
    /// round-robin — within a dimension every column's small NTT is
    /// independent, so the shards only meet at the transposes.
    ///
    /// The returned aggregate stats equal the single-VPU run's; the
    /// per-shard distribution (and hence the parallel makespan) is read
    /// from each VPU's own counters.
    ///
    /// # Errors
    ///
    /// Empty shard set, or any shard with mismatched lanes/modulus.
    pub fn execute_forward_negacyclic_sharded<S: TraceSink>(
        &self,
        vpus: &mut [Vpu<S>],
        input: &[u64],
    ) -> Result<NttExecution, CoreError> {
        self.execute_on(vpus, input, Direction::Forward, true)
    }

    /// Sharded inverse negacyclic transform (see
    /// [`Self::execute_forward_negacyclic_sharded`]).
    ///
    /// # Errors
    ///
    /// Empty shard set, or any shard with mismatched lanes/modulus.
    pub fn execute_inverse_negacyclic_sharded<S: TraceSink>(
        &self,
        vpus: &mut [Vpu<S>],
        input: &[u64],
    ) -> Result<NttExecution, CoreError> {
        self.execute_on(vpus, input, Direction::Inverse, true)
    }

    /// The ideal compute beats for this transform (all lanes busy every
    /// cycle): the denominator's baseline for paper Table III.
    #[must_use]
    pub fn ideal_compute_beats(&self, negacyclic: bool) -> u64 {
        let cols = self.cols() as u64;
        let butterfly: u64 = self.bits.iter().map(|&b| u64::from(b)).sum::<u64>() * cols;
        let twiddle = (self.dims.len() as u64 - 1) * cols;
        let twist = if negacyclic { cols } else { 0 };
        butterfly + twiddle + twist
    }
}

#[cfg(test)]
pub(crate) mod oracle;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::oracle::{probes, Oracle};
    use super::*;
    use crate::trace::TraceEvent;
    use proptest::prelude::*;
    use uvpu_math::ntt::{naive_cyclic_dft, NttTable};
    use uvpu_math::primes::ntt_prime;

    /// One shape of the compiled plan against the per-element oracle:
    /// output words, aggregate and per-shard `CycleStats`, and — on the
    /// per-beat sequential path — every trace event and fault-hook offer
    /// in order; then the worker-pool path at 2, 4 and 7 threads must
    /// produce the same words, stats and beat-run event stream.
    fn check_against_oracle(
        (log_m, log_n): (u32, u32),
        forward: bool,
        negacyclic: bool,
        shards: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let (n, m) = (1usize << log_n, 1usize << log_m);
        let q = modulus_for(n);
        let plan = NttPlan::new(q, n, m).unwrap();
        let direction = if forward {
            Direction::Forward
        } else {
            Direction::Inverse
        };
        let input: Vec<u64> = (0..n as u64)
            .map(|i| (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let capacity = plan.cols() * (log_n as usize + 5 * plan.dims().len() + 2) + 64;

        let mut expect_vpus = probes(m, q, shards, capacity);
        let expect = Oracle(&plan).execute(&mut expect_vpus, &input, direction, negacyclic);
        let mut got_vpus = probes(m, q, shards, capacity);
        let got = uvpu_par::with_threads(1, || {
            plan.execute_on(&mut got_vpus, &input, direction, negacyclic)
        })
        .unwrap();
        prop_assert_eq!(&got.output, &expect.output);
        prop_assert_eq!(got.stats, expect.stats);
        let (ring, hooks) = expect_vpus[0].sink();
        prop_assert!(!ring.events().is_empty() && !hooks.0.is_empty());
        for (got, expect) in got_vpus.iter().zip(&expect_vpus) {
            prop_assert_eq!(got.stats(), expect.stats());
            prop_assert_eq!(got.sink().0.dropped(), 0);
            prop_assert_eq!(got.sink().0.events(), expect.sink().0.events());
            prop_assert_eq!(&got.sink().1, &expect.sink().1);
        }

        // The worker-pool column pass charges each column's stages as
        // one `beats(count)` event instead of `count` single beats (and
        // offers no fault hooks: the lanes run on the workers' scratch
        // VPUs). Everything else — every mem and span event, and the
        // start cycle, kind and length of every run of beats — is the
        // sequential stream's, on every shard.
        for threads in [2, 4, 7] {
            let mut pool_vpus = probes(m, q, shards, capacity);
            let pooled = uvpu_par::with_threads(threads, || {
                plan.execute_on(&mut pool_vpus, &input, direction, negacyclic)
            })
            .unwrap();
            prop_assert_eq!(&pooled.output, &expect.output);
            prop_assert_eq!(pooled.stats, expect.stats);
            for (pooled, expect) in pool_vpus.iter().zip(&expect_vpus) {
                prop_assert_eq!(pooled.stats(), expect.stats());
                prop_assert_eq!(pooled.sink().0.dropped(), 0);
                prop_assert_eq!(
                    beat_runs(pooled.sink().0.events()),
                    beat_runs(expect.sink().0.events())
                );
            }
        }
        Ok(())
    }

    /// The event stream with every run of back-to-back beats of one kind
    /// merged into a single `Beat` event.
    fn beat_runs<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Vec<TraceEvent> {
        let mut runs: Vec<TraceEvent> = Vec::new();
        for event in events {
            if let (
                Some(TraceEvent::Beat {
                    cycle, kind, count, ..
                }),
                TraceEvent::Beat {
                    cycle: next,
                    kind: next_kind,
                    count: more,
                    ..
                },
            ) = (runs.last_mut(), event)
            {
                if kind == next_kind && *cycle + *count == *next {
                    *count += more;
                    continue;
                }
            }
            runs.push(event.clone());
        }
        runs
    }

    #[test]
    fn compiled_plan_equals_oracle_on_edge_shapes() {
        // (log₂ m, log₂ n): n < m, n = m, a trailing dimension of 2 at
        // every width, and shapes wide enough (≥ `PAR_MIN_BEATS` beats
        // per dimension) to take the worker-pool column pass.
        let shapes = [
            (6, 1),
            (6, 5),
            (6, 6),
            (6, 7),
            (6, 15),
            (4, 3),
            (4, 5),
            (4, 14),
            (2, 1),
            (2, 3),
            (2, 12),
            (1, 1),
            (1, 4),
        ];
        for (i, shape) in shapes.into_iter().enumerate() {
            for (forward, negacyclic) in [(true, true), (false, true), (true, false)] {
                check_against_oracle(shape, forward, negacyclic, 1 + i % 3, i as u64).unwrap();
            }
        }
    }

    #[test]
    fn closed_form_input_index_is_the_digit_reversal() {
        for (n, m) in [
            (2usize, 64usize),
            (32, 64),
            (128, 64),
            (1 << 13, 64),
            (64, 4),
        ] {
            let plan = NttPlan::new(modulus_for(n), n, m).unwrap();
            let oracle = Oracle(&plan);
            for code in 0..n {
                let mut c = code;
                let digits: Vec<usize> = plan
                    .dims()
                    .iter()
                    .map(|&d| {
                        let x = c % d;
                        c /= d;
                        x
                    })
                    .collect();
                assert_eq!(plan.input_index(code), oracle.input_index(&digits));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn compiled_plan_equals_oracle(
            width in 0usize..4,
            log_n in 1u32..=14,
            forward in any::<bool>(),
            negacyclic in any::<bool>(),
            shards in 1usize..=3,
            seed in any::<u64>(),
        ) {
            // 2- and 4-lane shapes stop at 2^12: their event logs grow
            // with log₂ n dimensions per column.
            let log_m = [1u32, 2, 4, 6][width];
            let shape = (log_m, if log_m <= 2 { log_n.min(12) } else { log_n });
            check_against_oracle(shape, forward, negacyclic, shards, seed)?;
        }
    }

    fn modulus_for(n: usize) -> Modulus {
        Modulus::new(ntt_prime(30, n.max(8)).unwrap()).unwrap()
    }

    #[test]
    fn small_ntt_forward_is_bit_reversed_dft() {
        for len in [2usize, 4, 8, 16, 32, 64] {
            let q = modulus_for(len);
            let ntt = SmallNtt::new(q, len).unwrap();
            let mut vpu = Vpu::new(len, q, 4).unwrap();
            let data: Vec<u64> = (0..len as u64).map(|i| q.reduce_u64(i * 7 + 3)).collect();
            vpu.load(0, &data).unwrap();
            ntt.run_forward(&mut vpu, 0).unwrap();
            let got = vpu.store(0).unwrap();
            let expect = naive_cyclic_dft(&data, ntt.omega(), &q);
            let bits = log2_exact(len);
            for p in 0..len {
                assert_eq!(got[p], expect[bit_reverse(p, bits)], "len={len} p={p}");
            }
            assert_eq!(vpu.stats().butterfly, bits as u64);
        }
    }

    #[test]
    fn small_ntt_groups_run_in_parallel() {
        // Two independent length-4 NTTs on an 8-lane VPU.
        let q = modulus_for(8);
        let omega = min_root_of_unity(&q, 4).unwrap();
        let ntt = SmallNtt::with_root(q, 4, omega, 8).unwrap();
        assert!(SmallNtt::with_root(q, 4, omega, 6).is_err());
        assert!(ntt.run_forward(&mut Vpu::new(4, q, 4).unwrap(), 0).is_err());
        let mut vpu = Vpu::new(8, q, 4).unwrap();
        let a: Vec<u64> = vec![1, 2, 3, 4];
        let b: Vec<u64> = vec![9, 8, 7, 6];
        let mut data = a.clone();
        data.extend_from_slice(&b);
        vpu.load(0, &data).unwrap();
        ntt.run_forward(&mut vpu, 0).unwrap();
        let got = vpu.store(0).unwrap();
        let ea = naive_cyclic_dft(&a, ntt.omega(), &q);
        let eb = naive_cyclic_dft(&b, ntt.omega(), &q);
        for p in 0..4 {
            assert_eq!(got[p], ea[bit_reverse(p, 2)]);
            assert_eq!(got[4 + p], eb[bit_reverse(p, 2)]);
        }
    }

    #[test]
    fn small_ntt_round_trip() {
        let q = modulus_for(16);
        let ntt = SmallNtt::new(q, 16).unwrap();
        let mut vpu = Vpu::new(16, q, 4).unwrap();
        let data: Vec<u64> = (0..16u64).map(|i| q.reduce_u64(i * i + 1)).collect();
        vpu.load(0, &data).unwrap();
        ntt.run_forward(&mut vpu, 0).unwrap();
        ntt.run_inverse(&mut vpu, 0).unwrap();
        assert_eq!(vpu.store(0).unwrap(), data);
    }

    #[test]
    fn plan_dimension_selection() {
        let q = modulus_for(1 << 12);
        assert_eq!(NttPlan::new(q, 1 << 12, 64).unwrap().dims(), &[64, 64]);
        assert_eq!(NttPlan::new(q, 1 << 10, 64).unwrap().dims(), &[64, 16]);
        assert_eq!(NttPlan::new(q, 1 << 7, 64).unwrap().dims(), &[64, 2]);
        assert_eq!(NttPlan::new(q, 32, 64).unwrap().dims(), &[32]);
        assert!(NttPlan::new(q, 100, 64).is_err());
    }

    #[test]
    fn multidim_forward_matches_naive_dft() {
        for (n, m) in [(64usize, 8usize), (256, 16), (128, 16), (512, 8), (64, 64)] {
            let q = modulus_for(n);
            let plan = NttPlan::new(q, n, m).unwrap();
            let mut vpu = Vpu::new(m, q, 8).unwrap();
            let data: Vec<u64> = (0..n as u64).map(|i| q.reduce_u64(i * 13 + 5)).collect();
            let got = plan.execute_forward(&mut vpu, &data).unwrap();
            let expect = naive_cyclic_dft(&data, plan.omega(), &q);
            assert_eq!(got.output, expect, "n={n} m={m} dims={:?}", plan.dims());
        }
    }

    #[test]
    fn multidim_round_trip() {
        let q = modulus_for(256);
        let plan = NttPlan::new(q, 256, 16).unwrap();
        let mut vpu = Vpu::new(16, q, 8).unwrap();
        let data: Vec<u64> = (0..256u64).map(|i| q.reduce_u64(i * 3 + 11)).collect();
        let fwd = plan.execute_forward(&mut vpu, &data).unwrap();
        let back = plan.execute_inverse(&mut vpu, &fwd.output).unwrap();
        assert_eq!(back.output, data);
    }

    #[test]
    fn negacyclic_matches_table_convolution() {
        // Pointwise products in the VPU's negacyclic domain must give the
        // same polynomial product as the golden-model NttTable.
        let n = 128;
        let m = 16;
        let q = modulus_for(n);
        let plan = NttPlan::new(q, n, m).unwrap();
        let table = NttTable::new(q, n).unwrap();
        let mut vpu = Vpu::new(m, q, 8).unwrap();
        let a: Vec<u64> = (0..n as u64).map(|i| q.reduce_u64(i + 2)).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| q.reduce_u64(3 * i + 1)).collect();

        let fa = plan
            .execute_forward_negacyclic(&mut vpu, &a)
            .unwrap()
            .output;
        let fb = plan
            .execute_forward_negacyclic(&mut vpu, &b)
            .unwrap()
            .output;
        let prod: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| q.mul(x, y)).collect();
        let got = plan
            .execute_inverse_negacyclic(&mut vpu, &prod)
            .unwrap()
            .output;

        let expect = uvpu_math::ntt::naive_negacyclic_mul(&a, &b, &q);
        assert_eq!(got, expect);
        // And the forward values agree with the golden table as a set.
        let mut ref_vals = a.clone();
        table.forward_inplace(&mut ref_vals);
        let mut x = fa.clone();
        let mut y = ref_vals.clone();
        x.sort_unstable();
        y.sort_unstable();
        assert_eq!(x, y);
    }

    #[test]
    fn negacyclic_plan_matches_fourstep_kernel_bit_exactly() {
        // N = 2¹⁴ is past FOURSTEP_MIN_N, so the host table transform
        // below runs the cache-blocked four-step kernel. The functional
        // model must agree with it element-for-element — the plan emits
        // natural order, the table bit-reversed, so plan[k] pairs with
        // table[brv(k)] — and the plan's own inverse must close the
        // round trip.
        let n = 1 << 14;
        let m = 64;
        let q = Modulus::new(ntt_prime(30, n).unwrap()).unwrap();
        let plan = NttPlan::new(q, n, m).unwrap();
        let table = NttTable::new(q, n).unwrap();
        let data: Vec<u64> = (0..n as u64)
            .map(|i| q.reduce_u64(i.wrapping_mul(0x9E37_79B9) + 5))
            .collect();

        let mut vpu = Vpu::new(m, q, 8).unwrap();
        let fwd = plan
            .execute_forward_negacyclic(&mut vpu, &data)
            .unwrap()
            .output;

        let mut kern = data.clone();
        table.forward_inplace(&mut kern);
        let bits = log2_exact(n);
        for (k, &x) in fwd.iter().enumerate() {
            assert_eq!(x, kern[bit_reverse(k, bits)], "k={k}");
        }

        let back = plan
            .execute_inverse_negacyclic(&mut vpu, &fwd)
            .unwrap()
            .output;
        assert_eq!(back, data);
    }

    #[test]
    fn compiled_ntt_programs_match_direct_execution() {
        let q = modulus_for(16);
        let ntt = SmallNtt::new(q, 16).unwrap();
        let data: Vec<u64> = (0..16u64).map(|i| q.reduce_u64(i * 3 + 2)).collect();

        // Direct API path.
        let mut direct = Vpu::new(16, q, 4).unwrap();
        direct.load(0, &data).unwrap();
        ntt.run_forward(&mut direct, 0).unwrap();

        // Compiled-program path.
        let mut compiled = Vpu::new(16, q, 4).unwrap();
        compiled.load(0, &data).unwrap();
        let prog = ntt.forward_program(0, 16);
        assert_eq!(prog.instrs.len(), 4, "one instruction per stage");
        let stats = prog.execute(&mut compiled).unwrap();
        assert_eq!(compiled.store(0).unwrap(), direct.store(0).unwrap());
        assert_eq!(stats.butterfly, 4);

        // The compiled inverse round-trips, and survives a disassembly
        // round trip too.
        let inv = ntt.inverse_program(0, 16);
        let reparsed = crate::isa::Program::parse(&inv.disassemble()).unwrap();
        reparsed.execute(&mut compiled).unwrap();
        assert_eq!(compiled.store(0).unwrap(), data);
    }

    #[test]
    fn transform_shorter_than_vpu_uses_one_partial_column() {
        // n < m: one column, lanes n..m idle, still bit-exact.
        let q = modulus_for(64);
        let plan = NttPlan::new(q, 32, 64).unwrap();
        assert_eq!(plan.dims(), &[32]);
        let mut vpu = Vpu::new(64, q, 8).unwrap();
        let data: Vec<u64> = (0..32u64).map(|i| q.reduce_u64(i * 5 + 1)).collect();
        let fwd = plan.execute_forward(&mut vpu, &data).unwrap();
        assert_eq!(fwd.output, naive_cyclic_dft(&data, plan.omega(), &q));
        let back = plan.execute_inverse(&mut vpu, &fwd.output).unwrap();
        assert_eq!(back.output, data);
        // One column, log2(32) butterfly beats forward.
        assert_eq!(fwd.stats.butterfly, 5);
    }

    #[test]
    fn sharded_execution_matches_single_vpu() {
        let n = 1 << 10;
        let m = 64;
        let q = Modulus::new(ntt_prime(30, n).unwrap()).unwrap();
        let plan = NttPlan::new(q, n, m).unwrap();
        let data: Vec<u64> = (0..n as u64).map(|i| q.reduce_u64(i * 9 + 2)).collect();

        let mut single = Vpu::new(m, q, 8).unwrap();
        let solo = plan.execute_forward_negacyclic(&mut single, &data).unwrap();

        let mut shard_vec: Vec<Vpu> = (0..4).map(|_| Vpu::new(m, q, 8).unwrap()).collect();
        let sharded = plan
            .execute_forward_negacyclic_sharded(&mut shard_vec, &data)
            .unwrap();
        assert_eq!(
            sharded.output, solo.output,
            "sharding is functionally invisible"
        );
        assert_eq!(sharded.stats, solo.stats, "total work is conserved");

        // The parallel makespan is the max shard load: near total/4.
        let loads: Vec<u64> = shard_vec.iter().map(|v| v.stats().total()).collect();
        let makespan = *loads.iter().max().unwrap();
        assert!(
            makespan * 4 <= solo.stats.total() + 4 * 16,
            "balanced: {loads:?}"
        );
        assert!(makespan >= solo.stats.total() / 4);

        // Round trip through the sharded inverse.
        let back = plan
            .execute_inverse_negacyclic_sharded(&mut shard_vec, &sharded.output)
            .unwrap();
        assert_eq!(back.output, data);
    }

    #[test]
    fn sharded_rejects_bad_shard_sets() {
        let n = 256;
        let q = Modulus::new(ntt_prime(30, n).unwrap()).unwrap();
        let plan = NttPlan::new(q, n, 16).unwrap();
        let data = vec![0u64; n];
        let mut none: Vec<Vpu> = Vec::new();
        assert!(plan
            .execute_forward_negacyclic_sharded(&mut none, &data)
            .is_err());
        let mut mixed = vec![Vpu::new(16, q, 8).unwrap(), Vpu::new(8, q, 8).unwrap()];
        assert!(plan
            .execute_forward_negacyclic_sharded(&mut mixed, &data)
            .is_err());
    }

    #[test]
    fn utilization_shape_matches_table3() {
        // m = 64: utilization dips when a new dimension appears (after
        // 2^12 and 2^18) and when the trailing dimension is short.
        let m = 64;
        let mut utils = Vec::new();
        for log_n in [10u32, 12, 14, 16, 18] {
            let n = 1usize << log_n;
            let q = Modulus::new(ntt_prime(30, n).unwrap()).unwrap();
            let plan = NttPlan::new(q, n, m).unwrap();
            let mut vpu = Vpu::new(m, q, 8).unwrap();
            let data: Vec<u64> = (0..n as u64).collect();
            let run = plan.execute_forward_negacyclic(&mut vpu, &data).unwrap();
            utils.push(run.stats.utilization());
        }
        let (u10, u12, u14, u16, u18) = (utils[0], utils[1], utils[2], utils[3], utils[4]);
        assert!(u12 > u10, "2^12 (square) beats 2^10 (short dim): {utils:?}");
        assert!(u14 < u12, "extra dimension at 2^14 hurts: {utils:?}");
        assert!(
            u16 > u14 && u18 > u16,
            "recovering as the tail grows: {utils:?}"
        );
        for u in &utils {
            assert!(
                *u > 0.6 && *u < 0.95,
                "within the paper's ballpark: {utils:?}"
            );
        }
    }

    #[test]
    fn stats_are_deterministic_and_scale() {
        let q = modulus_for(1 << 12);
        let plan = NttPlan::new(q, 1 << 12, 64).unwrap();
        let mut vpu = Vpu::new(64, q, 8).unwrap();
        let data: Vec<u64> = (0..1u64 << 12).collect();
        let r1 = plan.execute_forward(&mut vpu, &data).unwrap();
        let r2 = plan.execute_forward(&mut vpu, &data).unwrap();
        assert_eq!(r1.stats, r2.stats);
        // 2 dims of 64: butterflies = 12 stages × 64 columns.
        assert_eq!(r1.stats.butterfly, 12 * 64);
        // One twiddle pass between the dims.
        assert_eq!(r1.stats.elementwise, 64);
        // One regular transpose: 2 moves per column.
        assert_eq!(r1.stats.network_move, 2 * 64);
    }
}
