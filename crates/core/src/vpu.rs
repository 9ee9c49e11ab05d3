//! The unified vector processing unit (paper Fig 1(b)): `m` computing
//! lanes joined by the inter-lane network, with cycle accounting.
//!
//! Every public operation models one pipeline beat: a traversal of the
//! network, a lane compute step, or both back-to-back (the network output
//! feeds the paired-lane butterflies directly, so a constant-geometry
//! route plus its butterfly is a single beat).

use crate::control::{AutomorphismControlTable, ShiftControls};
use crate::lane::{ButterflyKind, LaneArray};
use crate::network::{CgDirection, InterLaneNetwork, NetworkPass};
use crate::stats::CycleStats;
use crate::trace::{BeatKind, EwiseOp, FaultSite, MemDir, NetKind, NopSink, TraceSink};
use crate::CoreError;
use uvpu_math::modular::Modulus;

/// One stage of a Pease constant-geometry NTT running on the VPU.
#[derive(Debug, Clone)]
pub enum PeaseStage<'a> {
    /// Forward (DIF) stage: CG shuffle route, then DIF butterflies on the
    /// now-adjacent operand pairs.
    Forward {
        /// Twiddle per adjacent pair (`m/2` values).
        twiddles: &'a [u64],
    },
    /// Inverse (DIT) stage: DIT butterflies on adjacent pairs, then the CG
    /// unshuffle route spreads results back out.
    Inverse {
        /// Twiddle per adjacent pair (`m/2` values).
        twiddles: &'a [u64],
    },
}

/// An `m`-lane vector processing unit.
///
/// # Example
///
/// ```
/// use uvpu_core::vpu::Vpu;
/// use uvpu_math::modular::Modulus;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = Modulus::new(97)?;
/// let mut vpu = Vpu::new(8, q, 16)?;
/// vpu.load(0, &[1, 2, 3, 4, 5, 6, 7, 8])?;
/// vpu.load(1, &[1; 8])?;
/// vpu.ewise_add(2, 0, 1)?;
/// assert_eq!(vpu.store(2)?, vec![2, 3, 4, 5, 6, 7, 8, 9]);
/// assert_eq!(vpu.stats().elementwise, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Vpu<S: TraceSink = NopSink> {
    regs: LaneArray,
    network: InterLaneNetwork,
    control_table: std::sync::Arc<AutomorphismControlTable>,
    stats: CycleStats,
    sink: S,
    track: u32,
    /// Two lane-width halves, `[routed | gathered]`: every network
    /// traversal lands in the first, and per-lane gathers stage in the
    /// second, so no beat allocates.
    scratch: Vec<u64>,
}

impl Vpu {
    /// Creates an untraced VPU with `m` lanes and a register file of
    /// `depth` entries. (The sink parameter defaults to [`NopSink`], so
    /// existing call sites need no annotation; use
    /// [`Vpu::with_sink`] to attach a tracer.)
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidLaneCount`] unless `m` is a power of two ≥ 2.
    pub fn new(m: usize, modulus: Modulus, depth: usize) -> Result<Self, CoreError> {
        Self::with_sink(m, modulus, depth, NopSink)
    }
}

impl<S: TraceSink> Vpu<S> {
    /// Creates a VPU with `m` lanes, a register file of `depth` entries,
    /// and `sink` receiving an event for every pipeline beat.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidLaneCount`] unless `m` is a power of two ≥ 2.
    pub fn with_sink(m: usize, modulus: Modulus, depth: usize, sink: S) -> Result<Self, CoreError> {
        Ok(Self {
            regs: LaneArray::new(m, modulus, depth)?,
            network: InterLaneNetwork::new(m)?,
            control_table: AutomorphismControlTable::cached(m)?,
            stats: CycleStats::new(),
            sink,
            track: 0,
            scratch: vec![0; 2 * m],
        })
    }

    /// Sets the trace track (Perfetto `tid`) this VPU stamps on its
    /// events — distinguishes VPUs in a multi-VPU trace.
    pub fn set_track(&mut self, track: u32) {
        self.track = track;
    }

    /// The trace track this VPU stamps on its events.
    #[must_use]
    pub const fn track(&self) -> u32 {
        self.track
    }

    /// The attached trace sink.
    #[must_use]
    pub const fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the attached trace sink.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consumes the VPU, returning the sink (and its recorded data).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Opens a phase span at the current cycle (NTT stage, automorphism,
    /// transpose, …). Pair with [`Self::span_end`]; the operation
    /// mappings in `ntt_map` / `auto_map` call these around each phase.
    pub fn span_begin(&mut self, name: &str) {
        self.sink.span_begin(self.track, self.stats.total(), name);
    }

    /// Closes the innermost phase span with this name at the current
    /// cycle.
    pub fn span_end(&mut self, name: &str) {
        self.sink.span_end(self.track, self.stats.total(), name);
    }

    /// Lane count `m`.
    #[must_use]
    pub const fn lanes(&self) -> usize {
        self.regs.lanes()
    }

    /// The lanes' modulus.
    #[must_use]
    pub const fn modulus(&self) -> Modulus {
        self.regs.modulus()
    }

    /// The inter-lane network.
    #[must_use]
    pub const fn network(&self) -> &InterLaneNetwork {
        &self.network
    }

    /// The precomputed automorphism control SRAM.
    #[must_use]
    pub fn control_table(&self) -> &AutomorphismControlTable {
        &self.control_table
    }

    /// Cycle counters accumulated so far.
    #[must_use]
    pub const fn stats(&self) -> &CycleStats {
        &self.stats
    }

    /// Resets the cycle counters.
    pub fn reset_stats(&mut self) {
        self.stats = CycleStats::new();
    }

    /// Charges network-movement beats performed by an operation-mapping
    /// planner that rearranges data with routing proven equivalent to
    /// shift/CG traversals (see `ntt_map::NttPlan`, whose transposes follow
    /// the Fig 3 pass counts while the mechanics are validated separately
    /// in the `transpose` module).
    pub fn charge_network_moves(&mut self, beats: u64) {
        if beats > 0 {
            self.sink.beats(
                self.track,
                self.stats.total(),
                BeatKind::NetworkMove(NetKind::Shift),
                beats,
            );
        }
        self.stats.network_move += beats;
    }

    /// Charges butterfly beats computed analytically by a planner whose
    /// functional work ran elsewhere (the parallel column passes of
    /// `ntt_map::NttPlan` execute lanes on per-worker scratch VPUs and
    /// charge the real shards here, keeping cycle accounting identical
    /// to the sequential per-beat path for any thread count).
    pub fn charge_butterflies(&mut self, beats: u64) {
        if beats > 0 {
            self.sink
                .beats(self.track, self.stats.total(), BeatKind::Butterfly, beats);
        }
        self.stats.butterfly += beats;
    }

    /// Charges element-wise lane-ALU beats of opcode `op` computed
    /// analytically by a planner (see [`charge_butterflies`](Self::charge_butterflies)).
    pub fn charge_elementwise_ops(&mut self, op: EwiseOp, beats: u64) {
        if beats > 0 {
            self.sink.beats(
                self.track,
                self.stats.total(),
                BeatKind::Elementwise(op),
                beats,
            );
        }
        self.stats.elementwise += beats;
    }

    /// Grows the register file to at least `depth` entries.
    pub fn ensure_depth(&mut self, depth: usize) {
        self.regs.ensure_depth(depth);
    }

    /// Emits the register-file interface trace event of a load/store
    /// whose data movement happened elsewhere (a worker's private
    /// scratch VPU). Keeps the traced mem stream identical between the
    /// sequential and data-parallel execution paths, the same way beats
    /// are charged analytically (see
    /// [`charge_butterflies`](Self::charge_butterflies)).
    pub fn charge_mem(&mut self, dir: MemDir, addr: usize, lanes: usize) {
        self.sink
            .mem(self.track, self.stats.total(), dir, addr, lanes);
    }

    /// Loads a vector into a register (models the SRAM→VPU interface; not
    /// charged to the compute pipeline).
    ///
    /// # Errors
    ///
    /// Bad address or wrong vector length.
    pub fn load(&mut self, addr: usize, data: &[u64]) -> Result<(), CoreError> {
        self.regs.write_reduced(addr, data)?;
        self.charge_mem(MemDir::Load, addr, data.len());
        Ok(())
    }

    /// Reads a register back out (models the VPU→SRAM interface).
    ///
    /// # Errors
    ///
    /// Bad address.
    pub fn store(&mut self, addr: usize) -> Result<Vec<u64>, CoreError> {
        let mut out = vec![0; self.lanes()];
        self.store_into(addr, &mut out)?;
        Ok(out)
    }

    /// [`store`](Self::store) into a caller-provided lane-width buffer.
    ///
    /// # Errors
    ///
    /// Bad address, or `out` not lane-width.
    pub fn store_into(&mut self, addr: usize, out: &mut [u64]) -> Result<(), CoreError> {
        let reg = self.regs.read(addr)?;
        if out.len() != reg.len() {
            return Err(CoreError::LengthMismatch {
                expected: reg.len(),
                actual: out.len(),
            });
        }
        out.copy_from_slice(reg);
        if self.sink.fault_hooks_enabled() {
            // Register-file read at the store interface: the words leave
            // the modular datapath, so injected corruption stays raw
            // (possibly ≥ q) — exactly what a range guard must catch.
            self.sink
                .fault_data(self.track, self.stats.total(), FaultSite::RegFileRead, out);
        }
        self.charge_mem(MemDir::Store, addr, out.len());
        Ok(())
    }

    /// Reads a register without emitting a trace event (for inspection
    /// through a shared reference; models no interface traffic).
    ///
    /// # Errors
    ///
    /// Bad address.
    pub fn peek(&self, addr: usize) -> Result<Vec<u64>, CoreError> {
        Ok(self.regs.read(addr)?.to_vec())
    }

    /// `dst ← a + b` (one element-wise beat).
    ///
    /// # Errors
    ///
    /// Bad register address.
    pub fn ewise_add(&mut self, dst: usize, a: usize, b: usize) -> Result<(), CoreError> {
        self.regs.ewise_add(dst, a, b)?;
        self.beat(BeatKind::Elementwise(EwiseOp::Add));
        Ok(())
    }

    /// Emits the trace event for one beat of `kind`, then charges it.
    /// The event timestamp is the cycle count *before* the charge, so the
    /// beat occupies `[cycle, cycle + 1)`.
    fn beat(&mut self, kind: BeatKind) {
        self.sink.beat(self.track, self.stats.total(), kind);
        kind.charge(&mut self.stats, 1);
    }

    /// Offers the routed half of the scratch — the in-flight vector of
    /// the current beat — to the sink's fault-injection hook
    /// ([`TraceSink::fault_data`]). With the default [`NopSink`] the
    /// enabled check is a constant `false`, so the whole call compiles
    /// away on the untraced path. Corrupted words re-enter a modular
    /// pipeline stage immediately after these sites, so they are
    /// captured back into `[0, q)` here; only the register-file *read*
    /// site (the store interface, which leaves the datapath) carries
    /// raw out-of-range words.
    fn hook_routed(&mut self, site: FaultSite) {
        if self.sink.fault_hooks_enabled() {
            let q = self.regs.modulus();
            let routed = &mut self.scratch[..self.regs.lanes()];
            self.sink
                .fault_data(self.track, self.stats.total(), site, routed);
            for x in routed {
                *x = q.reduce_u64(*x);
            }
        }
    }

    /// [`hook_routed`](Self::hook_routed) applied to a register — used
    /// where a lane stage writes its result back before the next
    /// observable boundary (butterfly outputs). The read/modify/write
    /// only happens when a fault-injecting sink is attached.
    fn hook_reg(&mut self, site: FaultSite, addr: usize) -> Result<(), CoreError> {
        if self.sink.fault_hooks_enabled() {
            let m = self.lanes();
            self.scratch[..m].copy_from_slice(self.regs.read(addr)?);
            self.hook_routed(site);
            self.regs.write(addr, &self.scratch[..m])?;
        }
        Ok(())
    }

    /// `dst ← a − b` (one element-wise beat).
    ///
    /// # Errors
    ///
    /// Bad register address.
    pub fn ewise_sub(&mut self, dst: usize, a: usize, b: usize) -> Result<(), CoreError> {
        self.regs.ewise_sub(dst, a, b)?;
        self.beat(BeatKind::Elementwise(EwiseOp::Sub));
        Ok(())
    }

    /// `dst ← a · b` (one element-wise beat).
    ///
    /// # Errors
    ///
    /// Bad register address.
    pub fn ewise_mul(&mut self, dst: usize, a: usize, b: usize) -> Result<(), CoreError> {
        self.regs.ewise_mul(dst, a, b)?;
        self.beat(BeatKind::Elementwise(EwiseOp::Mul));
        Ok(())
    }

    /// `dst ← dst + a · b` (one element-wise beat).
    ///
    /// # Errors
    ///
    /// Bad register address.
    pub fn ewise_mac(&mut self, dst: usize, a: usize, b: usize) -> Result<(), CoreError> {
        self.regs.ewise_mac(dst, a, b)?;
        self.beat(BeatKind::Elementwise(EwiseOp::Mac));
        Ok(())
    }

    /// `dst ← src · consts` against an immediate twiddle vector (one
    /// element-wise beat).
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
        self.regs.ewise_mul_const(dst, src, consts)?;
        self.beat(BeatKind::Elementwise(EwiseOp::MulConst));
        Ok(())
    }

    /// One network-only beat: register `src` (or, for `None`, the
    /// gathered half of the scratch) crosses the network into the routed
    /// half, passes the fault hook, and `commit` writes it back.
    fn network_beat(
        &mut self,
        src: Option<usize>,
        cg: Option<CgDirection>,
        shifts: Option<&ShiftControls>,
        commit: impl FnOnce(&mut LaneArray, &[u64]) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        let m = self.lanes();
        let kind = NetKind::of(cg, shifts.is_some());
        let (routed, gathered) = self.scratch.split_at_mut(m);
        let input = match src {
            Some(addr) => self.regs.read(addr)?,
            None => gathered,
        };
        self.network.traverse_into(input, cg, shifts, routed);
        self.hook_routed(FaultSite::from_net(kind));
        commit(&mut self.regs, &self.scratch[..m])?;
        self.beat(BeatKind::NetworkMove(kind));
        Ok(())
    }

    /// Routes `src` through the network into `dst` (one network-only beat,
    /// arithmetic units idle).
    ///
    /// # Errors
    ///
    /// Bad register address.
    pub fn route(&mut self, dst: usize, src: usize, pass: &NetworkPass) -> Result<(), CoreError> {
        self.network_beat(Some(src), pass.cg, pass.shifts.as_ref(), |regs, out| {
            regs.write(dst, out)
        })
    }

    /// [`route`](Self::route) through the shift stages only, under a
    /// borrowed control word — what compiled plans replay per column.
    ///
    /// # Errors
    ///
    /// Bad register address.
    pub fn route_shift(
        &mut self,
        dst: usize,
        src: usize,
        controls: &ShiftControls,
    ) -> Result<(), CoreError> {
        self.network_beat(Some(src), None, Some(controls), |regs, out| {
            regs.write(dst, out)
        })
    }

    /// Routes `src` through the shift network and scatters the result with
    /// per-lane write addressing — the diagonal store of Fig 3(a)'s first
    /// transpose step (one network-only beat).
    ///
    /// # Errors
    ///
    /// Bad register address.
    pub fn route_scatter(
        &mut self,
        src: usize,
        pass: &NetworkPass,
        addrs: &[usize],
    ) -> Result<(), CoreError> {
        self.network_beat(Some(src), pass.cg, pass.shifts.as_ref(), |regs, out| {
            regs.write_per_lane(addrs, out)
        })
    }

    /// Gathers per-lane-addressed registers, routes through the network,
    /// and writes to `dst` — Fig 3(a)'s second transpose step (one
    /// network-only beat).
    ///
    /// # Errors
    ///
    /// Bad register address.
    pub fn gather_route(
        &mut self,
        dst: usize,
        addrs: &[usize],
        pass: &NetworkPass,
    ) -> Result<(), CoreError> {
        let m = self.lanes();
        self.regs
            .read_per_lane_into(addrs, &mut self.scratch[m..])?;
        self.network_beat(None, pass.cg, pass.shifts.as_ref(), |regs, out| {
            regs.write(dst, out)
        })
    }

    /// Uniform cyclic rotation of a register by `t` lanes (one
    /// network-only beat).
    ///
    /// # Errors
    ///
    /// Bad register address.
    pub fn rotate(&mut self, dst: usize, src: usize, t: u64) -> Result<(), CoreError> {
        let controls = ShiftControls::from_rotation(self.lanes(), t);
        self.route_shift(dst, src, &controls)
    }

    /// Applies a merged automorphism-plus-shift `i ↦ i·g + t mod m` to a
    /// register in a **single** network traversal, via the control SRAM —
    /// the paper's §IV-B guarantee (one network-only beat).
    ///
    /// # Errors
    ///
    /// Bad register address, or even `g`.
    pub fn automorphism_pass(
        &mut self,
        dst: usize,
        src: usize,
        g: u64,
        t: u64,
    ) -> Result<(), CoreError> {
        let controls = self.control_table.merged(g, t)?;
        self.route_shift(dst, src, &controls)
    }

    /// The CG route of a Pease stage, in place on `addr` via the scratch.
    fn cg_stage(
        &mut self,
        addr: usize,
        direction: CgDirection,
        group: usize,
    ) -> Result<(), CoreError> {
        let m = self.lanes();
        self.network.cg_pass_grouped_into(
            self.regs.read(addr)?,
            direction,
            group,
            &mut self.scratch[..m],
        );
        self.hook_routed(FaultSite::NetworkCg);
        self.regs.write(addr, &self.scratch[..m])
    }

    /// Executes one Pease constant-geometry NTT stage in a single beat:
    /// the appropriate CG route plus the paired-lane butterflies. With
    /// `group < m`, the network splits into `m/group` independent blocks
    /// (several shorter NTTs in parallel, §IV-A).
    ///
    /// # Errors
    ///
    /// Bad register address or twiddle-vector length.
    ///
    /// # Panics
    ///
    /// Panics if `group` is not a power of two in `[2, m]`.
    pub fn pease_stage(
        &mut self,
        addr: usize,
        stage: &PeaseStage<'_>,
        group: usize,
    ) -> Result<(), CoreError> {
        match stage {
            PeaseStage::Forward { twiddles } => {
                self.cg_stage(addr, CgDirection::Dif, group)?;
                self.regs
                    .butterfly_adjacent(addr, ButterflyKind::Dif, twiddles)?;
                self.hook_reg(FaultSite::LaneButterfly, addr)?;
            }
            PeaseStage::Inverse { twiddles } => {
                self.regs
                    .butterfly_adjacent(addr, ButterflyKind::Dit, twiddles)?;
                self.hook_reg(FaultSite::LaneButterfly, addr)?;
                self.cg_stage(addr, CgDirection::Dit, group)?;
            }
        }
        self.beat(BeatKind::Butterfly);
        Ok(())
    }

    /// Cross-lane sum reduction: `log₂ m` rotate-and-add beats leave the
    /// total of register `src` broadcast in every lane of `dst` — the
    /// matrix/tensor-multiplication reduction of §III-A, built from the
    /// shift stages plus the lane adders (compute active every beat).
    ///
    /// # Errors
    ///
    /// Bad register address (needs `scratch ≠ src`).
    pub fn reduce_sum(&mut self, dst: usize, src: usize, scratch: usize) -> Result<(), CoreError> {
        let m = self.lanes();
        if dst != src {
            self.scratch[..m].copy_from_slice(self.regs.read(src)?);
            self.regs.write(dst, &self.scratch[..m])?;
        }
        let mut d = m / 2;
        while d >= 1 {
            let controls = ShiftControls::from_rotation(m, d as u64);
            self.network.traverse_into(
                self.regs.read(dst)?,
                None,
                Some(&controls),
                &mut self.scratch[..m],
            );
            self.hook_routed(FaultSite::NetworkShift);
            self.regs.write(scratch, &self.scratch[..m])?;
            self.regs.ewise_add(dst, dst, scratch)?;
            // Rotate-and-add is one fused beat: the adder consumes the
            // network output directly.
            self.beat(BeatKind::Elementwise(EwiseOp::RotateAdd));
            d /= 2;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn vpu() -> Vpu {
        Vpu::new(8, Modulus::new(97).unwrap(), 32).unwrap()
    }

    #[test]
    fn load_reduces_inputs() {
        let mut v = vpu();
        v.load(0, &[100, 97, 98, 0, 1, 2, 3, 4]).unwrap();
        assert_eq!(v.store(0).unwrap(), vec![3, 0, 1, 0, 1, 2, 3, 4]);
        assert_eq!(v.stats().total(), 0, "loads are not pipeline beats");
    }

    #[test]
    fn cycle_accounting_by_category() {
        let mut v = vpu();
        v.load(0, &[1; 8]).unwrap();
        v.load(1, &[2; 8]).unwrap();
        v.ewise_add(2, 0, 1).unwrap();
        v.ewise_mul(3, 0, 1).unwrap();
        v.rotate(4, 3, 1).unwrap();
        assert_eq!(v.stats().elementwise, 2);
        assert_eq!(v.stats().network_move, 1);
        assert_eq!(v.stats().butterfly, 0);
    }

    #[test]
    fn rotate_moves_lanes() {
        let mut v = vpu();
        v.load(0, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        v.rotate(1, 0, 3).unwrap();
        assert_eq!(v.store(1).unwrap(), vec![6, 7, 8, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn automorphism_pass_matches_index_map() {
        let mut v = vpu();
        let data: Vec<u64> = (0..8).collect();
        v.load(0, &data).unwrap();
        for g in [1u64, 3, 5, 7] {
            for t in [0u64, 2, 5] {
                v.automorphism_pass(1, 0, g, t).unwrap();
                let map = uvpu_math::automorphism::AffineMap::new(8, g, t).unwrap();
                assert_eq!(v.store(1).unwrap(), map.permute(&data), "g={g} t={t}");
            }
        }
        assert!(v.automorphism_pass(1, 0, 2, 0).is_err());
    }

    #[test]
    fn automorphism_is_single_traversal() {
        let mut v = vpu();
        v.load(0, &[0; 8]).unwrap();
        v.automorphism_pass(1, 0, 5, 3).unwrap();
        assert_eq!(v.stats().network_move, 1, "exactly one network pass");
    }

    #[test]
    fn reduce_sum_broadcasts_total() {
        let mut v = vpu();
        v.load(0, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        v.reduce_sum(1, 0, 2).unwrap();
        assert_eq!(v.store(1).unwrap(), vec![36; 8]);
        assert_eq!(v.stats().elementwise, 3, "log2(8) fused beats");
        assert_eq!(
            v.stats().network_move,
            0,
            "rotate+add beats count as compute"
        );
    }

    #[test]
    fn pease_forward_then_inverse_round_trip() {
        // One forward stage then its inverse (with inverse twiddles and a
        // halving) restores the data: checks the route/butterfly pairing.
        let q = Modulus::new(97).unwrap();
        let mut v = Vpu::new(8, q, 8).unwrap();
        let data: Vec<u64> = (10..18).collect();
        v.load(0, &data).unwrap();
        let tw = [5u64, 7, 11, 13];
        let tw_inv: Vec<u64> = tw.iter().map(|&w| q.inv(w).unwrap()).collect();
        v.pease_stage(0, &PeaseStage::Forward { twiddles: &tw }, 8)
            .unwrap();
        v.pease_stage(0, &PeaseStage::Inverse { twiddles: &tw_inv }, 8)
            .unwrap();
        let half = q.inv(2).unwrap();
        let got = v.store(0).unwrap();
        for (x, orig) in got.iter().zip(&data) {
            assert_eq!(q.mul(*x, half), *orig);
        }
        assert_eq!(v.stats().butterfly, 2);
    }

    #[test]
    fn traced_run_reconstructs_stats_bit_exact() {
        use crate::trace::CounterSink;
        let q = Modulus::new(97).unwrap();
        let mut v = Vpu::with_sink(8, q, 32, CounterSink::new()).unwrap();
        v.load(0, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        v.load(1, &[3; 8]).unwrap();
        v.ewise_mul(2, 0, 1).unwrap();
        v.rotate(3, 2, 2).unwrap();
        v.automorphism_pass(4, 3, 3, 1).unwrap();
        v.reduce_sum(5, 4, 6).unwrap();
        let tw = [5u64, 7, 11, 13];
        v.pease_stage(0, &PeaseStage::Forward { twiddles: &tw }, 8)
            .unwrap();
        v.charge_network_moves(4);
        let stats = *v.stats();
        let sink = v.into_sink();
        assert_eq!(*sink.running(), stats, "trace-derived totals are bit-exact");
        assert_eq!(sink.reg_loads(), 2);
        assert_eq!(
            sink.net_beats(crate::trace::NetKind::Shift),
            2 + 4,
            "rotate + automorphism + bulk charge"
        );
    }

    #[test]
    fn traced_results_match_untraced_results() {
        use crate::trace::RingBufferSink;
        let q = Modulus::new(97).unwrap();
        let mut plain = Vpu::new(8, q, 16).unwrap();
        let mut traced = Vpu::with_sink(8, q, 16, RingBufferSink::new(64)).unwrap();
        let data: Vec<u64> = (1..=8).collect();
        plain.load(0, &data).unwrap();
        traced.load(0, &data).unwrap();
        plain.rotate(1, 0, 3).unwrap();
        traced.rotate(1, 0, 3).unwrap();
        plain.ewise_add(2, 0, 1).unwrap();
        traced.ewise_add(2, 0, 1).unwrap();
        assert_eq!(plain.store(2).unwrap(), traced.store(2).unwrap());
        assert_eq!(plain.stats(), traced.stats());
        assert!(!traced.sink().events().is_empty());
    }

    #[test]
    fn spans_carry_cycle_timestamps() {
        use crate::trace::{RingBufferSink, TraceEvent};
        let q = Modulus::new(97).unwrap();
        let mut v = Vpu::with_sink(8, q, 16, RingBufferSink::new(64)).unwrap();
        v.set_track(7);
        v.load(0, &[1; 8]).unwrap();
        v.ewise_add(1, 0, 0).unwrap();
        v.span_begin("phase");
        v.ewise_add(1, 0, 0).unwrap();
        v.span_end("phase");
        let sink = v.into_sink();
        let spans: Vec<_> = sink
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::SpanBegin { .. } | TraceEvent::SpanEnd { .. }))
            .collect();
        assert_eq!(spans.len(), 2);
        match spans[0] {
            TraceEvent::SpanBegin { track, ts, name } => {
                assert_eq!(*track, 7);
                assert_eq!(*ts, 1, "span opens after the first beat");
                assert_eq!(name, "phase");
            }
            other => panic!("unexpected {other:?}"),
        }
        match spans[1] {
            TraceEvent::SpanEnd { ts, .. } => assert_eq!(*ts, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scatter_gather_round_trip() {
        let mut v = vpu();
        v.ensure_depth(16);
        let data: Vec<u64> = (20..28).collect();
        v.load(0, &data).unwrap();
        let addrs: Vec<usize> = (8..16).collect();
        v.route_scatter(0, &NetworkPass::default(), &addrs).unwrap();
        v.gather_route(1, &addrs, &NetworkPass::default()).unwrap();
        assert_eq!(v.store(1).unwrap(), data);
        assert_eq!(v.stats().network_move, 2);
    }
}
