//! The per-element formulation of the NTT mapping that the compiled
//! [`NttPlan`] replaced, kept as a test oracle: every index map is built
//! digit by digit (a `Vec` per element), every twiddle is a `pow`, and
//! every beat goes through the public [`Vpu`] API in the sequential
//! per-beat order. Outputs, cycle statistics, trace events and
//! fault-hook offers of the compiled plan must equal this one's.

#![allow(clippy::unwrap_used)]

use super::{Direction, NttExecution, NttPlan};
use crate::stats::CycleStats;
use crate::trace::{FaultSite, RingBufferSink, TraceSink};
use crate::vpu::{PeaseStage, Vpu};
use uvpu_math::modular::Modulus;
use uvpu_math::ntt::psi_twist_inplace;
use uvpu_math::util::{bit_reverse, log2_exact};

/// Records every fault-hook offer (site, cycle, words) and corrupts
/// nothing.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct HookLog(pub Vec<(FaultSite, u64, Vec<u64>)>);

impl TraceSink for HookLog {
    fn fault_hooks_enabled(&self) -> bool {
        true
    }

    fn fault_data(&mut self, _track: u32, cycle: u64, site: FaultSite, data: &mut [u64]) {
        self.0.push((site, cycle, data.to_vec()));
    }
}

/// `shards` VPUs, each logging its full event stream and every
/// fault-hook offer.
pub(crate) fn probes(
    m: usize,
    q: Modulus,
    shards: usize,
    capacity: usize,
) -> Vec<Vpu<(RingBufferSink, HookLog)>> {
    (0..shards)
        .map(|track| {
            let sink = (RingBufferSink::new(capacity), HookLog::default());
            let mut vpu = Vpu::with_sink(m, q, 4, sink).unwrap();
            vpu.set_track(track as u32);
            vpu
        })
        .collect()
}

/// Marks a lane with no element mapped to it (`n < m` layouts).
const UNUSED: usize = usize::MAX;

pub(super) struct Oracle<'a>(pub &'a NttPlan);

impl Oracle<'_> {
    /// Splits an element code into its per-dimension digits
    /// (`code = Σ_s x_s · Π_{u<s} d_u`, dimension 0 least significant).
    fn digits(&self, code: usize) -> Vec<usize> {
        let mut c = code;
        self.0
            .dims
            .iter()
            .map(|&d| {
                let x = c % d;
                c /= d;
                x
            })
            .collect()
    }

    /// Packs digits back into a code.
    fn pack(&self, digits: &[usize]) -> usize {
        let mut stride = 1;
        digits
            .iter()
            .zip(&self.0.dims)
            .map(|(x, &d)| {
                let term = x * stride;
                stride *= d;
                term
            })
            .sum()
    }

    /// Input flat index for a digit tuple: `i = Σ_s i_s · Π_{u>s} d_u`.
    pub(super) fn input_index(&self, digits: &[usize]) -> usize {
        let dims = &self.0.dims;
        let mut stride = vec![1usize; dims.len()];
        for s in (0..dims.len().saturating_sub(1)).rev() {
            stride[s] = stride[s + 1] * dims[s + 1];
        }
        digits.iter().zip(&stride).map(|(&x, &s)| x * s).sum()
    }

    /// Physical `(column, lane)` of a digit tuple while dimension `t`
    /// occupies the lanes.
    fn place(&self, t: usize, digits: &[usize]) -> (usize, usize) {
        let dims = &self.0.dims;
        let groups = self.0.m / dims[t];
        // K: mixed radix over transformed digits (dims < t).
        let (mut k_idx, mut k_radix) = (0usize, 1usize);
        for (&dig, &dim) in digits.iter().zip(dims).take(t) {
            k_idx += dig * k_radix;
            k_radix *= dim;
        }
        // r: mixed radix over untransformed digits, dim t+1 major.
        let mut r_idx = 0usize;
        for (&dig, &dim) in digits.iter().zip(dims).skip(t + 1) {
            r_idx = r_idx * dim + dig;
        }
        let lane = (k_idx % groups) * dims[t] + digits[t];
        (k_idx / groups + (k_radix / groups) * r_idx, lane)
    }

    /// Exponent of the global ω scaling a slot just before dimension `t`
    /// is transformed: `ω_{P_t}^{i_t · κ_t}`.
    fn twiddle_exponent(&self, t: usize, digits: &[usize]) -> u64 {
        let (mut kappa, mut radix) = (0usize, 1usize);
        for (&dig, &dim) in digits.iter().zip(&self.0.dims).take(t) {
            kappa += dig * radix;
            radix *= dim;
        }
        let p_t = radix * self.0.dims[t];
        let e = (digits[t] * kappa) % p_t;
        (self.0.n / p_t) as u64 * e as u64 % self.0.n as u64
    }

    fn apply_twiddles(&self, state: &mut [u64], t: usize, inverse: bool) {
        let q = self.0.modulus;
        let root = if inverse {
            q.inv(self.0.omega).unwrap()
        } else {
            self.0.omega
        };
        for (code, v) in state.iter_mut().enumerate() {
            let e = self.twiddle_exponent(t, &self.digits(code));
            if e != 0 {
                *v = q.mul(*v, q.pow(root, e));
            }
        }
    }

    fn charge_elementwise<S: TraceSink>(&self, vpus: &mut [Vpu<S>], beats: usize) {
        let shards = vpus.len();
        for b in 0..beats {
            vpus[b % shards]
                .ewise_mul_const(1, 1, &vec![1u64; self.0.m])
                .unwrap();
        }
    }

    fn charge_transpose<S: TraceSink>(&self, vpus: &mut [Vpu<S>], t: usize, cols: usize) {
        let per_column = 2 + u64::from(log2_exact(self.0.m) - log2_exact(self.0.dims[t]));
        let shards = vpus.len();
        vpus[0].span_begin("ntt.transpose");
        for c in 0..cols {
            vpus[c % shards].charge_network_moves(per_column);
        }
        vpus[0].span_end("ntt.transpose");
    }

    /// One length-`d` Pease NTT per lane group on register 0, twiddles
    /// `ω_d^{(j >> s) << s}` straight from `pow`.
    fn small_ntt<S: TraceSink>(&self, vpu: &mut Vpu<S>, t: usize, direction: Direction) {
        let (q, d, m) = (self.0.modulus, self.0.dims[t], self.0.m);
        let root = q.pow(self.0.omega, (self.0.n / d) as u64);
        let root = match direction {
            Direction::Forward => root,
            Direction::Inverse => q.inv(root).unwrap(),
        };
        let stage = |s: u32| -> Vec<u64> {
            (0..m / 2)
                .map(|p| q.pow(root, (((p % (d / 2)) >> s) << s) as u64))
                .collect()
        };
        match direction {
            Direction::Forward => {
                for s in 0..log2_exact(d) {
                    let twiddles = &stage(s);
                    vpu.pease_stage(0, &PeaseStage::Forward { twiddles }, d)
                        .unwrap();
                }
            }
            Direction::Inverse => {
                for s in (0..log2_exact(d)).rev() {
                    let twiddles = &stage(s);
                    vpu.pease_stage(0, &PeaseStage::Inverse { twiddles }, d)
                        .unwrap();
                }
                let scale = vec![q.inv(d as u64).unwrap(); m];
                vpu.ewise_mul_const(0, 0, &scale).unwrap();
            }
        }
    }

    fn run_dimension<S: TraceSink>(
        &self,
        vpus: &mut [Vpu<S>],
        state: &mut [u64],
        t: usize,
        direction: Direction,
        cols: usize,
    ) {
        let bits = log2_exact(self.0.dims[t]);
        // The in-group position is the untransformed digit on the
        // natural side and its bit reversal on the transformed side.
        let mut col_codes = vec![vec![UNUSED; self.0.m]; cols];
        for code in 0..self.0.n {
            let mut digits = self.digits(code);
            if direction == Direction::Inverse {
                digits[t] = bit_reverse(digits[t], bits);
            }
            let (col, lane) = self.place(t, &digits);
            col_codes[col][lane] = code;
        }
        let shards = vpus.len();
        for (col, codes) in col_codes.iter().enumerate() {
            let vpu = &mut vpus[col % shards];
            let column: Vec<u64> = codes
                .iter()
                .map(|&c| if c == UNUSED { 0 } else { state[c] })
                .collect();
            vpu.load(0, &column).unwrap();
            self.small_ntt(vpu, t, direction);
            let out = vpu.store(0).unwrap();
            for (lane, &code) in codes.iter().enumerate() {
                if code == UNUSED {
                    continue;
                }
                let pos = lane % self.0.dims[t];
                let mut digits = self.digits(code);
                digits[t] = match direction {
                    Direction::Forward => bit_reverse(pos, bits),
                    Direction::Inverse => pos,
                };
                state[self.pack(&digits)] = out[lane];
            }
        }
    }

    pub(super) fn execute<S: TraceSink>(
        &self,
        vpus: &mut [Vpu<S>],
        input: &[u64],
        direction: Direction,
        negacyclic: bool,
    ) -> NttExecution {
        let (q, n) = (self.0.modulus, self.0.n);
        let psi = negacyclic.then(|| self.0.psi.unwrap().0);
        for vpu in vpus.iter_mut() {
            vpu.ensure_depth(2);
        }
        let starts: Vec<CycleStats> = vpus.iter().map(|v| *v.stats()).collect();
        let cols = (n / self.0.m).max(1);
        let kdims = self.0.dims.len();
        let phase = match (direction, negacyclic) {
            (Direction::Forward, false) => "ntt.forward",
            (Direction::Forward, true) => "ntt.forward_negacyclic",
            (Direction::Inverse, false) => "ntt.inverse",
            (Direction::Inverse, true) => "ntt.inverse_negacyclic",
        };
        vpus[0].span_begin(phase);
        let dimension = |vpus: &mut [Vpu<S>], state: &mut [u64], t: usize| {
            vpus[0].span_begin(&format!("ntt.dim{t}"));
            self.run_dimension(vpus, state, t, direction, cols);
            vpus[0].span_end(&format!("ntt.dim{t}"));
        };
        let twiddle = |vpus: &mut [Vpu<S>], state: &mut [u64], t: usize| {
            vpus[0].span_begin("ntt.twiddle");
            self.apply_twiddles(state, t, direction == Direction::Inverse);
            self.charge_elementwise(vpus, cols);
            vpus[0].span_end("ntt.twiddle");
        };
        let twist = |vpus: &mut [Vpu<S>]| {
            vpus[0].span_begin("ntt.twist");
            self.charge_elementwise(vpus, cols);
            vpus[0].span_end("ntt.twist");
        };
        let mut data: Vec<u64> = input.iter().map(|&x| q.reduce_u64(x)).collect();
        let output = match direction {
            Direction::Forward => {
                if let Some(psi) = psi {
                    psi_twist_inplace(&mut data, psi, &q);
                }
                let mut state: Vec<u64> = (0..n)
                    .map(|code| data[self.input_index(&self.digits(code))])
                    .collect();
                if psi.is_some() {
                    twist(vpus);
                }
                for t in 0..kdims {
                    if t > 0 {
                        twiddle(vpus, &mut state, t);
                        self.charge_transpose(vpus, t, cols);
                    }
                    dimension(vpus, &mut state, t);
                }
                state
            }
            Direction::Inverse => {
                let mut state = data;
                for t in (0..kdims).rev() {
                    if t < kdims - 1 {
                        self.charge_transpose(vpus, t + 1, cols);
                    }
                    dimension(vpus, &mut state, t);
                    if t > 0 {
                        twiddle(vpus, &mut state, t);
                    }
                }
                let mut out = vec![0u64; n];
                for (code, &val) in state.iter().enumerate() {
                    out[self.input_index(&self.digits(code))] = val;
                }
                if let Some(psi) = psi {
                    psi_twist_inplace(&mut out, q.inv(psi).unwrap(), &q);
                    twist(vpus);
                }
                out
            }
        };
        vpus[0].span_end(phase);
        let mut stats = CycleStats::new();
        for (vpu, start) in vpus.iter().zip(&starts) {
            stats += vpu.stats().delta(start);
        }
        NttExecution { output, stats }
    }
}
