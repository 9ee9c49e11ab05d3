//! `vpu_sim`: the paper's artefact — one 64-lane VPU simulated at
//! n = 2^16 over a 50-bit NTT prime. Op: forward negacyclic NTT →
//! inverse negacyclic NTT → automorphism σ₅. `core` does all the work and
//! the host NTT kernels none.

use super::{RoundCheck, Workload};
use crate::span::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uvpu_core::auto_map::AutomorphismMapping;
use uvpu_core::ntt_map::NttPlan;
use uvpu_core::vpu::Vpu;
use uvpu_core::CoreError;
use uvpu_math::modular::Modulus;
use uvpu_math::primes::ntt_prime;
use uvpu_math::util::bit_reverse;

pub const LOG_N: u32 = 16;
pub const N: usize = 1 << LOG_N;
pub const LANES: usize = 64;
pub const PRIME_BITS: u32 = 50;
/// Register-file depth, as `uvpu_bench::measure_table3` uses.
pub const DEPTH: usize = 8;

/// The simulated modulus for a ring of `n`.
///
/// # Panics
///
/// Panics if no 50-bit NTT prime exists for `n` (one does for every
/// power of two the benchmark uses).
#[must_use]
pub fn modulus(n: usize) -> Modulus {
    Modulus::new(ntt_prime(PRIME_BITS, n).expect("50-bit NTT prime")).expect("prime modulus")
}

struct State {
    plan: NttPlan,
    auto: AutomorphismMapping,
    vpu: Vpu,
}

pub struct VpuSim {
    round_ops: usize,
    q: Modulus,
    data: Vec<u64>,
    state: Option<State>,
    /// Modelled cycles of the round so far, and of its forward NTT and
    /// automorphism alone.
    cycles: u64,
    ntt_cycles: u64,
    auto_cycles: u64,
    util_ppm: u64,
    /// Outputs of the round's first op: (forward, inverse∘forward, σ₅).
    first: Option<(Vec<u64>, Vec<u64>, Vec<u64>)>,
}

impl VpuSim {
    #[must_use]
    pub fn new(seed: u64, round_ops: usize) -> Self {
        let q = modulus(N);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7690);
        let data = (0..N).map(|_| rng.gen_range(0..q.value())).collect();
        Self {
            round_ops,
            q,
            data,
            state: None,
            cycles: 0,
            ntt_cycles: 0,
            auto_cycles: 0,
            util_ppm: 0,
            first: None,
        }
    }

    fn try_setup(&self, rec: &mut Recorder) -> Result<State, CoreError> {
        let plan = rec.span("core.plan_build", || NttPlan::new(self.q, N, LANES))?;
        let auto = AutomorphismMapping::new(N, LANES, 5, 0)?;
        let vpu = Vpu::new(LANES, self.q, DEPTH)?;
        Ok(State { plan, auto, vpu })
    }
}

/// Utilisation as parts per million.
#[must_use]
pub fn ppm(share: f64) -> u64 {
    (share * 1e6).round() as u64
}

impl Workload for VpuSim {
    fn name(&self) -> &'static str {
        "vpu_sim"
    }

    fn round_ops(&self) -> usize {
        self.round_ops
    }

    fn setup(&mut self, rec: &mut Recorder) {
        self.state = Some(self.try_setup(rec).expect("VPU setup on valid parameters"));
    }

    fn op(&mut self, i: usize, rec: &mut Recorder) -> Result<(), String> {
        let s = self.state.as_mut().expect("setup ran");
        let data = &self.data;
        let mut run = |rec: &mut Recorder| -> Result<_, CoreError> {
            let fwd = rec.span("core.ntt_fwd", || {
                s.plan.execute_forward_negacyclic(&mut s.vpu, data)
            })?;
            let inv = rec.span("core.ntt_inv", || {
                s.plan.execute_inverse_negacyclic(&mut s.vpu, &fwd.output)
            })?;
            let auto = rec.span("core.auto", || s.auto.execute(&mut s.vpu, data))?;
            Ok((fwd, inv, auto))
        };
        let (fwd, inv, auto) = run(rec).map_err(|e| e.to_string())?;
        self.cycles += fwd.stats.total() + inv.stats.total() + auto.stats.total();
        if i == 0 {
            self.ntt_cycles = fwd.stats.total();
            self.auto_cycles = auto.stats.total();
            self.util_ppm = ppm(fwd.stats.utilization());
            self.first = Some((fwd.output, inv.output, auto.output));
        }
        Ok(())
    }

    fn check_round(&mut self, _rec: &mut Recorder) -> RoundCheck {
        let mut check = RoundCheck::default();
        let (fwd, back, auto) = self.first.take().unwrap_or_default();
        // The host NTT gives the same evaluations in bit-reversed order.
        let mut reference = self.data.clone();
        uvpu_math::cache::ntt_table(self.q, N)
            .expect("NTT table for the simulated prime")
            .forward_inplace(&mut reference);
        let ntt_right =
            fwd.len() == N && (0..N).all(|k| fwd[k] == reference[bit_reverse(k, LOG_N)]);
        // σ₅ sends element i to 5i mod N.
        let auto_right = auto.len() == N && (0..N).all(|i| auto[i * 5 % N] == self.data[i]);
        if !(ntt_right && back == self.data && auto_right) {
            eprintln!("vpu_sim: first op differs from the host reference");
            check.failed_ops += 1;
        }
        check.exact.insert("core.model_cycles", self.cycles as f64);
        check
            .exact
            .insert("core.cycles.ntt_fwd.n65536", self.ntt_cycles as f64);
        check
            .exact
            .insert("core.cycles.auto.n65536", self.auto_cycles as f64);
        check
            .exact
            .insert("core.util_ppm.ntt.n65536", self.util_ppm as f64);
        self.cycles = 0;
        check
    }
}
