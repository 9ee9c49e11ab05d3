//! `bfv_2k`: BFV at n = 2^11 with one 52-bit modulus and t = 12289.
//!
//! Op, on a ciphertext drawn round-robin from a pool of 8: `mul`(+relin)
//! of the ciphertext with itself, `mul_plain` of the same ciphertext,
//! `rotate_rows(1)` of the product, `add` of the two branches. The
//! single modulus leaves the RNS fan-out nothing to split, and the exact
//! integer tensor (O(n²), i128) does nearly all the work.
//!
//! The parameters are the largest this BFV can multiply and still
//! decrypt: with one ≤ 52-bit modulus a product at n = 2^12 has no noise
//! budget left for any admissible t, and at n = 2^11 the product has
//! about 4.5 bits, which `mul_plain` of a full-range plaintext (≈ 17
//! bits) would exhaust — hence the two branches rather than a chain.

use super::{RoundCheck, Workload};
use crate::span::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uvpu_bfv::cipher::{Ciphertext, Evaluator};
use uvpu_bfv::encoder::{BatchEncoder, Plaintext};
use uvpu_bfv::keys::{GaloisKeys, KeyGenerator, KeySwitchKey, SecretKey};
use uvpu_bfv::params::BfvParams;
use uvpu_bfv::BfvError;

pub const N: usize = 1 << 11;
pub const Q_BITS: u32 = 52;
/// The smallest batching prime for this ring (t ≡ 1 mod 2N).
pub const T: u64 = 12_289;
const POOL: usize = 8;
/// Ops checked per round.
const CHECKED: usize = 8;

struct State {
    params: BfvParams,
    encoder: BatchEncoder,
    sk: SecretKey,
    rlk: KeySwitchKey,
    gks: GaloisKeys,
    pool: Vec<Ciphertext>,
    plain: Plaintext,
}

pub struct Bfv {
    seed: u64,
    round_ops: usize,
    /// Pool messages and the plaintext multiplier: N slot values each.
    messages: Vec<Vec<u64>>,
    multiplier: Vec<u64>,
    state: Option<State>,
    kept: Vec<(usize, Ciphertext)>,
}

impl Bfv {
    #[must_use]
    pub fn new(seed: u64, round_ops: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbf5);
        let mut message = || -> Vec<u64> { (0..N).map(|_| rng.gen_range(0..T)).collect() };
        let messages = (0..POOL).map(|_| message()).collect();
        let multiplier = message();
        Self {
            seed,
            round_ops,
            messages,
            multiplier,
            state: None,
            kept: Vec::new(),
        }
    }

    fn try_setup(&self, rec: &mut Recorder) -> Result<State, BfvError> {
        let params = BfvParams::with_plain_modulus(N, Q_BITS, T)?;
        let encoder = BatchEncoder::new(&params)?;
        let (sk, pk, rlk, gks) = rec.span("bfv.keygen", || {
            let mut kg = KeyGenerator::new(&params, StdRng::seed_from_u64(self.seed ^ 0x6b65));
            let sk = kg.secret_key();
            let pk = kg.public_key(&sk)?;
            let rlk = kg.relin_key(&sk)?;
            let gks = kg.galois_keys(&sk, &[1])?;
            Ok::<_, BfvError>((sk, pk, rlk, gks))
        })?;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x656e);
        let mut pool = Vec::with_capacity(POOL);
        {
            let eval = Evaluator::new(&params);
            for m in &self.messages {
                let pt = encoder.encode(m)?;
                pool.push(rec.span("bfv.encrypt", || eval.encrypt(&pk, &pt, &mut rng))?);
            }
        }
        let plain = encoder.encode(&self.multiplier)?;
        Ok(State {
            params,
            encoder,
            sk,
            rlk,
            gks,
            pool,
            plain,
        })
    }

    /// What op `i` should decrypt to in slot `j`: x² one slot to the left
    /// within the row, plus x·p in place.
    fn expected(&self, i: usize, j: usize) -> u64 {
        let x = &self.messages[i % POOL];
        let half = N / 2;
        let left = (j / half) * half + (j % half + 1) % half;
        (x[left] * x[left] + x[j] * self.multiplier[j]) % T
    }
}

impl Workload for Bfv {
    fn name(&self) -> &'static str {
        "bfv_2k"
    }

    fn round_ops(&self) -> usize {
        self.round_ops
    }

    fn setup(&mut self, rec: &mut Recorder) {
        self.state = Some(self.try_setup(rec).expect("BFV setup on valid parameters"));
    }

    fn op(&mut self, i: usize, rec: &mut Recorder) -> Result<(), String> {
        let s = self.state.as_ref().expect("setup ran");
        let eval = Evaluator::new(&s.params);
        let ct = &s.pool[i % POOL];
        let run = |rec: &mut Recorder| -> Result<Ciphertext, BfvError> {
            let m = rec.span("bfv.mul", || eval.mul(ct, ct, &s.rlk))?;
            let p = rec.span("bfv.mul_plain", || eval.mul_plain(ct, &s.plain))?;
            let r = rec.span("bfv.rotate_rows", || eval.rotate_rows(&m, 1, &s.gks))?;
            Ok(rec.span("bfv.add", || eval.add(&r, &p)))
        };
        let out = run(rec).map_err(|e| e.to_string())?;
        let stride = (self.round_ops / CHECKED).max(1);
        if i.is_multiple_of(stride) || i == self.round_ops - 1 {
            self.kept.push((i, out));
        }
        Ok(())
    }

    fn check_round(&mut self, rec: &mut Recorder) -> RoundCheck {
        let s = self.state.as_ref().expect("setup ran");
        let eval = Evaluator::new(&s.params);
        let mut check = RoundCheck::default();
        let mut budget = f64::INFINITY;
        for (i, ct) in &self.kept {
            let slots = rec
                .span("bfv.decrypt", || eval.decrypt(&s.sk, ct))
                .map(|pt| s.encoder.decode(&pt));
            // BFV is exact: one wrong slot is a failed op.
            let right = slots.is_ok_and(|slots| (0..N).all(|j| slots[j] == self.expected(*i, j)));
            if !right {
                eprintln!("bfv_2k: op {i} decrypted to the wrong slots");
                check.failed_ops += 1;
            }
            budget = budget.min(eval.noise_budget(&s.sk, ct).unwrap_or(0.0));
        }
        check.exact.insert("bfv.noise_budget_bits", budget);
        self.kept.clear();
        check
    }
}
