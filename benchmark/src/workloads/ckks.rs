//! `ckks_8k` and `ckks_32k`: the same CKKS op at two ring sizes.
//!
//! Op, on a ciphertext drawn round-robin from a pool of 8:
//! `mul`(+relin) → `rescale` → `rotate(1)` → `add` → `mul_plain`.
//! Messages fill the first [`SLOTS`] slots (the encoder costs
//! O(N · slots), so sparse messages keep `setup_s` about keys and
//! encryption rather than about the O(N²) reference embedding).

use super::{RoundCheck, Workload};
use crate::span::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uvpu_ckks::ciphertext::Ciphertext;
use uvpu_ckks::encoder::{Encoder, Plaintext, C64};
use uvpu_ckks::keys::{GaloisKeys, KeyGenerator, KeySwitchKey, SecretKey};
use uvpu_ckks::ops::Evaluator;
use uvpu_ckks::params::{CkksContext, CkksParams};
use uvpu_ckks::CkksError;

/// Populated slots per message.
pub const SLOTS: usize = 64;
/// Ciphertexts in the pool.
pub const POOL: usize = 8;
/// Largest slot error a checked op may show. A wrong result is off by
/// O(1); the ops reach 19.7 to 22.8 bits over seeds and shapes, so 2^-16
/// fails no correct op. `ckks.precision_bits.*` reports the precision.
const MAX_ERROR: f64 = 1.0 / (1u64 << 16) as f64;

/// Ring size, depth and thread pin of one CKKS workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub log_n: u32,
    /// Rescale levels; the chain has `levels + 1` limbs.
    pub levels: usize,
    /// Pins the workload to one thread when set.
    pub single_thread: bool,
    /// Per-layer metric name of the precision this shape reaches.
    pub precision_metric: &'static str,
    /// Whether a traced check times one full `Encoder::decode` (O(N²):
    /// 80 ms at n = 2^13, 1.7 s at n = 2^15).
    pub full_decode: bool,
}

/// n = 2^13, 5 limbs, default threads: direct-path, L2-resident NTTs and
/// many-limb RNS fan-out.
pub const SHAPE_8K: Shape = Shape {
    name: "ckks_8k",
    log_n: 13,
    levels: 4,
    single_thread: false,
    precision_metric: "ckks.precision_bits.n8192",
    full_decode: true,
};

/// n = 2^15, 3 limbs, one thread: the four-step NTT regime with a working
/// set beyond L2, and the plain sequential baseline. Three limbs (not
/// five) so that a run holds at least 240 ops.
pub const SHAPE_32K: Shape = Shape {
    name: "ckks_32k",
    log_n: 15,
    levels: 2,
    single_thread: true,
    precision_metric: "ckks.precision_bits.n32768",
    full_decode: false,
};

struct State {
    ctx: CkksContext,
    encoder: Encoder,
    sk: SecretKey,
    rlk: KeySwitchKey,
    gks: GaloisKeys,
    pool: Vec<Ciphertext>,
    plain: Plaintext,
}

/// The CKKS workload at one [`Shape`].
pub struct Ckks {
    shape: Shape,
    seed: u64,
    round_ops: usize,
    /// Pool messages and the plaintext multiplier, `SLOTS` values each.
    messages: Vec<Vec<C64>>,
    multiplier: Vec<C64>,
    state: Option<State>,
    /// Results of the sampled ops (first, middle, last) of the round.
    kept: Vec<(usize, Ciphertext)>,
    /// Whether a traced check has already timed its full decode.
    decoded_in_full: bool,
}

impl Ckks {
    #[must_use]
    pub fn new(shape: Shape, seed: u64, round_ops: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4c5);
        let mut message = || -> Vec<C64> {
            (0..SLOTS)
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect()
        };
        let messages = (0..POOL).map(|_| message()).collect();
        let multiplier = message();
        Self {
            shape,
            seed,
            round_ops,
            messages,
            multiplier,
            state: None,
            kept: Vec::new(),
            decoded_in_full: false,
        }
    }

    fn try_setup(&self, rec: &mut Recorder) -> Result<State, CkksError> {
        let n = 1usize << self.shape.log_n;
        let top = self.shape.levels;
        let ctx = rec.span("ckks.context", || {
            CkksContext::new(CkksParams::new(n, top, 40)?)
        })?;
        let encoder = Encoder::new(&ctx);
        let (sk, pk, rlk, gks) = rec.span("ckks.keygen", || {
            let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(self.seed ^ 0x6b65));
            let sk = kg.secret_key();
            let pk = kg.public_key(&sk)?;
            let rlk = kg.relin_key(&sk)?;
            let gks = kg.galois_keys(&sk, &[1])?;
            Ok::<_, CkksError>((sk, pk, rlk, gks))
        })?;
        let eval = Evaluator::new(&ctx);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x656e);
        let mut pool = Vec::with_capacity(POOL);
        for m in &self.messages {
            let pt = rec.span("ckks.encode", || encoder.encode(&ctx, top, m))?;
            pool.push(rec.span("ckks.encrypt", || eval.encrypt(&pk, &pt, &mut rng))?);
        }
        // The multiplier meets the ciphertext one level down, after rescale.
        let plain = rec.span("ckks.encode", || {
            encoder.encode(&ctx, top - 1, &self.multiplier)
        })?;
        Ok(State {
            ctx,
            encoder,
            sk,
            rlk,
            gks,
            pool,
            plain,
        })
    }

    /// What op `i` should decrypt to in slot `j < SLOTS`: with z = x∘x,
    /// `(z[j + 1] + z[j]) · p[j]`, where the slot past the message is 0.
    fn expected(&self, i: usize, j: usize) -> C64 {
        let x = &self.messages[i % POOL];
        let sq = |k: usize| {
            if k < SLOTS {
                x[k].mul(x[k])
            } else {
                C64::default()
            }
        };
        sq(j + 1).add(sq(j)).mul(self.multiplier[j])
    }

    /// Worst slot error of `slots` against op `i`'s expectation.
    fn max_error(&self, i: usize, slots: &[C64]) -> f64 {
        (0..SLOTS)
            .map(|j| {
                let e = self.expected(i, j);
                C64::new(slots[j].re - e.re, slots[j].im - e.im).abs()
            })
            .fold(0.0, f64::max)
    }
}

/// Decodes the first [`SLOTS`] slots of `pt` straight from the canonical
/// embedding, `z_j = Σ_k m_k · ζ^{5^j · k}` with ζ = e^{iπ/N}: an
/// O(N · SLOTS) reference that shares no code with `Encoder::decode`.
fn decode_head(ctx: &CkksContext, pt: &Plaintext) -> Vec<C64> {
    let n = ctx.params().n();
    let two_n = 2 * n;
    let roots: Vec<C64> = (0..two_n)
        .map(|e| {
            let theta = std::f64::consts::PI * e as f64 / n as f64;
            C64::new(theta.cos(), theta.sin())
        })
        .collect();
    let coeffs: Vec<f64> = (0..n)
        .map(|k| pt.poly.coefficient_centered_f64(ctx, k) / pt.scale)
        .collect();
    let mut r = 1usize;
    (0..SLOTS)
        .map(|_| {
            let mut acc = C64::default();
            for (k, &c) in coeffs.iter().enumerate() {
                acc = acc.add(roots[r * k % two_n].mul(C64::from(c)));
            }
            r = r * 5 % two_n;
            acc
        })
        .collect()
}

impl Workload for Ckks {
    fn name(&self) -> &'static str {
        self.shape.name
    }

    fn threads(&self, default: usize) -> usize {
        if self.shape.single_thread {
            1
        } else {
            default
        }
    }

    fn round_ops(&self) -> usize {
        self.round_ops
    }

    fn setup(&mut self, rec: &mut Recorder) {
        self.state = Some(self.try_setup(rec).expect("CKKS setup on valid parameters"));
    }

    fn op(&mut self, i: usize, rec: &mut Recorder) -> Result<(), String> {
        let s = self.state.as_ref().expect("setup ran");
        let eval = Evaluator::new(&s.ctx);
        let ct = &s.pool[i % POOL];
        let run = |rec: &mut Recorder| -> Result<Ciphertext, CkksError> {
            let m = rec.span("ckks.mul", || eval.mul(ct, ct, &s.rlk))?;
            let r = rec.span("ckks.rescale", || eval.rescale(&m))?;
            let ro = rec.span("ckks.rotate", || eval.rotate(&r, 1, &s.gks))?;
            let a = rec.span("ckks.add", || eval.add(&ro, &r))?;
            rec.span("ckks.mul_plain", || eval.mul_plain(&a, &s.plain))
        };
        let out = run(rec).map_err(|e| e.to_string())?;
        let last = self.round_ops - 1;
        if i == 0 || i == last / 2 || i == last {
            self.kept.push((i, out));
        }
        Ok(())
    }

    fn check_round(&mut self, rec: &mut Recorder) -> RoundCheck {
        let s = self.state.as_ref().expect("setup ran");
        let eval = Evaluator::new(&s.ctx);
        let mut check = RoundCheck::default();
        let mut worst = 0f64;
        for (k, (i, ct)) in self.kept.iter().enumerate() {
            let Ok(pt) = rec.span("ckks.decrypt", || eval.decrypt(&s.sk, ct)) else {
                check.failed_ops += 1;
                continue;
            };
            let mut err = self.max_error(*i, &decode_head(&s.ctx, &pt));
            if self.shape.full_decode && rec.enabled() && !self.decoded_in_full && k == 0 {
                self.decoded_in_full = true;
                let slots = rec.span("ckks.decode", || s.encoder.decode(&s.ctx, &pt));
                err = err.max(self.max_error(*i, &slots));
            }
            if err.is_nan() || err > MAX_ERROR {
                eprintln!("{}: op {i} is off by {err:e}", self.shape.name);
                check.failed_ops += 1;
            }
            worst = worst.max(err);
        }
        self.kept.clear();
        // In 0.1-bit steps: the last bits of an f64 error are not a fact
        // about the scheme.
        let bits = (-worst.max(f64::MIN_POSITIVE).log2() * 10.0).floor() / 10.0;
        check.exact.insert(self.shape.precision_metric, bits);
        check
    }
}
