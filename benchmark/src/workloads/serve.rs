//! `serve_burst`: the top of the ladder. A `Service` with 4 VPUs × 32
//! lanes, queue capacity 8 and quota 2 (`uvpu_bench::serve_workload::
//! config`) serves 4 tenants, tenant 4 under a fault environment for the
//! whole run. One op is one burst of 12 `submit_frame` calls → `drain` →
//! `take_responses`, closed loop, one client. Overload is by design: the
//! burst overflows the queue and the quotas, so the refusal mix is a
//! deterministic count, not noise, and a refusal is an outcome, not a
//! failure.

use super::{RoundCheck, Workload};
use crate::span::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uvpu_bench::serve_workload::{config, key_frames, HOSTILE_TENANT, TENANTS};
use uvpu_fault::digest64;
use uvpu_metrics::registry::Histogram;
use uvpu_serve::service::{ServeConfig, Service};
use uvpu_serve::wire::{encode_request, op_code, WireOp};

/// Requests per burst (chosen in `serve_workload` to overflow the queue).
pub const BURST: usize = 12;
/// Ring sizes the requests cycle through.
pub const LOG2_NS: [u8; 3] = [8, 10, 12];
/// Per-word fault rate of the faulty tenant. The slow bursts (3 ms
/// against 1.7) are the ones in which one of its requests executes under
/// retry; at this rate they are 9 to 13% of the bursts for every seed, so
/// the 95th percentile lies inside them. (At `serve_workload`'s 500 ppm
/// the breaker keeps the tenant out more, the share is 2 to 6%, and
/// `op_p95_ms` flips between the two modes with the seed.)
pub const FAULT_RATE_PPM: u32 = 300;

/// The service configuration: `serve_workload::config` with the hostile
/// tenant's fault environment seeded from `seed`, at [`FAULT_RATE_PPM`],
/// and never expiring.
#[must_use]
pub fn service_config(seed: u64) -> ServeConfig {
    let mut cfg = config(true);
    let env = cfg
        .fault_envs
        .get_mut(&HOSTILE_TENANT)
        .expect("config(true) attaches the hostile tenant");
    env.seed = seed;
    env.faulty_requests = u64::MAX;
    env.rate_ppm = FAULT_RATE_PPM;
    cfg
}

fn frame(rng: &mut StdRng, tenant: u32, id: u64, op: &WireOp, deadline: u64) -> Vec<u8> {
    let words: Vec<u64> = (0..op.n()).map(|_| rng.gen_range(0..1u64 << 50)).collect();
    encode_request(tenant, id, op, deadline, 1, &words).expect("well-formed request")
}

/// The payload generator of burst `b`: a function of seed and burst only,
/// so every round sends the same bytes.
fn burst_rng(seed: u64, b: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x5e7e ^ ((b as u64 + 1) << 20))
}

/// Request `i` of a round: tenants round-robin; the hostile tenant sends
/// bare n = 2^8 NTTs (cheap under retry, as in `serve_workload`), the
/// others cycle HMULT/HADD/HROT, ring sizes and limb counts; two of every
/// twelve carry the 2 500 / 6 000-cycle deadlines.
fn request(rng: &mut StdRng, i: u64) -> Vec<u8> {
    let tenant = 1 + (i % u64::from(TENANTS)) as u32;
    let op = if tenant == HOSTILE_TENANT {
        WireOp {
            code: op_code::NTT,
            log2_n: LOG2_NS[0],
            limbs: 1,
            chain_index: 0,
            galois_elt: 0,
        }
    } else {
        WireOp {
            code: [op_code::HMULT, op_code::HADD, op_code::HROT][(i % 3) as usize],
            log2_n: LOG2_NS[(i / 4 % 3) as usize],
            limbs: 1 + (i / 12 % 3) as u16,
            chain_index: 0,
            galois_elt: 2,
        }
    };
    let deadline = match i % 12 {
        5 => 2_500,
        11 => 6_000,
        _ => u64::MAX,
    };
    frame(rng, tenant, 100 + i, &op, deadline)
}

/// One clean-path request per kernel shape the round uses, so that
/// `setup` sees every shape once and the shape memo is warm before the
/// first timed burst.
fn warm_requests(rng: &mut StdRng) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for &log2_n in &LOG2_NS {
        for code in [op_code::HMULT, op_code::HADD, op_code::HROT, op_code::NTT] {
            let op = WireOp {
                code,
                log2_n,
                limbs: 1,
                chain_index: 0,
                galois_elt: 2,
            };
            out.push(frame(rng, 1, out.len() as u64, &op, u64::MAX));
        }
    }
    out
}

pub struct ServeBurst {
    seed: u64,
    config: ServeConfig,
    round_ops: usize,
    keys: Vec<Vec<u8>>,
    warm: Vec<Vec<u8>>,
    /// The frames of the next burst, encoded by `prepare` outside the
    /// timed op. (A round's 9 600 frames up front would be 140 MB and
    /// bury the service's own memory in `peak_rss_mb`.)
    burst: Vec<Vec<u8>>,
    svc: Option<Service>,
    last_exact: Option<RoundCheck>,
}

impl ServeBurst {
    #[must_use]
    pub fn new(seed: u64, round_ops: usize) -> Self {
        Self {
            seed,
            config: service_config(seed),
            round_ops,
            keys: key_frames(),
            warm: warm_requests(&mut StdRng::seed_from_u64(seed ^ 0x5e7e)),
            burst: Vec::new(),
            svc: None,
            last_exact: None,
        }
    }

    fn facts(&self) -> RoundCheck {
        let svc = self.svc.as_ref().expect("setup ran");
        let reg = svc.registry();
        let mut check = RoundCheck::default();
        // The accept and reject digests of `serve_workload::run`, cut to
        // the 52 bits an f64 holds exactly.
        let (mut accepts, mut rejects) = (Vec::new(), Vec::new());
        for o in svc.outcomes() {
            let label = digest64(&o.label.bytes().map(u64::from).collect::<Vec<_>>());
            let words = [
                u64::from(o.tenant),
                o.request_id,
                label,
                o.digest,
                o.latency,
            ];
            if o.label == "ok" || o.label == "failed" {
                accepts.extend_from_slice(&words);
            } else {
                rejects.extend_from_slice(&words);
            }
        }
        let low52 = |d: u64| (d & ((1 << 52) - 1)) as f64;
        let family = |f: &str, k: &str| reg.family(f).get(k).copied().unwrap_or(0) as f64;
        let ok = family("serve.completed", "ok");
        let submitted = (self.warm.len() + self.round_ops * BURST) as f64;
        let trips: u64 = svc.breaker_states().iter().map(|b| b.2).sum();
        let p99 = reg
            .histogram("serve.latency")
            .and_then(Histogram::p50_p90_p99)
            .map_or(0, |p| p.2);
        check.exact.extend([
            ("serve.accept_digest52", low52(digest64(&accepts))),
            ("serve.reject_digest52", low52(digest64(&rejects))),
            ("serve.model_cycles", svc.now() as f64),
            ("serve.model_util_ppm", family("accel.occupancy", "ppm")),
            ("serve.model_p99_cycles", p99 as f64),
            ("serve.accepted", reg.counter("serve.accepted") as f64),
            ("serve.completed_ok", ok),
            (
                "serve.rejected.queue_full",
                family("serve.rejected", "queue_full"),
            ),
            (
                "serve.rejected.quota_exceeded",
                family("serve.rejected", "quota_exceeded"),
            ),
            (
                "serve.rejected.deadline",
                family("serve.rejected", "deadline"),
            ),
            (
                "serve.rejected.circuit_open",
                family("serve.rejected", "circuit_open"),
            ),
            ("serve.shed", reg.counter("serve.shed") as f64),
            ("serve.breaker_trips", trips as f64),
            ("serve.useful_ppm", (ok / submitted * 1e6).round()),
            (
                "fault.detector_trips",
                reg.counter("serve.detector_trips") as f64,
            ),
            (
                "fault.unrecoverable",
                reg.counter("serve.unrecoverable") as f64,
            ),
        ]);
        check
    }
}

impl Workload for ServeBurst {
    fn name(&self) -> &'static str {
        "serve_burst"
    }

    fn round_ops(&self) -> usize {
        self.round_ops
    }

    fn fresh_state_per_round(&self) -> bool {
        true
    }

    fn setup(&mut self, rec: &mut Recorder) {
        let mut svc = rec
            .span("serve.new", || Service::new(self.config.clone()))
            .expect("valid service configuration");
        rec.span("serve.key_uploads", || {
            for k in &self.keys {
                svc.submit_frame(k).expect("key upload");
            }
        });
        rec.span("serve.warm", || {
            for w in &self.warm {
                svc.submit_frame(w).expect("warm-up request");
                svc.drain().expect("warm-up drain");
            }
            svc.take_responses();
        });
        self.svc = Some(svc);
    }

    fn prepare(&mut self, i: usize) {
        let mut rng = burst_rng(self.seed, i);
        let first = (i * BURST) as u64;
        self.burst.clear();
        self.burst
            .extend((first..first + BURST as u64).map(|r| request(&mut rng, r)));
    }

    fn op(&mut self, _i: usize, rec: &mut Recorder) -> Result<(), String> {
        let svc = self.svc.as_mut().expect("setup ran");
        for f in &self.burst {
            // A refusal is `Ok(Rejected)`: an outcome. `Err` is a fault
            // of the transport, which well-formed frames never meet.
            rec.span("serve.submit", || svc.submit_frame(f))
                .map_err(|e| e.to_string())?;
        }
        rec.span("serve.drain", || svc.drain())
            .map_err(|e| e.to_string())?;
        let answers = rec.span("serve.take_responses", || svc.take_responses());
        if answers.len() == BURST {
            Ok(())
        } else {
            Err(format!("{} answers to {BURST} requests", answers.len()))
        }
    }

    fn check_round(&mut self, _rec: &mut Recorder) -> RoundCheck {
        let check = self.facts();
        self.last_exact = Some(check.clone());
        check
    }

    /// Replays one round on a single thread: accept and reject digests,
    /// the virtual clock and every count must not depend on the thread
    /// count.
    fn final_check(&mut self) -> u64 {
        let Some(want) = self.last_exact.take() else {
            return 0;
        };
        let mut off = Recorder::new(false);
        let got = uvpu_par::with_threads(1, || {
            self.setup(&mut off);
            for i in 0..self.round_ops {
                self.prepare(i);
                if self.op(i, &mut off).is_err() {
                    return None;
                }
            }
            Some(self.facts())
        });
        if got.as_ref() == Some(&want) {
            0
        } else {
            eprintln!("serve_burst: single-thread replay differs: {got:?} vs {want:?}");
            self.round_ops as u64
        }
    }
}
