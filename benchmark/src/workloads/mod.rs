//! The five workloads and the closed loop that drives them.
//!
//! A workload generates its inputs from the seed once (load generation,
//! never timed), builds its state in [`Workload::setup`] (timed as
//! `setup_s`), and then runs *rounds*: a fixed number of ops on the same
//! inputs. Because a round is a fixed piece of work, everything the
//! modelled hardware reports about it (cycles, refusal counts, digests)
//! must repeat exactly from round to round and run to run; the time-box
//! only decides how many rounds are measured.

pub mod bfv;
pub mod ckks;
pub mod serve;
pub mod vpu;

use crate::span::Recorder;
use std::collections::BTreeMap;
use std::time::Instant;

/// What a round's correctness check found.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RoundCheck {
    /// Ops of the round whose output was wrong.
    pub failed_ops: u64,
    /// Deterministic facts about the round, keyed by per-layer metric
    /// name. They must be identical in every round and at every thread
    /// count.
    pub exact: BTreeMap<&'static str, f64>,
}

/// One benchmark workload. See the module docs for the life cycle.
pub trait Workload {
    fn name(&self) -> &'static str;

    /// Worker threads the workload runs under, given the host default.
    fn threads(&self, default: usize) -> usize {
        default
    }

    /// Ops per round.
    fn round_ops(&self) -> usize;

    /// Whether every round starts from a fresh [`Workload::setup`] (the
    /// service keeps a ledger that would otherwise grow with run length).
    fn fresh_state_per_round(&self) -> bool {
        false
    }

    /// Builds (or rebuilds) all state from the generated inputs.
    fn setup(&mut self, rec: &mut Recorder);

    /// Makes op `i`'s inputs ready, untimed: the client's own work
    /// between two requests.
    fn prepare(&mut self, _i: usize) {}

    /// Op `i` of the current round.
    ///
    /// # Errors
    ///
    /// The failing call's message; the op then counts as failed.
    fn op(&mut self, i: usize, rec: &mut Recorder) -> Result<(), String>;

    /// Checks the round just run, outside the timed spans.
    fn check_round(&mut self, rec: &mut Recorder) -> RoundCheck;

    /// A check too slow to repeat every round, run once after the rounds
    /// when the loop is asked to. Returns the number of failed ops it
    /// found.
    fn final_check(&mut self) -> u64 {
        0
    }
}

/// The names of the five workloads, in ladder order.
pub const NAMES: [&str; 5] = ["ckks_8k", "ckks_32k", "bfv_2k", "vpu_sim", "serve_burst"];

/// Builds the workload called `name`, generating its inputs from `seed`.
/// `smoke` shrinks every round to a twentieth.
#[must_use]
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    let scale = |ops: usize| if smoke { (ops / 20).max(3) } else { ops };
    Some(match name {
        "ckks_8k" => Box::new(ckks::Ckks::new(ckks::SHAPE_8K, seed, scale(60))),
        "ckks_32k" => Box::new(ckks::Ckks::new(ckks::SHAPE_32K, seed, scale(30))),
        "bfv_2k" => Box::new(bfv::Bfv::new(seed, scale(60))),
        "vpu_sim" => Box::new(vpu::VpuSim::new(seed, scale(30))),
        "serve_burst" => Box::new(serve::ServeBurst::new(seed, scale(800))),
        _ => return None,
    })
}

/// How long a loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole rounds until this many seconds have passed (at least one).
    Seconds(f64),
    /// Exactly this many rounds.
    Rounds(usize),
}

/// Everything one loop measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Host latency of every op, in nanoseconds.
    pub op_ns: Vec<u64>,
    /// Per round: ops ÷ the time its ops took.
    pub round_ops_per_s: Vec<f64>,
    /// Seconds of every `setup` call.
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Heap allocations made inside the ops (not setup, not checks).
    pub op_allocs: u64,
    /// The first round's exact facts.
    pub exact: BTreeMap<&'static str, f64>,
    /// Whether every later round reported the same exact facts.
    pub rounds_agree: bool,
}

fn timed_setup(w: &mut dyn Workload, rec: &mut Recorder, out: &mut Vec<f64>) {
    let t = Instant::now();
    rec.begin("setup");
    w.setup(rec);
    rec.end();
    out.push(t.elapsed().as_secs_f64());
}

/// Sets the workload up `setups` times, then runs rounds for `budget`
/// under the workload's thread count, checking every round, and at the
/// end runs the workload's final check if `final_check` asks for it.
pub fn run_loop(
    w: &mut dyn Workload,
    default_threads: usize,
    setups: usize,
    budget: Budget,
    final_check: bool,
    rec: &mut Recorder,
) -> LoopResult {
    let threads = w.threads(default_threads);
    uvpu_par::with_threads(threads, || {
        let mut res = LoopResult {
            rounds_agree: true,
            ..LoopResult::default()
        };
        for _ in 0..setups {
            timed_setup(w, rec, &mut res.setup_s);
        }
        let started = Instant::now();
        let mut round = 0usize;
        loop {
            let more = match budget {
                Budget::Seconds(s) => round == 0 || started.elapsed().as_secs_f64() < s,
                Budget::Rounds(r) => round < r,
            };
            if !more {
                break;
            }
            if round > 0 && w.fresh_state_per_round() {
                timed_setup(w, rec, &mut res.setup_s);
            }
            let ops = w.round_ops();
            let mut round_failed = 0u64;
            let first_op = res.op_ns.len();
            for i in 0..ops {
                w.prepare(i);
                rec.set_op((round * ops + i) as u64);
                let allocs = crate::alloc::allocations();
                let t = Instant::now();
                rec.begin("op");
                let outcome = w.op(i, rec);
                rec.end();
                res.op_ns.push(t.elapsed().as_nanos() as u64);
                res.op_allocs += crate::alloc::allocations() - allocs;
                if let Err(e) = outcome {
                    eprintln!("{}: op {i} of round {round} failed: {e}", w.name());
                    round_failed += 1;
                }
            }
            let busy_ns: u64 = res.op_ns[first_op..].iter().sum();
            res.round_ops_per_s
                .push(ops as f64 / (busy_ns as f64 / 1e9));
            let check = w.check_round(rec);
            round_failed += check.failed_ops;
            if round == 0 {
                res.exact = check.exact;
            } else if check.exact != res.exact {
                eprintln!(
                    "{}: round {round} disagrees with round 0: {:?} vs {:?}",
                    w.name(),
                    check.exact,
                    res.exact
                );
                res.rounds_agree = false;
                round_failed = ops as u64;
            }
            res.attempted += ops as u64;
            res.failed += round_failed.min(ops as u64);
            round += 1;
        }
        if final_check {
            res.failed = (res.failed + w.final_check()).min(res.attempted);
        }
        res
    })
}
