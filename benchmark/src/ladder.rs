//! The ladder probes of a traced run: the lower layers' public functions,
//! timed from outside at fixed shapes. Host numbers are medians over
//! `reps` calls; counts and modelled cycles are exact.

use crate::workloads::serve::{service_config, LOG2_NS};
use crate::workloads::vpu::{self, ppm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use uvpu_accel::batch::BatchScheduler;
use uvpu_accel::graph::bootstrap_graph;
use uvpu_accel::machine::Accelerator;
use uvpu_accel::recovery::RetryPolicy;
use uvpu_accel::workload::{premeasure, FheOp, ShapeMemo, Task};
use uvpu_bench::{batch_workload, measure_table3, PAPER_TABLE3};
use uvpu_ckks::params::{CkksContext, CkksParams};
use uvpu_ckks::rns_poly::RnsPoly;
use uvpu_compare::sink::CompareSink;
use uvpu_core::auto_map::AutomorphismMapping;
use uvpu_core::ntt_map::NttPlan;
use uvpu_core::trace::TraceSink;
use uvpu_core::vpu::Vpu;
use uvpu_fault::detect::standard_detectors;
use uvpu_fault::exec::FaultyExecutor;
use uvpu_fault::plan::FaultPlan;
use uvpu_math::kernel;
use uvpu_math::modular::{Modulus, ShoupMul};
use uvpu_math::ntt::NttTable;
use uvpu_metrics::treeprof::TreeProfilerSink;
use uvpu_serve::wire::{decode_frame, encode_request, op_code, WireOp};

/// Per-layer metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// Median nanoseconds of `reps` calls of `f`.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&samples)
}

fn random_residues(rng: &mut StdRng, n: usize, q: &Modulus) -> Vec<u64> {
    (0..n).map(|_| rng.gen_range(0..q.value())).collect()
}

/// `math`: `Modulus::mul` and `ShoupMul::mul_lazy` per element over a
/// 2^20 batch, and the NTT kernels at the scheme workloads' ring sizes.
pub fn math(seed: u64, reps: usize, out: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3a7);
    const BATCH: usize = 1 << 20;
    let q = vpu::modulus(1 << 13);
    let w = rng.gen_range(1..q.value());
    let mut batch = random_residues(&mut rng, BATCH, &q);
    let per_element = |ns: f64| ns / BATCH as f64;
    out.insert(
        "math.modmul_ns".into(),
        per_element(median_ns(reps, || {
            for x in &mut batch {
                *x = q.mul(*x, w);
            }
            black_box(&mut batch);
        })),
    );
    let shoup = ShoupMul::new(w, &q);
    out.insert(
        "math.shoup_lazy_ns".into(),
        per_element(median_ns(reps, || {
            for x in &mut batch {
                *x = shoup.mul_lazy(*x, &q);
            }
            black_box(&mut batch);
        })),
    );

    for n in [1usize << 11, 1 << 13, 1 << 15] {
        let q = vpu::modulus(n);
        let table = NttTable::new(q, n).expect("NTT table");
        let mut a = random_residues(&mut rng, n, &q);
        // Forward and inverse leave canonical residues, so each call's
        // output is a valid input of the next.
        out.insert(
            format!("math.ntt_fwd_ns.n{n}"),
            median_ns(reps, || kernel::forward_inplace(&table, black_box(&mut a))),
        );
        out.insert(
            format!("math.ntt_inv_ns.n{n}"),
            median_ns(reps, || kernel::inverse_inplace(&table, black_box(&mut a))),
        );
        if n == 1 << 15 {
            out.insert(
                format!("math.ntt_fwd_direct_ns.n{n}"),
                median_ns(reps, || {
                    kernel::forward_inplace_direct(&table, black_box(&mut a));
                }),
            );
            continue;
        }
        let b = random_residues(&mut rng, n, &q);
        let mut prod = vec![0u64; n];
        out.insert(
            format!("math.ntt_pointwise_intt_ns.n{n}"),
            median_ns(reps, || {
                kernel::ntt_pointwise_intt(&table, black_box(&a), &b, &mut prod);
            }),
        );
        if n == 1 << 11 {
            let (mut acc0, mut acc1) = (vec![0u64; n], vec![0u64; n]);
            out.insert(
                format!("math.ntt_accumulate_pair_ns.n{n}"),
                median_ns(reps, || {
                    kernel::ntt_accumulate_pair(
                        &table,
                        black_box(&a),
                        &b,
                        &prod,
                        &mut acc0,
                        &mut acc1,
                    );
                }),
            );
        }
    }
}

/// `ckks::RnsPoly` at n = 2^13 with 5 limbs under `threads`, and `par`'s
/// gain on `RnsPoly::mul` (time at 1 thread ÷ time at `threads`).
pub fn rns_poly(seed: u64, threads: usize, reps: usize, out: &mut Metrics) {
    let ctx = CkksContext::new(CkksParams::new(1 << 13, 4, 40).expect("CKKS parameters"))
        .expect("CKKS context");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7125);
    let mut sample = || RnsPoly::sample_uniform(&ctx, 4, &mut rng).expect("uniform sample");
    let (mut a, b) = (sample(), sample());
    let mut to_eval = Vec::new();
    let mut to_coeff = Vec::new();
    uvpu_par::with_threads(threads, || {
        out.insert(
            "ckks.rns_galois_ns".into(),
            median_ns(reps, || {
                black_box(a.galois(5).expect("odd exponent"));
            }),
        );
        out.insert(
            "ckks.rns_rescale_ns".into(),
            median_ns(reps, || {
                black_box(a.rescale(&ctx).expect("level 4"));
            }),
        );
        for _ in 0..reps {
            let t = Instant::now();
            let e = a.clone().to_evaluation(&ctx);
            to_eval.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            a = e.to_coefficient(&ctx);
            to_coeff.push(t.elapsed().as_nanos() as f64);
        }
    });
    out.insert("ckks.rns_to_eval_ns".into(), crate::stats::median(&to_eval));
    out.insert(
        "ckks.rns_to_coeff_ns".into(),
        crate::stats::median(&to_coeff),
    );
    let (ea, eb) = (a.to_evaluation(&ctx), b.to_evaluation(&ctx));
    let mul_ns = |t: usize| {
        uvpu_par::with_threads(t, || {
            median_ns(reps, || {
                black_box(ea.mul(&eb).expect("matching operands")).recycle();
            })
        })
    };
    let (one, many) = (mul_ns(1), mul_ns(threads));
    out.insert("ckks.rns_mul_ns".into(), many);
    out.insert("par.rns_mul_speedup_ppm".into(), one / many * 1e6);
}

/// `bfv::ring_mul_q` at the `bfv_2k` parameters.
pub fn bfv_ring(seed: u64, reps: usize, out: &mut Metrics) {
    use crate::workloads::bfv::{N, Q_BITS, T};
    let params =
        uvpu_bfv::params::BfvParams::with_plain_modulus(N, Q_BITS, T).expect("BFV parameters");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbf6);
    let a = random_residues(&mut rng, N, &params.modulus());
    let b = random_residues(&mut rng, N, &params.modulus());
    out.insert(
        "bfv.ring_mul_q_ns".into(),
        median_ns(reps, || {
            let prod = uvpu_bfv::cipher::ring_mul_q(&params, black_box(&a), &b).expect("ring mul");
            uvpu_math::pool::recycle(prod);
        }),
    );
}

/// `core` at the sizes below the `vpu_sim` shape, the plan build, and the
/// Table III sweep that states the simulator's error beside its speed.
pub fn core(seed: u64, reps: usize, smoke: bool, out: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc03e);
    for n in [1usize << 12, 1 << 14] {
        let q = vpu::modulus(n);
        let plan = NttPlan::new(q, n, vpu::LANES).expect("NTT plan");
        let mut sim = Vpu::new(vpu::LANES, q, vpu::DEPTH).expect("VPU");
        let data = random_residues(&mut rng, n, &q);
        let mut util = 0.0;
        out.insert(
            format!("core.ntt_fwd_ms.n{n}"),
            median_ns(reps, || {
                let run = plan
                    .execute_forward_negacyclic(&mut sim, black_box(&data))
                    .expect("simulated NTT");
                util = run.stats.utilization();
            }) / 1e6,
        );
        out.insert(format!("core.util_ppm.ntt.n{n}"), ppm(util) as f64);
        if n == 1 << 12 {
            let auto = AutomorphismMapping::new(n, vpu::LANES, 5, 0).expect("automorphism plan");
            out.insert(
                format!("core.auto_ms.n{n}"),
                median_ns(reps, || {
                    black_box(
                        auto.execute(&mut sim, &data)
                            .expect("simulated automorphism"),
                    );
                }) / 1e6,
            );
        }
    }
    let q = vpu::modulus(vpu::N);
    out.insert(
        "core.plan_build_ms.n65536".into(),
        median_ns(reps.min(10), || {
            black_box(NttPlan::new(q, vpu::N, vpu::LANES).expect("NTT plan"));
        }) / 1e6,
    );

    // Largest gap, over the paper's six Table III rows (2^10 … 2^20),
    // between measured and published NTT utilisation, in ppm of
    // utilisation. A smoke run stops at 2^16: the last two rows take a
    // second, and a smoke run's numbers are only there to be present.
    let rows = if smoke {
        &PAPER_TABLE3[..4]
    } else {
        &PAPER_TABLE3[..]
    };
    let sizes: Vec<u32> = rows.iter().map(|row| row.0).collect();
    let err = measure_table3(vpu::LANES, &sizes)
        .iter()
        .zip(rows)
        .map(|(got, paper)| (got.ntt_utilization - paper.1 / 100.0).abs())
        .fold(0.0, f64::max);
    out.insert("core.model_err_ppm".into(), ppm(err) as f64);
}

/// `metrics` and `compare`: the `vpu_sim` op with a `(TreeProfilerSink,
/// CompareSink::suite)` tee attached ÷ the bare op, and the renderers.
pub fn sinks(seed: u64, reps: usize, out: &mut Metrics) {
    let q = vpu::modulus(vpu::N);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x519c);
    let data = random_residues(&mut rng, vpu::N, &q);
    let plan = NttPlan::new(q, vpu::N, vpu::LANES).expect("NTT plan");
    let auto = AutomorphismMapping::new(vpu::N, vpu::LANES, 5, 0).expect("automorphism plan");
    let mut bare = Vpu::new(vpu::LANES, q, vpu::DEPTH).expect("VPU");
    let tee = (
        TreeProfilerSink::new(vpu::LANES),
        CompareSink::suite(vpu::LANES),
    );
    let mut teed = Vpu::with_sink(vpu::LANES, q, vpu::DEPTH, tee).expect("VPU with sinks");
    let reps = reps.min(10);
    let bare_ns = sim_op_ns(reps, &plan, &auto, &mut bare, &data);
    let teed_ns = sim_op_ns(reps, &plan, &auto, &mut teed, &data);
    out.insert("metrics.sink_overhead_ppm".into(), teed_ns / bare_ns * 1e6);
    let (tree, compare) = teed.into_sink();
    // Events per op, so the count does not depend on `reps`.
    out.insert(
        "metrics.events".into(),
        (tree.events_observed() / reps as u64) as f64,
    );
    out.insert(
        "metrics.render_ms".into(),
        median_ns(reps, || {
            black_box(uvpu_metrics::report::render(&tree, "vpu_sim", "benchmark"));
            black_box(uvpu_metrics::report::flamegraph(&tree));
        }) / 1e6,
    );
    out.insert(
        "compare.render_ms".into(),
        median_ns(reps, || {
            black_box(uvpu_compare::report::render(
                &compare,
                "vpu_sim",
                "benchmark",
            ));
        }) / 1e6,
    );
}

/// Median nanoseconds of the `vpu_sim` op on `sim`.
fn sim_op_ns<S: TraceSink>(
    reps: usize,
    plan: &NttPlan,
    auto: &AutomorphismMapping,
    sim: &mut Vpu<S>,
    data: &[u64],
) -> f64 {
    median_ns(reps, || {
        let fwd = plan
            .execute_forward_negacyclic(sim, data)
            .expect("simulated NTT");
        plan.execute_inverse_negacyclic(sim, &fwd.output)
            .expect("simulated inverse NTT");
        auto.execute(sim, data).expect("simulated automorphism");
    })
}

/// Every kernel shape `serve_burst` can ask for, lowered to tasks.
fn serve_tasks() -> Vec<Task> {
    LOG2_NS
        .iter()
        .flat_map(|&l| {
            let n = 1usize << l;
            [
                FheOp::HMult { n, limbs: 3 },
                FheOp::HAdd { n, limbs: 3 },
                FheOp::HRot { n, limbs: 3 },
                FheOp::Ntt { n },
            ]
        })
        .flat_map(|op| op.lower())
        .collect()
}

/// `accel` and `fault`: the schedulers on a warm shape memo over the
/// 480-request `batch_workload` trace, and the recovery path.
pub fn accel(seed: u64, reps: usize, out: &mut Metrics) {
    let cfg = batch_workload::config();
    let tasks = serve_tasks();
    out.insert(
        "accel.premeasure_ms".into(),
        median_ns(reps, || {
            black_box(premeasure(&tasks, cfg.lanes).expect("premeasure"));
        }) / 1e6,
    );

    let sched = BatchScheduler::new(cfg).expect("scheduler configuration");
    let requests = batch_workload::requests(480);
    let mut memo = ShapeMemo::new();
    let batched = sched.run(&requests, &mut memo).expect("batched run");
    let sequential = sched
        .run_sequential(&requests, &mut memo)
        .expect("sequential run");
    out.insert(
        "accel.batch_run_us".into(),
        median_ns(reps, || {
            black_box(sched.run(&requests, &mut memo).expect("batched run"));
        }) / 1e3,
    );
    out.insert(
        "accel.batch_seq_us".into(),
        median_ns(reps, || {
            black_box(
                sched
                    .run_sequential(&requests, &mut memo)
                    .expect("sequential run"),
            );
        }) / 1e3,
    );
    let hits = batched.report.memo_hits as f64;
    let saved: u64 = batched.waves.iter().map(|w| w.stream_bytes_saved).sum();
    for (name, value) in [
        ("accel.makespan_cycles", batched.report.makespan as f64),
        (
            "accel.makespan_seq_cycles",
            sequential.report.makespan as f64,
        ),
        ("accel.occupancy_ppm", batched.occupancy_ppm() as f64),
        ("accel.wave_fill_ppm", batched.wave_fill_ppm() as f64),
        (
            "accel.memo_hit_ppm",
            (hits / (hits + batched.report.memo_misses as f64) * 1e6).round(),
        ),
        ("accel.stream_bytes_saved", saved as f64),
    ] {
        out.insert(name.into(), value);
    }

    let mut machine = Accelerator::new(cfg).expect("accelerator configuration");
    let n = 1 << 12;
    let mut lowered = FheOp::HMult { n, limbs: 3 }.lower();
    lowered.extend(FheOp::HRot { n, limbs: 3 }.lower());
    let mut memo = ShapeMemo::new();
    machine
        .run_tasks_memoized(&lowered, &mut memo)
        .expect("task run");
    out.insert(
        "accel.run_tasks_us".into(),
        median_ns(reps, || {
            black_box(
                machine
                    .run_tasks_memoized(&lowered, &mut memo)
                    .expect("task run"),
            );
        }) / 1e3,
    );
    let graph = bootstrap_graph(n, 3, 3, 4);
    graph
        .schedule_memoized(&cfg, &mut memo)
        .expect("graph schedule");
    out.insert(
        "accel.graph_schedule_us".into(),
        median_ns(reps, || {
            black_box(
                graph
                    .schedule_memoized(&cfg, &mut memo)
                    .expect("graph schedule"),
            );
        }) / 1e3,
    );

    // Real kernels through the recovery scheduler. A zero-rate plan for
    // the batch; the `serve_burst` tenant's plan for the single NTT task.
    let fault = service_config(seed).fault_envs[&uvpu_bench::serve_workload::HOSTILE_TENANT];
    let executor = |rate_ppm: u32| {
        let plan = FaultPlan::new(fault.seed, fault.site, fault.kind, rate_ppm);
        FaultyExecutor::new(plan, 0, cfg.lanes, standard_detectors(fault.seed))
    };
    let policy = RetryPolicy::default();
    let few = batch_workload::requests(48);
    out.insert(
        "accel.recovery_run_ms".into(),
        median_ns(reps.min(10), || {
            black_box(
                sched
                    .run_with_recovery(&few, &mut executor(0), &policy)
                    .expect("recovery run"),
            );
        }) / 1e6,
    );
    let ntt = FheOp::Ntt { n }.lower();
    let retry = service_config(seed).retry;
    out.insert(
        "fault.exec_task_us".into(),
        median_ns(reps.min(10), || {
            // An unrecoverable task is an outcome here, as in the service.
            let _ = black_box(machine.run_tasks_with_recovery(
                &ntt,
                &mut executor(fault.rate_ppm),
                &retry,
            ));
        }) / 1e3,
    );
}

/// `serve`: the wire codec alone.
pub fn wire(seed: u64, reps: usize, out: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x317e);
    for log2_n in [8u8, 12] {
        let op = WireOp {
            code: op_code::HMULT,
            log2_n,
            limbs: 2,
            chain_index: 0,
            galois_elt: 2,
        };
        let n = op.n();
        let words: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 50)).collect();
        let encode = || encode_request(1, 7, &op, u64::MAX, 1, &words).expect("request encode");
        if log2_n == 12 {
            out.insert(
                format!("serve.encode_request_ns.n{n}"),
                median_ns(reps, || {
                    black_box(encode());
                }),
            );
        }
        let bytes = encode();
        out.insert(
            format!("serve.decode_frame_ns.n{n}"),
            median_ns(reps, || {
                black_box(decode_frame(black_box(&bytes)).expect("frame decode"));
            }),
        );
    }
}
