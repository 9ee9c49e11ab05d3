//! One benchmark run: one workload, one seed, untraced (the end-to-end
//! metrics) or traced (the per-layer metrics).

use crate::json::Value;
use crate::ladder::{self, Metrics};
use crate::names::{END_TO_END, EXACT, PER_LAYER};
use crate::span::Recorder;
use crate::stats::{median, ns_to_ms, percentile};
use crate::workloads::{build, run_loop, Budget, LoopResult, NAMES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where run files, traces and results go, relative to the checkout root.
pub const OUT_DIR: &str = "benchmark/out";

/// The arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A twentieth of every round and 2 probe calls instead of 30.
    pub smoke: bool,
}

/// What one run found.
#[derive(Debug)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` of every metric the run's mode declares.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else the run knows, written to the run file.
    pub detail: Value,
}

impl RunOutput {
    /// The one-line result the driver reads.
    #[must_use]
    pub fn result_line(&self) -> String {
        Value::obj([
            ("correct", Value::from(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Value::obj([("value", Value::from(value)), ("unit", Value::str(unit))]),
                    )
                })),
            ),
        ])
        .compact()
    }
}

/// Worker threads the benchmark runs the crates with: min(nproc, 4).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The path of the run file for a workload and mode.
#[must_use]
pub fn run_file(workload: &str, trace: bool) -> PathBuf {
    let mode = if trace { "traced" } else { "untraced" };
    Path::new(OUT_DIR).join(format!("run-{workload}-{mode}.json"))
}

fn provenance(args: &RunArgs, threads: usize, pinned: usize) -> Vec<(&'static str, Value)> {
    let env = |k: &str| Value::str(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    vec![
        ("workload", Value::str(&*args.workload)),
        ("seed", Value::from(args.seed)),
        ("seconds", Value::from(args.seconds)),
        ("trace", Value::from(args.trace)),
        ("smoke", Value::from(args.smoke)),
        (
            "nproc",
            Value::from(std::thread::available_parallelism().map_or(1, std::num::NonZero::get)),
        ),
        ("threads", Value::from(threads)),
        ("workload_threads", Value::from(pinned)),
        ("uvpu_par_max_threads", Value::from(uvpu_par::max_threads())),
        ("rustc", env("BENCH_RUSTC")),
        ("git_commit", env("BENCH_GIT_COMMIT")),
    ]
}

fn exact_json(exact: &BTreeMap<&'static str, f64>) -> Value {
    Value::obj(exact.iter().map(|(&k, &v)| (k, Value::from(v))))
}

fn loop_json(res: &LoopResult, round_ops: usize) -> Value {
    Value::obj([
        ("round_ops", Value::from(round_ops)),
        ("rounds", Value::from(res.round_ops_per_s.len())),
        ("op_samples", Value::from(res.op_ns.len())),
        ("setup_samples", Value::from(res.setup_s.len())),
        ("attempted", Value::from(res.attempted)),
        ("failed", Value::from(res.failed)),
        ("rounds_agree", Value::from(res.rounds_agree)),
    ])
}

/// Runs the benchmark once.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (one of {NAMES:?})",
            args.workload
        ));
    }
    let threads = default_threads();
    uvpu_par::set_thread_override(Some(threads));
    Ok(if args.trace {
        traced(args, threads)
    } else {
        untraced(args, threads)
    })
}

fn untraced(args: &RunArgs, threads: usize) -> RunOutput {
    let mut w = build(&args.workload, args.seed, args.smoke).expect("known workload");
    let setups = if args.smoke { 1 } else { 5 };
    let res = run_loop(
        w.as_mut(),
        threads,
        setups,
        Budget::Seconds(args.seconds),
        true,
        &mut Recorder::new(false),
    );
    let op_ms = ns_to_ms(&res.op_ns);
    // A refusal by an overloaded service is an outcome, not a failure, but
    // it is not useful work either: `ok_share` counts both.
    let useful = res
        .exact
        .get("serve.useful_ppm")
        .map_or(1.0, |ppm| ppm / 1e6);
    let ok_share = useful * (1.0 - res.failed as f64 / res.attempted as f64);
    // Per round, then the median over rounds: a burst of interference from
    // the host lands in one or two rounds and cannot move the median.
    let round_p95s: Vec<f64> = op_ms
        .chunks(w.round_ops())
        .map(|round| percentile(round, 95.0))
        .collect();
    let values = [
        median(&res.round_ops_per_s),
        median(&op_ms),
        median(&round_p95s),
        median(&res.setup_s),
        peak_rss_mb(),
        ok_share,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| (name, value, unit))
        .collect();
    let mut detail = provenance(args, threads, w.threads(threads));
    detail.push(("loop", loop_json(&res, w.round_ops())));
    detail.push(("exact", exact_json(&res.exact)));
    RunOutput {
        correct: res.failed == 0 && res.rounds_agree,
        attempted: res.attempted,
        failed: res.failed,
        metrics,
        detail: Value::obj(detail),
    }
}

/// Which per-layer metric each span of a workload's loop feeds.
fn span_metrics(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "ckks_8k" => &[
            ("ckks.mul", "ckks.mul_ms.n8192"),
            ("ckks.rescale", "ckks.rescale_ms.n8192"),
            ("ckks.rotate", "ckks.rotate_ms.n8192"),
            ("ckks.add", "ckks.add_ms.n8192"),
            ("ckks.mul_plain", "ckks.mul_plain_ms.n8192"),
            ("ckks.keygen", "ckks.keygen_ms"),
            ("ckks.encode", "ckks.encode_ms"),
            ("ckks.encrypt", "ckks.encrypt_ms"),
            ("ckks.decrypt", "ckks.decrypt_ms"),
            ("ckks.decode", "ckks.decode_ms"),
        ],
        "ckks_32k" => &[
            ("ckks.mul", "ckks.mul_ms.n32768"),
            ("ckks.rescale", "ckks.rescale_ms.n32768"),
            ("ckks.rotate", "ckks.rotate_ms.n32768"),
            ("ckks.add", "ckks.add_ms.n32768"),
            ("ckks.mul_plain", "ckks.mul_plain_ms.n32768"),
        ],
        "bfv_2k" => &[
            ("bfv.mul", "bfv.mul_ms"),
            ("bfv.mul_plain", "bfv.mul_plain_ms"),
            ("bfv.rotate_rows", "bfv.rotate_rows_ms"),
            ("bfv.add", "bfv.add_ms"),
            ("bfv.keygen", "bfv.keygen_ms"),
            ("bfv.encrypt", "bfv.encrypt_ms"),
            ("bfv.decrypt", "bfv.decrypt_ms"),
        ],
        "vpu_sim" => &[
            ("core.ntt_fwd", "core.ntt_fwd_ms.n65536"),
            ("core.ntt_inv", "core.ntt_inv_ms.n65536"),
            ("core.auto", "core.auto_ms.n65536"),
        ],
        "serve_burst" => &[
            ("serve.submit", "serve.submit_us"),
            ("serve.drain", "serve.drain_us"),
            ("serve.take_responses", "serve.take_responses_us"),
        ],
        _ => &[],
    }
}

/// Time covered by the direct children of the `op` spans ÷ time of the
/// `op` spans, in ppm: how much of an op the spans account for.
fn span_cover_ppm(rec: &Recorder) -> f64 {
    let spans = rec.spans();
    let (mut ops, mut children) = (0u64, 0u64);
    for s in spans {
        if s.name == "op" {
            ops += s.duration_ns();
        } else if s.parent.is_some_and(|p| spans[p].name == "op") {
            children += s.duration_ns();
        }
    }
    children as f64 / ops.max(1) as f64 * 1e6
}

fn traced(args: &RunArgs, threads: usize) -> RunOutput {
    let reps = if args.smoke { 2 } else { 30 };
    let mut m = Metrics::new();
    let (mut attempted, mut failed, mut agree) = (0u64, 0u64, true);
    let mut pinned = threads;
    let mut exact = BTreeMap::new();
    let mut loops = Vec::new();
    let mut tput = BTreeMap::new();

    // The named workload first, so that its first setup meets cold caches.
    let mut order = vec![args.workload.as_str()];
    order.extend(NAMES.iter().filter(|&&n| n != args.workload));
    for name in order {
        let mut w = build(name, args.seed, args.smoke).expect("known workload");
        let mut rec = Recorder::new(true);
        let pool_before = uvpu_math::pool::stats();
        let res = if name == args.workload {
            // The same rounds without and with spans, a fifth of a run's
            // measuring time together: the ratio is what tracing costs.
            let off = run_loop(
                w.as_mut(),
                threads,
                1,
                Budget::Seconds(args.seconds / 10.0),
                true,
                &mut Recorder::new(false),
            );
            let rounds = off.round_ops_per_s.len();
            let on = run_loop(
                w.as_mut(),
                threads,
                1,
                Budget::Rounds(rounds),
                false,
                &mut rec,
            );
            // Medians of op latency: the first ops of a pass meet cold
            // caches, which a ratio of whole-pass rates would count.
            let p50 = |res: &LoopResult| median(&ns_to_ms(&res.op_ns));
            m.insert("trace_overhead_ppm".into(), p50(&on) / p50(&off) * 1e6);
            m.insert("trace_span_cover_ppm".into(), span_cover_ppm(&rec));
            m.insert("setup_first_ms".into(), off.setup_s[0] * 1e3);
            attempted += off.attempted;
            failed += off.failed;
            agree &= off.rounds_agree && off.exact == on.exact;
            pinned = w.threads(threads);
            let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
            write_file(&path, &rec.to_json().pretty());
            on
        } else {
            run_loop(w.as_mut(), threads, 1, Budget::Rounds(1), false, &mut rec)
        };
        attempted += res.attempted;
        failed += res.failed;
        agree &= res.rounds_agree;
        for &(span, metric) in span_metrics(name) {
            let ns = rec.durations_ns(span);
            // `take_responses` takes about 50 ns, the grain of the clock:
            // its median reads the same from run to run, its mean does not.
            let typical = if span == "serve.take_responses" {
                ns.iter().sum::<f64>() / ns.len() as f64
            } else {
                median(&ns)
            };
            let unit = PER_LAYER.iter().find(|m| m.0 == metric).map(|m| m.1);
            let ns_per_unit = if unit == Some("us") { 1e3 } else { 1e6 };
            m.insert(metric.into(), typical / ns_per_unit);
        }
        match name {
            "ckks_8k" => {
                let pool = uvpu_math::pool::stats();
                let hits = (pool.hits - pool_before.hits) as f64;
                let misses = (pool.misses - pool_before.misses) as f64;
                m.insert("math.pool_hit_ppm".into(), hits / (hits + misses) * 1e6);
                let calls = rec
                    .spans()
                    .iter()
                    .filter(|s| s.parent.is_some_and(|p| rec.spans()[p].name == "op"))
                    .count();
                exact.insert("ckks.ops", calls as f64 / res.round_ops_per_s.len() as f64);
            }
            "ckks_32k" => {
                m.insert(
                    "math.allocs_per_op".into(),
                    res.op_allocs as f64 / res.op_ns.len() as f64,
                );
            }
            "vpu_sim" => {
                let cycles = res.exact["core.model_cycles"] * res.round_ops_per_s.len() as f64;
                m.insert(
                    "core.host_ns_per_cycle".into(),
                    res.op_ns.iter().sum::<u64>() as f64 / cycles,
                );
            }
            _ => {}
        }
        tput.insert(name, median(&res.round_ops_per_s));
        loops.push((name, loop_json(&res, w.round_ops())));
        exact.extend(res.exact);
    }

    // `par`: the same CKKS and BFV rounds on one thread.
    m.insert("par.threads".into(), threads as f64);
    let mut single = |name: &'static str, span: &str| {
        let mut w = build(name, args.seed, args.smoke).expect("known workload");
        let mut rec = Recorder::new(true);
        let res = run_loop(w.as_mut(), 1, 1, Budget::Rounds(1), false, &mut rec);
        attempted += res.attempted;
        failed += res.failed;
        (
            median(&res.round_ops_per_s),
            median(&rec.durations_ns(span)),
        )
    };
    let (ckks_rate, _) = single("ckks_8k", "ckks.mul");
    m.insert(
        "par.ckks_op_speedup_ppm".into(),
        tput["ckks_8k"] / ckks_rate * 1e6,
    );
    let (_, bfv_mul_ns) = single("bfv_2k", "bfv.mul");
    m.insert(
        "par.bfv_mul_speedup_ppm".into(),
        bfv_mul_ns / (m["bfv.mul_ms"] * 1e6) * 1e6,
    );

    uvpu_par::with_threads(threads, || {
        ladder::math(args.seed, reps, &mut m);
        ladder::rns_poly(args.seed, threads, reps, &mut m);
        ladder::bfv_ring(args.seed, reps, &mut m);
        ladder::core(args.seed, reps, args.smoke, &mut m);
        ladder::sinks(args.seed, reps, &mut m);
        ladder::accel(args.seed, reps, &mut m);
        ladder::wire(args.seed, reps, &mut m);
    });
    m.insert(
        "math.pool_bytes_peak".into(),
        uvpu_math::pool::stats().bytes_peak as f64,
    );

    for (&k, &v) in &exact {
        m.insert(k.into(), v);
    }
    for &k in EXACT {
        if let Some(&v) = m.get(k) {
            exact.insert(k, v);
        }
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = *m
                .get(name)
                .unwrap_or_else(|| panic!("declared metric `{name}` was not measured"));
            (name, value, unit)
        })
        .collect();
    let mut detail = provenance(args, threads, pinned);
    detail.push(("loops", Value::obj(loops)));
    detail.push(("exact", exact_json(&exact)));
    RunOutput {
        correct: failed == 0 && agree,
        attempted,
        failed,
        metrics,
        detail: Value::obj(detail),
    }
}

/// Writes `text` to `path`, creating the directory.
///
/// # Panics
///
/// Panics if the checkout is not writable: the benchmark cannot report
/// without its files.
pub fn write_file(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}
