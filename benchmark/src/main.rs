//! `uvpu-benchmark`: see `benchmark/README.md`.
//!
//! With `--workload` it is one run, as the driver starts it:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`. Without, it
//! is the whole suite: `[--seed N] [--seconds S] [--smoke] [--sets K]`.

use uvpu_benchmark::alloc::CountingAlloc;
use uvpu_benchmark::run::{run, run_file, write_file, RunArgs};
use uvpu_benchmark::suite::{suite, SuiteArgs};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Seconds one run measures for when the command line gives none; the
/// same as `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 17.0;

fn usage(problem: &str) -> ! {
    eprintln!("benchmark: {problem}");
    eprintln!(
        "usage: uvpu-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      uvpu-benchmark [--seed <n>] [--seconds <s>] [--smoke] [--sets <k>]"
    );
    std::process::exit(2);
}

fn main() {
    // The benchmark sets the thread count itself; an inherited setting
    // would silently change what `par` does underneath the override.
    if std::env::var_os("UVPU_THREADS").is_some() {
        usage("UVPU_THREADS is set; unset it (the benchmark chooses min(nproc, 4) threads)");
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke, mut sets) =
        (None, 1u64, None, false, false, 1usize);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        let bad = |v: &str| -> ! { usage(&format!("bad value `{v}` for {flag}")) };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                let v = value();
                seed = v.parse().unwrap_or_else(|_| bad(&v));
            }
            "--seconds" => {
                let v = value();
                match v.parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                    _ => bad(&v),
                }
            }
            "--trace" => {
                let v = value();
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(&v),
                };
            }
            "--sets" => {
                let v = value();
                match v.parse::<usize>() {
                    Ok(k) if k >= 1 => sets = k,
                    _ => bad(&v),
                }
            }
            "--smoke" => smoke = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let seconds = seconds.unwrap_or(if smoke { 0.3 } else { RUN_SECONDS });

    let Some(workload) = workload else {
        std::process::exit(suite(&SuiteArgs {
            seed,
            seconds,
            smoke,
            sets,
        }));
    };
    let args = RunArgs {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    };
    let out = run(&args).unwrap_or_else(|e| usage(&e));
    write_file(&run_file(&args.workload, trace), &out.detail.pretty());
    for &(name, value, unit) in &out.metrics {
        println!("{} {name} {value} {unit}", args.workload);
    }
    println!("{}", out.result_line());
}
