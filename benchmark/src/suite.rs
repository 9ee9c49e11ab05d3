//! The whole benchmark in one command: every workload untraced, then
//! every workload traced, each in a process of its own (so that
//! `peak_rss_mb` belongs to one workload), `--sets K` times over.

use crate::json::Value;
use crate::names::END_TO_END;
use crate::run::{run_file, write_file, OUT_DIR};
use crate::stats::median;
use crate::workloads::NAMES;
use std::path::Path;
use std::process::{Command, Stdio};

/// The arguments of a suite.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub sets: usize,
}

/// One child run: its result line and its run file.
struct Child {
    result: Value,
    detail: Value,
}

fn spawn(args: &SuiteArgs, workload: &str, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (lines, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{lines}");
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            out.status
        ));
    }
    let result = Value::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let path = run_file(workload, trace);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let detail = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Child { result, detail })
}

/// Runs one set. Returns the set's results and the problems it found.
fn one_set(args: &SuiteArgs, problems: &mut Vec<String>) -> Result<Value, String> {
    let mut untraced = Vec::new();
    for w in NAMES {
        untraced.push(spawn(args, w, false)?);
    }
    let mut workloads = Vec::new();
    for (w, un) in NAMES.iter().zip(untraced) {
        let tr = spawn(args, w, true)?;
        for (run, child) in [("untraced", &un), ("traced", &tr)] {
            if child.result.get("correct") != Some(&Value::Bool(true)) {
                problems.push(format!("{w}: the {run} run failed its correctness checks"));
            }
        }
        // A deterministic fact must not depend on whether spans were on.
        let facts = |c: &Child| {
            c.detail
                .get("exact")
                .and_then(Value::as_obj)
                .map(<[_]>::to_vec)
        };
        for (name, value) in facts(&un).unwrap_or_default() {
            let other = tr.detail.get("exact").and_then(|e| e.get(&name));
            if other.is_some_and(|o| *o != value) {
                problems.push(format!(
                    "{w}: exact metric {name} is {} untraced and {} traced",
                    value.compact(),
                    other.map(Value::compact).unwrap_or_default()
                ));
            }
        }
        workloads.push((
            *w,
            Value::obj([
                (
                    "end_to_end",
                    un.result.get("metrics").cloned().unwrap_or(Value::Null),
                ),
                (
                    "per_layer",
                    tr.result.get("metrics").cloned().unwrap_or(Value::Null),
                ),
                ("untraced_run", un.detail),
                ("traced_run", tr.detail),
            ]),
        ));
    }
    Ok(Value::obj(workloads))
}

/// The regression bound `BENCHMARK.json` gives an end-to-end metric.
fn bound(benchmark: &Value, metric: &str) -> Option<f64> {
    benchmark
        .get("end_to_end")?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(metric))?
        .get("bound")?
        .as_f64()
}

/// Compares the sets: every end-to-end metric's spread against its bound,
/// every exact fact for identity.
fn repeatability(sets: &[Value], problems: &mut Vec<String>) -> Result<Value, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let benchmark = Value::parse(&text)?;
    let mut rows = Vec::new();
    for w in NAMES {
        let mut metrics = Vec::new();
        for &(name, unit, _) in END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| {
                    s.get(w)?
                        .get("end_to_end")?
                        .get(name)?
                        .get("value")?
                        .as_f64()
                })
                .collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, 0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let mid = median(&values);
            let spread = (hi - lo) / mid;
            let bound = bound(&benchmark, name).ok_or_else(|| format!("no bound for {name}"))?;
            println!(
                "{w} {name} min {lo} median {mid} max {hi} {unit} spread {:.2}% (bound {:.0}%)",
                spread * 100.0,
                bound * 100.0
            );
            if spread > bound {
                problems.push(format!(
                    "{w}: {name} spreads {:.2}% over {} sets, beyond its {:.0}% bound",
                    spread * 100.0,
                    sets.len(),
                    bound * 100.0
                ));
            }
            metrics.push((
                name,
                Value::obj([
                    ("min", Value::from(lo)),
                    ("median", Value::from(mid)),
                    ("max", Value::from(hi)),
                    ("spread", Value::from(spread)),
                    ("bound", Value::from(bound)),
                ]),
            ));
        }
        let exact = |s: &Value| s.get(w)?.get("traced_run")?.get("exact").cloned();
        if sets.iter().any(|s| exact(s) != exact(&sets[0])) {
            problems.push(format!("{w}: exact metrics differ between sets"));
        }
        rows.push((w, Value::obj(metrics)));
    }
    Ok(Value::obj(rows))
}

/// Runs the suite, printing every metric as `workload metric value unit`
/// and writing `results.json` (and `repeat.json` for more than one set).
/// Returns the process exit code.
#[must_use]
pub fn suite(args: &SuiteArgs) -> i32 {
    let mut problems = Vec::new();
    let mut sets = Vec::new();
    for set in 0..args.sets {
        println!("# set {} of {}, seed {}", set + 1, args.sets, args.seed);
        match one_set(args, &mut problems) {
            Ok(v) => sets.push(v),
            Err(e) => {
                eprintln!("benchmark: {e}");
                return 1;
            }
        }
    }
    let out = Path::new(OUT_DIR);
    write_file(
        &out.join("results.json"),
        &sets.last().expect("at least one set").pretty(),
    );
    if args.sets > 1 {
        match repeatability(&sets, &mut problems) {
            Ok(v) => write_file(&out.join("repeat.json"), &v.pretty()),
            Err(e) => problems.push(e),
        }
    }
    for p in &problems {
        eprintln!("benchmark: {p}");
    }
    i32::from(!problems.is_empty())
}

/// Per workload, the metric names a results file holds: `(end-to-end,
/// per-layer)`.
#[must_use]
pub fn names_in(results: &Value, workload: &str) -> Option<(Vec<String>, Vec<String>)> {
    let keys = |section: &str| -> Option<Vec<String>> {
        let obj = results.get(workload)?.get(section)?.as_obj()?;
        Some(obj.iter().map(|(k, _)| k.clone()).collect())
    };
    Some((keys("end_to_end")?, keys("per_layer")?))
}
