//! Runs the whole suite in `--smoke` mode and holds `BENCHMARK.json`, the
//! binary's metric tables and what the binary prints together.
//!
//! Build optimised (`cargo test --release --offline`): the workloads are
//! real FHE ops and take minutes unoptimised.

use std::path::Path;
use std::process::Command;
use uvpu_benchmark::json::Value;
use uvpu_benchmark::names::{END_TO_END, PER_LAYER};
use uvpu_benchmark::suite::names_in;
use uvpu_benchmark::workloads::NAMES;

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn declared(benchmark: &Value, section: &str) -> Vec<(String, String, String)> {
    let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
    benchmark
        .get(section)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

#[test]
fn smoke_suite_prints_exactly_the_declared_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_uvpu-benchmark"))
        .arg("--smoke")
        .current_dir(root)
        .env_remove("UVPU_THREADS")
        .status()
        .unwrap();
    assert!(status.success(), "the smoke suite failed: {status}");

    let read = |p: &str| Value::parse(&std::fs::read_to_string(root.join(p)).unwrap()).unwrap();
    let benchmark = read("BENCHMARK.json");
    let results = read("benchmark/out/results.json");

    // BENCHMARK.json declares what the binary's tables declare.
    let table = |t: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        t.iter()
            .map(|&(n, u, b)| (n.into(), u.into(), b.into()))
            .collect()
    };
    assert_eq!(declared(&benchmark, "end_to_end"), table(END_TO_END));
    assert_eq!(declared(&benchmark, "per_layer"), table(PER_LAYER));
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(workloads, NAMES);

    // The contract's limits.
    assert!((2..=8).contains(&NAMES.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut all: Vec<&str> = NAMES.to_vec();
    all.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.0));
    for name in &all {
        assert!(valid_name(name), "bad name `{name}`");
    }
    let count = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), count, "a name is used twice");
    assert!(END_TO_END.contains(&("setup_s", "s", "lower")));

    // Every workload prints every declared metric, and nothing else.
    let names = |t: &[(&str, &str, &str)]| t.iter().map(|m| m.0.to_string()).collect::<Vec<_>>();
    for w in NAMES {
        let (end_to_end, per_layer) = names_in(&results, w).unwrap();
        assert_eq!(end_to_end, names(END_TO_END), "{w}");
        assert_eq!(per_layer, names(PER_LAYER), "{w}");
    }
}
