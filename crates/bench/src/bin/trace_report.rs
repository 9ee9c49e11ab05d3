//! End-to-end demonstration of the `uvpu-trace` layer: runs a paper
//! workload with every sink attached, writes a Chrome trace-event /
//! Perfetto JSON file — including cumulative per-component **energy
//! counter tracks** (`ph: 'C'`) plotted next to the spans that spent
//! the energy — prints a per-phase utilization breakdown plus the
//! ring-buffer tail's per-kind drop windows, and asserts that the cycle
//! totals reconstructed purely from trace events are bit-identical to
//! the VPU's own [`CycleStats`] accounting.
//!
//! Usage: `cargo run --release --bin trace_report -- [--threads N] [--json PATH] [OUTPUT.json]`
//! (default output: `uvpu_trace.json`; open it in `ui.perfetto.dev` or
//! `chrome://tracing`).
//!
//! `--json PATH` additionally writes the per-phase breakdown as
//! machine-readable JSON, in the same per-phase object shape as the
//! `metrics_report` snapshot (see [`uvpu_metrics::snapshot`]), so
//! downstream tooling parses one schema for both reports.
//!
//! `--threads N` pins the `uvpu-par` host worker pool to `N` threads
//! (overriding `UVPU_THREADS` and the detected core count). Results are
//! bit-identical for any thread count; only the wall-clock changes.

use uvpu_accel::config::AcceleratorConfig;
use uvpu_accel::machine::Accelerator;
use uvpu_accel::workload::FheOp;
use uvpu_core::auto_map::AutomorphismMapping;
use uvpu_core::ntt_map::NttPlan;
use uvpu_core::stats::CycleStats;
use uvpu_core::trace::{self, CounterSink, RingBufferSink, SyncSink};
use uvpu_core::vpu::Vpu;
use uvpu_math::modular::Modulus;
use uvpu_math::primes::ntt_prime;
use uvpu_metrics::timeline::EnergyTimelineSink;

/// Track id for the cycle-level VPU, clear of the accelerator's
/// scheduler slots (0..vpu_count) and [`trace::SCHEME_TRACK`].
const VPU_TRACK: u32 = 10;
/// Track id of the energy counter samples in the Perfetto export.
const ENERGY_TRACK: u32 = 50;
/// Capacity of the demonstration ring-buffer tail — deliberately small
/// so the reference workload overflows it and the per-kind
/// `dropped_since_last_read` windows show real numbers.
const RING_CAPACITY: usize = 4096;

fn breakdown_row(name: &str, stats: &CycleStats) -> String {
    let util = if stats.total() == 0 {
        // The empty-phase convention: utilization() would report 1.0
        // (nothing wasted), but a report distinguishes "no VPU beats"
        // (logical span) from "perfect".
        "n/a".to_string()
    } else {
        format!("{:.2}%", 100.0 * stats.utilization())
    };
    format!(
        "  {:<28} {:>10} {:>10} {:>10} {:>10} {:>8}",
        name,
        stats.butterfly,
        stats.elementwise,
        stats.network_move,
        stats.total(),
        util
    )
}

fn main() {
    let mut out_path = "uvpu_trace.json".to_string();
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let t: usize = args
                    .next()
                    .expect("--threads needs a value")
                    .parse()
                    .expect("--threads takes a positive integer");
                uvpu_par::set_thread_override(Some(t));
            }
            "--json" => json_path = Some(args.next().expect("--json needs a path")),
            other => out_path = other.to_string(),
        }
    }
    let m = 64usize;
    let log_n = 12u32;
    let n = 1usize << log_n;

    // One sink trio shared by the cycle-level VPU (as its inline sink)
    // and by the scheme/scheduler layers (as the global sink): the
    // counters check consistency, the ring buffer keeps a bounded event
    // tail (demonstrating the per-kind drop accounting), and the energy
    // timeline wraps the Perfetto exporter with cumulative
    // per-component pJ counter tracks. The sync install propagates the
    // sink into `uvpu-par` pool workers, so spans emitted off the main
    // thread are captured too.
    let shared = SyncSink::new((
        (CounterSink::new(), RingBufferSink::new(RING_CAPACITY)),
        EnergyTimelineSink::new(m, ENERGY_TRACK),
    ));
    trace::install_global_sync(shared.clone());

    // --- Workload 1: negacyclic NTT + automorphism on one VPU ---------
    let q = Modulus::new(ntt_prime(50, n).expect("prime")).expect("modulus");
    let plan = NttPlan::new(q, n, m).expect("plan");
    let mut vpu = Vpu::with_sink(m, q, 8, shared.clone()).expect("vpu");
    vpu.set_track(VPU_TRACK);
    let data: Vec<u64> = (0..n as u64).collect();
    let ntt = plan
        .execute_forward_negacyclic(&mut vpu, &data)
        .expect("ntt run");
    let auto = AutomorphismMapping::new(n, m, 5, 0)
        .expect("auto plan")
        .execute(&mut vpu, &data)
        .expect("auto run");

    // --- Workload 2: HMult + HRot batch on the multi-VPU accelerator --
    let mut accel = Accelerator::new(AcceleratorConfig::default()).expect("accel");
    let report = accel
        .run(&[
            FheOp::HMult { n, limbs: 3 },
            FheOp::HRot { n, limbs: 3 },
            FheOp::Ntt { n },
            FheOp::Automorphism { n },
        ])
        .expect("accel run");

    // --- Workload 3: scheme-level spans from a CKKS multiply ----------
    {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use uvpu_ckks::encoder::{Encoder, C64};
        use uvpu_ckks::keys::KeyGenerator;
        use uvpu_ckks::ops::Evaluator;
        use uvpu_ckks::params::{CkksContext, CkksParams};

        let ctx =
            CkksContext::new(CkksParams::new(1 << 6, 3, 40).expect("params")).expect("context");
        let enc = Encoder::new(&ctx);
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(1));
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk).expect("pk");
        let rlk = kg.relin_key(&sk).expect("rlk");
        let eval = Evaluator::new(&ctx);
        let mut rng = StdRng::seed_from_u64(2);
        let x: Vec<C64> = (0..32).map(|j| C64::from(1.0 + j as f64 * 0.01)).collect();
        let ct = eval
            .encrypt(&pk, &enc.encode(&ctx, 3, &x).expect("encode"), &mut rng)
            .expect("encrypt");
        let _ = eval
            .rescale(&eval.mul(&ct, &ct, &rlk).expect("mul"))
            .expect("rescale");
    }

    trace::take_global_sync();
    let vpu_stats = *vpu.stats();

    // --- Consistency: trace-derived totals vs the VPU's own counters --
    let (traced, butterfly, loads, stores) = shared.with(|((counter, _), _)| {
        (
            *counter.running(),
            counter.butterfly_beats(),
            counter.reg_loads(),
            counter.reg_stores(),
        )
    });
    assert_eq!(
        traced, vpu_stats,
        "trace-derived cycle totals must be bit-identical to CycleStats"
    );
    assert_eq!(butterfly, vpu_stats.butterfly);

    println!("uvpu-trace report — m = {m} lanes, N = 2^{log_n}");
    println!();
    println!(
        "single-VPU: NTT {} cycles ({:.2}% utilized), automorphism {} cycles ({:.2}% utilized)",
        ntt.stats.total(),
        100.0 * ntt.stats.utilization(),
        auto.stats.total(),
        100.0 * auto.utilization()
    );
    println!("{report}");

    println!(
        "phase breakdown (cycles attributed by trace spans; n/a = logical span, no VPU beats):"
    );
    println!(
        "  {:<28} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "phase", "butterfly", "ewise", "move", "total", "util"
    );
    shared.with(|((counter, _), _)| {
        for (name, stats) in counter.phases() {
            println!("{}", breakdown_row(name, stats));
        }
    });
    println!("  register file: {loads} loads, {stores} stores (not cycle-charged)");
    println!();
    println!(
        "consistency: trace-derived totals == CycleStats totals ({} cycles) — OK",
        traced.total()
    );

    // --- Ring-buffer tail: bounded retention with drop accounting -----
    let (kept, drop_beats, drop_mems, drop_spans) = shared.with(|((_, ring), _)| {
        let (beats, mems, spans) = ring.dropped_since_last_read_by_kind();
        let kept = ring.events().len();
        ring.mark_read();
        (kept, beats, mems, spans)
    });
    println!(
        "ring buffer: kept last {kept}/{RING_CAPACITY} events; dropped since last read: \
         {drop_beats} beats, {drop_mems} mems, {drop_spans} spans"
    );

    // --- Perfetto export (with energy counter tracks) -----------------
    let (json, events, samples, energy_pj) = shared.with(|(_, timeline)| {
        let samples = timeline.sample_count();
        let energy_pj = timeline.energy_total_pj();
        let json = timeline.to_json();
        (json, timeline.event_count(), samples, energy_pj)
    });
    assert!(
        json.starts_with("{\"displayTimeUnit\"") && json.ends_with("]}"),
        "exporter must emit a Chrome trace-event JSON object"
    );
    std::fs::write(&out_path, &json).expect("write trace file");
    println!(
        "perfetto: wrote {events} events ({} bytes) to {out_path} — open in ui.perfetto.dev",
        json.len()
    );
    println!(
        "energy: {samples} counter samples on track {ENERGY_TRACK} \
         (cumulative per-component pJ; total {energy_pj:.1} pJ)"
    );

    // --- Machine-readable phase breakdown (shared snapshot schema) ---
    if let Some(path) = json_path {
        let phases = shared
            .with(|((counter, _), _)| uvpu_metrics::snapshot::phases_to_json(counter.phases(), 2));
        let doc = format!(
            "{{\n  \"schema\": \"{}\",\n  \"workload\": \"trace_report\",\n  \"phases\": {phases}\n}}\n",
            uvpu_metrics::snapshot::SCHEMA
        );
        std::fs::write(&path, &doc).expect("write phase json");
        println!("phases: wrote {} bytes to {path}", doc.len());
    }
}
