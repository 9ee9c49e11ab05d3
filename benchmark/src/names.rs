//! The metrics this benchmark declares: the same names, units and
//! directions as `BENCHMARK.json` (a test holds the two together). Every
//! untraced run reports every end-to-end metric and every traced run
//! every per-layer metric, whatever the workload.

/// `(name, unit, better)`.
pub type Metric = (&'static str, &'static str, &'static str);

/// What a user of the system sees. All host clock; see README.md for why
/// the modelled-clock metrics sit in [`PER_LAYER`].
pub const END_TO_END: &[Metric] = &[
    ("ops_per_s", "op/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p95_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_share", "ratio", "higher"),
];

/// Single layers, measured at fixed shapes in every traced run. Layers
/// are the crates.
pub const PER_LAYER: &[Metric] = &[
    // math: modular arithmetic and the host NTT kernels.
    ("math.modmul_ns", "ns", "lower"),
    ("math.shoup_lazy_ns", "ns", "lower"),
    ("math.ntt_fwd_ns.n2048", "ns", "lower"),
    ("math.ntt_fwd_ns.n8192", "ns", "lower"),
    ("math.ntt_fwd_ns.n32768", "ns", "lower"),
    ("math.ntt_inv_ns.n2048", "ns", "lower"),
    ("math.ntt_inv_ns.n8192", "ns", "lower"),
    ("math.ntt_inv_ns.n32768", "ns", "lower"),
    ("math.ntt_fwd_direct_ns.n32768", "ns", "lower"),
    ("math.ntt_pointwise_intt_ns.n2048", "ns", "lower"),
    ("math.ntt_pointwise_intt_ns.n8192", "ns", "lower"),
    ("math.ntt_accumulate_pair_ns.n2048", "ns", "lower"),
    ("math.pool_hit_ppm", "ppm", "higher"),
    ("math.pool_bytes_peak", "bytes", "lower"),
    ("math.allocs_per_op", "count", "lower"),
    // par: the worker pool.
    ("par.threads", "count", "higher"),
    ("par.rns_mul_speedup_ppm", "ppm", "higher"),
    ("par.ckks_op_speedup_ppm", "ppm", "higher"),
    ("par.bfv_mul_speedup_ppm", "ppm", "higher"),
    // ckks: RnsPoly at n = 2^13 with 5 limbs, the op's Evaluator calls at
    // both workload shapes, the client calls at n = 2^13.
    ("ckks.rns_mul_ns", "ns", "lower"),
    ("ckks.rns_to_eval_ns", "ns", "lower"),
    ("ckks.rns_to_coeff_ns", "ns", "lower"),
    ("ckks.rns_galois_ns", "ns", "lower"),
    ("ckks.rns_rescale_ns", "ns", "lower"),
    ("ckks.mul_ms.n8192", "ms", "lower"),
    ("ckks.rescale_ms.n8192", "ms", "lower"),
    ("ckks.rotate_ms.n8192", "ms", "lower"),
    ("ckks.add_ms.n8192", "ms", "lower"),
    ("ckks.mul_plain_ms.n8192", "ms", "lower"),
    ("ckks.mul_ms.n32768", "ms", "lower"),
    ("ckks.rescale_ms.n32768", "ms", "lower"),
    ("ckks.rotate_ms.n32768", "ms", "lower"),
    ("ckks.add_ms.n32768", "ms", "lower"),
    ("ckks.mul_plain_ms.n32768", "ms", "lower"),
    ("ckks.keygen_ms", "ms", "lower"),
    ("ckks.encode_ms", "ms", "lower"),
    ("ckks.encrypt_ms", "ms", "lower"),
    ("ckks.decrypt_ms", "ms", "lower"),
    ("ckks.decode_ms", "ms", "lower"),
    ("ckks.ops", "count", "higher"),
    ("ckks.precision_bits.n8192", "bits", "higher"),
    ("ckks.precision_bits.n32768", "bits", "higher"),
    // bfv.
    ("bfv.mul_ms", "ms", "lower"),
    ("bfv.mul_plain_ms", "ms", "lower"),
    ("bfv.rotate_rows_ms", "ms", "lower"),
    ("bfv.add_ms", "ms", "lower"),
    ("bfv.ring_mul_q_ns", "ns", "lower"),
    ("bfv.keygen_ms", "ms", "lower"),
    ("bfv.encrypt_ms", "ms", "lower"),
    ("bfv.decrypt_ms", "ms", "lower"),
    ("bfv.noise_budget_bits", "bits", "higher"),
    // core: the VPU functional simulator, 64 lanes. Host time of the
    // simulator, then what the modelled hardware reports.
    ("core.ntt_fwd_ms.n4096", "ms", "lower"),
    ("core.ntt_fwd_ms.n16384", "ms", "lower"),
    ("core.ntt_fwd_ms.n65536", "ms", "lower"),
    ("core.ntt_inv_ms.n65536", "ms", "lower"),
    ("core.auto_ms.n4096", "ms", "lower"),
    ("core.auto_ms.n65536", "ms", "lower"),
    ("core.plan_build_ms.n65536", "ms", "lower"),
    ("core.host_ns_per_cycle", "ns", "lower"),
    ("core.cycles.ntt_fwd.n65536", "cycles", "lower"),
    ("core.cycles.auto.n65536", "cycles", "lower"),
    ("core.util_ppm.ntt.n4096", "ppm", "higher"),
    ("core.util_ppm.ntt.n16384", "ppm", "higher"),
    ("core.util_ppm.ntt.n65536", "ppm", "higher"),
    ("core.model_cycles", "cycles", "lower"),
    ("core.model_err_ppm", "ppm", "lower"),
    // metrics, compare: the sinks.
    ("metrics.sink_overhead_ppm", "ppm", "lower"),
    ("metrics.events", "count", "lower"),
    ("metrics.render_ms", "ms", "lower"),
    ("compare.render_ms", "ms", "lower"),
    // accel: the schedulers on the modelled accelerator.
    ("accel.premeasure_ms", "ms", "lower"),
    ("accel.batch_run_us", "us", "lower"),
    ("accel.batch_seq_us", "us", "lower"),
    ("accel.run_tasks_us", "us", "lower"),
    ("accel.graph_schedule_us", "us", "lower"),
    ("accel.recovery_run_ms", "ms", "lower"),
    ("accel.makespan_cycles", "cycles", "lower"),
    ("accel.makespan_seq_cycles", "cycles", "lower"),
    ("accel.occupancy_ppm", "ppm", "higher"),
    ("accel.wave_fill_ppm", "ppm", "higher"),
    ("accel.memo_hit_ppm", "ppm", "higher"),
    ("accel.stream_bytes_saved", "bytes", "higher"),
    // fault.
    ("fault.exec_task_us", "us", "lower"),
    ("fault.detector_trips", "count", "lower"),
    ("fault.unrecoverable", "count", "lower"),
    // serve: the wire codec, the spans of a burst, one round's ledger.
    ("serve.encode_request_ns.n4096", "ns", "lower"),
    ("serve.decode_frame_ns.n256", "ns", "lower"),
    ("serve.decode_frame_ns.n4096", "ns", "lower"),
    ("serve.submit_us", "us", "lower"),
    ("serve.drain_us", "us", "lower"),
    ("serve.take_responses_us", "us", "lower"),
    ("serve.accepted", "count", "higher"),
    ("serve.completed_ok", "count", "higher"),
    ("serve.rejected.queue_full", "count", "lower"),
    ("serve.rejected.quota_exceeded", "count", "lower"),
    ("serve.rejected.deadline", "count", "lower"),
    ("serve.rejected.circuit_open", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.breaker_trips", "count", "lower"),
    ("serve.useful_ppm", "ppm", "higher"),
    ("serve.model_cycles", "cycles", "lower"),
    ("serve.model_util_ppm", "ppm", "higher"),
    ("serve.model_p99_cycles", "cycles", "lower"),
    // The benchmark itself, for the workload the run names.
    ("trace_overhead_ppm", "ppm", "lower"),
    ("trace_span_cover_ppm", "ppm", "higher"),
    ("setup_first_ms", "ms", "lower"),
];

/// Per-layer metrics that are facts about the modelled hardware or exact
/// counts: at a fixed seed they repeat exactly, at any thread count.
/// (`metrics.events` is not among them: the parallel paths charge their
/// beats analytically, so a sink sees fewer events at more threads.)
pub const EXACT: &[&str] = &[
    "ckks.ops",
    "ckks.precision_bits.n8192",
    "ckks.precision_bits.n32768",
    "bfv.noise_budget_bits",
    "core.cycles.ntt_fwd.n65536",
    "core.cycles.auto.n65536",
    "core.util_ppm.ntt.n4096",
    "core.util_ppm.ntt.n16384",
    "core.util_ppm.ntt.n65536",
    "core.model_cycles",
    "core.model_err_ppm",
    "accel.makespan_cycles",
    "accel.makespan_seq_cycles",
    "accel.occupancy_ppm",
    "accel.wave_fill_ppm",
    "accel.memo_hit_ppm",
    "accel.stream_bytes_saved",
    "fault.detector_trips",
    "fault.unrecoverable",
    "serve.accepted",
    "serve.completed_ok",
    "serve.rejected.queue_full",
    "serve.rejected.quota_exceeded",
    "serve.rejected.deadline",
    "serve.rejected.circuit_open",
    "serve.shed",
    "serve.breaker_trips",
    "serve.useful_ppm",
    "serve.model_cycles",
    "serve.model_util_ppm",
    "serve.model_p99_cycles",
    // Facts the rounds also compare that are not declared metrics.
    "serve.accept_digest52",
    "serve.reject_digest52",
];
