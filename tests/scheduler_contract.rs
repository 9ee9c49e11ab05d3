//! Scheduler contract: every public scheduling entry point of
//! `uvpu-accel` is pinned, scenario by scenario, to two FNV-1a digests —
//! one over the fields of the report it returns, one over the complete
//! span stream it emits into a thread-local global `RingBufferSink`.
//!
//! The digests are recorded constants. A change to how the schedulers
//! are written must leave every one of them unchanged; a change to what
//! they compute must update the constant in the same commit and say
//! why.
//!
//! Two report fields are left out on the executor-driven batch paths
//! (`BatchScheduler::run_with_recovery` and
//! `run_sequential_with_recovery`): `RequestSlice::compute_cycles` and
//! the memo hit/miss counters. Their rules are pinned by unit tests in
//! `crates/accel/src/batch.rs` instead.

use uvpu::accel::batch::{BatchReport, BatchRequest, BatchScheduler};
use uvpu::accel::config::AcceleratorConfig;
use uvpu::accel::graph::bootstrap_graph;
use uvpu::accel::machine::{AccelReport, Accelerator};
use uvpu::accel::recovery::{RecoveryReport, RetryPolicy, TaskAttempt, TaskExecutor};
use uvpu::accel::workload::{premeasure, FheOp, ShapeMemo, Task, TaskKind};
use uvpu::accel::AccelError;
use uvpu::vpu::stats::CycleStats;
use uvpu::vpu::trace::{self, RingBufferSink, SharedSink};

/// FNV-1a 64 over little-endian words and raw strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn words(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
    }

    fn usizes(&mut self, vs: &[usize]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v as u64);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Runs `f` under a fresh thread-local global span sink and returns its
/// result with the digest of every event the sink recorded.
fn traced<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let shared = SharedSink::new(RingBufferSink::new(1 << 16));
    trace::install_global(Box::new(shared.clone()));
    let out = f();
    trace::take_global();
    let digest = shared.with(|s| {
        assert_eq!(s.dropped(), 0, "span stream must be captured whole");
        let mut h = Fnv::new();
        h.u64(s.events().len() as u64);
        for e in s.events() {
            h.str(&format!("{e:?}"));
        }
        h.0
    });
    (out, digest)
}

fn stats(h: &mut Fnv, s: &CycleStats) {
    h.u64(s.butterfly);
    h.u64(s.elementwise);
    h.u64(s.network_move);
}

/// The machine report; `memo` selects whether the hit/miss counters
/// belong to the pinned contract of the scenario.
fn accel_report(h: &mut Fnv, r: &AccelReport, memo: bool) {
    h.u64(r.makespan);
    h.words(&r.vpu_busy);
    stats(h, &r.vpu_stats);
    h.u64(r.noc_cycles);
    h.u64(r.sram_traffic_bytes);
    h.u64(r.task_count as u64);
    if memo {
        h.u64(r.memo_hits);
        h.u64(r.memo_misses);
    }
}

fn recovery_report(r: &RecoveryReport) -> u64 {
    let mut h = Fnv::new();
    accel_report(&mut h, &r.report, true);
    h.u64(r.attempts);
    h.u64(r.retries);
    h.u64(r.detected_faults);
    h.u64(r.recovered_tasks);
    h.usizes(&r.quarantined_slots);
    h.u64(r.backoff_cycles);
    h.u64(r.check_cycles);
    h.words(&r.task_digests);
    h.0
}

/// The batch report; `model` is true on the memo-priced paths, where
/// per-request compute and the memo counters are part of the contract.
fn batch_report(r: &BatchReport, model: bool) -> u64 {
    let mut h = Fnv::new();
    accel_report(&mut h, &r.report, model);
    h.u64(r.per_request.len() as u64);
    for s in &r.per_request {
        h.u64(s.id);
        h.u64(s.task_count as u64);
        if model {
            h.u64(s.compute_cycles);
        }
        h.u64(s.finish);
        h.words(&s.task_digests);
    }
    h.u64(r.waves.len() as u64);
    for w in &r.waves {
        h.str(&w.kind.name());
        h.u64(w.n as u64);
        h.u64(w.tasks as u64);
        h.u64(w.slots_used as u64);
        h.u64(w.start);
        h.u64(w.end);
        h.u64(w.stream_bytes_saved);
    }
    h.u64(r.busy_lane_cycles);
    h.u64(r.total_lane_cycles);
    h.u64(r.retries);
    h.u64(r.detected_faults);
    h.usizes(&r.quarantined_slots);
    h.0
}

fn error(e: &AccelError) -> u64 {
    let mut h = Fnv::new();
    h.str(&format!("{e:?}"));
    h.0
}

fn config(vpus: usize) -> AcceleratorConfig {
    AcceleratorConfig {
        vpu_count: vpus,
        ..AcceleratorConfig::default()
    }
}

/// The scheduler op mix of the profiled reference workload.
fn stack_ops() -> [FheOp; 4] {
    let n = 1 << 10;
    [
        FheOp::HMult { n, limbs: 3 },
        FheOp::HRot { n, limbs: 3 },
        FheOp::Ntt { n },
        FheOp::Automorphism { n },
    ]
}

/// Independent requests plus one DAG-carrying request.
fn batch_mix() -> Vec<BatchRequest> {
    let n = 1 << 10;
    vec![
        BatchRequest::from_op(10, FheOp::HMult { n, limbs: 2 }),
        BatchRequest::from_op(11, FheOp::HRot { n, limbs: 1 }),
        BatchRequest::new(12, bootstrap_graph(n, 2, 2, 2)),
        BatchRequest::from_op(13, FheOp::Ntt { n: 2 * n }),
        BatchRequest::from_op(14, FheOp::HAdd { n, limbs: 3 }),
        BatchRequest::from_op(15, FheOp::HMult { n, limbs: 1 }),
    ]
}

/// Scripted executor: a fixed per-kind cost, a digest of what ran
/// where, and a detection verdict from `faulty(call, slot, attempt)`.
struct Scripted<F: FnMut(u64, usize, u32) -> bool> {
    faulty: F,
    calls: u64,
}

impl<F: FnMut(u64, usize, u32) -> bool> TaskExecutor for Scripted<F> {
    fn execute(
        &mut self,
        task: &Task,
        slot: usize,
        attempt: u32,
    ) -> Result<TaskAttempt, AccelError> {
        let call = self.calls;
        self.calls += 1;
        let detected = (self.faulty)(call, slot, attempt);
        let cols = (task.n / 64) as u64;
        let mut stats = CycleStats::new();
        match task.kind {
            TaskKind::Ntt => stats.butterfly = 5 * cols,
            TaskKind::Automorphism => stats.network_move = 2 * cols,
            TaskKind::Elementwise { passes } => stats.elementwise = passes as u64 * cols,
        }
        let mut h = Fnv::new();
        h.str(&task.kind.name());
        h.u64(task.n as u64);
        h.u64(u64::from(detected));
        Ok(TaskAttempt {
            stats,
            digest: h.0,
            check_cycles: 3,
            detected,
        })
    }
}

fn scripted<F: FnMut(u64, usize, u32) -> bool>(faulty: F) -> Scripted<F> {
    Scripted { faulty, calls: 0 }
}

fn recovery_tasks() -> Vec<Task> {
    let mut tasks = FheOp::HMult {
        n: 1 << 10,
        limbs: 2,
    }
    .lower();
    tasks.extend(
        FheOp::HRot {
            n: 1 << 9,
            limbs: 1,
        }
        .lower(),
    );
    tasks
}

#[test]
fn accelerator_run_over_the_stack_mix() {
    let (r, spans) = traced(|| {
        Accelerator::new(AcceleratorConfig::default())
            .unwrap()
            .run(&stack_ops())
            .unwrap()
    });
    let mut h = Fnv::new();
    accel_report(&mut h, &r, true);
    assert_eq!((h.0, spans), (0x88c5_f5b3_388b_0120, 0x30ae_54f8_344a_ac34));
}

#[test]
fn run_tasks_memoized_replays_first_seen_accounting_on_a_seeded_memo() {
    let tasks: Vec<Task> = stack_ops().iter().flat_map(FheOp::lower).collect();
    let mut memo: ShapeMemo = premeasure(&tasks[..4], 64).unwrap();
    let (r, spans) = traced(|| {
        Accelerator::new(config(3))
            .unwrap()
            .run_tasks_memoized(&tasks, &mut memo)
            .unwrap()
    });
    let mut h = Fnv::new();
    accel_report(&mut h, &r, true);
    assert_eq!((h.0, spans), (0xf6c3_3020_3dce_2417, 0xb661_ea73_ccfa_ed58));
}

#[test]
fn graph_schedule_of_the_bootstrap_graph() {
    let g = bootstrap_graph(1 << 10, 2, 3, 4);
    let mut got = Vec::new();
    for vpus in [1, 4, 64] {
        let (r, spans) = traced(|| g.schedule(&config(vpus)).unwrap());
        let mut h = Fnv::new();
        accel_report(&mut h, &r, true);
        got.push((vpus, h.0, spans));
    }
    assert_eq!(
        got,
        vec![
            (1, 0x68b5_70be_37aa_ceed, 0xa45d_2c06_aef5_5211),
            (4, 0x2ad5_7a78_e1ea_5c68, 0x3086_4bc8_5ae0_2f8b),
            (64, 0x039f_099e_9855_35fc, 0x3891_c8f6_da8a_2305),
        ]
    );
}

#[test]
fn recovery_with_a_transient_retry() {
    let policy = RetryPolicy {
        max_retries: 3,
        backoff_cycles: 8,
        quarantine_threshold: 3,
    };
    let mut exec = scripted(|call, _, attempt| attempt == 0 && call % 4 == 1);
    let (r, spans) = traced(|| {
        Accelerator::new(config(3))
            .unwrap()
            .run_tasks_with_recovery(&recovery_tasks(), &mut exec, &policy)
            .unwrap()
    });
    assert!(r.retries > 0);
    assert_eq!(
        (recovery_report(&r), spans),
        (0xf35d_e848_b228_269e, 0x5d09_8c31_1fd9_3ac3)
    );
}

#[test]
fn recovery_with_quarantine_and_remap() {
    let policy = RetryPolicy {
        max_retries: 3,
        backoff_cycles: 5,
        quarantine_threshold: 2,
    };
    let mut exec = scripted(|_, slot, _| slot == 1);
    let (r, spans) = traced(|| {
        Accelerator::new(config(4))
            .unwrap()
            .run_tasks_with_recovery(&recovery_tasks(), &mut exec, &policy)
            .unwrap()
    });
    assert_eq!(r.quarantined_slots, vec![1]);
    assert_eq!(
        (recovery_report(&r), spans),
        (0xccf1_323b_9bb1_b928, 0x8bbc_77b6_e050_4e09)
    );
}

#[test]
fn recovery_exempts_the_last_healthy_slot() {
    let policy = RetryPolicy {
        max_retries: 3,
        backoff_cycles: 4,
        quarantine_threshold: 1,
    };
    let mut first_fault_on = [true; 2];
    let mut exec = scripted(move |_, slot, _| std::mem::take(&mut first_fault_on[slot]));
    let (r, spans) = traced(|| {
        Accelerator::new(config(2))
            .unwrap()
            .run_tasks_with_recovery(&recovery_tasks(), &mut exec, &policy)
            .unwrap()
    });
    assert_eq!(r.quarantined_slots, vec![0]);
    assert_eq!(
        (recovery_report(&r), spans),
        (0xfce3_08e6_b3e1_f7b3, 0x9dbe_fde9_2385_291c)
    );
}

#[test]
fn recovery_surrenders_with_fault_unrecoverable() {
    let policy = RetryPolicy {
        max_retries: 2,
        backoff_cycles: 6,
        quarantine_threshold: 2,
    };
    // Clean until the fourth call, then every attempt is detected.
    let mut exec = scripted(|call, _, _| call >= 3);
    let (r, spans) = traced(|| {
        Accelerator::new(config(2))
            .unwrap()
            .run_tasks_with_recovery(&recovery_tasks(), &mut exec, &policy)
    });
    let err = r.unwrap_err();
    assert!(
        matches!(err, AccelError::FaultUnrecoverable { .. }),
        "{err:?}"
    );
    assert_eq!(
        (error(&err), exec.calls, spans),
        (0x3e43_fa86_65a6_d3a9, 6, 0xc68f_ea17_ccf3_439c)
    );
}

#[test]
fn batch_run_and_sequential_over_a_mix_with_a_dag() {
    let sched = BatchScheduler::new(config(4)).unwrap();
    let reqs = batch_mix();
    let mut memo = ShapeMemo::new();
    let (batched, spans_b) = traced(|| sched.run(&reqs, &mut memo).unwrap());
    let (seq, spans_s) = traced(|| sched.run_sequential(&reqs, &mut memo).unwrap());
    let (via_accel, spans_a) = traced(|| {
        Accelerator::new(config(4))
            .unwrap()
            .run_batch(&reqs, &mut ShapeMemo::new())
            .unwrap()
    });
    assert_eq!(batched, via_accel);
    assert_eq!(spans_b, spans_a);
    assert_eq!(
        (
            batch_report(&batched, true),
            spans_b,
            batch_report(&seq, true),
            spans_s
        ),
        (
            0x108c_899c_16bc_6509,
            0x3f50_9a70_915e_23c4,
            0x5111_74dd_710a_472b,
            0x82bf_8f41_6184_fef8
        )
    );
}

#[test]
fn batch_recovery_paths_under_a_flaky_executor() {
    let sched = BatchScheduler::new(config(3)).unwrap();
    let policy = RetryPolicy {
        max_retries: 3,
        backoff_cycles: 8,
        quarantine_threshold: 2,
    };
    let reqs = batch_mix();
    // Slot 0 is broken; elsewhere every seventh first attempt is a
    // transient upset.
    let flaky = || scripted(|call, slot, attempt| slot == 0 || (attempt == 0 && call % 7 == 5));
    let (batched, spans_b) = traced(|| {
        sched
            .run_with_recovery(&reqs, &mut flaky(), &policy)
            .unwrap()
    });
    let (seq, spans_s) = traced(|| {
        sched
            .run_sequential_with_recovery(&reqs, &mut flaky(), &policy)
            .unwrap()
    });
    assert_eq!(batched.quarantined_slots[0], 0);
    assert!(batched.retries > 0);
    assert_eq!(
        (
            batch_report(&batched, false),
            spans_b,
            batch_report(&seq, false),
            spans_s
        ),
        (
            0xd678_7ad4_090a_b310,
            0xfbc2_92ea_6a35_8034,
            0x12cd_4b92_399e_1f3b,
            0xab92_3c63_1eb0_4222
        )
    );
}

#[test]
fn batch_recovery_surrenders_with_the_task_index_inside_its_request() {
    let sched = BatchScheduler::new(config(2)).unwrap();
    let policy = RetryPolicy {
        max_retries: 1,
        backoff_cycles: 2,
        quarantine_threshold: 5,
    };
    let mut exec = scripted(|call, _, _| call >= 9);
    let (r, spans) = traced(|| sched.run_with_recovery(&batch_mix(), &mut exec, &policy));
    let err = r.unwrap_err();
    assert!(
        matches!(err, AccelError::FaultUnrecoverable { .. }),
        "{err:?}"
    );
    assert_eq!(
        (error(&err), exec.calls, spans),
        (0xf305_f437_08bc_154e, 11, 0x63fd_7390_9c17_a38e)
    );
}
