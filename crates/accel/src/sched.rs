//! The one list scheduler behind every public entry point.
//!
//! [`run`] places tasks on the earliest-free healthy VPU slot, charges
//! each attempt's NoC transfer, backoff and compute to the slot's cycle
//! timeline, and emits the scheduler spans. Three parameters, fixed by
//! the public wrapper that calls it, select its behaviour:
//!
//! - **requests**: one or more [`TaskGraph`]s; a task becomes ready when
//!   its predecessors inside its own request finish. A flat task list is
//!   one request without edges ([`TaskGraph::flat`]).
//! - **order** ([`Order`]): shape-coalesced waves across requests, which
//!   share twiddle/key operand streams per slot and report
//!   [`WaveStats`], or plain submission order.
//! - **pricing** ([`Pricing`]): the [`ShapeMemo`], or a [`TaskExecutor`]
//!   under a [`RetryPolicy`]. Memo pricing is one more executor that
//!   never detects, spends no check cycles and returns no digest, so
//!   the detect/retry/quarantine state machine of
//!   [`recovery`](crate::recovery) is the only attempt loop.

use crate::batch::{shared_stream_bytes, BatchReport, RequestSlice, WaveStats};
use crate::config::AcceleratorConfig;
use crate::graph::TaskGraph;
use crate::machine::AccelReport;
use crate::recovery::{RetryPolicy, TaskAttempt, TaskExecutor};
use crate::workload::{premeasure_distinct, ShapeMemo, Task, TaskKind};
use crate::AccelError;
use std::collections::HashMap;
use uvpu_core::stats::CycleStats;
use uvpu_core::trace;

/// The order tasks are dispatched in.
pub(crate) enum Order {
    /// Structural rounds across all requests, each grouped into
    /// same-`(kind, n)` waves in first-occurrence `(request, task)`
    /// order.
    Waves,
    /// Request by request, task by task, as submitted.
    Submission,
}

/// What an attempt costs and whether it passed.
pub(crate) enum Pricing<'a> {
    /// Fault-free cycles from the shape memo; missing shapes are
    /// measured first. The first occurrence of a shape in the call is a
    /// memo miss, every later one a hit.
    Memo(&'a mut ShapeMemo),
    /// Every attempt runs through the executor and counts as a miss.
    Executor(&'a mut dyn TaskExecutor, &'a RetryPolicy),
}

/// NoC cycles for one transfer of `bytes` between the SRAM and a VPU
/// `hops` ring positions away.
pub(crate) fn noc_cycles(config: &AcceleratorConfig, bytes: usize, hops: usize) -> u64 {
    bytes.div_ceil(config.noc_bytes_per_cycle) as u64 + config.noc_hop_latency * hops as u64
}

/// Memo pricing as an executor.
struct MemoPricing<'a>(&'a ShapeMemo);

impl TaskExecutor for MemoPricing<'_> {
    fn execute(&mut self, task: &Task, _: usize, _: u32) -> Result<TaskAttempt, AccelError> {
        Ok(TaskAttempt {
            stats: self.0[&(task.kind, task.n)],
            digest: 0,
            check_cycles: 0,
            detected: false,
        })
    }
}

/// A dispatch group: a wave of one shape, or (shape `None`) every task
/// in submission order.
struct Wave {
    /// Structural round: one past the deepest predecessor's.
    round: usize,
    shape: Option<(TaskKind, usize)>,
    /// `(request, task)` indices in dispatch order.
    members: Vec<(usize, usize)>,
}

/// Forms the wave plan: tasks are layered into structural rounds (a
/// task's round is one past its deepest predecessor's), and within a
/// round grouped by `(kind, n)` shape in first-occurrence
/// `(request, task)` order. Pure graph structure — no measured cycles —
/// so the plan is trivially thread-count invariant.
fn plan_waves(requests: &[&TaskGraph]) -> Vec<Wave> {
    let mut at: HashMap<(usize, TaskKind, usize), usize> = HashMap::new();
    let mut waves: Vec<Wave> = Vec::new();
    for (req, g) in requests.iter().enumerate() {
        // Predecessors always have lower indices: one forward pass.
        let mut rounds = vec![0usize; g.len()];
        for (idx, task) in g.tasks().iter().enumerate() {
            let round = g.preds(idx).iter().fold(0, |r, &p| r.max(rounds[p] + 1));
            rounds[idx] = round;
            let wave = *at.entry((round, task.kind, task.n)).or_insert_with(|| {
                waves.push(Wave {
                    round,
                    shape: Some((task.kind, task.n)),
                    members: Vec::new(),
                });
                waves.len() - 1
            });
            waves[wave].members.push((req, idx));
        }
    }
    // Stable: waves of one round keep their first-occurrence order.
    waves.sort_by_key(|w| w.round);
    waves
}

/// One VPU slot on the cycle timeline.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// Cycle at which the slot is next free.
    free: u64,
    /// Detected-faulty attempts it ran.
    faults: u32,
    quarantined: bool,
    /// Holds the current wave's shared stream.
    resident: bool,
    /// Ran a member of the current wave.
    used: bool,
}

/// The earliest-free slot not quarantined, ties to the lowest index.
/// The last healthy slot is never quarantined, so one always exists.
fn earliest_healthy(slots: &[Slot]) -> usize {
    slots
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.quarantined)
        .min_by_key(|(_, s)| s.free)
        .map_or(0, |(i, _)| i)
}

/// Schedules `requests` on the machine `config` describes. Returns the
/// batch report (request ids are 0) and the count of tasks that passed
/// on a retry.
///
/// Every task is checked against the SRAM capacity before anything
/// runs. A detected-faulty attempt retries after the policy backoff on
/// its own slot, or on the earliest healthy slot once its own is
/// quarantined; first attempts of a wave member skip the shared stream
/// a slot already holds, retries re-fetch everything.
///
/// # Errors
///
/// [`AccelError::SramOverflow`], kernel-mapping errors from the memo
/// fill or the executor, and [`AccelError::FaultUnrecoverable`] (with
/// the task index inside its request) when a task exhausts its retries.
pub(crate) fn run(
    config: &AcceleratorConfig,
    requests: &[&TaskGraph],
    order: Order,
    pricing: Pricing<'_>,
) -> Result<(BatchReport, u64), AccelError> {
    for task in requests.iter().flat_map(|g| g.tasks()) {
        if task.noc_bytes > config.sram_bytes {
            return Err(AccelError::SramOverflow {
                needed: task.noc_bytes,
                capacity: config.sram_bytes,
            });
        }
    }
    let task_count = requests.iter().map(|g| g.len()).sum();
    let mut memo_pricing;
    let (exec, policy, memo_misses): (&mut dyn TaskExecutor, RetryPolicy, Option<u64>) =
        match pricing {
            Pricing::Memo(memo) => {
                let all = requests.iter().flat_map(|g| g.tasks());
                let distinct = premeasure_distinct(all, config.lanes, memo)?;
                memo_pricing = MemoPricing(memo);
                (&mut memo_pricing, RetryPolicy::default(), Some(distinct))
            }
            Pricing::Executor(exec, policy) => (exec, *policy, None),
        };
    let waves = match order {
        Order::Waves => plan_waves(requests),
        Order::Submission => {
            let mut members = Vec::with_capacity(task_count);
            for (req, g) in requests.iter().enumerate() {
                members.extend((0..g.len()).map(|idx| (req, idx)));
            }
            vec![Wave {
                round: 0,
                shape: None,
                members,
            }]
        }
    };
    let v = config.vpu_count;
    let mut out = empty_report(v);
    out.report.task_count = task_count;
    out.per_request = requests
        .iter()
        .map(|g| RequestSlice {
            id: 0,
            task_count: g.len(),
            compute_cycles: 0,
            finish: 0,
            // Memo pricing has no outputs to digest.
            task_digests: vec![0; if memo_misses.is_some() { 0 } else { g.len() }],
        })
        .collect();
    let mut finish: Vec<Vec<u64>> = requests.iter().map(|g| vec![0; g.len()]).collect();
    let mut slots = vec![Slot::default(); v];
    let mut recovered = 0u64;
    let tracing = trace::global_enabled();
    if tracing {
        // One `accel.batch` parent per slot track wraps the schedule, so
        // tree-building sinks key the task spans under `accel.batch/…`
        // and its end timestamp is the slot's total occupancy.
        for slot in 0..v {
            trace::global_span_begin_at(slot as u32, "accel.batch", 0);
        }
    }
    for wave in &waves {
        let shared = wave
            .shape
            .map_or(0, |(kind, n)| shared_stream_bytes(kind, n));
        let (mut wave_start, mut wave_end, mut stream_saved) = (u64::MAX, 0u64, 0u64);
        for &(req, idx) in &wave.members {
            let task = &requests[req].tasks()[idx];
            let ready_at = requests[req]
                .preds(idx)
                .iter()
                .map(|&p| finish[req][p])
                .max()
                .unwrap_or(0);
            let mut slot = earliest_healthy(&slots);
            let mut attempt = 0;
            let end = loop {
                if slots[slot].quarantined {
                    slot = earliest_healthy(&slots);
                }
                if attempt > 0 {
                    slots[slot].free += policy.backoff_cycles;
                    out.retries += 1;
                }
                let saved = if attempt == 0 && slots[slot].resident {
                    shared.min(task.noc_bytes)
                } else {
                    0
                };
                let bytes = task.noc_bytes - saved;
                // Ring distance from the SRAM port.
                let transfer = noc_cycles(config, bytes, slot % (v / 2 + 1) + 1);
                let outcome = exec.execute(task, slot, attempt)?;
                let compute = outcome.stats.total() + outcome.check_cycles;
                let start = slots[slot].free.max(ready_at);
                if tracing {
                    let track = slot as u32;
                    trace::global_span_at(track, "noc.transfer", start, start + transfer);
                    // The `task.` prefix marks cycle-timestamped scheduler
                    // spans for per-task attribution downstream.
                    let label = if attempt == 0 { "task" } else { "retry" };
                    trace::global_span_at(
                        track,
                        &format!("{label}.{} n={}", task.kind.name(), task.n),
                        start + transfer,
                        start + transfer + compute,
                    );
                }
                if attempt == 0 {
                    wave_start = wave_start.min(start);
                }
                slots[slot].free = start + transfer + compute;
                out.report.vpu_busy[slot] += compute;
                out.per_request[req].compute_cycles += compute;
                out.report.noc_cycles += transfer;
                out.report.sram_traffic_bytes += bytes as u64;
                out.report.vpu_stats += outcome.stats;
                stream_saved += saved as u64;
                slots[slot].resident = wave.shape.is_some();
                if !outcome.detected {
                    recovered += u64::from(attempt > 0);
                    if let Some(digest) = out.per_request[req].task_digests.get_mut(idx) {
                        *digest = outcome.digest;
                    }
                    break slots[slot].free;
                }
                out.detected_faults += 1;
                slots[slot].faults += 1;
                let healthy = slots.iter().filter(|s| !s.quarantined).count();
                if slots[slot].faults >= policy.quarantine_threshold && healthy > 1 {
                    slots[slot].quarantined = true;
                    out.quarantined_slots.push(slot);
                }
                if attempt == policy.max_retries {
                    return Err(AccelError::FaultUnrecoverable {
                        task_index: idx,
                        attempts: policy.max_retries + 1,
                    });
                }
                attempt += 1;
            };
            finish[req][idx] = end;
            let slice = &mut out.per_request[req];
            slice.finish = slice.finish.max(end);
            slots[slot].used = true;
            wave_end = wave_end.max(end);
        }
        if let Some((kind, n)) = wave.shape {
            let start = wave_start.min(wave_end);
            if tracing {
                let name = format!("wave.{} n={n} tasks={}", kind.name(), wave.members.len());
                trace::global_span_at(v as u32, &name, start, wave_end);
            }
            out.waves.push(WaveStats {
                kind,
                n,
                tasks: wave.members.len(),
                slots_used: slots.iter().filter(|s| s.used).count(),
                start,
                end: wave_end,
                stream_bytes_saved: stream_saved,
            });
            for s in &mut slots {
                (s.resident, s.used) = (false, false);
            }
        }
    }
    if tracing {
        for (slot, s) in slots.iter().enumerate() {
            trace::global_span_end_at(slot as u32, "accel.batch", s.free);
        }
    }
    let makespan = slots.iter().map(|s| s.free).max().unwrap_or(0);
    out.report.makespan = makespan;
    out.total_lane_cycles = makespan * v as u64;
    out.busy_lane_cycles = out.report.vpu_busy.iter().sum();
    let tasks = out.report.task_count as u64;
    (out.report.memo_hits, out.report.memo_misses) = match memo_misses {
        Some(misses) => (tasks - misses, misses),
        // Every attempt: each task's last one plus its retries.
        None => (0, tasks + out.retries),
    };
    Ok((out, recovered))
}

/// A report of nothing scheduled on `v` slots.
pub(crate) fn empty_report(v: usize) -> BatchReport {
    BatchReport {
        report: AccelReport {
            makespan: 0,
            vpu_busy: vec![0; v],
            vpu_stats: CycleStats::new(),
            noc_cycles: 0,
            sram_traffic_bytes: 0,
            task_count: 0,
            memo_hits: 0,
            memo_misses: 0,
        },
        per_request: Vec::new(),
        waves: Vec::new(),
        busy_lane_cycles: 0,
        total_lane_cycles: 0,
        retries: 0,
        detected_faults: 0,
        quarantined_slots: Vec::new(),
    }
}
