//! Event-level tracing across the VPU stack.
//!
//! Every pipeline beat the simulator charges — a constant-geometry
//! shuffle, a shift-network traversal, a butterfly batch, an element-wise
//! op — can be observed through a [`TraceSink`] attached to the
//! [`Vpu`](crate::vpu::Vpu). The default sink, [`NopSink`], is a zero-sized
//! type whose hooks are empty inherent no-ops: a `Vpu<NopSink>` (the
//! default parameter, what `Vpu::new` builds) monomorphizes to exactly the
//! untraced hot path — no branch, no indirect call.
//!
//! Three concrete sinks ship with the crate:
//!
//! - [`CounterSink`] — per-opcode beat counts, network passes by kind,
//!   register-file load/store counts, plus per-span cycle attribution via
//!   [`CycleStats::delta`];
//! - [`RingBufferSink`] — a bounded recorder keeping the most recent
//!   events (with a dropped-event count once the buffer wraps);
//! - [`PerfettoSink`] — a Chrome trace-event / Perfetto JSON exporter
//!   with a hand-rolled writer (the build environment is offline, so no
//!   serde); open the output at `ui.perfetto.dev` or `chrome://tracing`.
//!
//! Higher-level phases (NTT stages, automorphisms, key-switch, rescale)
//! appear as *spans*: `span_begin`/`span_end` pairs timestamped with the
//! VPU cycle counter. Scheme crates (`uvpu-ckks`, `uvpu-bfv`) are software
//! models without a cycle clock, so they emit spans through a
//! thread-local global sink ([`install_global`]) using a logical sequence
//! counter instead, on the reserved [`SCHEME_TRACK`].
//!
//! # Sequence-clock semantics under concurrency
//!
//! The global sink slot is *thread-local*, so spans emitted from
//! `uvpu-par` pool workers would silently vanish with the plain
//! [`install_global`]. [`install_global_sync`] fixes this: it takes a
//! [`SyncSink`] (an `Arc<Mutex<_>>` handle, `Send` unlike
//! [`SharedSink`]'s `Rc`), installs it on the calling thread, *and*
//! registers `uvpu-par` worker hooks so every pool worker installs a
//! clone of the same handle on entry and removes it on exit.
//!
//! Under `install_global_sync` the logical sequence clock is a single
//! process-wide atomic shared by the installer and all workers: it stays
//! strictly monotonic (every event gets a unique timestamp, and the
//! begin of a span always precedes its end), but timestamps from
//! *different* workers interleave in arrival order — only the per-thread
//! subsequences carry program-order meaning. Cycle *counts* (the
//! [`CounterSink`] totals) are unaffected: parallel execution charges
//! the same beats, merely observed from several threads. The plain
//! thread-local [`install_global`] path keeps its original per-thread
//! clock starting at 0.

use crate::network::{CgDirection, NetworkPass};
use crate::stats::CycleStats;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Track (Perfetto `tid`) used by scheme-level spans emitted through the
/// thread-local global sink.
pub const SCHEME_TRACK: u32 = 1000;

/// Element-wise opcode, as charged by the lane ALUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EwiseOp {
    /// `dst ← a + b`.
    Add,
    /// `dst ← a − b`.
    Sub,
    /// `dst ← a · b`.
    Mul,
    /// `dst ← dst + a · b`.
    Mac,
    /// `dst ← src · consts` (immediate twiddle vector).
    MulConst,
    /// Fused rotate-and-add beat of a cross-lane reduction.
    RotateAdd,
}

impl EwiseOp {
    /// All opcodes, in [`Self::index`] order.
    pub const ALL: [Self; 6] = [
        Self::Add,
        Self::Sub,
        Self::Mul,
        Self::Mac,
        Self::MulConst,
        Self::RotateAdd,
    ];

    /// Dense index for counter arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Self::Add => 0,
            Self::Sub => 1,
            Self::Mul => 2,
            Self::Mac => 3,
            Self::MulConst => 4,
            Self::RotateAdd => 5,
        }
    }

    /// Stable display name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Add => "ewise.add",
            Self::Sub => "ewise.sub",
            Self::Mul => "ewise.mul",
            Self::Mac => "ewise.mac",
            Self::MulConst => "ewise.mul_const",
            Self::RotateAdd => "ewise.rotate_add",
        }
    }
}

/// What a network-only beat did, derived from the traversal's
/// [`NetworkPass`] configuration (which CG orientation, if any, and
/// whether the shift stages were active).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetKind {
    /// Straight-through route (no stage active).
    Route,
    /// Perfect shuffle (DIF constant-geometry stage) only.
    CgShuffle,
    /// Inverse perfect shuffle (DIT constant-geometry stage) only.
    CgUnshuffle,
    /// Shift stages only (rotations, automorphisms, transposes).
    Shift,
    /// Perfect shuffle followed by the shift stages.
    CgShuffleShift,
    /// Inverse shuffle followed by the shift stages.
    CgUnshuffleShift,
}

impl NetKind {
    /// All kinds, in [`Self::index`] order.
    pub const ALL: [Self; 6] = [
        Self::Route,
        Self::CgShuffle,
        Self::CgUnshuffle,
        Self::Shift,
        Self::CgShuffleShift,
        Self::CgUnshuffleShift,
    ];

    /// Classifies a traversal configuration.
    #[must_use]
    pub const fn from_pass(pass: &NetworkPass) -> Self {
        Self::of(pass.cg, pass.shifts.is_some())
    }

    /// Classifies a traversal by its two halves: the CG orientation, if
    /// any, and whether the shift stages are active.
    #[must_use]
    pub(crate) const fn of(cg: Option<CgDirection>, shifts: bool) -> Self {
        match (cg, shifts) {
            (None, false) => Self::Route,
            (Some(CgDirection::Dif), false) => Self::CgShuffle,
            (Some(CgDirection::Dit), false) => Self::CgUnshuffle,
            (None, true) => Self::Shift,
            (Some(CgDirection::Dif), true) => Self::CgShuffleShift,
            (Some(CgDirection::Dit), true) => Self::CgUnshuffleShift,
        }
    }

    /// Dense index for counter arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Self::Route => 0,
            Self::CgShuffle => 1,
            Self::CgUnshuffle => 2,
            Self::Shift => 3,
            Self::CgShuffleShift => 4,
            Self::CgUnshuffleShift => 5,
        }
    }

    /// Stable display name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Route => "net.route",
            Self::CgShuffle => "net.cg_shuffle",
            Self::CgUnshuffle => "net.cg_unshuffle",
            Self::Shift => "net.shift",
            Self::CgShuffleShift => "net.cg_shuffle+shift",
            Self::CgUnshuffleShift => "net.cg_unshuffle+shift",
        }
    }
}

/// What one pipeline beat (or a bulk batch of identical beats) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BeatKind {
    /// A constant-geometry route plus its paired-lane butterflies.
    Butterfly,
    /// An element-wise lane-ALU beat.
    Elementwise(EwiseOp),
    /// A network-only beat (arithmetic units idle).
    NetworkMove(NetKind),
}

impl BeatKind {
    /// Stable display name (`butterfly`, `ewise.*`, `net.*`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Butterfly => "butterfly",
            Self::Elementwise(op) => op.name(),
            Self::NetworkMove(kind) => kind.name(),
        }
    }

    /// Coarse category (`butterfly` / `ewise` / `net`), used as the
    /// Perfetto event category.
    #[must_use]
    pub const fn category(self) -> &'static str {
        match self {
            Self::Butterfly => "butterfly",
            Self::Elementwise(_) => "ewise",
            Self::NetworkMove(_) => "net",
        }
    }

    /// Charges `count` beats of this kind to a [`CycleStats`].
    pub fn charge(self, stats: &mut CycleStats, count: u64) {
        match self {
            Self::Butterfly => stats.butterfly += count,
            Self::Elementwise(_) => stats.elementwise += count,
            Self::NetworkMove(_) => stats.network_move += count,
        }
    }
}

/// Direction of a register-file ⇄ SRAM transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemDir {
    /// SRAM → register file (`Vpu::load`).
    Load,
    /// Register file → SRAM (`Vpu::store`).
    Store,
}

/// A datapath location where the mutating fault hooks
/// ([`TraceSink::fault_data`]) can observe — and corrupt — in-flight
/// words. The sites mirror the physical structures of paper Fig 1(b):
/// lane butterfly outputs, the two network stage groups, and the
/// register-file read port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// Paired-lane butterfly outputs inside a Pease CG stage.
    LaneButterfly,
    /// Constant-geometry (perfect shuffle) network link outputs.
    NetworkCg,
    /// Shift-stage network link outputs (rotations, automorphisms,
    /// transposes, straight routes).
    NetworkShift,
    /// The register-file read port feeding the VPU→SRAM interface
    /// (`Vpu::store`, i.e. the `charge_mem` points).
    RegFileRead,
}

impl FaultSite {
    /// All sites, in [`Self::index`] order.
    pub const ALL: [Self; 4] = [
        Self::LaneButterfly,
        Self::NetworkCg,
        Self::NetworkShift,
        Self::RegFileRead,
    ];

    /// Dense index for counter arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Self::LaneButterfly => 0,
            Self::NetworkCg => 1,
            Self::NetworkShift => 2,
            Self::RegFileRead => 3,
        }
    }

    /// Stable display name (report keys, campaign JSON).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::LaneButterfly => "lane_butterfly",
            Self::NetworkCg => "network_cg",
            Self::NetworkShift => "network_shift",
            Self::RegFileRead => "regfile_read",
        }
    }

    /// The site a network-only traversal of `kind` exercises: the CG
    /// stages when a shuffle is active, the shift stages otherwise.
    #[must_use]
    pub const fn from_net(kind: NetKind) -> Self {
        match kind {
            NetKind::CgShuffle | NetKind::CgUnshuffle => Self::NetworkCg,
            NetKind::Route
            | NetKind::Shift
            | NetKind::CgShuffleShift
            | NetKind::CgUnshuffleShift => Self::NetworkShift,
        }
    }
}

/// Receiver for trace events.
///
/// Every hook has an empty default body, so a sink only overrides what it
/// cares about — and [`NopSink`], which overrides nothing, monomorphizes
/// to nothing at all. The trait is object-safe (`Box<dyn TraceSink>` is
/// how scheme crates reach the thread-local global sink).
///
/// Timestamps: `cycle` is the VPU cycle counter *before* the beat is
/// charged (so the beat occupies `[cycle, cycle + count)`); span `ts` is
/// either a cycle (VPU-side spans) or a logical sequence number
/// (scheme-side spans on [`SCHEME_TRACK`]). `track` distinguishes event
/// streams — VPU index, scheduler slot, or [`SCHEME_TRACK`].
pub trait TraceSink {
    /// Whether the sink wants events at all. Callers may use this to skip
    /// constructing expensive event arguments (e.g. `format!`ed span
    /// names); the hooks themselves must stay correct regardless.
    fn enabled(&self) -> bool {
        true
    }

    /// One pipeline beat of `kind` at `cycle`.
    fn beat(&mut self, track: u32, cycle: u64, kind: BeatKind) {
        let _ = (track, cycle, kind);
    }

    /// `count` identical beats of `kind` charged in bulk starting at
    /// `cycle` (planner-level accounting, e.g. `charge_network_moves`).
    fn beats(&mut self, track: u32, cycle: u64, kind: BeatKind, count: u64) {
        let _ = (track, cycle, kind, count);
    }

    /// A register-file transfer of `lanes` words at register `addr`
    /// (not a pipeline beat — loads/stores are not cycle-charged).
    fn mem(&mut self, track: u32, cycle: u64, dir: MemDir, addr: usize, lanes: usize) {
        let _ = (track, cycle, dir, addr, lanes);
    }

    /// A higher-level phase opens.
    fn span_begin(&mut self, track: u32, ts: u64, name: &str) {
        let _ = (track, ts, name);
    }

    /// The most recent open phase on `track` closes.
    fn span_end(&mut self, track: u32, ts: u64, name: &str) {
        let _ = (track, ts, name);
    }

    /// Whether the mutating fault hooks are live. The VPU checks this
    /// before reading data back out of the register file for
    /// [`fault_data`](Self::fault_data), so the default `false` keeps the
    /// fault machinery entirely off the hot path — [`NopSink`] (and every
    /// ordinary observer sink) monomorphizes the injection call sites to
    /// nothing.
    fn fault_hooks_enabled(&self) -> bool {
        false
    }

    /// Mutating hook over the in-flight words at a fault `site` — a
    /// fault injector overwrites entries of `data` to model bit flips or
    /// stuck-at defects. Only called when
    /// [`fault_hooks_enabled`](Self::fault_hooks_enabled) returns true.
    /// Observer sinks leave the default empty body.
    fn fault_data(&mut self, track: u32, cycle: u64, site: FaultSite, data: &mut [u64]) {
        let _ = (track, cycle, site, data);
    }
}

/// The default sink: discards everything.
///
/// `enabled()` is `false`, and every hook is the trait's empty default, so
/// `Vpu<NopSink>` compiles to the exact untraced hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NopSink;

impl TraceSink for NopSink {
    fn enabled(&self) -> bool {
        false
    }
}

impl<T: TraceSink + ?Sized> TraceSink for Box<T> {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn beat(&mut self, track: u32, cycle: u64, kind: BeatKind) {
        (**self).beat(track, cycle, kind);
    }

    fn beats(&mut self, track: u32, cycle: u64, kind: BeatKind, count: u64) {
        (**self).beats(track, cycle, kind, count);
    }

    fn mem(&mut self, track: u32, cycle: u64, dir: MemDir, addr: usize, lanes: usize) {
        (**self).mem(track, cycle, dir, addr, lanes);
    }

    fn span_begin(&mut self, track: u32, ts: u64, name: &str) {
        (**self).span_begin(track, ts, name);
    }

    fn span_end(&mut self, track: u32, ts: u64, name: &str) {
        (**self).span_end(track, ts, name);
    }

    fn fault_hooks_enabled(&self) -> bool {
        (**self).fault_hooks_enabled()
    }

    fn fault_data(&mut self, track: u32, cycle: u64, site: FaultSite, data: &mut [u64]) {
        (**self).fault_data(track, cycle, site, data);
    }
}

/// A tee: every event goes to both halves (`enabled` if either is).
/// Lets one run feed e.g. a [`CounterSink`] and a [`PerfettoSink`]
/// simultaneously: `Vpu::with_sink(m, q, d, (CounterSink::new(), p))`.
impl<A: TraceSink, B: TraceSink> TraceSink for (A, B) {
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    fn beat(&mut self, track: u32, cycle: u64, kind: BeatKind) {
        self.0.beat(track, cycle, kind);
        self.1.beat(track, cycle, kind);
    }

    fn beats(&mut self, track: u32, cycle: u64, kind: BeatKind, count: u64) {
        self.0.beats(track, cycle, kind, count);
        self.1.beats(track, cycle, kind, count);
    }

    fn mem(&mut self, track: u32, cycle: u64, dir: MemDir, addr: usize, lanes: usize) {
        self.0.mem(track, cycle, dir, addr, lanes);
        self.1.mem(track, cycle, dir, addr, lanes);
    }

    fn span_begin(&mut self, track: u32, ts: u64, name: &str) {
        self.0.span_begin(track, ts, name);
        self.1.span_begin(track, ts, name);
    }

    fn span_end(&mut self, track: u32, ts: u64, name: &str) {
        self.0.span_end(track, ts, name);
        self.1.span_end(track, ts, name);
    }

    fn fault_hooks_enabled(&self) -> bool {
        self.0.fault_hooks_enabled() || self.1.fault_hooks_enabled()
    }

    fn fault_data(&mut self, track: u32, cycle: u64, site: FaultSite, data: &mut [u64]) {
        self.0.fault_data(track, cycle, site, data);
        self.1.fault_data(track, cycle, site, data);
    }
}

/// An owned trace event, as recorded by [`RingBufferSink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// `count` beats of `kind` occupying `[cycle, cycle + count)`.
    Beat {
        /// Event stream.
        track: u32,
        /// Start cycle.
        cycle: u64,
        /// What the beats did.
        kind: BeatKind,
        /// How many identical beats.
        count: u64,
    },
    /// A register-file transfer.
    Mem {
        /// Event stream.
        track: u32,
        /// Cycle at which the transfer happened.
        cycle: u64,
        /// Load or store.
        dir: MemDir,
        /// Register address.
        addr: usize,
        /// Words moved.
        lanes: usize,
    },
    /// A phase opened.
    SpanBegin {
        /// Event stream.
        track: u32,
        /// Timestamp (cycle or sequence number).
        ts: u64,
        /// Phase name.
        name: String,
    },
    /// A phase closed.
    SpanEnd {
        /// Event stream.
        track: u32,
        /// Timestamp (cycle or sequence number).
        ts: u64,
        /// Phase name.
        name: String,
    },
}

/// Counter registry: beat counts by opcode, network passes by kind,
/// register-file traffic, and per-span cycle attribution.
///
/// The sink maintains its own running [`CycleStats`] from the beats it
/// observes; a span's cost is the [`CycleStats::delta`] between its end
/// and begin snapshots, accumulated per span name.
#[derive(Debug, Clone, Default)]
pub struct CounterSink {
    butterfly_beats: u64,
    ewise_beats: [u64; 6],
    net_beats: [u64; 6],
    reg_loads: u64,
    reg_stores: u64,
    reg_words_loaded: u64,
    reg_words_stored: u64,
    running: CycleStats,
    open: Vec<(String, CycleStats)>,
    phases: BTreeMap<String, CycleStats>,
    unmatched_span_ends: u64,
}

impl CounterSink {
    /// A fresh, zeroed registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total butterfly beats observed.
    #[must_use]
    pub const fn butterfly_beats(&self) -> u64 {
        self.butterfly_beats
    }

    /// Element-wise beats observed for `op`.
    #[must_use]
    pub const fn ewise_beats(&self, op: EwiseOp) -> u64 {
        self.ewise_beats[op.index()]
    }

    /// Network-only beats observed for `kind`.
    #[must_use]
    pub const fn net_beats(&self, kind: NetKind) -> u64 {
        self.net_beats[kind.index()]
    }

    /// Register-file loads (writes into the register file) observed.
    #[must_use]
    pub const fn reg_loads(&self) -> u64 {
        self.reg_loads
    }

    /// Register-file stores (reads out of the register file) observed.
    #[must_use]
    pub const fn reg_stores(&self) -> u64 {
        self.reg_stores
    }

    /// Words moved into / out of the register file.
    #[must_use]
    pub const fn reg_words(&self) -> (u64, u64) {
        (self.reg_words_loaded, self.reg_words_stored)
    }

    /// The cycle totals reconstructed purely from trace events. For a
    /// single-VPU run this must equal the VPU's own
    /// [`stats`](crate::vpu::Vpu::stats) bit-for-bit.
    #[must_use]
    pub const fn running(&self) -> &CycleStats {
        &self.running
    }

    /// Per-span cycle attribution, keyed by span name, accumulated over
    /// all completed spans of that name. Nested spans both observe the
    /// beats inside the inner span.
    #[must_use]
    pub const fn phases(&self) -> &BTreeMap<String, CycleStats> {
        &self.phases
    }

    /// Span-end events that matched no open span and were therefore not
    /// attributed anywhere. Nonzero means the instrumentation emitted
    /// unbalanced span pairs — a bug worth surfacing, not swallowing.
    #[must_use]
    pub const fn unmatched_span_ends(&self) -> u64 {
        self.unmatched_span_ends
    }
}

impl TraceSink for CounterSink {
    fn beat(&mut self, track: u32, cycle: u64, kind: BeatKind) {
        self.beats(track, cycle, kind, 1);
    }

    fn beats(&mut self, _track: u32, _cycle: u64, kind: BeatKind, count: u64) {
        match kind {
            BeatKind::Butterfly => self.butterfly_beats += count,
            BeatKind::Elementwise(op) => self.ewise_beats[op.index()] += count,
            BeatKind::NetworkMove(net) => self.net_beats[net.index()] += count,
        }
        kind.charge(&mut self.running, count);
    }

    fn mem(&mut self, _track: u32, _cycle: u64, dir: MemDir, _addr: usize, lanes: usize) {
        match dir {
            MemDir::Load => {
                self.reg_loads += 1;
                self.reg_words_loaded += lanes as u64;
            }
            MemDir::Store => {
                self.reg_stores += 1;
                self.reg_words_stored += lanes as u64;
            }
        }
    }

    fn span_begin(&mut self, _track: u32, _ts: u64, name: &str) {
        self.open.push((name.to_string(), self.running));
    }

    fn span_end(&mut self, _track: u32, _ts: u64, name: &str) {
        // Tolerate mismatched names (spans from different tracks may
        // interleave): close the innermost open span with this name.
        if let Some(pos) = self.open.iter().rposition(|(n, _)| n == name) {
            let (name, at_begin) = self.open.remove(pos);
            let cost = self.running.delta(&at_begin);
            *self.phases.entry(name).or_default() += cost;
        } else {
            self.unmatched_span_ends += 1;
        }
    }
}

impl fmt::Display for CounterSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "beat counters:")?;
        writeln!(f, "  {:<24} {:>12}", "butterfly", self.butterfly_beats)?;
        for op in EwiseOp::ALL {
            if self.ewise_beats(op) > 0 {
                writeln!(f, "  {:<24} {:>12}", op.name(), self.ewise_beats(op))?;
            }
        }
        for kind in NetKind::ALL {
            if self.net_beats(kind) > 0 {
                writeln!(f, "  {:<24} {:>12}", kind.name(), self.net_beats(kind))?;
            }
        }
        writeln!(
            f,
            "register file: {} loads ({} words), {} stores ({} words)",
            self.reg_loads, self.reg_words_loaded, self.reg_stores, self.reg_words_stored
        )?;
        if !self.phases.is_empty() {
            writeln!(f, "phases:")?;
            for (name, stats) in &self.phases {
                writeln!(f, "  {name:<24} {stats}")?;
            }
        }
        Ok(())
    }
}

/// Bounded event recorder: keeps the most recent `capacity` events and
/// counts how many older ones were dropped.
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    dropped_beats: u64,
    dropped_mems: u64,
    dropped_spans: u64,
    dropped_since_read: u64,
    dropped_since_read_by_kind: [u64; 3],
}

impl RingBufferSink {
    /// A recorder holding at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
            dropped_beats: 0,
            dropped_mems: 0,
            dropped_spans: 0,
            dropped_since_read: 0,
            dropped_since_read_by_kind: [0; 3],
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            match self.buf.pop_front() {
                Some(TraceEvent::Beat { .. }) => {
                    self.dropped_beats += 1;
                    self.dropped_since_read_by_kind[0] += 1;
                }
                Some(TraceEvent::Mem { .. }) => {
                    self.dropped_mems += 1;
                    self.dropped_since_read_by_kind[1] += 1;
                }
                Some(TraceEvent::SpanBegin { .. } | TraceEvent::SpanEnd { .. }) => {
                    self.dropped_spans += 1;
                    self.dropped_since_read_by_kind[2] += 1;
                }
                None => {}
            }
            self.dropped += 1;
            self.dropped_since_read += 1;
        }
        self.buf.push_back(event);
    }

    /// The retained events, oldest first.
    #[must_use]
    pub const fn events(&self) -> &VecDeque<TraceEvent> {
        &self.buf
    }

    /// Events evicted because the buffer was full.
    #[must_use]
    pub const fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Evicted events by category: `(beats, mems, spans)`. Sums to
    /// [`dropped`](Self::dropped); span drops are the ones that silently
    /// corrupt downstream phase attribution, so they get their own bin.
    #[must_use]
    pub const fn dropped_by_kind(&self) -> (u64, u64, u64) {
        (self.dropped_beats, self.dropped_mems, self.dropped_spans)
    }

    /// Events evicted since the last [`mark_read`](Self::mark_read)
    /// (or construction). Querying does *not* clear the mark, so a
    /// fault campaign can poll the high-water count between cells
    /// without losing it; call `mark_read` to start a new window.
    #[must_use]
    pub const fn dropped_since_last_read(&self) -> u64 {
        self.dropped_since_read
    }

    /// The current `dropped_since_last_read` window split by event kind:
    /// `(beats, mems, spans)`. Sums to
    /// [`dropped_since_last_read`](Self::dropped_since_last_read); span
    /// drops are the ones that corrupt downstream phase attribution, so
    /// a poller can alarm on them specifically while tolerating beat
    /// evictions.
    #[must_use]
    pub const fn dropped_since_last_read_by_kind(&self) -> (u64, u64, u64) {
        (
            self.dropped_since_read_by_kind[0],
            self.dropped_since_read_by_kind[1],
            self.dropped_since_read_by_kind[2],
        )
    }

    /// Starts a new `dropped_since_last_read` window. Lifetime drop
    /// totals ([`dropped`](Self::dropped), per-kind bins) are untouched.
    pub fn mark_read(&mut self) {
        self.dropped_since_read = 0;
        self.dropped_since_read_by_kind = [0; 3];
    }

    /// Discards all retained events and resets every drop counter,
    /// keeping the capacity. Lets one recorder be reused across runs
    /// without carrying stale drop totals into the next report.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.dropped = 0;
        self.dropped_beats = 0;
        self.dropped_mems = 0;
        self.dropped_spans = 0;
        self.dropped_since_read = 0;
        self.dropped_since_read_by_kind = [0; 3];
    }

    /// Maximum number of retained events.
    #[must_use]
    pub const fn capacity(&self) -> usize {
        self.capacity
    }
}

impl TraceSink for RingBufferSink {
    fn beat(&mut self, track: u32, cycle: u64, kind: BeatKind) {
        self.push(TraceEvent::Beat {
            track,
            cycle,
            kind,
            count: 1,
        });
    }

    fn beats(&mut self, track: u32, cycle: u64, kind: BeatKind, count: u64) {
        self.push(TraceEvent::Beat {
            track,
            cycle,
            kind,
            count,
        });
    }

    fn mem(&mut self, track: u32, cycle: u64, dir: MemDir, addr: usize, lanes: usize) {
        self.push(TraceEvent::Mem {
            track,
            cycle,
            dir,
            addr,
            lanes,
        });
    }

    fn span_begin(&mut self, track: u32, ts: u64, name: &str) {
        self.push(TraceEvent::SpanBegin {
            track,
            ts,
            name: name.to_string(),
        });
    }

    fn span_end(&mut self, track: u32, ts: u64, name: &str) {
        self.push(TraceEvent::SpanEnd {
            track,
            ts,
            name: name.to_string(),
        });
    }
}

/// One emitted Chrome trace event.
#[derive(Debug, Clone)]
struct ChromeEvent {
    name: String,
    cat: &'static str,
    ph: char,
    ts: u64,
    dur: Option<u64>,
    tid: u32,
    /// Pre-rendered `"args"` object body (`"k":v,…`, already escaped).
    args: Option<String>,
}

/// A run of consecutive identical beats being coalesced.
#[derive(Debug, Clone, Copy)]
struct PendingSlice {
    track: u32,
    kind: BeatKind,
    start: u64,
    count: u64,
}

/// Chrome trace-event / Perfetto JSON exporter.
///
/// Consecutive beats of the same kind on the same track coalesce into a
/// single duration slice, so an `n`-beat butterfly batch is one event,
/// not `n`. Spans become `B`/`E` (begin/end) events. One simulated cycle
/// maps to one microsecond of trace time. The JSON is hand-rolled (the
/// build environment is offline; no serde) and loads in
/// `ui.perfetto.dev` or `chrome://tracing`.
#[derive(Debug, Clone, Default)]
pub struct PerfettoSink {
    events: Vec<ChromeEvent>,
    pending: Option<PendingSlice>,
    include_mem: bool,
}

impl PerfettoSink {
    /// A fresh exporter (register-file transfers not recorded).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Also records register-file loads/stores as instant events (can be
    /// voluminous for large workloads).
    #[must_use]
    pub fn with_mem_instants(mut self) -> Self {
        self.include_mem = true;
        self
    }

    fn flush_pending(&mut self) {
        if let Some(p) = self.pending.take() {
            self.events.push(ChromeEvent {
                name: p.kind.name().to_string(),
                cat: p.kind.category(),
                ph: 'X',
                ts: p.start,
                dur: Some(p.count),
                tid: p.track,
                args: None,
            });
        }
    }

    /// Emits a counter sample (`ph: 'C'`): one data point per series of
    /// the counter named `name` at `ts`. Perfetto renders each `series`
    /// key as a stacked band of the counter track. Values are
    /// pre-rendered by the caller (fixed-precision strings keep exports
    /// deterministic; they must be valid JSON number literals).
    pub fn counter(&mut self, track: u32, ts: u64, name: &str, series: &[(&str, String)]) {
        self.flush_pending();
        let mut args = String::with_capacity(series.len() * 24);
        for (i, (key, value)) in series.iter().enumerate() {
            if i > 0 {
                args.push(',');
            }
            args.push('"');
            escape_json_into(&mut args, key);
            args.push_str("\":");
            args.push_str(value);
        }
        self.events.push(ChromeEvent {
            name: name.to_string(),
            cat: "counter",
            ph: 'C',
            ts,
            dur: None,
            tid: track,
            args: Some(args),
        });
    }

    /// Number of events emitted so far (after coalescing, excluding one
    /// possibly still-pending slice).
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.events.len() + usize::from(self.pending.is_some())
    }

    /// Serializes everything seen so far as Chrome trace-event JSON.
    #[must_use]
    pub fn to_json(&mut self) -> String {
        self.flush_pending();
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            escape_json_into(&mut out, &e.name);
            out.push_str("\",\"cat\":\"");
            escape_json_into(&mut out, e.cat);
            out.push_str("\",\"ph\":\"");
            out.push(e.ph);
            out.push_str("\",\"ts\":");
            out.push_str(&e.ts.to_string());
            if let Some(dur) = e.dur {
                out.push_str(",\"dur\":");
                out.push_str(&dur.to_string());
            }
            if e.ph == 'i' {
                out.push_str(",\"s\":\"t\"");
            }
            if let Some(args) = &e.args {
                out.push_str(",\"args\":{");
                out.push_str(args);
                out.push('}');
            }
            out.push_str(",\"pid\":1,\"tid\":");
            out.push_str(&e.tid.to_string());
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Appends `s` to `out` with JSON string escaping.
fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl TraceSink for PerfettoSink {
    fn beat(&mut self, track: u32, cycle: u64, kind: BeatKind) {
        self.beats(track, cycle, kind, 1);
    }

    fn beats(&mut self, track: u32, cycle: u64, kind: BeatKind, count: u64) {
        if let Some(p) = &mut self.pending {
            if p.track == track && p.kind == kind && cycle == p.start + p.count {
                p.count += count;
                return;
            }
        }
        self.flush_pending();
        self.pending = Some(PendingSlice {
            track,
            kind,
            start: cycle,
            count,
        });
    }

    fn mem(&mut self, track: u32, cycle: u64, dir: MemDir, addr: usize, lanes: usize) {
        if !self.include_mem {
            return;
        }
        self.flush_pending();
        let dir_name = match dir {
            MemDir::Load => "load",
            MemDir::Store => "store",
        };
        self.events.push(ChromeEvent {
            name: format!("{dir_name} r{addr} ({lanes}w)"),
            cat: "mem",
            ph: 'i',
            ts: cycle,
            dur: None,
            tid: track,
            args: None,
        });
    }

    fn span_begin(&mut self, track: u32, ts: u64, name: &str) {
        self.flush_pending();
        self.events.push(ChromeEvent {
            name: name.to_string(),
            cat: "span",
            ph: 'B',
            ts,
            dur: None,
            tid: track,
            args: None,
        });
    }

    fn span_end(&mut self, track: u32, ts: u64, name: &str) {
        self.flush_pending();
        self.events.push(ChromeEvent {
            name: name.to_string(),
            cat: "span",
            ph: 'E',
            ts,
            dur: None,
            tid: track,
            args: None,
        });
    }
}

/// A cloneable handle sharing one sink between an owner and a `Vpu` (or
/// the thread-local global slot): `Rc<RefCell<S>>` with [`TraceSink`]
/// delegation, so the owner can inspect the sink after the traced run.
#[derive(Debug, Default)]
pub struct SharedSink<S> {
    inner: Rc<RefCell<S>>,
}

impl<S> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        Self {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<S: TraceSink> SharedSink<S> {
    /// Wraps a sink in a shared handle.
    #[must_use]
    pub fn new(sink: S) -> Self {
        Self {
            inner: Rc::new(RefCell::new(sink)),
        }
    }

    /// Runs `f` with shared access to the inner sink.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }
}

impl<S: TraceSink> TraceSink for SharedSink<S> {
    fn enabled(&self) -> bool {
        self.inner.borrow().enabled()
    }

    fn beat(&mut self, track: u32, cycle: u64, kind: BeatKind) {
        self.inner.borrow_mut().beat(track, cycle, kind);
    }

    fn beats(&mut self, track: u32, cycle: u64, kind: BeatKind, count: u64) {
        self.inner.borrow_mut().beats(track, cycle, kind, count);
    }

    fn mem(&mut self, track: u32, cycle: u64, dir: MemDir, addr: usize, lanes: usize) {
        self.inner.borrow_mut().mem(track, cycle, dir, addr, lanes);
    }

    fn span_begin(&mut self, track: u32, ts: u64, name: &str) {
        self.inner.borrow_mut().span_begin(track, ts, name);
    }

    fn span_end(&mut self, track: u32, ts: u64, name: &str) {
        self.inner.borrow_mut().span_end(track, ts, name);
    }

    fn fault_hooks_enabled(&self) -> bool {
        self.inner.borrow().fault_hooks_enabled()
    }

    fn fault_data(&mut self, track: u32, cycle: u64, site: FaultSite, data: &mut [u64]) {
        self.inner.borrow_mut().fault_data(track, cycle, site, data);
    }
}

/// A `Send` cloneable handle sharing one sink across threads:
/// `Arc<Mutex<S>>` with [`TraceSink`] delegation. The cross-thread
/// counterpart of [`SharedSink`] — install it with
/// [`install_global_sync`] so `uvpu-par` pool workers inherit it.
#[derive(Debug, Default)]
pub struct SyncSink<S> {
    inner: Arc<Mutex<S>>,
}

impl<S> Clone for SyncSink<S> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<S: TraceSink> SyncSink<S> {
    /// Wraps a sink in a thread-safe shared handle.
    #[must_use]
    pub fn new(sink: S) -> Self {
        Self {
            inner: Arc::new(Mutex::new(sink)),
        }
    }

    /// Runs `f` with exclusive access to the inner sink. Poisoning is
    /// ignored: sinks stay structurally valid after a panicking writer.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.inner.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl<S: TraceSink> TraceSink for SyncSink<S> {
    fn enabled(&self) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .enabled()
    }

    fn beat(&mut self, track: u32, cycle: u64, kind: BeatKind) {
        self.with(|s| s.beat(track, cycle, kind));
    }

    fn beats(&mut self, track: u32, cycle: u64, kind: BeatKind, count: u64) {
        self.with(|s| s.beats(track, cycle, kind, count));
    }

    fn mem(&mut self, track: u32, cycle: u64, dir: MemDir, addr: usize, lanes: usize) {
        self.with(|s| s.mem(track, cycle, dir, addr, lanes));
    }

    fn span_begin(&mut self, track: u32, ts: u64, name: &str) {
        self.with(|s| s.span_begin(track, ts, name));
    }

    fn span_end(&mut self, track: u32, ts: u64, name: &str) {
        self.with(|s| s.span_end(track, ts, name));
    }

    fn fault_hooks_enabled(&self) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .fault_hooks_enabled()
    }

    fn fault_data(&mut self, track: u32, cycle: u64, site: FaultSite, data: &mut [u64]) {
        self.with(|s| s.fault_data(track, cycle, site, data));
    }
}

thread_local! {
    static GLOBAL_SINK: RefCell<Option<Box<dyn TraceSink>>> = const { RefCell::new(None) };
    static GLOBAL_SEQ: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// When set, the logical clock for this thread's global sink is the
    /// process-wide shared counter instead of [`GLOBAL_SEQ`].
    static SHARED_SEQ: RefCell<Option<Arc<AtomicU64>>> = const { RefCell::new(None) };
}

/// What pool workers install on entry when a sync global sink is active:
/// a factory for sink handles plus the shared sequence clock.
struct Propagate {
    make: Box<dyn Fn() -> Box<dyn TraceSink> + Send + Sync>,
    seq: Arc<AtomicU64>,
}

static PROPAGATE: Mutex<Option<Arc<Propagate>>> = Mutex::new(None);

fn propagate_state() -> Option<Arc<Propagate>> {
    PROPAGATE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// `uvpu-par` worker start hook: adopt the propagated sync sink handle
/// and the shared sequence clock for this worker's lifetime.
fn worker_adopt_global() {
    if let Some(state) = propagate_state() {
        SHARED_SEQ.with(|slot| *slot.borrow_mut() = Some(Arc::clone(&state.seq)));
        GLOBAL_SINK.with(|slot| *slot.borrow_mut() = Some((state.make)()));
    }
}

/// `uvpu-par` worker exit hook: drop this worker's sink handle.
fn worker_release_global() {
    GLOBAL_SINK.with(|slot| slot.borrow_mut().take());
    SHARED_SEQ.with(|slot| slot.borrow_mut().take());
}

/// Installs a thread-local global sink for scheme-level spans (CKKS/BFV
/// phases, scheduler tasks). Resets the logical sequence clock. Install a
/// [`SharedSink`] handle (boxed) to keep a second handle for reading the
/// data back afterwards.
///
/// The installed sink is visible to *this thread only*; spans emitted
/// from `uvpu-par` pool workers are not captured. Use
/// [`install_global_sync`] when traced work runs on the pool.
pub fn install_global(sink: Box<dyn TraceSink>) {
    SHARED_SEQ.with(|slot| slot.borrow_mut().take());
    GLOBAL_SEQ.with(|seq| seq.set(0));
    GLOBAL_SINK.with(|slot| *slot.borrow_mut() = Some(sink));
}

/// Removes and returns the thread-local global sink, if any.
pub fn take_global() -> Option<Box<dyn TraceSink>> {
    GLOBAL_SINK.with(|slot| slot.borrow_mut().take())
}

/// Installs `sink` as the global span sink for this thread *and* for
/// every `uvpu-par` pool worker spawned while it is installed
/// (install-on-spawn via [`uvpu_par::install_worker_hooks`]).
///
/// The logical sequence clock becomes one process-wide monotonic atomic
/// shared by all participating threads (see the module docs for what
/// that means for cross-thread timestamp ordering). Keep a clone of the
/// handle to read the data back; uninstall with [`take_global_sync`].
pub fn install_global_sync<S: TraceSink + Send + 'static>(sink: SyncSink<S>) {
    let seq = Arc::new(AtomicU64::new(0));
    let factory = sink.clone();
    *PROPAGATE.lock().unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(Propagate {
        make: Box::new(move || Box::new(factory.clone()) as Box<dyn TraceSink>),
        seq: Arc::clone(&seq),
    }));
    uvpu_par::install_worker_hooks(worker_adopt_global, worker_release_global);
    SHARED_SEQ.with(|slot| *slot.borrow_mut() = Some(seq));
    GLOBAL_SINK.with(|slot| *slot.borrow_mut() = Some(Box::new(sink)));
}

/// Uninstalls a [`install_global_sync`] sink: stops propagation into new
/// pool workers, unregisters the worker hooks, and returns this thread's
/// handle (if any). Workers currently running keep their clones until
/// they exit.
pub fn take_global_sync() -> Option<Box<dyn TraceSink>> {
    *PROPAGATE.lock().unwrap_or_else(PoisonError::into_inner) = None;
    uvpu_par::clear_worker_hooks();
    SHARED_SEQ.with(|slot| slot.borrow_mut().take());
    take_global()
}

/// Whether a global sink is installed *and* enabled. Scheme crates check
/// this before `format!`ing span names.
#[must_use]
pub fn global_enabled() -> bool {
    GLOBAL_SINK.with(|slot| slot.borrow().as_ref().is_some_and(|s| s.enabled()))
}

fn next_seq() -> u64 {
    let shared = SHARED_SEQ.with(|slot| {
        slot.borrow()
            .as_ref()
            .map(|seq| seq.fetch_add(1, Ordering::Relaxed))
    });
    if let Some(ts) = shared {
        return ts;
    }
    GLOBAL_SEQ.with(|seq| {
        let t = seq.get();
        seq.set(t + 1);
        t
    })
}

/// Runs `f` against the global sink if one is installed.
fn with_global(f: impl FnOnce(&mut dyn TraceSink, u64)) {
    GLOBAL_SINK.with(|slot| {
        if let Some(sink) = slot.borrow_mut().as_mut() {
            f(&mut **sink, next_seq());
        }
    });
}

/// RAII guard closing a scheme-level span on drop. Inert (allocation-free)
/// when no global sink is installed.
#[derive(Debug)]
pub struct SpanGuard {
    name: Option<String>,
    track: u32,
}

impl SpanGuard {
    fn open(track: u32, name: &str) -> Self {
        let mut opened = None;
        with_global(|sink, ts| {
            sink.span_begin(track, ts, name);
            opened = Some(name.to_string());
        });
        Self {
            name: opened,
            track,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            with_global(|sink, ts| sink.span_end(self.track, ts, &name));
        }
    }
}

/// Opens a scheme-level span on [`SCHEME_TRACK`] against the global sink.
/// Returns an inert guard when no sink is installed.
#[must_use]
pub fn scheme_span(name: &str) -> SpanGuard {
    SpanGuard::open(SCHEME_TRACK, name)
}

/// Like [`scheme_span`], but the name is built lazily so disabled runs
/// never pay for the `format!`.
#[must_use]
pub fn scheme_span_lazy(f: impl FnOnce() -> String) -> SpanGuard {
    if global_enabled() {
        SpanGuard::open(SCHEME_TRACK, &f())
    } else {
        SpanGuard {
            name: None,
            track: SCHEME_TRACK,
        }
    }
}

/// Opens a span on an explicit track against the global sink (the
/// accelerator scheduler uses one track per VPU slot).
#[must_use]
pub fn global_span(track: u32, name: &str) -> SpanGuard {
    SpanGuard::open(track, name)
}

/// Emits a matched begin/end span pair with explicit timestamps against
/// the global sink (for replaying a precomputed schedule, where start and
/// end times are known rather than discovered). No-op without a sink.
pub fn global_span_at(track: u32, name: &str, start: u64, end: u64) {
    GLOBAL_SINK.with(|slot| {
        if let Some(sink) = slot.borrow_mut().as_mut() {
            sink.span_begin(track, start, name);
            sink.span_end(track, end.max(start), name);
        }
    });
}

/// Emits the begin half of a span with an explicit timestamp against the
/// global sink. Pair with [`global_span_end_at`]; unlike
/// [`global_span_at`] the span stays open across other emissions, so
/// tree-building sinks see events in between as *children* of this span
/// (the scheduler wraps each slot's task timeline in an `accel.batch`
/// parent this way). No-op without a sink.
pub fn global_span_begin_at(track: u32, name: &str, ts: u64) {
    GLOBAL_SINK.with(|slot| {
        if let Some(sink) = slot.borrow_mut().as_mut() {
            sink.span_begin(track, ts, name);
        }
    });
}

/// Emits the end half of a span opened with [`global_span_begin_at`].
/// No-op without a sink.
pub fn global_span_end_at(track: u32, name: &str, ts: u64) {
    GLOBAL_SINK.with(|slot| {
        if let Some(sink) = slot.borrow_mut().as_mut() {
            sink.span_end(track, ts, name);
        }
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::control::ShiftControls;

    #[test]
    fn netkind_classifies_all_pass_shapes() {
        assert_eq!(NetKind::from_pass(&NetworkPass::default()), NetKind::Route);
        assert_eq!(
            NetKind::from_pass(&NetworkPass::cg(CgDirection::Dif)),
            NetKind::CgShuffle
        );
        assert_eq!(
            NetKind::from_pass(&NetworkPass::cg(CgDirection::Dit)),
            NetKind::CgUnshuffle
        );
        let shifts = ShiftControls::from_rotation(8, 1);
        assert_eq!(
            NetKind::from_pass(&NetworkPass::shift(shifts.clone())),
            NetKind::Shift
        );
        let both = NetworkPass {
            cg: Some(CgDirection::Dit),
            shifts: Some(shifts),
        };
        assert_eq!(NetKind::from_pass(&both), NetKind::CgUnshuffleShift);
    }

    #[test]
    fn counter_sink_reconstructs_cycle_stats() {
        let mut sink = CounterSink::new();
        sink.beat(0, 0, BeatKind::Butterfly);
        sink.beat(0, 1, BeatKind::Elementwise(EwiseOp::Mul));
        sink.beats(0, 2, BeatKind::NetworkMove(NetKind::Shift), 5);
        assert_eq!(sink.running().butterfly, 1);
        assert_eq!(sink.running().elementwise, 1);
        assert_eq!(sink.running().network_move, 5);
        assert_eq!(sink.running().total(), 7);
        assert_eq!(sink.net_beats(NetKind::Shift), 5);
        assert_eq!(sink.ewise_beats(EwiseOp::Mul), 1);
    }

    #[test]
    fn counter_sink_attributes_spans() {
        let mut sink = CounterSink::new();
        sink.span_begin(0, 0, "outer");
        sink.beat(0, 0, BeatKind::Butterfly);
        sink.span_begin(0, 1, "inner");
        sink.beat(0, 1, BeatKind::NetworkMove(NetKind::Shift));
        sink.span_end(0, 2, "inner");
        sink.span_end(0, 2, "outer");
        let outer = sink.phases()["outer"];
        let inner = sink.phases()["inner"];
        assert_eq!(outer.total(), 2, "outer observes the nested beat too");
        assert_eq!(inner.total(), 1);
        assert_eq!(inner.network_move, 1);
    }

    #[test]
    fn counter_sink_tolerates_interleaved_span_ends() {
        let mut sink = CounterSink::new();
        sink.span_begin(0, 0, "a");
        sink.span_begin(1, 0, "b");
        sink.beat(0, 0, BeatKind::Butterfly);
        sink.span_end(0, 1, "a");
        sink.span_end(1, 1, "b");
        sink.span_end(1, 1, "never-opened");
        assert_eq!(sink.phases().len(), 2);
        assert_eq!(sink.phases()["a"].butterfly, 1);
        assert_eq!(sink.unmatched_span_ends(), 1, "the bad end is counted");
    }

    #[test]
    fn ring_buffer_bounds_and_counts_drops() {
        let mut sink = RingBufferSink::new(3);
        for i in 0..5u64 {
            sink.beat(0, i, BeatKind::Butterfly);
        }
        assert_eq!(sink.events().len(), 3);
        assert_eq!(sink.dropped(), 2);
        match &sink.events()[0] {
            TraceEvent::Beat { cycle, .. } => assert_eq!(*cycle, 2),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn ring_buffer_attributes_drops_by_category_and_clears() {
        let mut sink = RingBufferSink::new(2);
        sink.beat(0, 0, BeatKind::Butterfly);
        sink.mem(0, 1, MemDir::Load, 0, 64);
        sink.span_begin(0, 2, "s");
        sink.span_end(0, 3, "s");
        // Capacity 2: the beat and the mem were evicted; the two span
        // events remain.
        assert_eq!(sink.dropped(), 2);
        assert_eq!(sink.dropped_by_kind(), (1, 1, 0));
        sink.span_begin(0, 4, "t");
        assert_eq!(sink.dropped_by_kind(), (1, 1, 1));
        let (b, m, s) = sink.dropped_by_kind();
        assert_eq!(b + m + s, sink.dropped(), "categories partition total");
        sink.clear();
        assert_eq!(sink.events().len(), 0);
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.dropped_by_kind(), (0, 0, 0));
        assert_eq!(sink.capacity(), 2, "capacity survives clear");
        sink.beat(0, 5, BeatKind::Butterfly);
        assert_eq!(sink.events().len(), 1, "reusable after clear");
    }

    #[test]
    fn ring_buffer_high_water_mark_survives_queries() {
        let mut sink = RingBufferSink::new(2);
        for i in 0..5u64 {
            sink.beat(0, i, BeatKind::Butterfly);
        }
        assert_eq!(sink.dropped(), 3);
        assert_eq!(sink.dropped_since_last_read(), 3);
        // Querying does not clear the mark.
        assert_eq!(sink.dropped_since_last_read(), 3);
        sink.mark_read();
        assert_eq!(sink.dropped_since_last_read(), 0);
        assert_eq!(sink.dropped(), 3, "lifetime total survives mark_read");
        sink.beat(0, 5, BeatKind::Butterfly);
        assert_eq!(sink.dropped_since_last_read(), 1, "new window counts");
        assert_eq!(sink.dropped(), 4);
        sink.clear();
        assert_eq!(sink.dropped_since_last_read(), 0, "clear resets the mark");
    }

    #[test]
    fn perfetto_coalesces_consecutive_beats() {
        let mut sink = PerfettoSink::new();
        for i in 0..10u64 {
            sink.beat(0, i, BeatKind::Butterfly);
        }
        sink.beat(0, 10, BeatKind::NetworkMove(NetKind::Shift));
        let json = sink.to_json();
        assert_eq!(
            json.matches("\"name\":\"butterfly\"").count(),
            1,
            "ten identical beats coalesce into one slice: {json}"
        );
        assert!(json.contains("\"dur\":10"));
        assert!(json.contains("\"name\":\"net.shift\""));
    }

    #[test]
    fn perfetto_emits_valid_json_shape() {
        let mut sink = PerfettoSink::new().with_mem_instants();
        sink.span_begin(3, 0, "phase \"x\"\n");
        sink.beat(3, 0, BeatKind::Elementwise(EwiseOp::Mac));
        sink.mem(3, 1, MemDir::Load, 7, 64);
        sink.span_end(3, 1, "phase \"x\"\n");
        let json = sink.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\\\"x\\\"\\n"), "escaped: {json}");
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"tid\":3"));
        // Balanced braces/brackets outside strings — cheap validity probe.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn shared_sink_exposes_data_after_run() {
        let shared = SharedSink::new(CounterSink::new());
        let mut handle = shared.clone();
        handle.beat(0, 0, BeatKind::Butterfly);
        assert_eq!(shared.with(|s| s.running().butterfly), 1);
    }

    #[test]
    fn global_span_api_round_trips() {
        let shared = SharedSink::new(RingBufferSink::new(16));
        install_global(Box::new(shared.clone()));
        assert!(global_enabled());
        {
            let _g = scheme_span("ckks.mul");
            let _h = scheme_span_lazy(|| format!("rotate k={}", 3));
        }
        global_span_at(2, "task", 10, 20);
        let sink = take_global();
        assert!(sink.is_some());
        assert!(!global_enabled());
        shared.with(|s| {
            assert_eq!(s.events().len(), 6);
            match &s.events()[0] {
                TraceEvent::SpanBegin { name, ts, track } => {
                    assert_eq!(name, "ckks.mul");
                    assert_eq!(*ts, 0);
                    assert_eq!(*track, SCHEME_TRACK);
                }
                other => panic!("unexpected {other:?}"),
            }
            match &s.events()[5] {
                TraceEvent::SpanEnd { name, ts, track } => {
                    assert_eq!(name, "task");
                    assert_eq!(*ts, 20);
                    assert_eq!(*track, 2);
                }
                other => panic!("unexpected {other:?}"),
            }
        });
    }

    #[test]
    fn lazy_span_skips_formatting_when_disabled() {
        assert!(take_global().is_none());
        let _g = scheme_span_lazy(|| panic!("must not format when no sink installed"));
    }

    #[test]
    fn nop_sink_is_disabled_and_zero_sized() {
        assert!(!NopSink.enabled());
        assert_eq!(std::mem::size_of::<NopSink>(), 0);
    }
}
