//! `uvpu-par` — a small, dependency-free data-parallel execution layer.
//!
//! The build environment has no network access, so this crate hand-rolls
//! the two primitives the workspace needs instead of pulling in rayon:
//!
//! 1. **Deterministic parallel maps** over an index range
//!    ([`par_map_indexed`], [`par_map_indexed_with`], [`par_map_vec`])
//!    built on [`std::thread::scope`]. Workers pull indices from a shared
//!    atomic counter (dynamic load balancing), but results are collected
//!    *by index*, so the output vector is bit-exact regardless of thread
//!    count or scheduling. RNS residues, VPU lane columns, and
//!    accelerator task measurements are all embarrassingly independent —
//!    the only thing parallelism may change is wall-clock time.
//!
//! 2. **A process-wide plan cache** ([`Memo`]): a sharded
//!    `Mutex<HashMap<K, Arc<V>>>` suitable for `static` use, so NTT
//!    tables, cyclic-NTT twiddles, and automorphism control-bit
//!    decompositions are built once per `(q, n, g)` and shared by every
//!    context, bench, and worker thread.
//!
//! # Thread-count resolution
//!
//! The effective worker count is resolved, in priority order, from
//! 1. the runtime override ([`set_thread_override`] / [`with_threads`]),
//! 2. the `UVPU_THREADS` environment variable (read once per process),
//! 3. [`std::thread::available_parallelism`].
//!
//! A resolved count of 1 short-circuits every parallel primitive into a
//! plain sequential loop on the calling thread — no threads are spawned,
//! which keeps single-threaded runs (and their thread-local trace sinks)
//! exactly as they were.
//!
//! # Worker hooks
//!
//! Layers above (notably `uvpu_core::trace`) can register a pair of
//! plain-`fn` hooks via [`install_worker_hooks`]; the start hook runs in
//! every pool worker before it takes its first index and the exit hook
//! runs when the worker finishes (including on panic). This is how the
//! process-global trace sink is propagated into workers without this
//! crate depending on the trace layer.

#![forbid(unsafe_code)]

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks a mutex, ignoring poisoning: every structure in this crate is
/// valid after any partial mutation (worst case a cache misses).
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Thread-count resolution
// ---------------------------------------------------------------------

/// Runtime override; 0 means "unset".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `UVPU_THREADS`, parsed once; 0 means "unset or unparsable".
fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("UVPU_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(0)
    })
}

/// The number of worker threads parallel maps will use.
///
/// Resolution order: runtime override ([`set_thread_override`] /
/// [`with_threads`]) → `UVPU_THREADS` → available parallelism. Always
/// at least 1.
#[must_use]
pub fn max_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    let e = env_threads();
    if e > 0 {
        return e;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Sets (or with `None` clears) the process-wide thread-count override.
///
/// Takes precedence over `UVPU_THREADS`. Prefer [`with_threads`] in
/// tests — it restores the previous value and serializes against other
/// scoped overrides.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

thread_local! {
    /// Nesting depth of [`with_threads`] frames on this thread. Only the
    /// outermost frame takes the cross-thread serialization lock; nested
    /// frames (e.g. the fault executor pinning `with_threads(1)` inside a
    /// caller's `with_threads(n)` scope) just swap the override.
    static SCOPE_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Runs `f` with the thread-count override set to `threads`, restoring
/// the previous override afterwards (also on panic).
///
/// Concurrent `with_threads` calls (e.g. parallel test threads) are
/// serialized by an internal mutex, so the override each closure sees is
/// exactly the one it asked for. The call is **reentrant**: a nested
/// `with_threads` on the same thread already holds the serialization
/// lock through its outermost frame, so it only swaps the override and
/// restores it on exit — layers like the fault executor can pin a count
/// inside a caller's scope without deadlocking.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    static SCOPE_GUARD: Mutex<()> = Mutex::new(());

    let outermost = SCOPE_DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth == 0
    });
    struct DepthGuard;
    impl Drop for DepthGuard {
        fn drop(&mut self) {
            SCOPE_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    let _depth = DepthGuard;
    let _serial = if outermost {
        Some(lock(&SCOPE_GUARD))
    } else {
        None
    };

    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.swap(threads, Ordering::Relaxed));
    f()
}

// ---------------------------------------------------------------------
// Worker hooks
// ---------------------------------------------------------------------

/// `(on_start, on_exit)` pair run inside every pool worker.
type WorkerHooks = (fn(), fn());

/// The default slot name used by [`install_worker_hooks`].
const DEFAULT_HOOK_SLOT: &str = "default";

static HOOKS: Mutex<BTreeMap<&'static str, WorkerHooks>> = Mutex::new(BTreeMap::new());

/// Registers hooks run at the start and end of every pool worker thread.
///
/// The start hook runs before the worker takes its first work item; the
/// exit hook runs when the worker is done (including when a work item
/// panics). Replaces any previously installed pair *in the default
/// slot*; independent subsystems should use [`register_worker_hooks`]
/// with their own slot name instead. Plain `fn` pointers keep this
/// registry dependency-free; state travels through process globals on
/// the installer's side.
pub fn install_worker_hooks(on_start: fn(), on_exit: fn()) {
    register_worker_hooks(DEFAULT_HOOK_SLOT, on_start, on_exit);
}

/// Registers a named `(on_start, on_exit)` hook pair, replacing any pair
/// previously registered under the same `slot`.
///
/// Multiple subsystems (trace-sink propagation, the `uvpu-math` buffer
/// pool, …) can each own a slot without clobbering one another. Start
/// hooks run in slot-name order; exit hooks run in reverse slot-name
/// order (including when a work item panics).
pub fn register_worker_hooks(slot: &'static str, on_start: fn(), on_exit: fn()) {
    lock(&HOOKS).insert(slot, (on_start, on_exit));
}

/// Removes the hooks installed via [`install_worker_hooks`] (the default
/// slot only — named slots from [`register_worker_hooks`] stay).
pub fn clear_worker_hooks() {
    lock(&HOOKS).remove(DEFAULT_HOOK_SLOT);
}

/// Removes the hooks registered under `slot`, if any.
pub fn clear_worker_hooks_slot(slot: &'static str) {
    lock(&HOOKS).remove(slot);
}

/// Runs every registered start hook (in slot-name order) and returns a
/// guard that runs the exit hooks in reverse order on drop.
fn enter_worker() -> WorkerGuard {
    let hooks: Vec<WorkerHooks> = lock(&HOOKS).values().copied().collect();
    for (on_start, _) in &hooks {
        on_start();
    }
    WorkerGuard(hooks)
}

struct WorkerGuard(Vec<WorkerHooks>);

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        for (_, on_exit) in self.0.iter().rev() {
            on_exit();
        }
    }
}

// ---------------------------------------------------------------------
// Scoped pool
// ---------------------------------------------------------------------

/// A [`std::thread::Scope`] wrapper whose spawned threads run the
/// installed worker hooks (trace-sink propagation) around their body.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a scoped worker; the installed hooks run on entry/exit.
    pub fn spawn<T, F>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
    where
        T: Send + 'scope,
        F: FnOnce() -> T + Send + 'scope,
    {
        self.inner.spawn(move || {
            let _hooks = enter_worker();
            f()
        })
    }
}

/// Scoped-thread entry point: like [`std::thread::scope`], but every
/// thread spawned through the handed-out [`Scope`] runs the installed
/// worker hooks, so globally-installed trace sinks follow the work.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
{
    std::thread::scope(|s| f(&Scope { inner: s }))
}

/// Maps `f` over `0..len` in parallel, returning results in index order.
///
/// Equivalent to `(0..len).map(f).collect()` — bit-exact for any thread
/// count, because each index is processed exactly once and results are
/// placed by index. Runs sequentially when the effective thread count is
/// 1 or `len <= 1`. Panics in `f` propagate to the caller.
pub fn par_map_indexed<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_indexed_with(len, || (), |(), i| f(i))
}

/// Like [`par_map_indexed`], but each worker first builds a private
/// mutable context with `init` (scratch buffers, a scratch VPU, …) that
/// is reused across all indices that worker processes.
///
/// `f` must not let the context influence its *result* — the context is
/// per-worker state, and which worker handles which index is
/// scheduling-dependent.
pub fn par_map_indexed_with<C, R, IF, F>(len: usize, init: IF, f: F) -> Vec<R>
where
    R: Send,
    IF: Fn() -> C + Sync,
    F: Fn(&mut C, usize) -> R + Sync,
{
    let threads = max_threads().min(len);
    if threads <= 1 {
        let mut ctx = init();
        return (0..len).map(|i| f(&mut ctx, i)).collect();
    }

    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let _hooks = enter_worker();
                    let mut ctx = init();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break;
                        }
                        out.push((i, f(&mut ctx, i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(part) => part,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });

    let mut slots: Vec<Option<R>> = Vec::with_capacity(len);
    slots.resize_with(len, || None);
    for part in parts {
        for (i, r) in part {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index produced exactly once"))
        .collect()
}

/// [`par_map_indexed`] into a caller-provided buffer: clears `out`,
/// then fills it with `f(0), f(1), …` in index order.
///
/// The sequential path (effective thread count 1, or `len <= 1`)
/// performs **no heap allocation** when `out` already has capacity for
/// `len` results — this is what lets pooled callers like
/// `RnsPoly::mul` reach zero steady-state allocs/op. The parallel path
/// allocates its usual scheduling scaffolding but still places results
/// by index, so the contents of `out` are bit-exact across thread
/// counts.
pub fn par_map_indexed_into<R, F>(len: usize, f: F, out: &mut Vec<R>)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    out.clear();
    if max_threads().min(len) <= 1 {
        out.extend((0..len).map(f));
    } else {
        out.extend(par_map_indexed(len, f));
    }
}

/// Runs `f(ctx, index, piece)` over the consecutive `chunk`-element
/// pieces of `data` (the last may be shorter), **in place**: workers
/// pull pieces from a shared queue, each with a private context built by
/// `init`, so disjoint pieces are mutated concurrently without copying
/// results back. Every piece is a function of its index alone, so the
/// contents of `data` are bit-exact for any thread count.
///
/// Runs as a plain loop on the calling thread when the effective thread
/// count is 1 or there is a single piece.
///
/// # Errors
///
/// The error of the lowest-indexed failing piece (pieces are handed out
/// in index order and a worker stops only after its own failure, so
/// that piece is the same for any thread count).
///
/// # Panics
///
/// Panics if `chunk == 0`; panics in `f` propagate to the caller.
pub fn par_chunks_mut_with<T, C, E, IF, F>(
    data: &mut [T],
    chunk: usize,
    init: IF,
    f: F,
) -> Result<(), E>
where
    T: Send,
    E: Send,
    IF: Fn() -> C + Sync,
    F: Fn(&mut C, usize, &mut [T]) -> Result<(), E> + Sync,
{
    let threads = max_threads().min(data.len().div_ceil(chunk));
    if threads <= 1 {
        let mut ctx = init();
        return data
            .chunks_mut(chunk)
            .enumerate()
            .try_for_each(|(i, piece)| f(&mut ctx, i, piece));
    }
    let queue = Mutex::new(data.chunks_mut(chunk).enumerate());
    let failures: Vec<Option<(usize, E)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let _hooks = enter_worker();
                    let mut ctx = init();
                    loop {
                        let next = lock(&queue).next();
                        let (i, piece) = next?;
                        if let Err(e) = f(&mut ctx, i, piece) {
                            return Some((i, e));
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(failure) => failure,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });
    match failures.into_iter().flatten().min_by_key(|(i, _)| *i) {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// Consuming parallel map: moves each element of `items` into `f`
/// exactly once, returning results in the original order.
///
/// The owned-element counterpart of [`par_map_indexed`], for maps like
/// `Poly::to_evaluation` that take `self` by value.
pub fn par_map_vec<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if max_threads() <= 1 || items.len() <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    par_map_indexed(cells.len(), |i| {
        let item = lock(&cells[i]).take().expect("each item taken once");
        f(i, item)
    })
}

// ---------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------

const MEMO_SHARDS: usize = 16;

/// One lock-protected shard of a [`Memo`]'s key space.
type Shard<K, V> = Mutex<HashMap<K, Arc<V>>>;

/// A process-wide memo for expensive immutable plans (NTT tables,
/// automorphism decompositions), usable as a `static`.
///
/// Internally a fixed number of `Mutex<HashMap<K, Arc<V>>>` shards
/// selected by key hash, lazily initialized through a [`OnceLock`]. The
/// builder runs *outside* the shard lock, so a slow plan construction
/// never blocks lookups of other keys in the same shard; if two threads
/// race to build the same key, one result wins and both get the same
/// `Arc` afterwards.
pub struct Memo<K, V> {
    shards: OnceLock<Vec<Shard<K, V>>>,
}

impl<K: Hash + Eq + Clone, V> Memo<K, V> {
    /// Creates an empty memo (const, so it can be a `static`).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            shards: OnceLock::new(),
        }
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        let shards = self.shards.get_or_init(|| {
            (0..MEMO_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect()
        });
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &shards[(hasher.finish() as usize) % MEMO_SHARDS]
    }

    /// Returns the cached value for `key`, if present.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        lock(self.shard(key)).get(key).cloned()
    }

    /// Returns the cached value for `key`, building and inserting it
    /// with `build` on a miss. `build` runs without the shard lock held.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error; nothing is inserted in that case.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: &K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        if let Some(hit) = self.get(key) {
            return Ok(hit);
        }
        let built = Arc::new(build()?);
        let mut shard = lock(self.shard(key));
        Ok(shard.entry(key.clone()).or_insert(built).clone())
    }

    /// Number of cached entries (sums all shards).
    #[must_use]
    pub fn len(&self) -> usize {
        match self.shards.get() {
            None => 0,
            Some(shards) => shards.iter().map(|s| lock(s).len()).sum(),
        }
    }

    /// True if nothing is cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry (outstanding `Arc`s stay alive).
    pub fn clear(&self) {
        if let Some(shards) = self.shards.get() {
            for shard in shards {
                lock(shard).clear();
            }
        }
    }
}

impl<K: Hash + Eq + Clone, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_matches_sequential_for_every_thread_count() {
        let expect: Vec<u64> = (0..257u64).map(|i| i.wrapping_mul(i) ^ 0xABCD).collect();
        for threads in [1, 2, 4, 7] {
            let got = with_threads(threads, || {
                par_map_indexed(257, |i| (i as u64).wrapping_mul(i as u64) ^ 0xABCD)
            });
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_vec_consumes_each_item_once_in_order() {
        let items: Vec<String> = (0..64).map(|i| format!("item-{i}")).collect();
        let expect: Vec<String> = items.iter().map(|s| format!("{s}!")).collect();
        for threads in [1, 3, 8] {
            let got = with_threads(threads, || {
                par_map_vec(items.clone(), |_, s| format!("{s}!"))
            });
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_indexed_into_is_ordered_and_alloc_free_when_sequential() {
        let expect: Vec<usize> = (0..37).map(|i| i * 3).collect();
        for threads in [1, 2, 5] {
            let mut out = Vec::with_capacity(64);
            out.push(usize::MAX); // stale content must be cleared
            with_threads(threads, || {
                par_map_indexed_into(37, |i| i * 3, &mut out);
            });
            assert_eq!(out, expect, "threads = {threads}");
        }
        // Sequential path with sufficient capacity: the buffer is not
        // reallocated (same backing pointer before and after).
        let mut out: Vec<usize> = Vec::with_capacity(37);
        let before = out.as_ptr();
        with_threads(1, || par_map_indexed_into(37, |i| i + 1, &mut out));
        assert_eq!(out.as_ptr(), before, "sequential fill must not realloc");
        assert_eq!(out[36], 37);
    }

    #[test]
    fn par_chunks_mut_fills_in_place_and_reports_the_first_failure() {
        for threads in [1, 2, 4, 7] {
            let mut data = vec![0usize; 103];
            let done: Result<(), usize> = with_threads(threads, || {
                par_chunks_mut_with(
                    &mut data,
                    10,
                    || (),
                    |(), i, piece| {
                        for (j, x) in piece.iter_mut().enumerate() {
                            *x = i * 10 + j;
                        }
                        Ok(())
                    },
                )
            });
            assert_eq!(done, Ok(()));
            assert_eq!(data, (0..103).collect::<Vec<_>>(), "threads = {threads}");
            let failed = with_threads(threads, || {
                par_chunks_mut_with(
                    &mut data,
                    10,
                    || (),
                    |(), i, _| if i >= 3 { Err(i) } else { Ok(()) },
                )
            });
            assert_eq!(failed, Err(3), "threads = {threads}");
        }
    }

    #[test]
    fn per_worker_context_is_reused_not_shared() {
        let out = with_threads(4, || {
            par_map_indexed_with(
                100,
                || 0usize,
                |calls, i| {
                    *calls += 1;
                    i * 2
                },
            )
        });
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn with_threads_is_reentrant_on_the_same_thread() {
        // A nested frame must not deadlock on the serialization lock,
        // must see its own count, and must restore the outer count (and
        // finally the pre-existing override) on unwind. The enclosing
        // frame holds the lock, so the bare override below cannot race
        // other tests, and restores the override on exit.
        with_threads(1, || {
            set_thread_override(Some(3));
            let (outer_before, inner, outer_after) = with_threads(5, || {
                let before = max_threads();
                let inner = with_threads(2, || with_threads(6, max_threads).min(max_threads()));
                (before, inner, max_threads())
            });
            assert_eq!(outer_before, 5);
            assert_eq!(inner, 2, "doubly-nested frame restores its parent");
            assert_eq!(outer_after, 5, "nested frame restores the outer count");
            assert_eq!(max_threads(), 3, "nested frame restores the override");
        });
    }

    #[test]
    fn with_threads_restores_previous_override() {
        // The enclosing frame serializes the bare override against other
        // tests and restores it on exit.
        with_threads(1, || {
            set_thread_override(Some(3));
            let inner = with_threads(7, max_threads);
            assert_eq!(inner, 7);
            assert_eq!(max_threads(), 3);
        });
    }

    #[test]
    fn scope_spawns_run_worker_hooks() {
        static STARTS: AtomicU64 = AtomicU64::new(0);
        static EXITS: AtomicU64 = AtomicU64::new(0);
        fn on_start() {
            STARTS.fetch_add(1, Ordering::Relaxed);
        }
        fn on_exit() {
            EXITS.fetch_add(1, Ordering::Relaxed);
        }
        install_worker_hooks(on_start, on_exit);
        let total = scope(|s| {
            let a = s.spawn(|| 1u64);
            let b = s.spawn(|| 2u64);
            a.join().unwrap() + b.join().unwrap()
        });
        clear_worker_hooks();
        assert_eq!(total, 3);
        assert_eq!(
            STARTS.load(Ordering::Relaxed),
            EXITS.load(Ordering::Relaxed)
        );
        assert!(STARTS.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn named_hook_slots_are_independent() {
        static NAMED: AtomicU64 = AtomicU64::new(0);
        fn named_start() {
            NAMED.fetch_add(1, Ordering::Relaxed);
        }
        fn named_exit() {}
        register_worker_hooks("test-slot", named_start, named_exit);
        scope(|s| s.spawn(|| ()).join().unwrap());
        assert!(NAMED.load(Ordering::Relaxed) >= 1);
        clear_worker_hooks_slot("test-slot");
        let before = NAMED.load(Ordering::Relaxed);
        scope(|s| s.spawn(|| ()).join().unwrap());
        assert_eq!(NAMED.load(Ordering::Relaxed), before);
    }

    #[test]
    fn memo_builds_once_and_shares_the_arc() {
        static CACHE: Memo<(u64, usize), Vec<u64>> = Memo::new();
        let builds = AtomicU64::new(0);
        let a = CACHE
            .get_or_try_insert_with(&(97, 8), || {
                builds.fetch_add(1, Ordering::Relaxed);
                Ok::<_, ()>((0..8u64).collect())
            })
            .unwrap();
        let b = CACHE
            .get_or_try_insert_with(&(97, 8), || {
                builds.fetch_add(1, Ordering::Relaxed);
                Ok::<_, ()>(vec![])
            })
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert_eq!(CACHE.len(), 1);
        let miss = CACHE.get_or_try_insert_with(&(101, 8), || Err::<Vec<u64>, &str>("boom"));
        assert_eq!(miss.unwrap_err(), "boom");
        assert_eq!(CACHE.len(), 1);
    }

    #[test]
    fn parallel_memo_hits_converge_to_one_value() {
        static CACHE: Memo<u64, u64> = Memo::new();
        let values = with_threads(8, || {
            par_map_indexed(64, |i| {
                let v = CACHE
                    .get_or_try_insert_with(&(i as u64 % 4), || Ok::<_, ()>(i as u64))
                    .unwrap();
                *v
            })
        });
        for (i, v) in values.iter().enumerate() {
            assert_eq!(*v, values[i % 4], "same key ⇒ same cached value");
        }
        assert_eq!(CACHE.len(), 4);
    }
}
