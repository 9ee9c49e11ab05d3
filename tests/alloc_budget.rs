//! Heap-allocation budget of the VPU simulator's hot paths: a beat never
//! allocates, and a planned NTT or automorphism allocates a small
//! constant (its returned output buffer plus bookkeeping) independent of
//! the transform length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use uvpu::math::modular::Modulus;
use uvpu::math::primes::ntt_prime;
use uvpu::vpu::auto_map::AutomorphismMapping;
use uvpu::vpu::control::ShiftControls;
use uvpu::vpu::network::{CgDirection, NetworkPass};
use uvpu::vpu::ntt_map::NttPlan;
use uvpu::vpu::vpu::{PeaseStage, Vpu};

thread_local! {
    /// Allocations made by this thread (the test harness's other threads
    /// do not disturb the count).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    // The slot is gone while a thread tears down; nothing is measured then.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations per call of `op` over `reps` calls, after `op` has run
/// twice to fill pools and lazily built state.
fn allocs_per_call(reps: u64, mut op: impl FnMut()) -> u64 {
    op();
    op();
    let before = ALLOCS.with(Cell::get);
    for _ in 0..reps {
        op();
    }
    let total = ALLOCS.with(Cell::get) - before;
    assert_eq!(total % reps, 0, "steady state repeats exactly");
    total / reps
}

/// The per-execution budget: the output buffer, the per-shard start
/// snapshot, and slack for pool bookkeeping.
const EXECUTION_BUDGET: u64 = 4;

#[test]
fn beats_never_allocate_and_executions_allocate_a_constant() {
    let m = 64;
    uvpu::par::with_threads(1, || {
        let mut per_size = Vec::new();
        for n in [1usize << 12, 1 << 14] {
            let q = Modulus::new(ntt_prime(50, n).expect("prime")).expect("modulus");
            let plan = NttPlan::new(q, n, m).expect("plan");
            let auto = AutomorphismMapping::new(n, m, 5, 0).expect("automorphism plan");
            let mut vpu = Vpu::new(m, q, 8).expect("vpu");
            let data: Vec<u64> = (0..n as u64).collect();
            let spectrum = plan
                .execute_forward_negacyclic(&mut vpu, &data)
                .expect("forward")
                .output;
            let counts = [
                allocs_per_call(4, || {
                    plan.execute_forward_negacyclic(&mut vpu, &data)
                        .expect("forward");
                }),
                allocs_per_call(4, || {
                    plan.execute_inverse_negacyclic(&mut vpu, &spectrum)
                        .expect("inverse");
                }),
                allocs_per_call(4, || {
                    auto.execute(&mut vpu, &data).expect("automorphism");
                }),
            ];
            assert!(
                counts.iter().all(|&c| c <= EXECUTION_BUDGET),
                "n={n}: {counts:?} allocations per forward/inverse/automorphism"
            );
            per_size.push(counts);
        }
        assert_eq!(per_size[0], per_size[1], "independent of the length");

        let q = Modulus::new(ntt_prime(50, 1 << 12).expect("prime")).expect("modulus");
        let mut vpu = Vpu::new(m, q, 8).expect("vpu");
        let words: Vec<u64> = (1..=m as u64).collect();
        let mut out = vec![0u64; m];
        let pass = NetworkPass {
            cg: Some(CgDirection::Dif),
            shifts: Some(ShiftControls::from_rotation(m, 5)),
        };
        let controls = ShiftControls::from_rotation(m, 9);
        let addrs: Vec<usize> = (0..m).map(|lane| lane % 8).collect();
        let twiddles = &words[..m / 2];
        let beats = allocs_per_call(8, || {
            vpu.load(0, &words).expect("load");
            vpu.load(1, &words).expect("load");
            vpu.ewise_add(2, 0, 1).expect("add");
            vpu.ewise_sub(2, 2, 1).expect("sub");
            vpu.ewise_mul(3, 0, 1).expect("mul");
            vpu.ewise_mac(3, 0, 1).expect("mac");
            vpu.ewise_mul_const(4, 3, &words).expect("mul_const");
            vpu.pease_stage(0, &PeaseStage::Forward { twiddles }, m)
                .expect("forward stage");
            vpu.pease_stage(0, &PeaseStage::Inverse { twiddles }, 16)
                .expect("inverse stage");
            vpu.route(5, 0, &pass).expect("route");
            vpu.route_shift(5, 5, &controls).expect("shift route");
            vpu.route_scatter(5, &pass, &addrs).expect("scatter");
            vpu.gather_route(6, &addrs, &pass).expect("gather");
            vpu.store_into(6, &mut out).expect("store");
        });
        assert_eq!(beats, 0, "no beat touches the heap");
    });
}
