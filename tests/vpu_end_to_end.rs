//! End-to-end integration: the VPU pipelines against the golden models,
//! across crate boundaries.

use uvpu::math::modular::Modulus;
use uvpu::math::ntt::{naive_cyclic_dft, naive_negacyclic_mul, NttTable};
use uvpu::math::primes::ntt_prime;
use uvpu::vpu::auto_map::AutomorphismMapping;
use uvpu::vpu::ntt_map::NttPlan;
use uvpu::vpu::vpu::Vpu;

fn modulus(n: usize) -> Modulus {
    Modulus::new(ntt_prime(50, n).expect("prime")).expect("modulus")
}

#[test]
fn vpu_cyclic_ntt_equals_naive_dft_across_sizes() {
    for (n, m) in [(256usize, 16usize), (512, 64), (1024, 64), (4096, 64)] {
        let q = modulus(n);
        let plan = NttPlan::new(q, n, m).expect("plan");
        let mut vpu = Vpu::new(m, q, 8).expect("vpu");
        let data: Vec<u64> = (0..n as u64).map(|i| q.reduce_u64(i * 17 + 3)).collect();
        let got = plan.execute_forward(&mut vpu, &data).expect("forward");
        let expect = naive_cyclic_dft(&data, plan.omega(), &q);
        assert_eq!(got.output, expect, "n={n} m={m}");
    }
}

#[test]
fn vpu_polynomial_multiplication_pipeline() {
    // Complete FHE-style polynomial product, entirely on the VPU:
    // forward NTTs -> pointwise product in lanes -> inverse NTT.
    let (n, m) = (512usize, 64usize);
    let q = modulus(n);
    let plan = NttPlan::new(q, n, m).expect("plan");
    let mut vpu = Vpu::new(m, q, 8).expect("vpu");

    let a: Vec<u64> = (0..n as u64).map(|i| q.reduce_u64(i + 1)).collect();
    let b: Vec<u64> = (0..n as u64).map(|i| q.reduce_u64(2 * i + 5)).collect();
    let fa = plan
        .execute_forward_negacyclic(&mut vpu, &a)
        .expect("fa")
        .output;
    let fb = plan
        .execute_forward_negacyclic(&mut vpu, &b)
        .expect("fb")
        .output;

    // Pointwise product through the lanes, column by column.
    let mut prod = vec![0u64; n];
    for c in 0..n / m {
        vpu.load(0, &fa[c * m..(c + 1) * m]).expect("load");
        vpu.load(1, &fb[c * m..(c + 1) * m]).expect("load");
        vpu.ewise_mul(2, 0, 1).expect("mul");
        prod[c * m..(c + 1) * m].copy_from_slice(&vpu.store(2).expect("store"));
    }
    let got = plan
        .execute_inverse_negacyclic(&mut vpu, &prod)
        .expect("inv")
        .output;
    assert_eq!(got, naive_negacyclic_mul(&a, &b, &q));
}

#[test]
fn vpu_forward_matches_golden_table_as_multiset() {
    // The golden-model NttTable and the VPU pipeline evaluate at the same
    // points in different orders.
    let (n, m) = (1024usize, 64usize);
    let q = modulus(n);
    let table = NttTable::new(q, n).expect("table");
    let plan = NttPlan::new(q, n, m).expect("plan");
    let mut vpu = Vpu::new(m, q, 8).expect("vpu");
    let data: Vec<u64> = (0..n as u64).map(|i| q.reduce_u64(i * 7 + 11)).collect();

    let vpu_out = plan
        .execute_forward_negacyclic(&mut vpu, &data)
        .expect("vpu ntt")
        .output;
    let mut table_out = data;
    table.forward_inplace(&mut table_out);

    let mut x = vpu_out;
    let mut y = table_out;
    x.sort_unstable();
    y.sort_unstable();
    assert_eq!(x, y);
}

#[test]
fn automorphism_then_inverse_is_identity_on_vpu() {
    let (n, m) = (4096usize, 64usize);
    let q = modulus(n);
    let mut vpu = Vpu::new(m, q, 8).expect("vpu");
    let data: Vec<u64> = (0..n as u64).collect();
    for g in [5u64, 25, 4095] {
        let fwd = AutomorphismMapping::new(n, m, g, 0).expect("plan");
        let g_inv = uvpu::math::util::mod_inverse(g, n as u64).expect("odd g");
        let bwd = AutomorphismMapping::new(n, m, g_inv, 0).expect("plan");
        let mid = fwd.execute(&mut vpu, &data).expect("fwd").output;
        let back = bwd.execute(&mut vpu, &mid).expect("bwd").output;
        assert_eq!(back, data, "g={g}");
    }
}

#[test]
fn every_operation_reports_consistent_cycle_stats() {
    let (n, m) = (1024usize, 64usize);
    let q = modulus(n);
    let plan = NttPlan::new(q, n, m).expect("plan");
    let mut vpu = Vpu::new(m, q, 8).expect("vpu");
    let data: Vec<u64> = (0..n as u64).collect();

    vpu.reset_stats();
    let ntt = plan
        .execute_forward_negacyclic(&mut vpu, &data)
        .expect("run");
    // The per-execution delta must equal the VPU's global accumulation.
    assert_eq!(*vpu.stats(), ntt.stats);
    // Ideal beats are a lower bound on compute beats.
    assert!(ntt.stats.compute() >= plan.ideal_compute_beats(true) - 1);
}

#[test]
fn ideal_beats_bound_partial_columns_too() {
    // A transform shorter than the VPU still occupies one (partial)
    // column, so its ideal beat count is positive and stays a lower
    // bound on the compute beats actually charged.
    for (n, m) in [(32usize, 64usize), (2, 64)] {
        let q = modulus(n);
        let plan = NttPlan::new(q, n, m).expect("plan");
        let mut vpu = Vpu::new(m, q, 8).expect("vpu");
        let data: Vec<u64> = (0..n as u64).collect();
        for negacyclic in [false, true] {
            let run = if negacyclic {
                plan.execute_forward_negacyclic(&mut vpu, &data)
            } else {
                plan.execute_forward(&mut vpu, &data)
            }
            .expect("run");
            let ideal = plan.ideal_compute_beats(negacyclic);
            assert!(ideal > 0, "n={n}");
            assert!(
                run.stats.compute() >= ideal,
                "n={n} negacyclic={negacyclic}"
            );
        }
    }
}
