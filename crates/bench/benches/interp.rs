//! Criterion bench: stencil and interpolation kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use gw_par::Isa;
use gw_stencil::fd::DerivOps;
use gw_stencil::interp::{FineBox, ProlongWorkspace, Prolongation, FINE_SIDE};
use gw_stencil::ko::ko_dissipation;
use gw_stencil::patch::{BLOCK_VOLUME, PATCH_VOLUME};

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("stencil");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let patch: Vec<f64> = (0..PATCH_VOLUME).map(|i| (i % 31) as f64 * 0.01).collect();
    let mut out = vec![0.0; BLOCK_VOLUME];
    let ops = DerivOps::new(0.05);

    group.bench_function("deriv-x", |b| b.iter(|| ops.deriv(0, &patch, &mut out)));
    group.bench_function("deriv2-z", |b| b.iter(|| ops.deriv2(2, &patch, &mut out)));
    group.bench_function("deriv-mixed-xy", |b| b.iter(|| ops.deriv_mixed(0, 1, &patch, &mut out)));
    group.bench_function("advective-x", |b| {
        b.iter(|| ops.deriv_advective(0, &patch, true, &mut out))
    });
    group.bench_function("ko-dissipation", |b| {
        b.iter(|| ko_dissipation(0.4, 20.0, &patch, &mut out))
    });

    // The full-block prolongation (the gpu-sim o2p kernel's), at the
    // baseline tier and at the host's (DESIGN.md §19).
    let prolong = Prolongation::new();
    let coarse = vec![1.0; BLOCK_VOLUME];
    let mut fine = vec![0.0; FINE_SIDE * FINE_SIDE * FINE_SIDE];
    let mut ws = ProlongWorkspace::new();
    for isa in [Isa::Baseline, Isa::host()] {
        group.bench_function(format!("prolong3d-{isa}"), |b| {
            b.iter(|| prolong.prolong_box_into_at(isa, &coarse, &mut fine, &mut ws, FineBox::FULL))
        });
    }

    // All 210 derivatives of one octant (the paper's per-octant load).
    let mut dws = gw_bssn::DerivWorkspace::new();
    let patches: Vec<Vec<f64>> = (0..24).map(|_| patch.clone()).collect();
    let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
    group.bench_function("all-210-derivatives", |b| b.iter(|| dws.compute(&refs, 0.05)));

    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
