//! Criterion bench: BSSN RHS per-patch cost — the 210 derivatives alone,
//! then the whole RHS with the handwritten `A` and with the three
//! generated tapes (Fig. 11 / Table II microbenchmark).
//!
//! The whole-RHS rows run `bssn_rhs_patch`, the entry the solver calls,
//! at the host's vector tier (`gw_par::Isa::host`). The derivatives row
//! calls `DerivWorkspace::compute` directly, so it times the baseline
//! (SSE2) build of the stencils.

use criterion::{criterion_group, criterion_main, Criterion};
use gw_bssn::rhs::{bssn_rhs_patch, RhsMode, RhsWorkspace};
use gw_bssn::{BssnParams, DerivWorkspace};
use gw_expr::bssn::build_bssn_rhs;
use gw_expr::schedule::{schedule, ScheduleStrategy};
use gw_expr::symbols::NUM_VARS;
use gw_expr::tape::Tape;
use gw_stencil::patch::{PatchLayout, BLOCK_VOLUME, PADDING};

fn smooth_patches(h: f64) -> Vec<Vec<f64>> {
    let p = PatchLayout::padded();
    (0..NUM_VARS)
        .map(|v| {
            let mut buf = vec![0.0; p.volume()];
            for (i, j, k) in p.iter() {
                let x = (i as f64 - PADDING as f64) * h;
                let y = (j as f64 - PADDING as f64) * h;
                let z = (k as f64 - PADDING as f64) * h;
                let w = 0.01 * ((x + 0.3 * y).sin() * (0.5 * z).cos());
                buf[p.idx(i, j, k)] = match v {
                    0 | 7 | 9 | 12 | 14 => 1.0 + w,
                    _ => w,
                };
            }
            buf
        })
        .collect()
}

fn bench_rhs(c: &mut Criterion) {
    let mut group = c.benchmark_group("bssn-rhs-per-patch");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let h = 0.05;
    let patches = smooth_patches(h);
    let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
    let params = BssnParams::default();

    group.bench_function("derivatives", |b| {
        let mut ws = DerivWorkspace::new();
        b.iter(|| ws.compute(&refs, h))
    });

    group.bench_function("pointwise", |b| {
        let mut ws = RhsWorkspace::new(1);
        let mut out: Vec<Vec<f64>> = vec![vec![0.0; BLOCK_VOLUME]; NUM_VARS];
        b.iter(|| {
            let mut views: Vec<&mut [f64]> = out.iter_mut().map(|v| v.as_mut_slice()).collect();
            bssn_rhs_patch(&refs, h, &params, &RhsMode::Pointwise, &mut ws, &mut views)
        })
    });

    let rhs = build_bssn_rhs(params);
    for strat in ScheduleStrategy::all() {
        let sch = schedule(&rhs.graph, &rhs.outputs, strat);
        let tape = Tape::compile(&rhs.graph, &sch, 56);
        group.bench_function(strat.name(), |b| {
            let mut ws = RhsWorkspace::new(tape.n_slots);
            let mut out: Vec<Vec<f64>> = vec![vec![0.0; BLOCK_VOLUME]; NUM_VARS];
            b.iter(|| {
                let mut views: Vec<&mut [f64]> = out.iter_mut().map(|v| v.as_mut_slice()).collect();
                bssn_rhs_patch(&refs, h, &params, &RhsMode::Tape(&tape), &mut ws, &mut views)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rhs);
criterion_main!(benches);
