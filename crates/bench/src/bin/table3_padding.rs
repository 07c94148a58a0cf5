//! Table III regenerator: octant-to-patch / patch-to-octant timings and
//! arithmetic intensity on the m₁…m₅ grid family (decreasing adaptivity),
//! run as device kernels on the simulated A100 with counter-derived AI.

use gw_bench::table::num;
use gw_bench::{table3_grids, TablePrinter};
use gw_bssn::BssnParams;
use gw_core::backend::{Backend, Buf, GpuBackend, RhsKind};
use gw_core::solver::fill_field;
use gw_gpu_sim::Device;
use gw_mesh::scatter::patches_to_octants;
use gw_mesh::{Field, PatchField};
use gw_perfmodel::ram::RamModel;
use std::time::Instant;

fn main() {
    let ram = RamModel::a100();
    let mut t = TablePrinter::new(&[
        "grid",
        "octants x dof",
        "AI o2p (ours)",
        "AI (paper)",
        "o2p model ms",
        "o2p host ms",
        "p2o host ms",
        "adaptivity",
    ]);
    let paper_ai = [4.07, 2.52, 2.20, 1.90, 1.74];
    let dof = 24;
    for (i, (name, mesh)) in table3_grids(1.0).into_iter().enumerate() {
        let n = mesh.n_octants();
        // Fill with a smooth state so interpolation has real work.
        let u = fill_field(&mesh, &|p, out: &mut [f64]| {
            for (v, o) in out.iter_mut().enumerate() {
                *o = 1.0 + 0.01 * ((p[0] * 0.3 + v as f64).sin() + p[1] * p[2] * 1e-3);
            }
        });
        // Device o2p with counters.
        let mut gpu =
            GpuBackend::new(&mesh, BssnParams::default(), RhsKind::Pointwise, Device::a100());
        gpu.upload(&u);
        let before = gpu.counters();
        // The o2p kernel alone (eval_rhs would add the RHS launch).
        gpu.o2p_raw(&mesh, Buf::U);
        let after = gpu.counters();
        let d = after.delta_since(&before);
        let ai = d.arithmetic_intensity();
        let model_ms = ram.kernel_time(&d) * 1e3;
        drop(gpu); // free device buffers before the host-side allocations

        // Host wall-clock for the same operation (single core).
        let mut patches = PatchField::zeros(dof, n);
        let t0 = Instant::now();
        gw_mesh::scatter::fill_patches_scatter(&mesh, &u, &mut patches);
        let o2p_host = t0.elapsed().as_secs_f64() * 1e3;
        let mut back = Field::zeros(dof, n);
        let t1 = Instant::now();
        patches_to_octants(&mesh, &patches, &mut back);
        let p2o_host = t1.elapsed().as_secs_f64() * 1e3;

        t.row(&[
            name,
            format!("{n} x {dof}"),
            format!("{ai:.2}"),
            format!("{:.2}", paper_ai[i]),
            num(model_ms),
            num(o2p_host),
            num(p2o_host),
            format!("{:.3}", mesh.adaptivity_ratio()),
        ]);
    }
    t.print("Table III — octant-to-patch / patch-to-octant (simulated A100 + host)");
    println!(
        "\nPaper AI decreases 4.07 → 1.74 as adaptivity decreases; bound Q_U <= 5.07.\n\
         p2o is pure data movement (AI = 0) and ~an order of magnitude cheaper."
    );
}
