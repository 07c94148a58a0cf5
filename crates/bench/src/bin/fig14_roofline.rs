//! Fig. 14 regenerator: empirical roofline on the simulated A100 — the
//! overall RHS, the A (algebraic) component, and octant-to-patch on the
//! m₁…m₅ grids.

use gw_bench::table::num;
use gw_bench::{table3_grids, TablePrinter};
use gw_bssn::BssnParams;
use gw_core::backend::{Backend, Buf, GpuBackend, RhsKind};
use gw_core::solver::fill_field;
use gw_expr::bssn::build_bssn_rhs;
use gw_expr::schedule::{schedule, ScheduleStrategy};
use gw_expr::tape::Tape;
use gw_gpu_sim::Device;
use gw_perfmodel::{Roofline, RooflinePoint};

fn main() {
    let roofline = Roofline::new(gw_gpu_sim::MachineSpec::a100());
    println!(
        "A100 roofline: peak {} GF/s, bw {} GB/s, ridge AI {:.2}",
        roofline.machine.peak_gflops(),
        roofline.machine.peak_bandwidth_gbs(),
        roofline.ridge_ai()
    );
    println!("Ceiling series (AI, GF/s):");
    for (ai, gf) in roofline.ceiling_series(0.25, 32.0, 8) {
        println!("  {ai:8.3}  {gf:9.1}");
    }

    let mut points: Vec<(RooflinePoint, f64)> = Vec::new();
    // Effective AI: flops over ALL memory traffic, including the
    // thread-local derivative staging and register spills that nv-compute
    // sees as extra DRAM/L2 transactions (why the paper's RHS lands at
    // AI ~0.62 despite the Eq. 21a bound of 6.68).
    let effective_ai = |d: &gw_gpu_sim::CounterSnapshot| -> f64 {
        let bytes = d.global_bytes() + d.shared_bytes + d.spill_load_bytes + d.spill_store_bytes;
        if bytes == 0 {
            0.0
        } else {
            d.flops as f64 / bytes as f64
        }
    };

    // Analytic AI of the A component (Eq. 21b): Q_A = O_A/(8·(48+210)).
    let rhs = build_bssn_rhs(BssnParams::default());
    let sch = schedule(&rhs.graph, &rhs.outputs, ScheduleStrategy::StagedCse);
    let tape = Tape::compile(&rhs.graph, &sch, 56);
    let q_a = tape.flops as f64 / (8.0 * (24.0 * 2.0 + 210.0));
    println!("\nA-component analytic AI (Eq. 21b form): {q_a:.2} (paper: ~1.94)");

    // o2p kernel on each Table-III grid + the full RHS kernel.
    for (name, mesh) in table3_grids(1.0) {
        let u = fill_field(&mesh, &|p, out: &mut [f64]| {
            for (v, o) in out.iter_mut().enumerate() {
                *o = 1.0 + 0.01 * ((0.2 * p[0] + v as f64).sin() + 1e-3 * p[1] * p[2]);
            }
        });
        let mut gpu = GpuBackend::new(
            &mesh,
            BssnParams::default(),
            RhsKind::Generated(ScheduleStrategy::StagedCse),
            Device::a100(),
        );
        gpu.upload(&u);
        let b0 = gpu.counters();
        gpu.o2p_raw(&mesh, Buf::U);
        let b1 = gpu.counters();
        let d_o2p = b1.delta_since(&b0);
        points.push((roofline.point(&format!("o2p {name}"), &d_o2p, None), effective_ai(&d_o2p)));
        gpu.rhs_raw(&mesh, Buf::K);
        let b2 = gpu.counters();
        let d_rhs = b2.delta_since(&b1);
        points.push((roofline.point(&format!("RHS {name}"), &d_rhs, None), effective_ai(&d_rhs)));
    }

    let mut t = TablePrinter::new(&[
        "kernel",
        "AI logical",
        "AI effective",
        "GF/s (model)",
        "ceiling GF/s",
        "efficiency",
    ]);
    for (p, eai) in &points {
        t.row(&[
            p.name.clone(),
            format!("{:.2}", p.ai),
            format!("{:.2}", eai),
            num(p.gflops),
            num(roofline.attainable_gflops(p.ai)),
            format!("{:.2}", roofline.efficiency(p)),
        ]);
    }
    t.print("Fig. 14 — empirical roofline points (simulated A100, RAM-model time)");
    println!(
        "\nPaper: o2p ~900 GF/s at AI 1.74–4.07 (higher AI on more adaptive grids);\n\
         overall RHS ~700 GF/s at AI ~0.62. All kernels bandwidth-bound (AI < 6.25)."
    );
}
