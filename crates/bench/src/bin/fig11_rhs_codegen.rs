//! Fig. 11 regenerator: time per octant for 10 RHS evaluations with the
//! three code-generation strategies, on the simulated A100, for a range
//! of octant counts.

use gw_bench::table::num;
use gw_bench::{bbh_like_grids, TablePrinter};
use gw_bssn::BssnParams;
use gw_core::backend::{Backend, Buf, GpuBackend, RhsKind};
use gw_core::solver::fill_field;
use gw_expr::schedule::{schedule, ScheduleStrategy};
use gw_gpu_sim::Device;
use std::time::Instant;

fn main() {
    let grids = bbh_like_grids(&[400, 1200]);
    let mut t = TablePrinter::new(&[
        "octants",
        "strategy",
        "host ms / 3 evals",
        "us per octant",
        "host speedup",
        "A100-model speedup",
    ]);
    // Device-model time per point: streamed inputs/outputs + the spill
    // traffic of the strategy's schedule at 56 registers (the same model
    // as table2_codegen; the host interpreter cannot express register
    // pressure, the device model can).
    let a100 = gw_perfmodel::ram::RamModel::a100();
    let rhs_graph = gw_expr::bssn::build_bssn_rhs(BssnParams::default());
    let model_time = |strat: ScheduleStrategy| -> f64 {
        let sch = schedule(&rhs_graph.graph, &rhs_graph.outputs, strat);
        let tape = gw_expr::tape::Tape::compile(&rhs_graph.graph, &sch, 56);
        let stream = ((gw_expr::symbols::NUM_INPUTS + 24) * 8) as u64;
        a100.time_infinite_cache(tape.flops, stream + tape.spill_stats.total_spill_bytes())
    };
    let base_model = model_time(ScheduleStrategy::CseTopo);
    for mesh in &grids {
        let n = mesh.n_octants();
        let u = fill_field(mesh, &|p, out: &mut [f64]| {
            for (v, o) in out.iter_mut().enumerate() {
                *o = if v == 0 || v == 7 || v == 9 || v == 12 || v == 14 { 1.0 } else { 0.0 };
            }
            out[0] += 1e-3 * (-0.01 * (p[0] * p[0] + p[1] * p[1] + p[2] * p[2])).exp();
        });
        let mut base = 0.0;
        for strat in ScheduleStrategy::all() {
            let mut gpu = GpuBackend::new(
                mesh,
                BssnParams::default(),
                RhsKind::Generated(strat),
                Device::a100(),
            );
            gpu.upload(&u);
            gpu.o2p_raw(mesh, Buf::U); // patches ready once
            gpu.rhs_raw(mesh, Buf::K); // warm-up
            let evals = 3; // scaled from the paper's 10 (single-core host)
            let t0 = Instant::now();
            for _ in 0..evals {
                gpu.rhs_raw(mesh, Buf::K);
            }
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if strat == ScheduleStrategy::CseTopo {
                base = ms;
            }
            t.row(&[
                n.to_string(),
                strat.name().to_string(),
                num(ms),
                num(ms * 1e3 / (evals as f64) / n as f64),
                format!("{:.2}x", base / ms),
                format!("{:.2}x", base_model / model_time(strat)),
            ]);
        }
    }
    t.print("Fig. 11 — RHS codegen strategies, 10 evaluations (simulated A100)");
    println!("\nPaper: binary-reduce 1.55x, staged+CSE 1.76x over the SymPyGR baseline.");
}
