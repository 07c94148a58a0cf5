//! Table II regenerator: register-spill statistics and execution speedup
//! for the three RHS code-generation strategies (SymPyGR baseline,
//! binary-reduce, staged + CSE) at the paper's 56-registers-per-thread
//! budget.
//!
//! Spill bytes come from the Belady register-file model over each
//! schedule; the speedup column is measured by executing the three tapes
//! over a batch of grid points (the working-set/locality effect the
//! paper attributes to reduced spilling). The host time is given both
//! per point (`Tape::eval_into`) and lane-batched (`Tape::eval_lanes`
//! over `gw_bssn::rhs::LANES` points, as the solver runs it). A last row
//! times the handwritten `A` the same two ways: `bssn_rhs_point` on `f64`
//! and on `Lanes<LANES>`.

use gw_bench::table::num;
use gw_bench::TablePrinter;
use gw_bssn::rhs::LANES;
use gw_bssn::{bssn_rhs_point, Lanes};
use gw_expr::bssn::{build_bssn_rhs, BssnParams};
use gw_expr::schedule::{schedule, ScheduleStrategy};
use gw_expr::symbols::{NUM_INPUTS, NUM_OUTPUTS};
use gw_expr::tape::Tape;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let rhs = build_bssn_rhs(BssnParams::default());
    let (nodes, edges) = rhs.graph.graph_stats(&rhs.outputs);
    println!("BSSN A-component DAG: {nodes} nodes, {edges} edges (paper: 2516 nodes, 6708 edges)");
    println!(
        "CSE temporaries (multi-use): {} (paper: ~900); interior nodes: {}; flops/point: {}",
        rhs.graph.shared_count(&rhs.outputs),
        rhs.graph.interior_count(&rhs.outputs),
        rhs.graph.flop_count(&rhs.outputs)
    );

    // Benchmark inputs: randomized near-flat states.
    let n_points = 20_000;
    let mut seed = 0x5eed_1234u64;
    let mut rng = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (seed >> 33) as f64 / (1u64 << 31) as f64 - 0.5
    };
    let mut inputs = vec![0.0f64; NUM_INPUTS];
    for v in inputs.iter_mut() {
        *v = 0.05 * rng();
    }
    inputs[0] = 1.0; // alpha
    inputs[7] = 1.0; // chi
    inputs[9] = 1.0;
    inputs[12] = 1.0;
    inputs[14] = 1.0; // gt diag

    let mut t = TablePrinter::new(&[
        "RHS variation",
        "spill stores (B)",
        "spill loads (B)",
        "max live",
        "slots",
        "host ns/pt",
        "lanes ns/pt",
        "model speedup",
        "paper speedup",
    ]);
    // A100 RAM-model time per point: streamed inputs/outputs plus the
    // spill traffic the register file generates at 56 registers.
    let a100 = gw_perfmodel::ram::RamModel::a100();
    let model_time = |tape: &Tape| -> f64 {
        let stream_bytes = ((gw_expr::symbols::NUM_INPUTS + 24) * 8) as u64;
        let spill = tape.spill_stats.total_spill_bytes();
        a100.time_infinite_cache(tape.flops, stream_bytes + spill)
    };
    let mut base_model = 0.0;
    let paper = [
        ("SymPyGR", 15892u64, 33288u64, 1.0),
        ("binary-reduce", 0, 22012, 1.55),
        ("staged + CSE", 8876, 22028, 1.76),
    ];
    for (i, strat) in ScheduleStrategy::all().iter().enumerate() {
        let sch = schedule(&rhs.graph, &rhs.outputs, *strat);
        let tape = Tape::compile(&rhs.graph, &sch, 56);
        let live = sch.max_live(&rhs.graph);
        // Warm up + measure.
        let mut out = vec![0.0; tape.n_outputs];
        let mut slots = vec![0.0; tape.n_slots];
        for _ in 0..100 {
            tape.eval_into(&inputs, &mut out, &mut slots);
        }
        let t0 = Instant::now();
        for _ in 0..n_points {
            tape.eval_into(&inputs, &mut out, &mut slots);
        }
        let per_pt = t0.elapsed().as_secs_f64() / n_points as f64 * 1e9;
        // The same point in every lane, the same number of points.
        let lane_inputs: Vec<[f64; LANES]> = inputs.iter().map(|&x| [x; LANES]).collect();
        let mut lane_out = vec![[0.0; LANES]; tape.n_outputs];
        let mut lane_slots = vec![[0.0; LANES]; tape.n_slots];
        let batches = n_points / LANES;
        for _ in 0..100 / LANES + 1 {
            tape.eval_lanes(&lane_inputs, &mut lane_out, &mut lane_slots);
        }
        let t0 = Instant::now();
        for _ in 0..batches {
            tape.eval_lanes(&lane_inputs, &mut lane_out, &mut lane_slots);
        }
        let per_lane_pt = t0.elapsed().as_secs_f64() / (batches * LANES) as f64 * 1e9;
        assert_eq!(lane_out.iter().map(|o| o[LANES - 1]).collect::<Vec<_>>(), out);
        let tm = model_time(&tape);
        if i == 0 {
            base_model = tm;
        }
        t.row(&[
            strat.name().to_string(),
            tape.spill_stats.spill_store_bytes.to_string(),
            tape.spill_stats.spill_load_bytes.to_string(),
            live.to_string(),
            tape.n_slots.to_string(),
            num(per_pt),
            num(per_lane_pt),
            format!("{:.2}x", base_model / tm),
            format!("{:.2}x", paper[i].3),
        ]);
    }
    // The handwritten `A`: no schedule, so no spill model.
    let params = BssnParams::default();
    let mut out = vec![0.0; NUM_OUTPUTS];
    for _ in 0..100 {
        bssn_rhs_point(&inputs, &mut out, &params);
    }
    let t0 = Instant::now();
    for _ in 0..n_points {
        bssn_rhs_point(black_box(&inputs), &mut out, &params);
    }
    let per_pt = t0.elapsed().as_secs_f64() / n_points as f64 * 1e9;
    let lane_inputs: Vec<Lanes<LANES>> = inputs.iter().map(|&x| Lanes([x; LANES])).collect();
    let mut lane_out = vec![Lanes([0.0; LANES]); NUM_OUTPUTS];
    let batches = n_points / LANES;
    for _ in 0..100 / LANES + 1 {
        bssn_rhs_point(&lane_inputs, &mut lane_out, &params);
    }
    let t0 = Instant::now();
    for _ in 0..batches {
        bssn_rhs_point(black_box(&lane_inputs), &mut lane_out, &params);
    }
    let per_lane_pt = t0.elapsed().as_secs_f64() / (batches * LANES) as f64 * 1e9;
    assert_eq!(
        lane_out.iter().map(|o| o.0[LANES - 1].to_bits()).collect::<Vec<_>>(),
        out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
    let dash = || "—".to_string();
    t.row(&[
        "handwritten A".to_string(),
        dash(),
        dash(),
        dash(),
        dash(),
        num(per_pt),
        num(per_lane_pt),
        dash(),
        dash(),
    ]);
    t.print("Table II — codegen strategies at 56 registers/thread");
    println!(
        "\nPaper spill bytes: SymPyGR 15892/33288, binary-reduce —/22012, staged+CSE 8876/22028.\n\
         Shape check: baseline spills most; binary-reduce and staged+CSE cut spills\n\
         substantially and run faster."
    );
}
