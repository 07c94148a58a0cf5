//! Overlap-scaling bench: blocking vs dependency-aware overlapped halo
//! exchange (`WorldConfig::overlap`) on the Fig. 17/18 grid families.
//!
//! For each grid × rank count the same evolution runs twice — once with
//! the classic exchange-then-compute loop, once with sends posted early
//! and interior octants evaluated while ghosts are in flight — and we
//! record:
//!
//! * the **overlap ratio** `halo_overlap_us / (halo_overlap_us +
//!   halo_wait_us)`: the fraction of halo latency hidden behind interior
//!   RHS work,
//! * the **halo-stall share**: halo-span milliseconds over all recorded
//!   work-phase milliseconds, before and after, and
//! * a bit-identity check: both paths must produce the same state.
//!
//! Output: a text table, `results/BENCH_overlap.json`, and a
//! schema-valid probe trace at `results/TRACE_overlap.json`.

use gw_bench::grids::bbh_grid;
use gw_bench::table::num;
use gw_bench::TablePrinter;
use gw_bssn::init::LinearWaveData;
use gw_comm::WorldConfig;
use gw_core::multi::DistributedResult;
use gw_core::{Run, SolverConfig};
use gw_mesh::Mesh;
use gw_obs::{Counter, Probe};
use gw_octree::{Domain, MortonKey};
use std::time::Instant;

/// One step of the linear wave on a copy of `mesh` over `ranks` ranks,
/// metered by `probe`: the result and the run's wall time in ms.
fn run(mesh: &Mesh, ranks: usize, world: WorldConfig, probe: &Probe) -> (DistributedResult, f64) {
    let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
    let leaves: Vec<MortonKey> = mesh.octants.iter().map(|o| o.key).collect();
    let run = Run::new(SolverConfig::default())
        .mesh(Mesh::build(mesh.domain, &leaves))
        .init(move |p, out: &mut [f64]| wave.evaluate(p, out))
        .steps(1)
        .distributed(ranks)
        .world(world)
        .probe(probe.clone());
    let t0 = Instant::now();
    let out = run.execute().unwrap_or_else(|e| panic!("distributed run failed: {e}"));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (out.distributed.expect("distributed runs report an outcome").result, wall_ms)
}

/// Halo-span milliseconds as a share of all recorded work-phase time:
/// the outermost spans, since the halo spans nest inside a rank's `rhs`
/// and `p2o` spans.
fn halo_share(trace: &gw_obs::Trace) -> f64 {
    let halo: f64 = trace.phase_totals().get("halo").map(|a| a.total_ms).unwrap_or(0.0);
    let all: f64 = trace.events.iter().filter(|e| e.parent.is_none()).map(|e| e.dur_us / 1e3).sum();
    if all <= 0.0 {
        0.0
    } else {
        halo / all
    }
}

struct Row {
    grid: &'static str,
    octants: usize,
    ranks: usize,
    wall_blocking_ms: f64,
    wall_overlap_ms: f64,
    share_blocking: f64,
    share_overlap: f64,
    overlap_ratio: f64,
}

fn main() {
    let domain = Domain::centered_cube(16.0);
    // The Fig. 17 strong-scaling grid (one refinement level shallower so
    // a real multi-rank CPU evolution stays in bench budget) and the
    // Fig. 18 weak-scaling p=2 grid at full size.
    let grids: Vec<(&'static str, Mesh)> = vec![
        ("fig17_strong", bbh_grid(domain, 6.0, 2, 5)),
        ("fig18_weak_p2", bbh_grid(domain, 6.0, 3, 5)),
    ];

    let mut rows: Vec<Row> = Vec::new();
    let mut last_overlap_trace: Option<gw_obs::Trace> = None;
    for (name, mesh) in &grids {
        println!("\n== {name}: {} octants, {} unknowns ==", mesh.n_octants(), mesh.unknowns(24));
        for ranks in [2usize, 4] {
            let probe_b = Probe::enabled();
            let (blocking, wall_b) = run(mesh, ranks, WorldConfig::default(), &probe_b);
            let trace_b = probe_b.report().expect("blocking trace");

            let probe_o = Probe::enabled();
            let cfg_o = WorldConfig { overlap: true, overlap_threads: 1, ..WorldConfig::default() };
            let (overlapped, wall_o) = run(mesh, ranks, cfg_o, &probe_o);
            let trace_o = probe_o.report().expect("overlapped trace");

            assert_eq!(
                blocking.state.as_slice(),
                overlapped.state.as_slice(),
                "{name} x{ranks}: overlapped state must be bit-identical to blocking"
            );
            assert_eq!(blocking.traffic, overlapped.traffic, "{name} x{ranks}: traffic");

            let hidden = probe_o.counter(Counter::HaloOverlapUs);
            let wait = probe_o.counter(Counter::HaloWaitUs);
            let ratio = trace_o.overlap_ratio();
            println!(
                "  ranks {ranks}: hidden {hidden} us, exposed wait {wait} us, \
                 overlap ratio {:.1}%",
                ratio * 100.0
            );
            rows.push(Row {
                grid: name,
                octants: mesh.n_octants(),
                ranks,
                wall_blocking_ms: wall_b,
                wall_overlap_ms: wall_o,
                share_blocking: halo_share(&trace_b),
                share_overlap: halo_share(&trace_o),
                overlap_ratio: ratio,
            });
            last_overlap_trace = Some(trace_o);
        }
    }

    let mut t = TablePrinter::new(&[
        "grid",
        "octants",
        "ranks",
        "blocking ms",
        "overlap ms",
        "halo share before",
        "halo share after",
        "overlap ratio",
    ]);
    for r in &rows {
        t.row(&[
            r.grid.to_string(),
            r.octants.to_string(),
            r.ranks.to_string(),
            num(r.wall_blocking_ms),
            num(r.wall_overlap_ms),
            format!("{:.1}%", r.share_blocking * 100.0),
            format!("{:.1}%", r.share_overlap * 100.0),
            format!("{:.1}%", r.overlap_ratio * 100.0),
        ]);
    }
    t.print("Overlapped halo exchange — hidden latency and stall share");

    // The acceptance gate: on the Fig. 18 grid at least 30% of halo
    // latency must be hidden, and the halo-stall share must shrink.
    for r in rows.iter().filter(|r| r.grid == "fig18_weak_p2") {
        assert!(
            r.overlap_ratio >= 0.30,
            "fig18 x{}: overlap ratio {:.3} below the 30% gate",
            r.ranks,
            r.overlap_ratio
        );
        assert!(
            r.share_overlap < r.share_blocking,
            "fig18 x{}: halo-stall share did not shrink ({:.3} -> {:.3})",
            r.ranks,
            r.share_blocking,
            r.share_overlap
        );
    }

    let mut json = String::from("{\n  \"bench\": \"overlap_scaling\",\n");
    json.push_str(
        "  \"note\": \"blocking vs overlapped halo exchange; overlap_ratio = halo_overlap_us/(halo_overlap_us+halo_wait_us); halo share = halo-span ms over all work-phase ms; wall times from a single-core CI host\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"grid\": \"{}\", \"octants\": {}, \"ranks\": {}, \"wall_blocking_ms\": {:.3}, \"wall_overlap_ms\": {:.3}, \"halo_share_blocking\": {:.4}, \"halo_share_overlap\": {:.4}, \"overlap_ratio\": {:.4}, \"bit_identical\": true}}{}\n",
            r.grid,
            r.octants,
            r.ranks,
            r.wall_blocking_ms,
            r.wall_overlap_ms,
            r.share_blocking,
            r.share_overlap,
            r.overlap_ratio,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("results/BENCH_overlap.json", &json).expect("write results/BENCH_overlap.json");
    println!("\nwrote results/BENCH_overlap.json");

    if let Some(trace) = last_overlap_trace {
        trace
            .write_to(std::path::Path::new("results/TRACE_overlap.json"), &[])
            .expect("write results/TRACE_overlap.json");
        println!("wrote results/TRACE_overlap.json");
    }
}
