//! Resilience-overhead regenerator: what does the reliable delivery /
//! checkpoint / rollback stack cost in practice? Three runs of the same
//! distributed evolution are timed wall-clock:
//!
//! 1. fault-free (acks and sequence bookkeeping only),
//! 2. 1 % seeded message drops recovered by retransmission,
//! 3. a fail-stopped rank forcing one manifest rollback + replay.
//!
//! All three produce bit-identical states (asserted), so the table is a
//! pure throughput comparison of the recovery machinery.

use gw_bench::grids::uniform_grid;
use gw_bench::table::num;
use gw_bench::TablePrinter;
use gw_bssn::init::LinearWaveData;
use gw_comm::world::WorldConfig;
use gw_comm::CommFaultPlan;
use gw_core::multi::{KillSpec, ResilienceConfig, ResilientOutcome};
use gw_core::supervisor::DegradationPolicy;
use gw_core::{Run, RunError, SolverConfig};
use gw_octree::Domain;
use std::time::{Duration, Instant};

const RANKS: usize = 4;
const STEPS: usize = 6;

/// The linear wave on the level-2 uniform grid, `STEPS` steps over
/// `RANKS` ranks: the outcome and its wall time in seconds. A failure
/// may roll back only within `resilience`'s retry budget.
fn run(
    world: WorldConfig,
    resilience: ResilienceConfig,
) -> Result<(ResilientOutcome, f64), RunError> {
    let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
    let run = Run::new(SolverConfig::default())
        .mesh(uniform_grid(Domain::centered_cube(8.0), 2))
        .init(move |p, out: &mut [f64]| wave.evaluate(p, out))
        .steps(STEPS)
        .distributed(RANKS)
        .world(world)
        .resilience(resilience);
    let t0 = Instant::now();
    let out = run.execute()?;
    let secs = t0.elapsed().as_secs_f64();
    Ok((out.distributed.expect("distributed runs report an outcome"), secs))
}

fn main() {
    let (ranks, steps) = (RANKS, STEPS);
    let n_oct = uniform_grid(Domain::centered_cube(8.0), 2).n_octants();
    println!("resilience overhead: {n_oct} octants on {ranks} ranks, {steps} RK4 steps");
    // Runs 1 and 2 must succeed without any rollback.
    let no_retries = || ResilienceConfig {
        degradation: DegradationPolicy { courant_factor: 1.0, ko_boost: 0.0, max_retries: 0 },
        ..ResilienceConfig::default()
    };

    // 1. Fault-free baseline (reliable layer active, nothing to recover).
    let (baseline, t_free) = run(WorldConfig::default(), no_retries()).expect("fault-free run");
    let baseline = baseline.result;

    // 2. 1 % of halo messages dropped; every loss recovered in-line by
    //    the receiver-driven retransmission protocol.
    let cfg = WorldConfig {
        faults: Some(CommFaultPlan::new(42).with_drop_rate(0.01)),
        heartbeat_interval: Duration::from_millis(5),
        ..WorldConfig::default()
    };
    let (dropped, t_drop) =
        run(cfg, no_retries()).expect("1% drops must be recovered by retransmission");
    for (a, b) in baseline.state.as_slice().iter().zip(dropped.result.state.as_slice().iter()) {
        assert_eq!(a, b, "retransmission recovery must be bit-identical");
    }

    // 3. One induced rollback: a rank fail-stops mid-run, survivors roll
    //    back to the last committed manifest and replay (bit-exact under
    //    identity degradation).
    let dir = std::env::temp_dir().join("gw_amr_resilience_overhead");
    let dir_s = dir.to_str().unwrap().to_string();
    let _ = std::fs::remove_dir_all(&dir);
    let resilience = ResilienceConfig {
        checkpoint_dir: Some(dir_s),
        checkpoint_every: 2,
        degradation: DegradationPolicy { courant_factor: 1.0, ko_boost: 0.0, max_retries: 2 },
        kill_once: Some(KillSpec { rank: 1, at_step: 3 }),
    };
    let cfg =
        WorldConfig { heartbeat_interval: Duration::from_millis(5), ..WorldConfig::default() };
    let (rolled, t_roll) =
        run(cfg, resilience).expect("one death within the retry budget must recover");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(rolled.retries, 1, "exactly one rollback expected");
    for (a, b) in baseline.state.as_slice().iter().zip(rolled.result.state.as_slice().iter()) {
        assert_eq!(a, b, "manifest replay must be bit-identical");
    }

    let mut t = TablePrinter::new(&["scenario", "wall s", "steps/s", "vs fault-free"]);
    let sps = |secs: f64| steps as f64 / secs;
    for (name, secs) in
        [("fault-free", t_free), ("1% message drop", t_drop), ("1 kill + rollback", t_roll)]
    {
        t.row(&[name.to_string(), num(secs), num(sps(secs)), format!("{:.2}x", secs / t_free)]);
    }
    t.print("distributed resilience overhead (bit-identical results)");
    println!(
        "\nall three final states bit-identical; rollback replayed {} step(s) \
         from the last committed manifest",
        steps - 2
    );
}
