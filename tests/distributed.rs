//! Distributed-evolution integration: multi-rank `Run`s against the
//! single-rank reference, ghost-plan properties, scaling-model inputs.

use gw_bssn::init::LinearWaveData;
use gw_bssn::BssnParams;
use gw_comm::world::WorldConfig;
use gw_comm::{CommFaultPlan, GhostSchedule};
use gw_core::backend::{Backend, CpuBackend, RhsKind};
use gw_core::checkpoint::{latest_snapshot, load_distributed};
use gw_core::multi::{
    dependencies, DistributedError, KillSpec, RecoveryEvent, ResilienceConfig, ResilientOutcome,
};
use gw_core::rk4::Rk4;
use gw_core::solver::{fill_field, SolverConfig};
use gw_core::supervisor::DegradationPolicy;
use gw_core::{Run, RunError};
use gw_expr::schedule::ScheduleStrategy;
use gw_integration_tests::{adaptive_mesh, uniform_mesh};
use gw_mesh::Mesh;
use gw_octree::partition::partition_uniform;
use gw_octree::Domain;
use gw_perfmodel::scaling::{project_step, strong_efficiency, Network};
use std::time::Duration;

/// Fault-plan seeds for the chaos tests. CI sweeps more seeds by setting
/// `GW_CHAOS_SEED`; locally the default trio runs.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("GW_CHAOS_SEED").ok().and_then(|s| s.parse().ok()) {
        Some(seed) => vec![seed],
        None => vec![11, 12, 13],
    }
}

fn wave_init() -> impl Fn([f64; 3], &mut [f64]) {
    let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
    move |p, out: &mut [f64]| wave.evaluate(p, out)
}

/// The linear wave on `mesh`, `steps` RK4 steps over `ranks` ranks.
fn dist(mesh: Mesh, ranks: usize, steps: usize) -> Run<'static> {
    Run::new(SolverConfig::default()).mesh(mesh).init(wave_init()).steps(steps).distributed(ranks)
}

fn outcome(run: Run<'_>) -> ResilientOutcome {
    run.execute()
        .unwrap_or_else(|e| panic!("distributed run failed: {e}"))
        .distributed
        .expect("distributed runs report an outcome")
}

/// A retry budget of zero: the first unrecoverable fault ends the run.
fn no_retries() -> ResilienceConfig {
    ResilienceConfig {
        degradation: DegradationPolicy { courant_factor: 1.0, ko_boost: 0.0, max_retries: 0 },
        ..ResilienceConfig::default()
    }
}

#[test]
fn four_ranks_match_reference_on_uniform_grid() {
    let domain = Domain::centered_cube(8.0);
    let mesh = uniform_mesh(domain, 2);
    let u0 = fill_field(&mesh, &wave_init());
    let mut backend = CpuBackend::new(&mesh, BssnParams::default(), RhsKind::Pointwise);
    backend.upload(&u0);
    let rk = Rk4::default();
    let dt = rk.timestep(&mesh);
    rk.step(&mut backend, &mesh, dt);
    let reference = backend.download();

    let result = outcome(dist(mesh, 4, 1)).result;
    for (a, b) in reference.as_slice().iter().zip(result.state.as_slice().iter()) {
        assert_eq!(a, b);
    }
}

#[test]
fn staged_tape_ranks_match_single_rank_bitwise() {
    // Every rank runs the configured RHS: a staged+CSE tape run on 2 or
    // 3 ranks, blocking or overlapped, lands on the single-rank CPU
    // staged run's bits.
    let domain = Domain::centered_cube(8.0);
    let staged = SolverConfig {
        rhs_kind: RhsKind::Generated(ScheduleStrategy::StagedCse),
        ..SolverConfig::default()
    };
    let single = |config: SolverConfig| {
        Run::new(config).mesh(adaptive_mesh(domain)).init(wave_init()).steps(2).execute().unwrap()
    };
    let reference = single(staged);
    assert_ne!(
        reference.state.as_slice(),
        single(SolverConfig::default()).state.as_slice(),
        "the tape must differ from the pointwise A somewhere, or this test could not tell \
         which one the ranks ran"
    );
    for ranks in [2usize, 3] {
        for overlap in [false, true] {
            let world = WorldConfig { overlap, ..WorldConfig::default() };
            let out = Run::new(staged)
                .mesh(adaptive_mesh(domain))
                .init(wave_init())
                .steps(2)
                .distributed(ranks)
                .world(world)
                .execute()
                .unwrap();
            assert_eq!(
                reference.state.as_slice(),
                out.state.as_slice(),
                "{ranks} ranks (overlap {overlap}) must run the staged tape"
            );
        }
    }
}

#[test]
fn ghost_plan_covers_every_cross_dependency() {
    let domain = Domain::centered_cube(8.0);
    let mesh = adaptive_mesh(domain);
    let deps = dependencies(&mesh);
    for p in [2usize, 3, 5] {
        let part = partition_uniform(mesh.n_octants(), p);
        let plan = GhostSchedule::build(&part, deps.iter().copied());
        for &(src, dst) in &deps {
            let rs = part.owner_of_index(src as usize);
            let rd = part.owner_of_index(dst as usize);
            if rs == rd {
                continue;
            }
            assert!(
                plan.sends[rs][rd].contains(&src),
                "dep {src}->{dst} not covered by plan ({rs}->{rd})"
            );
        }
    }
}

#[test]
fn measured_traffic_matches_plan_prediction() {
    let domain = Domain::centered_cube(8.0);
    let ranks = 3;
    let steps = 2;
    let result = outcome(dist(adaptive_mesh(domain), ranks, steps)).result;
    // 5 exchanges per step, each shipping plan.send_bytes per rank.
    for r in 0..ranks {
        let expect = 5 * steps as u64 * result.plan.send_bytes(r, 24, 343);
        let got = result.traffic[r].1;
        assert_eq!(got, expect, "rank {r}: plan {expect} vs measured {got}");
    }
}

#[test]
fn seeded_message_faults_recovered_bit_identical() {
    // Dropped, truncated, and corrupted halo messages at a bounded rate
    // are *recovered* by the reliable delivery layer: with no retry
    // budget the run completes and is bit-identical to the fault-free run via
    // retransmission — under no circumstances a silently wrong state.
    let domain = Domain::centered_cube(8.0);
    let reference = outcome(dist(uniform_mesh(domain, 2), 3, 2)).result;
    for seed in chaos_seeds() {
        for (drop, trunc, corrupt) in [(0.05, 0.0, 0.0), (0.0, 0.05, 0.0), (0.02, 0.02, 0.02)] {
            let cfg = WorldConfig {
                faults: Some(
                    CommFaultPlan::new(seed)
                        .with_drop_rate(drop)
                        .with_truncate_rate(trunc)
                        .with_corrupt_rate(corrupt),
                ),
                recv_timeout: Duration::from_secs(5),
                heartbeat_interval: Duration::from_millis(5),
                ..WorldConfig::default()
            };
            let run = dist(uniform_mesh(domain, 2), 3, 2).world(cfg).resilience(no_retries());
            let out = run.execute().unwrap_or_else(|e| {
                panic!("seed {seed} ({drop}/{trunc}/{corrupt}): not recovered: {e}")
            });
            for (a, b) in reference.state.as_slice().iter().zip(out.state.as_slice().iter()) {
                assert_eq!(a, b, "seed {seed}: recovery must be bit-identical");
            }
        }
    }
}

#[test]
fn unrecoverable_faults_surface_typed_errors_never_hang() {
    // Rates beyond the retransmit budget must end in a typed error well
    // before the receive deadline cascade — never a hang or a silently
    // wrong state.
    let domain = Domain::centered_cube(8.0);
    let cfg = WorldConfig {
        faults: Some(CommFaultPlan::new(chaos_seeds()[0]).with_drop_rate(1.0)),
        recv_timeout: Duration::from_secs(2),
        max_retransmits: 2,
        retry_backoff: Duration::from_millis(1),
        heartbeat_interval: Duration::from_millis(5),
        ..WorldConfig::default()
    };
    let run = dist(uniform_mesh(domain, 2), 3, 1).world(cfg).resilience(no_retries());
    let err = run.execute().err().expect("total loss cannot be recovered");
    match &err {
        RunError::Distributed(DistributedError::RetriesExhausted { attempts: 0, last }) => {
            assert!(!last.to_string().is_empty());
        }
        other => panic!("expected RetriesExhausted after 0 rollbacks, got {other:?}"),
    }
}

#[test]
fn killed_rank_is_named_and_run_aborts_without_checkpoints() {
    // One rank fail-stops mid-evolution; survivors detect it via the
    // liveness view within the heartbeat cadence. With no retry budget
    // the run aborts with a typed error naming the dead rank — never a
    // hang (the whole test completes orders of magnitude below the 10 s
    // receive deadline it would burn per exchange if it were hanging).
    let domain = Domain::centered_cube(8.0);
    let resilience =
        ResilienceConfig { kill_once: Some(KillSpec { rank: 2, at_step: 1 }), ..no_retries() };
    let cfg =
        WorldConfig { heartbeat_interval: Duration::from_millis(5), ..WorldConfig::default() };
    let started = std::time::Instant::now();
    let run = dist(uniform_mesh(domain, 2), 3, 2).world(cfg).resilience(resilience);
    let err = run.execute().err().expect("no retries allowed: the death must abort the run");
    assert!(started.elapsed() < Duration::from_secs(8), "detection must not hang");
    match &err {
        RunError::Distributed(DistributedError::RetriesExhausted { attempts: 0, last }) => {
            assert_eq!(last.dead_rank(), Some(2), "the dead rank is named: {last}");
        }
        other => panic!("expected RetriesExhausted naming rank 2, got {other:?}"),
    }
    assert!(err.to_string().contains("rank 2"), "rendered error names the rank: {err}");
}

#[test]
fn chaos_kill_plus_message_faults_recovers_via_manifest() {
    // The full gauntlet: seeded message faults the whole way through AND
    // a fail-stopped rank. The run rolls every survivor back to the last
    // committed manifest, replays with identity degradation, and — since
    // retransmission recovery and snapshot replay are both bit-exact —
    // finishes bit-identical to the undisturbed run.
    let domain = Domain::centered_cube(8.0);
    let reference = outcome(dist(uniform_mesh(domain, 2), 3, 3)).result;
    for seed in chaos_seeds() {
        let dir = std::env::temp_dir().join(format!("gw_amr_chaos_{seed}"));
        let dir = dir.to_str().unwrap().to_string();
        let _ = std::fs::remove_dir_all(&dir);
        let resilience = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            degradation: DegradationPolicy { courant_factor: 1.0, ko_boost: 0.0, max_retries: 2 },
            kill_once: Some(KillSpec { rank: 1, at_step: 2 }),
        };
        let cfg = WorldConfig {
            faults: Some(CommFaultPlan::new(seed).with_drop_rate(0.03).with_corrupt_rate(0.02)),
            recv_timeout: Duration::from_secs(5),
            heartbeat_interval: Duration::from_millis(5),
            ..WorldConfig::default()
        };
        let run = dist(uniform_mesh(domain, 2), 3, 3).world(cfg).resilience(resilience);
        let out = run
            .execute()
            .unwrap_or_else(|e| panic!("seed {seed}: chaos run must recover: {e}"))
            .distributed
            .expect("distributed runs report an outcome");
        assert_eq!(out.retries, 1, "seed {seed}: one rollback for one death");
        match &out.events[..] {
            [RecoveryEvent::RolledBack { to_step: 2, cause }] => {
                assert_eq!(cause.dead_rank(), Some(1), "seed {seed}");
            }
            other => panic!("seed {seed}: expected one rollback to step 2, got {other:?}"),
        }
        for (a, b) in reference.state.as_slice().iter().zip(out.result.state.as_slice().iter()) {
            assert_eq!(a, b, "seed {seed}: manifest replay must be bit-identical");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn overlapped_chaos_matrix_matches_blocking_bitwise() {
    // The overlapped exchange must survive the same chaos the blocking
    // path does, and land on the *same bits*: for every seed and worker
    // count, a run with `overlap: true` under seeded drop/truncate/corrupt
    // faults must match the fault-free blocking run both in final state
    // and in the committed checkpoint bodies (manifest shard CRCs) — the
    // overlap window must never reorder a reduction or let a retransmitted
    // ghost land in a different slot.
    let domain = Domain::centered_cube(8.0);
    let tmp = std::env::temp_dir();
    let ref_dir = tmp.join("gw_amr_overlap_ref").to_str().unwrap().to_string();
    let _ = std::fs::remove_dir_all(&ref_dir);
    let resilience_for = |dir: &str| ResilienceConfig {
        checkpoint_dir: Some(dir.to_string()),
        checkpoint_every: 1,
        degradation: DegradationPolicy { courant_factor: 1.0, ko_boost: 0.0, max_retries: 2 },
        kill_once: None,
    };
    let reference =
        outcome(dist(uniform_mesh(domain, 2), 3, 2).resilience(resilience_for(&ref_dir)));
    let ref_snap = latest_snapshot(&ref_dir)
        .expect("reference snapshot root readable")
        .expect("reference run committed a snapshot");
    let ref_ck = load_distributed(&ref_snap).expect("reference manifest loads");

    for seed in chaos_seeds() {
        for threads in [1usize, 2, 8] {
            let dir = tmp
                .join(format!("gw_amr_overlap_chaos_{seed}_{threads}"))
                .to_str()
                .unwrap()
                .to_string();
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = WorldConfig {
                overlap: true,
                overlap_threads: threads,
                faults: Some(
                    CommFaultPlan::new(seed)
                        .with_drop_rate(0.02)
                        .with_truncate_rate(0.02)
                        .with_corrupt_rate(0.02),
                ),
                recv_timeout: Duration::from_secs(5),
                heartbeat_interval: Duration::from_millis(5),
                ..WorldConfig::default()
            };
            let run =
                dist(uniform_mesh(domain, 2), 3, 2).world(cfg).resilience(resilience_for(&dir));
            let out = run
                .execute()
                .unwrap_or_else(|e| {
                    panic!("seed {seed} threads {threads}: overlapped chaos run must recover: {e}")
                })
                .distributed
                .expect("distributed runs report an outcome");
            for (a, b) in
                reference.result.state.as_slice().iter().zip(out.result.state.as_slice().iter())
            {
                assert_eq!(a, b, "seed {seed} threads {threads}: state must match blocking");
            }
            let snap = latest_snapshot(&dir)
                .expect("overlap snapshot root readable")
                .unwrap_or_else(|| panic!("seed {seed} threads {threads}: no snapshot committed"));
            let ck = load_distributed(&snap).expect("overlap manifest loads");
            assert_eq!(
                ck.manifest.shard_crcs, ref_ck.manifest.shard_crcs,
                "seed {seed} threads {threads}: checkpoint body CRCs must match blocking"
            );
            assert_eq!(ck.manifest.shard_lens, ref_ck.manifest.shard_lens);
            assert_eq!(ck.manifest.steps_taken, ref_ck.manifest.steps_taken);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn zero_rate_fault_plan_is_bit_identical_to_fault_free() {
    // Installing a plan that never fires must not perturb results: the
    // fault-free path (headers included) is the same arithmetic.
    let domain = Domain::centered_cube(8.0);
    let reference = outcome(dist(uniform_mesh(domain, 2), 3, 2)).result;
    let cfg = WorldConfig {
        faults: Some(CommFaultPlan::new(99)), // zero rates
        ..WorldConfig::default()
    };
    let with_plan = outcome(dist(uniform_mesh(domain, 2), 3, 2).world(cfg)).result;
    for (a, b) in reference.state.as_slice().iter().zip(with_plan.state.as_slice().iter()) {
        assert_eq!(a, b, "zero-rate plan must not change the evolution");
    }
    assert_eq!(reference.traffic, with_plan.traffic);
}

#[test]
fn scaling_model_consumes_real_plans() {
    // Feed the scaling model with the actual measured plan of an
    // adaptive mesh — the Fig. 17 pipeline end to end.
    let domain = Domain::centered_cube(8.0);
    let mesh = adaptive_mesh(domain);
    let deps = dependencies(&mesh);
    let n = mesh.n_octants();
    let net = Network::gpu_interconnect();
    let ps = [1usize, 2, 4];
    let mut times = Vec::new();
    for &p in &ps {
        let part = partition_uniform(n, p);
        let plan = GhostSchedule::build(&part, deps.iter().copied());
        let work: Vec<f64> = (0..p).map(|r| 1e-3 * part.range(r).len() as f64 / n as f64).collect();
        times.push(project_step(&work, &plan, &net, 24, 343, 5).total());
    }
    let eff = strong_efficiency(&ps, &times);
    assert!((eff[0] - 1.0).abs() < 1e-12);
    assert!(eff.iter().all(|&e| e > 0.0 && e <= 1.0 + 1e-9), "{eff:?}");
}
