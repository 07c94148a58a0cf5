//! `bssn_solver` — the artifact-style solver driver.
//!
//! Mirrors the paper's `bssnSolverCtx` / `bssnSolverCUDA` workflow:
//!
//! ```text
//! bssn_solver [--profile trace.json] pars/q1.par.json
//! ```
//!
//! reads a parameter file, builds puncture initial data and the
//! puncture-refined grid, evolves on the chosen backend via the
//! [`Run`] builder, extracts the (2,2) mode at the requested radius,
//! and prints run diagnostics. `--profile <path>` (or the `obs.profile`
//! par key — the flag wins) writes a Chrome-trace JSON profile of the
//! run; open it in `about:tracing` / Perfetto or feed it to
//! `trace_check`.

//! Exit codes (so batch schedulers and CI distinguish failure modes):
//! `0` success, `1` bad parameter file, `2` usage, `3` retries exhausted
//! (supervised or distributed — the message names the dead rank if one
//! died), `4` checkpoint I/O failure, `5` invalid solver configuration.

use gw_bssn::init::PunctureData;
use gw_core::multi::{DistributedError, ResilienceConfig};
use gw_core::params::{ParamError, RunParams};
use gw_core::run::{Run, RunError};
use gw_core::solver::GwSolver;
use gw_core::supervisor::{SupervisorError, SupervisorEvent};
use gw_expr::symbols::var;
use gw_octree::{Puncture, PunctureRefiner};
use gw_waveform::{lebedev::product_rule, ExtractionSphere, ModeExtractor};

const EXIT_RETRIES_EXHAUSTED: i32 = 3;
const EXIT_CHECKPOINT_IO: i32 = 4;
const EXIT_BAD_CONFIG: i32 = 5;

fn usage() -> ! {
    eprintln!(
        "usage: bssn_solver [--profile <trace.json>] <par-file.json>   (see pars/q1.par.json)"
    );
    std::process::exit(2);
}

fn exit_code(e: &RunError) -> i32 {
    match e {
        RunError::Config(_) => EXIT_BAD_CONFIG,
        RunError::Supervisor(SupervisorError::RetriesExhausted { .. }) => EXIT_RETRIES_EXHAUSTED,
        RunError::Supervisor(SupervisorError::CheckpointIo { .. }) => EXIT_CHECKPOINT_IO,
        RunError::Distributed(DistributedError::RetriesExhausted { .. }) => EXIT_RETRIES_EXHAUSTED,
        RunError::Distributed(DistributedError::Checkpoint(_)) => EXIT_CHECKPOINT_IO,
        RunError::Incomplete(_) | RunError::Trace { .. } => 1,
    }
}

fn main() {
    let mut par_path: Option<String> = None;
    let mut profile_flag: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--profile" => match args.next() {
                Some(p) => profile_flag = Some(p),
                None => usage(),
            },
            _ if arg.starts_with('-') => usage(),
            _ if par_path.is_none() => par_path = Some(arg),
            _ => usage(),
        }
    }
    let Some(path) = par_path else { usage() };
    let params = match RunParams::from_file(&path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error reading {path}: {e}");
            std::process::exit(match e {
                ParamError::Config(_) => EXIT_BAD_CONFIG,
                _ => 1,
            });
        }
    };
    // The CLI flag overrides the `obs.profile` par key.
    let profile = profile_flag.or_else(|| params.profile.clone());
    println!(
        "bssn_solver: q = {}, d = {}, domain ±{}, levels {}..{}, backend = {}, simd = {}",
        params.q,
        params.separation,
        params.domain_half,
        params.base_level,
        params.finest_level,
        if params.config.use_gpu { "gpu-sim" } else { "cpu" },
        gw_par::Isa::host()
    );

    // Initial data (the tpid substitute) and puncture-refined grid.
    let data = PunctureData::binary(params.q, params.separation);
    let domain = gw_octree::Domain::centered_cube(params.domain_half);
    let punctures: Vec<Puncture> = data
        .punctures
        .iter()
        .map(|b| Puncture {
            pos: b.pos,
            finest_level: params.finest_level,
            inner_radius: (b.mass * 1.5).max(0.3),
        })
        .collect();
    let refiner = PunctureRefiner::new(punctures, params.base_level);
    let mesh = GwSolver::build_mesh(domain, &refiner, 20);
    println!("grid: {} octants, {} unknowns", mesh.n_octants(), mesh.unknowns(24));

    // Distributed mode: partition the grid over simulated ranks and run
    // under the resilience layer (reliable halo delivery + coordinated
    // snapshots + rollback/replay).
    if params.ranks > 1 {
        let resilience = ResilienceConfig {
            checkpoint_dir: if params.checkpoint_distributed {
                params.supervisor.checkpoint_dir.clone()
            } else {
                None
            },
            checkpoint_every: params.supervisor.checkpoint_every.max(1),
            degradation: params.supervisor.degradation,
            kill_once: None,
        };
        println!(
            "evolving {} steps on {} ranks (snapshots: {}) ...",
            params.steps,
            params.ranks,
            resilience.checkpoint_dir.as_deref().unwrap_or("off")
        );
        let mut run = Run::new(params.config)
            .mesh(mesh)
            .init(|p, out: &mut [f64]| data.evaluate(p, out))
            .steps(params.steps)
            .distributed(params.ranks)
            .world(params.world_config())
            .resilience(resilience);
        if let Some(p) = &profile {
            run = run.profile(p.clone());
        }
        match run.execute() {
            Ok(out) => {
                let dist = out.distributed.expect("distributed run reports an outcome");
                for ev in &dist.events {
                    let gw_core::multi::RecoveryEvent::RolledBack { to_step, cause } = ev;
                    println!("  [roll]  back to step {to_step} after: {cause}");
                }
                let (msgs, bytes) =
                    dist.result.traffic.iter().fold((0u64, 0u64), |a, t| (a.0 + t.0, a.1 + t.1));
                println!(
                    "distributed run complete: {} steps on {} ranks, {} retries, \
                     {msgs} messages / {bytes} bytes exchanged",
                    params.steps, params.ranks, out.retries
                );
                if let Some(p) = &out.trace_path {
                    println!("profile trace written to {p}");
                }
            }
            Err(e) => {
                eprintln!("distributed run failed: {e}");
                std::process::exit(exit_code(&e));
            }
        }
        return;
    }

    let d2 = data.clone();
    let mut solver = GwSolver::new(params.config, mesh, move |p, out| d2.evaluate(p, out));
    if params.extract_every > 0 {
        let sphere = ExtractionSphere::new(params.extract_radius, product_rule(6, 12));
        solver.add_extractor(ModeExtractor::new(sphere, vec![(2, 2)]));
    }

    println!("evolving {} steps, dt = {:.5} ...", params.steps, solver.dt());
    let mut run = Run::from_solver(solver).steps(params.steps);
    if params.supervised {
        run = run.supervised(params.supervisor.clone());
    }
    if let Some(p) = &profile {
        run = run.profile(p.clone());
    }
    let out = match run.execute() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(exit_code(&e));
        }
    };
    if let Some(summary) = &out.supervised {
        println!(
            "supervised run complete: {} steps, {} retries, {} fault(s) recovered",
            summary.steps_completed,
            summary.retries,
            summary.failures.len()
        );
        for ev in &summary.events {
            match ev {
                SupervisorEvent::CheckpointWritten { step, path } => {
                    println!("  [ckpt]  step {step}: {path}");
                }
                SupervisorEvent::FaultDetected { step, report } => {
                    for issue in &report.issues {
                        println!("  [fault] step {step}: {issue}");
                    }
                }
                SupervisorEvent::RolledBack { from_step, to_step } => {
                    println!("  [roll]  step {from_step} -> {to_step}");
                }
                SupervisorEvent::RetryStarted { attempt, courant, ko_sigma } => {
                    println!(
                        "  [retry] attempt {attempt}: courant = {courant}, \
                         ko_sigma = {ko_sigma}"
                    );
                }
                SupervisorEvent::Completed { .. } => {}
            }
        }
    }
    let solver = out.solver.expect("single-process run returns its solver");
    println!(
        "final state: max|K| = {:.3e}  max|At| = {:.3e}",
        out.state.linf(var::K),
        out.state.linf(var::at(0, 1))
    );
    if let Some(e) = solver.extractors.first() {
        if let Some(m22) = e.mode(2, 2) {
            println!("\nextracted h22 samples (t, Re, Im):");
            for i in 0..m22.len() {
                println!(
                    "  {:8.4}  {:+.6e}  {:+.6e}",
                    m22.times[i], m22.values[i].re, m22.values[i].im
                );
            }
        }
    }
    if let Some(c) = solver.backend.counters() {
        println!(
            "\ndevice: {} launches, {:.1} MB global traffic, {:.2} GFlop",
            c.launches,
            c.global_bytes() as f64 / 1e6,
            c.flops as f64 / 1e9
        );
    }
    if let Some(p) = &out.trace_path {
        println!("profile trace written to {p}");
    }
    println!("done: t = {:.4} after {} steps", out.time, out.steps_completed);
}
