//! One entry point for every kind of evolution run: plain, supervised
//! (health checks + rollback, [`crate::supervisor`]) and distributed
//! (multi-rank with coordinated snapshots, [`crate::multi`]). [`Run`] is
//! the only way to evolve:
//!
//! ```no_run
//! use gw_core::run::Run;
//! use gw_core::solver::{GwSolver, SolverConfig};
//! # let refiner = gw_octree::PunctureRefiner::new(vec![], 2);
//! # let mesh = GwSolver::build_mesh(gw_octree::Domain::centered_cube(8.0), &refiner, 4);
//! let outcome = Run::new(SolverConfig::default())
//!     .mesh(mesh)
//!     .init(|_p, out| out.iter_mut().for_each(|v| *v = 0.0))
//!     .steps(8)
//!     .supervised(Default::default())      // optional: health + rollback
//!     .profile("results/trace.json")       // optional: obs trace sink
//!     .execute()
//!     .unwrap();
//! ```
//!
//! Adding `.distributed(ranks)` switches to the multi-rank resilient
//! driver (coordinated snapshots, rollback/replay). Its ranks run the
//! whole [`SolverConfig`], including `rhs_kind`; `use_gpu` is not
//! supported there yet and is rejected as [`ConfigError::DistributedGpu`].
//!
//! Profiling (`.profile(path)`) enables a [`Probe`], threads it through
//! the solver/backend/device (or the comm world in distributed mode),
//! and writes a Chrome-trace JSON file on completion. Instrumentation is
//! timing/counting only: a profiled run is bit-identical to an
//! unprofiled one (asserted in `tests/determinism_matrix.rs`).

use crate::multi::{self, DistributedError, ResilienceConfig, ResilientOutcome};
use crate::solver::{fill_field, ConfigError, GwSolver, SolverConfig};
use crate::supervisor::{RunSummary, Supervisor, SupervisorConfig, SupervisorError};
use gw_comm::world::WorldConfig;
use gw_mesh::{Field, Mesh};
use gw_obs::json::Value;
use gw_obs::Probe;
use gw_octree::Refiner;

/// Pointwise initial-data closure (all 24 variables).
pub type InitFn<'a> = Box<dyn Fn([f64; 3], &mut [f64]) + 'a>;

/// Why a [`Run`] could not complete.
#[derive(Debug)]
pub enum RunError {
    /// The solver configuration is invalid.
    Config(ConfigError),
    /// The builder is missing a mesh or initial data.
    Incomplete(&'static str),
    /// The supervised run failed terminally.
    Supervisor(SupervisorError),
    /// The distributed run failed terminally.
    Distributed(DistributedError),
    /// The profile trace could not be produced or written.
    Trace { path: String, error: String },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "invalid configuration: {e}"),
            RunError::Incomplete(what) => write!(f, "incomplete run description: missing {what}"),
            RunError::Supervisor(e) => write!(f, "{e}"),
            RunError::Distributed(e) => write!(f, "{e}"),
            RunError::Trace { path, error } => write!(f, "profile trace {path}: {error}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

impl From<SupervisorError> for RunError {
    fn from(e: SupervisorError) -> Self {
        RunError::Supervisor(e)
    }
}

impl From<DistributedError> for RunError {
    fn from(e: DistributedError) -> Self {
        RunError::Distributed(e)
    }
}

/// A completed run.
pub struct RunOutcome {
    /// Final evolved state.
    pub state: Field,
    /// Final solver time.
    pub time: f64,
    pub steps_completed: u64,
    /// Rollback/replay retries performed (0 = clean run).
    pub retries: u32,
    /// The solver, for callers that want extractors or further stepping
    /// (`None` for distributed runs, which have no single-rank solver).
    pub solver: Option<GwSolver>,
    /// The supervised-run decision log, when `.supervised(..)` was set.
    pub supervised: Option<RunSummary>,
    /// The distributed outcome (traffic/work meters, recovery events),
    /// when `.distributed(..)` was set.
    pub distributed: Option<ResilientOutcome>,
    /// Where the profile trace was written, when `.profile(..)` was set.
    pub trace_path: Option<String>,
}

/// Builder for plain, supervised, and distributed evolution runs.
pub struct Run<'a> {
    config: SolverConfig,
    steps: usize,
    mesh: Option<Mesh>,
    init: Option<InitFn<'a>>,
    solver: Option<GwSolver>,
    refiner: Option<&'a dyn Refiner>,
    supervised: Option<SupervisorConfig>,
    ranks: Option<usize>,
    world: Option<WorldConfig>,
    resilience: Option<ResilienceConfig>,
    profile: Option<String>,
    probe: Option<Probe>,
}

impl<'a> Run<'a> {
    /// Start describing a run with this solver configuration.
    pub fn new(config: SolverConfig) -> Self {
        Self {
            config,
            steps: 0,
            mesh: None,
            init: None,
            solver: None,
            refiner: None,
            supervised: None,
            ranks: None,
            world: None,
            resilience: None,
            profile: None,
            probe: None,
        }
    }

    /// Adopt a pre-built solver (e.g. with extractors already attached)
    /// instead of `config` + [`Run::mesh`] + [`Run::init`]. Not usable
    /// with [`Run::distributed`], which owns its rank-local state.
    pub fn from_solver(solver: GwSolver) -> Self {
        let config = solver.config;
        let mut run = Self::new(config);
        run.solver = Some(solver);
        run
    }

    /// The grid to evolve on.
    pub fn mesh(mut self, mesh: Mesh) -> Self {
        self.mesh = Some(mesh);
        self
    }

    /// Pointwise initial data filling all 24 variables.
    pub fn init(mut self, init: impl Fn([f64; 3], &mut [f64]) + 'a) -> Self {
        self.init = Some(Box::new(init));
        self
    }

    /// How many RK4 steps to take.
    pub fn steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Regrid with this refiner every `config.regrid_every` steps
    /// (plain, unsupervised runs only).
    pub fn refiner(mut self, refiner: &'a dyn Refiner) -> Self {
        self.refiner = Some(refiner);
        self
    }

    /// Run under the fault-tolerant supervisor (health checks,
    /// checkpoints, rollback + degraded retries).
    pub fn supervised(mut self, config: SupervisorConfig) -> Self {
        self.supervised = Some(config);
        self
    }

    /// Partition the grid over this many simulated ranks and run the
    /// resilient distributed driver.
    pub fn distributed(mut self, ranks: usize) -> Self {
        self.ranks = Some(ranks);
        self
    }

    /// Comm-world configuration for a distributed run (fault plan,
    /// retransmit budget, timeouts).
    pub fn world(mut self, world: WorldConfig) -> Self {
        self.world = Some(world);
        self
    }

    /// Checkpoint/rollback policy for a distributed run. When unset it
    /// is derived from the `.supervised(..)` config (checkpoint dir and
    /// degradation policy), matching the old driver wiring.
    pub fn resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = Some(resilience);
        self
    }

    /// Enable observability and write a Chrome-trace JSON profile of the
    /// run to `path` on completion.
    pub fn profile(mut self, path: impl Into<String>) -> Self {
        self.profile = Some(path.into());
        self
    }

    /// Use this probe instead of creating one. The caller keeps a handle
    /// on the spans/counters (tests use this to inspect attribution
    /// without file I/O); combine with [`Run::profile`] to also write
    /// the trace file.
    pub fn probe(mut self, probe: Probe) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Execute the described run.
    pub fn execute(mut self) -> Result<RunOutcome, RunError> {
        let probe = match (&self.probe, &self.profile) {
            (Some(p), _) => p.clone(),
            (None, Some(_)) => Probe::enabled(),
            (None, None) => Probe::disabled(),
        };
        if let Some(ranks) = self.ranks {
            return self.execute_distributed(ranks, probe);
        }
        let mut solver = match self.solver.take() {
            Some(s) => s,
            None => {
                let mesh = self.mesh.take().ok_or(RunError::Incomplete("mesh"))?;
                let init = self.init.take().ok_or(RunError::Incomplete("init"))?;
                GwSolver::try_new(self.config, mesh, init)?
            }
        };
        solver.set_probe(probe.clone());
        let mut retries = 0;
        let mut summary = None;
        if let Some(sup_cfg) = self.supervised.clone() {
            let mut sup = Supervisor::new(sup_cfg);
            let s = sup.run(&mut solver, self.steps as u64).inspect_err(|_| {
                // Even a failed run leaves a useful trace behind.
                self.try_write_trace(&probe, &[]);
            })?;
            retries = s.retries;
            summary = Some(s);
        } else {
            let fr = solver.config.regrid_every;
            for i in 0..self.steps {
                if let Some(r) = self.refiner {
                    if fr > 0 && i > 0 && i % fr == 0 {
                        solver.regrid(r);
                    }
                }
                solver.step();
            }
        }
        let extra = device_sections(&solver);
        let trace_path = self.write_trace(&probe, &extra)?;
        Ok(RunOutcome {
            state: solver.state(),
            time: solver.time,
            steps_completed: solver.steps_taken,
            retries,
            solver: Some(solver),
            supervised: summary,
            distributed: None,
            trace_path,
        })
    }

    fn execute_distributed(mut self, ranks: usize, probe: Probe) -> Result<RunOutcome, RunError> {
        self.config.validate()?;
        if self.config.use_gpu {
            return Err(ConfigError::DistributedGpu(ranks).into());
        }
        let mesh = self.mesh.take().ok_or(RunError::Incomplete("mesh"))?;
        let init = self.init.take().ok_or(RunError::Incomplete("init"))?;
        let u0 = fill_field(&mesh, &init);
        let mut world = self.world.clone().unwrap_or_default();
        world.probe = probe.clone();
        // One thread setting drives both drivers: unless the caller
        // pinned an explicit overlap pool size in the WorldConfig, the
        // overlapped path sizes its workers from `config.threads`,
        // exactly like the single-rank backend.
        if world.overlap_threads == 0 {
            world.overlap_threads = self.config.threads;
        }
        let resilience = self.resilience.clone().unwrap_or_else(|| match &self.supervised {
            Some(sup) => ResilienceConfig {
                checkpoint_dir: sup.checkpoint_dir.clone(),
                checkpoint_every: sup.checkpoint_every.max(1),
                degradation: sup.degradation,
                kill_once: None,
            },
            None => ResilienceConfig::default(),
        });
        let out = multi::evolve(&mesh, &u0, ranks, self.steps, &self.config, world, &resilience)
            .inspect_err(|_| {
                self.try_write_trace(&probe, &[]);
            })?;
        let h_min = mesh.octants.iter().map(|o| o.h).fold(f64::INFINITY, f64::min);
        let trace_path = self.write_trace(&probe, &[])?;
        Ok(RunOutcome {
            state: out.result.state.clone(),
            time: self.steps as f64 * self.config.courant * h_min,
            steps_completed: self.steps as u64,
            retries: out.retries,
            solver: None,
            supervised: None,
            distributed: Some(out),
            trace_path,
        })
    }

    /// Write the trace if a sink was requested; hard error if profiling
    /// was requested but the obs layer is compiled out. The summary
    /// carries the host's vector tier as `"isa"` ahead of `extra`, so a
    /// trace says which build of the kernels produced its timings.
    fn write_trace(
        &self,
        probe: &Probe,
        extra: &[(&str, Value)],
    ) -> Result<Option<String>, RunError> {
        let Some(path) = &self.profile else { return Ok(None) };
        let trace = probe.report().ok_or_else(|| RunError::Trace {
            path: path.clone(),
            error: "observability is disabled (probe off or the `obs` feature compiled out)"
                .to_string(),
        })?;
        let mut sections = vec![("isa", Value::Str(gw_par::Isa::host().name().to_string()))];
        sections.extend_from_slice(extra);
        trace
            .write_to(std::path::Path::new(path), &sections)
            .map_err(|e| RunError::Trace { path: path.clone(), error: e.to_string() })?;
        Ok(Some(path.clone()))
    }

    /// Best-effort trace write on the failure path (the primary error is
    /// the run failure, not the sink).
    fn try_write_trace(&self, probe: &Probe, extra: &[(&str, Value)]) {
        let _ = self.write_trace(probe, extra);
    }
}

/// Device-counter and performance-model summary sections: the emitted
/// trace carries the gpu-sim [`CounterSnapshot`](gw_gpu_sim::CounterSnapshot)
/// verbatim plus the RAM-model / roofline projection for the same
/// counters, so a profile can be cross-checked against the paper's
/// performance model without re-running.
fn device_sections(solver: &GwSolver) -> Vec<(&'static str, Value)> {
    let Some(c) = solver.backend.counters() else { return Vec::new() };
    let obj = |pairs: Vec<(&str, f64)>| {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), Value::Num(v))).collect())
    };
    let ram = gw_perfmodel::RamModel::a100();
    let roofline = gw_perfmodel::Roofline::new(gw_gpu_sim::MachineSpec::a100());
    let point = roofline.point("run", &c, None);
    vec![
        (
            "device_counters",
            obj(vec![
                ("launches", c.launches as f64),
                ("flops", c.flops as f64),
                ("global_load_bytes", c.global_load_bytes as f64),
                ("global_store_bytes", c.global_store_bytes as f64),
                ("shared_bytes", c.shared_bytes as f64),
                ("h2d_bytes", c.h2d_bytes as f64),
                ("d2h_bytes", c.d2h_bytes as f64),
                ("spill_load_bytes", c.spill_load_bytes as f64),
                ("spill_store_bytes", c.spill_store_bytes as f64),
            ]),
        ),
        (
            "perfmodel",
            obj(vec![
                ("ram_kernel_time_ms", ram.kernel_time(&c) * 1e3),
                ("arithmetic_intensity", point.ai),
                ("projected_gflops", point.gflops),
                ("roofline_efficiency", roofline.efficiency(&point)),
                ("ridge_ai", roofline.ridge_ai()),
            ]),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_bssn::init::LinearWaveData;
    use gw_octree::{Domain, MortonKey};

    fn small_mesh() -> Mesh {
        let mut leaves = vec![MortonKey::root()];
        for _ in 0..2 {
            leaves = leaves.iter().flat_map(|k| k.children()).collect();
        }
        leaves.sort();
        Mesh::build(Domain::centered_cube(8.0), &leaves)
    }

    fn wave_init() -> impl Fn([f64; 3], &mut [f64]) {
        let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
        move |p, out: &mut [f64]| wave.evaluate(p, out)
    }

    #[test]
    fn supervised_run_reports_summary() {
        let out = Run::new(SolverConfig::default())
            .mesh(small_mesh())
            .init(wave_init())
            .steps(2)
            .supervised(SupervisorConfig::default())
            .execute()
            .unwrap();
        let summary = out.supervised.expect("supervised summary");
        assert_eq!(summary.steps_completed, 2);
        assert!(summary.failures.is_empty());
    }

    #[test]
    fn distributed_run_matches_plain_bitwise() {
        let plain = Run::new(SolverConfig::default())
            .mesh(small_mesh())
            .init(wave_init())
            .steps(2)
            .execute()
            .unwrap();
        let dist = Run::new(SolverConfig::default())
            .mesh(small_mesh())
            .init(wave_init())
            .steps(2)
            .distributed(2)
            .execute()
            .unwrap();
        assert!(dist.distributed.is_some());
        assert_eq!(plain.state.as_slice(), dist.state.as_slice());
    }

    #[test]
    fn distributed_builder_derives_wiring_from_config() {
        // Config-drift guard: threads (the overlap pool size), the
        // supervised checkpoint keys, and the obs probe must reach the
        // distributed run exactly as the explicit `.world(..)` and
        // `.resilience(..)` spelled out by hand here.
        let dir = std::env::temp_dir().join("gw_run_wiring_test");
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let sup = SupervisorConfig {
            checkpoint_dir: Some(ckpt("derived")),
            checkpoint_every: 1,
            ..SupervisorConfig::default()
        };
        let config = SolverConfig { threads: 2, ..SolverConfig::default() };
        let explicit = Run::new(config)
            .mesh(small_mesh())
            .init(wave_init())
            .steps(2)
            .distributed(2)
            .world(WorldConfig {
                overlap: true,
                overlap_threads: config.threads, // what the builder must derive
                ..WorldConfig::default()
            })
            .resilience(ResilienceConfig {
                checkpoint_dir: Some(ckpt("explicit")),
                checkpoint_every: sup.checkpoint_every.max(1),
                degradation: sup.degradation,
                kill_once: None,
            })
            .execute()
            .unwrap();
        let probe = Probe::enabled();
        let path = dir.join("trace.json").to_str().unwrap().to_string();
        let derived = Run::new(config)
            .mesh(small_mesh())
            .init(wave_init())
            .steps(2)
            .distributed(2)
            // overlap_threads left 0: the builder must fill it from
            // config.threads, matching the explicit wiring above.
            .world(WorldConfig { overlap: true, ..WorldConfig::default() })
            .supervised(sup)
            .probe(probe.clone())
            .profile(path.clone())
            .execute()
            .unwrap();
        assert_eq!(
            derived.state.as_slice(),
            explicit.state.as_slice(),
            "derived and explicit wiring must drive the evolution identically"
        );
        assert_eq!(derived.retries, explicit.retries);
        // The supervised checkpoint keys became coordinated snapshots.
        let manifest = |name: &str| {
            let snap = crate::checkpoint::latest_snapshot(&ckpt(name))
                .expect("snapshot root readable")
                .unwrap_or_else(|| panic!("{name} run committed no snapshot"));
            crate::checkpoint::load_distributed(&snap).expect("manifest loads").manifest
        };
        let (d, e) = (manifest("derived"), manifest("explicit"));
        assert_eq!(d.steps_taken, 2);
        assert_eq!(d.shard_crcs, e.shard_crcs);
        if probe.is_enabled() {
            let text = std::fs::read_to_string(&path).unwrap();
            let stats = gw_obs::json::validate_trace(&text).expect("builder trace is schema-valid");
            assert!(stats.overlap_ratio() > 0.0, "overlapped run must meter hidden halo time");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn use_gpu_on_a_distributed_run_is_a_config_error() {
        let config = SolverConfig { use_gpu: true, ..SolverConfig::default() };
        let out = Run::new(config).mesh(small_mesh()).init(wave_init()).steps(1).distributed(2);
        match out.execute() {
            Err(RunError::Config(ConfigError::DistributedGpu(2))) => {}
            Err(other) => panic!("expected Config(DistributedGpu(2)), got {other:?}"),
            Ok(_) => panic!("a gpu-sim distributed run cannot be honoured yet"),
        }
    }

    #[test]
    fn incomplete_run_is_a_typed_error() {
        match Run::new(SolverConfig::default()).steps(1).execute() {
            Err(RunError::Incomplete("mesh")) => {}
            Err(other) => panic!("expected Incomplete(mesh), got {other:?}"),
            Ok(_) => panic!("meshless run must not succeed"),
        }
    }

    #[test]
    fn invalid_config_surfaces_as_config_error() {
        let bad = SolverConfig { courant: 2.0, ..Default::default() };
        match Run::new(bad).mesh(small_mesh()).init(wave_init()).steps(1).execute() {
            Err(RunError::Config(ConfigError::Courant(v))) => assert_eq!(v, 2.0),
            Err(other) => panic!("expected Config(Courant), got {other:?}"),
            Ok(_) => panic!("invalid config must not succeed"),
        }
    }

    #[test]
    fn profiled_run_writes_a_valid_trace_and_leaves_state_untouched() {
        let dir = std::env::temp_dir().join("gw_run_profile_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("trace.json");
        let path = path.to_str().unwrap().to_string();
        let plain = Run::new(SolverConfig::default())
            .mesh(small_mesh())
            .init(wave_init())
            .steps(2)
            .execute()
            .unwrap();
        let probe = Probe::enabled();
        let profiled = Run::new(SolverConfig::default())
            .mesh(small_mesh())
            .init(wave_init())
            .steps(2)
            .probe(probe.clone())
            .profile(path.clone())
            .execute()
            .unwrap();
        assert_eq!(
            plain.state.as_slice(),
            profiled.state.as_slice(),
            "profiling must not perturb the evolution"
        );
        if !probe.is_enabled() {
            // obs compiled out: .profile() must fail loudly instead —
            // covered by the error branch below, nothing more to check.
            return;
        }
        assert_eq!(profiled.trace_path.as_deref(), Some(path.as_str()));
        let text = std::fs::read_to_string(&path).unwrap();
        let stats = gw_obs::json::validate_trace(&text).expect("trace must be schema-valid");
        assert!(stats.step_coverage >= 0.9, "phases cover steps: {}", stats.step_coverage);
        assert_eq!(stats.counters.get("steps"), Some(&2.0));
        let doc = gw_obs::json::parse(&text).unwrap();
        let isa = doc.get("summary").and_then(|s| s.get("isa")).and_then(Value::as_str);
        assert_eq!(isa, Some(gw_par::Isa::host().name()), "the trace names the kernels' tier");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_with_disabled_probe_is_a_trace_error() {
        let out = Run::new(SolverConfig::default())
            .mesh(small_mesh())
            .init(wave_init())
            .steps(1)
            .probe(Probe::disabled())
            .profile("/nonexistent-dir-for-sure/trace.json")
            .execute();
        match out {
            Err(RunError::Trace { .. }) => {}
            other => panic!("expected Trace error, got {:?}", other.map(|o| o.steps_completed)),
        }
    }
}
