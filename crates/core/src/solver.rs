//! The top-level solver.

use crate::backend::{Backend, CpuBackend, GpuBackend, RhsKind};
use crate::regrid::transfer_state;
use crate::rk4::Rk4;
use gw_bssn::BssnParams;
use gw_expr::symbols::NUM_VARS;
use gw_gpu_sim::Device;
use gw_mesh::{Field, Mesh};
use gw_obs::{Counter, Phase, Probe};
use gw_octree::{refine_loop, BalanceMode, Domain, MortonKey, Refiner};
use gw_stencil::patch::PatchLayout;
use gw_waveform::ModeExtractor;

/// A specific way a [`SolverConfig`] can be invalid.
///
/// Typed so callers can branch on the failure (the `bssn_solver` binary
/// maps any variant to a dedicated exit code); `Display` preserves the
/// full human-readable diagnostics.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// Courant factor outside (0, 1].
    Courant(f64),
    /// Kreiss–Oliger dissipation strength non-finite or negative.
    KoSigma(f64),
    /// χ floor non-finite or non-positive.
    ChiFloor(f64),
    /// Gamma-driver damping non-finite or negative.
    Eta(f64),
    /// Worker-thread request above the pool's hard cap.
    Threads(usize),
    /// `use_gpu` on a distributed run over this many ranks: ranks evolve
    /// on the host, so the device cannot be honoured there yet.
    DistributedGpu(usize),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Courant(v) => write!(
                f,
                "courant factor must be in (0, 1], got {v} (RK4 with 6th-order stencils \
                 is unstable beyond 1)"
            ),
            ConfigError::KoSigma(v) => {
                write!(f, "ko_sigma (Kreiss–Oliger dissipation) must be finite and >= 0, got {v}")
            }
            ConfigError::ChiFloor(v) => {
                write!(f, "chi_floor must be finite and > 0 (it guards 1/chi terms), got {v}")
            }
            ConfigError::Eta(v) => {
                write!(f, "eta (gamma-driver damping) must be finite and >= 0, got {v}")
            }
            ConfigError::Threads(v) => {
                write!(f, "threads must be <= {} (got {v}); use 0 for auto", gw_par::MAX_THREADS)
            }
            ConfigError::DistributedGpu(ranks) => write!(
                f,
                "use_gpu is not supported on a distributed run ({ranks} ranks): ranks evolve \
                 on the CPU backend; set use_gpu to false"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    pub params: BssnParams,
    pub rhs_kind: RhsKind,
    /// Courant factor λ.
    pub courant: f64,
    /// Regrid window f_r (steps between host-side re-discretizations;
    /// 0 disables regridding).
    pub regrid_every: usize,
    /// Extract waves every this many steps (0 disables).
    pub extract_every: usize,
    /// Run on the simulated GPU device instead of host loops.
    pub use_gpu: bool,
    /// CPU worker threads for the patch pipeline (0 = auto: `GW_THREADS`
    /// env, else available parallelism). Results are bit-identical for
    /// every thread count (see DESIGN.md, threading model).
    pub threads: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            params: BssnParams::default(),
            rhs_kind: RhsKind::Pointwise,
            courant: 0.25,
            regrid_every: 0,
            extract_every: 0,
            use_gpu: false,
            threads: 0,
        }
    }
}

impl SolverConfig {
    /// Check the configuration for values that would produce an unstable
    /// or nonsensical run. Called by [`GwSolver::try_new`] and the
    /// parameter-file loader, so a typo in a par file fails loudly at
    /// construction instead of as NaNs a thousand steps in.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.courant > 0.0 && self.courant <= 1.0) {
            return Err(ConfigError::Courant(self.courant));
        }
        if !self.params.ko_sigma.is_finite() || self.params.ko_sigma < 0.0 {
            return Err(ConfigError::KoSigma(self.params.ko_sigma));
        }
        if !self.params.chi_floor.is_finite() || self.params.chi_floor <= 0.0 {
            return Err(ConfigError::ChiFloor(self.params.chi_floor));
        }
        if !self.params.eta.is_finite() || self.params.eta < 0.0 {
            return Err(ConfigError::Eta(self.params.eta));
        }
        if self.threads > gw_par::MAX_THREADS {
            return Err(ConfigError::Threads(self.threads));
        }
        Ok(())
    }
}

/// The GPU-accelerated AMR BSSN solver (Algorithm 1).
pub struct GwSolver {
    pub config: SolverConfig,
    pub mesh: Mesh,
    pub backend: Box<dyn Backend>,
    pub rk4: Rk4,
    pub time: f64,
    pub steps_taken: u64,
    /// Strain-mode wave extractors (mode recorders on extraction
    /// spheres).
    pub extractors: Vec<ModeExtractor>,
    /// Weyl-scalar extractors (direct Ψ₄; see `gw_waveform::weyl`).
    pub psi4_extractors: Vec<gw_waveform::Psi4Extractor>,
    /// Number of regrids performed.
    pub regrids: u64,
    /// Observability probe (disabled by default; see [`GwSolver::set_probe`]).
    probe: Probe,
}

impl GwSolver {
    /// Create a solver from a mesh and a pointwise initial-data function
    /// filling all 24 variables. Panics on an invalid configuration; use
    /// [`GwSolver::try_new`] to handle that as an error.
    pub fn new(config: SolverConfig, mesh: Mesh, init: impl Fn([f64; 3], &mut [f64])) -> Self {
        Self::try_new(config, mesh, init)
            .unwrap_or_else(|e| panic!("invalid solver configuration: {e}"))
    }

    /// Fallible constructor: validates `config` before building any
    /// backend state.
    pub fn try_new(
        config: SolverConfig,
        mesh: Mesh,
        init: impl Fn([f64; 3], &mut [f64]),
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let u0 = fill_field(&mesh, &init);
        let backend = make_backend(&config, &mesh);
        let mut s = Self {
            config,
            mesh,
            backend,
            rk4: Rk4 { courant: config.courant },
            time: 0.0,
            steps_taken: 0,
            extractors: Vec::new(),
            psi4_extractors: Vec::new(),
            regrids: 0,
            probe: Probe::disabled(),
        };
        s.backend.upload(&u0);
        Ok(s)
    }

    /// Attach an observability probe. Propagated into the backend (and,
    /// on the GPU backend, the device) so phase spans and counters are
    /// attributed; survives regrids. Instrumentation is timing/counting
    /// only and never perturbs the evolved state.
    pub fn set_probe(&mut self, probe: Probe) {
        self.backend.set_probe(probe.clone());
        self.probe = probe;
    }

    /// The solver's observability probe (disabled by default).
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// Build a complete, balanced mesh for a domain with a refiner.
    pub fn build_mesh(domain: Domain, refiner: &dyn Refiner, max_sweeps: usize) -> Mesh {
        let leaves =
            refine_loop(&[MortonKey::root()], &domain, refiner, BalanceMode::Full, max_sweeps);
        Mesh::build(domain, &leaves)
    }

    /// Current timestep.
    pub fn dt(&self) -> f64 {
        self.rk4.timestep(&self.mesh)
    }

    /// Attach a strain-mode wave extractor.
    pub fn add_extractor(&mut self, e: ModeExtractor) {
        self.extractors.push(e);
    }

    /// Attach a Weyl-scalar (Ψ₄) extractor.
    pub fn add_psi4_extractor(&mut self, e: gw_waveform::Psi4Extractor) {
        self.psi4_extractors.push(e);
    }

    /// Take one RK4 step; extract waves when due.
    pub fn step(&mut self) {
        let dt = self.dt();
        {
            let _span = self.probe.start(Phase::Step);
            self.rk4.step(self.backend.as_mut(), &self.mesh, dt);
        }
        self.probe.add(Counter::Steps, 1);
        self.time += dt;
        self.steps_taken += 1;
        if self.config.extract_every > 0
            && self.steps_taken.is_multiple_of(self.config.extract_every as u64)
            && (!self.extractors.is_empty() || !self.psi4_extractors.is_empty())
        {
            self.extract_now();
        }
    }

    /// Sample all extractors at the current time. (In the paper this is
    /// an asynchronous-stream device read; here it is an explicit
    /// metered device→host transfer.)
    pub fn extract_now(&mut self) {
        let _span = self.probe.start(Phase::Extract);
        let u = self.backend.download();
        for e in &mut self.extractors {
            e.record(self.time, &self.mesh, &u);
        }
        for e in &mut self.psi4_extractors {
            e.record(self.time, &self.mesh, &u);
        }
    }

    /// Host-side re-discretization: build a new grid, transfer state,
    /// rebuild the backend (the only synchronous host↔device data
    /// movement, as in Algorithm 1).
    pub fn regrid(&mut self, refiner: &dyn Refiner) {
        let _span = self.probe.start(Phase::Regrid);
        let old_keys: Vec<MortonKey> = self.mesh.octants.iter().map(|o| o.key).collect();
        let new_leaves = refine_loop(&old_keys, &self.mesh.domain, refiner, BalanceMode::Full, 8);
        if new_leaves == old_keys {
            return; // grid unchanged
        }
        let u = self.backend.download();
        self.move_to_grid(&u, &new_leaves);
    }

    /// Rebuild onto the grid `leaves`: build the mesh, transfer the
    /// state `u`, rebuild the backend (probe re-attached) and upload,
    /// then count the regrid.
    fn move_to_grid(&mut self, u: &Field, leaves: &[MortonKey]) {
        let new_mesh = Mesh::build(self.mesh.domain, leaves);
        let new_u =
            transfer_state(&self.mesh, u, &new_mesh).unwrap_or_else(|e| panic!("regrid: {e}"));
        self.mesh = new_mesh;
        self.backend = make_backend(&self.config, &self.mesh);
        self.backend.set_probe(self.probe.clone());
        self.backend.upload(&new_u);
        self.regrids += 1;
        self.probe.add(Counter::Regrids, 1);
    }

    /// Download the current state.
    pub fn state(&self) -> Field {
        self.backend.download()
    }

    /// Host threads driving the backend: the CPU patch pipeline's pool,
    /// or the simulated GPU's block-executing pool.
    pub fn n_threads(&self) -> usize {
        self.backend.n_threads()
    }

    /// Regrid driven by the **evolved solution**: refine where the
    /// interpolation detail of variable `var` of the current state
    /// exceeds `eps` (the paper's re-discretization to capture the
    /// evolving fields, Algorithm 1 line 3).
    pub fn regrid_on_state(&mut self, var: usize, eps: f64, base_level: u8, cap_level: u8) {
        let _span = self.probe.start(Phase::Regrid);
        let u = self.backend.download();
        let old_keys: Vec<MortonKey> = self.mesh.octants.iter().map(|o| o.key).collect();
        let new_leaves = {
            let mesh_ref = &self.mesh;
            let field_ref = &u;
            let refiner = gw_octree::InterpErrorRefiner::new(
                move |p: [f64; 3]| gw_waveform::sphere::interpolate(mesh_ref, field_ref, var, p),
                eps,
                base_level,
                cap_level,
            );
            refine_loop(&old_keys, &self.mesh.domain, &refiner, BalanceMode::Full, 8)
        };
        if new_leaves == old_keys {
            return;
        }
        self.move_to_grid(&u, &new_leaves);
    }

    /// Max Hamiltonian-constraint residual over a sample of points
    /// (diagnostic; full-field monitoring is in the constraints example).
    ///
    /// Octant-parallel with a fixed-order tree reduction: the max is
    /// combined in index order, so the result (including which NaN/sign
    /// quirks of `f64::max` win) is bit-identical at any thread count.
    pub fn constraint_sample(&self) -> f64 {
        let u = self.state();
        let l = PatchLayout::octant();
        let pool = gw_par::ThreadPool::shared(self.config.threads);
        // One interior point per octant is enough for a monitor. The
        // input staging buffer is per-worker, not per-octant.
        let probe = &self.probe;
        let per_oct = pool.map(self.mesh.n_octants(), |oct| {
            thread_local! {
                static INPUTS: std::cell::RefCell<Option<Vec<f64>>> =
                    const { std::cell::RefCell::new(None) };
            }
            INPUTS.with(|cell| {
                let mut borrow = cell.borrow_mut();
                let inputs = borrow.get_or_insert_with(|| {
                    probe.add(Counter::WorkspaceAllocs, 1);
                    vec![0.0; gw_expr::symbols::NUM_INPUTS]
                });
                inputs.fill(0.0);
                for (v, slot) in inputs.iter_mut().enumerate().take(NUM_VARS) {
                    *slot = u.block(v, oct)[l.idx(3, 3, 3)];
                }
                // Derivative slots left zero — this monitors only the
                // algebraic part; the examples do the full job.
                gw_bssn::constraints::hamiltonian(inputs).abs()
            })
        });
        gw_par::tree_reduce(&per_oct, 0.0f64, f64::max)
    }
}

fn make_backend(config: &SolverConfig, mesh: &Mesh) -> Box<dyn Backend> {
    if config.use_gpu {
        Box::new(GpuBackend::new(mesh, config.params, config.rhs_kind, Device::a100()))
    } else {
        Box::new(CpuBackend::with_threads(mesh, config.params, config.rhs_kind, config.threads))
    }
}

/// Fill a 24-variable field from a pointwise function.
pub fn fill_field(mesh: &Mesh, init: &impl Fn([f64; 3], &mut [f64])) -> Field {
    let mut f = Field::zeros(NUM_VARS, mesh.n_octants());
    let l = PatchLayout::octant();
    let mut vals = [0.0; NUM_VARS];
    for oct in 0..mesh.n_octants() {
        for (i, j, k) in l.iter() {
            init(mesh.point_coords(oct, i, j, k), &mut vals);
            for (v, &val) in vals.iter().enumerate() {
                f.block_mut(v, oct)[l.idx(i, j, k)] = val;
            }
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_bssn::init::LinearWaveData;

    fn uniform_leaves(level: u8) -> Vec<MortonKey> {
        let mut leaves = vec![MortonKey::root()];
        for _ in 0..level {
            leaves = leaves.iter().flat_map(|k| k.children()).collect();
        }
        leaves.sort();
        leaves
    }

    #[test]
    fn wave_evolution_cpu_vs_gpu_identical() {
        let domain = Domain::centered_cube(8.0);
        let mesh = Mesh::build(domain, &uniform_leaves(2));
        let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
        let init = |p: [f64; 3], out: &mut [f64]| wave.evaluate(p, out);
        let mut cpu =
            GwSolver::new(SolverConfig::default(), Mesh::build(domain, &uniform_leaves(2)), init);
        let mut gpu =
            GwSolver::new(SolverConfig { use_gpu: true, ..Default::default() }, mesh, init);
        for _ in 0..2 {
            cpu.step();
            gpu.step();
        }
        let uc = cpu.state();
        let ug = gpu.state();
        for (a, b) in uc.as_slice().iter().zip(ug.as_slice().iter()) {
            assert_eq!(a, b, "Fig-21 property: backends agree bitwise");
        }
    }

    #[test]
    fn linear_wave_stays_linear_and_propagates() {
        let domain = Domain::centered_cube(8.0);
        let mesh = Mesh::build(domain, &uniform_leaves(2));
        let amp = 1e-4;
        // Long-wavelength packet: well resolved by the level-2 grid
        // (h ≈ 0.67, ~13 points per carrier wavelength).
        let wave = LinearWaveData::new(amp, 0.0, 3.0, 0.7);
        let mut solver =
            GwSolver::new(SolverConfig::default(), mesh, |p, out| wave.evaluate(p, out));
        let steps = 6;
        for _ in 0..steps {
            solver.step();
        }
        let u = solver.state();
        // Metric perturbation stays O(amp) (no blow-up) and the gt_xx
        // profile has moved: compare against the analytic translation.
        let t = solver.time;
        let l = PatchLayout::octant();
        let mut max_err = 0.0f64;
        let mut max_dev = 0.0f64;
        for oct in 0..solver.mesh.n_octants() {
            for (i, j, k) in l.iter() {
                let p = solver.mesh.point_coords(oct, i, j, k);
                // The Sommerfeld boundary assumes radially-outgoing waves;
                // a plane wave violates that at the tangential boundaries,
                // so compare only in the causally-clean interior.
                if p.iter().any(|c| c.abs() > 5.0) {
                    continue;
                }
                let got = u.block(gw_expr::symbols::var::gt(0, 0), oct)[l.idx(i, j, k)];
                let expect = 1.0 + wave.h_plus(p[2], t);
                max_err = max_err.max((got - expect).abs());
                max_dev = max_dev.max((got - 1.0).abs());
            }
        }
        assert!(max_dev > 0.2 * amp, "wave must be present, dev {max_dev}");
        assert!(
            max_err < 0.5 * amp,
            "wave must track the analytic solution: err {max_err} vs amp {amp}"
        );
    }

    #[test]
    fn extraction_records_series() {
        let domain = Domain::centered_cube(8.0);
        let mesh = Mesh::build(domain, &uniform_leaves(2));
        let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
        let mut solver = GwSolver::new(
            SolverConfig { extract_every: 1, ..Default::default() },
            mesh,
            |p, out| wave.evaluate(p, out),
        );
        let sphere =
            gw_waveform::ExtractionSphere::new(4.0, gw_waveform::lebedev::product_rule(6, 12));
        solver.add_extractor(ModeExtractor::new(sphere, vec![(2, 2), (2, 0)]));
        for _ in 0..3 {
            solver.step();
        }
        let m22 = solver.extractors[0].mode(2, 2).unwrap();
        assert_eq!(m22.len(), 3);
        // A +-polarized z-wave has (2, ±2) content and no (2,0).
        let m20 = solver.extractors[0].mode(2, 0).unwrap();
        let a22: f64 = m22.values.iter().map(|v| v.norm()).sum();
        let a20: f64 = m20.values.iter().map(|v| v.norm()).sum();
        assert!(a22 > 10.0 * a20, "22 mode {a22} must dominate 20 mode {a20}");
    }

    #[test]
    fn regrid_transfers_state_and_counts() {
        let domain = Domain::centered_cube(8.0);
        let mesh = Mesh::build(domain, &uniform_leaves(1));
        let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
        let mut solver =
            GwSolver::new(SolverConfig::default(), mesh, |p, out| wave.evaluate(p, out));
        // Refine everything one level.
        struct OneDeeper;
        impl Refiner for OneDeeper {
            fn decide(&self, _d: &Domain, leaf: &MortonKey) -> gw_octree::RefineDecision {
                if leaf.level() < 2 {
                    gw_octree::RefineDecision::Refine
                } else {
                    gw_octree::RefineDecision::Keep
                }
            }
        }
        let before = solver.mesh.n_octants();
        solver.regrid(&OneDeeper);
        assert_eq!(solver.regrids, 1);
        assert_eq!(solver.mesh.n_octants(), 8 * before);
        // State survived (amplitude preserved).
        let u = solver.state();
        assert!(u.linf(gw_expr::symbols::var::gt(0, 0)) > 1.0);
        // And evolution continues.
        solver.step();
        assert!(solver.state().linf_all() < 2.0);
    }

    #[test]
    fn state_driven_regrid_tracks_the_packet() {
        // Evolve a travelling packet with periodic solution-driven
        // regrids: the refined region must follow the packet along +z.
        let domain = Domain::centered_cube(8.0);
        let wave = LinearWaveData::new(1e-3, -3.0, 1.5, 1.0);
        let refiner = gw_octree::InterpErrorRefiner::new(
            move |p: [f64; 3]| wave.h_plus(p[2], 0.0),
            1e-4,
            2,
            3,
        );
        let mesh = GwSolver::build_mesh(domain, &refiner, 8);
        let mut solver =
            GwSolver::new(SolverConfig::default(), mesh, |p, out| wave.evaluate(p, out));
        let fine_center_z = |s: &GwSolver| -> f64 {
            let mut acc = 0.0;
            let mut cnt = 0.0;
            let lmax = s.mesh.octants.iter().map(|o| o.level).max().unwrap();
            for o in &s.mesh.octants {
                if o.level == lmax {
                    acc += o.origin[2] + 3.0 * o.h;
                    cnt += 1.0;
                }
            }
            acc / cnt
        };
        let z0 = fine_center_z(&solver);
        assert!(z0 < -1.0, "initial refinement near the packet at z=-3 (got {z0})");
        // Evolve ~t=2 and regrid on the evolved gt_xx deviation... use
        // At_xx, which is localized on the packet (gt_xx - 1 also works
        // but interpolating around 1.0 needs the eps on the deviation).
        for _ in 0..12 {
            solver.step();
        }
        solver.regrid_on_state(gw_expr::symbols::var::at(0, 0), 2e-5, 2, 3);
        assert_eq!(solver.regrids, 1);
        let z1 = fine_center_z(&solver);
        assert!(z1 > z0 + 0.5, "refined region must follow the packet: {z0:.2} -> {z1:.2}");
        // And evolution continues stably on the new grid.
        solver.step();
        assert!(solver.state().linf_all() < 2.0);
    }

    #[test]
    fn dt_shrinks_immediately_after_midrun_refinement() {
        // CFL guard: a regrid that deepens the finest level must shrink
        // the very next step — no stale-dt window. `GwSolver::step`
        // recomputes dt from the current mesh each call; this test locks
        // that in.
        let domain = Domain::centered_cube(8.0);
        let mesh = Mesh::build(domain, &uniform_leaves(1));
        let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
        let mut solver =
            GwSolver::new(SolverConfig::default(), mesh, |p, out| wave.evaluate(p, out));
        solver.step();
        let dt_coarse = solver.dt();
        struct ToLevel2;
        impl Refiner for ToLevel2 {
            fn decide(&self, _d: &Domain, leaf: &MortonKey) -> gw_octree::RefineDecision {
                if leaf.level() < 2 {
                    gw_octree::RefineDecision::Refine
                } else {
                    gw_octree::RefineDecision::Keep
                }
            }
        }
        solver.regrid(&ToLevel2);
        // `dt()` reads the post-regrid mesh immediately — no stale cache.
        // Halving h exactly halves dt (exponent-only change).
        assert_eq!(solver.dt(), 0.5 * dt_coarse, "deeper finest level must halve the step");
        let t_before = solver.time;
        solver.step();
        let dt_taken = solver.time - t_before;
        // `time += dt` rounds, so compare with a one-ulp-scale tolerance.
        assert!(
            (dt_taken - solver.dt()).abs() < 1e-15,
            "step must use the post-regrid CFL dt (took {dt_taken}, dt() = {})",
            solver.dt()
        );
    }

    #[test]
    fn solver_timestep_and_time_bookkeeping() {
        let domain = Domain::centered_cube(8.0);
        let mesh = Mesh::build(domain, &uniform_leaves(1));
        let mut solver = GwSolver::new(SolverConfig::default(), mesh, |_p, out| {
            out.iter_mut().for_each(|v| *v = 0.0);
            out[gw_expr::symbols::var::ALPHA] = 1.0;
            out[gw_expr::symbols::var::CHI] = 1.0;
            out[gw_expr::symbols::var::gt(0, 0)] = 1.0;
            out[gw_expr::symbols::var::gt(1, 1)] = 1.0;
            out[gw_expr::symbols::var::gt(2, 2)] = 1.0;
        });
        let dt = solver.dt();
        for _ in 0..3 {
            solver.step();
        }
        assert_eq!(solver.steps_taken, 3);
        assert!((solver.time - 3.0 * dt).abs() < 1e-14);
    }
}
