//! Seeded input generator: `(workload, seed)` → domain, mesh leaves,
//! initial data and the step/regrid/extract/snapshot schedule.
//!
//! Both the untraced and the traced runs build their inputs here, so they
//! measure the same program on the same inputs. The solver only ever sees
//! the generated leaves and the pointwise initial-data closure.

use gw_bssn::init::{LinearWaveData, PunctureData, PunctureSpec};
use gw_core::backend::RhsKind;
use gw_core::solver::SolverConfig;
use gw_expr::schedule::ScheduleStrategy;
use gw_expr::symbols::var;
use gw_octree::{
    refine_loop, BalanceMode, Domain, InterpErrorRefiner, MortonKey, Puncture, PunctureRefiner,
};

/// The benchmark's workloads. Names are fixed: later changes are measured
/// against them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// q = 8 puncture data on the Fig. 12 grid (624 octants, levels 2–7),
    /// single rank, `CpuBackend`, pointwise RHS, 2 threads, no regrid,
    /// extraction or checkpoint. This is the production hot loop on a
    /// strongly adaptive grid: RHS is ≈ 68 % of a step and
    /// prolongation-heavy o2p ≈ 30 %, so kernel, scatter and `gw-par` work
    /// shows here, and comm, checkpoint and regrid do nothing.
    InspiralQ8,
    /// q = 1 puncture grid of `pars/q1.par.json` (456 octants) on two
    /// simulated ranks with overlapped halo exchange, one worker per rank,
    /// and a coordinated snapshot every step. The only workload that runs
    /// `gw-comm`, the gather-padding rank kernel in `multi` and sharded
    /// checkpoints (≈ 66 MB of halo traffic in 12 messages per step plus
    /// a ≈ 30 MB snapshot). Its per-octant rank compute is ≈ 2.6× the
    /// single-rank backend's, so it also shows when a `CpuBackend` gain
    /// does not carry over to the distributed path.
    BinaryQ1TwoRank,
    /// A linear GW packet in a ±8 domain on the simulated GPU with the
    /// staged+CSE generated tape, solution-driven `regrid_on_state` every
    /// few steps (288 → 400 octants), and (2,2) + Ψ₄ extraction every
    /// step, checked against the analytic h₊. It exercises the paper's
    /// Algorithm 1 split — host regrid with H2D re-upload, device kernels,
    /// D2H extraction — plus the `gw-expr` tape and `gw-gpu-sim` counters,
    /// which neither other workload touches. Regrid plus extraction are
    /// only ≈ 1 % of its timed loop, which caps what a regrid change can
    /// claim here.
    WaveRegridGpuSim,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::InspiralQ8, Workload::BinaryQ1TwoRank, Workload::WaveRegridGpuSim];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InspiralQ8 => "inspiral_q8",
            Workload::BinaryQ1TwoRank => "binary_q1_2rank",
            Workload::WaveRegridGpuSim => "wave_regrid_gpusim",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size: the benchmark grids, or tiny grids for smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// How the initial leaves are refined.
#[derive(Clone, Debug)]
pub enum GridSpec {
    /// Nested spheres around each puncture.
    Punctures(PunctureRefiner),
    /// Interpolation-error refinement on the packet's analytic h₊ at t = 0.
    Wave { eps: f64, base: u8, cap: u8 },
}

/// Pointwise initial data.
#[derive(Clone, Debug)]
pub enum InitData {
    Puncture(PunctureData),
    Wave(LinearWaveData),
}

/// Solution-driven regrid parameters (`GwSolver::regrid_on_state`).
#[derive(Clone, Copy, Debug)]
pub struct RegridRule {
    pub var: usize,
    pub eps: f64,
    pub base: u8,
    pub cap: u8,
}

/// What one episode does, step by step.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Steps taken before timing starts (first-touch page faults; the
    /// distributed path has none, see `drive::run_distributed`).
    pub warmup_steps: usize,
    /// Steps in the timed evolution loop.
    pub timed_steps: usize,
    /// Regrid before a step whenever `steps_taken` is a positive multiple
    /// of this (0 = never).
    pub regrid_every: usize,
    pub regrid: RegridRule,
    /// Sample the (2,2) strain mode and Ψ₄ after every step.
    pub extract: bool,
    pub extract_radius: f64,
    /// Simulated ranks (1 = the single-rank solver; more runs the
    /// distributed driver with a coordinated snapshot after every timed
    /// step).
    pub ranks: usize,
    /// Workers per rank on the distributed path.
    pub rank_workers: usize,
}

/// Everything one episode of a workload needs, generated from a seed.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub domain: Domain,
    pub grid: GridSpec,
    pub data: InitData,
    pub config: SolverConfig,
    pub schedule: Schedule,
    /// Octant counts every seed's grid stays within.
    pub octant_band: (usize, usize),
    /// Region where the packet is causally clean of the boundary
    /// (wave workload: `|x_i| ≤ interior`).
    pub interior: f64,
    /// Acceptance limit of `wave_err`.
    pub err_limit: f64,
}

/// SplitMix64: small, seedable, and identical on every platform.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, workload: Workload) -> Self {
        Rng(seed ^ (workload as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn sym(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Rotate a binary about the z axis by `phi`, then translate it so that
/// no grid point comes close to a puncture, where χ ~ r⁴ nearly vanishes
/// and a step drives it negative: the first puncture moves to the middle
/// of a cell of its finest grid (spacing `h_first`), and the orbital plane
/// sits `h_second / 2` off the planes of the second puncture's finest grid
/// (spacing `h_second`, which divides `h_first / 2`).
fn place_binary(
    data: PunctureData,
    phi: f64,
    domain: &Domain,
    h_first: f64,
    h_second: f64,
) -> PunctureData {
    let (s, c) = phi.sin_cos();
    let rot = |v: [f64; 3]| [c * v[0] - s * v[1], s * v[0] + c * v[1], v[2]];
    let first = rot(data.punctures[0].pos);
    let mid_cell = |a: usize| {
        let lo = domain.min[a];
        lo + (((first[a] - lo) / h_first).floor() + 0.5) * h_first - first[a]
    };
    let z = if h_second < h_first { 0.5 * (h_first + h_second) } else { 0.5 * h_first };
    let shift = [mid_cell(0), mid_cell(1), z];
    let punctures = data
        .punctures
        .iter()
        .map(|b| {
            let p = rot(b.pos);
            let pos = [p[0] + shift[0], p[1] + shift[1], p[2] + shift[2]];
            PunctureSpec { pos, momentum: rot(b.momentum), ..*b }
        })
        .collect();
    PunctureData::new(punctures)
}

/// Grid spacing at `level` (7 points per octant edge, 6 intervals).
fn spacing(domain: &Domain, level: u8) -> f64 {
    domain.grid_spacing(level, 7)
}

impl Inputs {
    /// The inputs of `workload` for `seed`. The same seed always gives
    /// the same inputs.
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        let mut rng = Rng::new(seed, workload);
        let tiny = scale == Scale::Tiny;
        let no_regrid = RegridRule { var: 0, eps: 0.0, base: 0, cap: 0 };
        let base_schedule = Schedule {
            warmup_steps: 1,
            timed_steps: 1,
            regrid_every: 0,
            regrid: no_regrid,
            extract: false,
            extract_radius: 0.0,
            ranks: 1,
            rank_workers: 1,
        };
        match workload {
            Workload::InspiralQ8 => {
                // The seed jitters the Bowen–York momenta (±2 %: a slightly
                // eccentric orbit) and gives each hole a small aligned
                // spin. The punctures stay put, and with them the Fig. 12
                // grid: even a one-cell move of the small hole changes
                // the octant count by up to 10 %.
                let domain = Domain::centered_cube(16.0);
                let (big_level, small_level) = if tiny { (3, 4) } else { (5, 7) };
                let (h_big, h_small) = (spacing(&domain, big_level), spacing(&domain, small_level));
                let pi = std::f64::consts::PI;
                let mut data =
                    place_binary(PunctureData::binary(8.0, 6.0), pi, &domain, h_big, h_small);
                let p_scale = 1.0 + 0.02 * rng.sym();
                for b in &mut data.punctures {
                    b.momentum = b.momentum.map(|p| p * p_scale);
                    b.spin = [0.0, 0.0, 0.05 * rng.sym() * b.mass * b.mass];
                }
                let [big, small] = [&data.punctures[0], &data.punctures[1]];
                let refiner = PunctureRefiner::new(
                    vec![
                        Puncture { pos: big.pos, finest_level: big_level, inner_radius: big.mass },
                        Puncture {
                            pos: small.pos,
                            finest_level: small_level,
                            inner_radius: small.mass,
                        },
                    ],
                    2,
                );
                Inputs {
                    domain,
                    grid: GridSpec::Punctures(refiner),
                    data: InitData::Puncture(data),
                    config: SolverConfig { threads: 2, ..SolverConfig::default() },
                    schedule: Schedule { timed_steps: if tiny { 2 } else { 10 }, ..base_schedule },
                    octant_band: if tiny { (50, 200) } else { (600, 650) },
                    interior: 0.0,
                    err_limit: 1.0,
                }
            }
            Workload::BinaryQ1TwoRank => {
                let d = 6.0 * (1.0 + 0.005 * rng.sym());
                let phi = 0.01 * rng.sym();
                let domain = Domain::centered_cube(16.0);
                let (base, finest) = if tiny { (1, 3) } else { (2, 5) };
                let h = spacing(&domain, finest);
                let data = place_binary(PunctureData::binary(1.0, d), phi, &domain, h, h);
                // As `bssn_solver` builds the grid from pars/q1.par.json.
                let punctures = data
                    .punctures
                    .iter()
                    .map(|b| Puncture {
                        pos: b.pos,
                        finest_level: finest,
                        inner_radius: (b.mass * 1.5).max(0.3),
                    })
                    .collect();
                Inputs {
                    domain,
                    grid: GridSpec::Punctures(PunctureRefiner::new(punctures, base)),
                    data: InitData::Puncture(data),
                    config: SolverConfig { threads: 1, ..SolverConfig::default() },
                    schedule: Schedule {
                        warmup_steps: 0,
                        timed_steps: if tiny { 2 } else { 5 },
                        ranks: 2,
                        rank_workers: 1,
                        ..base_schedule
                    },
                    octant_band: if tiny { (20, 200) } else { (440, 470) },
                    interior: 0.0,
                    err_limit: 1.0,
                }
            }
            Workload::WaveRegridGpuSim => {
                // Packet centre ±0.02 around z = −3 and carrier wavenumber
                // ±0.2 %: the packet moves against the grid without changing
                // how much of it needs the fine level, or its error by more
                // than a few percent.
                let center = -3.0 + 0.02 * rng.sym();
                let k = 1.0 + 0.002 * rng.sym();
                let wave = LinearWaveData::new(1e-3, center, 1.5, k);
                let (base, cap) = if tiny { (1, 2) } else { (2, 3) };
                Inputs {
                    domain: Domain::centered_cube(8.0),
                    grid: GridSpec::Wave { eps: 1e-4, base, cap },
                    data: InitData::Wave(wave),
                    config: SolverConfig {
                        use_gpu: true,
                        rhs_kind: RhsKind::Generated(ScheduleStrategy::StagedCse),
                        threads: 2,
                        ..SolverConfig::default()
                    },
                    schedule: Schedule {
                        timed_steps: if tiny { 2 } else { 8 },
                        regrid_every: if tiny { 1 } else { 3 },
                        regrid: RegridRule { var: var::at(0, 0), eps: 2e-5, base, cap },
                        extract: true,
                        extract_radius: 4.0,
                        ..base_schedule
                    },
                    octant_band: if tiny { (8, 64) } else { (280, 300) },
                    interior: 5.0,
                    err_limit: if tiny { 5e-4 } else { 1e-4 },
                }
            }
        }
    }

    /// The initial mesh leaves (`refine_loop` from the root).
    pub fn leaves(&self) -> Vec<MortonKey> {
        let root = [MortonKey::root()];
        match &self.grid {
            GridSpec::Punctures(r) => refine_loop(&root, &self.domain, r, BalanceMode::Full, 20),
            GridSpec::Wave { eps, base, cap } => {
                let InitData::Wave(wave) = self.data else {
                    unreachable!("wave grids refine on wave data")
                };
                let r = InterpErrorRefiner::new(move |p| wave.h_plus(p[2], 0.0), *eps, *base, *cap);
                refine_loop(&root, &self.domain, &r, BalanceMode::Full, 8)
            }
        }
    }

    /// Initial data at a point (all 24 BSSN variables).
    pub fn init(&self, p: [f64; 3], out: &mut [f64]) {
        match &self.data {
            InitData::Puncture(d) => d.evaluate(p, out),
            InitData::Wave(w) => w.evaluate(p, out),
        }
    }
}
