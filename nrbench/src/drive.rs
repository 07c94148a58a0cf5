//! One episode of a workload: set up, warm up, run the timed evolution
//! loop, check the gates.
//!
//! Every program call sits inside a span of the recorder. With the
//! recorder off the spans cost nothing and the steps are the program's
//! own `GwSolver::step`; with it on, every other timed step replays the
//! `Backend` trait calls in `Rk4::step` order, each under its own span, so
//! the per-layer self times add up to the step. Both paths compute the
//! same bits (the smoke tests compare state digests).

use crate::spans::Recorder;
use crate::workload::{InitData, Inputs};
use gw_core::backend::{Backend, Buf, CpuBackend, RhsKind};
use gw_core::checkpoint;
use gw_core::multi::ResilienceConfig;
use gw_core::run::Run;
use gw_core::solver::{GwSolver, SolverConfig};
use gw_expr::schedule::ScheduleStrategy;
use gw_expr::symbols::{var, NUM_VARS};
use gw_gpu_sim::CounterSnapshot;
use gw_mesh::{Field, Mesh, ScatterKind};
use gw_obs::{Counter, Probe, TraceEvent};
use gw_stencil::patch::{PatchLayout, PATCH_VOLUME, POINTS_PER_SIDE};
use gw_waveform::{product_rule, ExtractionSphere, ModeExtractor, Psi4Extractor, WaveformSeries};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Operations attempted and failed. Every step, regrid, extraction and
/// snapshot is one operation; an `Err`, a non-finite value or a failed
/// gate fails one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        self.gate(ok, what);
    }

    /// A gate on operations already counted: it fails one of them.
    fn gate(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed = (self.failed + 1).min(self.attempted.max(1));
            eprintln!("nrbench: gate failed: {what}");
        }
    }
}

/// What one episode measured.
#[derive(Clone, Debug, Default)]
pub struct Episode {
    /// Mesh construction, initial-data fill and backend/driver
    /// construction, up to the first step.
    pub setup_s: f64,
    /// Warm-up steps.
    pub warmup_s: f64,
    /// The timed evolution loop: steps plus any regrid, extraction and
    /// snapshot work in it.
    pub loop_s: f64,
    /// Simulated time the timed loop advanced (M).
    pub sim_time: f64,
    /// Seconds of each timed step call (single rank only: the distributed
    /// driver runs all its steps inside one call).
    pub step_times: Vec<f64>,
    /// Grid points of each timed step.
    pub step_points: Vec<f64>,
    pub wave_err: f64,
    pub ops: Ops,
    /// FNV-1a over the bits of the final state.
    pub digest: u64,
    /// Per-layer metrics (traced episodes only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The program's own probe spans (traced distributed episodes), with
    /// their offset on the recorder's clock.
    pub probe_events: Vec<TraceEvent>,
    pub probe_offset_us: f64,
}

impl Episode {
    /// Grid-point updates per second (Mpt/s) over the step calls; on the
    /// distributed path, whose steps run inside one call, over the timed
    /// loop.
    pub fn mpts_per_s(&self) -> f64 {
        let points: f64 = self.step_points.iter().sum();
        let secs = if self.step_times.is_empty() {
            self.loop_s
        } else {
            self.step_times.iter().sum()
        };
        points / secs / 1e6
    }

    /// Time to solution: set-up, warm-up and the timed loop.
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.warmup_s + self.loop_s
    }
}

/// FNV-1a over the bit patterns of a field.
pub fn digest(f: &Field) -> u64 {
    f.as_slice()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, v| (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Finite, with α > 0 and χ > 0 everywhere.
fn healthy(u: &Field, n_oct: usize) -> bool {
    let min = |v: usize| {
        (0..n_oct).flat_map(|o| u.block(v, o).iter().copied()).fold(f64::INFINITY, f64::min)
    };
    let (alpha, chi) = (min(var::ALPHA), min(var::CHI));
    let ok = u.as_slice().iter().all(|v| v.is_finite()) && alpha > 0.0 && chi > 0.0;
    if !ok {
        eprintln!("nrbench: unhealthy state: min α = {alpha:e}, min χ = {chi:e}");
    }
    ok
}

/// L∞ of γ̃ₓₓ − (1 + h₊(z − t)) where every `|x_i| ≤ interior`.
fn wave_linf(
    mesh: &Mesh,
    u: &Field,
    wave: &gw_bssn::init::LinearWaveData,
    t: f64,
    interior: f64,
) -> f64 {
    let l = PatchLayout::octant();
    let mut err = 0.0f64;
    for oct in 0..mesh.n_octants() {
        for (i, j, k) in l.iter() {
            let p = mesh.point_coords(oct, i, j, k);
            if p.iter().all(|c| c.abs() <= interior) {
                let got = u.block(var::gt(0, 0), oct)[l.idx(i, j, k)];
                err = err.max((got - 1.0 - wave.h_plus(p[2], t)).abs());
            }
        }
    }
    err
}

/// RMS Hamiltonian-constraint residual on a sphere of radius 10 around
/// the origin, clear of both punctures (the exact solution has H = 0).
fn hamiltonian_rms(mesh: &Mesh, u: &Field) -> f64 {
    let sphere = ExtractionSphere::new(10.0, product_rule(6, 12));
    let sq: f64 = sphere
        .points
        .iter()
        .map(|&p| {
            let inputs = gw_waveform::weyl::inputs_at_point(mesh, u, p);
            gw_bssn::constraints::hamiltonian(&inputs).powi(2)
        })
        .sum();
    (sq / sphere.points.len() as f64).sqrt()
}

/// The workload's accuracy error against its exact solution.
fn accuracy(inputs: &Inputs, mesh: &Mesh, u: &Field, t: f64) -> f64 {
    match &inputs.data {
        InitData::Wave(w) => wave_linf(mesh, u, w, t, inputs.interior),
        InitData::Puncture(_) => hamiltonian_rms(mesh, u),
    }
}

/// One RHS evaluation: octant-to-patch scatter, then the kernel.
fn rhs_stage(rec: &mut Recorder, b: &mut dyn Backend, mesh: &Mesh, input: Buf) {
    rec.span("o2p", |_| b.o2p_raw(mesh, input));
    rec.span("rhs", |_| b.rhs_raw(mesh, Buf::K));
}

/// One RK4 step replayed through the `Backend` trait in `Rk4::step`
/// order, each call under a span named after its gw-obs phase.
fn traced_step(solver: &mut GwSolver, rec: &mut Recorder) {
    let dt = solver.dt();
    let mesh = &solver.mesh;
    let b = solver.backend.as_mut();
    rec.span("step", |rec| {
        rhs_stage(rec, b, mesh, Buf::U);
        rec.span("axpy", |_| {
            b.assign_axpy_raw(Buf::Acc, Buf::U, dt / 6.0, Buf::K);
            b.assign_axpy_raw(Buf::Stage, Buf::U, dt / 2.0, Buf::K);
        });
        for (w_acc, w_stage) in [(dt / 3.0, dt / 2.0), (dt / 3.0, dt)] {
            rhs_stage(rec, b, mesh, Buf::Stage);
            rec.span("axpy", |_| {
                b.axpy_raw(Buf::Acc, w_acc, Buf::K);
                b.assign_axpy_raw(Buf::Stage, Buf::U, w_stage, Buf::K);
            });
        }
        rhs_stage(rec, b, mesh, Buf::Stage);
        rec.span("axpy", |_| {
            b.axpy_raw(Buf::Acc, dt / 6.0, Buf::K);
            b.copy_raw(Buf::U, Buf::Acc);
        });
        rec.span("p2o", |_| b.sync_interfaces_raw(mesh));
    });
    solver.time += dt;
    solver.steps_taken += 1;
}

/// Device counters accumulated over program calls.
#[derive(Default)]
struct DeviceAcc(CounterSnapshot);

impl DeviceAcc {
    /// Add what one call metered. A regrid that rebuilt the backend
    /// starts a fresh device, whose counters are all this call's.
    fn add(
        &mut self,
        before: Option<CounterSnapshot>,
        after: Option<CounterSnapshot>,
        rebuilt: bool,
    ) {
        let (Some(b), Some(a)) = (before, after) else { return };
        let d = if rebuilt { a } else { a.delta_since(&b) };
        let s = &mut self.0;
        s.global_load_bytes += d.global_load_bytes;
        s.global_store_bytes += d.global_store_bytes;
        s.shared_bytes += d.shared_bytes;
        s.flops += d.flops;
        s.h2d_bytes += d.h2d_bytes;
        s.d2h_bytes += d.d2h_bytes;
        s.launches += d.launches;
        s.spill_load_bytes += d.spill_load_bytes;
        s.spill_store_bytes += d.spill_store_bytes;
    }
}

/// Time `f`, adding the seconds to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// The step gate: a finite state, with α > 0 and χ > 0 for puncture
/// data (the wave workload checks finiteness only).
fn step_ok(inputs: &Inputs, solver: &GwSolver) -> bool {
    let u = solver.state();
    match inputs.data {
        InitData::Puncture(_) => healthy(&u, solver.mesh.n_octants()),
        InitData::Wave(_) => u.as_slice().iter().all(|v| v.is_finite()),
    }
}

/// Computed size of the full-mesh octant-to-patch buffers.
fn patch_buf_mb(n_oct: usize, copies: usize) -> f64 {
    (copies * NUM_VARS * n_oct * PATCH_VOLUME * 8) as f64 / 1e6
}

/// Single-rank set-up: leaves, mesh, then the solver (initial-data fill
/// and backend construction) with its extractors.
fn setup_single(inputs: &Inputs, rec: &mut Recorder) -> (GwSolver, usize) {
    let sch = inputs.schedule;
    rec.span("setup", |rec| {
        let leaves = rec.span("octree", |_| inputs.leaves());
        let mesh = rec.span("mesh", |_| Mesh::build(inputs.domain, &leaves));
        let mut solver = rec.span("solver", |_| {
            GwSolver::try_new(inputs.config, mesh, |p, out| inputs.init(p, out))
                .expect("workload configurations are valid")
        });
        if sch.extract {
            let sphere = || ExtractionSphere::new(sch.extract_radius, product_rule(6, 12));
            solver.add_extractor(ModeExtractor::new(sphere(), vec![(2, 2)]));
            solver.add_psi4_extractor(Psi4Extractor::new(sphere(), vec![(2, 2)]));
        }
        (solver, leaves.len())
    })
}

/// Distributed set-up: leaves and the mesh. The driver fills the initial
/// data and builds its rank state inside `Run::execute`.
fn setup_distributed(inputs: &Inputs, rec: &mut Recorder) -> (Mesh, Vec<gw_octree::MortonKey>) {
    rec.span("setup", |rec| {
        let leaves = rec.span("octree", |_| inputs.leaves());
        let mesh = rec.span("mesh", |_| Mesh::build(inputs.domain, &leaves));
        (mesh, leaves)
    })
}

/// Seconds one set-up takes on its own (runs report the median of
/// several, on top of each episode's own set-up).
pub fn setup_only(inputs: &Inputs) -> f64 {
    let mut rec = Recorder::new(false);
    let mut s = 0.0;
    if inputs.schedule.ranks > 1 {
        let built = timed(&mut s, || setup_distributed(inputs, &mut rec));
        drop(built);
    } else {
        let built = timed(&mut s, || setup_single(inputs, &mut rec));
        drop(built);
    }
    s
}

/// The single-rank workloads (`GwSolver` on one backend).
pub fn run_single(inputs: &Inputs, rec: &mut Recorder) -> Episode {
    let sch = inputs.schedule;
    let mut ep = Episode::default();
    let mut ops = Ops::default();

    let (mut solver, n_leaves) = timed(&mut ep.setup_s, || setup_single(inputs, rec));
    let scatter_ops = solver.mesh.scatter.len();
    let prolong_ops =
        solver.mesh.scatter.iter().filter(|op| op.kind == ScatterKind::Prolong).count();

    for _ in 0..sch.warmup_steps {
        timed(&mut ep.warmup_s, || rec.span("warmup", |_| solver.step()));
        ops.op(step_ok(inputs, &solver), "warm-up step");
    }

    let mut device = DeviceAcc::default();
    let (mut regrids_changed, mut samples) = (0u64, 0u64);
    let sim_start = solver.time;
    for i in 0..sch.timed_steps {
        let taken = solver.steps_taken as usize;
        if sch.regrid_every > 0 && taken > 0 && taken.is_multiple_of(sch.regrid_every) {
            let r = sch.regrid;
            let (before, regrids) = (solver.backend.counters(), solver.regrids);
            timed(&mut ep.loop_s, || {
                rec.span("regrid", |_| solver.regrid_on_state(r.var, r.eps, r.base, r.cap))
            });
            let rebuilt = solver.regrids > regrids;
            regrids_changed += rebuilt as u64;
            device.add(before, solver.backend.counters(), rebuilt);
            ops.op(solver.mesh.n_octants() > 0, "regrid");
        }
        let (t0, before) = (solver.time, solver.backend.counters());
        let mut step_s = 0.0;
        // The traced run replays every other step, so plain and replayed
        // step times can be compared (`obs.trace_overhead`).
        if rec.is_on() && i % 2 == 1 {
            timed(&mut step_s, || traced_step(&mut solver, rec));
        } else {
            timed(&mut step_s, || rec.span("step_plain", |_| solver.step()));
        }
        device.add(before, solver.backend.counters(), false);
        ep.loop_s += step_s;
        ep.step_times.push(step_s);
        ep.step_points.push(solver.mesh.n_points() as f64);
        ops.op(solver.time > t0 && step_ok(inputs, &solver), "step");
        if sch.extract {
            let before = solver.backend.counters();
            timed(&mut ep.loop_s, || rec.span("extract", |_| solver.extract_now()));
            device.add(before, solver.backend.counters(), false);
            let n = (solver.steps_taken - sch.warmup_steps as u64) as usize;
            let fresh = |s: Option<&WaveformSeries>| {
                s.is_some_and(|s| {
                    s.len() == n
                        && s.values.last().is_some_and(|v| v.re.is_finite() && v.im.is_finite())
                })
            };
            ops.op(
                fresh(solver.extractors[0].mode(2, 2))
                    && fresh(solver.psi4_extractors[0].mode(2, 2)),
                "one finite (2,2) and one Ψ₄ sample per step",
            );
            samples += 2;
        }
    }
    ep.sim_time = solver.time - sim_start;

    let u = solver.state();
    ep.digest = digest(&u);
    ep.wave_err = accuracy(inputs, &solver.mesh, &u, solver.time);
    if let InitData::Wave(_) = inputs.data {
        ops.gate(ep.wave_err < inputs.err_limit, "wave_err under its accuracy limit");
        ops.gate(regrids_changed >= 1, "at least one regrid changes the grid");
    }
    ops.gate(ep.wave_err.is_finite() && ep.wave_err > 0.0, "finite accuracy error");

    if rec.is_on() {
        let l = &mut ep.layers;
        let traced_steps = (sch.timed_steps / 2).max(1) as f64;
        let selfs = rec.self_ms();
        let get = |k: &str| selfs.get(k).copied().unwrap_or(0.0);
        let (step_ms, n_step) = rec.total_ms("step");
        let (plain_ms, n_plain) = rec.total_ms("step_plain");
        let backend_ms = get("o2p") + get("rhs") + get("axpy") + get("p2o");
        l.insert("octree.refine_ms", rec.total_ms("octree").0);
        l.insert("octree.leaves", n_leaves as f64);
        l.insert("mesh.build_ms", rec.total_ms("mesh").0);
        l.insert("mesh.scatter_ops", scatter_ops as f64);
        l.insert("mesh.prolong_ops", prolong_ops as f64);
        l.insert("backend.o2p_ms", get("o2p") / traced_steps);
        l.insert("backend.rhs_ms", get("rhs") / traced_steps);
        l.insert("backend.axpy_ms", get("axpy") / traced_steps);
        l.insert("backend.sync_ms", get("p2o") / traced_steps);
        l.insert("backend.o2p_bytes", 4.0 * 8.0 * solver.backend.scatter_stats().1 as f64);
        l.insert("backend.patch_buf_mb", patch_buf_mb(solver.mesh.n_octants(), 1));
        l.insert("obs.step_coverage", if step_ms > 0.0 { backend_ms / step_ms } else { 0.0 });
        if n_step > 0 && n_plain > 0 {
            let overhead = (step_ms / n_step as f64) / (plain_ms / n_plain as f64) - 1.0;
            l.insert("obs.trace_overhead", overhead);
        }
        l.insert("par.threads", solver.n_threads() as f64);
        let (regrid_ms, n_regrid) = rec.total_ms("regrid");
        l.insert("regrid.ms", regrid_ms / n_regrid.max(1) as f64);
        l.insert("regrid.count", regrids_changed as f64);
        l.insert("regrid.octants_final", solver.mesh.n_octants() as f64);
        let (extract_ms, n_extract) = rec.total_ms("extract");
        l.insert("waveform.extract_ms", extract_ms / n_extract.max(1) as f64);
        l.insert("waveform.samples", samples as f64);
        device_layers(l, &device.0, sch.timed_steps as f64);
        if let RhsKind::Generated(strategy) = inputs.config.rhs_kind {
            expr_layers(l, inputs, strategy, rec);
        }
        // Free the solver's buffers before the baseline backends allocate theirs.
        let GwSolver { mesh, backend, .. } = solver;
        drop(backend);
        par_layers(l, inputs, &mesh, &u, rec);
    }
    ep.ops = ops;
    ep
}

/// Device counters per timed step, plus the computed roofline point.
fn device_layers(l: &mut BTreeMap<&'static str, f64>, c: &CounterSnapshot, steps: f64) {
    let roofline = gw_perfmodel::Roofline::new(gw_gpu_sim::MachineSpec::a100());
    let point = roofline.point("timed loop", c, None);
    l.insert("gpu.launches", c.launches as f64 / steps);
    l.insert("gpu.flops", c.flops as f64 / steps);
    l.insert("gpu.global_bytes", c.global_bytes() as f64 / steps);
    l.insert("gpu.spill_bytes", (c.spill_load_bytes + c.spill_store_bytes) as f64 / steps);
    l.insert("gpu.h2d_bytes", c.h2d_bytes as f64 / steps);
    l.insert("gpu.d2h_bytes", c.d2h_bytes as f64 / steps);
    l.insert("gpu.ai", c.arithmetic_intensity());
    l.insert("gpu.roofline_eff", if c.flops > 0 { roofline.efficiency(&point) } else { 0.0 });
}

/// What every backend rebuild pays for the generated RHS: build the
/// expression graph, schedule it, compile the tape.
fn expr_layers(
    l: &mut BTreeMap<&'static str, f64>,
    inputs: &Inputs,
    strategy: ScheduleStrategy,
    rec: &mut Recorder,
) {
    let mut compile_s = 0.0;
    let tape = timed(&mut compile_s, || {
        rec.span("expr_compile", |_| {
            let rhs = gw_expr::bssn::build_bssn_rhs(inputs.config.params);
            let sch = gw_expr::schedule::schedule(&rhs.graph, &rhs.outputs, strategy);
            gw_expr::tape::Tape::compile(&rhs.graph, &sch, 56)
        })
    });
    l.insert("expr.compile_ms", compile_s * 1e3);
    l.insert("expr.tape_slots", tape.n_slots as f64);
}

/// One pointwise CPU RHS evaluation (o2p + kernel) on the episode's final
/// grid and state, at 1 thread (the single-threaded baseline) and at 2:
/// `par.speedup`, and the kernel's flop counts and rate at 2 threads.
fn par_layers(
    l: &mut BTreeMap<&'static str, f64>,
    inputs: &Inputs,
    mesh: &Mesh,
    u: &Field,
    rec: &mut Recorder,
) {
    let mut stage_s = [0.0; 2];
    let mut rhs_s = 0.0;
    let mut flops = (0, 0);
    for (slot, (threads, name)) in [(1, "par_1t"), (2, "par_2t")].into_iter().enumerate() {
        let params = inputs.config.params;
        let mut b = CpuBackend::with_threads(mesh, params, RhsKind::Pointwise, threads);
        b.upload_raw(u);
        rhs_s = 0.0;
        timed(&mut stage_s[slot], || {
            rec.span(name, |_| {
                b.o2p_raw(mesh, Buf::U);
                timed(&mut rhs_s, || b.rhs_raw(mesh, Buf::K));
            })
        });
        flops = b.flops;
    }
    l.insert("par.speedup", stage_s[0] / stage_s[1]);
    l.insert("bssn.deriv_gflop", 4.0 * flops.0 as f64 / 1e9);
    l.insert("bssn.a_gflop", 4.0 * flops.1 as f64 / 1e9);
    l.insert("bssn.gflops_per_s", (flops.0 + flops.1) as f64 / 1e9 / rhs_s);
}

/// The distributed workload: `Run::distributed` with overlapped halo
/// exchange and a coordinated snapshot every step under `snap_root`. It
/// has no warm-up: every `Run::execute` allocates its rank state afresh,
/// so a warm-up run would not pre-fault the timed run's pages.
pub fn run_distributed(inputs: &Inputs, rec: &mut Recorder, snap_root: &Path) -> Episode {
    let sch = inputs.schedule;
    let mut ep = Episode::default();
    let mut ops = Ops::default();
    let root = snap_root.to_str().expect("UTF-8 snapshot path").to_string();
    let _ = std::fs::remove_dir_all(&root);

    // `Run` takes the mesh by value; the gates rebuild it from the leaves.
    let (mesh, leaves) = timed(&mut ep.setup_s, || setup_distributed(inputs, rec));
    let probe = if rec.is_on() { Probe::enabled() } else { Probe::disabled() };
    let world = gw_comm::world::WorldConfig {
        overlap: true,
        overlap_threads: sch.rank_workers,
        ..Default::default()
    };
    let resilience = ResilienceConfig {
        checkpoint_dir: Some(root.clone()),
        checkpoint_every: 1,
        ..Default::default()
    };
    let r = Run::new(inputs.config)
        .mesh(mesh)
        .init(|p, out: &mut [f64]| inputs.init(p, out))
        .steps(sch.timed_steps)
        .distributed(sch.ranks)
        .world(world)
        .resilience(resilience)
        .probe(probe.clone());
    let steps = sch.timed_steps as u64;
    ep.probe_offset_us = rec.now_us();
    let out = timed(&mut ep.loop_s, || rec.span("evolve", |_| r.execute()));
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            eprintln!("nrbench: distributed run failed: {e}");
            // Every step and every snapshot of the run failed.
            ops.attempted += 2 * steps;
            ops.failed += 2 * steps;
            ep.ops = ops;
            let _ = std::fs::remove_dir_all(&root);
            return ep;
        }
    };
    let dist = out.distributed.as_ref().expect("distributed runs report an outcome");
    let state = &dist.result.state;
    let n_oct = leaves.len();
    ops.gate(dist.retries == 0 && dist.events.is_empty(), "no retries or rollbacks");
    ep.sim_time = out.time;
    ep.step_points = vec![(n_oct * POINTS_PER_SIDE.pow(3)) as f64; sch.timed_steps];
    ep.digest = digest(state);
    let post_mesh = Mesh::build(inputs.domain, &leaves);
    ep.wave_err = accuracy(inputs, &post_mesh, state, out.time);
    ops.gate(ep.wave_err.is_finite() && ep.wave_err > 0.0, "finite accuracy error");

    // Each step committed a snapshot of its state. A snapshot op: it
    // reloads through `load_distributed` with every shard CRC intact. A
    // step op: the state it holds is healthy, and after the last step it
    // equals the final state. The last reload is timed (restart latency).
    let mut load_s = 0.0;
    let mut snapshot_bytes = 0u64;
    for s in 1..=steps {
        let dir = checkpoint::snapshot_dir(&root, s);
        let load = || checkpoint::load_distributed(&dir);
        let loaded = if s == steps {
            timed(&mut load_s, || rec.span("ckpt_load", |_| load()))
        } else {
            load()
        };
        match loaded {
            Ok(cp) => {
                ops.op(cp.manifest.steps_taken == s, "snapshot reloads with its CRCs intact");
                let last_ok = s < steps || cp.state.as_slice() == state.as_slice();
                ops.op(healthy(&cp.state, n_oct) && last_ok, "distributed step");
                snapshot_bytes = dir_bytes(Path::new(&dir));
            }
            Err(e) => {
                eprintln!("nrbench: snapshot of step {s} does not reload: {e}");
                ops.op(false, "snapshot reloads with its CRCs intact");
                ops.op(false, "distributed step");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);

    if rec.is_on() {
        // The single-rank solver on the same inputs must end on the same bits.
        let same = rec.span("reference", |_| {
            let cfg = SolverConfig { threads: 2, ..inputs.config };
            let mut s = GwSolver::try_new(cfg, Mesh::build(inputs.domain, &leaves), |p, out| inputs.init(p, out))
                .expect("workload configurations are valid");
            for _ in 0..sch.timed_steps {
                s.step();
            }
            s.state().as_slice() == state.as_slice()
        });
        ops.gate(same, "distributed state matches the single-rank result");

        let steps = sch.timed_steps as f64;
        let l = &mut ep.layers;
        let (msgs, bytes) =
            dist.result.traffic.iter().fold((0u64, 0u64), |a, t| (a.0 + t.0, a.1 + t.1));
        let work = &dist.result.work;
        let mean_work = work.iter().sum::<u64>() as f64 / work.len().max(1) as f64;
        let prolong_ops =
            post_mesh.scatter.iter().filter(|op| op.kind == ScatterKind::Prolong).count();
        l.insert("octree.refine_ms", rec.total_ms("octree").0);
        l.insert("octree.leaves", n_oct as f64);
        l.insert("mesh.build_ms", rec.total_ms("mesh").0);
        l.insert("mesh.scatter_ops", post_mesh.scatter.len() as f64);
        l.insert("mesh.prolong_ops", prolong_ops as f64);
        l.insert("backend.patch_buf_mb", patch_buf_mb(n_oct, sch.ranks));
        l.insert("par.threads", sch.rank_workers as f64);
        l.insert("regrid.octants_final", n_oct as f64);
        l.insert("comm.msgs_per_step", msgs as f64 / steps);
        l.insert("comm.bytes_per_step", bytes as f64 / steps);
        l.insert("comm.retransmits", probe.counter(Counter::Retransmits) as f64);
        l.insert("comm.halo_wait_ms", probe.counter(Counter::HaloWaitUs) as f64 / 1e3 / steps);
        l.insert("multi.imbalance", work.iter().copied().max().unwrap_or(0) as f64 / mean_work);
        let ghosts: usize = (0..sch.ranks).map(|r| dist.result.plan.ghosts_of(r).len()).sum();
        l.insert("multi.ghost_octants", ghosts as f64);
        l.insert("ckpt.bytes_per_snapshot", snapshot_bytes as f64);
        l.insert("ckpt.load_ms", load_s * 1e3);
        if let Some(trace) = probe.report() {
            let span_ms = |cats: &[&str]| -> (f64, usize) {
                trace
                    .events
                    .iter()
                    .filter(|e| cats.contains(&e.cat))
                    .fold((0.0, 0), |(t, n), e| (t + e.dur_us / 1e3, n + 1))
            };
            l.insert("comm.overlap_ratio", trace.overlap_ratio());
            l.insert("multi.rank_compute_ms", span_ms(&["rhs", "halo_overlap"]).0 / steps);
            let (ckpt_ms, n_ckpt) = span_ms(&["checkpoint"]);
            l.insert("ckpt.write_ms", ckpt_ms / n_ckpt.max(1) as f64);
            ep.probe_events = trace.events;
        }
        par_layers(l, inputs, &post_mesh, state, rec);
    }
    ep.ops = ops;
    ep
}

/// Bytes of the regular files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}
