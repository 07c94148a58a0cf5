//! Distributed (multi-rank / multi-GPU) evolution, driven by
//! [`Run::distributed`](crate::run::Run::distributed).
//!
//! Octants are partitioned across ranks along the space-filling curve.
//! Each rank is a [`Backend`]: a [`RankBackend`] around a [`CpuBackend`]
//! that stores only the rank's owned octants and the ghost octants they
//! read, advanced by the same [`Rk4::step`] as a single-rank run. The rank
//! backend exchanges ghost blocks with its neighbors before every RHS
//! evaluation and before the interface sync (the `halo_exchange` of
//! Algorithm 1). Every rank runs the configured RHS through the same
//! per-octant step as the single-rank backends, so the distributed result
//! is bit-identical to the single-rank run — which the tests assert; the
//! value of this module for the paper's experiments is the *metered
//! traffic* feeding the scaling models (Figs. 17/18/20).
//!
//! With [`WorldConfig::overlap`] set, each exchange runs the
//! dependency-aware overlapped schedule instead of the blocking one:
//! sends are posted first, the rank's *interior* octants (those whose
//! gather stencil reads only owned blocks) are evaluated on a worker
//! pool while the ghosts are in flight, and the *boundary* octants
//! finish after the receives complete. The classification is static per
//! partition, every output slot keeps exactly one writer, and reductions
//! stay fixed-order, so the overlapped result is bit-identical to the
//! blocking one (see DESIGN.md §11 and §21).

use crate::backend::{Backend, Buf, CpuBackend, OctantRhs};
use crate::checkpoint::{self, CheckpointError, DistManifest, ShardHeader};
use crate::rk4::Rk4;
use crate::solver::SolverConfig;
use gw_comm::world::WorldConfig;
use gw_comm::{CommError, CrcBuf, GhostPlan, GhostSchedule, RankCtx, World};
use gw_expr::symbols::NUM_VARS;
use gw_mesh::{Field, Mesh};
use gw_obs::{Counter, Phase, Probe};
use gw_octree::partition::{partition_uniform, PartitionMap};
use gw_stencil::patch::BLOCK_VOLUME;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Result of a distributed run.
#[derive(Debug)]
pub struct DistributedResult {
    pub state: Field,
    /// The simulated time of `state`.
    pub time: f64,
    /// Per-rank (messages, bytes) sent.
    pub traffic: Vec<(u64, u64)>,
    /// Per-rank owned-octant × step work counts.
    pub work: Vec<u64>,
    /// The ghost plan used (for the scaling models).
    pub plan: GhostPlan,
}

/// All cross-octant data dependencies of one RHS + sync step.
pub fn dependencies(mesh: &Mesh) -> Vec<(u32, u32)> {
    let mut deps: Vec<(u32, u32)> = mesh.scatter.iter().map(|op| (op.src, op.dst)).collect();
    deps.extend(mesh.syncs.iter().map(|c| (c.src_oct, c.dst_oct)));
    deps.sort_unstable();
    deps.dedup();
    deps
}

/// Message tag for RK stage `stage` (0..=3) or the interface sync
/// (`STAGE_SYNC`) of global step `step`. Qualifying tags with the stage
/// *and* step keeps a retransmitted straggler from one stage from ever
/// matching the next stage's receive, on both the blocking and the
/// overlapped path, and stays well below the collective tag space
/// (`1 << 63`).
fn stage_tag(step: usize, stage: u64) -> u64 {
    debug_assert!(stage <= STAGE_SYNC);
    ((step as u64) << 3) | stage
}

/// The post-update interface-sync exchange slot of [`stage_tag`].
const STAGE_SYNC: u64 = 4;

/// The message carrying the blocks of the listed storage slots (all 24
/// vars of each octant, in that order), serialized straight from
/// `field`'s blocks and checksummed block by block while each is in
/// cache.
fn ghost_payload(field: &Field, list: &[u32]) -> CrcBuf {
    let mut buf = CrcBuf::with_capacity(list.len() * NUM_VARS * BLOCK_VOLUME * 8);
    for &oct in list {
        for v in 0..NUM_VARS {
            buf.put_f64s(field.block(v, oct as usize));
        }
    }
    buf
}

/// Receive the ghost blocks posted by [`RankBackend::post`] from each rank
/// `q`, in rank order, decoding them straight into the storage slots
/// `recvs[q]` of `field`. Each payload is checked before any of its
/// blocks is decoded: a dropped, truncated, or corrupted message surfaces
/// as a [`CommError`] — the field is never updated from a bad payload.
fn finish_exchange(
    ctx: &RankCtx<'_>,
    recvs: &[Vec<u32>],
    field: &mut Field,
    tag: u64,
) -> Result<(), CommError> {
    let r = ctx.rank();
    for (q, list) in recvs.iter().enumerate().filter(|(_, list)| !list.is_empty()) {
        let payload = ctx.irecv(q, tag).wait_delivered()?;
        if payload.words() != list.len() * NUM_VARS * BLOCK_VOLUME {
            return Err(CommError::Truncated {
                src: q,
                dst: r,
                tag,
                declared: list.len() * NUM_VARS * BLOCK_VOLUME * 8,
                got: payload.words() * 8,
            });
        }
        let mut off = 0;
        for &slot in list {
            for v in 0..NUM_VARS {
                payload.decode_into(off, field.block_mut(v, slot as usize));
                off += BLOCK_VOLUME;
            }
        }
    }
    Ok(())
}

/// Static dependency classification of one rank's owned octants, built
/// once per partition. Both schedules run from it; only the overlapped
/// one computes between posting and completing an exchange.
struct OwnedSplit {
    /// Owned octants whose gather stencil reads only owned blocks —
    /// safe to evaluate while ghosts are still in flight.
    interior: Vec<usize>,
    /// Owned octants with at least one ghost gather source — must wait
    /// for the exchange to complete.
    boundary: Vec<usize>,
    /// Indices into `mesh.syncs` (owned dst) whose source is owned —
    /// applicable before ghost arrival. Empty when the owned sync set
    /// chains or duplicates destinations (then order matters and
    /// everything stays in `syncs_ghost`, in original order).
    syncs_local: Vec<usize>,
    /// Indices into `mesh.syncs` (owned dst) applied after the
    /// exchange completes, in original `mesh.syncs` order.
    syncs_ghost: Vec<usize>,
}

fn classify_owned(mesh: &Mesh, owned: &Range<usize>) -> OwnedSplit {
    let is_owned = |o: u32| owned.contains(&(o as usize));
    let mut interior = Vec::new();
    let mut boundary = Vec::new();
    for e in owned.clone() {
        if mesh.gather_of(e).iter().all(|op| is_owned(op.src)) {
            interior.push(e);
        } else {
            boundary.push(e);
        }
    }
    // Interface syncs may chain (a sync destination read as a later
    // sync's source — possible at ≥ 3 refinement levels) or duplicate a
    // destination; either makes application order observable, so the
    // split is only taken when the owned sync set is provably
    // order-free. Otherwise all owned syncs run post-arrival in the
    // blocking path's original order — bit-identical by construction.
    let owned_syncs: Vec<usize> = (0..mesh.syncs.len())
        .filter(|&i| owned.contains(&(mesh.syncs[i].dst_oct as usize)))
        .collect();
    let mut written = std::collections::HashSet::new();
    let mut order_sensitive = false;
    for &i in &owned_syncs {
        let c = &mesh.syncs[i];
        if !written.insert((c.dst_oct, c.dst_idx)) {
            order_sensitive = true;
            break;
        }
    }
    if !order_sensitive {
        order_sensitive = owned_syncs
            .iter()
            .any(|&i| written.contains(&(mesh.syncs[i].src_oct, mesh.syncs[i].src_idx)));
    }
    let (syncs_local, syncs_ghost) = if order_sensitive {
        (Vec::new(), owned_syncs)
    } else {
        owned_syncs.into_iter().partition(|&i| is_owned(mesh.syncs[i].src_oct))
    };
    OwnedSplit { interior, boundary, syncs_local, syncs_ghost }
}

/// Apply the listed `mesh.syncs` entries (sync-outer, variable-inner) to
/// a field whose storage slot of octant `e` is `slot_of[e]`.
fn apply_syncs(mesh: &Mesh, indices: &[usize], slot_of: &[u32], u: &mut Field) {
    for &i in indices {
        let c = &mesh.syncs[i];
        let (src, dst) =
            (slot_of[c.src_oct as usize] as usize, slot_of[c.dst_oct as usize] as usize);
        for v in 0..NUM_VARS {
            let sv = u.block(v, src)[c.src_idx as usize];
            u.block_mut(v, dst)[c.dst_idx as usize] = sv;
        }
    }
}

/// One rank as a [`Backend`]: a [`CpuBackend`] over the rank's storage
/// (owned octant `e` in slot `e − owned.start`, then `plan.ghosts_of(r)`
/// ascending) plus the halo exchange. `o2p_raw` posts the exchange of its
/// input; `rhs_raw` completes it around the owned halo sources and the
/// interior octants, then prolongs the ghost sources and evaluates the
/// boundary octants; `sync_interfaces_raw` exchanges the solution and
/// applies the owned interface syncs. Every other primitive is the
/// [`CpuBackend`]'s. A comm error latches: the step's later exchanges
/// and evaluations are skipped, and the driver returns it after the step.
pub(crate) struct RankBackend<'w> {
    cpu: CpuBackend,
    ctx: RankCtx<'w>,
    /// Storage slot of each global octant (`u32::MAX` when not stored).
    slot_of: Vec<u32>,
    /// The rank's row of the [`GhostPlan`], in storage slots.
    sends: Vec<Vec<u32>>,
    recvs: Vec<Vec<u32>>,
    split: OwnedSplit,
    /// Halo sources the rank owns / receives as ghosts.
    owned_sources: Vec<u32>,
    ghost_sources: Vec<u32>,
    overlap: bool,
    /// The global step being taken and its next RK stage, which tag the
    /// exchanges, and the input and tag of the posted RHS exchange.
    step: usize,
    stage: u64,
    posted: Option<(Buf, u64)>,
    error: Option<CommError>,
}

impl<'w> RankBackend<'w> {
    /// Rank `ctx.rank()`'s backend on partition `part`, holding `u0`'s
    /// blocks of its octants, with `world`'s pool size and probe.
    fn new(
        ctx: RankCtx<'w>,
        mesh: &Mesh,
        rhs: Arc<OctantRhs>,
        plan: &GhostPlan,
        part: &PartitionMap,
        world: &WorldConfig,
        u0: &Field,
    ) -> Self {
        let r = ctx.rank();
        let owned = part.range(r);
        let ghosts = plan.ghosts_of(r);
        let threads = if world.overlap { world.overlap_threads } else { 1 };
        let mut cpu = CpuBackend::local(mesh, rhs, threads, owned.clone(), &ghosts);
        cpu.set_probe(world.probe.clone());
        world.probe.add(Counter::WorkspaceAllocs, 1); // the halo
        let mut slot_of = vec![u32::MAX; mesh.n_octants()];
        for (slot, e) in owned.clone().chain(ghosts.iter().map(|&g| g as usize)).enumerate() {
            slot_of[e] = slot as u32;
        }
        let u = cpu.buf_mut(Buf::U);
        for (e, &slot) in slot_of.iter().enumerate().filter(|&(_, &slot)| slot != u32::MAX) {
            for v in 0..NUM_VARS {
                u.block_mut(v, slot as usize).copy_from_slice(u0.block(v, e));
            }
        }
        let slots = |lists: &[Vec<u32>]| -> Vec<Vec<u32>> {
            lists.iter().map(|l| l.iter().map(|&e| slot_of[e as usize]).collect()).collect()
        };
        let (owned_sources, ghost_sources) =
            cpu.sources().iter().partition(|&&s| owned.contains(&(s as usize)));
        Self {
            cpu,
            ctx,
            sends: slots(&plan.sends[r]),
            recvs: slots(&plan.recvs[r]),
            slot_of,
            split: classify_owned(mesh, &owned),
            owned_sources,
            ghost_sources,
            overlap: world.overlap,
            step: 0,
            stage: 0,
            posted: None,
            error: None,
        }
    }

    /// Start global step `step`: its exchanges carry its tags.
    fn begin_step(&mut self, step: usize) {
        (self.step, self.stage) = (step, 0);
    }

    /// Post the sends of the exchange of `buf` under `tag`: to each rank
    /// `q`, the blocks of the slots `sends[q]` lists. Nothing once an
    /// error latched.
    fn post(&self, buf: Buf, tag: u64) {
        if self.error.is_some() {
            return;
        }
        for (q, list) in self.sends.iter().enumerate().filter(|(_, list)| !list.is_empty()) {
            self.ctx.send_buf(q, tag, ghost_payload(self.cpu.buf(buf), list));
        }
    }

    /// Complete the exchange of `buf`'s ghosts posted under `tag` around
    /// two pieces of work: `local` reads owned blocks only, `remote` the
    /// ghosts too. Overlapped, `local` runs while the ghosts travel;
    /// blocking, after they arrive. Does nothing once an error latched.
    fn complete_exchange(
        &mut self,
        buf: Buf,
        tag: u64,
        local: impl FnOnce(&mut Self),
        remote: impl FnOnce(&mut Self),
    ) {
        if self.error.is_some() {
            return;
        }
        let probe = self.cpu.probe().clone();
        if self.overlap {
            let t0 = Instant::now();
            {
                let _s = probe.start(Phase::HaloOverlap);
                local(self);
            }
            probe.add(Counter::HaloOverlapUs, t0.elapsed().as_micros() as u64);
            let t1 = Instant::now();
            let arrived = self.receive(buf, tag, &probe);
            probe.add(Counter::HaloWaitUs, t1.elapsed().as_micros() as u64);
            if !arrived {
                return;
            }
        } else {
            if !self.receive(buf, tag, &probe) {
                return;
            }
            local(self);
        }
        remote(self);
    }

    /// The ghost receives of `tag` into `buf`, under the `halo` phase.
    /// False, with the error latched, when one fails.
    fn receive(&mut self, buf: Buf, tag: u64, probe: &Probe) -> bool {
        let _s = probe.start(Phase::Halo);
        self.error = finish_exchange(&self.ctx, &self.recvs, self.cpu.buf_mut(buf), tag).err();
        self.error.is_none()
    }
}

impl Backend for RankBackend<'_> {
    fn name(&self) -> &'static str {
        self.cpu.name()
    }

    fn probe(&self) -> &Probe {
        self.cpu.probe()
    }

    fn set_probe(&mut self, probe: Probe) {
        self.cpu.set_probe(probe);
    }

    fn n_threads(&self) -> usize {
        self.cpu.n_threads()
    }

    fn scatter_stats(&self) -> (u64, u64) {
        self.cpu.scatter_stats()
    }

    fn upload_raw(&mut self, u: &Field) {
        self.cpu.upload_raw(u);
    }

    fn download_raw(&self) -> Field {
        self.cpu.download_raw()
    }

    fn o2p_raw(&mut self, _mesh: &Mesh, input: Buf) {
        let tag = stage_tag(self.step, self.stage);
        self.stage += 1;
        self.post(input, tag);
        self.posted = Some((input, tag));
    }

    fn rhs_raw(&mut self, mesh: &Mesh, output: Buf) {
        let (input, tag) = self.posted.take().expect("rhs_raw completes a preceding o2p_raw");
        self.complete_exchange(
            input,
            tag,
            |rb| {
                rb.cpu.prolong(input, &rb.owned_sources);
                rb.cpu.evaluate(mesh, input, output, &rb.split.interior);
            },
            |rb| {
                rb.cpu.prolong(input, &rb.ghost_sources);
                rb.cpu.evaluate(mesh, input, output, &rb.split.boundary);
            },
        );
    }

    fn axpy_raw(&mut self, y: Buf, a: f64, x: Buf) {
        self.cpu.axpy_raw(y, a, x);
    }

    fn assign_axpy_raw(&mut self, y: Buf, base: Buf, a: f64, x: Buf) {
        self.cpu.assign_axpy_raw(y, base, a, x);
    }

    fn copy_raw(&mut self, dst: Buf, src: Buf) {
        self.cpu.copy_raw(dst, src);
    }

    /// The post-update ghost refresh and the owned interface syncs: the
    /// result of the owned syncs in `mesh.syncs` order, since the
    /// owned-source syncs run ahead only when the set is order-free (see
    /// [`classify_owned`]).
    fn sync_interfaces_raw(&mut self, mesh: &Mesh) {
        let tag = stage_tag(self.step, STAGE_SYNC);
        self.post(Buf::U, tag);
        self.complete_exchange(
            Buf::U,
            tag,
            |rb| apply_syncs(mesh, &rb.split.syncs_local, &rb.slot_of, rb.cpu.buf_mut(Buf::U)),
            |rb| apply_syncs(mesh, &rb.split.syncs_ghost, &rb.slot_of, rb.cpu.buf_mut(Buf::U)),
        );
    }
}

/// Why one span of distributed evolution stopped.
#[derive(Clone, Debug)]
enum SpanFailure {
    Comm(CommError),
    Ckpt(CheckpointError),
}

impl From<CommError> for SpanFailure {
    fn from(e: CommError) -> Self {
        SpanFailure::Comm(e)
    }
}

impl From<CheckpointError> for SpanFailure {
    fn from(e: CheckpointError) -> Self {
        SpanFailure::Ckpt(e)
    }
}

/// One contiguous stretch of distributed evolution: global steps
/// `start_step..steps` from the state `u0`, authoritative at
/// `start_step` and time `start_time`, with `rk`'s timestep, optionally
/// taking coordinated snapshots and optionally fail-stopping one rank
/// (fault injection).
struct SpanOpts {
    start_step: usize,
    start_time: f64,
    steps: usize,
    rk: Rk4,
    /// `(snapshot root, cadence in steps)`.
    snapshot: Option<(String, u64)>,
    kill: Option<KillSpec>,
}

fn evolve_span(
    mesh: &Mesh,
    u0: &Field,
    ranks: usize,
    rhs: &Arc<OctantRhs>,
    world_cfg: WorldConfig,
    opts: SpanOpts,
) -> Result<DistributedResult, SpanFailure> {
    let n = mesh.n_octants();
    let part = partition_uniform(n, ranks);
    let plan = GhostSchedule::build(&part, dependencies(mesh).into_iter());
    let SpanOpts { start_step, start_time, steps, rk, snapshot, kill } = opts;
    let dt = rk.timestep(mesh);
    // The time after global step `s`, counted from the span's start so a
    // replay at a degraded dt continues from the time it rolled back to.
    let time_after = |s: usize| start_time + (s - start_step) as f64 * dt;
    let (part_ref, plan_ref, snapshot_ref, world_ref) = (&part, &plan, &snapshot, &world_cfg);
    let (mut results, traffic) = World::run(ranks, world_cfg.clone(), move |ctx| {
        let r = ctx.rank();
        let owned = part_ref.range(r);
        let probe = &world_ref.probe;
        let mut rank =
            RankBackend::new(ctx, mesh, Arc::clone(rhs), plan_ref, part_ref, world_ref, u0);
        let mut work = 0u64;
        for s in start_step..steps {
            // Injected fail-stop: the rank dies here, visibly to the
            // liveness view, exactly as if its process were killed.
            if let Some(k) = kill {
                if r == k.rank && s == k.at_step {
                    rank.ctx.declare_dead();
                    return Err(SpanFailure::Comm(CommError::RankDead { rank: r, dst: r }));
                }
            }
            rank.begin_step(s);
            rk.step(&mut rank, mesh, dt);
            if let Some(e) = rank.error.take() {
                return Err(SpanFailure::Comm(e));
            }
            work += owned.len() as u64;
            // Coordinated snapshot: two-phase commit. Every rank writes
            // its shard atomically, the allgather proves all shards are
            // durable, then rank 0 renames the manifest into place (the
            // commit point) and the barrier keeps every rank behind it.
            if let Some((root, every)) = snapshot_ref {
                let s1 = (s + 1) as u64;
                if s1.is_multiple_of(*every) {
                    let _s = probe.start(Phase::Checkpoint);
                    probe.add(Counter::Checkpoints, 1);
                    let sub = checkpoint::snapshot_dir(root, s1);
                    let shard = ShardHeader {
                        rank: r,
                        start_octant: owned.start,
                        n_octants: owned.len(),
                        time: time_after(s + 1),
                        steps_taken: s1,
                    };
                    let (crc, len) = checkpoint::write_shard(&sub, &shard, rank.cpu.buf(Buf::U))?;
                    let metas = rank.ctx.try_allgatherv(&[crc as f64, len as f64])?;
                    if r == 0 {
                        let manifest = DistManifest {
                            domain: mesh.domain,
                            leaves: mesh.octants.iter().map(|o| o.key).collect(),
                            offsets: (0..=ranks)
                                .map(|q| if q == ranks { n } else { part_ref.range(q).start })
                                .collect(),
                            time: time_after(s + 1),
                            steps_taken: s1,
                            shard_crcs: metas.iter().map(|m| m[0] as u32).collect(),
                            shard_lens: metas.iter().map(|m| m[1] as u64).collect(),
                        };
                        checkpoint::commit_manifest(&sub, &manifest)?;
                    }
                    rank.ctx.try_barrier()?;
                }
            }
        }
        Ok((rank.cpu.into_solution(), work))
    });

    // If any rank failed, surface the most telling error instead of a
    // state missing that rank's contribution: a checkpoint-commit
    // failure beats a dead rank beats the secondary timeouts a death
    // cascades into on its peers.
    let severity = |f: &SpanFailure| match f {
        SpanFailure::Ckpt(_) => 0u8,
        SpanFailure::Comm(CommError::RankDead { .. }) => 1,
        SpanFailure::Comm(_) => 2,
    };
    if let Some(err) = results.iter().filter_map(|r| r.as_ref().err()).min_by_key(|f| severity(f)) {
        return Err(err.clone());
    }
    // Reassemble the global state from each rank's owned blocks, which
    // its storage holds first.
    let mut state = Field::zeros(NUM_VARS, n);
    let mut work = Vec::with_capacity(ranks);
    for (r, res) in results.drain(..).enumerate() {
        let (local, w) = res.expect("error case handled above");
        work.push(w);
        for (slot, e) in part.range(r).enumerate() {
            for v in 0..NUM_VARS {
                state.block_mut(v, e).copy_from_slice(local.block(v, slot));
            }
        }
    }
    let traffic = traffic.iter().map(|t| (t.messages, t.bytes)).collect();
    Ok(DistributedResult { state, time: time_after(steps), traffic, work, plan })
}

/// Fail-stop fault injection: `rank` dies at the top of global step
/// `at_step` on the first attempt of a resilient run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillSpec {
    pub rank: usize,
    pub at_step: usize,
}

/// How a resilient distributed run checkpoints and recovers.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Snapshot root directory; `None` disables coordinated
    /// checkpointing (a failure then rolls back to the initial state).
    pub checkpoint_dir: Option<String>,
    /// Steps between coordinated snapshots (≥ 1).
    pub checkpoint_every: u64,
    /// Degradation applied on each rollback + replay, and the retry
    /// budget (`max_retries`). `courant_factor: 1.0, ko_boost: 0.0`
    /// replays bit-identically.
    pub degradation: crate::supervisor::DegradationPolicy,
    /// Injected fail-stop for chaos tests (first attempt only).
    pub kill_once: Option<KillSpec>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            checkpoint_dir: None,
            checkpoint_every: 1,
            degradation: crate::supervisor::DegradationPolicy::default(),
            kill_once: None,
        }
    }
}

/// One entry of the resilient driver's decision log.
#[derive(Clone, Debug)]
pub enum RecoveryEvent {
    /// All survivors were rolled back to the last committed manifest
    /// (`to_step` 0 = initial state) after `cause`.
    RolledBack { to_step: u64, cause: CommError },
}

/// A completed resilient run: the result plus how it got there.
#[derive(Debug)]
pub struct ResilientOutcome {
    pub result: DistributedResult,
    /// World restarts performed (0 = clean first attempt).
    pub retries: u32,
    pub events: Vec<RecoveryEvent>,
}

/// Terminal failure of a resilient distributed run.
#[derive(Clone, Debug)]
pub enum DistributedError {
    /// Every allowed rollback + replay also failed; `last` is the final
    /// communication error (it names the dead rank if one died).
    RetriesExhausted { attempts: u32, last: CommError },
    /// The coordinated snapshot layer itself failed (cannot commit or
    /// cannot reload) — retrying would lose data, so this is immediate.
    Checkpoint(CheckpointError),
}

impl DistributedError {
    /// The dead rank this failure names, if one died.
    pub fn dead_rank(&self) -> Option<usize> {
        match self {
            DistributedError::RetriesExhausted { last, .. } => last.dead_rank(),
            DistributedError::Checkpoint(_) => None,
        }
    }
}

impl std::fmt::Display for DistributedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistributedError::RetriesExhausted { attempts, last } => {
                write!(f, "distributed run failed after {attempts} rollbacks: {last}")
            }
            DistributedError::Checkpoint(e) => write!(f, "distributed checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for DistributedError {}

/// Distributed evolution of `u0` over `steps` RK4 steps on `ranks`
/// simulated ranks, running `config`'s RHS with coordinated snapshots.
/// Bounded message faults are recovered transparently by the reliable
/// delivery layer. On an unrecoverable exchange or a dead peer, every
/// survivor rolls back to the last committed manifest and replays under
/// the [`crate::supervisor::DegradationPolicy`]; once `max_retries`
/// world restarts are spent the run aborts with the most telling error
/// (a dead rank is named in preference to the secondary timeouts it
/// causes) — a faulted exchange never silently yields a wrong state.
/// The returned traffic/work meters describe the final (successful)
/// attempt.
pub(crate) fn evolve(
    mesh: &Mesh,
    u0: &Field,
    ranks: usize,
    steps: usize,
    config: &SolverConfig,
    world_cfg: WorldConfig,
    resilience: &ResilienceConfig,
) -> Result<ResilientOutcome, DistributedError> {
    let mut rk = Rk4 { courant: config.courant };
    let mut params = config.params;
    // The tape bakes in `params`, so it is rebuilt only when a degraded
    // retry changes them.
    let mut rhs = Arc::new(OctantRhs::new(mesh, params, config.rhs_kind));
    let mut retries = 0u32;
    let mut kill = resilience.kill_once;
    let (mut start_step, mut start_time) = (0usize, 0.0);
    let mut state = u0.clone();
    let mut events = Vec::new();
    loop {
        let opts = SpanOpts {
            start_step,
            start_time,
            steps,
            rk,
            snapshot: resilience
                .checkpoint_dir
                .clone()
                .map(|d| (d, resilience.checkpoint_every.max(1))),
            kill,
        };
        let failure = match evolve_span(mesh, &state, ranks, &rhs, world_cfg.clone(), opts) {
            Ok(result) => return Ok(ResilientOutcome { result, retries, events }),
            Err(f) => f,
        };
        let cause = match failure {
            SpanFailure::Comm(e) => e,
            SpanFailure::Ckpt(e) => return Err(DistributedError::Checkpoint(e)),
        };
        kill = None; // an injected fail-stop fires once
        retries += 1;
        if retries > resilience.degradation.max_retries {
            return Err(DistributedError::RetriesExhausted { attempts: retries - 1, last: cause });
        }
        // Roll back: reload the last committed manifest (or the initial
        // state when nothing was committed) and replay from there.
        let committed = match &resilience.checkpoint_dir {
            Some(root) => {
                checkpoint::latest_snapshot(root).map_err(DistributedError::Checkpoint)?
            }
            None => None,
        };
        match committed {
            Some(dir) => {
                let cp =
                    checkpoint::load_distributed(&dir).map_err(DistributedError::Checkpoint)?;
                (start_step, start_time) = (cp.manifest.steps_taken as usize, cp.manifest.time);
                state = cp.state;
            }
            None => {
                (start_step, start_time) = (0, 0.0);
                state = u0.clone();
            }
        }
        events.push(RecoveryEvent::RolledBack { to_step: start_step as u64, cause });
        rk.courant *= resilience.degradation.courant_factor;
        if resilience.degradation.ko_boost != 0.0 {
            params.ko_sigma += resilience.degradation.ko_boost;
            rhs = Arc::new(OctantRhs::new(mesh, params, config.rhs_kind));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, CpuBackend, RhsKind};
    use crate::rk4::Rk4;
    use crate::run::Run;
    use crate::solver::fill_field;
    use gw_bssn::init::LinearWaveData;
    use gw_bssn::BssnParams;
    use gw_octree::{balance_octree, complete_octree, BalanceMode, Domain, MortonKey};

    fn adaptive_mesh() -> Mesh {
        let c0 = MortonKey::root().children()[0];
        let fine: Vec<MortonKey> = c0.children()[7].children().to_vec();
        let t = complete_octree(fine);
        let t = balance_octree(&t, BalanceMode::Full);
        Mesh::build(Domain::centered_cube(8.0), &t)
    }

    fn wave() -> impl Fn([f64; 3], &mut [f64]) {
        let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
        move |p, out: &mut [f64]| wave.evaluate(p, out)
    }

    /// The linear wave on the adaptive mesh, `steps` steps on `ranks`.
    fn dist(ranks: usize, steps: usize) -> Run<'static> {
        Run::new(SolverConfig::default())
            .mesh(adaptive_mesh())
            .init(wave())
            .steps(steps)
            .distributed(ranks)
    }

    fn outcome(run: Run<'_>) -> ResilientOutcome {
        run.execute()
            .unwrap_or_else(|e| panic!("distributed run failed: {e}"))
            .distributed
            .expect("distributed runs report an outcome")
    }

    #[test]
    fn distributed_matches_single_rank_bitwise() {
        let mesh = adaptive_mesh();
        let u0 = fill_field(&mesh, &wave());
        // Reference: single-rank backend.
        let mut backend = CpuBackend::new(&mesh, BssnParams::default(), RhsKind::Pointwise);
        backend.upload(&u0);
        let rk = Rk4::default();
        let dt = rk.timestep(&mesh);
        let steps = 2;
        for _ in 0..steps {
            rk.step(&mut backend, &mesh, dt);
        }
        let reference = backend.download();
        for ranks in [1usize, 2, 3] {
            let result = outcome(dist(ranks, steps)).result;
            for (a, b) in reference.as_slice().iter().zip(result.state.as_slice().iter()) {
                assert_eq!(a, b, "rank count {ranks} must not change results");
            }
            if ranks > 1 {
                let total_msgs: u64 = result.traffic.iter().map(|t| t.0).sum();
                assert!(total_msgs > 0, "multi-rank must exchange ghosts");
            }
        }
    }

    #[test]
    fn overlapped_exchange_is_bit_identical_and_counts_messages_identically() {
        // Rank 0 reads coarse ghost sources, so the runs below cover the
        // halo fill after the ghosts arrive.
        let mesh = adaptive_mesh();
        assert_eq!(mesh.n_octants(), 71);
        let identity: Vec<u32> = (0..mesh.n_octants() as u32).collect();
        for (ranks, expected) in [(2, 9), (3, 14)] {
            let owned = partition_uniform(mesh.n_octants(), ranks).range(0);
            let halo = gw_mesh::ProlongedHalo::new(&mesh, 1, owned.clone(), &identity);
            let ghost = halo.sources().iter().filter(|&&s| !owned.contains(&(s as usize))).count();
            assert_eq!(ghost, expected, "rank 0's ghost Prolong sources at {ranks} ranks");
        }
        let steps = 2;
        for ranks in [1usize, 2, 3] {
            let blocking = outcome(dist(ranks, steps)).result;
            for threads in [1usize, 4] {
                let cfg = WorldConfig {
                    overlap: true,
                    overlap_threads: threads,
                    ..WorldConfig::default()
                };
                let overlapped = outcome(dist(ranks, steps).world(cfg)).result;
                assert_eq!(
                    blocking.state.as_slice(),
                    overlapped.state.as_slice(),
                    "overlap must not change results (ranks {ranks}, threads {threads})"
                );
                assert_eq!(
                    blocking.traffic, overlapped.traffic,
                    "overlap must not change the message schedule"
                );
            }
        }
    }

    #[test]
    fn overlapped_run_builds_halo_and_staging_once_per_span_and_thread() {
        // Each rank builds its halo once per span, and each evaluating
        // thread its staging once: a longer run builds no more. The
        // first run warms the shared pool's workers, whose caches
        // outlive a run (rank threads do not).
        let cfg = WorldConfig { overlap: true, overlap_threads: 2, ..WorldConfig::default() };
        let allocs = |steps| {
            let probe = Probe::enabled();
            outcome(dist(2, steps).world(cfg.clone()).probe(probe.clone()));
            probe.counter(Counter::WorkspaceAllocs)
        };
        allocs(2);
        let (two, four) = (allocs(2), allocs(4));
        if !Probe::enabled().is_enabled() {
            return; // obs compiled out: the counter is a no-op
        }
        // Two halos, plus at most one staging per rank thread.
        assert!((2..=4).contains(&two), "{two} allocs for 2 steps");
        assert_eq!(two, four, "allocs for 2 steps vs 4");
    }

    #[test]
    fn interior_boundary_classification_covers_owned_range() {
        let mesh = adaptive_mesh();
        let part = partition_uniform(mesh.n_octants(), 3);
        for r in 0..3 {
            let owned = part.range(r);
            let split = classify_owned(&mesh, &owned);
            let mut all: Vec<usize> =
                split.interior.iter().chain(split.boundary.iter()).copied().collect();
            all.sort_unstable();
            assert_eq!(all, owned.clone().collect::<Vec<_>>(), "rank {r} split is a partition");
            for &e in &split.interior {
                assert!(
                    mesh.gather_of(e).iter().all(|op| owned.contains(&(op.src as usize))),
                    "interior octant {e} must not read ghosts"
                );
            }
            let mut syncs: Vec<usize> =
                split.syncs_local.iter().chain(split.syncs_ghost.iter()).copied().collect();
            syncs.sort_unstable();
            let expected: Vec<usize> = (0..mesh.syncs.len())
                .filter(|&i| owned.contains(&(mesh.syncs[i].dst_oct as usize)))
                .collect();
            assert_eq!(syncs, expected, "rank {r} sync split covers exactly the owned-dst syncs");
        }
    }

    #[test]
    fn traffic_scales_with_cut_surface() {
        let t2 = outcome(dist(2, 1)).result;
        let t4 = outcome(dist(4, 1)).result;
        let bytes2: u64 = t2.traffic.iter().map(|t| t.1).sum();
        let bytes4: u64 = t4.traffic.iter().map(|t| t.1).sum();
        assert!(bytes4 > bytes2, "more ranks ⇒ more cut surface ({bytes2} vs {bytes4})");
    }

    #[test]
    fn killed_rank_rolls_back_to_manifest_and_replays_bit_exact() {
        let reference = outcome(dist(3, 3)).result;
        let dir = std::env::temp_dir().join("gw_amr_multi_resilient_test");
        let dir = dir.to_str().unwrap().to_string();
        let _ = std::fs::remove_dir_all(&dir);
        let resilience = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            // Identity degradation: the replay is bit-reproducible.
            degradation: crate::supervisor::DegradationPolicy {
                courant_factor: 1.0,
                ko_boost: 0.0,
                max_retries: 2,
            },
            kill_once: Some(KillSpec { rank: 1, at_step: 2 }),
        };
        let cfg = WorldConfig {
            heartbeat_interval: std::time::Duration::from_millis(5),
            ..WorldConfig::default()
        };
        let out = outcome(dist(3, 3).world(cfg).resilience(resilience));
        assert_eq!(out.retries, 1, "one rollback must suffice");
        match &out.events[..] {
            [RecoveryEvent::RolledBack { to_step: 2, cause }] => {
                assert_eq!(cause.dead_rank(), Some(1), "the dead rank is named");
            }
            other => panic!("expected one rollback to step 2, got {other:?}"),
        }
        for (a, b) in reference.state.as_slice().iter().zip(out.result.state.as_slice().iter()) {
            assert_eq!(a, b, "resume from the manifest must be bit-exact");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rank_backends_store_owned_and_ghost_octants_only() {
        // Each rank's four buffers hold its owned octants, then its ghosts:
        // no full-mesh field. The solution starts as the initial state's
        // blocks of exactly those octants, in that order.
        let mesh = adaptive_mesh();
        let n = mesh.n_octants();
        let u0 = fill_field(&mesh, &wave());
        let rhs = Arc::new(OctantRhs::new(&mesh, BssnParams::default(), RhsKind::Pointwise));
        for ranks in [2usize, 3] {
            let part = partition_uniform(n, ranks);
            let plan = GhostSchedule::build(&part, dependencies(&mesh).into_iter());
            let world = WorldConfig::default();
            let (stored, _) = World::run(ranks, world.clone(), |ctx| {
                let rank = RankBackend::new(ctx, &mesh, rhs.clone(), &plan, &part, &world, &u0);
                let u = rank.cpu.buf(Buf::U);
                let loaded =
                    rank.slot_of.iter().enumerate().filter(|&(_, &s)| s != u32::MAX).all(
                        |(e, &s)| (0..NUM_VARS).all(|v| u.block(v, s as usize) == u0.block(v, e)),
                    );
                let sizes = [Buf::U, Buf::Stage, Buf::K, Buf::Acc].map(|b| rank.cpu.buf(b).n_oct);
                (sizes, loaded)
            });
            for (r, (sizes, loaded)) in stored.into_iter().enumerate() {
                let (owned, ghosts) = (part.range(r), plan.ghosts_of(r));
                assert!(
                    !ghosts.is_empty() && ghosts.iter().all(|&g| !owned.contains(&(g as usize)))
                );
                let expected = owned.len() + ghosts.len();
                assert!(expected < n, "rank {r} of {ranks} stores {expected} of {n} octants");
                assert_eq!(sizes, [expected; 4], "rank {r} of {ranks}: owned + ghost octants");
                assert!(loaded, "rank {r} of {ranks} holds the initial state's blocks");
            }
        }
    }

    #[test]
    fn degraded_replay_records_the_time_it_simulated() {
        // The default policy halves the Courant factor on a rollback, so
        // a rank killed at step 2 of 3 replays the last step at dt₀/2:
        // the run ends at 2.5·dt₀, in its last manifest and its outcome.
        let dir = std::env::temp_dir().join("gw_amr_multi_degraded_time_test");
        let dir = dir.to_str().unwrap().to_string();
        let _ = std::fs::remove_dir_all(&dir);
        let degradation = crate::supervisor::DegradationPolicy::default();
        assert_eq!(degradation.courant_factor, 0.5);
        let resilience = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            degradation,
            kill_once: Some(KillSpec { rank: 1, at_step: 2 }),
        };
        let cfg = WorldConfig {
            heartbeat_interval: std::time::Duration::from_millis(5),
            ..WorldConfig::default()
        };
        let out = dist(3, 3).world(cfg).resilience(resilience).execute().unwrap();
        assert_eq!(out.retries, 1, "one rollback");
        let dt0 = Rk4 { courant: SolverConfig::default().courant }.timestep(&adaptive_mesh());
        let expected = 2.5 * dt0;
        let snap = checkpoint::latest_snapshot(&dir).unwrap().expect("a committed snapshot");
        let manifest = checkpoint::load_distributed(&snap).unwrap().manifest;
        assert_eq!(manifest.steps_taken, 3);
        assert!((manifest.time - expected).abs() < 1e-12 * dt0, "manifest time {}", manifest.time);
        assert!((out.time - expected).abs() < 1e-12 * dt0, "outcome time {}", out.time);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ghost_payload_matches_flat_serialization() {
        // The fused per-block serialization sends exactly the bytes, and
        // the CRC, of collecting the blocks into one f64 vector and
        // flattening it to little-endian bytes.
        let mesh = adaptive_mesh();
        let u = fill_field(&mesh, &wave());
        let list: Vec<u32> = vec![0, 3, 17, 70];
        let mut words = Vec::new();
        for &oct in &list {
            for v in 0..NUM_VARS {
                words.extend_from_slice(u.block(v, oct as usize));
            }
        }
        let flat: Vec<u8> = words.iter().flat_map(|v| v.to_le_bytes()).collect();
        let (bytes, crc) = ghost_payload(&u, &list).into_parts();
        assert_eq!(bytes, flat);
        assert_eq!(crc, gw_comm::crc::crc32(&flat));
    }

    #[test]
    fn work_counts_match_partition() {
        let r = outcome(dist(3, 2)).result;
        let total: u64 = r.work.iter().sum();
        assert_eq!(total, 2 * adaptive_mesh().n_octants() as u64);
    }
}
