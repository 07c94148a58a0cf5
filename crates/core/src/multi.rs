//! Distributed (multi-rank / multi-GPU) evolution, driven by
//! [`Run::distributed`](crate::run::Run::distributed).
//!
//! Octants are partitioned across ranks along the space-filling curve;
//! each rank evolves its contiguous range, exchanging ghost octant blocks
//! with neighbor ranks before every RHS evaluation (the `halo_exchange`
//! of Algorithm 1). Every rank runs the configured RHS through the same
//! per-octant step as the single-rank backends, so the distributed
//! result is bit-identical to the single-rank run — which the tests
//! assert; the value of this module for the paper's experiments is the
//! *metered traffic* feeding the scaling models (Figs. 17/18/20).
//!
//! With [`WorldConfig::overlap`] set, each RK stage runs the
//! dependency-aware overlapped schedule instead of the blocking one:
//! sends are posted first, the rank's *interior* octants (those whose
//! gather stencil reads only owned blocks) are evaluated on a worker
//! pool while the ghosts are in flight, and the *boundary* octants
//! finish after the nonblocking receives complete. The classification
//! is static per partition, every output slot keeps exactly one writer,
//! and reductions stay fixed-order, so the overlapped result is
//! bit-identical to the blocking one (see DESIGN.md §11).

use crate::backend::OctantRhs;
use crate::checkpoint::{self, CheckpointError, DistManifest, ShardHeader};
use crate::solver::SolverConfig;
use gw_comm::world::WorldConfig;
use gw_comm::{CommError, CrcBuf, GhostPlan, GhostSchedule, RankCtx, RecvHandle, World};
use gw_expr::symbols::NUM_VARS;
use gw_mesh::{Field, Mesh, ProlongedHalo};
use gw_obs::{Counter, Phase, Probe};
use gw_octree::partition::partition_uniform;
use gw_par::{ThreadPool, UnsafeSlice};
use gw_stencil::patch::BLOCK_VOLUME;
use std::ops::Range;
use std::time::Instant;

/// Result of a distributed run.
#[derive(Debug)]
pub struct DistributedResult {
    pub state: Field,
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

/// The message carrying the ghost blocks of `list` (all 24 vars of each
/// octant, in that order), serialized straight from `field`'s blocks and
/// checksummed block by block while each is in cache.
fn ghost_payload(field: &Field, list: &[u32]) -> CrcBuf {
    let mut buf = CrcBuf::with_capacity(list.len() * NUM_VARS * BLOCK_VOLUME * 8);
    for &oct in list {
        for v in 0..NUM_VARS {
            buf.put_f64s(field.block(v, oct as usize));
        }
    }
    buf
}

/// Post the sends and nonblocking receives of one halo exchange (all 24
/// vars of each octant the plan lists) and return the in-flight receive
/// handles, one per neighbor in rank order.
fn post_exchange<'c>(
    ctx: &'c RankCtx<'c>,
    plan: &GhostPlan,
    field: &Field,
    tag: u64,
) -> Vec<RecvHandle<'c, 'c>> {
    let r = ctx.rank();
    for q in 0..ctx.size() {
        let list = &plan.sends[r][q];
        if !list.is_empty() {
            ctx.send_buf(q, tag, ghost_payload(field, list));
        }
    }
    (0..ctx.size()).filter(|&q| !plan.recvs[r][q].is_empty()).map(|q| ctx.irecv(q, tag)).collect()
}

/// Complete the receives posted by [`post_exchange`], decoding ghost
/// blocks straight into `field`. Receives are checked before any block
/// is decoded: a dropped, truncated, or corrupted message surfaces as a
/// [`CommError`] — the field is never partially updated from a bad
/// payload.
fn finish_exchange(
    ctx: &RankCtx<'_>,
    plan: &GhostPlan,
    field: &mut Field,
    tag: u64,
    handles: Vec<RecvHandle<'_, '_>>,
) -> Result<(), CommError> {
    let r = ctx.rank();
    for mut h in handles {
        let q = h.src();
        let list = &plan.recvs[r][q];
        let payload = h.wait_delivered()?;
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
        for &oct in list {
            for v in 0..NUM_VARS {
                payload.decode_into(off, field.block_mut(v, oct as usize));
                off += BLOCK_VOLUME;
            }
        }
    }
    Ok(())
}

/// The blocking halo exchange: the overlapped path's messages, tags and
/// checks, with nothing computed while they travel.
fn exchange(
    ctx: &RankCtx<'_>,
    plan: &GhostPlan,
    field: &mut Field,
    tag: u64,
) -> Result<(), CommError> {
    let handles = post_exchange(ctx, plan, field, tag);
    finish_exchange(ctx, plan, field, tag, handles)
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

/// Apply the listed `mesh.syncs` entries (sync-outer, variable-inner).
fn apply_syncs(mesh: &Mesh, indices: &[usize], u: &mut Field) {
    for &i in indices {
        let c = &mesh.syncs[i];
        for v in 0..NUM_VARS {
            let sv = u.block(v, c.src_oct as usize)[c.src_idx as usize];
            u.block_mut(v, c.dst_oct as usize)[c.dst_idx as usize] = sv;
        }
    }
}

/// What evaluating an octant reads besides its input field and halo:
/// shared by every evaluating thread of a rank.
#[derive(Clone, Copy)]
struct Evaluator<'a> {
    mesh: &'a Mesh,
    rhs: &'a OctantRhs,
    probe: &'a Probe,
}

/// The rank's halo sources split by owner: the owned ones can be
/// prolonged before the ghosts arrive, the ghost ones only after.
fn split_sources(halo: &ProlongedHalo, owned: &Range<usize>) -> (Vec<u32>, Vec<u32>) {
    halo.sources().iter().partition(|&&s| owned.contains(&(s as usize)))
}

/// [`OctantRhs::gather_eval`] over an explicit list of owned octants on
/// the rank's pool (inline on the rank thread for the blocking schedule).
/// Each octant's output blocks in the owned-only `out` have exactly one
/// writer, so the result is bit-identical at any thread count and any
/// list order.
fn eval_rhs_list(
    st: &StageCtx<'_, '_>,
    list: &[usize],
    input: &Field,
    halo: &ProlongedHalo,
    out: &mut Field,
) {
    let ev = st.ev;
    let (base, n_local) = (st.owned.start, out.n_oct);
    let out_s = UnsafeSlice::new(out.as_mut_slice());
    st.pool.for_each(list.len(), |i| {
        let e = list[i];
        // Safety: octants in `list` are distinct, so output blocks
        // (v, e) belong to this iteration alone.
        let mut out_blocks: [&mut [f64]; NUM_VARS] = std::array::from_fn(|v| unsafe {
            out_s.slice_mut((v * n_local + e - base) * BLOCK_VOLUME, BLOCK_VOLUME)
        });
        ev.rhs.gather_eval(ev.mesh, e, input, halo, &mut out_blocks, ev.probe);
    });
}

/// Everything one RK stage needs besides the fields: the exchange plan,
/// the evaluator state, the static classification and halo source split,
/// and the worker pool.
struct StageCtx<'a, 'w> {
    ctx: &'a RankCtx<'w>,
    plan: &'a GhostPlan,
    ev: Evaluator<'a>,
    owned: Range<usize>,
    split: &'a OwnedSplit,
    /// Halo sources the rank owns / receives as ghosts.
    owned_sources: &'a [u32],
    ghost_sources: &'a [u32],
    /// The overlapped schedule (else the blocking one).
    overlap: bool,
    /// The shared worker pool when overlapping; a one-participant pool
    /// (inline on the rank thread) when blocking.
    pool: &'a ThreadPool,
}

/// One halo exchange + RHS evaluation: `out = rhs(field)` over the owned
/// octants (`out` holds the owned octants only), with ghosts of `field`
/// refreshed under `tag` and `halo` refilled from `field`. Dispatches to
/// the blocking schedule or the overlapped one; both produce bit-identical
/// `out` (single-writer slots, unchanged per-point arithmetic). The
/// overlapped one prolongs the owned sources and evaluates the interior
/// octants while the ghosts travel, then prolongs the ghost sources.
fn rhs_stage(
    st: &StageCtx<'_, '_>,
    halo: &mut ProlongedHalo,
    field: &mut Field,
    out: &mut Field,
    tag: u64,
) -> Result<(), CommError> {
    let split = st.split;
    if st.overlap {
        let handles = post_exchange(st.ctx, st.plan, field, tag);
        let t0 = Instant::now();
        {
            let _s = st.ev.probe.start(Phase::HaloOverlap);
            halo.fill(field, st.owned_sources, st.pool);
            eval_rhs_list(st, &split.interior, field, halo, out);
        }
        st.ev.probe.add(Counter::HaloOverlapUs, t0.elapsed().as_micros() as u64);
        let t1 = Instant::now();
        {
            let _s = st.ev.probe.start(Phase::Halo);
            finish_exchange(st.ctx, st.plan, field, tag, handles)?;
        }
        st.ev.probe.add(Counter::HaloWaitUs, t1.elapsed().as_micros() as u64);
        let _s = st.ev.probe.start(Phase::Rhs);
        halo.fill(field, st.ghost_sources, st.pool);
        eval_rhs_list(st, &split.boundary, field, halo, out);
    } else {
        {
            let _s = st.ev.probe.start(Phase::Halo);
            exchange(st.ctx, st.plan, field, tag)?;
        }
        let _s = st.ev.probe.start(Phase::Rhs);
        halo.fill(field, st.owned_sources, st.pool);
        halo.fill(field, st.ghost_sources, st.pool);
        eval_rhs_list(st, &split.interior, field, halo, out);
        eval_rhs_list(st, &split.boundary, field, halo, out);
    }
    Ok(())
}

/// The post-update ghost refresh + interface sync closing each step.
/// Overlapped: owned-source syncs run while the ghosts travel, the rest
/// after arrival. Blocking: both lists run after arrival. Either way the
/// result is that of the owned syncs in `mesh.syncs` order: the split is
/// only taken when the owned sync set is order-free (see
/// [`classify_owned`]).
fn sync_stage(st: &StageCtx<'_, '_>, u: &mut Field, tag: u64) -> Result<(), CommError> {
    let split = st.split;
    if st.overlap {
        let handles = post_exchange(st.ctx, st.plan, u, tag);
        let t0 = Instant::now();
        {
            let _s = st.ev.probe.start(Phase::HaloOverlap);
            apply_syncs(st.ev.mesh, &split.syncs_local, u);
        }
        st.ev.probe.add(Counter::HaloOverlapUs, t0.elapsed().as_micros() as u64);
        let t1 = Instant::now();
        {
            let _s = st.ev.probe.start(Phase::Halo);
            finish_exchange(st.ctx, st.plan, u, tag, handles)?;
        }
        st.ev.probe.add(Counter::HaloWaitUs, t1.elapsed().as_micros() as u64);
    } else {
        {
            let _s = st.ev.probe.start(Phase::Halo);
            exchange(st.ctx, st.plan, u, tag)?;
        }
        apply_syncs(st.ev.mesh, &split.syncs_local, u);
    }
    apply_syncs(st.ev.mesh, &split.syncs_ghost, u);
    Ok(())
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
/// `start_step..steps` from the state `u0` (authoritative at
/// `start_step`), optionally taking coordinated snapshots and optionally
/// fail-stopping one rank (fault injection).
struct SpanOpts {
    start_step: usize,
    steps: usize,
    dt: f64,
    /// `(snapshot root, cadence in steps)`.
    snapshot: Option<(String, u64)>,
    kill: Option<KillSpec>,
}

fn evolve_span(
    mesh: &Mesh,
    u0: &Field,
    ranks: usize,
    rhs: &OctantRhs,
    world_cfg: WorldConfig,
    opts: SpanOpts,
) -> Result<DistributedResult, SpanFailure> {
    let n = mesh.n_octants();
    let part = partition_uniform(n, ranks);
    let plan = GhostSchedule::build(&part, dependencies(mesh).into_iter());
    let dt = opts.dt;
    // One probe handle per rank thread: spans carry per-thread ids, and
    // counters are shared atomics, so concurrent ranks attribute cleanly.
    let probe = world_cfg.probe.clone();

    let plan_ref = &plan;
    let part_ref = &part;
    let start_step = opts.start_step;
    let steps = opts.steps;
    let snapshot = opts.snapshot;
    let kill = opts.kill;
    let snapshot_ref = &snapshot;
    let overlap = world_cfg.overlap;
    let overlap_threads = world_cfg.overlap_threads;
    let (mut results, traffic) = World::run(ranks, world_cfg, move |ctx| {
        let r = ctx.rank();
        let owned = part_ref.range(r);
        // `u` and `stage` hold ghosts too; the RHS output `k` and the
        // accumulator `acc` only the owned octants (index `e − start`).
        let mut u = u0.clone();
        let mut stage = Field::zeros(NUM_VARS, n);
        let mut k = Field::zeros(NUM_VARS, owned.len());
        let mut acc = Field::zeros(NUM_VARS, owned.len());
        // The static interior/boundary classification, the halo of the
        // coarse sources the owned octants read, and the worker pool,
        // built once per span.
        let split = classify_owned(mesh, &owned);
        probe.add(Counter::WorkspaceAllocs, 1);
        let mut halo = ProlongedHalo::new(mesh, NUM_VARS, owned.clone());
        let (owned_sources, ghost_sources) = split_sources(&halo, &owned);
        let pool = ThreadPool::shared(if overlap { overlap_threads } else { 1 });
        let st = StageCtx {
            ctx: &ctx,
            plan: plan_ref,
            ev: Evaluator { mesh, rhs, probe: &probe },
            owned: owned.clone(),
            split: &split,
            owned_sources: &owned_sources,
            ghost_sources: &ghost_sources,
            overlap,
            pool: &pool,
        };
        let mut work = 0u64;
        for s in start_step..steps {
            // Injected fail-stop: the rank dies here, visibly to the
            // liveness view, exactly as if its process were killed.
            if let Some(k) = kill {
                if r == k.rank && s == k.at_step {
                    ctx.declare_dead();
                    return Err(SpanFailure::Comm(CommError::RankDead { rank: r, dst: r }));
                }
            }
            // k1.
            rhs_stage(&st, &mut halo, &mut u, &mut k, stage_tag(s, 0))?;
            for (l, e) in owned.clone().enumerate() {
                for v in 0..NUM_VARS {
                    for (a, (b, kk)) in acc
                        .block_mut(v, l)
                        .iter_mut()
                        .zip(u.block(v, e).iter().zip(k.block(v, l).iter()))
                    {
                        *a = b + dt / 6.0 * kk;
                    }
                    for (s, (b, kk)) in stage
                        .block_mut(v, e)
                        .iter_mut()
                        .zip(u.block(v, e).iter().zip(k.block(v, l).iter()))
                    {
                        *s = b + dt / 2.0 * kk;
                    }
                }
            }
            // k2, k3.
            for (si, (w_acc, w_stage)) in
                [(dt / 3.0, dt / 2.0), (dt / 3.0, dt)].into_iter().enumerate()
            {
                rhs_stage(&st, &mut halo, &mut stage, &mut k, stage_tag(s, 1 + si as u64))?;
                for (l, e) in owned.clone().enumerate() {
                    for v in 0..NUM_VARS {
                        for (a, kk) in acc.block_mut(v, l).iter_mut().zip(k.block(v, l).iter()) {
                            *a += w_acc * kk;
                        }
                        for (s, (b, kk)) in stage
                            .block_mut(v, e)
                            .iter_mut()
                            .zip(u.block(v, e).iter().zip(k.block(v, l).iter()))
                        {
                            *s = b + w_stage * kk;
                        }
                    }
                }
            }
            // k4.
            rhs_stage(&st, &mut halo, &mut stage, &mut k, stage_tag(s, 3))?;
            for (l, e) in owned.clone().enumerate() {
                for v in 0..NUM_VARS {
                    for (uu, (a, kk)) in u
                        .block_mut(v, e)
                        .iter_mut()
                        .zip(acc.block(v, l).iter().zip(k.block(v, l).iter()))
                    {
                        *uu = a + dt / 6.0 * kk;
                    }
                }
            }
            // Interface sync needs updated ghosts.
            sync_stage(&st, &mut u, stage_tag(s, STAGE_SYNC))?;
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
                        time: s1 as f64 * dt,
                        steps_taken: s1,
                    };
                    let (crc, len) = checkpoint::write_shard(&sub, &shard, &u)?;
                    let metas = ctx.try_allgatherv(&[crc as f64, len as f64])?;
                    if r == 0 {
                        let manifest = DistManifest {
                            domain: mesh.domain,
                            leaves: mesh.octants.iter().map(|o| o.key).collect(),
                            offsets: (0..=ctx.size())
                                .map(|q| if q == ctx.size() { n } else { part_ref.range(q).start })
                                .collect(),
                            time: s1 as f64 * dt,
                            steps_taken: s1,
                            shard_crcs: metas.iter().map(|m| m[0] as u32).collect(),
                            shard_lens: metas.iter().map(|m| m[1] as u64).collect(),
                        };
                        checkpoint::commit_manifest(&sub, &manifest)?;
                    }
                    ctx.try_barrier()?;
                }
            }
        }
        // Return owned blocks.
        let mut owned_data = Vec::with_capacity(owned.len() * NUM_VARS * BLOCK_VOLUME);
        for e in owned.clone() {
            for v in 0..NUM_VARS {
                owned_data.extend_from_slice(u.block(v, e));
            }
        }
        Ok((owned_data, work))
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
    // Reassemble the global state from per-rank owned blocks.
    let mut state = Field::zeros(NUM_VARS, n);
    let mut work = Vec::with_capacity(ranks);
    for (r, res) in results.drain(..).enumerate() {
        let (data, w) = res.expect("error case handled above");
        work.push(w);
        let mut off = 0;
        for e in part.range(r) {
            for v in 0..NUM_VARS {
                state.block_mut(v, e).copy_from_slice(&data[off..off + BLOCK_VOLUME]);
                off += BLOCK_VOLUME;
            }
        }
    }
    let traffic = traffic.iter().map(|t| (t.messages, t.bytes)).collect();
    Ok(DistributedResult { state, traffic, work, plan })
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
    let h_min = mesh.octants.iter().map(|o| o.h).fold(f64::INFINITY, f64::min);
    let mut courant = config.courant;
    let mut params = config.params;
    // The tape bakes in `params`, so it is rebuilt only when a degraded
    // retry changes them.
    let mut rhs = OctantRhs::new(mesh, params, config.rhs_kind);
    let mut retries = 0u32;
    let mut kill = resilience.kill_once;
    let mut start_step = 0usize;
    let mut state = u0.clone();
    let mut events = Vec::new();
    loop {
        let opts = SpanOpts {
            start_step,
            steps,
            dt: courant * h_min,
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
                start_step = cp.manifest.steps_taken as usize;
                state = cp.state;
            }
            None => {
                start_step = 0;
                state = u0.clone();
            }
        }
        events.push(RecoveryEvent::RolledBack { to_step: start_step as u64, cause });
        courant *= resilience.degradation.courant_factor;
        if resilience.degradation.ko_boost != 0.0 {
            params.ko_sigma += resilience.degradation.ko_boost;
            rhs = OctantRhs::new(mesh, params, config.rhs_kind);
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
        for (ranks, expected) in [(2, 9), (3, 14)] {
            let owned = partition_uniform(mesh.n_octants(), ranks).range(0);
            let (_, ghost) = split_sources(&ProlongedHalo::new(&mesh, 1, owned.clone()), &owned);
            assert_eq!(ghost.len(), expected, "rank 0's ghost Prolong sources at {ranks} ranks");
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
