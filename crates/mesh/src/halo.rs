//! Prolong once, gather per octant: the host octant-to-patch path.
//!
//! A loop-over-patches gather re-prolongs a coarse source for every finer
//! patch that reads it, and the loop-over-octants scatter writes every
//! patch of the mesh before any is consumed. [`ProlongedHalo`] splits the
//! difference. [`ProlongedHalo::fill`] prolongs each coarse source
//! *once*, and only over its [`prolong_union`] box (the part of the fine
//! block its `Prolong` ops read), into one flat buffer. Then
//! [`ProlongedHalo::gather`] assembles one octant's padded patches at a
//! time into a staging buffer the caller owns, reading `Same`/`Inject`
//! values from the source blocks and `Prolong` values from the halo. It
//! replays row walks resolved once, when the halo is built, so no op is
//! re-derived per octant and variable. No full-mesh patch field exists.
//!
//! Every value is bit-identical to [`crate::scatter::fill_patches_scatter`]
//! plus [`crate::scatter::fill_boundary_padding`]: a box-restricted
//! prolongation equals the full prolongation inside the box
//! ([`Prolongation::prolong_box_into`]), and the mesh's write partition
//! gives every padding point exactly one incoming op, so the gather's op
//! order does not matter.
//!
//! Fields may be stored compactly: a rank keeps only its owned and ghost
//! octants, in a storage order of its own. The halo is told which octant
//! each storage slot holds when it is built, and resolves every read into
//! that layout once, so neither `fill` nor `gather` looks anything up.

use crate::field::Field;
use crate::grid::{Mesh, ScatterKind};
use crate::scatter::{prolong_union, RowWalk};
use gw_par::{tree_reduce, ThreadPool, UnsafeSlice};
use gw_stencil::interp::{FineBox, ProlongWorkspace, Prolongation};
use gw_stencil::patch::{BLOCK_VOLUME, PATCH_VOLUME, POINTS_PER_SIDE};
use std::cell::RefCell;
use std::ops::Range;

/// `slot_of` marker for an octant that is not a source of the halo (or,
/// in a storage map, not stored).
const NO_SLOT: u32 = u32::MAX;

/// The prolonged boxes of a set of coarse source octants, for all `dof`
/// variables, in one flat buffer, variable-major: variable `v` of source
/// slot `s` (box `b`) sits at `v·var_len + offsets[s]`, x fastest within
/// the box. Also holds the gather plan of every destination.
pub struct ProlongedHalo {
    dof: usize,
    /// Octants per variable of the fields it reads.
    n_stored: usize,
    prolong: Prolongation,
    /// Per octant id: its slot in `sources`, or [`NO_SLOT`].
    slot_of: Vec<u32>,
    /// The source octants, ascending, and the storage slot of each.
    sources: Vec<u32>,
    stored_at: Vec<u32>,
    /// Per slot: the prolonged box and its start within one variable.
    boxes: Vec<FineBox>,
    offsets: Vec<usize>,
    /// Values of one variable over every slot.
    var_len: usize,
    data: Vec<f64>,
    plan: GatherPlan,
}

/// The gather of every destination octant, resolved once: the storage
/// slot of its own block, the [`RowWalk`]s of its incoming ops, against
/// the field's per-variable storage (`Same`/`Inject`) or the halo's
/// (`Prolong`), then those of its physical-boundary regions. Every index
/// is variable-independent, so one plan serves all `dof` variables.
struct GatherPlan {
    dsts: Range<usize>,
    /// Destination `dsts.start + d` is stored in slot `own[d]`.
    own: Vec<u32>,
    walks: Vec<RowWalk>,
    /// Destination `dsts.start + d` reads the field through
    /// `walks[starts[3d]..starts[3d + 1]]`, the halo through the next
    /// range, and fills its boundary padding from its own patch through
    /// the third.
    starts: Vec<u32>,
}

impl GatherPlan {
    fn new(
        mesh: &Mesh,
        dsts: Range<usize>,
        storage: &[u32],
        slot_of: &[u32],
        boxes: &[FineBox],
        offsets: &[usize],
    ) -> Self {
        const R: usize = POINTS_PER_SIDE;
        let shift = |mut w: RowWalk, by: usize| {
            w.src = u32::try_from(w.src as usize + by).expect("gather source index fits u32");
            w
        };
        let n_walks = dsts.clone().map(|e| mesh.gather_of(e).len() + mesh.boundary_of(e).len());
        let mut walks = Vec::with_capacity(n_walks.sum());
        let mut starts = Vec::with_capacity(3 * dsts.len() + 1);
        starts.push(0u32);
        let mut close = |walks: &Vec<RowWalk>| starts.push(walks.len() as u32);
        let stored = |e: usize| {
            let s = storage[e];
            assert_ne!(s, NO_SLOT, "octant {e}, read by a destination of the halo, is not stored");
            s as usize
        };
        let own = dsts.clone().map(|e| stored(e) as u32).collect();
        for e in dsts.clone() {
            let ops = mesh.gather_of(e);
            for op in ops.iter().filter(|op| op.kind != ScatterKind::Prolong) {
                let w = RowWalk::scatter(op, [0; 3], [R, R]);
                let at = stored(op.src as usize) * BLOCK_VOLUME;
                walks.extend((w.points() > 0).then(|| shift(w, at)));
            }
            close(&walks);
            for op in ops.iter().filter(|op| op.kind == ScatterKind::Prolong) {
                let s = slot_of[op.src as usize] as usize;
                let b = boxes[s];
                let w = RowWalk::scatter(op, b.lo, [b.hi[0] - b.lo[0], b.hi[1] - b.lo[1]]);
                walks.extend((w.points() > 0).then(|| shift(w, offsets[s])));
            }
            close(&walks);
            walks.extend(mesh.boundary_of(e).iter().map(|&(_, delta)| RowWalk::boundary(delta)));
            close(&walks);
        }
        Self { dsts, own, walks, starts }
    }

    /// Destination `e`'s storage slot, and its walks over the field, over
    /// the halo and within its patch.
    fn of(&self, e: usize) -> (usize, [&[RowWalk]; 3]) {
        assert!(self.dsts.contains(&e), "octant {e} is not a destination of this halo");
        let d = e - self.dsts.start;
        let walks = [0, 1, 2].map(|g| {
            &self.walks[self.starts[3 * d + g] as usize..self.starts[3 * d + g + 1] as usize]
        });
        (self.own[d] as usize, walks)
    }
}

impl ProlongedHalo {
    /// The halo feeding every `Prolong` op whose destination lies in
    /// `dsts`: one [`prolong_union`] box per source of such an op, and
    /// the gather plan of every destination in `dsts`, reading fields
    /// whose storage slot `i` holds octant `stored[i]`. The whole mesh
    /// (`0..n`) in the identity layout for a single-rank backend; for a
    /// distributed one, a rank's owned range, whose sources include
    /// ghosts, in its layout of owned then ghost octants. Panics when a
    /// destination or an octant it reads is not stored.
    pub fn new(mesh: &Mesh, dof: usize, dsts: Range<usize>, stored: &[u32]) -> Self {
        let n = mesh.n_octants();
        let mut storage = vec![NO_SLOT; n];
        for (i, &e) in stored.iter().enumerate() {
            storage[e as usize] = i as u32;
        }
        let mut is_source = vec![false; n];
        for b in dsts.clone() {
            for op in mesh.gather_of(b).iter().filter(|op| op.kind == ScatterKind::Prolong) {
                is_source[op.src as usize] = true;
            }
        }
        let mut slot_of = vec![NO_SLOT; n];
        let (mut sources, mut boxes, mut offsets) = (Vec::new(), Vec::new(), Vec::new());
        let mut var_len = 0;
        for e in (0..n).filter(|&e| is_source[e]) {
            let b =
                prolong_union(mesh.scatter_of(e)).expect("every Prolong op reads a non-empty box");
            slot_of[e] = sources.len() as u32;
            sources.push(e as u32);
            boxes.push(b);
            offsets.push(var_len);
            var_len += b.volume();
        }
        let plan = GatherPlan::new(mesh, dsts, &storage, &slot_of, &boxes, &offsets);
        let stored_at = sources.iter().map(|&e| storage[e as usize]).collect::<Vec<_>>();
        assert!(!stored_at.contains(&NO_SLOT), "every prolongation source must be stored");
        Self {
            dof,
            n_stored: stored.len(),
            prolong: Prolongation::new(),
            slot_of,
            sources,
            stored_at,
            boxes,
            offsets,
            var_len,
            data: vec![0.0; dof * var_len],
            plan,
        }
    }

    /// The halo's source octants, ascending.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Prolong each listed source of `field` once into its box, for every
    /// variable: one task per source on `pool`, each writing only its own
    /// slot, so the result is bit-identical at any thread count.
    /// `sources` must be ascending halo sources. Returns the flops, the
    /// union-box count of [`Prolongation::prolong_box_into`].
    pub fn fill(&mut self, field: &Field, sources: &[u32], pool: &ThreadPool) -> u64 {
        thread_local! {
            static WS: RefCell<Option<ProlongWorkspace>> = const { RefCell::new(None) };
        }
        assert!(sources.windows(2).all(|w| w[0] < w[1]), "halo sources must be ascending");
        assert_eq!((field.dof, field.n_oct), (self.dof, self.n_stored), "field of another layout");
        let Self { dof, prolong, slot_of, stored_at, boxes, offsets, var_len, data, .. } = self;
        let out = UnsafeSlice::new(data);
        let flops = pool.map(sources.len(), |i| {
            let e = sources[i] as usize;
            let s = slot_of[e];
            assert_ne!(s, NO_SLOT, "octant {e} is not a source of this halo");
            let (b, off) = (boxes[s as usize], offsets[s as usize]);
            let v = b.volume();
            WS.with(|cell| {
                let mut borrow = cell.borrow_mut();
                let ws = borrow.get_or_insert_with(ProlongWorkspace::new);
                (0..*dof)
                    .map(|var| {
                        // Safety: sources are distinct, so slot `s` of
                        // every variable belongs to this task alone.
                        let dst = unsafe { out.slice_mut(var * *var_len + off, v) };
                        let block = field.block(var, stored_at[s as usize] as usize);
                        prolong.prolong_box_into(block, dst, ws, b)
                    })
                    .sum::<u64>()
            })
        });
        tree_reduce(&flops, 0u64, |a, b| a + b)
    }

    /// Assemble octant `e`'s `dof` padded patches of `field` into
    /// `staging` (variable-major, `dof × PATCH_VOLUME`) by replaying its
    /// gather plan for each variable: the interior copy, the walks of its
    /// `Same`/`Inject` ops over the source blocks, those of its `Prolong`
    /// ops over the halo — which [`ProlongedHalo::fill`] must have filled
    /// from `field` — then the physical-boundary padding, which copies
    /// interior points. `e` (a global octant id) must lie in the halo's
    /// destination range. Reads only, so any number of threads may gather
    /// concurrently.
    pub fn gather(&self, field: &Field, e: usize, staging: &mut [f64]) {
        assert_eq!(staging.len(), self.dof * PATCH_VOLUME);
        assert_eq!((field.dof, field.n_oct), (self.dof, self.n_stored), "field of another layout");
        let (own, [from_field, from_halo, within]) = self.plan.of(e);
        let field_len = self.n_stored * BLOCK_VOLUME;
        for (var, patch) in staging.chunks_exact_mut(PATCH_VOLUME).enumerate() {
            let values = &field.as_slice()[var * field_len..][..field_len];
            let boxes = &self.data[var * self.var_len..][..self.var_len];
            gw_stencil::patch::octant_to_patch_interior(field.block(var, own), patch);
            for w in from_field {
                w.copy(values, patch);
            }
            for w in from_halo {
                w.copy(boxes, patch);
            }
            for w in within {
                w.copy_within(patch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::PatchField;
    use crate::scatter::{fill_boundary_padding, fill_patches_scatter};
    use gw_octree::{balance_octree, complete_octree, BalanceMode, Domain, MortonKey};

    /// Corner-refined mesh: `depth` levels below the first split.
    fn corner_mesh(depth: usize) -> Mesh {
        let mut k = MortonKey::root().children()[0];
        for _ in 1..depth {
            k = k.children()[7];
        }
        let t = complete_octree(k.children().to_vec());
        Mesh::build(Domain::unit(), &balance_octree(&t, BalanceMode::Full))
    }

    fn sin_field(mesh: &Mesh, dof: usize) -> Field {
        let mut f = Field::zeros(dof, mesh.n_octants());
        for var in 0..dof {
            for oct in 0..mesh.n_octants() {
                for (i, v) in f.block_mut(var, oct).iter_mut().enumerate() {
                    *v = ((var * 1009 + oct * 131 + i) as f64).sin();
                }
            }
        }
        f
    }

    /// The identity layout: slot `e` holds octant `e`.
    fn identity(mesh: &Mesh) -> Vec<u32> {
        (0..mesh.n_octants() as u32).collect()
    }

    /// A rank-local layout: the `owned` octants, then every other octant
    /// they read, ascending.
    fn rank_layout(mesh: &Mesh, owned: Range<usize>) -> Vec<u32> {
        let mut ghosts: Vec<u32> = owned
            .clone()
            .flat_map(|e| mesh.gather_of(e).iter().map(|op| op.src))
            .filter(|&s| !owned.contains(&(s as usize)))
            .collect();
        ghosts.sort_unstable();
        ghosts.dedup();
        owned.map(|e| e as u32).chain(ghosts).collect()
    }

    /// `f`'s blocks of the `stored` octants, in that order.
    fn localize(f: &Field, stored: &[u32]) -> Field {
        let mut out = Field::zeros(f.dof, stored.len());
        for var in 0..f.dof {
            for (i, &e) in stored.iter().enumerate() {
                out.block_mut(var, i).copy_from_slice(f.block(var, e as usize));
            }
        }
        out
    }

    /// Union-box flops of prolonging `sources` for `dof` variables.
    fn union_flops(mesh: &Mesh, dof: usize, sources: &[u32]) -> u64 {
        let r = POINTS_PER_SIDE as u64;
        sources
            .iter()
            .filter_map(|&e| prolong_union(mesh.scatter_of(e as usize)))
            .map(|b| {
                let [bx, by, bz] = [0, 1, 2].map(|a| (b.hi[a] - b.lo[a]) as u64);
                dof as u64 * 2 * r * (bx * r * r + bx * by * r + bx * by * bz)
            })
            .sum()
    }

    /// The halo path (prolong once, gather per octant) must reproduce the
    /// serial scatter oracle bit for bit at any thread count and in any
    /// storage layout, with the union-box flop count, below the oracle's
    /// full prolongations.
    #[test]
    fn halo_gather_matches_serial_scatter_bitwise() {
        // The adaptive test mesh and a deeper one with ≥ 3 levels.
        for (mesh, min_levels) in [(corner_mesh(2), 2), (corner_mesh(4), 3)] {
            let n = mesh.n_octants();
            let levels: std::collections::BTreeSet<u8> =
                mesh.octants.iter().map(|o| o.level).collect();
            assert!(levels.len() >= min_levels, "levels {levels:?}");
            let dof = 3;
            let f = sin_field(&mesh, dof);
            let mut p_ref = PatchField::zeros(dof, n);
            p_ref.fill(f64::NAN);
            let flops_full = fill_patches_scatter(&mesh, &f, &mut p_ref);
            fill_boundary_padding(&mesh, &mut p_ref, dof);
            let every_source: Vec<u32> = (0..n as u32).collect();
            let flops_union = union_flops(&mesh, dof, &every_source);
            assert!(
                0 < flops_union && flops_union < flops_full,
                "union-box flops {flops_union} vs full {flops_full}"
            );
            let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for threads in [1usize, 2, 8] {
                let pool = ThreadPool::new(threads);
                // The whole mesh, and a rank-like half whose halo also
                // holds sources outside its destination range, in the
                // identity layout; then either half in a rank-local
                // compact one, which stores only its own octants and
                // those they read.
                let (lo, hi) = (rank_layout(&mesh, 0..n / 2), rank_layout(&mesh, n / 2..n));
                assert!(lo.len() < n && hi.len() < n, "compact layouts store fewer octants");
                let layouts = [
                    (0..n, identity(&mesh)),
                    (0..n / 2, identity(&mesh)),
                    (0..n / 2, lo),
                    (n / 2..n, hi),
                ];
                for (dsts, stored) in layouts {
                    let field = localize(&f, &stored);
                    let mut halo = ProlongedHalo::new(&mesh, dof, dsts.clone(), &stored);
                    let sources = halo.sources().to_vec();
                    assert_eq!(
                        halo.fill(&field, &sources, &pool),
                        union_flops(&mesh, dof, &sources),
                        "flop count at {threads} threads"
                    );
                    if dsts == (0..n) {
                        assert_eq!(union_flops(&mesh, dof, &sources), flops_union);
                    }
                    let gathered = pool.map(dsts.len(), |i| {
                        let mut staging = vec![f64::NAN; dof * PATCH_VOLUME];
                        halo.gather(&field, dsts.start + i, &mut staging);
                        staging
                    });
                    for (e, staging) in dsts.clone().zip(&gathered) {
                        for var in 0..dof {
                            assert_eq!(
                                bits(&staging[var * PATCH_VOLUME..][..PATCH_VOLUME]),
                                bits(p_ref.patch(var, e)),
                                "octant {e} var {var} at {threads} threads, {} stored",
                                field.n_oct
                            );
                        }
                    }
                }
            }
        }
    }

    /// A rank fills its halo in two calls, its owned sources and then the
    /// ghost sources, as the distributed driver does around
    /// `finish_exchange`. Every gathered patch must be bit-identical to
    /// one whole fill and to the serial scatter oracle, even when the
    /// halo held stale values of another field before.
    #[test]
    fn split_fill_matches_whole_fill_and_serial_scatter_bitwise() {
        for mesh in [corner_mesh(2), corner_mesh(4)] {
            let n = mesh.n_octants();
            let dof = 3;
            let f = sin_field(&mesh, dof);
            let mut stale = f.clone();
            stale.as_mut_slice().iter_mut().for_each(|v| *v = -*v - 1.0);
            let mut p_ref = PatchField::zeros(dof, n);
            p_ref.fill(f64::NAN);
            fill_patches_scatter(&mesh, &f, &mut p_ref);
            fill_boundary_padding(&mesh, &mut p_ref, dof);
            let owned = 0..n / 2;
            let pool = ThreadPool::new(2);
            let mut whole = ProlongedHalo::new(&mesh, dof, owned.clone(), &identity(&mesh));
            let mut split = ProlongedHalo::new(&mesh, dof, owned.clone(), &identity(&mesh));
            let sources = whole.sources().to_vec();
            let (mine, ghosts): (Vec<u32>, Vec<u32>) =
                sources.iter().partition(|&&s| owned.contains(&(s as usize)));
            assert!(!mine.is_empty() && !ghosts.is_empty(), "{mine:?} / {ghosts:?}");
            let flops = whole.fill(&f, &sources, &pool);
            split.fill(&stale, &sources, &pool);
            assert_eq!(split.fill(&f, &mine, &pool) + split.fill(&f, &ghosts, &pool), flops);
            let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut a = vec![f64::NAN; dof * PATCH_VOLUME];
            let mut b = vec![f64::NAN; dof * PATCH_VOLUME];
            for e in owned {
                whole.gather(&f, e, &mut a);
                split.gather(&f, e, &mut b);
                assert_eq!(bits(&b), bits(&a), "octant {e}: split vs whole fill");
                for var in 0..dof {
                    assert_eq!(
                        bits(&b[var * PATCH_VOLUME..][..PATCH_VOLUME]),
                        bits(p_ref.patch(var, e)),
                        "octant {e} var {var}: split fill vs serial scatter"
                    );
                }
            }
        }
    }
}
