//! Loop-over-octants octant-to-patch (Algorithm 2), patch-to-octant, and
//! interface synchronization — the CPU reference implementations.
//!
//! The GPU (simulated-device) versions in `gw-core` run the same index
//! arithmetic inside kernel blocks; these host versions are the
//! correctness oracle and the single-core baseline of Fig. 7.

use crate::field::{Field, PatchField};
use crate::grid::{Mesh, ScatterKind, ScatterOp};
use gw_par::{ThreadPool, UnsafeSlice};
use gw_stencil::interp::{FineBox, ProlongWorkspace, Prolongation, FINE_SIDE};
use gw_stencil::patch::{PatchLayout, PADDING, PATCH_SIDE, POINTS_PER_SIDE};

/// Per-axis padded-patch index range of the padding region in direction
/// `delta` (−1 → `[0,3)`, 0 → `[3,10)`, +1 → `[10,13)`).
#[inline]
pub fn region_range(delta: i8) -> std::ops::Range<usize> {
    match delta {
        -1 => 0..PADDING,
        0 => PADDING..PADDING + POINTS_PER_SIDE,
        1 => PADDING + POINTS_PER_SIDE..PADDING + POINTS_PER_SIDE + PADDING,
        _ => unreachable!("delta components are in {{-1,0,1}}"),
    }
}

/// One axis of a scatter op's point walk: padded-patch coordinates `dst`
/// read source coordinates `src0, src0 + step, …` (of the source's `r^3`
/// block for `Same`/`Inject`, of its prolonged `(2r−1)^3` block for
/// `Prolong`).
struct AxisWalk {
    dst: std::ops::Range<usize>,
    src0: usize,
    step: usize,
}

/// The walk of `op` along axis `a`, from `delta` and `off` alone.
fn axis_walk(op: &ScatterOp, a: usize) -> AxisWalk {
    let range = region_range(op.delta[a]);
    let (delta, off) = (op.delta[a] as i32, op.off[a]);
    // Source coordinate `step·p + base` of padded coordinate `p`, and the
    // largest source coordinate the op may read.
    let (step, base, top) = match op.kind {
        // Src at direction δ from dst ⇒ src_origin = dst_origin + 6δh.
        ScatterKind::Same => (1, -3 - 6 * delta, 6),
        // i_src = 2(p − 3) − off; the i_src == 6 boundary plane is read
        // only by the op that owns it (grid-construction-time ownership,
        // see `ScatterOp::inc6`).
        ScatterKind::Inject => (2, -6 - off, if op.inc6[a] { 6 } else { 5 }),
        // j = off + (p − 3) into the prolonged (2r−1)^3 block.
        ScatterKind::Prolong => (1, off - 3, FINE_SIDE as i32 - 1),
    };
    // `step·p + base` is increasing in `p`, so the readable coordinates
    // form one contiguous run of the region: `p ≥ ⌈−base/step⌉` keeps the
    // source at or above 0, `p ≤ ⌊(top − base)/step⌋` at or below `top`.
    let (start, end) = (range.start as i32, range.end as i32);
    let lo = (step - 1 - base).div_euclid(step).clamp(start, end);
    let hi = ((top - base).div_euclid(step) + 1).min(end).max(lo);
    debug_assert!(
        op.kind != ScatterKind::Same || (lo..hi) == (start..end),
        "same ops read whole regions"
    );
    AxisWalk {
        src0: (step * lo + base).max(0) as usize,
        dst: lo as usize..hi as usize,
        step: step as usize,
    }
}

/// One padding region's copy, resolved to x-rows: row `(y, z)` writes
/// the `len` padded-patch points from index `dst + (z·13 + y)·13` on,
/// reading source index `src + y·src_stride[0] + z·src_stride[1]` on at
/// stride `step` along x. A scatter op's walk reads a source block or
/// prolonged box ([`RowWalk::scatter`]); a physical-boundary region's
/// reads the patch it writes ([`RowWalk::boundary`]). Every scatter,
/// gather and boundary kernel, and the build-time write-partition check,
/// walks through this one type; [`crate::halo::ProlongedHalo`] stores
/// its walks resolved (16 bytes each).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowWalk {
    /// Source index of the first row's first point.
    pub src: u32,
    /// Padded-patch index of the first row's first point.
    pub dst: u16,
    /// Source index stride between consecutive y-rows and z-planes.
    pub src_stride: [u16; 2],
    /// Points per row.
    pub len: u8,
    /// Source stride along x: 1 (`Same`, `Prolong`, boundary rows along
    /// x), 2 (`Inject`) or 0 (a boundary row that repeats one point).
    pub step: u8,
    /// Rows along y and along z.
    pub rows: [u8; 2],
}

// The gather plan's memory is 16 bytes per walk (DESIGN.md §19).
const _: () = assert!(std::mem::size_of::<RowWalk>() == 16);

impl RowWalk {
    /// The walk of scatter op `op`. Source coordinates are taken relative
    /// to `origin` in a box of x/y extent `dims` (x fastest): `[0; 3]` and
    /// the block side for a whole source block (`r` for `Same`/`Inject`,
    /// `2r − 1` for a full prolonged block), a `FineBox`'s corner and
    /// extents for a compactly stored prolonged box. An op that reads
    /// nothing gets a walk of no rows.
    pub fn scatter(op: &ScatterOp, origin: [usize; 3], dims: [usize; 2]) -> RowWalk {
        let [x, y, z] = [0, 1, 2].map(|a| axis_walk(op, a));
        if [&x, &y, &z].iter().any(|w| w.dst.is_empty()) {
            return RowWalk { src: 0, dst: 0, src_stride: [0; 2], len: 0, step: 1, rows: [0; 2] };
        }
        let src =
            ((z.src0 - origin[2]) * dims[1] + y.src0 - origin[1]) * dims[0] + x.src0 - origin[0];
        RowWalk {
            src: src as u32,
            dst: PatchLayout::padded().idx(x.dst.start, y.dst.start, z.dst.start) as u16,
            src_stride: [y.step * dims[0], z.step * dims[0] * dims[1]].map(|s| s as u16),
            len: x.dst.len() as u8,
            step: x.step as u8,
            rows: [y.dst.len() as u8, z.dst.len() as u8],
        }
    }

    /// The walk of physical-boundary padding region `delta`: each point
    /// copies the patch-interior point nearest to it (constant
    /// extrapolation; the physical boundary is in the wave zone where
    /// fields are smooth and the Sommerfeld RHS dominates). Along an axis
    /// where `delta` is 0 the source follows the destination; along the
    /// others it stays on the interior's last plane.
    pub fn boundary(delta: [i8; 3]) -> RowWalk {
        let p = PatchLayout::padded();
        let clamp = |t: usize| t.clamp(PADDING, PADDING + POINTS_PER_SIDE - 1);
        let [x, y, z] = [0, 1, 2].map(|a| region_range(delta[a]));
        let follows = delta.map(|d| usize::from(d == 0));
        RowWalk {
            src: p.idx(clamp(x.start), clamp(y.start), clamp(z.start)) as u32,
            dst: p.idx(x.start, y.start, z.start) as u16,
            src_stride: [follows[1] * PATCH_SIDE, follows[2] * PATCH_SIDE * PATCH_SIDE]
                .map(|s| s as u16),
            len: x.len() as u8,
            step: follows[0] as u8,
            rows: [y.len() as u8, z.len() as u8],
        }
    }

    /// Points the walk writes.
    pub fn points(&self) -> usize {
        self.len as usize * self.rows[0] as usize * self.rows[1] as usize
    }

    /// `visit(dst, src)` with the first destination and source index of
    /// every row.
    #[inline]
    pub fn for_each_row(&self, mut visit: impl FnMut(usize, usize)) {
        let [sy, sz] = self.src_stride.map(usize::from);
        for z in 0..self.rows[1] as usize {
            for y in 0..self.rows[0] as usize {
                let dst = self.dst as usize + (z * PATCH_SIDE + y) * PATCH_SIDE;
                visit(dst, self.src as usize + z * sz + y * sy);
            }
        }
    }

    /// `visit(dst, src)` for every point the walk copies.
    #[inline]
    pub fn for_each_point(&self, mut visit: impl FnMut(usize, usize)) {
        let (len, step) = (self.len as usize, self.step as usize);
        self.for_each_row(|dst, src| {
            for i in 0..len {
                visit(dst + i, src + step * i);
            }
        });
    }

    /// Copy the walk's rows from `src` into `patch`: one slice copy per
    /// row at source stride 1, of a fixed length for the region widths
    /// `k = 3` and `r = 7` that almost every row has.
    #[inline]
    pub fn copy(&self, src: &[f64], patch: &mut [f64]) {
        match (self.step, self.len as usize) {
            (1, PADDING) => self.copy_rows::<PADDING>(src, patch),
            (1, POINTS_PER_SIDE) => self.copy_rows::<POINTS_PER_SIDE>(src, patch),
            (1, len) => self.for_each_row(|d, s| {
                patch[d..d + len].copy_from_slice(&src[s..s + len]);
            }),
            (step, len) => self.for_each_row(|d, s| {
                for (i, v) in patch[d..d + len].iter_mut().enumerate() {
                    *v = src[s + step as usize * i];
                }
            }),
        }
    }

    /// [`RowWalk::copy`] of a stride-1 walk with rows of `N` points.
    #[inline(always)]
    fn copy_rows<const N: usize>(&self, src: &[f64], patch: &mut [f64]) {
        self.for_each_row(|d, s| {
            let row: &[f64; N] = src[s..s + N].try_into().expect("row of N points");
            patch[d..d + N].copy_from_slice(row);
        });
    }

    /// [`RowWalk::copy`] with the source in `patch` itself, for a
    /// [`RowWalk::boundary`] walk: its sources lie in the patch interior,
    /// which it never writes.
    #[inline]
    pub fn copy_within(&self, patch: &mut [f64]) {
        let (len, step) = (self.len as usize, self.step as usize);
        self.for_each_row(|d, s| {
            if step == 1 {
                patch.copy_within(s..s + len, d);
            } else {
                let v = patch[s];
                patch[d..d + len].fill(v);
            }
        });
    }
}

/// Enumerate the `(dst_idx, src_idx)` point pairs of one scatter op.
/// `dst_idx` indexes the destination's padded patch; `src_idx` indexes the
/// source's `r^3` block for `Same`/`Inject` and the prolonged `(2r−1)^3`
/// block for `Prolong`. The point view of [`RowWalk::scatter`].
#[inline]
pub fn for_each_scatter_point(op: &ScatterOp, visit: impl FnMut(usize, usize)) {
    let side = if op.kind == ScatterKind::Prolong { FINE_SIDE } else { POINTS_PER_SIDE };
    RowWalk::scatter(op, [0; 3], [side, side]).for_each_point(visit);
}

/// The fine sub-box of the source's prolonged `(2r−1)^3` block that a
/// `Prolong` op reads: per axis, the run of `j = off + (p − 3)` its walk
/// visits — exactly the indices [`for_each_scatter_point`] visits, so
/// prolonging only this box ([`Prolongation::prolong_box_ws`]) feeds the
/// op bit-identical values.
pub fn prolong_box(op: &ScatterOp) -> FineBox {
    debug_assert_eq!(op.kind, ScatterKind::Prolong);
    let walks = [0, 1, 2].map(|a| axis_walk(op, a));
    FineBox { lo: walks.each_ref().map(|w| w.src0), hi: walks.map(|w| w.src0 + w.dst.len()) }
}

/// The box a source octant prolongs for its outgoing ops: the hull of
/// the [`prolong_box`]es of its `Prolong` ops (`None` without any). The
/// three separable passes need a box, and every point an op reads lies
/// in its own box, hence in the hull.
pub fn prolong_union(ops: &[ScatterOp]) -> Option<FineBox> {
    ops.iter()
        .filter(|op| op.kind == ScatterKind::Prolong)
        .map(prolong_box)
        .filter(|b| b.volume() > 0)
        .reduce(FineBox::hull)
}

/// Execute one scatter op for one variable, one row copy per x-row of
/// its [`RowWalk`]. `src_block` is the source octant's `r^3` data;
/// `fine13` must hold the source's prolonged `(2r−1)^3` block when
/// `kind == Prolong` (pass anything otherwise). Returns (points written,
/// flops).
pub fn apply_scatter_op(
    op: &ScatterOp,
    src_block: &[f64],
    fine13: &[f64],
    dst_patch: &mut [f64],
) -> (u64, u64) {
    let (src, side) = if op.kind == ScatterKind::Prolong {
        (fine13, FINE_SIDE)
    } else {
        (src_block, POINTS_PER_SIDE)
    };
    let walk = RowWalk::scatter(op, [0; 3], [side, side]);
    walk.copy(src, dst_patch);
    (walk.points() as u64, 0)
}

/// Octant-to-patch via **loop-over-octants** (the paper's approach):
/// each octant copies its interior into its own patch, prolongs itself
/// *once* if it has any finer neighbour (a `Prolong` op, whose target
/// patch reads interpolated coarse values), and scatters to all neighbour
/// patches. Single-threaded host version; it prolongs the full block and
/// stays the correctness oracle and the Fig. 7 baseline.
///
/// Returns total interpolation flops (for AI accounting).
pub fn fill_patches_scatter(mesh: &Mesh, field: &Field, patches: &mut PatchField) -> u64 {
    let prolong = Prolongation::new();
    let mut ws = ProlongWorkspace::new();
    let mut fine13 = vec![0.0f64; FINE_SIDE * FINE_SIDE * FINE_SIDE];
    let mut flops = 0u64;
    let n = mesh.n_octants();
    for var in 0..field.dof {
        for e in 0..n {
            let src = field.block(var, e);
            // Own interior.
            gw_stencil::patch::octant_to_patch_interior(src, patches.patch_mut(var, e));
            let ops = mesh.scatter_of(e);
            // One prolongation shared by all Prolong targets (the key
            // saving versus loop-over-patches).
            if ops.iter().any(|op| op.kind == ScatterKind::Prolong) {
                flops += prolong.prolong3d_ws(src, &mut fine13, &mut ws);
            }
            for op in ops {
                let dst = patches.patch_mut(var, op.dst as usize);
                apply_scatter_op(op, src, &fine13, dst);
            }
        }
    }
    flops
}

/// Patch-to-octant: copy every patch interior back into the octant blocks
/// (a pure data-movement kernel; Table III reports zero arithmetic
/// intensity for it).
pub fn patches_to_octants(mesh: &Mesh, patches: &PatchField, field: &mut Field) {
    for var in 0..field.dof {
        for e in 0..mesh.n_octants() {
            gw_stencil::patch::patch_interior_to_octant(
                patches.patch(var, e),
                field.block_mut(var, e),
            );
        }
    }
}

/// Fine→coarse interface synchronization: overwrite coarse points that
/// coincide with fine points using the fine (authoritative) values.
pub fn sync_interfaces(mesh: &Mesh, field: &mut Field) {
    for var in 0..field.dof {
        for c in &mesh.syncs {
            let v = field.block(var, c.src_oct as usize)[c.src_idx as usize];
            field.block_mut(var, c.dst_oct as usize)[c.dst_idx as usize] = v;
        }
    }
}

/// Variable-parallel [`sync_interfaces`]: one task per variable, matching
/// the GPU kernel's `grid(NUM_VARS)` launch. The copy list is applied in
/// its serial order *within* each variable — with ≥3 refinement levels a
/// point can be a sync destination for one interface and a sync source
/// for another, so cross-copy order within a variable is preserved, while
/// distinct variables touch disjoint storage.
pub fn sync_interfaces_par(mesh: &Mesh, field: &mut Field, pool: &ThreadPool) {
    use gw_stencil::patch::BLOCK_VOLUME;
    let n_oct = field.n_oct;
    let dof = field.dof;
    let out = UnsafeSlice::new(field.as_mut_slice());
    pool.for_each_chunked(dof, 1, |var| {
        for c in &mesh.syncs {
            // Safety: all accesses of task `var` stay within variable
            // `var`'s block range; tasks are disjoint per variable.
            unsafe {
                let v = out
                    .read((var * n_oct + c.src_oct as usize) * BLOCK_VOLUME + c.src_idx as usize);
                out.write(
                    (var * n_oct + c.dst_oct as usize) * BLOCK_VOLUME + c.dst_idx as usize,
                    v,
                );
            }
        }
    });
}

/// Enumerate the `(dst_idx, src_idx)` point pairs of one
/// physical-boundary padding region `delta`: each padded-patch point of
/// the region and the interior point it copies ([`RowWalk::boundary`]).
/// Every source lies in the patch interior, which no region writes, so
/// regions can be filled in any order.
#[inline]
pub fn for_each_boundary_point(delta: [i8; 3], visit: impl FnMut(usize, usize)) {
    RowWalk::boundary(delta).for_each_point(visit);
}

/// Fill the domain-boundary padding regions of every patch by
/// [`for_each_boundary_point`]'s clamp-copy.
pub fn fill_boundary_padding(mesh: &Mesh, patches: &mut PatchField, dof: usize) {
    for var in 0..dof {
        for &(oct, delta) in &mesh.boundary_regions {
            let patch = patches.patch_mut(var, oct as usize);
            for_each_boundary_point(delta, |dst, src| patch[dst] = patch[src]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_octree::{balance_octree, complete_octree, BalanceMode, Domain, MortonKey};

    fn adaptive_mesh() -> Mesh {
        let c0 = MortonKey::root().children()[0];
        let fine: Vec<MortonKey> = c0.children()[7].children().to_vec();
        let t = complete_octree(fine);
        let t = balance_octree(&t, BalanceMode::Full);
        Mesh::build(Domain::unit(), &t)
    }

    fn uniform_mesh(level: u8) -> Mesh {
        let mut leaves = vec![MortonKey::root()];
        for _ in 0..level {
            leaves = leaves.iter().flat_map(|k| k.children()).collect();
        }
        leaves.sort();
        Mesh::build(Domain::unit(), &leaves)
    }

    /// Fill a field with a polynomial that 6th-order interpolation must
    /// reproduce exactly, then check every written padding point.
    fn poly(p: [f64; 3]) -> f64 {
        1.0 + 2.0 * p[0] - p[1] + 0.5 * p[2] + p[0] * p[1] - p[2] * p[2]
            + p[0] * p[0] * p[2]
            + 0.25 * p[1] * p[1] * p[1]
    }

    fn analytic_field(mesh: &Mesh) -> Field {
        let mut f = Field::zeros(1, mesh.n_octants());
        for oct in 0..mesh.n_octants() {
            let l = PatchLayout::octant();
            let coords: Vec<f64> =
                l.iter().map(|(i, j, k)| poly(mesh.point_coords(oct, i, j, k))).collect();
            f.block_mut(0, oct).copy_from_slice(&coords);
        }
        f
    }

    fn check_patches(mesh: &Mesh, patches: &PatchField, tol: f64) {
        let p = PatchLayout::padded();
        let boundary: std::collections::HashSet<(u32, [i8; 3])> =
            mesh.boundary_regions.iter().copied().collect();
        let mut checked = 0usize;
        for oct in 0..mesh.n_octants() {
            let info = &mesh.octants[oct];
            let patch = patches.patch(0, oct);
            for (i, j, k) in p.iter() {
                // Which region is this point in?
                let reg = |t: usize| -> i8 {
                    if t < PADDING {
                        -1
                    } else if t < PADDING + POINTS_PER_SIDE {
                        0
                    } else {
                        1
                    }
                };
                let delta = [reg(i), reg(j), reg(k)];
                if boundary.contains(&(oct as u32, delta)) {
                    continue; // boundary padding is extrapolated, skip
                }
                let pos = [
                    info.origin[0] + (i as f64 - PADDING as f64) * info.h,
                    info.origin[1] + (j as f64 - PADDING as f64) * info.h,
                    info.origin[2] + (k as f64 - PADDING as f64) * info.h,
                ];
                let expect = poly(pos);
                let got = patch[p.idx(i, j, k)];
                assert!(
                    (got - expect).abs() < tol,
                    "oct {oct} point ({i},{j},{k}) delta {delta:?}: {got} vs {expect}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn uniform_grid_padding_exact() {
        let mesh = uniform_mesh(2);
        let f = analytic_field(&mesh);
        let mut patches = PatchField::zeros(1, mesh.n_octants());
        patches.fill(f64::NAN);
        fill_patches_scatter(&mesh, &f, &mut patches);
        check_patches(&mesh, &patches, 1e-12);
    }

    #[test]
    fn adaptive_grid_padding_exact_on_polynomial() {
        let mesh = adaptive_mesh();
        let f = analytic_field(&mesh);
        let mut patches = PatchField::zeros(1, mesh.n_octants());
        patches.fill(f64::NAN);
        fill_patches_scatter(&mesh, &f, &mut patches);
        check_patches(&mesh, &patches, 1e-9);
    }

    #[test]
    fn no_nan_left_in_interior_regions() {
        // Every non-boundary padding point must be written exactly once.
        let mesh = adaptive_mesh();
        let f = analytic_field(&mesh);
        let mut patches = PatchField::zeros(1, mesh.n_octants());
        patches.fill(f64::NAN);
        fill_patches_scatter(&mesh, &f, &mut patches);
        let p = PatchLayout::padded();
        let boundary: std::collections::HashSet<(u32, [i8; 3])> =
            mesh.boundary_regions.iter().copied().collect();
        for oct in 0..mesh.n_octants() {
            let patch = patches.patch(0, oct);
            for (i, j, k) in p.iter() {
                let reg = |t: usize| -> i8 {
                    if t < PADDING {
                        -1
                    } else if t < PADDING + POINTS_PER_SIDE {
                        0
                    } else {
                        1
                    }
                };
                let delta = [reg(i), reg(j), reg(k)];
                if delta == [0, 0, 0] || boundary.contains(&(oct as u32, delta)) {
                    continue;
                }
                assert!(
                    !patch[p.idx(i, j, k)].is_nan(),
                    "unwritten padding at oct {oct} ({i},{j},{k}) delta {delta:?}"
                );
            }
        }
    }

    #[test]
    fn patch_to_octant_roundtrip() {
        let mesh = uniform_mesh(1);
        let f = analytic_field(&mesh);
        let mut patches = PatchField::zeros(1, mesh.n_octants());
        fill_patches_scatter(&mesh, &f, &mut patches);
        let mut back = Field::zeros(1, mesh.n_octants());
        patches_to_octants(&mesh, &patches, &mut back);
        for oct in 0..mesh.n_octants() {
            for (a, b) in f.block(0, oct).iter().zip(back.block(0, oct).iter()) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn sync_interfaces_copies_fine_to_coarse() {
        let mesh = adaptive_mesh();
        assert!(!mesh.syncs.is_empty());
        let mut f = analytic_field(&mesh);
        // Perturb all coarse octants' data; sync must restore coincident
        // points from fine neighbors.
        let sync_dsts: std::collections::HashSet<u32> =
            mesh.syncs.iter().map(|c| c.dst_oct).collect();
        for &d in &sync_dsts {
            for v in f.block_mut(0, d as usize).iter_mut() {
                *v += 100.0;
            }
        }
        sync_interfaces(&mesh, &mut f);
        for c in &mesh.syncs {
            let fine_v = f.block(0, c.src_oct as usize)[c.src_idx as usize];
            let coarse_v = f.block(0, c.dst_oct as usize)[c.dst_idx as usize];
            assert_eq!(fine_v, coarse_v);
        }
    }

    #[test]
    fn sync_targets_are_unique() {
        let mesh = adaptive_mesh();
        let mut seen = std::collections::HashSet::new();
        for c in &mesh.syncs {
            assert!(seen.insert((c.dst_oct, c.dst_idx)), "duplicate sync target {c:?}");
        }
    }

    #[test]
    fn boundary_padding_filled() {
        let mesh = uniform_mesh(1);
        let f = analytic_field(&mesh);
        let mut patches = PatchField::zeros(1, mesh.n_octants());
        patches.fill(f64::NAN);
        fill_patches_scatter(&mesh, &f, &mut patches);
        fill_boundary_padding(&mesh, &mut patches, 1);
        // Now no NaN anywhere.
        for oct in 0..mesh.n_octants() {
            assert!(patches.patch(0, oct).iter().all(|v| !v.is_nan()));
        }
    }

    /// The parallel interface sync must be bit-identical to the serial
    /// oracle for every thread count — the core determinism claim of the
    /// threading model (DESIGN.md). The octant-to-patch half of this
    /// claim is `halo::tests::halo_gather_matches_serial_scatter_bitwise`.
    #[test]
    fn parallel_kernels_bitwise_match_serial_at_any_thread_count() {
        let mesh = adaptive_mesh();
        let dof = 3;
        let mut f = Field::zeros(dof, mesh.n_octants());
        for var in 0..dof {
            for oct in 0..mesh.n_octants() {
                for (i, v) in f.block_mut(var, oct).iter_mut().enumerate() {
                    *v = ((var * 1009 + oct * 131 + i) as f64).sin();
                }
            }
        }
        let mut sync_ref = f.clone();
        sync_interfaces(&mesh, &mut sync_ref);
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for threads in [1usize, 2, 3, 8] {
            let pool = gw_par::ThreadPool::new(threads);
            let mut sync = f.clone();
            sync_interfaces_par(&mesh, &mut sync, &pool);
            assert_eq!(bits(sync.as_slice()), bits(sync_ref.as_slice()), "{threads} threads");
        }
    }

    #[test]
    fn prolong_box_is_the_bounding_box_of_what_the_op_reads() {
        // The box must cover every index the walk visits (or the boxed
        // prolongation would feed stale values) and be tight (or it
        // would waste work).
        let mesh = adaptive_mesh();
        let mut n_prolong = 0;
        for op in mesh.scatter.iter().filter(|op| op.kind == ScatterKind::Prolong) {
            let mut lo = [usize::MAX; 3];
            let mut hi = [0usize; 3];
            for_each_scatter_point(op, |_, src_idx| {
                let j = [
                    src_idx % FINE_SIDE,
                    src_idx / FINE_SIDE % FINE_SIDE,
                    src_idx / FINE_SIDE.pow(2),
                ];
                for a in 0..3 {
                    lo[a] = lo[a].min(j[a]);
                    hi[a] = hi[a].max(j[a] + 1);
                }
            });
            assert_eq!(prolong_box(op), FineBox { lo, hi }, "op {op:?}");
            n_prolong += 1;
        }
        assert!(n_prolong > 0);
        for e in 0..mesh.n_octants() {
            let ops = mesh.scatter_of(e);
            match prolong_union(ops) {
                None => assert!(ops.iter().all(|op| op.kind != ScatterKind::Prolong)),
                Some(u) => {
                    assert!(u.volume() < FineBox::FULL.volume(), "octant {e} prolongs everything");
                    for op in ops.iter().filter(|op| op.kind == ScatterKind::Prolong) {
                        assert_eq!(prolong_box(op).hull(u), u);
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_flops_counted_for_adaptive_grids_only() {
        let u = uniform_mesh(2);
        let fu = analytic_field(&u);
        let mut pu = PatchField::zeros(1, u.n_octants());
        assert_eq!(fill_patches_scatter(&u, &fu, &mut pu), 0);
        let a = adaptive_mesh();
        let fa = analytic_field(&a);
        let mut pa = PatchField::zeros(1, a.n_octants());
        assert!(fill_patches_scatter(&a, &fa, &mut pa) > 0);
    }
}
