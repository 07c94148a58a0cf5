//! Loop-over-octants octant-to-patch (Algorithm 2), patch-to-octant, and
//! interface synchronization — the CPU reference implementations.
//!
//! The GPU (simulated-device) versions in `gw-core` run the same index
//! arithmetic inside kernel blocks; these host versions are the
//! correctness oracle and the single-core baseline of Fig. 7.

use crate::field::{Field, PatchField};
use crate::grid::{Mesh, ScatterKind, ScatterOp};
use gw_par::{tree_reduce, ThreadPool, UnsafeSlice};
use gw_stencil::interp::{FineBox, ProlongWorkspace, Prolongation, FINE_SIDE};
use gw_stencil::patch::{PatchLayout, PADDING, PATCH_VOLUME, POINTS_PER_SIDE};
use std::cell::RefCell;

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

/// Enumerate the `(dst_idx, src_idx)` point pairs of one scatter op.
/// `dst_idx` indexes the destination's padded patch; `src_idx` indexes the
/// source's `r^3` block for `Same`/`Inject` and the prolonged `(2r−1)^3`
/// block for `Prolong`. This single index walk backs both the execution
/// kernel ([`apply_scatter_op`]) and the build-time write-partition check
/// in `grid.rs`, so what is validated is exactly what is executed.
#[inline]
pub fn for_each_scatter_point(op: &ScatterOp, mut visit: impl FnMut(usize, usize)) {
    let p = PatchLayout::padded();
    let o = PatchLayout::octant();
    match op.kind {
        ScatterKind::Same => {
            // i_src = (p − 3) + 6δ ... derived from origins: src at
            // direction δ from dst ⇒ src_origin = dst_origin + 6δh.
            for pz in region_range(op.delta[2]) {
                let ez = pz as i32 - 3 - 6 * op.delta[2] as i32;
                debug_assert!((0..7).contains(&ez));
                for py in region_range(op.delta[1]) {
                    let ey = py as i32 - 3 - 6 * op.delta[1] as i32;
                    for px in region_range(op.delta[0]) {
                        let ex = px as i32 - 3 - 6 * op.delta[0] as i32;
                        visit(p.idx(px, py, pz), o.idx(ex as usize, ey as usize, ez as usize));
                    }
                }
            }
        }
        ScatterKind::Inject => {
            // i_src = 2(p − 3) − off; the i_src == 6 boundary plane is
            // written only by the op that owns it (grid-construction-time
            // ownership, see `ScatterOp::inc6`).
            let valid = |i: i32, ax: usize| i >= 0 && (i < 6 || (i == 6 && op.inc6[ax]));
            for pz in region_range(op.delta[2]) {
                let ez = 2 * (pz as i32 - 3) - op.off[2];
                if !valid(ez, 2) {
                    continue;
                }
                for py in region_range(op.delta[1]) {
                    let ey = 2 * (py as i32 - 3) - op.off[1];
                    if !valid(ey, 1) {
                        continue;
                    }
                    for px in region_range(op.delta[0]) {
                        let ex = 2 * (px as i32 - 3) - op.off[0];
                        if !valid(ex, 0) {
                            continue;
                        }
                        visit(p.idx(px, py, pz), o.idx(ex as usize, ey as usize, ez as usize));
                    }
                }
            }
        }
        ScatterKind::Prolong => {
            // j = off + (p − 3) into the prolonged (2r−1)^3 block.
            let f = FINE_SIDE as i32;
            for pz in region_range(op.delta[2]) {
                let jz = op.off[2] + pz as i32 - 3;
                if !(0..f).contains(&jz) {
                    continue;
                }
                for py in region_range(op.delta[1]) {
                    let jy = op.off[1] + py as i32 - 3;
                    if !(0..f).contains(&jy) {
                        continue;
                    }
                    for px in region_range(op.delta[0]) {
                        let jx = op.off[0] + px as i32 - 3;
                        if !(0..f).contains(&jx) {
                            continue;
                        }
                        visit(p.idx(px, py, pz), ((jz * f + jy) * f + jx) as usize);
                    }
                }
            }
        }
    }
}

/// The fine sub-box of the source's prolonged `(2r−1)^3` block that a
/// `Prolong` op reads: per axis, the image `j = off + (p − 3)` of the
/// op's padding range clipped to `0..2r−1` — exactly the indices
/// [`for_each_scatter_point`] visits, so prolonging only this box
/// ([`Prolongation::prolong_box_ws`]) feeds the op bit-identical values.
pub fn prolong_box(op: &ScatterOp) -> FineBox {
    debug_assert_eq!(op.kind, ScatterKind::Prolong);
    let f = FINE_SIDE as i32;
    let clip = |a: usize, p: usize| (op.off[a] + p as i32 - PADDING as i32).clamp(0, f) as usize;
    let ranges = [0, 1, 2].map(|a| region_range(op.delta[a]));
    let lo = [0, 1, 2].map(|a| clip(a, ranges[a].start));
    let hi = [0, 1, 2].map(|a| clip(a, ranges[a].end));
    FineBox { lo, hi }
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

/// Execute one scatter op for one variable. `src_block` is the source
/// octant's `r^3` data; `fine13` must hold the source's prolonged
/// `(2r−1)^3` block when `kind == Prolong` (pass anything otherwise).
/// Returns (points written, flops).
pub fn apply_scatter_op(
    op: &ScatterOp,
    src_block: &[f64],
    fine13: &[f64],
    dst_patch: &mut [f64],
) -> (u64, u64) {
    let src = if op.kind == ScatterKind::Prolong { fine13 } else { src_block };
    let mut written = 0u64;
    for_each_scatter_point(op, |dst_idx, src_idx| {
        dst_patch[dst_idx] = src[src_idx];
        written += 1;
    });
    (written, 0)
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

/// Octant-parallel [`fill_patches_scatter`]: one task per source octant,
/// mirroring the paper's one-GPU-block-per-octant kernel grid. A source
/// prolongs only its [`prolong_union`] box — the rest of the fine block
/// is never read — so the returned flops are the union-box flops. Race
/// freedom is structural — each task writes its own patch interior plus
/// the padding targets of its outgoing ops, and `Mesh::build` asserts
/// that those target sets are disjoint across sources (the write
/// partition). Bit-identical to the serial version at any thread count:
/// every patch point has exactly one writer and its value depends only on
/// the source block, never on execution order.
pub fn fill_patches_scatter_par(
    mesh: &Mesh,
    field: &Field,
    patches: &mut PatchField,
    pool: &ThreadPool,
) -> u64 {
    thread_local! {
        static SCRATCH: RefCell<Option<(ProlongWorkspace, Vec<f64>)>> =
            const { RefCell::new(None) };
    }
    let prolong = Prolongation::new();
    let dof = field.dof;
    let n_oct = patches.n_oct;
    let n = mesh.n_octants();
    let out = UnsafeSlice::new(patches.as_mut_slice());
    let flops: Vec<u64> = pool.map(n, |e| {
        SCRATCH.with(|cell| {
            let mut guard = cell.borrow_mut();
            let (ws, fine13) = guard.get_or_insert_with(|| {
                (ProlongWorkspace::new(), vec![0.0f64; FINE_SIDE * FINE_SIDE * FINE_SIDE])
            });
            let o = PatchLayout::octant();
            let p = PatchLayout::padded();
            let ops = mesh.scatter_of(e);
            let union = prolong_union(ops);
            let mut fl = 0u64;
            for var in 0..dof {
                let src = field.block(var, e);
                // Own interior: this task is the sole writer of patch
                // (var, e)'s interior region.
                let own = (var * n_oct + e) * PATCH_VOLUME;
                for (i, j, k) in o.iter() {
                    // Safety: single writer per point (see fn docs).
                    unsafe {
                        out.write(
                            own + p.idx(i + PADDING, j + PADDING, k + PADDING),
                            src[o.idx(i, j, k)],
                        )
                    };
                }
                if let Some(b) = union {
                    fl += prolong.prolong_box_ws(src, fine13, ws, b.lo, b.hi);
                }
                for op in ops {
                    let base = (var * n_oct + op.dst as usize) * PATCH_VOLUME;
                    let sarr: &[f64] = if op.kind == ScatterKind::Prolong { fine13 } else { src };
                    for_each_scatter_point(op, |dst_idx, src_idx| {
                        // Safety: the write partition makes (base+dst_idx)
                        // unique to this source octant.
                        unsafe { out.write(base + dst_idx, sarr[src_idx]) };
                    });
                }
            }
            fl
        })
    });
    tree_reduce(&flops, 0u64, |a, b| a + b)
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
/// the region and the interior point nearest to it, which it copies
/// (constant extrapolation; the physical boundary is in the wave zone
/// where fields are smooth and the Sommerfeld RHS dominates). Every
/// source lies in the patch interior, which no region writes, so regions
/// can be filled in any order. Like [`for_each_scatter_point`], this one
/// walk backs every boundary-fill kernel.
#[inline]
pub fn for_each_boundary_point(delta: [i8; 3], mut visit: impl FnMut(usize, usize)) {
    let p = PatchLayout::padded();
    let clamp = |t: usize| t.clamp(PADDING, PADDING + POINTS_PER_SIDE - 1);
    for pz in region_range(delta[2]) {
        for py in region_range(delta[1]) {
            for px in region_range(delta[0]) {
                visit(p.idx(px, py, pz), p.idx(clamp(px), clamp(py), clamp(pz)));
            }
        }
    }
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

/// Region-parallel [`fill_boundary_padding`]: one task per boundary
/// `(octant, delta)` region. Regions of the same patch are disjoint, and
/// the clamped read source is always in the patch interior, which this
/// kernel never writes.
pub fn fill_boundary_padding_par(
    mesh: &Mesh,
    patches: &mut PatchField,
    dof: usize,
    pool: &ThreadPool,
) {
    let n_oct = patches.n_oct;
    let regions = &mesh.boundary_regions;
    let out = UnsafeSlice::new(patches.as_mut_slice());
    pool.for_each(regions.len(), |ri| {
        let (oct, delta) = regions[ri];
        for var in 0..dof {
            let base = (var * n_oct + oct as usize) * PATCH_VOLUME;
            for_each_boundary_point(delta, |dst, src| {
                // Safety: reads hit the (never-written) interior; each
                // padding point belongs to exactly one region.
                unsafe {
                    let v = out.read(base + src);
                    out.write(base + dst, v);
                }
            });
        }
    });
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

    /// The parallel kernels must be bit-identical to the serial oracles
    /// for every thread count — the core determinism claim of the
    /// threading model (DESIGN.md).
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
        // Serial reference pipeline.
        let mut p_ref = PatchField::zeros(dof, mesh.n_octants());
        p_ref.fill(f64::NAN);
        let flops_ref = fill_patches_scatter(&mesh, &f, &mut p_ref);
        fill_boundary_padding(&mesh, &mut p_ref, dof);
        let mut sync_ref = f.clone();
        sync_interfaces(&mesh, &mut sync_ref);
        // The parallel kernel prolongs only each source's union box: its
        // flops are exactly those boxes' pass outputs (2r flops each),
        // strictly fewer than the serial full-block prolongations.
        let r = POINTS_PER_SIDE as u64;
        let flops_union: u64 = (0..mesh.n_octants())
            .filter_map(|e| prolong_union(mesh.scatter_of(e)))
            .map(|b| {
                let [bx, by, bz] = [0, 1, 2].map(|a| (b.hi[a] - b.lo[a]) as u64);
                dof as u64 * 2 * r * (bx * r * r + bx * by * r + bx * by * bz)
            })
            .sum();
        assert!(
            0 < flops_union && flops_union < flops_ref,
            "union-box flops {flops_union} vs full {flops_ref}"
        );
        for threads in [1usize, 2, 3, 8] {
            let pool = gw_par::ThreadPool::new(threads);
            let mut p = PatchField::zeros(dof, mesh.n_octants());
            p.fill(f64::NAN);
            let flops = fill_patches_scatter_par(&mesh, &f, &mut p, &pool);
            assert_eq!(flops, flops_union, "flop count differs at {threads} threads");
            fill_boundary_padding_par(&mesh, &mut p, dof, &pool);
            let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(p.as_slice()),
                bits(p_ref.as_slice()),
                "patches differ at {threads} threads"
            );
            let mut sync = f.clone();
            sync_interfaces_par(&mesh, &mut sync, &pool);
            assert_eq!(bits(sync.as_slice()), bits(sync_ref.as_slice()));
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
