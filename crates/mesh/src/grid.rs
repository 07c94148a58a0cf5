//! The computational mesh: octant geometry plus precomputed kernel maps.

use gw_octree::{Domain, MortonKey, NeighborDirection, NeighborLevel, NeighborQuery};
use gw_stencil::patch::{PATCH_VOLUME, POINTS_PER_SIDE};

/// Structural problems with the leaf set handed to [`Mesh::try_build`].
///
/// These are *input* errors (a caller handed us something that is not a
/// sorted, complete, 2:1-balanced linear octree), distinct from internal
/// invariant violations, which stay `panic!`s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MeshError {
    /// The leaf set is empty — there is no domain to mesh.
    EmptyLeaves,
    /// The leaf vector is not strictly sorted (or contains duplicates),
    /// so neighbor lookups via binary search are meaningless.
    UnsortedLeaves,
    /// The leaves do not tile the domain (gaps or overlaps): not a
    /// complete linear octree.
    IncompleteTree,
    /// The tree violates 2:1 balance, which the scatter-map case analysis
    /// (Same/Inject/Prolong) relies on.
    UnbalancedTree,
    /// A neighbor reported by the octree query is not present in the leaf
    /// set (defensive backstop; the up-front completeness and balance
    /// checks should make this unreachable).
    MissingNeighbor { of: MortonKey, missing: MortonKey },
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::EmptyLeaves => write!(f, "empty leaf set"),
            MeshError::UnsortedLeaves => {
                write!(f, "leaf set is not strictly sorted (balanced linear octree required)")
            }
            MeshError::IncompleteTree => {
                write!(f, "leaf set does not tile the domain (not a complete linear octree)")
            }
            MeshError::UnbalancedTree => {
                write!(f, "leaf set violates 2:1 balance (full face/edge/corner balance required)")
            }
            MeshError::MissingNeighbor { of, missing } => write!(
                f,
                "neighbor {missing:?} of leaf {of:?} is not in the leaf set \
                 (tree not complete / 2:1 balanced)"
            ),
        }
    }
}

impl std::error::Error for MeshError {}

/// How a scatter source relates to its destination patch (the three cases
/// of Algorithm 2, guaranteed exhaustive by the 2:1 balance).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScatterKind {
    /// Source and destination at the same level: direct copy.
    Same,
    /// Source finer than destination: injection (copy of coincident
    /// points).
    Inject,
    /// Source coarser than destination: tensor-product interpolation of
    /// the source block, then copy of covered points.
    Prolong,
}

/// One entry of the `O2P` map: octant `src` contributes to the padding
/// region `delta` of octant `dst`'s patch.
///
/// `off` is the per-axis origin offset `(dst_origin − src_origin)` measured
/// in the *working spacing* of the operation: the source spacing for
/// `Same`/`Inject`, the destination spacing for `Prolong`. All index
/// arithmetic in the scatter kernels derives from `delta` and `off` alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScatterOp {
    pub src: u32,
    pub dst: u32,
    /// Direction of the padding region in the destination patch
    /// (= direction from dst towards src), components in `{-1,0,1}`.
    pub delta: [i8; 3],
    pub kind: ScatterKind,
    /// See type-level docs.
    pub off: [i32; 3],
    /// For `Inject`: whether this source owns the `i_src == 6` plane along
    /// each axis (true when no sibling source sits at `off + 6`, so the
    /// boundary point has a unique writer). Unused by other kinds.
    pub inc6: [bool; 3],
}

/// A fine→coarse interface synchronization copy: one coincident point,
/// fully resolved at grid construction and deduplicated (a coarse corner
/// point touched by several fine octants gets exactly one writer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncCopy {
    pub src_oct: u32,
    pub src_idx: u32,
    pub dst_oct: u32,
    pub dst_idx: u32,
}

/// Geometry of one octant.
#[derive(Clone, Copy, Debug)]
pub struct OctInfo {
    pub key: MortonKey,
    pub level: u8,
    /// Physical origin (anchor corner).
    pub origin: [f64; 3],
    /// Grid spacing `h = size / (r − 1)`.
    pub h: f64,
}

/// The computational mesh: sorted balanced leaves plus the maps driving
/// the padding, RHS and synchronization kernels.
pub struct Mesh {
    pub domain: Domain,
    pub octants: Vec<OctInfo>,
    /// Flattened `O2P` scatter map grouped by source octant.
    pub scatter: Vec<ScatterOp>,
    /// `scatter_offsets[e]..scatter_offsets[e+1]` = ops with `src == e`.
    pub scatter_offsets: Vec<usize>,
    /// Padding regions on the physical domain boundary: `(oct, delta)`,
    /// grouped by octant in ascending order.
    pub boundary_regions: Vec<(u32, [i8; 3])>,
    /// `boundary_offsets[b]..boundary_offsets[b+1]` = regions of octant `b`.
    pub boundary_offsets: Vec<usize>,
    /// Fine→coarse point synchronization copies (deduplicated).
    pub syncs: Vec<SyncCopy>,
    /// For the gather (loop-over-patches) variant: per destination octant,
    /// the list of incoming ops (same content as `scatter`, regrouped).
    pub gather_offsets: Vec<usize>,
    pub gather: Vec<ScatterOp>,
}

impl Mesh {
    /// Build a mesh from a 2:1-balanced complete linear octree.
    ///
    /// Panics on malformed input; use [`Mesh::try_build`] to get a typed
    /// [`MeshError`] instead.
    pub fn build(domain: Domain, leaves: &[MortonKey]) -> Mesh {
        Self::try_build(domain, leaves).unwrap_or_else(|e| panic!("Mesh::build: {e}"))
    }

    /// Fallible [`Mesh::build`]: rejects empty, unsorted, and
    /// incomplete/unbalanced leaf sets with a typed error instead of
    /// panicking deep inside neighbor resolution.
    pub fn try_build(domain: Domain, leaves: &[MortonKey]) -> Result<Mesh, MeshError> {
        if leaves.is_empty() {
            return Err(MeshError::EmptyLeaves);
        }
        if leaves.windows(2).any(|w| w[0] >= w[1]) {
            return Err(MeshError::UnsortedLeaves);
        }
        if !gw_octree::is_complete_linear(leaves) {
            return Err(MeshError::IncompleteTree);
        }
        if !gw_octree::is_balanced(leaves, gw_octree::BalanceMode::Full) {
            return Err(MeshError::UnbalancedTree);
        }
        let n = leaves.len();
        let octants: Vec<OctInfo> = leaves
            .iter()
            .map(|k| OctInfo {
                key: *k,
                level: k.level(),
                origin: domain.octant_origin(k),
                h: domain.grid_spacing(k.level(), POINTS_PER_SIDE),
            })
            .collect();
        let index_of = |of: &MortonKey, k: &MortonKey| -> Result<u32, MeshError> {
            leaves
                .binary_search(k)
                .map(|i| i as u32)
                .map_err(|_| MeshError::MissingNeighbor { of: *of, missing: *k })
        };
        let q = NeighborQuery::new(leaves);

        let mut per_src: Vec<Vec<ScatterOp>> = vec![Vec::new(); n];
        let mut boundary_regions = Vec::new();
        // (dst_oct, dst_idx) -> (src_oct, src_idx); later writers replace
        // earlier ones (all writers hold the same value up to round-off;
        // dedup makes the parallel sync kernel race-free).
        let mut sync_map: std::collections::HashMap<(u32, u32), (u32, u32)> =
            std::collections::HashMap::new();
        let r = POINTS_PER_SIDE;
        let layout = |i: i32, j: i32, k: i32| -> u32 {
            ((k as usize * r + j as usize) * r + i as usize) as u32
        };

        // Per-axis offset (a_origin − b_origin) in units of `h`, from
        // physical coordinates (octant lattice sides are powers of two and
        // not divisible by the 6 point intervals, so lattice arithmetic
        // would be fractional).
        let off_in = |a: &OctInfo, b: &OctInfo, h: f64| -> [i32; 3] {
            let mut o = [0i32; 3];
            for (ax, oo) in o.iter_mut().enumerate() {
                *oo = ((a.origin[ax] - b.origin[ax]) / h).round() as i32;
            }
            o
        };

        for (bi, b) in leaves.iter().enumerate() {
            for dir in NeighborDirection::all() {
                let delta = dir.0;
                match q.neighbor(b, dir) {
                    NeighborLevel::Boundary => {
                        boundary_regions.push((bi as u32, delta));
                    }
                    NeighborLevel::Same(e) => {
                        let ei = index_of(b, &e)?;
                        per_src[ei as usize].push(ScatterOp {
                            src: ei,
                            dst: bi as u32,
                            delta,
                            kind: ScatterKind::Same,
                            // Same-level: index math uses only delta; off
                            // recorded for completeness ((dst−src) in src
                            // point units: −6δ).
                            off: [-6 * delta[0] as i32, -6 * delta[1] as i32, -6 * delta[2] as i32],
                            inc6: [true; 3],
                        });
                    }
                    NeighborLevel::Coarser(e) => {
                        // Source coarser: offset (dst − src) in dst (fine)
                        // spacing units.
                        let ei = index_of(b, &e)?;
                        let h_b = octants[bi].h;
                        let off = off_in(&octants[bi], &octants[ei as usize], h_b);
                        per_src[ei as usize].push(ScatterOp {
                            src: ei,
                            dst: bi as u32,
                            delta,
                            kind: ScatterKind::Prolong,
                            off,
                            inc6: [true; 3],
                        });
                    }
                    NeighborLevel::Finer(fs) => {
                        // All sibling offsets for this (dst, delta) group,
                        // to resolve boundary-plane ownership.
                        let mut offs: Vec<[i32; 3]> = Vec::with_capacity(fs.len());
                        for e in fs.iter() {
                            let ei = index_of(b, e)? as usize;
                            offs.push(off_in(&octants[ei], &octants[bi], octants[ei].h));
                        }
                        for (e, off) in fs.iter().zip(offs.iter()) {
                            let ei = index_of(b, e)?;
                            let off = *off;
                            // Own the i_src == 6 plane along axis a iff no
                            // sibling source sits at off[a] + 6 (with the
                            // other axes equal).
                            let mut inc6 = [true; 3];
                            for a in 0..3 {
                                let mut shifted = off;
                                shifted[a] += 6;
                                if offs.contains(&shifted) {
                                    inc6[a] = false;
                                }
                            }
                            per_src[ei as usize].push(ScatterOp {
                                src: ei,
                                dst: bi as u32,
                                delta,
                                kind: ScatterKind::Inject,
                                off,
                                inc6,
                            });
                            // Interface sync: fine src overwrites the
                            // coincident own points of the coarse dst.
                            // Coarse point m coincides with fine index
                            // i_e = 2m − off when 0 ≤ i_e ≤ 6.
                            for mz in 0..r as i32 {
                                let ez = 2 * mz - off[2];
                                if !(0..=6).contains(&ez) {
                                    continue;
                                }
                                for my in 0..r as i32 {
                                    let ey = 2 * my - off[1];
                                    if !(0..=6).contains(&ey) {
                                        continue;
                                    }
                                    for mx in 0..r as i32 {
                                        let ex = 2 * mx - off[0];
                                        if !(0..=6).contains(&ex) {
                                            continue;
                                        }
                                        sync_map.insert(
                                            (bi as u32, layout(mx, my, mz)),
                                            (ei, layout(ex, ey, ez)),
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        let mut syncs: Vec<SyncCopy> = sync_map
            .into_iter()
            .map(|((dst_oct, dst_idx), (src_oct, src_idx))| SyncCopy {
                src_oct,
                src_idx,
                dst_oct,
                dst_idx,
            })
            .collect();
        syncs.sort_by_key(|c| (c.dst_oct, c.dst_idx));

        // Flatten by source.
        let mut scatter = Vec::with_capacity(per_src.iter().map(|v| v.len()).sum());
        let mut scatter_offsets = Vec::with_capacity(n + 1);
        scatter_offsets.push(0);
        for ops in &per_src {
            scatter.extend_from_slice(ops);
            scatter_offsets.push(scatter.len());
        }
        // Regroup by destination for the gather variant.
        let mut per_dst: Vec<Vec<ScatterOp>> = vec![Vec::new(); n];
        for op in &scatter {
            per_dst[op.dst as usize].push(*op);
        }
        let mut gather = Vec::with_capacity(scatter.len());
        let mut gather_offsets = Vec::with_capacity(n + 1);
        gather_offsets.push(0);
        for ops in &per_dst {
            gather.extend_from_slice(ops);
            gather_offsets.push(gather.len());
        }

        // Regions were pushed octant by octant, so counts give offsets.
        let mut boundary_offsets = vec![0usize; n + 1];
        for &(b, _) in &boundary_regions {
            boundary_offsets[b as usize + 1] += 1;
        }
        for b in 0..n {
            boundary_offsets[b + 1] += boundary_offsets[b];
        }
        debug_assert!(boundary_regions.windows(2).all(|w| w[0].0 <= w[1].0));

        let mesh = Mesh {
            domain,
            octants,
            scatter,
            scatter_offsets,
            boundary_regions,
            boundary_offsets,
            syncs,
            gather_offsets,
            gather,
        };
        // Internal invariant, asserted in release builds too: it is what
        // makes the block-per-octant scatter race-free and the per-octant
        // gather order-free (see DESIGN.md).
        if let Err(msg) = check_write_partition(n, &mesh.gather, &mesh.gather_offsets) {
            panic!("write-partition invariant violated: {msg}");
        }
        Ok(mesh)
    }

    pub fn n_octants(&self) -> usize {
        self.octants.len()
    }

    /// Total grid points (with our duplicated-boundary storage).
    pub fn n_points(&self) -> usize {
        self.n_octants() * POINTS_PER_SIDE.pow(3)
    }

    /// Unknown count for a `dof`-variable system (the paper's "unknowns").
    pub fn unknowns(&self, dof: usize) -> usize {
        self.n_points() * dof
    }

    /// Physical coordinates of a local grid point.
    #[inline]
    pub fn point_coords(&self, oct: usize, i: usize, j: usize, k: usize) -> [f64; 3] {
        let info = &self.octants[oct];
        [
            info.origin[0] + i as f64 * info.h,
            info.origin[1] + j as f64 * info.h,
            info.origin[2] + k as f64 * info.h,
        ]
    }

    /// Scatter ops originating from octant `e`.
    pub fn scatter_of(&self, e: usize) -> &[ScatterOp] {
        &self.scatter[self.scatter_offsets[e]..self.scatter_offsets[e + 1]]
    }

    /// Scatter ops targeting octant `b` (gather view).
    pub fn gather_of(&self, b: usize) -> &[ScatterOp] {
        &self.gather[self.gather_offsets[b]..self.gather_offsets[b + 1]]
    }

    /// Physical-boundary padding regions of octant `b`'s patch.
    pub fn boundary_of(&self, b: usize) -> &[(u32, [i8; 3])] {
        &self.boundary_regions[self.boundary_offsets[b]..self.boundary_offsets[b + 1]]
    }

    /// A simple adaptivity measure: fraction of scatter ops that need
    /// interpolation or injection (0 on a uniform grid). Higher values ↔
    /// the `m_1`-like highly adaptive grids of Table III.
    pub fn adaptivity_ratio(&self) -> f64 {
        if self.scatter.is_empty() {
            return 0.0;
        }
        let nonuniform = self.scatter.iter().filter(|o| o.kind != ScatterKind::Same).count();
        nonuniform as f64 / self.scatter.len() as f64
    }

    /// The octant (index) containing a physical point, if any.
    pub fn locate(&self, p: [f64; 3]) -> Option<usize> {
        // Binary search on the deepest key containing p.
        let probe = self.domain.locate(p, gw_octree::MAX_LEVEL);
        let keys: Vec<MortonKey> = self.octants.iter().map(|o| o.key).collect();
        let idx = match keys.binary_search(&probe) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        keys[idx].contains(&probe).then_some(idx)
    }
}

/// Verify the scatter write partition: within each destination patch,
/// every padding point has **at most one** writer among the incoming ops.
/// Interiors are written only by the owning octant, and the padding
/// targets of distinct sources must be disjoint. Two kernels rely on it:
/// the gpu-sim octant-to-patch kernel runs one block per source octant
/// with no write synchronization, and
/// [`crate::halo::ProlongedHalo::gather`] may apply an octant's incoming
/// ops in any order. Enforced as a release-mode assertion at mesh
/// construction.
fn check_write_partition(
    n_oct: usize,
    gather: &[ScatterOp],
    gather_offsets: &[usize],
) -> Result<(), String> {
    // Epoch-marked writer table, reused across destination octants.
    let mut writer: Vec<u32> = vec![u32::MAX; PATCH_VOLUME];
    let mut epoch_src: Vec<u32> = vec![u32::MAX; PATCH_VOLUME];
    for b in 0..n_oct {
        let epoch = b as u32;
        for op in &gather[gather_offsets[b]..gather_offsets[b + 1]] {
            let mut clash: Option<(usize, u32)> = None;
            crate::scatter::for_each_scatter_point(op, |dst_idx, _src_idx| {
                if writer[dst_idx] == epoch && epoch_src[dst_idx] != op.src {
                    clash.get_or_insert((dst_idx, epoch_src[dst_idx]));
                }
                writer[dst_idx] = epoch;
                epoch_src[dst_idx] = op.src;
            });
            if let Some((idx, prev)) = clash {
                return Err(format!(
                    "patch {b} point {idx} written by both octant {prev} and octant {} \
                     ({:?} from delta {:?})",
                    op.src, op.kind, op.delta
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_octree::{balance_octree, complete_octree, BalanceMode, MortonKey};

    fn uniform_mesh(level: u8) -> Mesh {
        let mut leaves = vec![MortonKey::root()];
        for _ in 0..level {
            leaves = leaves.iter().flat_map(|k| k.children()).collect();
        }
        leaves.sort();
        Mesh::build(Domain::unit(), &leaves)
    }

    fn adaptive_mesh() -> Mesh {
        let c0 = MortonKey::root().children()[0];
        let fine: Vec<MortonKey> = c0.children()[7].children().to_vec();
        let t = complete_octree(fine);
        let t = balance_octree(&t, BalanceMode::Full);
        Mesh::build(Domain::unit(), &t)
    }

    #[test]
    fn uniform_mesh_all_same_scatter() {
        let m = uniform_mesh(2);
        assert_eq!(m.n_octants(), 64);
        assert!(m.scatter.iter().all(|o| o.kind == ScatterKind::Same));
        assert_eq!(m.adaptivity_ratio(), 0.0);
        // Interior octant has 26 incoming ops; corner octant has 7.
        let counts: Vec<usize> = (0..64).map(|b| m.gather_of(b).len()).collect();
        assert!(counts.contains(&26));
        assert!(counts.contains(&7));
    }

    #[test]
    fn boundary_regions_present_on_domain_faces() {
        let m = uniform_mesh(1);
        // 8 octants, each with 26 directions; every octant is at a corner
        // of the domain: 26−7 = 19 boundary regions each.
        assert_eq!(m.boundary_regions.len(), 8 * 19);
        for b in 0..m.n_octants() {
            let of_b = m.boundary_of(b);
            assert_eq!(of_b.len(), 19);
            assert!(of_b.iter().all(|&(oct, _)| oct as usize == b));
        }
    }

    #[test]
    fn adaptive_mesh_has_all_three_kinds() {
        let m = adaptive_mesh();
        let kinds: std::collections::HashSet<ScatterKind> =
            m.scatter.iter().map(|o| o.kind).collect();
        assert!(kinds.contains(&ScatterKind::Same));
        assert!(kinds.contains(&ScatterKind::Inject));
        assert!(kinds.contains(&ScatterKind::Prolong));
        assert!(m.adaptivity_ratio() > 0.0);
        assert!(!m.syncs.is_empty());
    }

    #[test]
    fn scatter_and_gather_hold_identical_ops() {
        let m = adaptive_mesh();
        let mut a = m.scatter.clone();
        let mut b = m.gather.clone();
        let key = |o: &ScatterOp| (o.src, o.dst, o.delta, o.off);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn every_nonboundary_region_has_a_source() {
        // For every octant and direction: either a boundary region or at
        // least one incoming scatter op with that delta.
        let m = adaptive_mesh();
        let boundary: std::collections::HashSet<(u32, [i8; 3])> =
            m.boundary_regions.iter().copied().collect();
        for b in 0..m.n_octants() {
            for dir in NeighborDirection::all() {
                if boundary.contains(&(b as u32, dir.0)) {
                    continue;
                }
                let found = m.gather_of(b).iter().any(|o| o.delta == dir.0);
                assert!(found, "octant {b} dir {:?} has no source", dir.0);
            }
        }
    }

    #[test]
    fn point_coords_and_locate_agree() {
        let m = adaptive_mesh();
        for oct in [0usize, m.n_octants() / 2, m.n_octants() - 1] {
            let p = m.point_coords(oct, 3, 3, 3); // octant center
            assert_eq!(m.locate(p), Some(oct));
        }
    }

    #[test]
    fn spacing_halves_per_level() {
        let m = adaptive_mesh();
        let by_level: std::collections::HashMap<u8, f64> =
            m.octants.iter().map(|o| (o.level, o.h)).collect();
        let levels: Vec<u8> = {
            let mut v: Vec<u8> = by_level.keys().copied().collect();
            v.sort();
            v
        };
        for w in levels.windows(2) {
            let ratio = by_level[&w[0]] / by_level[&w[1]];
            assert!((ratio - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn unknowns_counting() {
        let m = uniform_mesh(1);
        assert_eq!(m.n_points(), 8 * 343);
        assert_eq!(m.unknowns(24), 8 * 343 * 24);
    }

    #[test]
    fn try_build_rejects_empty_leaf_set() {
        assert_eq!(Mesh::try_build(Domain::unit(), &[]).err(), Some(MeshError::EmptyLeaves));
    }

    #[test]
    fn try_build_rejects_unsorted_and_duplicate_leaves() {
        let mut leaves: Vec<MortonKey> = MortonKey::root().children().to_vec();
        leaves.swap(0, 1);
        assert_eq!(Mesh::try_build(Domain::unit(), &leaves).err(), Some(MeshError::UnsortedLeaves));
        let dup = vec![MortonKey::root().children()[0]; 2];
        assert_eq!(Mesh::try_build(Domain::unit(), &dup).err(), Some(MeshError::UnsortedLeaves));
    }

    #[test]
    fn try_build_rejects_incomplete_tree() {
        // Drop one sibling from a uniform level-1 tree: the domain is no
        // longer tiled, and we get a typed error instead of a panic.
        let mut leaves: Vec<MortonKey> = MortonKey::root().children().to_vec();
        leaves.remove(3);
        assert_eq!(Mesh::try_build(Domain::unit(), &leaves).err(), Some(MeshError::IncompleteTree));
    }

    #[test]
    fn try_build_rejects_unbalanced_tree() {
        // Refine the interior corner of one level-1 octant down to level 3
        // without rebalancing: level-3 leaves touch level-1 leaves.
        let c = MortonKey::root().children();
        let c0 = c[0].children();
        let mut leaves: Vec<MortonKey> = c0[..7].to_vec();
        leaves.extend(c0[7].children());
        leaves.extend_from_slice(&c[1..]);
        leaves.sort();
        assert_eq!(Mesh::try_build(Domain::unit(), &leaves).err(), Some(MeshError::UnbalancedTree));
    }

    #[test]
    fn single_leaf_mesh_builds() {
        // Root-only domain: all 26 directions are boundary, no scatter.
        let m = Mesh::build(Domain::unit(), &[MortonKey::root()]);
        assert_eq!(m.n_octants(), 1);
        assert!(m.scatter.is_empty());
        assert_eq!(m.boundary_regions.len(), 26);
        assert!(m.syncs.is_empty());
    }

    #[test]
    fn write_partition_holds_on_adaptive_mesh() {
        let m = adaptive_mesh();
        assert!(check_write_partition(m.n_octants(), &m.gather, &m.gather_offsets).is_ok());
    }

    #[test]
    fn write_partition_checker_catches_overlap() {
        // Duplicate one incoming op under a different source id: the
        // checker must flag the double-write.
        let m = uniform_mesh(1);
        let mut gather = m.gather.clone();
        let mut offsets = m.gather_offsets.clone();
        let mut forged = gather[0];
        forged.src = (forged.src + 1) % m.n_octants() as u32;
        gather.insert(1, forged);
        for o in offsets.iter_mut().skip(1) {
            *o += 1;
        }
        assert!(check_write_partition(m.n_octants(), &gather, &offsets).is_err());
    }
}
