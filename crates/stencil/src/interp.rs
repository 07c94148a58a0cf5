//! Intergrid transfer: prolongation (coarse→fine) and injection
//! (fine→coarse) operators.
//!
//! Interpolations are tensor products of 1D operators (section IV-A,
//! "Interpolations"): the 1D prolongation maps the `r` coarse points of an
//! octant edge to the `2r − 1` fine points of its refined edge (even fine
//! points coincide with coarse points; odd points are degree-`r−1` Lagrange
//! midpoint interpolants). A full octant prolongation is three 1D passes
//! (x, then y, then z slices), costing `O(3(2r−1)r^3)` operations — the
//! count used for the paper's arithmetic-intensity bound `Q_U ≤ 5.07`
//! (Eq. 20).

use crate::patch::{PatchLayout, POINTS_PER_SIDE};
use gw_par::Isa;

/// Fine points along a refined edge: `2r − 1`.
pub const FINE_SIDE: usize = 2 * POINTS_PER_SIDE - 1;

/// A half-open sub-box `lo..hi` (per axis) of fine-block indices in
/// `0..FINE_SIDE` — the part of a prolonged block some consumer reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FineBox {
    pub lo: [usize; 3],
    pub hi: [usize; 3],
}

impl FineBox {
    /// The whole `(2r−1)^3` block.
    pub const FULL: FineBox = FineBox { lo: [0; 3], hi: [FINE_SIDE; 3] };

    /// Smallest box containing both `self` and `other`.
    pub fn hull(self, other: FineBox) -> FineBox {
        FineBox {
            lo: [0, 1, 2].map(|a| self.lo[a].min(other.lo[a])),
            hi: [0, 1, 2].map(|a| self.hi[a].max(other.hi[a])),
        }
    }

    /// Number of fine points in the box.
    pub fn volume(&self) -> usize {
        (0..3).map(|a| self.hi[a].saturating_sub(self.lo[a])).product()
    }
}

/// Lagrange basis weights for evaluating at `x` from nodes `nodes`.
pub fn lagrange_weights(nodes: &[f64], x: f64) -> Vec<f64> {
    let n = nodes.len();
    let mut w = vec![0.0; n];
    for j in 0..n {
        let mut p = 1.0;
        for m in 0..n {
            if m != j {
                p *= (x - nodes[m]) / (nodes[j] - nodes[m]);
            }
        }
        w[j] = p;
    }
    w
}

/// Lagrange basis weights together with their first and second
/// derivatives at `x` — differentiation of the interpolant, used for
/// evaluating gradients/Hessians of grid fields at off-grid points
/// (e.g. the Weyl-scalar extraction on spheres).
pub fn lagrange_weights_d2(nodes: &[f64], x: f64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = nodes.len();
    let mut w = vec![0.0; n];
    let mut dw = vec![0.0; n];
    let mut ddw = vec![0.0; n];
    for j in 0..n {
        // ℓ_j(x) = Π_{m≠j} (x − x_m)/(x_j − x_m); differentiate the
        // product analytically via sums over excluded factors.
        let denom: f64 = (0..n).filter(|&m| m != j).map(|m| nodes[j] - nodes[m]).product();
        let mut p0 = 1.0; // Π (x − x_m)
        for (m, &xm) in nodes.iter().enumerate() {
            if m != j {
                p0 *= x - xm;
            }
        }
        // First derivative: Σ_k Π_{m≠j,k} (x − x_m).
        let mut p1 = 0.0;
        let mut p2 = 0.0;
        for k in 0..n {
            if k == j {
                continue;
            }
            let mut prod_k = 1.0;
            for (m, &xm) in nodes.iter().enumerate() {
                if m != j && m != k {
                    prod_k *= x - xm;
                }
            }
            p1 += prod_k;
            // Second derivative: Σ_{k≠l} Π_{m≠j,k,l} (x − x_m).
            for l in 0..n {
                if l == j || l == k {
                    continue;
                }
                let mut prod_kl = 1.0;
                for (m, &xm) in nodes.iter().enumerate() {
                    if m != j && m != k && m != l {
                        prod_kl *= x - xm;
                    }
                }
                p2 += prod_kl;
            }
        }
        w[j] = p0 / denom;
        dw[j] = p1 / denom;
        ddw[j] = p2 / denom;
    }
    (w, dw, ddw)
}

/// The `(2r−1) × r` 1D prolongation matrix: row `i` holds the weights that
/// produce fine point `i` (at coarse coordinate `i/2`) from the `r` coarse
/// points at integer coordinates.
pub fn prolong_matrix() -> Vec<[f64; POINTS_PER_SIDE]> {
    let nodes: Vec<f64> = (0..POINTS_PER_SIDE).map(|i| i as f64).collect();
    let mut rows = Vec::with_capacity(FINE_SIDE);
    for i in 0..FINE_SIDE {
        let x = i as f64 * 0.5;
        let w = lagrange_weights(&nodes, x);
        let mut row = [0.0; POINTS_PER_SIDE];
        row.copy_from_slice(&w);
        rows.push(row);
    }
    rows
}

/// Inject a fine edge (length `2r−1`) onto the coarse edge (length `r`) by
/// taking the coincident (even) points. Exact for grid-aligned refinement.
pub fn inject_1d(fine: &[f64], coarse: &mut [f64]) {
    debug_assert_eq!(fine.len(), FINE_SIDE);
    debug_assert_eq!(coarse.len(), POINTS_PER_SIDE);
    for (c, f) in coarse.iter_mut().zip(fine.iter().step_by(2)) {
        *c = *f;
    }
}

/// Lanes of a row-form pass: the `2r − 1 = 13` fine points of an x-row,
/// rounded up to two AVX-512 registers. Lanes `FINE_SIDE..` carry zero
/// weights and are never stored.
const LANES: usize = 16;

/// One x-row of a row-form pass, on cache-line boundaries (two lines),
/// so no tier's row load splits a line whatever the heap layout
/// (DESIGN.md §19).
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Row([f64; LANES]);

/// Reusable temporaries for [`Prolongation::prolong3d_ws`]: the x-rows
/// the first two passes produce.
pub struct ProlongWorkspace {
    /// Pass 1: row `kz·r + ky` holds fine x over coarse `(ky, kz)`.
    t1: Vec<Row>,
    /// Pass 2: row `kz·(2r−1) + j` holds fine `(x, j)` over coarse `kz`.
    t2: Vec<Row>,
}

impl Default for ProlongWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl ProlongWorkspace {
    pub fn new() -> Self {
        let r = POINTS_PER_SIDE;
        let zero = Row([0.0; LANES]);
        Self { t1: vec![zero; r * r], t2: vec![zero; r * FINE_SIDE] }
    }
}

/// Precomputed tensor-product prolongation operator.
pub struct Prolongation {
    /// Row `i`: the weights of fine point `i` over the `r` coarse points.
    rows: [[f64; POINTS_PER_SIDE]; FINE_SIDE],
    /// The transpose, one lane per fine point: `cols[c][i] = rows[i][c]`,
    /// zero in the lanes past `FINE_SIDE`.
    cols: [Row; POINTS_PER_SIDE],
}

impl Default for Prolongation {
    fn default() -> Self {
        Self::new()
    }
}

impl Prolongation {
    pub fn new() -> Self {
        let rows: [[f64; POINTS_PER_SIDE]; FINE_SIDE] =
            prolong_matrix().try_into().expect("one row per fine point");
        let cols = std::array::from_fn(|c| {
            Row(std::array::from_fn(|i| if i < FINE_SIDE { rows[i][c] } else { 0.0 }))
        });
        Self { rows, cols }
    }

    /// Number of f64 values in the operator table (`(2r−1) × r`), used by
    /// the performance model for the `2r^2`-ish operator-load term.
    pub fn table_len(&self) -> usize {
        self.rows.len() * POINTS_PER_SIDE
    }

    /// Prolong a `r^3` coarse octant to the full `(2r−1)^3` fine block via
    /// three 1D passes. Returns the flop count performed (for the
    /// simulator's counters). Allocates internal temporaries; hot loops
    /// should use [`Prolongation::prolong3d_ws`].
    pub fn prolong3d(&self, coarse: &[f64], fine: &mut [f64]) -> u64 {
        let mut ws = ProlongWorkspace::new();
        self.prolong3d_ws(coarse, fine, &mut ws)
    }

    /// Allocation-free variant of [`Prolongation::prolong3d`]: the
    /// full-block call of [`Prolongation::prolong_box_ws`].
    pub fn prolong3d_ws(&self, coarse: &[f64], fine: &mut [f64], ws: &mut ProlongWorkspace) -> u64 {
        self.prolong_box_ws(coarse, fine, ws, FineBox::FULL.lo, FineBox::FULL.hi)
    }

    /// Prolong only the fine sub-box `lo..hi` (half-open per axis) of the
    /// `(2r−1)^3` block; points of `fine` outside the box are left
    /// untouched. The passes shrink with the box — pass 1 runs over all
    /// coarse `(y, z)`, pass 2 over `y ∈ box` for all coarse `z`, pass 3
    /// over `(y, z) ∈ box` — and every value inside the box is produced
    /// by the same weights summed in the same order as in the full
    /// prolongation, so it is bit-identical to the corresponding point of
    /// [`Prolongation::prolong3d_ws`]. Returns the flop count (`2r` per
    /// pass output inside the box). Runs at the host's vector width
    /// ([`Isa::host`]; bit-identical on every tier, DESIGN.md §19).
    pub fn prolong_box_ws(
        &self,
        coarse: &[f64],
        fine: &mut [f64],
        ws: &mut ProlongWorkspace,
        lo: [usize; 3],
        hi: [usize; 3],
    ) -> u64 {
        let f = FINE_SIDE;
        debug_assert_eq!(fine.len(), f * f * f);
        let whole = Store { origin: [0; 3], nx: f, ny: f };
        prolong_into_at(Isa::host(), self, coarse, fine, ws, FineBox { lo, hi }, whole)
    }

    /// [`Prolongation::prolong_box_ws`] into compact storage: `out` holds
    /// the box alone, x fastest, fine point `(i, j, k)` at
    /// `((k − lo₂)·ny + (j − lo₁))·nx + (i − lo₀)` with `(nx, ny)` the
    /// box's x and y extents. Same passes, same values, same flop count;
    /// only where pass 3 stores differs.
    pub fn prolong_box_into(
        &self,
        coarse: &[f64],
        out: &mut [f64],
        ws: &mut ProlongWorkspace,
        b: FineBox,
    ) -> u64 {
        self.prolong_box_into_at(Isa::host(), coarse, out, ws, b)
    }

    /// [`Prolongation::prolong_box_into`] compiled for tier `isa`.
    pub fn prolong_box_into_at(
        &self,
        isa: Isa,
        coarse: &[f64],
        out: &mut [f64],
        ws: &mut ProlongWorkspace,
        b: FineBox,
    ) -> u64 {
        debug_assert_eq!(out.len(), b.volume());
        let [nx, ny] = [0, 1].map(|a| b.hi[a].saturating_sub(b.lo[a]));
        prolong_into_at(isa, self, coarse, out, ws, b, Store { origin: b.lo, nx, ny })
    }

    /// Prolong directly into one child's `r^3` block (`child` is the Morton
    /// child index: bit 0 = x-high, bit 1 = y-high, bit 2 = z-high).
    /// Allocates a fine block; repeated transfers should use
    /// [`Prolongation::prolong_to_child_ws`].
    pub fn prolong_to_child(&self, coarse: &[f64], child: usize, out: &mut [f64]) -> u64 {
        let mut ws = ProlongWorkspace::new();
        let mut fine = vec![0.0f64; FINE_SIDE * FINE_SIDE * FINE_SIDE];
        self.prolong_to_child_ws(coarse, child, out, &mut ws, &mut fine)
    }

    /// Allocation-free [`Prolongation::prolong_to_child`]: prolongs only
    /// the child's `r^3` box of the fine block (bit-identical to the
    /// window of the full prolongation, see
    /// [`Prolongation::prolong_box_ws`]) through the caller's reusable
    /// `(2r−1)^3` buffer `fine`.
    pub fn prolong_to_child_ws(
        &self,
        coarse: &[f64],
        child: usize,
        out: &mut [f64],
        ws: &mut ProlongWorkspace,
        fine: &mut [f64],
    ) -> u64 {
        let r = POINTS_PER_SIDE;
        debug_assert!(child < 8);
        debug_assert_eq!(out.len(), r * r * r);
        let o = [0, 1, 2].map(|a| ((child >> a) & 1) * (r - 1));
        let flops = self.prolong_box_ws(coarse, fine, ws, o, o.map(|v| v + r));
        let l = PatchLayout::octant();
        for kz in 0..r {
            for ky in 0..r {
                for kx in 0..r {
                    out[l.idx(kx, ky, kz)] =
                        fine[((kz + o[2]) * FINE_SIDE + (ky + o[1])) * FINE_SIDE + (kx + o[0])];
                }
            }
        }
        flops
    }

    /// Restrict (inject) a child's `r^3` block back onto the parent: writes
    /// the `⌈r/2⌉^3` coincident parent points covered by that child.
    pub fn inject_from_child(&self, child_data: &[f64], child: usize, parent: &mut [f64]) {
        let r = POINTS_PER_SIDE;
        debug_assert!(child < 8);
        debug_assert_eq!(child_data.len(), r * r * r);
        debug_assert_eq!(parent.len(), r * r * r);
        let half = r / 2; // 3 for r = 7
        let ox = (child & 1) * half;
        let oy = ((child >> 1) & 1) * half;
        let oz = ((child >> 2) & 1) * half;
        let l = PatchLayout::octant();
        // Child fine point 2m coincides with parent point offset + m.
        for mz in 0..=half {
            for my in 0..=half {
                for mx in 0..=half {
                    parent[l.idx(ox + mx, oy + my, oz + mz)] =
                        child_data[l.idx(2 * mx, 2 * my, 2 * mz)];
                }
            }
        }
    }
}

/// Where pass 3 stores: fine point `(i, j, k)` at
/// `((k − origin₂)·ny + (j − origin₁))·nx + (i − origin₀)`.
#[derive(Clone, Copy)]
struct Store {
    origin: [usize; 3],
    nx: usize,
    ny: usize,
}

gw_par::isa_dispatch! {
    /// The three row-form passes of [`Prolongation::prolong_box_ws`] over
    /// box `b`, compiled for tier `isa`, storing as `store` says.
    fn prolong_into_at(
        isa: Isa,
        p: &Prolongation,
        coarse: &[f64],
        out: &mut [f64],
        ws: &mut ProlongWorkspace,
        b: FineBox,
        store: Store,
    ) -> u64 = prolong_into_body;
}

/// `Σ_c w[c] · row(c)` lane by lane, starting from `0.0` and adding in
/// `c` order: per lane, the per-point loop's `acc += w[c] * v`.
#[inline(always)]
fn weighted_rows<'a>(w: &[f64; POINTS_PER_SIDE], row: impl Fn(usize) -> &'a Row) -> [f64; LANES] {
    let mut acc = [0.0; LANES];
    for (c, &wc) in w.iter().enumerate() {
        let src = &row(c).0;
        for i in 0..LANES {
            acc[i] += wc * src[i];
        }
    }
    acc
}

/// Body of [`prolong_into_at`]. Each pass turns whole x-rows into whole
/// x-rows of `LANES` accumulators. Pass 1 (x) multiplies the transposed
/// weights `cols[c]` by coarse value `c` of the row; passes 2 (y) and
/// 3 (z) multiply r source rows by the scalar weights of the output
/// row's fine index. Every lane inside the box sees exactly the
/// operations of the scalar three-pass loop — `0.0`, then `+ w·v` for
/// `c = 0..r`, with the same two operands — so every stored value is
/// bit-identical to it (DESIGN.md §19). Lanes outside the box are
/// computed too, and dropped.
#[inline(always)]
fn prolong_into_body(
    _isa: Isa,
    p: &Prolongation,
    coarse: &[f64],
    out: &mut [f64],
    ws: &mut ProlongWorkspace,
    b: FineBox,
    Store { origin, nx, ny }: Store,
) -> u64 {
    const R: usize = POINTS_PER_SIDE;
    const F: usize = FINE_SIDE;
    let FineBox { lo, hi } = b;
    assert_eq!(coarse.len(), R * R * R);
    assert!(hi.iter().all(|&h| h <= F), "box {lo:?}..{hi:?} exceeds the fine block");
    if (0..3).any(|a| lo[a] >= hi[a]) {
        return 0;
    }
    let ProlongWorkspace { t1, t2 } = ws;
    // Pass 1: x direction, (r,r,r) -> (fine x, r, r).
    for (t, src) in t1.iter_mut().zip(coarse.chunks_exact(R)) {
        let mut acc = [0.0; LANES];
        for (col, &v) in p.cols.iter().zip(src) {
            for (a, &w) in acc.iter_mut().zip(&col.0) {
                *a += w * v;
            }
        }
        *t = Row(acc);
    }
    // Pass 2: y direction, (fine x, r, r) -> (fine x, box y, r).
    for kz in 0..R {
        for j in lo[1]..hi[1] {
            t2[kz * F + j] = Row(weighted_rows(&p.rows[j], |c| &t1[kz * R + c]));
        }
    }
    // Pass 3: z direction, (fine x, box y, r) -> box.
    let n = hi[0] - lo[0];
    for k in lo[2]..hi[2] {
        for j in lo[1]..hi[1] {
            let acc = weighted_rows(&p.rows[k], |c| &t2[c * F + j]);
            let base = ((k - origin[2]) * ny + (j - origin[1])) * nx + lo[0] - origin[0];
            out[base..base + n].copy_from_slice(&acc[lo[0]..hi[0]]);
        }
    }
    let [bx, by, bz] = [0, 1, 2].map(|a| (hi[a] - lo[a]) as u64);
    let r = R as u64;
    2 * r * (bx * r * r + bx * by * r + bx * by * bz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prolong_matrix_rows_are_partition_of_unity() {
        for row in prolong_matrix() {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn even_rows_are_injection() {
        let m = prolong_matrix();
        for i in (0..FINE_SIDE).step_by(2) {
            for (c, w) in m[i].iter().enumerate() {
                let expect = if c == i / 2 { 1.0 } else { 0.0 };
                assert!((w - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn lagrange_weights_exact_for_polynomials() {
        let nodes: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let f = |x: f64| 2.0 * x.powi(6) - x.powi(3) + 4.0;
        let x = 2.5;
        let w = lagrange_weights(&nodes, x);
        let approx: f64 = w.iter().zip(nodes.iter()).map(|(w, n)| w * f(*n)).sum();
        assert!((approx - f(x)).abs() < 1e-9);
    }

    fn octant_field(f: impl Fn(f64, f64, f64) -> f64) -> Vec<f64> {
        let r = POINTS_PER_SIDE;
        let l = PatchLayout::octant();
        let mut v = vec![0.0; r * r * r];
        for (i, j, k) in l.iter() {
            v[l.idx(i, j, k)] = f(i as f64, j as f64, k as f64);
        }
        v
    }

    #[test]
    fn prolong3d_exact_on_polynomial() {
        let p = Prolongation::new();
        let f = |x: f64, y: f64, z: f64| x * x * y - 0.5 * z.powi(3) + x * y * z + 1.0;
        let coarse = octant_field(f);
        let mut fine = vec![0.0; FINE_SIDE * FINE_SIDE * FINE_SIDE];
        p.prolong3d(&coarse, &mut fine);
        for kz in 0..FINE_SIDE {
            for ky in 0..FINE_SIDE {
                for kx in 0..FINE_SIDE {
                    let exact = f(kx as f64 * 0.5, ky as f64 * 0.5, kz as f64 * 0.5);
                    let got = fine[(kz * FINE_SIDE + ky) * FINE_SIDE + kx];
                    assert!((got - exact).abs() < 1e-9, "({kx},{ky},{kz}): {got} vs {exact}");
                }
            }
        }
    }

    #[test]
    fn prolong_flop_count_matches_model() {
        // Paper: a single coarse→fine interpolation is O(3(2r−1)r^3) ops.
        // Our three passes do 2r flops per output point:
        // pass1 f·r·r + pass2 f·f·r + pass3 f·f·f outputs.
        let p = Prolongation::new();
        let coarse = vec![1.0; 343];
        let mut fine = vec![0.0; FINE_SIDE.pow(3)];
        let flops = p.prolong3d(&coarse, &mut fine);
        let r = POINTS_PER_SIDE as u64;
        let f = FINE_SIDE as u64;
        let expect = 2 * r * (f * r * r + f * f * r + f * f * f);
        assert_eq!(flops, expect);
    }

    #[test]
    fn prolong_to_child_matches_window_of_full() {
        let p = Prolongation::new();
        let f = |x: f64, y: f64, z: f64| (0.3 * x).sin() + y * z * 0.1;
        let coarse = octant_field(f);
        let mut full = vec![0.0; FINE_SIDE.pow(3)];
        p.prolong3d(&coarse, &mut full);
        let r = POINTS_PER_SIDE;
        for child in 0..8 {
            let mut block = vec![0.0; r * r * r];
            p.prolong_to_child(&coarse, child, &mut block);
            let ox = (child & 1) * (r - 1);
            let oy = ((child >> 1) & 1) * (r - 1);
            let oz = ((child >> 2) & 1) * (r - 1);
            let l = PatchLayout::octant();
            for (i, j, k) in l.iter() {
                let expect = full[((k + oz) * FINE_SIDE + (j + oy)) * FINE_SIDE + (i + ox)];
                assert_eq!(block[l.idx(i, j, k)], expect);
            }
        }
    }

    #[test]
    fn inject_inverts_prolong_on_coincident_points() {
        let p = Prolongation::new();
        let f = |x: f64, y: f64, z: f64| x + 2.0 * y - z + 0.25 * x * y;
        let parent = octant_field(f);
        let mut rec = vec![f64::NAN; parent.len()];
        for child in 0..8 {
            let mut block = vec![0.0; parent.len()];
            p.prolong_to_child(&parent, child, &mut block);
            p.inject_from_child(&block, child, &mut rec);
        }
        for (a, b) in parent.iter().zip(rec.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn inject_1d_takes_even_points() {
        let fine: Vec<f64> = (0..FINE_SIDE).map(|i| i as f64).collect();
        let mut coarse = vec![0.0; POINTS_PER_SIDE];
        inject_1d(&fine, &mut coarse);
        assert_eq!(coarse, vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random coarse block (full-mantissa values, so
    /// any reordering of the sums would show in the bits).
    fn random_block(seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..POINTS_PER_SIDE.pow(3))
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            })
            .collect()
    }

    /// Random block with every `stride`-th entry a signed zero (`+0.0`,
    /// then `-0.0`), so tiers that reorder or fuse a sum would show.
    fn signed_zero_block(seed: u64, stride: usize) -> Vec<f64> {
        let mut v = random_block(seed);
        for (n, x) in v.iter_mut().step_by(stride).enumerate() {
            *x = if n % 2 == 0 { 0.0 } else { -0.0 };
        }
        v
    }

    /// The scalar three-pass loop the row form replaced: one accumulator
    /// per fine point, passes restricted to the box. The reference of
    /// every tier.
    fn scalar_prolong_into(
        p: &Prolongation,
        coarse: &[f64],
        out: &mut [f64],
        b: FineBox,
        origin: [usize; 3],
        [nx, ny]: [usize; 2],
    ) {
        let r = POINTS_PER_SIDE;
        let f = FINE_SIDE;
        let FineBox { lo, hi } = b;
        if (0..3).any(|a| lo[a] >= hi[a]) {
            return;
        }
        let (xs, ys, zs) = (lo[0]..hi[0], lo[1]..hi[1], lo[2]..hi[2]);
        let mut t1 = vec![0.0; f * r * r];
        let mut t2 = vec![0.0; f * f * r];
        for kz in 0..r {
            for ky in 0..r {
                for i in xs.clone() {
                    let mut acc = 0.0;
                    for (c, w) in p.rows[i].iter().enumerate() {
                        acc += w * coarse[(kz * r + ky) * r + c];
                    }
                    t1[(kz * r + ky) * f + i] = acc;
                }
            }
        }
        for kz in 0..r {
            for j in ys.clone() {
                for i in xs.clone() {
                    let mut acc = 0.0;
                    for (c, w) in p.rows[j].iter().enumerate() {
                        acc += w * t1[(kz * r + c) * f + i];
                    }
                    t2[(kz * f + j) * f + i] = acc;
                }
            }
        }
        for kk in zs {
            for j in ys.clone() {
                let base = ((kk - origin[2]) * ny + (j - origin[1])) * nx;
                for i in xs.clone() {
                    let mut acc = 0.0;
                    for (c, w) in p.rows[kk].iter().enumerate() {
                        acc += w * t2[(c * f + j) * f + i];
                    }
                    out[base + i - origin[0]] = acc;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both storages, at every tier the host has, store exactly
        /// what the scalar loop stores, on a random box and on the whole
        /// block, and leave everything outside the box untouched.
        #[test]
        fn prolong_tiers_match_scalar_reference_bitwise(
            seed in 0u64..u64::MAX,
            zero_stride in 2usize..9,
            lo in prop::array::uniform3(0usize..FINE_SIDE),
            ext in prop::array::uniform3(0usize..FINE_SIDE + 1),
        ) {
            let p = Prolongation::new();
            let coarse = signed_zero_block(seed, zero_stride);
            let hi = [0, 1, 2].map(|a| (lo[a] + ext[a]).min(FINE_SIDE));
            let sentinel = f64::from_bits(0x7ff8_dead_beef_0002);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let f = FINE_SIDE;
            for b in [FineBox { lo, hi }, FineBox::FULL] {
                let mut want_ws = vec![sentinel; f * f * f];
                scalar_prolong_into(&p, &coarse, &mut want_ws, b, [0; 3], [f, f]);
                let extent = [b.hi[0].saturating_sub(b.lo[0]), b.hi[1].saturating_sub(b.lo[1])];
                let mut want_into = vec![sentinel; b.volume()];
                scalar_prolong_into(&p, &coarse, &mut want_into, b, b.lo, extent);
                for isa in Isa::ALL {
                    if !isa.is_available() {
                        println!("tier {isa} not available on this host: skipped");
                        continue;
                    }
                    // The whole-block storage of `prolong_box_ws`, at `isa`.
                    let mut ws = ProlongWorkspace::new();
                    let mut got = vec![sentinel; f * f * f];
                    let whole = Store { origin: [0; 3], nx: f, ny: f };
                    let flops = prolong_into_at(isa, &p, &coarse, &mut got, &mut ws, b, whole);
                    prop_assert!(bits(&got) == bits(&want_ws), "prolong_box_ws at {}", isa);
                    let mut got = vec![sentinel; b.volume()];
                    prop_assert_eq!(p.prolong_box_into_at(isa, &coarse, &mut got, &mut ws, b), flops);
                    prop_assert!(bits(&got) == bits(&want_into), "prolong_box_into at {}", isa);
                }
            }
        }

        #[test]
        fn prolong_box_matches_full_inside_and_leaves_outside_untouched(
            seed in 0u64..u64::MAX,
            lo in prop::array::uniform3(0usize..FINE_SIDE),
            ext in prop::array::uniform3(0usize..FINE_SIDE + 1),
        ) {
            let p = Prolongation::new();
            let coarse = random_block(seed);
            let mut full = vec![0.0; FINE_SIDE.pow(3)];
            p.prolong3d(&coarse, &mut full);
            let hi = [0, 1, 2].map(|a| (lo[a] + ext[a]).min(FINE_SIDE));
            let sentinel = f64::from_bits(0x7ff8_dead_beef_0001);
            let mut boxed = vec![sentinel; FINE_SIDE.pow(3)];
            let mut ws = ProlongWorkspace::new();
            let flops = p.prolong_box_ws(&coarse, &mut boxed, &mut ws, lo, hi);
            for kz in 0..FINE_SIDE {
                for ky in 0..FINE_SIDE {
                    for kx in 0..FINE_SIDE {
                        let i = (kz * FINE_SIDE + ky) * FINE_SIDE + kx;
                        let inside = [kx, ky, kz].iter().enumerate()
                            .all(|(a, &k)| (lo[a]..hi[a]).contains(&k));
                        let expect = if inside { full[i] } else { sentinel };
                        prop_assert_eq!(boxed[i].to_bits(), expect.to_bits());
                    }
                }
            }
            let b = FineBox { lo, hi };
            prop_assert_eq!(flops == 0, b.volume() == 0);
            // The compact variant stores the same box values, x fastest.
            let mut compact = vec![sentinel; b.volume()];
            prop_assert_eq!(p.prolong_box_into(&coarse, &mut compact, &mut ws, b), flops);
            let mut n = 0;
            for kz in lo[2]..hi[2] {
                for ky in lo[1]..hi[1] {
                    for kx in lo[0]..hi[0] {
                        let i = (kz * FINE_SIDE + ky) * FINE_SIDE + kx;
                        prop_assert_eq!(compact[n].to_bits(), full[i].to_bits());
                        n += 1;
                    }
                }
            }
            prop_assert_eq!(n, compact.len());
        }
    }
}
