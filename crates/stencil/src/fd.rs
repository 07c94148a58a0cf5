//! 6th-order finite-difference operators on padded patches.
//!
//! All operators read a `(r+2k)^3` padded patch and write the `r^3` octant
//! interior. With `k = 3` the centered 7-point stencils never leave the
//! patch; advective (upwind-biased) derivatives use a one-point-shifted
//! 6-point stencil (5th order), the widest bias the padding admits — the
//! same choice Dendro-GR makes.
//!
//! Stencil weights are generated by Fornberg's algorithm
//! ([`fd_weights`]) rather than hard-coded, and the generated tables are
//! validated against the textbook coefficients in the unit tests.

use crate::ko::{KO_NORM, KO_WEIGHTS};
use crate::patch::{PatchLayout, BLOCK_VOLUME, PADDING, PATCH_SIDE, POINTS_PER_SIDE};

/// Fornberg's algorithm: weights of the finite-difference approximation to
/// the `m`-th derivative at `x0` from samples at `grid` locations.
///
/// Returns `weights[j]` such that `f^(m)(x0) ≈ Σ_j weights[j] f(grid[j])`.
pub fn fd_weights(x0: f64, grid: &[f64], m: usize) -> Vec<f64> {
    let n = grid.len();
    assert!(n > m, "need more than m+1 points");
    // B. Fornberg, "Generation of finite difference formulas on arbitrarily
    // spaced grids", Math. Comp. 51 (1988).
    let mut c = vec![vec![0.0f64; m + 1]; n];
    let mut c1 = 1.0f64;
    let mut c4 = grid[0] - x0;
    c[0][0] = 1.0;
    for i in 1..n {
        let mn = i.min(m);
        let mut c2 = 1.0f64;
        let c5 = c4;
        c4 = grid[i] - x0;
        for j in 0..i {
            let c3 = grid[i] - grid[j];
            c2 *= c3;
            if j == i - 1 {
                for s in (1..=mn).rev() {
                    c[i][s] = c1 * (s as f64 * c[i - 1][s - 1] - c5 * c[i - 1][s]) / c2;
                }
                c[i][0] = -c1 * c5 * c[i - 1][0] / c2;
            }
            for s in (1..=mn).rev() {
                c[j][s] = (c4 * c[j][s] - s as f64 * c[j][s - 1]) / c3;
            }
            c[j][0] = c4 * c[j][0] / c3;
        }
        c1 = c2;
    }
    c.into_iter().map(|row| row[m]).collect()
}

/// Centered 7-point weights (offsets −3..=3) for the 1st derivative,
/// 6th-order accurate, in units of `1/h`.
pub fn centered_first_weights() -> [f64; 7] {
    let grid: Vec<f64> = (-3..=3).map(|i| i as f64).collect();
    let w = fd_weights(0.0, &grid, 1);
    w.try_into().unwrap()
}

/// Centered 7-point weights for the 2nd derivative, 6th-order accurate,
/// in units of `1/h^2`.
pub fn centered_second_weights() -> [f64; 7] {
    let grid: Vec<f64> = (-3..=3).map(|i| i as f64).collect();
    let w = fd_weights(0.0, &grid, 2);
    w.try_into().unwrap()
}

/// Upwind-biased 6-point weights (offsets −2..=3) for the 1st derivative,
/// 5th-order accurate; used when the advecting velocity is positive.
/// Mirror-negate for negative velocities.
pub fn upwind_first_weights() -> [f64; 6] {
    let grid: Vec<f64> = (-2..=3).map(|i| i as f64).collect();
    let w = fd_weights(0.0, &grid, 1);
    w.try_into().unwrap()
}

/// Per-axis strides of the padded patch layout.
#[inline]
const fn stride(axis: usize) -> usize {
    match axis {
        0 => 1,
        1 => PATCH_SIDE,
        _ => PATCH_SIDE * PATCH_SIDE,
    }
}

/// `N` 7-point sums over one row of `W` x-contiguous points:
/// `acc[n][x] = 0.0 + Σ_t w[n][t] · src[t·step + x]` with `t = 0..7` in
/// order. Every value sees the operations of the per-point loop, in its
/// order, so the row form is bit-identical to it; each of the seven input
/// rows is read once for all `N` stencils.
#[inline(always)]
fn row_sums<const W: usize, const N: usize>(
    w: [&[f64; 7]; N],
    src: &[f64],
    step: usize,
) -> [[f64; W]; N] {
    let mut acc = [[0.0f64; W]; N];
    for t in 0..7 {
        let row: &[f64; W] = src[t * step..][..W].try_into().expect("row inside the source");
        for (a, wn) in acc.iter_mut().zip(&w) {
            let wt = wn[t];
            for x in 0..W {
                a[x] += wt * row[x];
            }
        }
    }
    acc
}

/// One 7-point stencil of a [`stencil_rows`] pass: the weights of the
/// offsets −3..=3 and the factor the sum is scaled by.
pub(crate) type Stencil<'a> = (&'a [f64; 7], f64);

/// Apply `N` centered 7-point stencils along `axis` (0=x, 1=y, 2=z) in one
/// pass: patch → `N` octant blocks.
///
/// Each output row of `r` x-contiguous points reads the seven patch rows
/// at offsets −3..=3 along `axis` once, and every stencil accumulates them
/// into its own `[f64; r]` row, then scales it. Per point this is the
/// per-point loop's `0.0 + w₀p₋₃ + … + w₆p₃`, then `× scale`, so each
/// output is bit-identical to it (DESIGN.md §15).
#[inline(always)]
pub(crate) fn stencil_rows<const N: usize>(
    axis: usize,
    patch: &[f64],
    stencils: [Stencil<'_>; N],
    mut outs: [&mut [f64]; N],
) {
    const R: usize = POINTS_PER_SIDE;
    let p = PatchLayout::padded();
    assert_eq!(patch.len(), p.volume());
    for out in &outs {
        assert_eq!(out.len(), BLOCK_VOLUME);
    }
    let st = stride(axis);
    let weights = stencils.map(|(w, _)| w);
    for kz in 0..R {
        for ky in 0..R {
            // The row's first point, shifted to offset −3 along `axis`.
            let first = p.idx(PADDING, ky + PADDING, kz + PADDING) - PADDING * st;
            let acc = row_sums::<R, N>(weights, &patch[first..], st);
            let o0 = (kz * R + ky) * R;
            for ((out, a), &(_, scale)) in outs.iter_mut().zip(&acc).zip(&stencils) {
                for (o, &v) in out[o0..o0 + R].iter_mut().zip(a) {
                    *o = v * scale;
                }
            }
        }
    }
}

/// Derivative operators bound to a grid spacing.
#[derive(Clone, Copy, Debug)]
pub struct DerivOps {
    /// `1/h`.
    pub inv_h: f64,
    w1: [f64; 7],
    w2: [f64; 7],
    wu: [f64; 6],
}

impl DerivOps {
    /// Generates the weight tables (Fornberg) for spacing `h`.
    pub fn new(h: f64) -> Self {
        Self {
            inv_h: 1.0,
            w1: centered_first_weights(),
            w2: centered_second_weights(),
            wu: upwind_first_weights(),
        }
        .with_spacing(h)
    }

    /// The same weight tables bound to spacing `h`: no Fornberg run, so a
    /// caller that builds the tables once can rebind them per octant.
    #[inline(always)]
    pub fn with_spacing(&self, h: f64) -> Self {
        assert!(h > 0.0 && h.is_finite());
        Self { inv_h: 1.0 / h, ..*self }
    }

    /// First derivative along `axis` (0=x, 1=y, 2=z): patch → octant block.
    pub fn deriv(&self, axis: usize, patch: &[f64], out: &mut [f64]) {
        stencil_rows(axis, patch, [(&self.w1, self.inv_h)], [out]);
    }

    /// Second (pure) derivative along `axis`: patch → octant block.
    pub fn deriv2(&self, axis: usize, patch: &[f64], out: &mut [f64]) {
        stencil_rows(axis, patch, [(&self.w2, self.inv_h * self.inv_h)], [out]);
    }

    /// Every derivative along `axis` the BSSN RHS reads, in one fused
    /// pass over the patch: the first derivative into `d1`, the pure
    /// second derivative into `d2` when given, and the Kreiss–Oliger
    /// derivative ([`crate::ko::ko_deriv_axis`]) into `ko`. Each block is
    /// bit-identical to its own single-stencil call.
    #[inline(always)]
    pub fn axis_pass(
        &self,
        axis: usize,
        patch: &[f64],
        d1: &mut [f64],
        d2: Option<&mut [f64]>,
        ko: &mut [f64],
    ) {
        let first = (&self.w1, self.inv_h);
        let ko_stencil = (&KO_WEIGHTS, self.inv_h / KO_NORM);
        match d2 {
            Some(d2) => stencil_rows(
                axis,
                patch,
                [first, (&self.w2, self.inv_h * self.inv_h), ko_stencil],
                [d1, d2, ko],
            ),
            None => stencil_rows(axis, patch, [first, ko_stencil], [d1, ko]),
        }
    }

    /// Advective (upwind-biased) first derivative along `axis`.
    ///
    /// `upwind_positive` selects the stencil biased in the `+axis`
    /// direction (for positive advection speed); the mirrored stencil is
    /// used otherwise. `O(h^5)`.
    pub fn deriv_advective(
        &self,
        axis: usize,
        patch: &[f64],
        upwind_positive: bool,
        out: &mut [f64],
    ) {
        let p = PatchLayout::padded();
        let o = PatchLayout::octant();
        debug_assert_eq!(patch.len(), p.volume());
        debug_assert_eq!(out.len(), o.volume());
        let st = stride(axis);
        let scale = self.inv_h;
        for kz in 0..POINTS_PER_SIDE {
            for ky in 0..POINTS_PER_SIDE {
                for kx in 0..POINTS_PER_SIDE {
                    let c = p.idx(kx + PADDING, ky + PADDING, kz + PADDING);
                    let mut acc = 0.0;
                    if upwind_positive {
                        // offsets -2..=3
                        for (t, &w) in self.wu.iter().enumerate() {
                            let off = t as isize - 2;
                            acc += w * patch[(c as isize + off * st as isize) as usize];
                        }
                    } else {
                        // mirrored: offsets -3..=2 with negated reversed
                        // weights.
                        for (t, &w) in self.wu.iter().enumerate() {
                            let off = -(t as isize - 2);
                            acc -= w * patch[(c as isize + off * st as isize) as usize];
                        }
                    }
                    out[o.idx(kx, ky, kz)] = acc * scale;
                }
            }
        }
    }

    /// Mixed second derivative `∂a∂b` (`a != b`): the 49-point tensor
    /// product of the centered first-derivative stencils, `O(h^6)`,
    /// sum-factorized and row-wise. The inner 7-point `b`-sums are
    /// computed once, a row at a time, on the `a`-extended
    /// `(r+2k) × r × r` slab; each output row then forms the outer
    /// 7-point `a`-sums over them. Every output keeps the 49-point loop's
    /// `inner` values and summation order, so the result is bit-identical
    /// to it, while each `inner` sum is computed once for the 7 output
    /// points along `a` that share it.
    #[inline(always)]
    pub fn deriv_mixed(&self, a: usize, b: usize, patch: &[f64], out: &mut [f64]) {
        assert_ne!(a, b, "use deriv2 for pure second derivatives");
        const N: usize = POINTS_PER_SIDE;
        assert_eq!(patch.len(), PatchLayout::padded().volume());
        assert_eq!(out.len(), BLOCK_VOLUME);
        // Slab extent and patch offset per axis: the full padded line
        // along `a`, the interior along the other two.
        let ext = [0, 1, 2].map(|ax| if ax == a { PATCH_SIDE } else { N });
        let lo = [0, 1, 2].map(|ax| if ax == a { 0 } else { PADDING });
        let mut inner = [0.0f64; PATCH_SIDE * N * N];
        if a == 0 {
            self.mixed_inner::<PATCH_SIDE>(b, lo, ext, patch, &mut inner);
        } else {
            self.mixed_inner::<N>(b, lo, ext, patch, &mut inner);
        }
        let slab_stride = [1, ext[0], ext[0] * ext[1]];
        let scale = self.inv_h * self.inv_h;
        for kz in 0..N {
            for ky in 0..N {
                // Slab index of the a-offset −3 neighbour of (0,ky,kz).
                let base = ky * slab_stride[1] + kz * slab_stride[2];
                let [acc] = row_sums::<N, 1>([&self.w1], &inner[base..], slab_stride[a]);
                let o0 = (kz * N + ky) * N;
                for (o, v) in out[o0..o0 + N].iter_mut().zip(acc) {
                    *o = v * scale;
                }
            }
        }
    }

    /// The inner `b`-sums of [`DerivOps::deriv_mixed`] over the slab
    /// `lo + [0, ext)`, whose rows are `W = ext[0]` points long.
    #[inline(always)]
    fn mixed_inner<const W: usize>(
        &self,
        b: usize,
        lo: [usize; 3],
        ext: [usize; 3],
        patch: &[f64],
        inner: &mut [f64],
    ) {
        debug_assert_eq!(ext[0], W);
        let p = PatchLayout::padded();
        let sb = stride(b);
        for z in 0..ext[2] {
            for y in 0..ext[1] {
                // First stencil point (offset −3 along b).
                let first = p.idx(lo[0], y + lo[1], z + lo[2]) - PADDING * sb;
                let [row] = row_sums::<W, 1>([&self.w1], &patch[first..], sb);
                let t = (z * ext[1] + y) * W;
                inner[t..t + W].copy_from_slice(&row);
            }
        }
    }

    /// The direct 49-point loop [`DerivOps::deriv_mixed`] factorizes —
    /// the bit-identity reference of its tests.
    #[cfg(test)]
    fn deriv_mixed_reference(&self, a: usize, b: usize, patch: &[f64], out: &mut [f64]) {
        let p = PatchLayout::padded();
        let o = PatchLayout::octant();
        let sa = stride(a) as isize;
        let sb = stride(b) as isize;
        let scale = self.inv_h * self.inv_h;
        for kz in 0..POINTS_PER_SIDE {
            for ky in 0..POINTS_PER_SIDE {
                for kx in 0..POINTS_PER_SIDE {
                    let c = p.idx(kx + PADDING, ky + PADDING, kz + PADDING) as isize;
                    let mut acc = 0.0;
                    for (ta, &wa) in self.w1.iter().enumerate() {
                        let oa = ta as isize - 3;
                        let base = c + oa * sa;
                        let mut inner = 0.0;
                        for (tb, &wb) in self.w1.iter().enumerate() {
                            let ob = tb as isize - 3;
                            inner += wb * patch[(base + ob * sb) as usize];
                        }
                        acc += wa * inner;
                    }
                    out[o.idx(kx, ky, kz)] = acc * scale;
                }
            }
        }
    }

    /// The per-point 7-point stencil along `axis` that [`stencil_rows`]
    /// computes a row at a time — the bit-identity reference of its tests.
    #[cfg(test)]
    fn apply_1d(&self, axis: usize, w: &[f64; 7], scale: f64, patch: &[f64], out: &mut [f64]) {
        let p = PatchLayout::padded();
        let o = PatchLayout::octant();
        let st = stride(axis) as isize;
        for kz in 0..POINTS_PER_SIDE {
            for ky in 0..POINTS_PER_SIDE {
                for kx in 0..POINTS_PER_SIDE {
                    let c = p.idx(kx + PADDING, ky + PADDING, kz + PADDING) as isize;
                    let mut acc = 0.0;
                    for (t, &wt) in w.iter().enumerate() {
                        let off = t as isize - 3;
                        acc += wt * patch[(c + off * st) as usize];
                    }
                    out[o.idx(kx, ky, kz)] = acc * scale;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::PatchLayout;

    fn fill_patch(f: impl Fn(f64, f64, f64) -> f64, h: f64) -> Vec<f64> {
        let p = PatchLayout::padded();
        let mut v = vec![0.0; p.volume()];
        for (i, j, k) in p.iter() {
            // Put (0,0,0) at the first *interior* point.
            let x = (i as f64 - PADDING as f64) * h;
            let y = (j as f64 - PADDING as f64) * h;
            let z = (k as f64 - PADDING as f64) * h;
            v[p.idx(i, j, k)] = f(x, y, z);
        }
        v
    }

    #[test]
    fn first_weights_match_textbook() {
        let w = centered_first_weights();
        let expect = [-1.0 / 60.0, 3.0 / 20.0, -3.0 / 4.0, 0.0, 3.0 / 4.0, -3.0 / 20.0, 1.0 / 60.0];
        for (a, b) in w.iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-12, "{w:?}");
        }
    }

    #[test]
    fn second_weights_match_textbook() {
        let w = centered_second_weights();
        let expect =
            [1.0 / 90.0, -3.0 / 20.0, 3.0 / 2.0, -49.0 / 18.0, 3.0 / 2.0, -3.0 / 20.0, 1.0 / 90.0];
        for (a, b) in w.iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-12, "{w:?}");
        }
    }

    #[test]
    fn upwind_weights_sum_to_zero_and_first_moment_one() {
        let w = upwind_first_weights();
        let sum: f64 = w.iter().sum();
        assert!(sum.abs() < 1e-12);
        let m1: f64 = w.iter().enumerate().map(|(t, &w)| w * (t as f64 - 2.0)).sum();
        assert!((m1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fd_weights_reproduces_central_second_order() {
        let w = fd_weights(0.0, &[-1.0, 0.0, 1.0], 1);
        assert!((w[0] + 0.5).abs() < 1e-14);
        assert!(w[1].abs() < 1e-14);
        assert!((w[2] - 0.5).abs() < 1e-14);
    }

    #[test]
    fn derivative_exact_on_degree6_polynomial() {
        // 6th-order stencil differentiates x^6 exactly at the origin? No —
        // it is exact for polynomials up to degree 6 inclusive for the 1st
        // derivative on 7 points. Verify with p(x) = x^5 - 2x^3 + x.
        let h = 0.1;
        let ops = DerivOps::new(h);
        let patch = fill_patch(|x, _, _| x.powi(5) - 2.0 * x.powi(3) + x, h);
        let mut out = vec![0.0; PatchLayout::octant().volume()];
        ops.deriv(0, &patch, &mut out);
        let o = PatchLayout::octant();
        for (i, j, k) in o.iter() {
            let x = i as f64 * h;
            let exact = 5.0 * x.powi(4) - 6.0 * x * x + 1.0;
            assert!(
                (out[o.idx(i, j, k)] - exact).abs() < 1e-10,
                "at x={x}: {} vs {exact}",
                out[o.idx(i, j, k)]
            );
        }
    }

    #[test]
    fn second_derivative_exact_on_polynomial() {
        let h = 0.05;
        let ops = DerivOps::new(h);
        let patch = fill_patch(|_, y, _| 3.0 * y.powi(4) + y * y, h);
        let mut out = vec![0.0; PatchLayout::octant().volume()];
        ops.deriv2(1, &patch, &mut out);
        let o = PatchLayout::octant();
        for (i, j, k) in o.iter() {
            let y = j as f64 * h;
            let exact = 36.0 * y * y + 2.0;
            assert!((out[o.idx(i, j, k)] - exact).abs() < 1e-8);
        }
    }

    #[test]
    fn mixed_derivative_exact_on_bilinear_polynomial() {
        let h = 0.1;
        let ops = DerivOps::new(h);
        let patch = fill_patch(|x, y, _| x * x * y + 4.0 * x * y * y, h);
        let mut out = vec![0.0; PatchLayout::octant().volume()];
        ops.deriv_mixed(0, 1, &patch, &mut out);
        let o = PatchLayout::octant();
        for (i, j, k) in o.iter() {
            let x = i as f64 * h;
            let y = j as f64 * h;
            let exact = 2.0 * x + 8.0 * y;
            assert!((out[o.idx(i, j, k)] - exact).abs() < 1e-9);
        }
    }

    #[test]
    fn mixed_derivative_symmetric_in_axes() {
        let h = 0.1;
        let ops = DerivOps::new(h);
        let patch = fill_patch(|x, y, z| (x + 0.3 * y).sin() * (0.7 * z).cos(), h);
        let mut dxy = vec![0.0; PatchLayout::octant().volume()];
        let mut dyx = vec![0.0; PatchLayout::octant().volume()];
        ops.deriv_mixed(0, 1, &patch, &mut dxy);
        ops.deriv_mixed(1, 0, &patch, &mut dyx);
        for (a, b) in dxy.iter().zip(dyx.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn factorized_mixed_derivative_is_bitwise_the_49_point_loop() {
        // Full-mantissa pseudo-random patch: any change in the summation
        // order or the shared inner sums would show in the bits.
        let p = PatchLayout::padded();
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let patch: Vec<f64> = (0..p.volume())
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        let ops = DerivOps::new(0.037);
        let n = PatchLayout::octant().volume();
        for (a, b) in [(0usize, 1usize), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)] {
            let mut fast = vec![0.0; n];
            let mut reference = vec![0.0; n];
            ops.deriv_mixed(a, b, &patch, &mut fast);
            ops.deriv_mixed_reference(a, b, &patch, &mut reference);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&reference), "axes ({a},{b})");
        }
    }

    #[test]
    fn convergence_order_six_on_sine() {
        // Error of d/dx sin(x) must drop ~64x per halving of h.
        let err = |h: f64| {
            let ops = DerivOps::new(h);
            let patch = fill_patch(|x, _, _| x.sin(), h);
            let mut out = vec![0.0; PatchLayout::octant().volume()];
            ops.deriv(0, &patch, &mut out);
            let o = PatchLayout::octant();
            let mut e = 0.0f64;
            for (i, j, k) in o.iter() {
                let x = i as f64 * h;
                e = e.max((out[o.idx(i, j, k)] - x.cos()).abs());
            }
            e
        };
        let e1 = err(0.1);
        let e2 = err(0.05);
        let order = (e1 / e2).log2();
        assert!(order > 5.5, "observed order {order}");
    }

    #[test]
    fn advective_convergence_order_five() {
        let err = |h: f64, up: bool| {
            let ops = DerivOps::new(h);
            let patch = fill_patch(|x, _, _| (1.3 * x).sin(), h);
            let mut out = vec![0.0; PatchLayout::octant().volume()];
            ops.deriv_advective(0, &patch, up, &mut out);
            let o = PatchLayout::octant();
            let mut e = 0.0f64;
            for (i, j, k) in o.iter() {
                let x = i as f64 * h;
                e = e.max((out[o.idx(i, j, k)] - 1.3 * (1.3 * x).cos()).abs());
            }
            e
        };
        for up in [true, false] {
            let order = (err(0.1, up) / err(0.05, up)).log2();
            assert!(order > 4.5, "upwind={up} observed order {order}");
        }
    }

    #[test]
    fn upwind_direction_biases_stencil() {
        // On a step-like profile the two upwind variants must differ.
        let h = 0.1;
        let ops = DerivOps::new(h);
        let patch = fill_patch(|x, _, _| if x > 0.31 { 1.0 } else { 0.0 }, h);
        let mut a = vec![0.0; PatchLayout::octant().volume()];
        let mut b = vec![0.0; PatchLayout::octant().volume()];
        ops.deriv_advective(0, &patch, true, &mut a);
        ops.deriv_advective(0, &patch, false, &mut b);
        assert!(a.iter().zip(b.iter()).any(|(x, y)| (x - y).abs() > 1e-6));
    }

    #[test]
    fn deriv_along_each_axis_picks_right_direction() {
        let h = 0.1;
        let ops = DerivOps::new(h);
        // f = 2x + 3y + 5z.
        let patch = fill_patch(|x, y, z| 2.0 * x + 3.0 * y + 5.0 * z, h);
        let mut out = vec![0.0; PatchLayout::octant().volume()];
        for (axis, expect) in [(0usize, 2.0f64), (1, 3.0), (2, 5.0)] {
            ops.deriv(axis, &patch, &mut out);
            for v in &out {
                assert!((v - expect).abs() < 1e-10, "axis {axis}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::patch::PatchLayout;
    use proptest::prelude::*;

    /// A full-mantissa pseudo-random patch in which about one value in
    /// eight is a signed zero, so the `0.0 + …` accumulator start meets
    /// `±0.0` terms.
    fn random_patch(mut s: u64) -> Vec<f64> {
        s |= 1;
        (0..PatchLayout::padded().volume())
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                match s % 16 {
                    0 => -0.0,
                    1 => 0.0,
                    _ => (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
                }
            })
            .collect()
    }

    /// The first point at which `fast` and `reference` differ in any bit.
    fn first_mismatch(fast: &[f64], reference: &[f64]) -> Option<(usize, f64, f64)> {
        let mut pairs = fast.iter().zip(reference).enumerate();
        pairs.find(|(_, (a, b))| a.to_bits() != b.to_bits()).map(|(i, (&a, &b))| (i, a, b))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn row_kernels_match_per_point_references_bitwise(
            seed in 0u64..u64::MAX,
            h in 1e-3f64..2.0,
        ) {
            let patch = random_patch(seed);
            let ops = DerivOps::new(h);
            let n = BLOCK_VOLUME;
            let block = || vec![0.0; n];
            for axis in 0..3 {
                let (mut r1, mut r2, mut rko) = (block(), block(), block());
                ops.apply_1d(axis, &ops.w1, ops.inv_h, &patch, &mut r1);
                ops.apply_1d(axis, &ops.w2, ops.inv_h * ops.inv_h, &patch, &mut r2);
                ops.apply_1d(axis, &KO_WEIGHTS, ops.inv_h / KO_NORM, &patch, &mut rko);
                let (mut d1, mut d2, mut ko) = (block(), block(), block());
                let (mut e1, mut eko) = (block(), block());
                let (mut s1, mut s2, mut sko) = (block(), block(), block());
                ops.axis_pass(axis, &patch, &mut d1, Some(&mut d2), &mut ko);
                ops.axis_pass(axis, &patch, &mut e1, None, &mut eko);
                ops.deriv(axis, &patch, &mut s1);
                ops.deriv2(axis, &patch, &mut s2);
                crate::ko::ko_deriv_axis(axis, 1.0 / h, &patch, &mut sko);
                for (what, fast, reference) in [
                    ("fused d1", &d1, &r1),
                    ("fused d2", &d2, &r2),
                    ("fused ko", &ko, &rko),
                    ("fused d1 without d2", &e1, &r1),
                    ("fused ko without d2", &eko, &rko),
                    ("deriv", &s1, &r1),
                    ("deriv2", &s2, &r2),
                    ("ko_deriv_axis", &sko, &rko),
                ] {
                    let m = first_mismatch(fast, reference);
                    prop_assert!(m.is_none(), "{what} axis {axis}: (point, fast, reference) {m:?}");
                }
            }
            for (a, b) in [(0usize, 1usize), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)] {
                let (mut fast, mut reference) = (block(), block());
                ops.deriv_mixed(a, b, &patch, &mut fast);
                ops.deriv_mixed_reference(a, b, &patch, &mut reference);
                let m = first_mismatch(&fast, &reference);
                prop_assert!(m.is_none(), "mixed ({a},{b}): (point, fast, reference) {m:?}");
            }
        }
    }

    // Random polynomial of degree ≤ 5 in one axis: the 6th-order FD
    // operators must differentiate it exactly.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn first_derivative_exact_on_random_quintics(
            c in prop::array::uniform6(-2.0f64..2.0),
            axis in 0usize..3,
        ) {
            let h = 0.1;
            let ops = DerivOps::new(h);
            let p = PatchLayout::padded();
            let poly = |t: f64| {
                c[0] + c[1]*t + c[2]*t*t + c[3]*t.powi(3) + c[4]*t.powi(4) + c[5]*t.powi(5)
            };
            let dpoly = |t: f64| {
                c[1] + 2.0*c[2]*t + 3.0*c[3]*t*t + 4.0*c[4]*t.powi(3) + 5.0*c[5]*t.powi(4)
            };
            let mut patch = vec![0.0; p.volume()];
            for (i, j, k) in p.iter() {
                let idx = [i, j, k][axis] as f64 - PADDING as f64;
                patch[p.idx(i, j, k)] = poly(idx * h);
            }
            let mut out = vec![0.0; PatchLayout::octant().volume()];
            ops.deriv(axis, &patch, &mut out);
            let o = PatchLayout::octant();
            for (i, j, k) in o.iter() {
                let t = [i, j, k][axis] as f64 * h;
                let expect = dpoly(t);
                prop_assert!((out[o.idx(i, j, k)] - expect).abs() < 1e-8 * (1.0 + expect.abs()));
            }
        }

        #[test]
        fn second_derivative_exact_on_random_quintics(
            c in prop::array::uniform6(-2.0f64..2.0),
            axis in 0usize..3,
        ) {
            let h = 0.1;
            let ops = DerivOps::new(h);
            let p = PatchLayout::padded();
            let poly = |t: f64| {
                c[0] + c[1]*t + c[2]*t*t + c[3]*t.powi(3) + c[4]*t.powi(4) + c[5]*t.powi(5)
            };
            let ddpoly = |t: f64| {
                2.0*c[2] + 6.0*c[3]*t + 12.0*c[4]*t*t + 20.0*c[5]*t.powi(3)
            };
            let mut patch = vec![0.0; p.volume()];
            for (i, j, k) in p.iter() {
                let idx = [i, j, k][axis] as f64 - PADDING as f64;
                patch[p.idx(i, j, k)] = poly(idx * h);
            }
            let mut out = vec![0.0; PatchLayout::octant().volume()];
            ops.deriv2(axis, &patch, &mut out);
            let o = PatchLayout::octant();
            for (i, j, k) in o.iter() {
                let t = [i, j, k][axis] as f64 * h;
                let expect = ddpoly(t);
                prop_assert!((out[o.idx(i, j, k)] - expect).abs() < 1e-7 * (1.0 + expect.abs()));
            }
        }
    }
}
