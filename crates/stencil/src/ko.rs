//! Kreiss–Oliger dissipation.
//!
//! KO dissipation (Kreiss & Oliger 1972) removes the high-frequency noise
//! generated near the punctures (section III-A of the paper). For a scheme
//! with `k = 3` ghost layers the widest centered difference that fits is the
//! 7-point 6th difference, giving the operator
//!
//! ```text
//! Q u = σ / (64 h) · (u_{i-3} − 6 u_{i-2} + 15 u_{i-1} − 20 u_i
//!                     + 15 u_{i+1} − 6 u_{i+2} + u_{i+3})
//! ```
//!
//! applied along each axis and summed — exactly Dendro-GR's `ko_deriv`
//! with the conventional `2^{2p}` normalization (`p = 3` → 64). The sign is
//! chosen so that `∂_t u += Q u` damps: the symbol of the 6th difference is
//! `−(2 sin(ξ/2))^6 ≤ 0`, scaled by `+σ/64`.

use crate::fd::stencil_rows;
use crate::patch::{PatchLayout, PADDING, PATCH_SIDE, POINTS_PER_SIDE};

/// 7-point 6th-difference coefficients (binomial row 6, alternating sign).
pub const KO_WEIGHTS: [f64; 7] = [1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0];

/// Normalization `2^{2p}` for `p = 3`.
pub const KO_NORM: f64 = 64.0;

/// Apply KO dissipation to a padded patch, **accumulating** `σ Q u` into
/// the `r^3` output block (so it can be fused into an RHS that was already
/// written).
pub fn ko_dissipation(sigma: f64, inv_h: f64, patch: &[f64], out: &mut [f64]) {
    let p = PatchLayout::padded();
    let o = PatchLayout::octant();
    debug_assert_eq!(patch.len(), p.volume());
    debug_assert_eq!(out.len(), o.volume());
    let scale = sigma * inv_h / KO_NORM;
    let strides = [1isize, PATCH_SIDE as isize, (PATCH_SIDE * PATCH_SIDE) as isize];
    for kz in 0..POINTS_PER_SIDE {
        for ky in 0..POINTS_PER_SIDE {
            for kx in 0..POINTS_PER_SIDE {
                let c = p.idx(kx + PADDING, ky + PADDING, kz + PADDING) as isize;
                let mut acc = 0.0;
                for &st in &strides {
                    for (t, &w) in KO_WEIGHTS.iter().enumerate() {
                        let off = t as isize - 3;
                        acc += w * patch[(c + off * st) as usize];
                    }
                }
                out[o.idx(kx, ky, kz)] += acc * scale;
            }
        }
    }
}

/// The 1D KO derivative of a single axis, written (not accumulated) to the
/// output block. Used where the code generator wants the 72 KO derivatives
/// as separate inputs (section IV-B counts them in the 210).
pub fn ko_deriv_axis(axis: usize, inv_h: f64, patch: &[f64], out: &mut [f64]) {
    stencil_rows(axis, patch, [(&KO_WEIGHTS, inv_h / KO_NORM)], [out]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_patch(f: impl Fn(f64, f64, f64) -> f64, h: f64) -> Vec<f64> {
        let p = PatchLayout::padded();
        let mut v = vec![0.0; p.volume()];
        for (i, j, k) in p.iter() {
            let x = (i as f64 - PADDING as f64) * h;
            let y = (j as f64 - PADDING as f64) * h;
            let z = (k as f64 - PADDING as f64) * h;
            v[p.idx(i, j, k)] = f(x, y, z);
        }
        v
    }

    #[test]
    fn weights_sum_to_zero() {
        // A 6th difference annihilates constants (and polynomials ≤ 5).
        assert_eq!(KO_WEIGHTS.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn vanishes_on_degree5_polynomial() {
        let h = 0.1;
        let patch = fill_patch(|x, y, z| x.powi(5) + y.powi(4) - 3.0 * z.powi(3) + x * y, h);
        let mut out = vec![0.0; PatchLayout::octant().volume()];
        ko_dissipation(0.4, 1.0 / h, &patch, &mut out);
        for v in &out {
            assert!(v.abs() < 1e-6, "KO must annihilate smooth low-order fields, got {v}");
        }
    }

    #[test]
    fn damps_highest_frequency_mode() {
        // The Nyquist mode u_i = (-1)^i is the worst offender; Q u must have
        // sign opposite to u (damping) at every point.
        let p = PatchLayout::padded();
        let mut patch = vec![0.0; p.volume()];
        for (i, j, k) in p.iter() {
            patch[p.idx(i, j, k)] = if (i + j + k) % 2 == 0 { 1.0 } else { -1.0 };
        }
        let mut out = vec![0.0; PatchLayout::octant().volume()];
        let sigma = 0.1;
        ko_dissipation(sigma, 1.0, &patch, &mut out);
        let o = PatchLayout::octant();
        for (i, j, k) in o.iter() {
            let u = patch[p.idx(i + PADDING, j + PADDING, k + PADDING)];
            let q = out[o.idx(i, j, k)];
            assert!(u * q < 0.0, "Q u must oppose u at ({i},{j},{k}): u={u} q={q}");
            // Magnitude: 3 axes × 64/64 × σ = 3σ per unit amplitude.
            assert!((q.abs() - 3.0 * sigma).abs() < 1e-12);
        }
    }

    #[test]
    fn accumulates_into_output() {
        let patch = fill_patch(|x, _, _| (8.0 * x).sin(), 0.1);
        let mut out = vec![5.0; PatchLayout::octant().volume()];
        let mut fresh = vec![0.0; PatchLayout::octant().volume()];
        ko_dissipation(0.3, 10.0, &patch, &mut out);
        ko_dissipation(0.3, 10.0, &patch, &mut fresh);
        for (a, b) in out.iter().zip(fresh.iter()) {
            assert!((a - (b + 5.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn axis_derivatives_sum_to_total() {
        let patch = fill_patch(|x, y, z| (5.0 * x).sin() + (7.0 * y).cos() + (3.0 * z).sin(), 0.1);
        let o = PatchLayout::octant();
        let mut total = vec![0.0; o.volume()];
        ko_dissipation(1.0, 10.0, &patch, &mut total);
        let mut parts = vec![0.0; o.volume()];
        for axis in 0..3 {
            let mut a = vec![0.0; o.volume()];
            ko_deriv_axis(axis, 10.0, &patch, &mut a);
            for (p, v) in parts.iter_mut().zip(a.iter()) {
                *p += v;
            }
        }
        for (a, b) in total.iter().zip(parts.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn scales_linearly_with_sigma() {
        let patch = fill_patch(|x, y, _| (9.0 * x).sin() * (9.0 * y).cos(), 0.1);
        let o = PatchLayout::octant();
        let mut s1 = vec![0.0; o.volume()];
        let mut s2 = vec![0.0; o.volume()];
        ko_dissipation(0.2, 10.0, &patch, &mut s1);
        ko_dissipation(0.4, 10.0, &patch, &mut s2);
        for (a, b) in s1.iter().zip(s2.iter()) {
            assert!((2.0 * a - b).abs() < 1e-12);
        }
    }
}
