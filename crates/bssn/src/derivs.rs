//! The 210-derivative evaluation on a padded patch.
//!
//! Section IV-B: every RHS evaluation needs, per grid point, 72 first
//! derivatives (3 × 24 variables), 66 second derivatives (6 pairs × 11
//! variables) and 72 KO derivatives — 210 in total. This module computes
//! them for a whole `r^3` octant block from the 24 padded patches and
//! assembles the per-point 234-entry input vector for the `A` component.

use gw_expr::symbols::{input_d1, input_d2, input_ko, second_deriv_slot, NUM_INPUTS, NUM_VARS};
use gw_stencil::fd::DerivOps;
use gw_stencil::patch::BLOCK_VOLUME;

/// Number of derivative blocks (the paper's 210).
pub const NUM_DERIV_BLOCKS: usize = 210;

/// Thread-local storage for all derivative blocks of one octant.
///
/// 210 blocks × 343 points × 8 B ≈ 0.58 MB — the "tremendous memory
/// pressure" the paper attributes to the RHS (section I).
pub struct DerivWorkspace {
    /// `[input_slot - NUM_VARS]`, i.e. indexed by the flat input index
    /// minus the 24 field values.
    data: Vec<[f64; BLOCK_VOLUME]>,
    /// The stencil weight tables, generated once and rebound to each
    /// octant's spacing.
    ops: DerivOps,
}

impl Default for DerivWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl DerivWorkspace {
    pub fn new() -> Self {
        Self { data: vec![[0.0; BLOCK_VOLUME]; NUM_DERIV_BLOCKS], ops: DerivOps::new(1.0) }
    }

    #[inline]
    fn block_mut(&mut self, input_slot: usize) -> &mut [f64] {
        &mut self.data[input_slot - NUM_VARS]
    }

    /// The distinct blocks of derivative slots `slots`, all borrowed at once.
    fn blocks_mut<const K: usize>(&mut self, slots: [usize; K]) -> [&mut [f64]; K] {
        self.data
            .get_disjoint_mut(slots.map(|s| s - NUM_VARS))
            .expect("distinct derivative slots")
            .map(|b| b.as_mut_slice())
    }

    /// The `r^3` block of flat input `input_slot` (a derivative slot).
    #[inline]
    pub fn block(&self, input_slot: usize) -> &[f64] {
        &self.data[input_slot - NUM_VARS]
    }

    #[inline]
    pub fn value(&self, input_slot: usize, point: usize) -> f64 {
        self.data[input_slot - NUM_VARS][point]
    }

    /// Compute all 210 derivative blocks from the 24 padded patches of one
    /// octant. `patches[v]` is variable `v`'s `(r+2k)^3` patch; `h` the
    /// octant grid spacing.
    ///
    /// Per variable and axis, one fused row pass
    /// ([`DerivOps::axis_pass`]) writes the first, pure second (for the 11
    /// variables that have them) and KO derivatives; the mixed ones
    /// follow from [`DerivOps::deriv_mixed`].
    ///
    /// Returns the paper's operation-count *model* of the evaluation —
    /// 13 flops/point per 7-point stencil and 97 flops/point per mixed
    /// derivative, the direct 49-point tensor product — not the count
    /// executed: the sum-factorized [`DerivOps::deriv_mixed`] does fewer.
    /// The model is what the Fig. 14 arithmetic intensity and the
    /// `bssn.deriv_gflop` metric are defined on, so it stays fixed when
    /// the kernels get cheaper.
    pub fn compute(&mut self, patches: &[&[f64]], h: f64) -> u64 {
        assert_eq!(patches.len(), NUM_VARS);
        let ops = self.ops.with_spacing(h);
        const STENCIL: u64 = 13 * BLOCK_VOLUME as u64;
        const MIXED: u64 = 97 * BLOCK_VOLUME as u64;
        let mut flops = 0u64;
        for (v, patch) in patches.iter().enumerate() {
            let second = second_deriv_slot(v).is_some();
            for axis in 0..3 {
                let (d1, ko) = (input_d1(v, axis), input_ko(v, axis));
                if second {
                    let [d1, d2, ko] = self.blocks_mut([d1, input_d2(v, axis, axis), ko]);
                    ops.axis_pass(axis, patch, d1, Some(d2), ko);
                    flops += 3 * STENCIL;
                } else {
                    let [d1, ko] = self.blocks_mut([d1, ko]);
                    ops.axis_pass(axis, patch, d1, None, ko);
                    flops += 2 * STENCIL;
                }
            }
            if second {
                for (a, b) in [(0usize, 1usize), (0, 2), (1, 2)] {
                    ops.deriv_mixed(a, b, patch, self.block_mut(input_d2(v, a, b)));
                    flops += MIXED;
                }
            }
        }
        flops
    }

    /// Assemble the 234-entry input vector of block point `point`: the 24
    /// field values `fields_at_point` (see [`fields_at`]; any floor is the
    /// caller's) followed by the point's 210 derivatives.
    pub fn assemble_inputs(
        &self,
        fields_at_point: &[f64; NUM_VARS],
        point: usize,
        out: &mut [f64],
    ) {
        debug_assert!(out.len() >= NUM_INPUTS);
        out[..NUM_VARS].copy_from_slice(fields_at_point);
        for slot in NUM_VARS..NUM_INPUTS {
            out[slot] = self.value(slot, point);
        }
    }
}

/// Extract the 24 field values at a block point from the patches (the
/// interior of each patch).
pub fn fields_at(patches: &[&[f64]], i: usize, j: usize, k: usize) -> [f64; NUM_VARS] {
    use gw_stencil::patch::{PatchLayout, PADDING};
    let p = PatchLayout::padded();
    let idx = p.idx(i + PADDING, j + PADDING, k + PADDING);
    let mut out = [0.0; NUM_VARS];
    for (v, o) in out.iter_mut().enumerate() {
        *o = patches[v][idx];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_expr::symbols::{input_value, var};
    use gw_stencil::patch::{PatchLayout, PADDING};

    /// Build 24 patches where variable v holds a distinct polynomial.
    fn poly_patches(h: f64) -> Vec<Vec<f64>> {
        let p = PatchLayout::padded();
        (0..NUM_VARS)
            .map(|v| {
                let c = v as f64 + 1.0;
                let mut buf = vec![0.0; p.volume()];
                for (i, j, k) in p.iter() {
                    let x = (i as f64 - PADDING as f64) * h;
                    let y = (j as f64 - PADDING as f64) * h;
                    let z = (k as f64 - PADDING as f64) * h;
                    buf[p.idx(i, j, k)] = c * (x * x * y + 0.5 * z * z - x * y * z) + c;
                }
                buf
            })
            .collect()
    }

    #[test]
    fn derivatives_of_polynomials_exact() {
        let h = 0.1;
        let patches = poly_patches(h);
        let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
        let mut ws = DerivWorkspace::new();
        let flops = ws.compute(&refs, h);
        assert!(flops > 0);
        let o = PatchLayout::octant();
        for v in [var::ALPHA, var::CHI, var::K, var::at(1, 2)] {
            let c = v as f64 + 1.0;
            for (i, j, k) in o.iter() {
                let (x, y, z) = (i as f64 * h, j as f64 * h, k as f64 * h);
                let pt = o.idx(i, j, k);
                // f = c(x²y + z²/2 − xyz) + c
                let dx = c * (2.0 * x * y - y * z);
                let dy = c * (x * x - x * z);
                let dz = c * (z - x * y);
                assert!((ws.value(input_d1(v, 0), pt) - dx).abs() < 1e-9);
                assert!((ws.value(input_d1(v, 1), pt) - dy).abs() < 1e-9);
                assert!((ws.value(input_d1(v, 2), pt) - dz).abs() < 1e-9);
            }
        }
        // Second derivatives for a var that has them.
        let v = var::CHI;
        let c = v as f64 + 1.0;
        for (i, j, k) in o.iter() {
            let (x, y, z) = (i as f64 * h, j as f64 * h, k as f64 * h);
            let pt = o.idx(i, j, k);
            assert!((ws.value(input_d2(v, 0, 0), pt) - c * 2.0 * y).abs() < 1e-8);
            assert!((ws.value(input_d2(v, 2, 2), pt) - c).abs() < 1e-8);
            assert!((ws.value(input_d2(v, 0, 1), pt) - c * (2.0 * x - z)).abs() < 1e-8);
            assert!((ws.value(input_d2(v, 1, 2), pt) - c * (-x)).abs() < 1e-8);
        }
    }

    #[test]
    fn ko_vanishes_on_low_order_polynomials() {
        let h = 0.1;
        let patches = poly_patches(h);
        let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
        let mut ws = DerivWorkspace::new();
        ws.compute(&refs, h);
        for v in 0..NUM_VARS {
            for axis in 0..3 {
                for pt in 0..BLOCK_VOLUME {
                    assert!(ws.value(input_ko(v, axis), pt).abs() < 1e-8);
                }
            }
        }
    }

    #[test]
    fn assemble_inputs_layout() {
        let h = 0.2;
        let patches = poly_patches(h);
        let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
        let mut ws = DerivWorkspace::new();
        ws.compute(&refs, h);
        let o = PatchLayout::octant();
        let (i, j, k) = (2, 3, 4);
        let fields = fields_at(&refs, i, j, k);
        let mut u = vec![0.0; NUM_INPUTS];
        ws.assemble_inputs(&fields, o.idx(i, j, k), &mut u);
        // Field values in the first 24 slots.
        for v in 0..NUM_VARS {
            let c = v as f64 + 1.0;
            let (x, y, z) = (i as f64 * h, j as f64 * h, k as f64 * h);
            let expect = c * (x * x * y + 0.5 * z * z - x * y * z) + c;
            assert!((u[input_value(v)] - expect).abs() < 1e-12);
        }
        // A spot-checked derivative slot.
        assert_eq!(u[input_d1(3, 1)], ws.value(input_d1(3, 1), o.idx(i, j, k)));
    }

    #[test]
    fn paper_derivative_count() {
        // 72 + 66 + 72 = 210 blocks.
        assert_eq!(NUM_DERIV_BLOCKS, 210);
        assert_eq!(NUM_INPUTS - NUM_VARS, NUM_DERIV_BLOCKS);
    }
}
