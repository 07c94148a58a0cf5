//! Block storage for octant fields.

use gw_par::{ThreadPool, UnsafeSlice};
use gw_stencil::patch::{BLOCK_VOLUME, PATCH_VOLUME};
use std::ops::Range;

/// Chunk length for the element-wise parallel kernels (AXPY, copy): big
/// enough to amortize task dispatch, small enough to load-balance.
const AXPY_CHUNK: usize = 4096;

/// Run `f` on `pool` over the storage ranges of the first `octants`
/// blocks of each of `dof` variables of an `n_oct`-octant field, cut
/// into [`AXPY_CHUNK`] pieces that never span two variables.
fn for_each_prefix_chunk(
    dof: usize,
    n_oct: usize,
    octants: usize,
    pool: &ThreadPool,
    f: impl Fn(Range<usize>) + Sync,
) {
    assert!(octants <= n_oct, "{octants} of {n_oct} octants");
    let len = octants * BLOCK_VOLUME;
    let per_var = len.div_ceil(AXPY_CHUNK);
    pool.for_each(dof * per_var, |ci| {
        let (var, c) = (ci / per_var, ci % per_var);
        let s = var * n_oct * BLOCK_VOLUME + c * AXPY_CHUNK;
        f(s..s + AXPY_CHUNK.min(len - c * AXPY_CHUNK));
    });
}

/// A multi-dof field over the octants of a mesh: `dof × n_oct` blocks of
/// `r^3 = 343` points, laid out variable-major (`[var][octant][point]`) so
/// per-variable kernels stream contiguously — the access pattern of the
/// paper's octant-to-patch kernel grid `(|E|, dof)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    pub dof: usize,
    pub n_oct: usize,
    data: Vec<f64>,
}

impl Field {
    pub fn zeros(dof: usize, n_oct: usize) -> Self {
        Self { dof, n_oct, data: vec![0.0; dof * n_oct * BLOCK_VOLUME] }
    }

    /// Total scalar unknowns (counting duplicated boundary points).
    pub fn unknowns(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn block(&self, var: usize, oct: usize) -> &[f64] {
        let s = (var * self.n_oct + oct) * BLOCK_VOLUME;
        &self.data[s..s + BLOCK_VOLUME]
    }

    #[inline]
    pub fn block_mut(&mut self, var: usize, oct: usize) -> &mut [f64] {
        let s = (var * self.n_oct + oct) * BLOCK_VOLUME;
        &mut self.data[s..s + BLOCK_VOLUME]
    }

    /// Raw storage (e.g. for host↔device transfers).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    pub fn from_vec(dof: usize, n_oct: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), dof * n_oct * BLOCK_VOLUME);
        Self { dof, n_oct, data }
    }

    /// `self += a * other` (the RK AXPY update).
    pub fn axpy(&mut self, a: f64, other: &Field) {
        assert_eq!(self.data.len(), other.data.len());
        for (x, y) in self.data.iter_mut().zip(other.data.iter()) {
            *x += a * y;
        }
    }

    /// `self = base + a * slope` (RK stage formation).
    pub fn assign_axpy(&mut self, base: &Field, a: f64, slope: &Field) {
        assert_eq!(self.data.len(), base.data.len());
        assert_eq!(self.data.len(), slope.data.len());
        for ((x, b), s) in self.data.iter_mut().zip(base.data.iter()).zip(slope.data.iter()) {
            *x = b + a * s;
        }
    }

    /// Chunk-parallel [`Field::axpy`] over the first `octants` blocks of
    /// every variable (all of them: `self.n_oct`). Each output element
    /// depends only on its own input pair, so any chunking is
    /// bit-identical to serial.
    pub fn axpy_par(&mut self, a: f64, other: &Field, octants: usize, pool: &ThreadPool) {
        assert_eq!((self.dof, self.n_oct), (other.dof, other.n_oct));
        let out = UnsafeSlice::new(&mut self.data);
        for_each_prefix_chunk(self.dof, self.n_oct, octants, pool, |r| {
            // Safety: chunks are disjoint.
            let dst = unsafe { out.slice_mut(r.start, r.len()) };
            for (x, y) in dst.iter_mut().zip(&other.data[r]) {
                *x += a * y;
            }
        });
    }

    /// Chunk-parallel [`Field::assign_axpy`] over the first `octants`
    /// blocks of every variable.
    pub fn assign_axpy_par(
        &mut self,
        base: &Field,
        a: f64,
        slope: &Field,
        octants: usize,
        pool: &ThreadPool,
    ) {
        assert_eq!((self.dof, self.n_oct), (base.dof, base.n_oct));
        assert_eq!((self.dof, self.n_oct), (slope.dof, slope.n_oct));
        let out = UnsafeSlice::new(&mut self.data);
        for_each_prefix_chunk(self.dof, self.n_oct, octants, pool, |r| {
            // Safety: chunks are disjoint.
            let dst = unsafe { out.slice_mut(r.start, r.len()) };
            for ((x, b), sl) in dst.iter_mut().zip(&base.data[r.clone()]).zip(&slope.data[r]) {
                *x = b + a * sl;
            }
        });
    }

    /// Chunk-parallel copy of `other`'s first `octants` blocks of every
    /// variable into `self`.
    pub fn copy_from_par(&mut self, other: &Field, octants: usize, pool: &ThreadPool) {
        assert_eq!((self.dof, self.n_oct), (other.dof, other.n_oct));
        let out = UnsafeSlice::new(&mut self.data);
        for_each_prefix_chunk(self.dof, self.n_oct, octants, pool, |r| {
            // Safety: chunks are disjoint.
            unsafe { out.slice_mut(r.start, r.len()) }.copy_from_slice(&other.data[r]);
        });
    }

    /// Max-norm over one variable.
    pub fn linf(&self, var: usize) -> f64 {
        let s = var * self.n_oct * BLOCK_VOLUME;
        self.data[s..s + self.n_oct * BLOCK_VOLUME].iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Max-norm over everything.
    pub fn linf_all(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// RMS over one variable.
    pub fn rms(&self, var: usize) -> f64 {
        let s = var * self.n_oct * BLOCK_VOLUME;
        let sl = &self.data[s..s + self.n_oct * BLOCK_VOLUME];
        (sl.iter().map(|v| v * v).sum::<f64>() / sl.len() as f64).sqrt()
    }
}

/// Padded-patch storage: `dof × n_oct` patches of `(r+2k)^3 = 2197`
/// points — the "unzip" vector the octant-to-patch kernel fills.
#[derive(Clone, Debug)]
pub struct PatchField {
    pub dof: usize,
    pub n_oct: usize,
    data: Vec<f64>,
}

impl PatchField {
    pub fn zeros(dof: usize, n_oct: usize) -> Self {
        Self { dof, n_oct, data: vec![0.0; dof * n_oct * PATCH_VOLUME] }
    }

    #[inline]
    pub fn patch(&self, var: usize, oct: usize) -> &[f64] {
        let s = (var * self.n_oct + oct) * PATCH_VOLUME;
        &self.data[s..s + PATCH_VOLUME]
    }

    #[inline]
    pub fn patch_mut(&mut self, var: usize, oct: usize) -> &mut [f64] {
        let s = (var * self.n_oct + oct) * PATCH_VOLUME;
        &mut self.data[s..s + PATCH_VOLUME]
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Flat offset of a patch, for kernels working on raw buffers.
    #[inline]
    pub fn patch_offset(&self, var: usize, oct: usize) -> usize {
        (var * self.n_oct + oct) * PATCH_VOLUME
    }

    /// Fill everything with a sentinel (tests use NaN to prove that every
    /// padding point belonging to the domain interior gets written).
    pub fn fill(&mut self, v: f64) {
        self.data.iter_mut().for_each(|x| *x = v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_block_addressing_is_disjoint() {
        let mut f = Field::zeros(3, 5);
        for var in 0..3 {
            for oct in 0..5 {
                f.block_mut(var, oct)[0] = (var * 10 + oct) as f64;
            }
        }
        for var in 0..3 {
            for oct in 0..5 {
                assert_eq!(f.block(var, oct)[0], (var * 10 + oct) as f64);
            }
        }
        assert_eq!(f.unknowns(), 3 * 5 * 343);
    }

    #[test]
    fn axpy_updates() {
        let mut a = Field::zeros(1, 1);
        let mut b = Field::zeros(1, 1);
        a.block_mut(0, 0).iter_mut().for_each(|v| *v = 2.0);
        b.block_mut(0, 0).iter_mut().for_each(|v| *v = 3.0);
        a.axpy(0.5, &b);
        assert!(a.block(0, 0).iter().all(|&v| (v - 3.5).abs() < 1e-15));
        let mut c = Field::zeros(1, 1);
        c.assign_axpy(&a, 2.0, &b);
        assert!(c.block(0, 0).iter().all(|&v| (v - 9.5).abs() < 1e-15));
    }

    #[test]
    fn parallel_axpy_bitwise_matches_serial() {
        let n_oct = 5;
        let dof = 4;
        let mk = |seed: usize| {
            let mut f = Field::zeros(dof, n_oct);
            for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
                *v = ((seed * 7919 + i) as f64).cos();
            }
            f
        };
        let (x0, y, b, s) = (mk(1), mk(2), mk(3), mk(4));
        let mut x_ref = x0.clone();
        x_ref.axpy(0.3, &y);
        let mut z_ref = Field::zeros(dof, n_oct);
        z_ref.assign_axpy(&b, -1.7, &s);
        for threads in [1usize, 2, 7] {
            let pool = ThreadPool::new(threads);
            let mut x = x0.clone();
            x.axpy_par(0.3, &y, n_oct, &pool);
            assert_eq!(x, x_ref);
            let mut z = Field::zeros(dof, n_oct);
            z.assign_axpy_par(&b, -1.7, &s, n_oct, &pool);
            assert_eq!(z, z_ref);
            let mut c = Field::zeros(dof, n_oct);
            c.copy_from_par(&y, n_oct, &pool);
            assert_eq!(c, y);
            // Over a prefix: the first `k` blocks of every variable take
            // the serial result, the rest keep their values.
            let k = 2;
            let mut x = x0.clone();
            x.axpy_par(0.3, &y, k, &pool);
            let mut z = x0.clone();
            z.assign_axpy_par(&b, -1.7, &s, k, &pool);
            let mut c = x0.clone();
            c.copy_from_par(&y, k, &pool);
            for var in 0..dof {
                for oct in 0..n_oct {
                    let want =
                        |done: &Field| if oct < k { done } else { &x0 }.block(var, oct).to_vec();
                    assert_eq!(x.block(var, oct), want(&x_ref), "axpy ({var}, {oct})");
                    assert_eq!(z.block(var, oct), want(&z_ref), "assign_axpy ({var}, {oct})");
                    assert_eq!(c.block(var, oct), want(&y), "copy ({var}, {oct})");
                }
            }
        }
    }

    #[test]
    fn norms() {
        let mut f = Field::zeros(2, 1);
        f.block_mut(1, 0)[7] = -4.0;
        assert_eq!(f.linf(0), 0.0);
        assert_eq!(f.linf(1), 4.0);
        assert_eq!(f.linf_all(), 4.0);
        assert!(f.rms(1) > 0.0 && f.rms(1) < 4.0);
    }

    #[test]
    fn patch_field_addressing() {
        let mut p = PatchField::zeros(2, 3);
        p.patch_mut(1, 2)[100] = 9.0;
        assert_eq!(p.patch(1, 2)[100], 9.0);
        assert_eq!(p.patch(0, 2)[100], 0.0);
        assert_eq!(p.patch_offset(1, 2), (3 + 2) * 2197);
    }
}
