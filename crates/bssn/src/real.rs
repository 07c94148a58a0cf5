//! The number type the handwritten `A` is written against.
//!
//! [`bssn_rhs_point`](crate::point::bssn_rhs_point) is one transcription,
//! generic over [`Real`]: `f64` runs it at one grid point, and
//! [`Lanes<L>`] runs it at `L` points at once, structure-of-arrays. Every
//! `Lanes` operation is the `f64` operation applied lane by lane — no
//! fused multiply-add, no reassociation — and literals enter as
//! [`Real::splat`] in the positions the scalar code has them, so lane `l`
//! of a batch is bit-identical to the `f64` evaluation of point `l`
//! (DESIGN.md §15).

use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Elementwise IEEE arithmetic on one value per lane.
pub trait Real:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// `x` in every lane.
    fn splat(x: f64) -> Self;
}

impl Real for f64 {
    #[inline(always)]
    fn splat(x: f64) -> Self {
        x
    }
}

/// `L` values, one per grid point, operated on lane by lane.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(transparent)]
pub struct Lanes<const L: usize>(pub [f64; L]);

impl<const L: usize> Lanes<L> {
    /// A structure-of-arrays buffer (one `[f64; L]` per variable) viewed
    /// as lanes.
    pub(crate) fn from_arrays(s: &[[f64; L]]) -> &[Self] {
        // SAFETY: `Lanes<L>` is `repr(transparent)` over `[f64; L]`, so
        // both have the same size, alignment and valid bit patterns; the
        // view has `s`'s length and borrows `s`.
        unsafe { std::slice::from_raw_parts(s.as_ptr().cast(), s.len()) }
    }

    /// The mutable form of [`Lanes::from_arrays`].
    pub(crate) fn from_arrays_mut(s: &mut [[f64; L]]) -> &mut [Self] {
        // SAFETY: as in `from_arrays`; the view holds `s`'s unique borrow.
        unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast(), s.len()) }
    }
}

macro_rules! lanewise {
    ($Op:ident, $op:ident, $OpAssign:ident, $op_assign:ident) => {
        impl<const L: usize> $OpAssign for Lanes<L> {
            #[inline(always)]
            fn $op_assign(&mut self, rhs: Self) {
                for (a, b) in self.0.iter_mut().zip(rhs.0) {
                    a.$op_assign(b);
                }
            }
        }

        impl<const L: usize> $Op for Lanes<L> {
            type Output = Self;
            #[inline(always)]
            fn $op(mut self, rhs: Self) -> Self {
                self.$op_assign(rhs);
                self
            }
        }
    };
}

lanewise!(Add, add, AddAssign, add_assign);
lanewise!(Sub, sub, SubAssign, sub_assign);
lanewise!(Mul, mul, MulAssign, mul_assign);
lanewise!(Div, div, DivAssign, div_assign);

impl<const L: usize> Neg for Lanes<L> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self(self.0.map(|x| -x))
    }
}

impl<const L: usize> Real for Lanes<L> {
    #[inline(always)]
    fn splat(x: f64) -> Self {
        Self([x; L])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_ops_are_the_scalar_ops_per_lane() {
        let a = Lanes([1.5, -0.0, 3.0, f64::MIN_POSITIVE]);
        let b = Lanes([0.1, 0.0, -7.0, 3.0]);
        let each = |f: fn(f64, f64) -> f64| Lanes(std::array::from_fn(|l| f(a.0[l], b.0[l])));
        let bits = |x: Lanes<4>| x.0.map(f64::to_bits);
        assert_eq!(bits(a + b), bits(each(|x, y| x + y)));
        assert_eq!(bits(a - b), bits(each(|x, y| x - y)));
        assert_eq!(bits(a * b), bits(each(|x, y| x * y)));
        assert_eq!(bits(a / b), bits(each(|x, y| x / y)));
        assert_eq!(bits(-a), a.0.map(|x| (-x).to_bits()));
        assert_eq!(Lanes::<4>::splat(2.5), Lanes([2.5; 4]));
    }

    #[test]
    fn array_views_alias_the_buffer() {
        let mut buf = vec![[1.0, 2.0], [3.0, 4.0]];
        assert_eq!(Lanes::from_arrays(&buf)[1], Lanes([3.0, 4.0]));
        Lanes::from_arrays_mut(&mut buf)[0] += Lanes([0.5, 0.5]);
        assert_eq!(buf[0], [1.5, 2.5]);
    }
}
