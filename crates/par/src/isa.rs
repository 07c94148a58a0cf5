//! The host's vector instruction set, and kernels compiled once per tier.
//!
//! The workspace is built for baseline x86-64 (SSE2, two `f64` per
//! register) so that one binary runs on any x86-64 host. The hot
//! structure-of-arrays kernels are additionally compiled for two wider
//! tiers, and [`Isa::host`] picks the widest one the running CPU
//! supports. The choice comes from the CPU alone: there is no setting.
//!
//! A tiered kernel is one `#[inline(always)]` body behind
//! [`isa_dispatch!`](crate::isa_dispatch), which wraps it in one thin,
//! out-of-line function per tier (`#[target_feature(enable = "avx2")]`,
//! `#[target_feature(enable = "avx512f")]`, and none for
//! [`Isa::Baseline`]) and calls the wrapper of the tier it is given.
//! Every tier runs the same source, so every lane executes the same
//! correctly rounded IEEE operations in the same order and only the
//! register width changes: results are bit-identical across tiers
//! (DESIGN.md §18). No tier names `fma`. `avx512f` implies it in rustc,
//! but Rust never contracts a multiply and an add into a fused one, and
//! the root `clippy.toml` bans `f64::mul_add`.

use std::fmt;

/// A vector tier a kernel can be compiled for, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// The build target's own features: SSE2 on x86-64.
    Baseline,
    /// 256-bit AVX2, four `f64` per register.
    Avx2,
    /// 512-bit AVX-512F, eight `f64` per register.
    Avx512,
}

impl Isa {
    /// Every tier, narrowest first.
    pub const ALL: [Isa; 3] = [Isa::Baseline, Isa::Avx2, Isa::Avx512];

    /// The widest tier this CPU supports.
    pub fn host() -> Isa {
        Self::ALL.into_iter().rev().find(|isa| isa.is_available()).unwrap_or(Isa::Baseline)
    }

    /// Whether this CPU can run code compiled for the tier.
    pub fn is_available(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The tier's name as banners and traces print it.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Compile one kernel body once per [`Isa`] tier and call the tier named
/// by the first argument.
///
/// ```
/// # use gw_par::isa::Isa;
/// #[inline(always)]
/// fn scale_body<const L: usize>(_isa: Isa, k: f64, xs: &mut [[f64; L]]) {
///     for x in xs.iter_mut().flatten() {
///         *x *= k;
///     }
/// }
///
/// gw_par::isa_dispatch! {
///     /// `xs *= k`, compiled for tier `isa`.
///     fn scale_at<const L: usize>(isa: Isa, k: f64, xs: &mut [[f64; L]]) = scale_body;
/// }
///
/// let mut xs = [[1.5; 8]; 4];
/// scale_at(Isa::host(), 2.0, &mut xs);
/// assert_eq!(xs, [[3.0; 8]; 4]);
/// ```
///
/// The generated function asserts that the host supports `isa` and calls
/// `body(isa, args…)` through a wrapper compiled for that tier; the body
/// gets the tier so it can hand it on to a nested tiered kernel. The body
/// and everything it calls must be `#[inline(always)]`, or the tier
/// wrappers call the baseline-compiled code and gain nothing. The
/// wrappers are `#[inline(never)]`, so each tiered kernel stays one
/// function per tier and a caller never absorbs it.
#[macro_export]
macro_rules! isa_dispatch {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident $(<$(const $g:ident : $gt:ty),+>)?
            ($isa:ident : Isa $(, $arg:ident : $ty:ty)* $(,)?) $(-> $ret:ty)?
            = $body:path;
    ) => {
        $(#[$attr])*
        #[inline]
        $vis fn $name $(<$(const $g: $gt),+>)? (
            $isa: $crate::isa::Isa $(, $arg: $ty)*
        ) $(-> $ret)? {
            #[inline(never)]
            fn baseline $(<$(const $g: $gt),+>)? (
                $isa: $crate::isa::Isa $(, $arg: $ty)*
            ) $(-> $ret)? {
                $body($isa $(, $arg)*)
            }

            #[cfg(target_arch = "x86_64")]
            #[inline(never)]
            #[target_feature(enable = "avx2")]
            fn avx2 $(<$(const $g: $gt),+>)? (
                $isa: $crate::isa::Isa $(, $arg: $ty)*
            ) $(-> $ret)? {
                $body($isa $(, $arg)*)
            }

            #[cfg(target_arch = "x86_64")]
            #[inline(never)]
            #[target_feature(enable = "avx512f")]
            fn avx512 $(<$(const $g: $gt),+>)? (
                $isa: $crate::isa::Isa $(, $arg: $ty)*
            ) $(-> $ret)? {
                $body($isa $(, $arg)*)
            }

            assert!($isa.is_available(), "this CPU does not support the {} tier", $isa);
            match $isa {
                // SAFETY: the host supports AVX2 (asserted above).
                #[cfg(target_arch = "x86_64")]
                $crate::isa::Isa::Avx2 => unsafe { avx2($isa $(, $arg)*) },
                // SAFETY: the host supports AVX-512F (asserted above).
                #[cfg(target_arch = "x86_64")]
                $crate::isa::Isa::Avx512 => unsafe { avx512($isa $(, $arg)*) },
                _ => baseline($isa $(, $arg)*),
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_is_the_widest_available_tier() {
        let host = Isa::host();
        assert!(host.is_available());
        assert!(Isa::Baseline.is_available());
        for isa in Isa::ALL {
            assert!(!isa.is_available() || isa <= host, "{isa} available above {host}");
        }
        assert_eq!(Isa::ALL.map(Isa::name), ["baseline", "avx2", "avx512"]);
    }

    #[inline(always)]
    fn axpy_body<const L: usize>(_isa: Isa, a: f64, x: &[[f64; L]], y: &mut [[f64; L]]) -> usize {
        for (yl, xl) in y.iter_mut().zip(x) {
            for (yi, xi) in yl.iter_mut().zip(xl) {
                *yi += a * xi;
            }
        }
        x.len()
    }

    crate::isa_dispatch! {
        fn axpy_at<const L: usize>(isa: Isa, a: f64, x: &[[f64; L]], y: &mut [[f64; L]]) -> usize
            = axpy_body;
    }

    #[test]
    fn every_available_tier_runs_the_body_bitwise() {
        let x: Vec<[f64; 8]> =
            (0..5).map(|i| std::array::from_fn(|l| (i * 8 + l) as f64 * 0.1 - 1.3)).collect();
        let mut want = vec![[0.7; 8]; 5];
        axpy_at(Isa::Baseline, 1.0 / 3.0, &x, &mut want);
        for isa in Isa::ALL {
            if !isa.is_available() {
                println!("tier {isa} not available on this host: skipped");
                continue;
            }
            let mut y = vec![[0.7; 8]; 5];
            assert_eq!(axpy_at(isa, 1.0 / 3.0, &x, &mut y), 5);
            let bits = |v: &[[f64; 8]]| v.iter().flatten().map(|z| z.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y), bits(&want), "{isa}");
        }
    }
}
