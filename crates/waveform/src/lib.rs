//! Gravitational-wave extraction.
//!
//! The paper extracts the Penrose scalar Ψ₄ on spheres at 50–100 M,
//! expanded in spin-weight −2 spherical harmonics with Lebedev quadrature
//! (section III-A, Fig. 4). This crate supplies:
//!
//! * [`complex`] — a minimal complex type (no external deps).
//! * [`swsh`](mod@swsh) — spin-weighted spherical harmonics `ₛYₗₘ` (general s, l, m
//!   via the Goldberg sum), validated against closed forms and checked
//!   orthonormal under quadrature.
//! * [`lebedev`] — Lebedev quadrature rules on S² (orders 3/5/7 with
//!   exact rational weights) plus a Gauss–Legendre × uniform-φ product
//!   rule for arbitrary-order integration.
//! * [`sphere`] — extraction spheres: quadrature nodes at radius R,
//!   6th-order Lagrange interpolation of mesh fields onto the nodes.
//! * [`extract`] — strain-mode extraction: h₊, h× in the transverse
//!   orthonormal frame, (l, m) mode decomposition, and Ψ₄ ≈ ḧ₊ − i ḧ×
//!   by time differentiation of the recorded series (wave-zone
//!   equivalence; the substitution is documented in DESIGN.md).
//! * [`series`] — waveform time series: amplitude, phase, alignment and
//!   difference norms (the Fig. 19/21 comparisons).
//! * [`chirp`] — a quadrupole-driven inspiral–merger–ringdown toy model
//!   generating physically-shaped h(t) for the propagation experiments.

pub mod chirp;
pub mod complex;
pub mod extract;
pub mod lebedev;
pub mod series;
pub mod sphere;
pub mod swsh;
pub mod weyl;

pub use complex::Complex;
pub use extract::{psi4_from_strain, ModeExtractor};
pub use lebedev::{lebedev_rule, product_rule, QuadNode};
pub use series::WaveformSeries;
pub use sphere::ExtractionSphere;
pub use swsh::swsh;
pub use weyl::{psi4_point, Psi4Extractor};
