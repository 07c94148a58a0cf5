//! BSSN physics: equations, initial data, gauge, constraints.
//!
//! This crate supplies the numerical-relativity content of the solver:
//!
//! * [`point`] — a **handwritten** pointwise BSSN RHS (Eqs. 1–19 of the
//!   paper), deliberately written independently of the symbolic generator
//!   in `gw-expr` and cross-validated against it in the tests. The solver
//!   can run either this or a generated tape; agreement of the two is the
//!   same check the paper performs between hand code and SymPyGR output.
//! * [`real`] — the [`Real`] number type the handwritten RHS is generic
//!   over: `f64` for one point, [`Lanes`] for a structure-of-arrays batch.
//! * [`derivs`] — the 210-derivative evaluation on a padded patch: 72
//!   first, 66 second, 72 Kreiss–Oliger derivatives per point, assembled
//!   into the 234-entry input vector the `A` component consumes.
//! * [`rhs`] — the per-patch fused RHS driver (derivatives + `A`), the
//!   host-side reference for the device kernels in `gw-core`.
//! * [`init`] — initial data: Brandt–Brügmann punctures with Bowen–York
//!   extrinsic curvature (binary black holes), and a linearized
//!   gravitational-wave packet with an analytic solution (propagation and
//!   convergence studies, Figs. 19/21 substitutions).
//! * [`constraints`] — Hamiltonian and momentum constraint monitors.
//! * [`sommerfeld`] — radiative (Sommerfeld) outer-boundary RHS.

// Tensor-index loops (`for k in 0..3`) mirror the written math
// throughout this crate; enumerate() forms would obscure the index
// symmetry.
#![allow(clippy::needless_range_loop)]

pub mod constraints;
pub mod derivs;
pub mod init;
pub mod point;
pub mod real;
pub mod rhs;
pub mod sommerfeld;

pub use derivs::DerivWorkspace;
pub use gw_expr::bssn::BssnParams;
pub use point::bssn_rhs_point;
pub use real::{Lanes, Real};
pub use rhs::{bssn_rhs_patch, RhsMode};
