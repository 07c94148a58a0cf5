//! Mesh layer: octree → computational grid.
//!
//! Builds everything the solver kernels need from a balanced linear octree:
//!
//! * [`field`] — per-octant block storage for multi-dof fields (`r^3`
//!   points per octant) and their padded-patch counterparts (`(r+2k)^3`).
//! * [`grid`] — the [`grid::Mesh`]: octant geometry, the `O2P`
//!   (octant-to-neighboring-patches) scatter map precomputed at grid
//!   construction (section IV-A), domain-boundary padding regions, and the
//!   fine→coarse interface-sync map.
//! * [`scatter`] — *loop-over-octants* octant-to-patch: each octant
//!   scatters its data into neighbor patches with direct copy / injection /
//!   interpolation per the 2:1 case analysis (Algorithm 2). Plus
//!   patch-to-octant (pure copy-back) and interface sync.
//! * [`halo`] — the host octant-to-patch path: prolong each coarse
//!   source once into a [`halo::ProlongedHalo`], then gather one octant's
//!   patches at a time into a caller-owned staging buffer.
//! * [`gather`] — *loop-over-patches* octant-to-patch (the Dendro-GR
//!   baseline the paper improves on, Fig. 7): each patch pulls from its
//!   neighbors, re-interpolating per target (redundant interpolations).
//!
//! ## Storage convention (substitution note)
//!
//! Dendro-GR stores a deduplicated global point vector ("zipped") and
//! materializes blocks+padding on demand ("unzip"). We store each octant's
//! full `r^3` block including shared boundary points (duplicated across
//! face-adjacent octants). At equal refinement the duplicated points evolve
//! bit-identically (same stencil inputs), so no synchronization is needed;
//! across coarse–fine interfaces the fine side is authoritative and
//! [`scatter::sync_interfaces`] re-injects fine face values into the
//! overlapping coarse points after each step — the same semantics Dendro's
//! hanging-node zip/unzip pair provides, at the cost of ~15% extra memory.

pub mod field;
pub mod gather;
pub mod grid;
pub mod halo;
pub mod scatter;

pub use field::{Field, PatchField};
pub use grid::{Mesh, MeshError, ScatterKind, ScatterOp};
pub use halo::ProlongedHalo;
pub use scatter::{fill_patches_scatter, patches_to_octants, sync_interfaces, sync_interfaces_par};
