//! Physical-boundary handling: face masks and the Sommerfeld
//! (radiative) RHS override.
//!
//! Shared by both execution backends (`crate::backend`) and the
//! distributed driver (`crate::multi`): every RHS evaluation finishes
//! by overwriting the freshly computed time derivatives on outer-domain
//! faces with the outgoing-wave condition (paper §III-A).

use gw_bssn::rhs::RhsWorkspace;
use gw_bssn::sommerfeld::sommerfeld_rhs_point;
use gw_expr::symbols::NUM_VARS;
use gw_mesh::Mesh;
use gw_stencil::patch::{PatchLayout, POINTS_PER_SIDE};

/// Per-octant boundary-face mask: bit `2a` = low face on axis `a`, bit
/// `2a+1` = high face. Sommerfeld conditions are applied at points on
/// these faces.
pub fn boundary_face_masks(mesh: &Mesh) -> Vec<u8> {
    let mut masks = vec![0u8; mesh.n_octants()];
    for &(oct, delta) in &mesh.boundary_regions {
        for a in 0..3 {
            if delta[a] == -1 && delta[(a + 1) % 3] == 0 && delta[(a + 2) % 3] == 0 {
                masks[oct as usize] |= 1 << (2 * a);
            }
            if delta[a] == 1 && delta[(a + 1) % 3] == 0 && delta[(a + 2) % 3] == 0 {
                masks[oct as usize] |= 1 << (2 * a + 1);
            }
        }
    }
    masks
}

/// True if local point (i, j, k) lies on a masked boundary face.
#[inline]
pub fn on_masked_face(mask: u8, i: usize, j: usize, k: usize) -> bool {
    let r = POINTS_PER_SIDE - 1;
    (mask & 0b000001 != 0 && i == 0)
        || (mask & 0b000010 != 0 && i == r)
        || (mask & 0b000100 != 0 && j == 0)
        || (mask & 0b001000 != 0 && j == r)
        || (mask & 0b010000 != 0 && k == 0)
        || (mask & 0b100000 != 0 && k == r)
}

/// Apply the Sommerfeld override to an octant's freshly computed RHS
/// blocks. Reuses the derivative blocks `bssn_rhs_patch` left in `ws`
/// and stages each face point through the workspace's own buffers.
pub fn sommerfeld_fix(
    mesh: &Mesh,
    oct: usize,
    mask: u8,
    patches: &[&[f64]],
    ws: &mut RhsWorkspace,
    out: &mut [&mut [f64]],
) {
    if mask == 0 {
        return;
    }
    let o = PatchLayout::octant();
    for (i, j, k) in o.iter() {
        if !on_masked_face(mask, i, j, k) {
            continue;
        }
        let pos = mesh.point_coords(oct, i, j, k);
        let (u, point_out) = ws.point_inputs(patches, i, j, k);
        sommerfeld_rhs_point(u, pos, point_out);
        let pt = o.idx(i, j, k);
        for v in 0..NUM_VARS {
            out[v][pt] = point_out[v];
        }
    }
}
