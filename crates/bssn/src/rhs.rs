//! The fused per-patch RHS driver: derivatives + algebraic combination.
//!
//! One call processes one octant: compute all 210 derivative blocks from
//! the 24 padded patches, then run the `A` component at each of the `r^3`
//! points — either the handwritten pointwise code or a generated tape
//! (the SymPyGR / binary-reduce / staged+CSE variants of Table II).
//!
//! The octant step and both `A` batches are compiled once per vector tier
//! and run at the host's ([`Isa::host`], DESIGN.md §18).

use crate::derivs::{fields_at, DerivWorkspace};
use crate::point::bssn_rhs_point;
use crate::real::Lanes;
use gw_expr::bssn::BssnParams;
use gw_expr::symbols::{var, NUM_INPUTS, NUM_VARS};
use gw_expr::tape::{eval_lanes_at, Tape};
use gw_par::Isa;
use gw_stencil::patch::{PatchLayout, BLOCK_VOLUME, PADDING};

/// Points the `A` component evaluates per batch: the handwritten `A` on
/// [`Lanes<LANES>`] and a generated tape through [`Tape::eval_lanes`].
///
/// Chosen by measurement on one 7³ octant of the staged+CSE tape: 16 to
/// 64 lanes amortize the per-instruction dispatch about equally, fewer
/// leave it dominant, and 128 outgrows the cache. The lane buffers are
/// (234 inputs + 24 outputs + 144 slots) × `LANES` × 8 B ≈ 0.1 MB. The
/// octant's 343 points make 10 full batches and one partial batch (see
/// DESIGN.md §13). A lane row is 16 SSE2, 8 AVX2 or 4 AVX-512 registers
/// wide, so no vector tier has a remainder loop (§18).
pub const LANES: usize = 32;

/// Which `A` implementation to run.
pub enum RhsMode<'a> {
    /// Handwritten pointwise evaluation.
    Pointwise,
    /// A compiled tape (generated code).
    Tape(&'a Tape),
}

/// One lane row on a cache-line boundary. A 256-byte row is a whole
/// number of 64-byte lines, so every row of a `Vec<LaneRow>` starts on
/// one too.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct LaneRow([f64; LANES]);

const _: () = assert!(std::mem::size_of::<LaneRow>() == std::mem::size_of::<[f64; LANES]>());

/// Lane rows that start on a cache line whatever the heap layout, viewed
/// as `[[f64; LANES]]`. With a plain `Vec<[f64; LANES]>` (8-byte
/// aligned) the tiers' 32- and 64-byte lane loads split cache lines or
/// not depending on what the thread allocated before: the same tape ran
/// 15–35 % slower on the gpu-sim RHS after an unrelated allocation
/// moved (DESIGN.md §19).
struct LaneRows(Vec<LaneRow>);

impl LaneRows {
    fn zeros(n: usize) -> Self {
        Self(vec![LaneRow([0.0; LANES]); n])
    }
}

impl std::ops::Deref for LaneRows {
    type Target = [[f64; LANES]];

    fn deref(&self) -> &Self::Target {
        // SAFETY: `LaneRow` is `repr(C)` around one `[f64; LANES]` with
        // no padding (asserted above), so the rows are that many
        // contiguous arrays; the view borrows `self`.
        unsafe { std::slice::from_raw_parts(self.0.as_ptr().cast(), self.0.len()) }
    }
}

impl std::ops::DerefMut for LaneRows {
    fn deref_mut(&mut self) -> &mut Self::Target {
        // SAFETY: as in `deref`; the view holds `self`'s unique borrow.
        unsafe { std::slice::from_raw_parts_mut(self.0.as_mut_ptr().cast(), self.0.len()) }
    }
}

/// Scratch buffers for one octant's RHS evaluation.
pub struct RhsWorkspace {
    pub derivs: DerivWorkspace,
    /// One point's inputs and outputs, for [`RhsWorkspace::point_inputs`].
    inputs: Vec<f64>,
    point_out: Vec<f64>,
    /// A batch of [`LANES`] points, structure-of-arrays, for either `A`.
    lane_inputs: LaneRows,
    lane_out: LaneRows,
    lane_slots: LaneRows,
}

impl RhsWorkspace {
    /// Buffers for a tape of at most `max_slots` temporaries (any value
    /// for the pointwise `A`).
    pub fn new(max_slots: usize) -> Self {
        Self {
            derivs: DerivWorkspace::new(),
            inputs: vec![0.0; NUM_INPUTS],
            point_out: vec![0.0; NUM_VARS],
            lane_inputs: LaneRows::zeros(NUM_INPUTS),
            lane_out: LaneRows::zeros(NUM_VARS),
            lane_slots: LaneRows::zeros(max_slots.max(1)),
        }
    }

    /// The largest tape slot count these buffers can evaluate.
    pub fn max_slots(&self) -> usize {
        self.lane_slots.len()
    }

    /// Stage the 234 inputs of block point `(i, j, k)` — raw field values
    /// from `patches` and the derivative blocks of the last
    /// [`bssn_rhs_patch`] call — and return them with a 24-entry output
    /// buffer for one point.
    pub fn point_inputs(
        &mut self,
        patches: &[&[f64]],
        i: usize,
        j: usize,
        k: usize,
    ) -> (&[f64], &mut [f64]) {
        let pt = PatchLayout::octant().idx(i, j, k);
        self.derivs.assemble_inputs(&fields_at(patches, i, j, k), pt, &mut self.inputs);
        (&self.inputs, &mut self.point_out)
    }

    /// Gather block points `p0..p0 + n` (`1 ≤ n ≤ LANES`) into the lane
    /// inputs: field values from the patch interiors with the χ floor
    /// applied, derivatives as one slice copy per block. Lanes `n..` repeat
    /// the last real point, so every lane computes on real data.
    #[inline(always)]
    fn gather_lanes(&mut self, patches: &[&[f64]], chi_floor: f64, p0: usize, n: usize) {
        let (o, p) = (PatchLayout::octant(), PatchLayout::padded());
        for l in 0..LANES {
            let (i, j, k) = o.coords(p0 + l.min(n - 1));
            let idx = p.idx(i + PADDING, j + PADDING, k + PADDING);
            for v in 0..NUM_VARS {
                self.lane_inputs[v][l] = patches[v][idx];
            }
            self.lane_inputs[var::CHI][l] = self.lane_inputs[var::CHI][l].max(chi_floor);
        }
        for (slot, lanes) in self.lane_inputs.iter_mut().enumerate().skip(NUM_VARS) {
            let block = &self.derivs.block(slot)[p0..p0 + n];
            lanes[..n].copy_from_slice(block);
            lanes[n..].fill(block[n - 1]);
        }
    }
}

/// Evaluate the BSSN RHS on one octant, at the host's vector width
/// ([`Isa::host`]; bit-identical on every tier, DESIGN.md §18).
///
/// `patches[v]` is variable `v`'s padded patch, `out[v]` the `r^3` RHS
/// block to fill. Returns (derivative flops, `A` flops).
pub fn bssn_rhs_patch(
    patches: &[&[f64]],
    h: f64,
    params: &BssnParams,
    mode: &RhsMode<'_>,
    ws: &mut RhsWorkspace,
    out: &mut [&mut [f64]],
) -> (u64, u64) {
    bssn_rhs_patch_at(Isa::host(), patches, h, params, mode, ws, out)
}

gw_par::isa_dispatch! {
    /// [`bssn_rhs_patch`] compiled for tier `isa`.
    pub(crate) fn bssn_rhs_patch_at(
        isa: Isa,
        patches: &[&[f64]],
        h: f64,
        params: &BssnParams,
        mode: &RhsMode<'_>,
        ws: &mut RhsWorkspace,
        out: &mut [&mut [f64]],
    ) -> (u64, u64) = rhs_patch_body;
}

/// One octant's derivatives, lane gathers, `A` batches and write-back,
/// inlined into each tier of [`bssn_rhs_patch_at`]. Either `A` runs
/// through its own tiered entry, at the same tier (DESIGN.md §18).
#[inline(always)]
fn rhs_patch_body(
    isa: Isa,
    patches: &[&[f64]],
    h: f64,
    params: &BssnParams,
    mode: &RhsMode<'_>,
    ws: &mut RhsWorkspace,
    out: &mut [&mut [f64]],
) -> (u64, u64) {
    assert_eq!(patches.len(), NUM_VARS);
    assert_eq!(out.len(), NUM_VARS);
    let d_flops = ws.derivs.compute(patches, h);
    let a_flops = match mode {
        // Handwritten op count estimate.
        RhsMode::Pointwise => 2200,
        RhsMode::Tape(t) => {
            assert!(ws.max_slots() >= t.n_slots, "workspace built for a smaller tape");
            t.flops
        }
    };
    for p0 in (0..BLOCK_VOLUME).step_by(LANES) {
        let n = LANES.min(BLOCK_VOLUME - p0);
        ws.gather_lanes(patches, params.chi_floor, p0, n);
        match mode {
            RhsMode::Pointwise => bssn_rhs_lanes_at(
                isa,
                Lanes::from_arrays(&ws.lane_inputs[..]),
                Lanes::from_arrays_mut(&mut ws.lane_out[..]),
                params,
            ),
            RhsMode::Tape(t) => eval_lanes_at(
                isa,
                t,
                &ws.lane_inputs[..],
                &mut ws.lane_out[..],
                &mut ws.lane_slots[..],
            ),
        }
        for v in 0..NUM_VARS {
            out[v][p0..p0 + n].copy_from_slice(&ws.lane_out[v][..n]);
        }
    }
    (d_flops, a_flops * BLOCK_VOLUME as u64)
}

gw_par::isa_dispatch! {
    /// The handwritten `A` on one batch of [`LANES`] points, compiled for
    /// tier `isa`: the entry the pointwise RHS runs per batch.
    pub fn bssn_rhs_lanes_at(
        isa: Isa,
        u: &[Lanes<LANES>],
        out: &mut [Lanes<LANES>],
        params: &BssnParams,
    ) = bssn_rhs_lanes_body;
}

#[inline(always)]
fn bssn_rhs_lanes_body(
    _isa: Isa,
    u: &[Lanes<LANES>],
    out: &mut [Lanes<LANES>],
    params: &BssnParams,
) {
    bssn_rhs_point(u, out, params);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_expr::bssn::build_bssn_rhs;
    use gw_expr::schedule::{schedule, ScheduleStrategy};
    use gw_stencil::patch::{PatchLayout, PADDING};

    /// Patches holding a smooth spacetime-like configuration.
    fn smooth_patches(h: f64) -> Vec<Vec<f64>> {
        let p = PatchLayout::padded();
        (0..NUM_VARS)
            .map(|v| {
                let mut buf = vec![0.0; p.volume()];
                for (i, j, k) in p.iter() {
                    let x = (i as f64 - PADDING as f64) * h;
                    let y = (j as f64 - PADDING as f64) * h;
                    let z = (k as f64 - PADDING as f64) * h;
                    let w = 0.02 * ((x + 0.3 * y).sin() * (0.5 * z).cos() + 0.3 * x * y);
                    use gw_expr::symbols::var;
                    buf[p.idx(i, j, k)] = match v {
                        var::ALPHA => 1.0 + 0.5 * w,
                        var::CHI => 1.0 + 0.4 * w,
                        _ if v == var::gt(0, 0) || v == var::gt(1, 1) || v == var::gt(2, 2) => {
                            1.0 + w
                        }
                        _ => w * (1.0 + 0.1 * v as f64),
                    };
                }
                buf
            })
            .collect()
    }

    #[test]
    fn pointwise_and_all_tapes_agree_on_patch() {
        let h = 0.05;
        let patches = smooth_patches(h);
        let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
        let params = BssnParams::default();

        let run = |mode: &RhsMode<'_>, max_slots: usize| -> Vec<Vec<f64>> {
            let mut ws = RhsWorkspace::new(max_slots);
            let mut out: Vec<Vec<f64>> = vec![vec![0.0; BLOCK_VOLUME]; NUM_VARS];
            {
                let mut views: Vec<&mut [f64]> = out.iter_mut().map(|v| v.as_mut_slice()).collect();
                bssn_rhs_patch(&refs, h, &params, mode, &mut ws, &mut views);
            }
            out
        };

        let base = run(&RhsMode::Pointwise, 1);
        let rhs = build_bssn_rhs(params);
        for strat in ScheduleStrategy::all() {
            let sch = schedule(&rhs.graph, &rhs.outputs, strat);
            let tape = Tape::compile(&rhs.graph, &sch, 56);
            let got = run(&RhsMode::Tape(&tape), tape.n_slots);
            for v in 0..NUM_VARS {
                for pt in 0..BLOCK_VOLUME {
                    let (a, b) = (base[v][pt], got[v][pt]);
                    assert!(
                        (a - b).abs() < 1e-10 * (1.0 + a.abs()),
                        "{strat:?} var {v} pt {pt}: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// Smooth patches with χ below the floor over part of the octant, so
    /// the lane gather must clamp exactly where the per-point path does.
    fn chi_floored_patches(h: f64, params: &BssnParams) -> Vec<Vec<f64>> {
        let mut patches = smooth_patches(h);
        let p = PatchLayout::padded();
        for (i, j, k) in p.iter() {
            let x = (i + 2 * j + 3 * k) as f64 * 0.3;
            patches[var::CHI][p.idx(i, j, k)] = 1e-4 * (1.0 + 0.9 * x.sin());
        }
        let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
        let floored = PatchLayout::octant()
            .iter()
            .filter(|&(i, j, k)| fields_at(&refs, i, j, k)[var::CHI] < params.chi_floor)
            .count();
        assert!(floored > 0 && floored < BLOCK_VOLUME, "{floored} floored points");
        patches
    }

    /// Check `out` against `eval` run on each point's floored, assembled
    /// 234 inputs, bit for bit.
    fn assert_matches_per_point(
        refs: &[&[f64]],
        params: &BssnParams,
        ws: &RhsWorkspace,
        out: &[Vec<f64>],
        mut eval: impl FnMut(&[f64], &mut [f64]),
        label: &str,
    ) {
        let o = PatchLayout::octant();
        let mut inputs = vec![0.0; NUM_INPUTS];
        let mut point = vec![0.0; NUM_VARS];
        for (i, j, k) in o.iter() {
            let pt = o.idx(i, j, k);
            let mut fields = fields_at(refs, i, j, k);
            fields[var::CHI] = fields[var::CHI].max(params.chi_floor);
            ws.derivs.assemble_inputs(&fields, pt, &mut inputs);
            eval(&inputs, &mut point);
            for v in 0..NUM_VARS {
                assert!(point[v].is_finite(), "{label} var {v} pt {pt}");
                assert_eq!(
                    out[v][pt].to_bits(),
                    point[v].to_bits(),
                    "{label} var {v} pt {pt}: {} vs {}",
                    out[v][pt],
                    point[v]
                );
            }
        }
    }

    #[test]
    fn lane_batched_tape_matches_per_point_reference_bitwise() {
        let h = 0.05;
        let params = BssnParams::default();
        let patches = chi_floored_patches(h, &params);
        let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
        let rhs = build_bssn_rhs(params);
        for strat in ScheduleStrategy::all() {
            let tape = Tape::compile(&rhs.graph, &schedule(&rhs.graph, &rhs.outputs, strat), 56);
            let mut ws = RhsWorkspace::new(tape.n_slots);
            let mut out: Vec<Vec<f64>> = vec![vec![0.0; BLOCK_VOLUME]; NUM_VARS];
            let mut views: Vec<&mut [f64]> = out.iter_mut().map(|v| v.as_mut_slice()).collect();
            let (_, a_flops) =
                bssn_rhs_patch(&refs, h, &params, &RhsMode::Tape(&tape), &mut ws, &mut views);
            assert_eq!(a_flops, tape.flops * BLOCK_VOLUME as u64);

            // Per-point reference: one single-lane evaluation per point.
            let mut slots = vec![0.0; tape.n_slots];
            let eval = |u: &[f64], o: &mut [f64]| tape.eval_into(u, o, &mut slots);
            assert_matches_per_point(&refs, &params, &ws, &out, eval, strat.name());
        }
    }

    #[test]
    fn pointwise_lanes_match_per_point_bitwise() {
        let h = 0.05;
        let params = BssnParams::default();
        let patches = chi_floored_patches(h, &params);
        let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
        let mut ws = RhsWorkspace::new(1);
        let mut out: Vec<Vec<f64>> = vec![vec![0.0; BLOCK_VOLUME]; NUM_VARS];
        let mut views: Vec<&mut [f64]> = out.iter_mut().map(|v| v.as_mut_slice()).collect();
        let (_, a_flops) =
            bssn_rhs_patch(&refs, h, &params, &RhsMode::Pointwise, &mut ws, &mut views);
        assert_eq!(a_flops, 2200 * BLOCK_VOLUME as u64);
        let eval = |u: &[f64], o: &mut [f64]| bssn_rhs_point(u, o, &params);
        assert_matches_per_point(&refs, &params, &ws, &out, eval, "pointwise");
    }

    #[test]
    fn isa_tiers_match_baseline_bitwise() {
        let h = 0.05;
        let params = BssnParams::default();
        let mut patches = chi_floored_patches(h, &params);
        // Signed zeros in a shift component, the trace K and χ itself
        // (where the floor replaces them), so the tiers' handling of the
        // sign of zero is compared too.
        let p = PatchLayout::padded();
        for (n, (i, j, k)) in p.iter().enumerate() {
            let zero = if n % 2 == 0 { 0.0 } else { -0.0 };
            for v in [var::beta(1), var::K, var::CHI] {
                if (n + v) % 11 == 0 {
                    patches[v][p.idx(i, j, k)] = zero;
                }
            }
        }
        let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
        let rhs = build_bssn_rhs(params);
        let tapes: Vec<Tape> = ScheduleStrategy::all()
            .into_iter()
            .map(|s| Tape::compile(&rhs.graph, &schedule(&rhs.graph, &rhs.outputs, s), 56))
            .collect();
        let mut modes = vec![(RhsMode::Pointwise, 1, "pointwise")];
        modes.extend(tapes.iter().map(|t| (RhsMode::Tape(t), t.n_slots, t.strategy_name)));
        let run = |isa: Isa, mode: &RhsMode<'_>, max_slots: usize| {
            let mut ws = RhsWorkspace::new(max_slots);
            let mut out: Vec<Vec<f64>> = vec![vec![0.0; BLOCK_VOLUME]; NUM_VARS];
            let mut views: Vec<&mut [f64]> = out.iter_mut().map(|v| v.as_mut_slice()).collect();
            let flops = bssn_rhs_patch_at(isa, &refs, h, &params, mode, &mut ws, &mut views);
            (flops, out)
        };
        for (mode, max_slots, label) in &modes {
            let (base_flops, base) = run(Isa::Baseline, mode, *max_slots);
            for isa in Isa::ALL {
                if !isa.is_available() {
                    println!("tier {isa} not available on this host: skipped");
                    continue;
                }
                let (flops, got) = run(isa, mode, *max_slots);
                assert_eq!(flops, base_flops, "{isa} {label}");
                for v in 0..NUM_VARS {
                    for pt in 0..BLOCK_VOLUME {
                        let (a, b) = (got[v][pt], base[v][pt]);
                        assert!(b.is_finite(), "{label} var {v} pt {pt}: {b}");
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{isa} {label} var {v} pt {pt}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn flat_patches_produce_zero_rhs() {
        let h = 0.1;
        let p = PatchLayout::padded();
        let mut patches: Vec<Vec<f64>> = vec![vec![0.0; p.volume()]; NUM_VARS];
        use gw_expr::symbols::var;
        for v in [var::ALPHA, var::CHI, var::gt(0, 0), var::gt(1, 1), var::gt(2, 2)] {
            patches[v].iter_mut().for_each(|x| *x = 1.0);
        }
        let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
        let mut ws = RhsWorkspace::new(1);
        let mut out: Vec<Vec<f64>> = vec![vec![0.0; BLOCK_VOLUME]; NUM_VARS];
        let mut views: Vec<&mut [f64]> = out.iter_mut().map(|v| v.as_mut_slice()).collect();
        bssn_rhs_patch(&refs, h, &BssnParams::default(), &RhsMode::Pointwise, &mut ws, &mut views);
        for v in 0..NUM_VARS {
            for pt in 0..BLOCK_VOLUME {
                assert!(out[v][pt].abs() < 1e-12, "var {v} pt {pt}: {}", out[v][pt]);
            }
        }
    }

    #[test]
    fn flop_counts_reported() {
        let h = 0.05;
        let patches = smooth_patches(h);
        let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
        let mut ws = RhsWorkspace::new(1);
        let mut out: Vec<Vec<f64>> = vec![vec![0.0; BLOCK_VOLUME]; NUM_VARS];
        let mut views: Vec<&mut [f64]> = out.iter_mut().map(|v| v.as_mut_slice()).collect();
        let (d, a) = bssn_rhs_patch(
            &refs,
            h,
            &BssnParams::default(),
            &RhsMode::Pointwise,
            &mut ws,
            &mut views,
        );
        // Derivative flops: ~(72+33)·13 + 33·97 per point — order 10^6 per
        // octant. A flops similar.
        assert!(d > 500_000, "deriv flops {d}");
        assert!(a > 500_000, "A flops {a}");
    }
}
