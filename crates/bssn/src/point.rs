//! Handwritten pointwise BSSN right-hand side.
//!
//! A direct transcription of Eqs. (1)–(19) into arithmetic on a [`Real`]:
//! `f64` for one point, `Lanes<L>` for `L` points at once. The
//! input layout is the 234-entry vector defined by `gw_expr::symbols`
//! (24 fields + 72 ∂ + 66 ∂∂ + 72 KO), the output the 24 RHS values.
//! Kept intentionally separate from the symbolic construction so the two
//! transcriptions check each other (see the cross-validation test).

use crate::real::Real;
use gw_expr::bssn::BssnParams;
use gw_expr::symbols::{input_d1, input_d2, input_ko, input_value, var, NUM_INPUTS, NUM_OUTPUTS};

/// Evaluate the BSSN RHS at one grid point (`R = f64`) or at a batch of
/// points, one per lane (`R = Lanes<L>`, bit-identical per lane).
#[inline(always)]
pub fn bssn_rhs_point<R: Real>(u: &[R], out: &mut [R], params: &BssnParams) {
    debug_assert!(u.len() >= NUM_INPUTS);
    debug_assert!(out.len() >= NUM_OUTPUTS);
    let c = R::splat;
    let zero = c(0.0);

    // ---- Load fields -----------------------------------------------------
    let alpha = u[input_value(var::ALPHA)];
    let beta =
        [u[input_value(var::beta(0))], u[input_value(var::beta(1))], u[input_value(var::beta(2))]];
    let bb = [
        u[input_value(var::b_var(0))],
        u[input_value(var::b_var(1))],
        u[input_value(var::b_var(2))],
    ];
    let chi = u[input_value(var::CHI)];
    let kk = u[input_value(var::K)];
    let mut gt = [[zero; 3]; 3];
    let mut at = [[zero; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            gt[i][j] = u[input_value(var::gt(i, j))];
            at[i][j] = u[input_value(var::at(i, j))];
        }
    }
    let gamt =
        [u[input_value(var::gamt(0))], u[input_value(var::gamt(1))], u[input_value(var::gamt(2))]];

    // ---- Load derivatives ------------------------------------------------
    let d = |v: usize, a: usize| u[input_d1(v, a)];
    let d2 = |v: usize, a: usize, b: usize| u[input_d2(v, a, b)];
    let da = [d(var::ALPHA, 0), d(var::ALPHA, 1), d(var::ALPHA, 2)];
    let dchi = [d(var::CHI, 0), d(var::CHI, 1), d(var::CHI, 2)];
    let dk = [d(var::K, 0), d(var::K, 1), d(var::K, 2)];
    let mut db = [[zero; 3]; 3]; // db[i][j] = ∂_j β^i
    let mut dbb = [[zero; 3]; 3];
    let mut dgamt = [[zero; 3]; 3]; // dgamt[i][j] = ∂_j Γ̃^i
    for i in 0..3 {
        for j in 0..3 {
            db[i][j] = d(var::beta(i), j);
            dbb[i][j] = d(var::b_var(i), j);
            dgamt[i][j] = d(var::gamt(i), j);
        }
    }
    // dgt[k][i][j] = ∂_k γ̃_ij ; dat likewise.
    let mut dgt = [[[zero; 3]; 3]; 3];
    let mut dat = [[[zero; 3]; 3]; 3];
    for k in 0..3 {
        for i in 0..3 {
            for j in 0..3 {
                dgt[k][i][j] = d(var::gt(i, j), k);
                dat[k][i][j] = d(var::at(i, j), k);
            }
        }
    }

    let divbeta = db[0][0] + db[1][1] + db[2][2];
    let inv_chi = c(1.0) / chi;

    // ---- Inverse conformal metric -----------------------------------------
    let det = gt[0][0] * (gt[1][1] * gt[2][2] - gt[1][2] * gt[1][2])
        - gt[0][1] * (gt[0][1] * gt[2][2] - gt[0][2] * gt[1][2])
        + gt[0][2] * (gt[0][1] * gt[1][2] - gt[0][2] * gt[1][1]);
    let idet = c(1.0) / det;
    let mut gti = [[zero; 3]; 3];
    gti[0][0] = (gt[1][1] * gt[2][2] - gt[1][2] * gt[1][2]) * idet;
    gti[0][1] = (gt[0][2] * gt[1][2] - gt[0][1] * gt[2][2]) * idet;
    gti[0][2] = (gt[0][1] * gt[1][2] - gt[0][2] * gt[1][1]) * idet;
    gti[1][1] = (gt[0][0] * gt[2][2] - gt[0][2] * gt[0][2]) * idet;
    gti[1][2] = (gt[0][1] * gt[0][2] - gt[0][0] * gt[1][2]) * idet;
    gti[2][2] = (gt[0][0] * gt[1][1] - gt[0][1] * gt[0][1]) * idet;
    gti[1][0] = gti[0][1];
    gti[2][0] = gti[0][2];
    gti[2][1] = gti[1][2];

    // ---- Christoffels ------------------------------------------------------
    // c1[l][i][j] = Γ̃_lij, c2[k][i][j] = Γ̃^k_ij.
    let mut c1 = [[[zero; 3]; 3]; 3];
    for l in 0..3 {
        for i in 0..3 {
            for j in 0..3 {
                c1[l][i][j] = c(0.5) * (dgt[j][l][i] + dgt[i][l][j] - dgt[l][i][j]);
            }
        }
    }
    let mut c2 = [[[zero; 3]; 3]; 3];
    for k in 0..3 {
        for i in 0..3 {
            for j in 0..3 {
                let mut s = zero;
                for l in 0..3 {
                    s += gti[k][l] * c1[l][i][j];
                }
                c2[k][i][j] = s;
            }
        }
    }
    // Metric-derived Γ̃^m (used in R^χ).
    let mut cal_gamt = [zero; 3];
    for (m, cg) in cal_gamt.iter_mut().enumerate() {
        let mut s = zero;
        for k in 0..3 {
            for l in 0..3 {
                s += gti[k][l] * c2[m][k][l];
            }
        }
        *cg = s;
    }

    // ---- Ã with raised indices ---------------------------------------------
    let mut at_u1 = [[zero; 3]; 3]; // Ã^k_j
    for k in 0..3 {
        for j in 0..3 {
            let mut s = zero;
            for l in 0..3 {
                s += gti[k][l] * at[l][j];
            }
            at_u1[k][j] = s;
        }
    }
    let mut at_u2 = [[zero; 3]; 3]; // Ã^ij
    for i in 0..3 {
        for j in 0..3 {
            let mut s = zero;
            for k in 0..3 {
                s += gti[j][k] * at_u1[i][k];
            }
            at_u2[i][j] = s;
        }
    }

    // ---- Ricci tensor --------------------------------------------------------
    let mut rt = [[zero; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            let mut s = zero;
            // −½ γ̃^lm ∂_l∂_m γ̃_ij
            for l in 0..3 {
                for m in 0..3 {
                    s += c(-0.5) * gti[l][m] * d2(var::gt(i, j), l, m);
                }
            }
            // ½ (γ̃_ki ∂_j Γ̃^k + γ̃_kj ∂_i Γ̃^k) + ½ Γ̃^k (Γ̃_ijk + Γ̃_jik)
            for k in 0..3 {
                s += c(0.5) * (gt[k][i] * dgamt[k][j] + gt[k][j] * dgamt[k][i]);
                s += c(0.5) * gamt[k] * (c1[i][j][k] + c1[j][i][k]);
            }
            // γ̃^lm (Γ̃^k_li Γ̃_jkm + Γ̃^k_lj Γ̃_ikm + Γ̃^k_im Γ̃_klj)
            for l in 0..3 {
                for m in 0..3 {
                    for k in 0..3 {
                        s += gti[l][m]
                            * (c2[k][l][i] * c1[j][k][m]
                                + c2[k][l][j] * c1[i][k][m]
                                + c2[k][i][m] * c1[k][l][j]);
                    }
                }
            }
            rt[i][j] = s;
        }
    }
    // R^χ_ij.
    let mut lap_chi = zero;
    let mut dchi2 = zero;
    for k in 0..3 {
        for l in 0..3 {
            lap_chi += gti[k][l] * d2(var::CHI, k, l);
            dchi2 += gti[k][l] * dchi[k] * dchi[l];
        }
    }
    let mut gamt_dchi = zero;
    for m in 0..3 {
        gamt_dchi += cal_gamt[m] * dchi[m];
    }
    let bracket = lap_chi - c(1.5) * dchi2 * inv_chi - gamt_dchi;
    let half_inv_chi = c(0.5) * inv_chi;
    let mut ricci = [[zero; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            let mut cov = d2(var::CHI, i, j);
            for k in 0..3 {
                cov -= c2[k][i][j] * dchi[k];
            }
            let m1 = half_inv_chi * cov;
            let m2 = c(0.25) * inv_chi * inv_chi * dchi[i] * dchi[j];
            let rchi = m1 - m2 + half_inv_chi * gt[i][j] * bracket;
            ricci[i][j] = rt[i][j] + rchi;
        }
    }

    // ---- Covariant second derivative of the lapse ------------------------------
    let mut gti_dchi = [zero; 3];
    for (k, gd) in gti_dchi.iter_mut().enumerate() {
        let mut s = zero;
        for l in 0..3 {
            s += gti[k][l] * dchi[l];
        }
        *gd = s;
    }
    let mut dda_cov = [[zero; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            let mut s = d2(var::ALPHA, i, j);
            for k in 0..3 {
                let mut corr = zero;
                if k == i {
                    corr += dchi[j];
                }
                if k == j {
                    corr += dchi[i];
                }
                corr -= gt[i][j] * gti_dchi[k];
                let full_c = c2[k][i][j] - half_inv_chi * corr;
                s -= full_c * da[k];
            }
            dda_cov[i][j] = s;
        }
    }
    let mut lap_alpha = zero;
    for i in 0..3 {
        for j in 0..3 {
            lap_alpha += gti[i][j] * dda_cov[i][j];
        }
    }
    lap_alpha *= chi;

    // ---- Equations ----------------------------------------------------------
    let adv = |grad: &[R; 3]| beta[0] * grad[0] + beta[1] * grad[1] + beta[2] * grad[2];

    // (1) lapse.
    out[var::ALPHA] = adv(&da) - c(2.0) * alpha * kk;

    // (8) Γ̃^i first (feeds B^i).
    let mut gamt_rhs = [zero; 3];
    for i in 0..3 {
        let mut s = zero;
        for j in 0..3 {
            for k in 0..3 {
                s += gti[j][k] * d2(var::beta(i), j, k);
            }
        }
        for j in 0..3 {
            let mut dd = zero;
            for k in 0..3 {
                dd += d2(var::beta(k), j, k);
            }
            s += gti[i][j] * dd / c(3.0);
        }
        s += adv(&[dgamt[i][0], dgamt[i][1], dgamt[i][2]]);
        for j in 0..3 {
            s -= gamt[j] * db[i][j];
        }
        s += c(2.0 / 3.0) * gamt[i] * divbeta;
        for j in 0..3 {
            s -= c(2.0) * at_u2[i][j] * da[j];
        }
        let mut inner = zero;
        for j in 0..3 {
            for k in 0..3 {
                inner += c2[i][j][k] * at_u2[j][k];
            }
            inner -= c(1.5) * at_u2[i][j] * dchi[j] * inv_chi;
            inner -= c(2.0 / 3.0) * gti[i][j] * dk[j];
        }
        s += c(2.0) * alpha * inner;
        gamt_rhs[i] = s;
        out[var::gamt(i)] = s;
    }

    // (2) shift, (3) B.
    for i in 0..3 {
        out[var::beta(i)] = adv(&[db[i][0], db[i][1], db[i][2]]) + c(0.75) * bb[i];
        out[var::b_var(i)] = gamt_rhs[i] - c(params.eta) * bb[i]
            + adv(&[dbb[i][0], dbb[i][1], dbb[i][2]])
            - adv(&[dgamt[i][0], dgamt[i][1], dgamt[i][2]]);
    }

    // (4) conformal metric.
    for i in 0..3 {
        for j in i..3 {
            let mut s = adv(&[dgt[0][i][j], dgt[1][i][j], dgt[2][i][j]]);
            for k in 0..3 {
                s += gt[i][k] * db[k][j] + gt[k][j] * db[k][i];
            }
            s -= c(2.0 / 3.0) * gt[i][j] * divbeta;
            s -= c(2.0) * alpha * at[i][j];
            out[var::gt(i, j)] = s;
        }
    }

    // (5) chi.
    out[var::CHI] = adv(&dchi) + c(2.0 / 3.0) * chi * (alpha * kk - divbeta);

    // (6) Ã.
    // S_ij = −D_iD_jα + α R_ij, trace-free with γ̃.
    let mut s_tensor = [[zero; 3]; 3];
    let mut s_trace = zero;
    for i in 0..3 {
        for j in 0..3 {
            s_tensor[i][j] = alpha * ricci[i][j] - dda_cov[i][j];
            s_trace += gti[i][j] * s_tensor[i][j];
        }
    }
    for i in 0..3 {
        for j in i..3 {
            let mut s = adv(&[dat[0][i][j], dat[1][i][j], dat[2][i][j]]);
            for k in 0..3 {
                s += at[i][k] * db[k][j] + at[k][j] * db[k][i];
            }
            s -= c(2.0 / 3.0) * at[i][j] * divbeta;
            s += chi * (s_tensor[i][j] - gt[i][j] * s_trace / c(3.0));
            let mut aa = zero;
            for k in 0..3 {
                aa += at[i][k] * at_u1[k][j];
            }
            s += alpha * (kk * at[i][j] - c(2.0) * aa);
            out[var::at(i, j)] = s;
        }
    }

    // (7) K.
    let mut asq = zero;
    for i in 0..3 {
        for j in 0..3 {
            asq += at_u2[i][j] * at[i][j];
        }
    }
    out[var::K] = adv(&dk) - lap_alpha + alpha * (asq + kk * kk / c(3.0));

    // ---- KO dissipation ---------------------------------------------------
    for v in 0..NUM_OUTPUTS {
        let ko = u[input_ko(v, 0)] + u[input_ko(v, 1)] + u[input_ko(v, 2)];
        out[v] += c(params.ko_sigma) * ko;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real::Lanes;
    use gw_expr::bssn::build_bssn_rhs;

    fn flat_inputs() -> Vec<f64> {
        let mut u = vec![0.0; NUM_INPUTS];
        u[input_value(var::ALPHA)] = 1.0;
        u[input_value(var::CHI)] = 1.0;
        u[input_value(var::gt(0, 0))] = 1.0;
        u[input_value(var::gt(1, 1))] = 1.0;
        u[input_value(var::gt(2, 2))] = 1.0;
        u
    }

    #[test]
    fn flat_space_stationary() {
        let mut out = vec![0.0; NUM_OUTPUTS];
        bssn_rhs_point(&flat_inputs(), &mut out, &BssnParams::default());
        for (i, o) in out.iter().enumerate() {
            assert!(o.abs() < 1e-14, "rhs[{i}] = {o}");
        }
    }

    /// 25 randomized strong-field input vectors: every input `0.2 ×
    /// U(−½, ½)`, the metric kept positive definite and χ, α away from
    /// zero.
    fn strong_field_inputs() -> Vec<Vec<f64>> {
        let mut seed = 0xfeedbeefu64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        };
        (0..25)
            .map(|_| {
                let mut u = vec![0.0; NUM_INPUTS];
                for v in u.iter_mut() {
                    *v = 0.2 * rng();
                }
                u[input_value(var::ALPHA)] = 0.8 + 0.3 * rng().abs();
                u[input_value(var::CHI)] = 0.5 + 0.4 * rng().abs();
                u[input_value(var::gt(0, 0))] = 1.0 + 0.2 * rng();
                u[input_value(var::gt(1, 1))] = 1.0 + 0.2 * rng();
                u[input_value(var::gt(2, 2))] = 1.0 + 0.2 * rng();
                u
            })
            .collect()
    }

    /// The decisive test: the handwritten RHS and the independently-built
    /// symbolic RHS agree on randomized strong-field inputs.
    #[test]
    fn matches_symbolic_construction() {
        let params = BssnParams { eta: 1.3, ko_sigma: 0.25, chi_floor: 1e-4 };
        let rhs = build_bssn_rhs(params);
        for (trial, u) in strong_field_inputs().iter().enumerate() {
            let sym = rhs.graph.eval(&rhs.outputs, u);
            let mut hand = vec![0.0; NUM_OUTPUTS];
            bssn_rhs_point(u, &mut hand, &params);
            for v in 0..NUM_OUTPUTS {
                let scale = 1.0 + sym[v].abs();
                assert!(
                    (sym[v] - hand[v]).abs() < 1e-11 * scale,
                    "trial {trial} var {v} ({}): symbolic {} vs handwritten {}",
                    gw_expr::symbols::VAR_NAMES[v],
                    sym[v],
                    hand[v]
                );
            }
        }
    }

    /// Lane `l` of a `Lanes<L>` batch is the `f64` evaluation of the
    /// point in it, bit for bit; a partial last batch repeats its last
    /// point.
    fn lanes_match_scalar<const L: usize>() {
        let params = BssnParams { eta: 1.3, ko_sigma: 0.25, chi_floor: 1e-4 };
        let points = strong_field_inputs();
        for (b, batch) in points.chunks(L).enumerate() {
            let lane = |l: usize| &batch[l.min(batch.len() - 1)];
            let u: Vec<Lanes<L>> =
                (0..NUM_INPUTS).map(|i| Lanes(std::array::from_fn(|l| lane(l)[i]))).collect();
            let mut out = vec![Lanes::splat(0.0); NUM_OUTPUTS];
            bssn_rhs_point(&u, &mut out, &params);
            for l in 0..L {
                let mut scalar = vec![0.0; NUM_OUTPUTS];
                bssn_rhs_point(lane(l), &mut scalar, &params);
                for v in 0..NUM_OUTPUTS {
                    assert_eq!(
                        out[v].0[l].to_bits(),
                        scalar[v].to_bits(),
                        "L={L} batch {b} lane {l} var {v}: {} vs {}",
                        out[v].0[l],
                        scalar[v]
                    );
                }
            }
        }
    }

    #[test]
    fn lanes_match_scalar_bitwise() {
        lanes_match_scalar::<1>();
        lanes_match_scalar::<7>();
        lanes_match_scalar::<32>();
    }

    #[test]
    fn schwarzschild_like_static_data_small_rhs() {
        // Isotropic-Schwarzschild-inspired conformal data at a sample
        // point: ψ = 1 + M/(2r), χ = ψ^{-4}, α = ψ^{-2} (precollapsed),
        // K = Ã = 0, conformally flat. These data are not an exact static
        // solution of the gauge, but constraint-satisfying: the metric
        // sector RHS (γ̃, χ) must vanish identically at zero shift.
        let m = 1.0;
        let r: f64 = 3.0;
        let psi = 1.0 + m / (2.0 * r);
        let mut u = flat_inputs();
        u[input_value(var::CHI)] = psi.powi(-4);
        u[input_value(var::ALPHA)] = psi.powi(-2);
        // Radial derivative of χ along x at (r,0,0): dχ/dr = 2M/r² ψ^{-5}.
        u[input_d1(var::CHI, 0)] = 2.0 * m / (r * r) * psi.powi(-5);
        let mut out = vec![0.0; NUM_OUTPUTS];
        bssn_rhs_point(&u, &mut out, &BssnParams::default());
        // ∂_t γ̃_ij = −2αÃ_ij = 0; ∂_t χ = (2/3)χ(αK − divβ) = 0.
        for i in 0..3 {
            for j in i..3 {
                assert!(out[var::gt(i, j)].abs() < 1e-14);
            }
        }
        assert!(out[var::CHI].abs() < 1e-14);
    }

    #[test]
    fn ko_dissipation_scaling() {
        let params = BssnParams { eta: 2.0, ko_sigma: 0.9, chi_floor: 1e-4 };
        let mut u = flat_inputs();
        u[input_ko(var::K, 1)] = 2.0;
        let mut out = vec![0.0; NUM_OUTPUTS];
        bssn_rhs_point(&u, &mut out, &params);
        assert!((out[var::K] - 1.8).abs() < 1e-14);
    }
}
